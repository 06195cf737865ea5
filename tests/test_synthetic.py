import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtri

import ndtri_sweep
from ardlkit import synthetic, unitroot
from ardlkit.errors import ArdlkitError, DegenerateSeries, InvalidParams
from ardlkit.synthetic import (
    MC_CHUNK,
    Dgp,
    ar1,
    ecm_system,
    generate,
    mc_rejection_rate,
    normals,
    random_walk,
    uniforms,
)

from conftest import FIXTURE_CSV
from regenerate_goldens import FIXTURE_DGP, csv_text

# First four splitmix64 uniforms for seed 0, pinned so any change to the
# generator is caught immediately.
UNIFORMS_SEED0 = (
    0.8833108082136426,
    0.43152799704850997,
    0.026433771592597743,
    0.9708819781538285,
)
NORMALS_SEED0 = (
    1.1917013116694626,
    -0.17248532921813492,
    -1.9360012882743605,
    1.8939168791164485,
)


class TestGenerator:
    def test_pinned_uniforms(self):
        np.testing.assert_allclose(uniforms(0, 4), UNIFORMS_SEED0, rtol=0, atol=0)

    def test_pinned_normals(self):
        assert normals(0, 4).tobytes() == np.array(NORMALS_SEED0).tobytes()

    def test_deterministic(self):
        np.testing.assert_array_equal(uniforms(123, 50), uniforms(123, 50))

    def test_prefix_stability(self):
        np.testing.assert_array_equal(uniforms(5, 100)[:20], uniforms(5, 20))

    @given(st.integers(0, 2**63 - 1))
    @settings(max_examples=50, deadline=None)
    def test_open_unit_interval(self, seed):
        u = uniforms(seed, 256)
        assert np.all((u > 0.0) & (u < 1.0))

    def test_seed_vector_gives_one_row_per_seed(self):
        seeds = [0, -1, 2**64 - 1, 2**64, 12345]  # 2**64 wraps to 0
        u = uniforms(seeds, 64)
        z = normals(seeds, 64)
        assert u.shape == z.shape == (5, 64)
        for row, seed in enumerate(seeds):
            assert u[row].tobytes() == uniforms(seed, 64).tobytes()
            assert z[row].tobytes() == normals(seed, 64).tobytes()
        assert u[3].tobytes() == u[0].tobytes()

    def test_different_seeds_differ(self):
        assert not np.array_equal(uniforms(1, 16), uniforms(2, 16))

    def test_moments_roughly_standard(self):
        z = normals(42, 100_000)
        assert abs(z.mean()) < 0.02
        assert abs(z.std() - 1.0) < 0.02


def branch_edges() -> np.ndarray:
    """The extreme uniforms, 1/2, and cephes' branch points exp(-2),
    1 - exp(-2) and exp(-32), each with its two neighbouring doubles.

    Below exp(-32), as at the smallest uniform 2^-53, cephes switches to
    its far-tail polynomial."""
    edges = [2.0**-53, 1.0 - 2.0**-53, 0.5]
    for point in (math.exp(-2), 1.0 - math.exp(-2), math.exp(-32)):
        edges += [np.nextafter(point, 0.0), point, np.nextafter(point, 1.0)]
    return np.array(edges)


class TestInverseNormal:
    """``normals`` is the inverse normal CDF of the uniforms, bitwise
    scipy.special.ndtri (cephes), with no scipy at run time."""

    def test_matches_scipy_on_uniforms(self):
        # 100,000 of tests/ndtri_sweep.py's 4,000,000 draws
        assert ndtri_sweep.mismatches(ndtri_sweep.SEEDS[:1]) == []

    def test_matches_scipy_at_branch_edges(self):
        u = branch_edges()
        assert synthetic._ndtri(u).tobytes() == ndtri(u).tobytes()
        assert synthetic._ndtri(u[::-1].reshape(3, 4)).tobytes() == ndtri(u[::-1]).tobytes()

    def test_agrees_with_mpmath(self):
        # cephes documents a peak relative error of 7.2e-16 on 20,000 trials;
        # the largest found on 21,000 splitmix64 draws is 1.02e-15, at
        # u = 0.137 (seed 1), near the edge of the central branch
        u = np.concatenate([uniforms(1, 1000), branch_edges()])
        u = u[u != 0.5]
        with mpmath.workdps(50):
            exact = np.array([float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(v) - 1))
                              for v in u.tolist()])
        np.testing.assert_allclose(synthetic._ndtri(u), exact, rtol=2e-15, atol=0)
        assert synthetic._ndtri(np.array([0.5]))[0] == 0.0


class TestDgps:
    def test_random_walk_is_cumsum_of_normals(self):
        np.testing.assert_allclose(random_walk(50, 3), np.cumsum(normals(3, 50)))

    def test_random_walk_drift(self):
        np.testing.assert_allclose(
            random_walk(50, 3, drift=0.5), np.cumsum(normals(3, 50) + 0.5)
        )

    def test_ar1_recursion(self):
        y = ar1(30, 9, 0.6, sigma=2.0)
        e = 2.0 * normals(9, 30)
        assert y[0] == e[0]
        for t in range(1, 30):
            assert y[t] == pytest.approx(0.6 * y[t - 1] + e[t], rel=1e-12)

    def test_ecm_system_recursion(self):
        cols = ecm_system(40, 5, beta=(2.0, -1.0), alpha=-0.4, sigma=0.5,
                          delta=0.3, intercept=1.5)
        assert set(cols) == {"Y", "X1", "X2"}
        y = cols["Y"]
        xs = np.column_stack([cols["X1"], cols["X2"]])
        beta = np.array([2.0, -1.0])
        eps = 0.5 * normals(5, 40)
        for t in range(1, 40):
            ect = y[t - 1] - xs[t - 1] @ beta - 1.5
            dx = (xs[t] - xs[t - 1]).sum()
            assert y[t] == pytest.approx(
                y[t - 1] - 0.4 * ect + 0.3 * dx + eps[t], rel=1e-10
            )

    def test_ecm_regressors_are_seed_offset_walks(self):
        cols = ecm_system(25, 11, beta=(1.0, 1.0))
        np.testing.assert_allclose(cols["X1"], random_walk(25, 11 + 10_000))
        np.testing.assert_allclose(cols["X2"], random_walk(25, 11 + 20_000))


class TestDgpValidation:
    def test_small_t(self):
        with pytest.raises(InvalidParams):
            Dgp("random_walk", 5, 0)

    def test_unknown_kind(self):
        with pytest.raises(InvalidParams):
            Dgp("garch", 100, 0)

    def test_ar1_params(self):
        with pytest.raises(InvalidParams):
            Dgp("ar1", 100, 0, {"rho": 1.0})
        with pytest.raises(InvalidParams):
            Dgp("ar1", 100, 0, {"sigma": 0.0})

    def test_ecm_alpha(self):
        with pytest.raises(InvalidParams):
            Dgp("ecm_system", 100, 0, {"alpha": -2.5})

    @pytest.mark.parametrize("kind,name", [
        ("ar1", "rho"), ("ar1", "sigma"), ("random_walk", "drift"),
        ("ecm_system", "alpha"), ("ecm_system", "sigma"), ("ecm_system", "delta"),
        ("ecm_system", "intercept"),
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_params(self, kind, name, value):
        with pytest.raises(InvalidParams, match=f"{name} must be finite"):
            Dgp(kind, 100, 0, {name: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_beta_entry(self, value):
        with pytest.raises(InvalidParams, match="beta must be finite"):
            Dgp("ecm_system", 100, 0, {"beta": (1.0, value, 2.0)})

    @pytest.mark.parametrize("kind,params", [
        ("ar1", {"rh0": 0.9}),  # a misspelt rho
        ("random_walk", {"rho": 0.99}),
        ("random_walk", {"sigma": 2.0}),
        ("ar1", {"drift": 0.1}),
        ("ecm_system", {"drift": 5.0}),
        ("ecm_system", {"rho": 0.5}),
        ("ar1", {"T": 50}),
        ("ar1", {"seed": 4}),
    ])
    def test_unknown_params(self, kind, params):
        [name] = params
        with pytest.raises(InvalidParams, match=f"{kind} takes no parameter {name};"):
            Dgp(kind, 50, 3, params)

    @pytest.mark.parametrize("T,seed", [(20.0, 1), (np.float64(20), 1), ("20", 1),
                                        (20, 1.5), (20, 1.0), (20, None)])
    def test_t_and_seed_are_integers(self, T, seed):
        with pytest.raises(InvalidParams, match="must be an integer"):
            Dgp("random_walk", T, seed)

    def test_numpy_integers_are_integers(self):
        frame = generate(Dgp("ar1", np.int64(20), np.uint64(3)))
        assert frame.column("Y").tobytes() == ar1(20, 3).tobytes()

    def test_kinds_are_the_generators(self):
        assert tuple(synthetic.GENERATORS) == ("random_walk", "ar1", "ecm_system")
        with pytest.raises(InvalidParams, match="not one of .'random_walk', 'ar1', 'ecm_system'."):
            Dgp("garch", 100, 0)

    @pytest.mark.parametrize("kind", ["random_walk", "ar1", "ecm_system"])
    def test_defaults_are_the_generators(self, kind):
        # a parameter left out takes the default of the generator's signature
        drawn = generate(Dgp(kind, 40, 6))
        direct = synthetic.GENERATORS[kind](40, 6)
        direct = direct if isinstance(direct, dict) else {"Y": direct}
        assert drawn.names == tuple(direct)
        for name, column in direct.items():
            assert drawn.column(name).tobytes() == column.tobytes()

    def test_with_seed(self):
        dgp = Dgp("ar1", 100, 1, {"rho": 0.5})
        assert dgp.with_seed(9).seed == 9
        assert dgp.with_seed(9).params == dgp.params

    def test_params_cannot_change_after_the_check(self):
        # an explosive rho assigned after validation used to be drawn with
        params = {"rho": 0.5}
        dgp = Dgp("ar1", 50, 3, params)
        with pytest.raises(TypeError):
            dgp.params["rho"] = 7.0
        params["rho"] = 7.0
        assert dgp.params == {"rho": 0.5}
        assert dgp == Dgp("ar1", 50, 3, {"rho": 0.5})
        assert generate(dgp).column("Y").tobytes() == ar1(50, 3, 0.5).tobytes()


class TestGenerate:
    def test_annual_index(self):
        frame = generate(Dgp("random_walk", 30, 4), start_year=1971)
        assert frame.years == tuple(range(1971, 2001))
        assert frame.names == ("Y",)

    def test_ecm_system_columns(self):
        frame = generate(Dgp("ecm_system", 30, 4, {"beta": (1.0, 2.0, 3.0)}))
        assert frame.names == ("Y", "X1", "X2", "X3")

    def test_fixture_regenerates_from_its_seed(self):
        text = csv_text(generate(FIXTURE_DGP, start_year=1941))
        assert text.encode() == FIXTURE_CSV.read_bytes()


class TestMcRejectionRate:
    def test_rate_with_deterministic_test(self):
        def test_fn(frame, level, seed):
            return float(seed), seed % 4 == 0  # rejects every 4th seed

        result = mc_rejection_rate(test_fn, Dgp("random_walk", 20, 0), 200)
        assert result.rate == pytest.approx(0.25)
        assert result.failures == 0

    def test_seeds_are_base_plus_replication(self):
        seen = []

        def test_fn(frame, level, seed):
            seen.append(seed)
            return 0.0, False

        mc_rejection_rate(test_fn, Dgp("random_walk", 20, 1000), 100)
        assert seen == list(range(1000, 1100))

    def test_collect_rows(self):
        def test_fn(frame, level, seed):
            return float(seed), False

        result = mc_rejection_rate(test_fn, Dgp("random_walk", 20, 0), 100)
        assert len(result.rows) == 100
        assert result.rows[3] == (3, 3.0, False)

    def test_too_few_reps(self):
        with pytest.raises(InvalidParams):
            mc_rejection_rate(lambda f, l, s: (0.0, False),
                              Dgp("random_walk", 20, 0), 50)

    def test_failure_budget_exceeded(self):
        def test_fn(frame, level, seed):
            if seed % 10 == 0:  # 10% failures, over the 1% budget
                raise DegenerateSeries()
            return 0.0, False

        with pytest.raises(InvalidParams):
            mc_rejection_rate(test_fn, Dgp("random_walk", 20, 0), 200)

    def test_single_failure_tolerated(self):
        def test_fn(frame, level, seed):
            if seed == 7:
                raise DegenerateSeries()
            return 0.0, seed % 2 == 0

        result = mc_rejection_rate(test_fn, Dgp("random_walk", 20, 0), 200)
        assert result.failures == 1
        assert result.reps == 200
        assert math.isclose(result.rate, 100 / 199)

    @pytest.mark.parametrize("error", [RuntimeError("bug"), ValueError("bug"),
                                       np.linalg.LinAlgError("bug")])
    def test_programming_errors_propagate(self, error):
        # only an ArdlkitError counts as a failed replication
        def test_fn(frame, level, seed):
            if seed == 7:
                raise error
            return 0.0, False

        with pytest.raises(type(error), match="bug"):
            mc_rejection_rate(test_fn, Dgp("random_walk", 20, 0), 200)


ECM_PARAMS = {"beta": (0.5, -0.3, 0.4), "alpha": -0.3, "sigma": 0.4, "delta": 0.2,
              "intercept": 1.0}


def per_replication(test, dgp, reps, level=0.05):
    """The reference Monte-Carlo loop: one generate call per replication."""
    rows, failures, rejections = [], 0, 0
    for r in range(reps):
        seed = dgp.seed + r
        try:
            stat, reject = test(generate(dgp.with_seed(seed)), level, seed)
        except ArdlkitError:
            failures += 1
            continue
        rejections += bool(reject)
        rows.append((r, float(stat), bool(reject)))
    return rows, rejections, failures


class TestBatchedDraws:
    @pytest.mark.parametrize("dgp", [
        Dgp("random_walk", 30, 0, {"drift": 0.3}),
        Dgp("ar1", 30, 0, {"rho": 0.7, "sigma": 2.0}),
        Dgp("ecm_system", 30, 0, ECM_PARAMS),
    ], ids=["random_walk", "ar1", "ecm_system"])
    @pytest.mark.parametrize("base", [-40, 2**64 - 60, 7_200_000])
    def test_rows_are_bitwise_the_single_draws(self, dgp, base):
        reps = MC_CHUNK + 37  # a partial last chunk
        frames = {}

        def record(frame, level, seed):
            frames[seed] = frame
            return 0.0, False

        mc_rejection_rate(record, dgp.with_seed(base), reps)
        assert sorted(frames) == [base + r for r in range(reps)]
        for seed, frame in frames.items():
            single = generate(dgp.with_seed(seed))
            assert frame.years == single.years
            assert frame.names == single.names
            for name in frame.names:
                assert frame.column(name).tobytes() == single.column(name).tobytes()

    def test_collect_matches_the_per_replication_loop(self):
        dgp = Dgp("random_walk", 60, 500, {"drift": 0.0})
        degenerate = dgp.seed + MC_CHUNK + 3  # in the second chunk

        def test(frame, level, seed):
            y = frame.column("Y")
            if seed == degenerate:
                y = np.arange(y.shape[0], dtype=float)  # constant differences
            rep = getattr(unitroot, ("adf", "pp", "dfgls")[seed % 3])(y)
            return rep.statistic, rep.reject["5%"]

        reps = MC_CHUNK + 44
        result = mc_rejection_rate(test, dgp, reps)
        rows, rejections, failures = per_replication(test, dgp, reps)
        assert failures == result.failures == 1
        assert result.rows == tuple(rows)
        assert degenerate - dgp.seed not in [r for r, _, _ in result.rows]
        assert result.rate == rejections / (reps - failures)

    def test_non_finite_draw_raises_what_generate_raises(self):
        # sigma * z, or the AR(1) sum, overflows in some replications only;
        # from seed 475 the first is seed 814, in the second chunk
        dgp = Dgp("ar1", 30, 475, {"sigma": 4.3e307})
        reps = MC_CHUNK + 144
        seen = []

        def record(frame, level, seed):
            seen.append(seed)
            return 0.0, False

        # no np.errstate here: the draw silences its own overflow, and the
        # suite turns a RuntimeWarning that escapes into an error
        bad = []
        for seed in range(dgp.seed, dgp.seed + reps):
            try:
                generate(dgp.with_seed(seed))
            except InvalidParams as exc:
                bad.append((seed, str(exc)))
        with pytest.raises(InvalidParams) as info:
            mc_rejection_rate(record, dgp, reps)
        assert [seed for seed, _ in bad] == [814, 825, 826]
        assert str(info.value) == bad[0][1] == (
            "ar1 draws a non-finite value at seed 814 with T=30, rho=0.5, sigma=4.3e+307")
        assert seen == list(range(dgp.seed, dgp.seed + MC_CHUNK))  # the first chunk ran

    @pytest.mark.parametrize("dgp", [Dgp("random_walk", 12, 0), Dgp("ecm_system", 12, 0)],
                             ids=["random_walk", "ecm_system"])
    def test_draws_hold_at_most_one_chunk(self, dgp, monkeypatch):
        draws = []
        real_normals = synthetic.normals

        def counting_normals(seed, n):
            z = real_normals(seed, n)
            draws.append(z.shape[0] if z.ndim == 2 else 1)
            return z

        series = len(generate(dgp).names)
        monkeypatch.setattr(synthetic, "normals", counting_normals)
        reps = 2 * MC_CHUNK + 5
        mc_rejection_rate(lambda frame, level, seed: (0.0, False), dgp, reps)
        assert len(draws) == 3  # one call per chunk
        assert max(draws) == MC_CHUNK * series
        assert sum(draws) == reps * series
