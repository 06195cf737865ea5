"""Seeded data-generating processes and Monte-Carlo drivers.

The generator is splitmix64: a counter-based 64-bit mixing bijection
(state_i = seed + i * 0x9E3779B97F4A7C15, output = mix(state_i) with the
two xor-multiply rounds 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB).
Uniforms are the top 53 output bits scaled by 2^-53; normal variates
apply the inverse normal CDF to the uniform stream.  The same
(kind, T, seed) therefore yields bitwise-identical output everywhere.
"""

from __future__ import annotations

import functools
import inspect
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import ArdlkitError, InvalidParams
from .frame import TimeSeriesFrame

_PHI = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_MASK = 0xFFFFFFFFFFFFFFFF

# mc_rejection_rate draws this many replications at a time, so a run holds
# one (MC_CHUNK, T) block of each series however many replications it makes.
MC_CHUNK = 256


def uniforms(seed, n: int) -> np.ndarray:
    """n uniforms in (0, 1) from the splitmix64 counter stream.

    ``seed`` is an int, giving a vector, or a sequence of ints, giving one
    row per seed; row i equals ``uniforms(seed[i], n)`` bit for bit.
    """
    if isinstance(seed, (int, np.integer)):
        start = np.uint64(int(seed) & _MASK)
    else:
        start = np.array([int(s) & _MASK for s in seed], dtype=np.uint64)[:, None]
    with np.errstate(over="ignore"):
        z = start + np.arange(1, n + 1, dtype=np.uint64) * _PHI
        z = (z ^ (z >> np.uint64(30))) * _M1
        z = (z ^ (z >> np.uint64(27))) * _M2
        z = z ^ (z >> np.uint64(31))
    u = (z >> np.uint64(11)).astype(np.float64) * (2.0**-53)
    # keep strictly inside (0, 1) so the inverse CDF stays finite
    return np.clip(u, 2.0**-53, 1.0 - 2.0**-53)


def normals(seed, n: int) -> np.ndarray:
    """Standard normals via inverse-CDF of the uniform stream; ``seed`` as
    in ``uniforms``."""
    return _ndtri(uniforms(seed, n))


# Cephes' ndtri (S. L. Moshier, Methods and Programs for Mathematical
# Functions, 1989), as scipy.special.ndtri computes it.  Each tuple runs
# from the highest power down; the Q's carry cephes' implied leading 1.
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_SQRT_2PI = 2.50662827463100050242
# y - 1/2 for exp(-2) < y < 1 - exp(-2)
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
# 1/x, x = sqrt(-2 log y) in [2, 8): exp(-32) < y <= exp(-2)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# 1/x, x in [8, 64): y <= exp(-32), reached by uniforms down to 2^-53
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _horner(x: np.ndarray, coefs) -> np.ndarray:
    """The polynomial with ``coefs`` (highest power first) at x, in cephes'
    order of operations (a leading 1.0 gives its p1evl)."""
    out = coefs[0] * x
    out += coefs[1]
    for c in coefs[2:]:
        out *= x
        out += c
    return out


def _log(x: np.ndarray) -> np.ndarray:
    """Elementwise libm log: numpy's SIMD log can differ from it in the last bit."""
    return np.fromiter(map(math.log, x.tolist()), float, x.size)


def _ndtri(u: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF of u in (0, 1), bitwise scipy.special.ndtri."""
    flip = u > 1.0 - _EXP_M2
    y = np.where(flip, 1.0 - u, u)
    x = np.empty_like(y)
    central = y > _EXP_M2
    c = y[central] - 0.5
    c2 = c * c
    x[central] = (c + c * (c2 * _horner(c2, _P0) / _horner(c2, _Q0))) * _SQRT_2PI
    tail = ~central
    t = np.sqrt(-2.0 * _log(y[tail]))
    z = 1.0 / t
    x1 = np.empty_like(t)
    for branch, p, q in ((t < 8.0, _P1, _Q1), (t >= 8.0, _P2, _Q2)):
        zb = z[branch]
        x1[branch] = zb * _horner(zb, p) / _horner(zb, q)
    t = t - _log(t) / t - x1
    x[tail] = np.where(flip[tail], t, -t)
    return x


@dataclass(frozen=True)
class Dgp:
    """A seeded data-generating process.

    ``kind`` names a generator of ``GENERATORS``, and ``params`` are that
    generator's keyword arguments after T and seed; a parameter left out
    takes the generator's default.  ``params`` is kept as a read-only copy,
    so the values checked here are the values drawn with.
    """

    kind: str
    T: int
    seed: int
    params: Mapping = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))
        for name in ("T", "seed"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise InvalidParams(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.T < 10:
            raise InvalidParams(f"T must be >= 10, got {self.T}")
        if self.kind not in GENERATORS:
            raise InvalidParams(f"unknown DGP kind {self.kind!r}, not one of {tuple(GENERATORS)}")
        p = dict(_defaults(self.kind))
        unknown = sorted(map(str, set(self.params) - set(p)))
        if unknown:
            raise InvalidParams(f"{self.kind} takes no parameter {', '.join(unknown)}; "
                                f"its parameters are {', '.join(p)}")
        p.update(self.params)  # the values the generator will draw with
        for name, value in p.items():
            if not np.all(np.isfinite(value)):
                raise InvalidParams(f"{name} must be finite, got {value!r}")
        if "sigma" in p and p["sigma"] <= 0:
            raise InvalidParams("sigma must be > 0")
        if "rho" in p and abs(p["rho"]) >= 1:
            raise InvalidParams("ar1 needs |rho| < 1")
        if "alpha" in p and abs(1.0 + p["alpha"]) >= 1.0:
            raise InvalidParams(f"ecm_system needs |1 + alpha| < 1, got alpha={p['alpha']}")

    def with_seed(self, seed: int) -> "Dgp":
        return Dgp(self.kind, self.T, seed, self.params)


def random_walk(T: int, seed, drift: float = 0.0) -> np.ndarray:
    """Cumulated normals plus drift; ``seed`` as in ``uniforms``."""
    return _walk(normals(seed, T), drift)


def _walk(e: np.ndarray, drift: float) -> np.ndarray:
    return np.cumsum(e + drift, axis=-1)


def ar1(T: int, seed, rho: float = 0.5, sigma: float = 1.0) -> np.ndarray:
    """y_t = rho y_{t-1} + sigma e_t from y_0 = sigma e_0; ``seed`` as in
    ``uniforms``."""
    e = sigma * normals(seed, T)
    y = np.empty_like(e)
    y[..., 0] = e[..., 0]
    for t in range(1, T):
        y[..., t] = rho * y[..., t - 1] + e[..., t]
    return y


def ecm_system(T: int, seed, beta=(2.0,), alpha: float = -0.3, sigma: float = 1.0,
               delta: float = 0.5, intercept: float = 0.0) -> dict[str, np.ndarray]:
    """Cointegrated system: x are random walks, y error-corrects.

    y_t = y_{t-1} + alpha * (y_{t-1} - beta' x_{t-1} - c) + delta * sum
    of dx_t + eps_t, so the true long-run vector is beta and the true
    adjustment speed is alpha.  x_j is the random walk of seed
    seed + 10_000 j.  ``seed`` is as in ``uniforms``: a sequence gives
    each series one row per seed, all from one normals call.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    k = beta.shape[0]
    one = isinstance(seed, (int, np.integer))
    seeds = [seed] if one else list(seed)
    rows = len(seeds)
    z = normals([*seeds, *(s + 10_000 * (j + 1) for j in range(k) for s in seeds)], T)
    eps = sigma * z[:rows]
    walks = _walk(z[rows:], 0.0).reshape(k, rows, T)
    # each replication's (T, k) block contiguous, as the dot products below
    # must see the same memory layout whatever the number of rows
    xs = np.ascontiguousarray(walks.transpose(1, 2, 0))
    y = np.empty((rows, T))
    for r in range(rows):
        y[r, 0] = intercept + xs[r, 0] @ beta + eps[r, 0]
        for t in range(1, T):
            ect = y[r, t - 1] - xs[r, t - 1] @ beta - intercept
            dx = xs[r, t] - xs[r, t - 1]
            y[r, t] = y[r, t - 1] + alpha * ect + delta * float(dx.sum()) + eps[r, t]
    out = {"Y": y, **{f"X{j + 1}": walks[j] for j in range(k)}}
    return {name: col[0] for name, col in out.items()} if one else out


GENERATORS = {"random_walk": random_walk, "ar1": ar1, "ecm_system": ecm_system}


@functools.lru_cache(maxsize=None)
def _defaults(kind: str) -> tuple:
    """(name, default) of each keyword parameter of ``GENERATORS[kind]``
    after T and seed, read from its signature once per kind."""
    params = list(inspect.signature(GENERATORS[kind]).parameters.values())[2:]
    return tuple((param.name, param.default) for param in params)


def _draw(dgp: Dgp, seeds) -> dict[str, np.ndarray]:
    """Every series of ``dgp`` at each of ``seeds``, one row per seed."""
    out = GENERATORS[dgp.kind](dgp.T, seeds, **dgp.params)
    return out if isinstance(out, dict) else {"Y": out}


def _frames(dgp: Dgp, seeds, start_year: int = 1951) -> list[TimeSeriesFrame]:
    """One frame per seed from one draw, checked once as a block by
    ``TimeSeriesFrame.rows``: frame i's columns are read-only views of row
    i of the draw's one read-only copy.  The draw runs with numpy's
    overflow and invalid-value warnings off; a draw that is not finite
    raises ``InvalidParams`` naming its first bad seed and the DGP's
    parameters."""
    with np.errstate(over="ignore", invalid="ignore"):
        block = _draw(dgp, seeds)
    finite = np.all([np.isfinite(col).all(axis=-1) for col in block.values()], axis=0)
    if not finite.all():
        seed = seeds[int(np.argmin(finite))]
        params = ", ".join(f"{name}={value!r}"
                           for name, value in {**dict(_defaults(dgp.kind)), **dgp.params}.items())
        raise InvalidParams(f"{dgp.kind} draws a non-finite value at seed {seed} "
                            f"with T={dgp.T}, {params}")
    years = tuple(range(start_year, start_year + dgp.T))
    return TimeSeriesFrame.rows(years, block)


def generate(dgp: Dgp, start_year: int = 1951) -> TimeSeriesFrame:
    """Materialize a DGP as a TimeSeriesFrame with an annual index: the
    one-row case of the block-checked draws ``mc_rejection_rate`` makes,
    so its errors are theirs; a draw that is not finite raises
    ``InvalidParams``."""
    return _frames(dgp, [dgp.seed], start_year)[0]


class McResult(NamedTuple):
    rate: float
    reps: int
    failures: int
    rows: tuple  # (replication, statistic, reject) triples


def check_reps(reps: int) -> None:
    """Raise ``InvalidParams`` unless ``reps`` is at least 100."""
    if reps < 100:
        raise InvalidParams(f"reps must be >= 100, got {reps}")


def mc_rejection_rate(test, dgp: Dgp, reps: int, level: float = 0.05) -> McResult:
    """Fraction of replications rejecting at ``level``.

    ``test`` maps (frame, level, seed) to (statistic, reject: bool);
    replication r uses seed = dgp.seed + r, also handed to the test so
    procedures needing auxiliary randomness stay reproducible.  Its frame
    equals ``generate(dgp.with_seed(seed))``; the frames are drawn
    MC_CHUNK replications at a time, each chunk's draw checked once as a
    block, and their columns are read-only row views of it.  A draw that
    is not finite raises the ``InvalidParams`` that ``generate`` raises at
    the first bad seed, after the earlier chunks' tests ran.  A
    replication fails when the test raises an ``ArdlkitError``; more than
    1% failures aborts with ``InvalidParams``, whose message ends with the
    first failure's.  Any other exception, a ``LinAlgError`` included,
    propagates.
    """
    check_reps(reps)
    failures = 0
    first = None
    rows = []
    for lo in range(0, reps, MC_CHUNK):
        seeds = [dgp.seed + r for r in range(lo, min(lo + MC_CHUNK, reps))]
        for r, seed, frame in zip(range(lo, reps), seeds, _frames(dgp, seeds)):
            try:
                stat, reject = test(frame, level, seed)
            except ArdlkitError as exc:
                failures += 1
                first = first or exc
                if failures > max(1, reps // 100):
                    raise InvalidParams(
                        f"more than 1% of replications failed ({failures}/{r + 1}); "
                        f"the first: {first}"
                    ) from None
                continue
            rows.append((r, float(stat), bool(reject)))
    rejections = sum(reject for _, _, reject in rows)
    return McResult(rejections / len(rows), reps, failures, tuple(rows))
