"""Check every lag search against an ``ols``-per-candidate oracle.

Run from the repository root:

    PYTHONPATH=src python3 tests/lag_search_sweep.py

A spec is one seeded ``ecm_system`` sample, at each (k, T) of SHAPES for
every seed of SEEDS, and one information criterion: 150 seeds x 4 shapes
x aic/sic/hq is 1,800 specs.  The short shape, k = 1 at T = 12, has
Granger lag lists as wide as their sample.  For each spec the sweep
compares what the package chooses with what fitting every candidate by
``ols`` chooses, by the one rule every search shares: ``first_minimum``
over the candidates in rank order.

- the ARDL order of ``select_ardl_lags`` (max_p = max_q = 2), where the
  oracle fits each (p, q) on the common sample and ranks the candidates
  by fewer total lags, then the smaller (p, q);
- the ADF and DF-GLS lag of every series of the sample, in levels;
- the Granger lag of both directions of every (regressor, Y) pair.

It prints every mismatch and exits 1 if there is any.  The test suite
runs the first specs of the same function (``mismatches``).
"""

from __future__ import annotations

import itertools
import math
import sys

import numpy as np

from ardlkit import causality, errors, unitroot
from ardlkit.ardl import ArdlSpec, _conditional_design, select_ardl_lags
from ardlkit.frame import ModelSpec
from ardlkit.regression import CRITERIA, criterion_from_rss, first_minimum, ols
from ardlkit.synthetic import Dgp, generate

SHAPES = ((5, 80), (2, 50), (3, 33), (1, 12))
SEEDS = range(150)
SPECS = [(seed, k, T, kind) for seed in SEEDS for k, T in SHAPES for kind in CRITERIA]
BETA = (0.5, -0.3, 0.4, -0.2, 0.3)


def sample(seed: int, k: int, T: int):
    """The spec's frame, a cointegrated k-regressor system, and its model."""
    dgp = Dgp("ecm_system", T, seed, {"beta": BETA[:k], "alpha": -0.3, "sigma": 0.4,
                                      "delta": 0.2, "intercept": 1.0})
    return generate(dgp), ModelSpec("Y", tuple(f"X{j}" for j in range(1, k + 1)))


def exact_rss(y, X) -> float:
    """``ols``'s RSS of y on X, NaN where ``ols`` rejects X."""
    try:
        return ols(y, X).rss
    except errors.ArdlkitError:
        return math.nan


def criterion(rss: float, n: int, width: int, kind: str) -> float:
    return math.nan if math.isnan(rss) else criterion_from_rss(rss, n, width, kind)


def ardl_oracle(frame, spec: ModelSpec, kinds) -> dict:
    """Each criterion's ARDL order from one ``ols`` fit per candidate."""
    rows = frame.n - 1 - max(spec.max_p - 1, spec.max_q)  # the common sample's
    fits = []
    for p, q in itertools.product(range(1, spec.max_p + 1),
                                  itertools.product(range(spec.max_q + 1), repeat=spec.k)):
        lhs, X, *_ = _conditional_design(frame, spec, ArdlSpec(p, q))
        lhs, X = lhs[-rows:], X[-rows:]
        if lhs.shape[0] >= X.shape[1] + 5:
            fits.append(((p, *q), exact_rss(lhs, X), lhs.shape[0], X.shape[1]))
    fits.sort(key=lambda fit: (sum(fit[0]), fit[0]))
    chosen = {}
    for kind in kinds:
        scores = [criterion(rss, n, width, kind) for _, rss, n, width in fits]
        live = not all(math.isnan(score) for score in scores)
        chosen[kind] = fits[first_minimum(scores)][0] if live else None
    return chosen


def prefix_oracle(lhs, X, widths, kind: str) -> int:
    """``first_minimum`` of the criteria of the leading ``widths`` columns."""
    n = lhs.shape[0]
    return first_minimum([criterion(exact_rss(lhs, X[:, :w]), n, w, kind) if w < n else math.nan
                          for w in widths])


def unit_root_oracle(test: str, y, kind: str) -> int:
    """The ADF or DF-GLS lag, every lag fitted on the max-lag sample."""
    max_lag = unitroot.default_max_lag(y.shape[0])
    terms = "constant"
    if test == "dfgls":
        y, terms = unitroot.gls_detrend(y), "none"
    lhs, X = unitroot._df_designs(y[None], np.diff(y)[None], terms, max_lag)
    base = X.shape[2] - max_lag
    return prefix_oracle(lhs[0], X[0], range(base, base + max_lag + 1), kind)


def granger_oracle(x, y, kind: str, max_lag: int = 4) -> int:
    """The Granger lag of x -> y, every lag fitted on the max-lag sample."""
    max_lag = min(max_lag, max(1, (y.shape[0] - 3) // 2))
    lhs, X = causality._granger_designs(x[None], y[None], max_lag)
    order = [0, *(c for lag in range(1, max_lag + 1) for c in (lag, max_lag + lag))]
    return 1 + prefix_oracle(lhs[0], X[0][:, order], range(3, 2 * max_lag + 2, 2), kind)


def mismatches(specs) -> list[str]:
    """One line per choice that differs from the oracle's, over ``specs``."""
    out = []
    for (seed, k, T), group in itertools.groupby(specs, key=lambda spec: spec[:3]):
        kinds = [spec[3] for spec in group]
        frame, spec = sample(seed, k, T)
        where = f"seed {seed}, k={k}, T={T}"
        for kind, want in ardl_oracle(frame, spec, kinds).items():
            got = select_ardl_lags(frame, spec, kind)
            if (got.p, *got.q) != want:
                out.append(f"{where}, {kind}: ARDL {(got.p, *got.q)}, oracle {want}")
        for kind in kinds:
            for name in frame.names:
                y = frame.column(name)
                for test in ("adf", "dfgls"):
                    got = getattr(unitroot, test)(y, criterion=kind).lag_or_bandwidth
                    want = unit_root_oracle(test, y, kind)
                    if got != want:
                        out.append(f"{where}, {kind}: {test} lag of {name} {got}, oracle {want}")
            for x_name in spec.regressors:
                for cause, effect in ((x_name, "Y"), ("Y", x_name)):
                    x, y = frame.column(cause), frame.column(effect)
                    got = causality.select_granger_lag(x, y, criterion=kind)
                    want = granger_oracle(x, y, kind)
                    if got != want:
                        out.append(f"{where}, {kind}: Granger lag {cause} -> {effect} {got}, "
                                   f"oracle {want}")
    return out


def main() -> int:
    found = mismatches(SPECS)
    for line in found:
        print(line)
    print(f"{len(SPECS)} specs, {len(found)} mismatches")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
