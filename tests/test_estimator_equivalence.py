"""The array-level bootstrap and the buffered solver against plain reference
implementations.

``reference_bootstrap`` is the straightforward resampling loop: every repeat
rebuilds a :class:`TargetList` from the drawn counts and runs the public
estimator on it, counting an :class:`EstimationError` as degenerate.
``reference_solve_gamma`` evaluates the residual without a scratch buffer.
The package must agree with both exactly, not approximately.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gendermix import (
    EstimationError,
    MethodSpec,
    ReferenceTable,
    TargetList,
    bootstrap_interval,
)
from gendermix.estimator import _BRACKET_MARGIN, _residual_sum, _solve_gamma


def reference_bootstrap(target, reference, spec, repeats, seed):
    names = sorted(target.entries)
    counts = [target.entries[s] for s in names]
    total = sum(counts)
    pvals = np.array(counts, dtype=float) / total
    betas = []
    degenerate = 0
    for r in range(repeats):
        rng = np.random.default_rng([seed, r])
        sample = rng.multinomial(total, pvals)
        entries = {s: int(c) for s, c in zip(names, sample) if c > 0}
        try:
            report = spec.run(TargetList(entries), reference)
        except EstimationError:
            degenerate += 1
            continue
        betas.append(report.composition.beta)
    low, high = np.percentile(betas, [2.5, 97.5])
    return float(low), float(high), degenerate


def reference_solve_gamma(counts, deltas, gamma_star, tol):
    num = deltas - gamma_star
    base = 1.0 - gamma_star * deltas

    def f(gamma):
        return float(np.sum(counts * num / (base + num * gamma)))

    if not np.any(num != 0.0):
        return gamma_star, False
    if np.any(deltas == -1.0):
        limit_hi = -math.inf
    else:
        limit_hi = float(np.sum(counts * num / ((1.0 + deltas) * (1.0 - gamma_star))))
    if np.any(deltas == 1.0):
        limit_lo = math.inf
    else:
        limit_lo = float(np.sum(counts * num / ((1.0 - deltas) * (1.0 + gamma_star))))
    if limit_hi > 0.0:
        return 1.0, True
    if limit_hi == 0.0:
        return 1.0, False
    if limit_lo < 0.0:
        return -1.0, True
    if limit_lo == 0.0:
        return -1.0, False
    lo = -(1.0 - _BRACKET_MARGIN)
    hi = 1.0 - _BRACKET_MARGIN
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo, False
    if fhi == 0.0:
        return hi, False
    if flo < 0.0:
        hi, t = lo, _BRACKET_MARGIN
        while t > 4e-17:
            t /= 4.0
            lo = -(1.0 - t)
            if f(lo) > 0.0:
                break
            hi = lo
        else:
            return hi, False
    elif fhi > 0.0:
        lo, t = hi, _BRACKET_MARGIN
        while t > 4e-17:
            t /= 4.0
            hi = 1.0 - t
            if f(hi) < 0.0:
                break
            lo = hi
        else:
            return lo, False
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = f(mid)
        if fm > 0.0:
            lo = mid
        elif fm < 0.0:
            hi = mid
        else:
            return mid, False
    return 0.5 * (lo + hi), False


# ---------------------------------------------------------------------------
# bootstrap


def _roster(reference: ReferenceTable) -> TargetList:
    """About 60 reference names across every inclination class plus three
    names the reference does not hold."""
    rng = np.random.default_rng(2024)
    keys = sorted(reference.entries)
    picks = rng.choice(len(keys), size=60, replace=False)
    entries = {keys[i]: int(rng.integers(1, 25)) for i in picks}
    entries.update({"unlisted1": 4, "unlisted2": 1, "unlisted3": 9})
    return TargetList(entries)


SPECS = [
    MethodSpec("method0"),
    MethodSpec("method1", 0.9),
    MethodSpec("method2", 0.9),
    MethodSpec("ggem"),
    MethodSpec("ggem", gamma_star=0.2),
]


@pytest.mark.parametrize("repeats", [100, 150])
@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.label()}@{s.gamma_star:g}")
def test_bootstrap_matches_per_resample_rebuild(benchmark_reference, spec, repeats):
    target = _roster(benchmark_reference)
    interval = bootstrap_interval(target, benchmark_reference, spec, repeats=repeats, seed=3)
    expected = reference_bootstrap(target, benchmark_reference, spec, repeats, 3)
    assert (interval.low, interval.high, interval.degenerate) == expected


# Resamples of these targets are often degenerate: some miss every name
# that passes the cutoff, others miss every name the reference holds.
DEGENERATE_REFERENCE = ReferenceTable.from_counts({"strong": (99, 1), "weak": (3, 2)})
DEGENERATE_CASES = [
    (TargetList({"strong": 1, "weak": 200, "ghost": 3}), MethodSpec("method2", 0.9)),
    (TargetList({"strong": 1, "weak": 200, "ghost": 3}), MethodSpec("method1", 0.9)),
    (TargetList({"strong": 1, "ghost": 300}), MethodSpec("method0")),
    (TargetList({"strong": 1, "ghost": 300}), MethodSpec("ggem")),
]


@pytest.mark.parametrize("repeats", [100, 150])
@pytest.mark.parametrize("case", range(len(DEGENERATE_CASES)))
def test_bootstrap_degenerate_resamples_match_per_resample_rebuild(case, repeats):
    target, spec = DEGENERATE_CASES[case]
    interval = bootstrap_interval(target, DEGENERATE_REFERENCE, spec, repeats=repeats, seed=0)
    expected = reference_bootstrap(target, DEGENERATE_REFERENCE, spec, repeats, 0)
    assert (interval.low, interval.high, interval.degenerate) == expected
    assert 0 < interval.degenerate < repeats


# ---------------------------------------------------------------------------
# solver


def _bits(result: tuple[float, bool]) -> tuple[str, bool]:
    gamma, clamped = result
    return float(gamma).hex(), clamped


_DELTAS = st.one_of(
    st.sampled_from([-1.0, 1.0, 0.0, 0.5, -0.5]),
    st.floats(-1.0, 1.0, allow_nan=False),
)
_INTEGER_COUNTS = st.integers(1, 10**12).map(float)
_REAL_COUNTS = st.floats(1e-3, 1e6, allow_nan=False)


@given(
    st.lists(
        st.tuples(_DELTAS, st.one_of(_INTEGER_COUNTS, _REAL_COUNTS)), min_size=1, max_size=12
    ),
    st.floats(-0.9, 0.9, allow_nan=False),
    st.booleans(),
    st.floats(-0.999, 0.999, allow_nan=False),
)
# Creep branches: the root sits within 1e-9 of -1, then of +1.
@example([(1.0, 1.0), (-1.0, 5e9)], 0.0, False, 0.0)
@example([(-1.0, 1.0), (1.0, 5e9)], 0.0, False, 0.0)
# A neutral name (delta = gamma_star) beside signed ones.
@example([(0.25, 7.0), (1.0, 2.0), (-0.5, 3.0)], 0.25, True, 0.5)
def test_buffered_solver_is_bit_identical(items, gamma_star, neutral, gamma):
    deltas = [d for d, _ in items] + ([gamma_star] if neutral else [])
    counts = [c for _, c in items] + ([11.0] if neutral else [])
    deltas, counts = np.array(deltas), np.array(counts)
    assert _bits(_solve_gamma(counts, deltas, gamma_star, 1e-12)) == _bits(
        reference_solve_gamma(counts, deltas, gamma_star, 1e-12)
    )
    # The bisection only sees residual signs, so compare the values too.
    num = deltas - gamma_star
    base = 1.0 - gamma_star * deltas
    buffered = _residual_sum(counts * num, num, base, gamma, np.empty_like(num))
    plain = float(np.sum(counts * num / (base + num * gamma)))
    assert buffered.hex() == plain.hex()


def test_solver_creep_examples_reach_the_poles():
    deltas = np.array([1.0, -1.0])
    low, _ = _solve_gamma(np.array([1.0, 5e9]), deltas, 0.0, 1e-12)
    high, _ = _solve_gamma(np.array([5e9, 1.0]), deltas, 0.0, 1e-12)
    assert low < -(1.0 - _BRACKET_MARGIN)
    assert high > 1.0 - _BRACKET_MARGIN
