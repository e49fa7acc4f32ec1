"""The array-level bootstrap, the solver and the estimator entry points
against plain reference implementations.

``reference_bootstrap`` is the straightforward resampling loop: every repeat
rebuilds a :class:`TargetList` from the drawn counts and runs the public
estimator on it, counting an :class:`EstimationError` as degenerate.
``reference_clamp`` is the solver's clamp rules written out on their own.
``reference_report`` is each method's match-and-sum written out on its own.
The package must agree with all three exactly, not approximately. An
interior ggem root is checked against ``_synth.solve_gamma_exact``, the
root in (in effect) exact arithmetic, within a bound fixed in advance.
"""

import contextlib
import inspect
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gendermix
from gendermix import (
    EstimateReport,
    EstimationError,
    GenderComposition,
    InputError,
    MethodSpec,
    ReferenceTable,
    TargetList,
    bootstrap_interval,
    estimate_method0,
    estimate_method1,
    estimate_method2,
    partial_contributions,
    solve_ggem,
)
from gendermix import estimator
from gendermix.estimator import _CERTIFY_WIDTH, _delta_terms, _residual_sum, _solve_gamma
from _synth import CORPUS_KINDS, sample_roster, solve_gamma_exact, solver_corpus


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


def reference_clamp(counts, deltas, gamma_star):
    """The solver's result where its clamp rules decide it, as (gamma,
    clamped); None where the root is interior. Names at delta = gamma_star
    are dropped first."""
    signed = deltas != gamma_star
    counts, deltas = counts[signed], deltas[signed]
    if not len(counts):
        return gamma_star, False
    num = deltas - gamma_star
    if np.any(deltas == -1.0):
        limit_hi = -math.inf
    else:
        limit_hi = float(np.sum(counts * num / ((1.0 + deltas) * (1.0 - gamma_star))))
    if limit_hi >= 0.0:
        return 1.0, limit_hi > 0.0
    if np.any(deltas == 1.0):
        limit_lo = math.inf
    else:
        limit_lo = float(np.sum(counts * num / ((1.0 - deltas) * (1.0 + gamma_star))))
    if limit_lo <= 0.0:
        return -1.0, limit_lo < 0.0
    return None


def plain_residual(counts, deltas, gamma_star, gamma):
    """The residual written out from the deltas alone. Each denominator
    1 - gamma_star delta + num gamma is written as the solver computes it,
    anchor + num (gamma + side): side = sign(num), and anchor is the limit
    denominator at gamma = -side."""
    num = deltas - gamma_star
    positive = num > 0.0
    anchor = np.where(positive, (1.0 - deltas) * (1.0 + gamma_star), (1.0 + deltas) * (1.0 - gamma_star))
    side = np.where(positive, 1.0, -1.0)
    return float(np.sum(counts * num / (anchor + num * (gamma + side))))


def check_solve(counts, deltas, gamma_star, bound=None):
    """Solve, and check the result with :func:`check_root`; returns what
    that returns."""
    gamma, clamped = _solve_gamma(counts, _delta_terms(deltas, gamma_star))
    return check_root(counts, deltas, gamma_star, gamma, clamped, bound)


def check_root(counts, deltas, gamma_star, gamma, clamped, bound=None):
    """Check a solve's (gamma, clamped) against the clamp rules or, for an
    interior root, check its certificate with the plain residual and its
    distance from the exact root: within ``bound``, or by default within
    2w plus 8 (k + 4) u sum c|f| / sum c f**2 at the exact root, the width
    the certificate allows plus the residual's rounding over its slope.
    Returns |gamma - exact|, or None where no exact root is compared."""
    expected = reference_clamp(counts, deltas, gamma_star)
    if expected is not None:
        assert _bits((gamma, clamped)) == _bits(expected)
        return None
    assert not clamped and -1.0 <= gamma <= 1.0
    low, high = gamma - _CERTIFY_WIDTH, gamma + _CERTIFY_WIDTH
    assert low <= -1.0 or plain_residual(counts, deltas, gamma_star, low) >= 0.0
    assert high >= 1.0 or plain_residual(counts, deltas, gamma_star, high) <= 0.0
    try:
        exact = solve_gamma_exact(list(zip(deltas.tolist(), counts.tolist())), gamma_star)
    except ValueError:  # the computed limits are within rounding of 0
        return None
    if bound is None:
        with np.errstate(all="ignore"):
            f = (deltas - gamma_star) / ((1.0 - gamma_star * deltas) + (deltas - gamma_star) * exact)
            bound = 2.0 * _CERTIFY_WIDTH + 8.0 * (len(counts) + 4) * 2.0**-53 * np.sum(counts * np.abs(f)) / np.sum(
                counts * f * f
            )
    error = abs(gamma - exact)
    assert not error > bound, (gamma, exact, bound)
    return error


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


def _pole_free_roster(reference: ReferenceTable) -> TargetList:
    """About 60 reference names with 0 < p_female < 1, so no resample holds
    a delta = +/-1 name and both endpoint limits are summed every time."""
    rng = np.random.default_rng(2025)
    keys = [s for s in sorted(reference.entries) if 0.0 < reference.entries[s].p_female < 1.0]
    picks = rng.choice(len(keys), size=60, replace=False)
    return TargetList({keys[i]: int(rng.integers(1, 25)) for i in picks})


# delta = -0.98 and 0.8, and their mirror images.
CLAMP_REFERENCE = ReferenceTable.from_counts(
    {"neg": (1, 99), "pos": (90, 10), "posm": (99, 1), "negm": (10, 90)}
)
# delta = -1 and +1 beside delta = 0.8 and -0.8.
POLE_REFERENCE = ReferenceTable.from_counts(
    {"male": (0, 5), "pos": (90, 10), "female": (5, 0), "negm": (10, 90)}
)
# Every name at delta = 0.5.
NEUTRAL_REFERENCE = ReferenceTable.from_counts({"a": (3, 1), "b": (6, 2), "c": (30, 10)})

# Targets that drive the ggem solve down one branch on many resamples:
# (reference, target) from the benchmark reference.
BRANCH_CASES = {
    "pole-free": lambda ref: (ref, _pole_free_roster(ref)),
    # A resample that misses the one "neg" person clamps to gamma = 1;
    # one that draws it solves. "clamp-low" mirrors it toward gamma = -1.
    "clamp-high": lambda ref: (CLAMP_REFERENCE, TargetList({"neg": 1, "pos": 100})),
    "clamp-low": lambda ref: (CLAMP_REFERENCE, TargetList({"posm": 1, "negm": 100})),
    # A delta = -1 name drawn on only some resamples: one that misses it
    # clamps to gamma = 1, one that draws it has a pole there and solves.
    # "pole-some-low" mirrors it with a delta = +1 name.
    "pole-some-high": lambda ref: (POLE_REFERENCE, TargetList({"male": 1, "pos": 100})),
    "pole-some-low": lambda ref: (POLE_REFERENCE, TargetList({"female": 1, "negm": 100})),
    # The residual is identically zero: every resample returns gamma_star.
    "neutral": lambda ref: (NEUTRAL_REFERENCE, TargetList({"a": 5, "b": 7, "c": 2})),
    # 800 reference names, poles among them, with 1 to 24 people each.
    "roster-800": lambda ref: (ref, sample_roster(ref, 800, seed=8)),
    # Three people in the reference among 103: about 5% of resamples draw
    # none of them, and one that draws a single sign clamps.
    "sparse": lambda ref: (CLAMP_REFERENCE, TargetList({"pos": 1, "negm": 1, "posm": 1, "ghost": 100})),
}

BOOTSTRAP_CASES = [pytest.param(s, None, id=f"{s.label()}@{s.gamma_star:g}") for s in SPECS] + [
    # gamma_star near -/+1, where some residual denominators are small.
    pytest.param(MethodSpec("ggem", gamma_star=0.9995), None, id="ggem@0.9995"),
    pytest.param(MethodSpec("ggem", gamma_star=-0.9995), None, id="ggem@-0.9995"),
    pytest.param(MethodSpec("ggem"), "pole-free", id="ggem@0-pole-free"),
    pytest.param(MethodSpec("ggem", gamma_star=0.2), "pole-free", id="ggem@0.2-pole-free"),
    pytest.param(MethodSpec("ggem"), "clamp-high", id="ggem@0-clamp-high"),
    pytest.param(MethodSpec("ggem"), "clamp-low", id="ggem@0-clamp-low"),
    pytest.param(MethodSpec("ggem", gamma_star=0.5), "neutral", id="ggem@0.5-neutral"),
    pytest.param(MethodSpec("ggem"), "pole-some-high", id="ggem@0-pole-some-high"),
    pytest.param(MethodSpec("ggem"), "pole-some-low", id="ggem@0-pole-some-low"),
]

# 1000 repeats, the CLI default: enough resamples that their spread, not a
# handful of draws, sets the two percentiles.
THOUSAND_REPEAT_CASES = [
    pytest.param(MethodSpec("ggem", gamma_star=g), "roster-800", id=f"ggem@{g:g}-roster-800")
    for g in (0.0, 0.2, -0.5, 0.999, -0.999)
] + [
    pytest.param(MethodSpec("ggem"), case, id=f"ggem@0-{case}")
    for case in ("clamp-high", "clamp-low", "pole-some-high", "pole-some-low", "sparse")
] + [pytest.param(MethodSpec("ggem", gamma_star=0.5), "neutral", id="ggem@0.5-neutral")]

BOOTSTRAP_RUNS = [
    pytest.param(*p.values, repeats, id=f"{p.id}-{repeats}")
    for cases, repeat_counts in ((BOOTSTRAP_CASES, (100, 150)), (THOUSAND_REPEAT_CASES, (1000,)))
    for repeats in repeat_counts
    for p in cases
]


@pytest.mark.parametrize("spec, case, repeats", BOOTSTRAP_RUNS)
def test_bootstrap_matches_per_resample_rebuild(benchmark_reference, spec, case, repeats):
    if case is None:
        reference, target = benchmark_reference, _roster(benchmark_reference)
    else:
        reference, target = BRANCH_CASES[case](benchmark_reference)
    interval = bootstrap_interval(target, reference, spec, repeats=repeats, seed=3)
    expected = reference_bootstrap(target, reference, spec, repeats, 3)
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


@pytest.mark.parametrize(
    "case, repeats",
    [pytest.param(case, repeats, id=f"{case}-{repeats}")
     for repeats in (100, 150) for case in range(len(DEGENERATE_CASES))]
    + [pytest.param(3, 1000, id="3-1000")],  # the ggem roster
)
def test_bootstrap_degenerate_resamples_match_per_resample_rebuild(case, repeats):
    target, spec = DEGENERATE_CASES[case]
    interval = bootstrap_interval(target, DEGENERATE_REFERENCE, spec, repeats=repeats, seed=0)
    expected = reference_bootstrap(target, DEGENERATE_REFERENCE, spec, repeats, 0)
    assert (interval.low, interval.high, interval.degenerate) == expected
    assert 0 < interval.degenerate < repeats


@pytest.mark.parametrize(
    "spec, case, chunk",
    [
        pytest.param(MethodSpec("ggem"), "roster-800", 2**14, id="ggem@0-roster-800"),
        pytest.param(MethodSpec("ggem", gamma_star=0.2), "roster-800", 2**14, id="ggem@0.2-roster-800"),
        pytest.param(MethodSpec("method2", 0.9), None, 16, id="method2:0.9-degenerate"),
    ],
)
def test_bootstrap_over_many_blocks_matches_per_resample_rebuild(benchmark_reference, monkeypatch, spec, case, chunk):
    """A block of resamples holds at most ``_CHUNK_COUNTS`` counts; a small
    one splits 1000 resamples into dozens of blocks. The ggem resamples
    solved again for a read rank then come from earlier blocks than the
    last, and the interval and its degenerate count keep their bits."""
    if case is None:
        reference, target = DEGENERATE_REFERENCE, DEGENERATE_CASES[0][0]
    else:
        reference, target = BRANCH_CASES[case](benchmark_reference)
    monkeypatch.setattr(estimator, "_CHUNK_COUNTS", chunk)
    blocks = []
    original = estimator._Ladder.classify

    def classify(self, counts):
        blocks.append(len(counts))
        return original(self, counts)

    monkeypatch.setattr(estimator._Ladder, "classify", classify)
    interval = bootstrap_interval(target, reference, spec, repeats=1000, seed=3)
    expected = reference_bootstrap(target, reference, spec, 1000, 3)
    assert (interval.low, interval.high, interval.degenerate) == expected
    if spec.method == "ggem":
        rows = chunk // len(estimator._match(target, reference).counts)
        assert len(blocks) > 20 and set(blocks[:-1]) == {rows}
    else:
        assert 0 < interval.degenerate < 1000


# ---------------------------------------------------------------------------
# solver


def _bits(result: tuple[float, bool]) -> tuple[str, bool]:
    gamma, clamped = result
    return float(gamma).hex(), clamped


# delta = +1 with _EDGE people against delta = -1 with 1 puts the root at
# 1 - 1e-9; with _NEAR_EDGE people, 5e-13 below that.
_EDGE = 1999999999.0
_NEAR_EDGE = 1999000000.0
# The deltas nearest the poles that are not poles, and the gamma_star
# nearest +1: 1 + delta, 1 - delta and 1 - gamma_star are then 2**-53.
_ABOVE_MINUS_ONE = -1.0 + 2.0**-53
_BELOW_ONE = 1.0 - 2.0**-53
_ONE_MINUS_1E9 = 1.0 - 1e-9


def _seeded_solves(seed: int, n: int = 400) -> list[tuple[list[tuple[float, float]], float, bool, float]]:
    """``n`` seeded (items, gamma_star, neutral, gamma) inputs for the solver
    tests, the same on every host. ``items`` is 1-200 (delta, count) pairs,
    their number log-uniform: each delta is -1, 1, 0, 0.5 or -0.5 half of
    the time and uniform on [-1, 1] otherwise; each count is an integer up
    to 1e12 half of the time and real in [1e-3, 1e6] otherwise, both
    log-uniform. gamma_star is 0 a quarter of the time and otherwise uniform
    on [-0.9999, 0.9999]; gamma is uniform on [-0.999, 0.999]."""
    rng = np.random.default_rng(seed)
    solves = []
    for _ in range(n):
        k = int(math.exp(rng.uniform(0.0, math.log(201.0))))
        deltas = np.where(
            rng.random(k) < 0.5, rng.choice([-1.0, 1.0, 0.0, 0.5, -0.5], k), rng.uniform(-1.0, 1.0, k)
        )
        counts = np.where(
            rng.random(k) < 0.5, np.rint(10.0 ** rng.uniform(0.0, 12.0, k)), 10.0 ** rng.uniform(-3.0, 6.0, k)
        )
        gamma_star = 0.0 if rng.random() < 0.25 else float(rng.uniform(-0.9999, 0.9999))
        solves.append(
            (list(zip(deltas.tolist(), counts.tolist())), gamma_star, bool(rng.random() < 0.5),
             float(rng.uniform(-0.999, 0.999)))
        )
    return solves


def _each(cases, check):
    """Run ``check(*case)`` on every case, naming the case that fails."""
    for i, case in enumerate(cases):
        try:
            check(*case)
        except AssertionError as exc:
            exc.add_note(f"case {i}: {case!r}")
            raise


BUFFERED_SOLVER_EXAMPLES = [
    # Roots within 1e-9 of -1, then of +1.
    ([(1.0, 1.0), (-1.0, 5e9)], 0.0, False, 0.0),
    ([(-1.0, 1.0), (1.0, 5e9)], 0.0, False, 0.0),
    # A neutral name (delta = gamma_star) beside signed ones.
    ([(0.25, 7.0), (1.0, 2.0), (-0.5, 3.0)], 0.25, True, 0.5),
    # Counts of 1e12.
    ([(0.6, 1e12), (-0.3, 1e12), (1.0, 3.0), (-1.0, 1e12)], 0.0, False, 0.1),
    ([(0.5, 1e12), (-0.5, 1e12 - 1.0)], 0.0, False, 0.0),
    # A strongly imbalanced reference, both ways.
    ([(0.9, 5.0), (1.0, 2.0), (-0.2, 7.0)], 0.95, False, 0.3),
    ([(-0.9, 5.0), (-1.0, 2.0), (0.2, 7.0)], -0.95, True, -0.3),
    # Roots at and just inside 1 - 1e-9, from either end.
    ([(1.0, _EDGE), (-1.0, 1.0)], 0.0, False, 0.0),
    ([(-1.0, _EDGE), (1.0, 1.0)], 0.0, False, 0.0),
    ([(1.0, _NEAR_EDGE), (-1.0, 1.0)], 0.0, False, 0.0),
    ([(-1.0, _NEAR_EDGE), (1.0, 1.0)], 0.0, False, 0.0),
    ([(1.0, _EDGE + 1.0), (-1.0, 1.0)], 0.0, False, 0.0),
    # Every name at delta = gamma_star except one.
    ([(0.25, 3.0), (0.25, 9.0), (-0.5, 2.0)], 0.25, True, 0.0),
    ([(-0.4, 1e12), (0.7, 1.0)], -0.4, True, 0.2),
    # An endpoint limit of exactly 0: a root at that end, not a clamp.
    ([(0.5, 3.0), (-0.5, 1.0)], 0.0, False, 0.0),
    ([(0.5, 1.0), (-0.5, 3.0)], 0.0, False, 0.0),
    # A name next to a pole is no pole: its endpoint limit is summed. With a
    # small enough count the sum keeps the sign of the other names and clamps.
    ([(_ABOVE_MINUS_ONE, 1e-3)] + [(1.0, 1e12)] * 40, 0.0, False, 0.0),
    ([(_BELOW_ONE, 1e-3)] + [(-1.0, 1e12)] * 40, 0.0, False, 0.0),
    ([(_ABOVE_MINUS_ONE, 1.0), (_BELOW_ONE, 3.0), (0.2, 5.0)], 0.0, False, 0.5),
    # The same at gamma_star = -/+(1 - 2**-53): a neutral name next to a pole,
    # beside a name at the far pole, clamps.
    ([(_ABOVE_MINUS_ONE, 1.0), (1.0, 1.0)], -_BELOW_ONE, False, 0.0),
    ([(_BELOW_ONE, 1.0), (-1.0, 1.0)], _BELOW_ONE, False, 0.0),
    # ... and at the other sign, where the limit denominator is 2**-106.
    ([(_ABOVE_MINUS_ONE, 1.0), (1.0, 1.0)], _BELOW_ONE, False, 0.0),
    ([(_BELOW_ONE, 1.0), (-1.0, 1.0)], -_BELOW_ONE, True, 0.0),
    # Near-clamp targets, whose root lies within 1e-8 of -1 (then of +1) ...
    ([(-0.46, 44.0), (0.32, 59.0), (-0.03, 45.0), (-0.29, 56.0)], 0.0, False, 0.0),
    ([(0.51, 44.0), (-0.44, 52.0), (0.58, 54.0), (0.57, 17.0)], 0.0, False, 0.0),
    # ... and one whose root lies within 1e-16 of -1.
    ([(0.36, 16.0), (-0.6, 24.0)], 0.0, False, 0.0),
    # Nearly neutral targets, whose residual near the root is within rounding
    # of zero over about 1e-13.
    ([(-0.03, 23.0), (0.04, 18.0)], 0.0, False, 0.0),
    ([(0.02, 38.0), (-0.01, 41.0), (-0.02, 18.0)], 0.0, False, 0.0),
    # Each count equal to its name's residual denominator 1 + delta * gamma at
    # gamma = -/+(1 - 1e-9): the residual there is exactly 0.
    ([(0.05, 0.05 * -_ONE_MINUS_1E9 + 1.0), (-0.05, -0.05 * -_ONE_MINUS_1E9 + 1.0)], 0.0, False, 0.0),
    ([(0.05, 0.05 * _ONE_MINUS_1E9 + 1.0), (-0.05, -0.05 * _ONE_MINUS_1E9 + 1.0)], 0.0, False, 0.0),
    # |gamma_star| near 1 and a root 5e-13 from the pole on its side, where
    # a denominator computed as base + num * gamma could round negative.
    ([(1.0, 4e12), (-1.0, 1.0), (0.9998, 3.0)], 0.9995, False, 0.0),
    ([(-1.0, 4e12), (1.0, 1.0), (-0.9998, 3.0)], -0.9995, False, 0.0),
]


def test_buffered_solver_is_bit_identical():
    """The solve follows the clamp rules bit for bit; an interior root is
    certified and lies within the bound of :func:`check_solve` of the
    exact root. The residual the solve reads equals the plain one bit for
    bit. Run on the examples above and 400 seeded inputs."""

    def check(items, gamma_star, neutral, gamma):
        deltas = [d for d, _ in items] + ([gamma_star] if neutral else [])
        counts = [c for _, c in items] + ([11.0] if neutral else [])
        deltas, counts = np.array(deltas), np.array(counts)
        check_solve(counts, deltas, gamma_star)
        terms = _delta_terms(deltas, gamma_star)
        read = _residual_sum(counts * terms.num, terms, gamma)
        assert read.hex() == plain_residual(counts, deltas, gamma_star, gamma).hex()

    _each(BUFFERED_SOLVER_EXAMPLES + _seeded_solves(seed=1), check)


START_EXAMPLES = [
    ([(1.0, _EDGE), (-1.0, 1.0)], 0.0),
    ([(1.0, 1.0), (-1.0, 5e9)], 0.0),
    ([(0.6, 1e12), (-0.3, 1e12), (1.0, 3.0)], 0.95),
    ([(0.59, 25.0), (-0.16, 52.0), (0.09, 45.0), (-0.85, 50.0)], 0.0),
]


def test_solver_result_does_not_depend_on_the_start():
    """No solve takes a start: each is a function of its own counts and
    terms. The examples above and 400 seeded inputs are accuracy cases, in
    both name orders."""

    def check(items, gamma_star):
        deltas = np.array([d for d, _ in items])
        counts = np.array([c for _, c in items])
        check_solve(counts, deltas, gamma_star)
        check_solve(counts[::-1].copy(), deltas[::-1].copy(), gamma_star)

    _each(START_EXAMPLES + [solve[:2] for solve in _seeded_solves(seed=2)], check)


@pytest.mark.parametrize(
    "items, gamma_star",
    [
        ([(1.0, 4e12), (-1.0, 1.0), (0.9998, 3.0)], 0.9995),
        ([(-1.0, 4e12), (1.0, 1.0), (-0.9998, 3.0)], -0.9995),
        ([(1.0, 1.96e13), (-1.0, 1.0)], 0.0),
        ([(-1.0, 1.96e13), (1.0, 1.0)], 0.0),
    ],
)
def test_a_flipped_read_moves_no_end(items, gamma_star):
    """Roots 5e-13 (then 1.02e-13) from a pole, where a denominator
    computed as base + num * gamma could round negative and flip its
    term's sign. Computed as anchor + num * (gamma + side), none can, so no
    read is flipped and the solve returns the Newton root, within 1e-14 of
    the exact one."""
    deltas = np.array([d for d, _ in items])
    counts = np.array([c for _, c in items])
    check_solve(counts, deltas, gamma_star, 1e-14)


# gamma_star values of the denominator invariant: 0, +/-0.5, +/-0.96,
# +/-0.999, +/-0.9995 and +/-(1 - 2**-40).
INVARIANT_GAMMA_STARS = [0.0] + [s * g for g in (0.5, 0.96, 0.999, 0.9995, 1.0 - 2.0**-40) for s in (1.0, -1.0)]
# The 2000 floats next to -1 and the 2000 next to 1 inside (-1, 1), in
# increasing order: their spacing there is 2**-53.
NEAR_POLES = np.concatenate((-1.0 + 2.0**-53 * np.arange(1, 2001), 1.0 - 2.0**-53 * np.arange(2000, 0, -1)))


@pytest.mark.parametrize("gamma_star", INVARIANT_GAMMA_STARS)
def test_every_denominator_is_positive_and_every_term_non_increasing(gamma_star):
    """At the 2000 floats next to each of -/+1, every computed residual
    denominator is > 0 and every computed term, and the public
    ``residual``, is non-increasing in gamma. The names are 400 seeded
    inclinations, both poles, the floats next to them, and gamma_star
    itself, with counts up to 1e15."""
    rng = np.random.default_rng(11)
    deltas = np.concatenate((
        rng.uniform(-1.0, 1.0, 400), [-1.0, 1.0, _ABOVE_MINUS_ONE, _BELOW_ONE, gamma_star]
    ))
    counts = np.rint(10.0 ** rng.uniform(0.0, 15.0, len(deltas)))
    terms = _delta_terms(deltas, gamma_star)
    denominators = np.array([terms.denominators(g) for g in NEAR_POLES])
    assert np.all(denominators > 0.0)
    values = counts * terms.num / denominators
    assert np.all(np.diff(values, axis=0) <= 0.0)
    # A roster of 40 of those names, read through a reference table: female
    # and male counts with each name's p(female) and one with p = 0 and 1.
    picks = np.concatenate((rng.choice(400, 38, replace=False), [400, 401]))
    females = rng.integers(0, 10**6, len(picks))
    females[-2:] = (0, 10**6)
    reference = ReferenceTable.from_counts(
        {f"n{i}": (int(f), 10**6 - int(f)) for i, f in enumerate(females)}
    )
    target = TargetList({f"n{i}": int(c) for i, c in enumerate(counts.take(picks))})
    residuals = [gendermix.residual(g, target, reference, gamma_star) for g in NEAR_POLES]
    assert np.all(np.isfinite(residuals))
    assert np.all(np.diff(residuals) <= 0.0)


def test_bootstrap_solves_take_few_residual_passes(benchmark_reference, monkeypatch):
    """Evaluation budget of a 1000-resample ggem bootstrap: at most 8
    residual plus Newton passes per exact solve (a full bisection takes
    43), and exact solves for at most 20% of the resamples, the full
    target's solve aside; the rest are ranked without a solve."""
    tally = {"solves": 0, "passes": 0}

    def counted(name, key):
        original = getattr(estimator, name)

        def wrapper(*args, **kwargs):
            tally[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(estimator, name, wrapper)

    counted("_solve_gamma", "solves")
    counted("_residual_sum", "passes")
    counted("_log_odds_pass", "passes")
    target = sample_roster(benchmark_reference, 800, seed=8)
    bootstrap_interval(target, benchmark_reference, MethodSpec("ggem"), repeats=1000, seed=0)
    assert 1 < tally["solves"] <= 1 + 200
    assert tally["passes"] / tally["solves"] <= 8.0


def test_certified_solves_never_evaluate_the_standard_bracket_ends(benchmark_reference, monkeypatch):
    """The exact solves of a gamma_star = 0 bootstrap read the residual only
    at the two probes of the gamma each returns, gamma -/+ w: every Newton
    root there is certified at once, with no bracket end evaluated. The
    pass budget above would not notice two extra calls per solve."""
    probes, solved = [], []
    residual_sum, solve_gamma = estimator._residual_sum, estimator._solve_gamma

    def recorded(weighted, terms, gamma):
        probes.append(gamma)
        return residual_sum(weighted, terms, gamma)

    def solve(counts, terms):
        result = solve_gamma(counts, terms)
        solved.append(result[0])
        return result

    monkeypatch.setattr(estimator, "_residual_sum", recorded)
    monkeypatch.setattr(estimator, "_solve_gamma", solve)
    target = sample_roster(benchmark_reference, 800, seed=8)
    bootstrap_interval(target, benchmark_reference, MethodSpec("ggem"), repeats=1000, seed=0)
    assert len(solved) >= 25
    assert probes == [g + side * _CERTIFY_WIDTH for g in solved for side in (-1.0, 1.0)]


def _resamples(target, m, repeats, seed):
    """The bootstrap's resamples of ``target`` over its matched names ``m``,
    one row each, drawn as ``bootstrap_interval`` draws them."""
    total = target.total_individuals
    pvals = target.counts / total
    return np.array([
        np.random.default_rng([seed, r]).multinomial(total, pvals).take(m.positions) for r in range(repeats)
    ], dtype=float)


@pytest.mark.parametrize("gamma_star", [0.0, -0.5])
def test_ladder_certifies_only_signs_it_can_prove(benchmark_reference, gamma_star):
    """Every certified bucket of 1000 resamples holds that resample's solved
    root strictly inside (the outer ends, -1 and 1, included), and a
    threshold within 2w of a resample's exact root leaves it uncertain: the
    ladder reads the residual at t -/+ 2w, on both sides of that root. On a
    30-name roster the rounding bound is small enough that a ladder read at
    t itself would certify those signs."""
    target = sample_roster(benchmark_reference, 800, seed=8)
    m = estimator._match(target, benchmark_reference)
    terms = _delta_terms(2.0 * m.p_female - 1.0, gamma_star)
    root, _ = _solve_gamma(m.counts, terms)
    total = target.total_individuals
    ladder = estimator._Ladder.around(m.counts, terms, root, total)
    rows = _resamples(target, m, 1000, seed=0)
    buckets = ladder.classify(rows)
    assert np.count_nonzero(buckets >= 0) >= 900
    ends = np.concatenate(([-math.inf], ladder.thresholds, [math.inf]))
    for row, bucket in zip(rows, buckets):
        if bucket >= 0:
            drawn = np.flatnonzero(row)
            gamma, _ = _solve_gamma(row.take(drawn), terms.take(drawn))
            assert ends[bucket] < gamma < ends[bucket + 1]
    offsets = _CERTIFY_WIDTH * np.array([-1.9, -1.0, 0.0, 1.0, 1.9])
    for roster in (target, sample_roster(benchmark_reference, 30, seed=5)):
        m = estimator._match(roster, benchmark_reference)
        terms = _delta_terms(2.0 * m.p_female - 1.0, gamma_star)
        for row in _resamples(roster, m, 10, seed=0):
            drawn = np.flatnonzero(row)
            items = list(zip((2.0 * m.p_female.take(drawn) - 1.0).tolist(), row.take(drawn).tolist()))
            exact = solve_gamma_exact(items, gamma_star)
            for t in exact + offsets:
                near = estimator._Ladder.at(terms, [t], roster.total_individuals)
                assert near.classify(row[None])[0] == estimator._UNCERTAIN, (t - exact)


def test_stand_ins_keep_the_percentile_bits():
    """Values of buckets that no rank np.percentile reads can reach may
    stand in any value inside their bucket: the interval keeps its bits,
    with ties at the thresholds and at +/-1 and up to 60% degenerate
    resamples, which hold no rank."""
    for seed in range(300):
        rng = np.random.default_rng(seed)
        thresholds = np.unique(rng.uniform(-0.9, 0.9, rng.integers(1, 9)))
        repeats = int(rng.integers(100, 500))
        pool = np.concatenate((thresholds, [-1.0, 1.0], rng.uniform(-1.0, 1.0, 10)))
        gammas = np.where(
            rng.random(repeats) < 0.5,
            np.clip(rng.normal(rng.uniform(-0.5, 0.5), rng.uniform(0.05, 0.5), repeats), -1.0, 1.0),
            pool[rng.integers(0, len(pool), repeats)],
        )
        buckets = np.searchsorted(thresholds, gammas)
        uncertain = np.isin(gammas, thresholds) | (rng.random(repeats) < rng.uniform(0.0, 0.3))
        buckets[uncertain] = estimator._UNCERTAIN
        buckets[rng.random(repeats) < rng.uniform(0.0, 0.6)] = estimator._DEGENERATE
        kept = buckets != estimator._DEGENERATE
        if not kept.any():
            continue
        reached = estimator._buckets_at_ranks(buckets, gammas, thresholds)
        shown = gammas.copy()
        stand_in = estimator._Ladder(thresholds, None, None, 0.0).stand_ins()
        for r in np.flatnonzero(buckets >= 0):
            if not reached[buckets[r]]:
                shown[r] = stand_in[buckets[r]]
        expected = np.percentile((1.0 + gammas[kept]) / 2.0, [2.5, 97.5])
        got = np.percentile((1.0 + shown[kept]) / 2.0, [2.5, 97.5])
        assert got.tobytes() == expected.tobytes(), seed


@pytest.mark.parametrize(
    "items, sign",
    [
        ([(-0.46, 44.0), (0.32, 59.0), (-0.03, 45.0), (-0.29, 56.0)], -1.0),
        ([(0.51, 44.0), (-0.44, 52.0), (0.58, 54.0), (0.57, 17.0)], 1.0),
    ],
)
def test_a_one_sided_certificate_is_kept(items, sign, monkeypatch):
    """A probe that fails becomes the bracket end on its side, and the end
    is kept: the residual is monotone, so no later probe of the same solve
    is evaluated at or beyond a point whose sign it has read. These
    near-clamp targets (root near -1, then +1) and the near-clamp corpus
    class are solved with every evaluation recorded; some corpus solves
    must fail a probe, so the check is not empty."""
    calls = []
    original = estimator._residual_sum

    def recorded(weighted, terms, gamma):
        value = original(weighted, terms, gamma)
        calls.append((gamma, value))
        return value

    monkeypatch.setattr(estimator, "_residual_sum", recorded)
    targets = [(np.array([c for _, c in items]), np.array([d for d, _ in items]), 0.0)]
    targets += [(case.counts, case.deltas, case.gamma_star) for case in solver_corpus() if case.kind == "near-clamp"]
    counts, deltas, _ = targets[0]
    gamma, _ = _solve_gamma(counts, _delta_terms(deltas, 0.0))
    assert 0.99 < sign * gamma
    retried = 0
    for counts, deltas, gamma_star in targets:
        calls.clear()
        gamma, clamped = _solve_gamma(counts, _delta_terms(deltas, gamma_star))
        assert not clamped
        positive, negative = -1.0, 1.0
        for point, value in calls:
            assert positive < point < negative
            if value > 0.0:
                positive = point
            elif value < 0.0:
                negative = point
        retried += len(calls) > 2
    assert retried


def test_ggem_bootstrap_builds_the_delta_terms_once(benchmark_reference, monkeypatch):
    """The solver's delta-only terms are built once per call, not once per
    resample, and the interval never computes attributed counts."""
    calls = {"_delta_terms": 0, "_target_probabilities": 0}

    def counted(name):
        original = getattr(estimator, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(estimator, name, wrapper)

    for name in calls:
        counted(name)
    target = sample_roster(benchmark_reference, 200, seed=4)
    bootstrap_interval(target, benchmark_reference, MethodSpec("ggem"), repeats=150, seed=0)
    assert calls == {"_delta_terms": 1, "_target_probabilities": 0}


@pytest.mark.parametrize("spec", ["m0", "m2:0.9", "ggem"])
def test_bootstrap_matches_the_target_through_the_one_matcher(benchmark_reference, monkeypatch, spec):
    calls = []
    original = estimator._match

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(estimator, "_match", counted)
    target = sample_roster(benchmark_reference, 200, seed=4)
    bootstrap_interval(target, benchmark_reference, MethodSpec.parse(spec), repeats=100, seed=0)
    assert calls == [(target, benchmark_reference)]


def test_solver_creep_examples_reach_the_poles():
    """With c1 people at delta = +1 and c2 at -1 the root is (c1 - c2) /
    (c1 + c2), however close to a pole."""
    for c1, c2 in [(1.0, 5e9), (5e9, 1.0), (1.0, 1e12), (1e12, 3.0), (_EDGE, 1.0), (1.0, _NEAR_EDGE)]:
        gamma, clamped = _solve_gamma(np.array([c1, c2]), _delta_terms(np.array([1.0, -1.0]), 0.0))
        assert not clamped
        assert abs(gamma - (c1 - c2) / (c1 + c2)) <= 1e-15, (c1, c2)


# ---------------------------------------------------------------------------
# the seeded solver corpus

# |gamma - exact| per class, fixed before the first run of the Newton root:
# 1e-14 where the search converges, 2w where it may end on a certificate
# without converging (near clamp) or the residual's rounding over its slope
# reaches w (nearly neutral).
CORPUS_BOUNDS = dict.fromkeys(CORPUS_KINDS, 1e-14) | {"near-clamp": 2e-13, "nearly-neutral": 2e-13}


@contextlib.contextmanager
def counting_evaluations():
    """Count Newton passes (``_log_odds_pass``) and residual evaluations
    (``_residual_sum``) while the block runs; yields the tally."""
    tally = {"_log_odds_pass": 0, "_residual_sum": 0}
    originals = {name: getattr(estimator, name) for name in tally}

    def counted(name):
        def wrapper(*args, **kwargs):
            tally[name] += 1
            return originals[name](*args, **kwargs)

        return wrapper

    try:
        for name in tally:
            setattr(estimator, name, counted(name))
        yield tally
    finally:
        for name, original in originals.items():
            setattr(estimator, name, original)


def evaluations_per_solve() -> dict[str, tuple[float, float]]:
    """Newton passes and residual evaluations per solve, by corpus class."""
    result = {}
    for kind in CORPUS_KINDS:
        members = [case for case in solver_corpus() if case.kind == kind]
        with counting_evaluations() as tally:
            for case in members:
                _solve_gamma(case.counts, _delta_terms(case.deltas, case.gamma_star))
        result[kind] = (tally["_log_odds_pass"] / len(members), tally["_residual_sum"] / len(members))
    return result


def max_errors_per_class() -> dict[str, float]:
    """The largest |gamma - exact| of the corpus solves, by class, with
    ``exact`` from :func:`solve_gamma_exact`."""
    result = dict.fromkeys(CORPUS_KINDS, 0.0)
    for case in solver_corpus():
        gamma, _ = _solve_gamma(case.counts, _delta_terms(case.deltas, case.gamma_star))
        exact = solve_gamma_exact(list(zip(case.deltas.tolist(), case.counts.tolist())), case.gamma_star)
        result[case.kind] = max(result[case.kind], abs(gamma - exact))
    return result


@pytest.mark.parametrize("kind", CORPUS_KINDS)
def test_corpus_solves_match_the_exact_oracle(kind):
    """Each solve is certified and within its class's bound of the exact
    root (every corpus root is interior)."""
    errors = [
        check_solve(case.counts, case.deltas, case.gamma_star, CORPUS_BOUNDS[kind])
        for case in solver_corpus() if case.kind == kind
    ]
    assert None not in errors


def test_corpus_evaluations_per_solve_are_counted():
    counts = evaluations_per_solve()
    assert tuple(counts) == CORPUS_KINDS
    assert all(passes + residuals >= 2.0 for passes, residuals in counts.values())


# ---------------------------------------------------------------------------
# entry points


def reference_report(target, reference, method, cutoff=None, gamma_star=0.0):
    """One estimation run with every method's arithmetic written out; the
    ggem root is the solver's, checked by :func:`check_root` against the
    clamp rules or the exact root."""
    names = [s for s in sorted(target.entries) if s in reference.entries]
    if not names:
        raise EstimationError("no target name appears in the reference")
    counts = np.array([target.entries[s] for s in names], dtype=float)
    p = np.array([reference.entries[s].p_female for s in names], dtype=float)
    matched = sum(target.entries[s] for s in names)
    used = matched
    clamped = False
    if method == "ggem":
        deltas = 2.0 * p - 1.0
        gamma, clamped = _solve_gamma(counts, _delta_terms(deltas, gamma_star))
        check_root(counts, deltas, gamma_star, gamma, clamped)
        if gamma == 1.0:
            p_t = np.where(p > 0.0, 1.0, 0.0)
        elif gamma == -1.0:
            p_t = np.where(p < 1.0, 0.0, 1.0)
        else:
            if gamma_star != 0.0:
                alpha_star = (1.0 + gamma_star) / (1.0 - gamma_star)
                p = p / (p + alpha_star * (1.0 - p))
            alpha = (1.0 + gamma) / (1.0 - gamma)
            p_t = alpha * p / (alpha * p + (1.0 - p))
        female = float(np.sum(p_t * counts))
        male = float(np.sum((1.0 - p_t) * counts))
        composition = GenderComposition.from_gamma(gamma)
    else:
        if method == "method0":
            female = float(np.sum(p * counts))
            male = float(np.sum((1.0 - p) * counts))
            keep = None
        elif method == "method1":
            keep = np.maximum(p, 1.0 - p) >= cutoff
            female = float(np.sum(np.where(keep, p * counts, 0.0)))
            male = float(np.sum(np.where(keep, (1.0 - p) * counts, 0.0)))
        else:
            is_female, is_male = p > cutoff, (1.0 - p) > cutoff
            keep = is_female | is_male
            female = float(np.sum(np.where(is_female, counts, 0.0)))
            male = float(np.sum(np.where(is_male, counts, 0.0)))
        if keep is not None:
            if not np.any(keep):
                raise EstimationError(f"no names pass cutoff p_c={cutoff:g}")
            used = sum(target.entries[s] for s, k in zip(names, keep) if k)
        composition = GenderComposition.from_beta(female / (female + male))
    return EstimateReport(
        method=method,
        cutoff=cutoff,
        composition=composition,
        attributed_female=female,
        attributed_male=male,
        individuals_total=target.total_individuals,
        individuals_matched=matched,
        individuals_used=used,
        unique_names_total=len(target.entries),
        unique_names_matched=len(names),
        clamped=clamped,
    )


def _outcome(call):
    """A report, or the type and text of the error the call raised."""
    try:
        return call()
    except EstimationError as exc:
        return type(exc), str(exc)


_REFERENCE_COUNTS = st.dictionaries(
    st.text("abcdef", min_size=1, max_size=3),
    st.tuples(st.integers(0, 500), st.integers(0, 500)).filter(lambda fm: sum(fm) > 0),
    min_size=1,
    max_size=12,
)
_TARGET_WEIGHTS = st.one_of(st.integers(1, 10**6), st.floats(1e-3, 1e6, allow_nan=False))


@given(
    _REFERENCE_COUNTS,
    st.data(),
    st.sampled_from([0.5, 0.6, 0.75, 0.9, 1.0]),
    st.floats(-0.9, 0.9, allow_nan=False),
)
def test_entry_points_match_method_spec_and_reference_formulas(counts, data, cutoff, gamma_star):
    reference = ReferenceTable.from_counts(counts)
    names = data.draw(st.lists(st.sampled_from(sorted(counts)), min_size=1, max_size=8, unique=True))
    unmatched = data.draw(st.lists(st.text("xyz", min_size=4, max_size=5), max_size=3, unique=True))
    target = TargetList({s: data.draw(_TARGET_WEIGHTS) for s in names + unmatched})
    runs = [
        (
            lambda: estimate_method0(target, reference),
            MethodSpec("method0"),
            lambda: reference_report(target, reference, "method0"),
        ),
        (
            lambda: estimate_method1(target, reference, cutoff),
            MethodSpec("method1", cutoff),
            lambda: reference_report(target, reference, "method1", cutoff),
        ),
        (
            lambda: estimate_method2(target, reference, cutoff),
            MethodSpec("method2", cutoff),
            lambda: reference_report(target, reference, "method2", cutoff),
        ),
        (
            lambda: solve_ggem(target, reference, gamma_star),
            MethodSpec("ggem", gamma_star=gamma_star),
            lambda: reference_report(target, reference, "ggem", gamma_star=gamma_star),
        ),
    ]
    for shorthand, spec, expected in runs:
        got = _outcome(shorthand)
        assert got == _outcome(expected)
        assert got == _outcome(lambda: spec.run(target, reference))


def test_method_spec_validates_when_built():
    with pytest.raises(InputError, match=r"^p_c must be in \[0\.5, 1\.0\], got 0\.3$"):
        MethodSpec("method1", 0.3)
    with pytest.raises(InputError, match=r"^p_c must be in \[0\.5, 1\.0\], got 1\.5$"):
        MethodSpec.parse("m2:1.5")
    with pytest.raises(InputError, match=r"^p_c must be in \[0\.5, 1\.0\], got nan$"):
        MethodSpec("method2", math.nan)
    message = r"^gamma_star must be strictly inside \(-1, 1\), got 1\.0$"
    with pytest.raises(InputError, match=message):
        MethodSpec("ggem", gamma_star=1.0)
    with pytest.raises(InputError, match=message):
        MethodSpec.parse("ggem", gamma_star=1.0)
    # gamma_star is checked for every method, as --gamma-star checks it, though
    # only ggem reads it; parse checks it, then sets it to 0 for the others.
    with pytest.raises(InputError, match=r"^gamma_star must be strictly inside \(-1, 1\), got 5\.0$"):
        MethodSpec("method0", gamma_star=5.0)
    with pytest.raises(InputError, match=r"^gamma_star must be strictly inside \(-1, 1\), got 5\.0$"):
        MethodSpec.parse("m0", gamma_star=5.0)
    with pytest.raises(InputError, match=r"^gamma_star must be strictly inside \(-1, 1\), got nan$"):
        MethodSpec("method1", 0.9, gamma_star=math.nan)
    with pytest.raises(InputError, match="gamma_star"):
        partial_contributions(
            TargetList({"a": 1}), ReferenceTable.from_counts({"a": (1, 1)}), method="method0", gamma_star=5.0
        )
    assert MethodSpec.parse("m0", gamma_star=0.5).gamma_star == 0.0
    # The checked cutoff is stored as a float, the value the report carries.
    assert MethodSpec("method1", 1).cutoff == 1.0
    assert isinstance(MethodSpec("method1", 1).cutoff, float)


def test_solve_ggem_checks_gamma_star_before_tol():
    """solve_ggem checks gamma_star and takes no tol: the root is certified
    to a fixed width."""
    target = TargetList({"a": 1})
    reference = ReferenceTable.from_counts({"a": (1, 1)})
    with pytest.raises(InputError, match="gamma_star"):
        solve_ggem(target, reference, gamma_star=2.0)
    with pytest.raises(TypeError, match="tol"):
        solve_ggem(target, reference, tol=1e-12)


PUBLIC_SIGNATURES = {
    "estimate_method0": "(target: gendermix.reference.TargetList, "
    "reference: gendermix.reference.ReferenceTable) -> gendermix.estimator.EstimateReport",
    "estimate_method1": "(target: gendermix.reference.TargetList, "
    "reference: gendermix.reference.ReferenceTable, p_c: float) "
    "-> gendermix.estimator.EstimateReport",
    "estimate_method2": "(target: gendermix.reference.TargetList, "
    "reference: gendermix.reference.ReferenceTable, p_c: float) "
    "-> gendermix.estimator.EstimateReport",
    "solve_ggem": "(target: gendermix.reference.TargetList, "
    "reference: gendermix.reference.ReferenceTable, gamma_star: float = 0.0) "
    "-> gendermix.estimator.EstimateReport",
    "residual": "(gamma: float, target: gendermix.reference.TargetList, "
    "reference: gendermix.reference.ReferenceTable, gamma_star: float = 0.0) -> float",
    "partial_contributions": "(target: gendermix.reference.TargetList, "
    "reference: gendermix.reference.ReferenceTable, bin_edges: list[float] | None = None, "
    "method: str = 'method0', gamma_star: float = 0.0) "
    "-> list[gendermix.estimator.PartialContribution]",
    "bootstrap_interval": "(target: gendermix.reference.TargetList, "
    "reference: gendermix.reference.ReferenceTable, "
    "method_spec: gendermix.estimator.MethodSpec, repeats: int = 1000, seed: int = 0) "
    "-> gendermix.estimator.BootstrapInterval",
    "MethodSpec": "(method: str, cutoff: float | None = None, gamma_star: float = 0.0) -> None",
    "MethodSpec.parse": "(text: str, gamma_star: float = 0.0) -> 'MethodSpec'",
    "MethodSpec.run": "(self, target: gendermix.reference.TargetList, "
    "reference: gendermix.reference.ReferenceTable) -> gendermix.estimator.EstimateReport",
}

PUBLIC_NAMES = [
    "__version__", "GendermixError", "InputError", "EstimationError", "GenderCounts",
    "ReferenceTable", "TargetList", "MODE_FULL_NAME", "MODE_INITIAL", "MODE_LAST",
    "normalize_name", "ingest_canonical_csv", "ingest_ssa_year_files", "filter_min_count",
    "merge", "letter_table", "letter_target", "load_target", "export_canonical_csv",
    "export_target_csv", "name_entropy", "inclination_shift", "METHOD_0", "METHOD_1",
    "METHOD_2", "METHOD_GGEM", "METHODS", "GenderComposition", "PipelineRatio",
    "convert_composition", "inclination", "transform_conditional", "residual",
    "estimate_method0", "estimate_method1", "estimate_method2", "solve_ggem", "MethodSpec",
    "EstimateReport", "BootstrapInterval", "bootstrap_interval", "with_bootstrap",
    "partial_contributions", "default_bin_edges", "LabeledPopulation", "generate",
    "apply_pipeline", "letter_population", "export_population", "default_beta0_grid",
    "GENERATOR_ID", "SweepConfig", "SweepReport", "Coverage", "run_sweep", "export_report",
    "coverage_stats", "abs_error", "rel_error",
]


def test_public_api_is_pinned():
    assert gendermix.__all__ == PUBLIC_NAMES
    for path, expected in PUBLIC_SIGNATURES.items():
        obj = gendermix
        for part in path.split("."):
            obj = getattr(obj, part)
        assert str(inspect.signature(obj)) == expected, path


def test_readme_python_api_block_runs(tmp_path, monkeypatch, capsys):
    """The fenced block under README's ``## Python API`` runs unchanged."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Python API\n+```python\n(.*?)^```$", readme, re.M | re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    first, _, report = capsys.readouterr().out.partition("\n")
    beta, clamped = first.split()
    assert clamped == "False"
    # The JSON report rounds to 12 significant digits.
    assert float(beta) == pytest.approx(json.loads(report)["beta"], abs=1e-12)


if __name__ == "__main__":
    # Print the evaluations per solve and the largest |gamma - exact| of each
    # corpus class: PYTHONPATH=src:tests python tests/test_estimator_equivalence.py
    errors = max_errors_per_class()
    print(f"{'class':<20} {'Newton passes':>14} {'residual evals':>15} {'total':>7} {'max |gamma - exact|':>20}")
    for kind, (passes, residuals) in evaluations_per_solve().items():
        print(f"{kind:<20} {passes:>14.2f} {residuals:>15.2f} {passes + residuals:>7.2f} {errors[kind]:>20.3e}")
