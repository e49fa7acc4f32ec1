"""The array-level bootstrap, the buffered solver and the estimator entry
points against plain reference implementations.

``reference_bootstrap`` is the straightforward resampling loop: every repeat
rebuilds a :class:`TargetList` from the drawn counts and runs the public
estimator on it, counting an :class:`EstimationError` as degenerate.
``reference_solve_gamma`` evaluates the residual without a scratch buffer.
``reference_report`` is each method's match-and-sum written out on its own.
The package must agree with all three exactly, not approximately.
"""

import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    solve_ggem,
)
from gendermix import estimator
from gendermix.estimator import _BRACKET_MARGIN, _delta_terms, _residual_sum, _solve_gamma
from _synth import sample_roster


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
    # The residual is identically zero: every resample returns gamma_star.
    "neutral": lambda ref: (NEUTRAL_REFERENCE, TargetList({"a": 5, "b": 7, "c": 2})),
}

BOOTSTRAP_CASES = [pytest.param(s, None, id=f"{s.label()}@{s.gamma_star:g}") for s in SPECS] + [
    # Past _FAST_GAMMA_STAR: no Newton step, every solve bisects in full.
    pytest.param(MethodSpec("ggem", gamma_star=0.9995), None, id="ggem@0.9995"),
    pytest.param(MethodSpec("ggem", gamma_star=-0.9995), None, id="ggem@-0.9995"),
    pytest.param(MethodSpec("ggem"), "pole-free", id="ggem@0-pole-free"),
    pytest.param(MethodSpec("ggem", gamma_star=0.2), "pole-free", id="ggem@0.2-pole-free"),
    pytest.param(MethodSpec("ggem"), "clamp-high", id="ggem@0-clamp-high"),
    pytest.param(MethodSpec("ggem"), "clamp-low", id="ggem@0-clamp-low"),
    pytest.param(MethodSpec("ggem", gamma_star=0.5), "neutral", id="ggem@0.5-neutral"),
]


@pytest.mark.parametrize("repeats", [100, 150])
@pytest.mark.parametrize("spec, case", BOOTSTRAP_CASES)
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


_ITEMS = st.lists(
    st.tuples(_DELTAS, st.one_of(_INTEGER_COUNTS, _REAL_COUNTS)), min_size=1, max_size=200
)
_GAMMA_STAR = st.floats(-0.9999, 0.9999, allow_nan=False)
# delta = +1 with _EDGE people against delta = -1 with 1 puts the root at
# 1 - 1e-9, the end of the standard bracket; with _NEAR_EDGE people, 5e-13
# inside it.
_EDGE = 1999999999.0
_NEAR_EDGE = 1999000000.0


@settings(max_examples=400)
@given(_ITEMS, _GAMMA_STAR, st.booleans(), st.floats(-0.999, 0.999, allow_nan=False))
# Creep branches: the root sits within 1e-9 of -1, then of +1.
@example([(1.0, 1.0), (-1.0, 5e9)], 0.0, False, 0.0)
@example([(-1.0, 1.0), (1.0, 5e9)], 0.0, False, 0.0)
# A neutral name (delta = gamma_star) beside signed ones.
@example([(0.25, 7.0), (1.0, 2.0), (-0.5, 3.0)], 0.25, True, 0.5)
# Counts of 1e12.
@example([(0.6, 1e12), (-0.3, 1e12), (1.0, 3.0), (-1.0, 1e12)], 0.0, False, 0.1)
@example([(0.5, 1e12), (-0.5, 1e12 - 1.0)], 0.0, False, 0.0)
# A strongly imbalanced reference, both ways.
@example([(0.9, 5.0), (1.0, 2.0), (-0.2, 7.0)], 0.95, False, 0.3)
@example([(-0.9, 5.0), (-1.0, 2.0), (0.2, 7.0)], -0.95, True, -0.3)
# Roots within 1e-12 of either end of the standard bracket.
@example([(1.0, _EDGE), (-1.0, 1.0)], 0.0, False, 0.0)
@example([(-1.0, _EDGE), (1.0, 1.0)], 0.0, False, 0.0)
@example([(1.0, _NEAR_EDGE), (-1.0, 1.0)], 0.0, False, 0.0)
@example([(-1.0, _NEAR_EDGE), (1.0, 1.0)], 0.0, False, 0.0)
@example([(1.0, _EDGE + 1.0), (-1.0, 1.0)], 0.0, False, 0.0)
# Every name at delta = gamma_star except one.
@example([(0.25, 3.0), (0.25, 9.0), (-0.5, 2.0)], 0.25, True, 0.0)
@example([(-0.4, 1e12), (0.7, 1.0)], -0.4, True, 0.2)
def test_buffered_solver_is_bit_identical(items, gamma_star, neutral, gamma):
    deltas = [d for d, _ in items] + ([gamma_star] if neutral else [])
    counts = [c for _, c in items] + ([11.0] if neutral else [])
    deltas, counts = np.array(deltas), np.array(counts)
    assert _bits(_solve_gamma(counts, _delta_terms(deltas, gamma_star), 1e-12)) == _bits(
        reference_solve_gamma(counts, deltas, gamma_star, 1e-12)
    )
    # The bisection only sees residual signs, so compare the values too.
    num = deltas - gamma_star
    base = 1.0 - gamma_star * deltas
    buffered = _residual_sum(counts * num, num, base, gamma, np.empty_like(num))
    plain = float(np.sum(counts * num / (base + num * gamma)))
    assert buffered.hex() == plain.hex()


_STARTS = st.one_of(
    st.floats(-1.0, 1.0, allow_nan=False),
    st.sampled_from(
        [-1.0, 1.0, -(1.0 - _BRACKET_MARGIN), 1.0 - _BRACKET_MARGIN, 1.0 - 1e-12,
         1.5, -7.0, math.inf, -math.inf, math.nan]
    ),
)


@settings(max_examples=400)
@given(_ITEMS, _GAMMA_STAR, _STARTS, st.sampled_from([1e-12, 1e-6, 1e-15]))
@example([(1.0, _EDGE), (-1.0, 1.0)], 0.0, -1.0, 1e-12)
@example([(1.0, 1.0), (-1.0, 5e9)], 0.0, 1.0, 1e-12)
@example([(0.6, 1e12), (-0.3, 1e12), (1.0, 3.0)], 0.95, math.nan, 1e-15)
def test_solver_result_does_not_depend_on_the_start(items, gamma_star, start, tol):
    deltas = np.array([d for d, _ in items])
    counts = np.array([c for _, c in items])
    assert _bits(_solve_gamma(counts, _delta_terms(deltas, gamma_star), tol, start)) == _bits(
        reference_solve_gamma(counts, deltas, gamma_star, tol)
    )


def test_bootstrap_solves_take_few_residual_passes(benchmark_reference, monkeypatch):
    """Evaluation budget: residual plus Newton passes per ggem solve over a
    1000-resample bootstrap (a full bisection takes 43)."""
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
    assert tally["solves"] >= 1000
    assert tally["passes"] / tally["solves"] <= 8.0


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
    deltas = np.array([1.0, -1.0])
    low, _ = _solve_gamma(np.array([1.0, 5e9]), _delta_terms(deltas, 0.0), 1e-12)
    high, _ = _solve_gamma(np.array([5e9, 1.0]), _delta_terms(deltas, 0.0), 1e-12)
    assert low < -(1.0 - _BRACKET_MARGIN)
    assert high > 1.0 - _BRACKET_MARGIN


# ---------------------------------------------------------------------------
# entry points


def reference_report(target, reference, method, cutoff=None, gamma_star=0.0, tol=1e-12):
    """One estimation run with every method's arithmetic written out."""
    names = [s for s in sorted(target.entries) if s in reference.entries]
    if not names:
        raise EstimationError("no target name appears in the reference")
    counts = np.array([target.entries[s] for s in names], dtype=float)
    p = np.array([reference.entries[s].p_female for s in names], dtype=float)
    matched = sum(target.entries[s] for s in names)
    used = matched
    clamped = False
    if method == "ggem":
        gamma, clamped = reference_solve_gamma(counts, 2.0 * p - 1.0, gamma_star, tol)
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
    st.sampled_from([1e-12, 1e-6, 0.01]),
)
def test_entry_points_match_method_spec_and_reference_formulas(
    counts, data, cutoff, gamma_star, tol
):
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
        (
            lambda: solve_ggem(target, reference, gamma_star, tol=tol),
            None,
            lambda: reference_report(target, reference, "ggem", gamma_star=gamma_star, tol=tol),
        ),
    ]
    for shorthand, spec, expected in runs:
        got = _outcome(shorthand)
        assert got == _outcome(expected)
        if spec is not None:
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
    # The checked cutoff is stored as a float, the value the report carries.
    assert MethodSpec("method1", 1).cutoff == 1.0
    assert isinstance(MethodSpec("method1", 1).cutoff, float)


def test_solve_ggem_checks_gamma_star_before_tol():
    target = TargetList({"a": 1})
    reference = ReferenceTable.from_counts({"a": (1, 1)})
    with pytest.raises(InputError, match="gamma_star"):
        solve_ggem(target, reference, gamma_star=2.0, tol=0.0)
    with pytest.raises(InputError, match="tol must be positive"):
        solve_ggem(target, reference, tol=0.0)


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
    "reference: gendermix.reference.ReferenceTable, gamma_star: float = 0.0, "
    "tol: float = 1e-12) -> gendermix.estimator.EstimateReport",
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
