import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gendermix import (
    EstimationError,
    GenderComposition,
    InputError,
    MethodSpec,
    PipelineRatio,
    ReferenceTable,
    TargetList,
    apply_pipeline,
    bootstrap_interval,
    convert_composition,
    default_bin_edges,
    estimate_method0,
    estimate_method1,
    estimate_method2,
    inclination,
    partial_contributions,
    residual,
    solve_ggem,
    transform_conditional,
    with_bootstrap,
)
from _synth import bootstrap_sigma_gamma, make_benchmark_reference, sample_roster, solve_gamma_exact

table = ReferenceTable.from_counts


# Exact dyadic conditionals so float inclinations carry no rounding noise.
POLAR = table({"fa": (3, 0), "fb": (12, 0), "ma": (0, 1), "mb": (0, 7)})
MIXED = table({"hi": (3, 1), "lo": (1, 3), "even": (2, 2), "allf": (5, 0), "allm": (0, 4)})


# ---------------------------------------------------------------------------
# composition conversions


def test_composition_from_gamma():
    c = GenderComposition.from_gamma(0.5)
    assert c.beta == 0.75
    assert c.alpha == 3.0


def test_composition_from_beta_all_male():
    c = GenderComposition.from_beta(0.0)
    assert (c.gamma, c.alpha) == (-1.0, 0.0)


def test_composition_all_female_alpha_is_inf():
    assert GenderComposition.from_beta(1.0).alpha == math.inf
    assert GenderComposition.from_gamma(1.0).alpha == math.inf
    c = GenderComposition.from_alpha(math.inf)
    assert (c.gamma, c.beta) == (1.0, 1.0)


def test_composition_from_alpha():
    c = GenderComposition.from_alpha(3.0)
    assert c.gamma == pytest.approx(0.5, abs=1e-15)
    assert c.beta == 0.75


def test_convert_composition_routing():
    assert convert_composition(0.5, "gamma").beta == 0.75
    assert convert_composition(0.75, "beta").alpha == 3.0
    assert convert_composition(1.0, "alpha").gamma == 0.0
    with pytest.raises(InputError, match="axis"):
        convert_composition(0.5, "delta")


def test_composition_validation():
    for bad in (-0.1, 1.1, math.nan):
        with pytest.raises(InputError):
            GenderComposition.from_beta(bad)
    with pytest.raises(InputError):
        GenderComposition.from_gamma(1.0000001)
    with pytest.raises(InputError):
        GenderComposition.from_alpha(-0.5)
    with pytest.raises(InputError):
        GenderComposition.from_alpha(math.nan)


@given(st.floats(-1.0, 1.0))
def test_composition_round_trip(gamma):
    c = GenderComposition.from_gamma(gamma)
    assert GenderComposition.from_beta(c.beta).gamma == pytest.approx(gamma, abs=1e-15)
    assert GenderComposition.from_alpha(c.alpha).beta == pytest.approx(c.beta, abs=1e-15)


def test_inclination():
    assert inclination(0.99) == pytest.approx(0.98, abs=1e-15)
    assert inclination(0.5) == 0.0
    with pytest.raises(InputError):
        inclination(1.5)


# ---------------------------------------------------------------------------
# pipeline transform


def test_pipeline_ratio_validation():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InputError):
            PipelineRatio(bad)
    for bad_star in (-1.0, 1.0, 2.0):
        with pytest.raises(InputError):
            PipelineRatio(1.0, bad_star)
    assert PipelineRatio(2.0).gamma_star == 0.0


def test_transform_balanced_name():
    for eta in (0.1, 0.5, 1.0, 3.0, 99.0):
        expected = eta / (1.0 + eta)
        assert transform_conditional(0.5, PipelineRatio(eta)) == pytest.approx(expected, rel=1e-15)


def test_transform_known_attritions():
    assert transform_conditional(0.6, PipelineRatio(1.0 / 6.0)) == pytest.approx(0.2, abs=1e-12)
    assert transform_conditional(0.99, PipelineRatio(1.0 / 99.0)) == pytest.approx(0.5, abs=1e-12)


def test_transform_identity_is_bitwise():
    unit = PipelineRatio(1.0)
    for p in [0.0, 1.0, 0.3, 0.5, 1.0 / 3.0, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)]:
        assert transform_conditional(p, unit) == p


def test_transform_fixes_endpoints():
    for eta in (0.01, 0.7, 42.0):
        pipe = PipelineRatio(eta)
        assert transform_conditional(0.0, pipe) == 0.0
        assert transform_conditional(1.0, pipe) == 1.0


@given(st.floats(0.0, 1.0), st.floats(0.01, 100.0))
def test_transform_gender_swap_symmetry(p, eta):
    direct = transform_conditional(p, PipelineRatio(eta))
    swapped = transform_conditional(1.0 - p, PipelineRatio(1.0 / eta))
    assert direct == pytest.approx(1.0 - swapped, abs=1e-12)


@given(st.floats(0.001, 0.999), st.floats(0.001, 0.999), st.floats(0.01, 100.0))
def test_transform_is_monotone_in_p(p1, p2, eta):
    lo, hi = sorted((p1, p2))
    pipe = PipelineRatio(eta)
    assert transform_conditional(lo, pipe) <= transform_conditional(hi, pipe)


@given(st.floats(0.01, 0.99), st.floats(-0.9, 0.9))
def test_transform_debias_inverts_reference_imbalance(p, gamma_star):
    # An attrition exactly equal to the reference's own odds ratio undoes
    # the debiasing step, so the conditional comes back unchanged.
    alpha_star = (1.0 + gamma_star) / (1.0 - gamma_star)
    out = transform_conditional(p, PipelineRatio(alpha_star, gamma_star))
    assert out == pytest.approx(p, rel=1e-12)


def test_transform_with_reference_imbalance():
    # gamma* = 0.5 halves the odds of p = 0.75 down to even, then eta = 2
    # doubles them back up: 2/3 female.
    out = transform_conditional(0.75, PipelineRatio(2.0, 0.5))
    assert out == pytest.approx(2.0 / 3.0, rel=1e-14)


# ---------------------------------------------------------------------------
# residual


def test_residual_known_values():
    ref = table({"a": (5, 0), "b": (0, 5)})
    target = TargetList({"a": 3, "b": 1})
    assert residual(0.0, target, ref) == 2.0
    assert residual(0.5, target, ref) == 0.0


def test_residual_validation():
    ref = table({"a": (5, 0)})
    target = TargetList({"a": 3})
    for gamma in (-1.0, 1.0, 1.5, math.nan):
        with pytest.raises(InputError):
            residual(gamma, target, ref)
    with pytest.raises(InputError):
        residual(0.0, target, ref, gamma_star=1.0)
    with pytest.raises(EstimationError, match="no target name"):
        residual(0.0, TargetList({"zz": 1}), ref)


def test_residual_ignores_neutral_names_bitwise():
    ref = table({"hi": (3, 1), "lo": (1, 3), "allf": (5, 0), "even": (2, 2)})
    with_even = TargetList({"hi": 7, "lo": 4, "allf": 2, "even": 1000})
    without = TargetList({"hi": 7, "lo": 4, "allf": 2})
    for gamma in (-0.9, -0.25, 0.0, 0.6):
        assert residual(gamma, with_even, ref) == residual(gamma, without, ref)


@given(
    st.lists(
        st.tuples(st.sampled_from([-1.0, -0.75, -0.5, 0.25, 0.5, 1.0]), st.integers(1, 50)),
        min_size=1,
        max_size=5,
    ),
    st.floats(-0.99, 0.99),
    st.floats(-0.99, 0.99),
)
def test_residual_is_decreasing(items, g1, g2):
    counts = {}
    for i, (delta, count) in enumerate(items):
        female = int(8 * (1 + delta) / 2)
        counts[f"n{i}"] = (female, 8 - female)
    ref = table(counts)
    target = TargetList({k: c for (k, _), (_, c) in zip(counts.items(), items)})
    lo, hi = sorted((g1, g2))
    if hi - lo < 1e-9:
        return
    assert residual(lo, target, ref) > residual(hi, target, ref)


# ---------------------------------------------------------------------------
# the self-consistent solver


def test_solver_simple_root():
    ref = table({"a": (5, 0), "b": (0, 5)})
    report = solve_ggem(TargetList({"a": 3, "b": 1}), ref)
    assert report.composition.gamma == pytest.approx(0.5, abs=1e-11)
    assert report.composition.beta == pytest.approx(0.75, abs=1e-11)
    assert not report.clamped


def test_solver_mixed_inclinations_root():
    # 10 bearers at delta 0.9 against 30 at -0.5 balance out at gamma -1/3.
    ref = table({"hi": (19, 1), "lo": (1, 3)})
    report = solve_ggem(TargetList({"hi": 10, "lo": 30}), ref)
    assert report.composition.gamma == pytest.approx(-1.0 / 3.0, abs=1e-11)


def test_solver_clamps_single_signed_targets():
    report = solve_ggem(TargetList({"fa": 3, "fb": 9}), POLAR)
    assert report.composition.gamma == 1.0
    assert report.clamped
    assert report.composition.beta == 1.0
    assert report.attributed_female == 12.0
    assert report.attributed_male == 0.0

    report = solve_ggem(TargetList({"ma": 2, "mb": 2}), POLAR)
    assert report.composition.gamma == -1.0
    assert report.clamped
    assert report.attributed_male == 4.0


def test_solver_clamps_when_all_deltas_lean_one_way():
    ref = table({"a": (3, 1), "b": (15, 1)})
    report = solve_ggem(TargetList({"a": 5, "b": 5}), ref)
    assert report.composition.gamma == 1.0
    assert report.clamped


def test_solver_neutral_only_target_returns_reference_point():
    report = solve_ggem(TargetList({"even": 9}), MIXED)
    assert report.composition.gamma == 0.0
    assert not report.clamped

    ref = table({"three": (3, 1)})  # delta exactly 0.5
    report = solve_ggem(TargetList({"three": 11}), ref, gamma_star=0.5)
    assert report.composition.gamma == 0.5
    assert not report.clamped


def test_solver_matches_exact_rational_oracle():
    cases = [
        {"hi": 7, "lo": 5},
        {"hi": 1, "lo": 6, "allf": 3},
        {"hi": 40, "lo": 3, "even": 11, "allm": 2},
        {"hi": 2, "lo": 2, "allf": 1, "allm": 1},
    ]
    for entries in cases:
        report = solve_ggem(TargetList(entries), MIXED)
        items = [
            (Fraction(2.0 * MIXED.entries[s].p_female - 1.0), entries[s])
            for s in sorted(entries)
        ]
        expected = solve_gamma_exact(items)
        assert report.composition.gamma == pytest.approx(expected, abs=5e-12)
        assert abs(residual(report.composition.gamma, TargetList(entries), MIXED)) < 1e-9


def test_solver_symmetric_target_is_balanced():
    report = solve_ggem(TargetList({"hi": 13, "lo": 13}), MIXED)
    assert report.composition.gamma == pytest.approx(0.0, abs=2e-12)


def test_solver_two_name_closed_form_with_reference_imbalance():
    ref = table({"hi": (3, 1), "lo": (1, 3)})
    gs = Fraction(1, 4)
    n1, n2 = Fraction(1, 2) - gs, Fraction(-1, 2) - gs
    d1, d2 = 1 - gs * Fraction(1, 2), 1 + gs * Fraction(1, 2)
    c1, c2 = 9, 2
    expected = -(c1 * n1 * d2 + c2 * n2 * d1) / (n1 * n2 * (c1 + c2))
    report = solve_ggem(TargetList({"hi": c1, "lo": c2}), ref, gamma_star=0.25)
    assert -1 < expected < 1
    assert report.composition.gamma == pytest.approx(float(expected), abs=5e-12)


def test_solver_self_consistency_identity():
    cases = [
        ({"hi": 7, "lo": 5}, 0.0),
        ({"hi": 3, "lo": 50, "even": 20}, 0.0),
        ({"hi": 5, "lo": 4, "allf": 2, "allm": 1}, 0.2),
    ]
    for entries, gamma_star in cases:
        report = solve_ggem(TargetList(entries), MIXED, gamma_star=gamma_star)
        total = report.attributed_female + report.attributed_male
        assert total == pytest.approx(report.individuals_matched, rel=1e-12)
        assert report.attributed_female / total == pytest.approx(
            report.composition.beta, abs=1e-10
        )


def test_solver_root_is_scale_invariant():
    base = {"hi": 7, "lo": 5, "even": 3}
    small = solve_ggem(TargetList(base), MIXED)
    big = solve_ggem(TargetList({k: 700 * v for k, v in base.items()}), MIXED)
    assert big.composition.gamma == pytest.approx(small.composition.gamma, abs=5e-12)


def test_solver_neutral_names_never_move_the_root():
    # A delta = 0 name contributes an exactly zero residual term, so the
    # bisection path, and hence the solved gamma, is bit-for-bit the same.
    with_even = solve_ggem(TargetList({"hi": 7, "lo": 4, "allf": 2, "even": 500}), MIXED)
    without = solve_ggem(TargetList({"hi": 7, "lo": 4, "allf": 2}), MIXED)
    assert with_even.composition.gamma == without.composition.gamma
    assert with_even.clamped == without.clamped
    assert with_even.attributed_female > without.attributed_female


def test_solver_validation():
    target = TargetList({"hi": 1})
    with pytest.raises(InputError):
        solve_ggem(target, MIXED, gamma_star=1.0)
    with pytest.raises(InputError):
        solve_ggem(target, MIXED, tol=0.0)
    with pytest.raises(EstimationError):
        solve_ggem(TargetList({"nope": 1}), MIXED)


# ---------------------------------------------------------------------------
# baseline methods


def test_method0_fractional_attribution():
    ref = table({"alice": (95, 5)})
    report = estimate_method0(TargetList({"alice": 10}), ref)
    assert report.attributed_female == pytest.approx(9.5, rel=1e-15)
    assert report.attributed_male == pytest.approx(0.5, rel=1e-14)
    assert report.composition.beta == pytest.approx(0.95, rel=1e-14)
    assert report.cutoff is None


def test_method0_balanced_mix():
    report = estimate_method0(TargetList({"hi": 2, "lo": 2}), MIXED)
    assert report.composition.beta == 0.5
    assert report.attributed_female == 2.0


def test_method0_coverage_fields():
    report = estimate_method0(TargetList({"hi": 4, "unknown": 6}), MIXED)
    assert report.individuals_total == 10
    assert report.individuals_matched == 4
    assert report.individuals_used == 4
    assert report.unique_names_total == 2
    assert report.unique_names_matched == 1


def test_method1_cutoff_is_inclusive():
    ref = table({"edge": (9, 1)})
    report = estimate_method1(TargetList({"edge": 5}), ref, 0.9)
    assert report.individuals_used == 5
    assert report.composition.beta == pytest.approx(0.9, rel=1e-15)


def test_method1_at_half_equals_method0():
    targets = [
        {"hi": 7, "lo": 5},
        {"hi": 1, "even": 9, "allm": 4},
        {"allf": 3, "allm": 3},
    ]
    for entries in targets:
        m0 = estimate_method0(TargetList(entries), MIXED)
        m1 = estimate_method1(TargetList(entries), MIXED, 0.5)
        assert m1.attributed_female == m0.attributed_female
        assert m1.attributed_male == m0.attributed_male
        assert m1.composition.beta == m0.composition.beta
        assert m1.individuals_used == m0.individuals_used


def test_method1_filters_weak_names():
    ref = table({"strong": (95, 5), "weak": (3, 2)})
    report = estimate_method1(TargetList({"strong": 10, "weak": 10}), ref, 0.7)
    assert report.individuals_used == 10
    assert report.individuals_matched == 20
    assert report.attributed_female == pytest.approx(9.5, rel=1e-15)


def test_method1_errors():
    with pytest.raises(InputError):
        estimate_method1(TargetList({"hi": 1}), MIXED, 0.4)
    with pytest.raises(InputError):
        estimate_method1(TargetList({"hi": 1}), MIXED, 1.1)
    with pytest.raises(EstimationError, match="cutoff"):
        estimate_method1(TargetList({"hi": 5}), MIXED, 0.8)


def test_method2_assigns_whole_names():
    ref = table({"her": (95, 5), "him": (2, 98)})
    report = estimate_method2(TargetList({"her": 10, "him": 4}), ref, 0.9)
    assert report.attributed_female == 10.0
    assert report.attributed_male == 4.0
    assert report.composition.beta == pytest.approx(10.0 / 14.0, rel=1e-15)


def test_method2_cutoff_is_strict():
    ref = table({"edge": (9, 1), "sure": (100, 0)})
    report = estimate_method2(TargetList({"edge": 5, "sure": 1}), ref, 0.9)
    assert report.individuals_used == 1  # the 0.9 name is excluded at p_c = 0.9
    with pytest.raises(EstimationError):
        estimate_method2(TargetList({"edge": 5}), ref, 0.9)


def test_method2_excludes_balanced_names_at_half():
    report = estimate_method2(TargetList({"even": 8, "hi": 4}), MIXED, 0.5)
    assert report.individuals_used == 4
    assert report.attributed_female == 4.0


def test_method2_at_one_excludes_everything():
    # Strict comparison: even a fully gendered name fails p > 1.0.
    with pytest.raises(EstimationError):
        estimate_method2(TargetList({"allf": 5}), MIXED, 1.0)


def test_all_methods_count_exactly_on_fully_gendered_reference():
    target = TargetList({"fa": 6, "fb": 9, "ma": 4, "mb": 1})
    expected_beta = 15.0 / 20.0
    for report in (
        estimate_method0(target, POLAR),
        estimate_method1(target, POLAR, 0.5),
        estimate_method2(target, POLAR, 0.99),
        solve_ggem(target, POLAR),
    ):
        assert report.attributed_female == pytest.approx(15.0, abs=1e-9)
        assert report.attributed_male == pytest.approx(5.0, abs=1e-9)
        assert report.composition.beta == pytest.approx(expected_beta, abs=1e-12)


# ---------------------------------------------------------------------------
# partial contributions


def test_default_bin_edges():
    assert default_bin_edges() == [i / 10 for i in range(11)]
    assert default_bin_edges(2) == [0.0, 0.5, 1.0]
    with pytest.raises(InputError):
        default_bin_edges(0)


def test_partial_single_bin_matches_global():
    target = TargetList({"hi": 7, "lo": 5, "even": 2})
    rows = partial_contributions(target, MIXED, bin_edges=[0.0, 1.0])
    assert len(rows) == 1
    global_report = estimate_method0(target, MIXED)
    assert rows[0].beta_partial == pytest.approx(global_report.composition.beta, abs=1e-12)
    assert rows[0].individuals == 14


def test_partial_bin_assignment():
    ref = table({"faint": (21, 19), "mid": (3, 1), "full": (9, 0)})
    target = TargetList({"faint": 10, "mid": 20, "full": 30})
    rows = partial_contributions(target, ref, bin_edges=[0.0, 0.1, 0.5, 1.0])
    # |delta| = 0.5 sits on an edge and belongs to the upper bin.
    assert [r.individuals for r in rows] == [10, 0, 50]
    assert rows[0].low == 0.0 and rows[2].high == 1.0
    assert rows[1].beta_partial is None
    assert rows[2].beta_partial == pytest.approx(45.0 / 50.0, rel=1e-15)


def test_partial_empty_bin_is_none():
    rows = partial_contributions(TargetList({"allf": 5}), MIXED, bin_edges=[0.0, 0.5, 1.0])
    assert rows[0].beta_partial is None
    assert rows[0].individuals == 0
    assert rows[1].beta_partial == 1.0


def test_partial_ggem_uses_transformed_probabilities():
    target = TargetList({"hi": 30, "lo": 5})
    raw = partial_contributions(target, MIXED, bin_edges=[0.0, 1.0], method="method0")
    solved = partial_contributions(target, MIXED, bin_edges=[0.0, 1.0], method="ggem")
    report = solve_ggem(target, MIXED)
    assert solved[0].beta_partial == pytest.approx(report.composition.beta, abs=1e-10)
    assert solved[0].beta_partial != raw[0].beta_partial


def test_partial_validation():
    target = TargetList({"hi": 1})
    with pytest.raises(InputError, match="increasing"):
        partial_contributions(target, MIXED, bin_edges=[0.0, 0.5, 0.5, 1.0])
    with pytest.raises(InputError, match="span"):
        partial_contributions(target, MIXED, bin_edges=[0.1, 1.0])
    with pytest.raises(InputError, match="method0 or ggem"):
        partial_contributions(target, MIXED, method="method1")


def test_partial_checks_gamma_star_before_matching():
    # No target name is in the reference, so matching would fail first.
    with pytest.raises(InputError, match="gamma_star"):
        partial_contributions(TargetList({"zed": 3}), MIXED, method="ggem", gamma_star=5.0)
    with pytest.raises(EstimationError):
        partial_contributions(TargetList({"zed": 3}), MIXED, method="ggem", gamma_star=0.5)


# ---------------------------------------------------------------------------
# bootstrap


def test_bootstrap_is_deterministic():
    target = TargetList({"hi": 30, "lo": 20, "even": 10})
    spec = MethodSpec("method0")
    a = bootstrap_interval(target, MIXED, spec, repeats=150, seed=7)
    b = bootstrap_interval(target, MIXED, spec, repeats=150, seed=7)
    assert (a.low, a.high, a.degenerate) == (b.low, b.high, b.degenerate)
    c = bootstrap_interval(target, MIXED, spec, repeats=150, seed=8)
    assert (a.low, a.high) != (c.low, c.high)


def test_bootstrap_single_name_has_zero_width():
    interval = bootstrap_interval(TargetList({"hi": 50}), MIXED, MethodSpec("method0"), repeats=120)
    assert interval.low == interval.high == 0.75
    assert interval.degenerate == 0


def test_bootstrap_straddles_point_estimate():
    target = TargetList({"allf": 50, "allm": 50})
    interval = bootstrap_interval(target, MIXED, MethodSpec("method0"), repeats=300, seed=1)
    assert interval.low < 0.5 < interval.high


def test_bootstrap_counts_degenerate_resamples():
    ref = table({"strong": (99, 1), "weak": (3, 2)})
    target = TargetList({"strong": 1, "weak": 200})
    spec = MethodSpec("method2", 0.9)
    interval = bootstrap_interval(target, ref, spec, repeats=200, seed=0)
    assert interval.degenerate > 0
    # Surviving resamples keep only the strong name: all assigned female.
    assert interval.low == interval.high == 1.0


def test_bootstrap_all_degenerate_is_an_error():
    with pytest.raises(EstimationError, match="degenerate"):
        bootstrap_interval(TargetList({"ghost": 5}), MIXED, MethodSpec("method0"), repeats=100)


def test_bootstrap_validation():
    target = TargetList({"hi": 5})
    spec = MethodSpec("method0")
    with pytest.raises(InputError, match="100"):
        bootstrap_interval(target, MIXED, spec, repeats=99)
    with pytest.raises(InputError, match="seed"):
        bootstrap_interval(target, MIXED, spec, repeats=100, seed=-1)
    with pytest.raises(InputError, match="integer"):
        bootstrap_interval(TargetList({"hi": 2.5}), MIXED, spec, repeats=100)


@pytest.mark.parametrize("repeats", [150.5, 200.0, True])
def test_bootstrap_rejects_repeats_that_are_not_an_integer(repeats):
    message = rf"^bootstrap repeats must be an integer of at least 100, got {repeats!r}$"
    with pytest.raises(InputError, match=message):
        bootstrap_interval(TargetList({"hi": 5}), MIXED, MethodSpec("method0"), repeats=repeats)


@pytest.mark.parametrize("n_names, seed", [(60, 1), (250, 2), (1000, 3)])
def test_bootstrap_width_matches_the_delta_method(n_names, seed):
    reference = make_benchmark_reference()
    target = sample_roster(reference, n_names, seed)
    assert target.total_individuals >= 500
    spec = MethodSpec("ggem")
    report = spec.run(target, reference)
    assert not report.clamped
    items = [(reference.entries[key].inclination, count) for key, count in target.entries.items()]
    sigma_gamma = bootstrap_sigma_gamma(items, report.composition.gamma)
    repeats = 2000
    interval = bootstrap_interval(target, reference, spec, repeats=repeats, seed=seed)
    assert interval.degenerate == 0
    # beta = (1 + gamma) / 2, so the 2.5/97.5 width on beta is z * sigma_gamma.
    z, p = 1.959963984540054, 0.025
    density = math.exp(-z * z / 2) / math.sqrt(2 * math.pi)
    predicted = z * sigma_gamma
    # Tolerance fixed from theory, not from the observed widths. The sample
    # quantiles of `repeats` draws make the width's relative error about
    # sqrt(2 (p(1-p) - p**2) / repeats) / (2 z density): 2.1% at 2000,
    # allowed four times. Moving one person between names moves gamma by at
    # most (max f - min f) / sum N f**2; the resampled roots lie on that
    # lattice, allowed two steps. Terms of higher order in 1/N are below 0.1%.
    f = [d / (1.0 + d * report.composition.gamma) for d, _ in items]
    step = (max(f) - min(f)) * sigma_gamma**2 / 2  # in beta
    monte_carlo = math.sqrt(2 * (p * (1 - p) - p * p) / repeats) / (2 * z * density)
    tolerance = 4 * monte_carlo + 2 * step / predicted
    width = interval.high - interval.low
    assert abs(width / predicted - 1) <= tolerance, (width, predicted, tolerance)


def test_with_bootstrap_attaches_interval():
    report = estimate_method0(TargetList({"hi": 4}), MIXED)
    assert report.bootstrap_interval is None
    interval = bootstrap_interval(TargetList({"hi": 4}), MIXED, MethodSpec("method0"), repeats=100)
    enriched = with_bootstrap(report, interval)
    assert enriched.bootstrap_interval == interval
    assert enriched.composition == report.composition
    assert enriched.to_dict()["bootstrap"]["repeats"] == 100


# ---------------------------------------------------------------------------
# method specs


def test_method_spec_parsing():
    assert MethodSpec.parse("m0").method == "method0"
    assert MethodSpec.parse("METHOD1:0.7") == MethodSpec("method1", 0.7)
    assert MethodSpec.parse("m2:0.9").label() == "method2:0.9"
    assert MethodSpec.parse("ggem").label() == "ggem"
    assert MethodSpec.parse("m0").label() == "method0"


def test_method_spec_gamma_star_only_applies_to_ggem():
    assert MethodSpec.parse("ggem", gamma_star=0.3).gamma_star == 0.3
    assert MethodSpec.parse("m1:0.5", gamma_star=0.3).gamma_star == 0.0


def test_method_spec_validation():
    with pytest.raises(InputError):
        MethodSpec.parse("m3")
    with pytest.raises(InputError, match="cutoff"):
        MethodSpec.parse("m1:abc")
    with pytest.raises(InputError, match="requires a cutoff"):
        MethodSpec("method1")
    with pytest.raises(InputError, match="no cutoff"):
        MethodSpec("method0", 0.9)
    with pytest.raises(InputError, match="unknown method"):
        MethodSpec("mean")


def test_method_spec_run_dispatch():
    target = TargetList({"hi": 7, "lo": 5})
    assert MethodSpec.parse("m0").run(target, MIXED).method == "method0"
    assert MethodSpec.parse("m1:0.5").run(target, MIXED).cutoff == 0.5
    assert MethodSpec.parse("ggem").run(target, MIXED).method == "ggem"
    with pytest.raises(InputError):
        MethodSpec.parse("m2:0.3").run(target, MIXED)


# ---------------------------------------------------------------------------
# report serialization


def test_report_dict_layout():
    report = estimate_method1(TargetList({"hi": 4, "ghost": 1}), MIXED, 0.6)
    d = report.to_dict()
    assert set(d) == {
        "method", "cutoff", "alpha", "beta", "gamma", "clamped",
        "attributed_female", "attributed_male", "coverage", "bootstrap",
    }
    assert d["method"] == "method1"
    assert d["cutoff"] == 0.6
    assert d["bootstrap"] is None
    assert d["coverage"] == {
        "individuals_total": 5,
        "individuals_matched": 4,
        "individuals_used": 4,
        "unique_names_total": 2,
        "unique_names_matched": 1,
    }


def test_report_json_rounds_to_twelve_digits():
    ref = table({"a": (5, 0), "b": (0, 5)})
    report = estimate_method0(TargetList({"a": 1, "b": 2}), ref)
    text = report.to_json()
    assert '"beta": 0.333333333333' in text
    parsed = json.loads(text)
    assert parsed["gamma"] == pytest.approx(-1.0 / 3.0, abs=1e-12)


def test_report_json_spells_infinite_alpha():
    report = solve_ggem(TargetList({"fa": 2}), POLAR)
    parsed = json.loads(report.to_json())
    assert parsed["alpha"] == "inf"
    assert parsed["beta"] == 1.0
    assert parsed["clamped"] is True


# ---------------------------------------------------------------------------
# real-valued targets


# Irregular counts, so that real weights and their sums round.
REAL_REF = table({
    "ana": (917, 83), "bob": (41, 1203), "cam": (350, 349), "dee": (712, 290),
    "eli": (197, 803), "fay": (460, 0), "gus": (3, 7),
})


def real_targets():
    """An expected-count pipeline target, and a hand-built one in unsorted
    key order with two unmatched names. The hand target's counts sum to
    9.049999999999999 in the order given and to 9.05 in sorted-key order."""
    return {
        "pipeline": apply_pipeline(REAL_REF, PipelineRatio(1.3), mode="expected").to_target(),
        "hand": TargetList({"zed": 0.3, "fay": 0.7, "ana": 0.1, "cam": 1.7, "xeno": 1.3,
                            "bob": 3.1, "dee": 0.45, "eli": 1.05, "gus": 0.35}),
    }


def _flat(d):
    for value in d.values():
        if isinstance(value, dict):
            yield from _flat(value)
        else:
            yield value


# Each report's to_dict() values in layout order.
REAL_REPORTS = {
    ("pipeline", "m0"):
        ("method0", None, 1.1210340208984821, 0.5285318433617607, 0.05706368672352147,
         False, 2528.415026051377, 2255.431127794777, 4783.846153846153, 4783.846153846153,
         4783.846153846153, 7, 7, None),
    ("pipeline", "m1:0.7"):
        ("method1", 0.7, 1.1397786614775023, 0.5326619439650329, 0.06532388793006572, False,
         2218.74186659281, 1946.6427487918054, 4783.846153846153, 4783.846153846153,
         4165.384615384615, 7, 7, None),
    ("pipeline", "m2:0.7"):
        ("method2", 0.7, 1.3339811695603354, 0.5715475287281879, 0.14309505745637585, False,
         2375.923076923077, 1781.0769230769229, 4783.846153846153, 4783.846153846153,
         4157.0, 7, 7, None),
    ("pipeline", "ggem"):
        ("ggem", None, 1.2496634711015693, 0.5554890707673977, 0.11097814153479543, False,
         2657.3742546947246, 2126.4718991514287, 4783.846153846153, 4783.846153846153,
         4783.846153846153, 7, 7, None),
    ("hand", "m0"):
        ("method0", None, 0.46847130605673043, 0.3190197207970724, -0.36196055840585517,
         False, 2.3766969199381895, 5.073303080061811, 9.049999999999999, 7.45, 7.45, 9, 7,
         None),
    ("hand", "m1:0.7"):
        ("method1", 0.7, 0.3611016685857806, 0.26530102557362556, -0.4693979488527489,
         False, 1.5254808970483469, 4.224519102951653, 9.049999999999999, 7.45, 5.75, 9, 7,
         None),
    ("hand", "m2:0.7"):
        ("method2", 0.7, 0.30120481927710835, 0.23148148148148145, -0.5370370370370371,
         False, 1.25, 4.15, 9.049999999999999, 7.45, 5.4, 9, 7, None),
    ("hand", "ggem"):
        ("ggem", None, 0.2198238936672871, 0.180209532546872, -0.639580934906256, False,
         1.3425610174733804, 6.107438982526618, 9.049999999999999, 7.45, 7.45, 9, 7, None),
}

# partial_contributions rows.
REAL_SPLITS = {
    ("pipeline", "method0"):
        [(0.0, 0.1, 0.5007153075822603, 618.4615384615385), (0.1, 0.2, None, 0.0), (0.2, 0.3,
         None, 0.0), (0.3, 0.4, None, 0.0), (0.4, 0.5, 0.7069299965092237, 943.4615384615385),
         (0.5, 0.6, None, 0.0), (0.6, 0.7, 0.197, 814.6923076923076), (0.7, 0.8, None, 0.0),
         (0.8, 0.9, 0.917, 980.8461538461538), (0.9, 1.0, 0.34482305228500787,
         1426.3846153846152)],
    ("pipeline", "ggem"):
        [(0.0, 0.1, 0.5561954563649513, 618.4615384615385), (0.1, 0.2, None, 0.0), (0.2, 0.3,
         None, 0.0), (0.3, 0.4, None, 0.0), (0.4, 0.5, 0.7505844522116212, 943.4615384615385),
         (0.5, 0.6, None, 0.0), (0.6, 0.7, 0.23464308768209113, 814.6923076923076), (0.7, 0.8,
         None, 0.0), (0.8, 0.9, 0.9324621989320425, 980.8461538461538), (0.9, 1.0,
         0.3501701502053702, 1426.3846153846152)],
    ("hand", "method0"):
        [(0.0, 0.1, 0.5007153075822603, 1.7), (0.1, 0.2, None, 0.0), (0.2, 0.3, None, 0.0),
         (0.3, 0.4, None, 0.0), (0.4, 0.5, 0.5309505988023951, 0.8), (0.5, 0.6, None, 0.0),
         (0.6, 0.7, 0.197, 1.05), (0.7, 0.8, None, 0.0), (0.8, 0.9, 0.917, 0.1), (0.9, 1.0,
         0.21109747842274498, 3.8)],
    ("hand", "ggem"):
        [(0.0, 0.1, 0.18063262083450396, 1.7), (0.1, 0.2, None, 0.0), (0.2, 0.3, None, 0.0),
         (0.3, 0.4, None, 0.0), (0.4, 0.5, 0.23483865613046093, 0.8), (0.5, 0.6, None, 0.0),
         (0.6, 0.7, 0.051169839881166454, 1.05), (0.7, 0.8, None, 0.0), (0.8, 0.9,
         0.7083405916481873, 0.1), (0.9, 1.0, 0.19027690687113458, 3.8)],
}


# The individuals fields are added left to right: the total over the counts
# in the order the target was built, the others over matched names in
# sorted-key order.
@pytest.mark.parametrize("label, spec", list(REAL_REPORTS))
def test_real_valued_target_reports_are_pinned(label, spec):
    report = MethodSpec.parse(spec).run(real_targets()[label], REAL_REF)
    assert repr(tuple(_flat(report.to_dict()))) == repr(REAL_REPORTS[label, spec])


@pytest.mark.parametrize("label, method", list(REAL_SPLITS))
def test_real_valued_target_partial_contributions_are_pinned(label, method):
    rows = partial_contributions(real_targets()[label], REAL_REF, method=method)
    assert repr([tuple(row) for row in rows]) == repr(REAL_SPLITS[label, method])
