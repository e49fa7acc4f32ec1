import hashlib
import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gendermix import (
    InputError,
    LabeledPopulation,
    MethodSpec,
    PipelineRatio,
    ReferenceTable,
    SweepConfig,
    abs_error,
    apply_pipeline,
    coverage_stats,
    export_report,
    generate,
    letter_population,
    letter_table,
    rel_error,
    run_sweep,
)
from gendermix._fmt import dump_json
from gendermix.experiments import CSV_COLUMNS, SweepReport, population_seed
from gendermix.reference import MODES
from _synth import baseline_moments, mean_std, sweep_sigma_beta

table = ReferenceTable.from_counts

POLAR = table({"fa": (9, 0), "fb": (3, 0), "ma": (0, 5), "mb": (0, 7)})


# ---------------------------------------------------------------------------
# error measures


def test_abs_error_is_signed():
    assert abs_error(0.3, 0.25) == pytest.approx(0.05, abs=1e-15)
    assert abs_error(0.2, 0.25) == pytest.approx(-0.05, abs=1e-15)


def test_rel_error_minority_share():
    assert rel_error(0.057, 0.040) == pytest.approx(42.5, abs=1e-6)
    # Works from the other side of parity: minority is 1 - beta there.
    assert rel_error(0.95, 0.96) == pytest.approx(25.0, abs=1e-6)
    assert rel_error(0.5, 0.5) == 0.0


def test_rel_error_undefined_at_single_gender_truth():
    assert math.isnan(rel_error(0.3, 0.0))
    assert math.isnan(rel_error(0.3, 1.0))


def test_rel_error_validation():
    with pytest.raises(InputError):
        rel_error(1.2, 0.5)
    with pytest.raises(InputError):
        rel_error(0.5, -0.1)
    with pytest.raises(InputError):
        rel_error(math.nan, 0.5)


@given(st.floats(0.001, 0.999))
def test_rel_error_zero_on_perfect_estimate(beta0):
    assert rel_error(beta0, beta0) == 0.0


# ---------------------------------------------------------------------------
# coverage


def test_coverage_fractions():
    pop = LabeledPopulation(
        {"a": (1, 0), "b": (0, 2), "c": (2, 0), "d": (0, 1)}, 0.5, 0, "natural"
    )
    ref = table({"a": (5, 5), "b": (5, 5)})
    cov = coverage_stats(pop, ref)
    assert cov.names_frac == 0.5
    assert cov.individuals_frac == 0.5
    assert cov.female_frac == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert cov.male_frac == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_coverage_complete_match():
    pop = LabeledPopulation({"fa": (4, 0), "ma": (0, 4)}, 0.5, 0, "natural")
    cov = coverage_stats(pop, POLAR)
    assert (cov.names_frac, cov.individuals_frac) == (1.0, 1.0)
    assert (cov.female_frac, cov.male_frac) == (1.0, 1.0)


def test_coverage_single_gender_population():
    pop = LabeledPopulation({"ma": (0, 9)}, 0.0, 0, "natural")
    cov = coverage_stats(pop, POLAR)
    assert math.isnan(cov.female_frac)
    assert cov.male_frac == 1.0


def test_coverage_of_counts_totalling_past_2_63():
    # Each name stays below 2**53, but the female total, about 1.35e19,
    # would wrap in an int64 sum.
    entries = {f"f{i:04d}": (2**52, 0) for i in range(3000)}
    entries["m"] = (0, 2**52)
    pop = LabeledPopulation(entries, 3000 / 3001, 0, "natural")
    ref = table({f"f{i:04d}": (1, 1) for i in range(1500)})
    cov = coverage_stats(pop, ref)
    for frac in (cov.names_frac, cov.individuals_frac, cov.female_frac, cov.male_frac):
        assert 0.0 <= frac <= 1.0
    assert (cov.individuals_frac, cov.female_frac, cov.male_frac) == (1500 / 3001, 0.5, 0.0)
    assert pop.total_individuals == 3001 * 2**52


# Keys are not given in sorted order. "'ana" has no initial letter and
# "jo2" no last letter; "abe" and "dan" bear only males.
_PIN_BUILD = {
    "zoe": (12, 0), "cal": (5, 60), "ana": (90, 0), "dan": (0, 80), "eve": (7, 7),
    "abe": (0, 1), "bea": (40, 3), "o'neil": (2, 30), "jo2": (9, 11), "ivy": (25, 4),
    "max": (3, 41), "'ana": (6, 1), "kim": (13, 9),
}
# Misses six build names and knows one ("xan") the build table does not.
_PIN_PARTIAL = {
    "zoe": (10, 1), "cal": (5, 60), "dan": (1, 80), "eve": (7, 7), "bea": (40, 3),
    "ivy": (25, 4), "kim": (13, 9), "xan": (4, 4),
}

# repr of coverage_stats on real-valued counts, whose float sums depend on
# their order (sorted-key, left to right), and on a letter population built
# by hand in reverse key order.
_COVERAGE_PINS = {
    "expected": "Coverage(names_frac=0.5384615384615384, individuals_frac=0.6168264503441495, "
                "female_frac=0.48113207547169823, male_frac=0.659919028340081)",
    "last-letter": "Coverage(names_frac=0.8571428571428571, individuals_frac=0.9054545454545454, "
                   "female_frac=1.0, male_frac=0.8461538461538461)",
}


def _coverage_case(name: str):
    if name == "expected":
        pop = apply_pipeline(table(_PIN_BUILD), PipelineRatio(0.37), "expected")
        assert isinstance(next(iter(pop.entries.values()))[0], float)
        return coverage_stats(pop, table(_PIN_PARTIAL))
    letters = letter_population(generate(table(_PIN_BUILD), 0.4, 300, seed=5), "last")
    pop = LabeledPopulation(dict(reversed(list(letters.entries.items()))), letters.beta_true, 5, "natural")
    assert list(pop.entries) == list(letters.entries) == sorted(letters.entries)
    return coverage_stats(pop, letter_table(table(_PIN_PARTIAL), "last"))


@pytest.mark.parametrize("name", sorted(_COVERAGE_PINS))
def test_coverage_pins(name):
    assert repr(_coverage_case(name)) == _COVERAGE_PINS[name]


# ---------------------------------------------------------------------------
# sweep configuration


def test_sweep_config_validation():
    ok = dict(build_reference=POLAR, beta0_grid=(0.5,), methods=(MethodSpec("method0"),))
    SweepConfig(**ok)
    with pytest.raises(InputError):
        SweepConfig(**{**ok, "beta0_grid": ()})
    with pytest.raises(InputError):
        SweepConfig(**{**ok, "beta0_grid": (1.5,)})
    with pytest.raises(InputError):
        SweepConfig(**{**ok, "repeats": 0})
    with pytest.raises(InputError):
        SweepConfig(**{**ok, "population_size": 0})
    with pytest.raises(InputError):
        SweepConfig(**{**ok, "sampling": "stratified"})
    with pytest.raises(InputError):
        SweepConfig(**{**ok, "mode": "surname"})
    with pytest.raises(InputError):
        SweepConfig(**{**ok, "seed": -1})
    with pytest.raises(InputError):
        SweepConfig(**{**ok, "build_reference": None})


@pytest.mark.parametrize("field, value", [
    ("repeats", 2.5), ("repeats", True), ("repeats", "3"),
    ("population_size", 50.0), ("population_size", True), ("seed", True), ("seed", 1.0),
])
def test_sweep_config_rejects_non_integer_sizes(field, value):
    ok = dict(build_reference=POLAR, beta0_grid=(0.5,), methods=(MethodSpec("method0"),))
    with pytest.raises(InputError, match="integer"):
        SweepConfig(**{**ok, field: value})


def test_sweep_population_size_stays_below_2_53():
    ok = dict(build_reference=POLAR, beta0_grid=(0.5,), methods=(MethodSpec("method0"),))
    for size in (2**53, 2**54):
        with pytest.raises(InputError, match="population size must be below 2\\*\\*53"):
            SweepConfig(**{**ok, "population_size": size})


def test_sweep_needs_at_least_one_method():
    with pytest.raises(InputError, match="^sweep needs at least one method$"):
        run_sweep(SweepConfig(build_reference=POLAR, beta0_grid=(0.5,), methods=()))


def test_sweep_config_analyze_defaults_to_build():
    config = SweepConfig(build_reference=POLAR, beta0_grid=(0.5,))
    assert config.resolved_analyze_reference is POLAR
    other = table({"x": (1, 1)})
    config = SweepConfig(build_reference=POLAR, analyze_reference=other, beta0_grid=(0.5,))
    assert config.resolved_analyze_reference is other


def test_sweep_config_rejects_an_analyze_table_of_another_mode():
    initial = letter_table(POLAR, "initial")
    with pytest.raises(InputError, match="^analyze table is in initial-letter mode but the build table is in "
                                         "full-name mode$"):
        SweepConfig(build_reference=POLAR, analyze_reference=initial, beta0_grid=(0.5,))
    # A letter-mode sweep builds its own letter table from the analyze table.
    config = SweepConfig(build_reference=POLAR, analyze_reference=initial, beta0_grid=(0.5,),
                         methods=(MethodSpec("method0"),), mode="initial-letter")
    with pytest.raises(InputError, match="^letter tables can only be built from a full-name table$"):
        run_sweep(config)


def test_population_seed_is_pure_and_distinct():
    assert population_seed(7, 3, 11) == population_seed(7, 3, 11)
    seeds = {population_seed(0, g, r) for g in range(4) for r in range(50)}
    assert len(seeds) == 200


# ---------------------------------------------------------------------------
# running sweeps


def sweep(**overrides) -> SweepConfig:
    base = dict(
        build_reference=POLAR,
        methods=(MethodSpec("method0"), MethodSpec("ggem")),
        beta0_grid=(0.25,),
        repeats=4,
        population_size=8,
        seed=0,
    )
    base.update(overrides)
    return SweepConfig(**base)


def test_sweep_on_fully_gendered_names_is_exact():
    # Every draw lands 2 females and 6 males on unambiguous names, so
    # method0 recovers beta_true with no error at all in every repeat.
    report = run_sweep(sweep())
    by_method = {cell.method: cell for cell in report.cells}
    m0 = by_method["method0"]
    assert m0.mean_beta == 0.25
    assert m0.sigma_beta == 0.0
    assert m0.abs_error == 0.0
    assert m0.rel_error_pct == 0.0
    assert m0.failures == 0
    assert m0.names_matched_frac == 1.0
    assert m0.individuals_matched_frac == 1.0
    ggem = by_method["ggem"]
    assert ggem.mean_beta == pytest.approx(0.25, abs=1e-9)
    assert ggem.failures == 0


def test_sweep_cells_are_grid_major_and_indexed():
    report = run_sweep(sweep(beta0_grid=(0.1, 0.9)))
    assert [cell.grid_index for cell in report.cells] == [0, 0, 1, 1]
    assert [cell.beta0 for cell in report.cells] == [0.1, 0.1, 0.9, 0.9]
    assert [cell.method for cell in report.cells] == ["method0", "ggem"] * 2


def test_sweep_counts_failures():
    # The analyze table knows only weak names, so a strict hard-assignment
    # cutoff excludes everything in every repeat.
    weak = table({"fa": (6, 4), "fb": (6, 4), "ma": (4, 6), "mb": (4, 6)})
    config = sweep(
        analyze_reference=weak,
        methods=(MethodSpec("method2", 0.9), MethodSpec("method0")),
        repeats=3,
    )
    report = run_sweep(config)
    m2, m0 = report.cells
    assert m2.failures == 3
    assert math.isnan(m2.mean_beta)
    assert math.isnan(m2.rel_error_pct)
    assert m0.failures == 0


def test_sweep_cell_can_be_reproduced_in_isolation(balanced_reference):
    config = SweepConfig(
        build_reference=balanced_reference,
        methods=(MethodSpec("method0"),),
        beta0_grid=(0.3,),
        repeats=3,
        population_size=400,
        seed=12,
    )
    report = run_sweep(config)
    cell = report.cells[0]

    betas = []
    for repeat in range(3):
        seed = population_seed(12, 0, repeat)
        pop = generate(balanced_reference, 0.3, 400, "natural", seed)
        betas.append(MethodSpec("method0").run(pop.to_target(), balanced_reference).composition.beta)
    mean, sigma = mean_std(betas)
    assert cell.mean_beta == pytest.approx(mean, rel=1e-12)
    assert cell.sigma_beta == pytest.approx(sigma, rel=1e-9)


def test_sweep_single_repeat_matches_direct_run(balanced_reference):
    config = SweepConfig(
        build_reference=balanced_reference,
        methods=(MethodSpec("ggem"),),
        beta0_grid=(0.6,),
        repeats=1,
        population_size=300,
        seed=5,
    )
    cell = run_sweep(config).cells[0]
    pop = generate(balanced_reference, 0.6, 300, "natural", population_seed(5, 0, 0))
    direct = MethodSpec("ggem").run(pop.to_target(), balanced_reference)
    assert cell.mean_beta == direct.composition.beta
    assert cell.sigma_beta == 0.0


def test_sweep_builds_its_pools_once_and_pools_no_counts_while_drawing(balanced_reference, monkeypatch):
    import gendermix.experiments as experiments
    import gendermix.simulator as simulator

    calls = {}
    for module, name in ((experiments, "_pools"), (simulator, "_bucket_sums")):
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    for mode, projected in (("full-name", 0), ("initial-letter", 2 * 2 * 3)):
        calls.update(_pools=0, _bucket_sums=0)
        config = SweepConfig(balanced_reference, methods=(MethodSpec("ggem"),), beta0_grid=(0.2, 0.7),
                             repeats=3, population_size=500, mode=mode)
        assert run_sweep(config).cells[0].failures == 0
        # Only the letter projection pools counts, both columns of each of the 6 cells.
        assert calls == {"_pools": 1, "_bucket_sums": projected}


def test_sweep_matches_each_cell_once(balanced_reference, monkeypatch):
    calls = 0
    rows_of = ReferenceTable.rows_of

    def counted(self, keys):
        nonlocal calls
        calls += 1
        return rows_of(self, keys)

    monkeypatch.setattr(ReferenceTable, "rows_of", counted)
    methods = (MethodSpec("ggem"), MethodSpec("method1", 0.5), MethodSpec("method2", 0.9))
    config = SweepConfig(balanced_reference, methods=methods, beta0_grid=(0.2, 0.7), repeats=3,
                         population_size=500)
    assert [cell.failures for cell in run_sweep(config).cells] == [0] * 6
    assert calls == 2 * 3


def test_letter_sweep_counts_a_population_without_letters_as_failures():
    # "'ana" has no initial letter: a one-person population of it projects
    # onto no bucket at all.
    ref = table({"'ana": (50, 50), "bob": (1, 99)})
    config = SweepConfig(ref, methods=(MethodSpec("method0"),), beta0_grid=(0.0,), repeats=20,
                         population_size=1, mode="initial-letter")
    (cell,) = run_sweep(config).cells
    lost = sum("'ana" in generate(ref, 0.0, 1, seed=population_seed(0, 0, r)).entries for r in range(20))
    assert 0 < lost < 20
    assert cell.failures == lost
    assert cell.mean_beta == pytest.approx(0.01, rel=1e-12)  # every other repeat is one "bob"
    assert math.isnan(cell.names_matched_frac)  # a lost repeat covers 0 names of 0


def test_sweep_letter_mode(balanced_reference):
    config = SweepConfig(
        build_reference=balanced_reference,
        methods=(MethodSpec("method0"),),
        beta0_grid=(0.5,),
        repeats=2,
        population_size=500,
        seed=2,
        mode="initial-letter",
    )
    report = run_sweep(config)
    cell = report.cells[0]
    assert cell.failures == 0
    assert cell.names_matched_frac == 1.0
    assert 0.0 <= cell.mean_beta <= 1.0
    assert report.provenance["mode"] == "initial-letter"


def test_sweep_noise_shrinks_with_population_size(balanced_reference):
    small = run_sweep(
        SweepConfig(
            build_reference=balanced_reference,
            methods=(MethodSpec("method0"),),
            beta0_grid=(0.3,),
            repeats=64,
            population_size=200,
            seed=1,
        )
    ).cells[0]
    big = run_sweep(
        SweepConfig(
            build_reference=balanced_reference,
            methods=(MethodSpec("method0"),),
            beta0_grid=(0.3,),
            repeats=64,
            population_size=3200,
            seed=1,
        )
    ).cells[0]
    assert big.sigma_beta < small.sigma_beta


def test_sweep_fractional_methods_inflate_small_minorities(benchmark_reference):
    config = SweepConfig(
        build_reference=benchmark_reference,
        methods=(MethodSpec("method1", 0.5), MethodSpec("ggem")),
        beta0_grid=(0.04,),
        repeats=8,
        population_size=2000,
        seed=0,
    )
    report = run_sweep(config)
    m1, ggem = report.cells
    assert m1.mean_beta > 0.05  # ambiguous names push the minority share up
    assert abs(ggem.mean_beta - 0.04) < 0.01


def test_sweep_spread_matches_first_order_theory(benchmark_reference):
    # Nothing else gates sigma_beta: a draw or solver change that widened
    # the spread would leave every mean-based check green. method0 rides on
    # the same populations: its bias, the paper's central claim, is gated
    # against exact moments.
    repeats, size = 400, 10_000
    grid = (0.02, 0.1, 0.3, 0.5, 0.8, 0.98)
    config = SweepConfig(benchmark_reference, methods=(MethodSpec("ggem"), MethodSpec("method0")),
                         beta0_grid=grid, repeats=repeats, population_size=size, seed=0)
    cells = run_sweep(config).cells
    # Four relative standard errors of a sample s.d. from `repeats` normal draws.
    spread_tolerance = 4.0 / math.sqrt(2.0 * (repeats - 1))
    for beta0, cell, baseline in zip(grid, cells[0::2], cells[1::2]):
        n_female = math.floor(beta0 * size + 0.5)
        sigma, allowance = sweep_sigma_beta(benchmark_reference, n_female, size - n_female)
        # Plus the first-order terms the theory neglects.
        tolerance = spread_tolerance + allowance
        assert cell.failures == 0
        assert abs(cell.sigma_beta / sigma - 1.0) <= tolerance, (beta0, cell.sigma_beta / sigma, tolerance)
        # method0's moments are exact: four standard errors of the mean and
        # of the sample s.d., nothing more.
        mean, sigma = baseline_moments(benchmark_reference, n_female, size - n_female)
        assert (baseline.method, baseline.failures) == ("method0", 0)
        assert abs(baseline.mean_beta - mean) <= 4.0 * sigma / math.sqrt(repeats), (beta0, baseline.mean_beta)
        assert abs(baseline.sigma_beta / sigma - 1.0) <= spread_tolerance, (beta0, baseline.sigma_beta / sigma)


_PIN_METHODS = (MethodSpec("method0"), MethodSpec("method1", 0.7), MethodSpec("method2", 0.9), MethodSpec("ggem"))


def _pin_sweep(name: str) -> SweepConfig:
    base = dict(build_reference=table(_PIN_BUILD), methods=_PIN_METHODS, beta0_grid=(0.0, 0.05, 0.5, 0.95, 1.0),
                repeats=6, population_size=50, seed=11)
    if name == "partial-analyze":  # coverage below 1
        return SweepConfig(**{**base, "analyze_reference": table(_PIN_PARTIAL),
                              "methods": _PIN_METHODS + (MethodSpec("ggem", gamma_star=0.2),)})
    if name == "no-match-at-one":  # at beta0 = 1 only female-bearing names are drawn
        return SweepConfig(**{**base, "analyze_reference": table({"dan": (3, 80), "abe": (1, 5)}),
                              "beta0_grid": (0.3, 1.0)})
    if name == "no-name-passes":  # no analyze name reaches p = 0.65
        weak = table({key: (6, 4) if f >= m else (4, 6) for key, (f, m) in _PIN_BUILD.items()})
        methods = (MethodSpec("method1", 0.65), MethodSpec("method2", 0.65), MethodSpec("method0"))
        return SweepConfig(**{**base, "analyze_reference": weak, "methods": methods})
    mode, sampling = name.split("/")
    return SweepConfig(**{**base, "mode": mode, "sampling": sampling})


# sha256 of the JSON report plus the repr of every cell, first 16 hex digits.
_SWEEP_PINS = {
    "full-name/natural": "e5acc755fe4e1b85",
    "full-name/uniform": "f287fa82c77ada72",
    "initial-letter/natural": "a7f3c38517d7cf87",
    "initial-letter/uniform": "4df949e044fa4eab",
    "last-letter/natural": "805ee8f910bf8d7e",
    "last-letter/uniform": "33518804aa02c919",
    "no-match-at-one": "314ce0db6d85e3de",
    "no-name-passes": "fd800ef9d7db2e65",
    "partial-analyze": "cf4fd4216dbec71d",
}


def _sweep_digest(name: str) -> str:
    report = run_sweep(_pin_sweep(name))
    return hashlib.sha256((dump_json(report.to_dict()) + repr(report.cells)).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(_SWEEP_PINS))
def test_sweep_pins(name):
    assert _sweep_digest(name) == _SWEEP_PINS[name]


def test_sweep_pins_cover_every_mode_and_sampling():
    assert {name for name in _SWEEP_PINS if "/" in name} == {
        f"{mode}/{sampling}" for mode in MODES for sampling in ("natural", "uniform")
    }


def test_sweep_provenance():
    report = run_sweep(sweep(seed=9))
    prov = report.provenance
    assert prov["generator"] == "numpy-default-rng-pcg64"
    assert prov["seed"] == 9
    assert prov["seed_derivation"] == "seedsequence(seed, grid_index, repeat)"
    assert prov["methods"] == ["method0", "ggem"]
    assert prov["beta0_grid"] == [0.25]
    assert prov["repeats"] == 4


# ---------------------------------------------------------------------------
# report export


def test_export_csv_layout(tmp_path):
    report = run_sweep(sweep())
    path = tmp_path / "sweep.csv"
    export_report(report, "csv", path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    first = lines[1].split(",")
    assert len(first) == len(CSV_COLUMNS)
    assert first[0] == "0.25"
    assert first[1] == "method0"
    assert first[2] == ""  # no cutoff


def test_export_csv_renders_nan(tmp_path):
    weak = table({"fa": (6, 4), "fb": (6, 4), "ma": (4, 6), "mb": (4, 6)})
    report = run_sweep(sweep(analyze_reference=weak, methods=(MethodSpec("method2", 0.9),)))
    path = tmp_path / "sweep.csv"
    export_report(report, "csv", path)
    row = path.read_text(encoding="utf-8").splitlines()[1].split(",")
    assert row[CSV_COLUMNS.index("mean_beta")] == "nan"
    assert row[CSV_COLUMNS.index("cutoff")] == "0.9"
    assert row[CSV_COLUMNS.index("failures")] == "4"


def test_export_empty_report_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    export_report(SweepReport(cells=()), "csv", path)
    assert path.read_text(encoding="utf-8") == ",".join(CSV_COLUMNS) + "\n"


def test_export_json_round_trip(tmp_path):
    report = run_sweep(sweep())
    path = tmp_path / "sweep.json"
    export_report(report, "json", path)
    parsed = json.loads(path.read_text(encoding="utf-8"))
    assert parsed["provenance"]["seed"] == 0
    assert len(parsed["cells"]) == 2
    assert parsed["cells"][0]["mean_beta"] == 0.25
    assert set(parsed["cells"][0]) == set(CSV_COLUMNS)


def test_export_json_renders_nan_as_null(tmp_path):
    weak = table({"fa": (6, 4), "fb": (6, 4), "ma": (4, 6), "mb": (4, 6)})
    report = run_sweep(sweep(analyze_reference=weak, methods=(MethodSpec("method2", 0.9),)))
    path = tmp_path / "sweep.json"
    export_report(report, "json", path)
    parsed = json.loads(path.read_text(encoding="utf-8"))
    assert parsed["cells"][0]["mean_beta"] is None


def test_export_is_byte_deterministic(tmp_path):
    for fmt in ("csv", "json"):
        a = tmp_path / f"a.{fmt}"
        b = tmp_path / f"b.{fmt}"
        export_report(run_sweep(sweep()), fmt, a)
        export_report(run_sweep(sweep()), fmt, b)
        assert a.read_bytes() == b.read_bytes()


def test_export_unknown_format(tmp_path):
    with pytest.raises(InputError, match="format"):
        export_report(SweepReport(cells=()), "parquet", tmp_path / "x")
