import hashlib
import math
import pickle
import tempfile
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gendermix import (
    EstimationError,
    InputError,
    LabeledPopulation,
    PipelineRatio,
    ReferenceTable,
    apply_pipeline,
    coverage_stats,
    default_beta0_grid,
    generate,
    letter_population,
    export_population,
    solve_ggem,
)
from gendermix.simulator import _beta_of, _true_columns

table = ReferenceTable.from_counts


# ---------------------------------------------------------------------------
# population container


def test_population_properties():
    pop = LabeledPopulation({"a": (2, 0), "b": (1, 1)}, 0.75, 0, "natural")
    assert pop.gamma_true == 0.5
    assert pop.total_individuals == 4
    assert pop.to_target().entries == {"a": 2, "b": 2}


def test_population_validation():
    with pytest.raises(InputError, match="empty"):
        LabeledPopulation({}, 0.5, 0, "natural")
    with pytest.raises(InputError, match="beta_true"):
        LabeledPopulation({"a": (1, 1)}, 0.75, 0, "natural")
    with pytest.raises(InputError, match="true counts"):
        LabeledPopulation({"a": (-1, 2)}, 0.5, 0, "natural")
    with pytest.raises(InputError, match="true counts"):
        LabeledPopulation({"a": (1, 1), "b": (0, 0)}, 0.5, 0, "natural")
    # Each count follows TargetList's rule, and the error names the key.
    for counts in ((True, False), ("3", 1), (math.nan, 1), (1, math.inf), (2**53, 0), (2**52, 2**52)):
        with pytest.raises(InputError, match="'a'"):
            LabeledPopulation({"b": (1, 1), "a": counts}, 0.5, 0, "natural")
    # Counts are checked in the given order, before the keys are sorted.
    with pytest.raises(InputError, match="'b'"):
        LabeledPopulation({"b": (-1, 1), "a": (-1, 1)}, 0.5, 0, "natural")
    pop = LabeledPopulation({"b": (1, 2), "a": (2, 0)}, 0.6, 0, "natural")
    with pytest.raises(TypeError):
        pop.entries["c"] = (5, 5)
    assert pop.total_individuals == 5 and "c" not in pop.entries


# ---------------------------------------------------------------------------
# generate


def test_generate_extreme_compositions(balanced_reference):
    males_only = generate(balanced_reference, 0.0, 500, seed=3)
    assert males_only.beta_true == 0.0
    assert all(f == 0 for f, _ in males_only.entries.values())

    females_only = generate(balanced_reference, 1.0, 500, seed=3)
    assert females_only.beta_true == 1.0
    assert all(m == 0 for _, m in females_only.entries.values())


def test_generate_realizes_female_count_exactly(balanced_reference):
    pop = generate(balanced_reference, 0.04, 10_000, seed=1)
    assert sum(f for f, _ in pop.entries.values()) == 400
    assert pop.total_individuals == 10_000
    assert pop.beta_true == 0.04


def test_generate_rounds_half_up(balanced_reference):
    assert generate(balanced_reference, 0.5, 5, seed=0).beta_true == 0.6
    assert generate(balanced_reference, 0.25, 2, seed=0).beta_true == 0.5
    assert generate(balanced_reference, 0.1, 25, seed=0).beta_true == 3 / 25


def test_generate_is_deterministic(balanced_reference):
    a = generate(balanced_reference, 0.3, 2000, seed=42)
    b = generate(balanced_reference, 0.3, 2000, seed=42)
    assert a.entries == b.entries
    c = generate(balanced_reference, 0.3, 2000, seed=43)
    assert a.entries != c.entries


def test_generate_uniform_sampling_flattens_name_use(balanced_reference):
    # Natural sampling concentrates on heavy names; uniform touches every
    # female-bearing name with near-equal expected counts.
    natural = generate(balanced_reference, 1.0, 40_000, sampling="natural", seed=5)
    uniform = generate(balanced_reference, 1.0, 40_000, sampling="uniform", seed=5)
    female_bearing = sum(
        1 for c in balanced_reference.entries.values() if c.female > 0
    )
    assert len(uniform.entries) == female_bearing
    spread_nat = max(f for f, _ in natural.entries.values()) / 40_000
    spread_uni = max(f for f, _ in uniform.entries.values()) / 40_000
    assert spread_uni < spread_nat


def test_generate_validation(balanced_reference):
    with pytest.raises(InputError):
        generate(balanced_reference, 1.5, 10)
    with pytest.raises(InputError):
        generate(balanced_reference, math.nan, 10)
    with pytest.raises(InputError):
        generate(balanced_reference, 0.5, 0)
    with pytest.raises(InputError):
        generate(balanced_reference, 0.5, 10.0)
    with pytest.raises(InputError):
        generate(balanced_reference, 0.5, 10, sampling="heavy")
    with pytest.raises(InputError):
        generate(balanced_reference, 0.5, 10, seed=-1)


@pytest.mark.parametrize("size", [True, 0.5, 3.0])
def test_generate_rejects_a_size_that_is_not_an_integer(balanced_reference, size):
    with pytest.raises(InputError, match=rf"^size must be a positive integer, got {size!r}$"):
        generate(balanced_reference, 0.5, size)


def test_generate_size_stays_below_2_53(balanced_reference):
    for size in (2**53, 2**54):
        with pytest.raises(InputError, match="size must be below 2\\*\\*53"):
            generate(balanced_reference, 0.5, size)


def test_generate_needs_a_pool_for_each_requested_gender():
    males = table({"bob": (0, 10), "tom": (0, 5)})
    with pytest.raises(InputError, match="female-bearing"):
        generate(males, 0.5, 10)
    assert generate(males, 0.0, 10).beta_true == 0.0


# The pools differ from their union: "ana" and "zoe" bear only females,
# "abe" and "dan" only males. Keys are not given in sorted order.
_PIN_REFERENCE = {
    "zoe": (12, 0), "cal": (5, 60), "ana": (90, 0), "dan": (0, 80),
    "eve": (7, 7), "abe": (0, 1), "bea": (40, 3),
}

# sha256 of repr(sorted(entries.items())) + repr(beta_true), first 16 hex
# digits, keyed by (beta0, size, sampling, seed).
_GENERATE_PINS = {
    (0.0, 1, "natural", 3): "70afbcb7bd0379ba",
    (0.0, 1, "natural", 2**40 + 7): "733ac93530755c6e",
    (0.0, 1, "uniform", 3): "70afbcb7bd0379ba",
    (0.0, 1, "uniform", 2**40 + 7): "079859e6ff427357",
    (0.0, 10000, "natural", 3): "408fb70c986cefe2",
    (0.0, 10000, "natural", 2**40 + 7): "62643219d12839d1",
    (0.0, 10000, "uniform", 3): "9c09e69eebb49a2f",
    (0.0, 10000, "uniform", 2**40 + 7): "1ac0ec6963e0362a",
    (0.04, 1, "natural", 3): "70afbcb7bd0379ba",
    (0.04, 1, "natural", 2**40 + 7): "733ac93530755c6e",
    (0.04, 1, "uniform", 3): "70afbcb7bd0379ba",
    (0.04, 1, "uniform", 2**40 + 7): "079859e6ff427357",
    (0.04, 10000, "natural", 3): "0535c0b1fdc57317",
    (0.04, 10000, "natural", 2**40 + 7): "dd64db396990c87b",
    (0.04, 10000, "uniform", 3): "26646d324907d4e5",
    (0.04, 10000, "uniform", 2**40 + 7): "09e55e7a53a8dd2a",
    (0.5, 1, "natural", 3): "697806678f5cf3a9",
    (0.5, 1, "natural", 2**40 + 7): "686cd4a536930d14",
    (0.5, 1, "uniform", 3): "bfb35da64a06b6ee",
    (0.5, 1, "uniform", 2**40 + 7): "697806678f5cf3a9",
    (0.5, 10000, "natural", 3): "c4694bf7f03489c9",
    (0.5, 10000, "natural", 2**40 + 7): "22ca23e65f2a42d2",
    (0.5, 10000, "uniform", 3): "c2a5451216144701",
    (0.5, 10000, "uniform", 2**40 + 7): "b54a6ec2e9f306cd",
    (1.0, 1, "natural", 3): "697806678f5cf3a9",
    (1.0, 1, "natural", 2**40 + 7): "686cd4a536930d14",
    (1.0, 1, "uniform", 3): "bfb35da64a06b6ee",
    (1.0, 1, "uniform", 2**40 + 7): "697806678f5cf3a9",
    (1.0, 10000, "natural", 3): "8be9736e0962edcf",
    (1.0, 10000, "natural", 2**40 + 7): "0b7aecdeaade291c",
    (1.0, 10000, "uniform", 3): "d525d1550188f1b7",
    (1.0, 10000, "uniform", 2**40 + 7): "632287fec95004b7",
}


@pytest.mark.parametrize(("beta0", "size", "sampling", "seed"), sorted(_GENERATE_PINS))
def test_generate_pins_populations(beta0, size, sampling, seed):
    pop = generate(table(_PIN_REFERENCE), beta0, size, sampling, seed)
    text = repr(sorted(pop.entries.items())) + repr(pop.beta_true)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == _GENERATE_PINS[beta0, size, sampling, seed]


def test_generate_entries_iterate_in_sorted_key_order():
    pop = generate(table(_PIN_REFERENCE), 0.5, 10_000, seed=3)
    assert list(pop.entries) == sorted(_PIN_REFERENCE)
    assert all(type(f) is int and type(m) is int for f, m in pop.entries.values())
    assert pop.beta_true == 0.5 and pop.total_individuals == 10_000


# Adds to _PIN_REFERENCE a name with no initial letter ("'ivy"), one with
# no last letter ("jo2") and one whose initial folds to a letter ("émile").
_PIN_LETTER_REFERENCE = {**_PIN_REFERENCE, "'ivy": (6, 1), "jo2": (9, 11), "émile": (3, 20)}


def _pin_digest(pop) -> str:
    """sha256 of repr(list(entries.items())) + repr(beta_true), first 16
    hex digits: the entries' order and number types count."""
    text = repr(list(pop.entries.items())) + repr(pop.beta_true)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _pin_population(source: str):
    ref = table(_PIN_LETTER_REFERENCE)
    if source == "drawn":
        return generate(ref, 0.4, 500, seed=5)
    return apply_pipeline(ref, PipelineRatio(0.37), source, seed=11)


# _pin_digest of apply_pipeline, keyed by (mode, eta).
_PIPELINE_PINS = {
    ("expected", 0.37): "401b7b2298183799",
    ("expected", 2.5): "a5185d5b013f1ba7",
    ("sampled", 0.37): "31ad72ffc4f056ae",
    ("sampled", 2.5): "0ee6224d19d2cb73",
}


@pytest.mark.parametrize(("mode", "eta"), sorted(_PIPELINE_PINS))
def test_pipeline_pins_populations(mode, eta):
    pop = apply_pipeline(table(_PIN_LETTER_REFERENCE), PipelineRatio(eta), mode, seed=11)
    assert _pin_digest(pop) == _PIPELINE_PINS[mode, eta]


# _pin_digest of letter_population, keyed by (position, source population):
# real-valued bucket sums depend on their order (sorted-key, left to right).
_LETTER_PINS = {
    ("initial", "drawn"): "554e39c6504707ff",
    ("initial", "expected"): "6e5cb83d02e59811",
    ("initial", "sampled"): "cf1ec327166e6c3b",
    ("last", "drawn"): "b43f7ace1b8bf596",
    ("last", "expected"): "14642bab0c7c321a",
    ("last", "sampled"): "32c5cf82cab8f867",
}


@pytest.mark.parametrize(("position", "source"), sorted(_LETTER_PINS))
def test_letter_population_pins(position, source):
    assert _pin_digest(letter_population(_pin_population(source), position)) == _LETTER_PINS[position, source]


def test_population_is_a_frozen_value():
    pop = LabeledPopulation({"b": (1, 2), "a": (2, 0)}, 0.6, 0, "natural")
    assert pop == LabeledPopulation({"a": (2, 0), "b": (1, 2)}, 0.6, 0, "natural")
    assert pop != LabeledPopulation({"a": (2, 0), "b": (1, 2)}, 0.6, 1, "natural")
    assert pop != LabeledPopulation({"a": (2, 0), "b": (2, 1)}, 0.8, 0, "natural")
    again = pickle.loads(pickle.dumps(pop))
    assert again == pop and again is not pop
    assert list(again.entries.items()) == [("a", (2, 0)), ("b", (1, 2))]
    for field in ("entries", "beta_true", "seed", "sampling"):
        with pytest.raises(FrozenInstanceError):
            setattr(pop, field, None)
    with pytest.raises(TypeError):
        hash(pop)


def test_population_entries_keep_their_order_and_number_types():
    hand = LabeledPopulation({"b": (1, 2), "a": (2, 0)}, 0.6, 0, "natural")
    assert list(hand.entries) == ["a", "b"]
    drawn, expected, sampled = map(_pin_population, ("drawn", "expected", "sampled"))
    for pop in (drawn, expected, sampled):
        assert list(pop.entries) == sorted(pop.entries)
    letters = letter_population(drawn, "last")
    first_seen = dict.fromkeys(key[-1] for key in sorted(drawn.entries) if key[-1].isalpha())
    assert list(letters.entries) == sorted(first_seen) != list(first_seen)
    for pop, kind in ((drawn, int), (sampled, int), (letters, int), (expected, float)):
        assert all(type(f) is kind and type(m) is kind for f, m in pop.entries.values())


@given(
    st.floats(0.0, 1.0),
    st.integers(1, 3000),
    st.sampled_from(["natural", "uniform"]),
    st.integers(0, 2**64 - 1),
    st.floats(0.05, 20.0),
)
def test_every_population_has_sorted_keys(beta0, size, sampling, seed, eta):
    ref = table(_PIN_LETTER_REFERENCE)
    made = [generate(ref, beta0, size, sampling, seed)]
    made += [apply_pipeline(ref, PipelineRatio(eta), mode, seed) for mode in ("expected", "sampled")]
    made += [letter_population(pop, position) for pop in made for position in ("initial", "last")
             if set(pop.keys) - {"'ivy", "jo2"}]  # these two may leave no letter at a position
    for pop in made:
        assert list(pop.keys) == sorted(pop.keys)


# ---------------------------------------------------------------------------
# composition grid


def test_default_grid_shape():
    grid = default_beta0_grid()
    assert len(grid) == 52
    assert grid[0] == 0.005
    assert grid[-1] == 0.995
    assert grid[1] == 0.01 and grid[-2] == 0.99
    assert all(b > a for a, b in zip(grid, grid[1:]))
    steps = [round(b - a, 10) for a, b in zip(grid[1:-2], grid[2:-1])]
    assert set(steps) == {0.02}


# ---------------------------------------------------------------------------
# leaky pipeline


def test_pipeline_unit_ratio_is_identity(balanced_reference):
    pop = apply_pipeline(balanced_reference, PipelineRatio(1.0))
    for key, counts in balanced_reference.entries.items():
        assert pop.entries[key] == (counts.female, counts.male)
    assert pop.beta_true == 0.5


def test_pipeline_expected_balanced_attrition():
    ref = table({"fa": (300, 0), "fb": (200, 100), "mb": (100, 200), "ma": (0, 300)})
    # F = M = 600; keeping one female per three males gives beta 0.25.
    pop = apply_pipeline(ref, PipelineRatio(1.0 / 3.0))
    assert pop.beta_true == pytest.approx(0.25, abs=1e-12)
    assert pop.gamma_true == pytest.approx(-0.5, abs=1e-12)


def test_pipeline_retention_never_exceeds_one():
    ref = table({"f": (100, 0), "m": (0, 100)})
    boosted = apply_pipeline(ref, PipelineRatio(4.0))
    # eta > 1 keeps all females and thins males.
    assert boosted.entries["f"][0] == 100.0
    assert boosted.entries["m"][1] == pytest.approx(25.0, rel=1e-12)
    assert boosted.beta_true == pytest.approx(0.8, abs=1e-12)


def test_pipeline_per_name_share_matches_transform():
    ref = table({"mix": (60, 40)})
    pop = apply_pipeline(ref, PipelineRatio(1.0 / 6.0))
    female, male = pop.entries["mix"]
    assert female / (female + male) == pytest.approx(0.2, rel=1e-12)


def test_pipeline_sampled_mode_is_integer_and_deterministic():
    ref = table({"f": (500, 0), "m": (0, 500), "x": (50, 50)})
    a = apply_pipeline(ref, PipelineRatio(0.5), mode="sampled", seed=9)
    b = apply_pipeline(ref, PipelineRatio(0.5), mode="sampled", seed=9)
    assert a.entries == b.entries
    assert all(isinstance(v, int) for pair in a.entries.values() for v in pair)
    assert a.total_individuals < 1100  # some females were removed
    c = apply_pipeline(ref, PipelineRatio(0.5), mode="sampled", seed=10)
    assert a.entries != c.entries


def test_pipeline_drops_emptied_names():
    ref = table({"gone": (1, 0), "kept": (0, 50)})
    pop = apply_pipeline(ref, PipelineRatio(1e-9), mode="sampled", seed=0)
    assert "gone" not in pop.entries
    assert pop.entries["kept"] == (0, 50)


def test_pipeline_can_empty_the_population():
    ref = table({"a": (2, 0)})
    with pytest.raises(EstimationError, match="removed every"):
        apply_pipeline(ref, PipelineRatio(1e-9), mode="sampled", seed=0)


def test_pipeline_validation(balanced_reference):
    with pytest.raises(InputError):
        apply_pipeline(balanced_reference, PipelineRatio(0.5), mode="approx")
    with pytest.raises(InputError):
        apply_pipeline(balanced_reference, PipelineRatio(0.5), seed=-3)


def test_pipeline_round_trip_on_balanced_reference(balanced_reference):
    pop = apply_pipeline(balanced_reference, PipelineRatio(3.0))
    report = solve_ggem(pop.to_target(), balanced_reference)
    assert report.composition.gamma == pytest.approx(0.5, abs=1e-9)
    assert report.composition.beta == pytest.approx(pop.beta_true, abs=1e-9)


def test_pipeline_round_trip_with_imbalanced_reference():
    # Reference odds alpha* = 1.5; attrition 1/3 leaves target odds 0.5,
    # so solving with the reference's own gamma* recovers gamma = -1/3.
    ref = table({"fa": (30, 0), "fb": (25, 5), "mb": (5, 25), "ma": (0, 10)})
    gamma_ref = 0.2
    pop = apply_pipeline(ref, PipelineRatio(1.0 / 3.0))
    report = solve_ggem(pop.to_target(), ref, gamma_star=gamma_ref)
    assert report.composition.gamma == pytest.approx(-1.0 / 3.0, abs=1e-9)
    assert report.composition.beta == pytest.approx(pop.beta_true, abs=1e-9)


# ---------------------------------------------------------------------------
# letter projection


def test_letter_population_pools_by_initial():
    pop = LabeledPopulation({"ana": (3, 0), "adam": (0, 2), "bo": (1, 1)}, 4 / 7, 0, "natural")
    letters = letter_population(pop, "initial")
    assert letters.entries == {"a": (3, 2), "b": (1, 1)}
    assert letters.beta_true == pop.beta_true
    last = letter_population(pop, "last")
    assert last.entries == {"a": (3, 0), "m": (0, 2), "o": (1, 1)}


def test_letter_population_drops_unusable_keys():
    pop = LabeledPopulation({"1x": (5, 0), "ana": (0, 5)}, 0.5, 0, "natural")
    letters = letter_population(pop, "initial")
    assert letters.entries == {"a": (0, 5)}
    assert letters.beta_true == 0.0
    with pytest.raises(InputError, match="dropped every"):
        letter_population(LabeledPopulation({"1x": (5, 0)}, 1.0, 0, "natural"), "initial")
    with pytest.raises(InputError, match="position"):
        letter_population(pop, "middle")


def test_letter_population_preserves_generated_truth(balanced_reference):
    pop = generate(balanced_reference, 0.3, 5000, seed=11)
    letters = letter_population(pop, "initial")
    assert letters.beta_true == pop.beta_true
    assert letters.total_individuals == pop.total_individuals
    assert all(len(k) == 1 for k in letters.entries)


_REAL_COUNT = st.one_of(st.integers(0, 10**9), st.floats(0.0, 1e9, allow_nan=False))


@given(
    st.dictionaries(
        st.text("abcdefgh", min_size=1, max_size=4),
        st.tuples(_REAL_COUNT, _REAL_COUNT).filter(lambda fm: fm[0] + fm[1] > 0),
        min_size=1,
        max_size=20,
    ),
    st.randoms(use_true_random=False),
)
def test_beta_of_entries_ignores_key_order(entries, rnd):
    items = list(entries.items())
    rnd.shuffle(items)
    shuffled = dict(items)
    female = math.fsum(shuffled[k][0] for k in sorted(shuffled))
    total = math.fsum(shuffled[k][0] + shuffled[k][1] for k in sorted(shuffled))
    assert _beta_of(*_true_columns(shuffled)).hex() == (female / total).hex()


@given(
    st.dictionaries(
        st.text("abzé'Z", min_size=1, max_size=3),
        st.tuples(_REAL_COUNT, _REAL_COUNT).filter(lambda fm: fm[0] + fm[1] > 0),
        min_size=1,
        max_size=20,
    ),
    st.randoms(use_true_random=False),
)
def test_population_is_the_same_in_any_given_key_order(entries, rnd):
    items = sorted(entries.items())
    shuffled = rnd.sample(items, len(items))
    beta_true = _beta_of(*_true_columns(entries))
    pops = [LabeledPopulation(dict(order), beta_true, 0, "expected") for order in (items, shuffled)]
    ref = table({key: (1, 1) for key, _ in shuffled[::2]})
    files = []
    with tempfile.TemporaryDirectory() as tmp:
        for n, pop in enumerate(pops):
            assert list(pop.keys) == sorted(entries)
            paths = [Path(tmp) / f"pop{n}.csv", Path(tmp) / f"pop{n}.truth.csv"]
            export_population(pop, *paths)
            files.append([path.read_bytes() for path in paths])
    first, second = pops
    assert first == second and files[0] == files[1]
    assert repr(first.total_individuals) == repr(second.total_individuals)
    assert first.to_target() == second.to_target()
    assert repr(first.to_target().total_individuals) == repr(second.to_target().total_individuals)
    assert repr(coverage_stats(first, ref)) == repr(coverage_stats(second, ref))


# ---------------------------------------------------------------------------
# export


def test_export_population_files(tmp_path):
    pop = LabeledPopulation({"b": (1, 2), "a": (2, 0)}, 0.6, 0, "natural")
    target = tmp_path / "pop.csv"
    truth = tmp_path / "pop.truth.csv"
    export_population(pop, target, truth)
    assert target.read_text(encoding="utf-8") == "name,count\na,2\nb,3\n"
    assert truth.read_text(encoding="utf-8") == (
        "name,true_female,true_male\na,2,0\nb,1,2\n"
    )


def test_export_population_real_counts(tmp_path):
    pop = LabeledPopulation({"a": (2.5, 0.5)}, 2.5 / 3.0, 0, "expected")
    export_population(pop, tmp_path / "t.csv", tmp_path / "l.csv")
    assert (tmp_path / "t.csv").read_text(encoding="utf-8") == "name,count\na,3\n"
    assert (tmp_path / "l.csv").read_text(encoding="utf-8") == (
        "name,true_female,true_male\na,2.5,0.5\n"
    )
