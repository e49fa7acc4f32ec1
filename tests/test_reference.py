import ast
import functools
import gc
import logging
import math
import operator
import pickle
import random
import re
import string
import sys
import unicodedata
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gendermix

from gendermix import (
    GenderCounts,
    InputError,
    LabeledPopulation,
    PipelineRatio,
    ReferenceTable,
    TargetList,
    apply_pipeline,
    cli,
    estimate_method0,
    export_canonical_csv,
    export_target_csv,
    filter_min_count,
    inclination_shift,
    ingest_canonical_csv,
    ingest_ssa_year_files,
    letter_population,
    letter_table,
    letter_target,
    load_target,
    merge,
    name_entropy,
    normalize_name,
)
from gendermix.errors import SkippedRecord
from gendermix.reference import (
    MAX_TOTAL,
    MODE_FULL_NAME,
    MODE_INITIAL,
    MODE_LAST,
    _fold,
    _total,
    first_token,
)
from gendermix.simulator import _beta_of, _true_columns


def table(counts, **kwargs):
    return ReferenceTable.from_counts(counts, **kwargs)


# ---------------------------------------------------------------------------
# normalize_name


def test_normalize_trims_and_lowercases():
    assert normalize_name("  MARIA ") == "maria"


def test_normalize_folds_diacritics():
    assert normalize_name("José") == "jose"
    assert normalize_name("Çilek") == "cilek"
    assert normalize_name("João") == "joao"


def test_fold_ascii_shortcut_matches_full_decomposition():
    # ASCII input skips decomposition; it must equal the decomposed result.
    text = "".join(chr(i) for i in range(128))
    decomposed = unicodedata.normalize("NFD", text)
    assert _fold(text) == "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    assert _fold("Zoë") == "Zoe"


def test_normalize_preserves_hyphens():
    assert normalize_name("JEAN-PIERRE") == "jean-pierre"


def test_normalize_collapses_interior_whitespace():
    assert normalize_name("Mary \t Jo") == "mary jo"


def test_normalize_rejects_unusable_strings():
    with pytest.raises(SkippedRecord):
        normalize_name("   ")
    with pytest.raises(SkippedRecord):
        normalize_name("Анна")  # no Latin letter after folding
    with pytest.raises(SkippedRecord):
        normalize_name("123")


WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
_OLD_WS_RUN = re.compile(r"\s+")


def old_normalize_name(raw):
    """The regex-based body that normalize_name replaced."""
    key = _OLD_WS_RUN.sub(" ", _fold(raw)).strip().lower()
    if not any(ch in "abcdefghijklmnopqrstuvwxyz" for ch in key):
        raise SkippedRecord(f"no usable letters in name {raw!r}")
    return key


def outcome(normalize, raw):
    try:
        return normalize(raw)
    except SkippedRecord:
        return SkippedRecord


def test_whitespace_set_is_the_regex_one():
    assert len(WHITESPACE) == 29
    assert WHITESPACE == [chr(c) for c in range(sys.maxunicode + 1) if re.match(r"\s", chr(c))]


def with_examples(texts):
    def decorate(test):
        for text in texts:
            test = example(text)(test)
        return test

    return decorate


NORMALIZE_EXAMPLES = [
    *(f"{ws}Ana{ws}{ws}María{ws}" for ws in WHITESPACE),
    "\u212aim",  # KELVIN SIGN lowercases to ASCII k
    "\u212a",
    "Zoe\u0308",  # combining diaeresis
    "\u0301\u0308",  # combining marks only
    "A\u030a\u0301 b",
    "\u0130stanbul",  # lowercases to i + combining dot above
    "李",
    "Анна",
    "Ελένη",
    "١٢٣",
    "",
]


@settings(max_examples=500)
@with_examples(NORMALIZE_EXAMPLES)
@given(
    st.one_of(
        st.text(),
        st.text(st.sampled_from(WHITESPACE + list("aZé\u212a\u0301\u0130李-'"))),
    )
)
def test_normalize_matches_the_regex_body(raw):
    assert outcome(normalize_name, raw) == outcome(old_normalize_name, raw)


ASCII_WHITESPACE = [ws for ws in WHITESPACE if ws.isascii()]


@settings(max_examples=500)
@with_examples(["", "123", "---", " \x1c A \x1f", "z", "Z-9", "'", "\x00a"])
@given(
    st.one_of(
        st.text(st.characters(max_codepoint=127)),
        st.text(st.sampled_from(ASCII_WHITESPACE + list("aZz09-'\x00~"))),
    )
)
def test_normalize_matches_the_regex_body_on_ascii(raw):
    assert outcome(normalize_name, raw) == outcome(old_normalize_name, raw)


def test_first_token():
    assert first_token("mary jo") == "mary"
    assert first_token("jean-pierre") == "jean-pierre"


# ---------------------------------------------------------------------------
# GenderCounts


def test_counts_probabilities():
    c = GenderCounts(99, 1)
    assert c.total == 100
    assert c.p_female == 0.99
    assert c.inclination == pytest.approx(0.98, abs=1e-15)


@given(st.integers(0, 10**9), st.integers(0, 10**9))
def test_counts_probability_complement_is_exact(female, male):
    if female + male == 0:
        return
    c = GenderCounts(female, male)
    assert c.p_female + c.p_male == 1.0
    assert c.inclination == 2.0 * c.p_female - 1.0


def test_counts_validation():
    with pytest.raises(InputError):
        GenderCounts(0, 0)
    with pytest.raises(InputError):
        GenderCounts(-1, 5)
    with pytest.raises(InputError):
        GenderCounts(1.5, 5)
    with pytest.raises(InputError):
        GenderCounts(True, 5)


def test_reference_table_validation():
    with pytest.raises(InputError):
        table({"ana": (1, 0)}, mode="bogus")
    with pytest.raises(InputError):
        table({"ana": (1, 0)}, mode=MODE_INITIAL)  # key not a single letter
    with pytest.raises(InputError):
        table({"": (1, 0)})
    t = table({"a": (1, 0)}, mode=MODE_INITIAL)
    assert "a" in t and len(t) == 1


def test_reference_table_rejects_non_gendercounts_entries():
    with pytest.raises(InputError, match="'ana' must be GenderCounts, got tuple"):
        ReferenceTable({"ana": (3, 1)})
    with pytest.raises(InputError):
        ReferenceTable({"ana": GenderCounts(3, 1), "bo": 4})


def test_bool_counts_are_rejected():
    t = table({"ana": (3, 1)})
    with pytest.raises(InputError, match="threshold"):
        filter_min_count(t, True)
    with pytest.raises(InputError, match="min_count_threshold"):
        table({"ana": (3, 1)}, min_count_threshold=True)
    with pytest.raises(InputError, match="'ana'"):
        TargetList({"ana": True})
    with pytest.raises(InputError, match="'ana'"):
        TargetList({"ana": np.True_})
    with pytest.raises(InputError):
        table({"ana": (True, 1)})


def test_totals_must_stay_below_2_pow_53(tmp_path):
    edge = table({"ana": (MAX_TOTAL - 1, 0), "bo": (0, MAX_TOTAL - 1)})
    assert edge.entries["ana"].p_female == 1.0
    assert edge.total_individuals == 2 * (MAX_TOTAL - 1)  # exact, beyond float64
    for counts in ((MAX_TOTAL, 0), (2**52, 2**52), (2**64, 1), (2**62, 2**62), (1, 2**63 - 1)):
        with pytest.raises(InputError, match="'ana'.*2\\*\\*53"):
            table({"bo": (1, 1), "ana": counts})
    with pytest.raises(InputError, match="'ana'"):
        ReferenceTable({"ana": GenderCounts(2**70, 0)})
    with pytest.raises(InputError, match="'ana'"):
        merge([table({"ana": (2**52, 0)}), table({"ana": (2**52, 0)})])
    with pytest.raises(InputError, match="'ana'"):
        ingest_canonical_csv(write(tmp_path / "big.csv", f"name,female,male\nAna,{2**64},0\n"))
    with pytest.raises(InputError, match="'ana'"):
        ingest_canonical_csv(write(tmp_path / "sum.csv", f"name,female,male\nAna,{2**52},0\nana,{2**52},0\n"))


def test_target_list_validation():
    with pytest.raises(InputError):
        TargetList({})
    with pytest.raises(InputError):
        TargetList({"ana": 0})
    with pytest.raises(InputError):
        TargetList({"ana": -2})
    with pytest.raises(InputError):
        TargetList({"ana": math.nan})
    assert TargetList({"ana": 2.5}).total_individuals == 2.5


def test_target_count_must_be_a_number():
    for count in ("3", None, 1j):
        with pytest.raises(InputError, match="'ana' must be a number"):
            TargetList({"bob": 1, "ana": count})


def test_target_list_is_stored_by_column():
    t = TargetList({"zed": 2, "ana": 3, "mo": 1})
    assert t.keys == ("ana", "mo", "zed")
    assert t.counts.dtype == np.int64 and t.counts.tolist() == [3, 1, 2]
    with pytest.raises(ValueError):
        t.counts[0] = 9
    real = TargetList({"bo": 1, "ana": 0.5})
    assert real.counts.dtype == np.float64 and real.counts.tolist() == [0.5, 1.0]
    assert type(real.entries["bo"]) is float and type(t.entries["mo"]) is int


def test_target_entries_view_is_read_only():
    t = TargetList({"ana": 3, "bob": 1})
    view = t.entries
    with pytest.raises(TypeError):
        view["ana"] = -50
    assert view == {"ana": 3, "bob": 1} and list(view) == ["ana", "bob"]
    assert "ana" in view and "zed" not in view and 5 not in view and len(view) == 2
    assert "ana" in t and len(t) == 2
    assert view.get("zed") is None
    with pytest.raises(KeyError):
        view["zed"]
    assert repr(t) == "TargetList(entries={'ana': 3, 'bob': 1})"
    assert estimate_method0(t, table({"ana": (1, 0), "bob": (0, 1)})).individuals_total == 4


def test_target_list_is_frozen_and_compares_by_value():
    t = TargetList({"bob": 1, "ana": 3})
    for field in ("keys", "counts", "total_individuals", "entries"):
        with pytest.raises(FrozenInstanceError):
            setattr(t, field, None)
    assert t == TargetList({"ana": 3, "bob": 1}) == TargetList({"ana": 3.0, "bob": 1.0})
    assert t != TargetList({"ana": 3}) and t != TargetList({"ana": 3, "bob": 2})
    assert t != {"ana": 3, "bob": 1}


def test_target_list_pickles_with_its_total():
    # Added left to right in this order the counts give 9.049999999999999,
    # in sorted order 9.05.
    counts = {"zed": 0.3, "fay": 0.7, "ana": 0.1, "cam": 1.7, "xeno": 1.3,
              "bob": 3.1, "dee": 0.45, "eli": 1.05, "gus": 0.35}
    for t in (TargetList(counts), TargetList({"b": 2, "a": 5})):
        again = pickle.loads(pickle.dumps(t))
        assert again == t and again is not t
        assert repr(again.total_individuals) == repr(t.total_individuals)
        assert again.counts.dtype == t.counts.dtype and not again.counts.flags.writeable
    assert TargetList(counts).total_individuals == functools.reduce(operator.add, counts.values())


def test_target_total_is_a_python_float_of_the_float64_counts():
    # numpy scalars are added as float64 in the caller's order, not as float32.
    for counts in ({"a": np.float32(0.1), "b": np.float32(0.2), "c": np.float32(0.3)},
                   {"z": 0.1, "b": np.float32(0.2), "a": 1}):
        total = TargetList(counts).total_individuals
        assert type(total) is float
        assert total == functools.reduce(operator.add, map(float, counts.values()))
    assert TargetList({"a": np.float32(0.1), "b": np.float32(0.2), "c": np.float32(0.3)}
                      ).total_individuals == 0.6000000163912773


def _left_to_right(column: np.ndarray):
    return functools.reduce(operator.add, column.tolist(), column.dtype.type(0).item())


def test_total_adds_a_real_column_left_to_right():
    column = np.array([1.0] + [1e-16] * 15)
    assert _total(column) == _left_to_right(column) == 1.0
    assert float(np.sum(column)) != 1.0 and math.fsum(column.tolist()) != 1.0
    assert type(_total(column)) is float


def test_total_of_an_empty_column():
    for dtype, zero in ((np.int64, 0), (np.float64, 0.0)):
        column = np.array([], dtype=dtype)
        assert _total(column) == _left_to_right(column) == zero
        assert type(_total(column)) is type(zero)


@pytest.mark.parametrize("size, value", [(1024, 2**53 - 1), (1024, 2**53), (1025, 2**53 - 1)])
def test_total_of_an_integer_column_is_exact(size, value):
    # Below 2**63 numpy's int64 sum cannot wrap; at or above it one would.
    column = np.full(size, value, dtype=np.int64)
    total = _total(column)
    assert type(total) is int and total == size * value == _left_to_right(column)


def test_target_integer_counts_stay_below_2_53():
    assert TargetList({"ana": MAX_TOTAL - 1}).counts.tolist() == [MAX_TOTAL - 1]
    for count in (MAX_TOTAL, 2**70):
        with pytest.raises(InputError, match="'ana'.*2\\*\\*53"):
            TargetList({"bo": 1, "ana": count})
    # A real weight is stored as a float64 and has no such limit.
    assert TargetList({"ana": float(2**70)}).total_individuals == float(2**70)


def test_target_numpy_integer_counts_are_integers():
    with pytest.raises(InputError, match="'a'.*2\\*\\*53"):
        TargetList({"a": np.int64(2**60 + 1)})
    t = TargetList({"a": np.int64(5), "b": 3})
    assert t.counts.dtype == np.int64 and t.counts.tolist() == [5, 3]
    assert type(t.total_individuals) is int and t.total_individuals == 8
    ref = table({"a": (1, 0), "b": (0, 1)})
    assert gendermix.bootstrap_interval(t, ref, gendermix.MethodSpec("method0"), repeats=100).repeats == 100
    with pytest.raises(InputError, match="must be a number"):
        TargetList({"a": np.bool_(True)})


# ---------------------------------------------------------------------------
# columnar storage


def test_columns_keep_sorted_order_and_are_read_only():
    t = table({"zed": (1, 2), "ana": (3, 0), "mo": (0, 4)})
    assert t.keys == ("ana", "mo", "zed")
    assert t.female.dtype == np.int64 and t.male.dtype == np.int64
    assert t.female.tolist() == [3, 0, 1] and t.male.tolist() == [0, 4, 2]
    with pytest.raises(ValueError):
        t.female[0] = 9
    with pytest.raises(FrozenInstanceError):
        t.source_id = "x"
    assert "mo" in t and t.entries["mo"] == GenderCounts(0, 4)
    assert t.rows_of(["mo", "nobody", "zed"]).tolist() == [1, -1, 2]


def test_entries_view_reads_like_a_dict():
    counts = {"zed": (1, 2), "ana": (3, 0)}
    t = table(counts)
    view = t.entries
    assert list(view) == ["ana", "zed"]
    assert view == {k: GenderCounts(f, m) for k, (f, m) in counts.items()}
    assert {k: (c.female, c.male) for k, c in view.items()} == counts
    assert type(view["ana"].female) is int
    assert "ana" in view and "bo" not in view and len(view) == 2
    assert view.get("bo") is None
    with pytest.raises(KeyError):
        view["bo"]
    with pytest.raises(TypeError):
        view["bo"] = GenderCounts(1, 1)


def test_relabelled_table_shares_its_columns():
    t = table({"a": (1, 2), "b": (3, 0)}, source_id="x")
    relabelled = ReferenceTable._relabel(t, source_id="y", min_count_threshold=5, mode=MODE_INITIAL)
    assert relabelled.female is t.female and relabelled.keys == t.keys
    assert (relabelled.source_id, relabelled.min_count_threshold, relabelled.mode) == ("y", 5, MODE_INITIAL)
    assert t.source_id == "x" and t.mode == MODE_FULL_NAME
    with pytest.raises(InputError, match="single letter"):
        ReferenceTable._relabel(table({"ana": (1, 0)}), "", 0, MODE_INITIAL)
    # The public constructor rebuilds the columns from the view.
    copied = ReferenceTable(t.entries, source_id="x")
    assert copied == t and copied.female is not t.female


def test_table_pickles_and_compares_by_value():
    t = table({"a": (1, 2), "b": (3, 0)}, source_id="x", min_count_threshold=1)
    again = pickle.loads(pickle.dumps(t))
    assert again == t and again is not t
    assert not again.female.flags.writeable
    assert again != table({"a": (1, 2), "b": (3, 0)}, source_id="y", min_count_threshold=1)


@given(st.lists(st.tuples(st.integers(0, MAX_TOTAL // 2 - 1), st.integers(0, MAX_TOTAL // 2 - 1))
                .filter(lambda p: sum(p) > 0), min_size=1, max_size=20))
@example([(1, 2), (MAX_TOTAL // 2 - 1, MAX_TOTAL // 2 - 1), (3, 0), (0, 7)])
def test_array_probabilities_equal_python_division(pairs):
    t = table({f"n{i:02d}": pair for i, pair in enumerate(pairs)})
    p = t.p_female_of(np.arange(len(pairs)))
    assert p.tolist() == [f / (f + m) for f, m in pairs]


def _strictly_increasing(keys) -> bool:
    return all(a < b for a, b in zip(keys, keys[1:]))


# Raw names that all normalize, some to the same key, with a Latin letter at both ends.
RAW_NAMES = st.from_regex(r"[a-cA-Cé][a-c é-]{0,3}[a-cA-Cé]|[a-cA-C]", fullmatch=True)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(RAW_NAMES, st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(any),
                       min_size=1, max_size=12), st.randoms())
def test_every_construction_path_gives_strictly_increasing_keys(tmp_path_factory, raw, rnd):
    root = tmp_path_factory.mktemp("paths")
    rows = list(raw.items())
    rnd.shuffle(rows)
    given_counts = dict(rows)
    made = [ReferenceTable({k: GenderCounts(f, m) for k, (f, m) in given_counts.items()}),
            table(given_counts)]
    write(root / "raw.csv", "name,female,male\n" + "".join(f"{k},{f},{m}\n" for k, (f, m) in rows))
    made.append(ingest_canonical_csv(root / "raw.csv"))  # raw names in the given order
    export_canonical_csv(made[-1], root / "exported.csv")
    made.append(ingest_canonical_csv(root / "exported.csv"))  # in export form: by column
    (root / "ssa").mkdir()
    lines = [f"{k},{sex},{n}\n" for k, counts in rows for sex, n in zip("FM", counts) if n]
    rnd.shuffle(lines)
    write(root / "ssa" / "yob2000.txt", "".join(lines))
    made.append(ingest_ssa_year_files(root / "ssa"))
    merged = merge([made[2], made[0], made[4]])
    made.append(merged)
    made += [letter_table(merged, position) for position in ("initial", "last")]
    threshold = rnd.choice((merged.female + merged.male).tolist())
    made.append(filter_min_count(merged, threshold))
    for name, written in (("merged.csv", merged), ("letters.csv", made[-2])):
        cli._write_table(written, root / name)
        made.append(cli._load_table(root / name))
    targets = [TargetList({k: f + m for k, (f, m) in given_counts.items()})]
    targets.append(letter_target(targets[0], "last"))
    female, male = _true_columns(given_counts)
    pop = LabeledPopulation(given_counts, _beta_of(female, male), 0, "natural")
    targets.append(pop.to_target())
    for obj in made + targets + [pop]:
        assert _strictly_increasing(obj.keys)
        assert all(key in obj and key in obj.entries for key in obj.keys)
        assert "zz" not in obj and obj.entries.get("zz") is None and 5 not in obj.entries


def test_table_paths_build_no_gender_counts(monkeypatch, tmp_path):
    import gendermix as gm

    built = []
    monkeypatch.setattr(GenderCounts, "__post_init__", lambda self: built.append(self))
    # Every read of a population's values goes through its entries property.
    population_reads = []
    view = gm.LabeledPopulation.entries
    monkeypatch.setattr(gm.LabeledPopulation, "entries",
                        property(lambda self: population_reads.append(self) or view.fget(self)))
    csv_path = write(tmp_path / "raw.csv", "name,female,male\nAna,90,10\nBob,5,95\n3x,1,1\nana,1,0\n")
    (tmp_path / "ssa").mkdir()
    write(tmp_path / "ssa" / "yob2000.txt", "Ana,F,5\nAdam,M,7\nBob,M,9\n")
    ref = merge([ingest_canonical_csv(csv_path), ingest_ssa_year_files(tmp_path / "ssa")])
    ref = filter_min_count(ref, 1)
    letters = letter_table(ref, "initial")
    export_canonical_csv(ref, tmp_path / "out.csv")
    target = TargetList({"ana": 30, "bob": 20, "zed": 1})
    for spec in ("m0", "m1:0.5", "m2:0.6", "ggem"):
        gm.MethodSpec.parse(spec).run(target, ref)
        gm.bootstrap_interval(target, ref, gm.MethodSpec.parse(spec), repeats=100)
    gm.MethodSpec.parse("ggem").run(letter_target(target, "initial"), letters)
    config = gm.SweepConfig(ref, methods=(gm.MethodSpec.parse("ggem"),), beta0_grid=(0.3,),
                            repeats=2, population_size=50)
    gm.run_sweep(config)
    gm.coverage_stats(gm.generate(ref, 0.5, 20), ref)
    gm.apply_pipeline(ref, gm.PipelineRatio(2.0))
    name_entropy(ref)
    assert ref.total_individuals > 0
    assert built == []
    gm.run_sweep(gm.SweepConfig(ref, methods=(gm.MethodSpec.parse("m0"),), beta0_grid=(0.3,),
                                repeats=2, population_size=50, mode=MODE_INITIAL))
    for mode in ("expected", "sampled"):
        pop = gm.apply_pipeline(ref, gm.PipelineRatio(0.5), mode)
        gm.coverage_stats(pop, ref)
        gm.coverage_stats(gm.letter_population(pop, "last"), letter_table(ref, "last"))
        pop.to_target()
        gm.export_population(pop, tmp_path / "pop.csv", tmp_path / "pop.truth.csv")
    assert population_reads == []


def test_estimator_paths_read_no_count_through_the_entries_view(monkeypatch, tmp_path, benchmark_reference):
    import gendermix as gm

    target = TargetList({"ana": 30, "bob": 20, "zed": 1})
    view = type(target.entries)
    reads = []
    for name in ("__getitem__", "__iter__"):
        original = getattr(view, name)

        def counted(self, *args, _name=name, _original=original):
            reads.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(view, name, counted)
    ref = table({"ana": (90, 10), "bob": (5, 95), "cy": (3, 3)})
    for spec in ("m0", "m1:0.5", "m2:0.6", "ggem"):
        gm.MethodSpec.parse(spec).run(target, ref)
        gm.bootstrap_interval(target, ref, gm.MethodSpec.parse(spec), repeats=100)
    for method in ("method0", "ggem"):
        gm.partial_contributions(target, ref, method=method)
    gm.residual(0.1, target, ref)
    letter_target(target, "initial")
    export_target_csv(target, tmp_path / "target.csv")
    methods = (gm.MethodSpec.parse("ggem"), gm.MethodSpec.parse("m1:0.5"))
    config = gm.SweepConfig(benchmark_reference, methods=methods, beta0_grid=(0.3,), repeats=2,
                            population_size=200)
    gm.run_sweep(config)
    assert reads == []


def _file_reads(tree: ast.AST) -> list[tuple[str, int]]:
    """``(enclosing function, line)`` of each call that opens a file for
    reading: ``open``/``.open`` without a write-only mode, ``read_text``
    and ``read_bytes``."""
    reads = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("read_text", "read_bytes"):
                reads.append((function, node.lineno))
            elif name == "open":
                # open(path, mode) and io.open(path, mode), but Path(...).open(mode)
                positional = 1 if isinstance(func, ast.Name) or getattr(func.value, "id", "") == "io" else 0
                mode = next((k.value for k in node.keywords if k.arg == "mode"),
                            node.args[positional] if len(node.args) > positional else None)
                if mode is None:
                    text = "r"
                else:  # a mode that is not a literal counts as a read
                    text = mode.value if isinstance(mode, ast.Constant) else "r"
                if not set(text) <= set("wxab"):
                    reads.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return reads


def test_every_file_read_goes_through_the_one_opener():
    package = Path(gendermix.__file__).parent
    reads = {
        path.name: _file_reads(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(package.glob("*.py"))
    }
    opener = reads.pop("reference.py")
    assert [function for function, _ in opener] == ["_open_input"]
    assert {name: found for name, found in reads.items() if found} == {}


def _summations(tree: ast.AST) -> list[tuple[str, int]]:
    """``(enclosing function, line)`` of each builtin ``sum(...)`` call and
    each ``.accumulate(...)`` or ``.bincount(...)`` call: sums whose float
    result may depend on the interpreter or that must stay inside the one
    total helper or the one bucket helper. ``math.fsum``, ``np.sum`` and
    ``.sum()`` are not counted."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "sum") or getattr(func, "attr", None) in (
                "accumulate", "bincount"
            ):
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def test_every_count_total_goes_through_the_one_helper():
    package = Path(gendermix.__file__).parent
    sums = {
        path.name: _summations(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(package.glob("*.py"))
    }
    assert [function for function, _ in sums.pop("reference.py")] == ["_total", "_total", "_bucket_sums"]
    assert {name: found for name, found in sums.items() if found} == {}


def test_summation_finder_sees_each_form():
    source = (
        "def f(x):\n"
        "    sum(x.tolist())\n    sum(x)\n    np.add.accumulate(x)\n    np.bincount(i, weights=x)\n"
        "    math.fsum(x.tolist())\n    np.sum(x)\n    x.sum()\n"
    )
    assert _summations(ast.parse(source)) == [("f", line) for line in range(2, 6)]


def _sorts(tree: ast.AST) -> list[tuple[str, int]]:
    """``(enclosing function, line)`` of each call that sorts: builtin
    ``sorted(...)`` and any ``.sort(...)``, ``.argsort(...)`` or
    ``.lexsort(...)`` (``list.sort``, ``np.sort``, ``np.argsort``, ...)."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "sorted") or getattr(func, "attr", None) in (
                "sort", "argsort", "lexsort"
            ):
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def test_keys_are_sorted_only_where_objects_are_built_or_buckets_numbered():
    """Keys are sorted when a table, target or population is built from
    unsorted ones (``_in_key_order``), when a reference CSV loads by column
    (``_exported_table`` sorts the file's lines, which makes the keys anew in
    sorted order in memory) and when buckets are numbered
    (``_sorted_buckets``), nowhere else: no sweep cell, pipeline, export or
    letter projection sorts keys. The other sorts order no keys: the CLI's
    echoed configuration, the SSA directory listing and the ranking of
    ``inclination_shift``."""
    package = Path(gendermix.__file__).parent
    sorts = {
        path.name: [function for function, _ in _sorts(ast.parse(path.read_text(encoding="utf-8")))]
        for path in sorted(package.glob("*.py"))
    }
    assert {name: found for name, found in sorts.items() if found} == {
        "cli.py": ["_resolved_config", "_estimate_csv"],
        "reference.py": ["_in_key_order", "_sorted_buckets", "_exported_table", "ingest_ssa_year_files",
                         "inclination_shift"],
    }


def test_sort_finder_sees_each_form():
    source = (
        "def f(x):\n"
        "    sorted(x)\n    sorted(x, key=len)\n    x.sort()\n    np.sort(x)\n    np.argsort(x)\n"
        "    np.lexsort(x)\n"
        "    x.sorted_rows()\n    issorted(x)\n    sort_key(x)\n    np.searchsorted(x, 1)\n"
    )
    assert _sorts(ast.parse(source)) == [("f", line) for line in range(2, 8)]


def test_file_read_finder_sees_each_form():
    source = (
        "def f(p):\n"
        "    open(p)\n    open(p, 'rb')\n    open(p, mode='r+')\n    io.open(p, m)\n"
        "    p.open()\n    p.read_text()\n    p.read_bytes()\n"
        "    open(p, 'w')\n    p.open('a')\n    io.open(p, mode='xb')\n    p.write_text('')\n"
    )
    assert _file_reads(ast.parse(source)) == [("f", line) for line in range(2, 9)]


# ---------------------------------------------------------------------------
# canonical CSV ingestion


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_ingest_canonical(tmp_path):
    path = write(tmp_path / "r.csv", "name,female,male\nCarol,99,1\n")
    t = ingest_canonical_csv(path)
    assert t.entries["carol"].p_female == 0.99
    assert t.source_id == "r.csv"
    assert t.mode == MODE_FULL_NAME


def test_ingest_merges_duplicates_after_normalization(tmp_path):
    path = write(tmp_path / "r.csv", "name,female,male\nAna,10,0\nANA,5,0\n")
    t = ingest_canonical_csv(path)
    assert t.entries["ana"].female == 15


def test_ingest_drops_zero_total_rows(tmp_path, caplog):
    path = write(tmp_path / "r.csv", "name,female,male\nX,0,0\n")
    with caplog.at_level("WARNING"):
        t = ingest_canonical_csv(path)
    assert len(t) == 0
    assert "skipped record" in caplog.text


def test_ingest_skips_unusable_names(tmp_path, caplog):
    path = write(tmp_path / "r.csv", "name,female,male\n木村,5,5\nana,1,0\n")
    with caplog.at_level("WARNING"):
        t = ingest_canonical_csv(path)
    assert list(t.entries) == ["ana"]
    assert "skipped record" in caplog.text


def test_skipped_name_leaves_no_reference_cycle(tmp_path):
    """The pooled counts are freed on return, not at the next collection.
    Logging is off: a kept log record would hold the skip reason alive."""
    path = write(tmp_path / "r.csv", "name,female,male\n木村,5,5\nAna,1,0\n")
    write(tmp_path / "yob2020.txt", "木村,F,5\nAna,F,1\n")
    gc.collect()
    gc.disable()
    logging.disable(logging.CRITICAL)
    try:
        assert list(ingest_canonical_csv(path).entries) == ["ana"]
        assert list(ingest_ssa_year_files(tmp_path).entries) == ["ana"]
        assert gc.collect() == 0
    finally:
        logging.disable(logging.NOTSET)
        gc.enable()


def test_ingest_malformed_rows_are_hard_errors(tmp_path):
    path = write(tmp_path / "r.csv", "name,female,male\nana,1\n")
    with pytest.raises(InputError, match="line 2"):
        ingest_canonical_csv(path)
    path = write(tmp_path / "r2.csv", "name,female,male\nana,x,1\n")
    with pytest.raises(InputError, match="line 2"):
        ingest_canonical_csv(path)
    path = write(tmp_path / "r3.csv", "name,female,male\nana,-1,1\n")
    with pytest.raises(InputError, match="nonnegative"):
        ingest_canonical_csv(path)


def test_ingest_header_and_file_errors(tmp_path):
    with pytest.raises(InputError, match="header"):
        ingest_canonical_csv(write(tmp_path / "bad.csv", "nome,female,male\n"))
    with pytest.raises(InputError, match="empty"):
        ingest_canonical_csv(write(tmp_path / "empty.csv", ""))
    with pytest.raises(InputError):
        ingest_canonical_csv(tmp_path / "missing.csv")


def test_ingest_handles_bom_and_first_token(tmp_path):
    path = (tmp_path / "r.csv")
    path.write_bytes("name,female,male\nMary Jo,4,0\n".encode("utf-8-sig"))
    t = ingest_canonical_csv(path, first_token_only=True)
    assert list(t.entries) == ["mary"]


def test_decode_error_past_the_first_chunk_names_the_file(tmp_path):
    # The error surfaces while reading a later 8 KiB chunk; no line is named,
    # since the decoder's position is within that chunk, not the file.
    path = tmp_path / "r.csv"
    path.write_bytes(b"name,female,male\n" + b"ana,1,0\n" * 3000 + b"zo\xe9,1,0\n")
    with pytest.raises(InputError, match="not UTF-8 text") as info:
        ingest_canonical_csv(path)
    assert str(info.value).startswith(f"{path}: ")
    assert "line" not in str(info.value)


def test_ingest_custom_source_id(tmp_path):
    path = write(tmp_path / "r.csv", "name,female,male\nana,1,0\n")
    assert ingest_canonical_csv(path, source_id="census").source_id == "census"


# ---------------------------------------------------------------------------
# SSA year files


def test_ssa_single_year(tmp_path):
    write(tmp_path / "yob2020.txt", "Mary,F,100\nMary,M,2\n")
    t = ingest_ssa_year_files(tmp_path)
    c = t.entries["mary"]
    assert (c.female, c.male) == (100, 2)
    assert c.p_female == 100 / 102
    assert t.source_id == "ssa:2020-2020"


def test_ssa_aggregates_years(tmp_path):
    write(tmp_path / "yob2019.txt", "Ann,F,3\n")
    write(tmp_path / "yob2020.txt", "Ann,F,4\n")
    t = ingest_ssa_year_files(tmp_path)
    assert t.entries["ann"].female == 7
    assert t.source_id == "ssa:2019-2020"


def test_ssa_year_selection(tmp_path):
    write(tmp_path / "yob2018.txt", "Ann,F,1\n")
    write(tmp_path / "yob2019.txt", "Ann,F,2\n")
    write(tmp_path / "yob2020.txt", "Ann,F,4\n")
    assert ingest_ssa_year_files(tmp_path, years=(2019, 2020)).entries["ann"].female == 6
    assert ingest_ssa_year_files(tmp_path, years=[2018, 2020]).entries["ann"].female == 5
    with pytest.raises(InputError, match="no yob"):
        ingest_ssa_year_files(tmp_path, years=(1900, 1901))
    with pytest.raises(InputError, match="inverted"):
        ingest_ssa_year_files(tmp_path, years=(2020, 2019))


def test_ssa_skips_zero_count_lines(tmp_path, caplog):
    write(tmp_path / "yob2020.txt", "Nada,F,0\nAnn,F,4\nAnn,M,0\n")
    with caplog.at_level("INFO"):
        t = ingest_ssa_year_files(tmp_path)
    assert list(t.entries) == ["ann"]
    assert (t.entries["ann"].female, t.entries["ann"].male) == (4, 0)
    assert "line 1: skipped record: zero total for 'nada'" in caplog.text
    assert "line 3: skipped record: zero total for 'ann'" in caplog.text
    assert "skipped 2 record(s)" in caplog.text


def test_ssa_malformed_lines(tmp_path):
    write(tmp_path / "yob2020.txt", "Mary;F;100\n")
    with pytest.raises(InputError, match="line 1"):
        ingest_ssa_year_files(tmp_path)
    write(tmp_path / "yob2020.txt", "Mary,X,100\n")
    with pytest.raises(InputError, match="sex code"):
        ingest_ssa_year_files(tmp_path)
    with pytest.raises(InputError, match="not a directory"):
        ingest_ssa_year_files(tmp_path / "nowhere")


def _write_ssa_tree(directory, years, n_names, seed):
    """A yobNNNN.txt tree with planted unusable names and zero-count lines.

    Returns the expected ``key: [female, male]`` sums and the number of
    lines the ingest must skip."""
    rng = random.Random(seed)
    letters = string.ascii_lowercase
    names = [letters[i // 676 % 26] + letters[i // 26 % 26] + letters[i % 26] + "a" for i in range(n_names)]
    unusable = ["", "123", "李", "Ωμέγα", "---", "أحمد"]
    expected: dict[str, list[int]] = {}
    skipped = 0
    for year in years:
        lines = []
        for key in names:
            for column, sex in enumerate("FM"):
                if rng.random() < 0.4:
                    continue
                count = 0 if rng.random() < 0.03 else rng.randint(5, 5000)
                if count == 0:
                    skipped += 1
                else:
                    expected.setdefault(key, [0, 0])[column] += count
                lines.append(f"{key.capitalize()},{sex},{count}")
        for name in unusable:
            lines.insert(rng.randrange(len(lines) + 1), f"{name},{rng.choice('FM')},{rng.randint(0, 9)}")
            skipped += 1
        (directory / f"yob{year}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return expected, skipped


def test_ssa_scale_tree_accounts_for_every_record(tmp_path, caplog):
    # 30 years of 3000 names, about 108k lines. Time and memory are not
    # gated; --durations lists the test when it is among the slowest.
    years = range(1981, 2011)
    expected, skipped = _write_ssa_tree(tmp_path, years, n_names=3000, seed=7)
    caplog.set_level("INFO", logger="gendermix")
    t = ingest_ssa_year_files(tmp_path)
    assert t.source_id == "ssa:1981-2010"
    assert dict(zip(t.keys, map(list, zip(t.female.tolist(), t.male.tolist())))) == expected
    warnings = [r for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == skipped
    assert all("skipped record" in r.getMessage() for r in warnings)
    summaries = [r.getMessage() for r in caplog.records if r.levelname == "INFO"]
    assert summaries == [f"{tmp_path}: skipped {skipped} record(s)"]


def log_lines(caplog, level):
    return [r.getMessage() for r in caplog.records if r.levelname == level]


def test_ssa_recurring_spelling_pools_exactly(tmp_path):
    # One raw spelling on F and M lines of several years, plus a second
    # spelling of the same key.
    write(tmp_path / "yob2019.txt", "Ann,F,3\nBo,M,2\nAnn,M,1\n")
    write(tmp_path / "yob2020.txt", "Bo,F,5\nAnn,F,4\nANN,F,1\nAnn,M,2\n")
    write(tmp_path / "yob2021.txt", "Ann,F,10\n")
    t = ingest_ssa_year_files(tmp_path)
    assert t.keys == ("ann", "bo")
    assert (t.female.tolist(), t.male.tolist()) == ([18, 5], [3, 2])


def test_ssa_recurring_unusable_spelling_warns_on_every_line(tmp_path, caplog):
    y2019 = write(tmp_path / "yob2019.txt", "李,F,3\nAnn,F,1\n李,M,2\n")
    y2020 = write(tmp_path / "yob2020.txt", "Ann,M,1\n李,F,4\n")
    caplog.set_level("INFO", logger="gendermix")
    t = ingest_ssa_year_files(tmp_path)
    assert t.keys == ("ann",)
    skip = "skipped record: no usable letters in name '李'"
    assert log_lines(caplog, "WARNING") == [
        f"{y2019}: line 1: {skip}", f"{y2019}: line 3: {skip}", f"{y2020}: line 2: {skip}",
    ]
    # The total counts skipped lines, not skipped spellings.
    assert log_lines(caplog, "INFO") == [f"{tmp_path}: skipped 3 record(s)"]


def test_ssa_zero_count_line_of_a_known_spelling_warns_with_its_key(tmp_path, caplog):
    y2019 = write(tmp_path / "yob2019.txt", "Ann,F,4\nAnn,M,0\n")
    y2020 = write(tmp_path / "yob2020.txt", "ANN,M,0\nAnn,F,0\nAnn,M,5\n")
    caplog.set_level("INFO", logger="gendermix")
    t = ingest_ssa_year_files(tmp_path)
    assert (t.keys, t.female.tolist(), t.male.tolist()) == (("ann",), [4], [5])
    zero = "skipped record: zero total for 'ann'"
    assert log_lines(caplog, "WARNING") == [
        f"{y2019}: line 2: {zero}", f"{y2020}: line 1: {zero}", f"{y2020}: line 2: {zero}",
    ]
    assert log_lines(caplog, "INFO") == [f"{tmp_path}: skipped 3 record(s)"]


def test_ssa_first_token_pools_recurring_spellings(tmp_path):
    write(tmp_path / "yob2019.txt", "Mary Jo,F,3\nMary  Jo,F,4\nMary,M,1\n")
    write(tmp_path / "yob2020.txt", "Mary Jo,F,5\nMary  Jo,M,2\n")
    t = ingest_ssa_year_files(tmp_path, first_token_only=True)
    assert (t.keys, t.female.tolist(), t.male.tolist()) == (("mary",), [12], [3])
    t = ingest_ssa_year_files(tmp_path)
    assert (t.keys, t.female.tolist(), t.male.tolist()) == (("mary", "mary jo"), [0, 12], [1, 2])


def test_ssa_ingest_normalizes_each_raw_spelling_once(monkeypatch, tmp_path):
    import gendermix.reference as reference

    seen = []

    def counting(raw):
        seen.append(raw)
        return normalize_name(raw)

    monkeypatch.setattr(reference, "normalize_name", counting)
    _write_ssa_tree(tmp_path, range(1981, 1986), n_names=200, seed=3)
    lines = [line for path in tmp_path.iterdir() for line in path.read_text("utf-8").splitlines()]
    ingest_ssa_year_files(tmp_path)
    assert len(lines) > 1000
    assert sorted(seen) == sorted({line.rsplit(",", 2)[0] for line in lines})

    # A spelling that is already its own key is not memoized: it is
    # normalized on each of its lines.
    seen.clear()
    for year in (2019, 2020):
        write(tmp_path / f"yob{year}.txt", "Ann,F,3\nAnn,M,1\nann,F,2\n李,F,1\nBo,M,0\nann,M,2\n")
    ingest_ssa_year_files(tmp_path, years=[2019, 2020])
    assert sorted(seen) == sorted(["Ann", "李", "Bo"] + ["ann"] * 4)


def test_ssa_year_files_need_ascii_digits(tmp_path):
    write(tmp_path / "yob1981.txt", "Ann,F,3\n")
    write(tmp_path / "yob١٩٨١.txt", "Ann,F,4\n")  # Arabic-Indic 1981
    assert ingest_ssa_year_files(tmp_path, years=(1981, 1990)).female.tolist() == [3]
    assert ingest_ssa_year_files(tmp_path).female.tolist() == [3]


def test_ssa_years_must_be_integers(tmp_path):
    for year in range(1981, 1991):
        write(tmp_path / f"yob{year}.txt", f"Ann,F,{year - 1980}\n")

    def read(years):
        t = ingest_ssa_year_files(tmp_path, years=years)
        return t.female.tolist(), t.source_id

    assert read((1981, 1990)) == ([55], "ssa:1981-1990")
    assert read((np.int64(1981), np.int64(1990))) == ([55], "ssa:1981-1990")
    assert read((np.int32(1983), 1984)) == ([7], "ssa:1983-1984")
    assert read([np.int64(1981), 1990]) == ([11], "ssa:1981-1990")
    assert read(range(1985, 1987)) == ([11], "ssa:1985-1986")
    for years in ((1981, 1990.0), [1981.9], (True, 1990), [False], ("1981", "1990"), 1981, (1981.0,)):
        with pytest.raises(InputError, match="years must be"):
            ingest_ssa_year_files(tmp_path, years=years)


@pytest.mark.parametrize("count", ["1_000", "٣", " 1_0", "１"])  # Arabic-Indic 3, fullwidth 1
def test_counts_take_ascii_digits_only(tmp_path, count):
    message = f"line 2: .* count {re.escape(repr(count))} is not an integer"
    write(tmp_path / "yob1981.txt", f"Ann,F,3\nBo,M,{count}\n")
    with pytest.raises(InputError, match=message):
        ingest_ssa_year_files(tmp_path)
    with pytest.raises(InputError, match=message):
        ingest_canonical_csv(write(tmp_path / "r.csv", f"name,female,male\nBo,0,{count}\n"))
    with pytest.raises(InputError, match=message):
        load_target(write(tmp_path / "t.csv", f"name,count\nbo,{count}\n"))


def test_count_messages_for_negative_and_non_integer_counts(tmp_path):
    write(tmp_path / "yob1981.txt", "Ann,F, 12 \nBo,M,-3\n")
    with pytest.raises(InputError, match="line 2: M count must be nonnegative"):
        ingest_ssa_year_files(tmp_path)
    write(tmp_path / "yob1981.txt", "Ann,F, 12 \nBo,M,2.0\n")
    with pytest.raises(InputError, match="line 2: M count '2.0' is not an integer"):
        ingest_ssa_year_files(tmp_path)
    write(tmp_path / "yob1981.txt", "Ann,F, 12 \nBo,M,+4\n")
    assert ingest_ssa_year_files(tmp_path).female.tolist() == [12, 0]


# ---------------------------------------------------------------------------
# filtering and merging


def test_filter_boundary_is_inclusive():
    t = table({"a": (49, 50), "b": (50, 50)})
    kept = filter_min_count(t, 100)
    assert list(kept.entries) == ["b"]
    assert kept.min_count_threshold == 100


def test_filter_zero_is_identity():
    t = table({"a": (1, 0), "b": (0, 2)})
    assert filter_min_count(t, 0).entries == t.entries


def test_filter_empty_result_is_error():
    with pytest.raises(InputError, match="left no names"):
        filter_min_count(table({"a": (2, 3)}), 100)
    with pytest.raises(InputError):
        filter_min_count(table({"a": (2, 3)}), -1)


@given(
    st.dictionaries(
        st.text("abcdef", min_size=1, max_size=3),
        st.tuples(st.integers(0, 40), st.integers(0, 40)).filter(lambda p: sum(p) > 0),
        min_size=1,
        max_size=8,
    ),
    st.integers(0, 30),
    st.integers(0, 30),
)
def test_filter_composition_law(counts, a, b):
    t = table(counts)
    try:
        double = filter_min_count(filter_min_count(t, a), b)
    except InputError:
        with pytest.raises(InputError):
            filter_min_count(t, max(a, b))
        return
    single = filter_min_count(t, max(a, b))
    assert double.entries == single.entries
    assert double.min_count_threshold == single.min_count_threshold


def test_merge_pools_counts():
    a = table({"jean": (1, 999)}, source_id="fr")
    b = table({"jean": (883, 117)}, source_id="us")
    merged = merge([a, b])
    assert merged.entries["jean"].p_female == 884 / 2000
    assert merged.source_id == "fr+us"


def test_merge_single_table_is_identity():
    t = table({"a": (1, 2)}, source_id="x", min_count_threshold=3)
    m = merge([t])
    assert m.entries == t.entries
    assert m.min_count_threshold == 3
    assert m.mode == t.mode


def test_merge_disjoint_keys_is_union():
    m = merge([table({"a": (3, 1)}), table({"b": (0, 7)})])
    assert m.entries["a"].p_female == 0.75
    assert m.entries["b"].male == 7


def test_merge_mode_mismatch():
    full = table({"ana": (1, 0)})
    letters = table({"a": (1, 0)}, mode=MODE_INITIAL)
    with pytest.raises(InputError, match="modes"):
        merge([full, letters])
    with pytest.raises(InputError):
        merge([])


@given(
    st.lists(
        st.dictionaries(
            st.text("abc", min_size=1, max_size=2),
            st.tuples(st.integers(0, 20), st.integers(0, 20)).filter(lambda p: sum(p) > 0),
            min_size=1,
            max_size=4,
        ),
        min_size=2,
        max_size=4,
    )
)
def test_merge_is_order_independent(count_maps):
    tables = [table(c) for c in count_maps]
    forward = merge(tables)
    backward = merge(list(reversed(tables)))
    assert forward.entries == backward.entries
    nested = merge([merge(tables[:2])] + tables[2:])
    assert nested.entries == forward.entries


# ---------------------------------------------------------------------------
# letter reduction


def test_letter_table_last_position():
    t = letter_table(table({"maria": (10, 0)}), "last")
    assert t.entries["a"].female == 10
    assert t.mode == MODE_LAST


def test_letter_table_pools_collisions():
    t = letter_table(table({"ana": (6, 0), "adam": (0, 4)}), "initial")
    assert (t.entries["a"].female, t.entries["a"].male) == (6, 4)
    assert t.mode == MODE_INITIAL


def test_letter_table_uses_first_character():
    t = letter_table(table({"jean-pierre": (0, 5)}), "initial")
    assert t.entries["j"].male == 5


def test_letter_table_skips_and_errors(caplog):
    src = table({"1x": (2, 0), "ana": (3, 0)})
    with caplog.at_level("WARNING"):
        t = letter_table(src, "initial")
    assert list(t.entries) == ["a"]
    with pytest.raises(InputError, match="skipped"):
        letter_table(table({"1x": (2, 0)}), "initial")
    with pytest.raises(InputError, match="full-name"):
        letter_table(t, "initial")
    with pytest.raises(InputError, match="position"):
        letter_table(src, "middle")


@pytest.mark.parametrize("n_skipped", [10, 14])
def test_letter_table_names_ten_skips_then_counts_the_rest(caplog, n_skipped):
    counts = {f"{i:02d}x": (1, 1) for i in range(n_skipped)}
    counts["ana"] = (3, 0)
    with caplog.at_level("INFO", logger="gendermix"):
        letter_table(table(counts), "initial")
    records = [(r.levelname, r.getMessage()) for r in caplog.records]
    named = [("WARNING", f"letter_table: skipped '{i:02d}x' (no initial letter)") for i in range(10)]
    rest = n_skipped - 10
    summary = [("WARNING", f"letter_table: skipped {rest} more name(s) (no initial letter)")]
    assert records == named + (summary if rest else []) + [
        ("INFO", f"letter_table: skipped {2 * n_skipped} individual(s)")
    ]


@given(
    st.dictionaries(
        st.text("ab1", min_size=1, max_size=3).filter(lambda s: any(c.isalpha() for c in s)),
        st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(lambda p: sum(p) > 0),
        min_size=1,
        max_size=8,
    )
)
def test_letter_table_conserves_individuals(counts):
    t = table(counts)
    skipped = sum(c.total for k, c in t.entries.items() if not k[0].isalpha())
    try:
        letters = letter_table(t, "initial")
    except InputError:
        assert skipped == t.total_individuals
        return
    assert letters.total_individuals + skipped == t.total_individuals


def test_letter_target_projects_counts():
    projected = letter_target(TargetList({"ana": 2, "adam": 3, "bo": 1, "1x": 9}), "initial")
    assert projected.entries == {"a": 5, "b": 1}
    with pytest.raises(InputError, match="dropped every"):
        letter_target(TargetList({"1x": 9}), "initial")


# ---------------------------------------------------------------------------
# bucket sums: merge and the three letter projections


def _a_names(values):
    """The values under keys that share the initial 'a' and sort in the given order."""
    return {f"a{i:04d}": value for i, value in enumerate(values)}


def _bucket_a(pooler, counts):
    """Pool integer ``(female, male)`` counts into one bucket with ``pooler``
    (key 'ana' for merge, letter 'a' otherwise); the bucket's value back."""
    if pooler == "merge":
        return merge([table({"ana": fm}) for fm in counts]).entries["ana"]
    if pooler == "letter_table":
        return letter_table(table(_a_names(counts)), "initial").entries["a"]
    if pooler == "letter_target":
        return letter_target(TargetList(_a_names([f + m for f, m in counts])), "initial").entries["a"]
    entries = _a_names(counts)
    population = LabeledPopulation(entries, _beta_of(*_true_columns(entries)), 0, "natural")
    return letter_population(population, "initial").entries["a"]


_POOLERS = ("merge", "letter_table", "letter_target", "letter_population")
_TOTAL_TOO_LARGE = "counts of {!r} total 2**53 or more; a name's total must stay below 2**53"
_COUNT_TOO_LARGE = "{} for 'a' is 2**53 or more; it must stay below 2**53"


@pytest.mark.parametrize("pooler", _POOLERS)
@pytest.mark.parametrize("counts", [[(2**52, 0), (2**52 - 1, 0)], [(2**52, 0), (0, 2**52 - 1)]])
def test_integer_bucket_total_below_2_53_stays_exact(pooler, counts):
    value = _bucket_a(pooler, counts)
    female, male = map(sum, zip(*counts))
    expected = {"merge": GenderCounts(female, male), "letter_table": GenderCounts(female, male),
                "letter_target": MAX_TOTAL - 1, "letter_population": (female, male)}[pooler]
    assert value == expected
    assert repr(value) == repr(expected)  # Python ints, no float on the way


@pytest.mark.parametrize("pooler", _POOLERS)
@pytest.mark.parametrize("counts", [
    [(2**52, 0), (2**52, 0)],  # one gender reaches 2**53
    [(2**52, 0), (0, 2**52)],  # only the total does
    [(MAX_TOTAL - 1, 0)] * 2049,  # past 2**64; wrapped, it would read 2**53 - 2049
])
def test_integer_bucket_total_of_2_53_or_more_is_rejected(pooler, counts):
    # A population checks each gender before the total, like its constructor.
    one_gender = counts[1][1] == 0
    message = {
        "merge": _TOTAL_TOO_LARGE.format("ana"),
        "letter_table": _TOTAL_TOO_LARGE.format("a"),
        "letter_target": _COUNT_TOO_LARGE.format("target count"),
        "letter_population": (_COUNT_TOO_LARGE.format("true count") if one_gender
                              else _TOTAL_TOO_LARGE.format("a")),
    }[pooler]
    with pytest.raises(InputError) as info:
        _bucket_a(pooler, counts)
    assert str(info.value) == message


def test_real_target_buckets_add_in_sorted_key_order():
    counts = [0.1, 0.2, 0.3] * 3
    expected = _left_to_right(np.array(counts))
    assert expected not in (float(np.sum(counts)), math.fsum(counts))
    target = TargetList(dict(reversed(_a_names(counts).items())))
    assert repr(letter_target(target, "initial").entries["a"]) == repr(expected)


def test_real_population_buckets_add_in_sorted_key_order():
    # eta 0.1 keeps female * 0.1 of each name: 0.1, 0.2, 0.30000000000000004, ...
    reference = table(dict(reversed(_a_names([(f, 1) for f in range(1, 11)]).items())))
    population = apply_pipeline(reference, PipelineRatio(0.1), "expected")
    kept = population.female
    expected = _left_to_right(kept)
    assert expected not in (float(np.sum(kept)), math.fsum(kept.tolist()), _left_to_right(kept[::-1]))
    assert letter_population(population, "initial").entries["a"] == (expected, 10.0)
    # Given out of order, the names are still summed in sorted-key order.
    entries = dict(reversed(list(population.entries.items())))
    shuffled = LabeledPopulation(entries, population.beta_true, 0, "expected")
    assert letter_population(shuffled, "initial").entries["a"] == (expected, 10.0)


# ---------------------------------------------------------------------------
# entropy and inclination shift


def test_entropy_known_values():
    assert name_entropy(table({"a": (1, 0), "b": (1, 0), "c": (1, 0), "d": (1, 0)})) == 2.0
    assert name_entropy(table({"solo": (5, 5)})) == 0.0
    expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    assert name_entropy(table({"a": (3, 0), "b": (1, 0)})) == pytest.approx(expected, abs=1e-12)
    assert name_entropy(table({"a": (3, 0), "b": (1, 0)})) == pytest.approx(0.811278, abs=1e-6)


@given(
    st.dictionaries(
        st.text("abcdefgh", min_size=1, max_size=4),
        st.tuples(st.integers(0, 10**12), st.integers(0, 10**12)).filter(lambda fm: sum(fm) > 0),
        min_size=1,
        max_size=20,
    ),
    st.randoms(use_true_random=False),
)
def test_entropy_ignores_key_order(counts, rnd):
    items = list(counts.items())
    rnd.shuffle(items)
    shuffled = table(dict(items))
    total = shuffled.total_individuals
    expected = -math.fsum(
        (c.total / total) * math.log2(c.total / total)
        for _, c in sorted(shuffled.entries.items())
    )
    assert name_entropy(shuffled).hex() == expected.hex()


def test_target_csv_writes_real_weights_at_twelve_digits(tmp_path):
    path = tmp_path / "t.csv"
    export_target_csv(TargetList({"ana": 2.5, "bo": 1 / 3, "cy": 7, "di": 1e20}), path)
    assert path.read_text(encoding="utf-8") == (
        "name,count\nana,2.5\nbo,0.333333333333\ncy,7\ndi,1e+20\n"
    )


def test_inclination_shift_rows():
    x = table({"jean": (1, 1999), "anne": (900, 100), "rare": (1, 1)})
    combined = table({"jean": (1500, 500), "anne": (900, 100), "rare": (1, 1)})
    rows = inclination_shift(x, combined, top_k=3)
    assert [r.key for r in rows] == ["jean", "anne", "rare"]
    jean = rows[0]
    assert jean.frequency_rel == 1.0
    # delta moved from -0.999 to +0.5: relative change 1.499/0.999.
    assert jean.sigma == pytest.approx(1.499 / 0.999, rel=1e-12)
    assert jean.sigma == pytest.approx(1.5005, abs=1e-3)
    assert rows[1].sigma == 0.0
    assert rows[2].sigma is None  # unisex in x: shift undefined
    assert rows[1].frequency_rel == 1000 / 2000


def test_inclination_shift_limits_and_errors():
    x = table({"a": (9, 1), "b": (8, 2)})
    combined = table({"a": (9, 1)})
    rows = inclination_shift(x, combined, top_k=5)
    assert [r.key for r in rows] == ["a"]  # b missing from the pooled table
    tied = table({"zed": (5, 5), "amy": (4, 6), "bo": (10, 0), "cy": (20, 1)})
    assert [r.key for r in inclination_shift(tied, tied, top_k=4)] == ["cy", "amy", "bo", "zed"]
    with pytest.raises(InputError):
        inclination_shift(x, combined, top_k=0)
    letters = table({"a": (1, 0)}, mode=MODE_INITIAL)
    with pytest.raises(InputError, match="full-name"):
        inclination_shift(letters, combined, top_k=1)


# ---------------------------------------------------------------------------
# round trips and target loading


def test_export_ingest_round_trip(tmp_path):
    t = table({"zoe": (9, 1), "ana maria": (5, 0), "bo": (2, 8)})
    path = tmp_path / "t.csv"
    export_canonical_csv(t, path)
    again = ingest_canonical_csv(path)
    assert again.entries == t.entries
    export_canonical_csv(again, tmp_path / "t2.csv")
    assert (tmp_path / "t2.csv").read_bytes() == path.read_bytes()


def test_export_is_sorted_and_lf(tmp_path):
    path = tmp_path / "t.csv"
    export_canonical_csv(table({"b": (1, 0), "a": (0, 2)}), path)
    assert path.read_text(encoding="utf-8") == "name,female,male\na,0,2\nb,1,0\n"


def test_load_target_csv(tmp_path):
    path = write(tmp_path / "t.csv", "name,count\nAna,3\nANA,2\nbo,1\n")
    target = load_target(path)
    assert target.entries == {"ana": 5, "bo": 1}
    with pytest.raises(InputError, match="positive"):
        load_target(write(tmp_path / "z.csv", "name,count\nana,0\n"))
    with pytest.raises(InputError, match="header"):
        load_target(write(tmp_path / "h.csv", "name,total\nana,1\n"))


def test_load_target_names_format(tmp_path):
    path = write(tmp_path / "t.txt", "Ana\n\n  ana \nJosé\n123\nbo\n")
    target = load_target(path, fmt="names")
    assert target.entries == {"ana": 2, "jose": 1, "bo": 1}
    with pytest.raises(InputError, match="format"):
        load_target(path, fmt="tsv")
    with pytest.raises(InputError, match="no usable"):
        load_target(write(tmp_path / "e.txt", "123\n"), fmt="names")


def test_target_csv_round_trip(tmp_path):
    target = TargetList({"ana": 3, "bo": 1})
    path = tmp_path / "t.csv"
    export_target_csv(target, path)
    assert load_target(path).entries == target.entries
    assert path.read_text(encoding="utf-8") == "name,count\nana,3\nbo,1\n"
