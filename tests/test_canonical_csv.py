"""The canonical ``name,female,male`` loader, pinned file by file.

Each case gives a file's content and either the table it loads to (keys in
order, counts, int64 columns, ``source_id``) or the exact error, plus the
``gendermix`` log records of the load, in order. A file in the form
``export_canonical_csv`` writes is built by column; every other file goes
through the row loop (``reference._keyed_counts``), and the tests below
check which way each file takes and that both ways agree.
"""

import itertools
import logging
import string
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gendermix import InputError, ReferenceTable, cli, export_canonical_csv, ingest_canonical_csv, reference

TOOL_WRITTEN = "name,female,male\nana,10,0\nbo,0,3\nmary jo,4,1\n"
TOOL_WRITTEN_TABLE = {"ana": (10, 0), "bo": (0, 3), "mary jo": (4, 1)}
TWO_ROWS = {"ana": (10, 0), "bo": (0, 3)}
ANA = {"ana": (10, 0)}


def one_row(name="ana", female="10", male="0"):
    return f"name,female,male\n{name},{female},{male}\n"


def skip(line, reason):
    return ("WARNING", f"{{path}}: line {line}: skipped record: {reason}")


SKIPPED_ONE = ("INFO", "{path}: skipped 1 record(s)")
TOO_LARGE = "counts of 'ana' total 2**53 or more; a name's total must stay below 2**53"

# case: (file content, keyword arguments, expected table or error message, log records)
CASES = {
    "tool-written": (TOOL_WRITTEN, {}, TOOL_WRITTEN_TABLE, []),
    "tool-written-first-token": (TOOL_WRITTEN, {"first_token_only": True},
                                 {"ana": (10, 0), "bo": (0, 3), "mary": (4, 1)}, []),
    "empty-table": ("name,female,male\n", {}, {}, []),
    "source-id": (TOOL_WRITTEN, {"source_id": "census"}, TOOL_WRITTEN_TABLE, []),
    "bom": ("\ufeff" + TOOL_WRITTEN, {}, TOOL_WRITTEN_TABLE, []),
    "crlf": (TOOL_WRITTEN.replace("\n", "\r\n"), {}, TOOL_WRITTEN_TABLE, []),
    "lone-cr": ("name,female,male\nana,10,0\rbo,0,3\n", {}, TWO_ROWS, []),
    "quoted-comma": ('name,female,male\n"ana,bo",1,2\nbo,0,3\n', {}, {"ana,bo": (1, 2), "bo": (0, 3)}, []),
    "quoted-name": ('name,female,male\n"ana",10,0\n', {}, ANA, []),
    "blank-line-mid-file": ("name,female,male\nana,10,0\n\nbo,0,3\n", {}, TWO_ROWS, []),
    "blank-line-at-end": ("name,female,male\nana,10,0\n\n", {}, ANA, []),
    "no-final-newline": ("name,female,male\nana,10,0\nbo,0,3", {}, TWO_ROWS, []),
    "one-field-unended": ("name,female,male\nana,10,0\nbo", {}, "{path}: line 3: expected 3 columns, got 1", []),
    "spaced-header": ("name, female ,male\nana,10,0\n", {}, ANA, []),
    "duplicate-key": ("name,female,male\nana,10,0\nbo,0,3\nana,1,2\n", {},
                      {"ana": (11, 2), "bo": (0, 3)}, []),
    "adjacent-duplicate-key": ("name,female,male\nana,10,0\nana,1,2\nbo,0,3\n", {},
                               {"ana": (11, 2), "bo": (0, 3)}, []),
    "keys-out-of-order": ("name,female,male\nbo,0,3\nana,10,0\n", {}, TWO_ROWS, []),
    "zero-total": ("name,female,male\nana,10,0\nbo,0,0\n", {}, ANA,
                   [skip(3, "zero total for 'bo'"), SKIPPED_ONE]),
    "uppercase-key": (one_row("Ana"), {}, ANA, []),
    "uppercase-duplicate": ("name,female,male\nana,10,0\nANA,1,2\n", {}, {"ana": (11, 2)}, []),
    "non-ascii-key": (one_row("łukasz", "0", "7"), {}, {"łukasz": (0, 7)}, []),
    "accented-key": (one_row("josé"), {}, {"jose": (10, 0)}, []),
    "internal-space": ("name,female,male\nmary jo,4,1\nmary,1,0\n", {}, {"mary": (1, 0), "mary jo": (4, 1)}, []),
    "internal-space-first-token": ("name,female,male\nmary jo,4,1\nmary,1,0\n", {"first_token_only": True},
                                   {"mary": (5, 1)}, []),
    "leading-space": (one_row(" ana"), {}, ANA, []),
    "trailing-space": (one_row("ana "), {}, ANA, []),
    "double-space": (one_row("mary  jo"), {}, {"mary jo": (10, 0)}, []),
    "tab": (one_row("mary\tjo"), {}, {"mary jo": (10, 0)}, []),
    "nul": (one_row("a\x00b"), {}, {"a\x00b": (10, 0)}, []),
    "no-letter": ("name,female,male\n123,1,0\nana,10,0\n", {}, ANA,
                  [skip(2, "no usable letters in name '123'"), SKIPPED_ONE]),
    "empty-name": ("name,female,male\n,1,0\nana,10,0\n", {}, ANA,
                   [skip(2, "no usable letters in name ''"), SKIPPED_ONE]),
    "count-space": (one_row(female=" 5"), {}, {"ana": (5, 0)}, []),
    "count-plus": (one_row(female="+5"), {}, {"ana": (5, 0)}, []),
    "count-leading-zeros": (one_row(female="007"), {}, {"ana": (7, 0)}, []),
    "count-arabic-indic": (one_row(female="٥"), {}, "{path}: line 2: female count '٥' is not an integer", []),
    "count-underscore": (one_row(female="1_0"), {}, "{path}: line 2: female count '1_0' is not an integer", []),
    "count-empty": (one_row(male=""), {}, "{path}: line 2: male count '' is not an integer", []),
    "count-negative": (one_row(female="-1"), {}, "{path}: line 2: female count must be nonnegative", []),
    "count-2**53-1": (one_row(female=str(2**53 - 1)), {}, {"ana": (2**53 - 1, 0)}, []),
    "count-2**53": (one_row(female=str(2**53)), {}, TOO_LARGE, []),
    "count-2**63": (one_row(male=str(2**63)), {}, TOO_LARGE, []),
    "count-5000-digits": (one_row(female="1" * 5000), {}, "{path}: line 2: female count '"
                          + "1" * 5000 + "' is not an integer", []),
    "total-2**53": (one_row(female=str(2**52), male=str(2**52)), {}, TOO_LARGE, []),
    "short-row-after-skip": ("name,female,male\n123,1,0\nana,1\n", {},
                             "{path}: line 3: expected 3 columns, got 2",
                             [skip(2, "no usable letters in name '123'")]),
    "misaligned": ("name,female,male\na,1\n2,b,3,4\n", {}, "{path}: line 2: expected 3 columns, got 2", []),
    "four-columns": ("name,female,male\nana,10,0,\n", {}, "{path}: line 2: expected 3 columns, got 4", []),
    # csv.field_size_limit() is 131072 characters by default.
    "name-at-field-limit": (one_row("a" * 131072), {}, {"a" * 131072: (10, 0)}, []),
    "name-over-field-limit": ("name,female,male\nana,10,0\n" + "a" * 131073 + ",1,0\n", {},
                              "{path}: line 3: field larger than field limit (131072)", []),
    "bad-header": ("nome,female,male\nana,10,0\n", {}, "{path}: bad header 'nome,female,male', "
                   "expected 'name,female,male'", []),
    "empty-file": ("", {}, "{path}: empty file, expected header name,female,male", []),
    "not-utf-8-after-a-skip": (b"name,female,male\n123,1,0\n" + b"ana,1,0\n" * 3000 + b"zo\xe9,1,0\n", {},
                               "{path}: not UTF-8 text (invalid continuation byte)",
                               [skip(2, "no usable letters in name '123'")]),
}


def load(tmp_path, content, kwargs):
    """Write ``content`` to a file and load it; return the path and the
    table, or the exception."""
    path = tmp_path / "r.csv"
    path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    try:
        return path, ingest_canonical_csv(path, **kwargs)
    except InputError as exc:
        return path, exc


@pytest.mark.parametrize("case", CASES)
def test_canonical_csv_loads_as_pinned(tmp_path, caplog, case):
    content, kwargs, expected, logs = CASES[case]
    caplog.set_level(logging.DEBUG, logger="gendermix")
    path, result = load(tmp_path, content, kwargs)
    if isinstance(expected, str):
        assert isinstance(result, InputError)
        assert str(result) == expected.format(path=path)
    else:
        assert result.keys == tuple(expected)
        assert result.female.tolist() == [female for female, _ in expected.values()]
        assert result.male.tolist() == [male for _, male in expected.values()]
        assert result.female.dtype == result.male.dtype == "int64"
        assert result.source_id == kwargs.get("source_id", "r.csv")
    records = [(r.name, r.levelname, r.getMessage()) for r in caplog.records]
    assert records == [("gendermix.reference", level, text.format(path=path)) for level, text in logs]


@pytest.mark.parametrize(
    "keys, expected",
    [
        ("a,5,1\nb,0,3\n", {"a": (5, 1), "b": (0, 3)}),
        ("a,5,1\nbo,0,3\n", "letter-mode table key must be a single letter, got 'bo'"),
        ("a,5,1\nx y,0,3\n", "letter-mode table key must be a single letter, got 'x y'"),
    ],
    ids=["letters", "two-letter-key", "spaced-key"],
)
def test_sidecar_letter_table_loads_through_the_cli_as_pinned(tmp_path, keys, expected):
    path = tmp_path / "letters.csv"
    path.write_text("name,female,male\n" + keys, encoding="utf-8")
    sidecar = tmp_path / "letters.csv.meta.json"
    sidecar.write_text('{"mode": "initial-letter", "source_id": "ssa:initial"}', encoding="utf-8")
    if isinstance(expected, str):
        with pytest.raises(InputError) as info:
            cli._load_table(path)
        assert str(info.value) == f"bad table sidecar {sidecar}: {expected}"
        return
    table = cli._load_table(path)
    assert (table.mode, table.source_id) == ("initial-letter", "ssa:initial")
    assert dict(zip(table.keys, zip(table.female.tolist(), table.male.tolist()))) == expected


# The matrix cases in the form export_canonical_csv writes, in any key order;
# every other case has something the row loop must read, skip, pool or report.
BY_COLUMN = {
    "tool-written", "empty-table", "source-id", "bom", "internal-space", "keys-out-of-order",
    "count-leading-zeros", "count-2**53-1", "count-2**53", "total-2**53", "name-at-field-limit",
}


def recording_row_loop(monkeypatch):
    """Record each call of the row loop's keying step, which it still makes."""
    calls = []
    keyed_counts = reference._keyed_counts
    monkeypatch.setattr(reference, "_keyed_counts", lambda *args: calls.append(args) or keyed_counts(*args))
    return calls


@pytest.mark.parametrize("case", CASES)
def test_only_files_in_export_form_load_by_column(tmp_path, monkeypatch, case):
    content, kwargs, _, _ = CASES[case]
    calls = recording_row_loop(monkeypatch)
    load(tmp_path, content, kwargs)
    assert bool(calls) is (case not in BY_COLUMN)


KEY_TOKENS = st.text(alphabet=string.ascii_lowercase + string.digits + "-'.", min_size=1, max_size=6)
CANONICAL_KEYS = st.lists(KEY_TOKENS, min_size=1, max_size=3).map(" ".join).filter(str.islower)
COUNTS = st.tuples(st.integers(0, 2**52), st.integers(0, 2**52)).filter(any)


@given(st.dictionaries(CANONICAL_KEYS, COUNTS, max_size=40), st.booleans())
def test_tool_written_tables_round_trip_by_column(tmp_path_factory, counts, first_token_only):
    if first_token_only:  # a key with a space goes to the row loop, which keeps its first token
        counts = {key: value for key, value in counts.items() if " " not in key}
    path = tmp_path_factory.mktemp("round-trip") / "t.csv"
    export_canonical_csv(ReferenceTable.from_counts(counts), path)
    with pytest.MonkeyPatch.context() as patch:
        calls = recording_row_loop(patch)
        loaded = ingest_canonical_csv(path, first_token_only=first_token_only)
    assert calls == []
    assert loaded == ReferenceTable.from_counts(counts, source_id="t.csv")
    assert loaded.keys == tuple(sorted(counts))
    assert loaded.female.dtype == loaded.male.dtype == "int64"


@given(st.dictionaries(CANONICAL_KEYS, COUNTS, min_size=2, max_size=40), st.randoms())
def test_export_form_with_keys_out_of_order_loads_sorted_by_column(tmp_path_factory, counts, rnd):
    """A file in export form but for its key order loads by column, sorted,
    to the table the row loop gives and the exported file loads to."""
    path = tmp_path_factory.mktemp("out-of-order") / "t.csv"
    export_canonical_csv(ReferenceTable.from_counts(counts), path)
    in_order = ingest_canonical_csv(path)
    header, *lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    shuffled = lines[:]
    while shuffled == lines:
        rnd.shuffle(shuffled)
    path.write_text(header + "".join(shuffled), encoding="utf-8", newline="")
    with pytest.MonkeyPatch.context() as patch:
        calls = recording_row_loop(patch)
        loaded = ingest_canonical_csv(path)
        assert calls == []
        patch.setattr(reference, "_exported_table", lambda *args: None)
        by_row = ingest_canonical_csv(path)
    assert loaded == by_row == in_order == ReferenceTable.from_counts(counts, source_id="t.csv")
    assert loaded.keys == tuple(sorted(counts))


def outcome(path, **kwargs):
    """What loading ``path`` gives: the table's columns or the error, and the
    ``gendermix`` log records, in order."""
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("gendermix")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        table = ingest_canonical_csv(path, **kwargs)
        result = (table.keys, table.female.tolist(), table.male.tolist(), str(table.female.dtype),
                  str(table.male.dtype), table.source_id)
    except InputError as exc:
        result = str(exc)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    return result, [(r.levelname, r.getMessage()) for r in records]


# A tool-written file, and texts to insert into it: each either keeps the
# export form or makes a file the row loop must read, skip, pool or report.
NEIGHBOURED = "name,female,male\na,1,0\nana,10,0\nbo,0,3\nmary jo,4,1\n"
INSERTS = ["", " ", ",", "\n", "\r", '"', "A", "é", "\t", "\x00", "\x7f", "0", "-", "+", "_", "٥", "a",
           "a,1,0\n", ",0,0\n", "9" * 19]


@pytest.mark.parametrize("inserted", INSERTS)
def test_loading_by_column_agrees_with_the_row_loop(tmp_path, monkeypatch, inserted):
    """Every file one edit away from a tool-written one (a character
    deleted, or not, and a text inserted, at each position) loads to the
    same table or error, with the same log records, by column and by row."""
    path = tmp_path / "r.csv"
    for position, deleted, first_token_only in itertools.product(range(len(NEIGHBOURED) + 1), (0, 1),
                                                                   (False, True)):
        path.write_text(NEIGHBOURED[:position] + inserted + NEIGHBOURED[position + deleted:],
                        encoding="utf-8", newline="")
        either = outcome(path, first_token_only=first_token_only)
        with monkeypatch.context() as patch:
            patch.setattr(reference, "_exported_table", lambda *args: None)
            assert either == outcome(path, first_token_only=first_token_only)


def traced_peak(path) -> int:
    tracemalloc.start()
    try:
        ingest_canonical_csv(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_loading_by_column_allocates_no_more_than_the_row_loop(tmp_path, monkeypatch):
    names = ("".join(letters) for letters in itertools.product(string.ascii_lowercase, repeat=4))
    counts = {name: (i * 7919 % 100_000, i % 3 + 1) for i, name in zip(range(20_000), names)}
    path = tmp_path / "t.csv"
    export_canonical_csv(ReferenceTable.from_counts(counts), path)
    calls = recording_row_loop(monkeypatch)
    by_column = traced_peak(path)
    assert calls == []
    monkeypatch.setattr(reference, "_exported_table", lambda *args: None)
    by_row = traced_peak(path)
    assert len(calls) == 1
    assert by_column <= by_row
