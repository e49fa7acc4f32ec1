"""Name-frequency reference tables and target name lists.

File formats handled here:

* canonical reference CSV: UTF-8, header exactly ``name,female,male``,
  one row per name with nonnegative integer counts;
* SSA-style year files: ``yobYYYY.txt`` inside a directory, each line
  ``Name,Sex,Count`` with ``Sex`` one of ``F``/``M``;
* canonical target CSV: header ``name,count``; or a plain newline-separated
  list of names, one occurrence per line.

Tables and target lists are immutable after construction. Exported CSV is
byte-deterministic (keys sorted lexicographically, LF newlines).
"""

import csv
import logging
import math
import re
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from ._fmt import fmt_float
from .errors import InputError, SkippedRecord

logger = logging.getLogger(__name__)

MODE_FULL_NAME = "full-name"
MODE_INITIAL = "initial-letter"
MODE_LAST = "last-letter"
MODES = (MODE_FULL_NAME, MODE_INITIAL, MODE_LAST)

POSITION_INITIAL = "initial"
POSITION_LAST = "last"
# The table mode of each letter projection, by the name position it reads.
_LETTER_MODES = {POSITION_INITIAL: MODE_INITIAL, POSITION_LAST: MODE_LAST}

_ASCII_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyz")
_WS_RUN = re.compile(r"\s+")
_YOB_FILE = re.compile(r"^yob(\d{4})\.txt$")
_REFERENCE_HEADER = ["name", "female", "male"]
_TARGET_HEADER = ["name", "count"]


def _fold(text: str) -> str:
    # Canonical decomposition, then drop combining marks: e -> e, e+acute -> e.
    # ASCII text has neither decompositions nor combining marks.
    if text.isascii():
        return text
    decomposed = unicodedata.normalize("NFD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def normalize_name(raw: str) -> str:
    """Normalize a raw name into its canonical key.

    The key is trimmed, lowercased, has diacritics folded to base letters
    (canonical decomposition with combining marks removed) and internal
    whitespace runs collapsed to single spaces. Hyphens are preserved, so
    ``Jean-Pierre`` and ``jean pierre`` stay distinct.

    Raises :class:`SkippedRecord` when nothing usable remains: an empty
    result, or a string without a single Latin letter after folding (names
    written in scripts we cannot transliterate are skipped, not guessed).
    """
    key = _WS_RUN.sub(" ", _fold(raw)).strip().lower()
    if not any(ch in _ASCII_LETTERS for ch in key):
        raise SkippedRecord(f"no usable letters in name {raw!r}")
    return key


def first_token(key: str) -> str:
    """First whitespace-separated token of a canonical key."""
    return key.split(" ", 1)[0]


@dataclass(frozen=True)
class GenderCounts:
    """Per-name pair of nonnegative integer counts, at least one positive."""

    female: int
    male: int

    def __post_init__(self) -> None:
        for label, value in (("female", self.female), ("male", self.male)):
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise InputError(f"{label} count must be a nonnegative integer, got {value!r}")
        if self.female + self.male == 0:
            raise InputError("a stored name must have a positive total count")

    @property
    def total(self) -> int:
        return self.female + self.male

    @property
    def p_female(self) -> float:
        return self.female / self.total

    @property
    def p_male(self) -> float:
        # Defined as the exact complement so p_female + p_male == 1 holds
        # bit-for-bit; it may differ from male/total by one ulp.
        return 1.0 - self.p_female

    @property
    def inclination(self) -> float:
        """Signed gender inclination 2*p_female - 1, in [-1, 1]."""
        return 2.0 * self.p_female - 1.0


@dataclass(frozen=True)
class ReferenceTable:
    """Immutable mapping from canonical keys to gender counts.

    ``mode`` records what the keys are: whole first names, initial letters
    or last letters. In the letter modes every key is a single lowercase
    Latin letter.
    """

    entries: dict[str, GenderCounts]
    source_id: str = ""
    min_count_threshold: int = 0
    mode: str = MODE_FULL_NAME

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise InputError(f"unknown table mode {self.mode!r}")
        if self.min_count_threshold < 0:
            raise InputError("min_count_threshold must be nonnegative")
        for key in self.entries:
            if not key:
                raise InputError("empty key in reference table")
            if self.mode != MODE_FULL_NAME and key not in _ASCII_LETTERS:
                raise InputError(f"letter-mode table key must be a single letter, got {key!r}")

    @classmethod
    def from_counts(
        cls,
        counts: dict[str, tuple[int, int]],
        source_id: str = "",
        min_count_threshold: int = 0,
        mode: str = MODE_FULL_NAME,
    ) -> "ReferenceTable":
        entries = {k: GenderCounts(f, m) for k, (f, m) in counts.items()}
        return cls(entries, source_id, min_count_threshold, mode)

    @property
    def total_individuals(self) -> int:
        return sum(c.total for c in self.entries.values())

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, key: str) -> bool:
        return key in self.entries


@dataclass(frozen=True)
class TargetList:
    """Immutable multiset of canonical keys: the group to be analyzed.

    File loaders always produce positive integer counts. Simulator
    projections may carry positive real-valued weights (the expected-count
    pipeline produces fractional individuals); every estimator is linear in
    the weights, so both work identically.
    """

    entries: dict[str, int | float]

    def __post_init__(self) -> None:
        if not self.entries:
            raise InputError("target list is empty")
        for key, count in self.entries.items():
            if not key:
                raise InputError("empty key in target list")
            if not math.isfinite(count) or count <= 0:
                raise InputError(f"target count for {key!r} must be positive, got {count!r}")

    @property
    def total_individuals(self) -> int | float:
        return sum(self.entries.values())

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, key: str) -> bool:
        return key in self.entries


def _read_csv_rows(path: str | Path, expected_header: list[str]):
    path = Path(path)
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise InputError(f"cannot open {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file, expected header {','.join(expected_header)}")
        if [h.strip() for h in header] != expected_header:
            raise InputError(
                f"{path}: bad header {','.join(header)!r}, expected {','.join(expected_header)!r}"
            )
        for row in reader:
            if not row:
                continue
            yield reader.line_num, row


def _parse_count(path: Path, line_num: int, text: str, column: str) -> int:
    try:
        value = int(text.strip())
    except ValueError:
        raise InputError(f"{path}: line {line_num}: {column} count {text!r} is not an integer")
    if value < 0:
        raise InputError(f"{path}: line {line_num}: {column} count must be nonnegative")
    return value


def _pool_counts(rows: Iterable[tuple[str, int | float, int | float]]) -> dict[str, list]:
    """Sum streamed ``(key, female, male)`` rows into per-key ``[female, male]``.

    Keys keep first-seen order and sums accumulate in the order the caller
    streams rows. Single-count callers stream their count as ``female``.
    """
    pooled: dict[str, list] = {}
    for key, female, male in rows:
        slot = pooled.setdefault(key, [0, 0])
        slot[0] += female
        slot[1] += male
    return pooled


def ingest_canonical_csv(
    path: str | Path,
    source_id: str | None = None,
    first_token_only: bool = False,
) -> ReferenceTable:
    """Read a canonical ``name,female,male`` CSV into a full-name table.

    Malformed rows are hard errors naming the offending line. Rows whose
    two counts are both zero are dropped with a skipped-record notice, as
    are names that cannot be normalized. Duplicate keys are summed.
    """
    path = Path(path)
    skipped = 0

    def rows() -> Iterator[tuple[str, int, int]]:
        nonlocal skipped
        for line_num, row in _read_csv_rows(path, _REFERENCE_HEADER):
            if len(row) != 3:
                raise InputError(f"{path}: line {line_num}: expected 3 columns, got {len(row)}")
            female = _parse_count(path, line_num, row[1], "female")
            male = _parse_count(path, line_num, row[2], "male")
            try:
                key = normalize_name(row[0])
            except SkippedRecord as exc:
                logger.warning("%s: line %d: skipped record: %s", path, line_num, exc)
                skipped += 1
                continue
            if first_token_only:
                key = first_token(key)
            if female + male == 0:
                logger.warning("%s: line %d: skipped record: zero total for %r", path, line_num, key)
                skipped += 1
                continue
            yield key, female, male

    counts = _pool_counts(rows())
    if skipped:
        logger.info("%s: skipped %d record(s)", path, skipped)
    entries = {k: GenderCounts(f, m) for k, (f, m) in counts.items()}
    return ReferenceTable(entries, source_id=source_id if source_id is not None else path.name)


def ingest_ssa_year_files(
    directory: str | Path,
    years: tuple[int, int] | Iterable[int] | None = None,
    source_id: str | None = None,
    first_token_only: bool = False,
) -> ReferenceTable:
    """Aggregate ``yobYYYY.txt`` files from a directory into one table.

    ``years`` restricts which files are read: either an inclusive
    ``(start, end)`` pair or an explicit iterable of years; ``None`` takes
    every year file found. No matching file is a hard error, as is any
    malformed line (wrong delimiter, unknown sex code, bad count). Lines
    with a zero count are dropped with a skipped-record notice, as are
    names that cannot be normalized.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise InputError(f"{directory} is not a directory")
    wanted: set[int] | None
    if years is None:
        wanted = None
    elif isinstance(years, tuple) and len(years) == 2 and all(isinstance(y, int) for y in years):
        lo, hi = years
        if lo > hi:
            raise InputError(f"year range {lo}:{hi} is inverted")
        wanted = set(range(lo, hi + 1))
    else:
        wanted = {int(y) for y in years}

    files: list[tuple[int, Path]] = []
    for entry in sorted(directory.iterdir()):
        match = _YOB_FILE.match(entry.name)
        if match and (wanted is None or int(match.group(1)) in wanted):
            files.append((int(match.group(1)), entry))
    if not files:
        raise InputError(f"no yobYYYY.txt files matching the requested years in {directory}")

    skipped = 0

    def rows() -> Iterator[tuple[str, int, int]]:
        nonlocal skipped
        for _, file_path in files:
            with open(file_path, encoding="utf-8-sig") as handle:
                for line_num, line in enumerate(handle, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    parts = line.split(",")
                    if len(parts) != 3:
                        raise InputError(
                            f"{file_path}: line {line_num}: expected Name,Sex,Count, got {line!r}"
                        )
                    name_text, sex, count_text = parts
                    if sex not in ("F", "M"):
                        raise InputError(f"{file_path}: line {line_num}: unknown sex code {sex!r}")
                    count = _parse_count(file_path, line_num, count_text, sex)
                    try:
                        key = normalize_name(name_text)
                    except SkippedRecord as exc:
                        logger.warning("%s: line %d: skipped record: %s", file_path, line_num, exc)
                        skipped += 1
                        continue
                    if first_token_only:
                        key = first_token(key)
                    if count == 0:
                        logger.warning(
                            "%s: line %d: skipped record: zero total for %r", file_path, line_num, key
                        )
                        skipped += 1
                        continue
                    yield (key, count, 0) if sex == "F" else (key, 0, count)

    counts = _pool_counts(rows())
    if skipped:
        logger.info("%s: skipped %d record(s)", directory, skipped)
    entries = {k: GenderCounts(f, m) for k, (f, m) in counts.items()}
    if source_id is None:
        year_list = [y for y, _ in files]
        source_id = f"ssa:{min(year_list)}-{max(year_list)}"
    return ReferenceTable(entries, source_id=source_id)


def filter_min_count(table: ReferenceTable, threshold: int) -> ReferenceTable:
    """Keep only names whose total count is at least ``threshold``.

    The boundary is inclusive: a name with total exactly ``threshold``
    survives. An empty result is a hard error (the reference would be
    unusable). Applying two filters equals applying the larger one.
    """
    if not isinstance(threshold, int) or threshold < 0:
        raise InputError(f"threshold must be a nonnegative integer, got {threshold!r}")
    entries = {k: c for k, c in table.entries.items() if c.total >= threshold}
    if not entries:
        raise InputError(f"min-count filter (threshold={threshold}) left no names")
    return ReferenceTable(
        entries,
        source_id=table.source_id,
        min_count_threshold=max(table.min_count_threshold, threshold),
        mode=table.mode,
    )


def merge(tables: list[ReferenceTable] | tuple[ReferenceTable, ...]) -> ReferenceTable:
    """Pool the counts of several same-mode tables into one."""
    if not tables:
        raise InputError("merge needs at least one table")
    mode = tables[0].mode
    for table in tables[1:]:
        if table.mode != mode:
            raise InputError(f"cannot merge tables of different modes ({mode!r} vs {table.mode!r})")
    pooled = _pool_counts(
        (key, c.female, c.male) for table in tables for key, c in table.entries.items()
    )
    entries = {k: GenderCounts(f, m) for k, (f, m) in pooled.items()}
    return ReferenceTable(
        entries,
        source_id="+".join(t.source_id for t in tables),
        min_count_threshold=min(t.min_count_threshold for t in tables),
        mode=mode,
    )


def _letter_key(key: str, position: str) -> str | None:
    folded = _fold(key).lower()
    if not folded:
        return None
    ch = folded[0] if position == POSITION_INITIAL else folded[-1]
    return ch if ch in _ASCII_LETTERS else None


def _letter_position(mode: str) -> str | None:
    """The name position a letter-mode table reads; None for full names."""
    return next((p for p, m in _LETTER_MODES.items() if m == mode), None)


def _project_letters(
    rows: Iterable[tuple[str, int | float, int | float]],
    position: str,
    on_skip: Callable[[str, int | float, int | float], None] | None = None,
) -> Iterator[tuple[str, int | float, int | float]]:
    """Map streamed ``(key, female, male)`` rows onto letter buckets.

    The position is checked when this is called, before any row is read.
    A row whose key has no Latin letter at ``position`` is passed to
    ``on_skip`` (if given) and not yielded.
    """
    if position not in _LETTER_MODES:
        raise InputError(f"position must be 'initial' or 'last', got {position!r}")

    def projected() -> Iterator[tuple[str, int | float, int | float]]:
        for key, female, male in rows:
            letter = _letter_key(key, position)
            if letter is not None:
                yield letter, female, male
            elif on_skip is not None:
                on_skip(key, female, male)

    return projected()


_NAMED_SKIPS = 10  # letter_table names this many skipped keys, then counts the rest


def letter_table(table: ReferenceTable, position: str) -> ReferenceTable:
    """Reduce a full-name table to initial-letter or last-letter buckets.

    Names whose relevant character is not a Latin letter are skipped with a
    notice (the first ten by name, the rest as one count); every surviving
    individual lands in exactly one of the 26 buckets, so bucket totals plus
    skipped individuals equal the input total. Skipping everything is a hard
    error.
    """
    skipped_names = skipped_individuals = 0

    def skip(key: str, female: int, male: int) -> None:
        nonlocal skipped_names, skipped_individuals
        if skipped_names < _NAMED_SKIPS:
            logger.warning("letter_table: skipped %r (no %s letter)", key, position)
        skipped_names += 1
        skipped_individuals += female + male

    rows = ((key, c.female, c.male) for key, c in table.entries.items())
    projected = _project_letters(rows, position, skip)  # checks the position first
    if table.mode != MODE_FULL_NAME:
        raise InputError("letter tables can only be built from a full-name table")
    buckets = _pool_counts(projected)
    if skipped_names > _NAMED_SKIPS:
        more = skipped_names - _NAMED_SKIPS
        logger.warning("letter_table: skipped %d more name(s) (no %s letter)", more, position)
    if not buckets:
        raise InputError("letter_table: every record was skipped")
    if skipped_individuals:
        logger.info("letter_table: skipped %d individual(s)", skipped_individuals)
    entries = {k: GenderCounts(f, m) for k, (f, m) in buckets.items()}
    return ReferenceTable(
        entries,
        source_id=f"{table.source_id}:{position}",
        min_count_threshold=table.min_count_threshold,
        mode=_LETTER_MODES[position],
    )


def letter_target(target: TargetList, position: str) -> TargetList:
    """Project a target list onto letter buckets with the same rule as
    :func:`letter_table`. Unprojectable names are dropped with a notice."""
    dropped = 0

    def drop(key: str, count: int | float, _: int) -> None:
        nonlocal dropped
        dropped += count

    # sorted keys fix the bucket accumulation order
    rows = ((key, target.entries[key], 0) for key in sorted(target.entries))
    buckets = _pool_counts(_project_letters(rows, position, drop))
    if not buckets:
        raise InputError("letter projection dropped every target name")
    if dropped:
        logger.info("letter projection dropped %s individual(s)", dropped)
    return TargetList({letter: count for letter, (count, _) in buckets.items()})


def name_entropy(table: ReferenceTable) -> float:
    """Shannon entropy, in bits, of the name frequency distribution."""
    if not table.entries:
        raise InputError("entropy of an empty table is undefined")
    total = table.total_individuals
    # fsum is correctly rounded, so its result does not depend on order.
    return -math.fsum(
        (c.total / total) * math.log2(c.total / total) for c in table.entries.values()
    )


class InclinationShift(NamedTuple):
    """One row of an inclination-shift comparison.

    ``sigma`` is |delta_all - delta_x| / |delta_x|, or None when the
    per-table inclination delta_x is zero and the ratio is undefined.
    """

    key: str
    frequency_rel: float
    sigma: float | None


def inclination_shift(
    table_x: ReferenceTable, table_all: ReferenceTable, top_k: int
) -> list[InclinationShift]:
    """Compare per-name inclinations of ``table_x`` against ``table_all``.

    Takes the ``top_k`` most frequent keys of ``table_x`` that are also
    present in ``table_all`` (ties broken deterministically by key), and
    reports each key's frequency relative to the most frequent name of
    ``table_x`` plus the relative inclination shift.
    """
    if top_k < 1:
        raise InputError("top_k must be at least 1")
    if table_x.mode != MODE_FULL_NAME or table_all.mode != MODE_FULL_NAME:
        raise InputError("inclination_shift expects full-name tables")
    if not table_x.entries:
        raise InputError("inclination_shift: empty table")
    max_total = max(c.total for c in table_x.entries.values())
    shared = [k for k in table_x.entries if k in table_all.entries]
    shared.sort(key=lambda k: (-table_x.entries[k].total, k))
    rows: list[InclinationShift] = []
    for key in shared[:top_k]:
        delta_x = table_x.entries[key].inclination
        delta_all = table_all.entries[key].inclination
        sigma = None if delta_x == 0.0 else abs(delta_all - delta_x) / abs(delta_x)
        rows.append(InclinationShift(key, table_x.entries[key].total / max_total, sigma))
    return rows


def export_canonical_csv(table: ReferenceTable, path: str | Path) -> None:
    """Write a table as canonical CSV, keys sorted, byte-deterministic."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(_REFERENCE_HEADER)
        for key in sorted(table.entries):
            c = table.entries[key]
            writer.writerow([key, c.female, c.male])


def load_target(path: str | Path, fmt: str = "csv") -> TargetList:
    """Load a target list from ``name,count`` CSV or a plain name list."""
    path = Path(path)
    if fmt not in ("csv", "names"):
        raise InputError(f"unknown target format {fmt!r}, expected 'csv' or 'names'")
    skipped = 0

    def records() -> Iterator[tuple[int, str, int]]:
        if fmt == "csv":
            for line_num, row in _read_csv_rows(path, _TARGET_HEADER):
                if len(row) != 2:
                    raise InputError(f"{path}: line {line_num}: expected 2 columns, got {len(row)}")
                count = _parse_count(path, line_num, row[1], "count")
                if count == 0:
                    raise InputError(f"{path}: line {line_num}: target count must be positive")
                yield line_num, row[0], count
            return
        try:
            handle = open(path, encoding="utf-8-sig")
        except OSError as exc:
            raise InputError(f"cannot open {path}: {exc}") from exc
        with handle:
            for line_num, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                if "," in line:
                    raise InputError(
                        f"{path}: line {line_num}: a names-format target holds one name per "
                        f"line, got {line.strip()!r}; use --target-format csv for name,count rows"
                    )
                yield line_num, line, 1

    def rows() -> Iterator[tuple[str, int, int]]:
        nonlocal skipped
        for line_num, name, count in records():
            try:
                key = normalize_name(name)
            except SkippedRecord as exc:
                logger.warning("%s: line %d: skipped record: %s", path, line_num, exc)
                skipped += 1
                continue
            yield key, count, 0

    counts = {key: count for key, (count, _) in _pool_counts(rows()).items()}
    if skipped:
        logger.info("%s: skipped %d record(s)", path, skipped)
    if not counts:
        raise InputError(f"{path}: no usable names in target")
    return TargetList(counts)


def export_target_csv(target: TargetList, path: str | Path) -> None:
    """Write a target list as ``name,count`` CSV, keys sorted."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(_TARGET_HEADER)
        for key in sorted(target.entries):
            writer.writerow([key, fmt_float(target.entries[key])])
