"""Name-frequency reference tables and target name lists.

File formats handled here:

* canonical reference CSV: UTF-8, header exactly ``name,female,male``,
  one row per name with nonnegative integer counts;
* SSA-style year files: ``yobYYYY.txt`` inside a directory, each line
  ``Name,Sex,Count`` with ``Sex`` one of ``F``/``M``;
* canonical target CSV: header ``name,count``; or a plain newline-separated
  list of names, one occurrence per line.

Tables and target lists are immutable after construction and stored by
column: sorted keys and count arrays. Exported CSV is byte-deterministic
(keys sorted lexicographically, LF newlines).
"""

import contextlib
import csv
import logging
import math
import numbers
import operator
import re
import unicodedata
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import FrozenInstanceError, dataclass
from itertools import chain, compress, repeat
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, TextIO

import numpy as np

from ._fmt import csv_text
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
_LATIN_LETTER = re.compile("[a-z]")
_YOB_FILE = re.compile(r"^yob([0-9]{4})\.txt$")
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
    # str.split() splits on the same 29 code points as the regex \s.
    if raw.isascii():
        key = " ".join(raw.split()).lower()
        # In ASCII text islower() holds exactly when a letter a-z is present.
        usable = key.islower()
    else:
        key = " ".join(_fold(raw).split()).lower()
        usable = _LATIN_LETTER.search(key) is not None
    if not usable:
        raise SkippedRecord(f"no usable letters in name {raw!r}")
    return key


def first_token(key: str) -> str:
    """First whitespace-separated token of a canonical key."""
    return key.split(" ", 1)[0]


# A name's total count must stay below this: float64 then holds every count
# and total exactly, and female / (female + male) in numpy is bit-identical
# to Python's int / int.
MAX_TOTAL = 2**53


def _total(counts: np.ndarray) -> int | float:
    """The sum of a count column, the one way the package totals counts.

    An integer column gives its exact total as a Python int. numpy's int64
    sum serves when ``size * max`` is below 2**63, since then no partial sum
    can wrap; a larger column is summed as Python ints. A real column gives
    a Python float, added left to right (0.0 when empty) on every
    interpreter: numpy's float sum is pairwise, and Python's ``sum`` is
    compensated from 3.12 on.
    """
    if counts.dtype.kind == "f":
        return float(np.add.accumulate(counts)[-1]) if counts.size else 0.0
    if counts.size and counts.size * int(counts.max()) >= 2**63:
        return sum(counts.tolist())
    return int(counts.sum())


def _in_key_order(keys: tuple[str, ...], *columns: np.ndarray) -> tuple:
    """``keys`` sorted, then each column with its rows in that order: how
    every constructor given keys in another order sorts them."""
    order = np.array(sorted(range(len(keys)), key=keys.__getitem__), dtype=np.intp)
    return (tuple(map(keys.__getitem__, order.tolist())), *(column[order] for column in columns))


def _sorted_buckets(labels: Iterable[str | None]) -> tuple[tuple[str, ...], np.ndarray]:
    """The distinct labels, sorted, and the bucket (position in them) of
    every label in turn, -1 for None."""
    labels = list(labels)
    distinct = tuple(sorted(set(labels).difference([None])))
    buckets = dict(zip(distinct, range(len(distinct))))
    return distinct, np.fromiter(map(buckets.get, labels, repeat(-1)), dtype=np.intp, count=len(labels))


def _bucket_sums(ids: np.ndarray, n: int, column: np.ndarray) -> np.ndarray:
    """The sums of a count column over ``n`` buckets, the one way the
    package pools counts outside the file loaders: row i adds to bucket
    ``ids[i]`` (a row with id -1 to none), in row order, as ``np.bincount``
    adds. A real column gives float64 sums. An integer column, each count
    below 2**53, gives exact int64 sums: a float64 sum below 2**53 is
    exact, and one of 2**53 or more is stored as 2**53, which every caller
    rejects as too large, so no sum wraps."""
    kept = ids >= 0
    sums = np.bincount(ids[kept], weights=column[kept], minlength=n)
    if column.dtype.kind == "f":
        return sums
    return np.minimum(sums, MAX_TOTAL).astype(np.int64)


def _is_count(value) -> bool:
    """A nonnegative Python int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _check_counts(female, male) -> None:
    for label, value in (("female", female), ("male", male)):
        if not _is_count(value):
            raise InputError(f"{label} count must be a nonnegative integer, got {value!r}")
    if female + male == 0:
        raise InputError("a stored name must have a positive total count")


def _check_labels(min_count_threshold, mode) -> None:
    """Check a table's mode and recorded threshold, the mode first."""
    if mode not in MODES:
        raise InputError(f"unknown table mode {mode!r}")
    if not _is_count(min_count_threshold):
        raise InputError(
            f"min_count_threshold must be a nonnegative integer, got {min_count_threshold!r}"
        )


@dataclass(frozen=True)
class GenderCounts:
    """Per-name pair of nonnegative integer counts, at least one positive."""

    female: int
    male: int

    def __post_init__(self) -> None:
        _check_counts(self.female, self.male)

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


def _too_large(key: str) -> InputError:
    return InputError(f"counts of {key!r} total 2**53 or more; a name's total must stay below 2**53")


def _is_integer_count(key: str, count, label: str) -> bool:
    """Whether a count column stores ``count`` as an integer (a Python or numpy
    one, below :data:`MAX_TOTAL`) or a float64 (another real), else InputError."""
    if type(count) is int or isinstance(count, np.integer):
        if count >= MAX_TOTAL:
            raise InputError(f"{label} for {key!r} is 2**53 or more; it must stay below 2**53")
        return True
    if isinstance(count, (bool, np.bool_)) or not isinstance(count, numbers.Real):
        raise InputError(f"{label} for {key!r} must be a number, got {count!r}")
    return False


def _count_arrays(pooled: Mapping[str, Iterable[int]], dtype=np.int64) -> tuple[np.ndarray, np.ndarray]:
    """The female and male columns of pooled ``key: (female, male)``
    counts, in key order: int64 unless another dtype is given."""
    try:
        flat = np.fromiter(chain.from_iterable(pooled.values()), dtype=dtype, count=2 * len(pooled))
    except OverflowError:  # a count of 2**63 or more
        raise _too_large(next(k for k, (f, m) in pooled.items() if f + m >= MAX_TOTAL)) from None
    return flat[0::2].copy(), flat[1::2].copy()


class _EntriesView(Mapping):
    """Read-only view of a table's, a target list's or a population's
    columns as a mapping, in its key order. Each read builds a fresh value
    from the key's row."""

    __slots__ = ("_table",)

    def __init__(self, table: "_Columnar") -> None:
        self._table = table

    def __getitem__(self, key: str):
        return self._table._value(self._table._row(key))

    def __iter__(self) -> Iterator[str]:
        return iter(self._table.keys)

    def __len__(self) -> int:
        return len(self._table.keys)

    def __repr__(self) -> str:
        return f"<entries of {len(self)} name(s)>"


class _Columnar:
    """Frozen column storage: fields in ``__slots__`` order (sorted
    ``keys``, the read-only arrays named in ``_columns``, labels, then any
    private field) and an ``entries`` view of them. Two objects are equal
    when their labels, keys and columns are."""

    __slots__ = ()
    _columns: tuple[str, ...] = ("female", "male")

    @classmethod
    def _from_columns(cls, keys: tuple[str, ...], *fields) -> "_Columnar":
        """An object of checked columns the package built, keys sorted, stored by the class's ``_set``."""
        new = cls.__new__(cls)
        new._set(keys, *fields)
        return new

    def _set(self, *fields) -> None:
        self.__setstate__(fields)

    def _labels(self) -> tuple[str, ...]:
        return tuple(name for name in self.__slots__[1 + len(self._columns):] if not name.startswith("_"))

    def _row(self, key: str) -> int:
        """The row of ``key``, found by bisection; KeyError when it is not stored."""
        row = bisect_left(self.keys, key) if isinstance(key, str) else len(self)
        if self.keys[row:row + 1] != (key,):
            raise KeyError(key)
        return row

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        same = all(getattr(self, name) == getattr(other, name) for name in ("keys", *self._labels()))
        return same and all(np.array_equal(getattr(self, name), getattr(other, name)) for name in self._columns)

    def __repr__(self) -> str:
        labels = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._labels())
        return f"{type(self).__name__}(<{len(self)} name(s)>, {labels})"

    def __getstate__(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__slots__, state):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def entries(self) -> Mapping:
        return _EntriesView(self)

    def __len__(self) -> int:
        return len(self.keys)

    def __contains__(self, key: object) -> bool:
        return key in self.entries


class ReferenceTable(_Columnar):
    """Immutable table of gender counts per canonical key, stored by column.

    ``keys`` holds the keys sorted; ``female`` and ``male`` are read-only
    int64 arrays with one row per key. ``entries`` is a read-only
    ``Mapping[str, GenderCounts]`` view of the same data, in key order.
    Every name's total is below :data:`MAX_TOTAL` (2**53).

    The constructor takes a mapping of :class:`GenderCounts`. The loaders
    build the columns directly. A private key -> row dict serves rows_of.

    ``mode`` records what the keys are: whole first names, initial letters
    or last letters. In the letter modes every key is a single lowercase
    Latin letter.
    """

    __slots__ = ("keys", "female", "male", "source_id", "min_count_threshold", "mode", "_index")

    def __init__(
        self,
        entries: Mapping[str, GenderCounts],
        source_id: str = "",
        min_count_threshold: int = 0,
        mode: str = MODE_FULL_NAME,
    ) -> None:
        for key, value in entries.items():
            if not isinstance(value, GenderCounts):
                raise InputError(f"reference entry {key!r} must be GenderCounts, got {type(value).__name__}")
        pooled = {key: (c.female, c.male) for key, c in entries.items()}
        self._set(*_in_key_order(tuple(pooled), *_count_arrays(pooled)), source_id, min_count_threshold, mode)

    @classmethod
    def _relabel(cls, table: "ReferenceTable", source_id: str, min_count_threshold: int,
                 mode: str) -> "ReferenceTable":
        """``table``'s names and counts, sharing its columns, under new
        provenance and mode."""
        return cls._from_columns(table.keys, table.female, table.male, source_id, min_count_threshold, mode,
                                 table._index)

    @classmethod
    def _from_pooled(cls, pooled: Mapping[str, Iterable], source_id: str = "", min_count_threshold: int = 0,
                     mode: str = MODE_FULL_NAME) -> "ReferenceTable":
        """A table of pooled ``key: (female, male)`` counts, in any key
        order, each an integer, with positive totals."""
        return cls._from_columns(*_in_key_order(tuple(pooled), *_count_arrays(pooled)), source_id,
                                 min_count_threshold, mode)

    def _set(self, keys, female, male, source_id, min_count_threshold, mode, index=None) -> None:
        _check_labels(min_count_threshold, mode)
        if index is None:
            index = dict(zip(keys, range(len(keys))))
        if "" in index:
            raise InputError("empty key in reference table")
        if mode != MODE_FULL_NAME:
            for key in keys:
                if key not in _ASCII_LETTERS:
                    raise InputError(f"letter-mode table key must be a single letter, got {key!r}")
        # A total of 2**62 or more wraps in int64, but then one count is too large itself.
        too_large = (female >= MAX_TOTAL) | (male >= MAX_TOTAL) | (female + male >= MAX_TOTAL)
        if too_large.any():
            raise _too_large(keys[int(np.argmax(too_large))])
        self.__setstate__((keys, female, male, source_id, min_count_threshold, mode, index))

    @classmethod
    def from_counts(
        cls,
        counts: Mapping[str, tuple[int, int]],
        source_id: str = "",
        min_count_threshold: int = 0,
        mode: str = MODE_FULL_NAME,
    ) -> "ReferenceTable":
        for female, male in counts.values():
            _check_counts(female, male)
        return cls._from_pooled(counts, source_id, min_count_threshold, mode)

    def _value(self, row: int) -> GenderCounts:
        return GenderCounts(int(self.female[row]), int(self.male[row]))

    def rows_of(self, keys: list[str]) -> np.ndarray:
        """The row of each key, -1 where the key is not in the table."""
        return np.fromiter(map(self._index.get, keys, repeat(-1)), dtype=np.intp, count=len(keys))

    def p_female_of(self, rows: np.ndarray) -> np.ndarray:
        """female / (female + male) of the given rows, in float64; bit for
        bit what :attr:`GenderCounts.p_female` gives, since totals stay
        below 2**53."""
        female = self.female[rows]
        return female / (female + self.male[rows])

    @property
    def total_individuals(self) -> int:
        return _total(self.female) + _total(self.male)


class TargetList(_Columnar):
    """Immutable multiset of canonical keys: the group to be analyzed.

    ``keys`` are sorted; ``counts`` is read-only, int64 when every count is
    a Python or numpy integer (each below :data:`MAX_TOTAL`, 2**53), else
    float64 (real weights, as expected-count pipelines make); ``entries`` is
    a read-only ``Mapping[str, int | float]`` view. ``total_individuals`` is
    summed once by :func:`_total`: the exact Python int for integer counts,
    else a Python float, the counts as float64 added left to right in the
    order the caller gave them.
    """

    __slots__ = ("keys", "counts", "total_individuals")
    _columns = ("counts",)

    def __init__(self, entries: Mapping[str, int | float]) -> None:
        if not entries:
            raise InputError("target list is empty")
        integral = True
        for key, count in entries.items():
            if not key:
                raise InputError("empty key in target list")
            if not _is_integer_count(key, count, "target count"):
                integral = False
            if not 0 < count < math.inf:  # also false for NaN
                raise InputError(f"target count for {key!r} must be positive, got {count!r}")
        given = np.fromiter(entries.values(), np.int64 if integral else np.float64, len(entries))
        self._set(*_in_key_order(tuple(entries), given), _total(given))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TargetList):
            return NotImplemented
        return self.keys == other.keys and bool(np.array_equal(self.counts, other.counts))

    def __repr__(self) -> str:
        return f"TargetList(entries={dict(zip(self.keys, self.counts.tolist()))!r})"

    def _value(self, row: int) -> int | float:
        return self.counts[row].item()


@contextlib.contextmanager
def _open_input(path: str | Path, label: str = "") -> Iterator[TextIO]:
    """Open ``path`` as UTF-8 text, dropping a BOM and keeping line endings
    (``newline=""``, as :mod:`csv` needs). The one way the package reads a
    file: a failed open, or a decode error while the caller reads, raises
    :class:`InputError` naming the file, after ``label`` when one is given."""
    name = f"{label} {path}" if label else str(path)
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise InputError(f"cannot open {name}: {exc}") from exc
    with handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            # Text is decoded a chunk at a time, so exc.start is no file offset.
            raise InputError(f"{name}: not UTF-8 text ({exc.reason})") from exc


@contextlib.contextmanager
def _csv_reader(path: Path, expected_header: list[str]) -> Iterator[Iterator[list[str]]]:
    """A :mod:`csv` reader over ``path``, past its checked header. Callers
    iterate it directly and skip blank rows; ``line_num`` gives each row's
    line. A :class:`csv.Error` (a field longer than
    ``csv.field_size_limit()``) raises InputError naming the line."""
    with _open_input(path) as handle:
        reader = csv.reader(handle)
        try:
            try:
                header = next(reader)
            except StopIteration:
                raise InputError(f"{path}: empty file, expected header {','.join(expected_header)}")
            if [h.strip() for h in header] != expected_header:
                raise InputError(
                    f"{path}: bad header {','.join(header)!r}, expected {','.join(expected_header)!r}"
                )
            yield reader
        except csv.Error as exc:
            raise InputError(f"{path}: line {reader.line_num}: {exc}") from exc


def _ascii_int(text: str) -> int:
    """``int(text)`` for ASCII digits only: int() also reads other scripts'
    digits and "_" separators, which raise ValueError here. Surrounding
    whitespace is skipped, as int() skips it."""
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    return int(text)


def _parse_count(path: Path, line_num: int, text: str, column: str) -> int:
    try:
        value = _ascii_int(text)
    except ValueError:
        raise InputError(f"{path}: line {line_num}: {column} count {text!r} is not an integer")
    if value < 0:
        raise InputError(f"{path}: line {line_num}: {column} count must be nonnegative")
    return value


def _keyed_counts(records: Iterable[tuple[Path, int, str, int, int]], source: str | Path,
                  first_token_only: bool = False) -> dict[str, list]:
    """The keying and pooling step of every loader's row loop: parsed ``(path,
    line_num, raw_name, female, male)`` records in, per-key ``[female,
    male]`` sums out, keys in first-seen order. A record whose name does not
    normalize, or whose counts are both zero, is skipped with a WARNING
    naming its line; an INFO line ends with the skip total.

    Raw spellings recur (an SSA name comes back every year), so each
    distinct spelling is normalized once. The memo keeps only spellings
    whose key differs from the raw text, or the :class:`SkippedRecord`
    that skips them: an already-canonical file adds no entry to it.
    """
    pooled: dict[str, list] = {}
    memo: dict[str, str | SkippedRecord] = {}
    skipped = 0
    for path, line_num, name, female, male in records:
        key = memo.get(name)
        if key is None:
            try:
                key = normalize_name(name)
                if first_token_only:
                    key = first_token(key)
            except SkippedRecord as exc:
                # Without its traceback: that holds this frame, and so memo
                # and pooled, in a cycle only the garbage collector frees.
                key = exc.with_traceback(None)
            if key != name:
                memo[name] = key
        if isinstance(key, SkippedRecord):
            logger.warning("%s: line %d: skipped record: %s", path, line_num, key)
            skipped += 1
            continue
        if female + male == 0:
            logger.warning("%s: line %d: skipped record: zero total for %r", path, line_num, key)
            skipped += 1
            continue
        slot = pooled.get(key)
        if slot is None:
            pooled[key] = [female, male]
        else:
            slot[0] += female
            slot[1] += male
    if skipped:
        logger.info("%s: skipped %d record(s)", source, skipped)
    return pooled


# The header line of a file export_canonical_csv wrote.
_EXPORT_HEADER = ",".join(_REFERENCE_HEADER) + "\n"
# The ASCII codes that send a file to the row loop: a quote, DEL and every
# control character but LF (so CR and all whitespace but the space), and
# upper case, which the key check turns away too, but only after the split.
_NOT_EXPORTED = np.zeros(128, dtype=bool)
_NOT_EXPORTED[:32] = _NOT_EXPORTED[127] = True
_NOT_EXPORTED[[ord('"'), *range(ord("A"), ord("Z") + 1)]] = True
_NOT_EXPORTED[ord("\n")] = False
# The separators of each line of such a file, in order.
_ROW_SEPARATORS = np.frombuffer(b",,\n", dtype=np.uint8)


def _exported_table(path: Path, source_id: str, first_token_only: bool) -> ReferenceTable | None:
    """The table of the canonical CSV at ``path``, read whole and built by
    column, when the file is in the form :func:`export_canonical_csv`
    writes; else None.

    That form is the header line, then lines that each end in LF and hold
    exactly three fields: a key equal to its :func:`normalize_name` (and,
    with ``first_token_only``, to its :func:`first_token`), then two counts
    in ASCII digits below 2**63. No total is zero and no key comes twice.
    The row loop of :func:`ingest_canonical_csv` would skip, pool and log
    nothing in such a file, so both ways give the same table and errors.
    """
    try:
        with _open_input(path) as handle:
            text = handle.read()
    except InputError:  # unreadable or not UTF-8: the row loop reports where its stream fails
        return None
    if not (text.startswith(_EXPORT_HEADER) and text.isascii()):
        return None
    # Whole-text checks first, so that a raw file is turned away cheaply. A
    # space may only stand alone inside a key: counts are digits.
    codes = np.frombuffer(text.encode("ascii"), dtype=np.uint8)[len(_EXPORT_HEADER):]
    if _NOT_EXPORTED.take(codes).any() or not text.endswith("\n"):
        return None
    if " " in text and (first_token_only or "\n " in text or " ," in text or "  " in text):
        return None
    # Exactly three fields on every line: the separators run ",,\n" over and over.
    separators = codes[np.flatnonzero((codes == ord(",")) | (codes == ord("\n")))]
    n = separators.size // 3
    if separators.size % 3 or not (separators.reshape(n, 3) == _ROW_SEPARATORS).all():
        return None
    del codes, separators  # memory peaks at the split's strings: hold nothing else then
    # With each "," a NUL, which no line holds, the lines sort in key order; the
    # split then makes the keys anew in that order, so later passes read memory in order.
    fields = "\0".join(sorted(text[len(_EXPORT_HEADER):].replace(",", "\0").splitlines())).split("\0")
    keys, female, male = tuple(fields[0:3 * n:3]), fields[1:3 * n:3], fields[2:3 * n:3]
    del fields
    # In ASCII text without upper case, islower() holds when a key has a letter.
    if not all(map(str.islower, keys)) or max(map(len, keys), default=0) > csv.field_size_limit():
        return None
    if n and not "".join(chain(female, male)).isdigit():
        return None
    try:  # ValueError for an empty count, OverflowError for one of 2**63 or more
        female, male = (np.array(column, dtype=np.int64) for column in (female, male))
    except (ValueError, OverflowError):
        return None
    if not all(map(operator.lt, keys, keys[1:])) or not (female | male).all():  # a key twice, or a zero total
        return None
    return ReferenceTable._from_columns(keys, female, male, source_id, 0, MODE_FULL_NAME)


def ingest_canonical_csv(
    path: str | Path,
    source_id: str | None = None,
    first_token_only: bool = False,
) -> ReferenceTable:
    """Read a canonical ``name,female,male`` CSV into a full-name table.

    Malformed rows are hard errors naming the offending line. Rows whose
    two counts are both zero are dropped with a skipped-record notice, as
    are names that cannot be normalized. Duplicate keys are summed.

    A file in the form :func:`export_canonical_csv` writes is built by
    column; any other file is read again, row by row. Both give the same
    table, errors and log records.
    """
    path = Path(path)
    source_id = source_id if source_id is not None else path.name
    table = _exported_table(path, source_id, first_token_only)
    if table is not None:
        return table

    def records() -> Iterator[tuple[Path, int, str, int, int]]:
        with _csv_reader(path, _REFERENCE_HEADER) as reader:
            for row in reader:
                if not row:
                    continue
                line_num = reader.line_num
                if len(row) != 3:
                    raise InputError(f"{path}: line {line_num}: expected 3 columns, got {len(row)}")
                female = _parse_count(path, line_num, row[1], "female")
                male = _parse_count(path, line_num, row[2], "male")
                yield path, line_num, row[0], female, male

    counts = _keyed_counts(records(), path, first_token_only)
    return ReferenceTable._from_pooled(counts, source_id=source_id)


def _wanted_years(years: tuple[int, int] | Iterable[int]) -> range | set[int]:
    """The years an SSA ingest reads: a tuple of two integers is an
    inclusive range, any other iterable lists the years."""
    try:
        values = list(years)
    except TypeError:
        raise InputError(
            f"years must be a (start, end) pair or an iterable of years, got {years!r}"
        ) from None
    for year in values:
        if not isinstance(year, (int, np.integer)) or isinstance(year, bool):
            raise InputError(f"years must be integers, got {year!r}")
    values = [int(year) for year in values]
    if isinstance(years, tuple) and len(values) == 2:
        lo, hi = values
        if lo > hi:
            raise InputError(f"year range {lo}:{hi} is inverted")
        return range(lo, hi + 1)
    return set(values)


def ingest_ssa_year_files(
    directory: str | Path,
    years: tuple[int, int] | Iterable[int] | None = None,
    source_id: str | None = None,
    first_token_only: bool = False,
) -> ReferenceTable:
    """Aggregate ``yobYYYY.txt`` files from a directory into one table.

    ``years`` restricts which files are read: either an inclusive
    ``(start, end)`` pair or an explicit iterable of years, each a Python or
    numpy integer (not a bool); ``None`` takes every year file found. A
    year file's name holds four ASCII digits. No matching file is a hard error, as is any
    malformed line (wrong delimiter, unknown sex code, bad count). Lines
    with a zero count are dropped with a skipped-record notice, as are
    names that cannot be normalized.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise InputError(f"{directory} is not a directory")
    wanted = None if years is None else _wanted_years(years)
    files: list[tuple[int, Path]] = []
    for entry in sorted(directory.iterdir()):
        match = _YOB_FILE.match(entry.name)
        if match and (wanted is None or int(match.group(1)) in wanted):
            files.append((int(match.group(1)), entry))
    if not files:
        raise InputError(f"no yobYYYY.txt files matching the requested years in {directory}")

    def records() -> Iterator[tuple[Path, int, str, int, int]]:
        for _, file_path in files:
            with _open_input(file_path) as handle:
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
                    if sex == "F":
                        count = _parse_count(file_path, line_num, count_text, sex)
                        yield file_path, line_num, name_text, count, 0
                    elif sex == "M":
                        count = _parse_count(file_path, line_num, count_text, sex)
                        yield file_path, line_num, name_text, 0, count
                    else:
                        raise InputError(f"{file_path}: line {line_num}: unknown sex code {sex!r}")

    counts = _keyed_counts(records(), directory, first_token_only)
    if source_id is None:
        year_list = [y for y, _ in files]
        source_id = f"ssa:{min(year_list)}-{max(year_list)}"
    return ReferenceTable._from_pooled(counts, source_id=source_id)


def filter_min_count(table: ReferenceTable, threshold: int) -> ReferenceTable:
    """Keep only names whose total count is at least ``threshold``.

    The boundary is inclusive: a name with total exactly ``threshold``
    survives. An empty result is a hard error (the reference would be
    unusable). Applying two filters equals applying the larger one.
    """
    if not _is_count(threshold):
        raise InputError(f"threshold must be a nonnegative integer, got {threshold!r}")
    # Every total is below MAX_TOTAL, so a larger threshold keeps nothing.
    keep = table.female + table.male >= min(threshold, MAX_TOTAL)
    if not keep.any():
        raise InputError(f"min-count filter (threshold={threshold}) left no names")
    keys = tuple(compress(table.keys, keep.tolist()))
    return ReferenceTable._from_columns(keys, table.female[keep], table.male[keep], table.source_id,
                                        max(table.min_count_threshold, threshold), table.mode)


def merge(tables: list[ReferenceTable] | tuple[ReferenceTable, ...]) -> ReferenceTable:
    """Pool the counts of several same-mode tables into one."""
    if not tables:
        raise InputError("merge needs at least one table")
    mode = tables[0].mode
    for table in tables[1:]:
        if table.mode != mode:
            raise InputError(f"cannot merge tables of different modes ({mode!r} vs {table.mode!r})")
    # Buckets are the union of the keys, sorted; each sums its rows in table order.
    keys, ids = _sorted_buckets(chain.from_iterable(table.keys for table in tables))
    columns = (np.concatenate([t.female for t in tables]), np.concatenate([t.male for t in tables]))
    female, male = (_bucket_sums(ids, len(keys), column) for column in columns)
    return ReferenceTable._from_columns(keys, female, male, "+".join(t.source_id for t in tables),
                                        min(t.min_count_threshold for t in tables), mode)


def _letter_key(key: str, position: str) -> str | None:
    folded = _fold(key).lower()
    if not folded:
        return None
    ch = folded[0] if position == POSITION_INITIAL else folded[-1]
    return ch if ch in _ASCII_LETTERS else None


def _letter_position(mode: str) -> str | None:
    """The name position a letter-mode table reads; None for full names."""
    return next((p for p, m in _LETTER_MODES.items() if m == mode), None)


def _letter_buckets(keys: Iterable[str], position: str) -> tuple[tuple[str, ...], np.ndarray]:
    """The letter buckets of ``keys``, the one letter projection: the
    letters at ``position``, sorted, and each key's bucket, -1 for a key
    with no Latin letter there. The position is checked first."""
    if position not in _LETTER_MODES:
        raise InputError(f"position must be 'initial' or 'last', got {position!r}")
    return _sorted_buckets(map(_letter_key, keys, repeat(position)))


_NAMED_SKIPS = 10  # letter_table names this many skipped keys, then counts the rest


def letter_table(table: ReferenceTable, position: str) -> ReferenceTable:
    """Reduce a full-name table to initial-letter or last-letter buckets.

    Names whose relevant character is not a Latin letter are skipped with a
    notice (the first ten by name, the rest as one count); every surviving
    individual lands in exactly one of the 26 buckets, so bucket totals plus
    skipped individuals equal the input total. Skipping everything is a hard
    error.
    """
    letters, ids = _letter_buckets(table.keys, position)  # checks the position first
    if table.mode != MODE_FULL_NAME:
        raise InputError("letter tables can only be built from a full-name table")
    skipped = np.flatnonzero(ids < 0)
    for row in skipped[:_NAMED_SKIPS].tolist():
        logger.warning("letter_table: skipped %r (no %s letter)", table.keys[row], position)
    if skipped.size > _NAMED_SKIPS:
        more = skipped.size - _NAMED_SKIPS
        logger.warning("letter_table: skipped %d more name(s) (no %s letter)", more, position)
    if not letters:
        raise InputError("letter_table: every record was skipped")
    skipped_individuals = _total(table.female[skipped] + table.male[skipped])
    if skipped_individuals:
        logger.info("letter_table: skipped %d individual(s)", skipped_individuals)
    female, male = (_bucket_sums(ids, len(letters), column) for column in (table.female, table.male))
    return ReferenceTable._from_columns(letters, female, male, f"{table.source_id}:{position}",
                                        table.min_count_threshold, _LETTER_MODES[position])


def letter_target(target: TargetList, position: str) -> TargetList:
    """Project a target list onto letter buckets with the same rule as
    :func:`letter_table`. Unprojectable names are dropped with a notice."""
    # sorted keys fix the bucket accumulation order
    letters, ids = _letter_buckets(target.keys, position)
    if not letters:
        raise InputError("letter projection dropped every target name")
    dropped = _total(target.counts[ids < 0])
    if dropped:
        logger.info("letter projection dropped %s individual(s)", dropped)
    return TargetList(dict(zip(letters, _bucket_sums(ids, len(letters), target.counts).tolist())))


def name_entropy(table: ReferenceTable) -> float:
    """Shannon entropy, in bits, of the name frequency distribution."""
    if not len(table):
        raise InputError("entropy of an empty table is undefined")
    totals = (table.female + table.male).tolist()
    total = table.total_individuals
    # fsum is correctly rounded, so its result does not depend on order.
    return -math.fsum((t / total) * math.log2(t / total) for t in totals)


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
    if not len(table_x):
        raise InputError("inclination_shift: empty table")
    keys = table_x.keys
    totals = (table_x.female + table_x.male).tolist()
    max_total = max(totals)
    shared = np.flatnonzero(table_all.rows_of(keys) >= 0).tolist()
    shared.sort(key=totals.__getitem__, reverse=True)  # stable: ties keep the rows' key order
    rows: list[InclinationShift] = []
    for r in shared[:top_k]:
        delta_x = table_x.entries[keys[r]].inclination
        delta_all = table_all.entries[keys[r]].inclination
        sigma = None if delta_x == 0.0 else abs(delta_all - delta_x) / abs(delta_x)
        rows.append(InclinationShift(keys[r], totals[r] / max_total, sigma))
    return rows


def export_canonical_csv(table: ReferenceTable, path: str | Path) -> None:
    """Write a table as canonical CSV, keys sorted, byte-deterministic."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(_REFERENCE_HEADER)
        writer.writerows(zip(table.keys, table.female.tolist(), table.male.tolist()))


def load_target(path: str | Path, fmt: str = "csv") -> TargetList:
    """Load a target list from ``name,count`` CSV or a plain name list."""
    path = Path(path)
    if fmt not in ("csv", "names"):
        raise InputError(f"unknown target format {fmt!r}, expected 'csv' or 'names'")

    def records() -> Iterator[tuple[Path, int, str, int, int]]:
        if fmt == "csv":
            with _csv_reader(path, _TARGET_HEADER) as reader:
                for row in reader:
                    if not row:
                        continue
                    line_num = reader.line_num
                    if len(row) != 2:
                        raise InputError(f"{path}: line {line_num}: expected 2 columns, got {len(row)}")
                    count = _parse_count(path, line_num, row[1], "count")
                    if count == 0:
                        raise InputError(f"{path}: line {line_num}: target count must be positive")
                    yield path, line_num, row[0], count, 0
            return
        with _open_input(path) as handle:
            for line_num, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                if "," in line:
                    raise InputError(
                        f"{path}: line {line_num}: a names-format target holds one name per "
                        f"line, got {line.strip()!r}; use --target-format csv for name,count rows"
                    )
                yield path, line_num, line, 1, 0

    counts = {key: count for key, (count, _) in _keyed_counts(records(), path).items()}
    if not counts:
        raise InputError(f"{path}: no usable names in target")
    return TargetList(counts)


def export_target_csv(target: TargetList, path: str | Path) -> None:
    """Write a target list as ``name,count`` CSV, keys sorted."""
    rows = [{"name": key, "count": count} for key, count in zip(target.keys, target.counts.tolist())]
    Path(path).write_text(csv_text(_TARGET_HEADER, rows), encoding="utf-8", newline="")
