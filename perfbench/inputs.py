"""Seeded benchmark inputs and their ground truth.

Every input is drawn from ``numpy.random.default_rng`` seeded with the
benchmark seed and written by this module alone. Nothing here imports
``gendermix`` or the test helpers, so a change to the program cannot
change its own inputs or the truth it is checked against.

Three kinds of input:

* reference tables as ``name -> (female, male)`` counts: the 2000-name
  benchmark profile (nine mirrored inclination classes) and an SSA-scale
  table of 100,000 names;
* rosters drawn from a reference with a known number of women;
* an SSA-style ``yobNNNN.txt`` tree whose per-name totals, skipped records
  and letter buckets are known by construction.

Names are built from syllables and never end in ``q``; a trailing ``q``
marks a roster name that is absent from the reference on purpose.
"""

import csv
from pathlib import Path

import numpy as np

LETTERS = "abcdefghijklmnopqrstuvwxyz"

_NUCLEI = ("a", "e", "i", "o", "u", "ai", "ea", "ia", "ie", "ou")
_ONSETS = (
    "b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t",
    "v", "w", "y", "z", "br", "ch", "dr", "gr", "kr", "pr", "sh", "st", "tr", "th",
)
_CODAS = ("", "", "", "n", "l", "r", "s", "th", "x", "ck")
_ACCENTED = {"a": "á", "e": "é", "i": "í", "o": "ó", "u": "ü"}

# Strings without a single Latin letter: ``normalize_name`` must skip them.
UNUSABLE_NAMES = ("Σοφία", "Μαρία", "李娜", "王伟", "Иван", "Ольга", "123", "---", "??")

# (inclination, names, individuals) per class: the 2000-name profile of
# the package's own benchmark reference. Classes come in mirrored pairs,
# so the table is gender-balanced up to rounding.
BENCHMARK_CLASSES = (
    (1.0, 600, 345_000),
    (0.9, 150, 50_000),
    (0.6, 100, 25_000),
    (0.3, 100, 52_500),
)
BENCHMARK_NEUTRAL = (100, 55_000)

# (inclination, share of name pairs) for the SSA-scale table and the tree.
SSA_CLASSES = ((1.0, 0.80), (0.9, 0.07), (0.6, 0.05), (0.3, 0.05), (0.0, 0.03))

# (people, female share): 100 to 5,000 people, minority 2% to 50%.
ROSTER_PLAN = ((5000, 0.02), (2000, 0.90), (1000, 0.50), (500, 0.05), (300, 0.65), (100, 0.20))
UNMATCHED_SHARE = 0.02

SSA_YEARS = (1981, 2010)
SSA_RANGES = ((1981, 1990), (1991, 2000), (2001, 2010))
SSA_BASE_NAMES = 4000
LETTER_MIN_COUNT = 200

_KIND_BENCHMARK, _KIND_SSA_SCALE, _KIND_ROSTERS, _KIND_TREE = 1, 2, 3, 4


def _rng(seed: int, kind: int) -> np.random.Generator:
    return np.random.default_rng([seed, kind])


def _letter_tilts() -> np.ndarray:
    """Per-letter pull toward women (a..m) or men (n..z), mirrored pairs."""
    magnitudes = [0.25 + 0.05 * (k % 5) for k in range(13)]
    return np.array(magnitudes + [-m for m in magnitudes])


def _initials(rng: np.random.Generator, deltas: np.ndarray) -> np.ndarray:
    """Initial-letter index per name, tilted by the name's inclination so
    that letter buckets keep a usable inclination of their own."""
    weights = 1.0 + np.outer(deltas, _letter_tilts())
    cumulative = np.cumsum(weights / weights.sum(axis=1, keepdims=True), axis=1)
    picks = (cumulative < rng.random(len(deltas))[:, None]).sum(axis=1)
    return np.minimum(picks, len(LETTERS) - 1)


def unique_names(rng: np.random.Generator, initials: np.ndarray, taken: set[str]) -> list[str]:
    """One new syllable name per initial-letter index, none in ``taken``."""
    names: list[str | None] = [None] * len(initials)
    todo = np.arange(len(initials))
    while todo.size:
        n = todo.size
        nuclei = rng.integers(0, len(_NUCLEI), (n, 4))
        onsets = rng.integers(0, len(_ONSETS), (n, 3))
        syllables = rng.integers(1, 4, n)
        codas = rng.integers(0, len(_CODAS), n)
        retry = []
        for j, i in enumerate(todo):
            parts = [LETTERS[initials[i]], _NUCLEI[nuclei[j, 0]]]
            for k in range(syllables[j]):
                parts += [_ONSETS[onsets[j, k]], _NUCLEI[nuclei[j, k + 1]]]
            parts.append(_CODAS[codas[j]])
            name = "".join(parts)
            if name in taken:
                retry.append(i)
            else:
                taken.add(name)
                names[i] = name
        todo = np.array(retry, dtype=int)
    return names


def _split(total: int, delta: float) -> tuple[int, int]:
    female = int(round(total * (1.0 + delta) / 2.0))
    return female, total - female


def _mirrored_table(
    rng: np.random.Generator, deltas: np.ndarray, totals: np.ndarray
) -> dict[str, tuple[int, int]]:
    names = unique_names(rng, _initials(rng, deltas), set())
    return {name: _split(int(t), float(d)) for name, d, t in zip(names, deltas, totals)}


def benchmark_reference(seed: int) -> dict[str, tuple[int, int]]:
    """2000 names, about 1e6 people, each name at least 100 people.

    Long-tail counts (weight 1/(rank+8), jittered by up to 15%) per class;
    a class and its mirror share their counts, and neutral names have even
    totals, so the table is gender-balanced.
    """
    rng = _rng(seed, _KIND_BENCHMARK)
    deltas: list[float] = []
    totals: list[int] = []

    def class_counts(n_names: int, class_total: int) -> np.ndarray:
        weights = 1.0 / (np.arange(n_names) + 8)
        scaled = weights * class_total / weights.sum() * rng.uniform(0.85, 1.15, n_names)
        return np.maximum(100, np.round(scaled)).astype(np.int64)

    for delta, n_names, class_total in BENCHMARK_CLASSES:
        counts = class_counts(n_names, class_total)
        for sign in (1.0, -1.0):
            deltas += [sign * delta] * n_names
            totals += counts.tolist()
    n_neutral, neutral_total = BENCHMARK_NEUTRAL
    counts = class_counts(n_neutral, neutral_total)
    deltas += [0.0] * n_neutral
    totals += (counts - counts % 2).tolist()
    return _mirrored_table(rng, np.array(deltas), np.array(totals))


def _ssa_pairs(rng: np.random.Generator, n_pairs: int) -> np.ndarray:
    shares = np.array([share for _, share in SSA_CLASSES])
    classes = rng.choice(len(SSA_CLASSES), size=n_pairs, p=shares / shares.sum())
    return np.array([SSA_CLASSES[c][0] for c in classes])


def ssa_scale_reference(seed: int, n_names: int = 100_000) -> dict[str, tuple[int, int]]:
    """SSA-sized table: Zipf popularity, mostly fully gendered names.

    Names come in mirrored pairs (same total, opposite inclination) and
    neutral names have even totals, so the table is gender-balanced.
    Every name has at least 5 people, as in the SSA files.
    """
    rng = _rng(seed, _KIND_SSA_SCALE)
    pair_deltas = _ssa_pairs(rng, n_names // 2)
    pair_totals = np.floor(3e6 / (rng.permutation(n_names // 2) + 10.0)).astype(np.int64) + 6
    pair_totals -= (pair_deltas == 0.0) * (pair_totals % 2)
    deltas = np.concatenate([pair_deltas, -pair_deltas])
    totals = np.concatenate([pair_totals, pair_totals])
    return _mirrored_table(rng, deltas, totals)


def write_reference_csv(table: dict[str, tuple[int, int]], path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["name", "female", "male"])
        for name, (female, male) in table.items():
            writer.writerow([name, female, male])


def _accented(name: str) -> str:
    for i, ch in enumerate(name):
        if ch.lower() in _ACCENTED:
            accent = _ACCENTED[ch.lower()]
            return name[:i] + (accent.upper() if ch.isupper() else accent) + name[i + 1:]
    return name


def rosters(seed: int, reference: dict[str, tuple[int, int]], plan=ROSTER_PLAN) -> list[dict]:
    """Rosters drawn from ``reference`` with a known number of women.

    Women land on names in proportion to the names' female counts, men in
    proportion to male counts. About 2% of each roster carries names that
    are absent from the reference. Names are capitalized, some carry an
    accent that folds away, some are split over two rows, and rows are
    shuffled. ``females``/``matched`` give the truth among matched people.
    """
    rng = _rng(seed, _KIND_ROSTERS)
    names = list(reference)
    female_w = np.array([f for f, _ in reference.values()], dtype=float)
    male_w = np.array([m for _, m in reference.values()], dtype=float)
    taken = set(names)
    out = []
    for size, beta in plan:
        unmatched = max(1, round(UNMATCHED_SHARE * size))
        matched = size - unmatched
        females = round(beta * matched)
        counts = rng.multinomial(females, female_w / female_w.sum()) + rng.multinomial(
            matched - females, male_w / male_w.sum()
        )
        rows: list[tuple[str, int]] = []
        for i in np.flatnonzero(counts):
            display = names[i].capitalize()
            if rng.random() < 0.05:
                display = _accented(display)
            count = int(counts[i])
            if count >= 2 and rng.random() < 0.05:
                part = int(rng.integers(1, count))
                rows += [(display, part), (display.upper(), count - part)]
            else:
                rows.append((display, count))
        initials = rng.integers(0, len(LETTERS), unmatched)
        rows += [(name.capitalize() + "q", 1) for name in unique_names(rng, initials, taken)]
        order = rng.permutation(len(rows))
        out.append(
            {
                "size": size,
                "beta": beta,
                "matched": matched,
                "females": females,
                "rows": [rows[i] for i in order],
            }
        )
    return out


def write_roster_csv(roster: dict, path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["name", "count"])
        writer.writerows(roster["rows"])


def _range_key(lo: int, hi: int) -> str:
    return f"{lo}:{hi}"


def ssa_tree(seed: int, directory: Path, n_names: int = SSA_BASE_NAMES) -> dict:
    """Write ``yobNNNN.txt`` files and return their ground truth.

    Per name: Zipf popularity, a peak year and a width; a name-sex record
    is written for a year when it has at least 5 people. Planted cases,
    each with a known effect on the canonical key:

    * multi-token names, written with one or two spaces;
    * accented spellings written as extra records of the same name;
    * names that start with an apostrophe, kept by ingest but skipped by
      the letter projection;
    * unusable names without Latin letters, skipped by ingest.

    The truth holds, per year range in ``SSA_RANGES``, each canonical key's
    (female, male) totals; the same over all years; the initial-letter
    buckets of the all-years table after ``LETTER_MIN_COUNT``; and the
    record and people counts behind them, per year.
    """
    rng = _rng(seed, _KIND_TREE)
    n_pairs = n_names // 2
    pair_deltas = _ssa_pairs(rng, n_pairs)
    deltas = np.concatenate([pair_deltas, -pair_deltas])
    popularity = 4e4 / (np.concatenate([rng.permutation(n_pairs)] * 2) + 20.0)
    taken: set[str] = set()
    keys = unique_names(rng, _initials(rng, deltas), taken)
    letters = [key[0] for key in keys]
    displays = [key.capitalize() for key in keys]
    kind = rng.choice(4, size=n_names, p=[0.9, 0.04, 0.04, 0.02])
    partners = unique_names(rng, rng.integers(0, len(LETTERS), n_names), taken)
    for i in np.flatnonzero(kind == 1):  # two tokens
        keys[i] = f"{keys[i]} {partners[i]}"
        displays[i] = f"{displays[i]} {partners[i].capitalize()}"
    for i in np.flatnonzero(kind == 3):  # leading apostrophe
        keys[i] = "'" + keys[i]
        displays[i] = "'" + displays[i]
        letters[i] = None

    first, last = SSA_YEARS
    years = np.arange(first, last + 1)
    peaks = rng.uniform(first - 20, last + 20, n_names)
    widths = rng.uniform(8, 30, n_names)
    shape = np.exp(-(((years[:, None] - peaks[None, :]) / widths[None, :]) ** 2))
    people = np.floor(popularity[None, :] * shape * rng.uniform(0.8, 1.2, shape.shape))
    female = np.round(people * (1.0 + deltas[None, :]) / 2.0).astype(np.int64)
    male = people.astype(np.int64) - female

    directory.mkdir(parents=True, exist_ok=True)
    per_year: dict[int, dict[str, list[int]]] = {}
    stats: dict[int, dict[str, int]] = {}
    for y_index, year in enumerate(years.tolist()):
        lines: list[str] = []
        totals: dict[str, list[int]] = {}
        for sex, column, block in (("F", 0, female[y_index]), ("M", 1, male[y_index])):
            for i in np.flatnonzero(block >= 5):
                count = int(block[i])
                display = displays[i]
                if kind[i] == 1 and rng.random() < 0.5:
                    display = display.replace(" ", "  ")
                if kind[i] == 2 and count >= 10:
                    extra = count // 3
                    lines.append(f"{_accented(display)},{sex},{extra}")
                    lines.append(f"{display},{sex},{count - extra}")
                else:
                    lines.append(f"{display},{sex},{count}")
                totals.setdefault(keys[i], [0, 0])[column] += count
        usable = len(lines)
        skipped_people = 0
        for _ in range(int(rng.integers(3, 9))):
            count = int(rng.integers(5, 60))
            name = UNUSABLE_NAMES[int(rng.integers(0, len(UNUSABLE_NAMES)))]
            lines.insert(int(rng.integers(0, len(lines) + 1)), f"{name},{'FM'[int(rng.integers(0, 2))]},{count}")
            skipped_people += count
        (directory / f"yob{year}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        per_year[year] = totals
        stats[year] = {
            "records": len(lines),
            "skipped_records": len(lines) - usable,
            "skipped_people": skipped_people,
        }

    def pooled(lo: int, hi: int) -> dict[str, list[int]]:
        out: dict[str, list[int]] = {}
        for year in range(lo, hi + 1):
            for key, (f, m) in per_year[year].items():
                slot = out.setdefault(key, [0, 0])
                slot[0] += f
                slot[1] += m
        return out

    letter_of = dict(zip(keys, letters))
    merged = pooled(first, last)
    buckets: dict[str, list[int]] = {}
    letter_skipped = 0
    for key, (f, m) in merged.items():
        if f + m < LETTER_MIN_COUNT:
            continue
        if letter_of[key] is None:
            letter_skipped += f + m
            continue
        slot = buckets.setdefault(letter_of[key], [0, 0])
        slot[0] += f
        slot[1] += m
    return {
        "years": {str(year): stats[year] for year in stats},
        "ranges": {_range_key(lo, hi): pooled(lo, hi) for lo, hi in SSA_RANGES},
        "merged": merged,
        "letters": buckets,
        "letter_min_count": LETTER_MIN_COUNT,
        "letter_skipped_people": letter_skipped,
    }

