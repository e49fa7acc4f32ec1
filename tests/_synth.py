"""Synthetic reference builders and independent numerical oracles.

The builders construct fully controlled reference tables whose per-name
inclinations and mass profile are known by design. The oracles recompute
the quantities under test through a different route than the package
(exact rational arithmetic, plain-Python summation), so agreement is
evidence rather than tautology.
"""

import functools
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from gendermix import GenderCounts, ReferenceTable, TargetList

# ---------------------------------------------------------------------------
# Reference builders


def _zipfish_counts(class_total: int, n_names: int, minimum: int = 100) -> list[int]:
    # Deterministic long-tail counts: weight 1/(rank+8), floor at `minimum`.
    weights = [1.0 / (i + 8) for i in range(n_names)]
    scale = class_total / sum(weights)
    return [max(minimum, int(round(w * scale))) for w in weights]


def _split(total: int, delta: float) -> tuple[int, int]:
    female = int(round(total * (1.0 + delta) / 2.0))
    return female, total - female


def make_benchmark_reference() -> ReferenceTable:
    """2000-name table with a mixed inclination profile.

    Nine classes, mirrored around delta = 0. Nominal mass shares put 69%
    of individuals on fully gendered names, 10% at |delta| = 0.9, 5% at
    0.6, 10.5% at 0.3 and 5.5% on exactly balanced names, so roughly 16%
    of the mass sits below |delta| = 0.4. Total is about 1e6 individuals,
    every name has at least 100.
    """
    classes = [
        ("fo", 1.0, 600, 345_000),
        ("mo", -1.0, 600, 345_000),
        ("fh", 0.9, 150, 50_000),
        ("mh", -0.9, 150, 50_000),
        ("fs", 0.6, 100, 25_000),
        ("ms", -0.6, 100, 25_000),
        ("fw", 0.3, 100, 52_500),
        ("mw", -0.3, 100, 52_500),
        ("nu", 0.0, 100, 55_000),
    ]
    entries: dict[str, GenderCounts] = {}
    for prefix, delta, n_names, class_total in classes:
        for rank, total in enumerate(_zipfish_counts(class_total, n_names)):
            if delta == 0.0:
                total -= total % 2  # exact balance needs an even total
            female, male = _split(total, delta)
            entries[f"{prefix}{rank:04d}"] = GenderCounts(female, male)
    return ReferenceTable(entries, source_id="synthetic-benchmark")


def make_balanced_reference() -> ReferenceTable:
    """Mirrored table with exactly equal female and male grand totals.

    100,000 individuals per gender across inclination classes +/-1,
    +/-0.6, +/-0.2 and 0; the mirror symmetry makes the population
    imbalance exactly zero, which is what the attrition round-trip
    identity needs.
    """
    classes = [
        ("pfa", 1.0, 20, 3000),
        ("pma", -1.0, 20, 3000),
        ("pfb", 0.6, 10, 2000),
        ("pmb", -0.6, 10, 2000),
        ("pfc", 0.2, 10, 1500),
        ("pmc", -0.2, 10, 1500),
        ("pnd", 0.0, 10, 1000),
    ]
    entries: dict[str, GenderCounts] = {}
    for prefix, delta, n_names, per_name in classes:
        for rank in range(n_names):
            female, male = _split(per_name, delta)
            entries[f"{prefix}{rank:02d}"] = GenderCounts(female, male)
    return ReferenceTable(entries, source_id="synthetic-balanced")


# Per-letter inclination magnitudes for the letter-texture table, cycled
# over 13 mirrored letter pairs so the grand total is exactly balanced.
_LETTER_DELTAS = [0.10, 0.12, 0.14, 0.16]


def _letter_pattern() -> list[float]:
    """Signed per-letter inclination for a..z, mirrored pairs (k, k+13)."""
    magnitudes = [_LETTER_DELTAS[k % len(_LETTER_DELTAS)] for k in range(13)]
    return magnitudes + [-m for m in magnitudes]


def make_letter_reference() -> ReferenceTable:
    """Full-name table whose initial-letter buckets carry weak inclination.

    Every name is fully gendered (one female-bearing and one male-bearing
    name per letter), but the per-letter female share is tuned to a small
    +/-(0.10..0.16) inclination, mirrored across the 13 letter pairs.
    """
    letters = "abcdefghijklmnopqrstuvwxyz"
    per_letter = 40_000
    entries: dict[str, GenderCounts] = {}
    for letter, delta in zip(letters, _letter_pattern()):
        female, male = _split(per_letter, delta)
        entries[f"{letter}ina"] = GenderCounts(female, 0)
        entries[f"{letter}on"] = GenderCounts(0, male)
    return ReferenceTable(entries, source_id="synthetic-letters")


def letter_delta_mass_mean_sq() -> float:
    """Mass-weighted mean squared per-letter inclination (equal masses)."""
    pattern = _letter_pattern()
    return math.fsum(d * d for d in pattern) / len(pattern)


def make_fully_gendered_reference() -> ReferenceTable:
    """Small table where every name has |delta| = 1."""
    entries = {}
    for rank in range(8):
        entries[f"ga{rank}"] = GenderCounts(100 + 13 * rank, 0)
        entries[f"gb{rank}"] = GenderCounts(0, 90 + 17 * rank)
    return ReferenceTable(entries, source_id="synthetic-gendered")


def sample_roster(reference: ReferenceTable, n_names: int, seed: int) -> TargetList:
    """``n_names`` distinct reference names, each with 1 to 24 people,
    drawn reproducibly from ``seed``."""
    rng = random.Random(seed)
    names = rng.sample(sorted(reference.entries), n_names)
    return TargetList({s: rng.randint(1, 24) for s in names})


# ---------------------------------------------------------------------------
# Oracles


def solve_gamma_exact(items: list[tuple[Fraction | float, float]], gamma_star: float = 0.0, bits: int = 64) -> float:
    """Root of sum c (d - g*) / (1 - g* d + (d - g*) gamma) by bisection on
    (-1, 1), with every residual sign evaluated at 80 significant digits.

    ``items`` pairs each inclination d with its count c. A Fraction d at
    ``gamma_star`` = 0 is taken exactly (to 80 digits). Otherwise the terms
    are the float ones the package stores and its solve reads: num = d - g*,
    side = sign(num) and anchor, the limit denominator at gamma = -side,
    (1 - d)(1 + g*) or (1 + d)(1 - g*); each denominator is then
    anchor + num (gamma + side), which equals 1 - g* d + num gamma in exact
    arithmetic. So the oracle measures the solve, not the rounding of its
    inputs. The returned midpoint brackets the root to 2**-(bits - 1).
    Raises ValueError unless the root is interior: the residual's limit is
    positive (or a pole) at gamma -> -1 and negative (or a pole) at 1.
    """
    with localcontext() as ctx:
        ctx.prec = 80
        terms = []
        for d, c in items:
            if isinstance(d, Fraction) and gamma_star == 0.0:
                num = Decimal(d.numerator) / Decimal(d.denominator)
                anchor = 1 - abs(num)
            else:
                d = float(d)
                num = d - gamma_star
                anchor = (1.0 - d) * (1.0 + gamma_star) if num > 0.0 else (1.0 + d) * (1.0 - gamma_star)
                num, anchor = Decimal(num), Decimal(anchor)
            if num:
                terms.append((Decimal(c) * num, num, anchor, 1 if num > 0 else -1))

        def value(gamma: Decimal) -> Decimal:
            return sum(w / (anchor + num * (gamma + side)) for w, num, anchor, side in terms)

        def limit(end: int) -> Decimal:
            # A zero denominator at that end is a pole of the sign of its term.
            for w, num, anchor, side in terms:
                if anchor + num * (end + side) == 0:
                    return w
            return value(Decimal(end))

        if not (terms and limit(-1) > 0 and limit(1) < 0):
            raise ValueError("the oracle needs an interior root")
        lo, hi = Decimal(-1), Decimal(1)
        for _ in range(bits):
            mid = (lo + hi) / 2
            sign = value(mid)
            if sign == 0:
                return float(mid)
            if sign > 0:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


class SolverCase(NamedTuple):
    """One ggem solve: a matched target's counts and inclinations, its
    reference imbalance and the corpus class it was drawn for."""

    kind: str
    counts: np.ndarray
    deltas: np.ndarray
    gamma_star: float


def _limits(counts: np.ndarray, deltas: np.ndarray, gamma_star: float) -> tuple[float, float]:
    """The residual's limits at gamma -> -1 and 1 in plain floats, +/-inf
    at a pole."""
    num = deltas - gamma_star
    limits = []
    for denominator, pole in (((1.0 - deltas) * (1.0 + gamma_star), math.inf),
                              ((1.0 + deltas) * (1.0 - gamma_star), -math.inf)):
        at_pole = denominator == 0.0
        limits.append(pole if np.any(at_pole & (num != 0.0)) else
                      math.fsum(counts * num / np.where(at_pole, 1.0, denominator)))
    return limits[0], limits[1]


def _near_clamp(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, float]:
    """3-7 names whose residual limit at gamma -> -1 is a 1e-3 to 1e-9 share
    of the sum of its terms' sizes, so the root lies about that close to -1;
    mirrored to +1 half of the time."""
    k = int(rng.integers(3, 8))
    deltas = rng.uniform(-0.6, 0.6, k)
    counts = rng.integers(10, 60, k).astype(float)
    terms = counts[:-1] * deltas[:-1] / (1.0 - deltas[:-1])
    first = math.fsum(terms)
    # The last name leans against the others; its count sets the limit to
    # share * scale.
    deltas[-1] = -math.copysign(rng.uniform(0.1, 0.6), first)
    weight = deltas[-1] / (1.0 - deltas[-1])
    scale = math.fsum(np.abs(terms))
    counts[-1] = (10.0 ** -rng.uniform(3, 9) * scale - first) / weight
    return counts, (deltas if rng.random() < 0.5 else -deltas), 0.0


CORPUS_KINDS = (
    "interior", "near-clamp", "nearly-neutral", "pole-adjacent", "big-counts",
    "gamma-star-0.999", "gamma-star-0.9995", "resamples",
)


@functools.cache
def solver_corpus(per_class: int = 20, seed: int = 7) -> tuple[SolverCase, ...]:
    """A fixed corpus of ggem solves with interior roots, ``per_class`` of
    each class, from ``np.random.default_rng(seed)`` (no file, no download):

    * ``interior``: 2-60 names, deltas uniform on [-1, 1] with some poles,
      counts 1-50, gamma* 0 or uniform on [-0.5, 0.5];
    * ``near-clamp``: 3-7 names whose limit at one end is 1e-3 to 1e-9 of
      its scale, so the root lies that close to +/-1;
    * ``nearly-neutral``: 2-40 names with |delta| <= 0.05;
    * ``pole-adjacent``: deltas at and next to the poles (within 2**-53 to
      1e-6 of +/-1) beside uniform ones;
    * ``big-counts``: counts log-uniform up to 1e12;
    * ``gamma-star-0.999`` and ``gamma-star-0.9995``: gamma* at +/- that;
    * ``resamples``: bootstrap resamples (default_rng([seed, r]) and one
      multinomial, as ``bootstrap_interval`` draws them) of a 200-name
      ``sample_roster`` of the benchmark reference, undrawn names dropped.

    Every case's limits clear zero by at least 1e-3 of its count total,
    except ``near-clamp``, where that is the point, so every root is
    interior and ``solve_gamma_exact`` applies.
    """
    rng = np.random.default_rng(seed)
    cases: list[SolverCase] = []

    def uniform_names(k_lo: int, k_hi: int, count_hi: int) -> tuple[np.ndarray, np.ndarray]:
        k = int(rng.integers(k_lo, k_hi + 1))
        deltas = rng.uniform(-1.0, 1.0, k)
        deltas[rng.random(k) < 0.1] = rng.choice([-1.0, 1.0])
        return rng.integers(1, count_hi + 1, k).astype(float), deltas

    def near_pole() -> float:
        gap = rng.choice([2.0**-53, 2.0**-52, 10.0 ** -rng.uniform(6, 15), 0.0])
        return float(rng.choice([-1.0, 1.0]) * (1.0 - gap))

    makers = {
        "interior": lambda: (*uniform_names(2, 60, 50), float(rng.choice([0.0, rng.uniform(-0.5, 0.5)]))),
        "near-clamp": lambda: _near_clamp(rng),
        "nearly-neutral": lambda: (
            rng.integers(1, 51, k := int(rng.integers(2, 41))).astype(float), rng.uniform(-0.05, 0.05, k), 0.0
        ),
        "pole-adjacent": lambda: (
            rng.integers(1, 51, k := int(rng.integers(2, 12))).astype(float),
            np.array([near_pole() if rng.random() < 0.5 else rng.uniform(-1.0, 1.0) for _ in range(k)]),
            0.0,
        ),
        "big-counts": lambda: (
            np.rint(10.0 ** rng.uniform(0, 12, k := int(rng.integers(2, 31)))), rng.uniform(-1.0, 1.0, k), 0.0
        ),
        "gamma-star-0.999": lambda: (*uniform_names(2, 40, 50), float(rng.choice([-0.999, 0.999]))),
        "gamma-star-0.9995": lambda: (*uniform_names(2, 40, 50), float(rng.choice([-0.9995, 0.9995]))),
    }
    for kind, make in makers.items():
        found = 0
        while found < per_class:
            counts, deltas, gamma_star = make()
            lo, hi = _limits(counts, deltas, gamma_star)
            # Away from a clamp, both limits clear zero by 1e-3 of the counts.
            margin = 0.0 if kind == "near-clamp" else 1e-3 * float(np.sum(counts))
            if lo > margin and hi < -margin:
                cases.append(SolverCase(kind, counts, deltas, gamma_star))
                found += 1
    reference = make_benchmark_reference()
    roster = sample_roster(reference, 200, seed=4)
    rows = reference.rows_of(roster.keys)
    matched = np.flatnonzero(rows >= 0)
    deltas = 2.0 * reference.p_female_of(rows.take(matched)) - 1.0
    total = roster.total_individuals
    pvals = roster.counts / total
    for r in range(per_class):
        sample = np.random.default_rng([seed, r]).multinomial(total, pvals).take(matched).astype(float)
        drawn = np.flatnonzero(sample)
        cases.append(SolverCase("resamples", sample.take(drawn), deltas.take(drawn), 0.0))
    return tuple(cases)


def pipeline_sigma_gamma(reference: ReferenceTable, eta: float) -> float:
    """First-order standard deviation of the solved imbalance when a
    balanced reference is pushed through a sampled attrition with ratio
    ``eta``.

    Each name's surviving count is a sum of two independent binomials;
    the solved root responds linearly with weight delta/(1 + delta*g0)
    scaled by the residual's slope at the true root g0 = (eta-1)/(eta+1).
    """
    keep_f = eta / max(eta, 1.0)
    keep_m = 1.0 / max(eta, 1.0)
    gamma0 = (eta - 1.0) / (eta + 1.0)
    weights = []
    variances = []
    slope_terms = []
    for key in sorted(reference.entries):
        c = reference.entries[key]
        delta = c.inclination
        g = delta / (1.0 + delta * gamma0)
        expected = c.female * keep_f + c.male * keep_m
        var = c.female * keep_f * (1.0 - keep_f) + c.male * keep_m * (1.0 - keep_m)
        weights.append(var * g * g)
        variances.append(var)
        slope_terms.append(expected * g * g)
    slope = math.fsum(slope_terms)
    return math.sqrt(math.fsum(weights)) / slope


def bootstrap_sigma_gamma(items: list[tuple[float, int]], gamma: float, gamma_star: float = 0.0) -> float:
    """First-order standard deviation of the solved imbalance over
    multinomial resamples of a target.

    ``items`` pairs each matched name's inclination with its count N(s),
    and ``gamma`` is the root solved on the whole target. Each name adds
    f_s = (delta - gamma*) / (1 - gamma* delta + (delta - gamma*) gamma) to
    the residual, whose slope is then -sum N(s) f_s**2. Redrawing the
    target's N people over its names with shares N(s)/N gives the residual
    at the root a variance of sum N(s) f_s**2 (the mean term vanishes
    there, and unmatched names add nothing), so sigma is 1/sqrt of that sum.
    """
    spread = math.fsum(
        c * ((d - gamma_star) / (1.0 - gamma_star * d + (d - gamma_star) * gamma)) ** 2
        for d, c in items
    )
    return 1.0 / math.sqrt(spread)


def sweep_sigma_beta(reference: ReferenceTable, n_female: int, n_male: int) -> tuple[float, float]:
    """First-order standard deviation of ggem's beta (gamma* = 0) over sweep
    populations, and the relative size of the terms that order neglects.

    A sweep population draws n_female women over the names with shares
    q_f(s) = F(s)/F and n_male men with q_m(s) = M(s)/M. Each person adds
    f_s = delta_s / (1 + gamma delta_s) to the residual; at the true gamma
    its mean vanishes for a reference with F = M, its variance is
    n_f Var_qf(f) + n_m Var_qm(f), and its slope is
    -(n_f E_qf[f**2] + n_m E_qm[f**2]). sigma_beta is half of sqrt(variance)
    over |slope|. The allowance adds the two first-order corrections: the
    residual's curvature over one sigma, sd(R) |R''| / R'**2, and the
    relative spread of the slope, sd(R') / |R'|.
    """
    gamma = (n_female - n_male) / (n_female + n_male)
    rows = [(c.female, c.male, c.inclination) for c in reference.entries.values()]
    total_f = math.fsum(f for f, _, _ in rows)
    total_m = math.fsum(m for _, m, _ in rows)

    def moments(power: int) -> tuple[float, float]:
        # Sum over both genders of n E_q[f**power], and of n Var_q(f**power).
        mean = var = 0.0
        for n, column, total in ((n_female, 0, total_f), (n_male, 1, total_m)):
            e1 = math.fsum(r[column] * (r[2] / (1.0 + gamma * r[2])) ** power for r in rows) / total
            e2 = math.fsum(r[column] * (r[2] / (1.0 + gamma * r[2])) ** (2 * power) for r in rows) / total
            mean += n * e1
            var += n * (e2 - e1 * e1)
        return mean, var

    _, var_r = moments(1)
    slope, var_slope = moments(2)
    curvature = 2.0 * moments(3)[0]
    sd_r = math.sqrt(var_r)
    return 0.5 * sd_r / slope, sd_r * abs(curvature) / slope**2 + math.sqrt(var_slope) / slope


def baseline_moments(reference: ReferenceTable, n_female: int, n_male: int) -> tuple[float, float]:
    """Exact mean and standard deviation of method0's beta over sweep
    populations drawn from ``reference`` and analyzed against it.

    Every drawn person is a reference name, so method0's beta is
    sum p_s c_s / N: the mean of p(name) over the N = n_female + n_male
    people. The women draw their names independently with shares
    q_f(s) = F(s)/F and the men with q_m(s) = M(s)/M, so the mean is
    (n_f E_qf[p] + n_m E_qm[p]) / N and the variance is
    (n_f Var_qf(p) + n_m Var_qm(p)) / N**2, with no neglected terms.
    """
    rows = [(c.female, c.male, c.female / c.total) for c in reference.entries.values()]
    mean = var = 0.0
    for n, column in ((n_female, 0), (n_male, 1)):
        total = math.fsum(r[column] for r in rows)
        e1 = math.fsum(r[column] * r[2] for r in rows) / total
        e2 = math.fsum(r[column] * r[2] * r[2] for r in rows) / total
        mean += n * e1
        var += n * (e2 - e1 * e1)
    size = n_female + n_male
    return mean / size, math.sqrt(var) / size


def mean_std(values: list[float]) -> tuple[float, float]:
    """Plain-Python mean and ddof=1 standard deviation."""
    n = len(values)
    mean = math.fsum(values) / n
    if n < 2:
        return mean, 0.0
    return mean, math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (n - 1))


def reference_mass_below(reference: ReferenceTable, cutoff: float) -> float:
    """Fraction of individuals on names with |inclination| < cutoff."""
    total = reference.total_individuals
    small = sum(
        c.total for c in reference.entries.values() if abs(c.inclination) < cutoff
    )
    return small / total
