"""Synthetic reference builders and independent numerical oracles.

The builders construct fully controlled reference tables whose per-name
inclinations and mass profile are known by design. The oracles recompute
the quantities under test through a different route than the package
(exact rational arithmetic, plain-Python summation), so agreement is
evidence rather than tautology.
"""

import math
import random
from fractions import Fraction

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


def solve_gamma_exact(items: list[tuple[Fraction, int]], bits: int = 60) -> float:
    """Root of sum c*(d)/(1 + d*gamma) by bisection in exact rationals.

    ``items`` pairs each rational inclination with its count. The sign of
    the residual is evaluated without rounding, so the returned midpoint
    brackets the true root to 2**-bits. Assumes a sign change exists
    strictly inside (-1, 1).
    """

    def sign(gamma: Fraction) -> int:
        value = sum(Fraction(c) * d / (1 + d * gamma) for d, c in items)
        return (value > 0) - (value < 0)

    lo, hi = Fraction(-1), Fraction(1)
    # Nudge the bracket inside the poles at +/-1.
    margin = Fraction(1, 10**9)
    lo, hi = lo + margin, hi - margin
    assert sign(lo) > 0 and sign(hi) < 0, "oracle expects an interior crossing"
    for _ in range(bits):
        mid = (lo + hi) / 2
        s = sign(mid)
        if s == 0:
            return float(mid)
        if s > 0:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


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
