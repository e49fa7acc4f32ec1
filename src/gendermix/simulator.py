"""Synthetic populations with known gender composition.

Two generators:

* :func:`generate` draws a population of a requested size and true female
  fraction from a reference table, name by name;
* :func:`apply_pipeline` pushes an entire reference population through a
  leaky pipeline that retains the two genders at different rates, either
  as exact expected counts or as one binomial realization.

Both return a :class:`LabeledPopulation` carrying per-name true counts, so
benchmarks can score estimates against ground truth. Randomness comes from
numpy's default PCG64 generator; every draw is reproducible from the
recorded integer seed.
"""

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._fmt import fmt_float
from .errors import EstimationError, InputError
from .reference import ReferenceTable, TargetList, _pool_counts, _project_letters
from .estimator import PipelineRatio

SAMPLING_NATURAL = "natural"
SAMPLING_UNIFORM = "uniform"
PIPELINE_EXPECTED = "expected"
PIPELINE_SAMPLED = "sampled"

GENERATOR_ID = "numpy-default-rng-pcg64"


def _beta_of_entries(entries: dict[str, tuple[float, float]]) -> float:
    # fsum is correctly rounded, so its result does not depend on order.
    female = math.fsum(f for f, _ in entries.values())
    total = math.fsum(f + m for f, m in entries.values())
    return female / total


@dataclass(frozen=True)
class LabeledPopulation:
    """A population with known per-name true gender counts.

    ``entries`` maps each name to its (true_female, true_male) pair;
    counts are integers for sampled populations and may be real for
    expected-count pipelines. ``sampling`` records how the population was
    produced: ``natural``/``uniform`` for generated ones,
    ``expected``/``sampled`` for pipeline ones.
    """

    entries: dict[str, tuple[int | float, int | float]]
    beta_true: float
    seed: int
    sampling: str

    def __post_init__(self) -> None:
        if not self.entries:
            raise InputError("population is empty")
        for key, (female, male) in self.entries.items():
            if female < 0 or male < 0 or female + male <= 0:
                raise InputError(f"bad true counts for {key!r}: {(female, male)!r}")
        if _beta_of_entries(self.entries) != self.beta_true:
            raise InputError("stored beta_true does not match the entries")

    @property
    def gamma_true(self) -> float:
        return 2.0 * self.beta_true - 1.0

    @property
    def total_individuals(self) -> int | float:
        return sum(f + m for f, m in self.entries.values())

    def to_target(self) -> TargetList:
        return TargetList({k: f + m for k, (f, m) in sorted(self.entries.items())})


_Pool = tuple[list[str], np.ndarray]


def _pools(reference: ReferenceTable) -> tuple[_Pool, _Pool]:
    """Each gender's pool, female first: the names with a positive count of
    that gender in sorted-key order, and those counts as float64 weights.
    A sweep builds them once for all its draws."""
    order = reference.sorted_rows()
    pools = []
    for counts in (reference.female, reference.male):
        rows = order[counts[order] > 0]
        pools.append(([reference.keys[r] for r in rows.tolist()], counts[rows].astype(float)))
    return pools[0], pools[1]


def _generate_from_pools(
    pools: tuple[_Pool, _Pool], beta0: float, size: int, sampling: str, seed: int
) -> LabeledPopulation:
    n_female = math.floor(beta0 * size + 0.5)  # round half up
    n_male = size - n_female
    rng = np.random.default_rng(seed)

    def rows():
        # Females are drawn first: the draw order is part of what a seed reproduces.
        for gender, n, (names, weights) in zip(("female", "male"), (n_female, n_male), pools):
            if n > 0:
                if not names:
                    raise InputError(f"reference has no {gender}-bearing names to draw from")
                if sampling == SAMPLING_UNIFORM:
                    pvals = np.full(len(names), 1.0 / len(names))
                else:
                    pvals = weights / weights.sum()
                draws = rng.multinomial(n, pvals)
                for name, count in zip(names, draws.tolist()):
                    if count > 0:
                        yield (name, count, 0) if gender == "female" else (name, 0, count)

    fixed = {k: (f, m) for k, (f, m) in _pool_counts(rows()).items()}
    return LabeledPopulation(fixed, _beta_of_entries(fixed), seed, sampling)


def generate(
    reference: ReferenceTable,
    beta0: float,
    size: int,
    sampling: str = SAMPLING_NATURAL,
    seed: int = 0,
) -> LabeledPopulation:
    """Draw a labeled population of ``size`` individuals from a reference.

    Exactly round-half-up(beta0*size) females are drawn, each landing on a
    name with probability proportional to the name's female count
    (``natural``) or uniformly over female-bearing names (``uniform``);
    males symmetrically. The realized beta_true is that female count over
    ``size``, exactly.
    """
    if math.isnan(beta0) or not 0.0 <= beta0 <= 1.0:
        raise InputError(f"beta0 must be in [0, 1], got {beta0!r}")
    if not isinstance(size, int) or size < 1:
        raise InputError(f"size must be a positive integer, got {size!r}")
    if sampling not in (SAMPLING_NATURAL, SAMPLING_UNIFORM):
        raise InputError(f"unknown sampling {sampling!r}")
    if not isinstance(seed, int) or seed < 0:
        raise InputError(f"seed must be a nonnegative integer, got {seed!r}")
    return _generate_from_pools(_pools(reference), beta0, size, sampling, seed)


def default_beta0_grid() -> list[float]:
    """The standard 52-point true-composition grid.

    0.5% and 99.5% at the ends, and 1% to 99% in 2-point steps between.
    """
    return [0.005] + [(1 + 2 * k) / 100 for k in range(50)] + [0.995]


def apply_pipeline(
    reference: ReferenceTable,
    pipeline: PipelineRatio,
    mode: str = PIPELINE_EXPECTED,
    seed: int = 0,
) -> LabeledPopulation:
    """Push the whole reference population through a leaky pipeline.

    Retention rates are c_female = eta/max(eta, 1) and
    c_male = 1/max(eta, 1), the largest pair with the requested ratio that
    never exceeds 1. ``expected`` mode keeps exact expected (real-valued)
    counts: for a gender-balanced reference the population imbalance is
    (eta-1)/(eta+1) exactly. ``sampled`` mode draws one binomial
    realization per name and gender.
    """
    if mode not in (PIPELINE_EXPECTED, PIPELINE_SAMPLED):
        raise InputError(f"unknown pipeline mode {mode!r}")
    if not isinstance(seed, int) or seed < 0:
        raise InputError(f"seed must be a nonnegative integer, got {seed!r}")
    if not len(reference):
        raise InputError("empty reference")
    kappa = 1.0 / max(pipeline.eta, 1.0)
    c_female = pipeline.eta * kappa
    c_male = kappa
    order = reference.sorted_rows()
    names = [reference.keys[r] for r in order.tolist()]
    females = reference.female[order]
    males = reference.male[order]
    if mode == PIPELINE_EXPECTED:
        kept_f = females * c_female
        kept_m = males * c_male
    else:
        rng = np.random.default_rng(seed)
        kept_f = rng.binomial(females, c_female)
        kept_m = rng.binomial(males, c_male)
    entries: dict[str, tuple[int | float, int | float]] = {}
    for name, f, m in zip(names, kept_f, kept_m):
        if f + m > 0:
            if mode == PIPELINE_SAMPLED:
                entries[name] = (int(f), int(m))
            else:
                entries[name] = (float(f), float(m))
    if not entries:
        raise EstimationError("the pipeline removed every individual")
    return LabeledPopulation(entries, _beta_of_entries(entries), seed, mode)


def letter_population(population: LabeledPopulation, position: str) -> LabeledPopulation:
    """Project a labeled population onto letter buckets, keeping truth.

    Names without a usable letter at ``position`` are dropped; beta_true
    is recomputed over what remains.
    """
    rows = ((key, female, male) for key, (female, male) in sorted(population.entries.items()))
    buckets = _pool_counts(_project_letters(rows, position))
    if not buckets:
        raise InputError("letter projection dropped every name in the population")
    fixed = {k: (f, m) for k, (f, m) in buckets.items()}
    return LabeledPopulation(
        fixed, _beta_of_entries(fixed), population.seed, population.sampling
    )


def export_population(
    population: LabeledPopulation, target_path, truth_path
) -> None:
    """Write the anonymous target CSV and the labeled truth sidecar."""

    with open(Path(target_path), "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["name", "count"])
        for key in sorted(population.entries):
            female, male = population.entries[key]
            writer.writerow([key, fmt_float(female + male)])
    with open(Path(truth_path), "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["name", "true_female", "true_male"])
        for key in sorted(population.entries):
            female, male = population.entries[key]
            writer.writerow([key, fmt_float(female), fmt_float(male)])
