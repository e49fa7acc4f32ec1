"""Synthetic populations with known gender composition.

Two generators:

* :func:`generate` draws a population of a requested size and true female
  fraction from a reference table, one multinomial draw per gender;
* :func:`apply_pipeline` pushes an entire reference population through a
  leaky pipeline that retains the two genders at different rates, either
  as exact expected counts or as one binomial realization.

Both return a :class:`LabeledPopulation` carrying per-name true counts, so
benchmarks can score estimates against ground truth. Randomness comes from
numpy's default PCG64 generator; every draw is reproducible from the
recorded integer seed.
"""

import math
from collections.abc import Mapping
from itertools import compress
from pathlib import Path

import numpy as np

from ._fmt import csv_text
from .errors import EstimationError, InputError
from .reference import (MAX_TOTAL, ReferenceTable, TargetList, _bucket_sums, _Columnar, _count_arrays,
                        _in_key_order, _is_count, _is_integer_count, _letter_buckets, _too_large, _total,
                        export_target_csv)
from .estimator import PipelineRatio, _checked

SAMPLING_NATURAL = "natural"
SAMPLING_UNIFORM = "uniform"
PIPELINE_EXPECTED = "expected"
PIPELINE_SAMPLED = "sampled"

GENERATOR_ID = "numpy-default-rng-pcg64"


def _true_columns(entries: Mapping[str, tuple[int | float, int | float]]) -> tuple[np.ndarray, np.ndarray]:
    """The female and male columns of ``key: (female, male)`` true counts:
    int64 when every count is an integer, else float64. Counts keep a target
    list's rule: a name's total is positive and finite, and below 2**53 if
    integral."""
    integral = True
    for key, (female, male) in entries.items():
        whole = [_is_integer_count(key, count, "true count") for count in (female, male)]
        if not (0 <= female < math.inf and 0 <= male < math.inf and 0 < female + male < math.inf):
            raise InputError(f"bad true counts for {key!r}: {(female, male)!r}")
        if all(whole) and female + male >= MAX_TOTAL:
            raise _too_large(key)
        integral = integral and all(whole)
    return _count_arrays(entries, np.int64 if integral else np.float64)


def _beta_of(female: np.ndarray, male: np.ndarray) -> float:
    # fsum is correctly rounded, so its result does not depend on order.
    return math.fsum(female.tolist()) / math.fsum((female + male).tolist())


class LabeledPopulation(_Columnar):
    """A population with known per-name true gender counts, stored by column.

    ``keys`` are sorted, however the population was made. ``female`` and
    ``male`` are read-only columns, int64 when every count is an integer,
    else float64 (expected-count pipelines keep real counts); ``entries``
    is a read-only view of them as ``(true_female, true_male)`` Python
    numbers. ``sampling`` records how the population was made: ``natural``
    or ``uniform`` generated, ``expected`` or ``sampled`` pipeline ones.
    """

    __slots__ = ("keys", "female", "male", "beta_true", "seed", "sampling")

    def __init__(self, entries: Mapping[str, tuple], beta_true: float, seed: int, sampling: str) -> None:
        if not entries:
            raise InputError("population is empty")
        if "" in entries:  # so each key, with its total, is a valid target entry
            raise InputError("empty key in population")
        female, male = _true_columns(entries)  # checked in the caller's order
        if _beta_of(female, male) != beta_true:
            raise InputError("stored beta_true does not match the entries")
        self._set(*_in_key_order(tuple(entries), female, male), beta_true, seed, sampling)

    def _value(self, row: int) -> tuple[int | float, int | float]:
        return self.female[row].item(), self.male[row].item()

    @property
    def gamma_true(self) -> float:
        return 2.0 * self.beta_true - 1.0

    @property
    def total_individuals(self) -> int | float:
        return _total(self.female + self.male)

    def to_target(self) -> TargetList:
        counts = self.female + self.male
        return TargetList._from_columns(self.keys, counts, _total(counts))


def _pools(reference: ReferenceTable) -> tuple[tuple[str, ...], tuple, tuple]:
    """The reference's names (sorted, as a table keeps them), then each
    gender's pool, female first: the rows of the names with a positive
    count of that gender, and those counts as float64 weights. A sweep
    builds them once for all its draws."""
    pools = []
    for counts in (reference.female, reference.male):
        rows = np.flatnonzero(counts > 0)
        pools.append((rows, counts[rows].astype(float)))
    return reference.keys, pools[0], pools[1]


def _generate_from_pools(
    pools: tuple[tuple[str, ...], tuple, tuple], beta0: float, size: int, sampling: str, seed: int
) -> LabeledPopulation:
    names, *gender_pools = pools
    n_female = math.floor(beta0 * size + 0.5)  # round half up
    rng = np.random.default_rng(seed)
    drawn = np.zeros((2, len(names)), dtype=np.int64)
    # Females are drawn first: the draw order is part of what a seed reproduces.
    # Each draw fills its gender's row of ``drawn`` (``counts`` is a view).
    for gender, n, (rows, weights), counts in zip(
        ("female", "male"), (n_female, size - n_female), gender_pools, drawn
    ):
        if n > 0:
            if not rows.size:
                raise InputError(f"reference has no {gender}-bearing names to draw from")
            if sampling == SAMPLING_UNIFORM:
                pvals = np.full(rows.size, 1.0 / rows.size)
            else:
                pvals = weights / weights.sum()
            counts[rows] = rng.multinomial(n, pvals)
    present = np.flatnonzero(drawn.any(axis=0))
    keys = tuple(map(names.__getitem__, present.tolist()))
    female, male = drawn[:, present]
    # Both quotients of exact integers below 2**53 are correctly rounded, so
    # this is the beta_true the counts give, bit for bit.
    return LabeledPopulation._from_columns(keys, female, male, n_female / size, seed, sampling)


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
    ``size`` (below 2**53), exactly. ``keys`` are sorted.
    """
    beta0 = _checked("beta0", beta0, 0, 1)
    if not _is_count(size) or size < 1:
        raise InputError(f"size must be a positive integer, got {size!r}")
    if size >= MAX_TOTAL:
        raise InputError(f"size must be below 2**53, got {size!r}")
    if sampling not in (SAMPLING_NATURAL, SAMPLING_UNIFORM):
        raise InputError(f"unknown sampling {sampling!r}")
    if not _is_count(seed):
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
    if not _is_count(seed):
        raise InputError(f"seed must be a nonnegative integer, got {seed!r}")
    if not len(reference):
        raise InputError("empty reference")
    kappa = 1.0 / max(pipeline.eta, 1.0)
    c_female = pipeline.eta * kappa
    c_male = kappa
    if mode == PIPELINE_EXPECTED:
        kept_f = reference.female * c_female
        kept_m = reference.male * c_male
    else:
        rng = np.random.default_rng(seed)
        kept_f = rng.binomial(reference.female, c_female)
        kept_m = rng.binomial(reference.male, c_male)
    keep = kept_f + kept_m > 0
    if not keep.any():
        raise EstimationError("the pipeline removed every individual")
    keys = tuple(compress(reference.keys, keep.tolist()))
    female, male = kept_f[keep], kept_m[keep]
    return LabeledPopulation._from_columns(keys, female, male, _beta_of(female, male), seed, mode)


def letter_population(population: LabeledPopulation, position: str) -> LabeledPopulation:
    """Project a labeled population onto letter buckets, keeping truth.

    Names without a usable letter at ``position`` are dropped; beta_true
    is recomputed over what remains.
    """
    # Buckets, sorted, sum their names in the population's sorted-key row order.
    letters, ids = _letter_buckets(population.keys, position)
    if not letters:
        raise InputError("letter projection dropped every name in the population")
    sums = (_bucket_sums(ids, len(letters), column).tolist() for column in (population.female, population.male))
    buckets = dict(zip(letters, zip(*sums)))
    # Checked as any population's true counts: an integer total of 2**53 or more raises.
    female, male = _true_columns(buckets)
    return LabeledPopulation._from_columns(
        letters, female, male, _beta_of(female, male), population.seed, population.sampling
    )


def export_population(population: LabeledPopulation, target_path, truth_path) -> None:
    """Write the anonymous target CSV and the labeled truth sidecar."""
    export_target_csv(population.to_target(), target_path)
    columns = ("name", "true_female", "true_male")
    rows = [dict(zip(columns, row))
            for row in zip(population.keys, population.female.tolist(), population.male.tolist())]
    Path(truth_path).write_text(csv_text(columns, rows), encoding="utf-8", newline="")
