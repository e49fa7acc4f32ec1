"""Benchmark sweeps: score every estimator across a grid of known truths.

A sweep draws ``repeats`` populations at each true composition of a grid,
runs each configured method on each population, and aggregates per
(grid point, method) cell: mean and spread of the estimated beta, absolute
and relative errors against the truth, and coverage fractions. Cells where
a method cannot produce an estimate are recorded as failures, never fatal.

Everything is deterministic: the population for (grid index, repeat) is
seeded purely from the sweep seed and those two indices, aggregation order
is fixed, and exported files are byte-identical across reruns.
"""

import math
from dataclasses import astuple, dataclass, field
from pathlib import Path

import numpy as np

from ._fmt import csv_text, dump_json
from .errors import EstimationError, InputError
from .estimator import MethodSpec, _checked, _match_rows
from .reference import (MAX_TOTAL, MODE_FULL_NAME, MODES, ReferenceTable, _is_count, _letter_position, _total,
                        letter_table)
from .simulator import (
    GENERATOR_ID,
    SAMPLING_NATURAL,
    SAMPLING_UNIFORM,
    LabeledPopulation,
    _generate_from_pools,
    _pools,
    letter_population,
)

CSV_COLUMNS = [
    "beta0",
    "method",
    "cutoff",
    "mean_beta",
    "sigma_beta",
    "abs_error",
    "rel_error_pct",
    "names_matched_frac",
    "individuals_matched_frac",
    "female_matched_frac",
    "male_matched_frac",
    "failures",
]


def abs_error(beta: float, beta0: float) -> float:
    """Signed absolute error beta - beta0."""
    return beta - beta0


def rel_error(beta: float, beta0: float) -> float:
    """Relative error, in percent, on the minority share.

    100 * (min(beta, 1-beta) - min(beta0, 1-beta0)) / min(beta0, 1-beta0).
    Undefined (NaN) when beta0 is exactly 0 or 1.
    """
    for label, value in (("beta", beta), ("beta0", beta0)):
        _checked(label, value, 0, 1)
    if beta0 in (0.0, 1.0):
        return math.nan
    reference_minority = min(beta0, 1.0 - beta0)
    return 100.0 * (min(beta, 1.0 - beta) - reference_minority) / reference_minority


@dataclass(frozen=True)
class Coverage:
    """Fractions of a labeled population recognized by a reference."""

    names_frac: float
    individuals_frac: float
    female_frac: float
    male_frac: float


def coverage_stats(population: LabeledPopulation, reference: ReferenceTable) -> Coverage:
    """How much of the population the reference covers, overall and by
    true gender. Empty-gender fractions are NaN."""
    return _coverage(reference.rows_of(population.keys) >= 0, population.female, population.male)


def _coverage(found: np.ndarray, female: np.ndarray, male: np.ndarray) -> Coverage:
    """Coverage from which of a population's names the reference has and
    their true counts, all in sorted-key order."""
    matched_female, matched_male = _total(female[found]), _total(male[found])
    total_female, total_male = _total(female), _total(male)
    return Coverage(
        names_frac=int(np.count_nonzero(found)) / found.size,
        individuals_frac=(matched_female + matched_male) / (total_female + total_male),
        female_frac=matched_female / total_female if total_female > 0 else math.nan,
        male_frac=matched_male / total_male if total_male > 0 else math.nan,
    )


@dataclass(frozen=True)
class SweepConfig:
    """Everything one sweep needs; immutable and fully serializable."""

    build_reference: ReferenceTable
    analyze_reference: ReferenceTable | None = None
    methods: tuple[MethodSpec, ...] = ()
    beta0_grid: tuple[float, ...] = ()
    repeats: int = 1000
    population_size: int = 10_000
    sampling: str = SAMPLING_NATURAL
    seed: int = 0
    mode: str = MODE_FULL_NAME

    def __post_init__(self) -> None:
        if self.build_reference is None:
            raise InputError("sweep needs a build reference")
        if not self.beta0_grid:
            raise InputError("sweep needs a nonempty beta0 grid")
        for value in self.beta0_grid:
            try:
                _checked("grid value", value, 0, 1)
            except InputError:
                raise InputError(f"grid value {value!r} outside [0, 1]") from None
        for label, value in (("repeats", self.repeats), ("population size", self.population_size)):
            if not _is_count(value) or value < 1:
                raise InputError(f"{label} must be a positive integer, got {value!r}")
        if self.population_size >= MAX_TOTAL:
            raise InputError(f"population size must be below 2**53, got {self.population_size!r}")
        if self.sampling not in (SAMPLING_NATURAL, SAMPLING_UNIFORM):
            raise InputError(f"unknown sampling {self.sampling!r}")
        if self.mode not in MODES:
            raise InputError(f"unknown mode {self.mode!r}")
        # A names-mode sweep matches drawn keys against the analyze table as
        # they are; letter modes re-bucket it, and letter_table checks it.
        analyze, build = self.analyze_reference, self.build_reference
        if self.mode == MODE_FULL_NAME and analyze is not None and analyze.mode != build.mode:
            raise InputError(f"analyze table is in {analyze.mode} mode but the build table is in {build.mode} mode")
        if not _is_count(self.seed):
            raise InputError(f"seed must be a nonnegative integer, got {self.seed!r}")

    @property
    def resolved_analyze_reference(self) -> ReferenceTable:
        return self.analyze_reference if self.analyze_reference is not None else self.build_reference


@dataclass(frozen=True)
class SweepCell:
    """Aggregated results of one (grid point, method) pair."""

    beta0: float
    grid_index: int
    method: str
    cutoff: float | None
    repeats: int
    failures: int
    mean_beta: float
    sigma_beta: float
    abs_error: float
    rel_error_pct: float
    names_matched_frac: float
    individuals_matched_frac: float
    female_matched_frac: float
    male_matched_frac: float


@dataclass(frozen=True)
class SweepReport:
    cells: tuple[SweepCell, ...]
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "provenance": self.provenance,
            "cells": [
                {column: getattr(cell, column) for column in CSV_COLUMNS}
                for cell in self.cells
            ],
        }


def population_seed(seed: int, grid_index: int, repeat: int) -> int:
    """Pure derivation of one population's seed from the sweep seed.

    Anchoring each cell to (seed, grid_index, repeat) alone means any
    single cell can be regenerated in isolation, bit for bit.
    """
    sequence = np.random.SeedSequence((seed, grid_index, repeat))
    return int(sequence.generate_state(1, np.uint64)[0])


def run_sweep(config: SweepConfig) -> SweepReport:
    """Run the full grid x repeats x methods benchmark."""
    if not config.methods:
        raise InputError("sweep needs at least one method")
    pools = _pools(config.build_reference)
    position = _letter_position(config.mode)
    analyze = config.resolved_analyze_reference
    if position is not None:
        analyze = letter_table(analyze, position)

    n_methods = len(config.methods)
    n_grid = len(config.beta0_grid)
    betas = np.full((n_grid, n_methods, config.repeats), np.nan)
    coverage = np.full((n_grid, config.repeats, 4), np.nan)

    for grid_index, beta0 in enumerate(config.beta0_grid):
        for repeat in range(config.repeats):
            seed = population_seed(config.seed, grid_index, repeat)
            population = _generate_from_pools(
                pools, beta0, config.population_size, config.sampling, seed
            )
            if position is not None:
                try:
                    population = letter_population(population, position)
                except InputError:
                    # No drawn name has a usable letter: every method fails,
                    # and coverage (0 names over 0) stays NaN.
                    continue
            # One match per cell feeds the coverage and every method.
            rows = analyze.rows_of(population.keys)
            coverage[grid_index, repeat] = astuple(_coverage(rows >= 0, population.female, population.male))
            try:
                matched = _match_rows(rows, population.female + population.male, analyze)
            except EstimationError:
                continue  # no drawn name is in the analyze table: every method fails
            for m_index, spec in enumerate(config.methods):
                try:
                    estimate = spec._apply(matched.counts, matched.p_female)
                except EstimationError:
                    continue  # left as NaN, counted as a failure
                betas[grid_index, m_index, repeat] = estimate.composition.beta

    cells: list[SweepCell] = []
    for g, beta0 in enumerate(config.beta0_grid):
        cov = coverage[g]
        cov_means = [float(np.mean(cov[:, i])) for i in range(4)]
        for m_index, spec in enumerate(config.methods):
            series = betas[g, m_index]
            good = series[~np.isnan(series)]
            failures = int(config.repeats - good.size)
            if good.size > 0:
                mean_beta = float(np.mean(good))
                sigma_beta = float(np.std(good, ddof=1)) if good.size > 1 else 0.0
                cell_abs = abs_error(mean_beta, beta0)
                cell_rel = rel_error(mean_beta, beta0)
            else:
                mean_beta = sigma_beta = cell_abs = cell_rel = math.nan
            cells.append(
                SweepCell(
                    beta0=beta0,
                    grid_index=g,
                    method=spec.method,
                    cutoff=spec.cutoff,
                    repeats=config.repeats,
                    failures=failures,
                    mean_beta=mean_beta,
                    sigma_beta=sigma_beta,
                    abs_error=cell_abs,
                    rel_error_pct=cell_rel,
                    names_matched_frac=cov_means[0],
                    individuals_matched_frac=cov_means[1],
                    female_matched_frac=cov_means[2],
                    male_matched_frac=cov_means[3],
                )
            )

    provenance = {
        "generator": GENERATOR_ID,
        "seed": config.seed,
        "seed_derivation": "seedsequence(seed, grid_index, repeat)",
        "build_reference": config.build_reference.source_id,
        "analyze_reference": config.resolved_analyze_reference.source_id,
        "methods": [spec.label() for spec in config.methods],
        "gamma_star": [spec.gamma_star for spec in config.methods],
        "beta0_grid": list(config.beta0_grid),
        "repeats": config.repeats,
        "population_size": config.population_size,
        "sampling": config.sampling,
        "mode": config.mode,
    }
    return SweepReport(tuple(cells), provenance)


def export_report(report: SweepReport, fmt: str, path) -> None:
    """Write a sweep report as CSV (fixed column order) or JSON."""
    if fmt == "csv":
        text = csv_text(CSV_COLUMNS, report.to_dict()["cells"])
    elif fmt == "json":
        text = dump_json(report.to_dict())
    else:
        raise InputError(f"unknown report format {fmt!r}")
    Path(path).write_text(text, encoding="utf-8", newline="")
