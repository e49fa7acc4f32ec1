"""Run one workload against ``src/gendermix`` in a fresh process.

``run.py`` starts this script; its last stdout line is one JSON object.

    python3 perfbench/worker.py --workload sweep --inputs DIR --seed 1 \\
        --seconds 15 --trace 0 --spans FILE --probe FILE --deadline T

The workload's operation repeats for ``--seconds`` (and at least the
workload's minimum number of operations), each output is checked against
the generator's truth, and the first operation is rerun to check that its
output is byte-identical. No operation starts that would leave too little
time before ``--deadline`` (a ``time.monotonic`` value) for itself and the
rerun, so a slower program still reports what it measured. With
``--trace 1`` the time is split: the first half runs untraced, the second
half with spans around the program's public callables, which become the
per-layer metrics. Set-up is timed separately by ``setup_time.py``.
"""

import argparse
import contextlib
import csv
import importlib
import io
import json
import logging
import math
import os
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import gates
import probe
import spans
from setup_time import import_program, load_references

WORKLOADS = ("sweep", "sweep_letters", "estimate", "ingest")

# The criterion-06 grid: 52 points, 0.04 among them.
SWEEP_GRID = tuple([0.005, 0.02, 0.04] + [(5 + 2 * k) / 100 for k in range(48)] + [0.995])
SWEEP_METHODS = ("ggem", "m1:0.5", "m2:0.9")
LETTER_METHODS = ("m0", "ggem")
POPULATION = 10_000
REPEATS_PER_BATCH = 2
MIN_BATCHES = 10  # 20 repeats per grid point, about 1,000 cells
BOOTSTRAP_REPEATS = 1000

METHOD_LABELS = ("ggem", "method0", "method1-0.5", "method1-0.9", "method2-0.9")
CLI_LABELS = ("ingest", "merge")
TIMED_LAYERS = (
    "reference.ingest_ssa_year_files",
    "reference.ingest_canonical_csv",
    "reference.merge",
    "reference.filter_min_count",
    "reference.letter_table",
    "reference.export_canonical_csv",
    "reference.load_target",
    "simulator.letter_population",
    "simulator.LabeledPopulation.to_target",
    "experiments.run_sweep",
    "experiments.coverage_stats",
    "experiments.export_report",
    "estimator.MethodSpec.run",
    "estimator.bootstrap_interval",
    "cli.main",
)
LABELS = {"estimator.MethodSpec.run": METHOD_LABELS, "cli.main": CLI_LABELS}
COUNTERS = {
    "reference.records_read": ("count", "higher"),
    "reference.records_kept_frac": ("fraction", "higher"),
    "reference.names_out": ("count", "higher"),
    "reference.bytes_written": ("B", "higher"),
    "reference.table_alloc_mb": ("MiB", "lower"),
    "estimator.reports": ("count", "higher"),
    "estimator.names_matched_frac": ("fraction", "higher"),
    "estimator.clamped_count": ("count", "lower"),
    "estimator.resamples": ("count", "higher"),
    "estimator.degenerate_frac": ("fraction", "lower"),
    "trace.untraced_items_per_s_norm": ("items/s", "higher"),
    "trace.traced_items_per_s_norm": ("items/s", "higher"),
    "trace.overhead_frac": ("fraction", "lower"),
}


def span_names(layer: str) -> list[str]:
    """The span names one traced callable reports under."""
    return [f"{layer}.{label}" for label in LABELS[layer]] if layer in LABELS else [layer]


def per_layer_metrics() -> list[dict]:
    """Every per-layer metric the traced run reports, in report order."""
    out = []
    for layer in TIMED_LAYERS:
        for name in span_names(layer):
            out.append({"name": f"{name}.calls", "unit": "count", "better": "higher"})
            out.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
    for name, (unit, better) in COUNTERS.items():
        out.append({"name": name, "unit": unit, "better": better})
    return out


def range_stats(truth: dict, first: int, last: int) -> dict[str, int]:
    """Records, skipped records and skipped people of years first..last."""
    out = {"records": 0, "skipped_records": 0, "skipped_people": 0}
    for year in range(first, last + 1):
        for field, value in truth["years"][str(year)].items():
            out[field] += value
    return out


def derived_seed(seed: int, k: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0] & 0x7FFFFFFF)


def read_table(path: Path) -> dict[str, tuple[int, int]]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return {name: (int(f), int(m)) for name, f, m in rows[1:]}


class Sweep:
    """Fig-3 (``letters=False``) or fig-6 (``letters=True``) sweep batches.

    Batch ``k`` is one ``run_sweep`` over the whole grid with
    ``REPEATS_PER_BATCH`` repeats and its own derived seed, exported as
    CSV. The gates pool every batch's CSV.
    """

    min_ops = MIN_BATCHES

    def __init__(self, gm, refs, seed, work: Path, letters: bool) -> None:
        self.gm = gm
        self.reference = refs["reference"]
        self.seed = seed
        self.path = work / "sweep.csv"
        self.letters = letters
        self.grid = tuple(gm.default_beta0_grid()) if letters else SWEEP_GRID
        tokens = LETTER_METHODS if letters else SWEEP_METHODS
        self.methods = tuple(gm.MethodSpec.parse(t) for t in tokens)
        self.mode = gm.MODE_INITIAL if letters else gm.MODE_FULL_NAME
        self.item = "population cell (grid point x repeat); every method runs on it"
        self.sizes = {
            "grid_points": len(self.grid),
            "repeats_per_batch": REPEATS_PER_BATCH,
            "cells_per_batch": len(self.grid) * REPEATS_PER_BATCH,
            "population": POPULATION,
            "methods": list(tokens),
            "mode": self.mode,
            "reference_names": len(self.reference),
        }

    def key(self, k: int) -> int:
        return k

    def op(self, k: int):
        gm = self.gm
        config = gm.SweepConfig(
            build_reference=self.reference,
            methods=self.methods,
            beta0_grid=self.grid,
            repeats=REPEATS_PER_BATCH,
            population_size=POPULATION,
            seed=derived_seed(self.seed, k),
            mode=self.mode,
        )
        start = time.perf_counter()
        report = gm.run_sweep(config)
        gm.export_report(report, "csv", self.path)
        timed = [(start, time.perf_counter())]
        output = self.path.read_bytes()
        rows = []
        for row in csv.DictReader(io.StringIO(output.decode("utf-8"))):
            method = row["method"] + (f":{row['cutoff']}" if row["cutoff"] else "")
            estimates = REPEATS_PER_BATCH - int(row["failures"])
            sd = float(row["sigma_beta"]) if estimates else math.nan
            rows.append((float(row["beta0"]), method, estimates, float(row["mean_beta"]), sd))
        failures = gates.finite_cells(rows, "ggem", REPEATS_PER_BATCH)
        return len(self.grid) * REPEATS_PER_BATCH, timed, output, failures, rows

    def final_gates(self, data) -> list[list[str]]:
        pooled = gates.pool(row for rows in data for row in rows)
        checks = [gates.ggem_unbiased(pooled, self.grid)]
        if self.letters:
            checks.append(gates.collapses_to_half(pooled, "method0", 0.3, 0.5))
        else:
            checks.append(gates.baseline_biased(pooled, 0.04, "method1:0.5", 0.01))
        return checks


class Estimate:
    """Library-shaped ``estimate --bootstrap 1000`` over every roster.

    One operation is a pass over the roster set; per roster it loads the
    target file, runs ggem and ``m1:0.9``, and a 1000-resample ggem
    bootstrap, and serializes the reports. Three passes, so the median
    drops one pass the speed probe corrects badly.
    """

    min_ops = 3

    def __init__(self, gm, refs, seed, work: Path, truth: dict) -> None:
        self.gm = gm
        self.reference = refs["reference"]
        self.rosters = truth["rosters"]
        self.paths = [work / f"roster-{i}.csv" for i in range(len(self.rosters))]
        self.seeds = [derived_seed(seed, i) for i in range(len(self.rosters))]
        self.ggem = gm.MethodSpec.parse("ggem")
        self.m1 = gm.MethodSpec.parse("m1:0.9")
        self.item = "bootstrap resample (ggem, 1000 per roster)"
        self.sizes = {
            "reference_names": len(self.reference),
            "rosters": [[r["size"], r["beta"]] for r in self.rosters],
            "resamples_per_roster": BOOTSTRAP_REPEATS,
        }

    def key(self, k: int) -> int:
        return 0

    def op(self, k: int):
        gm = self.gm
        timed = []
        texts = []
        failures = []
        for roster, path, seed in zip(self.rosters, self.paths, self.seeds):
            start = time.perf_counter()
            target = gm.load_target(path)
            ggem = self.ggem.run(target, self.reference)
            m1 = self.m1.run(target, self.reference)
            interval = gm.bootstrap_interval(
                target, self.reference, self.ggem, repeats=BOOTSTRAP_REPEATS, seed=seed
            )
            solved, baseline = gm.with_bootstrap(ggem, interval).to_json(), m1.to_json()
            timed.append((start, time.perf_counter()))
            texts += [solved, baseline]
            solved = json.loads(solved)
            baseline = json.loads(baseline)["beta"]
            truth = roster["females"] / roster["matched"]
            where = f"roster {roster['size']}@{roster['beta']}: "
            low, high = solved["bootstrap"]["low"], solved["bootstrap"]["high"]
            checks = gates.interval_covers(solved["beta"], low, high, truth, roster["matched"])
            failures += [where + f for f in checks]
            if not (isinstance(baseline, float) and 0.0 <= baseline <= 1.0):
                failures.append(where + f"m1:0.9 beta is {baseline}")
        items = BOOTSTRAP_REPEATS * len(self.rosters)
        return items, timed, "".join(texts).encode(), failures, None

    def final_gates(self, data) -> list[list[str]]:
        return []


class Ingest:
    """The CLI over an SSA-style year tree.

    One operation: ``ingest --format ssa`` for each year range, ``merge``
    of those tables, then ``ingest --letters initial`` of the merged table
    with a minimum count. Every table is compared with the generator's
    per-name totals.
    """

    min_ops = 2

    def __init__(self, gm, refs, seed, work: Path, truth: dict) -> None:
        self.cli = importlib.import_module("gendermix.cli")
        self.truth = truth
        self.out = work / "out"
        self.out.mkdir(exist_ok=True)
        tree = work / "tree"
        ranges = [tuple(map(int, r.split(":"))) for r in truth["ranges"]]
        self.min_count = truth["letter_min_count"]
        self.parts = [self.out / f"part-{lo}-{hi}.csv" for lo, hi in ranges]
        self.merged = self.out / "merged.csv"
        self.letters = self.out / "letters.csv"
        self.argvs = [
            ["ingest", "--format", "ssa", "--input", str(tree), "--years", f"{lo}:{hi}",
             "--min-count", "0", "--output", str(part)]
            for (lo, hi), part in zip(ranges, self.parts)
        ]
        self.argvs.append(["merge", "--input", *map(str, self.parts), "--output", str(self.merged)])
        self.argvs.append(
            ["ingest", "--input", str(self.merged), "--min-count", str(self.min_count),
             "--letters", "initial", "--output", str(self.letters)]
        )
        years = sorted(map(int, truth["years"]))
        self.records = range_stats(truth, years[0], years[-1])["records"]
        self.item = "raw SSA record (one Name,Sex,Count line)"
        self.sizes = {
            "years": len(years),
            "records": self.records,
            "year_ranges": list(truth["ranges"]),
            "names_merged": len(truth["merged"]),
            "letter_min_count": self.min_count,
        }
        # The program's per-record skip warnings would otherwise go to
        # stderr; a root handler keeps cli.main's basicConfig from adding one.
        logging.getLogger().addHandler(logging.NullHandler())

    def key(self, k: int) -> int:
        return 0

    def op(self, k: int):
        stdout = []
        codes = []
        start = time.perf_counter()
        for argv in self.argvs:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                codes.append(self.cli.main(argv))
            stdout.append(buffer.getvalue())
        timed = [(start, time.perf_counter())]
        files = [*self.parts, self.merged, self.letters]
        output = "".join(stdout).encode() + b"".join(p.read_bytes() for p in files)
        failures = [f"{argv[0]} exited {code}" for argv, code in zip(self.argvs, codes) if code != 0]
        if failures:
            return self.records, timed, output, failures, None
        for (years, table), part in zip(self.truth["ranges"].items(), self.parts):
            expected = {k: tuple(v) for k, v in table.items()}
            failures += gates.same_table(read_table(part), expected, f"ingest {years}")
        merged = {k: tuple(v) for k, v in self.truth["merged"].items()}
        failures += gates.same_table(read_table(self.merged), merged, "merge")
        letters = read_table(self.letters)
        expected = {k: tuple(v) for k, v in self.truth["letters"].items()}
        failures += gates.same_table(letters, expected, "letters")
        filtered = sum(f + m for f, m in merged.values() if f + m >= self.min_count)
        failures += gates.letters_conserve(letters, filtered, self.truth["letter_skipped_people"])
        summary = json.loads(stdout[-1])["table"]
        if summary["unique_names"] != len(expected) or summary["mode"] != "initial-letter":
            failures.append(f"letters summary {summary} disagrees with the table")
        return self.records, timed, output, failures, None

    def final_gates(self, data) -> list[list[str]]:
        return []


def make_layers(truth):
    """The traced callables, with the counters measured at their boundary."""

    def method_label(args, kwargs):
        return args[0].label().replace(":", "-")

    def cli_label(args, kwargs):
        argv = args[0] if args else kwargs.get("argv")
        return argv[0] if argv else "none"

    def on_ssa(tracer, args, kwargs, result):
        # The program does not report how many records it read, so the
        # base is the generator's count for the years asked for.
        years = kwargs.get("years", args[1] if len(args) > 1 else None)
        if not years:
            known = sorted(map(int, truth["years"]))
            years = (known[0], known[-1])
        tracer.count("reference.records_read", range_stats(truth, *years)["records"])

    def on_export(tracer, args, kwargs, result):
        tracer.count("reference.names_out", len(args[0]))
        tracer.count("reference.bytes_written", os.path.getsize(args[1]))

    def on_report(tracer, args, kwargs, report):
        tracer.count("estimator.reports")
        tracer.count("estimator.names_total", report.unique_names_total)
        tracer.count("estimator.names_matched", report.unique_names_matched)
        tracer.count("estimator.clamped_count", int(report.clamped))

    def on_bootstrap(tracer, args, kwargs, interval):
        tracer.count("estimator.resamples", interval.repeats)
        tracer.count("estimator.degenerate", interval.degenerate)

    observers = {
        "reference.ingest_ssa_year_files": on_ssa,
        "reference.export_canonical_csv": on_export,
        "estimator.MethodSpec.run": on_report,
        "estimator.bootstrap_interval": on_bootstrap,
    }
    labels = {"estimator.MethodSpec.run": method_label, "cli.main": cli_label}
    return [
        spans.Layer(
            metric=name,
            module="gendermix." + name.split(".", 1)[0],
            attr=name.split(".", 1)[1],
            label=labels.get(name),
            observe=observers.get(name),
        )
        for name in TIMED_LAYERS
    ]


class SkipCounter(logging.Handler):
    """Counts the records ``ingest_ssa_year_files`` logs as skipped.

    The program logs one warning per skipped record; only those logged
    while the SSA ingest is the innermost span count.
    """

    def __init__(self, tracer) -> None:
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        if self.tracer.current() == "reference.ingest_ssa_year_files" and "skipped record" in str(record.msg):
            self.tracer.count("reference.records_skipped")


def layer_metrics(tracer, absent: list[str], untraced: float, traced: float) -> dict[str, float]:
    totals = spans.layer_totals(tracer.spans)
    c = tracer.counters

    def ratio(num: str, den: str) -> float:
        return c.get(num, 0) / c[den] if c.get(den) else 0.0

    metrics: dict[str, float] = {}
    for layer in TIMED_LAYERS:
        if layer in absent:
            continue
        for name in span_names(layer):
            calls, self_s = totals.get(name, (0, 0.0))
            metrics[f"{name}.calls"] = calls
            metrics[f"{name}.self_s"] = self_s
    derived = {
        "reference.records_kept_frac": 1.0 - ratio("reference.records_skipped", "reference.records_read")
        if "reference.records_read" in c else 0.0,
        "estimator.names_matched_frac": ratio("estimator.names_matched", "estimator.names_total"),
        "estimator.degenerate_frac": ratio("estimator.degenerate", "estimator.resamples"),
        "trace.untraced_items_per_s_norm": untraced,
        "trace.traced_items_per_s_norm": traced,
        "trace.overhead_frac": 1.0 - traced / untraced if untraced else 0.0,
    }
    for name in COUNTERS:
        metrics[name] = derived[name] if name in derived else c.get(name, 0)
    return metrics


def read_probe(path: Path) -> list[tuple[float, float]]:
    """``(start, duration)`` samples written by ``probe.py``."""
    samples = []
    for line in path.read_text(encoding="utf-8").splitlines():
        fields = line.split()
        if len(fields) == 2:  # the probe may be writing the last line
            samples.append((float(fields[0]), float(fields[1])))
    return samples


def host_speed(samples, timed) -> float:
    """Mean host speed over the timed windows; 1.0 is the reference speed.

    A window too short to hold a sample takes the sample nearest to it.
    """
    if not samples:
        raise RuntimeError("the speed probe wrote no sample")
    inside = [d for t, d in samples if any(a <= t < b for a, b in timed)]
    if not inside:
        middle = (timed[0][0] + timed[-1][1]) / 2
        inside = [min(samples, key=lambda sample: abs(sample[0] - middle))[1]]
    return statistics.fmean(probe.REFERENCE_S / d for d in inside)


def rates(results, samples) -> dict[str, float]:
    """Median raw rate, median speed-normalized rate and median host speed
    over the operations that did work."""
    raw, normalized, speed = [], [], []
    for items, timed, *_ in results:
        seconds = sum(b - a for a, b in timed)
        if items and seconds > 0:
            raw.append(items / seconds)
            speed.append(host_speed(samples, timed))
            normalized.append(raw[-1] / speed[-1])
    if not raw:
        return {"raw": 0.0, "normalized": 0.0, "speed": 0.0, "per_op": []}
    return {
        "raw": statistics.median(raw),
        "normalized": statistics.median(normalized),
        "speed": statistics.median(speed),
        "per_op": [[round(r, 3), round(s, 4)] for r, s in zip(raw, speed)],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--spans", required=True, type=Path)
    parser.add_argument("--probe", required=True, type=Path, help="samples file written by probe.py")
    parser.add_argument("--deadline", required=True, type=float, help="time.monotonic() to be done by")
    args = parser.parse_args(argv)

    gm = import_program()
    truth_path = args.inputs / "truth.json"
    truth = json.loads(truth_path.read_text(encoding="utf-8")) if truth_path.exists() else {}
    tracer = spans.Tracer() if args.trace else None
    layers = make_layers(truth)
    absent: list[str] = []
    if tracer is not None:
        undo, absent = spans.install(tracer, layers, "gendermix")
        tracemalloc.start()
        with tracer.op("setup"):
            refs = load_references(gm, args.workload, args.inputs)
        tracer.count("reference.table_alloc_mb", tracemalloc.get_traced_memory()[1] / 2**20)
        tracemalloc.stop()
        undo()
    else:
        refs = load_references(gm, args.workload, args.inputs)

    if args.workload == "sweep":
        workload = Sweep(gm, refs, args.seed, args.inputs, letters=False)
    elif args.workload == "sweep_letters":
        workload = Sweep(gm, refs, args.seed, args.inputs, letters=True)
    elif args.workload == "estimate":
        workload = Estimate(gm, refs, args.seed, args.inputs, truth)
    else:
        workload = Ingest(gm, refs, args.seed, args.inputs, truth)

    results: list[tuple] = []  # (items, timed windows, output, failures, data)
    failures: list[str] = []
    longest = 0.0  # seconds of the longest operation so far
    budget_cut = False

    def room_for(ops: int) -> bool:
        return time.monotonic() + ops * longest <= args.deadline

    def run_ops(seconds: float, min_total: int, traced: bool) -> list[tuple]:
        nonlocal longest, budget_cut
        phase = []
        began = time.perf_counter()
        while time.perf_counter() - began < seconds or len(results) < min_total:
            k = len(results)
            # Keep time for this operation, and for a rerun of op 0 unless
            # this one repeats an earlier key and so checks the output itself.
            rerun = len({workload.key(i) for i in range(k + 1)}) == k + 1
            if not room_for(1 + rerun):
                budget_cut = True
                break
            op_start = time.perf_counter()
            try:
                with tracer.op(k) if traced else contextlib.nullcontext():
                    result = workload.op(k)
            except Exception:
                traceback.print_exc()
                result = (0, [], None, [f"operation {k} raised"], None)
            longest = max(longest, time.perf_counter() - op_start)
            failures.extend(f"op {k}: {f}" for f in result[3])
            results.append(result)
            phase.append(result)
        return phase

    if tracer is None:
        measured = run_ops(args.seconds, workload.min_ops, traced=False)
        traced_ops = []
    else:
        measured = run_ops(args.seconds / 2, 1, traced=False)
        undo, absent = spans.install(tracer, layers, "gendermix")
        skips = SkipCounter(tracer)
        logging.getLogger("gendermix.reference").addHandler(skips)
        traced_ops = run_ops(args.seconds / 2, workload.min_ops, traced=True)
        logging.getLogger("gendermix.reference").removeHandler(skips)
        undo()
    attempted = len(results)

    # Byte-identical reruns: ops that share a key must agree; when none
    # repeated, rerun op 0 outside the timed loop.
    outputs = [(workload.key(k), r[2]) for k, r in enumerate(results)]
    rerun_checked = True
    if len({key for key, _ in outputs}) == len(outputs):
        if not room_for(1):
            rerun_checked = False
            budget_cut = True
        else:
            try:
                outputs.append((workload.key(0), workload.op(0)[2]))
            except Exception:
                traceback.print_exc()
                outputs.append((workload.key(0), b""))
    attempted += 1
    first_output: dict[int, bytes] = {}
    identical = rerun_checked and all(
        first_output.setdefault(key, output) == output for key, output in outputs if output is not None
    )
    if not rerun_checked:
        failures.append("the time budget was spent before the rerun check")
    elif not identical:
        failures.append("rerun output differs from the first run with the same seed")

    failed = sum(1 for r in results if r[3]) + (not identical)
    for check in workload.final_gates([r[4] for r in results if r[4] is not None]):
        attempted += 1
        failed += bool(check)
        failures.extend(check)

    samples = read_probe(args.probe)
    measured_rates = rates(measured, samples)
    report = {
        "items_per_s_norm": measured_rates["normalized"],
        "items_per_s_raw": measured_rates["raw"],
        "host_speed": measured_rates["speed"],
        "op_rate_and_speed": measured_rates["per_op"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": len(results),
        "budget_cut": budget_cut,
        "items": sum(r[0] for r in results),
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "item": workload.item,
        "sizes": workload.sizes,
    }
    if tracer is not None:
        traced_rate = rates(traced_ops, samples)["normalized"]
        report["layers"] = layer_metrics(tracer, absent, report["items_per_s_norm"], traced_rate)
        report["absent"] = absent
        tracer.write(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
