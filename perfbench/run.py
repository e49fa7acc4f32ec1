"""Benchmark for gendermix: one workload per run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Workloads: ``sweep``, ``sweep_letters``, ``estimate`` and ``ingest``; see
``perfbench/README.md`` for what each measures and why. The script draws
the workload's inputs from ``--seed`` into ``.perfbench-work/`` of the
checkout, times set-up in fresh processes (``setup_time.py``), runs the
workload in another fresh process (``worker.py``) and deletes the inputs
again.

It prints a run envelope (machine, versions, commit, seed, input sizes),
one ``name = value unit`` line per metric, and as its last line a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. It exits 1 when a correctness gate fails and 2 when the
program's source is missing.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import worker

# One thread for numerical libraries, here and in every child process.
# Set before anything imports numpy.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
SETUP_RUNS = 5
BUDGET_S = 170.0  # the whole run, set-up probes and workload included
# Kept back from the workload process for its final gates and report.
REPORT_RESERVE_S = 5.0

END_TO_END = {"items_per_s_norm": "items/s", "setup_s": "s", "peak_rss_mb": "MiB"}


def make_inputs(workload: str, seed: int, work: Path) -> None:
    import inputs

    work.mkdir(parents=True)
    truth: dict = {}
    if workload in ("sweep", "sweep_letters"):
        inputs.write_reference_csv(inputs.benchmark_reference(seed), work / "benchmark.csv")
    elif workload == "estimate":
        table = inputs.ssa_scale_reference(seed)
        inputs.write_reference_csv(table, work / "ssa_scale.csv")
        rosters = inputs.rosters(seed, table)
        for i, roster in enumerate(rosters):
            inputs.write_roster_csv(roster, work / f"roster-{i}.csv")
        truth = {"rosters": [{k: v for k, v in r.items() if k != "rows"} for r in rosters]}
    else:
        truth = inputs.ssa_tree(seed, work / "tree")
    (work / "truth.json").write_text(json.dumps(truth), encoding="utf-8")


def run_child(script: str, argv: list[str], deadline: float) -> dict:
    """Run ``script`` with ``argv``; return its last stdout line as JSON."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError(f"time budget spent before starting {script} " + " ".join(argv))
    done = subprocess.run(
        [sys.executable, str(HERE / script), *argv],
        stdout=subprocess.PIPE,
        text=True,
        timeout=remaining,
        cwd=ROOT,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{script} exited {done.returncode}: {' '.join(argv)}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def wait_for_samples(path: Path, deadline: float) -> None:
    """Block until the speed probe has written its first sample."""
    while not (path.exists() and path.stat().st_size > 0):
        if time.monotonic() > deadline:
            raise TimeoutError("the speed probe wrote no sample")
        time.sleep(0.01)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gendermix benchmark")
    parser.add_argument("--workload", required=True, choices=worker.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "gendermix" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'gendermix'}", file=sys.stderr)
        return 2

    # Every process of the run shares one CPU, so the speed probe samples
    # the speed the workload gets.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    deadline = time.monotonic() + BUDGET_S
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    spans_path = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
    speed_probe = None
    try:
        make_inputs(args.workload, args.seed, work)
        speed_probe = subprocess.Popen([sys.executable, str(HERE / "probe.py"), str(work / "probe.txt")])
        wait_for_samples(work / "probe.txt", deadline)
        setup = []
        if not args.trace:
            windows = [
                run_child("setup_time.py", [args.workload, str(work)], deadline)
                for _ in range(SETUP_RUNS)
            ]
            samples = worker.read_probe(work / "probe.txt")
            for w in windows:
                raw = w["end"] - w["start"]
                setup.append((raw, raw * worker.host_speed(samples, [(w["start"], w["end"])])))
        report = run_child(
            "worker.py",
            ["--workload", args.workload, "--inputs", str(work), "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--spans", str(spans_path), "--probe", str(work / "probe.txt"),
             "--deadline", repr(deadline - REPORT_RESERVE_S)],
            deadline,
        )
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if speed_probe is not None:
            speed_probe.terminate()
            try:
                speed_probe.wait(timeout=10)
            except subprocess.TimeoutExpired:
                speed_probe.kill()
                speed_probe.wait()
        shutil.rmtree(work, ignore_errors=True)

    import numpy

    envelope = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "item": report["item"],
        "sizes": report["sizes"],
        "operations": report["ops"],
        "budget_cut": report["budget_cut"],
        "items_per_s_raw": report["items_per_s_raw"],
        "host_speed": report["host_speed"],
        "op_rate_and_speed": report["op_rate_and_speed"],
        "items": report["items"],
        "setup_runs": len(setup),
        "setup_s_raw": statistics.median(raw for raw, _ in setup) if setup else None,
    }
    if args.trace:
        envelope["spans_file"] = str(spans_path.relative_to(ROOT))
        envelope["absent_layers"] = report["absent"]
        units = {m["name"]: m["unit"] for m in worker.per_layer_metrics()}
        values = report["layers"]
    else:
        units = END_TO_END
        values = {
            "items_per_s_norm": report["items_per_s_norm"],
            "setup_s": statistics.median(norm for _, norm in setup),
            "peak_rss_mb": report["peak_rss_mb"],
        }
    print("envelope " + json.dumps(envelope, sort_keys=True))
    if report["budget_cut"]:
        print(f"note: the {BUDGET_S:.0f}-s budget stopped the workload before --seconds or its minimum operations")
    for failure in report["failures"]:
        print(f"gate failed: {failure}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units if name in values}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    correct = report["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
