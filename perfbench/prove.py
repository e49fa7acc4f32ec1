"""Repeat the benchmark over seeds and report how much each metric spreads.

    python3 perfbench/prove.py --runs 10 --seconds 15 --output FILE \\
        [--workloads sweep estimate] [--first-seed 1000]

Runs ``run.py --trace 0`` once per seed and workload, one run at a time
(with ``--traced``, also one ``--trace 1`` run per workload on the first
seed, whose per-layer metrics go into the output).
For each workload and end-to-end metric it reports the values, their
median and quartiles, and the spread: the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median. A spread is flagged when it is not below a third of the metric's
bound in ``BENCHMARK.json`` (``setup_s`` is exempt). Exits 1 when a run
fails or a spread is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--output", type=Path)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    result = {"runs": args.runs, "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        walls = []
        envelope = None
        for seed in range(args.first_seed, args.first_seed + args.runs):
            started = time.monotonic()
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, cwd=ROOT,
            )
            walls.append(time.monotonic() - started)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}", file=sys.stderr)
                ok = False
                continue
            envelope = next((json.loads(l[9:]) for l in lines if l.startswith("envelope ")), envelope)
            line = json.loads(lines[-1])
            for name in bounds:
                values[name].append(line["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={line['metrics'][n]['value']:.6g}" for n in bounds), flush=True)
        summary = {"wall_s": summarize(walls), "envelope": envelope, "metrics": {}}
        for name, series in values.items():
            if len(series) < 2:
                continue
            summary["metrics"][name] = stats = summarize(series)
            stats["bound"] = bounds[name]
            stats["steady"] = name == "setup_s" or stats["spread"] < bounds[name] / 3
            ok &= stats["steady"]
            print(f"{workload} {name}: median {stats['median']:.6g}, spread {stats['spread']:.4f}"
                  f" (bound {bounds[name]}){'' if stats['steady'] else '  NOT STEADY'}", flush=True)
        if args.traced:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.first_seed), "--seconds", str(args.seconds), "--trace", "1"],
                stdout=subprocess.PIPE, text=True, cwd=ROOT,
            )
            line = json.loads(done.stdout.strip().splitlines()[-1])
            ok &= done.returncode == 0
            summary["per_layer"] = {name: m["value"] for name, m in line["metrics"].items()}
        result["workloads"][workload] = summary
    if args.output is not None:
        args.output.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
