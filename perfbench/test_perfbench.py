"""Self-tests of the benchmark: inputs, gates, span arithmetic, contract.

    python3 -m pytest perfbench
"""

import ast
import json
import logging
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gates
import inputs
import run
import spans
import worker

ROOT = Path(__file__).resolve().parent.parent
gm = worker.import_program()


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_same_seed_same_inputs(tmp_path):
    assert inputs.benchmark_reference(5) == inputs.benchmark_reference(5)
    assert inputs.benchmark_reference(5) != inputs.benchmark_reference(6)
    table = inputs.ssa_scale_reference(5, n_names=2000)
    assert table == inputs.ssa_scale_reference(5, n_names=2000)
    assert inputs.rosters(5, table) == inputs.rosters(5, table)
    first = inputs.ssa_tree(5, tmp_path / "a", n_names=300)
    second = inputs.ssa_tree(5, tmp_path / "b", n_names=300)
    assert first == second
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert inputs.ssa_tree(6, tmp_path / "c", n_names=300) != first


def test_benchmark_reference_profile():
    table = inputs.benchmark_reference(3)
    assert len(table) == 2000
    assert min(f + m for f, m in table.values()) >= 100
    female = sum(f for f, _ in table.values())
    male = sum(m for _, m in table.values())
    assert abs(female - male) / (female + male) < 1e-3
    assert not any(name.endswith("q") for name in table)


def test_roster_truth_matches_rows():
    table = inputs.ssa_scale_reference(2, n_names=4000)
    for roster in inputs.rosters(2, table):
        people = sum(count for _, count in roster["rows"])
        assert people == roster["size"]
        matched = sum(c for name, c in roster["rows"] if not name.lower().endswith("q"))
        assert matched == roster["matched"]
        assert roster["females"] == round(roster["beta"] * roster["matched"])


def _ingest(tmp_path, seed=4, n_names=300):
    """The ingest workload's pipeline on a small tree; returns (workload, result)."""
    truth = inputs.ssa_tree(seed, tmp_path / "tree", n_names=n_names)
    workload = worker.Ingest(gm, {}, seed, tmp_path, json.loads(json.dumps(truth)))
    return workload, workload.op(0)


def test_ingest_gates_pass_and_reject_corruption(tmp_path):
    workload, (items, seconds, output, failures, _) = _ingest(tmp_path)
    assert failures == []
    assert items == sum(year["records"] for year in workload.truth["years"].values())
    assert workload.op(1)[2] == output  # byte-identical rerun

    truth = workload.truth
    part = worker.read_table(workload.parts[0])
    expected = {k: tuple(v) for k, v in truth["ranges"][next(iter(truth["ranges"]))].items()}
    assert gates.same_table(part, expected, "part") == []
    key = next(iter(part))
    corrupted = dict(part, **{key: (part[key][0] + 1, part[key][1])})
    assert gates.same_table(corrupted, expected, "part")
    assert gates.same_table({k: v for k, v in part.items() if k != key}, expected, "part")
    assert gates.same_table(dict(part, extra=(1, 1)), expected, "part")

    letters = worker.read_table(workload.letters)
    merged = worker.read_table(workload.merged)
    filtered = sum(f + m for f, m in merged.values() if f + m >= truth["letter_min_count"])
    skipped = truth["letter_skipped_people"]
    assert gates.letters_conserve(letters, filtered, skipped) == []
    assert gates.letters_conserve(letters, filtered, skipped + 1)


def test_records_kept_frac_counts_the_programs_skips(tmp_path):
    workload, _ = _ingest(tmp_path)
    tracer = spans.Tracer()
    undo, _ = spans.install(tracer, worker.make_layers(workload.truth), "gendermix")
    skips = worker.SkipCounter(tracer)
    log = logging.getLogger("gendermix.reference")
    log.addHandler(skips)
    try:
        with tracer.op(0):
            workload.op(0)
    finally:
        log.removeHandler(skips)
        undo()
    skipped = sum(year["skipped_records"] for year in workload.truth["years"].values())
    read = sum(year["records"] for year in workload.truth["years"].values())
    assert skipped > 0
    # Only the SSA ingest's skips count, once per record read.
    assert tracer.counters["reference.records_skipped"] == skipped
    assert tracer.counters["reference.records_read"] == read
    metrics = worker.layer_metrics(tracer, [], 1.0, 1.0)
    assert metrics["reference.records_kept_frac"] == 1.0 - skipped / read


def test_ingest_rejects_a_corrupted_output_file(tmp_path, monkeypatch):
    workload, _ = _ingest(tmp_path)
    real_main = gm.cli.main

    def corrupting_main(argv):
        code = real_main(argv)
        if argv[0] == "merge":
            path = Path(argv[-1])
            lines = path.read_text(encoding="utf-8").splitlines()
            name, female, male = lines[1].split(",")
            lines[1] = f"{name},{int(female) + 1},{male}"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return code

    monkeypatch.setattr(gm.cli, "main", corrupting_main)
    failures = workload.op(1)[3]
    assert any(f.startswith("merge") for f in failures)


def test_ingest_counts_a_failing_exit(tmp_path, monkeypatch):
    workload, _ = _ingest(tmp_path)
    monkeypatch.setattr(gm.cli, "main", lambda argv: 2)
    assert workload.op(1)[3]


def _pooled_rows(shift=0.0, m1_bias=0.05, m0_ratio=0.1, batches=10):
    """Rows as one batch of the sweep CSV would give them, per method."""
    rows = []
    for b in range(batches):
        for i, beta0 in enumerate(worker.SWEEP_GRID):
            wobble = 0.002 * math.sin(7 * b + i)
            rows.append((beta0, "ggem", 2, beta0 + shift + wobble, 0.004))
            rows.append((beta0, "method1:0.5", 2, beta0 + m1_bias, 0.004))
            rows.append((beta0, "method0", 2, 0.5 + m0_ratio * (beta0 - 0.5), 0.004))
    return gates.pool(rows)


def test_sweep_gates_reject_corruption():
    grid = worker.SWEEP_GRID
    good = _pooled_rows()
    assert gates.ggem_unbiased(good, grid) == []
    assert gates.baseline_biased(good, 0.04, "method1:0.5", 0.01) == []
    assert gates.collapses_to_half(good, "method0", 0.3, 0.5) == []
    assert gates.ggem_unbiased(_pooled_rows(shift=0.02), grid)
    assert gates.ggem_unbiased(_pooled_rows(batches=5), grid)  # too few repeats
    assert gates.baseline_biased(_pooled_rows(m1_bias=0.0), 0.04, "method1:0.5", 0.01)
    assert gates.collapses_to_half(_pooled_rows(m0_ratio=1.0), "method0", 0.3, 0.5)
    rows = [(0.1, "ggem", 2, 0.1, 0.0), (0.2, "ggem", 1, 0.2, 0.0), (0.3, "ggem", 2, math.nan, 0.0)]
    assert len(gates.finite_cells(rows, "ggem", 2)) == 2
    assert gates.finite_cells(rows[:1], "ggem", 2) == []


def test_pool_matches_one_sweep():
    values = [0.1, 0.3, 0.2, 0.6, 0.5, 0.4]
    rows = []
    for pair in (values[:2], values[2:4], values[4:]):
        mean = sum(pair) / 2
        sd = math.sqrt(sum((v - mean) ** 2 for v in pair))
        rows.append((0.5, "ggem", 2, mean, sd))
    n, mean, sd = gates.pool(rows)[(0.5, "ggem")]
    expect_mean = sum(values) / 6
    expect_sd = math.sqrt(sum((v - expect_mean) ** 2 for v in values) / 5)
    assert n == 6 and abs(mean - expect_mean) < 1e-12 and abs(sd - expect_sd) < 1e-12


def test_estimate_gate_on_program_output(tmp_path):
    table = inputs.ssa_scale_reference(8, n_names=3000)
    inputs.write_reference_csv(table, tmp_path / "ref.csv")
    roster = inputs.rosters(8, table, plan=((400, 0.1),))[0]
    inputs.write_roster_csv(roster, tmp_path / "roster.csv")
    reference = gm.ingest_canonical_csv(tmp_path / "ref.csv")
    target = gm.load_target(tmp_path / "roster.csv")
    spec = gm.MethodSpec.parse("ggem")
    interval = gm.bootstrap_interval(target, reference, spec, repeats=200, seed=1)
    report = json.loads(gm.with_bootstrap(spec.run(target, reference), interval).to_json())
    low, high = report["bootstrap"]["low"], report["bootstrap"]["high"]
    truth = roster["females"] / roster["matched"]
    assert gates.interval_covers(report["beta"], low, high, truth, roster["matched"]) == []
    assert gates.interval_covers(0.5, low, high, truth, roster["matched"])
    assert gates.interval_covers(math.nan, low, high, truth, roster["matched"])


def test_host_speed():
    ref = worker.probe.REFERENCE_S
    samples = [(0.0, ref), (1.0, 2 * ref), (2.0, 4 * ref)]
    assert worker.host_speed(samples, [(0.5, 1.5)]) == 0.5
    assert worker.host_speed(samples, [(-0.5, 0.5), (1.5, 2.5)]) == (1.0 + 0.25) / 2
    assert worker.host_speed(samples, [(1.9, 1.95)]) == 0.25  # nearest sample
    with pytest.raises(RuntimeError):
        worker.host_speed([], [(0.0, 1.0)])
    results = [(100, [(0.5, 1.5)], b"", [], None), (50, [(1.5, 2.5)], b"", [], None)]
    summary = worker.rates(results, samples)
    assert summary["raw"] == 75.0 and summary["normalized"] == 200.0


def test_setup_clock_starts_before_any_other_import():
    tree = ast.parse((ROOT / "perfbench" / "setup_time.py").read_text(encoding="utf-8"))
    before = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["START"]:
            break
        before.append(node)
    else:
        pytest.fail("setup_time.py sets no START")
    imported = [a.name for n in before if isinstance(n, ast.Import) for a in n.names]
    others = [n for n in before if not isinstance(n, (ast.Import, ast.Expr))]
    assert imported == ["time"] and others == []


def test_deadline_stops_a_slow_run_that_still_reports(tmp_path, monkeypatch, capsys):
    truth = inputs.ssa_tree(4, tmp_path / "tree", n_names=300)
    (tmp_path / "truth.json").write_text(json.dumps(truth), encoding="utf-8")
    probe_file = tmp_path / "probe.txt"
    probe_file.write_text(f"{time.perf_counter()!r} {worker.probe.REFERENCE_S!r}\n", encoding="utf-8")
    real_op = worker.Ingest.op

    def slow_op(self, k):
        time.sleep(1.0)
        return real_op(self, k)

    monkeypatch.setattr(worker.Ingest, "op", slow_op)
    # Room for the first operation only: neither a second one nor the
    # rerun of op 0 fits before the deadline.
    deadline = time.monotonic() + 1.5
    assert worker.main([
        "--workload", "ingest", "--inputs", str(tmp_path), "--seed", "4", "--seconds", "0.1",
        "--trace", "0", "--spans", str(tmp_path / "spans.jsonl"), "--probe", str(probe_file),
        "--deadline", repr(deadline),
    ]) == 0
    assert time.monotonic() < deadline + 0.5
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["budget_cut"] and report["ops"] == 1
    assert report["items_per_s_norm"] > 0
    assert report["failures"] == ["the time budget was spent before the rerun check"]
    assert report["failed"] == 1 and report["attempted"] == 2


def test_self_time_arithmetic():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 6].
    tree = [
        ["root", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["g", 2.0, 3.0, 1, 0],
        ["b", 5.0, 6.0, 0, 0],
        ["b", 7.0, 8.5, 0, 0],
    ]
    assert spans.self_times(tree) == [4.5, 2.0, 1.0, 1.0, 1.5]
    assert spans.layer_totals(tree) == {"root": (1, 4.5), "a": (1, 2.0), "g": (1, 1.0), "b": (2, 2.5)}
    # Overlapping children count once; a child reaching past its parent is clipped.
    overlap = [["p", 0.0, 4.0, None, 0], ["c", 1.0, 3.0, 0, 0], ["c", 2.0, 5.0, 0, 0]]
    assert spans.self_times(overlap)[0] == 1.0


def test_install_records_spans_and_undo_restores():
    tracer = spans.Tracer()
    original = gm.reference.merge
    layers = [
        spans.Layer("reference.merge", "gendermix.reference", "merge"),
        spans.Layer("estimator.MethodSpec.run", "gendermix.estimator", "MethodSpec.run",
                    label=lambda args, kwargs: args[0].method),
        spans.Layer("reference.gone", "gendermix.reference", "no_such_callable"),
        spans.Layer("nowhere.thing", "gendermix.nowhere", "thing"),
    ]
    undo, absent = spans.install(tracer, layers, "gendermix")
    try:
        assert absent == ["reference.gone", "nowhere.thing"]
        assert gm.merge is gm.reference.merge is not original
        table = gm.ReferenceTable.from_counts({"ana": (9, 1), "bob": (1, 9)})
        with tracer.op(0):
            gm.merge([table, table])
            gm.MethodSpec.parse("ggem").run(gm.TargetList({"ana": 3}), table)
    finally:
        undo()
    assert gm.merge is gm.reference.merge is original
    assert [s[0] for s in tracer.spans] == ["op", "reference.merge", "estimator.MethodSpec.run.ggem"]
    assert [s[3] for s in tracer.spans] == [None, 0, 0]
    assert all(s[4] == 0 for s in tracer.spans)


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["per_layer"] == worker.per_layer_metrics()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(worker.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
    assert not (tmp_path / ".perfbench-work").exists()
