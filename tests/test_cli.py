import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gendermix import ReferenceTable, cli, estimator, ingest_canonical_csv, load_target

RAW = """name,female,male
Ana,90,10
Bob,5,95
Carol,99,1
Dan,2,98
Eve,80,20
Mia,60,40
"""

TARGET = """name,count
ana,30
bob,50
carol,20
"""


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "raw.csv").write_text(RAW, encoding="utf-8")
    (tmp_path / "target.csv").write_text(TARGET, encoding="utf-8")
    return tmp_path


@pytest.fixture
def ref(workdir, capsys):
    out = workdir / "ref.csv"
    code, _, err = run(
        capsys, "ingest", "--input", str(workdir / "raw.csv"),
        "--min-count", "0", "--output", str(out),
    )
    assert code == 0, err
    return out


# ---------------------------------------------------------------------------
# global behavior


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.startswith("gendermix ")


def test_no_arguments_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 2
    assert "usage" in err


def test_unknown_subcommand(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 2


def test_diagnostics_go_to_stderr_without_color(workdir, capsys):
    code, out, err = run(
        capsys, "ingest", "--input", str(workdir / "missing.csv"),
        "--output", str(workdir / "x.csv"),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "\x1b[" not in err  # captured stderr is not a tty


def run_process(cwd, *argv):
    """Run the CLI in a fresh interpreter, as a shell would."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = "import sys; from gendermix.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run(
        [sys.executable, "-c", code, *argv], cwd=cwd, env=env, capture_output=True, text=True
    )


def test_cli_module_runs_as_a_script(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run(
        [sys.executable, "-m", "gendermix.cli", "--version"], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "gendermix 0.1.0\n"


def test_verbose_flag_shows_info_summaries_on_stderr(workdir):
    (workdir / "mixed.csv").write_text(RAW + "李,3,3\n", encoding="utf-8")
    argv = ["ingest", "--input", "mixed.csv", "--min-count", "0", "--letters", "initial", "--output"]
    quiet = run_process(workdir, *argv, "quiet.csv")
    verbose = run_process(workdir, "ingest", "-v", *argv[1:], "verbose.csv")
    info = run_process(workdir, *argv, "info.csv", "--log-level", "INFO")
    assert quiet.returncode == verbose.returncode == info.returncode == 0
    summary = "INFO mixed.csv: skipped 1 record(s)"
    assert "WARNING mixed.csv: line 8: skipped record" in quiet.stderr
    assert summary not in quiet.stderr
    assert summary in verbose.stderr
    assert info.stderr == verbose.stderr
    # The level is a diagnostic setting: it is not echoed and changes no output.
    assert verbose.stdout.replace("verbose.csv", "quiet.csv") == quiet.stdout
    assert "log_level" not in quiet.stdout
    assert (workdir / "verbose.csv").read_bytes() == (workdir / "quiet.csv").read_bytes()


def test_log_level_is_restored_after_a_run(workdir, capsys):
    logger = logging.getLogger("gendermix")
    before = logger.level
    code, _, _ = run(
        capsys, "ingest", "-v", "--input", str(workdir / "raw.csv"),
        "--min-count", "0", "--output", str(workdir / "r.csv"),
    )
    assert code == 0
    assert logger.level == before
    # The package logs at INFO and WARNING only; other levels are refused.
    code, _, err = run(capsys, "ingest", "--log-level", "DEBUG", "--input", str(workdir / "raw.csv"))
    assert code == 2 and "invalid choice" in err


# ---------------------------------------------------------------------------
# ingest


def test_ingest_writes_table_and_sidecar(workdir, capsys):
    out = workdir / "ref.csv"
    code, stdout, _ = run(
        capsys, "ingest", "--input", str(workdir / "raw.csv"),
        "--min-count", "0", "--output", str(out),
    )
    assert code == 0
    summary = json.loads(stdout)
    assert summary["tool"] == "gendermix"
    assert summary["table"]["unique_names"] == 6
    assert summary["table"]["individuals"] == 600
    assert summary["table"]["mode"] == "full-name"
    assert summary["table"]["entropy_bits"] > 0
    meta = json.loads((workdir / "ref.csv.meta.json").read_text(encoding="utf-8"))
    assert meta["mode"] == "full-name"
    table = ingest_canonical_csv(out)
    assert table.entries["carol"].p_female == 0.99


def test_ingest_min_count_filters(workdir, capsys):
    (workdir / "uneven.csv").write_text(
        "name,female,male\nbig,200,200\nsmall,1,1\n", encoding="utf-8"
    )
    code, stdout, _ = run(
        capsys, "ingest", "--input", str(workdir / "uneven.csv"),
        "--min-count", "100", "--output", str(workdir / "r.csv"),
    )
    assert code == 0
    summary = json.loads(stdout)
    assert summary["table"]["unique_names"] == 1
    assert summary["table"]["min_count_threshold"] == 100


def test_ingest_letter_projection(workdir, capsys):
    out = workdir / "letters.csv"
    code, stdout, _ = run(
        capsys, "ingest", "--input", str(workdir / "raw.csv"),
        "--min-count", "0", "--letters", "initial", "--output", str(out),
    )
    assert code == 0
    assert json.loads(stdout)["table"]["mode"] == "initial-letter"
    table = ingest_canonical_csv(out)
    assert set(table.entries) == {"a", "b", "c", "d", "e", "m"}
    meta = json.loads((workdir / "letters.csv.meta.json").read_text(encoding="utf-8"))
    assert meta["mode"] == "initial-letter"


def test_ingest_ssa_directory(workdir, capsys):
    ssa = workdir / "ssa"
    ssa.mkdir()
    (ssa / "yob2019.txt").write_text("Mary,F,70\nJohn,M,90\n", encoding="utf-8")
    (ssa / "yob2020.txt").write_text("Mary,F,30\nJohn,M,10\n", encoding="utf-8")
    code, stdout, _ = run(
        capsys, "ingest", "--format", "ssa", "--input", str(ssa),
        "--years", "2019:2020", "--min-count", "0",
        "--output", str(workdir / "ssa.csv"),
    )
    assert code == 0
    summary = json.loads(stdout)
    assert summary["table"]["individuals"] == 200
    assert summary["table"]["source_id"] == "ssa:2019-2020"


def _unreadable_input(workdir: Path, ref: Path, case: str) -> tuple[Path, list[str]]:
    """An input file that cannot be read or decoded, and a command reading it."""
    latin1 = "Zoë".encode("latin-1")
    ssa = workdir / "ssa"
    ssa.mkdir()
    if case == "ssa-directory":
        bad = ssa / "yob1999.txt"
        bad.mkdir()
    else:
        bad = {
            "reference": workdir / "latin.csv",
            "ssa-file": ssa / "yob1999.txt",
            "target-csv": workdir / "team.csv",
            "target-names": workdir / "team.txt",
            "grid": workdir / "grid.txt",
            "config": workdir / "run.conf",
        }[case]
        bad.write_bytes({
            "reference": b"name,female,male\n" + latin1 + b",5,1\n",
            "ssa-file": latin1 + b",F,5\n",
            "target-csv": b"name,count\n" + latin1 + b",3\n",
            "target-names": latin1 + b"\n",
            "grid": b"0.5\n# " + latin1 + b"\n",
            "config": b"# " + latin1 + b"\nmethod = m0\n",
        }[case])
    out = str(workdir / "out.csv")
    argv = {
        "reference": ["ingest", "--input", str(bad), "--output", out],
        "ssa-file": ["ingest", "--format", "ssa", "--input", str(ssa), "--output", out],
        "ssa-directory": ["ingest", "--format", "ssa", "--input", str(ssa), "--output", out],
        "target-csv": ["estimate", "--reference", str(ref), "--target", str(bad)],
        "target-names": ["estimate", "--reference", str(ref), "--target", str(bad),
                         "--target-format", "names"],
        "grid": ["bench", "--build-ref", str(ref), "--grid", str(bad), "--repeats", "1",
                 "--size", "10", "--output", out],
        "config": ["estimate", "--reference", str(ref), "--target", str(workdir / "target.csv"),
                   "--config", str(bad)],
    }[case]
    return bad, argv


@pytest.mark.parametrize(
    "case",
    ["reference", "ssa-file", "ssa-directory", "target-csv", "target-names", "grid", "config"],
)
def test_unreadable_input_exits_2_naming_the_file(workdir, ref, capsys, case):
    bad, argv = _unreadable_input(workdir, ref, case)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and str(bad) in err.splitlines()[0]
    assert ("Is a directory" if case == "ssa-directory" else "not UTF-8 text") in err


def test_config_file_may_start_with_a_bom(workdir, ref, capsys):
    cfg = workdir / "bom.conf"
    cfg.write_bytes("method = m0\n".encode("utf-8-sig"))
    code, stdout, err = run(
        capsys, "estimate", "--reference", str(ref),
        "--target", str(workdir / "target.csv"), "--config", str(cfg),
    )
    assert code == 0, err
    assert json.loads(stdout)["report"]["method"] == "method0"


@pytest.mark.parametrize("command", ["ingest", "estimate"])
def test_field_over_the_csv_limit_exits_2_naming_the_line(workdir, ref, capsys, command):
    # csv.field_size_limit() is 131072 characters by default.
    bad = workdir / "long.csv"
    header = "name,female,male" if command == "ingest" else "name,count"
    bad.write_text(f"{header}\nana,{'1,' * (command == 'ingest')}1\n{'a' * 200_000},1,1\n", encoding="utf-8")
    argv = {
        "ingest": ["ingest", "--input", str(bad), "--output", str(workdir / "out.csv")],
        "estimate": ["estimate", "--reference", str(ref), "--target", str(bad)],
    }[command]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {bad}: line 3: field larger than field limit (131072)\n"


@pytest.mark.parametrize("meta", ["[1]", '{"min_count_threshold": "abc"}', '{"mode": "surname"}', "{"])
def test_malformed_table_sidecar_exits_2_naming_it(workdir, ref, capsys, meta):
    sidecar = workdir / "ref.csv.meta.json"
    sidecar.write_text(meta, encoding="utf-8")
    code, _, err = run(capsys, "merge", "--input", str(ref), "--output", str(workdir / "m.csv"))
    assert code == 2
    assert err.startswith(f"error: bad table sidecar {sidecar}: ")


@pytest.mark.parametrize("meta", ["[1]", '{"min_count_threshold": "abc"}', '{"mode": "surname"}', "{"])
def test_malformed_table_sidecar_exits_2_before_the_table_is_parsed(
    workdir, ref, capsys, monkeypatch, meta
):
    (workdir / "ref.csv.meta.json").write_text(meta, encoding="utf-8")
    parsed = []
    monkeypatch.setattr(cli, "ingest_canonical_csv", lambda *args, **kwargs: parsed.append(args))
    code, _, err = run(capsys, "merge", "--input", str(ref), "--output", str(workdir / "m.csv"))
    assert code == 2
    assert err.startswith("error: bad table sidecar ")
    assert parsed == []


def test_unwritable_output_exits_2_with_the_os_message(workdir, capsys):
    out = workdir / "nodir" / "x.csv"
    code, stdout, err = run(
        capsys, "ingest", "--input", str(workdir / "raw.csv"), "--output", str(out),
    )
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ") and "No such file or directory" in err and str(out) in err


def test_ingest_rejects_years_without_ssa(workdir, capsys):
    code, _, err = run(
        capsys, "ingest", "--input", str(workdir / "raw.csv"), "--years", "1990:2000",
        "--output", str(workdir / "x.csv"),
    )
    assert code == 2
    assert "--years applies to --format ssa only" in err
    assert not (workdir / "x.csv").exists()


@pytest.mark.parametrize("figure", ["fig3", "fig4", "fig6"])
def test_bench_rejects_methods_with_a_figure(workdir, ref, capsys, figure):
    code, _, err = run(
        capsys, "bench", "--build-ref", str(ref), "--figure", figure, "--methods", "ggem",
        "--mode", "initial", "--grid", "0.5", "--repeats", "1", "--size", "40",
        "--output", str(workdir / "fig.json"),
    )
    assert code == 2
    assert f"--methods cannot be combined with --figure {figure}" in err
    assert not (workdir / "fig.json").exists()


def test_ingest_bad_years_value(workdir, capsys):
    code, _, err = run(
        capsys, "ingest", "--format", "ssa", "--input", str(workdir),
        "--years", "then:now", "--output", str(workdir / "x.csv"),
    )
    assert code == 2
    assert "--years" in err


@pytest.mark.parametrize("years", ["١٩٨١:1990", " 19_81 ", "1981:1_990", "１９８１"])
def test_ingest_years_take_ascii_digits_only(workdir, capsys, years):
    ssa = workdir / "ssa"
    ssa.mkdir()
    (ssa / "yob1981.txt").write_text("Mary,F,70\n", encoding="utf-8")
    code, _, err = run(
        capsys, "ingest", "--format", "ssa", "--input", str(ssa),
        "--years", years, "--output", str(workdir / "x.csv"),
    )
    assert code == 2
    assert f"bad --years value {years!r}, expected YYYY or YYYY:YYYY" in err
    assert not (workdir / "x.csv").exists()


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("bench", "--repeats", "1_0"),
        ("bench", "--size", "２０"),
        ("bench", "--seed", "٣"),
        ("bench", "--bins", "-2"),
        ("ingest", "--min-count", "-5"),
        ("estimate", "--bootstrap", "-3"),
        ("estimate", "--seed", "5.0"),
        ("simulate", "--size", "-1"),
    ],
)
def test_integer_options_take_nonnegative_ascii_digits_only(workdir, ref, capsys, command, option, value):
    out = workdir / "out.csv"
    argv = {
        "ingest": ["--input", str(workdir / "raw.csv"), "--output", str(out)],
        "estimate": ["--reference", str(ref), "--target", str(workdir / "target.csv")],
        "simulate": ["--reference", str(ref), "--beta0", "0.3", "--size", "50", "--output", str(out)],
        "bench": ["--build-ref", str(ref), "--grid", "0.5", "--repeats", "2", "--size", "50",
                  "--output", str(out)],
    }[command]
    code, stdout, err = run(capsys, command, *argv, option, value)
    assert code == 2
    assert stdout == ""
    assert f"argument {option}: expected a nonnegative integer in ASCII digits, got {value!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["5", "-1", "nan"])
@pytest.mark.parametrize("command", ["estimate", "bench"])
def test_gamma_star_is_checked_for_every_method_before_any_file_is_read(workdir, capsys, command, value):
    # Only ggem reads gamma_star, but a value outside (-1, 1) is refused
    # whatever the method, and before the missing tables are opened.
    missing, out = str(workdir / "missing.csv"), workdir / "out.json"
    argv = {
        "estimate": ["--reference", missing, "--target", missing, "--method", "m0"],
        "bench": ["--build-ref", missing, "--methods", "m0", "--output", str(out)],
    }[command]
    code, stdout, err = run(capsys, command, *argv, "--gamma-star", value)
    assert code == 2
    assert stdout == ""
    assert f"argument --gamma-star: expected a number strictly inside (-1, 1), got {value!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("line", ["Ann,F,1_000", "Bo,M,٣"])
def test_ingest_ssa_counts_take_ascii_digits_only(workdir, capsys, line):
    ssa = workdir / "ssa"
    ssa.mkdir()
    (ssa / "yob1981.txt").write_text(f"Mary,F,70\n{line}\n", encoding="utf-8")
    code, _, err = run(
        capsys, "ingest", "--format", "ssa", "--input", str(ssa),
        "--output", str(workdir / "x.csv"),
    )
    assert code == 2
    count = line.rsplit(",", 1)[1]
    assert f"line 2: {line[-len(count) - 2]} count {count!r} is not an integer" in err


# ---------------------------------------------------------------------------
# merge


def test_merge_pools_tables(workdir, ref, capsys):
    (workdir / "more.csv").write_text(
        "name,female,male\nana,10,90\nzoe,50,50\n", encoding="utf-8"
    )
    code, _, _ = run(
        capsys, "ingest", "--input", str(workdir / "more.csv"),
        "--min-count", "0", "--output", str(workdir / "ref2.csv"),
    )
    assert code == 0
    merged_path = workdir / "merged.csv"
    code, stdout, _ = run(
        capsys, "merge", "--input", str(ref), str(workdir / "ref2.csv"),
        "--output", str(merged_path),
    )
    assert code == 0
    summary = json.loads(stdout)
    assert summary["table"]["unique_names"] == 7
    table = ingest_canonical_csv(merged_path)
    assert (table.entries["ana"].female, table.entries["ana"].male) == (100, 100)


def test_merge_rejects_mode_mismatch(workdir, ref, capsys):
    code, _, _ = run(
        capsys, "ingest", "--input", str(workdir / "raw.csv"), "--min-count", "0",
        "--letters", "last", "--output", str(workdir / "letters.csv"),
    )
    assert code == 0
    code, _, err = run(
        capsys, "merge", "--input", str(ref), str(workdir / "letters.csv"),
        "--output", str(workdir / "bad.csv"),
    )
    assert code == 2
    assert "modes" in err


# ---------------------------------------------------------------------------
# estimate


def test_estimate_json_report(workdir, ref, capsys):
    code, stdout, _ = run(
        capsys, "estimate", "--reference", str(ref),
        "--target", str(workdir / "target.csv"),
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["tool"] == "gendermix"
    assert payload["config"]["method"] == "ggem"
    report = payload["report"]
    assert report["method"] == "ggem"
    assert 0.0 <= report["beta"] <= 1.0
    assert report["coverage"]["individuals_total"] == 100


def test_estimate_baseline_method_with_cutoff(workdir, ref, capsys):
    code, stdout, _ = run(
        capsys, "estimate", "--reference", str(ref),
        "--target", str(workdir / "target.csv"),
        "--method", "m1", "--cutoff", "0.7",
    )
    assert code == 0
    report = json.loads(stdout)["report"]
    assert report["method"] == "method1"
    assert report["cutoff"] == 0.7


def test_estimate_requires_cutoff_for_threshold_methods(workdir, ref, capsys):
    code, _, err = run(
        capsys, "estimate", "--reference", str(ref),
        "--target", str(workdir / "target.csv"), "--method", "m2",
    )
    assert code == 2
    assert "--cutoff is required" in err


@pytest.mark.parametrize(
    "method,cutoff,message",
    [
        ("ggem", "0.9", "ggem takes no cutoff"),
        ("m0", "0.9", "method0 takes no cutoff"),
        ("m1", "0.3", "p_c must be in [0.5, 1.0], got 0.3"),
    ],
)
def test_estimate_rejects_bad_cutoff(workdir, ref, capsys, method, cutoff, message):
    code, stdout, err = run(
        capsys, "estimate", "--reference", str(ref),
        "--target", str(workdir / "target.csv"), "--method", method, "--cutoff", cutoff,
    )
    assert code == 2
    assert stdout == ""
    assert err == f"error: {message}\n"


def test_estimate_csv_layout(workdir, ref, capsys):
    code, stdout, _ = run(
        capsys, "estimate", "--reference", str(ref),
        "--target", str(workdir / "target.csv"), "--format", "csv",
    )
    assert code == 0
    lines = stdout.splitlines()
    comments = [line for line in lines if line.startswith("# ")]
    assert any(line.startswith("# method=") for line in comments)
    header_index = len(comments)
    assert lines[header_index].split(",") == cli._ESTIMATE_CSV_COLUMNS
    row = lines[header_index + 1].split(",")
    assert len(row) == len(cli._ESTIMATE_CSV_COLUMNS)
    assert row[0] == "ggem"
    assert row[13] == ""  # no bootstrap columns without --bootstrap


def test_estimate_output_flag_aliases(workdir, ref, capsys):
    base = [
        "estimate", "--reference", str(ref), "--target", str(workdir / "target.csv"),
    ]
    code, via_flag, _ = run(capsys, *base, "--format", "csv")
    assert code == 0
    code, via_alias, _ = run(capsys, *base, "--csv")
    assert code == 0
    assert via_flag == via_alias
    code, json_out, _ = run(capsys, *base, "--json")
    assert code == 0
    json.loads(json_out)


def test_estimate_bootstrap_is_deterministic(workdir, ref, capsys):
    argv = [
        "estimate", "--reference", str(ref), "--target", str(workdir / "target.csv"),
        "--method", "m0", "--bootstrap", "120", "--seed", "5",
    ]
    code, first, _ = run(capsys, *argv)
    assert code == 0
    code, second, _ = run(capsys, *argv)
    assert first == second
    bootstrap = json.loads(first)["report"]["bootstrap"]
    assert bootstrap["repeats"] == 120
    assert bootstrap["low"] <= bootstrap["high"]


def test_estimate_bootstrap_matches_and_solves_the_target_once(workdir, ref, capsys, monkeypatch):
    calls = {"rows_of": 0, "_solve_gamma": 0}
    original_rows_of, original_solve = ReferenceTable.rows_of, estimator._solve_gamma

    def rows_of(self, keys):
        calls["rows_of"] += 1
        return original_rows_of(self, keys)

    def solve(counts, terms, tol, start=None):
        calls["_solve_gamma"] += 1
        return original_solve(counts, terms, tol, start)

    monkeypatch.setattr(ReferenceTable, "rows_of", rows_of)
    monkeypatch.setattr(estimator, "_solve_gamma", solve)
    code, _, err = run(
        capsys, "estimate", "--reference", str(ref), "--target", str(workdir / "target.csv"),
        "--method", "ggem", "--bootstrap", "100",
    )
    assert code == 0, err
    # One full-target solve, then one per resample.
    assert calls == {"rows_of": 1, "_solve_gamma": 101}


def test_estimate_bootstrap_reports_the_point_estimate_error_first(workdir, ref, capsys):
    (workdir / "strangers.csv").write_text("name,count\nzed,3\n", encoding="utf-8")
    base = ["estimate", "--reference", str(ref), "--method", "m0", "--bootstrap", "50"]
    code, _, err = run(capsys, *base, "--target", str(workdir / "strangers.csv"))
    assert code == 3 and "no target name appears" in err
    code, _, err = run(capsys, *base, "--target", str(workdir / "target.csv"))
    assert code == 2 and "at least 100" in err


def test_estimate_names_target_format(workdir, ref, capsys):
    (workdir / "people.txt").write_text("Ana\nBob\nAna\nCarol\n", encoding="utf-8")
    code, stdout, _ = run(
        capsys, "estimate", "--reference", str(ref),
        "--target", str(workdir / "people.txt"), "--target-format", "names",
        "--method", "m0",
    )
    assert code == 0
    assert json.loads(stdout)["report"]["coverage"]["individuals_total"] == 4


def test_estimate_names_target_rejects_count_column(workdir, ref, capsys):
    # A comma would otherwise become part of the key ("ana,3") and never match.
    (workdir / "people.txt").write_text("Bob\nAna,3\n", encoding="utf-8")
    code, stdout, err = run(
        capsys, "estimate", "--reference", str(ref),
        "--target", str(workdir / "people.txt"), "--target-format", "names",
    )
    assert code == 2
    assert stdout == ""
    assert "line 2" in err and "'Ana,3'" in err and "--target-format csv" in err


def test_estimate_letter_reference_projects_target(workdir, capsys):
    code, _, _ = run(
        capsys, "ingest", "--input", str(workdir / "raw.csv"), "--min-count", "0",
        "--letters", "initial", "--output", str(workdir / "letters.csv"),
    )
    assert code == 0
    code, stdout, _ = run(
        capsys, "estimate", "--reference", str(workdir / "letters.csv"),
        "--target", str(workdir / "target.csv"), "--method", "m0",
    )
    assert code == 0
    report = json.loads(stdout)["report"]
    assert report["coverage"]["unique_names_total"] == 3  # a, b, c initials


def test_estimate_no_overlap_is_estimation_failure(workdir, ref, capsys):
    (workdir / "strangers.csv").write_text("name,count\nxavier,5\n", encoding="utf-8")
    code, out, err = run(
        capsys, "estimate", "--reference", str(ref),
        "--target", str(workdir / "strangers.csv"),
    )
    assert code == 3
    assert out == ""
    assert "no target name appears" in err


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_three_files(workdir, ref, capsys):
    out = workdir / "pop.csv"
    code, stdout, _ = run(
        capsys, "simulate", "--reference", str(ref), "--beta0", "0.3",
        "--size", "200", "--seed", "7", "--output", str(out),
    )
    assert code == 0
    meta = json.loads(stdout)
    assert meta["beta_true"] == 0.3
    assert meta["generator"] == "numpy-default-rng-pcg64"
    assert (workdir / "pop.truth.csv").exists()
    on_disk = json.loads((workdir / "pop.meta.json").read_text(encoding="utf-8"))
    assert on_disk == meta
    target = load_target(out)
    assert target.total_individuals == 200


def test_simulate_is_deterministic(workdir, ref, capsys):
    out = workdir / "pop.csv"
    argv = [
        "simulate", "--reference", str(ref), "--beta0", "0.5",
        "--size", "100", "--seed", "3", "--output", str(out),
    ]
    assert run(capsys, *argv)[0] == 0
    first = out.read_bytes()
    assert run(capsys, *argv)[0] == 0
    assert out.read_bytes() == first


def test_simulate_rejects_bad_composition(workdir, ref, capsys):
    code, _, err = run(
        capsys, "simulate", "--reference", str(ref), "--beta0", "1.5",
        "--size", "10", "--output", str(workdir / "x.csv"),
    )
    assert code == 2
    assert "beta0" in err


# ---------------------------------------------------------------------------
# bench


def test_bench_csv_sweep(workdir, ref, capsys):
    out = workdir / "sweep.csv"
    code, stdout, _ = run(
        capsys, "bench", "--build-ref", str(ref), "--methods", "m0,ggem",
        "--grid", "0.2,0.8", "--repeats", "2", "--size", "60",
        "--format", "csv", "--output", str(out),
    )
    assert code == 0
    assert json.loads(stdout)["cells"] == 4
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("beta0,method,cutoff,mean_beta")
    assert len(lines) == 5


def test_bench_needs_at_least_one_method(workdir, ref, capsys):
    out = workdir / "sweep.csv"
    code, stdout, err = run(
        capsys, "bench", "--build-ref", str(ref), "--methods", ",", "--output", str(out),
    )
    assert code == 2 and stdout == ""
    assert "sweep needs at least one method" in err
    assert not out.exists()


def test_bench_rejects_an_analyze_table_of_another_mode(workdir, ref, capsys):
    initial, out = workdir / "initial.csv", workdir / "sweep.json"
    code, _, _ = run(
        capsys, "ingest", "--input", str(workdir / "raw.csv"), "--min-count", "0",
        "--letters", "initial", "--output", str(initial),
    )
    assert code == 0
    # Drawn full names never match letter keys: every cell would fail.
    code, stdout, err = run(
        capsys, "bench", "--build-ref", str(ref), "--analyze-ref", str(initial),
        "--grid", "0.5", "--repeats", "2", "--size", "40", "--output", str(out),
    )
    assert code == 2 and stdout == ""
    assert "analyze table is in initial-letter mode but the build table is in full-name mode" in err
    assert not out.exists()


def test_bench_json_embeds_configuration(workdir, ref, capsys):
    out = workdir / "sweep.json"
    code, _, _ = run(
        capsys, "bench", "--build-ref", str(ref), "--methods", "ggem",
        "--grid", "0.5", "--repeats", "2", "--size", "40",
        "--output", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    prov = payload["provenance"]
    assert prov["tool"] == "gendermix"
    assert prov["config"]["repeats"] == 2
    assert prov["seed_derivation"] == "seedsequence(seed, grid_index, repeat)"
    assert len(payload["cells"]) == 1


def test_bench_grid_from_file(workdir, ref, capsys):
    (workdir / "grid.txt").write_text("# sparse\n0.1\n0.9\n", encoding="utf-8")
    out = workdir / "sweep.json"
    code, stdout, _ = run(
        capsys, "bench", "--build-ref", str(ref), "--methods", "m0",
        "--grid", str(workdir / "grid.txt"), "--repeats", "1", "--size", "30",
        "--output", str(out),
    )
    assert code == 0
    assert json.loads(stdout)["cells"] == 2


def test_bench_figure_fig3_preset(workdir, ref, capsys):
    out = workdir / "fig3.json"
    code, stdout, _ = run(
        capsys, "bench", "--build-ref", str(ref), "--figure", "fig3",
        "--grid", "0.5", "--repeats", "1", "--size", "40", "--output", str(out),
    )
    assert code == 0
    assert json.loads(stdout)["cells"] == 7
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["provenance"]["methods"] == [
        "method1:0.5", "method1:0.7", "method1:0.9",
        "method2:0.5", "method2:0.7", "method2:0.9", "ggem",
    ]


def test_bench_figure_fig4_partial_contributions(workdir, ref, capsys):
    out = workdir / "fig4.csv"
    code, stdout, _ = run(
        capsys, "bench", "--build-ref", str(ref), "--figure", "fig4",
        "--beta0", "0.3", "--bins", "5", "--size", "200",
        "--format", "csv", "--output", str(out),
    )
    assert code == 0
    assert json.loads(stdout)["rows"] == 10
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "method,bin_low,bin_high,beta_partial,individuals,beta_global"
    assert len(lines) == 11


def test_bench_figure_fig4_matches_and_solves_once_per_method(workdir, ref, capsys, monkeypatch):
    calls = {"_match": 0, "_solve_gamma": 0}
    for name in calls:
        original = getattr(estimator, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(estimator, name, counted)
    code, _, err = run(
        capsys, "bench", "--build-ref", str(ref), "--figure", "fig4",
        "--beta0", "0.3", "--bins", "5", "--size", "200",
        "--format", "csv", "--output", str(workdir / "fig4.csv"),
    )
    assert code == 0, err
    # One match for method0 and one for ggem; only ggem solves.
    assert calls == {"_match": 2, "_solve_gamma": 1}


@pytest.mark.parametrize("mode", ["initial", "last"])
def test_bench_figure_fig4_rejects_letter_mode(workdir, ref, capsys, mode):
    code, stdout, err = run(
        capsys, "bench", "--build-ref", str(ref), "--figure", "fig4", "--mode", mode,
        "--size", "200", "--output", str(workdir / "fig4.json"),
    )
    assert code == 2
    assert stdout == ""
    assert err == "error: --figure fig4 runs on full names only; it takes no --mode initial or --mode last\n"
    assert not (workdir / "fig4.json").exists()


def test_bench_figure_fig6_requires_letter_mode(workdir, ref, capsys):
    code, _, err = run(
        capsys, "bench", "--build-ref", str(ref), "--figure", "fig6",
        "--grid", "0.5", "--repeats", "1", "--size", "40",
        "--output", str(workdir / "x.json"),
    )
    assert code == 2
    assert "fig6" in err
    code, stdout, _ = run(
        capsys, "bench", "--build-ref", str(ref), "--figure", "fig6",
        "--mode", "initial", "--grid", "0.5", "--repeats", "1", "--size", "40",
        "--output", str(workdir / "fig6.json"),
    )
    assert code == 0
    assert json.loads(stdout)["cells"] == 2


# ---------------------------------------------------------------------------
# config files


def test_config_file_supplies_defaults(workdir, ref, capsys):
    cfg = workdir / "estimate.conf"
    cfg.write_text("method = m1\ncutoff = 0.7\n", encoding="utf-8")
    code, stdout, _ = run(
        capsys, "estimate", "--reference", str(ref),
        "--target", str(workdir / "target.csv"), "--config", str(cfg),
    )
    assert code == 0
    report = json.loads(stdout)["report"]
    assert report["method"] == "method1"
    assert report["cutoff"] == 0.7


def test_explicit_flags_beat_config_values(workdir, ref, capsys):
    cfg = workdir / "estimate.conf"
    cfg.write_text("method = m0\n", encoding="utf-8")
    code, stdout, _ = run(
        capsys, "estimate", "--reference", str(ref),
        "--target", str(workdir / "target.csv"),
        f"--config={cfg}", "--method", "ggem",
    )
    assert code == 0
    assert json.loads(stdout)["report"]["method"] == "ggem"


def test_config_file_boolean_and_comments(workdir, capsys):
    (workdir / "tokens.csv").write_text(
        "name,female,male\nMary Jo,8,0\nBob,0,8\n", encoding="utf-8"
    )
    cfg = workdir / "ingest.conf"
    cfg.write_text("# options\nfirst-token = true\nmin-count = 0\n", encoding="utf-8")
    code, stdout, _ = run(
        capsys, "ingest", "--input", str(workdir / "tokens.csv"),
        "--config", str(cfg), "--output", str(workdir / "t.csv"),
    )
    assert code == 0
    table = ingest_canonical_csv(workdir / "t.csv")
    assert "mary" in table.entries


def test_malformed_config_file(workdir, ref, capsys):
    cfg = workdir / "bad.conf"
    cfg.write_text("method m0\n", encoding="utf-8")
    code, _, err = run(
        capsys, "estimate", "--reference", str(ref),
        "--target", str(workdir / "target.csv"), "--config", str(cfg),
    )
    assert code == 2
    assert "key = value" in err


def test_missing_config_file(workdir, ref, capsys):
    code, _, err = run(
        capsys, "estimate", "--reference", str(ref),
        "--target", str(workdir / "target.csv"),
        "--config", str(workdir / "nope.conf"),
    )
    assert code == 2
    assert "config" in err
