"""Byte-level pins of every CLI output on small synthetic inputs.

Each case runs the CLI in one fresh working directory with relative paths,
so the echoed configuration does not depend on where the suite runs. For
every case the written files, stdout and the ``gendermix`` log records
(level, logger, message) are compared byte for byte with ``tests/golden/``.
The goldens guard refactors of the pooling, projection and sweep code: a
difference is a behaviour change to explain, not a file to regenerate.
"""

import contextlib
import io
import logging
import os
import re
from pathlib import Path

import pytest

from _synth import make_balanced_reference, make_letter_reference
from gendermix import cli

GOLDEN = Path(__file__).parent / "golden"
# The goldens predate the removal of ``bench --threads``; its line in the
# echoed bench configuration is the one expected difference.
RETIRED_THREADS_LINE = re.compile(rb',\n *"threads": 1(?=\n)')

# Rows that exercise normalization, pooling of duplicate keys, skipped
# records, the min-count filter and names without a usable letter.
EXTRA_RAW_ROWS = """\
Ána,120,30
 ana ,10,0
ANA,0,5
Ana María,80,3
Jean-Pierre,0,150
jean  pierre,5,140
Zoë,130,2
李,10,10
Ghost,0,0
Émile,40,160
Kim,55,60
Rare,3,4
Noël,60,70
Ørjan,0,200
Lee7,0,120
"""

SSA_YEARS = {
    1999: "Ana,F,999\nBob,M,999\n",
    2000: "Ana,F,500\nAna,M,7\nBob,M,600\nØrjan,M,150\nÁna,F,20\n"
    "Kim,F,90\nKim,M,80\n李,F,30\nJean-Pierre,M,140\nNada,F,0\n",
    2001: "Ana,F,450\nBob,M,640\nBob,F,3\nZoë,F,120\nKim,M,40\n\nLee7,M,110\n",
}

TARGET = """\
name,count
Ana,12
Bob,30
Kim,4
Zoë,7
Jean-Pierre,5
Émile,3
Unknownname,9
pfa00,20
pma03,25
pfb02,6
pmc01,8
pnd04,5
aina,14
bon,11
qina,3
Ørjan,2
"""

SWEEP = ["--grid", "0.1,0.6", "--repeats", "4", "--size", "300", "--seed", "2"]

# (case, argv, files the case writes)
CASES = [
    ("ingest_canonical", ["ingest", "--input", "raw.csv", "--output", "ref.csv"],
     ["ref.csv", "ref.csv.meta.json"]),
    ("ingest_first_token",
     ["ingest", "--input", "raw.csv", "--first-token", "--min-count", "0", "--output", "first.csv"],
     ["first.csv", "first.csv.meta.json"]),
    ("ingest_ssa",
     ["ingest", "--format", "ssa", "--input", "ssa", "--years", "2000:2001",
      "--min-count", "0", "--output", "ssa.csv"],
     ["ssa.csv", "ssa.csv.meta.json"]),
    ("ingest_initial", ["ingest", "--input", "raw.csv", "--letters", "initial", "--output", "initial.csv"],
     ["initial.csv", "initial.csv.meta.json"]),
    ("ingest_last", ["ingest", "--input", "raw.csv", "--letters", "last", "--output", "last.csv"],
     ["last.csv", "last.csv.meta.json"]),
    ("merge", ["merge", "--input", "ref.csv", "ssa.csv", "--output", "merged.csv"],
     ["merged.csv", "merged.csv.meta.json"]),
]
for method, cutoff in (("m0", None), ("m1", "0.9"), ("m2", "0.9"), ("ggem", None)):
    argv = ["estimate", "--reference", "merged.csv", "--target", "target.csv", "--method", method]
    argv += ["--cutoff", cutoff] if cutoff else []
    CASES.append((f"estimate_{method}_json", argv, []))
    CASES.append((f"estimate_{method}_csv", argv + ["--csv"], []))
CASES += [
    ("estimate_ggem_bootstrap",
     ["estimate", "--reference", "merged.csv", "--target", "target.csv",
      "--bootstrap", "100", "--seed", "5"], []),
    ("estimate_m0_bootstrap",
     ["estimate", "--reference", "merged.csv", "--target", "target.csv", "--method", "m0",
      "--bootstrap", "100", "--seed", "5"], []),
    ("estimate_m1_bootstrap",
     ["estimate", "--reference", "merged.csv", "--target", "target.csv", "--method", "m1",
      "--cutoff", "0.9", "--bootstrap", "100", "--seed", "5"], []),
    ("estimate_m1_bootstrap_csv",
     ["estimate", "--reference", "merged.csv", "--target", "target.csv", "--method", "m1",
      "--cutoff", "0.9", "--bootstrap", "100", "--seed", "5", "--csv"], []),
    ("estimate_m2_bootstrap",
     ["estimate", "--reference", "merged.csv", "--target", "target.csv", "--method", "m2",
      "--cutoff", "0.9", "--bootstrap", "100", "--seed", "5"], []),
    ("estimate_ggem_gamma_star_bootstrap",
     ["estimate", "--reference", "merged.csv", "--target", "target.csv", "--method", "ggem",
      "--gamma-star", "0.2", "--bootstrap", "100", "--seed", "5"], []),
    ("estimate_letters_initial_bootstrap",
     ["estimate", "--reference", "initial.csv", "--target", "target.csv", "--method", "ggem",
      "--bootstrap", "100", "--seed", "5"], []),
    ("estimate_letters_initial",
     ["estimate", "--reference", "initial.csv", "--target", "target.csv", "--method", "ggem"], []),
    ("estimate_letters_last",
     ["estimate", "--reference", "last.csv", "--target", "target.csv", "--method", "m0", "--csv"], []),
    ("simulate",
     ["simulate", "--reference", "merged.csv", "--beta0", "0.3", "--size", "400",
      "--seed", "3", "--output", "pop.csv"],
     ["pop.csv", "pop.truth.csv", "pop.meta.json"]),
]
for mode in ("names", "initial", "last"):
    for fmt in ("csv", "json"):
        out = f"bench_{mode}.{fmt}"
        CASES.append((f"bench_{mode}_{fmt}",
                      ["bench", "--build-ref", "ref.csv", "--mode", mode, *SWEEP,
                       "--format", fmt, "--output", out], [out]))
for fmt in ("csv", "json"):
    CASES.append((f"bench_fig4_{fmt}",
                  ["bench", "--build-ref", "ref.csv", "--figure", "fig4", "--beta0", "0.2",
                   "--size", "500", "--bins", "5", "--format", fmt, "--output", f"fig4.{fmt}"],
                  [f"fig4.{fmt}"]))
    CASES.append((f"bench_fig6_{fmt}",
                  ["bench", "--build-ref", "ref.csv", "--figure", "fig6", "--mode", "initial",
                   *SWEEP, "--format", fmt, "--output", f"fig6.{fmt}"],
                  [f"fig6.{fmt}"]))


def _write_inputs(root: Path) -> None:
    rows = ["name,female,male"]
    for table in (make_balanced_reference(), make_letter_reference()):
        for key in sorted(table.entries):
            counts = table.entries[key]
            rows.append(f"{key},{counts.female},{counts.male}")
    (root / "raw.csv").write_text("\n".join(rows) + "\n" + EXTRA_RAW_ROWS, encoding="utf-8")
    (root / "ssa").mkdir()
    for year, text in SSA_YEARS.items():
        (root / "ssa" / f"yob{year}.txt").write_text(text, encoding="utf-8")
    (root / "ssa" / "notes.txt").write_text("not a year file\n", encoding="utf-8")
    (root / "target.csv").write_text(TARGET, encoding="utf-8")


def _run_case(argv: list[str]) -> tuple[bytes, bytes]:
    """Run one CLI invocation; return (stdout, log records) as bytes."""
    logger = logging.getLogger("gendermix")
    records = io.StringIO()
    handler = logging.StreamHandler(records)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s %(message)s"))
    saved = logger.level, logger.propagate
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    logger.propagate = False
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
    finally:
        logger.removeHandler(handler)
        logger.level, logger.propagate = saved
    assert code == 0, f"{argv} exited {code}"
    return stdout.getvalue().encode("utf-8"), records.getvalue().encode("utf-8")


def produce(root: Path) -> dict[str, bytes]:
    """Run every case inside ``root``; map golden file names to bytes."""
    _write_inputs(root)
    outputs: dict[str, bytes] = {}
    previous = os.getcwd()
    os.chdir(root)
    try:
        for case, argv, files in CASES:
            stdout, log = _run_case(argv)
            outputs[f"{case}.stdout"] = stdout
            outputs[f"{case}.log"] = log
            for name in files:
                outputs[name] = (root / name).read_bytes()
    finally:
        os.chdir(previous)
    return outputs


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return produce(tmp_path_factory.mktemp("golden"))


def test_golden_file_set_matches(produced):
    assert sorted(produced) == sorted(p.name for p in GOLDEN.iterdir())


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.iterdir()))
def test_golden_output_is_byte_identical(produced, name):
    assert produced[name] == RETIRED_THREADS_LINE.sub(b"", (GOLDEN / name).read_bytes())
