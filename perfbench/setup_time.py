"""Time one fresh-process set-up of a workload.

    python3 perfbench/setup_time.py WORKLOAD INPUTS_DIR

Set-up is ``import gendermix`` plus loading the workload's reference table
through the public loader (``ingest`` has no reference table and imports
``gendermix.cli`` instead). The clock starts before this script imports
anything but ``time``, so every module the program pulls in (numpy among
them) is inside the window. Prints one JSON line, ``{"start": ..., "end":
...}`` on the ``time.perf_counter`` clock, so ``run.py`` can match the
window with the speed probe's samples.
"""

import time

START = time.perf_counter()

import importlib  # noqa: E402  (after the clock starts)
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def import_program():
    """Import ``gendermix`` from this checkout's ``src``, nowhere else."""
    sys.path.insert(0, str(SRC))
    import gendermix

    if SRC.resolve() not in Path(gendermix.__file__).resolve().parents:
        raise SystemExit(f"gendermix was imported from {gendermix.__file__}, not from {SRC}")
    return gendermix


def load_references(gm, workload: str, inputs_dir: Path) -> dict:
    if workload in ("sweep", "sweep_letters"):
        return {"reference": gm.ingest_canonical_csv(inputs_dir / "benchmark.csv")}
    if workload == "estimate":
        return {"reference": gm.ingest_canonical_csv(inputs_dir / "ssa_scale.csv")}
    importlib.import_module("gendermix.cli")
    return {}


if __name__ == "__main__":
    workload, inputs_dir = sys.argv[1], Path(sys.argv[2])
    load_references(import_program(), workload, inputs_dir)
    print(json.dumps({"start": START, "end": time.perf_counter()}))
