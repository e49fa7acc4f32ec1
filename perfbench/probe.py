"""Host speed sampler: times one fixed slice of work every 25 ms.

    python3 perfbench/probe.py FILE

Appends ``start duration`` lines (``time.perf_counter`` seconds) to FILE
until it is terminated. ``run.py`` pins it to the CPU the workload runs
on, so each sample takes the speed the workload has at that moment: on a
shared host that speed moves by a factor of two within seconds.
"""

import sys
import time

import numpy as np

INTERVAL_S = 0.025
# Duration of ``unit`` at speed 1.0: about its fastest on the 2-vCPU Xeon
# host the benchmark was defined on (Python 3.11, numpy 2.4).
REFERENCE_S = 0.001

_VALUES = np.arange(3000, dtype=float)


def unit() -> None:
    """Fixed work in two equal halves, because the workloads differ in how
    much a busy host slows them: dictionary counting over short string
    keys (interpreter-bound, like the letter projection) and numpy calls on
    small arrays (call-overhead-bound, like the estimators)."""
    counts: dict[str, int] = {}
    for i in range(1500):
        key = "k%d" % (i % 97)
        counts[key] = counts.get(key, 0) + i
    for _ in range(40):
        float(np.sum(np.sqrt(_VALUES + 1.0)))


def main(path: str) -> None:
    with open(path, "a", buffering=1, encoding="utf-8") as out:
        while True:
            time.sleep(INTERVAL_S)
            start = time.perf_counter()
            unit()
            out.write(f"{start!r} {time.perf_counter() - start!r}\n")


if __name__ == "__main__":
    main(sys.argv[1])
