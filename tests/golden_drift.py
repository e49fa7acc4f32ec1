"""Compare two sets of outputs and allow only small drift in ggem numbers.

Usage::

    PYTHONPATH=src:tests python tests/golden_drift.py OLD_DIR NEW_DIR
    PYTHONPATH=src:tests python tests/golden_drift.py --produce NEW_DIR

``--produce`` first writes every golden case of ``tests/test_golden.py``
into NEW_DIR with the installed code, then compares ``tests/golden`` with
it. Each file is parsed as JSON, or else as ``#`` comment lines followed by
a CSV table, and the two parses must have the same structure: the same
keys in the same order, the same list lengths, the same columns and every
comment line and text field equal. A number may differ only inside a ggem
row (a dict or CSV row whose ``method`` is ``ggem``, and what it contains)
and only in a field ggem's solved root feeds. Each such change is
converted to the beta scale and must stay within ``BOUND``:

* beta, gamma, mean_beta, sigma_beta, abs_error, beta_partial,
  beta_global and the bootstrap ends as they are;
* alpha through beta = alpha / (1 + alpha);
* rel_error_pct times min(beta0, 1 - beta0) / 100;
* attributed_female and attributed_male over individuals_matched.

The exit status is 0 when every file passes; one line per file says
whether it is identical, drifted (with its largest beta-scale change) or
fails (with the first offending field).
"""

import csv
import io
import json
import math
import sys
import tempfile
from pathlib import Path

BOUND = 2e-12
BETA_FIELDS = {
    "beta", "gamma", "mean_beta", "sigma_beta", "abs_error", "beta_partial", "beta_global",
    "low", "high", "bootstrap_low", "bootstrap_high",
}


class Drift(Exception):
    pass


def _number(text):
    try:
        return float(text)
    except ValueError:
        return text


def parse(blob: bytes):
    """A file's content as JSON, or as (comment lines, CSV rows as dicts)."""
    text = blob.decode("utf-8")
    try:
        return json.loads(text)
    except ValueError:
        lines = text.splitlines()
        comments = [line for line in lines if line.startswith("#")]
        table = [line for line in lines if not line.startswith("#")]
        rows = [{k: _number(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO("\n".join(table)))]
        return {"comments": comments, "columns": table[:1], "rows": rows}


def _beta_scale(field: str, old: float, new: float, row: dict) -> float | None:
    """The change of ``field`` from old to new on the beta scale; None for a
    field ggem's root does not feed."""
    if field in BETA_FIELDS:
        return abs(new - old)
    if field == "alpha":
        return abs(new / (1.0 + new) - old / (1.0 + old))
    if field == "rel_error_pct":
        return abs(new - old) * min(row["beta0"], 1.0 - row["beta0"]) / 100.0
    if field in ("attributed_female", "attributed_male"):
        return abs(new - old) / row["individuals_matched"]
    return None


def _context(row: dict, value: dict) -> dict:
    """The row context a dict's fields see: its scalars, its coverage
    counts and whatever encloses it."""
    inner = {**row, **{k: v for k, v in value.items() if not isinstance(v, (dict, list))}}
    inner.update(value.get("coverage") or {})
    return inner


def compare(old, new, field: str = "", row: dict | None = None) -> float:
    """The largest beta-scale drift between two parses; raises Drift."""
    row = row or {}
    if isinstance(old, dict) and isinstance(new, dict):
        if list(old) != list(new):
            raise Drift(f"{field or 'top'}: keys {list(old)} != {list(new)}")
        inner = _context(row, old)
        return max((compare(old[k], new[k], k, inner) for k in old), default=0.0)
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            raise Drift(f"{field}: {len(old)} items != {len(new)}")
        return max((compare(a, b, field, row) for a, b in zip(old, new)), default=0.0)
    if old == new or (isinstance(old, float) and isinstance(new, float) and math.isnan(old) and math.isnan(new)):
        return 0.0
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new))
    if not numbers or row.get("method") != "ggem":
        raise Drift(f"{field}: {old!r} != {new!r} (method {row.get('method')!r})")
    change = _beta_scale(field, float(old), float(new), row)
    if change is None or not change <= BOUND:
        raise Drift(f"{field}: {old!r} -> {new!r} moves {change!r} on the beta scale (bound {BOUND:g})")
    return change


def check(old: bytes, new: bytes) -> tuple[str, float | None]:
    """("identical" | "drifted" | "FAIL: reason", largest drift or None)."""
    if old == new:
        return "identical", 0.0
    try:
        return "drifted", compare(parse(old), parse(new))
    except Drift as exc:
        return f"FAIL: {exc}", None


def main(argv: list[str]) -> int:
    if argv[:1] == ["--produce"]:
        from test_golden import GOLDEN, produce

        out = Path(argv[1])
        with tempfile.TemporaryDirectory() as work:
            for name, blob in produce(Path(work)).items():
                (out / name).write_bytes(blob)
        old_dir, new_dir = GOLDEN, out
    else:
        old_dir, new_dir = Path(argv[0]), Path(argv[1])
    names = sorted({p.name for p in old_dir.iterdir()} | {p.name for p in new_dir.iterdir()})
    failed = False
    for name in names:
        if not (old_dir / name).exists() or not (new_dir / name).exists():
            print(f"{name}: FAIL: present on one side only")
            failed = True
            continue
        verdict, drift = check((old_dir / name).read_bytes(), (new_dir / name).read_bytes())
        failed |= verdict.startswith("FAIL")
        if verdict == "drifted":
            verdict = f"drifted, at most {drift:.2e} on the beta scale"
        print(f"{name}: {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
