"""Deterministic number formatting shared by report writers.

All emitted floats carry 12 significant digits so repeated runs with the
same inputs produce byte-identical files.
"""

import csv
import io
import json
import math

SIG_DIGITS = 12


def fmt_float(value) -> str:
    """Render a number for CSV output; None becomes the empty string and a
    string passes through unchanged."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, int):
        return str(value)
    if math.isnan(value):
        return "nan"
    return format(value, f".{SIG_DIGITS}g")


def csv_text(columns, rows) -> str:
    """CSV text: a header of ``columns``, then one line per mapping in
    ``rows`` holding its values for those columns, each rendered by
    :func:`fmt_float`. Fields are quoted as the csv module's default
    dialect quotes them; lines end in LF."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([fmt_float(row[column]) for column in columns] for row in rows)
    return buffer.getvalue()


def round_for_json(value):
    """Recursively round floats to 12 significant digits; NaN becomes null."""
    if isinstance(value, dict):
        return {k: round_for_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [round_for_json(v) for v in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        if math.isnan(value):
            return None
        if math.isinf(value):
            # JSON has no Infinity literal; alpha is inf for all-female groups.
            return "inf" if value > 0 else "-inf"
        return float(format(value, f".{SIG_DIGITS}g"))
    return value


def dump_json(obj) -> str:
    """Serialize to stable JSON text (sorted keys, trailing newline)."""
    return json.dumps(round_for_json(obj), indent=2, sort_keys=True) + "\n"
