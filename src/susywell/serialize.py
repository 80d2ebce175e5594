"""Deterministic text emission for data files.

Numbers are written with 17 significant digits (%.17g), which round-trips
IEEE doubles exactly; keys are sorted; line endings are LF. The stdlib json
module formats floats by shortest repr, so a small emitter is used instead
to pin the bytes of every number.
"""

from __future__ import annotations

import json

import numpy as np


def format_number(v) -> str:
    # float first: it is the common case, and np.float64 is a float
    if isinstance(v, float):
        return "%.17g" % v
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.17g" % float(v)


def json_text(obj, indent: int = 0) -> str:
    """Serialize nested dict/list/number/str/bool/None, keys sorted."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            items.append(f'{inner}{json.dumps(str(key))}: {json_text(obj[key], indent + 1)}')
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{inner}{json_text(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    return format_number(obj)


def csv_text(header: list[str], rows) -> str:
    """Comma-separated, header row, LF line endings, trailing newline."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join([v if isinstance(v, str) else format_number(v) for v in row]))
    return "\n".join(lines) + "\n"


def write_text(path, text: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
