"""Artifact writers: RFC-4180 CSV, JSON reports, config fingerprints."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

__version__ = "0.1.0"


def fingerprint(payload: dict) -> str:
    """Stable short hash of a JSON-serializable description."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def format_float(v: float) -> str:
    return f"{float(v):.17g}"


_QUOTED = frozenset(',"\r\n')


def _plain_cell(v) -> str:
    """str(v) for a cell csv.writer writes bare, as it writes it: not
    None, not empty, and without a comma, quote or line break."""
    cell = str(v)
    if v is None or not cell or not _QUOTED.isdisjoint(cell):
        raise ValueError(f"CSV cell {v!r} is not a number or a plain name")
    return cell


def _csv_line(row) -> str:
    return ",".join([format_float(v) if isinstance(v, float) else _plain_cell(v) for v in row]) + "\r\n"


def write_csv(path, header, rows) -> None:
    """CSV with header row, CRLF line endings, 17-significant-digit floats.

    Records are joined as strings and streamed, the bytes csv.writer
    writes: every cell is a number or a plain header name, which it writes
    bare, and a cell it would quote, or write empty, raises ValueError.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    head = _csv_line(header)
    with open(path, "w", newline="") as fh:
        fh.write(head)
        fh.writelines(map(_csv_line, rows))


def strict_json(value):
    """value with every float that is not finite, at any depth of its dicts
    and lists, as None (JSON null): RFC 8259 has no NaN or Infinity."""
    if isinstance(value, dict):
        return {key: strict_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [strict_json(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def write_json_report(path, payload: dict, config_fingerprint: str) -> dict:
    """JSON report with stable key ordering, embedding fingerprint and
    version; a float that is not finite is written as null (``strict_json``)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    full = strict_json(payload)
    full["config_fingerprint"] = config_fingerprint
    full["tool_version"] = __version__
    with open(path, "w") as fh:
        json.dump(full, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return full


def path_rows(path_obj):
    """Rows (t, x, m, i, w) of a simulated path, one per grid point."""
    w = path_obj.w  # derived from the increments on every read, so read once
    for k in range(len(path_obj.grid)):
        yield (
            float(path_obj.grid[k]),
            float(path_obj.x[k]),
            float(path_obj.m[k]),
            float(path_obj.i[k]),
            float(w[k]),
        )


def field_rows(field):
    """Rows (j, k, d) of a derivative field over its occupied triangle j <= k."""
    n = field.n_steps
    for j in range(n + 1):
        for k in range(j, n + 1):
            yield (j, k, float(field.d[j, k]))
