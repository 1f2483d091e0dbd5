"""Artifact writers: RFC-4180 CSV, JSON reports, config fingerprints."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

__version__ = "0.1.0"


def fingerprint(payload: dict) -> str:
    """Stable short hash of a JSON-serializable description."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def format_float(v: float) -> str:
    return f"{float(v):.17g}"


_QUOTED = frozenset(',"\r\n')
# rows formatted and written at a time: a field.csv at MAX_FIELD_STEPS has 8.4M
CHUNK_ROWS = 1 << 14


def _plain_cell(v) -> str:
    """str(v) for a cell csv.writer writes bare, as it writes it: not
    None, not empty, and without a comma, quote or line break."""
    cell = str(v)
    if v is None or not cell or not _QUOTED.isdisjoint(cell):
        raise ValueError(f"CSV cell {v!r} is not a number or a plain name")
    return cell


def _cells(column) -> list:
    """The cells of one column: a float64 column formatted once, as
    ``format_float`` formats each value, an integer column by ``str``, and
    any other cell by cell."""
    values = np.asarray(column)
    if values.dtype == np.float64:
        return [f"{v:.17g}" for v in values.tolist()]
    if values.dtype.kind in "iu":
        return list(map(str, values.tolist()))
    return [format_float(v) if isinstance(v, float) else _plain_cell(v) for v in column]


def write_csv(path, header, columns) -> None:
    """CSV with header row, CRLF line endings, 17-significant-digit floats.

    ``columns`` are equal-length arrays or lists, one per header name.
    They are formatted and written CHUNK_ROWS rows at a time, the bytes
    csv.writer writes for ``zip(*columns)``: every cell is a number or a
    plain header name, which it writes bare, and a cell it would quote, or
    write empty, raises ValueError.
    """
    path = Path(path)
    n_rows = len(columns[0]) if columns else 0
    if any(len(column) != n_rows for column in columns):
        raise ValueError(f"CSV columns of unequal lengths {[len(column) for column in columns]}")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(map(_plain_cell, header)) + "\r\n")
        for start in range(0, n_rows, CHUNK_ROWS):
            cells = [_cells(column[start : start + CHUNK_ROWS]) for column in columns]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


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
