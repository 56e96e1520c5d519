"""File artifacts: atomic writes, CSV with round-trip floats, JSONL run logs.

CSV conventions: '.' decimal separator, '\\n' line endings, mandatory header
row.  Floats are serialized with repr (shortest round-trip), so re-reading
and re-emitting a file is byte identity.  A table is formatted once per
distinct magnitude: one repr per distinct bit pattern of |x|, with a '-'
prefix where the sign bit is set, except for NaN, which repr writes 'nan'
whatever its sign; that is repr of every float64, byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

__all__ = [
    "atomic_write_text",
    "write_csv",
    "write_json",
    "append_jsonl",
    "read_jsonl",
    "config_hash",
    "spectrum_csv_rows",
    "state_csv_rows",
]


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the same directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_SIGN_BIT = np.uint64(1 << 63)


def _float_cells(table: np.ndarray) -> list[list[str]]:
    """repr of every entry of a 2-D float64 table, row by row, from one repr
    per distinct magnitude."""
    bits = table.view(np.uint64)
    magnitudes, at = np.unique(bits & ~_SIGN_BIT, return_inverse=True)
    text = [repr(x) for x in magnitudes.view(np.float64).tolist()]
    text += ["-" + t if t != "nan" else t for t in text]
    negative = (bits & _SIGN_BIT).astype(bool)
    pick = at.reshape(table.shape) + len(magnitudes) * negative
    return np.array(text, dtype=object)[pick].tolist()


def write_csv(path, header: list[str], rows) -> None:
    """Write a header and a (rows, columns) table of floats, one row per
    line.  A row whose width is not the header's raises ValueError before
    any file is written."""
    widths = {len(row) for row in rows} - {len(header)}
    if widths:
        raise ValueError(f"CSV rows of {sorted(widths)} cells do not fit "
                         f"{len(header)} header columns")
    table = np.array(rows, dtype=np.float64).reshape(len(rows), len(header))
    lines = [",".join(header)] + [",".join(row) for row in _float_cells(table)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_json(path, obj) -> None:
    """Write strict JSON: a NaN or infinity raises ValueError instead of
    writing a bare token that strict parsers reject."""
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def canonical_json(obj, allow_nan: bool = True) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=allow_nan)


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()[:16]


def append_jsonl(path, record: dict, wall_time_s: float | None = None) -> None:
    """Append one record as strict JSON (a NaN or infinity raises
    ValueError); non-deterministic fields live under 'timing'."""
    rec = dict(record)
    rec["timing"] = {
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "wall_time_s": wall_time_s,
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", newline="\n") as fh:
        fh.write(canonical_json(rec, allow_nan=False) + "\n")


def read_jsonl(path):
    """Parse a run log; malformed lines are counted, not fatal."""
    records, skipped = [], 0
    for line in Path(path).read_text(encoding="utf-8").split("\n"):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            skipped += 1
    return records, skipped


def spectrum_csv_rows(grid: np.ndarray, branches: np.ndarray):
    """Rows for the spectrum CSV: xi, re_1..re_6, im_1..im_6, max_re, as
    lists of Python floats."""
    header = (["xi"] + [f"re_{i}" for i in range(1, 7)]
              + [f"im_{i}" for i in range(1, 7)] + ["max_re"])
    rows = np.column_stack([grid, branches.real, branches.imag, branches.real.max(axis=1)])
    return header, rows.tolist()


def state_csv_rows(grid: np.ndarray, values: np.ndarray):
    """Rows for a FourierState CSV: xi plus 12 real columns, as lists of
    Python floats."""
    comps = ["v", "u", "z", "y", "phi", "eta"]
    header = (["xi"] + [f"re_{c}" for c in comps] + [f"im_{c}" for c in comps])
    return header, np.column_stack([grid, values.real, values.imag]).tolist()
