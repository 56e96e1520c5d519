"""File artifacts: atomic writes, CSV with round-trip floats, JSONL run logs.

CSV conventions: '.' decimal separator, '\\n' line endings, mandatory header
row.  Floats are serialized with repr (shortest round-trip), so re-reading
and re-emitting a file is byte identity.
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
    "read_csv",
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


def _fmt(x) -> str:
    if type(x) is float:
        return repr(x)
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_csv(path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines += [",".join(map(_fmt, row)) for row in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_csv(path) -> tuple[list[str], list[list[float]]]:
    text = Path(path).read_text()
    lines = [ln for ln in text.split("\n") if ln]
    header = lines[0].split(",")
    rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    return header, rows


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
