"""File formats: measure CSV, trajectory CSV, JSON reports.

Floats are written with ``repr``, the shortest representation that
round-trips to the identical IEEE-754 double, so write -> read is
bit-exact.

The three CSV writers emit the bytes of ``csv.writer``'s default
dialect: comma-separated fields, none of which needs quoting, and rows
ended by ``\\r\\n``.  They share one block writer instead of making a
``csv.writer`` row per state.  The state columns are formatted once
per call from :func:`~duores.core.count_arrays`; the last column is
formatted ``_CHUNK`` rows at a time by ``repr`` of its Python values,
and each chunk of rows is joined into one string and written, so the
transient text stays bounded by the chunk size.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import Measure, count_arrays, num_states

__all__ = [
    "measure_to_csv",
    "measure_from_csv",
    "write_timed_measure_csv",
    "write_station_trajectory_csv",
    "write_json",
]

_MEASURE_HEADER = ["w", "x", "y", "z", "prob"]
_CHUNK = 1024  # rows joined into one string per write


def _prefixes(*columns: np.ndarray) -> list[str]:
    """``"a,b,...,"`` for each row of the given parallel columns."""
    fmt = ",".join(["{}"] * len(columns)) + ","
    return list(map(fmt.format, *(c.tolist() for c in columns)))


def _write_rows(fh, head: str, prefixes: Sequence[str], last: np.ndarray) -> None:
    """Write one row ``head + prefixes[r] + repr(last[r])`` per entry of
    ``last``, each ended by ``\\r\\n``, in chunks of ``_CHUNK`` rows.

    ``last`` holds Python-convertible scalars: floats are written with
    the shortest round-trip ``repr``, integers in decimal.
    """
    sep = "\r\n" + head
    for lo in range(0, len(last), _CHUNK):
        hi = lo + _CHUNK
        cells = map(repr, last[lo:hi].tolist())
        fh.write(head + sep.join(map(str.__add__, prefixes[lo:hi], cells)) + "\r\n")


def _capacity_from_rows(n_rows: int) -> int:
    # num_states is strictly increasing in K, so the row count pins K.
    K = 0
    while num_states(K) < n_rows:
        K += 1
    if num_states(K) != n_rows:
        raise ValueError(f"{n_rows} rows is not a full enumeration of any capacity")
    return K


def measure_to_csv(m: Measure, path: str | Path) -> None:
    """Write ``m`` as CSV with header ``w,x,y,z,prob``, one row per
    state in enumeration order."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_MEASURE_HEADER) + "\r\n")
        _write_rows(fh, "", _prefixes(*count_arrays(m.K)), m.probs)


def measure_from_csv(path: str | Path) -> Measure:
    """Read a measure written by :func:`measure_to_csv`.

    The capacity is recovered from the row count; rows must appear in
    enumeration order.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path} has no header: the file is empty")
        if header != _MEASURE_HEADER:
            raise ValueError(f"unexpected header {header!r}")
        rows = [row for row in reader if row]
    K = _capacity_from_rows(len(rows))
    for r, row in enumerate(rows):
        if len(row) != len(_MEASURE_HEADER):
            raise ValueError(f"row {r} has {len(row)} fields, not {len(_MEASURE_HEADER)}")
    try:
        counts = np.array([row[:4] for row in rows], dtype=np.int64)
    except OverflowError:
        raise ValueError("a state count does not fit in 64 bits") from None
    bad = np.flatnonzero((counts != np.stack(count_arrays(K), axis=1)).any(axis=1))
    if bad.size:
        r = int(bad[0])
        raise ValueError(f"row {r} state {rows[r][:4]} out of enumeration order")
    return Measure(np.array([float(row[4]) for row in rows]), K)


def write_timed_measure_csv(
    times: Sequence[float], measures: Sequence[Measure], path: str | Path
) -> None:
    """Write a measure-valued trajectory as CSV ``t,w,x,y,z,prob``."""
    if len(times) != len(measures):
        raise ValueError("times and measures differ in length")
    prefixes: dict[int, list[str]] = {}
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["t"] + _MEASURE_HEADER) + "\r\n")
        for t, m in zip(times, measures):
            if m.K not in prefixes:
                prefixes[m.K] = _prefixes(*count_arrays(m.K))
            _write_rows(fh, repr(float(t)) + ",", prefixes[m.K], m.probs)


def write_station_trajectory_csv(
    snapshots: Sequence[tuple[float, np.ndarray]], path: str | Path
) -> None:
    """Write per-station snapshots as CSV ``t,station,w,x,y,z``.

    ``snapshots`` holds ``(time, counts)`` pairs where ``counts`` has
    shape ``(N, 4)`` with columns ``w,x,y,z``.
    """
    with open(path, "w", newline="") as fh:
        fh.write("t,station,w,x,y,z\r\n")
        for t, counts in snapshots:
            c = np.asarray(counts, dtype=np.int64)
            _write_rows(fh, repr(float(t)) + ",",
                        _prefixes(np.arange(len(c)), c[:, 0], c[:, 1], c[:, 2]), c[:, 3])


def _sanitize(obj):
    """Convert numpy scalars/arrays to plain Python for json.dump."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, np.generic):  # before the float test: np.float64 is a float
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)  # json has no inf/nan literals
    return obj


def write_json(obj, path: str | Path) -> None:
    """Write a JSON report with stable 2-space indentation."""
    with open(path, "w") as fh:
        json.dump(_sanitize(obj), fh, indent=2)
        fh.write("\n")
