"""Workload sources: synthetic bursty usage series and trace ingestion."""

from __future__ import annotations

import csv
import logging
import math
import os
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

log = logging.getLogger("oscmc.workload")


class TraceFormatError(Exception):
    """A trace file does not match any supported column layout."""


def synthetic_usage(
    nominal_bw: np.ndarray,
    intervals: int,
    rng: np.random.Generator,
    sigma: float = 0.08,
    walk_lo: float = 0.3,
    walk_hi: float = 1.3,
    burst_enter: float = 0.06,
    burst_exit: float = 0.15,
    burst_mult: float = 2.5,
) -> np.ndarray:
    """Bounded random walk around nominal bandwidth with bursts.

    Each VM's bandwidth level drifts inside [walk_lo, walk_hi] times its
    nominal bandwidth; a two-state burst process multiplies it while a VM is
    bursting.  Returns an (intervals, vms) array.  The draw order is fixed
    up front, so the same seed always yields the same workload regardless
    of scheduling policy.  Each interval draws a (vms, 3) block of steps, of
    which it uses the bandwidth column, then the burst entries' and exits'
    uniforms in one call: the draws, and so every value, stay those the
    recorded output digests were made with.  Each level is clipped in its
    usage row; the bursts are multiplied in at the end through a bool mask.
    """
    nominal_bw = np.asarray(nominal_bw, dtype=float)
    q, lo, hi = nominal_bw.shape[0], walk_lo * nominal_bw, walk_hi * nominal_bw
    usage, bursting = np.empty((intervals, q)), np.empty((intervals, q), dtype=bool)
    level, in_burst, u = nominal_bw, np.zeros(q, dtype=bool), np.empty(2 * q)
    for t, row in enumerate(usage):
        np.multiply(rng.normal(0.0, sigma, size=(q, 3))[:, 2], nominal_bw, out=row)
        level = np.minimum(np.maximum(np.add(row, level, out=row), lo, out=row), hi, out=row)
        rng.random(out=u)
        in_burst = bursting[t] = np.where(in_burst, ~(u[q:] < burst_exit), u[:q] < burst_enter)
    np.multiply(usage, burst_mult, out=usage, where=bursting)
    return usage


@dataclass
class TraceData:
    """Per-VM usage series (columns cpu, mem, bw) plus a dropped-row count."""

    series: dict[str, np.ndarray]
    dropped: int = 0


# The two trace layouts, keyed by the delimiter that the header line shows:
# the required columns, how a header name is matched against them, and a
# row's (vm, timestamp, cpu, mem, bw) from its cells in the required
# columns' order and the file's stem.
_LAYOUTS = {
    ",": (
        ("timestamp", "vm_id", "cpu_usage_mips", "mem_usage_mb", "net_bw_used"),
        lambda name: name,
        lambda c, stem: (c[1].strip(), float(c[0]), float(c[2]), float(c[3]), float(c[4])),
    ),
    # Raw per-VM: one VM per file, named by its stem; header names may be
    # padded, memory arrives in KB, and received plus transmitted throughput
    # is the bandwidth.
    ";": (
        ("Timestamp [ms]", "CPU usage [MHZ]", "Memory usage [KB]",
         "Network received throughput [KB/s]", "Network transmitted throughput [KB/s]"),
        str.strip,
        lambda c, stem: (stem, float(c[0]), float(c[1]), float(c[2]) / 1024.0,
                         float(c[3]) + float(c[4])),
    ),
}


def _usable(*values: float) -> bool:
    """Every value finite and none negative.  ``nan < 0`` is False, so a
    sign test alone would let ``nan`` through."""
    return all(math.isfinite(v) and v >= 0 for v in values)


def _rows(path: str) -> Iterator[tuple[str, float, float, float, float] | None]:
    """Each data row of one trace file as (vm, timestamp, cpu, mem, bw), or
    None where a cell is missing or not a number; blank lines are skipped."""
    stem = os.path.splitext(os.path.basename(path))[0]
    with open(path, newline="") as fh:
        delimiter = ";" if ";" in fh.readline() else ","
        fh.seek(0)
        reader = csv.reader(fh, delimiter=delimiter)
        columns, key, parse = _LAYOUTS[delimiter]
        index = {key(name): i for i, name in enumerate(next(reader, []))}
        missing = [c for c in columns if c not in index]
        if missing:
            raise TraceFormatError("trace is missing column %r" % missing[0])
        at = [index[c] for c in columns]
        for cells in reader:
            if cells:
                try:
                    row = parse([cells[i] for i in at], stem)
                except (IndexError, ValueError):
                    row = None
                yield row


def ingest_trace(path: str) -> TraceData:
    """Load a trace file, or every *.csv in a trace directory.

    Two layouts are accepted, told apart by the header line: the canonical
    comma-separated schema (timestamp, vm_id, cpu_usage_mips, mem_usage_mb,
    net_bw_used) and the raw per-VM semicolon layout whose received plus
    transmitted network throughput becomes the bandwidth column.  Malformed
    rows (unparsable, non-finite or negative values) are dropped and
    counted, never fatal; a VM with no usable row has no series.  A VM's
    series from a later file of a directory replaces an earlier one's.  A
    trace that cannot be listed, read or decoded is a TraceFormatError.
    """
    if not os.path.exists(path):
        raise TraceFormatError("trace %s does not exist" % path)
    series: dict[str, np.ndarray] = {}
    dropped = 0
    reading = path
    try:
        files = [path]
        if os.path.isdir(path):
            files = [os.path.join(path, n) for n in sorted(os.listdir(path)) if n.endswith(".csv")]
            if not files:
                raise TraceFormatError("trace directory %s holds no .csv files" % path)
        for reading in files:
            groups: dict[str, list[tuple[float, float, float, float]]] = {}
            for row in _rows(reading):
                if row is None or not row[0] or not math.isfinite(row[1]) or not _usable(*row[2:]):
                    dropped += 1
                else:
                    groups.setdefault(row[0], []).append(row[1:])
            for vm, rows in groups.items():
                rows.sort(key=lambda r: r[0])
                series[vm] = np.asarray([r[1:] for r in rows], dtype=float)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise TraceFormatError("cannot read trace %s: %s" % (reading, reason)) from None
    if not series:
        raise TraceFormatError("trace %s contains no usable rows" % path)
    if dropped:
        log.warning("trace %s: dropped %d malformed rows", path, dropped)
    return TraceData(series, dropped)


def fit_trace_to_vms(
    trace: TraceData,
    nominal_bw: np.ndarray,
    intervals: int,
    rescale: bool = True,
) -> np.ndarray:
    """Map the trace's bandwidth series onto the VM population as an
    (intervals, vms) array.

    Trace VMs are assigned round-robin in sorted-name order; series shorter
    than the horizon repeat cyclically.  With ``rescale`` each series is
    scaled so its mean matches the VM's nominal bandwidth, preserving shape
    while keeping magnitudes consistent with the configured flavors; an
    all-zero series takes the nominal bandwidth throughout.
    """
    nominal_bw = np.asarray(nominal_bw, dtype=float)
    keys = sorted(trace.series)
    usage = np.empty((intervals, nominal_bw.shape[0]))
    for i, nominal in enumerate(nominal_bw):
        data = trace.series[keys[i % len(keys)]]
        col = data[np.arange(intervals) % data.shape[0], 2]
        if rescale:
            with np.errstate(over="ignore"):  # a sum past the float maximum, or a tiny mean
                mean = col.mean()
                scale = nominal / mean if mean > 0 else math.inf
            if not col.any():
                col = nominal
            elif math.isfinite(mean) and math.isfinite(scale):
                col = col * scale
            else:  # over its maximum first, the series' sum and scale stay finite
                col = col / col.max()
                col = col * (nominal / col.mean())
        usage[:, i] = col
    return usage
