"""Workload sources: synthetic bursty usage series and trace ingestion."""

from __future__ import annotations

import csv
import logging
import math
import os
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
    of scheduling policy.  Each interval draws a (vms, 3) block of steps and
    uses only its last (bandwidth) column: the draws, and so every value,
    stay those the recorded output digests were made with.
    """
    nominal_bw = np.asarray(nominal_bw, dtype=float)
    q = nominal_bw.shape[0]
    usage = np.empty((intervals, q))
    level = nominal_bw.copy()
    in_burst = np.zeros(q, dtype=bool)
    for t in range(intervals):
        step = rng.normal(0.0, sigma, size=(q, 3))[:, 2] * nominal_bw
        level = np.clip(level + step, walk_lo * nominal_bw, walk_hi * nominal_bw)
        enter = rng.random(q) < burst_enter
        leave = rng.random(q) < burst_exit
        in_burst = (in_burst & ~leave) | (~in_burst & enter)
        usage[t] = np.where(in_burst, level * burst_mult, level)
    return usage


@dataclass
class TraceData:
    """Per-VM usage series (columns cpu, mem, bw) plus a dropped-row count."""

    series: dict[str, np.ndarray]
    dropped: int = 0


_CANONICAL_COLUMNS = (
    "timestamp",
    "vm_id",
    "cpu_usage_mips",
    "mem_usage_mb",
    "net_bw_used",
)

_RAW_REQUIRED = (
    "Timestamp [ms]",
    "CPU usage [MHZ]",
    "Memory usage [KB]",
    "Network received throughput [KB/s]",
    "Network transmitted throughput [KB/s]",
)


def _usable(*values: float) -> bool:
    """Every value finite and none negative.  ``nan < 0`` is False, so a
    sign test alone would let ``nan`` through."""
    return all(math.isfinite(v) and v >= 0 for v in values)


def _ingest_canonical(path: str) -> TraceData:
    series: dict[str, list[tuple[float, float, float, float]]] = {}
    dropped = 0
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in _CANONICAL_COLUMNS if c not in (reader.fieldnames or [])]
        if missing:
            raise TraceFormatError("trace is missing column %r" % missing[0])
        for row in reader:
            try:
                ts = float(row["timestamp"])
                vm = row["vm_id"].strip()
                cpu = float(row["cpu_usage_mips"])
                mem = float(row["mem_usage_mb"])
                bw = float(row["net_bw_used"])
            except (TypeError, ValueError, AttributeError):
                dropped += 1
                continue
            if not vm or not math.isfinite(ts) or not _usable(cpu, mem, bw):
                dropped += 1
                continue
            series.setdefault(vm, []).append((ts, cpu, mem, bw))
    out = {}
    for vm, rows in series.items():
        rows.sort(key=lambda r: r[0])
        out[vm] = np.asarray([(c, m, b) for _, c, m, b in rows], dtype=float)
    return TraceData(out, dropped)


def _ingest_raw(path: str) -> TraceData:
    """Raw per-VM layout: semicolon separated, network split into received
    and transmitted throughput which are summed into one bandwidth figure;
    memory arrives in KB and is converted to MB."""
    vm = os.path.splitext(os.path.basename(path))[0]
    rows: list[tuple[float, float, float, float]] = []
    dropped = 0
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh, delimiter=";")
        names = [n.strip() for n in (reader.fieldnames or [])]
        missing = [c for c in _RAW_REQUIRED if c not in names]
        if missing:
            raise TraceFormatError("trace is missing column %r" % missing[0])
        for row in reader:
            row = {k.strip(): v for k, v in row.items() if k}
            try:
                ts = float(row["Timestamp [ms]"])
                cpu = float(row["CPU usage [MHZ]"])
                mem = float(row["Memory usage [KB]"]) / 1024.0
                bw = float(row["Network received throughput [KB/s]"]) + float(
                    row["Network transmitted throughput [KB/s]"]
                )
            except (TypeError, ValueError, KeyError):
                dropped += 1
                continue
            if not math.isfinite(ts) or not _usable(cpu, mem, bw):
                dropped += 1
                continue
            rows.append((ts, cpu, mem, bw))
    rows.sort(key=lambda r: r[0])
    data = np.asarray([(c, m, b) for _, c, m, b in rows], dtype=float)
    return TraceData({vm: data}, dropped)


def _sniff_and_ingest(path: str) -> TraceData:
    with open(path) as fh:
        header = fh.readline()
    if ";" in header:
        return _ingest_raw(path)
    return _ingest_canonical(path)


def ingest_trace(path: str) -> TraceData:
    """Load a trace file, or every *.csv in a trace directory.

    Two layouts are accepted: the canonical comma-separated schema
    (timestamp, vm_id, cpu_usage_mips, mem_usage_mb, net_bw_used) and the
    raw per-VM semicolon layout whose received plus transmitted network
    throughput becomes the bandwidth column.  Malformed rows (unparsable,
    non-finite or negative values) are dropped and counted, never fatal.
    """
    if not os.path.exists(path):
        raise TraceFormatError("trace %s does not exist" % path)
    if os.path.isdir(path):
        merged: dict[str, np.ndarray] = {}
        dropped = 0
        names = sorted(n for n in os.listdir(path) if n.endswith(".csv"))
        if not names:
            raise TraceFormatError("trace directory %s holds no .csv files" % path)
        for name in names:
            part = _sniff_and_ingest(os.path.join(path, name))
            dropped += part.dropped
            for vm, data in part.series.items():
                merged[vm] = data
        data = TraceData(merged, dropped)
    else:
        data = _sniff_and_ingest(path)
    if not any(arr.size for arr in data.series.values()):
        raise TraceFormatError("trace %s contains no usable rows" % path)
    if data.dropped:
        log.warning("trace %s: dropped %d malformed rows", path, data.dropped)
    return data


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
    while keeping magnitudes consistent with the configured flavors.
    """
    nominal_bw = np.asarray(nominal_bw, dtype=float)
    keys = sorted(trace.series)
    usage = np.empty((intervals, nominal_bw.shape[0]))
    for i, nominal in enumerate(nominal_bw):
        data = trace.series[keys[i % len(keys)]]
        col = data[np.arange(intervals) % data.shape[0], 2]
        if rescale:
            mean = col.mean()
            col = col * (nominal / mean) if mean > 0 else nominal
        usage[:, i] = col
    return usage
