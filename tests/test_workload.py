"""Synthetic workload and trace-ingestion tests."""

import csv
import logging
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscmc.scenario import load_scenario
from oscmc.workload import (
    TraceData,
    TraceFormatError,
    fit_trace_to_vms,
    ingest_trace,
    synthetic_usage,
)

NOMINAL_BW = np.array([1000.0, 1000.0])


# The three-resource workload that usage was sliced from before it became
# the bandwidth column alone, kept as written: the reference for every bit
# of bandwidth and for the state of the random stream.


def reference_synthetic_usage(
    nominals: np.ndarray,
    intervals: int,
    rng: np.random.Generator,
    sigma: float = 0.08,
    walk_lo: float = 0.3,
    walk_hi: float = 1.3,
    burst_enter: float = 0.06,
    burst_exit: float = 0.15,
    burst_mult: float = 2.5,
) -> np.ndarray:
    """Bounded random walk around nominal demand with bandwidth bursts.

    Each VM's cpu/mem/bw level drifts inside [walk_lo, walk_hi] times its
    nominal demand; a two-state burst process multiplies the bandwidth
    column while a VM is bursting.  Returns an (intervals, vms, 3) array.
    The draw order is fixed up front, so the same seed always yields the
    same workload regardless of scheduling policy.
    """
    nominals = np.asarray(nominals, dtype=float)
    q = nominals.shape[0]
    usage = np.empty((intervals, q, 3))
    level = nominals.copy()
    in_burst = np.zeros(q, dtype=bool)
    for t in range(intervals):
        step = rng.normal(0.0, sigma, size=(q, 3)) * nominals
        level = np.clip(level + step, walk_lo * nominals, walk_hi * nominals)
        enter = rng.random(q) < burst_enter
        leave = rng.random(q) < burst_exit
        in_burst = (in_burst & ~leave) | (~in_burst & enter)
        frame = level.copy()
        frame[:, 2] = np.where(in_burst, level[:, 2] * burst_mult, level[:, 2])
        usage[t] = frame
    return usage


def reference_fit_trace_to_vms(
    trace: TraceData,
    nominals: np.ndarray,
    intervals: int,
    rescale: bool = True,
) -> np.ndarray:
    """Map trace series onto the VM population as an (intervals, vms, 3) array.

    Trace VMs are assigned round-robin in sorted-name order; series shorter
    than the horizon repeat cyclically.  With ``rescale`` each column is
    scaled so its mean matches the VM's nominal demand, preserving shape
    while keeping magnitudes consistent with the configured flavors.
    """
    nominals = np.asarray(nominals, dtype=float)
    q = nominals.shape[0]
    keys = sorted(trace.series)
    usage = np.empty((intervals, q, 3))
    for i in range(q):
        data = trace.series[keys[i % len(keys)]]
        idx = np.arange(intervals) % data.shape[0]
        cols = data[idx].copy()
        if rescale:
            for c in range(3):
                mean = cols[:, c].mean()
                if mean > 0:
                    cols[:, c] *= nominals[i, c] / mean
                else:
                    cols[:, c] = nominals[i, c]
        usage[:, i, :] = cols
    return usage


resources = st.just(0.0) | st.sampled_from([1.0, 250.5, 1000.0]) | st.floats(0.0, 1e4)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(resources, resources, resources), min_size=1, max_size=6),
    st.integers(0, 12),
    st.integers(0, 2**32 - 1),
    st.fixed_dictionaries({
        "sigma": st.just(0.08) | st.floats(0.0, 1.0),
        "walk_lo": st.just(0.3) | st.floats(0.0, 2.0),
        "walk_hi": st.just(1.3) | st.floats(0.0, 2.0),
        "burst_enter": st.sampled_from([0.0, 0.06, 1.0]) | st.floats(0.0, 1.0),
        "burst_exit": st.sampled_from([0.0, 0.15, 1.0]) | st.floats(0.0, 1.0),
        "burst_mult": st.just(2.5) | st.floats(0.0, 5.0),
    }),
)
def test_synthetic_bandwidth_is_the_three_resource_walks_column(nominals, intervals, seed, knobs):
    """The walk over nominal bandwidth alone gives, bit for bit, the
    bandwidth column of the three-resource walk, and leaves the generator
    where that walk leaves it."""
    nominals = np.array(nominals)
    rng, ref_rng = (np.random.default_rng(seed) for _ in range(2))
    usage = synthetic_usage(nominals[:, 2], intervals, rng, **knobs)
    want = reference_synthetic_usage(nominals, intervals, ref_rng, **knobs)[..., 2]
    assert usage.shape == want.shape and usage.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def _xi1100_walk_inputs():
    """xi1100's per-VM (cpu, mem, bw) nominals, VMs taking its flavors in
    turn, and its walk knobs."""
    sc = load_scenario("xi1100")
    nominals = np.array(sc.vm_flavors)[np.arange(sc.vms) % len(sc.vm_flavors)]
    knobs = {"sigma": sc.workload_sigma, "burst_enter": sc.burst_enter,
             "burst_exit": sc.burst_exit, "burst_mult": sc.burst_mult}
    return nominals, knobs


def test_synthetic_bandwidth_is_the_three_resource_walks_column_at_xi1100s_shape():
    """At xi1100's shape (1100 VMs, 100 intervals, its nominal bandwidths and
    knobs, seed 7), the size at which set-up builds the usage on its helper
    thread, the walk, each level held in its own usage row, gives the
    reference's bandwidth column bit for bit and leaves the generator where
    the reference leaves it."""
    nominals, knobs = _xi1100_walk_inputs()
    assert nominals.shape == (1100, 3)
    rng, ref_rng = (np.random.default_rng(7) for _ in range(2))
    usage = synthetic_usage(nominals[:, 2], 100, rng, **knobs)
    want = reference_synthetic_usage(nominals, 100, ref_rng, **knobs)[..., 2]
    assert (want > 1.3 * nominals[:, 2]).any()  # some VM bursts
    assert usage.shape == want.shape == (100, 1100) and usage.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_synthetic_usage_peaks_at_the_usage_and_a_burst_mask():
    """Traced, the walk at xi1100's shape peaks at its (intervals, vms) usage
    array, one (intervals, vms) bool mask of the bursting VMs and buffers of
    O(vms), about 60 bytes a VM (a draw, the walk's bounds and the
    uniforms); an (intervals, vms) float temporary does not fit."""
    nominals, knobs = _xi1100_walk_inputs()
    vms, intervals = nominals.shape[0], 100
    synthetic_usage(nominals[:3, 2], 2, np.random.default_rng(0), **knobs)  # first-call caches
    tracemalloc.start()
    try:
        usage = synthetic_usage(nominals[:, 2], intervals, np.random.default_rng(7), **knobs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = usage.nbytes + intervals * vms + 96 * vms + 2**13
    assert peak <= bound, "peak %d bytes over a %d-byte usage array" % (peak, usage.nbytes)


samples = st.just(0.0) | st.floats(0.0, 1e6)


@st.composite
def traces(draw):
    """Up to four series of one to eight (cpu, mem, bw) rows; a series may
    have only zero bandwidth, so a zero mean."""
    series = {}
    for name in draw(st.sets(st.sampled_from("abcd"), min_size=1)):
        rows = draw(st.lists(st.tuples(samples, samples, samples), min_size=1, max_size=8))
        data = np.array(rows)
        if draw(st.booleans()):
            data[:, 2] = 0.0
        series[name] = data
    return TraceData(series)


@settings(max_examples=200, deadline=None)
@given(
    traces(),
    st.lists(st.tuples(resources, resources, resources), min_size=1, max_size=6),
    st.integers(1, 12),
    st.booleans(),
)
def test_fitted_trace_bandwidth_is_the_three_resource_fits_column(trace, nominals, intervals,
                                                                   rescale):
    """Mapping a trace onto nominal bandwidth alone gives, bit for bit, the
    bandwidth column of the three-resource fit, rescaled or not.  A tiny
    mean overflows the reference's scale factor to an infinite or nan
    column, and one that rounds to 0 flattens a series that is not all zero
    to the nominal bandwidth; there the fit keeps a finite column of the
    series' shape instead (see test_rescaled_bandwidth_keeps_the_nominal_mean)."""
    nominals = np.array(nominals)
    usage = fit_trace_to_vms(trace, nominals[:, 2], intervals, rescale)
    with np.errstate(over="ignore", invalid="ignore"):
        want = reference_fit_trace_to_vms(trace, nominals, intervals, rescale)[..., 2]
        raw = reference_fit_trace_to_vms(trace, nominals, intervals, rescale=False)[..., 2]
        flattened = rescale & raw.any(axis=0) & (raw.mean(axis=0) == 0)
    kept = np.isfinite(want).all(axis=0) & ~flattened
    assert usage.shape == want.shape and np.isfinite(usage).all()
    assert usage[:, kept].tobytes() == want[:, kept].tobytes()


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.just(0.0) | st.floats(0.0, 1e-300) | st.floats(0.0, 1e6)
        | st.floats(1e307, np.finfo(float).max) | st.floats(0.0, np.finfo(float).max),
        min_size=1, max_size=12,
    ).filter(any),
    st.just(0.0) | st.sampled_from([1.0, 1000.0]) | st.floats(1e-3, 1e12),
)
def test_rescaled_bandwidth_keeps_the_nominal_mean(bw, nominal):
    """Any finite non-negative series that is not all zero, subnormal or near
    the float maximum, rescales to a finite column whose mean is the nominal
    bandwidth, with no RuntimeWarning (the suite turns one into an error).
    Where the mean is positive and it and the plain ``col * (nominal / mean)``
    are finite, the column is that bit for bit, as before; a tiny mean used
    to overflow that scale to inf, a sum overflowing to inf used to scale
    the column to zeros, and a mean that rounds to 0 used to give the
    nominal bandwidth throughout, as only a zero series does.  Nominals
    below 1e-3 are not drawn: a series whose mean is near the float maximum
    then has a subnormal scale, whose few bits cannot carry the mean to
    1e-9."""
    col = np.array(bw)
    trace = TraceData({"vm": np.column_stack([np.zeros_like(col), np.zeros_like(col), col])})
    usage = fit_trace_to_vms(trace, np.array([nominal]), col.size)[:, 0]
    assert np.isfinite(usage).all()
    assert math.isclose(usage.mean(), nominal, rel_tol=1e-9)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = col.mean()
        before = col * (nominal / mean) if 0 < mean < math.inf else None
    if before is not None and np.isfinite(before).all():
        assert usage.tobytes() == before.tobytes()


def test_a_series_whose_mean_rounds_to_zero_keeps_its_shape():
    """``[0, 5e-324]`` has a mean that rounds to 0, but it is not all zero:
    scaled over its maximum, it keeps its shape at the nominal mean, where it
    used to be flattened to the nominal bandwidth.  An all-zero series still
    takes the nominal bandwidth throughout."""
    bw = {"tiny": [0.0, 5e-324], "zero": [0.0, 0.0]}
    trace = TraceData({
        name: np.column_stack([np.zeros(2), np.zeros(2), col]) for name, col in bw.items()
    })
    usage = fit_trace_to_vms(trace, np.array([1000.0, 1000.0]), 2)
    assert usage.T.tolist() == [[0.0, 2000.0], [1000.0, 1000.0]]


def test_synthetic_usage_shape_and_determinism():
    a = synthetic_usage(NOMINAL_BW, 20, np.random.default_rng(3))
    b = synthetic_usage(NOMINAL_BW, 20, np.random.default_rng(3))
    assert a.shape == (20, 2)
    assert np.array_equal(a, b)
    c = synthetic_usage(NOMINAL_BW, 20, np.random.default_rng(4))
    assert not np.array_equal(a, c)


def test_synthetic_usage_respects_walk_bounds():
    usage = synthetic_usage(NOMINAL_BW, 200, np.random.default_rng(5))
    lo = 0.3 * NOMINAL_BW
    hi = 1.3 * NOMINAL_BW
    # Bandwidth may exceed the walk ceiling only through the burst multiplier.
    assert (usage >= lo[None, :] - 1e-9).all()
    assert (usage <= hi[None, :] * 2.5 + 1e-9).all()


def test_synthetic_usage_bursts_appear():
    usage = synthetic_usage(NOMINAL_BW, 300, np.random.default_rng(6))
    # With enter probability 0.06 over 300 intervals some bursts must fire.
    assert (usage > 1.31 * NOMINAL_BW[None, :]).any()


def write_canonical(path, rows):
    lines = ["timestamp,vm_id,cpu_usage_mips,mem_usage_mb,net_bw_used"]
    lines += rows
    path.write_text("\n".join(lines) + "\n")


def test_ingest_canonical_trace(tmp_path):
    f = tmp_path / "t.csv"
    write_canonical(
        f,
        [
            "0,vm1,100,200,300",
            "1,vm1,110,210,310",
            "0,vm2,50,60,70",
            "bogus,vm1,1,2,3",
            "2,vm1,-5,1,1",
        ],
    )
    trace = ingest_trace(str(f))
    assert set(trace.series) == {"vm1", "vm2"}
    assert trace.series["vm1"].shape == (2, 3)
    assert trace.series["vm1"][1].tolist() == [110.0, 210.0, 310.0]
    assert trace.dropped == 2


def test_ingest_canonical_orders_by_timestamp(tmp_path):
    f = tmp_path / "t.csv"
    write_canonical(f, ["5,vm1,2,2,2", "1,vm1,1,1,1"])
    trace = ingest_trace(str(f))
    assert trace.series["vm1"][:, 0].tolist() == [1.0, 2.0]


def test_ingest_canonical_missing_column(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("timestamp,vm_id,cpu_usage_mips,mem_usage_mb\n0,a,1,2\n")
    with pytest.raises(TraceFormatError, match="missing column"):
        ingest_trace(str(f))


def test_ingest_raw_trace_sums_network_and_converts_memory(tmp_path):
    f = tmp_path / "box7.csv"
    f.write_text(
        "Timestamp [ms];CPU cores;CPU usage [MHZ];Memory usage [KB];"
        "Network received throughput [KB/s];Network transmitted throughput [KB/s]\n"
        "1000;2;500;2048;30;70\n"
        "2000;2;600;4096;10;20\n"
    )
    trace = ingest_trace(str(f))
    assert set(trace.series) == {"box7"}
    assert trace.series["box7"][0].tolist() == [500.0, 2.0, 100.0]
    assert trace.series["box7"][1].tolist() == [600.0, 4.0, 30.0]


@pytest.mark.parametrize("layout", ["canonical", "raw"])
def test_ingest_drops_non_finite_rows(tmp_path, layout):
    # nan compares False with 0, so a sign test alone let these rows in;
    # one nan sample made the VM's rescaled column mean NaN.
    f = tmp_path / "box.csv"
    if layout == "canonical":
        write_canonical(
            f, ["0,box,100,200,300", "1,box,nan,200,300", "2,box,100,inf,300", "3,box,110,210,310"]
        )
    else:
        f.write_text(
            "Timestamp [ms];CPU usage [MHZ];Memory usage [KB];"
            "Network received throughput [KB/s];Network transmitted throughput [KB/s]\n"
            "0;100;204800;100;200\n"
            "1;100;204800;nan;200\n"
            "2;100;inf;100;200\n"
            "3;110;215040;110;200\n"
        )
    trace = ingest_trace(str(f))
    assert trace.dropped == 2
    assert trace.series["box"].tolist() == [[100.0, 200.0, 300.0], [110.0, 210.0, 310.0]]
    assert np.isfinite(fit_trace_to_vms(trace, NOMINAL_BW[:1], 4)).all()


def test_ingest_directory_merges_files(tmp_path):
    write_canonical(tmp_path / "a.csv", ["0,vm1,1,1,1"])
    (tmp_path / "b.csv").write_text(
        "Timestamp [ms];CPU usage [MHZ];Memory usage [KB];"
        "Network received throughput [KB/s];Network transmitted throughput [KB/s]\n"
        "0;5;1024;1;2\n"
    )
    trace = ingest_trace(str(tmp_path))
    assert set(trace.series) == {"vm1", "b"}


def test_ingest_empty_directory_raises(tmp_path):
    with pytest.raises(TraceFormatError, match="no .csv files"):
        ingest_trace(str(tmp_path))


def test_ingest_no_usable_rows_raises(tmp_path):
    f = tmp_path / "t.csv"
    write_canonical(f, ["x,y,z,w,v"])
    with pytest.raises(TraceFormatError, match="no usable rows"):
        ingest_trace(str(f))


def test_fit_trace_round_robin_and_cycle(tmp_path):
    f = tmp_path / "t.csv"
    write_canonical(f, ["0,vm1,10,10,10", "1,vm1,30,30,30", "0,vm2,5,5,5"])
    trace = ingest_trace(str(f))
    usage = fit_trace_to_vms(trace, NOMINAL_BW, 4, rescale=False)
    assert usage.shape == (4, 2)
    # VM index 0 takes series vm1 cyclically: 10, 30, 10, 30.
    assert usage[:, 0].tolist() == [10.0, 30.0, 10.0, 30.0]
    # VM index 1 takes series vm2 repeated.
    assert usage[:, 1].tolist() == [5.0, 5.0, 5.0, 5.0]


def test_fit_trace_rescale_matches_nominal_mean(tmp_path):
    f = tmp_path / "t.csv"
    write_canonical(f, ["0,vm1,10,10,10", "1,vm1,30,30,30"])
    trace = ingest_trace(str(f))
    usage = fit_trace_to_vms(trace, NOMINAL_BW[:1], 2, rescale=True)
    assert usage[:, 0].mean() == pytest.approx(1000.0)
    # Shape is preserved: second sample stays three times the first.
    assert usage[1, 0] == pytest.approx(3.0 * usage[0, 0])


# The two readers and the directory merge that the one reader replaced,
# kept as written: the reference for every series and every message.

log = logging.getLogger("oscmc.workload")

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


def reference_ingest_canonical(path: str) -> TraceData:
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


def reference_ingest_raw(path: str) -> TraceData:
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


def reference_sniff_and_ingest(path: str) -> TraceData:
    with open(path) as fh:
        header = fh.readline()
    if ";" in header:
        return reference_ingest_raw(path)
    return reference_ingest_canonical(path)


def reference_part(path: str) -> TraceData:
    """One file as the old readers read it, less the one difference the new
    reader makes: a raw file with no usable row gives no series, where it
    gave a (0,) array that replaced any earlier file's series of that VM
    and crashed the fit."""
    part = reference_sniff_and_ingest(path)
    return TraceData({vm: a for vm, a in part.series.items() if a.size}, part.dropped)


def reference_ingest_trace(path: str) -> TraceData:
    if not os.path.exists(path):
        raise TraceFormatError("trace %s does not exist" % path)
    if os.path.isdir(path):
        merged: dict[str, np.ndarray] = {}
        dropped = 0
        names = sorted(n for n in os.listdir(path) if n.endswith(".csv"))
        if not names:
            raise TraceFormatError("trace directory %s holds no .csv files" % path)
        for name in names:
            part = reference_part(os.path.join(path, name))
            dropped += part.dropped
            for vm, data in part.series.items():
                merged[vm] = data
        data = TraceData(merged, dropped)
    else:
        data = reference_part(path)
    if not any(arr.size for arr in data.series.values()):
        raise TraceFormatError("trace %s contains no usable rows" % path)
    if data.dropped:
        log.warning("trace %s: dropped %d malformed rows", path, data.dropped)
    return data


valid_cells = st.integers(0, 1000).map(str) | st.floats(0.0, 1e6).map(repr)
bad_cells = (
    st.sampled_from(["", "x", "nan", "inf", "-inf", "-1", "-0.5", "1e400", " 7 ", "1_0", "+3"])
    | st.floats(allow_nan=True, allow_infinity=True).map(repr)
)


@st.composite
def trace_files(draw, stem):
    """The text of one trace file in either layout.  The header may put the
    columns in any order, add columns, pad names and, rarely, lack a
    required column.  Rows may carry bad values, an empty or padded vm_id,
    unsorted or repeated timestamps, too few or too many cells, and blank
    lines; a raw file may have no usable row at all."""
    raw = draw(st.booleans())
    columns = list(draw(st.permutations(_RAW_REQUIRED if raw else _CANONICAL_COLUMNS)))
    if draw(st.integers(0, 19)) == 0:
        columns.pop(draw(st.integers(0, len(columns) - 1)))
    for _ in range(draw(st.integers(0, 2))):
        columns.insert(draw(st.integers(0, len(columns))), draw(st.sampled_from(["extra", "note"])))
    hopeless = raw and draw(st.integers(0, 3)) == 0
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
            continue
        row = []
        for name in columns:
            if name == "vm_id":
                row.append(draw(st.sampled_from(["a", "b", " b ", "box", "", "  "])))
            elif hopeless and name == "Timestamp [ms]":
                row.append("x")
            else:
                row.append(draw(bad_cells if draw(st.integers(0, 9)) == 0 else valid_cells))
        cut = draw(st.integers(-4, 3))
        if cut == 0:
            row = row[: draw(st.integers(0, len(row) - 1))]
        elif cut == 1:
            row += [draw(valid_cells)]
        lines.append(row)
    if raw or draw(st.integers(0, 9)) == 0:  # a padded canonical name is missing
        columns = [draw(st.sampled_from(["", " ", "  "])) + c + draw(st.sampled_from(["", " "]))
                   for c in columns]
    delimiter = ";" if raw else ","
    text = [delimiter.join(columns)] + [r if r == "" else delimiter.join(r) for r in lines]
    return draw(st.sampled_from(["\n", "\r\n"])).join(text) + "\n"


@st.composite
def trace_dirs(draw):
    stems = draw(st.lists(st.sampled_from(["a", "b", "box", "m", "z"]), min_size=1, max_size=4,
                          unique=True))
    return {stem + ".csv": draw(trace_files(stem)) for stem in stems}


def _outcome(read, path):
    try:
        trace = read(path)
    except TraceFormatError as exc:
        return str(exc)
    return trace.dropped, {vm: (a.dtype, a.shape, a.tobytes()) for vm, a in trace.series.items()}


@settings(max_examples=300, deadline=None)
@given(trace_dirs(), st.booleans(), st.booleans())
def test_one_reader_equals_the_two_it_replaced(files, whole_dir, stray):
    """The one reader gives what the canonical and raw readers and their
    directory merge gave, file by file and for a directory: the same
    dropped count, the same VMs with bit-equal series, or the same
    TraceFormatError message; a raw file with no usable row gives no
    series."""
    with tempfile.TemporaryDirectory() as root:
        for name, text in files.items():
            with open(os.path.join(root, name), "w", newline="") as fh:
                fh.write(text)
        if stray:
            with open(os.path.join(root, "notes.txt"), "w") as fh:
                fh.write("not;a,trace\n")
        path = root if whole_dir else os.path.join(root, sorted(files)[0])
        assert _outcome(ingest_trace, path) == _outcome(reference_ingest_trace, path)
