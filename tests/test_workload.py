"""Synthetic workload and trace-ingestion tests."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    mean can overflow the scale factor; both sides must then agree too."""
    nominals = np.array(nominals)
    with np.errstate(over="ignore", invalid="ignore"):
        usage = fit_trace_to_vms(trace, nominals[:, 2], intervals, rescale)
        want = reference_fit_trace_to_vms(trace, nominals, intervals, rescale)[..., 2]
    assert usage.shape == want.shape and usage.tobytes() == want.tobytes()


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
