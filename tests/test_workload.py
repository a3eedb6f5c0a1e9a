"""Synthetic workload and trace-ingestion tests."""

import numpy as np
import pytest

from oscmc.workload import (
    TraceFormatError,
    fit_trace_to_vms,
    ingest_trace,
    synthetic_usage,
)

NOMINALS = np.array([[500.0, 512.0, 1000.0], [1000.0, 1024.0, 1000.0]])


def test_synthetic_usage_shape_and_determinism():
    a = synthetic_usage(NOMINALS, 20, np.random.default_rng(3))
    b = synthetic_usage(NOMINALS, 20, np.random.default_rng(3))
    assert a.shape == (20, 2, 3)
    assert np.array_equal(a, b)
    c = synthetic_usage(NOMINALS, 20, np.random.default_rng(4))
    assert not np.array_equal(a, c)


def test_synthetic_usage_respects_walk_bounds():
    usage = synthetic_usage(NOMINALS, 200, np.random.default_rng(5))
    lo = 0.3 * NOMINALS
    hi = 1.3 * NOMINALS
    assert (usage[:, :, :2] >= lo[None, :, :2] - 1e-9).all()
    assert (usage[:, :, :2] <= hi[None, :, :2] + 1e-9).all()
    # Bandwidth may exceed the walk ceiling only through the burst multiplier.
    assert (usage[:, :, 2] >= lo[None, :, 2] - 1e-9).all()
    assert (usage[:, :, 2] <= hi[None, :, 2] * 2.5 + 1e-9).all()


def test_synthetic_usage_bursts_appear():
    usage = synthetic_usage(NOMINALS, 300, np.random.default_rng(6))
    # With enter probability 0.06 over 300 intervals some bursts must fire.
    assert (usage[:, :, 2] > 1.31 * NOMINALS[None, :, 2]).any()


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
    assert np.isfinite(fit_trace_to_vms(trace, NOMINALS[:1], 4)).all()


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
    usage = fit_trace_to_vms(trace, NOMINALS, 4, rescale=False)
    assert usage.shape == (4, 2, 3)
    # VM index 0 takes series vm1 cyclically: 10, 30, 10, 30.
    assert usage[:, 0, 0].tolist() == [10.0, 30.0, 10.0, 30.0]
    # VM index 1 takes series vm2 repeated.
    assert usage[:, 1, 0].tolist() == [5.0, 5.0, 5.0, 5.0]


def test_fit_trace_rescale_matches_nominal_mean(tmp_path):
    f = tmp_path / "t.csv"
    write_canonical(f, ["0,vm1,10,10,10", "1,vm1,30,30,30"])
    trace = ingest_trace(str(f))
    usage = fit_trace_to_vms(trace, NOMINALS[:1], 2, rescale=True)
    assert usage[:, 0, 0].mean() == pytest.approx(500.0)
    assert usage[:, 0, 2].mean() == pytest.approx(1000.0)
    # Shape is preserved: second sample stays three times the first.
    assert usage[1, 0, 0] == pytest.approx(3.0 * usage[0, 0, 0])
