"""Command-line interface tests."""

import os
import threading

import pytest

from oscmc.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main


def test_run_writes_result_files(tmp_path):
    out = tmp_path / "res"
    code = main(
        [
            "run",
            "--scenario",
            "illustration",
            "--policy",
            "oscmc",
            "--policy",
            "wosc",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    for policy in ("oscmc", "wosc"):
        for name in ("metrics.csv", "events.csv", "summary.txt"):
            assert (out / policy / name).exists()
    metrics = (out / "oscmc" / "metrics.csv").read_text().strip().split("\n")
    assert len(metrics) == 4  # header + three intervals


def test_run_workers_flag_leaves_output_unchanged(tmp_path):
    scn = tmp_path / "small.scn"
    scn.write_text("servers = 6\nvms = 12\nintervals = 8\nwindow = 2\nseed = 5\n")
    outs = {}
    for workers in (1, 2):
        out = tmp_path / ("w%d" % workers)
        argv = ["run", "--scenario", str(scn), "--policy", "oscmc", "--policy", "wosc"]
        code = main(argv + ["--workers", str(workers), "--out", str(out)])
        assert code == EXIT_OK
        outs[workers] = out
    for policy in ("oscmc", "wosc"):
        for name in ("metrics.csv", "events.csv", "summary.txt"):
            serial = (outs[1] / policy / name).read_bytes()
            assert serial == (outs[2] / policy / name).read_bytes()


def test_run_unknown_scenario_exits_config(tmp_path, capsys):
    code = main(["run", "--scenario", "missing", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "scenario not found" in capsys.readouterr().err


def test_run_bad_scenario_file_exits_config(tmp_path, capsys):
    f = tmp_path / "bad.scn"
    f.write_text("servers = many\n")
    code = main(["run", "--scenario", str(f), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad",
    [
        "retrain_every = 0",
        "train_sample = 0",
        "kmeans_restarts = 0",
        "hog_threshold = -0.1",
        "pw_idle = 200",
        "pw_max = 10",
        "learning_rate = 0",
        "learning_rate = -0.05",
        "vm_flavors = 500:-1:1000",
        "server_cpu = -1",
        "server_mem = -1",
        "server_bw = -1",
        "server_bw = inf",
        "vm_flavors = 500:nan:1000",
        "workload_sigma = -0.1",
        "vuln_score_fixed = 11",
        "burst_enter = 2",
        "burst_enter = -0.1",
        "burst_exit = 1.5",
        "burst_exit = -0.1",
        "guaranteed_frac = -1",
        "guaranteed_frac = 1.5",
        "congestion_threshold_frac = -1",
        "burst_mult = -1",
        "seed = -1",
        "epochs = 0",
        "epochs = -1",
        "reserved_per = -1",
        "pw_idle = -500",
        "server_cpu = 1e13",
        "vm_flavors = 1e13:1:1",
        "hog_threshold = nan",
        "congestion_threshold_frac = inf",
        "congestion_threshold_frac = nan",
        "workload_sigma = nan",
        "burst_mult = inf",
        "burst_mult = nan",
        "pw_max = inf",
        "attack_mode = burst\nburst_period = 0",
        "hidden = 1000000000000",
        "window = 1000000000000",
        "hidden = 500000",
        "per_vm_models = true\nhidden = 500000",
        "intervals = 1000000000",
        "vms = 100000000\nservers = 1",
        "servers = 1000000000",
    ],
)
def test_run_bad_knob_exits_config_without_traceback(tmp_path, capsys, bad):
    f = tmp_path / "bad.scn"
    f.write_text("servers = 3\nvms = 6\nintervals = 8\nwindow = 2\n%s\n" % bad)
    code = main(["run", "--scenario", str(f), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "configuration error" in err
    assert "Traceback" not in err


def test_run_negative_seed_flag_exits_config_without_traceback(tmp_path, capsys):
    code = main(
        ["run", "--scenario", "illustration", "--seed", "-1", "--out", str(tmp_path / "o")]
    )
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "seed must be >= 0" in err
    assert "Traceback" not in err


def test_run_infeasible_scenario_exits_runtime(tmp_path, capsys):
    f = tmp_path / "tight.scn"
    f.write_text("servers = 2\nvms = 40\nintervals = 3\n")
    code = main(["run", "--scenario", str(f), "--out", str(tmp_path / "o")])
    assert code == EXIT_RUNTIME
    assert "simulation failed" in capsys.readouterr().err


def test_run_seed_and_interval_overrides(tmp_path):
    out = tmp_path / "res"
    code = main(
        [
            "run",
            "--scenario",
            "illustration",
            "--intervals",
            "2",
            "--seed",
            "99",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    metrics = (out / "oscmc" / "metrics.csv").read_text().strip().split("\n")
    assert len(metrics) == 3
    summary = (out / "oscmc" / "summary.txt").read_text()
    assert "seed: 99" in summary


def test_compare_prints_table_with_deltas(tmp_path, capsys):
    out = tmp_path / "res"
    main(
        [
            "run",
            "--scenario",
            "illustration",
            "--policy",
            "oscmc",
            "--policy",
            "wosc",
            "--out",
            str(out),
        ]
    )
    capsys.readouterr()
    code = main(["compare", str(out / "oscmc"), str(out / "wosc")])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "pw_watts" in text and "auth_link_pct" in text
    assert "%" in text  # delta column against the first run


def test_compare_missing_metrics_exits_config(tmp_path, capsys):
    code = main(["compare", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "no metrics.csv" in capsys.readouterr().err


def test_compare_mismatched_horizons_exits_config(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    main(["run", "--scenario", "illustration", "--policy", "oscmc", "--out", str(tmp_path)])
    os.rename(tmp_path / "oscmc", a)
    main(
        [
            "run",
            "--scenario",
            "illustration",
            "--policy",
            "oscmc",
            "--intervals",
            "2",
            "--out",
            str(tmp_path),
        ]
    )
    os.rename(tmp_path / "oscmc", b)
    capsys.readouterr()
    code = main(["compare", str(a), str(b)])
    assert code == EXIT_CONFIG
    assert "different interval counts" in capsys.readouterr().err


def test_trace_flag_feeds_the_run(tmp_path):
    lines = ["timestamp,vm_id,cpu_usage_mips,mem_usage_mb,net_bw_used"]
    for t in range(8):
        lines.append("%d,v1,%d,%d,%d" % (t, 400 + t, 400, 800))
    trace = tmp_path / "trace.csv"
    trace.write_text("\n".join(lines) + "\n")
    scn = tmp_path / "tiny.scn"
    scn.write_text("servers = 3\nvms = 6\nintervals = 4\nseed = 2\n")
    out = tmp_path / "res"
    code = main(
        ["run", "--scenario", str(scn), "--trace", str(trace), "--out", str(out)]
    )
    assert code == EXIT_OK
    assert (out / "oscmc" / "metrics.csv").exists()


@pytest.mark.parametrize("route", ["scenario", "flag"])
def test_missing_trace_exits_config_without_traceback(tmp_path, capsys, route):
    missing = tmp_path / "absent" / "x.csv"
    scn = tmp_path / "tiny.scn"
    text = "servers = 3\nvms = 6\nintervals = 4\n"
    argv = ["run", "--scenario", str(scn), "--out", str(tmp_path / "o")]
    if route == "scenario":
        text += "trace_path = %s\n" % missing
    else:
        argv += ["--trace", str(missing.parent)]
    scn.write_text(text)
    code = main(argv)
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "does not exist" in err
    assert "Traceback" not in err


def test_trace_run_at_an_overlapped_set_up(tmp_path, capsys):
    """400 VMs over 41 intervals (16,400 usage values) build the usage beside
    the log.  A trace-driven run exits 0, a missing trace still exits 2 with
    the same message, and no thread outlives either."""
    before = threading.active_count()
    trace = tmp_path / "trace.csv"
    trace.write_text(CANONICAL_HEADER + "".join("%d,v1,400,400,%d\n" % (t, 500 + 90 * t)
                                                for t in range(8)))
    scn = tmp_path / "wide.scn"
    scn.write_text("servers = 200\nvms = 400\nintervals = 41\npolicy = wosc\n")
    argv = ["run", "--scenario", str(scn), "--out", str(tmp_path / "o"), "--trace"]
    assert main(argv + [str(trace)]) == EXIT_OK
    assert threading.active_count() == before
    capsys.readouterr()
    assert main(argv + [str(tmp_path / "absent.csv")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "configuration error: trace %s does not exist\n" % (tmp_path / "absent.csv")
    assert threading.active_count() == before


def test_missing_subcommand_exits_config(capsys):
    assert main([]) == EXIT_CONFIG


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


@pytest.mark.parametrize(
    "text, message",
    [
        ("interval,pw_dc_watts,ru_dc_pct,hogs\n0,1,2,3\n", "lacks column authorized_link_pct"),
        ("interval,pw_dc_watts,ru_dc_pct,authorized_link_pct,hogs\n0,1,x,3,4\n",
         "line 2: could not convert string to float: 'x'"),
        ("interval,pw_dc_watts,ru_dc_pct,authorized_link_pct,hogs\n0,1,2,3\n", "line 2"),
    ],
)
def test_compare_bad_metrics_file_exits_config_naming_it(tmp_path, capsys, text, message):
    (tmp_path / "metrics.csv").write_text(text)
    code = main(["compare", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "%s %s" % (tmp_path / "metrics.csv", message) in err
    assert "Traceback" not in err


def test_run_out_on_a_file_exits_config_before_simulating(tmp_path, capsys, monkeypatch):
    out = tmp_path / "taken"
    out.write_text("")
    monkeypatch.setattr("oscmc.cli.run", lambda sc: pytest.fail("simulated before the check"))
    code = main(["run", "--scenario", "illustration", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "cannot create output directory" in err and str(out) in err
    assert out.read_text() == ""


def test_compare_unreadable_metrics_exits_config_naming_it(tmp_path, capsys):
    (tmp_path / "metrics.csv").mkdir()
    code = main(["compare", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("configuration error:") and str(tmp_path / "metrics.csv") in err
    assert "Traceback" not in err


def test_run_unwritable_result_file_exits_config_naming_it(tmp_path, capsys):
    (tmp_path / "oscmc" / "metrics.csv").mkdir(parents=True)
    code = main(["run", "--scenario", "illustration", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("configuration error:")
    assert str(tmp_path / "oscmc" / "metrics.csv") in err
    assert "Traceback" not in err


CANONICAL_HEADER = "timestamp,vm_id,cpu_usage_mips,mem_usage_mb,net_bw_used\n"


def _run_trace(tmp_path, trace, out):
    scn = tmp_path / "tiny.scn"
    scn.write_text("servers = 3\nvms = 6\nintervals = 4\nseed = 2\n")
    return main(["run", "--scenario", str(scn), "--trace", str(trace), "--out", str(out),
                 "--policy", "oscmc", "--policy", "wosc"])


def test_raw_trace_file_without_a_usable_row_is_left_out(tmp_path, capsys):
    """A raw file none of whose rows is usable adds no series: the run
    writes what it writes for the same directory without that file."""
    trace = tmp_path / "trace"
    trace.mkdir()
    (trace / "a.csv").write_text(
        CANONICAL_HEADER + "".join("%d,v1,400,400,%d\n" % (t, 500 + 90 * t) for t in range(8))
    )
    (trace / "box7.csv").write_text(
        "Timestamp [ms];CPU usage [MHZ];Memory usage [KB];"
        "Network received throughput [KB/s];Network transmitted throughput [KB/s]\n"
        "0;x;1024;1;2\n1000;5;1024;nan;2\n"
    )
    assert _run_trace(tmp_path, trace, tmp_path / "with") == EXIT_OK
    (trace / "box7.csv").unlink()
    assert _run_trace(tmp_path, trace, tmp_path / "without") == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err
    for policy in ("oscmc", "wosc"):
        for name in ("metrics.csv", "events.csv", "summary.txt"):
            with_raw = (tmp_path / "with" / policy / name).read_bytes()
            assert with_raw == (tmp_path / "without" / policy / name).read_bytes()


def _bad_trace(tmp_path, case):
    """A trace that cannot be read, and the path its message must name."""
    trace = tmp_path / "trace"
    trace.mkdir()
    good = CANONICAL_HEADER + "0,v1,400,400,800\n"
    if case == "directory entry":
        (trace / "a.csv").write_text(good)
        (trace / "sub.csv").mkdir()
        return trace, trace / "sub.csv"
    if case == "undecodable":
        (trace / "t.csv").write_bytes(good.encode() + b"1,v1,4\xff0,400,800\n")
    else:  # a field over the csv module's 131072-character limit
        (trace / "t.csv").write_text(good + "1,v1,%s,400,800\n" % ("9" * 200000))
    return trace / "t.csv", trace / "t.csv"


@pytest.mark.parametrize("case", ["directory entry", "undecodable", "oversized field"])
def test_unreadable_trace_exits_config_naming_it(tmp_path, capsys, case):
    trace, named = _bad_trace(tmp_path, case)
    code = _run_trace(tmp_path, trace, tmp_path / "o")
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("configuration error: cannot read trace %s: " % named)
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()  # read before any output directory is made


def test_three_policy_run_reads_the_trace_once(tmp_path, caplog):
    """One run of three policies parses the trace once, so its malformed-row
    warning appears once, and writes what three one-policy runs write."""
    trace = tmp_path / "trace.csv"
    trace.write_text(
        CANONICAL_HEADER
        + "".join("%d,v%d,400,400,%d\n" % (t, t % 2, 500 + 90 * t) for t in range(8))
        + "bogus,v1,1,2,3\n"
    )
    scn = tmp_path / "tiny.scn"
    scn.write_text("servers = 3\nvms = 6\nintervals = 4\nseed = 2\n")
    argv = ["run", "--scenario", str(scn), "--trace", str(trace)]
    policies = ("oscmc", "pssf", "wosc")
    together = [arg for p in policies for arg in ("--policy", p)]
    with caplog.at_level("WARNING", logger="oscmc.workload"):
        assert main(argv + together + ["--out", str(tmp_path / "all")]) == EXIT_OK
    warned = [r.getMessage() for r in caplog.records if "malformed" in r.getMessage()]
    assert warned == ["trace %s: dropped 1 malformed rows" % trace]
    for p in policies:
        assert main(argv + ["--policy", p, "--out", str(tmp_path / p)]) == EXIT_OK
        for name in ("metrics.csv", "events.csv", "summary.txt"):
            alone = (tmp_path / p / p / name).read_bytes()
            assert (tmp_path / "all" / p / name).read_bytes() == alone


@pytest.mark.parametrize("case", ["directory", "undecodable"])
def test_unreadable_scenario_file_exits_config_naming_it(tmp_path, capsys, case):
    scn = tmp_path / "bad.scn"
    if case == "directory":
        scn.mkdir()
    else:
        scn.write_bytes(b"servers = 3\n\xff\n")
    code = main(["run", "--scenario", str(scn), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("configuration error: cannot read scenario %s: " % scn)
    assert "Traceback" not in err
