"""Command-line interface tests."""

import os

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


def test_missing_subcommand_exits_config(capsys):
    assert main([]) == EXIT_CONFIG


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
