"""Tests of the benchmark's own code: span arithmetic, the tracer's wrapping
and a traced run of the scripted illustration scenario."""

import importlib

import pytest

import layers
import run
from hostspeed import Timing, run_scale, standard_s
from tracer import Hook, Span, Tracer, self_times, summarise


def _declared(group):
    return {m["name"] for m in run.SPEC[group]}


def test_self_times_of_nested_spans():
    # root [0, 10] has children A [1, 4], B [3.5, 6] (overlapping A) and
    # C [9, 12] (running past the root); A has a child [2, 3].
    spans = [
        Span(0, None, "root", 0, 0.0, 10.0),
        Span(1, 0, "a", 0, 1.0, 4.0),
        Span(2, 1, "leaf", 0, 2.0, 3.0),
        Span(3, 0, "b", 0, 3.5, 6.0),
        Span(4, 0, "c", 0, 9.0, 12.0),
        Span(5, None, "other", 5, 20.0, 21.5),
        Span(6, 5, "a", 5, 20.5, 21.0),
    ]
    selfs = self_times(spans)
    # Covered part of the root: union [1, 6] plus [9, 10] clipped.
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(2.5)
    assert selfs[4] == pytest.approx(3.0)
    assert selfs[5] == pytest.approx(1.0)

    summary = summarise(spans)
    assert set(summary) == {"root", "other"}
    assert summary["root"]["a"].calls == 1
    assert summary["root"]["a"].self_s == pytest.approx(2.0)
    assert summary["root"]["a"].total_s == pytest.approx(3.0)
    assert summary["other"]["a"].self_s == pytest.approx(0.5)

    scaled = summarise(spans, 2.0)
    assert scaled["root"]["a"].self_s == pytest.approx(4.0)
    assert scaled["root"]["a"].total_s == pytest.approx(6.0)
    assert scaled["other"]["a"].self_s == pytest.approx(1.0)


def test_standard_time_uses_the_neighbours_kernel_times():
    timings = [
        Timing(0.1, (1e-3, 1e-3)),
        Timing(0.2, (1e-3, 2e-3)),
        Timing(0.3, (2e-3, 4e-3)),
    ]
    # Medians of the kernel times of regions {0, 1}, {0, 1, 2} and {1, 2}.
    assert standard_s(timings) == pytest.approx([0.1, 0.2 / 1.5, 0.3 / 2.0])
    assert standard_s(timings[:1]) == pytest.approx([0.1])
    assert run_scale(timings) == pytest.approx(1.0 / 1.5)


def test_tracer_records_nesting_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = Tracer([], clock=lambda: float(next(ticks)))
    outer = tracer._open("outer")
    inner = tracer._open("inner")
    tracer.count("items", 3)
    tracer._close(inner)
    tracer._close(outer)
    tracer.count("items")
    assert [(s.layer, s.parent, s.request, s.start, s.end) for s in tracer.spans] == [
        ("outer", None, 0, 0.0, 3.0),
        ("inner", 0, 0, 1.0, 2.0),
    ]
    assert tracer.counters == {"outer": {"items": 3}, "": {"items": 1}}


def _attribute_snapshot():
    owners = []
    for name in ("engine", "model", "monitor", "metrics", "predictor", "allocator", "workload"):
        owners.append(importlib.import_module("oscmc." + name))
    engine = owners[0]
    owners += [engine.Simulation, engine.Placement, engine.PredictorModel, engine.Ivcl]
    return {id(owner): (owner, dict(vars(owner))) for owner in owners}


def test_round_trip_leaves_every_attribute_identical():
    before = _attribute_snapshot()
    tracer = Tracer(layers.HOOKS)
    with tracer:
        assert tracer.absent == []
        import oscmc.engine

        assert oscmc.engine.build_vlams.__wrapped__ is oscmc.monitor.build_vlams
    after = _attribute_snapshot()
    for key, (owner, attrs) in before.items():
        now = after[key][1]
        assert now.keys() == attrs.keys(), owner
        changed = [name for name in attrs if now[name] is not attrs[name]]
        assert changed == [], owner


def test_missing_hooks_are_reported_absent():
    hooks = [
        Hook("oscmc.engine:no_such_function", "gone"),
        Hook("oscmc.engine:Simulation.no_such_method", "gone"),
        Hook("oscmc.no_such_module:anything", "gone"),
        Hook("oscmc.engine:build_vlams", "monitor.vlam"),
    ]
    with Tracer(hooks) as tracer:
        assert tracer.absent == [h.target for h in hooks[:3]]


def test_traced_illustration_matches_pinned_figures():
    from oscmc.scenario import load_scenario

    sc = load_scenario("illustration")
    untraced = run.simulate(sc)
    tracer = Tracer(layers.HOOKS)
    with tracer:
        traced = run.simulate(sc)
    assert traced.digest == untraced.digest
    intervals = sc.intervals
    metrics = layers.layer_metrics(tracer, 1.0)
    assert intervals == 3
    steps = summarise(tracer.spans)[layers.STEP][layers.STEP]
    assert steps.calls == intervals
    # Criterion 1: four hostile VMs suspended and nine unauthorised links
    # terminated, all at interval 0, where 19 links are live.
    assert metrics["monitor.vms_suspended"] * intervals == pytest.approx(4)
    assert metrics["monitor.links_terminated"] * intervals == pytest.approx(9)
    assert tracer.counters[layers.STEP]["monitor.live_links"] >= 19
    # Intra-user grants only: users of 4, 3, 4 and 4 VMs give 12+6+12+12.
    assert metrics["monitor.ivcl_grants"] == 42
    assert metrics["monitor.classify_calls"] > 0
    assert metrics["trace.absent_hooks"] == 0
    assert layers.step_self_sum_ms(metrics) == pytest.approx(metrics["trace.step_ms"])
    # run.measure_traced adds the overhead against the untraced simulation.
    assert set(metrics) == _declared("per_layer") - {"trace.overhead_pct"}


def test_measure_traced_reports_every_per_layer_metric():
    from oscmc.scenario import load_scenario

    tally, metrics, measured = run.measure_traced(load_scenario("illustration"))
    assert (tally.attempted, tally.failed) == (2, 0)
    assert set(metrics) == _declared("per_layer")
    assert set(measured) == {"host_ref_ms", "host_ref_ms_setup", "host_ref_ms_step"}


def test_measure_counts_attempts_and_keeps_digest(monkeypatch):
    from oscmc.scenario import load_scenario

    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)
    sc = load_scenario("illustration")
    tally, metrics, measured = run.measure(sc, seconds=0.0)
    assert tally.failed == 0
    assert tally.attempted == run.MIN_SETUPS
    assert tally.digest is not None
    assert metrics["ok_pct"] == 100.0
    assert set(metrics) == _declared("end_to_end")
    assert set(measured) == {
        "setup_s", "interval_ms_p50", "interval_ms_tail", "vm_intervals_per_s",
        "host_ref_ms", "host_ref_ms_setup", "host_ref_ms_step",
    }


def test_gate_counts_a_raising_simulation(monkeypatch):
    from oscmc.scenario import load_scenario

    def broken(sc):
        raise run.GateError("broken")

    monkeypatch.setattr(run, "simulate", broken)
    tally, metrics, measured = run.measure(load_scenario("illustration"), seconds=60.0)
    assert metrics == measured == {}
    assert tally.failed == tally.attempted == run.MIN_SETUPS


def test_missing_sources_stop_the_benchmark(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(ImportError):
        run.import_oscmc()
