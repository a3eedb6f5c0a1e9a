"""The oscmc layer boundaries the benchmark traces, and the per-layer
metrics derived from one traced simulation.

``engine`` imports its callees by name, so the hooks patch the names in
``oscmc.engine`` (patching ``oscmc.monitor.build_vlams`` alone would miss
the engine's call).  ``classify_link`` is bound separately in ``engine``,
``monitor`` and ``metrics``; all three bindings are counted.  Methods are
patched on their class, which every importer shares.
"""

from __future__ import annotations

from tracer import Hook, LayerTotals, summarise

SETUP = "engine.setup"
STEP = "engine.step"

_CONGESTION = {1: "predictor.congestion_overload", -1: "predictor.congestion_underload",
               0: "predictor.congestion_steady"}


def _congestion(count, args, result):
    count(_CONGESTION[result.value])


def _train(count, args, result):
    count("predictor.train_row_epochs", len(args["x"]) * args["epochs"])


def _kmeans(count, args, result):
    count("allocator.kmeans_points", len(args["values"]))


def _rebalance(count, args, result):
    count("allocator.migrations", len(result.moved))
    count("allocator.servers_drained", len(result.emptied_servers))
    count("allocator.residual_hogs", len(result.residual_hogs))


def _linkgen(count, args, result):
    count("engine.links_new", len(result))


def _vlams(count, args, result):
    count("monitor.live_links", len(args["links"]))
    count("monitor.vlam_entries", sum(len(v.links) for v in result.values()))


def _report(count, args, result):
    count("monitor.events", result.total_events())


def _quarantine(count, args, result):
    count("monitor.vms_suspended", len(result.suspend_vms))
    count("monitor.links_terminated", len(result.terminate_links))


HOOKS = [
    Hook("oscmc.engine:Simulation.__init__", SETUP),
    Hook("oscmc.engine:synthetic_usage", "workload.usage"),
    Hook("oscmc.engine:ffd_place", "allocator.initial_place"),
    Hook("oscmc.engine:first_fit_place", "allocator.initial_place"),
    Hook("oscmc.engine:pssf_place", "allocator.initial_place"),
    Hook("oscmc.monitor:Ivcl.grant", calls="monitor.ivcl_grants"),
    Hook("oscmc.engine:Simulation.step", STEP),
    Hook("oscmc.engine:detect_congestion", observe=_congestion),
    Hook("oscmc.engine:train_on_windows", "predictor.train", observe=_train),
    Hook("oscmc.predictor:PredictorModel.predict_batch", "predictor.predict"),
    Hook("oscmc.engine:kmeans", "allocator.kmeans", observe=_kmeans),
    Hook("oscmc.engine:rebalance", "allocator.rebalance", observe=_rebalance),
    Hook("oscmc.model:Placement.copy", "model.placement_copy"),
    Hook("oscmc.engine:inject_malicious_behavior", "engine.linkgen", observe=_linkgen),
    Hook("oscmc.engine:benign_links", "engine.linkgen", observe=_linkgen),
    Hook("oscmc.engine:build_vlams", "monitor.vlam", observe=_vlams),
    Hook("oscmc.engine:detect_colocation", "monitor.colocation"),
    Hook("oscmc.engine:build_threat_report", "monitor.report", observe=_report),
    Hook("oscmc.engine:snapshot", "metrics.snapshot"),
    Hook("oscmc.engine:quarantine", "monitor.quarantine", observe=_quarantine),
    Hook("oscmc.engine:classify_link", calls="monitor.classify_calls"),
    Hook("oscmc.monitor:classify_link", calls="monitor.classify_calls"),
    Hook("oscmc.metrics:classify_link", calls="monitor.classify_calls"),
]

# Step layers whose self time is reported in ms per interval, by metric name.
STEP_TIMES = {
    "predictor.train_ms": "predictor.train",
    "predictor.predict_ms": "predictor.predict",
    "allocator.kmeans_ms": "allocator.kmeans",
    "allocator.rebalance_ms": "allocator.rebalance",
    "model.placement_copy_ms": "model.placement_copy",
    "engine.linkgen_ms": "engine.linkgen",
    "monitor.vlam_ms": "monitor.vlam",
    "monitor.colocation_ms": "monitor.colocation",
    "monitor.report_ms": "monitor.report",
    "monitor.quarantine_ms": "monitor.quarantine",
    "metrics.snapshot_ms": "metrics.snapshot",
    "engine.step_self_ms": STEP,
}

# Step counters reported per interval.
STEP_COUNTS = [
    "predictor.train_row_epochs",
    "predictor.congestion_overload",
    "predictor.congestion_underload",
    "predictor.congestion_steady",
    "allocator.migrations",
    "allocator.servers_drained",
    "allocator.residual_hogs",
    "allocator.kmeans_points",
    "monitor.live_links",
    "monitor.vlam_entries",
    "monitor.classify_calls",
    "monitor.events",
    "monitor.vms_suspended",
    "monitor.links_terminated",
    "engine.links_new",
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, scale: float) -> dict[str, float]:
    """Per-layer figures of one traced simulation (one setup, its steps).

    Times are standard times (see ``hostspeed.py``): measured times
    multiplied by ``scale``.  Step times are self times in ms per interval,
    so together with ``engine.step_self_ms`` they add up to
    ``trace.step_ms``.  Set-up layers are given in seconds; the two placed
    under the set-up span are inclusive and ``engine.setup_self_s`` is what
    remains of the span.
    """
    summary = summarise(tracer.spans, scale)
    step = summary.get(STEP, {})
    setup = summary.get(SETUP, {})
    step_counts = tracer.counters.get(STEP, {})
    setup_counts = tracer.counters.get(SETUP, {})
    empty = LayerTotals()
    intervals = step.get(STEP, empty).calls
    if intervals == 0:
        raise RuntimeError("the traced run recorded no step")
    step_s = step[STEP].total_s

    out = {}
    for name, layer in STEP_TIMES.items():
        out[name] = 1e3 * step.get(layer, empty).self_s / intervals
    for name in STEP_COUNTS:
        out[name] = step_counts.get(name, 0) / intervals
    copies = step.get("model.placement_copy", empty).calls
    out["model.placement_copies"] = copies / intervals
    out["allocator.trial_yield"] = _ratio(
        step_counts.get("allocator.servers_drained", 0), copies
    )
    out["monitor.classify_per_live_link"] = _ratio(
        step_counts.get("monitor.classify_calls", 0),
        step_counts.get("monitor.live_links", 0),
    )
    out["engine.setup_self_s"] = setup.get(SETUP, empty).self_s
    out["workload.usage_s"] = setup.get("workload.usage", empty).total_s
    out["allocator.initial_place_s"] = setup.get("allocator.initial_place", empty).total_s
    out["monitor.ivcl_grants"] = setup_counts.get("monitor.ivcl_grants", 0)
    out["trace.step_ms"] = 1e3 * step_s / intervals
    out["trace.absent_hooks"] = len(tracer.absent)
    return out


def step_self_sum_ms(metrics: dict[str, float]) -> float:
    """Sum of the step layers' self times; equals ``trace.step_ms``."""
    return sum(metrics[name] for name in STEP_TIMES)
