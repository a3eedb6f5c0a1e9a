"""Simulation-engine tests: construction, invariants and policy contracts."""

import copy
import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oscmc.allocator
import oscmc.engine
import oscmc.metrics
import oscmc.model
from oscmc.allocator import PlacementInfeasibleError
from oscmc.engine import (
    RunLog,
    Simulation,
    SimulationError,
    first_fit_place,
    inject_malicious_behavior,
    pssf_place,
    run,
)
from oscmc.metrics import (
    METRICS_CSV_HEADER, EmptyDataCenterError, Fleet, _active, authorized_link_pct, snapshot,
)
from oscmc.model import CapacityError, GuaranteedThreshold, Placement, ResourceVector, Server
from oscmc.monitor import (
    QuarantineDirective,
    build_threat_report,
    build_vlams,
    classify_link,
)
from oscmc.scenario import Scenario, ScenarioError, load_scenario, with_policy


def small_scenario(**overrides):
    base = dict(
        name="small",
        servers=6,
        vms=12,
        users=4,
        intervals=8,
        seed=13,
        reserved_per=6,
        malicious_user_pct=25.0,
        cross_user_auth_rate=0.1,
    )
    base.update(overrides)
    return Scenario(**base)


def make_servers(n, cpu=2000.0, mem=2048.0, bw=10000.0):
    return {
        sid: Server(sid, ResourceVector(cpu, mem, bw)) for sid in range(1, n + 1)
    }


def test_first_fit_place_scans_by_server_id():
    servers = make_servers(3, cpu=1000.0)
    d = ResourceVector(600.0, 10.0, 10.0)
    placed = first_fit_place([(1, d), (2, d), (3, d)], servers, Placement(servers))
    assert placed.server_of(1) == 1
    assert placed.server_of(2) == 2
    assert placed.server_of(3) == 3


def test_pssf_place_prefers_owner_prior_server():
    servers = make_servers(3, cpu=2000.0)
    d = ResourceVector(500.0, 10.0, 10.0)
    items = [(1, 7, d), (2, 8, d), (3, 7, d), (4, 8, d)]
    placed = pssf_place(items, servers, Placement(servers))
    # First VM of each owner lands first-fit on server 1; later VMs follow.
    assert placed.server_of(1) == 1
    assert placed.server_of(3) == 1
    assert placed.server_of(2) == 1
    assert placed.server_of(4) == 1


def test_pssf_place_falls_back_when_prior_full():
    servers = make_servers(2, cpu=1000.0)
    d = ResourceVector(600.0, 10.0, 10.0)
    items = [(1, 7, d), (2, 7, d)]
    placed = pssf_place(items, servers, Placement(servers))
    assert placed.server_of(1) == 1
    assert placed.server_of(2) == 2  # prior server cannot fit the second VM


def test_simulation_builds_deterministic_population():
    a = Simulation(small_scenario())
    b = Simulation(small_scenario())
    assert a.owners == b.owners
    assert a.malicious_vm_ids.tolist() == b.malicious_vm_ids.tolist()
    assert a.benign_vm_ids.dtype == a.benign_alive.dtype == np.intp
    assert {s: a.servers[s].vulnerability_score for s in a.servers} == {
        s: b.servers[s].vulnerability_score for s in b.servers
    }
    assert np.array_equal(a.usage, b.usage)


def test_population_respects_fixed_users_and_malicious_list():
    sc = load_scenario("illustration")
    sim = Simulation(sc)
    assert sim.users[3].is_malicious_truth
    assert not sim.users[1].is_malicious_truth
    assert sorted(sim.users[3].vm_ids) == [8, 9, 10, 11]
    assert sim.malicious_vm_ids.tolist() == [8, 9, 10, 11]


def test_ivcl_grants_cover_intra_user_pairs():
    sim = Simulation(small_scenario(cross_user_auth_rate=0.0))
    for user in sim.users.values():
        for a in user.vm_ids:
            for b in user.vm_ids:
                if a != b:
                    assert sim.ivcl.is_authorized(a, b)
    # No cross-user authorisation when the rate is zero.
    for a, owner_a in sim.owners.items():
        for b, owner_b in sim.owners.items():
            if a != b and owner_a != owner_b:
                assert not sim.ivcl.is_authorized(a, b)


def test_ivcl_cross_user_grants_follow_pairwise_draw_order():
    """Cross-user grants match one setup draw per (a, b) pair in id order."""
    users = {1: [1, 2, 3, 4, 5], 2: [6], 3: [7, 8, 9]}
    sc = small_scenario(
        vms=9,
        users=None,
        fixed_users=users,
        fixed_malicious_users=[2],
        vuln_score_fixed=5.0,
        cross_user_auth_rate=0.4,
    )
    sim = Simulation(sc)
    ids = sorted(sim.vms)
    pairs = [
        (a, b) for a in ids for b in ids if a != b and sim.owners[a] != sim.owners[b]
    ]
    rng = np.random.default_rng(np.random.SeedSequence(sc.seed).spawn(6)[0])
    draws = rng.random(len(pairs)) < sc.cross_user_auth_rate
    expected = {pair for pair, keep in zip(pairs, draws) if keep}
    expected |= {
        (a, b) for vms in users.values() for a in vms for b in vms if a != b
    }
    granted = {(a, b) for a in ids for b in sim.ivcl.authorized_dsts(a)}
    assert 0 < sum(draws) < len(pairs)
    assert granted == expected


def test_reserved_servers_only_under_surveillance_policy():
    assert any(
        s.reserved_for_hogs for s in Simulation(small_scenario()).servers.values()
    )
    for policy in ("pssf", "wosc"):
        sim = Simulation(small_scenario(policy=policy))
        assert not any(s.reserved_for_hogs for s in sim.servers.values())


def test_workload_identical_across_policies():
    usages = [
        Simulation(small_scenario(policy=p)).usage for p in ("oscmc", "pssf", "wosc")
    ]
    assert np.array_equal(usages[0], usages[1])
    assert np.array_equal(usages[1], usages[2])


def test_oversized_vm_is_rejected():
    sc = small_scenario(vm_flavors=[(9000.0, 10.0, 10.0)])
    with pytest.raises(SimulationError, match="rejected"):
        Simulation(sc)


def test_rejection_names_the_lowest_id_vm_of_any_rejected_flavor():
    # Flavors cycle over VM ids from VM 1: VMs 2 and 3 are each the first of
    # a flavor no server can host.
    flavors = [(100.0, 10.0, 10.0), (9000.0, 10.0, 10.0), (10.0, 9000.0, 10.0)]
    with pytest.raises(SimulationError, match="^VM 2 rejected"):
        Simulation(small_scenario(vm_flavors=flavors))
    with pytest.raises(SimulationError, match="^VM 3 rejected"):
        Simulation(small_scenario(vm_flavors=[flavors[0], flavors[0], flavors[2]]))


@pytest.mark.parametrize("policy", ["oscmc", "pssf", "wosc"])
def test_initial_placement_admits_and_converts_once_per_flavor(monkeypatch, policy):
    """Set-up of a 2-flavor fleet makes no fit_mask scan, one placement copy,
    one admission test per flavor and one unit conversion per flavor beside
    the servers' capacities."""
    calls = {"fit_mask": 0, "copy": 0, "admit_vm": 0, "to_units": 0}

    def counting(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in ("fit_mask", "copy"):
        monkeypatch.setattr(Placement, name, counting(name, getattr(Placement, name)))
    monkeypatch.setattr(oscmc.engine, "admit_vm", counting("admit_vm", oscmc.engine.admit_vm))
    for module in (oscmc.model, oscmc.allocator):
        monkeypatch.setattr(module, "to_units", counting("to_units", module.to_units))
    sc = small_scenario(
        policy=policy, servers=20, vms=60, users=9, reserved_per=10,
        vm_flavors=[(500.0, 512.0, 1000.0), (250.0, 256.0, 500.0)],
    )
    sim = Simulation(sc)
    assert sim.placement.capacity_ok() and len(sim.placement.placed()) == 60
    assert calls == {"fit_mask": 0, "copy": 1, "admit_vm": 2, "to_units": 20 + 2}


@pytest.mark.parametrize("policy, derivations", [("wosc", 1), ("oscmc", 15)])
def test_placement_state_is_derived_once_per_change(monkeypatch, policy, derivations):
    """The snapshot's fleet figures and the attack generator's co-location
    index are derived once per placement state: once in a whole ``wosc``
    run, whose placement never changes, and in an ``oscmc`` run once per
    interval whose placement differs from the previous interval's (15 of
    20 here, by rebalancing or quarantine)."""
    calls = {"_figures": 0, "_colocation_index": 0}
    for module, name in ((oscmc.metrics, "_figures"), (oscmc.engine, "_colocation_index")):
        def counting(*args, _name=name, _original=getattr(module, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(module, name, counting)
    states = []
    recorded = oscmc.engine.snapshot

    def recording(t, servers, placement, *args, **kwargs):
        states.append(placement.host_rows(np.arange(1, len(sim.vms) + 1)).tobytes())
        return recorded(t, servers, placement, *args, **kwargs)

    monkeypatch.setattr(oscmc.engine, "snapshot", recording)
    sim = Simulation(dataclasses.replace(_xi200x10(policy), intervals=20))
    for t in range(sim.sc.intervals):
        sim.step(t)
    changes = 1 + sum(a != b for a, b in zip(states, states[1:]))
    assert calls == {"_figures": changes, "_colocation_index": changes}
    assert changes == derivations


# Four one-VM users link in cross-user pairs with no cross-user grant: the
# first interval's quarantine suspends all four VMs, and no server is
# reserved, so none stays powered.
_ALL_SUSPENDED = Scenario(
    servers=2, vms=4, users=4, intervals=3, malicious_user_pct=0,
    reserved_per=0, cross_user_auth_rate=0,
    scripted_links={0: [(1, 2), (2, 1), (3, 4), (4, 3)]},
)


def test_run_with_every_vm_suspended_stops_with_simulation_error():
    """With no server powered the next snapshot has no mean to take; the run
    stops with the exit-3 error naming the interval, not a metrics error."""
    with pytest.raises(SimulationError, match="interval 1: every VM is suspended"):
        run(_ALL_SUSPENDED)


def test_run_preserves_vm_conservation_and_capacity():
    sc = small_scenario()
    sim = Simulation(sc)
    all_vms = set(sim.vms)
    for t in range(sc.intervals):
        sim.step(t)
        assert set(sim.placement.vm_ids) | sim.suspended == all_vms
        assert not (set(sim.placement.vm_ids) & sim.suspended)
        assert sim.placement.capacity_ok()


def test_suspended_vms_never_relink():
    sc = small_scenario(intervals=12)
    sim = Simulation(sc)
    seen_after_suspension = []
    for t in range(sc.intervals):
        suspended_before = set(sim.suspended)
        sim.step(t)
        for src, dst in sim.live_links():
            if src in suspended_before or dst in suspended_before:
                seen_after_suspension.append((t, src, dst))
    assert seen_after_suspension == []
    # The log records suspensions in quarantine order; contents must agree.
    assert sim.suspended == set(sim.log.suspended)
    assert len(sim.log.suspended) == len(set(sim.log.suspended))


def test_detector_never_reads_ground_truth():
    """Scrambling truth labels after construction changes no detection output."""
    sc = small_scenario()
    a = Simulation(sc)
    b = Simulation(sc)
    for user in b.users.values():
        user.is_malicious_truth = not user.is_malicious_truth
    # Keep the injection identical by restoring the original attacker list.
    b.malicious_vm_ids = a.malicious_vm_ids.copy()
    b.benign_vm_ids = a.benign_vm_ids.copy()
    for t in range(sc.intervals):
        a.step(t)
        b.step(t)
        ra, rb = a.log.reports[t], b.log.reports[t]
        assert ra.malicious_vms == rb.malicious_vms
        assert ra.colocation == rb.colocation


def test_live_links_are_one_sorted_key_array():
    """The live links are held as one strictly increasing int64 key array,
    one key per link, whose size the snapshot reads; the keys decode to
    registered VMs.  Generated links arrive as ``(n, 2)`` intp arrays."""
    sim = Simulation(with_policy(small_scenario(servers=200, vms=400, users=40), "wosc"))
    for t in range(3):
        sim.step(t)
        keys = sim.link_keys
        assert keys.dtype == np.int64 and keys.ndim == 1 and keys.size > 0
        assert (np.diff(keys) > 0).all()
        assert sim.span == 401
        links = sim.live_links()
        assert len(links) == keys.size
        assert all(1 <= v <= 400 for link in links for v in link)
        assert [s * sim.span + d for s, d in links] == keys.tolist()
        m = sim.log.metrics[-1]
        good = keys.size - len(sim.unauthorised)
        assert m.authorized_link_pct == 100.0 * good / keys.size
    for links in sim._new_links(3):
        assert links.dtype == np.intp and links.ndim == 2 and links.shape[1] == 2


def test_oscmc_quarantines_and_wosc_does_not():
    sc = small_scenario(intervals=10)
    a = run(sc)
    w = run(with_policy(sc, "wosc"))
    assert len(a.suspended) > 0
    assert w.suspended == []
    assert a.realized_breaches == 0
    assert w.realized_breaches > 0
    assert a.metrics[-1].authorized_link_pct == 100.0
    assert w.metrics[-1].authorized_link_pct < 100.0


def test_metrics_csv_round_trip():
    result = run(small_scenario(intervals=4))
    text = result.metrics_csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == METRICS_CSV_HEADER
    assert len(lines) == 5
    for line in lines[1:]:
        assert len(line.split(",")) == len(METRICS_CSV_HEADER.split(","))


def test_events_csv_contains_detections():
    result = run(small_scenario(intervals=6))
    lines = result.events_csv_text().strip().split("\n")
    assert lines[0] == "interval,kind,attacker,victim,servers"
    kinds = {line.split(",")[1] for line in lines[1:]}
    assert kinds <= {"col", "cas", "vul"}
    assert len(lines) > 1  # steady attacks must raise something


def test_summary_text_fields():
    result = run(small_scenario(intervals=4))
    text = result.summary_text()
    for needle in (
        "scenario: small",
        "policy: oscmc",
        "intervals: 4",
        "suspended vms:",
        "realized breaches:",
    ):
        assert needle in text


def test_run_log_counts_match_reports():
    result = run(small_scenario(intervals=6))
    assert len(result.metrics) == 6
    assert len(result.reports) == 6
    cum = set()
    for m, r in zip(result.metrics, result.reports):
        cum |= r.malicious_vms
        assert m.malicious_vms_cum == len(cum)
        assert m.theta_col == len(r.colocation)
        assert m.theta_cas == len(r.cascading)
        assert m.theta_vul == len(r.vulnerability)


def test_scripted_links_skip_suspended_sources():
    sc = small_scenario(
        intervals=3,
        benign_link_rate=0.0,
        attack_colocated_rate=0.0,
        attack_remote_rate=0.0,
        cross_user_auth_rate=0.0,
        scripted_links={0: [(1, 4)], 1: [(1, 4)], 2: [(1, 4)]},
    )
    sim = Simulation(sc)
    # VM 1 and 4 belong to different users, so (1, 4) is unauthorised.
    assert sim.owners[1] != sim.owners[4]
    for t in range(3):
        sim.step(t)
    assert 1 in sim.suspended
    # After suspension the scripted link is ignored, so later intervals are clean.
    assert sim.log.reports[1].is_clean()
    assert sim.log.reports[2].is_clean()


def test_vulnerability_events_fire_under_tight_guarantee():
    sc = load_scenario("xi200")
    sc = dataclasses.replace(sc, server_bw=3000.0, guaranteed_frac=0.4, intervals=15)
    result = run(sc)
    assert sum(len(r.vulnerability) for r in result.reports) > 0


def test_high_risk_flag_follows_fixed_score():
    sc = load_scenario("xi200")
    sc = dataclasses.replace(
        sc, server_bw=3000.0, guaranteed_frac=0.4, intervals=15, vuln_score_fixed=8.0
    )
    result = run(sc)
    events = [e for r in result.reports for e in r.vulnerability]
    assert events and all(e.high_risk for e in events)


def test_trace_driven_run(tmp_path):
    lines = ["timestamp,vm_id,cpu_usage_mips,mem_usage_mb,net_bw_used"]
    rng = np.random.default_rng(2)
    for vm in ("a", "b", "c"):
        for t in range(10):
            lines.append(
                "%d,%s,%.1f,%.1f,%.1f"
                % (t, vm, rng.uniform(100, 900), rng.uniform(100, 900), rng.uniform(100, 900))
            )
    f = tmp_path / "trace.csv"
    f.write_text("\n".join(lines) + "\n")
    sc = small_scenario(intervals=5, trace_path=str(f))
    result = run(sc)
    assert len(result.metrics) == 5
    sim = Simulation(sc)
    # Rescaled trace means match nominal demand per VM.
    assert sim.usage.shape == (5, 12, 3)


def test_worker_fanout_preserves_results():
    sc = small_scenario(intervals=8)
    a = run(sc, workers=1)
    b = run(sc, workers=3)
    assert a.metrics_csv_text() == b.metrics_csv_text()
    assert a.events_csv_text() == b.events_csv_text()
    assert a.summary_text() == b.summary_text()


def test_wosc_run_log_has_static_placement_power():
    sc = small_scenario(intervals=6)
    result = run(with_policy(sc, "wosc"))
    powers = {m.pw_dc for m in result.metrics}
    assert len(powers) == 1  # no quarantine, no rebalancing: constant draw


def _output_digest(result: RunLog) -> str:
    text = result.metrics_csv_text() + result.events_csv_text()
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _xi200x10(policy: str) -> Scenario:
    return with_policy(dataclasses.replace(load_scenario("xi200"), intervals=10), policy)


@pytest.mark.parametrize(
    "sc, digest",
    [
        (dataclasses.replace(load_scenario("xi200"), intervals=10), "a643efef574c8d41"),
        (
            Scenario(servers=6, vms=12, intervals=6, window=2, seed=5, per_vm_models=True),
            "8cd4e6cfff0a8c0a",
        ),
        (_xi200x10("wosc"), "8f04d7514c73e966"),
        (_xi200x10("pssf"), "d83f671544a67037"),
        # 8 of 10 intervals overloaded, 32 hogs migrated: the only pinned
        # run that reads the clusters and moves hogs.
        (
            dataclasses.replace(_xi200x10("oscmc"), congestion_threshold_frac=0.01),
            "509728d206fbb014",
        ),
        # Forecast groups of 8, 8 and 7 VMs draw 8, 8 and 7 samples at the
        # first training pass, so groups of unequal sample count train apart.
        (
            Scenario(
                intervals=20,
                seed=4,
                vms=23,
                vm_flavors=[(500.0, 512.0, 1000.0), (1000.0, 1024.0, 1000.0), (250.0, 256.0, 400.0)],
            ),
            "895ee9e777d22c6d",
        ),
    ],
    ids=[
        "xi200x10",
        "per_vm_models",
        "xi200x10-wosc",
        "xi200x10-pssf",
        "xi200x10-overload",
        "unequal_groups",
    ],
)
def test_output_bytes_are_pinned(sc, digest):
    # Recorded before forecasting became bandwidth-only; any change to the
    # random streams or to what the scheduler reads shows up here.
    assert _output_digest(run(sc)) == digest


@pytest.mark.parametrize(
    "policy, digest, breaches, malicious_links",
    [("wosc", "aeafbcf3c11e6380", 121, 131), ("pssf", "21179eaca03f29da", 128, 138)],
)
def test_summary_bytes_are_pinned(policy, digest, breaches, malicious_links):
    # summary.txt is the only output of the breach and malicious-link counts;
    # the pinned oscmc runs realise no breach, so policies without
    # surveillance pin them.
    result = run(_xi200x10(policy))
    assert result.realized_breaches == breaches
    assert result.malicious_links_created == malicious_links
    assert hashlib.sha256(result.summary_text().encode()).hexdigest()[:16] == digest


@st.composite
def small_scenarios(draw):
    vms = draw(st.integers(1, 14))
    # Servers of 0.4 times the default size cannot host the larger default
    # flavor, so some scenarios stop at admission.
    size = draw(st.sampled_from([0.4, 1.0, 2.0, 4.0, 4.0]))
    intervals = draw(st.integers(1, 9))
    # Scripted links replace the generated ones with an arbitrary link
    # graph, whose relays may have outgoing links to other servers.
    scripted = None
    if draw(st.booleans()):
        pairs = st.tuples(st.integers(1, vms), st.integers(1, vms))
        scripted = {
            t: [(a, b) for a, b in links if a != b]
            for t, links in draw(
                st.dictionaries(
                    st.integers(0, intervals - 1), st.lists(pairs, max_size=12)
                )
            ).items()
        }
    return Scenario(
        servers=draw(st.integers(1, 6)),
        vms=vms,
        users=draw(st.none() | st.integers(1, vms)),
        malicious_user_pct=draw(st.sampled_from([0.0, 20.0, 50.0, 100.0])),
        intervals=intervals,
        seed=draw(st.integers(0, 2**16)),
        policy=draw(st.sampled_from(["oscmc", "pssf", "wosc"])),
        server_cpu=2000.0 * size,
        server_mem=2048.0 * size,
        server_bw=10000.0 * size,
        reserved_per=draw(st.integers(0, 4)),
        benign_link_rate=draw(st.floats(0.0, 1.0)),
        attack_colocated_rate=draw(st.floats(0.0, 1.0)),
        attack_remote_rate=draw(st.floats(0.0, 1.0)),
        attack_mode=draw(st.sampled_from(["steady", "burst"])),
        burst_period=draw(st.integers(1, 3)),
        cross_user_auth_rate=draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])),
        window=draw(st.integers(1, 4)),
        hidden=draw(st.integers(1, 4)),
        epochs=draw(st.integers(1, 3)),
        retrain_every=draw(st.integers(1, 3)),
        train_sample=draw(st.integers(1, 16)),
        per_vm_models=draw(st.booleans()),
        clusters=draw(st.integers(1, 4)),
        kmeans_restarts=draw(st.integers(1, 2)),
        malicious_vm_threshold=draw(st.integers(1, 3)),
        # At 0.0 any interval whose observed bandwidth exceeds its forecast
        # is overloaded, so unless placement is pinned, hogs move.
        congestion_threshold_frac=draw(st.sampled_from([0.0, 0.01, 0.10])),
        pin_placement=draw(st.booleans()),
        scripted_links=scripted,
    )


REPORT_FIELDS = (
    "colocation",
    "cascading",
    "vulnerability",
    "theta_dc",
    "malicious_vms",
    "malicious_link_set",
    "coverage",
)


def _powered(sim):
    """The servers that host a VM or are reserved for hogs."""
    return {
        sid
        for sid, server in sim.servers.items()
        if server.reserved_for_hogs or sim.placement.vms_on(sid).size
    }


def _active_ids(sim):
    """The servers ``snapshot`` counts as active, as ``metrics._active`` lists them."""
    return set(_active(sim.servers, sim.placement)[0].tolist())


def _record_powered_before_quarantine(sim):
    """Wrap ``sim._apply_quarantine`` to note the powered servers and the
    snapshot's active servers just before it, as the interval's snapshot
    saw them, by interval."""
    apply = sim._apply_quarantine
    seen = {}

    def recording(directive, t):
        seen[t] = _powered(sim), _active_ids(sim)
        apply(directive, t)

    sim._apply_quarantine = recording
    return seen


def _check_detection_against_all_live_links(sim):
    """Wrap ``sim._detect`` so every report it returns is compared, field by
    field, with the monitor run over matrices of every live link."""
    detect = sim._detect
    checked = []

    def checked_detect(t, vlams, active):
        # The engine builds a matrix only for a server with a watched link.
        assert all(vlam.links for vlam in vlams.values())
        report = detect(t, vlams, active)
        perf, thresholds = sim._perf_samples(t, active)
        oracle = build_threat_report(
            t,
            sim.placement,
            build_vlams(sim.placement, sim.live_links(), sim.servers.keys()),
            sim.ivcl,
            sim.owners,
            vms=active,
            perf=perf,
            thresholds=thresholds,
            vuln_scores={sid: s.vulnerability_score for sid, s in sim.servers.items()},
            min_links=sim.sc.malicious_vm_threshold,
        )
        for name in REPORT_FIELDS:
            assert getattr(report, name) == getattr(oracle, name), (t, name)
        checked.append(t)
        return report

    sim._detect = checked_detect
    return checked


def _check_link_queries(sim, live):
    """Each VM's outgoing key range, the relay query of detection, and the
    links a quarantine of that VM would drop, against brute force over the
    live links; no query changes the store."""
    keys = sim.link_keys.copy()
    assert len(set(live)) == len(live) == keys.size
    for vm in range(1, sim.span):
        outs = {link for link in live if link[0] == vm}
        assert set(sim.live_links(sim._links_from([vm]))) == outs
        probe = copy.copy(sim)
        probe.unauthorised = {}  # so no breach reaches sim's log
        probe._drop_links((), 0, [vm])
        assert set(live) - set(probe.live_links()) == {link for link in live if vm in link}
    relays = {relay for _, relay in sim.unauthorised}
    assert set(sim.live_links(sim._links_from(relays))) == {
        link for link in live if link[0] in relays
    }
    assert np.array_equal(sim.link_keys, keys)


@settings(max_examples=100, deadline=None)
@given(small_scenarios())
# The walkthrough always raises cascades, so the detection oracle above
# always sees a relay's outgoing links.
@example(load_scenario("illustration"))
# Trained on one sample a step, a network grows weights that saturate its
# sigmoid (exp overflows) on windows outside its training bounds.
@example(
    Scenario(
        servers=3, vms=13, malicious_user_pct=0.0, intervals=6, seed=452,
        server_cpu=4000.0, server_mem=4096.0, server_bw=20000.0, reserved_per=0,
        benign_link_rate=0.0, attack_colocated_rate=0.0, attack_remote_rate=0.0,
        cross_user_auth_rate=0.0, window=2, hidden=1, epochs=1, train_sample=1,
    )
)
# Quarantine suspends every VM, so the run stops with SimulationError.
@example(_ALL_SUSPENDED)
def test_small_scenarios_keep_link_classes_fixed_at_birth(sc):
    """Each small scenario fails validation, stops with the exit-3 errors or
    runs to completion; while it runs, the unauthorised links classified at
    birth match a fresh classification of the live links, each VM's key
    range and the quarantine's decoding pass find exactly its live links,
    and every ``oscmc`` threat report equals the one computed over every
    live link."""
    try:
        sc.validate()
    except ScenarioError:
        return
    try:
        sim = Simulation(sc)
        checked = _check_detection_against_all_live_links(sim)
        before_quarantine = _record_powered_before_quarantine(sim)
        for t in range(sc.intervals):
            sim.step(t)
            m = sim.log.metrics[-1]
            # Quarantine runs after the snapshot and may empty a server.
            if t in before_quarantine:
                powered, active = before_quarantine.pop(t)
            else:
                powered, active = _powered(sim), _active_ids(sim)
            assert m.active_server_count == len(powered)
            assert active == powered
            live = sim.live_links()
            assert sim.unauthorised.keys() == {
                link for link in live if classify_link(link, sim.ivcl)
            }
            assert all(0 <= born <= t for born in sim.unauthorised.values())
            assert not any(v in sim.suspended for link in live for v in link)
            alive = [vm for vm in sim.benign_vm_ids.tolist() if vm not in sim.suspended]
            assert sim.benign_alive.tolist() == alive
            _check_link_queries(sim, live)
            if sc.policy != "oscmc":
                # oscmc's quarantine drops links after the snapshot.
                assert sim.log.metrics[-1].authorized_link_pct == authorized_link_pct(
                    live, sim.ivcl
                )
    except (SimulationError, PlacementInfeasibleError):
        return
    result = sim.finish()
    assert not sim.unauthorised
    assert len(result.metrics) == sc.intervals
    assert len(checked) == (sc.intervals if sc.policy == "oscmc" else 0)


@pytest.mark.parametrize(
    "threshold, pinned, calls",
    [(0.10, False, 0), (0.01, False, 8), (0.01, True, 0)],
    ids=["default", "overload", "overload-pinned"],
)
def test_kmeans_runs_only_when_an_overload_reads_it(monkeypatch, threshold, pinned, calls):
    kmeans, detect_congestion = oscmc.engine.kmeans, oscmc.engine.detect_congestion
    clustered, overloaded = [], []

    def counting_kmeans(*args, **kwargs):
        clustered.append(args)
        return kmeans(*args, **kwargs)

    def counting_congestion(*args, **kwargs):
        state = detect_congestion(*args, **kwargs)
        overloaded.append(state.value == 1)
        return state

    monkeypatch.setattr(oscmc.engine, "kmeans", counting_kmeans)
    monkeypatch.setattr(oscmc.engine, "detect_congestion", counting_congestion)
    sc = dataclasses.replace(
        _xi200x10("oscmc"), congestion_threshold_frac=threshold, pin_placement=pinned
    )
    run(sc)
    assert len(clustered) == calls
    assert sum(overloaded) == (0 if threshold == 0.10 else 8)


def test_consolidation_tries_each_new_placement_state_once(monkeypatch):
    """On xi200 at seed 7 (50 intervals) consolidation lists the placed VMs
    once per underloaded interval on a new placement state, and once more
    after each drain.  A repeat is an underloaded interval whose placement
    is the object the last underloaded interval left, unchanged, after that
    interval drained nothing: 21 of the 26, leaving 5 trials."""
    calls = {"underloaded": 0, "repeats": 0, "drains": 0, "listings": 0}
    last = None  # (placement, its placed VMs and rows) of a call that drained nothing
    rebalance, listing = oscmc.engine.rebalance, oscmc.allocator._listing

    def spy_rebalance(state, placement, *args, **kwargs):
        nonlocal last
        result = rebalance(state, placement, *args, **kwargs)
        if state == -1:
            placed = placement.placed()
            key = (placement, placed.tolist(), placement.host_rows(placed).tolist())
            calls["underloaded"] += 1
            calls["repeats"] += last is not None and last[0] is placement and last[1:] == key[1:]
            calls["drains"] += len(result.emptied_servers)
            last = None if result.emptied_servers else key
        return result

    def spy_listing(placement):
        calls["listings"] += 1
        return listing(placement)

    monkeypatch.setattr(oscmc.engine, "rebalance", spy_rebalance)
    monkeypatch.setattr(oscmc.allocator, "_listing", spy_listing)
    run(dataclasses.replace(load_scenario("xi200"), intervals=50, seed=7))
    trials = calls["underloaded"] - calls["repeats"]
    assert calls["listings"] == trials + calls["drains"]
    assert (calls["underloaded"], calls["repeats"], trials) == (26, 21, 5)


def test_one_bandwidth_model_per_forecast_group():
    assert len(Simulation(small_scenario()).models) == 2
    assert len(Simulation(small_scenario(per_vm_models=True)).models) == 12
    assert Simulation(with_policy(small_scenario(), "wosc")).models == {}


def test_suspended_benign_vm_leaves_the_kept_benign_list():
    """Only scripted links let a benign VM source an unauthorised link; its
    suspension removes it from the list the attack generator reads."""
    sc = small_scenario(
        malicious_user_pct=0.0, cross_user_auth_rate=0.0, scripted_links={0: [(1, 12)]}
    )
    sim = Simulation(sc)
    assert sim.owners[1] != sim.owners[12]
    sim.step(0)
    assert sim.suspended == {1}
    assert sim.benign_alive.tolist() == list(range(2, 13))
    rngs = [np.random.default_rng(5) for _ in range(2)]
    links = [
        inject_malicious_behavior(
            1, sim.placement, [2, 5], sim.benign_vm_ids, sim.suspended, 1.0, 1.0, rng, **kept
        )
        for rng, kept in zip(rngs, ({}, {"kept": sim.benign_alive}))
    ]
    assert np.array_equal(links[0], links[1]) and links[0].size


def reference_perf_samples(sim, t, active):
    """The per-VM loop that ``Simulation._perf_samples`` replaced."""
    perf = {}
    thresholds = {}
    load = {}
    for vm in active:
        sid = sim.placement.server_of(vm)
        load[sid] = load.get(sid, 0.0) + sim.usage[t, vm - 1, 2]
    for vm in active:
        sid = sim.placement.server_of(vm)
        cap = sim.servers[sid].capacity.bw
        scale = 1.0 if load[sid] <= cap or load[sid] == 0 else cap / load[sid]
        delivered = sim.usage[t, vm - 1, 2] * scale
        nominal = sim.vms[vm].demand.bw
        frac = delivered / nominal if nominal > 0 else 1.0
        perf[vm] = (frac, delivered)
        g = sim.vms[vm].guaranteed
        thresholds[vm] = (g.tp_min, g.bw_min)
    return perf, thresholds


def _bits(samples):
    return {vm: tuple(float(x).hex() for x in pair) for vm, pair in samples.items()}


bandwidths = st.just(0.0) | st.sampled_from([1.0, 250.5, 1000.0]) | st.floats(0.0, 1e4)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 10),
    st.lists(st.sampled_from([0.0, 1.0, 250.5, 1000.0]), min_size=1, max_size=3),
    st.sampled_from([1.0, 2500.0, 10000.0]),
    st.sampled_from([0.0, 0.1, 1.0]),
    st.data(),
)
def test_array_perf_samples_equal_per_vm_loop(vms, flavor_bws, server_bw, frac, data):
    """Server loads summed by ``np.bincount`` and the scaled deliveries
    equal the per-VM loop bit for bit, over any subset and order of the
    placed VMs: servers over their bandwidth (load > capacity), servers with
    no load, and VMs of zero nominal bandwidth among them."""
    sc = Scenario(
        servers=10,
        vms=vms,
        intervals=2,
        policy="wosc",
        server_cpu=1000.0,
        server_mem=1000.0,
        server_bw=server_bw,
        vm_flavors=[(100.0, 100.0, bw) for bw in flavor_bws],
        guaranteed_frac=frac,
        seed=data.draw(st.integers(0, 2**16)),
    )
    try:
        sim = Simulation(sc)
    except (SimulationError, PlacementInfeasibleError):
        return
    sim.usage[:, :, 2] = data.draw(
        st.lists(bandwidths, min_size=2 * vms, max_size=2 * vms)
        .map(lambda xs: np.array(xs).reshape(2, vms))
    )
    placed = data.draw(st.permutations(sorted(sim.placement.vm_ids)))
    active = placed[: data.draw(st.integers(0, len(placed)))]
    # The engine passes an int array; a list of ids works alike.
    ids = np.array(active, dtype=np.intp) if data.draw(st.booleans()) else active
    for t in range(2):
        perf, thresholds = sim._perf_samples(t, ids)
        want_perf, want_thresholds = reference_perf_samples(sim, t, active)
        assert perf.shape == thresholds.shape == (len(active), 2)
        assert _bits(dict(zip(active, perf.tolist()))) == _bits(want_perf)
        assert dict(zip(active, map(tuple, thresholds.tolist()))) == want_thresholds


class _DictLinks:
    """The per-link loop the sorted key store replaced: live links with their
    birth interval, the unauthorised set, and a breach counted when an
    unauthorised link live since an earlier interval is dropped."""

    def __init__(self, ivcl):
        self.ivcl, self.live, self.unauthorised = ivcl, {}, set()
        self.created = self.breaches = 0

    def add(self, checked, authorised, t):
        for i, ends in enumerate(checked + authorised):
            if ends in self.live:
                continue
            self.live[ends] = t
            if i < len(checked) and classify_link(ends, self.ivcl):
                self.unauthorised.add(ends)
                self.created += 1

    def drop(self, ends, t):
        born = self.live.pop(ends, None)
        if ends in self.unauthorised:
            self.unauthorised.remove(ends)
            if t - born >= 1:
                self.breaches += 1

    def quarantine(self, terminate, suspend, t):
        for ends in sorted(terminate):
            self.drop(ends, t)
        for vm in suspend:
            for ends in [link for link in self.live if vm in link]:
                self.drop(ends, t)


def _assert_same_links(sim, ref):
    assert sorted(sim.live_links()) == sorted(ref.live)
    assert sim.unauthorised == {link: ref.live[link] for link in ref.unauthorised}
    assert sim.log.malicious_links_created == ref.created
    assert sim.log.realized_breaches == ref.breaches


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_array_link_insert_equals_per_link_dict_loop(data):
    """Batches of scripted links (self-links, links of suspended VMs,
    repeats within the batch and links already live) and authorised links
    go in through the key store as through the old dict loop, with the same
    live links, births of unauthorised links, link count and breaches,
    through quarantines (terminating live and other links) and the final
    drop."""
    sc = small_scenario(policy="wosc", cross_user_auth_rate=0.2, scripted_links={})
    sim = Simulation(sc)
    ref = _DictLinks(sim.ivcl)
    vms = st.sampled_from(range(1, sc.vms + 1))
    for t in range(data.draw(st.integers(1, sc.intervals))):
        live = sorted(ref.live)
        pick = st.tuples(vms, vms) | (st.sampled_from(live) if live else st.nothing())
        batch = data.draw(st.lists(pick, max_size=12))
        if batch:
            batch += data.draw(st.lists(st.sampled_from(batch), max_size=4))
        batch = data.draw(st.permutations(batch))
        grants = [
            (a, b)
            for a in range(1, sc.vms + 1)
            for b in sorted(sim.ivcl.authorized_dsts(a))
            if a not in sim.suspended and b not in sim.suspended
        ]
        authorised = data.draw(st.lists(st.sampled_from(grants), max_size=12)) if grants else []
        sim.sc = dataclasses.replace(sc, scripted_links={t: batch})
        checked, none = sim._new_links(t)
        assert none.shape == (0, 2)
        sim._add_links(checked, np.array(authorised, dtype=np.intp).reshape(-1, 2), t)
        ref.add(
            [(s, d) for s, d in batch if s not in sim.suspended and d not in sim.suspended],
            authorised,
            t,
        )
        _assert_same_links(sim, ref)
        if data.draw(st.booleans()):
            # Quarantine terminates live links; a link not live is passed over.
            terminate = data.draw(st.sets(pick, max_size=6))
            unsuspended = [v for v in range(1, sc.vms + 1) if v not in sim.suspended]
            suspend = data.draw(st.sets(st.sampled_from(unsuspended), max_size=2))
            sim._apply_quarantine(QuarantineDirective(terminate, suspend), t)
            ref.quarantine(terminate, suspend, t)
            _assert_same_links(sim, ref)
    sim.finish()
    for ends in list(ref.unauthorised):
        ref.drop(ends, sc.intervals - 1)
    _assert_same_links(sim, ref)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40).flatmap(lambda v: st.tuples(st.just(v), st.integers(1, v))))
def test_population_follows_the_array_split_of_vm_ids(vms_users):
    """Users own consecutive chunks of VM ids as ``np.array_split`` cuts
    them; each VM's guarantee is its flavor's, and the hostile and benign id
    arrays follow the owners' truth labels."""
    vms, users = vms_users
    sim = Simulation(small_scenario(servers=vms, vms=vms, users=users, malicious_user_pct=30.0))
    chunks = np.array_split(np.arange(1, vms + 1), users)
    owner = {vm: uid for uid, chunk in enumerate(chunks, 1) for vm in chunk.tolist()}
    assert sim.owners == owner
    assert {uid: u.vm_ids for uid, u in sim.users.items()} == {
        uid: set(chunk.tolist()) for uid, chunk in enumerate(chunks, 1)
    }
    hostile = [vm for vm in range(1, vms + 1) if sim.users[owner[vm]].is_malicious_truth]
    assert sim.malicious_vm_ids.tolist() == hostile
    assert sim.benign_vm_ids.tolist() == sorted(set(range(1, vms + 1)) - set(hostile))
    frac = sim.sc.guaranteed_frac
    for vm_id, vm in sim.vms.items():
        assert vm.owner == owner[vm_id]
        assert vm.guaranteed == GuaranteedThreshold(frac, frac * vm.demand.bw)
        assert sim.guarantees[vm_id - 1].tolist() == [frac, frac * vm.demand.bw]


_STEPS = ["assign", "assign_rows", "move", "remove", "copy", "kept", "hostile"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=5, unique=True), st.data())
def test_derived_placement_state_is_never_stale(server_ids, data):
    """After any sequence of placement mutations, copies and changes to the
    attacker and kept-VM arrays (replaced, or changed in place), the
    snapshot and the attack generator on a placement equal a cold
    computation on a fresh placement of the same VMs.  Servers have sparse,
    unsorted ids; two placements, one a copy of the other, are read
    alternately through one ``Fleet``."""
    draw = data.draw
    servers = {
        sid: Server(sid, ResourceVector(4.0, 4.0, 4.0), reserved_for_hogs=draw(st.booleans()))
        for sid in server_ids
    }
    demands = [ResourceVector(1.0, 1.0, 1.0), ResourceVector(2.0, 1.0, 3.0)]
    vm_ids = list(range(12))
    demand = {vm: draw(st.sampled_from(demands)) for vm in vm_ids}
    placements = [Placement(servers)]
    placements.append(placements[0].copy())
    fleet = Fleet(servers, placements[0])
    subsets = st.lists(st.sampled_from(vm_ids), max_size=8, unique=True)
    hostile = np.array(draw(subsets), dtype=np.intp)
    kept = np.array(draw(subsets), dtype=np.intp)

    for step in range(draw(st.integers(1, 25))):
        which = draw(st.sampled_from([0, 1]))
        p = placements[which]
        placed = p.placed().tolist()
        unplaced = [vm for vm in vm_ids if vm not in placed]
        kind = draw(st.sampled_from(_STEPS))
        try:
            if kind == "assign" and unplaced:
                vm = draw(st.sampled_from(unplaced))
                p.assign(vm, demand[vm], draw(st.sampled_from(server_ids)))
            elif kind == "assign_rows" and unplaced:
                vms = draw(st.lists(st.sampled_from(unplaced), min_size=1, unique=True))
                sids = [draw(st.sampled_from(server_ids)) for _ in vms]
                units = [oscmc.model.to_units(demand[vm]) for vm in vms]
                p.assign_rows(vms, units, p.rows(sids))
            elif kind == "move" and placed:
                vm = draw(st.sampled_from(placed))
                own = p.server_of(vm)
                p.move(vm, own if draw(st.booleans()) else draw(st.sampled_from(server_ids)))
            elif kind == "remove" and placed:
                p.remove(draw(st.sampled_from(placed)))
            elif kind == "copy":
                # The copy takes the other slot; later steps mutate either.
                placements[1 - which] = p.copy()
            elif kind in ("kept", "hostile"):
                arr = kept if kind == "kept" else hostile
                others = [vm for vm in vm_ids if vm not in arr.tolist()]
                if draw(st.booleans()) or not (arr.size and others):
                    arr = np.array(draw(subsets), dtype=np.intp)  # replaced
                else:
                    arr[draw(st.integers(0, arr.size - 1))] = draw(st.sampled_from(others))
                kept, hostile = (arr, hostile) if kind == "kept" else (kept, arr)
        except CapacityError:
            pass
        for p in placements[::1 if step % 2 else -1]:
            reads = (servers, fleet, hostile, kept, draw(st.sampled_from(["mean", "cpu"])),
                     draw(st.integers(0, 2**32 - 1)))
            assert _derived_reads(p, *reads) == _derived_reads(_rebuilt(p, servers), *reads)


def _rebuilt(p, servers):
    """A new placement of the same VMs on the same servers, built without ``copy``."""
    q = Placement(servers)
    vms = p.placed()
    q.assign_rows(vms.tolist(), p.demand_units_array(vms), p.host_rows(vms))
    return q


def _derived_reads(p, servers, fleet, hostile, kept, mode, seed):
    """A snapshot of ``p`` (None when no server is powered) and its attack
    links for one seed, as lists."""
    try:
        metrics = snapshot(0, servers, p, [], [], 0, 0, power_mode=mode, fleet=fleet)
    except EmptyDataCenterError:
        metrics = None
    rng = np.random.default_rng(seed)
    links = inject_malicious_behavior(0, p, hostile, kept, set(), 1.0, 1.0, rng, kept=kept)
    return metrics, links.tolist()
