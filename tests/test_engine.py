"""Simulation-engine tests: construction, invariants and policy contracts."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from oscmc.metrics import METRICS_CSV_HEADER, authorized_link_pct
from oscmc.model import Placement, ResourceVector, Server
from oscmc.monitor import build_threat_report, build_vlams, classify_link
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
    assert a.malicious_vm_ids == b.malicious_vm_ids
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
    assert sim.malicious_vm_ids == [8, 9, 10, 11]


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
        for src, dst in sim.live:
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
    b.malicious_vm_ids = list(a.malicious_vm_ids)
    b.benign_vm_ids = list(a.benign_vm_ids)
    for t in range(sc.intervals):
        a.step(t)
        b.step(t)
        ra, rb = a.log.reports[t], b.log.reports[t]
        assert ra.malicious_vms == rb.malicious_vms
        assert ra.colocation == rb.colocation


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
    ids=["xi200x10", "per_vm_models", "xi200x10-wosc", "xi200x10-pssf", "unequal_groups"],
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


def _check_detection_against_all_live_links(sim):
    """Wrap ``sim._detect`` so every report it returns is compared, field by
    field, with the monitor run over matrices of every live link."""
    detect = sim._detect
    checked = []

    def checked_detect(t, vlams, active):
        report = detect(t, vlams, active)
        perf, thresholds = sim._perf_samples(t, active)
        oracle = build_threat_report(
            t,
            sim.placement,
            build_vlams(sim.placement, list(sim.live), sim.servers.keys()),
            sim.ivcl,
            sim.owners,
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


@settings(max_examples=100, deadline=None)
@given(small_scenarios())
# The walkthrough always raises cascades, so the detection oracle above
# always sees a relay's outgoing links.
@example(load_scenario("illustration"))
def test_small_scenarios_keep_link_classes_fixed_at_birth(sc):
    """Each small scenario fails validation, stops with the exit-3 errors or
    runs to completion; while it runs, the unauthorised set classified at
    birth matches a fresh classification of the live links, the live-link
    adjacency matches the live links, and every ``oscmc`` threat report
    equals the one computed over every live link."""
    try:
        sc.validate()
    except ScenarioError:
        return
    try:
        sim = Simulation(sc)
        checked = _check_detection_against_all_live_links(sim)
        for t in range(sc.intervals):
            sim.step(t)
            assert sim.unauthorised == {
                link for link in sim.live if classify_link(link, sim.ivcl)
            }
            assert not any(v in sim.suspended for link in sim.live for v in link)
            alive = [vm for vm in sim.benign_vm_ids if vm not in sim.suspended]
            assert sim.benign_alive == (alive, set(alive))
            outs, ins = {}, {}
            if sc.policy == "oscmc":
                for src, dst in sim.live:
                    outs.setdefault(src, set()).add(dst)
                    ins.setdefault(dst, set()).add(src)
            assert {vm: peers for vm, peers in sim.outs.items() if peers} == outs
            assert {vm: peers for vm, peers in sim.ins.items() if peers} == ins
            if sc.policy != "oscmc":
                # oscmc's quarantine drops links after the snapshot.
                assert sim.log.metrics[-1].authorized_link_pct == authorized_link_pct(
                    sim.live, sim.ivcl
                )
    except (SimulationError, PlacementInfeasibleError):
        return
    result = sim.finish()
    assert not sim.unauthorised
    assert len(result.metrics) == sc.intervals
    assert len(checked) == (sc.intervals if sc.policy == "oscmc" else 0)


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
    alive = list(range(2, 13))
    assert sim.benign_alive == (alive, set(alive))
    rngs = [np.random.default_rng(5) for _ in range(2)]
    links = [
        inject_malicious_behavior(
            1, sim.placement, [2, 5], sim.benign_vm_ids, sim.suspended, 1.0, 1.0, rng, **kept
        )
        for rng, kept in zip(rngs, ({}, {"kept": sim.benign_alive}))
    ]
    assert links[0] == links[1] and links[0]


def reference_perf_samples(sim, t, active):
    """The per-VM loop that ``Simulation._perf_samples`` replaced."""
    perf = {}
    thresholds = {}
    load = {}
    for vm in active:
        sid = sim.placement.server_of(vm)
        load[sid] = load.get(sid, 0.0) + sim.usage[t, sim.vm_index[vm], 2]
    for vm in active:
        sid = sim.placement.server_of(vm)
        cap = sim.servers[sid].capacity.bw
        scale = 1.0 if load[sid] <= cap or load[sid] == 0 else cap / load[sid]
        delivered = sim.usage[t, sim.vm_index[vm], 2] * scale
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
    for t in range(2):
        perf, thresholds = sim._perf_samples(t, active)
        want_perf, want_thresholds = reference_perf_samples(sim, t, active)
        assert list(perf) == list(want_perf)
        assert _bits(perf) == _bits(want_perf)
        assert thresholds == want_thresholds
