"""Link-surveillance tests with brute-force oracles."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oscmc
import oscmc.monitor as monitor
from oscmc.model import Placement, ResourceVector, Server
from oscmc.monitor import (
    CascadingEvent,
    ColocationEvent,
    IncompleteTelemetryError,
    Ivcl,
    ThreatReport,
    UndefinedCoverageError,
    UnregisteredVmError,
    aggregate_breaches,
    all_malicious_links,
    attack_coverage,
    build_threat_report,
    build_vlams,
    cascading_victim_fraction,
    classify_link,
    colocation_server_fraction,
    detect_cascading,
    detect_colocation,
    detect_vulnerability,
    events_csv_rows,
    identify_malicious_vms,
    malicious_links,
    observed_links,
    quarantine,
)


def make_placement(assignments, n_servers):
    """assignments: {vm: server}; capacity is never binding here."""
    servers = {
        sid: Server(sid, ResourceVector(1e9, 1e9, 1e9))
        for sid in range(1, n_servers + 1)
    }
    p = Placement(servers)
    for vm, sid in sorted(assignments.items()):
        p.assign(vm, ResourceVector(1.0, 1.0, 1.0), sid)
    return p


def random_instance(rng):
    """Random placement, authorised-link log and observed link set."""
    n_vms = int(rng.integers(2, 13))
    n_servers = int(rng.integers(1, 5))
    assignments = {
        vm: int(rng.integers(1, n_servers + 1)) for vm in range(1, n_vms + 1)
    }
    placement = make_placement(assignments, n_servers)
    ivcl = Ivcl()
    for vm in range(1, n_vms + 1):
        ivcl.register(vm)
    pairs = [(a, b) for a in range(1, n_vms + 1) for b in range(1, n_vms + 1) if a != b]
    for a, b in pairs:
        if rng.random() < 0.3:
            ivcl.grant(a, b)
    links = {pairs[i] for i in rng.choice(len(pairs), size=min(len(pairs), 14), replace=False)}
    vlams = build_vlams(placement, links, placement.server_ids)
    return placement, ivcl, links, vlams


def test_ivcl_register_grant_and_errors():
    ivcl = Ivcl()
    ivcl.register(1)
    ivcl.grant(1, 2)
    assert ivcl.is_authorized(1, 2)
    assert not ivcl.is_authorized(2, 1)  # authorisation is directed
    assert ivcl.authorized_dsts(1) == frozenset({2})
    with pytest.raises(ValueError):
        ivcl.grant(3, 3)
    with pytest.raises(UnregisteredVmError):
        ivcl.authorized_dsts(9)
    with pytest.raises(UnregisteredVmError):
        ivcl.is_authorized(1, 9)
    with pytest.raises(ValueError):
        ivcl.register(-1)  # rows are indexed by VM id
    ivcl.register(7)
    indptr, keys, span = ivcl.row_keys()  # the grant 1 -> 2 keyed 1 * span + 2, by id
    assert (indptr.tolist(), keys.tolist(), span) == ([0, 0, 1, 1, 1, 1, 1, 1, 1], [10], 8)


def test_ivcl_copy_is_independent():
    ivcl = Ivcl()
    ivcl.grant(1, 2)
    ivcl.register(3)
    clone = ivcl.copy()
    clone.grant(1, 3)
    assert clone.is_authorized(1, 3)
    assert not ivcl.is_authorized(1, 3)


# Small ids, ids whose keys need int64 (past 46340), and negative ids.
_ids = st.integers(0, 12) | st.sampled_from([46339, 46341, 10**6]) | st.integers(-2, -1)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("register"), _ids),
        st.tuples(st.just("grant"), _ids, _ids),
        st.tuples(st.just("grant"), _ids, _ids),
        st.tuples(st.just("csr")),
        st.tuples(st.just("authorized"), st.lists(st.tuples(_ids, _ids), max_size=6)),
        st.tuples(st.just("row_keys")),
        st.tuples(st.just("copy")),
    ),
    max_size=40,
)


def _check_against_pairs(ivcl, registered, pairs):
    """``ivcl``'s rows, key dtype and row spans equal the reference sets."""
    ids, indptr, indices = ivcl.csr()
    assert ids.dtype == indptr.dtype == np.int64
    assert ids.tolist() == sorted(registered)
    rows = [sorted(d for s, d in pairs if s == vm) for vm in ids.tolist()]
    assert np.diff(indptr).tolist() == [len(r) for r in rows]
    assert indices.tolist() == [d for r in rows for d in r]
    span = 1 + max(registered, default=0)
    assert ivcl.row_keys()[1].dtype == Ivcl.key_dtype(span)
    assert ivcl.row_keys()[2] == span


@settings(max_examples=300, deadline=None)
@given(_ops)
def test_grant_by_grant_log_equals_a_set_of_pairs(ops):
    """Registrations, grants (duplicates, self-links, negative ids, rows
    already merged, ids past the span) and queries interleaved: every answer
    equals that of a set of registered ids and a set of (src, dst) pairs, and
    a copy is unchanged by what its original is granted later."""
    ivcl, registered, pairs, copies = Ivcl(), set(), set(), []
    for op, *args in ops:
        if op == "register":
            (vm,) = args
            if vm < 0:
                with pytest.raises(ValueError, match="VM ids must be non-negative, got %d" % vm):
                    ivcl.register(vm)
            else:
                ivcl.register(vm)
                registered.add(vm)
        elif op == "grant":
            src, dst = args
            if src == dst:
                with pytest.raises(ValueError, match="cannot authorise a self-link"):
                    ivcl.grant(src, dst)
            elif min(src, dst) < 0:
                with pytest.raises(ValueError, match="got %d" % (src if src < 0 else dst)):
                    ivcl.grant(src, dst)
                if src >= 0:
                    registered.add(src)
            else:
                ivcl.grant(src, dst)
                registered |= {src, dst}
                pairs.add((src, dst))
        elif op == "csr":
            _check_against_pairs(ivcl, registered, pairs)
        elif op == "authorized":
            links = [(a, b) for a, b in args[0] if a in registered and b in registered]
            src, dst = [a for a, _ in links], [b for _, b in links]
            assert ivcl.authorized(src, dst).tolist() == [l in pairs for l in links]
            unknown = [(a, b) for a, b in args[0] if {a, b} - registered]
            for a, b in unknown:
                with pytest.raises(UnregisteredVmError):
                    ivcl.authorized([a], [b])
        elif op == "row_keys":
            # keys[indptr[v]:indptr[v + 1]] - v * span are v's destinations for
            # every id v below span, an empty slot for an unregistered id.
            indptr, keys, span = ivcl.row_keys()
            assert indptr.size == span + 1 and indptr[0] == 0 and indptr[-1] == keys.size
            src = np.repeat(np.arange(span), np.diff(indptr))  # id of each key's slot
            assert src.tolist() == [s for s, _ in sorted(pairs)]
            assert (keys - src * span).tolist() == [d for _, d in sorted(pairs)]
        else:
            copies.append((ivcl, set(registered), set(pairs)))
            ivcl = ivcl.copy()
    _check_against_pairs(ivcl, registered, pairs)
    for log, were_registered, were_pairs in copies:
        _check_against_pairs(log, were_registered, were_pairs)


def test_log_build_and_runs_leave_numpy_ma_unimported():
    """A plain ``np.unique`` or ``np.union1d`` imports ``numpy.ma`` (about
    1 MB) on its first call; neither the log's merge nor a few intervals of
    any policy make one, nor a set-up past the overlap gate (1100 VMs by 15
    intervals, 16,500 usage values), whose helper thread builds the usage
    and then shares the log's draw."""
    code = (
        "import dataclasses, sys\n"
        "from oscmc.engine import Simulation\n"
        "from oscmc.monitor import Ivcl\n"
        "from oscmc.scenario import load_scenario\n"
        "log = Ivcl()\n"
        "log.grant(3, 1); log.grant(1, 3); log.grant(3, 1)\n"
        "log.csr()\n"
        "for policy in ('oscmc', 'pssf', 'wosc'):\n"
        "    sc = dataclasses.replace(load_scenario('xi200'), policy=policy, intervals=3)\n"
        "    sim = Simulation(sc)\n"
        "    for t in range(sc.intervals):\n"
        "        sim.step(t)\n"
        "Simulation(dataclasses.replace(load_scenario('xi1100'), intervals=15)).step(0)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(oscmc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    assert out.stdout.split() == ["False"]


def test_classify_link_values():
    ivcl = Ivcl()
    ivcl.grant(1, 2)
    assert classify_link((1, 2), ivcl) == 0
    assert classify_link((2, 1), ivcl) == 1


def test_build_vlams_records_link_on_both_end_hosts():
    placement = make_placement({1: 1, 2: 2, 3: 1}, 2)
    vlams = build_vlams(placement, [(1, 2), (1, 3)], [1, 2])
    assert (1, 2) in vlams[1].links and (1, 2) in vlams[2].links
    assert (1, 3) in vlams[1].links and (1, 3) not in vlams[2].links
    assert observed_links(vlams) == {(1, 2), (1, 3)}


def test_detect_colocation_matches_pairwise_oracle():
    rng = np.random.default_rng(202)
    for _ in range(300):
        placement, ivcl, links, vlams = random_instance(rng)
        got = {(e.server, e.src, e.dst) for e in detect_colocation(placement, vlams, ivcl)}
        want = {
            (placement.server_of(a), a, b)
            for a, b in links
            if placement.server_of(a) == placement.server_of(b)
            and not ivcl.is_authorized(a, b)
        }
        assert got == want


def test_detect_cascading_matches_triple_oracle():
    rng = np.random.default_rng(203)
    for _ in range(300):
        placement, ivcl, links, vlams = random_instance(rng)
        got = {
            (e.src, e.relay, e.dst, e.src_server, e.dst_server)
            for e in detect_cascading(placement, vlams, ivcl)
        }
        want = set()
        for a, b in links:
            sa, sb = placement.server_of(a), placement.server_of(b)
            if sa != sb or ivcl.is_authorized(a, b):
                continue
            for c, d in links:
                if c != b:
                    continue
                sd = placement.server_of(d)
                if sd is not None and sd != sa:
                    want.add((a, b, d, sa, sd))
        assert got == want


def test_malicious_links_match_set_difference_oracle():
    rng = np.random.default_rng(204)
    for _ in range(300):
        placement, ivcl, links, vlams = random_instance(rng)
        grouped = all_malicious_links(vlams, ivcl)
        want = {}
        for a, b in links:
            if not ivcl.is_authorized(a, b):
                want.setdefault(a, set()).add((a, b))
        assert grouped == want
        for vm in sorted(placement.vm_ids):
            assert malicious_links(vm, vlams, ivcl) == want.get(vm, set())


def test_identify_malicious_vms_threshold():
    placement = make_placement({1: 1, 2: 1, 3: 1}, 1)
    ivcl = Ivcl()
    for vm in (1, 2, 3):
        ivcl.register(vm)
    vlams = build_vlams(placement, [(1, 2), (1, 3), (2, 3)], [1])
    assert identify_malicious_vms(vlams, ivcl, min_links=1) == {1, 2}
    assert identify_malicious_vms(vlams, ivcl, min_links=2) == {1}
    with pytest.raises(ValueError):
        identify_malicious_vms(vlams, ivcl, min_links=0)


def test_malicious_links_unregistered_vm_raises():
    placement = make_placement({1: 1}, 1)
    ivcl = Ivcl()
    ivcl.register(1)
    vlams = build_vlams(placement, [], [1])
    with pytest.raises(UnregisteredVmError):
        malicious_links(42, vlams, ivcl)


def test_detect_vulnerability_requires_both_indicators_strictly():
    placement = make_placement({1: 1, 2: 1, 3: 1, 4: 1}, 1)
    thresholds = np.array([(0.1, 100.0)] * 4)
    perf = np.array(
        [
            (0.05, 50.0),   # VM 1: both below -> event
            (0.1, 50.0),    # VM 2: throughput at threshold -> no event
            (0.05, 100.0),  # VM 3: bandwidth at threshold -> no event
            (0.5, 500.0),   # VM 4: healthy
        ]
    )
    events = detect_vulnerability([1, 2, 3, 4], perf, thresholds, placement, {1: 3.0})
    assert [(e.vm, e.server, e.high_risk) for e in events] == [(1, 1, False)]


def test_detect_vulnerability_high_risk_flag():
    placement = make_placement({1: 1, 2: 2}, 2)
    thresholds = np.array([(0.1, 100.0), (0.1, 100.0)])
    perf = np.zeros((2, 2))
    events = detect_vulnerability([1, 2], perf, thresholds, placement, {1: 7.0, 2: 6.9})
    flags = {e.vm: e.high_risk for e in events}
    assert flags == {1: True, 2: False}


def test_detect_vulnerability_orders_by_vm_and_skips_unplaced_samples():
    """Rows may come in any order; events follow VM ids, and a sample of a
    VM that is not placed raises nothing."""
    placement = make_placement({1: 1, 2: 2, 3: 1}, 2)
    perf = np.zeros((4, 2))
    thresholds = np.ones((4, 2))
    events = detect_vulnerability([3, 9, 1, 2], perf, thresholds, placement, {})
    assert [(e.vm, e.server) for e in events] == [(1, 1), (2, 2), (3, 1)]
    assert detect_vulnerability([], np.empty((0, 2)), np.empty((0, 2)), make_placement({}, 1), {}) == []


def test_detect_vulnerability_incomplete_telemetry():
    placement = make_placement({1: 1, 2: 1}, 1)
    with pytest.raises(IncompleteTelemetryError, match="VM 2"):
        detect_vulnerability([1], np.ones((1, 2)), np.full((1, 2), 0.1), placement, {})


def test_aggregate_breaches_attributes_victim_owner():
    owners = [10, 20, 30]  # the owner of VM v at v - 1
    col = [ColocationEvent(1, 1, 2)]
    cas = [CascadingEvent(1, 2, 3, 1, 2)]
    from oscmc.monitor import VulnerabilityEvent

    vul = [VulnerabilityEvent(2, 1, False)]
    totals = aggregate_breaches(col, cas, vul, owners)
    assert totals == {20: 2, 30: 1}


def test_attack_coverage_unions_links_over_reports():
    owners = [5, 5, 6]
    r1 = ThreatReport(interval=0, malicious_link_set={(1, 3), (2, 3)})
    r2 = ThreatReport(interval=1, malicious_link_set={(1, 3), (3, 1)})
    assert attack_coverage(5, owners, [r1, r2]) == pytest.approx(1.0)
    assert attack_coverage(6, owners, [r1, r2]) == pytest.approx(1.0)
    with pytest.raises(UndefinedCoverageError):
        attack_coverage(99, owners, [r1])


def test_build_threat_report_collects_everything():
    placement = make_placement({1: 1, 2: 1, 3: 2}, 2)
    ivcl = Ivcl()
    for vm in (1, 2, 3):
        ivcl.register(vm)
    ivcl.grant(2, 3)
    owners = [7, 8, 8]
    links = [(1, 2), (2, 3)]
    vlams = build_vlams(placement, links, [1, 2])
    report = build_threat_report(4, placement, vlams, ivcl, owners)
    assert report.interval == 4
    assert [(e.server, e.src, e.dst) for e in report.colocation] == [(1, 1, 2)]
    assert [(e.src, e.relay, e.dst) for e in report.cascading] == [(1, 2, 3)]
    assert report.malicious_vms == {1}
    assert report.malicious_link_set == {(1, 2)}
    assert report.theta_dc == {8: 2}
    assert report.coverage == {7: 1.0}
    assert report.total_events() == 2
    assert not report.is_clean()


@st.composite
def _monitor_instances(draw):
    """Criterion 4's instances, drawn: 2-12 VMs on 1-4 servers, some left
    unplaced, a log of some ordered pairs and up to 14 observed links."""
    n_vms, n_servers = draw(st.integers(2, 12)), draw(st.integers(1, 4))
    hosts = draw(st.lists(st.none() | st.integers(1, n_servers), min_size=n_vms, max_size=n_vms))
    placement = make_placement({vm: sid for vm, sid in enumerate(hosts, 1) if sid}, n_servers)
    ids = range(1, n_vms + 1)
    pairs = st.sampled_from([(a, b) for a in ids for b in ids if a != b])
    ivcl = Ivcl()
    for vm in ids:
        ivcl.register(vm)
    for a, b in sorted(draw(st.sets(pairs))):
        ivcl.grant(a, b)
    return placement, ivcl, draw(st.sets(pairs, max_size=14))


@settings(max_examples=200, deadline=None)
@given(_monitor_instances(), st.integers(1, 3), st.booleans())
def test_threat_report_equals_each_detection_alone(instance, min_links, every_server):
    """The report's events, VMs and links equal the detections run one by
    one, with a VLAM for every server or only for the endpoints' hosts."""
    placement, ivcl, links = instance
    vlams = build_vlams(placement, links, placement.server_ids if every_server else ())
    owners = np.arange(12) % 3
    report = build_threat_report(0, placement, vlams, ivcl, owners, min_links=min_links)
    assert report.colocation == detect_colocation(placement, vlams, ivcl)
    assert report.cascading == detect_cascading(placement, vlams, ivcl)
    assert report.malicious_vms == identify_malicious_vms(vlams, ivcl, min_links)
    assert report.malicious_link_set == set().union(*all_malicious_links(vlams, ivcl).values())


def test_build_threat_report_classifies_each_observed_flow_once(monkeypatch):
    calls, classify = [], monitor.classify_link

    def counted(link, ivcl):
        calls.append(link)
        return classify(link, ivcl)

    monkeypatch.setattr(monitor, "classify_link", counted)
    rng = np.random.default_rng(206)
    for _ in range(100):
        placement, ivcl, links, vlams = random_instance(rng)
        calls.clear()
        build_threat_report(0, placement, vlams, ivcl, np.arange(1, 13))
        assert sorted(calls) == sorted(links)


def test_build_vlams_defaults_to_the_endpoint_servers():
    """Without server ids only an endpoint's host gets a VLAM: the matrices
    of every server, the empty ones dropped."""
    rng = np.random.default_rng(207)
    for _ in range(100):
        placement, _ivcl, links, every = random_instance(rng)
        vlams = build_vlams(placement, links)
        assert list(vlams) == sorted({placement.server_of(vm) for link in links for vm in link})
        assert vlams == {sid: vlam for sid, vlam in every.items() if vlam.links}
    placement = make_placement({1: 1, 2: 2}, 3)  # VM 3 is not placed
    vlams = build_vlams(placement, [(1, 2), (1, 3)])
    assert {sid: vlam.links for sid, vlam in vlams.items()} == {1: {(1, 2), (1, 3)}, 2: {(1, 2)}}


def test_quarantine_directive_contents():
    placement = make_placement({1: 1, 2: 1, 3: 2, 4: 3}, 3)
    ivcl = Ivcl()
    for vm in (1, 2, 3, 4):
        ivcl.register(vm)
    links = [(1, 2), (1, 3)]
    vlams = build_vlams(placement, links, [1, 2, 3])
    report = build_threat_report(0, placement, vlams, ivcl, [1, 2, 3, 4])
    directive = quarantine(report, placement)
    assert directive.terminate_links == {(1, 2), (1, 3)}
    assert directive.suspend_vms == {1}
    assert directive.notify_servers == {1, 2}  # hosts of 1, 2 and 3


def test_clean_traffic_yields_clean_report():
    rng = np.random.default_rng(205)
    for _ in range(100):
        placement, ivcl, links, _ = random_instance(rng)
        allowed = {l for l in links if ivcl.is_authorized(*l)}
        vlams = build_vlams(placement, allowed, placement.server_ids)
        report = build_threat_report(0, placement, vlams, ivcl, [])
        assert report.is_clean()


def test_colocation_server_fraction():
    events = [ColocationEvent(1, 1, 2), ColocationEvent(1, 2, 1), ColocationEvent(3, 5, 6)]
    assert colocation_server_fraction(events, 5) == pytest.approx(0.4)
    assert colocation_server_fraction([], 5) == 0.0
    with pytest.raises(ValueError):
        colocation_server_fraction(events, 0)


def test_cascading_victim_fraction():
    owners = [0, 0, 1, 2, 3]  # VMs 1 and 2 of user 0, no candidate
    events = [CascadingEvent(9, 8, 3, 1, 2), CascadingEvent(9, 8, 4, 1, 3)]
    assert cascading_victim_fraction(events, owners, [1, 2, 3]) == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        cascading_victim_fraction(events, owners, [])


def test_events_csv_rows_layout():
    report = ThreatReport(
        interval=2,
        colocation=[ColocationEvent(1, 11, 1)],
        cascading=[CascadingEvent(11, 1, 2, 1, 2)],
    )
    rows = events_csv_rows(report)
    assert rows[0] == [2, "col", 11, 1, "1"]
    assert rows[1] == [2, "cas", 11, 2, "1>2"]
