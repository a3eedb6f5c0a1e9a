"""Acceptance suite: one test per shipped guarantee, one verdict line each.

Tolerances are pinned in the assertions; every derived figure is checked
against an oracle computed independently of the implementation under test
(hand arithmetic, brute-force search, or an exhaustive alternative
formulation).
"""

import contextlib
import dataclasses
import itertools
import time

import numpy as np
import pytest

from oscmc.allocator import ffd_place, kmeans, rebalance
from oscmc.engine import run
from oscmc.metrics import (
    IntervalMetrics,
    authorized_link_pct,
    count_hogs,
    power_dc,
    ru_dc,
    ru_server,
)
from oscmc.model import Placement, ResourceVector, Server
from oscmc.monitor import (
    Ivcl,
    all_malicious_links,
    build_threat_report,
    build_vlams,
    cascading_victim_fraction,
    colocation_server_fraction,
    detect_cascading,
    detect_colocation,
    identify_malicious_vms,
    quarantine,
)
from oscmc.predictor import PredictorModel, gradient_check
from oscmc.scenario import load_scenario, with_policy


@contextlib.contextmanager
def verdict(label):
    try:
        yield
    except Exception:
        print("FAIL %s" % label)
        raise
    print("PASS %s" % label)


# -- criterion 1: golden walkthrough ------------------------------------


def test_criterion_01_golden_walkthrough():
    label = "criterion 1: golden walkthrough reproduces every pinned figure"
    with verdict(label):
        t0 = time.perf_counter()
        result = run(load_scenario("illustration"))
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0

        report = result.reports[0]
        col = {(e.server, e.src, e.dst) for e in report.colocation}
        assert col == {
            (1, 11, 1), (1, 11, 3),
            (3, 8, 5), (3, 8, 6),
            (5, 10, 13), (5, 10, 15),
        }
        assert colocation_server_fraction(report.colocation, 5) == pytest.approx(0.6)

        cas = {(e.src, e.relay, e.dst) for e in report.cascading}
        assert cas == {
            (11, 1, 2), (11, 3, 4),
            (8, 5, 7), (8, 6, 7),
            (10, 13, 12), (10, 13, 14), (10, 15, 14),
        }
        # Users 1 to 4 own VMs 1-4, 5-7, 8-11 and 12-15; VM v's owner at v - 1.
        owners = np.repeat([1, 2, 3, 4], [4, 3, 4, 4])
        assert cascading_victim_fraction(report.cascading, owners, [1, 2, 4]) == 1.0

        assert report.malicious_vms == {8, 9, 10, 11}
        assert sorted(result.suspended) == [8, 9, 10, 11]
        assert set(report.theta_dc) == {1, 2, 4}
        assert all(v > 0 for v in report.theta_dc.values())
        assert report.coverage == {3: pytest.approx(9 / 4)}

        al = [m.authorized_link_pct for m in result.metrics]
        assert al[0] == pytest.approx(100.0 * 10 / 19)
        assert al[1] == 100.0 and al[2] == 100.0

        # Hand arithmetic: 15 VMs of (500, 512, 1000) over five servers of
        # (2000, 2048, 10000): per-server RU (0.75 + 0.75 + 0.3) / 3 = 0.6,
        # power 5 * (145 * 0.6 + 70) = 785 W.  After suspending four VMs the
        # mix is one server of three VMs and four of two: RU 0.44, 669 W.
        assert result.metrics[0].ru_dc == pytest.approx(0.6)
        assert result.metrics[0].pw_dc == pytest.approx(785.0)
        assert result.metrics[1].ru_dc == pytest.approx(0.44)
        assert result.metrics[1].pw_dc == pytest.approx(669.0)
        assert result.realized_breaches == 0


# -- criterion 2: authorised-link recovery under attack bursts -----------


def test_criterion_02_authorized_link_recovery():
    label = "criterion 2: authorised-link share recovers within two intervals"
    with verdict(label):
        period = 5
        for pct in (5.0, 20.0, 50.0, 90.0):
            sc = dataclasses.replace(
                load_scenario("xi200"),
                attack_mode="burst",
                burst_period=period,
                malicious_user_pct=pct,
            )
            t0 = time.perf_counter()
            osc = run(sc)
            assert time.perf_counter() - t0 < 30.0
            t0 = time.perf_counter()
            wosc = run(with_policy(sc, "wosc"))
            assert time.perf_counter() - t0 < 30.0

            al_o = [m.authorized_link_pct for m in osc.metrics]
            al_w = [m.authorized_link_pct for m in wosc.metrics]
            horizon = len(al_o)
            for t, value in enumerate(al_o[:-1]):
                if value < 100.0:
                    assert 100.0 in al_o[t + 1 : t + 3], (
                        "pct %.0f: no recovery after interval %d" % (pct, t)
                    )
            # The share may dip when a burst lands; outside those two-interval
            # recovery windows it must hold at 99% or better.
            assert all(
                al_o[t] >= 99.0
                for t in range(10, horizon)
                if t % period >= 2
            ), "pct %.0f: floor broken between bursts" % pct
            # Without surveillance the malicious links persist, so the share
            # stays strictly lower from the first recovery interval on.
            assert all(al_w[t] < al_o[t] for t in range(1, horizon)), (
                "pct %.0f: baseline not strictly lower" % pct
            )
            assert al_w[-1] < 100.0


# -- criterion 3: bandwidth-hog reduction --------------------------------


def test_criterion_03_hog_trend():
    label = "criterion 3: forecast-driven runs cut post-warmup hog counts"
    with verdict(label):
        for preset in ("xi200", "xi500"):
            wins = 0
            for offset in range(5):
                sc = load_scenario(preset)
                sc.seed = sc.seed + offset
                t0 = time.perf_counter()
                osc = run(sc)
                assert time.perf_counter() - t0 < 30.0
                wosc = run(with_policy(sc, "wosc"))
                mean_o = np.mean([m.hog_count for m in osc.metrics[10:]])
                mean_w = np.mean([m.hog_count for m in wosc.metrics[10:]])
                if mean_o <= 0.5 * mean_w:
                    wins += 1
            assert wins >= 3, "%s: only %d of 5 seeds cut hogs in half" % (preset, wins)


# -- criterion 4: detection equivalence against brute force --------------


def _random_monitor_instance(rng):
    n_vms = int(rng.integers(2, 13))
    n_servers = int(rng.integers(1, 5))
    servers = {
        sid: Server(sid, ResourceVector(1e9, 1e9, 1e9))
        for sid in range(1, n_servers + 1)
    }
    placement = Placement(servers)
    for vm in range(1, n_vms + 1):
        placement.assign(vm, ResourceVector(1.0, 1.0, 1.0), int(rng.integers(1, n_servers + 1)))
    ivcl = Ivcl()
    for vm in range(1, n_vms + 1):
        ivcl.register(vm)
    pairs = [(a, b) for a in range(1, n_vms + 1) for b in range(1, n_vms + 1) if a != b]
    for a, b in pairs:
        if rng.random() < 0.3:
            ivcl.grant(a, b)
    n_links = min(len(pairs), int(rng.integers(0, 15)))
    links = {pairs[i] for i in rng.choice(len(pairs), size=n_links, replace=False)}
    return placement, ivcl, links


def test_criterion_04_detection_matches_brute_force():
    label = "criterion 4: detection equals brute-force enumeration on 1000 instances"
    with verdict(label):
        rng = np.random.default_rng(404)
        t0 = time.perf_counter()
        for _ in range(1000):
            placement, ivcl, links = _random_monitor_instance(rng)
            vlams = build_vlams(placement, links, placement.server_ids)

            col = {(e.server, e.src, e.dst) for e in detect_colocation(placement, vlams, ivcl)}
            col_oracle = {
                (placement.server_of(a), a, b)
                for a, b in links
                if placement.server_of(a) == placement.server_of(b)
                and not ivcl.is_authorized(a, b)
            }
            assert col == col_oracle

            cas = {
                (e.src, e.relay, e.dst)
                for e in detect_cascading(placement, vlams, ivcl)
            }
            cas_oracle = {
                (a, b, d)
                for a, b in links
                for c, d in links
                if b == c
                and placement.server_of(a) == placement.server_of(b)
                and not ivcl.is_authorized(a, b)
                and placement.server_of(d) != placement.server_of(a)
            }
            assert cas == cas_oracle

            grouped = all_malicious_links(vlams, ivcl)
            grouped_oracle = {}
            for a, b in links:
                if not ivcl.is_authorized(a, b):
                    grouped_oracle.setdefault(a, set()).add((a, b))
            assert grouped == grouped_oracle
            assert identify_malicious_vms(vlams, ivcl) == set(grouped_oracle)
        assert time.perf_counter() - t0 < 10.0


# -- criterion 5: quarantine idempotence and clean-state soundness -------


def _apply_directive(placement, links, directive):
    after = placement.copy()
    remaining = {
        l for l in links
        if l not in directive.terminate_links
        and l[0] not in directive.suspend_vms
        and l[1] not in directive.suspend_vms
    }
    for vm in directive.suspend_vms:
        if after.server_of(vm) is not None:
            after.remove(vm)
    return after, remaining


def test_criterion_05_quarantine_idempotence():
    label = "criterion 5: quarantine is idempotent and leaves a clean state"
    with verdict(label):
        rng = np.random.default_rng(505)
        for _ in range(300):
            placement, ivcl, links = _random_monitor_instance(rng)
            vlams = build_vlams(placement, links, placement.server_ids)
            owners = np.arange(1, len(placement.vm_ids) + 1)  # VM v of user v
            report = build_threat_report(0, placement, vlams, ivcl, owners)
            directive = quarantine(report, placement)

            after, remaining = _apply_directive(placement, links, directive)
            vlams_after = build_vlams(after, remaining, after.server_ids)
            report_after = build_threat_report(1, after, vlams_after, ivcl, owners)
            assert report_after.is_clean()

            # A second pass must change nothing.
            directive_2 = quarantine(report_after, after)
            assert directive_2.terminate_links == set()
            assert directive_2.suspend_vms == set()
            after_2, remaining_2 = _apply_directive(after, remaining, directive_2)
            assert after_2.vm_ids == after.vm_ids
            assert remaining_2 == remaining


# -- criterion 6: clustering quality -------------------------------------


def test_criterion_06_kmeans_quality():
    label = "criterion 6: clustering within 5% of the exhaustive optimum"
    with verdict(label):
        rng = np.random.default_rng(606)
        for trial in range(40):
            n = int(rng.integers(3, 9))
            k = int(rng.integers(1, 4))
            if k > n:
                continue
            values = rng.uniform(0.0, 1000.0, n)
            result = kmeans(values, k, seed=trial)

            best = float("inf")
            for labels in itertools.product(range(k), repeat=n):
                labels = np.asarray(labels)
                sse = 0.0
                for c in range(k):
                    members = values[labels == c]
                    if members.size:
                        sse += float(((members - members.mean()) ** 2).sum())
                best = min(best, sse)
            assert result.objective <= best * 1.05 + 1e-9

            trace = result.objective_trace
            assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))


# -- criterion 7: placement safety ---------------------------------------


def test_criterion_07_placement_safety():
    label = "criterion 7: 10000 placement sequences never violate capacity"
    with verdict(label):
        rng = np.random.default_rng(707)
        for trial in range(10000):
            n_srv = int(rng.integers(2, 5))
            reserved = {n_srv} if rng.random() < 0.4 else set()
            servers = {
                sid: Server(
                    sid,
                    ResourceVector(1000.0, 1000.0, 1000.0),
                    reserved_for_hogs=sid in reserved,
                )
                for sid in range(1, n_srv + 1)
            }
            n_vms = int(rng.integers(1, 9))
            items = []
            for vm in range(1, n_vms + 1):
                d = ResourceVector(*(float(x) for x in rng.integers(50, 450, 3)))
                items.append((vm, d, float(rng.uniform(0, 1000))))
            try:
                placed = ffd_place(items, servers, Placement(servers))
            except Exception:
                continue
            assert placed.capacity_ok()
            state = int(rng.choice([-1, 0, 1]))
            hogs = [
                (vm, bw) for vm, _, bw in items if rng.random() < 0.5
            ]
            result = rebalance(state, placed, servers, hog_vms=hogs)
            assert result.placement.capacity_ok()
            assert result.placement.vm_ids == placed.vm_ids


# -- criterion 8: metric arithmetic --------------------------------------


def test_criterion_08_metric_arithmetic():
    label = "criterion 8: utilisation and power figures match hand arithmetic"
    with verdict(label):
        servers = {
            sid: Server(sid, ResourceVector(100.0, 100.0, 100.0)) for sid in (1, 2, 3)
        }
        p = Placement(servers)
        for sid in servers:
            p.assign(sid, ResourceVector(50.0, 50.0, 50.0), sid)
        assert ru_dc(servers, p) == pytest.approx(0.5)
        assert power_dc(servers, p) == pytest.approx(427.5)  # 3 * (145*0.5 + 70)

        # Two 500-MIPS guests on a 2000-MIPS host occupy half its compute.
        host = {1: Server(1, ResourceVector(2000.0, 4096.0, 1000.0))}
        hp = Placement(host)
        hp.assign(1, ResourceVector(500.0, 512.0, 100.0), 1)
        hp.assign(2, ResourceVector(500.0, 512.0, 100.0), 1)
        assert ru_server(host[1], hp)[0] == pytest.approx(0.5)

        # Powered with no VM: only a server reserved for hogs.
        empty = {1: Server(1, ResourceVector(100.0, 100.0, 100.0), reserved_for_hogs=True)}
        assert power_dc(empty, Placement(empty)) == pytest.approx(70.0)
        full = {1: Server(1, ResourceVector(100.0, 100.0, 100.0))}
        fp = Placement(full)
        fp.assign(1, ResourceVector(100.0, 100.0, 100.0), 1)
        assert power_dc(full, fp) == pytest.approx(215.0)
        off = {1: Server(1, ResourceVector(100.0, 100.0, 100.0))}
        assert power_dc(off, Placement(off)) == 0.0

        assert count_hogs({1: 150.0, 2: 150.1}, {1: 100.0, 2: 100.0}) == 1
        ivcl = Ivcl()
        ivcl.grant(1, 2)
        assert authorized_link_pct([(1, 2), (2, 1)], ivcl) == pytest.approx(50.0)
        assert authorized_link_pct([], ivcl) == 100.0

        row = IntervalMetrics(
            interval=0, ru_dc=0.5, pw_dc=427.5, hog_count=0,
            authorized_link_pct=100.0, active_server_count=3,
        ).csv_row()
        assert row == "0,50.000000,427.500000,0,100.000000,3,0,0,0,0"


# -- criterion 9: forecaster gradient correctness ------------------------


def test_criterion_09_gradient_check():
    label = "criterion 9: analytic gradients match finite differences"
    with verdict(label):
        rng = np.random.default_rng(909)
        for seed in range(5):
            model = PredictorModel(window=6, hidden=8, learning_rate=0.05, seed=seed)
            model.set_bounds(np.array([0.0, 1000.0]))
            window = rng.uniform(50.0, 950.0, 6)
            target = float(rng.uniform(50.0, 950.0))
            assert gradient_check(model, window, target) < 1e-3


# -- criterion 10: bitwise determinism -----------------------------------


def test_criterion_10_determinism():
    label = "criterion 10: repeated and fanned-out runs are byte-identical"
    with verdict(label):
        sc = load_scenario("xi200")
        a = run(sc)
        b = run(sc)
        assert a.metrics_csv_text() == b.metrics_csv_text()
        assert a.events_csv_text() == b.events_csv_text()
        c = run(sc, workers=4)
        assert a.metrics_csv_text() == c.metrics_csv_text()
        assert a.events_csv_text() == c.events_csv_text()
        other = dataclasses.replace(sc, seed=sc.seed + 1)
        d = run(other)
        assert a.metrics_csv_text() != d.metrics_csv_text()


# -- criterion 11: large-fleet runtime -----------------------------------


def test_criterion_11_runtime_smoke():
    label = "criterion 11: 1100-VM fleet simulates 50 intervals inside 5 minutes"
    with verdict(label):
        sc = dataclasses.replace(load_scenario("xi1100"), intervals=50)
        t0 = time.perf_counter()
        result = run(sc)
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0
        assert len(result.metrics) == 50
        assert result.metrics[-1].authorized_link_pct == 100.0
