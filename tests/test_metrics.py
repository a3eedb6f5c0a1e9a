"""Utilisation, power and traffic-health metric tests."""

import pytest

from oscmc.metrics import (
    EmptyDataCenterError,
    InactiveServerError,
    IntervalMetrics,
    METRICS_CSV_HEADER,
    authorized_link_pct,
    count_hogs,
    power_dc,
    power_server,
    ru_dc,
    ru_server,
    snapshot,
)
from oscmc.model import Placement, ResourceVector, Server
from oscmc.monitor import Ivcl


def make_dc(n_servers, cpu=2000.0, mem=2048.0, bw=10000.0):
    servers = {
        sid: Server(sid, ResourceVector(cpu, mem, bw), active=True)
        for sid in range(1, n_servers + 1)
    }
    return servers, Placement(servers)


def test_ru_server_fractions():
    servers, p = make_dc(1)
    p.assign(1, ResourceVector(500.0, 1024.0, 2500.0), 1)
    assert ru_server(servers[1], p) == (0.25, 0.5, 0.25)


def test_ru_server_inactive_raises():
    servers, p = make_dc(1)
    servers[1].active = False
    with pytest.raises(InactiveServerError, match="inactive server"):
        ru_server(servers[1], p)


def test_ru_dc_mean_over_resources_and_servers():
    servers, p = make_dc(2, cpu=100.0, mem=100.0, bw=100.0)
    p.assign(1, ResourceVector(50.0, 50.0, 50.0), 1)
    p.assign(2, ResourceVector(100.0, 100.0, 100.0), 2)
    assert ru_dc(servers, p) == pytest.approx(0.75)


def test_ru_dc_skips_inactive_servers():
    servers, p = make_dc(2, cpu=100.0, mem=100.0, bw=100.0)
    p.assign(1, ResourceVector(50.0, 50.0, 50.0), 1)
    servers[2].active = False
    assert ru_dc(servers, p) == pytest.approx(0.5)


def test_ru_dc_empty_raises():
    servers, p = make_dc(2)
    for s in servers.values():
        s.active = False
    with pytest.raises(EmptyDataCenterError, match="empty data center"):
        ru_dc(servers, p)


def test_power_three_servers_at_half_utilisation():
    """Default power figures: three half-utilised servers draw 427.5 W."""
    servers, p = make_dc(3, cpu=100.0, mem=100.0, bw=100.0)
    for sid in servers:
        p.assign(sid, ResourceVector(50.0, 50.0, 50.0), sid)
    assert power_server(servers[1], p) == pytest.approx(142.5)
    assert power_dc(servers, p) == pytest.approx(427.5)


def test_power_boundaries():
    servers, p = make_dc(1, cpu=100.0, mem=100.0, bw=100.0)
    # Active but empty: utilisation 0 -> idle draw only.
    assert power_server(servers[1], p) == pytest.approx(70.0)
    p.assign(1, ResourceVector(100.0, 100.0, 100.0), 1)
    assert power_server(servers[1], p) == pytest.approx(215.0)  # (250-105)*1 + 70
    servers[1].active = False
    assert power_server(servers[1], p) == 0.0


def test_power_cpu_mode_uses_cpu_fraction_only():
    servers, p = make_dc(1, cpu=100.0, mem=100.0, bw=100.0)
    p.assign(1, ResourceVector(100.0, 0.0, 0.0), 1)
    assert power_server(servers[1], p, mode="cpu") == pytest.approx(215.0)
    assert power_server(servers[1], p, mode="mean") == pytest.approx(
        (250.0 - 105.0) / 3.0 + 70.0
    )
    with pytest.raises(ValueError):
        power_server(servers[1], p, mode="median")


def test_count_hogs_threshold_boundary():
    observed = {1: 150.0, 2: 150.1, 3: 90.0}
    predicted = {1: 100.0, 2: 100.0, 3: 100.0}
    # Exactly 1.5x predicted is not a hog; strictly above is.
    assert count_hogs(observed, predicted, threshold=0.5) == 1
    assert count_hogs({}, {}) == 0
    with pytest.raises(ValueError):
        count_hogs(observed, predicted, threshold=-0.1)


def test_count_hogs_missing_prediction_counts_any_traffic():
    assert count_hogs({1: 5.0}, {}) == 1
    assert count_hogs({1: 0.0}, {}) == 0


def test_authorized_link_pct():
    ivcl = Ivcl()
    ivcl.grant(1, 2)
    ivcl.register(3)
    assert authorized_link_pct([(1, 2), (2, 1), (1, 3), (3, 1)], ivcl) == pytest.approx(25.0)
    assert authorized_link_pct([], ivcl) == 100.0


def test_snapshot_bundles_interval_metrics():
    servers, p = make_dc(2, cpu=100.0, mem=100.0, bw=100.0)
    p.assign(1, ResourceVector(50.0, 50.0, 50.0), 1)
    servers[2].active = False
    ivcl = Ivcl()
    ivcl.grant(1, 2)
    m = snapshot(
        interval=3,
        servers=servers,
        placement=p,
        observed_bw={1: 200.0},
        predicted_bw={1: 100.0},
        live_links=1,
        unauthorised_links=0,
    )
    assert m.interval == 3
    assert m.ru_dc == pytest.approx(0.5)
    assert m.pw_dc == pytest.approx(142.5)
    assert m.hog_count == 1
    assert m.authorized_link_pct == 100.0
    assert m.active_server_count == 1
    assert m.ru_per_server == {1: (0.5, 0.5, 0.5)}


def test_csv_row_matches_header():
    m = IntervalMetrics(
        interval=0,
        ru_dc=0.5,
        ru_per_server={},
        pw_dc=427.5,
        hog_count=2,
        authorized_link_pct=52.631579,
        active_server_count=5,
        theta_col=6,
        theta_cas=7,
        theta_vul=0,
        malicious_vms_cum=4,
    )
    row = m.csv_row()
    assert len(row.split(",")) == len(METRICS_CSV_HEADER.split(","))
    assert row == "0,50.000000,427.500000,2,52.631579,5,6,7,0,4"
