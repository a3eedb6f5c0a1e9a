"""Utilisation, power and traffic-health metric tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscmc.metrics import (
    EmptyDataCenterError,
    InactiveServerError,
    IntervalMetrics,
    METRICS_CSV_HEADER,
    _power,
    authorized_link_pct,
    count_hogs,
    power_dc,
    power_server,
    ru_dc,
    ru_server,
    snapshot,
)
from oscmc.model import MAX_RESOURCE, Placement, ResourceVector, Server
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


# -- the array snapshot against per-server references -------------------------
#
# ``snapshot``, ``ru_dc`` and ``power_dc`` read every active server's load from
# the placement's unit arrays at once, and ``count_hogs`` compares two aligned
# arrays.  The references below are the per-server and per-VM code they
# replaced: ``ru_server`` and ``_power`` for each active server, summed in
# Python in ``servers`` order, and the dict loop for the hogs.  Both must agree
# bit for bit.


def reference_hogs(observed_bw, predicted_bw, threshold):
    count = 0
    for vm, observed in observed_bw.items():
        if observed > predicted_bw.get(vm, 0.0) * (1.0 + threshold):
            count += 1
    return count


def reference_snapshot(servers, placement, observed_bw, predicted_bw, threshold, mode):
    per_server = {sid: ru_server(s, placement) for sid, s in servers.items() if s.active}
    if not per_server:
        raise EmptyDataCenterError("empty data center")
    total = 0.0
    for fractions in per_server.values():
        total += sum(fractions)
    return dict(
        ru_dc=total / (3.0 * len(per_server)),
        ru_per_server=per_server,
        pw_dc=sum(_power(servers[sid], fr, mode) for sid, fr in per_server.items()),
        hog_count=reference_hogs(observed_bw, predicted_bw, threshold),
        active_server_count=len(per_server),
    )


# Resource values: zero, micro-unit fractions (from 1 to 4 units one total
# in ten is where ``q + r / 1e6`` rounds twice), and values whose unit
# totals pass 2**53, where ``units / 1e6`` rounds twice.
resource = st.one_of(
    st.just(0.0),
    st.integers(10**6, 4 * 10**6).map(lambda u: u / 1e6),
    st.integers(1, 5 * 10**9).map(lambda u: u / 1e6),
    st.floats(1e9, MAX_RESOURCE),
)
triples = st.tuples(resource, resource, resource)


@st.composite
def fleets(draw):
    # More than eight servers, so a pairwise sum would differ from Python's.
    n = draw(st.integers(1, 16))
    ids = draw(st.lists(st.integers(1, 50), min_size=n, max_size=n, unique=True))
    servers, caps = [], {}
    for sid in ids:
        idle, low, high = sorted(draw(st.lists(st.floats(0.0, 500.0), min_size=3, max_size=3)))
        on = draw(st.sampled_from([True, True, True, False]))
        caps[sid] = draw(triples)
        servers.append((sid, caps[sid], idle, low, high, on))
    vms = []
    for _ in range(draw(st.integers(0, 24))):
        sid = draw(st.sampled_from(ids))
        # A share of the capacity lets several large demands share a server.
        demand = tuple(
            draw(resource | st.floats(0.0, 0.6).map(lambda f, c=c: c * f)) for c in caps[sid]
        )
        vms.append((demand, sid))
    return dict(servers=servers, vms=vms)


def _build(fleet):
    servers = {
        sid: Server(sid, ResourceVector(*cap), pw_max=high, pw_min=low, pw_idle=idle, active=on)
        for sid, cap, idle, low, high, on in fleet["servers"]
    }
    placement = Placement(servers)
    for vm, (demand, sid) in enumerate(fleet["vms"], start=1):
        demand = ResourceVector(*demand)
        if placement.fits(sid, demand):
            placement.assign(vm, demand, sid)
    return servers, placement


# A server holding 9.5e9 + 1e-6 of cpu, whose unit total rounds when it
# becomes a float, and one holding 1.813508 of memory, where the
# quotient-remainder form rounds twice.
_EDGES = dict(
    servers=[(1, (1e10, 2000.0, 1.0), 70.0, 105.0, 250.0, True),
             (2, (1.0, 2000.0, 0.0), 0.0, 0.0, 10.0, True)],
    vms=[((9.5e9, 0.0, 0.0), 1), ((1e-6, 0.0, 0.0), 1), ((0.0, 1.813508, 0.0), 2)],
)


@settings(max_examples=300, deadline=None)
@given(
    fleets(),
    st.dictionaries(st.integers(1, 12), st.floats(0.0, 1e4), max_size=12),
    st.dictionaries(st.integers(1, 12), st.floats(0.0, 1e4), max_size=12),
    st.sampled_from([0.0, 0.5, 2.0]),
    st.sampled_from(["mean", "cpu"]),
)
@example(_EDGES, {1: 5.0}, {}, 0.5, "mean")
def test_array_snapshot_equals_per_server_reference(fleet, observed, predicted, threshold, mode):
    servers, placement = _build(fleet)
    for flip in (False, True):  # a second call reuses the per-server constants
        if flip:
            for server in servers.values():
                server.active = not server.active
        if not any(s.active for s in servers.values()):
            with pytest.raises(EmptyDataCenterError):
                snapshot(0, servers, placement, observed, predicted, 0, 0, threshold, mode)
            with pytest.raises(EmptyDataCenterError):
                ru_dc(servers, placement)
            assert power_dc(servers, placement, mode) == 0.0
            continue
        want = reference_snapshot(servers, placement, observed, predicted, threshold, mode)
        m = snapshot(0, servers, placement, observed, predicted, 0, 0, threshold, mode)
        got = {name: getattr(m, name) for name in want}
        assert list(got["ru_per_server"]) == list(want["ru_per_server"])
        for name in ("ru_dc", "pw_dc"):
            assert got[name].hex() == want[name].hex(), name
        for sid, fractions in want["ru_per_server"].items():
            assert [f.hex() for f in got["ru_per_server"][sid]] == [f.hex() for f in fractions]
        assert got["hog_count"] == want["hog_count"]
        assert got["active_server_count"] == want["active_server_count"]
        assert ru_dc(servers, placement).hex() == want["ru_dc"].hex()
        pw = sum(power_server(s, placement, mode) for s in servers.values())
        assert power_dc(servers, placement, mode).hex() == pw.hex()
    # The engine passes aligned arrays, a missing forecast already 0.0.
    keys = list(observed)
    aligned = np.array([predicted.get(vm, 0.0) for vm in keys])
    assert count_hogs(np.array(list(observed.values())), aligned, threshold) == reference_hogs(
        observed, predicted, threshold
    )
