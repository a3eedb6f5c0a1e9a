"""Utilisation, power and traffic-health metric tests."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscmc.allocator import rebalance
from oscmc.metrics import (
    EmptyDataCenterError,
    Fleet,
    InactiveServerError,
    IntervalMetrics,
    METRICS_CSV_HEADER,
    _active,
    _power,
    authorized_link_pct,
    count_hogs,
    exact_sum,
    power_dc,
    power_server,
    ru_dc,
    ru_server,
    snapshot,
)
from oscmc.model import MAX_RESOURCE, Placement, ResourceVector, Server
from oscmc.monitor import Ivcl


def make_dc(n_servers, cpu=2000.0, mem=2048.0, bw=10000.0):
    """Servers that are powered only while they host a VM (none reserved)."""
    servers = {
        sid: Server(sid, ResourceVector(cpu, mem, bw)) for sid in range(1, n_servers + 1)
    }
    return servers, Placement(servers)


def test_ru_server_fractions():
    servers, p = make_dc(1)
    p.assign(1, ResourceVector(500.0, 1024.0, 2500.0), 1)
    assert ru_server(servers[1], p) == (0.25, 0.5, 0.25)


def test_ru_server_inactive_raises():
    servers, p = make_dc(1)  # hosts nothing and is not reserved
    with pytest.raises(InactiveServerError, match="inactive server"):
        ru_server(servers[1], p)


def test_ru_dc_mean_over_resources_and_servers():
    servers, p = make_dc(2, cpu=100.0, mem=100.0, bw=100.0)
    p.assign(1, ResourceVector(50.0, 50.0, 50.0), 1)
    p.assign(2, ResourceVector(100.0, 100.0, 100.0), 2)
    assert ru_dc(servers, p) == pytest.approx(0.75)


def test_ru_dc_skips_inactive_servers():
    servers, p = make_dc(2, cpu=100.0, mem=100.0, bw=100.0)
    p.assign(1, ResourceVector(50.0, 50.0, 50.0), 1)  # server 2 hosts nothing
    assert ru_dc(servers, p) == pytest.approx(0.5)


def test_ru_dc_empty_raises():
    servers, p = make_dc(2)  # no VM, no reserved server
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
    reserved = dataclasses.replace(servers[1], reserved_for_hogs=True)
    # Reserved but empty: utilisation 0 -> idle draw only.
    assert power_server(reserved, p) == pytest.approx(70.0)
    assert power_server(servers[1], p) == 0.0  # empty and not reserved: off
    p.assign(1, ResourceVector(100.0, 100.0, 100.0), 1)
    assert power_server(servers[1], p) == pytest.approx(215.0)  # (250-105)*1 + 70
    p.remove(1)
    assert power_server(servers[1], p) == 0.0


def test_metrics_read_activity_from_the_placement_they_get():
    """No call between a rebalance and the metrics: the drained server is off."""
    servers, p = make_dc(2, cpu=100.0, mem=100.0, bw=100.0)
    p.assign(1, ResourceVector(10.0, 10.0, 10.0), 1)
    p.assign(2, ResourceVector(60.0, 60.0, 60.0), 2)
    result = rebalance(-1, p, servers)
    assert result.emptied_servers == [1]
    assert power_dc(servers, result.placement) == pytest.approx(171.5)  # 145*0.7 + 70
    assert ru_dc(servers, result.placement) == pytest.approx(0.70)
    # The input placement still has both servers hosting.
    assert power_dc(servers, p) == pytest.approx(241.5)


@pytest.mark.parametrize("how", ["mutate", "replace"])
def test_metrics_read_each_server_as_it_is_at_the_call(how):
    """A server changed between two calls, in place or by a new dict entry,
    changes the figures: nothing is kept from the first call."""
    servers, p = make_dc(3, cpu=100.0, mem=100.0, bw=100.0)
    p.assign(1, ResourceVector(50.0, 50.0, 50.0), 1)
    assert (power_dc(servers, p), ru_dc(servers, p)) == (142.5, 0.5)
    if how == "mutate":
        servers[2].reserved_for_hogs = True
        servers[1].pw_idle = 10.0
    else:
        servers[2] = dataclasses.replace(servers[2], reserved_for_hogs=True)
        servers[1] = dataclasses.replace(servers[1], pw_idle=10.0)
    want = sum(power_server(s, p) for s in servers.values())
    assert power_dc(servers, p) == want == 152.5  # (145 * 0.5 + 10) + 70
    assert ru_dc(servers, p) == 0.25  # (1.5 + 0) / (3 * 2)
    assert snapshot(0, servers, p, {}, {}, 0, 0).pw_dc == want


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
    p.assign(1, ResourceVector(50.0, 50.0, 50.0), 1)  # server 2 hosts nothing
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
    ids, rows, _sums, _power = _active(servers, p)
    assert (ids.tolist(), rows.tolist()) == ([1], [[0.5, 0.5, 0.5]])


def test_csv_row_matches_header():
    m = IntervalMetrics(
        interval=0,
        ru_dc=0.5,
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


def powered(servers, placement):
    """The activity rule, stated here: hosting a VM or reserved for hogs."""
    return [
        sid for sid, s in servers.items() if s.reserved_for_hogs or placement.vms_on(sid).size
    ]


def reference_snapshot(servers, placement, observed_bw, predicted_bw, threshold, mode):
    per_server = {sid: ru_server(servers[sid], placement) for sid in powered(servers, placement)}
    if not per_server:
        raise EmptyDataCenterError("empty data center")
    total = 0.0
    for fractions in per_server.values():
        total += sum(fractions)
    return dict(
        ru_dc=total / (3.0 * len(per_server)),
        per_server=per_server,
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
        reserved = draw(st.booleans())
        caps[sid] = draw(triples)
        servers.append((sid, caps[sid], idle, low, high, reserved))
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
        sid: Server(
            sid, ResourceVector(*cap), pw_max=high, pw_min=low, pw_idle=idle,
            reserved_for_hogs=reserved,
        )
        for sid, cap, idle, low, high, reserved in fleet["servers"]
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
    constants = Fleet(servers, placement)  # as a simulation holds them, built once
    for second in (False, True):
        if second:
            # Half the VMs leave, so some servers go from powered to off.
            for vm in sorted(placement.vm_ids)[::2]:
                placement.remove(vm)
        if not powered(servers, placement):
            with pytest.raises(EmptyDataCenterError):
                snapshot(0, servers, placement, observed, predicted, 0, 0, threshold, mode)
            with pytest.raises(EmptyDataCenterError):
                ru_dc(servers, placement)
            assert power_dc(servers, placement, mode) == 0.0
            continue
        want = reference_snapshot(servers, placement, observed, predicted, threshold, mode)
        m = snapshot(0, servers, placement, observed, predicted, 0, 0, threshold, mode)
        held = snapshot(0, servers, placement, observed, predicted, 0, 0, threshold, mode, constants)
        assert held == m
        got = {name: getattr(m, name) for name in want if name != "per_server"}
        for name in ("ru_dc", "pw_dc"):
            assert got[name].hex() == want[name].hex(), name
        # The per-server rows the snapshot sums, as ``ru_server`` gives them.
        ids, rows, _sums, _power = _active(servers, placement, mode)
        assert ids.tolist() == list(want["per_server"])
        for row, fractions in zip(rows, want["per_server"].values()):
            assert [f.hex() for f in row] == [f.hex() for f in fractions]
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


# -- the exact sum ---------------------------------------------------------
#
# ``exact_sum`` stands in for the builtin ``sum`` of Python floats, so the
# figures summed over arrays equal those once summed over lists.  Both of
# its forms are checked against a model of CPython's loop, and the form of
# the running interpreter against ``sum`` itself.


def left_to_right(xs):
    """``sum`` of floats before Python 3.12."""
    total = 0
    for x in xs:
        total = total + x
    return float(total)


def neumaier(xs):
    """``sum`` of floats from Python 3.12: 0 + xs[0], then each term with
    Neumaier's compensation, added at the end when non-zero and finite."""
    if not xs:
        return 0.0
    total, c = 0 + xs[0], 0.0
    for x in xs[1:]:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


def same_float(got, want):
    """Equal bits up to a NaN's sign and payload, which no output shows;
    ``sum`` of nothing is the integer 0."""
    want = float(want)
    if math.isnan(want):
        return math.isnan(got)
    return type(got) is float and got.hex() == want.hex()


# Signed zeros, infinities, NaN, cancelling 1e16 terms, terms below an ulp
# of 1 and of 1e16, and the odd ordinary float.
term = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e16, -1e16, 1.0, -1.0]),
    st.sampled_from([2.0**-53, -(2.0**-53), 1.5, 0.1, 5e-324, 1.7e308, -1.7e308]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-4.0, 4.0),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(term, max_size=40), st.lists(st.tuples(term, term, term), max_size=12))
@example([-0.0], [(-0.0, -0.0, -0.0)])
@example([1e16, 1.0, -1e16], [(1e16, 1.0, -1e16)])
@example([math.inf, 1.0, -math.inf], [(1.7e308, 1.7e308, -1.7e308)])
def test_exact_sum_equals_builtin_sum(xs, rows):
    assert same_float(exact_sum(np.array(xs, dtype=float)), sum(xs))
    for compensated, model in ((False, left_to_right), (True, neumaier)):
        got = exact_sum(np.array(xs, dtype=float), compensated=compensated)
        assert same_float(got, model(xs))
    block = np.array(rows, dtype=float).reshape(-1, 3)
    sums = exact_sum(block)
    assert sums.shape == (len(rows),)
    for got, row in zip(sums.tolist(), rows):
        assert same_float(got, sum(row))
    for compensated, model in ((False, left_to_right), (True, neumaier)):
        got = exact_sum(block, compensated=compensated).tolist()
        assert all(same_float(g, model(row)) for g, row in zip(got, rows))
