"""Entity and placement-map tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscmc.engine import Simulation, SimulationError
from oscmc.model import CapacityError, Placement, ResourceVector, Server
from oscmc.scenario import Scenario


def make_servers(n, cpu=2000.0, mem=2048.0, bw=10000.0, reserved=()):
    return {
        sid: Server(
            id=sid,
            capacity=ResourceVector(cpu, mem, bw),
            reserved_for_hogs=sid in reserved,
        )
        for sid in range(1, n + 1)
    }


def test_resource_vector_rejects_negative_components():
    with pytest.raises(ValueError):
        ResourceVector(-1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        ResourceVector(0.0, 0.0, -0.5)


def test_fits_within_is_componentwise():
    cap = ResourceVector(10.0, 10.0, 10.0)
    assert ResourceVector(10.0, 10.0, 10.0).fits_within(cap)
    assert not ResourceVector(10.1, 1.0, 1.0).fits_within(cap)
    assert not ResourceVector(1.0, 10.1, 1.0).fits_within(cap)
    assert not ResourceVector(1.0, 1.0, 10.1).fits_within(cap)


def test_server_validation():
    with pytest.raises(ValueError):
        Server(1, ResourceVector(1, 1, 1), vulnerability_score=11.0)
    with pytest.raises(ValueError):
        Server(1, ResourceVector(1, 1, 1), pw_idle=200.0, pw_min=100.0)


def admission_scenario(flavor):
    """A ``wosc`` fleet of 1000-cpu servers whose every VM takes ``flavor``."""
    return Scenario(
        name="admission", policy="wosc", servers=12, vms=12, users=4,
        intervals=8, seed=13, reserved_per=6, server_cpu=1000.0,
        vm_flavors=[flavor],
    )


def test_admit_vm_accepts_when_some_server_could_host():
    """Set-up admits a flavor that fits within the server capacity, the
    boundary included."""
    for cpu in (900.0, 1000.0):
        sim = Simulation(admission_scenario((cpu, 100.0, 100.0)))
        assert len(sim.placement.placed()) == 12


def test_admit_vm_rejects_oversized_demand():
    """Set-up rejects a flavor above the server capacity, naming the
    flavor's lowest-id VM."""
    with pytest.raises(SimulationError) as exc:
        Simulation(admission_scenario((1100.0, 100.0, 100.0)))
    assert str(exc.value) == "VM 1 rejected: demand exceeds every server capacity"


def test_placement_assign_remove_move():
    servers = make_servers(2)
    p = Placement(servers)
    d = ResourceVector(500.0, 512.0, 1000.0)
    p.assign(1, d, 1)
    assert p.server_of(1) == 1
    assert p.used(1).as_tuple() == (500.0, 512.0, 1000.0)
    p.move(1, 2)
    assert p.server_of(1) == 2
    assert p.used(1).as_tuple() == (0.0, 0.0, 0.0)
    origin = p.remove(1)
    assert origin == 2
    assert p.server_of(1) is None
    assert p.vm_ids == frozenset()


def test_placement_rejects_overrun_and_double_place():
    servers = make_servers(1, cpu=1000.0)
    p = Placement(servers)
    d = ResourceVector(600.0, 100.0, 100.0)
    p.assign(1, d, 1)
    with pytest.raises(CapacityError):
        p.assign(2, d, 1)
    with pytest.raises(CapacityError):
        p.assign(1, d, 1)


def test_placement_move_to_full_server_raises_and_preserves_state():
    servers = make_servers(2, cpu=1000.0)
    p = Placement(servers)
    p.assign(1, ResourceVector(800.0, 1.0, 1.0), 1)
    p.assign(2, ResourceVector(800.0, 1.0, 1.0), 2)
    with pytest.raises(CapacityError):
        p.move(1, 2)
    assert p.server_of(1) == 1
    assert p.capacity_ok()


def test_placement_copy_is_independent():
    servers = make_servers(2)
    p = Placement(servers)
    p.assign(1, ResourceVector(1.0, 1.0, 1.0), 1)
    q = p.copy()
    q.move(1, 2)
    assert p.server_of(1) == 1
    assert q.server_of(1) == 2


def test_occupied_follows_hosted_vms_by_row():
    # Rows follow the servers dict's order, not the ids.
    servers = {sid: make_servers(3, reserved={3})[sid] for sid in (3, 1, 2)}
    p = Placement(servers)
    p.assign(1, ResourceVector(1.0, 1.0, 1.0), 1)
    # Reservation is not occupancy: metrics adds it to the activity rule.
    assert p.occupied().tolist() == [False, True, False]
    clone = p.copy()
    clone.move(1, 2)
    assert clone.occupied().tolist() == [False, False, True]
    assert p.occupied().tolist() == [False, True, False]
    p.occupied()[1] = False  # a fresh array each call
    assert p.occupied().tolist() == [False, True, False]
    p.remove(1)
    assert p.occupied().tolist() == [False, False, False]
    assert clone.occupied().tolist() == [False, False, True]


def test_placement_random_mutations_never_violate_capacity():
    """Randomised assign/move/remove churn keeps the capacity invariant."""
    rng = np.random.default_rng(11)
    for _ in range(50):
        servers = make_servers(4, cpu=1000.0, mem=1000.0, bw=1000.0)
        p = Placement(servers)
        placed, demands = {}, {}
        for op in range(120):
            roll = rng.random()
            if roll < 0.5:
                vm = int(rng.integers(1, 40))
                if vm in placed:
                    continue
                d = ResourceVector(*(float(x) for x in rng.integers(50, 400, 3)))
                sid = int(rng.integers(1, 5))
                if p.fits(sid, d):
                    p.assign(vm, d, sid)
                    placed[vm], demands[vm] = sid, d
            elif roll < 0.75 and placed:
                vm = int(rng.choice(sorted(placed)))
                sid = int(rng.integers(1, 5))
                if p.fits(sid, demands[vm]) or sid == placed[vm]:
                    p.move(vm, sid)
                    placed[vm] = sid
            elif placed:
                vm = int(rng.choice(sorted(placed)))
                p.remove(vm)
                del placed[vm]
            assert p.capacity_ok()
        assert p.vm_ids == frozenset(placed)
        for vm, sid in placed.items():
            assert p.server_of(vm) == sid
            assert vm in p.vms_on(sid)


_DECIMALS = st.sampled_from([0.1, 0.2, 0.3, 0.7])
_OPS = st.tuples(
    st.sampled_from(["assign", "move", "remove"]),
    st.integers(0, 11),  # VM id
    st.integers(0, 3),  # flavor index
    st.integers(1, 2),  # server id
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    flavors=st.lists(st.tuples(_DECIMALS, _DECIMALS, _DECIMALS), min_size=4, max_size=4),
    cap=st.tuples(*[st.sampled_from([0.9, 1.0, 1.1, 1.3])] * 3),
    ops=st.lists(_OPS, max_size=60),
)
def test_placement_is_exact_for_decimal_flavors(flavors, cap, ops):
    """Decimal flavors (not exact in binary) under any assign/move/remove
    history: no drift below zero, the capacity constraint holds, and fits
    answers as a fresh placement holding the same VMs would."""
    servers = make_servers(2, *cap)
    demands = [ResourceVector(*f) for f in flavors]
    p = Placement(servers)
    hosted = {}
    for kind, vm, flavor, sid in ops:
        if kind == "assign" and vm not in hosted and p.fits(sid, demands[flavor]):
            p.assign(vm, demands[flavor], sid)
            hosted[vm] = (demands[flavor], sid)
        elif kind == "move" and vm in hosted and p.fits(sid, hosted[vm][0]):
            p.move(vm, sid)
            hosted[vm] = (hosted[vm][0], sid)
        elif kind == "remove" and vm in hosted:
            p.remove(vm)
            del hosted[vm]
        assert p.capacity_ok()
        fresh = Placement(servers)
        for v, (d, s) in sorted(hosted.items()):
            fresh.assign(v, d, s)
        for d in demands:
            for s in servers:
                assert p.fits(s, d) == fresh.fits(s, d)


# Flavors and their micro-units, written out, so a stale demand row shows.
_FLAVORS = [(1.0, 1.0, 1.0), (0.5, 2.0, 0.25), (1.5, 0.1, 3.0)]
_FLAVOR_UNITS = [
    (10**6, 10**6, 10**6),
    (500_000, 2 * 10**6, 250_000),
    (1_500_000, 100_000, 3 * 10**6),
]


def _assert_placement_agrees(p, servers, hosted):
    """The VM-indexed host and demand arrays and the per-row VM counts agree
    with the queries and with ``hosted`` (vm -> (server, flavor index))."""
    where = {vm: sid for vm, (sid, _flavor) in hosted.items()}
    ids = list(range(-1, 20))  # beyond the largest id ever placed, and VM 0
    assert [p.server_of(vm) for vm in ids] == [where.get(vm) for vm in ids]
    assert p.placed().tolist() == sorted(where)
    assert p.vm_ids == frozenset(where)
    rows = {sid: row for row, sid in enumerate(servers)}
    want_rows = [rows[where[vm]] if vm in where else -1 for vm in ids[1:]]
    assert p.host_rows(ids[1:]).tolist() == want_rows
    assert p.host_rows(np.array(ids[1:], dtype=np.intp)).tolist() == want_rows
    on = [sorted(vm for vm, sid in where.items() if sid == s) for s in servers]
    assert [p.vms_on(sid).tolist() for sid in servers] == on
    assert p._count.tolist() == [len(vms) for vms in on]
    assert p.occupied().tolist() == [bool(vms) for vms in on]
    units = {vm: _FLAVOR_UNITS[flavor] for vm, (_sid, flavor) in hosted.items()}
    for vm in ids[1:]:
        if vm in units:
            assert p.demand_units(vm) == units[vm]
        else:
            with pytest.raises(KeyError):
                p.demand_units(vm)
    placed = p.placed()
    assert p.demand_units_array(placed).tolist() == [list(units[vm]) for vm in placed.tolist()]
    for sid, vms in zip(servers, on):
        used = [sum(units[vm][k] for vm in vms) for k in range(3)]
        assert p.free_units(sid) == tuple(4 * 10**6 - u for u in used)
    assert p.capacity_ok()


_CHURN = st.lists(
    st.tuples(
        st.sampled_from(["assign", "move", "remove", "copy"]),
        st.integers(0, 15),  # VM id, 0 included
        st.integers(0, 3),  # server index
        st.booleans(),  # after a copy: go on with the clone
        st.integers(0, len(_FLAVORS) - 1),  # flavor of an assign
    ),
    max_size=50,
)


@settings(max_examples=150, deadline=None)
@given(
    sids=st.lists(st.integers(0, 10**6), min_size=1, max_size=4, unique=True),
    ops=_CHURN,
)
# VM 3 leaves and comes back with another flavor: its stale demand row must
# be overwritten, not added to or kept.
@example(
    sids=[7],
    ops=[("assign", 3, 0, False, 2), ("remove", 3, 0, False, 0), ("assign", 3, 0, False, 1)],
)
# A clone grows its arrays for a larger VM id after the copy and rewrites
# VM 1's demand row; the original must keep what it held.
@example(
    sids=[7, 2],
    ops=[
        ("assign", 1, 0, False, 0),
        ("copy", 0, 0, True, 0),
        ("assign", 15, 1, False, 1),
        ("remove", 1, 0, False, 0),
        ("assign", 1, 1, False, 2),
        ("copy", 0, 0, False, 0),
        ("assign", 12, 0, False, 1),
    ],
)
def test_host_array_agrees_with_queries_under_churn(sids, ops):
    """Sparse, unsorted server ids; assign (with a drawn flavor), move,
    remove and copy in any order.  After each step the host and demand
    arrays and the row counts agree with ``server_of``, ``vms_on``,
    ``demand_units``, ``free_units`` and ``occupied()``, and every copy
    still holds exactly what it held when it was taken."""
    servers = {sid: Server(sid, ResourceVector(4.0, 4.0, 4.0)) for sid in sids}
    demands = [ResourceVector(*f) for f in _FLAVORS]
    p, hosted = Placement(servers), {}
    frozen = []  # (placement, its contents) that nothing mutates any more
    for kind, vm, index, swap, flavor in ops:
        sid = sids[index % len(sids)]
        if kind == "assign":
            if vm in hosted:
                with pytest.raises(CapacityError):
                    p.assign(vm, demands[flavor], sid)
            elif p.fits(sid, demands[flavor]):
                p.assign(vm, demands[flavor], sid)
                hosted[vm] = (sid, flavor)
        elif kind == "move" and vm in hosted and p.fits(sid, demands[hosted[vm][1]]):
            p.move(vm, sid)
            hosted[vm] = (sid, hosted[vm][1])
        elif kind == "remove":
            if vm in hosted:
                assert p.remove(vm) == hosted.pop(vm)[0]
            else:
                with pytest.raises(KeyError):
                    p.remove(vm)
        elif kind == "copy":
            clone = p.copy()
            if swap:
                p, clone = clone, p
            frozen.append((clone, dict(hosted)))
        _assert_placement_agrees(p, servers, hosted)
    for clone, contents in frozen:
        _assert_placement_agrees(clone, servers, contents)


def test_capacity_ok_catches_drift_in_free_or_demand_rows():
    """The gate recomputes every server's sums from the host and demand
    arrays: a free-capacity row or a placed VM's demand row that no longer
    agrees with the others fails it, even inside capacity."""
    servers = make_servers(2, cpu=1000.0)
    p = Placement(servers)
    p.assign(1, ResourceVector(400.0, 1.0, 1.0), 1)
    p.assign(2, ResourceVector(100.0, 1.0, 1.0), 2)
    assert p.capacity_ok()
    drifted = p.copy()
    drifted._free[1, 0] -= 1  # server 2 appears one unit fuller
    assert not drifted.capacity_ok()
    drifted = p.copy()
    drifted._units[1, 2] += 1  # VM 1 appears one unit larger
    assert not drifted.capacity_ok()
    drifted = p.copy()
    drifted._count[0] += 1  # server 1 appears to host another VM
    assert not drifted.capacity_ok()
    p.remove(2)
    p._units[2] = 10**9  # a stale row of an unplaced VM counts for nothing
    assert p.capacity_ok()


def test_placement_rejects_negative_vm_ids():
    p = Placement(make_servers(1))
    with pytest.raises(ValueError, match="non-negative"):
        p.assign(-1, ResourceVector(1.0, 1.0, 1.0), 1)
    assert p.placed().size == 0 and p.server_of(-1) is None


def test_placement_rejects_capacity_above_ceiling():
    """Loads are int64 micro-units; a capacity above 1e12 could overflow them."""
    Placement(make_servers(1, cpu=1e12))
    with pytest.raises(ValueError, match="must not exceed"):
        Placement(make_servers(1, cpu=1e13))
