"""Entity and placement-map tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscmc.model import (
    AdmissionDecision,
    CapacityError,
    GuaranteedThreshold,
    Link,
    Placement,
    ResourceVector,
    Server,
    Vm,
    admit_vm,
    sync_active,
)


def make_servers(n, cpu=2000.0, mem=2048.0, bw=10000.0, reserved=()):
    return {
        sid: Server(
            id=sid,
            capacity=ResourceVector(cpu, mem, bw),
            reserved_for_hogs=sid in reserved,
        )
        for sid in range(1, n + 1)
    }


def test_resource_vector_arithmetic():
    a = ResourceVector(100.0, 200.0, 300.0)
    b = ResourceVector(1.0, 2.0, 3.0)
    assert (a + b).as_tuple() == (101.0, 202.0, 303.0)
    assert (a - b).as_tuple() == (99.0, 198.0, 297.0)
    assert ResourceVector.zero().as_tuple() == (0.0, 0.0, 0.0)


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


def test_link_rejects_self_loop():
    with pytest.raises(ValueError):
        Link(3, 3)
    assert Link(1, 2).ends == (1, 2)


def test_server_validation():
    with pytest.raises(ValueError):
        Server(1, ResourceVector(1, 1, 1), vulnerability_score=11.0)
    with pytest.raises(ValueError):
        Server(1, ResourceVector(1, 1, 1), pw_idle=200.0, pw_min=100.0)


def test_admit_vm_accepts_when_some_server_could_host():
    servers = make_servers(2, cpu=1000.0)
    vm = Vm(1, 1, ResourceVector(900.0, 100.0, 100.0))
    assert admit_vm(vm, servers).accepted


def test_admit_vm_rejects_oversized_demand():
    servers = make_servers(2, cpu=1000.0)
    vm = Vm(1, 1, ResourceVector(1100.0, 100.0, 100.0))
    decision = admit_vm(vm, servers)
    assert decision == AdmissionDecision(False, "demand exceeds every server capacity")


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


def test_co_located():
    servers = make_servers(2)
    p = Placement(servers)
    d = ResourceVector(1.0, 1.0, 1.0)
    p.assign(1, d, 1)
    p.assign(2, d, 1)
    p.assign(3, d, 2)
    assert p.co_located(1, 2)
    assert not p.co_located(1, 3)
    assert not p.co_located(1, 99)


def test_sync_active_follows_occupancy_and_reservation():
    servers = make_servers(3, reserved={3})
    p = Placement(servers)
    p.assign(1, ResourceVector(1.0, 1.0, 1.0), 1)
    sync_active(servers, p)
    assert servers[1].active
    assert not servers[2].active
    assert servers[3].active  # reserved servers stay powered
    p.remove(1)
    sync_active(servers, p)
    assert not servers[1].active


def test_placement_random_mutations_never_violate_capacity():
    """Randomised assign/move/remove churn keeps the capacity invariant."""
    rng = np.random.default_rng(11)
    for _ in range(50):
        servers = make_servers(4, cpu=1000.0, mem=1000.0, bw=1000.0)
        p = Placement(servers)
        placed = {}
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
                    placed[vm] = sid
            elif roll < 0.75 and placed:
                vm = int(rng.choice(sorted(placed)))
                sid = int(rng.integers(1, 5))
                if p.fits(sid, p.demand_of(vm)) or sid == placed[vm]:
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


def test_guaranteed_threshold_defaults():
    vm = Vm(1, 1, ResourceVector(1.0, 1.0, 1.0))
    assert vm.guaranteed == GuaranteedThreshold(0.0, 0.0)
