"""Clustering, placement and rebalancing tests."""

import dataclasses
import itertools
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import oscmc
from oscmc.allocator import (
    ClusterCountError,
    PlacementInfeasibleError,
    _lloyd,
    ffd_place,
    first_fit_place,
    kmeans,
    rebalance,
)
from oscmc.engine import pssf_place
from oscmc.model import CapacityError, Placement, ResourceVector, Server, to_units


def make_servers(n, cpu=2000.0, mem=2048.0, bw=10000.0, reserved=()):
    return {
        sid: Server(
            id=sid,
            capacity=ResourceVector(cpu, mem, bw),
            reserved_for_hogs=sid in reserved,
        )
        for sid in range(1, n + 1)
    }


def brute_force_sse(values, k):
    """Minimum within-cluster squared distance over every label vector."""
    values = np.asarray(values, dtype=float)
    best = float("inf")
    for labels in itertools.product(range(k), repeat=values.size):
        labels = np.asarray(labels)
        sse = 0.0
        for c in range(k):
            members = values[labels == c]
            if members.size:
                sse += float(((members - members.mean()) ** 2).sum())
        best = min(best, sse)
    return best


def test_kmeans_matches_brute_force_on_small_inputs():
    rng = np.random.default_rng(31)
    for trial in range(40):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, 4))
        if k > n:
            continue
        values = rng.uniform(0.0, 1000.0, n)
        result = kmeans(values, k, seed=trial)
        optimum = brute_force_sse(values, k)
        assert result.objective <= optimum * 1.05 + 1e-9
        assert len(result.labels) == n
        assert len(result.centroids) == k


def test_kmeans_objective_trace_never_increases():
    rng = np.random.default_rng(32)
    for trial in range(20):
        values = rng.uniform(0.0, 500.0, int(rng.integers(4, 40)))
        result = kmeans(values, 3, seed=trial)
        trace = result.objective_trace
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
        assert result.objective == trace[-1]


def test_kmeans_separates_obvious_groups():
    values = [10.0, 11.0, 12.0, 500.0, 510.0, 990.0, 1000.0]
    result = kmeans(values, 3, seed=0)
    top = result.top_cluster()
    assert {v for v, label in zip(values, result.labels) if label == top} == {990.0, 1000.0}


def test_kmeans_handles_duplicate_heavy_input():
    values = [5.0] * 6 + [100.0]
    result = kmeans(values, 3, seed=1)
    assert result.labels.count(result.labels[-1]) == 1  # the outlier sits alone


def test_kmeans_more_clusters_than_points():
    with pytest.raises(ClusterCountError, match="more clusters than points"):
        kmeans([1.0, 2.0], 3)
    with pytest.raises(ClusterCountError):
        kmeans([1.0, 2.0], 0)


def test_kmeans_is_deterministic_per_seed():
    values = np.random.default_rng(33).uniform(0, 100, 30)
    a = kmeans(values, 3, seed=5)
    b = kmeans(values, 3, seed=5)
    assert a.labels == b.labels and a.centroids == b.centroids


def _reference_kmeans(values, n_clusters, seed=0, restarts=10, max_iter=100):
    """``kmeans`` as it was when it drew its seeds from ``np.unique``."""
    vals = np.asarray(list(values), dtype=float)
    unique = np.unique(vals)
    best = None
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        if unique.size >= n_clusters:
            init = rng.choice(unique, size=n_clusters, replace=False)
        else:
            extra = rng.choice(vals, size=n_clusters - unique.size, replace=True)
            init = np.concatenate([unique, extra])
        labels, cents, objective, trace = _lloyd(vals, init.astype(float), max_iter)
        if best is None or objective < best[2]:
            best = (labels, cents, objective, trace)
    return best


@settings(max_examples=300, deadline=None)
@given(
    # Few distinct values, so draws repeat; both zeros and NaN sort and
    # compare apart from the rest.
    st.lists(
        st.sampled_from([0.0, -0.0, 1.0, 2.5, 7.0, 1e150, -3.0, float("nan")]),
        min_size=1,
        max_size=12,
    )
    | st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=40),
    st.integers(1, 5),
    st.integers(0, 2**16),
)
def test_kmeans_equals_the_np_unique_version(values, k, seed):
    if k > len(values):
        return
    result = kmeans(values, k, seed=seed, restarts=3)
    labels, cents, objective, trace = _reference_kmeans(values, k, seed, restarts=3)
    assert result.labels == labels.tolist()
    assert np.array(result.centroids).tobytes() == cents.tobytes()
    assert np.array(result.objective_trace).tobytes() == np.array(trace).tobytes()


def test_kmeans_leaves_numpy_ma_unimported():
    """A plain ``np.unique`` imports ``numpy.ma`` (about 1 MB) on its first call."""
    code = (
        "import sys\n"
        "from oscmc.allocator import kmeans\n"
        "assert 'numpy.ma' not in sys.modules\n"
        "kmeans([3.0, 1.0, 1.0, 2.0, 9.0], 2)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(oscmc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert out.stdout.split() == ["False"]


def test_ffd_sorts_by_bandwidth_then_id():
    servers = make_servers(3, cpu=10000.0, mem=10000.0, bw=2000.0)
    d = ResourceVector(10.0, 10.0, 900.0)
    items = [(1, d, 500.0), (2, d, 900.0), (3, d, 900.0), (4, d, 100.0)]
    placed = ffd_place(items, servers, Placement(servers))
    # Order 2, 3 (tie broken by id), 1, 4; two fit per server by bandwidth.
    assert placed.server_of(2) == 1
    assert placed.server_of(3) == 1
    assert placed.server_of(1) == 2
    assert placed.server_of(4) == 2


def test_ffd_hand_packed_oracle():
    """Eleven uniform VMs pack four per server: 4 + 4 + 3."""
    servers = make_servers(3)
    d = ResourceVector(500.0, 512.0, 1000.0)
    items = [(vm, d, 1000.0) for vm in range(1, 12)]
    placed = ffd_place(items, servers, Placement(servers))
    sizes = sorted(len(placed.vms_on(sid)) for sid in servers)
    assert sizes == [3, 4, 4]
    assert placed.vms_on(1).tolist() == [1, 2, 3, 4]
    assert placed.capacity_ok()


def test_ffd_respects_eligible_filter():
    servers = make_servers(3)
    d = ResourceVector(100.0, 100.0, 100.0)
    placed = ffd_place([(1, d, 1.0)], servers, Placement(servers), eligible=[3])
    assert placed.server_of(1) == 3


def test_ffd_infeasible_names_vm_and_preserves_input():
    servers = make_servers(1, cpu=1000.0)
    base = Placement(servers)
    base.assign(99, ResourceVector(800.0, 1.0, 1.0), 1)
    d = ResourceVector(300.0, 1.0, 1.0)
    with pytest.raises(PlacementInfeasibleError, match="VM 7"):
        ffd_place([(7, d, 1.0)], servers, base)
    assert base.vm_ids == frozenset({99})


def test_rebalance_steady_state_is_identity():
    servers = make_servers(2)
    p = Placement(servers)
    p.assign(1, ResourceVector(1.0, 1.0, 1.0), 1)
    result = rebalance(0, p, servers)
    assert result.placement.server_of(1) == 1
    assert result.moved == [] and result.emptied_servers == []


def test_rebalance_overload_moves_hogs_to_reserved():
    servers = make_servers(3, reserved={3})
    p = Placement(servers)
    d = ResourceVector(100.0, 100.0, 2000.0)
    p.assign(1, d, 1)
    p.assign(2, d, 2)
    result = rebalance(1, p, servers, hog_vms=[(1, 5000.0), (2, 4000.0)])
    assert result.placement.server_of(1) == 3
    assert result.placement.server_of(2) == 3
    assert result.moved == [(1, 1, 3), (2, 2, 3)]
    assert result.residual_hogs == []


def test_rebalance_overload_reports_residual_hogs():
    servers = make_servers(2, reserved={2}, bw=1000.0)
    p = Placement(servers)
    d = ResourceVector(10.0, 10.0, 800.0)
    p.assign(1, d, 1)
    p.assign(2, ResourceVector(10.0, 10.0, 900.0), 2)  # reserved nearly full
    result = rebalance(1, p, servers, hog_vms=[(1, 9000.0)])
    assert result.placement.server_of(1) == 1
    assert result.residual_hogs == [1]


def test_rebalance_overload_leaves_hogs_already_on_reserved():
    servers = make_servers(2, reserved={2})
    p = Placement(servers)
    p.assign(1, ResourceVector(1.0, 1.0, 1.0), 2)
    result = rebalance(1, p, servers, hog_vms=[(1, 100.0)])
    assert result.placement.server_of(1) == 2
    assert result.moved == []


def test_rebalance_underload_consolidates_least_utilised():
    servers = make_servers(3)
    p = Placement(servers)
    p.assign(1, ResourceVector(1500.0, 1500.0, 1500.0), 1)
    p.assign(2, ResourceVector(100.0, 100.0, 100.0), 2)
    p.assign(3, ResourceVector(1000.0, 1000.0, 1000.0), 3)
    result = rebalance(-1, p, servers)
    # Server 2 is the lightest and its VM fits elsewhere.
    assert 2 in result.emptied_servers
    assert result.placement.vms_on(2).tolist() == []
    assert result.placement.capacity_ok()


def test_rebalance_underload_is_all_or_nothing():
    servers = make_servers(2, cpu=1000.0)
    p = Placement(servers)
    # Server 1 holds two VMs; only one could ever fit on server 2.
    p.assign(1, ResourceVector(400.0, 1.0, 1.0), 1)
    p.assign(2, ResourceVector(400.0, 1.0, 1.0), 1)
    p.assign(3, ResourceVector(500.0, 1.0, 1.0), 2)
    result = rebalance(-1, p, servers)
    assert result.emptied_servers == []
    assert result.placement.server_of(1) == 1
    assert result.placement.server_of(2) == 1


def _hosts(p: Placement) -> dict[int, int]:
    return {vm: p.server_of(vm) for vm in p.vm_ids}


def test_rebalance_copies_the_placement_only_at_the_first_move():
    """A steady state, an underload that drains nothing and an overload with
    no hog to move return the input itself, uncopied; a drain copies once
    and leaves the input as it was."""
    servers = make_servers(3, cpu=1000.0, reserved={3})
    p = Placement(servers)
    p.assign(1, ResourceVector(400.0, 1.0, 1.0), 1)
    p.assign(2, ResourceVector(400.0, 1.0, 1.0), 1)
    p.assign(3, ResourceVector(500.0, 1.0, 1.0), 2)
    copy = Placement.copy
    with mock.patch.object(Placement, "copy", autospec=True, side_effect=copy) as copies:
        for state, hogs in ((0, None), (-1, None), (1, [(7, 1.0)])):
            result = rebalance(state, p, servers, hog_vms=hogs)
            assert result.placement is p and not result.moved
        assert copies.call_count == 0

        p.remove(3)
        p.assign(3, ResourceVector(100.0, 1.0, 1.0), 2)
        before = _hosts(p)
        result = rebalance(-1, p, servers)
        assert result.emptied_servers == [2] and result.placement is not p
        assert copies.call_count == 1
        assert _hosts(p) == before and _hosts(result.placement) == {1: 1, 2: 1, 3: 1}
        # Server 2 is empty in the result, as server 3 is in both.
        assert p.free_units(2) != result.placement.free_units(2) == p.free_units(3)

        # Two hogs move, on one copy.
        result = rebalance(1, p, servers, hog_vms=[(1, 5.0), (2, 4.0)])
        assert result.moved == [(1, 1, 3), (2, 1, 3)]
        assert copies.call_count == 2 and _hosts(p) == before


def test_rebalance_underload_respects_max_consolidations():
    servers = make_servers(4, cpu=4000.0)
    p = Placement(servers)
    for vm, sid in ((1, 1), (2, 2), (3, 3), (4, 4)):
        p.assign(vm, ResourceVector(100.0, 100.0, 100.0), sid)
    result = rebalance(-1, p, servers, max_consolidations=1)
    assert len(result.emptied_servers) == 1


def test_rebalance_never_violates_capacity_random_churn():
    rng = np.random.default_rng(34)
    for trial in range(200):
        n_srv = int(rng.integers(2, 6))
        reserved = {n_srv} if rng.random() < 0.5 else set()
        servers = make_servers(n_srv, cpu=1000.0, mem=1000.0, bw=1000.0, reserved=reserved)
        p = Placement(servers)
        vm = 1
        for _ in range(int(rng.integers(1, 10))):
            d = ResourceVector(*(float(x) for x in rng.integers(50, 400, 3)))
            sid = int(rng.integers(1, n_srv + 1))
            if p.fits(sid, d):
                p.assign(vm, d, sid)
                vm += 1
        state = int(rng.choice([-1, 0, 1]))
        hogs = [(v, float(rng.uniform(0, 1000))) for v in sorted(p.vm_ids) if rng.random() < 0.4]
        result = rebalance(state, p, servers, hog_vms=hogs)
        assert result.placement.capacity_ok()
        assert result.placement.vm_ids == p.vm_ids  # no VM dropped or invented


def test_first_fit_finds_no_host_for_demand_above_ceiling():
    """A demand above the int64-safe ceiling fits nowhere and does not overflow."""
    servers = make_servers(2, cpu=1e12)
    p = Placement(servers)
    assert first_fit_place([(1, ResourceVector(1e12, 1.0, 1.0))], servers, p).server_of(1) == 1
    with pytest.raises(PlacementInfeasibleError, match="no server fits VM 1$"):
        first_fit_place([(1, ResourceVector(1e20, 1.0, 1.0))], servers, p)
    assert not p.fits(1, ResourceVector(1e20, 1.0, 1.0))


# Sparse server ids in unsorted insertion order, so a server's row in the
# placement differs from its rank in id order.
_SPARSE_IDS = (9, 2, 14, 5)
_DECIMAL = st.sampled_from([0.1, 0.2, 0.3, 0.7])
_CAP = st.sampled_from([0.9, 1.0, 1.1, 1.3])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    caps=st.lists(st.tuples(_CAP, _CAP, _CAP), min_size=4, max_size=4),
    reserved=st.sets(st.sampled_from(_SPARSE_IDS), max_size=2),
    flavors=st.lists(st.tuples(_DECIMAL, _DECIMAL, _DECIMAL), min_size=3, max_size=3),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["assign", "move", "remove"]),
            st.integers(0, 9),  # VM id
            st.integers(0, 2),  # flavor index
            st.sampled_from(_SPARSE_IDS),
        ),
        max_size=40,
    ),
    scans=st.lists(st.lists(st.sampled_from(_SPARSE_IDS), unique=True), max_size=4),
)
def test_sparse_unsorted_server_ids_behave_as_relabelled_fleet(
    caps, reserved, flavors, ops, scans
):
    """On servers {9, 2, 14, 5} (in that dict order) with decimal flavors and
    any assign/move/remove history: fit_mask over any scan marks exactly the
    servers that fit; rebalance in every state decides as on the same fleet
    relabelled 1..4 in id order; and mutating a copy leaves the original."""
    relabel = {sid: i for i, sid in enumerate(sorted(_SPARSE_IDS), start=1)}
    back = {i: sid for sid, i in relabel.items()}

    def fleet(label):
        return {
            label(sid): Server(
                id=label(sid), capacity=ResourceVector(*cap),
                reserved_for_hogs=sid in reserved,
            )
            for sid, cap in zip(_SPARSE_IDS, caps)
        }

    servers = fleet(lambda sid: sid)
    twin_servers = dict(sorted(fleet(relabel.get).items()))
    demands = [ResourceVector(*f) for f in flavors]
    p, twin = Placement(servers), Placement(twin_servers)
    held = {}  # vm -> the demand it was assigned
    for kind, vm, flavor, sid in ops:
        if kind == "assign" and p.server_of(vm) is None and p.fits(sid, demands[flavor]):
            p.assign(vm, demands[flavor], sid)
            twin.assign(vm, demands[flavor], relabel[sid])
            held[vm] = demands[flavor]
        elif kind == "move" and p.server_of(vm) is not None and p.fits(sid, held[vm]):
            p.move(vm, sid)
            twin.move(vm, relabel[sid])
        elif kind == "remove" and p.server_of(vm) is not None:
            p.remove(vm)
            twin.remove(vm)
    assert p.capacity_ok()

    for scan in scans + [list(_SPARSE_IDS), sorted(_SPARSE_IDS)]:
        for d in demands:
            assert p.fit_mask(to_units(d), p.rows(scan)).tolist() == [p.fits(s, d) for s in scan]

    hogs = [(vm, float(vm % 3)) for vm in sorted(p.vm_ids)]
    for state in (-1, 0, 1):
        got = rebalance(state, p, servers, hog_vms=hogs)
        want = rebalance(state, twin, twin_servers, hog_vms=hogs)
        assert got.moved == [(vm, back[o], back[t]) for vm, o, t in want.moved]
        assert got.emptied_servers == [back[s] for s in want.emptied_servers]
        assert got.residual_hogs == want.residual_hogs
        for vm in p.vm_ids:
            assert got.placement.server_of(vm) == back[want.placement.server_of(vm)]

    before = {s: (p.used(s), [p.fits(s, d) for d in demands]) for s in servers}
    clone = p.copy()
    for vm in sorted(clone.vm_ids):
        clone.remove(vm)
    for vm, sid in enumerate(_SPARSE_IDS, start=100):
        if clone.fits(sid, demands[0]):
            clone.assign(vm, demands[0], sid)
            for target in _SPARSE_IDS:
                if clone.fits(target, demands[0]):
                    clone.move(vm, target)
    assert {s: (p.used(s), [p.fits(s, d) for d in demands]) for s in servers} == before


def reference_consolidate(placement, servers, demands, max_consolidations=2):
    """The underload branch of ``rebalance`` as a move-and-undo loop: the
    ordinary servers, least utilised first, each move their VMs (by
    descending bandwidth, ties by id; ``demands`` maps each VM to the demand
    it was assigned) one at a time to the first other server that fits, and
    move them back when a later one fits nowhere.  Returns (placement,
    moved, emptied)."""
    p = placement.copy()
    moved, emptied = [], []

    def mean_utilisation(sid):
        used, cap = p.used(sid).as_tuple(), p.capacity(sid).as_tuple()
        return sum(u / c if c > 0 else 0.0 for u, c in zip(used, cap)) / 3.0

    ordinary = sorted(
        sid for sid, s in servers.items() if not s.reserved_for_hogs and p.vms_on(sid).size
    )
    for sid in sorted(ordinary, key=lambda sid: (mean_utilisation(sid), sid)):
        if len(emptied) >= max_consolidations:
            break
        if emptied:
            event("a trial after a drain")
        moves = []
        for vm_id in sorted(p.vms_on(sid).tolist(), key=lambda v: (-demands[v].bw, v)):
            demand = demands[vm_id]
            target = next((t for t in ordinary if t != sid and p.fits(t, demand)), None)
            if target is None:
                if moves:
                    event("a later VM of a candidate fits nowhere")
                for moved_vm, origin, _t in reversed(moves):
                    p.move(moved_vm, origin)
                break
            if any(t == target for _vm, _o, t in moves):
                event("two VMs of a candidate on one target")
            p.move(vm_id, target)
            moves.append((vm_id, sid, target))
        else:
            moved.extend(moves)
            emptied.append(sid)
            ordinary.remove(sid)
    return p, moved, emptied


def _tie_fleet(bw):
    """Server 2 (the least utilised) holds VM 1 (cpu 0.2, bandwidth 0.3) and
    VM 4 (cpu 0.7, bandwidth ``bw``); server 5 has room for cpu 0.8 and
    server 8 for 1.4, so the VM moved first takes server 5 and the other
    goes on to server 8 if it no longer fits there.  Returns (servers,
    placement, demands)."""
    servers = {sid: Server(sid, ResourceVector(2.1, 2.1, 2.1)) for sid in (5, 2, 8)}
    demands = {
        10: ResourceVector(1.3, 0.7, 0.7),
        1: ResourceVector(0.2, 0.1, 0.3),
        4: ResourceVector(0.7, 0.1, bw),
        11: ResourceVector(0.7, 0.7, 0.7),
    }
    p = Placement(servers)
    for vm, sid in ((10, 5), (1, 2), (4, 2), (11, 8)):
        p.assign(vm, demands[vm], sid)
    return servers, p, demands


def test_consolidation_ties_bandwidths_within_a_micro_unit_by_id():
    """A candidate's VMs go by descending bandwidth in micro-units, ties by
    ascending id: bandwidths that round to the same unit tie, whatever their
    cpu, and one unit apart they do not."""
    for bw, moved in (
        (0.3, [(1, 2, 5), (4, 2, 8)]),
        (0.3000004, [(1, 2, 5), (4, 2, 8)]),  # 300000 units, as VM 1
        (0.300001, [(4, 2, 5), (1, 2, 8)]),
    ):
        servers, p, _demands = _tie_fleet(bw)
        result = rebalance(-1, p, servers, max_consolidations=1)
        assert result.moved == moved
        assert result.emptied_servers == [2]


# Capacities that fit a few flavors each, so that a candidate's VMs can
# share a target.
_ROOMY = st.sampled_from([0.9, 1.3, 1.7, 2.1])


@st.composite
def consolidation_fleets(draw):
    """Up to 12 servers with sparse ids in unsorted order, some reserved for
    hogs, decimal capacities and flavors, and an assign/move history."""
    ids = draw(st.lists(st.integers(1, 99), min_size=2, max_size=12, unique=True))
    reserved = draw(st.sets(st.sampled_from(ids), max_size=2))
    servers = {
        sid: Server(
            id=sid,
            capacity=ResourceVector(*draw(st.tuples(_ROOMY, _ROOMY, _ROOMY))),
            reserved_for_hogs=sid in reserved,
        )
        for sid in ids
    }
    flavors = draw(st.lists(st.tuples(_DECIMAL, _DECIMAL, _DECIMAL), min_size=1, max_size=4))
    p, demands = Placement(servers), {}
    for kind, vm, flavor, sid in draw(
        st.lists(
            st.tuples(
                st.sampled_from(["assign", "assign", "move"]),
                st.integers(0, 24),  # VM id
                st.integers(0, len(flavors) - 1),
                st.sampled_from(ids),
            ),
            min_size=10,
            max_size=60,
        )
    ):
        demand = ResourceVector(*flavors[flavor])
        if kind == "assign" and p.server_of(vm) is None and p.fits(sid, demand):
            p.assign(vm, demand, sid)
            demands[vm] = demand
        elif kind == "move" and p.server_of(vm) is not None and p.fits(sid, demands[vm]):
            p.move(vm, sid)
    return servers, p, demands


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(fleet=consolidation_fleets(), max_consolidations=st.integers(0, 3))
@example(fleet=_tie_fleet(0.3), max_consolidations=2)  # equal bandwidths, cpu apart
def test_consolidation_matches_move_and_undo_reference(fleet, max_consolidations):
    """``rebalance(-1)`` drains the same servers, records the same moves and
    leaves every VM and every server's load as the move-and-undo loop."""
    servers, p, demands = fleet
    want, moved, emptied = reference_consolidate(p, servers, demands, max_consolidations)
    got = rebalance(-1, p, servers, max_consolidations=max_consolidations)
    assert got.moved == moved
    assert got.emptied_servers == emptied
    assert {vm: got.placement.server_of(vm) for vm in p.vm_ids} == {
        vm: want.server_of(vm) for vm in p.vm_ids
    }
    assert {s: got.placement.used(s) for s in servers} == {s: want.used(s) for s in servers}
    assert got.placement.capacity_ok()


def test_consolidation_scans_once_per_demand_and_moves_nothing_it_keeps(monkeypatch):
    """No server can drain, and the VMs take two flavors: one underload call
    scans the fleet once per flavor and makes no move, tentative or kept."""
    calls = {"fit_mask": 0, "move": 0}
    for name in calls:
        original = getattr(Placement, name)

        def counting(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(Placement, name, counting)

    servers = make_servers(8, cpu=1000.0)
    p = Placement(servers)
    large, small = ResourceVector(500.0, 1.0, 2.0), ResourceVector(300.0, 1.0, 1.0)
    vm = 0
    for sid in servers:
        # Servers 1-4 are full with two large VMs; 5-8 hold a large and a
        # small VM (200 free) or, on 8, two small VMs (400 free).
        for demand in ((large, large) if sid <= 4 else (large, small) if sid < 8 else (small, small)):
            vm += 1
            p.assign(vm, demand, sid)
    result = rebalance(-1, p, servers)
    assert result.emptied_servers == [] and result.moved == []
    assert calls == {"fit_mask": 2, "move": 0}


def _same_consolidation(got, want):
    """Two underload results agree: moves, drained servers and every VM's row."""
    ids = np.arange(32)
    assert got.moved == want.moved
    assert got.emptied_servers == want.emptied_servers
    assert np.array_equal(got.placement.host_rows(ids), want.placement.host_rows(ids))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    fleet=consolidation_fleets(),
    steps=st.lists(
        st.tuples(
            st.sampled_from(["none", "remove", "move", "assign_rows", "copy"]),
            st.integers(0, 31),  # VM id
            st.integers(0, 98),  # picks a server
            st.sampled_from(["given", "given", "unreserved", "flipped"]),  # reserved set
            st.sampled_from([2, 2, 2, 0, 1, 3]),  # max_consolidations
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_undrainable_state_is_remembered_only_until_it_changes(fleet, steps):
    """Each step mutates or copies the placement (or not) and then makes an
    underload call on it twice.  Both calls equal the same call on a fresh
    ``copy()``, which remembers nothing, so a state that drained nothing is
    never served after a mutation, under another reserved set or another
    ``max_consolidations``, and a state that drained is tried again."""
    servers, p, demands = fleet
    ids = sorted(servers)
    fleets = {
        "given": servers,
        "unreserved": {sid: dataclasses.replace(s, reserved_for_hogs=False)
                       for sid, s in servers.items()},
        "flipped": {sid: dataclasses.replace(s, reserved_for_hogs=not s.reserved_for_hogs)
                    for sid, s in servers.items()},
    }
    last = None  # (placement, reserved set, max_consolidations) of a call that drained nothing
    for kind, vm, pick, reserved, max_consolidations in steps:
        sid = ids[pick % len(ids)]
        changed = False
        if kind == "remove" and p.server_of(vm) is not None:
            p.remove(vm)
            changed = True
        elif kind == "move" and p.server_of(vm) is not None and p.fits(sid, demands[vm]):
            changed = p.server_of(vm) != sid
            p.move(vm, sid)
        elif kind == "assign_rows" and p.server_of(vm) is None:
            demand = demands.get(vm) or next(iter(demands.values()), ResourceVector(0.1, 0.1, 0.1))
            if p.fits(sid, demand):
                p.assign_rows([vm], [to_units(demand)], p.rows([sid]))
                demands[vm] = demand
                changed = True
        elif kind == "copy":
            p = p.copy()
        assert p.capacity_ok()
        if last is not None and last[0] is p:
            event("a state that drained nothing, mutated" if changed else
                  "a state that drained nothing, again" if last[1:] == (reserved, max_consolidations)
                  else "a state that drained nothing, another witness")
        want = rebalance(-1, p.copy(), fleets[reserved], max_consolidations=max_consolidations)
        for _ in range(2):
            got = rebalance(-1, p, fleets[reserved], max_consolidations=max_consolidations)
            _same_consolidation(got, want)
        if got.emptied_servers:
            event("a drain")
        last = None if got.emptied_servers else (p, reserved, max_consolidations)
        p = got.placement


def reference_first_fit(items, placement, scan, prior=None):
    """The per-VM loop that ``first_fit_pass`` replaces: for each
    (vm_id, demand, owner), the owner's last server if ``prior`` names one
    that fits, else one ``fit_mask`` scan; then one ``assign``."""
    result = placement.copy()
    rows = result.rows(scan)
    for vm_id, demand, owner in items:
        last = prior.get(owner) if prior is not None else None
        if last is not None and result.fits(last, demand):
            target = last
        else:
            ok = result.fit_mask(to_units(demand), rows)
            target = scan[int(ok.argmax())] if ok.any() else None
        if target is None:
            raise PlacementInfeasibleError("placement infeasible: no server fits VM %d" % vm_id)
        result.assign(vm_id, demand, target)
        if prior is not None:
            prior[owner] = target
    return result


def _outcome(call):
    """A placement's arrays, or the type and message of what it raised."""
    try:
        p = call()
    except (PlacementInfeasibleError, CapacityError, ValueError) as exc:
        return type(exc), str(exc)
    assert p.capacity_ok()
    vms = p.placed()
    return (vms.tolist(), p.host_rows(vms).tolist(), p.demand_units_array(vms).tolist(),
            p._free.tolist(), p._count.tolist())


_NOWHERE = ResourceVector(5.0, 0.1, 0.1)  # above every drawn capacity
_ABOVE_CEILING = ResourceVector(1e20, 0.1, 0.1)


@settings(max_examples=300, deadline=None)
@given(
    sids=st.lists(st.integers(1, 40), min_size=1, max_size=6, unique=True),
    caps=st.lists(st.tuples(_CAP, _CAP, _CAP), min_size=6, max_size=6),
    flavors=st.lists(st.tuples(_DECIMAL, _DECIMAL, _DECIMAL), min_size=1, max_size=4),
    base_ops=st.lists(st.tuples(st.integers(20, 40), st.integers(0, 3), st.integers(0, 5)),
                      max_size=6),
    # (vm id, flavor code, owner, predicted bandwidth) with distinct ids, some
    # of them placed in the base; flavor codes 0 and 1 are the two demands
    # that fit nowhere.  ``repeat`` copies item j to position k.
    items=st.lists(st.tuples(st.integers(-1, 24), st.integers(0, 39), st.integers(1, 3),
                             st.sampled_from([0.0, 1.0, 2.5])),
                   max_size=12, unique_by=lambda it: it[0]),
    repeat=st.none() | st.tuples(st.integers(0, 11), st.integers(0, 12)),
    eligible=st.none() | st.lists(st.integers(0, 5), unique=True),
    history=st.dictionaries(st.integers(1, 3), st.integers(0, 5), max_size=3),
    # Positions of items whose demand is an equal object of its own.
    fresh=st.sets(st.integers(0, 12), max_size=6),
)
@example(  # an id the base placement holds already
    sids=[7, 3], caps=[(1.0, 1.0, 1.0)] * 6, flavors=[(0.3, 0.3, 0.3)],
    base_ops=[(24, 0, 0)], items=[(24, 2, 1, 0.0)], repeat=None, eligible=None, history={},
    fresh=set(),
)
@example(  # an id given twice, and a later VM that fits nowhere
    sids=[7, 3], caps=[(1.0, 1.0, 1.0)] * 6, flavors=[(0.3, 0.3, 0.3)], base_ops=[],
    items=[(5, 2, 1, 0.0), (6, 2, 1, 0.0), (9, 0, 1, 0.0)], repeat=(0, 2),
    eligible=None, history={}, fresh=set(),
)
@example(  # a VM that fits nowhere, then an id given twice
    sids=[7, 3], caps=[(1.0, 1.0, 1.0)] * 6, flavors=[(0.3, 0.3, 0.3)], base_ops=[],
    items=[(5, 2, 1, 0.0), (6, 2, 1, 0.0), (9, 0, 1, 0.0)], repeat=(0, 3),
    eligible=None, history={}, fresh=set(),
)
@example(  # an id the base holds, ahead of a VM that fits nowhere in every order
    sids=[7, 3], caps=[(1.0, 1.0, 1.0)] * 6, flavors=[(0.3, 0.3, 0.3)],
    base_ops=[(24, 0, 0)], items=[(24, 2, 1, 2.5), (9, 0, 1, 0.0)], repeat=None,
    eligible=None, history={}, fresh=set(),
)
@example(  # a VM that fits nowhere, ahead of an id the base holds in every order
    sids=[7, 3], caps=[(1.0, 1.0, 1.0)] * 6, flavors=[(0.3, 0.3, 0.3)],
    base_ops=[(24, 0, 0)], items=[(9, 0, 1, 0.0), (24, 2, 1, 0.0)], repeat=None,
    eligible=None, history={}, fresh=set(),
)
@example(  # a negative id, then a demand above the ceiling
    sids=[7, 3], caps=[(1.0, 1.0, 1.0)] * 6, flavors=[(0.3, 0.3, 0.3)], base_ops=[],
    items=[(-1, 2, 1, 0.0), (9, 1, 1, 0.0)], repeat=None, eligible=None, history={},
    fresh=set(),
)
@example(  # equal demands as three objects, tied bandwidths: one server holds two
    sids=[7, 3], caps=[(1.0, 1.0, 1.0)] * 6, flavors=[(0.45, 0.3, 0.3), (0.45, 0.3, 0.3)],
    base_ops=[], items=[(4, 2, 1, 1.0), (2, 3, 2, 1.0), (3, 2, 1, 1.0), (1, 3, 1, 1.0)],
    repeat=None, eligible=None, history={}, fresh={2},
)
@example(  # owner 1's last server is the second, though the first fits its next VM
    sids=[7, 3], caps=[(1.0, 1.0, 1.0)] * 6, flavors=[(0.3, 0.3, 0.3), (0.9, 0.3, 0.3)],
    base_ops=[], items=[(1, 2, 2, 0.0), (2, 3, 1, 0.0), (3, 2, 1, 0.0)], repeat=None,
    eligible=None, history={}, fresh=set(),
)
def test_first_fit_pass_equals_per_vm_reference(
    sids, caps, flavors, base_ops, items, repeat, eligible, history, fresh
):
    """first_fit_place, ffd_place (with ``eligible``) and pssf_place (with
    ``history``) give what the per-VM scan-and-assign loop gives, array for
    array, or raise what it raises with the same message, on sparse
    unsorted server ids over a pre-populated placement; the input placement
    and history stay unchanged.  Equal demands under distinct objects, tied
    predicted bandwidths, and a repeated, negative or already placed id on
    either side of a VM that fits nowhere are drawn, so the pass's demand
    kinds and the order of its errors are pinned."""
    servers = {sid: Server(sid, ResourceVector(*cap)) for sid, cap in zip(sids, caps)}
    demands = [ResourceVector(*f) for f in flavors]
    base = Placement(servers)
    for vm, flavor, at in base_ops:
        sid, demand = sids[at % len(sids)], demands[flavor % len(demands)]
        if base.server_of(vm) is None and base.fits(sid, demand):
            base.assign(vm, demand, sid)
    before = _outcome(lambda: base)
    if repeat and items:
        items.insert(repeat[1], items[repeat[0] % len(items)])
    code = lambda c: (_NOWHERE, _ABOVE_CEILING)[c] if c < 2 else demands[c % len(demands)]
    drawn = [(vm, code(c), owner, bw) for vm, c, owner, bw in items]
    drawn = [(vm, ResourceVector(*d.as_tuple()) if k in fresh else d, owner, bw)
             for k, (vm, d, owner, bw) in enumerate(drawn)]
    scan = sorted(servers)
    subset = None if eligible is None else sorted({sids[i % len(sids)] for i in eligible})
    prior = {owner: sids[i % len(sids)] for owner, i in history.items()}
    kept = dict(prior)

    got = _outcome(lambda: first_fit_place([(v, d) for v, d, _, _ in drawn], servers, base))
    assert got == _outcome(
        lambda: reference_first_fit([(v, d, None) for v, d, _, _ in drawn], base, scan))

    ordered = sorted(drawn, key=lambda it: (-it[3], it[0]))
    got = _outcome(lambda: ffd_place([(v, d, bw) for v, d, _, bw in drawn], servers, base,
                                     eligible=subset))
    assert got == _outcome(lambda: reference_first_fit(
        [(v, d, None) for v, d, _, _ in ordered], base, scan if subset is None else subset))

    got = _outcome(lambda: pssf_place([(v, o, d) for v, d, o, _ in drawn], servers, base, prior))
    assert got == _outcome(
        lambda: reference_first_fit([(v, d, o) for v, d, o, _ in drawn], base, scan, dict(prior)))

    assert _outcome(lambda: base) == before
    assert prior == kept


def test_assign_rows_names_the_first_vm_that_overruns_and_writes_nothing():
    servers = make_servers(2, cpu=1000.0)
    p = Placement(servers)
    p.assign(1, ResourceVector(500.0, 1.0, 1.0), 2)  # VM 6 fills server 2 exactly
    units = [to_units(ResourceVector(500.0, 1.0, 1.0))] * 4
    with pytest.raises(CapacityError, match="^placing VM 7 on server 2 would exceed capacity$"):
        p.assign_rows([5, 6, 7, 8], units, p.rows([1, 2, 2, 1]))
    assert p.placed().tolist() == [1] and p.free_units(1) == to_units(servers[1].capacity)
    assert p.capacity_ok()
    p.assign_rows([5, 6, 9], units[:3], p.rows([1, 2, 1]))
    assert [p.server_of(v) for v in (1, 5, 6, 9)] == [2, 1, 2, 1] and p.capacity_ok()
    assert p.vms_on(1).tolist() == [5, 9] and p.free_units(2) == (0, 2046 * 10**6, 9998 * 10**6)
