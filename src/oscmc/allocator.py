"""VM scheduling: bandwidth clustering, first-fit-decreasing placement and
congestion-driven rebalancing."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .model import Placement, ResourceVector, Server, to_units


class ClusterCountError(Exception):
    """Asked for more clusters than data points (or fewer than one)."""


class PlacementInfeasibleError(Exception):
    """No server can host a VM under the capacity constraint."""


@dataclass
class ClusterAssignment:
    centroids: list[float]
    labels: list[int]
    objective: float
    objective_trace: list[float]

    def members(self, label: int, ids) -> list:
        return [i for i, l in zip(ids, self.labels) if l == label]

    def top_cluster(self) -> int:
        """Index of the cluster with the highest centroid."""
        return max(range(len(self.centroids)), key=lambda c: self.centroids[c])


def _lloyd(values: np.ndarray, centroids: np.ndarray, max_iter: int):
    """One Lloyd run; returns (labels, centroids, objective, trace)."""
    labels = None
    trace = []
    for _ in range(max_iter):
        dists = (values[:, None] - centroids[None, :]) ** 2
        new_labels = np.argmin(dists, axis=1)
        trace.append(float(dists[np.arange(values.size), new_labels].sum()))
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(centroids.size):
            members = values[labels == c]
            if members.size:
                centroids[c] = members.mean()
    return labels, centroids, trace[-1], trace


def kmeans(
    values,
    n_clusters: int,
    seed: int = 0,
    restarts: int = 10,
    max_iter: int = 100,
) -> ClusterAssignment:
    """1-D k-means over predicted bandwidths, Lloyd's algorithm.

    Runs ``restarts`` seeded initialisations drawn from distinct data points
    and keeps the assignment with the lowest within-cluster squared
    distance.  The per-iteration objective of the winning run is exposed so
    callers can verify it never increases.
    """
    vals = np.asarray(list(values), dtype=float)
    if n_clusters < 1 or n_clusters > vals.size:
        raise ClusterCountError("more clusters than points")

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

    labels, cents, objective, trace = best
    return ClusterAssignment(
        centroids=[float(c) for c in cents],
        labels=[int(l) for l in labels],
        objective=objective,
        objective_trace=trace,
    )


def first_fit_pass(items, placement: Placement, scan, prior=None) -> Placement:
    """First-fit each ``(vm_id, demand, owner)`` of ``items``, in order, onto
    a copy of ``placement``, servers scanned in ``scan`` order; with ``prior``
    (owner -> server id, updated) a VM first tries its owner's last server.
    Free units only fall during the pass, so each demand keeps a pointer to
    the first scan position that may still fit it.  Items are checked as
    ``Placement.assign`` checks them, in order, and written by one
    ``assign_rows``.  Raises PlacementInfeasibleError naming the first VM
    that fits nowhere; the input placement is left untouched."""
    rows = placement.rows(scan)
    free = placement.free_units_array(rows).tolist()
    n, at = len(free), {sid: i for i, sid in enumerate(scan)}
    units_of, start, picks = {}, {}, {}  # picks: vm id -> (units, scan position)
    for vm_id, demand, owner in items:
        units = units_of.get(demand) or units_of.setdefault(demand, to_units(demand))
        c, m, b = units
        i = at[prior[owner]] if prior is not None and owner in prior else n
        if i == n or not (c <= free[i][0] and m <= free[i][1] and b <= free[i][2]):
            i = start.get(units, 0)
            while i < n and not (c <= free[i][0] and m <= free[i][1] and b <= free[i][2]):
                i += 1
            start[units] = i
        if i == n:
            raise PlacementInfeasibleError("placement infeasible: no server fits VM %d" % vm_id)
        placement.check_new_id(vm_id, picks)
        picks[vm_id] = units, i
        f = free[i]
        f[0], f[1], f[2] = f[0] - c, f[1] - m, f[2] - b
        if prior is not None:
            prior[owner] = scan[i]
    result = placement.copy()
    chosen = list(picks.values())
    result.assign_rows(list(picks), [u for u, _ in chosen], rows[[i for _, i in chosen]])
    return result


def first_fit_place(
    items: list[tuple[int, ResourceVector]],
    servers: dict[int, Server],
    placement: Placement,
    eligible=None,
) -> Placement:
    """``first_fit_pass`` of ``items``, which hold (vm_id, demand), over the
    servers (or ``eligible``) in ascending id order."""
    scan = sorted(eligible) if eligible is not None else sorted(servers)
    return first_fit_pass(((vm_id, d, None) for vm_id, d in items), placement, scan)


def ffd_place(
    items: list[tuple[int, ResourceVector, float]],
    servers: dict[int, Server],
    placement: Placement,
    eligible=None,
) -> Placement:
    """First-fit decreasing: ``first_fit_place`` of ``items``, which hold
    (vm_id, demand, predicted_bw), by descending predicted bandwidth, ties
    by ascending VM id."""
    order = sorted(items, key=lambda it: (-it[2], it[0]))
    return first_fit_place([it[:2] for it in order], servers, placement, eligible)


@dataclass
class RebalanceResult:
    placement: Placement
    moved: list[tuple[int, int, int]] = field(default_factory=list)
    emptied_servers: list[int] = field(default_factory=list)
    residual_hogs: list[int] = field(default_factory=list)


def rebalance(
    state: int,
    placement: Placement,
    servers: dict[int, Server],
    hog_vms: list[tuple[int, float]] | None = None,
    max_consolidations: int = 2,
) -> RebalanceResult:
    """Adjust placement according to the congestion state.

    Overload (1): migrate the bandwidth-hog VMs onto hog-reserved servers,
    largest predicted bandwidth first; hogs that do not fit are reported as
    residual, never dropped.  Underload (-1): try to empty the least
    utilised ordinary servers by first-fit-decreasing their VMs onto the
    remaining active ordinary servers, deactivating servers that drain
    completely; a server that cannot drain is left untouched, and a state
    that drained nothing is not tried again until it changes.  Steady (0):
    no change.  The input placement is never mutated: it is copied at the
    first move, so ``result.placement`` is the input itself when nothing moves.
    """
    result = RebalanceResult(placement)
    p = placement

    if state == 0:
        return result

    if state == 1:
        reserved = sorted(sid for sid, s in servers.items() if s.reserved_for_hogs)
        rows = p.rows(reserved)
        for vm_id, _bw in sorted(hog_vms or [], key=lambda it: (-it[1], it[0])):
            origin = p.server_of(vm_id)
            if origin is None or servers[origin].reserved_for_hogs:
                continue
            ok = p.fit_mask(p.demand_units(vm_id), rows)
            if not ok.any():
                result.residual_hogs.append(vm_id)
            else:
                target = reserved[int(ok.argmax())]
                if p is placement:
                    p = result.placement = placement.copy()
                p.move(vm_id, target)
                result.moved.append((vm_id, origin, target))
        return result

    # Underload: consolidate.  Moves only go to non-empty ordinary servers,
    # so the target list shrinks only by the servers drained.  A candidate
    # is tried on an overlay of its targets' free units; only a drain moves.
    unreserved = sorted(sid for sid, s in servers.items() if not s.reserved_for_hogs)
    if p.derived("undrainable", (unreserved, max_consolidations), lambda: False):
        return result
    ordinary = [sid for sid, on in zip(unreserved, p.occupied()[p.rows(unreserved)].tolist()) if on]
    rows = p.rows(ordinary)
    used, cap = p.used_array(rows), p.capacity_array(rows)
    fractions = np.divide(used, cap, out=np.zeros_like(used), where=cap > 0)
    # Mean utilisation with Python's sum per server: from Python 3.12 it
    # compensates and numpy's does not, so numpy could reorder candidates.
    load = [total / 3.0 for total in map(sum, fractions.tolist())]
    listed, hosts = _listing(p)
    fitting = {}  # demand units -> the ordinary servers that fit them, by id
    for _load, sid, row in sorted(zip(load, ordinary, rows.tolist())):
        if len(result.emptied_servers) >= max_consolidations:
            break
        overlay, moves = {}, []
        for vm_id in listed[bisect_left(hosts, row) : bisect_right(hosts, row)]:
            units = p.demand_units(vm_id)
            if units not in fitting:
                ok = np.flatnonzero(p.fit_mask(units, rows)).tolist()
                fitting[units] = [ordinary[i] for i in ok]
            # The first fit in id order: the first server this trial left
            # untouched, or a target of this trial with room left, if lower.
            target = next((t for t in fitting[units] if t != sid and t not in overlay), None)
            for t, free in overlay.items():
                if (target is None or t < target) and all(map(int.__le__, units, free)):
                    target = t
            if target is None:
                break
            free = overlay[target] if target in overlay else p.free_units(target)
            overlay[target] = tuple(map(int.__sub__, free, units))
            moves.append((vm_id, sid, target))
        else:
            if p is placement:
                p = result.placement = placement.copy()
            for vm_id, _sid, target in moves:
                p.move(vm_id, target)
            result.moved.extend(moves)
            result.emptied_servers.append(sid)
            ordinary.remove(sid)
            rows = p.rows(ordinary)
            fitting.clear()
            listed, hosts = _listing(p)
    placement.keep("undrainable", (unreserved, max_consolidations), p is placement)
    return result


def _listing(placement: Placement) -> tuple[list[int], list[int]]:
    """The placed VMs by (row, descending bandwidth units, id), and their rows."""
    vms = placement.placed()
    host = placement.host_rows(vms)
    order = np.lexsort((vms, -placement.demand_units_array(vms)[:, 2], host))
    return vms[order].tolist(), host[order].tolist()
