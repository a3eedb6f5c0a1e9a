"""VM scheduling: bandwidth clustering, first-fit-decreasing placement and
congestion-driven rebalancing."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import Placement, ResourceVector, Server


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


def first_fit(placement: Placement, demand: ResourceVector, scan) -> int | None:
    """The first server in ``scan`` order that can host ``demand``, if any."""
    for sid in scan:
        if placement.fits(sid, demand):
            return sid
    return None


def first_fit_place(
    items: list[tuple[int, ResourceVector]],
    servers: dict[int, Server],
    placement: Placement,
    eligible=None,
) -> Placement:
    """Plain first-fit onto a placement copy, in the given item order, servers
    scanned in ascending id order.  Raises PlacementInfeasibleError naming
    the first VM that fits nowhere; the input placement is left untouched."""
    result = placement.copy()
    scan = sorted(eligible) if eligible is not None else sorted(servers)
    for vm_id, demand in items:
        sid = first_fit(result, demand, scan)
        if sid is None:
            raise PlacementInfeasibleError(
                "placement infeasible: no server fits VM %d" % vm_id
            )
        result.assign(vm_id, demand, sid)
    return result


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


def _mean_utilisation(placement: Placement, sid: int) -> float:
    used = placement.used(sid).as_tuple()
    cap = placement.capacity(sid).as_tuple()
    return sum(u / c if c > 0 else 0.0 for u, c in zip(used, cap)) / 3.0


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
    completely; a server that cannot drain completely is left untouched.
    Steady (0): no change.  The input placement is never mutated.
    """
    result = RebalanceResult(placement.copy())
    p = result.placement

    if state == 0:
        return result

    if state == 1:
        reserved = sorted(sid for sid, s in servers.items() if s.reserved_for_hogs)
        for vm_id, _bw in sorted(hog_vms or [], key=lambda it: (-it[1], it[0])):
            origin = p.server_of(vm_id)
            if origin is None or servers[origin].reserved_for_hogs:
                continue
            target = first_fit(p, p.demand_of(vm_id), reserved)
            if target is None:
                result.residual_hogs.append(vm_id)
            else:
                p.move(vm_id, target)
                result.moved.append((vm_id, origin, target))
        return result

    # Underload: consolidate.  Moves only go to non-empty ordinary servers,
    # so the target list shrinks only by the servers drained.
    ordinary = sorted(
        sid for sid, s in servers.items() if not s.reserved_for_hogs and p.vms_on(sid)
    )
    by_load = sorted(ordinary, key=lambda sid: (_mean_utilisation(p, sid), sid))
    for sid in by_load:
        if len(result.emptied_servers) >= max_consolidations:
            break
        targets = [t for t in ordinary if t != sid]
        moves = []
        for vm_id in sorted(p.vms_on(sid), key=lambda v: (-p.demand_of(v).bw, v)):
            target = first_fit(p, p.demand_of(vm_id), targets)
            if target is None:
                # Undo in reverse: integer sums restore every load exactly,
                # so each VM fits back where it came from.
                for moved_vm, origin, _t in reversed(moves):
                    p.move(moved_vm, origin)
                break
            p.move(vm_id, target)
            moves.append((vm_id, sid, target))
        else:
            result.moved.extend(moves)
            result.emptied_servers.append(sid)
            ordinary.remove(sid)
    return result
