"""Inter-VM link surveillance.

Maintains the authorised-link log (IVCL), builds per-server observed-link
matrices (VLAM), classifies observed flows against the log and raises
co-location, cascading and vulnerability threat events.  The monitor never
sees user records, so ground-truth maliciousness cannot leak into any
detection result; it only works from placement, observed links, the log,
performance samples and server vulnerability scores.

Conventions used throughout:
  * a link is a directed flow (src, dst) and is authorised iff dst appears
    in the IVCL entry of src;
  * a co-location event is an observed unauthorised flow between two VMs
    hosted on the same server;
  * a cascading event is a co-location event whose receiving VM (the relay)
    has an observed outgoing flow to a VM on a different server, i.e. the
    breach can propagate off-server through the relay's connections;
  * a vulnerability event fires when a VM's delivered throughput fraction
    and delivered bandwidth both fall below its guaranteed threshold.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .model import Placement


class UnregisteredVmError(Exception):
    """A link references a VM the authorised-link log does not know."""


class IncompleteTelemetryError(Exception):
    """A placed VM has no performance sample."""


class UndefinedCoverageError(Exception):
    """Attack coverage requested for a user that owns no VMs."""


LinkEnds = tuple[int, int]


class Ivcl:
    """Authorised-link log as sorted link keys.

    A grant ``src -> dst`` is the key ``src * span + dst``, as the engine
    keys its live links, with ``span`` one past the largest registered id.
    The keys are sorted, so VM ``v``'s permitted destinations, in ascending
    order, are ``keys[indptr[v]:indptr[v + 1]] - v * span``, where
    ``indptr`` has ``span + 1`` slots and an unregistered id's row is empty.
    The keys (``int32`` while every key fits) are the log's only per-grant
    array: ``authorized`` checks a batch of links with one search of them,
    and ``csr`` derives the destinations on demand.  ``register`` and
    ``grant`` append to three flat pending id lists (registrations, grant
    sources, grant destinations), which the next query merges into the keys
    with one sort, so a log can still be stated grant by grant, or the keys
    can be built in bulk and passed in.

    Every VM admitted to the data centre is registered here, possibly with an
    empty row.  The log is treated as immutable after set-up; the engine
    relies on it.
    """

    def __init__(self, ids=(), keys=()):
        """An empty log, or one over the registered ``ids`` whose grants are
        already built as ``row_keys`` gives them: sorted keys whose sources
        and destinations are all in ``ids``.  Keys of ``key_dtype(span)`` are
        kept, not copied, and become read-only."""
        self._set_keys(np.asarray(ids, np.int64), keys)
        # Registrations, grant sources and grant destinations not yet merged.
        self._pending: tuple[list[int], list[int], list[int]] = ([], [], [])

    @staticmethod
    def key_dtype(span: int):
        """``int32`` while every key ``src * span + dst`` fits, else ``int64``."""
        return np.int32 if span**2 < 2**31 else np.int64

    def _set_keys(self, ids, keys) -> None:
        self._span = span = 1 + int(ids.max(initial=0))
        # Registration by VM id; the last slot, past every id, stays False.
        self._known = np.zeros(span + 1, bool)
        self._known[ids] = True
        keys = np.asarray(keys, self.key_dtype(span))
        # The first key of each registered id and of ``span``, searched in the
        # keys' dtype (wider needles would copy the keys).  Every key's source
        # is registered, so an unregistered id's empty row starts where the
        # next registered one's does: one search per row, not per id.
        edges = np.concatenate((np.flatnonzero(self._known), [span]))
        firsts = np.searchsorted(keys, edges.astype(keys.dtype) * span)
        # Each start fills the slots after the edge before it, up to its own.
        slots = edges.copy()
        slots[1:] -= edges[:-1]
        slots[0] += 1
        self._indptr = firsts.repeat(slots)
        for a in (self._indptr, keys):
            a.flags.writeable = False  # keys shared by copies
        self._keys = keys

    def _has(self, vm_id: int) -> bool:
        """Whether ``vm_id`` is registered in the merged keys."""
        return 0 <= vm_id < self._span and bool(self._known[vm_id])

    def register(self, vm_id: int) -> None:
        if vm_id < 0:
            raise ValueError("VM ids must be non-negative, got %d" % vm_id)
        if not self._has(vm_id):
            self._pending[0].append(vm_id)

    def grant(self, src: int, dst: int) -> None:
        if src == dst:
            raise ValueError("cannot authorise a self-link")
        if src < 0 or dst < 0:  # registers a valid source, then raises
            self.register(src)
            self.register(dst)
        self._pending[1].append(src)
        self._pending[2].append(dst)

    def _merge(self) -> None:
        """Rebuild the keys with the pending registrations and grants: the old
        and new pairs as ``src * span + dst`` at the new span, sorted once,
        each kept where it differs from the one before it (``np.unique`` would
        import ``numpy.ma``); a large log is passed in as keys."""
        regs, srcs, dsts = self._pending
        self._pending = ([], [], [])
        regs = np.fromiter(regs, np.int64, len(regs))
        srcs = np.fromiter(srcs, np.int64, len(srcs))  # each list freed as its array replaces it
        dsts = np.fromiter(dsts, np.int64, len(dsts))
        old = self._span
        span = 1 + max(int(a.max(initial=old - 1)) for a in (regs, srcs, dsts))
        present = np.zeros(span, bool)
        present[:old] = self._known[:old]
        present[regs] = present[srcs] = present[dsts] = True
        srcs *= span
        srcs += dsts
        del dsts
        # An old key moves by ``src * (span - old)`` to the new span.
        moved = np.repeat(np.arange(old) * (span - old), np.diff(self._indptr)) + self._keys
        pairs = np.concatenate((moved, srcs))
        del moved, srcs
        pairs.sort()
        keep = np.ones(pairs.size, bool)
        keep[1:] = pairs[1:] != pairs[:-1]
        self._set_keys(np.flatnonzero(present), pairs[keep])

    def _sync(self) -> None:
        if self._pending[0] or self._pending[1]:
            self._merge()

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ids, indptr, indices)`` over the registered ids' rows, read-only,
        derived per call."""
        self._sync()
        ids = np.flatnonzero(self._known)
        indptr = self._indptr[np.append(ids, self._span)]
        indices = np.empty(self._keys.size, np.int32)
        np.remainder(self._keys, self._span, out=indices, casting="unsafe")
        for a in (ids, indptr, indices):
            a.flags.writeable = False
        return ids, indptr, indices

    def row_keys(self) -> tuple[np.ndarray, np.ndarray, int]:
        """``(indptr, keys, span)``, read-only, ``indptr`` indexed by VM id."""
        self._sync()
        return self._indptr, self._keys, self._span

    def authorized_dsts(self, src: int) -> frozenset[int]:
        self._sync()
        if not self._has(src):
            raise UnregisteredVmError("unregistered VM %d" % src)
        keys = self._keys[self._indptr[src] : self._indptr[src + 1]]
        return frozenset((keys - src * self._span).tolist())

    def is_authorized(self, src: int, dst: int) -> bool:
        """``authorized`` of the one link ``src -> dst``."""
        return bool(self.authorized([src], [dst])[0])

    def authorized(self, src, dst) -> np.ndarray:
        """Whether ``dst[i]`` is in the log row of ``src[i]``, for each link
        (VM id sequences or arrays of one length, else ``ValueError``), as a
        bool array from one search of the keys.  An unregistered or negative
        end raises ``UnregisteredVmError``, naming the first of the sources,
        then of the destinations."""
        if len(src) != len(dst):
            raise ValueError("%d link sources for %d destinations" % (len(src), len(dst)))
        self._sync()
        ends = np.concatenate((src, dst)).astype(np.intp, copy=False)
        n, keys = len(src), self._keys
        # Clipped, an id past the span reads the last slot, and a negative one slot 0.
        unknown = ~self._known.take(ends, mode="clip") | (ends < 0)
        if unknown.any():
            raise UnregisteredVmError("unregistered VM %d" % ends[unknown][0])
        key = (ends[:n] * self._span + ends[n:]).astype(keys.dtype)
        # Clipped, a key past the end meets the last key, a smaller one.
        at = np.searchsorted(keys, key)
        return keys.take(at, mode="clip") == key if keys.size else np.zeros(n, bool)

    @property
    def registered(self) -> frozenset[int]:
        self._sync()
        return frozenset(np.flatnonzero(self._known).tolist())

    def copy(self) -> "Ivcl":
        self._sync()
        return Ivcl(np.flatnonzero(self._known), self._keys)


def classify_link(link: LinkEnds, ivcl: Ivcl) -> int:
    """Link relation of an observed flow against the authorised-link log:
    1 = unauthorised, 0 = authorised."""
    src, dst = link
    return 0 if ivcl.is_authorized(src, dst) else 1


@dataclass
class Vlam:
    """Observed-link matrix of one server for the current interval."""

    server_id: int
    links: set[LinkEnds] = field(default_factory=set)


def build_vlams(placement: Placement, links, server_ids=None) -> dict[int, Vlam]:
    """Distribute observed links onto the VLAM of each hosting server.

    A link is recorded on the server of its source and, when different, on
    the server of its destination, so every VLAM entry has at least one
    local endpoint.
    """
    if server_ids is None:
        server_ids = placement.server_ids
    vlams = {sid: Vlam(sid) for sid in sorted(server_ids)}
    for src, dst in links:
        for sid in {placement.server_of(src), placement.server_of(dst)}:
            if sid is not None:
                vlams[sid].links.add((src, dst))
    return vlams


def observed_links(vlams: dict[int, Vlam]) -> set[LinkEnds]:
    merged: set[LinkEnds] = set()
    for vlam in vlams.values():
        merged |= vlam.links
    return merged


# -- threat events ------------------------------------------------------


@dataclass(frozen=True)
class ColocationEvent:
    server: int
    src: int
    dst: int


@dataclass(frozen=True)
class CascadingEvent:
    src: int
    relay: int
    dst: int
    src_server: int
    dst_server: int


@dataclass(frozen=True)
class VulnerabilityEvent:
    vm: int
    server: int
    high_risk: bool = False


def detect_colocation(
    placement: Placement, vlams: dict[int, Vlam], ivcl: Ivcl
) -> list[ColocationEvent]:
    """Unauthorised flows between VMs hosted on the same server."""
    events = []
    for sid in sorted(vlams):
        for src, dst in sorted(vlams[sid].links):
            if placement.server_of(src) != sid or placement.server_of(dst) != sid:
                continue
            if classify_link((src, dst), ivcl) == 1:
                events.append(ColocationEvent(sid, src, dst))
    return events


def cascades_from_colocation(
    colocation: list[ColocationEvent],
    vlams: dict[int, Vlam],
    placement: Placement,
) -> list[CascadingEvent]:
    """Join co-location events with the relays' observed outgoing flows."""
    outgoing: dict[int, set[int]] = {}
    for a, b in observed_links(vlams):
        outgoing.setdefault(a, set()).add(b)

    events = []
    for coloc in colocation:
        relay = coloc.dst
        for dst in sorted(outgoing.get(relay, ())):
            dst_server = placement.server_of(dst)
            if dst_server is None or dst_server == coloc.server:
                continue
            events.append(
                CascadingEvent(coloc.src, relay, dst, coloc.server, dst_server)
            )
    return events


def detect_cascading(
    placement: Placement, vlams: dict[int, Vlam], ivcl: Ivcl
) -> list[CascadingEvent]:
    """Breaches that can propagate to another server through a relay VM.

    For every co-located unauthorised flow src -> relay, any observed flow
    relay -> dst toward a VM on a different server forms a cascade
    (src, relay, dst), regardless of the relay flow's own authorisation.
    """
    return cascades_from_colocation(
        detect_colocation(placement, vlams, ivcl), vlams, placement
    )


def detect_vulnerability(
    vms,
    perf: np.ndarray,
    thresholds: np.ndarray,
    placement: Placement,
    vuln_scores: dict[int, float],
    high_risk_score: float = 7.0,
) -> list[VulnerabilityEvent]:
    """Placed VMs starved below their guaranteed threshold on both
    indicators, in VM id order.

    ``perf`` and ``thresholds`` are ``(n, 2)`` arrays with a row per VM of
    ``vms``: the delivered throughput fraction and delivered bandwidth over
    the interval, and the guarantee ``(tp_min, bw_min)``.  Every placed VM
    needs a row.  An event fires only when both figures fall below their
    guarantee, and is flagged high risk when the hosting server's
    vulnerability score reaches ``high_risk_score``.
    """
    vms = np.asarray(vms, dtype=np.intp)
    placed = placement.placed()
    missing = placed[~np.isin(placed, vms)]
    if missing.size:
        raise IncompleteTelemetryError("incomplete telemetry for VM %d" % missing[0])
    below = np.asarray(perf) < np.asarray(thresholds)
    starved = vms[np.flatnonzero(below[:, 0] & below[:, 1])]
    events = []
    for vm in sorted(starved.tolist()):
        server = placement.server_of(vm)
        if server is not None:
            score = vuln_scores.get(server, 0.0)
            events.append(VulnerabilityEvent(vm, server, score >= high_risk_score))
    return events


def aggregate_breaches(
    colocation: list[ColocationEvent],
    cascading: list[CascadingEvent],
    vulnerability: list[VulnerabilityEvent],
    owners,
) -> dict[int, int]:
    """Per-user breach totals, keyed by the victim VM's owner; ``owners`` is
    an int array with the owner of VM ``v`` at ``v - 1``.

    The victim of a co-location or cascading event is the receiving VM; the
    victim of a vulnerability event is the starved VM itself.
    """
    victims = [ev.dst for ev in chain(colocation, cascading)] + [ev.vm for ev in vulnerability]
    return dict(Counter(np.asarray(owners)[np.array(victims, np.intp) - 1].tolist()))


# -- malicious link and VM identification -------------------------------


def malicious_links(vm_id: int, vlams: dict[int, Vlam], ivcl: Ivcl) -> set[LinkEnds]:
    """Observed flows sourced by a VM that the log does not authorise."""
    allowed = ivcl.authorized_dsts(vm_id)
    return {
        (src, dst)
        for src, dst in observed_links(vlams)
        if src == vm_id and dst not in allowed
    }


def all_malicious_links(vlams: dict[int, Vlam], ivcl: Ivcl) -> dict[int, set[LinkEnds]]:
    """Unauthorised flows grouped by source VM (sources with none omitted)."""
    grouped: dict[int, set[LinkEnds]] = {}
    for src, dst in observed_links(vlams):
        if classify_link((src, dst), ivcl) == 1:
            grouped.setdefault(src, set()).add((src, dst))
    return grouped


def identify_malicious_vms(
    vlams: dict[int, Vlam], ivcl: Ivcl, min_links: int = 1
) -> set[int]:
    """VMs sourcing at least ``min_links`` unauthorised flows this interval."""
    if min_links < 1:
        raise ValueError("min_links must be >= 1")
    return {
        src
        for src, links in all_malicious_links(vlams, ivcl).items()
        if len(links) >= min_links
    }


@dataclass
class ThreatReport:
    """Everything the monitor concluded about one interval."""

    interval: int
    colocation: list[ColocationEvent] = field(default_factory=list)
    cascading: list[CascadingEvent] = field(default_factory=list)
    vulnerability: list[VulnerabilityEvent] = field(default_factory=list)
    theta_dc: dict[int, int] = field(default_factory=dict)
    malicious_vms: set[int] = field(default_factory=set)
    malicious_link_set: set[LinkEnds] = field(default_factory=set)
    coverage: dict[int, float] = field(default_factory=dict)

    def total_events(self) -> int:
        return len(self.colocation) + len(self.cascading) + len(self.vulnerability)

    def is_clean(self) -> bool:
        return self.total_events() == 0 and not self.malicious_link_set


def build_threat_report(
    interval: int,
    placement: Placement,
    vlams: dict[int, Vlam],
    ivcl: Ivcl,
    owners,
    vms=None,
    perf: np.ndarray | None = None,
    thresholds: np.ndarray | None = None,
    vuln_scores: dict[int, float] | None = None,
    min_links: int = 1,
    colocation: list[ColocationEvent] | None = None,
) -> ThreatReport:
    """Run the full detection pass for one interval; ``owners`` is an int
    array with the owner of VM ``v`` at ``v - 1``.

    Vulnerability events are raised from ``vms``, ``perf`` and
    ``thresholds`` as ``detect_vulnerability`` takes them, when all three
    are given.  ``colocation`` may carry a precomputed ``detect_colocation``
    result; cascades are always joined on the merged observed links.
    """
    if colocation is None:
        colocation = detect_colocation(placement, vlams, ivcl)
    cascading = cascades_from_colocation(colocation, vlams, placement)
    vulnerability = []
    if vms is not None and perf is not None and thresholds is not None:
        vulnerability = detect_vulnerability(vms, perf, thresholds, placement, vuln_scores or {})

    grouped = all_malicious_links(vlams, ivcl)
    bad_vms = {src for src, links in grouped.items() if len(links) >= min_links}
    bad_links: set[LinkEnds] = set().union(*grouped.values())

    owners = np.asarray(owners)
    coverage = {}
    if grouped:  # the links and VMs of each owner with a malicious link
        sources = np.fromiter(grouped, np.intp, len(grouped))
        who, at = np.unique(owners[sources - 1], return_inverse=True)
        sizes = np.fromiter(map(len, grouped.values()), np.int64, len(grouped))
        n_links = np.bincount(at, sizes, who.size).astype(np.int64)
        slot = np.searchsorted(who, owners)  # one pass over every VM
        n_vms = np.bincount(slot[who.take(slot, mode="clip") == owners], minlength=who.size)
        coverage = {u: n / m for u, n, m in zip(who.tolist(), n_links.tolist(), n_vms.tolist())}

    return ThreatReport(
        interval=interval,
        colocation=colocation,
        cascading=cascading,
        vulnerability=vulnerability,
        theta_dc=aggregate_breaches(colocation, cascading, vulnerability, owners),
        malicious_vms=bad_vms,
        malicious_link_set=bad_links,
        coverage=coverage,
    )


def attack_coverage(attacker: int, owners, reports: list[ThreatReport]) -> float:
    """Malicious links per attacker VM across a window of reports; ``owners``
    is an int array with the owner of VM ``v`` at ``v - 1``."""
    attacker_vms = set((np.flatnonzero(np.asarray(owners) == attacker) + 1).tolist())
    if not attacker_vms:
        raise UndefinedCoverageError("undefined coverage: user %d owns no VMs" % attacker)
    links: set[LinkEnds] = set()
    for report in reports:
        links |= {l for l in report.malicious_link_set if l[0] in attacker_vms}
    return len(links) / len(attacker_vms)


# -- quarantine ---------------------------------------------------------


@dataclass
class QuarantineDirective:
    terminate_links: set[LinkEnds] = field(default_factory=set)
    suspend_vms: set[int] = field(default_factory=set)
    notify_servers: set[int] = field(default_factory=set)


def quarantine(report: ThreatReport, placement: Placement) -> QuarantineDirective:
    """Directive terminating every malicious link and suspending every
    detected malicious VM; neighbouring servers hosting any endpoint are
    listed for notification."""
    vms = set(chain.from_iterable(report.malicious_link_set)) | report.malicious_vms
    notify = {placement.server_of(vm) for vm in vms} - {None}
    return QuarantineDirective(
        terminate_links=set(report.malicious_link_set),
        suspend_vms=set(report.malicious_vms),
        notify_servers=notify,
    )


# -- evaluation helpers -------------------------------------------------


def colocation_server_fraction(
    events: list[ColocationEvent], total_servers: int
) -> float:
    """Fraction of servers with at least one co-location event."""
    if total_servers <= 0:
        raise ValueError("total_servers must be positive")
    return len({ev.server for ev in events}) / total_servers


def cascading_victim_fraction(
    events: list[CascadingEvent], owners, candidate_users
) -> float:
    """Fraction of candidate users reachable through some cascading event;
    ``owners`` is an int array with the owner of VM ``v`` at ``v - 1``."""
    candidates = set(candidate_users)
    if not candidates:
        raise ValueError("no candidate users")
    victims = np.array([ev.dst for ev in events], np.intp)
    reached = set(np.asarray(owners)[victims - 1].tolist()) & candidates
    return len(reached) / len(candidates)


def events_csv_rows(report: ThreatReport) -> list[list]:
    """Flatten a report into events.csv rows."""
    rows: list[list] = []
    for ev in report.colocation:
        rows.append([report.interval, "col", ev.src, ev.dst, str(ev.server)])
    for ev in report.cascading:
        servers = "%d>%d" % (ev.src_server, ev.dst_server)
        rows.append([report.interval, "cas", ev.src, ev.dst, servers])
    for ev in report.vulnerability:
        rows.append([report.interval, "vul", "", ev.vm, str(ev.server)])
    return rows
