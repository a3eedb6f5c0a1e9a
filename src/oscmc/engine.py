"""Interval-driven simulation engine.

Ties placement, forecasting, clustering, link monitoring and quarantine
together under three scheduling policies, each one entry of ``POLICY_TABLE``:
a placement routine and the step layers that each interval runs in order.

  * ``oscmc``  - first-fit decreasing on the unreserved servers; forecast,
    rebalance, links, detect, snapshot and quarantine;
  * ``pssf``   - prior-server-first placement; links and snapshot;
  * ``wosc``   - plain first-fit on nominal demand; links and snapshot, so
    malicious links persist.

Determinism: every random draw flows from one seed through named
substreams (fleet setup, workload, link injection, model init, model
training, clustering), in a fixed order.  Link-injection draws happen for
every VM every interval even when the intent is discarded, so runs that
share a seed see the same workload and attack stream regardless of policy.
Clustering draws only in the overloaded intervals whose rebalance reads the
clusters, each from its own per-interval seed, so skipping it in the other
intervals shifts no stream.
A large set-up builds the usage on a helper thread beside the authorised-link
log, with which it shares no state or substream.  The helper then draws the
log's tail blocks from copies of the set-up stream jumped ahead to each block,
and the stream ends where one thread's draw leaves it.  No output byte
depends on which thread drew which block, on scheduling or on the worker
count that ``Simulation`` and ``run`` accept.

Live links are one sorted array of keys ``src * span + dst`` (``span =
V + 1``) and, in an array of its own, a birth column: -1 for a link the
authorised-link log authorises, else the interval the unauthorised link
went live.  Each interval's fresh links join both in one merge through one
mask of the old slots.  The fresh attack and scripted links are classified
as one batch, with one search of the log's keys, which encode a link as
the live keys do; the log never changes after set-up, so a link's class is
fixed at birth.  Link generation keeps each attacker's co-located run per
placement state and reads each benign VM's log row by its id.  The
observed-link matrices hold only the links that can change the threat
report: each unauthorised live link and the live outgoing links of its
receiver, a potential cascade relay, which are the relay's key range.
"""

from __future__ import annotations

import copy
import logging
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace
from itertools import permutations
from typing import NamedTuple

import numpy as np

from .allocator import (
    PlacementInfeasibleError, RebalanceResult, ffd_place, first_fit_place, kmeans, pssf_place,
    rebalance,
)
from .metrics import (
    METRICS_CSV_HEADER, EmptyDataCenterError, Fleet, IntervalMetrics, exact_sum, snapshot,
)
from .model import Placement, ResourceVector, Server
from .monitor import (
    Ivcl, QuarantineDirective, ThreatReport, build_threat_report, build_vlams,
    events_csv_rows, quarantine,
    classify_link, detect_colocation,  # noqa: F401  not called: trace hooks resolve these names
)
from .predictor import CongestionState, PredictorModel, detect_congestion, train_on_windows
from .scenario import Scenario
from .workload import TraceData, fit_trace_to_vms, ingest_trace, synthetic_usage

log = logging.getLogger("oscmc.engine")

EVENTS_CSV_HEADER = "interval,kind,attacker,victim,servers"


# Cross-user pairs drawn per set-up call: 1 MB of uniforms.
_DRAW_BLOCK = 1 << 17
# Below either size the helper thread's start and its hand-offs of the
# interpreter lock cost set-up more than building the usage beside the log saves.
_OVERLAP_VMS, _OVERLAP_USAGE = 400, 1 << 14
# Room in the log for this many standard deviations of the grant count
# above its expected value, before blocks are written apart.
_GRANT_SLACK = 8
# Generators whose ``advance`` counts 64-bit outputs, one per ``random`` uniform.
_JUMPABLE = (np.random.PCG64, np.random.PCG64DXSM)


class SimulationError(Exception):
    """The scenario cannot be simulated (for example, nothing can host a VM)."""


def _member(ids: np.ndarray, vms) -> np.ndarray:
    """Whether each of the non-negative ``ids`` is one of ``vms`` (a set, a
    list or an int array), read from a mask indexed by id."""
    vms = vms if isinstance(vms, np.ndarray) else np.fromiter(vms, np.intp, len(vms))
    mask = np.zeros(int(vms.max(initial=-1)) + 2, dtype=bool)  # the last slot stays False
    mask[vms] = True
    return mask[np.minimum(ids, mask.size - 1)]


def inject_malicious_behavior(
    placement: Placement,
    malicious_vms,
    benign_vms,
    suspended,
    colocated_rate: float,
    remote_rate: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Attack links for one interval: each hostile VM may probe one
    co-located benign VM and one benign VM on another server.

    Exactly four draws are consumed per hostile VM whether or not a link
    results, keeping the random stream aligned across policies; intents of
    ``suspended`` VMs are discarded after drawing.  All are drawn in one
    call, which equals one call of four per VM.  VM ids are distinct and
    non-negative, given as sequences, sets or int arrays.

    Returns an ``(n, 2)`` intp array of (attacker, victim) rows.  The
    co-located victim is the drawn one of the unsuspended benign VMs on
    the attacker's server, by id, the attacker excluded.  The remote victim
    is the unsuspended benign VM at the drawn start when it is placed on
    another server, else the first one after it that is, wrapping around.
    Links come in attacker order, each attacker's co-located link first.
    """
    hostile = np.asarray(malicious_vms, dtype=np.intp)
    draws = rng.random((hostile.size, 4))
    alive = np.asarray(benign_vms, dtype=np.intp)
    if suspended:
        alive = alive[~_member(alive, suspended)]
    host, alive_rows, by_row, lo, at, n = placement.derived(
        "colocation", (hostile.tobytes(), alive.tobytes()),
        lambda: _colocation_index(placement, hostile, alive))
    acts = host >= 0
    if suspended:
        acts &= ~_member(hostile, suspended)
    col = np.flatnonzero(acts & (draws[:, 0] < colocated_rate))
    rem = np.flatnonzero(acts & (draws[:, 2] < remote_rate) & (alive.size > 0))
    if not (col.size or rem.size):
        return np.empty((0, 2), dtype=np.intp)

    # Co-located: the drawn one of the attacker's row's run, skipping its own slot.
    col = col[n[col] > 0]
    pick = lo[col] + (draws[col, 1] * n[col]).astype(np.int64) % n[col]
    col_dst = by_row[pick + (pick >= at[col])]

    # Remote: the drawn start when it is placed on another row (so it is not
    # the attacker), else a scan on from it.
    def remote(i, row):
        return (alive_rows[i] >= 0) & (alive_rows[i] != row)

    start = (draws[rem, 3] * alive.size).astype(np.int64) % max(alive.size, 1)
    rem_dst = alive[start]
    missed = np.flatnonzero(~remote(start, host[rem]))
    if missed.size:
        row = host[rem[missed]]
        at = _first_on_ring(start[missed], alive.size, lambda i, j: remote(i, row[j]))
        rem_dst[missed] = np.where(at >= 0, alive[at], -1)
    found = rem_dst >= 0
    src = np.concatenate([col, rem[found]])
    dst = np.concatenate([col_dst, rem_dst[found]])
    order = np.argsort(src, kind="stable")  # co-located before remote
    return np.column_stack((hostile[src[order]], dst[order]))


def _colocation_index(placement: Placement, hostile: np.ndarray, alive: np.ndarray):
    """Host rows of ``hostile`` and ``alive``, the placed ``alive`` VMs by (row, id),
    and per hostile VM its row's run there: start, own slot (the run's end if
    it is not in it) and length less itself."""
    host, alive_rows = placement.host_rows(hostile), placement.host_rows(alive)
    on = alive_rows >= 0
    span = int(max(alive.max(initial=0), hostile.max(initial=0))) + 1
    keys = np.sort(alive_rows[on] * span + alive[on])
    lo, hi = (np.searchsorted(keys, host * span + d) for d in (0, span))
    own = _member(hostile, alive)
    at = np.where(own, np.searchsorted(keys, host * span + hostile), hi)
    return host, alive_rows, keys % span, lo, at, hi - lo - own


def _first_on_ring(start, size, ok) -> np.ndarray:
    """For each ring ``j``, the first position ``(start[j] + k) % size[j]``,
    k = 1, ..., size[j] - 1, at which ``ok(positions, ring indices)`` (a bool
    array) holds, else -1: the scan on from a failed start, wrapping around.
    A pass reads 64 positions of each open ring, repeating failed ones past
    its end."""
    size = np.broadcast_to(size, start.shape)
    found = np.full(start.shape, -1, np.int64)
    todo, k = np.flatnonzero(size > 1), np.arange(1, 65)
    while todo.size:
        ring = todo[:, None]
        at = (start[ring] + k) % size[ring]
        hit = ok(at, ring)
        first = hit.argmax(axis=1)
        got = hit[np.arange(todo.size), first]
        found[todo[got]] = at[got, first[got]]
        todo, k = todo[~got & (size[todo] > k[-1] + 1)], k + k.size
    return found


def benign_links(
    placement: Placement,
    benign_vms,
    suspended,
    ivcl: Ivcl,
    rate: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Authorised traffic: each benign VM may open one link to a destination
    of its authorised-link log row, drawn at a random start and taken as the
    first placed, unsuspended one from there on, wrapping around.

    Two draws per VM always, all in one call, which equals one call of two
    per VM.  ``benign_vms`` is a sequence or an int array of registered VMs,
    and ``suspended`` a sequence or set of ids.
    Returns an ``(n, 2)`` intp array of (source, destination) rows.
    """
    benign = np.asarray(benign_vms, dtype=np.intp)
    draws = rng.random((benign.size, 2))
    indptr, keys, span = ivcl.row_keys()
    lo = indptr[benign]
    size = indptr[benign + 1] - lo
    opens = (draws[:, 0] < rate) & (size > 0)
    if suspended:
        opens &= ~_member(benign, suspended)
    which = np.flatnonzero(opens)
    lo, size, row_key = lo[which], size[which], benign[which] * span
    start = (draws[which, 1] * size).astype(np.int64) % size

    def usable(vms: np.ndarray) -> np.ndarray:
        ok = placement.host_rows(vms) >= 0
        return ok & ~_member(vms, suspended) if suspended else ok

    dst = keys[lo + start] - row_key
    missed = np.flatnonzero(~usable(dst))
    if missed.size:
        lo, row_key = lo[missed], row_key[missed]
        at = _first_on_ring(
            start[missed], size[missed], lambda i, j: usable(keys[lo[j] + i] - row_key[j])
        )
        dst[missed] = np.where(at >= 0, keys[lo + at] - row_key, -1)
    found = dst >= 0
    return np.column_stack((benign[which[found]], dst[found]))


def with_cross_user_grants(
    base: Ivcl, owner: np.ndarray, rate: float, rng: np.random.Generator, helper=None
) -> Ivcl:
    """``base`` plus a grant of each pair of VMs with different owners with
    probability ``rate``; ``owner`` holds the owner of each VM of ``base``, in id order.

    The pairs are drawn in blocks of source rows, each block in one call
    over its cross-user pairs in (a, b) id order.  Consecutive draws equal
    one long draw, so each pair gets the same number as in a pairwise
    enumeration, and a block's uniforms stay about 1 MB.  Each block's
    grants are written as the log's keys into one array, sized for the
    expected count, which the log then keeps; a block that finds no room
    left is written apart, and the pieces are joined in block order.  No
    draw is made when ``rate`` is 0.

    ``helper``, an executor, may share the draw once it is free: the calling
    thread draws blocks from the front with ``rng``, the helper half blocks
    from the back, each from a copy of ``rng``'s starting state jumped ahead
    by the cross-user pairs before it (``random`` takes one 64-bit output
    a uniform), writing from the array's end.  The helper's keys are moved
    down behind the calling thread's, and ``rng``'s state is advanced to
    where one thread's draw leaves it, its buffered 32-bit half kept, so the
    keys and the stream are the same whichever thread drew which block.
    Only a PCG64 or PCG64DXSM generator, whose ``advance`` counts 64-bit
    outputs, is shared; ``Simulation``'s is always PCG64.
    """
    if rate == 0:
        return base
    ids, base_ptr, base_dsts = base.csr()
    base_cols = np.searchsorted(ids, base_dsts)
    span = base.row_keys()[2]
    n = ids.size
    # The expected grant count or more: the base's grants and ``rate`` of every other pair.
    expect = base_dsts.size + rate * (n * (n - 1) - base_dsts.size)
    room = max(0, int(expect + _GRANT_SLACK * (np.sqrt(expect) + 8)))
    keys = np.empty(room, Ivcl.key_dtype(span))
    # Dense owner ranks in int32, as an owner id may not fit: half the cost of an intp mask.
    by_owner = np.argsort(owner, kind="stable")
    grouped = owner[by_owner]
    rank = np.empty(n, np.int32)
    rank[by_owner] = np.cumsum(np.concatenate(([False], grouped[1:] != grouped[:-1])))
    # The cross-user pairs of the rows before each row, and of all of them.
    before = np.zeros(n + 1, np.int64)
    np.cumsum(n - np.bincount(rank)[rank], out=before[1:])
    step = max(1, _DRAW_BLOCK // max(n, 1))
    lock = threading.Lock()
    # Rows todo[0] to todo[1] - 1 are unclaimed, and keys free[0] to free[1] - 1 unwritten.
    todo, free, pieces, spilled = [0, n], [0, room], {}, []

    def draw(front: bool, gen) -> None:
        end = 0 if front else 1
        while True:
            with lock:
                lo, hi = todo
                if lo == hi:
                    return
                # The helper's blocks are halves: about 0.7 MB less peak RSS at 2200 VMs.
                size = step if front else max(1, step // 2)
                r0, r1 = (lo, min(lo + size, hi)) if front else (max(lo, hi - size), hi)
                todo[end] = r1 if front else r0
            if not front:  # the starting state, jumped over the pairs before row r0
                gen.bit_generator.state = start
                gen.bit_generator.advance(int(before[r0]))
            rows, cols = _granted(r0, r1, rank, before, base_ptr, base_cols, rate, gen)
            with lock:  # in place while the two ends have not met, else apart
                if free[0] + rows.size <= free[1]:
                    free[end] += rows.size if front else -rows.size
                    at = free[0] - rows.size if front else free[1]
                    pieces[r0] = keys[at : at + rows.size]
                else:
                    spilled.append(r0)
                    pieces[r0] = np.empty(rows.size, keys.dtype)
            np.add(ids[rows] * span, ids[cols], out=pieces[r0], casting="unsafe")
            del rows, cols  # freed before the next block's draws

    shared = None
    if helper is not None and n > step and type(rng.bit_generator) in _JUMPABLE:
        start = rng.bit_generator.state
        jumped = np.random.Generator(copy.deepcopy(rng.bit_generator))
        shared = helper.submit(draw, False, jumped)
    try:
        draw(True, rng)
    finally:
        with lock:
            todo[1] = todo[0]  # no row left for the helper, also after a failure here
        if shared is not None and not shared.cancel():
            wait([shared])
    if shared is not None and not shared.cancelled():
        shared.result()  # the helper's failure
        if todo[1] < n:  # the helper drew the tail: end where one thread's draw does
            jumped.bit_generator.state = start
            jumped.bit_generator.advance(int(before[n]))
            state = rng.bit_generator.state
            state["state"]["state"] = jumped.bit_generator.state["state"]["state"]
            rng.bit_generator.state = state
    if spilled:
        return Ivcl(ids, np.concatenate([pieces[r0] for r0 in sorted(pieces)]))
    # The helper's blocks, written back from the end, follow the calling thread's.
    front, back = free
    keys[front : front + room - back] = keys[back:]
    return Ivcl(ids, keys[: front + room - back])


def _granted(r0, r1, rank, before, base_ptr, base_cols, rate, rng):
    """The (row, column) of each grant of source rows ``r0`` to ``r1 - 1``, in
    order: the base's and each cross-user pair drawn below ``rate``."""
    n = rank.size
    cross = rank[r0:r1, None] != rank
    granted = np.zeros(cross.shape, dtype=bool)
    granted[cross] = rng.random(int(before[r1] - before[r0])) < rate
    del cross
    lo, hi = base_ptr[r0], base_ptr[r1]
    base_rows = np.repeat(np.arange(r1 - r0), np.diff(base_ptr[r0 : r1 + 1]))
    granted[base_rows, base_cols[lo:hi]] = True
    rows, cols = np.divmod(np.flatnonzero(granted), n)
    rows += r0
    return rows, cols


@dataclass
class RunLog:
    scenario_name: str
    policy: str
    seed: int
    servers: int
    vms: int
    users: int
    malicious_users: int
    metrics: list[IntervalMetrics] = field(default_factory=list)
    reports: list[ThreatReport] = field(default_factory=list)
    # The suspended VMs in suspension order: the one record of them.
    suspended: list[int] = field(default_factory=list)
    realized_breaches: int = 0
    malicious_links_created: int = 0

    def metrics_csv_text(self) -> str:
        lines = [METRICS_CSV_HEADER]
        lines.extend(m.csv_row() for m in self.metrics)
        return "\n".join(lines) + "\n"

    def events_csv_text(self) -> str:
        lines = [EVENTS_CSV_HEADER]
        for report in self.reports:
            for row in events_csv_rows(report):
                lines.append(",".join(str(x) for x in row))
        return "\n".join(lines) + "\n"

    def summary_text(self) -> str:
        n = max(len(self.metrics), 1)  # an empty run's means read 0.0
        mean_ru = sum(m.ru_dc for m in self.metrics) / n
        mean_hogs = sum(m.hog_count for m in self.metrics) / n
        # Five-minute intervals: watts -> kWh.
        kwh = sum(m.pw_dc for m in self.metrics) * (5.0 / 60.0) / 1000.0
        final_al = self.metrics[-1].authorized_link_pct if self.metrics else 100.0
        col = sum(len(r.colocation) for r in self.reports)
        cas = sum(len(r.cascading) for r in self.reports)
        vul = sum(len(r.vulnerability) for r in self.reports)
        listed = 0 < len(self.suspended) <= 20
        shown = " [%s]" % ", ".join(str(v) for v in self.suspended) if listed else ""
        lines = [
            "scenario: %s" % self.scenario_name,
            "policy: %s" % self.policy,
            "seed: %d" % self.seed,
            "intervals: %d" % len(self.metrics),
            "servers: %d  vms: %d  users: %d  malicious users: %d"
            % (self.servers, self.vms, self.users, self.malicious_users),
            "final authorized_link_pct: %.6f" % final_al,
            "mean ru_dc_pct: %.6f" % (100.0 * mean_ru),
            "total power_kwh: %.6f" % kwh,
            "mean hogs per interval: %.6f" % mean_hogs,
            "suspended vms: %d%s" % (len(self.suspended), shown),
            "malicious links observed: %d" % self.malicious_links_created,
            "threat events col/cas/vul: %d/%d/%d" % (col, cas, vul),
            "realized breaches: %d" % self.realized_breaches,
        ]
        return "\n".join(lines) + "\n"


class Policy(NamedTuple):
    """A scheduling policy: the ``Simulation`` method that places the VMs at
    set-up, and the step layers in order, each run as ``layer_<name>``."""

    place: str
    layers: tuple[str, ...]


# The engine's one reading of a policy name.  Set-up reserves servers for hogs
# only under a policy that rebalances, and builds models only for one that forecasts.
POLICY_TABLE = {
    "oscmc": Policy(
        "_place_ffd", ("forecast", "rebalance", "links", "detect", "snapshot", "quarantine")
    ),
    "pssf": Policy("_place_pssf", ("links", "snapshot")),
    "wosc": Policy("_place_first_fit", ("links", "snapshot")),
}


class Interval(NamedTuple):
    """The inputs an interval's layers share, read before the first: the placed
    VMs, their ``usage`` columns, observed bandwidth and pre-training forecasts."""

    t: int
    active: np.ndarray
    cols: np.ndarray
    observed: np.ndarray
    predicted: np.ndarray


class Simulation:
    """One deterministic run of a scenario under one policy.

    VMs have ids 1 to V and no record of their own: each per-VM array is
    indexed by ``usage`` column, VM ``v`` in column ``v - 1``.  Only link
    injection reads the ground truth, the hostile and benign VM ids.

    ``workers`` is accepted for callers that pass it and ignored: a single
    simulation always runs serially.  ``trace``, when given, is the
    ingested ``sc.trace_path``, so that several runs read it once.
    """

    def __init__(self, sc: Scenario, workers: int | None = None, trace: TraceData | None = None):
        sc.validate()
        self.sc = sc
        # A pinned placement drops the rebalance layer, as a fixed one replaces placement.
        layers = POLICY_TABLE[sc.policy].layers
        self.layers = tuple(n for n in layers if n != "rebalance" or not sc.pin_placement)
        root = np.random.SeedSequence(sc.seed)
        s_setup, s_workload, s_inject, s_models, s_train, s_kmeans = root.spawn(6)
        self.setup_rng = np.random.default_rng(s_setup)
        self.inject_rng = np.random.default_rng(s_inject)
        self.kmeans_seeds = s_kmeans.generate_state(sc.intervals)

        self._build_fleet()
        hostile_users = self._build_population()
        # Placement draws nothing: an infeasible fleet fails before the O(V**2) log.
        self._initial_placement()
        # The usage and the log share no state or substream: a large set-up overlaps them.
        usage_rng = np.random.default_rng(s_workload)
        if sc.vms >= _OVERLAP_VMS and sc.vms * sc.intervals >= _OVERLAP_USAGE:
            with ThreadPoolExecutor(1, thread_name_prefix="oscmc-setup") as pool:
                usage = pool.submit(self._build_usage, usage_rng, trace)
                self._build_ivcl(pool)  # the helper shares the log's draw once the usage is built
                usage.result()
        else:
            self._build_ivcl()
            self._build_usage(usage_rng, trace)
        self._build_models(s_models, s_train)
        # In placement row order: every later placement is this one or a copy.
        self.fleet = Fleet(self.servers, self.placement)
        # The congestion threshold, a share of the fleet's bandwidth, which never changes.
        self.dev_threshold = sc.congestion_threshold_frac * exact_sum(self.fleet.cap[:, 2])

        # Live links as sorted keys src * span + dst; VM ids run from 1 to V.
        # Beside each key its birth: -1 if the log authorises the link, else
        # the interval it went live (a link is classified once, at birth).
        self.span = sc.vms + 1
        self.link_keys = np.empty(0, dtype=np.int64)
        self.link_born = np.empty(0, dtype=np.int64)
        # Bandwidth forecast per VM, indexed like ``usage``; nominal until
        # the forecaster has trained.
        self.predicted = self.nominal_bw.copy()
        self.log = RunLog(
            scenario_name=sc.name, policy=sc.policy, seed=sc.seed, servers=len(self.servers),
            vms=sc.vms, users=sc.user_count(), malicious_users=hostile_users,
        )

    # -- construction ----------------------------------------------------

    def _build_fleet(self) -> None:
        sc = self.sc
        cap = ResourceVector(sc.server_cpu, sc.server_mem, sc.server_bw)
        if sc.vuln_score_fixed is not None:
            scores = np.full(sc.servers, float(sc.vuln_score_fixed))
        else:
            scores = self.setup_rng.uniform(0.0, 10.0, sc.servers)
        rebalances = "rebalance" in POLICY_TABLE[sc.policy].layers
        n_reserved = sc.servers // sc.reserved_per if sc.reserved_per and rebalances else 0
        self.servers = {
            sid: Server(sid, cap, pw_max=sc.pw_max, pw_min=sc.pw_min, pw_idle=sc.pw_idle,
                        vulnerability_score=float(scores[sid - 1]),
                        reserved_for_hogs=sid > sc.servers - n_reserved)
            for sid in range(1, sc.servers + 1)
        }
        self.vuln_scores = {sid: s.vulnerability_score for sid, s in self.servers.items()}

    def _build_population(self) -> int:
        """Each VM's owner and flavor index, its flavor's nominal bandwidth
        and guarantee (tp_min, bw_min), and the hostile and benign VM ids.  Users
        own the chunks of VM ids ``np.array_split`` cuts, unless fixed.
        Returns the number of hostile users."""
        sc = self.sc
        if sc.fixed_users:
            user_ids = sorted(sc.fixed_users)
            self.owner = np.empty(sc.vms, dtype=np.intp)
            for uid in user_ids:
                self.owner[np.asarray(sc.fixed_users[uid], dtype=np.intp) - 1] = uid
        else:
            m = sc.user_count()
            user_ids = list(range(1, m + 1))
            # The chunk sizes of np.array_split: the first V % m one larger.
            sizes = np.full(m, sc.vms // m)
            sizes[: sc.vms % m] += 1
            self.owner = np.repeat(np.arange(1, m + 1, dtype=np.intp), sizes)
        if sc.fixed_malicious_users is not None:
            hostile = set(sc.fixed_malicious_users)
        else:
            k = int(round(len(user_ids) * sc.malicious_user_pct / 100.0))
            if sc.malicious_user_pct > 0 and k == 0:
                k = 1
            perm = self.setup_rng.permutation(user_ids)
            hostile = set(int(u) for u in perm[:k])

        self.flavor = np.arange(sc.vms) % len(sc.vm_flavors)
        flavor_bw = np.array(sc.vm_flavors, dtype=float).reshape(-1, 3)[:, 2]
        frac = sc.guaranteed_frac
        self.nominal_bw = flavor_bw[self.flavor]
        self.guarantees = np.column_stack((np.full(sc.vms, frac), frac * self.nominal_bw))
        ids = np.arange(1, sc.vms + 1, dtype=np.intp)
        is_hostile = np.isin(self.owner, list(hostile))
        self.malicious_vm_ids = ids[is_hostile]
        self.benign_vm_ids = ids[~is_hostile]
        return len(hostile)

    def _build_ivcl(self, helper=None) -> None:
        """Every ordered same-owner pair, user by user, and cross-user grants,
        drawn with ``helper``'s share (``with_cross_user_grants``)."""
        intra = Ivcl(np.arange(1, self.sc.vms + 1))
        by_owner = np.argsort(self.owner, kind="stable")
        cuts = np.flatnonzero(np.diff(self.owner[by_owner])) + 1
        for cols in np.split(by_owner, cuts):
            for a, b in permutations((cols + 1).tolist(), 2):
                intra.grant(a, b)
        self.ivcl = with_cross_user_grants(
            intra, self.owner, self.sc.cross_user_auth_rate, self.setup_rng, helper
        )

    def _build_usage(self, rng: np.random.Generator, trace: TraceData | None) -> None:
        sc = self.sc
        if sc.trace_path:
            trace = trace or ingest_trace(sc.trace_path)
            self.usage = fit_trace_to_vms(trace, self.nominal_bw, sc.intervals, sc.trace_rescale)
        else:
            self.usage = synthetic_usage(
                self.nominal_bw, sc.intervals, rng, sigma=sc.workload_sigma,
                burst_enter=sc.burst_enter, burst_exit=sc.burst_exit, burst_mult=sc.burst_mult,
            )

    def _build_models(self, s_models, s_train) -> None:
        sc = self.sc
        # One record per forecast group (a flavor, or a VM), in key order:
        # its VMs' ``usage`` columns, its network and its training RNG.
        self.models: dict[tuple, tuple[np.ndarray, PredictorModel, np.random.Generator]] = {}
        if "forecast" not in POLICY_TABLE[sc.policy].layers:
            return
        cols = np.arange(sc.vms)  # as ``_cols`` gives them
        if sc.per_vm_models:
            groups = {("vm", v + 1): cols[v : v + 1] for v in range(cols.size)}
        else:
            # VMs take the flavors in turn, so flavor f has every n-th column.
            n = len(sc.vm_flavors)
            groups = {("flavor", f): cols[f::n] for f in range(min(n, cols.size))}
        # Three children per group, the third for bandwidth: the seeds the
        # pinned output digests were recorded with.
        n = 3 * len(groups)
        seeds = s_models.spawn(n)[2::3]
        train_seeds = s_train.spawn(n)[2::3]
        for (key, members), seed, tseed in zip(groups.items(), seeds, train_seeds):
            model = PredictorModel(sc.window, sc.hidden, sc.learning_rate, seed=seed)
            self.models[key] = (members, model, np.random.default_rng(tseed))

    def _initial_placement(self) -> None:
        sc = self.sc
        flavors = [ResourceVector(*f) for f in sc.vm_flavors]
        # Every server has the one capacity: admit each flavor that some VM
        # takes against it, naming the flavor's lowest-id VM.
        cap = ResourceVector(sc.server_cpu, sc.server_mem, sc.server_bw)
        for f, flavor in enumerate(flavors[: sc.vms]):
            if not flavor.fits_within(cap):
                msg = "VM %d rejected: demand exceeds every server capacity"
                raise SimulationError(msg % (f + 1))
        base = Placement(self.servers)
        demand = list(map(flavors.__getitem__, self.flavor.tolist()))
        vms = range(1, sc.vms + 1)
        if sc.fixed_placement:
            for sid, vm_list in sorted(sc.fixed_placement.items()):
                for vm_id in vm_list:
                    base.assign(vm_id, demand[vm_id - 1], sid)
            self.placement = base
        else:
            self.placement = getattr(self, POLICY_TABLE[sc.policy].place)(base, vms, demand)

    def _place_ffd(self, base: Placement, vms, demand) -> Placement:
        items = list(zip(vms, demand, self.nominal_bw.tolist()))  # the flavors' bandwidths
        ordinary = [sid for sid, s in self.servers.items() if not s.reserved_for_hogs]
        return ffd_place(items, self.servers, base, eligible=ordinary)

    def _place_pssf(self, base: Placement, vms, demand) -> Placement:
        return pssf_place(list(zip(vms, self.owner.tolist(), demand)), self.servers, base)

    def _place_first_fit(self, base: Placement, vms, demand) -> Placement:
        return first_fit_place(list(zip(vms, demand)), self.servers, base)

    # -- per-interval helpers --------------------------------------------

    def _cols(self, vms) -> np.ndarray:
        """The ``usage`` column of each of ``vms``: VM ids run from 1 to V,
        so VM ``v`` sits in column ``v - 1``."""
        return np.array(vms, dtype=np.intp) - 1

    def _placed_cols(self) -> tuple[np.ndarray, np.ndarray]:
        """The placed VMs and their ``_cols``, read-only: kept per placement state."""
        active = self.placement.placed()
        cols = self._cols(active)
        active.flags.writeable = cols.flags.writeable = False
        return active, cols

    def _windows(self, cols: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Bandwidth windows ``usage[s : s + window, col]``, one row per
        (col, s) pair, gathered with one fancy index."""
        rows = starts[:, None] + np.arange(self.sc.window)
        return self.usage[rows, cols[:, None]]

    def _train_and_predict(self, t: int, placed: np.ndarray) -> dict:
        """Fit each group's model on sampled bandwidth history windows, then
        write the bandwidth forecast for t+1 of each VM in the ``placed``
        columns into ``self.predicted``.  Each model has its own weights and
        its own training RNG; groups with the same sample count train as one
        stack.  Placement reads bandwidth alone, so cpu and memory are not
        forecast.  Returns each trained group's final loss by group key; a
        loss or forecast that is not finite (the training diverged) raises
        ``SimulationError``."""
        sc = self.sc
        losses: dict[tuple, float] = {}
        # Until the first training pass the model is random noise; the
        # nominal forecast stands instead.
        if t < sc.window:
            return losses
        if (t - sc.window) % sc.retrain_every == 0:
            # Window ending at index start+window-1 predicts start+window,
            # which must already be observed: start <= t - window.
            starts = t - sc.window + 1
            # Padding a group to a common sample count would change its
            # means, so only groups of equal count share a stack.
            buckets: dict[int, list[tuple]] = {}
            for key, (members, model, rng) in self.models.items():
                total = members.size * starts
                n = min(sc.train_sample, total)
                picks = np.sort(rng.choice(total, size=n, replace=False))
                cols = members[picks // starts]
                offsets = picks % starts
                x = self._windows(cols, offsets)
                y = self.usage[offsets + sc.window, cols]
                model.set_bounds(np.concatenate([x.ravel(), y]))
                buckets.setdefault(n, []).append((key, model, x, y))
            for bucket in buckets.values():
                keys, models, xs, ys = zip(*bucket)
                x, y = np.concatenate(xs), np.concatenate(ys)
                losses.update(zip(keys, train_on_windows(models, x, y, epochs=sc.epochs)))
        mask = np.zeros(self.predicted.size, dtype=bool)
        mask[placed] = True
        for members, model, _ in self.models.values():
            live = members[mask[members]]
            if live.size:
                windows = self._windows(live, np.full(live.size, t - sc.window + 1))
                with np.errstate(over="ignore", invalid="ignore"):  # judged below
                    self.predicted[live] = model.predict_batch(windows)
        trained = np.fromiter(losses.values(), float, len(losses))
        if not (np.isfinite(trained).all() and np.isfinite(self.predicted[placed]).all()):
            raise SimulationError("interval %d: training diverged at learning_rate %r "
                                  "(a non-finite loss or forecast)" % (t, sc.learning_rate))
        return losses

    def _perf_samples(self, t: int, active) -> tuple[np.ndarray, np.ndarray]:
        """Delivered bandwidth share of each VM of ``active`` after
        server-level contention, and its guarantee, as ``(n, 2)`` arrays
        with a row per VM: (throughput fraction, delivered bandwidth) and
        (tp_min, bw_min).

        When a server's observed bandwidth demand exceeds its capacity,
        every hosted VM's delivery scales down proportionally; throughput
        is reported as the delivered fraction of nominal demand.  A
        server's load adds its VMs' demands in ``active`` order, from 0.0,
        as ``np.bincount`` does.
        """
        cols = self._cols(active)
        rows = self.placement.host_rows(active)
        demand = self.usage[t, cols]
        bw = self.fleet.cap[:, 2]
        load = np.bincount(rows, weights=demand, minlength=bw.size)[rows]
        cap = bw[rows]
        nominal = self.nominal_bw[cols]
        # np.where divides every element, also those it then discards.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            scale = np.where((load <= cap) | (load == 0), 1.0, cap / load)
            delivered = demand * scale
            frac = np.where(nominal > 0, delivered / nominal, 1.0)
        return np.column_stack((frac, delivered)), self.guarantees[cols]

    def _new_links(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """This interval's new links as ``(n, 2)`` arrays, in order: those to
        classify (attacks and scripted links), then benign links, each drawn
        from its source's log row and so authorised."""
        sc = self.sc
        if sc.scripted_links is not None:
            links = np.array(sc.scripted_links.get(t, []), dtype=np.intp).reshape(-1, 2)
            links = links[~_member(links, self.log.suspended).any(axis=1)]
            return links, links[:0]
        in_burst_window = sc.attack_mode == "steady" or t % sc.burst_period == 0
        col_rate = sc.attack_colocated_rate if in_burst_window else 0.0
        rem_rate = sc.attack_remote_rate if in_burst_window else 0.0
        attacks = inject_malicious_behavior(
            self.placement, self.malicious_vm_ids, self.benign_vm_ids, self.log.suspended,
            col_rate, rem_rate, self.inject_rng,
        )
        benign = benign_links(
            self.placement, self.benign_vm_ids, self.log.suspended, self.ivcl,
            sc.benign_link_rate, self.inject_rng,
        )
        return attacks, benign

    def _add_links(self, checked: np.ndarray, authorised: np.ndarray, t: int) -> None:
        """Merge the links not yet live into the keys, each at its first
        occurrence, born ``t`` or, where the log authorises it, -1; only the
        fresh ``checked`` links are classified, in one batch."""
        ends = np.concatenate((checked, authorised))
        new, first = np.unique(self._keys(ends), return_index=True)
        keys = self.link_keys
        at = np.searchsorted(keys, new)
        # Clipped, a key past the end meets the last live key, a smaller one.
        fresh = keys.take(at, mode="clip") != new if keys.size else np.ones(new.size, bool)
        new, first, at = new[fresh], first[fresh], at[fresh]
        ok = first >= len(checked)
        links = ends[first[~ok]]
        ok[~ok] = self.ivcl.authorized(links[:, 0], links[:, 1])
        # Fresh key i goes to slot at[i] + i, the old keys and births to the rest.
        n = keys.size + new.size
        merged, born = np.empty(n, np.int64), np.empty(n, np.int64)
        slots = at + np.arange(new.size)
        old = np.ones(n, dtype=bool)
        old[slots] = False
        merged[slots], merged[old] = new, keys
        born[slots], born[old] = np.where(ok, -1, t), self.link_born
        self.link_keys, self.link_born = merged, born
        self.log.malicious_links_created += int(np.count_nonzero(~ok))

    def _keys(self, links) -> np.ndarray:
        """The key of each (src, dst) of ``links``, a sequence or array."""
        ends = np.asarray(links, dtype=np.int64).reshape(-1, 2)
        return ends[:, 0] * self.span + ends[:, 1]

    def _links_from(self, vms) -> np.ndarray:
        """The live keys sourced by the distinct ``vms``: each one's key range."""
        keys = self.link_keys
        start = np.asarray(vms, dtype=np.int64) * self.span
        lo = np.searchsorted(keys, start)
        n = np.searchsorted(keys, start + self.span) - lo
        return keys[np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum())]

    def live_links(self, keys: np.ndarray | None = None) -> list[tuple[int, int]]:
        """The live links (or those of ``keys``) as (src, dst), in key order."""
        src, dst = np.divmod(self.link_keys if keys is None else keys, self.span)
        return list(zip(src.tolist(), dst.tolist()))

    def _drop_links(self, drop: np.ndarray, t: int, vms=()) -> None:
        """Drop the live links of the keys ``drop`` and every live link of ``vms``;
        an unauthorised link live since an earlier interval is a breach."""
        keys, born = self.link_keys, self.link_born
        at = np.searchsorted(keys, drop)
        gone = np.zeros(keys.size, dtype=bool)
        gone[at[np.searchsorted(keys, drop, side="right") > at]] = True
        if vms:
            src, dst = np.divmod(keys, self.span)
            gone |= _member(src, vms) | _member(dst, vms)
        dropped = born[gone]
        self.log.realized_breaches += int(np.count_nonzero((dropped >= 0) & (t - dropped >= 1)))
        self.link_keys, self.link_born = keys[~gone], born[~gone]

    def _apply_quarantine(self, directive: QuarantineDirective, t: int) -> None:
        """Suspend the directive's VMs and drop their links and the terminated
        ones.  A suspended VM loses its links and makes no new one, so no
        later report names it again."""
        newly = sorted(directive.suspend_vms)
        self.log.suspended.extend(newly)
        for vm_id in newly:
            if self.placement.server_of(vm_id) is not None:
                self.placement.remove(vm_id)
        self._drop_links(self._keys(list(directive.terminate_links)), t, newly)

    def _detect(self, t: int, vlams, active: np.ndarray) -> ThreatReport:
        perf, thresholds = self._perf_samples(t, active)
        return build_threat_report(
            t, self.placement, vlams, self.ivcl, self.owner, vms=active, perf=perf,
            thresholds=thresholds, vuln_scores=self.vuln_scores,
            min_links=self.sc.malicious_vm_threshold,
        )

    # -- the step and its layers -----------------------------------------

    def step(self, t: int) -> dict[str, object]:
        """Run interval ``t``: the policy's layers in order (``oscmc``: forecast,
        rebalance unless the placement is pinned, links, detect, snapshot,
        quarantine; ``pssf`` and ``wosc``: links, snapshot), each on the shared
        inputs and the earlier layers' records.  Returns the records by layer."""
        # Rebalance moves VMs but never adds or removes one: these ids hold until quarantine.
        active, cols = self.placement.derived("placed", None, self._placed_cols)
        now = Interval(t, active, cols, self.usage[t, cols], self.predicted[cols])
        records: dict[str, object] = {}
        for name in self.layers:
            records[name] = getattr(self, "layer_" + name)(now, records)
        return records

    def layer_forecast(self, now: Interval, records: dict) -> CongestionState:
        """Judge congestion on the shared bandwidths, train and write
        ``predicted`` (``_train_and_predict``), and on an overload that a
        rebalance reads, take the top ``kmeans`` cluster of the new forecasts
        as hogs.  Returns the verdict with the hogs and the training losses."""
        sc = self.sc
        congestion = detect_congestion(
            exact_sum(now.observed), exact_sum(now.predicted),
            delta_t=1.0, dev_threshold=self.dev_threshold, time_threshold=1.0,
        )
        losses = self._train_and_predict(now.t, now.cols)
        hogs = ()
        # Only an overload's rebalance reads the clusters.
        if congestion.value == 1 and "rebalance" in self.layers and now.active.size:
            values = self.predicted[now.cols].tolist()
            n_clusters = min(sc.clusters, len(values))
            seed = int(self.kmeans_seeds[now.t])
            assignment = kmeans(values, n_clusters, seed=seed, restarts=sc.kmeans_restarts)
            top = assignment.top_cluster()
            ranked = zip(now.active.tolist(), values, assignment.labels)
            hogs = tuple((vm, value) for vm, value, label in ranked if label == top)
        return replace(congestion, hogs=hogs, losses=losses)

    def layer_rebalance(self, now: Interval, records: dict) -> RebalanceResult:
        """Migrate the forecast record's hogs on an overload, or consolidate
        on an underload (``rebalance``); writes ``placement``."""
        congestion = records["forecast"]
        result = rebalance(congestion.value, self.placement, self.servers, congestion.hogs)
        self.placement = result.placement
        return result

    def layer_links(self, now: Interval, records: dict) -> tuple[np.ndarray, np.ndarray]:
        """Draw links from the placement and unsuspended VMs (``_new_links``) and merge
        them into the live links and the log's count (``_add_links``); returns them."""
        links = self._new_links(now.t)
        self._add_links(*links, now.t)
        return links

    def layer_detect(self, now: Interval, records: dict) -> ThreatReport:
        """Build the observed-link matrices of the watched links and judge
        them (``_detect``).  Reads the live links and the placement."""
        # Only unauthorised links and their receivers' (the potential
        # relays') outgoing links can raise an event; every other live
        # link is authorised, so this report equals one over all of them.
        watched = set(self.live_links(self.link_keys[self.link_born >= 0]))
        relays = sorted({relay for _, relay in watched})
        watched.update(self.live_links(self._links_from(relays)))
        return self._detect(now.t, build_vlams(self.placement, watched), now.active)

    def layer_snapshot(self, now: Interval, records: dict) -> IntervalMetrics:
        """Append to the log the detect record (an empty report under a policy
        that does not detect) and the metrics row of the placement, the live
        links and the shared bandwidths.  Returns the metrics row."""
        report = records["detect"] if "detect" in records else ThreatReport(interval=now.t)
        self.log.reports.append(report)
        try:
            m = snapshot(
                now.t, self.servers, self.placement, now.observed, now.predicted,
                self.link_keys.size, int(np.count_nonzero(self.link_born >= 0)),
                hog_threshold=self.sc.hog_threshold, power_mode=self.sc.power_mode,
                fleet=self.fleet,
            )
        except EmptyDataCenterError:
            msg = "interval %d: every VM is suspended and no server is powered"
            raise SimulationError(msg % now.t) from None
        m.theta_col = len(report.colocation)
        m.theta_cas = len(report.cascading)
        m.theta_vul = len(report.vulnerability)
        # This report's VMs are not yet suspended, and no earlier one is named again.
        m.malicious_vms_cum = len(self.log.suspended) + len(report.malicious_vms)
        self.log.metrics.append(m)
        return m

    def layer_quarantine(self, now: Interval, records: dict) -> QuarantineDirective | None:
        """When the detect record names a malicious VM or link, suspend and cut
        what ``quarantine`` directs (``_apply_quarantine``, which writes the
        placement, the live links and the log); else return None."""
        report = records["detect"]
        if not (report.malicious_vms or report.malicious_link_set):
            return None
        directive = quarantine(report, self.placement)
        self._apply_quarantine(directive, now.t)
        return directive

    def finish(self) -> RunLog:
        """Drop the unauthorised links still live after the last interval,
        counting breaches by the same rule as a quarantine drop."""
        self._drop_links(self.link_keys[self.link_born >= 0], self.sc.intervals - 1)
        return self.log


def run(sc: Scenario, workers: int | None = None, trace: TraceData | None = None) -> RunLog:
    """Simulate a scenario under its configured policy."""
    sim = Simulation(sc, workers=workers, trace=trace)
    log.info(
        "run start: scenario=%s policy=%s seed=%d vms=%d servers=%d",
        sc.name, sc.policy, sc.seed, sc.vms, sc.servers,
    )
    for t in range(sc.intervals):
        sim.step(t)
    result = sim.finish()
    log.info(
        "run done: policy=%s suspended=%d breaches=%d",
        sc.policy, len(result.suspended), result.realized_breaches,
    )
    return result
