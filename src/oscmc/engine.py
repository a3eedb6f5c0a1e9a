"""Interval-driven simulation engine.

Ties placement, forecasting, clustering, link monitoring and quarantine
together under three scheduling policies:

  * ``oscmc``  - forecast-driven placement with congestion rebalancing,
    link surveillance and quarantine;
  * ``pssf``   - prior-server-first placement, no surveillance;
  * ``wosc``   - plain first-fit on nominal demand, no surveillance, so
    malicious links persist.

Determinism: every random draw flows from one seed through named
substreams (fleet setup, workload, link injection, model init, model
training, clustering), in a fixed order.  Link-injection draws happen for
every VM every interval even when the intent is discarded, so runs that
share a seed see the same workload and attack stream regardless of policy.
Clustering draws only in the overloaded intervals whose rebalance reads the
clusters, each from its own per-interval seed, so skipping it in the other
intervals shifts no stream.
One simulation runs serially: each step does its layers in a fixed order
and builds observed-link matrices only for the policy that reads them, so
the worker count accepted by ``Simulation`` and ``run`` never changes any
output byte.

Live links are one sorted array of keys ``src * span + dst`` (``span =
V + 1``) that each interval's new links join in one array pass.  The
observed-link matrices hold only the links that can change the threat
report: each unauthorised live link and the live outgoing links of its
receiver, a potential cascade relay, which are the relay's key range.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .allocator import (
    PlacementInfeasibleError,
    ffd_place,
    first_fit_pass,
    first_fit_place,
    kmeans,
    rebalance,
)
from .metrics import (
    METRICS_CSV_HEADER, EmptyDataCenterError, Fleet, IntervalMetrics, exact_sum, snapshot,
)
from .model import (
    GuaranteedThreshold,
    Placement,
    ResourceVector,
    Server,
    User,
    Vm,
    VmStatus,
    admit_vm,
)
from .monitor import (
    Ivcl,
    QuarantineDirective,
    ThreatReport,
    build_threat_report,
    build_vlams,
    classify_link,
    detect_colocation,
    events_csv_rows,
    quarantine,
)
from .predictor import PredictorModel, detect_congestion, train_on_windows
from .scenario import Scenario
from .workload import fit_trace_to_vms, ingest_trace, synthetic_usage

log = logging.getLogger("oscmc.engine")

EVENTS_CSV_HEADER = "interval,kind,attacker,victim,servers"


# Cross-user pairs drawn per set-up call: 4 MB of uniforms.
_DRAW_BLOCK = 1 << 19


class SimulationError(Exception):
    """The scenario cannot be simulated (for example, nothing can host a VM)."""


def _member(ids: np.ndarray, vms) -> np.ndarray:
    """Whether each of the non-negative ``ids`` is one of ``vms`` (a set, a
    list or an int array), read from a mask indexed by id."""
    vms = vms if isinstance(vms, np.ndarray) else np.fromiter(vms, np.intp, len(vms))
    mask = np.zeros(int(vms.max(initial=-1)) + 2, dtype=bool)  # the last slot stays False
    mask[vms] = True
    return mask[np.minimum(ids, mask.size - 1)]


def pssf_place(
    items: list[tuple[int, int, ResourceVector]],
    servers: dict[int, Server],
    placement: Placement,
    history: dict[int, int] | None = None,
) -> Placement:
    """Prior-server-first: each VM goes to its owner's most recently used
    server when it fits, otherwise (and for a user's first VM) first-fit.

    ``items`` holds (vm_id, owner, demand) in arrival order.
    """
    items = ((vm_id, demand, owner) for vm_id, owner, demand in items)
    return first_fit_pass(items, placement, sorted(servers), dict(history or {}))


def inject_malicious_behavior(
    interval: int,
    placement: Placement,
    malicious_vms,
    benign_vms,
    suspended: set[int],
    colocated_rate: float,
    remote_rate: float,
    rng: np.random.Generator,
    kept=None,
) -> np.ndarray:
    """Attack links for one interval: each hostile VM may probe one
    co-located benign VM and one benign VM on another server.

    Exactly four draws are consumed per hostile VM whether or not a link
    results, keeping the random stream aligned across policies; intents of
    suspended VMs are discarded after drawing.  All are drawn in one call,
    which equals one call of four per VM.  ``kept`` is ``benign_vms``
    without the suspended VMs, from a caller that keeps it up to date;
    without it, it is built here.  VM ids are distinct and non-negative,
    given as sequences or int arrays.

    Returns an ``(n, 2)`` intp array of (attacker, victim) rows.  The
    co-located victim is the drawn one of the unsuspended benign VMs on
    the attacker's server, by id, the attacker excluded.  The remote victim
    is the unsuspended benign VM at the drawn start when it sits on another
    server, else the first one after it that does, wrapping around.  Links
    come in attacker order, each attacker's co-located link first.
    """
    hostile = np.asarray(malicious_vms, dtype=np.intp)
    draws = rng.random((hostile.size, 4))
    if kept is None:
        kept = [v for v in benign_vms if v not in suspended]
    alive = np.asarray(kept, dtype=np.intp)
    host, alive_rows, span, keys, in_run = placement.derived(
        "colocation", (hostile.tobytes(), alive.tobytes()),
        lambda: _colocation_index(placement, hostile, alive))
    acts = host >= 0
    if suspended:
        acts &= ~_member(hostile, suspended)
    col = np.flatnonzero(acts & (draws[:, 0] < colocated_rate))
    rem = np.flatnonzero(acts & (draws[:, 2] < remote_rate) & (alive.size > 0))
    if not (col.size or rem.size):
        return np.empty((0, 2), dtype=np.intp)

    # Co-located: a binary search of the attacker's row's run.
    row_key = host[col] * span
    lo = np.searchsorted(keys, row_key)
    at = np.searchsorted(keys, row_key + hostile[col])
    own = in_run[col]
    n = np.searchsorted(keys, row_key + span) - lo - own
    has = n > 0
    col, lo, at, own, n = col[has], lo[has], at[has], own[has], n[has]
    pick = lo + (draws[col, 1] * n).astype(np.int64) % n
    col_dst = keys[pick + (own & (pick >= at))] - row_key[has]

    # Remote: the drawn start when it sits on another row (so it is not the
    # attacker), else a scan on from it.
    start = (draws[rem, 3] * alive.size).astype(np.int64) % max(alive.size, 1)
    rem_dst = alive[start]
    missed = alive_rows[start] == host[rem]
    if missed.any():
        ring_rows = alive_rows.tolist()
        for j in np.flatnonzero(missed).tolist():
            row, at0 = host.item(rem[j]), start.item(j)
            scan = chain(range(at0 + 1, alive.size), range(at0))
            i = next((i for i in scan if ring_rows[i] != row), None)
            rem_dst[j] = -1 if i is None else alive[i]
    found = rem_dst >= 0
    src = np.concatenate([col, rem[found]])
    dst = np.concatenate([col_dst, rem_dst[found]])
    order = np.argsort(src, kind="stable")  # co-located before remote
    return np.column_stack((hostile[src[order]], dst[order]))


def _colocation_index(placement: Placement, hostile: np.ndarray, alive: np.ndarray):
    """Host rows of ``hostile`` and ``alive``, the key span, the placed ``alive``
    VMs as sorted keys ``row * span + id``, and which hostile VMs are in ``alive``."""
    host, alive_rows = placement.host_rows(hostile), placement.host_rows(alive)
    on = alive_rows >= 0
    span = int(max(alive.max(initial=0), hostile.max(initial=0))) + 1
    keys = np.sort(alive_rows[on] * span + alive[on])
    return host, alive_rows, span, keys, _member(hostile, alive)


def benign_links(
    placement: Placement,
    benign_vms,
    suspended: set[int],
    ivcl: Ivcl,
    rate: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Authorised traffic: each benign VM may open one link to a destination
    of its authorised-link log row, drawn at a random start and taken as the
    first placed, unsuspended one from there on, wrapping around.

    Two draws per VM always, all in one call, which equals one call of two
    per VM.  ``benign_vms`` is a sequence or an int array of registered VMs.
    Returns an ``(n, 2)`` intp array of (source, destination) rows.
    """
    benign = np.asarray(benign_vms, dtype=np.intp)
    draws = rng.random((benign.size, 2))
    _ids, indptr, indices = ivcl.csr()
    rows = ivcl.rows_of(benign)
    lo = indptr[rows]
    size = indptr[rows + 1] - lo
    opens = (draws[:, 0] < rate) & (size > 0)
    if suspended:
        opens &= ~_member(benign, suspended)
    which = np.flatnonzero(opens)
    lo, size = lo[which], size[which]
    start = (draws[which, 1] * size).astype(np.int64) % size
    dst = indices[lo + start].astype(np.intp)
    usable = placement.host_rows(dst) >= 0
    if suspended:
        usable &= ~_member(dst, suspended)

    def usable_vm(vm: int) -> bool:
        return vm not in suspended and placement.server_of(vm) is not None

    for j in np.flatnonzero(~usable).tolist():
        row = indices[lo[j] : lo[j] + size[j]].tolist()
        at = start.item(j)
        dst[j] = next(filter(usable_vm, row[at + 1 :] + row[:at]), -1)
    found = dst >= 0
    return np.column_stack((benign[which[found]], dst[found]))


def with_cross_user_grants(
    base: Ivcl, owner: np.ndarray, rate: float, rng: np.random.Generator
) -> Ivcl:
    """``base`` plus a grant of each pair of VMs with different owners with
    probability ``rate``; ``owner`` holds the owner of each row of ``base``.

    The pairs are drawn in blocks of source rows, each block in one call
    over its cross-user pairs in (a, b) id order.  Consecutive draws equal
    one long draw, so each pair gets the same number as in a pairwise
    enumeration, and a block's uniforms stay a few MB.  No draw is made
    when ``rate`` is 0.
    """
    ids, base_ptr, base_dsts = base.csr()
    if rate == 0:
        return base
    base_cols = base.rows_of(base_dsts)
    counts = np.zeros(ids.size, dtype=np.int64)
    blocks = [np.empty(0, dtype=np.int32)]
    step = max(1, _DRAW_BLOCK // max(ids.size, 1))
    for r0 in range(0, ids.size, step):
        r1 = min(r0 + step, ids.size)
        cross = owner[r0:r1, None] != owner
        granted = np.zeros(cross.shape, dtype=bool)
        granted[cross] = rng.random(np.count_nonzero(cross)) < rate
        lo, hi = base_ptr[r0], base_ptr[r1]
        base_rows = np.repeat(np.arange(r1 - r0), np.diff(base_ptr[r0 : r1 + 1]))
        granted[base_rows, base_cols[lo:hi]] = True
        rows, cols = np.divmod(np.flatnonzero(granted), ids.size)
        counts[r0:r1] = np.bincount(rows, minlength=r1 - r0)
        blocks.append(ids[cols].astype(np.int32))
        del rows, cols  # freed before the next block's draws
    return Ivcl(ids, np.concatenate(([0], np.cumsum(counts))), np.concatenate(blocks))


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
    directives: list[QuarantineDirective] = field(default_factory=list)
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
        mean_ru = (
            sum(m.ru_dc for m in self.metrics) / len(self.metrics)
            if self.metrics
            else 0.0
        )
        mean_hogs = (
            sum(m.hog_count for m in self.metrics) / len(self.metrics)
            if self.metrics
            else 0.0
        )
        # Five-minute intervals: watts -> kWh.
        kwh = sum(m.pw_dc for m in self.metrics) * (5.0 / 60.0) / 1000.0
        final_al = self.metrics[-1].authorized_link_pct if self.metrics else 100.0
        col = sum(len(r.colocation) for r in self.reports)
        cas = sum(len(r.cascading) for r in self.reports)
        vul = sum(len(r.vulnerability) for r in self.reports)
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
            "suspended vms: %d%s"
            % (
                len(self.suspended),
                (
                    " [%s]" % ", ".join(str(v) for v in self.suspended)
                    if 0 < len(self.suspended) <= 20
                    else ""
                ),
            ),
            "malicious links observed: %d" % self.malicious_links_created,
            "threat events col/cas/vul: %d/%d/%d" % (col, cas, vul),
            "realized breaches: %d" % self.realized_breaches,
        ]
        return "\n".join(lines) + "\n"


class Simulation:
    """One deterministic run of a scenario under one policy.

    ``workers`` is accepted for callers that pass it and ignored: a single
    simulation always runs serially.
    """

    def __init__(self, sc: Scenario, workers: int | None = None):
        sc.validate()
        self.sc = sc
        root = np.random.SeedSequence(sc.seed)
        s_setup, s_workload, s_inject, s_models, s_train, s_kmeans = root.spawn(6)
        self.setup_rng = np.random.default_rng(s_setup)
        self.inject_rng = np.random.default_rng(s_inject)
        self.kmeans_seeds = s_kmeans.generate_state(sc.intervals)

        self._build_fleet()
        self._build_population()
        self._build_ivcl()
        self._build_usage(np.random.default_rng(s_workload))
        self._build_models(s_models, s_train)
        self._initial_placement()
        # In placement row order: every later placement is this one or a copy.
        self.fleet = Fleet(self.servers, self.placement)

        # Live links as sorted keys src * span + dst; VM ids run from 1 to V.
        self.span = len(self.vms) + 1
        self.link_keys = np.empty(0, dtype=np.int64)
        # The live links the log does not authorise, (src, dst) -> interval
        # established.  The log never changes after set-up, so a link is
        # classified once, when it goes live.
        self.unauthorised: dict[tuple[int, int], int] = {}
        self.suspended: set[int] = set()
        self.detected_cum: set[int] = set()
        # Bandwidth forecast per VM, indexed like ``usage``; nominal until
        # the forecaster has trained.
        self.predicted = self.nominals[:, 2].copy()
        self.log = RunLog(
            scenario_name=sc.name,
            policy=sc.policy,
            seed=sc.seed,
            servers=len(self.servers),
            vms=len(self.vms),
            users=len(self.users),
            malicious_users=sum(1 for u in self.users.values() if u.is_malicious_truth),
        )

    # -- construction ----------------------------------------------------

    def _build_fleet(self) -> None:
        sc = self.sc
        cap = ResourceVector(sc.server_cpu, sc.server_mem, sc.server_bw)
        if sc.vuln_score_fixed is not None:
            scores = np.full(sc.servers, float(sc.vuln_score_fixed))
        else:
            scores = self.setup_rng.uniform(0.0, 10.0, sc.servers)
        n_reserved = (
            sc.servers // sc.reserved_per
            if sc.reserved_per > 0 and sc.policy == "oscmc"
            else 0
        )
        reserved = set(range(sc.servers - n_reserved + 1, sc.servers + 1))
        self.servers = {
            sid: Server(
                id=sid,
                capacity=cap,
                pw_max=sc.pw_max,
                pw_min=sc.pw_min,
                pw_idle=sc.pw_idle,
                vulnerability_score=float(scores[sid - 1]),
                reserved_for_hogs=sid in reserved,
            )
            for sid in range(1, sc.servers + 1)
        }
        self.ordinary_ids = sorted(set(self.servers) - reserved)
        self.vuln_scores = {sid: s.vulnerability_score for sid, s in self.servers.items()}
        self.total_bw = sum(s.capacity.bw for s in self.servers.values())

    def _build_population(self) -> None:
        sc = self.sc
        flavors = [ResourceVector(*f) for f in sc.vm_flavors]
        frac = sc.guaranteed_frac
        guaranteed = [GuaranteedThreshold(frac, frac * f.bw) for f in flavors]
        vm_ids = range(1, sc.vms + 1)
        if sc.fixed_users:
            owner_of = {vm: uid for uid, vm_list in sc.fixed_users.items() for vm in vm_list}
            user_ids = sorted(sc.fixed_users)
            owner = [owner_of[vm] for vm in vm_ids]
        else:
            m = sc.user_count()
            user_ids = list(range(1, m + 1))
            # The chunk sizes of np.array_split: the first V % m one larger.
            sizes = np.full(m, sc.vms // m)
            sizes[: sc.vms % m] += 1
            owner = np.repeat(user_ids, sizes).tolist()
        if sc.fixed_malicious_users is not None:
            hostile = set(sc.fixed_malicious_users)
        else:
            k = int(round(len(user_ids) * sc.malicious_user_pct / 100.0))
            if sc.malicious_user_pct > 0 and k == 0:
                k = 1
            perm = self.setup_rng.permutation(user_ids)
            hostile = set(int(u) for u in perm[:k])

        self.users = {uid: User(uid, set(), uid in hostile) for uid in user_ids}
        flavor = np.arange(sc.vms) % len(flavors)
        self.vms: dict[int, Vm] = {}
        for vm_id, uid, f in zip(vm_ids, owner, flavor.tolist()):
            self.vms[vm_id] = Vm(vm_id, uid, flavors[f], guaranteed=guaranteed[f])
            self.users[uid].vm_ids.add(vm_id)
        self.owners = dict(zip(vm_ids, owner))
        ids = np.arange(1, sc.vms + 1, dtype=np.intp)
        is_hostile = np.isin(owner, list(hostile))
        self.malicious_vm_ids = ids[is_hostile]
        self.benign_vm_ids = ids[~is_hostile]
        # The unsuspended benign VMs, in id order.
        self.benign_alive = self.benign_vm_ids.copy()
        # (tp_min, bw_min) and nominal demand per VM, indexed like ``usage``.
        self.guarantees = np.array([(g.tp_min, g.bw_min) for g in guaranteed])[flavor]
        self.nominals = np.array([f.as_tuple() for f in flavors])[flavor]

    def _build_ivcl(self) -> None:
        intra = Ivcl()
        for vm_id in sorted(self.vms):
            intra.register(vm_id)
        for user in self.users.values():
            members = sorted(user.vm_ids)
            for a in members:
                for b in members:
                    if a != b:
                        intra.grant(a, b)
        owner = np.array([self.owners[vm] for vm in sorted(self.vms)])
        self.ivcl = with_cross_user_grants(
            intra, owner, self.sc.cross_user_auth_rate, self.setup_rng
        )

    def _build_usage(self, rng: np.random.Generator) -> None:
        sc = self.sc
        if sc.trace_path:
            trace = ingest_trace(sc.trace_path)
            self.usage = fit_trace_to_vms(
                trace, self.nominals, sc.intervals, sc.trace_rescale
            )
        else:
            self.usage = synthetic_usage(
                self.nominals,
                sc.intervals,
                rng,
                sigma=sc.workload_sigma,
                burst_enter=sc.burst_enter,
                burst_exit=sc.burst_exit,
                burst_mult=sc.burst_mult,
            )

    def _build_models(self, s_models, s_train) -> None:
        sc = self.sc
        # One record per forecast group (a flavor, or a VM), in key order:
        # its VMs' ``usage`` columns, its network and its training RNG.
        self.models: dict[tuple, tuple[np.ndarray, PredictorModel, np.random.Generator]] = {}
        if sc.policy != "oscmc":
            return
        cols = np.arange(len(self.vms))  # as ``_cols`` gives them
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
        vms = sorted(self.vms.items())
        first = {}  # admission reads only the demand: test each one's lowest-id VM
        for _vm_id, vm in vms:
            first.setdefault(vm.demand, vm)
        for vm in first.values():
            decision = admit_vm(vm, self.servers)
            if not decision.accepted:
                raise SimulationError("VM %d rejected: %s" % (vm.id, decision.reason))
        base = Placement(self.servers)
        if sc.fixed_placement:
            for sid, vm_list in sorted(sc.fixed_placement.items()):
                for vm_id in vm_list:
                    base.assign(vm_id, self.vms[vm_id].demand, sid)
            self.placement = base
        elif sc.policy == "oscmc":
            items = [(vm_id, vm.demand, vm.demand.bw) for vm_id, vm in vms]
            self.placement = ffd_place(items, self.servers, base, eligible=self.ordinary_ids)
        elif sc.policy == "pssf":
            items = [(vm_id, vm.owner, vm.demand) for vm_id, vm in vms]
            self.placement = pssf_place(items, self.servers, base)
        else:
            items = [(vm_id, vm.demand) for vm_id, vm in vms]
            self.placement = first_fit_place(items, self.servers, base)

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
        return self.usage[rows, cols[:, None], 2]

    def _train_and_predict(self, t: int, placed: np.ndarray) -> None:
        """Fit each group's model on sampled bandwidth history windows, then
        write the bandwidth forecast for t+1 of each VM in the ``placed``
        columns into ``self.predicted``.  Each model has its own weights and
        its own training RNG; groups with the same sample count train as one
        stack.  Placement reads bandwidth alone, so cpu and memory are not
        forecast."""
        sc = self.sc
        # Until the first training pass the model is random noise; the
        # nominal forecast stands instead.
        if t < sc.window:
            return
        if (t - sc.window) % sc.retrain_every == 0:
            # Window ending at index start+window-1 predicts start+window,
            # which must already be observed: start <= t - window.
            starts = t - sc.window + 1
            # Padding a group to a common sample count would change its
            # means, so only groups of equal count share a stack.
            buckets: dict[int, tuple[list, list, list]] = {}
            for members, model, rng in self.models.values():
                total = members.size * starts
                n = min(sc.train_sample, total)
                picks = np.sort(rng.choice(total, size=n, replace=False))
                cols = members[picks // starts]
                offsets = picks % starts
                x = self._windows(cols, offsets)
                y = self.usage[offsets + sc.window, cols, 2]
                model.set_bounds(np.concatenate([x.ravel(), y]))
                models, xs, ys = buckets.setdefault(n, ([], [], []))
                models.append(model)
                xs.append(x)
                ys.append(y)
            for models, xs, ys in buckets.values():
                train_on_windows(models, np.concatenate(xs), np.concatenate(ys), epochs=sc.epochs)
        mask = np.zeros(self.predicted.size, dtype=bool)
        mask[placed] = True
        for members, model, _ in self.models.values():
            live = members[mask[members]]
            if live.size:
                windows = self._windows(live, np.full(live.size, t - sc.window + 1))
                self.predicted[live] = model.predict_batch(windows)

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
        demand = self.usage[t, cols, 2]
        bw = self.fleet.cap[:, 2]
        load = np.bincount(rows, weights=demand, minlength=bw.size)[rows]
        cap = bw[rows]
        nominal = self.nominals[cols, 2]
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
            links = links[~_member(links, self.suspended).any(axis=1)]
            return links, links[:0]
        in_burst_window = sc.attack_mode == "steady" or t % sc.burst_period == 0
        col_rate = sc.attack_colocated_rate if in_burst_window else 0.0
        rem_rate = sc.attack_remote_rate if in_burst_window else 0.0
        attacks = inject_malicious_behavior(
            t,
            self.placement,
            self.malicious_vm_ids,
            self.benign_vm_ids,
            self.suspended,
            col_rate,
            rem_rate,
            self.inject_rng,
            kept=self.benign_alive,
        )
        benign = benign_links(
            self.placement,
            self.benign_vm_ids,
            self.suspended,
            self.ivcl,
            sc.benign_link_rate,
            self.inject_rng,
        )
        return attacks, benign

    def _add_links(self, checked: np.ndarray, authorised: np.ndarray, t: int) -> None:
        """Merge the links not yet live into the keys, each at its first
        occurrence, and classify the fresh ``checked`` ones in birth order."""
        ends = np.concatenate((checked, authorised))
        new, first = np.unique(self._keys(ends), return_index=True)
        keys = self.link_keys
        at = np.searchsorted(keys, new)
        # Clipped, a key past the end meets the last live key, a smaller one.
        fresh = keys.take(at, mode="clip") != new if keys.size else np.ones(new.size, bool)
        self.link_keys = np.insert(keys, at[fresh], new[fresh])
        born = np.sort(first[fresh])
        for link in map(tuple, ends[born[born < len(checked)]].tolist()):
            if classify_link(link, self.ivcl):
                self.unauthorised[link] = t
                self.log.malicious_links_created += 1

    def _keys(self, links) -> np.ndarray:
        """The key of each (src, dst) of ``links``, a sequence or array."""
        ends = np.asarray(links, dtype=np.int64).reshape(-1, 2)
        return ends[:, 0] * self.span + ends[:, 1]

    def _links_from(self, vms) -> np.ndarray:
        """The live keys sourced by the distinct ``vms``: each one's key range."""
        keys = self.link_keys
        start = np.fromiter(vms, np.int64, len(vms)) * self.span
        lo = np.searchsorted(keys, start)
        n = np.searchsorted(keys, start + self.span) - lo
        return keys[np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum())]

    def live_links(self, keys: np.ndarray | None = None) -> list[tuple[int, int]]:
        """The live links (or those of ``keys``) as (src, dst), in key order."""
        src, dst = np.divmod(self.link_keys if keys is None else keys, self.span)
        return list(zip(src.tolist(), dst.tolist()))

    def _drop_links(self, links, t: int, vms=()) -> None:
        """Drop the live ``links`` and every live link of ``vms``; an
        unauthorised link live since an earlier interval is a breach."""
        drop = self._keys(list(links))
        at = np.searchsorted(self.link_keys, drop)
        gone = np.zeros(self.link_keys.size, dtype=bool)
        gone[at[np.searchsorted(self.link_keys, drop, side="right") > at]] = True
        if vms:
            src, dst = np.divmod(self.link_keys, self.span)
            gone |= _member(src, vms) | _member(dst, vms)
        for link in self.live_links(self.link_keys[gone]):
            born = self.unauthorised.pop(link, None)
            if born is not None and t - born >= 1:
                self.log.realized_breaches += 1
        self.link_keys = self.link_keys[~gone]

    def _apply_quarantine(self, directive: QuarantineDirective, t: int) -> None:
        newly = []
        for vm_id in sorted(directive.suspend_vms):
            if vm_id in self.suspended:
                continue
            self.vms[vm_id].status = VmStatus.SUSPENDED
            self.suspended.add(vm_id)
            self.log.suspended.append(vm_id)
            newly.append(vm_id)
            if self.placement.server_of(vm_id) is not None:
                self.placement.remove(vm_id)
        if newly:
            self.benign_alive = self.benign_alive[~_member(self.benign_alive, newly)]
        self._drop_links(directive.terminate_links, t, newly)

    def _detect(self, t: int, vlams, active: np.ndarray) -> ThreatReport:
        perf, thresholds = self._perf_samples(t, active)
        colocation = detect_colocation(self.placement, vlams, self.ivcl)
        return build_threat_report(
            t,
            self.placement,
            vlams,
            self.ivcl,
            self.owners,
            vms=active,
            perf=perf,
            thresholds=thresholds,
            vuln_scores=self.vuln_scores,
            min_links=self.sc.malicious_vm_threshold,
            colocation=colocation,
        )

    # -- main loop -------------------------------------------------------

    def step(self, t: int) -> None:
        sc = self.sc
        # Rebalance moves VMs but never adds or removes one, so these ids
        # hold until quarantine.
        active, cols = self.placement.derived("placed", None, self._placed_cols)
        observed = self.usage[t, cols, 2]
        # A copy: training overwrites ``self.predicted``, and the snapshot
        # reads the forecasts made before it.
        predicted = self.predicted[cols]

        if sc.policy == "oscmc":
            congestion = detect_congestion(
                exact_sum(observed),
                exact_sum(predicted),
                delta_t=1.0,
                dev_threshold=sc.congestion_threshold_frac * self.total_bw,
                time_threshold=1.0,
            )
            self._train_and_predict(t, cols)
            hog_vms: list[tuple[int, float]] = []
            # Only an overload's rebalance reads the clusters.
            if congestion.value == 1 and not sc.pin_placement and active.size:
                values = self.predicted[cols].tolist()
                n_clusters = min(sc.clusters, len(values))
                assignment = kmeans(
                    values,
                    n_clusters,
                    seed=int(self.kmeans_seeds[t]),
                    restarts=sc.kmeans_restarts,
                )
                top = assignment.top_cluster()
                hog_vms = [
                    (vm, value)
                    for vm, value, label in zip(active.tolist(), values, assignment.labels)
                    if label == top
                ]
            if not sc.pin_placement:
                result = rebalance(
                    congestion.value, self.placement, self.servers, hog_vms
                )
                self.placement = result.placement

        self._add_links(*self._new_links(t), t)

        if sc.policy == "oscmc":
            # Only unauthorised links and their receivers' (the potential
            # relays') outgoing links can raise an event; every other live
            # link is authorised, so this report equals one over all of them.
            relays = {relay for _, relay in self.unauthorised}
            watched = set(self.unauthorised)
            watched.update(self.live_links(self._links_from(relays)))
            # Only the servers hosting a watched endpoint: an empty matrix
            # adds no event and no observed link.
            hosts = {self.placement.server_of(vm) for link in watched for vm in link}
            hosts.discard(None)
            vlams = build_vlams(self.placement, watched, hosts)
            report = self._detect(t, vlams, active)
        else:
            report = ThreatReport(interval=t)
        self.log.reports.append(report)
        self.detected_cum |= report.malicious_vms

        try:
            m = snapshot(
                t,
                self.servers,
                self.placement,
                observed,
                predicted,
                self.link_keys.size,
                len(self.unauthorised),
                hog_threshold=sc.hog_threshold,
                power_mode=sc.power_mode,
                fleet=self.fleet,
            )
        except EmptyDataCenterError:
            msg = "interval %d: every VM is suspended and no server is powered"
            raise SimulationError(msg % t) from None
        m.theta_col = len(report.colocation)
        m.theta_cas = len(report.cascading)
        m.theta_vul = len(report.vulnerability)
        m.malicious_vms_cum = len(self.detected_cum)
        self.log.metrics.append(m)

        if sc.policy == "oscmc" and (
            report.malicious_vms or report.malicious_link_set
        ):
            directive = quarantine(report, self.placement, vlams)
            self.log.directives.append(directive)
            self._apply_quarantine(directive, t)

    def finish(self) -> RunLog:
        """Drop the unauthorised links still live after the last interval,
        counting breaches by the same rule as a quarantine drop."""
        self._drop_links(self.unauthorised, self.sc.intervals - 1)
        return self.log


def run(sc: Scenario, workers: int | None = None) -> RunLog:
    """Simulate a scenario under its configured policy."""
    sim = Simulation(sc, workers=workers)
    log.info(
        "run start: scenario=%s policy=%s seed=%d vms=%d servers=%d",
        sc.name,
        sc.policy,
        sc.seed,
        sc.vms,
        sc.servers,
    )
    for t in range(sc.intervals):
        sim.step(t)
    result = sim.finish()
    log.info(
        "run done: policy=%s suspended=%d breaches=%d",
        sc.policy,
        len(result.suspended),
        result.realized_breaches,
    )
    return result
