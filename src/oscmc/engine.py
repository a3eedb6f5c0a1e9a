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
One simulation runs serially: each step does its layers in a fixed order
and builds observed-link matrices only for the policy that reads them, so
the worker count accepted by ``Simulation`` and ``run`` never changes any
output byte.

Those matrices hold only the links that can change the threat report:
each unauthorised live link and the live outgoing links of its receiver,
a potential cascade relay.  Under ``oscmc`` a live-link adjacency in both
directions finds these, and a suspended VM's links, without a full scan.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .allocator import (
    PlacementInfeasibleError,
    ffd_place,
    first_fit,
    first_fit_place,
    kmeans,
    rebalance,
)
from .metrics import METRICS_CSV_HEADER, IntervalMetrics, snapshot
from .model import (
    GuaranteedThreshold,
    Placement,
    ResourceVector,
    Server,
    User,
    Vm,
    VmStatus,
    admit_vm,
    sync_active,
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
    result = placement.copy()
    prior: dict[int, int] = dict(history or {})
    scan = sorted(servers)
    rows = result.rows(scan)
    for vm_id, owner, demand in items:
        last = prior.get(owner)
        if last is not None and result.fits(last, demand):
            target = last
        else:
            target = first_fit(result, demand, scan, rows)
        if target is None:
            raise PlacementInfeasibleError(
                "placement infeasible: no server fits VM %d" % vm_id
            )
        result.assign(vm_id, demand, target)
        prior[owner] = target
    return result


def inject_malicious_behavior(
    interval: int,
    placement: Placement,
    malicious_vms: list[int],
    benign_vms: list[int],
    suspended: set[int],
    colocated_rate: float,
    remote_rate: float,
    rng: np.random.Generator,
    kept: tuple[list[int], set[int]] | None = None,
) -> list[tuple[int, int]]:
    """Attack links for one interval: each hostile VM may probe one
    co-located benign VM and one benign VM on another server.

    Exactly four draws are consumed per hostile VM whether or not a link
    results, keeping the random stream aligned across policies; intents of
    suspended VMs are discarded after drawing.  All are drawn in one call,
    which equals one call of four per VM.  ``kept`` is ``benign_vms``
    without the suspended VMs, as a list and its set, from a caller that
    keeps them up to date; without it they are built here.
    """
    if kept is None:
        benign_alive = [v for v in benign_vms if v not in suspended]
        kept = (benign_alive, set(benign_alive))
    benign_alive, benign_set = kept
    links: list[tuple[int, int]] = []
    draws = rng.random((len(malicious_vms), 4)).tolist()
    for vm, (u1, u2, u3, u4) in zip(malicious_vms, draws):
        if vm in suspended:
            continue
        host = placement.server_of(vm)
        if host is None:
            continue
        if u1 < colocated_rate:
            local = [
                v
                for v in sorted(placement.vms_on(host))
                if v != vm and v in benign_set
            ]
            if local:
                links.append((vm, local[int(u2 * len(local)) % len(local)]))
        if u3 < remote_rate and benign_alive:
            start = int(u4 * len(benign_alive)) % len(benign_alive)
            for off in range(len(benign_alive)):
                cand = benign_alive[(start + off) % len(benign_alive)]
                if cand != vm and placement.server_of(cand) != host:
                    links.append((vm, cand))
                    break
    return links


def benign_links(
    placement: Placement,
    benign_vms: list[int],
    suspended: set[int],
    ivcl: Ivcl,
    rate: float,
    rng: np.random.Generator,
) -> list[tuple[int, int]]:
    """Authorised traffic: each benign VM may open one link to a destination
    of its authorised-link log row, drawn at a random start and taken as the
    first placed, unsuspended one from there on, wrapping around.

    Two draws per VM always, all in one call, which equals one call of two
    per VM.
    """
    draws = rng.random((len(benign_vms), 2))
    ids, indptr, indices = ivcl.csr()
    rows = np.searchsorted(ids, benign_vms)
    lo = indptr[rows]
    size = indptr[rows + 1] - lo
    opens = (draws[:, 0] < rate) & (size > 0)
    if suspended:
        opens &= ~np.isin(benign_vms, list(suspended))
    which = np.flatnonzero(opens)
    lo, size = lo[which], size[which]
    start = (draws[which, 1] * size).astype(np.int64) % size

    def usable(vm: int) -> bool:
        return vm not in suspended and placement.server_of(vm) is not None

    links: list[tuple[int, int]] = []
    for i, cand, row_lo, n, at in zip(
        which.tolist(),
        indices[lo + start].tolist(),
        lo.tolist(),
        size.tolist(),
        start.tolist(),
    ):
        if not usable(cand):
            row = indices[row_lo : row_lo + n].tolist()
            cand = next(filter(usable, row[at + 1 :] + row[:at]), None)
            if cand is None:
                continue
        links.append((benign_vms[i], cand))
    return links


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
    base_cols = np.searchsorted(ids, base_dsts)
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
        counts[r0:r1] = granted.sum(axis=1)
        blocks.append(ids[np.nonzero(granted)[1]].astype(np.int32))
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

        # Live links in birth order: (src, dst) -> interval established.
        self.live: dict[tuple[int, int], int] = {}
        # The live links the log does not authorise.  The log never changes
        # after set-up, so a link is classified once, when it goes live.
        self.unauthorised: set[tuple[int, int]] = set()
        # Live-link adjacency, vm -> {peer}, outgoing and incoming.  Kept
        # only under oscmc, whose detection and quarantine alone read it.
        self.outs: defaultdict[int, set[int]] = defaultdict(set)
        self.ins: defaultdict[int, set[int]] = defaultdict(set)
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
        # By placement row: every placement is built over ``self.servers``.
        self.server_bw = np.array([s.capacity.bw for s in self.servers.values()])

    def _build_population(self) -> None:
        sc = self.sc
        flavors = [ResourceVector(*f) for f in sc.vm_flavors]
        if sc.fixed_users:
            owner_of = {
                vm: uid for uid, vm_list in sc.fixed_users.items() for vm in vm_list
            }
            user_ids = sorted(sc.fixed_users)
        else:
            m = sc.user_count()
            chunks = np.array_split(np.arange(1, sc.vms + 1), m)
            owner_of = {}
            user_ids = list(range(1, m + 1))
            for uid, chunk in zip(user_ids, chunks):
                for vm in chunk:
                    owner_of[int(vm)] = uid
        if sc.fixed_malicious_users is not None:
            hostile = set(sc.fixed_malicious_users)
        else:
            k = int(round(len(user_ids) * sc.malicious_user_pct / 100.0))
            if sc.malicious_user_pct > 0 and k == 0:
                k = 1
            perm = self.setup_rng.permutation(user_ids)
            hostile = set(int(u) for u in perm[:k])

        self.users = {
            uid: User(uid, set(), uid in hostile) for uid in user_ids
        }
        self.vms: dict[int, Vm] = {}
        for vm_id in range(1, sc.vms + 1):
            owner = owner_of[vm_id]
            flavor = flavors[(vm_id - 1) % len(flavors)]
            self.vms[vm_id] = Vm(
                id=vm_id,
                owner=owner,
                demand=flavor,
                guaranteed=GuaranteedThreshold(
                    sc.guaranteed_frac, sc.guaranteed_frac * flavor.bw
                ),
            )
            self.users[owner].vm_ids.add(vm_id)
        self.owners = {vm_id: vm.owner for vm_id, vm in self.vms.items()}
        self.vm_index = {vm_id: vm_id - 1 for vm_id in self.vms}
        self.malicious_vm_ids = sorted(
            vm_id for vm_id, vm in self.vms.items() if self.users[vm.owner].is_malicious_truth
        )
        self.benign_vm_ids = sorted(set(self.vms) - set(self.malicious_vm_ids))
        # The unsuspended benign VMs, in id order, and their set.
        self.benign_alive = (list(self.benign_vm_ids), set(self.benign_vm_ids))
        # (tp_min, bw_min) per VM, indexed like ``usage``.
        self.guarantees = np.array(
            [(vm.guaranteed.tp_min, vm.guaranteed.bw_min) for _, vm in sorted(self.vms.items())]
        ).reshape(-1, 2)
        self.flavor_of = {
            vm_id: (vm_id - 1) % len(flavors) for vm_id in self.vms
        }

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
        self.nominals = np.array(
            [self.vms[vm_id].demand.as_tuple() for vm_id in sorted(self.vms)]
        )
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
        if sc.policy != "oscmc":
            self.models = {}
            self.train_rngs = {}
            self.model_groups = {}
            return
        if sc.per_vm_models:
            groups = {("vm", vm_id): [vm_id] for vm_id in sorted(self.vms)}
        else:
            groups: dict[tuple, list[int]] = {}
            for vm_id in sorted(self.vms):
                groups.setdefault(("flavor", self.flavor_of[vm_id]), []).append(vm_id)
        self.model_groups = dict(sorted(groups.items()))
        # Three children per group, the third for bandwidth: the seeds the
        # pinned output digests were recorded with.
        n = 3 * len(self.model_groups)
        seeds = s_models.spawn(n)[2::3]
        train_seeds = s_train.spawn(n)[2::3]
        self.models = {}
        self.train_rngs = {}
        for key, seed, tseed in zip(self.model_groups, seeds, train_seeds):
            self.models[key] = PredictorModel(
                sc.window, sc.hidden, sc.learning_rate, seed=seed
            )
            self.train_rngs[key] = np.random.default_rng(tseed)

    def _initial_placement(self) -> None:
        sc = self.sc
        for vm in self.vms.values():
            decision = admit_vm(vm, self.servers)
            if not decision.accepted:
                raise SimulationError(
                    "VM %d rejected: %s" % (vm.id, decision.reason)
                )
        base = Placement(self.servers)
        if sc.fixed_placement:
            for sid, vm_list in sorted(sc.fixed_placement.items()):
                for vm_id in vm_list:
                    base.assign(vm_id, self.vms[vm_id].demand, sid)
            self.placement = base
        elif sc.policy == "oscmc":
            items = [
                (vm_id, vm.demand, vm.demand.bw) for vm_id, vm in sorted(self.vms.items())
            ]
            self.placement = ffd_place(
                items, self.servers, base, eligible=self.ordinary_ids
            )
        elif sc.policy == "pssf":
            items = [
                (vm_id, vm.owner, vm.demand) for vm_id, vm in sorted(self.vms.items())
            ]
            self.placement = pssf_place(items, self.servers, base)
        else:
            items = [(vm_id, vm.demand) for vm_id, vm in sorted(self.vms.items())]
            self.placement = first_fit_place(items, self.servers, base)
        sync_active(self.servers, self.placement)

    # -- per-interval helpers --------------------------------------------

    def _active_vms(self) -> list[int]:
        return sorted(self.placement.vm_ids)

    def _cols(self, vms: list[int]) -> np.ndarray:
        """The ``usage`` column of each of ``vms``."""
        return np.fromiter(map(self.vm_index.__getitem__, vms), np.intp, len(vms))

    def _windows(self, cols: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Bandwidth windows ``usage[s : s + window, col]``, one row per
        (col, s) pair, gathered with one fancy index."""
        rows = starts[:, None] + np.arange(self.sc.window)
        return self.usage[rows, cols[:, None], 2]

    def _window_matrix(self, members: list[int], t: int) -> np.ndarray:
        cols = self._cols(members)
        return self._windows(cols, np.full(len(cols), t - self.sc.window + 1))

    def _train_and_predict(self, t: int) -> None:
        """Fit each group's model on sampled bandwidth history windows, then
        write every active VM's bandwidth forecast for t+1 into
        ``self.predicted``.  Each model has its own weights and its own
        training RNG; groups with the same sample count train as one stack.
        Placement reads bandwidth alone, so cpu and memory are not forecast.
        """
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
            for key, model in self.models.items():
                group = self.model_groups[key]
                total = len(group) * starts
                n = min(sc.train_sample, total)
                picks = np.sort(self.train_rngs[key].choice(total, size=n, replace=False))
                cols = self._cols(group)[picks // starts]
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
        active = self.placement.vm_ids
        for key, model in self.models.items():
            live_members = [vm for vm in self.model_groups[key] if vm in active]
            if not live_members:
                continue
            windows = self._window_matrix(live_members, t)
            for vm, value in zip(live_members, model.predict_batch(windows)):
                self.predicted[self.vm_index[vm]] = float(value)

    def _perf_samples(self, t: int, active: list[int]):
        """Delivered bandwidth share per VM after server-level contention.

        When a server's observed bandwidth demand exceeds its capacity,
        every hosted VM's delivery scales down proportionally; throughput
        is reported as the delivered fraction of nominal demand.  A
        server's load adds its VMs' demands in ``active`` order, from 0.0,
        as ``np.bincount`` does.
        """
        cols = self._cols(active)
        rows = self.placement.host_rows(active)
        demand = self.usage[t, cols, 2]
        load = np.bincount(rows, weights=demand, minlength=len(self.server_bw))[rows]
        cap = self.server_bw[rows]
        nominal = self.nominals[cols, 2]
        # np.where divides every element, also those it then discards.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            scale = np.where((load <= cap) | (load == 0), 1.0, cap / load)
            delivered = demand * scale
            frac = np.where(nominal > 0, delivered / nominal, 1.0)
        perf = dict(zip(active, zip(frac.tolist(), delivered.tolist())))
        thresholds = dict(zip(active, map(tuple, self.guarantees[cols].tolist())))
        return perf, thresholds

    def _new_links(self, t: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """This interval's new links, in order: those to classify (attacks
        and scripted links), then benign links, each drawn from its
        source's log row and so authorised."""
        sc = self.sc
        if sc.scripted_links is not None:
            return [
                (s, d)
                for s, d in sc.scripted_links.get(t, [])
                if s not in self.suspended and d not in self.suspended
            ], []
        in_burst_window = (
            sc.attack_mode == "steady" or t % sc.burst_period == 0
        )
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

    def _drop_link(self, ends: tuple[int, int], t: int) -> None:
        born = self.live.pop(ends, None)
        if born is not None and self.sc.policy == "oscmc":
            self.outs[ends[0]].discard(ends[1])
            self.ins[ends[1]].discard(ends[0])
        if ends in self.unauthorised:
            self.unauthorised.remove(ends)
            if t - born >= 1:
                self.log.realized_breaches += 1

    def _apply_quarantine(self, directive: QuarantineDirective, t: int) -> None:
        for ends in sorted(directive.terminate_links):
            self._drop_link(ends, t)
        newly = set()
        for vm_id in sorted(directive.suspend_vms):
            if vm_id in self.suspended:
                continue
            self.vms[vm_id].status = VmStatus.SUSPENDED
            self.suspended.add(vm_id)
            self.log.suspended.append(vm_id)
            newly.add(vm_id)
            alive, alive_set = self.benign_alive
            if vm_id in alive_set:
                alive_set.remove(vm_id)
                alive.remove(vm_id)
            if self.placement.server_of(vm_id) is not None:
                self.placement.remove(vm_id)
        # Dropping only counts breaches, so one pass in any order suffices.
        for vm in newly:
            for dst in list(self.outs[vm]):
                self._drop_link((vm, dst), t)
            for src in list(self.ins[vm]):
                self._drop_link((src, vm), t)
        sync_active(self.servers, self.placement)

    def _detect(self, t: int, vlams, active: list[int]) -> ThreatReport:
        perf, thresholds = self._perf_samples(t, active)
        colocation = detect_colocation(self.placement, vlams, self.ivcl)
        return build_threat_report(
            t,
            self.placement,
            vlams,
            self.ivcl,
            self.owners,
            perf=perf,
            thresholds=thresholds,
            vuln_scores=self.vuln_scores,
            min_links=self.sc.malicious_vm_threshold,
            colocation=colocation,
        )

    # -- main loop -------------------------------------------------------

    def step(self, t: int) -> None:
        sc = self.sc
        # Rebalance moves VMs but never adds or removes one, so this list
        # holds until quarantine.
        active = self._active_vms()
        cols = self._cols(active)
        observed = self.usage[t, cols, 2]
        # A copy: training overwrites ``self.predicted``, and the snapshot
        # reads the forecasts made before it.
        predicted = self.predicted[cols]

        if sc.policy == "oscmc":
            congestion = detect_congestion(
                sum(observed.tolist()),
                sum(predicted.tolist()),
                delta_t=1.0,
                dev_threshold=sc.congestion_threshold_frac * self.total_bw,
                time_threshold=1.0,
            )
            self._train_and_predict(t)
            hog_vms: list[tuple[int, float]] = []
            if active:
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
                    for vm, value, label in zip(active, values, assignment.labels)
                    if label == top
                ]
            if not sc.pin_placement:
                result = rebalance(
                    congestion.value, self.placement, self.servers, hog_vms
                )
                self.placement = result.placement
                sync_active(self.servers, self.placement)

        checked, authorised = self._new_links(t)
        for i, ends in enumerate(checked + authorised):
            if ends in self.live:
                continue
            self.live[ends] = t
            if sc.policy == "oscmc":
                self.outs[ends[0]].add(ends[1])
                self.ins[ends[1]].add(ends[0])
            if i < len(checked) and classify_link(ends, self.ivcl):
                self.unauthorised.add(ends)
                self.log.malicious_links_created += 1

        if sc.policy == "oscmc":
            # Only unauthorised links and their receivers' (the potential
            # relays') outgoing links can raise an event; every other live
            # link is authorised, so this report equals one over all of them.
            watched = set(self.unauthorised)
            for _, relay in self.unauthorised:
                watched.update((relay, dst) for dst in self.outs[relay])
            vlams = build_vlams(self.placement, watched, self.servers.keys())
            report = self._detect(t, vlams, active)
        else:
            report = ThreatReport(interval=t)
        self.log.reports.append(report)
        self.detected_cum |= report.malicious_vms

        m = snapshot(
            t,
            self.servers,
            self.placement,
            observed,
            predicted,
            len(self.live),
            len(self.unauthorised),
            hog_threshold=sc.hog_threshold,
            power_mode=sc.power_mode,
        )
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
        for ends in list(self.unauthorised):
            self._drop_link(ends, self.sc.intervals - 1)
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
