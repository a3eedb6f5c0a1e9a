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
Worker fan-out only partitions independent tasks (per-model forecasting,
per-server link scans) and merges results in a fixed order, so the worker
count never changes any output byte.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
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
    Link,
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
    for vm_id, owner, demand in items:
        last = prior.get(owner)
        if last is not None and result.fits(last, demand):
            target = last
        else:
            target = first_fit(result, demand, scan)
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
) -> list[tuple[int, int]]:
    """Attack links for one interval: each hostile VM may probe one
    co-located benign VM and one benign VM on another server.

    Exactly four draws are consumed per hostile VM whether or not a link
    results, keeping the random stream aligned across policies; intents of
    suspended VMs are discarded after drawing.
    """
    benign_alive = [v for v in benign_vms if v not in suspended]
    links: list[tuple[int, int]] = []
    for vm in malicious_vms:
        u1, u2, u3, u4 = rng.random(4)
        if vm in suspended:
            continue
        host = placement.server_of(vm)
        if host is None:
            continue
        if u1 < colocated_rate:
            local = [
                v
                for v in sorted(placement.vms_on(host))
                if v != vm and v in benign_alive
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
    drawn from its authorised-link log entry.  Two draws per VM always."""
    links: list[tuple[int, int]] = []
    for vm in benign_vms:
        u1, u2 = rng.random(2)
        if vm in suspended:
            continue
        if u1 >= rate:
            continue
        dsts = sorted(ivcl.authorized_dsts(vm))
        if not dsts:
            continue
        start = int(u2 * len(dsts)) % len(dsts)
        for off in range(len(dsts)):
            cand = dsts[(start + off) % len(dsts)]
            if cand not in suspended and placement.server_of(cand) is not None:
                links.append((vm, cand))
                break
    return links


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


def _pmap(fn, items, workers: int):
    """Order-preserving map, optionally fanned out over a thread pool."""
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _chunks(seq, n):
    seq = list(seq)
    if n <= 1 or len(seq) <= 1:
        return [seq]
    size = (len(seq) + n - 1) // n
    return [seq[i : i + size] for i in range(0, len(seq), size)]


class Simulation:
    """One deterministic run of a scenario under one policy."""

    def __init__(self, sc: Scenario, workers: int | None = None):
        sc.validate()
        self.sc = sc
        self.workers = sc.workers if workers is None else workers
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

        self.live: dict[tuple[int, int], Link] = {}
        self.suspended: set[int] = set()
        self.detected_cum: set[int] = set()
        self.predicted: dict[int, np.ndarray] = {
            vm: self.nominals[self.vm_index[vm]].copy() for vm in self.vms
        }
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
        self.flavor_of = {
            vm_id: (vm_id - 1) % len(flavors) for vm_id in self.vms
        }

    def _build_ivcl(self) -> None:
        sc = self.sc
        ivcl = Ivcl()
        for vm_id in sorted(self.vms):
            ivcl.register(vm_id)
        for user in self.users.values():
            members = sorted(user.vm_ids)
            for a in members:
                for b in members:
                    if a != b:
                        ivcl.grant(a, b)
        if sc.cross_user_auth_rate > 0:
            ids = sorted(self.vms)
            pairs = [
                (a, b)
                for a in ids
                for b in ids
                if a != b and self.owners[a] != self.owners[b]
            ]
            mask = self.setup_rng.random(len(pairs)) < sc.cross_user_auth_rate
            for (a, b), keep in zip(pairs, mask):
                if keep:
                    ivcl.grant(a, b)
        self.ivcl = ivcl

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
        keys = [(g, r) for g in self.model_groups for r in range(3)]
        seeds = s_models.spawn(len(keys))
        train_seeds = s_train.spawn(len(keys))
        self.models = {}
        self.train_rngs = {}
        for key, seed, tseed in zip(keys, seeds, train_seeds):
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

    def _window_matrix(self, members: list[int], t: int, resource: int) -> np.ndarray:
        w = self.sc.window
        rows = [
            self.usage[t - w + 1 : t + 1, self.vm_index[vm], resource]
            for vm in members
        ]
        return np.stack(rows)

    def _train_and_predict(self, t: int):
        """Fit each model on sampled history windows, then forecast t+1.

        Returns {vm: np.array([cpu, mem, bw])} for active VMs.  Each model
        task is independent (own weights, own RNG), so fan-out across
        workers cannot reorder results.
        """
        sc = self.sc
        active = set(self._active_vms())
        out = {vm: self.nominals[self.vm_index[vm]].copy() for vm in active}
        # Until the first training pass the model is random noise; forecast
        # nominal demand instead.
        if t < sc.window:
            return out

        do_train = (t - sc.window) % sc.retrain_every == 0

        def task(key):
            group_key, resource = key
            model = self.models[key]
            live_members = [vm for vm in self.model_groups[group_key] if vm in active]
            if do_train:
                rng = self.train_rngs[key]
                # Window ending at index start+window-1 predicts start+window,
                # which must already be observed: start <= t - window.
                starts = t - sc.window + 1
                total = len(self.model_groups[group_key]) * starts
                n = min(sc.train_sample, total)
                picks = np.sort(rng.choice(total, size=n, replace=False))
                xs, ys = [], []
                for pick in picks:
                    member = self.model_groups[group_key][int(pick) // starts]
                    start = int(pick) % starts
                    series = self.usage[:, self.vm_index[member], resource]
                    xs.append(series[start : start + sc.window])
                    ys.append(series[start + sc.window])
                x = np.stack(xs)
                y = np.asarray(ys)
                model.set_bounds(np.concatenate([x.ravel(), y]))
                train_on_windows(model, x, y, epochs=sc.epochs)
            if not live_members:
                return key, [], np.empty(0)
            windows = self._window_matrix(live_members, t, resource)
            return key, live_members, model.predict_batch(windows)

        keys = [(g, r) for g in self.model_groups for r in range(3)]
        for key, members, preds in _pmap(task, keys, self.workers):
            _, resource = key
            for vm, value in zip(members, preds):
                out[vm][resource] = float(value)
        return out

    def _perf_samples(self, t: int, active: list[int]):
        """Delivered bandwidth share per VM after server-level contention.

        When a server's observed bandwidth demand exceeds its capacity,
        every hosted VM's delivery scales down proportionally; throughput
        is reported as the delivered fraction of nominal demand.
        """
        perf = {}
        thresholds = {}
        load: dict[int, float] = {}
        for vm in active:
            sid = self.placement.server_of(vm)
            load[sid] = load.get(sid, 0.0) + self.usage[t, self.vm_index[vm], 2]
        for vm in active:
            sid = self.placement.server_of(vm)
            cap = self.servers[sid].capacity.bw
            scale = 1.0 if load[sid] <= cap or load[sid] == 0 else cap / load[sid]
            delivered = self.usage[t, self.vm_index[vm], 2] * scale
            nominal = self.vms[vm].demand.bw
            frac = delivered / nominal if nominal > 0 else 1.0
            perf[vm] = (frac, delivered)
            g = self.vms[vm].guaranteed
            thresholds[vm] = (g.tp_min, g.bw_min)
        return perf, thresholds

    def _new_links(self, t: int) -> list[tuple[int, int]]:
        sc = self.sc
        if sc.scripted_links is not None:
            return [
                (s, d)
                for s, d in sc.scripted_links.get(t, [])
                if s not in self.suspended and d not in self.suspended
            ]
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
        )
        benign = benign_links(
            self.placement,
            self.benign_vm_ids,
            self.suspended,
            self.ivcl,
            sc.benign_link_rate,
            self.inject_rng,
        )
        return attacks + benign

    def _drop_link(self, ends: tuple[int, int], t: int) -> None:
        link = self.live.pop(ends, None)
        if link is None:
            return
        if classify_link(ends, self.ivcl).value == 1 and t - link.established_at >= 1:
            self.log.realized_breaches += 1

    def _apply_quarantine(self, directive: QuarantineDirective, t: int) -> None:
        for ends in sorted(directive.terminate_links):
            self._drop_link(ends, t)
        for vm_id in sorted(directive.suspend_vms):
            if vm_id in self.suspended:
                continue
            self.vms[vm_id].status = VmStatus.SUSPENDED
            self.suspended.add(vm_id)
            self.log.suspended.append(vm_id)
            if self.placement.server_of(vm_id) is not None:
                self.placement.remove(vm_id)
            for ends in sorted(self.live):
                if vm_id in ends:
                    self._drop_link(ends, t)
        sync_active(self.servers, self.placement)

    def _detect(self, t: int, vlams, active: list[int]) -> ThreatReport:
        perf, thresholds = self._perf_samples(t, active)
        vuln_scores = {sid: s.vulnerability_score for sid, s in self.servers.items()}
        chunks = _chunks(sorted(vlams), self.workers)

        def scan(server_ids):
            sub = {sid: vlams[sid] for sid in server_ids}
            return detect_colocation(self.placement, sub, self.ivcl)

        colocation = []
        for part in _pmap(scan, chunks, self.workers):
            colocation.extend(part)
        return build_threat_report(
            t,
            self.placement,
            vlams,
            self.ivcl,
            self.owners,
            perf=perf,
            thresholds=thresholds,
            vuln_scores=vuln_scores,
            min_links=self.sc.malicious_vm_threshold,
            colocation=colocation,
        )

    # -- main loop -------------------------------------------------------

    def step(self, t: int) -> None:
        sc = self.sc
        active = self._active_vms()
        observed_bw = {
            vm: float(self.usage[t, self.vm_index[vm], 2]) for vm in active
        }
        predicted_bw = {vm: float(self.predicted[vm][2]) for vm in active}

        if sc.policy == "oscmc":
            dev_threshold = sc.congestion_threshold_frac * sum(
                s.capacity.bw for s in self.servers.values()
            )
            congestion = detect_congestion(
                sum(observed_bw.values()),
                sum(predicted_bw.values()),
                delta_t=1.0,
                dev_threshold=dev_threshold,
                time_threshold=1.0,
            )
            next_pred = self._train_and_predict(t)
            hog_vms: list[tuple[int, float]] = []
            if active:
                values = [float(next_pred[vm][2]) for vm in active]
                n_clusters = min(sc.clusters, len(values))
                assignment = kmeans(
                    values,
                    n_clusters,
                    seed=int(self.kmeans_seeds[t]),
                    restarts=sc.kmeans_restarts,
                )
                top = assignment.top_cluster()
                hog_vms = [
                    (vm, float(next_pred[vm][2]))
                    for vm, label in zip(active, assignment.labels)
                    if label == top
                ]
            if not sc.pin_placement:
                result = rebalance(
                    congestion.value, self.placement, self.servers, hog_vms
                )
                self.placement = result.placement
                sync_active(self.servers, self.placement)
        else:
            congestion = None
            next_pred = {
                vm: self.nominals[self.vm_index[vm]].copy() for vm in active
            }

        for src, dst in self._new_links(t):
            if (src, dst) in self.live:
                continue
            self.live[(src, dst)] = Link(src, dst, established_at=t)
            if classify_link((src, dst), self.ivcl).value == 1:
                self.log.malicious_links_created += 1

        vlams = build_vlams(self.placement, self.live.keys(), self.servers.keys())

        if sc.policy == "oscmc":
            report = self._detect(t, vlams, self._active_vms())
        else:
            report = ThreatReport(interval=t)
        self.log.reports.append(report)
        self.detected_cum |= report.malicious_vms

        m = snapshot(
            t,
            self.servers,
            self.placement,
            observed_bw,
            predicted_bw,
            self.live.keys(),
            self.ivcl,
            hog_threshold=sc.hog_threshold,
            power_mode=sc.power_mode,
        )
        m.theta_col = len(report.colocation)
        m.theta_cas = len(report.cascading)
        m.theta_vul = len(report.vulnerability)
        m.malicious_vms_cum = len(self.detected_cum)
        if congestion is not None:
            m.extra["congestion"] = congestion.value
        self.log.metrics.append(m)

        if sc.policy == "oscmc" and (
            report.malicious_vms or report.malicious_link_set
        ):
            directive = quarantine(report, self.placement, vlams)
            self.log.directives.append(directive)
            self._apply_quarantine(directive, t)

        self.predicted = next_pred
        for vm in self._active_vms():
            if vm not in self.predicted:
                self.predicted[vm] = self.nominals[self.vm_index[vm]].copy()

    def finish(self) -> RunLog:
        last = self.sc.intervals - 1
        for ends, link in self.live.items():
            if (
                classify_link(ends, self.ivcl).value == 1
                and last - link.established_at >= 1
            ):
                self.log.realized_breaches += 1
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
