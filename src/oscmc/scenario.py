"""Scenario definitions: the knobs of one simulated data centre, shipped
presets and the key/value scenario file format."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace


class ScenarioError(Exception):
    """Scenario file or parameter problem."""


POLICIES = ("oscmc", "pssf", "wosc")

DEFAULT_FLAVORS = [(500.0, 512.0, 1000.0), (1000.0, 1024.0, 1000.0)]


@dataclass
class Scenario:
    name: str = "custom"
    servers: int = 10
    vms: int = 21
    users: int | None = None  # defaults to one third of the VM count
    malicious_user_pct: float = 20.0
    intervals: int = 30
    seed: int = 1
    policy: str = "oscmc"

    # server fleet
    server_cpu: float = 2000.0
    server_mem: float = 2048.0
    server_bw: float = 10000.0
    pw_idle: float = 70.0
    pw_min: float = 105.0
    pw_max: float = 250.0
    reserved_per: int = 10  # one hog-reserved server per this many servers
    vuln_score_fixed: float | None = None  # None draws uniform [0, 10]

    # VM flavors, cycled over VM ids
    vm_flavors: list[tuple[float, float, float]] = field(
        default_factory=lambda: [tuple(f) for f in DEFAULT_FLAVORS]
    )

    # link generation
    benign_link_rate: float = 0.4
    attack_colocated_rate: float = 0.3
    attack_remote_rate: float = 0.3
    attack_mode: str = "steady"  # steady | burst
    burst_period: int = 5
    cross_user_auth_rate: float = 0.05

    # forecasting
    window: int = 6
    hidden: int = 8
    learning_rate: float = 0.05
    epochs: int = 200
    retrain_every: int = 1
    train_sample: int = 256
    per_vm_models: bool = False

    # clustering, congestion, hogs, detection
    clusters: int = 3
    kmeans_restarts: int = 10
    congestion_threshold_frac: float = 0.10
    hog_threshold: float = 0.5
    malicious_vm_threshold: int = 1
    guaranteed_frac: float = 0.10
    power_mode: str = "mean"  # mean | cpu

    # workload
    workload_sigma: float = 0.08
    burst_enter: float = 0.06
    burst_exit: float = 0.15
    burst_mult: float = 2.5
    trace_path: str | None = None
    trace_rescale: bool = True

    # pinned structure, used by presets and tests
    pin_placement: bool = False
    fixed_placement: dict[int, list[int]] | None = None
    fixed_users: dict[int, list[int]] | None = None
    fixed_malicious_users: list[int] | None = None
    scripted_links: dict[int, list[tuple[int, int]]] | None = None

    workers: int = 1

    def validate(self) -> None:
        for name in (
            "servers", "vms", "intervals", "clusters", "window", "hidden",
            "retrain_every", "train_sample", "kmeans_restarts",
            "malicious_vm_threshold", "workers",
        ):
            if getattr(self, name) < 1:
                raise ScenarioError("%s must be >= 1" % name)
        for name in ("hog_threshold", "workload_sigma"):
            if getattr(self, name) < 0:
                raise ScenarioError("%s must be >= 0" % name)
        for name in (
            "benign_link_rate",
            "attack_colocated_rate",
            "attack_remote_rate",
            "cross_user_auth_rate",
        ):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ScenarioError("%s must lie in [0, 1]" % name)
        if self.policy not in POLICIES:
            raise ScenarioError("unknown policy %r" % self.policy)
        if not 0.0 <= self.malicious_user_pct <= 100.0:
            raise ScenarioError("malicious_user_pct must lie in [0, 100]")
        if self.users is not None and not 1 <= self.users <= self.vms:
            raise ScenarioError("users must lie in [1, vms]")
        if self.attack_mode not in ("steady", "burst"):
            raise ScenarioError("attack_mode must be steady or burst")
        if self.attack_mode == "burst" and self.burst_period < 1:
            raise ScenarioError("burst_period must be >= 1")
        if not self.vm_flavors:
            raise ScenarioError("at least one VM flavor is required")
        resources = [self.server_cpu, self.server_mem, self.server_bw]
        resources += [x for flavor in self.vm_flavors for x in flavor]
        if not all(0 <= x < math.inf for x in resources):
            raise ScenarioError("vm_flavors and server_cpu/mem/bw must be finite and >= 0")
        if not self.pw_idle <= self.pw_min <= self.pw_max:
            raise ScenarioError("power figures must satisfy pw_idle <= pw_min <= pw_max")
        if self.vuln_score_fixed is not None and not 0.0 <= self.vuln_score_fixed <= 10.0:
            raise ScenarioError("vuln_score_fixed must lie in [0, 10]")
        if not self.learning_rate > 0:
            raise ScenarioError("learning_rate must be > 0")
        if self.power_mode not in ("mean", "cpu"):
            raise ScenarioError("power_mode must be mean or cpu")

    def user_count(self) -> int:
        if self.fixed_users:
            return len(self.fixed_users)
        if self.users is not None:
            return self.users
        return max(1, self.vms // 3)


# -- presets ------------------------------------------------------------


def _illustration() -> Scenario:
    """Fixed 5-server, 15-VM walkthrough: four users, one of them hostile.

    The placement, user grouping and every link are scripted so detection
    outcomes are exact: the hostile user's VMs probe co-located victims on
    servers 1, 3 and 5 and reach remote victims over cross-server flows,
    while benign users exchange only authorised traffic.
    """
    users = {
        1: [1, 2, 3, 4],
        2: [5, 6, 7],
        3: [8, 9, 10, 11],
        4: [12, 13, 14, 15],
    }
    placement = {
        1: [1, 3, 11],
        2: [2, 7, 12],
        3: [5, 6, 8],
        4: [4, 9, 14],
        5: [13, 10, 15],
    }
    benign_links = [
        (1, 2), (1, 3), (3, 4), (2, 4),
        (5, 6), (5, 7), (6, 7),
        (13, 12), (15, 14), (13, 14),
    ]
    attack_links = [
        (11, 1), (11, 3),
        (8, 5), (8, 6),
        (10, 13), (10, 15),
        (9, 2), (9, 7), (9, 12),
    ]
    return Scenario(
        name="illustration",
        servers=5,
        vms=15,
        intervals=3,
        seed=42,
        vm_flavors=[(500.0, 512.0, 1000.0)],
        reserved_per=0,
        vuln_score_fixed=5.0,
        cross_user_auth_rate=0.0,
        benign_link_rate=0.0,
        attack_colocated_rate=0.0,
        attack_remote_rate=0.0,
        fixed_users=users,
        fixed_malicious_users=[3],
        fixed_placement=placement,
        pin_placement=True,
        scripted_links={0: benign_links + attack_links},
    )


def _xi(vms: int) -> Scenario:
    servers = int(vms * 0.45 + 0.999)
    return Scenario(
        name="xi%d" % vms,
        servers=servers,
        vms=vms,
        intervals=30,
        seed=7,
        malicious_user_pct=20.0,
        attack_mode="steady",
    )


PRESETS = {
    "illustration": _illustration,
    "xi200": lambda: _xi(200),
    "xi500": lambda: _xi(500),
    "xi800": lambda: _xi(800),
    "xi1100": lambda: _xi(1100),
}


# -- scenario file format -----------------------------------------------

_INT_KEYS = {
    "servers", "vms", "users", "intervals", "seed", "reserved_per",
    "burst_period", "window", "hidden", "epochs", "retrain_every",
    "train_sample", "clusters", "kmeans_restarts", "malicious_vm_threshold",
    "workers",
}
_FLOAT_KEYS = {
    "malicious_user_pct", "server_cpu", "server_mem", "server_bw",
    "pw_idle", "pw_min", "pw_max", "vuln_score_fixed", "benign_link_rate",
    "attack_colocated_rate", "attack_remote_rate", "cross_user_auth_rate",
    "learning_rate", "congestion_threshold_frac", "hog_threshold",
    "guaranteed_frac", "workload_sigma", "burst_enter", "burst_exit",
    "burst_mult",
}
_BOOL_KEYS = {"per_vm_models", "trace_rescale", "pin_placement"}
_STR_KEYS = {"name", "policy", "attack_mode", "power_mode", "trace_path"}


def parse_scenario_text(text: str, name: str = "custom") -> Scenario:
    """Parse the key/value scenario format: one ``key = value`` per line,
    blank lines and ``#`` comments ignored, flavors written as
    colon-separated cpu:mem:bw triples joined by commas."""
    sc = Scenario(name=name)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError("line %d: expected key = value" % lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            if key == "vm_flavors":
                flavors = []
                for chunk in value.split(","):
                    parts = [float(x) for x in chunk.strip().split(":")]
                    if len(parts) != 3:
                        raise ValueError
                    flavors.append(tuple(parts))
                sc.vm_flavors = flavors
            elif key in _INT_KEYS:
                setattr(sc, key, int(value))
            elif key in _FLOAT_KEYS:
                setattr(sc, key, float(value))
            elif key in _BOOL_KEYS:
                if value.lower() not in ("true", "false", "1", "0"):
                    raise ValueError
                setattr(sc, key, value.lower() in ("true", "1"))
            elif key in _STR_KEYS:
                setattr(sc, key, value)
            else:
                raise ScenarioError("line %d: unknown key %r" % (lineno, key))
        except ScenarioError:
            raise
        except ValueError:
            raise ScenarioError("line %d: bad value %r for %s" % (lineno, value, key))
    sc.validate()
    return sc


def load_scenario(ref: str) -> Scenario:
    """Resolve a preset name or scenario file path."""
    if ref in PRESETS:
        return PRESETS[ref]()
    if os.path.exists(ref):
        with open(ref) as fh:
            text = fh.read()
        name = os.path.splitext(os.path.basename(ref))[0]
        return parse_scenario_text(text, name=name)
    raise ScenarioError("scenario not found: %s" % ref)


def with_policy(sc: Scenario, policy: str) -> Scenario:
    if policy not in POLICIES:
        raise ScenarioError("unknown policy %r" % policy)
    return replace(sc, policy=policy)
