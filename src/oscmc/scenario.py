"""Scenario definitions: the knobs of one simulated data centre, shipped
presets and the key/value scenario file format."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields, replace

from .model import MAX_RESOURCE


class ScenarioError(Exception):
    """Scenario file or parameter problem."""


POLICIES = ("oscmc", "pssf", "wosc")

DEFAULT_FLAVORS = [(500.0, 512.0, 1000.0), (1000.0, 1024.0, 1000.0)]


def knob(default, lo=None, hi=None, above=None, among=None):
    """A scalar knob's field and the domain validate checks: ``value >= lo``,
    ``lo <= value <= hi``, ``value > above`` or ``value in among``."""
    return field(default=default, metadata={"domain": (lo, hi, above, among)})


@dataclass
class Scenario:
    name: str = "custom"
    servers: int = knob(10, 1)
    vms: int = knob(21, 1)
    users: int | None = None  # defaults to one third of the VM count
    malicious_user_pct: float = knob(20.0, 0, 100)
    intervals: int = knob(30, 1)
    seed: int = knob(1, 0)
    policy: str = knob("oscmc", among=POLICIES)

    # server fleet
    server_cpu: float = 2000.0
    server_mem: float = 2048.0
    server_bw: float = 10000.0
    pw_idle: float = knob(70.0, 0)
    pw_min: float = 105.0
    pw_max: float = 250.0
    reserved_per: int = knob(10, 0)  # one hog-reserved server per this many servers
    vuln_score_fixed: float | None = knob(None, 0, 10)  # None draws uniform [0, 10]

    # VM flavors, cycled over VM ids
    vm_flavors: list[tuple[float, float, float]] = field(
        default_factory=lambda: [tuple(f) for f in DEFAULT_FLAVORS]
    )

    # link generation
    benign_link_rate: float = knob(0.4, 0, 1)
    attack_colocated_rate: float = knob(0.3, 0, 1)
    attack_remote_rate: float = knob(0.3, 0, 1)
    attack_mode: str = knob("steady", among=("steady", "burst"))
    burst_period: int = 5
    cross_user_auth_rate: float = knob(0.05, 0, 1)

    # forecasting
    window: int = knob(6, 1)
    hidden: int = knob(8, 1)
    learning_rate: float = knob(0.05, above=0)
    epochs: int = knob(200, 1)
    retrain_every: int = knob(1, 1)
    train_sample: int = knob(256, 1)
    per_vm_models: bool = False

    # clustering, congestion, hogs, detection
    clusters: int = knob(3, 1)
    kmeans_restarts: int = knob(10, 1)
    congestion_threshold_frac: float = knob(0.10, 0)
    hog_threshold: float = knob(0.5, 0, 1e6)  # count_hogs overflowed at 1e308
    malicious_vm_threshold: int = knob(1, 1)
    guaranteed_frac: float = knob(0.10, 0, 1)
    power_mode: str = knob("mean", among=("mean", "cpu"))

    # workload (usage <= 1.3 * MAX_RESOURCE * burst_mult: at 1e6 its squares stay finite)
    workload_sigma: float = knob(0.08, 0, 1e6)  # synthetic_usage overflowed at 1e308
    burst_enter: float = knob(0.06, 0, 1)
    burst_exit: float = knob(0.15, 0, 1)
    burst_mult: float = knob(2.5, 0, 1e6)  # k-means overflowed its square at 1e160
    trace_path: str | None = None
    trace_rescale: bool = True

    # pinned structure, used by presets and tests
    pin_placement: bool = False
    fixed_placement: dict[int, list[int]] | None = None
    fixed_users: dict[int, list[int]] | None = None
    fixed_malicious_users: list[int] | None = None
    scripted_links: dict[int, list[tuple[int, int]]] | None = None

    workers: int = knob(1, 1)

    def validate(self) -> None:
        for name, is_float, nullable, lo, hi, above, among in _KNOBS:
            value = getattr(self, name)
            if value is None and nullable:
                continue
            if is_float and not math.isfinite(value):
                raise ScenarioError("%s must be finite" % name)
            if among is not None and value not in among:
                raise ScenarioError("%s must be %s" % (name, " or ".join(among)))
            if hi is not None and not lo <= value <= hi:
                raise ScenarioError("%s must lie in [%g, %g]" % (name, lo, hi))
            if hi is None and lo is not None and not value >= lo:
                raise ScenarioError("%s must be >= %g" % (name, lo))
            if above is not None and not value > above:
                raise ScenarioError("%s must be > %g" % (name, above))
        if self.users is not None and not 1 <= self.users <= self.vms:
            raise ScenarioError("users must lie in [1, vms]")
        if self.attack_mode == "burst" and self.burst_period < 1:
            raise ScenarioError("burst_period must be >= 1")
        if not self.vm_flavors:
            raise ScenarioError("at least one VM flavor is required")
        resources = [self.server_cpu, self.server_mem, self.server_bw]
        resources += [x for flavor in self.vm_flavors for x in flavor]
        if not all(0 <= x <= MAX_RESOURCE for x in resources):
            raise ScenarioError(
                "vm_flavors and server_cpu/mem/bw must lie in [0, %g]" % MAX_RESOURCE
            )
        if not self.pw_idle <= self.pw_min <= self.pw_max:
            raise ScenarioError("power figures must satisfy pw_idle <= pw_min <= pw_max")
        # Per interval a run keeps ~1.6 KB of log, and a float64 of usage per VM;
        # per server ~730 B, so 2**18 servers set up in about 1.3 s at a 230 MB peak.
        for name in ("intervals", "servers"):
            if getattr(self, name) > 2**18:
                raise ScenarioError("%s must be <= 2**18" % name)
        if self.intervals * self.vms > 2**27:
            raise ScenarioError("intervals * vms must be <= 2**27 usage values")
        if self.window * self.hidden > 2**20:
            raise ScenarioError("window * hidden must be <= 2**20 weights per network")
        # Training holds (groups, rows, hidden) work arrays: a group is a flavor, or
        # a VM under per_vm_models, with a row per window of its VMs, up to train_sample.
        groups = self.vms if self.per_vm_models else min(len(self.vm_flavors), self.vms)
        rows = min(self.train_sample, -(-self.vms // groups) * self.intervals)
        if groups * rows * self.hidden > 2**24:
            what = "VMs under per_vm_models" if self.per_vm_models else "flavors"
            raise ScenarioError("train_sample * hidden times the %s must be <= 2**24" % what)
        if self.per_vm_models and self.vms * self.window * self.hidden > 2**24:
            raise ScenarioError("vms * window * hidden must be <= 2**24 under per_vm_models")
        # The authorised-link log holds an int32 key per grant below 46341 VMs, and
        # set-up draws a uniform per cross-user pair: 2**25 is 128 MiB, about 5 s.
        if self.cross_user_auth_rate * self.vms**2 > 2**25:
            raise ScenarioError("cross_user_auth_rate * vms**2 must be <= 2**25 expected grants")
        ends = [v for links in (self.scripted_links or {}).values() for link in links for v in link]
        if not _ids_in(ends, self.vms):
            raise ScenarioError("scripted_links must join VMs 1 to vms")
        users = self.fixed_users or range(1, self.user_count() + 1)
        owned = [v for vms in (self.fixed_users or {}).values() for v in vms]
        if self.fixed_users and not (len(owned) == self.vms and _ids_in(owned, self.vms, True)):
            raise ScenarioError("fixed_users must give each of VMs 1 to vms one owner")
        if not all(u == int(u) for u in users):
            raise ScenarioError("fixed_users must have whole-number user ids")
        placed = [v for vms in (self.fixed_placement or {}).values() for v in vms]
        if not _ids_in(placed, self.vms, True):
            raise ScenarioError("fixed_placement must name each of VMs 1 to vms at most once")
        if not _ids_in(self.fixed_placement or (), self.servers):
            raise ScenarioError("fixed_placement must name servers 1 to servers")
        if not all(u in users for u in self.fixed_malicious_users or ()):
            raise ScenarioError("fixed_malicious_users must name users of the scenario")
        # Set-up grants each same-owner ordered pair with one Python call (about
        # 0.2 us and 24 B a pair), and draws a uniform per cross-user pair (about
        # 4.3 ns) when the rate is positive: some 1.4 s and 4.6 s at the two bounds.
        if self.fixed_users:
            same = sum(len(vms) * (len(vms) - 1) for vms in self.fixed_users.values())
        else:
            m = self.user_count()
            q, r = divmod(self.vms, m)  # np.array_split's sizes: r of q + 1, the rest q
            same = r * (q + 1) * q + (m - r) * q * (q - 1)
        if same > 2**23:
            raise ScenarioError("same-owner VM pairs must be <= 2**23: raise users")
        if self.cross_user_auth_rate > 0 and self.vms * (self.vms - 1) - same > 2**30:
            msg = "cross-user VM pairs must be <= 2**30 when cross_user_auth_rate > 0"
            raise ScenarioError(msg)

    def user_count(self) -> int:
        if self.fixed_users:
            return len(self.fixed_users)
        if self.users is not None:
            return self.users
        return max(1, self.vms // 3)


def _ids_in(values, count, distinct: bool = False) -> bool:
    """Whether each of ``values`` is a whole number from 1 to ``count``,
    and with ``distinct`` no two are equal."""
    ok = all(1 <= v <= count and v == int(v) for v in values)
    return ok and not (distinct and len(set(values)) < len(values))


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

def _parse_bool(value: str) -> bool:
    if value.lower() not in ("true", "false", "1", "0"):
        raise ValueError
    return value.lower() in ("true", "1")


_PARSERS = {"int": int, "float": float, "bool": _parse_bool, "str": str}
# Each scalar knob's type, read from its annotation (a string here, such as
# "int | None"); the dict and list knobs have none.
_SCALAR_KEYS = {
    f.name: kind for f in fields(Scenario) if (kind := f.type.split(" | ")[0]) in _PARSERS
}
# validate's scalar knobs, in field order: is float (must be finite), may be None, domain.
_KNOBS = [
    (f.name, kind == "float", f.default is None, *f.metadata.get("domain", (None,) * 4))
    for f in fields(Scenario)
    if (kind := _SCALAR_KEYS.get(f.name)) == "float" or "domain" in f.metadata
]


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
            elif key in _SCALAR_KEYS:
                setattr(sc, key, _PARSERS[_SCALAR_KEYS[key]](value))
            else:
                raise ScenarioError("line %d: unknown key %r" % (lineno, key))
        except ValueError:
            raise ScenarioError("line %d: bad value %r for %s" % (lineno, value, key))
    sc.validate()
    return sc


def load_scenario(ref: str) -> Scenario:
    """Resolve a preset name or scenario file path."""
    if ref in PRESETS:
        return PRESETS[ref]()
    if os.path.exists(ref):
        try:
            with open(ref) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise ScenarioError("cannot read scenario %s: %s" % (ref, reason)) from None
        name = os.path.splitext(os.path.basename(ref))[0]
        return parse_scenario_text(text, name=name)
    raise ScenarioError("scenario not found: %s" % ref)


def with_policy(sc: Scenario, policy: str) -> Scenario:
    """A validated copy of ``sc`` under ``policy``."""
    other = replace(sc, policy=policy)
    other.validate()
    return other
