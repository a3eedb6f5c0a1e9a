"""Core data-centre entities: resource bundles, servers, users, VMs and the
VM-to-server placement map."""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field


class CapacityError(Exception):
    """A placement mutation would overrun a server's capacity."""


@dataclass(frozen=True)
class ResourceVector:
    """CPU (MIPS), memory (MB) and bandwidth demand or capacity as one bundle."""

    cpu: float
    mem: float
    bw: float

    def __post_init__(self):
        if self.cpu < 0 or self.mem < 0 or self.bw < 0:
            raise ValueError("resource components must be non-negative, got %r" % (self,))

    @classmethod
    def zero(cls) -> "ResourceVector":
        return cls(0.0, 0.0, 0.0)

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(self.cpu + other.cpu, self.mem + other.mem, self.bw + other.bw)

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(self.cpu - other.cpu, self.mem - other.mem, self.bw - other.bw)

    def fits_within(self, cap: "ResourceVector") -> bool:
        """Componentwise <= against a capacity bundle."""
        return self.cpu <= cap.cpu and self.mem <= cap.mem and self.bw <= cap.bw

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.cpu, self.mem, self.bw)


class VmStatus(enum.Enum):
    ACTIVE = "active"
    SUSPENDED = "suspended"
    TERMINATED = "terminated"


@dataclass(frozen=True)
class GuaranteedThreshold:
    """Minimum delivered throughput fraction and bandwidth a VM is promised."""

    tp_min: float
    bw_min: float


@dataclass
class Vm:
    id: int
    owner: int
    demand: ResourceVector
    status: VmStatus = VmStatus.ACTIVE
    guaranteed: GuaranteedThreshold = GuaranteedThreshold(0.0, 0.0)


@dataclass
class User:
    id: int
    vm_ids: set[int] = field(default_factory=set)
    # Ground truth used only by workload injection and evaluation, never by
    # the link monitor.
    is_malicious_truth: bool = False


@dataclass
class Server:
    id: int
    capacity: ResourceVector
    pw_max: float = 250.0
    pw_min: float = 105.0
    pw_idle: float = 70.0
    vulnerability_score: float = 0.0
    reserved_for_hogs: bool = False
    active: bool = False

    def __post_init__(self):
        if not 0.0 <= self.vulnerability_score <= 10.0:
            raise ValueError("vulnerability score must lie in [0, 10]")
        if not self.pw_idle <= self.pw_min <= self.pw_max:
            raise ValueError("power figures must satisfy idle <= min <= max")


@dataclass(frozen=True)
class AdmissionDecision:
    accepted: bool
    reason: str = ""


def admit_vm(vm: Vm, servers: dict[int, Server]) -> AdmissionDecision:
    """Accept a VM iff at least one server could ever satisfy its demand."""
    for server in servers.values():
        if vm.demand.fits_within(server.capacity):
            return AdmissionDecision(True)
    return AdmissionDecision(False, "demand exceeds every server capacity")


# Placement sums are kept in integer micro-units, so they are exact and do
# not depend on the order of mutations; resource values are rounded to 1e-6.
_UNITS = 1_000_000


def _to_units(rv: ResourceVector) -> tuple[int, int, int]:
    return (round(rv.cpu * _UNITS), round(rv.mem * _UNITS), round(rv.bw * _UNITS))


@functools.lru_cache(maxsize=4096)
def _from_units(units: tuple[int, int, int]) -> ResourceVector:
    # Few distinct totals occur and the vectors are immutable, so metrics
    # that read every server's load each interval share them.
    return ResourceVector(units[0] / _UNITS, units[1] / _UNITS, units[2] / _UNITS)


class Placement:
    """Mutable VM-to-server map that enforces the capacity constraint
    (sum of hosted demands componentwise <= server capacity) on every
    mutation."""

    def __init__(self, servers: dict[int, Server]):
        self._capacity: dict[int, tuple[int, int, int]] = {
            sid: _to_units(s.capacity) for sid, s in servers.items()
        }
        self._vm_to_server: dict[int, int] = {}
        self._server_to_vms: dict[int, set[int]] = {sid: set() for sid in servers}
        self._used: dict[int, tuple[int, int, int]] = {sid: (0, 0, 0) for sid in servers}
        self._demand: dict[int, ResourceVector] = {}

    # -- queries ---------------------------------------------------------

    def server_of(self, vm_id: int) -> int | None:
        return self._vm_to_server.get(vm_id)

    def vms_on(self, server_id: int) -> frozenset[int]:
        return frozenset(self._server_to_vms[server_id])

    def used(self, server_id: int) -> ResourceVector:
        return _from_units(self._used[server_id])

    def capacity(self, server_id: int) -> ResourceVector:
        return _from_units(self._capacity[server_id])

    def fits(self, server_id: int, demand: ResourceVector) -> bool:
        cpu, mem, bw = _to_units(demand)
        used_cpu, used_mem, used_bw = self._used[server_id]
        cap_cpu, cap_mem, cap_bw = self._capacity[server_id]
        return (
            used_cpu + cpu <= cap_cpu and used_mem + mem <= cap_mem and used_bw + bw <= cap_bw
        )

    def demand_of(self, vm_id: int) -> ResourceVector:
        return self._demand[vm_id]

    @property
    def vm_ids(self) -> frozenset[int]:
        return frozenset(self._vm_to_server)

    @property
    def server_ids(self) -> frozenset[int]:
        return frozenset(self._capacity)

    def co_located(self, a: int, b: int) -> bool:
        sa = self._vm_to_server.get(a)
        return sa is not None and sa == self._vm_to_server.get(b)

    # -- mutations -------------------------------------------------------

    def assign(self, vm_id: int, demand: ResourceVector, server_id: int) -> None:
        if vm_id in self._vm_to_server:
            raise CapacityError("VM %d is already placed" % vm_id)
        if server_id not in self._capacity:
            raise KeyError("unknown server %d" % server_id)
        if not self.fits(server_id, demand):
            raise CapacityError(
                "placing VM %d on server %d would exceed capacity" % (vm_id, server_id)
            )
        self._vm_to_server[vm_id] = server_id
        self._server_to_vms[server_id].add(vm_id)
        used = zip(self._used[server_id], _to_units(demand))
        self._used[server_id] = tuple(u + d for u, d in used)
        self._demand[vm_id] = demand

    def remove(self, vm_id: int) -> int:
        """Unhost a VM; returns the server it was on."""
        if vm_id not in self._vm_to_server:
            raise KeyError("VM %d is not placed" % vm_id)
        server_id = self._vm_to_server.pop(vm_id)
        self._server_to_vms[server_id].discard(vm_id)
        used = zip(self._used[server_id], _to_units(self._demand.pop(vm_id)))
        self._used[server_id] = tuple(u - d for u, d in used)
        return server_id

    def move(self, vm_id: int, server_id: int) -> None:
        demand = self._demand[vm_id]
        origin = self._vm_to_server[vm_id]
        if origin == server_id:
            return
        if not self.fits(server_id, demand):
            raise CapacityError(
                "moving VM %d to server %d would exceed capacity" % (vm_id, server_id)
            )
        self.remove(vm_id)
        self.assign(vm_id, demand, server_id)

    def copy(self) -> "Placement":
        clone = Placement.__new__(Placement)
        clone._capacity = self._capacity  # never mutated, safe to share
        clone._vm_to_server = dict(self._vm_to_server)
        clone._server_to_vms = {sid: set(vms) for sid, vms in self._server_to_vms.items()}
        clone._used = dict(self._used)
        clone._demand = dict(self._demand)
        return clone

    def capacity_ok(self) -> bool:
        """Recompute hosted demand sums and verify the capacity constraint."""
        for sid, vms in self._server_to_vms.items():
            sums = [sum(col) for col in zip(*(_to_units(self._demand[v]) for v in vms))]
            if any(s > c for s, c in zip(sums, self._capacity[sid])):
                return False
        return True


def sync_active(servers: dict[int, Server], placement: Placement) -> None:
    """A server is active iff it hosts at least one VM or is hog-reserved."""
    for sid, server in servers.items():
        server.active = bool(placement.vms_on(sid)) or server.reserved_for_hogs
