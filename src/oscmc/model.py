"""Core data-centre entities: resource bundles, servers, users, VMs and the
VM-to-server placement map."""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np


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
MAX_RESOURCE = 1e12  # a capacity ceiling of 10**18 units keeps int64 sums exact
_MAX_UNITS = 10**18


def _to_units(rv: ResourceVector) -> tuple[int, int, int]:
    return (round(rv.cpu * _UNITS), round(rv.mem * _UNITS), round(rv.bw * _UNITS))


@functools.lru_cache(maxsize=4096)
def _from_units(units: tuple[int, int, int]) -> ResourceVector:
    # Few distinct totals occur and the vectors are immutable, so metrics
    # that read every server's load each interval share them.
    return ResourceVector(units[0] / _UNITS, units[1] / _UNITS, units[2] / _UNITS)


def _from_units_array(units: np.ndarray) -> np.ndarray:
    """``_from_units`` over an int64 array, value for value.

    Python divides ints with one rounding.  Up to 2**53 an int64 converts
    to float64 exactly, so ``units / 1e6`` rounds once too.  Above it the
    conversion would round first, but ``q + r / 1e6`` (``q, r`` the
    quotient and remainder by 10**6) is exact: ``q`` exceeds 2**33, so the
    rounding of ``r / 1e6`` cannot move the sum across a halfway point.
    That form rounds twice for small ``q`` (totals of 2**19 to 2**32 units
    with a fractional part), so neither form serves every range alone.
    """
    out = units / _UNITS
    big = units > 2**53
    if big.any():
        q, r = np.divmod(units[big], _UNITS)
        out[big] = q + r / _UNITS
    return out


class Placement:
    """Mutable VM-to-server map that enforces the capacity constraint
    (sum of hosted demands componentwise <= server capacity) on every
    mutation.  Capacity and free capacity are ``int64 (S, 3)`` arrays, a row
    per server; capacity is read-only and shared by copies."""

    def __init__(self, servers: dict[int, Server]):
        cap = [_to_units(s.capacity) for s in servers.values()]
        if any(u > _MAX_UNITS for units in cap for u in units):
            raise ValueError("server capacities must not exceed %g" % MAX_RESOURCE)
        self._row = {sid: row for row, sid in enumerate(servers)}
        self._cap = np.array(cap, dtype=np.int64).reshape(-1, 3)
        self._cap.flags.writeable = False
        self._free = self._cap.copy()
        self._vm_to_server: dict[int, int] = {}
        self._server_to_vms: dict[int, set[int]] = {sid: set() for sid in servers}
        self._demand: dict[int, tuple[ResourceVector, np.ndarray]] = {}  # and its units

    # -- queries ---------------------------------------------------------

    def server_of(self, vm_id: int) -> int | None:
        return self._vm_to_server.get(vm_id)

    def vms_on(self, server_id: int) -> frozenset[int]:
        return frozenset(self._server_to_vms[server_id])

    def used(self, server_id: int) -> ResourceVector:
        row = self._row[server_id]
        (c0, c1, c2), (f0, f1, f2) = self._cap[row].tolist(), self._free[row].tolist()
        return _from_units((c0 - f0, c1 - f1, c2 - f2))

    def used_array(self, rows: np.ndarray) -> np.ndarray:
        """``used`` of the servers of ``rows`` as an ``(n, 3)`` float array."""
        return _from_units_array(self._cap[rows] - self._free[rows])

    def capacity(self, server_id: int) -> ResourceVector:
        return _from_units(tuple(self._cap[self._row[server_id]].tolist()))

    def fits(self, server_id: int, demand: ResourceVector) -> bool:
        free = self._free[self._row[server_id]].tolist()
        return all(d <= f for d, f in zip(_to_units(demand), free))

    def rows(self, server_ids: list[int]) -> np.ndarray:
        """The rows of ``server_ids``, in their order."""
        return np.array([self._row[sid] for sid in server_ids], dtype=np.intp)

    def host_rows(self, vm_ids: list[int]) -> np.ndarray:
        """The row of each placed VM's server, in the order of ``vm_ids``."""
        hosts = map(self._vm_to_server.__getitem__, vm_ids)
        return np.fromiter(map(self._row.__getitem__, hosts), np.intp, len(vm_ids))

    def fit_mask(self, demand: ResourceVector, rows: np.ndarray) -> np.ndarray:
        """Whether each server of ``rows`` can host ``demand`` (clamped to int64)."""
        units = [[min(u, _MAX_UNITS + 1)] for u in _to_units(demand)]
        return (self._free.T.take(rows, 1) >= np.array(units, dtype=np.int64)).all(axis=0)

    def demand_of(self, vm_id: int) -> ResourceVector:
        return self._demand[vm_id][0]

    @property
    def vm_ids(self) -> frozenset[int]:
        return frozenset(self._vm_to_server)

    @property
    def server_ids(self) -> frozenset[int]:
        return frozenset(self._row)

    def co_located(self, a: int, b: int) -> bool:
        sa = self._vm_to_server.get(a)
        return sa is not None and sa == self._vm_to_server.get(b)

    # -- mutations -------------------------------------------------------

    def assign(self, vm_id: int, demand: ResourceVector, server_id: int) -> None:
        if vm_id in self._vm_to_server:
            raise CapacityError("VM %d is already placed" % vm_id)
        if server_id not in self._row:
            raise KeyError("unknown server %d" % server_id)
        if not self.fits(server_id, demand):
            raise CapacityError(
                "placing VM %d on server %d would exceed capacity" % (vm_id, server_id)
            )
        self._place(vm_id, demand, np.array(_to_units(demand), dtype=np.int64), server_id)

    def _place(self, vm_id: int, demand: ResourceVector, units, server_id: int) -> None:
        self._vm_to_server[vm_id] = server_id
        self._server_to_vms[server_id].add(vm_id)
        self._free[self._row[server_id]] -= units
        self._demand[vm_id] = (demand, units)

    def remove(self, vm_id: int) -> int:
        """Unhost a VM; returns the server it was on."""
        if vm_id not in self._vm_to_server:
            raise KeyError("VM %d is not placed" % vm_id)
        server_id = self._vm_to_server.pop(vm_id)
        self._server_to_vms[server_id].discard(vm_id)
        self._free[self._row[server_id]] += self._demand.pop(vm_id)[1]
        return server_id

    def move(self, vm_id: int, server_id: int) -> None:
        origin = self._vm_to_server[vm_id]
        if origin == server_id:
            return
        demand, units = self._demand[vm_id]
        if not (units <= self._free[self._row[server_id]]).all():
            raise CapacityError(
                "moving VM %d to server %d would exceed capacity" % (vm_id, server_id)
            )
        self.remove(vm_id)
        self._place(vm_id, demand, units, server_id)

    def copy(self) -> "Placement":
        clone = Placement.__new__(Placement)
        clone._cap, clone._row = self._cap, self._row  # never mutated, safe to share
        clone._free = self._free.copy()
        clone._vm_to_server = dict(self._vm_to_server)
        clone._server_to_vms = {sid: set(vms) for sid, vms in self._server_to_vms.items()}
        clone._demand = dict(self._demand)
        return clone

    def capacity_ok(self) -> bool:
        """Recompute hosted demand sums and verify the capacity constraint."""
        for sid, vms in self._server_to_vms.items():
            sums = [sum(col) for col in zip(*(_to_units(self._demand[v][0]) for v in vms))]
            if any(s > c for s, c in zip(sums, self._cap[self._row[sid]].tolist())):
                return False
        return True


def sync_active(servers: dict[int, Server], placement: Placement) -> None:
    """A server is active iff it hosts at least one VM or is hog-reserved."""
    for sid, server in servers.items():
        server.active = bool(placement.vms_on(sid)) or server.reserved_for_hogs
