"""Core data-centre entities: resource bundles, servers and the VM-to-server
placement map."""

from __future__ import annotations

from dataclasses import dataclass

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

    def fits_within(self, cap: "ResourceVector") -> bool:
        """Componentwise <= against a capacity bundle."""
        return self.cpu <= cap.cpu and self.mem <= cap.mem and self.bw <= cap.bw

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.cpu, self.mem, self.bw)


@dataclass
class Server:
    id: int
    capacity: ResourceVector
    pw_max: float = 250.0
    pw_min: float = 105.0
    pw_idle: float = 70.0
    vulnerability_score: float = 0.0
    reserved_for_hogs: bool = False

    def __post_init__(self):
        if not 0.0 <= self.vulnerability_score <= 10.0:
            raise ValueError("vulnerability score must lie in [0, 10]")
        if not self.pw_idle <= self.pw_min <= self.pw_max:
            raise ValueError("power figures must satisfy idle <= min <= max")


# Placement sums are kept in integer micro-units, so they are exact and do
# not depend on the order of mutations; resource values are rounded to 1e-6.
_UNITS = 1_000_000
MAX_RESOURCE = 1e12  # a capacity ceiling of 10**18 units keeps int64 sums exact
_MAX_UNITS = 10**18


def to_units(rv: ResourceVector) -> tuple[int, int, int]:
    return (round(rv.cpu * _UNITS), round(rv.mem * _UNITS), round(rv.bw * _UNITS))


def _from_units(units: tuple[int, int, int]) -> ResourceVector:
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
    mutation.  It holds arrays alone.  Capacity and free capacity are
    ``int64 (S, 3)`` micro-unit arrays, a row per server; capacity is
    read-only and shared by copies.  Who runs where is one array indexed by
    VM id, holding each VM's server row (-1 when unplaced; VM ids are
    non-negative), with a VM count per row, and each VM's demand units are
    a row of an ``int64 (V, 3)`` array indexed the same way.  A server's
    VMs are the ids whose host row is its row."""

    def __init__(self, servers: dict[int, Server]):
        cap = [s.capacity for s in servers.values()]
        units = {id(c): to_units(c) for c in dict(zip(map(id, cap), cap)).values()}  # per object
        if any(u > _MAX_UNITS for each in units.values() for u in each):
            raise ValueError("server capacities must not exceed %g" % MAX_RESOURCE)
        self._row = dict(zip(servers, range(len(servers))))
        self._sid = tuple(servers)  # server id by row
        self._cap = np.array(list(map(units.__getitem__, map(id, cap))), np.int64).reshape(-1, 3)
        self._cap.flags.writeable = False
        self._free = self._cap.copy()
        self._host = np.full(0, -1, dtype=np.intp)
        self._count = np.zeros(len(self._sid), dtype=np.intp)
        self._units = np.zeros((0, 3), dtype=np.int64)  # stale for an unplaced id
        self._memo: dict = {}  # name -> (witness, value) of ``derived``

    # -- queries ---------------------------------------------------------

    def _host_row(self, vm_id: int) -> int:
        return self._host.item(vm_id) if 0 <= vm_id < self._host.size else -1

    def server_of(self, vm_id: int) -> int | None:
        row = self._host_row(vm_id)
        return self._sid[row] if row >= 0 else None

    def vms_on(self, server_id: int) -> np.ndarray:
        """The ids of the VMs a server hosts, ascending, as an int array."""
        return np.flatnonzero(self._host == self._row[server_id])

    def used(self, server_id: int) -> ResourceVector:
        row = self._row[server_id]
        (c0, c1, c2), (f0, f1, f2) = self._cap[row].tolist(), self._free[row].tolist()
        return _from_units((c0 - f0, c1 - f1, c2 - f2))

    def used_array(self, rows: np.ndarray) -> np.ndarray:
        """``used`` of the servers of ``rows`` as an ``(n, 3)`` float array."""
        return _from_units_array(self._cap.take(rows, 0) - self._free.take(rows, 0))

    def capacity(self, server_id: int) -> ResourceVector:
        return _from_units(tuple(self._cap[self._row[server_id]].tolist()))

    def capacity_array(self, rows: np.ndarray) -> np.ndarray:
        """``capacity`` of the servers of ``rows`` as an ``(n, 3)`` float array."""
        return _from_units_array(self._cap.take(rows, 0))

    def free_units(self, server_id: int) -> tuple[int, int, int]:
        """A server's free capacity in the integer micro-units of every sum."""
        return tuple(self._free[self._row[server_id]].tolist())

    def free_units_array(self, rows: np.ndarray) -> np.ndarray:
        """``free_units`` of the servers of ``rows`` as an ``(n, 3)`` int64 array."""
        return self._free.take(rows, 0)

    def occupied(self) -> np.ndarray:
        """Whether each row's server hosts at least one VM, in row order."""
        return self._count > 0

    def fits(self, server_id: int, demand: ResourceVector) -> bool:
        return all(map(int.__le__, to_units(demand), self.free_units(server_id)))

    def rows(self, server_ids: list[int]) -> np.ndarray:
        """The rows of ``server_ids``, in their order."""
        return np.array([self._row[sid] for sid in server_ids], dtype=np.intp)

    def host_rows(self, vm_ids) -> np.ndarray:
        """The row of each VM's server, -1 for an unplaced VM, in the order
        of ``vm_ids`` (non-negative ids, a sequence or an int array)."""
        ids = np.asarray(vm_ids, dtype=np.intp)
        host = self._host
        if ids.size and ids.max() >= host.size:
            host = np.concatenate([host, np.full(ids.max() + 1 - host.size, -1, np.intp)])
        return host[ids]

    def placed(self) -> np.ndarray:
        """The ids of the placed VMs, ascending, as an int array."""
        return np.flatnonzero(self._host >= 0)

    def fit_mask(self, units, rows: np.ndarray) -> np.ndarray:
        """Whether each server of ``rows`` can host ``units`` (clamped to int64)."""
        units = [[min(u, _MAX_UNITS + 1)] for u in units]
        return (self._free.T.take(rows, 1) >= np.array(units, dtype=np.int64)).all(axis=0)

    def demand_units(self, vm_id: int) -> tuple[int, int, int]:
        """A placed VM's demand in the micro-units of ``free_units``."""
        if self._host_row(vm_id) < 0:
            raise KeyError("VM %d is not placed" % vm_id)
        return tuple(self._units[vm_id].tolist())

    def demand_units_array(self, vm_ids: np.ndarray) -> np.ndarray:
        """``demand_units`` of placed ``vm_ids`` as an ``(n, 3)`` int64 array."""
        return self._units.take(vm_ids, 0)

    @property
    def vm_ids(self) -> frozenset[int]:
        return frozenset(self.placed().tolist())

    @property
    def server_ids(self) -> frozenset[int]:
        return frozenset(self._row)

    def derived(self, name: str, witness, build):
        """``build()`` of this state, kept under ``name`` while ``witness`` (all else
        it reads) compares equal.  Mutate only through the methods, which drop
        what is kept; a copy starts with none.  Do not change what it returns."""
        kept = self._memo.get(name)
        if kept is None or kept[0] != witness:
            kept = self._memo[name] = (witness, build())
        return kept[1]

    def keep(self, name: str, witness, value) -> None:
        """Keep ``value`` under ``name`` as if ``derived`` had built it."""
        self._memo[name] = (witness, value)

    # -- mutations -------------------------------------------------------

    def check_new_id(self, vm_id: int, pending=()) -> None:
        """Raise what ``assign`` raises for a negative id, or one placed or in ``pending``."""
        if vm_id < 0:
            raise ValueError("VM ids must be non-negative, got %d" % vm_id)
        if vm_id in pending or self._host_row(vm_id) >= 0:
            raise CapacityError("VM %d is already placed" % vm_id)

    def assign(self, vm_id: int, demand: ResourceVector, server_id: int) -> None:
        self.check_new_id(vm_id)
        if server_id not in self._row:
            raise KeyError("unknown server %d" % server_id)
        # Clamped, so a demand above the ceiling overruns instead of overflowing int64.
        units = [min(u, _MAX_UNITS + 1) for u in to_units(demand)]
        self.assign_rows([vm_id], [units], self.rows([server_id]))

    def assign_rows(self, vm_ids, units, rows: np.ndarray) -> None:
        """Place VMs whose ids passed ``check_new_id`` in one write: VM
        ``vm_ids[i]`` with demand ``units[i]`` on row ``rows[i]``.  The
        capacity check covers every row at once; on a fault it names the
        first VM that ``assign`` would have refused, and nothing is written."""
        vm_ids = np.asarray(vm_ids, dtype=np.intp)
        units = np.array(units, dtype=np.int64).reshape(-1, 3)
        free = self._free.copy()
        np.subtract.at(free, rows, units)
        if (free < 0).any():
            left = self._free.copy()
            for vm_id, row, need in zip(vm_ids, rows.tolist(), units):
                left[row] -= need
                if (left[row] < 0).any():
                    raise CapacityError("placing VM %d on server %d would exceed capacity"
                                        % (vm_id, self._sid[row]))
        if vm_ids.size and vm_ids.max() >= self._host.size:  # at least double, once
            grow = max(int(vm_ids.max()) + 1 - self._host.size, self._host.size)
            self._host = np.concatenate([self._host, np.full(grow, -1, np.intp)])
            self._units = np.concatenate([self._units, np.zeros((grow, 3), np.int64)])
        self._host[vm_ids] = rows
        self._units[vm_ids] = units
        self._count += np.bincount(rows, minlength=len(self._sid))
        self._free = free
        self._memo.clear()

    def remove(self, vm_id: int) -> int:
        """Unhost a VM; returns the server it was on."""
        row = self._host_row(vm_id)
        if row < 0:
            raise KeyError("VM %d is not placed" % vm_id)
        self._host[vm_id] = -1
        self._count[row] -= 1
        self._free[row] += self._units[vm_id]
        self._memo.clear()
        return self._sid[row]

    def move(self, vm_id: int, server_id: int) -> None:
        origin = self.server_of(vm_id)
        if origin is None:
            raise KeyError("VM %d is not placed" % vm_id)
        if origin == server_id:
            return
        row = self._row[server_id]
        if not (self._units[vm_id] <= self._free[row]).all():
            raise CapacityError(
                "moving VM %d to server %d would exceed capacity" % (vm_id, server_id)
            )
        self.remove(vm_id)
        self._host[vm_id] = row
        self._count[row] += 1
        self._free[row] -= self._units[vm_id]

    def copy(self) -> "Placement":
        clone = Placement.__new__(Placement)
        # Never mutated, safe to share.
        clone._cap, clone._row, clone._sid = self._cap, self._row, self._sid
        clone._free = self._free.copy()
        clone._host = self._host.copy()
        clone._count = self._count.copy()
        clone._units = self._units.copy()
        clone._memo = {}
        return clone

    def capacity_ok(self) -> bool:
        """Recompute each server's hosted demand sums and VM count from the
        host and demand arrays; verify the capacity constraint and that free
        capacity and the counts agree with them."""
        placed = self.placed()
        sums = np.zeros_like(self._cap)
        np.add.at(sums, self._host[placed], self._units[placed])
        counts = np.bincount(self._host[placed], minlength=len(self._sid))
        return bool((sums <= self._cap).all() and (self._free == self._cap - sums).all()
                    and (self._count == counts).all())
