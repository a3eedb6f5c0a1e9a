"""Utilisation, power and traffic-health metrics for one interval."""

from __future__ import annotations

import sys
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .model import Placement, Server
from .monitor import Ivcl, classify_link


class InactiveServerError(Exception):
    """Resource utilisation asked for a server that is not active."""


class EmptyDataCenterError(Exception):
    """Data-centre-wide metric asked with no active server."""


def _powered(server: Server, placement: Placement) -> bool:
    """The activity rule: powered while hosting a VM or reserved for hogs."""
    return server.reserved_for_hogs or placement.vms_on(server.id).size > 0


def ru_server(server: Server, placement: Placement) -> tuple[float, float, float]:
    """Per-resource utilisation fractions (cpu, mem, bw) of one server."""
    if not _powered(server, placement):
        raise InactiveServerError("RU undefined for inactive server %d" % server.id)
    used, cap = placement.used(server.id).as_tuple(), server.capacity.as_tuple()
    return tuple(u / c if c > 0 else 0.0 for u, c in zip(used, cap))


def ru_dc(servers: dict[int, Server], placement: Placement) -> float:
    """Mean utilisation across resources and active servers."""
    return _mean_ru(_active(servers, placement)[2])


def _mean_ru(sums: np.ndarray) -> float:
    """The mean of the row sums per resource, their total added from 0.0 left
    to right (``total += s``) on every Python version."""
    if not sums.size:
        raise EmptyDataCenterError("empty data center")
    return float(_running(sums)[1][-1]) / (3.0 * sums.size)


def _running(a) -> tuple[np.ndarray, np.ndarray]:
    """``a`` as float64 with its first term ``0 + a[0]`` (a ``-0.0`` leads as
    ``0.0``), and its running sums from the left along the last axis."""
    x = np.array(a, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        x[..., :1] += 0.0
        return x, np.add.accumulate(x, axis=-1)


def exact_sum(a, *, compensated: bool = sys.version_info >= (3, 12)):
    """The builtin ``sum`` of float64 ``a``, bit for bit: a float for a 1-D
    array, the row sums along the last axis of an ``(n, k)`` one.  ``sum``
    adds left to right and, if ``compensated`` (from Python 3.12), adds at
    the end the running sum of each step's rounding error (Neumaier, *ZAMM*
    54, 1974) when that is non-zero and finite."""
    x, f = _running(a)
    total = f[..., -1] if x.shape[-1] else np.zeros(x.shape[:-1])
    if compensated and x.shape[-1] > 1:
        prev, t, x = f[..., :-1], f[..., 1:], x[..., 1:]
        with np.errstate(over="ignore", invalid="ignore"):
            err = np.where(np.abs(prev) >= np.abs(x), (prev - t) + x, (x - t) + prev)
            c = np.add.accumulate(err, axis=-1)[..., -1]
            total = np.where((c != 0) & np.isfinite(c), total + c, total)
    return total if total.ndim else float(total)


def _power(server: Server, fractions: tuple[float, float, float], mode: str) -> float:
    if mode == "cpu":
        ru = fractions[0]
    elif mode == "mean":
        ru = sum(fractions) / 3.0
    else:
        raise ValueError("unknown power mode %r" % mode)
    return (server.pw_max - server.pw_min) * ru + server.pw_idle


def power_server(server: Server, placement: Placement, mode: str = "mean") -> float:
    """Power draw of one server; inactive servers draw nothing."""
    on = _powered(server, placement)
    return _power(server, ru_server(server, placement), mode) if on else 0.0


def power_dc(servers: dict[int, Server], placement: Placement, mode: str = "mean") -> float:
    """Aggregate power draw over active servers."""
    # Inactive servers' 0.0 terms would add nothing, so only active ones count.
    return exact_sum(_active(servers, placement, mode)[3])


class Fleet:
    """The per-server constants the snapshot reads, in ``servers`` order, read
    once: a caller that changes a server builds a new one.  Any placement
    with the row layout of ``placement`` (a copy, say) may be read with it."""

    def __init__(self, servers: dict[int, Server], placement: Placement):
        members = list(servers.values())
        self.ids = np.array(list(servers), dtype=np.intp)
        self.rows = placement.rows(list(servers))
        caps = chain.from_iterable(s.capacity.as_tuple() for s in members)
        self.cap = np.fromiter(caps, float, 3 * len(members)).reshape(-1, 3)
        self.span = np.array([s.pw_max - s.pw_min for s in members], dtype=float)
        self.idle = np.array([s.pw_idle for s in members], dtype=float)
        self.reserved = np.array([s.reserved_for_hogs for s in members], dtype=bool)
        for a in (self.ids, self.rows, self.cap, self.span, self.idle, self.reserved):
            a.flags.writeable = False


def _active(servers: dict[int, Server], placement: Placement, mode=None, fleet=None):
    """Ids, used fractions ``(n, 3)`` and their row sums of the active
    servers (by ``_powered``'s rule), in ``servers`` order, each equal to
    ``ru_server`` and ``sum`` of it; with a power mode, also each one's
    ``_power``.  ``fleet`` is the servers' ``Fleet``, built here without it."""
    fleet = fleet or Fleet(servers, placement)
    on = placement.occupied()[fleet.rows] | fleet.reserved
    cap = fleet.cap[on]
    with np.errstate(divide="ignore", invalid="ignore"):
        fractions = np.where(cap > 0, placement.used_array(fleet.rows[on]) / cap, 0.0)
    sums = exact_sum(fractions)
    if mode == "cpu":
        ru = fractions[:, 0]
    elif mode == "mean":
        ru = sums / 3.0
    elif mode is not None:
        raise ValueError("unknown power mode %r" % mode)
    power = fleet.span[on] * ru + fleet.idle[on] if mode else None
    return fleet.ids[on], fractions, sums, power


def count_hogs(observed_bw, predicted_bw, threshold: float = 0.5) -> int:
    """VMs whose observed bandwidth exceeds prediction by the threshold.

    Takes mappings vm -> bandwidth, where a VM without a prediction has
    predicted 0.0, or two aligned arrays.  With the default threshold of
    0.5 a VM is a hog when observed exceeds 1.5x its predicted bandwidth.
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    if isinstance(observed_bw, Mapping):
        predicted_bw = [predicted_bw.get(vm, 0.0) for vm in observed_bw]
        observed_bw = list(observed_bw.values())
    observed = np.asarray(observed_bw, dtype=float)
    predicted = np.asarray(predicted_bw, dtype=float)
    return int(np.count_nonzero(observed > predicted * (1.0 + threshold)))


def authorized_link_pct(links, ivcl: Ivcl) -> float:
    """Percentage of observed links the authorised-link log permits."""
    total = 0
    good = 0
    for link in links:
        total += 1
        if classify_link(link, ivcl) == 0:
            good += 1
    if total == 0:
        return 100.0
    return 100.0 * good / total


METRICS_CSV_HEADER = (
    "interval,ru_dc_pct,pw_dc_watts,hogs,authorized_link_pct,"
    "active_servers,theta_col,theta_cas,theta_vul,malicious_vms_cum"
)


@dataclass
class IntervalMetrics:
    interval: int
    ru_dc: float
    pw_dc: float
    hog_count: int
    authorized_link_pct: float
    active_server_count: int
    theta_col: int = 0
    theta_cas: int = 0
    theta_vul: int = 0
    malicious_vms_cum: int = 0

    def csv_row(self) -> str:
        return "%d,%.6f,%.6f,%d,%.6f,%d,%d,%d,%d,%d" % (
            self.interval,
            100.0 * self.ru_dc,
            self.pw_dc,
            self.hog_count,
            self.authorized_link_pct,
            self.active_server_count,
            self.theta_col,
            self.theta_cas,
            self.theta_vul,
            self.malicious_vms_cum,
        )


def snapshot(
    interval: int,
    servers: dict[int, Server],
    placement: Placement,
    observed_bw,
    predicted_bw,
    live_links: int,
    unauthorised_links: int,
    hog_threshold: float = 0.5,
    power_mode: str = "mean",
    fleet: Fleet | None = None,
) -> IntervalMetrics:
    """Collect the per-interval metric bundle.

    ``observed_bw`` and ``predicted_bw`` are what ``count_hogs`` takes.
    The authorised-link share comes from the counts of live links and of
    unauthorised live links, with the formula of ``authorized_link_pct``.
    ``fleet`` is the servers' ``Fleet``, built from them without it.
    """
    good = live_links - unauthorised_links
    fleet = fleet or Fleet(servers, placement)
    active, ru, pw = placement.derived(
        "figures", (fleet, power_mode), lambda: _figures(placement, power_mode, fleet))
    return IntervalMetrics(
        interval=interval,
        ru_dc=ru,
        pw_dc=pw,
        hog_count=count_hogs(observed_bw, predicted_bw, hog_threshold),
        authorized_link_pct=100.0 * good / live_links if live_links else 100.0,
        active_server_count=active,
    )


def _figures(placement: Placement, mode: str, fleet: Fleet) -> tuple[int, float, float]:
    """The active-server count, ``ru_dc`` and ``pw_dc`` of ``placement``."""
    ids, _fractions, sums, power = _active(None, placement, mode, fleet)
    return len(ids), _mean_ru(sums), exact_sum(power)
