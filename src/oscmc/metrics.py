"""Utilisation, power and traffic-health metrics for one interval."""

from __future__ import annotations

from collections.abc import Mapping
from itertools import compress
from dataclasses import dataclass

import numpy as np

from .model import Placement, Server
from .monitor import Ivcl, classify_link


class InactiveServerError(Exception):
    """Resource utilisation asked for a server that is not active."""


class EmptyDataCenterError(Exception):
    """Data-centre-wide metric asked with no active server."""


def ru_server(server: Server, placement: Placement) -> tuple[float, float, float]:
    """Per-resource utilisation fractions (cpu, mem, bw) of one server."""
    if not server.active:
        raise InactiveServerError("RU undefined for inactive server %d" % server.id)
    used = placement.used(server.id)
    cap = server.capacity
    return (
        used.cpu / cap.cpu if cap.cpu > 0 else 0.0,
        used.mem / cap.mem if cap.mem > 0 else 0.0,
        used.bw / cap.bw if cap.bw > 0 else 0.0,
    )


def ru_dc(servers: dict[int, Server], placement: Placement) -> float:
    """Mean utilisation across resources and active servers."""
    return _mean_ru(_active(servers, placement)[2])


def _mean_ru(sums: list[float]) -> float:
    if not sums:
        raise EmptyDataCenterError("empty data center")
    total = 0.0
    for s in sums:
        total += s
    return total / (3.0 * len(sums))


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
    return _power(server, ru_server(server, placement), mode) if server.active else 0.0


def power_dc(servers: dict[int, Server], placement: Placement, mode: str = "mean") -> float:
    """Aggregate power draw over active servers."""
    # Inactive servers' 0.0 terms would add nothing, so only active ones count.
    return float(sum(_active(servers, placement, mode)[3]))


class _Fleet:
    """Per-server constants of one ``servers`` dict over one placement
    layout, in dict order, kept while the same dict and layout come back.
    Capacities and power figures are read once; the engine never changes
    them."""

    def __init__(self, servers: dict[int, Server], placement: Placement):
        # Copies of a placement share its id-to-row map, so it names the layout.
        self.key = (servers, placement._row)
        self.members = list(servers.values())
        self.ids = list(servers)
        self.rows = placement.rows(self.ids)
        caps = [s.capacity.as_tuple() for s in self.members]
        self.cap = np.array(caps, dtype=float).reshape(-1, 3)
        self.span = np.array([s.pw_max - s.pw_min for s in self.members], dtype=float)
        self.idle = np.array([s.pw_idle for s in self.members], dtype=float)


_fleet: _Fleet | None = None


def _active(servers: dict[int, Server], placement: Placement, mode: str | None = None):
    """Ids, used fractions and their sums of the active servers, in
    ``servers`` order, each equal to ``ru_server`` and Python's ``sum`` of
    it (compensated from 3.12); with a power mode, also each one's
    ``_power``."""
    global _fleet
    if _fleet is None or _fleet.key[0] is not servers or _fleet.key[1] is not placement._row:
        _fleet = _Fleet(servers, placement)
    fleet = _fleet
    on = np.fromiter((s.active for s in fleet.members), bool, len(fleet.members))
    cap = fleet.cap[on]
    with np.errstate(divide="ignore", invalid="ignore"):
        fractions = np.where(cap > 0, placement.used_array(fleet.rows[on]) / cap, 0.0)
    rows = list(map(tuple, fractions.tolist()))
    sums = list(map(sum, rows))
    power = []
    if mode is not None and rows:
        if mode == "cpu":
            ru = fractions[:, 0]
        elif mode == "mean":
            ru = np.array(sums) / 3.0
        else:
            raise ValueError("unknown power mode %r" % mode)
        power = (fleet.span[on] * ru + fleet.idle[on]).tolist()
    # The dict's own id objects, not new ones, key ``ru_per_server``.
    return list(compress(fleet.ids, on.tolist())), rows, sums, power


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
    ru_per_server: dict[int, tuple[float, float, float]]
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
) -> IntervalMetrics:
    """Collect the per-interval metric bundle.

    ``observed_bw`` and ``predicted_bw`` are what ``count_hogs`` takes.
    The authorised-link share comes from the counts of live links and of
    unauthorised live links, with the formula of ``authorized_link_pct``.
    """
    good = live_links - unauthorised_links
    ids, rows, sums, power = _active(servers, placement, power_mode)
    return IntervalMetrics(
        interval=interval,
        ru_dc=_mean_ru(sums),
        ru_per_server=dict(zip(ids, rows)),
        pw_dc=sum(power),
        hog_count=count_hogs(observed_bw, predicted_bw, hog_threshold),
        authorized_link_pct=100.0 * good / live_links if live_links else 100.0,
        active_server_count=len(ids),
    )
