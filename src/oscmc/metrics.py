"""Utilisation, power and traffic-health metrics for one interval."""

from __future__ import annotations

from dataclasses import dataclass

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
    return _mean_ru({sid: ru_server(s, placement) for sid, s in servers.items() if s.active})


def _mean_ru(per_server: dict[int, tuple[float, float, float]]) -> float:
    if not per_server:
        raise EmptyDataCenterError("empty data center")
    total = 0.0
    for fractions in per_server.values():
        total += sum(fractions)
    return total / (3.0 * len(per_server))


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
    return sum(power_server(s, placement, mode) for s in servers.values())


def count_hogs(
    observed_bw: dict[int, float],
    predicted_bw: dict[int, float],
    threshold: float = 0.5,
) -> int:
    """VMs whose observed bandwidth exceeds prediction by the threshold.

    With the default threshold of 0.5 a VM is a hog when observed exceeds
    1.5x its predicted bandwidth.
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    count = 0
    for vm, observed in observed_bw.items():
        predicted = predicted_bw.get(vm, 0.0)
        if observed > predicted * (1.0 + threshold):
            count += 1
    return count


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
    observed_bw: dict[int, float],
    predicted_bw: dict[int, float],
    live_links: int,
    unauthorised_links: int,
    hog_threshold: float = 0.5,
    power_mode: str = "mean",
) -> IntervalMetrics:
    """Collect the per-interval metric bundle.

    The authorised-link share comes from the counts of live links and of
    unauthorised live links, with the formula of ``authorized_link_pct``.
    """
    good = live_links - unauthorised_links
    # One read per active server; power_dc's 0.0 inactive terms add nothing.
    per_server = {sid: ru_server(s, placement) for sid, s in servers.items() if s.active}
    return IntervalMetrics(
        interval=interval,
        ru_dc=_mean_ru(per_server),
        ru_per_server=per_server,
        pw_dc=sum(_power(servers[sid], fr, power_mode) for sid, fr in per_server.items()),
        hog_count=count_hogs(observed_bw, predicted_bw, hog_threshold),
        authorized_link_pct=100.0 * good / live_links if live_links else 100.0,
        active_server_count=len(per_server),
    )
