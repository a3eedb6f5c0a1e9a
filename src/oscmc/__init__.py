"""Secure data-centre scheduling simulator.

Discrete-time simulation of VM placement with inter-VM link surveillance:
observed flows are checked against an authorised-link log, co-location,
cascading and vulnerability threats raise quarantine, and a small neural
forecaster plus bandwidth clustering drive congestion-aware rebalancing.
"""

from .allocator import (
    ClusterAssignment,
    ClusterCountError,
    PlacementInfeasibleError,
    ffd_place,
    kmeans,
    rebalance,
)
from .engine import RunLog, Simulation, SimulationError, run
from .metrics import (
    EmptyDataCenterError,
    InactiveServerError,
    IntervalMetrics,
    authorized_link_pct,
    count_hogs,
    power_dc,
    power_server,
    ru_dc,
    ru_server,
)
from .model import (
    CapacityError,
    Placement,
    ResourceVector,
    Server,
)
from .monitor import (
    ColocationEvent,
    CascadingEvent,
    IncompleteTelemetryError,
    Ivcl,
    ThreatReport,
    UndefinedCoverageError,
    UnregisteredVmError,
    VulnerabilityEvent,
    attack_coverage,
    build_threat_report,
    build_vlams,
    classify_link,
    detect_cascading,
    detect_colocation,
    detect_vulnerability,
    identify_malicious_vms,
    quarantine,
)
from .predictor import (
    CongestionState,
    InsufficientHistoryError,
    PredictorModel,
    detect_congestion,
    gradient_check,
    train,
)
from .scenario import PRESETS, Scenario, ScenarioError, load_scenario, with_policy
from .workload import TraceFormatError, ingest_trace, synthetic_usage

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CascadingEvent",
    "ClusterAssignment",
    "ClusterCountError",
    "ColocationEvent",
    "CongestionState",
    "EmptyDataCenterError",
    "InactiveServerError",
    "IncompleteTelemetryError",
    "InsufficientHistoryError",
    "IntervalMetrics",
    "Ivcl",
    "Placement",
    "PlacementInfeasibleError",
    "PredictorModel",
    "PRESETS",
    "ResourceVector",
    "RunLog",
    "Scenario",
    "ScenarioError",
    "Server",
    "Simulation",
    "SimulationError",
    "ThreatReport",
    "TraceFormatError",
    "UndefinedCoverageError",
    "UnregisteredVmError",
    "VulnerabilityEvent",
    "attack_coverage",
    "authorized_link_pct",
    "build_threat_report",
    "build_vlams",
    "classify_link",
    "count_hogs",
    "detect_cascading",
    "detect_colocation",
    "detect_congestion",
    "detect_vulnerability",
    "ffd_place",
    "gradient_check",
    "identify_malicious_vms",
    "ingest_trace",
    "kmeans",
    "load_scenario",
    "power_dc",
    "power_server",
    "quarantine",
    "rebalance",
    "ru_dc",
    "ru_server",
    "run",
    "synthetic_usage",
    "train",
    "with_policy",
]
