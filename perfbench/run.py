"""oscmc benchmark: host time, memory and simulated results of one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload xi1100-oscmc --seed 7 --seconds 25 --trace 0

With ``--trace 0`` it repeats whole simulations (set-up, every interval,
finish) for about ``--seconds`` and reports the end-to-end metrics.  With
``--trace 1`` it runs one untraced and one traced simulation of the same
seed and reports per-layer metrics.  Every simulation passes a correctness
gate: it must not raise, must keep the capacity constraint, must write one
``metrics.csv`` row per interval, and its ``metrics.csv``/``events.csv``
digest must equal that of the other simulations of the same run.

Times are reported at standard host speed (see ``hostspeed.py``), and
each metric's unit is the one ``BENCHMARK.json`` declares.
Simulations run one at a time in this process, with ``workers=1``.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (each ``{"value", "unit"}``).
The line before it is a JSON object with the environment, the digest, the
times as measured and the reference kernel's median time on this host,
over the whole run and around set-ups and steps apart.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BASELINE = HERE / "BASELINE.json"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Set-up is sampled at least this many times and for at least this long.
MIN_SETUPS = 3
SETUP_SECONDS = 3.0

from hostspeed import Timing, run_scale, standard_s, timed  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


class GateError(Exception):
    """A simulation finished but its output fails the correctness gate."""


@dataclass
class Outcome:
    setup: Timing
    steps: list[Timing]
    digest: str
    fidelity: dict[str, float]


def import_oscmc():
    """Import the checkout's own ``src/oscmc``, never another copy."""
    if not (SRC / "oscmc" / "engine.py").is_file():
        raise ImportError("no oscmc sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import oscmc

    if SRC not in Path(oscmc.__file__).resolve().parents:
        raise ImportError("oscmc was imported from %s, not %s" % (oscmc.__file__, SRC))
    return oscmc


def fidelity(log) -> dict[str, float]:
    """Simulated results; five-minute intervals turn watts into kWh."""
    ms = log.metrics
    return {
        "sim_power_kwh": sum(m.pw_dc for m in ms) * (5.0 / 60.0) / 1000.0,
        "sim_ru_pct_mean": 100.0 * statistics.fmean(m.ru_dc for m in ms),
        "sim_auth_link_pct_mean": statistics.fmean(m.authorized_link_pct for m in ms),
        "sim_hogs_mean": statistics.fmean(m.hog_count for m in ms),
    }


def build(sc):
    from oscmc.engine import Simulation

    gc.collect()
    return timed(Simulation, sc, 1)


def simulate(sc) -> Outcome:
    """Build, step through every interval, finish and gate one simulation."""
    sim, setup = build(sc)
    steps = [timed(sim.step, t)[1] for t in range(sc.intervals)]
    log = sim.finish()
    if not sim.placement.capacity_ok():
        raise GateError("placement breaks the capacity constraint")
    metrics_csv, events_csv = log.metrics_csv_text(), log.events_csv_text()
    rows = metrics_csv.count("\n") - 1
    if rows != sc.intervals:
        raise GateError("metrics.csv has %d rows for %d intervals" % (rows, sc.intervals))
    digest = hashlib.sha256((metrics_csv + "\0" + events_csv).encode()).hexdigest()
    return Outcome(setup, steps, digest[:16], fidelity(log))


class Tally:
    """Attempts, failures and the reference digest of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digest = None

    def attempt(self, fn, *args):
        self.attempted += 1
        try:
            result = fn(*args)
            if isinstance(result, Outcome):
                if self.digest is None:
                    self.digest = result.digest
                elif result.digest != self.digest:
                    raise GateError(
                        "digest %s differs from %s of the same seed"
                        % (result.digest, self.digest)
                    )
            return result
        except Exception as exc:  # a failing simulation is counted, not fatal
            self.failed += 1
            print("FAILED attempt %d: %s: %s" % (self.attempted, type(exc).__name__, exc),
                  file=sys.stderr)
            return None


def tail(samples: list[float]) -> float:
    """The highest decile with at least ten samples beyond it (p80 of 50
    samples, p90 of 100), never below the median."""
    k = max(5, int(10 * (1 - 10 / len(samples)) + 1e-9))
    return statistics.quantiles(samples, n=10)[k - 1]


def per_interval_median(repetitions: list[list[float]]) -> list[float]:
    """Each interval's time, as its median over the repetitions."""
    return [statistics.median(ts) for ts in zip(*repetitions)]


def timing_metrics(vms: int, setups: list[float], profile: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "interval_ms_p50": 1e3 * statistics.median(profile),
        "interval_ms_tail": 1e3 * tail(profile),
        "vm_intervals_per_s": vms * len(profile) / sum(profile),
    }


def host_ref_ms(setups: list[Timing], steps: list[Timing]) -> dict[str, float]:
    """Median reference-kernel ms over the run, and around set-ups and
    around steps apart."""
    def median_ms(timings):
        return 1e3 * statistics.median(r for t in timings for r in t.refs_s)

    return {
        "host_ref_ms": median_ms(setups + steps),
        "host_ref_ms_setup": median_ms(setups),
        "host_ref_ms_step": median_ms(steps),
    }


def measure(sc, seconds: float) -> tuple[Tally, dict[str, float], dict]:
    """Repeat whole simulations for about ``seconds``; end-to-end metrics,
    and the timing metrics as measured."""
    tally = Tally()
    outcomes = []
    start = time.perf_counter()
    last = 0.0
    while tally.attempted == 0 or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        outcome = tally.attempt(simulate, sc)
        if outcome is not None:
            outcomes.append(outcome)
        if tally.failed >= MIN_SETUPS:
            break
        last = time.perf_counter() - t0
    if not outcomes:
        return tally, {}, {}
    setups = [o.setup for o in outcomes]
    extra = []  # set-ups built back to back after the simulations
    while len(setups) < MIN_SETUPS or sum(t.measured_s for t in setups) < SETUP_SECONDS:
        built = tally.attempt(build, sc)
        if built is not None:
            setups.append(built[1])
            extra.append(built[1])
            del built
        elif tally.failed >= MIN_SETUPS:
            break
    steps = [t for o in outcomes for t in o.steps]
    # A simulation's set-up and steps ran back to back.
    standard = [standard_s([o.setup] + o.steps) for o in outcomes]
    metrics = timing_metrics(
        sc.vms,
        [regions[0] for regions in standard] + standard_s(extra),
        per_interval_median([regions[1:] for regions in standard]),
    )
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["ok_pct"] = 100.0 * (tally.attempted - tally.failed) / tally.attempted
    metrics.update(outcomes[0].fidelity)
    measured = timing_metrics(
        sc.vms,
        [t.measured_s for t in setups],
        per_interval_median([[t.measured_s for t in o.steps] for o in outcomes]),
    )
    measured.update(host_ref_ms(setups, steps))
    return tally, metrics, measured


def measure_traced(sc) -> tuple[Tally, dict[str, float], dict]:
    """One untraced and one traced simulation of the same seed."""
    from layers import HOOKS, layer_metrics, step_self_sum_ms
    from tracer import Tracer

    tally = Tally()
    untraced = tally.attempt(simulate, sc)
    tracer = Tracer(HOOKS)
    with tracer:
        traced = tally.attempt(simulate, sc)
    if untraced is None or traced is None:
        return tally, {}, {}
    setups = [untraced.setup, traced.setup]
    steps = untraced.steps + traced.steps
    metrics = layer_metrics(tracer, run_scale(setups + steps))
    # Overhead: the two simulations' step times, each at standard time.
    untraced_s, traced_s = (sum(standard_s([o.setup] + o.steps)[1:]) for o in (untraced, traced))
    metrics["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    drift = abs(step_self_sum_ms(metrics) - metrics["trace.step_ms"])
    if drift > 1e-6 * metrics["trace.step_ms"]:
        tally.failed += 1
        print("FAILED: step self times miss trace.step_ms by %.3g ms" % drift, file=sys.stderr)
    for target in tracer.absent:
        print("absent layer: %s" % target, file=sys.stderr)
    return tally, metrics, host_ref_ms(setups, steps)


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def recorded_digest(workload: str, seed: int, intervals: int):
    try:
        entry = json.loads(BASELINE.read_text())["workloads"][workload]
    except (OSError, KeyError, ValueError):
        return None
    if entry.get("seed") == seed and entry.get("intervals") == intervals:
        return entry.get("digest")
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_oscmc()
    except ImportError as exc:
        print("perfbench: cannot import the program: %s" % exc, file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    sc = wl.scenario(args.seed)
    print("workload %s: preset %s, policy %s, %d VMs, %d servers, %d intervals, seed %d"
          % (wl.name, wl.preset, sc.policy, sc.vms, sc.servers, sc.intervals, sc.seed))
    if args.trace:
        tally, metrics, measured = measure_traced(sc)
    else:
        tally, metrics, measured = measure(sc, args.seconds)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    if not metrics:
        print("perfbench: no simulation of %s succeeded" % wl.name, file=sys.stderr)
        return 1

    recorded = recorded_digest(wl.name, sc.seed, sc.intervals)
    if recorded is None:
        verdict = "no recorded digest for this seed"
    elif recorded == tally.digest:
        verdict = "same as recorded"
    else:
        verdict = "DIFFERS from recorded %s: simulated output changed" % recorded
    print("digest %s (%s)" % (tally.digest, verdict))
    for name, value in metrics.items():
        print("  %-34s %14.4f %s" % (name, value, units[name]))
    for name, value in measured.items():
        print("  as measured: %-21s %14.4f" % (name, value))
    print(json.dumps({"workload": wl.name, "seed": sc.seed, "intervals": sc.intervals,
                      "trace": args.trace, "digest": tally.digest, "measured": measured,
                      "env": environment()}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
