"""Peak memory of set-up: the authorised-link log, and scenarios that must
fail before building it.

The authorised-link log grows as the square of the VM count.  At 8800 VMs it
holds about 3.9M grants (14.8 MB of keys); kept as Python sets they took
about 470 MB of peak RSS, kept as sorted row keys drawn in 4 MB blocks and
then joined into a second copy 79 MB, and written in place as keys from
1 MB blocks about 60 MB.  The simulation steps once, so an array over the
log built at the first link generation or classification shows here too.

The log is held once: set-up draws the cross-user pairs in blocks of about
2**17 pairs and writes each block's grants as keys into the one array the
log keeps.  A fleet that cannot host its VMs fails before the log is
built, and a scenario whose expected log or same-owner pairs exceed their
bounds fails in validation, before anything is allocated.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oscmc
from oscmc.engine import with_cross_user_grants
from oscmc.monitor import Ivcl

# A child's peak RSS in KiB, read from its own image: its ``ru_maxrss`` would
# also count the test process's pages when the child was forked.
PEAK_KB = "int(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])"

SETUP = """
import dataclasses
from oscmc.engine import Simulation
from oscmc.scenario import load_scenario

sc = dataclasses.replace(
    load_scenario("xi1100"), policy="wosc", vms=8800, servers=3960, intervals=%%d
)
Simulation(sc).step(0)
print(%s)
""" % PEAK_KB

# ``oscmc run`` in a child whose address space is capped at 2 GiB, so that
# a set-up that does build a large log fails there and spares the host.
CLI = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))
from oscmc.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print(code, time.perf_counter() - start, %s)
""" % PEAK_KB


def _child(args, timeout):
    src = str(Path(oscmc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout,
        check=True,
    )


def _run_cli(tmp_path, scenario: str):
    """The exit code, seconds and peak RSS in MB of ``oscmc run`` on the
    scenario file text ``scenario``, and its stderr."""
    path = tmp_path / "big.sc"
    path.write_text(scenario)
    out = _child(["-c", CLI, "run", "--scenario", str(path), "--out", str(tmp_path)], 60)
    code, seconds, peak_kb = out.stdout.split()[-3:]
    return int(code), float(seconds), int(peak_kb) / 1024, out.stderr


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
@pytest.mark.parametrize("intervals", [1, 50])
def test_fleet_scale_setup_peak_rss_under_70_mb(intervals):
    """About 60 MB measured on Linux with Python 3.11 and numpy 2.4, and 79 MB
    when the log's blocks were joined into a second copy; the 10 MB margin
    covers other Python and numpy versions.  One interval is 8800 usage
    values, below the size at which set-up overlaps the usage and the log;
    50 intervals (440,000 values) build the usage on the helper thread,
    which then draws a share of the log, at about 63 MB."""
    out = _child(["-c", SETUP % intervals], 300)
    peak_mb = int(out.stdout.split()[-1]) / 1024
    assert peak_mb < 70, "peak RSS %.0f MB" % peak_mb


def test_log_build_holds_the_log_once_beside_one_draw_block():
    """Traced, drawing a 4000-VM log at the default rate (about 800k grants,
    3 MB of keys) peaks at the log's bytes plus one block's work arrays: its
    1 MB of uniforms and the masks and grant indices beside them.  Joining
    per-block pieces into a second copy of the log, or drawing 4 MB of
    uniforms at a time, does not fit."""
    vms = 4000
    owner = np.arange(vms) // 3
    base = Ivcl(np.arange(1, vms + 1))
    small = Ivcl(np.arange(1, 31))
    with_cross_user_grants(small, owner[:30], 0.05, np.random.default_rng(1))  # first-call caches
    tracemalloc.start()
    try:
        log = with_cross_user_grants(base, owner, 0.05, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    keys = log.row_keys()[1]
    assert keys.size > 700_000
    assert peak < keys.nbytes + 2 * 2**20, "peak %.2f MB over a %.2f MB log" % (
        peak / 2**20, keys.nbytes / 2**20)


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_infeasible_fleet_fails_before_the_log(tmp_path):
    """A million VMs on 10 servers cannot be placed.  Their 111,112 users own
    8 or 9 VMs each, 8.0M same-owner pairs, just under the 2**23 bound that
    validation puts on them: a log granted before placement would take some
    6 s.  Placement comes first, so the run exits 3 in seconds, holding only
    the per-VM arrays and the placement routine's per-VM items.  Measured on
    Linux with Python 3.11 and numpy 2.4, that peaks at 254 MB under
    ``oscmc`` and 193 MB under ``wosc``; a per-VM owner dict built beside
    the owner array took them to 406 and 300 MB, and sorting the items for
    first-fit decreasing by a per-VM key took ``oscmc`` to 300 MB."""
    for policy, bound_mb in (("oscmc", 350), ("wosc", 245)):
        code, seconds, peak_mb, err = _run_cli(
            tmp_path,
            "vms = 1000000\nservers = 10\nusers = 111112\ncross_user_auth_rate = 0\n"
            "policy = %s\n" % policy,
        )
        assert code == 3 and "placement infeasible" in err
        assert seconds < 5 and peak_mb < bound_mb, "%s: %.1f s, %.0f MB" % (
            policy, seconds, peak_mb)


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_one_large_user_sets_up_under_350_mb(tmp_path):
    """One user of 2200 VMs is granted all 4.8M same-owner ordered pairs one
    call at a time.  Held as flat id lists and merged by one sort, set-up and
    an interval peak at about 150 MB on Linux with Python 3.11 and numpy 2.4;
    held as a dict of per-VM sets they took 517 MB."""
    code, seconds, peak_mb, err = _run_cli(
        tmp_path, "vms = 2200\nservers = 990\nusers = 1\nintervals = 1\npolicy = wosc\n"
    )
    assert code == 0, err
    assert peak_mb < 350, "%.0f MB" % peak_mb


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_same_owner_pairs_past_the_bound_fail_in_validation(tmp_path):
    """With one user a million VMs would be granted every ordered pair,
    10**12 calls: a configuration error (exit 2) naming ``users``, raised
    before anything per VM is allocated."""
    code, seconds, peak_mb, err = _run_cli(
        tmp_path, "vms = 1000000\nservers = 10\nusers = 1\ncross_user_auth_rate = 0\n"
    )
    assert code == 2 and "raise users" in err
    assert peak_mb < 100, "%.0f MB" % peak_mb


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_log_past_the_bound_fails_in_validation(tmp_path):
    """At the default rate a million VMs expect 5 * 10**10 grants, past the
    2**25 bound: a configuration error (exit 2) naming the knobs, raised
    before set-up allocates anything."""
    code, seconds, peak_mb, err = _run_cli(tmp_path, "vms = 1000000\nservers = 10\n")
    assert code == 2 and "cross_user_auth_rate * vms**2" in err
    assert peak_mb < 100, "%.0f MB" % peak_mb
