"""Peak memory of a fleet-scale set-up and its first interval.

The authorised-link log grows as the square of the VM count.  At 8800 VMs it
holds about 3.9M grants; kept as Python sets they took about 470 MB of peak
RSS, kept as sorted row keys they take under 100 MB.  The simulation steps
once, so an array over the log built at the first link generation or
classification shows here too.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import oscmc

SETUP = """
import dataclasses, resource
from oscmc.engine import Simulation
from oscmc.scenario import load_scenario

sc = dataclasses.replace(
    load_scenario("xi1100"), policy="wosc", vms=8800, servers=3960, intervals=1
)
Simulation(sc).step(0)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_fleet_scale_setup_peak_rss_under_200_mb():
    src = str(Path(oscmc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", SETUP],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    peak_mb = int(out.stdout.split()[-1]) / 1024
    assert peak_mb < 200, "peak RSS %.0f MB" % peak_mb
