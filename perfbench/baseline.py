"""Run every workload, untraced and traced, and print every metric.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py [--write]

Each measurement runs ``perfbench/run.py`` with its defaults (seed 7 and
``BENCHMARK.json``'s ``run_seconds``) in a fresh interpreter, one at a
time, so peak memory and warm state never carry over between workloads.
``--write`` records the results, the environment and each workload's
output digest in ``perfbench/BASELINE.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def measure(workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit("%s failed with exit code %d" % (" ".join(cmd), done.returncode))
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)

    record = {"workloads": {}}
    for name in WORKLOADS:
        info, end_to_end = measure(name, 0)
        traced_info, per_layer = measure(name, 1)
        record["env"] = info["env"]
        record["workloads"][name] = {
            "seed": info["seed"],
            "intervals": info["intervals"],
            "digest": info["digest"],
            "traced_digest": traced_info["digest"],
            "correct": end_to_end["correct"] and per_layer["correct"],
            "end_to_end": end_to_end["metrics"],
            "measured": info["measured"],
            "per_layer": per_layer["metrics"],
        }
        print("== %s  seed %d  digest %s  correct %s"
              % (name, info["seed"], info["digest"], record["workloads"][name]["correct"]))
        for group in ("end_to_end", "per_layer"):
            for metric, m in record["workloads"][name][group].items():
                print("  %-34s %14.4f %s" % (metric, m["value"], m["unit"]))
        for metric, value in info["measured"].items():
            print("  as measured: %-21s %14.4f" % (metric, value))
    print("env %s" % json.dumps(record["env"]))
    if args.write:
        (HERE / "BASELINE.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
