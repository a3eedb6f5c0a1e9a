"""Command line front end: run scenarios and compare result directories."""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .allocator import PlacementInfeasibleError
from .engine import SimulationError, run
from .scenario import POLICIES, PRESETS, ScenarioError, load_scenario, with_policy
from .workload import TraceFormatError, ingest_trace

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

log = logging.getLogger("oscmc.cli")


def _setup_logging() -> None:
    level = os.environ.get("OSCMC_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscmc",
        description="Secure data-centre scheduling simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="simulate a scenario under one or more policies")
    runp.add_argument(
        "--scenario",
        required=True,
        help="preset name (%s) or scenario file path" % ", ".join(sorted(PRESETS)),
    )
    runp.add_argument(
        "--policy",
        action="append",
        choices=POLICIES,
        help="scheduling policy; repeat for several (default: the scenario's)",
    )
    runp.add_argument("--seed", type=int, help="override the scenario seed")
    runp.add_argument("--intervals", type=int, help="override the horizon")
    runp.add_argument("--trace", help="usage trace file or directory")
    runp.add_argument(
        "--workers", type=int, help="accepted and ignored: runs are serial"
    )
    runp.add_argument("--out", default="results", help="output directory")

    cmpp = sub.add_parser("compare", help="tabulate metrics of finished runs")
    cmpp.add_argument("dirs", nargs="+", help="result directories holding metrics.csv")
    return parser


# The metrics.csv columns that ``compare`` tabulates, in table order.
_COMPARED = ("pw_dc_watts", "ru_dc_pct", "authorized_link_pct", "hogs")


def _read_metrics(path: str) -> list[dict[str, float]]:
    """The rows of a metrics.csv as numbers; ValueError names the file when
    a compared column is missing or a cell is not a number."""
    import csv

    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in _COMPARED if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError("%s lacks column %s" % (path, ", ".join(missing)))
        try:
            return [{k: float(v) for k, v in row.items()} for row in reader]
        except (TypeError, ValueError) as exc:
            raise ValueError("%s line %d: %s" % (path, reader.line_num, exc)) from None


def cmd_run(args) -> int:
    try:
        sc = load_scenario(args.scenario)
        if args.seed is not None:
            sc.seed = args.seed
        if args.intervals is not None:
            sc.intervals = args.intervals
        if args.trace is not None:
            sc.trace_path = args.trace
        if args.workers is not None:
            sc.workers = args.workers
        sc.validate()
        policies = args.policy or [sc.policy]
        trace = ingest_trace(sc.trace_path) if sc.trace_path else None  # once for every policy
    except (ScenarioError, TraceFormatError) as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    try:  # fail before simulating, not after
        for policy in policies:
            os.makedirs(os.path.join(args.out, policy), exist_ok=True)
    except OSError as exc:
        print("configuration error: cannot create output directory: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG

    for policy in policies:
        try:
            result = run(with_policy(sc, policy), trace=trace)
        except (SimulationError, PlacementInfeasibleError) as exc:
            print("simulation failed: %s" % exc, file=sys.stderr)
            return EXIT_RUNTIME
        out_dir = os.path.join(args.out, policy)
        for name, text in (
            ("metrics.csv", result.metrics_csv_text()),
            ("events.csv", result.events_csv_text()),
            ("summary.txt", result.summary_text()),
        ):
            path = os.path.join(out_dir, name)
            try:
                with open(path, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                print("configuration error: cannot write %s: %s" % (path, exc.strerror or exc),
                      file=sys.stderr)
                return EXIT_CONFIG
        print("%s: wrote %s" % (policy, out_dir))
    return EXIT_OK


def cmd_compare(args) -> int:
    tables = []
    for d in args.dirs:
        path = os.path.join(d, "metrics.csv")
        if not os.path.exists(path):
            print("configuration error: no metrics.csv under %s" % d, file=sys.stderr)
            return EXIT_CONFIG
        try:
            tables.append((d, _read_metrics(path)))
        except ValueError as exc:
            print("configuration error: %s" % exc, file=sys.stderr)
            return EXIT_CONFIG
        except OSError as exc:
            print("configuration error: cannot read %s: %s" % (path, exc.strerror or exc),
                  file=sys.stderr)
            return EXIT_CONFIG

    counts = {len(rows) for _, rows in tables}
    if len(counts) != 1:
        print(
            "configuration error: runs cover different interval counts: %s"
            % ", ".join("%s=%d" % (d, len(rows)) for d, rows in tables),
            file=sys.stderr,
        )
        return EXIT_CONFIG

    def mean(rows, key):
        return sum(r[key] for r in rows) / len(rows) if rows else 0.0

    stats = [(d, *(mean(rows, key) for key in _COMPARED)) for d, rows in tables]

    def delta(value, base):
        if base == 0:
            return "-"
        return "%+.1f%%" % (100.0 * (value - base) / base)

    base = stats[0]
    header = ("run", "pw_watts", "ru_pct", "auth_link_pct", "hogs")
    rows_out = [header]
    for i, (d, *values) in enumerate(stats):
        cells = [fmt % v for fmt, v in zip(("%.1f", "%.2f", "%.2f", "%.2f"), values)]
        if i > 0:  # each later run with its change against the first
            cells = ["%s (%s)" % (c, delta(v, b)) for c, v, b in zip(cells, values, base[1:])]
        rows_out.append((d, *cells))
    widths = [max(len(str(row[c])) for row in rows_out) for c in range(len(header))]
    for row in rows_out:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip())
    return EXIT_OK


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage already; normalise other codes
        return EXIT_CONFIG if exc.code not in (0,) else 0
    if args.command == "run":
        return cmd_run(args)
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
