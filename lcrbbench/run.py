"""Run one benchmark workload and print its result line.

Usage, from the repository root::

    python3 lcrbbench/run.py --workload serve_mixed --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run; ``--trace
1`` prints the per-layer metrics of a traced run. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 only when every output
check passed; it is 2 when the program's sources are not beside the
benchmark. See README.md for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from benchlib import (
    Checks,
    become_subreaper,
    host_calib_ms,
    kill_leftovers,
    result_line,
    stop_resource_tracker,
)
from spec import END_TO_END, PER_LAYER, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: per-layer metric prefixes of layers a workload never runs; they report 0.
ABSENT = {
    "serve_mixed": ("kernels.", "kernel.", "algorithms.", "lcrb.", "sim.", "exec."),
    "select_simulate": ("sketch.", "serve.", "loadgen.", "graph.apply_updates"),
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    become_subreaper()
    traced = bool(args.trace)
    checks = Checks()
    calib_before = host_calib_ms()
    if args.workload == "serve_mixed":
        import serve_wl

        values, info, spans = serve_wl.run(args.seed, args.seconds, traced, ROOT, checks)
    else:
        import batch_wl

        values, info, spans = batch_wl.run(
            args.seed, args.seconds, traced, checks, time.perf_counter()
        )
    stop_resource_tracker()
    for leftover in kill_leftovers():
        checks.run(f"process left running: {leftover}")
    calib_after = host_calib_ms()
    info["host.calib_ms"] = [round(calib_before, 3), round(calib_after, 3)]

    if traced:
        os.makedirs(os.path.join(ROOT, ".bench_run"), exist_ok=True)
        spans_path = os.path.join(
            ROOT, ".bench_run", f"spans-{args.workload}-{args.seed}.json"
        )
        with open(spans_path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": spans}, handle)
        values["host.calib_ms"] = (calib_before + calib_after) / 2.0
        for name in PER_LAYER:
            if name not in values and name.startswith(ABSENT[args.workload]):
                values[name] = 0.0
        units = {name: unit for name, (unit, _better) in PER_LAYER.items()}
    else:
        units = {name: unit for name, (unit, _better, _bound) in END_TO_END.items()}
    for problem in checks.run_problems + checks.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("info " + json.dumps(info, sort_keys=True))
    print(result_line(checks, values, units))
    return 0 if checks.correct else 1


if __name__ == "__main__":
    sys.exit(main())
