"""Repository benchmark: three closed-loop workloads, one caller each.

    python3 perfbench/run.py --workload cell-mix --seed 1 \
        --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones (see README.md).  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Run it from the repository root; it exits non-zero without a result
when the simulator sources (``src/repro``) are not there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import measure

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORKLOADS = ("cell-mix", "campus-air", "serve-repeat")
#: In-process set-up is measured this many times in child processes.
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120.0
#: Package self times must sum to the traced time within this share:
#: everything a traced op runs is Python code under ``cProfile``.
ATTRIBUTION_TOLERANCE = 0.10


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="internal: set up an in-process workload, print 'ready', exit")
    return parser.parse_args(argv)


def _in_process(args) -> dict:
    import inproc

    setup = []
    if not args.trace:
        probe = [sys.executable, str(HERE / "run.py"),
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", "0", "--setup-probe"]
        setup = [measure.setup_probe_s(probe, ROOT, PROBE_TIMEOUT_S)
                 for _ in range(SETUP_PROBES)]
    bench = inproc.InProcessBench(args.workload, args.seed)
    res = bench.run(args.seconds, bool(args.trace), SRC)
    res["failed"] += len(bench.setup_failures)
    res["attempted"] += len(bench.setup_failures)
    for line in bench.setup_failures:
        print(f"warm-up failed: {line}", file=sys.stderr)
    print(inproc.summary(args.workload, res, len(bench.ops)))
    metrics = (inproc.per_layer(res) if args.trace
               else inproc.end_to_end(res, statistics.median(setup)))
    return {"attempted": res["attempted"], "failed": res["failed"],
            "run_failures": [], "metrics": metrics}


def _serve(args) -> dict:
    import serve_bench

    bench = serve_bench.ServeBench(args.seed, ROOT, SRC)
    res = bench.run(args.seconds, bool(args.trace))
    records = res["records"]
    failed = sum(1 for r in records if not r["ok"])
    print(serve_bench.summary(res))
    metrics = (serve_bench.per_layer(res, bench.digest_s) if args.trace
               else serve_bench.end_to_end(res))
    return {"attempted": len(records), "failed": failed,
            "run_failures": res["run_failures"], "metrics": metrics}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {SRC}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        import inproc

        bench = inproc.InProcessBench(args.workload, args.seed)
        if bench.setup_failures:
            print("; ".join(bench.setup_failures), file=sys.stderr)
            return 1
        print("ready", flush=True)
        return 0
    run = _serve(args) if args.workload == "serve-repeat" else \
        _in_process(args)
    if args.trace:
        share = run["metrics"]["trace.attributed_share"][0]
        if abs(share - 1.0) > ATTRIBUTION_TOLERANCE:
            run["run_failures"].append(
                f"package self times sum to {share:.3f} of the traced "
                f"time, outside 1 +/- {ATTRIBUTION_TOLERANCE}")
    for line in run["run_failures"]:
        print(f"run check failed: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": run["failed"] == 0 and not run["run_failures"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in run["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
