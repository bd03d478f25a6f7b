"""Run one workload once and print its metrics as one JSON line.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  With ``--trace 0`` the metrics are the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` they are
its per-layer metrics, and the Chrome trace lands in
``.bench_build/e2e/traces/W.trace.json``.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``.  Outside a
full checkout it exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.e2e import harness  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/e2e/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        harness.check_checkout()
        spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    except (harness.CheckoutError, OSError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    names = spec["per_layer" if args.trace else "end_to_end"]
    trace_path = (harness.BUILD / "traces" / f"{args.workload}.trace.json"
                  if args.trace else None)
    record = harness.run_once(args.workload, args.seed, args.seconds,
                              trace_path=trace_path)
    for error in record.errors:
        print(f"run.py: {error}", file=sys.stderr)
    measured = record.metrics()
    missing = [m["name"] for m in names if m["name"] not in measured]
    if missing:
        print(f"run.py: no value for {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": record.failed == 0,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": {m["name"]: {"value": measured[m["name"]][0],
                                "unit": m["unit"]} for m in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
