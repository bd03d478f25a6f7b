"""Same-runner A/B of the end-to-end benchmark: the one perf gate.

    python -m benchmarks.perf.ab BASE_TREE HEAD_TREE --out-dir DIR \
        [--rounds N] [--workload W]...

Round ``i`` runs ``python -m benchmarks.e2e run --runs 1 --seed i`` in
both source trees, one after the other; the tree that goes first
alternates from round to round, so a slow phase of a shared host falls
on both sides alike.  Each tree runs its own benchmark code and program
source, with its own ``BENCHMARK.json`` time budget, and builds its own
kernels.

The rounds of each side are merged into one ``run`` record,
``DIR/base.json`` and ``DIR/head.json`` (medians and quartiles over
every round), and checked with ``python -m benchmarks.e2e compare``:
each median against its bound in ``BENCHMARK.json``, digests and
simulated optima exactly.  A metric that no round of a side measured
(every operation failed) is left out; ``compare`` reports the failed
operations.  The comparison ends with ``PASS`` or
``FAIL``, and the exit status is 1 on a regression or a mismatch.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from benchmarks.e2e import cli as e2e
from benchmarks.e2e.workloads import WORKLOADS

SIDES = ("base", "head")


def run_round(tree: Path, seed: int, workloads: list[str],
              out: Path) -> dict:
    """One ``run --runs 1`` of the benchmark in *tree*; its record.

    The run's working directory is *tree*, so *out* must be absolute."""
    cmd = [sys.executable, "-m", "benchmarks.e2e", "run", "--runs", "1",
           "--seed", str(seed), "--out", str(out)]
    for workload in workloads:
        cmd += ["--workload", workload]
    subprocess.run(cmd, cwd=tree, check=True)
    return json.loads(out.read_text())


def merge(records: list[dict]) -> dict:
    """One ``run`` record out of the per-round records of one side."""
    workloads = {}
    for name in records[0]["workloads"]:
        parts = [record["workloads"][name] for record in records]
        merged = {"seeds": [s for part in parts for s in part["seeds"]],
                  "attempted": sum(part["attempted"] for part in parts),
                  "failed": sum(part["failed"] for part in parts),
                  "errors": [e for part in parts for e in part["errors"]],
                  "digests": {}, "simulated": {}}
        for part in parts:
            merged["digests"].update(part["digests"])
            merged["simulated"].update(part["simulated"])
        merged["ops_failed_frac"] = (merged["failed"]
                                     / max(merged["attempted"], 1))
        merged["metrics"] = {}
        for part in parts:
            for metric, summary in part["metrics"].items():
                merged["metrics"].setdefault(
                    metric, {"unit": summary["unit"], "values": []}
                )["values"] += summary["values"]
        for summary in merged["metrics"].values():
            summary.update(e2e.summarize(summary["values"]))
        workloads[name] = merged
    return {**records[0], "runs": len(records), "workloads": workloads}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf.ab")
    parser.add_argument("base", type=Path, help="source tree of side A")
    parser.add_argument("head", type=Path, help="source tree of side B")
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--rounds", type=int, default=5,
                        help="round i runs each tree once on seed i")
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS),
                        help="repeatable; default: every workload")
    args = parser.parse_args(argv)

    args.out_dir = args.out_dir.resolve()
    args.out_dir.mkdir(parents=True, exist_ok=True)
    trees = {"base": args.base.resolve(), "head": args.head.resolve()}
    records: dict[str, list[dict]] = {side: [] for side in SIDES}
    for i in range(args.rounds):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            print(f"[ab] round {i + 1}/{args.rounds}: {side} "
                  f"({trees[side]})", file=sys.stderr, flush=True)
            records[side].append(run_round(
                trees[side], i, args.workload or [],
                args.out_dir / f"{side}.round{i}.json"))
    for side in SIDES:
        (args.out_dir / f"{side}.json").write_text(
            json.dumps(merge(records[side]), indent=1, sort_keys=True))
    return e2e.main(["compare", str(args.out_dir / "base.json"),
                     str(args.out_dir / "head.json")])


if __name__ == "__main__":
    raise SystemExit(main())
