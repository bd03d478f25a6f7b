"""``python -m benchmarks.e2e run|compare|reference``.

``run`` measures workloads N times and writes medians and quartiles to
a JSON file; ``--trace`` adds one traced run per workload.  ``compare``
checks a second such file against a first, metric by metric against the
bounds of ``BENCHMARK.json``, and requires identical digests and
simulated results.  ``reference`` records the output digests this host
produces into ``reference.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

from benchmarks.e2e import harness
from benchmarks.e2e.workloads import DSE_TRACE_SEEDS, WORKLOADS


def load_spec() -> dict:
    return json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def summarize(values: list[float]) -> dict:
    """Median, quartiles (``statistics.quantiles(n=4)``) and count."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "values": values}


# -- run ----------------------------------------------------------------------

def measure(workload: str, runs: int, seed: int, seconds: float,
            trace_path: Path | None, spec: dict) -> dict:
    out: dict = {"seeds": list(range(seed, seed + runs)), "attempted": 0,
                 "failed": 0, "errors": [], "digests": {}, "simulated": {}}
    samples: dict[str, list[float]] = {}
    for s in out["seeds"]:
        record = harness.run_once(workload, s, seconds)
        print(f"{workload} seed {s}: {record.failed}/{record.attempted} "
              f"failed, " + ", ".join(f"{k} {v:.4g} {u}" for k, (v, u)
                                      in record.metrics().items()),
              file=sys.stderr)
        out["attempted"] += record.attempted
        out["failed"] += record.failed
        out["errors"] += record.errors
        out["digests"].update(record.digests)
        out["simulated"].update(record.simulated)
        out["kernels"] = record.kernels
        for name, (value, _unit) in record.metrics().items():
            samples.setdefault(name, []).append(value)
    out["ops_failed_frac"] = out["failed"] / max(out["attempted"], 1)
    out["metrics"] = {m["name"]: {"unit": m["unit"],
                                  **summarize(samples[m["name"]])}
                      for m in spec["end_to_end"] if m["name"] in samples}
    if trace_path is not None:
        record = harness.run_once(workload, seed, seconds,
                                  trace_path=trace_path)
        out["per_layer"] = {k: {"value": v, "unit": u}
                            for k, (v, u) in record.metrics().items()}
        untraced = out["metrics"]["iteration_s"]["median"]
        traced = out["per_layer"]["trace.iteration_s"]["value"]
        out["tracing_overhead_frac"] = (traced - untraced) / untraced
        out["trace_file"] = str(trace_path)
    return out


def cmd_run(args) -> int:
    spec = load_spec()
    out_path = Path(args.out)
    result = {
        "host": {"machine": platform.machine(),
                 "python": platform.python_version(),
                 "cpus": os.cpu_count()},
        "runs": args.runs, "seconds": args.seconds, "workloads": {},
    }
    for workload in args.workload or list(WORKLOADS):
        trace_path = (out_path.with_name(f"{out_path.stem}.{workload}"
                                         f".trace.json")
                      if args.trace else None)
        result["workloads"][workload] = measure(
            workload, args.runs, args.seed, args.seconds, trace_path, spec)
        out_path.write_text(json.dumps(result, indent=1, sort_keys=True))
    for workload, w in result["workloads"].items():
        print(f"{workload}: {w['failed']}/{w['attempted']} ops failed")
        for name, m in w["metrics"].items():
            print(f"  {name:<12} median {m['median']:.4g} {m['unit']}  "
                  f"[q1 {m['q1']:.4g}, q3 {m['q3']:.4g}]  n={m['n']}")
        if "tracing_overhead_frac" in w:
            print(f"  tracing overhead {w['tracing_overhead_frac']:+.1%}, "
                  f"trace {w['trace_file']}")
    print(f"wrote {out_path}")
    return 0


# -- compare ------------------------------------------------------------------

def compare(a: dict, b: dict, spec: dict) -> tuple[list[str], bool]:
    """Report lines and whether *b* passes against *a*.

    Bounds and directions come from *spec* (``BENCHMARK.json``)."""
    rules = {m["name"]: m for m in spec["end_to_end"]}
    lines = [f"{'workload':<15} {'metric':<12} {'A median':>10} "
             f"{'B median':>10} {'delta':>7} {'spread':>7} {'bound':>6}  "
             f"status"]
    ok = True
    for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        names = set(wa["metrics"]) & set(wb["metrics"]) & set(rules)
        for name in sorted(names):
            ma, mb = wa["metrics"][name], wb["metrics"][name]
            bound = rules[name]["bound"]
            sign = 1.0 if rules[name]["better"] == "lower" else -1.0
            worse = sign * (mb["median"] - ma["median"]) / ma["median"]
            spread = max((m["q3"] - m["q1"]) / m["median"] for m in (ma, mb))
            if spread > bound:
                b_wins = all(sign * vb < sign * va for va in ma["values"]
                             for vb in mb["values"])
                status = "better (every run)" if b_wins else "unresolved"
            elif worse > bound:
                status, ok = "REGRESSED", False
            else:
                status = "within bound"
            lines.append(
                f"{workload:<15} {name:<12} {ma['median']:>10.4g} "
                f"{mb['median']:>10.4g} {sign * worse:>+7.1%} "
                f"{spread:>7.1%} {bound:>6.0%}  {status}")
        for label, key in (("digest", "digests"), ("simulated", "simulated")):
            for name in sorted(set(wa[key]) & set(wb[key])):
                if wa[key][name] != wb[key][name]:
                    ok = False
                    lines.append(f"{workload:<15} {label} {name}: "
                                 f"{wa[key][name]} != {wb[key][name]}  "
                                 f"MISMATCH")
        for side, w in (("A", wa), ("B", wb)):
            if w["failed"]:
                ok = False
                lines.append(f"{workload:<15} {side}: {w['failed']} of "
                             f"{w['attempted']} ops failed")
    return lines, ok


def cmd_compare(args) -> int:
    a = json.loads(Path(args.a).read_text())
    b = json.loads(Path(args.b).read_text())
    lines, ok = compare(a, b, load_spec())
    print("\n".join(lines))
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


# -- reference ----------------------------------------------------------------

def cmd_reference(args) -> int:
    """Record every op's digest for the kernels this host resolves."""
    passthrough = harness.KERNEL_KNOBS
    digests: dict[str, str] = {}
    jobs = [("reproduce_cold", 0), ("characterize", 0)] + [
        ("dse_grid", s) for s in range(DSE_TRACE_SEEDS)]
    kernels = None
    for workload, seed in jobs:
        record = harness.run_once(workload, seed, 0.0, check=False,
                                  passthrough=passthrough)
        if record.failed:
            print("\n".join(record.errors), file=sys.stderr)
            return 1
        kernels = record.kernels
        digests.update(record.digests)
        print(f"{workload} seed {seed}: {len(record.digests)} digests",
              file=sys.stderr)
    reference = harness.load_reference()
    reference[kernels] = dict(sorted(digests.items()))
    harness.REFERENCE.write_text(json.dumps(reference, indent=1,
                                            sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests for {kernels} in "
          f"{harness.REFERENCE}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="measure workloads N times")
    p_run.add_argument("--workload", action="append",
                       choices=sorted(WORKLOADS),
                       help="repeatable; default: every workload")
    p_run.add_argument("--runs", type=int, default=5)
    p_run.add_argument("--seed", type=int, default=0,
                       help="first seed; run i uses seed + i")
    p_run.add_argument("--seconds", type=float,
                       default=load_spec()["run_seconds"])
    p_run.add_argument("--trace", action="store_true",
                       help="add one traced run per workload")
    p_run.add_argument("--out", required=True, metavar="R.json")
    p_cmp = sub.add_parser("compare", help="check B against A")
    p_cmp.add_argument("a")
    p_cmp.add_argument("b")
    sub.add_parser("reference", help="record output digests for this host")
    args = parser.parse_args(argv)
    try:
        if args.command != "compare":
            harness.check_checkout()
    except harness.CheckoutError as exc:
        print(exc, file=sys.stderr)
        return 2
    return {"run": cmd_run, "compare": cmd_compare,
            "reference": cmd_reference}[args.command](args)
