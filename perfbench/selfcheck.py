#!/usr/bin/env python3
"""Injected-slowdown self-check: does the benchmark put a slowdown in
the layer and on the workload where it happened?

    python3 perfbench/selfcheck.py --seed 1

It slows the front end, which the layer map in README.md predicts
moves ``fleet-streamed`` and leaves ``device-longhaul`` flat.

1. A traced run of the target workload gives the layer's wrapped calls
   and the untraced wall time per cycle. The extra work per call is
   sized to ``SHARE`` (40%) of a cycle's wall time, summed over the
   parent and its two pool workers. The workers run in parallel, so
   that is about a 20% slowdown of the cycle.
2. Untraced runs of the target workload and of the workload where the
   layer is predicted flat, baseline and injected, alternating.
3. Traced runs of the target workload, baseline and injected.

It passes when the layer's self-time row grows by 0.5x to 2x the
injected seconds, and by more than any other ``*_self_s`` row. The
target's ``norm_ops_per_s`` must drop by at least 10%. The flat
workload's must move by less than the metric's bound, and by less than
half the target's drop. The outcome is printed and
written to ``.perfbench/selfcheck-frontend.json``; exit status 0
means it passed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import result_name  # noqa: E402

LAYER = "frontend"
ROW = "frontend.self_s"
TARGET = "fleet-streamed"   # the layer map says this moves
FLAT = "device-longhaul"    # and this does not
SHARE = 0.4                 # injected work / TARGET cycle wall time
PAIRS = 3                   # baseline/injected pairs per workload


def bench(workload: str, seed: int, seconds: float, trace: int,
          inject: Optional[str] = None) -> Dict[str, Any]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    name = result_name(workload, seed, trace, inject)
    result = json.loads((ROOT / ".perfbench" / name).read_text())
    if not result["correct"]:
        raise RuntimeError(f"{workload} failed its checks: "
                           f"{result['problems']}")
    return result


def layer_calls(result: Dict[str, Any]) -> float:
    """Wrapped calls of LAYER per cycle in a traced result."""
    from tracing import WRAPPED

    names = {name for layer, name, *_ in WRAPPED if layer == LAYER}
    return sum(calls for name, calls in result["calls_per_cycle"].items()
               if name in names)


def self_rows(result: Dict[str, Any]) -> Dict[str, float]:
    return {name: entry["value"] for name, entry in result["metrics"].items()
            if name.endswith("self_s")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    bound = {m["name"]: m["bound"] for m in
             benchmark["end_to_end"]}["norm_ops_per_s"]

    base_trace = bench(TARGET, args.seed, seconds, 1)
    first = base_trace["cycles_untraced"]
    cycle_s = statistics.median(base_trace["cycle_walls"][:first])
    calls = layer_calls(base_trace)
    delay = SHARE * cycle_s / calls
    inject = f"{LAYER}={delay:.9f}"
    print(f"{LAYER}: {calls:.0f} wrapped calls per {TARGET} cycle of "
          f"{cycle_s:.3f} s; injecting {delay * 1e6:.1f} us of work per "
          f"call")

    rates: Dict[str, Dict[str, List[float]]] = {
        w: {"base": [], "injected": []} for w in (TARGET, FLAT)}
    for _ in range(PAIRS):
        for workload in (TARGET, FLAT):
            for kind, spec in (("base", None), ("injected", inject)):
                result = bench(workload, args.seed, seconds, 0, spec)
                rates[workload][kind].append(
                    result["metrics"]["norm_ops_per_s"]["value"])
    inj_trace = bench(TARGET, args.seed, seconds, 1, inject)

    change = {w: statistics.mean(r["injected"]) / statistics.mean(r["base"])
              - 1.0 for w, r in rates.items()}
    expected_s = calls * delay
    before, after = self_rows(base_trace), self_rows(inj_trace)
    growth = {name: after[name] - before[name] for name in before}
    others = {n: g for n, g in growth.items() if n != ROW}
    worst_other = max(others, key=lambda n: abs(others[n]))
    checks = {
        f"{ROW} grows by 0.5x-2x the injected {expected_s:.3f} s/cycle":
            0.5 * expected_s <= growth[ROW] <= 2.0 * expected_s,
        f"{ROW} grows more than any other self-time row "
        f"(largest: {worst_other} {others[worst_other]:+.3f} s)":
            growth[ROW] > abs(others[worst_other]),
        f"{TARGET} norm_ops_per_s drops by at least 10%":
            change[TARGET] <= -0.10,
        f"{FLAT} norm_ops_per_s moves by less than the bound "
        f"({bound:.0%}) and half of {TARGET}'s drop":
            abs(change[FLAT]) < min(bound, abs(change[TARGET]) / 2),
    }
    for workload, c in change.items():
        print(f"  {workload:<18} norm_ops_per_s {c:+.1%} "
              f"(base {rates[workload]['base']}, "
              f"injected {rates[workload]['injected']})")
    for name in sorted(growth):
        print(f"  {name:<24} {before[name]:10.4f} -> {after[name]:10.4f} s"
              f"  ({growth[name]:+.4f})")
    for text, ok in checks.items():
        print(f"  [{'PASS' if ok else 'FAIL'}] {text}")
    out = {"layer": LAYER, "seed": args.seed, "delay_s": delay,
           "calls_per_cycle": calls, "cycle_s": cycle_s,
           "expected_self_s": expected_s, "rates": rates, "change": change,
           "self_s_before": before, "self_s_after": after,
           "checks": checks, "passed": all(checks.values())}
    (ROOT / ".perfbench" / f"selfcheck-{LAYER}.json").write_text(
        json.dumps(out, indent=1))
    return 0 if out["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
