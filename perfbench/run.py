#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload fleet-streamed --seed 1 \\
        --seconds 20 --trace 0

Run it from the root of a checkout; it imports the program from
``src/`` there and nowhere else. ``--trace 0`` prints the end-to-end
metrics (``norm_ops_per_s``, ``setup_s``, ``peak_rss_mb``), ``--trace 1``
the per-layer table. The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the full
result, with the host record and sample counts, and in a traced run the
spans, is written under ``.perfbench/`` in the checkout. See
``README.md`` next to this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"

#: Fresh interpreters whose set-up time is measured per run.
SETUP_PROBES = 5

#: speed_probe() seconds on the reference host: normalized figures
#: read as if the host ran that fast throughout.
REF_PROBE_S = 0.004


#: prctl(2) option that makes orphaned descendants this process's
#: children (Linux).
PR_SET_CHILD_SUBREAPER = 36

#: Seconds stop_processes() waits for descendants before killing them.
STOP_GRACE_S = 10.0


class SetupError(Exception):
    """The checkout does not hold the program the benchmark measures."""


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and make sure that
    is where ``repro`` comes from."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program to measure: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SetupError(f"repro imported from {repro.__file__}, "
                         f"not from {src}")


def become_subreaper() -> None:
    """Adopt orphaned descendants, so that :func:`stop_processes` can
    wait for them. The program's pool workers each start their own
    ``multiprocessing`` resource tracker and exit without waiting for
    it; without this, such a tracker outlives the benchmark."""
    try:
        import ctypes

        ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> List[int]:
    """Pids of this process's live or unreaped children (Linux)."""
    me = os.getpid()
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            out.append(int(entry))
    return out


def stop_processes() -> None:
    """Stop every process the run started and wait until each has
    ended: the program's pools, this process's resource tracker, and
    any adopted orphan. What is still alive after ``STOP_GRACE_S`` is
    killed."""
    import multiprocessing

    if "repro.sim.pool" in sys.modules:
        sys.modules["repro.sim.pool"].shutdown_pools()
    for child in multiprocessing.active_children():
        child.join(STOP_GRACE_S)
        if child.is_alive():
            child.kill()
            child.join()
    try:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    except Exception:
        pass
    deadline = time.monotonic() + STOP_GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() < deadline:
            time.sleep(0.01)
            continue
        for pid in _children():
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def host_record() -> Dict[str, Any]:
    """Where the numbers came from, plus the fixed pure-Python
    calibration loop's wall time (``speed_probe``, median of 9), so that
    results from different hosts can be normalized."""
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "calibration_s": statistics.median(
                speed_probe() for _ in range(9))}


def digest_of(obj: Any) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()) \
        .hexdigest()


def _proc_kb(path: str, keys: Tuple[str, ...]) -> int:
    """Sum of the ``key: N kB`` lines of a ``/proc`` file."""
    total = 0
    with open(path) as fh:
        for line in fh:
            key, _, rest = line.partition(":")
            if key in keys:
                total += int(rest.split()[0])
    return total


def worker_peak_kb() -> int:
    """Peak RSS of the live pool workers, in KB, without the pages each
    still shares with another process: a forked worker counts the
    parent's copy-on-write pages in its own RSS, and the parent's peak
    already holds them. Per worker: ``VmHWM`` less ``Shared_Clean`` and
    ``Shared_Dirty`` of ``smaps_rollup`` (Linux)."""
    import multiprocessing

    total = 0
    for child in multiprocessing.active_children():
        proc = f"/proc/{child.pid}"
        try:
            peak = _proc_kb(f"{proc}/status", ("VmHWM",))
            shared = _proc_kb(f"{proc}/smaps_rollup",
                              ("Shared_Clean", "Shared_Dirty"))
        except OSError:
            continue
        total += max(0, peak - shared)
    return total


def result_name(workload: str, seed: int, trace: int,
                inject: Optional[str]) -> str:
    """File under ``.perfbench/`` that holds a run's full result. Runs
    with ``--inject`` get their own, so they never overwrite a plain
    run's."""
    suffix = f"-inject-{inject.partition('=')[0]}" if inject else ""
    return f"result-{workload}-seed{seed}-trace{trace}{suffix}.json"


def _probe_work() -> int:
    table: Dict[str, int] = {}
    rows = []
    for i in range(6000):
        key = f"k{i % 97}"
        table[key] = table.get(key, 0) + i
        rows.append((i, i * 0.5, [key]))
    return len(repr(rows[-800:])) + len(table)


def speed_probe() -> float:
    """Seconds for a fixed pure-Python mix of calls, dict and list
    updates, allocation and float ``repr`` (best of 3): how fast the
    host runs this kind of code right now. It uses no program code, so
    a faster program does not make it faster."""
    best = float("inf")
    gc.disable()  # the program's heap size must not move the probe
    try:
        for _ in range(3):
            t0 = time.perf_counter()
            _probe_work()
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best


class Cycles:
    """Runs whole cycles of a workload's operations and keeps, per
    cycle, the work units and the timed wall seconds."""

    def __init__(self, ops, tracer):
        self.ops = ops
        self.tracer = tracer
        self.reference: List[Optional[str]] = [None] * len(ops)
        self.records: List[Any] = [None] * len(ops)
        self.samples: List[Tuple[int, float]] = []
        self.probes: List[float] = []
        self.op_walls: Dict[str, List[float]] = {op.label: [] for op in ops}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def run(self, seconds: float) -> int:
        """Repeat whole cycles for about ``seconds`` (at least one);
        returns how many ran."""
        start = time.perf_counter()
        done = 0
        while True:
            self._cycle(len(self.samples))
            done += 1
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / done >= seconds:
                return done

    def _cycle(self, index: int) -> None:
        units = 0
        wall = 0.0
        for i, op in enumerate(self.ops):
            self.attempted += 1
            self.tracer.op = f"{index}:{op.label}"
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception:
                wall += time.perf_counter() - t0
                self.failed += 1
                self.problems.append(f"{op.label}: raised\n"
                                     + traceback.format_exc())
                continue
            elapsed = time.perf_counter() - t0
            wall += elapsed
            self.probes.append(speed_probe())
            self.op_walls[op.label].append(elapsed)
            done, record, problems = op.inspect(result)
            digest = digest_of(record)
            if self.reference[i] is None:
                self.reference[i] = digest
                self.records[i] = record
            elif digest != self.reference[i]:
                problems.append("output differs from the first cycle's")
            if problems:
                self.failed += 1
                self.problems.extend(f"{op.label}: {p}" for p in problems)
            units += done
            # Start every operation from a collected heap, so that the
            # previous operation's garbage neither costs it time nor
            # moves the peak RSS.
            del result
            gc.collect()
        self.samples.append((units, wall))

    def rates(self) -> List[float]:
        return [u / w for u, w in self.samples if w > 0]

    def walls(self) -> List[float]:
        return [w for _, w in self.samples]


def setup_probe(args) -> int:
    """``--setup-probe``: set up as a run would, say so, and exit."""
    from tracing import SpanTracer
    from workloads import WORKLOADS

    tracer = SpanTracer()
    apply_injection(tracer, args.inject)
    WORKLOADS[args.workload](args.seed, tracer).setup()
    print("ready", flush=True)
    return 0


def measure_setup(args) -> List[Tuple[float, float]]:
    """(wall seconds, host speed probe) per fresh interpreter: from its
    launch to the end of the workload's set-up."""
    out = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.inject:
        cmd += ["--inject", args.inject]
    for _ in range(SETUP_PROBES):
        before = speed_probe()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True)
        try:
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=60)
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code})")
        out.append((wall, 0.5 * (before + speed_probe())))
    return out


def apply_injection(tracer, spec: Optional[str]) -> None:
    """``--inject LAYER=SECONDS``: add that much pure-Python work, timed
    on this host at start-up, to every wrapped call of one layer (the
    injected-slowdown self-check)."""
    if not spec:
        return
    from tracing import LAYERS, burn_iterations

    layer, _, seconds = spec.partition("=")
    if layer not in LAYERS:
        raise SystemExit(f"perfbench: --inject layer must be one of "
                         f"{', '.join(LAYERS)}")
    tracer.delays[layer] = burn_iterations(float(seconds))
    tracer.install([layer])


def run(args) -> Dict[str, Any]:
    from repro.sim.pool import shutdown_pools
    from tracing import SpanTracer, layer_metrics
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    tracer = SpanTracer()
    apply_injection(tracer, args.inject)
    if args.trace:
        tracer.prepare_workers(Path(tempfile.mkdtemp(prefix="workers-",
                                                     dir=OUT)))
    workload = WORKLOADS[args.workload](args.seed, tracer)
    workload.setup()
    cycles = Cycles(workload.ops(), tracer)
    result: Dict[str, Any] = {"workload": args.workload, "seed": args.seed,
                              "trace": args.trace, "inject": args.inject}
    metrics: Dict[str, Dict[str, Any]] = {}
    budget = args.seconds if not args.trace else args.seconds / 2
    untraced = cycles.run(budget)

    if args.trace:
        tracer.start()
        first = len(cycles.samples)
        traced = cycles.run(budget)
        tracer.stop()
    post = workload.post_checks()
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + worker_peak_kb())
    shutdown_pools()
    if args.trace:
        tracer.collect_workers()
        tracer.out_dir.rmdir()
        walls = cycles.walls()
        layers = layer_metrics(tracer, traced)
        layers["trace.overhead"] = (statistics.median(walls[first:])
                                    / statistics.median(walls[:first]))
        units = {m["name"]: m["unit"] for m in json.loads(
            (ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in layers.items()}
        spans_path = OUT / f"spans-{args.workload}.ndjson.gz"
        tracer.write(spans_path)
        result.update(cycles_untraced=untraced, cycles_traced=traced,
                      cycle_walls=walls, spans=len(tracer.spans),
                      spans_file=str(spans_path),
                      calls_per_cycle={n: c / traced for n, c
                                       in tracer.calls.items()},
                      self_s_per_cycle={n: t / traced for n, t
                                        in tracer.self_s.items()})

    digest = digest_of(cycles.records)
    recorded = {}
    if DIGESTS.is_file():
        recorded = json.loads(DIGESTS.read_text()).get(args.workload, {})
    expected = recorded.get(str(args.seed))
    failed_checks = [f"{name}: {problem}" for name, problems in post
                     for problem in problems]
    if expected is not None and expected != digest:
        failed_checks.append(f"digest {digest} differs from the recorded "
                             f"{expected} for seed {args.seed}")
    attempted = (cycles.attempted + len(post)
                 + (1 if expected is not None else 0))
    failed = (cycles.failed + sum(1 for _, problems in post if problems)
              + (1 if expected not in (None, digest) else 0))

    if not args.trace:
        rates = cycles.rates()
        setup = measure_setup(args)
        # Every figure of the run is scaled to the reference host speed
        # by the mean of all its speed probes. A single probe, or the
        # few around one operation or set-up, are noisier than the
        # host's drift and over-correct it. The host alternates between
        # a fast and a slow mode, so the mean, which follows the share
        # of time spent slow, tracks it better than the median, which
        # flips between the two.
        probes = cycles.probes + [probe for _, probe in setup]
        scale = statistics.mean(probes) / REF_PROBE_S
        norm_rates = [rate * scale for rate in rates]
        norm_setup = [wall / scale for wall, _ in setup]
        metrics = {
            "norm_ops_per_s": {"value": statistics.median(norm_rates),
                               "unit": "1/s"},
            "setup_s": {"value": statistics.median(norm_setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
        result.update(
            samples={"norm_ops_per_s": len(norm_rates),
                     "setup_s": len(setup)},
            rate_name=workload.rate_name, unit=workload.unit,
            raw_ops_per_s=statistics.median(rates),
            raw_setup_s=statistics.median(wall for wall, _ in setup),
            rates=rates, norm_rates=norm_rates, setup=setup,
            probe_s=statistics.mean(probes), probes=probes,
            op_wall_s={label: statistics.median(w)
                       for label, w in cycles.op_walls.items() if w})
    result.update(
        host=host_record(), digest=digest, recorded_digest=expected,
        problems=cycles.problems + failed_checks,
        correct=failed == 0, attempted=attempted, failed=failed,
        metrics=metrics)
    return result


def report(result: Dict[str, Any]) -> None:
    """Human-readable lines; the caller prints the JSON line last."""
    print(f"perfbench {result['workload']} seed={result['seed']} "
          f"trace={result['trace']}"
          + (f" inject={result['inject']}" if result["inject"] else ""))
    print("host " + json.dumps(result["host"], sort_keys=True))
    metrics = result["metrics"]
    if not result["trace"]:
        n = result["samples"]
        print(f"  {'norm_ops_per_s':<24} "
              f"{metrics['norm_ops_per_s']['value']:12.4f} 1/s  "
              f"({result['unit']} per reference-host second; median of "
              f"{n['norm_ops_per_s']} cycles)")
        print(f"  {result['rate_name']:<24} {result['raw_ops_per_s']:12.4f} "
              f"{result['unit']}/s  (raw wall clock; speed probe "
              f"{result['probe_s'] * 1e3:.3f} ms vs reference "
              f"{REF_PROBE_S * 1e3:.3f} ms)")
        print(f"  {'setup_s':<24} {metrics['setup_s']['value']:12.4f} s  "
              f"(normalized, median of {n['setup_s']} fresh interpreters; "
              f"raw {result['raw_setup_s']:.4f} s)")
        print(f"  {'peak_rss_mb':<24} {metrics['peak_rss_mb']['value']:12.2f}"
              f" MB  (benchmark process + pool workers)")
    else:
        print(f"  per-layer table, per cycle over {result['cycles_traced']} "
              f"traced cycles ({result['spans']} spans in "
              f"{result['spans_file']})")
        for name, entry in metrics.items():
            print(f"  {name:<32} {entry['value']:16.6f} {entry['unit']}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'failed_ratio':<24} {ratio:12.4f} fraction  "
          f"({result['failed']} of {result['attempted']} checked "
          f"operations and checks)")
    recorded = result["recorded_digest"]
    print(f"  digest {result['digest']} "
          + ("(no recorded digest for this seed)" if recorded is None else
             "(matches the recorded digest)" if recorded == result["digest"]
             else "(DIFFERS from the recorded digest)"))
    for problem in result["problems"]:
        print("  FAILED CHECK: " + problem)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", default=None,
                        help="LAYER=SECONDS of extra work per wrapped call "
                             "of one layer (injected-slowdown self-check)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        import_program()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    become_subreaper()
    try:
        if args.setup_probe:
            return setup_probe(args)
        result = run(args)
    finally:
        stop_processes()
    OUT.mkdir(exist_ok=True)
    name = result_name(args.workload, args.seed, args.trace, args.inject)
    (OUT / name).write_text(json.dumps(result, indent=1, sort_keys=True))
    report(result)
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
