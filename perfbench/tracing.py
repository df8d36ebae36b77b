"""Span tracing for the benchmark's traced run.

The program under test carries no instrumentation, so every span is
recorded here, by wrapping the public entry points of each layer where
they are looked up. A module-level function is replaced in every
``repro`` module that bound it at import (``repro.workloads.health``
holds its own ``load_properties``, for example); a method is replaced
on its defining class.

Every wrapped call adds to its name's self time, total time and call
count. Coarse calls also keep a span ``(name, start, end, parent, op,
pid)``: ``parent`` is the index of the nearest enclosing span on the
same thread (``-1`` for none) and ``op`` names the operation the span
belongs to (a rollout, a device or a crash schedule). Calls in ``HOT``
are too frequent to keep a span each. Spans stay in memory and are
written out when the run ends. Self time is a call's duration minus the
durations of the wrapped calls directly inside it.

Pool workers: :meth:`SpanTracer.prepare_workers` runs before the pool
forks and gives future workers two hooks only, so they run untraced at
full speed until tracing starts. A shared one-byte flag then switches
tracing on in step with the parent, and the first device a worker runs
installs the wrappers in that worker. When the pool stops a worker, it
writes its spans and counters to a file, and
:meth:`SpanTracer.collect_workers` merges them into the parent's.
Per-layer self times therefore add up across the parent and its
workers, and can exceed the wall time.
"""

from __future__ import annotations

import functools
import mmap
import os
import pickle
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: (layer, span name, module, attribute path). The layer decides which
#: self-time row a span feeds; see ``layer_metrics`` below.
WRAPPED: Tuple[Tuple[str, str, str, str], ...] = (
    # front end: spec -> PropertySet -> plan -> codegen/compile, bundles
    ("frontend", "spec.load_properties", "repro.spec.validator",
     "load_properties"),
    ("frontend", "generator.build_monitor_plan", "repro.core.generator",
     "build_monitor_plan"),
    ("frontend", "codegen.compile_machine",
     "repro.statemachine.codegen_python", "compile_machine"),
    ("frontend", "codegen.generate_python_source",
     "repro.statemachine.codegen_python", "generate_python_source"),
    ("frontend", "bundle.build_bundle", "repro.fleet.bundle", "build_bundle"),
    ("frontend", "bundle.decode_wire", "repro.fleet.bundle", "decode_wire"),
    ("frontend", "bundle.apply_delta", "repro.fleet.bundle", "apply_delta"),
    # monitor dispatch
    ("monitor", "monitor.call", "repro.core.monitor", "ArtemisMonitor.call"),
    # NVM cells and journal
    ("nvm", "nvm.write", "repro.nvm.memory", "PersistentCell.set"),
    ("nvm", "nvm.commit", "repro.nvm.transaction", "Transaction.commit"),
    # energy and harvest
    ("energy", "device.run", "repro.sim.device", "Device.run"),
    ("energy", "device.consume", "repro.sim.device", "Device.consume"),
    ("energy", "device.consume_energy", "repro.sim.device",
     "Device.consume_energy"),
    ("energy", "device.reboot", "repro.sim.device", "Device.reboot"),
    ("harvest", "env.harvest", "repro.energy.environment",
     "EnergyEnvironment.harvest"),
    ("harvest", "env.recharge_to_boot", "repro.energy.environment",
     "EnergyEnvironment.recharge_to_boot"),
    # runtime loop and boot recovery
    ("runtime", "runtime.loop_iteration", "repro.core.runtime",
     "ArtemisRuntime.loop_iteration"),
    ("runtime", "runtime.boot", "repro.core.runtime", "ArtemisRuntime.boot"),
    ("runtime", "runtime.begin_run", "repro.core.runtime",
     "ArtemisRuntime.begin_run"),
    ("runtime", "updatable.loop_iteration", "repro.fleet.device",
     "UpdatableRuntime.loop_iteration"),
    ("runtime", "updatable.boot", "repro.fleet.device",
     "UpdatableRuntime.boot"),
    ("recovery", "recovery.on_boot", "repro.core.recovery",
     "RecoveryManager.on_boot"),
    ("recovery", "journal.recover", "repro.nvm.journal",
     "CommitJournal.recover"),
    # OTA transport and install
    ("ota", "ota.offer", "repro.fleet.transport", "OtaTransport.offer"),
    ("ota", "ota.step", "repro.fleet.transport", "OtaTransport.step"),
    ("ota", "install.install_initial", "repro.fleet.install",
     "BundleInstaller.install_initial"),
    ("ota", "install.stage", "repro.fleet.install", "BundleInstaller.stage"),
    ("ota", "install.activate", "repro.fleet.install",
     "BundleInstaller.activate"),
    ("ota", "install.rollback", "repro.fleet.install",
     "BundleInstaller.rollback"),
    ("ota", "install.finish_migration", "repro.fleet.install",
     "BundleInstaller.finish_migration"),
    # batch-kernel replay
    ("batch", "batch.run", "repro.sim.batch.core", "BatchFleetCore.run"),
    # pool IPC (parent side)
    ("pool", "pool.run", "repro.sim.pool", "PersistentPool.run"),
    # control-plane gate
    ("control", "control.gate", "repro.fleet.control", "TelemetryGate.decide"),
    # conformance explorer
    ("verify", "verify.explore", "repro.verify.explorer",
     "CrashScheduleExplorer.explore"),
    ("verify", "verify.execute", "repro.verify.explorer",
     "CrashScheduleExplorer.execute"),
    ("verify", "verify.before_consume", "repro.verify.schedule",
     "CrashScheduleRunner.before_consume"),
    ("verify", "verify.representatives", "repro.verify.schedule",
     "CrashScheduleRunner.representatives"),
    ("verify_compare", "verify.compare_outcomes", "repro.verify.oracle",
     "compare_outcomes"),
    ("verify_compare", "verify.extract_outcome", "repro.verify.oracle",
     "extract_outcome"),
    # fleet device task: sets the operation id inside pool workers
    ("fleet_task", "fleet.wave_task", "repro.fleet.control",
     "WaveTask.__call__"),
)

#: Wrapped calls too frequent to keep a span each: they are timed and
#: counted in aggregate only (self time still subtracts from the
#: enclosing span).
HOT = frozenset({
    "monitor.call", "nvm.write", "nvm.commit", "device.consume",
    "device.consume_energy", "device.reboot", "env.harvest",
    "env.recharge_to_boot", "runtime.loop_iteration", "runtime.begin_run",
    "updatable.loop_iteration", "ota.step", "verify.before_consume",
    "verify.representatives",
})

#: Calls counted without a span or a timer: too frequent, or only
#: observed (counter name, module, attribute path).
COUNTED: Tuple[Tuple[str, str, str], ...] = (
    ("batch.kernel_steps", "repro.sim.batch.fsm",
     "BatchMachineSet.step_machine"),
    ("nvm.allocs", "repro.nvm.memory", "NonVolatileMemory.alloc"),
    ("nvm.grows", "repro.nvm.memory", "NonVolatileMemory.grow"),
)

#: Modules imported before patching, so that every binding of a wrapped
#: function exists when the wrappers go in.
MODULES = (
    "repro", "repro.fleet.control", "repro.fleet.server", "repro.sim.batch",
    "repro.sim.batch.core", "repro.sim.batch.fsm", "repro.verify",
    "repro.verify.workloads", "repro.workloads.health",
    "repro.workloads.synthetic", "repro.analysis",
)

#: Every layer name in WRAPPED; ``--inject`` may target any of them.
LAYERS = tuple(sorted({layer for layer, *_ in WRAPPED}))


def burn(iterations: int) -> int:
    """Injected slowdown: a fixed amount of pure-Python work, so that it
    slows down and speeds up with the host like the program does."""
    acc = 0
    for i in range(iterations):
        acc += i
    return acc


def burn_iterations(seconds: float) -> int:
    """How many :func:`burn` iterations take ``seconds`` on this host
    right now."""
    t0 = time.perf_counter()
    burn(200_000)
    return max(1, round(seconds * 200_000 / (time.perf_counter() - t0)))


class SpanTracer:
    """In-memory span and counter store, one per process.

    ``enabled`` is the only switch the wrappers test; while it is off a
    wrapper adds one call frame and one branch. ``delays`` maps a layer
    to :func:`burn` iterations added to each of its wrapped calls,
    traced or not (the injected-slowdown self-check).
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Any] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: Dict[str, float] = defaultdict(float)
        self.distinct: Dict[str, set] = defaultdict(set)
        self.op: Any = None
        self.delays: Dict[str, int] = {}
        self.out_dir: Optional[Path] = None
        self.pid = os.getpid()
        self._local = threading.local()
        self._installed: set = set()
        self._shared: Optional[mmap.mmap] = None

    # -- recording -----------------------------------------------------
    def _stack(self) -> List[List[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, value: float = 1) -> None:
        if self.enabled:
            self.counts[name] += value

    def peak(self, name: str, value: float) -> None:
        if self.enabled and value > self.maxima[name]:
            self.maxima[name] = value

    def clear(self) -> None:
        for store in (self.spans, self.self_s, self.total_s, self.calls,
                      self.counts, self.maxima, self.distinct):
            store.clear()

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        """A timed wrapper. Every call feeds the per-name self/total
        time and call count; calls outside ``HOT`` also keep a span.

        A stack frame is ``[span index, name, child seconds]``; for an
        unrecorded call the index is that of the nearest recorded
        ancestor, so recorded spans always point at a recorded parent.
        """
        tracer = self
        hook = _HOOKS.get(name)
        recorded = name not in HOT
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            delay = tracer.delays.get(layer)
            if not tracer.enabled:
                if delay:
                    burn(delay)
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            parent_index = parent[0] if parent is not None else -1
            if recorded:
                frame = [len(tracer.spans), name, 0.0]
                tracer.spans.append(None)  # keeps child indices stable
            else:
                frame = [parent_index, name, 0.0]
            stack.append(frame)
            saved_op = tracer.op
            if hook is not None and hook.on_call is not None:
                hook.on_call(tracer, args)
            start = perf_counter()
            try:
                if delay:
                    burn(delay)
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.self_s[name] += duration - frame[2]
                tracer.total_s[name] += duration
                tracer.calls[name] += 1
                if parent is not None:
                    parent[2] += duration
                if recorded:
                    tracer.spans[frame[0]] = (name, start, end, parent_index,
                                              tracer.op, tracer.pid)
                tracer.op = saved_op
            if hook is not None and hook.on_return is not None:
                hook.on_return(tracer, args, result,
                               parent[1] if parent is not None else None)
            return result

        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        tracer = self
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.counts[name] += 1
            result = fn(*args, **kwargs)
            if hook is not None:
                hook.on_return(tracer, args, result, None)
            return result

        return wrapper

    # -- installation --------------------------------------------------
    def install(self, layers: Optional[Iterable[str]] = None) -> None:
        """Wrap the entry points of ``layers`` (default: all of them)."""
        import importlib

        for module in MODULES:
            importlib.import_module(module)
        wanted = set(LAYERS if layers is None else layers)
        for layer, name, module, attr in WRAPPED:
            if layer in wanted:
                self._patch(module, attr,
                            lambda fn, l=layer, n=name: self._wrap(l, n, fn))
        if layers is None:
            for name, module, attr in COUNTED:
                self._patch(module, attr,
                            lambda fn, n=name: self._count(n, fn))

    def prepare_workers(self, out_dir: Path) -> None:
        """Before any pool forks: make future workers report their
        spans to ``out_dir`` at shutdown, and switch their tracing on
        and off with the parent's.

        Workers get no other wrapper until tracing starts, so a pool
        forked during set-up runs untraced at full speed; the first
        device a worker runs after :meth:`start` installs the wrappers
        in that worker.
        """
        import importlib

        importlib.import_module("repro.fleet.control")
        self.out_dir = out_dir
        self._shared = mmap.mmap(-1, 1)
        self._patch("repro.sim.pool", "_pool_worker", self._worker_entry)
        self._patch("repro.fleet.control", "WaveTask.__call__",
                    self._task_gate)

    def start(self) -> None:
        self.install()
        self.enabled = True
        if self._shared is not None:
            self._shared[0] = 1

    def stop(self) -> None:
        self.enabled = False
        if self._shared is not None:
            self._shared[0] = 0

    def _patch(self, module: str, attr: str,
               make: Callable[[Callable], Callable]) -> None:
        key = f"{module}:{attr}"
        if key in self._installed:
            return
        mod = sys.modules[module]
        owner_name, _, member = attr.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name)
            original = owner.__dict__[member]
            setattr(owner, member, make(original))
        else:
            original = getattr(mod, member)
            wrapped = make(original)
            for name, other in list(sys.modules.items()):
                if other is None or not (name == "repro"
                                         or name.startswith("repro.")):
                    continue
                if getattr(other, member, None) is original:
                    setattr(other, member, wrapped)
        self._installed.add(key)

    # -- pool workers --------------------------------------------------
    def _task_gate(self, original: Callable) -> Callable:
        tracer = self
        traced = self._wrap("fleet_task", "fleet.wave_task", original)

        @functools.wraps(original)
        def gate(*args, **kwargs):
            on = bool(tracer._shared[0])
            if on and not tracer.enabled:
                tracer.install()  # a worker's first traced device
            tracer.enabled = on
            return traced(*args, **kwargs)

        return gate

    def _worker_entry(self, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def worker(*args, **kwargs):
            # Forked children start from the parent's recorded state.
            tracer.clear()
            tracer.pid = os.getpid()
            try:
                return original(*args, **kwargs)
            finally:
                if tracer.calls and tracer.out_dir is not None:
                    path = tracer.out_dir / f"worker-{os.getpid()}.pkl"
                    with open(path, "wb") as fh:
                        pickle.dump({"spans": tracer.spans,
                                     "self_s": dict(tracer.self_s),
                                     "total_s": dict(tracer.total_s),
                                     "calls": dict(tracer.calls),
                                     "counts": dict(tracer.counts),
                                     "maxima": dict(tracer.maxima),
                                     "distinct": dict(tracer.distinct)},
                                    fh, protocol=pickle.HIGHEST_PROTOCOL)

        return worker

    def collect_workers(self) -> int:
        """Merge the span files workers wrote at shutdown; returns how
        many workers reported."""
        if self.out_dir is None:
            return 0
        merged = 0
        for path in sorted(self.out_dir.glob("worker-*.pkl")):
            with open(path, "rb") as fh:
                data = pickle.load(fh)
            path.unlink()
            offset = len(self.spans)
            for name, start, end, parent, op, pid in data["spans"]:
                self.spans.append((name, start, end,
                                   parent + offset if parent >= 0 else -1,
                                   op, pid))
            for key in ("self_s", "total_s"):
                store = getattr(self, key)
                for name, value in data[key].items():
                    store[name] += value
            self.calls.update(data["calls"])
            self.counts.update(data["counts"])
            for key, value in data["maxima"].items():
                self.maxima[key] = max(self.maxima[key], value)
            for key, values in data["distinct"].items():
                self.distinct[key] |= values
            merged += 1
        return merged

    # -- output --------------------------------------------------------
    def write(self, path: Path) -> None:
        """Spans as gzipped NDJSON: one ``[name, start, end, parent, op,
        pid]`` array per line."""
        import gzip
        import json

        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(list(span), default=str) + "\n")


class _Hook:
    def __init__(self, on_call=None, on_return=None):
        self.on_call = on_call
        self.on_return = on_return


def _on_load_properties(tracer, args, result, parent):
    tracer.distinct["spec.sources"].add(hash(args[0]))


def _on_generate_source(tracer, args, result, parent):
    if parent == "codegen.compile_machine":
        tracer.distinct["codegen.sources"].add(hash(result))


def _on_nvm_size(tracer, args, result, parent):
    tracer.peak("nvm.used_bytes_peak", args[0].used_bytes)


def _on_batch_run(tracer, args, result, parent):
    tracer.counts["batch.cohorts"] += len(result.cohorts)
    tracer.counts["batch.lanes"] += len(result.device_ids)
    tracer.counts["batch.divergent_lanes"] += len(result.lanes)


def _on_pool_run(tracer, args, result, parent):
    from repro.sim.pool import PoolItemError

    tracer.counts["pool.items"] += len(result)
    tracer.counts["pool.failed_items"] += sum(
        1 for r in result if isinstance(r, PoolItemError))


def _on_explore(tracer, args, result, parent):
    tracer.counts["verify.pruned_subtrees"] += result.pruned_subtrees


def _op_device(tracer, args):
    tracer.op = f"device:{args[1]}"


def _op_schedule(tracer, args):
    schedule = args[1] if len(args) > 1 else ()
    tracer.op = f"{tracer.op}/schedule:{','.join(map(str, schedule))}"


_HOOKS = {
    "spec.load_properties": _Hook(on_return=_on_load_properties),
    "codegen.generate_python_source": _Hook(on_return=_on_generate_source),
    "nvm.allocs": _Hook(on_return=_on_nvm_size),
    "nvm.grows": _Hook(on_return=_on_nvm_size),
    "batch.run": _Hook(on_return=_on_batch_run),
    "pool.run": _Hook(on_return=_on_pool_run),
    "verify.explore": _Hook(on_return=_on_explore),
    "verify.execute": _Hook(on_call=_op_schedule),
    "fleet.wave_task": _Hook(on_call=_op_device),
}


def _names(*layers: str) -> List[str]:
    """Span names that feed the self-time rows of ``layers``."""
    return [name for layer, name, *_ in WRAPPED if layer in layers]


def layer_metrics(tracer: SpanTracer, cycles: int) -> Dict[str, float]:
    """Fold spans and counters into the per-layer metrics, per cycle of
    the workload's operation list."""
    self_s, total_s, calls = tracer.self_s, tracer.total_s, tracer.calls
    c = tracer.counts
    per = 1.0 / max(1, cycles)

    def self_of(*names: str) -> float:
        return sum(self_s.get(n, 0.0) for n in names) * per

    def calls_of(*names: str) -> float:
        return sum(calls.get(n, 0) for n in names) * per

    events = calls.get("monitor.call", 0)
    cohorts = c.get("batch.cohorts", 0)
    return {
        "spec.parse_calls": calls_of("spec.load_properties"),
        "spec.distinct_specs": len(tracer.distinct.get("spec.sources", ())),
        "generator.plan_calls": calls_of("generator.build_monitor_plan"),
        "codegen.compile_calls": calls_of("codegen.compile_machine"),
        "codegen.distinct_sources": len(
            tracer.distinct.get("codegen.sources", ())),
        "bundle.build_calls": calls_of("bundle.build_bundle"),
        "frontend.self_s": self_of(*_names("frontend")),
        "monitor.events": events * per,
        "monitor.self_s": self_of("monitor.call"),
        "monitor.us_per_event": (self_s.get("monitor.call", 0.0) / events
                                 * 1e6) if events else 0.0,
        "nvm.cell_writes": calls_of("nvm.write"),
        "nvm.write_self_s": self_of("nvm.write"),
        "nvm.journal_commits": calls_of("nvm.commit"),
        "nvm.commit_self_s": self_of("nvm.commit"),
        "nvm.used_bytes_peak": tracer.maxima.get("nvm.used_bytes_peak", 0),
        "energy.consume_calls": calls_of("device.consume",
                                         "device.consume_energy"),
        "energy.self_s": self_of(*_names("energy")),
        "energy.harvest_self_s": self_of(*_names("harvest")),
        "runtime.loop_iterations": calls_of("runtime.loop_iteration"),
        "runtime.self_s": self_of(*_names("runtime")),
        "recovery.boots": calls_of("recovery.on_boot"),
        "recovery.self_s": self_of(*_names("recovery")),
        "ota.transport_steps": calls_of("ota.step"),
        "ota.chunks_lost": c.get("ota.chunks_lost", 0) * per,
        "ota.installs": calls_of("install.activate"),
        "ota.rollbacks": c.get("ota.rollbacks", 0) * per,
        "ota.self_s": self_of(*_names("ota")),
        "batch.cohorts": cohorts * per,
        "batch.lanes": c.get("batch.lanes", 0) * per,
        "batch.divergent_lanes": c.get("batch.divergent_lanes", 0) * per,
        "batch.kernel_steps": c.get("batch.kernel_steps", 0) * per,
        "batch.lanes_per_representative": (c.get("batch.lanes", 0) / cohorts
                                           if cohorts else 0.0),
        "batch.self_s": self_of("batch.run"),
        "pool.items": c.get("pool.items", 0) * per,
        "pool.failed_items": c.get("pool.failed_items", 0) * per,
        "pool.wait_s": total_s.get("pool.run", 0.0) * per,
        "control.queue_peak": tracer.maxima.get("control.queue_peak", 0),
        "control.queue_blocked": c.get("control.queue_blocked", 0) * per,
        "control.dropped": c.get("control.dropped", 0) * per,
        "control.gate_s": total_s.get("control.gate", 0.0) * per,
        "control.wave_elapsed_s": c.get("control.wave_elapsed_s", 0.0) * per,
        "verify.executions": calls_of("verify.execute"),
        "verify.pruned_subtrees": c.get("verify.pruned_subtrees", 0) * per,
        "verify.execute_self_s": self_of(*_names("verify")),
        "verify.compare_self_s": self_of(*_names("verify_compare")),
    }
