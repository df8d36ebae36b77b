"""The benchmark's four workloads.

Each workload turns ``--seed`` into a fixed list of operations (one
*cycle*). The loop in ``run.py`` repeats whole cycles; an operation's
``run()`` is the only timed call, and ``inspect()`` afterwards checks
its output and returns the record the simulated-statistics digest is
built from. Why each workload exists, and which layer it stresses, is
in ``README.md`` next to this file.
"""

from __future__ import annotations

import dataclasses
import json
import random
from typing import Any, Callable, Dict, List, Tuple

from tracing import SpanTracer

#: Pool workers for fleet-streamed; never more than the host has.
STREAMED_JOBS = 2


class Op:
    """One timed operation: ``run()`` does the work, ``inspect(result)``
    returns ``(work units, digest record, problems)`` untimed."""

    def __init__(self, label: str, run: Callable[[], Any],
                 inspect: Callable[[Any], Tuple[int, Any, List[str]]]):
        self.label = label
        self.run = run
        self.inspect = inspect


class Workload:
    name = ""
    unit = ""        # what one unit of ops_per_s is
    rate_name = ""   # the workload's own name for ops_per_s

    def __init__(self, seed: int, tracer: SpanTracer):
        self.seed = seed
        self.tracer = tracer
        self.rng = random.Random(f"{self.name}:{seed}")

    def setup(self) -> None:
        """Build inputs and warm up; the benchmark times this as setup."""

    def ops(self) -> List[Op]:
        raise NotImplementedError

    def post_checks(self) -> List[Tuple[str, List[str]]]:
        """Untimed checks run once after the timed cycles: (check name,
        problems found) pairs."""
        return []


def _canonical(obj: Any) -> Any:
    return json.loads(json.dumps(obj, sort_keys=True, default=repr))


# ---------------------------------------------------------------------------
# fleet-streamed
# ---------------------------------------------------------------------------


class FleetStreamed(Workload):
    """Closed loop of staged rollouts through ``ControlPlane`` on the
    resident pool, alternating a benign and a regressing update."""

    name = "fleet-streamed"
    unit = "devices"
    rate_name = "devices_per_s"
    devices = 16
    rollouts = 6
    waves = (0.25, 1.0)

    def setup(self) -> None:
        from repro.fleet.server import (FLEET_SPEC_REGRESSING, FLEET_SPEC_V2,
                                        FleetServer, RolloutPlan)

        self.server = FleetServer()
        self.specs = [FLEET_SPEC_V2, FLEET_SPEC_REGRESSING]
        self.plans = [RolloutPlan(waves=self.waves, runs=2, loss_rate=0.02,
                                  seed=self.rng.randrange(1 << 30))
                      for _ in range(self.rollouts)]
        warm = RolloutPlan(waves=self.waves, runs=2, loss_rate=0.02, seed=0)
        self._rollout(FLEET_SPEC_V2, warm, 4)

    def _rollout(self, spec: str, plan, n: int):
        from repro.fleet.control import ControlPlane

        plane = ControlPlane(self.server, plan=plan, jobs=STREAMED_JOBS)
        return plane, plane.run_rollout(spec, n)

    def ops(self) -> List[Op]:
        out = []
        for i, plan in enumerate(self.plans):
            benign = i % 2 == 0
            spec = self.specs[0 if benign else 1]
            out.append(Op(
                f"rollout:{i}",
                lambda spec=spec, plan=plan: self._rollout(spec, plan,
                                                           self.devices),
                lambda result, benign=benign, plan=plan:
                    self._inspect(result, benign, plan)))
        return out

    def _inspect(self, result, benign: bool, plan):
        plane, report = result
        problems = check_rollout(plane, report, benign, self.devices, plan)
        note_rollout(self.tracer, plane, report)
        record = {"report": report.to_dict(),
                  "ledger": [(e.index, e.devices, e.received,
                              e.regression_delta, e.decision,
                              e.rollback_devices) for e in plane.ledger]}
        return report.devices_attempted, _canonical(record), problems


def check_rollout(plane, report, benign: bool, n: int, plan) -> List[str]:
    """Benign updates complete every wave; regressing ones halt at the
    canary and roll back every canary that installed."""
    problems = []
    if benign:
        if report.halted or report.devices_attempted != n:
            problems.append(f"benign rollout halted at wave "
                            f"{report.halted_wave} after "
                            f"{report.devices_attempted}/{n} devices")
        if len(report.waves) != len(plan.waves):
            problems.append(f"benign rollout ran {len(report.waves)} of "
                            f"{len(plan.waves)} waves")
    else:
        installed = sum(1 for t in report.waves[0].telemetry if t.installed) \
            if report.waves else 0
        last = plane.ledger[-1] if plane.ledger else None
        if not report.halted or report.halted_wave != 0:
            problems.append(f"regressing rollout did not halt at the canary "
                            f"(halted_wave={report.halted_wave})")
        elif (last is None or last.decision != "halt" or installed < 1
              or last.rollback_devices != installed):
            problems.append(
                f"regressing rollout rolled back "
                f"{last.rollback_devices if last else None} of "
                f"{installed} installed canaries")
    return problems


def note_rollout(tracer: SpanTracer, plane, report) -> None:
    """Per-layer counters read from public rollout results."""
    if not tracer.enabled:
        return
    if report.summary is not None:
        tracer.add("ota.chunks_lost", report.summary.chunks_lost)
        tracer.add("ota.rollbacks", report.summary.rollbacks)
    for entry in plane.ledger:
        queue = entry.queue
        tracer.peak("control.queue_peak", queue.get("high_watermark", 0))
        tracer.add("control.queue_blocked", queue.get("blocked_puts", 0))
        tracer.add("control.dropped", queue.get("dropped", 0))
        if queue:
            tracer.add("control.wave_elapsed_s", entry.elapsed_s)


# ---------------------------------------------------------------------------
# fleet-lockstep
# ---------------------------------------------------------------------------


class FleetLockstep(Workload):
    """Lockstep rollouts of the benign update over a ~10**6-device
    ``per_cohort`` fleet, compact rollup, no pool. The fleet is large
    so that the fixed cost of one scalar representative per cohort is
    small beside the batch-kernel replay; one rollout is one cycle."""

    name = "fleet-lockstep"
    unit = "devices"
    rate_name = "devices_per_s"
    devices = 1_000_000
    rollouts = 1
    identity_devices = 16

    def _plan(self, seed: int, **extra):
        from repro.fleet.server import RolloutPlan

        return RolloutPlan(waves=(0.25, 1.0), runs=2, loss_rate=0.02,
                           seed=seed, lockstep=True, seed_mode="per_cohort",
                           **extra)

    def setup(self) -> None:
        from repro.fleet.server import FLEET_SPEC_V2, FleetServer

        self.server = FleetServer()
        self.spec = FLEET_SPEC_V2
        self.plans = [self._plan(self.rng.randrange(1 << 30), expand_limit=0)
                      for _ in range(self.rollouts)]
        self._rollout(self._plan(0, expand_limit=0), 1000)

    def _rollout(self, plan, n: int):
        from repro.fleet.control import ControlPlane

        plane = ControlPlane(self.server, plan=plan)
        return plane, plane.run_rollout(self.spec, n)

    def ops(self) -> List[Op]:
        return [Op(f"rollout:{i}",
                   lambda plan=plan: self._rollout(plan, self.devices),
                   lambda result, plan=plan: self._inspect(result, plan))
                for i, plan in enumerate(self.plans)]

    def _inspect(self, result, plan):
        plane, report = result
        problems = check_rollout(plane, report, True, self.devices, plan)
        if report.summary is None or report.summary.devices != self.devices:
            problems.append("lockstep summary does not cover every device")
        note_rollout(self.tracer, plane, report)
        return (report.devices_attempted, _canonical(report.to_dict()),
                problems)

    def post_checks(self) -> List[Tuple[str, List[str]]]:
        """A small fleet below ``expand_limit`` must give byte-identical
        reports through the lockstep and the streamed path."""
        from repro.fleet.control import ControlPlane

        seed = self.plans[0].seed
        reports = []
        for lockstep in (True, False):
            plan = self._plan(seed)
            if not lockstep:
                plan = dataclasses.replace(plan, lockstep=False)
            plane = ControlPlane(self.server, plan=plan, jobs=1)
            report = plane.run_rollout(self.spec, self.identity_devices)
            reports.append(json.dumps(report.to_dict(), sort_keys=True))
        problems = []
        if reports[0] != reports[1]:
            problems.append("lockstep and streamed reports differ for a "
                            f"{self.identity_devices}-device per_cohort "
                            "fleet")
        return [("lockstep-streamed identity", problems)]


# ---------------------------------------------------------------------------
# device-longhaul
# ---------------------------------------------------------------------------

#: The health app's paths, for the many-property spec generator.
HEALTH_PATHS = {1: ["bodyTemp", "calcAvg", "heartRate", "send"],
                2: ["accel", "classify", "send"],
                3: ["micSense", "filter", "send"]}


def many_property_spec(base: str, n_props: int, rng: random.Random) -> str:
    """``base`` plus ``n_props`` seeded ``temporal:`` properties over the
    health app: the five formula shapes in turn, over the three paths in
    turn, so every seed gets the same mix; the seed picks the task on
    the path. Each names its
    path explicitly (``send`` is a merge task) and is satisfied by
    in-order execution, so it adds monitoring work without changing
    control flow."""
    blocks: Dict[str, List[str]] = {}
    for i in range(n_props):
        path = 1 + (i // 5) % len(HEALTH_PATHS)
        names = HEALTH_PATHS[path]
        k = rng.randrange(1, len(names))
        task, prev, first = names[k], names[k - 1], names[0]
        kind = i % 5
        if kind == 0:
            formula, at = f"started({task}) -> once ended({prev})", "start"
        elif kind == 1:
            formula, at = f"once[0, 2h] ended({prev})", "start"
        elif kind == 2:
            formula, at = f"not ended({task}) since ended({prev})", "start"
        elif kind == 3:
            formula, at = f"once ended({prev}) and once ended({first})", "end"
        else:
            formula, at = "historically not data(avgTemp) > 1000", "end"
            task, path = "calcAvg", 1
        blocks.setdefault(task, []).append(
            f"    temporal: {formula} at: {at} label: q{i} "
            f"onFail: skipPath Path: {path};")
    extra = "\n".join(f"{task}: {{\n" + "\n".join(lines) + "\n}"
                      for task, lines in blocks.items())
    return base + "\n" + extra + "\n"


class DeviceLonghaul(Workload):
    """Single devices built once and run in loop mode: {continuous,
    two charging delays, two seeded RF-mobility traces} x {5-machine
    benchmark spec, seeded many-property spec}."""

    name = "device-longhaul"
    unit = "tasks"
    rate_name = "tasks_per_s"
    runs = 30
    properties = 40

    def setup(self) -> None:
        from repro.workloads import health

        self.health = health
        self.app = health.build_health_app()
        many = many_property_spec(health.BENCHMARK_SPEC, self.properties,
                                  self.rng)
        rf_seeds = [self.rng.randrange(1 << 30) for _ in range(2)]
        classes = [
            ("continuous", health.make_continuous_device),
            ("delay60", lambda: health.make_intermittent_device(60.0)),
            ("delay300", lambda: health.make_intermittent_device(300.0)),
        ] + [(f"rf:{seed}", lambda seed=seed: health.make_rf_device(seed=seed))
             for seed in rf_seeds]
        self.mix = [(f"{spec_name}/{cls}", spec, make)
                    for spec_name, spec in (("bench", health.BENCHMARK_SPEC),
                                            ("many", many))
                    for cls, make in classes]
        device = health.make_continuous_device()
        device.run(health.build_artemis(device, app=self.app, spec=many),
                   runs=2)

    def _device(self, spec: str, make):
        device = make()
        runtime = self.health.build_artemis(device, app=self.app, spec=spec)
        result = device.run(runtime, runs=self.runs, max_time_s=1e9,
                            max_reboots=10 ** 6)
        return device, result

    def ops(self) -> List[Op]:
        out = []
        for label, spec, make in self.mix:
            out.append(Op(label, lambda spec=spec, make=make:
                          self._device(spec, make), self._inspect))
        return out

    def _inspect(self, result):
        device, run = result
        problems = []
        if not run.completed or run.runs_completed != self.runs:
            problems.append(f"device finished {run.runs_completed}/"
                            f"{self.runs} runs")
        if device.nvm.used_bytes >= device.nvm.capacity_bytes:
            problems.append("device NVM full")
        tasks = device.trace.count("task_end")
        record = {"result": dataclasses.asdict(run), "tasks": tasks,
                  "nvm_writes": device.nvm.write_count,
                  "nvm_used": device.nvm.used_bytes}
        return tasks, _canonical(record), problems


# ---------------------------------------------------------------------------
# crash-conformance
# ---------------------------------------------------------------------------


class CrashConformance(Workload):
    """Bound-2 crash-schedule exploration with POR over the fixed ``ota``
    and ``temporal`` scenarios and seeded synthetic applications."""

    name = "crash-conformance"
    unit = "schedules"
    rate_name = "schedules_per_s"
    bound = 2
    budget = 5000
    #: Property kinds of the synthetic apps, one app per entry. The seed
    #: draws each app (task costs, which tasks carry the properties and
    #: their parameters) among those with exactly these kinds, so every
    #: seed explores the same property mix: exploration cost grows
    #: steeply with the number and kind of properties.
    synthetic_kinds = (("MaxTries",), ("MITD",), ("MaxTries", "MaxTries"),
                       ("Collect", "MaxTries"), ("MITD", "MaxTries"),
                       ("MaxTries",))

    def setup(self) -> None:
        from repro.verify.workloads import get_scenario

        self.scenarios = [("ota", lambda: get_scenario("ota", "artemis")
                           .explorer()),
                          ("temporal", lambda: get_scenario(
                              "temporal", "artemis").explorer())]
        for kinds in self.synthetic_kinds:
            seed = self._draw(kinds)
            self.scenarios.append(
                (f"synthetic:{seed}",
                 lambda seed=seed: self._synthetic(seed)))
        self._synthetic(self._draw(("MaxTries",))).explore(
            bound=1, budget=self.budget, stop_on_first=False, por=True)

    def _draw(self, kinds: Tuple[str, ...]) -> int:
        for _ in range(10_000):
            seed = self.rng.randrange(1 << 30)
            app, _power = self._app(seed)
            props = self._properties(app, seed)
            if tuple(sorted(type(p).__name__ for p in props)) == kinds:
                return seed
        raise RuntimeError(f"no synthetic app with properties {kinds}")

    @staticmethod
    def _app(seed: int):
        from repro.workloads.synthetic import synthetic_app

        return synthetic_app(n_paths=2, tasks_per_path=(2, 2), seed=seed)

    @staticmethod
    def _properties(app, seed: int):
        from repro.workloads.synthetic import synthetic_properties

        return synthetic_properties(app, density=0.5, seed=seed)

    def _synthetic(self, seed: int):
        from repro.core.runtime import ArtemisRuntime
        from repro.energy.environment import EnergyEnvironment
        from repro.sim.device import Device
        from repro.verify.explorer import CrashScheduleExplorer

        def build():
            app, power = self._app(seed)
            device = Device(EnergyEnvironment.continuous())
            return device, ArtemisRuntime(app, self._properties(app, seed),
                                          device, power)

        return CrashScheduleExplorer(build, name=f"synthetic-{seed}")

    def ops(self) -> List[Op]:
        out = []
        for label, make in self.scenarios:
            out.append(Op(label, lambda make=make: make().explore(
                bound=self.bound, budget=self.budget, stop_on_first=False,
                por=True), self._inspect))
        return out

    def _inspect(self, report):
        problems = []
        if not report.ok:
            problems.append(f"{report.scenario}: "
                            f"{len(report.counterexamples)} counterexamples")
        if report.truncated:
            problems.append(f"{report.scenario}: truncated by budget")
        record = {k: getattr(report, k) for k in (
            "scenario", "bound", "runs_executed", "schedules_checked",
            "baseline_payments", "depth1_crash_points", "truncated",
            "pruned_subtrees")}
        record["ok"] = report.ok
        return report.schedules_checked, record, problems


WORKLOADS: Dict[str, type] = {w.name: w for w in (
    FleetStreamed, FleetLockstep, DeviceLonghaul, CrashConformance)}
