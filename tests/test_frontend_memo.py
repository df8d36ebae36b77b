"""The front end's content-keyed memo tables (:mod:`repro.memo`).

Spec → properties, properties → plan, source → compiled class and spec
→ bundle are each remembered per process. These tests pin what makes
that safe: a warm table returns byte-for-byte what a cold one builds,
callers cannot poison it, failures are not remembered, keys carry every
fact the stage reads, and every table stays within its bound.
"""

import dataclasses
import json
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.generator import build_monitor_plan, generate_machine
from repro.core.actions import ActionType
from repro.core.properties import DpData, MaxTries
from repro.errors import SpecSyntaxError, SpecValidationError
from repro.fleet.bundle import build_bundle
from repro.fleet.server import (
    FLEET_SPEC_REGRESSING,
    FLEET_SPEC_V2,
    FleetServer,
    RolloutPlan,
)
from repro.memo import BoundedMemo, clear_memos, memo_tables
from repro.spec.validator import load_properties
from repro.statemachine import codegen_python
from repro.statemachine.codegen_python import (
    compile_machine,
    generate_python_source,
)
from repro.statemachine.model import Variable
from repro.taskgraph.builder import AppBuilder
from repro.workloads.health import BENCHMARK_SPEC, build_health_app
from tests.test_differential_monitors import any_property
from tests.test_tl_differential import _dedup, temporal_property

PLAN = RolloutPlan(runs=2, loss_rate=0.02, seed=7)

DEMO_SPEC = """
avg { collect: 2 dpTask: sense onFail: restartPath; }
send { MITD: 1min dpTask: avg onFail: restartPath maxAttempt: 2 onFail: skipPath; }
"""


def table(name):
    return next(t for t in memo_tables() if t.name == name)


@pytest.fixture(autouse=True)
def cold_tables():
    clear_memos()
    yield
    clear_memos()


def app(name="demo", avg_vars=("m",), merge_send=False):
    builder = (AppBuilder(name).task("sense")
               .task("avg", monitored_vars=avg_vars).task("send")
               .path(1, ["sense", "avg", "send"]))
    if merge_send:
        builder.path(2, ["sense", "send"])
    return builder.build()


def canonical(obj):
    return json.dumps(obj, sort_keys=True, default=repr)


def rollout_bytes():
    report = FleetServer().rollout(FLEET_SPEC_V2, 8, plan=PLAN, jobs=1)
    return canonical(report.to_dict())


def device_run(spec):
    """One provisioned fleet device taking an OTA update: exercises
    every stage, including the rebuild at activation."""
    server = FleetServer()
    wire = server.encode_update(spec, 2)
    device, runtime = server.build_device(1, wire, 2, PLAN)
    result = device.run(runtime, runs=2)
    return list(device.trace), dataclasses.asdict(result)


class TestColdEqualsWarm:
    def test_rollout_report(self):
        cold = rollout_bytes()
        assert len(table("bundle.bundles")) > 0
        assert rollout_bytes() == cold

    def test_bundle_wire_bytes(self):
        health = build_health_app()
        cold = (build_bundle(FLEET_SPEC_V2, health, 2).to_wire(),
                FleetServer().encode_update(FLEET_SPEC_REGRESSING, 3))
        warm = (build_bundle(FLEET_SPEC_V2, health, 2).to_wire(),
                FleetServer().encode_update(FLEET_SPEC_REGRESSING, 3))
        assert warm == cold
        assert build_bundle(FLEET_SPEC_V2, health, 2) is \
            build_bundle(FLEET_SPEC_V2, build_health_app(), 2)

    @pytest.mark.parametrize("spec", [FLEET_SPEC_V2, FLEET_SPEC_REGRESSING])
    def test_device_trace_and_result(self, spec):
        cold_trace, cold_result = device_run(spec)
        assert any(e.kind == "ota_switch" for e in cold_trace)
        warm_trace, warm_result = device_run(spec)
        assert warm_trace == cold_trace
        assert canonical(warm_result) == canonical(cold_result)

    def test_bundle_version_type_is_part_of_the_key(self):
        health = build_health_app()
        as_int = build_bundle(FLEET_SPEC_V2, health, 2).to_wire()
        as_float = build_bundle(FLEET_SPEC_V2, health, 2.0).to_wire()
        assert as_int != as_float


class TestCallersCannotPoison:
    def test_mutated_property_set(self):
        demo = app()
        first = load_properties(DEMO_SPEC, demo)
        expected = list(first)
        first.properties.clear()
        first.add(MaxTries(task="send", on_fail=ActionType.SKIP_PATH,
                           limit=9))
        assert list(load_properties(DEMO_SPEC, demo)) == expected

    def test_mutated_plan(self):
        props = list(load_properties(BENCHMARK_SPEC, build_health_app()))
        first = build_monitor_plan(props)
        names = [m.name for m in first.machines]
        owners = dict(first.prop_for_machine)
        first.machines.pop()
        first.prop_for_machine.clear()
        first.naive_monitors = -1
        second = build_monitor_plan(props)
        assert [m.name for m in second.machines] == names
        assert second.prop_for_machine == owners
        assert second.naive_monitors == len(props)

    def test_mutated_sub_owner_lists(self):
        spec = ("avg { temporal: once[0,5s] started(sense) onFail: "
                "skipTask; }\n"
                "send { temporal: once[0,5s] started(sense) onFail: "
                "skipTask; }\n")
        props = list(load_properties(spec, app()))
        first = build_monitor_plan(props)
        assert first.sub_owners
        sub, owners = next(iter(first.sub_owners.items()))
        expected = list(owners)
        owners.append("intruder")
        assert build_monitor_plan(props).sub_owners[sub] == expected

    def test_equal_but_differently_typed_properties_do_not_share(self):
        as_int = DpData(task="a", on_fail=ActionType.SKIP_TASK, var="v",
                        low=0, high=5)
        as_float = dataclasses.replace(as_int, low=0.0, high=5.0)
        assert as_int == as_float
        cold = [generate_python_source(generate_machine(p))
                for p in (as_int, as_float)]
        assert cold[0] != cold[1]
        for _ in range(2):
            warm = [
                generate_python_source(build_monitor_plan([p]).machines[0])
                for p in (as_int, as_float)]
            assert warm == cold

    def test_mutated_machine_recompiles(self):
        machine = generate_machine(
            MaxTries(task="a", on_fail=ActionType.SKIP_PATH, limit=3))
        before = compile_machine(machine)
        assert compile_machine(machine) is before
        machine.priority = 4
        assert compile_machine(machine).PRIORITY == 4
        machine.variables = [Variable("i", "int", 5)]
        instance = compile_machine(machine)(None, None)
        assert instance.get("i") == 5
        machine.priority = 0
        machine.variables = [Variable("i", "int", 0)]
        assert compile_machine(machine) is before


class TestErrorsAreNotCached:
    @pytest.mark.parametrize("spec,error", [
        ("nosuch { maxTries: 3 onFail: skipPath; }", SpecValidationError),
        ("avg { maxTries: onFail skipPath }", SpecSyntaxError),
    ])
    def test_same_diagnostic_twice(self, spec, error):
        demo = app()
        messages = []
        for _ in range(2):
            with pytest.raises(error) as exc:
                load_properties(spec, demo)
            messages.append(str(exc.value))
            with pytest.raises(error):
                build_bundle(spec, demo, 1)
        assert messages[0] == messages[1]
        assert len(table("spec.properties")) == 0
        assert len(table("bundle.bundles")) == 0


class TestKeysCarryAppFacts:
    def test_monitored_vars(self):
        spec = "avg { dpData: m Range: [0, 5] onFail: skipTask; }"
        assert len(load_properties(spec, app(avg_vars=("m",)))) == 1
        with pytest.raises(SpecValidationError, match="not declared"):
            load_properties(spec, app(avg_vars=()))
        with pytest.raises(SpecValidationError, match="not declared"):
            build_bundle(spec, app(avg_vars=()), 1)

    def test_paths(self):
        spec = "send { MITD: 10s dpTask: sense onFail: skipPath; }"
        assert len(load_properties(spec, app())) == 1
        with pytest.raises(SpecValidationError, match="multiple paths"):
            load_properties(spec, app(merge_send=True))

    def test_distinct_apps_get_distinct_entries(self):
        spec = "avg { maxTries: 3 onFail: skipPath; }"
        for facts in (app(), app(avg_vars=("m", "n")), app(merge_send=True),
                      app(name="other")):
            load_properties(spec, facts)
            build_bundle(spec, facts, 1)
        assert len(table("spec.properties")) == 4
        assert len(table("bundle.bundles")) == 4
        load_properties(spec, app())
        assert len(table("spec.properties")) == 4


def _drive(fixed, temporal, limit, version):
    for props in (fixed, _dedup(temporal)):
        for share in (True, False):
            plan = build_monitor_plan(props, share_subformulas=share)
            for machine in plan.machines:
                compile_machine(machine)
    spec = f"avg {{ maxTries: {limit} onFail: skipPath; }}"
    load_properties(spec, app())
    build_bundle(spec, app(), version)
    for memo in memo_tables():
        assert len(memo) <= memo.maxsize, memo


_generated = given(
    fixed=st.lists(any_property(), min_size=1, max_size=4),
    temporal=st.lists(temporal_property(), min_size=1, max_size=3),
    limit=st.integers(min_value=1, max_value=500),
    version=st.integers(min_value=1, max_value=500),
)


@settings(max_examples=40, deadline=None)
@_generated
def _drive_default(fixed, temporal, limit, version):
    _drive(fixed, temporal, limit, version)


@settings(max_examples=60, deadline=None)
@_generated
def _drive_small(fixed, temporal, limit, version):
    _drive(fixed, temporal, limit, version)


class TestBounds:
    def test_default_bounds_hold(self):
        _drive_default()
        assert all(len(m) > 0 for m in memo_tables())

    def test_eviction_under_small_bounds(self):
        saved = {m: m.maxsize for m in memo_tables()}
        try:
            for memo in saved:
                memo.maxsize = 3
            _drive_small()
            assert all(len(m) == 3 for m in saved)
        finally:
            for memo, size in saved.items():
                memo.maxsize = size


def test_concurrent_misses_build_once():
    memo = BoundedMemo("test.concurrent", 4)
    builds = []

    def build():
        builds.append(threading.get_ident())
        time.sleep(0.05)
        return "value"

    threads = [threading.Thread(target=memo.get_or_build,
                                args=("key", build)) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert len(builds) == 1
    assert memo.get("key") == "value"


def test_streamed_rollout_compiles_each_source_once(monkeypatch):
    sources = []

    def counting_compile(source, *args, **kwargs):
        sources.append(source)
        return compile(source, *args, **kwargs)

    monkeypatch.setattr(codegen_python, "compile", counting_compile,
                        raising=False)
    report = FleetServer().rollout(FLEET_SPEC_V2, 16, plan=PLAN, jobs=1)
    assert report.ok
    assert sources
    assert len(sources) == len(set(sources))

