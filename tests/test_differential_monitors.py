"""Differential testing of generated monitors against the interpreter.

``tests/test_codegen.py`` pins seven hand-picked properties and fuzzes
the event stream. This module randomises the *property configurations*
as well: hypothesis draws a property of a random kind with random
parameters (limits, ranges, paths, escalation settings), the machine is
generated from it, and a seeded random event sequence drives the
reference interpreter and the generated Python monitor side by side.
After every event the two must agree on emitted verdicts, current
state, and every persistent variable.

The event streams come from ``random.Random(seed)`` with the seed drawn
by hypothesis, so a failure report ("seed=1234, length=40") is enough
to replay the exact sequence outside hypothesis.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.actions import ActionType
from repro.core.events import MonitorEvent
from repro.core.generator import generate_machine, generate_machines
from repro.core.properties import (
    Collect,
    DpData,
    EnergyAtLeast,
    MaxDuration,
    MaxTries,
    MITD,
    Period,
)
from repro.statemachine.codegen_python import compile_machine
from repro.statemachine.interpreter import MachineInstance
from repro.statemachine.textual import parse_machine

TASKS = ["A", "B", "C"]
DATA_VAR = "v"  # the one dependent-data variable dpData properties watch

_tasks = st.sampled_from(TASKS)
_actions = st.sampled_from(list(ActionType))
_paths = st.one_of(st.none(), st.integers(min_value=0, max_value=3))
_durations = st.floats(min_value=0.25, max_value=30.0, allow_nan=False)

#: (max_attempt, max_attempt_action) — either both absent or both set,
#: matching the property invariant.
_escalation = st.one_of(
    st.tuples(st.none(), st.none()),
    st.tuples(st.integers(min_value=1, max_value=4), _actions),
)


def _common():
    return {"task": _tasks, "on_fail": _actions, "path": _paths,
            "priority": st.integers(min_value=0, max_value=3)}


@st.composite
def _mitd(draw):
    attempts, action = draw(_escalation)
    return MITD(dep_task=draw(_tasks), limit_s=draw(_durations),
                max_attempt=attempts, max_attempt_action=action,
                **{k: draw(v) for k, v in _common().items()})


@st.composite
def _period(draw):
    attempts, action = draw(_escalation)
    return Period(period_s=draw(_durations),
                  jitter_s=draw(st.floats(min_value=0.0, max_value=5.0,
                                          allow_nan=False)),
                  max_attempt=attempts, max_attempt_action=action,
                  **{k: draw(v) for k, v in _common().items()})


@st.composite
def _dp_data(draw):
    low = draw(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
    width = draw(st.floats(min_value=0.0, max_value=4.0, allow_nan=False))
    return DpData(var=DATA_VAR, low=low, high=low + width,
                  **{k: draw(v) for k, v in _common().items()})


def any_property():
    """A random property of any of the seven kinds, valid by
    construction (the dataclass invariants accept every draw)."""
    return st.one_of(
        st.builds(MaxTries, limit=st.integers(min_value=1, max_value=6),
                  **_common()),
        st.builds(MaxDuration, limit_s=_durations, **_common()),
        st.builds(Collect, dep_task=_tasks,
                  count=st.integers(min_value=1, max_value=5),
                  reset_on_fail=st.booleans(), **_common()),
        _mitd(),
        _dp_data(),
        _period(),
        st.builds(EnergyAtLeast,
                  min_energy_j=st.floats(min_value=1e-6, max_value=1.0,
                                         allow_nan=False),
                  **_common()),
    )


def make_stream(seed, length):
    """A seeded random event sequence with nondecreasing timestamps.

    Every event carries the dpData variable and an energy reading so
    no guard can fault on missing dependent data.
    """
    rng = random.Random(seed)
    t = 0.0
    events = []
    for _ in range(length):
        t += rng.uniform(0.0, 8.0)
        events.append(MonitorEvent(
            rng.choice(["startTask", "endTask"]),
            rng.choice(TASKS),
            t,
            {DATA_VAR: rng.uniform(-4.0, 4.0),
             "energy": rng.uniform(0.0, 1.0)},
            path=rng.randrange(4),
        ))
    return events


#: ``and``/``or`` in value position: Python's ``or`` returns an operand
#: (``1``), the IL's returns a bool (``True``).
BOOL_VALUE_MACHINE = parse_machine("""
machine boolValue {
  var n: int = 0;
  var b: bool = false;
  initial S;
  state S {
    on anyEvent -> S / { n := n + 1; b := n or false; }
  }
}
""")


def same_value(a, b):
    """Equal and of one type: ``1 == True`` holds, but a monitor that
    stores ``1`` where the interpreter stores ``True`` has diverged."""
    return type(a) is type(b) and a == b


def assert_lockstep(machine, interpreted, generated, events):
    """Feed ``events`` to both instances, asserting agreement on
    verdicts, state, and every variable after each one."""
    for i, event in enumerate(events):
        v_int = interpreted.on_event(event)
        v_gen = generated.on_event(event)
        assert ([(v.machine, v.action, v.path) for v in v_int]
                == [(v.machine, v.action, v.path) for v in v_gen]), (
            f"verdicts diverge at event {i}: {event}"
        )
        assert interpreted.state == generated.state, (
            f"states diverge at event {i}: {event}"
        )
        for var in machine.variables:
            assert same_value(interpreted.get(var.name),
                              generated.get(var.name)), (
                f"variable {var.name!r} diverges at event {i}: {event}"
            )


class TestRandomPropertyAgreement:
    @given(prop=any_property(),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           length=st.integers(min_value=0, max_value=50))
    @settings(max_examples=150, deadline=None)
    def test_interpreter_and_generated_agree(self, prop, seed, length):
        machine = generate_machine(prop)
        interpreted = MachineInstance(machine)
        generated = compile_machine(machine)()
        assert_lockstep(machine, interpreted, generated,
                        make_stream(seed, length))

    @given(prop=any_property(),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_agreement_survives_midstream_reset(self, prop, seed):
        """resetMonitor can fire at any point (path restart); both
        implementations must re-initialise to the same place."""
        machine = generate_machine(prop)
        interpreted = MachineInstance(machine)
        generated = compile_machine(machine)()
        first, second = make_stream(seed, 20), make_stream(seed + 1, 20)
        assert_lockstep(machine, interpreted, generated, first)
        interpreted.reset()
        generated.reset()
        assert interpreted.state == generated.state == machine.initial
        assert_lockstep(machine, interpreted, generated, second)

    @given(prop=any_property(),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           cut=st.integers(min_value=0, max_value=30))
    @settings(max_examples=60, deadline=None)
    def test_agreement_survives_store_revival(self, prop, seed, cut):
        """Power-failure differential: run part of the stream, rebuild
        both monitors from their persisted stores (the paper's reboot),
        and continue. The revived pair must still agree."""
        machine = generate_machine(prop)
        store_int, store_gen = {}, {}
        interpreted = MachineInstance(machine, store_int)
        generated = compile_machine(machine)(store_gen)
        events = make_stream(seed, 30)
        assert_lockstep(machine, interpreted, generated, events[:cut])
        revived_int = MachineInstance(machine, store_int)
        revived_gen = compile_machine(machine)(store_gen)
        assert revived_int.state == revived_gen.state
        assert_lockstep(machine, revived_int, revived_gen, events[cut:])


class TestRandomPropertySetAgreement:
    @given(props=st.lists(any_property(), min_size=1, max_size=5),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_whole_property_set_agrees(self, props, seed):
        """generate_machines over a random spec, plus
        :data:`BOOL_VALUE_MACHINE`: every machine's interpreter/generated
        pair stays in agreement on one shared event stream (the monitor
        arbiter's view)."""
        machines = generate_machines(props) + [BOOL_VALUE_MACHINE]
        pairs = [(m, MachineInstance(m), compile_machine(m)())
                 for m in machines]
        for event in make_stream(seed, 40):
            for machine, interpreted, generated in pairs:
                v_int = interpreted.on_event(event)
                v_gen = generated.on_event(event)
                assert ([(v.action, v.path) for v in v_int]
                        == [(v.action, v.path) for v in v_gen])
                assert interpreted.state == generated.state
                for var in machine.variables:
                    assert same_value(interpreted.get(var.name),
                                      generated.get(var.name))


def test_replay_outside_hypothesis():
    """The seed-based stream is reproducible without hypothesis: the
    documented replay recipe in docs/performance.md relies on it."""
    assert make_stream(1234, 10) == make_stream(1234, 10)
    assert make_stream(1234, 10) != make_stream(1235, 10)
