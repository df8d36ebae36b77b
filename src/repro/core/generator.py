"""Model-to-model transformation: properties → state machines.

Implements the paper's generation templates (Figure 7). Each property
kind maps to one template; the output machines feed the interpreter, the
Python code generator (executable monitors) and the C code generator
(fidelity artifact + Table 2 sizing).

Extension recipe (§4.2.2): a new property needs (1) a builder in
:mod:`repro.spec.validator`, (2) a template function here registered in
``_TEMPLATES``, and (3) — if it observes a new runtime quantity — a
runtime probe publishing it as event data (as ``energyAtLeast`` does
with the capacitor level).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from repro.core.properties import (
    Collect,
    DpData,
    EnergyAtLeast,
    MITD,
    MaxDuration,
    MaxTries,
    Period,
    Property,
    PropertySet,
    Temporal,
)
from repro.errors import GenerationError
from repro.memo import BoundedMemo
from repro.tl.compile import compile_temporal
from repro.statemachine.model import (
    ANY_EVENT,
    END_TASK,
    START_TASK,
    Assign,
    BinOp,
    Const,
    EventField,
    EventPattern,
    Fail,
    StateMachine,
    Transition,
    Var,
    Variable,
)

_TS = EventField("timestamp")


def _fail(prop: Property, action_override=None) -> Fail:
    action = action_override if action_override is not None else prop.on_fail
    return Fail(action.value, prop.path)


# ---------------------------------------------------------------------------
# Templates (one per Figure 7 machine, plus period and the extension)
# ---------------------------------------------------------------------------


def _gen_max_tries(prop: MaxTries) -> StateMachine:
    """First machine of Figure 7: count start attempts of the task; at
    the limit, signal the failure action and reset."""
    name = prop.machine_name()
    a = prop.task
    return StateMachine(
        name,
        states=["NotStarted", "Started"],
        initial="NotStarted",
        variables=[Variable("i", "int", 0)],
        transitions=[
            Transition(
                "NotStarted", "Started", EventPattern(START_TASK, a),
                body=(Assign("i", Const(1)),),
            ),
            Transition(
                "Started", "Started", EventPattern(START_TASK, a),
                guard=BinOp("<", Var("i"), Const(prop.limit)),
                body=(Assign("i", BinOp("+", Var("i"), Const(1))),),
            ),
            Transition(
                "Started", "NotStarted", EventPattern(START_TASK, a),
                guard=BinOp(">=", Var("i"), Const(prop.limit)),
                body=(_fail(prop), Assign("i", Const(0))),
            ),
            Transition(
                "Started", "NotStarted", EventPattern(END_TASK, a),
                body=(Assign("i", Const(0)),),
            ),
        ],
    )


def _gen_max_duration(prop: MaxDuration) -> StateMachine:
    """Second machine of Figure 7: the task must end within D of its
    *first* start. Re-starts after power failures hit the implicit
    self-transition and do not refresh ``start`` — the §4.1.3
    timestamp-consistency rule."""
    name = prop.machine_name()
    a = prop.task
    elapsed = BinOp("-", _TS, Var("start"))
    return StateMachine(
        name,
        states=["NotStarted", "Started"],
        initial="NotStarted",
        variables=[Variable("start", "time", 0.0)],
        transitions=[
            Transition(
                "NotStarted", "Started", EventPattern(START_TASK, a),
                body=(Assign("start", _TS),),
            ),
            Transition(
                "Started", "NotStarted", EventPattern(END_TASK, a),
                guard=BinOp("<=", elapsed, Const(prop.limit_s)),
            ),
            Transition(
                "Started", "NotStarted", EventPattern(ANY_EVENT),
                guard=BinOp(">", elapsed, Const(prop.limit_s)),
                body=(_fail(prop),),
            ),
        ],
    )


def _gen_collect(prop: Collect) -> StateMachine:
    """Third machine of Figure 7: count completions of the dependency
    task; at the guarded task's start, the count must equal the target.

    Figure 7's literal example zeroes the counter on failure; the
    benchmark's Path #1 behaviour (§5.1: "ARTEMIS restarts the first
    path until enough samples are collected") requires the count to
    accumulate across path restarts, so accumulation is the default and
    ``reset_on_fail=True`` reproduces the figure exactly.

    The collected count is *consumed* when the guarded task completes
    (``endTask a``), not when its start check passes. A passing start
    check is re-announced if a power failure interrupts the task before
    its commit — consuming on the pass would make the re-announced
    check fail against the already-zeroed counter and restart the path
    spuriously, an intermittent execution no continuous run exhibits
    (the conformance checker in :mod:`repro.verify` finds exactly this
    divergence when consumption is moved back to the start check).
    """
    name = prop.machine_name()
    a, b = prop.task, prop.dep_task
    fail_body = [_fail(prop)]
    if prop.reset_on_fail:
        fail_body.append(Assign("i", Const(0)))
    return StateMachine(
        name,
        states=["Counting"],
        initial="Counting",
        variables=[Variable("i", "int", 0)],
        transitions=[
            Transition(
                "Counting", "Counting", EventPattern(END_TASK, b),
                body=(Assign("i", BinOp("+", Var("i"), Const(1))),),
            ),
            Transition(
                "Counting", "Counting", EventPattern(START_TASK, a),
                guard=BinOp(">=", Var("i"), Const(prop.count)),
            ),
            Transition(
                "Counting", "Counting", EventPattern(START_TASK, a),
                guard=BinOp("<", Var("i"), Const(prop.count)),
                body=tuple(fail_body),
            ),
            Transition(
                "Counting", "Counting", EventPattern(END_TASK, a),
                body=(Assign("i", Const(0)),),
            ),
        ],
    )


def _gen_mitd(prop: MITD) -> StateMachine:
    """Fourth machine of Figure 7: the guarded task must start within D
    of the dependency task's completion; ``maxAttempt`` consecutive
    violations escalate to the stronger action (the non-termination
    escape evaluated in §5.2)."""
    name = prop.machine_name()
    a, b = prop.task, prop.dep_task
    late = BinOp(">", BinOp("-", _TS, Var("endB")), Const(prop.limit_s))
    on_time = BinOp("<=", BinOp("-", _TS, Var("endB")), Const(prop.limit_s))
    variables = [Variable("endB", "time", 0.0)]
    transitions = [
        Transition(
            "WaitEndB", "WaitStartA", EventPattern(END_TASK, b),
            body=(Assign("endB", _TS),),
        ),
        # The dependency may complete again before A starts (path
        # restarts re-run it); refresh the reference timestamp.
        Transition(
            "WaitStartA", "WaitStartA", EventPattern(END_TASK, b),
            body=(Assign("endB", _TS),),
        ),
    ]
    if prop.max_attempt is None:
        transitions.extend(
            [
                # A's completion satisfies the constraint for this cycle.
                Transition("WaitStartA", "WaitEndB", EventPattern(END_TASK, a)),
                # The machine stays in WaitStartA through on-time *starts*
                # so that a re-execution attempt after a power failure is
                # checked again — that re-check is precisely how the §5.2
                # charging-delay violations are detected.
                Transition(
                    "WaitStartA", "WaitStartA", EventPattern(START_TASK, a),
                    guard=on_time,
                ),
                Transition(
                    "WaitStartA", "WaitEndB", EventPattern(START_TASK, a),
                    guard=late,
                    body=(_fail(prop),),
                ),
            ]
        )
    else:
        variables.append(Variable("att", "int", 0))
        transitions.extend(
            [
                # Only *completing* A inside the window ends the violation
                # streak: an on-time start that later dies to a power
                # failure must keep counting, or the escape hatch would
                # never trigger (each restarted path begins with a fresh,
                # on-time start before the long outage hits).
                Transition(
                    "WaitStartA", "WaitEndB", EventPattern(END_TASK, a),
                    body=(Assign("att", Const(0)),),
                ),
                Transition(
                    "WaitStartA", "WaitStartA", EventPattern(START_TASK, a),
                    guard=on_time,
                ),
                Transition(
                    "WaitStartA", "WaitStartA", EventPattern(START_TASK, a),
                    guard=BinOp(
                        "and", late, BinOp("<", Var("att"), Const(prop.max_attempt - 1))
                    ),
                    body=(
                        Assign("att", BinOp("+", Var("att"), Const(1))),
                        _fail(prop),
                    ),
                ),
                Transition(
                    "WaitStartA", "WaitEndB", EventPattern(START_TASK, a),
                    guard=BinOp(
                        "and", late, BinOp(">=", Var("att"), Const(prop.max_attempt - 1))
                    ),
                    body=(
                        Assign("att", Const(0)),
                        _fail(prop, prop.max_attempt_action),
                    ),
                ),
            ]
        )
    return StateMachine(
        name,
        states=["WaitEndB", "WaitStartA"],
        initial="WaitEndB",
        variables=variables,
        transitions=transitions,
    )


def _gen_dp_data(prop: DpData) -> StateMachine:
    """Range check on dependent output data carried by EndTask events
    (Figure 5 line 14)."""
    name = prop.machine_name()
    value = EventField(f"data.{prop.var}")
    out_of_range = BinOp(
        "or",
        BinOp("<", value, Const(prop.low)),
        BinOp(">", value, Const(prop.high)),
    )
    return StateMachine(
        name,
        states=["Watching"],
        initial="Watching",
        transitions=[
            Transition(
                "Watching", "Watching", EventPattern(END_TASK, prop.task),
                guard=out_of_range,
                body=(_fail(prop),),
            ),
        ],
    )


def _gen_period(prop: Period) -> StateMachine:
    """Consecutive starts of the task must be no more than
    ``period + jitter`` apart."""
    name = prop.machine_name()
    a = prop.task
    bound = prop.period_s + prop.jitter_s
    gap = BinOp("-", _TS, Var("last"))
    late = BinOp(">", gap, Const(bound))
    on_time = BinOp("<=", gap, Const(bound))
    variables = [Variable("last", "time", 0.0)]
    transitions = [
        Transition(
            "First", "Running", EventPattern(START_TASK, a),
            body=(Assign("last", _TS),),
        ),
    ]
    if prop.max_attempt is None:
        transitions.extend(
            [
                Transition(
                    "Running", "Running", EventPattern(START_TASK, a),
                    guard=on_time,
                    body=(Assign("last", _TS),),
                ),
                Transition(
                    "Running", "Running", EventPattern(START_TASK, a),
                    guard=late,
                    body=(_fail(prop), Assign("last", _TS)),
                ),
            ]
        )
    else:
        variables.append(Variable("att", "int", 0))
        transitions.extend(
            [
                Transition(
                    "Running", "Running", EventPattern(START_TASK, a),
                    guard=on_time,
                    body=(Assign("att", Const(0)), Assign("last", _TS)),
                ),
                Transition(
                    "Running", "Running", EventPattern(START_TASK, a),
                    guard=BinOp(
                        "and", late, BinOp("<", Var("att"), Const(prop.max_attempt - 1))
                    ),
                    body=(
                        Assign("att", BinOp("+", Var("att"), Const(1))),
                        _fail(prop),
                        Assign("last", _TS),
                    ),
                ),
                Transition(
                    "Running", "Running", EventPattern(START_TASK, a),
                    guard=BinOp(
                        "and", late, BinOp(">=", Var("att"), Const(prop.max_attempt - 1))
                    ),
                    body=(
                        Assign("att", Const(0)),
                        _fail(prop, prop.max_attempt_action),
                        Assign("last", _TS),
                    ),
                ),
            ]
        )
    return StateMachine(
        name,
        states=["First", "Running"],
        initial="First",
        variables=variables,
        transitions=transitions,
    )


def _gen_energy(prop: EnergyAtLeast) -> StateMachine:
    """§4.2.2 extension: the runtime publishes the capacitor level as
    ``data.energy`` on StartTask events; below the threshold, fail."""
    name = prop.machine_name()
    return StateMachine(
        name,
        states=["Watching"],
        initial="Watching",
        transitions=[
            Transition(
                "Watching", "Watching", EventPattern(START_TASK, prop.task),
                guard=BinOp("<", EventField("data.energy"), Const(prop.min_energy_j)),
                body=(_fail(prop),),
            ),
        ],
    )


_TEMPLATES: Dict[type, Callable[[Property], StateMachine]] = {
    MaxTries: _gen_max_tries,
    MaxDuration: _gen_max_duration,
    Collect: _gen_collect,
    MITD: _gen_mitd,
    DpData: _gen_dp_data,
    Period: _gen_period,
    EnergyAtLeast: _gen_energy,
}


def _scope_to_path(machine: StateMachine, prop: Property) -> StateMachine:
    """Confine a path-scoped property (``Path: N``) to its path.

    Merge-point tasks like ``send`` appear on several paths; a property
    declared with an explicit path must ignore the task's events on any
    other path. Every transition triggered by the guarded task gets an
    ``event.path == N`` conjunct; other-path events then fall to the
    implicit self-transition. Transitions on the *dependency* task are
    left alone — counting is path-agnostic.
    """
    if prop.path is None:
        return machine
    path_check = BinOp("==", EventField("path"), Const(prop.path))
    transitions = []
    for t in machine.transitions:
        if t.trigger.task == prop.task:
            guard = path_check if t.guard is None else BinOp("and", path_check, t.guard)
            t = Transition(t.source, t.target, t.trigger, guard, t.body)
        transitions.append(t)
    return StateMachine(
        machine.name, machine.states, machine.initial, machine.variables, transitions,
        priority=machine.priority,
    )


def generate_machine(prop: Property) -> StateMachine:
    """Transform one property into its state machine."""
    if isinstance(prop, Temporal):
        raise GenerationError(
            "temporal properties compile in batches (sub-monitors are "
            "shared across properties) — use build_monitor_plan or "
            "generate_machines"
        )
    template = _TEMPLATES.get(type(prop))
    if template is None:
        raise GenerationError(f"no template for property type {type(prop).__name__}")
    machine = _scope_to_path(template(prop), prop)
    # The degradation priority is a property attribute, not part of any
    # template's logic, so it is stamped on generically here.
    machine.priority = int(prop.priority)
    return machine


@dataclass
class MonitorPlan:
    """Machines for a whole property set, plus the wiring metadata the
    monitor, the energy analysis, and the ``compile`` CLI need.

    ``machines`` is in execution order: shared temporal sub-monitors
    first (dependency order — a machine precedes everything that reads
    it through ``extern``), then one machine per property in
    declaration order. ``prop_for_machine`` covers exactly the property
    machines; sub-monitors appear only in ``sub_owners``, which maps
    each to the property machines it serves.
    """

    machines: List[StateMachine] = field(default_factory=list)
    prop_for_machine: Dict[str, Property] = field(default_factory=dict)
    sub_owners: Dict[str, List[str]] = field(default_factory=dict)
    #: Machines a per-property (no sharing) compilation would emit.
    naive_monitors: int = 0

    @property
    def shared_monitors(self) -> int:
        return len(self.machines)

    def prop_for(self, machine_name: str) -> Optional[Property]:
        return self.prop_for_machine.get(machine_name)


#: Plans by (property tuple, sharing flag), with the properties they
#: were built from.
_PLANS = BoundedMemo("generator.plans", 64)


def build_monitor_plan(
    props: Iterable[Property], share_subformulas: bool = True
) -> MonitorPlan:
    """Generate all machines for a property set.

    Temporal properties are compiled together so structurally equal
    subformulas share one sub-monitor (disable with
    ``share_subformulas=False`` to measure the sharing win); the six
    fixed kinds keep their one-property-one-machine templates.

    Memoized by the property tuple and the sharing flag: every caller
    gets a fresh :class:`MonitorPlan` over the same machines.
    """
    prop_list = tuple(props)
    cached, plan = _PLANS.get_or_build(
        (prop_list, bool(share_subformulas)),
        lambda: (prop_list, _build_plan(prop_list, share_subformulas)))
    if not _same_properties(cached, prop_list):
        return _build_plan(prop_list, share_subformulas)
    return MonitorPlan(
        machines=list(plan.machines),
        prop_for_machine=dict(plan.prop_for_machine),
        sub_owners={name: list(owners)
                    for name, owners in plan.sub_owners.items()},
        naive_monitors=plan.naive_monitors,
    )


def _same_properties(cached: tuple, props: tuple) -> bool:
    """Whether equal property tuples are also equal to the letter.

    Dataclass equality says ``0 == 0.0`` and ignores formula source
    positions, but a constant's type shows in the generated machines,
    so an equal tuple only hits when every property is the cached object
    or prints the same; otherwise the plan is built afresh, uncached.
    """
    return all(a is b or repr(a) == repr(b) for a, b in zip(cached, props))


def _build_plan(prop_list: tuple, share_subformulas: bool) -> MonitorPlan:
    temporals = [p for p in prop_list if isinstance(p, Temporal)]
    plan = MonitorPlan()
    roots: Dict[str, StateMachine] = {}
    if temporals:
        comp = compile_temporal(temporals, share=share_subformulas)
        plan.machines.extend(comp.sub_machines)
        plan.sub_owners = comp.sub_owners
        plan.naive_monitors += comp.dag.naive_stateful
        roots = {m.name: m for m in comp.root_machines}
    for prop in prop_list:
        machine = roots[prop.machine_name()] if isinstance(prop, Temporal) \
            else generate_machine(prop)
        plan.machines.append(machine)
        plan.prop_for_machine[machine.name] = prop
        plan.naive_monitors += 1
    return plan


def generate_machines(props: Iterable[Property]) -> List[StateMachine]:
    """Transform a property set (one machine per property, §3.3 — plus
    shared sub-monitors when temporal properties are present)."""
    return build_monitor_plan(props).machines
