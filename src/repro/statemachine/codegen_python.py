"""Model-to-text backend: generate Python monitor classes.

This is the executable leg of the paper's generation pipeline. Rather
than interpreting the machine at runtime, we *emit source code* for a
monitor class and compile it with :func:`compile`/``exec`` — the Python
analogue of the paper's generated C monitors. The generated class has the
same interface as :class:`~repro.statemachine.interpreter.MachineInstance`
(``reset``, ``on_event``, ``state``, ``get``) so the two are
differential-testable.
"""

from __future__ import annotations

import functools
import operator
from typing import Any, Dict, MutableMapping, Optional, Type

from repro.errors import GenerationError, StateMachineError
from repro.memo import BoundedMemo
from repro.statemachine.interpreter import Verdict, _apply
from repro.statemachine.model import (
    ANY_EVENT,
    Assign,
    BinOp,
    Const,
    EventField,
    EventIs,
    EventPattern,
    Expr,
    ExternRef,
    Fail,
    HasData,
    If,
    Not,
    StateMachine,
    Stmt,
    Var,
)


def _gen_expr(expr: Expr, value: bool = False) -> str:
    """Python text for ``expr``. ``value`` marks a position whose value
    is used, not just its truth (an assignment's right-hand side or an
    operand of arithmetic or a comparison): there ``and``/``or`` must
    yield a bool, as in the interpreter, not one of their operands."""
    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, Var):
        return f"self._store['var.{expr.name}']"
    if isinstance(expr, EventField):
        if expr.field == "timestamp":
            return "event.timestamp"
        if expr.field == "task":
            return "event.task"
        if expr.field == "path":
            return "getattr(event, 'path', 0)"
        if expr.field.startswith("data."):
            key = expr.field[len("data."):]
            return f"self._data(event, {key!r})"
        raise GenerationError(f"unknown event field {expr.field!r}")
    if isinstance(expr, EventIs):
        cond = f"event.kind == {expr.kind!r}"
        if expr.task is not None:
            cond += f" and event.task == {expr.task!r}"
        return f"({cond})"
    if isinstance(expr, HasData):
        return f"({expr.key!r} in (getattr(event, 'data', None) or {{}}))"
    if isinstance(expr, ExternRef):
        return f"self._extern({expr.machine!r}, {expr.var!r})"
    if isinstance(expr, Not):
        return f"(not {_gen_expr(expr.operand)})"
    if isinstance(expr, BinOp):
        if expr.op in ("and", "or"):
            text = f"{_gen_expr(expr.left)} {expr.op} {_gen_expr(expr.right)}"
            return f"bool({text})" if value else f"({text})"
        left = _gen_expr(expr.left, value=True)
        right = _gen_expr(expr.right, value=True)
        if expr.op == "/":
            return f"_div({left}, {right})"
        return f"({left} {expr.op} {right})"
    raise GenerationError(f"cannot generate expression {expr!r}")


def _gen_stmt(stmt: Stmt, indent: str) -> list:
    if isinstance(stmt, Assign):
        return [f"{indent}self._store['var.{stmt.var}'] = "
                f"{_gen_expr(stmt.expr, value=True)}"]
    if isinstance(stmt, Fail):
        return [
            f"{indent}verdicts.append(Verdict(self.MACHINE_NAME, "
            f"{stmt.action!r}, {stmt.path!r}))"
        ]
    if isinstance(stmt, If):
        lines = [f"{indent}if {_gen_expr(stmt.cond)}:"]
        body = [ln for s in stmt.then for ln in _gen_stmt(s, indent + "    ")]
        lines.extend(body or [f"{indent}    pass"])
        if stmt.orelse:
            lines.append(f"{indent}else:")
            lines.extend(ln for s in stmt.orelse for ln in _gen_stmt(s, indent + "    "))
        return lines
    raise GenerationError(f"cannot generate statement {stmt!r}")


def _gen_trigger_cond(trigger: EventPattern) -> str:
    conds = []
    if trigger.kind != ANY_EVENT:
        conds.append(f"event.kind == {trigger.kind!r}")
    if trigger.task is not None:
        conds.append(f"event.task == {trigger.task!r}")
    return " and ".join(conds) if conds else "True"


def generate_python_source(machine: StateMachine) -> str:
    """Emit Python source text for a monitor class for ``machine``."""
    cls = class_name(machine)
    lines = [
        f"class {cls}:",
        f"    '''Generated monitor for state machine {machine.name!r}.'''",
        "",
        f"    MACHINE_NAME = {machine.name!r}",
        f"    STATES = {tuple(machine.states)!r}",
        f"    PRIORITY = {machine.priority!r}",
        "",
        "    def __init__(self, store=None, extern=None):",
        "        self._store = store if store is not None else {}",
        "        self._extern_resolver = extern",
        "        if 'state' not in self._store:",
        "            self.reset()",
        "",
        "    def reset(self):",
        f"        self._store['state'] = {machine.initial!r}",
    ]
    for v in machine.variables:
        lines.append(f"        self._store['var.{v.name}'] = {v.initial_value!r}")
    lines.extend(
        [
            "",
            "    @property",
            "    def state(self):",
            "        return self._store['state']",
            "",
            "    def get(self, name):",
            "        return self._store['var.' + name]",
            "",
            "    def _extern(self, machine, var):",
            "        if self._extern_resolver is None:",
            "            raise StateMachineError(",
            "                'extern read %s.%s without a resolver'",
            "                % (machine, var))",
            "        return self._extern_resolver(machine, var)",
            "",
            "    @staticmethod",
            "    def _data(event, key):",
            "        data = getattr(event, 'data', None) or {}",
            "        if key not in data:",
            "            raise StateMachineError(",
            "                'event carries no dependent data %r' % (key,))",
            "        return data[key]",
            "",
            "    def on_event(self, event):",
            "        verdicts = []",
            "        state = self._store['state']",
        ]
    )
    first = True
    for state in machine.states:
        kw = "if" if first else "elif"
        first = False
        lines.append(f"        {kw} state == {state!r}:")
        transitions = machine.transitions_from(state)
        if not transitions:
            lines.append("            pass")
            continue
        for t in transitions:
            cond = _gen_trigger_cond(t.trigger)
            if t.guard is not None:
                cond = f"({cond}) and ({_gen_expr(t.guard)})"
            lines.append(f"            if {cond}:")
            for stmt in t.body:
                lines.extend(_gen_stmt(stmt, "                "))
            lines.append(f"                self._store['state'] = {t.target!r}")
            lines.append("                return verdicts")
    lines.append("        return verdicts")
    lines.append("")
    return "\n".join(lines) + "\n"


def class_name(machine: StateMachine) -> str:
    """Name of the generated monitor class for a machine."""
    return f"Monitor_{machine.name}"


#: Compiled monitor classes by generated source text.
_CLASSES = BoundedMemo("codegen.classes", 512)

#: Identity fast path: ``id(machine) -> (machine, shape, class)`` skips
#: regenerating the source of a machine compiled before and unchanged
#: since. The entry holds the machine, so its id cannot be reused.
_BY_MACHINE = BoundedMemo("codegen.machines", 1024)


def _shape(machine: StateMachine) -> tuple:
    """Everything :func:`generate_python_source` reads from ``machine``,
    flattened. The parts are strings, ints and frozen model nodes, so
    an element-wise identical shape means an identical source."""
    parts = [machine.name, machine.initial, machine.priority,
             len(machine.states), *machine.states,
             len(machine.variables), *machine.variables]
    for state in machine.states:
        transitions = machine.transitions_from(state)
        parts.append(len(transitions))
        parts.extend(transitions)
    return tuple(parts)


def compile_machine(machine: StateMachine) -> Type:
    """Generate, compile, and return the monitor class for ``machine``.

    Each distinct source is compiled once per process; machines that
    generate the same source share one class.
    """
    shape = _shape(machine)
    entry = _BY_MACHINE.get(id(machine))
    if (entry is not None and entry[0] is machine
            and len(entry[1]) == len(shape)
            and all(map(operator.is_, entry[1], shape))):
        return entry[2]
    source = generate_python_source(machine)
    cls = _CLASSES.get_or_build(source, lambda: _compile(source, machine))
    _BY_MACHINE.put(id(machine), (machine, shape, cls))
    return cls


def _compile(source: str, machine: StateMachine) -> Type:
    namespace: Dict[str, Any] = {
        "Verdict": Verdict,
        "StateMachineError": StateMachineError,
        "_div": functools.partial(_apply, "/"),
    }
    code = compile(source, filename=f"<generated monitor {machine.name}>",
                   mode="exec")
    exec(code, namespace)  # noqa: S102 - executing our own generated code
    return namespace[class_name(machine)]


def instantiate(machine: StateMachine,
                store: Optional[MutableMapping[str, Any]] = None,
                extern: Optional[Any] = None):
    """Convenience: compile and construct a monitor in one call."""
    return compile_machine(machine)(store, extern)
