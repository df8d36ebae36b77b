"""Model-to-text backend: generate MSP430-style C monitor code.

Mirrors the paper's implementation (§4.2, Figure 10): each machine
becomes a persistent variable block placed in FRAM plus a step function
wrapped in ImmortalThreads' ``_begin``/``_end`` macros so the monitor
survives power failures mid-event. The output is compilable-looking C
text; this reproduction uses it for artifact fidelity and for the
Table 2 memory accounting (:mod:`repro.memsize`), not for execution.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import GenerationError
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

#: C type used for each intermediate-language variable type (MSP430 ABI).
C_TYPES: Dict[str, str] = {
    "int": "int32_t",
    "bool": "uint8_t",
    "float": "float",
    "time": "uint64_t",
}

#: Sizes (bytes) of those C types on MSP430 — used by repro.memsize.
C_TYPE_SIZES: Dict[str, int] = {
    "int32_t": 4,
    "uint8_t": 1,
    "float": 4,
    "uint64_t": 8,
    "uint16_t": 2,
}

HEADER = """\
/* Generated by the ARTEMIS monitor generator. DO NOT EDIT. */
#include <stdint.h>
#include "artemis/monitor.h"
#include "immortal/immortal.h"
"""


def _c_expr(expr: Expr, machine: StateMachine) -> str:
    if isinstance(expr, Const):
        if expr.value is True:
            return "1"
        if expr.value is False:
            return "0"
        return repr(expr.value)
    if isinstance(expr, Var):
        return f"{_vars_struct(machine)}.{expr.name}"
    if isinstance(expr, EventField):
        if expr.field == "timestamp":
            return "e->timestamp"
        if expr.field == "task":
            return "e->taskAddr"
        if expr.field == "path":
            return "e->path"
        if expr.field.startswith("data."):
            key = expr.field[len("data."):]
            return f"monitor_dep_data(e, \"{key}\")"
        raise GenerationError(f"unknown event field {expr.field!r}")
    if isinstance(expr, EventIs):
        kind = "StartTask" if expr.kind == "startTask" else "EndTask"
        cond = f"e->kind == {kind}"
        if expr.task is not None:
            cond += f' && monitor_task_is(e, "{expr.task}")'
        return f"({cond})"
    if isinstance(expr, HasData):
        return f'monitor_event_has_data(e, "{expr.key}")'
    if isinstance(expr, ExternRef):
        # Sub-monitor variable blocks live in the same translation unit
        # (generate_c_bundle emits machines in dependency order), so a
        # cross-machine read is a plain FRAM struct access.
        return f"{expr.machine}_vars.{expr.var}"
    if isinstance(expr, Not):
        return f"(!{_c_expr(expr.operand, machine)})"
    if isinstance(expr, BinOp):
        c_op = {"and": "&&", "or": "||"}.get(expr.op, expr.op)
        return f"({_c_expr(expr.left, machine)} {c_op} {_c_expr(expr.right, machine)})"
    raise GenerationError(f"cannot generate expression {expr!r}")


def _c_stmt(stmt: Stmt, machine: StateMachine, indent: str) -> List[str]:
    if isinstance(stmt, Assign):
        return [
            f"{indent}{_vars_struct(machine)}.{stmt.var} = "
            f"{_c_expr(stmt.expr, machine)};"
        ]
    if isinstance(stmt, Fail):
        path = stmt.path if stmt.path is not None else 0
        return [
            f"{indent}monitor_report(r, ACTION_{stmt.action.upper()}, {path});"
        ]
    if isinstance(stmt, If):
        lines = [f"{indent}if ({_c_expr(stmt.cond, machine)}) {{"]
        for s in stmt.then:
            lines.extend(_c_stmt(s, machine, indent + "    "))
        if stmt.orelse:
            lines.append(f"{indent}}} else {{")
            for s in stmt.orelse:
                lines.extend(_c_stmt(s, machine, indent + "    "))
        lines.append(f"{indent}}}")
        return lines
    raise GenerationError(f"cannot generate statement {stmt!r}")


def _vars_struct(machine: StateMachine) -> str:
    return f"{machine.name}_vars"


def _trigger_cond(trigger: EventPattern) -> str:
    conds = []
    if trigger.kind != ANY_EVENT:
        kind = "StartTask" if trigger.kind == "startTask" else "EndTask"
        conds.append(f"e->kind == {kind}")
    if trigger.task is not None:
        conds.append(f'monitor_task_is(e, "{trigger.task}")')
    return " && ".join(conds) if conds else "1"


def generate_c_source(machine: StateMachine) -> str:
    """Emit the C translation unit for one machine."""
    name = machine.name
    lines: List[str] = [HEADER]

    # Degradation priority (read by the on-device shed controller; 0 =
    # shed first when stored energy crosses the low watermark).
    lines.append(f"#define {name}_PRIORITY {machine.priority}")
    lines.append("")

    # State enumeration.
    lines.append(f"typedef enum {{")
    for i, state in enumerate(machine.states):
        lines.append(f"    {name}_STATE_{state} = {i},")
    lines.append(f"}} {name}_state_t;")
    lines.append("")

    # Persistent variable block (FRAM-resident: __nv attribute, as in
    # ImmortalThreads / InK).
    lines.append(f"typedef struct {{")
    lines.append(f"    {name}_state_t state;")
    for v in machine.variables:
        lines.append(f"    {C_TYPES[v.type]} {v.name};")
    lines.append(f"}} {name}_nv_t;")
    lines.append("")
    lines.append(f"static __nv {name}_nv_t {_vars_struct(machine)};")
    lines.append("")

    # Reset function (resetMonitor target).
    lines.append(f"void {name}_reset(void) {{")
    lines.append(f"    {_vars_struct(machine)}.state = {name}_STATE_{machine.initial};")
    for v in machine.variables:
        init = v.initial_value
        c_init = "1" if init is True else "0" if init is False else repr(init)
        lines.append(f"    {_vars_struct(machine)}.{v.name} = {c_init};")
    lines.append("}")
    lines.append("")

    # Step function: the per-event entry, ImmortalThreads protected.
    lines.append(
        f"void {name}_step(const MonitorEvent_t *e, MonitorResult_t *r) {{"
    )
    lines.append("    _begin(monitor);")
    lines.append(f"    switch ({_vars_struct(machine)}.state) {{")
    for state in machine.states:
        lines.append(f"    case {name}_STATE_{state}:")
        for t in machine.transitions_from(state):
            cond = _trigger_cond(t.trigger)
            if t.guard is not None:
                cond = f"({cond}) && ({_c_expr(t.guard, machine)})"
            lines.append(f"        if ({cond}) {{")
            for stmt in t.body:
                lines.extend(_c_stmt(stmt, machine, "            "))
            lines.append(
                f"            {_vars_struct(machine)}.state = "
                f"{name}_STATE_{t.target};"
            )
            lines.append("            break;")
            lines.append("        }")
        lines.append("        break;")
    lines.append("    }")
    lines.append("    _end(monitor);")
    lines.append("}")
    lines.append("")
    return "\n".join(lines)


def generate_c_bundle(machines: List[StateMachine]) -> str:
    """One translation unit containing every machine plus the dispatch
    table implementing the ``callMonitor`` interface of Figure 10."""
    parts = [generate_c_source(m) for m in machines]
    dispatch: List[str] = [
        "MonitorResult_t callMonitor(const MonitorEvent_t *e) {",
        "    MonitorResult_t r = { ACTION_NONE, 0 };",
        "    _begin(callMonitor);",
    ]
    for m in machines:
        dispatch.append(f"    {m.name}_step(e, &r);")
    dispatch.extend(
        [
            "    _end(callMonitor);",
            "    return r;",
            "}",
            "",
            "void resetMonitor(void) {",
        ]
    )
    for m in machines:
        dispatch.append(f"    {m.name}_reset();")
    dispatch.extend(
        [
            "}",
            "",
            "void monitorFinalize(void) {",
            "    /* resume any event handling interrupted by a power failure */",
            "    immortal_resume(callMonitor);",
            "}",
            "",
        ]
    )
    return "\n".join(parts) + "\n" + "\n".join(dispatch)


def generate_c_header() -> str:
    """The support header (`artemis/monitor.h`) the generated code
    includes: event/result structs matching Figure 8, the action enum
    of Table 1, and the helper prototypes the templates call."""
    return """\
/* artemis/monitor.h — runtime <-> monitor interface (generated copy). */
#ifndef ARTEMIS_MONITOR_H
#define ARTEMIS_MONITOR_H

#include <stdint.h>

typedef enum { StartTask = 0, EndTask = 1 } eventkind_t;

typedef enum {
    ACTION_NONE = 0,
    ACTION_RESTARTTASK,
    ACTION_SKIPTASK,
    ACTION_RESTARTPATH,
    ACTION_SKIPPATH,
    ACTION_COMPLETEPATH,
} type_action;

/* Observable monitor event (Figure 8), persisted in FRAM by the
 * runtime so an interrupted callMonitor can be finalised on reboot. */
typedef struct _MonitorEvent {
    eventkind_t kind;
    uint64_t timestamp;   /* persistent-clock ticks */
    const void *taskAddr; /* current task pointer */
    uint16_t path;        /* executing path number */
    const void *depData;  /* dependent data of the finished task */
} MonitorEvent_t;

typedef struct _MonitorResult {
    type_action action;
    uint16_t path;
} MonitorResult_t;

/* Helpers the generated step functions call. */
int monitor_task_is(const MonitorEvent_t *e, const char *name);
double monitor_dep_data(const MonitorEvent_t *e, const char *key);
int monitor_event_has_data(const MonitorEvent_t *e, const char *key);
void monitor_report(MonitorResult_t *r, type_action action, uint16_t path);

/* Lifecycle (Figure 8): called by the ARTEMIS runtime. */
MonitorResult_t callMonitor(const MonitorEvent_t *e);
void resetMonitor(void);
void monitorFinalize(void);

#endif /* ARTEMIS_MONITOR_H */
"""


def nv_struct_bytes(machine: StateMachine) -> int:
    """Bytes of FRAM the machine's persistent block occupies (state word
    plus each variable at its MSP430 size, 2-byte aligned)."""
    total = 2  # state enum stored as uint16_t equivalent
    for v in machine.variables:
        size = C_TYPE_SIZES[C_TYPES[v.type]]
        if total % 2 and size > 1:
            total += 1
        total += size
    if total % 2:
        total += 1
    return total
