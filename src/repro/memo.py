"""Bounded, content-keyed memo tables for the monitor front end.

The paper's toolchain turns a spec into state machines and code once,
at build time. The simulator builds many devices from the same few
specs, so the front-end stages (spec → :class:`PropertySet` →
:class:`MonitorPlan` → compiled monitor classes, and the fleet's
:class:`MonitorBundle`) remember their outputs by content:

* :func:`repro.spec.validator.load_properties` — spec text plus the
  application facts validation reads;
* :func:`repro.core.generator.build_monitor_plan` — the property tuple
  and ``share_subformulas``;
* :func:`repro.statemachine.codegen_python.compile_machine` — the
  generated source text;
* :func:`repro.fleet.bundle.build_bundle` — spec, application facts,
  version and namespace.

Every table is a small LRU with a fixed entry bound, lives for the
process, and is always on: a hit returns exactly what a miss would
have built. Stages hand out fresh containers over shared immutable
parts, so a caller that edits its result cannot change what the next
caller gets. Failures are never remembered: a bad spec raises its
diagnostic on every call.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, List, Tuple


class BoundedMemo:
    """Thread-safe LRU map holding at most ``maxsize`` entries."""

    def __init__(self, name: str, maxsize: int):
        self.name = name
        self.maxsize = maxsize
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        # Serializes misses, so concurrent callers build a value once.
        self._build_lock = threading.Lock()
        _TABLES.append(self)

    def get(self, key: Hashable) -> Any:
        """The value stored under ``key``, or ``None``."""
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                return None
            self._data.move_to_end(key)
            return value

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def get_or_build(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """The value under ``key``, building and storing it on a miss.
        A build that raises stores nothing."""
        value = self.get(key)
        if value is None:
            with self._build_lock:
                value = self.get(key)
                if value is None:
                    value = build()
                    self.put(key, value)
        return value

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:
        return f"BoundedMemo({self.name!r}, {len(self)}/{self.maxsize})"


_TABLES: List[BoundedMemo] = []


def memo_tables() -> Tuple[BoundedMemo, ...]:
    """Every front-end memo table created in this process."""
    return tuple(_TABLES)


def clear_memos() -> None:
    """Empty every table: the next call of each stage is cold again."""
    for table in _TABLES:
        table.clear()
