"""Boot-time recovery: journal resolution, corruption repair, invariants.

Deployed intermittent systems reboot hundreds of times a day, and §4.1.3
and §7 of the paper claim the runtime+monitor combination survives every
one of them. That claim needs machinery, not faith: a crash can leave a
commit journal in flight, a cosmic ray can flip a bit in FRAM, and a
wild write can leave control state pointing at a path that does not
exist. :class:`RecoveryManager` runs first on every boot and resolves
all three hazards:

1. **Journal recovery** — an in-flight
   :class:`~repro.nvm.journal.CommitJournal` is rolled back (pending) or
   rolled forward (committed); a journal failing its checksum is
   detected as corruption and discarded rather than replayed.
2. **Checksum verification** — guarded NVM regions (runtime control
   state, monitor state, channels) are verified against their per-cell
   checksums. Only a cell holding a recorded checksum can fail (see
   :mod:`repro.nvm.memory`), so the scan visits only those, in
   allocation order. A mismatching cell is reset to its
   allocation-time initial value, then its owning component gets a
   chance to re-initialise itself (e.g. reset the monitor machine that
   owned the cell).
3. **Invariant validation** — registered semantic invariants (path and
   task indices in range, runtime status a legal value, the §4.1.3
   timestamp-consistency rules, monitor machines in legal states) are
   checked and repaired.

Every intervention is observable: trace records
(``torn_commit``/``journal_replay``/``corruption_detected``/
``invariant_repair``/``monitor_reset``/``recovery``), counters on
:class:`~repro.sim.result.RunResult`, and — when an audit log is
attached — persistent ``recovery`` audit entries for post-mortem
read-out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.nvm.journal import (
    CommitJournal,
    RECOVERED_CLEAN,
    RECOVERED_CORRUPT,
    RECOVERED_ROLLED_BACK,
    RECOVERED_ROLLED_FORWARD,
)
from repro.nvm.memory import NonVolatileMemory

#: A cell repairer receives the corrupted cell's name (already reset to
#: its initial value) and may re-initialise the owning component;
#: it returns a short description of what it did, or ``None``.
CellRepairFn = Callable[[str], Optional[str]]


@dataclass(frozen=True)
class Invariant:
    """A named semantic invariant with its repair action."""

    name: str
    check: Callable[[], bool]
    repair: Callable[[], None]


@dataclass
class RecoveryReport:
    """What one boot-time recovery pass found and fixed."""

    journal: str = RECOVERED_CLEAN
    corrupted_cells: List[str] = field(default_factory=list)
    repairs: List[str] = field(default_factory=list)
    invariant_repairs: List[str] = field(default_factory=list)
    monitor_resets: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True if this boot needed no intervention at all."""
        return (self.journal == RECOVERED_CLEAN
                and not self.corrupted_cells
                and not self.invariant_repairs
                and not self.monitor_resets)


class RecoveryManager:
    """Runs the three-stage recovery pass on every boot.

    Args:
        nvm: the non-volatile memory to scan.
        journal: the commit journal to resolve (optional — checkpoint
            runtimes have no redo journal).
        monitor: an object with ``validate() -> List[str]`` and
            ``reset_machine(name)`` (an
            :class:`~repro.core.monitor.ArtemisMonitor` or group);
            optional.
        audit: an :class:`~repro.core.audit.AuditLog` to receive
            persistent recovery entries; optional.
        source: the source string stamped on audit entries.
    """

    def __init__(
        self,
        nvm: NonVolatileMemory,
        journal: Optional[CommitJournal] = None,
        monitor=None,
        audit=None,
        source: str = "recovery",
    ):
        self._nvm = nvm
        self._journal = journal
        self._monitor = monitor
        self._audit = audit
        self._source = source
        self._guards: List[Tuple[str, Optional[CellRepairFn]]] = []
        self._invariants: List[Invariant] = []

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def guard(self, prefix: str, repair: Optional[CellRepairFn] = None) -> None:
        """Verify all cells whose name starts with ``prefix`` at boot.

        A corrupted cell is always reset to its allocation-time initial
        value first; ``repair``, if given, then re-initialises the
        owning component (and describes what it did).

        Re-registering an already-guarded prefix replaces its repairer
        (an OTA monitor swap points the old prefixes at the new monitor).
        """
        for i, (existing, _) in enumerate(self._guards):
            if existing == prefix:
                self._guards[i] = (prefix, repair)
                return
        self._guards.append((prefix, repair))

    def unguard(self, prefix: str) -> None:
        """Drop a guarded prefix (its cells become unmanaged again)."""
        self._guards = [(p, r) for p, r in self._guards if p != prefix]

    def set_monitor(self, monitor) -> None:
        """Point boot-time monitor validation at a replacement monitor."""
        self._monitor = monitor

    def add_invariant(
        self,
        name: str,
        check: Callable[[], bool],
        repair: Callable[[], None],
    ) -> None:
        """Register an invariant; ``check`` raising counts as violated.

        Invariants run in registration order, so later checks may rely
        on earlier repairs (e.g. validate the task index only after the
        path index has been clamped into range).
        """
        self._invariants.append(Invariant(name, check, repair))

    # ------------------------------------------------------------------
    # The boot pass
    # ------------------------------------------------------------------
    def on_boot(self, device) -> RecoveryReport:
        """Run journal recovery, checksum scan, and invariant validation.

        Recovery itself is charged no energy: it models the boot-time
        FRAM scan firmware performs before re-entering the main loop,
        which is orders of magnitude cheaper than any task.
        """
        report = RecoveryReport()
        if self._journal is not None:
            report.journal = self._journal.recover()
        self._verify_guarded(report)
        if self._monitor is not None:
            for machine in self._monitor.validate():
                self._monitor.reset_machine(machine)
                report.monitor_resets.append(machine)
        for invariant in self._invariants:
            try:
                ok = invariant.check()
            except Exception:
                ok = False
            if not ok:
                invariant.repair()
                report.invariant_repairs.append(invariant.name)
        self._publish(device, report)
        return report

    def _verify_guarded(self, report: RecoveryReport) -> None:
        # Only a cell with a recorded checksum can fail verification.
        for name in self._nvm.recorded_cells():
            repairer = self._repairer_for(name)
            if repairer is _UNGUARDED:
                continue
            if self._nvm.verify(name):
                continue
            report.corrupted_cells.append(name)
            self._nvm.restore_initial(name)
            description = f"{name} reset to initial"
            if repairer is not None:
                extra = repairer(name)
                if extra:
                    description += f"; {extra}"
            report.repairs.append(description)

    def _repairer_for(self, cell_name: str):
        for prefix, repairer in self._guards:
            if cell_name.startswith(prefix):
                return repairer
        return _UNGUARDED

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _publish(self, device, report: RecoveryReport) -> None:
        t = device.sim_clock.now()
        trace, result = device.trace, device.result
        if report.journal == RECOVERED_ROLLED_BACK:
            result.torn_commits += 1
            trace.record(t, "torn_commit", outcome="rolled_back")
            self._audit_entry(device, "journal:rolledBack", self._source)
        elif report.journal == RECOVERED_ROLLED_FORWARD:
            result.journal_replays += 1
            trace.record(t, "journal_replay", outcome="rolled_forward")
            self._audit_entry(device, "journal:replayed", self._source)
        elif report.journal == RECOVERED_CORRUPT:
            result.torn_commits += 1
            result.corruptions_detected += 1
            trace.record(t, "torn_commit", outcome="corrupt_journal")
            self._audit_entry(device, "journal:corrupt", self._source)
        for cell, description in zip(report.corrupted_cells, report.repairs):
            result.corruptions_detected += 1
            result.corruptions_repaired += 1
            trace.record(t, "corruption_detected", cell=cell,
                         repair=description)
            self._audit_entry(device, "corruption", cell)
        for machine in report.monitor_resets:
            result.monitor_resets += 1
            trace.record(t, "monitor_reset", machine=machine)
            self._audit_entry(device, "monitorReset", machine)
        for name in report.invariant_repairs:
            result.invariant_repairs += 1
            trace.record(t, "invariant_repair", invariant=name)
            self._audit_entry(device, "invariantRepair", name)
        if not report.clean:
            trace.record(
                t, "recovery",
                journal=report.journal,
                corrupted=len(report.corrupted_cells),
                invariants=len(report.invariant_repairs),
                monitor_resets=len(report.monitor_resets),
            )

    def _audit_entry(self, device, action: str, source: str) -> None:
        if self._audit is None:
            return
        self._audit.record_event(
            device.now(), f"recovery:{action}", source, task="<boot>"
        )


#: Sentinel distinguishing "no repairer registered" from "not guarded".
_UNGUARDED = object()
