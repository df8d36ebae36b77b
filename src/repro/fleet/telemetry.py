"""Per-device telemetry and fleet-level aggregation.

A fleet server cannot read a device's NVM; it sees what the device
reports. :class:`DeviceTelemetry` is that report, extracted from one
simulated device's trace and :class:`~repro.sim.result.RunResult`:
violation counts (split around the update activation, so a regression
introduced by a new spec is visible as a before/after rate change),
corrective actions, degradation events, radio spend, and the update
outcome. :func:`aggregate` folds weighted reports into a queryable
:class:`FleetSummary`, and :func:`paired_delta` compares a treatment
arm with its paired control — the signal rollout halting decisions are
made on.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Iterable, Optional, Tuple

#: Update outcomes a device can report.
UPDATE_OUTCOMES = ("installed", "pending", "failed", "none")


@dataclass(frozen=True)
class DeviceTelemetry:
    """One device's report at the end of a rollout simulation.

    ``violations_before``/``violations_after`` count monitor corrective
    actions either side of the first ``ota_activate`` trace event (all
    *before* when no activation happened); ``runs_before``/``runs_after``
    split completed application runs the same way, so per-run violation
    rates are comparable even though the install lands mid-simulation.
    """

    device_id: int
    completed: bool
    runs_completed: int
    reboots: int
    total_time_s: float
    total_energy_mj: float
    radio_energy_mj: float
    violations_before: int
    violations_after: int
    runs_before: int
    runs_after: int
    degradation_shed: int
    degradation_restored: int
    chunks_lost: int
    rollbacks: int
    update_outcome: str
    active_version: Optional[int]
    #: Anticipatory (forecast-driven) sheds, a subset of
    #: ``degradation_shed``; 0 for reactive-only devices.
    predictive_sheds: int = 0
    #: Mean seconds between a predictive shed and the next power
    #: failure — the lead time the forecast bought. 0 when the device
    #: never shed predictively or never browned out afterwards.
    shed_lead_s: float = 0.0

    @property
    def installed(self) -> bool:
        return self.update_outcome == "installed"

    @property
    def rate_before(self) -> float:
        """Violations per completed run before the update activated."""
        return self.violations_before / max(1, self.runs_before)

    @property
    def rate_after(self) -> float:
        """Violations per completed run after the update activated."""
        return self.violations_after / max(1, self.runs_after)

    @classmethod
    def from_device(cls, device_id: int, device, result,
                    runtime) -> "DeviceTelemetry":
        """Extract the report from a finished simulation.

        ``runtime`` is the device's
        :class:`~repro.fleet.device.UpdatableRuntime` (or anything with
        ``update_outcome`` / ``installer``).
        """
        activate = device.trace.last("ota_activate")
        activate_t = activate.t if activate is not None else float("inf")
        before = after = 0
        for event in device.trace.of_kind("monitor_action"):
            if event.t < activate_t:
                before += 1
            else:
                after += 1
        runs_before = runs_after = 0
        for event in device.trace.of_kind("run_complete"):
            if event.t < activate_t:
                runs_before += 1
            else:
                runs_after += 1
        return cls(
            device_id=device_id,
            completed=bool(result.completed),
            runs_completed=int(result.runs_completed),
            reboots=int(result.reboots),
            total_time_s=float(result.total_time_s),
            total_energy_mj=float(result.total_energy_j) * 1e3,
            radio_energy_mj=float(result.energy_j.get("radio", 0.0)) * 1e3,
            violations_before=before,
            violations_after=after,
            runs_before=runs_before,
            runs_after=runs_after,
            degradation_shed=int(result.monitors_shed),
            degradation_restored=int(result.monitors_restored),
            chunks_lost=device.trace.count("ota_chunk_lost"),
            rollbacks=device.trace.count("ota_rollback"),
            update_outcome=str(runtime.update_outcome),
            active_version=runtime.installer.active_version,
            predictive_sheds=int(getattr(result, "predictive_sheds", 0)),
            shed_lead_s=shed_lead_time_s(device.trace),
        )

    def to_row(self) -> Dict[str, object]:
        """Flat, JSON-able mapping (what sweeps and the CLI carry)."""
        return asdict(self)

    @classmethod
    def from_row(cls, row: Dict[str, object]) -> "DeviceTelemetry":
        # Tolerate rows emitted before the predictive-degradation
        # fields existed (older sweep caches, archived fleet reports).
        fields = {k: row[k] for k in cls.__dataclass_fields__ if k in row}
        return cls(**fields)  # type: ignore[arg-type]


def shed_lead_time_s(trace) -> float:
    """Mean lead time (seconds) between each predictive shed and the
    next power failure in the trace.

    This is the fleet-visible measure of what anticipation bought: how
    far ahead of the brownout the controller acted. Sheds with no
    subsequent power failure (the forecast prevented the brownout
    entirely, or the run ended first) contribute nothing.
    """
    failures = [e.t for e in trace.of_kind("power_failure")]
    leads = []
    for event in trace.of_kind("monitor_shed"):
        if not event.detail.get("predictive"):
            continue
        upcoming = [t for t in failures if t >= event.t]
        if upcoming:
            leads.append(upcoming[0] - event.t)
    return sum(leads) / len(leads) if leads else 0.0


@dataclass(frozen=True)
class FleetSummary:
    """Aggregated view over a set of device reports."""

    devices: int
    completed: int
    outcomes: Dict[str, int]
    rollbacks: int
    mean_rate_before: float
    mean_rate_after: float
    regression_delta: float
    total_violations: int
    total_reboots: int
    degradation_shed: int
    degradation_restored: int
    predictive_sheds: int
    mean_shed_lead_s: float
    chunks_lost: int
    radio_energy_mj: float
    total_energy_mj: float
    #: Telemetry reports shed by a bounded ingestion queue before they
    #: reached aggregation (``shed_oldest`` backpressure policy); 0 for
    #: batch rollouts and for the lossless ``block`` policy. A nonzero
    #: value warns that rates/deltas were computed from a sample.
    telemetry_dropped: int = 0

    @property
    def installed(self) -> int:
        return self.outcomes.get("installed", 0)

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    def describe(self) -> str:
        parts = [
            f"{self.devices} devices ({self.completed} completed)",
            "outcomes " + "/".join(
                f"{self.outcomes.get(k, 0)} {k}" for k in UPDATE_OUTCOMES
            ),
            (f"violations/run before={self.mean_rate_before:.2f} "
             f"after={self.mean_rate_after:.2f} "
             f"delta={self.regression_delta:+.2f}"),
            f"rollbacks={self.rollbacks} chunks_lost={self.chunks_lost}",
            f"radio={self.radio_energy_mj:.2f}mJ",
        ]
        if self.telemetry_dropped:
            parts.append(f"telemetry_dropped={self.telemetry_dropped}")
        return "; ".join(parts)


#: One report and the number of devices it stands for: 1 for a
#: per-device report, the lane count for a lockstep cohort's
#: representative row.
WeightedReport = Tuple[DeviceTelemetry, int]


def aggregate(reports: Iterable[WeightedReport]) -> FleetSummary:
    """Fold weighted device reports into one fleet summary.

    A ``(report, weight)`` pair counts as ``weight`` devices that all
    reported ``report``. The regression signal compares each
    *installed* device against itself: mean over installed devices of
    (violations-per-run after activation − before). Devices that never
    activated contribute to the fleet-wide before-rate but not to the
    delta, so a stuck radio cannot mask a regressing spec.

    Every sum accumulates left to right with ``+=``, each value
    multiplied by its weight. Weight-1 reports therefore give the bits
    of adding them one by one, on every Python version (the builtin
    ``sum`` compensates float rounding since 3.12). One report of
    weight ``n`` may differ in the last bits from ``n`` weight-1
    copies: a multiplication is not ``n`` additions.
    """
    devices = completed = rollbacks = violations = reboots = 0
    shed = restored = predictive = chunks = installed = leads = 0
    radio = energy = before = after = delta = lead = 0.0
    outcomes: Dict[str, int] = {}
    for t, weight in reports:
        devices += weight
        if t.completed:
            completed += weight
        outcomes[t.update_outcome] = outcomes.get(t.update_outcome, 0) + weight
        rollbacks += t.rollbacks * weight
        violations += (t.violations_before + t.violations_after) * weight
        reboots += t.reboots * weight
        shed += t.degradation_shed * weight
        restored += t.degradation_restored * weight
        predictive += t.predictive_sheds * weight
        chunks += t.chunks_lost * weight
        radio += t.radio_energy_mj * weight
        energy += t.total_energy_mj * weight
        before += t.rate_before * weight
        if t.installed:
            after += t.rate_after * weight
            delta += (t.rate_after - t.rate_before) * weight
            installed += weight
        if t.predictive_sheds:
            lead += t.shed_lead_s * weight
            leads += weight
    return FleetSummary(
        devices=devices,
        completed=completed,
        outcomes=outcomes,
        rollbacks=rollbacks,
        mean_rate_before=before / devices if devices else 0.0,
        mean_rate_after=after / installed if installed else 0.0,
        regression_delta=delta / installed if installed else 0.0,
        total_violations=violations,
        total_reboots=reboots,
        degradation_shed=shed,
        degradation_restored=restored,
        predictive_sheds=predictive,
        mean_shed_lead_s=lead / leads if leads else 0.0,
        chunks_lost=chunks,
        radio_energy_mj=radio,
        total_energy_mj=energy,
    )


def paired_delta(treatment: Iterable[WeightedReport],
                 control: Iterable[WeightedReport], runs: int) -> float:
    """Mean per-run violation increase, paired per device id.

    Treatment and control simulate the *same* device (same id, same
    energy trace, same provisioned state); their difference is the
    update's effect — new checking semantics plus the radio's energy
    cost — not an artifact of when the download happened to finish. A
    lockstep cohort row carries its representative's id, which both
    arms share, and counts with the treatment row's weight.
    """
    by_id: Dict[int, DeviceTelemetry] = {}
    for c, _ in control:
        by_id[c.device_id] = c
    total = 0.0
    paired = 0
    for t, weight in treatment:
        c = by_id.get(t.device_id)
        if c is None:
            continue
        treated = t.violations_before + t.violations_after
        untreated = c.violations_before + c.violations_after
        total += weight * (treated - untreated) / max(1, runs)
        paired += weight
    return total / paired if paired else 0.0
