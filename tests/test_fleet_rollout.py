"""Fleet-scale staged rollouts: completion at >=100 devices, aggregated
telemetry, and the automatic regression halt.

These are the acceptance tests for the fleet server: a benign update
reaches a 100+-device heterogeneous fleet wave by wave and the report
aggregates per-device telemetry; a seeded *regressing* spec (it makes
the monitor strictly noisier) trips the paired-control gate in the
canary wave, so the bulk of the fleet never receives it.
"""

import pytest

from repro.errors import FleetError
from repro.fleet.server import (
    FLEET_SPEC_REGRESSING,
    FLEET_SPEC_V2,
    FleetServer,
    RolloutPlan,
)
from repro.fleet.telemetry import (
    DeviceTelemetry,
    FleetSummary,
    aggregate,
    paired_delta,
)

_FAST = dict(runs=2, loss_rate=0.02, seed=0)


class TestStagedRollout:
    def test_hundred_device_rollout_completes(self):
        server = FleetServer()
        plan = RolloutPlan(waves=(0.1, 0.5, 1.0), **_FAST)
        report = server.rollout(FLEET_SPEC_V2, 100, plan=plan, jobs=4)
        assert report.ok and not report.halted
        assert report.devices_attempted == 100
        # Wave boundaries follow the cumulative fractions.
        assert [len(w.device_ids) for w in report.waves] == [10, 40, 50]
        # Aggregated fleet summary covers every device.
        assert isinstance(report.summary, FleetSummary)
        assert report.summary.devices == 100
        assert report.summary.completed == 100
        # The benign v2 installs essentially everywhere; devices whose
        # energy trace starved the radio may legitimately still be
        # mid-transfer, but never in the majority.
        assert report.summary.outcomes.get("installed", 0) >= 90
        assert report.summary.rollbacks == 0
        # The update gets *better*, not worse: the paired delta each
        # wave observed stays under the halt threshold.
        for wave in report.waves:
            assert wave.regression_delta <= plan.halt_threshold
            assert not wave.halted

    def test_regressing_update_is_halted_in_canary(self):
        server = FleetServer()
        plan = RolloutPlan(waves=(0.1, 0.5, 1.0), **_FAST)
        report = server.rollout(FLEET_SPEC_REGRESSING, 100, plan=plan, jobs=4)
        assert report.halted
        assert report.halted_wave == 0
        assert not report.ok
        # Only the canary wave was ever offered the update.
        assert report.devices_attempted == 10
        assert len(report.waves) == 1
        assert report.waves[0].regression_delta > plan.halt_threshold

    def test_paired_control_isolates_the_update(self):
        """The control arm runs the identical devices without the offer,
        so a benign update's paired delta sits near zero even though the
        absolute violation counts vary across energy classes."""
        server = FleetServer()
        plan = RolloutPlan(waves=(1.0,), **_FAST)
        report = server.rollout(FLEET_SPEC_V2, 12, plan=plan)
        wave = report.waves[0]
        assert len(wave.control) == len(wave.telemetry) == 12
        for treated, control in zip(wave.telemetry, wave.control):
            assert treated.device_id == control.device_id
            assert control.update_outcome == "none"
            assert control.active_version == 1

    def test_rollout_report_serializes(self):
        server = FleetServer()
        plan = RolloutPlan(waves=(1.0,), **_FAST)
        report = server.rollout(FLEET_SPEC_V2, 8, plan=plan)
        data = report.to_dict()
        assert data["devices_attempted"] == 8
        assert data["halted"] is False
        assert len(data["waves"]) == 1
        assert isinstance(report.describe(), str)

    def test_rollout_rejects_empty_fleet(self):
        with pytest.raises(FleetError):
            FleetServer().rollout(FLEET_SPEC_V2, 0)


class TestPlanValidation:
    def test_waves_must_be_increasing_to_one(self):
        with pytest.raises(FleetError):
            RolloutPlan(waves=(0.5, 0.25, 1.0))
        with pytest.raises(FleetError):
            RolloutPlan(waves=(0.5,))
        with pytest.raises(FleetError):
            RolloutPlan(waves=())

    def test_aggregate_of_nothing_is_empty(self):
        summary = aggregate([])
        assert summary.devices == 0
        assert summary.regression_delta == 0.0

    def test_aggregate_adds_left_to_right(self):
        """Weight-1 float sums are plain left-to-right additions on every
        Python version: the builtin ``sum`` compensates rounding since
        3.12, which would give 1.0 here."""
        rows = []
        for device_id, radio in enumerate((1e16, 1.0, -1e16)):
            row = {name: 0 for name in DeviceTelemetry.__dataclass_fields__}
            row.update(device_id=device_id, update_outcome="installed",
                       radio_energy_mj=radio, total_energy_mj=radio)
            rows.append((DeviceTelemetry.from_row(row), 1))
        summary = aggregate(rows)
        assert summary.radio_energy_mj == (1e16 + 1.0) + -1e16 == 0.0
        assert summary.total_energy_mj == 0.0

    def test_paired_delta_weighs_cohort_rows_by_lane_count(self):
        """A cohort row pairs with the control row of its representative
        id and counts once per lane; unpaired rows count nowhere."""
        def row(device_id, violations):
            out = {name: 0 for name in DeviceTelemetry.__dataclass_fields__}
            out.update(device_id=device_id, update_outcome="installed",
                       violations_after=violations)
            return DeviceTelemetry.from_row(out)

        treatment = [(row(0, 6), 3), (row(1, 2), 1), (row(2, 9), 5)]
        control = [(row(0, 2), 3), (row(1, 2), 1)]
        # Paired: device 0 x3 lanes at +2.0/run, device 1 at 0.0/run.
        assert paired_delta(treatment, control, runs=2) == 6.0 / 4
        expanded = [(row(0, 6), 1)] * 3 + [(row(1, 2), 1)]
        assert paired_delta(expanded, control, runs=2) == 6.0 / 4
        assert paired_delta([], control, runs=2) == 0.0
