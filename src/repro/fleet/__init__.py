"""Fleet OTA subsystem: monitor distribution at fleet scale.

The paper's headline claim is *adaptability* — monitors are decoupled
from the application so specifications can change without reprogramming
the device. This package exercises that claim end-to-end:

* :mod:`repro.fleet.bundle` — versioned, content-hashed, CRC-protected
  serialization of a compiled monitor set, with delta encoding.
* :mod:`repro.fleet.transport` — lossy, energy-charged chunked radio
  delivery, resumable across power failures from an NVM staging area.
* :mod:`repro.fleet.install` — double-buffered A/B slots with journaled
  atomic activation, boot-loop rollback, and per-property migration.
* :mod:`repro.fleet.device` — an ``UpdatableRuntime`` wrapper that
  receives, installs, and hot-swaps monitor sets at path boundaries.
* :mod:`repro.fleet.telemetry` / :mod:`repro.fleet.server` — weighted
  telemetry rows folded into fleet summaries, and a ``FleetServer``
  pushing staged rollouts (waves, halt-on-regression) to N simulated
  devices.
* :mod:`repro.fleet.control` / :mod:`repro.fleet.digest` — the always-on
  asyncio control plane (sharded registries, bounded-backpressure
  telemetry ingestion, telemetry-gated waves on a persistent worker
  pool) and its streaming percentile sketches / windowed rollups.
"""

from repro.fleet.bundle import (
    BundleDelta,
    CompatDiff,
    MonitorBundle,
    apply_delta,
    build_bundle,
    compat_diff,
    decode_wire,
)
from repro.fleet.control import (
    ChaosWaveTask,
    ControlConfig,
    ControlPlane,
    ServeReport,
    ShardedRegistry,
    TelemetryGate,
    TelemetryQueue,
    WaveTask,
)
from repro.fleet.device import UpdatableRuntime
from repro.fleet.digest import QuantileDigest, WindowedRollup
from repro.fleet.install import BundleInstaller
from repro.fleet.server import FleetServer, RolloutPlan, RolloutReport
from repro.fleet.telemetry import (
    DeviceTelemetry,
    FleetSummary,
    aggregate,
    paired_delta,
)
from repro.fleet.transport import ChunkLoss, OtaTransport

__all__ = [
    "BundleDelta",
    "BundleInstaller",
    "ChaosWaveTask",
    "ChunkLoss",
    "CompatDiff",
    "ControlConfig",
    "ControlPlane",
    "DeviceTelemetry",
    "FleetServer",
    "FleetSummary",
    "MonitorBundle",
    "OtaTransport",
    "QuantileDigest",
    "RolloutPlan",
    "RolloutReport",
    "ServeReport",
    "ShardedRegistry",
    "TelemetryGate",
    "TelemetryQueue",
    "UpdatableRuntime",
    "WaveTask",
    "WindowedRollup",
    "aggregate",
    "apply_delta",
    "build_bundle",
    "compat_diff",
    "decode_wire",
    "paired_delta",
]
