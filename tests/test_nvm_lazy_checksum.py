"""Lazy NVM checksums observe exactly what eager checksums would.

:class:`~repro.nvm.memory.NonVolatileMemory` records a cell's checksum
only when something can observe it: a legitimate write drops the
record, ``corrupt`` records the last-written value's checksum before it
flips a bit, and ``checksum`` (used by ``SoAImage.from_nvm``) records on
demand. The ``eager`` fixture below keeps the older rule alive in this
test only — a shadow table that records ``value_checksum`` on every
write — and asserts at every observation point (``verify``,
``verify_all``, ``corrupt``, ``SoAImage.from_nvm`` and the boot scan)
that the lazy answer equals the eager one. It then runs over the
bit-flip and corruption scenarios of ``test_faults``/``test_recovery``,
bound-2 POR crash exploration of the ``ota`` and ``temporal``
scenarios, and an intermittent health device on a many-property spec.
"""

from __future__ import annotations

import weakref

import pytest

from repro.core.recovery import RecoveryManager, _UNGUARDED
from repro.energy.environment import EnergyEnvironment
from repro.nvm.memory import NonVolatileMemory, PersistentCell, value_checksum
from repro.sim.batch.layout import SoAImage
from repro.sim.device import Device
from tests import test_faults, test_recovery


class EagerShadow:
    """Per-NVM table of the checksums an eager rule would record."""

    def __init__(self):
        self.tables = weakref.WeakKeyDictionary()
        self.observed = {"verify": 0, "verify_all": 0, "corrupt": 0,
                         "from_nvm": 0, "boot_scan": 0}

    def table(self, nvm):
        assert nvm in self.tables, "NVM not seen by the eager shadow"
        return self.tables[nvm]

    def verify(self, nvm, name) -> bool:
        return value_checksum(nvm.raw_get(name)) == self.table(nvm)[name]

    def failing(self, nvm):
        return [name for name in nvm if not self.verify(nvm, name)]


@pytest.fixture
def eager(monkeypatch):
    shadow = EagerShadow()
    init = NonVolatileMemory.__init__
    alloc = NonVolatileMemory.alloc
    free = NonVolatileMemory.free
    cell_set = PersistentCell.set
    verify = NonVolatileMemory.verify
    verify_all = NonVolatileMemory.verify_all
    corrupt = NonVolatileMemory.corrupt
    from_nvm = SoAImage.from_nvm.__func__
    restore = SoAImage.restore
    verify_guarded = RecoveryManager._verify_guarded

    def shadow_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        shadow.tables[self] = {}

    def shadow_alloc(self, name, initial=None, *args, **kwargs):
        fresh = name not in self
        cell = alloc(self, name, initial, *args, **kwargs)
        if fresh:
            shadow.table(self)[name] = value_checksum(initial)
        return cell

    def shadow_free(self, name):
        free(self, name)
        shadow.table(self).pop(name, None)

    def shadow_set(self, value):
        nvm = self._nvm
        before = nvm.write_count
        cell_set(self, value)
        if nvm.write_count != before:  # not dropped by a worn cell
            shadow.table(nvm)[self.name] = value_checksum(value)

    def checked_verify(self, name):
        lazy = verify(self, name)
        assert lazy == shadow.verify(self, name), name
        shadow.observed["verify"] += 1
        return lazy

    def checked_verify_all(self):
        lazy = verify_all(self)
        assert lazy == shadow.failing(self)
        shadow.observed["verify_all"] += 1
        return lazy

    def checked_corrupt(self, name, bit=0):
        eager_record = shadow.table(self)[name]
        garbage = corrupt(self, name, bit)
        assert self._checksums[name] == eager_record, name
        shadow.observed["corrupt"] += 1
        return garbage

    def checked_from_nvm(cls, nvm):
        image = from_nvm(cls, nvm)
        table = shadow.table(nvm)
        assert image.checksums == tuple(table[n] for n in image.names)
        shadow.observed["from_nvm"] += 1
        return image

    def shadow_restore(self):
        nvm = restore(self)
        shadow.tables[nvm] = dict(zip(self.names, self.checksums))
        return nvm

    def checked_verify_guarded(self, report):
        # Every guarded cell the eager scan would flag holds a record,
        # and the lazy scan visits recorded cells in allocation order.
        nvm = self._nvm
        recorded = nvm.recorded_cells()
        assert recorded == [n for n in nvm if n in set(recorded)]
        for name in shadow.failing(nvm):
            if self._repairer_for(name) is not _UNGUARDED:
                assert name in recorded, name
        shadow.observed["boot_scan"] += 1
        verify_guarded(self, report)

    monkeypatch.setattr(NonVolatileMemory, "__init__", shadow_init)
    monkeypatch.setattr(NonVolatileMemory, "alloc", shadow_alloc)
    monkeypatch.setattr(NonVolatileMemory, "free", shadow_free)
    monkeypatch.setattr(PersistentCell, "set", shadow_set)
    monkeypatch.setattr(PersistentCell, "value",
                        property(PersistentCell.get, shadow_set))
    monkeypatch.setattr(NonVolatileMemory, "verify", checked_verify)
    monkeypatch.setattr(NonVolatileMemory, "verify_all", checked_verify_all)
    monkeypatch.setattr(NonVolatileMemory, "corrupt", checked_corrupt)
    monkeypatch.setattr(SoAImage, "from_nvm", classmethod(checked_from_nvm))
    monkeypatch.setattr(SoAImage, "restore", shadow_restore)
    monkeypatch.setattr(RecoveryManager, "_verify_guarded",
                        checked_verify_guarded)
    return shadow


# ---------------------------------------------------------------------------
# Unit cases
# ---------------------------------------------------------------------------


def test_writes_record_nothing():
    nvm = NonVolatileMemory()
    cell = nvm.alloc("x", initial=(1, 2))
    cell.set((3, 4))
    assert nvm.recorded_cells() == []
    assert nvm.verify("x")
    assert nvm.verify_all() == []


def test_corrupt_on_never_recorded_cell_is_detected(eager):
    nvm = NonVolatileMemory()
    nvm.alloc("x", initial=0).set(("log", 7))
    assert nvm.recorded_cells() == []
    nvm.corrupt("x")
    assert nvm.recorded_cells() == ["x"]
    assert not nvm.verify("x")
    assert nvm.verify_all() == ["x"]


def test_corrupt_twice_then_set_verifies(eager):
    nvm = NonVolatileMemory()
    cell = nvm.alloc("x", initial=5)
    nvm.corrupt("x", bit=1)
    nvm.corrupt("x", bit=2)
    assert not nvm.verify("x")
    cell.set(9)
    assert nvm.verify("x")
    assert nvm.recorded_cells() == []


def test_free_then_realloc_drops_the_record(eager):
    nvm = NonVolatileMemory()
    nvm.alloc("x", initial=1)
    nvm.corrupt("x")
    nvm.free("x")
    nvm.alloc("x", initial=2)
    assert nvm.recorded_cells() == []
    assert nvm.verify_all() == []


def test_checksum_records_on_demand(eager):
    nvm = NonVolatileMemory()
    nvm.alloc("x", initial=[1, 2])
    assert nvm.checksum("x") == value_checksum([1, 2])
    assert nvm.recorded_cells() == ["x"]
    assert nvm.verify("x")


def test_soa_image_round_trip_carries_eager_checksums(eager):
    nvm = NonVolatileMemory()
    nvm.alloc("a", initial=0).set(41)
    nvm.alloc("b", initial=()).set(("p", 1.5))
    nvm.alloc("c", initial="idle")
    nvm.corrupt("b")
    image = SoAImage.from_nvm(nvm)
    assert image.checksums == (value_checksum(41),
                               value_checksum(("p", 1.5)),
                               value_checksum("idle"))
    restored = image.restore()
    again = SoAImage.from_nvm(restored)
    assert again.checksums == image.checksums
    assert restored.verify_all() == nvm.verify_all() == ["b"]


def test_corrupted_cells_keep_allocation_order(eager):
    device = Device(EnergyEnvironment.continuous())
    nvm = device.nvm
    for name in ("g.a", "g.b", "g.c", "g.d"):
        nvm.alloc(name, initial=0).set(len(name))
    nvm.corrupt("g.d")
    nvm.corrupt("g.a")
    nvm.corrupt("g.c")
    manager = RecoveryManager(nvm)
    manager.guard("g.")
    report = manager.on_boot(device)
    assert report.corrupted_cells == ["g.a", "g.c", "g.d"]
    assert nvm.verify_all() == []


# ---------------------------------------------------------------------------
# Scenarios under the eager shadow
# ---------------------------------------------------------------------------


_CORRUPTION_TESTS = [
    (test_faults.TestBitFlipDevice, "test_corruption_is_silent_until_verified"),
    (test_faults.TestBitFlipDevice,
     "test_flip_then_crash_is_detected_and_repaired_at_boot"),
] + [
    (cls, name)
    for cls in (test_recovery.TestRecoveryManagerCore,
                test_recovery.TestRuntimeRecoveryWiring)
    for name in sorted(vars(cls)) if name.startswith("test_")
]


@pytest.mark.parametrize(
    "cls,name", _CORRUPTION_TESTS,
    ids=[f"{cls.__name__}.{name}" for cls, name in _CORRUPTION_TESTS])
def test_corruption_scenarios_match_eager(eager, cls, name):
    getattr(cls(), name)()
    assert eager.observed["boot_scan"] or eager.observed["verify"]


def test_bit_flip_scenarios_observe_corruption(eager):
    for cls, name in _CORRUPTION_TESTS[:2]:
        getattr(cls(), name)()
    assert eager.observed["corrupt"] == 2
    assert eager.observed["boot_scan"] >= 1


@pytest.mark.parametrize("workload", ["ota", "temporal"])
def test_bound2_exploration_matches_eager(eager, workload):
    from repro.verify.workloads import get_scenario

    report = get_scenario(workload, "artemis").explorer().explore(
        bound=2, budget=5000, stop_on_first=False, por=True)
    assert report.ok
    assert not report.truncated
    assert eager.observed["boot_scan"] > 0
    assert eager.observed["verify_all"] > 0


#: The health app's paths, for the many-property spec below.
HEALTH_PATHS = {1: ["bodyTemp", "calcAvg", "heartRate", "send"],
                2: ["accel", "classify", "send"],
                3: ["micSense", "filter", "send"]}

#: Temporal formula shapes over (task, previous task, first
#: task on the path); each holds under in-order execution.
SHAPES = [
    ("started({t}) -> once ended({p})", "start"),
    ("once[0, 2h] ended({p})", "start"),
    ("not ended({t}) since ended({p})", "start"),
    ("once ended({p}) and once ended({f})", "end"),
]


def many_property_spec(base: str, n_props: int) -> str:
    """``base`` plus ``n_props`` temporal properties cycling through the
    formula shapes and the health app's paths."""
    lines = []
    for i in range(n_props):
        path = 1 + (i // len(SHAPES)) % len(HEALTH_PATHS)
        names = HEALTH_PATHS[path]
        k = 1 + i % (len(names) - 1)
        formula, at = SHAPES[i % len(SHAPES)]
        formula = formula.format(t=names[k], p=names[k - 1], f=names[0])
        lines.append(f"{names[k]}: {{ temporal: {formula} at: {at} "
                     f"label: q{i} onFail: skipPath Path: {path}; }}")
    return base + "\n" + "\n".join(lines) + "\n"


def test_many_property_health_device_matches_eager(eager):
    from repro.workloads import health

    app = health.build_health_app()
    spec = many_property_spec(health.BENCHMARK_SPEC, 40)
    device = health.make_intermittent_device(60.0)
    runtime = health.build_artemis(device, app=app, spec=spec)
    result = device.run(runtime, runs=5, max_time_s=1e9, max_reboots=10 ** 6)
    assert result.completed and result.runs_completed == 5
    assert result.reboots > 0
    # Device.run boots once per application run and once per reboot.
    assert eager.observed["boot_scan"] == result.reboots + 5
    image = SoAImage.from_nvm(device.nvm)
    assert len(image) == len(device.nvm)
    assert eager.observed["from_nvm"] == 1
    assert device.nvm.verify_all() == []
