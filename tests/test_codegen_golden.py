"""Golden-file tests for the C code generator.

One property of each kind is generated to C and compared byte-for-byte
against a committed reference under ``tests/goldens/``. Any change to
the generator's output — intended or not — shows up as a readable diff
in review instead of slipping through unit assertions that only probe
for substrings.

To accept an intended change, regenerate the references::

    PYTHONPATH=src python -m pytest tests/test_codegen_golden.py --update-goldens

then commit the modified ``.c`` files. See ``docs/performance.md``.

The committed goldens are also compiled with the host C compiler
against the generated ``artemis/monitor.h`` and the ImmortalThreads
stand-in under ``tests/c_stub/``, so generated C that would not build
fails here rather than on the target toolchain.
"""

import shutil
import subprocess
from pathlib import Path

import pytest

from repro.core.actions import ActionType
from repro.core.generator import generate_machine, generate_machines
from repro.core.properties import Collect, DpData, MaxDuration, MaxTries, MITD, Period
from repro.statemachine.codegen_c import (
    generate_c_bundle,
    generate_c_header,
    generate_c_source,
)

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
C_STUB_DIR = Path(__file__).resolve().parent / "c_stub"
C_COMPILER = shutil.which("gcc") or shutil.which("cc")

#: One representative property per kind; parameters are fixed so the
#: emitted C is fully deterministic.
GOLDEN_PROPERTIES = {
    "maxtries": MaxTries(task="micSense", on_fail=ActionType.SKIP_PATH,
                         limit=10),
    "maxduration": MaxDuration(task="calcAvg", on_fail=ActionType.SKIP_TASK,
                               limit_s=0.1),
    "mitd": MITD(task="send", on_fail=ActionType.RESTART_PATH,
                 dep_task="calcAvg", limit_s=4.0, max_attempt=3,
                 max_attempt_action=ActionType.SKIP_PATH),
    "collect": Collect(task="calcAvg", on_fail=ActionType.RESTART_PATH,
                       dep_task="bodyTemp", count=10),
    "dpdata": DpData(task="calcAvg", on_fail=ActionType.COMPLETE_PATH,
                     var="avgTemp", low=36.0, high=38.0),
    "period": Period(task="bodyTemp", on_fail=ActionType.RESTART_TASK,
                     period_s=10.0, jitter_s=1.0),
}


def _check(request, name: str, generated: str) -> None:
    path = GOLDEN_DIR / f"{name}.c"
    if request.config.getoption("--update-goldens"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(generated)
        return
    assert path.exists(), (
        f"missing golden {path.name}; generate it with "
        f"pytest {__file__} --update-goldens"
    )
    assert generated == path.read_text(), (
        f"C generator output for {name!r} differs from {path.name}; if "
        f"the change is intended, rerun with --update-goldens and "
        f"commit the diff"
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_PROPERTIES))
def test_property_source_matches_golden(request, name):
    machine = generate_machine(GOLDEN_PROPERTIES[name])
    _check(request, name, generate_c_source(machine))


def test_bundle_matches_golden(request):
    """The full dispatch bundle over all six properties."""
    machines = generate_machines(
        [GOLDEN_PROPERTIES[k] for k in sorted(GOLDEN_PROPERTIES)]
    )
    _check(request, "bundle", generate_c_bundle(machines))


def test_header_matches_golden(request):
    _check(request, "monitor_header", generate_c_header())


def test_goldens_have_no_stray_files():
    """Every committed golden corresponds to a test above — a renamed
    property would otherwise leave an orphaned reference nobody
    compares against."""
    expected = {f"{n}.c" for n in GOLDEN_PROPERTIES}
    expected |= {"bundle.c", "monitor_header.c"}
    actual = {p.name for p in GOLDEN_DIR.glob("*.c")}
    assert actual == expected


@pytest.mark.skipif(C_COMPILER is None,
                    reason="no C compiler (gcc or cc) on PATH")
@pytest.mark.parametrize("name", ["bundle"] + sorted(GOLDEN_PROPERTIES))
def test_golden_compiles(tmp_path, name):
    """Each golden translation unit compiles cleanly as C99."""
    include = tmp_path / "include"
    (include / "artemis").mkdir(parents=True)
    (include / "artemis" / "monitor.h").write_text(generate_c_header())
    proc = subprocess.run(
        [C_COMPILER, "-std=c99", "-Wall", "-Werror", "-c",
         "-I", str(include), "-I", str(C_STUB_DIR),
         str(GOLDEN_DIR / f"{name}.c"), "-o", str(tmp_path / f"{name}.o")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
