"""Versioned monitor bundles: what a fleet server ships to a device.

A bundle captures one compiled monitor set in a self-describing,
integrity-protected form:

* the **spec source** — the single source of truth; the receiving device
  regenerates its machines from it, so a bundle works on any firmware
  that carries the generator;
* the **textual state-machine models** (one per property, in
  :func:`~repro.statemachine.textual.print_machine` form) — used for the
  spec-compatibility diff that decides which machines keep their NVM
  state across an update and which are reset;
* a **generated-code fingerprint** — SHA-256 over the Python sources the
  generator emits, pinning the exact checking semantics the server
  compiled against.

The wire format is a 16-byte binary header followed by a canonical-JSON
payload::

    >4s B  B     H        I           I
    magic fmt flags  reserved  payload_len  crc32(payload)

CRC covers the payload; the header pins magic/format so a truncated or
foreign blob is rejected before the payload is even parsed. Flag bit 0
marks a :class:`BundleDelta` (delta against an installed version)
instead of a full :class:`MonitorBundle`.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from repro.core.generator import generate_machines
from repro.errors import FleetError
from repro.memo import BoundedMemo
from repro.spec.validator import app_facts, load_properties
from repro.statemachine.codegen_python import generate_python_source
from repro.statemachine.textual import print_machine
from repro.taskgraph.app import Application

MAGIC = b"AOTA"
FORMAT_VERSION = 1
FLAG_DELTA = 0x01

_HEADER = struct.Struct(">4sBBHII")


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class MonitorBundle:
    """One versioned, installable monitor set.

    Attributes:
        name: monitor NVM namespace on the device (machines of the same
            name reuse their persisted state across compatible updates).
        version: monotonically increasing fleet version number.
        spec: the property-specification source text.
        machines: ``(machine_name, textual_form)`` pairs, sorted by
            name — the compatibility unit of the update system.
        fingerprint: SHA-256 over the generated Python sources.
    """

    name: str
    version: int
    spec: str
    machines: Tuple[Tuple[str, str], ...]
    fingerprint: str

    @property
    def machine_map(self) -> Dict[str, str]:
        return dict(self.machines)

    def payload(self) -> dict:
        return {
            "name": self.name,
            "version": self.version,
            "spec": self.spec,
            "machines": {n: text for n, text in self.machines},
            "fingerprint": self.fingerprint,
        }

    @property
    def content_hash(self) -> str:
        """SHA-256 of the canonical payload; names a bundle's content."""
        return _sha256(_canonical(self.payload()))

    @classmethod
    def from_payload(cls, payload: dict) -> "MonitorBundle":
        try:
            machines = tuple(sorted(
                (str(n), str(t)) for n, t in payload["machines"].items()
            ))
            return cls(
                name=str(payload["name"]),
                version=int(payload["version"]),
                spec=str(payload["spec"]),
                machines=machines,
                fingerprint=str(payload["fingerprint"]),
            )
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise FleetError(f"malformed bundle payload: {exc}") from exc

    def to_wire(self) -> bytes:
        return _pack(self.payload(), flags=0)

    def delta_to(self, target: "MonitorBundle") -> "BundleDelta":
        """Delta-encode ``target`` against this installed bundle.

        Machines whose textual form is unchanged are omitted from the
        wire; the receiver re-attaches them from its installed copy,
        guarded by base and target content hashes.
        """
        base_map = self.machine_map
        changed = {
            n: text for n, text in target.machines
            if base_map.get(n) != text
        }
        removed = tuple(sorted(set(base_map) - set(target.machine_map)))
        return BundleDelta(
            name=target.name,
            version=target.version,
            spec=target.spec,
            fingerprint=target.fingerprint,
            base_hash=self.content_hash,
            target_hash=target.content_hash,
            changed=tuple(sorted(changed.items())),
            removed=removed,
        )


@dataclass(frozen=True)
class BundleDelta:
    """A bundle encoded as changes against an installed base version."""

    name: str
    version: int
    spec: str
    fingerprint: str
    base_hash: str
    target_hash: str
    changed: Tuple[Tuple[str, str], ...]
    removed: Tuple[str, ...]

    def payload(self) -> dict:
        return {
            "name": self.name,
            "version": self.version,
            "spec": self.spec,
            "fingerprint": self.fingerprint,
            "base_hash": self.base_hash,
            "target_hash": self.target_hash,
            "changed": {n: text for n, text in self.changed},
            "removed": list(self.removed),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "BundleDelta":
        try:
            return cls(
                name=str(payload["name"]),
                version=int(payload["version"]),
                spec=str(payload["spec"]),
                fingerprint=str(payload["fingerprint"]),
                base_hash=str(payload["base_hash"]),
                target_hash=str(payload["target_hash"]),
                changed=tuple(sorted(
                    (str(n), str(t)) for n, t in payload["changed"].items()
                )),
                removed=tuple(str(n) for n in payload["removed"]),
            )
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise FleetError(f"malformed delta payload: {exc}") from exc

    def to_wire(self) -> bytes:
        return _pack(self.payload(), flags=FLAG_DELTA)


def apply_delta(base: MonitorBundle, delta: BundleDelta) -> MonitorBundle:
    """Reconstruct the full target bundle from ``base`` + ``delta``.

    Both ends of the delta are hash-checked: the base must be the exact
    bundle the server encoded against, and the reconstruction must hash
    to the server's target — a mismatch on either side rejects the
    update instead of installing a chimera.
    """
    if base.content_hash != delta.base_hash:
        raise FleetError(
            f"delta base mismatch: installed {base.content_hash[:12]} != "
            f"expected {delta.base_hash[:12]}"
        )
    machines = dict(base.machines)
    for name in delta.removed:
        machines.pop(name, None)
    machines.update(dict(delta.changed))
    target = MonitorBundle(
        name=delta.name,
        version=delta.version,
        spec=delta.spec,
        machines=tuple(sorted(machines.items())),
        fingerprint=delta.fingerprint,
    )
    if target.content_hash != delta.target_hash:
        raise FleetError(
            f"delta reconstruction hash mismatch: {target.content_hash[:12]} "
            f"!= {delta.target_hash[:12]}"
        )
    return target


#: Bundles by (spec, application facts, version, name).
_BUNDLES = BoundedMemo("bundle.bundles", 64)


def build_bundle(
    spec: str,
    app: Application,
    version: int,
    name: str = "monitor",
) -> MonitorBundle:
    """Compile ``spec`` against ``app`` into an installable bundle.

    Memoized by content; bundles are frozen, so callers share one.
    """
    # The version's type is part of the key: 1 and 1.0 are equal keys
    # but print differently in the payload.
    key = (spec, app_facts(app), type(version), version, name)
    return _BUNDLES.get_or_build(
        key, lambda: _build_bundle(spec, app, version, name))


def _build_bundle(spec: str, app: Application, version: int,
                  name: str) -> MonitorBundle:
    props = load_properties(spec, app)
    machines = generate_machines(props)
    textual = tuple(sorted((m.name, print_machine(m)) for m in machines))
    sources = "\n".join(generate_python_source(m)
                        for m in sorted(machines, key=lambda m: m.name))
    return MonitorBundle(
        name=name,
        version=version,
        spec=spec,
        machines=textual,
        fingerprint=_sha256(sources.encode("utf-8")),
    )


def _pack(payload: dict, flags: int) -> bytes:
    body = _canonical(payload)
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, flags, 0,
                          len(body), zlib.crc32(body) & 0xFFFFFFFF)
    return header + body


def decode_wire(data: bytes) -> Union[MonitorBundle, BundleDelta]:
    """Parse and integrity-check a wire blob; raises :class:`FleetError`.

    Every check runs before any payload content is trusted: magic,
    format version, declared length, CRC, JSON well-formedness, and
    finally field shape.
    """
    if len(data) < _HEADER.size:
        raise FleetError(f"bundle truncated: {len(data)} bytes < header")
    magic, fmt, flags, _reserved, length, crc = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise FleetError(f"bad bundle magic {magic!r}")
    if fmt != FORMAT_VERSION:
        raise FleetError(f"unsupported bundle format version {fmt}")
    body = data[_HEADER.size:]
    if len(body) != length:
        raise FleetError(
            f"bundle length mismatch: header says {length}, got {len(body)}"
        )
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise FleetError("bundle CRC mismatch: payload corrupted in transit")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FleetError(f"bundle payload is not canonical JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FleetError("bundle payload must be a JSON object")
    if flags & FLAG_DELTA:
        return BundleDelta.from_payload(payload)
    return MonitorBundle.from_payload(payload)


@dataclass(frozen=True)
class CompatDiff:
    """Which machines survive an update with their NVM state intact.

    ``kept`` machines have byte-identical textual models in both
    versions — their persisted state remains meaningful and is carried
    across. ``changed`` machines exist in both but differ — their state
    is reset (a counter calibrated against the old thresholds is not
    comparable under the new ones). ``added``/``removed`` machines are
    initialised fresh / have their cells dropped.
    """

    kept: Tuple[str, ...]
    changed: Tuple[str, ...]
    added: Tuple[str, ...]
    removed: Tuple[str, ...]


def compat_diff(old: Optional[MonitorBundle], new: MonitorBundle) -> CompatDiff:
    """Per-machine compatibility between an installed and a new bundle."""
    old_map = old.machine_map if old is not None else {}
    new_map = new.machine_map
    kept = tuple(sorted(
        n for n in new_map if n in old_map and old_map[n] == new_map[n]
    ))
    changed = tuple(sorted(
        n for n in new_map if n in old_map and old_map[n] != new_map[n]
    ))
    added = tuple(sorted(n for n in new_map if n not in old_map))
    removed = tuple(sorted(n for n in old_map if n not in new_map))
    return CompatDiff(kept=kept, changed=changed, added=added, removed=removed)
