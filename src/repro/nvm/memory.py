"""FRAM-like non-volatile memory with named persistent cells.

Cells are allocated by name, carry an approximate byte size (used by the
Table 2 memory accountant), and keep their value across simulated power
failures. A :class:`NonVolatileMemory` instance outlives the device's
volatile state: the simulator wipes everything *except* this object on
reboot.

Integrity model: silent corruption — injected with
:meth:`NonVolatileMemory.corrupt`, the simulation's bit-flip fault — is
detectable by :meth:`verify` without being observable through normal
reads. Checksums are recorded lazily: a legitimate write (``set``,
``alloc``, ``restore_initial``) drops the cell's recorded checksum, and
a cell with no record holds exactly its last-written value, so it
verifies without hashing. ``corrupt`` first records the checksum of the
last-written value, then flips the bit, and :meth:`checksum` records on
demand. Every observed checksum is therefore the one an eager
record-on-every-write rule would hold, as long as nothing mutates a
stored value in place. Cells can also be given a wear limit after
which they go read-only, modelling worn-out storage.
"""

from __future__ import annotations

import copy
import struct
import zlib
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import NVMError

#: FRAM capacity of the MSP430FR5994 used in the paper (bytes).
DEFAULT_CAPACITY_BYTES = 256 * 1024


#: Bounded memo for checksums of small immutable scalars. Cell writes
#: do not checksum (see the module docstring), but the access log
#: signs every write under ``verify``, and monitors, journals and the
#: persistent clock rewrite the same handful of states and counters
#: millions of times per exploration.
#: Keys carry the concrete type so ``True``/``1`` and ``1``/``1.0``
#: never alias; ``±0.0`` (equal, different reprs) stays unmemoized.
_CHECKSUM_MEMO: dict = {}
_CHECKSUM_MEMO_MAX = 4096


def value_checksum(value: Any) -> int:
    """Deterministic checksum of a cell value (CRC-32 over its repr)."""
    t = type(value)
    if (t is int or t is bool
            or (t is float and value != 0.0)
            or (t is str and len(value) <= 64)):
        key = (t, value)
        memo = _CHECKSUM_MEMO
        checksum = memo.get(key)
        if checksum is None:
            checksum = zlib.crc32(
                repr(value).encode("utf-8", "backslashreplace"))
            if len(memo) >= _CHECKSUM_MEMO_MAX:
                memo.clear()
            memo[key] = checksum
        return checksum
    return zlib.crc32(repr(value).encode("utf-8", "backslashreplace"))


def serialized_size_bytes(value: Any, floor: int = 8) -> int:
    """Approximate serialized size of a cell value in bytes.

    Sized from the value's ``repr`` (the same canonical form the
    checksums hash), floored at one machine word's worth of accounting,
    so memory and wear tracking stay truthful for tuples/lists instead
    of pretending every value is one word.
    """
    return max(floor, len(repr(value).encode("utf-8", "backslashreplace")))


def _flip(value: Any, bit: int) -> Any:
    """Return ``value`` with one bit (conceptually) flipped.

    Type-preserving where possible so the corruption stays *silent*:
    reads succeed and return plausible garbage; only a checksum can tell.
    """
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value ^ (1 << bit)
    if isinstance(value, float):
        raw = bytearray(struct.pack(">d", value))
        raw[(bit // 8) % 8] ^= 1 << (bit % 8)
        return struct.unpack(">d", bytes(raw))[0]
    if isinstance(value, str):
        if not value:
            return "\x00"
        return chr(ord(value[0]) ^ (1 << (bit % 7))) + value[1:]
    if value is None:
        return 1 << bit
    if isinstance(value, tuple) and value:
        return (_flip(value[0], bit),) + value[1:]
    if isinstance(value, list) and value:
        return [_flip(value[0], bit)] + list(value[1:])
    if isinstance(value, dict) and value:
        key = next(iter(value))
        flipped = dict(value)
        flipped[key] = _flip(value[key], bit)
        return flipped
    # Empty containers and exotic objects: unrecognisable garbage.
    return f"�{value!r}"


class PersistentCell:
    """A single named value living in non-volatile memory.

    Reads and writes go straight to the backing store — like FRAM, writes
    are immediately durable (no flush step). Use
    :class:`~repro.nvm.transaction.Transaction` for staged writes that
    must commit atomically at task boundaries.
    """

    __slots__ = ("_nvm", "name", "size_bytes")

    def __init__(self, nvm: "NonVolatileMemory", name: str, size_bytes: int):
        self._nvm = nvm
        self.name = name
        self.size_bytes = size_bytes

    def get(self) -> Any:
        nvm = self._nvm
        if nvm._access_log is not None:
            nvm._access_log.on_read(self.name)
        return nvm._data[self.name]

    def set(self, value: Any) -> None:
        nvm = self._nvm
        limit = nvm._write_limits.get(self.name)
        if limit is not None and nvm._cell_writes.get(self.name, 0) >= limit[0]:
            if limit[1]:  # silent wear: the write is dropped, not flagged
                nvm._wear_dropped += 1
                return
            raise NVMError(
                f"cell {self.name!r} worn out: read-only after "
                f"{limit[0]} writes"
            )
        nvm._data[self.name] = value
        nvm._checksums.pop(self.name, None)
        nvm._write_count += 1
        counts = nvm._cell_writes
        counts[self.name] = counts.get(self.name, 0) + 1
        if nvm._access_log is not None:
            nvm._access_log.on_write(self.name, value)

    # Convenience property-style access.
    value = property(get, set)

    def __repr__(self) -> str:
        return f"PersistentCell({self.name!r}={self.get()!r})"


class NonVolatileMemory:
    """Byte-accounted store of named persistent cells.

    Args:
        capacity_bytes: total FRAM capacity; allocation beyond it raises
            :class:`~repro.errors.NVMError`, mirroring a link-time overflow
            on the real MCU.
    """

    def __init__(self, capacity_bytes: int = DEFAULT_CAPACITY_BYTES):
        if capacity_bytes <= 0:
            raise NVMError("NVM capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self._data: Dict[str, Any] = {}
        self._cells: Dict[str, PersistentCell] = {}
        self._used_bytes = 0
        self._write_count = 0
        self._cell_writes: Dict[str, int] = {}
        #: Recorded checksums; a cell absent here holds its last write.
        self._checksums: Dict[str, int] = {}
        self._initials: Dict[str, Any] = {}
        self._write_limits: Dict[str, Tuple[int, bool]] = {}
        self._wear_dropped = 0
        #: Optional access-log observer (see :mod:`repro.nvm.accesslog`).
        self._access_log = None
        #: Cells declared crash-progress points at allocation time.
        self._progress_cells: set = set()

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def alloc(self, name: str, initial: Any = None, size_bytes: int = 8,
              progress: bool = False) -> PersistentCell:
        """Allocate a named cell, or return the existing one after reboot.

        Allocation is idempotent by name: on reboot the runtime re-runs its
        initialisation code, and re-allocating an existing cell returns the
        surviving cell *without* resetting its value (that is the whole
        point of FRAM). Passing a different ``size_bytes`` for an existing
        name is an error, as it would be with a linker-placed symbol.

        ``progress=True`` declares the cell a *crash-progress point*: a
        cell the runtime updates with single atomic writes as its
        intentional, crash-visible linearization mechanism (task program
        counters, retry counters, chunk cursors, A/B slot switches).
        Such cells are read-then-written across reboots *by design* —
        re-execution observing the post-write value is exactly the
        resume semantics — so the write-after-read hazard oracle
        (:mod:`repro.verify.memmodel`) exempts them, the same way
        DINO/Alpaca-style systems exempt manually-verified idempotent
        state from privatization. The declaration is sticky across the
        idempotent re-allocation on reboot.
        """
        if size_bytes <= 0:
            raise NVMError(f"cell {name!r}: size must be positive")
        if progress:
            self._progress_cells.add(name)
        existing = self._cells.get(name)
        if existing is not None:
            if existing.size_bytes != size_bytes:
                raise NVMError(
                    f"cell {name!r} re-allocated with size {size_bytes} "
                    f"!= original {existing.size_bytes}"
                )
            return existing
        if self._used_bytes + size_bytes > self.capacity_bytes:
            raise NVMError(
                f"NVM overflow allocating {name!r}: "
                f"{self._used_bytes} + {size_bytes} > {self.capacity_bytes}"
            )
        cell = PersistentCell(self, name, size_bytes)
        self._cells[name] = cell
        self._data[name] = initial
        self._initials[name] = copy.deepcopy(initial)
        self._used_bytes += size_bytes
        return cell

    def grow(self, name: str, size_bytes: int) -> PersistentCell:
        """Grow an existing cell's accounted size to at least ``size_bytes``.

        Channel cells sized by their serialized value (rather than the old
        flat 8 bytes) can legitimately need more room when a later write
        stores a bigger tuple/list. Growing re-checks capacity; shrinking
        is never done (a linker-placed buffer does not give bytes back).
        """
        cell = self.cell(name)
        if size_bytes <= cell.size_bytes:
            return cell
        extra = size_bytes - cell.size_bytes
        if self._used_bytes + extra > self.capacity_bytes:
            raise NVMError(
                f"NVM overflow growing {name!r} to {size_bytes}: "
                f"{self._used_bytes} + {extra} > {self.capacity_bytes}"
            )
        cell.size_bytes = size_bytes
        self._used_bytes += extra
        return cell

    def free(self, name: str) -> None:
        """Release a cell (used by tests; real FRAM layout is static)."""
        cell = self._cells.pop(name, None)
        if cell is None:
            raise NVMError(f"cell {name!r} not allocated")
        self._used_bytes -= cell.size_bytes
        del self._data[name]
        self._checksums.pop(name, None)
        self._initials.pop(name, None)
        self._write_limits.pop(name, None)

    # ------------------------------------------------------------------
    # Integrity: checksums, corruption, wear
    # ------------------------------------------------------------------
    def verify(self, name: str) -> bool:
        """True if cell ``name`` still matches its last recorded checksum.

        A cell with no recorded checksum holds its last-written value,
        so it verifies without hashing.
        """
        if name not in self._cells:
            raise NVMError(f"cell {name!r} not allocated")
        recorded = self._checksums.get(name)
        return recorded is None or value_checksum(self._data[name]) == recorded

    def verify_all(self) -> List[str]:
        """Names of all cells failing checksum verification."""
        return [name for name in self.recorded_cells() if not self.verify(name)]

    def recorded_cells(self) -> List[str]:
        """Cells holding a recorded checksum, in allocation order.

        Only these can fail :meth:`verify`, so a boot-time scan need
        visit no other cell.
        """
        checksums = self._checksums
        if not checksums:
            return []
        return [name for name in self._cells if name in checksums]

    def checksum(self, name: str) -> int:
        """The cell's recorded checksum, recording it first if absent.

        An absent record means the cell holds its last-written value, so
        the checksum recorded here is the one that write would have left.
        """
        if name not in self._cells:
            raise NVMError(f"cell {name!r} not allocated")
        recorded = self._checksums.get(name)
        if recorded is None:
            recorded = value_checksum(self._data[name])
            self._checksums[name] = recorded
        return recorded

    def corrupt(self, name: str, bit: int = 0) -> Any:
        """Silently corrupt a cell, as a cosmic-ray bit flip would.

        The checksum of the last-written value is recorded first; then
        the stored value changes but the record (and the write counters)
        do not, so normal reads return the garbage while :meth:`verify`
        detects the damage. Returns the corrupted value.
        """
        self.checksum(name)
        corrupted = _flip(self._data[name], bit)
        self._data[name] = corrupted
        return corrupted

    def restore_initial(self, name: str) -> Any:
        """Reset a cell to its allocation-time initial value.

        The generic corruption repair: the cell's content cannot be
        trusted, so it is reset to the value static initialisation would
        have produced. Returns the restored value.
        """
        if name not in self._cells:
            raise NVMError(f"cell {name!r} not allocated")
        value = copy.deepcopy(self._initials[name])
        self._cells[name].set(value)
        return value

    def set_write_limit(self, name: str, limit: int, silent: bool = False) -> None:
        """Make a cell wear out: read-only after ``limit`` total writes.

        With ``silent=False`` (default) an over-limit write raises
        :class:`~repro.errors.NVMError`; with ``silent=True`` it is
        dropped and counted in :attr:`wear_dropped` — the nastier,
        harder-to-detect failure mode of real worn storage.
        """
        if name not in self._cells:
            raise NVMError(f"cell {name!r} not allocated")
        if limit < 0:
            raise NVMError("write limit must be non-negative")
        self._write_limits[name] = (limit, silent)

    def is_worn(self, name: str) -> bool:
        """True if the cell has exhausted its write limit."""
        limit = self._write_limits.get(name)
        return limit is not None and self._cell_writes.get(name, 0) >= limit[0]

    @property
    def wear_dropped(self) -> int:
        """Writes silently dropped by worn-out cells."""
        return self._wear_dropped

    # ------------------------------------------------------------------
    # Access logging (memory-model verification)
    # ------------------------------------------------------------------
    def attach_access_log(self, log) -> None:
        """Observe every cell read/write with ``log`` (an
        :class:`~repro.nvm.accesslog.AccessLog`). One observer at a
        time; pass ``None`` via :meth:`detach_access_log` to stop."""
        self._access_log = log

    def detach_access_log(self):
        """Stop access logging; returns the detached log (or ``None``)."""
        log, self._access_log = self._access_log, None
        return log

    @property
    def access_log(self):
        """The attached access log, or ``None``."""
        return self._access_log

    @property
    def progress_cells(self) -> frozenset:
        """Cells declared ``progress=True`` at allocation."""
        return frozenset(self._progress_cells)

    def is_progress(self, name: str) -> bool:
        """True if ``name`` was declared a crash-progress cell."""
        return name in self._progress_cells

    def raw_get(self, name: str, default: Any = None) -> Any:
        """Read a cell value without touching the access log.

        For observers (fingerprinting, state projection) that must not
        pollute the very log they are analysing. Returns ``default``
        for unallocated cells instead of raising.
        """
        return self._data.get(name, default)

    def raw_items(self):
        """Iterate ``(name, value)`` pairs without touching the access
        log (observer use; see :meth:`raw_get`)."""
        return self._data.items()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cell(self, name: str) -> PersistentCell:
        try:
            return self._cells[name]
        except KeyError:
            raise NVMError(f"cell {name!r} not allocated") from None

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def __iter__(self) -> Iterator[str]:
        return iter(self._cells)

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self._used_bytes

    @property
    def write_count(self) -> int:
        """Total writes performed (FRAM wear / overhead accounting)."""
        return self._write_count

    def snapshot(self) -> Dict[str, Any]:
        """Deep copy of all cell values (for checkpoint-diff tests)."""
        return copy.deepcopy(self._data)

    def state_fingerprint(self) -> int:
        """CRC-32 fingerprint of the complete durable state.

        Covers every allocated cell name and value (in sorted-name
        order, so insertion order does not leak in). Two memories with
        the same fingerprint hold the same committed state for all
        practical purposes; the conformance checker
        (:mod:`repro.verify`) uses this to prune crash points that
        would resume from an NVM snapshot it has already explored.
        """
        acc = 0
        for name in sorted(self._data):
            acc = zlib.crc32(
                repr((name, self._data[name])).encode("utf-8", "backslashreplace"),
                acc,
            )
        return acc

    def usage_report(self) -> Dict[str, int]:
        """Per-cell byte usage, sorted descending by size."""
        sizes = {name: cell.size_bytes for name, cell in self._cells.items()}
        return dict(sorted(sizes.items(), key=lambda kv: -kv[1]))

    def wear_report(self, top: Optional[int] = None) -> Dict[str, int]:
        """Per-cell write counts, hottest first.

        FRAM endurance is enormous (~1e15 cycles) but write *energy* is
        not free and hot cells reveal protocol bugs (e.g. a monitor
        variable rewritten on every event when it should change rarely).
        """
        ordered = dict(sorted(self._cell_writes.items(), key=lambda kv: -kv[1]))
        if top is not None:
            ordered = dict(list(ordered.items())[:top])
        return ordered

    def writes_to(self, name: str) -> int:
        """Write count of one cell (0 if never written)."""
        return self._cell_writes.get(name, 0)


def namespaced(nvm: NonVolatileMemory, prefix: str):
    """Return an ``alloc`` function that prefixes all cell names.

    Lets independently generated monitors allocate cells without clashing,
    the same way the C generator prefixes monitor variables.
    """

    def alloc(name: str, initial: Any = None, size_bytes: int = 8,
              progress: bool = False) -> PersistentCell:
        return nvm.alloc(f"{prefix}.{name}", initial, size_bytes,
                         progress=progress)

    return alloc
