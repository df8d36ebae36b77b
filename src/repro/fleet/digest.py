"""A mergeable quantile digest and windowed telemetry rollups.

The control plane (:mod:`repro.fleet.control`) never holds a fleet's
raw telemetry: at a million devices the per-device reports are a
firehose, and rollout gates need quantiles ("p99 violation rate this
window"), not samples. This module provides the sketch the plane
ingests into, plus the time-window bucketing that turns an unbounded
stream into a bounded ledger:

* :class:`QuantileDigest` — a mergeable log-binned sketch (the DDSketch
  construction): any quantile with a guaranteed *relative* value error
  ``<= relative_error``, and a merge that is **exactly associative and
  commutative** (bin-wise integer addition), so per-shard digests can
  be folded in any order — the property the sharded registry relies on.
* :class:`WindowedRollup` — fixed-width, boundary-aligned time windows
  (window ``k`` covers ``[k*window_s, (k+1)*window_s)``), each holding
  count/sum/min/max plus a :class:`QuantileDigest`; rollups merge
  window-wise, again associatively.

Everything here is pure Python with integer bin counts: results are
deterministic and platform-independent, which the streamed-equals-batch
soak tests depend on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import FleetError


class DigestError(FleetError):
    """Misuse of a sketch (empty quantile query, mismatched merge)."""


# ---------------------------------------------------------------------------
# Mergeable log-binned quantile digest
# ---------------------------------------------------------------------------


class QuantileDigest:
    """Mergeable quantile sketch with bounded relative value error.

    Values are hashed to geometric bins ``(gamma^(k-1), gamma^k]`` with
    ``gamma = (1+e)/(1-e)``; a bin's representative is at most a factor
    ``(1+e)`` from any value in it, so ``quantile(q)`` is within
    relative error ``e`` of the true sample at that rank. Negative
    values mirror into their own bin table; magnitudes below
    ``epsilon`` collapse into an exact-zero bucket (their error bound is
    absolute: ``epsilon``).

    ``merge`` adds bin counts (integers) and folds min/max — it is
    exactly associative and commutative, so shard-local digests can be
    combined in any order with a bit-identical result.
    """

    def __init__(self, relative_error: float = 0.01,
                 epsilon: float = 1e-12):
        if not 0.0 < relative_error < 1.0:
            raise DigestError(
                f"relative_error must be in (0, 1), got {relative_error}")
        self.relative_error = relative_error
        self.epsilon = epsilon
        self.gamma = (1.0 + relative_error) / (1.0 - relative_error)
        self._log_gamma = math.log(self.gamma)
        self.count = 0
        self.zeros = 0
        self.bins: Dict[int, int] = {}
        self.neg_bins: Dict[int, int] = {}
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    # -- ingestion ---------------------------------------------------------
    def _key(self, magnitude: float) -> int:
        return int(math.ceil(math.log(magnitude) / self._log_gamma))

    def _representative(self, key: int) -> float:
        return 2.0 * self.gamma ** key / (self.gamma + 1.0)

    def add(self, x: float, n: int = 1) -> None:
        """Fold ``n`` copies of ``x`` into the sketch."""
        if n < 1:
            raise DigestError(f"n must be >= 1, got {n}")
        x = float(x)
        if math.isnan(x) or math.isinf(x):
            raise DigestError(f"cannot add non-finite sample {x!r}")
        self.count += n
        self._min = x if self._min is None else min(self._min, x)
        self._max = x if self._max is None else max(self._max, x)
        if abs(x) < self.epsilon:
            self.zeros += n
        elif x > 0:
            k = self._key(x)
            self.bins[k] = self.bins.get(k, 0) + n
        else:
            k = self._key(-x)
            self.neg_bins[k] = self.neg_bins.get(k, 0) + n

    # -- queries -----------------------------------------------------------
    def quantile(self, q: float) -> float:
        """Value estimate at quantile ``q`` (rank ``ceil(q*(n-1))``).

        Guarantee: the result is within relative error
        ``relative_error`` of the true sample at that rank (absolute
        error ``epsilon`` for near-zero samples), and exact for
        ``q in {0, 1}``.
        """
        if self.count == 0:
            raise DigestError("quantile() on an empty digest")
        if not 0.0 <= q <= 1.0:
            raise DigestError(f"quantile must be in [0, 1], got {q}")
        if q == 0.0:
            return self._min  # type: ignore[return-value]
        if q == 1.0:
            return self._max  # type: ignore[return-value]
        rank = max(0, min(self.count - 1, math.ceil(q * (self.count - 1))))
        cum = 0
        # Ascending value order: negatives (large magnitude first), the
        # zero bucket, then positives (small magnitude first).
        for key in sorted(self.neg_bins, reverse=True):
            cum += self.neg_bins[key]
            if cum >= rank + 1:
                return self._clamp(-self._representative(key))
        cum += self.zeros
        if cum >= rank + 1:
            # Clamp keeps the estimate inside the observed range even
            # when every "zero" sample was a sub-epsilon positive (or
            # negative) — error stays bounded by epsilon either way.
            return self._clamp(0.0)
        for key in sorted(self.bins):
            cum += self.bins[key]
            if cum >= rank + 1:
                return self._clamp(self._representative(key))
        return self._max  # type: ignore[return-value]  # float slack

    def _clamp(self, value: float) -> float:
        return max(self._min, min(self._max, value))  # type: ignore[arg-type]

    def quantiles(self, qs: Iterable[float]) -> List[float]:
        return [self.quantile(q) for q in qs]

    @property
    def min(self) -> Optional[float]:
        return self._min

    @property
    def max(self) -> Optional[float]:
        return self._max

    # -- merge -------------------------------------------------------------
    def merge(self, other: "QuantileDigest") -> "QuantileDigest":
        """A new digest equal to folding both inputs' samples.

        Exactly associative and commutative: bin counts add, extremes
        fold through min/max. Raises on mismatched accuracy settings.
        """
        if not isinstance(other, QuantileDigest):
            raise DigestError(f"cannot merge {type(other).__name__}")
        if (other.relative_error != self.relative_error
                or other.epsilon != self.epsilon):
            raise DigestError(
                "cannot merge digests with different accuracy settings")
        out = QuantileDigest(self.relative_error, self.epsilon)
        out.count = self.count + other.count
        out.zeros = self.zeros + other.zeros
        for src in (self.bins, other.bins):
            for k, n in src.items():
                out.bins[k] = out.bins.get(k, 0) + n
        for src in (self.neg_bins, other.neg_bins):
            for k, n in src.items():
                out.neg_bins[k] = out.neg_bins.get(k, 0) + n
        mins = [m for m in (self._min, other._min) if m is not None]
        maxs = [m for m in (self._max, other._max) if m is not None]
        out._min = min(mins) if mins else None
        out._max = max(maxs) if maxs else None
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantileDigest):
            return NotImplemented
        return (self.relative_error == other.relative_error
                and self.epsilon == other.epsilon
                and self.count == other.count
                and self.zeros == other.zeros
                and self.bins == other.bins
                and self.neg_bins == other.neg_bins
                and self._min == other._min
                and self._max == other._max)

    __hash__ = None  # type: ignore[assignment]

    # -- wire --------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "relative_error": self.relative_error,
            "epsilon": self.epsilon,
            "count": self.count,
            "zeros": self.zeros,
            "bins": {str(k): v for k, v in self.bins.items()},
            "neg_bins": {str(k): v for k, v in self.neg_bins.items()},
            "min": self._min,
            "max": self._max,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "QuantileDigest":
        out = cls(float(doc["relative_error"]), float(doc["epsilon"]))
        out.count = int(doc["count"])
        out.zeros = int(doc["zeros"])
        out.bins = {int(k): int(v) for k, v in doc["bins"].items()}
        out.neg_bins = {int(k): int(v) for k, v in doc["neg_bins"].items()}
        out._min = None if doc["min"] is None else float(doc["min"])
        out._max = None if doc["max"] is None else float(doc["max"])
        return out


# ---------------------------------------------------------------------------
# Windowed rollups
# ---------------------------------------------------------------------------


@dataclass
class WindowStat:
    """One closed or in-progress rollup window ``[start, start+width)``."""

    start: float
    width: float
    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    digest: QuantileDigest = field(default_factory=QuantileDigest)

    @property
    def end(self) -> float:
        return self.start + self.width

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "start": self.start, "end": self.end, "count": self.count,
            "mean": self.mean,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
            "p50": self.digest.quantile(0.5) if self.count else None,
            "p99": self.digest.quantile(0.99) if self.count else None,
        }


class WindowedRollup:
    """Boundary-aligned fixed-width time windows over a value stream.

    Window ``k`` covers exactly ``[k*window_s, (k+1)*window_s)`` — a
    sample at ``t`` lands in window ``floor(t / window_s)``, so a sample
    exactly on a boundary opens the *new* window. Two rollups with the
    same width and accuracy merge window-wise (associatively).
    """

    def __init__(self, window_s: float, relative_error: float = 0.01):
        if window_s <= 0:
            raise DigestError(f"window_s must be > 0, got {window_s}")
        self.window_s = float(window_s)
        self.relative_error = relative_error
        self._windows: Dict[int, WindowStat] = {}

    def window_index(self, t: float) -> int:
        return int(math.floor(t / self.window_s))

    def window_start(self, t: float) -> float:
        return self.window_index(t) * self.window_s

    def add(self, t: float, value: float, n: int = 1) -> WindowStat:
        """Fold ``n`` copies of a sample at time ``t``; returns its
        window."""
        idx = self.window_index(t)
        stat = self._windows.get(idx)
        if stat is None:
            stat = WindowStat(start=idx * self.window_s, width=self.window_s,
                              digest=QuantileDigest(self.relative_error))
            self._windows[idx] = stat
        stat.digest.add(value, n)
        stat.count += n
        stat.total += value * n
        stat.min = min(stat.min, value)
        stat.max = max(stat.max, value)
        return stat

    @property
    def count(self) -> int:
        return sum(w.count for w in self._windows.values())

    def windows(self) -> List[WindowStat]:
        """All windows in ascending start order."""
        return [self._windows[k] for k in sorted(self._windows)]

    def merge(self, other: "WindowedRollup") -> "WindowedRollup":
        """Window-wise merge (associative; same width/accuracy only)."""
        if (other.window_s != self.window_s
                or other.relative_error != self.relative_error):
            raise DigestError(
                "cannot merge rollups with different window/accuracy")
        out = WindowedRollup(self.window_s, self.relative_error)
        for src in (self._windows, other._windows):
            for idx, stat in src.items():
                have = out._windows.get(idx)
                if have is None:
                    merged = WindowStat(
                        start=stat.start, width=stat.width, count=stat.count,
                        total=stat.total, min=stat.min, max=stat.max,
                        digest=stat.digest.merge(
                            QuantileDigest(self.relative_error)),
                    )
                    out._windows[idx] = merged
                else:
                    have.count += stat.count
                    have.total += stat.total
                    have.min = min(have.min, stat.min)
                    have.max = max(have.max, stat.max)
                    have.digest = have.digest.merge(stat.digest)
        return out

    def to_rows(self) -> List[Dict[str, object]]:
        return [w.to_dict() for w in self.windows()]
