"""Summary statistics and the host-time vs cycle-model reconciliation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10

#: ``CycleMeter`` category -> the layer (module under ``src/repro/``)
#: that does the modelled work.  ``analysis`` is the shadow analyzer's
#: own category, charged only during offline replays.
CATEGORY_LAYER: Dict[str, str] = {
    "base": "program",
    "encoding": "ccencoding",
    "interpose": "defense",
    "lookup": "defense",
    "metadata": "defense",
    "defense": "defense",
    "mmap": "machine",
    "mprotect": "machine",
    "sbrk": "machine",
    "analysis": "shadow",
}

#: A layer's host-time and cycle shares "disagree" when they differ by
#: more than this many percentage points.
DISAGREE_POINTS = 10.0


def median(values: Sequence[float]) -> float:
    """The median (mean of the middle pair for an even count)."""
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


@dataclass(frozen=True)
class Tail:
    """The highest percentile that still has ``beyond`` samples above it."""

    percentile: float
    value: float
    beyond: int
    samples: int


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> Tail:
    """The highest nearest-rank percentile with ``beyond`` samples past it.

    With ``n`` samples sorted ascending, the sample at 0-based rank
    ``n - beyond - 1`` has exactly ``beyond`` samples above it and sits
    at percentile ``100 * (n - beyond) / n``.  Fewer than ``beyond + 1``
    samples cannot meet the rule; the maximum is returned with the
    number of samples actually beyond it (0).
    """
    if not values:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return Tail(100.0, ordered[-1], 0, n)
    rank = n - beyond - 1
    return Tail(100.0 * (rank + 1) / n, ordered[rank], beyond, n)


def error_rate(attempted: int, failed: int) -> float:
    """Failed operations over attempted ones."""
    if attempted < 1:
        raise ValueError("error rate of no attempted operations")
    return failed / attempted


def cycle_shares(cycles: Mapping[str, float]) -> Dict[str, float]:
    """Each mapped layer's share of all simulated cycles.

    Categories missing from :data:`CATEGORY_LAYER` are collected under
    ``"unmapped"`` so the shares always sum to 1.
    """
    total = sum(cycles.values())
    shares: Dict[str, float] = {}
    if total <= 0:
        return shares
    for category, value in cycles.items():
        layer = CATEGORY_LAYER.get(category, "unmapped")
        shares[layer] = shares.get(layer, 0.0) + value / total
    return shares


@dataclass(frozen=True)
class Reconciled:
    """One layer's host self-time share beside its cycle share."""

    layer: str
    host_share: float
    cycle_share: Optional[float]

    @property
    def disagrees(self) -> bool:
        """True when the two shares differ by more than the threshold.

        Layers the cycle model does not charge (``cycle_share`` None)
        cannot be reconciled and are never flagged.
        """
        if self.cycle_share is None:
            return False
        gap = abs(self.host_share - self.cycle_share) * 100
        return gap > DISAGREE_POINTS


def reconcile(host_self: Mapping[str, float],
              cycles: Mapping[str, float]) -> List[Reconciled]:
    """Pair every layer's share of host self time with its cycle share.

    Host shares are taken over the summed self time of all traced
    layers; cycle shares over all cycles.  A layer the cycle model
    charges but the trace never saw still gets a row (host share 0).
    """
    host_total = sum(host_self.values())
    shares = cycle_shares(cycles)
    layers = sorted(set(host_self) | set(shares) - {"unmapped"})
    rows = []
    for layer in layers:
        host = host_self.get(layer, 0.0) / host_total if host_total else 0.0
        charged = layer in set(CATEGORY_LAYER.values())
        rows.append(Reconciled(layer, host,
                               shares.get(layer, 0.0) if charged else None))
    return rows


def finite(value: float) -> float:
    """Reject NaN/inf before a value reaches the JSON result line."""
    if not math.isfinite(value):
        raise ValueError(f"non-finite metric value {value!r}")
    return value
