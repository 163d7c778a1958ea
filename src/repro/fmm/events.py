"""Communication-event containers.

A :class:`CommunicationEvents` instance is a multiset of point-to-point
communications — ``(source rank, destination rank)`` pairs — produced by
a model (FMM near/far field, a collective primitive, ...).  Events are
stored as a list of array chunks so million-event models never pay for a
monolithic reallocation, and metric evaluation can stream chunk by
chunk.

Events may optionally carry integer *weights* (message sizes in
arbitrary volume units); a weighted event counts ``w`` times toward the
ACD, which turns the metric into "average distance per unit of data
moved" — the data-volume refinement §VIII lists as future work.
Unweighted chunks behave as weight 1 throughout.

:meth:`CommunicationEvents.compact` collapses the multiset into a
:class:`PairHistogram` — the aggregated weight of every distinct
``(src, dst)`` rank pair.  The histogram determines every metric that
only looks at endpoints (the ACD in particular) and is bounded by
``p**2`` entries regardless of how many million events produced it,
which makes it the natural artifact to cache and share when the same
event stream is evaluated against many networks.  Compaction sorts the
flattened pair keys and counts runs, so its time and scratch memory
scale with the events, never with the ``p**2`` rank space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro._typing import IntArray
from repro.util.validation import as_index_array

__all__ = ["CommunicationEvents", "PairHistogram"]


@dataclass(frozen=True)
class PairHistogram:
    """Aggregated event weight per distinct ``(src, dst)`` rank pair.

    Entries are sorted by the flattened key ``src * p + dst`` and carry
    strictly positive integer weights, so two histograms built from the
    same multiset, in any chunk order, are bit-identical.  All ACD
    arithmetic on a histogram stays in integers, which keeps it exactly
    equivalent to streaming over the raw events.

    Attributes
    ----------
    src, dst:
        The distinct communicating rank pairs (``int64``, equal length).
    weights:
        Total event weight per pair (``int64``, all ``> 0``).
    num_processors:
        The rank space ``p`` the pairs live in (flattening base).
    num_events:
        Number of raw events the histogram was compacted from.
    """

    src: IntArray
    dst: IntArray
    weights: IntArray
    num_processors: int
    num_events: int

    @property
    def total_weight(self) -> int:
        """Sum of all pair weights (= raw event count when unweighted)."""
        return int(self.weights.sum()) if self.weights.size else 0

    @property
    def num_pairs(self) -> int:
        """Number of distinct communicating rank pairs."""
        return int(self.src.size)

    @property
    def nbytes(self) -> int:
        """Memory footprint of the three entry arrays."""
        return int(self.src.nbytes + self.dst.nbytes + self.weights.nbytes)

    def flat_keys(self) -> IntArray:
        """The flattened ``src * p + dst`` keys (row-major ``p x p`` index)."""
        return self.src * self.num_processors + self.dst

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PairHistogram(pairs={self.num_pairs}, events={self.num_events}, "
            f"p={self.num_processors})"
        )


class CommunicationEvents:
    """A multiset of point-to-point communications between ranks.

    Parameters
    ----------
    component:
        Optional label naming which phase of an algorithm produced these
        events (e.g. ``"interpolation"``).
    """

    def __init__(self, component: str = ""):
        self.component = component
        self._chunks: list[tuple[IntArray, IntArray, IntArray | None]] = []
        self._count = 0
        self._weight = 0

    # ------------------------------------------------------------------
    def add(self, src, dst, weights=None) -> None:
        """Append a chunk of events (equal-length rank arrays or scalars).

        ``weights`` optionally assigns a non-negative integer volume to
        each event; omitted weights count as 1.
        """
        s = np.atleast_1d(as_index_array(src, "src"))
        d = np.atleast_1d(as_index_array(dst, "dst"))
        if s.shape != d.shape or s.ndim != 1:
            raise ValueError(
                f"src and dst must be equal-length 1D arrays, got {s.shape} vs {d.shape}"
            )
        w: IntArray | None = None
        if weights is not None:
            w = np.atleast_1d(as_index_array(weights, "weights"))
            if w.shape != s.shape:
                raise ValueError(
                    f"weights must match src length, got {w.shape} vs {s.shape}"
                )
            if w.size and w.min() < 0:
                raise ValueError("weights must be non-negative")
        if s.size:
            self._chunks.append((s, d, w))
            self._count += int(s.size)
            self._weight += int(w.sum()) if w is not None else int(s.size)

    def extend(self, other: "CommunicationEvents") -> None:
        """Append every chunk of ``other`` (labels are not merged)."""
        for s, d, w in other.iter_weighted_chunks():
            self.add(s, d, w)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    @property
    def total_weight(self) -> int:
        """Sum of event weights (equals ``len(self)`` when unweighted)."""
        return self._weight

    def iter_chunks(self) -> Iterator[tuple[IntArray, IntArray]]:
        """Yield the stored ``(src, dst)`` chunks without copying."""
        for s, d, _ in self._chunks:
            yield s, d

    def iter_weighted_chunks(self) -> Iterator[tuple[IntArray, IntArray, IntArray | None]]:
        """Yield ``(src, dst, weights_or_None)`` chunks without copying."""
        yield from self._chunks

    def pairs(self) -> tuple[IntArray, IntArray]:
        """Concatenate all chunks into two flat arrays (copies)."""
        if not self._chunks:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy()
        src = np.concatenate([s for s, _, _ in self._chunks])
        dst = np.concatenate([d for _, d, _ in self._chunks])
        return src, dst

    def reversed(self) -> "CommunicationEvents":
        """A new container with every event's direction flipped.

        The anterpolation phase of the FMM is exactly the interpolation
        phase reversed (§IV step 7), so this is cheap by construction.
        """
        out = CommunicationEvents(component=self.component)
        for s, d, w in self._chunks:
            out.add(d, s, w)
        return out

    def compact(self, num_processors: int | None = None) -> PairHistogram:
        """Collapse the multiset into a :class:`PairHistogram`.

        Parameters
        ----------
        num_processors:
            The rank space ``p``; defaults to ``max_rank() + 1``.  Every
            referenced rank must satisfy ``0 <= rank < p``.

        The flattened ``src * p + dst`` keys are sorted and every run of
        equal keys becomes one entry: its length for unweighted events,
        the int64 sum of its weights otherwise (pairs whose weights sum
        to zero are dropped).  The result is independent of chunk
        boundaries and chunk order.
        """
        p = self.max_rank() + 1 if num_processors is None else int(num_processors)
        if p < 1:
            p = 1
        if self.max_rank() >= p:
            raise ValueError(
                f"events reference rank {self.max_rank()} outside the "
                f"{p}-processor rank space"
            )
        empty = np.empty(0, dtype=np.int64)
        if not self._chunks:
            return PairHistogram(empty, empty.copy(), empty.copy(), p, 0)
        keys = np.concatenate(
            [s.astype(np.int64) * p + d for s, d, _ in self._chunks]
        )
        unweighted = all(w is None for _, _, w in self._chunks)
        if unweighted:
            keys.sort()
        else:
            weights = np.concatenate(
                [
                    w.astype(np.int64) if w is not None else np.ones(s.size, np.int64)
                    for s, d, w in self._chunks
                ]
            )
            order = np.argsort(keys)
            keys, weights = keys[order], weights[order]
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        flat = keys[starts]
        if unweighted:
            agg = np.diff(np.append(starts, keys.size))
        else:
            agg = np.add.reduceat(weights, starts)
            keep = agg > 0  # zero-weight events contribute no histogram mass
            flat, agg = flat[keep], agg[keep]
        agg = agg.astype(np.int64, copy=False)
        return PairHistogram(flat // p, flat % p, agg, p, self._count)

    def max_rank(self) -> int:
        """Largest rank referenced by any event (-1 when empty)."""
        best = -1
        for s, d, _ in self._chunks:
            best = max(best, int(s.max()), int(d.max()))
        return best

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" component={self.component!r}" if self.component else ""
        return f"CommunicationEvents(n={self._count}{label})"
