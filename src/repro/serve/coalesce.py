"""Request coalescing: same-shape requests share one ``batch()`` call.

The paper's economics — plan once, transform many — only pay when many
transforms actually flow through one plan.  The serving layer so far ran
one request at a time; this module groups concurrent requests whose
transforms are *identical work* — same length, same precision, same
degradation-ladder rung, hence the same :class:`~repro.core.soi_single
.SoiFFT` plan — into a single ``plan.batch()`` execution.

A :class:`CoalesceKey` identifies a group; a :class:`Coalescer` holds
the open windows (one bounded buffer per key) and decides when a window
is ripe: either it reached ``max_batch`` rows, or ``window_seconds``
elapsed since its first member (the gateway owns the timers — this
structure is clock-free and usable from the virtual-time load
generator).  The split back to per-request results is trivial because
row *i* of the batched spectrum IS request *i*'s spectrum, bitwise: the
convolution's GEMM tiles have one shape fixed by the plan's parameters,
sit at global row positions and run one frame at a time
(:func:`repro.core.convolution.convolve`), so batched and single
execution agree exactly (asserted by the differential tests).

The window members (:class:`PendingRequest`) and :func:`itemize_batch`,
which spreads one batch execution's cost back into their budgets, are
the request lifecycle's and live with it in
:mod:`repro.resilience.server`; they are re-exported here.
"""

from __future__ import annotations

import threading
from typing import NamedTuple

import numpy as np

from repro.resilience.server import PendingRequest, itemize_batch

__all__ = ["CoalesceKey", "Coalescer", "PendingRequest", "itemize_batch",
           "split_rows", "stack_requests"]


class CoalesceKey(NamedTuple):
    """Requests coalesce iff they agree on all three coordinates."""

    n: int
    dtype: str
    rung_index: int


class Coalescer:
    """Bounded coalescing windows, one per :class:`CoalesceKey`.

    Thread-safe.  ``add`` returns the window disposition so the caller
    can arm or cancel its flush timer:

    ``"first"``
        the request opened a new window — arm a timer for
        ``window_seconds`` from now;
    ``"queued"``
        it joined an existing window — nothing to do;
    ``"full"``
        it filled the window to ``max_batch`` — flush immediately.
    """

    def __init__(self, max_batch: int = 32, window_seconds: float = 2e-3):
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if window_seconds < 0:
            raise ValueError("window_seconds must be non-negative")
        self.max_batch = max_batch
        self.window_seconds = window_seconds
        self._windows: dict[CoalesceKey, list[PendingRequest]] = {}
        self._lock = threading.Lock()
        self.batches = 0
        self.coalesced_requests = 0

    def add(self, key: CoalesceKey, req: PendingRequest) -> str:
        with self._lock:
            window = self._windows.setdefault(key, [])
            window.append(req)
            if len(window) >= self.max_batch:
                return "full"
            return "first" if len(window) == 1 else "queued"

    def take(self, key: CoalesceKey) -> list[PendingRequest]:
        """Close and return a window (empty list if already flushed)."""
        with self._lock:
            members = self._windows.pop(key, [])
            if members:
                self.batches += 1
                self.coalesced_requests += len(members)
            return members

    def take_all(self) -> list[tuple[CoalesceKey, list[PendingRequest]]]:
        """Drain every open window (shutdown/flush-on-close)."""
        with self._lock:
            out = [(k, w) for k, w in self._windows.items() if w]
            self._windows.clear()
            for _, w in out:
                self.batches += 1
                self.coalesced_requests += len(w)
            return out

    @property
    def pending(self) -> int:
        with self._lock:
            return sum(len(w) for w in self._windows.values())

    @property
    def ratio(self) -> float:
        """Mean requests per executed batch (1.0 = no coalescing won)."""
        return self.coalesced_requests / self.batches if self.batches else 0.0


def stack_requests(members: list[PendingRequest], dtype) -> np.ndarray:
    """Stack member signals into the ``(rows, n)`` batch input."""
    return np.stack([np.asarray(m.x, dtype=dtype) for m in members])


def split_rows(y: np.ndarray,
               members: list[PendingRequest]) -> list[np.ndarray]:
    """Row *i* of the batched spectrum is member *i*'s result.

    Each row is copied out so a member's spectrum never aliases the
    batch buffer (or its window siblings' rows).
    """
    return [np.array(y[i], copy=True) for i in range(len(members))]
