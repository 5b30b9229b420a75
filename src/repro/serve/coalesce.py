"""Request coalescing: same-shape requests share one ``batch()`` call.

The paper's economics — plan once, transform many — only pay when many
transforms actually flow through one plan.  The serving layer so far ran
one request at a time; this module groups concurrent requests whose
transforms are *identical work* — same length, same precision, same
degradation-ladder rung, hence the same :class:`~repro.core.soi_single
.SoiFFT` plan — into a single ``plan.batch()`` execution.

A :class:`CoalesceKey` identifies a group — a *lane*: one plan, whose
batches run one after another.  A :class:`Coalescer` holds the open
windows (one bounded buffer per key) and states, once, when a window
closes:

* it is **full** (``max_batch`` rows);
* its **timer** fired (``window_seconds`` since its first member); or
* **no batch of its key is in flight** — the lane is free.

The third rule makes coalescing work-conserving: a request never waits
on an idle lane, and batches form *because* the lane is busy (company
arrives while a batch runs, and rides the next one), not because a
clock said wait.  ``window_seconds`` is therefore only ever spent
behind a running batch: it bounds how long a request waits for company
when the batch ahead of it is slow.  The structure is clock-free — it
says *what* to do (``add``'s disposition, ``done``'s verdict) and its
two drivers own *when*: the gateway with event-loop timers, the
virtual-time load generator with an event heap.  The split back to
per-request results is trivial because
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
    """Bounded, work-conserving coalescing windows, one per key.

    Thread-safe and clock-free.  ``add`` returns the window disposition,
    which tells the driver when to close the window with ``take``:

    ``"idle"``
        the request opened a window and no batch of its key is in
        flight — close it at the end of this instant (whatever arrives
        in the same instant still rides along);
    ``"first"``
        it opened a window behind a running batch — arm a timer for
        ``window_seconds``; ``done`` will usually close it sooner;
    ``"queued"``
        it joined an open window — nothing to do;
    ``"full"``
        it filled the window to ``max_batch`` — close it now.

    ``take`` closes a window and marks its batch in flight; ``done``
    ends one batch and answers whether the lane is now free with a
    window gathered behind it — close that one now.  A driver that
    never calls ``done`` only ever sees ``"first"`` after its first
    ``take``: the timer-and-size policy.
    """

    def __init__(self, max_batch: int = 32, window_seconds: float = 2e-3):
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if window_seconds < 0:
            raise ValueError("window_seconds must be non-negative")
        self.max_batch = max_batch
        self.window_seconds = window_seconds
        self._windows: dict[CoalesceKey, list[PendingRequest]] = {}
        self._in_flight: dict[CoalesceKey, int] = {}  # batches per key
        self._lock = threading.Lock()
        #: requests waiting in open windows
        self.pending = 0
        self.batches = 0
        self.coalesced_requests = 0

    def add(self, key: CoalesceKey, req: PendingRequest) -> str:
        with self._lock:
            window = self._windows.setdefault(key, [])
            window.append(req)
            self.pending += 1
            if len(window) >= self.max_batch:
                return "full"
            if len(window) > 1:
                return "queued"
            return "first" if key in self._in_flight else "idle"

    def _close(self, key: CoalesceKey) -> list[PendingRequest]:
        members = self._windows.pop(key, [])
        if members:
            self._in_flight[key] = self._in_flight.get(key, 0) + 1
            self.pending -= len(members)
            self.batches += 1
            self.coalesced_requests += len(members)
        return members

    def take(self, key: CoalesceKey) -> list[PendingRequest]:
        """Close and return a window (empty list if already flushed);
        its batch is in flight until :meth:`done`."""
        with self._lock:
            return self._close(key)

    def done(self, key: CoalesceKey) -> bool:
        """One batch of *key* ended, however it ended.  True iff that
        freed the lane while a window gathered behind it: the caller
        closes that window now."""
        with self._lock:
            left = self._in_flight.pop(key, 1) - 1
            if left > 0:
                self._in_flight[key] = left
                return False
            return key in self._windows

    def take_all(self) -> list[tuple[CoalesceKey, list[PendingRequest]]]:
        """Drain every open window (shutdown/flush-on-close)."""
        with self._lock:
            return [(k, self._close(k)) for k in list(self._windows)]

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
