"""Top-level FFT entry points: the plan cache + length-based dispatch.

``fft``/``ifft`` pick the fastest applicable kernel:

* power-of-two and (2,3,5,7)-smooth lengths -> Stockham engine,
* anything else -> Bluestein chirp-z.

This mirrors the role MKL's DFTI plans play in the paper's node-local
code: users express *what* to transform, the library picks *how*.

There is exactly ONE plan cache in the library — the dtype-aware LRU
behind :func:`get_plan`: one ``OrderedDict`` behind one lock (lookups
happen when a pipeline is *constructed*; a served request reaches its
plan by a dict hit in the gateway, so there is nothing to stripe).
``fft_stockham`` and the dispatchers all share it, so every caller of a
length holds the same plan object — safe across threads because a plan's
tables are read-only and its pooled workspaces belong to the calling
thread (``StockhamPlan``'s workspace contract).  ``cache_clear()``
releases every cached plan (and with them the workspace pools);
``cache_info()`` exposes the LRU counters, which are also published as
``repro_fft_plancache_{hits,misses,evictions}_total``.

The cache is fork/spawn-safe: get-or-create is serialized behind the
lock (two threads planning the same size keep one plan), and a
per-process guard empties the cache and replaces its lock the first
time a forked worker touches it — a child must never share plan
workspaces (or a possibly-locked lock) inherited from its parent.  The
:class:`~repro.cluster.backends.ProcessBackend` workers rely on this.

A plan's schedule is chosen by a rule, as the paper's "radix 8 and 16,
case by case" (§5.2.4) and FFTW's ``ESTIMATE`` plans are: the Stockham
ladder of :func:`~repro.fft.bitops.default_radices` for (2,3,5,7)-smooth
lengths, Bluestein for the rest.  Nothing else steers ``_build_plan``;
:mod:`repro.fft.autotune` only measures whether another schedule beats
the rule.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from functools import _CacheInfo

import numpy as np

from repro.fft.bitops import mixed_radix_factors
from repro.fft.bluestein import BluesteinPlan
from repro.fft.stockham import StockhamPlan

__all__ = ["fft", "ifft", "get_plan", "cache_clear", "cache_info"]

_MAXSIZE = 256

_lock = threading.RLock()
_entries: OrderedDict = OrderedDict()
_hits = _misses = 0
_pid = os.getpid()
#: ``clear`` of each cache built through plans (:mod:`repro.core.window`'s
#: design records): :func:`cache_clear` leaves the whole process cold.
on_clear: list = []


def _ensure_this_process() -> None:
    """Reset inherited cache state after a fork (call with no lock held)."""
    global _lock, _entries, _hits, _misses, _pid
    if _pid != os.getpid():
        # the lock may have been captured mid-acquire in the parent; a
        # fresh lock and an empty cache are the only safe option in the child
        _lock = threading.RLock()
        _entries = OrderedDict()
        _hits = _misses = 0
        _pid = os.getpid()


def _count(event: str) -> None:
    """Publish one cache event to the default metrics registry."""
    from repro.telemetry.metrics import get_registry
    get_registry().counter(f"repro_fft_plancache_{event}_total",
                           f"plan-cache {event}").inc()


def _build_plan(n: int, sign: int, dtype_str: str):
    if mixed_radix_factors(n) is not None:
        return StockhamPlan(n, sign, dtype=np.dtype(dtype_str).type)
    if dtype_str != "complex128":
        raise ValueError("single-precision plans are only available for "
                         "(2,3,5,7)-smooth lengths (Bluestein's chirp "
                         "tables need double precision)")
    return BluesteinPlan(n, sign)


def get_plan(n: int, sign: int = -1, dtype=np.complex128):
    """Return a cached callable plan for length, direction, and precision."""
    global _hits, _misses
    if n <= 0:
        raise ValueError("n must be positive")
    key = (n, sign, np.dtype(dtype).name)
    _ensure_this_process()
    with _lock:
        plan = _entries.get(key)
        if plan is not None:
            _hits += 1
            _entries.move_to_end(key)
            _count("hits")
            return plan
        _misses += 1
    _count("misses")
    # build outside the lock: planning is slow (twiddle tables) and must
    # not serialize unrelated sizes; a racing duplicate is discarded below
    plan = _build_plan(*key)
    with _lock:
        winner = _entries.setdefault(key, plan)
        _entries.move_to_end(key)
        evicted = 0
        while len(_entries) > _MAXSIZE:
            _entries.popitem(last=False)
            evicted += 1
    for _ in range(evicted):
        _count("evictions")
    return winner


def cache_clear() -> None:
    """Drop every cached plan (and its pooled workspaces)."""
    global _hits, _misses
    _ensure_this_process()
    with _lock:
        _entries.clear()
        _hits = _misses = 0
    for clear in on_clear:
        clear()


def cache_info():
    """LRU statistics of the plan cache, in functools' ``CacheInfo`` shape
    (hits/misses/maxsize/currsize)."""
    _ensure_this_process()
    with _lock:
        return _CacheInfo(_hits, _misses, _MAXSIZE, len(_entries))


def _transform(x: np.ndarray, axis: int, sign: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim == 0:
        raise ValueError("input must have at least one dimension")
    moved = np.moveaxis(x, axis, -1)
    plan = get_plan(moved.shape[-1], sign)
    return np.moveaxis(plan(moved), -1, axis)


def fft(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Forward DFT along *axis* (unscaled, numpy convention)."""
    return _transform(x, axis, -1)


def ifft(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Inverse DFT along *axis* (scaled by 1/N, numpy convention)."""
    return _transform(x, axis, +1)
