"""The process's one worker pool: a daemon thread per cpu, bound to it.

The paper's §5.2-5.3 inside a node — segment FFTs and convolution rows
spread over threads, each on its own core — for kernels that release the
interpreter lock.  A worker is *bound* because on a host whose cpuset does
not load-balance (``cpuset.sched_load_balance = 0``) an unbound thread
stays on its creator's cpu and two of them take as long as one.  The
caller only waits and is never bound: it, and anything it forks, keeps the
affinity it came with.

Created on first use from the caller's ``os.sched_getaffinity(0)``; empty
(callers run their slices themselves) with one cpu or no
``sched_setaffinity``; pid-guarded, since threads do not survive a fork.
"""

from __future__ import annotations

import os
import threading
from queue import SimpleQueue

__all__ = ["on_each", "run", "size"]

_lock = threading.Lock()
_pid = os.getpid()
_inboxes: tuple | None = None  # one SimpleQueue of (fn, latch) per worker


def _serve(cpu: int, inbox: SimpleQueue) -> None:
    os.sched_setaffinity(0, {cpu})
    while True:
        fn, latch = inbox.get()
        try:
            done = (fn(), None)
        except BaseException as exc:  # handed to the caller, which raises it
            done = (None, exc)
        latch.put(done)
        del fn, latch, done  # an idle worker keeps no call's arrays alive


def _workers() -> tuple:
    global _lock, _pid, _inboxes
    if _pid != os.getpid():
        # a forked child: the parent's threads did not come along, and its
        # lock may have been captured held
        _lock, _pid, _inboxes = threading.Lock(), os.getpid(), None
    if _inboxes is None:
        with _lock:
            if _inboxes is None:
                cpus = sorted(os.sched_getaffinity(0)) \
                    if hasattr(os, "sched_setaffinity") else []
                if len(cpus) < 2:
                    cpus = []  # nothing to overlap: callers run serial
                inboxes = tuple(SimpleQueue() for _ in cpus)
                for cpu, inbox in zip(cpus, inboxes):
                    threading.Thread(target=_serve, args=(cpu, inbox),
                                     name=f"repro-cpu{cpu}",
                                     daemon=True).start()
                _inboxes = inboxes
    return _inboxes


def size() -> int:
    """How many slices :func:`run` executes at once (1: on the caller)."""
    return max(1, len(_workers()))


def run(fns) -> list:
    """``fns[i]()`` on worker *i*, all at once; the results (in completion
    order) once *every* one has finished, or the first exception one raised.
    Each call waits on its own latch: concurrent callers only queue."""
    inboxes = _workers()
    if not inboxes:
        return [fn() for fn in fns]
    if len(fns) > len(inboxes):
        raise ValueError(f"{len(fns)} slices for {len(inboxes)} workers")
    latch = SimpleQueue()
    for inbox, fn in zip(inboxes, fns):
        inbox.put((fn, latch))
    done = [latch.get() for _ in fns]
    for _, exc in done:
        if exc is not None:
            raise exc
    return [result for result, _ in done]


def on_each(fn) -> list:
    """``fn()`` on the calling thread and on every worker thread: how
    per-thread workspaces are counted and released."""
    return [fn()] + run([fn] * len(_workers()))
