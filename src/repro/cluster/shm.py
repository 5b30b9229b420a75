"""Shared-memory segments: a per-process pool, generation-named arenas
and zero-copy slice descriptors.

The process backend moves no array through a pipe.  Whoever produces
bytes another process must read packs them into a :class:`ShmArena` it
owns and ships a tiny :class:`ShmView` *descriptor* (segment name,
offset, shape, dtype); the reader resolves the descriptor into a numpy
view over the mapped segment — the payload crosses the process boundary
zero-copy, exactly like the paper's one all-to-all moves data without
intermediate staging buffers, and like its reverse-communication proxy
(section 5.1) the buffers are allocated once and reused for every
transfer.

Three pieces:

* :class:`ShmView` — a picklable descriptor resolving to an ndarray view;
* :class:`ShmPool` — per-process cache of created/attached segments, so
  a segment is mapped at most once per process no matter how many
  descriptors point into it, and at most one generation of an arena;
* :class:`ShmArena` — a persistent, owner-created buffer that grows by
  *generation name*; the backend uses it four times (collective outbox,
  checkpoint stash, input staging, result slots).

CPython wart handled here: on 3.8-3.12 merely *attaching* to a segment
registers it with the ``resource_tracker``, which then unlinks it when
the attaching process exits — destroying a segment the creator still
owns.  :meth:`ShmPool.attach` suppresses that registration while
mapping, so only the creator's tracker entry ever exists (the creator
unlinks explicitly).  Sending ``unregister`` after the fact instead
would race: under fork every process shares one tracker, and N
attachers plus the creator's unlink would send N+1 removals for one
registration, spraying KeyError tracebacks at exit.

Crash hygiene: a SIGKILL'd worker never runs its pool's ``close()``, so
the arena generations it created (outbox, checkpoint stash) would
outlive it in ``/dev/shm``.  :class:`ShmJanitor` is the parent-side
reclaimer: it enumerates live segments by name prefix
(:func:`list_segments`) and force-unlinks the orphans
(:func:`unlink_segment`), so repeated worker crashes cannot leak
shared memory.  As a second line of defense every :class:`ShmPool`
carries a ``weakref.finalize`` hook that unlinks its created segments at
interpreter exit — guarded by PID so a forked child exiting never
destroys segments its parent still owns.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

__all__ = ["ShmArena", "ShmJanitor", "ShmPool", "ShmView", "list_segments",
           "unlink_segment"]

#: Where the kernel exposes POSIX shared-memory segments as files.
_SHM_DIR = "/dev/shm"


@dataclass(frozen=True)
class ShmView:
    """Picklable pointer to an ndarray living inside a shared segment."""

    segment: str
    offset: int
    shape: tuple
    dtype: str

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize

    def resolve(self, pool: "ShmPool", *, writeable: bool = False) -> np.ndarray:
        """A numpy view over the segment's bytes (no copy).

        Views are handed out read-only by default: the bytes belong to
        the sender's arena and will be reused for its next fill (the
        sending rank's next collective, the parent's next job), so a
        receiver that wants to mutate must copy (the same contract as an
        MPI receive buffer it does not own).
        """
        shm = pool.attach(self.segment)
        arr = np.ndarray(self.shape, dtype=np.dtype(self.dtype),
                         buffer=shm.buf, offset=self.offset)
        arr.flags.writeable = writeable
        return arr


def _arena_of(name: str) -> str:
    """The arena prefix of a generation name ``<prefix>g<n>`` ('' if none)."""
    head, _, gen = name.rpartition("g")
    return head if gen.isdigit() else ""


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Map an existing segment without a resource_tracker registration."""
    original = resource_tracker.register
    resource_tracker.register = lambda *a, **k: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def list_segments(prefix: str) -> list[str]:
    """Names of live shared-memory segments starting with *prefix*.

    Reads the kernel's view (``/dev/shm``), not any pool's — so it sees
    segments created by crashed processes that no live pool remembers.
    Returns ``[]`` on platforms without a tmpfs segment directory.
    """
    try:
        names = os.listdir(_SHM_DIR)
    except OSError:  # pragma: no cover - non-Linux
        return []
    return sorted(n for n in names if n.startswith(prefix))


def unlink_segment(name: str) -> bool:
    """Force-unlink a segment by name; True if it existed.

    Used by the janitor on segments whose creator is gone: mapping
    processes keep valid views (POSIX unlink semantics), but the name is
    freed and the memory dies with the last mapping.
    """
    try:
        shm = _attach_untracked(name)
    except FileNotFoundError:
        return False
    shm.close()
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - lost the race
        return False
    except Exception:  # pragma: no cover - tracker bookkeeping noise
        pass
    return True


class ShmJanitor:
    """Reclaims shared-memory segments orphaned by crashed processes.

    Scoped to a name *prefix* (one backend instance's token): anything
    under the prefix that is not in the ``keep`` set is fair game.  The
    process backend sweeps its workers' outbox/checkpoint segments
    whenever it ends a worker set (a restart, ``close()``), so repeated
    failures cannot leak ``/dev/shm``.
    """

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.reclaimed = 0

    def orphans(self, keep=()) -> list[str]:
        """Live segments under the prefix not owned by anyone in *keep*."""
        keep = set(keep)
        return [n for n in list_segments(self.prefix) if n not in keep]

    def sweep(self, sub: str = "", keep=()) -> list[str]:
        """Unlink every orphan under ``prefix + sub``; returns the names."""
        keep = set(keep)
        gone = []
        for name in list_segments(self.prefix + sub):
            if name in keep:
                continue
            if unlink_segment(name):
                gone.append(name)
        self.reclaimed += len(gone)
        return gone


def _finalize_pool(pid: int, created: dict, attached: dict) -> None:
    """atexit backstop: unlink what this pool created, unmap the rest.

    PID-guarded: under fork a child inherits the parent's pool object,
    and its exit must not destroy segments the parent still owns.
    """
    if os.getpid() != pid:
        return
    for shm in attached.values():
        try:
            shm.close()
        except Exception:  # pragma: no cover - exit-path best effort
            pass
    attached.clear()
    for shm in created.values():
        try:
            shm.close()
            shm.unlink()
        except Exception:  # pragma: no cover - exit-path best effort
            pass
    created.clear()


class ShmPool:
    """Per-process registry of shared-memory segments.

    Segments *created* through the pool are owned by it: ``close()``
    (and therefore interpreter exit of the creator) unlinks them.
    Segments *attached* are only mapped; closing the pool unmaps but
    never unlinks them.  Attaching generation *n* of an arena unmaps
    every other generation of it (rule 2 of :class:`ShmArena`).
    """

    def __init__(self) -> None:
        self._created: dict[str, shared_memory.SharedMemory] = {}
        self._attached: dict[str, shared_memory.SharedMemory] = {}
        # abnormal-exit backstop: unlink created segments at interpreter
        # exit even when close() never ran (see _finalize_pool)
        self._finalizer = weakref.finalize(
            self, _finalize_pool, os.getpid(), self._created, self._attached)

    def create(self, name: str, nbytes: int) -> shared_memory.SharedMemory:
        if name in self._created:
            raise ValueError(f"segment {name!r} already created by this pool")
        shm = shared_memory.SharedMemory(name=name, create=True,
                                         size=max(1, int(nbytes)))
        self._created[name] = shm
        return shm

    def attach(self, name: str) -> shared_memory.SharedMemory:
        shm = self._created.get(name) or self._attached.get(name)
        if shm is None:
            shm = _attach_untracked(name)
            arena = _arena_of(name)
            if arena:
                for old in [n for n in self._attached
                            if _arena_of(n) == arena]:
                    self.detach(old)
            self._attached[name] = shm
        return shm

    def detach(self, name: str) -> None:
        """Unmap an attached (or unlink a created) segment by name."""
        shm = self._attached.pop(name, None)
        if shm is not None:
            shm.close()
            return
        shm = self._created.pop(name, None)
        if shm is not None:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def close(self) -> None:
        """Unmap everything; unlink every segment this pool created."""
        for name in list(self._attached):
            self.detach(name)
        for name in list(self._created):
            self.detach(name)

    def __enter__(self) -> "ShmPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


_ALIGN = 64  # arena slots start on cache-line boundaries


def _aligned(nbytes: int) -> int:
    return -(-int(nbytes) // _ALIGN) * _ALIGN


class ShmArena:
    """A persistent buffer one process fills and others read or write by
    descriptor, grown geometrically by *generation name*.

    The owner creates segment ``<prefix>g<n>`` through its pool; when a
    fill does not fit, generation ``n+1`` is created at the next power of
    two and the old one is unlinked by the owner.  Everyone else maps a
    generation the first time a descriptor names it and keeps the mapping,
    so once the sizes have been seen a fill costs a memcpy and no
    ``shm_open`` / ``mmap`` / ``shm_unlink`` in any process.  A name is
    never reused, which is what makes a stale mapping harmless: it points
    at memory nobody will read again.

    One *fill* is ``reset()`` followed by any number of ``pack`` /
    ``reserve``; descriptors of a fill stay valid until the next
    ``reset()`` (a generation outgrown mid-fill stays linked until then).
    The caller owns the proof that the previous fill is dead: the entry
    barrier for a collective outbox, the job boundary for the other three.

    Two lifetime rules replace what per-job segment names gave for free:

    1. **Restart after an unclean end.**  When a fill's readers or writers
       may still be running (a job that ended by death, hang, hedge,
       abort, error, deadline or grace-period break), the process backend
       kills every worker of that job before the next fill, so no
       straggler wakes up late inside the next job; the arena itself is
       reused.  :meth:`retire` unlinks every generation when the owner
       closes.
    2. **One mapped generation per arena per process.**
       :meth:`ShmPool.attach` unmaps every other generation of an arena
       when it maps a new one, so growth never leaves old generations
       mapped for the life of a reader.  Generations of killed owners are
       reclaimed by prefix (:class:`ShmJanitor`) when their set restarts.
    """

    def __init__(self, prefix: str, pool: ShmPool):
        self._prefix = prefix
        self._pool = pool
        self._gen = -1
        self._name: str | None = None
        self._capacity = 0
        self._offset = 0
        self._outgrown: list[str] = []  # still linked until the next reset

    def _unlink_outgrown(self) -> None:
        for name in self._outgrown:
            self._pool.detach(name)
        self._outgrown.clear()

    def reset(self) -> None:
        """Start a new fill: everything handed out before may be overwritten."""
        self._offset = 0
        self._unlink_outgrown()

    def reserve(self, nbytes: int) -> tuple[str, int]:
        """``(segment, offset)`` of *nbytes* fresh bytes in the current fill."""
        nbytes = _aligned(nbytes)
        if self._name is None or self._offset + nbytes > self._capacity:
            # room for the whole fill so far, so the next one like it fits
            cap = 1 << max(6, (self._offset + nbytes - 1).bit_length())
            self._gen += 1
            name = f"{self._prefix}g{self._gen}"
            self._pool.create(name, cap)
            if self._name is not None:
                self._outgrown.append(self._name)
                if not self._offset:  # nothing of this fill lives there
                    self._unlink_outgrown()
            self._name, self._capacity, self._offset = name, cap, 0
        offset = self._offset
        self._offset += nbytes
        return self._name, offset

    def pack(self, arrays: list[np.ndarray]) -> list[ShmView]:
        """Copy *arrays* into the current fill; one descriptor per array."""
        arrays = [np.ascontiguousarray(a) for a in arrays]
        name, offset = self.reserve(sum(_aligned(a.nbytes) for a in arrays))
        views = []
        for a in arrays:
            view = ShmView(name, offset, tuple(a.shape), a.dtype.name)
            np.copyto(view.resolve(self._pool, writeable=True), a)
            views.append(view)
            offset += _aligned(a.nbytes)
        return views

    def retire(self) -> None:
        """Unlink every generation; the next fill gets a new name."""
        if self._name is not None:
            self._outgrown.append(self._name)
        self._unlink_outgrown()
        self._name, self._capacity, self._offset = None, 0, 0
