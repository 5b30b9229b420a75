"""Execution backends: one SPMD program, simulated clocks or real cores.

The :mod:`repro.cluster.spmd` runtime established the programming model
— rank-local generators yielding :class:`AllToAll` / :class:`SendRecvRing`
/ :class:`Bcast` / :class:`Barrier` / :class:`Compute` requests.  This
module makes the *executor* pluggable:

* :class:`SimulatedBackend` — the existing engine: all ranks stepped
  rank-serially inside one process against a
  :class:`~repro.cluster.simcluster.SimCluster`'s simulated clocks, with
  byte-accurate charging through the verified
  :class:`~repro.cluster.communicator.Communicator` path.  Default,
  semantics unchanged.
* :class:`ProcessBackend` — every rank is a persistent OS worker process
  and collectives move bytes through ``multiprocessing.shared_memory``
  segments: the all-to-all between the conv and local-FFT stages is a
  zero-copy exchange of :class:`~repro.cluster.shm.ShmView` slice
  descriptors, not pickled arrays.  ``Compute`` requests become no-ops
  (wall clock is the truth) and their real durations are measured per
  rank and folded into a parent-side :class:`~repro.cluster.trace.Trace`
  plus the metrics registry, so the telemetry stack sees real timings
  under the same labels the simulator charges.

Exchange protocol (per collective, per worker):

1. entry barrier — each group member posts one ``__barrier__`` token per
   peer mailbox and collects one from every peer.  A rank posts its
   tokens only after it has stopped reading the previous collective's
   views (the yield is the release point), so collecting all tokens
   proves every peer is done with the old views and outbox segments can
   be reused.  Unlike an OS barrier, the token round works over any
   subset of workers — the property elastic recovery runs on;
2. pack outgoing slices into the rank-owned outbox segment and post one
   descriptor per destination mailbox queue (queue transfer gives the
   happens-before edge between the memcpy and the peer's read);
3. drain the own mailbox and resolve descriptors into read-only numpy
   views over the peers' segments — the resume payload.

Resumed views are valid until the rank's next yielded request (the
standard MPI receive-buffer contract); programs that need the data
longer must copy.

Memory: every byte that crosses a process boundary lives in one of four
persistent :class:`~repro.cluster.shm.ShmArena` buffers — per worker its
collective outbox and its checkpoint stash, in the parent the input
staging and the per-rank result slots — so a steady-state job ships
descriptors into memory every process already has mapped and creates,
maps and unlinks no segment (DESIGN.md, "ProcessBackend memory").

Elastic fault tolerance (the parent is the watchdog):

* every worker writes a heartbeat timestamp and a progress counter (the
  collective index it reached) into a tiny shared segment ~20x/s;
* while a job is in flight the parent polls liveness: an exited worker
  (SIGKILL, OOM) is *dead*; a worker whose heartbeat goes stale past
  ``hang_timeout`` (SIGSTOP, livelock) is *hung* and is escalated to
  SIGKILL — both flood abort markers so the survivors unwind, then
  surface as :class:`~repro.cluster.faults.RankFailed` carrying the
  dead rank ids, the job label, and the surviving worker set.  Shipped
  ``Checkpoint`` data is copied into the caller's ``checkpoints`` dict
  first, so the SOI layer completes the transform on the survivors via
  shrink-and-redistribute instead of tearing the world down;
* no process of a job that did not end clean outlives it: the next
  dispatch attempt kills every worker of that set (the survivors too),
  a :class:`~repro.cluster.shm.ShmJanitor` reclaims the arenas they
  created, and a fresh set is forked on fresh pipes — so no straggler
  writes into a later job, no pipe is read after its reader was stopped
  mid-message, and repeated failures cannot leak ``/dev/shm``;
* *deadline* budgets run off the wall clock: checked at dispatch and on
  every watchdog tick, an expired job is aborted cleanly and
  :class:`~repro.resilience.deadline.DeadlineExceeded` raised at the
  boundary; *hedge* policies re-dispatch straggling jobs — when some
  worker falls behind the group's progress for longer than
  ``threshold x`` the label's last known duration, the laggard is
  killed and the whole job re-dispatched once to a fresh worker set.

Process-level chaos (:class:`~repro.cluster.faults.ProcessFaultPlan`,
installed via :meth:`ProcessBackend.inject`) drives all of the above
deterministically: every kill -9, SIGSTOP and starving sleep fires inside
its victim at a protocol point the worker reaches — the job read whole,
a collective's entry, the program returned — and worker-side SDC rides
the job.  The parent's one fault action is the SIGCONT that ends a
stall, timed from the moment it sees the worker stopped.

SPMD discipline (matching collective kinds/labels across ranks) is
checked per message: descriptors carry the collective index, and a
mismatch raises instead of deadlocking — the same guarantee
``run_spmd``'s ``_check_uniform`` gives the simulated path.
"""

from __future__ import annotations

import itertools
import os
import pickle
import queue
import signal
import threading
import time
import traceback
import multiprocessing as mp
from multiprocessing import connection as mp_connection
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable

import numpy as np

from repro.cluster.faults import RankFailed
from repro.cluster.shm import ShmArena, ShmJanitor, ShmPool, ShmView
from repro.cluster.simcluster import SimCluster
from repro.cluster.spmd import (
    AllToAll,
    Barrier,
    Bcast,
    Checkpoint,
    Compute,
    RankContext,
    SendRecvRing,
    SpmdError,
    run_spmd,
)
from repro.cluster.trace import Trace
from repro.telemetry.metrics import NULL_REGISTRY, get_registry

__all__ = ["ExecutionBackend", "ProcessBackend", "SimulatedBackend",
           "TornFrame", "WorkerFailure"]

_MAILBOX_TIMEOUT_S = 120.0
_HANG_TIMEOUT_S = 10.0
_HEARTBEAT_PERIOD_S = 0.05
_WATCHDOG_TICK_S = 0.05
#: How long the watchdog waits for aborted ranks to report before it
#: gives the job up (a rank deep in a compute phase reads no mailbox).
_ABORT_GRACE_S = 5.0
_BAR = "__barrier__"
#: Per-process serial of :class:`ProcessBackend` instances: with the pid
#: it makes every backend's segment-name token unique, where an address
#: would repeat once a dead backend's memory is reused.
_backend_serials = itertools.count()


class ExecutionBackend:
    """Runs an SPMD rank program on every rank; returns per-rank results.

    ``run(program, per_rank_args, common=...)`` calls
    ``program(ctx, *per_rank_args[rank], *common)`` as a generator on
    each rank.  ``is_real`` distinguishes wall-clock executors from the
    simulator (callers use it to decide whether ``Compute`` seconds are
    models or measurements).
    """

    is_real = False
    #: RecoveryReport of the most recent shrink-and-redistribute.
    last_recovery = None

    def run(self, program: Callable, per_rank_args: list[tuple], *,
            common: tuple = (), **kwargs) -> list:
        raise NotImplementedError

    def note_recovery(self, report, detected_at: float | None) -> None:
        """Record a completed shrink-and-redistribute recovery."""
        self.last_recovery = report

    def close(self) -> None:
        """Release workers/segments (no-op for the simulator)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SimulatedBackend(ExecutionBackend):
    """The rank-serial simulated engine behind a backend interface."""

    is_real = False

    def __init__(self, cluster: SimCluster):
        self.cluster = cluster

    @property
    def size(self) -> int:
        return self.cluster.n_ranks

    def run(self, program: Callable, per_rank_args: list[tuple], *,
            common: tuple = (), checkpoints: dict | None = None,
            hedge=None, deadline=None, ranks: tuple | None = None,
            **_ignored) -> list:
        """Step *program* rank-serially over *ranks* (default: all).

        *deadline*, if given, is installed on the communicator for the
        duration of the run — every collective checks it at entry and
        charges attempts, backoff waits and recovery transfers to its
        budget — and the previously installed one is restored on exit.
        """
        group = range(self.cluster.n_ranks) if ranks is None else ranks
        if len(per_rank_args) != len(group):
            raise ValueError("need one args tuple per rank")

        def prog(ctx: RankContext):
            return (yield from program(ctx, *per_rank_args[ctx.rank],
                                       *common))

        comm = self.cluster.comm
        prev = comm.deadline
        if deadline is not None:
            comm.install_deadline(deadline)
        try:
            return run_spmd(self.cluster, prog, checkpoints=checkpoints,
                            hedge=hedge, ranks=ranks)
        finally:
            if deadline is not None:
                comm.install_deadline(prev)


# ---------------------------------------------------------------------------
# Worker-side pieces (must be module-level: shipped to spawn children)
# ---------------------------------------------------------------------------

class _Aborted(RuntimeError):
    """A peer failed; this rank unwound without completing the job."""


#: Largest pickled mailbox message; must stay under ``PIPE_BUF`` (4096
#: on Linux) minus the 4-byte frame header so multi-writer pipe writes
#: are atomic without a lock (CPython sends header+payload as one
#: ``write`` for messages below 16 KiB).
_ATOMIC_MSG_BYTES = 3600


class TornFrame(Exception):
    """A pipe frame whose body does not unpickle: the bytes left by a
    writer or reader killed mid-frame, read as a length and a body.  The
    pipe is not closed; its stream is out of step."""


#: A worker's exit code after it read a torn job frame (its job pipe is
#: out of step, so it cannot serve another job).
_TORN_FRAME_EXIT = 3


class _PipeChannel:
    """One-directional message channel over an OS pipe — no feeder
    thread, no locks.

    ``mp.Queue`` is lethal under chaos, twice over: (a) its background
    *feeder* thread holds the pipe write-lock while sending, so forking
    a replacement worker at that instant copies a held lock whose owner
    does not exist in the child, which then deadlocks on its first send
    — and a worker-set restart forks right after abort-flood traffic,
    exactly that window; (b) a reader parked in ``get()`` holds the
    shared read-lock, so SIGKILLing an idle worker poisons the lock for
    every later reader.

    This channel therefore uses a bare pipe with *no* locks: reads have
    a single owner per channel by construction (each worker drains only
    its own mailbox/job pipe, the parent its result pipes), and the one
    multi-writer case — mailboxes, written by every peer plus the parent
    — relies on POSIX atomicity of pipe writes ``<= PIPE_BUF``; every
    mailbox message is a tiny token/descriptor, enforced at send via
    ``atomic=True``.  With no locks there is nothing a SIGKILL can
    poison.
    """

    def __init__(self, ctx, *, atomic: bool = False):
        self._reader, self._writer = ctx.Pipe(duplex=False)
        self._atomic = atomic

    def put(self, obj) -> None:
        data = pickle.dumps(obj)
        if self._atomic and len(data) > _ATOMIC_MSG_BYTES:
            raise ValueError(
                f"mailbox message of {len(data)} bytes exceeds the "
                f"atomic pipe-write limit ({_ATOMIC_MSG_BYTES})")
        self._writer.send_bytes(data)

    def get(self, timeout: float | None = None):
        """Next message; raises queue.Empty on timeout or once the pipe is
        closed (EOF where a frame's length was due, or a closed end),
        :class:`TornFrame` for a frame whose body does not unpickle."""
        try:
            if timeout is not None and not self._reader.poll(timeout):
                raise queue.Empty
            data = self._reader.recv_bytes()
        except (EOFError, OSError):
            raise queue.Empty from None
        try:
            return pickle.loads(data)
        except Exception as exc:
            raise TornFrame(f"a {len(data)}-byte frame does not unpickle: "
                            f"{exc!r}") from exc

    def get_nowait(self):
        return self.get(timeout=0)

    @property
    def reader(self):
        return self._reader

    def close(self) -> None:
        for end in (self._reader, self._writer):
            try:
                end.close()
            except OSError:  # pragma: no cover - already closed
                pass


class _StridedSdc:
    """Reproduce the simulator's global SDC ordering on real ranks.

    ``FaultPlan.apply_sdc`` keys events off a single monotone counter.
    The simulated engine steps ranks 0..P-1 in order each round, so the
    k-th stage-boundary call on rank r is globally call ``k*P + r + 1``.
    Workers run concurrently and each holds its own plan copy, so this
    wrapper pins the counter to that global index before delegating —
    bit-for-bit the same strikes as the simulated backend.
    """

    def __init__(self, plan, rank: int, size: int):
        self._plan = plan
        self._rank = rank
        self._size = size
        self._calls = 0

    @property
    def has_sdc(self) -> bool:
        return self._plan.has_sdc

    def apply_sdc(self, data, *, rank: int = -1, stage: str = ""):
        self._plan.sdc_seen = self._calls * self._size + self._rank
        self._calls += 1
        return self._plan.apply_sdc(data, rank=rank, stage=stage)


class _WorkerComm:
    """Just enough Communicator surface for rank programs/verifiers."""

    def __init__(self, fault_plan):
        self.fault_plan = fault_plan
        self.deadline = None


class _WorkerCluster:
    """SimCluster stand-in inside a worker: real time, no charging."""

    def __init__(self, machine, fault_plan, size: int):
        self.machine = machine
        self.machines = [machine] * size
        self.n_ranks = size
        self.comm = _WorkerComm(fault_plan)
        self.metrics = NULL_REGISTRY

    def machine_of(self, rank: int):
        return self.machines[rank]

    def charge_seconds(self, rank: int, label: str, seconds: float,
                       category: str = "compute") -> None:
        pass  # wall time is measured by the engine, not modeled


@dataclass(frozen=True)
class _Job:
    """Everything a worker needs to run one rank of one program."""

    job_id: int
    program: Callable  # pickled by reference; must be module-level
    args: tuple  # per-rank args; ShmView entries resolve to views
    common: tuple = ()
    machine: Any = None
    fault_plan: Any = None  # SDC-only FaultPlan (or None)
    result_slot: ShmView | None = None
    ranks: tuple = ()  # worker ids forming the group ((), = all workers)
    faults: tuple = ()  # this worker's ProcessFaults
    checkpoints: bool = False  # ship Checkpoint data to the parent


@dataclass
class WorkerFailure:
    """What the watchdog knew when it declared worker(s) dead.

    Stored as :attr:`ProcessBackend.last_failure` and mirrored onto the
    raised :class:`~repro.cluster.faults.RankFailed` (``dead_ranks``,
    ``survivors``, ``job_label``, ``detected_at``), so chaos-soak
    failures are attributable from the exception alone and recovery can
    run against the exact survivor set of the moment of failure.
    """

    job_id: int
    job_label: str
    dead: tuple  # worker ids declared dead, ascending
    survivors: tuple  # worker ids alive when the failure was declared
    detected_at: float  # time.monotonic() of the first detection
    reason: str
    hung: tuple = ()  # subset of ``dead`` that was hung, then killed


@dataclass
class _RankSteps:
    """Measured wall-clock intervals of one rank's job."""

    steps: list = field(default_factory=list)  # (label, category, t0, t1)
    _mark: float = 0.0

    def open(self) -> None:
        self._mark = time.monotonic()

    def close(self, label: str, category: str) -> float:
        now = time.monotonic()
        if now - self._mark > 1e-7:
            self.steps.append((label, category, self._mark, now))
        self._mark = now
        return now


def _matches(msg, coll_idx: int, want_bar: bool) -> bool:
    _jid, cidx, _src, payload = msg
    if cidx != coll_idx:
        return False
    is_bar = isinstance(payload, str) and payload == _BAR
    return is_bar if want_bar else not is_bar


def _next_msg(mailbox, job_id: int, coll_idx: int, timeout: float,
              pending: list, *, want_bar: bool):
    """One matching message off the mailbox; stashes out-of-phase ones.

    With the entry barrier running through the same mailboxes as the
    data, a fast peer's *next*-collective token can arrive while this
    rank is still collecting the current collective's payloads (and
    vice versa).  Messages ahead of the current (collective, phase)
    point are stashed in *pending*, which lives for one job.  No mailbox
    outlives a job that did not end clean, so a message of another job,
    or one behind the current collective, is a protocol error.
    """
    for i, msg in enumerate(pending):
        if _matches(msg, coll_idx, want_bar):
            pending.pop(i)
            return msg[2], msg[3]
    deadline = time.monotonic() + timeout
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise _Aborted(f"no message within {timeout:.0f}s "
                           f"(collective {coll_idx})")
        try:
            msg = mailbox.get(timeout=remaining)
        except queue.Empty:
            raise _Aborted(f"no message within {timeout:.0f}s "
                           f"(collective {coll_idx})") from None
        if msg[0] == "abort":
            raise _Aborted(f"rank {msg[2]} aborted job {msg[1]}: {msg[3]}")
        jid, cidx, _src, _payload = msg
        if jid != job_id or cidx < coll_idx:
            raise SpmdError(
                f"collective mismatch: got (job {jid}, collective {cidx}) "
                f"while serving (job {job_id}, collective {coll_idx}) — "
                f"ranks disagree on the collective sequence")
        if _matches(msg, coll_idx, want_bar):
            return msg[2], msg[3]
        pending.append(msg)


def _fire(faults: tuple, point) -> None:
    """Fire this worker's scheduled faults at protocol *point* (``"start"``,
    a collective index or ``"result"``): a kill or a stall is the worker
    signalling itself, a delay a sleep its heartbeat thread beats through."""
    for f in faults:
        if f.at != point:
            continue
        if f.kind == "delay":
            time.sleep(f.for_s)
        else:
            os.kill(os.getpid(), signal.SIGKILL if f.kind == "kill"
                    else signal.SIGSTOP)


def _serve_collective(req, coll_idx: int, rank: int, group: tuple,
                      mailboxes, pool: ShmPool, outbox: ShmArena,
                      timeout: float, job_id: int, pending: list,
                      hb, me: int, faults: tuple):
    """Run one collective for this rank; returns the resume payload.

    *rank* is the logical rank (index into *group*); *me* the physical
    worker id.  Scheduled worker-side faults fire at entry — after the
    progress counter is written, so the parent sees how far a victim
    got — and the entry barrier is a token round over the group's
    mailboxes (works for any subset of the worker set).  Passing it
    proves every peer finished reading the previous collective's views,
    which is what lets the outbox start a new fill.
    """
    size = len(group)
    if hb is not None:
        hb[me, 1] = float(coll_idx)  # progress: collective reached
    _fire(faults, coll_idx)

    def post(dest: int, payload) -> None:
        mailboxes[group[dest]].put((job_id, coll_idx, rank, payload))

    # entry barrier: one token to every peer, one collected from each
    if size > 1:
        for d in range(size):
            if d != rank:
                post(d, _BAR)
        for _ in range(size - 1):
            _next_msg(mailboxes[me], job_id, coll_idx, timeout, pending,
                      want_bar=True)

    if isinstance(req, Barrier):
        return None
    outbox.reset()

    if isinstance(req, AllToAll):
        per_dest = [np.ascontiguousarray(np.asarray(b))
                    for b in req.per_dest]
        if len(per_dest) != size:
            raise SpmdError("AllToAll needs one buffer per rank")
        descs = outbox.pack([per_dest[d] for d in range(size) if d != rank])
        it = iter(descs)
        for d in range(size):
            if d != rank:
                post(d, next(it))
        pieces: list = [None] * size
        pieces[rank] = per_dest[rank]
        for _ in range(size - 1):
            src, view = _next_msg(mailboxes[me], job_id, coll_idx, timeout,
                                  pending, want_bar=False)
            pieces[src] = view.resolve(pool)
        return pieces

    if isinstance(req, SendRecvRing):
        to_left = np.ascontiguousarray(np.asarray(req.to_left))
        to_right = np.ascontiguousarray(np.asarray(req.to_right))
        if size == 1:
            return to_right, to_left
        d_left, d_right = outbox.pack([to_left, to_right])
        # tag with the direction the payload traveled: my to_right
        # arrives at rank+1 as its from_left ("R"), and vice versa
        post((rank - 1) % size, ("L", d_left))
        post((rank + 1) % size, ("R", d_right))
        from_left = from_right = None
        for _ in range(2):
            src, (tag, view) = _next_msg(mailboxes[me], job_id, coll_idx,
                                         timeout, pending, want_bar=False)
            if tag == "R":
                from_left = view.resolve(pool)
            else:
                from_right = view.resolve(pool)
        return from_left, from_right

    if isinstance(req, Bcast):
        root = req.root
        if rank == root:
            if req.buf is None:
                raise SpmdError("bcast root provided no buffer")
            buf = np.ascontiguousarray(np.asarray(req.buf))
            if size > 1:
                (desc,) = outbox.pack([buf])
                for d in range(size):
                    if d != rank:
                        post(d, desc)
            return buf
        _, view = _next_msg(mailboxes[me], job_id, coll_idx, timeout,
                            pending, want_bar=False)
        return view.resolve(pool)

    raise SpmdError(f"unknown request type {type(req).__name__}")


def _resolve_args(args: tuple, pool: ShmPool) -> tuple:
    return tuple(a.resolve(pool) if isinstance(a, ShmView) else a
                 for a in args)


def _run_rank(job: _Job, me: int, n_workers: int, mailboxes,
              pool: ShmPool, outbox: ShmArena, timeout: float, hb,
              ship_ckpt):
    """Drive the rank generator to completion; returns (result, steps).

    *ship_ckpt(tag, data)* stashes a ``Checkpoint`` for the parent.
    """
    group = job.ranks if job.ranks else tuple(range(n_workers))
    rank = group.index(me)
    size = len(group)
    args = _resolve_args(job.args, pool)
    common = _resolve_args(job.common, pool)
    fault_plan = job.fault_plan
    if fault_plan is not None:
        fault_plan = _StridedSdc(fault_plan, rank, size)
    cluster = _WorkerCluster(job.machine, fault_plan, size)
    gen = job.program(RankContext(rank, size, cluster), *args, *common)
    if not hasattr(gen, "send"):
        raise TypeError("program must be a generator function "
                        "(use 'yield' for collectives)")
    steps = _RankSteps()
    steps.open()
    pending: list = []  # out-of-phase mailbox messages (see _next_msg)
    coll_idx = 0
    payload = None
    try:
        while True:
            try:
                req = gen.send(payload)
            except StopIteration as stop:
                steps.close("epilogue", "compute")
                return stop.value, steps.steps
            payload = None
            if isinstance(req, Compute):
                # the simulator charges modeled seconds here; we record
                # the measured wall time of the work that preceded it
                steps.close(req.label, "compute")
                continue
            if isinstance(req, Checkpoint):
                if job.checkpoints:
                    # survivors' checkpoints seed shrink-and-redistribute
                    # recovery after a crash
                    ship_ckpt(req.tag, np.asarray(req.data))
                steps.close("checkpoint", "compute")
                continue
            steps.close(f"{req.label} prep", "compute")
            payload = _serve_collective(req, coll_idx, rank, group,
                                        mailboxes, pool, outbox, timeout,
                                        job.job_id, pending, hb, me,
                                        job.faults)
            coll_idx += 1
            steps.close(req.label, "mpi")
    finally:
        gen.close()


def _ship_result(result, slot: ShmView | None, pool: ShmPool):
    """Write array results into the parent's slot; pickle the rest."""
    if slot is not None and isinstance(result, np.ndarray) \
            and tuple(result.shape) == slot.shape \
            and result.dtype.name == slot.dtype:
        np.copyto(slot.resolve(pool, writeable=True), result)
        return "slot", None
    if slot is not None and isinstance(result, tuple) and result \
            and isinstance(result[0], np.ndarray) \
            and tuple(result[0].shape) == slot.shape \
            and result[0].dtype.name == slot.dtype:
        np.copyto(slot.resolve(pool, writeable=True), result[0])
        return "slot+rest", result[1:]
    return "pickle", result


def _worker_main(me: int, n_workers: int, token: str, job_q, result_q,
                 mailboxes, timeout: float, hb_name: str,
                 generation: int) -> None:
    """Persistent worker loop: one process, one rank, many jobs.

    *generation* counts the backend's worker sets: it keys the names of
    the worker's two arenas, so no set reuses a segment name of an
    earlier one (:class:`~repro.cluster.shm.ShmArena` never reuses a
    name).  The stash holds one job's ``Checkpoint`` data packed one
    after another; the parent has copied what it needs before it
    dispatches the next job.
    """
    pool = ShmPool()
    outbox = ShmArena(f"{token}w{me}e{generation}o", pool)
    stash = ShmArena(f"{token}w{me}e{generation}k", pool)
    hb = None
    stop_beat = threading.Event()
    try:
        try:
            hb = np.ndarray((n_workers, 2), dtype=np.float64,
                            buffer=pool.attach(hb_name).buf)
        except FileNotFoundError:  # pragma: no cover - parent raced close
            hb = None
        if hb is not None:
            def _beat() -> None:
                while not stop_beat.wait(_HEARTBEAT_PERIOD_S):
                    hb[me, 0] = time.monotonic()
            threading.Thread(target=_beat, daemon=True,
                             name=f"repro-heartbeat-{me}").start()
        def post_result(msg) -> None:
            try:
                result_q.put(msg)
            except OSError:  # pragma: no cover - parent tore down mid-job
                pass

        while True:
            try:
                raw = job_q.get()
            except queue.Empty:  # pipe closed: parent is gone
                return
            except TornFrame:
                raise SystemExit(_TORN_FRAME_EXIT) from None
            if raw is None:
                return
            job = pickle.loads(raw)
            stash.reset()
            _fire(job.faults, "start")

            def ship_ckpt(tag, data, _jid=job.job_id):
                (view,) = stash.pack([data])
                post_result((_jid, me, "ckpt", tag, view, None))

            try:
                result, steps = _run_rank(job, me, n_workers, mailboxes,
                                          pool, outbox, timeout, hb,
                                          ship_ckpt)
                _fire(job.faults, "result")
                kind, rest = _ship_result(result, job.result_slot, pool)
                post_result((job.job_id, me, "ok", kind, rest, steps))
            except _Aborted as exc:
                post_result((job.job_id, me, "aborted", str(exc),
                             None, None))
            except BaseException as exc:  # noqa: BLE001 - forwarded
                group = job.ranks if job.ranks else tuple(range(n_workers))
                for d in group:
                    if d != me:
                        try:
                            mailboxes[d].put(("abort", job.job_id, me,
                                              repr(exc)[:1000]))
                        except OSError:  # pragma: no cover - teardown race
                            pass
                try:
                    payload = pickle.dumps(exc)
                except Exception:
                    payload = pickle.dumps(RuntimeError(repr(exc)))
                post_result((job.job_id, me, "error", payload,
                             traceback.format_exc(), None))
    finally:
        stop_beat.set()
        hb = None
        pool.close()


# ---------------------------------------------------------------------------
# Parent-side backend
# ---------------------------------------------------------------------------

def _stopped(pid: int) -> bool:
    """True while worker *pid* (a child of this process) is stopped."""
    try:
        return os.waitid(os.P_PID, pid, os.WSTOPPED | os.WNOHANG
                         | os.WNOWAIT) is not None
    except ChildProcessError:  # already reaped
        return False


@dataclass
class _JobOutcome:
    """What the watchdog collected for one dispatch attempt."""

    outcomes: dict  # wid -> (status, *rest)
    errors: list  # (wid, pickled exc, traceback)
    deaths: list  # wids that actually died (not hedge kills)
    hung: list  # subset of deaths first detected as stale heartbeats
    hedged: list  # wids killed by the hedge (job must be re-dispatched)
    detected_at: float | None
    deadline_tripped: bool


class ProcessBackend(ExecutionBackend):
    """Real-parallel executor: one persistent worker process per rank.

    Parameters
    ----------
    n_workers:
        SPMD size = number of worker processes (defaults to the CPUs
        this process may schedule on).
    start_method:
        ``"fork"`` (default on Linux: instant, shares planned tables
        copy-on-write) or ``"spawn"``.  A job that does not end clean
        costs the next one a fresh worker set: milliseconds under
        ``fork``, a re-import in every worker under ``spawn``.
    mailbox_timeout:
        Seconds a rank waits on a collective before declaring the job
        wedged; also bounds how long the parent waits for results.
    hang_timeout:
        Seconds a worker's heartbeat may go stale while it has a job in
        flight before the watchdog declares it hung and escalates to
        SIGKILL (the dead-worker path: abort flood, ``RankFailed``, a
        fresh worker set at the next dispatch).
    trace, metrics:
        Destinations for the measured per-rank wall-clock intervals.
        Defaults: a backend-owned :class:`~repro.cluster.trace.Trace`
        and the process-wide metrics registry.

    Use as a context manager (or call :meth:`close`) to release the
    workers and shared segments deterministically.
    """

    is_real = True

    def __init__(self, n_workers: int | None = None, *,
                 start_method: str = "fork",
                 mailbox_timeout: float = _MAILBOX_TIMEOUT_S,
                 hang_timeout: float = _HANG_TIMEOUT_S,
                 trace: Trace | None = None, metrics=None):
        if n_workers is None:
            try:
                n_workers = len(os.sched_getaffinity(0))
            except AttributeError:  # pragma: no cover - non-Linux
                n_workers = os.cpu_count() or 1
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.size = int(n_workers)
        self.start_method = start_method
        self.mailbox_timeout = float(mailbox_timeout)
        self.hang_timeout = float(hang_timeout)
        self.trace = Trace() if trace is None else trace
        self.metrics = get_registry() if metrics is None else metrics
        # "_" ends each hex field, so no token is a prefix of another and
        # one backend's janitor never sweeps another's segments
        self._token = f"rpb{os.getpid():x}_{next(_backend_serials):x}_"
        self._ctx = mp.get_context(start_method)
        self._procs: list = []
        self._generation = -1  # worker sets forked so far, minus one
        #: Set while a job is in flight; cleared only by a clean end.
        self._unclean = False
        self._job_qs: list = []
        self._mailboxes: list = []
        self._result_chans: list = []  # one result pipe per worker
        self._pool = ShmPool()
        self._inputs = ShmArena(f"{self._token}i", self._pool)
        self._results = ShmArena(f"{self._token}r", self._pool)
        self._hb: np.ndarray | None = None
        self.janitor = ShmJanitor(self._token)
        self._job_counter = 0
        self._t_cursor = 0.0  # trace offset so successive jobs don't overlap
        #: Installed process-level chaos schedule (see :meth:`inject`).
        self.fault_plan: Any = None
        #: Watchdog's view of the most recent worker failure.
        self.last_failure: WorkerFailure | None = None
        #: Detection-to-recovered seconds of the most recent recovery.
        self.last_mttr_s: float | None = None
        self._ckpts: dict[tuple[int, str], ShmView] = {}
        self._label_est: dict[str, float] = {}  # label -> last wall seconds

    # -- instruments touched on every job: looked up once ---------------

    @cached_property
    def _workers_gauge(self):
        return self.metrics.gauge(
            "repro_backend_workers_count",
            "live worker processes of the ProcessBackend")

    @cached_property
    def _job_counters(self) -> tuple:
        m = self.metrics
        return (m.counter("repro_backend_jobs_total",
                          "jobs completed by the process backend"),
                m.counter("repro_backend_wall_seconds_total",
                          "max-over-ranks measured job wall seconds"),
                m.counter("repro_backend_compute_seconds_total",
                          "summed per-rank measured compute seconds"),
                m.counter("repro_backend_exchange_seconds_total",
                          "summed per-rank measured mpi seconds"))

    # -- worker lifecycle ----------------------------------------------

    def _ensure_workers(self) -> None:
        """Fork a fresh worker set unless the running one is whole and its
        last job ended clean.

        This is the one rule of the elastic path: no process of a job that
        did not end clean (death, hang kill, hedge, deadline trip, rank
        error, grace-period break, unresponsive workers) runs into the
        next one.  Run at the top of every dispatch attempt, before
        anything is staged.  The old set is killed, not waited for, and
        the new one starts on fresh job, result and mailbox pipes under
        the next set generation.  Checkpoints were copied out before
        ``RankFailed`` raised and forked workers inherit the design
        records, so a fresh survivor needs nothing from the old one.
        """
        if self._procs and not self._unclean \
                and all(p.is_alive() for p in self._procs):
            return
        if self._procs:
            self.metrics.counter(
                "repro_backend_worker_respawns_total",
                "worker processes re-forked by a worker-set restart"
                ).inc(len(self._procs))
        self._teardown_workers()
        self._generation += 1
        ctx = self._ctx
        self._mailboxes = [_PipeChannel(ctx, atomic=True)
                           for _ in range(self.size)]
        self._job_qs = [_PipeChannel(ctx) for _ in range(self.size)]
        self._result_chans = [_PipeChannel(ctx) for _ in range(self.size)]
        hb = self._pool.create(f"{self._token}hb", self.size * 2 * 8)
        self._hb = np.ndarray((self.size, 2), dtype=np.float64,
                              buffer=hb.buf)
        self._hb[:, 0] = time.monotonic()
        self._hb[:, 1] = -1.0
        self._procs = [ctx.Process(
            target=_worker_main,
            args=(wid, self.size, self._token, self._job_qs[wid],
                  self._result_chans[wid], self._mailboxes,
                  self.mailbox_timeout, f"{self._token}hb",
                  self._generation),
            daemon=True, name=f"repro-rank-{wid}")
            for wid in range(self.size)]
        for p in self._procs:
            p.start()
        self._unclean = False
        self._workers_gauge.set(self.size)

    def _teardown_workers(self) -> None:
        """Kill every worker (a stopped one too), close the set's pipes,
        unlink the heartbeat table and reclaim the workers' arenas."""
        for p in self._procs:
            p.kill()
        for p in self._procs:
            p.join()
        for ch in [*self._job_qs, *self._mailboxes, *self._result_chans]:
            ch.close()
        self._procs, self._job_qs, self._mailboxes = [], [], []
        self._result_chans = []
        if self._hb is not None:  # what _ensure_workers made, it unmakes
            self._hb = None
            self._pool.detach(f"{self._token}hb")
        self._reclaim("w")

    def _reclaim(self, sub: str) -> None:
        """Unlink what is left under ``token + sub``, counted."""
        reclaimed = self.janitor.sweep(sub)
        if reclaimed:
            self.metrics.counter(
                "repro_backend_shm_reclaimed_total",
                "orphaned shared-memory segments reclaimed"
                ).inc(len(reclaimed))

    def close(self) -> None:
        self._teardown_workers()
        self._ckpts.clear()
        self._inputs.retire()
        self._results.retire()
        self._pool.close()
        self._reclaim("")
        try:
            self.metrics.gauge("repro_backend_workers_count").set(0)
        except Exception:
            pass

    # -- elasticity surface --------------------------------------------

    def inject(self, plan) -> None:
        """Install a :class:`~repro.cluster.faults.ProcessFaultPlan`.

        Faults fire on the *job*-th :meth:`run` after installation
        (the plan's counters are reset here).  ``None`` disarms.
        """
        if plan is not None:
            plan.reset()
        self.fault_plan = plan

    def live_workers(self) -> list[int]:
        """Worker ids currently alive (the next run forks a fresh set if
        one is missing or the last job did not end clean)."""
        return [wid for wid, p in enumerate(self._procs) if p.is_alive()]

    def note_recovery(self, report, detected_at: float | None) -> None:
        """Record a completed shrink-and-redistribute recovery.

        Sets :attr:`last_recovery`, stamps the MTTR histogram and the
        recovery counter, and drops a zero-width ``"shrink recovery"``
        trace marker on every dead rank's lane.
        """
        self.last_recovery = report
        mttr = (time.monotonic() - detected_at
                if detected_at is not None else 0.0)
        self.last_mttr_s = mttr
        m = self.metrics
        m.counter("repro_backend_recoveries_total",
                  "jobs completed via shrink-and-redistribute after "
                  "worker deaths").inc()
        m.histogram("repro_backend_mttr_seconds",
                    "failure detection to recovered result, seconds"
                    ).observe(mttr)
        for r in getattr(report, "dead_ranks", ()):
            self.trace.record(r, "shrink recovery", "retry",
                              self._t_cursor, self._t_cursor)
        self._sweep_checkpoints()

    def _sweep_checkpoints(self, into: dict | None = None) -> None:
        """Forget the shipped checkpoint descriptors — after copying their
        data out of the workers' stashes under ``(worker_id, tag)`` keys
        when *into* is given: the copies outlive the stashes (the next
        job refills them or, after a failure, reclaims them with the
        worker set), so recovery jobs can re-stage them.
        """
        if into is not None:
            for key, view in self._ckpts.items():
                try:
                    into[key] = np.array(view.resolve(self._pool), copy=True)
                except FileNotFoundError:  # pragma: no cover - creator died
                    pass
                self._pool.detach(view.segment)
        self._ckpts.clear()

    # -- job execution -------------------------------------------------

    def run(self, program: Callable, per_rank_args: list[tuple], *,
            common: tuple = (), machine=None, fault_plan=None,
            result_spec: tuple | None = None, label: str = "spmd job",
            checkpoints: dict | None = None, hedge=None, deadline=None,
            ranks: tuple | None = None, **_ignored) -> list:
        """Run *program* on a group of workers; returns per-rank results.

        ``per_rank_args[i]`` may contain ndarrays — they are staged
        through shared memory, and the rank receives zero-copy views
        (``common`` ndarrays are staged once, shared by all ranks).
        ``result_spec=(shape, dtype)`` pre-allocates a shared result
        slot per rank for array(-first) results, avoiding a pickle of
        the output.  ``fault_plan`` must be SDC-only (wire faults are a
        property of the simulated fabric).

        ``ranks`` selects a subset of the workers as the SPMD group
        (default: all of them) — recovery jobs run on the survivors this
        way.  ``checkpoints``, when a dict is passed, arms checkpoint
        shipping: workers post their ``Checkpoint`` stage data through
        shared segments, and if a worker dies the dict is filled in place
        with copies of what was shipped under ``(worker id, tag)`` keys
        before ``RankFailed`` raises — the contract
        :func:`~repro.cluster.spmd.run_spmd` gives the simulated path.
        ``deadline`` (wall-clock
        :class:`~repro.resilience.Deadline`) is checked at dispatch and
        on every watchdog tick; ``hedge`` (a
        :class:`~repro.verify.HedgePolicy`) arms straggler re-dispatch:
        a worker lagging the group's progress past ``threshold x`` the
        label's last duration is killed and the job re-run once on a
        fresh worker set.

        A worker that dies (or hangs past ``hang_timeout``) mid-job
        raises :class:`~repro.cluster.faults.RankFailed` carrying the
        dead ids and survivor set.  The next call, like every call after
        a job that did not end clean, first replaces the whole worker
        set (see :meth:`_ensure_workers`).
        """
        group = tuple(ranks) if ranks else tuple(range(self.size))
        if len(per_rank_args) != len(group):
            raise ValueError(f"need one args tuple per rank "
                             f"(got {len(per_rank_args)}, group "
                             f"{len(group)})")
        if sorted(set(group)) != sorted(group) \
                or any(not 0 <= w < self.size for w in group):
            raise ValueError(f"invalid worker group {group!r}")
        plan = self.fault_plan
        if fault_plan is None and plan is not None:
            fault_plan = plan.sdc
        if fault_plan is not None and not _sdc_only(fault_plan):
            raise ValueError("ProcessBackend supports SDC-only fault "
                             "plans; wire faults belong to the simulator")
        if deadline is not None:
            deadline.check(f"dispatch ({label})")
        actions = plan.next_job() if plan is not None else ()
        q = len(group)
        attempt = 0
        while True:
            attempt += 1
            self._ensure_workers()
            self._job_counter += 1
            jid = self._job_counter
            staged, staged_common, slots = self._stage(
                per_rank_args, common, result_spec, q)
            # pickle every rank's job before any is sent: an unpicklable
            # program is a clean error, not a half-dispatched job
            try:
                payloads = {wid: pickle.dumps(_Job(
                    job_id=jid, program=program,
                    args=tuple(staged[i]), common=tuple(staged_common),
                    machine=machine, fault_plan=fault_plan,
                    result_slot=slots[i], ranks=group,
                    faults=tuple(f for f in actions if f.rank == wid),
                    checkpoints=checkpoints is not None))
                    for i, wid in enumerate(group)}
            except Exception as exc:
                raise ValueError(
                    "job does not pickle — the program must be a "
                    "module-level generator function and every argument "
                    "picklable (closures and lambdas are not)") from exc

            resumes = {}  # stalled wid -> SIGCONT delay, from its stop
            for f in actions:
                if f.rank in group:
                    plan.note_injected(f.kind)
                    if f.kind == "stall" and f.for_s is not None:
                        resumes[f.rank] = f.for_s
            t0 = time.monotonic()
            self._unclean = True
            for wid in group:
                self._hb[wid, 1] = -1.0
                self._job_qs[wid].put(payloads[wid])

            est = self._label_est.get(label)
            out = self._await_job(jid, group, label, deadline, resumes,
                                  t0, hedge if attempt == 1 else None, est)
            if deadline is not None:
                deadline.charge("compute" if attempt == 1 else "hedge",
                                time.monotonic() - t0)
            if out.deadline_tripped:
                deadline.check(label)  # raises DeadlineExceeded
            if not out.hedged:
                break
            # straggler re-dispatch: the laggards are dead; the whole job
            # runs once more, on the fresh set the next attempt forks
            if hedge is not None:
                hedge.launched += len(out.hedged)
            self.metrics.counter(
                "repro_backend_hedge_retries_total",
                "jobs re-dispatched after killing stragglers").inc()
            self._sweep_checkpoints()
            actions = ()

        if out.deaths:
            if checkpoints is not None:
                self._sweep_checkpoints(into=checkpoints)
            self._handle_deaths(jid, label, group, out)
        if out.errors:
            wid, payload, tb = min(out.errors, key=lambda e: e[0])
            exc = pickle.loads(payload)
            raise exc from RuntimeError(
                f"rank {wid} failed; worker traceback:\n{tb}")
        if any(status != "ok" for status, *_ in out.outcomes.values()):
            bad = {w: o[0] for w, o in out.outcomes.items() if o[0] != "ok"}
            raise RuntimeError(f"job aborted without a root error: {bad}")
        self._unclean = False

        if hedge is not None and attempt > 1:
            hedge.won += 1
        results: list = [None] * q
        for i, wid in enumerate(group):
            status, kind, rest, steps = out.outcomes[wid]
            if kind == "slot":
                results[i] = slots[i].resolve(self._pool).copy()
            elif kind == "slot+rest":
                results[i] = (slots[i].resolve(self._pool).copy(), *rest)
            else:
                results[i] = rest
        self._fold_telemetry(jid, label,
                             {w: o[3] for w, o in out.outcomes.items()})
        self._label_est[label] = time.monotonic() - t0
        self._sweep_checkpoints()
        return results

    def _stage(self, per_rank_args: list[tuple], common: tuple,
               result_spec: tuple | None, q: int):
        """One fill of the parent's two arenas.

        Every ndarray argument is copied into the input arena (``common``
        arrays once, shared by all ranks) and replaced by its descriptor;
        ``result_spec`` reserves one slot per rank in the result arena.
        Returns ``(per-rank args, common, slot descriptors)``.
        """
        staged = [list(args) for args in per_rank_args]
        staged_common = list(common)
        homes = [(row, k) for row in (*staged, staged_common)
                 for k, a in enumerate(row) if isinstance(a, np.ndarray)]
        if homes:
            self._inputs.reset()
            views = self._inputs.pack([row[k] for row, k in homes])
            for (row, k), view in zip(homes, views):
                row[k] = view
        slots: list[ShmView | None] = [None] * q
        if result_spec is not None:
            shape, dtype = result_spec
            dt = np.dtype(dtype)
            per = int(np.prod(shape, dtype=np.int64)) * dt.itemsize
            self._results.reset()
            name, base = self._results.reserve(per * q)
            slots = [ShmView(name, base + i * per, tuple(shape), dt.name)
                     for i in range(q)]
        return staged, staged_common, slots

    # -- the watchdog --------------------------------------------------

    def _await_job(self, jid: int, group: tuple, label: str, deadline,
                   resumes: dict, t0: float, hedge,
                   est: float | None) -> _JobOutcome:
        """Collect one dispatch attempt's outcomes, watching liveness.

        The parent *is* the heartbeat watchdog: each ~50ms tick it
        drains the result queue, resumes stalled workers, checks every
        in-flight worker's process state and heartbeat, enforces the
        deadline, and evaluates the hedge policy.  *resumes* maps a
        worker scheduled to stall to its SIGCONT delay, which counts
        from the first tick that sees it stopped — never from dispatch,
        so no resume can arrive before the stop it undoes.
        """
        need = set(group)
        outcomes: dict[int, tuple] = {}
        errors: list[tuple] = []
        deaths: list[int] = []
        hung: list[int] = []
        hedged: list[int] = []
        detected_at: float | None = None
        deadline_tripped = False
        flooded = False
        grace_until: float | None = None
        hard_deadline = t0 + self.mailbox_timeout + 30.0

        def settled(wid: int) -> bool:
            return wid in outcomes or wid in deaths or wid in hedged

        readers = [self._result_chans[w].reader for w in group]
        due: dict[int, float] = {}  # wid -> SIGCONT time, once seen stopped
        while not all(settled(w) for w in need):
            now = time.monotonic()
            for wid, for_s in list(resumes.items()):
                pid = self._procs[wid].pid
                if settled(wid):
                    del resumes[wid]
                elif wid not in due:
                    if _stopped(pid):
                        due[wid] = now + for_s
                elif now >= due[wid]:
                    del resumes[wid]
                    try:
                        os.kill(pid, signal.SIGCONT)
                    except ProcessLookupError:  # reaped since the tick
                        pass
            try:
                mp_connection.wait(readers, timeout=_WATCHDOG_TICK_S)
            except OSError:  # pragma: no cover - teardown race
                pass
            got_msg = False
            for w in group:
                while True:
                    try:
                        msg = self._result_chans[w].get_nowait()
                    except queue.Empty:
                        break
                    got_msg = True
                    mjid, wid, status, a, b, _c = msg
                    if mjid != jid:
                        raise RuntimeError(
                            f"worker {wid} answered job {mjid} while job "
                            f"{jid} ran: a result pipe outlived its job")
                    if status == "ckpt":
                        self._ckpts[(wid, a)] = b
                        continue
                    outcomes[wid] = (status, a, b, _c)
                    if status == "error":
                        errors.append((wid, a, b))
            if got_msg:
                continue  # drain fast; liveness re-checked next empty tick

            for wid in sorted(need):
                if settled(wid):
                    continue
                p = self._procs[wid]
                alive = p.is_alive()
                if alive and now - float(self._hb[wid, 0]) \
                        > self.hang_timeout:
                    # hung (SIGSTOP/livelock): escalate to SIGKILL; the
                    # next branch turns it into a detected death
                    self.metrics.counter(
                        "repro_backend_worker_hangs_total",
                        "workers whose heartbeat went stale in-flight"
                        ).inc()
                    hung.append(wid)
                    p.kill()
                    p.join(timeout=1.0)
                    alive = p.is_alive()
                if not alive:
                    deaths.append(wid)
                    if detected_at is None:
                        detected_at = time.monotonic()
                    self.metrics.counter(
                        "repro_backend_worker_deaths_total",
                        "worker processes that died with a job in flight"
                        ).inc()
                    if not flooded:
                        flooded = True
                        self._flood_abort(jid, group, wid,
                                          "worker process died")
                        grace_until = now + max(_ABORT_GRACE_S,
                                                2 * self.hang_timeout)

            if deadline is not None and not deadline_tripped \
                    and deadline.expired():
                deadline_tripped = True
                if not flooded:
                    flooded = True
                    self._flood_abort(jid, group, -1, "deadline expired")
                grace_until = now + _ABORT_GRACE_S

            if hedge is not None and est is not None and not hedged \
                    and not deaths and len(group) >= hedge.min_ranks \
                    and now - t0 > max(hedge.threshold * est, 0.05):
                laggards = self._find_laggards(group, outcomes, now)
                if laggards:
                    hedged.extend(laggards)
                    if not flooded:
                        flooded = True
                        self._flood_abort(jid, group, laggards[0],
                                          "straggler hedged")
                    grace_until = now + max(_ABORT_GRACE_S,
                                            2 * self.hang_timeout)
                    for wid in laggards:
                        self._procs[wid].kill()
                        self._procs[wid].join(timeout=1.0)

            if grace_until is not None and now > grace_until:
                for wid in sorted(need):
                    if not settled(wid):
                        outcomes[wid] = ("aborted",
                                         "no outcome within the grace "
                                         "period", None, None)
                break
            if now > hard_deadline:
                missing = sorted(w for w in need if not settled(w))
                raise RuntimeError(
                    f"workers unresponsive after "
                    f"{self.mailbox_timeout:.0f}s (job {jid}: ranks "
                    f"{missing} missing)")

        # deaths among hedge victims are intentional, not failures
        deaths = [w for w in deaths if w not in hedged]
        return _JobOutcome(outcomes=outcomes, errors=errors, deaths=deaths,
                           hung=[w for w in hung if w in deaths],
                           hedged=hedged, detected_at=detected_at,
                           deadline_tripped=deadline_tripped)

    def _find_laggards(self, group: tuple, outcomes: dict,
                       now: float) -> list[int]:
        """Workers behind the group's progress front but not hung.

        Progress is the collective index each worker last entered
        (written next to its heartbeat); a rank that has not reached its
        first collective — a starved one asleep at ``"start"`` — sits at
        -1.  Hung workers are the hang watchdog's business, not the
        hedge's.
        """
        prog = {wid: float(self._hb[wid, 1]) for wid in group}
        front = max(prog.values())
        laggards = []
        for wid in group:
            if wid in outcomes:
                continue
            if not self._procs[wid].is_alive():
                continue
            if now - float(self._hb[wid, 0]) > self.hang_timeout:
                continue
            if prog[wid] < front:
                laggards.append(wid)
        return laggards

    def _flood_abort(self, jid: int, group: tuple, culprit: int,
                     reason: str) -> None:
        """Unblock every live group member waiting in a collective."""
        for wid in group:
            if self._procs[wid].is_alive():
                try:
                    self._mailboxes[wid].put(("abort", jid, culprit,
                                              reason))
                except Exception:  # pragma: no cover - queue torn down
                    pass

    def _handle_deaths(self, jid: int, label: str, group: tuple,
                       out: _JobOutcome) -> None:
        """Turn detected worker deaths into a recoverable RankFailed."""
        dead = tuple(sorted(out.deaths))
        survivors = tuple(w for w in group if w not in dead
                          and self._procs[w].is_alive())
        reason = ", ".join(
            f"worker {w} "
            + ("hung (heartbeat stale), killed" if w in out.hung else
               f"read a torn job frame (exitcode {_TORN_FRAME_EXIT})"
               if self._procs[w].exitcode == _TORN_FRAME_EXIT else
               f"died (exitcode {self._procs[w].exitcode})")
            for w in dead)
        self.last_failure = WorkerFailure(
            job_id=jid, job_label=label, dead=dead, survivors=survivors,
            detected_at=out.detected_at or time.monotonic(),
            reason=reason, hung=tuple(out.hung))
        self._workers_gauge.set(len(self.live_workers()))
        exc = RankFailed(
            dead[0],
            f"{reason} during job {jid} ({label!r}); "
            f"survivors: {list(survivors)}")
        exc.dead_ranks = dead
        exc.survivors = survivors
        exc.job_label = label
        exc.detected_at = self.last_failure.detected_at
        raise exc from RuntimeError(
            f"job {jid} ({label!r}) lost workers {list(dead)}: {reason}")

    # -- telemetry -----------------------------------------------------

    def _fold_telemetry(self, jid: int, label: str,
                        steps_by_rank: dict[int, list]) -> None:
        all_steps = [s for steps in steps_by_rank.values()
                     for s in (steps or ())]
        if not all_steps:
            return
        t0 = min(s[2] for s in all_steps)
        t1 = max(s[3] for s in all_steps)
        base = self._t_cursor - t0
        rec = self.trace.recorder
        for rank, steps in sorted(steps_by_rank.items()):
            steps = steps or []
            lo = min(s[2] for s in steps) if steps else t0
            hi = max(s[3] for s in steps) if steps else t0
            scope = rec.begin(rank, label, "other", base + lo,
                              attributes={"job": jid, "measured": True})
            for slabel, category, s0, s1 in steps:
                self.trace.record(rank, slabel, category,
                                  base + s0, base + s1)
            rec.end(scope, base + hi)
        self._t_cursor = base + t1
        jobs, wall, compute, exchange = self._job_counters
        jobs.inc()
        wall.inc(t1 - t0)
        for cat, seconds in (("compute", compute), ("mpi", exchange)):
            seconds.inc(sum(s[3] - s[2] for s in all_steps if s[1] == cat))


def _sdc_only(plan) -> bool:
    """True when a FaultPlan carries nothing the real fabric can't do."""
    return (not getattr(plan, "corrupt_messages", ())
            and not getattr(plan, "timeout_messages", ())
            and not getattr(plan, "rank_failures", {})
            and not getattr(plan, "stragglers", {})
            and not getattr(plan, "jitter", 0.0))
