"""Generator-based SPMD runtime: write rank-local programs, MPI style.

Distributed algorithms are written the way the paper's symmetric-mode
code is: each rank is a Python generator that *yields* communication
requests and receives the result of the collective at the resume point
(:func:`repro.core.soi_dist.soi_rank_program` is the SOI one):

    def program(ctx):
        halo = yield SendRecvRing(to_left=my_left, to_right=my_right)
        ...
        blocks = yield AllToAll(per_dest_list)
        ...
        return my_result

The request types are the whole interface between a program and its
executor.  :func:`run_spmd`, the simulated engine, steps all ranks to
their next request, verifies they agree on the collective (SPMD
discipline — mismatched collectives deadlock real MPI and raise here),
performs the exchange through the cluster's
:class:`~repro.cluster.communicator.Communicator` (which moves the bytes
and charges the simulated clocks), and resumes;
:class:`~repro.cluster.backends.ProcessBackend` serves the same requests
between real worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.cluster.simcluster import SimCluster

__all__ = ["AllToAll", "Barrier", "Bcast", "Checkpoint", "Compute",
           "RankContext", "SendRecvRing", "SpmdError", "run_spmd"]


@dataclass(frozen=True)
class AllToAll:
    """Yield with one ndarray per destination rank; resumes with a list
    of arrays, one per source rank.  *groups* asks the simulated fabric
    for the two-level exchange of
    :meth:`~repro.cluster.communicator.Communicator.alltoall`; real
    workers exchange through shared memory and ignore it."""

    per_dest: list
    label: str = "all-to-all"
    groups: list | None = None


@dataclass(frozen=True)
class SendRecvRing:
    """Yield with halos for the left/right neighbors; resumes with
    ``(from_left, from_right)``."""

    to_left: np.ndarray
    to_right: np.ndarray
    label: str = "ghost exchange"


@dataclass(frozen=True)
class Bcast:
    """Yield with (buffer if root else None); resumes with the buffer."""

    buf: np.ndarray | None
    root: int = 0
    label: str = "bcast"


@dataclass(frozen=True)
class Barrier:
    label: str = "barrier"


@dataclass(frozen=True)
class Compute:
    """Charge simulated compute seconds on this rank (resumes with None)."""

    seconds: float
    label: str = "compute"


@dataclass(frozen=True)
class Checkpoint:
    """Stash rank-local stage data with the runtime (resumes with None).

    The engine stores *data* under ``(rank, tag)`` in the ``checkpoints``
    dict passed to :func:`run_spmd` and charges the rank the streaming
    cost of writing it — so if a later collective declares a rank dead,
    the caller can restart from the survivors' checkpoints instead of
    from scratch (see :func:`repro.core.soi_spmd.spmd_soi_fft`).
    """

    data: Any
    tag: str = "checkpoint"


@dataclass(frozen=True)
class RankContext:
    """What a rank program knows about itself."""

    rank: int
    size: int
    cluster: SimCluster = field(repr=False)


class SpmdError(RuntimeError):
    """SPMD discipline violation (mismatched collectives across ranks)."""


def _check_uniform(requests: list) -> type:
    kinds = {type(r) for r in requests}
    if len(kinds) != 1:
        raise SpmdError(f"ranks disagree on the collective: "
                        f"{sorted(k.__name__ for k in kinds)}")
    labels = {r.label for r in requests}
    if len(labels) != 1:
        raise SpmdError(f"ranks disagree on the collective label: {labels}")
    return kinds.pop()


def run_spmd(cluster: SimCluster, program: Callable, *args,
             checkpoints: dict | None = None, hedge=None,
             ranks=None) -> list:
    """Run *program(ctx, \\*args)* as a generator on every rank.

    Returns the list of per-rank return values.  Compute requests are
    charged per rank; collectives are matched across all participants.
    Ranks must finish after the same number of collectives (a rank
    returning early while others still communicate raises).

    *ranks* restricts the run to a subset of the cluster (a shrunken
    communicator, the way recovery runs on the survivors): participant
    *i* sees ``ctx.rank == i`` and ``ctx.size == len(ranks)`` while its
    charges, checkpoints and collectives land on global rank
    ``ranks[i]``.  The ring exchange is defined on the full cluster only.

    *checkpoints*, if given, is filled in place with the data of every
    :class:`Checkpoint` request under ``(global rank, tag)`` keys.
    Because the caller owns the dict, checkpointed stage data survives a
    collective raising :class:`~repro.cluster.faults.RankFailed` — the
    basis for shrink-and-redistribute restarts.

    *hedge*, if given, is a :class:`repro.verify.watchdog.HedgePolicy`:
    after each stepping round (all ranks advanced to their next
    collective) it reviews the round's per-rank compute charges and
    speculatively duplicates straggling steps on idle peers, first
    finisher wins (charged to the ``"hedge"`` trace category).
    """
    parts = list(range(cluster.n_ranks)) if ranks is None else list(ranks)
    p = len(parts)
    gens = []
    for i in range(p):
        g = program(RankContext(i, p, cluster), *args)
        if not hasattr(g, "send"):
            raise TypeError("program must be a generator function "
                            "(use 'yield' for collectives)")
        gens.append(g)
    results: list = [None] * p
    payload: list = [None] * p
    done = [False] * p
    try:
        while not all(done):
            requests: list = [None] * p
            round_steps: list = []  # (rank, label, t0, seconds) this round
            for i, g in enumerate(gens):
                if done[i]:
                    continue
                r = parts[i]
                try:
                    while True:
                        req = g.send(payload[i])
                        payload[i] = None
                        if isinstance(req, Compute):
                            t0 = cluster.clocks[r]
                            cluster.charge_seconds(r, req.label, req.seconds)
                            # record the *charged* duration (noise models
                            # may inflate it) — what hedging must see
                            round_steps.append(
                                (r, req.label, t0, cluster.clocks[r] - t0))
                            continue  # local: keep stepping this rank
                        if isinstance(req, Checkpoint):
                            if checkpoints is not None:
                                checkpoints[(r, req.tag)] = req.data
                            nbytes = getattr(req.data, "nbytes", 0)
                            cluster.charge_seconds(
                                r, "checkpoint",
                                cluster.machine_of(r).mem_time(nbytes))
                            continue  # local: keep stepping this rank
                        requests[i] = req
                        break
                except StopIteration as stop:
                    done[i] = True
                    results[i] = stop.value
            if hedge is not None and round_steps:
                hedge.review(cluster, round_steps)
            live = [i for i in range(p) if not done[i]]
            if not live:
                break
            if any(done):
                raise SpmdError("some ranks finished while others still "
                                "communicate (unbalanced collective counts)")
            kind = _check_uniform(requests)
            if kind is AllToAll:
                send = [req.per_dest for req in requests]
                for row in send:
                    if len(row) != p:
                        raise SpmdError("AllToAll needs one buffer per rank")
                recv = cluster.comm.alltoall(
                    [[np.asarray(b) for b in row] for row in send],
                    label=requests[0].label, ranks=ranks,
                    groups=requests[0].groups)
                for i in range(p):
                    payload[i] = recv[i]
            elif kind is SendRecvRing:
                if ranks is not None:
                    raise SpmdError("the ring exchange runs on the full "
                                    "cluster, not on a rank subset")
                fl, fr = cluster.comm.ring_exchange(
                    [np.asarray(req.to_left) for req in requests],
                    [np.asarray(req.to_right) for req in requests],
                    label=requests[0].label)
                for i in range(p):
                    payload[i] = (fl[i], fr[i])
            elif kind is Bcast:
                root = requests[0].root
                if any(req.root != root for req in requests):
                    raise SpmdError("ranks disagree on bcast root")
                if requests[root].buf is None:
                    raise SpmdError("bcast root provided no buffer")
                out = cluster.comm.bcast(np.asarray(requests[root].buf),
                                         root=parts[root], ranks=ranks,
                                         label=requests[0].label)
                for i in range(p):
                    payload[i] = out[i]
            elif kind is Barrier:
                cluster.comm.barrier(label=requests[0].label, ranks=ranks)
            else:  # pragma: no cover - _check_uniform limits the kinds
                raise SpmdError(f"unknown request type {kind.__name__}")
    finally:
        for g in gens:
            g.close()  # leave no suspended generators if a collective raised
    return results
