"""The only doorway between ranks of a simulated cluster.

On the simulated cluster each rank's data lives in its own NumPy buffers,
and *every* inter-rank byte must pass through a :class:`Communicator`
collective — whether a rank program yields the request to the SPMD engine
(:mod:`repro.cluster.spmd`) or a baseline calls it phase by phase.  The communicator
really moves the bytes (copies between per-rank arrays) and charges
simulated time from the transport model, so communication volume, message
counts, and packet sizes are exact — which is what the paper's
communication-cost arguments are about.

All five collectives execute through one verified path.  When a
:class:`~repro.cluster.faults.FaultPlan` is installed (see
:meth:`Communicator.install_faults`), every non-self payload is
checksummed at the sender and verified at the receiver, the plan may
tamper with payloads or make ranks unresponsive in between, and detected
faults trigger retry with exponential backoff: the failed attempt is
charged normally, the backoff wait and the re-flown transfer are charged
under the ``"retry"`` trace category, and a rank that stays unresponsive
past :attr:`~repro.cluster.faults.RetryPolicy.max_retries` is declared
dead (:class:`~repro.cluster.faults.RankFailed`) for the algorithm layer
to shrink around.

Two per-request hooks plug into the same path (both duck-typed, so this
module never imports :mod:`repro.resilience`):

* :meth:`Communicator.install_deadline` arms stage-boundary deadline
  enforcement — every collective checks the deadline at entry and before
  each retry, and charges its duration (attempts, backoff waits) to the
  request's budget;
* :meth:`Communicator.install_breakers` arms per-link circuit breakers —
  repeated failures on one directed link trip it open, after which
  collectives touching the link fail fast (escalating immediately
  instead of burning the retry budget), with state transitions stamped
  into the trace as zero-duration ``"other"`` events.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.cluster.faults import (
    CorruptionDetected,
    FaultPlan,
    PartitionDetected,
    RankFailed,
    RetriesExhausted,
    RetryPolicy,
    checksum,
)
from repro.telemetry.metrics import NULL_REGISTRY

__all__ = ["Communicator"]


def _nbytes(a: np.ndarray) -> int:
    return int(np.asarray(a).nbytes)


class _Route:
    """One non-self wire payload inside a collective attempt."""

    __slots__ = ("src", "dst", "get", "set")

    def __init__(self, src: int, dst: int, get: Callable[[], np.ndarray],
                 set_: Callable[[np.ndarray], None]):
        self.src = src
        self.dst = dst
        self.get = get
        self.set = set_


class Communicator:
    """Collective operations over the ranks of a SimCluster."""

    def __init__(self, cluster) -> None:
        self._cluster = cluster
        self.message_count = 0
        self.bytes_moved = 0
        self.retry_count = 0
        self._plan: FaultPlan | None = None
        self._policy = RetryPolicy()
        self._deadline = None  # duck-typed: .check(stage), .charge(k, s)
        self._breakers = None  # duck-typed: a BreakerBoard
        # registry instruments (no-ops when the cluster's registry is
        # disabled, so the hot collective path stays branch-free)
        reg = getattr(cluster, "metrics", None) or NULL_REGISTRY
        self._m_bytes = reg.counter(
            "repro_cluster_wire_bytes_total",
            "payload bytes that crossed the simulated wire")
        self._m_messages = reg.counter(
            "repro_cluster_wire_messages_total",
            "point-to-point messages inside collectives")
        self._m_retries = reg.counter(
            "repro_cluster_retries_total",
            "collective attempts re-flown after detected faults")
        self._m_breaker_transitions = reg.counter(
            "repro_cluster_breaker_transitions_total",
            "circuit-breaker state changes on directed links")
        self._m_link_faults = reg.counter(
            "repro_cluster_link_faults_total",
            "payloads lost to degraded or flapping links")
        self._m_partition_stalls = reg.counter(
            "repro_cluster_partition_stalls_total",
            "collective attempts stalled on a fabric partition")

    @property
    def size(self) -> int:
        return self._cluster.n_ranks

    # -- fault layer --------------------------------------------------------

    def install_faults(self, plan: FaultPlan,
                       policy: RetryPolicy | None = None) -> None:
        """Arm the verified path: checksums, the plan's faults, retries."""
        self._plan = plan
        if policy is not None:
            self._policy = policy

    def clear_faults(self) -> None:
        self._plan = None
        self._policy = RetryPolicy()

    @property
    def fault_plan(self) -> FaultPlan | None:
        return self._plan

    @property
    def retry_policy(self) -> RetryPolicy:
        return self._policy

    # -- per-request resilience hooks ---------------------------------------

    def install_deadline(self, deadline) -> None:
        """Arm per-request deadline enforcement on every collective.

        *deadline* is duck-typed (``check(stage)`` raising on expiry,
        ``charge(purpose, seconds)``) so the resilience layer stays
        import-free from here; pass ``None`` to restore a previous
        deadline when nesting.
        """
        self._deadline = deadline

    def clear_deadline(self) -> None:
        self._deadline = None

    @property
    def deadline(self):
        return self._deadline

    def install_breakers(self, board) -> None:
        """Arm per-link circuit breakers (a ``BreakerBoard``) on the
        verified path.  Shared across requests by the serving layer."""
        self._breakers = board

    def clear_breakers(self) -> None:
        self._breakers = None

    @property
    def breakers(self):
        return self._breakers

    # -- internals --------------------------------------------------------

    def _collective(self, label: str, duration: float,
                    nbytes_by_rank: dict[int, int], category: str = "mpi",
                    participants: list[int] | None = None) -> None:
        """Synchronize participants' clocks, advance by *duration*, trace."""
        cl = self._cluster
        ranks = participants if participants is not None \
            else list(range(self.size))
        start = max(cl.clocks[r] for r in ranks)
        for r in ranks:
            cl.clocks[r] = start + duration
            cl.trace.record(r, label, category, start, start + duration,
                            nbytes_by_rank.get(r, 0))

    def _deliver(self, label: str, execute: Callable, *, duration: float,
                 nbytes_by_rank: dict[int, int], participants: list[int],
                 n_wire_messages: int, wire_bytes: int,
                 category: str = "mpi"):
        """Run one collective through the verified/retry path.

        *execute* performs the data movement and returns ``(result,
        routes)`` — it is re-invoked for every attempt, so retries really
        re-fly the wire.  Without an installed plan this is a single
        charged attempt with no checksum overhead.
        """
        plan, policy = self._plan, self._policy
        deadline, board = self._deadline, self._breakers
        if deadline is not None:
            deadline.check(label)
        if board is not None:
            self._fail_fast_on_open_links(label, participants, plan)
        result, routes = execute()
        self.message_count += n_wire_messages
        self.bytes_moved += wire_bytes
        self._m_messages.inc(n_wire_messages)
        self._m_bytes.inc(wire_bytes)
        if plan is None:
            self._collective(label, duration, nbytes_by_rank, category,
                             participants)
            if deadline is not None:
                deadline.charge(category, duration)
            return result

        slowdown = 1.0
        if plan.degraded_links:
            # a synchronized collective runs at its slowest link's pace
            slowdown = plan.link_slowdown(
                {(r.src, r.dst) for r in routes})
        attempt = 0
        while True:
            dead = plan.begin_transfer() & set(participants)
            failures: list[tuple[int, int, str]] = []
            check_links = plan.has_link_faults
            for route in routes:
                payload = route.get()
                ref = checksum(payload)  # sender-side checksum
                tampered, fault = plan.apply(payload)
                if route.src in dead or route.dst in dead:
                    failures.append((route.src, route.dst, "unresponsive"))
                    continue
                if fault == "timeout":
                    failures.append((route.src, route.dst, "timeout"))
                    continue
                if check_links and fault is None:
                    # correlated link behavior: partitions, flaps, loss
                    fault = plan.link_fault(route.src, route.dst)
                    if fault is not None:
                        if fault != "partitioned":
                            self._m_link_faults.inc()
                        failures.append((route.src, route.dst, fault))
                        continue
                if tampered is not payload:
                    route.set(tampered)
                    payload = tampered
                if checksum(payload) != ref:
                    failures.append((route.src, route.dst, "corrupt"))
            if not routes and dead:
                # route-free collectives (barrier) still detect dead ranks
                failures = [(r, r, "unresponsive") for r in sorted(dead)]

            stalled = any(kind != "corrupt" for _, _, kind in failures)
            partitioned = any(kind == "partitioned"
                              for _, _, kind in failures)
            att_duration = duration * slowdown + \
                (policy.timeout_seconds if stalled else 0.0)
            att_category = category if attempt == 0 else "retry"
            if partitioned:
                # a cut fabric is a different beast from a flaky link:
                # stall time is charged to its own trace category
                att_category = "partition"
                self._m_partition_stalls.inc()
            self._collective(label, att_duration, nbytes_by_rank,
                             att_category, participants)
            if deadline is not None:
                deadline.charge(att_category, att_duration)
            tripped = False
            if board is not None:
                tripped = self._record_on_board(routes, failures, dead,
                                                participants)
            if not failures:
                return result

            if tripped or attempt >= policy.max_retries:
                # A link just tripped open (stop burning retries on it)
                # or the policy's retry budget is spent: escalate.
                exc, cause = self._escalate(label, failures, dead,
                                            attempt + 1, plan,
                                            participants)
                if cause is not None:
                    raise exc from cause
                raise exc

            backoff = policy.backoff(attempt)
            if backoff > 0:
                wait_cat = "partition" if partitioned else "retry"
                self._collective(f"{label} (backoff)", backoff, {},
                                 wait_cat, participants)
                if deadline is not None:
                    deadline.charge(wait_cat, backoff)
            if deadline is not None:
                deadline.check(f"{label} (retry)")
            self.retry_count += 1
            self.message_count += n_wire_messages
            self.bytes_moved += wire_bytes
            self._m_retries.inc()
            self._m_messages.inc(n_wire_messages)
            self._m_bytes.inc(wire_bytes)
            result, routes = execute()  # the retry re-flies the data
            attempt += 1

    def _escalate(self, label: str, failures: list[tuple[int, int, str]],
                  dead: set[int], attempts: int, plan: FaultPlan | None,
                  participants: list[int] | None = None
                  ) -> tuple[Exception, Exception | None]:
        """Map persistent route failures to the exception to raise.

        Returns ``(exception, cause)``; the cause (the underlying timeout
        or checksum mismatch) is chained with ``raise ... from`` so the
        algorithm layer sees *why* the collective was given up on.
        """
        partitioned = [(s, d) for s, d, kind in failures
                       if kind == "partitioned"]
        if partitioned:
            # liveness signal: the persistent failures are exactly the
            # cross-component routes of an active partition event
            comps = plan.partition_components(participants) \
                if plan is not None else ()
            src, dst = partitioned[0]
            sizes = "+".join(str(len(c)) for c in comps)
            return PartitionDetected(
                f"fabric partitioned ({sizes}) in '{label}': "
                f"{len(partitioned)} route(s) (first {src}->{dst}) "
                f"dead across the cut after {attempts} attempt(s)",
                components=comps), TimeoutError(
                    f"route {src}->{dst} crosses the partition cut")
        unresponsive = sorted(
            r for s, d, kind in failures if kind == "unresponsive"
            for r in (s, d) if r in dead)
        if unresponsive:
            rank = unresponsive[0]
            self._cluster.fail_rank(rank)
            if plan is not None:
                plan.failed_ranks_declared.append(rank)
            cause = TimeoutError(
                f"rank {rank} stopped acknowledging transfers")
            return RankFailed(
                rank, f"rank {rank} unresponsive in '{label}' "
                      f"after {attempts} attempt(s)"), cause
        src, dst, kind = failures[0]
        if kind == "corrupt":
            return CorruptionDetected(
                f"payload {src}->{dst} failed its checksum in "
                f"'{label}' after {attempts} attempt(s)"), None
        n_corrupt = sum(1 for _, _, k in failures if k == "corrupt")
        cause: Exception = CorruptionDetected(
            f"{n_corrupt} payload(s) also failed checksums") if n_corrupt \
            else TimeoutError(f"transfer {src}->{dst} timed out")
        return RetriesExhausted(
            f"'{label}' still timing out after "
            f"{attempts} attempt(s)"), cause

    # -- circuit-breaker plumbing -------------------------------------------

    def _stamp_breaker_transitions(self) -> None:
        """Record drained breaker state changes as zero-duration events."""
        for tr in self._breakers.drain_transitions():
            self._cluster.trace.record(
                tr.src, f"breaker {tr.old}->{tr.new} [{tr.src}->{tr.dst}]",
                "other", tr.at, tr.at)
            self._m_breaker_transitions.inc()

    def _record_on_board(self, routes, failures, dead: set[int],
                         participants: list[int]) -> bool:
        """Feed one attempt's outcome to the breaker board.

        Returns True if any link tripped open on this attempt.  Routes
        that flew clean count as successes (closing half-open breakers);
        each failure counts against its directed link, with the dead
        endpoint remembered as the suspect for fast declaration.
        """
        board, cl = self._breakers, self._cluster
        now = max(cl.clocks[r] for r in participants)
        failed_links = {(s, d) for s, d, _ in failures}
        tripped = False
        for s, d, kind in failures:
            suspect = None
            if kind == "unresponsive":
                suspect = s if s in dead else d
            if board.record_failure(s, d, kind, suspect=suspect, now=now):
                tripped = True
        for route in routes:
            if (route.src, route.dst) not in failed_links:
                board.record_success(route.src, route.dst, now=now)
        self._stamp_breaker_transitions()
        return tripped

    def _fail_fast_on_open_links(self, label: str, participants: list[int],
                                 plan: FaultPlan | None) -> None:
        """Short-circuit a collective touching an open (uncooled) link.

        Raises the same exception the retry path would eventually reach,
        without re-burning the retry budget: an unresponsive suspect is
        declared dead on the spot (handing the algorithm layer straight
        to its shrink-and-recover path), corrupt links raise
        :class:`CorruptionDetected`, timing-out links
        :class:`RetriesExhausted`.  Cooled-down links transition to
        half-open inside ``blocking`` and let this attempt through as
        their trial.
        """
        board, cl = self._breakers, self._cluster
        now = max(cl.clocks[r] for r in participants)
        blocked = board.blocking(participants, now)
        self._stamp_breaker_transitions()
        if not blocked:
            return
        board.fast_failures += 1
        src, dst, brk = blocked[0]
        kind = brk.last_kind or "timeout"
        if kind == "partitioned":
            # breaker signal: links that tripped on cross-cut routes fail
            # the collective fast with the same census the retry path
            # would eventually produce
            comps = plan.partition_components(participants) \
                if plan is not None else ()
            sizes = "+".join(str(len(c)) for c in comps)
            raise PartitionDetected(
                f"open breaker on link {src}->{dst}: fabric partitioned "
                f"({sizes}), failing '{label}' fast",
                components=comps) from TimeoutError(
                    f"link {src}->{dst} tripped across the partition cut")
        if kind == "unresponsive":
            rank = brk.suspect_rank if brk.suspect_rank is not None else src
            self._cluster.fail_rank(rank)
            if plan is not None and rank not in plan.failed_ranks_declared:
                plan.failed_ranks_declared.append(rank)
            raise RankFailed(
                rank, f"open breaker on link {src}->{dst}: rank {rank} "
                      f"declared failed without retrying '{label}'") \
                from TimeoutError(
                    f"link {src}->{dst} tripped after repeated "
                    f"unresponsive transfers")
        if kind == "corrupt":
            raise CorruptionDetected(
                f"open breaker on link {src}->{dst}: failing '{label}' "
                f"fast after repeated checksum failures")
        raise RetriesExhausted(
            f"open breaker on link {src}->{dst}: failing '{label}' fast "
            f"after repeated timeouts") from TimeoutError(
                f"link {src}->{dst} tripped after repeated timeouts")

    @staticmethod
    def _resolve(ranks: list[int] | None, size: int) -> list[int]:
        if ranks is None:
            return list(range(size))
        if len(set(ranks)) != len(ranks) or not ranks:
            raise ValueError("ranks must be a non-empty list of distinct "
                             "rank ids")
        if any(not 0 <= r < size for r in ranks):
            raise ValueError("rank id out of range")
        return list(ranks)

    # -- collectives --------------------------------------------------------

    def alltoall(self, sendbufs: list[list[np.ndarray]],
                 label: str = "alltoall",
                 ranks: list[int] | None = None,
                 groups: list[list[int]] | None = None
                 ) -> list[list[np.ndarray]]:
        """Personalized all-to-all: ``recv[dst][src] = send[src][dst]``.

        *sendbufs* is a q-by-q nested list of arrays (row = source rank)
        where q is the number of participants — all ranks by default, or
        the subset *ranks* (a shrunken communicator, MPI
        ``Comm_shrink``-style, indexed in participant order).  Self-
        messages are local copies and do not count toward wire traffic.

        *groups*, a partition of the participants into equal-size groups
        by topology distance (e.g. the fabric's fault domains), selects
        the **hierarchical two-level exchange**: an intra-group
        all-to-all aggregating each member's blocks by destination local
        index, then one inter-group exchange per local index moving the
        aggregates between groups.  Each rank sends ``(m-1) + (G-1)``
        messages instead of ``q-1`` — the latency collapse that keeps
        10^3–10^4-rank exchanges tractable — and a failing group maps
        onto exactly one intra-group collective.  Results are bitwise
        identical to the flat exchange.
        """
        parts = self._resolve(ranks, self.size)
        q = len(parts)
        if len(sendbufs) != q or any(len(row) != q for row in sendbufs):
            raise ValueError(f"sendbufs must be {q}x{q}")
        if groups is not None:
            checked = self._check_groups(groups, parts, sendbufs)
            if checked is not None:
                return self._alltoall_two_level(sendbufs, label, parts,
                                                checked)
        wire_by_rank = {
            parts[src]: sum(_nbytes(sendbufs[src][dst]) for dst in range(q)
                            if dst != src)
            for src in range(q)}
        pair_sizes = [_nbytes(sendbufs[src][dst])
                      for src in range(q) for dst in range(q) if src != dst]
        bytes_per_pair = float(np.mean(pair_sizes)) if pair_sizes else 0.0
        duration = self._cluster.transport.alltoall_time(q, bytes_per_pair)

        def execute():
            recv = [[np.array(sendbufs[src][dst], copy=True)
                     for src in range(q)] for dst in range(q)]
            routes = [
                _Route(parts[src], parts[dst],
                       lambda src=src, dst=dst: recv[dst][src],
                       lambda v, src=src, dst=dst:
                           recv[dst].__setitem__(src, v))
                for src in range(q) for dst in range(q) if src != dst]
            return recv, routes

        return self._deliver(label, execute, duration=duration,
                             nbytes_by_rank=wire_by_rank,
                             participants=parts,
                             n_wire_messages=q * (q - 1),
                             wire_bytes=sum(wire_by_rank.values()))

    @staticmethod
    def _check_groups(groups: list[list[int]], parts: list[int],
                      sendbufs: list[list[np.ndarray]]
                      ) -> list[list[int]] | None:
        """Validate a two-level grouping; None selects the flat path.

        Groups must partition the participants exactly; unequal sizes
        raise (the inter-group phase pairs members at matching local
        indices, so a ragged grouping has no well-defined schedule).
        A single group, or groups of one, degenerate to the flat
        exchange.  So do mixed-dtype sendbufs: the two-level phases
        concatenate blocks, which would promote every block to the
        common dtype, while the flat exchange preserves each block's
        dtype — the bitwise-identity contract only holds per dtype.
        """
        flat = [r for g in groups for r in g]
        if len(flat) != len(set(flat)) or set(flat) != set(parts):
            raise ValueError("groups must partition the participants")
        if len(groups) < 2 or any(len(g) < 2 for g in groups):
            return None
        if len({len(g) for g in groups}) != 1:
            raise ValueError("two-level all-to-all needs equal-size "
                             "groups; regroup or use the flat exchange")
        dtypes = iter(np.asarray(b).dtype for row in sendbufs for b in row)
        first = next(dtypes, None)
        if any(d != first for d in dtypes):
            return None
        return [list(g) for g in groups]

    def _alltoall_two_level(self, sendbufs: list[list[np.ndarray]],
                            label: str, parts: list[int],
                            groups: list[list[int]]
                            ) -> list[list[np.ndarray]]:
        """Intra-group aggregation, then inter-group exchange.

        Phase 1 runs one all-to-all *inside* each group: member i ships
        member j everything it holds for local index j of any group
        (blocks raveled and concatenated in group order).  Phase 2 runs
        one all-to-all per local index j across the groups, moving the
        aggregated per-group payloads.  Groups are disjoint rank sets,
        so the per-group (and per-index) collectives overlap in
        simulated time exactly as they would on disjoint switches.
        """
        pos = {r: i for i, r in enumerate(parts)}
        gpos = [[pos[r] for r in grp] for grp in groups]
        n_groups, m = len(groups), len(groups[0])
        sizes = [[blk.size for blk in row] for row in sendbufs]

        # ---- phase 1: aggregate by destination local index ----
        recv1 = []
        for gi in range(n_groups):
            bufs = [[np.concatenate(
                [np.ravel(sendbufs[gpos[gi][i]][gpos[h][j]])
                 for h in range(n_groups)])
                for j in range(m)] for i in range(m)]
            recv1.append(self.alltoall(bufs, ranks=groups[gi],
                                       label=f"{label} [intra]"))

        # ---- phase 2: exchange aggregates between groups ----
        recv2 = []
        for j in range(m):
            bufs2 = []
            for gi in range(n_groups):
                # recv1[gi][j][i] holds source (gi, i)'s blocks for local
                # index j, ordered by destination group; regroup h-major
                offs = np.zeros((m, n_groups + 1), dtype=np.int64)
                for i in range(m):
                    np.cumsum([sizes[gpos[gi][i]][gpos[h][j]]
                               for h in range(n_groups)],
                              out=offs[i, 1:])
                bufs2.append([np.concatenate(
                    [recv1[gi][j][i][offs[i, h]:offs[i, h + 1]]
                     for i in range(m)])
                    for h in range(n_groups)])
            recv2.append(self.alltoall(
                bufs2, ranks=[groups[h][j] for h in range(n_groups)],
                label=f"{label} [inter]"))

        # ---- unpack into the flat recv[dst][src] contract ----
        recv: list[list[np.ndarray]] = [[None] * len(parts)
                                        for _ in range(len(parts))]
        for h in range(n_groups):
            for j in range(m):
                d = gpos[h][j]
                for gi in range(n_groups):
                    pay = recv2[j][h][gi]
                    off = 0
                    for i in range(m):
                        s = gpos[gi][i]
                        n = sizes[s][d]
                        recv[d][s] = pay[off:off + n].reshape(
                            sendbufs[s][d].shape)
                        off += n
        return recv

    def ring_exchange(self, to_left: list[np.ndarray],
                      to_right: list[np.ndarray],
                      label: str = "ghost exchange"
                      ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Bidirectional nearest-neighbor exchange on a ring.

        Rank r sends ``to_left[r]`` to rank r-1 and ``to_right[r]`` to rank
        r+1 (periodic).  Returns ``(from_left, from_right)`` where
        ``from_left[r]`` is what rank r-1 sent right, and ``from_right[r]``
        is what rank r+1 sent left — i.e. the ghost halos of rank r.
        """
        p = self.size
        if len(to_left) != p or len(to_right) != p:
            raise ValueError("need one send buffer per rank in each direction")
        per_rank = {r: _nbytes(to_left[r]) + _nbytes(to_right[r])
                    for r in range(p)}
        if p == 1:
            duration = 0.0
            per_rank = {0: 0}
        else:
            msg = max(max(_nbytes(a) for a in to_left),
                      max(_nbytes(a) for a in to_right))
            duration = self._cluster.transport.ring_exchange_time(msg, p)

        def execute():
            from_left = [np.array(to_right[(r - 1) % p], copy=True)
                         for r in range(p)]
            from_right = [np.array(to_left[(r + 1) % p], copy=True)
                          for r in range(p)]
            routes = []
            if p > 1:
                for r in range(p):
                    # r's to_left lands as the left neighbor's from_right
                    routes.append(_Route(
                        r, (r - 1) % p,
                        lambda r=r: from_right[(r - 1) % p],
                        lambda v, r=r: from_right.__setitem__((r - 1) % p,
                                                              v)))
                    routes.append(_Route(
                        r, (r + 1) % p,
                        lambda r=r: from_left[(r + 1) % p],
                        lambda v, r=r: from_left.__setitem__((r + 1) % p,
                                                             v)))
            return (from_left, from_right), routes

        wire = sum(per_rank.values()) if p > 1 else 0
        return self._deliver(label, execute, duration=duration,
                             nbytes_by_rank=per_rank,
                             participants=list(range(p)),
                             n_wire_messages=2 * p if p > 1 else 0,
                             wire_bytes=wire)

    def allgather(self, sendbufs: list[np.ndarray], label: str = "allgather"
                  ) -> list[list[np.ndarray]]:
        """Every rank receives every rank's buffer (returned per dest rank)."""
        p = self.size
        if len(sendbufs) != p:
            raise ValueError("need one send buffer per rank")
        per_rank = {r: (p - 1) * _nbytes(sendbufs[r]) for r in range(p)}
        msg = max((_nbytes(b) for b in sendbufs), default=0)
        duration = self._cluster.transport.message_time(msg, p) * \
            max(0, p - 1) if p > 1 else 0.0

        def execute():
            out = [[np.array(sendbufs[src], copy=True) for src in range(p)]
                   for _ in range(p)]
            routes = [
                _Route(src, dst,
                       lambda src=src, dst=dst: out[dst][src],
                       lambda v, src=src, dst=dst:
                           out[dst].__setitem__(src, v))
                for src in range(p) for dst in range(p) if src != dst]
            return out, routes

        wire = sum(per_rank.values()) if p > 1 else 0
        return self._deliver(label, execute, duration=duration,
                             nbytes_by_rank=per_rank,
                             participants=list(range(p)),
                             n_wire_messages=p * (p - 1), wire_bytes=wire)

    def bcast(self, buf: np.ndarray, root: int = 0, label: str = "bcast",
              ranks: list[int] | None = None) -> list[np.ndarray]:
        """Broadcast *buf* from *root*; returns one copy per participant.

        With *ranks* the broadcast runs on that subset only (*root* is a
        global rank id and must be a participant); the returned list is in
        participant order.
        """
        parts = self._resolve(ranks, self.size)
        if root not in parts:
            raise ValueError("root out of range")
        q = len(parts)
        nb = _nbytes(buf)
        # binomial tree: ceil(log2 q) rounds
        rounds = int(np.ceil(np.log2(q))) if q > 1 else 0
        duration = rounds * self._cluster.transport.message_time(nb, q)
        per_rank = {r: (nb if r != root else nb * (q - 1)) for r in parts}

        def execute():
            out = [np.array(buf, copy=True) for _ in range(q)]
            routes = [
                _Route(root, r,
                       lambda i=i: out[i],
                       lambda v, i=i: out.__setitem__(i, v))
                for i, r in enumerate(parts) if r != root]
            return out, routes

        return self._deliver(label, execute, duration=duration,
                             nbytes_by_rank=per_rank, participants=parts,
                             n_wire_messages=max(0, q - 1),
                             wire_bytes=nb * max(0, q - 1))

    def barrier(self, label: str = "barrier",
                ranks: list[int] | None = None) -> None:
        """Synchronize participants' clocks (no data movement).

        Routed through the verified path like every other collective: a
        rank the fault plan has made unresponsive fails the barrier and is
        eventually declared dead.
        """
        parts = self._resolve(ranks, self.size)
        self._deliver(label, lambda: (None, []), duration=0.0,
                      nbytes_by_rank={}, participants=parts,
                      n_wire_messages=0, wire_bytes=0, category="other")
