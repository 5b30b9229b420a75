"""Distributed SOI FFT on a simulated cluster (the paper's headline system).

Maps Equation 1 onto P ranks exactly as §2/§5 describe:

* each rank owns a contiguous N/P chunk of the input and computes the
  convolution rows whose windows fall in it — after a latency-bound
  nearest-neighbor *ghost exchange* of B/2 blocks (the two right-most
  arrows of Fig 2);
* lane FFTs (I_{M'} (x) F_S) run locally;
* the stride permutation P^{S,N'}_erm is realized as **one all-to-all**
  — the entire inter-node communication of the algorithm;
* each rank then runs a length-M' FFT and demodulation per owned segment,
  leaving the output in natural order, block-distributed like the input.

Compute stages charge roofline time at the paper's measured efficiencies
(12% local FFT, 40% convolution) against the rank clocks; communication
goes through the cluster's transport model.  The numerics are exact and
tested equal to the single-process pipeline and to ``numpy.fft``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.faults import PartitionDetected, RankFailed
from repro.cluster.simcluster import SimCluster
from repro.core.convolution import (
    ConvStrategy,
    ConvWorkspace,
    block_range_for_rows,
    conv_time_model,
    convolve,
)
from repro.core.demodulate import demodulate
from repro.core.params import SoiParams
from repro.core.window import SoiTables, build_tables
from repro.fft.plan import get_plan

__all__ = ["DistributedSoiFFT", "PartitionReport", "RecoveryReport",
           "balanced_row_slices",
           "DEFAULT_FFT_EFFICIENCY", "DEFAULT_CONV_EFFICIENCY"]

#: Paper §4/§6: measured compute efficiencies on both Xeon and Xeon Phi.
DEFAULT_FFT_EFFICIENCY = 0.12
DEFAULT_CONV_EFFICIENCY = 0.40

#: Trace labels the distributed pipeline charges; per-call metric
#: publication sums these into ``repro_core_dist_*_seconds_total``.
_STAGE_LABELS = ("ghost exchange", "convolution", "checkpoint",
                 "all-to-all", "local FFT", "demodulation",
                 "recovery recompute")


@dataclass(frozen=True)
class RecoveryReport:
    """What the shrink-and-redistribute path did after rank failures."""

    dead_ranks: tuple[int, ...]  # ranks declared dead, ascending
    n_live: int  # survivors that finished the transform
    slot_owners: dict[int, int]  # global segment slot -> surviving owner
    recomputed_rows: int  # convolution rows recomputed from checkpoints
    #: Fault-domain flavor of the cluster's topology ("fat-tree leaf",
    #: "torus axis-N slab"), None on topology-less clusters.
    domain_kind: str | None = None
    #: Simulated mean-time-to-repair per *affected* domain: seconds from
    #: the first member failure of that domain to recovery completion.
    mttr_by_domain: dict[int, float] = field(default_factory=dict)


@dataclass(frozen=True)
class PartitionReport:
    """How a fabric partition was adjudicated (quorum semantics).

    Stamped into :attr:`DistributedSoiFFT.last_partition` whenever a
    collective surfaces :class:`~repro.cluster.faults.PartitionDetected`.
    With a quorum, ``majority`` names the component that kept the
    request and ``aborted`` the ranks cut off from it — each of those,
    on a real fabric, would raise ``minority_error`` (a deterministic
    :class:`PartitionDetected` carrying the same census, so every
    island reaches the same verdict from its own side of the split).
    Without a strict majority of the live ranks, ``quorum`` is False
    and the whole request aborts.
    """

    components: tuple[tuple[int, ...], ...]  # census: the full partition
    census: dict[int, int]  # rank -> component id
    quorum: bool  # did any component hold a strict majority?
    majority: tuple[int, ...]  # the surviving component (empty w/o quorum)
    aborted: tuple[int, ...]  # ranks that abort with minority_error
    minority_error: PartitionDetected | None = None


def balanced_row_slices(params: SoiParams, start: int, count: int,
                        parts: int) -> list[tuple[int, int]]:
    """Split [start, start+count) into <= *parts* contiguous slices,
    each a whole number of convolution chunks (multiples of n_mu — the
    chunked convolution's row granularity).

    The adoption schedule of shrink-and-redistribute recovery, shared by
    the simulated path and the real-backend recovery driver so both
    recompute identical row ranges (bitwise-identical outputs).
    """
    n_mu = params.n_mu
    chunks = count // n_mu
    base, extra = divmod(chunks, parts)
    out = []
    j = start
    for i in range(parts):
        n = (base + (1 if i < extra else 0)) * n_mu
        if n:
            out.append((j, n))
            j += n
    return out


class DistributedSoiFFT:
    """SOI FFT across the ranks of a :class:`SimCluster`."""

    def __init__(self, cluster: SimCluster, params: SoiParams, window=None,
                 *, fft_efficiency: float = DEFAULT_FFT_EFFICIENCY,
                 conv_efficiency: float = DEFAULT_CONV_EFFICIENCY,
                 conv_strategy: ConvStrategy = ConvStrategy.BUFFERED,
                 fuse_demodulation: bool = True,
                 segment_exchanges: bool = False,
                 verify=False, backend=None):
        if params.n_procs != cluster.n_ranks:
            raise ValueError(f"params expect {params.n_procs} ranks, "
                             f"cluster has {cluster.n_ranks}")
        p = params
        blocks_per_rank = p.n // (p.n_segments * p.n_procs)
        ghost = max(p.ghost_blocks)
        if p.n_procs > 1 and ghost > blocks_per_rank:
            raise ValueError(
                f"ghost halo ({ghost} blocks) exceeds a rank's chunk "
                f"({blocks_per_rank} blocks); increase N or decrease B")
        self.cluster = cluster
        self.params = params
        self.tables: SoiTables = build_tables(params, window)
        self._window = window  # kept: worker processes rebuild from spec
        self.fft_efficiency = fft_efficiency
        self.conv_efficiency = conv_efficiency
        self.conv_strategy = conv_strategy
        self.fuse_demodulation = fuse_demodulation
        #: §6.1 pipelining structure: exchange one segment per round so the
        #: per-segment FFT can start while later rounds are still in
        #: flight.  Executed clocks stay sequential (collectives
        #: synchronize); feed the trace to
        #: :func:`repro.cluster.replay.replay_with_overlap` for the
        #: overlapped makespan.
        self.segment_exchanges = segment_exchanges
        #: Set by :meth:`recover` after a run that survived rank failures.
        self.last_recovery: RecoveryReport | None = None
        #: Set whenever a collective surfaced a fabric partition
        #: (whether or not a quorum survived it).
        self.last_partition: PartitionReport | None = None
        #: Participant count from which the all-to-all switches to the
        #: hierarchical two-level exchange (needs a cluster topology
        #: whose fault domains partition the participants evenly).  At
        #: 10^3-10^4 ranks the flat exchange's q-1 messages per rank
        #: dominate; two levels cut that to (m-1) + (G-1).
        self.hier_threshold = 64
        #: ABFT verifier (``verify=True`` or a VerifyPolicy arms it): every
        #: rank's post-conv segments are checksum-verified *before* they are
        #: checkpointed or cross the wire, every destination's segment
        #: spectra are checked against Parseval + an appended checksum row,
        #: and demodulation is consistency-checked.  Detected segments are
        #: recomputed from the in-memory stage inputs; verification time is
        #: charged as ``"abft verify"`` and repairs as ``"abft repair"``.
        #: If the installed wire fault plan carries SDC events
        #: (:meth:`repro.cluster.faults.FaultPlan.apply_sdc`), they strike
        #: the stage buffers here.  Per-call results land in
        #: ``self.last_verification``.
        self.verifier = None
        self.last_verification = None
        if verify is not None and verify is not False:
            from repro.verify.policy import VerifyPolicy
            from repro.verify.selfcheck import DistVerifier
            self.verifier = DistVerifier(self.tables,
                                         VerifyPolicy.coerce(verify))
        #: Execution backend.  ``None`` keeps the phase-structured
        #: simulated driver; a real backend
        #: (:class:`~repro.cluster.backends.ProcessBackend`) runs the
        #: numerically-identical SPMD program on worker processes with
        #: shared-memory collectives — *cluster* still supplies the
        #: machine model and the (SDC-only) fault plan.
        self.backend = backend
        if backend is not None and backend.is_real \
                and getattr(backend, "size", None) != params.n_procs:
            raise ValueError(f"params expect {params.n_procs} ranks, "
                             f"backend has {getattr(backend, 'size', None)} "
                             f"workers")
        self._lane_plan = get_plan(p.n_segments, -1) if p.n_segments > 1 else None
        self._seg_plan = get_plan(p.m_oversampled, -1)
        # the convolution's tile buffers are shaped by params alone, so one
        # reused workspace serves every rank, run and recovery row range
        self._conv_ws = ConvWorkspace()

    # -- data layout helpers ------------------------------------------------

    def scatter(self, x: np.ndarray) -> list[np.ndarray]:
        """Block-distribute a global input (convenience for tests/examples)."""
        p = self.params
        x = np.asarray(x, dtype=np.complex128)
        if x.shape != (p.n,):
            raise ValueError(f"expected shape ({p.n},)")
        chunk = p.elements_per_process
        return [x[r * chunk:(r + 1) * chunk].copy() for r in range(p.n_procs)]

    @staticmethod
    def assemble(parts: list[np.ndarray]) -> np.ndarray:
        """Concatenate per-rank outputs into the global result."""
        return np.concatenate(parts)

    # -- the algorithm --------------------------------------------------------

    def __call__(self, x_parts: list[np.ndarray],
                 deadline=None) -> list[np.ndarray]:
        """Run the distributed transform on block-distributed input.

        Returns the block-distributed, natural-order spectrum: rank r's
        array is ``y[r*N/P : (r+1)*N/P]``.

        Resilience: if a collective declares a rank dead
        (:class:`~repro.cluster.faults.RankFailed`), the transform does
        not abort — it re-partitions the dead rank's work across the
        survivors from the nearest stage checkpoint and completes
        degraded (see :meth:`recover`).

        *deadline* (duck-typed :class:`repro.resilience.Deadline`) is
        checked at the stage boundaries — entry, before the all-to-all,
        and between recovery rounds; a stage that started runs to
        completion.  Collectives themselves check the deadline installed
        on the communicator, if any.

        Telemetry: the whole call runs inside one ``"soi request"``
        scope span per rank (so every charge — including retries and
        recovery recomputes — is attributable to this request in the
        span tree), and the per-stage seconds and algorithmic flops are
        folded into the cluster's metric registry on exit, even when
        the call raises.
        """
        if self.backend is not None and self.backend.is_real:
            return self._transform_parallel(x_parts, deadline)
        cl = self.cluster
        rec = cl.recorder
        first = len(cl.trace.events)
        scopes = [rec.begin(r, "soi request", "other", cl.clocks[r],
                            attributes={"n": self.params.n})
                  for r in range(cl.n_ranks)]
        try:
            return self._transform(x_parts, deadline=deadline)
        finally:
            for scope in scopes:
                if not scope.closed:
                    rec.end(scope, cl.clocks[scope.rank])
            self._publish_metrics(first)

    def _transform_parallel(self, x_parts: list[np.ndarray],
                            deadline=None) -> list[np.ndarray]:
        """Run the numerically-identical SPMD program on the real backend.

        The phase-structured simulated driver and the SPMD program are
        asserted equal in the test suite, so delegating here preserves
        the plan's outputs exactly; measured (not simulated) timings
        land in the backend's trace/metrics.  *deadline* runs off the
        wall clock (checked at dispatch and on every watchdog tick);
        worker deaths recover via the backend's elastic
        shrink-and-redistribute path, and the resulting
        :class:`RecoveryReport` lands in :attr:`last_recovery`.
        """
        from repro.core.soi_spmd import run_parallel_soi  # circular import
        self.last_recovery = None
        policy = self.verifier.policy if self.verifier is not None else None
        parts, report = run_parallel_soi(
            self.backend, self.params, x_parts,
            machine=self.cluster.machine, window=self._window,
            policy=policy, fault_plan=self.cluster.comm.fault_plan,
            deadline=deadline)
        self.last_recovery = getattr(self.backend, "last_recovery", None)
        if self.verifier is not None:
            self.last_verification = self.verifier.reset_report()
            if report is not None:
                self.last_verification.merge(report)
        return parts

    def _publish_metrics(self, first: int) -> None:
        """Fold one call's trace events into the cluster's registry."""
        m = self.cluster.metrics
        p = self.params
        totals: dict[str, float] = {}
        for e in self.cluster.trace.events[first:]:
            if e.label in _STAGE_LABELS:
                totals[e.label] = totals.get(e.label, 0.0) + e.duration
        for label, seconds in sorted(totals.items()):
            key = label.lower().replace(" ", "_").replace("-", "_")
            m.counter(f"repro_core_dist_{key}_seconds_total",
                      f"simulated seconds charged as '{label}'"
                      ).inc(seconds)
        m.counter("repro_core_dist_transforms_total",
                  "distributed transform calls").inc()
        m.counter("repro_core_dist_flops_total",
                  "algorithmic flops of distributed transform calls"
                  ).inc(p.local_fft_flops + p.lane_fft_flops)

    def _transform(self, x_parts: list[np.ndarray],
                   deadline=None) -> list[np.ndarray]:
        p = self.params
        cl = self.cluster
        n_procs = p.n_procs
        s = p.n_segments
        spp = p.segments_per_process
        rows = p.rows_per_process
        blocks_per_rank = p.n // (s * n_procs)
        if len(x_parts) != n_procs:
            raise ValueError(f"expected {n_procs} input parts")
        for part in x_parts:
            if np.asarray(part).shape != (p.elements_per_process,):
                raise ValueError("each part must hold N/P elements")
        x_parts = [np.asarray(a, dtype=np.complex128) for a in x_parts]
        if deadline is not None:
            deadline.check("distributed entry")
        self.last_recovery = None
        self.last_partition = None
        fault_plan = cl.comm.fault_plan
        sdc = fault_plan if (fault_plan is not None
                             and fault_plan.has_sdc) else None
        if self.verifier is not None:
            self.last_verification = self.verifier.reset_report()

        # ---- ghost exchange (nearest neighbor, latency bound) ----
        left_g, right_g = p.ghost_blocks
        if n_procs > 1:
            to_left = [part[: right_g * s] for part in x_parts]  # neighbor's right halo
            to_right = [part[part.size - left_g * s:] for part in x_parts]
            try:
                from_left, from_right = cl.comm.ring_exchange(
                    to_left, to_right, label="ghost exchange")
            except RankFailed:
                # pre-convolution failure: only the input checkpoint exists
                return self.recover(x_parts, None, deadline=deadline)
            except PartitionDetected as exc:
                return self._handle_partition(exc, x_parts, None,
                                              deadline=deadline)
            x_ext = [np.concatenate([from_left[r], x_parts[r], from_right[r]])
                     for r in range(n_procs)]
        else:
            part = x_parts[0]
            x_ext = [np.concatenate([part[part.size - left_g * s:], part,
                                     part[: right_g * s]])]

        # ---- convolution-and-oversampling + lane FFTs (local) ----
        conv_seconds = conv_time_model(p, cl.machine, self.conv_strategy,
                                       self.conv_efficiency)
        lane_flops = p.lane_fft_flops / n_procs
        lane_seconds = cl.machine.flop_time(lane_flops, self.fft_efficiency)
        z_parts: list[np.ndarray] = []
        for r in range(n_procs):
            j_start = r * rows
            lo, hi = block_range_for_rows(p, j_start, rows)
            own_lo = r * blocks_per_rank
            # x_ext[r] starts at block own_lo - left_g
            u = convolve(x_ext[r], self.tables, j_start, rows,
                         own_lo - left_g, workspace=self._conv_ws)
            z = self._lane_plan(u) if self._lane_plan is not None else u
            cl.charge_seconds(r, "convolution", conv_seconds + lane_seconds)
            if sdc is not None:
                z = sdc.apply_sdc(z, rank=r, stage="conv")
            if self.verifier is not None:
                # verify before the checkpoint and the wire: a corrupt z
                # must never be trusted for recovery or shipped to peers
                z = self.verifier.check_conv(
                    cl, r, x_ext[r], u, z, j_start, own_lo - left_g,
                    conv_seconds=conv_seconds, lane_seconds=lane_seconds)
            z_parts.append(z)
            # stage checkpoint: the post-convolution segments (mu*N/P
            # complex words per rank) are the natural cut point for
            # shrink-and-redistribute recovery
            cl.charge_seconds(r, "checkpoint", cl.machine.mem_time(z.nbytes))

        # ---- per-segment compute costs ----
        fft_seconds = cl.machine.flop_time(p.local_fft_flops / n_procs,
                                           self.fft_efficiency)
        if self.fuse_demodulation:
            demod_seconds = cl.machine.mem_time(p.m * spp * 16)
        else:
            # separate pass: read spectrum, read constants, write (Fig 9 "etc.")
            demod_seconds = cl.machine.mem_time(
                (2 * p.m_oversampled + 2 * p.m + p.m) * spp * 16)

        if deadline is not None:
            deadline.check("pre all-to-all")
        groups = self._groups_for(list(range(n_procs)))
        if not self.segment_exchanges:
            # ---- the ONE all-to-all: stride permutation P^{S,N'}_erm ----
            sendbufs = [[np.ascontiguousarray(
                z_parts[src][:, dst * spp:(dst + 1) * spp])
                for dst in range(n_procs)] for src in range(n_procs)]
            try:
                recv = cl.comm.alltoall(sendbufs, label="all-to-all",
                                        groups=groups)
            except RankFailed:
                return self.recover(x_parts, z_parts, deadline=deadline)
            except PartitionDetected as exc:
                return self._handle_partition(exc, x_parts, z_parts,
                                              deadline=deadline)
            y_parts: list[np.ndarray] = []
            for dst in range(n_procs):
                alpha = np.concatenate(recv[dst], axis=0)  # (M', spp), rows
                # in global j order because sources are rank-ordered
                beta = self._seg_plan(alpha.T)  # (spp, M')
                cl.charge_seconds(dst, "local FFT", fft_seconds)
                if sdc is not None:
                    beta = sdc.apply_sdc(beta, rank=dst, stage="segment-fft")
                slots = range(dst * spp, (dst + 1) * spp)
                if self.verifier is not None:
                    beta = self.verifier.check_segments(
                        cl, dst, alpha, beta, slots,
                        fft_seconds=fft_seconds)
                seg = demodulate(beta, self.tables)  # (spp, M)
                cl.charge_seconds(dst, "demodulation", demod_seconds)
                if self.verifier is not None:
                    seg = self.verifier.check_demod(cl, dst, beta, seg, slots)
                y_parts.append(seg.reshape(-1))
            return y_parts

        # ---- segmented exchanges: one round per owned-segment slot ----
        seg_chunks: list[list[np.ndarray]] = [[] for _ in range(n_procs)]
        for slot in range(spp):
            sendbufs = [[np.ascontiguousarray(
                z_parts[src][:, dst * spp + slot])
                for dst in range(n_procs)] for src in range(n_procs)]
            try:
                recv = cl.comm.alltoall(sendbufs, label="all-to-all",
                                        groups=groups)
            except RankFailed:
                # restart the exchange phase from the z checkpoint on the
                # survivors (slots finished before the failure are redone)
                return self.recover(x_parts, z_parts, deadline=deadline)
            except PartitionDetected as exc:
                return self._handle_partition(exc, x_parts, z_parts,
                                              deadline=deadline)
            for dst in range(n_procs):
                alpha = np.concatenate(recv[dst])  # (M',) for this segment
                beta = self._seg_plan(alpha)
                cl.charge_seconds(dst, "local FFT", fft_seconds / spp)
                if sdc is not None:
                    beta = sdc.apply_sdc(beta, rank=dst, stage="segment-fft")
                if self.verifier is not None:
                    beta = self.verifier.check_segments(
                        cl, dst, alpha[:, None], beta[None, :],
                        [dst * spp + slot], fft_seconds=fft_seconds / spp)[0]
                seg = demodulate(beta, self.tables)
                cl.charge_seconds(dst, "demodulation", demod_seconds / spp)
                if self.verifier is not None:
                    seg = self.verifier.check_demod(
                        cl, dst, beta[None, :], seg[None, :],
                        [dst * spp + slot])[0]
                seg_chunks[dst].append(seg)
        return [np.concatenate(chunks) for chunks in seg_chunks]

    # -- topology-aware scheduling helpers ------------------------------------

    def _groups_for(self, parts: list[int]) -> list[list[int]] | None:
        """Two-level grouping for an all-to-all over *parts*, or None.

        Uses the cluster topology's fault domains when the exchange is
        large enough (>= :attr:`hier_threshold` participants) and the
        participants split evenly across their domains; otherwise the
        flat exchange runs (small runs, ragged post-failure membership,
        topology-less clusters).
        """
        dom = getattr(self.cluster, "domains", None)
        if dom is None or len(parts) < self.hier_threshold:
            return None
        return dom.equal_groups(parts)

    # -- fault recovery: shrink-and-redistribute ------------------------------

    def _handle_partition(self, exc: PartitionDetected,
                          x_parts: list[np.ndarray],
                          z_parts: list[np.ndarray | None] | None,
                          deadline=None) -> list[np.ndarray]:
        """Quorum-checked response to a fabric partition.

        Every component adjudicates from the same census, so every
        island reaches the same verdict without communicating: the
        component holding a **strict majority** of the live ranks keeps
        the request — ranks outside it are stamped with a ``"partition"``
        trace event, declared dead, and shrink-and-redistribute
        completes on the majority.  Minority components abort
        deterministically with a :class:`PartitionDetected` carrying the
        census (recorded as ``minority_error`` in
        :attr:`last_partition`).  Without a strict majority — an even
        split, a shattered fabric — no component may continue, and the
        original error re-raises.
        """
        cl = self.cluster
        live = cl.live_ranks
        comps = exc.components
        plan = cl.comm.fault_plan
        if plan is not None and plan.partition is not None:
            # The collective that tripped may have covered only a slice
            # of the fabric — the hierarchical inter-group phase runs
            # one rank per group — so its census cannot adjudicate
            # quorum for the whole cluster; rebuild the full-fabric
            # census from the installed partition event.
            comps = plan.partition_components(live)
        # rank components by live membership: a large mostly-dead
        # component must not outvote a smaller one holding more
        # survivors
        ranked = sorted(comps,
                        key=lambda c: (-sum(cl.alive[r] for r in c), c))
        majority = [r for r in ranked[0] if cl.alive[r]] if ranked else []
        quorum = 2 * len(majority) > len(live)
        minority = [r for r in live if r not in set(majority)] if quorum \
            else list(live)
        minority_error = PartitionDetected(
            f"minority component ({len(minority)} rank(s)) lost quorum "
            f"({len(majority)}/{len(live)} live ranks on the other side)",
            components=comps, component=tuple(minority)) if quorum else None
        census = {r: i for i, comp in enumerate(comps) for r in comp}
        self.last_partition = PartitionReport(
            components=comps, census=census, quorum=quorum,
            majority=tuple(majority) if quorum else (),
            aborted=tuple(minority), minority_error=minority_error)
        if not quorum:
            raise exc
        for r in minority:
            t = cl.clocks[r]
            cl.trace.record(r, "partition cut", "partition", t, t)
            cl.fail_rank(r)
        return self.recover(x_parts, z_parts, deadline=deadline)

    def recover(self, x_parts: list[np.ndarray],
                z_parts: list[np.ndarray | None] | None,
                deadline=None) -> list[np.ndarray]:
        """Complete the transform on the surviving ranks after failures.

        ``x_parts`` is the stage-0 checkpoint (the block-distributed
        input); ``z_parts`` the optional post-convolution checkpoint —
        a list indexed by rank whose entries may be ``None`` for ranks
        that had not checkpointed when the failure struck.  The dead
        ranks' convolution rows are recomputed from the input checkpoint
        by adopters (charged as ``"recovery recompute"``), their segment
        slots are re-assigned round-robin across the survivors, and the
        stride permutation runs as one all-to-all over the shrunken
        communicator.  Output keeps the natural-order block-distributed
        contract — parts of dead ranks are hosted by their adopters.

        Further failures during recovery shrink again (with *deadline*,
        if given, checked between rounds); only an empty survivor set
        aborts, raising :class:`~repro.cluster.faults.RankFailed`
        chained from the failure that killed the last recovery round.
        """
        x_parts = [np.asarray(a, dtype=np.complex128) for a in x_parts]
        last: RankFailed | None = None
        while True:
            if deadline is not None:
                deadline.check("recovery round")
            live = self.cluster.live_ranks
            if not live:
                raise RankFailed(
                    -1, "no surviving ranks to recover on") from last
            try:
                return self._finish_on_survivors(live, x_parts, z_parts)
            except RankFailed as exc:
                last = exc
                continue

    def _compute_rows(self, x_global: np.ndarray, j_start: int,
                      n_rows: int) -> np.ndarray:
        """Convolution + lane FFT for an arbitrary global row range,
        rebuilt from the (checkpointed) global input."""
        p = self.params
        s = p.n_segments
        lo, hi = block_range_for_rows(p, j_start, n_rows)
        n_blocks = p.n // s
        idx = np.arange(lo, hi) % n_blocks
        x_ext = np.ascontiguousarray(
            x_global.reshape(n_blocks, s)[idx].reshape(-1))
        u = convolve(x_ext, self.tables, j_start, n_rows, lo,
                     workspace=self._conv_ws)
        return self._lane_plan(u) if self._lane_plan is not None else u

    def _balanced_slices(self, start: int, count: int, parts: int
                         ) -> list[tuple[int, int]]:
        return balanced_row_slices(self.params, start, count, parts)

    def _finish_on_survivors(self, live: list[int],
                             x_parts: list[np.ndarray],
                             z_parts: list[np.ndarray | None] | None
                             ) -> list[np.ndarray]:
        p = self.params
        cl = self.cluster
        n_procs, s, spp = p.n_procs, p.n_segments, p.segments_per_process
        rows = p.rows_per_process
        q = len(live)
        live_set = set(live)
        dead = [r for r in range(n_procs) if r not in live_set]
        # domain-aware placement: adopted rows and orphaned slots walk the
        # survivors in an order that cycles across fault domains, so a dead
        # switch's whole load never lands behind one other switch.  On
        # topology-less clusters this degenerates to plain rank order.
        dom = getattr(cl, "domains", None)
        placement = dom.spread_order(live) if dom is not None else live
        # MTTR clock zero per affected domain: its first member's failure
        # time (dead clocks froze where the rank died)
        fail_t: dict[int, float] = {}
        if dom is not None:
            for f in dead:
                d = dom.domain_of(f)
                t = cl.clocks[f]
                fail_t[d] = min(fail_t.get(d, t), t)

        conv_seconds = conv_time_model(p, cl.machine, self.conv_strategy,
                                       self.conv_efficiency)
        lane_seconds = cl.machine.flop_time(p.lane_fft_flops / n_procs,
                                            self.fft_efficiency)
        fft_seconds = cl.machine.flop_time(p.local_fft_flops / n_procs,
                                           self.fft_efficiency)
        if self.fuse_demodulation:
            demod_seconds = cl.machine.mem_time(p.m * spp * 16)
        else:
            demod_seconds = cl.machine.mem_time(
                (2 * p.m_oversampled + 2 * p.m + p.m) * spp * 16)

        x_global = np.concatenate(x_parts)  # stage-0 checkpoint, assembled

        # ---- redistribute each lost input chunk to the survivors ----
        for f in dead:
            # the checkpoint copy is replayed from the first survivor
            cl.comm.bcast(x_parts[f], root=live[0],
                          ranks=live, label="recovery redistribute")

        # ---- rebuild the row coverage: own rows + adopted dead rows ----
        # row_chunks[r] = ordered [(j_start, z_block)] covering rank r's
        # share of the M' global convolution rows
        row_chunks: dict[int, list[tuple[int, np.ndarray]]] = \
            {r: [] for r in live}
        recomputed = 0
        for r in live:
            z = z_parts[r] if z_parts is not None else None
            if z is None:
                z = self._compute_rows(x_global, r * rows, rows)
                cl.charge_seconds(r, "convolution",
                                  conv_seconds + lane_seconds)
                cl.charge_seconds(r, "checkpoint",
                                  cl.machine.mem_time(z.nbytes))
                recomputed += rows
            row_chunks[r].append((r * rows, z))
        for k, f in enumerate(dead):
            for i, (j0, nr) in enumerate(
                    self._balanced_slices(f * rows, rows, q)):
                adopter = placement[(i + k) % q]
                z = self._compute_rows(x_global, j0, nr)
                seconds = (conv_seconds + lane_seconds) * nr / rows
                cl.charge_seconds(adopter, "recovery recompute", seconds)
                if cl.comm.deadline is not None:
                    cl.comm.deadline.charge("recovery", seconds)
                row_chunks[adopter].append((j0, z))
                recomputed += nr
        for r in live:
            row_chunks[r].sort(key=lambda c: c[0])

        # ---- re-assign the dead ranks' segment slots round-robin ----
        owner: dict[int, int] = {}
        orphan = 0
        for t in range(s):
            orig = t // spp
            if orig in live_set:
                owner[t] = orig
            else:
                owner[t] = placement[orphan % q]
                orphan += 1
        slots_of = {r: [t for t in range(s) if owner[t] == r] for r in live}

        # ---- the stride permutation over the shrunken communicator ----
        sendbufs = [[np.ascontiguousarray(np.concatenate(
            [z[:, slots_of[d]] for _, z in row_chunks[src]], axis=0))
            for d in live] for src in live]
        recv = cl.comm.alltoall(sendbufs, label="all-to-all", ranks=live,
                                groups=self._groups_for(live))

        # ---- per owned slot: M'-point FFT + demodulation ----
        y_by_slot: dict[int, np.ndarray] = {}
        for dpos, d in enumerate(live):
            slots = slots_of[d]
            alpha = np.empty((p.m_oversampled, len(slots)),
                             dtype=np.complex128)
            for spos, src in enumerate(live):
                piece = recv[dpos][spos]
                off = 0
                for j0, z in row_chunks[src]:
                    alpha[j0:j0 + z.shape[0]] = piece[off:off + z.shape[0]]
                    off += z.shape[0]
            beta = self._seg_plan(alpha.T)  # (n_slots, M')
            seg = demodulate(beta, self.tables)  # (n_slots, M)
            cl.charge_seconds(d, "local FFT", fft_seconds * len(slots) / spp)
            cl.charge_seconds(d, "demodulation",
                              demod_seconds * len(slots) / spp)
            for i, t in enumerate(slots):
                y_by_slot[t] = seg[i]

        mttr: dict[int, float] = {}
        if dom is not None and fail_t:
            t_done = max(cl.clocks[r] for r in live)
            mttr = {d: t_done - t0 for d, t0 in sorted(fail_t.items())}
        self.last_recovery = RecoveryReport(
            dead_ranks=tuple(dead), n_live=q, slot_owners=owner,
            recomputed_rows=recomputed,
            domain_kind=dom.kind if dom is not None else None,
            mttr_by_domain=mttr)
        return [np.concatenate([y_by_slot[t]
                                for t in range(r * spp, (r + 1) * spp)])
                for r in range(n_procs)]

    def inverse(self, y_parts: list[np.ndarray]) -> list[np.ndarray]:
        """Distributed inverse DFT via the conjugation identity.

        ``ifft(y) = conj(fft(conj(y))) / N``; conjugation and scaling are
        purely rank-local, so the inverse costs exactly one forward run
        (same single all-to-all) plus two local elementwise passes.
        """
        n = self.params.n
        conj_parts = [np.conj(np.asarray(p, dtype=np.complex128))
                      for p in y_parts]
        fwd = self(conj_parts)
        return [np.conj(part) / n for part in fwd]
