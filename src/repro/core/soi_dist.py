"""Distributed SOI FFT: one rank-local program, an ownership map, one driver.

The paper's distributed algorithm (§2, §5, Fig 2) is written here once,
as the generator :func:`soi_rank_program` every participant runs:

* obtain the input its convolution rows touch — on its own N/P chunk
  after a latency-bound nearest-neighbor *ghost exchange* of B/2 blocks
  (the two right-most arrows of Fig 2);
* convolution-and-oversampling plus lane FFTs (I_{M'} (x) F_S), locally,
  as one kernel storing segment-major rows;
* the stride permutation P^{S,N'}_erm as **one all-to-all** of those rows
  — the entire inter-node communication of the algorithm;
* a length-M' FFT and demodulation per owned segment, leaving the output
  in natural order, block-distributed like the input.

Each local step runs a kernel of the geometry's single-node plan
(:meth:`repro.core.soi_single.SoiFFT._of`): one kernel set per node.

*Who* computes which rows and owns which segments is data, not code: an
:class:`Ownership` map.  Fault-free execution is the identity map,
shrink-and-redistribute recovery the map :meth:`Ownership.after_failures`
plans over the survivors, a heterogeneous cluster
(:mod:`repro.core.soi_hetero`) a map with unequal shares.
:class:`DistributedSoiFFT` is the single driver: it hands the program to
an execution backend (:mod:`repro.cluster.backends`: rank-serial against
simulated clocks, or one worker process per rank) and, when a rank dies,
re-plans and runs the same program over the survivors.  Outputs are
bit-for-bit identical across backends and across recoveries, and to
:class:`~repro.core.soi_single.SoiFFT` of the same geometry, because a
row's or a segment's value depends on (index, input) only.

Compute stages charge roofline time at the paper's measured efficiencies
(:func:`stage_costs`) against the simulated rank clocks; on real workers
the same requests mark measured wall-clock intervals.  The numerics are
exact and tested bitwise equal to the single-process pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.cluster.backends import SimulatedBackend
from repro.cluster.faults import PartitionDetected, RankFailed
from repro.cluster.simcluster import SimCluster
from repro.cluster.spmd import (
    AllToAll,
    Checkpoint,
    Compute,
    RankContext,
    SendRecvRing,
)
from repro.core.convolution import (
    ConvStrategy,
    conv_time_model,
    front,
)
from repro.core.demodulate import back
from repro.core.params import SoiParams
from repro.core.soi_single import SoiFFT
from repro.core.window import SoiTables, get_tables
from repro.machine.spec import MachineSpec

__all__ = ["DistributedSoiFFT", "Ownership", "PartitionReport",
           "RecoveryReport", "SoiSpec", "StageCosts",
           "balanced_row_slices", "soi_rank_program", "stage_costs",
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


# -- the mapping: who computes which rows, who owns which segments ---------

def balanced_row_slices(params: SoiParams, start: int, count: int,
                        parts: int) -> list[tuple[int, int]]:
    """Split [start, start+count) into <= *parts* contiguous slices,
    each a whole number of convolution chunks (multiples of n_mu — the
    chunked convolution's row granularity)."""
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


@dataclass(frozen=True)
class Ownership:
    """The processor mapping of one run, as data.

    ``ranks[i]`` is participant *i*'s global rank id; ``rows[i]`` the
    convolution row ranges it covers, in the order it computes them,
    ``((j_start, n_rows, from_checkpoint), ...)`` — n_mu-aligned ranges
    that together partition ``[0, M')``, the input of range ``j_start``
    starting at block ``(j_start // n_mu) * d_mu`` — and ``slots[i]`` the
    global segment slots it transforms, ascending.
    """

    ranks: tuple[int, ...]
    rows: tuple[tuple[tuple[int, int, bool], ...], ...]
    slots: tuple[tuple[int, ...], ...]

    @classmethod
    def identity(cls, params: SoiParams) -> "Ownership":
        """Fault-free execution: every rank its own rows and segments —
        the plan with nobody dead and nothing checkpointed yet."""
        return cls.after_failures(params, range(params.n_procs), (), ())

    @classmethod
    def after_failures(cls, params: SoiParams, survivors, have_ckpt,
                       placement) -> "Ownership":
        """Shrink-and-redistribute: the identity map re-planned over
        *survivors*.

        Every survivor keeps its own rows (``from_checkpoint`` when it
        is in *have_ckpt*, the ranks whose post-convolution checkpoint
        exists) and its own slots.  Each dead rank's rows are cut into
        :func:`balanced_row_slices` and its slots handed out round-robin,
        both walking *placement* — the survivors in the order adoption
        should cycle through them (rank order, or an order that spreads
        one dead switch's load across the surviving fault domains).
        """
        p = params
        rows, spp = p.rows_per_process, p.segments_per_process
        q = len(survivors)
        cover = {r: [(r * rows, rows, r in have_ckpt)] for r in survivors}
        dead = [r for r in range(p.n_procs) if r not in cover]
        for k, f in enumerate(dead):
            for i, (j0, nr) in enumerate(
                    balanced_row_slices(p, f * rows, rows, q)):
                cover[placement[(i + k) % q]].append((j0, nr, False))
        slots: dict[int, list[int]] = {r: [] for r in survivors}
        orphan = 0
        for t in range(p.n_segments):
            owner = t // spp
            if owner not in slots:
                owner = placement[orphan % q]
                orphan += 1
            slots[owner].append(t)
        return cls(ranks=tuple(survivors),
                   rows=tuple(tuple(cover[r]) for r in survivors),
                   slots=tuple(tuple(slots[r]) for r in survivors))

    @property
    def slot_owners(self) -> dict[int, int]:
        """Global segment slot -> global rank that transforms it."""
        return dict(sorted((t, r) for r, ts in zip(self.ranks, self.slots)
                           for t in ts))

    @property
    def recomputed_rows(self) -> int:
        """Rows this map computes rather than takes from a checkpoint."""
        return sum(nr for cover in self.rows
                   for _j0, nr, from_ckpt in cover if not from_ckpt)


# -- the §4 cost model of the stages ----------------------------------------

@dataclass(frozen=True)
class StageCosts:
    """Modeled seconds of one rank's fault-free share of each stage:
    ``rows_per_process`` convolution rows, ``segments_per_process``
    segments.  Other shares are charged proportionally."""

    conv: float  # convolution-and-oversampling
    lane: float  # lane FFTs of the convolved rows
    fft: float  # M'-point segment FFTs
    demod: float  # demodulation of the segment spectra


def stage_costs(params: SoiParams, machine: MachineSpec,
                fuse_demodulation: bool = True) -> StageCosts:
    """The §4 stage model: roofline time at the measured efficiencies."""
    p = params
    if fuse_demodulation:
        demod_words = p.m
    else:
        # separate pass: read spectrum, read constants, write (Fig 9 "etc.")
        demod_words = 2 * p.m_oversampled + 2 * p.m + p.m
    return StageCosts(
        conv=conv_time_model(p, machine, ConvStrategy.BUFFERED,
                             DEFAULT_CONV_EFFICIENCY),
        lane=machine.flop_time(p.lane_fft_flops / p.n_procs,
                               DEFAULT_FFT_EFFICIENCY),
        fft=machine.flop_time(p.local_fft_flops / p.n_procs,
                              DEFAULT_FFT_EFFICIENCY),
        demod=machine.mem_time(demod_words * p.segments_per_process * 16))


# -- the rank-local program -------------------------------------------------

@dataclass(frozen=True)
class SoiSpec:
    """What a rank runs besides its data: geometry, mapping, costs.

    Small and picklable: ``node``, the driver's ``(SoiFFT, verifier)``,
    travels by reference inside one process only, and a worker resolves
    ``(params, window)`` to its design record through :func:`get_tables`
    — inherited at the fork, else built once; the builder is
    deterministic, so all ranks agree bitwise.
    """

    params: SoiParams
    window: object  # None or a picklable window
    policy: object  # VerifyPolicy arming ABFT stage checks, or None
    ownership: Ownership
    costs: tuple[StageCosts, ...]  # per *global* rank
    rounds: int = 1  # all-to-all rounds the owned segments go out in
    groups: list | None = None  # two-level all-to-all grouping, or None
    node: tuple | None = field(default=None, compare=False, repr=False)

    def __getstate__(self):
        return {**self.__dict__, "node": None}


def _worker_node(spec: SoiSpec) -> tuple:
    """A worker's ``(plan, verifier)``, kept on the design record for every
    job of the geometry.  Not a driver's: a plan kept on a record refers
    back to it, and the cycle outlives a dropped record until a full
    garbage collection (+8 MiB peak RSS on ``dist_process``)."""
    tables, policy = get_tables(spec.params, spec.window), spec.policy
    verifier = None
    if policy is not None:
        from repro.verify.selfcheck import DistVerifier
        key = ("rank verifier", policy.safety, policy.max_strikes)
        verifier = DistVerifier(tables, policy) if policy.inject is not None \
            else tables.derived(key, lambda: DistVerifier(tables, policy))
    return tables.derived("soi plan", lambda: SoiFFT._of(tables)), verifier


def _rows(slots: tuple[int, ...]):
    """Row index of ascending *slots* into a segment-major block: a slice
    (a view, no gather) when they are adjacent."""
    if slots and slots[-1] - slots[0] == len(slots) - 1:
        return slice(slots[0], slots[-1] + 1)
    return list(slots)


def soi_rank_program(ctx: RankContext, x_local, z_ckpt, spec: SoiSpec,
                     x_global=None):
    """Generator run by every participant of ``spec.ownership``.

    Yields collectives and simulated-compute charges to whichever
    backend runs it; returns ``(spectrum, report)`` — one demodulated
    M-point row per owned slot, flattened, and the rank's own
    :class:`~repro.verify.VerificationReport` when it verified with a
    worker-built verifier (None when the spec's shared one did).

    The primary round (*x_global* None) runs on the rank's own input
    chunk *x_local*: ghost halos arrive by ring exchange, ABFT stage
    checks run when ``spec.policy`` arms them (each stage is verified —
    and repaired — before its data is checkpointed, shipped or
    returned), and SDC events of the installed fault plan strike the
    stage buffers first.  A recovery round reads each recomputed row
    range's windows from the staged global input *x_global* instead, takes
    row ranges marked ``from_checkpoint`` from *z_ckpt*, and runs
    without verifier or SDC plan.
    """
    p = spec.params
    own = spec.ownership
    me = own.ranks[ctx.rank]
    costs = spec.costs[me]
    soi, shared = spec.node or _worker_node(spec)
    report = None if spec.node or shared is None else shared.reset_report()
    tables = soi.tables
    s, n_mu, d_mu = p.n_segments, p.n_mu, p.d_mu
    rows_pp, spp = p.rows_per_process, p.segments_per_process
    left_g, right_g = p.ghost_blocks
    recovering = x_global is not None
    verifier = sdc = None
    if not recovering:
        verifier = shared
        fault_plan = ctx.cluster.comm.fault_plan
        if fault_plan is not None and fault_plan.has_sdc:
            sdc = fault_plan
        # ghost exchange: send my edge blocks to the neighbors
        from_left, from_right = yield SendRecvRing(
            to_left=x_local[: right_g * s],
            to_right=x_local[x_local.size - left_g * s:])
        x_ext = np.concatenate([from_left, x_local, from_right])

    # ---- the front per covered range, into one (S, rows) block ----
    cover, off = own.rows[ctx.rank], 0
    block = np.empty((s, sum(nr for _j0, nr, _c in cover)), np.complex128)
    for j0, nr, from_ckpt in cover:
        z, off = block[:, off:off + nr], off + nr
        if from_ckpt:
            z[...] = z_ckpt
            continue
        # a recovery round reads the whole period, modulo its length
        x_in, lo = (x_global, 0) if recovering else (
            x_ext, (j0 // n_mu) * d_mu - left_g)
        def conv(out=None):  # this range's front: run now, and by a repair
            return front(x_in, tables, j0, nr, lo, out,
                         workspace=soi._conv_ws)
        conv(z)
        adopted = recovering and j0 // rows_pp != me
        yield Compute((costs.conv + costs.lane) * (nr / rows_pp),
                      label="recovery recompute" if adopted
                      else "convolution")
        if sdc is not None:
            z[...] = sdc.apply_sdc(z, rank=me, stage="conv")
        if verifier is not None:
            # verify before the checkpoint and the wire: a corrupt z
            # must never be trusted for recovery or shipped to peers
            verifier.check_conv(ctx.cluster, me, x_in, z, conv=conv,
                                seconds=costs.conv + costs.lane)
        if not adopted:
            # stage checkpoint: the post-convolution segments (mu*N/P
            # complex words per rank) are the natural cut point for
            # shrink-and-redistribute recovery
            yield Checkpoint(z, tag="post-conv")

    # ---- per round: one all-to-all, then M'-point FFT + demodulation ----
    rounds = spec.rounds
    segs: list[np.ndarray] = []
    for k in range(rounds):
        # this round's share of every owner's slots: the k-th of *rounds*
        # contiguous runs
        going = [ts[k * len(ts) // rounds:(k + 1) * len(ts) // rounds]
                 for ts in own.slots]
        # the stride permutation P^{S,N'}_erm: my rows of every segment
        # to its owner, each segment's a contiguous run (the exchange
        # copies the views)
        pieces = yield AllToAll([block[_rows(ts)] for ts in going],
                                groups=spec.groups)
        mine = going[ctx.rank]
        share = len(mine) / spp
        # (n_slots, M'): the layout the single-node front writes
        alpha = np.empty((len(mine), p.m_oversampled), dtype=np.complex128)
        for piece, cover in zip(pieces, own.rows):
            off = 0
            for j0, nr, _from_ckpt in cover:
                alpha[:, j0:j0 + nr] = piece[:, off:off + nr]
                off += nr
        # the back: unverified, alpha dies here (the passes work in it);
        # verified, it is what the back is checked against
        seg = back(alpha, tables, soi._seg_plan,
                   lend=verifier is None)  # (n_slots, M)
        yield Compute(costs.fft * share, label="local FFT")
        yield Compute(costs.demod * share, label="demodulation")
        if sdc is not None:
            seg = sdc.apply_sdc(seg, rank=me, stage="back")
        if verifier is not None:
            verifier.check_back(ctx.cluster, me, alpha, seg,
                                plan=soi._seg_plan, ids=mine,
                                seconds=(costs.fft + costs.demod) * share)
        segs.append(seg)
    seg = segs[0] if rounds == 1 else np.concatenate(segs)
    return seg.reshape(-1), report


# -- the driver -------------------------------------------------------------

class DistributedSoiFFT:
    """SOI FFT across the ranks of a :class:`SimCluster`.

    *backend* selects the executor: ``None`` (or a
    :class:`~repro.cluster.backends.SimulatedBackend` over *cluster*)
    steps the ranks serially against the simulated clocks; a
    :class:`~repro.cluster.backends.ProcessBackend` runs every rank as a
    real worker process with shared-memory collectives — bit-for-bit the
    same result, with *cluster* still supplying the machine model and
    the fault plan (which must then be SDC-only: wire faults are a
    property of the simulated fabric, process-level chaos goes through
    :meth:`~repro.cluster.backends.ProcessBackend.inject`).
    """

    def __init__(self, cluster: SimCluster, params: SoiParams, window=None,
                 *, fuse_demodulation: bool = True,
                 segment_exchanges: bool = False,
                 verify=False, backend=None):
        if params.n_procs != cluster.n_ranks:
            raise ValueError(f"params expect {params.n_procs} ranks, "
                             f"cluster has {cluster.n_ranks}")
        p = params
        if not p.ghost_fits():
            raise ValueError(
                f"ghost halo ({max(p.ghost_blocks)} blocks) exceeds a rank's "
                f"chunk ({p.elements_per_process // p.n_segments} blocks); "
                f"increase N or decrease B")
        if backend is None:
            backend = SimulatedBackend(cluster)
        elif backend.is_real:
            if getattr(backend, "size", None) != p.n_procs:
                raise ValueError(
                    f"params expect {p.n_procs} ranks, backend has "
                    f"{getattr(backend, 'size', None)} workers")
        elif not isinstance(backend, SimulatedBackend) \
                or backend.cluster is not cluster:
            raise ValueError("backend must be a ProcessBackend or a "
                             "SimulatedBackend over this cluster")
        self.cluster = cluster
        self.params = params
        self.backend = backend
        self.tables: SoiTables = get_tables(params, window)
        self.fuse_demodulation = fuse_demodulation
        #: §6.1 pipelining structure: exchange one segment per round so the
        #: per-segment FFT can start while later rounds are still in
        #: flight.  Executed clocks stay sequential (collectives
        #: synchronize); feed the trace to
        #: :func:`repro.cluster.replay.replay_with_overlap` for the
        #: overlapped makespan.
        self.segment_exchanges = segment_exchanges
        #: Set by :meth:`recover` after a run that survived rank failures
        #: (and mirrored onto ``backend.last_recovery``).
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
        #: ABFT verifier (``verify=True``, a VerifyPolicy, or a
        #: :class:`~repro.verify.DistVerifier` built for the same params
        #: arms it): post-conv segments are checksum-verified *before*
        #: they are checkpointed or cross the wire, and each demodulated
        #: output row against one checksum functional of the segment it
        #: was transformed from.  Detected segments are recomputed from
        #: the in-memory stage inputs; verification time is charged as
        #: ``"abft verify"``, repairs as ``"abft repair"``.
        #: Per-call results land in ``self.last_verification``.
        self.verifier = None
        self.last_verification = None
        if verify is not None and verify is not False:
            from repro.verify.policy import VerifyPolicy
            from repro.verify.selfcheck import DistVerifier
            self.verifier = verify if isinstance(verify, DistVerifier) \
                else DistVerifier(self.tables, VerifyPolicy.coerce(verify))
        # the identity map and the stage costs are per-plan constants:
        # a call adds nothing to what the rank program is handed
        self.costs = stage_costs(p, cluster.machine, fuse_demodulation)
        self._spec = SoiSpec(
            params=p, window=window,
            policy=self.verifier.policy if self.verifier is not None
            else None,
            ownership=Ownership.identity(p),
            costs=(self.costs,) * p.n_procs,
            rounds=p.segments_per_process if segment_exchanges else 1,
            node=(SoiFFT._of(self.tables), self.verifier))

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

    # -- the driver ----------------------------------------------------------

    def __call__(self, x_parts: list[np.ndarray], deadline=None,
                 hedge=None) -> list[np.ndarray]:
        """Run the distributed transform on block-distributed input.

        Returns the block-distributed, natural-order spectrum: rank r's
        array is ``y[r*N/P : (r+1)*N/P]``.

        Resilience: if a collective (or the worker watchdog) declares a
        rank dead (:class:`~repro.cluster.faults.RankFailed`), the
        transform does not abort — it re-partitions the dead rank's work
        across the survivors from the nearest stage checkpoint and
        completes degraded (see :meth:`recover`); a fabric partition is
        adjudicated by quorum first (:meth:`_handle_partition`).

        *deadline* (duck-typed :class:`repro.resilience.Deadline`) is
        enforced by the backend — at every collective's entry on the
        simulator, off the wall clock on real workers — and between
        recovery rounds; a stage that started runs to completion.
        *hedge*, a :class:`~repro.verify.HedgePolicy`, arms straggler
        hedging in the backend.

        Telemetry: the whole call runs inside one ``"soi request"``
        scope span per rank (so every charge — including retries and
        recovery recomputes — is attributable to this request in the
        span tree), and the per-stage seconds and algorithmic flops are
        folded into the cluster's metric registry on exit, even when
        the call raises.
        """
        p = self.params
        cl = self.cluster
        if len(x_parts) != p.n_procs:
            raise ValueError(f"expected {p.n_procs} input parts")
        parts = [np.ascontiguousarray(a, dtype=np.complex128)
                 for a in x_parts]
        for part in parts:
            if part.shape != (p.elements_per_process,):
                raise ValueError("each part must hold N/P elements")
        self.last_recovery = self.backend.last_recovery = None
        self.last_partition = None
        if self.verifier is not None:
            self.last_verification = self.verifier.reset_report()
        spec = self._spec
        groups = self._groups_for(list(range(p.n_procs)))
        if groups is not None:
            spec = replace(spec, groups=groups)
        fault_plan = cl.comm.fault_plan
        if fault_plan is not None and not fault_plan.has_sdc:
            fault_plan = None  # nothing in it for a real rank to do
        ckpts: dict = {}
        rec = cl.recorder
        first = len(cl.trace.events)
        scopes = [rec.begin(r, "soi request", "other", cl.clocks[r],
                            attributes={"n": p.n})
                  for r in range(cl.n_ranks)]
        try:
            results = self.backend.run(
                soi_rank_program, [(x, None) for x in parts],
                common=(spec,), checkpoints=ckpts, hedge=hedge,
                deadline=deadline, machine=cl.machine,
                fault_plan=fault_plan, label="soi request",
                result_spec=((p.elements_per_process,), np.complex128))
        except (RankFailed, PartitionDetected) as exc:
            z_parts = [ckpts.get((r, "post-conv")) for r in range(p.n_procs)]
            if isinstance(exc, PartitionDetected):
                return self._handle_partition(exc, parts, z_parts,
                                              deadline=deadline)
            return self.recover(parts, z_parts, deadline=deadline,
                                failure=exc)
        finally:
            for scope in scopes:
                if not scope.closed:
                    rec.end(scope, cl.clocks[scope.rank])
            self._publish_metrics(first)
        reports = [rep for _seg, rep in results if rep is not None]
        if reports:
            # ranks across a process boundary verified with their own
            # verifiers; fold what they saw into this plan's report
            self.verifier.absorb(reports, self.backend.metrics)
        return [seg for seg, _rep in results]

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

    # -- topology-aware scheduling helpers -----------------------------------

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

    # -- fault recovery: shrink-and-redistribute -----------------------------

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
                deadline=None, failure: RankFailed | None = None
                ) -> list[np.ndarray]:
        """Complete the transform on the surviving ranks after failures.

        ``x_parts`` is the stage-0 checkpoint (the block-distributed
        input); ``z_parts`` the optional post-convolution checkpoint —
        a list indexed by rank whose entries may be ``None`` for ranks
        that had not checkpointed when the failure struck; *failure*
        the :class:`~repro.cluster.faults.RankFailed` that brought us
        here.  :meth:`Ownership.after_failures` re-plans the map (dead
        rows recomputed by adopters, charged as ``"recovery recompute"``;
        dead slots re-assigned round-robin) and :func:`soi_rank_program`
        runs again over the shrunken group with one all-to-all.  Output
        keeps the natural-order block-distributed contract — parts of
        dead ranks are hosted by their adopters.

        Further failures during recovery shrink again (with *deadline*,
        if given, checked between rounds); only an empty survivor set
        aborts, raising :class:`~repro.cluster.faults.RankFailed`
        chained from the failure that killed the last recovery round.
        """
        p = self.params
        cl = self.cluster
        spp = p.segments_per_process
        # only the simulator has clocks to charge and a wire to model
        simulated = not self.backend.is_real
        x_global = np.concatenate(x_parts)  # stage-0 checkpoint, assembled
        z_parts = z_parts or [None] * p.n_procs
        have_ckpt = {r for r, z in enumerate(z_parts) if z is not None}
        detected_at = getattr(failure, "detected_at", None)
        dom = cl.domains
        while True:
            if deadline is not None:
                deadline.check("recovery round")
            survivors = cl.live_ranks if simulated \
                else sorted(getattr(failure, "survivors", range(p.n_procs)))
            if not survivors:
                raise RankFailed(
                    -1, "no surviving ranks to recover on") from failure
            live = set(survivors)
            dead = [r for r in range(p.n_procs) if r not in live]
            # domain-aware placement: adopted rows and orphaned slots walk
            # the survivors in an order that cycles across fault domains,
            # so a dead switch's whole load never lands behind one other
            # switch
            own = Ownership.after_failures(
                p, survivors, have_ckpt,
                dom.spread_order(survivors) if dom is not None else survivors)
            if deadline is not None:
                # adopters recompute one rank-share of rows per dead rank
                redo = (self.costs.conv + self.costs.lane) * len(dead)
                deadline.charge("recovery", redo if simulated else 0.0)
            try:
                if simulated:
                    # redistribute each lost input chunk to the survivors:
                    # the checkpoint copy is replayed from the first one
                    for f in dead:
                        cl.comm.bcast(x_parts[f], root=survivors[0],
                                      ranks=survivors,
                                      label="recovery redistribute")
                results = self.backend.run(
                    soi_rank_program, [(None, z_parts[r]) for r in survivors],
                    common=(replace(self._spec, ownership=own, rounds=1,
                                    groups=self._groups_for(survivors)),
                            x_global),
                    ranks=tuple(survivors), deadline=deadline,
                    machine=cl.machine, label="soi recovery")
            except RankFailed as exc:
                failure = exc
                continue
            break

        y_by_slot: dict[int, np.ndarray] = {}
        for slots, (seg, _rep) in zip(own.slots, results):
            y_by_slot.update(zip(slots, seg.reshape(len(slots), p.m)))
        # MTTR per affected domain, from its first member's failure (dead
        # clocks froze where the rank died) to the last survivor's finish
        mttr: dict[int, float] = {}
        if dom is not None:
            t_done = max(cl.clocks[r] for r in survivors)
            for t_fail, d in sorted((cl.clocks[f], dom.domain_of(f))
                                    for f in dead):
                mttr.setdefault(d, t_done - t_fail)
            mttr = dict(sorted(mttr.items()))
        self.last_recovery = RecoveryReport(
            dead_ranks=tuple(dead), n_live=len(survivors),
            slot_owners=own.slot_owners,
            recomputed_rows=own.recomputed_rows,
            domain_kind=dom.kind if dom is not None else None,
            mttr_by_domain=mttr)
        self.backend.note_recovery(self.last_recovery, detected_at)
        return [np.concatenate([y_by_slot[t]
                                for t in range(r * spp, (r + 1) * spp)])
                for r in range(p.n_procs)]

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
