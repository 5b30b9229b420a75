"""Execution-backend suite: simulated vs real worker processes.

The contract under test is the tentpole one: a ``ProcessBackend`` run —
real cores, shared-memory zero-copy all-to-all — must be *bit-for-bit*
identical to the rank-serial ``SimulatedBackend``, including the merged
``VerificationReport`` under injected silent data corruption.
"""

import itertools
import os
import pickle
import queue
import re
import threading
import time
from collections import Counter
from dataclasses import replace
from signal import SIGCONT, SIGKILL, SIGSTOP

import numpy as np
import pytest

from repro.cluster import backends as backends_mod
from repro.cluster import shm as shm_mod
from repro.cluster.backends import ProcessBackend, SimulatedBackend
from repro.cluster.faults import (
    FaultPlan,
    ProcessFault,
    ProcessFaultPlan,
    RankFailed,
)
from repro.cluster.shm import ShmArena, ShmPool, list_segments
from repro.cluster.simcluster import SimCluster
from repro.cluster.spmd import (
    AllToAll,
    Barrier,
    Bcast,
    Checkpoint,
    SendRecvRing,
    run_spmd,
)
from repro.core.params import SoiParams
from repro.core.soi_dist import DistributedSoiFFT
from repro.core.soi_single import SoiFFT
from repro.core.soi_spmd import spmd_soi_fft
from repro.resilience.deadline import Deadline, DeadlineExceeded
from repro.verify import HedgePolicy
from repro.verify.policy import VerifyPolicy

pytestmark = pytest.mark.parallel

P = 4  # worker count shared by the whole module (one spawn, many tests)


@pytest.fixture(scope="module")
def backend():
    with ProcessBackend(P) as b:
        yield b


def soi_params(n, spp=2, n_procs=P):
    return SoiParams(n=n, n_procs=n_procs, segments_per_process=spp,
                     n_mu=5, d_mu=4, b=48)


def signal(n, seed=2013):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


# -- module-level rank programs (workers unpickle them by reference) ----

def alltoall_prog(ctx, base):
    per_dest = [np.full(3, base + ctx.rank * 10 + d, dtype=np.float64)
                for d in range(ctx.size)]
    pieces = yield AllToAll(per_dest)
    return np.concatenate([np.asarray(p) for p in pieces])


def ring_prog(ctx, x_local):
    halo = yield SendRecvRing(to_left=x_local[:2], to_right=x_local[-2:])
    from_left, from_right = halo
    return np.concatenate([from_left, x_local, from_right])


def bcast_prog(ctx, payload):
    got = yield Bcast(payload if ctx.rank == 1 else None, root=1)
    return np.asarray(got) + ctx.rank


def typed_alltoall_prog(ctx, x_local):
    per_dest = [x_local[d::ctx.size].copy() for d in range(ctx.size)]
    pieces = yield AllToAll(per_dest)
    return np.concatenate([np.asarray(p) for p in pieces])


def boom_prog(ctx):
    yield Barrier()
    if ctx.rank == 2:
        raise RuntimeError("kaboom on rank two")
    yield Barrier()
    return ctx.rank


def fill_prog(ctx, n, value):
    return np.full(n, value)
    yield  # the backend runs generator programs only


def straggler_prog(ctx, n, slow_rank, sleep_s):
    """Rank *slow_rank* outlives its job, then writes 1s into a result
    slot the job no longer owns."""
    if ctx.rank == slow_rank:
        time.sleep(sleep_s)
    return np.ones(n)
    yield


def checkpointed_straggler_prog(ctx, n, slow_rank, sleep_s):
    """Every rank ships a checkpoint and meets at a barrier; then all
    but one return, and *slow_rank* sleeps on as in straggler_prog."""
    yield Checkpoint(np.full(n, float(ctx.rank)), tag="stage")
    yield Barrier()
    if ctx.rank != 0:
        time.sleep(sleep_s if ctx.rank == slow_rank else 0.5)
    return np.ones(n)


def doubling_prog(ctx, x_local):
    time.sleep(0.1)
    yield Barrier()
    return x_local * 2


def mapping_count_prog(ctx, x_local, token):
    """How many mappings of the backend's segments this worker holds,
    counted after an all-to-all sized like the input."""
    yield AllToAll(np.array_split(x_local, ctx.size))
    with open("/proc/self/maps") as maps:
        return np.array([sum(token in line for line in maps)], dtype=float)


# -- shared-memory pool ------------------------------------------------

class TestShmPool:
    """The pool, and the arena every data segment is created through."""

    def test_pack_and_resolve_roundtrip(self):
        with ShmPool() as owner, ShmPool() as reader:
            arena = ShmArena("t-seg", owner)
            a = np.arange(12, dtype=np.complex128).reshape(3, 4)
            b = np.arange(5, dtype=np.float32)
            va, vb, vc = arena.pack([a, b, b])
            assert va.segment == vb.segment == vc.segment == "t-segg0"
            assert np.array_equal(va.resolve(reader), a)
            assert np.array_equal(vb.resolve(reader), b)
            assert va.nbytes == a.nbytes and vb.nbytes == b.nbytes
            # the next fill lands in the same bytes, pack after pack
            arena.reset()
            assert arena.pack([a + 1, b]) == [va, vb]
            assert arena.pack([b + 1]) == [vc]
            assert np.array_equal(va.resolve(reader), a + 1)
            assert np.array_equal(vb.resolve(reader), b)
            assert np.array_equal(vc.resolve(reader), b + 1)
            assert list_segments("t-seg") == ["t-segg0"]

    def test_views_are_read_only_by_default(self):
        with ShmPool() as pool:
            (view,) = ShmArena("t-ro", pool).pack([np.zeros(4)])
            arr = view.resolve(pool)
            with pytest.raises(ValueError):
                arr[0] = 1.0
            arr_w = view.resolve(pool, writeable=True)
            arr_w[0] = 1.0
            assert view.resolve(pool)[0] == 1.0

    def test_attach_is_cached_per_pool(self):
        with ShmPool() as pool:
            pool.create("t-cache", 64)
            assert pool.attach("t-cache") is pool.attach("t-cache")

    def test_duplicate_create_rejected(self):
        with ShmPool() as pool:
            pool.create("t-dup", 16)
            with pytest.raises(ValueError, match="already created"):
                pool.create("t-dup", 16)

    def test_grow_unlinks_the_old_generation(self):
        with ShmPool() as owner, ShmPool() as reader:
            arena = ShmArena("t-grow", owner)
            (small,) = arena.pack([np.zeros(8)])
            small.resolve(reader)
            arena.reset()
            (big,) = arena.pack([np.arange(1024.0)])
            assert (small.segment, big.segment) == ("t-growg0", "t-growg1")
            assert list_segments("t-grow") == ["t-growg1"]
            # rule 2: the reader swaps its mapping, it does not collect them
            assert np.array_equal(big.resolve(reader), np.arange(1024.0))
            assert list(reader._attached) == ["t-growg1"]
            # growth in the middle of a fill keeps what the fill handed out
            (more,) = arena.pack([np.arange(4096.0)])
            assert more.segment == "t-growg2"
            assert list_segments("t-grow") == ["t-growg1", "t-growg2"]
            assert np.array_equal(big.resolve(reader), np.arange(1024.0))
            arena.reset()
            assert list_segments("t-grow") == ["t-growg2"]

    def test_retire_and_owner_close_unlink(self):
        with ShmPool() as owner:
            arena = ShmArena("t-own", owner)
            (v0,) = arena.pack([np.ones(8)])
            arena.retire()
            assert list_segments("t-own") == []
            arena.reset()
            (v1,) = arena.pack([np.ones(8)])
            assert v1.segment != v0.segment  # a name is never reused
            assert list_segments("t-own") == [v1.segment]
        assert list_segments("t-own") == []


# -- simulated backend routing -----------------------------------------

class TestSimulatedBackend:
    def test_matches_run_spmd(self):
        cl = SimCluster(3)
        sim = SimulatedBackend(cl)
        got = sim.run(alltoall_prog, [(0.0,)] * 3)
        want = run_spmd(SimCluster(3), lambda ctx: alltoall_prog(ctx, 0.0))
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert not sim.is_real and sim.size == 3

    def test_spmd_soi_fft_default_backend_unchanged(self):
        params = soi_params(2 ** 12)
        x = signal(params.n)
        plain = spmd_soi_fft(SimCluster(P), params, x)
        cl = SimCluster(P)
        routed = spmd_soi_fft(cl, params, x, backend=SimulatedBackend(cl))
        assert np.array_equal(plain, routed)

    def test_foreign_cluster_rejected(self):
        params = soi_params(2 ** 12)
        with pytest.raises(ValueError, match="over this cluster"):
            spmd_soi_fft(SimCluster(P), params, signal(params.n),
                         backend=SimulatedBackend(SimCluster(P)))


# -- real process backend ----------------------------------------------

class TestProcessBackendCollectives:
    def test_alltoall_matches_simulated(self, backend):
        want = run_spmd(SimCluster(P), lambda ctx: alltoall_prog(ctx, 5.0))
        got = backend.run(alltoall_prog, [(5.0,)] * P)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_ring_matches_simulated(self, backend):
        xs = [signal(8, seed=r) for r in range(P)]
        want = run_spmd(SimCluster(P), lambda ctx: ring_prog(ctx, xs[ctx.rank]))
        got = backend.run(ring_prog, [(x,) for x in xs])
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_bcast_matches_simulated(self, backend):
        payload = signal(16, seed=9)
        want = run_spmd(SimCluster(P),
                        lambda ctx: bcast_prog(ctx, payload))
        got = backend.run(bcast_prog, [(payload,)] * P)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64,
                                       np.complex64, np.complex128,
                                       np.int32])
    def test_alltoall_preserves_dtype_bitwise(self, backend, dtype):
        rng = np.random.default_rng(17)
        xs = [(rng.standard_normal(16) * 100).astype(dtype)
              for _ in range(P)]
        want = run_spmd(SimCluster(P),
                        lambda ctx: typed_alltoall_prog(ctx, xs[ctx.rank]))
        got = backend.run(typed_alltoall_prog, [(x,) for x in xs])
        for a, b in zip(want, got):
            assert b.dtype == np.dtype(dtype)
            assert np.array_equal(a, b)

    def test_worker_error_propagates_and_backend_survives(self, backend):
        with pytest.raises(RuntimeError, match="kaboom on rank two"):
            backend.run(boom_prog, [()] * P)
        # the next job runs on a fresh worker set
        got = backend.run(alltoall_prog, [(1.0,)] * P)
        assert len(got) == P

    def test_unpicklable_program_rejected_eagerly(self, backend):
        def local_prog(ctx):
            yield Barrier()
            return ctx.rank

        with pytest.raises(ValueError, match="pickle"):
            backend.run(local_prog, [()] * P)

    def test_wrong_rank_count_rejected(self, backend):
        with pytest.raises(ValueError):
            backend.run(alltoall_prog, [(0.0,)] * (P + 1))

    def test_subset_group_runs_on_survivors(self, backend):
        """A job may target any subset of the worker set (recovery path)."""
        group = (0, 1, 3)
        want = run_spmd(SimCluster(len(group)),
                        lambda ctx: alltoall_prog(ctx, 2.0))
        got = backend.run(alltoall_prog, [(2.0,)] * len(group), ranks=group)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestProcessBackendSoi:
    @pytest.mark.parametrize("n,spp", [(2 ** 12, 1), (2 ** 12, 2),
                                       (2 ** 14, 2)])
    def test_bit_for_bit_across_geometries(self, backend, n, spp):
        params = soi_params(n, spp)
        x = signal(n)
        want = spmd_soi_fft(SimCluster(P), params, x)
        got = spmd_soi_fft(SimCluster(P), params, x, backend=backend)
        assert np.array_equal(want, got)  # bitwise, not allclose

    def test_distributed_soi_fft_front_end(self, backend):
        params = soi_params(2 ** 12)
        x = signal(params.n)
        serial = DistributedSoiFFT(SimCluster(P), params)
        real = DistributedSoiFFT(SimCluster(P), params, backend=backend)
        parts = serial.scatter(x)
        want, got = serial(parts), real(parts)
        assert all(np.array_equal(a, b) for a, b in zip(want, got))
        assert np.array_equal(np.concatenate(want), np.concatenate(got))

    def test_verified_run_reports_clean(self, backend):
        params = soi_params(2 ** 12)
        x = signal(params.n)
        cl = SimCluster(P)
        soi = DistributedSoiFFT(cl, params, verify=True, backend=backend)
        out = soi(soi.scatter(x))
        assert soi.last_verification is not None
        assert soi.last_verification.detections == 0
        assert soi.last_verification.checks > 0
        np.testing.assert_allclose(
            np.concatenate(out), np.fft.fft(x), rtol=0,
            atol=1e-6 * params.n)

    @pytest.mark.parametrize("seed", [5, 11, 16])
    def test_identical_reports_under_sdc(self, backend, seed):
        """Chaos equivalence: same SDC plan, same detections, same events."""
        params = soi_params(2 ** 12)
        x = signal(params.n)

        cl_sim = SimCluster(P)
        cl_sim.comm.install_faults(FaultPlan.random(
            seed, P, sdc_rate=0.3, sdc_amplitude=50.0))
        from repro.verify.selfcheck import DistVerifier
        from repro.core.window import build_tables
        ver_sim = DistVerifier(build_tables(params, None), VerifyPolicy())
        want = spmd_soi_fft(cl_sim, params, x, verify=ver_sim)

        cl_real = SimCluster(P)
        cl_real.comm.install_faults(FaultPlan.random(
            seed, P, sdc_rate=0.3, sdc_amplitude=50.0))
        ver_real = DistVerifier(build_tables(params, None), VerifyPolicy())
        got = spmd_soi_fft(cl_real, params, x, verify=ver_real,
                           backend=backend)

        assert np.array_equal(want, got)
        assert ver_sim.report == ver_real.report
        assert ver_sim.report.detections > 0  # the plan actually struck

    @pytest.mark.parametrize("seed", [5, 16])
    def test_repaired_on_real_workers_is_bitwise_fault_free(self, backend,
                                                            seed):
        """A worker's repair reruns the kernels the worker ran (its own
        convolve call and cached lane plan), so detected-and-repaired on
        real processes is the fault-free spectrum, bitwise."""
        params = soi_params(2 ** 12)
        x = signal(params.n)
        cl = SimCluster(P)
        cl.comm.install_faults(FaultPlan.random(
            seed, P, sdc_rate=0.3, sdc_amplitude=50.0))
        soi = DistributedSoiFFT(cl, params, verify=True, backend=backend)
        got = soi.assemble(soi(soi.scatter(x)))
        assert "conv" in soi.last_verification.detected_stages
        assert np.array_equal(got, spmd_soi_fft(SimCluster(P), params, x))

    def test_wire_faults_rejected_sdc_only_allowed(self, backend):
        params = soi_params(2 ** 12)
        x = signal(params.n)
        # a pure wire plan is simply dropped (nothing for real ranks to do)
        cl = SimCluster(P)
        cl.comm.install_faults(FaultPlan.random(3, P, corrupt_rate=0.1))
        want = spmd_soi_fft(SimCluster(P), params, x)
        assert np.array_equal(want, spmd_soi_fft(cl, params, x,
                                                 backend=backend))
        # a mixed plan (wire + SDC) cannot be honored and must refuse
        cl2 = SimCluster(P)
        cl2.comm.install_faults(FaultPlan.random(
            3, P, corrupt_rate=0.1, sdc_rate=0.2))
        with pytest.raises(ValueError, match="SDC-only"):
            spmd_soi_fft(cl2, params, x, backend=backend)

    def test_deadline_accepted_on_real_backend(self, backend):
        """A generous wall-clock budget changes nothing; an expired one
        raises cleanly and the backend keeps serving."""
        params = soi_params(2 ** 12)
        x = signal(params.n)
        want = spmd_soi_fft(SimCluster(P), params, x)
        got = spmd_soi_fft(SimCluster(P), params, x, backend=backend,
                           deadline=Deadline(60.0))
        assert np.array_equal(want, got)
        with pytest.raises(DeadlineExceeded):
            spmd_soi_fft(SimCluster(P), params, x, backend=backend,
                         deadline=Deadline(1e-9))
        after = spmd_soi_fft(SimCluster(P), params, x, backend=backend)
        assert np.array_equal(want, after)

    def test_hedge_accepted_on_real_backend(self, backend):
        """With no stragglers a hedge policy is a no-op pass-through."""
        params = soi_params(2 ** 12)
        x = signal(params.n)
        hedge = HedgePolicy(threshold=50.0, min_ranks=2)
        want = spmd_soi_fft(SimCluster(P), params, x)
        got = spmd_soi_fft(SimCluster(P), params, x, backend=backend,
                           hedge=hedge)
        assert np.array_equal(want, got)
        assert hedge.launched == 0

    def test_part_count_validated(self, backend):
        params = soi_params(2 ** 12)
        chunk = params.elements_per_process
        soi = DistributedSoiFFT(SimCluster(P), params, backend=backend)
        with pytest.raises(ValueError, match="parts"):
            soi([np.zeros(chunk, complex)] * (P - 1))


# -- elastic recovery and process-level chaos ---------------------------

@pytest.fixture()
def chaos_backend():
    """Function-scoped backend for tests that kill/stall workers."""
    b = ProcessBackend(P, hang_timeout=1.5)
    yield b
    token = b._token
    b.close()
    assert list_segments(token) == []  # no /dev/shm leak, ever


def live_infrastructure(be):
    """Mid-life hygiene, stated exactly: between jobs ``/dev/shm`` holds
    the heartbeat, at most one input and one result generation, and per
    live worker of the current set generation at most one outbox and one
    checkpoint stash — nothing named after a job, nothing an earlier
    worker set left.  Returns how many segments of each kind there are;
    any other name fails here.
    """
    live = {(w, be._generation) for w in be.live_workers()}
    found = []
    for name in list_segments(be._token):
        tail = name[len(be._token):]
        m = re.fullmatch(r"w(\d+)e(\d+)([ok])g\d+", tail)
        if m:
            assert (int(m[1]), int(m[2])) in live, f"orphan {name}"
            found.append(({"o": "outbox", "k": "stash"}[m[3]], m[1]))
        else:
            m = re.fullmatch(r"(hb)|([ir])g\d+", tail)
            assert m, f"not infrastructure: {name}"
            found.append((m[1] or m[2], ""))
    assert len(set(found)) == len(found), f"two generations live: {found}"
    return Counter(kind for kind, _worker in found)


class TestProcessFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            ProcessFault("explode", rank=0)
        with pytest.raises(ValueError, match="rank"):
            ProcessFault("kill", rank=-1)
        with pytest.raises(ValueError, match="SDC-only"):
            ProcessFaultPlan(sdc=FaultPlan.random(1, P, corrupt_rate=0.1))
        with pytest.raises(ValueError, match="point"):
            ProcessFault("kill", rank=0, at="dispatch")
        with pytest.raises(ValueError, match="point"):
            ProcessFault("kill", rank=0, at=-1)
        with pytest.raises(ValueError, match="only at 'start'"):
            ProcessFault("delay", rank=0, at=1, for_s=0.1)
        with pytest.raises(ValueError, match="needs its for_s"):
            ProcessFault("delay", rank=0)
        with pytest.raises(ValueError, match="a kill has no for_s"):
            ProcessFault("kill", rank=0, for_s=0.1)

    def test_seeded_draws_are_pinned(self):
        """Victims, jobs and collectives per seed are the schedule every
        seeded soak was written against."""
        draws = {seed: [(f.kind, f.rank, f.job, f.at, f.for_s)
                        for f in ProcessFaultPlan.random(
                            seed, P, n_kills=1, n_stalls=1, n_delays=1,
                            jobs=3).faults]
                 for seed in (1, 7, 23)}
        assert draws == {
            1: [("kill", 1, 3, 0, None), ("stall", 2, 1, 2, 0.5),
                ("delay", 3, 1, "start", 0.25)],
            7: [("kill", 2, 3, 1, None), ("stall", 3, 3, 2, 0.5),
                ("delay", 0, 1, "start", 0.25)],
            23: [("kill", 2, 2, 0, None), ("stall", 0, 1, 1, 0.5),
                 ("delay", 0, 1, "start", 0.25)]}

    def test_seeded_plan_is_reproducible(self):
        a = ProcessFaultPlan.random(7, P, n_kills=1, n_stalls=1, n_delays=1)
        b = ProcessFaultPlan.random(7, P, n_kills=1, n_stalls=1, n_delays=1)
        assert a.faults == b.faults
        assert a.describe() == b.describe()

    def test_min_survivors_respected(self):
        for seed in range(20):
            plan = ProcessFaultPlan.random(seed, P, n_kills=P - 1,
                                           min_survivors=2)
            kills = [f for f in plan.faults if f.kind == "kill"]
            assert len(kills) <= P - 2

    def test_job_sequencing(self):
        plan = ProcessFaultPlan([ProcessFault("kill", rank=1, job=2,
                                              at=0)])
        plan.reset()
        assert plan.next_job() == ()  # job 1: nothing scheduled
        assert len(plan.next_job()) == 1  # job 2: the kill fires


class TestElasticRecovery:
    def test_rank_failed_carries_failure_context(self, chaos_backend):
        """Satellite: RankFailed chains the watchdog's evidence — dead
        rank ids, job label, survivors — and a causal RuntimeError."""
        be = chaos_backend
        be.inject(ProcessFaultPlan([ProcessFault("kill", rank=2,
                                                 at=0)]))
        with pytest.raises(RankFailed, match="worker 2 died") as ei:
            be.run(alltoall_prog, [(0.0,)] * P, label="doomed job")
        exc = ei.value
        assert exc.rank == 2
        assert exc.dead_ranks == (2,)
        assert set(exc.survivors) == {0, 1, 3}
        assert exc.job_label == "doomed job"
        assert isinstance(exc.__cause__, RuntimeError)
        assert "doomed job" in str(exc.__cause__)
        assert be.last_failure is not None
        assert be.last_failure.dead == (2,)
        # the backend survives: the next run forks a fresh worker set
        got = be.run(alltoall_prog, [(3.0,)] * P)
        assert len(got) == P and be.live_workers() == list(range(P))

    def test_kill_mid_alltoall_recovers_bitwise(self, chaos_backend):
        """The acceptance scenario: SIGKILL one worker mid-all-to-all;
        shrink-and-redistribute completes on the survivors and the
        output is bit-identical to the fault-free run."""
        be = chaos_backend
        params = soi_params(2 ** 12)
        x = signal(params.n)
        want = spmd_soi_fft(SimCluster(P), params, x, backend=be)
        be.inject(ProcessFaultPlan([ProcessFault("kill", rank=2,
                                                 at=1)]))
        got = spmd_soi_fft(SimCluster(P), params, x, backend=be)
        assert np.array_equal(want, got)
        report = be.last_recovery
        assert report is not None
        assert report.dead_ranks == (2,)
        assert report.n_live == P - 1
        assert report.recomputed_rows > 0
        assert len(report.slot_owners) == params.n_procs * \
            params.segments_per_process
        assert be.last_mttr_s is not None and be.last_mttr_s >= 0.0

    def test_kill_before_checkpoint_recovers_bitwise(self, chaos_backend):
        """Death at the first collective (pre-checkpoint): every dead
        row is recomputed from the input, still bit-identical."""
        be = chaos_backend
        params = soi_params(2 ** 12)
        x = signal(params.n)
        want = spmd_soi_fft(SimCluster(P), params, x, backend=be)
        be.inject(ProcessFaultPlan([ProcessFault("kill", rank=1,
                                                 at=0)]))
        got = spmd_soi_fft(SimCluster(P), params, x, backend=be)
        assert np.array_equal(want, got)
        assert be.last_recovery.dead_ranks == (1,)

    def test_hang_detected_and_recovered(self, chaos_backend):
        """SIGSTOP without resume: the heartbeat watchdog escalates the
        hung worker to SIGKILL and recovery completes bit-identically."""
        be = chaos_backend
        params = soi_params(2 ** 12)
        x = signal(params.n)
        want = spmd_soi_fft(SimCluster(P), params, x, backend=be)
        be.inject(ProcessFaultPlan([ProcessFault("stall", rank=3,
                                                 at=1)]))
        got = spmd_soi_fft(SimCluster(P), params, x, backend=be)
        assert np.array_equal(want, got)
        assert be.last_failure.hung == (3,)
        assert be.last_recovery.dead_ranks == (3,)

    def test_transient_stall_and_delay_are_transparent(self, chaos_backend):
        """A stall that resumes (SIGCONT) and a rank asleep at its start
        finish without any recovery at all."""
        be = chaos_backend
        params = soi_params(2 ** 12)
        x = signal(params.n)
        want = spmd_soi_fft(SimCluster(P), params, x, backend=be)
        be.inject(ProcessFaultPlan([ProcessFault("stall", rank=3, at=1,
                                                 for_s=0.3)]))
        assert np.array_equal(want, spmd_soi_fft(SimCluster(P), params, x,
                                                 backend=be))
        assert be.last_recovery is None
        be.inject(ProcessFaultPlan([ProcessFault("delay", rank=2,
                                                 for_s=0.2)]))
        assert np.array_equal(want, spmd_soi_fft(SimCluster(P), params, x,
                                                 backend=be))
        assert be.last_recovery is None

    def test_hedge_redispatches_straggler(self, chaos_backend):
        """A worker asleep at its start far past the label's known
        duration is killed and the job re-dispatched to its replacement
        — the run completes long before the fault's delay elapses."""
        be = chaos_backend
        params = soi_params(2 ** 12)
        x = signal(params.n)
        want = spmd_soi_fft(SimCluster(P), params, x, backend=be)
        be.inject(ProcessFaultPlan([ProcessFault("delay", rank=0,
                                                 for_s=30.0)]))
        hedge = HedgePolicy(threshold=2.0, min_ranks=2)
        got = spmd_soi_fft(SimCluster(P), params, x, backend=be,
                           hedge=hedge)
        assert np.array_equal(want, got)
        assert hedge.launched >= 1 and hedge.won >= 1
        # and the fresh worker set serves the next job normally
        be.inject(None)
        assert np.array_equal(want, spmd_soi_fft(SimCluster(P), params, x,
                                                 backend=be))

    def test_recovery_metrics_and_no_leaks(self, chaos_backend):
        be = chaos_backend
        recoveries = be.metrics.counter("repro_backend_recoveries_total")
        deaths = be.metrics.counter("repro_backend_worker_deaths_total")
        r0, d0 = recoveries.value, deaths.value
        params = soi_params(2 ** 12)
        x = signal(params.n)
        be.inject(ProcessFaultPlan([ProcessFault("kill", rank=0,
                                                 at=1)]))
        spmd_soi_fft(SimCluster(P), params, x, backend=be)
        assert recoveries.value == r0 + 1
        assert deaths.value == d0 + 1
        # recovery ran on a fresh worker set: nothing of the failed job's
        # set is left, the three ranks of the survivor group packed an
        # outbox and shipped no checkpoint, and the parent's arenas hold
        # the recovery job's inputs and the failed job's result slots
        assert live_infrastructure(be) == {
            "hb": 1, "i": 1, "r": 1, "outbox": P - 1}


# -- a backend survives any failed job: the contract as a matrix -------

_ENSURE_WORKERS = ProcessBackend._ensure_workers


def respawn_the_dead_slots(be):
    """Mutant of ``ProcessBackend._ensure_workers``: the partial respawn the
    backend once had.  Only a dead slot is forked again, on the set's old
    pipes after draining whole messages off them; the survivors of an
    unclean job keep running."""
    if not be._procs:
        return _ENSURE_WORKERS(be)
    for wid, p in enumerate(be._procs):
        if p.is_alive():
            continue
        for chan in (be._job_qs[wid], be._mailboxes[wid],
                     be._result_chans[wid]):
            while True:
                try:
                    chan.get_nowait()
                except (queue.Empty, ValueError):
                    break
        be.janitor.sweep(f"w{wid}e")
        be._generation += 1  # a fresh name for the slot's arenas
        be._hb[wid] = (time.monotonic(), -1.0)
        be._procs[wid] = be._ctx.Process(
            target=backends_mod._worker_main,
            args=(wid, be.size, be._token, be._job_qs[wid],
                  be._result_chans[wid], be._mailboxes, be.mailbox_timeout,
                  f"{be._token}hb", be._generation), daemon=True)
        be._procs[wid].start()


MATRIX_PARAMS = SoiParams(n=28672, n_procs=P, segments_per_process=2)
# the "@0s" ids name the cases' old dispatch-time triggers; each now
# fires in its victim at "start", the job read whole
MATRIX_FAULTS = {
    "kill@0s": ProcessFault("kill", rank=1, at="start"),
    "stall@0s": ProcessFault("stall", rank=1, at="start"),
    "stall+resume@0s": ProcessFault("stall", rank=1, at="start",
                                    for_s=0.3),
    "delay@0s": ProcessFault("delay", rank=1, for_s=0.0),
    "kill@collective1": ProcessFault("kill", rank=1, at=1),
    "stall@collective1": ProcessFault("stall", rank=1, at=1),
}


def matrix_calls(be):
    """``call(**kwargs)`` runs one ``MATRIX_PARAMS`` transform on *be* and
    returns its verdict: ``"bits"`` (``SoiFFT``'s spectrum, no recovery),
    ``"recovered"`` (the same bits through a recovery round), ``"wrong
    bits"``, or the name of the exception the call raised."""
    x = signal(MATRIX_PARAMS.n)
    want = SoiFFT(replace(MATRIX_PARAMS, n_procs=1,
                          segments_per_process=MATRIX_PARAMS.n_segments))(x)
    dist = DistributedSoiFFT(SimCluster(P), MATRIX_PARAMS, backend=be)
    parts = dist.scatter(x)

    def call(**kwargs) -> str:
        try:
            y = dist.assemble(dist(parts, **kwargs))
        except Exception as exc:  # noqa: BLE001 - the verdict
            return type(exc).__name__
        if not np.array_equal(y, want):
            return "wrong bits"
        return "bits" if dist.last_recovery is None else "recovered"
    return call


def clean_faulted_clean_clean(fault, hedged: bool) -> list[str]:
    """One clean call, the call *fault* strikes (hedged or not), then two
    clean calls under ``Deadline(5.0)``, all on one backend.  Returns a
    verdict per call (:func:`matrix_calls`).  Nothing is left in
    ``/dev/shm`` after the backend closes."""
    with ProcessBackend(P, hang_timeout=1.0) as be:
        call = matrix_calls(be)
        verdicts = [call()]
        be.inject(ProcessFaultPlan([fault]))
        verdicts.append(call(hedge=HedgePolicy(2.0, 2) if hedged else None))
        be.inject(None)
        for _ in range(2):
            verdicts.append(call(deadline=Deadline(5.0)))
            if verdicts[-1] != "bits":
                break
    assert list_segments(be._token) == []
    return verdicts


@pytest.mark.chaos_parallel
class TestEveryJobEndingLeavesAWorkingBackend:
    """Whatever a fault does to one job — kill, stall with or without a
    resume, a delayed delivery; at dispatch or at a collective; hedged or
    not — that job returns ``SoiFFT``'s bits or raises a typed error, and
    the next clean jobs on the same backend return ``SoiFFT``'s bits
    within their deadline."""

    @pytest.mark.parametrize("hedged", [False, True],
                             ids=["plain", "hedged"])
    @pytest.mark.parametrize("fault", MATRIX_FAULTS.values(),
                             ids=MATRIX_FAULTS.keys())
    def test_the_next_clean_jobs_return_soi_bits(self, fault, hedged):
        first, faulted, *after = clean_faulted_clean_clean(fault, hedged)
        assert first == "bits"
        assert faulted in ("bits", "recovered", "RankFailed",
                           "DeadlineExceeded")
        assert after == ["bits", "bits"]

    def test_a_torn_job_pipe_does_not_reach_the_next_job(self):
        assert after_a_torn_job_pipe() == "bits"

    def test_a_partial_respawn_wedges_the_next_job(self, monkeypatch):
        """The partial respawn keeps the torn pipe: its drain and the
        respawned worker 1 read the frame's body bytes as lengths, and
        the next clean job does not return the bits."""
        # a grace period of 0.2 s: a wedged job gives up 0.2 s past its
        # deadline instead of 5 s
        monkeypatch.setattr(backends_mod, "_ABORT_GRACE_S", 0.2)
        monkeypatch.setattr(ProcessBackend, "_ensure_workers",
                            respawn_the_dead_slots)
        assert after_a_torn_job_pipe() != "bits"


def eof_is_a_closed_pipe(self, timeout=None):
    """Mutant of ``_PipeChannel.get``: a body that does not unpickle with
    ``EOFError`` (an empty one) reads as a closed pipe, ``queue.Empty``."""
    try:
        if timeout is not None and not self._reader.poll(timeout):
            raise queue.Empty
        return pickle.loads(self._reader.recv_bytes())
    except (EOFError, OSError):
        raise queue.Empty from None


def a_torn_job_frame_in_flight() -> tuple:
    """One clean call; then worker 1 is stopped, a job frame's body is
    written into its job pipe without the frame's 4-byte length, and the
    next call is dispatched behind it while a timer resumes the worker —
    which reads the body as a length and an (empty) frame.  Returns that
    call's verdict, the :class:`WorkerFailure` reason, worker 1's exit
    code and the verdict of one more clean call under ``Deadline(5.0)``."""
    with ProcessBackend(P, hang_timeout=5.0) as be:
        call = matrix_calls(be)
        assert call() == "bits"
        victim = be._procs[1]
        os.kill(victim.pid, SIGSTOP)
        stopped = time.monotonic() + 5.0
        while not backends_mod._stopped(victim.pid):
            assert time.monotonic() < stopped, "worker 1 did not stop"
            time.sleep(0.01)
        body = pickle.dumps(backends_mod._Job(
            job_id=0, program=fill_prog, args=(N_SLOT, 2.0)))
        os.write(be._job_qs[1]._writer.fileno(), body)
        # resumed once the next job's frame is queued behind the body
        resume = threading.Timer(0.5, os.kill, (victim.pid, SIGCONT))
        resume.start()
        faulted = call()
        resume.join()
        failure = be.last_failure
        after = call(deadline=Deadline(5.0))
    assert list_segments(be._token) == []
    return (faulted, failure and failure.reason, victim.exitcode, after)


@pytest.mark.chaos_parallel
class TestATornJobFrameIsNotAClosedPipe:
    """A frame whose body does not unpickle raises ``TornFrame``: the
    worker that read it exits with its own code, the failure names it,
    and the next call returns ``SoiFFT``'s bits."""

    def test_the_failure_names_the_torn_frame(self):
        faulted, reason, code, after = a_torn_job_frame_in_flight()
        assert faulted in ("recovered", "RankFailed")
        assert reason == "worker 1 read a torn job frame (exitcode 3)"
        assert code == backends_mod._TORN_FRAME_EXIT
        assert after == "bits"

    def test_the_check_can_fail(self, monkeypatch):
        monkeypatch.setattr(backends_mod._PipeChannel, "get",
                            eof_is_a_closed_pipe)
        _faulted, reason, code, after = a_torn_job_frame_in_flight()
        assert (reason, code) == ("worker 1 died (exitcode 0)", 0)
        assert after == "bits"

    def test_garbage_is_a_named_error(self):
        from multiprocessing import get_context
        ch = backends_mod._PipeChannel(get_context("fork"))
        try:
            ch._writer.send_bytes(b"not a pickle")
            with pytest.raises(backends_mod.TornFrame, match="12-byte"):
                ch.get(timeout=1.0)
            ch._writer.close()
            with pytest.raises(queue.Empty):  # EOF: closed
                ch.get(timeout=1.0)
        finally:
            ch.close()


def after_a_torn_job_pipe() -> str:
    """One clean call; then worker 1 is SIGKILLed and its job pipe is left
    holding the body of a pickled job frame without the frame's 4-byte
    length — what a reader killed between its two reads leaves behind (an
    OOM kill or an outside signal still can).  Returns the verdict of one
    more clean call under ``Deadline(5.0)``."""
    with ProcessBackend(P, hang_timeout=1.0) as be:
        call = matrix_calls(be)
        assert call() == "bits"
        victim = be._procs[1]
        os.kill(victim.pid, SIGKILL)
        victim.join()
        body = pickle.dumps(backends_mod._Job(
            job_id=0, program=fill_prog, args=(N_SLOT, 2.0)))
        os.write(be._job_qs[1]._writer.fileno(), body)
        verdict = call(deadline=Deadline(5.0))
    assert list_segments(be._token) == []
    return verdict


# -- tokens: every backend names its segments under its own prefix -----

def one_token_for_every_backend(monkeypatch):
    """Mutant of the token: every backend after this call gets the same
    one (from a serial no other backend holds)."""
    serial = next(backends_mod._backend_serials)
    monkeypatch.setattr(backends_mod, "_backend_serials",
                        itertools.repeat(serial))


def two_live_backends(close_first: str) -> None:
    """Backend *b* runs a job while *a*'s heartbeat segment exists; then
    one of them closes and the other's segments are left as they were."""
    a = ProcessBackend(2)
    try:
        a.run(alltoall_prog, [(0.0,)] * 2)
        assert list_segments(f"{a._token}hb") == [f"{a._token}hb"]
        b = ProcessBackend(2)
        try:
            got = b.run(alltoall_prog, [(1.0,)] * 2)
            assert np.array_equal(got[0], [1.0] * 3 + [11.0] * 3)
            gone, kept = (a, b) if close_first == "a" else (b, a)
            names = list_segments(kept._token)
            gone.close()
            assert list_segments(gone._token) == []
            assert list_segments(kept._token) == names
            assert len(kept.run(alltoall_prog, [(2.0,)] * 2)) == 2
        finally:
            b.close()
    finally:
        a.close()


class TestTokens:
    """A janitor sweeps by name prefix, so no backend's token may equal
    or start another's — not even one allocated where a dead one was."""

    def test_no_token_is_a_prefix_of_another(self):
        # serials 0x1 and 0x10 are both among 17 consecutive backends;
        # a backend spawns no worker and creates no segment until it runs
        backends = [ProcessBackend(1) for _ in range(17)]
        for be in backends:
            be.close()
        tokens = [be._token for be in backends]
        assert len(set(tokens)) == len(tokens)
        assert not [(s, t) for s in tokens for t in tokens
                    if s != t and t.startswith(s)]

    @pytest.mark.parametrize("close_first", ["a", "b"])
    def test_two_live_backends_keep_their_own_segments(self, close_first):
        two_live_backends(close_first)

    def test_a_shared_token_collides(self, monkeypatch):
        one_token_for_every_backend(monkeypatch)
        token = ProcessBackend(1)._token
        with pytest.raises(FileExistsError):
            two_live_backends("a")
        assert list_segments(token) == []


def segments_after_close(close) -> list:
    """A job loses one worker to SIGKILL and freezes another with SIGSTOP
    (never resumed); *close* closes the backend.  Returns the segments
    under its token left after that (and unlinks them)."""
    be = ProcessBackend(P, hang_timeout=1.5)
    try:
        be.run(alltoall_prog, [(0.0,)] * P)
        be.inject(ProcessFaultPlan([
            ProcessFault("kill", rank=1, at=0),
            ProcessFault("stall", rank=2, at=0)]))
        with pytest.raises(RankFailed):
            be.run(alltoall_prog, [(1.0,)] * P)
    finally:
        close(be)
    left = list_segments(be._token)
    for name in left:
        shm_mod.unlink_segment(name)
    return left


def close_keeping_the_heartbeat(be) -> None:
    """Mutant of ``close()``: everything is torn down but the heartbeat,
    which neither the pool nor the janitor unlinks."""
    hb = f"{be._token}hb"
    be._pool._created.pop(hb).close()
    sweep = be.janitor.sweep
    be.janitor.sweep = lambda sub="", keep=(): sweep(sub, keep={hb, *keep})
    ProcessBackend.close(be)


class TestCloseAfterFaults:
    """``close()`` leaves nothing under the token, whatever the last job
    did to the workers."""

    def test_no_segment_outlives_close_after_a_kill_and_a_stall(self):
        assert segments_after_close(ProcessBackend.close) == []

    def test_the_check_can_fail(self):
        left = segments_after_close(close_keeping_the_heartbeat)
        assert len(left) == 1 and left[0].endswith("hb"), left


def job_teardown_job(teardown) -> tuple:
    """A clean SOI job, *teardown* of the workers (what a worker-set
    restart does first), then another clean job.  Returns whether that
    job came out bitwise the simulator's, and the segments left under the
    token after ``close()`` (unlinking them)."""
    params = soi_params(2 ** 12, n_procs=2)
    serial = DistributedSoiFFT(SimCluster(2), params)
    parts = serial.scatter(signal(params.n))
    be = ProcessBackend(2)
    try:
        real = DistributedSoiFFT(SimCluster(2), params, backend=be)
        real(parts)
        teardown(be)
        same = all(np.array_equal(a, b)
                   for a, b in zip(real(parts), serial(parts)))
    finally:
        be.close()
    left = list_segments(be._token)
    for name in left:
        shm_mod.unlink_segment(name)
    return same, left


def teardown_keeping_the_heartbeat(be) -> None:
    """Mutant of ``_teardown_workers``: the heartbeat segment stays in the
    backend's pool after its workers are gone."""
    hb = f"{be._token}hb"
    kept = be._pool._created.pop(hb)
    ProcessBackend._teardown_workers(be)
    be._pool._created[hb] = kept


class TestTeardownReleasesWhatSpawnCreates:
    """After a teardown (the first half of a worker-set restart) the next
    job forks a fresh set and runs clean."""

    def test_a_clean_job_after_a_teardown(self):
        assert job_teardown_job(ProcessBackend._teardown_workers) == (True,
                                                                      [])

    def test_the_check_can_fail(self):
        with pytest.raises(ValueError, match="already created"):
            job_teardown_job(teardown_keeping_the_heartbeat)


# -- lifetimes: rule 1 (restart after an unclean end), rule 2 (one mapped
# -- generation per arena)

N_SLOT = 1024
BIG = ((2 * N_SLOT,), np.float64)  # the unclean job's result slots
HALF = ((N_SLOT,), np.float64)  # the next jobs': half as large


@pytest.fixture()
def quick_backend(monkeypatch):
    """A backend that gives an aborted job up after 1.5 s (the deadline
    path after 0.2 s) instead of 5 s; checked for leaks when it closes."""
    monkeypatch.setattr(backends_mod, "_ABORT_GRACE_S", 0.2)
    b = ProcessBackend(P, hang_timeout=0.75)
    yield b
    b.close()
    assert list_segments(b._token) == []


def next_jobs_return_exactly_twos(be):
    """Slot 1 of a BIG job covers slots 2 and 3 of a HALF one, and ranks
    2 and 3 have filled those long before the straggler on rank 1 wakes
    up, writes its 1s and only then takes its own share of this job."""
    for _ in range(20):
        got = be.run(fill_prog, [(N_SLOT, 2.0)] * P, result_spec=HALF)
        assert all(np.array_equal(y, np.full(N_SLOT, 2.0)) for y in got)


def straggler_past_a_deadline(be):
    be.run(fill_prog, [(2 * N_SLOT, 0.0)] * P, result_spec=BIG)
    with pytest.raises(DeadlineExceeded):
        be.run(straggler_prog, [(2 * N_SLOT, 1, 1.2)] * P, result_spec=BIG,
               deadline=Deadline(0.05))
    next_jobs_return_exactly_twos(be)


def straggler_past_a_kill(be):
    # rank 2 dies with its checkpoint shipped and its result unwritten,
    # while rank 1 is still asleep
    be.run(fill_prog, [(2 * N_SLOT, 0.0)] * P, result_spec=BIG)
    be.inject(ProcessFaultPlan([ProcessFault("kill", rank=2, at="result")]))
    ckpts = {}
    with pytest.raises(RankFailed):
        be.run(checkpointed_straggler_prog, [(2 * N_SLOT, 1, 3.0)] * P,
               result_spec=BIG, checkpoints=ckpts)
    # the dead rank's checkpoint was copied before its stash was swept
    assert sorted(ckpts) == [(r, "stage") for r in range(P)]
    assert all(np.array_equal(ckpts[r, "stage"], np.full(2 * N_SLOT, r))
               for r in range(P))
    next_jobs_return_exactly_twos(be)
    # the next job's restart swept every arena of the failed job's set
    live_infrastructure(be)
    # and shrink-and-redistribute on the same backend is still the
    # simulator's answer, bit for bit
    params = soi_params(2 ** 12)
    x = signal(params.n)
    be.inject(ProcessFaultPlan([ProcessFault("kill", rank=2,
                                             at=1)]))
    assert np.array_equal(spmd_soi_fft(SimCluster(P), params, x),
                          spmd_soi_fft(SimCluster(P), params, x, backend=be))
    assert be.last_recovery.dead_ranks == (2,)


def hedged_stall(be):
    """No rank survives a hedge to write late (a laggard is killed, the
    front is parked in a mailbox), so what is held here is the rule
    itself: the re-dispatch and everything after it run on processes the
    abandoned attempt never had, and clean jobs restart nothing."""
    xs = [np.arange(N_SLOT) + float(r) for r in range(P)]

    def doubled(**kwargs):
        got = be.run(doubling_prog, [(x,) for x in xs], result_spec=HALF,
                     label="doubling", **kwargs)
        return all(np.array_equal(y, 2 * x) for y, x in zip(got, xs))

    # twice: the hedge goes by the label's last duration, and the first
    # job's includes the workers starting up
    assert doubled() and doubled()
    before = {p.pid for p in be._procs}
    # rank 1 freezes before its program runs, its progress at -1, while
    # the others reach the barrier
    be.inject(ProcessFaultPlan([ProcessFault("stall", rank=1,
                                             at="start")]))
    hedge = HedgePolicy(threshold=2.0, min_ranks=2)
    assert doubled(hedge=hedge)
    assert hedge.launched >= 1 and hedge.won >= 1
    after = {p.pid for p in be._procs}
    assert not after & before
    be.inject(None)
    assert all(doubled() for _ in range(20))
    assert {p.pid for p in be._procs} == after


UNCLEAN_ENDINGS = [straggler_past_a_deadline, straggler_past_a_kill,
                   hedged_stall]


class TestUncleanJobsRetireTheirGenerations:
    """Rule 1: no process of a job that did not end clean runs into the
    next one (the whole worker set is forked afresh)."""

    @pytest.mark.parametrize("ending", UNCLEAN_ENDINGS,
                             ids=lambda f: f.__name__)
    def test_the_next_job_is_untouched(self, ending, quick_backend):
        ending(quick_backend)

    @pytest.mark.parametrize("ending", UNCLEAN_ENDINGS,
                             ids=lambda f: f.__name__)
    def test_without_retire_it_is_not(self, ending, quick_backend,
                                      monkeypatch):
        """A restart that keeps the survivors: the straggler past a
        deadline or a kill wakes up inside the next job, writes its 1s
        and then answers the job it was given, which the next job's
        bytes or its result pipe shows; after a hedge the re-dispatch
        shares processes with the abandoned attempt."""
        monkeypatch.setattr(ProcessBackend, "_ensure_workers",
                            respawn_the_dead_slots)
        with pytest.raises((AssertionError, RuntimeError)) as caught:
            ending(quick_backend)
        assert caught.type is AssertionError \
            or "answered job" in str(caught.value)


# -- a fault fires at its protocol point, whatever the host's timing ------

def _read_after_a_nap(path):
    time.sleep(0.5)
    open(path, "w").close()


class ReadAfterANap:
    """A job argument whose unpickling sleeps 0.5 s and then creates
    *path*: the file exists once the worker holds its job whole, and any
    fault point comes at least 0.5 s after dispatch."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return _read_after_a_nap, (self.path,)


def point_prog(ctx, n, _read):
    yield Checkpoint(np.full(n, float(ctx.rank)), tag="stage")
    yield Barrier()
    yield Barrier()
    return np.ones(n)


def killed_at(be, at, tmp_path, monkeypatch) -> dict:
    """A job of :func:`point_prog` whose rank 1 is killed at *at*, after a
    clean job that zeroed every result slot.  Returns what the parent
    holds of the victim: whether it read its job whole, shipped its
    checkpoint, its progress column and its result slot."""
    be.run(fill_prog, [(N_SLOT, 0.0)] * P, result_spec=HALF)
    slots = []
    stage = be._stage

    def capture(*args):
        staged = stage(*args)
        slots[:] = staged[2]
        return staged
    monkeypatch.setattr(be, "_stage", capture)
    be.inject(ProcessFaultPlan([ProcessFault("kill", rank=1, at=at)]))
    ckpts = {}
    with pytest.raises(RankFailed):
        be.run(point_prog, [(N_SLOT, ReadAfterANap(tmp_path / f"r{r}"))
                            for r in range(P)],
               result_spec=HALF, checkpoints=ckpts)
    return {"read": (tmp_path / "r1").exists(),
            "ckpt": (1, "stage") in ckpts,
            "progress": float(be._hb[1, 1]),
            "slot": slots[1].resolve(be._pool).copy()}


def holds_its_point(at, seen) -> None:
    """What the parent sees of a victim killed at *at*."""
    assert seen["read"]
    if at == "start":
        assert not seen["ckpt"] and seen["progress"] == -1.0
    elif at == "result":
        assert seen["ckpt"] and seen["progress"] == 1.0
        assert np.array_equal(seen["slot"], np.zeros(N_SLOT))
    else:
        assert seen["progress"] == float(at)


_AWAIT_JOB = ProcessBackend._await_job


def fired_at_dispatch(be, *args, **kwargs):
    """Mutant of the trigger: the parent signals each victim as its job is
    dispatched (the old wall-clock timer at 0 s), wherever the worker
    then is."""
    plan = be.fault_plan
    for f in plan.actions_for(plan.jobs_seen) if plan else ():
        os.kill(be._procs[f.rank].pid,
                SIGKILL if f.kind == "kill" else SIGSTOP)
    return _AWAIT_JOB(be, *args, **kwargs)


def nap_before_collective_1(ctx, x):
    yield Barrier()
    time.sleep(1.0)
    pieces = yield AllToAll([x + d for d in range(ctx.size)])
    return np.concatenate([np.asarray(p) for p in pieces])


def stall_resumed_from_its_stop() -> tuple:
    """Rank 1 stops itself at collective 1, a second into the job, and is
    to be resumed 0.2 s after the parent sees it stopped.  Returns whether
    the job's results are exact and the backend's failure record."""
    xs = [np.arange(4.0) + 10 * r for r in range(P)]
    want = [np.concatenate([xs[s] + d for s in range(P)]) for d in range(P)]
    with ProcessBackend(P, hang_timeout=1.0) as be:
        be.inject(ProcessFaultPlan([ProcessFault("stall", rank=1, at=1,
                                                 for_s=0.2)]))
        try:
            got = be.run(nap_before_collective_1, [(x,) for x in xs])
        except RankFailed:
            got = None
        exact = got is not None and all(np.array_equal(a, b)
                                        for a, b in zip(got, want))
        return exact, be.last_failure, be.last_recovery


@pytest.mark.chaos_parallel
class TestFaultsFireAtTheirPoint:
    """A fault fires in its victim at the point it names: the job read
    whole (``"start"``), collective *k*'s entry, or the program returned
    (``"result"``).  Every point comes at least 0.5 s after dispatch, so a
    trigger that fires early — the parent's signal at dispatch — is
    seen."""

    POINTS = ["start", 1, "result"]

    @pytest.mark.parametrize("at", POINTS, ids=str)
    def test_the_victim_stops_at_its_point(self, at, quick_backend,
                                           tmp_path, monkeypatch):
        holds_its_point(at, killed_at(quick_backend, at, tmp_path,
                                      monkeypatch))

    @pytest.mark.parametrize("at", POINTS, ids=str)
    def test_fired_at_dispatch_it_is_not(self, at, quick_backend, tmp_path,
                                         monkeypatch):
        monkeypatch.setattr(ProcessBackend, "_await_job", fired_at_dispatch)
        seen = killed_at(quick_backend, at, tmp_path, monkeypatch)
        with pytest.raises(AssertionError):
            holds_its_point(at, seen)

    def test_a_resume_counts_from_the_stop(self):
        assert stall_resumed_from_its_stop() == (True, None, None)

    def test_a_resume_counted_from_dispatch_comes_too_early(self,
                                                            monkeypatch):
        """Mutant: the parent takes the worker for stopped at dispatch, so
        its SIGCONT lands before the stop and the worker stays frozen."""
        monkeypatch.setattr(backends_mod, "_stopped", lambda pid: True)
        exact, failure, _ = stall_resumed_from_its_stop()
        assert not exact and failure.hung == (1,)


def grown_mapping_counts(be):
    """Per-rank mapping counts after jobs whose inputs (and all-to-all
    payloads) grow 1 -> 2 -> 4 -> 8 MiB, two jobs of each size."""
    counts = []
    for mib in (1, 1, 2, 2, 4, 4, 8, 8):
        x = np.zeros(mib * 2 ** 20 // (8 * P))
        got = be.run(mapping_count_prog, [(x, be._token)] * P,
                     result_spec=((1,), np.float64))
        counts = [int(y[0]) for y in got]
    return counts


class TestSteadyStateCreatesNothing:
    def test_third_call_leaves_dev_shm_and_the_parent_pool_alone(
            self, backend, monkeypatch):
        params = soi_params(2 ** 12)
        soi = DistributedSoiFFT(SimCluster(P), params, backend=backend)
        parts = soi.scatter(signal(params.n))
        soi(parts)
        want = soi(parts)
        names = list_segments(backend._token)
        calls = []

        def counted(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counted(ShmPool, "create")
        counted(shm_mod, "_attach_untracked")
        got = soi(parts)
        assert calls == []
        assert list_segments(backend._token) == names
        assert all(np.array_equal(a, b) for a, b in zip(want, got))

    def test_worker_mappings_equal_after_job_3_and_job_30(self, backend):
        x = np.zeros(4096)
        counts = [backend.run(mapping_count_prog, [(x, backend._token)] * P,
                              result_spec=((1,), np.float64))
                  for _ in range(30)]
        assert [int(y[0]) for y in counts[2]] \
            == [int(y[0]) for y in counts[29]]

    # what a worker has mapped once warm: the heartbeat (its own mapping
    # and the parent's, inherited through fork), its own outbox, one
    # generation per peer outbox, the inputs and the result slots
    CURRENT = 2 + 1 + (P - 1) + 1 + 1

    def test_worker_mappings_bounded_while_arenas_grow(self):
        with ProcessBackend(P) as be:
            counts = grown_mapping_counts(be)
        assert max(counts) <= self.CURRENT + 1

    def test_skipping_rule_2_breaks_the_bound(self, monkeypatch):
        # workers fork after the patch: no pool drops an older generation
        monkeypatch.setattr(shm_mod, "_arena_of", lambda name: "")
        with ProcessBackend(P) as be:
            counts = grown_mapping_counts(be)
        assert max(counts) > self.CURRENT + 1


class TestProcessBackendTelemetry:
    def test_wall_clock_lands_in_trace_and_metrics(self, backend):
        jobs = backend.metrics.counter("repro_backend_jobs_total")
        wall = backend.metrics.counter("repro_backend_wall_seconds_total")
        jobs_before, wall_before = jobs.value, wall.value
        n_events = len(backend.trace.events)
        params = soi_params(2 ** 12)
        spmd_soi_fft(SimCluster(P), params, signal(params.n),
                     backend=backend)
        assert jobs.value == jobs_before + 1
        assert wall.value > wall_before
        new = backend.trace.events[n_events:]
        assert {e.rank for e in new} == set(range(P))
        assert any(e.category == "mpi" for e in new)
        assert any(e.category == "compute" for e in new)
