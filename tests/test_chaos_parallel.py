"""Process-level chaos soak: seeded kills/stalls of real workers.

The tentpole guarantee under test: whatever a seeded
:class:`~repro.cluster.faults.ProcessFaultPlan` does to the worker
processes mid-collective — SIGKILL, SIGSTOP with or without a resume,
starved ranks — the parallel SOI transform either finishes
transparently or completes via shrink-and-redistribute recovery, and
the output is *bit-for-bit* identical to the fault-free run.  Every
scenario also asserts shared-memory hygiene: after ``close()`` not one
``/dev/shm`` segment of the backend's namespace survives.
"""

import numpy as np
import pytest

from repro.cluster.backends import ProcessBackend
from repro.cluster.faults import ProcessFault, ProcessFaultPlan
from repro.cluster.shm import list_segments
from repro.cluster.simcluster import SimCluster
from repro.core.params import SoiParams
from repro.core.soi_spmd import spmd_soi_fft

pytestmark = [pytest.mark.parallel, pytest.mark.chaos_parallel]


def soi_params(n, n_procs):
    return SoiParams(n=n, n_procs=n_procs, segments_per_process=2,
                     n_mu=5, d_mu=4, b=48)


def signal(n, seed=2013):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


_REFERENCE: dict = {}  # (n, P) -> fault-free spectrum, computed once


def reference(params, x, n_procs):
    key = (params.n, n_procs)
    if key not in _REFERENCE:
        _REFERENCE[key] = spmd_soi_fft(SimCluster(n_procs), params, x)
    return _REFERENCE[key]


def run_chaos(n_procs, plan, hang_timeout=1.2):
    """One chaotic transform; returns (fault-free ref, chaotic out, backend
    state tuple) and asserts shm hygiene on the way out."""
    params = soi_params(2 ** 12, n_procs)
    x = signal(params.n)
    want = reference(params, x, n_procs)
    be = ProcessBackend(n_procs, hang_timeout=hang_timeout)
    token = be._token
    try:
        be.inject(plan)
        got = spmd_soi_fft(SimCluster(n_procs), params, x, backend=be)
        state = (be.last_failure, be.last_recovery, be.last_mttr_s)
    finally:
        be.close()
    assert list_segments(token) == [], "leaked /dev/shm segments"
    return want, got, state


class TestSeededSoak:
    """seed x worker-count matrix of randomized kill/stall schedules."""

    @pytest.mark.parametrize("n_procs", [2, 4])
    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_random_kills_recover_bitwise(self, seed, n_procs):
        # collectives 0 (halo ring) and 1 (the all-to-all) always run;
        # higher indices would leave the kill unfired on small programs
        plan = ProcessFaultPlan.random(seed, n_procs, n_kills=1,
                                       max_collective=1, min_survivors=1)
        want, got, (failure, recovery, mttr) = run_chaos(n_procs, plan)
        assert np.array_equal(want, got)
        assert plan.injected.get("kill", 0) == 1
        assert failure is not None and len(failure.dead) == 1
        assert recovery is not None
        assert recovery.dead_ranks == failure.dead
        assert recovery.n_live == n_procs - 1
        assert mttr is not None and mttr >= 0.0

    @pytest.mark.parametrize("seed", [3, 19])
    def test_random_stall_with_resume_is_transparent(self, seed):
        plan = ProcessFaultPlan.random(seed, 4, n_stalls=1,
                                       max_collective=1,
                                       stall_for_s=0.3)
        want, got, (_failure, recovery, _mttr) = run_chaos(4, plan)
        assert np.array_equal(want, got)
        assert plan.injected.get("stall", 0) == 1
        assert recovery is None  # resumed in time: no recovery ran

    @pytest.mark.parametrize("seed", [5, 29])
    def test_random_stall_without_resume_recovers(self, seed):
        plan = ProcessFaultPlan.random(seed, 4, n_stalls=1,
                                       max_collective=1,
                                       stall_for_s=None)
        want, got, (failure, recovery, _mttr) = run_chaos(4, plan)
        assert np.array_equal(want, got)
        assert failure is not None and failure.hung == failure.dead
        assert recovery is not None

    def test_kill_and_delay_together(self):
        plan = ProcessFaultPlan.random(11, 4, n_kills=1, n_delays=1,
                                       max_collective=1, delay_s=0.2,
                                       min_survivors=2)
        want, got, (_failure, recovery, _mttr) = run_chaos(4, plan)
        assert np.array_equal(want, got)
        assert recovery is not None

    def test_double_kill_same_collective(self):
        plan = ProcessFaultPlan([
            ProcessFault("kill", rank=0, at=1),
            ProcessFault("kill", rank=3, at=1)])
        want, got, (failure, recovery, _mttr) = run_chaos(4, plan)
        assert np.array_equal(want, got)
        assert set(recovery.dead_ranks) == {0, 3}
        assert recovery.n_live == 2

    def test_repeated_chaos_on_one_backend(self):
        """Elasticity proper: one backend survives a whole campaign of
        failures, recovering each time, and stays bit-identical."""
        n_procs = 4
        params = soi_params(2 ** 12, n_procs)
        x = signal(params.n)
        want = reference(params, x, n_procs)
        be = ProcessBackend(n_procs, hang_timeout=1.2)
        token = be._token
        try:
            for round_, rank in enumerate((2, 0, 3)):
                be.inject(ProcessFaultPlan([
                    ProcessFault("kill", rank=rank,
                                 at=round_ % 2)]))
                got = spmd_soi_fft(SimCluster(n_procs), params, x,
                                   backend=be)
                assert np.array_equal(want, got), f"round {round_}"
                assert be.last_recovery.dead_ranks == (rank,)
            be.inject(None)
            got = spmd_soi_fft(SimCluster(n_procs), params, x, backend=be)
            assert np.array_equal(want, got)
            assert be.live_workers() == list(range(n_procs))
        finally:
            be.close()
        assert list_segments(token) == []
