"""Fork/spawn safety of the process-wide caches (plan cache, wisdom,
design records) and of the per-cpu worker pool.

The process backend forks workers that immediately hammer ``get_plan``
and the wisdom store.  A lock or cache object inherited from the parent
in a surprising state (held lock, parent's hit counters) must not leak
into the child: both caches detect the PID change and start fresh.  The
design records (``get_tables``) are the opposite case: immutable and
behind no lock, so a worker keeps what it inherited.  The worker pool
(``core.cpupool``) is threads, which a fork does not copy: a child that
finds its parent's pool must start its own.
"""

import hashlib
import multiprocessing
import os
import pickle
import queue

import numpy as np
import pytest

from repro.cluster.backends import ProcessBackend
from repro.cluster.simcluster import SimCluster
from repro.core import cpupool
from repro.core import soi_dist as soi_dist_mod
from repro.core import window as window_mod
from repro.core.params import SoiParams
from repro.core.soi_dist import DistributedSoiFFT
from repro.core.soi_single import SoiFFT
from repro.fft import plan as plan_mod
from repro.fft.plan import fft, get_plan
from repro.fft.wisdom import Wisdom

pytestmark = pytest.mark.parallel


def _child_probe(q):
    """Runs in a forked child: report the inherited cache's view."""
    info = plan_mod.cache_info()  # first touch runs the PID guard
    p = get_plan(64, -1)
    x = np.arange(64, dtype=np.complex128)
    q.put({
        "currsize_at_entry": info.currsize,
        "fft_ok": bool(np.allclose(p(x), np.fft.fft(x))),
    })


def _wisdom_child(q, wisdom):
    q.put(wisdom.lookup_kernel(64, -1, "complex128"))


class TestPlanCacheForkSafety:
    def test_child_starts_with_fresh_cache(self):
        plan_mod.cache_clear()
        get_plan(256, -1)
        get_plan(512, -1)
        assert plan_mod.cache_info().currsize == 2
        ctx = multiprocessing.get_context("fork")
        q = ctx.Queue()
        proc = ctx.Process(target=_child_probe, args=(q,))
        proc.start()
        child = q.get(timeout=30)
        proc.join(timeout=30)
        assert proc.exitcode == 0
        # the PID guard dropped the parent's entries on first touch
        assert child["currsize_at_entry"] == 0
        assert child["fft_ok"]
        # and the parent's cache is untouched by the child's activity
        assert plan_mod.cache_info().currsize == 2

    def test_cache_info_is_functools_compatible(self):
        plan_mod.cache_clear()
        info0 = plan_mod.cache_info()
        assert (info0.hits, info0.misses, info0.currsize) == (0, 0, 0)
        get_plan(128, -1)
        get_plan(128, -1)
        info = plan_mod.cache_info()
        assert info.misses == 1 and info.hits == 1
        assert info.currsize == 1 and info.maxsize >= info.currsize

    def test_cache_reuse_and_eviction_bound(self):
        plan_mod.cache_clear()
        assert get_plan(64, -1) is get_plan(64, -1)
        for k in range(plan_mod._MAXSIZE + 8):
            get_plan(16 + 2 * k, -1)
        assert plan_mod.cache_info().currsize <= plan_mod._MAXSIZE

    def test_threaded_hammer_returns_consistent_plans(self):
        import threading
        plan_mod.cache_clear()
        got = [None] * 8

        def worker(i):
            got[i] = get_plan(1024, -1)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(g is got[0] for g in got)
        x = np.random.default_rng(0).standard_normal(1024).astype(complex)
        assert np.allclose(got[0](x), np.fft.fft(x))


class TestWisdomForkSafety:
    def test_wisdom_pickles_without_its_lock(self):
        w = Wisdom()
        entry = w.record_kernel(64, -1, "complex128", "m", "stockham", [8, 8])
        clone = pickle.loads(pickle.dumps(w))
        # the recorded entry survived the trip
        assert clone.lookup_kernel(64, -1, "complex128") == entry
        # the clone got a working lock of its own
        with clone._guard():
            pass

    def test_wisdom_usable_after_fork(self):
        w = Wisdom()
        entry = w.record_kernel(64, -1, "complex128", "m", "stockham", [8, 8])
        ctx = multiprocessing.get_context("fork")
        q = ctx.Queue()
        proc = ctx.Process(target=_wisdom_child, args=(q, w))
        proc.start()
        assert q.get(timeout=30) == entry
        proc.join(timeout=30)
        assert proc.exitcode == 0


class TestFftStillCorrectAfterClear:
    def test_fft_after_cache_clear(self):
        plan_mod.cache_clear()
        x = np.random.default_rng(1).standard_normal(96) * 1j
        assert np.allclose(fft(x), np.fft.fft(x))


class TestDesignRecordForkInheritance:
    """Workers forked after the driver was built run on the parent's
    record: the builder never runs in a child."""

    @pytest.fixture
    def builder_is_the_parents(self, monkeypatch):
        me, real = os.getpid(), window_mod.build_tables

        def parent_only(params, window=None):
            if os.getpid() != me:
                raise RuntimeError("a worker rebuilt the design record")
            return real(params, window)
        monkeypatch.setattr(window_mod, "build_tables", parent_only)
        plan_mod.cache_clear()
        return me

    @staticmethod
    def run_on_two_workers():
        params = SoiParams(n=2 ** 12, n_procs=2, segments_per_process=2,
                           n_mu=5, d_mu=4, b=48)
        rng = np.random.default_rng(22)
        x = rng.standard_normal(params.n) + 1j * rng.standard_normal(params.n)
        serial = DistributedSoiFFT(SimCluster(2), params)
        parts = serial.scatter(x)
        with ProcessBackend(2) as be:
            real = DistributedSoiFFT(SimCluster(2), params, backend=be)
            assert real.tables is serial.tables
            for _ in range(2):  # second job: the worker's own cache
                got = real(parts)
        return serial(parts), got

    def test_workers_inherit_the_record(self, builder_is_the_parents):
        want, got = self.run_on_two_workers()
        assert all(np.array_equal(a, b) for a, b in zip(want, got))

    def test_a_pid_guard_would_make_them_rebuild(self, builder_is_the_parents,
                                                 monkeypatch):
        me, real = builder_is_the_parents, window_mod.get_tables

        def pid_guarded(params, window=None):
            if os.getpid() != me:
                window_mod._records.clear()
            return real(params, window)
        monkeypatch.setattr(soi_dist_mod, "get_tables", pid_guarded)
        with pytest.raises(RuntimeError, match="rebuilt the design record"):
            self.run_on_two_workers()


# -- the worker pool: threads do not survive a fork --------------------------

#: one frame is 1 MiB of stage buffer: shared out wherever there is a pool
POOLED = SoiParams(n=7 * 2 ** 13, n_procs=1, segments_per_process=8,
                   n_mu=8, d_mu=7, b=48)


def _pooled_call(x) -> dict:
    """One ``SoiFFT`` call and who ran it, as seen from this process."""
    mask = sorted(os.sched_getaffinity(0))
    y = SoiFFT(POOLED)(x)
    return {"digest": hashlib.sha1(y.tobytes()).hexdigest(),
            "mask": mask, "workers": cpupool.size()}


def _pooled_child(q, x, guarded):
    if not guarded:
        # mutant: no pid guard — the parent's pool looks like ours
        cpupool._pid = os.getpid()
    q.put(_pooled_call(x))


def _pooled_program(ctx, x):
    """A rank that runs a single-node plan of its own."""
    return _pooled_call(x)
    yield  # the backend runs generator programs only


class TestWorkerPoolForkSafety:
    @pytest.fixture
    def parent(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal(POOLED.n) + 1j * rng.standard_normal(POOLED.n)
        return x, _pooled_call(x)  # the parent's pool is up before any fork

    @staticmethod
    def forked(x, guarded, timeout):
        ctx = multiprocessing.get_context("fork")
        q = ctx.Queue()
        proc = ctx.Process(target=_pooled_child, args=(q, x, guarded))
        proc.start()
        try:
            return q.get(timeout=timeout)
        finally:
            proc.kill()
            proc.join(timeout=30)

    def check_child(self, child, parent):
        assert child["digest"] == parent["digest"]
        # the forking thread was never bound, so neither is the child —
        # and it has as many workers of its own as the parent
        assert child["mask"] == parent["mask"]
        assert child["workers"] == parent["workers"]

    def test_a_forked_child_starts_its_own_pool(self, parent):
        x, mine = parent
        assert mine["mask"] == sorted(os.sched_getaffinity(0))
        self.check_child(self.forked(x, guarded=True, timeout=60), mine)

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="1 cpu")
    def test_without_the_pid_guard_the_child_hangs(self, parent):
        # the gate can go red: its slices wait in the inboxes of threads
        # that only exist in the parent
        with pytest.raises(queue.Empty):
            self.forked(parent[0], guarded=False, timeout=3)

    def test_a_process_backend_worker_starts_its_own_pool(self, parent):
        x, mine = parent
        with ProcessBackend(1) as be:
            for _ in range(2):  # second job: the worker's pool, reused
                (child,) = be.run(_pooled_program, [(x,)], label="pooled")
                self.check_child(child, mine)
