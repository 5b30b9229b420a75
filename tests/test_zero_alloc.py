"""Workspace aliasing, reuse, and zero-allocation contracts.

The planned execution layer promises: (a) repeated calls of one plan
return independent results, (b) ``out=`` may alias the input or previous
results safely, (c) ``complex64`` stays ``complex64`` end-to-end, and
(d) the steady-state planned loop performs no new large allocations —
asserted here with ``tracemalloc`` (``bench/e2e`` reports the same
quantity as ``soi_single.steady_alloc_kb``).
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import cpupool
from repro.core.convolution import ConvWorkspace, block_range_for_rows, convolve
from repro.core.params import SoiParams
from repro.core.soi_single import SoiFFT
from repro.fft import cache_clear, cache_info, get_plan
from repro.fft.bluestein import BluesteinPlan
from repro.fft.stockham import StockhamPlan
from tests.conftest import random_complex

LARGE = 1 << 20  # "large allocation" threshold: 1 MiB


def distinct_bytes(arrays) -> int:
    """Bytes of the distinct base buffers behind *arrays*."""
    bases = {}
    for a in arrays:
        base = a if a.base is None else a.base
        bases[id(base)] = base.nbytes
    return sum(bases.values())


def peak_new_bytes(fn, warmup=2, reps=3):
    """Peak newly-allocated bytes during *reps* steady-state calls of fn."""
    for _ in range(warmup):
        fn()
    tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for _ in range(reps):
            fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - baseline


class TestPlanIndependence:
    @pytest.mark.parametrize("n", [64, 96, 105])
    def test_two_calls_return_independent_results(self, rng, n):
        plan = StockhamPlan(n)
        x1, x2 = random_complex(rng, n), random_complex(rng, n)
        y1 = plan(x1)
        y1_copy = y1.copy()
        y2 = plan(x2)
        assert not np.may_share_memory(y1, y2)
        assert np.array_equal(y1, y1_copy)  # second call didn't clobber
        assert np.allclose(y1, np.fft.fft(x1))
        assert np.allclose(y2, np.fft.fft(x2))

    def test_result_never_aliases_pool(self, rng):
        plan = StockhamPlan(128)
        y = plan(random_complex(rng, 128))
        for bufs in plan._pool.values():
            for buf in bufs:
                if buf is not None:
                    assert not np.may_share_memory(y, buf)

    def test_input_is_not_modified(self, rng):
        plan = StockhamPlan(256)
        x = random_complex(rng, 256)
        x_copy = x.copy()
        plan(x)
        assert np.array_equal(x, x_copy)


class TestOutParameter:
    @pytest.mark.parametrize("n", [64, 105])
    def test_out_is_returned_and_correct(self, rng, n):
        plan = StockhamPlan(n)
        x = random_complex(rng, n)
        out = np.empty(n, dtype=np.complex128)
        res = plan(x, out=out)
        assert res is out
        assert np.allclose(out, np.fft.fft(x))

    def test_out_may_alias_input(self, rng):
        plan = StockhamPlan(128)
        x = random_complex(rng, 128)
        ref = np.fft.fft(x)
        res = plan(x, out=x)  # fully in-place transform
        assert res is x
        assert np.allclose(x, ref)

    def test_out_may_be_previous_result(self, rng):
        plan = StockhamPlan(64)
        x1, x2 = random_complex(rng, 64), random_complex(rng, 64)
        buf = plan(x1)
        res = plan(x2, out=buf)
        assert res is buf
        assert np.allclose(buf, np.fft.fft(x2))

    def test_batched_out(self, rng):
        plan = StockhamPlan(64)
        x = random_complex(rng, 5, 64)
        out = np.empty((5, 64), dtype=np.complex128)
        assert plan(x, out=out) is out
        assert np.allclose(out, np.fft.fft(x, axis=-1))

    def test_inverse_scaling_lands_in_out(self, rng):
        plan = StockhamPlan(64, sign=+1)
        x = random_complex(rng, 64)
        out = np.empty(64, dtype=np.complex128)
        plan(x, out=out)
        assert np.allclose(out, np.fft.ifft(x))

    def test_rejects_bad_out(self, rng):
        plan = StockhamPlan(64)
        x = random_complex(rng, 64)
        with pytest.raises(ValueError, match="shape"):
            plan(x, out=np.empty(32, dtype=np.complex128))
        with pytest.raises(ValueError, match="dtype"):
            plan(x, out=np.empty(64, dtype=np.complex64))
        with pytest.raises(ValueError, match="contiguous"):
            plan(x, out=np.empty((64, 2), dtype=np.complex128)[:, 0])

    def test_bluestein_out_and_alias(self, rng):
        plan = BluesteinPlan(101)
        x = random_complex(rng, 101)
        ref = np.fft.fft(x)
        out = np.empty(101, dtype=np.complex128)
        assert plan(x, out=out) is out
        assert np.allclose(out, ref)
        assert plan(x, out=x) is x
        assert np.allclose(x, ref)

    def test_bluestein_workspace_reuse_is_clean(self, rng):
        # the padded chirp buffer is repurposed by the inverse pass; a
        # second call must re-zero the tail or the spectrum is corrupted
        plan = BluesteinPlan(37)
        x = random_complex(rng, 37)
        first = plan(x)
        second = plan(x)
        assert np.allclose(first, second)
        assert np.allclose(second, np.fft.fft(x))


class TestComplex64EndToEnd:
    def test_stockham_out_keeps_dtype(self, rng):
        plan = StockhamPlan(128, dtype=np.complex64)
        x = random_complex(rng, 128).astype(np.complex64)
        out = np.empty(128, dtype=np.complex64)
        res = plan(x, out=out)
        assert res.dtype == np.complex64
        assert np.allclose(res, np.fft.fft(x.astype(np.complex128)),
                           rtol=1e-4, atol=1e-3)

    def test_soi_batch_keeps_dtype(self, rng):
        params = SoiParams(n=8 * 448, n_procs=1, segments_per_process=8,
                           n_mu=8, d_mu=7, b=48)
        f = SoiFFT(params, dtype=np.complex64)
        xs = random_complex(rng, 3, params.n).astype(np.complex64)
        ys = f.batch(xs)
        assert ys.dtype == np.complex64
        ref = np.fft.fft(xs.astype(np.complex128), axis=1)
        scale = np.linalg.norm(ref)
        assert np.linalg.norm(ys - ref) / scale < 1e-3


class TestSoiPlannedExecution:
    @pytest.fixture(scope="class")
    def soi(self):
        params = SoiParams(n=8 * 448, n_procs=1, segments_per_process=8,
                           n_mu=8, d_mu=7, b=48)
        return SoiFFT(params)

    def test_out_matches_plain_call(self, rng, soi):
        x = random_complex(rng, soi.params.n)
        out = np.empty(soi.params.n, dtype=np.complex128)
        assert soi(x, out=out) is out
        assert np.allclose(out, soi(x))

    def test_batch_matches_per_row(self, rng, soi):
        xs = random_complex(rng, 4, soi.params.n)
        batched = soi.batch(xs)
        for i in range(4):
            assert np.allclose(batched[i], soi(xs[i]), rtol=1e-10, atol=1e-10)

    def test_batch_out(self, rng, soi):
        xs = random_complex(rng, 3, soi.params.n)
        out = np.empty_like(xs)
        assert soi.batch(xs, out=out) is out
        assert np.allclose(out, soi.batch(xs))

    def test_two_calls_independent(self, rng, soi):
        x1, x2 = (random_complex(rng, soi.params.n) for _ in range(2))
        y1 = soi(x1)
        y1_copy = y1.copy()
        soi(x2)
        assert np.array_equal(y1, y1_copy)

    def test_release_workspaces(self, rng, soi):
        soi(random_complex(rng, soi.params.n))
        assert soi.workspace_bytes() > 0
        soi.release_workspaces()
        assert soi.workspace_bytes() == 0

    def test_release_workspaces_with_a_bluestein_segment_plan(self, rng):
        # M' = 88 is not (2,3,5,7)-smooth: the segment FFT is chirp-z
        params = SoiParams(n=8 * 77, n_procs=1, segments_per_process=8,
                           n_mu=8, d_mu=7, b=16)
        f = SoiFFT(params)
        x = random_complex(rng, params.n)
        ref = np.fft.fft(x)
        assert (np.linalg.norm(f(x) - ref)
                < 10 * f.expected_stopband * np.linalg.norm(ref))
        assert f.workspace_bytes() > f._conv_ws.nbytes() + sum(
            b.nbytes for b in f._bufpool[1].values())
        f.release_workspaces()
        assert f.workspace_bytes() == 0


class TestWorkspacesFollowTheWork:
    """The kernel workspaces live on whichever threads ran the stages;
    ``workspace_bytes`` / ``release_workspaces`` cover all of them."""

    def test_release_after_a_pooled_call(self, rng):
        # 1 MiB of stage buffer a frame: shared out wherever there is a pool
        params = SoiParams(n=7 * 2 ** 13, n_procs=1, segments_per_process=8,
                           n_mu=8, d_mu=7, b=48)
        f = SoiFFT(params)
        x = random_complex(rng, params.n)
        out = np.empty_like(x)
        f.release_workspaces()  # the cached FFT plans are shared: start cold
        want = f(x).copy()
        held = f.workspace_bytes()
        if f._parts(1) > 1:
            # the tiles and the ping-pong pairs are the workers', not ours
            assert f._held() == 0
            assert sum(cpupool.on_each(f._held)) > LARGE
        f.release_workspaces()
        assert f.workspace_bytes() == 0
        assert sum(cpupool.on_each(f._held)) == 0
        # the next call re-allocates everything once, then nothing
        assert peak_new_bytes(lambda: f(x, out=out), warmup=0, reps=1) > LARGE
        assert f.workspace_bytes() == held
        assert peak_new_bytes(lambda: f(x, out=out), warmup=0) < LARGE
        assert np.array_equal(out, want)

    def test_release_after_a_frame_major_batch(self, rng):
        # each worker runs its blocks through stage buffers of its own
        params = SoiParams(n=7168, n_procs=1, segments_per_process=8,
                           n_mu=8, d_mu=7, b=48)
        f = SoiFFT(params)
        xs = random_complex(rng, 64, params.n)
        want = f.batch(xs)

        def blocks():  # two stage arenas alias: each base buffer once
            return distinct_bytes(b for bufs in f._local.__dict__.values()
                                  for b in bufs.values())

        def kernels():
            return f._conv_ws.nbytes() + sum(
                plan.workspace_bytes() for plan in (f._seg_plan, f._lane_plan)
                if plan is not None)
        held = cpupool.on_each(blocks)
        if cpupool.size() > 1:
            assert held[0] == 0 and any(held[1:]) and not f._bufpool
        shared = distinct_bytes(b for bufs in f._bufpool.values()
                                for b in bufs.values())
        assert f.workspace_bytes() == shared + sum(held) + sum(
            cpupool.on_each(kernels))
        f.release_workspaces()
        assert f.workspace_bytes() == 0
        assert sum(cpupool.on_each(blocks)) == 0
        assert np.array_equal(f.batch(xs), want)


class TestConvolveWorkspace:
    def test_workspace_reuse_same_result(self, rng):
        p = SoiParams(n=8 * 448, n_procs=1, segments_per_process=8,
                      n_mu=8, d_mu=7, b=48)
        f = SoiFFT(p)
        lo, hi = block_range_for_rows(p, 0, p.m_oversampled)
        s = p.n_segments
        x = random_complex(rng, p.n)
        x_ext = x[np.arange(lo * s, hi * s) % p.n]
        ws = ConvWorkspace()
        ref = convolve(x_ext, f.tables, 0, p.m_oversampled, lo)
        first = convolve(x_ext, f.tables, 0, p.m_oversampled, lo,
                         workspace=ws)
        held = ws.nbytes()
        # a sub-range restages into the same (params-shaped) tiles
        half = p.m_oversampled // 2
        part = convolve(x_ext, f.tables, 0, half, lo, workspace=ws)
        again = convolve(x_ext, f.tables, 0, p.m_oversampled, lo,
                         workspace=ws)
        assert np.array_equal(first, ref)
        assert np.array_equal(again, ref)
        assert np.array_equal(part, ref[:half])
        assert ws.nbytes() == held
        assert ws.nbytes() > 0
        ws.clear()
        assert ws.nbytes() == 0


class TestUnifiedPlanCache:
    def test_cache_info_counts(self):
        cache_clear()
        before = cache_info()
        get_plan(2 ** 10)
        get_plan(2 ** 10)
        after = cache_info()
        assert after.misses == before.misses + 1
        assert after.hits >= before.hits + 1

    def test_fft_stockham_shares_cache(self, rng):
        from repro.fft.stockham import fft_stockham

        cache_clear()
        plan = get_plan(512, -1)
        x = random_complex(rng, 512)
        assert np.allclose(fft_stockham(x), np.fft.fft(x))
        # the wrapper hit the same cached plan rather than building its own
        assert get_plan(512, -1) is plan
        assert cache_info().currsize >= 1

    def test_dtype_aware(self):
        assert get_plan(64, -1, np.complex64) is not get_plan(64, -1)

    def test_cache_clear_resets(self):
        get_plan(2 ** 9)
        cache_clear()
        assert cache_info().currsize == 0

    def test_fft_stockham_rejects_non_smooth(self, rng):
        from repro.fft.stockham import fft_stockham

        with pytest.raises(ValueError, match="smooth"):
            fft_stockham(random_complex(rng, 22))


class TestNoLargeAllocations:
    """tracemalloc: steady-state planned execution stays allocation-free."""

    def test_stockham_steady_state(self, rng):
        n = 2 ** 15
        plan = StockhamPlan(n)
        x = random_complex(rng, n)
        out = np.empty(n, dtype=np.complex128)
        assert peak_new_bytes(lambda: plan(x, out=out)) < LARGE

    def test_stockham_batched_steady_state(self, rng):
        plan = StockhamPlan(4096)
        x = random_complex(rng, 16, 4096)
        out = np.empty((16, 4096), dtype=np.complex128)
        assert peak_new_bytes(lambda: plan(x, out=out)) < LARGE

    @pytest.mark.parametrize("n", [12288, 105 * 64])
    def test_stockham_mixed_radix_steady_state(self, rng, n):
        # an odd factor runs the same planned kernel as a power of two:
        # no per-call butterfly matrix, no einsum/tensordot temporaries
        # (3 MiB per call at 12288 x 8 before the pass was one matmul)
        plan = StockhamPlan(n)
        x = random_complex(rng, 8, n)
        out = np.empty((8, n), dtype=np.complex128)
        assert peak_new_bytes(lambda: plan(x, out=out)) < LARGE
        assert np.allclose(out, np.fft.fft(x, axis=-1))

    def test_soi_batch_steady_state(self, rng):
        # sized so ONE row of any stage buffer is ~1 MiB: a single stray
        # temporary in batch(), __call__ or convolve trips the threshold
        params = SoiParams(n=7 * 2 ** 13, n_procs=1, segments_per_process=8,
                           n_mu=8, d_mu=7, b=48)
        f = SoiFFT(params)
        xs = random_complex(rng, 4, params.n)
        out = np.empty_like(xs)
        assert peak_new_bytes(lambda: f.batch(xs, out=out)) < LARGE
        assert peak_new_bytes(lambda: f(xs[0], out=out[0])) < LARGE
        lo, _ = block_range_for_rows(params, 0, params.m_oversampled)
        x_ext, ws = f.extended_input(xs[0]), ConvWorkspace()
        u = np.empty((params.m_oversampled, params.n_segments), complex)
        assert peak_new_bytes(lambda: convolve(
            x_ext, f.tables, 0, params.m_oversampled, lo, out=u,
            workspace=ws)) < LARGE

    def test_soi_frame_major_batch_steady_state(self, rng):
        # 2.5 MiB of stage buffer a frame, one frame a block: each worker
        # runs equal blocks through its own stage buffers, and a worker
        # that re-allocated them would trip the threshold
        params = SoiParams(n=7 * 2 ** 12, n_procs=1, segments_per_process=8,
                           n_mu=8, d_mu=7, b=48)
        f = SoiFFT(params)
        xs = random_complex(rng, 4, params.n)
        out = np.empty_like(xs)
        for _ in range(50):  # until every worker has claimed a block
            f.batch(xs, out=out)
            if all(cpupool.on_each(lambda: bool(f._local.__dict__))[1:]):
                break
        assert peak_new_bytes(lambda: f.batch(xs, out=out)) < LARGE
        assert np.array_equal(out, f.batch(xs))


def keep_the_bound_state(monkeypatch) -> None:
    """Mutant of ``ConvWorkspace.clear`` and ``unplan``: the buffers go,
    what was planned over them (bound views of them and of the stage
    buffers) stays."""
    def clear(self):
        mine = self._local.__dict__
        plans = mine.get("plans")
        mine.clear()
        if plans is not None:
            mine["plans"] = plans
    monkeypatch.setattr(ConvWorkspace, "clear", clear)
    monkeypatch.setattr(ConvWorkspace, "unplan", lambda self: None)


def buffers_alive_after_release(f: SoiFFT, xs) -> list:
    """Run one call, take weak references to the buffers its bound state
    views — the stage buffer ``alpha`` and the segment FFT's alternate in
    the workspace — release the plan's workspaces, collect, and return
    which of them are still alive (``workspace_bytes()`` must read 0)."""
    import gc
    import weakref
    f.batch(xs)
    alpha = f._bufpool[len(xs)]["alpha"]
    alt = next(b for (name, *_), b in f._conv_ws._local.__dict__[
        "bufs"].items() if name == "segment fft 1")
    refs = {"alpha": weakref.ref(alpha), "fft alternate": weakref.ref(alt)}
    del alpha, alt
    f.release_workspaces()
    assert f.workspace_bytes() == 0
    gc.collect()
    return [name for name, ref in refs.items() if ref() is not None]


def alpha_kept_by_another_thread() -> bool:
    """Whether ``alpha`` outlives ``release_workspaces()`` on this thread
    after a live thread outside the pool ran the plan."""
    import gc
    import weakref
    from concurrent.futures import ThreadPoolExecutor
    params = SoiParams(n=896, n_procs=1, segments_per_process=8,
                       n_mu=5, d_mu=4, b=48)
    f = SoiFFT(params)
    with ThreadPoolExecutor(1) as other:
        other.submit(f.batch, np.ones((1, params.n), dtype=complex)).result()
        alpha = weakref.ref(f._bufpool[1]["alpha"])
        f.release_workspaces()
        gc.collect()
        return alpha() is not None


class TestReleaseDropsTheBoundState:
    """``release_workspaces()`` drops every view a planned call bound with
    the buffers it views: nothing stays alive that ``workspace_bytes()``
    does not count."""

    def test_no_bound_buffer_survives_a_release(self, rng):
        params = SoiParams(n=896, n_procs=1, segments_per_process=8,
                           n_mu=5, d_mu=4, b=48)
        f = SoiFFT(params)
        assert buffers_alive_after_release(
            f, random_complex(rng, 2, params.n)) == []

    def test_a_release_drops_what_another_thread_planned(self):
        # a gateway's executor thread, say: not a pool worker, so its own
        # workspace is its to release, but its views of the shared stage
        # buffer must go with the buffer
        assert not alpha_kept_by_another_thread()

    def test_the_other_thread_check_can_fail(self, monkeypatch):
        monkeypatch.setattr(ConvWorkspace, "unplan", lambda self: None)
        assert alpha_kept_by_another_thread()

    def test_the_check_can_fail(self, rng, monkeypatch):
        keep_the_bound_state(monkeypatch)
        params = SoiParams(n=896, n_procs=1, segments_per_process=8,
                           n_mu=5, d_mu=4, b=48)
        f = SoiFFT(params)
        assert buffers_alive_after_release(
            f, random_complex(rng, 2, params.n)) == ["alpha", "fft alternate"]


def alpha_outlives_its_plan() -> bool:
    """Whether a dropped plan's stage buffer outlives it with the cyclic
    collector off: what it binds must free by reference counting, or
    every plan a process drops holds its buffers until a collection (a
    bench/e2e workload that builds five plans peaked 40 % higher)."""
    import gc
    import weakref
    params = SoiParams(n=7168, n_procs=1, segments_per_process=8,
                       n_mu=8, d_mu=7, b=48)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        f = SoiFFT(params)
        f(np.ones(params.n, dtype=complex))
        alpha = weakref.ref(f._bufpool[1]["alpha"])
        del f
        return alpha() is not None
    finally:
        if was_enabled:
            gc.enable()


class TestADroppedPlanFreesItsBuffers:
    def test_by_reference_counting(self):
        assert not alpha_outlives_its_plan()

    def test_the_check_can_fail(self, monkeypatch):
        # mutant: a tile walk holds its workspace, which holds the walk
        from repro.core.convolution import TileWalk
        real = TileWalk.__init__

        def holding(self, tables, nblocks, j_start, block_lo, out,
                    workspace, **kwargs):
            real(self, tables, nblocks, j_start, block_lo, out, workspace,
                 **kwargs)
            self._workspace = workspace
        monkeypatch.setattr(TileWalk, "__init__", holding)
        assert alpha_outlives_its_plan()
