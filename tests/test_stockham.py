"""Tests for the batched Stockham FFT engine."""

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.fft.bitops import _TILE_MACS, default_radices, gemm_tile
from repro.fft import stockham
from repro.fft.dft import dft
from repro.fft.stockham import StockhamPlan, fft_flops, fft_stockham, stage_count
from tests.conftest import random_complex


class TestForwardCorrectness:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32, 128, 1024, 4096])
    def test_pow2_matches_numpy(self, rng, n):
        x = random_complex(rng, n)
        assert np.allclose(fft_stockham(x), np.fft.fft(x))

    @pytest.mark.parametrize("n", [3, 5, 6, 7, 9, 12, 15, 21, 35, 60, 105, 210])
    def test_smooth_matches_numpy(self, rng, n):
        x = random_complex(rng, n)
        assert np.allclose(fft_stockham(x), np.fft.fft(x))

    @pytest.mark.parametrize("n", [8, 24])
    def test_matches_naive_dft(self, rng, n):
        x = random_complex(rng, n)
        assert np.allclose(fft_stockham(x), dft(x))

    def test_batch_2d(self, rng):
        x = random_complex(rng, 5, 64)
        assert np.allclose(fft_stockham(x), np.fft.fft(x, axis=-1))

    def test_batch_3d(self, rng):
        x = random_complex(rng, 2, 3, 16)
        assert np.allclose(fft_stockham(x), np.fft.fft(x, axis=-1))

    def test_real_input_promoted(self):
        x = np.arange(8.0)
        assert np.allclose(fft_stockham(x), np.fft.fft(x))


class TestInverse:
    @pytest.mark.parametrize("n", [4, 12, 64, 135])
    def test_roundtrip(self, rng, n):
        x = random_complex(rng, n)
        assert np.allclose(fft_stockham(fft_stockham(x), sign=+1), x)

    def test_matches_numpy_ifft(self, rng):
        x = random_complex(rng, 48)
        assert np.allclose(fft_stockham(x, sign=+1), np.fft.ifft(x))


class TestPlan:
    def test_explicit_radices(self, rng):
        x = random_complex(rng, 16)
        for radices in ([2, 2, 2, 2], [4, 4], [2, 4, 2], [4, 2, 2]):
            plan = StockhamPlan(16, radices=radices)
            assert np.allclose(plan(x), np.fft.fft(x))

    def test_odd_radices(self, rng):
        x = random_complex(rng, 3 * 5 * 7)
        plan = StockhamPlan(105, radices=[3, 5, 7])
        assert np.allclose(plan(x), np.fft.fft(x))

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("sign", [-1, +1])
    @pytest.mark.parametrize("radices", [[16, 16], [32, 32], [3, 5, 7],
                                         [12, 8], [2] * 4, [4, 16, 16, 4]])
    def test_one_kernel_for_any_radices(self, rng, radices, sign, dtype):
        # dense butterflies: no radix has a path of its own, and the
        # inverse's 1/n and an ``out`` that is the input go through it too
        n = int(np.prod(radices))
        plan = StockhamPlan(n, sign=sign, radices=radices, dtype=dtype)
        x = random_complex(rng, 3, n).astype(dtype)
        wide = x.astype(np.complex128)
        ref = np.fft.fft(wide) if sign == -1 else np.fft.ifft(wide)
        # measured 9e-16 of the peak at 65536 in double, 2e-7 in single
        tol = (1e-13 if dtype == np.complex128 else 1e-5) * np.abs(ref).max()
        assert np.abs(plan(x) - ref).max() <= tol
        assert plan(x, out=x) is x
        assert np.abs(x - ref).max() <= tol

    def test_rejects_a_radix_wider_than_a_tile(self):
        with pytest.raises(ValueError, match="does not fit a GEMM tile"):
            StockhamPlan(512, radices=[256, 2])
        assert StockhamPlan(254, radices=[127, 2]).radices == [127, 2]

    def test_rejects_mismatched_radices(self):
        with pytest.raises(ValueError):
            StockhamPlan(16, radices=[2, 2])

    def test_rejects_non_smooth(self):
        with pytest.raises(ValueError):
            StockhamPlan(22)

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            StockhamPlan(8, sign=0)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            StockhamPlan(0)

    def test_rejects_wrong_length_input(self, rng):
        plan = StockhamPlan(8)
        with pytest.raises(ValueError):
            plan(random_complex(rng, 16))

    def test_flops_property(self):
        assert StockhamPlan(1024).flops == pytest.approx(5 * 1024 * 10)

    def test_input_not_mutated(self, rng):
        x = random_complex(rng, 32)
        saved = x.copy()
        fft_stockham(x)
        assert np.array_equal(x, saved)


def last_pass_writes_out(plan, x, **kw) -> bool:
    """Whether the last pass of ``plan(x, **kw)`` wrote the result array
    itself (else a pooled buffer, then one copy)."""
    dsts, real = [], plan._pass_ops

    def spy(cur, out, st, buffer):
        dsts.append(out)
        return real(cur, out, st, buffer)
    plan._pass_ops = spy
    try:
        res = plan(x, **kw)
    finally:
        del plan._pass_ops
    return np.shares_memory(dsts[-1], res)


RADICES = [[64], [16, 16], [3, 5, 7], [12, 8], [2] * 4, [4, 16, 16, 4],
           [16, 16, 14, 2], [16, 1]]


class TestOverwriteInput:
    """One schedule over two buffers: the work buffer (the input when the
    caller lends it, ``overwrite_x=True``, else a pooled one) and a pooled
    alternate — the same bits either way."""

    @pytest.mark.parametrize("sign", [-1, +1])
    @pytest.mark.parametrize("radices", RADICES)
    def test_same_bits_without_the_pair(self, rng, radices, sign):
        # the name is the one the test had when a lending call pooled no
        # ping-pong pair; now no call pools more than two buffers
        n = int(np.prod(radices))
        for dtype in DTYPES:
            plan = StockhamPlan(n, sign=sign, radices=radices, dtype=dtype)
            x = random_complex(rng, 3, n).astype(dtype)
            want = plan(x)
            # a call that keeps its input pools its own work buffer
            assert plan._pool[3][0] is not None
            plan.release_workspaces()
            out = np.empty_like(x)
            assert plan(x.copy(), out=out, overwrite_x=True) is out
            assert np.array_equal(out, want)
            # a lending call pools at most the alternate
            assert plan._pool.get(3, [None, None])[0] is None
            assert np.array_equal(plan.pooled(x), want)
            assert np.array_equal(plan.pooled(x.copy(), overwrite_x=True),
                                  want)

    def test_an_out_that_is_the_input_still_works(self, rng):
        # plan(x, out=x) copies only when its one pass reads x; lent, x is
        # also the work buffer, and the copy follows when the last pass
        # reads it
        for radices, sign, dtype, lend in itertools.product(
                RADICES, [-1, +1], DTYPES, [False, True]):
            n = int(np.prod(radices))
            plan = StockhamPlan(n, sign=sign, radices=radices, dtype=dtype)
            x = random_complex(rng, 2, n).astype(dtype)
            want = plan(x)
            direct = last_pass_writes_out(plan, x, out=x, overwrite_x=lend)
            assert np.array_equal(x, want)
            if not lend:
                assert direct == (len(radices) > 1), radices

    def test_bluestein_leaves_its_input_and_pools_no_pair(self, rng):
        from repro.fft.bluestein import BluesteinPlan
        plan = BluesteinPlan(101)
        plan.release_workspaces()  # planning ran the forward transform
        x = random_complex(rng, 101)
        saved = x.copy()
        want = plan(x, overwrite_x=True)
        assert np.allclose(want, np.fft.fft(saved))
        assert np.array_equal(x, saved)
        # its embedded plans are lent the chirp buffers: each pools only
        # its alternate
        for inner in (plan._fwd, plan._inv):
            work, alt = inner._pool[1]
            assert work is None and alt is not None
        # the pooled entry leaves the result in the spectrum buffer
        got = plan.pooled(x)
        assert np.shares_memory(got, plan._pool[1][1])
        assert np.array_equal(got, want)


class TestOneSchedule:
    def test_twiddled_passes_come_first(self, monkeypatch):
        assert StockhamPlan(4096, radices=[4, 16, 16, 4])
        real = stockham._Stage

        def twiddle_late(n, s, r, sign, dtype):
            # mutant: the fold rule inverted, so a pass with a small stride
            # folds and a later one twiddles
            monkeypatch.setattr(stockham, "_FOLD_COLUMNS",
                                1 if s < 64 else 1 << 30)
            return real(n, s, r, sign, dtype)
        monkeypatch.setattr(stockham, "_Stage", twiddle_late)
        with pytest.raises(AssertionError):
            StockhamPlan(4096, radices=[4, 16, 16, 4])

    def test_one_pass_loop(self):
        """An ``ast`` guard: ``StockhamPlan`` loops over its passes in one
        place; a second schedule (the ping-pong pair of a call that keeps
        its input, say) turns it red."""
        source = Path(stockham.__file__).read_text()
        assert pass_loops(source) == 1
        anchor = ("        cur = flat\n"
                  "        for i, st in enumerate(self._stages):")
        pair = ("        if not overwrite:\n"
                "            ping, pong = self._workspace(batch, 0), "
                "self._workspace(batch, 1)\n"
                "            for i, st in enumerate(self._stages):\n"
                "                self._pass_ops(cur, ping, st, buffer)\n"
                "                cur, ping, pong = ping, pong, ping\n")
        mutant = source.replace(anchor, pair + anchor, 1)
        assert mutant != source
        assert pass_loops(mutant) == 2


def pass_loops(source: str) -> int:
    """``for`` loops over ``self._stages`` in ``StockhamPlan`` of *source*."""
    cls = next(n for n in ast.walk(ast.parse(source))
               if isinstance(n, ast.ClassDef) and n.name == "StockhamPlan")
    return sum(isinstance(n, ast.For) and any(
        getattr(a, "attr", None) == "_stages" for a in ast.walk(n.iter))
        for n in ast.walk(cls))


class TestFlopsAndStages:
    def test_fft_flops(self):
        assert fft_flops(2) == pytest.approx(10.0)
        assert fft_flops(1) == 0.0

    def test_stage_count_is_the_default_schedule(self):
        # radix-16 ladder, remainder last; odd primes merged into few passes
        assert [stage_count(n) for n in (16, 32, 1024, 65536)] == [1, 2, 3, 4]
        assert stage_count(12288) == 4  # 16*16*16*3, was thirteen passes
        for n in (32, 1024, 12288, 6720):
            assert StockhamPlan(n).radices == default_radices(n)


# -- batch invariance at the seam: the pass kernel's tile rule --------------


def row_tiles(batch, cols, w):
    """The rule: every transform tiled alike from its own column 0."""
    return [(b * cols + lo, b * cols + lo + w)
            for b in range(batch) for lo in range(0, cols, w)]


def batch_sized_tiles(batch, cols, w, r):
    """Mutant: the cap shared out over the call, so the width depends on
    how many transforms rode along."""
    return row_tiles(batch, cols, gemm_tile(r * r * batch, cols))


def spanning_tiles(batch, cols, w, r):
    """Mutant: the call's columns as one axis cut at the largest width
    under the cap — products run on from one transform into the next."""
    width, total = (_TILE_MACS - 1) // (r * r), batch * cols
    return [(lo, min(lo + width, total)) for lo in range(0, total, width)]


def call_aligned_tiles(batch, cols, w, r):
    """Mutant: the same cuts, clipped so no product spans two transforms —
    but still counted from the call's first column, not the transform's."""
    cuts = spanning_tiles(batch, cols, w, r)
    edges = sorted({e for lo, hi in cuts for e in (lo, hi)}
                   | {b * cols for b in range(batch + 1)})
    return list(zip(edges, edges[1:]))


def run_tiled(plan, xs, tiles=None):
    """``plan(xs)`` with every product made by hand, one per tile of
    ``tiles(batch, cols, w, r)`` (half-open ranges of the call's
    ``batch * cols`` columns); ``None`` is the plan's own tiling."""
    cur = np.array(xs, dtype=plan.dtype)
    batch = cur.shape[0]
    for st in plan._stages:
        r, m = st.r, st.n // st.r
        groups = st.mat.shape[0]
        c = cur.reshape(batch, r, groups, st.cols)
        d = np.empty((batch, groups, r, st.cols), dtype=plan.dtype)
        cuts = row_tiles(batch, st.cols, st.w) if tiles is None \
            else tiles(batch, st.cols, st.w, r)
        for g in range(groups):
            flat = np.ascontiguousarray(
                c[:, :, g].transpose(1, 0, 2)).reshape(r, -1)
            prod = np.empty_like(flat)
            for lo, hi in cuts:
                prod[:, lo:hi] = st.mat[g, 0] @ flat[:, lo:hi]
            d[:, g] = prod.reshape(r, batch, st.cols).transpose(1, 0, 2)
        if st.tw is not None:
            d = d.reshape(batch, r, m, st.s).transpose(0, 2, 1, 3) * st.tw
        cur = np.ascontiguousarray(d).reshape(batch, -1)
    return cur * plan._inv_n if plan.sign == +1 else cur


def assert_batch_invariance(transform, n, dtype, batches, seed=2013):
    """The contract, for ``transform(xs)`` on stacks of length-*n* rows."""
    rng = np.random.default_rng(seed)
    xs = random_complex(rng, max(batches), n).astype(dtype)
    full = transform(xs)
    ref = np.fft.fft(xs[:2].astype(np.complex128), axis=-1)
    tol = 1e-12 if dtype == np.complex128 else 1e-5
    assert np.abs(full[:2] - ref).max() <= tol * np.abs(ref).max(), \
        "disagrees with numpy.fft"
    for b in batches:
        assert np.array_equal(transform(xs[:b]), full[:b]), \
            f"batch invariance: the first {b} rows differ from the same " \
            f"rows of a batch of {max(batches)}"
    for i in sorted({0, 1, 2, max(batches) // 3, max(batches) - 1}):
        assert np.array_equal(transform(xs[i:i + 1])[0], full[i]), \
            f"batch invariance: row {i} solo differs from row {i} of " \
            f"a batch of {max(batches)}"


#: Largest batch per length: 104 is ``batch_small``'s block of 13 frames
#: of 8 segments; the long lengths stay under 100 MiB of workspace.
BATCHES = {128: (1, 3, 8, 104), 1024: (1, 3, 8, 104), 12288: (1, 3, 8, 40),
           65536: (1, 3, 8)}
DTYPES = [np.complex128, np.complex64]


class TestBatchInvariance:
    """``plan(xs)[i]`` is bitwise ``plan(xs[i:i+1])[0]`` — the seam every
    solo/coalesced, simulator/process and recovered/fault-free contract
    passes through on its way to the segment FFT."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n", sorted(BATCHES))
    def test_rows_independent_of_batch(self, n, dtype):
        plan = StockhamPlan(n, dtype=dtype)
        assert_batch_invariance(plan, n, dtype, BATCHES[n])

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n", [1024, 12288])
    def test_hand_tiled_model_is_the_kernel(self, rng, n, dtype):
        # the mutants below differ from this model in their cuts alone
        plan = StockhamPlan(n, dtype=dtype)
        xs = random_complex(rng, 5, n).astype(dtype)
        assert np.array_equal(run_tiled(plan, xs), plan(xs))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n", [1024, 12288])
    @pytest.mark.parametrize("mutant", [batch_sized_tiles, spanning_tiles,
                                        call_aligned_tiles])
    def test_breaking_the_tile_rule_fails_the_contract(self, mutant, n,
                                                       dtype):
        # the gate can go red: each mutant is numerically as good (it
        # passes the numpy assertion, which runs first), but some column
        # then sits in a product of another width or at another tile
        # edge, where BLAS's remainder kernels sum in a different order
        plan = StockhamPlan(n, dtype=dtype)
        with pytest.raises(AssertionError, match="batch invariance"):
            assert_batch_invariance(lambda xs: run_tiled(plan, xs, mutant),
                                    n, dtype, BATCHES[n])
        assert_batch_invariance(lambda xs: run_tiled(plan, xs), n, dtype,
                                (1, 3, 8))


# -- property-based tests on DFT identities ---------------------------------

_signals = arrays(
    dtype=np.complex128,
    shape=st.sampled_from([4, 8, 16, 12, 30]),
    elements=st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                allow_infinity=False),
)


class TestDftProperties:
    @given(_signals, _signals.filter(lambda a: True))
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, x, y):
        if x.shape != y.shape:
            return
        lhs = fft_stockham(2.0 * x + 3.0 * y)
        rhs = 2.0 * fft_stockham(x) + 3.0 * fft_stockham(y)
        assert np.allclose(lhs, rhs, atol=1e-8 * (1 + np.abs(rhs).max()))

    @given(_signals)
    @settings(max_examples=40, deadline=None)
    def test_parseval(self, x):
        y = fft_stockham(x)
        n = x.shape[-1]
        assert np.isclose(np.sum(np.abs(y) ** 2), n * np.sum(np.abs(x) ** 2),
                          rtol=1e-10, atol=1e-6)

    @given(_signals, st.integers(min_value=0, max_value=40))
    @settings(max_examples=40, deadline=None)
    def test_shift_theorem(self, x, shift):
        n = x.shape[-1]
        y = fft_stockham(np.roll(x, shift))
        k = np.arange(n)
        expected = fft_stockham(x) * np.exp(-2j * np.pi * k * shift / n)
        assert np.allclose(y, expected, atol=1e-8 * (1 + np.abs(expected).max()))

    @given(st.integers(min_value=0, max_value=15))
    @settings(max_examples=16, deadline=None)
    def test_impulse_is_exponential(self, pos):
        n = 16
        x = np.zeros(n, dtype=np.complex128)
        x[pos] = 1.0
        k = np.arange(n)
        assert np.allclose(fft_stockham(x), np.exp(-2j * np.pi * k * pos / n))
