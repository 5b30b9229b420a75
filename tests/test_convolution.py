"""Tests for convolution-and-oversampling: numerics, structure, strategies."""

import ast
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

import repro.core.convolution
from repro.core.convolution import (
    ConvStrategy,
    _tile_chunks,
    block_range_for_rows,
    conv_time_model,
    convolve,
    convolve_reference,
    input_block_offsets,
)
from repro.core.params import SoiParams
from repro.core.window import build_tables
from repro.machine.cache import CacheSim
from repro.machine.spec import XEON_E5_2680, XEON_PHI_SE10
from tests.conftest import random_complex


def params(n=4 * 448, s=4, n_mu=8, d_mu=7, b=16, p=1):
    return SoiParams(n=n, n_procs=p, segments_per_process=s // p,
                     n_mu=n_mu, d_mu=d_mu, b=b)


@pytest.fixture(scope="module")
def tables():
    return build_tables(params())


class TestBlockOffsets:
    def test_chunk_shift_is_d_mu(self):
        # Fig 6(a): "the same chunk repeats while shifting by d_mu blocks"
        p = params()
        m0 = input_block_offsets(p, 0, 4 * p.n_mu)
        chunk0 = m0[: p.n_mu]
        for c in range(1, 4):
            assert np.array_equal(m0[c * p.n_mu:(c + 1) * p.n_mu],
                                  chunk0 + c * p.d_mu)

    def test_phase_offsets_within_chunk(self):
        p = params()
        m0 = input_block_offsets(p, 0, p.n_mu)
        q_r = (np.arange(p.n_mu) * p.d_mu) // p.n_mu
        assert np.array_equal(m0, q_r - p.b // 2 + 1)

    def test_rejects_unaligned(self):
        p = params()
        with pytest.raises(ValueError):
            input_block_offsets(p, 3, p.n_mu)
        with pytest.raises(ValueError):
            input_block_offsets(p, 0, p.n_mu + 1)

    def test_block_range_covers_all_offsets(self):
        p = params()
        rows = p.m_oversampled
        lo, hi = block_range_for_rows(p, 0, rows)
        m0 = input_block_offsets(p, 0, rows)
        assert lo == m0.min()
        assert hi == m0.max() + p.b


class TestConvolveNumerics:
    def test_matches_reference(self, rng, tables):
        p = tables.params
        rows = p.m_oversampled
        lo, hi = block_range_for_rows(p, 0, rows)
        s = p.n_segments
        idx = np.arange(lo * s, hi * s) % p.n
        x = random_complex(rng, p.n)
        x_ext = x[idx]
        fast = convolve(x_ext, tables, 0, rows, lo)
        slow = convolve_reference(x_ext, tables, 0, rows, lo)
        assert np.allclose(fast, slow, rtol=1e-12, atol=1e-12)

    def test_partial_row_range_matches_full(self, rng, tables):
        p = tables.params
        rows = p.m_oversampled
        lo, hi = block_range_for_rows(p, 0, rows)
        s = p.n_segments
        x = random_complex(rng, p.n)
        x_ext = x[np.arange(lo * s, hi * s) % p.n]
        full = convolve(x_ext, tables, 0, rows, lo)
        half = rows // 2
        lo2, hi2 = block_range_for_rows(p, half, half)
        x_ext2 = x[np.arange(lo2 * s, hi2 * s) % p.n]
        part = convolve(x_ext2, tables, half, half, lo2)
        assert np.allclose(part, full[half:], rtol=1e-12, atol=1e-12)

    def test_out_parameter(self, rng, tables):
        p = tables.params
        rows = p.m_oversampled
        lo, hi = block_range_for_rows(p, 0, rows)
        s = p.n_segments
        x_ext = random_complex(rng, (hi - lo) * s)
        out = np.empty((rows, s), dtype=np.complex128)
        res = convolve(x_ext, tables, 0, rows, lo, out=out)
        assert res is out

    def test_rejects_insufficient_extension(self, rng, tables):
        # windows are read modulo the source's length, which must hold
        # one window of B blocks (here 4)
        p = tables.params
        with pytest.raises(ValueError, match="cover"):
            convolve(random_complex(rng, p.n_segments * 4), tables, 0,
                     p.m_oversampled, 0)

    def test_rejects_non_multiple_length(self, rng, tables):
        with pytest.raises(ValueError, match="multiple"):
            convolve(random_complex(rng, 7), tables, 0, 8, 0)

    def test_rejects_wrong_out_shape(self, rng, tables):
        p = tables.params
        rows = p.m_oversampled
        lo, hi = block_range_for_rows(p, 0, rows)
        x_ext = random_complex(rng, (hi - lo) * p.n_segments)
        with pytest.raises(ValueError, match="out"):
            convolve(x_ext, tables, 0, rows, lo,
                     out=np.empty((1, 1), dtype=np.complex128))

    def test_rejects_out_of_another_dtype(self, rng, tables):
        # a complex64 out for complex128 input would round every row
        p = tables.params
        rows = p.m_oversampled
        lo, hi = block_range_for_rows(p, 0, rows)
        x_ext = random_complex(rng, (hi - lo) * p.n_segments)
        with pytest.raises(ValueError, match="dtype"):
            convolve(x_ext, tables, 0, rows, lo,
                     out=np.empty((rows, p.n_segments), dtype=np.complex64))


# -- the invariance contract: a row is a function of (row index, input) -----

#: (n_mu, d_mu, B, segments/process, processes, chunks).  Chunk counts sit
#: below, at, and 1-3 tiles above the tile (256 chunks; 128 at B=48);
#: each is small enough for the triple-loop oracle.
GEOMETRIES = (
    (8, 7, 16, 4, 1, 24),
    (8, 7, 4, 2, 1, 300),
    (8, 7, 48, 2, 1, 300),
    (8, 7, 8, 2, 1, 520),
    (5, 4, 8, 4, 1, 40),
    (5, 4, 4, 2, 1, 600),
    (5, 4, 16, 8, 1, 100),
    (2, 1, 8, 4, 1, 700),
    (2, 1, 4, 1, 1, 259),
)
#: The 64-rank partition-recovery geometry of tests/test_partition.py:
#: survivors adopt one- and two-chunk slices of dead ranks' rows, and each
#: must come back bit-identical to the fault-free run.
RANKS64 = (2, 1, 4, 1, 64, 256)


@lru_cache(maxsize=None)
def geometry_tables(geometry):
    n_mu, d_mu, b, spp, procs, chunks = geometry
    return build_tables(SoiParams(
        n=spp * procs * chunks * d_mu, n_procs=procs,
        segments_per_process=spp, n_mu=n_mu, d_mu=d_mu, b=b))


def chunk_input(p, xs, c_lo, c_hi):
    """Ghost-extended input of chunks [c_lo, c_hi), and its first block."""
    lo, hi = block_range_for_rows(p, c_lo * p.n_mu, (c_hi - c_lo) * p.n_mu)
    s = p.n_segments
    return xs[..., np.arange(lo * s, hi * s) % p.n], lo


def tile_of(tables):
    return _tile_chunks(tables.params, tables.gemm_coeffs(complex).shape[1])


def mid_tile_ranges(tables):
    """Chunk ranges that start and end strictly inside a tile: a long one
    (crossing into the second tile when there is one) and a single chunk."""
    p = tables.params
    chunks, tile = p.m_oversampled // p.n_mu, tile_of(tables)
    end = tile + (chunks - tile) // 2 if chunks > tile + 1 else chunks - 1
    return [(tile // 3, end), (tile // 2, tile // 2 + 1)]


def assert_row_invariance(conv, tables, xs, chunk_ranges):
    """The contract, for kernel *conv* on the ``(batch, N)`` stack *xs*."""
    p = tables.params
    rows, n_mu = p.m_oversampled, p.n_mu
    x_full, lo = chunk_input(p, xs, 0, rows // n_mu)
    full = conv(x_full, tables, 0, rows, lo)
    ref = convolve_reference(x_full[0], tables, 0, rows, lo)
    tol = 1e-12 if xs.dtype == np.complex128 else 1e-5
    assert np.abs(full[0] - ref).max() <= tol * np.abs(ref).max(), \
        "disagrees with the triple-loop oracle"
    for i in range(xs.shape[0]):
        assert np.array_equal(conv(x_full[i], tables, 0, rows, lo), full[i]), \
            f"batch invariance: frame {i} of {xs.shape[0]} differs from solo"
    for c_lo, c_hi in chunk_ranges:
        x_sub, lo_sub = chunk_input(p, xs, c_lo, c_hi)
        part = conv(x_sub, tables, c_lo * n_mu, (c_hi - c_lo) * n_mu, lo_sub)
        assert np.array_equal(part, full[:, c_lo * n_mu:c_hi * n_mu]), \
            f"row-range invariance: chunks [{c_lo}, {c_hi}) differ from " \
            f"the same rows of the full range"
        assert np.abs(part[0] - ref[c_lo * n_mu:c_hi * n_mu]).max() \
            <= tol * np.abs(ref).max()


def convolve_call_relative(x_ext, tables, j_start, n_rows, block_lo):
    """The naive tiling, kept here as the mutant the contract must catch:
    the same GEMM, but tiles count from the call's first chunk and the last
    tile is ragged — so a chunk's tile position and its GEMM's shape depend
    on the row range asked for."""
    p = tables.params
    s, n_mu, d_mu = p.n_segments, p.n_mu, p.d_mu
    w = tables.gemm_coeffs(x_ext.dtype)
    tile = tile_of(tables)
    base = int(input_block_offsets(p, j_start, n_mu)[0]) - block_lo
    xb = x_ext.reshape(-1, x_ext.shape[-1] // s, s)
    out = np.empty(x_ext.shape[:-1] + (n_rows, s), dtype=x_ext.dtype)
    ob = out.reshape(xb.shape[0], -1, n_mu, s)
    win = sliding_window_view(xb, w.shape[1], axis=1)[:, base::d_mu]
    for f in range(xb.shape[0]):
        for c in range(0, n_rows // n_mu, tile):
            windows = win[f, c:min(c + tile, n_rows // n_mu)]
            staged = np.ascontiguousarray(windows.transpose(1, 0, 2))
            ob[f, c:c + tile] = np.matmul(staged, w).transpose(1, 2, 0)
    return out


class TestRowInvariance:
    """``convolve`` rows are bitwise independent of the row range and the
    batch they were computed in — the seam every solo/coalesced,
    simulator/process and recovered/fault-free contract passes through."""

    @staticmethod
    def stack(geometry, dtype, batch, seed):
        p = geometry_tables(geometry).params
        rng = np.random.default_rng(seed)
        return random_complex(rng, batch, p.n).astype(dtype)

    @given(st.sampled_from(GEOMETRIES + (RANKS64,)),
           st.sampled_from([np.complex128, np.complex64]),
           st.integers(1, 5), st.integers(0, 2 ** 31 - 1),
           st.integers(0, 2 ** 20), st.integers(0, 2 ** 20))
    @example(RANKS64, np.complex128, 2, 2013, 5, 0)
    @example(RANKS64, np.complex64, 1, 2013, 254, 1)
    @settings(max_examples=25, deadline=None)
    def test_rows_independent_of_range_and_batch(self, geometry, dtype,
                                                 batch, seed, a, b):
        tables = geometry_tables(geometry)
        chunks = geometry[-1]
        c_lo = a % chunks
        c_hi = c_lo + 1 + b % (chunks - c_lo)
        assert_row_invariance(convolve, tables,
                              self.stack(geometry, dtype, batch, seed),
                              [(c_lo, c_hi)] + mid_tile_ranges(tables))

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_call_relative_tiling_fails_the_contract(self, dtype):
        # the gate can go red: the naive tiling is numerically as good
        # (it passes the oracle and the batch assertions, which run first)
        # but a one-chunk adopted slice becomes an M=1 product, which BLAS
        # sums in a different order than row 5 of the full tile
        xs = self.stack(RANKS64, dtype, 2, 2013)
        with pytest.raises(AssertionError, match="row-range invariance"):
            assert_row_invariance(convolve_call_relative,
                                  geometry_tables(RANKS64), xs, [(5, 6)])
        assert_row_invariance(convolve, geometry_tables(RANKS64), xs,
                              [(5, 6)])


class TestStrategies:
    def test_working_sets(self):
        p = params(s=16)
        base = ConvStrategy.BASELINE.working_set_bytes(p)
        inter = ConvStrategy.INTERCHANGE.working_set_bytes(p)
        # §5.3: baseline's set is proportional to S; decomposed is not
        assert base == inter * p.n_segments
        p2 = params(n=32 * 448 * 2, s=32)
        assert ConvStrategy.BASELINE.working_set_bytes(p2) > base
        assert ConvStrategy.INTERCHANGE.working_set_bytes(p2) == inter

    def test_input_strides(self):
        p = params(s=16)
        assert ConvStrategy.BUFFERED.input_stride_bytes(p) == 16
        assert ConvStrategy.INTERCHANGE.input_stride_bytes(p) == 16 * 16

    def test_extra_sweeps(self):
        assert ConvStrategy.BASELINE.extra_sweeps() == 0.0
        assert ConvStrategy.INTERCHANGE.extra_sweeps() == 1.0
        assert ConvStrategy.BUFFERED.extra_sweeps() == 1.0

    def test_ledgers_contain_expected_passes(self):
        p = params()
        for strat in ConvStrategy:
            led = strat.ledger(p, p.m_oversampled)
            labels = {r.label for r in led.records}
            assert "conv input" in labels and "conv output" in labels
        buf = ConvStrategy.BUFFERED.ledger(p, p.m_oversampled)
        assert any("staging" in r.label for r in buf.records)


class TestCacheTraces:
    """Drive the strategies' address traces through the cache simulator and
    check the paper's §5.3 claims *directionally* at reduced scale."""

    def _misses(self, strategy, s, cache_kb=16):
        p = SoiParams(n=s * 448, n_procs=1, segments_per_process=s,
                      n_mu=8, d_mu=7, b=16)
        cache = CacheSim(size_bytes=cache_kb * 1024, line_bytes=64, assoc=8)
        trace = strategy.address_trace(p, n_chunks=4)
        cache.access(trace)
        return cache.stats.misses / max(1, cache.stats.accesses)

    def test_buffered_has_fewest_misses_at_large_stride(self):
        s = 64  # stride 1 KB: conflict-prone
        m_base = self._misses(ConvStrategy.BASELINE, s)
        m_int = self._misses(ConvStrategy.INTERCHANGE, s)
        m_buf = self._misses(ConvStrategy.BUFFERED, s)
        assert m_buf < m_int
        assert m_buf < m_base

    def test_interchange_beats_baseline_reuse(self):
        # lane-major traversal reuses each window B times before moving on
        s = 32
        assert self._misses(ConvStrategy.INTERCHANGE, s, cache_kb=8) <= \
            self._misses(ConvStrategy.BASELINE, s, cache_kb=8)


class TestTimeModel:
    def test_buffered_is_flat_in_nodes(self):
        # Fig 11: buffering achieves "close-to-ideal scalability"
        times = []
        for nodes in (4, 8, 16, 32, 64):
            p = SoiParams(n=(7 * 2 ** 18) * nodes, n_procs=nodes,
                          segments_per_process=8, b=72)
            times.append(conv_time_model(p, XEON_PHI_SE10, ConvStrategy.BUFFERED))
        assert max(times) / min(times) < 1.05

    def test_baseline_degrades_with_nodes(self):
        # Fig 11: baseline "degrades with more nodes" (working set ~ S)
        p4 = SoiParams(n=(7 * 2 ** 18) * 4, n_procs=4,
                       segments_per_process=8, b=72)
        p64 = SoiParams(n=(7 * 2 ** 18) * 64, n_procs=64,
                        segments_per_process=8, b=72)
        t4 = conv_time_model(p4, XEON_PHI_SE10, ConvStrategy.BASELINE)
        t64 = conv_time_model(p64, XEON_PHI_SE10, ConvStrategy.BASELINE)
        assert t64 > 2.0 * t4

    def test_strategy_ordering_at_scale(self):
        p = SoiParams(n=(7 * 2 ** 18) * 64, n_procs=64,
                      segments_per_process=8, b=72)
        tb = conv_time_model(p, XEON_PHI_SE10, ConvStrategy.BASELINE)
        ti = conv_time_model(p, XEON_PHI_SE10, ConvStrategy.INTERCHANGE)
        tf = conv_time_model(p, XEON_PHI_SE10, ConvStrategy.BUFFERED)
        assert tf < ti < tb

    def test_xeon_shared_llc_tolerates_baseline_longer(self):
        # §5.3: the table spill is "particularly problematic in Xeon Phi
        # with private llcs" — the Xeon's 20 MB shared L3 absorbs it
        p = SoiParams(n=(7 * 2 ** 18) * 32, n_procs=32,
                      segments_per_process=8, b=72)
        phi_ratio = conv_time_model(p, XEON_PHI_SE10, ConvStrategy.BASELINE) / \
            conv_time_model(p, XEON_PHI_SE10, ConvStrategy.BUFFERED)
        xeon_ratio = conv_time_model(p, XEON_E5_2680, ConvStrategy.BASELINE) / \
            conv_time_model(p, XEON_E5_2680, ConvStrategy.BUFFERED)
        assert phi_ratio > xeon_ratio

    def test_conv_efficiency_comparable_both_machines(self):
        # §5.3/§6.3: the buffered convolution runs at ~40% on both machines,
        # "leading to similar execution times" relative to flops
        p = SoiParams(n=(7 * 2 ** 18) * 8, n_procs=8,
                      segments_per_process=1, b=72)
        t_phi = conv_time_model(p, XEON_PHI_SE10, ConvStrategy.BUFFERED)
        flops = p.conv_flops / p.n_procs
        implied = flops / (t_phi * XEON_PHI_SE10.peak_gflops * 1e9)
        assert implied == pytest.approx(0.40, abs=0.05)


# -- tier-1 guard: one tile walk ---------------------------------------------

def tile_walks(source: str) -> int:
    """Tile walks in *source*: the more of its GEMMs against the taps ``w``
    (called, or bound with ``partial`` for a planned walk to call) and its
    staged-window builds, each of which a walk has one of."""
    def name(node):
        return getattr(node, "id", None) or getattr(node, "attr", "")
    calls = [n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Call)]
    named = [name(n.func) for n in calls]
    gemms = sum(any(name(a) == "w" for a in args)
                for f, n in zip(named, calls)
                for args in ([n.args] if f == "matmul" else [n.args[1:]]
                             if f == "partial" and n.args
                             and name(n.args[0]) == "matmul" else []))
    return max(gemms, named.count("sliding_window_view"))


def test_one_tile_walk():
    """An ``ast`` count (docstrings cannot trip it): ``core/convolution.py``
    walks the tile grid in one place, whichever layout it stores."""
    source = Path(repro.core.convolution.__file__).read_text()
    assert tile_walks(source) == 1
    # mutant: the front with a tile loop of its own, copied from the walk
    start = source.index(
        "        for t0 in range(c0 - c0 % t_chunks, c1, t_chunks):\n")
    end = source.index("    def __call__", start)
    mutant = (source + "\n\ndef front_walk(xb, k_width, base, d_mu, c0, c1, "
              "t_chunks, tile, w, res, ob):\n" + source[start:end])
    ast.parse(mutant)
    assert tile_walks(mutant) == 2


# -- tier-1 guard: one periodic copy -------------------------------------------

def _called(node) -> str:
    return getattr(node.func, "attr", None) or getattr(node.func, "id", "")


def _has_slice(node) -> bool:
    return any(isinstance(n, ast.Slice) for n in ast.walk(node.slice))


def periodic_copies(source: str) -> list:
    """The functions of *source* that copy samples periodically: a loop of
    slice copies (the source start wraps each pass), a fancy gather at
    ``np.arange(...) % n``, a ``np.roll`` or a ``mode="wrap"`` call."""
    sites = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, ast.FunctionDef):
            continue
        nodes = list(ast.walk(fn))
        loop = any(isinstance(a, ast.Assign)
                   and isinstance(a.targets[0], ast.Subscript)
                   and isinstance(a.value, ast.Subscript)
                   and _has_slice(a.targets[0]) and _has_slice(a.value)
                   for w in nodes if isinstance(w, ast.While)
                   for a in ast.walk(w))
        gather = any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mod)
                     and isinstance(n.left, ast.Call)
                     and _called(n.left) == "arange" for n in nodes)
        call = any(isinstance(n, ast.Call) and (
            _called(n) == "roll" or any(
                k.arg == "mode" and getattr(k.value, "value", "") == "wrap"
                for k in n.keywords)) for n in nodes)
        if loop or gather or call:
            sites.append(fn.name)
    return sites


def package_copies(patch=lambda path, source: source) -> list:
    """``module:function`` of every periodic copy under ``src/repro``,
    each module's source passed through *patch* first."""
    root = Path(repro.core.convolution.__file__).parents[1]
    return [f"{path.relative_to(root).as_posix()}:{name}"
            for path in sorted(root.rglob("*.py"))
            for name in periodic_copies(patch(path, path.read_text()))]


#: the single node's gather before the front read its input in place
OLD_WRAP = '''
def _wrap(self, x, out, start):
    n, pos, src = self.params.n, 0, start % self.params.n
    while pos < out.shape[-1]:
        chunk = min(n - src, out.shape[-1] - pos)
        out[..., pos:pos + chunk] = x[..., src:src + chunk]
        pos, src = pos + chunk, 0
    return out
'''

#: a recovery round's copy of its rows' windows, as a fancy gather
OLD_GATHER = '''
def rows_input(x_global, p, lo, hi):
    s = p.n_segments
    return x_global[np.arange(lo * s, hi * s) % p.n]
'''


def test_one_periodic_copy():
    """An ``ast`` guard: the package copies its input periodically in one
    place, the edge tiles' (and ``SoiFFT.extended_input``'s) block copy in
    ``core/convolution.py``; a front reads everything else in place."""
    assert package_copies() == ["core/convolution.py:_wrap_blocks"]
    # mutants: the single node's gather back, a recovery round's wrapped
    # copy back
    for name, extra in [("soi_single.py", OLD_WRAP),
                        ("soi_dist.py", OLD_GATHER)]:
        sites = package_copies(lambda path, source: source + extra
                               if path.name == name else source)
        assert len(sites) == 2, (name, sites)
