"""End-to-end tests for the single-process SOI FFT."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.demodulate import demodulate
from repro.core.params import SoiParams
from repro.core.soi_single import SoiFFT, soi_fft
from repro.core.window import GaussianSincWindow
from repro.fft.sixstep import sixstep_fft
from repro.util.validate import relative_l2_error
from tests.conftest import random_complex


def make_params(n=8 * 448, s=8, n_mu=8, d_mu=7, b=48):
    return SoiParams(n=n, n_procs=1, segments_per_process=s,
                     n_mu=n_mu, d_mu=d_mu, b=b)


class TestAccuracy:
    @pytest.mark.parametrize("n,s,n_mu,d_mu,b", [
        (8 * 448, 8, 8, 7, 48),
        (8 * 448, 8, 8, 7, 72),
        (16 * 448, 16, 8, 7, 72),
        (4 * 448, 4, 8, 7, 32),
        (2 ** 13, 8, 5, 4, 48),
        (2 ** 13, 8, 5, 4, 72),
        (6 * 448, 6, 8, 7, 48),       # non-power-of-two segment count
        (8 * 448, 8, 9, 8, 48),       # mu = 9/8
    ])
    def test_error_within_design_bound(self, rng, n, s, n_mu, d_mu, b):
        params = SoiParams(n=n, n_procs=1, segments_per_process=s,
                           n_mu=n_mu, d_mu=d_mu, b=b)
        f = SoiFFT(params)
        x = random_complex(rng, n)
        err = relative_l2_error(f(x), np.fft.fft(x))
        # the Kaiser design formula predicts the stopband well; allow 10x
        assert err < 10 * f.expected_stopband + 1e-12

    def test_mu_5_4_b72_is_near_machine_precision(self, rng):
        params = make_params(n=2 ** 13, n_mu=5, d_mu=4, b=72)
        f = SoiFFT(params)
        x = random_complex(rng, params.n)
        assert relative_l2_error(f(x), np.fft.fft(x)) < 1e-11

    def test_error_decreases_with_b(self, rng):
        x = random_complex(rng, 8 * 448)
        errs = []
        for b in (16, 32, 48, 72):
            f = SoiFFT(make_params(b=b))
            errs.append(relative_l2_error(f(x), np.fft.fft(x)))
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] < 1e-7

    def test_pure_tone_every_segment(self, rng):
        params = make_params(n=4 * 448, s=4, b=48)
        f = SoiFFT(params)
        n, m = params.n, params.m
        for seg in range(4):
            freq = seg * m + int(rng.integers(0, m))
            x = np.exp(2j * np.pi * np.arange(n) * freq / n)
            y = f(x)
            expected = np.zeros(n, dtype=np.complex128)
            expected[freq] = n
            assert relative_l2_error(y, expected) < 1e-5

    def test_gaussian_window_works(self, rng):
        params = make_params(b=72)
        window = GaussianSincWindow(params)
        f = SoiFFT(params, window=window)
        x = random_complex(rng, params.n)
        err = relative_l2_error(f(x), np.fft.fft(x))
        assert err < 5e-3
        assert err < 10 * window.expected_stopband

    def test_kaiser_beats_gaussian_at_same_support(self, rng):
        params = make_params(b=72)
        x = random_complex(rng, params.n)
        ref = np.fft.fft(x)
        err_kaiser = relative_l2_error(SoiFFT(params)(x), ref)
        err_gauss = relative_l2_error(
            SoiFFT(params, window=GaussianSincWindow(params))(x), ref)
        assert err_kaiser < err_gauss


class TestLocalFftChoices:
    """The Fig 4 six-step kernels compute the same segment spectra as
    the planned pipeline's segment FFT (they are an exhibit, not an
    option of ``SoiFFT``)."""

    @pytest.mark.parametrize("choice", ["direct", "sixstep", "sixstep-naive"])
    def test_all_choices_agree(self, rng, choice):
        params = make_params(n=4 * 448, s=4, b=32)
        x = random_complex(rng, params.n)
        f = SoiFFT(params)
        z = f.oversample(x)
        if choice == "direct":
            beta = f.segment_spectra(z)
        else:
            variant = "optimized" if choice == "sixstep" else "naive"
            beta = np.stack([sixstep_fft(a, variant=variant).output
                             for a in np.ascontiguousarray(z.T)])
        got = demodulate(beta, f.tables).reshape(params.n)
        assert np.allclose(got, f(x), rtol=1e-10, atol=1e-10)


class TestLaneDft:
    def test_tiled_product_is_the_lane_transform(self, rng):
        f = SoiFFT(make_params(n=7 * 2 ** 13))  # M' = 8192, S = 8
        assert f._lane_tile == 512  # 512 * 8 * 8 multiply-adds < 2**16
        u = random_complex(rng, 3, f.params.m_oversampled, 8)
        z = f._lane_dft(u)
        assert np.allclose(z, np.fft.fft(u, axis=-1))
        for i in range(3):  # a tile never spans two frames
            assert np.array_equal(f._lane_dft(u[i]), z[i])
        # a range cut inside tiles (a rank's, a recovery slice's) is the
        # same rows of the whole, on the global grid
        assert np.array_equal(f._lane_dft(u[1, 700:1500], row0=700),
                              z[1, 700:1500])
        # any row count runs (the ABFT checksum is a few rows, one a frame)
        assert np.allclose(f._lane_dft(u[:, :1]), z[:, :1])

    def test_wide_lane_counts_use_the_stockham_plan(self, rng):
        f = SoiFFT(make_params(n=128 * 448, s=128))
        assert f._lane_mat is None
        u = random_complex(rng, f.params.m_oversampled, 128)
        assert np.allclose(f._lane_dft(u), np.fft.fft(u, axis=-1))


class TestConvenienceWrapper:
    def test_soi_fft_function(self, rng):
        x = random_complex(rng, 8 * 448)
        y = soi_fft(x, n_segments=8, b=48)
        assert relative_l2_error(y, np.fft.fft(x)) < 1e-4

    def test_kwargs_forwarded(self, rng):
        x = random_complex(rng, 2 ** 12)
        y = soi_fft(x, n_segments=8, n_mu=5, d_mu=4, b=64)
        assert relative_l2_error(y, np.fft.fft(x)) < 1e-9


class TestValidation:
    def test_rejects_wrong_input_shape(self, rng):
        f = SoiFFT(make_params())
        with pytest.raises(ValueError):
            f(random_complex(rng, 17))

    def test_rejects_2d_input(self, rng):
        f = SoiFFT(make_params())
        with pytest.raises(ValueError):
            f(random_complex(rng, 2, 448 * 4))


class TestLinearity:
    @given(st.integers(min_value=0, max_value=10 ** 6),
           st.floats(min_value=-3, max_value=3, allow_nan=False))
    @settings(max_examples=10, deadline=None)
    def test_linearity_property(self, seed, alpha):
        params = make_params(n=4 * 448, s=4, b=16)
        f = SoiFFT(params)
        r = np.random.default_rng(seed)
        x = r.standard_normal(params.n) + 1j * r.standard_normal(params.n)
        y = r.standard_normal(params.n) + 1j * r.standard_normal(params.n)
        lhs = f(x + alpha * y)
        rhs = f(x) + alpha * f(y)
        assert np.allclose(lhs, rhs, rtol=1e-8, atol=1e-6)

    def test_zero_maps_to_zero(self):
        params = make_params(n=4 * 448, s=4, b=16)
        f = SoiFFT(params)
        assert np.allclose(f(np.zeros(params.n, dtype=np.complex128)), 0.0)


# -- one answer whatever BLAS pool the host configured, and however many
# -- cpus the worker pool found ------------------------------------------------

POOL_PROBE = """
import hashlib, os, sys
import numpy as np
from repro.cluster.simcluster import SimCluster
from repro.core import cpupool, soi_single
from repro.core.params import SoiParams
from repro.core.soi_dist import DistributedSoiFFT
from repro.core.soi_single import SoiFFT
from repro.fft import stockham
from repro.fft.plan import get_plan

cpus, mutant = sys.argv[1:]
if cpus == "one":  # before the first pooled call: the pool finds one cpu
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

if mutant == "range_aligned_cut":
    # a worker tiles its rows from the first row of its own range, and the
    # ranges are n_mu-aligned (all the kernel asks for) but not tile-aligned
    from tests.test_convolution import convolve_call_relative
    def convolve(x_ext, tables, j_start, n_rows, block_lo, out, workspace):
        out[...] = convolve_call_relative(x_ext, tables, j_start, n_rows,
                                          block_lo)
    def cuts(total, grid, parts, real=soi_single._cuts):
        if grid == 1 or parts == 1:
            return real(total, grid, parts)
        return [(0, total // 2 + 8), (total // 2 + 8, total)]
    soi_single.convolve, soi_single._cuts = convolve, cuts
elif mutant == "call_aligned_tile":
    # the Stockham tiles are counted from the first column of the call, so
    # a segment's tile edges move when a worker's call starts at its row
    from tests.test_stockham import call_aligned_tiles, run_tiled
    def execute(self, flat, res):
        res[...] = run_tiled(self, flat, call_aligned_tiles)
        return res
    stockham.StockhamPlan._execute = execute

def geometry(n):
    return SoiParams(n=n, n_procs=1, segments_per_process=8,
                     n_mu=8, d_mu=7, b=48)

rng = np.random.default_rng(2013)
x = rng.standard_normal(458752) + 1j * rng.standard_normal(458752)
xs = rng.standard_normal((12, 7168)) + 1j * rng.standard_normal((12, 7168))
a = rng.standard_normal((8, 65536)) + 1j * rng.standard_normal((8, 65536))
frames = rng.standard_normal((64, 7168)) + 1j * rng.standard_normal((64, 7168))
f = SoiFFT(geometry(x.size))  # bench/e2e's single_large
blocks = {
    "soi_call": f(x),
    "batch": SoiFFT(geometry(7168)).batch(xs),  # a block of batch_small
    "batch_small": SoiFFT(geometry(7168)).batch(frames),  # all of it
}
if mutant == "none":
    # bench/e2e's dist_process layout, on the rank-serial simulator
    dist = DistributedSoiFFT(SimCluster(2), SoiParams(
        n=x.size, n_procs=2, segments_per_process=4, n_mu=8, d_mu=7, b=48))
    blocks.update({
        "segment_fft": get_plan(65536)(a),
        "lane_dft": f._lane_dft(a.reshape(65536, 8)),
        "dist": dist.assemble(dist(dist.scatter(x))),
        "threaded_dot": np.vdot(x, x),
    })
print("workers", cpupool.size() if f._parts(1) > 1 else 1)
for name, block in blocks.items():
    print(name, hashlib.sha1(np.ascontiguousarray(block).tobytes()).hexdigest())
"""

CPUS = len(os.sched_getaffinity(0))


def probe(cpus: str, mutant: str = "none", threads=None) -> dict:
    """name -> digest of one run of the probe (``workers`` -> how many
    threads shared the stages of ``soi_call``)."""
    root = Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = f"{root / 'src'}{os.pathsep}{root}"
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    done = subprocess.run([sys.executable, "-c", POOL_PROBE, cpus, mutant],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return dict(line.split() for line in done.stdout.splitlines())


@pytest.fixture(scope="module")
def digests_by_pool():
    """name -> set of digests over {every cpu, one cpu} x
    OPENBLAS_NUM_THREADS unset, 1 and 2."""
    seen: dict[str, set] = {}
    for cpus in ("all", "one"):
        for threads in (None, "1", "2"):
            for name, digest in probe(cpus, threads=threads).items():
                seen.setdefault(name, set()).add(digest)
    return seen


class TestBlasPoolInvariance:
    """Every GEMM of a transform is one :func:`repro.fft.bitops.gemm_tile`
    tile, which OpenBLAS runs on the calling thread, at a position counted
    on the global grid — so the bits depend neither on how the host sized
    its BLAS pool nor on how many workers shared the stages out."""

    @pytest.mark.parametrize("block", ["segment_fft", "lane_dft", "soi_call",
                                       "batch", "batch_small", "dist"])
    def test_one_digest_for_every_pool(self, digests_by_pool, block):
        assert len(digests_by_pool[block]) == 1

    def test_the_distributed_transform_is_the_single_node_digest(
            self, digests_by_pool):
        # its ranks run the same kernels on the same global grids
        assert digests_by_pool["dist"] == digests_by_pool["soi_call"]

    @pytest.mark.skipif(CPUS < 2, reason="1 cpu")
    def test_the_probe_ran_pooled_and_serial(self, digests_by_pool):
        assert digests_by_pool["workers"] == {"1", str(CPUS)}

    @pytest.mark.skipif(CPUS < 2,
                        reason="OpenBLAS caps its pool at the cpu count")
    def test_the_probe_can_see_a_pool(self, digests_by_pool):
        # the gate can go red: an over-threshold reduction in the same
        # probe is split across the pool and sums in another order
        assert len(digests_by_pool["threaded_dot"]) > 1

    @pytest.mark.skipif(CPUS < 2, reason="1 cpu")
    @pytest.mark.parametrize("mutant, blocks", [
        ("range_aligned_cut", ["soi_call"]),
        ("call_aligned_tile", ["soi_call", "batch"])])
    def test_a_cut_off_the_global_grid_is_a_second_digest(self, mutant,
                                                          blocks):
        # the gate can go red: each mutant is numerically as good, but a
        # row then sits in a product of another shape on the pool
        pooled, serial = probe("all", mutant), probe("one", mutant)
        assert (pooled["workers"], serial["workers"]) == (str(CPUS), "1")
        for block in blocks:
            assert pooled[block] != serial[block], block
