"""End-to-end tests for the single-process SOI FFT."""

import ast
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.convolution import (
    ConvWorkspace,
    block_range_for_rows,
    convolve,
    front,
)
from repro.core.demodulate import back, demodulate
from repro.core.params import SoiParams
from repro.core.soi_single import SoiFFT, soi_fft
from repro.core.window import GaussianSincWindow
from repro.fft.sixstep import sixstep_fft
from repro.resilience.ladder import DegradationLadder
from repro.telemetry import MetricsRegistry, Telemetry
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
        alpha = f.oversample(x)
        if choice == "direct":
            beta = f.segment_spectra(alpha)
        else:
            variant = "optimized" if choice == "sixstep" else "naive"
            beta = np.stack([sixstep_fft(a, variant=variant).output
                             for a in alpha])
        got = demodulate(beta, f.tables).reshape(params.n)
        assert np.allclose(got, f(x), rtol=1e-10, atol=1e-10)


def front_and_convolution(f: SoiFFT, xs: np.ndarray):
    """The front's segment-major output for the frames *xs* and the rows
    of its convolution, both reading *xs* in place."""
    mp = f.params.m_oversampled
    return front(xs, f.tables, 0, mp, 0), convolve(xs, f.tables, 0, mp, 0)


class TestLaneDft:
    """The lane transform runs inside the front's convolution tiles."""

    def test_tiled_product_is_the_lane_transform(self, rng):
        f = SoiFFT(make_params(n=7 * 2 ** 13))  # M' = 8192, S = 8
        assert f._conv_tile == 1024  # two 512-row lane products a tile
        xs = random_complex(rng, 3, f.params.n)
        alpha, u = front_and_convolution(f, xs)
        # the convolution, then F_S over lanes, stored by segment
        assert np.allclose(alpha, np.fft.fft(u, axis=-1).swapaxes(-1, -2))
        for i in range(3):  # a tile never spans two frames
            assert np.array_equal(
                front(xs[i], f.tables, 0, f.params.m_oversampled, 0),
                alpha[i])
        # a range cut inside tiles (a rank's, a recovery slice's) is the
        # same rows of the whole, on the global grid
        assert np.array_equal(front(xs[1], f.tables, 704, 800, 0),
                              alpha[1, :, 704:1504])
        # and so is the ghost-extended input a rank reads, from its first
        # block
        lo = block_range_for_rows(f.params, 0, f.params.m_oversampled)[0]
        assert np.array_equal(
            front(f.extended_input(xs), f.tables, 0, f.params.m_oversampled,
                  lo), alpha)

    def test_wide_lane_counts_use_the_stockham_plan(self, rng):
        f = SoiFFT(make_params(n=128 * 448, s=128))
        f._lane_plan.release_workspaces()
        alpha, u = front_and_convolution(f, random_complex(rng, f.params.n))
        assert np.allclose(alpha, np.fft.fft(u, axis=-1).T)
        assert f._lane_plan.workspace_bytes() > 0  # the front ran it


class TestConvenienceWrapper:
    def test_soi_fft_function(self, rng):
        x = random_complex(rng, 8 * 448)
        y = soi_fft(x, n_segments=8, b=48)
        assert relative_l2_error(y, np.fft.fft(x)) < 1e-4

    def test_kwargs_forwarded(self, rng):
        x = random_complex(rng, 2 ** 12)
        y = soi_fft(x, n_segments=8, n_mu=5, d_mu=4, b=64)
        assert relative_l2_error(y, np.fft.fft(x)) < 1e-9

    def test_soi_ifft_inverts_soi_fft(self, rng):
        # the exported one-shot inverse: numpy's convention (scaled by
        # 1/N), each transform within the design's error estimate
        x = random_complex(rng, 8 * 448)
        bound = SoiFFT(make_params(b=72)).expected_stopband
        assert relative_l2_error(repro.soi_ifft(x), np.fft.ifft(x)) < bound
        assert relative_l2_error(repro.soi_ifft(soi_fft(x)), x) < 2 * bound


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


# -- out= may be the input -----------------------------------------------------

def aliased_case(case: str, rng):
    """A plan and a ``(frames, N)`` input for *case*: one frame of a
    pooled size (1 MiB of stage buffer), a batch of bench/e2e's
    batch_small frames (frame-major wherever there is a pool), or one
    verified frame of the pooled size."""
    big, small = make_params(n=7 * 2 ** 13), make_params(n=7168)
    plan, frames = {"pooled call": (SoiFFT(big), 1),
                    "frame-major batch": (SoiFFT(small), 8),
                    "verified call": (SoiFFT(big, verify=True), 1)}[case]
    return plan, random_complex(rng, frames, plan.params.n)


def aliased_bits_match(plan: SoiFFT, xs: np.ndarray) -> bool:
    """Whether ``plan(x, out=x)`` (one frame) or ``plan.batch(xs,
    out=xs)`` returns the bits the same call writes into a fresh array."""
    got = xs.copy()
    if len(xs) == 1:
        want = plan(xs[0])[None]
        plan(got[0], out=got[0])
    else:
        want = plan.batch(xs)
        plan.batch(got, out=got)
    return np.array_equal(got, want)


def late_front_check(monkeypatch) -> None:
    """Mutant: the seam holds the front's check back until the back has
    written the output, so an aliased call's check reads output rows for
    its input (and its repair recomputes the front from them)."""
    real = SoiFFT._stage_seam

    def seam(self, batch):
        after, held = real(self, batch), []
        if after is None:
            return None

        def late(stage, src, arr, nbytes):
            held.append((stage, src, arr, nbytes))
            if stage == "back":
                for call in held:
                    after(*call)
        return late
    monkeypatch.setattr(SoiFFT, "_stage_seam", seam)


class TestAliasedCalls:
    """``out`` may be the input: the front and its check read all of it
    before the back writes the first output row, on every path."""

    @pytest.mark.parametrize("case", ["pooled call", "frame-major batch",
                                      "verified call"])
    def test_out_may_be_the_input(self, rng, case):
        plan, xs = aliased_case(case, rng)
        assert aliased_bits_match(plan, xs)
        if plan.verifier is not None:
            assert plan.verifier.report.detections == 0

    def test_the_check_can_fail(self, monkeypatch, rng):
        late_front_check(monkeypatch)
        plan, xs = aliased_case("verified call", rng)
        assert not aliased_bits_match(plan, xs)


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
    # a worker tiles its rows (convolution and lane products) from the
    # first row of its own range, and the ranges are n_mu-aligned (all the
    # kernel asks for) but not tile-aligned
    from repro.core.convolution import block_range_for_rows, lane_fft
    from tests.test_convolution import convolve_call_relative
    def front(x, tables, j_start, n_rows, block_lo, out):
        s = tables.params.n_segments  # the rows' blocks, wrapped
        lo, hi = block_range_for_rows(tables.params, j_start, n_rows)
        x_ext = x[..., np.arange(lo * s, hi * s) % x.shape[-1]]
        u = convolve_call_relative(x_ext, tables, j_start, n_rows, lo)
        for i, frame in enumerate(u):
            lane_fft(frame.T, tables, out=out[i])
    def walk(tables, nblocks, j_start, block_lo, out, workspace):
        # what a planned call binds its front range from
        return lambda x: front(x, tables, j_start, out.shape[-1], block_lo,
                               out)
    def cuts(total, grid, parts, real=soi_single._cuts):
        if grid == 1 or parts == 1:
            return real(total, grid, parts)
        return [(0, total // 2 + 8), (total // 2 + 8, total)]
    soi_single.TileWalk, soi_single._cuts = walk, cuts
elif mutant == "call_aligned_tile":
    # the Stockham tiles are counted from the first column of the call, so
    # a segment's tile edges move when a worker's call starts at its row
    from tests.test_stockham import call_aligned_tiles, run_tiled
    def schedule(self, flat, res, overwrite, buffer):
        # every call's passes, planned or not: one op over flat into res
        # (the pooled entry: an array of its own)
        got = np.empty_like(flat) if res is None else res
        def run():
            got[...] = run_tiled(self, flat, call_aligned_tiles)
        return [run], got
    stockham.StockhamPlan._schedule = schedule

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
        # the front: convolution and lane transform, segment-major
        "lane_dft": soi_single.front(x, f.tables, 0, f.params.m_oversampled,
                                     0),
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


# -- tier-1 guard: a call shares two steps ------------------------------------

def shared_steps(source: str) -> list:
    """The step functions ``SoiFFT._execute`` in *source* shares out."""
    fn = next(n for n in ast.walk(ast.parse(source))
              if isinstance(n, ast.FunctionDef) and n.name == "_execute")
    return sorted(n.args[0].id for n in ast.walk(fn)
                  if isinstance(n, ast.Call)
                  and getattr(n.func, "id", "") == "share")


def test_execute_shares_four_steps():
    """An ``ast`` guard: the front and the back, the two seam stages, are
    the only steps (the name is the one the guard had when gather, the
    segment FFT and demodulation were steps of their own) — the front
    reads the input in place, the lane transform and the permutation run
    inside its tiles, demodulation inside the back's row ranges."""
    source = (Path(repro.__file__).parent / "core/soi_single.py").read_text()
    steps = ["back", "conv"]
    assert shared_steps(source) == steps
    # mutants: a gather step before the front again; demodulation a step
    # of its own again
    for anchor, step in [("        share(conv, mp, self._conv_tile)\n",
                          "        share(gather, p.n, 1)\n"),
                         ("        share(back, s, 1)\n",
                          "        share(demod, s, 1)\n")]:
        mutant = source.replace(anchor, step + anchor, 1)
        assert mutant != source
        assert shared_steps(mutant) != steps


# -- a planned call runs only its kernels ---------------------------------------

#: the serving geometry: every rung of its ladder (both dtypes)
LADDER = DegradationLadder.standard(896)


def direct(f: SoiFFT, xs: np.ndarray) -> np.ndarray:
    """``front`` then ``back``, called directly (planned per call) on the
    frames *xs*: what a planned call must return bitwise."""
    p = f.params
    alpha = front(xs, f.tables, 0, p.m_oversampled, 0)
    return back(alpha, f.tables, f._seg_plan, lend=True).reshape(xs.shape)


def rung_plan(index: int, mode: str) -> SoiFFT:
    rung = LADDER[index]
    kwargs = {"plain": {}, "verify=True": {"verify": True},
              "telemetry": {"telemetry": Telemetry(
                  metrics=MetricsRegistry())}}[mode]
    return SoiFFT(rung.params, dtype=rung.dtype, **kwargs)


def frames(f: SoiFFT, batch: int, seed: int) -> np.ndarray:
    return random_complex(np.random.default_rng(seed), batch,
                          f.params.n).astype(f.dtype)


def planned_bits_match(f: SoiFFT, sizes=(1, 2, 3, 5, 3, 1, 5, 2)) -> bool:
    """Whether ``f.batch`` returns the direct bits for every batch size
    of *sizes*, in that order on one plan."""
    return all(np.array_equal(f.batch(xs), direct(f, xs))
               for xs in (frames(f, batch, seed)
                          for seed, batch in enumerate(sizes)))


def front_into_another_batch(monkeypatch) -> None:
    """Mutant: a front range's bound view is taken from the stage buffer
    of another batch size (one frame more), so the back reads what that
    buffer held."""
    real = SoiFFT._bind_front

    def bind(self, alpha, f0, f1, a, b):
        return real(self, self._buffers(len(alpha) + 1)["alpha"], f0, f1,
                    a, b)
    monkeypatch.setattr(SoiFFT, "_bind_front", bind)


def calls_of_one_batch(f: SoiFFT, xs: np.ndarray) -> int:
    """Python-level calls (``sys.setprofile`` ``call`` events) made by one
    ``f.batch(xs)``."""
    seen = []

    def count(frame, event, arg):
        if event == "call":
            seen.append(frame.f_code)
    sys.setprofile(count)
    try:
        f.batch(xs)
    finally:
        sys.setprofile(None)
    return len(seen)


def rebuild_every_call(monkeypatch) -> None:
    """Mutant: what a call derives from the geometry is built again on
    every call, nothing kept."""
    monkeypatch.setattr(ConvWorkspace, "planned",
                        lambda self, key, build, *args: build(*args))


class TestPlannedCall:
    """Everything a ``SoiFFT`` call derives from (params, dtype, rows,
    thread) is bound once, with its buffers: a call returns the bits of
    the kernels called directly and makes a few dozen Python calls."""

    @pytest.mark.parametrize("mode", ["plain", "verify=True", "telemetry"])
    @pytest.mark.parametrize("index", range(len(LADDER)))
    def test_every_rung_and_batch_size_is_the_direct_bits(self, index,
                                                          mode):
        f = rung_plan(index, mode)
        for batch in (1, 2, 3, 5):
            xs = frames(f, batch, batch)
            assert np.array_equal(f.batch(xs), direct(f, xs)), batch
        if f.verifier is not None:
            assert f.verifier.report.detections == 0

    @pytest.mark.parametrize("mode", ["plain", "verify=True"])
    def test_alternating_sizes_a_release_and_a_second_thread(self, mode):
        f = rung_plan(0, mode)
        assert planned_bits_match(f)
        f.release_workspaces()
        assert planned_bits_match(f)
        other = []
        thread = threading.Thread(
            target=lambda: other.append(planned_bits_match(f)))
        thread.start()
        thread.join()
        assert other == [True]
        assert planned_bits_match(f)

    def test_the_bits_check_can_fail(self, monkeypatch):
        front_into_another_batch(monkeypatch)
        assert not planned_bits_match(rung_plan(0, "plain"))

    def test_a_warm_call_makes_at_most_40_python_calls(self):
        f = rung_plan(0, "plain")
        xs = frames(f, 1, 0)
        f.batch(xs)
        counts = {calls_of_one_batch(f, xs) for _ in range(3)}
        assert len(counts) == 1 and max(counts) <= 40, counts

    def test_the_call_count_check_can_fail(self, monkeypatch):
        rebuild_every_call(monkeypatch)
        f = rung_plan(0, "plain")
        xs = frames(f, 1, 0)
        f.batch(xs)
        assert calls_of_one_batch(f, xs) > 40
