"""Memory as a measured budget: what a plan holds, and for how long.

Four gates, each with a test-local mutant that must turn it red:

(a) design time — building a geometry's tables leaves the length-n
    inverse plan (which no pipeline runs) holding no workspace;
(b) steady state — an unverified call holds at most 2.89x its signal;
(c) verified calls — an armed plan runs through the same one stage
    buffer as any other, ``alpha``, and it must outlive the back: the
    verifier repairs the output rows from it, so the segment FFT is not
    lent it and runs in its plan's two buffers (the front and its check
    read the caller's input in place, telemetry reads no stage output);
(d) end to end — a fresh process at n = 3670016 peaks at most 7.86x its
    signal above the interpreter after construction and four calls.

Each bound is the value measured when the back stopped holding a
``beta`` buffer and the segment FFT ran in two buffers (2.63x and 6.22x,
2-cpu host) plus the margin its predecessor left (4.03x over 3.77x,
9x over 7.36x).

Plus the accounting (``workspace_bytes`` counts each buffer once) and the
frame-major block size, which the stage layout must not change.
"""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import cpupool, window
from repro.core.demodulate import back
from repro.core.params import SoiParams
from repro.core.soi_single import SoiFFT
from repro.core.window import get_tables
from repro.fft.plan import cache_clear, get_plan
from repro.telemetry import MetricsRegistry, Telemetry
from repro.verify import VerificationError
from tests.conftest import random_complex
from tests import test_verify

#: test_verify's geometry, whose repair test (c)'s mutant must turn red
PARAMS = test_verify.PARAMS
from tests.test_zero_alloc import distinct_bytes


def geometry(n: int) -> SoiParams:
    return SoiParams(n=n, n_procs=1, segments_per_process=8, n_mu=8, d_mu=7,
                     b=48)


def signal_bytes(params: SoiParams) -> int:
    return params.n * np.dtype(np.complex128).itemsize


def keep_every_buffer(monkeypatch) -> None:
    """Mutant: every call runs as a verified one does, its segment FFT not
    lent ``alpha`` (a work buffer of its own)."""
    monkeypatch.setattr(SoiFFT, "_keeps_stages", property(lambda self: True))


def alias_verified_calls(monkeypatch) -> None:
    """Mutant: a verified back is lent ``alpha`` and its segment FFT works
    in it, as an unverified one does."""
    monkeypatch.setattr(SoiFFT, "_keeps_stages",
                        property(lambda self: False))


# -- (a) design time ---------------------------------------------------------

def batched_demod_table(p, coeffs, q_r):
    """Mutant of ``window._demod_table``: one batched ``(n_mu, n)``
    inverse transform through the cached plan, whose workspaces stay."""
    n, s, b_width = p.n, p.n_segments, p.b
    m, mp, n_mu = p.m, p.m_oversampled, p.n_mu
    padded = np.zeros((n_mu, n), dtype=np.complex128)
    padded[:, : b_width * s] = coeffs.reshape(n_mu, b_width * s)
    g = get_plan(n, +1)(padded) * n
    k, r = np.arange(m), np.arange(n_mu)
    phase = np.exp(-2j * np.pi * np.outer(r, k) / mp
                   + 2j * np.pi * np.outer(q_r - b_width // 2 + 1, k) * s / n)
    return (phase * g[:, :m]).sum(axis=0) * (mp / (n_mu * float(n)))


def design_workspace(params: SoiParams) -> int:
    """Bytes the length-n inverse plan holds on this thread after the
    tables of *params* were built from a cold cache."""
    cache_clear()
    get_tables(params)
    return get_plan(params.n, +1).workspace_bytes()


class TestDesignTime:
    @pytest.mark.parametrize("n", [7168, 57344])
    def test_the_design_transform_keeps_no_workspace(self, n):
        assert design_workspace(geometry(n)) == 0

    def test_the_check_can_fail(self, monkeypatch):
        monkeypatch.setattr(window, "_demod_table", batched_demod_table)
        params = geometry(7168)
        # two (n_mu, n) buffers: the work buffer and the alternate
        assert design_workspace(params) == 2 * params.n_mu * signal_bytes(
            params)

    def test_the_table_is_the_batched_one_bitwise(self):
        tables = window.build_tables(geometry(57344))
        want = batched_demod_table(tables.params, tables.coeffs, tables.q_r)
        assert np.array_equal(tables.demod, want)


# -- (b) steady state, and the accounting ------------------------------------

#: signals an unverified call at n = 458752 may hold (see the module doc)
STEADY_SIGNALS = 2.89


def steady_workspace(params: SoiParams) -> int:
    f = SoiFFT(params)
    f.release_workspaces()  # the cached FFT plans are shared: start cold
    f(random_complex(np.random.default_rng(1), params.n))
    return f.workspace_bytes()


class TestSteadyState:
    def test_an_unverified_call_holds_at_most_five_signals(self):
        # named for the bound's first value (the layout with a gathered
        # input); it holds STEADY_SIGNALS now
        params = geometry(458752)
        assert steady_workspace(params) <= STEADY_SIGNALS * signal_bytes(
            params)

    def test_the_check_can_fail(self, monkeypatch):
        keep_every_buffer(monkeypatch)
        params = geometry(458752)
        assert steady_workspace(params) > STEADY_SIGNALS * signal_bytes(
            params)

    def test_each_buffer_is_counted_once(self, rng):
        params = geometry(57344)
        f = SoiFFT(params)
        f.release_workspaces()
        f(random_complex(rng, params.n))
        stage = list(f._bufpool[1].values())

        def kernels():
            return f._conv_ws.nbytes() + sum(
                plan.workspace_bytes() for plan in (f._seg_plan, f._lane_plan)
                if plan is not None)
        total = f.workspace_bytes()
        assert total == distinct_bytes(stage) + sum(cpupool.on_each(kernels))
        # alpha: no stage buffer is a view of another
        assert distinct_bytes(stage) == sum(b.nbytes for b in stage)


# -- (c) verified calls run through the same stage buffer; alpha outlives
# -- the back --------------------------------------------------------------

def overlapping_stage_buffers(plan: SoiFFT) -> list:
    """Pairs of the buffers a one-frame call runs through — the stage
    buffer and the segment FFT's two (a planned call's are in its
    workspace, an unplanned one's in the segment plan's pool) — that
    share memory."""
    bufs = plan._buffers(1)
    assert sorted(bufs) == ["alpha"]
    plan(np.zeros(plan.params.n, dtype=plan.dtype))
    for rows, pool in plan._seg_plan._pool.items():
        bufs.update({f"fft{rows}.{k}": b for k, b in enumerate(pool)
                     if b is not None})
    work = plan._conv_ws._local.__dict__["bufs"]
    bufs.update({name: b for (name, *_), b in work.items()
                 if name.startswith("segment fft")})
    assert len(bufs) > 1 + plan._keeps_stages  # else vacuous
    return [(a, b) for a, b in itertools.combinations(sorted(bufs), 2)
            if np.shares_memory(bufs[a], bufs[b])]


def alpha_survives(plan: SoiFFT, rng) -> bool:
    """Whether one call leaves ``alpha`` the back's input: the back
    kernel, batch-invariant, maps it to a fault-free call's output rows
    bitwise (the call's own rows may have been repaired from it)."""
    x = random_complex(rng, PARAMS.n)
    plan(x)
    got = back(plan._buffers(1)["alpha"][0], plan.tables, plan._seg_plan,
               lend=False)
    return np.array_equal(got.reshape(-1), SoiFFT(PARAMS)(x))


class TestVerifiedCalls:
    def test_a_verified_call_shares_no_stage_memory(self, rng):
        # alpha apart from the segment FFT's buffers, and intact after the
        # back: a repair reads it
        plan = SoiFFT(PARAMS, verify=True)
        assert overlapping_stage_buffers(plan) == []
        assert alpha_survives(plan, rng)

    @pytest.mark.parametrize("telemetry", [None, "armed"])
    def test_an_unverified_call_shares_two_arenas(self, telemetry):
        # the name is the one the test had when beta was a stage buffer:
        # alpha and the segment plan's alternate are apart, as on a
        # verified call (the FFT works in alpha, not in a view of it)
        if telemetry:
            telemetry = Telemetry(metrics=MetricsRegistry())
        plan = SoiFFT(PARAMS, telemetry=telemetry)
        assert overlapping_stage_buffers(plan) == []

    def test_the_check_can_fail(self, monkeypatch, rng):
        alias_verified_calls(monkeypatch)
        # alpha is gone when the back's check runs: a clean call's
        # functional reads the clobbered alpha and flags the back, and the
        # repair recomputes from it
        plan = SoiFFT(PARAMS, verify=True)
        assert not alpha_survives(plan, rng)
        assert plan.verifier.report.detected_stages == {"back"}
        with pytest.raises((AssertionError, VerificationError)):
            test_verify.TestSingleNodeVerification() \
                .test_a_repaired_lane_rounds_like_a_computed_one(rng)


# -- (d) end to end, in a fresh process --------------------------------------

# VmHWM, not ru_maxrss: a forked-then-exec'd child's ru_maxrss starts at
# its parent's resident size, the peak of its new address space does not
PEAK_PROBE = """
import sys
import numpy as np
from repro.core.params import SoiParams
from repro.core.soi_single import SoiFFT

if sys.argv[1] == "keep_every_buffer":
    # the layout this gate was written against: the segment FFT keeps
    # alpha, and the unfused front's two outputs, the convolution's u and
    # the lane transform's z, hold (and write) buffers of their own
    SoiFFT._keeps_stages = property(lambda self: True)
    real = SoiFFT._buffers

    def apart(self, batch, pool=None):
        pool = self._bufpool if pool is None else pool
        if batch not in pool:
            bufs = real(self, batch, pool)
            bufs["u"], bufs["z"] = (np.ones_like(bufs["alpha"])
                                    for _ in range(2))
        return pool[batch]
    SoiFFT._buffers = apart
n = 3670016

def rss():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024

interpreter = rss()
rng = np.random.default_rng(2013)
x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
out = np.empty(n, dtype=np.complex128)
f = SoiFFT(SoiParams(n=n, n_procs=1, segments_per_process=8, n_mu=8,
                     d_mu=7, b=48))
for _ in range(4):
    f(x, out=out)
print((rss() - interpreter) / (n * 16))
"""


def peak_over_signal(mutant: str = "none") -> float:
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=f"{root / 'src'}{os.pathsep}{root}")
    done = subprocess.run([sys.executable, "-c", PEAK_PROBE, mutant],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return float(done.stdout)


#: signals a fresh process at n = 3670016 may peak at (see the module doc)
PEAK_SIGNALS = 7.86


class TestPeak:
    def test_construction_and_four_calls_peak_under_ten_signals(self):
        # named for the bound's first value; it holds PEAK_SIGNALS now
        assert peak_over_signal() <= PEAK_SIGNALS

    def test_the_check_can_fail(self):
        assert peak_over_signal("keep_every_buffer") > PEAK_SIGNALS


# -- frame-major blocks keep their size --------------------------------------

#: ``_frame_bytes()`` of bench/e2e's batch_small geometry (n = 7168): the
#: extended input and the unfused pipeline's four stage buffers of
#: 8 x 1024 complex128 each.
SMALL_FRAME_BYTES = 644992


class TestFrameMajorBlocks:
    def test_the_frame_count_is_unchanged(self, monkeypatch):
        f = SoiFFT(geometry(7168))
        assert f._frame_bytes() == SMALL_FRAME_BYTES
        blocks = []
        monkeypatch.setattr(SoiFFT, "_frame_major",
                            lambda self, xs, res, block, parts, deadline:
                            blocks.append((block, parts)))
        f.batch(np.zeros((64, 7168), dtype=np.complex128))
        if cpupool.size() < 2:
            assert blocks == []
            pytest.skip("1 cpu: no frame-major batch")
        (block, parts), = blocks
        assert block == min(SoiFFT._BATCH_CACHE_BUDGET
                            // (SMALL_FRAME_BYTES * parts), -(-64 // parts))
        if parts == 2:
            assert block == 6  # the block batch_small was sized with
