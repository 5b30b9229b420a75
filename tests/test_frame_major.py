"""Frame-major batches: each worker claims whole blocks of frames from one
counter and runs every stage on them, and the caller joins once.

What is held here: the bits (frame-major == stage-major == one frame at a
time), the claiming (a slow worker runs fewer blocks, every frame runs
once), and the contract between blocks (the deadline is checked before
every claim; after a block or a check raised, nobody claims).  Each
contract has a test-local mutant of :func:`repro.core.soi_single._claim`
that must turn it red.
"""

import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import cpupool, soi_single
from repro.core.params import SoiParams
from repro.core.soi_single import SoiFFT
from repro.resilience.deadline import DeadlineExceeded
from repro.telemetry import MetricsRegistry, Telemetry
from tests.conftest import random_complex

needs_two_cpus = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                                    reason="1 cpu")


def geometry(n: int) -> SoiParams:
    return SoiParams(n=n, n_procs=1, segments_per_process=8, n_mu=8, d_mu=7,
                     b=48)


#: 630 KiB of stage buffer a frame: 6 frames a block on two workers
SMALL = geometry(7168)


def claims(monkeypatch) -> list:
    """One entry per worker loop a frame-major batch starts from here on."""
    seen, real = [], soi_single._claim

    def counting(*args):
        seen.append(args)
        return real(*args)
    monkeypatch.setattr(soi_single, "_claim", counting)
    return seen


# -- bits ------------------------------------------------------------------

class TestBits:
    @pytest.mark.parametrize("n, frames, dtype, frame_major", [
        (7168, 64, np.complex128, True),  # ten blocks of 6 and one of 4
        (7168, 64, np.complex64, True),
        (7168, 8, np.complex128, True),  # fewer frames than workers x 6
        (7168, 3, np.complex128, True),  # blocks of 2 and 1 (pooled below)
        (7168, 3, np.complex64, True),
        (57344, 5, np.complex128, False),  # a frame over a worker's share
    ])
    def test_frame_major_is_stage_major_is_one_frame(self, monkeypatch, n,
                                                     frames, dtype,
                                                     frame_major):
        monkeypatch.setattr(SoiFFT, "_POOL_MIN_SHARE", 64 << 10)
        params = geometry(n)
        xs = random_complex(np.random.default_rng(n + frames), frames,
                            n).astype(dtype)
        plan = SoiFFT(params, dtype=dtype)
        # an armed telemetry forces the observed, stage-major path
        staged = SoiFFT(params, dtype=dtype,
                        telemetry=Telemetry(metrics=MetricsRegistry()))
        ran = claims(monkeypatch)
        got = plan.batch(xs)
        assert bool(ran) == (frame_major and cpupool.size() > 1)
        del ran[:]
        want = staged.batch(xs)
        assert not ran
        assert np.array_equal(got, want)
        for i in range(frames):
            assert np.array_equal(got[i], plan(xs[i])), i


# -- claiming --------------------------------------------------------------

def check_claiming(plan: SoiFFT, xs: np.ndarray) -> None:
    """Slow every block one worker runs: the others must run more of them,
    and every frame must be computed exactly once."""
    slow = f"repro-cpu{max(os.sched_getaffinity(0))}"
    out = np.empty_like(xs)
    base, frame_bytes = out.ctypes.data, xs.shape[1] * xs.itemsize
    ran, real = [], soi_single.demodulate

    def demodulate(beta, tables, out=None):
        # a block's demodulation is one call on the thread that claimed it
        me = threading.current_thread().name
        first = (out.ctypes.data - base) // frame_bytes
        ran.append((me, list(range(first, first + out.shape[0]))))
        if me == slow:
            time.sleep(0.1)
        return real(beta, tables, out=out)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(soi_single, "demodulate", demodulate)
        plan.batch(xs, out=out)
    frames = sorted(f for _, block in ran for f in block)
    assert frames == list(range(xs.shape[0])), "a frame ran twice or never"
    mine = sum(who == slow for who, _ in ran)
    assert mine <= len(ran) // (2 * cpupool.size()), \
        f"the slow worker ran {mine} of {len(ran)} blocks"


def static_split(parts: int):
    """Mutant: the blocks are dealt out in fixed contiguous shares, one per
    worker, before any of them runs."""
    shares, guard, real = [], threading.Lock(), soi_single._claim

    def claim(starts, lock, stop, run_block, deadline):
        with guard:
            if not shares:
                shares.extend(iter(s.tolist()) for s in
                              np.array_split(np.array(list(starts)), parts))
            mine = shares.pop()
        return real(mine, lock, stop, run_block, deadline)
    return claim


@needs_two_cpus
class TestClaiming:
    def test_a_slow_worker_runs_fewer_blocks(self):
        xs = random_complex(np.random.default_rng(5), 64, SMALL.n)
        check_claiming(SoiFFT(SMALL), xs)

    def test_the_check_can_fail(self, monkeypatch):
        xs = random_complex(np.random.default_rng(5), 64, SMALL.n)
        plan = SoiFFT(SMALL)
        monkeypatch.setattr(soi_single, "_claim",
                            static_split(plan._parts(len(xs))))
        with pytest.raises(AssertionError, match="slow worker"):
            check_claiming(plan, xs)


# -- between blocks: the deadline and errors -------------------------------

class CountingDeadline:
    """A deadline that expires after *k* checks."""

    def __init__(self, k: int):
        self.k, self.checks = k, 0

    def check(self, stage: str = "") -> None:
        self.checks += 1
        if self.checks > self.k:
            raise DeadlineExceeded(f"check {self.checks} at {stage}",
                                   stage=stage)


def spied_blocks(plan: SoiFFT, first_raises: bool = False) -> tuple:
    """(started, finished): one entry per block of *plan*'s frame-major
    batches; with *first_raises*, the first block to start raises Boom."""
    started, finished, real = [], [], plan._execute
    lock = threading.Lock()

    def execute(xs, res, bufs=None):
        with lock:
            first = not started
            started.append(True)
        if first_raises and first:
            raise Boom("the first block")
        real(xs, res, bufs)
        finished.append(True)
    plan._execute = execute
    return started, finished


def check_deadline(plan: SoiFFT, xs: np.ndarray, k: int = 4) -> None:
    """A deadline that fires after the entry check and k - 1 claims: just
    those k - 1 blocks run, and the caller raises once they finished."""
    started, finished = spied_blocks(plan)
    try:
        plan.batch(xs, deadline=CountingDeadline(k))
    except DeadlineExceeded:
        assert len(finished) == len(started), "raised before the join"
    else:
        raise AssertionError("the batch ran past its deadline")
    assert len(started) == k - 1, f"{len(started)} blocks started"


class Boom(KeyError):
    pass


def check_errors(plan: SoiFFT, xs: np.ndarray) -> None:
    """The first block raises: its error reaches the caller, and the other
    workers finish the block they hold and claim no other."""
    started, _ = spied_blocks(plan, first_raises=True)
    with pytest.raises(Boom):
        plan.batch(xs)
    assert len(started) <= cpupool.size(), \
        f"{len(started)} blocks started, the first of them raised"


REAL_CLAIM = soi_single._claim


def unchecked(starts, lock, stop, run_block, deadline):
    """Mutant: the claim loop without the deadline check."""
    return REAL_CLAIM(starts, lock, stop, run_block, None)


def unstopped(starts, lock, stop, run_block, deadline):
    """Mutant: an error stops only the worker whose block raised."""
    return REAL_CLAIM(starts, lock, [], run_block, deadline)


@needs_two_cpus
class TestBetweenBlocks:
    @pytest.fixture()
    def batch(self):
        return random_complex(np.random.default_rng(6), 64, SMALL.n)

    def test_the_deadline_is_checked_before_every_claim(self, batch):
        check_deadline(SoiFFT(SMALL), batch)

    def test_after_an_error_nobody_claims(self, batch):
        check_errors(SoiFFT(SMALL), batch)

    @pytest.mark.parametrize("mutant, check", [(unchecked, check_deadline),
                                               (unstopped, check_errors)])
    def test_the_checks_can_fail(self, monkeypatch, batch, mutant, check):
        monkeypatch.setattr(soi_single, "_claim", mutant)
        with pytest.raises(AssertionError):
            check(SoiFFT(SMALL), batch)

    def test_the_plan_and_the_pool_serve_the_next_call(self, batch):
        plan, want = SoiFFT(SMALL), SoiFFT(SMALL).batch(batch)
        with pytest.raises(DeadlineExceeded):
            plan.batch(batch, deadline=CountingDeadline(2))
        assert np.array_equal(plan.batch(batch), want)


@needs_two_cpus
def test_concurrent_callers_under_a_short_switch_interval():
    """Two threads batch on two plans at once, each call claiming from its
    own counter, with the interpreter switching every 10 us: a block lost
    or run twice leaves NaN or another call's frames in the result."""
    rng = np.random.default_rng(7)
    plans = [SoiFFT(SMALL), SoiFFT(SMALL, dtype=np.complex64)]
    xs = [random_complex(rng, 26, SMALL.n).astype(p.dtype) for p in plans]
    want = [np.stack([p(row) for row in x]) for p, x in zip(plans, xs)]
    bad = []

    def caller(i):
        out = np.empty_like(xs[i])
        for _ in range(8):
            out.fill(np.nan)
            if not np.array_equal(plans[i].batch(xs[i], out=out), want[i]):
                bad.append(i)
    threads = [threading.Thread(target=caller, args=(i,), daemon=True)
               for i in range(2)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads), "a caller never returned"
    assert not bad, bad
