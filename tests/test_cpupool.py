"""The per-cpu worker pool ``SoiFFT`` stages run on: who is bound to what,
errors, re-entry, and the guards that keep it the only one.

Each contract is a ``check_*(run)`` over a fork/join function, passed the
pool's own :func:`repro.core.cpupool.run` — and a test-local mutant of it
that must turn the check red.
"""

import ast
import gc
import inspect
import os
import sys
import threading
import time
import weakref
from pathlib import Path
from queue import SimpleQueue

import numpy as np
import pytest

import repro
from repro.core import cpupool, soi_single
from repro.core.params import SoiParams
from repro.core.soi_single import SoiFFT, _cuts
from tests.conftest import random_complex

CPUS = sorted(os.sched_getaffinity(0))
needs_two_cpus = pytest.mark.skipif(len(CPUS) < 2, reason="1 cpu")

#: one frame is 1 MiB of stage buffer: shared out under the default rule
POOLED = SoiParams(n=7 * 2 ** 13, n_procs=1, segments_per_process=8,
                   n_mu=8, d_mu=7, b=48)


def serial_plan(params) -> SoiFFT:
    """The same transform with the size rule out of reach: one range."""
    f = SoiFFT(params)
    f._POOL_MIN_SHARE = 1 << 60
    return f


class TestCuts:
    def test_ranges_cover_and_sit_on_the_global_grid(self):
        for total, grid, parts in [(65536, 512, 2), (65536, 1024, 3),
                                   (8, 1, 2), (8, 1, 3), (13, 1, 2),
                                   (1024, 1024, 2), (1000, 64, 4), (1, 1, 2)]:
            cuts = _cuts(total, grid, parts)
            assert 1 <= len(cuts) <= parts
            assert cuts[0][0] == 0 and cuts[-1][1] == total
            assert all(a[1] == b[0] for a, b in zip(cuts, cuts[1:]))
            assert all(lo < hi for lo, hi in cuts)
            assert all(hi % grid == 0 for _, hi in cuts[:-1])

    def test_the_size_rule(self, monkeypatch):
        monkeypatch.setattr(cpupool, "size", lambda: 4)
        rung = SoiFFT(SoiParams(n=896, n_procs=1, segments_per_process=8,
                                n_mu=8, d_mu=7, b=48))
        # a frame under one convolution tile never reaches the pool
        assert rung._parts(1) == rung._parts(32) == rung._parts(4096) == 1
        f = SoiFFT(POOLED)  # 1 MiB a frame, 512 KiB a share
        assert [f._parts(b) for b in (1, 2, 3)] == [2, 4, 4]
        small = SoiFFT(SoiParams(n=7168, n_procs=1, segments_per_process=8,
                                 n_mu=8, d_mu=7, b=48))  # 128 KiB a frame
        assert [small._parts(b) for b in (1, 7, 8, 13)] == [1, 1, 2, 3]


@needs_two_cpus
class TestWhoIsBound:
    def test_one_thread_per_cpu_each_bound_to_its_own(self):
        masks = cpupool.run([lambda: os.sched_getaffinity(0)] * len(CPUS))
        assert sorted(masks, key=min) == [{cpu} for cpu in CPUS]
        assert cpupool.size() == len(CPUS)
        workers = [t for t in threading.enumerate()
                   if t.name.startswith("repro-cpu")]
        assert len(workers) == len(CPUS) and all(t.daemon for t in workers)

    def test_the_caller_is_never_bound_and_never_computes(self):
        before, me = os.sched_getaffinity(0), threading.get_ident()
        f = SoiFFT(POOLED)
        seen = set()
        real = f._seg_plan.__class__.__call__

        def spy(plan, x, out=None):
            seen.add(threading.get_ident())
            return real(plan, x, out=out)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(f._seg_plan.__class__, "__call__", spy)
            f(random_complex(np.random.default_rng(1), POOLED.n))
        assert len(seen) == 2 and me not in seen
        assert os.sched_getaffinity(0) == before


class TestIdleWorkersHoldNothing:
    def test_a_plan_is_collectable_after_a_pooled_call(self):
        # the slices close over the plan's stage buffers and the caller's
        # arrays; a worker waiting for its next slice must not keep them
        f = SoiFFT(POOLED)
        x = random_complex(np.random.default_rng(4), POOLED.n)
        y = f(x)
        plan, spectrum = weakref.ref(f), weakref.ref(y)
        del f, y
        gc.collect()
        assert plan() is None and spectrum() is None

    def test_a_plan_is_collectable_after_a_frame_major_batch(self):
        # the workers' stage buffers die with the plan, and the claim loop
        # keeps nothing of the call
        params = SoiParams(n=7168, n_procs=1, segments_per_process=8,
                           n_mu=8, d_mu=7, b=48)
        f = SoiFFT(params)
        y = f.batch(random_complex(np.random.default_rng(4), 8, params.n))
        plan, spectrum = weakref.ref(f), weakref.ref(y)
        del f, y
        gc.collect()
        assert plan() is None and spectrum() is None


# -- errors: original type, after every slice has joined ---------------------

class Boom(KeyError):
    pass


def check_errors(run):
    finished = []

    def slow():
        time.sleep(0.05)
        finished.append(1)

    def boom():
        raise Boom("slice 1")
    try:
        run([slow, boom])
    except Boom:
        # no slice is still writing when the caller unwinds
        assert finished == [1], "raised before every slice had joined"
    else:
        raise AssertionError("the slice's error never reached the caller")
    assert sorted(run([lambda: 1, lambda: 2])) == [1, 2], \
        "the pool did not serve the next call"


def swallowing_run(fns):
    """Mutant: a worker's error stays on the worker."""
    def quiet(fn):
        try:
            return fn()
        except Boom:
            return None
    return cpupool.run([lambda fn=fn: quiet(fn) for fn in fns])


def unjoined_run(fns):
    """Mutant: the first error unwinds the caller; the rest still run."""
    latch = SimpleQueue()

    def report(fn):
        try:
            latch.put((fn(), None))
        except Boom as exc:
            latch.put((None, exc))
    for fn in fns:
        threading.Thread(target=report, args=(fn,), daemon=True).start()
    out = []
    for _ in fns:
        result, exc = latch.get(timeout=10)
        if exc is not None:
            raise exc
        out.append(result)
    return out


class TestErrors:
    def test_a_slice_error_is_raised_on_the_caller_after_the_join(self):
        check_errors(cpupool.run)

    @pytest.mark.parametrize("mutant", [swallowing_run, unjoined_run])
    def test_the_check_can_fail(self, mutant):
        with pytest.raises(AssertionError):
            check_errors(mutant)

    def test_a_kernel_error_leaves_the_plan_and_the_pool_usable(
            self, monkeypatch):
        x = random_complex(np.random.default_rng(2), POOLED.n)
        f, want = SoiFFT(POOLED), serial_plan(POOLED)(x)
        real = soi_single.demodulate

        def struck(beta, tables, out=None):
            if out.ctypes.data != f_out.ctypes.data:  # not the first slice
                raise Boom("a later slice")
            return real(beta, tables, out=out)
        f_out = np.empty(POOLED.n, dtype=complex)
        if f._parts(1) > 1:
            monkeypatch.setattr(soi_single, "demodulate", struck)
            with pytest.raises(Boom):
                f(x, out=f_out)
            monkeypatch.setattr(soi_single, "demodulate", real)
        assert np.array_equal(f(x, out=f_out), want)


# -- re-entry: every caller waits on its own latch ---------------------------

def check_reentry(run, rounds=12):
    """Two callers at once, one with quick slices and one with slow ones:
    each must find all of its own slices done when its ``run`` returns."""
    failures = []

    def caller(delay):
        for _ in range(rounds):
            done = [False, False]

            def work(i):
                time.sleep(delay)
                done[i] = True
            run([lambda: work(0), lambda: work(1)])
            if not all(done):
                failures.append(f"returned before its {delay} s slices")
                return
    threads = [threading.Thread(target=caller, args=(d,), daemon=True)
               for d in (0.0005, 0.01)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=20)
    assert not any(t.is_alive() for t in threads), \
        "a caller never got its completions"
    assert not failures, failures


def shared_latch_run():
    """Mutant: one latch for the process — a caller can be woken by the
    completions of another caller's slices."""
    latch = SimpleQueue()

    def run(fns):
        for fn in fns:
            threading.Thread(target=lambda fn=fn: latch.put(fn()),
                             daemon=True).start()
        return [latch.get() for _ in fns]
    return run


class TestReentry:
    def test_concurrent_callers_each_get_their_own_completions(self):
        check_reentry(cpupool.run)

    def test_the_check_can_fail(self):
        with pytest.raises(AssertionError, match="returned before"):
            check_reentry(shared_latch_run())

    def test_two_plans_on_two_threads_both_finish_with_the_serial_bits(self):
        rng = np.random.default_rng(3)
        geometries = [POOLED, SoiParams(n=7 * 2 ** 14, n_procs=1,
                                        segments_per_process=8, n_mu=8,
                                        d_mu=7, b=48)]
        xs = [random_complex(rng, p.n) for p in geometries]
        want = [serial_plan(p)(x) for p, x in zip(geometries, xs)]
        plans = [SoiFFT(p) for p in geometries]
        got = [[], []]

        def caller(i):
            for _ in range(6):
                got[i].append(plans[i](xs[i]))
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
        assert not any(t.is_alive() for t in threads)
        for i in range(2):
            assert len(got[i]) == 6
            assert all(np.array_equal(y, want[i]) for y in got[i])


# -- guards: one pool, one binding site, no new knob -------------------------

def sites(name: str, sources: dict) -> list:
    """``file:line`` of every call whose function is spelt ``...name``."""
    hits = []
    for rel, text in sorted(sources.items()):
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call) and name == getattr(
                    node.func, "attr", getattr(node.func, "id", None)):
                hits.append(f"{rel}:{node.lineno}")
    return hits


class TestGuards:
    @pytest.fixture(scope="class")
    def core_sources(self):
        core = Path(repro.__file__).parent / "core"
        return {f.name: f.read_text() for f in core.glob("*.py")}

    def test_one_binding_site_and_one_thread_site(self, core_sources):
        for name in ("sched_setaffinity", "Thread"):
            hits = sites(name, core_sources)
            assert len(hits) == 1 and hits[0].startswith("cpupool.py:"), hits
        # nothing else under src/ binds a thread either
        src = Path(repro.__file__).parent
        everywhere = {str(f.relative_to(src)): f.read_text()
                      for f in src.rglob("*.py")}
        assert [h.split(":")[0] for h in sites("sched_setaffinity",
                                               everywhere)
                ] == ["core/cpupool.py"]
        # the guard sees a second site
        core_sources = dict(core_sources, mutant="import os\n"
                            "os.sched_setaffinity(0, {0})\n")
        assert len(sites("sched_setaffinity", core_sources)) == 2

    def test_two_sites_share_work_on_the_pool(self, core_sources):
        # the stage share and the block claim: a third would be a third
        # way of cutting a call's work
        def pool_runs(text):
            return [n.lineno for n in ast.walk(ast.parse(text))
                    if isinstance(n, ast.Call)
                    and getattr(n.func, "attr", None) == "run"
                    and getattr(n.func.value, "id", None) == "cpupool"]
        single = core_sources["soi_single.py"]
        assert len(pool_runs(single)) == 2, pool_runs(single)
        # the guard sees a third site
        assert len(pool_runs(single + "\ncpupool.run([print])\n")) == 3

    def test_no_new_knob(self, core_sources):
        assert str(inspect.signature(SoiFFT.__init__)) == (
            "(self, params: 'SoiParams', window=None, "
            "dtype=<class 'numpy.complex128'>, verify=False, "
            "telemetry=None)")
        for name in ("cpupool.py", "soi_single.py", "convolution.py"):
            assert "environ" not in core_sources[name]
            assert "threadpoolctl" not in core_sources[name]
