"""The five workloads of the wall-clock benchmark and their layer ledger.

Every workload is driven through the repo's public API only; nothing under
``src/`` knows it is being measured.  A workload object offers

``setup()`` / ``teardown()``
    build everything a caller builds before the first result (tables,
    plans, ladder, gateway, workers) plus the first warm call, and release
    it again — ``setup_s`` is the fastest of :data:`SETUP_REPEATS` of these;
``untraced(seconds)``
    the timed section the end-to-end metrics come from;
``traced(seconds, rec)``
    a second pass in which the benchmark's own spans wrap each call and
    each layer's public functions are called from outside on the workload's
    own shapes — the per-layer metrics come from this pass.

Correctness (tolerance against ``numpy.fft``, bitwise contracts, outcome
conservation) is checked outside the timed sections; every miss counts in
``failed``.
"""

from __future__ import annotations

import asyncio
import os
import resource
import sys
import threading
import time
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402  (run.py pins the BLAS threads first)

from repro.cluster.backends import ProcessBackend  # noqa: E402
from repro.cluster.simcluster import SimCluster  # noqa: E402
from repro.cluster.spmd import AllToAll  # noqa: E402
from repro.core.convolution import (  # noqa: E402
    ConvWorkspace,
    block_range_for_rows,
    convolve,
)
from repro.core.demodulate import demodulate  # noqa: E402
from repro.core.params import SoiParams  # noqa: E402
from repro.core.soi_dist import DistributedSoiFFT  # noqa: E402
from repro.core.soi_single import SoiFFT  # noqa: E402
from repro.core.window import build_tables  # noqa: E402
from repro.fft.plan import cache_clear, get_plan  # noqa: E402
from repro.resilience.deadline import DeadlineExceeded, Overloaded  # noqa: E402
from repro.resilience.ladder import DegradationLadder  # noqa: E402
from repro.serve.coalesce import CoalesceKey, Coalescer, PendingRequest  # noqa: E402
from repro.serve.gateway import AsyncSoiGateway  # noqa: E402
from repro.serve.loadgen import poisson_arrivals  # noqa: E402
from repro.serve.qos import QosPolicy  # noqa: E402
from repro.telemetry.export import chrome_trace_json  # noqa: E402
from repro.telemetry.spans import SpanRecorder  # noqa: E402

#: Stated accuracy: worst relative L2 error against ``numpy.fft.fft``.
TOLERANCE = 1e-5
#: Set-ups per run; ``setup_s`` is the fastest.  Set-up is mostly first
#: touches of memory, and a page this guest has not touched lately costs
#: ~130 us to fault in, at random: seven set-ups of ``dist_process`` in
#: one process took 1.6-11 s, their median over six processes 2.1-6.4 s,
#: the fastest of the first five 1.6-2.0 s.
SETUP_REPEATS = 5
#: Distinct seeded inputs a closed loop rotates through.
DISTINCT_INPUTS = 4
#: Signals the open-loop generator draws requests from.
SIGNAL_POOL = 64
#: Gateway outputs kept per pass for the bitwise and tolerance checks.
SERVE_SAMPLES = 32
#: The generator's own lateness above which a serve run is flagged:
#: a tenth of the serve latency limit.
LATENESS_LIMIT_MS = 2.5
#: ``np.copyto`` array size for ``machine.copy_gb_s``: 32 x the 2 MiB L2
#: of a core.  (The 260 MiB L3 of the sizing host is shared with other
#: guests; a copy this size fits it and may still come from DRAM.)
COPY_BYTES = 64 << 20
#: The latency quantile the end-to-end metrics gate.  On a shared host
#: whole seconds run 10-30 % slow; the median of a run moves with them
#: (spread 0.17 in sizing), the lower decile does not (0.05).
QUIET_PERCENTILE = 10

TENANT = "bench"
WORKERS = 2

clock = time.perf_counter


class SkipWorkload(Exception):
    """A precondition of the workload is missing on this host."""


def reference_fft(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The external floor and the correctness reference.  Timed with
    ``out=``, like the plans it is compared with: whether a fresh result
    array page-faults depends on what the allocator was asked before."""
    return np.fft.fft(x, axis=-1, out=out)


def rel_error(y: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(np.ravel(y) - np.ravel(ref))
                 / np.linalg.norm(ref))


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def p50(seconds) -> float:
    return float(np.median(seconds))


def p50_ms(seconds) -> float:
    return p50(seconds) * 1e3


def quiet(seconds) -> float:
    return float(np.percentile(seconds, QUIET_PERCENTILE))


def latency_note(seconds) -> str:
    """Sample count, median, and the highest percentile with at least ten
    samples beyond it."""
    n = len(seconds)
    note = f"{n} samples; p50 {p50_ms(seconds):.3f} ms"
    for pct in (99.9, 99.0, 95.0, 90.0):
        beyond = int(n * (1 - pct / 100))
        if beyond >= 10:
            value = float(np.percentile(seconds, pct)) * 1e3
            return f"{note}; p{pct:g} {value:.3f} ms with {beyond} beyond"
    return note


def timed(fn, repeats: int) -> list[float]:
    out = []
    for _ in range(repeats):
        t0 = clock()
        fn()
        out.append(clock() - t0)
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def span_seconds(rec: SpanRecorder, name: str) -> list[float]:
    return [s.duration for s in rec.spans if s.name == name]


def span_p50(rec: SpanRecorder, name: str) -> float:
    return p50(span_seconds(rec, name))


def record_span(rec: SpanRecorder, name: str, fn, **attributes):
    t0 = clock()
    out = fn()
    rec.record(0, name, "layer", t0, clock(), attributes=attributes or None)
    return out


# -- layers timed from outside ------------------------------------------------


class KernelLayers:
    """Convolution, segment FFT and demodulation on one workload's shapes.

    *x_ext* is the ghost-extended input of the rows
    ``[j_start, j_start + n_rows)`` — ``(frames, ext)`` for a single-node
    plan, 1-D for one rank of a distributed plan; *seg_rows* is how many
    length-M' segment transforms one call runs.
    """

    def __init__(self, tables, x_ext, j_start, n_rows, block_lo, seg_rows,
                 rng):
        p = tables.params
        self.tables = tables
        self.x_ext = np.ascontiguousarray(x_ext)
        self.args = (j_start, n_rows, block_lo)
        self.u = np.empty(self.x_ext.shape[:-1] + (n_rows, p.n_segments),
                          dtype=np.complex128)
        self.workspace = ConvWorkspace()
        self.seg_plan = get_plan(p.m_oversampled, -1)
        self.alpha = complex_normal(rng, (seg_rows, p.m_oversampled))
        self.beta = np.empty_like(self.alpha)
        self.y = np.empty((seg_rows, p.m), dtype=np.complex128)
        #: 8 flops per complex multiply-add, B taps per output element.
        self.conv_flops = 8.0 * p.b * self.u.size
        #: Computed from array sizes; cache misses are not counted.
        self.conv_bytes = (self.x_ext.nbytes + self.u.nbytes
                           + tables.coeffs.nbytes)

    @classmethod
    def for_plan(cls, plan: SoiFFT, xs: np.ndarray, rng):
        """Shapes of ``plan(x)`` / ``plan.batch(xs)``: all rows, one node."""
        p = plan.params
        xs = np.atleast_2d(xs)
        lo, _ = block_range_for_rows(p, 0, p.m_oversampled)
        return cls(plan.tables, plan.extended_input(xs), 0, p.m_oversampled,
                   lo, xs.shape[0] * p.n_segments, rng)

    @classmethod
    def for_rank(cls, tables, x: np.ndarray, rng):
        """Shapes rank 0 of a distributed plan sees (all ranks are alike)."""
        p = tables.params
        blocks = p.n // (p.n_segments * p.n_procs)
        left, right = p.ghost_blocks
        idx = np.arange(-left * p.n_segments,
                        (blocks + right) * p.n_segments) % p.n
        return cls(tables, x[idx], 0, p.rows_per_process, -left,
                   p.segments_per_process, rng)

    def convolve(self):
        j_start, n_rows, block_lo = self.args
        convolve(self.x_ext, self.tables, j_start, n_rows, block_lo,
                 out=self.u, workspace=self.workspace)

    def segment_fft(self):
        self.seg_plan(self.alpha, out=self.beta)

    def demodulate(self):
        demodulate(self.beta, self.tables, out=self.y)

    def numpy_segment(self):
        np.fft.fft(self.alpha, axis=-1, out=self.beta)

    def run_traced(self, rec: SpanRecorder, **attributes):
        for name in ("convolve", "segment_fft", "demodulate",
                     "numpy_segment"):
            record_span(rec, name, getattr(self, name), **attributes)


def copy_gb_s() -> float:
    """Sustained copy bandwidth, read plus write bytes per second."""
    src = np.ones(COPY_BYTES // 8)
    dst = np.empty_like(src)
    best = min(timed(lambda: np.copyto(dst, src), 7))
    return 2 * COPY_BYTES / best / 1e9


def kernel_metrics(rec: SpanRecorder, kernels: KernelLayers,
                   params: SoiParams) -> dict:
    """Per-layer metrics every workload reports, from the traced spans."""
    conv = span_p50(rec, "convolve")
    seg = span_p50(rec, "segment_fft")
    np_seg = span_p50(rec, "numpy_segment")
    copy = copy_gb_s()
    conv_gb_s = kernels.conv_bytes / conv / 1e9

    def cold_plan():
        cache_clear()
        get_plan(params.m_oversampled, -1)

    return {
        "window.build_tables_s": p50(timed(lambda: build_tables(params), 3)),
        "fft_plan.get_plan_cold_s": p50(timed(cold_plan, 3)),
        "convolution.convolve_ms": conv * 1e3,
        "convolution.computed_gflop_s": kernels.conv_flops / conv / 1e9,
        "convolution.computed_gb_s": conv_gb_s,
        "convolution.bw_fraction": conv_gb_s / copy,
        "fft_plan.segment_fft_ms": seg * 1e3,
        "fft_plan.segment_fft_over_numpy": seg / np_seg,
        "demodulate.demodulate_ms": span_p50(rec, "demodulate") * 1e3,
        "numpy_fft.full_ms": span_p50(rec, "numpy_fft") * 1e3,
        "numpy_fft.segment_ms": np_seg * 1e3,
        "machine.copy_gb_s": copy,
    }


def glue_metrics(rec: SpanRecorder, call_seconds) -> dict:
    """What a single-node call spends outside the three timed kernels:
    gather, lane DFT, stride permutation and Python dispatch."""
    call = p50(call_seconds)
    kernels = sum(span_p50(rec, name)
                  for name in ("convolve", "segment_fft", "demodulate"))
    return {"soi_single.glue_ms": (call - kernels) * 1e3,
            "soi_single.glue_pct": (call - kernels) / call * 100}


def steady_alloc_kb(call) -> float:
    """Peak new bytes of one warm call: the zero-allocation contract."""
    call()
    tracemalloc.start()
    try:
        worst = 0
        for _ in range(3):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            call()
            worst = max(worst, tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    return worst / 1024


def overhead_pct(traced, bare) -> float:
    return (p50(traced) / p50(bare) - 1) * 100


# -- closed-loop transform workloads ----------------------------------------


class ClosedLoop:
    """One caller; the next call starts when the previous one returns."""

    #: A call slower than this misses the latency limit (about twice the
    #: median on the sizing host): the gate on the tail, whose percentiles
    #: do not repeat run to run.
    limit_ms = 250.0

    inputs: list[np.ndarray]
    params: SoiParams

    def op(self, i: int):
        raise NotImplementedError

    def spectrum(self, y) -> np.ndarray:
        return y

    def extra_checks(self, i: int, y) -> dict[str, bool]:
        """Further checks on output *y* of input *i*: name -> passed."""
        return {}

    def check(self) -> tuple[int, Counter, float]:
        """Each distinct input once more, output against the reference.
        Returns checks made, the failed ones by name, the worst error."""
        attempted, failures, worst = 0, Counter(), 0.0
        for i, x in enumerate(self.inputs):
            y = self.op(i)
            err = rel_error(self.spectrum(y), reference_fft(x))
            worst = max(worst, err)
            checks = self.extra_checks(i, y)
            checks["within tolerance of numpy"] = err <= TOLERANCE
            attempted += len(checks)
            failures.update(name for name, ok in checks.items() if not ok)
        return attempted, failures, worst

    def untraced(self, seconds: float) -> dict:
        ops, floors = [], []
        floor_out = np.empty_like(self.inputs[0])
        end = clock() + seconds
        while clock() < end:
            i = len(ops) % len(self.inputs)
            t0 = clock()
            self.op(i)
            t1 = clock()
            reference_fft(self.inputs[i], out=floor_out)
            floors.append(clock() - t1)
            ops.append(t1 - t0)
        attempted, failures, worst = self.check()
        return {
            "attempted": len(ops) + attempted,
            "failures": failures,
            "metrics": {
                "op_p10_ms": quiet(ops) * 1e3,
                "numpy_ratio": quiet(ops) / quiet(floors),
                "rel_error_max": worst,
                "slo_attainment_pct": float(np.mean(
                    np.array(ops) * 1e3 <= self.limit_ms)) * 100,
            },
            "notes": {"op_p10_ms": latency_note(ops),
                      "numpy_ratio": f"numpy p10 {quiet(floors) * 1e3:.3f} "
                                     f"ms, p50 {p50_ms(floors):.3f} ms",
                      "slo_attainment_pct": f"limit {self.limit_ms:g} ms"},
        }

    def kernel_layers(self, rng) -> KernelLayers:
        raise NotImplementedError

    def traced_extras(self, rec: SpanRecorder, call_id: int) -> None:
        """Further layer calls of one traced iteration."""

    def layer_metrics(self, rec: SpanRecorder, calls) -> dict:
        raise NotImplementedError

    def traced(self, seconds: float, rec: SpanRecorder) -> dict:
        kernels = self.kernel_layers(np.random.default_rng(0))
        bare = []
        floor_out = np.empty_like(self.inputs[0])
        end = clock() + seconds
        call_id = 0
        while clock() < end:
            i = call_id % len(self.inputs)
            bare.extend(timed(lambda: self.op(i), 1))
            scope = rec.begin(0, "iteration", "e2e", clock(),
                              attributes={"id": call_id})
            record_span(rec, "call", lambda: self.op(i), id=call_id)
            kernels.run_traced(rec, id=call_id)
            record_span(rec, "numpy_fft", lambda: reference_fft(
                self.inputs[i], out=floor_out), id=call_id)
            self.traced_extras(rec, call_id)
            rec.end(scope, clock())
            call_id += 1
        calls = span_seconds(rec, "call")
        attempted, failures, _ = self.check()
        metrics = kernel_metrics(rec, kernels, self.params)
        metrics.update(self.layer_metrics(rec, calls))
        metrics["trace_overhead_pct"] = overhead_pct(calls, bare)
        return {"attempted": 2 * call_id + attempted, "failures": failures,
                "metrics": metrics,
                "notes": {"trace_overhead_pct":
                          f"{call_id} traced against {call_id} bare calls"}}


class Transform(ClosedLoop):
    """``single_large`` and ``batch_small``: a planned single-node SoiFFT."""

    def __init__(self, seed: int, n: int, frames: int = 0):
        self.params = SoiParams(n=n, n_procs=1, segments_per_process=8,
                                n_mu=8, d_mu=7, b=48)
        rng = np.random.default_rng(seed)
        shape = (frames, n) if frames else (n,)
        self.inputs = [complex_normal(rng, shape)
                       for _ in range(DISTINCT_INPUTS)]
        self.out = np.empty(shape, dtype=np.complex128)
        self.plan = None

    def setup(self):
        cache_clear()
        self.plan = SoiFFT(self.params)
        self.op(0)

    def teardown(self):
        self.plan = None

    def op(self, i):
        x = self.inputs[i]
        if x.ndim == 2:
            return self.plan.batch(x, out=self.out)
        return self.plan(x, out=self.out)

    def kernel_layers(self, rng):
        return KernelLayers.for_plan(self.plan, self.inputs[0], rng)

    def layer_metrics(self, rec, calls):
        metrics = glue_metrics(rec, calls)
        metrics["soi_single.steady_alloc_kb"] = steady_alloc_kb(
            lambda: self.op(0))
        return metrics


def _noop_program(ctx, x_local, params, window, policy):
    """Same staged arguments and result slot as the SOI job, no work."""
    return x_local, None
    yield  # the backend runs generator programs only


def _alltoall_program(ctx, x_local, params, window, policy):
    """The SOI exchange's payload and nothing else."""
    rows, spp = params.rows_per_process, params.segments_per_process
    per_dest = [np.zeros((rows, spp), dtype=np.complex128)
                for _ in range(ctx.size)]
    yield AllToAll(per_dest)
    return x_local, None


class Dist(ClosedLoop):
    """``dist_process``: DistributedSoiFFT on two real worker processes."""

    def __init__(self, seed: int, n: int):
        if len(os.sched_getaffinity(0)) < WORKERS:
            raise SkipWorkload(
                f"needs {WORKERS} cpus for {WORKERS} worker processes; "
                f"this process may run on {len(os.sched_getaffinity(0))}")
        self.params = SoiParams(n=n, n_procs=WORKERS, segments_per_process=4,
                                n_mu=8, d_mu=7, b=48)
        rng = np.random.default_rng(seed)
        self.inputs = [complex_normal(rng, n) for _ in range(DISTINCT_INPUTS)]
        #: The rank-serial simulator: bitwise reference and 1-thread baseline.
        self.simulator = DistributedSoiFFT(SimCluster(WORKERS), self.params)
        self.parts = [self.simulator.scatter(x) for x in self.inputs]
        self.backend = self.dist = None
        self.spawn_first_job_s = 0.0
        self.bitwise_misses = 0

    def setup(self):
        cache_clear()
        self.backend = ProcessBackend(WORKERS)
        self.dist = DistributedSoiFFT(SimCluster(WORKERS), self.params,
                                      backend=self.backend)
        self.spawn_first_job_s = timed(lambda: self.op(0), 1)[0]

    def teardown(self) -> int:
        """Stop the workers; returns the shared segments left behind."""
        if self.backend is None:
            return 0
        self.backend.close()
        leaked = len(self.backend.janitor.orphans())
        self.backend = self.dist = None
        return leaked

    def op(self, i):
        return self.dist(self.parts[i])

    def spectrum(self, y):
        return np.concatenate(y)

    def extra_checks(self, i, y):
        expect = self.simulator(self.parts[i])
        same = all(np.array_equal(a, b) for a, b in zip(y, expect))
        self.bitwise_misses += not same
        return {"bitwise equal to the simulator": same}

    def kernel_layers(self, rng):
        return KernelLayers.for_rank(self.dist.tables, self.inputs[0], rng)

    def _job(self, program):
        chunk = self.params.elements_per_process
        self.backend.run(program, [(p,) for p in self.parts[0]],
                         common=(self.params, None, None),
                         machine=self.dist.cluster.machine,
                         result_spec=((chunk,), np.complex128),
                         label="bench job")

    def traced_extras(self, rec, call_id):
        record_span(rec, "dispatch", lambda: self._job(_noop_program),
                    id=call_id)
        record_span(rec, "alltoall", lambda: self._job(_alltoall_program),
                    id=call_id)
        record_span(rec, "rank_serial", lambda: self.simulator(self.parts[0]),
                    id=call_id)

    def layer_metrics(self, rec, calls):
        p = self.params
        call = p50(calls)
        dispatch = span_p50(rec, "dispatch")
        alltoall = span_p50(rec, "alltoall") - dispatch
        serial = span_p50(rec, "rank_serial")
        pairs = p.n_procs * (p.n_procs - 1)
        return {
            "backends.spawn_first_job_s": self.spawn_first_job_s,
            "backends.dispatch_ms": dispatch * 1e3,
            "backends.alltoall_ms": alltoall * 1e3,
            "backends.alltoall_bytes": float(
                pairs * p.alltoall_bytes_per_pair),
            "backends.alltoall_msgs": float(pairs),
            "soi_dist.rank_serial_ms": serial * 1e3,
            "soi_dist.parallel_efficiency": serial / (p.n_procs * call),
            "soi_dist.exposed_comm_fraction": (dispatch + alltoall) / call,
            "soi_dist.bitwise_equal": float(self.bitwise_misses == 0),
            # last, because counting leaks means closing the backend
            "shm.leaked_segments": float(self.teardown()),
        }


# -- open-loop serving workloads --------------------------------------------


class TimedExecutor(ThreadPoolExecutor):
    """The gateway's default 2-thread pool, with each hand-off timed."""

    workers = 2

    def __init__(self):
        super().__init__(max_workers=self.workers)
        #: (queued, started, ended) of every function the pool ran.
        self.records: list[tuple[float, float, float]] = []

    def submit(self, fn, *args, **kwargs):
        queued = clock()

        def run():
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.records.append((queued, started, clock()))

        return super().submit(run)


class RequestLog:
    """What the generator saw of each request of one open-loop pass."""

    def __init__(self, sent: int):
        self.due = np.zeros(sent)
        self.submitted = np.zeros(sent)
        self.done = np.zeros(sent)
        self.outcome = [""] * sent
        #: request index -> (spectrum, rung that served it), sampled.
        self.kept: dict[int, tuple[np.ndarray, int]] = {}
        self.cpu_seconds = 0.0
        self.wall_seconds = 0.0

    def count(self, outcome: str) -> int:
        return self.outcome.count(outcome)

    @property
    def latency(self) -> np.ndarray:
        """Completion minus *scheduled* due time, seconds."""
        return self.done - self.due

    @property
    def lateness_p99_ms(self) -> float:
        return float(np.percentile(self.submitted - self.due, 99)) * 1e3


class Serve:
    """``serve_open`` and ``serve_sparse``: Poisson arrivals through
    ``AsyncSoiGateway.submit``, one gold tenant, one coalesce key."""

    n = 896
    #: The latency limit requests are held to, from their due time.
    limit_ms = 25.0
    #: Deadline and queue are sized so that a host stall of up to a second
    #: delays requests (they miss the limit) instead of failing them.  One
    #: batch that a stall stretches to 300 ms multiplies admission's
    #: cost-model scale by ~100 for the next ten batches; with 250 ms
    #: deadlines (1 s too) that shed ~45 requests in 1 of 20 sizing runs,
    #: which says nothing about the code.
    deadline_seconds = 60.0
    queue_limit = 1024

    def __init__(self, seed: int, rate: float):
        self.seed = seed
        self.rate = rate
        self.pool = complex_normal(np.random.default_rng(seed),
                                   (SIGNAL_POOL, self.n))
        self.gateway = self.executor = None
        self.ladder_s = 0.0

    async def setup(self, recorder=None):
        """With a *recorder* the gateway also gets the timing executor."""
        cache_clear()
        t0 = clock()
        ladder = DegradationLadder.standard(self.n)
        self.ladder_s = clock() - t0
        qos = QosPolicy()
        qos.assign(TENANT, "gold")
        self.executor = TimedExecutor() if recorder is not None else None
        self.gateway = AsyncSoiGateway(
            ladder, qos=qos, queue_limit=self.queue_limit, clock=clock,
            recorder=recorder, executor=self.executor)
        await self.gateway.submit(self.pool[0], tenant=TENANT,
                                  deadline_seconds=self.deadline_seconds)

    async def teardown(self):
        if self.gateway is not None:
            await self.gateway.close()
        if self.executor is not None:
            self.executor.shutdown()
        self.gateway = self.executor = None

    def solo(self):
        """What the gateway runs for a lone request."""
        return self.gateway.plan(0).batch(self.pool[:1])

    async def open_loop(self, seconds: float) -> RequestLog:
        """Send on the seeded schedule whatever the gateway does.

        A pacer thread sleeps to each due time and hands the request to
        the event loop, so the generator is late only by that hand-off and
        a slow gateway is offered the same load as a fast one.
        """
        arrivals = poisson_arrivals(
            self.rate, max(1, int(self.rate * seconds)), seed=self.seed,
            tenants={TENANT: 1.0}, deadline_seconds=self.deadline_seconds)
        sent = len(arrivals)
        log = RequestLog(sent)
        keep_every = max(1, sent // SERVE_SAMPLES)
        loop = asyncio.get_running_loop()
        tasks = []
        all_sent = asyncio.Event()

        async def request(i: int):
            try:
                result = await self.gateway.submit(
                    self.pool[i % SIGNAL_POOL], tenant=TENANT,
                    deadline_seconds=self.deadline_seconds)
                log.outcome[i] = result.outcome
                if i % keep_every == 0:
                    log.kept[i] = (result.y, result.report.rung_index)
            except Overloaded:
                log.outcome[i] = "overloaded"
            except DeadlineExceeded:
                log.outcome[i] = "deadline_exceeded"
            finally:
                log.done[i] = clock()

        def fire(i: int):
            log.submitted[i] = clock()
            tasks.append(loop.create_task(request(i)))
            if i == sent - 1:
                all_sent.set()

        cpu0 = time.process_time()
        start = clock() + 0.01
        log.due[:] = [start + a.t for a in arrivals]

        def pace():
            for i in range(sent):
                delay = log.due[i] - clock()
                if delay > 0:
                    time.sleep(delay)
                loop.call_soon_threadsafe(fire, i)

        pacer = threading.Thread(target=pace, name="bench-pacer")
        pacer.start()
        await all_sent.wait()
        pacer.join()
        # an error other than the two contract exceptions leaves the
        # request's outcome empty: it fails conservation in check()
        await asyncio.gather(*tasks, return_exceptions=True)
        await self.gateway.drain()
        log.wall_seconds = clock() - start
        log.cpu_seconds = time.process_time() - cpu0
        return log

    def check(self, log: RequestLog) -> tuple[int, Counter, float]:
        """Conservation of the four outcomes, then the kept outputs:
        within tolerance of numpy and bitwise equal to the rung's plan
        serving the same signal alone."""
        counted = sum(log.count(o) for o in
                      ("ok", "degraded", "overloaded", "deadline_exceeded"))
        attempted, worst = 1, 0.0
        failures = Counter({"outcomes do not sum to requests sent":
                            int(counted != len(log.outcome))})
        for i, (y, rung) in log.kept.items():
            x = self.pool[i % SIGNAL_POOL]
            err = rel_error(y, reference_fft(x))
            worst = max(worst, err)
            alone = self.gateway.plan(rung).batch(x[None])[0]
            attempted += 2
            failures["within tolerance of numpy"] += not err <= TOLERANCE
            failures["bitwise equal to the plan alone"] += \
                not np.array_equal(y, alone)
        return attempted, failures, worst

    def summary(self, log: RequestLog) -> dict:
        """End-to-end metrics of one pass (the gateway must still be up)."""
        sent = len(log.outcome)
        served = np.array([o in ("ok", "degraded") for o in log.outcome])
        attempted, failures, worst = self.check(log)
        for outcome in ("overloaded", "deadline_exceeded", ""):
            failures[f"request ended {outcome or 'in an error'}"] += \
                log.count(outcome)
        alone, floor = [], []
        floor_out = np.empty_like(self.pool[0])
        for _ in range(1000):
            alone.extend(timed(self.solo, 1))
            floor.extend(timed(lambda: reference_fft(
                self.pool[0], out=floor_out), 1))
        late = log.lateness_p99_ms
        return {
            "attempted": sent + attempted,
            "failures": failures,
            "metrics": {
                "op_p10_ms": quiet(log.latency) * 1e3,
                "numpy_ratio": quiet(alone) / quiet(floor),
                "rel_error_max": worst,
                "slo_attainment_pct": float(np.mean(
                    served & (log.latency * 1e3 <= self.limit_ms))) * 100,
            },
            "notes": {
                "op_p10_ms": latency_note(log.latency)
                + f"; generator lateness p99 {late:.3f} ms"
                + ("" if late <= LATENESS_LIMIT_MS else
                   f" EXCEEDS {LATENESS_LIMIT_MS} ms: the offered load was "
                   f"not the schedule")
                + f"; {log.cpu_seconds / sent * 1e3:.3f} cpu-ms/request",
                "numpy_ratio": f"lone batch(1) p10 {quiet(alone) * 1e3:.3f} "
                               f"ms, numpy p10 {quiet(floor) * 1e3:.4f} ms",
                "slo_attainment_pct": f"limit {self.limit_ms:g} ms from due "
                                      f"time, of {sent} sent",
            },
        }

    async def untraced(self, seconds: float) -> dict:
        return self.summary(await self.open_loop(seconds))

    async def traced(self, seconds: float, rec: SpanRecorder) -> dict:
        """Half the time on the plain gateway, half on one with the
        recorder and the timing executor injected; the ledger is the
        second half's, the overhead their difference."""
        bare = await self.open_loop(seconds / 2)
        await self.teardown()
        await self.setup(recorder=rec)
        warm_spans, warm_jobs = len(rec.spans), len(self.executor.records)
        log = await self.open_loop(seconds / 2)
        rows = [s.attributes["rows"] for s in rec.spans[warm_spans:]
                if s.kind == "coalesce"]
        jobs = self.executor.records[warm_jobs:]
        for i, outcome in enumerate(log.outcome):
            rec.record(1, "due_to_submit", "loadgen", log.due[i],
                       log.submitted[i], attributes={"request": i})
            rec.record(2, "submit_to_done", "request", log.submitted[i],
                       log.done[i],
                       attributes={"request": i, "outcome": outcome})
        for queued, started, ended in jobs:
            rec.record(3, "exec_queue_wait", "executor", queued, started)
            rec.record(3, "batch_exec", "executor", started, ended)
        result = self.summary(log)
        kernels = KernelLayers.for_plan(self.gateway.plan(0), self.pool[0],
                                        np.random.default_rng(0))
        floor_out = np.empty_like(self.pool[0])
        for call_id in range(50):
            record_span(rec, "call", self.solo, id=call_id)
            kernels.run_traced(rec, id=call_id)
            record_span(rec, "numpy_fft", lambda: reference_fft(
                self.pool[0], out=floor_out), id=call_id)
        alone = span_seconds(rec, "call")
        metrics = kernel_metrics(rec, kernels, self.gateway.plan(0).params)
        metrics.update(glue_metrics(rec, alone))
        stats = self.gateway.stats()
        latency = log.latency
        sent = len(latency)
        metrics.update({
            "soi_single.steady_alloc_kb": steady_alloc_kb(self.solo),
            "ladder.standard_s": self.ladder_s,
            "qos.admit_us": qos_admit_us(),
            "coalesce.add_take_us": coalesce_add_take_us(),
            "gateway.coalesce_ratio": float(stats["coalesce_ratio"]),
            "gateway.batches": float(len(rows)),
            "gateway.batch_rows_p50": p50(rows),
            "gateway.batch_exec_ms_p50": span_p50(rec, "batch_exec") * 1e3,
            "gateway.exec_queue_wait_ms_p50":
                span_p50(rec, "exec_queue_wait") * 1e3,
            "gateway.exec_busy_fraction": sum(e - s for _, s, e in jobs) / (
                log.wall_seconds * TimedExecutor.workers),
            "gateway.cpu_ms_per_request":
                bare.cpu_seconds / len(bare.outcome) * 1e3,
            "gateway.solo_floor_ms": p50_ms(alone),
            "gateway.overhead_ms": (
                p50(latency) - self.gateway.coalescer.window_seconds
                - p50(alone)) * 1e3,
            "gateway.ok": float(log.count("ok")),
            "gateway.degraded": float(log.count("degraded")),
            "gateway.overloaded": float(log.count("overloaded")),
            "gateway.deadline_exceeded": float(
                log.count("deadline_exceeded")),
            "gateway.latency_p95_ms": float(np.percentile(latency, 95)) * 1e3,
            "gateway.latency_p99_ms": float(np.percentile(latency, 99)) * 1e3,
            "loadgen.lateness_p99_ms": log.lateness_p99_ms,
            "trace_overhead_pct": overhead_pct(latency, bare.latency),
        })
        result["metrics"] = metrics
        result["notes"] = {
            "gateway.latency_p95_ms": f"{int(sent * 0.05)} of {sent} beyond",
            "gateway.latency_p99_ms": f"{int(sent * 0.01)} of {sent} beyond",
            "trace_overhead_pct": f"p50 of {sent} traced against "
                                  f"{len(bare.latency)} untraced requests",
        }
        return result


def qos_admit_us(repeats: int = 20000) -> float:
    """One ``QosPolicy.admit`` for a gold tenant on an empty queue."""
    qos = QosPolicy()
    qos.assign(TENANT, "gold")
    t0 = clock()
    for i in range(repeats):
        qos.admit(TENANT, i * 1e-3, 0, 256)
    return (clock() - t0) / repeats * 1e6


def coalesce_add_take_us(repeats: int = 20000) -> float:
    """One ``Coalescer.add`` plus its share of a 4-member ``take``."""
    coalescer = Coalescer()
    key = CoalesceKey(n=Serve.n, dtype="complex128", rung_index=0)
    request = PendingRequest(x=None, tenant=TENANT, deadline=None,
                             min_snr_db=0.0, arrival=0.0, rung_index=0,
                             projected=0.0)
    t0 = clock()
    for i in range(repeats):
        coalescer.add(key, request)
        if i % 4 == 3:
            coalescer.take(key)
    return (clock() - t0) / repeats * 1e6


# -- the five ---------------------------------------------------------------

#: name -> (full-size factory, seconds-long miniature for the tests).
#: Why each one exists is in BENCHMARK.json and the README.
WORKLOADS = {
    "single_large": (lambda seed: Transform(seed, 458752),
                     lambda seed: Transform(seed, 7168)),
    "batch_small": (lambda seed: Transform(seed, 7168, frames=64),
                    lambda seed: Transform(seed, 896, frames=8)),
    "serve_open": (lambda seed: Serve(seed, 600.0),) * 2,
    "serve_sparse": (lambda seed: Serve(seed, 60.0),) * 2,
    "dist_process": (lambda seed: Dist(seed, 458752),
                     lambda seed: Dist(seed, 7168)),
}


def write_trace(rec: SpanRecorder, name: str) -> Path:
    path = Path(__file__).resolve().parent / "results" / f"trace_{name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(chrome_trace_json(rec, process_name=f"bench/e2e {name}"))
    return path


def run(name: str, seed: int, seconds: float, trace: bool,
        mini: bool = False) -> dict:
    """One workload, one pass.  Returns ``attempted`` (operations and
    checks), ``failures`` (reason -> how many of them failed), ``metrics``
    (name -> value) and ``notes`` (name -> how it was taken).

    Raises :class:`SkipWorkload` when the host lacks a precondition.
    """
    workload = WORKLOADS[name][mini](seed)
    loop = asyncio.new_event_loop()

    def sync(value):
        """Serve's methods are coroutines, the closed loops' are not."""
        return loop.run_until_complete(value) \
            if asyncio.iscoroutine(value) else value

    try:
        if trace:
            rec = SpanRecorder(trace_id=name)
            sync(workload.setup())
            result = sync(workload.traced(seconds, rec))
            result["notes"]["trace_overhead_pct"] += \
                f"; {len(rec.spans)} spans in {write_trace(rec, name)}"
        else:
            setups = []
            for _ in range(SETUP_REPEATS):
                sync(workload.teardown())
                setups.extend(timed(lambda: sync(workload.setup()), 1))
            result = sync(workload.untraced(seconds))
            result["metrics"]["setup_s"] = min(setups)
            result["metrics"]["peak_rss_mb"] = peak_rss_mb()
            result["notes"]["setup_s"] = (
                f"fastest of {SETUP_REPEATS} set-ups; median "
                f"{p50(setups):.3f} s, slowest "
                f"{max(setups):.3f} s")
    finally:
        sync(workload.teardown())
        loop.close()
    return result
