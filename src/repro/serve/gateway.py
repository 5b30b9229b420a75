"""The asyncio serving gateway: concurrent admission, coalesced execution.

:class:`AsyncSoiGateway` is the traffic front end over the node-local
serving stack — a *driver* of the one request lifecycle in
:class:`~repro.resilience.server._Admission` (see
:mod:`repro.resilience.server`), owning what a driver may differ in:
event-loop timers for waiting, executor threads and coalesced windows
for executing.  Requests arrive concurrently on the event loop; each
one runs through, in order:

1. **Admission** (``admission.open``) — per-tenant QoS
   (:class:`~repro.serve.qos.QosPolicy`; a noisy tenant sheds here
   before it can pressure anyone else), then the cost model over the
   class's ladder window, or
   :class:`~repro.resilience.deadline.Overloaded`.
2. **Coalescing** (:class:`~repro.serve.coalesce.Coalescer`, which
   states the rule; this module only keeps its clock) — the request
   joins the open window for its ``(n, dtype, rung)``; the window
   closes when it is full (``max_batch``), when ``window_seconds``
   elapse, or as soon as no batch of its key is executing — so a
   request that finds its lane idle runs at the end of the loop turn it
   arrived in (with whatever else that turn submitted), and one that
   arrives behind a running batch rides the next batch with everything
   else that did.
3. **Batched execution** — one ``SoiFFT.batch()`` call per window, run
   on an executor thread so the loop keeps accepting; the plan and its
   twiddle tables amortize over the whole window.  Row
   *i* of the result is request *i*'s spectrum, bitwise identical to
   serving it alone (the convolution's tile-alignment rule: a row's
   bits do not depend on the batch it rode in).
4. **Settlement** (``admission.settle``) — the batch is itemized into
   each member's budget, each member's own deadline checked, and its
   future resolved to a :class:`~repro.resilience.server.ServeResult`
   or one of the contract exceptions.

The four-outcome contract survives coalescing: a batch that fails
mid-execution does not fail its members as a unit — ``step_down``
answers for each: retried alone one rung down its viable window
(outcome ``"degraded"``), shed individually (:class:`Overloaded`) if no
cheaper rung exists or the retry also fails, or
:class:`DeadlineExceeded` if its deadline has passed.  Every submitted
request resolves to exactly one of the four outcomes (property-tested
under chaos).

The wall-clock/loop split: coalescing *timers* always run on the event
loop's clock, while deadlines, latencies, and budget accounting use the
injectable ``clock`` — so tests drive time deterministically without
stalling the loop.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.soi_single import SoiFFT
from repro.machine.spec import XEON_PHI_SE10, MachineSpec
from repro.resilience.deadline import Deadline, DeadlineExceeded, Overloaded
from repro.resilience.ladder import DegradationLadder
from repro.resilience.server import PendingRequest, ServeResult, _Admission
from repro.serve.coalesce import (
    CoalesceKey,
    Coalescer,
    split_rows,
    stack_requests,
)
from repro.serve.qos import QosPolicy
from repro.telemetry.metrics import get_registry

__all__ = ["AsyncSoiGateway", "serve_requests"]


class AsyncSoiGateway:
    """Asyncio front end coalescing same-shape requests into ``batch()``.

    Parameters
    ----------
    ladder:
        The :class:`DegradationLadder` every request maps onto (one
        problem size per gateway).
    qos:
        A :class:`QosPolicy`; default is the stock three-tier policy.
    queue_limit / calibration_gain / calibration / machine:
        Admission-control knobs, as for
        :class:`~repro.resilience.server.SoiService`.
    max_batch / window_seconds:
        Coalescing bounds: a window closes at ``max_batch`` members, or
        ``window_seconds`` on the event loop after it opened behind a
        running batch — or, before either, the moment its lane is free.
    clock:
        Injectable time source for deadlines/latency/budget accounting.
    recorder:
        Optional :class:`~repro.telemetry.SpanRecorder`; each executed
        window records a ``"coalesce"``-kind span carrying its row
        count, why it closed (``idle`` / ``lane_free`` / ``full`` /
        ``timer`` / ``drain``) and how long its oldest member waited.
    verify:
        Arm ABFT on the per-rung plans (as for :class:`SoiFFT`).
    executor:
        Optional executor for batch execution (default: a private
        2-thread pool, shut down by :meth:`close`).
    fault_injector:
        Test/chaos hook ``(key, members) -> None`` invoked on the
        executor thread before each batch executes; an exception it
        raises is handled exactly like a mid-batch execution failure.
    """

    def __init__(self, ladder: DegradationLadder, *,
                 qos: QosPolicy | None = None,
                 machine: MachineSpec = XEON_PHI_SE10,
                 queue_limit: int = 64, max_batch: int = 32,
                 window_seconds: float = 2e-3, clock=time.monotonic,
                 calibration_gain: float = 0.3, calibration=None,
                 metrics=None, recorder=None, verify=False,
                 executor=None, fault_injector=None):
        self.ladder = ladder
        self.clock = clock
        self.qos = QosPolicy() if qos is None else qos
        self.metrics = get_registry() if metrics is None else metrics
        self.recorder = recorder
        self.verify = verify
        self.fault_injector = fault_injector
        self.admission = _Admission(ladder, queue_limit, calibration_gain,
                                    metrics=self.metrics, qos=self.qos,
                                    machine=machine, calibration=calibration)
        self.coalescer = Coalescer(max_batch=max_batch,
                                   window_seconds=window_seconds)
        n = ladder[0].params.n
        self._keys = [CoalesceKey(n, np.dtype(rung.dtype).name, i)
                      for i, rung in enumerate(ladder)]
        self._plans: dict[int, SoiFFT] = {}
        self._plans_lock = threading.Lock()
        # A SoiFFT's stage buffers and verifier report are its own, NOT
        # safe under concurrent batch() calls: one execution lock per
        # rung keeps same-plan batches serial while different rungs still
        # overlap (a cached FFT plan they share pools per thread).
        self._plan_exec_locks: dict[int, threading.Lock] = {}
        self._own_executor = executor is None
        self.executor = (ThreadPoolExecutor(max_workers=2)
                         if executor is None else executor)
        # every open window has its closing call here: a timer behind a
        # running batch, a call_soon on an idle lane
        self._timers: dict[CoalesceKey, asyncio.Handle] = {}
        self._flushes: set[asyncio.Task] = set()
        self._closed = False

    # -- plans -------------------------------------------------------------

    def plan(self, rung_index: int) -> SoiFFT:
        """The lazily built per-rung plan (thread-safe get-or-create)."""
        with self._plans_lock:
            plan = self._plans.get(rung_index)
            if plan is None:
                rung = self.ladder[rung_index]
                plan = self._plans[rung_index] = SoiFFT(
                    rung.params, dtype=rung.dtype, verify=self.verify)
                self._plan_exec_locks[rung_index] = threading.Lock()
        return plan

    # -- submission --------------------------------------------------------

    async def submit(self, x: np.ndarray, *, tenant: str = "default",
                     deadline_seconds: float,
                     min_snr_db: float = 0.0) -> ServeResult:
        """Serve one 1-D transform; exactly one of four things happens.

        Returns a :class:`ServeResult` (outcome ``"ok"``/``"degraded"``)
        or raises :class:`Overloaded` / :class:`DeadlineExceeded`.
        """
        if self._closed:
            raise RuntimeError("gateway is closed")
        x = np.asarray(x)
        n = self._keys[0].n
        if x.ndim != 1 or x.size != n:
            raise ValueError(f"expected a 1-D signal of length {n}")
        now = float(self.clock())
        req = self.admission.open(
            Deadline(deadline_seconds, clock=self.clock, start=now),
            min_snr_db, x=x, tenant=tenant)
        loop = asyncio.get_running_loop()
        req.future = loop.create_future()
        key = self._keys[req.rung_index]
        state = self.coalescer.add(key, req)
        self._gauge_pending()
        if state == "full":
            self._spawn_flush(key, "full")
        elif state == "idle":
            # not synchronously: what this loop turn has yet to submit
            # (a gather of submits, a burst) rides the same batch
            self._timers[key] = loop.call_soon(
                self._spawn_flush, key, "idle")
        elif state == "first":
            self._timers[key] = loop.call_later(
                self.coalescer.window_seconds, self._spawn_flush, key,
                "timer")
        return await req.future

    # -- window execution --------------------------------------------------

    def _spawn_flush(self, key: CoalesceKey, why: str) -> None:
        """Close the window *synchronously* (so ``max_batch`` truly
        bounds it even while the flush task waits its turn), then
        execute it as a task."""
        timer = self._timers.pop(key, None)
        if timer is not None:
            timer.cancel()  # a no-op when it is the timer that called
        members = self.coalescer.take(key)
        self._gauge_pending()
        if not members:
            return
        self.metrics.counter(
            f"repro_serve_coalesce_flush_{why}_total",
            f"coalescing windows closed because: {why}").inc()
        task = asyncio.get_running_loop().create_task(
            self._flush_members(key, members, why))
        self._flushes.add(task)
        task.add_done_callback(self._flushes.discard)

    def _execute_batch(self, key: CoalesceKey,
                       members: list[PendingRequest]):
        """Runs on the executor thread: one ``batch()`` for the window."""
        plan = self.plan(key.rung_index)
        if self.fault_injector is not None:
            self.fault_injector(key, members)
        xs = stack_requests(members, plan.dtype)
        t0 = float(self.clock())
        with self._plan_exec_locks[key.rung_index]:
            y = plan.batch(xs)
        elapsed = float(self.clock()) - t0
        return split_rows(y, members), elapsed

    async def _degrade_members(self, key: CoalesceKey,
                               members: list[PendingRequest],
                               exc: Exception) -> None:
        """Batch failed: each member degrades or sheds *individually*.

        ``admission.step_down`` answers for each: past its deadline it
        raises :class:`DeadlineExceeded`; otherwise it retries alone one
        rung down its class's viable window; with no cheaper rung (or a
        failed retry) it sheds as :class:`Overloaded`.
        """
        loop = asyncio.get_running_loop()
        for m in members:
            if self.admission.step_down(
                    m, exc, what="batch failure") is not None:
                continue
            retry = self._keys[m.rung_index]
            started_at = float(self.clock())
            try:
                ys, elapsed = await loop.run_in_executor(
                    self.executor, self._execute_batch, retry, [m])
            except Exception as exc2:
                self.admission.step_down(
                    m, exc2, what="failed degrade retry", last=True)
                continue
            self.admission.settle([m], ys, started_at=started_at,
                                  elapsed=elapsed)

    # -- telemetry ---------------------------------------------------------

    def _gauge_pending(self) -> None:
        self.metrics.gauge(
            "repro_serve_coalesce_pending",
            "requests waiting in open coalescing windows"
        ).set(self.coalescer.pending)

    def _record_batch(self, key: CoalesceKey, members: list[PendingRequest],
                      started_at: float, elapsed: float, why: str) -> None:
        m = self.metrics
        m.counter("repro_serve_coalesce_batches_total",
                  "coalesced batch() executions").inc()
        m.counter("repro_serve_coalesce_requests_total",
                  "requests served through coalesced batches"
                  ).inc(len(members))
        m.histogram("repro_serve_coalesce_rows",
                    "window sizes of executed batches",
                    bounds=(1, 2, 4, 8, 16, 32, 64)).observe(len(members))
        if self.recorder is not None:
            self.recorder.record(
                0, f"coalesce n={key.n} rung={key.rung_index}", "serve",
                started_at, started_at + elapsed, kind="coalesce",
                attributes={"rows": len(members),
                            "why": why,
                            "oldest_wait_s":
                                started_at - members[0].enqueued_at,
                            "dtype": key.dtype,
                            "tenants": sorted({x.tenant
                                               for x in members})})

    # -- lifecycle ---------------------------------------------------------

    async def drain(self) -> None:
        """Flush every open window and wait for in-flight batches."""
        for key in list(self._timers):
            self._spawn_flush(key, "drain")
        while self._flushes:
            await asyncio.gather(*list(self._flushes),
                                 return_exceptions=True)

    async def _flush_members(self, key, members, why: str) -> None:
        """Execute one closed window as a batch, then settle it."""
        loop = asyncio.get_running_loop()
        started_at = float(self.clock())
        try:
            try:
                ys, elapsed = await loop.run_in_executor(
                    self.executor, self._execute_batch, key, members)
            finally:
                # done, failed or cancelled, the batch no longer holds its
                # lane: what gathered behind it runs now
                if self.coalescer.done(key):
                    self._spawn_flush(key, "lane_free")
        except Exception as exc:
            await self._degrade_members(key, members, exc)
            return
        self._record_batch(key, members, started_at, elapsed, why)
        # calibrate on the batch's own execution time, not on latency:
        # a member's wait in the window is not modeled work
        self.admission.settle(members, ys, started_at=started_at,
                              elapsed=elapsed, observed=elapsed)

    async def close(self) -> None:
        """Drain, then release the executor (idempotent)."""
        if self._closed:
            return
        await self.drain()
        self._closed = True
        if self._own_executor:
            self.executor.shutdown(wait=True)

    def stats(self) -> dict:
        """Gateway-level counters (JSON-ready)."""
        return {
            "served": self.admission.served_count,
            "shed": self.admission.shed_count,
            "queued": self.admission.queued,
            "batches": self.coalescer.batches,
            "coalesced_requests": self.coalescer.coalesced_requests,
            "coalesce_ratio": round(self.coalescer.ratio, 3),
            "tenants": self.qos.snapshot(),
        }


def serve_requests(gateway: AsyncSoiGateway, requests,
                   *, concurrent: bool = True) -> list:
    """Synchronous convenience driver: submit *requests* and collect
    outcomes.

    Each request is a dict of :meth:`AsyncSoiGateway.submit` kwargs plus
    ``"x"``.  Returns one entry per request, in order: the
    :class:`ServeResult`, or the :class:`Overloaded` /
    :class:`DeadlineExceeded` instance that ended it.  ``concurrent``
    submits everything at once (the coalescing-friendly shape);
    otherwise requests run strictly one at a time (the solo baseline).
    """

    out: list = []

    async def _run():
        async def one(r):
            r = dict(r)
            x = r.pop("x")
            try:
                return await gateway.submit(x, **r)
            except (Overloaded, DeadlineExceeded) as exc:
                return exc

        try:
            if concurrent:
                out.extend(await asyncio.gather(*[one(r)
                                                  for r in requests]))
            else:
                for r in requests:
                    out.append(await one(r))
        finally:
            await gateway.drain()

    # results travel via the closure, NOT the main-task result: CPython's
    # asyncio.run teardown reprs the SIGINT handler (a partial capturing
    # the main task), and a done task's repr includes its result — for a
    # list of spectra that is milliseconds of numpy pretty-printing.
    asyncio.run(_run())
    return out
