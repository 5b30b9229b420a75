"""Deadline-aware SOI serving: one request lifecycle, and its drivers.

Every front end serves one contract: a request returns a
:class:`ServeResult` (outcome ``"ok"`` or ``"degraded"``) or raises
exactly one of :class:`~repro.resilience.deadline.Overloaded` (shed
before any work ran, or after every rung failed) /
:class:`~repro.resilience.deadline.DeadlineExceeded` (ran, but too
late).  The lifecycle behind it — admit, execute, settle — is written
once, in :class:`_Admission`, clock-free and executor-free.  ``open``
runs QoS and then cost-model admission: each candidate rung's
completion time, projected from the Section 4 performance model
(``estimate``: :func:`~repro.perfmodel.model.soi_request_breakdown`)
and calibrated to observed latency with an EWMA scale, against a
bounded queue of projected finish times.  A request no viable rung can
finish in time is shed *before* burning any compute — the paper's
flop-budget arithmetic, repurposed as a load shedder.  ``settle`` ends
an executed window (itemise, completion check, calibrate, report);
``step_down`` answers a failed execution with the next viable rung or
the shed.

A *driver* owns only what the contract lets front ends differ in — the
clock (it builds the request's ``Deadline``), how it waits, and what
executes: :class:`SoiService` (wall clock, inline ``SoiFFT`` /
``SoiStft``), :class:`ClusterSoiService` (simulated clock,
``DistributedSoiFFT``; it keeps the breaker cool-down waits and the
``max_attempts`` loop), :class:`~repro.serve.gateway.AsyncSoiGateway`
(loop timers, executor threads, coalesced windows) and
:func:`~repro.serve.loadgen.simulate_serving` (an event heap over a
``ServiceModel``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any

import numpy as np

from repro.cluster.faults import CollectiveFailure
from repro.core.soi_dist import DistributedSoiFFT
from repro.core.soi_single import SoiFFT
from repro.core.streaming import SoiStft
from repro.machine.spec import XEON_PHI_SE10, MachineSpec
from repro.perfmodel.model import soi_request_breakdown
from repro.resilience.breaker import BreakerBoard
from repro.resilience.deadline import Deadline, DeadlineExceeded, Overloaded
from repro.resilience.ladder import DegradationLadder, DegradationReport
from repro.telemetry.metrics import get_registry

__all__ = ["ClusterSoiService", "ServeResult", "SoiService"]


@dataclass(frozen=True, repr=False)
class ServeResult:
    """One served request: the spectrum plus its resilience paper trail."""

    y: np.ndarray
    outcome: str  # "ok" | "degraded"
    report: DegradationReport
    latency_seconds: float
    deadline_seconds: float

    def __repr__(self) -> str:
        # compact on purpose: the default dataclass repr prints the full
        # spectrum, which turns incidental reprs (asyncio teardown,
        # debugger echoes) into milliseconds of array formatting
        return (f"ServeResult({self.outcome!r}, "
                f"y.shape={self.y.shape}, "
                f"rung={self.report.rung_index}, "
                f"latency={self.latency_seconds:.4g}s"
                f"/{self.deadline_seconds:.4g}s)")


@dataclass(repr=False)
class PendingRequest:
    """One admitted request, from :meth:`_Admission.open` to its outcome.

    ``meta`` is the lifecycle's own state: ``"window"`` (the viable
    ``(index, rung)`` pairs it may step down through), ``"estimate"``
    (rung -> modeled seconds), ``"raw"`` (that, on its current rung)
    and ``"reason"`` (once admission alone no longer explains the rung).
    """

    x: np.ndarray
    tenant: str
    deadline: Any  # duck-typed repro.resilience.Deadline
    min_snr_db: float
    arrival: float
    rung_index: int
    projected: float  # admission backlog token (released at the outcome)
    enqueued_at: float = 0.0
    #: completion hook — an asyncio.Future for the gateway, anything
    #: with done/set_result/set_exception, or None for a driver that
    #: takes the outcome from the lifecycle's return value.
    future: Any = None
    #: rows coalesced alongside this request (filled at execution).
    coalesced_with: int = 0
    meta: dict = field(default_factory=dict)

    def __repr__(self) -> str:
        # compact on purpose: the default dataclass repr would print the
        # whole signal, and asyncio reprs pending objects in error paths
        shape = getattr(self.x, "shape", None)
        return (f"PendingRequest(tenant={self.tenant!r}, "
                f"rung={self.rung_index}, x.shape={shape}, "
                f"arrival={self.arrival:.6g})")


def itemize_batch(members: list[PendingRequest], started_at: float,
                  elapsed: float) -> None:
    """Charge each member its share of one batch execution.

    The compute share is equal-split (every row is the same transform);
    the coalesce wait is each member's own enqueue -> start interval.
    Charges land in the member's existing ``Deadline.budget``, under the
    purposes ``"compute"`` and ``"coalesce wait"``, so a request's
    budget reads the same whether it was coalesced or served alone
    (a window of one waits zero and pays the full batch).
    """
    share = elapsed / len(members)
    for m in members:
        m.coalesced_with = len(members) - 1
        m.deadline.charge("compute", share)
        m.deadline.charge("coalesce wait",
                          max(0.0, started_at - m.enqueued_at))


class _Admission:
    """The request lifecycle (clock-agnostic, executor-agnostic): the
    backlog of projected finish times, the EWMA calibration scale, the
    outcome counters and metrics, and the steps every driver runs a
    request through.  Time is only read through a request's ``Deadline``.

    Thread-safe: the async serving gateway admits and completes requests
    from the event loop and executor threads concurrently, so the EWMA
    scale, the backlog, and the outcome counters are all guarded by one
    lock.  (The lock is re-entrant because metric publication happens
    inside the guarded sections.)
    """

    def __init__(self, ladder: DegradationLadder, queue_limit: int,
                 calibration_gain: float, metrics=None, *, qos=None,
                 machine: MachineSpec = XEON_PHI_SE10, nodes: int = 1,
                 calibration=None):
        if queue_limit < 1:
            raise ValueError("queue_limit must be at least 1")
        if not 0.0 < calibration_gain <= 1.0:
            raise ValueError("calibration_gain must be in (0, 1]")
        self.ladder = ladder
        self.queue_limit = queue_limit
        self.calibration_gain = calibration_gain
        self.metrics = get_registry() if metrics is None else metrics
        self.qos = qos  # optional QosPolicy: asked first, told every outcome
        self.machine = machine
        self.nodes = nodes
        # optional per-stage CostCalibration (repro.perfmodel.qerror)
        # applied to the model breakdown before admission projects a
        # completion time; the EWMA calibration_gain then only has to
        # absorb drift, not the model's systematic per-stage bias
        self.calibration = calibration
        self._breakdowns: dict[tuple, MappingProxyType] = {}
        self._lock = threading.RLock()
        self._scale = 1.0  # EWMA: observed seconds per modeled second
        self._backlog: list[float] = []  # projected finish times
        self.shed_count = 0
        self.served_count = 0

    # -- metric publication (the plain counters stay authoritative) --------

    def _gauge_depth(self) -> None:
        self.metrics.gauge(
            "repro_serve_queue_depth",
            "admitted requests whose projected finish is still pending"
        ).set(len(self._backlog))

    def record_shed(self) -> None:
        with self._lock:
            self.shed_count += 1
        self.metrics.counter("repro_serve_shed_total",
                             "requests shed by admission control").inc()

    def record_served(self, rung_index: int,
                      latency_seconds: float) -> None:
        with self._lock:
            self.served_count += 1
        m = self.metrics
        m.counter("repro_serve_served_total",
                  "requests served to completion").inc()
        m.counter(f"repro_serve_rung_{rung_index}_served_total",
                  f"requests served on ladder rung {rung_index}").inc()
        m.histogram("repro_serve_latency_seconds",
                    "end-to-end request latency").observe(latency_seconds)

    def record_overrun(self) -> None:
        self.metrics.counter(
            "repro_serve_deadline_overruns_total",
            "requests that ran but finished past their deadline").inc()

    # -- the cost model ----------------------------------------------------

    def breakdown(self, rung, batch: int = 1) -> MappingProxyType:
        """The cost model's per-stage seconds of *batch* transforms on
        *rung* (for this admission's machine and nodes), evaluated once
        per ``(rung, batch)`` and kept read-only."""
        br = self._breakdowns.get((rung, batch))
        if br is None:
            br = self._breakdowns.setdefault((rung, batch), MappingProxyType(
                soi_request_breakdown(rung.params, self.machine,
                                      nodes=self.nodes,
                                      itemsize=rung.dtype.itemsize,
                                      batch=batch)))
        return br

    def estimate(self, rung, batch: int = 1) -> float:
        """Modeled (not EWMA-scaled) seconds of *batch* transforms: the
        kept :meth:`breakdown`, summed — through the calibration, on every
        call, when there is one (a calibration may keep learning)."""
        br = self.breakdown(rung, batch)
        if self.calibration is not None:
            return self.calibration.total(br)
        return sum(br.values())

    def scaled(self, raw_seconds: float) -> float:
        with self._lock:
            return raw_seconds * self._scale

    def calibrate(self, raw_seconds: float, observed_seconds: float) -> None:
        """EWMA-update the model-to-observed scale from one clean run.

        Concurrent completions fold in under the lock, so every
        observation lands exactly once (no lost read-modify-write) and
        the scale stays finite and positive.
        """
        if raw_seconds <= 0 or observed_seconds <= 0:
            return
        g = self.calibration_gain
        with self._lock:
            self._scale = (1 - g) * self._scale + g * (observed_seconds
                                                       / raw_seconds)

    # -- the backlog -------------------------------------------------------

    def _place(self, now, deadline_seconds, min_snr_db, estimate, viable):
        """:meth:`admit`, also returning the chosen rung's raw estimate."""
        with self._lock:
            self._backlog = [t for t in self._backlog if t > now]
            self._gauge_depth()
            if len(self._backlog) >= self.queue_limit:
                self.record_shed()
                raise Overloaded(
                    f"request queue full ({len(self._backlog)} queued)",
                    queued=len(self._backlog))
            if viable is None:
                viable = self.ladder.viable(min_snr_db)
            if not viable:
                self.record_shed()
                raise Overloaded(
                    f"no ladder rung meets min_snr_db={min_snr_db:.1f}",
                    queued=len(self._backlog))
            start = max([now] + self._backlog)
            cheapest_projection = None
            for idx, rung in viable:
                raw = estimate(rung)
                projected = start + self._scale * raw
                cheapest_projection = projected
                if projected <= now + deadline_seconds:
                    self._backlog.append(projected)
                    self._gauge_depth()
                    return idx, rung, projected, raw
            self.record_shed()
            raise Overloaded(
                "no rung meeting the accuracy floor can finish in "
                f"{deadline_seconds:.4g}s (cheapest projects "
                f"{cheapest_projection - now:.4g}s)",
                queued=len(self._backlog),
                projected_seconds=cheapest_projection - now)

    def admit(self, now: float, deadline_seconds: float, min_snr_db: float,
              estimate, viable=None):
        """Pick the most accurate viable rung whose projected completion
        fits the deadline; raise :class:`Overloaded` if queue-full or
        none fits.  Returns ``(rung_index, rung, projected_finish)``.

        *viable* optionally restricts the candidate ``(index, rung)``
        pairs (the QoS layer hands lower-priority classes a window that
        starts below the most expensive rung); the default is every rung
        meeting *min_snr_db*.
        """
        return self._place(now, deadline_seconds, min_snr_db, estimate,
                           viable)[:3]

    def release(self, projected_finish: float) -> None:
        with self._lock:
            try:
                self._backlog.remove(projected_finish)
            except ValueError:
                pass
            self._gauge_depth()

    @property
    def queued(self) -> int:
        with self._lock:
            return len(self._backlog)

    # -- the lifecycle -----------------------------------------------------

    def open(self, deadline, min_snr_db: float, *, x=None,
             tenant: str = "default", estimate=None) -> PendingRequest:
        """Admit one request arriving at ``deadline.start``: QoS first
        (the noisy/low-tier shed point), then the cost model over the
        class's ladder window — every rung meeting *min_snr_db* without
        a policy.  *estimate* maps a rung to modeled seconds (default:
        one transform).  A shed raises :class:`Overloaded`, counted.
        """
        now = deadline.start
        if self.qos is None:
            floor, window = min_snr_db, self.ladder.viable(min_snr_db)
        else:
            try:
                qcls = self.qos.admit(tenant, now, self.queued,
                                      self.queue_limit)
            except Overloaded:
                self.record_shed()
                raise
            floor = max(min_snr_db, qcls.min_snr_db)
            window = qcls.viable_window(self.ladder, min_snr_db)
        estimate = estimate or self.estimate
        try:
            idx, _, projected, raw = self._place(
                now, deadline.seconds, floor, estimate, window)
        except Overloaded:
            if self.qos is not None:
                self.qos.record_outcome(tenant, "overloaded")
            raise
        return PendingRequest(
            x=x, tenant=tenant, deadline=deadline, min_snr_db=min_snr_db,
            arrival=now, rung_index=idx, projected=projected,
            enqueued_at=now,
            meta={"window": window, "estimate": estimate, "raw": raw})

    def _resolve(self, req: PendingRequest, outcome):
        """The one place a request ends: free its backlog token, count
        the outcome, tell the tenant ledger, resolve the waiter.  A
        waiter that already went away (a cancelled ``submit``) only gets
        its token back, and ``None`` is returned instead of *outcome*."""
        self.release(req.projected)
        if req.future is not None and req.future.done():
            return None
        served = isinstance(outcome, ServeResult)
        if served:
            self.record_served(req.rung_index, outcome.latency_seconds)
            name = outcome.outcome
        elif isinstance(outcome, DeadlineExceeded):
            self.record_overrun()
            name = "deadline_exceeded"
        else:
            self.record_shed()
            name = "overloaded"
        if self.qos is not None:
            self.qos.record_outcome(req.tenant, name,
                                    coalesced_with=req.coalesced_with)
        if req.future is not None:
            if served:
                req.future.set_result(outcome)
            else:
                req.future.set_exception(outcome)
        return outcome

    def _reason(self, req: PendingRequest) -> str:
        if "reason" in req.meta:
            return req.meta["reason"]
        if req.rung_index == 0:
            return "full quality"
        if (self.qos is not None and
                self.qos.class_of(req.tenant).best_rung >= req.rung_index):
            return "qos class window"
        return "deadline pressure"

    def settle(self, members: list[PendingRequest], ys, *,
               started_at: float | None = None,
               elapsed: float | None = None,
               observed: float | None = None, attempts: int = 1) -> list:
        """End one executed window: *ys[i]* is *members[i]*'s spectrum.

        A window run as one batch names its interval (*started_at*,
        *elapsed*) to have it itemised; *observed* is the driver's
        measurement of the modeled work, for the EWMA scale.  Each
        member passes the completion check or overruns, exactly once.
        Returns, in member order, the :class:`ServeResult` or
        :class:`DeadlineExceeded` (``None``: the waiter went away).
        """
        if elapsed is not None:
            itemize_batch(members, started_at, elapsed)
        if observed is not None:
            # a window of one reuses the estimate it was admitted on
            self.calibrate(
                members[0].meta["raw"] if len(members) == 1 else
                self.estimate(self.ladder[members[0].rung_index],
                              len(members)), observed)
        outcomes = []
        for m, y in zip(members, ys):
            try:
                m.deadline.check("completion")
            except DeadlineExceeded as exc:
                outcomes.append(self._resolve(m, exc))
                continue
            report = DegradationReport(
                rung_index=m.rung_index, rung=self.ladder[m.rung_index],
                reason=self._reason(m), attempts=attempts,
                min_snr_db=m.min_snr_db)
            outcomes.append(self._resolve(m, ServeResult(
                y=y, outcome="degraded" if report.degraded else "ok",
                report=report, latency_seconds=m.deadline.elapsed(),
                deadline_seconds=m.deadline.seconds)))
        return outcomes

    def step_down(self, req: PendingRequest, cause, *,
                  what: str = "failure", cheapest: bool = False,
                  last: bool = False, stay: bool = False):
        """Answer a failed (or, with a string *cause*, pre-empted)
        execution of *req*.

        ``None`` means execute it again: on the next viable rung of its
        window (the *cheapest* on request), queued anew with the step
        as its reason — or, for a driver that would rather *stay* than
        shed, on the same rung once the window is exhausted.  Otherwise
        the request is over and its exception is returned: the overrun
        that failed it (or that the check after the failure finds), or
        the shed (nothing cheaper, or the driver's *last* attempt).
        """
        if isinstance(cause, DeadlineExceeded):
            return self._resolve(req, cause)
        if not last:
            if isinstance(cause, Exception):
                try:
                    req.deadline.check(f"after {type(cause).__name__}")
                except DeadlineExceeded as overrun:
                    return self._resolve(req, overrun)
            cheaper = [(i, r) for i, r in req.meta["window"]
                       if i > req.rung_index]
            if cheaper:
                idx, rung = cheaper[-1 if cheapest else 0]
                raw = req.meta["estimate"](rung)
                with self._lock:  # queue again, behind the backlog
                    self.release(req.projected)
                    req.projected = max([req.deadline.now()] + self._backlog
                                        ) + self._scale * raw
                    self._backlog.append(req.projected)
                    self._gauge_depth()
                req.rung_index = idx
                req.meta["raw"] = raw
                req.meta["reason"] = cause if isinstance(cause, str) else (
                    f"{what} ({type(cause).__name__})")
                return None
            if stay:
                return None
        shed = Overloaded(f"shed after {what}: {cause}")
        if isinstance(cause, Exception):
            shed.__cause__ = cause
        return self._resolve(req, shed)


class SoiService:
    """Node-local deadline-aware SOI serving on the wall clock.

    One lazily constructed :class:`~repro.core.soi_single.SoiFFT` plan
    per ladder rung (plan reuse is where SOI's planning pays), executed
    inline; the lifecycle is :class:`_Admission`'s.  ``clock`` is
    injectable for deterministic tests.
    """

    def __init__(self, ladder: DegradationLadder, *,
                 machine: MachineSpec = XEON_PHI_SE10, queue_limit: int = 8,
                 clock=time.monotonic, calibration_gain: float = 0.3,
                 calibration=None):
        self.ladder = ladder
        self.machine = machine
        self.clock = clock
        self.admission = _Admission(ladder, queue_limit, calibration_gain,
                                    machine=machine, calibration=calibration)
        self._plans: dict[int, SoiFFT] = {}
        self._stfts: dict[tuple[int, int], SoiStft] = {}

    def plan(self, rung_index: int) -> SoiFFT:
        plan = self._plans.get(rung_index)
        if plan is None:
            rung = self.ladder[rung_index]
            plan = SoiFFT(rung.params, dtype=rung.dtype)
            self._plans[rung_index] = plan
        return plan

    def _estimate(self, batch: int):
        return lambda rung: self.admission.estimate(rung, batch)

    def _serve(self, estimate, execute, deadline_seconds: float,
               min_snr_db: float) -> ServeResult:
        """One request, inline: *execute(req)* returns its spectrum."""
        now = float(self.clock())
        req = self.admission.open(
            Deadline(deadline_seconds, clock=self.clock, start=now),
            min_snr_db, estimate=estimate)
        try:
            y = execute(req)
        except DeadlineExceeded as exc:  # a stage boundary saw the overrun
            raise self.admission.step_down(req, exc)
        except BaseException:  # a caller error: no outcome, and no token
            self.admission.release(req.projected)
            raise
        [outcome] = self.admission.settle([req], [y],
                                          observed=req.deadline.elapsed())
        if isinstance(outcome, DeadlineExceeded):
            raise outcome
        return outcome

    def submit(self, x: np.ndarray, *, deadline_seconds: float,
               min_snr_db: float = 0.0) -> ServeResult:
        """Serve one transform (1-D signal or ``(batch, n)`` stack)."""
        x = np.asarray(x)
        xs = x[None, :] if x.ndim == 1 else x

        def execute(req):
            plan = self.plan(req.rung_index)
            y = plan.batch(xs.astype(plan.dtype, copy=False),
                           deadline=req.deadline)
            return y[0] if x.ndim == 1 else y

        return self._serve(self._estimate(xs.shape[0]), execute,
                           deadline_seconds, min_snr_db)

    def submit_stft(self, x: np.ndarray, *, deadline_seconds: float,
                    min_snr_db: float = 0.0, hop: int | None = None,
                    pad_tail: bool = False) -> ServeResult:
        """Serve an STFT of *x* framed by the chosen rung's geometry."""
        x = np.asarray(x)
        if x.ndim != 1:
            raise ValueError("expected a 1-D signal")

        def estimate(rung):
            frame = rung.params.n
            h = frame // 2 if hop is None else hop
            n_frames = max(1, 1 + max(0, x.size - frame) // max(1, h))
            return self.admission.estimate(rung, n_frames)

        def execute(req):
            key = (req.rung_index, -1 if hop is None else hop)
            stft = self._stfts.get(key)
            if stft is None:
                rung = self.ladder[req.rung_index]
                stft = SoiStft(rung.params, hop=hop, dtype=rung.dtype)
                self._stfts[key] = stft
            return stft.transform(x, pad_tail=pad_tail,
                                  deadline=req.deadline)

        return self._serve(estimate, execute, deadline_seconds, min_snr_db)


class ClusterSoiService:
    """Deadline-aware serving of distributed SOI requests (simulated).

    Drives the lifecycle over one
    :class:`~repro.core.soi_dist.DistributedSoiFFT` per ladder rung on
    one :class:`~repro.cluster.simcluster.SimCluster`: per-request
    simulated deadlines (:meth:`Deadline.simulated`) are installed on the
    communicator so every collective, retry, backoff wait, and recovery
    transfer is charged against the request's budget and checked at
    stage boundaries.  A :class:`~repro.resilience.breaker.BreakerBoard`
    shared across requests makes flapping links fail fast; a collective
    failure answers with a step *down* the ladder (cheaper config, fewer
    bytes on the wire) up to ``max_attempts`` tries.  When any breaker
    is open at admission time the request starts directly on the
    cheapest viable rung.
    """

    def __init__(self, cluster, ladder: DegradationLadder, *,
                 queue_limit: int = 8, max_attempts: int = 3,
                 breakers: BreakerBoard | None = None,
                 calibration_gain: float = 0.3, calibration=None,
                 verify=False, hedge=None):
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        for rung in ladder:
            if rung.params.n_procs != cluster.n_ranks:
                raise ValueError("every ladder rung must target the "
                                 "cluster's rank count")
        self.cluster = cluster
        self.ladder = ladder
        self.max_attempts = max_attempts
        self.verify = verify
        self.hedge = hedge
        self.breakers = BreakerBoard() if breakers is None else breakers
        cluster.comm.install_breakers(self.breakers)
        self._plans: dict[int, DistributedSoiFFT] = {}  # rung index -> plan
        self.admission = _Admission(
            ladder, queue_limit, calibration_gain,
            metrics=getattr(cluster, "metrics", None),
            machine=cluster.machine, nodes=cluster.n_ranks,
            calibration=calibration)

    def _estimate(self, rung) -> float:
        return self.admission.estimate(rung)

    def _plan(self, idx: int) -> DistributedSoiFFT:
        """The rung's distributed plan, built on first use and kept: its
        tables are per-geometry constants, not per-request work."""
        soi = self._plans.get(idx)
        if soi is None:
            soi = self._plans[idx] = DistributedSoiFFT(
                self.cluster, self.ladder[idx].params, verify=self.verify)
        return soi

    def _wait_out_cooldowns(self, deadline) -> None:
        """Idle the cluster until every open breaker has cooled down.

        Fast-failing forever never cools a breaker in simulated time —
        the service must spend the wait.  The idle interval is traced
        (``"other"``) on every live rank and charged to the request's
        budget, so the latency accounting still sums.
        """
        cl = self.cluster
        cooled = self.breakers.cooled_at()
        if cooled is None or cooled <= cl.elapsed:
            return
        deadline.charge("breaker wait", cooled - cl.elapsed)
        for r in cl.live_ranks:
            start = cl.clocks[r]
            if start < cooled:
                cl.trace.record(r, "breaker cooldown wait", "other",
                                start, cooled)
                cl.clocks[r] = cooled

    def submit(self, x: np.ndarray, *, deadline_seconds: float,
               min_snr_db: float = 0.0,
               arrival: float | None = None) -> ServeResult:
        """Serve one distributed transform arriving at simulated time
        *arrival* (default: now).  Exactly one of four things happens:
        a ``ServeResult`` with outcome ``"ok"`` or ``"degraded"``
        returns, or :class:`Overloaded` / :class:`DeadlineExceeded`
        raises.
        """
        cl = self.cluster
        now = cl.elapsed if arrival is None else float(arrival)
        for r in cl.live_ranks:  # idle until the request arrives
            if cl.clocks[r] < now:
                cl.clocks[r] = now
        req = self.admission.open(
            Deadline.simulated(cl, deadline_seconds, start=now), min_snr_db)
        if self.breakers.any_open(now) and req.rung_index == 0:
            # Degrade preemptively: flapping fabric, ship fewer bytes.
            self.admission.step_down(req, "open breaker", cheapest=True,
                                     stay=True)
        n_live_before = cl.n_live
        cl.comm.install_deadline(req.deadline)
        attempts = 0
        try:
            while True:
                attempts += 1
                try:
                    soi = self._plan(req.rung_index)
                    y = soi.assemble(soi(soi.scatter(x),
                                         deadline=req.deadline,
                                         hedge=self.hedge))
                    break
                except (CollectiveFailure, DeadlineExceeded) as exc:
                    # Persistent fabric failure: shed on the last attempt
                    # rather than leak a fifth outcome past the contract.
                    last = attempts >= self.max_attempts
                    if not (last or isinstance(exc, DeadlineExceeded)):
                        self._wait_out_cooldowns(req.deadline)
                    over = self.admission.step_down(
                        req, exc, what="collective failure", last=last,
                        stay=True)
                    if over is not None:
                        raise over
                except BaseException:
                    self.admission.release(req.projected)
                    raise
            if cl.n_live < n_live_before and req.rung_index == 0:
                req.meta.setdefault("reason", "rank failure recovery")
            # a retried or shrunken run says nothing about the model
            clean = attempts == 1 and cl.n_live == n_live_before
            [outcome] = self.admission.settle(
                [req], [y], attempts=attempts,
                observed=req.deadline.elapsed() if clean else None)
        finally:
            cl.comm.clear_deadline()
        if isinstance(outcome, DeadlineExceeded):
            raise outcome
        return outcome
