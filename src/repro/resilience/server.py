"""Deadline-aware SOI serving: admission control and degradation.

Two services share one request contract — ``submit(x, deadline_seconds,
min_snr_db)`` returns a :class:`ServeResult` or raises exactly one of
:class:`~repro.resilience.deadline.Overloaded` (shed before any work
ran) / :class:`~repro.resilience.deadline.DeadlineExceeded` (ran, but
too late):

* :class:`SoiService` — node-local, wall-clock.  Requests run through
  lazily planned :class:`~repro.core.soi_single.SoiFFT` instances, one
  per ladder rung.
* :class:`ClusterSoiService` — a :class:`~repro.cluster.simcluster
  .SimCluster` front end over lazily planned :class:`~repro.core
  .soi_dist.DistributedSoiFFT` instances, one per ladder rung, in
  simulated time, with a shared :class:`~repro.resilience.breaker
  .BreakerBoard` installed on the communicator and collective failures
  answered by stepping down the ladder.

Admission control projects each candidate rung's completion time from
the Section 4 performance model
(:func:`~repro.perfmodel.model.soi_request_seconds`), calibrated to
observed latency with an EWMA scale, against a bounded queue of
projected finish times.  A request no viable rung can finish in time is
shed as ``Overloaded`` *before* burning any compute — the paper's
flop-budget arithmetic, repurposed as a load shedder.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

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


class _Admission:
    """Shared queue/estimate logic (clock-agnostic).

    Thread-safe: the async serving gateway admits and completes requests
    from the event loop and executor threads concurrently, so the EWMA
    scale, the backlog, and the outcome counters are all guarded by one
    lock.  (The lock is re-entrant because metric publication happens
    inside the guarded sections.)
    """

    def __init__(self, ladder: DegradationLadder, queue_limit: int,
                 calibration_gain: float, metrics=None):
        if queue_limit < 1:
            raise ValueError("queue_limit must be at least 1")
        if not 0.0 < calibration_gain <= 1.0:
            raise ValueError("calibration_gain must be in (0, 1]")
        self.ladder = ladder
        self.queue_limit = queue_limit
        self.calibration_gain = calibration_gain
        self.metrics = get_registry() if metrics is None else metrics
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
                projected = start + self._scale * estimate(rung)
                cheapest_projection = projected
                if projected <= now + deadline_seconds:
                    self._backlog.append(projected)
                    self._gauge_depth()
                    return idx, rung, projected
            self.record_shed()
            raise Overloaded(
                "no rung meeting the accuracy floor can finish in "
                f"{deadline_seconds:.4g}s (cheapest projects "
                f"{cheapest_projection - now:.4g}s)",
                queued=len(self._backlog),
                projected_seconds=cheapest_projection - now)

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


class SoiService:
    """Node-local deadline-aware SOI serving on the wall clock.

    One lazily constructed :class:`~repro.core.soi_single.SoiFFT` plan
    per ladder rung (plan reuse is where SOI's planning pays); admission
    control as described in the module docstring.  ``clock`` is
    injectable for deterministic tests.
    """

    def __init__(self, ladder: DegradationLadder, *,
                 machine: MachineSpec = XEON_PHI_SE10, queue_limit: int = 8,
                 clock=time.monotonic, calibration_gain: float = 0.3,
                 calibration=None):
        self.ladder = ladder
        self.machine = machine
        self.clock = clock
        # optional per-stage CostCalibration (repro.perfmodel.qerror)
        # applied to the model breakdown before admission projects a
        # completion time; the EWMA calibration_gain then only has to
        # absorb drift, not the model's systematic per-stage bias
        self.calibration = calibration
        self.admission = _Admission(ladder, queue_limit, calibration_gain)
        self._plans: dict[int, SoiFFT] = {}
        self._stfts: dict[tuple[int, int], SoiStft] = {}

    def _project(self, rung, batch: int) -> float:
        br = soi_request_breakdown(rung.params, self.machine,
                                   itemsize=rung.dtype.itemsize,
                                   batch=batch)
        if self.calibration is not None:
            return self.calibration.total(br)
        return sum(br.values())

    def plan(self, rung_index: int) -> SoiFFT:
        plan = self._plans.get(rung_index)
        if plan is None:
            rung = self.ladder[rung_index]
            plan = SoiFFT(rung.params, dtype=rung.dtype)
            self._plans[rung_index] = plan
        return plan

    def _estimate(self, batch: int):
        def est(rung):
            return self._project(rung, batch)
        return est

    def submit(self, x: np.ndarray, *, deadline_seconds: float,
               min_snr_db: float = 0.0) -> ServeResult:
        """Serve one transform (1-D signal or ``(batch, n)`` stack)."""
        x = np.asarray(x)
        batch = 1 if x.ndim == 1 else x.shape[0]
        now = float(self.clock())
        idx, rung, projected = self.admission.admit(
            now, deadline_seconds, min_snr_db, self._estimate(batch))
        raw = self._estimate(batch)(rung)
        deadline = Deadline(deadline_seconds, clock=self.clock, start=now)
        try:
            plan = self.plan(idx)
            xs = x[None, :] if x.ndim == 1 else x
            y = plan.batch(xs.astype(plan.dtype, copy=False),
                           deadline=deadline)
            if x.ndim == 1:
                y = y[0]
            deadline.check("completion")
        except DeadlineExceeded:
            self.admission.record_overrun()
            raise
        finally:
            self.admission.release(projected)
        latency = float(self.clock()) - now
        self.admission.calibrate(raw, latency)
        self.admission.record_served(idx, latency)
        reason = "full quality" if idx == 0 else "deadline pressure"
        report = DegradationReport(rung_index=idx, rung=rung, reason=reason,
                                   min_snr_db=min_snr_db)
        return ServeResult(y=y, outcome="degraded" if report.degraded
                           else "ok", report=report,
                           latency_seconds=latency,
                           deadline_seconds=deadline_seconds)

    def submit_stft(self, x: np.ndarray, *, deadline_seconds: float,
                    min_snr_db: float = 0.0, hop: int | None = None,
                    pad_tail: bool = False) -> ServeResult:
        """Serve an STFT of *x* framed by the chosen rung's geometry."""
        x = np.asarray(x)
        if x.ndim != 1:
            raise ValueError("expected a 1-D signal")
        now = float(self.clock())

        def est(rung):
            frame = rung.params.n
            h = frame // 2 if hop is None else hop
            n_frames = max(1, 1 + max(0, x.size - frame) // max(1, h))
            return self._project(rung, n_frames)

        idx, rung, projected = self.admission.admit(
            now, deadline_seconds, min_snr_db, est)
        raw = est(rung)
        deadline = Deadline(deadline_seconds, clock=self.clock, start=now)
        try:
            key = (idx, -1 if hop is None else hop)
            stft = self._stfts.get(key)
            if stft is None:
                stft = SoiStft(rung.params, hop=hop, dtype=rung.dtype)
                self._stfts[key] = stft
            y = stft.transform(x, pad_tail=pad_tail, deadline=deadline)
            deadline.check("completion")
        except DeadlineExceeded:
            self.admission.record_overrun()
            raise
        finally:
            self.admission.release(projected)
        latency = float(self.clock()) - now
        self.admission.calibrate(raw, latency)
        self.admission.record_served(idx, latency)
        reason = "full quality" if idx == 0 else "deadline pressure"
        report = DegradationReport(rung_index=idx, rung=rung, reason=reason,
                                   min_snr_db=min_snr_db)
        return ServeResult(y=y, outcome="degraded" if report.degraded
                           else "ok", report=report,
                           latency_seconds=latency,
                           deadline_seconds=deadline_seconds)


class ClusterSoiService:
    """Deadline-aware serving of distributed SOI requests (simulated).

    Wraps one :class:`~repro.core.soi_dist.DistributedSoiFFT` per
    ladder rung on one
    :class:`~repro.cluster.simcluster.SimCluster`: per-request simulated
    deadlines (:meth:`Deadline.simulated`) are installed on the
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
        self.calibration = calibration
        cluster.comm.install_breakers(self.breakers)
        self._plans: dict[int, DistributedSoiFFT] = {}  # rung index -> plan
        self.admission = _Admission(ladder, queue_limit, calibration_gain,
                                    metrics=getattr(cluster, "metrics",
                                                    None))

    def _estimate(self, rung) -> float:
        br = soi_request_breakdown(
            rung.params, self.cluster.machine, nodes=self.cluster.n_ranks,
            itemsize=rung.dtype.itemsize)
        if self.calibration is not None:
            return self.calibration.total(br)
        return sum(br.values())

    def _plan(self, idx: int, rung) -> DistributedSoiFFT:
        """The rung's distributed plan, built on first use and kept: its
        tables are per-geometry constants, not per-request work."""
        soi = self._plans.get(idx)
        if soi is None:
            soi = self._plans[idx] = DistributedSoiFFT(
                self.cluster, rung.params, verify=self.verify)
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
        idx, rung, projected = self.admission.admit(
            now, deadline_seconds, min_snr_db, self._estimate)
        if self.breakers.any_open(now) and idx == 0:
            # Degrade preemptively: flapping fabric, ship fewer bytes.
            self.admission.release(projected)
            idx, rung = self.ladder.viable(min_snr_db)[-1]
            projected = now + self.admission.scaled(self._estimate(rung))
            reason = "open breaker"
        else:
            reason = "full quality" if idx == 0 else "deadline pressure"
        raw = self._estimate(rung)
        n_live_before = cl.n_live
        deadline = Deadline.simulated(cl, deadline_seconds, start=now)
        cl.comm.install_deadline(deadline)
        attempts = 0
        viable = self.ladder.viable(min_snr_db)
        pos = next(i for i, (j, _) in enumerate(viable) if j == idx)
        try:
            while True:
                attempts += 1
                try:
                    soi = self._plan(idx, rung)
                    y = soi.assemble(soi(soi.scatter(x), deadline=deadline,
                                         hedge=self.hedge))
                    break
                except CollectiveFailure as exc:
                    if attempts >= self.max_attempts:
                        # Persistent fabric failure: shed rather than
                        # leak a fifth outcome past the serving contract.
                        self.admission.record_shed()
                        raise Overloaded(
                            f"shed after {attempts} failed attempt(s): "
                            f"{exc}") from exc
                    self._wait_out_cooldowns(deadline)
                    deadline.check(f"after {type(exc).__name__}")
                    if pos + 1 < len(viable):  # step down the ladder
                        pos += 1
                        idx, rung = viable[pos]
                        reason = f"collective failure ({type(exc).__name__})"
            deadline.check("completion")
        except DeadlineExceeded:
            self.admission.record_overrun()
            raise
        finally:
            cl.comm.clear_deadline()
            self.admission.release(projected)
        latency = cl.elapsed - now
        if attempts == 1 and cl.n_live == n_live_before:
            self.admission.calibrate(raw, latency)
        self.admission.record_served(idx, latency)
        if cl.n_live < n_live_before and reason == "full quality":
            reason = "rank failure recovery"
        report = DegradationReport(rung_index=idx, rung=rung, reason=reason,
                                   attempts=attempts, min_snr_db=min_snr_db)
        return ServeResult(y=y,
                           outcome="degraded" if report.degraded else "ok",
                           report=report, latency_seconds=latency,
                           deadline_seconds=deadline_seconds)
