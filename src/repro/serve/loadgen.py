"""Open-loop load generation and a virtual-time serving simulator.

Closed-loop drivers (issue the next request when the last one returns)
cannot see coordinated omission: when the server stalls, a closed loop
politely stops offering load, and the latency distribution looks fine.
Everything here is **open-loop** — arrivals are drawn from a Poisson
process (or replayed from a trace) *independently of completions*, so
queueing delay shows up in the numbers exactly as a real client
population would feel it.

Two drivers share the arrival schedules:

* :func:`simulate_serving` — an event-driven **virtual-time** driver of
  the one request lifecycle (:class:`~repro.resilience.server
  ._Admission`, the ``open``/``settle`` the gateway calls, with its
  :class:`~repro.serve.qos.QosPolicy` and :class:`~repro.serve.coalesce
  .Coalescer`) that pushes 10^5–10^6 requests through it, the clock
  replaced by an event heap and batch execution by a
  :class:`ServiceModel` cost function.  The cost function comes from
  the Section 4 performance model (:meth:`ServiceModel.analytic`), never
  from timing the host, so a run is fully deterministic (seeded
  arrivals, no wall clock), machine independent, and fast enough to
  sweep offered load past the knee.
* :func:`drive_gateway` — the wall-clock driver that fires the same
  open-loop schedule at a live :class:`~repro.serve.gateway
  .AsyncSoiGateway`; the serving bench's measured numbers come from it
  alone.

:func:`sweep_offered_load` runs the simulator across arrival rates and
:func:`render_curves` writes the latency-vs-offered-load exhibit.
"""

from __future__ import annotations

import asyncio
import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.machine.spec import XEON_PHI_SE10
from repro.perfmodel.model import soi_request_breakdown
from repro.resilience.deadline import Deadline, DeadlineExceeded, Overloaded
from repro.resilience.ladder import DegradationLadder
from repro.resilience.server import _Admission
from repro.serve.coalesce import CoalesceKey, Coalescer
from repro.serve.qos import QosPolicy
from repro.telemetry.metrics import MetricsRegistry

__all__ = [
    "Arrival", "LoadResult", "ServiceModel", "drive_gateway",
    "poisson_arrivals", "render_curves", "simulate_serving",
    "sweep_offered_load", "trace_arrivals",
]


@dataclass(frozen=True)
class Arrival:
    """One scheduled request: when, who, and what it asks for."""

    t: float
    tenant: str
    deadline_seconds: float
    min_snr_db: float = 0.0


def poisson_arrivals(rate: float, n_requests: int, *, seed: int = 0,
                     tenants: dict[str, float] | None = None,
                     deadline_seconds: float = 0.1,
                     min_snr_db: float = 0.0) -> list[Arrival]:
    """*n_requests* Poisson arrivals at *rate* req/s (seeded, exact count).

    *tenants* maps tenant name -> traffic weight (default: one
    ``"default"`` tenant).  Exponential inter-arrival times make the
    process memoryless; the same seed always yields the same schedule.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    if n_requests < 1:
        raise ValueError("n_requests must be at least 1")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate, size=n_requests)
    times = np.cumsum(gaps)
    names = list(tenants) if tenants else ["default"]
    weights = np.array([tenants[t] for t in names], dtype=float) \
        if tenants else np.ones(1)
    weights = weights / weights.sum()
    picks = rng.choice(len(names), size=n_requests, p=weights)
    return [Arrival(float(times[i]), names[picks[i]], deadline_seconds,
                    min_snr_db) for i in range(n_requests)]


def trace_arrivals(rows) -> list[Arrival]:
    """Arrivals from an explicit trace of ``(t, tenant, deadline[, snr])``."""
    out = []
    for row in rows:
        t, tenant, deadline = row[0], row[1], row[2]
        snr = row[3] if len(row) > 3 else 0.0
        out.append(Arrival(float(t), str(tenant), float(deadline),
                           float(snr)))
    out.sort(key=lambda a: a.t)
    return out


@dataclass(frozen=True)
class ServiceModel:
    """Batch execution cost: ``setup + rows * per_row`` seconds per rung.

    The affine shape is exactly why coalescing wins: the setup term
    (plan dispatch, workspace checkout, twiddle reuse) is paid once per
    *batch*, not once per request.  ``analytic`` derives both terms per
    rung from the Section 4 performance model, so simulated results are
    machine-independent and deterministic.
    """

    setup_s: tuple[float, ...]
    per_row_s: tuple[float, ...]

    def batch_seconds(self, rung_index: int, rows: int) -> float:
        return self.setup_s[rung_index] + rows * self.per_row_s[rung_index]

    def request_seconds(self, rung_index: int) -> float:
        """Cost of a window of one (the admission estimate)."""
        return self.batch_seconds(rung_index, 1)

    @classmethod
    def analytic(cls, ladder: DegradationLadder,
                 machine=XEON_PHI_SE10, *, probe_batch: int = 32,
                 setup_fraction: float = 0.5) -> "ServiceModel":
        """Derive per-rung ``(setup, per_row)`` from the perf model.

        The model's single-request time splits into a marginal per-row
        cost — the slope between a batch of 1 and *probe_batch* — and a
        setup remainder.  Where the model is perfectly linear in batch
        (no amortization visible), *setup_fraction* of the one-row time
        is attributed to setup, matching the measured small-``n``
        amortization (batch/single ~ 2x at n≈1k).
        """
        setup, per_row = [], []
        for rung in ladder:
            t1 = sum(soi_request_breakdown(
                rung.params, machine, itemsize=rung.dtype.itemsize,
                batch=1).values())
            tb = sum(soi_request_breakdown(
                rung.params, machine, itemsize=rung.dtype.itemsize,
                batch=probe_batch).values())
            slope = max((tb - t1) / (probe_batch - 1), 0.0)
            if slope <= 0.0 or t1 - slope <= 0.0:
                slope = t1 * (1.0 - setup_fraction)
            s = max(t1 - slope, 0.0)
            setup.append(s)
            per_row.append(slope)
        return cls(setup_s=tuple(setup), per_row_s=tuple(per_row))


@dataclass
class LoadResult:
    """One operating point of the latency-vs-offered-load curve."""

    offered_rps: float
    n_requests: int
    served: int = 0
    shed: int = 0
    deadline_exceeded: int = 0
    degraded: int = 0
    coalesce_ratio: float = 0.0
    batches: int = 0
    throughput_rps: float = 0.0
    latency_p50: float = 0.0
    latency_p95: float = 0.0
    latency_p99: float = 0.0
    latency_mean: float = 0.0
    makespan_s: float = 0.0
    tenants: dict = field(default_factory=dict)

    @property
    def shed_rate(self) -> float:
        return self.shed / self.n_requests if self.n_requests else 0.0

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        d["shed_rate"] = self.shed_rate
        return d


def _finish(res: LoadResult, latencies: list[float], span: float,
            coalescer, qos) -> LoadResult:
    """Fold a finished run's latencies and ledgers into its point."""
    res.batches = coalescer.batches
    res.coalesce_ratio = coalescer.ratio
    res.throughput_rps = res.served / span
    res.makespan_s = span
    res.tenants = qos.snapshot()
    if latencies:
        arr = np.array(latencies)
        res.latency_p50 = float(np.percentile(arr, 50))
        res.latency_p95 = float(np.percentile(arr, 95))
        res.latency_p99 = float(np.percentile(arr, 99))
        res.latency_mean = float(arr.mean())
    return res


# event kinds, ordered so same-time events resolve deterministically:
# completions free capacity before new arrivals claim it, and arrivals
# join windows before the window closes — on its timer, or at ``now``
# when its lane is free (the gateway's ``call_soon``).
_COMPLETE, _ARRIVE, _FLUSH = 0, 1, 2


def simulate_serving(ladder: DegradationLadder, arrivals: list[Arrival],
                     *, model: ServiceModel | None = None,
                     qos: QosPolicy | None = None, queue_limit: int = 64,
                     max_batch: int = 32, window_seconds: float = 2e-3,
                     n_workers: int = 2) -> LoadResult:
    """Event-driven virtual-time run of the gateway's serving policy.

    The lifecycle is the real thing — ``_Admission.open`` (QoS, then
    the cost model against the bounded backlog), :class:`Coalescer`
    windows and its rule for closing them, ``_Admission.settle`` —
    driven by an event heap instead of
    a clock, with the ``batch()`` execution replaced by *model* seconds
    on one of *n_workers* simulated executor threads.  Every submitted
    request resolves to exactly one of the four contract outcomes.
    """
    if not arrivals:
        raise ValueError("no arrivals to simulate")
    model = ServiceModel.analytic(ladder) if model is None else model
    qos = QosPolicy(metrics=MetricsRegistry()) if qos is None else qos
    admission = _Admission(ladder, queue_limit, 0.3,
                           metrics=MetricsRegistry(), qos=qos)
    coalescer = Coalescer(max_batch=max_batch,
                          window_seconds=window_seconds)
    events: list[tuple[float, int, int, object]] = []
    seq = 0
    for a in arrivals:
        heapq.heappush(events, (a.t, _ARRIVE, seq, a))
        seq += 1
    worker_free = [0.0] * max(1, n_workers)
    rung_idx = {id(r): i for i, r in enumerate(ladder)}
    keys = [CoalesceKey(r.params.n, np.dtype(r.dtype).name, i)
            for i, r in enumerate(ladder)]
    # window generation tokens: a flush only fires for the window (and
    # the closing time) it was last armed for, not a successor that
    # reused the key
    open_gen: dict[CoalesceKey, int] = {}
    latencies: list[float] = []
    res = LoadResult(offered_rps=0.0, n_requests=len(arrivals))
    last_done = now = arrivals[0].t

    def clock() -> float:  # virtual time: the event being handled
        return now

    def estimate(rung) -> float:
        return model.request_seconds(rung_idx[id(rung)])

    def flush(key: CoalesceKey) -> None:
        """Close *key*'s window now and run it on the next free worker."""
        nonlocal seq
        open_gen.pop(key, None)
        members = coalescer.take(key)
        i = min(range(len(worker_free)), key=worker_free.__getitem__)
        start = max(now, worker_free[i])
        done = start + model.batch_seconds(key.rung_index, len(members))
        worker_free[i] = done
        heapq.heappush(events, (done, _COMPLETE, seq, (key, members, start)))
        seq += 1

    def flush_at(key: CoalesceKey, when: float) -> None:
        nonlocal seq
        open_gen[key] = seq
        heapq.heappush(events, (when, _FLUSH, seq, (key, seq)))
        seq += 1

    while events:
        now, kind, _, payload = heapq.heappop(events)
        if kind == _ARRIVE:
            a = payload
            try:
                req = admission.open(
                    Deadline(a.deadline_seconds, clock=clock, start=now),
                    a.min_snr_db, tenant=a.tenant, estimate=estimate)
            except Overloaded:
                res.shed += 1
                continue
            key = keys[req.rung_index]
            state = coalescer.add(key, req)
            if state == "full":
                flush(key)
            elif state == "idle":
                flush_at(key, now)
            elif state == "first":
                flush_at(key, now + window_seconds)
        elif kind == _FLUSH:
            key, gen = payload
            if open_gen.get(key) == gen:  # else: closed or re-armed since
                flush(key)
        else:  # _COMPLETE
            key, members, start = payload
            last_done = max(last_done, now)
            if coalescer.done(key):
                flush_at(key, now)
            # a model has nothing to calibrate against: no ``observed``
            for out in admission.settle(members, [None] * len(members),
                                        started_at=start,
                                        elapsed=now - start):
                if isinstance(out, DeadlineExceeded):
                    res.deadline_exceeded += 1
                    continue
                res.served += 1
                if out.outcome == "degraded":
                    res.degraded += 1
                latencies.append(out.latency_seconds)
    span = max(last_done - arrivals[0].t, 1e-12)
    offered_span = max(arrivals[-1].t - arrivals[0].t, 1e-12)
    res.offered_rps = len(arrivals) / offered_span
    return _finish(res, latencies, span, coalescer, qos)


def sweep_offered_load(ladder: DegradationLadder, rates, *,
                       n_requests: int = 2000, seed: int = 0,
                       tenants: dict[str, float] | None = None,
                       deadline_seconds: float = 0.1,
                       model: ServiceModel | None = None,
                       qos_factory=None, **sim_kwargs) -> list[LoadResult]:
    """One :func:`simulate_serving` point per offered rate (deterministic).

    *qos_factory* builds a fresh :class:`QosPolicy` per point (tenant
    counters must not leak across operating points); default is the
    stock policy with an isolated metrics registry.
    """
    model = ServiceModel.analytic(ladder) if model is None else model
    out = []
    for i, rate in enumerate(rates):
        arrivals = poisson_arrivals(rate, n_requests, seed=seed + i,
                                    tenants=tenants,
                                    deadline_seconds=deadline_seconds)
        qos = (qos_factory() if qos_factory is not None
               else QosPolicy(metrics=MetricsRegistry()))
        out.append(simulate_serving(ladder, arrivals, model=model,
                                    qos=qos, **sim_kwargs))
    return out


def render_curves(results: list[LoadResult], *, title: str,
                  width: int = 40) -> str:
    """The latency-vs-offered-load exhibit (plain text, CI-artifact)."""
    lines = [title, "=" * len(title), "",
             f"{'offered':>10} {'tput':>10} {'p50':>9} {'p99':>9} "
             f"{'shed%':>6} {'coal':>5}  p99 latency",
             f"{'req/s':>10} {'req/s':>10} {'ms':>9} {'ms':>9} "
             f"{'':>6} {'x':>5}"]
    top = max((r.latency_p99 for r in results), default=0.0) or 1.0
    for r in results:
        bar = "#" * max(1, int(round(width * r.latency_p99 / top))) \
            if r.latency_p99 > 0 else ""
        lines.append(
            f"{r.offered_rps:>10.0f} {r.throughput_rps:>10.0f} "
            f"{r.latency_p50 * 1e3:>9.3f} {r.latency_p99 * 1e3:>9.3f} "
            f"{100 * r.shed_rate:>5.1f}% {r.coalesce_ratio:>5.2f}  {bar}")
    lines.append("")
    total = sum(r.n_requests for r in results)
    lines.append(f"{len(results)} operating points, "
                 f"{total} simulated requests total")
    return "\n".join(lines)


async def drive_gateway(gateway, arrivals: list[Arrival], *,
                        signal: np.ndarray,
                        time_scale: float = 1.0) -> LoadResult:
    """Fire an open-loop schedule at a live gateway (wall clock).

    Each arrival submits at its scheduled offset (compressed by
    *time_scale* < 1 to raise offered load) regardless of earlier
    completions.  Returns the same :class:`LoadResult` shape as the
    simulator, measured instead of modeled.
    """
    if not arrivals:
        raise ValueError("no arrivals to drive")
    loop = asyncio.get_running_loop()
    t0 = loop.time()
    base = arrivals[0].t

    async def one(a: Arrival):
        delay = (a.t - base) * time_scale - (loop.time() - t0)
        if delay > 0:
            await asyncio.sleep(delay)
        try:
            return await gateway.submit(
                signal, tenant=a.tenant,
                deadline_seconds=a.deadline_seconds,
                min_snr_db=a.min_snr_db)
        except (Overloaded, DeadlineExceeded) as exc:
            return exc

    outcomes = await asyncio.gather(*[one(a) for a in arrivals])
    await gateway.drain()
    wall = max(loop.time() - t0, 1e-12)
    res = LoadResult(offered_rps=len(arrivals) / max(
        (arrivals[-1].t - base) * time_scale, 1e-12),
        n_requests=len(arrivals))
    latencies = []
    for out in outcomes:
        if isinstance(out, Overloaded):
            res.shed += 1
        elif isinstance(out, DeadlineExceeded):
            res.deadline_exceeded += 1
        else:
            res.served += 1
            if out.outcome == "degraded":
                res.degraded += 1
            latencies.append(out.latency_seconds)
    return _finish(res, latencies, wall, gateway.coalescer, gateway.qos)
