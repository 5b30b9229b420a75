"""Serving-gateway exhibits: the solo == coalesced contract and load curves.

Both are deterministic and rendered by ``python -m repro serve-bench``:

* :func:`contract_differential` — a request served through a coalesced
  window must be indistinguishable from the same request served alone —
  same spectrum bits, same outcome, same budget itemization (under a
  non-advancing injected clock both charge identical purposes and
  seconds).
* :func:`simulated_curves` — the open-loop latency-vs-offered-load
  sweep on the virtual-time simulator with a pinned
  :class:`~repro.serve.loadgen.ServiceModel`, so every number is
  machine-independent and the gates (p99/shed/throughput at a stated
  offered load, QoS shed ordering, outcome conservation, batching under
  load and no waiting without it) bind in quick mode.

What coalescing buys in wall-clock terms is measured against an
external floor by ``bench/e2e`` (``serve_open``/``serve_sparse``:
``numpy_ratio``, ``gateway.coalesce_ratio``, ``gateway.overhead_ms``).
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.resilience.ladder import DegradationLadder
from repro.serve.gateway import AsyncSoiGateway, serve_requests
from repro.serve.loadgen import (
    LoadResult,
    ServiceModel,
    render_curves,
    sweep_offered_load,
)
from repro.serve.qos import QosPolicy
from repro.telemetry.metrics import MetricsRegistry

__all__ = ["contract_differential", "serve_bench", "simulated_curves"]

#: The stated operating point of the simulated gates: at this offered
#: load the gateway must hold p99 under the bound with at most the shed
#: budget, while sustaining at least the throughput floor.
STATED_OFFERED_RPS = 3000.0
P99_BOUND_S = 0.010
#: Shed budget for the *premium* (gold) tenant at the stated load — the
#: rate-limited bronze tenant is SUPPOSED to shed under pressure; the
#: contract is that its noise never spills onto gold.
PREMIUM_SHED_BUDGET = 0.05
THROUGHPUT_FLOOR_RPS = 2000.0
#: What the pinned model charges a solo rung-0 request, and what the
#: median request may take at the lowest offered rate: a request that
#: finds its lane idle is not held back for company.
SOLO_REQUEST_S = 3.3e-4
IDLE_P50_BOUND_S = 2 * SOLO_REQUEST_S


def _fresh_qos() -> QosPolicy:
    """Stock three-tier policy with one tenant pinned to each class."""
    qos = QosPolicy(metrics=MetricsRegistry())
    qos.assign("tenant-gold", "gold")
    qos.assign("tenant-silver", "silver")
    qos.assign("tenant-bronze", "bronze")
    return qos


def _pinned_model(ladder: DegradationLadder) -> ServiceModel:
    """The analytic model rescaled to a pinned magnitude.

    Relative rung costs and the setup/per-row split come from the
    Section 4 model; the absolute scale is pinned so rung 0 costs
    330 us per solo request on *any* machine — the simulated gates are
    then bit-reproducible everywhere.
    """
    base = ServiceModel.analytic(ladder)
    scale = SOLO_REQUEST_S / base.request_seconds(0)
    return ServiceModel(
        setup_s=tuple(s * scale for s in base.setup_s),
        per_row_s=tuple(p * scale for p in base.per_row_s))


def contract_differential(*, n: int = 896, segments_per_process: int = 8,
                          n_requests: int = 8) -> dict:
    """Coalesced serving must be indistinguishable from solo serving.

    Both paths run under a non-advancing injected clock, so latencies
    and charges are exactly zero on both sides and the *entire*
    per-request observable — spectrum bits, outcome, degradation
    report, budget itemization — must compare equal, not just close.
    """
    ladder = DegradationLadder.standard(
        n, segments_per_process=segments_per_process)
    rng = np.random.default_rng(7)
    xs = (rng.standard_normal((n_requests, n))
          + 1j * rng.standard_normal((n_requests, n))
          ).astype(ladder[0].dtype)
    reqs = [{"x": xs[i], "tenant": "tenant-gold",
             "deadline_seconds": 30.0} for i in range(n_requests)]
    frozen = lambda: 1000.0  # noqa: E731 - non-advancing clock

    def run(max_batch: int):
        gw = AsyncSoiGateway(ladder, qos=_fresh_qos(), max_batch=max_batch,
                             window_seconds=1e-4, clock=frozen,
                             metrics=MetricsRegistry())
        results = serve_requests(gw, reqs)
        asyncio.run(gw.close())
        return results

    solo = run(1)  # every window holds exactly one request
    coal = run(n_requests)  # one window holds them all
    bitwise = all(np.array_equal(a.y, b.y) for a, b in zip(solo, coal))
    outcomes = all(a.outcome == b.outcome for a, b in zip(solo, coal))
    reports = all(a.report.rung_index == b.report.rung_index
                  and a.report.reason == b.report.reason
                  for a, b in zip(solo, coal))
    return {
        "n": n, "n_requests": n_requests,
        "bitwise_equal": bool(bitwise),
        "outcomes_equal": bool(outcomes),
        "reports_equal": bool(reports),
        "ok": bool(bitwise and outcomes and reports),
    }


def simulated_curves(quick: bool, *, n: int = 896,
                     segments_per_process: int = 8,
                     rates=(1000.0, 3000.0, 6000.0, 12000.0, 24000.0),
                     deadline_seconds: float = 0.05,
                     window_seconds: float = 2e-3,
                     max_batch: int = 32) -> dict:
    """The latency-vs-offered-load sweep plus its deterministic gates.

    Quick mode runs 2k requests per operating point; full mode 24k per
    point (>= 10^5 total), same seeds, same pinned model — quick is a
    strict subsample, not a different experiment.
    """
    ladder = DegradationLadder.standard(
        n, segments_per_process=segments_per_process)
    model = _pinned_model(ladder)
    n_requests = 2000 if quick else 24000
    tenants = {"tenant-gold": 1.0, "tenant-silver": 1.0,
               "tenant-bronze": 1.0}
    results = sweep_offered_load(
        ladder, rates, n_requests=n_requests, seed=2013, tenants=tenants,
        deadline_seconds=deadline_seconds, model=model,
        qos_factory=_fresh_qos, window_seconds=window_seconds,
        max_batch=max_batch)

    def shed_frac(r: LoadResult, tenant: str) -> float:
        t = r.tenants.get(tenant, {})
        sub = t.get("submitted", 0)
        return t.get("shed", 0) / sub if sub else 0.0

    stated = min(results,
                 key=lambda r: abs(r.offered_rps - STATED_OFFERED_RPS))
    hottest = max(results, key=lambda r: r.offered_rps)
    coolest = min(results, key=lambda r: r.offered_rps)
    conserved = all(r.served + r.shed + r.deadline_exceeded == r.n_requests
                    for r in results)
    gates = {
        "stated_offered_rps": round(stated.offered_rps, 1),
        "stated_p99_s": round(stated.latency_p99, 6),
        "p99_bound_s": P99_BOUND_S,
        "stated_premium_shed_rate": round(
            shed_frac(stated, "tenant-gold"), 4),
        "premium_shed_budget": PREMIUM_SHED_BUDGET,
        "stated_total_shed_rate": round(stated.shed_rate, 4),
        "stated_throughput_rps": round(float(stated.throughput_rps), 1),
        "throughput_floor_rps": THROUGHPUT_FLOOR_RPS,
        "p99_ok": bool(stated.latency_p99 <= P99_BOUND_S),
        "shed_ok": bool(
            shed_frac(stated, "tenant-gold") <= PREMIUM_SHED_BUDGET),
        "throughput_ok": bool(
            stated.throughput_rps >= THROUGHPUT_FLOOR_RPS),
        "qos_ordering_ok": bool(
            shed_frac(hottest, "tenant-bronze")
            >= shed_frac(hottest, "tenant-gold")),
        "coalesce_effective_ok": bool(hottest.coalesce_ratio >= 1.5),
        "idle_p50_s": round(coolest.latency_p50, 6),
        "idle_p50_bound_s": IDLE_P50_BOUND_S,
        "idle_latency_ok": bool(coolest.latency_p50 <= IDLE_P50_BOUND_S),
        "conserved_ok": bool(conserved),
    }
    return {
        "mode": "quick" if quick else "full",
        "n": n,
        "n_requests_per_point": n_requests,
        "total_requests": n_requests * len(rates),
        "deadline_seconds": deadline_seconds,
        "points": [r.to_dict() for r in results],
        "gates": gates,
        "exhibit": render_curves(
            results,
            title=f"SOI serving: open-loop latency vs offered load "
                  f"(n={n}, simulated, "
                  f"{n_requests * len(rates)} requests)"),
    }


def serve_bench(quick: bool) -> dict:
    """The serving exhibit: contract differential + load curves."""
    return {"differential": contract_differential(),
            "curves": simulated_curves(quick)}
