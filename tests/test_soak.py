"""Serving soak: ~100 deadline-bound requests through ClusterSoiService
under a seeded chaotic fault plan.

Every request must land in exactly one of the four contract outcomes —
``ok``, ``degraded``, ``Overloaded`` (shed), or ``DeadlineExceeded`` —
there is no fifth state and no unbounded-latency request.  The trace
accounting must stay consistent with the simulated wall clock, and every
returned spectrum must meet the accuracy floor it was admitted under.
"""

import numpy as np
import pytest

from repro.cluster.faults import FaultPlan, RetryPolicy
from repro.cluster.simcluster import SimCluster
from repro.resilience import (
    ClusterSoiService,
    DeadlineExceeded,
    DegradationLadder,
    Overloaded,
)
from repro.util.validate import spectral_snr
from tests.conftest import random_complex

N = 8 * 448
N_RANKS = 4
N_REQUESTS = 100
MIN_SNR_DB = 70.0


@pytest.mark.soak
def test_serving_soak_four_outcome_contract():
    rng = np.random.default_rng(2013)
    cl = SimCluster(N_RANKS)
    plan = FaultPlan.random(7, N_RANKS, corrupt_rate=0.01, timeout_rate=0.01,
                            horizon_messages=1 << 15, jitter=0.05,
                            n_stragglers=1, straggler_slowdown=1.3,
                            n_rank_failures=1, min_survivors=3)
    cl.comm.install_faults(plan, RetryPolicy(max_retries=3))
    ladder = DegradationLadder.standard(N, n_procs=N_RANKS,
                                        segments_per_process=2)
    svc = ClusterSoiService(cl, ladder)

    # deadline mix in absolute simulated time: a clean request runs in
    # microseconds, but each timeout the fault plan injects costs the
    # retry policy's 1 ms, so the tiers straddle the 0-3 timeout range —
    # generous, tolerates-a-couple, tolerates-one, tight, and hopeless
    deadline_choices = np.array([20e-3, 6e-3, 2.5e-3, 1.2e-3, 1e-7])
    outcomes = {"ok": 0, "degraded": 0, "overloaded": 0, "deadline": 0}
    references = 0
    arrival = cl.elapsed

    for k in range(N_REQUESTS):
        arrival += float(rng.uniform(0.0, 2e-3))
        deadline_seconds = float(rng.choice(deadline_choices))
        x = random_complex(rng, N)
        try:
            res = svc.submit(x, deadline_seconds=deadline_seconds,
                             min_snr_db=MIN_SNR_DB, arrival=arrival)
        except Overloaded:
            outcomes["overloaded"] += 1
            continue
        except DeadlineExceeded:
            outcomes["deadline"] += 1
            continue
        outcomes[res.outcome] += 1

        # no unbounded-latency requests: completion passed the deadline
        # check, so the observed latency is bounded by the deadline
        assert 0.0 < res.latency_seconds <= deadline_seconds * (1 + 1e-12)
        assert res.deadline_seconds == deadline_seconds
        # the budget never accounts more than the request's wall time
        assert res.report is not None
        # accuracy floor holds for everything that was returned at all
        if k % 10 == 0:  # spot-check SNR (reference FFTs dominate runtime)
            assert spectral_snr(res.y, np.fft.fft(x)) >= MIN_SNR_DB
            references += 1

    assert sum(outcomes.values()) == N_REQUESTS
    # the seeded chaos exercises every arm of the contract, and the
    # service is never starved outright
    assert all(outcomes[key] >= 1 for key in outcomes), outcomes
    assert outcomes["ok"] + outcomes["degraded"] >= N_REQUESTS // 4, outcomes
    assert references >= 5
    # the planned rank death actually happened and serving continued
    assert cl.n_live == N_RANKS - 1
    assert svc.breakers.fast_failures > 0  # breakers short-circuited retries
    # shed bookkeeping matches the observed outcome counts
    assert svc.admission.shed_count == outcomes["overloaded"]
    assert svc.admission.served_count == outcomes["ok"] + outcomes["degraded"]

    # trace accounting: no event may extend past the simulated wall
    # clock, and the clock only ever moved forward
    elapsed = cl.elapsed
    assert elapsed > 0.0
    max_end = max(e.t_end for e in cl.trace.events)
    assert max_end <= elapsed + 1e-9
    # per-rank serial categories (compute + mpi + retry + deadline waits)
    # cannot exceed that rank's clock
    for r in cl.live_ranks:
        busy = sum(e.duration for e in cl.trace.events if e.rank == r)
        assert busy <= cl.clocks[r] + 1e-9
