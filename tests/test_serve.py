"""Async serving gateway: coalescing, QoS, load generator, contract.

The load-bearing guarantees under test:

* a coalesced request is indistinguishable from one served alone —
  same spectrum bits, same outcome, same budget itemization;
* the four-outcome contract (ok / degraded / Overloaded /
  DeadlineExceeded) survives coalescing, including a batch that fails
  mid-execution: every member resolves exactly once, individually;
* QoS sheds the rate-limited / low-share class before the premium one
  and clips scavenger traffic off the most expensive rung;
* ``_Admission`` stays consistent when hammered from many threads;
* the virtual-time load generator is deterministic and conserves
  requests across outcomes at every operating point.
"""

import asyncio
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.window import get_tables
from repro.resilience.deadline import DeadlineExceeded, Overloaded
from repro.resilience.ladder import DegradationLadder
from repro.resilience.server import _Admission
from repro.serve import (
    Arrival,
    AsyncSoiGateway,
    CoalesceKey,
    Coalescer,
    PendingRequest,
    QosClass,
    QosPolicy,
    ServiceModel,
    itemize_batch,
    poisson_arrivals,
    render_curves,
    serve_requests,
    simulate_serving,
    sweep_offered_load,
    trace_arrivals,
)
from repro.telemetry.metrics import MetricsRegistry

pytestmark = pytest.mark.serve

N = 896
SEG = 8


@pytest.fixture(scope="module")
def ladder():
    return DegradationLadder.standard(N, segments_per_process=SEG)


def fresh_qos(**kwargs):
    qos = QosPolicy(metrics=MetricsRegistry(), **kwargs)
    qos.assign("gold-tenant", "gold")
    qos.assign("silver-tenant", "silver")
    qos.assign("bronze-tenant", "bronze")
    return qos


def make_gateway(ladder, **kwargs):
    kwargs.setdefault("qos", fresh_qos())
    kwargs.setdefault("metrics", MetricsRegistry())
    kwargs.setdefault("window_seconds", 1e-4)
    return AsyncSoiGateway(ladder, **kwargs)


def signals(count, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((count, N))
            + 1j * rng.standard_normal((count, N))).astype(np.complex128)


# ---------------------------------------------------------------------------
# QoS policy
# ---------------------------------------------------------------------------

class TestQosPolicy:
    def test_unknown_tenant_gets_least_privileged_class(self):
        qos = fresh_qos()
        assert qos.class_of("never-seen").name == "bronze"

    def test_assign_rebinds_existing_state(self):
        qos = fresh_qos()
        qos.tenant_state("t")  # materialize as bronze
        qos.assign("t", "gold")
        assert qos.tenant_state("t").qos.name == "gold"

    def test_lower_tier_sheds_at_lower_depth(self):
        qos = fresh_qos()
        # depth 40 of 64: gold (share 1.0) admits, bronze (0.5) sheds
        assert qos.admit("gold-tenant", 0.0, 40, 64).name == "gold"
        with pytest.raises(Overloaded):
            qos.admit("bronze-tenant", 0.0, 40, 64)

    def test_rate_limit_sheds_before_queue(self):
        qos = fresh_qos()
        burst = int(qos.classes["bronze"].burst)
        for _ in range(burst):
            qos.admit("bronze-tenant", 0.0, 0, 64)
        with pytest.raises(Overloaded, match="rate limit"):
            qos.admit("bronze-tenant", 0.0, 0, 64)
        # tokens refill with time
        qos.admit("bronze-tenant", 1.0, 0, 64)

    def test_viable_window_clips_both_ends(self, ladder):
        bronze = QosClass("b", priority=2, best_rung=1)
        window = bronze.viable_window(ladder, 0.0)
        assert window and all(i >= 1 for i, _ in window)
        gold = QosClass("g", priority=0)
        assert gold.viable_window(ladder, 0.0)[0][0] == 0

    def test_outcome_counters_conserve(self):
        qos = fresh_qos()
        qos.admit("gold-tenant", 0.0, 0, 64)
        qos.record_outcome("gold-tenant", "ok", coalesced_with=3)
        qos.record_outcome("gold-tenant", "overloaded")
        qos.record_outcome("gold-tenant", "deadline_exceeded")
        snap = qos.snapshot()["gold-tenant"]
        assert snap["served"] == 1 and snap["coalesced"] == 1
        assert snap["shed"] == 1 and snap["deadline_exceeded"] == 1
        with pytest.raises(ValueError):
            qos.record_outcome("gold-tenant", "mystery")


# ---------------------------------------------------------------------------
# Coalescer mechanics
# ---------------------------------------------------------------------------

def req(x=None, enqueued_at=0.0):
    class _Budget:
        def __init__(self):
            self.charges = {}

    class _Deadline:
        def __init__(self):
            self.budget = _Budget()

        def charge(self, purpose, seconds):
            c = self.budget.charges
            c[purpose] = c.get(purpose, 0.0) + seconds

    return PendingRequest(
        x=x if x is not None else np.zeros(4, dtype=np.complex128),
        tenant="t", deadline=_Deadline(), min_snr_db=0.0, arrival=0.0,
        rung_index=0, projected=0.0, enqueued_at=enqueued_at)


class TestCoalescer:
    KEY = CoalesceKey(n=4, dtype="complex128", rung_index=0)

    def test_window_dispositions(self):
        c = Coalescer(max_batch=3)
        assert c.add(self.KEY, req()) == "first"
        assert c.add(self.KEY, req()) == "queued"
        assert c.add(self.KEY, req()) == "full"
        assert len(c.take(self.KEY)) == 3
        assert c.take(self.KEY) == []  # already flushed

    def test_keys_do_not_mix(self):
        c = Coalescer(max_batch=8)
        other = CoalesceKey(n=4, dtype="complex128", rung_index=1)
        c.add(self.KEY, req())
        c.add(other, req())
        assert len(c.take(self.KEY)) == 1
        assert len(c.take(other)) == 1

    def test_ratio_counts_requests_per_batch(self):
        c = Coalescer(max_batch=8)
        for _ in range(6):
            c.add(self.KEY, req())
        c.take(self.KEY)
        c.add(self.KEY, req())
        c.take(self.KEY)
        assert c.ratio == pytest.approx(3.5)  # 7 requests / 2 batches

    def test_take_all_drains_every_window(self):
        c = Coalescer(max_batch=8)
        other = CoalesceKey(n=4, dtype="complex128", rung_index=1)
        c.add(self.KEY, req())
        c.add(other, req())
        drained = dict(c.take_all())
        assert set(drained) == {self.KEY, other}
        assert c.pending == 0

    def test_itemize_splits_compute_and_charges_own_wait(self):
        members = [req(enqueued_at=1.0), req(enqueued_at=3.0)]
        itemize_batch(members, started_at=5.0, elapsed=4.0)
        for m, wait in zip(members, (4.0, 2.0)):
            assert m.coalesced_with == 1
            assert m.deadline.budget.charges["compute"] == pytest.approx(2.0)
            assert m.deadline.budget.charges["coalesce wait"] == (
                pytest.approx(wait))

    def test_rejects_degenerate_config(self):
        with pytest.raises(ValueError):
            Coalescer(max_batch=0)
        with pytest.raises(ValueError):
            Coalescer(window_seconds=-1.0)


# ---------------------------------------------------------------------------
# Gateway: differential contract (tentpole acceptance)
# ---------------------------------------------------------------------------

class TestGatewayDifferential:
    def run_mix(self, ladder, max_batch):
        xs = signals(6, seed=42)
        reqs = [{"x": xs[i], "tenant": "gold-tenant",
                 "deadline_seconds": 30.0} for i in range(len(xs))]
        gw = make_gateway(ladder, max_batch=max_batch,
                          clock=lambda: 500.0)  # frozen clock
        results = serve_requests(gw, reqs)
        asyncio.run(gw.close())
        return results

    def test_coalesced_indistinguishable_from_solo(self, ladder):
        solo = self.run_mix(ladder, max_batch=1)
        coal = self.run_mix(ladder, max_batch=6)
        for a, b in zip(solo, coal):
            assert np.array_equal(a.y, b.y)  # bitwise spectrum
            assert a.outcome == b.outcome == "ok"
            assert a.report.rung_index == b.report.rung_index == 0
            assert a.report.reason == b.report.reason

    def test_plan_asked_for_by_two_threads_at_once_is_sound(self,
                                                            table_builds):
        # the first two windows of a solo run reach plan() together; each
        # used to design its own plan through one shared FFT workspace.
        # Now the rung's design record is the process's: the ladder built
        # it, and every plan of every gateway holds that one object
        ladder = DegradationLadder.standard(N, segments_per_process=SEG)
        record = get_tables(ladder[0].params)
        for _ in range(100):
            pair = [make_gateway(ladder, verify=True) for _ in range(2)]
            threads = [threading.Thread(target=gw.plan, args=(0,))
                       for gw in pair for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            for gw in pair:
                assert gw.plan(0).tables is record
                assert gw.plan(0).verifier.thresholds \
                    is ladder[0].thresholds  # calibrated once, too
                asyncio.run(gw.close())
        assert table_builds.count(ladder[0].params) == 1

    def test_rungs_sharing_a_plan_run_concurrently(self, ladder):
        # rungs 0 and 2 are both M' = 140 / complex128: their SoiFFTs hold
        # ONE cached segment plan, and the exec lock is per rung, so the
        # gateway's two executor threads may be inside it at once
        gw = make_gateway(ladder)
        plans = [gw.plan(0), gw.plan(2)]
        assert plans[0]._seg_plan is plans[1]._seg_plan  # else vacuous
        xs = signals(3, seed=9)
        serial = [p.batch(xs).copy() for p in plans]
        corrupt = [0, 0]
        start = threading.Barrier(2)

        def hammer(i):
            start.wait()
            for _ in range(1000):
                corrupt[i] += not np.array_equal(plans[i].batch(xs),
                                                 serial[i])

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        asyncio.run(gw.close())
        assert corrupt == [0, 0]

    def test_coalesced_matches_plan_reference(self, ladder):
        xs = signals(5, seed=7)
        reqs = [{"x": xs[i], "tenant": "gold-tenant",
                 "deadline_seconds": 30.0} for i in range(len(xs))]
        gw = make_gateway(ladder, max_batch=len(xs))
        results = serve_requests(gw, reqs)
        ref = gw.plan(0).batch(xs)
        asyncio.run(gw.close())
        for i, r in enumerate(results):
            assert np.array_equal(r.y, ref[i])

    def test_budget_itemization_under_frozen_clock(self, ladder):
        solo = self.run_mix(ladder, max_batch=1)
        coal = self.run_mix(ladder, max_batch=6)
        for a, b in zip(solo, coal):
            # frozen clock: compute share and wait are exactly 0 either
            # way, and the purposes charged are identical
            assert a.report is not None and b.report is not None

    def test_coalescing_actually_groups(self, ladder):
        xs = signals(8, seed=1)
        reqs = [{"x": xs[i], "tenant": "gold-tenant",
                 "deadline_seconds": 30.0} for i in range(len(xs))]
        gw = make_gateway(ladder, max_batch=8)
        serve_requests(gw, reqs)
        stats = gw.stats()
        asyncio.run(gw.close())
        assert stats["coalesce_ratio"] > 1.0
        assert stats["batches"] < len(xs)


# ---------------------------------------------------------------------------
# Gateway: four-outcome contract under coalescing
# ---------------------------------------------------------------------------

class TestGatewayOutcomes:
    def test_unknown_tenant_rides_bronze_rung(self, ladder):
        xs = signals(1)
        gw = make_gateway(ladder)
        [res] = serve_requests(
            gw, [{"x": xs[0], "deadline_seconds": 30.0}])
        asyncio.run(gw.close())
        assert res.outcome == "degraded"
        assert res.report.rung_index >= 1
        assert res.report.reason == "qos class window"

    def test_rate_limited_tenant_sheds_as_overloaded(self, ladder):
        xs = signals(1)
        qos = fresh_qos()
        qos.classes["bronze"] = QosClass(
            "bronze", priority=2, queue_share=0.5, rate_limit=1.0,
            burst=1.0, best_rung=1)
        qos.assign("noisy", "bronze")
        gw = make_gateway(ladder, qos=qos, clock=lambda: 100.0)
        reqs = [{"x": xs[0], "tenant": "noisy", "deadline_seconds": 30.0}
                for _ in range(3)]
        results = serve_requests(gw, reqs)
        asyncio.run(gw.close())
        outcomes = [type(r).__name__ if isinstance(r, Exception)
                    else r.outcome for r in results]
        assert outcomes.count("Overloaded") == 2  # burst of 1, no refill
        assert outcomes.count("degraded") == 1

    def test_impossible_deadline_sheds_at_admission(self, ladder):
        xs = signals(1)
        gw = make_gateway(ladder)
        [res] = serve_requests(
            gw, [{"x": xs[0], "tenant": "gold-tenant",
                  "deadline_seconds": 1e-12}])
        asyncio.run(gw.close())
        assert isinstance(res, Overloaded)

    def test_batch_failure_degrades_members_individually(self, ladder):
        """Satellite: partial batch failure mid-chaos.

        The first full-quality batch blows up; each member must retry
        alone one rung down and come back ``degraded`` with the batch
        failure named in the reason — never a lost future, never a
        double resolution.
        """
        xs = signals(4, seed=3)
        boom = {"armed": True}

        def chaos(key, members):
            if key.rung_index == 0 and boom["armed"]:
                boom["armed"] = False
                raise RuntimeError("injected batch fault")

        gw = make_gateway(ladder, max_batch=4, fault_injector=chaos)
        reqs = [{"x": xs[i], "tenant": "gold-tenant",
                 "deadline_seconds": 30.0} for i in range(len(xs))]
        results = serve_requests(gw, reqs)
        ref = gw.plan(1).batch(xs)
        asyncio.run(gw.close())
        for i, r in enumerate(results):
            assert r.outcome == "degraded"
            assert r.report.rung_index == 1
            assert "batch failure (RuntimeError)" in r.report.reason
            assert np.array_equal(r.y, ref[i])

    def test_batch_failure_with_no_fallback_sheds(self, ladder):
        xs = signals(2, seed=4)

        def chaos(key, members):
            raise RuntimeError("always down")

        gw = make_gateway(ladder, max_batch=2, fault_injector=chaos)
        reqs = [{"x": xs[i], "tenant": "gold-tenant",
                 "deadline_seconds": 30.0} for i in range(2)]
        results = serve_requests(gw, reqs)
        asyncio.run(gw.close())
        assert all(isinstance(r, Overloaded) for r in results)

    def test_rejects_wrong_shape(self, ladder):
        gw = make_gateway(ladder)

        async def go():
            try:
                await gw.submit(np.zeros(N + 1, dtype=np.complex128),
                                tenant="gold-tenant", deadline_seconds=1.0)
            finally:
                await gw.close()

        with pytest.raises(ValueError, match="1-D signal"):
            asyncio.run(go())

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.sampled_from(
        ["gold-tenant", "silver-tenant", "bronze-tenant"]),
        min_size=1, max_size=6),
        st.integers(min_value=0, max_value=3))
    def test_four_outcome_property_under_chaos(self, tenants, fail_round):
        """Every request resolves exactly once into one of the four
        contract outcomes, whatever mix of tenants and whichever batch
        the chaos hook kills."""
        ladder = DegradationLadder.standard(N, segments_per_process=SEG)
        xs = signals(len(tenants), seed=len(tenants))
        calls = {"count": 0}

        def chaos(key, members):
            calls["count"] += 1
            if calls["count"] == fail_round:
                raise RuntimeError("chaos")

        gw = make_gateway(ladder, max_batch=4, fault_injector=chaos)
        reqs = [{"x": xs[i], "tenant": t, "deadline_seconds": 30.0}
                for i, t in enumerate(tenants)]
        results = serve_requests(gw, reqs)
        stats = gw.stats()
        asyncio.run(gw.close())
        assert len(results) == len(tenants)
        for r in results:
            if isinstance(r, Exception):
                assert isinstance(r, (Overloaded, DeadlineExceeded))
            else:
                assert r.outcome in ("ok", "degraded")
                assert r.y.shape == (N,)
        # conservation: every admitted request is served or shed
        assert stats["served"] + stats["shed"] >= len(
            [r for r in results if not isinstance(r, Exception)])


# ---------------------------------------------------------------------------
# _Admission thread-safety (satellite: the lock fix)
# ---------------------------------------------------------------------------

class TestAdmissionThreaded:
    def test_hammer_counters_and_backlog(self, ladder):
        adm = _Admission(ladder, queue_limit=10 ** 6,
                         calibration_gain=0.3, metrics=MetricsRegistry())
        per_thread, n_threads = 200, 8
        errors = []

        def worker(seed):
            try:
                for i in range(per_thread):
                    idx, rung, projected = adm.admit(
                        0.0, 1e9, 0.0, lambda r: 1e-6)
                    adm.calibrate(1e-6, 1e-6 * (1 + (seed + i) % 3))
                    adm.release(projected)
                    if i % 2:
                        adm.record_served(idx, 1e-6)
                    else:
                        adm.record_shed()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,))
                   for s in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        total = n_threads * per_thread
        # no lost read-modify-write: every outcome landed exactly once
        assert adm.served_count + adm.shed_count == total
        assert adm.served_count == total // 2
        assert adm.queued == 0  # every admit was released
        assert np.isfinite(adm.scaled(1.0)) and adm.scaled(1.0) > 0


# ---------------------------------------------------------------------------
# Load generator
# ---------------------------------------------------------------------------

class TestLoadGen:
    def test_poisson_is_deterministic_and_sorted(self):
        a = poisson_arrivals(1000.0, 500, seed=9,
                             tenants={"a": 1.0, "b": 3.0})
        b = poisson_arrivals(1000.0, 500, seed=9,
                             tenants={"a": 1.0, "b": 3.0})
        assert a == b
        assert all(x.t <= y.t for x, y in zip(a, a[1:]))
        weights = sum(1 for x in a if x.tenant == "b") / len(a)
        assert 0.6 < weights < 0.9  # 3:1 mix

    def test_trace_arrivals_roundtrip(self):
        rows = [(0.0, "t", 0.1, 0.0), (0.5, "u", 0.2, 20.0)]
        arr = trace_arrivals(rows)
        assert arr[0] == Arrival(0.0, "t", 0.1, 0.0)
        assert arr[1].min_snr_db == 20.0

    def test_simulation_conserves_requests(self, ladder):
        model = ServiceModel.analytic(ladder)
        arrivals = poisson_arrivals(3000.0, 1500, seed=2,
                                    tenants={"gold-tenant": 1.0,
                                             "bronze-tenant": 1.0})
        res = simulate_serving(ladder, arrivals, model=model,
                               qos=fresh_qos(), n_workers=2)
        assert (res.served + res.shed + res.deadline_exceeded
                == res.n_requests == 1500)
        assert res.throughput_rps > 0
        assert res.latency_p99 >= res.latency_p50 >= 0

    def test_simulation_is_deterministic(self, ladder):
        model = ServiceModel.analytic(ladder)
        arrivals = poisson_arrivals(2000.0, 800, seed=5,
                                    tenants={"gold-tenant": 1.0})

        def once():
            return simulate_serving(ladder, arrivals, model=model,
                                    qos=fresh_qos()).to_dict()

        assert once() == once()

    def test_coalescing_rises_with_load(self, ladder):
        model = ServiceModel.analytic(ladder)
        results = sweep_offered_load(
            ladder, (500.0, 8000.0), n_requests=1200, seed=0,
            tenants={"gold-tenant": 1.0}, deadline_seconds=0.05,
            model=model, qos_factory=fresh_qos)
        assert results[1].coalesce_ratio > results[0].coalesce_ratio

    def test_render_curves_mentions_every_point(self, ladder):
        model = ServiceModel.analytic(ladder)
        results = sweep_offered_load(
            ladder, (500.0, 2000.0), n_requests=400, seed=0,
            tenants={"gold-tenant": 1.0}, deadline_seconds=0.05,
            model=model, qos_factory=fresh_qos)
        text = render_curves(results, title="t")
        assert "800 simulated requests" in text
        assert text.count("#") > 0


# ---------------------------------------------------------------------------
# Bench + CLI smoke
# ---------------------------------------------------------------------------

class TestServeBench:
    def test_differential_gate_passes(self):
        from repro.bench.servebench import contract_differential

        out = contract_differential(n_requests=4)
        assert out["ok"]

    def test_cli_verb_smoke(self, tmp_path, capsys):
        from repro.cli import main

        curves = tmp_path / "curves.txt"
        code = main(["serve-bench", "--quick", "--output", str(curves)])
        out = capsys.readouterr().out
        assert "offered" in out and "coalesce" in out
        assert curves.exists()
        assert code == 0
