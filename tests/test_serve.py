"""Async serving gateway: coalescing, QoS, load generator, contract.

The load-bearing guarantees under test:

* a coalesced request is indistinguishable from one served alone —
  same spectrum bits, same outcome, same budget itemization;
* coalescing is work-conserving: a window closes when it is full, when
  its timer fires, or as soon as no batch of its key is in flight — one
  rule in ``Coalescer``, closing the same windows under both of its
  drivers (the gateway's loop, the simulator's event heap);
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
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.window import get_tables
from repro.resilience.deadline import DeadlineExceeded, Overloaded
from repro.resilience.ladder import DegradationLadder
from repro.resilience.server import _Admission
from repro.serve import loadgen
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
        assert c.add(self.KEY, req()) == "idle"  # nothing runs: close now
        assert c.add(self.KEY, req()) == "queued"
        assert len(c.take(self.KEY)) == 2  # ... and that batch is running
        assert c.add(self.KEY, req()) == "first"  # behind it: arm the timer
        assert c.add(self.KEY, req()) == "queued"
        assert c.add(self.KEY, req()) == "full"
        assert len(c.take(self.KEY)) == 3
        assert c.take(self.KEY) == []  # already flushed

    def test_done_frees_the_lane_for_what_gathered_behind_it(self):
        c = Coalescer(max_batch=2)
        c.add(self.KEY, req())
        c.take(self.KEY)
        c.add(self.KEY, req())
        assert c.add(self.KEY, req()) == "full"
        c.take(self.KEY)  # a second batch in flight on the same lane
        assert c.add(self.KEY, req()) == "first"
        assert c.pending == 1
        assert c.done(self.KEY) is False  # the other one still runs
        assert c.done(self.KEY) is True  # free, and a window is waiting
        assert len(c.take(self.KEY)) == 1 and c.pending == 0
        assert c.done(self.KEY) is False  # free, nothing gathered
        assert c.add(self.KEY, req()) == "idle"

    def test_a_driver_without_completions_keeps_the_timer_policy(self):
        c = Coalescer(max_batch=8)
        c.add(self.KEY, req())
        c.take(self.KEY)
        for _ in range(3):  # add/take alone stays legal
            assert c.add(self.KEY, req()) == "first"
            assert len(c.take(self.KEY)) == 1

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
# The coalescing rule: a request never waits on an idle lane
# ---------------------------------------------------------------------------

class Gate:
    """A ``fault_injector`` that parks chosen batches (by the order they
    reach the executor) until released, and writes down every batch."""

    def __init__(self, *hold):
        self.rows: list[int] = []
        self.members: list[PendingRequest] = []
        self.entered = {i: threading.Event() for i in hold}
        self.release = {i: threading.Event() for i in hold}
        self.fail: set[int] = set()
        self._lock = threading.Lock()

    def __call__(self, key, members):
        with self._lock:
            i = len(self.rows)
            self.rows.append(len(members))
            self.members += members
        if i in self.release:
            self.entered[i].set()
            assert self.release[i].wait(30)
        if i in self.fail:
            raise RuntimeError("injected batch fault")

    async def reached(self, i):
        for _ in range(30000):
            if self.entered[i].is_set():
                return
            await asyncio.sleep(1e-3)
        raise AssertionError(f"batch {i} never reached the executor")


async def turn():
    """Let the loop run what the last statement scheduled."""
    await asyncio.sleep(0)
    await asyncio.sleep(0)


the_add = Coalescer.add  # bound before any monkeypatching
the_done = Coalescer.done


def always_arm_the_timer(self, key, request):
    """Mutant: an idle lane is no reason to close a window."""
    state = the_add(self, key, request)
    return "first" if state == "idle" else state


def flush_each_on_arrival(self, key, request):
    """Mutant: a running batch is no reason to wait for company."""
    state = the_add(self, key, request)
    return "idle" if state in ("first", "queued") else state


def free_only_on_success(self, key):
    """Mutant: a batch that raised (or was cancelled) keeps its lane."""
    if sys.exc_info()[0] is not None:
        return False
    return the_done(self, key)


class TestWorkConservingWindows:
    TIMER = 10.0  # a window that waited for it would fail every test here

    def gateway(self, ladder, gate=None, **kwargs):
        kwargs.setdefault("window_seconds", self.TIMER)
        return make_gateway(ladder, fault_injector=gate, **kwargs)

    @staticmethod
    def submit(gw, x, tenant="gold-tenant"):
        return asyncio.ensure_future(gw.submit(
            x, tenant=tenant, deadline_seconds=60.0))

    # (a) ---------------------------------------------------------------

    def lone_request(self, ladder):
        gw = self.gateway(ladder)
        [x] = signals(1, seed=11)

        async def go():
            try:
                return await asyncio.wait_for(self.submit(gw, x), 0.5)
            finally:
                await gw.close()

        res = asyncio.run(go())
        assert np.array_equal(res.y, gw.plan(0).batch(x[None])[0])
        return gw

    def test_a_lone_request_does_not_wait_for_the_timer(self, ladder):
        gw = self.lone_request(ladder)
        assert gw.metrics.counter(
            "repro_serve_coalesce_flush_idle_total").value == 1

    def test_mutant_always_arm_the_timer(self, ladder, monkeypatch):
        monkeypatch.setattr(Coalescer, "add", always_arm_the_timer)
        with pytest.raises(asyncio.TimeoutError):
            self.lone_request(ladder)

    # (b) ---------------------------------------------------------------

    def behind_a_held_batch(self, ladder, k=4, after_each=lambda: None,
                            **kwargs):
        gate = Gate(0)
        gw = self.gateway(ladder, gate, **kwargs)
        xs = signals(1 + k, seed=12)

        async def go():
            try:
                tasks = [self.submit(gw, xs[0])]
                await gate.reached(0)
                for x in xs[1:]:  # each in a loop turn of its own
                    tasks.append(self.submit(gw, x))
                    await turn()
                    after_each()
                gate.release[0].set()
                return await asyncio.wait_for(asyncio.gather(*tasks), 30)
            finally:
                gate.release[0].set()
                await gw.close()

        out = asyncio.run(go())
        ref = gw.plan(0).batch(xs)
        assert all(np.array_equal(r.y, ref[i]) for i, r in enumerate(out))
        return gw, gate, out

    def test_arrivals_behind_a_running_batch_ride_the_next_one(self,
                                                               ladder):
        gw, gate, _ = self.behind_a_held_batch(ladder)
        assert gate.rows == [1, 4]
        closed = {why: gw.metrics.counter(
            f"repro_serve_coalesce_flush_{why}_total").value
            for why in ("idle", "lane_free", "full", "timer", "drain")}
        assert closed == {"idle": 1, "lane_free": 1, "full": 0,
                          "timer": 0, "drain": 0}

    def test_mutant_flush_each_on_arrival(self, ladder, monkeypatch):
        monkeypatch.setattr(Coalescer, "add", flush_each_on_arrival)
        _, gate, _ = self.behind_a_held_batch(ladder)
        assert gate.rows == [1, 1, 1, 1, 1]

    # (c) ---------------------------------------------------------------

    def after_a_lost_batch(self, ladder, how):
        gate = Gate(0)
        if how == "raises":
            gate.fail.add(0)
        gw = self.gateway(ladder, gate)
        xs = signals(2, seed=13)

        async def go():
            try:
                lost = self.submit(gw, xs[0])
                await gate.reached(0)
                if how == "cancelled":
                    [flush] = gw._flushes
                    flush.cancel()
                    lost.cancel()
                    await asyncio.gather(flush, lost,
                                         return_exceptions=True)
                gate.release[0].set()
                if how == "raises":  # its member steps down, alone
                    assert (await lost).report.rung_index == 1
                return await asyncio.wait_for(self.submit(gw, xs[1]), 0.5)
            finally:
                gate.release[0].set()
                await gw.close()

        res = asyncio.run(go())
        assert res.outcome == "ok"
        assert np.array_equal(res.y, gw.plan(0).batch(xs[1:])[0])

    @pytest.mark.parametrize("how", ["raises", "cancelled"])
    def test_a_lost_batch_still_frees_its_lane(self, ladder, how):
        self.after_a_lost_batch(ladder, how)

    @pytest.mark.parametrize("how", ["raises", "cancelled"])
    def test_mutant_free_only_on_success(self, ladder, how, monkeypatch):
        monkeypatch.setattr(Coalescer, "done", free_only_on_success)
        with pytest.raises(asyncio.TimeoutError):
            self.after_a_lost_batch(ladder, how)

    # (d) ---------------------------------------------------------------

    #: (virtual second, tenant): every batch takes 1 s whatever its
    #: rows, a window holds three, its timer is 0.3 s, two executors
    SCRIPT = [
        (0.00, "a"), (0.00, "b"),  # one instant, idle lane: one window
        (0.10, "c"), (0.11, "d"), (0.12, "e"),  # behind it: full at 3
        (1.05, "f"),  # a|b ended at 1.0, c|d|e runs until 1.12
        (2.20, "g"),  # f ended at 2.12: idle again
        (2.30, "h"),  # behind g, which outlasts the timer
        (5.00, "i"),
    ]
    WINDOWS = [("a", "b"), ("c", "d", "e"), ("f",), ("g",), ("h",), ("i",)]
    WHY = ["idle", "full", "lane_free", "idle", "timer", "idle"]

    def both_drivers(self, ladder, monkeypatch):
        """The script's windows as the simulator, then the gateway,
        closed them (what ``Coalescer.take`` handed out, in order)."""
        taken = []
        the_take = Coalescer.take

        def take(self, key):
            members = the_take(self, key)
            if members:
                taken.append(tuple(m.tenant for m in members))
            return members

        monkeypatch.setattr(Coalescer, "take", take)
        names = [tenant for _, tenant in self.SCRIPT]

        def qos():
            q = QosPolicy(metrics=MetricsRegistry())
            for tenant in names:
                q.assign(tenant, "gold")
            return q

        simulate_serving(
            ladder, [Arrival(t, tenant, 60.0) for t, tenant in self.SCRIPT],
            model=ServiceModel(setup_s=(1.0,) * len(ladder),
                               per_row_s=(0.0,) * len(ladder)),
            qos=qos(), max_batch=3, window_seconds=0.3, n_workers=2)
        simulated = taken[:]
        del taken[:]

        gate = Gate(0, 1, 3)  # a|b, c|d|e and g are held; f, h, i run
        gw = self.gateway(ladder, gate, qos=qos(), max_batch=3,
                          window_seconds=0.3)
        xs = dict(zip(names, signals(len(names), seed=14)))

        def send(*tenants):
            return [self.submit(gw, xs[t], tenant=t) for t in tenants]

        async def go():
            try:
                ab = send("a", "b")
                await gate.reached(0)
                cde = []
                for tenant in "cde":
                    cde += send(tenant)
                    await turn()
                await gate.reached(1)
                gate.release[0].set()
                await asyncio.wait_for(asyncio.gather(*ab), 30)
                f = send("f")
                await turn()
                gate.release[1].set()
                await asyncio.wait_for(asyncio.gather(*cde, *f), 30)
                g = send("g")
                await gate.reached(3)
                h = send("h")  # only the timer can close its window
                await asyncio.wait_for(asyncio.gather(*h), 30)
                gate.release[3].set()
                await asyncio.wait_for(asyncio.gather(*g), 30)
                await asyncio.wait_for(asyncio.gather(*send("i")), 30)
            finally:
                for release in gate.release.values():
                    release.set()
                await gw.close()

        asyncio.run(go())
        return simulated, taken, gw

    def test_gateway_and_simulator_close_the_same_windows(
            self, ladder, monkeypatch):
        simulated, served, gw = self.both_drivers(ladder, monkeypatch)
        assert simulated == served == self.WINDOWS
        for why in set(self.WHY):
            assert gw.metrics.counter(
                f"repro_serve_coalesce_flush_{why}_total"
            ).value == self.WHY.count(why)

    def test_mutant_a_flush_that_sorts_before_same_instant_arrivals(
            self, ladder, monkeypatch):
        monkeypatch.setattr(loadgen, "_FLUSH", -1)
        simulated, served, _ = self.both_drivers(ladder, monkeypatch)
        assert served == self.WINDOWS
        assert simulated[0] == ("a",)  # the burst was split
        assert simulated != served

    def test_span_says_why_and_how_long_the_oldest_waited(self, ladder):
        from repro.telemetry import SpanRecorder

        rec = SpanRecorder()
        t = [100.0]

        def quarter_second():
            t[0] += 0.25

        _, gate, out = self.behind_a_held_batch(
            ladder, k=2, after_each=quarter_second, recorder=rec,
            clock=lambda: t[0])
        spans = [s.attributes for s in rec.spans if s.kind == "coalesce"]
        assert [(a["rows"], a["why"], a["oldest_wait_s"]) for a in spans] \
            == [(1, "idle", 0.0), (2, "lane_free", 0.5)]
        # the itemization still sums to each member's latency (of the
        # window that waited; the injector's hold of the first is uncharged)
        for res, m, wait in zip(out[1:], gate.members[1:], (0.5, 0.25)):
            charges = m.deadline.budget.charges
            assert charges["coalesce wait"] == pytest.approx(wait)
            assert m.deadline.budget.spent == pytest.approx(
                res.latency_seconds)


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


class LearningCalibration:
    """A calibration whose every stage factor grows by one each call, and
    which counts its calls."""

    def __init__(self):
        self.calls = 0

    def total(self, breakdown) -> float:
        self.calls += 1
        return sum(seconds * self.calls for seconds in breakdown.values())


class TestAdmissionKeepsTheModel:
    """``_Admission.estimate`` evaluates the cost model once per (rung,
    batch), keeps it read-only, and still sums it through the calibration
    on every call."""

    def counting_model(self, monkeypatch) -> list:
        from repro.resilience import server as server_mod
        calls, real = [], server_mod.soi_request_breakdown

        def spy(params, *args, **kwargs):
            calls.append((params, kwargs["itemsize"], kwargs["batch"]))
            return real(params, *args, **kwargs)
        monkeypatch.setattr(server_mod, "soi_request_breakdown", spy)
        return calls

    def test_one_model_evaluation_per_key_and_the_same_floats(
            self, ladder, monkeypatch):
        from repro.perfmodel.model import soi_request_breakdown
        calls = self.counting_model(monkeypatch)
        adm = _Admission(ladder, queue_limit=8, calibration_gain=0.3,
                         metrics=MetricsRegistry())
        keys = [(rung, batch) for rung in ladder.rungs for batch in (1, 2, 3)]
        for _ in range(3):
            for rung, batch in keys:
                want = sum(soi_request_breakdown(
                    rung.params, adm.machine, nodes=adm.nodes,
                    itemsize=rung.dtype.itemsize, batch=batch).values())
                assert adm.estimate(rung, batch) == want
        assert len(calls) == len(keys)
        with pytest.raises(TypeError):
            adm.breakdown(ladder[0])["local FFT"] = 0.0

    def test_the_calibration_runs_on_every_call(self, ladder):
        learning = LearningCalibration()
        adm = _Admission(ladder, queue_limit=8, calibration_gain=0.3,
                         metrics=MetricsRegistry(), calibration=learning)
        br = adm.breakdown(ladder[0])
        got = [adm.estimate(ladder[0]) for _ in range(3)]
        assert learning.calls == 3
        assert got == [sum(s * k for s in br.values()) for k in (1, 2, 3)]


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
        # company arrives while a batch runs: a 250 us request outlasts
        # the 125 us between arrivals at 8000 req/s, not the 2 ms at 500
        model = ServiceModel(setup_s=(2e-4,) * len(ladder),
                             per_row_s=(5e-5,) * len(ladder))
        results = sweep_offered_load(
            ladder, (500.0, 8000.0), n_requests=1200, seed=0,
            tenants={"gold-tenant": 1.0}, deadline_seconds=0.05,
            model=model, qos_factory=fresh_qos)
        assert results[0].coalesce_ratio < 1.1 < 2.0 < \
            results[1].coalesce_ratio

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

    def test_idle_latency_gate_and_its_mutant(self, monkeypatch):
        from repro.bench.servebench import simulated_curves

        gates = simulated_curves(True)["gates"]
        assert gates["idle_latency_ok"] and gates["coalesce_effective_ok"]
        assert gates["idle_p50_s"] == pytest.approx(3.3e-4, rel=0.01)
        # the policy this gate was written against: every request sits
        # out the window timer, busy lane or not
        monkeypatch.setattr(Coalescer, "add", always_arm_the_timer)
        gates = simulated_curves(True)["gates"]
        assert not gates["idle_latency_ok"]
        assert gates["idle_p50_s"] > 2e-3

    def test_cli_verb_smoke(self, tmp_path, capsys):
        from repro.cli import main

        curves = tmp_path / "curves.txt"
        code = main(["serve-bench", "--quick", "--output", str(curves)])
        out = capsys.readouterr().out
        assert "offered" in out and "coalesce" in out
        assert curves.exists()
        assert code == 0
