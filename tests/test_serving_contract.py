"""The four-outcome serving contract, stated once over every driver.

One lifecycle (:class:`repro.resilience.server._Admission`: ``open`` ->
execute -> ``settle`` / ``step_down``) and four drivers of it — so every
scenario below runs through the same code whichever front end took the
request, and what must hold is the same: each submitted request ends in
exactly one of ``ok`` / ``degraded`` / ``Overloaded`` /
``DeadlineExceeded``; the caller is handed the very outcome the
lifecycle decided; ``served + shed + overruns == submitted``; and no
backlog token outlives its request.  Three mutants of the lifecycle
show the suite can fail.
"""

import ast
import asyncio
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

import repro.resilience
import repro.serve
from repro.cluster.faults import RetriesExhausted
from repro.cluster.simcluster import SimCluster
from repro.resilience import server
from repro.resilience.deadline import DeadlineExceeded, Overloaded
from repro.resilience.ladder import DegradationLadder
from repro.resilience.server import (
    ClusterSoiService,
    ServeResult,
    SoiService,
    _Admission,
)
from repro.serve import gateway, loadgen
from repro.serve.gateway import AsyncSoiGateway, serve_requests
from repro.serve.loadgen import Arrival, ServiceModel, simulate_serving
from repro.serve.qos import QosPolicy
from repro.telemetry.metrics import MetricsRegistry
from tests.test_resilience import FakeClock

pytestmark = pytest.mark.serve

N = 896
RANKS = 4
K = 3  # requests per scenario
FLOOR_DB = 70.0
TENANT = "gold-tenant"


@pytest.fixture(scope="module")
def ladder():
    return DegradationLadder.standard(N, segments_per_process=8)


@pytest.fixture(scope="module")
def cluster_ladder():
    return DegradationLadder.standard(8 * 448, n_procs=RANKS,
                                      segments_per_process=2)


def signals(n, count=K, seed=18):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((count, n))
            + 1j * rng.standard_normal((count, n)))


class Recording(_Admission):
    """The lifecycle, with every outcome it decides written down."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **{**kwargs, "metrics": MetricsRegistry()})
        self.log = []

    def open(self, *args, **kwargs):
        try:
            return super().open(*args, **kwargs)
        except Overloaded as exc:
            self.log.append(exc)
            raise

    def settle(self, *args, **kwargs):
        outcomes = super().settle(*args, **kwargs)
        self.log.extend(o for o in outcomes if o is not None)
        return outcomes

    def step_down(self, *args, **kwargs):
        over = super().step_down(*args, **kwargs)
        if over is not None:
            self.log.append(over)
        return over

    @property
    def overruns(self):
        return self.metrics.counter(
            "repro_serve_deadline_overruns_total").value


@pytest.fixture(autouse=True)
def recorded(monkeypatch):
    for module in (server, gateway, loadgen):
        monkeypatch.setattr(module, "_Admission", Recording)


def gold_qos():
    qos = QosPolicy(metrics=MetricsRegistry())
    qos.assign(TENANT, "gold")
    return qos


class Driver:
    """What a scenario needs from a front end, whichever it is."""

    name = ""
    #: run where the executor is entered; raises to fail the execution
    on_execute = staticmethod(lambda rung_index: None)
    #: seconds the executor takes beyond the request's deadline
    stall = 0.0
    executions = 0
    queue_limit = 8

    def _entered(self, rung_index):
        self.executions += 1
        self.on_execute(rung_index)

    def seconds(self, rung_index):
        """What admission projects for one request on an idle service."""
        adm = self.admission
        return adm.scaled(adm.estimate(adm.ladder[rung_index]))

    def fill_queue(self):
        self.admission._backlog.extend(
            [self.now() + 1e3] * self.queue_limit)

    def drain_queue(self):
        self.admission._backlog.clear()


class Inline(Driver):
    name = "SoiService"

    def __init__(self, ladder):
        self.clock = FakeClock()
        self.ladder = ladder
        self.svc = SoiService(ladder, clock=self.clock,
                              queue_limit=self.queue_limit)
        self.admission = self.svc.admission
        self.xs = signals(N)
        plan_of = self.svc.plan

        def plan(i):
            p = plan_of(i)
            if "batch" not in vars(p):
                batch = p.batch

                def entered(xs, out=None, deadline=None):
                    self._entered(i)
                    y = batch(xs, out=out, deadline=deadline)
                    self.clock.t += self.stall  # only completion sees it
                    return y

                p.batch = entered
            return p

        self.svc.plan = plan

    def now(self):
        return self.clock()

    def submit(self, deadline_seconds, min_snr_db, count=K):
        out = []
        for x in self.xs[:count]:
            try:
                out.append(self.svc.submit(
                    x, deadline_seconds=deadline_seconds,
                    min_snr_db=min_snr_db))
            except (Overloaded, DeadlineExceeded) as exc:
                out.append(exc)
        return out


class Gateway(Driver):
    def __init__(self, ladder, max_batch):
        self.name = "gateway solo" if max_batch == 1 else "gateway coalesced"
        self.ladder = ladder
        self.clock = FakeClock()
        self.gw = AsyncSoiGateway(
            ladder, qos=gold_qos(), metrics=MetricsRegistry(),
            queue_limit=self.queue_limit, max_batch=max_batch,
            window_seconds=1e-3 if max_batch > 1 else 1e-4,
            clock=self.clock,
            fault_injector=self._injector)
        self.admission = self.gw.admission
        self.xs = signals(N)

    def _injector(self, key, members):
        self._entered(key.rung_index)
        self.clock.t += self.stall  # batch() itself checks no deadline

    now = Inline.now

    def submit(self, deadline_seconds, min_snr_db, count=K):
        out = serve_requests(self.gw, [
            {"x": x, "tenant": TENANT, "deadline_seconds": deadline_seconds,
             "min_snr_db": min_snr_db} for x in self.xs[:count]])
        asyncio.run(self.gw.close())
        return out


@dataclass(frozen=True)
class StallingModel(ServiceModel):
    """A batch takes *stall* seconds longer than admission projected."""

    stall: float = 0.0

    def request_seconds(self, rung_index):
        return ServiceModel.batch_seconds(self, rung_index, 1)

    def batch_seconds(self, rung_index, rows):
        return ServiceModel.batch_seconds(self, rung_index, rows) + self.stall


class Simulated(Driver):
    """No executor to enter: the model's seconds are the execution."""

    name = "simulate_serving"
    window_seconds = 1e-6  # next to nothing beside a 10 ms request

    def __init__(self, ladder):
        self.ladder = ladder
        base = ServiceModel.analytic(ladder)
        scale = 1e-2 / base.request_seconds(0)
        self.model = StallingModel(
            setup_s=tuple(t * scale for t in base.setup_s),
            per_row_s=tuple(t * scale for t in base.per_row_s))
        self.full = False
        self.admission = None

    def seconds(self, rung_index):
        return self.model.request_seconds(rung_index)

    def fill_queue(self):
        self.full = True

    def drain_queue(self):
        pass

    def submit(self, deadline_seconds, min_snr_db, count=K):
        made = []
        admission = loadgen._Admission

        def capture(*args, **kwargs):
            made.append(admission(*args, **kwargs))
            if self.full:  # somebody else's work, never finishing
                made[-1]._backlog.extend([1e9] * self.queue_limit)
            return made[-1]

        loadgen._Admission = capture
        try:
            self.result = simulate_serving(
                self.ladder,
                [Arrival(1.0, TENANT, deadline_seconds, min_snr_db)] * count,
                model=replace(self.model, stall=self.stall), qos=gold_qos(),
                queue_limit=self.queue_limit, max_batch=K + 1,  # never full
                window_seconds=self.window_seconds)
        finally:
            loadgen._Admission = admission
        [self.admission] = made
        if self.full:
            del self.admission._backlog[:self.queue_limit]
        return list(self.admission.log)


class Cluster(Driver):
    name = "ClusterSoiService"

    def __init__(self, ladder):
        self.ladder = ladder
        self.cl = SimCluster(RANKS)
        self.svc = ClusterSoiService(self.cl, ladder,
                                     queue_limit=self.queue_limit)
        self.admission = self.svc.admission
        # a warmed-up service: the Section 4 model is 14-15x optimistic
        # about this latency-bound toy fabric, on every rung
        self.admission._scale = 16.0
        self.xs = signals(8 * 448)
        plan_of = self.svc._plan
        driver = self

        class Entered:
            def __init__(self, i):
                self.i, self.soi = i, plan_of(i)

            def __getattr__(self, name):
                return getattr(self.soi, name)

            def __call__(self, *args, **kwargs):
                driver._entered(self.i)
                blocks = self.soi(*args, **kwargs)
                for r in driver.cl.live_ranks:  # only completion sees it
                    driver.cl.clocks[r] += driver.stall
                return blocks

        self.svc._plan = Entered

    def now(self):
        return self.cl.elapsed

    submit = Inline.submit


DRIVERS = {
    "SoiService": lambda lad, clad: Inline(lad),
    "gateway solo": lambda lad, clad: Gateway(lad, 1),
    "gateway coalesced": lambda lad, clad: Gateway(lad, K),
    "simulate_serving": lambda lad, clad: Simulated(lad),
    "ClusterSoiService": lambda lad, clad: Cluster(clad),
}
#: the drivers whose executor can fail (the inline one runs no verifier and
#: the model cannot)
FAILING = ["gateway solo", "gateway coalesced", "ClusterSoiService"]


def injected(driver):
    return (RetriesExhausted if driver.name == "ClusterSoiService"
            else RuntimeError)("injected")


def kind(outcome):
    return (outcome.outcome if isinstance(outcome, ServeResult)
            else type(outcome).__name__)


def check(driver, delivered, expect, *, submitted=K):
    """The contract, for *submitted* requests that all *expect* one kind."""
    adm = driver.admission
    assert [kind(o) for o in delivered] == [expect] * submitted
    # exactly one outcome per request, and the caller got that very one
    assert sorted(map(id, delivered)) == sorted(map(id, adm.log))
    assert adm.served_count + adm.shed_count + adm.overruns == submitted
    assert adm.queued == 0
    if driver.name == "simulate_serving":
        res = driver.result
        assert (res.served, res.shed, res.deadline_exceeded) == (
            adm.served_count, adm.shed_count, adm.overruns)
        assert res.degraded == sum(kind(o) == "degraded" for o in delivered)


def fields(result):
    r = result.report
    return (result.outcome, r.rung_index, r.reason, r.attempts,
            result.deadline_seconds)


def scenario_loose(d):
    delivered = d.submit(60.0, FLOOR_DB)
    check(d, delivered, "ok")
    assert [fields(o) for o in delivered] == [
        ("ok", 0, "full quality", 1, 60.0)] * K
    assert d.name == "simulate_serving" or d.executions > 0
    return delivered


def scenario_tight(d):
    cheapest, _rung = d.ladder.cheapest_viable(FLOOR_DB)
    assert d.seconds(cheapest) < d.seconds(0)  # else the ladder cannot help
    deadline = (d.seconds(cheapest) + d.seconds(0)) / 2
    [outcome] = delivered = d.submit(deadline, FLOOR_DB, count=1)
    check(d, delivered, "degraded", submitted=1)
    assert outcome.report.rung_index > 0
    assert outcome.report.reason == "deadline pressure"


def scenario_impossible(d):
    check(d, d.submit(1e-12, FLOOR_DB), "Overloaded")
    assert d.executions == 0  # shed before anything ran


def scenario_queue_full(d):
    d.fill_queue()
    delivered = d.submit(60.0, FLOOR_DB)
    d.drain_queue()
    check(d, delivered, "Overloaded")
    assert d.executions == 0


def scenario_floor(d):
    check(d, d.submit(60.0, 1e9), "Overloaded")
    assert d.executions == 0


def scenario_overrun(d):
    d.stall = 10.0  # admitted on what was projected; the stall is on top
    check(d, d.submit(5.0, FLOOR_DB), "DeadlineExceeded")


def scenario_step_down(d):
    def fail_full_quality(rung_index):
        if rung_index == 0:
            raise injected(d)

    d.on_execute = fail_full_quality
    delivered = d.submit(60.0, FLOOR_DB)
    check(d, delivered, "degraded")
    what = "collective" if d.name == "ClusterSoiService" else "batch"
    for o in delivered:
        assert o.report.rung_index == 1
        assert o.report.reason == (
            f"{what} failure ({type(injected(d)).__name__})")


def scenario_shed_after_failures(d):
    def fail(rung_index):
        raise injected(d)

    d.on_execute = fail
    delivered = d.submit(60.0, FLOOR_DB)
    check(d, delivered, "Overloaded")
    assert all(isinstance(o.__cause__, type(injected(d)))
               for o in delivered)
    assert d.executions > K  # every request was tried on a second rung


SCENARIOS = {
    "loose deadline -> ok on rung 0": (scenario_loose, list(DRIVERS)),
    "tight deadline -> degraded, deadline pressure": (
        scenario_tight, list(DRIVERS)),
    "impossible deadline -> Overloaded, nothing ran": (
        scenario_impossible, list(DRIVERS)),
    "queue full -> Overloaded": (scenario_queue_full, list(DRIVERS)),
    "unreachable accuracy floor -> Overloaded": (
        scenario_floor, list(DRIVERS)),
    "execution overruns -> DeadlineExceeded": (
        scenario_overrun, list(DRIVERS)),
    "execution fails -> one rung down": (scenario_step_down, FAILING),
    "execution keeps failing -> shed": (
        scenario_shed_after_failures, FAILING),
}
CELLS = [pytest.param(s, d, id=f"{d}: {s}")
         for s, (_run, drivers) in SCENARIOS.items() for d in drivers]


def run_cell(scenario, driver, ladder, cluster_ladder):
    d = DRIVERS[driver](ladder, cluster_ladder)
    return SCENARIOS[scenario][0](d)


class TestOneLifecycleUnderEveryDriver:
    @pytest.mark.parametrize("scenario, driver", CELLS)
    def test_contract(self, scenario, driver, ladder, cluster_ladder):
        run_cell(scenario, driver, ladder, cluster_ladder)

    def test_node_local_drivers_return_the_same_bits(self, ladder,
                                                     cluster_ladder):
        runs = [run_cell("loose deadline -> ok on rung 0", d, ladder,
                         cluster_ladder)
                for d in ("SoiService", "gateway solo", "gateway coalesced")]
        for other in runs[1:]:
            for a, b in zip(runs[0], other):
                assert np.array_equal(a.y, b.y)

    def test_a_caller_error_is_not_an_outcome_and_leaves_no_token(
            self, ladder):
        d = Inline(ladder)

        def broken(rung_index):
            raise KeyError("not the service's fault")

        d.on_execute = broken
        with pytest.raises(KeyError):
            d.svc.submit(d.xs[0], deadline_seconds=60.0)
        adm = d.admission
        assert adm.log == [] and adm.queued == 0
        assert adm.served_count + adm.shed_count + adm.overruns == 0

    @pytest.mark.parametrize("batch_fails", [False, True])
    def test_cancelled_submit_frees_its_token_and_spares_its_window(
            self, ladder, batch_fails):
        def chaos(key, members):
            if batch_fails and key.rung_index == 0:
                raise RuntimeError("injected")

        gw = AsyncSoiGateway(ladder, qos=gold_qos(),
                             metrics=MetricsRegistry(), max_batch=8,
                             window_seconds=0.02, clock=FakeClock(),
                             fault_injector=chaos)
        xs = signals(N)

        async def go():
            tasks = [asyncio.ensure_future(gw.submit(
                x, tenant=TENANT, deadline_seconds=30.0)) for x in xs]
            await asyncio.sleep(0)  # all three joined one window
            assert gw.coalescer.pending == K and gw.admission.queued == K
            tasks[1].cancel()
            out = await asyncio.gather(*tasks, return_exceptions=True)
            await gw.close()
            return out

        out = asyncio.run(go())
        assert isinstance(out[1], asyncio.CancelledError)
        rung = int(batch_fails)
        ref = gw.plan(rung).batch(xs)
        for i in (0, 2):  # the siblings never noticed
            assert out[i].outcome == ("degraded" if batch_fails else "ok")
            assert out[i].report.rung_index == rung
            assert np.array_equal(out[i].y, ref[i])
        adm = gw.admission
        assert adm.queued == 0 and gw.stats()["batches"] == 1
        assert adm.served_count == 2 and len(adm.log) == 2
        assert gw.stats()["tenants"][TENANT]["served"] == 2


# -- the suite can fail: three mutants of the lifecycle ----------------------

the_settle = _Admission.settle  # bound before any monkeypatching
the_step_down = _Admission.step_down


def skip_the_completion_check(self, members, ys, **kwargs):
    """Mutant: a window is settled without asking whether it is late."""
    for m in members:
        m.deadline.check = lambda stage="": None
    return the_settle(self, members, ys, **kwargs)


def keep_the_backlog_token(self, members, ys, **kwargs):
    """Mutant: an outcome is delivered but its queue slot never freed."""
    release, self.release = self.release, lambda projected: None
    try:
        return the_settle(self, members, ys, **kwargs)
    finally:
        self.release = release


def resolve_a_member_twice(self, members, ys, **kwargs):
    """Mutant: the first member of a window is ended a second time."""
    outcomes = the_settle(self, members, ys, **kwargs)
    members[0].future = None  # past the waiter's own exactly-once guard
    self._resolve(members[0], outcomes[0])
    return outcomes


def stay_on_the_failed_rung(self, req, cause, **kwargs):
    """Mutant: a failed execution is sent back to the rung that failed."""
    if kwargs.get("last") or isinstance(cause, DeadlineExceeded):
        return the_step_down(self, req, cause, **kwargs)
    return None


SETTLE_MUTANTS = {
    skip_the_completion_check: "execution overruns -> DeadlineExceeded",
    keep_the_backlog_token: "loose deadline -> ok on rung 0",
    resolve_a_member_twice: "loose deadline -> ok on rung 0",
}


class TestTheContractCanFail:
    @pytest.mark.parametrize("driver", DRIVERS)
    @pytest.mark.parametrize("mutant", SETTLE_MUTANTS,
                             ids=lambda m: m.__name__)
    def test_a_mutant_settle_turns_every_driver_red(
            self, mutant, driver, ladder, cluster_ladder, monkeypatch):
        monkeypatch.setattr(_Admission, "settle", mutant)
        with pytest.raises(AssertionError):
            run_cell(SETTLE_MUTANTS[mutant], driver, ladder, cluster_ladder)

    @pytest.mark.parametrize("driver", FAILING)
    def test_a_mutant_step_down_turns_every_failing_driver_red(
            self, driver, ladder, cluster_ladder, monkeypatch):
        monkeypatch.setattr(_Admission, "step_down", stay_on_the_failed_rung)
        with pytest.raises(AssertionError):
            run_cell("execution fails -> one rung down", driver, ladder,
                     cluster_ladder)


# -- tier-1 guard: the lifecycle is written once ------------------------------

def test_lifecycle_is_written_once():
    """An ``ast`` count over ``src/repro/{serve,resilience}`` (docstrings
    cannot trip it): one construction each of ``ServeResult`` and
    ``DegradationReport``, no ``record_served`` / ``record_overrun`` call
    outside ``_Admission``, one ``soi_request_breakdown`` projection
    outside ``ServiceModel``.  A front end that decides an outcome by
    hand — a fork of the lifecycle — turns this red."""
    calls = {"ServeResult": 0, "DegradationReport": 0,
             "soi_request_breakdown": 0, "record_served": 0,
             "record_overrun": 0}
    owned = {"_Admission": ("record_served", "record_overrun"),
             "ServiceModel": ("soi_request_breakdown",)}

    def count(tree, sign, names):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                called = getattr(f, "id", None) or getattr(f, "attr", "")
                if called in names:
                    calls[called] += sign

    for package in (repro.serve, repro.resilience):
        for path in sorted(Path(package.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            count(tree, +1, calls)
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef) and node.name in owned:
                    count(node, -1, owned[node.name])  # the owner's own
    assert calls == {"ServeResult": 1, "DegradationReport": 1,
                     "soi_request_breakdown": 1, "record_served": 0,
                     "record_overrun": 0}
