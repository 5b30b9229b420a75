"""The distributed-SOI contract, stated once at the executor seam.

One rank program (:func:`repro.core.soi_dist.soi_rank_program`), one
planner (:meth:`repro.core.soi_dist.Ownership.after_failures`), one
driver (:class:`repro.core.soi_dist.DistributedSoiFFT`) and one kernel
set per node (the geometry's :class:`~repro.core.soi_single.SoiFFT`) — so
every scenario below runs through the same code on either executor, and
what must hold is the same: the spectrum is *bitwise* the single-node
transform of the same geometry, and for equal dead sets both executors
report the same recovery plan.  Process cases carry the ``parallel``
marker.
"""

import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core
import repro.core.soi_dist as soi_dist
from repro.cluster.backends import ProcessBackend, SimulatedBackend
from repro.cluster.faults import (
    FaultPlan,
    PartitionEvent,
    ProcessFault,
    ProcessFaultPlan,
    RetryPolicy,
)
from repro.cluster.shm import list_segments
from repro.cluster.simcluster import SimCluster
from repro.cluster.topology import FatTree
from repro.core.convolution import convolve
from repro.core.params import SoiParams
from repro.core.soi_dist import DistributedSoiFFT, Ownership
from repro.core.soi_single import SoiFFT
from repro.core.soi_spmd import spmd_soi_fft
from repro.fft.plan import get_plan
from repro.telemetry.metrics import MetricsRegistry

P = 4
PARAMS = SoiParams(n=2 ** 12, n_procs=P, segments_per_process=2,
                   n_mu=5, d_mu=4, b=48)


def signal(n, seed=2013):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def single_node(params, x):
    """:class:`SoiFFT` of *params*' segment geometry on one process."""
    return SoiFFT(replace(params, n_procs=1,
                          segments_per_process=params.n_segments))(x)


def stockham_rank_lane(monkeypatch):
    """Mutant: a rank's front transforms its lanes with a Stockham
    length-S plan, ``get_plan(S, -1)``, over the convolution's rows, as
    ranks did before they ran the single-node kernels — as accurate, and a
    few ulps off the front's GEMM.  Processes forked before it keep the
    real front."""
    def rank_front(x_ext, tables, j_start, n_rows, block_lo, out=None, *,
                   workspace=None):
        u = convolve(x_ext, tables, j_start, n_rows, block_lo,
                     workspace=workspace)
        lane = get_plan(tables.params.n_segments, -1)
        return np.ascontiguousarray(lane(u).swapaxes(-1, -2))
    monkeypatch.setattr(soi_dist, "front", rank_front)


X = signal(PARAMS.n)

#: scenario -> (simulated wire plan, process plan, ranks that end up dead).
#: Simulated transfers: 1 ghost ring, 2 all-to-all, then per recovery
#: round one "recovery redistribute" bcast per dead rank and one
#: all-to-all.  Process collectives: job 1 = (0 ring, 1 all-to-all),
#: every recovery job = (0 all-to-all).
SCENARIOS = {
    "fault-free": (None, None, ()),
    "death before the post-conv checkpoint": (
        {1: 1}, [ProcessFault("kill", rank=1, at=0)], (1,)),
    "death at the all-to-all": (
        {2: 2}, [ProcessFault("kill", rank=2, at=1)], (2,)),
    "two deaths": (
        {1: 2, 3: 2}, [ProcessFault("kill", rank=1, at=1),
                       ProcessFault("kill", rank=3, at=1)], (1, 3)),
    "a further death during recovery": (
        {2: 2, 0: 4}, [ProcessFault("kill", rank=2, at=1),
                       ProcessFault("kill", rank=0, job=2, at=0)],
        (0, 2)),
}


@pytest.fixture(scope="module")
def reference():
    """The single-node spectrum every run must equal bitwise."""
    return single_node(PARAMS, X)


@pytest.fixture(scope="module")
def workers():
    be = ProcessBackend(P, hang_timeout=1.5)
    yield be
    token = be._token
    be.close()
    assert list_segments(token) == [], "leaked /dev/shm segments"


def run_simulated(scenario, params=PARAMS):
    cl = SimCluster(P)
    failures = SCENARIOS[scenario][0]
    if failures is not None:
        # no retries: a dead rank is declared at the transfer it misses,
        # so the transfer numbers above are the whole schedule
        cl.comm.install_faults(FaultPlan(rank_failures=failures),
                               RetryPolicy(max_retries=0))
    soi = DistributedSoiFFT(cl, params)
    return soi.assemble(soi(soi.scatter(signal(params.n)))), \
        soi.last_recovery


def run_processes(scenario, be):
    faults = SCENARIOS[scenario][1]
    be.inject(ProcessFaultPlan(faults) if faults is not None else None)
    try:
        soi = DistributedSoiFFT(SimCluster(P), PARAMS, backend=be)
        return soi.assemble(soi(soi.scatter(X))), soi.last_recovery
    finally:
        be.inject(None)


def plan_of(report):
    return report and (report.dead_ranks, report.n_live,
                       report.slot_owners, report.recomputed_rows)


class TestOneProgramOnEitherExecutor:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_simulated(self, scenario, reference):
        y, report = run_simulated(scenario)
        assert np.array_equal(y, reference)  # bitwise, also after recovery
        dead = SCENARIOS[scenario][2]
        assert (report.dead_ranks if report else ()) == dead

    @pytest.mark.parallel
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_processes(self, scenario, reference, workers):
        y, report = run_processes(scenario, workers)
        assert np.array_equal(y, reference)
        # same dead set => the one planner hands both executors the same
        # recovery plan
        _y, sim_report = run_simulated(scenario)
        assert plan_of(report) == plan_of(sim_report)
        assert workers.last_recovery is report

    def test_wire_volume_is_the_closed_form(self):
        """SOI's all-to-all moves ~mu * 16N * (P-1)/P bytes + small ghosts."""
        cl = SimCluster(P)
        spmd_soi_fft(cl, PARAMS, X)
        a2a = 16 * PARAMS.n_oversampled * (P - 1) // P
        ghosts = sum(PARAMS.ghost_blocks) * PARAMS.n_segments * 16 * P
        assert cl.comm.bytes_moved == a2a + ghosts


#: A geometry whose ranks' rows fill whole front tiles (M'/P = 2048 rows,
#: tiles of 1024): only a recovery slice starts inside one.
TILED = SoiParams(n=7 * 2 ** 13, n_procs=P, segments_per_process=2,
                  n_mu=8, d_mu=7, b=48)


class TestOneKernelSet:
    """A rank runs its geometry's :class:`SoiFFT` kernels on its rows and
    segments, so every executor returns the single-node bits; the
    Stockham-lane mutant turns each of these checks red."""

    def test_a_recovery_slice_that_starts_mid_tile(self):
        tile = SoiFFT(TILED)._conv_tile
        own = Ownership.after_failures(TILED, [0, 1, 3], {0, 1, 3},
                                       [0, 1, 3])
        assert any(j0 % tile for cover in own.rows for j0, _nr, _ck in cover)
        y, report = run_simulated("death at the all-to-all", TILED)
        assert report.dead_ranks == (2,)
        assert np.array_equal(y, single_node(TILED, signal(TILED.n)))

    def test_the_mutant_turns_a_mid_tile_recovery_red(self, monkeypatch):
        stockham_rank_lane(monkeypatch)
        y, _report = run_simulated("death at the all-to-all", TILED)
        assert not np.array_equal(y, single_node(TILED, signal(TILED.n)))

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_the_mutant_turns_the_simulator_red(self, scenario, reference,
                                                monkeypatch):
        stockham_rank_lane(monkeypatch)
        y, _report = run_simulated(scenario)
        assert not np.array_equal(y, reference)

    @pytest.mark.parallel
    def test_the_mutant_turns_the_workers_red(self, reference, monkeypatch):
        stockham_rank_lane(monkeypatch)
        be = ProcessBackend(P, hang_timeout=1.5)  # forked under the mutant
        try:
            for scenario in ("fault-free", "death at the all-to-all"):
                y, _report = run_processes(scenario, be)
                assert not np.array_equal(y, reference), scenario
        finally:
            token = be._token
            be.close()
        assert list_segments(token) == []


# -- the planner ------------------------------------------------------------

def check_planner(planner, params, survivors, have_ckpt):
    """What any shrink-and-redistribute plan must satisfy."""
    p = params
    rows, spp = p.rows_per_process, p.segments_per_process
    own = planner(p, survivors, have_ckpt, survivors)
    assert set(own.ranks) <= set(survivors)  # work only lands on the living
    ranges = sorted((j0, nr) for cover in own.rows for j0, nr, _ck in cover)
    assert all(j0 % p.n_mu == 0 and nr % p.n_mu == 0 and nr > 0
               for j0, nr in ranges)
    edges = [j0 for j0, _nr in ranges] + [p.m_oversampled]
    assert edges[0] == 0 and all(
        j0 + nr == nxt for (j0, nr), nxt in zip(ranges, edges[1:]))
    owners = [r for r, ts in zip(own.ranks, own.slots) for _t in ts]
    slots = sorted(t for ts in own.slots for t in ts)
    assert slots == list(range(p.n_segments)) and len(owners) == len(slots)
    for r, cover, ts in zip(own.ranks, own.rows, own.slots):
        assert (r * rows, rows, r in have_ckpt) in cover  # keeps its rows
        assert set(range(r * spp, (r + 1) * spp)) <= set(ts)  # and slots


the_planner = Ownership.after_failures  # bound before any monkeypatching


def adopt_by_the_dead(params, survivors, have_ckpt, placement):
    """Mutant: hands the first adopted slice to the rank that died."""
    own = the_planner(params, survivors, have_ckpt, placement)
    dead = next(r for r in range(params.n_procs) if r not in survivors)
    i = next(i for i, cover in enumerate(own.rows) if len(cover) > 1)
    rows = list(own.rows)
    rows[i], moved = rows[i][:-1], rows[i][-1]
    return Ownership(own.ranks + (dead,), tuple(rows) + ((moved,),),
                     own.slots + ((),))


def drop_alignment(params, survivors, have_ckpt, placement):
    """Mutant: moves one adoption boundary off the n_mu grid."""
    own = the_planner(params, survivors, have_ckpt, placement)
    adopted = sorted((j0, nr, i) for i, cover in enumerate(own.rows)
                     for j0, nr, _ck in cover[1:])
    if len(adopted) < 2:  # nobody died: nothing to misalign
        return own
    (a0, an, ai), (b0, bn, bi) = adopted[:2]
    rows = [list(cover) for cover in own.rows]
    rows[ai][rows[ai].index((a0, an, False))] = (a0, an + 1, False)
    rows[bi][rows[bi].index((b0, bn, False))] = (b0 + 1, bn - 1, False)
    return Ownership(own.ranks, tuple(map(tuple, rows)), own.slots)


class TestPlanner:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_any_survivor_subset_is_planned_soundly(self, data):
        n_procs = data.draw(st.sampled_from([2, 4, 8]))
        spp = data.draw(st.sampled_from([1, 2]))
        params = SoiParams(n=2 ** 12, n_procs=n_procs,
                           segments_per_process=spp, n_mu=5, d_mu=4, b=16)
        survivors = sorted(data.draw(st.sets(
            st.integers(0, n_procs - 1), min_size=1, max_size=n_procs - 1)))
        have = data.draw(st.sets(st.sampled_from(survivors)))
        check_planner(the_planner, params, survivors, have)

    @pytest.mark.parametrize("mutant", [adopt_by_the_dead, drop_alignment])
    def test_the_property_can_fail(self, mutant):
        with pytest.raises(AssertionError):
            check_planner(mutant, PARAMS, [0, 1, 3], {0, 1, 3})

    def test_an_unaligned_plan_turns_the_scenarios_red(self, monkeypatch):
        monkeypatch.setattr(Ownership, "after_failures",
                            staticmethod(drop_alignment))
        with pytest.raises(ValueError, match="multiple of n_mu"):
            run_simulated("death at the all-to-all")

    def test_identity_is_the_fault_free_plan(self):
        own = Ownership.identity(PARAMS)
        assert own.recomputed_rows == PARAMS.m_oversampled
        assert own.slot_owners == {
            t: t // PARAMS.segments_per_process
            for t in range(PARAMS.n_segments)}


# -- what having one driver fixed (each red at the parent) ------------------

class TestOneDriver:
    @pytest.mark.parallel
    def test_process_transforms_are_counted_and_reset_state(self, workers):
        cl = SimCluster(P, metrics=MetricsRegistry())
        soi = DistributedSoiFFT(cl, PARAMS, backend=workers)
        soi.last_partition = "stale"
        soi(soi.scatter(X))
        assert cl.metrics.counter(
            "repro_core_dist_transforms_total").value == 1
        assert cl.metrics.counter("repro_core_dist_flops_total").value > 0
        assert soi.last_partition is None

    def test_spmd_entry_reports_its_recovery(self, reference):
        cl = SimCluster(P)
        cl.comm.install_faults(FaultPlan(rank_failures={2: 2}),
                               RetryPolicy())
        be = SimulatedBackend(cl)
        y = spmd_soi_fft(cl, PARAMS, X, backend=be)
        assert np.array_equal(y, reference)
        assert be.last_recovery is not None
        assert be.last_recovery.dead_ranks == (2,)

    def test_spmd_entry_finishes_a_partition_on_the_majority(self):
        params = SoiParams(n=2 ** 13, n_procs=8, n_mu=2, d_mu=1, b=4)
        x = signal(params.n)
        cl = SimCluster(8, topology=FatTree(radix=4))
        cl.comm.install_faults(
            FaultPlan(partition=PartitionEvent(
                at_transfer=2, components=((0, 1, 2, 3, 4), (5, 6, 7)))),
            RetryPolicy(max_retries=1))
        y = spmd_soi_fft(cl, params, x)
        clean = spmd_soi_fft(SimCluster(8, topology=FatTree(radix=4)),
                             params, x)
        assert np.array_equal(y, clean)
        assert cl.live_ranks == [0, 1, 2, 3, 4]


# -- tier-1 guard: the stage sequence is written once -----------------------

def test_stage_sequence_is_written_once():
    """An ``ast`` count (docstrings cannot trip it): across the three
    distributed-SOI modules there is one front call (convolution and
    lane transform), one back call (segment FFT and demodulation) and one
    all-to-all site.  A second execution of the algorithm — a fork of the
    sequence — turns this red."""
    core = Path(repro.core.__file__).parent
    calls = {"front": 0, "back": 0, "alltoall": 0}
    for name in ("soi_dist.py", "soi_spmd.py", "soi_hetero.py"):
        for node in ast.walk(ast.parse((core / name).read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                called = getattr(f, "id", None) or getattr(f, "attr", "")
                key = called.lower()
                if key in calls:
                    calls[key] += 1
    assert calls == {"front": 1, "back": 1, "alltoall": 1}


def own_fft_plans(source: str) -> set[str]:
    """What in *source* plans a rank FFT of its own rather than running
    SoiFFT's kernels: a ``get_plan(`` call, a name holding ``lane_plan``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and "get_plan" in (
                getattr(node.func, "id", None)
                or getattr(node.func, "attr", "")):
            found.add("get_plan(")
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(name, str) and "lane_plan" in name:
            found.add("lane_plan")
    return found


def test_a_rank_plans_no_fft_of_its_own():
    """``ast`` guard: the distributed modules run the single-node plan's
    lane and segment kernels and plan none of their own."""
    core = Path(repro.core.__file__).parent
    for name in ("soi_dist.py", "soi_hetero.py"):
        assert own_fft_plans((core / name).read_text()) == set(), name
    # the guard can go red: the rank-local plans ranks used to build
    assert own_fft_plans("self.lane_plan = get_plan(s, -1)\n"
                         "seg = get_plan(mp, -1)") == {"get_plan(",
                                                       "lane_plan"}
