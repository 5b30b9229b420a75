"""Process-level chaos exhibit: elastic recovery on real worker processes.

Runs a fixed campaign of chaos scenarios against the
:class:`~repro.cluster.backends.ProcessBackend` — SIGKILL mid-all-to-all,
SIGKILL at the halo ring, a double kill, a SIGSTOP hang caught by the
heartbeat watchdog, a transient stall that resumes, a starved rank
asleep before its program starts, a hedged straggler, and a tripped
wall-clock deadline — and verifies for each that the parallel SOI
transform ends *bit-for-bit* identical to the fault-free run (or raises
exactly the declared exception), that MTTR is recorded, and that not one
shared-memory segment leaks.  Every fault fires in its victim at a
protocol point (:class:`~repro.cluster.faults.ProcessFault` ``at``).

A scenario that recovers also answers the elasticity question — does a
crash leave permanent damage? — on the backend that lived through it:
MTTR must stay under :data:`MTTR_CEILING_S`, and a clean run on the
healed pool must keep :data:`THROUGHPUT_FLOOR` of the pre-failure rate
(judged only where the host can schedule every worker at once;
otherwise the ratio measures the scheduler and the gate is skipped).

``python -m repro chaos-parallel`` writes :func:`build`'s scenario table
to ``benchmarks/results/chaos_parallel.txt`` (the CI artifact), exiting
non-zero unless every scenario passes.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.tables import render_table
from repro.cluster.backends import ProcessBackend
from repro.cluster.faults import ProcessFault, ProcessFaultPlan
from repro.cluster.shm import list_segments
from repro.cluster.simcluster import SimCluster
from repro.core.soi_spmd import spmd_soi_fft
from repro.resilience.deadline import Deadline, DeadlineExceeded
from repro.verify import HedgePolicy

from repro.bench.parallelbench import available_cpus, parallel_soi_params

__all__ = ["build", "run_chaos_exhibit"]

MTTR_CEILING_S = 5.0  # failure detection -> recovered result
THROUGHPUT_FLOOR = 0.5  # healed-pool / pre-failure clean-run rate


def _signal(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _scenarios(workers: int) -> list[dict]:
    """The chaos campaign: name, injected plan, expected outcome."""
    mid = workers // 2
    rows = [
        {"name": "kill @ all-to-all",
         "plan": ProcessFaultPlan([ProcessFault("kill", rank=mid, at=1)]),
         "expect": "recovered"},
        {"name": "kill @ halo ring",
         "plan": ProcessFaultPlan([ProcessFault("kill", rank=1 % workers,
                                                at=0)]),
         "expect": "recovered"},
        {"name": "hang (SIGSTOP, watchdog)",
         "plan": ProcessFaultPlan([ProcessFault("stall", rank=workers - 1,
                                                at=1)]),
         "expect": "recovered"},
        {"name": "stall + SIGCONT resume",
         "plan": ProcessFaultPlan([ProcessFault("stall", rank=workers - 1,
                                                at=1, for_s=0.3)]),
         "expect": "transparent"},
        {"name": "starved rank",
         "plan": ProcessFaultPlan([ProcessFault("delay", rank=mid,
                                                for_s=0.3)]),
         "expect": "transparent"},
        {"name": "hedged straggler",
         "plan": ProcessFaultPlan([ProcessFault("delay", rank=0,
                                                for_s=60.0)]),
         "expect": "hedged"},
        {"name": "deadline trip",
         "plan": None,
         "expect": "deadline"},
    ]
    if workers >= 4:
        rows.insert(2, {
            "name": "double kill",
            "plan": ProcessFaultPlan([
                ProcessFault("kill", rank=0, at=1),
                ProcessFault("kill", rank=workers - 1, at=1)]),
            "expect": "recovered"})
    return rows


def _run_scenario(scn: dict, params, x, want, workers: int,
                  hang_timeout: float) -> dict:
    be = ProcessBackend(workers, hang_timeout=hang_timeout)
    token = be._token
    row = {"name": scn["name"], "expect": scn["expect"], "mttr_s": None,
           "throughput": None, "dead": (), "bitwise": False, "leaks": -1,
           "ok": False}
    try:
        cl = SimCluster(workers)
        t0 = time.perf_counter()
        if scn["expect"] == "deadline":
            try:
                spmd_soi_fft(cl, params, x, backend=be,
                             deadline=Deadline(1e-9))
            except DeadlineExceeded:
                # the budget tripped cleanly; the backend must still serve
                got = spmd_soi_fft(SimCluster(workers), params, x,
                                   backend=be)
                row["bitwise"] = bool(np.array_equal(want, got))
                row["ok"] = row["bitwise"]
        elif scn["expect"] == "hedged":
            spmd_soi_fft(cl, params, x, backend=be)  # teach it the label
            be.inject(scn["plan"])
            hedge = HedgePolicy(threshold=2.0, min_ranks=2)
            got = spmd_soi_fft(SimCluster(workers), params, x, backend=be,
                               hedge=hedge)
            row["bitwise"] = bool(np.array_equal(want, got))
            row["ok"] = row["bitwise"] and hedge.launched >= 1
        else:
            def clean_run_s() -> float:
                t = time.perf_counter()
                spmd_soi_fft(SimCluster(workers), params, x, backend=be)
                return time.perf_counter() - t

            clean_run_s()  # spawn the workers, warm their plan caches
            before_s = clean_run_s()
            t0 = time.perf_counter()
            be.inject(scn["plan"])
            got = spmd_soi_fft(cl, params, x, backend=be)
            row["bitwise"] = bool(np.array_equal(want, got))
            recovered = be.last_recovery is not None
            row["mttr_s"] = be.last_mttr_s
            row["ok"] = row["bitwise"] and (
                recovered if scn["expect"] == "recovered" else not recovered)
            if recovered:
                row["dead"] = tuple(be.last_recovery.dead_ranks)
                row["wall_s"] = round(time.perf_counter() - t0, 4)
                be.inject(None)
                clean_run_s()  # heal: respawn the dead slots, warm them
                row["throughput"] = before_s / clean_run_s()
        row.setdefault("wall_s", round(time.perf_counter() - t0, 4))
    finally:
        be.close()
    leaks = list_segments(token)
    row["leaks"] = len(leaks)
    row["ok"] = row["ok"] and not leaks
    return row


def run_chaos_exhibit(n: int = 2 ** 14, workers: int = 4, seed: int = 2013,
                      hang_timeout: float = 1.5) -> dict:
    """Run the whole chaos campaign; returns the scenario table."""
    params = parallel_soi_params(n, workers)
    x = _signal(n, seed)
    want = spmd_soi_fft(SimCluster(workers), params, x)
    rows = [_run_scenario(scn, params, x, want, workers, hang_timeout)
            for scn in _scenarios(workers)]
    return {
        "n": n,
        "workers": workers,
        "seed": seed,
        "hang_timeout_s": hang_timeout,
        "cpus": available_cpus(),
        "rows": rows,
    }


def build(result: dict) -> tuple[str, dict]:
    """The ``chaos-parallel`` exhibit: ``(text, gates)`` from one
    :func:`run_chaos_exhibit` result, every gate judged from its rows."""
    rows = result["rows"]
    healed = [r for r in rows if r["expect"] == "recovered"]
    cpus, workers = result["cpus"], result["workers"]
    text = "\n".join([
        render_table(
            ["scenario", "expected", "dead", "mttr", "healed", "wall",
             "bitwise", "leaks", "verdict"],
            [[r["name"], r["expect"], ",".join(map(str, r["dead"])) or "—",
              "—" if r["mttr_s"] is None else f"{r['mttr_s'] * 1e3:.1f} ms",
              "—" if r["throughput"] is None
              else f"{r['throughput']:.2f}x",
              f"{r['wall_s']:.2f} s", "ok" if r["bitwise"] else "MISMATCH",
              r["leaks"], "PASS" if r["ok"] else "FAIL"] for r in rows],
            title=f"process-level chaos on the real-parallel backend — "
                  f"n=2^{int(np.log2(result['n']))} ({result['n']}), "
                  f"{workers} workers, {cpus} cpu(s) visible, hang timeout "
                  f"{result['hang_timeout_s']:.1f}s"),
        f"healed = clean-run rate on the healed pool / before the fault "
        f"(floor {THROUGHPUT_FLOOR}); mttr ceiling {MTTR_CEILING_S:.0f} s",
    ])
    return text, {
        "bitwise_zero_leak": all(r["ok"] for r in rows),
        "mttr_ceiling": all(r["mttr_s"] is not None
                            and r["mttr_s"] <= MTTR_CEILING_S
                            for r in healed),
        "throughput_floor": f"{cpus} cpu(s) < {workers} workers"
        if cpus < workers else all(
            r["throughput"] is not None
            and r["throughput"] >= THROUGHPUT_FLOOR for r in healed),
    }
