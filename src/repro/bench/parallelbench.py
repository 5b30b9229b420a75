"""Real-core SOI scaling bench: process backend vs single-process wall clock.

Measures what the simulator can only predict: actual wall-clock speedup
of the distributed SOI transform when its ranks run on real cores
(:class:`~repro.cluster.backends.ProcessBackend`) instead of
rank-serially inside one process.  For each worker count P the *same*
plan (same ``SoiParams``, same numerics, outputs asserted bitwise equal)
is timed both ways, and the Section 4 performance model's simulated
elapsed time is reported alongside, so measured scaling can be compared
against the paper's prediction.

Speedups on a machine with fewer cores than workers are physically
capped near 1.0 — results carry the visible CPU count so
:func:`speedup_floor` can tell "backend is slow" (fails) from "host has
too few cores" (skipped, never passed).
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.bench.tables import render_table
from repro.cluster.backends import ProcessBackend
from repro.cluster.simcluster import SimCluster
from repro.core.params import SoiParams
from repro.core.soi_dist import DistributedSoiFFT

__all__ = ["available_cpus", "build", "measure_parallel_soi",
           "parallel_soi_params", "speedup_floor"]

#: The wall-clock floor of ``python -m repro parallel-bench``: the
#: process backend on this many workers must beat the rank-serial run by
#: this factor, on a host that can schedule them all at once.
FLOOR_WORKERS = 4
SPEEDUP_FLOOR = 1.5


def available_cpus() -> int:
    """CPUs this process may actually schedule on (cgroup-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def parallel_soi_params(n: int, workers: int,
                        segments_per_process: int = 2) -> SoiParams:
    """A valid power-of-two-friendly parameter set for the scaling bench.

    ``mu = 5/4`` keeps every divisibility rule satisfied for any
    power-of-two *n* and power-of-two worker count (M' = 5·2^k stays
    (2,5)-smooth, so the per-segment FFT needs no Bluestein fallback).
    """
    return SoiParams(n=n, n_procs=workers,
                     segments_per_process=segments_per_process,
                     n_mu=5, d_mu=4, b=48)


def _best_of(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(max(1, reps)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure_parallel_soi(n: int = 2 ** 22, workers=(1, 2, 4, 8),
                         reps: int = 2, segments_per_process: int = 2,
                         start_method: str = "fork", seed: int = 2013) -> dict:
    """Time serial vs process-backend SOI for each worker count.

    Returns a dict with one row per worker count: measured single-process
    and parallel wall seconds, measured speedup, the perf model's
    simulated elapsed seconds, and a bitwise-equality flag between the
    two backends' outputs.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    rows = []
    for p in workers:
        params = parallel_soi_params(n, p, segments_per_process)
        soi = DistributedSoiFFT(SimCluster(p), params)
        parts = soi.scatter(x)
        ref = soi(parts)  # warm plans + pooled workspaces
        serial_s = _best_of(lambda: soi(parts), reps)

        model_cl = SimCluster(p)
        model_soi = DistributedSoiFFT(model_cl, params)
        t0 = model_cl.elapsed
        model_soi(parts)
        model_s = model_cl.elapsed - t0

        with ProcessBackend(p, start_method=start_method) as backend:
            par_soi = DistributedSoiFFT(SimCluster(p), params,
                                        backend=backend)
            out = par_soi(parts)  # spawns workers, warms their plan caches
            equal = all(np.array_equal(a, b) for a, b in zip(ref, out))
            parallel_s = _best_of(lambda: par_soi(parts), reps)

        rows.append({
            "workers": p,
            "serial_s": round(serial_s, 6),
            "parallel_s": round(parallel_s, 6),
            "speedup": round(serial_s / parallel_s, 3),
            "model_s": round(model_s, 6),
            "bitwise_equal": bool(equal),
        })
    base_model = rows[0]["model_s"] if rows else None
    for row in rows:
        # the §4 model's predicted scaling of the same plan vs the first
        # (reference) worker count — measured speedup's yardstick
        row["model_predicted_speedup"] = (
            round(base_model / row["model_s"], 3) if base_model else None)
    return {
        "n": n,
        "segments_per_process": segments_per_process,
        "start_method": start_method,
        "cpus": available_cpus(),
        "reps": reps,
        "rows": rows,
    }


def speedup_floor(result: dict) -> bool | str:
    """Gate verdict of the wall-clock floor: met, missed, or the reason
    the host could not measure it (a string; see ``bench.exhibits``)."""
    row = next((r for r in result["rows"]
                if r["workers"] == FLOOR_WORKERS), None)
    if row is None:
        return f"no {FLOOR_WORKERS}-worker row"
    if result["cpus"] < FLOOR_WORKERS:
        return f"{result['cpus']} cpu(s) < {FLOOR_WORKERS} workers"
    return row["speedup"] >= SPEEDUP_FLOOR


def build(result: dict, quick: bool = False) -> tuple[str, dict]:
    """The ``parallel-bench`` exhibit: ``(text, gates)`` from one
    :func:`measure_parallel_soi` result.  A *quick* run times
    dispatch-bound sizes once, which is not a scaling number, so its
    floor is skipped."""
    rows = result["rows"]
    lines = [render_table(
        ["workers", "serial", "parallel", "speedup", "model", "model x",
         "bitwise"],
        [[r["workers"], f"{r['serial_s'] * 1e3:.1f} ms",
          f"{r['parallel_s'] * 1e3:.1f} ms", f"{r['speedup']:.2f}x",
          f"{r['model_s'] * 1e3:.3f} ms",
          f"{(r['model_predicted_speedup'] or 0):.2f}x",
          "ok" if r["bitwise_equal"] else "MISMATCH"] for r in rows],
        title=f"real-parallel SOI scaling — "
              f"n=2^{int(np.log2(result['n']))} ({result['n']}), "
              f"{result['cpus']} cpu(s) visible, start method "
              f"{result['start_method']}")]
    if result["cpus"] < max(r["workers"] for r in rows):
        lines.append(f"note: only {result['cpus']} cpu(s) visible — "
                     f"wall-clock speedup is capped by the host, not the "
                     f"backend")
    return "\n".join(lines), {
        "bitwise": all(r["bitwise_equal"] for r in rows),
        "speedup_floor": "--quick sizes" if quick else speedup_floor(result)}
