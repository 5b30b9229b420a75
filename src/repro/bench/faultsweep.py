"""Fault sweeps: makespan inflation vs fault rate, SOI vs Cooley-Tukey.

The paper's low-communication argument has a resilience corollary: SOI
crosses the wire once (one all-to-all plus a thin ghost exchange) where
distributed Cooley-Tukey crosses it three times.  Under a faulty fabric
every crossing is a chance to pay retries, so CT pays more absolute retry
time (1.4-4.8x SOI's in the checked-in sweep; SOI's *relative* inflation
can run higher, its clean makespan being smaller) — and a whole-rank loss
during the exchange is survivable for SOI (shrink-and-redistribute from
the post-convolution checkpoint) while CT has no recovery path at all.

:func:`fault_sweep_rows` quantifies the first effect on executed
SimCluster runs, :func:`rank_failure_demo` demonstrates the second and
:func:`abft_coverage_rows` scores ABFT detection; :func:`build` renders
the three and judges them for ``python -m repro fault-sweep``
(``benchmarks/results/fault_sweep.txt``).
"""

from __future__ import annotations

import numpy as np

from repro.bench.runner import run_ct, run_soi
from repro.bench.tables import render_table
from repro.cluster.faults import FaultPlan, RankFailed, RetryPolicy, chaos_cluster
from repro.cluster.simcluster import SimCluster
from repro.core.params import SoiParams
from repro.core.soi_dist import DistributedSoiFFT

__all__ = [
    "ABFT_AMPLITUDES",
    "DEFAULT_RATES",
    "DEFAULT_SEEDS",
    "DETECTION_FLOOR",
    "abft_coverage_rows",
    "build",
    "detection_coverage",
    "fault_sweep_rows",
    "rank_failure_demo",
    "sdc_ground_truth",
    "sweep_params",
    "verify_params",
]

#: Per-wire-message fault probabilities on the x axis.  A P=8 all-to-all
#: carries 56 wire messages and one fault re-flies the whole collective,
#: so per-message rates compound ~56x per attempt: 0.01 already means a
#: ~43% chance each attempt needs a retry.
DEFAULT_RATES = (0.0, 0.001, 0.002, 0.005, 0.01)

#: Seeds averaged per rate (fault schedules are Bernoulli draws).
DEFAULT_SEEDS = tuple(range(8))


def sweep_params(p: int = 8) -> SoiParams:
    """The executed-run configuration (P^2 must divide N for the CT
    baseline; 8 * 448 works for P = 8) — the geometry of
    :func:`repro.bench.runner.run_soi` at one segment per rank."""
    return SoiParams(n=p * 448, n_procs=p, segments_per_process=1,
                     n_mu=8, d_mu=7, b=48)


def _retry_stats(cl: SimCluster) -> tuple[int, float]:
    ev = [e for e in cl.trace.events if e.category == "retry"]
    return len(ev), sum(e.duration for e in ev)


def fault_sweep_rows(rates: tuple[float, ...] = DEFAULT_RATES,
                     seeds: tuple[int, ...] = DEFAULT_SEEDS,
                     p: int = 8, policy: RetryPolicy | None = None
                     ) -> list[list]:
    """[rate, SOI infl, SOI retry us, CT infl, CT retry us, CT/SOI cost].

    *Inflation* is the faulty-run makespan over the clean-run makespan of
    the same algorithm; *retry us* the mean simulated time charged under
    the ``"retry"`` trace category (re-flown transfers, detection stalls,
    backoff) — the absolute price of recovery.  All means over *seeds*.

    The last column is the recovery-cost ratio: CT exposes ~2.4x the wire
    messages per run (three all-to-alls against SOI's ghost ring + single
    all-to-all), so at a fixed per-message fault rate it buys
    proportionally more faults, retries, and stall time — the
    1-vs-3-all-to-all asymmetry in fault-tolerance terms.
    """
    # stalls scaled to the sub-millisecond simulated runs so inflation
    # stays interpretable (the default 1 ms detection stall would be ~5x
    # a whole clean SOI run at this miniature problem size)
    policy = policy or RetryPolicy(max_retries=16, timeout_seconds=1e-4,
                                   backoff_base=1e-5)
    params = sweep_params(p)
    rng = np.random.default_rng(1234)
    x = rng.standard_normal(params.n) + 1j * rng.standard_normal(params.n)

    base_soi = run_soi(SimCluster(p), x).elapsed
    base_ct = run_ct(SimCluster(p), x).elapsed

    rows = []
    for rate in rates:
        soi_inf, ct_inf, soi_rt, ct_rt = [], [], [], []
        for seed in seeds:
            kw = dict(corrupt_rate=rate / 2, timeout_rate=rate / 2)
            cl = run_soi(chaos_cluster(SimCluster(p), FaultPlan.random(
                seed, p, **kw), policy), x)
            soi_inf.append(cl.elapsed / base_soi)
            soi_rt.append(_retry_stats(cl)[1])
            cl = run_ct(chaos_cluster(SimCluster(p), FaultPlan.random(
                seed, p, **kw), policy), x)
            ct_inf.append(cl.elapsed / base_ct)
            ct_rt.append(_retry_stats(cl)[1])
        s_t, c_t = float(np.mean(soi_rt)), float(np.mean(ct_rt))
        rows.append([rate, round(float(np.mean(soi_inf)), 3),
                     round(s_t * 1e6, 1),
                     round(float(np.mean(ct_inf)), 3),
                     round(c_t * 1e6, 1),
                     round(c_t / s_t, 2) if s_t else "-"])
    return rows


def rank_failure_demo(p: int = 8, seed: int = 7) -> dict:
    """Kill one rank mid-exchange: SOI completes via shrink-and-
    redistribute; the CT baseline has no recovery path and aborts
    (``ct_aborted_rank`` is the rank its ``RankFailed`` names, ``None``
    if CT completed)."""
    params = sweep_params(p)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(params.n) + 1j * rng.standard_normal(params.n)
    ref = np.fft.fft(x)
    policy = RetryPolicy(timeout_seconds=1e-4, backoff_base=1e-5)
    clean = run_soi(SimCluster(p), x).elapsed

    # transfer 2 is the all-to-all (the ghost ring exchange is transfer 1)
    cl = chaos_cluster(SimCluster(p), FaultPlan(rank_failures={3: 2},
                                                seed=seed), policy)
    soi = DistributedSoiFFT(cl, params)
    y = np.concatenate(soi(soi.scatter(x)))
    err = float(np.linalg.norm(y - ref) / np.linalg.norm(ref))

    ct_aborted_rank = None
    try:
        run_ct(chaos_cluster(SimCluster(p), FaultPlan(rank_failures={3: 2},
                                                      seed=seed), policy), x)
    except RankFailed as exc:
        ct_aborted_rank = exc.rank

    rec = soi.last_recovery
    n_retry, t_retry = _retry_stats(cl)
    return {
        "dead_ranks": list(rec.dead_ranks) if rec else [],
        "soi_error": err,
        "error_bound": float(10 * soi.tables.expected_stopband + 1e-12),
        "soi_inflation": cl.elapsed / clean,
        "soi_retry_events": n_retry,
        "soi_retry_seconds": t_retry,
        "recomputed_rows": rec.recomputed_rows if rec else 0,
        "ct_aborted_rank": ct_aborted_rank,
    }


# ---------------------------------------------------------------------------
# ABFT detection coverage: silent data corruption vs the self-verifying
# pipeline (repro.verify).  Ground truth comes from the fault plan's SDC
# log; a run "detects" an injection when a tripped invariant names the
# same stage and rank, and "localizes" it when the named segment set
# contains the corrupted segment.
# ---------------------------------------------------------------------------

#: Injected perturbation amplitudes (units of the stage buffer's RMS).
#: The first sits far below the calibrated detectability floor (the run
#: must stay silently within the output error bound); the rest span
#: barely-visible to catastrophic.
ABFT_AMPLITUDES = (1e-13, 1e-8, 1e-4, 1.0)

#: Every corruption at or above this amplitude (x rms) must be detected
#: and localized; below it a run need only stay inside its error bound.
DETECTION_FLOOR = 1e-8


def verify_params(p: int = 4) -> SoiParams:
    """The executed-run configuration for ABFT coverage (2 segment slots
    per rank so segment-level localization is non-trivial)."""
    return SoiParams(n=p * 2 * 448, n_procs=p, segments_per_process=2,
                     n_mu=8, d_mu=7, b=48)


def sdc_ground_truth(plan: FaultPlan,
                     params: SoiParams) -> list[tuple[str, int, int]]:
    """Map logged SDC events to ``(stage, rank, global_segment)`` truth.

    Both stages strike a segment-major array, so a strike's segment is
    its row: ``"conv"`` events the rank's ``(S, rows)`` front output, a
    row per global segment; ``"back"`` events the ``(spp, M)`` output
    rows of the rank's owned slots.
    """
    spp = params.segments_per_process
    out = []
    for ev in plan.sdc_log:
        if ev.stage == "conv":
            seg = ev.element // params.rows_per_process
        else:  # "back"
            seg = ev.rank * spp + ev.element // params.m
        out.append((ev.stage, ev.rank, seg))
    return out


def detection_coverage(report, plan: FaultPlan,
                       params: SoiParams) -> dict:
    """Score a verification report against the plan's SDC ground truth."""
    truth = sdc_ground_truth(plan, params)
    detected = localized = 0
    for stage, rank, seg in truth:
        evs = [e for e in report.events
               if e.stage == stage and e.rank == rank]
        detected += bool(evs)
        localized += any(seg in e.segments for e in evs)
    return {"injected": len(truth), "detected": detected,
            "localized": localized, "detections": report.detections,
            "repairs": report.repairs, "escalations": report.escalations}


def _run_verified(params: SoiParams, x: np.ndarray, seed: int,
                  sdc_rate: float, amplitude: float):
    cl = SimCluster(params.n_procs)
    # one run consumes exactly 2P SDC slots (P conv stages + P back
    # stages); matching the horizon makes sdc_rate the
    # per-stage corruption probability
    plan = FaultPlan.random(seed, params.n_procs, sdc_rate=sdc_rate,
                            sdc_amplitude=amplitude,
                            horizon_sdc=2 * params.n_procs)
    chaos_cluster(cl, plan)
    soi = DistributedSoiFFT(cl, params, verify=True)
    y = soi.assemble(soi(soi.scatter(x)))
    return cl, plan, soi, y


def abft_coverage_rows(amplitudes: tuple[float, ...] = ABFT_AMPLITUDES,
                       seeds: tuple[int, ...] = DEFAULT_SEEDS,
                       p: int = 4, sdc_rate: float = 0.25) -> dict:
    """Detection/localization coverage vs perturbation amplitude.

    Returns ``{"p", "sdc_rate", "clean_detections": int, "bound": float,
    "rows": [...]}`` where each row is ``[amplitude, injected, detected%,
    localized%, max rel err, repair us]``.  ``clean_detections`` counts
    invariant trips across sdc-free runs of every seed — the
    false-positive count, which must be zero (thresholds are calibrated,
    not tuned).
    """
    params = verify_params(p)
    rng = np.random.default_rng(99)
    x = rng.standard_normal(params.n) + 1j * rng.standard_normal(params.n)
    ref = np.fft.fft(x)
    nref = float(np.linalg.norm(ref))

    clean_det = 0
    bound = 0.0
    for seed in seeds:
        _, _, soi, _ = _run_verified(params, x, seed, 0.0, 1.0)
        clean_det += soi.last_verification.detections
        bound = soi.verifier.thresholds.output_rtol

    rows = []
    for amp in amplitudes:
        injected = detected = localized = 0
        max_err, repair_s = 0.0, 0.0
        for seed in seeds:
            cl, plan, soi, y = _run_verified(params, x, seed, sdc_rate, amp)
            cov = detection_coverage(soi.last_verification, plan, params)
            injected += cov["injected"]
            detected += cov["detected"]
            localized += cov["localized"]
            max_err = max(max_err,
                          float(np.linalg.norm(y - ref)) / nref)
            repair_s += sum(e.duration for e in cl.trace.events
                            if e.label == "abft repair")
        pct = (lambda k: round(100.0 * k / injected, 1) if injected
               else "-")
        rows.append([amp, injected, pct(detected), pct(localized),
                     max_err, round(repair_s * 1e6, 2)])
    return {"p": p, "sdc_rate": sdc_rate, "clean_detections": clean_det,
            "bound": bound, "rows": rows}


def build(rates: tuple[float, ...] = DEFAULT_RATES,
          seeds: tuple[int, ...] = DEFAULT_SEEDS,
          p: int = 8) -> tuple[str, dict]:
    """The ``fault-sweep`` exhibit: ``(text, {gate: verdict})``.

    Text and gates come from the same rows.  The CT/SOI retry-cost
    column is printed, not gated: it is a mean over *seeds*, and two
    seeds read 1.0 and 0.84 at the rates ``--quick`` runs.
    """
    rows = fault_sweep_rows(rates, seeds, p)
    d = rank_failure_demo(p)
    abft = abft_coverage_rows(seeds=seeds)
    ct = ("completed (unexpected)" if d["ct_aborted_rank"] is None
          else f"aborted: RankFailed(rank={d['ct_aborted_rank']})")
    text = "\n".join([
        render_table(
            ["fault rate", "SOI inflation", "SOI retry us",
             "CT inflation", "CT retry us", "CT/SOI retry cost"],
            rows,
            title=f"Makespan inflation vs per-message fault rate (P={p}, "
                  f"executed runs, mean over {len(seeds)} seeds)"),
        "",
        "Rank-failure recovery (one rank dies during the exchange):",
        f"  SOI : completed on survivors, dead={d['dead_ranks']}, "
        f"err={d['soi_error']:.2e} (bound {d['error_bound']:.1e}),",
        f"        makespan {d['soi_inflation']:.2f}x clean, "
        f"{d['soi_retry_events']} retry events "
        f"({d['soi_retry_seconds'] * 1e3:.2f} ms), "
        f"{d['recomputed_rows']} conv rows recomputed",
        f"  CT  : {ct}",
        "",
        render_table(
            ["amplitude (rms)", "injected", "detected %", "localized %",
             "max rel err", "repair us"],
            [[*r[:4], f"{r[4]:.1e}", r[5]] for r in abft["rows"]],
            title=f"ABFT detection coverage vs SDC amplitude "
                  f"(P={abft['p']}, rate={abft['sdc_rate']}/stage, "
                  f"{len(seeds)} seeds)"),
        "",
        f"Clean runs ({len(seeds)} seeds, no SDC): "
        f"{abft['clean_detections']} invariant trips (false positives).",
        f"Output error bound {abft['bound']:.1e}; sub-threshold "
        "amplitudes may go undetected but stay inside the bound — "
        "corruption below the noise floor is harmless by construction.",
    ])
    seen = [r for r in abft["rows"] if r[0] >= DETECTION_FLOOR]
    silent = [r for r in abft["rows"] if r[0] < DETECTION_FLOOR]
    return text, {
        "clean_runs_zero_trips": abft["clean_detections"] == 0,
        "full_coverage_ge_1e-8": bool(seen) and all(
            r[2] == r[3] == 100 for r in seen),
        "sub_threshold_in_bound": bool(silent) and all(
            r[4] <= abft["bound"] for r in silent),
        "soi_survives_rank_loss": bool(d["dead_ranks"])
        and d["soi_error"] <= d["error_bound"],
        "ct_aborts_rank_failed": d["ct_aborted_rank"] is not None,
    }
