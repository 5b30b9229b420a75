"""Fault sweeps: makespan inflation vs fault rate, SOI vs Cooley-Tukey.

The paper's low-communication argument has a resilience corollary: SOI
crosses the wire once (one all-to-all plus a thin ghost exchange) where
distributed Cooley-Tukey crosses it three times.  Under a faulty fabric
every crossing is a chance to pay retries, so CT's makespan inflates
faster with the fault rate — and a whole-rank loss during the exchange is
survivable for SOI (shrink-and-redistribute from the post-convolution
checkpoint) while CT has no recovery path at all.

:func:`fault_sweep_rows` quantifies the first effect on executed
SimCluster runs; :func:`rank_failure_demo` demonstrates the second.
Rendered by ``python -m repro fault-sweep``, together with the ABFT
detection-coverage table (:func:`render_abft_coverage`), into
``benchmarks/results/fault_sweep.txt``.
"""

from __future__ import annotations

import numpy as np

from repro.baseline.ct_dist import DistributedCooleyTukeyFFT
from repro.cluster.faults import FaultPlan, RankFailed, RetryPolicy, chaos_cluster
from repro.cluster.simcluster import SimCluster
from repro.core.params import SoiParams
from repro.core.soi_dist import DistributedSoiFFT

__all__ = [
    "ABFT_AMPLITUDES",
    "DEFAULT_RATES",
    "DEFAULT_SEEDS",
    "abft_coverage_rows",
    "detection_coverage",
    "fault_sweep_rows",
    "rank_failure_demo",
    "render_abft_coverage",
    "render_fault_sweep",
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
    baseline; 8 * 448 works for P = 8)."""
    return SoiParams(n=p * 448, n_procs=p, segments_per_process=1,
                     n_mu=8, d_mu=7, b=48)


def _run_soi(params: SoiParams, x: np.ndarray,
             plan: FaultPlan | None, policy: RetryPolicy) -> SimCluster:
    cl = SimCluster(params.n_procs)
    if plan is not None:
        chaos_cluster(cl, plan, policy)
    soi = DistributedSoiFFT(cl, params)
    soi(soi.scatter(x))
    return cl

def _run_ct(params: SoiParams, x: np.ndarray,
            plan: FaultPlan | None, policy: RetryPolicy) -> SimCluster:
    cl = SimCluster(params.n_procs)
    if plan is not None:
        chaos_cluster(cl, plan, policy)
    ct = DistributedCooleyTukeyFFT(cl, params.n)
    ct(ct.scatter(x))
    return cl


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

    base_soi = _run_soi(params, x, None, policy).elapsed
    base_ct = _run_ct(params, x, None, policy).elapsed

    rows = []
    for rate in rates:
        soi_inf, ct_inf, soi_rt, ct_rt = [], [], [], []
        for seed in seeds:
            kw = dict(corrupt_rate=rate / 2, timeout_rate=rate / 2)
            cl = _run_soi(params, x,
                          FaultPlan.random(seed, p, **kw), policy)
            soi_inf.append(cl.elapsed / base_soi)
            soi_rt.append(_retry_stats(cl)[1])
            cl = _run_ct(params, x,
                         FaultPlan.random(seed, p, **kw), policy)
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
    redistribute; the CT baseline has no recovery path and aborts."""
    params = sweep_params(p)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(params.n) + 1j * rng.standard_normal(params.n)
    ref = np.fft.fft(x)
    policy = RetryPolicy(timeout_seconds=1e-4, backoff_base=1e-5)
    clean = _run_soi(params, x, None, policy).elapsed

    # transfer 2 is the all-to-all (the ghost ring exchange is transfer 1)
    plan = FaultPlan(rank_failures={3: 2}, seed=seed)
    cl = SimCluster(p)
    chaos_cluster(cl, plan, policy)
    soi = DistributedSoiFFT(cl, params)
    y = np.concatenate(soi(soi.scatter(x)))
    err = float(np.linalg.norm(y - ref) / np.linalg.norm(ref))

    ct_outcome = "completed (unexpected)"
    try:
        _run_ct(params, x, FaultPlan(rank_failures={3: 2}, seed=seed), policy)
    except RankFailed as exc:
        ct_outcome = f"aborted: RankFailed(rank={exc.rank})"

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
        "ct_outcome": ct_outcome,
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


def verify_params(p: int = 4) -> SoiParams:
    """The executed-run configuration for ABFT coverage (2 segment slots
    per rank so segment-level localization is non-trivial)."""
    return SoiParams(n=p * 2 * 448, n_procs=p, segments_per_process=2,
                     n_mu=8, d_mu=7, b=48)


def sdc_ground_truth(plan: FaultPlan,
                     params: SoiParams) -> list[tuple[str, int, int]]:
    """Map logged SDC events to ``(stage, rank, global_segment)`` truth.

    ``"conv"`` events strike the (rows, S) post-conv buffer, whose
    columns are the global segments; ``"segment-fft"`` events strike the
    (spp, M') spectra of the rank's owned slots.
    """
    s, spp = params.n_segments, params.segments_per_process
    mp = params.m_oversampled
    out = []
    for ev in plan.sdc_log:
        if ev.stage == "conv":
            seg = ev.element % s
        else:  # "segment-fft"
            seg = ev.rank * spp + ev.element // mp
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
    # one run consumes exactly 2P SDC slots (P conv stages + P
    # segment-FFT stages); matching the horizon makes sdc_rate the
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

    Returns ``{"clean_detections": int, "bound": float, "rows": [...]}``
    where each row is ``[amplitude, injected, detected%, localized%,
    max rel err, repair us]``.  ``clean_detections`` counts invariant
    trips across sdc-free runs of every seed — the false-positive count,
    which must be zero (thresholds are calibrated, not tuned).
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
                     f"{max_err:.1e}", round(repair_s * 1e6, 2)])
    return {"clean_detections": clean_det, "bound": bound, "rows": rows}


def render_abft_coverage(amplitudes: tuple[float, ...] = ABFT_AMPLITUDES,
                         seeds: tuple[int, ...] = DEFAULT_SEEDS,
                         p: int = 4, sdc_rate: float = 0.25) -> str:
    """Text exhibit: ABFT coverage table + clean false-positive line."""
    from repro.bench.tables import render_table

    data = abft_coverage_rows(amplitudes, seeds, p, sdc_rate)
    text = render_table(
        ["amplitude (rms)", "injected", "detected %", "localized %",
         "max rel err", "repair us"],
        data["rows"],
        title=f"ABFT detection coverage vs SDC amplitude (P={p}, "
              f"rate={sdc_rate}/stage, {len(seeds)} seeds)")
    text += (
        f"\n\nClean runs ({len(seeds)} seeds, no SDC): "
        f"{data['clean_detections']} invariant trips (false positives)."
        f"\nOutput error bound {data['bound']:.1e}; sub-threshold "
        "amplitudes may go undetected but stay inside the bound — "
        "corruption below the noise floor is harmless by construction.")
    return text


def render_fault_sweep(rates: tuple[float, ...] = DEFAULT_RATES,
                       seeds: tuple[int, ...] = DEFAULT_SEEDS,
                       p: int = 8) -> str:
    """The full text exhibit (sweep table + rank-failure demo)."""
    from repro.bench.tables import render_table

    rows = fault_sweep_rows(rates, seeds, p)
    text = render_table(
        ["fault rate", "SOI inflation", "SOI retry us",
         "CT inflation", "CT retry us", "CT/SOI retry cost"],
        rows,
        title=f"Makespan inflation vs per-message fault rate (P={p}, "
              f"executed runs, mean over {len(seeds)} seeds)")
    d = rank_failure_demo(p)
    text += (
        "\n\nRank-failure recovery (one rank dies during the exchange):\n"
        f"  SOI : completed on survivors, dead={d['dead_ranks']}, "
        f"err={d['soi_error']:.2e} (bound {d['error_bound']:.1e}),\n"
        f"        makespan {d['soi_inflation']:.2f}x clean, "
        f"{d['soi_retry_events']} retry events "
        f"({d['soi_retry_seconds'] * 1e3:.2f} ms), "
        f"{d['recomputed_rows']} conv rows recomputed\n"
        f"  CT  : {d['ct_outcome']}")
    return text
