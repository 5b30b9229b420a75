"""Stage profiler: predicted vs measured time per SOI pipeline stage.

Joins the spans of an executed :class:`~repro.core.soi_dist
.DistributedSoiFFT` run with the Section 4/5 performance model to emit
the paper's Fig 9 exhibit — local FFT / convolution / exposed MPI
decomposition — from telemetry instead of ad-hoc bench code.  For every
stage the profile carries the model's prediction (the same expressions
the simulator charged), the measured per-rank mean from the trace, and
the retry/fault inflation that explains any gap — the "why was this
slow" view the serving layer needs.

The model imports are deferred to call time so this low-level package
stays import-light (``repro.cluster.trace`` depends on
``repro.telemetry.spans``; the arrow must not point back at import
time).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["StageProfile", "render_stage_profile", "stage_observations",
           "stage_profile"]


@dataclass(frozen=True)
class StageProfile:
    """Predicted vs measured accounting for one pipeline stage."""

    stage: str
    predicted_s: float  # per-rank model prediction
    measured_s: float  # per-rank mean of matching trace events
    retry_s: float = 0.0  # share of measured_s charged as fault retries

    @property
    def ratio(self) -> float | None:
        """measured / predicted (None when the model predicts zero)."""
        if self.predicted_s <= 0.0:
            return None
        return self.measured_s / self.predicted_s


def _label_totals(trace, label: str, n_ranks: int) -> tuple[float, float]:
    """(per-rank mean total, per-rank mean retry share) for one label."""
    total = retry = 0.0
    for e in trace.events:
        if e.label != label:
            continue
        total += e.duration
        if e.category == "retry":
            retry += e.duration
    return total / n_ranks, retry / n_ranks


def stage_profile(soi, trace=None) -> list[StageProfile]:
    """Profile an executed :class:`DistributedSoiFFT` run.

    *soi* supplies the geometry and the machine/transport models;
    *trace* defaults to the cluster's trace (profile right after a run,
    before ``reset()``).  Backoff waits appear as a dedicated
    ``fault backoff`` row (the model predicts zero for it) rather than
    inflating the stage they interrupted.
    """
    from repro.core.soi_dist import stage_costs

    p = soi.params
    cl = soi.cluster
    trace = cl.trace if trace is None else trace
    machine, transport = cl.machine, cl.transport
    n_procs = p.n_procs
    s, spp, rows = p.n_segments, p.segments_per_process, p.rows_per_process
    item = 16  # the distributed pipeline runs complex128

    left_g, right_g = p.ghost_blocks
    ghost_pred = transport.ring_exchange_time(
        max(left_g, right_g) * s * item, n_procs) if n_procs > 1 else 0.0
    costs = stage_costs(p, machine, soi.fuse_demodulation)
    ckpt_pred = machine.mem_time(rows * s * item)
    a2a_pred = transport.alltoall_time(n_procs, rows * spp * item) \
        if n_procs > 1 else 0.0

    stages = [
        ("ghost exchange", ghost_pred),
        ("convolution", costs.conv + costs.lane),
        ("checkpoint", ckpt_pred),
        ("all-to-all", a2a_pred),
        ("local FFT", costs.fft),
        ("demodulation", costs.demod),
    ]
    out = []
    for label, pred in stages:
        measured, retry = _label_totals(trace, label, n_procs)
        out.append(StageProfile(label, pred, measured, retry))

    # time the model never predicted: backoff waits and everything the
    # fault/resilience layers charged outside the six pipeline stages
    known = {label for label, _ in stages}
    backoff = sum(e.duration for e in trace.events
                  if e.category == "retry" and e.label not in known)
    if backoff > 0.0:
        out.append(StageProfile("fault backoff", 0.0, backoff / n_procs,
                                backoff / n_procs))
    return out


def stage_observations(profiles: list[StageProfile],
                       *, drop_retry: bool = True):
    """``(stage, predicted, actual)`` triples for q-error calibration.

    This is the join between the profiler and
    :func:`repro.perfmodel.qerror.fit_calibration`: measured time minus
    the retry share (fault inflation is noise, not model error) against
    the model's prediction.  Stages where either side is non-positive
    (never ran, or the model predicts zero — e.g. single-rank
    all-to-all) carry no calibration signal and are dropped.
    """
    out = []
    for pr in profiles:
        actual = pr.measured_s - (pr.retry_s if drop_retry else 0.0)
        if pr.predicted_s > 0.0 and actual > 0.0:
            out.append((pr.stage, pr.predicted_s, actual))
    return out


def render_stage_profile(profiles: list[StageProfile],
                         title: str = "stage profile "
                                      "(per-rank seconds)") -> str:
    """Fixed-width text table of a stage profile."""
    header = f"{'stage':16s} {'predicted':>12s} {'measured':>12s} " \
             f"{'retry':>10s} {'meas/pred':>10s}"
    lines = [title, header, "-" * len(header)]
    for pr in profiles:
        ratio = f"{pr.ratio:8.2f}x" if pr.ratio is not None else "      --"
        lines.append(
            f"{pr.stage:16s} {pr.predicted_s:12.3e} {pr.measured_s:12.3e} "
            f"{pr.retry_s:10.2e} {ratio:>10s}")
    total_p = sum(pr.predicted_s for pr in profiles)
    total_m = sum(pr.measured_s for pr in profiles)
    total_r = sum(pr.retry_s for pr in profiles)
    lines.append("-" * len(header))
    ratio = total_m / total_p if total_p > 0 else float("nan")
    lines.append(f"{'total':16s} {total_p:12.3e} {total_m:12.3e} "
                 f"{total_r:10.2e} {ratio:8.2f}x")
    return "\n".join(lines)
