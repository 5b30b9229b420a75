"""Q-error scoring and per-stage calibration of the cost models.

The serving layer sheds load based on *predicted* request cost
(:func:`~repro.perfmodel.model.soi_request_seconds`), so the model must
be trustworthy, not merely monotone.  The metric of record is the
q-error from the query-optimization literature::

    q(pred, actual) = max(pred / actual, actual / pred)  >= 1

Unlike relative error it is symmetric under over-/under-prediction and
multiplicative, which matches how the cost model is wrong in practice:
the §4 analytic model mispredicts each *stage* by a roughly constant
machine-dependent factor (the efficiency gap).  That makes per-stage
multiplicative calibration the right fix: for each stage we regress a
single factor from ``(predicted, measured)`` telemetry observations —
the geometric mean of ``actual/pred`` ratios, which minimizes the
squared log-error and therefore the typical q-error — and apply it to
future predictions.  :class:`CostCalibration` carries the fitted
factors; ``SoiService(calibration=...)`` plugs them into admission
control, and ``tests/test_qerror.py`` (``TestSimulatedMachineRegression``)
gates on a pinned post-calibration q-error ceiling per stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["CostCalibration", "fit_calibration", "q_error",
           "stage_q_errors"]


def q_error(predicted: float, actual: float) -> float:
    """``max(pred/actual, actual/pred)``; >= 1, 1.0 iff exact.

    Non-positive values on either side mean the pair carries no usable
    signal (a stage that never ran, a degenerate prediction) and score
    as ``inf`` rather than raising — callers filter on a ceiling anyway.
    """
    if predicted <= 0.0 or actual <= 0.0:
        return math.inf
    return max(predicted / actual, actual / predicted)


def stage_q_errors(observations) -> dict[str, float]:
    """Worst-case q-error per stage over ``(stage, pred, actual)`` triples.

    The max (not mean) per stage is what admission control cares about:
    one badly mispredicted stage is enough to shed the wrong request.
    """
    out: dict[str, float] = {}
    for stage, predicted, actual in observations:
        q = q_error(predicted, actual)
        if stage not in out or q > out[stage]:
            out[stage] = q
    return out


@dataclass(frozen=True)
class CostCalibration:
    """Per-stage multiplicative correction factors for a cost model.

    ``factors[stage]`` multiplies that stage's raw prediction; unknown
    stages pass through unchanged (factor 1.0), so a calibration fitted
    on a subset of stages is safe to apply everywhere.
    """

    factors: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for stage, f in self.factors.items():
            if not (f > 0.0 and math.isfinite(f)):
                raise ValueError(f"calibration factor for {stage!r} must "
                                 f"be finite and positive, got {f!r}")

    def factor(self, stage: str) -> float:
        return self.factors.get(stage, 1.0)

    def apply(self, stage: str, predicted: float) -> float:
        """Calibrated prediction for one stage."""
        return predicted * self.factor(stage)

    def apply_breakdown(self, breakdown: dict[str, float]) -> dict[str, float]:
        """Calibrate a ``{stage: seconds}`` breakdown, keys preserved."""
        return {stage: self.apply(stage, seconds)
                for stage, seconds in breakdown.items()}

    def total(self, breakdown: dict[str, float]) -> float:
        """Calibrated sum of a breakdown — the admission-control scalar."""
        return sum(self.apply_breakdown(breakdown).values())


def fit_calibration(observations) -> CostCalibration:
    """Fit per-stage factors from ``(stage, predicted, actual)`` triples.

    Each stage's factor is the geometric mean of its ``actual/pred``
    ratios — the closed-form minimizer of the squared log-error, hence
    of the typical (log-)q-error.  Pairs with a non-positive side are
    skipped; stages with no usable pairs get no factor (pass-through).
    """
    logs: dict[str, list[float]] = {}
    for stage, predicted, actual in observations:
        if predicted > 0.0 and actual > 0.0:
            logs.setdefault(stage, []).append(math.log(actual / predicted))
    return CostCalibration(factors={
        stage: math.exp(sum(vals) / len(vals))
        for stage, vals in logs.items()
    })
