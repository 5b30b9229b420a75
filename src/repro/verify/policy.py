"""Verification policy knobs, detection bookkeeping, and failure type."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

__all__ = ["DetectionRecord", "VerificationError", "VerificationReport",
           "VerifyPolicy"]


class VerificationError(RuntimeError):
    """Invariants still failing after every repair escalation.

    Raised only when segment-level recomputation *and* a full stage
    recompute both failed to restore the ABFT invariants — i.e.
    the corruption is persistent (bad hardware, not a transient flip) or
    the thresholds are miscalibrated for the workload."""


@dataclass
class VerifyPolicy:
    """How aggressively the pipelines self-verify and self-repair.

    ``safety`` scales the calibrated floating-point noise floors
    (:func:`repro.core.error_model.verification_thresholds`);
    ``max_strikes`` is the K of the escalation ladder, counted per stage
    boundary — repair attempt 1 recomputes only the flagged
    segments/lanes from in-memory stage inputs, attempt 2 recomputes the
    whole stage, and after *max_strikes* failed attempts the run raises
    :class:`VerificationError`.  ``inject`` is a test hook called
    as ``inject(stage, array)`` at each stage boundary of the
    single-node pipeline — ``"conv"`` with ``alpha`` (the front's
    output), ``"back"`` with the output rows (the segment FFT's and
    demodulation's), each ``(batch, S, ...)`` (mutate the array in place
    to simulate silent corruption; production SDC comes from
    :meth:`repro.cluster.faults.FaultPlan.apply_sdc`)."""

    safety: float = 64.0
    max_strikes: int = 2
    inject: Callable | None = None

    @classmethod
    def coerce(cls, verify) -> "VerifyPolicy | None":
        """Normalize a ``verify=`` argument: False/None -> None, True ->
        default policy, a policy -> itself."""
        if verify is None or verify is False:
            return None
        if verify is True:
            return cls()
        if isinstance(verify, cls):
            return verify
        raise TypeError("verify must be a bool or a VerifyPolicy")


@dataclass(frozen=True)
class DetectionRecord:
    """One tripped invariant: which stage, where, and what it named."""

    stage: str  # "conv" (the front) or "back" (segment FFT + demod)
    rank: int  # rank (distributed) or -1 (single-node)
    segments: tuple[int, ...]  # localized segment/lane ids (global)
    strike: int  # 1 = first detection at this site, 2 = after repair, ...


@dataclass
class VerificationReport:
    """Counters the self-verifying pipelines fill in as they run.

    ``checks`` counts verified stage boundaries (one per boundary per
    block or rank, however often a repair made it re-evaluate);
    ``detections`` counts tripped invariants;
    ``segment_repairs``/``stage_repairs`` count segment-granular vs
    whole-stage recomputes; ``escalations`` counts falls past segment
    granularity.  A clean run must show ``detections == 0`` (asserted
    across the chaos seed matrix by the ``abft``-marked tests)."""

    checks: int = 0
    detections: int = 0
    segment_repairs: int = 0
    stage_repairs: int = 0
    escalations: int = 0
    events: list[DetectionRecord] = field(default_factory=list)

    def record(self, stage: str, rank: int, segments, strike: int) -> None:
        self.detections += 1
        self.events.append(DetectionRecord(
            stage=stage, rank=rank,
            segments=tuple(int(t) for t in segments), strike=strike))

    @property
    def detected_segments(self) -> set[int]:
        """Union of all segment ids any detection localized."""
        out: set[int] = set()
        for ev in self.events:
            out.update(ev.segments)
        return out

    @property
    def detected_stages(self) -> set[str]:
        return {ev.stage for ev in self.events}

    @property
    def repairs(self) -> int:
        return self.segment_repairs + self.stage_repairs

    def merge(self, other: "VerificationReport") -> None:
        """Fold another report's counters into this one (SPMD ranks)."""
        self.checks += other.checks
        self.detections += other.detections
        self.segment_repairs += other.segment_repairs
        self.stage_repairs += other.stage_repairs
        self.escalations += other.escalations
        self.events.extend(other.events)

    def summary(self) -> str:
        segs = sorted(self.detected_segments)
        seg_txt = f" segments={segs}" if segs else ""
        return (f"checks={self.checks} detected={self.detections} "
                f"repaired={self.repairs} "
                f"(segment-level={self.segment_repairs}, "
                f"stage-level={self.stage_repairs}) "
                f"escalations={self.escalations}{seg_txt}")
