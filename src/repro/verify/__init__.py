"""Algorithm-based fault tolerance for the SOI pipelines.

Wire checksums (:mod:`repro.cluster.faults`) prove that bytes crossed
the fabric intact — they are blind to silent data corruption *inside* a
rank's compute.  This package makes every stage of the single-node and
distributed SOI transform self-verifying, in the Huang-Abraham ABFT
tradition adapted to the SOI factorization:

* **Weighted checksum rows** (:mod:`~repro.verify.abft`): by linearity,
  the transform of a weighted sum of rows must equal the weighted sum of
  the transformed rows.  The convolution operator W carries a
  *precomputed* checksum functional (``w^T W``) that rides the lane
  transform, so the front (conv + lane, one kernel) is verifiable
  against the staged input in one O(N) sweep.
* **One functional per back row**: the segment FFT and demodulation are
  linear too, so the weighted sum ``y_s . w`` of an output row equals
  ``alpha_s . v`` for one vector ``v`` (the weights pulled back through
  both, one length-M' transform per geometry) — two dot products per
  segment, each tolerance the row's energy (:mod:`~repro.verify.invariants`)
  at the dot product's rounding scale.  The checks are per segment, so
  they *localize* the corrupt segment, not just detect the corruption.
* **Segment-level repair** (:mod:`~repro.verify.selfcheck`): a failed
  invariant names the corrupt segment(s); one engine, hosted by the
  single-node and the distributed pipeline alike, recomputes only those
  from the stage inputs still in memory (the PR-2 checkpoint cut
  points) with the kernels the stage itself ran — so a repaired
  transform is bitwise the fault-free one — escalating to a full stage
  recompute after repeated strikes and raising
  :class:`VerificationError` only when recomputation cannot restore the
  invariants.
* **Straggler hedging** (:mod:`~repro.verify.watchdog`): the SPMD
  runtime duplicates the slowest compute steps speculatively on idle
  ranks and takes the first finisher, charged under the ``"hedge"``
  trace category.

Thresholds are calibrated from the exact alias analysis
(:func:`repro.core.error_model.verification_thresholds`): invariant
tolerances sit at the floating-point noise floor of a clean run (zero
false positives by construction), while a single-element perturbation
above :attr:`~repro.core.error_model.VerificationThresholds.min_detectable_amplitude`
trips the check of a segment of typical energy.
"""

from repro.verify.abft import (
    ConvChecksum,
    batch_checksum,
    checksum_weights,
)
from repro.verify.invariants import energy_rows
from repro.verify.policy import (
    DetectionRecord,
    VerificationError,
    VerificationReport,
    VerifyPolicy,
)
from repro.verify.selfcheck import DistVerifier, PipelineVerifier
from repro.verify.watchdog import HedgePolicy

__all__ = [
    "ConvChecksum",
    "DetectionRecord",
    "DistVerifier",
    "HedgePolicy",
    "PipelineVerifier",
    "VerificationError",
    "VerificationReport",
    "VerifyPolicy",
    "batch_checksum",
    "checksum_weights",
    "energy_rows",
]
