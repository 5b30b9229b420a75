"""Self-verifying execution of the SOI pipelines: one ABFT engine, two hosts.

The SOI factorization is one algorithm whatever P is, so its fault
tolerance is stated once.  :class:`_Engine` owns

* the **invariants** of the two stages, each written over segment-major
  ``(..., k, length)`` arrays, a segment a row, so a rank's 2-D block and
  a batch's 3-D block are the same call, and each one checksum
  functional: the convolution's checksum syndrome carried through the
  lane transform, checked on the front's output
  (:meth:`~_Engine.check_conv`), and the back's ``y_s . w == alpha_s . v``
  with ``v`` the checksum weights pulled back through demodulation and
  the segment FFT (:meth:`~_Engine.check_back`);
* the **ladder** (:meth:`~_Engine._ladder`): detect → record → strike →
  repair the flagged units (strike 1) or the whole stage (strike 2) →
  raise :class:`VerificationError` past ``max_strikes`` — the only place
  strikes are counted, detections recorded, seconds charged, counters
  published and the error raised;
* the **repairs** (:func:`_whole`, :func:`_rows`), which call the
  callables the stage itself ran — never a kernel of their own — so a
  repaired unit is bitwise the one a fault-free run computes.

A *host* verifies each stage at the boundary where the next one would
consume it, and supplies only what differs between executors: the
convolution geometry, the kernels that ran, the rank a detection is
recorded under, and where seconds are charged.
:class:`PipelineVerifier` rides the stage seam of
:class:`repro.core.soi_single.SoiFFT`; :class:`DistVerifier` is called
by :func:`repro.core.soi_dist.soi_rank_program` before a stage's output
is checkpointed, shipped or returned, and charges ``"abft verify"``
(compute) and ``"abft repair"`` (the ``"retry"`` category — the cost of
resilience, like re-flown transfers) to the rank clocks.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from repro.core.convolution import front, lane_fft
from repro.core.demodulate import back
from repro.core.error_model import verification_thresholds
from repro.core.window import SoiTables
from repro.fft.plan import get_plan
from repro.verify.abft import ConvChecksum, checksum_weights
from repro.verify.invariants import energy_rows
from repro.telemetry.metrics import get_registry
from repro.verify.policy import (
    VerificationError,
    VerificationReport,
    VerifyPolicy,
)

__all__ = ["DistVerifier", "PipelineVerifier"]

_TINY = np.finfo(np.float64).tiny

#: Report counters mirrored into ``repro_verify_<field>_total`` metrics.
_REPORT_FIELDS = ("checks", "detections", "segment_repairs",
                  "stage_repairs", "escalations")


def _abs2(a: np.ndarray) -> np.ndarray:
    return a.real * a.real + a.imag * a.imag


class _Stage(NamedTuple):
    """One executed stage, as the ladder sees it: the *name* a detection
    is recorded under, ``redo(bad)`` that recomputes the flagged units of
    its output in place and returns the fraction of the stage's work that
    reran, and the modeled *seconds* of the whole stage (0.0 where nobody
    charges)."""

    name: str
    redo: Callable
    seconds: float


def _whole(name: str, out: np.ndarray, run: Callable,
           seconds: float = 0.0) -> _Stage:
    """A stage whose units are the segment rows of an ``(..., S, rows)``
    output that its kernel does not compute apart (a convolution tile is
    one product over every lane; the lane transform mixes them): run the
    stage's own kernel whole — the only call that rounds like the first
    one — and keep the flagged rows."""
    def redo(bad: np.ndarray) -> float:
        np.copyto(out, run(), where=bad[..., None])
        return 1.0
    return _Stage(name, redo, seconds)


def _rows(name: str, out: np.ndarray, src: np.ndarray, run: Callable,
          seconds: float = 0.0) -> _Stage:
    """A stage whose units are independent rows, ``out[.., k, :] =
    run(src[.., k, :])``: row *k* of a batched call is bitwise the call
    on row *k* alone (:func:`repro.fft.bitops.gemm_tile`), so only the
    flagged rows rerun."""
    def redo(bad: np.ndarray) -> float:
        out[bad] = run(np.ascontiguousarray(src[bad]))
        return float(bad.mean())
    return _Stage(name, redo, seconds)


class _Engine:
    """The invariants, the strike ladder and the repairs, written once.

    Every ``check_*`` takes the *cluster* and *rank* its seconds are
    charged to (``None``/-1: a single-node host, nothing is charged) and
    the stage's arrays and kernels; outputs are repaired in place.
    """

    def __init__(self, tables: SoiTables, policy: VerifyPolicy, dtype,
                 rows: int, block_lo: int):
        self.tables = tables
        self.policy = policy
        self.report = VerificationReport()
        self.thresholds = verification_thresholds(
            tables, dtype=dtype, safety=policy.safety)
        self._rows = rows  # the front rows checksummed (host-local)
        self._w_rows = checksum_weights(rows, dtype=dtype)
        self._conv_chk = ConvChecksum(tables, 0, rows, block_lo,
                                      self._w_rows, dtype=dtype)
        # the back's functional: y_s . w over the M kept bins equals
        # alpha_s . v, v = F_{M'} pad_{M'}(w / demod) (F is symmetric)
        p = tables.params
        w = checksum_weights(p.m)
        v = get_plan(p.m_oversampled)(
            np.pad(w / tables.demod, (0, p.m_oversampled - p.m)))
        self._w_bins = w.astype(dtype)
        self._v = v.astype(dtype)
        self._v_energy = float(energy_rows(v))
        self._published = dict.fromkeys(_REPORT_FIELDS, 0)

    # -- the invariants: each returns the mask of units that violate it ----

    def _checksum_bad(self, a: np.ndarray, c_pred: np.ndarray) -> np.ndarray:
        """Segments (rows) of ``(..., S, rows)`` *a* whose weighted checksum
        departs from the predicted one.  The prediction is carried through
        the lane transform, so it rounds at its frame's energy, not at the
        segment's: each segment's energy is floored with its frame's mean
        (a tone leaves most segments nearly empty)."""
        e = energy_rows(a)
        return _abs2(np.matmul(a, self._w_rows) - c_pred) > (
            self.thresholds.checksum_rtol ** 2
            * (self._rows * (e + e.mean(axis=-1, keepdims=True)) + _TINY))

    def _back_bad(self, y: np.ndarray, pred: np.ndarray,
                  e_alpha: np.ndarray) -> np.ndarray:
        """Rows of ``(..., k, M)`` *y* whose weighted sum departs from
        *pred*, the functional ``alpha_s . v`` of the segments they came
        from.  Both round at the Cauchy-Schwarz scale
        ``|alpha_s| |v|``."""
        return _abs2(np.matmul(y, self._w_bins) - pred) > (
            self.thresholds.checksum_rtol ** 2
            * (self._v_energy * e_alpha + _TINY))

    # -- the ladder --------------------------------------------------------

    def _ladder(self, cluster, rank: int, stage: _Stage, detect: Callable,
                ids=None, nbytes: int = 0) -> None:
        """Verify one stage's output; repair and re-verify until clean.

        *detect()* returns the mask of the units that violate the stage's
        invariant (last axis; *ids* maps them to global segment ids when
        they are not those already).
        Strike 1 repairs the flagged units, strike 2 the whole stage;
        past ``policy.max_strikes`` the corruption is persistent and the
        run raises instead of returning silently corrupt output.
        """
        self.report.checks += 1
        if cluster is not None:
            self._charge(cluster, rank, "abft verify",
                         cluster.machine_of(rank).mem_time(nbytes))
        strike = 0
        try:
            while True:
                bad = detect()
                if not bad.any():
                    return
                strike += 1
                units = np.unique(np.nonzero(bad)[-1]).tolist()
                segs = units if ids is None else [ids[k] for k in units]
                self.report.record(stage.name, rank, segs, strike)
                if strike > self.policy.max_strikes:
                    raise VerificationError(
                        f"{f'rank {rank}: ' if rank >= 0 else ''}stage "
                        f"'{stage.name}' failed verification after "
                        f"{self.policy.max_strikes} repair attempts "
                        f"(segments {segs})")
                if strike == 1:
                    self.report.segment_repairs += 1
                else:
                    bad = np.ones_like(bad)
                    self.report.stage_repairs += 1
                    self.report.escalations += 1
                self._charge(cluster, rank, "abft repair",
                             self._repair(stage, bad), category="retry")
        finally:
            self._publish(self._registry(cluster))

    def _repair(self, stage: _Stage, bad: np.ndarray) -> float:
        """Recompute the flagged units of *stage*; returns the modeled
        seconds of what ran."""
        return stage.seconds * stage.redo(bad)

    def _charge(self, cluster, rank: int, label: str, seconds: float,
                category: str = "compute") -> None:
        if cluster is None:
            return
        cluster.charge_seconds(rank, label, seconds, category=category)
        # itemize verification/repair work in the per-request budget of
        # an installed deadline, so serving-layer post-mortems see where
        # the time went (the clocks already advanced either way)
        deadline = getattr(cluster.comm, "deadline", None)
        if deadline is not None:
            deadline.charge(category, seconds)

    def _registry(self, cluster):
        return cluster.metrics if cluster is not None else get_registry()

    def _publish(self, registry) -> None:
        """Publish the report's counter *deltas* since the last flush, so
        every ladder can flush at its exit without double-counting (and
        without the invariants touching the registry)."""
        for f in _REPORT_FIELDS:
            val = getattr(self.report, f)
            delta = val - self._published[f]
            if delta > 0:
                registry.counter(
                    f"repro_verify_{f}_total",
                    f"ABFT {f.replace('_', ' ')} across all verifiers"
                ).inc(delta)
                self._published[f] = val

    # -- the stage boundaries ----------------------------------------------

    def check_conv(self, cluster, rank: int, x: np.ndarray,
                   out: np.ndarray, *, conv: Callable, seconds: float = 0.0
                   ) -> None:
        """Verify the front, ``out = conv()`` from *x*, segment-major
        ``(..., S, rows)``: ``alpha`` on one node, on a rank the block it
        checkpoints and ships (the all-to-all is under the wire checksum).

        The operator checksum predicted from the front's input rides the
        front's lane transform; its syndrome names the corrupt segments,
        whichever step of the front struck them (a struck convolution
        element reaches every segment).  A repair reruns the front and
        keeps the flagged rows."""
        # each frame's checksum an (S, 1) block
        c = lane_fft(self._conv_chk.predict(x)[..., None],
                     self.tables)[..., 0]
        self._ladder(cluster, rank, _whole("conv", out, conv, seconds),
                     lambda: self._checksum_bad(out, c),
                     nbytes=out.nbytes + x.nbytes)

    def check_back(self, cluster, rank: int, alpha: np.ndarray,
                   y: np.ndarray, *, plan, ids=None,
                   seconds: float = 0.0) -> None:
        """Verify the back, ``y = back(alpha, tables, plan)``: ``(..., k,
        M')`` segments transformed, projected and divided into ``(..., k,
        M)`` output rows.  One functional per row, read off ``alpha``
        (still in memory) and ``y``: a struck spectrum bin or output
        element moves ``y_s . w`` and not ``alpha_s . v``.  Flagged rows
        rerun the back kernel on a copy of their ``alpha``."""
        pred = np.matmul(alpha, self._v)
        e_alpha = energy_rows(alpha)
        self._ladder(cluster, rank,
                     _rows("back", y, alpha,
                           lambda a: back(a, self.tables, plan, lend=True),
                           seconds),
                     lambda: self._back_bad(y, pred, e_alpha),
                     ids, alpha.nbytes + y.nbytes)


class PipelineVerifier(_Engine):
    """The ABFT engine riding one :class:`SoiFFT` plan's stage seam.

    Geometry: all ``M'`` rows, read from the caller's input (block 0 on);
    kernels: the plan's own ``front`` call and segment plan; detections
    are recorded under rank -1 and nothing is charged (wall time is
    measured, not modeled)."""

    def __init__(self, soi, policy: VerifyPolicy):
        super().__init__(soi.tables, policy, soi.dtype,
                         soi.params.m_oversampled, 0)
        self._soi = soi

    def _registry(self, cluster):
        telem = self._soi.telemetry
        return telem.metrics if telem is not None else get_registry()

    def after(self, stage: str, src: np.ndarray, arr: np.ndarray) -> None:
        """Stage-seam observer, called by ``SoiFFT._execute`` with each
        stage's input and output before the next stage consumes it: the
        injection point for silent corruption (``policy.inject``), then
        the stage's check and repair."""
        if self.policy.inject is not None:
            self.policy.inject(stage, arr)
        soi = self._soi
        if stage == "conv":
            self.check_conv(
                None, -1, src, arr,
                conv=lambda: front(src, soi.tables, 0, self._rows, 0,
                                   workspace=soi._conv_ws))
        else:  # back
            self.check_back(None, -1, src, arr, plan=soi._seg_plan)


class DistVerifier(_Engine):
    """The ABFT engine for the distributed pipelines.

    One verifier serves every rank of a run (the per-rank convolution
    geometry is the same shifted window — rank r's ``(j_start = r*rows,
    block_lo = own_lo - left_g)`` is ``(0, -left_g)`` in local
    coordinates — so the checksum functional and weights are shared);
    the rank program hands each ``check_*`` its cluster, its rank and the
    kernels it ran (its geometry's ``SoiFFT`` plan's).
    """

    def __init__(self, tables: SoiTables, policy: VerifyPolicy | None = None,
                 dtype=np.complex128):
        p = tables.params
        super().__init__(tables, policy or VerifyPolicy(), dtype,
                         p.rows_per_process, -p.ghost_blocks[0])

    def reset_report(self) -> VerificationReport:
        """Fresh counters for a new run; returns the new report."""
        self.report = VerificationReport()
        self._published = dict.fromkeys(_REPORT_FIELDS, 0)
        return self.report

    def absorb(self, reports, registry) -> None:
        """Fold in the reports of ranks that verified with their own
        verifiers across a process boundary, and publish them.

        The rank-serial engine sees every rank's pre-wire ("conv")
        events first, then every rank's post-all-to-all events —
        reproduce that so the report compares equal to a simulated
        run's."""
        merged = VerificationReport()
        for rep in reports:
            merged.merge(rep)
        merged.events.sort(key=lambda e: e.stage != "conv")
        self.report.merge(merged)
        self._publish(registry)
