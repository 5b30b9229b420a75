"""Self-verifying execution of the SOI pipelines: one ABFT engine, two hosts.

The SOI factorization is one algorithm whatever P is, so its fault
tolerance is stated once.  :class:`_Engine` owns

* the **invariants** of the three stages, each written over
  segment-major ``(..., k, length)`` arrays, a segment a row, so a rank's
  2-D block and a batch's 3-D block are the same call: the convolution's
  checksum syndrome carried through the lane transform, checked on the
  front's output (:meth:`~_Engine.check_conv`), per-segment Parseval + the
  DFT sum invariant (:meth:`~_Engine.check_segments`) and the
  demodulation weighted sum (:meth:`~_Engine.check_demod`);
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
from repro.core.demodulate import demodulate
from repro.core.error_model import verification_thresholds
from repro.core.window import SoiTables
from repro.verify.abft import ConvChecksum, checksum_weights
from repro.verify.invariants import energy_rows, parseval_check
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
        #: conv geometry in host-local coordinates: rows checksummed, and
        #: the block index ``x_ext`` starts at
        self._rows, self._block_lo, self._dtype = rows, block_lo, dtype
        self._w_rows = checksum_weights(rows, dtype=dtype)
        self._vdemod = np.ascontiguousarray(
            (1.0 / tables.demod).astype(dtype))
        self._conv_chk: ConvChecksum | None = None
        self._published = dict.fromkeys(_REPORT_FIELDS, 0)

    def _conv_checksum(self) -> ConvChecksum:
        if self._conv_chk is None:
            self._conv_chk = ConvChecksum(
                self.tables, 0, self._rows, self._block_lo, self._w_rows,
                dtype=self._dtype)
        return self._conv_chk

    # -- the invariants: each returns the mask of units that violate it ----

    def _checksum_bad(self, a: np.ndarray, c_pred: np.ndarray):
        """Segments (rows) of ``(..., S, rows)`` *a* whose weighted checksum
        departs from the predicted one; also returns their energies."""
        e = energy_rows(a)
        bad = _abs2(np.matmul(a, self._w_rows) - c_pred) > (
            self.thresholds.checksum_rtol ** 2 * (self._rows * e + _TINY))
        return bad, e

    def _spectrum_bad(self, e_alpha: np.ndarray, dc_pred: np.ndarray,
                      beta: np.ndarray) -> np.ndarray:
        """Rows of ``(..., k, M')`` *beta* that break Parseval or the DFT
        sum invariant ``sum_k beta[k] == M' * alpha[0]`` of an unscaled
        forward DFT.  Any single corrupted spectrum element shifts the
        sum; an energy-preserving error that fools Parseval still does."""
        th, mp = self.thresholds, beta.shape[-1]
        e_beta = energy_rows(beta)
        bad = parseval_check(e_alpha, e_beta, mp, th.energy_rtol)
        return bad | (_abs2(beta.sum(axis=-1) - dc_pred)
                      > th.checksum_rtol ** 2 * (mp * e_beta + _TINY))

    def _demod_bad(self, rhs: np.ndarray, seg: np.ndarray) -> np.ndarray:
        """Rows of ``(..., k, M)`` *seg* whose plain sum departs from
        *rhs*, the ``1/demod``-weighted sum of the spectrum they were
        divided out of (``seg * demod == beta[..., :M]``)."""
        return _abs2(seg.sum(axis=-1) - rhs) > (
            self.thresholds.checksum_rtol ** 2
            * (seg.shape[-1] * energy_rows(seg) + _TINY))

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

    def check_conv(self, cluster, rank: int, x_ext: np.ndarray,
                   out: np.ndarray, *, conv: Callable, seconds: float = 0.0
                   ) -> np.ndarray:
        """Verify the front, ``out = conv()``, segment-major ``(..., S,
        rows)``: ``alpha`` on one node, on a rank the block it checkpoints
        and ships (the all-to-all is under the wire checksum).

        The operator checksum predicted from the staged input rides the
        front's lane transform; its syndrome names the corrupt segments,
        whichever step of the front struck them (a struck convolution
        element reaches every segment).  A repair reruns the front and
        keeps the flagged rows.  Returns the per-segment energies."""
        # each frame's checksum an (S, 1) block
        c = lane_fft(self._conv_checksum().predict(x_ext)[..., None],
                     self.tables)[..., 0]
        e = None

        def detect():
            nonlocal e
            bad, e = self._checksum_bad(out, c)
            return bad

        self._ladder(cluster, rank, _whole("conv", out, conv, seconds),
                     detect, nbytes=out.nbytes + x_ext.nbytes)
        return e

    def check_segments(self, cluster, rank: int, alpha: np.ndarray,
                       beta: np.ndarray, *, fft: Callable, ids=None,
                       e_alpha: np.ndarray | None = None,
                       fft_seconds: float = 0.0) -> None:
        """Verify the segment spectra ``beta = fft(alpha)``, both
        ``(..., k, M')``; flagged rows are recomputed from ``alpha``
        (still in memory — the natural per-destination checkpoint).
        *e_alpha* passes the row energies of ``alpha`` when the host
        already has them."""
        if e_alpha is None:
            e_alpha = energy_rows(alpha)
        dc_pred = alpha.shape[-1] * alpha[..., 0]
        self._ladder(cluster, rank,
                     _rows("segment-fft", beta, alpha, fft, fft_seconds),
                     lambda: self._spectrum_bad(e_alpha, dc_pred, beta),
                     ids, alpha.nbytes + beta.nbytes)

    def check_demod(self, cluster, rank: int, beta: np.ndarray,
                    seg: np.ndarray, *, ids=None,
                    demod_seconds: float = 0.0) -> None:
        """Verify ``seg = demodulate(beta)``: ``(..., k, M')`` spectra
        projected and divided into ``(..., k, M)`` output rows."""
        rhs = np.matmul(beta[..., : seg.shape[-1]], self._vdemod)
        self._ladder(cluster, rank,
                     _rows("demod", seg, beta,
                           lambda b: demodulate(b, self.tables),
                           demod_seconds),
                     lambda: self._demod_bad(rhs, seg),
                     ids, beta.nbytes + seg.nbytes)


class PipelineVerifier(_Engine):
    """The ABFT engine riding one :class:`SoiFFT` plan's stage seam.

    Geometry: all ``M'`` rows from block ``soi._block_lo``; kernels: the
    plan's own ``front`` call, segment plan and ``demodulate``; detections
    are recorded under rank -1 and nothing is charged (wall time is
    measured, not modeled)."""

    def __init__(self, soi, policy: VerifyPolicy):
        super().__init__(soi.tables, policy, soi.dtype,
                         soi.params.m_oversampled, soi._block_lo)
        self._soi = soi
        #: per-segment energies of the last verified ``alpha``, which its
        #: segment check reads: the front check's per-segment energies
        self._e_alpha = None

    def _registry(self, cluster):
        telem = self._soi.telemetry
        return telem.metrics if telem is not None else get_registry()

    def after(self, stage: str, arr: np.ndarray) -> None:
        """Stage-seam observer, called by ``SoiFFT._execute`` with each
        stage's output before the next stage consumes it: the injection
        point for silent corruption (``policy.inject``), then the
        stage's check and repair."""
        if self.policy.inject is not None:
            self.policy.inject(stage, arr)
        soi = self._soi
        bufs = soi._bufpool[arr.shape[0]]
        if stage == "conv":
            x_ext = bufs["x_ext"]
            self._e_alpha = self.check_conv(
                None, -1, x_ext, arr,
                conv=lambda: front(x_ext, soi.tables, 0, self._rows,
                                   self._block_lo, workspace=soi._conv_ws))
        elif stage == "segment-fft":
            self.check_segments(None, -1, bufs["alpha"], arr,
                                fft=soi._seg_plan, e_alpha=self._e_alpha)
        else:  # demod
            self.check_demod(None, -1, bufs["beta"], arr)


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
