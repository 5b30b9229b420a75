"""Self-verifying execution of the SOI pipelines: one ABFT engine, two hosts.

The SOI factorization is one algorithm whatever P is, so its fault
tolerance is stated once.  :class:`_Engine` owns

* the **invariants**, each written over ``(..., rows, S)`` /
  ``(..., k, M')`` arrays so a rank's 2-D block and a batch's 3-D block
  are the same call: the convolution's checksum syndrome carried through
  the lane transform (:meth:`~_Engine.check_conv`), the energy a pure
  data movement preserves (:meth:`~_Engine.check_permute`), per-segment
  Parseval + the DFT sum invariant (:meth:`~_Engine.check_segments`) and
  the demodulation weighted sum (:meth:`~_Engine.check_demod`);
* the **ladder** (:meth:`~_Engine._ladder`): detect → record → strike →
  repair the flagged units (strike 1) or the whole stage (strike 2) →
  raise :class:`VerificationError` past ``max_strikes`` — the only place
  strikes are counted, detections recorded, seconds charged, counters
  published and the error raised;
* the **repairs** (:func:`_columns`, :func:`_rows`), which call the
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

from repro.core.convolution import convolve
from repro.core.demodulate import demodulate
from repro.core.error_model import verification_thresholds
from repro.core.window import SoiTables
from repro.verify.abft import ConvChecksum, batch_checksum, checksum_weights
from repro.verify.invariants import energy_cols, energy_rows, parseval_check
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


def _columns(name: str, out: np.ndarray, run: Callable,
             seconds: float = 0.0) -> _Stage:
    """A stage whose units are columns of an ``(..., rows, S)`` output
    that its kernel does not compute apart (a convolution tile is one
    product over every lane; the lane transform mixes them): run the
    stage's own kernel whole — the only call that rounds like the first
    one — and keep the flagged columns."""
    def redo(bad: np.ndarray) -> float:
        np.copyto(out, run(), where=bad[..., None, :])
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

    #: Name of the stage whose output is ``z``.  The rank program's
    #: "conv" stage ends after the lane transform (one compute charge,
    #: one SDC slot); the single-node pipeline names it apart.
    _Z_STAGE = "lane"

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
        """Columns of ``(..., rows, S)`` *a* whose weighted row checksum
        departs from the predicted one; also returns their energies."""
        e = energy_cols(a)
        bad = _abs2(batch_checksum(a, self._w_rows) - c_pred) > (
            self.thresholds.checksum_rtol ** 2 * (self._rows * e + _TINY))
        return bad, e

    def _energy_bad(self, e_in: np.ndarray, e_out: np.ndarray) -> np.ndarray:
        """Units whose energy a pure data movement failed to preserve."""
        return np.abs(e_out - e_in) > self.thresholds.energy_rtol * (
            e_in + _TINY)

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

    def _ladder(self, cluster, rank: int, stages: list, detect: Callable,
                ids=None, nbytes: int = 0) -> None:
        """Verify one stage boundary; repair and re-verify until clean.

        *detect()* returns ``(i, bad)``: the mask of the units that
        violate the boundary's invariant (last axis; *ids* maps them to
        global segment ids when they are not those already) and the index
        in *stages* of the stage that produced them.
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
                i, bad = detect()
                if not bad.any():
                    return
                strike += 1
                units = np.unique(np.nonzero(bad)[-1]).tolist()
                segs = units if ids is None else [ids[k] for k in units]
                self.report.record(stages[i].name, rank, segs, strike)
                if strike > self.policy.max_strikes:
                    raise VerificationError(
                        f"{f'rank {rank}: ' if rank >= 0 else ''}stage "
                        f"'{stages[i].name}' failed verification after "
                        f"{self.policy.max_strikes} repair attempts "
                        f"(segments {segs})")
                if strike == 1:
                    self.report.segment_repairs += 1
                else:
                    bad = np.ones_like(bad)
                    self.report.stage_repairs += 1
                    self.report.escalations += 1
                self._charge(cluster, rank, "abft repair",
                             self._repair(stages[i:], bad), category="retry")
        finally:
            self._publish(self._registry(cluster))

    def _repair(self, stages: list, bad: np.ndarray) -> float:
        """Recompute the flagged units of ``stages[0]``, then every later
        stage of the boundary whole (it consumed what was just repaired);
        returns the modeled seconds of what ran."""
        seconds = 0.0
        for stage in stages:
            seconds += stage.seconds * stage.redo(bad)
            bad = np.ones_like(bad)
        return seconds

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
                   u: np.ndarray, z: np.ndarray, *, conv: Callable,
                   lane: Callable | None, conv_seconds: float = 0.0,
                   lane_seconds: float = 0.0) -> np.ndarray:
        """Verify ``u = W x_ext`` and ``z = (I (x) F_S) u``.

        The operator checksum predicted from the staged input rides the
        lane transform, so one comparison on ``z`` covers both stages in
        the clean path; only on failure does the ``u``-side check run, to
        attribute the error to the stage that produced it.  The
        syndrome's column support names the corrupt lanes.  *conv()*
        recomputes ``u`` whole; *lane* (None: there is no lane stage and
        ``z`` is the convolution's output) maps ``u`` to ``z``.  Returns
        the per-column energies of the verified ``z``.
        """
        c_u = self._conv_checksum().predict(x_ext)
        if lane is None:
            c_z, stages = c_u, [_columns("conv", z, conv, conv_seconds)]
        else:
            # all frames' checksum rows as one block: one tile, any batch
            c_z = lane(c_u.reshape(-1, c_u.shape[-1])).reshape(c_u.shape)
            stages = [_columns("conv", u, conv, conv_seconds),
                      _columns(self._Z_STAGE, z, lambda: lane(u),
                               lane_seconds)]
        e_z = None

        def detect():
            nonlocal e_z
            bad, e_z = self._checksum_bad(z, c_z)
            if lane is not None and bad.any():
                bad_u, _ = self._checksum_bad(u, c_u)
                return (0, bad_u) if bad_u.any() else (1, bad)
            return 0, bad

        self._ladder(cluster, rank, stages, detect,
                     nbytes=z.nbytes + x_ext.nbytes)
        return e_z

    def check_permute(self, e_z: np.ndarray, zt: np.ndarray,
                      alpha: np.ndarray) -> np.ndarray:
        """Verify the stride permutation ``alpha = zt`` (*zt* the
        ``(..., S, M')`` transposed view of the verified ``z`` whose
        column energies are *e_z*).  Single-node only: on a cluster this
        movement is the all-to-all, covered by the wire checksum.
        Returns the per-segment energies of the verified ``alpha``."""
        e_alpha = None

        def detect():
            nonlocal e_alpha
            e_alpha = energy_rows(alpha)
            return 0, self._energy_bad(e_z, e_alpha)

        self._ladder(None, -1, [_rows("permute", alpha, zt, lambda a: a)],
                     detect)
        return e_alpha

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
                     [_rows("segment-fft", beta, alpha, fft, fft_seconds)],
                     lambda: (0, self._spectrum_bad(e_alpha, dc_pred, beta)),
                     ids, alpha.nbytes + beta.nbytes)

    def check_demod(self, cluster, rank: int, beta: np.ndarray,
                    seg: np.ndarray, *, ids=None,
                    demod_seconds: float = 0.0) -> None:
        """Verify ``seg = demodulate(beta)``: ``(..., k, M')`` spectra
        projected and divided into ``(..., k, M)`` output rows."""
        rhs = np.matmul(beta[..., : seg.shape[-1]], self._vdemod)
        self._ladder(cluster, rank,
                     [_rows("demod", seg, beta,
                            lambda b: demodulate(b, self.tables),
                            demod_seconds)],
                     lambda: (0, self._demod_bad(rhs, seg)),
                     ids, beta.nbytes + seg.nbytes)


class PipelineVerifier(_Engine):
    """The ABFT engine riding one :class:`SoiFFT` plan's stage seam.

    Geometry: all ``M'`` rows from block ``soi._block_lo``; kernels: the
    plan's own ``convolve`` call, :meth:`SoiFFT._lane_dft`, segment plan
    and ``demodulate``; detections are recorded under rank -1 and
    nothing is charged (wall time is measured, not modeled)."""

    def __init__(self, soi, policy: VerifyPolicy):
        super().__init__(soi.tables, policy, soi.dtype,
                         soi.params.m_oversampled, soi._block_lo)
        self._soi = soi
        self._energy = None  # unit energies of the last verified stage

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
        lane = soi._lane_dft if soi._lane_plan is not None else None
        if stage == "conv" and lane is not None:
            return  # verified with the lane output it feeds
        if stage in ("conv", "lane"):
            self._energy = self.check_conv(
                None, -1, bufs["x_ext"], bufs["u"], arr, lane=lane,
                conv=lambda: convolve(
                    bufs["x_ext"], soi.tables, 0, self._rows,
                    self._block_lo, workspace=soi._conv_ws))
        elif stage == "permute":
            self._energy = self.check_permute(
                self._energy, bufs.get("z", bufs["u"]).transpose(0, 2, 1),
                arr)
        elif stage == "segment-fft":
            self.check_segments(None, -1, bufs["alpha"], arr,
                                fft=soi._seg_plan, e_alpha=self._energy)
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

    _Z_STAGE = "conv"

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

        The rank-serial engine sees every rank's pre-wire (conv/lane)
        events first, then every rank's post-all-to-all events —
        reproduce that so the report compares equal to a simulated
        run's."""
        merged = VerificationReport()
        for rep in reports:
            merged.merge(rep)
        merged.events.sort(key=lambda e: e.stage not in ("conv", "lane"))
        self.report.merge(merged)
        self._publish(registry)
