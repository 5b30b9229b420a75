"""Rigorous per-bin alias bounds for the SOI transform.

The Kaiser formula in :mod:`repro.core.window` *predicts* accuracy from
design parameters.  This module *computes* it exactly for a built table:
the pipeline's response to a unit tone at relative frequency ``nu`` is

``R(nu) = (M'/(n_mu*N)) * sum_{r,b,l} w[r,b,l] e^{2pi i nu tau/N}``,
``tau = S(b + 1 - B/2) + l - S f_r``

(the demodulation table's closed form off-bin: :func:`_response`).
The recovered bin k of a segment receives, besides its own coefficient
``R(k) = demod[k]``, alias contributions ``R(k + l*M')`` for every l != 0.
The worst-case relative error of bin k against unit-magnitude spectral
content is therefore ``sum_{l != 0} |R(k + l M')| / |R(k)|`` — an upper
bound the measured errors must respect, checked in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.window import SoiTables

__all__ = ["AliasAnalysis", "SNR_MODEL_HEADROOM_DB", "VerificationThresholds",
           "alias_analysis", "expected_snr_db", "tone_response",
           "verification_thresholds"]


def _response(tables: SoiTables, coarse, fine) -> np.ndarray:
    """``R(coarse[:, None] + fine[None, :])``.  ``a[k, t]`` sums, once per
    record, the taps at ``tau = t0 + t + k / c`` (``c = n_mu / gcd(n_mu, S)``)
    times ``M'/(n_mu N)``: ``R = sum_k e^{2 pi i nu k / (c N)} (E(coarse) *
    a[k]) @ E(fine).T``, ``E(x) = e^{2 pi i x (t0 + t) / N}``, each phase
    reduced modulo its period before it is scaled."""
    p = tables.params
    def fold():
        s, c = p.n_segments, p.n_mu // np.gcd(p.n_mu, p.n_segments)
        tau = s * (np.arange(p.b)[:, None] + 1 - p.b // 2
                   - tables.f_r[:, None, None]) + np.arange(s)
        t, k = np.divmod(np.rint(c * tau).astype(np.int64), c)
        a = np.zeros((c, t.max() - t.min() + 1), dtype=np.complex128)
        np.add.at(a, (k, t - t.min()), tables.coeffs)
        return t.min(), a * (p.m_oversampled / (p.n_mu * float(p.n)))
    t0, a = tables.derived("folded taps", fold)
    def phases(x, positions, period):
        t = np.multiply.outer(np.asarray(x, dtype=np.float64), positions)
        t = (t - period * np.floor(t / period)) * (2.0 * np.pi / period)
        e = np.empty(t.shape, dtype=np.complex128)
        np.cos(t, out=e.real)
        np.sin(t, out=e.imag)
        return e
    c, taps = len(a), t0 + np.arange(a.shape[1])
    ec, ef = phases(coarse, taps, p.n), phases(fine, taps, p.n)
    sc, sf = (phases(x, np.arange(c), c * p.n) for x in (coarse, fine))
    return sum(np.outer(sc[:, k], sf[:, k]) * ((ec * a[k]) @ ef.T)
               for k in range(c))


def tone_response(tables: SoiTables, frequencies: np.ndarray) -> np.ndarray:
    """Exact pipeline response R(nu) at arbitrary relative frequencies.

    ``frequencies`` are offsets from a segment origin in bins (the demod
    table equals ``tone_response(tables, arange(M))``), any shape; one
    exponential per folded tap position and c more each (:func:`_response`).
    """
    nu = np.asarray(frequencies, dtype=np.float64)
    return _response(tables, nu.reshape(-1), np.zeros(1)).reshape(nu.shape)


@dataclass(frozen=True)
class AliasAnalysis:
    """Per-bin alias bounds for one table."""

    bins: np.ndarray  # analyzed output bins k
    signal: np.ndarray  # |R(k)|
    alias_sum: np.ndarray  # sum_{l != 0} |R(k + l M')|

    @property
    def relative_bound(self) -> np.ndarray:
        """Worst-case per-bin relative error against flat spectral content."""
        return self.alias_sum / self.signal

    @property
    def worst(self) -> float:
        return float(self.relative_bound.max())

    @property
    def best(self) -> float:
        return float(self.relative_bound.min())


def _image_sums(tables: SoiTables, bins, count: int, square: bool):
    """``(bins, own, images)`` for *bins* (None: *count* of them, evenly
    spaced over [0, M)): the own-bin response ``|R(k)|`` and the sum over
    every distinct alias image inside one period, ``sum_{l != 0}
    |R(k + l M')|`` (of the squares if *square*), image by image from one
    :func:`_response` grid: a 170 dB rung's alias power, 1e-17 of its own,
    does not survive a total less the own term."""
    p = tables.params
    m, mp = p.m, p.m_oversampled
    if bins is None:
        bins = np.unique(np.linspace(0, m - 1, min(m, count)).astype(np.int64))
    bins = np.asarray(bins, dtype=np.int64)
    if bins.size == 0 or bins.min() < 0 or bins.max() >= m:
        raise ValueError("bins must be non-empty and within [0, M)")
    l = np.arange(1, max(1, p.n // mp // 2) + 1)  # the images l != 0
    mag = np.abs(_response(tables, np.concatenate(([0], l, -l)) * mp, bins)) \
        ** (2 if square else 1)
    return bins, mag[0], mag[1:].sum(axis=0)


def alias_analysis(tables: SoiTables,
                   bins: np.ndarray | None = None) -> AliasAnalysis:
    """Compute alias bounds for the given output bins (default: a spread
    of 33, analyzed once per record)."""
    def analyze():
        return AliasAnalysis(*_image_sums(tables, bins, 33, square=False))
    return tables.derived("alias bound", analyze) if bins is None \
        else analyze()


#: Conservative margin subtracted from the on-grid alias SNR prediction.
#: The closed-form response R(nu) only sees the alias images on the M'
#: grid.  Subsampling by the *rational* factor n_mu/d_mu with a finite
#: B-tap window additionally leaks images on the finer grid of multiples
#: of M'/n_mu (= M/d_mu); measured on the standard rung matrix these
#: carry 2-4x the on-grid alias power, i.e. the pure alias model is
#: 2.4-4.8 dB optimistic.  5 dB of headroom makes the prediction strictly
#: conservative (measured SNR sits 0.2-2.6 dB above it across the rung
#: matrix — confirmed within the 3 dB criterion by the degrade-sweep
#: exhibit and tests/test_resilience.py).
SNR_MODEL_HEADROOM_DB = 5.0


def expected_snr_db(tables: SoiTables,
                    bins: np.ndarray | None = None) -> float:
    """Predicted output SNR (dB) for spectrally flat random input.

    For flat input every bin carries equal expected power, so the
    expected relative error power is the per-bin mean of the *power*
    alias sum normalized by the demodulated own-bin response:
    ``mean_k( sum_{l != 0} |R(k + l M')|^2 / |R(k)|^2 )`` (demodulation
    divides by R(k), making the own-bin response exactly 1).  The result
    is ``-10 log10`` of that mean, minus :data:`SNR_MODEL_HEADROOM_DB`
    for the fine-grid resampling images the closed form cannot see.  This
    is the accuracy annotation the degradation ladder
    (:mod:`repro.resilience`) attaches to each rung; the default (a
    spread of 129 bins) is computed once per record.
    """
    def predict():
        _, signal, alias = _image_sums(tables, bins, 129, square=True)
        noise = max(float(np.mean(alias / signal)), np.finfo(np.float64).tiny)
        return float(-10.0 * np.log10(noise)) - SNR_MODEL_HEADROOM_DB
    return tables.derived("predicted snr", predict) if bins is None \
        else predict()


@dataclass(frozen=True)
class VerificationThresholds:
    """Calibrated tolerances for the ABFT invariants (:mod:`repro.verify`).

    Each field bounds the floating-point noise a *clean* run can show on
    one invariant class, so any excess flags corruption with zero false
    positives:

    * ``checksum_rtol`` — weighted-checksum comparisons (a predicted
      checksum functional against the weighted sum of a stage's output
      rows), relative to the Cauchy-Schwarz scale of the dot product;
    * ``output_rtol`` — end-to-end agreement with the exact DFT (the
      alias-analysis bound, never tighter than the proven
      10x-expected-stopband convention);
    * ``min_detectable_amplitude`` — the smallest single-element
      perturbation (relative to the array rms) a checksum comparison sees
      on a segment of typical energy: the perturbation moves the weighted
      sum by itself (unit-modulus weights), against a tolerance of about
      ``checksum_rtol * sqrt(2) * M'`` rms.
    """

    checksum_rtol: float
    output_rtol: float
    min_detectable_amplitude: float


def verification_thresholds(tables: SoiTables, *, dtype=np.complex128,
                            safety: float = 64.0) -> VerificationThresholds:
    """Calibrate ABFT tolerances from the table's exact alias analysis.

    The stage invariants are exact identities, so their thresholds come
    from floating-point accumulation-error models scaled by *safety*: a
    weighted sum of ``m`` terms carries ~``eps*sqrt(m)`` relative noise
    (pairwise summation).  The end-to-end bound is algorithmic, not
    floating point — it comes from :func:`alias_analysis` (the rigorous
    per-bin worst case), floored at the ``10 * expected_stopband``
    convention the accuracy tests use.
    """
    def calibrate():
        p = tables.params
        eps = float(np.finfo(np.dtype(dtype)).eps)
        mp = p.m_oversampled
        terms = mp + p.b * p.n_mu  # longest checksum accumulation chain
        checksum_rtol = safety * eps * float(np.sqrt(terms))
        return VerificationThresholds(
            checksum_rtol=float(checksum_rtol),
            output_rtol=float(max(10.0 * tables.expected_stopband + 1e-12,
                                  2.0 * alias_analysis(tables).worst)),
            min_detectable_amplitude=float(2.0 * mp * checksum_rtol))
    return tables.derived(("thresholds", np.dtype(dtype).str, safety),
                          calibrate)
