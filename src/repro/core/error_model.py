"""Rigorous per-bin alias bounds for the SOI transform.

The Kaiser formula in :mod:`repro.core.window` *predicts* accuracy from
design parameters.  This module *computes* it exactly for a built table:
the pipeline's response to a unit tone at relative frequency ``nu`` is

``R(nu) = (M'/(n_mu*N)) * sum_r e^{-2pi i r nu/M'}
          e^{+2pi i nu (q_r - B/2 + 1) S / N} G_r(nu)``

(the same closed form the demodulation table uses, evaluated off-bin).
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


def tone_response(tables: SoiTables, frequencies: np.ndarray) -> np.ndarray:
    """Exact pipeline response R(nu) at arbitrary relative frequencies.

    ``frequencies`` are offsets from a segment origin in bins (the demod
    table equals ``tone_response(tables, arange(M))``), any shape of one
    axis or more; O(n_mu * B * S) each, a row of the last axis at a time.
    """
    p = tables.params
    nu = np.asarray(frequencies, dtype=np.float64)
    n, s, b_width, n_mu = p.n, p.n_segments, p.b, p.n_mu
    mp = p.m_oversampled
    grid = np.arange(b_width * s)  # b*S + lane
    taps = tables.coeffs.reshape(n_mu, -1)
    g = np.zeros(nu.shape, dtype=np.complex128)
    for k in np.ndindex(nu.shape[:-1]):
        tap_phase = np.exp(2j * np.pi * np.outer(nu[k], grid) / n)  # all r
        for r in range(n_mu):
            phase = np.exp(-2j * np.pi * r * nu[k] / mp
                           + 2j * np.pi * nu[k]
                           * (tables.q_r[r] - b_width // 2 + 1) * s / n)
            g[k] += phase * (tap_phase @ taps[r])
    return g * (mp / (n_mu * float(n)))


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
    |R(k + l M')|`` (of the squares if *square*), from one
    :func:`tone_response` evaluation."""
    p = tables.params
    m, mp = p.m, p.m_oversampled
    if bins is None:
        bins = np.unique(np.linspace(0, m - 1, min(m, count)).astype(np.int64))
    bins = np.asarray(bins, dtype=np.int64)
    if bins.size == 0 or bins.min() < 0 or bins.max() >= m:
        raise ValueError("bins must be non-empty and within [0, M)")
    n_aliases = max(1, p.n // mp // 2)
    images = np.arange(-n_aliases, n_aliases + 1)[:, None] * mp
    mag = np.abs(tone_response(tables, bins + images))
    if square:
        mag = mag ** 2
    alias = np.zeros(bins.size)
    for l in range(1, n_aliases + 1):
        alias += mag[n_aliases + l]
        alias += mag[n_aliases - l]
    return bins, mag[n_aliases], alias


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
        noise = float(np.mean(alias / signal))
        if noise <= 0.0:
            noise = np.finfo(np.float64).tiny
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
