"""Tests for the exact alias/error analysis."""

import numpy as np
import pytest

from repro.core.error_model import (
    alias_analysis,
    tone_response,
    verification_thresholds,
)
from repro.core.params import SoiParams
from repro.core.soi_single import SoiFFT
from repro.core.window import build_tables


def params(b=48, s=8, n=8 * 448, n_mu=8, d_mu=7):
    return SoiParams(n=n, n_procs=1, segments_per_process=s,
                     n_mu=n_mu, d_mu=d_mu, b=b)


@pytest.fixture(scope="module")
def tables():
    return build_tables(params())


class TestToneResponse:
    def test_integer_bins_match_demod(self, tables):
        m = tables.params.m
        r = tone_response(tables, np.arange(m, dtype=float))
        assert np.allclose(r, tables.demod, rtol=1e-10, atol=1e-14)

    def test_stopband_is_small(self, tables):
        p = tables.params
        nu = np.array([p.m_oversampled + 10.0, -p.m_oversampled + 3.0])
        stop = np.abs(tone_response(tables, nu))
        passband = np.abs(tables.demod).min()
        assert stop.max() < 1e-4 * passband

    def test_matches_executed_off_bin_tone(self, tables):
        """The response formula must agree with actually running the
        pipeline on an out-of-segment tone: feed frequency sM + k + M'
        and observe its leakage into bin k of segment s."""
        p = params(b=16, s=4, n=4 * 448)
        t = build_tables(p)
        f = SoiFFT(p)
        seg, k = 1, 10
        alias_freq = (seg * p.m + k + p.m_oversampled) % p.n
        x = np.exp(2j * np.pi * np.arange(p.n) * alias_freq / p.n)
        z = f.oversample(x)
        beta = f.segment_spectra(z)
        got = beta[seg, k] / p.n
        expected = tone_response(t, np.array([k + float(p.m_oversampled)]))[0]
        assert np.isclose(got, expected, rtol=1e-9, atol=1e-13)


class TestAliasAnalysis:
    def test_bound_dominates_measured_error(self, rng):
        """max_k |err_k| / max|Y| <= worst-case alias bound, for any input."""
        p = params(b=32, s=4, n=4 * 448)
        t = build_tables(p)
        analysis = alias_analysis(t, bins=np.arange(p.m))
        f = SoiFFT(p)
        for seed in range(3):
            r = np.random.default_rng(seed)
            x = r.standard_normal(p.n) + 1j * r.standard_normal(p.n)
            y = np.fft.fft(x)
            err = np.abs(f(x) - y) / np.abs(y).max()
            assert err.max() <= analysis.worst * 1.01

    def test_per_bin_bound_dominates_tone_leakage(self):
        """For a single alias tone the per-bin bound is tight-ish."""
        p = params(b=16, s=4, n=4 * 448)
        t = build_tables(p)
        f = SoiFFT(p)
        k = 7
        analysis = alias_analysis(t, bins=np.array([k]))
        alias_freq = (0 * p.m + k + p.m_oversampled) % p.n
        x = np.exp(2j * np.pi * np.arange(p.n) * alias_freq / p.n)
        y = f(x)
        leak = abs(y[k]) / p.n  # true bin is elsewhere; this is pure alias
        assert leak <= analysis.relative_bound[0] * 1.01

    def test_bigger_b_tightens_bounds(self):
        worst = []
        for b in (16, 32, 48):
            t = build_tables(params(b=b))
            worst.append(alias_analysis(t).worst)
        assert worst == sorted(worst, reverse=True)

    def test_band_edges_are_worst(self, tables):
        a = alias_analysis(tables, bins=np.arange(tables.params.m))
        rb = a.relative_bound
        edge = max(rb[0], rb[-1])
        center = rb[len(rb) // 2]
        assert edge > center

    def test_validation(self, tables):
        with pytest.raises(ValueError):
            alias_analysis(tables, bins=np.array([], dtype=np.int64))
        with pytest.raises(ValueError):
            alias_analysis(tables, bins=np.array([tables.params.m]))


class TestBitsPinnedBeforeTheImageSumWasWrittenOnce:
    """``float.hex()`` values printed by the commit whose ``alias_analysis``
    and ``expected_snr_db`` each had their own image loop, one
    ``tone_response`` call per image."""

    def test_predicted_snr_of_the_seven_n896_rungs(self):
        from repro.resilience.ladder import DegradationLadder

        got = {(r.mu_str, r.params.b, r.dtype.name): r.predicted_snr_db.hex()
               for r in DegradationLadder.standard(896)}
        assert got == {
            ("5/4", 48, "complex128"): "0x1.5543ec35d5f79p+7",
            ("8/7", 72, "complex128"): "0x1.39be3183cedfcp+7",
            ("5/4", 32, "complex128"): "0x1.db37ddbc2e580p+6",
            ("5/4", 32, "complex64"): "0x1.db37ddbc2e580p+6",
            ("8/7", 48, "complex128"): "0x1.b781c447a874bp+6",
            ("8/7", 48, "complex64"): "0x1.b781c447a874bp+6",
            ("8/7", 32, "complex128"): "0x1.34241120ada27p+6",
        }

    @pytest.mark.parametrize("dtype,safety,want", [
        (np.complex128, 64.0, (
            "0x1.33c42213ee0c9p-41", "0x1.f572913158d44p-40",
            "0x1.509e8545cc5dcp-30")),
        (np.complex64, 16.0, (
            "0x1.33c42213ee0c9p-14", "0x1.f572913158d44p-40",
            "0x1.509e8545cc5dcp-3")),
    ])
    def test_thresholds_where_the_alias_bound_sets_output_rtol(
            self, dtype, safety, want):
        # mu = 5/4, B = 72: 2 x worst alias bound > 10 x expected stopband
        t = build_tables(params(b=72, n=7168, n_mu=5, d_mu=4))
        th = verification_thresholds(t, dtype=dtype, safety=safety)
        assert th.output_rtol == 2.0 * alias_analysis(t).worst
        # the smallest strike a checksum sees, 2 M' checksum_rtol (M' =
        # 1792), is the one pin not printed by that commit
        assert th.min_detectable_amplitude == (
            2.0 * t.params.m_oversampled * th.checksum_rtol)
        assert (th.checksum_rtol.hex(), th.output_rtol.hex(),
                th.min_detectable_amplitude.hex()) == want
