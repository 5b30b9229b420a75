"""Tests for the exact alias/error analysis."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import error_model
from repro.core.error_model import (
    _response,
    alias_analysis,
    expected_snr_db,
    tone_response,
    verification_thresholds,
)
from repro.core.params import SoiParams
from repro.core.soi_single import SoiFFT
from repro.core.window import build_tables, get_tables
from repro.resilience.ladder import DegradationLadder


def params(b=48, s=8, n=8 * 448, n_mu=8, d_mu=7):
    return SoiParams(n=n, n_procs=1, segments_per_process=s,
                     n_mu=n_mu, d_mu=d_mu, b=b)


def per_row_tone_response(tables, frequencies):
    """The reference: ``tone_response`` as it was before the taps were
    folded, ``R(nu) = (M'/(n_mu N)) sum_r e^{-2 pi i r nu / M'} e^{2 pi i
    nu (q_r - B/2 + 1) S / N} G_r(nu)``, a row of the last axis at a time
    with one GEMV per phase r."""
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


def long_double_response(tables, bins):
    """R at integer *bins* (a 2-D array) as a ``np.longdouble`` sum over
    every one of the n_mu*B*S taps, unfolded, a row at a time: tap
    ``w[r, b, l]`` at ``n_mu tau = n_mu S(b + 1 - B/2) + n_mu l - S
    (r d_mu mod n_mu)``, each phase reduced modulo ``n_mu N`` in integers."""
    p = tables.params
    s, b_width, n_mu = p.n_segments, p.b, p.n_mu
    frac = np.arange(n_mu) * p.d_mu % n_mu
    u = (n_mu * s * (np.arange(b_width)[:, None] + 1 - b_width // 2)
         + n_mu * np.arange(s) - s * frac[:, None, None]).reshape(-1)
    period = n_mu * p.n
    two_pi = np.longdouble("6.28318530717958647692528676655900577")
    w = tables.coeffs.reshape(-1)
    w_re, w_im = w.real.astype(np.longdouble), w.imag.astype(np.longdouble)
    scale = np.longdouble(p.m_oversampled) / (n_mu * np.longdouble(p.n))
    out = np.empty(np.shape(bins), dtype=np.complex128)
    for i, row in enumerate(np.asarray(bins, dtype=np.int64)):
        phase = (np.multiply.outer(row, u) % period).astype(np.longdouble) \
            * (two_pi / period)
        cos, sin = np.cos(phase), np.sin(phase)
        out[i].real = ((cos * w_re - sin * w_im).sum(axis=-1) * scale)
        out[i].imag = ((cos * w_im + sin * w_re).sum(axis=-1) * scale)
    return out


def image_grid(tables):
    """``(images, bins)`` of the grid the SNR annotation evaluates: every
    alias image l*M' inside one period, l = 0 among them, by 129 bins."""
    p = tables.params
    n_aliases = max(1, p.n // p.m_oversampled // 2)
    bins = np.unique(np.linspace(0, p.m - 1, min(p.m, 129)).astype(np.int64))
    return np.arange(-n_aliases, n_aliases + 1) * p.m_oversampled, bins


#: every rung of the n = 896 ladder, float32 rungs sharing their record
RUNGS = DegradationLadder.standard(896).rungs
GEOMETRIES = {
    "mu=8/7,S=8 (c=1)": params(),
    "mu=5/4,S=8 (c=5)": params(b=72, n=7168, n_mu=5, d_mu=4),
    "mu=4/3,B=24": params(b=24, n=2688, n_mu=4, d_mu=3),
    "Bluestein node (M'=88)": params(b=16, n=8 * 77),
    **{f"n=896 rung {i} ({r.mu_str}, B={r.params.b}, {r.dtype.name})":
       r.params for i, r in enumerate(RUNGS)},
}


def unshifted_fold(tables):
    """Mutant: the taps folded as if every S*f_r shift were 0."""
    unshifted = replace(tables, f_r=np.zeros_like(tables.f_r))
    _response(unshifted, [0], [0])
    return unshifted.derived("folded taps", None)


def total_less_own(tables, bins, count, square):
    """Mutant: the alias sum as every image's sum, the own term included,
    less the own term."""
    images, _ = image_grid(tables)
    mag = np.abs(_response(tables, images, bins)) ** (2 if square else 1)
    own = mag[images.size // 2]
    return bins, own, mag.sum(axis=0) - own


def check_grid_matches_per_row(tables):
    images, bins = image_grid(tables)
    want = per_row_tone_response(tables, bins + images[:, None])
    scale = np.abs(want).max()
    for got in (_response(tables, images, bins),
                tone_response(tables, bins + images[:, None])):
        assert np.abs(got - want).max() <= 1e-13 * scale


def check_snr_matches_long_double(tables):
    images, bins = image_grid(tables)
    power = np.abs(long_double_response(tables, bins + images[:, None])) ** 2
    own = power[images.size // 2]
    alias = np.delete(power, images.size // 2, axis=0).sum(axis=0)
    want = -10.0 * np.log10(np.mean(alias / own)) \
        - error_model.SNR_MODEL_HEADROOM_DB
    assert abs(expected_snr_db(tables, bins) - want) <= 1e-7


@pytest.fixture(scope="module")
def tables():
    return build_tables(params())


class TestToneResponse:
    def test_integer_bins_match_demod(self, tables):
        m = tables.params.m
        r = tone_response(tables, np.arange(m, dtype=float))
        scale = np.abs(tables.demod).max()
        assert np.abs(r - tables.demod).max() <= 1e-13 * scale

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


class TestFoldedTaps:
    """The images-by-bins evaluator against the per-row closed form it
    replaced and against a long-double direct sum, with a mutant of the
    fold and of the image sum that must each turn a check red."""

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_the_image_grid_matches_the_per_row_form(self, geometry):
        check_grid_matches_per_row(get_tables(GEOMETRIES[geometry]))

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_both_forms_against_a_long_double_sum(self, geometry):
        t = get_tables(GEOMETRIES[geometry])
        p = t.params
        images, _ = image_grid(t)
        bins = np.array([0, 1, p.m // 2, p.m - 1]) + images[:, None]
        want = long_double_response(t, bins)
        scale = np.abs(want).max()
        assert np.abs(tone_response(t, bins) - want).max() <= 1e-14 * scale
        assert np.abs(per_row_tone_response(t, bins) - want).max() \
            <= 1e-13 * scale

    @pytest.mark.parametrize("rung", range(len(RUNGS)))
    def test_predicted_snr_matches_a_long_double_sum(self, rung):
        check_snr_matches_long_double(get_tables(RUNGS[rung].params))

    def test_mutant_fold_without_the_phase_shift(self):
        t = build_tables(params())  # a record of its own to seed
        t.derived("folded taps", lambda: unshifted_fold(t))
        with pytest.raises(AssertionError):
            check_grid_matches_per_row(t)

    def test_mutant_image_sum_as_total_less_own(self, monkeypatch):
        monkeypatch.setattr(error_model, "_image_sums", total_less_own)
        with pytest.raises(AssertionError):
            check_snr_matches_long_double(get_tables(RUNGS[0].params))


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
    """``float.hex()`` values printed by the folded-tap evaluator, one
    images-by-bins grid per record.  They were first pinned from the commit
    whose ``alias_analysis`` and ``expected_snr_db`` each had their own
    image loop.  The per-row closed form both it and its successor used
    carried 2-3e-14 of max|R| rounding: its SNRs sat up to 1.6e-7 dB and
    its ``output_rtol`` 0.18 % off a long-double direct sum, where the
    folded form's sit within 2.1e-8 dB and 0.02 %."""

    def test_predicted_snr_of_the_seven_n896_rungs(self):
        from repro.resilience.ladder import DegradationLadder

        got = {(r.mu_str, r.params.b, r.dtype.name): r.predicted_snr_db.hex()
               for r in DegradationLadder.standard(896)}
        assert got == {
            ("5/4", 48, "complex128"): "0x1.5543ec31326d2p+7",
            ("8/7", 72, "complex128"): "0x1.39be317e558e9p+7",
            ("5/4", 32, "complex128"): "0x1.db37ddbc3fffap+6",
            ("5/4", 32, "complex64"): "0x1.db37ddbc3fffap+6",
            ("8/7", 48, "complex128"): "0x1.b781c447a249fp+6",
            ("8/7", 48, "complex64"): "0x1.b781c447a249fp+6",
            ("8/7", 32, "complex128"): "0x1.34241120ada67p+6",
        }

    @pytest.mark.parametrize("dtype,safety,want", [
        (np.complex128, 64.0, (
            "0x1.33c42213ee0c9p-41", "0x1.f66f769efb72dp-40",
            "0x1.509e8545cc5dcp-30")),
        (np.complex64, 16.0, (
            "0x1.33c42213ee0c9p-14", "0x1.f66f769efb72dp-40",
            "0x1.509e8545cc5dcp-3")),
    ])
    def test_thresholds_where_the_alias_bound_sets_output_rtol(
            self, dtype, safety, want):
        # mu = 5/4, B = 72: 2 x worst alias bound > 10 x expected stopband
        t = build_tables(params(b=72, n=7168, n_mu=5, d_mu=4))
        th = verification_thresholds(t, dtype=dtype, safety=safety)
        assert th.output_rtol == 2.0 * alias_analysis(t).worst
        # the smallest strike a checksum sees, 2 M' checksum_rtol (M' =
        # 1792), is the one pin the image-loop commit did not print
        assert th.min_detectable_amplitude == (
            2.0 * t.params.m_oversampled * th.checksum_rtol)
        assert (th.checksum_rtol.hex(), th.output_rtol.hex(),
                th.min_detectable_amplitude.hex()) == want
