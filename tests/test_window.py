"""Tests for window design and the exact demodulation table."""

import ast
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import window as window_mod
from repro.core.params import SoiParams
from repro.core.window import (
    GaussianSincWindow,
    KaiserSincWindow,
    build_tables,
    get_tables,
    kaiser_attenuation_db,
)
from repro.fft.plan import cache_clear


def params(n=8 * 448, s=8, n_mu=8, d_mu=7, b=48):
    return SoiParams(n=n, n_procs=1, segments_per_process=s,
                     n_mu=n_mu, d_mu=d_mu, b=b)


class TestAttenuationFormula:
    def test_depends_only_on_b_times_mu_excess(self):
        # A = 2.285 * 2 pi * B (mu - 1) + 8, capped
        assert kaiser_attenuation_db(72, 8 / 7) == \
            pytest.approx(2.285 * 2 * np.pi * 72 / 7 + 8)

    def test_cap(self):
        assert kaiser_attenuation_db(720, 1.25) == 300.0

    def test_more_taps_more_attenuation(self):
        assert kaiser_attenuation_db(72, 8 / 7) > kaiser_attenuation_db(48, 8 / 7)

    def test_more_oversampling_more_attenuation(self):
        assert kaiser_attenuation_db(72, 5 / 4) > kaiser_attenuation_db(72, 8 / 7)


class TestKaiserWindow:
    def test_compact_support(self):
        p = params()
        w = KaiserSincWindow(p)
        support = p.b * p.n_segments
        t = np.array([support / 2 + 1.0, -support / 2 - 1.0, support])
        assert np.allclose(w.time_response(t), 0.0)

    def test_peak_near_center(self):
        p = params()
        w = KaiserSincWindow(p)
        t = np.linspace(-100, 100, 201)
        vals = np.abs(w.time_response(t))
        assert vals.argmax() == 100  # t = 0

    def test_expected_stopband_positive_small(self):
        w = KaiserSincWindow(params(b=72))
        assert 0 < w.expected_stopband < 1e-6

    def test_rejects_bad_attenuation(self):
        with pytest.raises(ValueError):
            KaiserSincWindow(params(), attenuation_db=-10)


class TestGaussianWindow:
    def test_compact_support(self):
        p = params()
        w = GaussianSincWindow(p)
        support = p.b * p.n_segments
        assert np.allclose(w.time_response(np.array([support])), 0.0)

    def test_stopband_estimate(self):
        w = GaussianSincWindow(params(b=72))
        assert 0 < w.expected_stopband < 1.0

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            GaussianSincWindow(params(), sigma_factor=0.0)


class TestTables:
    def test_coefficient_table_shape(self):
        p = params()
        t = build_tables(p)
        assert t.coeffs.shape == (p.n_mu, p.b, p.n_segments)
        assert t.distinct_coefficients == p.n_mu * p.b * p.n_segments

    def test_phases_structure(self):
        p = params()
        t = build_tables(p)
        # f_r = frac(r d/n) are distinct multiples of 1/n_mu
        assert len(set(np.round(t.f_r * p.n_mu).astype(int).tolist())) == p.n_mu
        assert np.all(t.q_r == (np.arange(p.n_mu) * p.d_mu) // p.n_mu)

    def test_demod_length_and_condition(self):
        p = params()
        t = build_tables(p)
        assert t.demod.shape == (p.m,)
        assert 1.0 <= t.demod_condition < 10.0  # well-conditioned passband

    def test_demod_is_exact_tone_response(self):
        """demod[k] must equal the full pipeline's response to a unit tone
        divided by N — computed here by brute force through the actual
        convolution + FFTs."""
        from repro.core.soi_single import SoiFFT

        p = params(n=4 * 448, s=4, b=16)
        f = SoiFFT(p)
        for (seg, k) in ((0, 0), (1, 7), (3, p.m - 1), (2, p.m // 2)):
            freq = seg * p.m + k
            x = np.exp(2j * np.pi * np.arange(p.n) * freq / p.n)
            z = f.oversample(x)
            beta = f.segment_spectra(z)
            got = beta[seg, k] / p.n
            assert np.isclose(got, f.tables.demod[k], rtol=1e-10, atol=1e-12)

    def test_gaussian_tables_also_invertible(self):
        p = params()
        t = build_tables(p, GaussianSincWindow(p))
        assert np.all(np.abs(t.demod) > 0)

    def test_window_response_nonvanishing_guard(self):
        # a pathologically narrow window should trip the singularity guard
        p = params()

        class ZeroWindow:
            expected_stopband = 1.0

            def time_response(self, t):
                return np.zeros_like(np.asarray(t, dtype=np.complex128))

        with pytest.raises(ValueError, match="vanishes"):
            build_tables(p, ZeroWindow())


def call_sites(name, sources):
    """The file of every call of the bare *name* in *sources* (a
    ``{file name: source text}`` dict), one entry per call."""
    return sorted(
        fname for fname, src in sources.items()
        for node in ast.walk(ast.parse(src))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == name)


class TestDesignRecords:
    """One record per geometry: built once, shared read-only, dropped by
    ``cache_clear()``; custom windows never enter the cache."""

    def test_a_geometry_is_built_once_and_shared(self, table_builds):
        from repro.core.error_model import verification_thresholds
        from repro.core.soi_single import SoiFFT
        from repro.resilience.ladder import DegradationLadder

        ladder = DegradationLadder.standard(896)
        assert sorted(table_builds, key=repr) == sorted(
            {r.params for r in ladder}, key=repr)  # float32 rungs share
        rung = ladder[0]
        plan = SoiFFT(rung.params, dtype=rung.dtype, verify=True)
        assert plan.tables is get_tables(rung.params)
        assert plan.verifier.thresholds is rung.thresholds \
            is verification_thresholds(plan.tables, dtype=rung.dtype)
        assert len(table_builds) == len({r.params for r in ladder})

    def test_a_racing_duplicate_is_discarded(self, monkeypatch):
        # both threads are inside the builder at once: one of the two
        # records wins, and both callers get it
        both_in = threading.Barrier(2)

        def slow(params, window=None):
            both_in.wait(timeout=30)
            return build_tables(params, window)
        monkeypatch.setattr(window_mod, "build_tables", slow)
        cache_clear()
        got = []
        threads = [threading.Thread(
            target=lambda: got.append(get_tables(params())))
            for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert len(got) == 2 and got[0] is got[1] is get_tables(params())

    def test_a_shared_record_is_read_only(self):
        t = get_tables(params())
        for table in (t.demod, t.coeffs, t.q_r, t.f_r,
                      t.gemm_coeffs(np.complex64)):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0

    def test_cache_clear_drops_records(self, table_builds):
        first = get_tables(params())
        assert get_tables(params()) is first and len(table_builds) == 1
        cache_clear()
        again = get_tables(params())
        assert again is not first and len(table_builds) == 2
        assert np.array_equal(again.demod, first.demod)

    def test_a_custom_window_is_never_cached(self, table_builds):
        p = params()
        a, b = (get_tables(p, KaiserSincWindow(p)) for _ in range(2))
        assert a is not b and len(table_builds) == 2
        assert not window_mod._records
        assert get_tables(p) is get_tables(p) and len(table_builds) == 3

    def test_the_cache_is_bounded(self, table_builds, monkeypatch):
        monkeypatch.setattr(window_mod, "_MAX_RECORDS", 2)
        oldest = get_tables(params(b=16))
        get_tables(params(b=18)), get_tables(params(b=20))
        assert list(window_mod._records) == [params(b=18), params(b=20)]
        assert get_tables(params(b=16)) is not oldest

    def test_one_builder_call_and_one_constructor_site_in_src(self):
        src = Path(repro.__file__).parent
        sources = {str(f.relative_to(src)): f.read_text()
                   for f in src.rglob("*.py")}
        assert call_sites("build_tables", sources) == ["core/window.py"]
        assert call_sites("SoiTables", sources) == ["core/window.py"]
        # the guard sees a second caller
        sources["mutant.py"] = "t = build_tables(p)\n"
        assert call_sites("build_tables", sources) == ["core/window.py",
                                                       "mutant.py"]
