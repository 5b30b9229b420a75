"""Tests for single-precision SOI (the §8.4 GPU/Cell comparison context)."""

import numpy as np
import pytest

from repro.core.params import SoiParams
from repro.core.soi_single import SoiFFT
from repro.fft.plan import get_plan
from tests.conftest import random_complex


def params(b=48):
    return SoiParams(n=8 * 448, n_procs=1, segments_per_process=8,
                     n_mu=8, d_mu=7, b=b)


class TestComplex64Soi:
    def test_output_dtype(self, rng):
        f = SoiFFT(params(), dtype=np.complex64)
        y = f(random_complex(rng, f.params.n).astype(np.complex64))
        assert y.dtype == np.complex64

    def test_error_matches_double_when_stopband_dominates(self, rng):
        """At B = 48 the window stopband (~5e-6) swamps float32 epsilon:
        single precision costs essentially nothing."""
        p = params(b=48)
        x = random_complex(rng, p.n)
        ref = np.fft.fft(x)
        e64 = np.linalg.norm(SoiFFT(p)(x) - ref) / np.linalg.norm(ref)
        e32 = np.linalg.norm(
            SoiFFT(p, dtype=np.complex64)(x.astype(np.complex64)) - ref
        ) / np.linalg.norm(ref)
        assert e32 == pytest.approx(e64, rel=0.25)

    def test_float32_floor_shows_at_high_b(self, rng):
        """At B = 72 the design stopband (1.6e-8) is below float32 eps:
        single precision becomes the error floor."""
        p = params(b=72)
        x = random_complex(rng, p.n)
        ref = np.fft.fft(x)
        e64 = np.linalg.norm(SoiFFT(p)(x) - ref) / np.linalg.norm(ref)
        e32 = np.linalg.norm(
            SoiFFT(p, dtype=np.complex64)(x.astype(np.complex64)) - ref
        ) / np.linalg.norm(ref)
        assert e64 < 1e-7
        assert e32 > 10 * e64  # float32 floor

    def test_rejects_other_dtypes(self):
        with pytest.raises(ValueError):
            SoiFFT(params(), dtype=np.float32)


class TestPlanDtypeDispatch:
    def test_separate_cache_entries(self):
        p64 = get_plan(64, -1)
        p32 = get_plan(64, -1, dtype=np.complex64)
        assert p64 is not p32
        assert p64 is get_plan(64, -1)

    def test_bluestein_single_precision_rejected(self):
        with pytest.raises(ValueError, match="smooth"):
            get_plan(11, -1, dtype=np.complex64)
