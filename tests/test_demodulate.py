"""Tests for projection + demodulation."""

import numpy as np
import pytest

from repro.core.demodulate import demod_ledger, demodulate, fused_demod_diagonal
from repro.core.params import SoiParams
from repro.core.window import build_tables, get_tables
from tests.conftest import random_complex
from tests.test_zero_alloc import peak_new_bytes


@pytest.fixture(scope="module")
def tables():
    p = SoiParams(n=4 * 448, n_procs=1, segments_per_process=4,
                  n_mu=8, d_mu=7, b=16)
    return build_tables(p)


class TestDemodulate:
    def test_projects_to_m(self, rng, tables):
        p = tables.params
        beta = random_complex(rng, p.m_oversampled)
        out = demodulate(beta, tables)
        assert out.shape == (p.m,)
        assert np.allclose(out, beta[: p.m] / tables.demod)

    def test_batched(self, rng, tables):
        p = tables.params
        beta = random_complex(rng, 3, p.m_oversampled)
        out = demodulate(beta, tables)
        assert out.shape == (3, p.m)
        assert np.allclose(out[1], demodulate(beta[1], tables))

    def test_rejects_wrong_length(self, rng, tables):
        with pytest.raises(ValueError):
            demodulate(random_complex(rng, 10), tables)


def per_call_cast(beta, tables, out=None):
    """Mutant: the table cast to the spectra's dtype on every call."""
    return np.divide(beta[..., : tables.params.m],
                     tables.demod.astype(beta.dtype, copy=False), out=out)


class TestPerDtypeTable:
    """The table is cast once per dtype and shared read-only: a complex64
    call at n = 458752 (8 spectra of M' = 65536) allocates no M-sized cast
    (the per-call cast took 460 KB), and gives the per-call cast's bits."""

    @pytest.fixture(scope="class")
    def spectra(self):
        p = SoiParams(n=458752, n_procs=1, segments_per_process=8,
                      n_mu=8, d_mu=7, b=48)
        rng = np.random.default_rng(2013)
        beta = random_complex(rng, 8, p.m_oversampled).astype(np.complex64)
        return get_tables(p), beta, np.empty((8, p.m), dtype=np.complex64)

    @pytest.mark.parametrize("kernel, small", [(demodulate, True),
                                               (per_call_cast, False)])
    def test_a_complex64_call_allocates_no_table(self, spectra, kernel,
                                                 small):
        tables, beta, out = spectra
        peak = peak_new_bytes(lambda: kernel(beta, tables, out=out))
        assert (peak < 64 << 10) == small

    def test_one_read_only_table_per_dtype(self, spectra):
        tables, beta, out = spectra
        demodulate(beta, tables, out=out)
        assert np.array_equal(out, per_call_cast(beta, tables))
        cast = tables.derived(("demod", "<c8"), None)
        assert cast.dtype == np.complex64 and not cast.flags.writeable
        demodulate(beta.astype(np.complex128), tables)
        assert tables.derived(("demod", "<c16"), None) is tables.demod


class TestFusedDiagonal:
    def test_structure(self, tables):
        p = tables.params
        d = fused_demod_diagonal(tables)
        assert d.shape == (p.m_oversampled,)
        assert np.allclose(d[: p.m] * tables.demod, 1.0)
        assert np.all(d[p.m:] == 0.0)

    def test_equivalent_to_demodulate(self, rng, tables):
        p = tables.params
        beta = random_complex(rng, p.m_oversampled)
        fused = (beta * fused_demod_diagonal(tables))[: p.m]
        assert np.allclose(fused, demodulate(beta, tables))


class TestLedger:
    def test_fused_saves_two_sweeps(self, tables):
        p = tables.params
        separate = demod_ledger(tables, fused=False)
        fused = demod_ledger(tables, fused=True)
        # §5.2.4: "As a separate stage, this requires 3 memory sweeps ...
        # We save two of the sweeps by fusing"
        assert separate.sweep_count(p.m) > fused.sweep_count(p.m)
        assert len(separate.records) == 3
        assert len(fused.records) == 1
