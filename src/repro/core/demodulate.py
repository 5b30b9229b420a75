"""The back of the pipeline: segment FFT, projection and demodulation.

After the per-segment length-M' FFT, the top M bins are kept (projection
P^{M',M}_roj) and divided by the window's exact tone response (the
diagonal W^{-1}): ``y[s*M + k] = beta_s[k] / demod[k]``.

:func:`back` is the one kernel every host runs for steps 4-5: the
segment plan leaves each spectrum where its last pass wrote it and the
division reads it there.  Two forms of the division are provided: the
standalone pass (3 memory sweeps — what the paper pays on Xeon where
MKL's FFT cannot be modified) and a fused diagonal for
:func:`repro.fft.sixstep.sixstep_fft`, which folds the multiply into the
FFT's last pass (§5.2.4, saving two sweeps).
"""

from __future__ import annotations

import numpy as np

from repro.core.window import SoiTables, _read_only
from repro.machine.memory import SweepLedger

__all__ = ["back", "demodulate", "fused_demod_diagonal", "demod_ledger"]


def demodulate(beta: np.ndarray, tables: SoiTables,
               out: np.ndarray | None = None) -> np.ndarray:
    """Project a length-M' spectrum (or batch) to its M segment bins.

    *beta* has shape (..., M'); the result has shape (..., M) with
    ``out[..., k] = beta[..., k] / demod[k]``.  ``out=`` writes into a
    caller-owned array of that shape (no allocation).
    """
    p = tables.params
    arr = np.asarray(beta)
    dtype = np.complex64 if arr.dtype == np.complex64 else np.complex128
    beta = np.asarray(arr, dtype=dtype)
    if beta.shape[-1] != p.m_oversampled:
        raise ValueError(
            f"expected last axis M' = {p.m_oversampled}, got {beta.shape[-1]}")
    if out is not None and out.shape != beta.shape[:-1] + (p.m,):
        raise ValueError(f"out must have shape {beta.shape[:-1] + (p.m,)}")
    demod = tables.derived(("demod", np.dtype(dtype).str), lambda: _read_only(
        tables.demod.astype(dtype, copy=False)))
    return np.divide(beta[..., : p.m], demod, out=out)


def back(alpha: np.ndarray, tables: SoiTables, plan,
         out: np.ndarray | None = None, *, lend: bool,
         fft=None) -> np.ndarray:
    """Steps 4-5 of segment-major *alpha*, ``(..., k, M')``: the segment
    FFT by *plan*, then :func:`demodulate` of the spectra where the plan
    left them (``plan.pooled``) into ``(..., k, M)`` rows.  With *lend*
    the FFT works in *alpha*, which holds garbage afterwards.

    *fft*, if given, is that segment FFT planned once,
    ``plan.bind(alpha, overwrite_x=lend, ...)``: the same passes over the
    same buffers, their views bound — how a planned call
    (:class:`repro.core.soi_single.SoiFFT`) runs its back over its own
    ``alpha``; a caller whose *alpha* is fresh each call (a rank's) lets
    the plan bind per call."""
    spec = plan.pooled(alpha, overwrite_x=lend) if fft is None else fft()
    return demodulate(spec, tables, out=out)


def fused_demod_diagonal(tables: SoiTables) -> np.ndarray:
    """Length-M' diagonal for the fused 6-step path.

    Entries [0, M) hold 1/demod; the discarded oversampling excess
    [M, M') is zeroed — those bins are projected away regardless, and
    zeroing keeps the fused output directly sliceable.
    """
    p = tables.params
    diag = np.zeros(p.m_oversampled, dtype=np.complex128)
    diag[: p.m] = 1.0 / tables.demod
    return diag


def demod_ledger(tables: SoiTables, fused: bool) -> SweepLedger:
    """Memory sweeps of demodulation (per segment).

    Standalone: read spectrum + read constants + write result (the etc.
    cost visible on Xeon in Fig 9).  Fused: only the constants load — the
    data passes ride inside the FFT's final sweep.
    """
    p = tables.params
    led = SweepLedger()
    if fused:
        led.load("demod constants (fused)", p.m)
    else:
        led.load("demod input", p.m_oversampled)
        led.load("demod constants", p.m)
        led.store("demod output", p.m, non_temporal=True)
    return led
