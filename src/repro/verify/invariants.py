"""O(n) energy invariants for FFT stage boundaries.

An unscaled forward DFT satisfies Parseval's identity per row:
``sum|Y|^2 = n * sum|y|^2``.  Floating point keeps the relative gap at
~``eps*log2(n)``; a single corrupted element of typical magnitude moves
it by ~``1/n`` — eleven orders of magnitude of headroom at double
precision.  Because the identity holds *per row*, a failed check names
the corrupt segment, which is what turns detection into cheap repair
(:mod:`repro.verify.selfcheck`).

The energy helpers reduce through real/imag views and ``einsum`` so a
verification pass allocates only the reduced result — never an |a|^2
temporary the size of the stage buffer (the checks are meant to fit
the <=10% overhead budget that ``python -m repro verify`` reports
against).
"""

from __future__ import annotations

import numpy as np

__all__ = ["energy_rows", "parseval_check"]


def energy_rows(a: np.ndarray) -> np.ndarray:
    """``sum |a|^2`` over the last axis, no full-size temporaries."""
    if np.iscomplexobj(a):
        if a.flags.c_contiguous:
            # |re|^2 + |im|^2 over the interleaved float view: one
            # contiguous (SIMD-friendly) pass instead of two strided ones
            v = a.view(a.real.dtype)
            return np.einsum("...m,...m->...", v, v)
        ar, ai = a.real, a.imag
        return (np.einsum("...m,...m->...", ar, ar)
                + np.einsum("...m,...m->...", ai, ai))
    return np.einsum("...m,...m->...", a, a)


def parseval_check(e_in: np.ndarray, e_out: np.ndarray, n: int,
                   rtol: float) -> np.ndarray:
    """Boolean mask of rows whose energies violate ``e_out = n * e_in``.

    ``e_in``/``e_out`` are precomputed per-row energies (so callers can
    reuse one energy pass across several invariants); *n* is the
    transform length, *rtol* the calibrated tolerance
    (:func:`repro.core.error_model.verification_thresholds`).
    """
    scale = n * e_in
    return np.abs(e_out - scale) > rtol * (scale + np.finfo(np.float64).tiny)
