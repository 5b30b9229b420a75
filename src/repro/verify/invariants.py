"""Per-row energies for the ABFT tolerances.

Every check compares a checksum functional against a weighted sum of a
stage's output rows; both round at the Cauchy-Schwarz scale of the dot
product, so each tolerance is a row's energy ``sum |a|^2`` times a
calibrated ``checksum_rtol ** 2``
(:func:`repro.core.error_model.verification_thresholds`).

The energy helper reduces through real/imag views and ``einsum`` so a
verification pass allocates only the reduced result — never an |a|^2
temporary the size of the stage buffer (the checks are meant to fit
the <=10% overhead budget that ``python -m repro verify`` reports
against).
"""

from __future__ import annotations

import numpy as np

__all__ = ["energy_rows"]


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
