"""The degradation-ladder exhibit: measured vs predicted SNR per rung.

The serving layer's accuracy contract rests on one claim: the predicted
SNR annotated on each :class:`~repro.resilience.Rung` (from the exact
alias model, :func:`repro.core.error_model.expected_snr_db`) is a
*conservative* bound on what the rung actually delivers.  This exhibit
measures it — every rung of the standard ladder transforms the same
random input, the output is compared against ``np.fft.fft`` with
:func:`repro.util.validate.spectral_snr`, and the delta must sit within
the acceptance band (measured >= predicted, and within ``TOLERANCE_DB``
of it).  ``python -m repro degrade-sweep`` writes :func:`build`'s table
to ``benchmarks/results/degradation_ladder.txt``.
"""

from __future__ import annotations

import numpy as np

from repro.bench.tables import render_table
from repro.core.soi_single import SoiFFT
from repro.resilience.ladder import DegradationLadder
from repro.util.validate import spectral_snr

__all__ = ["DEFAULT_N", "TOLERANCE_DB", "build", "degrade_sweep_rows"]

#: Default problem size: 8 segments of M = 1344, giving M' in {1536,
#: 1680, 1792} across the candidate oversamplings — all (2,3,5,7)-smooth,
#: so the float32 rungs are legal too.
DEFAULT_N = 8 * 1344

#: Acceptance band (dB): measured SNR must not fall below the prediction,
#: nor exceed it by more than this (a wildly pessimistic model would
#: shed/degrade requests that were actually fine).
TOLERANCE_DB = 3.0


def degrade_sweep_rows(n: int = DEFAULT_N, seed: int = 0) -> list[dict]:
    """One row per ladder rung: geometry, predicted and measured SNR."""
    ladder = DegradationLadder.standard(n)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    reference = np.fft.fft(x)
    rows = []
    for i, rung in enumerate(ladder):
        plan = SoiFFT(rung.params, dtype=rung.dtype)
        y = plan(x.astype(rung.dtype))
        measured = spectral_snr(y.astype(np.complex128), reference)
        rows.append({
            "rung": i,
            "mu": rung.mu_str,
            "b": rung.params.b,
            "dtype": np.dtype(rung.dtype).name,
            "predicted_db": rung.predicted_snr_db,
            "measured_db": measured,
            "delta_db": measured - rung.predicted_snr_db,
        })
    return rows


def build(n: int = DEFAULT_N, seed: int = 0) -> tuple[str, dict]:
    """The ``degrade-sweep`` exhibit: ``(text, {"snr_band": verdict})``,
    the ladder table and the gate judged from the same rows."""
    rows = degrade_sweep_rows(n, seed)
    good = [0.0 <= r["delta_db"] <= TOLERANCE_DB for r in rows]
    text = "\n".join([
        f"Degradation ladder at N = {n} (seed {seed})",
        "",
        "Predicted SNR: exact alias model (per-bin demod-normalized power"
        " sum) minus 5 dB",
        "fine-grid resampling headroom; measured: spectral SNR vs"
        " np.fft.fft on flat random input.",
        f"Acceptance: 0 <= measured - predicted <= {TOLERANCE_DB:.0f} dB.",
        "",
        render_table(
            ["rung", "mu", "B", "dtype", "predicted", "measured", "delta",
             "verdict"],
            [[r["rung"], r["mu"], r["b"], r["dtype"],
              f"{r['predicted_db']:.1f} dB", f"{r['measured_db']:.1f} dB",
              f"{r['delta_db']:+.1f}", "ok" if g else "FAIL"]
             for r, g in zip(rows, good)]),
        "",
        f"worst |delta| = {max(abs(r['delta_db']) for r in rows):.2f} dB",
    ])
    return text, {"snr_band": all(good)}
