"""The accuracy-degradation ladder: cheaper SOI configs, annotated SNR.

The paper's Table 3 is a price list: oversampling mu = n_mu/d_mu and
convolution width B buy accuracy with compute and communication.  A
:class:`DegradationLadder` turns that price list into serving policy —
an ordered sequence of :class:`Rung` configurations from full quality
down to the cheapest acceptable, each annotated with its *predicted*
output SNR from the exact alias model
(:func:`repro.core.error_model.expected_snr_db`).  Under deadline
pressure or an open circuit breaker the serving layer re-plans onto the
cheapest rung that still meets the caller's ``min_snr_db``; the response
carries a :class:`DegradationReport` saying which rung ran and why.

Verification stays consistent across rungs automatically: ABFT
thresholds are always derived from the *rung's own* design record and
dtype (:func:`repro.core.error_model.verification_thresholds`), so a
degraded run is checked against its own accuracy contract, not the
full-quality one (asserted in ``tests/test_resilience.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.error_model import expected_snr_db, verification_thresholds
from repro.core.params import SoiParams
from repro.core.window import get_tables
from repro.fft.bitops import mixed_radix_factors

__all__ = ["DEFAULT_RUNG_CANDIDATES", "DegradationLadder",
           "DegradationReport", "Rung"]

#: (n_mu, d_mu, B, dtype name) candidates, full quality first.  float32
#: lanes are only legal for the single-node planned pipeline with
#: (2,3,5,7)-smooth S and M'; invalid candidates for a given geometry
#: are silently skipped by :meth:`DegradationLadder.standard`.
DEFAULT_RUNG_CANDIDATES = (
    (8, 7, 72, "complex128"),
    (8, 7, 48, "complex128"),
    (5, 4, 48, "complex128"),
    (8, 7, 48, "complex64"),
    (8, 7, 32, "complex128"),
    (5, 4, 32, "complex128"),
    (5, 4, 32, "complex64"),
    (4, 3, 24, "complex128"),
)


@dataclass(frozen=True)
class Rung:
    """One ladder step: an SOI configuration and its predicted accuracy."""

    params: SoiParams
    dtype: np.dtype
    predicted_snr_db: float

    @property
    def mu_str(self) -> str:
        return f"{self.params.n_mu}/{self.params.d_mu}"

    @property
    def thresholds(self):
        """ABFT thresholds for *this* rung's design record and dtype:
        verification follows the accuracy actually requested."""
        return verification_thresholds(get_tables(self.params),
                                       dtype=self.dtype)

    def describe(self) -> str:
        return (f"mu={self.mu_str} B={self.params.b} "
                f"{np.dtype(self.dtype).name} "
                f"pred {self.predicted_snr_db:.1f} dB")


@dataclass(frozen=True)
class DegradationReport:
    """Which rung served a request, and why."""

    rung_index: int
    rung: Rung
    reason: str  # "full quality" | "deadline pressure" | "open breaker" | ...
    attempts: int = 1
    min_snr_db: float = 0.0

    @property
    def degraded(self) -> bool:
        return self.rung_index > 0 or self.attempts > 1 \
            or self.reason not in ("full quality",)

    def describe(self) -> str:
        return (f"rung {self.rung_index} ({self.rung.describe()}), "
                f"reason: {self.reason}, attempts: {self.attempts}")


class DegradationLadder:
    """Ordered rungs, most accurate first (descending predicted SNR)."""

    def __init__(self, rungs: list[Rung]):
        if not rungs:
            raise ValueError("a ladder needs at least one rung")
        self.rungs = sorted(rungs, key=lambda r: -r.predicted_snr_db)

    def __len__(self) -> int:
        return len(self.rungs)

    def __iter__(self):
        return iter(self.rungs)

    def __getitem__(self, i: int) -> Rung:
        return self.rungs[i]

    def viable(self, min_snr_db: float) -> list[tuple[int, Rung]]:
        """(index, rung) pairs meeting *min_snr_db*, best first."""
        return [(i, r) for i, r in enumerate(self.rungs)
                if r.predicted_snr_db >= min_snr_db]

    def cheapest_viable(self, min_snr_db: float) -> tuple[int, Rung] | None:
        """The last (cheapest) rung still meeting *min_snr_db*."""
        v = self.viable(min_snr_db)
        return v[-1] if v else None

    def table(self) -> str:
        """The rung table (rung -> mu, B, dtype, predicted SNR)."""
        lines = ["rung  mu    B   dtype       predicted SNR",
                 "----  ----  --  ----------  -------------"]
        for i, r in enumerate(self.rungs):
            lines.append(f"{i:>4d}  {r.mu_str:<4s}  {r.params.b:>2d}  "
                         f"{np.dtype(r.dtype).name:<10s}  "
                         f"{r.predicted_snr_db:>9.1f} dB")
        return "\n".join(lines)

    @classmethod
    def standard(cls, n: int, *, n_procs: int = 1,
                 segments_per_process: int = 8,
                 candidates=DEFAULT_RUNG_CANDIDATES) -> "DegradationLadder":
        """Build the ladder valid for one problem geometry.

        Candidates violating the SOI parameter rules for this (n,
        n_procs, segments_per_process) — divisibility, ghost-halo fit,
        float32 smoothness — are skipped, as are float32 rungs when
        ``n_procs > 1`` (the distributed pipelines run in complex128).
        Each surviving rung is annotated with
        :func:`~repro.core.error_model.expected_snr_db` of its record.
        """
        rungs: list[Rung] = []
        seen: set[tuple] = set()
        for n_mu, d_mu, b, dtname in candidates:
            dt = np.dtype(dtname)
            key = (n_mu, d_mu, b, dt)
            if key in seen:
                continue
            seen.add(key)
            try:
                p = SoiParams(n=n, n_procs=n_procs,
                              segments_per_process=segments_per_process,
                              n_mu=n_mu, d_mu=d_mu, b=b)
            except ValueError:
                continue
            if not p.ghost_fits():
                continue
            if dt == np.dtype(np.complex64) and (
                    n_procs > 1
                    or mixed_radix_factors(p.n_segments) is None
                    or mixed_radix_factors(p.m_oversampled) is None):
                continue
            rungs.append(Rung(params=p, dtype=dt,
                              predicted_snr_db=expected_snr_db(get_tables(p))))
        return cls(rungs)
