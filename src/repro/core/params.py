"""SOI FFT problem parameters (paper Table 1) and their validity rules.

Notation (all from Table 1 of the paper):

================  ==========================================================
``N``             number of input elements (global)
``P``             number of compute nodes (MPI processes)
``S``             number of *segments* = P x segments_per_process; the
                  paper writes "P" for this when there is one segment per
                  process, but §6.1 uses 8 or 2 segments per process
``M = N/S``       input elements per segment
``mu = n/d``      oversampling factor (typically <= 5/4; Table 3 uses 8/7)
``M' = mu M``     oversampled segment length (the local FFT size)
``N' = mu N``     total oversampled length
``B``             convolution width (typical value 72)
================  ==========================================================

Divisibility requirements (why the paper's "~2^27 per node" sizes carry a
factor of d_mu): M' = M n/d must be an integer FFT length, the chunked
convolution shifts by d*S inputs per n outputs, and each process must own
an integral number of segments and convolution rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

__all__ = ["SoiParams", "DEFAULT_B"]

#: Paper §2/Table 1: "the convolution width with typical value 72".
DEFAULT_B = 72


@dataclass(frozen=True)
class SoiParams:
    """Validated parameter set for one SOI FFT problem."""

    n: int  # N, global input length
    n_procs: int = 1  # P
    segments_per_process: int = 1
    n_mu: int = 8
    d_mu: int = 7
    b: int = DEFAULT_B  # convolution width B

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.n_procs < 1:
            raise ValueError("n_procs must be positive")
        if self.segments_per_process < 1:
            raise ValueError("segments_per_process must be positive")
        if self.n_mu <= self.d_mu or self.d_mu < 1:
            raise ValueError("need oversampling mu = n_mu/d_mu > 1")
        if gcd(self.n_mu, self.d_mu) != 1:
            raise ValueError("n_mu/d_mu must be in lowest terms")
        if self.b < 4 or self.b % 2:
            raise ValueError("convolution width b must be an even integer >= 4")
        s = self.n_segments
        if self.n % s:
            raise ValueError(f"segments ({s}) must divide n ({self.n})")
        m = self.n // s
        if m % self.d_mu:
            raise ValueError(
                f"d_mu ({self.d_mu}) must divide the segment length M={m} "
                f"so that M' = mu*M is an integer (pick n with a factor "
                f"{self.d_mu}, e.g. the paper's ~2^27 sizes carry a 7)")
        if self.m_oversampled % self.n_procs:
            raise ValueError("each process must own an integral number of "
                             "convolution output rows (P must divide M')")
        if (self.m_oversampled // self.n_procs) % self.n_mu:
            raise ValueError("a process's row count M'/P must be a multiple "
                             "of n_mu (whole convolution chunks per process)")
        if self.b * s >= self.n:
            raise ValueError(f"window support B*S = {self.b * s} must be "
                             f"smaller than n = {self.n}")

    # -- derived quantities (Table 1) -------------------------------------

    @cached_property
    def n_segments(self) -> int:
        """S: total segments across the cluster."""
        return self.n_procs * self.segments_per_process

    @cached_property
    def m(self) -> int:
        """M: input elements per segment."""
        return self.n // self.n_segments

    @property
    def mu(self) -> float:
        """Oversampling factor mu = n_mu / d_mu."""
        return self.n_mu / self.d_mu

    @cached_property
    def m_oversampled(self) -> int:
        """M' = mu * M: local FFT length per segment."""
        return self.m * self.n_mu // self.d_mu

    @property
    def n_oversampled(self) -> int:
        """N' = mu * N: total oversampled length."""
        return self.m_oversampled * self.n_segments

    @property
    def rows_per_process(self) -> int:
        """Convolution output rows (j indices) each process computes.

        There are M' rows globally (each row holds S lanes, so the total
        oversampled volume is M'*S = N' elements).
        """
        return self.m_oversampled // self.n_procs

    @property
    def elements_per_process(self) -> int:
        """Input elements per process (the paper's per-node M when S = P)."""
        return self.n // self.n_procs

    @property
    def ghost_blocks(self) -> tuple[int, int]:
        """(left, right) ghost *blocks* of S elements needed by each process.

        The convolution window for row j spans input blocks
        [q_j - B/2 + 1, q_j + B/2]; at a process boundary this reaches
        B/2 - 1 blocks into the left neighbor and B/2 into the right.
        """
        return self.b // 2 - 1, self.b // 2

    def ghost_fits(self, chunk_blocks: int | None = None) -> bool:
        """Whether the ghost halo fits a rank's chunk of *chunk_blocks*
        input blocks (default: the even split's N/(S*P))."""
        if chunk_blocks is None:
            chunk_blocks = self.elements_per_process // self.n_segments
        return max(self.ghost_blocks) <= chunk_blocks

    @property
    def ghost_bytes(self) -> int:
        """Bytes of ghost halo exchanged per process per side (complex128)."""
        left, right = self.ghost_blocks
        return max(left, right) * self.n_segments * 16

    # -- operation counts (paper §4) ---------------------------------------

    @property
    def conv_flops(self) -> float:
        """8*B*mu*N: flops of convolution-and-oversampling (§5.3)."""
        return 8.0 * self.b * self.mu * self.n

    @property
    def local_fft_flops(self) -> float:
        """Total flops of all length-M' segment FFTs (5 n log2 n each)."""
        import numpy as np

        mp = self.m_oversampled
        return self.n_segments * 5.0 * mp * float(np.log2(mp))

    @property
    def lane_fft_flops(self) -> float:
        """Total flops of the length-S FFTs inside convolution (I_{M'} x F_S)."""
        import numpy as np

        s = self.n_segments
        if s < 2:
            return 0.0
        return self.m_oversampled * s * 5.0 * float(np.log2(s))

    @property
    def alltoall_bytes_per_pair(self) -> int:
        """Wire bytes between one (src, dst) process pair in the all-to-all."""
        rows = self.rows_per_process
        return rows * self.segments_per_process * 16

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (f"SOI(N={self.n}, P={self.n_procs}, "
                f"S={self.n_segments}, mu={self.n_mu}/{self.d_mu}, "
                f"B={self.b}, M={self.m}, M'={self.m_oversampled})")
