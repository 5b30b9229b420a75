"""Heterogeneous distributed SOI FFT: mixed Xeon / Xeon Phi clusters.

§6.1 sketches hybrid clusters where segment counts balance unequal node
speeds; §7 calls the evaluation of hybrid mode future work.  This module
implements it: each rank owns a number of segments proportional to its
weight, and with it a proportional share of the input, the convolution
rows, and the output — so the per-rank compute time equalizes while the
collective structure (ghost exchange + one all-to-all) is unchanged.

Constraints: per-rank convolution rows must be whole chunks (multiples of
n_mu), which the constructor enforces by rounding the row split to chunk
boundaries; the segment split is arbitrary positive integers summing to S.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.simcluster import SimCluster
from repro.core.convolution import ConvWorkspace, convolve
from repro.core.demodulate import demodulate
from repro.core.params import SoiParams
from repro.core.soi_dist import DEFAULT_CONV_EFFICIENCY, DEFAULT_FFT_EFFICIENCY
from repro.core.window import SoiTables, build_tables
from repro.fft.plan import get_plan

__all__ = ["HeterogeneousSoiFFT"]


class HeterogeneousSoiFFT:
    """Distributed SOI with per-rank segment ownership.

    Parameters
    ----------
    cluster:
        A :class:`SimCluster`, typically built with a per-rank
        ``machines`` list (Xeons and Phis mixed).
    n, n_mu, d_mu, b:
        Problem geometry; the total segment count is ``sum(seg_counts)``.
    seg_counts:
        Segments owned by each rank (e.g. from
        :func:`repro.core.segments.segments_for_machines`).
    """

    def __init__(self, cluster: SimCluster, n: int, seg_counts: list[int],
                 *, n_mu: int = 8, d_mu: int = 7, b: int = 72, window=None,
                 fft_efficiency: float = DEFAULT_FFT_EFFICIENCY,
                 conv_efficiency: float = DEFAULT_CONV_EFFICIENCY):
        p = cluster.n_ranks
        if len(seg_counts) != p:
            raise ValueError("need one segment count per rank")
        if any(c < 1 for c in seg_counts):
            raise ValueError("every rank needs at least one segment")
        s = sum(seg_counts)
        # global geometry: validate via a single-process SoiParams
        self.params = SoiParams(n=n, n_procs=1, segments_per_process=s,
                                n_mu=n_mu, d_mu=d_mu, b=b)
        self.cluster = cluster
        self.seg_counts = list(seg_counts)
        self.fft_efficiency = fft_efficiency
        self.conv_efficiency = conv_efficiency
        self.tables: SoiTables = build_tables(self.params, window)
        self._lane_plan = get_plan(s, -1) if s > 1 else None
        self._seg_plan = get_plan(self.params.m_oversampled, -1)
        self._conv_ws = ConvWorkspace()

        # row split proportional to seg_counts, rounded to whole chunks
        mp = self.params.m_oversampled
        chunks_total = mp // n_mu
        weights = np.asarray(seg_counts, dtype=np.float64)
        raw = np.floor(np.cumsum(weights) / weights.sum() * chunks_total)
        bounds = np.concatenate([[0], raw]).astype(np.int64)
        bounds[-1] = chunks_total
        self.row_bounds = bounds * n_mu  # row index boundaries, len p+1
        if np.any(np.diff(self.row_bounds) <= 0):
            raise ValueError("row split degenerates: some rank gets no "
                             "convolution chunks; reduce rank count or "
                             "increase N")
        # input block boundaries implied by the row split
        self.block_bounds = (self.row_bounds // n_mu) * d_mu  # len p+1
        left_g, right_g = self.params.ghost_blocks
        chunk_blocks = np.diff(self.block_bounds)
        if p > 1 and max(left_g, right_g) > int(chunk_blocks.min()):
            raise ValueError("ghost halo exceeds the smallest rank chunk")
        self.seg_bounds = np.concatenate(
            [[0], np.cumsum(seg_counts)]).astype(np.int64)

    # -- data layout -----------------------------------------------------

    def scatter(self, x: np.ndarray) -> list[np.ndarray]:
        """Split the input proportionally to each rank's row share."""
        p = self.params
        x = np.asarray(x, dtype=np.complex128)
        if x.shape != (p.n,):
            raise ValueError(f"expected shape ({p.n},)")
        s = p.n_segments
        return [x[self.block_bounds[r] * s:self.block_bounds[r + 1] * s].copy()
                for r in range(self.cluster.n_ranks)]

    def assemble(self, parts: list[np.ndarray]) -> np.ndarray:
        """Concatenate per-rank outputs (segment-major, already ordered)."""
        return np.concatenate(parts)

    # -- the algorithm ------------------------------------------------------

    def __call__(self, x_parts: list[np.ndarray]) -> list[np.ndarray]:
        p = self.params
        cl = self.cluster
        n_ranks = cl.n_ranks
        s = p.n_segments
        n_mu = p.n_mu
        left_g, right_g = p.ghost_blocks
        if len(x_parts) != n_ranks:
            raise ValueError(f"expected {n_ranks} parts")
        x_parts = [np.asarray(a, dtype=np.complex128) for a in x_parts]

        # ghost exchange (ragged chunk sizes are fine on the ring)
        if n_ranks > 1:
            to_left = [part[: right_g * s] for part in x_parts]
            to_right = [part[part.size - left_g * s:] for part in x_parts]
            from_left, from_right = cl.comm.ring_exchange(
                to_left, to_right, label="ghost exchange")
            x_ext = [np.concatenate([from_left[r], x_parts[r], from_right[r]])
                     for r in range(n_ranks)]
        else:
            part = x_parts[0]
            x_ext = [np.concatenate([part[part.size - left_g * s:], part,
                                     part[: right_g * s]])]

        # convolution + lane FFTs, charged per rank machine and share
        z_parts = []
        for r in range(n_ranks):
            j0, j1 = int(self.row_bounds[r]), int(self.row_bounds[r + 1])
            u = convolve(x_ext[r], self.tables, j0, j1 - j0,
                         int(self.block_bounds[r]) - left_g,
                         workspace=self._conv_ws)
            z = self._lane_plan(u) if self._lane_plan is not None else u
            z_parts.append(z)
            share = (j1 - j0) / p.m_oversampled
            machine = cl.machine_of(r)
            flops = (p.conv_flops + p.lane_fft_flops) * share
            cl.charge_seconds(r, "convolution",
                              machine.flop_time(flops, self.conv_efficiency))

        # one all-to-all: rows of each destination's segment group
        send = [[np.ascontiguousarray(
            z_parts[src][:, self.seg_bounds[d]:self.seg_bounds[d + 1]])
            for d in range(n_ranks)] for src in range(n_ranks)]
        recv = cl.comm.alltoall(send, label="all-to-all")

        # per owned segment: M'-point FFT + demodulation
        y_parts = []
        for d in range(n_ranks):
            alpha = np.concatenate(recv[d], axis=0)  # (M', segs_d)
            beta = self._seg_plan(alpha.T)
            seg = demodulate(beta, self.tables)
            y_parts.append(seg.reshape(-1))
            machine = cl.machine_of(d)
            share = self.seg_counts[d] / s
            cl.charge_seconds(d, "local FFT", machine.flop_time(
                p.local_fft_flops * share, self.fft_efficiency))
            cl.charge_seconds(d, "demodulation",
                              machine.mem_time(p.m * self.seg_counts[d] * 16))
        return y_parts

    # -- diagnostics -----------------------------------------------------------

    def compute_imbalance(self) -> float:
        """max/min per-rank compute time from the trace (1.0 = perfect)."""
        times = [self.cluster.trace.total("compute", rank=r)
                 for r in range(self.cluster.n_ranks)]
        if min(times) <= 0:
            return float("inf")
        return max(times) / min(times)
