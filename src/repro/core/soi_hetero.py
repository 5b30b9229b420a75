"""Heterogeneous distributed SOI FFT: mixed Xeon / Xeon Phi clusters.

§6.1 sketches hybrid clusters where segment counts balance unequal node
speeds; §7 calls the evaluation of hybrid mode future work.  This module
implements it: each rank owns a number of segments proportional to its
weight, and with it a proportional share of the input, the convolution
rows, and the output — so the per-rank compute time equalizes while the
collective structure (ghost exchange + one all-to-all) is unchanged.
It is the one rank program of :mod:`repro.core.soi_dist` run under an
:class:`~repro.core.soi_dist.Ownership` map with unequal shares and
per-rank-machine stage costs.

Constraints: per-rank convolution rows must be whole chunks (multiples of
n_mu), which the constructor enforces by rounding the row split to chunk
boundaries; the segment split is arbitrary positive integers summing to S.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.backends import SimulatedBackend
from repro.cluster.simcluster import SimCluster
from repro.core.params import SoiParams
from repro.core.soi_dist import (
    Ownership,
    SoiSpec,
    soi_rank_program,
    stage_costs,
)
from repro.core.soi_single import SoiFFT
from repro.core.window import SoiTables, get_tables

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
                 *, n_mu: int = 8, d_mu: int = 7, b: int = 72, window=None):
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
        self.tables: SoiTables = get_tables(self.params, window)

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
        if not self.params.ghost_fits(int(np.diff(self.block_bounds).min())):
            raise ValueError("ghost halo exceeds the smallest rank chunk")
        self.seg_bounds = np.concatenate(
            [[0], np.cumsum(seg_counts)]).astype(np.int64)

        # the mapping and each rank's costs on its own machine; params
        # describe one process, so a rank's share of a stage is its
        # share of all M' rows / all S segments
        prm = self.params
        rb, sb = self.row_bounds.tolist(), self.seg_bounds.tolist()
        own = Ownership(
            ranks=tuple(range(p)),
            rows=tuple(((rb[r], rb[r + 1] - rb[r], False),)
                       for r in range(p)),
            slots=tuple(tuple(range(sb[r], sb[r + 1])) for r in range(p)))
        costs = tuple(stage_costs(prm, cluster.machine_of(r))
                      for r in range(p))
        self._spec = SoiSpec(params=prm, window=window, policy=None,
                             ownership=own, costs=costs,
                             node=(SoiFFT._of(self.tables), None))

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
        if len(x_parts) != self.cluster.n_ranks:
            raise ValueError(f"expected {self.cluster.n_ranks} parts")
        results = SimulatedBackend(self.cluster).run(
            soi_rank_program,
            [(np.asarray(a, dtype=np.complex128), None) for a in x_parts],
            common=(self._spec,))
        return [seg for seg, _report in results]

    # -- diagnostics -----------------------------------------------------------

    def compute_imbalance(self) -> float:
        """max/min per-rank compute time from the trace (1.0 = perfect)."""
        times = [self.cluster.trace.total("compute", rank=r)
                 for r in range(self.cluster.n_ranks)]
        if min(times) <= 0:
            return float("inf")
        return max(times) / min(times)
