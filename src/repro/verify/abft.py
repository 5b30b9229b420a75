"""Weighted-checksum ABFT primitives (Huang-Abraham, complex-weighted).

The classical ABFT encoding appends a checksum row ``c = sum_j w_j x_j``
to a batch before a linear transform T; by linearity ``T(c)`` must equal
``sum_j w_j T(x_j)``, so comparing the transformed checksum row against
the checksum of the transformed rows verifies the whole batched call in
O(rows) extra work.  Real 1/j weights condition badly at FFT scale;
unit-modulus complex weights (golden-ratio phases) keep every row's
contribution the same magnitude, so a single corrupted element shifts
the checksum by exactly its perturbation.

For the convolution stage the checksum row cannot be *computed* by
running the operator on an extra input row (each output row applies a
different functional of the input), but it can be *precomputed*: the
checksum of the convolution's output rows is itself a fixed linear
functional of the input, ``w^T W`` — a (blocks, S) coefficient array
built once per plan (:class:`ConvChecksum`) and applied per call in one
sweep of the input the convolution reads.
"""

from __future__ import annotations

import numpy as np

from repro.core.convolution import input_block_offsets
from repro.core.window import SoiTables

__all__ = ["ConvChecksum", "batch_checksum", "checksum_weights"]

#: Golden-ratio phase increment: ``w_j = exp(2*pi*i * j * GOLDEN)`` never
#: cycles (irrational rotation), so any two rows get well-separated
#: weights — the complex analogue of distinct Huang-Abraham weights.
GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def checksum_weights(m: int, dtype=np.complex128) -> np.ndarray:
    """Unit-modulus checksum weights ``exp(2*pi*i*j*phi)`` for m rows."""
    return np.exp(2j * np.pi * GOLDEN * np.arange(m)).astype(dtype)


def batch_checksum(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted sum over the second-to-last axis: the checksum row.

    ``rows`` has shape ``(..., m, k)``; returns ``(..., k)``.  Runs as a
    BLAS matvec, so checksumming a batch costs one memory sweep.
    """
    return np.matmul(weights, rows)


class ConvChecksum:
    """Precomputed checksum functional ``w^T W`` of the convolution.

    For rows ``u[j, p] = sum_b coeffs[j % n_mu, b, p] * x[(m0(j)+b)*S + p]``
    the weighted row checksum collapses to

    ``c[p] = sum_block A[block, p] * x[block*S + p]``

    with ``A[block, p] = sum_j w_j coeffs[j % n_mu, block - m0(j), p]``,
    built once per length of the input ``x`` (first block: global
    ``block_lo``), which :meth:`predict` reads modulo its length as the
    convolution does: one sweep verifies the conv stage against its
    *input*, and a corrupt computed row breaks its lane's match.
    """

    def __init__(self, tables: SoiTables, j_start: int, n_rows: int,
                 block_lo: int, weights: np.ndarray, dtype=np.complex128):
        if weights.shape != (n_rows,):
            raise ValueError("need one weight per convolution row")
        self.tables, self.weights, self.dtype = tables, weights, dtype
        #: each residue's first window block, counted from x's first
        self._m0 = input_block_offsets(tables.params, j_start, n_rows)[
            :tables.params.n_mu] - block_lo
        #: x's block count -> (S, blocks) layout of A, so predict() runs as
        #: S BLAS matvecs over each lane's stride-S input slice
        self._a_t: dict[int, np.ndarray] = {}

    def _functional(self, nblocks: int) -> np.ndarray:
        """``A`` on a source of *nblocks* blocks, as ``(S, nblocks)``."""
        p, w = self.tables.params, self.weights
        a = np.zeros((nblocks, p.n_segments), dtype=np.complex128)
        steps = np.arange(len(w) // p.n_mu) * p.d_mu  # chunk by chunk
        for r in range(p.n_mu):
            for b in range(p.b):
                np.add.at(a, (self._m0[r] + steps + b) % nblocks,
                          w[r::p.n_mu, None] * self.tables.coeffs[r, b])
        return np.ascontiguousarray(a.T.astype(self.dtype))

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Checksum row of the conv output, from the input: shape (.., S).

        ``x`` is the array the convolution reads, flat or ``(batch,
        length)``: the whole period on one node, a rank's ghost-extended
        input.
        """
        s = self.tables.params.n_segments
        xv = x.reshape(x.shape[:-1] + (-1, s))
        a_t = self._a_t.get(xv.shape[-2])
        if a_t is None:
            a_t = self._a_t[xv.shape[-2]] = self._functional(xv.shape[-2])
        # c[.., p] = A[p, :] . x[.., :, p] — a batched per-lane matvec
        out = np.empty(xv.shape[:-2] + (s,), dtype=a_t.dtype)
        for p in range(s):
            np.matmul(xv[..., p], a_t[p], out=out[..., p])
        return out
