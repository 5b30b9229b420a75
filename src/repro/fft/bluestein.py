"""Arbitrary-length FFT via Bluestein's chirp-z algorithm.

Re-expresses a length-n DFT as a circular convolution of chirp-modulated
sequences, evaluated with power-of-two Stockham FFTs of length >= 2n-1.
Completes the substrate so that any transform length (e.g. prime segment
counts in SOI parameter sweeps) is supported.

Like :class:`repro.fft.stockham.StockhamPlan`, execution is planned and
workspace-reusing: the padded chirp buffers are pooled per batch size and
calling thread (the same workspace contract: one cached plan may run on
several threads at once) and the embedded Stockham plans run with
``out=`` destinations through those two buffers, each lent to the pass
that reads it, so a steady-state ``plan(x, out=buf)`` loop performs no
per-call allocation; ``plan.pooled(x)`` leaves the result in the pooled
spectrum buffer.
"""

from __future__ import annotations

import threading
from functools import lru_cache

import numpy as np

from repro.fft.stockham import StockhamPlan, _Plan

__all__ = ["BluesteinPlan", "bluestein_fft"]


class BluesteinPlan(_Plan):
    """Precomputed chirp tables + padded convolution plans for one length,
    called as :class:`~repro.fft.stockham.StockhamPlan` is."""

    def __init__(self, n: int, sign: int = -1):
        if n <= 0:
            raise ValueError("n must be positive")
        if sign not in (-1, +1):
            raise ValueError("sign must be -1 or +1")
        self.n = n
        self.sign = sign
        self.dtype = np.dtype(np.complex128)
        m = 1
        while m < 2 * n - 1:
            m *= 2
        self.m = m
        k = np.arange(n)
        # chirp[k] = exp(sign * 1j*pi*k^2/n); use mod 2n to keep the argument
        # small and the table numerically exact for large n.
        self.chirp = np.exp(sign * 1j * np.pi * ((k * k) % (2 * n)) / n)
        b = np.zeros(m, dtype=np.complex128)
        b[:n] = np.conj(self.chirp)
        b[m - n + 1 :] = np.conj(self.chirp[1:][::-1])
        self._fwd = StockhamPlan(m, -1)
        self._inv = StockhamPlan(m, +1)
        self._bhat = self._fwd(b)
        self._inv_n = self.dtype.type(1.0 / n)
        self._local = threading.local()

    def _workspace(self, batch: int) -> tuple[np.ndarray, np.ndarray]:
        """The calling thread's (padded, spectrum) buffers of *batch* rows."""
        ws = self._pool.get(batch)
        if ws is None:
            ws = (np.zeros((batch, self.m), dtype=self.dtype),
                  np.empty((batch, self.m), dtype=self.dtype))
            self._pool[batch] = ws
        return ws

    def workspace_bytes(self) -> int:
        """Bytes the calling thread holds, here and in the embedded plans."""
        return (super().workspace_bytes() + self._fwd.workspace_bytes()
                + self._inv.workspace_bytes())

    def release_workspaces(self) -> None:
        """Drop the calling thread's pooled buffers, here and in the
        embedded Stockham plans."""
        super().release_workspaces()
        self._fwd.release_workspaces()
        self._inv.release_workspaces()

    def _execute(self, flat: np.ndarray, res: np.ndarray | None,
                 overwrite: bool = False) -> np.ndarray:
        """The chirp-z transform of the rows of *flat* into *res*, or with
        ``res=None`` into the pooled spectrum buffer; returns it.  *flat*
        is never written (the chirp product lands in the pooled buffer),
        so *overwrite* changes nothing."""
        a, spec = self._workspace(flat.shape[0])
        np.multiply(flat, self.chirp, out=a[:, : self.n])
        a[:, self.n:] = 0  # the inverse pass below repurposes a; re-zero the pad
        # both buffers are rewritten before they are read again: the
        # embedded passes work in them and keep only their alternates
        self._fwd(a, out=spec, overwrite_x=True)
        np.multiply(spec, self._bhat, out=spec)
        self._inv(spec, out=a, overwrite_x=True)
        if res is None:  # the inverse transform worked in spec: it is free
            res = spec[:, : self.n]
        np.multiply(a[:, : self.n], self.chirp, out=res)
        if self.sign == +1:
            np.multiply(res, self._inv_n, out=res)
        return res


@lru_cache(maxsize=64)
def _cached_plan(n: int, sign: int) -> BluesteinPlan:
    return BluesteinPlan(n, sign)


def bluestein_fft(x: np.ndarray, sign: int = -1) -> np.ndarray:
    """Batched arbitrary-length FFT along the last axis."""
    x = np.asarray(x, dtype=np.complex128)
    return _cached_plan(x.shape[-1], sign)(x)
