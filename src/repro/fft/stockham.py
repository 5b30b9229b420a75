"""Batched iterative Stockham autosort FFT — the workhorse kernel.

The Stockham formulation avoids the bit-reversal pass of classic
Cooley-Tukey by ping-ponging between two buffers and interleaving outputs,
so every stage reads and writes contiguous blocks — the same property the
paper exploits on Xeon Phi to keep all FFT stages streaming-friendly.

The engine is generic over the radix sequence: radix-4/8 stages (fewer
passes, mirroring the paper's "we use radix 8 and 16" register-level
choice) with a generic small-DFT butterfly fallback for odd radices
(3, 5, 7, ...) used by the mixed-radix front end.

All kernels operate on 2-D arrays ``(batch, n)`` and vectorize across both
the batch (the paper's outer-loop vectorization of 8 simultaneous FFTs)
and the butterflies within a transform (inner-loop vectorization).

Execution is *planned and allocation-free*: each plan owns a pool of
ping-pong workspaces keyed by batch size, every stage writes through
``out=`` ufunc destinations, and callers may supply the result array via
``plan(x, out=...)`` so steady-state loops perform no heap traffic at
all (``tests/test_zero_alloc.py::TestNoLargeAllocations`` asserts this
with ``tracemalloc``).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.fft.bitops import factorize_radices, is_power_of_two, mixed_radix_factors

__all__ = ["StockhamPlan", "fft_stockham", "fft_flops", "stage_count"]


def fft_flops(n: int) -> float:
    """Nominal flop count 5*N*log2(N) used throughout the paper."""
    if n <= 1:
        return 0.0
    return 5.0 * n * np.log2(n)


@lru_cache(maxsize=None)
def _butterfly_matrix(r: int, sign: int) -> np.ndarray:
    """The r-by-r DFT matrix used as the radix-r butterfly."""
    u = np.arange(r)
    return np.exp(sign * 2j * np.pi * np.outer(u, u) / r)


class _Stage:
    """One Stockham pass: current sub-length n, stride s, radix r."""

    __slots__ = ("n", "s", "r", "tw")

    def __init__(self, n: int, s: int, r: int, sign: int):
        self.n = n
        self.s = s
        self.r = r
        m = n // r
        # tw[p, u] = w_n^{u*p} for p in [0, m), u in [0, r)
        p = np.arange(m)[:, None]
        u = np.arange(r)[None, :]
        self.tw = np.exp(sign * 2j * np.pi * (p * u) / n)


class StockhamPlan:
    """Precomputed plan for batched FFTs of one length and direction.

    Parameters
    ----------
    n:
        Transform length.  Must factor into the supported radices
        (2, 3, 4, 5, 7, 8 by default); arbitrary lengths go through
        :mod:`repro.fft.bluestein` instead.
    sign:
        -1 for the forward transform, +1 for the inverse.  The inverse is
        scaled by 1/n (matching ``numpy.fft.ifft``).
    radices:
        Optional explicit radix sequence whose product must equal *n*.
    dtype:
        ``numpy.complex128`` (default) or ``numpy.complex64`` — single
        precision matches the GPU/Cell implementations the paper's §8.4
        compares against (Chow et al.'s 2^24-point single-precision FFT).

    Workspace contract
    ------------------
    The plan lazily allocates one pair of ping-pong buffers (plus a
    butterfly scratch) per distinct flattened batch size and reuses them for
    every subsequent call — calling a plan twice never re-allocates and the
    two calls return independent arrays.  ``plan(x, out=buf)`` writes the
    result into a caller-owned, C-contiguous array of the plan dtype; the
    input is never read after the destination is first written, so
    ``out`` may alias ``x`` (a fully in-place transform) or a buffer
    returned by a previous call.  ``release_workspaces()`` drops the pool.
    """

    def __init__(self, n: int, sign: int = -1, radices: list[int] | None = None,
                 dtype=np.complex128):
        if n <= 0:
            raise ValueError("n must be positive")
        if sign not in (-1, +1):
            raise ValueError("sign must be -1 or +1")
        if dtype not in (np.complex64, np.complex128):
            raise ValueError("dtype must be complex64 or complex128")
        self.n = n
        self.sign = sign
        self.dtype = np.dtype(dtype)
        if radices is None:
            if is_power_of_two(n):
                radices = factorize_radices(n, radices=(4, 2))
            else:
                radices = mixed_radix_factors(n)
                if radices is None:
                    raise ValueError(
                        f"n={n} is not smooth over (2,3,5,7); use bluestein_fft"
                    )
        if int(np.prod(radices)) != n:
            raise ValueError(f"radices {radices} do not multiply to {n}")
        self.radices = list(radices)
        self._stages: list[_Stage] = []
        cur_n, cur_s = n, 1
        for r in self.radices:
            st = _Stage(cur_n, cur_s, r, sign)
            st.tw = st.tw.astype(self.dtype)
            self._stages.append(st)
            cur_n //= r
            cur_s *= r
        self._rot90 = self.dtype.type(1j * sign)  # i*sign in working precision
        self._inv_n = self.dtype.type(1.0 / n)
        # Radix-2/4 butterflies stage their intermediates in contiguous
        # scratch blocks and pay exactly one strided write per output
        # quarter/half — writing intermediates straight into the strided
        # (batch, m, r, s) destination views costs several extra strided
        # passes.  Radix-4 needs four (batch, n/4) blocks, radix-2 one
        # (batch, n/2) block; the generic butterfly needs none.
        if any(st.r == 4 for st in self._stages):
            self._scratch_elems = n
        elif any(st.r == 2 for st in self._stages):
            self._scratch_elems = n // 2
        else:
            self._scratch_elems = 0
        #: batch size -> (ping, pong, scratch) reused across calls.
        self._pool: dict[int, tuple] = {}

    # -- workspace management ------------------------------------------

    def _workspace(self, batch: int) -> tuple:
        ws = self._pool.get(batch)
        if ws is None:
            ping = np.empty((batch, self.n), dtype=self.dtype)
            pong = np.empty((batch, self.n), dtype=self.dtype)
            scratch = (np.empty(batch * self._scratch_elems, dtype=self.dtype)
                       if self._scratch_elems else None)
            ws = (ping, pong, scratch)
            self._pool[batch] = ws
        return ws

    def workspace_bytes(self) -> int:
        """Bytes currently held by the pooled workspaces."""
        total = 0
        for bufs in self._pool.values():
            total += sum(b.nbytes for b in bufs if b is not None)
        return total

    def release_workspaces(self) -> None:
        """Drop all pooled buffers (they re-allocate lazily on next use)."""
        self._pool.clear()

    # -- execution -----------------------------------------------------

    def __call__(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Transform along the last axis; any leading shape is the batch.

        With ``out=`` the result is written into the given C-contiguous
        array of matching shape and plan dtype (it may alias ``x``) and no
        allocation happens in steady state; without it a fresh result
        array is the only allocation.
        """
        x = np.asarray(x)
        if x.shape[-1] != self.n:
            raise ValueError(f"last axis has length {x.shape[-1]}, plan is for {self.n}")
        lead = x.shape[:-1]
        if x.dtype != self.dtype:
            x = x.astype(self.dtype)
        flat = np.ascontiguousarray(x.reshape(-1, self.n))
        batch = flat.shape[0]
        if out is None:
            res = np.empty((batch, self.n), dtype=self.dtype)
        else:
            if not isinstance(out, np.ndarray) or out.shape != lead + (self.n,):
                raise ValueError(f"out must have shape {lead + (self.n,)}")
            if out.dtype != self.dtype:
                raise ValueError(f"out must have dtype {self.dtype}")
            if not out.flags.c_contiguous:
                raise ValueError("out must be C-contiguous")
            res = out.reshape(batch, self.n)
        self._execute(flat, res)
        if self.sign == +1:
            np.multiply(res, self._inv_n, out=res)
        return out if out is not None else res.reshape(lead + (self.n,))

    def _execute(self, flat: np.ndarray, res: np.ndarray) -> np.ndarray:
        """Run all stages from *flat* into *res* through the pooled pair."""
        if not self._stages:
            if res.base is not flat and res is not flat:
                np.copyto(res, flat)
            return res
        ping, pong, scratch = self._workspace(flat.shape[0])
        if np.may_share_memory(res, flat):
            # destination aliases the input (e.g. plan(x, out=x)): stage 0
            # must read a private copy so later writes cannot corrupt it.
            np.copyto(ping, flat)
            cur, spare = ping, pong
            reading_user_input = False
        else:
            cur, spare = flat, ping
            reading_user_input = True
        last = len(self._stages) - 1
        for i, st in enumerate(self._stages):
            dst = res if i == last else spare
            self._apply_stage(cur, dst, st, scratch)
            spare = pong if (reading_user_input and i == 0) else cur
            cur = dst
        return res

    def _apply_stage(self, cur: np.ndarray, out: np.ndarray, st: _Stage,
                     scratch: np.ndarray | None) -> None:
        batch = cur.shape[0]
        n, s, r = st.n, st.s, st.r
        m = n // r
        c = cur.reshape(batch, r, m, s)
        o = out.reshape(batch, m, r, s)
        if r == 2:
            a, b = c[:, 0], c[:, 1]
            sc = scratch[: batch * m * s].reshape(batch, m, s)
            np.add(a, b, out=o[:, :, 0, :])
            np.subtract(a, b, out=sc)
            np.multiply(sc, st.tw[None, :, 1, None], out=o[:, :, 1, :])
        elif r == 4:
            blk = batch * m * s
            sc0 = scratch[0 * blk:1 * blk].reshape(batch, m, s)
            sc1 = scratch[1 * blk:2 * blk].reshape(batch, m, s)
            sc2 = scratch[2 * blk:3 * blk].reshape(batch, m, s)
            sc3 = scratch[3 * blk:4 * blk].reshape(batch, m, s)
            c0, c1, c2, c3 = c[:, 0], c[:, 1], c[:, 2], c[:, 3]
            np.add(c0, c2, out=sc0)                 # ap
            np.subtract(c0, c2, out=sc1)            # am
            np.add(c1, c3, out=sc2)                 # bp
            np.subtract(c1, c3, out=sc3)            # bm
            np.multiply(sc3, self._rot90, out=sc3)  # i*sign*bm
            np.add(sc0, sc2, out=o[:, :, 0, :])     # ap + bp (tw[:, 0] == 1)
            np.subtract(sc0, sc2, out=sc2)          # ap - bp
            np.multiply(sc2, st.tw[None, :, 2, None], out=o[:, :, 2, :])
            np.add(sc1, sc3, out=sc0)               # am + jbm
            np.multiply(sc0, st.tw[None, :, 1, None], out=o[:, :, 1, :])
            np.subtract(sc1, sc3, out=sc1)          # am - jbm
            np.multiply(sc1, st.tw[None, :, 3, None], out=o[:, :, 3, :])
        else:
            omega = _butterfly_matrix(r, self.sign).astype(self.dtype)
            # o[b, p, u, s] = sum_j omega[u, j] * c[b, j, p, s]
            np.einsum("uj,bjps->bpus", omega, c, out=o, optimize=True)
            np.multiply(o, st.tw[None, :, :, None], out=o)

    @property
    def flops(self) -> float:
        """Nominal flop count per transform (5 n log2 n)."""
        return fft_flops(self.n)


def stage_count(n: int) -> int:
    """Number of Stockham passes for a power-of-two length (radix-4 biased)."""
    return len(factorize_radices(n, radices=(4, 2)))


def fft_stockham(x: np.ndarray, sign: int = -1) -> np.ndarray:
    """Convenience wrapper: batched Stockham FFT along the last axis.

    Plans come from the unified dtype-aware cache in
    :func:`repro.fft.plan.get_plan`; non-smooth lengths are rejected here
    (use :func:`repro.fft.bluestein.bluestein_fft` for those).
    """
    from repro.fft.plan import get_plan  # late import: plan.py imports us

    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    if mixed_radix_factors(n) is None:
        raise ValueError(f"n={n} is not smooth over (2,3,5,7); use bluestein_fft")
    return get_plan(n, sign)(x)
