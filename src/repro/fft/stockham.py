"""Batched iterative Stockham autosort FFT — the workhorse kernel.

The Stockham formulation avoids the bit-reversal pass of classic
Cooley-Tukey by ping-ponging between two buffers and interleaving outputs,
so every stage reads and writes contiguous blocks — the same property the
paper exploits on Xeon Phi to keep all FFT stages streaming-friendly.

A pass is arithmetic-dense and there are few of them (the paper's §5.2.4
kernel "uses radix 8 and 16"): the default schedule is
:func:`repro.fft.bitops.default_radices`, radix-16 butterflies with the
remainder last, and the engine is generic over any radix sequence.  There
is one pass kernel, :meth:`StockhamPlan._apply_stage`, and it is a batched
``np.matmul``: stage ``(n, s, r)`` with ``m = n/r`` computes
``o[b, p, :, q] = W_p @ c[b, :, p, q]`` with ``W_p = diag(tw[p]) . DFT_r``.
Where the ``s`` columns of one ``p`` fill a GEMM tile the ``m`` matrices
``W_p`` are tabulated at plan time and the pass is that one matmul,
written straight into the strided destination (the last pass has ``m = 1``
and no twiddle at all); the early passes, with many ``p`` of few columns
each, run ``DFT_r`` over all ``m*s`` columns into a pooled scratch and pay
one ``np.multiply`` by ``tw`` into the destination — six array sweeps for
``[16, 16, 16, 16]`` at n = 65536.

Every product has one shape per stage, fixed by ``(n, radices, dtype)``
alone: ``(r, r) @ (r, w)`` with ``w`` columns from
:func:`repro.fft.bitops.gemm_tile`, tiles aligned to the column index
inside a transform and never spanning two.  So ``plan(xs)[i]`` is bitwise
``plan(xs[i:i+1])`` for every batch size, and the bits do not depend on
the host's BLAS thread pool.

All kernels operate on 2-D arrays ``(batch, n)``: the batch is the paper's
outer-loop vectorization of simultaneous FFTs, the tile columns its
inner-loop vectorization of the butterflies within a transform.

Execution is *planned and allocation-free*: each plan owns a pool of
ping-pong workspaces keyed by batch size, every stage writes through
``out=`` destinations, and callers may supply the result array via
``plan(x, out=...)`` so steady-state loops perform no heap traffic at
all (``tests/test_zero_alloc.py::TestNoLargeAllocations`` asserts this
with ``tracemalloc``).
"""

from __future__ import annotations

import threading

import numpy as np

from repro.fft.bitops import default_radices, gemm_tile, mixed_radix_factors

__all__ = ["StockhamPlan", "fft_stockham", "fft_flops", "stage_count"]

#: Fewest columns per ``p`` for which a pass tabulates its ``m`` twiddled
#: butterflies ``W_p``; under it the products would be slivers
#: (``(16, 16) @ (16, 4)``) and one ``DFT_r`` over all columns plus a
#: twiddle sweep is faster.
_FOLD_COLUMNS = 64


def fft_flops(n: int) -> float:
    """Nominal flop count 5*N*log2(N) used throughout the paper."""
    if n <= 1:
        return 0.0
    return 5.0 * n * np.log2(n)


class _Stage:
    """One Stockham pass: current sub-length n, stride s, radix r.

    ``mat[g, 0]`` is the butterfly of column group ``g`` and ``w`` the tile
    width of its ``cols`` columns: ``m`` groups of ``s`` columns with the
    twiddle folded in, or one group of ``m*s`` columns and the twiddle
    ``tw[0, p, u, 0] = w_n^{u*p}`` applied after."""

    __slots__ = ("n", "s", "r", "cols", "w", "mat", "tw")

    def __init__(self, n: int, s: int, r: int, sign: int, dtype):
        self.n, self.s, self.r = n, s, r
        m = n // r
        fold = m == 1 or s >= _FOLD_COLUMNS
        groups, self.cols = (m, s) if fold else (1, m * s)
        self.w = gemm_tile(r * r, self.cols)  # raises for r >= 256
        p = np.arange(groups)[:, None, None, None]
        u = np.arange(r)[:, None]
        j = np.arange(r)[None, :]
        # W_p[u, j] = w_n^{u*p} * w_r^{u*j} = w_n^{u*(p + j*m)}
        self.mat = np.exp(sign * 2j * np.pi * ((u * (p + j * m)) % n) / n
                          ).astype(dtype)
        self.tw = None if fold else np.exp(
            sign * 2j * np.pi * (np.arange(m)[:, None] * np.arange(r)) / n
        ).astype(dtype)[None, :, :, None]


class StockhamPlan:
    """Precomputed plan for batched FFTs of one length and direction.

    Parameters
    ----------
    n:
        Transform length.  Must be (2,3,5,7)-smooth unless *radices* is
        given; arbitrary lengths go through :mod:`repro.fft.bluestein`.
    sign:
        -1 for the forward transform, +1 for the inverse.  The inverse is
        scaled by 1/n (matching ``numpy.fft.ifft``).
    radices:
        Optional explicit radix sequence whose product must equal *n*
        (default: :func:`repro.fft.bitops.default_radices`).  Any radix
        under 256 is legal; every pass runs the same kernel.
    dtype:
        ``numpy.complex128`` (default) or ``numpy.complex64`` — single
        precision matches the GPU/Cell implementations the paper's §8.4
        compares against (Chow et al.'s 2^24-point single-precision FFT).

    Workspace contract
    ------------------
    The plan lazily allocates, per distinct flattened batch size *and
    calling thread*, one pair of ping-pong buffers and one equally sized
    scratch when a pass applies its twiddle separately, and reuses them
    for every subsequent call from that thread — calling a plan twice
    never re-allocates and the two calls return independent arrays.  The
    tables are read-only and the buffers belong to the executing thread,
    so the one plan :mod:`repro.fft.plan` caches per length may run on
    several threads at once.  ``plan(x, out=buf)`` writes the
    result into a caller-owned, C-contiguous array of the plan dtype; the
    input is never read after the destination is first written, so
    ``out`` may alias ``x`` (a fully in-place transform) or a buffer
    returned by a previous call.  The input comes back untouched unless
    the caller grants ``overwrite_x=True``: then the passes ping-pong
    between the input and ``out`` and the pair is never allocated, only
    the scratch (the first pass, twiddled whenever there are two or more,
    writes its butterflies there and may sweep them back into its own
    input).  ``workspace_bytes()`` and ``release_workspaces()`` speak for
    the calling thread's pool only.
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
            radices = default_radices(n)
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
            self._stages.append(_Stage(cur_n, cur_s, r, sign, self.dtype))
            cur_n //= r
            cur_s *= r
        self._inv_n = self.dtype.type(1.0 / n)
        self._needs_scratch = any(st.tw is not None for st in self._stages)
        self._local = threading.local()

    # -- workspace management ------------------------------------------

    @property
    def _pool(self) -> dict[int, list]:
        """The calling thread's batch size -> [ping, pong, scratch]."""
        return self._local.__dict__  # a local's attributes are per thread

    def _workspace(self, batch: int, pair: bool) -> list:
        """The calling thread's buffers of *batch* rows: the scratch when a
        pass needs one, the ping-pong pair only when *pair* asks for it."""
        ws = self._pool.get(batch)
        if ws is None:
            ws = self._pool[batch] = [None, None, None]
        if pair and ws[0] is None:
            ws[0] = np.empty((batch, self.n), dtype=self.dtype)
            ws[1] = np.empty((batch, self.n), dtype=self.dtype)
        if self._needs_scratch and ws[2] is None:
            ws[2] = np.empty((batch, self.n), dtype=self.dtype)
        return ws

    def workspace_bytes(self) -> int:
        """Bytes currently held by the calling thread's pooled workspaces."""
        total = 0
        for bufs in self._pool.values():
            total += sum(b.nbytes for b in bufs if b is not None)
        return total

    def release_workspaces(self) -> None:
        """Drop the calling thread's pooled buffers (they re-allocate
        lazily on next use)."""
        self._pool.clear()

    # -- execution -----------------------------------------------------

    def __call__(self, x: np.ndarray, out: np.ndarray | None = None,
                 overwrite_x: bool = False) -> np.ndarray:
        """Transform along the last axis; any leading shape is the batch.

        With ``out=`` the result is written into the given C-contiguous
        array of matching shape and plan dtype (it may alias ``x``) and no
        allocation happens in steady state; without it a fresh result
        array is the only allocation.  ``overwrite_x=True`` lets the
        passes use ``x`` as a work buffer (see the workspace contract).
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
        self._execute(flat, res, overwrite_x)
        if self.sign == +1:
            np.multiply(res, self._inv_n, out=res)
        return out if out is not None else res.reshape(lead + (self.n,))

    def _execute(self, flat: np.ndarray, res: np.ndarray,
                 overwrite: bool = False) -> np.ndarray:
        """Run all stages from *flat* into *res*: through *flat* itself when
        *overwrite* grants it, else through the pooled pair."""
        if not self._stages:
            if res.base is not flat and res is not flat:
                np.copyto(res, flat)
            return res
        last = len(self._stages) - 1
        # with an even number of passes the first writes back into its
        # input, which only a twiddled pass (butterflies into scratch) can
        overwrite = overwrite and not np.may_share_memory(res, flat) and (
            last % 2 == 0 or self._stages[0].tw is not None)
        ping, pong, scratch = self._workspace(flat.shape[0], not overwrite)
        if overwrite:
            # pass i writes res when an even number of passes follow it,
            # else flat; every later pass writes the buffer it did not read
            cur = flat
            for i, st in enumerate(self._stages):
                dst = flat if (last - i) % 2 else res
                self._apply_stage(cur, dst, st, scratch)
                cur = dst
            return res
        if np.may_share_memory(res, flat):
            # destination aliases the input (e.g. plan(x, out=x)): stage 0
            # must read a private copy so later writes cannot corrupt it.
            np.copyto(ping, flat)
            cur, spare = ping, pong
            reading_user_input = False
        else:
            cur, spare = flat, ping
            reading_user_input = True
        for i, st in enumerate(self._stages):
            dst = res if i == last else spare
            self._apply_stage(cur, dst, st, scratch)
            spare = pong if (reading_user_input and i == 0) else cur
            cur = dst
        return res

    def _apply_stage(self, cur: np.ndarray, out: np.ndarray, st: _Stage,
                     scratch: np.ndarray | None) -> None:
        batch = cur.shape[0]
        r, w = st.r, st.w
        groups, tiles = st.mat.shape[0], st.cols // w
        dst = out if st.tw is None else scratch
        # d[b, g, t] = mat[g] @ c[b, g, t]: (r, r) @ (r, w), tile t of group g
        c = cur.reshape(batch, r, groups, tiles, w).transpose(0, 2, 3, 1, 4)
        d = dst.reshape(batch, groups, r, tiles, w).transpose(0, 1, 3, 2, 4)
        np.matmul(st.mat, c, out=d)
        if st.tw is not None:
            m = st.n // r
            np.multiply(dst.reshape(batch, r, m, st.s).transpose(0, 2, 1, 3),
                        st.tw, out=out.reshape(batch, m, r, st.s))

    @property
    def flops(self) -> float:
        """Nominal flop count per transform (5 n log2 n)."""
        return fft_flops(self.n)


def stage_count(n: int) -> int:
    """Number of Stockham passes the default schedule runs for a smooth *n*."""
    return len(default_radices(n))


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
