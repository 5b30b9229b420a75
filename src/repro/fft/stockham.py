"""Batched iterative Stockham autosort FFT — the workhorse kernel.

The Stockham formulation avoids the bit-reversal pass of classic
Cooley-Tukey by ping-ponging between two buffers and interleaving outputs,
so every stage reads and writes contiguous blocks — the same property the
paper exploits on Xeon Phi to keep all FFT stages streaming-friendly.

A pass is arithmetic-dense and there are few of them (the paper's §5.2.4
kernel "uses radix 8 and 16"): the default schedule is
:func:`repro.fft.bitops.default_radices`, radix-16 butterflies with the
remainder last, and the engine is generic over any radix sequence.  There
is one pass kernel, :meth:`StockhamPlan._pass_ops`, and it is a batched
``np.matmul``: stage ``(n, s, r)`` with ``m = n/r`` computes
``o[b, p, :, q] = W_p @ c[b, :, p, q]`` with ``W_p = diag(tw[p]) . DFT_r``.
Where the ``s`` columns of one ``p`` fill a GEMM tile the ``m`` matrices
``W_p`` are tabulated at plan time and the pass is that one matmul,
written straight into the strided destination (the last pass has ``m = 1``
and no twiddle at all); the early passes, with many ``p`` of few columns
each, run ``DFT_r`` over all ``m*s`` columns into a pooled buffer and pay
one ``np.multiply`` by ``tw`` back into the pass's input — six array
sweeps for ``[16, 16, 16, 16]`` at n = 65536.

Every product has one shape per stage, fixed by ``(n, radices, dtype)``
alone: ``(r, r) @ (r, w)`` with ``w`` columns from
:func:`repro.fft.bitops.gemm_tile`, tiles aligned to the column index
inside a transform and never spanning two.  So ``plan(xs)[i]`` is bitwise
``plan(xs[i:i+1])`` for every batch size, and the bits do not depend on
the host's BLAS thread pool.

All kernels operate on 2-D arrays ``(batch, n)``: the batch is the paper's
outer-loop vectorization of simultaneous FFTs, the tile columns its
inner-loop vectorization of the butterflies within a transform.

Execution is *planned and allocation-free*: every call runs one schedule
(:meth:`StockhamPlan._schedule`) over two buffers, the *work* buffer (the
input when lent, else pooled) and a pooled *alternate*.  The twiddled
passes come first and run in place on the work buffer, their butterflies
through the alternate; the folded passes alternate between the two, the
last writing ``out=``.  So steady-state loops perform no heap traffic at
all (``tracemalloc``: ``tests/test_zero_alloc.py::TestNoLargeAllocations``).
The schedule is a list of bound kernel calls: a call of the plan builds
it over its arrays and runs it, and :meth:`StockhamPlan.bind` builds it
once over an array a caller keeps (a :class:`repro.core.soi_single.SoiFFT`
stage buffer), so each later transform of it only runs the kernels.
"""

from __future__ import annotations

import threading
from functools import partial

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


def checked_out(out, shape: tuple, dtype) -> np.ndarray:
    """*out*, if it is a C-contiguous array of *shape* and *dtype*."""
    if not isinstance(out, np.ndarray) or out.shape != shape:
        raise ValueError(f"out must have shape {shape}")
    if out.dtype != dtype:
        raise ValueError(f"out must have dtype {dtype}")
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    return out


class _Plan:
    """The plans' calling convention over ``_execute(flat, res, overwrite)``,
    which transforms the rows of *flat* into *res* (``None``: a buffer of
    its choosing) and returns it."""

    @property
    def _pool(self) -> dict[int, list]:
        """The calling thread's batch size -> its pooled buffers."""
        return self._local.__dict__  # a local's attributes are per thread

    def workspace_bytes(self) -> int:
        """Bytes currently held by the calling thread's pooled workspaces."""
        return sum(b.nbytes for ws in self._pool.values() for b in ws
                   if b is not None)

    def release_workspaces(self) -> None:
        """Drop the calling thread's pooled buffers (they re-allocate
        lazily on next use)."""
        self._pool.clear()

    def _flat(self, x) -> np.ndarray:
        """*x* as C-contiguous ``(batch, n)`` rows of the plan dtype."""
        x = np.asarray(x)
        if x.shape[-1] != self.n:
            raise ValueError(f"last axis has length {x.shape[-1]}, plan is for {self.n}")
        return np.ascontiguousarray(x.reshape(-1, self.n), dtype=self.dtype)

    def __call__(self, x: np.ndarray, out: np.ndarray | None = None,
                 overwrite_x: bool = False) -> np.ndarray:
        """Transform along the last axis; any leading shape is the batch.

        With ``out=`` the result is written into the given C-contiguous
        array of matching shape and plan dtype (it may alias ``x``) and no
        allocation happens in steady state; without it a fresh result
        array is the only allocation.  ``overwrite_x=True`` lends ``x`` to
        the transform as a work buffer (see the workspace contract).
        """
        flat = self._flat(x)
        if out is None:
            return self._execute(flat, np.empty_like(flat), overwrite_x
                                 ).reshape(np.shape(x))
        checked_out(out, np.shape(x), self.dtype)
        self._execute(flat, out.reshape(flat.shape), overwrite_x)
        return out

    def pooled(self, x: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
        """Transform along the last axis and leave the result where the
        plan wrote it: in ``x`` when it is lent and worked in, else in one
        of the calling thread's pooled buffers — valid until that thread's
        next call of this plan at the same batch size.  For a caller that
        reads the spectrum once, it saves the destination."""
        return self._execute(self._flat(x), None, overwrite_x).reshape(
            np.shape(x))

    def bind(self, x: np.ndarray, overwrite_x: bool = False,
             buffer=None):
        """``pooled(x, overwrite_x)`` planned once for the array *x*: a
        callable that transforms what *x* holds when called and returns
        the result.  *buffer* (``k -> array``: 0 the work buffer, 1 the
        alternate, each of *x*'s flattened shape) supplies the buffers the
        plan would pool; this plan re-plans every call."""
        return partial(self.pooled, x, overwrite_x)


class StockhamPlan(_Plan):
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
    The plan lazily allocates, per flattened batch size *and calling
    thread*, at most two buffers (the work buffer of a call that keeps its
    input, and the alternate) and reuses them — calling a plan twice never
    re-allocates and the two calls return independent arrays.  The
    tables are read-only and the buffers belong to the executing thread,
    so the one plan :mod:`repro.fft.plan` caches per length may run on
    several threads at once.  ``plan(x, out=buf)`` writes the result into
    a caller-owned, C-contiguous array of the plan dtype, which may alias
    ``x`` (a fully in-place transform; the last pass then writes the free
    buffer and one copy follows when it reads ``x``) or a buffer returned
    by a previous call.  The input comes back untouched unless the caller
    grants ``overwrite_x=True``: then ``x`` is the work buffer and only
    the alternate is pooled.  :meth:`pooled` skips the destination and
    leaves the result where the last pass wrote it; :meth:`bind` plans
    that once for an array the caller keeps, every pass's views bound,
    over buffers the caller supplies (then the caller owns and counts
    them) or the pooled ones.
    ``workspace_bytes()`` and ``release_workspaces()`` speak for the
    calling thread's pool only.
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
        twiddled = [st.tw is not None for st in self._stages]
        # the schedule runs the twiddled passes first, in place
        assert twiddled == sorted(twiddled, reverse=True), twiddled
        self._inv_n = self.dtype.type(1.0 / n)
        self._local = threading.local()

    # -- workspace management ------------------------------------------

    def _workspace(self, batch: int, k: int) -> np.ndarray:
        """The calling thread's pooled buffer *k* of *batch* rows: 0 the
        work buffer of a call that keeps its input, 1 the alternate."""
        ws = self._pool.setdefault(batch, [None, None])
        if ws[k] is None:
            ws[k] = np.empty((batch, self.n), dtype=self.dtype)
        return ws[k]

    # -- execution -----------------------------------------------------

    def _execute(self, flat: np.ndarray, res: np.ndarray | None,
                 overwrite: bool = False) -> np.ndarray:
        """Run every pass from *flat* over the work buffer (*flat* itself
        when *overwrite* lends it) and the alternate, both pooled; returns
        *res*, or with ``res=None`` the buffer the last pass wrote."""
        ops, res = self._schedule(flat, res, overwrite,
                                  partial(self._workspace, flat.shape[0]))
        for op in ops:
            op()
        return res

    def bind(self, x: np.ndarray, overwrite_x: bool = False,
             buffer=None):
        """``pooled(x, overwrite_x)`` planned once for the array *x* (a
        C-contiguous view, kept): every pass's views over *x* and the two
        buffers, bound.  *buffer* (``k -> array``: 0 the work buffer, 1
        the alternate, each ``(rows, n)``) supplies them; by default they
        are the calling thread's pooled ones.  Returns a callable that
        runs the passes over what *x* holds and returns the result."""
        if not x.flags.c_contiguous:
            raise ValueError("x must be C-contiguous")
        flat = x.reshape(-1, self.n)
        ops, res = self._schedule(flat, None, overwrite_x, buffer or partial(
            self._workspace, flat.shape[0]))
        res = res.reshape(np.shape(x))

        def run() -> np.ndarray:
            for op in ops:
                op()
            return res
        return run

    def _schedule(self, flat: np.ndarray, res: np.ndarray | None,
                  overwrite: bool, buffer) -> tuple[list, np.ndarray]:
        """The one schedule: every pass of a call from *flat* as bound
        kernel calls, and where the result lands.  The twiddled passes run
        in place on the work buffer (*flat* when *overwrite* lends it,
        else ``buffer(0)``), their butterflies through the alternate
        (``buffer(1)``); the folded passes alternate between the two, the
        last writing *res* (``None``: the buffer it lands in)."""
        last = len(self._stages) - 1
        work = flat if overwrite else buffer(0)
        if last < 0:  # n = 1: the identity
            res = work if res is None else res
            return [partial(np.copyto, res, flat)], res
        ops = []
        cur = flat
        for i, st in enumerate(self._stages):
            if st.tw is not None:  # in place; the butterflies go through alt
                dst = work
            elif i == last and res is not None \
                    and not np.may_share_memory(res, cur):
                dst = res
            else:  # the buffer this pass does not read
                dst = buffer(1) if cur is work else work
            ops += self._pass_ops(cur, dst, st, buffer)
            cur = dst
        if res is None:
            res = cur
        elif cur is not res:  # the last pass read res: one copy
            ops.append(partial(np.copyto, res, cur))
        if self.sign == +1:
            ops.append(partial(np.multiply, res, self._inv_n, out=res))
        return ops, res

    def _pass_ops(self, cur: np.ndarray, out: np.ndarray, st: _Stage,
                  buffer) -> list:
        """One pass from *cur* into *out*, as bound kernel calls; a
        twiddled pass's butterflies go through the alternate
        (``buffer(1)``) first, so its *out* may be *cur*."""
        batch = cur.shape[0]
        r, w = st.r, st.w
        groups, tiles = st.mat.shape[0], st.cols // w
        dst = out if st.tw is None else buffer(1)
        # d[b, g, t] = mat[g] @ c[b, g, t]: (r, r) @ (r, w), tile t of group g
        c = cur.reshape(batch, r, groups, tiles, w).transpose(0, 2, 3, 1, 4)
        d = dst.reshape(batch, groups, r, tiles, w).transpose(0, 1, 3, 2, 4)
        ops = [partial(np.matmul, st.mat, c, out=d)]
        if st.tw is not None:
            m = st.n // r
            ops.append(partial(
                np.multiply,
                dst.reshape(batch, r, m, st.s).transpose(0, 2, 1, 3), st.tw,
                out=out.reshape(batch, m, r, st.s)))
        return ops

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
