"""Single-process SOI FFT: the reference end-to-end pipeline.

Computes ``y = F_N x`` via Equation 1 of the paper:

1. convolution-and-oversampling ``W x`` (with periodic boundary),
2. lane FFTs ``I_{M'} (x) F_S`` (length-S transform across lanes),
3. the stride permutation (a local reshape when there is one process),
4. per-segment length-M' FFTs,
5. projection + demodulation ``W^{-1} P_roj``.

The distributed implementation (:mod:`repro.core.soi_dist`) runs exactly
these kernels (:meth:`SoiFFT._of`) with the permutation realized as an
all-to-all, bit for bit; this module is both the numerical reference for
it and the convenient entry point for node-local use.

Execution is planned: convolution workspaces and all five stage buffers
are allocated once per batch size at first use and
reused, every stage runs through ``out=`` destinations (on the per-cpu
worker pool, :mod:`repro.core.cpupool`, when large enough: as row ranges
of one stage, or as whole blocks of a batch's frames), and
:meth:`SoiFFT.batch` executes lane and segment FFTs as single
``(batch*S, M')``-shaped Stockham calls rather than a per-row Python
loop.  Steady-state calls with ``out=`` perform no new allocations
(asserted with ``tracemalloc`` by
``tests/test_zero_alloc.py::TestNoLargeAllocations``).
"""

from __future__ import annotations

import threading
from functools import partial

import numpy as np

from repro.core import cpupool
from repro.core.convolution import (
    ConvWorkspace,
    block_range_for_rows,
    convolve,
    tile_rows,
)
from repro.core.demodulate import demodulate
from repro.core.params import SoiParams
from repro.core.window import SoiTables, get_tables
from repro.fft.bitops import gemm_tile
from repro.fft.dft import dft_matrix
from repro.fft.plan import get_plan

__all__ = ["SoiFFT", "soi_fft"]


def _cuts(total: int, grid: int, parts: int) -> list[tuple[int, int]]:
    """``[0, total)`` as at most *parts* ranges cut at multiples of *grid*
    counted from 0, not from the range — :func:`repro.fft.bitops.gemm_tile`'s
    alignment rule: a row sits in the same tile whoever computes it."""
    units = -(-total // grid)
    edges = sorted({min(total, units * i // parts * grid)
                    for i in range(parts + 1)})
    return list(zip(edges, edges[1:]))


def _claim(starts, lock, stop: list, run_block, deadline) -> None:
    """One worker of a frame-major batch: claim the next block start from
    the shared iterator *starts* and run it, until none is left.  The
    deadline is checked before every claim (a block that started runs to
    completion); once a block or a check raised (*stop*), nobody claims."""
    try:
        while True:
            with lock:
                if stop:
                    return
                if deadline is not None:
                    deadline.check("batch block")
                i = next(starts, None)
            if i is None:
                return
            run_block(i)
    except BaseException:
        stop.append(True)
        raise


class SoiFFT:
    """Planned single-process SOI transform for one parameter set.

    Parameters
    ----------
    params:
        Problem geometry (``n_procs``/``segments_per_process`` only affect
        how many segments the decomposition uses; execution is local).
    window:
        Optional window object (default: Kaiser-sinc sized from params).
    dtype:
        Working precision: ``complex128`` (default) or ``complex64``.
        Single precision is worthwhile when the window stopband exceeds
        float32 epsilon anyway (e.g. mu = 8/7 at B <= 48); it requires
        (2,3,5,7)-smooth S and M'.  The design tables themselves are
        always built in double precision.
    verify:
        ``True`` or a :class:`repro.verify.VerifyPolicy` arms algorithm-
        based fault tolerance: every stage of a planned block is checked
        against weighted-checksum and Parseval invariants before the
        next stage consumes its output, corrupt segments are recomputed
        in place by the stage's own kernel (a repaired transform is
        bitwise the fault-free one), and persistent corruption raises
        :class:`repro.verify.VerificationError`.
        Counters accumulate in ``self.verifier.report``.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry` bundle (duck-typed:
        anything with ``clock``/``stage``/``transform_done``).  When
        given, every planned stage records a charge span and a latency
        histogram, and completed transforms count flops.  ``None``
        (the default) keeps the pipeline instrumentation-free — no
        telemetry code runs at all.

    Workspace contract
    ------------------
    ``plan(x, out=buf)`` / ``plan.batch(xs, out=bufs)`` write the spectrum
    into a caller-owned C-contiguous array of the plan dtype; after the
    first call of a given batch size no further allocations occur.  Calls
    without ``out=`` allocate exactly the result array.  The pooled stage
    buffers are private to the plan — results never alias them.

    Threads
    -------
    A call large enough to pay for it (:meth:`_parts`) runs on the
    process's per-cpu worker pool (:mod:`repro.core.cpupool`) while the
    caller waits.  An unobserved :meth:`batch` whose frames fit a worker's
    share of :attr:`_BATCH_CACHE_BUDGET` runs *frame-major*: each worker
    claims whole blocks of frames from one counter and runs every stage on
    them through its own stage buffers, one join per call.  Any other call
    runs *stage-major*: every stage as row ranges of one shared buffer,
    joined before the next.  The result is bitwise the one-range call's,
    whatever the pool, the path and the BLAS pool.  There is nothing to
    configure.  A plan still serves one call at a time (it owns its stage
    buffers); different plans may run at once.

    Batch invariance
    ----------------
    ``batch(xs)[i]`` is bitwise ``plan(xs[i])``.  The convolution earns
    this by the tile-alignment rule of
    :func:`repro.core.convolution.convolve`: every GEMM has one shape
    fixed by ``params``, a row always sits at the same tile position, and
    a batch runs one frame at a time — so a row's bits do not depend on
    the batch it rode in.  The lane DFT (:meth:`_lane_dft`) and the
    segment FFT (:class:`repro.fft.stockham.StockhamPlan`) obey the same
    rule, stated once in :func:`repro.fft.bitops.gemm_tile`.
    """

    def __init__(self, params: SoiParams, window=None, dtype=np.complex128,
                 verify=False, telemetry=None):
        self._plan(get_tables(params, window), dtype, telemetry)
        if verify is not None and verify is not False:
            # lazily: repro.verify imports core modules
            from repro.verify.policy import VerifyPolicy
            from repro.verify.selfcheck import PipelineVerifier
            self.verifier = PipelineVerifier(self, VerifyPolicy.coerce(verify))

    @classmethod
    def _of(cls, tables: SoiTables) -> "SoiFFT":
        """The plain complex128 plan of the design record *tables* (a
        custom window's too, with no second build): the node-local
        kernels a distributed rank of the geometry runs."""
        return cls.__new__(cls)._plan(tables)

    def _plan(self, tables: SoiTables, dtype=np.complex128, telemetry=None):
        dtype = np.dtype(dtype)
        if dtype not in (np.dtype(np.complex64), np.dtype(np.complex128)):
            raise ValueError("dtype must be complex64 or complex128")
        params = tables.params
        self.dtype, self.params, self.tables = dtype, params, tables
        dt = dtype.type
        self._lane_plan = get_plan(params.n_segments, -1, dtype=dt) \
            if params.n_segments > 1 else None
        # for the tiny fixed-size lane transform (length S, huge batch) a
        # direct DFT-matrix GEMM beats the Stockham passes (one sweep, not
        # one per radix); only worthwhile while the O(S^2) matrix stays
        # cache-sized.  _lane_tile rows of u per product: see _lane_dft.
        self._lane_mat, self._lane_tile = None, 1
        if 1 < params.n_segments <= 64:
            self._lane_mat = np.ascontiguousarray(
                dft_matrix(params.n_segments).astype(dtype))
            self._lane_tile = gemm_tile(params.n_segments ** 2,
                                        params.m_oversampled)
        self._seg_plan = get_plan(params.m_oversampled, -1, dtype=dt)
        lo, hi = block_range_for_rows(params, 0, params.m_oversampled)
        #: extended_input's blocks [lo, hi): the first, and the sample count
        self._block_lo, self._ext_size = lo, (hi - lo) * params.n_segments
        self._conv_ws = ConvWorkspace()
        self._conv_tile = tile_rows(tables, dtype)
        #: batch size -> dict of reused pipeline stage buffers.
        self._bufpool: dict[int, dict[str, np.ndarray]] = {}
        #: the same, per worker thread, for its frame-major blocks
        self._local = threading.local()
        #: optional instrument bundle (duck-typed Telemetry).
        self.telemetry = telemetry
        #: armed ABFT verifier (None unless ``verify`` was requested).
        self.verifier = None
        return self

    @property
    def expected_stopband(self) -> float:
        """Window-design estimate of the relative output error."""
        return self.tables.expected_stopband

    # -- workspace management ---------------------------------------------

    def _buffers(self, batch: int, pool=None) -> dict[str, np.ndarray]:
        pool = self._bufpool if pool is None else pool
        bufs = pool.get(batch)
        if bufs is None:
            p = self.params
            s, mp = p.n_segments, p.m_oversampled
            bufs = {
                "x_ext": np.empty((batch, self._ext_size), dtype=self.dtype),
                "u": np.empty((batch, mp, s), dtype=self.dtype),
                "alpha": np.empty((batch, s, mp), dtype=self.dtype),
                "beta": np.empty((batch, s, mp), dtype=self.dtype),
            }
            if self._lane_plan is not None:
                bufs["z"] = np.empty((batch, mp, s), dtype=self.dtype)
            pool[batch] = bufs
        return bufs

    def _held(self, release: bool = False) -> int:
        """Bytes of workspace (convolution tiles, FFT ping-pong pairs,
        frame-major stage buffers) the calling thread holds, after dropping
        them if *release*."""
        plans = [plan for plan in (self._seg_plan, self._lane_plan)
                 if plan is not None]
        blocks = self._local.__dict__  # a local's attributes are per thread
        if release:
            self._conv_ws.clear()
            blocks.clear()
            for plan in plans:
                plan.release_workspaces()
        return (self._conv_ws.nbytes()
                + sum(plan.workspace_bytes() for plan in plans)
                + sum(b.nbytes for bufs in blocks.values()
                      for b in bufs.values()))

    def workspace_bytes(self) -> int:
        """Bytes held by the pooled stage buffers and by the workspaces of
        the caller and of every worker thread."""
        total = sum(cpupool.on_each(self._held))
        for bufs in self._bufpool.values():
            total += sum(b.nbytes for b in bufs.values())
        return total

    def release_workspaces(self) -> None:
        """Drop all of them, on every thread (they re-allocate lazily)."""
        self._bufpool.clear()
        cpupool.on_each(partial(self._held, release=True))

    # -- pipeline stages (also reused by tests) ---------------------------

    def extended_input(self, x: np.ndarray) -> np.ndarray:
        """Input blocks [block_lo, block_hi) with periodic wrap."""
        x = np.asarray(x, dtype=self.dtype)
        x_ext = np.empty(x.shape[:-1] + (self._ext_size,), dtype=self.dtype)
        return self._wrap(x, x_ext, self._block_lo * self.params.n_segments)

    def _wrap(self, x: np.ndarray, out: np.ndarray, start: int) -> np.ndarray:
        """``out[..., k] = x[..., (start + k) mod N]``, the one periodic
        gather: consecutive integers mod N, so a handful of contiguous
        slice copies, where ``np.take(..., out=)`` makes a full temporary."""
        n, pos, src = self.params.n, 0, start % self.params.n
        while pos < out.shape[-1]:
            chunk = min(n - src, out.shape[-1] - pos)
            out[..., pos:pos + chunk] = x[..., src:src + chunk]
            pos, src = pos + chunk, 0
        return out

    def oversample(self, x: np.ndarray) -> np.ndarray:
        """Stages 1-2: u = W x, then z = (I (x) F_S) u.  Shape (M', S)."""
        p = self.params
        rows = p.m_oversampled  # all rows (single process)
        x_ext = self.extended_input(x)
        u = convolve(x_ext, self.tables, 0, rows, self._block_lo,
                     workspace=self._conv_ws)
        return u if self._lane_plan is None else self._lane_dft(u)

    def _lane_dft(self, u: np.ndarray, out: np.ndarray | None = None,
                  row0: int = 0) -> np.ndarray:
        """Stage 2, ``z = (I (x) F_S) u`` over the last axis of a
        C-contiguous ``(..., rows, S)`` of rows ``[row0, row0 + rows)`` —
        the one lane transform the pipeline, every distributed rank and the
        ABFT repair run, so a row rounds alike wherever it is computed.

        With a lane matrix it is ``(T, S) @ (S, S)`` products over tiles of
        ``T`` rows (:func:`repro.fft.bitops.gemm_tile` of all M' rows, so a
        tile never spans two frames) on the global row grid, each on the
        calling thread; a range cut inside a tile runs on a zero-filled
        copy of whole tiles, as :func:`~repro.core.convolution.convolve`
        does."""
        if out is None:
            out = np.empty_like(u)
        if self._lane_mat is None:
            return self._lane_plan(u, out=out)
        s, t, rows = self.params.n_segments, self._lane_tile, u.shape[-2]
        a, b = row0 % t, -(row0 + rows) % t  # zero rows before and after
        if a or b:
            tiles = np.zeros(u.shape[:-2] + (a + rows + b, s), self.dtype)
            tiles[..., a:a + rows, :] = u
            np.copyto(out, self._lane_dft(tiles)[..., a:a + rows, :])
            return out
        np.matmul(u.reshape(-1, t, s), self._lane_mat,
                  out=out.reshape(-1, t, s))
        return out

    def segment_spectra(self, z: np.ndarray) -> np.ndarray:
        """Stages 3-4: permutation (transpose) + per-segment F_{M'}.

        Returns beta of shape (S, M').
        """
        alpha = np.ascontiguousarray(z.T)  # (S, M'): segment s's subband
        return self._seg_plan(alpha)

    # -- planned zero-allocation execution --------------------------------

    def _stage_seam(self, batch: int):
        """The one observer of the stage boundaries, or None when neither
        telemetry nor a verifier is armed.

        ``after(stage, array, nbytes)`` runs once *stage* has written
        *array* and before the next stage reads it: the telemetry span
        and latency histogram of the stage, then the verifier's
        injection point, check and repair.  A check's seconds belong to
        no stage: the clock restarts after it."""
        telem, verifier = self.telemetry, self.verifier
        if telem is None and verifier is None:
            return None
        p = self.params
        clk = telem.clock if telem is not None else None
        t = clk() if clk else 0.0

        def after(stage: str, arr: np.ndarray, nbytes: int) -> None:
            nonlocal t
            if telem is not None:
                now = clk()
                telem.stage(stage, t, now, nbytes=nbytes)
                if stage == "demod":
                    telem.transform_done(
                        batch,
                        batch * (p.local_fft_flops + p.lane_fft_flops))
                t = now
            if verifier is not None:
                verifier.after(stage, arr)
                if telem is not None:
                    t = clk()
        return after

    #: Fewest bytes of one stage buffer a worker's share of a call may
    #: hold: a stage costs a 42-65 us fork/join whatever its size, and
    #: measured, sharing breaks even at 0.75 MiB of stage buffer and wins
    #: 10 % and up from 1 MiB (EXPERIMENTS.md "PR 23").
    _POOL_MIN_SHARE = 512 << 10

    def _parts(self, batch: int) -> int:
        """How many workers share each stage of a *batch*-frame call: one
        when a frame does not fill a convolution tile (every n = 896
        serving rung: GEMM slivers the interpreter lock serializes)."""
        p = self.params
        if p.m_oversampled < self._conv_tile:
            return 1
        fit = (batch * p.m_oversampled * p.n_segments * self.dtype.itemsize
               // self._POOL_MIN_SHARE)
        return min(fit, cpupool.size()) if fit > 1 else 1

    def _execute(self, xs: np.ndarray, res: np.ndarray,
                 bufs: dict | None = None) -> np.ndarray:
        """Planned pipeline: (batch, N) -> (batch, N) through pooled buffers.

        A stage is one slice function over frames ``[f0, f1)`` and rows
        or segments ``[a, b)``, shared out on :mod:`repro.core.cpupool`
        over ranges cut on the global tile grid (:func:`_cuts`; a block by
        frame, one frame by tile and segment) into the same stage buffer:
        the bits are those of the one-range call a small transform makes.

        Each stage hands its output to the stage seam
        (:meth:`_stage_seam`), after the join, before the next one
        consumes it — with a verifier armed, a corrupt stage output is
        repaired there, so everything downstream runs once, on trusted
        input.  Given *bufs* (a worker's block of a frame-major
        :meth:`batch`), every stage is one range on the calling thread and
        nothing observes it."""
        p = self.params
        s, mp = p.n_segments, p.m_oversampled
        batch = xs.shape[0]
        if bufs is None:
            bufs, after = self._buffers(batch), self._stage_seam(batch)
            parts = self._parts(batch)
        else:
            after, parts = None, 1
        x_ext, u = bufs["x_ext"], bufs["u"]
        alpha, beta = bufs["alpha"], bufs["beta"]
        z = bufs.get("z", u)
        res3 = res.reshape(batch, s, p.m)

        def gather(f0, f1, a, b):
            self._wrap(xs[f0:f1], x_ext[f0:f1, a:b], self._block_lo * s + a)

        def conv(f0, f1, a, b):
            convolve(x_ext[f0:f1], self.tables, a, b - a, self._block_lo,
                     out=u[f0:f1, a:b], workspace=self._conv_ws)

        def lane(f0, f1, a, b):
            self._lane_dft(u[f0:f1, a:b], out=z[f0:f1, a:b], row0=a)

        def permute(f0, f1, a, b):  # the stride permutation
            np.copyto(alpha[f0:f1, a:b], z[f0:f1, :, a:b].transpose(0, 2, 1))

        def segment_fft(f0, f1, a, b):
            self._seg_plan(alpha[f0:f1, a:b], out=beta[f0:f1, a:b])

        def demod(f0, f1, a, b):
            demodulate(beta[f0:f1, a:b], self.tables, out=res3[f0:f1, a:b])

        def share(fn, total, grid):
            if parts == 1:
                return fn(0, batch, 0, total)
            if batch == 1:
                ranges = [(0, 1, a, b) for a, b in _cuts(total, grid, parts)]
            else:
                ranges = [(f0, f1, 0, total)
                          for f0, f1 in _cuts(batch, 1, parts)]
            if len(ranges) == 1:  # a stage of one tile
                return fn(*ranges[0])
            cpupool.run([partial(fn, *r) for r in ranges])

        share(gather, x_ext.shape[1], 1)
        share(conv, mp, self._conv_tile)
        if after:
            after("conv", u, x_ext.nbytes + u.nbytes)
        if self._lane_plan is not None:
            share(lane, mp, self._lane_tile)
            if after:
                after("lane", z, 2 * z.nbytes)
        share(permute, s, 1)
        if after:
            after("permute", alpha, 2 * alpha.nbytes)
        share(segment_fft, s, 1)
        if after:
            after("segment-fft", beta, 2 * beta.nbytes)
        share(demod, s, 1)
        if after:
            after("demod", res3, beta.nbytes + res.nbytes)
        return res

    def _check_out(self, out: np.ndarray, shape: tuple) -> np.ndarray:
        if not isinstance(out, np.ndarray) or out.shape != shape:
            raise ValueError(f"out must have shape {shape}")
        if out.dtype != self.dtype:
            raise ValueError(f"out must have dtype {self.dtype}")
        if not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        return out

    def __call__(self, x: np.ndarray, out: np.ndarray | None = None,
                 deadline=None) -> np.ndarray:
        """Full in-order DFT of *x* (length N); ``out=`` avoids the result
        allocation.  *deadline* (a :class:`repro.resilience.Deadline`,
        duck-typed) is checked at entry — a transform that started runs
        to completion."""
        if deadline is not None:
            deadline.check("transform entry")
        p = self.params
        x = np.asarray(x, dtype=self.dtype)
        if x.shape != (p.n,):
            raise ValueError(f"expected input of shape ({p.n},), got {x.shape}")
        res = np.empty(p.n, dtype=self.dtype) if out is None \
            else self._check_out(out, (p.n,))
        self._execute(x.reshape(1, -1), res.reshape(1, -1))
        return res

    #: Cache budget (bytes) for the stage buffers of the frames in flight
    #: at once: a block's buffers should stay resident between pipeline
    #: stages; beyond ~8 MB the stage-at-a-time sweep spills to DRAM and
    #: loses to smaller blocks (``bench/e2e`` workload ``batch_small``).
    #: Stage-major, one block of the whole budget is in flight; frame-major,
    #: one block per worker, so each gets its share.
    _BATCH_CACHE_BUDGET = 8 << 20

    def _frame_bytes(self) -> int:
        """Bytes of stage buffer one frame holds."""
        p = self.params
        lanes = 4 if self._lane_plan is not None else 3
        return (self._ext_size + lanes * p.m_oversampled * p.n_segments
                ) * self.dtype.itemsize

    def _frame_major(self, xs: np.ndarray, res: np.ndarray, block: int,
                     parts: int, deadline) -> None:
        """*parts* workers claim the *block*-frame blocks of the batch from
        one counter (:func:`_claim`), each running every stage on its block
        through its own stage buffers; the caller joins once."""
        batch = xs.shape[0]

        def run_block(i):
            k = min(block, batch - i)  # the last block may be short
            bufs = self._buffers(block, self._local.__dict__)
            self._execute(xs[i:i + k], res[i:i + k],
                          {name: b[:k] for name, b in bufs.items()})
        starts, lock, stop = iter(range(0, batch, block)), threading.Lock(), []
        cpupool.run([partial(_claim, starts, lock, stop, run_block, deadline)
                     ] * parts)

    def batch(self, xs: np.ndarray, out: np.ndarray | None = None,
              deadline=None) -> np.ndarray:
        """Transform each row of a (batch, N) matrix, reusing this plan.

        The expensive design work (window sampling, demodulation inverse,
        FFT plan construction) amortizes across the batch — the usage
        pattern of every frame-oriented application (see
        :mod:`repro.core.streaming`).  The batch executes as batched
        kernels over cache-sized blocks of frames: per block, one
        convolution sweep, one ``(rows*M', S)`` lane
        transform, one ``(rows*S, M')`` segment-FFT call, one
        demodulation — no per-row Python loop over pipeline stages.  The
        block size keeps a block's stage buffers cache-resident; tiny
        frames batch fully, huge transforms fall back to row-at-a-time.
        Results are bitwise-identical for every block size.

        Frame-major (see *Threads*; unobserved, more than one frame, a
        pooled size, and a frame within a worker's share of the budget),
        the blocks hold at most ``_BATCH_CACHE_BUDGET // (frame bytes x
        workers)`` frames, at least one block per worker, and the workers
        claim them from one counter.  Otherwise the blocks run one after
        another, each stage-major.

        *deadline* (duck-typed :class:`repro.resilience.Deadline`) is
        checked at entry and before every block — the stage-boundary
        contract: a block that started runs to completion, the overrun
        raises at the next block boundary (or the caller's completion
        check).  Frame-major, a worker checks it before each block it
        claims; the caller raises after the join, and once it fired (or any
        block raised) no block starts.
        """
        if deadline is not None:
            deadline.check("batch entry")
        xs = np.asarray(xs, dtype=self.dtype)
        if xs.ndim != 2 or xs.shape[1] != self.params.n:
            raise ValueError(f"expected shape (batch, {self.params.n})")
        if out is None:
            res = np.empty(xs.shape, dtype=self.dtype)
        else:
            res = self._check_out(out, xs.shape)
        xs = np.ascontiguousarray(xs)
        batch = xs.shape[0]
        parts = self._parts(batch)
        block = self._BATCH_CACHE_BUDGET // (self._frame_bytes() * parts)
        if (batch > 1 and parts > 1 and block  # a worker's share holds one
                and self.telemetry is None and self.verifier is None):
            self._frame_major(xs, res, min(block, -(-batch // parts)), parts,
                              deadline)
            return res
        block = max(1, self._BATCH_CACHE_BUDGET // self._frame_bytes())
        for i in range(0, batch, block):
            if deadline is not None and i > 0:
                deadline.check(f"batch block {i // block}")
            self._execute(xs[i:i + block], res[i:i + block])
        return res

    def inverse(self, y: np.ndarray) -> np.ndarray:
        """Inverse DFT via the conjugation identity.

        ``ifft(y) = conj(fft(conj(y))) / N`` — the standard way FFT
        libraries reuse a forward-only pipeline; accuracy is identical to
        the forward transform.
        """
        p = self.params
        y = np.asarray(y, dtype=np.complex128)
        if y.shape != (p.n,):
            raise ValueError(f"expected input of shape ({p.n},), got {y.shape}")
        return np.conj(self(np.conj(y))) / p.n


def soi_fft(x: np.ndarray, n_segments: int = 8, n_mu: int = 8, d_mu: int = 7,
            b: int = 72, window=None) -> np.ndarray:
    """One-shot SOI FFT of a 1-D array (see :class:`SoiFFT` for knobs)."""
    x = np.asarray(x, dtype=np.complex128)
    params = SoiParams(n=x.size, n_procs=1, segments_per_process=n_segments,
                       n_mu=n_mu, d_mu=d_mu, b=b)
    return SoiFFT(params, window=window)(x)


def soi_ifft(y: np.ndarray, n_segments: int = 8, n_mu: int = 8, d_mu: int = 7,
             b: int = 72, window=None) -> np.ndarray:
    """One-shot inverse SOI FFT (scaled by 1/N, numpy convention)."""
    y = np.asarray(y, dtype=np.complex128)
    params = SoiParams(n=y.size, n_procs=1, segments_per_process=n_segments,
                       n_mu=n_mu, d_mu=d_mu, b=b)
    return SoiFFT(params, window=window).inverse(y)
