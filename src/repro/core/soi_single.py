"""Single-process SOI FFT: the reference end-to-end pipeline.

Computes ``y = F_N x`` via Equation 1 of the paper:

1. convolution-and-oversampling ``W x`` (with periodic boundary),
2. lane FFTs ``I_{M'} (x) F_S`` (length-S transform across lanes),
3. the stride permutation,
4. per-segment length-M' FFTs,
5. projection + demodulation ``W^{-1} P_roj``.

Steps 1-3 are one kernel, the *front* (:func:`repro.core.convolution.front`):
each convolution tile gets ``F_S`` in cache and stores its segment rows,
so ``alpha`` is written segment-major, ``(S, M')``, in one sweep.

The distributed implementation (:mod:`repro.core.soi_dist`) runs exactly
these kernels (:meth:`SoiFFT._of`), with the permutation's exchange an
all-to-all of segment rows, bit for bit; this module is both the numerical
reference for it and the convenient entry point for node-local use.

Steps 4-5 are the *back* (:func:`repro.core.demodulate.back`, the kernel
a rank and the verifier's repair run too): per row range, the segment
FFT, then demodulation of the spectra where its last pass left them into
the output.  An observer sees two stages on both: the front (``"conv"``)
and the back (``"back"``).

Execution is planned, as an MKL or FFTW plan is: convolution workspaces
and stage buffers are allocated once per batch size at first use and
reused, and everything a call derives from (params, dtype, rows, thread)
— block sizes, the front's tile walk and its views, the segment FFT's
pass views, the back's views of ``alpha`` — is bound with them, so a warm
call only reads its input and runs kernels.  The front reads the input in
place; there is one stage buffer, ``alpha``.  Unverified, the segment FFT
works in the dead ``alpha`` and an alternate; an armed verifier checks
the back against ``alpha`` and repairs its output rows from it, so there
``alpha`` outlives it and two buffers hold the passes.  Every stage runs
through ``out=`` destinations (on the per-cpu worker pool,
:mod:`repro.core.cpupool`, when large enough: as row ranges of one stage,
or as whole blocks of a batch's frames), and
:meth:`SoiFFT.batch` executes the segment FFTs as single
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
    TileWalk,
    _wrap_blocks,
    block_range_for_rows,
    front,
    tile_rows,
)
from repro.core.demodulate import back as back_kernel
from repro.core.params import SoiParams
from repro.core.window import SoiTables, get_tables
from repro.fft.plan import get_plan
from repro.fft.stockham import checked_out

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
        based fault tolerance: both stages of a planned block are checked
        against a weighted-checksum functional before their output is
        consumed or returned, corrupt segments are recomputed
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
    buffers are private to the plan — results never alias them; ``out``
    may be the input, read in full before the back writes.

    Plan and execute
    ----------------
    The first call of a batch size on a thread plans it: its block
    sizes, and per row range the front's :class:`TileWalk`, the back's
    view of ``alpha`` and its segment FFT bound over the thread's buffers
    (:meth:`StockhamPlan.bind`).  That state lives in the thread's
    convolution workspace (:meth:`ConvWorkspace.planned`) beside the
    buffers it views, and goes when one of them is replaced or dropped.
    A warm call validates its input, checks its deadline, copies the
    wrapped blocks of an edge tile (or reads the windows of ``x`` in
    place), runs the bound kernels — the same ones in the same order with
    the same shapes, so the bits are the unplanned kernels' — and passes
    the stage seam when it is armed.  Views of what the plan does not own
    (the caller's ``x`` and ``out``) are built per call.
    ``workspace_bytes()`` counts every buffer the bound state views, and
    ``release_workspaces()`` drops the bound state with them: every
    thread's (:meth:`ConvWorkspace.unplan`), and the buffers of the
    calling thread and every pool worker (another thread that ran the
    plan releases its own buffers by calling it).

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
    ``batch(xs)[i]`` is bitwise ``plan(xs[i])``.  The front earns this by
    the tile-alignment rule of :func:`repro.core.convolution.convolve`:
    every GEMM (the convolution's and the lane transform's) has one shape
    fixed by ``params``, a row always sits at the same tile position, and
    a batch runs one frame at a time — so a row's bits do not depend on
    the batch it rode in.  The segment FFT
    (:class:`repro.fft.stockham.StockhamPlan`) obeys the same rule, stated
    once in :func:`repro.fft.bitops.gemm_tile`.
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
        #: the length-S plan the front runs above 64 segments (its
        #: workspaces are counted and released with this plan's)
        self._lane_plan = get_plan(params.n_segments, -1, dtype=dt) \
            if params.n_segments > 1 else None
        self._seg_plan = get_plan(params.m_oversampled, -1, dtype=dt)
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

    @property
    def _keeps_stages(self) -> bool:
        """Whether ``alpha`` must outlive the segment FFT, which then is not
        lent it: the armed verifier checks the back's output rows against
        ``alpha`` and repairs them from it.
        The front check recomputes from the caller's input and telemetry
        reads no stage output, so every other output dies in the stage
        after it, verified or not."""
        return self.verifier is not None

    def _buffers(self, batch: int, pool=None) -> dict[str, np.ndarray]:
        """The stage buffers of *batch* frames, by name: the front's
        ``alpha``, segment-major ``(batch, S, M')``."""
        pool = self._bufpool if pool is None else pool
        bufs = pool.get(batch)
        if bufs is None:
            p = self.params
            bufs = pool[batch] = {"alpha": np.empty(
                (batch, p.n_segments, p.m_oversampled), dtype=self.dtype)}
        return bufs

    def _held(self, release: bool = False) -> int:
        """Bytes of workspace (convolution tiles, FFT work buffers,
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
        return sum(cpupool.on_each(self._held)) + sum(
            b.nbytes for bufs in self._bufpool.values() for b in bufs.values())

    def release_workspaces(self) -> None:
        """Drop all of them, on every thread (they re-allocate lazily),
        and what any thread planned over them: another thread that ran
        the plan may have bound views of the shared stage buffers (its
        own workspace is its to release)."""
        self._bufpool.clear()
        self._conv_ws.unplan()
        cpupool.on_each(partial(self._held, release=True))

    # -- pipeline stages (also reused by tests) ---------------------------

    def extended_input(self, x: np.ndarray) -> np.ndarray:
        """Input blocks ``[lo, hi)`` of all ``M'`` rows' windows, wrapped:
        what a rank-style ``front(x_ext, ..., lo)`` reads."""
        p, s = self.params, self.params.n_segments
        lo, hi = block_range_for_rows(p, 0, p.m_oversampled)
        xb = np.asarray(x, dtype=self.dtype).reshape(-1, p.n // s, s)
        ext = np.empty((len(xb), hi - lo, s), dtype=self.dtype)
        return _wrap_blocks(xb, lo, ext).reshape(np.shape(x)[:-1] + (-1,))

    def oversample(self, x: np.ndarray) -> np.ndarray:
        """Steps 1-3, the front: ``alpha``, the oversampled subbands of
        ``x`` (``W x``, then ``F_S`` across lanes), stored segment-major.
        Shape (S, M')."""
        return front(np.asarray(x, dtype=self.dtype), self.tables, 0,
                     self.params.m_oversampled, 0, workspace=self._conv_ws)

    def segment_spectra(self, alpha: np.ndarray) -> np.ndarray:
        """Step 4: the per-segment F_{M'} of the front's output.

        Returns beta of shape (S, M').
        """
        return self._seg_plan(alpha)

    # -- planned zero-allocation execution --------------------------------

    def _stage_seam(self, batch: int):
        """The one observer of the stage boundaries, or None when neither
        telemetry nor a verifier is armed.

        ``after(stage, src, array, nbytes)`` runs once *stage* has read
        *src* and written *array*, before the next stage reads it: the
        telemetry span and latency histogram of the stage, then the
        verifier's injection point, check and repair.  A check's seconds
        belong to no stage: the clock restarts after it."""
        telem, verifier = self.telemetry, self.verifier
        if telem is None and verifier is None:
            return None
        p = self.params
        clk = telem.clock if telem is not None else None
        t = clk() if clk else 0.0

        def after(stage: str, src: np.ndarray, arr: np.ndarray,
                  nbytes: int) -> None:
            nonlocal t
            if telem is not None:
                now = clk()
                telem.stage(stage, t, now, nbytes=nbytes)
                if stage == "back":
                    telem.transform_done(
                        batch,
                        batch * (p.local_fft_flops + p.lane_fft_flops))
                t = now
            if verifier is not None:
                verifier.after(stage, src, arr)
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

    def _layout(self, batch: int, block: int | None):
        """This call's ``(alpha, parts)``: the stage buffer of *batch*
        frames and how many workers share each stage (a worker's
        frame-major *block* is run whole, through its own buffers)."""
        if block is None:
            return self._buffers(batch)["alpha"], self._parts(batch)
        return self._buffers(block, self._local.__dict__)["alpha"][:batch], 1

    def _bind_front(self, alpha: np.ndarray, f0: int, f1: int, a: int,
                    b: int) -> TileWalk:
        """The front of frames ``[f0, f1)``, rows ``[a, b)`` into
        *alpha*, planned over the calling thread's workspace."""
        return TileWalk(self.tables, self.params.n // self.params.n_segments,
                        a, 0, alpha[f0:f1, :, a:b], self._conv_ws)

    def _bind_back(self, alpha: np.ndarray, f0: int, f1: int, a: int,
                   b: int) -> tuple:
        """The back of frames ``[f0, f1)``, segments ``[a, b)`` of
        *alpha*: its ``alpha`` view, whether the segment FFT is lent it,
        and that FFT planned over the calling thread's workspace (its two
        buffers, when not lent, or its alternate)."""
        seg, lend = alpha[f0:f1, a:b], not self._keeps_stages
        shape = ((f1 - f0) * (b - a), self.params.m_oversampled)
        fft = self._seg_plan.bind(seg, overwrite_x=lend, buffer=lambda k: (
            self._conv_ws.array(f"segment fft {k}", shape, self.dtype)))
        return seg, lend, fft

    def _execute(self, xs: np.ndarray, res: np.ndarray,
                 block: int | None = None) -> np.ndarray:
        """Planned pipeline: (batch, N) -> (batch, N) through pooled buffers.

        A stage is one slice function over frames ``[f0, f1)`` and rows
        or segments ``[a, b)``, shared out on :mod:`repro.core.cpupool`
        over ranges cut on the global tile grid (:func:`_cuts`; a block by
        frame, one frame by tile and segment) into the same stage buffer:
        the bits are those of the one-range call a small transform makes.
        What a slice derives from the geometry — its tile walk, its views
        of ``alpha``, the segment FFT's passes — is planned on the thread
        that runs it, the first time, and kept in that thread's workspace
        (:meth:`ConvWorkspace.planned`); a call only looks it up.

        Each of the two stages (the front, ``"conv"``, which reads *xs*
        in place, and ``"back"``) hands its input and output to the stage
        seam (:meth:`_stage_seam`), after its last join, before the next
        one consumes it — with a verifier armed, a corrupt stage output is
        repaired there, so everything downstream runs once, on trusted
        input.  Given *block* (a worker's block of a frame-major
        :meth:`batch`), every stage is one range on the calling thread and
        nothing observes it."""
        p = self.params
        s, mp = p.n_segments, p.m_oversampled
        batch = xs.shape[0]
        planned = self._conv_ws.planned
        alpha, parts = planned((batch, block), self._layout, batch, block)
        after = None if block is not None else self._stage_seam(batch)
        res3 = res.reshape(batch, s, p.m)

        def conv(f0, f1, a, b):  # the front: W x, F_S, the permutation
            planned(("conv", batch, block, f0, a), self._bind_front, alpha,
                    f0, f1, a, b)(xs[f0:f1])

        def back(f0, f1, a, b):  # alpha dies here unless verified
            seg, lend, fft = planned(("back", batch, block, f0, a),
                                     self._bind_back, alpha, f0, f1, a, b)
            back_kernel(seg, self.tables, self._seg_plan, res3[f0:f1, a:b],
                        lend=lend, fft=fft)

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

        share(conv, mp, self._conv_tile)
        if after:
            after("conv", xs, alpha, xs.nbytes + alpha.nbytes)
        share(back, s, 1)
        if after:
            after("back", alpha, res3, 3 * alpha.nbytes + res.nbytes)
        return res

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
            else checked_out(out, (p.n,), self.dtype)
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
        """Bytes a frame held in the layout the block sizes were measured
        in (EXPERIMENTS.md, frame-major batches): a copy of the blocks its
        windows span and four ``(S, M')`` stage outputs (``u``, ``z``,
        ``alpha``, ``beta``; three for S = 1).  No buffer has this size
        any more; the count stays so the block sizes do."""
        p = self.params
        lo, hi = block_range_for_rows(p, 0, p.m_oversampled)
        lanes = 4 if p.n_segments > 1 else 3
        return ((hi - lo + lanes * p.m_oversampled) * p.n_segments
                * self.dtype.itemsize)

    def _blocks(self, batch: int) -> tuple[int, int, int]:
        """How :meth:`batch` runs *batch* frames unobserved — frame-major
        workers and their block (0, 0 when it does not) — and the block
        of a stage-major run."""
        parts = self._parts(batch)
        block = self._BATCH_CACHE_BUDGET // (self._frame_bytes() * parts)
        stage_major = max(1, self._BATCH_CACHE_BUDGET // self._frame_bytes())
        if batch > 1 and parts > 1 and block:  # a worker's share holds one
            return parts, min(block, -(-batch // parts)), stage_major
        return 0, 0, stage_major

    def _frame_major(self, xs: np.ndarray, res: np.ndarray, block: int,
                     parts: int, deadline) -> None:
        """*parts* workers claim the *block*-frame blocks of the batch from
        one counter (:func:`_claim`), each running every stage on its block
        through its own stage buffers; the caller joins once."""
        batch = xs.shape[0]

        def run_block(i):
            k = min(block, batch - i)  # the last block may be short
            self._execute(xs[i:i + k], res[i:i + k], block)
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
        kernels over cache-sized blocks of frames: per block, one front
        sweep (convolution and lane transform), one ``(rows*S, M')``
        segment-FFT call, one demodulation — no per-row Python loop over
        pipeline stages.  The block size keeps a block's stage buffers
        cache-resident; tiny frames batch fully, huge transforms fall back
        to row-at-a-time.
        Results are bitwise-identical for every block size.

        Frame-major (see *Threads*; unobserved, more than one frame, a
        pooled size, and a frame within a worker's share of the budget),
        the blocks hold at most ``_BATCH_CACHE_BUDGET // (frame bytes x
        workers)`` frames, at least one block per worker, and the workers
        claim them from one counter.  Otherwise the blocks run one after
        another, each stage-major.  Both block sizes are worked out once
        per batch size (:meth:`_blocks`).

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
        res = np.empty(xs.shape, dtype=self.dtype) if out is None \
            else checked_out(out, xs.shape, self.dtype)
        xs = np.ascontiguousarray(xs)
        batch = xs.shape[0]
        parts, frames, block = self._conv_ws.planned(
            ("batch", batch), self._blocks, batch)
        if parts and self.telemetry is None and self.verifier is None:
            self._frame_major(xs, res, frames, parts, deadline)
            return res
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
