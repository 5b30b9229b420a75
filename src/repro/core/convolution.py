"""Convolution-and-oversampling: applying W to the input (paper §5.3).

Row ``j`` of the oversampled output (global row index; each process owns a
contiguous row range) is the vector of S lane inner products

``u[j, p] = sum_b  w[j mod n_mu, b, p] * x[(m0(j) + b) * S + p]``

with block offset ``m0(j) = (j // n_mu) * d_mu + q_r[j mod n_mu] - B/2 + 1``
— the chunked, d_mu-shifted structure of Fig 6(a), stored compactly as the
n_mu*B*S distinct coefficients.

There is one tile walk, and each tile is a GEMM.  The ``n_mu`` rows of
chunk ``c = j // n_mu`` all read, per lane, the same ``K = B + max(q_r)``
consecutive samples of the lane's stride-S input, so with the taps of
residue ``r`` shifted down by ``q_r`` inside a zero-padded ``(K, n_mu)``
matrix (:meth:`SoiTables.gemm_coeffs`) a tile of T chunks is
``U[p] = X[p] @ W[p]`` — ``(T, K) @ (K, n_mu)`` per lane, one batched BLAS
call per tile.  This is the paper's decomposed form (loop interchange:
lane outermost) with the stride-S windows staged into contiguous storage
(its circular buffer).  Tiles are position-invariant: see
:func:`convolve` for the alignment rule every bitwise contract of the
repo (batch == solo, simulator == processes, recovered == fault-free)
rests on.

:func:`convolve` stores ``u`` as ``(rows, S)``; :func:`front`, which the
SOI pipelines run, is where ``F_S`` fuses: each tile's product goes
through :func:`lane_fft` in cache and its S segment rows are stored
contiguously, which takes back §5.3's extra sweep of the decomposed form.
Both are one :class:`TileWalk`: the schedule of a geometry's tiles with
every view and operand bound, planned per call by these two functions
and once per batch size and thread by a planned ``SoiFFT`` call, which
keeps it in its :class:`ConvWorkspace`.

The paper's three *execution strategies* — row-major baseline,
loop-interchanged decomposed form, and circular-buffer staging — differ in
traversal order and cache behaviour; they remain as *models*:
first-class :class:`ConvStrategy` objects that expose working sets,
memory-sweep ledgers, cache address traces (for the cache simulator) and
modeled execution times, reproducing the Fig 11 ablation.
"""

from __future__ import annotations

import threading
import weakref
from enum import Enum
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.core.params import SoiParams
from repro.core.window import SoiTables, _read_only
from repro.fft.bitops import gemm_tile
from repro.fft.dft import dft_matrix
from repro.fft.plan import get_plan
from repro.machine.memory import SweepLedger
from repro.machine.spec import MachineSpec

__all__ = [
    "ConvStrategy",
    "ConvWorkspace",
    "TileWalk",
    "block_range_for_rows",
    "conv_time_model",
    "convolve",
    "convolve_reference",
    "front",
    "input_block_offsets",
    "lane_fft",
    "tile_rows",
]

#: Most chunks (groups of n_mu rows) one GEMM tile holds.
_TILE_CHUNKS = 256

#: Most lanes whose transform is a DFT-matrix GEMM, which beats the Stockham
#: passes (one sweep, not one per radix) while the matrix is cache-sized.
_LANE_MATRIX_MAX = 64


def _tile_chunks(params: SoiParams, k_width: int) -> int:
    """T, the chunks per GEMM tile: the largest power of two within both
    caps (:func:`repro.fft.bitops.gemm_tile`'s on the product, and
    ``_TILE_CHUNKS``; a power of two divides the usual ``M'/n_mu``, so no
    tile is mostly zero fill), or all ``M'/n_mu`` chunks when that is
    fewer."""
    return min(gemm_tile(k_width * params.n_mu, _TILE_CHUNKS),
               params.m_oversampled // params.n_mu)


def tile_rows(tables: SoiTables, dtype) -> int:
    """Output rows of one full GEMM tile of :func:`convolve` (a frame of
    fewer rows is one smaller tile).  A caller that shares a row range out
    cuts it at multiples of this (of the *global* row index, as the tiles
    are), so no tile is computed twice."""
    p = tables.params
    return p.n_mu * gemm_tile(tables.gemm_coeffs(dtype).shape[1] * p.n_mu,
                              _TILE_CHUNKS)


class _Planned(dict):
    """One thread's planned objects (a dict that can be weakly held)."""


class ConvWorkspace:
    """Reusable scratch arrays for :func:`convolve` and :func:`front`, and
    what a plan binds over them.

    Buffers are keyed by (name, shape past the first axis, dtype) *and
    executing thread*, and only grow along the first axis (the frames of
    a batch), so a plan gets the same storage back on every call from
    that thread — the steady state performs no new allocations, even as
    batch sizes alternate, and the one workspace a plan owns
    (``SoiFFT``) serves every worker thread its row ranges run on.

    :meth:`planned` keeps, per thread too, what a caller derived once
    over this thread's buffers — a :class:`TileWalk`, bound views of its
    own buffers — until one of the buffers is replaced by a larger one or
    dropped: then every planned object of the thread goes with it, so
    none keeps a buffer alive that ``nbytes()`` no longer counts.
    ``nbytes()`` and ``clear()`` speak for the calling thread only, as
    :class:`repro.fft.stockham.StockhamPlan`'s do; :meth:`unplan` drops
    what every thread planned (it may view buffers the owner shares
    between threads).
    """

    def __init__(self):
        self._local = threading.local()
        # every thread's planned dict, by id, for unplan()
        self._every = weakref.WeakValueDictionary()

    def array(self, name: str, shape: tuple, dtype) -> np.ndarray:
        """Return a reused (uninitialized) buffer of the given geometry:
        the first ``shape[0]`` rows of the largest one asked for."""
        mine = self._local.__dict__  # a local's attributes are per thread
        bufs = mine.setdefault("bufs", {})
        key = (name, tuple(shape[1:]), np.dtype(dtype).str)
        buf = bufs.get(key)
        if buf is None or len(buf) < shape[0]:
            if buf is not None:  # what was planned may view the old one
                mine.get("plans", {}).clear()
            buf = bufs[key] = np.empty(shape, dtype=dtype)
        return buf[:shape[0]]

    def planned(self, key, build, *args):
        """The calling thread's ``build(*args)`` for *key*: built on first
        use, after which a call only looks it up."""
        plans = self._local.__dict__.get("plans")
        plan = None if plans is None else plans.get(key)
        if plan is None:  # stored after the build, which may grow a buffer
            plan = build(*args)
            plans = self._local.__dict__.get("plans")
            if plans is None:
                plans = self._local.plans = _Planned()
                self._every[id(plans)] = plans
            plans[key] = plan
        return plan

    def unplan(self) -> None:
        """Drop what every thread planned; the buffers stay."""
        for plans in list(self._every.values()):
            plans.clear()

    def nbytes(self) -> int:
        """Bytes currently held by the calling thread's buffers."""
        return sum(b.nbytes for b in self._local.__dict__.get(
            "bufs", {}).values())

    def clear(self) -> None:
        """Drop every buffer of the calling thread, and what was planned
        over them."""
        self._local.__dict__.clear()


def input_block_offsets(params: SoiParams, j_start: int, n_rows: int) -> np.ndarray:
    """Global input block index m0(j) for rows [j_start, j_start + n_rows)."""
    if j_start % params.n_mu:
        raise ValueError("j_start must be a multiple of n_mu")
    if n_rows % params.n_mu:
        raise ValueError("n_rows must be a multiple of n_mu")
    j = np.arange(j_start, j_start + n_rows, dtype=np.int64)
    r = j % params.n_mu
    q_r = (np.arange(params.n_mu, dtype=np.int64) * params.d_mu) // params.n_mu
    return (j // params.n_mu) * params.d_mu + q_r[r] - params.b // 2 + 1


def block_range_for_rows(params: SoiParams, j_start: int, n_rows: int
                         ) -> tuple[int, int]:
    """Half-open global block range [lo, hi) the rows' windows touch.

    Block indices may be negative or exceed N/S: the kernels read them
    modulo their source's length (the circular boundary).
    """
    m0 = input_block_offsets(params, j_start, n_rows)
    return int(m0.min()), int(m0.max()) + params.b


def lane_fft(a: np.ndarray, tables: SoiTables, out: np.ndarray | None = None,
             *, workspace: ConvWorkspace | None = None) -> np.ndarray:
    """``F_S`` down the lanes of ``(..., S, R)`` blocks into segment rows,
    ``out[..., k, :] = sum_p F_S[k, p] a[..., p, :]``, for the front and
    the ABFT checksum.  Up to 64 lanes, ``(S, S) @ (S, c)`` products over
    ``c`` = :func:`~repro.fft.bitops.gemm_tile` columns from column 0 (the
    front hands it whole tiles of the global grid); wider (scale-chaos's
    S = 1024), the length-S Stockham plan over the transposed blocks."""
    s, r = a.shape[-2:]
    if out is None:
        out = np.empty(a.shape, dtype=a.dtype)
    if s <= _LANE_MATRIX_MAX:
        mat = tables.derived(("lanes", a.dtype.str),
                             lambda: _read_only(dft_matrix(s, dtype=a.dtype)))
        step = tables.derived(("lane tile", r), lambda: gemm_tile(s * s, r))
        for c in range(0, r, step):
            np.matmul(mat, a[..., c:c + step], out=out[..., c:c + step])
        return out
    t = (workspace or ConvWorkspace()).array(
        "lanes", a.shape[:-2] + (r, s), a.dtype)
    np.copyto(t, a.swapaxes(-1, -2))
    get_plan(s, -1, dtype=a.dtype.type)(t, out=t)
    np.copyto(out, t.swapaxes(-1, -2))
    return out


def convolve(x: np.ndarray, tables: SoiTables, j_start: int, n_rows: int,
             block_lo: int, out: np.ndarray | None = None, *,
             workspace: ConvWorkspace | None = None) -> np.ndarray:
    """W*x for rows [j_start, j_start+n_rows) as per-lane GEMM tiles.

    ``x`` holds input blocks from global block ``block_lo`` on (the whole
    period and 0 on one node; on a rank, its ghost-extended block) as a
    flat complex array, or a ``(batch, length)`` stack; window blocks are
    read modulo its length.  Returns ``u`` of shape (n_rows, S) —
    ``(batch, n_rows, S)`` when batched.  *out*, if given, must have that
    shape and the working dtype (``complex64`` for ``complex64`` input,
    else ``complex128``).

    An output row is a function of (global row index, input) only — not of
    the row range, batch size or rank that computed it — because BLAS
    returns the same bits for the same operand at the same position of a
    same-shaped product.  So every GEMM here has the one shape
    ``(S, T, K) @ (S, K, n_mu)`` with T chunks a function of ``params``
    alone (:func:`_tile_chunks`), tiles are aligned to the *global* chunk
    index ``j // n_mu`` (chunk ``c`` always sits at tile position
    ``c mod T``), a range that starts or ends mid-tile zero-fills the rest
    of the tile and still computes it at full shape, and a batch runs one
    frame at a time.  :func:`repro.fft.bitops.gemm_tile` states the rule
    once for this kernel, the Stockham pass and the lane transform.

    ``workspace`` (a :class:`ConvWorkspace`) supplies the tile buffers,
    whose shapes depend on ``params`` and dtype only; with it, repeat
    calls are allocation-free apart from the (caller-avoidable) output.
    """
    return _tile_walk(x, tables, j_start, n_rows, block_lo, out, workspace,
                      segment_major=False)


def front(x: np.ndarray, tables: SoiTables, j_start: int, n_rows: int,
          block_lo: int, out: np.ndarray | None = None, *,
          workspace: ConvWorkspace | None = None) -> np.ndarray:
    """The SOI front, ``(I_{M'} (x) F_S) W x`` stored segment-major: shape
    ``(S, n_rows)`` (``(batch, S, n_rows)`` batched), row ``k`` the
    rows ``[j_start, j_start + n_rows)`` of segment ``k``'s subband.

    :func:`convolve`'s tile walk, with :func:`lane_fft` applied to each
    tile's ``(S, T * n_mu)`` products (every frame's, in one call) in
    cache and the S segment rows stored contiguously.  Same arguments,
    alignment rule and workspace as :func:`convolve`; *out* may be a
    strided view (a row range of a larger segment-major buffer)."""
    return _tile_walk(x, tables, j_start, n_rows, block_lo, out, workspace,
                      segment_major=True)


def _wrap_blocks(xb: np.ndarray, first: int, out: np.ndarray) -> np.ndarray:
    """``out[:, k] = xb[:, (first + k) mod nblocks]``, blocks ``(frames,
    nblocks, S)``: the one periodic copy, a slice copy per pass."""
    nblocks, pos, src = xb.shape[1], 0, first % xb.shape[1]
    while pos < out.shape[1]:
        take = min(nblocks - src, out.shape[1] - pos)
        out[:, pos:pos + take] = xb[:, src:src + take]
        pos, src = pos + take, 0
    return out


def _windows(xb: np.ndarray, k_width: int) -> np.ndarray:
    """Blocks ``(frames, nblocks, S)`` as ``(frames, windows, S, K)``:
    window ``i`` holds, per lane ``p``, the K stride-S samples from block
    ``i`` on — a view."""
    return sliding_window_view(xb, k_width, axis=1)


def _tile_walk(x, tables: SoiTables, j_start: int, n_rows: int,
               block_lo: int, out, workspace, *, segment_major: bool):
    """The checked entry of :func:`convolve` and :func:`front`: a
    :class:`TileWalk` of the call's geometry, planned and run once."""
    p = tables.params
    s, n_mu = p.n_segments, p.n_mu
    arr = np.asarray(x)
    dtype = np.complex64 if arr.dtype == np.complex64 else np.complex128
    x = np.asarray(arr, dtype=dtype)
    if x.ndim not in (1, 2):
        raise ValueError("x must be 1-D or (batch, length)")
    if x.shape[-1] % s:
        raise ValueError("x length must be a multiple of S")
    if j_start % n_mu or n_rows % n_mu:
        raise ValueError("j_start and n_rows must each be a multiple of n_mu")
    nblocks = x.shape[-1] // s
    if nblocks < p.b:
        raise ValueError("x does not cover one window of B blocks")
    out_shape = x.shape[:-1] + ((s, n_rows) if segment_major
                                else (n_rows, s))
    if out is None:
        out = np.empty(out_shape, dtype=dtype)
    elif out.shape != out_shape:
        raise ValueError("out has wrong shape")
    elif out.dtype != dtype:
        raise ValueError(f"out must have dtype {np.dtype(dtype)}")
    if n_rows:
        ws = workspace if workspace is not None else ConvWorkspace()
        TileWalk(tables, nblocks, j_start, block_lo,
                 out[None] if x.ndim == 1 else out, ws,
                 segment_major=segment_major)(x)
    return out


class TileWalk:
    """The tile walk of :func:`convolve` and :func:`front` over one
    geometry, planned: everything but the input, bound once.

    Built for ``(frames, nblocks * S)`` inputs whose rows
    ``[j_start, j_start + n_rows)`` land in *out* — ``(frames, S,
    n_rows)`` segment-major (the front), else ``(frames, n_rows, S)``
    (the convolution); ``n_rows`` is read off *out*, which may be a
    strided view — it binds the tile schedule, the views of its tiles,
    products and lane spectra over *workspace*'s buffers and over *out*,
    and the GEMM operands.  A call ``walk(x)`` then only reads *x*: a
    tile whose span wraps (an edge tile) copies its blocks into the
    workspace (:func:`_wrap_blocks`), any other reads its windows in
    place; then every bound product runs, in the order and with the
    shapes of the unplanned walk, so the bits are the same.  The lane
    transform of a tile is a :func:`lane_fft` call."""

    def __init__(self, tables: SoiTables, nblocks: int, j_start: int,
                 block_lo: int, out: np.ndarray, workspace: ConvWorkspace,
                 *, segment_major: bool = True):
        p = tables.params
        s, n_mu, d_mu = p.n_segments, p.n_mu, p.d_mu
        dtype = out.dtype
        frames = out.shape[0]
        n_rows = out.shape[2 if segment_major else 1]
        w = tables.gemm_coeffs(dtype)  # (S, K, n_mu)
        k_width = w.shape[1]
        c0, n_chunks = j_start // n_mu, n_rows // n_mu
        c1 = c0 + n_chunks
        t_chunks = _tile_chunks(p, k_width)
        tile = workspace.array("tile", (s, t_chunks, k_width), dtype)
        # the front keeps every frame's product of a tile for one lane
        # transform
        res = workspace.array("res", (frames if segment_major else 1, s,
                                      t_chunks, n_mu), dtype)
        lanes = workspace.array("lane out", (frames, s, t_chunks * n_mu),
                                dtype) if segment_major else None
        ob = out if segment_major else out.reshape(-1, n_chunks, n_mu, s)
        edge = workspace.array(
            "edge", (frames, (t_chunks - 1) * d_mu + k_width, s), dtype)
        edge_wins = _windows(edge, k_width)
        # a proxy: the workspace may keep this walk (ConvWorkspace.planned),
        # and a cycle would hold a dropped plan's buffers until the cyclic
        # collector ran
        self._tables, self._workspace = tables, weakref.proxy(workspace)
        self._shape, self._k = (frames, nblocks, s), k_width
        # the lane transform's operands, the same for every tile
        self._lanes = (res.reshape(lanes.shape), lanes) if segment_major \
            else None
        self._tiles = []
        for t0 in range(c0 - c0 % t_chunks, c1, t_chunks):
            lo, hi = max(c0, t0), min(c1, t0 + t_chunks)
            a, b = lo - t0, hi - t0
            # chunk c reads the K blocks from c * d_mu - B/2 + 1, every lane
            first = (lo * d_mu - p.b // 2 + 1 - block_lo) % nblocks
            span = (hi - lo - 1) * d_mu + k_width
            window = slice(first, first + span - k_width + 1, d_mu)
            wrap = srcs = None
            if first + span > nblocks:  # an edge tile
                wrap = (first, edge[:, :span])
                srcs = edge_wins[:, :span - k_width + 1:d_mu].transpose(
                    0, 2, 1, 3)
            fill = [partial(np.copyto, tile[:, :a], 0),
                    partial(np.copyto, tile[:, b:], 0)] \
                if b - a < t_chunks else []
            products = []
            for f in range(frames):
                prod = res[f if segment_major else 0]
                ops = [partial(np.matmul, tile, w, out=prod)]
                if not segment_major:
                    ops.append(partial(np.copyto, ob[f, lo - c0:hi - c0],
                                       prod[:, a:b].transpose(1, 2, 0)))
                products.append(ops)
            store = partial(np.copyto,
                            ob[:, :, (lo - c0) * n_mu:(hi - c0) * n_mu],
                            lanes[:, :, a * n_mu:b * n_mu]) \
                if segment_major else None
            self._tiles.append((wrap, window, srcs, fill, tile[:, a:b],
                                products, store))

    def __call__(self, x: np.ndarray) -> None:
        """The walk over *x*, ``(frames, nblocks * S)`` (or one frame)."""
        xb, wins = x.reshape(self._shape), None
        for wrap, window, srcs, fill, dst, products, store in self._tiles:
            if wrap is not None:
                _wrap_blocks(xb, *wrap)
            else:  # the tile's windows, in place
                if wins is None:
                    wins = _windows(xb, self._k)
                srcs = wins[:, window].transpose(0, 2, 1, 3)
            for op in fill:
                op()
            for src, ops in zip(srcs, products):
                np.copyto(dst, src)
                for op in ops:
                    op()
            if store is not None:  # F_S in cache, then the segment rows
                lane_fft(self._lanes[0], self._tables, out=self._lanes[1],
                         workspace=self._workspace)
                store()


def convolve_reference(x_ext: np.ndarray, tables: SoiTables, j_start: int,
                       n_rows: int, block_lo: int) -> np.ndarray:
    """Literal triple-loop W*x (test oracle; tiny sizes only)."""
    p = tables.params
    s, b_width, n_mu = p.n_segments, p.b, p.n_mu
    m0 = input_block_offsets(p, j_start, n_rows) - block_lo
    out = np.zeros((n_rows, s), dtype=np.complex128)
    for jl in range(n_rows):
        r = (j_start + jl) % n_mu
        for b in range(b_width):
            base = (m0[jl] + b) * s
            for lane in range(s):
                out[jl, lane] += tables.coeffs[r, b, lane] * x_ext[base + lane]
    return out


class ConvStrategy(Enum):
    """The paper's Fig 11 execution strategies for the convolution."""

    #: Fig 6(a) row-major traversal: whole coefficient table (n_mu*B*S)
    #: is live per chunk; overflows private LLCs as S grows.
    BASELINE = "baseline"
    #: Fig 6(b) decomposed form with loop interchange: per-lane slice
    #: (n_mu*B) is live; costs one extra memory sweep (the F_S fusion of
    #: the baseline is impossible), mitigated by non-temporal stores.
    INTERCHANGE = "interchange"
    #: Interchange + circular-buffer staging of the stride-S lane inputs
    #: into contiguous storage, eliminating cache conflict misses.
    BUFFERED = "buffering"

    # -- locality characteristics ------------------------------------------

    def working_set_bytes(self, params: SoiParams) -> int:
        """Coefficient bytes live in cache during the inner loops."""
        if self is ConvStrategy.BASELINE:
            return params.n_mu * params.b * params.n_segments * 16
        return params.n_mu * params.b * 16

    def input_stride_bytes(self, params: SoiParams) -> int:
        """Stride of consecutive input touches in the inner loop."""
        if self is ConvStrategy.BASELINE:
            return params.n_segments * 16  # row walks lanes via b*S+p jumps
        if self is ConvStrategy.INTERCHANGE:
            return params.n_segments * 16  # lane access: stride S elements
        return 16  # buffered: contiguous staging buffer

    def extra_sweeps(self) -> float:
        """Extra full memory sweeps relative to the fused baseline (§5.3)."""
        return 0.0 if self is ConvStrategy.BASELINE else 1.0

    # -- ledger & trace -------------------------------------------------------

    def ledger(self, params: SoiParams, n_rows: int) -> SweepLedger:
        """Memory sweeps for computing *n_rows* output rows on one process."""
        led = SweepLedger()
        s = params.n_segments
        in_elems = n_rows * s * params.d_mu // params.n_mu  # input consumed
        out_elems = n_rows * s
        led.load("conv input", in_elems,
                 stride_bytes=self.input_stride_bytes(params))
        led.store("conv output", out_elems, non_temporal=True)
        if self is ConvStrategy.BUFFERED:
            # circular buffer: d_mu staged loads/stores per chunk of B reuse
            staged = int(in_elems)
            led.load("buffer staging", staged, stride_bytes=s * 16)
            led.store("buffer staging", staged)
        if self is not ConvStrategy.BASELINE:
            # decomposed form: F_S cannot be fused -> one extra sweep pair
            led.load("refetch for F_S", out_elems)
        table = params.n_mu * params.b * (s if self is ConvStrategy.BASELINE else 1)
        led.load("coeff table", table)
        return led

    def address_trace(self, params: SoiParams, n_chunks: int = 4,
                      base: int = 0) -> np.ndarray:
        """Byte-address trace (inputs + coefficient table) for the cache sim.

        Emits the access pattern of *n_chunks* convolution chunks in this
        strategy's traversal order.  The coefficient table lives in its own
        address region: row-major (n_mu, B, S) for the baseline (all
        n_mu*B*S live per chunk — the §5.3 spill), per-lane compact
        (n_mu*B) slices for the decomposed forms.
        """
        p = params
        s, b_width, n_mu, d_mu = p.n_segments, p.b, p.n_mu, p.d_mu
        item = 16
        table_base = base + 2 ** 28  # coefficient region
        buf_base = base + 2 ** 30  # contiguous staging region (buffered)
        addrs: list[int] = []
        if self is ConvStrategy.BASELINE:
            for c in range(n_chunks):
                shift = c * d_mu * s
                for r in range(n_mu):
                    for b in range(b_width):
                        for lane in range(s):
                            addrs.append(table_base
                                         + ((r * b_width + b) * s + lane) * item)
                            addrs.append(base + (shift + b * s + lane) * item)
        elif self is ConvStrategy.INTERCHANGE:
            for lane in range(s):
                lane_table = table_base + lane * n_mu * b_width * item
                for c in range(n_chunks):
                    shift = c * d_mu * s
                    for r in range(n_mu):
                        for b in range(b_width):
                            addrs.append(lane_table + (r * b_width + b) * item)
                            addrs.append(base + (shift + b * s + lane) * item)
        else:  # BUFFERED: stage d_mu new blocks per chunk, then hit buffer
            for lane in range(s):
                lane_table = table_base + lane * n_mu * b_width * item
                for b in range(b_width):  # initial fill
                    addrs.append(base + (b * s + lane) * item)
                    addrs.append(buf_base + b * item)
                for c in range(n_chunks):
                    shift = c * d_mu * s
                    for b in range(d_mu):  # incremental refill
                        addrs.append(base + (shift + (b_width + b) * s + lane) * item)
                        addrs.append(buf_base + ((b_width + b) % b_width) * item)
                    for r in range(n_mu):
                        for b in range(b_width):
                            addrs.append(lane_table + (r * b_width + b) * item)
                            addrs.append(buf_base + ((c * d_mu + b) % b_width) * item)
        return np.asarray(addrs, dtype=np.int64)


def conv_time_model(params: SoiParams, machine: MachineSpec,
                    strategy: ConvStrategy = ConvStrategy.BUFFERED,
                    compute_efficiency: float = 0.40) -> float:
    """Modeled per-process convolution time (seconds) — the Fig 11 curves.

    The streaming part (inputs, outputs, extra sweep of the decomposed
    form) overlaps compute under the roofline; *miss* traffic does not —
    cache misses stall the inner product loops — so it is additive:

    * table-spill traffic: once the live coefficient set exceeds the LLC
      slice (baseline: n_mu*B*S, proportional to the cluster size), the
      cyclic chunk reuse thrashes and the table is re-streamed per chunk;
    * conflict traffic: stride-S input walks (interchange without the
      circular buffer) fetch a full 64-byte line per 16-byte element and,
      as the B-deep window's footprint approaches the LLC, power-of-two
      strides alias into few sets and the n_mu-fold reuse refetches.

    Constant choices are validated in direction (not magnitude) against
    the cache simulator in tests/test_convolution.py.
    """
    p = params
    flops = p.conv_flops / p.n_procs
    rows = p.rows_per_process
    s = p.n_segments
    in_bytes = rows * s * 16 * p.d_mu / p.n_mu
    out_bytes = rows * s * 16
    streaming = in_bytes + out_bytes + strategy.extra_sweeps() * out_bytes
    if strategy is ConvStrategy.BUFFERED:
        streaming += 2 * in_bytes * (p.d_mu / p.b)  # staging copies

    llc = machine.llc_bytes_per_core if machine.llc_private \
        else machine.llc_bytes_total
    miss_traffic = 0.0
    ws = strategy.working_set_bytes(p)
    if ws > llc:
        chunks = rows / p.n_mu
        miss_traffic += chunks * min(ws, 2.0 * (ws - llc))
    if strategy is not ConvStrategy.BUFFERED:
        stride = strategy.input_stride_bytes(p)
        if stride > 512:
            line_factor = 4.0  # 64-byte line per 16-byte element
            reuse_refetch = 1.0 + (p.n_mu - 1) * min(1.0, p.b * stride / llc)
            miss_traffic += in_bytes * (line_factor * reuse_refetch - 1.0)

    t_comp = machine.flop_time(flops, compute_efficiency)
    t_stream = machine.mem_time(streaming)
    t_miss = machine.mem_time(miss_traffic)
    return max(t_comp, t_stream) + t_miss
