"""From-scratch FFT substrate: Stockham engine, Bluestein, Bailey 6-step.

This subpackage plays the role MKL's DFTI plays in the paper: node-local
FFT kernels.  Everything is implemented from first principles and verified
against the naive DFT; ``numpy.fft`` is used only as an independent test
oracle, never inside the library.

Planned, zero-allocation execution
----------------------------------
All plans follow one workspace contract:

* ``get_plan(n, sign, dtype)`` is the ONE dtype-aware plan cache —
  ``fft``/``ifft``/``fft_stockham`` all share it; ``cache_clear()`` /
  ``cache_info()`` manage it.
* A plan lazily allocates its workspaces per distinct batch size and
  calling thread, and reuses them forever after — calling a plan twice
  never re-allocates and always returns independent result arrays, and
  one cached plan may run on several threads at once.
* ``plan(x, out=buf)`` writes into a caller-owned, C-contiguous array of
  the plan dtype.  ``out`` may alias ``x`` (in-place transform) or any
  previously returned result; it never aliases the internal pool.  With
  ``out=`` the steady state performs zero heap allocations
  (``tests/test_zero_alloc.py::TestNoLargeAllocations`` asserts this
  with ``tracemalloc``).
* The input comes back untouched unless the caller grants
  ``plan(x, out=buf, overwrite_x=True)``: then ``x`` is a Stockham
  plan's work buffer and it pools only the alternate.
* ``plan.pooled(x, overwrite_x=...)`` leaves the result where the plan
  wrote it (``x`` or the calling thread's pool, valid until its next call
  at that batch size): what :func:`repro.core.demodulate.back` reads.
* ``plan.release_workspaces()`` drops the calling thread's pooled buffers.

A Stockham plan's passes are batched GEMMs: ``default_radices(n)`` is the
schedule every ``get_plan`` plan runs and ``gemm_tile`` the one rule that
sizes every product, which is what makes ``plan(xs)[i]`` bitwise
``plan(xs[i:i+1])[0]`` under any BLAS thread pool.
"""

from repro.fft.autotune import (AutotuneReport, KernelResult, TuneBudget,
                                autotune, candidate_radix_plans,
                                kernel_candidates, render_speedup_table,
                                tune_kernel)
from repro.fft.bitops import default_radices, gemm_tile
from repro.fft.bluestein import BluesteinPlan, bluestein_fft
from repro.fft.codelet import CODELET_SIZES, generate_codelet_source, get_codelet
from repro.fft.convolve import fft_convolve, fft_correlate
from repro.fft.dft import dft, dft_matrix, idft
from repro.fft.layout import SoAView, from_aos, packet_lengths, to_aos
from repro.fft.multistep import multistep_fft, multistep_sweeps
from repro.fft.plan import cache_clear, cache_info, fft, get_plan, ifft
from repro.fft.prime_factor import PrimeFactorPlan, crt_maps, pfa_fft
from repro.fft.rader import RaderPlan, primitive_root, rader_fft
from repro.fft.real import irfft, rfft, rfft_pair
from repro.fft.sixstep import SixStepResult, sixstep_fft
from repro.fft.stockham import StockhamPlan, fft_flops, fft_stockham
from repro.fft.transpose import blocked_transpose, stride_permutation_indices
from repro.fft.twiddle import SplitTwiddle, twiddle_table
from repro.fft.wisdom import WISDOM_VERSION, Wisdom, machine_fingerprint

__all__ = [
    "AutotuneReport",
    "BluesteinPlan",
    "CODELET_SIZES",
    "KernelResult",
    "TuneBudget",
    "WISDOM_VERSION",
    "autotune",
    "PrimeFactorPlan",
    "RaderPlan",
    "crt_maps",
    "default_radices",
    "pfa_fft",
    "primitive_root",
    "rader_fft",
    "generate_codelet_source",
    "get_codelet",
    "SixStepResult",
    "SoAView",
    "SplitTwiddle",
    "StockhamPlan",
    "blocked_transpose",
    "bluestein_fft",
    "cache_clear",
    "cache_info",
    "Wisdom",
    "candidate_radix_plans",
    "dft",
    "dft_matrix",
    "fft",
    "fft_convolve",
    "fft_correlate",
    "fft_flops",
    "fft_stockham",
    "gemm_tile",
    "from_aos",
    "get_plan",
    "idft",
    "ifft",
    "irfft",
    "kernel_candidates",
    "machine_fingerprint",
    "multistep_fft",
    "multistep_sweeps",
    "packet_lengths",
    "render_speedup_table",
    "rfft",
    "rfft_pair",
    "sixstep_fft",
    "stride_permutation_indices",
    "to_aos",
    "tune_kernel",
    "twiddle_table",
]
