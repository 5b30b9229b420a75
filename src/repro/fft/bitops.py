"""Integer helpers shared by the FFT kernels: powers, factorization, reversal.

These are the classic index-arithmetic building blocks of FFT libraries
(bit/digit reversal for decimation orderings, radix factorization for plan
construction).  Everything here is pure integer math with NumPy-vectorized
variants where the tables get large.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "bit_reverse_indices",
    "default_radices",
    "digit_reverse_indices",
    "factorize_radices",
    "gemm_tile",
    "ilog2",
    "is_power_of_two",
    "largest_factor_leq_sqrt",
    "mixed_radix_factors",
    "split_balanced",
]


def is_power_of_two(n: int) -> bool:
    """True iff *n* is a positive power of two (1 counts)."""
    return n > 0 and (n & (n - 1)) == 0


def ilog2(n: int) -> int:
    """Exact integer log2; raises if *n* is not a power of two."""
    if not is_power_of_two(n):
        raise ValueError(f"{n} is not a power of two")
    return n.bit_length() - 1


def bit_reverse_indices(n: int) -> np.ndarray:
    """Permutation ``perm`` with ``perm[i]`` = bit-reversal of ``i`` (n = 2**s)."""
    s = ilog2(n)
    idx = np.arange(n, dtype=np.int64)
    rev = np.zeros(n, dtype=np.int64)
    for bit in range(s):
        rev |= ((idx >> bit) & 1) << (s - 1 - bit)
    return rev


def digit_reverse_indices(radices: list[int]) -> np.ndarray:
    """Generalized digit reversal for a mixed-radix factorization.

    For ``n = r0*r1*...*rk``, index ``i`` written in mixed radix
    (most-significant digit uses ``r0``) is mapped to the index with the
    digit order reversed (and radix order reversed accordingly).
    """
    n = int(np.prod(radices))
    idx = np.arange(n, dtype=np.int64)
    digits = []
    rem = idx
    for r in reversed(radices):  # least-significant first
        digits.append(rem % r)
        rem = rem // r
    # digits[j] is the digit for radix radices[-1-j]; reassemble reversed.
    out = np.zeros(n, dtype=np.int64)
    for d, r in zip(digits, reversed(radices)):
        out = out * r + d
    return out


def factorize_radices(n: int, radices: tuple[int, ...] = (8, 4, 2)) -> list[int]:
    """Greedy power-of-two radix factorization of *n* (largest radix first)."""
    if not is_power_of_two(n):
        raise ValueError(f"{n} is not a power of two")
    out: list[int] = []
    m = n
    while m > 1:
        for r in radices:
            if m % r == 0:
                out.append(r)
                m //= r
                break
        else:  # pragma: no cover - radices always contain 2
            raise ValueError(f"cannot factor {m} with radices {radices}")
    return out


def mixed_radix_factors(n: int, primes: tuple[int, ...] = (2, 3, 5, 7)) -> list[int] | None:
    """Factor *n* into the given primes (smallest first); None if not smooth."""
    if n < 1:
        raise ValueError("n must be positive")
    out: list[int] = []
    m = n
    for p in primes:
        while m % p == 0:
            out.append(p)
            m //= p
    return out if m == 1 else None


#: Largest butterfly of the default schedule (the paper's §5.2.4 kernel
#: "uses radix 8 and 16"): a radix-r pass costs r multiply-adds per point
#: and one sweep, so 16 quarters the sweeps of radix 2 at 4x its arithmetic.
_MAX_RADIX = 16


def default_radices(n: int) -> list[int] | None:
    """The Stockham schedule an untuned plan runs: repeatedly the largest
    divisor of what is left that is at most 16 — the greedy radix-16 ladder
    for powers of two (1024 = 16*16*4), prime factors merged into few
    dense passes otherwise (12288 = 16*16*16*3).  None when *n* is not
    (2,3,5,7)-smooth; such lengths plan through Bluestein."""
    if mixed_radix_factors(n) is None:
        return None
    out: list[int] = []
    while n > 1:
        r = max(d for d in range(2, _MAX_RADIX + 1) if n % d == 0)
        out.append(r)
        n //= r
    return out


#: Multiply-adds one BLAS product stays under.  A product this small is
#: cache-resident, and OpenBLAS runs it on the calling thread: above 2**16
#: it hands a zgemm to its thread pool, a fork/join that costs more than
#: the product (measured on a 2-cpu guest: 64 ms instead of 0.1 ms per tile
#: for a process's first second of BLAS) and whose partial sums depend on
#: how the host sized the pool.
_TILE_MACS = 1 << 16


def gemm_tile(macs_per_item: int, total: int) -> int:
    """How many of *total* items (rows or columns of the streamed operand,
    *macs_per_item* multiply-adds each) one GEMM of this repo holds: the
    largest divisor of *total* that keeps the product under
    :data:`_TILE_MACS`, so every tile is full and has one shape.

    This is the shape half of the rule every bitwise contract rests on
    (batch == solo, simulator == processes, recovered == fault-free, equal
    bits under any BLAS pool): BLAS returns the same bits for the same
    operand at the same position of a same-shaped product, so each kernel
    fixes its tile from plan-time geometry alone, aligns tiles to the
    global index, and never lets a product span two transforms.  Raises
    ``ValueError`` when not even one item fits."""
    fit = (_TILE_MACS - 1) // macs_per_item
    if fit < 1:
        raise ValueError(f"one item of {macs_per_item} multiply-adds does "
                         f"not fit a GEMM tile of {_TILE_MACS}")
    return next(d for d in range(min(fit, total), 0, -1) if total % d == 0)


def largest_factor_leq_sqrt(n: int) -> int:
    """Largest divisor of *n* that is <= sqrt(n) (1 for primes)."""
    best = 1
    f = 1
    while f * f <= n:
        if n % f == 0:
            best = f
        f += 1
    return best


def split_balanced(n: int) -> tuple[int, int]:
    """Split ``n = n1 * n2`` with ``n1 <= n2`` as balanced as possible.

    Used by the Bailey 6-step decomposition: for powers of two this returns
    (2**floor(s/2), 2**ceil(s/2)); for general n it uses the largest divisor
    below sqrt(n).
    """
    if is_power_of_two(n):
        s = ilog2(n)
        return 1 << (s // 2), 1 << (s - s // 2)
    n1 = largest_factor_leq_sqrt(n)
    return n1, n // n1
