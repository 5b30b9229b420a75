"""Window design for SOI: the matrix W's coefficients and their inverse.

The convolution-and-oversampling operator W (paper §2, Fig 6a) is built
from samples of a bandpass window function h.  Requirements:

* time support ``B*S`` samples (B blocks of S) so each output row is a
  length-B inner product per lane;
* frequency response with passband covering one segment of interest
  [0, M) and stopband beyond +-M' so that the only surviving aliases of
  the rate-mu/S resampling are attenuated to the target accuracy;
* well-conditioned passband response, since demodulation divides by it.

Two families are provided: a Kaiser-windowed sinc (default; near-optimal
attenuation for a given support) and a Gaussian-tapered sinc (the choice
discussed in the SC'12 SOI paper).  The achievable stopband depends only
on the time-bandwidth product ``B * (mu - 1)`` — which is exactly why the
paper's B=72, mu=8/7 configuration lands near 1e-8 and mu=5/4 reaches
machine precision.

The demodulation table is exact by construction: the pipeline's response
to a pure tone at bin s*M + k is computed in closed form from the same
coefficient table the convolution uses (see DESIGN.md §4), so the *only*
error left is out-of-band aliasing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.params import SoiParams
from repro.fft.plan import get_plan, on_clear

__all__ = [
    "GaussianSincWindow",
    "KaiserSincWindow",
    "SoiTables",
    "build_tables",
    "get_tables",
    "kaiser_attenuation_db",
]


def kaiser_attenuation_db(b: int, mu: float, cap_db: float = 300.0) -> float:
    """Predicted stopband attenuation (dB) for support B and oversampling mu.

    Kaiser's empirical FIR design formula: a filter of length L taps and
    normalized transition width dw (rad) achieves A ~= 2.285 * L * dw + 8.
    Here L = B*S lattice taps and dw = 2*pi*(mu-1)*M/N, so L*dw collapses
    to 2*pi*B*(mu-1) — independent of problem size, as the paper's fixed
    B=72 presumes.
    """
    a = 2.285 * 2.0 * np.pi * b * (mu - 1.0) + 8.0
    return float(min(a, cap_db))


def _kaiser_beta(a_db: float) -> float:
    """Kaiser window shape parameter for target attenuation *a_db*."""
    if a_db > 50.0:
        return 0.1102 * (a_db - 8.7)
    if a_db >= 21.0:
        return 0.5842 * (a_db - 21.0) ** 0.4 + 0.07886 * (a_db - 21.0)
    return 0.0


class KaiserSincWindow:
    """Kaiser-windowed complex bandpass sinc (default SOI window)."""

    def __init__(self, params: SoiParams, attenuation_db: float | None = None):
        self.params = params
        if attenuation_db is None:
            attenuation_db = kaiser_attenuation_db(params.b, params.mu)
        if attenuation_db <= 0:
            raise ValueError("attenuation must be positive dB")
        self.attenuation_db = float(attenuation_db)
        self._beta = _kaiser_beta(self.attenuation_db)

    @property
    def expected_stopband(self) -> float:
        """Linear stopband level (upper bound on per-bin alias leakage)."""
        return 10.0 ** (-self.attenuation_db / 20.0)

    def time_response(self, t: np.ndarray) -> np.ndarray:
        """h(t): complex window samples (vectorized over t)."""
        p = self.params
        t = np.asarray(t, dtype=np.float64)
        n, s = p.n, p.n_segments
        support = p.b * s  # total time support
        cutoff = p.m_oversampled / 2.0  # lowpass prototype cutoff (bins)
        center = p.m / 2.0  # passband center (bins)
        u = 2.0 * t / support
        taper = np.zeros_like(t)
        inside = np.abs(u) <= 1.0
        taper[inside] = np.i0(self._beta * np.sqrt(1.0 - u[inside] ** 2)) / np.i0(self._beta)
        lowpass = (2.0 * cutoff / n) * np.sinc(2.0 * cutoff * t / n) * taper
        return lowpass * np.exp(2j * np.pi * center * t / n)


class GaussianSincWindow:
    """Gaussian-tapered complex bandpass sinc (SC'12-style alternative).

    ``sigma_factor`` sets the truncation point in standard deviations:
    sigma = support / (2 * sigma_factor); larger factors truncate more
    cleanly but widen the frequency-domain Gaussian.
    """

    def __init__(self, params: SoiParams, sigma_factor: float = 6.0):
        if sigma_factor <= 0:
            raise ValueError("sigma_factor must be positive")
        self.params = params
        self.sigma_factor = float(sigma_factor)

    @property
    def expected_stopband(self) -> float:
        """Heuristic stopband: the larger of truncation and frequency tails."""
        p = self.params
        trunc = float(np.exp(-self.sigma_factor ** 2 / 2.0))
        support = p.b * p.n_segments
        sigma_t = support / (2.0 * self.sigma_factor)
        sigma_f = p.n / (2.0 * np.pi * sigma_t)  # bins
        transition = (p.mu - 1.0) * p.m / 2.0
        tail = float(np.exp(-(transition / sigma_f) ** 2 / 2.0))
        return max(trunc, tail)

    def time_response(self, t: np.ndarray) -> np.ndarray:
        p = self.params
        t = np.asarray(t, dtype=np.float64)
        n = p.n
        support = p.b * p.n_segments
        sigma = support / (2.0 * self.sigma_factor)
        cutoff = p.m_oversampled / 2.0
        center = p.m / 2.0
        taper = np.exp(-0.5 * (t / sigma) ** 2)
        taper[np.abs(t) > support / 2.0] = 0.0
        lowpass = (2.0 * cutoff / n) * np.sinc(2.0 * cutoff * t / n) * taper
        return lowpass * np.exp(2j * np.pi * center * t / n)


@dataclass(frozen=True, eq=False)
class SoiTables:
    """The design record of one SoiParams + window combination: immutable
    (read-only arrays) and shared by its holders (:func:`get_tables`)."""

    params: SoiParams
    coeffs: np.ndarray  # (n_mu, B, S) complex convolution taps w[r, b, p]
    q_r: np.ndarray  # (n_mu,) integer block offsets floor(r*d/n)
    f_r: np.ndarray  # (n_mu,) fractional phases frac(r*d/n)
    demod: np.ndarray  # (M,) normalized demodulation: y = beta[:M] / demod
    expected_stopband: float
    _derived: dict = field(default_factory=dict, init=False, repr=False)

    def derived(self, key, compute):
        """``compute()``, memoized on this record under *key*: GEMM operands
        per dtype, the analyses of :mod:`repro.core.error_model`, a worker's
        rank-local state.  Deterministic, so a racing duplicate is dropped."""
        try:
            return self._derived[key]
        except KeyError:
            return self._derived.setdefault(key, compute())

    @property
    def distinct_coefficients(self) -> int:
        """n_mu * B * S — the paper's working-set size for convolution."""
        return self.coeffs.size

    def gemm_coeffs(self, dtype) -> np.ndarray:
        """The taps as per-lane GEMM operands, shape ``(S, K, n_mu)``.

        Column ``r`` of lane ``p`` holds ``coeffs[r, :, p]`` shifted down
        by ``q_r[r]`` inside ``K = B + max(q_r)`` zero-padded rows, so all
        ``n_mu`` rows of a chunk contract against the *same* K-wide input
        window (:func:`repro.core.convolution.convolve`).  Cast and
        widened once per dtype and shared read-only.
        """
        def widen():
            p = self.params
            w = np.zeros((p.n_segments, p.b + int(self.q_r.max()), p.n_mu),
                         dtype=dtype)
            for r, q in enumerate(self.q_r):
                w[:, q:q + p.b, r] = self.coeffs[r].T
            return _read_only(w)
        return self.derived(("gemm", np.dtype(dtype).str), widen)

    @property
    def demod_condition(self) -> float:
        """max|demod| / min|demod|: amplification of aliasing at band edges."""
        mags = np.abs(self.demod)
        return float(mags.max() / mags.min())


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def build_tables(params: SoiParams, window=None) -> SoiTables:
    """Sample the window into the convolution table and invert its response.

    The tap for output phase r, block b, lane p is
    ``h((f_r + B/2 - 1 - b) * S - p)`` — the structured sparse W of paper
    Fig 6(a) stored compactly as its n_mu*B*S distinct elements.  The
    uncached builder: pipelines ask :func:`get_tables`.
    """
    if window is None:
        window = KaiserSincWindow(params)
    p = params
    n_mu, d_mu, b_width, s = p.n_mu, p.d_mu, p.b, p.n_segments
    r = np.arange(n_mu)
    f_r = (r * d_mu % n_mu) / n_mu
    q_r = (r * d_mu) // n_mu
    b = np.arange(b_width)
    lanes = np.arange(s)
    t = (f_r[:, None, None] + b_width / 2 - 1 - b[None, :, None]) * s \
        - lanes[None, None, :]
    coeffs = np.ascontiguousarray(window.time_response(t).astype(np.complex128))
    demod = _demod_table(p, coeffs, q_r)
    mags = np.abs(demod)
    if mags.min() <= 10.0 * np.finfo(np.float64).tiny:
        raise ValueError("window response vanishes inside the segment of "
                         "interest; demodulation would be singular")
    for table in (coeffs, q_r, f_r, demod):
        table.flags.writeable = False
    return SoiTables(
        params=p,
        coeffs=coeffs,
        q_r=q_r,
        f_r=f_r,
        demod=demod,
        expected_stopband=float(window.expected_stopband),
    )


#: Default-window records of this process, oldest first; every access is
#: one atomic dict operation, so there is no lock for a fork to inherit held.
_MAX_RECORDS = 64
_records: dict = {}
on_clear.append(_records.clear)


def get_tables(params: SoiParams, window=None) -> SoiTables:
    """The design record of a geometry, built once per process and shared:
    every pipeline, verifier and ladder rung of one ``params`` holds the
    same immutable :class:`SoiTables` (and the analyses memoized on it).
    Forked workers inherit the records, :func:`repro.fft.plan.cache_clear`
    drops them, and a custom *window* is built uncached.
    """
    tables = _records.get(params) if window is None else None
    if tables is None:
        tables = build_tables(params, window)
        if window is None:
            # two threads may both have built: the first to land is kept
            tables = _records.setdefault(params, tables)
            for oldest in list(_records)[:-_MAX_RECORDS]:
                _records.pop(oldest, None)
    return tables


def _demod_table(p: SoiParams, coeffs: np.ndarray, q_r: np.ndarray) -> np.ndarray:
    """Exact tone response of the pipeline, normalized so y = beta / demod.

    demod[k] = (M'/(n_mu*N)) * sum_r exp(-2pi i r k / M')
               * exp(+2pi i k (q_r - B/2 + 1) S / N) * G_r(k)
    with G_r(k) = sum_{b,l} w[r,b,l] exp(+2pi i k (b*S + l)/N), one
    inverse FFT of row r's zero-padded taps.  The rows go one at a time
    through one reused row buffer (a row is bitwise its batch's row), the
    sum accumulates in r order as ``sum(axis=0)`` adds, and the length-n
    plan, which no pipeline runs, gives its workspaces back at the end:
    the cached plan would otherwise pin them for the life of the process.
    """
    n, s, b_width = p.n, p.n_segments, p.b
    m, mp, n_mu = p.m, p.m_oversampled, p.n_mu
    plan = get_plan(n, +1)
    row = np.empty(n, dtype=np.complex128)
    g = np.empty(n, dtype=np.complex128)
    k = np.arange(m)
    d = None
    for r in range(n_mu):
        row[: b_width * s] = coeffs[r].reshape(-1)
        row[b_width * s:] = 0.0  # the transform overwrote the padding
        # G_r(k) = N * ifft(row)[k]; our inverse plan scales by 1/N already.
        plan(row, out=g, overwrite_x=True)
        gr = np.multiply(g[:m], n, out=g[:m])
        q = q_r[r] - b_width // 2 + 1
        phase = np.exp(-2j * np.pi * (r * k) / mp
                       + 2j * np.pi * (q * k) * s / n)
        # in place, phase first: numpy's complex product rounds by operand
        # order, so the batched table's ``phase * g`` fixes it
        term = np.multiply(phase, gr, out=phase)
        d = term if d is None else np.add(d, term, out=d)
    plan.release_workspaces()
    return d * (mp / (n_mu * float(n)))
