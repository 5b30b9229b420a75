"""FFTW-style plan autotuner: measured search over the plan space.

The paper picks its decomposition empirically ("we use radix 8 and 16,
case by case", §5.2.4; Table 3's mu and B choices) — the right segment
count, oversampling ratio, convolution width, and radix schedule depend
on the size *and* the machine.  This module automates that choice:

* :func:`tune_kernel` searches the kernel-plan space for one
  ``(n, sign, dtype)`` — Stockham radix ladders for smooth sizes,
  Bluestein for the rest — with measured-time arbitration;
* :func:`tune_soi` searches the SOI pipeline space (segment count,
  mu = n_mu/d_mu, B taps, convolution inner kernel) under an accuracy
  guard: a candidate whose design stopband is worse than the default's
  is never eligible, so tuning can only change speed, not answers;
* :func:`autotune` drives both over a size list under a
  :class:`TuneBudget` and records winners into a versioned
  :class:`~repro.fft.wisdom.Wisdom` store keyed by
  ``(n, dtype, machine_fingerprint)``.

Search is exhaustive while the candidate set is small and falls back to
a seeded greedy beam (coordinate descent over the axes, keeping the
best-so-far configuration) when the cross product grows — the FFTW
``ESTIMATE``/``MEASURE`` split in miniature.  The default configuration
is always measured first and always remains a candidate, so a tuned
entry is never slower than the default *by its own measurements*
(``python -m repro autotune`` checks that tuned and default plans give
the same answers, and at full sizes that tuning pays at all).

Winners persist through :meth:`Wisdom.save` and are consumed
transparently: :func:`repro.fft.plan.set_active_wisdom` routes every
``get_plan`` call (and with it every :class:`~repro.core.soi_single
.SoiFFT` lane/segment transform) through the tuned schedules.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.fft.bitops import default_radices
from repro.fft.bluestein import BluesteinPlan
from repro.fft.stockham import StockhamPlan
from repro.fft.wisdom import Wisdom, candidate_radix_plans, \
    machine_fingerprint

__all__ = ["AutotuneReport", "KernelResult", "SoiResult", "TuneBudget",
           "autotune", "default_radices", "default_soi_config",
           "kernel_candidates", "render_speedup_table", "soi_candidates",
           "tune_kernel", "tune_soi"]

#: Above this many candidates the search switches from exhaustive to a
#: seeded greedy beam (coordinate descent).
EXHAUSTIVE_LIMIT = 12

#: A tuned SOI candidate must not be designed looser than the default by
#: more than this stopband ratio (1.0 = never looser; slight slack keeps
#: equal-accuracy reorderings eligible under float rounding).
ACCURACY_SLACK = 1.0 + 1e-9


@dataclass
class TuneBudget:
    """Wall-clock/trial budget for one autotuning run.

    The budget is consulted *between* measurements: a measurement that
    started runs to completion (the same stage-boundary contract the
    serving deadlines use), and the default candidate is always measured
    even on an exhausted budget so every result carries a baseline.
    """

    seconds: float = 30.0
    max_trials: int | None = None
    trials: int = 0
    _t0: float | None = field(default=None, repr=False)

    def start(self) -> "TuneBudget":
        if self._t0 is None:
            self._t0 = time.perf_counter()
        return self

    @property
    def spent_seconds(self) -> float:
        return 0.0 if self._t0 is None else time.perf_counter() - self._t0

    def exhausted(self) -> bool:
        self.start()
        if self.max_trials is not None and self.trials >= self.max_trials:
            return True
        return self.spent_seconds >= self.seconds

    def charge(self) -> None:
        self.trials += 1


def kernel_candidates(n: int, dtype=np.complex128) -> list[dict]:
    """Candidate kernel plans for one size, the default strategy first.

    Smooth sizes enumerate the Stockham radix ladders of
    :func:`~repro.fft.wisdom.candidate_radix_plans`; non-smooth sizes
    have exactly one legal strategy (Bluestein) so their candidate list
    is the default alone — the autotuner must never migrate a size onto
    a kernel that changes answers beyond schedule-level rounding.
    """
    default = default_radices(n)
    if default is None:
        if np.dtype(dtype).name != "complex128":
            raise ValueError("single-precision plans require a "
                             "(2,3,5,7)-smooth length")
        return [{"strategy": "bluestein", "radices": []}]
    out = [{"strategy": "stockham", "radices": list(default)}]
    for radices in candidate_radix_plans(n):
        cand = {"strategy": "stockham", "radices": list(radices)}
        if cand not in out:
            out.append(cand)
    return out


def _build_kernel(n: int, sign: int, dtype, cand: dict):
    if cand["strategy"] == "bluestein":
        return BluesteinPlan(n, sign)
    return StockhamPlan(n, sign, radices=cand["radices"],
                        dtype=np.dtype(dtype).type)


def _candidate_label(cand: dict) -> str:
    if cand["strategy"] == "bluestein":
        return "bluestein"
    return "stockham:" + ",".join(map(str, cand["radices"]))


def _best_of(fn, reps: int, warmup: int = 1) -> float:
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@dataclass(frozen=True)
class KernelResult:
    """Outcome of tuning one kernel size."""

    n: int
    sign: int
    dtype: str
    winner: dict  # {"strategy": ..., "radices": [...]}
    timings: dict  # label -> best-of seconds
    default_s: float
    tuned_s: float
    trials: int
    budget_exhausted: bool

    @property
    def tuned_is_default(self) -> bool:
        return self.winner == kernel_candidates(
            self.n, np.dtype(self.dtype))[0]

    @property
    def speedup(self) -> float:
        return self.default_s / self.tuned_s if self.tuned_s else 1.0


def tune_kernel(n: int, sign: int = -1, dtype=np.complex128, *,
                budget: TuneBudget | None = None, batch: int = 4,
                reps: int = 3, rng_seed: int = 2013) -> KernelResult:
    """Measure kernel candidates for one size; return the winner.

    The default candidate is measured first and unconditionally; the
    rest run exhaustively when few, or as a seeded random subset under
    the budget when many.  The winner is the measured minimum, so it can
    only tie or beat the default.
    """
    budget = (budget or TuneBudget()).start()
    dt = np.dtype(dtype)
    rng = np.random.default_rng(rng_seed)
    x = (rng.standard_normal((batch, n))
         + 1j * rng.standard_normal((batch, n))).astype(dt.type)
    candidates = kernel_candidates(n, dt)
    if len(candidates) > EXHAUSTIVE_LIMIT:
        head, tail = candidates[:1], candidates[1:]
        order = rng.permutation(len(tail))
        candidates = head + [tail[i] for i in order[:EXHAUSTIVE_LIMIT]]
    timings: dict[str, float] = {}
    best: tuple[float, dict] | None = None
    exhausted = False
    for i, cand in enumerate(candidates):
        if i > 0 and budget.exhausted():
            exhausted = True
            break
        plan = _build_kernel(n, sign, dt, cand)
        t = _best_of(lambda: plan(x), reps)
        budget.charge()
        timings[_candidate_label(cand)] = t
        if best is None or t < best[0]:
            best = (t, cand)
    assert best is not None
    default_s = timings[_candidate_label(candidates[0])]
    return KernelResult(n=n, sign=sign, dtype=dt.name, winner=best[1],
                        timings=timings, default_s=default_s,
                        tuned_s=best[0], trials=len(timings),
                        budget_exhausted=exhausted)


# ---------------------------------------------------------------------------
# SOI pipeline tuning
# ---------------------------------------------------------------------------

_SEGMENT_CHOICES = (4, 8, 16, 32)
_MU_CHOICES = ((8, 7), (5, 4), (9, 8), (4, 3))
_B_CHOICES = (48, 72, 96)


def _soi_params(n: int, cand: dict):
    # deferred import: repro.core imports repro.fft at package-init time,
    # so the arrow must not point back until call time
    from repro.core.params import SoiParams
    return SoiParams(n=n, n_procs=1,
                     segments_per_process=cand["segments"],
                     n_mu=cand["n_mu"], d_mu=cand["d_mu"], b=cand["b"])


def _soi_valid(n: int, cand: dict, floor_db: float) -> bool:
    from repro.core.window import kaiser_attenuation_db
    try:
        _soi_params(n, cand)
    except ValueError:
        return False
    att = kaiser_attenuation_db(cand["b"], cand["n_mu"] / cand["d_mu"])
    # accuracy guard: the candidate's designed stopband must be at least
    # as tight as the default's — tuning buys speed, never accuracy
    return 10.0 ** (-att / 20.0) <= \
        ACCURACY_SLACK * 10.0 ** (-floor_db / 20.0)


def default_soi_config(n: int) -> dict:
    """The configuration :func:`repro.core.soi_single.soi_fft` would use.

    ``soi_fft``'s literal defaults (S=8, mu=8/7, B=72) require a factor
    of 7 in the segment length, so the canonical default walks the same
    preference order a user would: mu = 8/7, then 5/4, 9/8, 4/3, at
    S=8 then the other segment counts, B=72 throughout.
    """
    for segments in (8,) + tuple(s for s in _SEGMENT_CHOICES if s != 8):
        for n_mu, d_mu in _MU_CHOICES:
            cand = {"segments": segments, "n_mu": n_mu, "d_mu": d_mu,
                    "b": 72}
            if _soi_valid(n, cand, floor_db=0.0):
                return cand
    raise ValueError(f"no valid SOI configuration for n={n}")


def soi_candidates(n: int, default: dict | None = None) -> list[dict]:
    """Valid SOI configurations for size *n*, the default first.

    Only candidates whose Kaiser design bound is at least as tight as
    the default's survive — see :func:`tune_soi`.
    """
    from repro.core.window import kaiser_attenuation_db

    default = dict(default_soi_config(n) if default is None else default)
    if not _soi_valid(n, default, floor_db=0.0):
        raise ValueError(f"default SOI configuration is invalid for n={n}")
    floor_db = kaiser_attenuation_db(default["b"],
                                     default["n_mu"] / default["d_mu"])
    out = [default]
    for segments in _SEGMENT_CHOICES:
        for n_mu, d_mu in _MU_CHOICES:
            for b in _B_CHOICES:
                cand = {"segments": segments, "n_mu": n_mu, "d_mu": d_mu,
                        "b": b}
                if cand != default and _soi_valid(n, cand, floor_db):
                    out.append(cand)
    return out


@dataclass(frozen=True)
class SoiResult:
    """Outcome of tuning one SOI pipeline size."""

    n: int
    dtype: str
    winner: dict
    timings: dict  # label -> best-of seconds
    default_s: float
    tuned_s: float
    trials: int
    budget_exhausted: bool

    @property
    def tuned_is_default(self) -> bool:
        return self.winner == default_soi_config(self.n)

    @property
    def speedup(self) -> float:
        return self.default_s / self.tuned_s if self.tuned_s else 1.0


def _soi_label(cand: dict) -> str:
    return (f"S{cand['segments']},mu{cand['n_mu']}/{cand['d_mu']},"
            f"B{cand['b']}")


def tune_soi(n: int, dtype=np.complex128, *,
             budget: TuneBudget | None = None, batch: int = 2,
             reps: int = 2, rng_seed: int = 2013) -> SoiResult:
    """Search the SOI configuration space for one size.

    Exhaustive when the valid candidate set is small; otherwise a greedy
    beam — coordinate descent over (segments, mu+B), always
    keeping the measured best — bounded by *budget*.  Every candidate is
    at least as accurate as the default by design bound, so the search
    trades only speed.
    """
    from repro.core.soi_single import SoiFFT
    from repro.core.window import kaiser_attenuation_db

    budget = (budget or TuneBudget()).start()
    dt = np.dtype(dtype)
    rng = np.random.default_rng(rng_seed)
    xs = (rng.standard_normal((batch, n))
          + 1j * rng.standard_normal((batch, n))).astype(dt.type)

    timings: dict[str, float] = {}
    exhausted = False

    def measure(cand: dict) -> float:
        label = _soi_label(cand)
        if label in timings:
            return timings[label]
        plan = SoiFFT(_soi_params(n, cand), dtype=dt)
        out = np.empty_like(xs)
        t = _best_of(lambda: plan.batch(xs, out=out), reps)
        budget.charge()
        timings[label] = t
        return t

    candidates = soi_candidates(n)
    default = candidates[0]
    best_t, best = measure(default), default
    if len(candidates) <= EXHAUSTIVE_LIMIT:
        for cand in candidates[1:]:
            if budget.exhausted():
                exhausted = True
                break
            t = measure(cand)
            if t < best_t:
                best_t, best = t, cand
    else:
        # greedy beam: sweep one axis at a time from the current best
        axes = (
            ("segments", [{"segments": s} for s in _SEGMENT_CHOICES]),
            ("mu+B", [{"n_mu": nm, "d_mu": dm, "b": b}
                      for nm, dm in _MU_CHOICES for b in _B_CHOICES]),
        )
        floor_db = kaiser_attenuation_db(default["b"],
                                         default["n_mu"] / default["d_mu"])
        for _axis, options in axes:
            if exhausted:
                break
            order = rng.permutation(len(options))
            for i in order:
                cand = {**best, **options[i]}
                if cand == best or not _soi_valid(n, cand, floor_db):
                    continue
                if budget.exhausted():
                    exhausted = True
                    break
                t = measure(cand)
                if t < best_t:
                    best_t, best = t, cand
    default_s = timings[_soi_label(default)]
    return SoiResult(n=n, dtype=dt.name, winner=best, timings=timings,
                     default_s=default_s, tuned_s=best_t,
                     trials=len(timings), budget_exhausted=exhausted)


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AutotuneReport:
    """One autotuning run: per-size results plus the budget accounting."""

    machine: str
    kernel_results: list
    soi_results: list
    budget_seconds: float
    spent_seconds: float
    trials: int

    def rows(self) -> list[dict]:
        out = []
        for r in self.kernel_results:
            out.append({"workload": "kernel", "n": r.n, "dtype": r.dtype,
                        "winner": _candidate_label(r.winner),
                        "default_s": r.default_s, "tuned_s": r.tuned_s,
                        "speedup": r.speedup,
                        "tuned_is_default": r.tuned_is_default})
        for r in self.soi_results:
            out.append({"workload": "soi", "n": r.n, "dtype": r.dtype,
                        "winner": _soi_label(r.winner),
                        "default_s": r.default_s, "tuned_s": r.tuned_s,
                        "speedup": r.speedup,
                        "tuned_is_default": r.tuned_is_default})
        return out


def autotune(sizes=(), soi_sizes=(), *, sign: int = -1,
             dtypes=("complex128",), budget: TuneBudget | None = None,
             wisdom: Wisdom | None = None, machine: str | None = None,
             batch: int = 4, reps: int = 3,
             rng_seed: int = 2013) -> AutotuneReport:
    """Tune every (size, dtype) and record winners into *wisdom*.

    Returns the report; the caller persists the wisdom
    (:meth:`Wisdom.save`) and/or installs it
    (:func:`repro.fft.plan.set_active_wisdom`).
    """
    budget = (budget or TuneBudget()).start()
    machine = machine_fingerprint() if machine is None else machine
    wisdom = Wisdom() if wisdom is None else wisdom
    kernel_results, soi_results = [], []
    for n in sizes:
        for dtype in dtypes:
            res = tune_kernel(n, sign, dtype, budget=budget, batch=batch,
                              reps=reps, rng_seed=rng_seed)
            kernel_results.append(res)
            wisdom.record_kernel(n, sign, dtype, machine,
                                 res.winner["strategy"],
                                 res.winner["radices"],
                                 tuned_s=res.tuned_s,
                                 default_s=res.default_s)
    for n in soi_sizes:
        res = tune_soi(n, budget=budget, batch=max(1, batch // 2),
                       reps=max(1, reps - 1), rng_seed=rng_seed)
        soi_results.append(res)
        wisdom.record_soi(n, res.dtype, machine,
                          segments=res.winner["segments"],
                          n_mu=res.winner["n_mu"],
                          d_mu=res.winner["d_mu"], b=res.winner["b"],
                          tuned_s=res.tuned_s, default_s=res.default_s)
    return AutotuneReport(machine=machine, kernel_results=kernel_results,
                          soi_results=soi_results,
                          budget_seconds=budget.seconds,
                          spent_seconds=budget.spent_seconds,
                          trials=budget.trials)


def render_speedup_table(report: AutotuneReport) -> str:
    """Fixed-width default-vs-tuned table (the CI artifact)."""
    header = (f"{'workload':8s} {'n':>9s} {'dtype':10s} "
              f"{'default':>11s} {'tuned':>11s} {'speedup':>8s}  winner")
    lines = [f"autotune (machine {report.machine}, "
             f"{report.trials} trials, "
             f"{report.spent_seconds:.2f}s of {report.budget_seconds:.0f}s "
             f"budget)", header, "-" * len(header)]
    for row in report.rows():
        lines.append(
            f"{row['workload']:8s} {row['n']:>9d} {row['dtype']:10s} "
            f"{row['default_s'] * 1e3:9.3f}ms {row['tuned_s'] * 1e3:9.3f}ms "
            f"{row['speedup']:7.2f}x  {row['winner']}"
            + ("  (default)" if row["tuned_is_default"] else ""))
    return "\n".join(lines)
