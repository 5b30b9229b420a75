"""FFTW-style kernel autotuner: does any radix schedule beat the rule?

The plan cache (:func:`repro.fft.plan.get_plan`) picks a schedule by a
rule, :func:`~repro.fft.bitops.default_radices`, the way the paper uses
"radix 8 and 16, case by case" (§5.2.4).  This module measures whether
that rule leaves speed on the table:

* :func:`candidate_radix_plans` enumerates sensible radix
  decompositions, and :func:`kernel_candidates` puts the rule's
  schedule (or Bluestein, for non-smooth sizes) in front of them;
* :func:`tune_kernel` searches those candidates for one
  ``(n, sign, dtype)`` with measured-time arbitration;
* :func:`autotune` drives it over a size list under a
  :class:`TuneBudget` and records winners into a versioned
  :class:`~repro.fft.wisdom.Wisdom` store keyed by
  ``(n, dtype, machine_fingerprint)``.

This is the only search for a schedule: the store keeps what it
measured and knows nothing of how it was measured.

Search is exhaustive while the candidate set is small and measures a
seeded random subset when it grows — the FFTW ``ESTIMATE``/``MEASURE``
split in miniature.  The default schedule is always measured first and
always remains a candidate, so a winner is never slower than the default
*by its own measurements* (``python -m repro autotune`` checks that each
winner and the rule's plan give the same answers).

Winners persist through :meth:`Wisdom.save`; no library code reads them
back, so what the tuner finds changes no transform.  A speedup it
reports is a case for changing the rule, not a plan to load.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.fft.bitops import default_radices, factorize_radices, \
    is_power_of_two, mixed_radix_factors
from repro.fft.bluestein import BluesteinPlan
from repro.fft.stockham import StockhamPlan
from repro.fft.wisdom import Wisdom, machine_fingerprint

__all__ = ["AutotuneReport", "KernelResult", "TuneBudget", "autotune",
           "candidate_radix_plans", "default_radices", "kernel_candidates",
           "render_speedup_table", "tune_kernel"]

#: Above this many candidates the search measures the default plus a
#: seeded random subset of this size instead of every candidate.
EXHAUSTIVE_LIMIT = 12


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


def candidate_radix_plans(n: int) -> list[list[int]]:
    """Reasonable radix decompositions of *n* (greedy ladders).

    Power-of-two sizes get the radix-32/16/8/4/2 greedy ladders; other
    smooth sizes get the prime factorization (unique up to order) in
    ascending and descending order.  The default schedule
    (:func:`repro.fft.bitops.default_radices`) is not repeated here;
    :func:`kernel_candidates` puts it first.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    out: list[list[int]] = []
    if is_power_of_two(n):
        for ladder in ((4, 2), (8, 4, 2), (16, 8, 4, 2), (32, 16, 8, 4, 2),
                       (2,)):
            plan = factorize_radices(n, ladder)
            if plan not in out:
                out.append(plan)
        return out
    factors = mixed_radix_factors(n)
    if factors is None:
        raise ValueError(f"{n} is not smooth over (2,3,5,7); Bluestein "
                         f"handles it without radix tuning")
    out.append(factors)
    if factors[::-1] != factors:
        out.append(factors[::-1])
    return out


def kernel_candidates(n: int, dtype=np.complex128) -> list[dict]:
    """Candidate kernel plans for one size, the default strategy first.

    Smooth sizes enumerate the Stockham radix ladders of
    :func:`candidate_radix_plans`; non-smooth sizes have exactly one
    legal strategy (Bluestein) so their candidate list is the default
    alone — the autotuner must never migrate a size onto a kernel that
    changes answers beyond schedule-level rounding.
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
# The driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AutotuneReport:
    """One autotuning run: per-size results plus the budget accounting."""

    machine: str
    kernel_results: list
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
        return out


def autotune(sizes=(), *, sign: int = -1,
             dtypes=("complex128",), budget: TuneBudget | None = None,
             wisdom: Wisdom | None = None, machine: str | None = None,
             batch: int = 4, reps: int = 3,
             rng_seed: int = 2013) -> AutotuneReport:
    """Tune every (size, dtype) and record winners into *wisdom*.

    Returns the report; the caller persists the wisdom
    (:meth:`Wisdom.save`).
    """
    budget = (budget or TuneBudget()).start()
    machine = machine_fingerprint() if machine is None else machine
    wisdom = Wisdom() if wisdom is None else wisdom
    kernel_results = []
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
    return AutotuneReport(machine=machine, kernel_results=kernel_results,
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
