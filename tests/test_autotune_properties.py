"""Property-based differential tests for the plan autotuner.

The contract under test: the autotuner may only change *speed*, never
*answers*, and it changes no plan at all.  Every candidate the search
may pick — any radix ladder, any strategy — must produce output
equivalent to the default plan's, across a randomized (n, dtype,
candidate) matrix that includes r2c and Bluestein sizes; and
:func:`~repro.fft.plan.get_plan` plans by the rule whatever a
:class:`~repro.fft.wisdom.Wisdom` store holds.  Equivalence is bitwise
when tuned and default schedules coincide, and within floating-point
schedule tolerance otherwise (different radix orders legitimately round
differently).
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fft import plan as plan_mod
from repro.fft import real as real_mod
from repro.fft.autotune import (TuneBudget, _build_kernel, autotune,
                                default_radices, kernel_candidates,
                                tune_kernel)
from repro.fft.bluestein import BluesteinPlan
from repro.fft.plan import cache_clear, get_plan
from repro.fft.real import rfft
from repro.fft.stockham import StockhamPlan
from repro.fft.wisdom import Wisdom, machine_fingerprint
from tests.conftest import random_complex

pytestmark = pytest.mark.autotune

# double-precision schedule tolerance: different radix orders round
# differently but agree to ~n*eps; 1e-9 relative is orders above that
TOL = 1e-9

SMOOTH_SIZES = [16, 48, 64, 120, 256, 360, 504, 1008, 1024]
BLUESTEIN_SIZES = [11, 97, 1009]  # primes: no smooth factorization


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = float(np.max(np.abs(b))) or 1.0
    return float(np.max(np.abs(a - b))) / scale


class TestKernelCandidateEquivalence:
    """Any candidate the search may pick must match the default plan."""

    @given(st.sampled_from(SMOOTH_SIZES), st.integers(0, 7),
           st.integers(0, 2 ** 31 - 1), st.sampled_from([-1, +1]))
    @settings(max_examples=25, deadline=None)
    def test_every_candidate_matches_default(self, n, cand_idx, seed, sign):
        cands = kernel_candidates(n)
        cand = cands[cand_idx % len(cands)]
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        base = StockhamPlan(n, sign)(x[None, :])[0]
        tuned = StockhamPlan(n, sign, radices=cand["radices"])(x[None, :])[0]
        assert _rel_err(tuned, base) < TOL

    @given(st.sampled_from(SMOOTH_SIZES), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_complex64_candidates_match_default(self, n, seed):
        rng = np.random.default_rng(seed)
        x = (rng.standard_normal(n)
             + 1j * rng.standard_normal(n)).astype(np.complex64)
        base = StockhamPlan(n, dtype=np.complex64)(x[None, :])[0]
        for cand in kernel_candidates(n, np.complex64):
            tuned = StockhamPlan(n, radices=cand["radices"],
                                 dtype=np.complex64)(x[None, :])[0]
            assert _rel_err(tuned, base) < 1e-4  # single precision

    @pytest.mark.parametrize("n", BLUESTEIN_SIZES)
    def test_bluestein_sizes_have_one_candidate(self, n, rng):
        cands = kernel_candidates(n)
        assert cands == [{"strategy": "bluestein", "radices": []}]
        # the only candidate IS the default: tuned output is bitwise
        # identical because it is the same plan construction
        x = random_complex(rng, n)
        a = BluesteinPlan(n)(x[None, :])[0]
        b = BluesteinPlan(n)(x[None, :])[0]
        assert np.array_equal(a, b)

    def test_default_candidate_is_first(self):
        for n in SMOOTH_SIZES:
            assert kernel_candidates(n)[0]["radices"] == default_radices(n)


def store_with(n: int, radices: list, machine: str | None = None) -> Wisdom:
    w = Wisdom()
    w.record_kernel(n, -1, "complex128", machine or machine_fingerprint(),
                    "stockham", radices)
    return w


def planned_radices(n: int) -> list:
    """The schedule ``get_plan`` builds for *n* now, planned afresh."""
    cache_clear()
    try:
        return list(get_plan(n).radices)
    finally:
        cache_clear()  # leave no plan of this test's _build_plan behind


def consult_store(monkeypatch, store: Wisdom) -> None:
    """Mutant: the plan cache's old wisdom branch — a stored Stockham
    schedule wins over the rule."""
    rule = plan_mod._build_plan

    def build(n, sign, dtype_str):
        entry = store.lookup_kernel(n, sign, dtype_str)
        if entry is not None and entry["strategy"] == "stockham":
            return StockhamPlan(n, sign, radices=entry["radices"],
                                dtype=np.dtype(dtype_str).type)
        return rule(n, sign, dtype_str)

    monkeypatch.setattr(plan_mod, "_build_plan", build)


def tuning_imports(source: str) -> set[str]:
    """Modules of the tuner that *source* imports from."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found |= {m for m in names
                  if m in ("repro.fft.wisdom", "repro.fft.autotune")}
    return found


class TestTunedPlanEquivalence:
    """``get_plan`` plans by rule; a tuner's winner, planned directly, is
    an equivalent transform, and no store changes what gets planned."""

    @given(st.sampled_from([64, 360, 1008]), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=8, deadline=None)
    def test_tuned_get_plan_matches_untuned(self, n, seed):
        res = tune_kernel(n, reps=1, batch=1,
                          budget=TuneBudget(seconds=5.0))
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        # the winner planned directly, as the tuner measured it
        tuned = _build_kernel(n, res.sign, res.dtype, res.winner)(
            x[None, :])[0]
        assert _rel_err(tuned, get_plan(n)(x[None, :])[0]) < TOL

    def test_tuned_plan_uses_winning_radices(self):
        # a store that records another schedule for n = 256 ...
        store_with(256, [2] * 8)
        assert default_radices(256) != [2] * 8
        # ... does not change the schedule the plan cache builds
        assert planned_radices(256) == default_radices(256)

    def test_a_plan_cache_that_consults_wisdom_turns_it_red(self,
                                                            monkeypatch):
        consult_store(monkeypatch, store_with(256, [2] * 8))
        assert planned_radices(256) != default_radices(256)

    def test_plan_module_imports_no_tuner(self):
        """``ast`` guard: planning has one path, so ``fft/plan.py``
        imports nothing from the wisdom store or the tuner."""
        assert tuning_imports(Path(plan_mod.__file__).read_text()) == set()
        # the guard can go red: the import the plan cache used to have
        assert tuning_imports("from repro.fft.wisdom import Wisdom\n"
                              "import repro.fft.autotune") == {
            "repro.fft.wisdom", "repro.fft.autotune"}

    def test_r2c_path_consumes_wisdom_and_matches(self, rng, monkeypatch):
        # rfft plans the half-length complex transform through get_plan:
        # the plan it runs is the rule's schedule for n/2
        n = 1008  # half = 504, smooth
        used = []

        def spy(*args, **kwargs):
            used.append(get_plan(*args, **kwargs))
            return used[-1]

        monkeypatch.setattr(real_mod, "get_plan", spy)
        x = rng.standard_normal(n)
        y = rfft(x)
        assert [(p.n, list(p.radices)) for p in used] == [
            (n // 2, default_radices(n // 2))]
        assert _rel_err(y, np.fft.rfft(x)) < TOL

    def test_wisdom_for_other_machine_still_correct(self, rng):
        # foreign-machine entries are fallbacks (AccFFT portability):
        # possibly not optimal here, but must still be a correct plan
        res = tune_kernel(360, reps=1, batch=1)
        w = store_with(360, res.winner["radices"], machine="feedfacecafe")
        entry = w.lookup_kernel(360, -1, "complex128",
                                machine=machine_fingerprint())
        assert entry["machine"] == "feedfacecafe"
        x = random_complex(rng, 360)
        tuned = StockhamPlan(360, radices=entry["radices"])(x[None, :])[0]
        assert _rel_err(tuned, np.fft.fft(x)) < TOL

    def test_complex64_wisdom_ignored_for_nonsmooth(self, rng):
        # Bluestein's chirp tables need double precision: a non-smooth
        # complex64 plan is refused, and complex128 dispatches to it
        with pytest.raises(ValueError, match="single-precision"):
            get_plan(1009, dtype=np.complex64)
        plan = get_plan(1009)
        assert isinstance(plan, BluesteinPlan)
        x = random_complex(rng, 1009)
        assert _rel_err(plan(x[None, :])[0], np.fft.fft(x)) < 1e-8


def _soi_geometries() -> list[tuple]:
    """A test-local S x mu x B grid: every ``(n, S, n_mu, d_mu, B)`` of it
    that :class:`~repro.core.params.SoiParams` accepts."""
    from repro.core.params import SoiParams

    out = []
    for n in (2048, 3584, 8192):
        for segments in (4, 8, 16, 32):
            for n_mu, d_mu in ((8, 7), (5, 4), (9, 8)):
                for b in (48, 72):
                    try:
                        SoiParams(n=n, n_procs=1,
                                  segments_per_process=segments,
                                  n_mu=n_mu, d_mu=d_mu, b=b)
                    except ValueError:
                        continue
                    out.append((n, segments, n_mu, d_mu, b))
    return out


class TestSoiCandidateEquivalence:
    """Every SOI geometry of a small grid computes the DFT within its
    own design envelope."""

    @given(st.sampled_from(_soi_geometries()), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_soi_candidates_match_numpy(self, geometry, seed):
        from repro.core.params import SoiParams
        from repro.core.soi_single import SoiFFT

        n, segments, n_mu, d_mu, b = geometry
        f = SoiFFT(SoiParams(n=n, n_procs=1, segments_per_process=segments,
                             n_mu=n_mu, d_mu=d_mu, b=b))
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ref = np.fft.fft(x)
        err = np.linalg.norm(f(x) - ref) / np.linalg.norm(ref)
        # 10x slack over the design stopband, as in the core tests
        assert err < 10 * f.expected_stopband + 1e-12


class TestSearchDriver:
    def test_default_measured_even_when_budget_exhausted(self):
        budget = TuneBudget(seconds=0.0)  # exhausted before it starts
        res = tune_kernel(256, reps=1, batch=1, budget=budget)
        assert res.trials == 1  # the default, unconditionally
        assert res.tuned_is_default
        assert res.speedup == 1.0

    def test_trial_cap_respected(self):
        budget = TuneBudget(seconds=60.0, max_trials=2)
        res = tune_kernel(1024, reps=1, batch=1, budget=budget)
        assert res.trials <= 2
        assert budget.trials <= 2

    def test_winner_is_measured_minimum(self):
        res = tune_kernel(512, reps=1, batch=1)
        assert res.tuned_s == min(res.timings.values())
        assert res.tuned_s <= res.default_s

    def test_autotune_records_into_wisdom(self):
        w = Wisdom()
        report = autotune(sizes=[64, 97], budget=TuneBudget(seconds=10.0),
                          reps=1, batch=1, wisdom=w,
                          machine="testmachine01")
        assert len(report.kernel_results) == 2
        assert w.lookup_kernel(64, -1, "complex128",
                               machine="testmachine01") is not None
        assert w.lookup_kernel(97, -1, "complex128",
                               machine="testmachine01") is not None

    def test_report_rows_and_render(self):
        from repro.fft.autotune import render_speedup_table

        report = autotune(sizes=[64], budget=TuneBudget(seconds=5.0),
                          reps=1, batch=1)
        rows = report.rows()
        assert rows and rows[0]["workload"] == "kernel"
        text = render_speedup_table(report)
        assert "speedup" in text and "64" in text
