"""Tests for q-error scoring and cost-model calibration.

Covers the metric itself, the closed-form per-stage fit, the pinned
simulated-machine regression matrix (train on endpoint rank counts,
evaluate held-out on the middle), and the serving integration: a
``CostCalibration`` handed to ``SoiService``/``ClusterSoiService`` must
rescale admission-control projections stage by stage.
"""

import math

import numpy as np
import pytest

from repro.perfmodel.qerror import (CostCalibration, fit_calibration,
                                    q_error, stage_q_errors)

pytestmark = pytest.mark.autotune

#: Pinned ceiling: held-out per-stage q-error of the calibrated serving
#: cost model on the simulated fabric.
QERROR_CEILING = 2.0


class TestQErrorMetric:
    def test_exact_prediction_scores_one(self):
        assert q_error(0.5, 0.5) == 1.0

    def test_symmetric_over_and_under(self):
        assert q_error(2.0, 1.0) == q_error(1.0, 2.0) == 2.0

    def test_scale_invariant(self):
        assert q_error(3e-6, 1e-6) == pytest.approx(q_error(3.0, 1.0))

    @pytest.mark.parametrize("pred,actual", [(0.0, 1.0), (1.0, 0.0),
                                             (-1.0, 1.0), (0.0, 0.0)])
    def test_degenerate_pairs_score_inf(self, pred, actual):
        assert q_error(pred, actual) == math.inf

    def test_stage_q_errors_keeps_worst_per_stage(self):
        obs = [("fft", 1.0, 2.0), ("fft", 1.0, 1.1), ("conv", 3.0, 1.0)]
        qs = stage_q_errors(obs)
        assert qs == {"fft": 2.0, "conv": 3.0}


class TestCostCalibration:
    def test_unknown_stage_passes_through(self):
        cal = CostCalibration({"fft": 2.0})
        assert cal.factor("conv") == 1.0
        assert cal.apply("conv", 0.5) == 0.5

    def test_apply_breakdown_preserves_keys(self):
        cal = CostCalibration({"a": 2.0})
        out = cal.apply_breakdown({"a": 1.0, "b": 3.0})
        assert out == {"a": 2.0, "b": 3.0}

    def test_total_is_calibrated_sum(self):
        cal = CostCalibration({"a": 2.0, "b": 0.5})
        assert cal.total({"a": 1.0, "b": 4.0}) == pytest.approx(4.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_degenerate_factors(self, bad):
        with pytest.raises(ValueError):
            CostCalibration({"fft": bad})


class TestFitCalibration:
    def test_recovers_constant_bias_exactly(self):
        # model under-predicts stage "fft" by exactly 3x everywhere
        obs = [("fft", p, 3.0 * p) for p in (0.1, 0.5, 2.0)]
        cal = fit_calibration(obs)
        assert cal.factor("fft") == pytest.approx(3.0)
        after = stage_q_errors([("fft", cal.apply("fft", p), a)
                                for _, p, a in obs])
        assert after["fft"] == pytest.approx(1.0)

    def test_factor_is_geometric_mean_of_ratios(self):
        obs = [("s", 1.0, 2.0), ("s", 1.0, 8.0)]
        assert fit_calibration(obs).factor("s") == pytest.approx(4.0)

    def test_skips_degenerate_pairs(self):
        obs = [("s", 0.0, 1.0), ("s", 1.0, 0.0), ("s", 1.0, 5.0)]
        assert fit_calibration(obs).factor("s") == pytest.approx(5.0)

    def test_empty_observations_pass_through(self):
        cal = fit_calibration([])
        assert cal.factors == {} and cal.factor("anything") == 1.0

    def test_fit_minimizes_squared_log_q_error(self):
        # the geometric-mean factor is the least-squares solution in
        # log space: perturbing it must not reduce mean squared log-q
        rng = np.random.default_rng(7)
        obs = [("s", p, p * float(f))
               for p, f in zip(rng.uniform(0.1, 2.0, 16),
                               rng.lognormal(1.0, 0.4, 16))]
        cal = fit_calibration(obs)
        f0 = cal.factor("s")

        def mean_sq_log_q(f):
            return float(np.mean([math.log(q_error(f * p, a)) ** 2
                                  for _, p, a in obs]))

        base = mean_sq_log_q(f0)
        for bump in (0.8, 0.95, 1.05, 1.25):
            assert base <= mean_sq_log_q(f0 * bump) + 1e-12


def _observations_for_ranks(ranks: int) -> list:
    """The bench harness's deterministic simulated-machine matrix row."""
    from repro.cluster.simcluster import SimCluster
    from repro.core.params import SoiParams
    from repro.core.soi_dist import DistributedSoiFFT
    from repro.perfmodel.model import soi_request_breakdown
    from repro.telemetry.profile import stage_profile

    n = ranks * 1792
    params = SoiParams(n=n, n_procs=ranks, segments_per_process=2,
                       n_mu=8, d_mu=7, b=48)
    cluster = SimCluster(ranks)
    dist = DistributedSoiFFT(cluster, params)
    rng = np.random.default_rng(2013)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    dist(dist.scatter(x))
    prof = {pr.stage: pr for pr in stage_profile(dist)}
    pred = soi_request_breakdown(params, cluster.machine, nodes=ranks)
    return [(stage, pred[stage], prof[stage].measured_s)
            for stage in ("convolution", "all-to-all", "local FFT")
            if stage in pred and prof[stage].measured_s > 0.0]


class TestSimulatedMachineRegression:
    """Pinned matrix on the simulated machine specs: the coarse §4
    serving estimator vs simulated-measured stage times."""

    def test_observations_are_deterministic(self):
        assert _observations_for_ranks(4) == _observations_for_ranks(4)

    def test_heldout_q_error_below_pinned_ceiling(self):
        train = _observations_for_ranks(2) + _observations_for_ranks(16)
        holdout = _observations_for_ranks(4) + _observations_for_ranks(8)
        cal = fit_calibration(train)
        after = stage_q_errors([(s, cal.apply(s, p), a)
                                for s, p, a in holdout])
        assert after  # all three stages observed
        assert max(after.values()) <= QERROR_CEILING

    def test_calibration_monotonically_reduces_heldout_q_error(self):
        train = _observations_for_ranks(2) + _observations_for_ranks(16)
        holdout = _observations_for_ranks(4) + _observations_for_ranks(8)
        cal = fit_calibration(train)
        before = stage_q_errors(holdout)
        after = stage_q_errors([(s, cal.apply(s, p), a)
                                for s, p, a in holdout])
        for stage in before:
            assert after[stage] <= before[stage] + 1e-12
        assert max(after.values()) < max(before.values())

    def test_stage_observations_helper_joins_profiles(self):
        from repro.telemetry.profile import StageProfile, stage_observations

        profiles = [
            StageProfile("convolution", 1.0, 2.0, 0.5),
            StageProfile("all-to-all", 0.0, 1.0),  # model predicts zero
            StageProfile("local FFT", 1.0, 0.0),  # never ran
        ]
        obs = stage_observations(profiles)
        assert obs == [("convolution", 1.0, 1.5)]  # retry share removed
        assert stage_observations(profiles, drop_retry=False) \
            == [("convolution", 1.0, 2.0)]


class TestServingIntegration:
    def test_soi_service_estimate_uses_calibration(self):
        from repro.resilience import DegradationLadder
        from repro.resilience.server import SoiService

        ladder = DegradationLadder.standard(8 * 448)
        plain = SoiService(ladder)
        scaled = SoiService(ladder,
                            calibration=CostCalibration(
                                {"local FFT": 3.0, "convolution": 3.0}))
        rung = ladder[0]
        assert scaled._estimate(1)(rung) == pytest.approx(
            3.0 * plain._estimate(1)(rung))

    def test_partial_calibration_scales_only_named_stage(self):
        from repro.perfmodel.model import soi_request_breakdown
        from repro.resilience import DegradationLadder
        from repro.resilience.server import SoiService

        ladder = DegradationLadder.standard(8 * 448)
        rung = ladder[0]
        svc = SoiService(ladder,
                         calibration=CostCalibration({"local FFT": 2.0}))
        br = soi_request_breakdown(rung.params, svc.machine,
                                   itemsize=rung.dtype.itemsize, batch=1)
        expected = 2.0 * br["local FFT"] + br["convolution"]
        assert svc._estimate(1)(rung) == pytest.approx(expected)

    def test_cluster_service_estimate_uses_calibration(self):
        from repro.cluster.simcluster import SimCluster
        from repro.resilience import DegradationLadder
        from repro.resilience.server import ClusterSoiService

        ranks = 4
        ladder = DegradationLadder.standard(8 * 448, n_procs=ranks,
                                            segments_per_process=2)
        plain = ClusterSoiService(SimCluster(ranks), ladder)
        cal = CostCalibration({"local FFT": 2.0, "convolution": 2.0,
                               "all-to-all": 2.0})
        scaled = ClusterSoiService(SimCluster(ranks), ladder,
                                   calibration=cal)
        rung = ladder[0]
        assert scaled._estimate(rung) == pytest.approx(
            2.0 * plain._estimate(rung))

    def test_calibrated_service_still_serves(self, rng):
        from repro.perfmodel.qerror import CostCalibration
        from repro.resilience import DegradationLadder
        from repro.resilience.server import SoiService

        n = 8 * 448
        ladder = DegradationLadder.standard(n)
        svc = SoiService(ladder,
                         calibration=CostCalibration({"local FFT": 1.5}))
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        res = svc.submit(x, deadline_seconds=30.0)
        assert res.outcome in ("ok", "degraded")
        assert np.allclose(res.y, np.fft.fft(x), atol=1e-4 * n)
