"""Tests for the Bluestein chirp-z FFT, alone and as a segment plan."""

import hashlib

import numpy as np
import pytest

from repro.cluster.faults import FaultPlan, RetryPolicy, chaos_cluster
from repro.cluster.simcluster import SimCluster
from repro.core.params import SoiParams
from repro.core.soi_dist import DistributedSoiFFT
from repro.core.soi_single import SoiFFT
from repro.fft.bluestein import BluesteinPlan, bluestein_fft
from repro.verify import VerifyPolicy
from tests.conftest import random_complex
from tests.test_zero_alloc import LARGE, peak_new_bytes


class TestBluestein:
    @pytest.mark.parametrize("n", [1, 2, 3, 11, 13, 17, 97, 101, 257, 1009])
    def test_primes_match_numpy(self, rng, n):
        x = random_complex(rng, n)
        assert np.allclose(bluestein_fft(x), np.fft.fft(x))

    @pytest.mark.parametrize("n", [22, 26, 33, 121])
    def test_composite_non_smooth(self, rng, n):
        x = random_complex(rng, n)
        assert np.allclose(bluestein_fft(x), np.fft.fft(x))

    def test_also_correct_for_smooth_sizes(self, rng):
        x = random_complex(rng, 64)
        assert np.allclose(bluestein_fft(x), np.fft.fft(x))

    @pytest.mark.parametrize("n", [13, 53])
    def test_roundtrip(self, rng, n):
        x = random_complex(rng, n)
        assert np.allclose(bluestein_fft(bluestein_fft(x), sign=+1), x)

    def test_batched(self, rng):
        x = random_complex(rng, 4, 19)
        assert np.allclose(bluestein_fft(x), np.fft.fft(x, axis=-1))

    def test_large_n_numerics(self, rng):
        # the (k*k) % (2n) chirp-table trick keeps large-n accuracy
        n = 10007
        x = random_complex(rng, n)
        ref = np.fft.fft(x)
        err = np.linalg.norm(bluestein_fft(x) - ref) / np.linalg.norm(ref)
        assert err < 1e-12

    def test_pad_size_is_sufficient_power_of_two(self):
        plan = BluesteinPlan(100)
        assert plan.m >= 199
        assert plan.m & (plan.m - 1) == 0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            BluesteinPlan(0)
        with pytest.raises(ValueError):
            BluesteinPlan(5, sign=3)
        with pytest.raises(ValueError):
            BluesteinPlan(5)(np.zeros(6, dtype=np.complex128))


# -- a Bluestein segment plan through the back kernel ------------------------

#: M' = 88 is not (2,3,5,7)-smooth, so the segment FFT is chirp-z: one node
#: (mu = 8/7), and four ranks (mu = 2: their M'/P = 22 rows are whole
#: convolution chunks)
NODE = SoiParams(n=8 * 77, n_procs=1, segments_per_process=8, n_mu=8,
                 d_mu=7, b=16)
RANKS = SoiParams(n=352, n_procs=4, segments_per_process=2, n_mu=2, d_mu=1,
                  b=16)
#: SHA-1 of the spectra of :func:`inputs`, pinned from the layout whose back
#: wrote a ``beta`` stage buffer and then demodulated it
NODE_SHA1 = "9e843e6b9441a2bb25e5898feee29467b436956d"
RANKS_SHA1 = "d35fcc017d59540dedafe74a0a0ea6ad4af59a6f"


def sha1(a: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(a).tobytes()).hexdigest()


@pytest.fixture(scope="module")
def inputs():
    """The node's input and the ranks' input, drawn in that order."""
    rng = np.random.default_rng(2013)
    return tuple(rng.standard_normal(p.n) + 1j * rng.standard_normal(p.n)
                 for p in (NODE, RANKS))


def strike_back_once():
    """An injector adding 10 to one output bin of the first back it sees."""
    fired = []

    def inject(stage, arr):
        if stage == "back" and not fired:
            fired.append(1)
            arr[0, 1, 5] += 10.0
    return inject


def distributed(inputs, cluster=None, **kw):
    """The four ranks' spectrum on *cluster*, and the plan that ran it."""
    dist = DistributedSoiFFT(cluster or SimCluster(4), RANKS, **kw)
    return dist.assemble(dist(dist.scatter(inputs[1]))), dist


class TestSegmentPlan:
    def test_the_geometries_plan_chirp_z(self):
        for params in (NODE, RANKS):
            assert params.m_oversampled == 88
            assert isinstance(SoiFFT(params)._seg_plan, BluesteinPlan)

    def test_an_unverified_node(self, inputs):
        assert sha1(SoiFFT(NODE)(inputs[0])) == NODE_SHA1

    def test_a_verified_node(self, inputs):
        plan = SoiFFT(NODE, verify=True)
        assert sha1(plan(inputs[0])) == NODE_SHA1
        assert plan.verifier.report.detections == 0
        # a struck output row is repaired by the back kernel, bitwise
        struck = SoiFFT(NODE, verify=VerifyPolicy(inject=strike_back_once()))
        assert sha1(struck(inputs[0])) == NODE_SHA1
        assert struck.verifier.report.segment_repairs == 1

    def test_four_simulated_ranks(self, inputs):
        y, _ = distributed(inputs)
        assert sha1(y) == RANKS_SHA1
        assert sha1(SoiFFT(RANKS)(inputs[1])) == RANKS_SHA1
        y, dist = distributed(inputs, verify=True)
        assert sha1(y) == RANKS_SHA1
        assert dist.last_verification.detections == 0
        # rank 1's back slot struck: the rank repairs it by the back kernel
        cl = chaos_cluster(SimCluster(4),
                           FaultPlan(seed=23, sdc_events={6: 5.0}))
        y, dist = distributed(inputs, cl, verify=True)
        assert sha1(y) == RANKS_SHA1
        assert dist.last_verification.segment_repairs == 1

    def test_a_recovery_round(self, inputs):
        cl = SimCluster(4)
        cl.comm.install_faults(FaultPlan(rank_failures={1: 1}),
                               RetryPolicy(max_retries=0))
        y, dist = distributed(inputs, cl)
        assert dist.last_recovery.dead_ranks == (1,)
        assert dist.last_recovery.recomputed_rows > 0
        assert sha1(y) == RANKS_SHA1

    @pytest.mark.parametrize("verify", [False, True])
    def test_a_steady_state_call_allocates_nothing(self, inputs, verify):
        plan = SoiFFT(NODE, verify=verify)
        out = np.empty(NODE.n, dtype=np.complex128)
        assert peak_new_bytes(lambda: plan(inputs[0], out=out)) < LARGE
        held = plan.workspace_bytes()
        plan(inputs[0], out=out)
        assert plan.workspace_bytes() == held
        assert sha1(out) == NODE_SHA1
