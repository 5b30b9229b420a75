"""Tests for the distributed SOI FFT on the simulated cluster."""

import numpy as np
import pytest

from repro.cluster.network import STAMPEDE_EFFECTIVE
from repro.cluster.pcie import PCIE_GEN2_X16
from repro.cluster.proxy import ReverseProxy
from repro.cluster.simcluster import SimCluster
from repro.core.params import SoiParams
from repro.core.soi_dist import DistributedSoiFFT
from repro.core.soi_single import SoiFFT
from repro.machine.spec import XEON_E5_2680
from repro.util.validate import relative_l2_error
from tests.conftest import random_complex
from tests.test_soi_executors import stockham_rank_lane


def make(n=8 * 448, p=4, spp=2, n_mu=8, d_mu=7, b=48):
    params = SoiParams(n=n, n_procs=p, segments_per_process=spp,
                       n_mu=n_mu, d_mu=d_mu, b=b)
    cluster = SimCluster(p)
    return cluster, DistributedSoiFFT(cluster, params)


def single_and_distributed(x):
    """P -> (distributed spectrum of 8 segments on P ranks, SoiFFT's)."""
    y_single = SoiFFT(SoiParams(n=x.size, n_procs=1, segments_per_process=8,
                                n_mu=8, d_mu=7, b=48))(x)
    out = {}
    for p in (1, 2, 4, 8):
        _cluster, dist = make(n=x.size, p=p, spp=8 // p)
        out[p] = dist.assemble(dist(dist.scatter(x))), y_single
    return out


class TestNumericalEquivalence:
    @pytest.mark.parametrize("p,spp", [(1, 8), (2, 4), (4, 2), (8, 1)])
    def test_matches_numpy_all_layouts(self, rng, p, spp):
        cluster, dist = make(p=p, spp=spp)
        x = random_complex(rng, 8 * 448)
        y = dist.assemble(dist(dist.scatter(x)))
        assert relative_l2_error(y, np.fft.fft(x)) < \
            10 * dist.tables.expected_stopband + 1e-12

    def test_identical_to_single_process_pipeline(self, rng):
        # same segment decomposition, same node-local kernels => the same
        # bits, whatever P
        x = random_complex(rng, 8 * 448)
        for p, (y_dist, y_single) in single_and_distributed(x).items():
            assert np.array_equal(y_dist, y_single), p

    def test_a_stockham_rank_lane_is_not_identical(self, rng, monkeypatch):
        stockham_rank_lane(monkeypatch)
        x = random_complex(rng, 8 * 448)
        for p, (y_dist, y_single) in single_and_distributed(x).items():
            assert not np.array_equal(y_dist, y_single), p

    def test_output_distribution_is_natural_order_blocks(self, rng):
        cluster, dist = make(p=4, spp=2)
        x = random_complex(rng, 8 * 448)
        parts = dist(dist.scatter(x))
        ref = np.fft.fft(x)
        chunk = len(x) // 4
        for r, part in enumerate(parts):
            assert part.shape == (chunk,)
            assert relative_l2_error(part, ref[r * chunk:(r + 1) * chunk]) < 1e-4

    def test_mu_5_4(self, rng):
        cluster, dist = make(n=2 ** 13, p=4, spp=2, n_mu=5, d_mu=4, b=64)
        x = random_complex(rng, 2 ** 13)
        y = dist.assemble(dist(dist.scatter(x)))
        assert relative_l2_error(y, np.fft.fft(x)) < 1e-9

    def test_xeon_machine_and_unfused_demod(self, rng):
        params = SoiParams(n=8 * 448, n_procs=4, segments_per_process=2,
                           n_mu=8, d_mu=7, b=48)
        cluster = SimCluster(4, machine=XEON_E5_2680)
        dist = DistributedSoiFFT(cluster, params, fuse_demodulation=False)
        x = random_complex(rng, 8 * 448)
        y = dist.assemble(dist(dist.scatter(x)))
        assert relative_l2_error(y, np.fft.fft(x)) < 1e-4

    def test_proxy_transport(self, rng):
        params = SoiParams(n=8 * 448, n_procs=4, segments_per_process=2,
                           n_mu=8, d_mu=7, b=48)
        cluster = SimCluster(4, transport=ReverseProxy(PCIE_GEN2_X16,
                                                       STAMPEDE_EFFECTIVE))
        dist = DistributedSoiFFT(cluster, params)
        x = random_complex(rng, 8 * 448)
        y = dist.assemble(dist(dist.scatter(x)))
        assert relative_l2_error(y, np.fft.fft(x)) < 1e-4


class TestCommunicationStructure:
    def test_exactly_one_alltoall(self, rng):
        cluster, dist = make(p=4)
        dist(dist.scatter(random_complex(rng, 8 * 448)))
        a2a_events = [e for e in cluster.trace.events if e.label == "all-to-all"]
        # one synchronized collective = one event per rank
        assert len(a2a_events) == 4

    def test_ghost_exchange_happens_before_alltoall(self, rng):
        cluster, dist = make(p=4)
        dist(dist.scatter(random_complex(rng, 8 * 448)))
        labels = [e.label for e in cluster.trace.events if e.rank == 0]
        assert labels.index("ghost exchange") < labels.index("all-to-all")

    def test_wire_volume_is_mu_scaled(self, rng):
        """SOI's all-to-all moves ~mu * 16N * (P-1)/P bytes + small ghosts."""
        n, p = 8 * 448, 4
        cluster, dist = make(n=n, p=p)
        dist(dist.scatter(random_complex(rng, n)))
        params = dist.params
        a2a = 16 * params.n_oversampled * (p - 1) // p
        ghosts = sum(params.ghost_blocks) * params.n_segments * 16 * p
        assert cluster.comm.bytes_moved == a2a + ghosts

    def test_breakdown_has_all_components(self, rng):
        cluster, dist = make(p=4)
        dist(dist.scatter(random_complex(rng, 8 * 448)))
        b = cluster.breakdown()
        for key in ("convolution", "all-to-all", "local FFT", "demodulation",
                    "ghost exchange"):
            assert key in b

    def test_simulated_time_positive_and_finite(self, rng):
        cluster, dist = make(p=4)
        dist(dist.scatter(random_complex(rng, 8 * 448)))
        assert 0 < cluster.elapsed < 10.0


class TestSegmentedExchanges:
    def test_identical_result_and_bytes(self, rng):
        params = SoiParams(n=16 * 448, n_procs=4, segments_per_process=4,
                           n_mu=8, d_mu=7, b=48)
        x = random_complex(rng, params.n)
        cl1 = SimCluster(4)
        d1 = DistributedSoiFFT(cl1, params)
        y1 = d1.assemble(d1(d1.scatter(x)))
        cl2 = SimCluster(4)
        d2 = DistributedSoiFFT(cl2, params, segment_exchanges=True)
        y2 = d2.assemble(d2(d2.scatter(x)))
        assert np.array_equal(y1, y2)
        assert cl1.comm.bytes_moved == cl2.comm.bytes_moved

    def test_one_round_per_segment_slot(self, rng):
        params = SoiParams(n=16 * 448, n_procs=4, segments_per_process=4,
                           n_mu=8, d_mu=7, b=48)
        cl = SimCluster(4)
        d = DistributedSoiFFT(cl, params, segment_exchanges=True)
        d(d.scatter(random_complex(rng, params.n)))
        rounds = [e for e in cl.trace.events
                  if e.label == "all-to-all" and e.rank == 0]
        assert len(rounds) == 4

    def test_interleaved_fft_charges(self, rng):
        """FFT compute lands between exchange rounds — the structure the
        paper's overlap exploits (and replay_with_overlap prices)."""
        params = SoiParams(n=16 * 448, n_procs=4, segments_per_process=2,
                           n_mu=8, d_mu=7, b=48)
        cl = SimCluster(4)
        d = DistributedSoiFFT(cl, params, segment_exchanges=True)
        d(d.scatter(random_complex(rng, params.n)))
        labels = [e.label for e in cl.trace.events if e.rank == 0]
        first_a2a = labels.index("all-to-all")
        assert "local FFT" in labels[first_a2a:]
        # an FFT charge appears before the LAST all-to-all round
        last_a2a = len(labels) - 1 - labels[::-1].index("all-to-all")
        assert "local FFT" in labels[first_a2a:last_a2a]


class TestValidation:
    def test_rank_count_mismatch(self):
        params = SoiParams(n=8 * 448, n_procs=4, segments_per_process=2,
                           n_mu=8, d_mu=7, b=48)
        with pytest.raises(ValueError, match="ranks"):
            DistributedSoiFFT(SimCluster(8), params)

    def test_ghost_larger_than_chunk_rejected(self):
        # B/2 blocks of ghost must fit in a neighbor's chunk
        params = SoiParams(n=8 * 448, n_procs=8, segments_per_process=1,
                           n_mu=8, d_mu=7, b=72)
        # blocks per rank = 448/8 = 56 >= 36 -> OK; shrink instead:
        params_bad = SoiParams(n=8 * 112, n_procs=8, segments_per_process=1,
                               n_mu=8, d_mu=7, b=48)
        # blocks per rank = 112/8 = 14 < 24 ghost
        with pytest.raises(ValueError, match="ghost"):
            DistributedSoiFFT(SimCluster(8), params_bad)
        DistributedSoiFFT(SimCluster(8), params)  # the good one builds

    def test_wrong_part_count(self, rng):
        cluster, dist = make(p=4)
        with pytest.raises(ValueError):
            dist([random_complex(rng, 896)] * 3)

    def test_wrong_part_size(self, rng):
        cluster, dist = make(p=4)
        with pytest.raises(ValueError):
            dist([random_complex(rng, 100)] * 4)

    def test_scatter_validates_shape(self, rng):
        cluster, dist = make(p=4)
        with pytest.raises(ValueError):
            dist.scatter(random_complex(rng, 100))
