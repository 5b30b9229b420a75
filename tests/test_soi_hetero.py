"""Tests for the heterogeneous (mixed Xeon/Phi) distributed SOI."""

import numpy as np
import pytest

from repro.cluster.simcluster import SimCluster
from repro.core.params import SoiParams
from repro.core.segments import segments_for_machines
from repro.core.soi_dist import DistributedSoiFFT
from repro.core.soi_hetero import HeterogeneousSoiFFT
from repro.core.soi_single import SoiFFT
from repro.machine.spec import XEON_E5_2680, XEON_PHI_SE10
from repro.util.validate import relative_l2_error
from tests.conftest import random_complex
from tests.test_soi_executors import stockham_rank_lane

MIXED = [XEON_E5_2680, XEON_PHI_SE10, XEON_PHI_SE10, XEON_E5_2680]


def build(n=32 * 448, seg_counts=None, machines=MIXED, b=48):
    if seg_counts is None:
        seg_counts = segments_for_machines(machines, 32)
    cluster = SimCluster(len(machines), machines=machines)
    return cluster, HeterogeneousSoiFFT(cluster, n, seg_counts, b=b)


def hetero_and_single(x, seg_counts):
    """(the mixed cluster's spectrum under *seg_counts*, SoiFFT's)."""
    _cluster, h = build(n=x.size, seg_counts=seg_counts)
    return h.assemble(h(h.scatter(x))), SoiFFT(h.params)(x)


class TestNumerics:
    def test_matches_numpy(self, rng):
        cluster, h = build()
        x = random_complex(rng, 32 * 448)
        y = h.assemble(h(h.scatter(x)))
        assert relative_l2_error(y, np.fft.fft(x)) < \
            10 * h.tables.expected_stopband

    def test_uniform_split_equals_homogeneous_pipeline(self, rng):
        """With equal segment counts the result is the standard
        distributed SOI's and the single node's, bit for bit (same
        decomposition and kernels, different bookkeeping)."""
        n, p = 32 * 448, 4
        x = random_complex(rng, n)
        y_het, y_single = hetero_and_single(x, [8, 8, 8, 8])
        params = SoiParams(n=n, n_procs=p, segments_per_process=8,
                           n_mu=8, d_mu=7, b=48)
        d = DistributedSoiFFT(SimCluster(p), params)
        assert np.array_equal(y_het, y_single)
        assert np.array_equal(d.assemble(d(d.scatter(x))), y_single)

    def test_unequal_split_equals_single_node_pipeline(self, rng):
        x = random_complex(rng, 32 * 448)
        counts = segments_for_machines(MIXED, 32)
        assert len(set(counts)) > 1
        y_het, y_single = hetero_and_single(x, counts)
        assert np.array_equal(y_het, y_single)

    @pytest.mark.parametrize("split", ["uniform", "unequal"])
    def test_a_stockham_rank_lane_is_not_the_single_node(self, rng, split,
                                                         monkeypatch):
        stockham_rank_lane(monkeypatch)
        counts = [8, 8, 8, 8] if split == "uniform" \
            else segments_for_machines(MIXED, 32)
        y_het, y_single = hetero_and_single(random_complex(rng, 32 * 448),
                                            counts)
        assert not np.array_equal(y_het, y_single)

    def test_single_rank(self, rng):
        cluster = SimCluster(1, machines=[XEON_PHI_SE10])
        h = HeterogeneousSoiFFT(cluster, 8 * 448, [8], b=48)
        x = random_complex(rng, 8 * 448)
        y = h.assemble(h(h.scatter(x)))
        assert relative_l2_error(y, np.fft.fft(x)) < 1e-4

    def test_output_segment_ownership(self, rng):
        cluster, h = build()
        x = random_complex(rng, 32 * 448)
        parts = h(h.scatter(x))
        m = h.params.m
        ref = np.fft.fft(x)
        offset = 0
        for r, part in enumerate(parts):
            assert part.size == h.seg_counts[r] * m
            assert relative_l2_error(part, ref[offset:offset + part.size]) < 1e-4
            offset += part.size


class TestLoadBalance:
    def test_proportional_segments_balance_compute(self, rng):
        """The §6.1 claim: weighting segments by peak flops equalizes
        per-rank compute time on a mixed cluster."""
        x = random_complex(rng, 32 * 448)
        cluster, h = build()
        h(h.scatter(x))
        assert h.compute_imbalance() < 1.15

    def test_uniform_segments_imbalance_on_mixed_cluster(self, rng):
        x = random_complex(rng, 32 * 448)
        cluster, h = build(seg_counts=[8, 8, 8, 8])
        h(h.scatter(x))
        # Phi is ~3x the Xeon: uniform split leaves ~3x imbalance
        assert h.compute_imbalance() > 2.0

    def test_balanced_beats_uniform_in_elapsed(self, rng):
        x = random_complex(rng, 32 * 448)
        cl_bal, h_bal = build()
        h_bal(h_bal.scatter(x))
        cl_uni, h_uni = build(seg_counts=[8, 8, 8, 8])
        h_uni(h_uni.scatter(x))
        assert cl_bal.elapsed < cl_uni.elapsed


class TestValidation:
    def test_rejects_wrong_seg_count_length(self):
        with pytest.raises(ValueError):
            build(seg_counts=[16, 16])

    def test_rejects_zero_segments(self):
        with pytest.raises(ValueError):
            build(seg_counts=[0, 16, 8, 8])

    def test_rejects_wrong_part_count(self, rng):
        cluster, h = build()
        with pytest.raises(ValueError):
            h([random_complex(rng, 10)] * 3)

    def test_scatter_validates_shape(self, rng):
        cluster, h = build()
        with pytest.raises(ValueError):
            h.scatter(random_complex(rng, 5))

    def test_degenerate_row_split_rejected(self):
        # extreme weights push one rank below a single chunk
        with pytest.raises(ValueError):
            build(n=4 * 448, seg_counts=[1, 1, 1, 29],
                  machines=MIXED, b=16)
