"""10^3-rank fabric suite (``-m scale``).

Exercises the tentpole contracts at 1024 ranks on the exhibit fabric
(fat tree, 32 ranks per leaf): the hierarchical all-to-all must not
lose to the flat exchange in simulated time (bit-identically), one
switch failure mid-exchange must shrink to a bit-identical exchange at
the surviving rank count, a domain-aligned partition must adjudicate by
quorum, and every scenario must replay exactly from its seed.

Everything is simulated, so the suite is machine-independent; it is
kept out of the default run only because 1024-rank exchanges take tens
of wall-clock seconds each.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.bench.scalechaos import (
    build,
    exchange_rows,
    fabric_for,
    partition_rows,
    switch_failure_rows,
)

pytestmark = pytest.mark.scale

P = 1024


class TestScale1024:
    def test_fabric_shape(self):
        top = fabric_for(P)
        assert top.radix == 64
        dom = top.domains(P)
        assert dom.n_domains == 32
        assert all(len(g) == 32 for g in dom.groups)

    def test_hierarchical_exchange_beats_flat(self):
        row = exchange_rows((P,))[0]
        assert row["bitwise_equal"]
        # the acceptance floor is 0.5 (no regression); measured ~16x
        assert row["speedup"] >= 0.5
        assert row["hier_msgs"] < row["flat_msgs"]
        # 2*(sqrt(P)-1) messages per rank vs P-1
        assert row["hier_msgs"] == P * 2 * (32 - 1)
        assert row["flat_msgs"] == P * (P - 1)

    def test_switch_failure_shrinks_bit_identically(self):
        row = switch_failure_rows((P,))[0]
        assert row["dead"] == 32 and row["survivors"] == P - 32
        assert row["first_detected"] in range(16 * 32, 17 * 32)
        assert row["bitwise_equal"]
        assert 0 < row["mttr_sim_s"] < 1.0

    def test_partition_adjudicates_by_quorum(self):
        row = partition_rows((P,))[0]
        assert row["census"] == "768+256"
        assert row["quorum"] and row["majority"] == 768
        assert row["aborted"] == 256
        assert row["bitwise_equal"]

    def test_degraded_uplink_completes(self):
        from repro.bench.scalechaos import degraded_uplink_rows

        row = degraded_uplink_rows((P,))[0]
        assert row["complete"]
        assert row["slowdown"] > 1.0
        # one retry can ride out several same-attempt losses
        assert row["losses"] > 0 and row["retries"] > 0


class TestSeededReproducibility:
    """Same seed, fresh fabric: identical simulated times, censuses,
    and verdicts — run at 256 ranks to keep the replay cheap."""

    def test_switch_failure_replays_exactly(self):
        a = switch_failure_rows((256,), seed=7)
        b = switch_failure_rows((256,), seed=7)
        assert a == b

    def test_partition_replays_exactly(self):
        a = partition_rows((256,), seed=7)
        b = partition_rows((256,), seed=7)
        assert a == b

    def test_degraded_uplink_replays_exactly(self):
        from repro.bench.scalechaos import degraded_uplink_rows

        a = degraded_uplink_rows((256,), seed=7)
        b = degraded_uplink_rows((256,), seed=7)
        assert a == b

    def test_different_seeds_differ_somewhere(self):
        from repro.bench.scalechaos import degraded_uplink_rows

        a = degraded_uplink_rows((256,), seed=7)[0]
        b = degraded_uplink_rows((256,), seed=8)[0]
        # the loss draws are seeded; distinct seeds give distinct drops
        assert (a["losses"], a["degraded_sim_s"]) != \
            (b["losses"], b["degraded_sim_s"])


class TestCheckedInExhibit:
    def test_quick_rows_match_the_full_mode_file(self):
        """Full mode does not fit an 8 GiB host, so this is the drift check
        ``scale_chaos.txt`` gets there: every 64/256/1024-rank row of the
        four tables, whitespace-normalised (column widths follow the
        widest cell, and full mode adds 4096-rank cells)."""
        def rows(text):
            return [" ".join(line.split()) for line in text.splitlines()
                    if line.split()[:1] in (["64"], ["256"], ["1024"])]

        text, gates = build(quick=True)
        checked_in = (Path(__file__).resolve().parents[1] / "benchmarks"
                      / "results" / "scale_chaos.txt").read_text()
        assert all(v is True for v in gates.values())
        assert len(rows(text)) == 12
        assert rows(text) == rows(checked_in)


class TestSoiAtScale:
    def test_partition_quorum_at_256_ranks(self):
        """End-to-end SOI across a domain-aligned cut: the failing
        inter-leaf collective sees only one rank per leaf, so the
        adjudicator must reconstruct the 192+64 fabric census from the
        installed partition event before judging quorum."""
        from repro.cluster.faults import (
            FaultPlan,
            PartitionEvent,
            RetryPolicy,
        )
        from repro.cluster.simcluster import SimCluster
        from repro.core.params import SoiParams
        from repro.core.soi_dist import DistributedSoiFFT

        q = 256
        top = fabric_for(q)
        params = SoiParams(n=4 * q * q, n_procs=q, n_mu=2, d_mu=1, b=4)
        rng = np.random.default_rng(2013)
        x = rng.standard_normal(params.n) + 1j * rng.standard_normal(
            params.n)
        majority = tuple(range(192))  # 12 of the 16 leaves
        minority = tuple(range(192, 256))
        cl = SimCluster(q, topology=top)
        cl.comm.install_faults(
            FaultPlan(partition=PartitionEvent(
                at_transfer=2, components=(majority, minority))),
            RetryPolicy(max_retries=1))
        soi = DistributedSoiFFT(cl, params)
        y = soi.assemble(soi(soi.scatter(x)))
        rep = soi.last_partition
        assert rep is not None and rep.quorum
        assert tuple(len(c) for c in rep.components) == (192, 64)
        assert rep.majority == majority and rep.aborted == minority
        assert cl.live_ranks == list(majority)
        cl0 = SimCluster(q, topology=top)
        soi0 = DistributedSoiFFT(cl0, params)
        assert np.array_equal(y, soi0.assemble(soi0(soi0.scatter(x))))

    def test_domain_recovery_at_256_ranks(self):
        """End-to-end SOI with a dead leaf switch: domain-aware
        recovery, per-domain MTTR, bit-identical output (1024-rank
        version runs in the full-mode exhibit)."""
        from repro.bench.scalechaos import soi_domain_recovery

        rep = soi_domain_recovery(256)
        assert rep["domain_kind"] == "fat-tree leaf"
        assert len(rep["dead"]) == 16
        assert rep["survivors"] == 240
        assert rep["bitwise_equal"]
        assert list(rep["mttr_by_domain"]) == [rep["victim_domain"]]
        # simulated per-domain repair time stays under the 1 s ceiling
        assert all(0 < t <= 1.0 for t in rep["mttr_by_domain"].values())
