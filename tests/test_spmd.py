"""Tests for the generator-based SPMD runtime."""

import numpy as np
import pytest

from repro.cluster.simcluster import SimCluster
from repro.cluster.spmd import (
    AllToAll,
    Barrier,
    Bcast,
    Compute,
    SendRecvRing,
    SpmdError,
    run_spmd,
)


class TestBasics:
    def test_no_communication_program(self):
        def prog(ctx):
            return ctx.rank * 10
            yield  # pragma: no cover - makes it a generator

        assert run_spmd(SimCluster(3), prog) == [0, 10, 20]

    def test_compute_charges_rank_clock(self):
        def prog(ctx):
            yield Compute(1.0 + ctx.rank, label="work")
            return ctx.rank

        cl = SimCluster(2)
        run_spmd(cl, prog)
        assert cl.clocks == [1.0, 2.0]

    def test_extra_args_forwarded(self):
        def prog(ctx, base):
            return base + ctx.rank
            yield  # pragma: no cover

        assert run_spmd(SimCluster(2), prog, 100) == [100, 101]

    def test_rejects_non_generator(self):
        with pytest.raises(TypeError):
            run_spmd(SimCluster(1), lambda ctx: 42)


class TestCollectives:
    def test_alltoall_semantics(self):
        def prog(ctx):
            send = [np.array([ctx.rank * 10 + d], dtype=np.complex128)
                    for d in range(ctx.size)]
            recv = yield AllToAll(send)
            return [int(r[0].real) for r in recv]

        out = run_spmd(SimCluster(3), prog)
        # rank d receives src*10 + d from every src
        for d in range(3):
            assert out[d] == [0 * 10 + d, 1 * 10 + d, 2 * 10 + d]

    def test_ring_semantics(self):
        def prog(ctx):
            halo = yield SendRecvRing(
                to_left=np.array([100.0 + ctx.rank]),
                to_right=np.array([200.0 + ctx.rank]))
            from_left, from_right = halo
            return (float(from_left[0].real), float(from_right[0].real))

        out = run_spmd(SimCluster(4), prog)
        for r in range(4):
            assert out[r][0] == 200.0 + (r - 1) % 4
            assert out[r][1] == 100.0 + (r + 1) % 4

    def test_bcast(self):
        def prog(ctx):
            buf = np.arange(3, dtype=np.complex128) if ctx.rank == 1 else None
            got = yield Bcast(buf, root=1)
            return got.sum().real

        assert run_spmd(SimCluster(3), prog) == [3.0, 3.0, 3.0]

    def test_barrier_synchronizes(self):
        def prog(ctx):
            yield Compute(float(ctx.rank), label="skew")
            yield Barrier()
            return None

        cl = SimCluster(3)
        run_spmd(cl, prog)
        assert len(set(cl.clocks)) == 1

    def test_multiple_collectives_in_sequence(self):
        def prog(ctx):
            a = yield Bcast(np.array([1.0 + 0j]) if ctx.rank == 0 else None)
            yield Barrier()
            b = yield Bcast(np.array([2.0 + 0j]) if ctx.rank == 0 else None)
            return (a[0] + b[0]).real

        assert run_spmd(SimCluster(2), prog) == [3.0, 3.0]

    def test_byte_accounting_matches_communicator(self):
        def prog(ctx):
            send = [np.ones(4, dtype=np.complex128) for _ in range(ctx.size)]
            yield AllToAll(send)
            return None

        cl = SimCluster(4)
        run_spmd(cl, prog)
        assert cl.comm.bytes_moved == 4 * 3 * 64


class TestDiscipline:
    def test_mismatched_collectives_raise(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield Barrier()
            else:
                yield Bcast(np.zeros(1), root=1)
            return None

        with pytest.raises(SpmdError, match="disagree"):
            run_spmd(SimCluster(2), prog)

    def test_unbalanced_counts_raise(self):
        def prog(ctx):
            yield Barrier()
            if ctx.rank == 0:
                yield Barrier()
            return None

        with pytest.raises(SpmdError, match="unbalanced"):
            run_spmd(SimCluster(2), prog)

    def test_mismatched_labels_raise(self):
        def prog(ctx):
            yield Barrier(label=f"b{ctx.rank}")
            return None

        with pytest.raises(SpmdError, match="label"):
            run_spmd(SimCluster(2), prog)

    def test_bcast_root_disagreement(self):
        def prog(ctx):
            yield Bcast(np.zeros(1), root=ctx.rank)
            return None

        with pytest.raises(SpmdError, match="root"):
            run_spmd(SimCluster(2), prog)

    def test_alltoall_wrong_buffer_count(self):
        def prog(ctx):
            yield AllToAll([np.zeros(1)])
            return None

        with pytest.raises(SpmdError, match="buffer per rank"):
            run_spmd(SimCluster(2), prog)


class TestSpmdSoi:
    def test_matches_numpy(self, rng):
        from repro.core.params import SoiParams
        from repro.core.soi_spmd import spmd_soi_fft

        n, p = 8 * 448, 2
        params = SoiParams(n=n, n_procs=p, segments_per_process=4,
                           n_mu=8, d_mu=7, b=48)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = spmd_soi_fft(SimCluster(p), params, x)
        ref = np.fft.fft(x)
        assert np.linalg.norm(y - ref) / np.linalg.norm(ref) < 1e-4

    def test_validates_shapes(self, rng):
        from repro.core.params import SoiParams
        from repro.core.soi_spmd import spmd_soi_fft

        params = SoiParams(n=8 * 448, n_procs=2, segments_per_process=4,
                           n_mu=8, d_mu=7, b=48)
        with pytest.raises(ValueError):
            spmd_soi_fft(SimCluster(2), params, rng.standard_normal(10))
        with pytest.raises(ValueError):
            spmd_soi_fft(SimCluster(4), params,
                         rng.standard_normal(8 * 448) + 0j)
