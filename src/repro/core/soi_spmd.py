"""SOI FFT as an SPMD run: scatter, every rank runs the program, gather.

The rank-local program — written the way the paper's symmetric-mode MPI
code is, and the template users would port to mpi4py on a real cluster —
is :func:`repro.core.soi_dist.soi_rank_program`.  This module is the
whole-array convenience entry over its driver.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.backends import ExecutionBackend
from repro.cluster.simcluster import SimCluster
from repro.core.params import SoiParams
from repro.core.soi_dist import DistributedSoiFFT

__all__ = ["spmd_soi_fft"]


def spmd_soi_fft(cluster: SimCluster, params: SoiParams, x: np.ndarray,
                 window=None, verify=False, hedge=None, deadline=None,
                 backend: ExecutionBackend | None = None) -> np.ndarray:
    """Scatter, run the SPMD program on every rank, gather the spectrum.

    One-shot form of :class:`~repro.core.soi_dist.DistributedSoiFFT`
    (which see for *backend*, *deadline*, *hedge* and the recovery
    behaviour: rank deaths shrink-and-redistribute, partitions are
    adjudicated by quorum); callers serving many transforms of one
    geometry should hold the plan instead of planning the driver here.

    *verify* arms ABFT stage verification: ``True`` / a
    :class:`~repro.verify.VerifyPolicy` build a fresh
    :class:`~repro.verify.DistVerifier`, or pass your own verifier
    (built for the same params) to read its ``.report`` afterwards.
    A recovery lands as a :class:`~repro.core.soi_dist.RecoveryReport`
    in ``backend.last_recovery`` when a backend is passed.
    """
    soi = DistributedSoiFFT(cluster, params, window, verify=verify,
                            backend=backend)
    return soi.assemble(soi(soi.scatter(x), deadline=deadline, hedge=hedge))
