"""Experiment drivers: one function per paper table/figure.

Each ``figN_*``/``tableN_*`` function computes the data behind the
corresponding exhibit of the paper and returns plain Python structures;
the rows of :data:`repro.bench.figures.FIGURES` render and gate them, and
EXPERIMENTS.md records paper-vs-reproduced values.

Scale notes: numerics run at laptop-feasible sizes; the performance
figures run the paper-scale sizes through the calibrated §4 model, the
packet-aware network model, and the segment-pipeline scheduler — the same
components validated against executed SimCluster runs in the test suite.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.baseline.ct_dist import DistributedCooleyTukeyFFT
from repro.cluster.network import STAMPEDE_EFFECTIVE, NetworkSpec
from repro.cluster.simcluster import SimCluster
from repro.core.convolution import ConvStrategy, conv_time_model
from repro.core.params import SoiParams
from repro.core.soi_dist import DistributedSoiFFT
from repro.core.soi_single import SoiFFT
from repro.machine.spec import XEON_E5_2680, XEON_PHI_SE10
from repro.perfmodel.localfft import LOCAL_FFT_VARIANTS, local_fft_gflops
from repro.perfmodel.model import FftModel
from repro.perfmodel.modes import ModeModel
from repro.perfmodel.overlap import segmented_breakdown

__all__ = [
    "PAPER_NODES",
    "accuracy_rows",
    "fig3_rows",
    "fig8_series",
    "fig9_rows",
    "fig10_rows",
    "fig11_rows",
    "fig12_rows",
    "headline_numbers",
    "paper_scale_model",
    "run_ct",
    "run_soi",
    "segments_for_nodes",
    "table2_rows",
]

#: Node counts on the x axes of Figs 8, 9, 11.
PAPER_NODES = (4, 8, 16, 32, 64, 128, 256, 512)

#: ~2^27 doubles per node with the factor of 7 that mu = 8/7 requires.
N_PER_NODE = 7 * 2 ** 24

#: §6.1: "8 segments per mpi process for <=128 nodes and 2 ... >= 512".
def segments_for_nodes(nodes: int) -> int:
    return 8 if nodes <= 128 else 2


#: Stampede-like network with a mild large-cluster contention roll-off,
#: calibrated so MPI time "slowly increases with more nodes" (Fig 9).
def _stampede_contention(nodes: int) -> float:
    return 1.0 / (1.0 + 0.08 * max(0.0, np.log2(nodes)))


STAMPEDE_SCALED = NetworkSpec(
    name="Stampede FDR IB (scaled)",
    bandwidth_gbps=3.0,
    latency_us=2.0,
    half_bandwidth_msg_bytes=64 * 1024,
    contention=_stampede_contention,
)


def paper_scale_model(nodes: int, *, algorithm_mu=(8, 7), b: int = 72,
                      packet_model: bool = True) -> FftModel:
    """The paper's weak-scaling configuration at a given node count."""
    return FftModel(
        n_total=N_PER_NODE * nodes,
        nodes=nodes,
        b=b,
        n_mu=algorithm_mu[0],
        d_mu=algorithm_mu[1],
        network=STAMPEDE_SCALED if packet_model else STAMPEDE_EFFECTIVE,
        segments_per_process=segments_for_nodes(nodes),
        use_packet_model=packet_model,
    )


def run_soi(cluster: SimCluster, x: np.ndarray,
            segments: int = 1) -> SimCluster:
    """One distributed SOI transform of *x* (mu = 8/7, B = 48) on *cluster*
    (and whatever fault plan the caller installed on it)."""
    soi = DistributedSoiFFT(cluster, SoiParams(
        n=x.size, n_procs=cluster.n_ranks, segments_per_process=segments,
        n_mu=8, d_mu=7, b=48))
    soi(soi.scatter(x))
    return cluster


def run_ct(cluster: SimCluster, x: np.ndarray) -> SimCluster:
    """One distributed in-order Cooley-Tukey transform of *x* on *cluster*."""
    ct = DistributedCooleyTukeyFFT(cluster, x.size)
    ct(ct.scatter(x))
    return cluster


# ---------------------------------------------------------------------------
# Table 2
# ---------------------------------------------------------------------------

def table2_rows() -> list[list]:
    """Machine comparison (paper Table 2), with derived bops."""
    rows = []
    for m in (XEON_E5_2680, XEON_PHI_SE10):
        rows.append([
            m.name,
            f"{m.sockets} x {m.cores_per_socket} x {m.smt} x {m.simd_lanes}",
            m.clock_ghz,
            f"{m.l1_kb}/{m.l2_kb}/{m.l3_kb if m.l3_kb else '-'}",
            m.peak_gflops,
            m.stream_gbps,
            round(m.bops, 2),
        ])
    return rows


# ---------------------------------------------------------------------------
# Fig 3 — model-projected normalized execution times
# ---------------------------------------------------------------------------

def fig3_rows() -> list[list]:
    """Normalized (to CT/Xeon) component times, §4 example parameters."""
    model = FftModel(n_total=(2 ** 27) * 32, nodes=32, b=72, n_mu=5, d_mu=4)
    ref = model.ct_breakdown(XEON_E5_2680).total
    rows = []
    for algo, machine, name in (
        ("ct", XEON_E5_2680, "Cooley-Tukey / Xeon"),
        ("ct", XEON_PHI_SE10, "Cooley-Tukey / Xeon Phi"),
        ("soi", XEON_E5_2680, "SOI / Xeon"),
        ("soi", XEON_PHI_SE10, "SOI / Xeon Phi"),
    ):
        br = (model.ct_breakdown if algo == "ct" else model.soi_breakdown)(machine)
        n = br.normalized_to(ref)
        rows.append([name, round(n.local_fft, 3), round(n.convolution, 3),
                     round(n.mpi, 3), round(n.total, 3)])
    return rows


# ---------------------------------------------------------------------------
# Fig 8 — weak-scaling TFLOPS + Phi/Xeon speedup lines
# ---------------------------------------------------------------------------

def fig8_series(nodes_list: tuple[int, ...] = PAPER_NODES) -> dict:
    """TFLOPS of the four configurations plus the two speedup lines."""
    out = {"nodes": list(nodes_list), "CT Xeon": [], "CT Xeon Phi (projected)": [],
           "SOI Xeon": [], "SOI Xeon Phi": [], "CT speedup": [], "SOI speedup": []}
    for nodes in nodes_list:
        m = paper_scale_model(nodes)
        times = {}
        for machine, tag in ((XEON_E5_2680, "Xeon"), (XEON_PHI_SE10, "Xeon Phi")):
            times[("ct", tag)] = m.ct_breakdown(machine).total
            # Xeon runs out-of-the-box MKL: demodulation is a separate,
            # unfused pass there (§6.1)
            times[("soi", tag)] = segmented_breakdown(
                m, machine, fuse_demodulation=(tag == "Xeon Phi")).total
        out["CT Xeon"].append(m.gflops(times[("ct", "Xeon")]) / 1e3)
        out["CT Xeon Phi (projected)"].append(
            m.gflops(times[("ct", "Xeon Phi")]) / 1e3)
        out["SOI Xeon"].append(m.gflops(times[("soi", "Xeon")]) / 1e3)
        out["SOI Xeon Phi"].append(m.gflops(times[("soi", "Xeon Phi")]) / 1e3)
        out["CT speedup"].append(times[("ct", "Xeon")] / times[("ct", "Xeon Phi")])
        out["SOI speedup"].append(times[("soi", "Xeon")] / times[("soi", "Xeon Phi")])
    return out


def headline_numbers() -> dict:
    """The paper's §1/§6.1 headline claims, reproduced from the model."""
    s = fig8_series()
    nodes = s["nodes"]
    tf512 = s["SOI Xeon Phi"][nodes.index(512)]
    tf64 = s["SOI Xeon Phi"][nodes.index(64)]
    # K computer: 206 TFLOPS on 81,408 nodes (2012 HPCC G-FFT)
    k_per_node = 206e3 / 81408  # GFLOPS/node
    ours_per_node = tf512 * 1e3 / 512
    return {
        "tflops_512_phi": tf512,
        "tflops_64_phi": tf64,
        "soi_phi_over_xeon_512": s["SOI speedup"][nodes.index(512)],
        "ct_phi_over_xeon_512": s["CT speedup"][nodes.index(512)],
        "per_node_vs_k_computer": ours_per_node / k_per_node,
    }


# ---------------------------------------------------------------------------
# Fig 9 — execution time breakdowns
# ---------------------------------------------------------------------------

def fig9_rows(nodes_list: tuple[int, ...] = PAPER_NODES) -> list[list]:
    """[machine, nodes, local FFT, convolution, exposed MPI, etc, total]."""
    rows = []
    for machine, tag in ((XEON_E5_2680, "Xeon"), (XEON_PHI_SE10, "Xeon Phi")):
        for nodes in nodes_list:
            m = paper_scale_model(nodes)
            # Xeon path uses out-of-the-box MKL: demodulation not fused (§6.1)
            run = segmented_breakdown(m, machine,
                                      fuse_demodulation=(tag == "Xeon Phi"))
            b = run.breakdown()
            rows.append([tag, nodes, round(b["local FFT"], 3),
                         round(b["convolution"], 3),
                         round(b["exposed MPI"], 3), round(b["etc"], 3),
                         round(run.total, 3)])
    return rows


# ---------------------------------------------------------------------------
# Fig 10 — local FFT optimization ablation
# ---------------------------------------------------------------------------

def fig10_rows(n: int = 16 * 2 ** 20) -> list[tuple[str, float]]:
    """(variant, GFLOPS) for the 16M-point local FFT on one Phi card."""
    return [(v.name, local_fft_gflops(n, v)) for v in LOCAL_FFT_VARIANTS]


# ---------------------------------------------------------------------------
# Fig 11 — convolution optimization ablation
# ---------------------------------------------------------------------------

def fig11_rows(nodes_list: tuple[int, ...] = (4, 8, 16, 32, 64)) -> list[list]:
    """Convolution time vs node count for the three strategies (Phi).

    Weak scaling at the evaluation's 8 segments/process (Table 3), so the
    total segment count S = 8P grows with the cluster and with it the
    baseline's n_mu*B*S working set (the Fig 11 blow-up) and the
    interchange strategy's stride-S conflict misses.
    """
    rows = []
    for nodes in nodes_list:
        params = SoiParams(n=N_PER_NODE * nodes, n_procs=nodes,
                           segments_per_process=8, n_mu=8, d_mu=7, b=72)
        row = [nodes]
        for strat in (ConvStrategy.BASELINE, ConvStrategy.INTERCHANGE,
                      ConvStrategy.BUFFERED):
            row.append(round(conv_time_model(params, XEON_PHI_SE10, strat), 4))
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Fig 12 — symmetric vs offload timing
# ---------------------------------------------------------------------------

def fig12_rows(nodes: int = 32) -> dict:
    """Timing-diagram lanes and totals for both coprocessor modes."""
    mm = ModeModel(paper_scale_model(nodes, packet_model=False))
    return {
        "symmetric": mm.timing_diagram("symmetric"),
        "offload": mm.timing_diagram("offload"),
        "symmetric_total": mm.breakdown("symmetric").total,
        "offload_total": mm.breakdown("offload").total,
        "offload_slowdown": mm.offload_slowdown(),
        "hybrid_speedup": mm.hybrid_speedup(),
    }


# ---------------------------------------------------------------------------
# Accuracy (implicit in the paper; SOI must match the FFT)
# ---------------------------------------------------------------------------

def accuracy_rows(seed: int = 0) -> list[list]:
    """[N, S, mu, B, rel l2 error vs numpy, design bound] at test scale."""
    rng = np.random.default_rng(seed)
    rows = []
    for (n, s, n_mu, d_mu, b) in (
        (8 * 448, 8, 8, 7, 48),
        (8 * 448, 8, 8, 7, 72),
        (16 * 448, 16, 8, 7, 72),
        (2 ** 13, 8, 5, 4, 72),
        (2 ** 14, 16, 5, 4, 72),
    ):
        params = SoiParams(n=n, n_procs=1, segments_per_process=s,
                           n_mu=n_mu, d_mu=d_mu, b=b)
        f = SoiFFT(params)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ref = np.fft.fft(x)
        err = float(np.linalg.norm(f(x) - ref) / np.linalg.norm(ref))
        rows.append([n, s, f"{n_mu}/{d_mu}", b, err, f.expected_stopband])
    return rows
