"""The figure table: every paper exhibit and ablation as one row.

A figure is one row of :data:`FIGURES`.  ``name`` is the stem of the file
it owns under ``benchmarks/results/``, ``group`` the choice of
``python -m repro figures`` it prints under, and ``build()`` returns
``(text, gates)``: the rendered exhibit — header list, footer lines and
render call live here and nowhere else — and the ``{name: verdict}``
checks :func:`repro.bench.exhibits.run_exhibit` judges.  A row with a
``section`` is also a section of REPORT.md (:mod:`repro.bench.report`).

``python -m repro figures --output benchmarks/results`` regenerates every
file of the table; ``tests/test_figures.py`` holds the checked-in files
to it byte for byte.  A row whose digits depend on floating-point
rounding of executed numerics says ``exact=False`` and is held by its
gates instead.

Scale notes: numerics run at laptop-feasible sizes on the simulated
cluster; paper-scale rows go through the calibrated §4 model (see
:mod:`repro.bench.runner`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro.baseline.fft2d_dist import Distributed2dFFT
from repro.bench.runner import (
    N_PER_NODE,
    accuracy_rows,
    fig3_rows,
    fig8_series,
    fig9_rows,
    fig10_rows,
    fig11_rows,
    fig12_rows,
    headline_numbers,
    paper_scale_model,
    run_ct,
    run_soi,
    table2_rows,
)
from repro.bench.tables import render_bars, render_series, render_table
from repro.cluster.collectives import (
    bruck_time,
    pairwise_time,
    recommend_algorithm,
)
from repro.cluster.gantt import gantt_from_schedule
from repro.cluster.network import STAMPEDE_EFFECTIVE, NetworkSpec
from repro.cluster.noise import (
    NoiseModel,
    expected_bsp_slowdown,
    noisy_cluster,
)
from repro.cluster.pcie import PcieSpec
from repro.cluster.replay import replay_with_overlap
from repro.cluster.simcluster import SimCluster
from repro.cluster.topology import Torus
from repro.core.convolution import ConvStrategy
from repro.core.params import SoiParams
from repro.core.segments import segments_for_machines
from repro.core.soi_hetero import HeterogeneousSoiFFT
from repro.core.soi_single import SoiFFT
from repro.core.window import GaussianSincWindow
from repro.fft.layout import packet_lengths
from repro.fft.multistep import multistep_fft, multistep_sweeps
from repro.fft.sixstep import sixstep_fft
from repro.machine.cache import CacheSim
from repro.machine.energy import EnergyModel
from repro.machine.pipeline import smt_sweep
from repro.machine.roofline import algorithmic_bops_fft, attainable_efficiency
from repro.machine.spec import (
    XEON_E5_2680,
    XEON_PHI_SE10,
    MachineSpec,
    scaled_machine,
)
from repro.perfmodel.model import PAPER_SECTION4_EXAMPLE, FftModel
from repro.perfmodel.modes import ModeModel
from repro.perfmodel.multicard import MultiCardModel
from repro.perfmodel.overlap import segmented_breakdown, soi_segment_schedule
from repro.perfmodel.sensitivity import tornado
from repro.util.validate import relative_l2_error

__all__ = ["FIGURES", "Figure", "headline_text"]


@dataclass(frozen=True)
class Figure:
    """One exhibit: the result file it owns and how to rebuild it."""

    #: stem of ``benchmarks/results/<name>.txt``
    name: str
    #: the ``python -m repro figures`` choice this row prints under
    group: str
    #: ``() -> (text, {gate: verdict})``
    build: Callable[[], tuple[str, dict]] = field(repr=False)
    #: heading of this row's section in REPORT.md (``None``: not in it)
    section: str | None = None
    #: ``False``: the digits depend on floating-point rounding of executed
    #: numerics, so the checked-in file is held by ``gates``, not bytes
    exact: bool = True


def _rising(values) -> bool:
    return all(a <= b for a, b in zip(values, values[1:]))


def _falling(values) -> bool:
    return all(a >= b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# Table 2, Fig 3 — machines and the §4 model
# ---------------------------------------------------------------------------

def _table2_machines():
    text = render_table(
        ["Machine", "Socket x core x smt x simd", "Clock (GHz)",
         "L1/L2/L3 (KB)", "DP GFLOP/s", "STREAM GB/s", "Bytes per Ops"],
        table2_rows(), title="Table 2: Xeon vs Xeon Phi")
    # appendix: the paper's §5.2.1 20% efficiency ceiling
    bops = algorithmic_bops_fft(512, sweeps=2)
    return "\n".join([
        text,
        "",
        f"in-cache 512-pt FFT algorithmic bops: {bops:.2f} (paper: ~0.7)",
        f"max FFT efficiency on Xeon Phi: "
        f"{attainable_efficiency(XEON_PHI_SE10, bops):.0%} (paper: 20%)",
        f"max FFT efficiency on Xeon:     "
        f"{attainable_efficiency(XEON_E5_2680, bops):.0%}",
    ]), {}


def _fig3_model():
    """32 nodes, N = 2^27 * 32, mu = 5/4, normalized to Cooley-Tukey/Xeon."""
    model = PAPER_SECTION4_EXAMPLE
    return "\n".join([
        render_table(
            ["configuration", "Local FFT", "Convolution", "MPI", "total"],
            fig3_rows(),
            title="Fig 3: normalized execution time (CT/Xeon = 1)"),
        "",
        f"SOI Phi-over-Xeon speedup: {model.speedup('soi'):.2f} (paper: ~1.7)",
        f"CT  Phi-over-Xeon speedup: {model.speedup('ct'):.2f} (paper: ~1.14)",
        f"T_fft  Xeon {model.t_fft(XEON_E5_2680):.2f}s / Phi "
        f"{model.t_fft(XEON_PHI_SE10):.2f}s (paper: 0.50 / 0.16)",
        f"T_conv Xeon {model.t_conv(XEON_E5_2680):.2f}s / Phi "
        f"{model.t_conv(XEON_PHI_SE10):.2f}s (paper: 0.64 / 0.21)",
        f"T_mpi {model.t_mpi():.2f}s (paper: 0.67)",
    ]), {}


# ---------------------------------------------------------------------------
# Fig 5 — SMT pipelining of the load/FFT/store panel loop (§5.2.3)
# ---------------------------------------------------------------------------

def _fig5_smt_pipeline():
    # stage times with the §6.2 measured ratio: compute ~36% of pipelined
    # total => t_fft ~ 1.1x the (ld+st) pair
    stats = smt_sweep(n_panels=128, t_load=1.0, t_fft=2.2, t_store=1.0,
                      thread_counts=(1, 2, 4, 8))
    text = render_table(
        ["SMT threads", "makespan", "memory-pipe utilization", "speedup"],
        [[s.n_threads, round(s.makespan, 1), round(s.mem_utilization, 3),
          round(s.speedup_vs_serial, 2)] for s in stats],
        title="Fig 5: load/FFT/store pipeline vs SMT width "
              "(128 panels, stage ratio from §6.2)")
    return text, {
        "one_thread_starves_memory": stats[0].mem_utilization < 0.6,
        # 4 threads: Phi's SMT width
        "four_threads_saturate": stats[2].mem_utilization > 0.9,
        "makespan_falls": _falling([s.makespan for s in stats]),
    }


# ---------------------------------------------------------------------------
# Fig 8 — weak scaling, 4-512 nodes (~2^27 double-complex per node; 8
# segments/process up to 128 nodes, 2 at 512: Table 3 / §6.1)
# ---------------------------------------------------------------------------

def headline_text() -> str:
    """The paper's §1/§6.1 headline claims beside the reproduced values."""
    h = headline_numbers()
    return "\n".join([
        f"SOI Xeon Phi @512 nodes: {h['tflops_512_phi']:.2f} TFLOPS "
        f"(paper: 6.7)",
        f"SOI Xeon Phi @64 nodes:  {h['tflops_64_phi']:.2f} TFLOPS (paper: "
        "breaks the tera-flop mark)",
        f"per-node advantage vs K computer: "
        f"{h['per_node_vs_k_computer']:.1f}x (paper: ~5x)",
        f"SOI speedup @512: {h['soi_phi_over_xeon_512']:.2f} "
        f"(paper: 1.5-2.0)",
        f"CT speedup @512:  {h['ct_phi_over_xeon_512']:.2f} (paper: ~1.1)",
    ])


def _fig8_weak_scaling():
    s = fig8_series()
    text = render_series(
        "nodes", s["nodes"],
        {k: [round(v, 3) for v in s[k]] for k in s if k != "nodes"},
        title="Fig 8: weak scaling (TFLOPS; speedups are Phi/Xeon time "
              "ratios)")
    return text + "\n\n" + headline_text(), {}


def _fig8_executed_miniature():
    """Real data through the simulated cluster at reduced size, same
    weak-scaling shape."""
    rows = []
    for p in (2, 4, 8):
        x = np.random.default_rng(1).standard_normal(4 * 448 * p) + 0j
        soi = run_soi(SimCluster(p), x, segments=2)
        ct = run_ct(SimCluster(p), x)
        rows.append([p, round(soi.elapsed * 1e3, 4),
                     round(ct.elapsed * 1e3, 4),
                     soi.comm.bytes_moved, ct.comm.bytes_moved])
    text = render_table(
        ["ranks", "SOI sim ms", "CT sim ms", "SOI wire bytes",
         "CT wire bytes"],
        rows, title="Fig 8 (miniature, executed numerics on SimCluster)")
    return text, {"soi_moves_fewer_bytes": all(r[3] < r[4] for r in rows)}


def _k_computer_comparison():
    """Per-node G-FFT vs the K computer (§6.1, §8.2).

    Against the published 2012 HPCC record (205.9 TFLOPS on 81,408 nodes =
    2.53 GF/node), which is what the paper's "about fivefold" refers to;
    and a Tofu-like 3-D torus model running 3-all-to-all Cooley-Tukey at
    equal (512) and true (81,920) scale, showing how torus bisection
    erodes per-node G-FFT at scale.
    """
    nodes = 512
    soi = paper_scale_model(nodes)
    per_node_soi = soi.gflops(
        segmented_breakdown(soi, XEON_PHI_SE10).total) / nodes
    k_node = MachineSpec("SPARC64 VIIIfx-like", 1, 8, 1, 2, 2.0,
                         32, 256, 6144, 128.0, 64.0)
    torus_rows = []
    for dims in ((8, 8, 8), (32, 32, 80)):
        torus = Torus(dims)
        tofu = NetworkSpec("Tofu-like torus", bandwidth_gbps=5.0,
                           latency_us=1.0,
                           contention=lambda p, t=torus: t.contention(p))
        m = FftModel(n_total=N_PER_NODE * torus.nodes, nodes=torus.nodes,
                     network=tofu, use_packet_model=True)
        torus_rows.append([str(dims), torus.nodes, round(
            m.gflops(m.ct_breakdown(k_node).total) / torus.nodes, 2)])
    k_record_per_node = 205.9e3 / 81408  # published 2012 G-FFT
    text = (f"per-node G-FFT: SOI/Phi (modeled) {per_node_soi:.1f} GF/node "
            f"vs K computer published record {k_record_per_node:.2f} GF/node "
            f"-> {per_node_soi / k_record_per_node:.1f}x  (paper: 'about "
            f"fivefold')\n\n"
            + render_table(["torus dims", "nodes", "CT per-node GF (modeled)"],
                           torus_rows,
                           title="Tofu-like torus model (single-link NIC "
                                 "approximation; real Tofu has 10 links/"
                                 "node)"))
    # bisection-bound: per-node G-FFT on the torus degrades with scale
    return text, {"torus_degrades_with_scale":
                  torus_rows[1][2] < torus_rows[0][2]}


def _strong_scaling():
    """Fixed N (the 32-node problem), 32-512 nodes: the paper only shows
    weak scaling; this is where communication kills parallel efficiency."""
    times = {nodes: segmented_breakdown(
        replace(paper_scale_model(nodes), n_total=N_PER_NODE * 32),
        XEON_PHI_SE10).total for nodes in (32, 64, 128, 256, 512)}
    rows = [[nodes, round(t, 3), round(times[32] / (t * nodes / 32), 3)]
            for nodes, t in times.items()]
    text = render_table(
        ["nodes", "time (s)", "parallel efficiency vs 32"],
        rows, title="Strong scaling (fixed N = 32-node problem, Xeon Phi)")
    effs = [r[2] for r in rows]
    return text, {"efficiency_falls": _falling(effs),
                  # communication-bound at 16x over-decomposition
                  "comm_bound_at_512": effs[-1] < 0.7}


# ---------------------------------------------------------------------------
# Fig 9 — execution-time breakdown through the segment-pipelined overlap
# ---------------------------------------------------------------------------

def _fig9_breakdown():
    rows = fig9_rows()
    text = render_table(
        ["machine", "nodes", "local FFT (s)", "convolution (s)",
         "exposed MPI (s)", "etc (s)", "total (s)"],
        rows, title="Fig 9: SOI execution time breakdown (weak scaling)")
    phi = [r for r in rows if r[0] == "Xeon Phi"]
    xeon = [r for r in rows if r[0] == "Xeon"]
    return text, {
        # §6.1: faster compute hides less of the same exchange
        "phi_exposes_more_mpi": all(p[4] >= x[4] * 0.9
                                    for p, x in zip(phi, xeon)),
        # out-of-the-box MKL on Xeon: the unfused demodulation lands in etc
        "xeon_pays_unfused_demod": all(x[5] > p[5]
                                       for x, p in zip(xeon, phi)),
    }


def _fig9_executed_breakdown():
    cl = run_soi(SimCluster(4),
                 np.random.default_rng(2).standard_normal(8 * 448) + 0j,
                 segments=2)
    return render_table(
        ["component", "simulated time"],
        [[k, f"{v * 1e6:.2f} us"] for k, v in sorted(cl.breakdown().items())],
        title="Fig 9 (miniature, executed): per-component simulated time, "
              "slowest rank"), {}


def _overlap_replay():
    """Post-process an executed distributed run into Fig 9 quantities."""
    cl = run_soi(SimCluster(4),
                 np.random.default_rng(14).standard_normal(16 * 448) + 0j,
                 segments=4)
    rows = []
    for segments in (1, 2, 4, 8):
        r = replay_with_overlap(cl.trace, rank=0, segments=segments)
        rows.append([segments, round(r.sequential_elapsed * 1e6, 2),
                     round(r.overlapped_elapsed * 1e6, 2),
                     round(r.exposed_mpi * 1e6, 2),
                     round(r.hidden_mpi_fraction, 3)])
    text = render_table(
        ["segments", "sequential (us)", "overlapped (us)",
         "exposed MPI (us)", "hidden fraction"],
        rows, title="Overlap replay of an executed 4-rank SOI run")
    return text, {"exposure_falls_with_segments":
                  _falling([r[3] for r in rows])}


# ---------------------------------------------------------------------------
# Fig 10 — §5.2 local-FFT optimizations (16M points, one Phi)
# ---------------------------------------------------------------------------

def _fig10_local_fft():
    rows = fig10_rows()
    eff = rows[-1][1] / XEON_PHI_SE10.peak_gflops
    return (render_bars(rows, title="Fig 10: 16M-point local FFT on one Xeon "
                                    "Phi (modeled GFLOPS)", unit=" GFLOPS")
            + f"\n\nfinal efficiency: {eff:.1%} (paper: 12%, i.e. "
              f"~50% of the 23% roofline bound)"), {}


def _fig10_sweep_ledgers():
    """Exact memory-sweep ledgers of the executed naive and optimized
    6-step kernels — the quantity the paper's bars are built on."""
    n = 2 ** 14
    rng = np.random.default_rng(3)
    signal = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    rows = []
    for label, variant in (("6-step-naive", "naive"),
                           ("6-step-opt", "optimized")):
        ledger = sixstep_fft(signal, variant=variant).ledger
        rows.append([label, round(ledger.sweep_count(n), 2),
                     ledger.total_bytes])
    return render_table(
        ["variant", "memory sweeps", "bus bytes"], rows,
        title=f"Fig 10 substrate: executed sweep ledgers ({n}-point local "
              f"FFT)"), {}


def _multistep_depth():
    """§5.2.3 executed: memory sweeps vs decomposition depth."""
    n = 2 ** 12
    x = np.random.default_rng(12).standard_normal(n) + 0j
    rows = []
    for factors in ((64, 64), (16, 16, 16), (8, 8, 8, 8)):
        res = multistep_fft(x, factors)
        rows.append([str(factors), len(factors),
                     round(res.ledger.sweep_count(n), 2),
                     multistep_sweeps(len(factors)), max(factors)])
    text = render_table(
        ["factors", "levels", "measured sweeps", "model sweeps",
         "largest sub-FFT"],
        rows, title="Decomposition depth vs memory sweeps (§5.2.3, executed "
                    "4096-pt FFT)")
    return text, {"deeper_costs_more_sweeps": _rising([r[2] for r in rows])}


# ---------------------------------------------------------------------------
# Fig 11 — §5.3 convolution-and-oversampling optimizations
# ---------------------------------------------------------------------------

def _fig11_convolution():
    return render_table(
        ["nodes", "baseline (s)", "interchange (s)", "buffering (s)"],
        fig11_rows(), title="Fig 11: convolution time on Xeon Phi (modeled, "
                            "weak scaling, 8 segments/process)"), {}


def _fig11_cache_mechanism():
    """Drive each strategy's address trace through a private-LLC-sized
    cache sim — the baseline thrashes, buffering streams."""
    rows = []
    for s in (16, 32, 64):
        p = SoiParams(n=s * 448, n_procs=1, segments_per_process=s,
                      n_mu=8, d_mu=7, b=16)
        row = [s]
        for strat in (ConvStrategy.BASELINE, ConvStrategy.INTERCHANGE,
                      ConvStrategy.BUFFERED):
            sim = CacheSim(size_bytes=16 * 1024, line_bytes=64, assoc=8)
            sim.access(strat.address_trace(p, n_chunks=4))
            row.append(round(sim.stats.miss_rate, 4))
        rows.append(row)
    text = render_table(
        ["segments", "baseline miss rate", "interchange miss rate",
         "buffering miss rate"],
        rows, title="Fig 11 mechanism: cache-simulator miss rates of the "
                    "strategies' address traces (16 KB / 8-way)")
    # at small S, staging overhead makes buffering a wash (the paper sees
    # the same at 4 nodes); at the largest S it clearly wins
    return text, {
        "buffering_never_loses": all(r[3] <= r[2] * 1.05 for r in rows),
        "interchange_near_baseline": all(r[2] <= r[1] * 1.5 for r in rows),
        "buffering_wins_at_64": rows[-1][3] < 0.6 * rows[-1][2],
    }


# ---------------------------------------------------------------------------
# Fig 12 / §7 — symmetric vs offload coprocessor modes
# ---------------------------------------------------------------------------

def _fig12_modes():
    d = fig12_rows()
    lines = ["Fig 12: SOI FFT timing lanes (32 nodes, paper-scale N)"]
    for mode in ("symmetric", "offload"):
        lines.append(f"\n  ({mode})")
        for label, t in d[mode]:
            lines.append(f"    {label:32s} {t:8.3f} s")
        lines.append(f"    {'TOTAL (with overlap)':32s} "
                     f"{d[f'{mode}_total']:8.3f} s")
    # the segmented symmetric-mode schedule as a Gantt (Fig 12a)
    sched = soi_segment_schedule(
        replace(paper_scale_model(32, packet_model=False),
                segments_per_process=4), XEON_PHI_SE10)
    lines += [
        "",
        f"offload slowdown: {d['offload_slowdown']:.2f}x (paper: ~1.25x)",
        f"hybrid speedup:   {d['hybrid_speedup']:.3f}x (paper: < 1.10x)",
        "",
        gantt_from_schedule(sched, title="symmetric-mode lanes, 4 segments"),
    ]
    return "\n".join(lines), {}


def _fig12_pcie_sensitivity():
    """§7 extension: how the mode gap moves with PCIe bandwidth — the
    'performance model can guide' use case the paper describes."""
    base = FftModel(n_total=(2 ** 27) * 32, nodes=32, n_mu=5, d_mu=4)
    rows = []
    for bw in (3.0, 6.0, 12.0, 24.0):
        mm = ModeModel(base, pcie=PcieSpec(bandwidth_gbps=bw))
        rows.append([bw, round(mm.breakdown("symmetric").total, 3),
                     round(mm.breakdown("offload").total, 3),
                     round(mm.offload_slowdown(), 3)])
    text = render_table(
        ["PCIe GB/s", "symmetric (s)", "offload (s)", "offload/symmetric"],
        rows, title="Fig 12 ablation: offload penalty vs PCIe bandwidth")
    return text, {"faster_pcie_shrinks_gap": _falling([r[3] for r in rows])}


# ---------------------------------------------------------------------------
# Accuracy (implicit in the paper: SOI is used as a drop-in FFT; its SC'12
# companion establishes the accuracy/oversampling trade-off)
# ---------------------------------------------------------------------------

def _accuracy():
    rows = accuracy_rows()
    text = render_table(
        ["N", "segments", "mu", "B", "rel l2 error", "design bound"],
        rows, title="SOI accuracy vs numpy.fft (random complex input)")
    return text, {"within_design_bound":
                  all(r[4] < 10 * r[5] + 1e-12 for r in rows)}


def _accuracy_vs_b():
    """Error as a function of convolution width B (the accuracy knob)."""
    rng = np.random.default_rng(5)
    n = 8 * 448
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ref = np.fft.fft(x)
    rows = []
    for b in (16, 24, 32, 48, 64, 72):
        f = SoiFFT(SoiParams(n=n, n_procs=1, segments_per_process=8,
                             n_mu=8, d_mu=7, b=b))
        rows.append([b, relative_l2_error(f(x), ref), f.expected_stopband])
    text = render_table(["B", "rel l2 error", "design bound"], rows,
                        title="SOI error vs convolution width B "
                              "(mu = 8/7, S = 8)")
    return text, {"error_falls_with_b": _falling([r[1] for r in rows])}


def _window_ablation():
    """Kaiser-sinc vs Gaussian-sinc at equal support: the SOI framework
    leaves the window as a design choice and the accuracy rests on it."""
    rng = np.random.default_rng(10)
    n = 8 * 448
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ref = np.fft.fft(x)
    rows = []
    for b in (32, 48, 72):
        params = SoiParams(n=n, n_procs=1, segments_per_process=8,
                           n_mu=8, d_mu=7, b=b)
        k_err = relative_l2_error(SoiFFT(params)(x), ref)
        g_err = relative_l2_error(
            SoiFFT(params, window=GaussianSincWindow(params))(x), ref)
        rows.append([b, k_err, g_err, round(g_err / k_err, 1)])
    text = render_table(
        ["B", "Kaiser-sinc error", "Gaussian-sinc error", "Gaussian/Kaiser"],
        rows, title="Window family ablation (mu = 8/7, S = 8)")
    return text, {
        "kaiser_never_loses": all(r[1] <= r[2] for r in rows),
        "kaiser_error_falls_with_b": _falling([r[1] for r in rows]),
    }


# ---------------------------------------------------------------------------
# §6.1 — segments per process: more segments overlap communication with
# M'-FFTs but shrink packets, and load-balance heterogeneous clusters
# ---------------------------------------------------------------------------

def _segments_sweep():
    spps = [1, 2, 4, 8, 16]
    out = {}
    for nodes in (32, 512):
        out[nodes] = [round(segmented_breakdown(
            replace(paper_scale_model(nodes), segments_per_process=spp),
            XEON_PHI_SE10).total, 3) for spp in spps]
    best_32 = spps[out[32].index(min(out[32]))]
    best_512 = spps[out[512].index(min(out[512]))]
    text = render_series(
        "segments/process", spps,
        {f"{n} nodes total (s)": out[n] for n in out},
        title="Segments/process sweep (Xeon Phi, paper-scale N/node)")
    return (text + f"\n\nbest @32 nodes: {best_32} seg/proc; best @512: "
                   f"{best_512} (paper used 8 at <=128 nodes, 2 at 512)"), {
        # the packet effect: the optimum moves down as the cluster grows
        "optimum_falls_with_nodes": best_512 <= best_32,
        "small_cluster_wants_many": best_32 >= 4,
    }


def _segments_hetero_balance():
    """Executed mixed Xeon+Phi cluster: the paper's 1:6-style segment
    split equalizes rank compute times; a uniform split leaves ~3x."""
    machines = [XEON_E5_2680, XEON_PHI_SE10, XEON_PHI_SE10, XEON_E5_2680]
    n = 32 * 448
    x = np.random.default_rng(8).standard_normal(n) + 0j
    rows = []
    for label, segs in (
        ("proportional (paper §6.1)", segments_for_machines(machines, 32)),
        ("uniform", [8, 8, 8, 8]),
    ):
        cl = SimCluster(4, machines=machines)
        h = HeterogeneousSoiFFT(cl, n, segs, b=48)
        h(h.scatter(x))
        rows.append([label, str(segs), round(h.compute_imbalance(), 3),
                     round(cl.elapsed * 1e6, 2)])
    return render_table(
        ["segment split", "per-rank segments", "compute imbalance",
         "elapsed (sim us)"],
        rows, title="Heterogeneous cluster (2 Xeon + 2 Phi), executed"), {}


# ---------------------------------------------------------------------------
# §5.2.4 / §6.1 — packet lengths and the all-to-all algorithm under them
# ---------------------------------------------------------------------------

def _collectives_crossover():
    """The MPI library's own choice flips from bandwidth-optimal pairwise
    exchange to latency-optimal Bruck as per-pair messages shrink."""
    nodes = 512
    rows = []
    for per_pair in (64, 1024, 16 * 1024, 256 * 1024, 4 * 1024 * 1024):
        rows.append([
            per_pair,
            round(pairwise_time(STAMPEDE_EFFECTIVE, nodes, per_pair) * 1e3, 3),
            round(bruck_time(STAMPEDE_EFFECTIVE, nodes, per_pair) * 1e3, 3),
            recommend_algorithm(STAMPEDE_EFFECTIVE, nodes, per_pair)])
    text = render_table(
        ["bytes/pair", "pairwise (ms)", "Bruck (ms)", "recommended"],
        rows, title="All-to-all algorithm crossover at 512 nodes")
    return text, {"long_messages_go_pairwise": rows[-1][3] == "pairwise"}


def _collectives_soi_regime():
    """Where the SOI exchange sits: per-pair size vs nodes in weak scaling
    (2 segments/process, the paper's 512-node setting)."""
    rows = []
    for nodes in (32, 128, 512, 2048, 8192):
        per_pair = int(16 * (8 / 7) * N_PER_NODE / nodes / 2)
        rows.append([nodes, per_pair,
                     recommend_algorithm(STAMPEDE_EFFECTIVE, nodes, per_pair)])
    text = render_table(
        ["nodes", "SOI bytes/pair", "recommended algorithm"],
        rows, title="SOI all-to-all regime in weak scaling (2 seg/proc)")
    # at the paper's scales messages stay long enough for pairwise
    return text, {"pairwise_at_paper_scale":
                  all(r[2] == "pairwise" for r in rows if r[0] <= 512)}


def _aos_vs_soa():
    """§5.2.4: AoS interface 'to increase mpi packet lengths'."""
    def cost(elems: int, layout: str) -> float:
        return sum(STAMPEDE_EFFECTIVE.message_time(p)
                   for p in packet_lengths(elems, layout))

    rows = []
    for elems in (256, 1024, 4096, 65536):
        t_aos, t_soa = cost(elems, "aos"), cost(elems, "soa")
        rows.append([elems, round(t_aos * 1e6, 2), round(t_soa * 1e6, 2),
                     round(t_soa / t_aos, 2)])
    text = render_table(
        ["elements/message", "AoS time (us)", "SoA time (us)", "SoA/AoS"],
        rows, title="AoS vs SoA wire format (per-pair message cost)")
    return text, {
        "short_packets_always_cost_more": all(r[3] > 1.0 for r in rows),
        # the penalty shrinks as messages grow past the bandwidth ramp
        "penalty_shrinks_with_size": rows[0][3] > rows[-1][3],
    }


# ---------------------------------------------------------------------------
# Beyond the paper's exhibits: its framing claims, priced with its model
# ---------------------------------------------------------------------------

def _dimensionality():
    """Why in-order 1-D is the hard case (paper §1), executed: same N,
    same cluster, wire bytes counted exactly."""
    p = 4
    n = 16 * 448  # = 7168 = 64 x 112
    x = np.random.default_rng(16).standard_normal(n) + 0j
    cl2d = SimCluster(p)
    f2 = Distributed2dFFT(cl2d, 64, n // 64)
    f2(f2.scatter(x.reshape(64, n // 64)))
    cl_soi = run_soi(SimCluster(p), x, segments=4)
    cl_ct = run_ct(SimCluster(p), x)
    unit = 16 * n * (p - 1) / p  # one plain exchange
    rows = [[label, cl.comm.bytes_moved, round(cl.comm.bytes_moved / unit, 2)]
            for label, cl in (("2-D FFT (64 x 112)", cl2d),
                              ("1-D SOI (mu = 8/7)", cl_soi),
                              ("1-D Cooley-Tukey", cl_ct))]
    text = render_table(
        ["transform", "wire bytes (executed)", "x one exchange"],
        rows, title="Dimensionality contrast at equal N (4 ranks): the "
                    "in-order 1-D problem is communication-hard")
    return text, {
        "volume_2d_lt_soi_lt_ct": rows[0][1] < rows[1][1] < rows[2][1],
        # SOI = mu x one exchange + ghost halos; at this miniature N the
        # fixed B*S*P ghost volume is a visible fraction (it vanishes at
        # paper scale)
        "soi_near_mu_exchanges": 8 / 7 <= rows[1][2] < 2.0,
    }


def _energy():
    """SOI vs Cooley-Tukey in joules (paper §1: 'moving data instead of
    computing with them dominates'), with exascale-study unit energies."""
    model, em = PAPER_SECTION4_EXAMPLE, EnergyModel()
    rows = []
    for machine, tag in ((XEON_E5_2680, "Xeon"), (XEON_PHI_SE10, "Phi")):
        for algo, rep in (("SOI", em.soi_report(model, machine)),
                          ("CT", em.ct_report(model, machine))):
            rows.append([f"{algo} / {tag}", round(rep.compute_j, 1),
                         round(rep.memory_j, 1), round(rep.network_j, 1),
                         round(rep.static_j, 1), round(rep.total_j, 1),
                         round(rep.movement_fraction, 2)])
    text = render_table(
        ["config", "compute J", "DRAM J", "network J", "static J",
         "total J", "movement frac"],
        rows, title="Energy per transform (32 nodes, §4 example; exascale-"
                    "study unit costs)")
    ratio = em.soi_vs_ct_energy_ratio(model, XEON_PHI_SE10)
    totals = {r[0]: r[5] for r in rows}
    return (text + f"\n\nSOI saves {ratio:.2f}x total energy vs CT on Phi "
                   f"(time + wire bytes both shrink)"), {
        "soi_cheaper_on_phi_than_xeon":
            totals["SOI / Phi"] < totals["SOI / Xeon"],
        # the §1 thesis: data movement dominates active energy everywhere
        "movement_dominates": all(r[6] > 0.4 for r in rows),
    }


def _future_systems():
    """The framing claim ('interconnect speed will only deteriorate
    compared to compute speed'): sweep the compute:network ratio."""
    m = FftModel(n_total=N_PER_NODE * 64, nodes=64, n_mu=8, d_mu=7)
    rows = []
    for flops_scale in (1, 2, 4, 8, 16):
        machine = scaled_machine(
            XEON_PHI_SE10, f"{flops_scale}x-flops Phi",
            flops_scale=flops_scale, bw_scale=max(1.0, flops_scale / 2))
        soi = m.soi_breakdown(machine)
        t_ct = m.ct_breakdown(machine).total
        rows.append([flops_scale, round(soi.total, 3), round(t_ct, 3),
                     round(t_ct / soi.total, 2),
                     round(soi.mpi / soi.total, 2)])
    text = render_table(
        ["compute scale", "SOI (s)", "CT (s)", "CT/SOI advantage",
         "SOI comm fraction"],
        rows, title="Future systems: SOI advantage vs compute:network gap "
                    "(network fixed, memory BW scales at half compute rate)")
    adv = [r[3] for r in rows]
    return text, {
        "advantage_grows": _rising(adv),
        # asymptote: the pure communication ratio 3/mu = 2.625
        "advantage_nears_3_over_mu":
            abs(adv[-1] - 3 / m.mu) <= 0.05 * 3 / m.mu,
        "comm_fraction_grows": _rising([r[4] for r in rows]),
    }


def _multicard():
    """1-8 cards sharing a node's NIC (and, in offload mode, its PCIe
    complex): compute scales, the communication floor does not."""
    base = FftModel(n_total=N_PER_NODE * 64, nodes=64, n_mu=8, d_mu=7)
    rows = []
    for cards in (1, 2, 4, 8):
        m = MultiCardModel(base, cards=cards)
        rows.append([cards, round(m.symmetric_total(), 3),
                     round(m.offload_total(), 3),
                     round(m.speedup_vs_single_card(), 2),
                     round(m.parallel_efficiency(), 2)])
    return render_table(
        ["cards/node", "symmetric (s)", "offload (s)", "speedup vs 1",
         "card efficiency"],
        rows, title="Cards per node (64 hosts, shared NIC and PCIe)"), {}


def _noise_stragglers():
    """Bulk-synchronous amplification of per-node jitter and stragglers
    on executed SOI vs Cooley-Tukey runs."""
    p = 4
    x = np.random.default_rng(15).standard_normal(8 * 448) + 0j
    rows = []
    for label, noise in (
        ("clean", None),
        ("5% jitter", {"jitter": 0.05, "seed": 1}),
        ("one 2x straggler", {"jitter": 0.0, "stragglers": {1: 1.0}}),
    ):
        cl_soi, cl_ct = SimCluster(p), SimCluster(p)
        if noise is not None:
            # a NoiseModel owns its random stream: one per cluster
            noisy_cluster(cl_soi, NoiseModel(**noise))
            noisy_cluster(cl_ct, NoiseModel(**noise))
        run_soi(cl_soi, x, segments=2)
        run_ct(cl_ct, x)
        rows.append([label, round(cl_soi.elapsed * 1e6, 2),
                     round(cl_ct.elapsed * 1e6, 2)])
    text = render_table(["condition", "SOI elapsed (us)", "CT elapsed (us)"],
                        rows, title="Noise on executed 4-rank runs "
                                    "(simulated time)")
    clean, jitter, straggler = rows
    return (text + f"\n\nBSP max-of-512-ranks inflation at 5% jitter: "
                   f"{expected_bsp_slowdown(512, 0.05, 1):.3f}x per "
                   f"superstep"), {
        "jitter_slows_soi": jitter[1] > clean[1],
        "straggler_slows_soi": straggler[1] > clean[1],
    }


def _sensitivity_tornado():
    """Which inputs of the §4 model move the headline number."""
    rows = [[r.parameter, round(r.low_total, 3), round(r.high_total, 3),
             round(r.relative_swing, 3)]
            for r in tornado(PAPER_SECTION4_EXAMPLE, XEON_PHI_SE10)]
    return render_table(
        ["parameter (+-50%)", "scaled down (s)", "scaled up (s)",
         "relative swing"],
        rows, title="Tornado sensitivity of SOI total time (Phi, §4 "
                    "example)"), {}


# -- the table ----------------------------------------------------------------

FIGURES: tuple[Figure, ...] = (
    Figure("table2_machines", "table2", _table2_machines,
           "Table 2 — machines"),
    Figure("fig3_model", "fig3", _fig3_model,
           "Fig 3 — model-projected normalized times"),
    Figure("fig5_smt_pipeline", "fig5", _fig5_smt_pipeline),
    Figure("fig8_weak_scaling", "fig8", _fig8_weak_scaling,
           "Fig 8 — weak scaling"),
    Figure("fig8_executed_miniature", "fig8", _fig8_executed_miniature),
    Figure("k_computer_comparison", "fig8", _k_computer_comparison),
    Figure("strong_scaling", "fig8", _strong_scaling),
    Figure("fig9_breakdown", "fig9", _fig9_breakdown,
           "Fig 9 — execution-time breakdown"),
    Figure("fig9_executed_breakdown", "fig9", _fig9_executed_breakdown),
    Figure("overlap_replay", "fig9", _overlap_replay),
    Figure("fig10_local_fft", "fig10", _fig10_local_fft,
           "Fig 10 — local FFT ablation (16M points, one Phi)"),
    Figure("fig10_sweep_ledgers", "fig10", _fig10_sweep_ledgers),
    Figure("multistep_depth", "fig10", _multistep_depth),
    Figure("fig11_convolution", "fig11", _fig11_convolution,
           "Fig 11 — convolution ablation"),
    Figure("fig11_cache_mechanism", "fig11", _fig11_cache_mechanism),
    Figure("fig12_modes", "fig12", _fig12_modes,
           "Fig 12 / §7 — coprocessor modes"),
    Figure("fig12_pcie_sensitivity", "fig12", _fig12_pcie_sensitivity),
    Figure("accuracy", "accuracy", _accuracy, "Accuracy", exact=False),
    Figure("accuracy_vs_b", "accuracy", _accuracy_vs_b, exact=False),
    Figure("window_ablation", "accuracy", _window_ablation, exact=False),
    Figure("segments_sweep", "segments", _segments_sweep),
    Figure("segments_hetero_balance", "segments", _segments_hetero_balance),
    Figure("collectives_crossover", "packets", _collectives_crossover),
    Figure("collectives_soi_regime", "packets", _collectives_soi_regime),
    Figure("aos_vs_soa", "packets", _aos_vs_soa),
    Figure("dimensionality", "extensions", _dimensionality),
    Figure("energy", "extensions", _energy),
    Figure("future_systems", "extensions", _future_systems),
    Figure("multicard", "extensions", _multicard),
    Figure("noise_stragglers", "extensions", _noise_stragglers),
    Figure("sensitivity_tornado", "extensions", _sensitivity_tornado),
)
