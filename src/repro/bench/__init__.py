"""Exhibit table, figure table, figure drivers and input workloads.

Every ``python -m repro`` exhibit verb is a row of
:data:`repro.bench.exhibits.EXHIBITS`, and every paper exhibit or
ablation the ``figures`` and ``report`` verbs render — one file under
``benchmarks/results/`` each — is a row of
:data:`repro.bench.figures.FIGURES`.  The wall-clock benchmark is
``bench/e2e`` at the repository root, not this package.
"""

from repro.bench.runner import (
    PAPER_NODES,
    accuracy_rows,
    fig3_rows,
    fig8_series,
    fig9_rows,
    fig10_rows,
    fig11_rows,
    fig12_rows,
    headline_numbers,
    paper_scale_model,
    segments_for_nodes,
    table2_rows,
)
from repro.bench.apidoc import build_apidoc, write_apidoc
from repro.bench.chaosparallel import run_chaos_exhibit
from repro.bench.degrade import degrade_sweep_rows
from repro.bench.exhibits import EXHIBITS, Exhibit, run_exhibit
from repro.bench.figures import FIGURES, Figure
from repro.bench.parallelbench import (
    available_cpus,
    measure_parallel_soi,
    parallel_soi_params,
    speedup_floor,
)
from repro.bench.report import build_report, write_report
from repro.bench.servebench import (
    contract_differential,
    serve_bench,
    simulated_curves,
)
from repro.bench.tables import fmt, render_bars, render_series, render_table
from repro.bench.workloads import chirp, constant, impulse, multi_tone, random_complex

__all__ = [
    "EXHIBITS",
    "Exhibit",
    "FIGURES",
    "Figure",
    "PAPER_NODES",
    "accuracy_rows",
    "available_cpus",
    "build_apidoc",
    "build_report",
    "write_apidoc",
    "chirp",
    "contract_differential",
    "write_report",
    "constant",
    "degrade_sweep_rows",
    "fig3_rows",
    "fig8_series",
    "fig9_rows",
    "fig10_rows",
    "fig11_rows",
    "fig12_rows",
    "fmt",
    "headline_numbers",
    "impulse",
    "measure_parallel_soi",
    "multi_tone",
    "paper_scale_model",
    "parallel_soi_params",
    "random_complex",
    "render_bars",
    "render_series",
    "render_table",
    "run_chaos_exhibit",
    "run_exhibit",
    "segments_for_nodes",
    "serve_bench",
    "simulated_curves",
    "speedup_floor",
    "table2_rows",
]
