"""The exhibit table: every ``python -m repro`` verb that renders a result.

An exhibit is one row of :data:`EXHIBITS`: the verb, a ``run(args)``
that does the work and returns a dict, the default ``--output`` path and
the verb's own flags.  ``run`` returns

``text``      what is printed (may be empty),
``artifact``  what ``--output`` receives when that is not ``text``; a
              ``{file name: payload}`` dict makes ``--output`` a directory,
``json``      what ``--json PATH`` receives (verbs that have the flag),
``gates``     ``{name: verdict}`` — ``True`` (Python's or numpy's) passes,
              ``False`` fails and a string says why the gate had no input
              to judge and is printed as ``skipped``.  Anything else, a
              ``None`` measurement included, fails: no gate passes by
              default.

:func:`run_exhibit` is the only place that prints, writes ``--output``
and ``--json``, renders the PASS/FAIL line and derives the exit code.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.bench.figures import FIGURES

__all__ = ["ABFT_OVERHEAD_BUDGET", "EXHIBITS", "Exhibit",
           "TELEMETRY_OVERHEAD_BUDGET", "batch_overhead", "run_exhibit"]

#: A verified ``SoiFFT.batch`` may cost this much of a plain one.
ABFT_OVERHEAD_BUDGET = 1.10
#: An instrumented ``SoiFFT.batch`` may cost this much of a plain one.
TELEMETRY_OVERHEAD_BUDGET = 1.05
#: ``autotune`` prints its largest kernel-row speedup against this: a
#: schedule rule within 5 % of every measured winner leaves nothing to
#: tune.  Reported, not gated.
RULE_SPEEDUP_TARGET = 1.05


@dataclass(frozen=True)
class Exhibit:
    """One ``python -m repro`` verb: what it runs and where it saves."""

    verb: str
    help: str
    run: Callable[..., dict] = field(repr=False)
    #: default of ``--output`` (``None``: print only unless asked)
    output: str | None = None
    #: the verb's own flags as ``(name, add_argument kwargs)`` pairs
    flags: tuple = ()


def run_exhibit(ex: Exhibit, args) -> int:
    """Run one table row: print, save, judge.  Returns the exit code."""
    result = ex.run(args)
    text = result.get("text", "")
    if text:
        print(text)
    if args.output:
        artifact = result.get("artifact", text + "\n")
        if isinstance(artifact, dict):
            for name, payload in artifact.items():
                _save(Path(args.output) / name, payload)
        else:
            _save(args.output, artifact)
    if "json" in result and args.json:
        _save(args.json, json.dumps(result["json"], indent=2) + "\n")
    gates = result.get("gates", {})
    failed = []
    for name, verdict in gates.items():
        if isinstance(verdict, (bool, np.bool_)) and verdict:
            word = "PASS"
        elif isinstance(verdict, str):
            word = f"skipped ({verdict})"
        else:
            word = "FAIL"
            failed.append(name)
        print(f"  {name:<24} {word}")
    if gates:
        print(f"{ex.verb}: " + (f"FAIL ({', '.join(failed)})" if failed
                                else "PASS"))
    return 1 if failed else 0


def _save(path: str | Path, payload: str) -> None:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(payload)
    print(f"wrote {p} ({p.stat().st_size} bytes)")


def batch_overhead(rounds: int = 8, **instrumented) -> dict:
    """Wall-clock cost of an instrumented ``SoiFFT.batch`` over a plain one.

    The two plans alternate on one ``(2, 7 * 2^15)`` block, so each pair
    is timed in the same machine state, and ``ratio`` is the median of
    the per-pair ratios: on a quiet 2-cpu host it spreads over 0.96-1.03
    where the ratio of the two minima reaches 1.14, more than either
    budget.  The block is sized so a call takes ~50 ms; at 20 ms calls
    run-to-run noise alone reaches 6 %.
    """
    from repro.core.params import SoiParams
    from repro.core.soi_single import SoiFFT

    params = SoiParams(n=7 * 2 ** 15, n_procs=1, segments_per_process=8,
                       n_mu=8, d_mu=7, b=48)
    rng = np.random.default_rng(2013)
    xs = (rng.standard_normal((2, params.n))
          + 1j * rng.standard_normal((2, params.n)))
    plain, other = SoiFFT(params), SoiFFT(params, **instrumented)
    out = np.empty_like(xs)
    plain.batch(xs, out=out), other.batch(xs, out=out)  # warm the pools
    pairs = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        plain.batch(xs, out=out)
        t1 = time.perf_counter()
        other.batch(xs, out=out)
        pairs.append((t1 - t0, time.perf_counter() - t1))
    return {"plain_s": min(p for p, _ in pairs),
            "instrumented_s": min(o for _, o in pairs),
            "ratio": float(np.median([o / p for p, o in pairs])),
            "plan": other}


# -- one run(args) per verb ---------------------------------------------------

def _fault_sweep(args) -> dict:
    from repro.bench.faultsweep import DEFAULT_RATES, DEFAULT_SEEDS, build

    rates = (0.0, 0.002, 0.01) if args.quick else DEFAULT_RATES
    seeds = DEFAULT_SEEDS[:2] if args.quick else DEFAULT_SEEDS
    text, gates = build(rates, seeds, p=args.ranks)
    return {"text": text, "gates": gates}


def _scale_chaos(args) -> dict:
    from repro.bench import scalechaos

    text, gates = scalechaos.build(quick=args.quick, seed=args.seed)
    return {"text": text, "gates": gates}


def _degrade_sweep(args) -> dict:
    from repro.bench import degrade

    text, gates = degrade.build(
        degrade.DEFAULT_N if args.n is None else args.n, seed=args.seed)
    return {"text": text, "gates": gates}


def _parallel_bench(args) -> dict:
    from repro.bench import parallelbench

    n = args.n if args.n is not None else (2 ** 18 if args.quick else 2 ** 22)
    reps = args.reps if args.reps is not None else (1 if args.quick else 2)
    result = parallelbench.measure_parallel_soi(
        n=n, workers=tuple(int(w) for w in args.workers.split(",")),
        reps=reps, segments_per_process=args.segments,
        start_method=args.start_method, seed=args.seed)
    text, gates = parallelbench.build(result, quick=args.quick)
    return {"text": text, "json": result, "gates": gates}


def _chaos_parallel(args) -> dict:
    from repro.bench import chaosparallel

    n = args.n if args.n is not None else (2 ** 13 if args.quick else 2 ** 14)
    text, gates = chaosparallel.build(chaosparallel.run_chaos_exhibit(
        n=n, workers=args.workers, seed=args.seed,
        hang_timeout=args.hang_timeout))
    return {"text": text, "gates": gates}


def _serve_bench(args) -> dict:
    from repro.bench.servebench import serve_bench

    out = serve_bench(bool(args.quick))
    diff = out["differential"]
    curves = out["curves"]
    return {"text": f"differential: bitwise={diff['bitwise_equal']} "
                    f"outcomes={diff['outcomes_equal']} "
                    f"reports={diff['reports_equal']}\n\n"
                    + curves["exhibit"] + "\n",
            "artifact": curves["exhibit"] + "\n", "json": out,
            "gates": {"differential": diff["ok"],
                      **{k: v for k, v in sorted(curves["gates"].items())
                         if k.endswith("_ok")}}}


def _autotune(args) -> dict:
    from repro.fft.autotune import (TuneBudget, _build_kernel, autotune,
                                    render_speedup_table)
    from repro.fft.plan import _build_plan
    from repro.fft.wisdom import Wisdom, machine_fingerprint

    if args.smoke:
        sizes = [256, 1008]
        budget = TuneBudget(seconds=min(args.budget, 20.0), max_trials=60)
        reps, batch = 2, 2
    else:
        sizes = ([int(s) for s in args.sizes.split(",")] if args.sizes
                 else [1024, 4096, 2 ** 14, 3 * 2 ** 12, 2 ** 16])
        budget = TuneBudget(seconds=args.budget)
        reps, batch = 3, 4

    machine = machine_fingerprint()
    wisdom_path = Path(args.wisdom)
    wisdom = Wisdom.load(wisdom_path)
    report = autotune(sizes=sizes, budget=budget, wisdom=wisdom,
                      machine=machine, reps=reps, batch=batch,
                      rng_seed=2013)
    table = render_speedup_table(report)
    wisdom_path.parent.mkdir(parents=True, exist_ok=True)
    wisdom.save(wisdom_path)

    # differential check: each winner, planned directly, must agree with
    # the plan get_plan builds by rule (the autotuner may only change
    # speed, never answers).  `_build_plan` is that rule without the
    # cache, so the check leaves the process's caches as it found them.
    rng = np.random.default_rng(2013)
    checks = []  # (relative error, its row's tolerance, result) per row
    for res in report.kernel_results:
        x = (rng.standard_normal(res.n)
             + 1j * rng.standard_normal(res.n)).astype(res.dtype)
        tuned = _build_kernel(res.n, res.sign, res.dtype,
                              res.winner)(x[None, :])[0]
        rule = _build_plan(res.n, res.sign, res.dtype)(x[None, :])[0]
        err = (float(np.max(np.abs(tuned - rule)))
               / (float(np.max(np.abs(rule))) or 1.0))
        checks.append((err, 1e-5 if res.dtype == "complex64" else 1e-12,
                       res))
    err, tol, res = max(checks, key=lambda c: c[0] / c[1])
    best = max(report.kernel_results, key=lambda r: r.speedup)
    return {"text": f"{table}\n[wisdom ({len(wisdom)} entries) to "
                    f"{wisdom_path}]\ndifferential check: worst |tuned - "
                    f"rule| = {err:.2e} at n={res.n} {res.dtype} (tol "
                    f"{tol:g})\nlargest kernel-row speedup: "
                    f"{best.speedup:.2f}x at n={best.n} (target <= "
                    f"{RULE_SPEEDUP_TARGET:.2f}x; reported, not gated)",
            "artifact": table + "\n",
            "gates": {"tuned_equals_default":
                      all(e <= t for e, t, _ in checks)}}


def _faulty_soi_run(ranks: int, seed: int, params, faults: dict | None,
                    **soi_kwargs):
    """One distributed SOI transform on an instrumented simulated fabric."""
    from repro.cluster.faults import FaultPlan, chaos_cluster
    from repro.cluster.simcluster import SimCluster
    from repro.core.soi_dist import DistributedSoiFFT
    from repro.telemetry.metrics import MetricsRegistry

    registry = MetricsRegistry()
    cluster = SimCluster(ranks, metrics=registry)
    plan = None
    if faults is not None:
        plan = FaultPlan.random(seed, ranks, **faults)
        chaos_cluster(cluster, plan)
    soi = DistributedSoiFFT(cluster, params, **soi_kwargs)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(params.n) + 1j * rng.standard_normal(params.n)
    soi(soi.scatter(x))
    return registry, cluster, plan, soi


def _trace_export(args) -> dict:
    from repro.core.params import SoiParams
    from repro.telemetry import (
        chrome_category_totals,
        chrome_trace_json,
        render_stage_profile,
        stage_profile,
    )

    p = SoiParams(n=args.ranks * 2 * 448 if args.n is None else args.n,
                  n_procs=args.ranks, segments_per_process=args.segments,
                  n_mu=args.n_mu, d_mu=args.d_mu, b=args.b)
    faults = None if args.no_faults else {
        "corrupt_rate": args.corrupt_rate, "timeout_rate": args.timeout_rate}
    _, cluster, plan, soi = _faulty_soi_run(args.ranks, args.seed, p, faults)
    lines = [f"fault plan: {plan.describe()}"] if plan is not None else []
    lines.append(f"ran {p.describe()} on {args.ranks} simulated ranks")
    trace = chrome_trace_json(cluster.recorder)
    # round-trip through the parser before trusting the file
    events = json.loads(trace)["traceEvents"]

    # per-category charge totals must match the flat trace's accounting
    totals_ok = True
    for cat, chrome_s in sorted(chrome_category_totals(events).items()):
        flat_s = cluster.trace.total(cat)
        ok = abs(chrome_s - flat_s) <= 1e-9 * max(1.0, abs(flat_s))
        totals_ok &= ok
        lines.append(f"  {cat:10s} chrome={chrome_s:.6e}s "
                     f"trace={flat_s:.6e}s {'OK' if ok else 'MISMATCH'}")

    # timestamps must be monotone non-decreasing within every row
    last_ts: dict = {}
    monotone = True
    spans = [ev for ev in events if ev.get("ph") == "X"]
    for ev in spans:
        if ev["ts"] < last_ts.get(ev["tid"], float("-inf")):
            monotone = False
        last_ts[ev["tid"]] = ev["ts"]
    lines.append(f"{len(spans)} events — load the output in "
                 f"chrome://tracing or ui.perfetto.dev")
    if args.profile:
        lines += ["", render_stage_profile(stage_profile(soi))]
    return {"text": "\n".join(lines), "artifact": trace + "\n",
            "gates": {"category_totals": totals_ok,
                      "timestamp_order": monotone}}


def _metrics(args) -> dict:
    from repro.core.params import SoiParams
    from repro.telemetry import (
        SpanRecorder,
        Telemetry,
        prometheus_text,
        telemetry_snapshot,
    )
    from repro.telemetry.metrics import MetricsRegistry

    p = SoiParams(n=args.ranks * 2 * 448, n_procs=args.ranks,
                  segments_per_process=2, n_mu=8, d_mu=7, b=48)
    registry, cluster, _, _ = _faulty_soi_run(
        args.ranks, args.seed, p, {"corrupt_rate": 0.05}, verify=True)
    text = prometheus_text(registry)
    artifact = text
    if args.json:
        snap = telemetry_snapshot(registry, cluster.recorder,
                                  meta={"ranks": args.ranks, "n": p.n})
        artifact = json.dumps(snap, indent=2) + "\n"
    ovh = batch_overhead(telemetry=Telemetry(recorder=SpanRecorder(),
                                             metrics=MetricsRegistry()))
    return {"text": text + f"# telemetry overhead: plain batch "
                    f"{ovh['plain_s'] * 1e3:.1f} ms, instrumented "
                    f"{ovh['instrumented_s'] * 1e3:.1f} ms, median "
                    f"paired ratio {ovh['ratio']:.3f}x (budget "
                    f"{TELEMETRY_OVERHEAD_BUDGET:.2f}x)",
            "artifact": artifact,
            "gates": {"telemetry_overhead":
                      ovh["ratio"] <= TELEMETRY_OVERHEAD_BUDGET}}


def _figures(args) -> dict:
    texts, files, gates = [], {}, {}
    for fig in FIGURES:
        if args.which in ("all", fig.group):
            text, verdicts = fig.build()
            texts.append(text)
            files[f"{fig.name}.txt"] = text + "\n"
            gates.update({f"{fig.name}.{gate}": verdict
                          for gate, verdict in verdicts.items()})
    return {"text": "\n\n".join(texts), "artifact": files, "gates": gates}


def _report(args) -> dict:
    from repro.bench.report import build_report

    return {"artifact": build_report()}


def _apidoc(args) -> dict:
    from repro.bench.apidoc import build_apidoc

    return {"artifact": build_apidoc()}


# -- the table ----------------------------------------------------------------

def _flag(name: str, **kwargs) -> tuple:
    return name, kwargs


_SOI_GEOMETRY = (
    _flag("--segments", type=int, default=2, help="segment slots per rank"),
    _flag("--n-mu", type=int, default=8),
    _flag("--d-mu", type=int, default=7),
    _flag("--b", type=int, default=48),
)

EXHIBITS: tuple[Exhibit, ...] = (
    Exhibit("fault-sweep", "makespan inflation vs fault rate (SOI vs CT) "
            "and ABFT detection coverage", _fault_sweep,
            "benchmarks/results/fault_sweep.txt", (
                _flag("--quick", action="store_true",
                      help="fewer rates/seeds"),
                _flag("--ranks", type=int, default=8))),
    Exhibit("scale-chaos", "correlated failures and partitions at "
            "10^3-10^4 ranks (full mode needs more than 8 GiB of memory "
            "and many minutes: its 4096-rank partition series alone peaks "
            "at 7.4 GiB)", _scale_chaos,
            "benchmarks/results/scale_chaos.txt", (
                _flag("--quick", action="store_true",
                      help="stop at 1024 ranks (full mode adds 4096 and "
                           "the 1024-rank end-to-end SOI recovery)"),
                _flag("--seed", type=int, default=2013))),
    Exhibit("degrade-sweep", "measured vs predicted SNR for every "
            "degradation-ladder rung", _degrade_sweep,
            "benchmarks/results/degradation_ladder.txt", (
                _flag("--n", type=int, default=None,
                      help="problem size (default: 8 * 1344)"),
                _flag("--seed", type=int, default=0))),
    Exhibit("trace-export", "run a distributed SOI transform and export "
            "a Chrome trace", _trace_export,
            "benchmarks/results/soi_trace_16rank.json", (
                _flag("--ranks", type=int, default=16),
                _flag("--n", type=int, default=None,
                      help="problem size (default: ranks * 2 * 448)"),
                *_SOI_GEOMETRY,
                _flag("--seed", type=int, default=0),
                _flag("--no-faults", action="store_true",
                      help="run on a clean fabric (default injects faults)"),
                _flag("--corrupt-rate", type=float, default=0.002,
                      help="per-message corruption probability (a 16-rank "
                           "all-to-all flies 240 payloads per attempt)"),
                _flag("--timeout-rate", type=float, default=0.001,
                      help="per-message timeout probability"),
                _flag("--profile", action="store_true",
                      help="also print the predicted-vs-measured stage "
                           "table"))),
    Exhibit("metrics", "run an instrumented workload, print Prometheus "
            "metrics, gate the telemetry overhead", _metrics, flags=(
                _flag("--ranks", type=int, default=4),
                _flag("--seed", type=int, default=0),
                _flag("--json", action="store_true",
                      help="save a versioned JSON snapshot instead of "
                           "text"))),
    Exhibit("parallel-bench", "measure real-core SOI speedup (process "
            "backend vs serial)", _parallel_bench,
            "benchmarks/results/parallel_speedup.txt", (
                _flag("--n", type=int, default=None, help="problem size "
                      "(default: 2^22, or 2^18 with --quick)"),
                _flag("--workers", default="1,2,4,8",
                      help="comma-separated worker counts"),
                _flag("--segments", type=int, default=2,
                      help="segment slots per rank"),
                _flag("--reps", type=int, default=None,
                      help="timing repetitions (best-of)"),
                _flag("--seed", type=int, default=2013),
                _flag("--start-method", default="fork",
                      choices=["fork", "spawn"]),
                _flag("--quick", action="store_true",
                      help="CI smoke sizes (n=2^18, 1 rep)"),
                _flag("--json", default=None, help="also save the raw "
                      "result dict as JSON here"))),
    Exhibit("chaos-parallel", "kill/stall/starve real workers; verify "
            "elastic recovery", _chaos_parallel,
            "benchmarks/results/chaos_parallel.txt", (
                _flag("--n", type=int, default=None, help="problem size "
                      "(default: 2^14, or 2^13 with --quick)"),
                _flag("--workers", type=int, default=4),
                _flag("--seed", type=int, default=2013),
                _flag("--hang-timeout", type=float, default=1.5,
                      help="seconds of stale heartbeat before a worker is "
                           "declared hung"),
                _flag("--quick", action="store_true",
                      help="CI smoke size (n=2^13)"))),
    Exhibit("autotune", "measure whether any radix schedule beats the "
            "default rule, save what won, verify each winner == the rule's "
            "plan", _autotune,
            "benchmarks/results/autotune_speedup.txt", (
                _flag("--smoke", action="store_true",
                      help="CI smoke: two kernel sizes, capped budget"),
                _flag("--budget", type=float, default=60.0,
                      help="tuning budget in seconds"),
                _flag("--sizes", default=None,
                      help="comma-separated kernel FFT sizes to tune"),
                _flag("--wisdom", default="benchmarks/results/wisdom.json",
                      help="wisdom store to load, merge into, and save"))),
    Exhibit("serve-bench", "serving gateway: contract differential, "
            "latency-vs-load curves", _serve_bench,
            "benchmarks/results/serving_curves.txt", (
                _flag("--quick", action="store_true",
                      help="CI smoke: fewer requests per operating point"),
                _flag("--json", default="", help="also dump the full "
                      "result dict as JSON here"))),
    Exhibit("figures", "regenerate the paper's exhibits as text; --output "
            "is a directory that receives <name>.txt for each one printed",
            _figures, flags=(
                _flag("which", nargs="?", default="all",
                      choices=["all", *dict.fromkeys(
                          fig.group for fig in FIGURES)]),)),
    Exhibit("report", "write the consolidated REPORT.md", _report,
            "REPORT.md"),
    Exhibit("apidoc", "regenerate docs/API.md", _apidoc, "docs/API.md"),
)
