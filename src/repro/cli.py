"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``selftest``   quick numerical self-check (SOI vs the library's own FFT
               and the naive DFT oracle at several parameter points)
``transform``  SOI-transform a synthetic signal and report accuracy/timing
``verify``     run the ABFT self-verifying distributed transform under a
               seeded silent-data-corruption schedule, report detection /
               localization / repair counts and the wall-clock price of
               verification
``info``       print machine presets, version, and parameter rules

Every other verb (``fault-sweep``, ``scale-chaos``, ``degrade-sweep``,
``trace-export``, ``metrics``, ``parallel-bench``, ``chaos-parallel``,
``autotune``, ``serve-bench``, ``figures``, ``report``, ``apidoc``) is a row of
:data:`repro.bench.exhibits.EXHIBITS` and runs through its one handler.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

__all__ = ["main"]


def _cmd_selftest(args: argparse.Namespace) -> int:
    from repro.core.params import SoiParams
    from repro.core.soi_single import SoiFFT
    from repro.fft.dft import dft
    from repro.util.validate import relative_l2_error

    rng = np.random.default_rng(0)
    cases = [
        (8 * 448, 8, 8, 7, 48),
        (8 * 448, 8, 8, 7, 72),
        (2 ** 12, 8, 5, 4, 64),
    ]
    failures = 0
    for n, s, n_mu, d_mu, b in cases:
        params = SoiParams(n=n, n_procs=1, segments_per_process=s,
                           n_mu=n_mu, d_mu=d_mu, b=b)
        f = SoiFFT(params)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        err = relative_l2_error(f(x), np.fft.fft(x))
        ok = err < 10 * f.expected_stopband + 1e-12
        failures += not ok
        print(f"  {params.describe():55s} err={err:.2e} "
              f"bound={f.expected_stopband:.1e} {'OK' if ok else 'FAIL'}")
    # oracle cross-check on the kernel library itself
    x = rng.standard_normal(240) + 1j * rng.standard_normal(240)
    from repro.fft.plan import fft as lib_fft

    kerr = relative_l2_error(lib_fft(x), dft(x))
    print(f"  kernel library vs naive DFT (n=240): err={kerr:.2e} "
          f"{'OK' if kerr < 1e-10 else 'FAIL'}")
    failures += kerr >= 1e-10
    print("selftest:", "PASS" if failures == 0 else f"{failures} FAILURES")
    return 1 if failures else 0


def _cmd_transform(args: argparse.Namespace) -> int:
    from repro.core.params import SoiParams
    from repro.core.soi_single import SoiFFT
    from repro.util.validate import relative_l2_error

    n = args.n
    params = SoiParams(n=n, n_procs=1, segments_per_process=args.segments,
                       n_mu=args.n_mu, d_mu=args.d_mu, b=args.b)
    print(f"planning {params.describe()} ...")
    t0 = time.perf_counter()
    f = SoiFFT(params)
    t_plan = time.perf_counter() - t0
    rng = np.random.default_rng(args.seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    t0 = time.perf_counter()
    y = f(x)
    t_run = time.perf_counter() - t0
    err = relative_l2_error(y, np.fft.fft(x))
    print(f"plan: {t_plan * 1e3:.1f} ms   transform: {t_run * 1e3:.1f} ms   "
          f"rel l2 error vs numpy: {err:.2e} (design bound "
          f"{f.expected_stopband:.1e})")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.bench.exhibits import ABFT_OVERHEAD_BUDGET, batch_overhead
    from repro.bench.faultsweep import detection_coverage
    from repro.cluster.faults import FaultPlan, chaos_cluster
    from repro.cluster.simcluster import SimCluster
    from repro.core.params import SoiParams
    from repro.core.soi_dist import DistributedSoiFFT
    from repro.util.validate import relative_l2_error

    p = SoiParams(n=args.n, n_procs=args.ranks,
                  segments_per_process=args.segments,
                  n_mu=args.n_mu, d_mu=args.d_mu, b=args.b)
    cluster = SimCluster(args.ranks)
    plan = FaultPlan.random(args.seed, args.ranks, sdc_rate=args.sdc_rate,
                            sdc_amplitude=args.amplitude,
                            horizon_sdc=2 * args.ranks)
    chaos_cluster(cluster, plan)
    soi = DistributedSoiFFT(cluster, p, verify=True)
    th = soi.verifier.thresholds
    print(f"running {p.describe()}")
    print(f"fault plan: {plan.describe()}")
    print(f"thresholds: checksum_rtol={th.checksum_rtol:.2e} "
          f"min_detectable={th.min_detectable_amplitude:.2e} rms")
    rng = np.random.default_rng(args.seed)
    x = rng.standard_normal(p.n) + 1j * rng.standard_normal(p.n)
    y = soi.assemble(soi(soi.scatter(x)))
    err = relative_l2_error(y, np.fft.fft(x))
    rep = soi.last_verification
    cov = detection_coverage(rep, plan, p)
    print(f"verification: {rep.summary()}")
    print(f"sdc: injected={cov['injected']} detected={cov['detected']} "
          f"localized={cov['localized']} repairs={cov['repairs']} "
          f"escalations={cov['escalations']}")
    print(f"rel l2 error vs numpy: {err:.2e} (bound {th.output_rtol:.1e})")
    # the price of verification on a clean single-node batch.  Reported,
    # not gated: the budget dates from before the convolution got 7x
    # faster and has read 1.12-1.25x since (ROADMAP item 3).
    ovh = batch_overhead(rounds=5, verify=True)
    clean_trips = ovh["plan"].verifier.report.detections
    print(f"abft overhead: plain batch {ovh['plain_s'] * 1e3:.1f} ms, "
          f"verified {ovh['instrumented_s'] * 1e3:.1f} ms, median paired "
          f"ratio {ovh['ratio']:.3f}x ("
          f"{'OVER' if ovh['ratio'] > ABFT_OVERHEAD_BUDGET else 'within'} "
          f"the {ABFT_OVERHEAD_BUDGET:.2f}x budget; reported, not gated); "
          f"false positives on the clean batch: {clean_trips}")
    ok = (err <= th.output_rtol
          and cov["detected"] == cov["injected"]
          and (plan.sdc_events or rep.detections == 0)
          and clean_trips == 0)
    print("verify:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_info(args: argparse.Namespace) -> int:
    import repro
    from repro.machine.spec import XEON_E5_2680, XEON_PHI_SE10

    print(f"repro {repro.__version__} — SC'13 SOI FFT reproduction")
    for m in (XEON_E5_2680, XEON_PHI_SE10):
        print(f"  {m.name}: {m.peak_gflops} GF/s, {m.stream_gbps} GB/s, "
              f"bops {m.bops:.2f}")
    print("parameter rules: S | N;  d_mu | N/S;  P | M';  n_mu | M'/P;"
          "  B even, B*S < N")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro``."""
    from functools import partial

    from repro.bench.exhibits import EXHIBITS, run_exhibit

    parser = argparse.ArgumentParser(
        prog="repro", description="SC'13 SOI FFT reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("selftest", help="quick numerical self-check") \
        .set_defaults(handler=_cmd_selftest)

    t = sub.add_parser("transform", help="run one SOI transform")
    t.add_argument("--n", type=int, default=8 * 7 * 1024)
    t.add_argument("--segments", type=int, default=8)
    t.add_argument("--n-mu", type=int, default=8)
    t.add_argument("--d-mu", type=int, default=7)
    t.add_argument("--b", type=int, default=72)
    t.add_argument("--seed", type=int, default=0)
    t.set_defaults(handler=_cmd_transform)

    v = sub.add_parser(
        "verify",
        help="self-verifying distributed transform under seeded SDC")
    v.add_argument("--n", type=int, default=4 * 2 * 448)
    v.add_argument("--ranks", type=int, default=4)
    v.add_argument("--segments", type=int, default=2,
                   help="segment slots per rank")
    v.add_argument("--n-mu", type=int, default=8)
    v.add_argument("--d-mu", type=int, default=7)
    v.add_argument("--b", type=int, default=48)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--sdc-rate", type=float, default=0.25,
                   help="per-stage silent-corruption probability")
    v.add_argument("--amplitude", type=float, default=5.0,
                   help="perturbation amplitude in units of buffer RMS")
    v.set_defaults(handler=_cmd_verify)

    sub.add_parser("info", help="print presets and parameter rules") \
        .set_defaults(handler=_cmd_info)

    for ex in EXHIBITS:
        sp = sub.add_parser(ex.verb, help=ex.help)
        for name, kwargs in ex.flags:
            sp.add_argument(name, **kwargs)
        sp.add_argument("--output", default=ex.output,
                        help="save the exhibit here ('' to skip saving)")
        sp.set_defaults(handler=partial(run_exhibit, ex))

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
