#!/usr/bin/env python3
"""The repo's wall-clock benchmark: one command, five workloads.

``python3 bench/e2e/run.py --seed 2013 [--trace]`` runs every workload of
``BENCHMARK.json`` in its own subprocess, checks every output and prints
every end-to-end metric by name with its unit; ``--trace`` adds the traced
pass that fills the per-layer ledger and writes
``bench/e2e/results/trace_<workload>.json``.

``--workload NAME --seed N --seconds S --trace 0|1`` runs one pass of one
workload in this process and ends with the one-line JSON result the
benchmark contract asks for.  Exit status: 0 ok, 1 an output was wrong or
an operation failed, 3 the workload was skipped (a precondition is
missing on this host; no result line is printed).
"""

import os

# Before numpy is imported anywhere below: with OpenBLAS's default pool on
# a 2-cpu host the same SoiFFT call is bimodal (12 ms or 32 ms).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
EXIT_FAILED, EXIT_SKIPPED = 1, 3


def declared() -> dict:
    """BENCHMARK.json: the names, units and bounds this harness must emit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _read(path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def host_facts(seed: int) -> dict:
    import numpy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        level = _read(index / "level") + _read(index / "type")[0].lower()
        caches[f"L{level}"] = _read(index / "size")
    model = [line.split(":", 1)[1].strip()
             for line in _read("/proc/cpuinfo").splitlines()
             if line.startswith("model name")]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model[0] if model else platform.processor(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "start_method": "fork",  # ProcessBackend's default, left as is
        "seed": seed,
        "git_commit": commit,
    }


def child_pids() -> set:
    """Processes whose parent is this one, zombies too."""
    mine = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # "pid (comm) state ppid ..."; comm may hold spaces and brackets
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:
            continue  # ended while we looked
        if int(fields[1]) == os.getpid():
            mine.add(int(stat.parent.name))
    return mine


def stop_children(before: set) -> None:
    """Stop every process started since *before* was taken and wait until
    each has ended, so that none outlives the run.

    ``ProcessBackend.close()`` has joined its workers by now.  What is left
    is multiprocessing's resource tracker, which the first shared-memory
    segment starts: it ends once its pipe closes, which without this is
    some time after this process has gone.
    """
    for worker in multiprocessing.active_children():  # an error path only
        worker.kill()
        worker.join()
    try:
        from multiprocessing import resource_tracker
        # closes the pipe and waits for the tracker; there is no public way
        resource_tracker._resource_tracker._stop()
    except (ImportError, AttributeError, OSError):
        pass
    for pid in child_pids() - before:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def run_one(args) -> int:
    """One pass of one workload in this process."""
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    import workloads

    spec = declared()
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    print(f"workload {args.workload} seed {args.seed} seconds "
          f"{args.seconds:g} trace {args.trace}"
          + (" MINIATURE (numbers not comparable)" if args.mini else ""))
    print("host " + json.dumps(host_facts(args.seed)))
    try:
        result = workloads.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), mini=args.mini)
    except workloads.SkipWorkload as skip:
        print(json.dumps({"status": "skipped", "reason": str(skip)}))
        return EXIT_SKIPPED
    measured = result["metrics"]
    unknown = set(measured) - set(units)
    if unknown or (kind == "end_to_end" and set(units) - set(measured)):
        raise SystemExit(f"metrics out of step with BENCHMARK.json: "
                         f"{sorted(set(measured) ^ set(units))}")
    metrics = {}
    for name, unit in units.items():
        note = result["notes"].get(name, "")
        if name in measured:
            metrics[name] = {"value": measured[name], "unit": unit}
            print(f"  {name:<34} {measured[name]:>14.6g} {unit:<8} {note}")
        else:
            # the ledger of a workload lists every layer; one it does not
            # run spent no time and did no work
            metrics[name] = {"value": 0.0, "unit": unit}
            print(f"  {name:<34} {'-':>14} {unit:<8} "
                  f"layer not on this workload's path (0 in the result)")
    attempted = result["attempted"]
    failures = +result["failures"]  # drops the reasons that count zero
    failed = sum(failures.values())
    print(f"  {'failed_fraction':<34} {failed / attempted:>14.6g} "
          f"{'ratio':<8} {failed} of {attempted} operations and checks"
          + "".join(f"; {count} x {why}" for why, count in failures.items()))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return EXIT_FAILED if failed else 0


def child(workload: str, seed: int, seconds: float, trace: int,
          echo: bool = True) -> dict:
    """Run one pass in a subprocess of its own; returns its status, host
    line and result (``None`` unless the status is ``ok`` or ``failed``)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if echo:
        print("\n".join(lines[:-1]), flush=True)
    out = {"workload": workload, "trace": trace, "seed": seed,
           "status": "error", "reason": proc.stderr.strip()[-2000:],
           "host": None, "result": None}
    for line in lines:
        if line.startswith("host "):
            out["host"] = json.loads(line[5:])
    if proc.returncode in (0, EXIT_FAILED) and lines:
        out["result"] = json.loads(lines[-1])
        out["status"] = "ok" if proc.returncode == 0 else "failed"
        out["reason"] = "" if proc.returncode == 0 else lines[-2].strip()
    elif proc.returncode == EXIT_SKIPPED:
        out["status"] = "skipped"
        out["reason"] = json.loads(lines[-1])["reason"]
    return out


def run_all(args) -> int:
    """Every workload, each pass in a subprocess, then the summary."""
    spec = declared()
    names = [w["name"] for w in spec["workloads"]]
    passes = []
    for name in names:
        for trace in (0, 1) if args.trace else (0,):
            passes.append(child(name, args.seed, args.seconds, trace))
            last = passes[-1]
            print(f"  -> {name} trace {trace}: {last['status']} "
                  f"{last['reason']}\n", flush=True)
    print("end-to-end summary (tracing off)")
    untraced = {p["workload"]: p for p in passes if p["trace"] == 0}
    print(f"  {'metric':<22}{'unit':<7}"
          + "".join(f"{n:>14}" for n in names))
    for metric in spec["end_to_end"]:
        cells = []
        for name in names:
            result = untraced[name]["result"]
            cells.append(f"{result['metrics'][metric['name']]['value']:>14.6g}"
                         if result else f"{untraced[name]['status']:>14}")
        print(f"  {metric['name']:<22}{metric['unit']:<7}" + "".join(cells))
    for label, cell in (
            ("failed_fraction",
             lambda r: f"{r['failed'] / r['attempted']:.6g}"),
            ("  = failed / attempted",
             lambda r: f"{r['failed']}/{r['attempted']}")):
        results = [untraced[n]["result"] for n in names]
        print(f"  {label:<29}"
              + "".join(f"{cell(r) if r else '-':>14}" for r in results))
    print(f"  {'status':<29}"
          + "".join(f"{untraced[n]['status']:>14}" for n in names))
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / "latest.json").write_text(json.dumps(passes, indent=1))
    print(f"full results in {results / 'latest.json'}")
    bad = [p for p in passes if p["status"] not in ("ok", "skipped")]
    return EXIT_FAILED if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in "
                        "this process (default: all, one subprocess each)")
    parser.add_argument("--seed", type=int, default=2013)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of each timed section")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="the traced pass: per-layer "
                        "metrics and a Chrome trace")
    parser.add_argument("--mini", action="store_true",
                        help="seconds-long miniature sizes (for the tests)")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    if args.workload not in {w["name"] for w in declared()["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    before = child_pids()
    try:
        return run_one(args)
    finally:
        stop_children(before)


if __name__ == "__main__":
    sys.exit(main())
