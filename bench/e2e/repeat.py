#!/usr/bin/env python3
"""Does the benchmark repeat?  Two full sets of runs of the same code.

A set is ``--runs`` untraced runs of every workload, run *k* on seed
``--seed + k``; both sets use the same seeds.  For every end-to-end
metric and workload the report gives each set's median and quartiles
(``statistics.quantiles(values, n=4)``) and checks that

* the spread (third minus first quartile, as a share of the median) of
  each set stays within the metric's bound in ``BENCHMARK.json``
  (``setup_s`` is exempt, as in the benchmark contract), and
* the second set's median is not worse than the first's by more than
  that bound.

``--extra-seed N`` adds a third set on other seeds that is reported, not
gated.  The report goes to ``bench/e2e/results/repeatability.json``; the
exit status is non-zero when a check fails or a run did.
"""

import argparse
import json
import statistics
import sys
import time

import run as harness


def one_set(names, seed: int, runs: int, seconds: float) -> dict:
    """workload -> list of the runs' passes, workloads interleaved so that
    a drifting host touches all of them alike."""
    passes = {name: [] for name in names}
    for k in range(runs):
        for name in names:
            t0 = time.perf_counter()
            done = harness.child(name, seed + k, seconds, trace=0, echo=False)
            passes[name].append(done)
            print(f"  {name} seed {seed + k}: {done['status']} "
                  f"{done['reason']}({time.perf_counter() - t0:.0f} s)",
                  flush=True)
    return passes


def summarize(passes, metric: str) -> dict | None:
    """Median, quartiles and spread of one metric over the ok runs."""
    values = [p["result"]["metrics"][metric]["value"]
              for p in passes if p["status"] == "ok"]
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=2013)
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per workload per set")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--extra-seed", type=int, default=None)
    args = parser.parse_args(argv)
    spec = harness.declared()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    seeds = [args.seed, args.seed] + (
        [] if args.extra_seed is None else [args.extra_seed])
    sets = []
    for number, seed in enumerate(seeds, 1):
        print(f"set {number} of {len(seeds)}: seeds {seed}.."
              f"{seed + args.runs - 1}", flush=True)
        sets.append(one_set(names, seed, args.runs, seconds))

    rows, problems = [], []
    for name in names:
        statuses = {p["status"] for s in sets for p in s[name]}
        if statuses == {"skipped"}:
            rows.append({"workload": name, "status": "skipped",
                         "reason": sets[0][name][0]["reason"]})
            continue
        if statuses != {"ok"}:
            problems.append(f"{name}: runs ended {sorted(statuses)}")
        for metric in spec["end_to_end"]:
            stats = [summarize(s[name], metric["name"]) for s in sets]
            if None in stats:
                continue
            first, second = stats[0], stats[1]
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * (second["median"] - first["median"]) \
                / first["median"]
            row = {"workload": name, "metric": metric["name"],
                   "unit": metric["unit"], "bound": metric["bound"],
                   "sets": stats, "second_worse_by": worse}
            rows.append(row)
            label = f"{name} {metric['name']}"
            if worse > metric["bound"]:
                problems.append(f"{label}: second median worse by "
                                f"{worse:.3f} > {metric['bound']}")
            for number, s in enumerate(stats[:2], 1):
                if metric["name"] != "setup_s" \
                        and s["spread"] > metric["bound"]:
                    problems.append(f"{label}: set {number} spread "
                                    f"{s['spread']:.3f} > {metric['bound']}")

    print(f"\n{'workload':<14}{'metric':<20}{'bound':>6}  "
          + "  ".join(f"{'median':>11} {'q1':>11} {'q3':>11} {'spread':>6}"
                      for _ in seeds) + "  2nd worse")
    for row in rows:
        if "metric" not in row:
            print(f"{row['workload']:<14}skipped: {row['reason']}")
            continue
        cells = "  ".join(
            f"{s['median']:>11.5g} {s['q1']:>11.5g} {s['q3']:>11.5g} "
            f"{s['spread']:>6.3f}" for s in row["sets"])
        print(f"{row['workload']:<14}{row['metric']:<20}{row['bound']:>6}  "
              f"{cells}  {row['second_worse_by']:>+8.3f}")
    for problem in problems:
        print("FAIL " + problem)
    host = next(p["host"] for s in sets for ps in s.values() for p in ps
                if p["host"])
    report = {"host": host, "seeds": seeds, "runs_per_set": args.runs,
              "seconds": seconds, "gated_sets": 2, "problems": problems,
              "rows": rows}
    out = harness.HERE / "results" / "repeatability.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"{'REPEATS' if not problems else 'DOES NOT REPEAT'}; "
          f"report in {out}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
