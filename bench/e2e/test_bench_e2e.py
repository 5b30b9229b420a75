"""Seconds-long miniatures of the five benchmark workloads.

Run with ``python -m pytest bench/e2e -q``; the tier-1 ``testpaths`` do
not include this directory.
"""

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import run as harness
import workloads

SPEC = harness.declared()
NAMES = [w["name"] for w in SPEC["workloads"]]
ONE_CPU = len(os.sched_getaffinity(0)) < workloads.WORKERS


def miniature(capsys, name, trace, seconds="0.5"):
    """Exit status and the parsed last line of one in-process pass."""
    code = harness.main(["--workload", name, "--seed", "7", "--seconds",
                         seconds, "--trace", str(trace), "--mini"])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_declared_names_are_well_formed_and_the_workloads_exist():
    assert set(NAMES) == set(workloads.WORKLOADS)
    names = NAMES + [m["name"] for kind in ("end_to_end", "per_layer")
                     for m in SPEC[kind]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", NAMES)
def test_every_declared_metric_is_emitted_finite_or_the_run_is_skipped(
        capsys, name, trace):
    code, last = miniature(capsys, name, trace)
    if name == "dist_process" and ONE_CPU:
        assert code == harness.EXIT_SKIPPED and last["status"] == "skipped"
        return
    assert code == 0, last
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 < last["attempted"]
    kind = "per_layer" if trace else "end_to_end"
    assert list(last["metrics"]) == [m["name"] for m in SPEC[kind]]
    for metric in SPEC[kind]:
        emitted = last["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"]), metric["name"]
    if not trace:
        assert all(m["value"] > 0 for m in last["metrics"].values())


@pytest.mark.parametrize("name", ("batch_small", "serve_sparse"))
def test_a_wrong_reference_trips_failed_fraction(capsys, monkeypatch, name):
    monkeypatch.setattr(workloads, "reference_fft",
                        lambda x, out=None: 1.001 * np.fft.fft(x, axis=-1))
    code, last = miniature(capsys, name, trace=0)
    assert code == harness.EXIT_FAILED
    assert not last["correct"] and last["failed"] > 0
    assert last["metrics"]["rel_error_max"]["value"] > workloads.TOLERANCE


@pytest.mark.skipif(ONE_CPU, reason="dist_process is skipped on one cpu")
def test_dist_process_leaves_no_process_behind(capsys):
    before = harness.child_pids()
    code, _ = miniature(capsys, "dist_process", trace=0)
    assert code == 0
    assert harness.child_pids() == before  # workers and resource tracker


def test_dist_process_reports_skipped_when_affinity_is_one_cpu():
    cpu = min(os.sched_getaffinity(0))
    proc = subprocess.run(
        [sys.executable, str(harness.HERE / "run.py"), "--workload",
         "dist_process", "--seconds", "0.5", "--mini"],
        capture_output=True, text=True,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    assert proc.returncode == harness.EXIT_SKIPPED, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["status"] == "skipped" and "cpus" in last["reason"]
    assert '"correct"' not in proc.stdout
