"""Tests for the ABFT layer: self-verifying stages, segment-level
localization and repair, detection coverage against seeded SDC, and
straggler hedging."""

import ast
import dataclasses
import importlib
import os
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import repro
import repro.core.convolution as convolution
from repro.core import cpupool
from repro.bench.faultsweep import (
    detection_coverage,
    sdc_ground_truth,
    verify_params,
)
from repro.cluster.faults import FaultPlan, RetryPolicy, chaos_cluster
from repro.cluster.simcluster import SimCluster
from repro.core.convolution import lane_fft
from repro.core.error_model import verification_thresholds
from repro.core.params import SoiParams
from repro.core.soi_dist import DistributedSoiFFT
from repro.core.soi_single import SoiFFT
from repro.core.soi_spmd import spmd_soi_fft
from repro.core.window import build_tables
from repro.resilience.deadline import Deadline
from repro.fft.dft import dft_matrix
from repro.util.validate import relative_l2_error
from repro.verify import (
    ConvChecksum,
    DistVerifier,
    HedgePolicy,
    VerificationError,
    VerifyPolicy,
    batch_checksum,
    checksum_weights,
    energy_rows,
)
from repro.verify.selfcheck import _TINY, _abs2, _Engine
from tests.conftest import random_complex

#: the back kernel's module (``repro.core`` re-exports a function under its
#: name, so a plain import would bind the function)
demodulate = importlib.import_module("repro.core.demodulate")

pytestmark = pytest.mark.abft

PARAMS = SoiParams(n=8 * 448, n_procs=1, segments_per_process=8,
                   n_mu=8, d_mu=7, b=48)
#: the stages an observer sees, on one node and on a rank alike: the
#: front ("conv": convolution, lane DFT and permutation in one kernel) and
#: the back ("back": segment FFT and demodulation)
STAGES = ["conv", "back"]
#: where a test strikes one node, and the stage whose check names it: each
#: step of the front — inside a tile, the convolution's product and the
#: lane DFT's output, which no observer sees, and the segment rows the
#: tile stores (the permutation), the seam's "conv" array ``alpha`` — and
#: each step of the back: the segment spectra inside it, and the
#: demodulated rows, the seam's "back" array
SITES = {"conv": "conv", "lane": "conv", "permute": "conv",
         "segment-fft": "back", "demod": "back"}


def strike_once(index, amplitude: float = 3.0):
    """``strike(arr)`` adds amplitude*rms to ``arr[index]`` the first time
    it is called, whichever pool worker calls first; later calls do
    nothing."""
    fired, lock = [], threading.Lock()

    def strike(arr):
        with lock:
            if fired:
                return
            fired.append(1)
        arr[index] += amplitude * np.sqrt((np.abs(arr) ** 2).mean())
    return strike


def one_shot_injector(stage: str, seg: int, amplitude: float = 3.0):
    """A policy hook that strikes segment *seg* of *stage*'s output once:
    at every seam the array is ``(batch, S, ...)``, a segment a row."""
    strike = strike_once((0, seg, 37), amplitude)

    def inject(st, arr):
        if st == stage:
            strike(arr)
    return inject


def struck_plan(params, site: str, monkeypatch, seg: int = 5) -> SoiFFT:
    """A verified plan of *params* whose *site* (a key of :data:`SITES`)
    takes one strike: a seam array through the policy's hook; inside the
    front, at the lane transform of the first tile it runs, the first
    frame's convolution product (in lane *seg*, reaching every segment) or
    its lane spectra (in segment *seg*); inside the back, the first
    spectrum of the first row range demodulated, in a kept bin."""
    if site == "segment-fft":
        strike, real_demod = strike_once((0, 0, 37)), demodulate.demodulate

        def struck_demodulate(beta, tables, out=None):
            strike(beta)
            return real_demod(beta, tables, out=out)
        # the spectra the back kernel divides (once: a repair runs it too)
        monkeypatch.setattr(demodulate, "demodulate", struck_demodulate)
        return SoiFFT(params, verify=True)
    if site not in ("conv", "lane"):
        return SoiFFT(params, verify=VerifyPolicy(
            inject=one_shot_injector(SITES[site], seg)))
    strike, real = strike_once((0, seg, 37)), convolution.lane_fft

    def struck_lane_fft(a, tables, out=None, *, workspace=None):
        if site == "conv":
            strike(a)
        z = real(a, tables, out=out, workspace=workspace)
        if site == "lane":
            strike(z)
        return z
    # the front's call only: the checksum's is the verifier's own import
    monkeypatch.setattr(convolution, "lane_fft", struck_lane_fft)
    return SoiFFT(params, verify=True)


class TestChecksumPrimitives:
    def test_weights_unit_modulus_and_distinct(self):
        w = checksum_weights(64)
        assert np.allclose(np.abs(w), 1.0)
        assert len(np.unique(np.round(w, 9))) == 64

    def test_batch_checksum_commutes_with_fft(self, rng):
        rows = random_complex(rng, 16, 32)
        w = checksum_weights(16)
        lhs = np.fft.fft(batch_checksum(rows, w))
        rhs = batch_checksum(np.fft.fft(rows, axis=-1), w)
        assert np.allclose(lhs, rhs)

    def test_conv_checksum_predicts_staged_output(self, rng):
        # carried through the lane DFT, the checksum predicted from the
        # front's input (the caller's x, read modulo its length) is the
        # weighted sum of each segment's front rows
        f = SoiFFT(PARAMS, verify=True)
        x = random_complex(rng, PARAMS.n)
        f(x)
        bufs = f._bufpool[1]
        chk = f.verifier._conv_chk
        assert isinstance(chk, ConvChecksum)
        pred = lane_fft(chk.predict(x)[:, None], f.tables).T
        obs = np.matmul(bufs["alpha"], f.verifier._w_rows)
        assert np.allclose(pred, obs)

    def test_conv_checksum_rejects_bad_weights(self):
        tables = build_tables(PARAMS)
        with pytest.raises(ValueError, match="one weight per"):
            ConvChecksum(tables, 0, PARAMS.m_oversampled, 0,
                         checksum_weights(7))


class TestEnergyInvariants:
    def test_energy_matches_reference(self, rng):
        a = random_complex(rng, 3, 16, 5)
        assert np.allclose(energy_rows(a), np.sum(np.abs(a) ** 2, axis=-1))

    def test_contiguous_and_strided_paths_agree(self, rng):
        a = random_complex(rng, 4, 8, 6)
        strided = np.ascontiguousarray(a.transpose(0, 2, 1)).transpose(
            0, 2, 1)
        assert not strided.flags.c_contiguous
        assert np.allclose(energy_rows(a), energy_rows(strided))


class TestThresholds:
    def test_calibration_sane(self):
        th = verification_thresholds(build_tables(PARAMS))
        assert 0.0 < th.checksum_rtol < 1e-10
        assert th.output_rtol >= 10.0 * build_tables(PARAMS).expected_stopband
        assert 0.0 < th.min_detectable_amplitude < 1e-3


class TestSingleNodeVerification:
    @pytest.mark.parametrize("seed", range(5))
    def test_clean_runs_have_zero_false_positives(self, seed):
        rng = np.random.default_rng(seed)
        f = SoiFFT(PARAMS, verify=True)
        y = f(random_complex(rng, PARAMS.n))
        rep = f.verifier.report
        assert rep.checks > 0
        assert rep.detections == 0
        assert y is not None

    @pytest.mark.parametrize("stage", STAGES)
    def test_injected_corruption_is_detected_localized_repaired(
            self, rng, stage):
        x = random_complex(rng, PARAMS.n)
        clean = SoiFFT(PARAMS)(x)
        base = relative_l2_error(clean, np.fft.fft(x))

        seg = 5
        policy = VerifyPolicy(inject=one_shot_injector(stage, seg))
        f = SoiFFT(PARAMS, verify=policy)
        y = f(x)
        rep = f.verifier.report
        assert stage in rep.detected_stages
        assert seg in rep.detected_segments
        assert rep.repairs >= 1
        # repair restores numpy.fft agreement to the clean-run level
        assert relative_l2_error(y, np.fft.fft(x)) <= base * 1.0001

    def test_a_repaired_lane_rounds_like_a_computed_one(self, rng):
        # every repair runs the callables its stage ran (the front whole,
        # the batch-invariant segment plan, demodulate), so wherever the
        # strike landed: recovered == fault-free, bitwise
        x = random_complex(rng, PARAMS.n)
        clean = SoiFFT(PARAMS)(x)
        for site, stage in SITES.items():
            with pytest.MonkeyPatch.context() as mp:
                f = struck_plan(PARAMS, site, mp)
                y = f(x)
            assert f.verifier.report.detected_stages == {stage}, site
            assert np.array_equal(y, clean), site
        # the gate can go red: the segment product a lane repair used to
        # make by hand, (1, S) @ (S, rows), is a gemv and sums in another
        # order than the front's tile products
        u = random_complex(rng, PARAMS.n_segments, f._conv_tile)
        assert not np.array_equal(
            np.matmul(dft_matrix(PARAMS.n_segments)[[5]], u),
            lane_fft(u, f.tables)[[5]])

    def test_small_amplitude_still_detected(self, rng):
        x = random_complex(rng, PARAMS.n)
        policy = VerifyPolicy(
            inject=one_shot_injector("back", 4, amplitude=1e-8))
        f = SoiFFT(PARAMS, verify=policy)
        f(x)
        assert f.verifier.report.detections == 1

    def test_batch_verification(self, rng):
        xs = random_complex(rng, 3, PARAMS.n)
        f = SoiFFT(PARAMS, verify=True)
        ys = f.batch(xs)
        assert f.verifier.report.detections == 0
        for i in range(3):
            err = relative_l2_error(ys[i], np.fft.fft(xs[i]))
            assert err < f.verifier.thresholds.output_rtol

    def test_persistent_corruption_escalates_then_raises(self, rng):
        """With repair disabled the strike ladder must end in an error,
        never in silently corrupt output."""
        def always_inject(st, arr):
            if st == "back":
                arr[0, 2, 37] += 10.0 * np.sqrt((np.abs(arr) ** 2).mean())

        f = SoiFFT(PARAMS, verify=VerifyPolicy(inject=always_inject))
        f.verifier._repair = lambda stages, bad: 0.0
        with pytest.raises(VerificationError, match="back"):
            f(random_complex(rng, PARAMS.n))
        assert f.verifier.report.escalations >= 1


#: a frame of two convolution tiles: with the size rule's constant lowered
#: (a test-local patch, not a knob) every stage is shared out
POOLED = SoiParams(n=16 * 896, n_procs=1, segments_per_process=8,
                   n_mu=8, d_mu=7, b=48)


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="1 cpu")
class TestPooledStages:
    """The seam fires on the caller after each stage's join, so the engine
    sees what it sees on one thread — whether one frame was shared out by
    tile and segment or a block by frame."""

    @pytest.fixture
    def joins(self, monkeypatch):
        """The fork/joins made from here on, with every call shared out."""
        monkeypatch.setattr(SoiFFT, "_POOL_MIN_SHARE", 1)
        seen, real = [], cpupool.run

        def counting(fns):
            seen.append(len(fns))
            return real(fns)
        monkeypatch.setattr(cpupool, "run", counting)
        return seen

    @pytest.mark.parametrize("frames", [1, 3])
    def test_clean_pooled_runs_have_zero_false_positives(self, joins,
                                                         frames):
        f = SoiFFT(POOLED, verify=True)
        for seed in range(3):
            xs = random_complex(np.random.default_rng(seed), frames, POOLED.n)
            f.batch(xs)
        assert f.verifier.report.checks > 0
        assert f.verifier.report.detections == 0
        # front, back
        assert joins == [2] * 2 * 3

    @pytest.mark.parametrize("frames", [1, 3])
    @pytest.mark.parametrize("site", SITES)
    def test_repaired_on_the_pool_is_bitwise_the_serial_fault_free(
            self, rng, joins, site, frames, monkeypatch):
        xs = random_complex(rng, frames, POOLED.n)
        f = struck_plan(POOLED, site, monkeypatch)
        ys = f.batch(xs)
        assert joins and f.verifier.report.detected_stages == {SITES[site]}
        assert f.verifier.report.repairs >= 1
        serial = SoiFFT(POOLED)
        serial._POOL_MIN_SHARE = 1 << 60
        del joins[:]
        assert np.array_equal(ys, serial.batch(xs)) and not joins

    def test_the_verify_verb_checks_a_pooled_batch(self, monkeypatch,
                                                   capsys):
        from repro.cli import main
        seen, real = [], cpupool.run
        monkeypatch.setattr(cpupool, "run",
                            lambda fns: seen.append(1) or real(fns))
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert seen and "false positives on the clean batch: 0" in out
        assert "verify: PASS" in out


class TestDistributedVerification:
    @pytest.mark.parametrize("seed", range(4))
    def test_clean_runs_have_zero_false_positives(self, seed):
        params = verify_params(4)
        rng = np.random.default_rng(seed)
        cl = SimCluster(4)
        soi = DistributedSoiFFT(cl, params, verify=True)
        x = random_complex(rng, params.n)
        soi.assemble(soi(soi.scatter(x)))
        assert soi.last_verification.detections == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_sdc_detected_localized_repaired(self, rng, seed):
        params = verify_params(4)
        cl = SimCluster(4)
        plan = FaultPlan.random(seed, 4, sdc_rate=0.5, sdc_amplitude=5.0,
                                horizon_sdc=2 * 4)
        chaos_cluster(cl, plan)
        soi = DistributedSoiFFT(cl, params, verify=True)
        x = random_complex(rng, params.n)
        y = soi.assemble(soi(soi.scatter(x)))

        cov = detection_coverage(soi.last_verification, plan, params)
        assert cov["detected"] == cov["injected"]
        assert cov["localized"] == cov["injected"]
        err = relative_l2_error(y, np.fft.fft(x))
        assert err < soi.verifier.thresholds.output_rtol
        # a repair reruns the kernels the rank ran: detected-and-repaired
        # is the fault-free spectrum, bitwise
        fault_free = DistributedSoiFFT(SimCluster(4), params)
        assert np.array_equal(
            y, fault_free.assemble(fault_free(fault_free.scatter(x))))
        if cov["injected"]:
            assert cov["repairs"] >= 1
            # the price of resilience lands in the retry trace category
            assert any(e.label == "abft repair" and e.category == "retry"
                       for e in cl.trace.events)

    def test_ground_truth_mapping(self, rng):
        params = verify_params(4)
        cl = SimCluster(4)
        plan = FaultPlan.random(3, 4, sdc_rate=0.5, sdc_amplitude=5.0,
                                horizon_sdc=8)
        chaos_cluster(cl, plan)
        soi = DistributedSoiFFT(cl, params, verify=True)
        soi(soi.scatter(random_complex(rng, params.n)))
        truth = sdc_ground_truth(plan, params)
        assert len(truth) == len(plan.sdc_log) > 0
        for stage, rank, seg in truth:
            assert stage in STAGES
            assert 0 <= rank < 4
            assert 0 <= seg < params.n_segments

    def test_verification_time_is_charged(self, rng):
        params = verify_params(4)
        cl = SimCluster(4)
        soi = DistributedSoiFFT(cl, params, verify=True)
        soi(soi.scatter(random_complex(rng, params.n)))
        verify_evs = [e for e in cl.trace.events if e.label == "abft verify"]
        assert verify_evs and all(e.category == "compute"
                                  for e in verify_evs)


# -- narrowband input: a tone leaves most segments nearly empty ------------

def narrowband(n: int, m: int) -> dict:
    """Tones at bins 0, 1, M/2, M-1, M and 3M+5 (M a segment's length), a
    constant and an impulse: the inputs that leave segments empty."""
    t = np.arange(n)
    inputs = {f"tone {k}": np.exp(2j * np.pi * k * t / n)
              for k in (0, 1, m // 2, m - 1, m, 3 * m + 5)}
    inputs["constant"] = np.ones(n, dtype=complex)
    inputs["impulse"] = np.eye(1, n, dtype=complex)[0]
    return inputs


def narrowband_trips(host: str, params, only=None) -> list:
    """The narrowband inputs (the names in *only*, or all) whose verified
    transform on *host* detected anything, raised, or came back other
    than the unverified plan's bits."""
    if host == "single":
        verified, plain = SoiFFT(params, verify=True), SoiFFT(params)

        def report():
            return verified.verifier.report
    else:
        dv = DistributedSoiFFT(SimCluster(4), params, verify=True)
        dp = DistributedSoiFFT(SimCluster(4), params)

        def verified(x):
            return dv.assemble(dv(dv.scatter(x)))

        def plain(x):
            return dp.assemble(dp(dp.scatter(x)))

        def report():
            return dv.last_verification
    trips = []
    for name, x in narrowband(params.n, params.m).items():
        if only is not None and name not in only:
            continue
        try:
            y = verified(x)
        except VerificationError:
            trips.append(name)
            continue
        if report().detections or not np.array_equal(y, plain(x)):
            trips.append(name)
    return trips


def per_segment_checksum_bad(self, a, c_pred):
    """Mutant: each segment's front tolerance scaled by that segment's
    energy alone, though the predicted checksum rounds at its frame's."""
    e = energy_rows(a)
    return _abs2(np.matmul(a, self._w_rows) - c_pred) > (
        self.thresholds.checksum_rtol ** 2 * (self._rows * e + _TINY))


class TestNarrowbandInputs:
    """No check reads a near-empty segment as a corrupt one: a verified
    transform of a tone, a constant or an impulse detects nothing and
    returns the unverified plan's bits, on both hosts."""

    @pytest.mark.parametrize("host", ["single", "dist"])
    def test_no_detections_and_the_unverified_bits(self, host):
        params = PARAMS if host == "single" else verify_params(4)
        assert narrowband_trips(host, params) == []

    def test_a_large_constant_on_one_node(self):
        params = SoiParams(n=458752, n_procs=1, segments_per_process=8,
                           n_mu=8, d_mu=7, b=48)
        assert narrowband_trips("single", params, {"constant"}) == []

    @pytest.mark.parametrize("host", ["single", "dist"])
    def test_mutant_per_segment_tolerance_trips(self, host, monkeypatch):
        monkeypatch.setattr(_Engine, "_checksum_bad",
                            per_segment_checksum_bad)
        params = PARAMS if host == "single" else verify_params(4)
        assert narrowband_trips(host, params)


# -- edge tiles: the windows that wrap around the period ---------------------

def edge_inputs(params) -> dict:
    """Inputs whose energy sits where a front's windows wrap: impulses at
    0 and N-1, one block of S samples straddling the wrap, and a tone at
    M-1."""
    n, s = params.n, params.n_segments
    straddle = np.zeros(n, dtype=complex)
    straddle[np.arange(-(s // 2), s - s // 2)] = 1.0
    return {"impulse 0": np.eye(1, n, 0, dtype=complex)[0],
            "impulse N-1": np.eye(1, n, n - 1, dtype=complex)[0],
            "block across the wrap": straddle,
            "tone M-1": np.exp(2j * np.pi * (params.m - 1) * np.arange(n) / n)}


def edge_misses(host: str, params) -> list:
    """The edge inputs whose transform on *host* left the design bound —
    on one node a verified call, which must also detect nothing; on the
    simulator a run whose first and last ranks die before their post-conv
    checkpoint, so a recovery round recomputes their rows from the whole
    period."""
    if host == "single":
        plan = SoiFFT(params, verify=True)
        bound = 10 * plan.expected_stopband
    else:
        cl = SimCluster(params.n_procs)
        cl.comm.install_faults(FaultPlan(rank_failures={
            0: 1, params.n_procs - 1: 1}), RetryPolicy(max_retries=0))
        dist = DistributedSoiFFT(cl, params)
        bound = 10 * dist.tables.expected_stopband

        def plan(x):
            return dist.assemble(dist(dist.scatter(x)))
    misses = []
    for name, x in edge_inputs(params).items():
        try:
            y = plan(x)
        except VerificationError:
            misses.append(name)
            continue
        if host == "single" and plan.verifier.report.detections:
            misses.append(name)
        elif relative_l2_error(y, np.fft.fft(x)) >= bound:
            misses.append(name)
    if host == "dist":
        assert dist.last_recovery.recomputed_rows > 0
    return misses


def clamped_blocks(xb, first, out):
    """Mutant of ``convolution._wrap_blocks``: an edge tile's span clamped
    at the source's last block, not wrapped to its first."""
    idx = np.minimum(np.arange(first, first + out.shape[1]), xb.shape[1] - 1)
    out[...] = xb[:, idx]
    return out


#: one node with eight convolution tiles (two of them edge tiles), and a
#: cluster of four ranks
EDGE_HOSTS = {"single": SoiParams(n=7 * 2 ** 13, n_procs=1,
                                  segments_per_process=8, n_mu=8, d_mu=7,
                                  b=48),
              "dist": verify_params(4)}


class TestEdgeTiles:
    """A front reads its windows modulo the length of its source: an edge
    tile's wrapped copy carries narrowband input across the period's ends
    like any other block — no front check flags it, no output leaves the
    design bound, on one node or in a recovery round reading the whole
    staged input."""

    @pytest.mark.parametrize("host", ["single", "dist"])
    def test_no_detections_and_within_the_bound(self, host):
        assert edge_misses(host, EDGE_HOSTS[host]) == []

    @pytest.mark.parametrize("host", ["single", "dist"])
    def test_the_check_can_fail(self, host, monkeypatch):
        monkeypatch.setattr(convolution, "_wrap_blocks", clamped_blocks)
        assert edge_misses(host, EDGE_HOSTS[host])


# -- one engine, two hosts: each gate at the seam, and shown able to fail ----

#: the invariant (an engine method) that catches a strike at each site:
#: each stage's one checksum functional, whichever of its steps was struck
INVARIANT = {"conv": "_checksum_bad", "lane": "_checksum_bad",
             "permute": "_checksum_bad", "segment-fft": "_back_bad",
             "demod": "_back_bad"}
#: what each host's pipeline lets a test strike: on one node, every site;
#: on a cluster, each stage's output (the front's segment rows are the
#: rank program's "conv" output, and their exchange is the all-to-all,
#: which the wire checksum covers) and the spectra inside the back
CASES = [("single", site) for site in SITES] + [
    ("dist", site) for site in ("conv", "segment-fft", "demod")]


def struck_run(host, stage, monkeypatch, mutate=lambda verifier: None):
    """One transform on *host* with one element of *stage*'s output (on
    one node, of a site's) corrupted once, after *mutate* had its way with
    the host's verifier.  Returns the spectrum ``y``, the fault-free one
    ``clean``, the ``report`` and, on a cluster, the ``cluster`` and the
    ``budget`` of the deadline the call ran under."""
    rng = np.random.default_rng(19)
    if host == "single":
        x = random_complex(rng, PARAMS.n)
        f = struck_plan(PARAMS, stage, monkeypatch)
        mutate(f.verifier)
        return SimpleNamespace(y=f(x), clean=SoiFFT(PARAMS)(x),
                               report=f.verifier.report)
    params = verify_params(4)
    x = random_complex(rng, params.n)
    fault_free = DistributedSoiFFT(SimCluster(4), params)
    clean = fault_free.assemble(fault_free(fault_free.scatter(x)))
    cl = SimCluster(4)
    if stage == "segment-fft":
        # no SDC slot strikes inside the back, so the spectra the back
        # kernel divides are struck on the way in (once: a repair runs the
        # same kernel)
        real, fired = demodulate.demodulate, []

        def struck_demodulate(beta, tables, out=None):
            if not fired:
                fired.append(1)
                beta[1, 37] += 5.0 * np.sqrt((np.abs(beta) ** 2).mean())
            return real(beta, tables, out=out)
        monkeypatch.setattr(demodulate, "demodulate", struck_demodulate)
    else:
        # rank 1's slot: a run consumes P conv slots, then P back slots
        # (seed 23 strikes lane 4 of z; a gemv happens to round lanes 0
        # and 1 of an 8-point DFT like the plan, which would let the
        # repair-kernel mutant live)
        chaos_cluster(cl, FaultPlan(seed=23, sdc_events={
            2 if stage == "conv" else 4 + 2: 5.0}))
    soi = DistributedSoiFFT(cl, params, verify=True)
    mutate(soi.verifier)
    d = Deadline.simulated(cl, 10.0)
    y = soi.assemble(soi(soi.scatter(x), deadline=d))
    return SimpleNamespace(y=y, clean=clean, report=soi.last_verification,
                           cluster=cl, budget=d.budget)


def blind(invariant):
    """Mutant: *invariant* runs with its thresholds forced to inf."""
    def mutate(verifier):
        real = getattr(verifier, invariant)

        def mutant(*args):
            th = verifier.thresholds
            verifier.thresholds = dataclasses.replace(
                th, checksum_rtol=np.inf)
            try:
                return real(*args)
            finally:
                verifier.thresholds = th
        setattr(verifier, invariant, mutant)
    return mutate


def column_gemv_lane(verifier):
    """Mutant: the front a repair reruns transforms its lanes not as the
    stage did but by the products both engines used to make by hand,
    ``(S,) @ (S, rows)`` per segment — a gemv, which sums in another
    order."""
    f_s = dft_matrix(verifier.tables.params.n_segments)

    def lane_by_gemv(a, tables, out=None, *, workspace=None):
        for k in range(f_s.shape[0]):
            np.matmul(f_s[k], a, out=out[..., k, :])
        return out
    real = verifier.check_conv

    def check_conv(*args, **kwargs):  # the stage ran; only repairs rerun
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(convolution, "lane_fft", lane_by_gemv)
            return real(*args, **kwargs)
    verifier.check_conv = check_conv


class TestOneEngineTwoHosts:
    """The ABFT contracts, stated once over both hosts of the engine."""

    @pytest.mark.parametrize("host,stage", CASES)
    def test_a_strike_is_named_once_and_repaired_bitwise(
            self, host, stage, monkeypatch):
        run = struck_run(host, stage, monkeypatch)
        rep = run.report
        assert [(e.stage, e.strike) for e in rep.events] == [
            (SITES[stage], 1)]
        assert (rep.segment_repairs, rep.escalations) == (1, 0)
        assert np.array_equal(run.y, run.clean)

    @pytest.mark.parametrize("host,stage", CASES)
    def test_mutant_blind_invariant_misses_its_strike(
            self, host, stage, monkeypatch):
        run = struck_run(host, stage, monkeypatch, blind(INVARIANT[stage]))
        assert run.report.detections == 0
        # struck, and nobody noticed
        assert not np.array_equal(run.y, run.clean)

    @pytest.mark.parametrize("host,stage", CASES)
    def test_mutant_noop_repair_ends_in_an_error(
            self, host, stage, monkeypatch):
        """Repairs that repair nothing must climb the ladder to an
        error, never return silently corrupt output."""
        seen = []

        def mutate(verifier):
            seen.append(verifier)
            verifier._repair = lambda stages, bad: 0.0
        with pytest.raises(VerificationError,
                           match=f"stage '{SITES[stage]}'"):
            struck_run(host, stage, monkeypatch, mutate)
        rep = seen[0].report
        assert [e.strike for e in rep.events] == [1, 2, 3]
        assert rep.escalations >= 1

    @pytest.mark.parametrize("host,stage", [("single", "lane"),
                                            ("dist", "conv")])
    def test_mutant_column_gemv_repair_is_not_bitwise(
            self, host, stage, monkeypatch):
        run = struck_run(host, stage, monkeypatch, column_gemv_lane)
        assert run.report.detected_stages == {"conv"}
        assert run.report.repairs == 1
        assert np.allclose(run.y, run.clean, rtol=0,
                           atol=1e-9 * np.abs(run.clean).max())
        assert not np.array_equal(run.y, run.clean)

    def test_every_check_and_repair_is_charged(self, monkeypatch):
        """Each boundary charges what it read as "abft verify" and what
        it reran as "abft repair", to the rank clock and to the installed
        deadline's budget — the back's check included."""
        run = struck_run("dist", "demod", monkeypatch)
        assert run.report.detected_stages == {"back"}
        events = run.cluster.trace.events
        verify = [e for e in events if e.label == "abft verify"]
        assert len(verify) == 2 * 4  # conv and back per rank
        assert all(e.category == "compute" and e.duration > 0
                   for e in verify)
        repair = [e for e in events if e.label == "abft repair"]
        assert [(e.rank, e.category) for e in repair] == [(1, "retry")]
        assert repair[0].duration > 0
        assert run.budget.charges["retry"] == pytest.approx(
            repair[0].duration)
        assert run.budget.charges["compute"] == pytest.approx(
            sum(e.duration for e in verify))


class TestSpmdVerification:
    def test_sdc_detected_and_output_correct(self, rng):
        params = verify_params(4)
        cl = SimCluster(4)
        plan = FaultPlan.random(3, 4, sdc_rate=0.5, sdc_amplitude=5.0,
                                horizon_sdc=8)
        chaos_cluster(cl, plan)
        ver = DistVerifier(build_tables(params))
        x = random_complex(rng, params.n)
        y = spmd_soi_fft(cl, params, x, verify=ver)
        assert len(plan.sdc_log) > 0
        cov = detection_coverage(ver.report, plan, params)
        assert cov["detected"] == cov["injected"]
        err = relative_l2_error(y, np.fft.fft(x))
        assert err < ver.thresholds.output_rtol

    def test_clean_spmd_zero_detections(self, rng):
        params = verify_params(4)
        cl = SimCluster(4)
        ver = DistVerifier(build_tables(params))
        spmd_soi_fft(cl, params, random_complex(rng, params.n), verify=ver)
        assert ver.report.detections == 0


class TestHedging:
    PARAMS8 = SoiParams(n=8 * 2 * 448, n_procs=8, segments_per_process=2,
                        n_mu=8, d_mu=7, b=48)

    def _run(self, hedge):
        rng = np.random.default_rng(42)
        x = random_complex(rng, self.PARAMS8.n)
        plan = FaultPlan.random(5, 8, n_stragglers=2,
                                straggler_slowdown=2.0, jitter=0.02)
        cl = SimCluster(8)
        chaos_cluster(cl, plan)
        y = spmd_soi_fft(cl, self.PARAMS8, x, hedge=hedge)
        return cl, x, y

    def test_hedging_reduces_makespan_with_stragglers(self):
        cl_base, x, y0 = self._run(None)
        hp = HedgePolicy()
        cl_hedge, _, y1 = self._run(hp)
        assert hp.launched > 0
        assert hp.won > 0
        assert cl_hedge.elapsed < cl_base.elapsed
        assert np.allclose(y0, y1)
        assert relative_l2_error(y1, np.fft.fft(x)) < 1e-4

    def test_hedge_events_land_in_hedge_category(self):
        hp = HedgePolicy()
        cl, _, _ = self._run(hp)
        hedge_evs = [e for e in cl.trace.events if e.category == "hedge"]
        assert len(hedge_evs) == hp.launched
        assert all(e.label.startswith("hedge ") for e in hedge_evs)
        assert hp.time_saved > 0.0

    def test_quiet_without_stragglers(self, rng):
        params = verify_params(4)
        cl = SimCluster(4)
        hp = HedgePolicy()
        spmd_soi_fft(cl, params, random_complex(rng, params.n), hedge=hp)
        assert hp.launched == 0

    def test_min_ranks_guards_the_median(self):
        hp = HedgePolicy(min_ranks=3)
        cl = SimCluster(2)
        hp.review(cl, [(0, "x", 0.0, 1.0), (1, "x", 0.0, 100.0)])
        assert hp.launched == 0

    def test_summary_mentions_wins(self):
        hp = HedgePolicy()
        assert "hedges=0" in hp.summary()


# -- tier-1 guards: the engine and its seam are written once -----------------

def _named(node):
    f = node.func
    return getattr(f, "id", None) or getattr(f, "attr", "")


def test_abft_engine_is_written_once():
    """An ``ast`` count (docstrings cannot trip it): ``verify/selfcheck.py``
    raises, records an escalation, builds the conv checksum and names the
    back's repair kernel in one place each, and has no kernel of its own.
    A second ladder or a private repair kernel turns this red."""
    root = Path(repro.__file__).parents[2]
    tree = ast.parse(
        (root / "src/repro/verify/selfcheck.py").read_text())
    calls = [_named(n) for n in ast.walk(tree) if isinstance(n, ast.Call)]
    # get_plan once: the library's transform of the back functional's
    # weights, never a repair kernel of the engine's own
    for name in ("VerificationError", "ConvChecksum", "back", "get_plan"):
        assert calls.count(name) == 1, name
    assert sum(isinstance(n, ast.AugAssign)
               and getattr(n.target, "attr", "") == "escalations"
               for n in ast.walk(tree)) == 1
    used = {getattr(n, "id", None) or getattr(n, "attr", None)
            or getattr(n, "name", None) for n in ast.walk(tree)}
    assert not used & {"einsum", "dft_matrix", "demodulate", "fft"}
    # the lane-subset convolution, a second kernel, is gone: the only
    # file under src/ and tests/ that spells its name is this guard
    hits = [f.relative_to(root).as_posix()
            for d in ("src", "tests") for f in sorted((root / d).rglob("*.py"))
            if "convolve_lanes" in f.read_text()]
    assert hits == ["tests/test_verify.py"]


def assert_one_stage_seam(source: str) -> None:
    """``SoiFFT._execute`` in *source* hands each of the two stages'
    outputs to one observer behind one falsy check; telemetry and the
    verifier hang off that, not off per-stage blocks of their own."""
    fn = next(n for n in ast.walk(ast.parse(source))
              if isinstance(n, ast.FunctionDef) and n.name == "_execute")
    used = {getattr(n, "id", None) or getattr(n, "attr", None)
            for n in ast.walk(fn)}
    assert not used & {"telem", "telemetry", "hook", "verifier", "clk"}
    staged = [n.args[0].value for n in ast.walk(fn)
              if isinstance(n, ast.Call) and _named(n) == "after"]
    assert sorted(staged) == sorted(STAGES)
    guards = [n for n in ast.walk(fn) if isinstance(n, ast.If)
              and getattr(n.test, "id", "") == "after"]
    assert len(guards) == len(STAGES)


def test_execute_has_one_stage_seam():
    source = (Path(repro.__file__).parent / "core/soi_single.py").read_text()
    assert_one_stage_seam(source)
    # mutant: a third site, the segment spectra observed apart again
    anchor = "        share(back, s, 1)\n"
    mutant = source.replace(anchor, anchor + "        if after:\n"
                            "            after('segment-fft', beta, 0)\n",
                            1)
    assert mutant != source
    with pytest.raises(AssertionError):
        assert_one_stage_seam(mutant)


def stage_literals(source: str, function: str | None = None) -> list:
    """The stage names *source* spells as string literals: passed to
    ``apply_sdc`` or to a verifier, or compared with ``stage`` — inside
    *function* when given."""
    tree = ast.parse(source)
    if function is not None:
        tree = next(n for n in ast.walk(tree)
                    if isinstance(n, ast.FunctionDef) and n.name == function)
    names = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Call) and (
                _named(n) == "apply_sdc"
                or getattr(getattr(n.func, "value", None), "id", "")
                == "verifier"):
            args = [*n.args, *(k.value for k in n.keywords)]
        elif isinstance(n, ast.Compare) and getattr(n.left, "id", "") \
                == "stage":
            args = n.comparators
        else:
            continue
        names += [a.value for a in args if isinstance(a, ast.Constant)
                  and isinstance(a.value, str)]
    return names


def test_the_rank_program_names_only_the_seam_stages():
    """The rank program strikes exactly the two seam stages, and the
    single node's verifier tells them apart by no third name."""
    root = Path(repro.__file__).parent
    rank = (root / "core/soi_dist.py").read_text()
    seam = (root / "verify/selfcheck.py").read_text()

    def rank_ok(source):
        return sorted(stage_literals(source)) == sorted(STAGES)

    def seam_ok(source):
        return set(stage_literals(source, "after")) <= set(STAGES)
    assert rank_ok(rank) and seam_ok(seam)
    # mutants: an SDC slot named after a step of the front, the spectra
    # inside the back struck as a stage of their own, a third seam name
    for ok, source, old, new in [
            (rank_ok, rank, 'stage="conv"', 'stage="lane"'),
            (rank_ok, rank, 'stage="back"', 'stage="segment-fft"'),
            (seam_ok, seam, "else:  # back", 'elif stage == "demod":')]:
        mutant = source.replace(old, new, 1)
        assert mutant != source
        assert not ok(mutant), new
