"""Tests for the telemetry subsystem: spans, metrics, exporters, profile."""

import json
import os

import numpy as np
import pytest

from repro.cluster.simcluster import SimCluster
from repro.core.params import SoiParams
from repro.core.soi_dist import DistributedSoiFFT
from repro.core.soi_single import SoiFFT
from repro.machine.spec import XEON_E5_2680
from repro.telemetry import (
    NULL_RECORDER,
    NULL_REGISTRY,
    SNAPSHOT_SCHEMA,
    MetricsRegistry,
    SpanRecorder,
    Telemetry,
    chrome_category_totals,
    chrome_trace_events,
    chrome_trace_json,
    prometheus_text,
    render_stage_profile,
    stage_profile,
    telemetry_snapshot,
)
from repro.telemetry.metrics import get_registry, set_registry
from tests.conftest import random_complex


def run_distributed(rng, p=4, seed_n=8 * 448):
    params = SoiParams(n=seed_n, n_procs=p, segments_per_process=2,
                       n_mu=8, d_mu=7, b=48)
    cluster = SimCluster(p, metrics=MetricsRegistry())
    dist = DistributedSoiFFT(cluster, params)
    x = random_complex(rng, seed_n)
    dist(dist.scatter(x))
    return cluster, dist


class TestSpanRecorder:
    def test_charge_span_basics(self):
        rec = SpanRecorder("t1")
        s = rec.record(2, "fft", "compute", 1.0, 3.0, nbytes=64)
        assert s.trace_id == "t1"
        assert s.kind == "charge" and s.closed
        assert s.duration == pytest.approx(2.0)
        assert s.rank == 2 and s.nbytes == 64
        assert rec.charges == [s] and rec.spans == [s]

    def test_ids_are_deterministic_counters(self):
        rec = SpanRecorder()
        ids = [rec.record(0, "x", "compute", 0.0, 1.0).span_id
               for _ in range(3)]
        assert ids == [1, 2, 3]

    def test_charges_nest_under_open_scope(self):
        rec = SpanRecorder()
        scope = rec.begin(0, "request", t_start=0.0)
        charge = rec.record(0, "fft", "compute", 0.0, 1.0)
        rec.end(scope, 1.0)
        assert charge.parent_id == scope.span_id
        assert rec.children(scope) == [charge]
        assert rec.roots() == [scope]

    def test_scopes_are_per_rank(self):
        rec = SpanRecorder()
        scope = rec.begin(0, "request", t_start=0.0)
        other = rec.record(1, "fft", "compute", 0.0, 1.0)
        assert other.parent_id is None
        rec.end(scope, 1.0)

    def test_nested_scopes_lifo(self):
        rec = SpanRecorder()
        outer = rec.begin(0, "outer", t_start=0.0)
        inner = rec.begin(0, "inner", t_start=0.5)
        assert inner.parent_id == outer.span_id
        rec.end(inner, 1.0)
        assert rec.open_spans(0) == [outer]
        rec.end(outer, 2.0)
        assert rec.open_spans() == []

    def test_closing_outer_pops_inner(self):
        rec = SpanRecorder()
        outer = rec.begin(0, "outer", t_start=0.0)
        inner = rec.begin(0, "inner", t_start=0.5)
        rec.end(outer, 2.0)
        assert inner.closed and inner.t_end == pytest.approx(2.0)
        assert rec.open_spans() == []

    def test_end_rejects_charge_double_close_and_backwards(self):
        rec = SpanRecorder()
        charge = rec.record(0, "x", "compute", 0.0, 1.0)
        with pytest.raises(ValueError):
            rec.end(charge, 2.0)
        scope = rec.begin(0, "s", t_start=1.0)
        with pytest.raises(ValueError):
            rec.end(scope, 0.5)
        rec.end(scope, 2.0)
        with pytest.raises(ValueError):
            rec.end(scope, 3.0)

    def test_span_contextmanager_needs_clock(self):
        rec = SpanRecorder()
        with pytest.raises(ValueError):
            with rec.span(0, "x"):
                pass

    def test_span_contextmanager_uses_clock(self):
        rec = SpanRecorder()
        ticks = iter([1.0, 4.0])
        with rec.span(0, "step", clock=lambda: next(ticks)) as s:
            rec.record(0, "fft", "compute", 2.0, 3.0)
        assert s.t_start == 1.0 and s.t_end == 4.0
        assert rec.charges[0].parent_id == s.span_id

    def test_category_totals_count_charges_only(self):
        rec = SpanRecorder()
        scope = rec.begin(0, "request", category="compute", t_start=0.0)
        rec.record(0, "fft", "compute", 0.0, 2.0)
        rec.record(0, "a2a", "mpi", 2.0, 3.0)
        rec.end(scope, 3.0)
        assert rec.category_totals() == {
            "compute": pytest.approx(2.0), "mpi": pytest.approx(1.0)}

    def test_subtree_total(self):
        rec = SpanRecorder()
        outer = rec.begin(0, "outer", t_start=0.0)
        rec.record(0, "a", "compute", 0.0, 1.0)
        inner = rec.begin(0, "inner", t_start=1.0)
        rec.record(0, "b", "compute", 1.0, 3.0)
        rec.end(outer, 3.0)
        rec.record(0, "c", "compute", 3.0, 4.0)  # outside both scopes
        assert rec.subtree_total(inner) == pytest.approx(2.0)
        assert rec.subtree_total(outer) == pytest.approx(3.0)
        assert rec.subtree_total(outer, category="mpi") == 0.0

    def test_null_recorder_is_inert(self):
        assert NULL_RECORDER.record(0, "x", "compute", 0.0, 1.0) is None
        assert NULL_RECORDER.begin(0, "s") is None
        with NULL_RECORDER.span(0, "s") as s:
            assert s is None
        assert len(NULL_RECORDER) == 0
        assert NULL_RECORDER.category_totals() == {}


class TestSpanTreeInvariants:
    """Invariants over a real distributed run's span tree."""

    def test_children_within_parent_bounds(self, rng):
        cluster, _ = run_distributed(rng)
        rec = cluster.trace.recorder
        by_id = {s.span_id: s for s in rec.spans}
        assert rec.open_spans() == []
        for s in rec.spans:
            if s.parent_id is None:
                continue
            parent = by_id[s.parent_id]
            assert parent.t_start <= s.t_start + 1e-12
            assert s.t_end <= parent.t_end + 1e-12

    def test_child_rank_matches_parent_rank(self, rng):
        cluster, _ = run_distributed(rng)
        rec = cluster.trace.recorder
        by_id = {s.span_id: s for s in rec.spans}
        for s in rec.spans:
            if s.parent_id is not None:
                assert s.rank == by_id[s.parent_id].rank

    def test_flat_projection_matches_span_tree(self, rng):
        cluster, _ = run_distributed(rng)
        trace = cluster.trace
        tree = trace.recorder.category_totals()
        for cat, total in tree.items():
            assert trace.total(cat) == pytest.approx(total)
        # and nothing in the flat view is missing from the tree
        assert sum(tree.values()) == pytest.approx(trace.total())

    def test_request_scope_contains_all_rank_charges(self, rng):
        cluster, _ = run_distributed(rng)
        rec = cluster.trace.recorder
        roots = rec.roots()
        assert {s.name for s in roots} == {"soi request"}
        assert len(roots) == 4
        for root in roots:
            assert rec.subtree_total(root) == pytest.approx(
                cluster.trace.total(rank=root.rank))


class TestChromeExport:
    def _recorder(self):
        rec = SpanRecorder()
        scope = rec.begin(0, "request", t_start=0.0)
        rec.record(0, "fft", "compute", 0.0, 1.5, nbytes=128)
        rec.record(0, "a2a", "mpi", 1.5, 2.0)
        rec.end(scope, 2.0)
        rec.record(1, "fft", "compute", 0.0, 1.0)
        return rec

    def test_round_trips_through_json(self):
        doc = json.loads(chrome_trace_json(self._recorder()))
        assert doc["displayTimeUnit"] == "ms"
        assert isinstance(doc["traceEvents"], list)

    def test_metadata_rows_name_process_and_ranks(self):
        events = chrome_trace_events(self._recorder(), process_name="p")
        meta = [e for e in events if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert names == {"p", "rank 0", "rank 1"}

    def test_ts_monotone_per_tid(self):
        events = chrome_trace_events(self._recorder())
        last = {}
        for e in events:
            if e["ph"] != "X":
                continue
            assert e["ts"] >= last.get(e["tid"], float("-inf"))
            last[e["tid"]] = e["ts"]

    def test_category_totals_match_flat_projection(self):
        rec = self._recorder()
        totals = chrome_category_totals(chrome_trace_events(rec))
        assert totals == {
            "compute": pytest.approx(2.5), "mpi": pytest.approx(0.5)}
        assert totals == {k: pytest.approx(v)
                          for k, v in rec.category_totals().items()}

    def test_microsecond_units_and_identity_args(self):
        events = chrome_trace_events(self._recorder())
        fft = next(e for e in events
                   if e["ph"] == "X" and e["name"] == "fft"
                   and e["tid"] == 0)
        assert fft["ts"] == pytest.approx(0.0)
        assert fft["dur"] == pytest.approx(1.5e6)
        assert fft["args"]["nbytes"] == 128
        assert fft["args"]["parent_id"] is not None

    def test_open_scope_exports_zero_duration(self):
        rec = SpanRecorder()
        rec.begin(0, "hung", t_start=5.0)
        events = chrome_trace_events(rec)
        hung = next(e for e in events if e.get("name") == "hung")
        assert hung["dur"] == 0.0

    def test_accepts_trace_via_recorder_attribute(self, rng):
        cluster, _ = run_distributed(rng)
        events = chrome_trace_events(cluster.trace)
        totals = chrome_category_totals(events)
        for cat, total in totals.items():
            assert cluster.trace.total(cat) == pytest.approx(total)

    def test_rejects_sources_without_recorder(self):
        with pytest.raises(TypeError):
            chrome_trace_events(object())


class TestMetrics:
    def test_counter_monotone(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_test_events_total")
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        g = MetricsRegistry().gauge("repro_test_queue_depth")
        g.set(4)
        g.inc()
        g.dec(2)
        assert g.value == pytest.approx(3.0)

    def test_histogram_quantiles_bounded_by_observations(self):
        h = MetricsRegistry().histogram("repro_test_latency_seconds")
        for v in (0.001, 0.002, 0.004, 0.1):
            h.observe(v)
        assert h.count == 4
        assert h.mean == pytest.approx(sum((0.001, 0.002, 0.004, 0.1)) / 4)
        assert 0.001 <= h.p50 <= 0.1
        assert h.p50 <= h.p95 <= h.p99 <= 0.1

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("repro_test_bad_seconds",
                                        bounds=(2.0, 1.0))

    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_test_hits_total")
        b = reg.counter("repro_test_hits_total")
        assert a is b

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("repro_test_hits_total")
        with pytest.raises(ValueError):
            reg.gauge("repro_test_hits_total")

    @pytest.mark.parametrize("bad", [
        "hits_total",              # missing repro_ prefix
        "repro_hits",              # only one segment after the prefix
        "repro_Test_hits_total",   # uppercase
        "repro test total",        # spaces
    ])
    def test_name_convention_enforced(self, bad):
        with pytest.raises(ValueError):
            MetricsRegistry().counter(bad)

    def test_null_registry_hands_out_inert_instruments(self):
        c = NULL_REGISTRY.counter("not even a valid name")
        c.inc(10)
        assert c.value == 0.0
        h = NULL_REGISTRY.histogram("repro_test_latency_seconds")
        h.observe(1.0)
        assert h.count == 0 and h.quantile(0.5) == 0.0

    def test_collect_is_name_sorted(self):
        reg = MetricsRegistry()
        reg.counter("repro_z_last_total")
        reg.counter("repro_a_first_total")
        assert [i.name for i in reg.collect()] == [
            "repro_a_first_total", "repro_z_last_total"]

    def test_snapshot_and_reset(self):
        reg = MetricsRegistry()
        reg.counter("repro_test_hits_total", help="hits").inc(2)
        snap = reg.snapshot()
        assert snap["repro_test_hits_total"] == {
            "kind": "counter", "help": "hits", "value": 2.0}
        reg.reset()
        assert reg.snapshot() == {}

    def test_default_registry_is_swappable(self):
        mine = MetricsRegistry()
        prev = set_registry(mine)
        try:
            assert get_registry() is mine
        finally:
            set_registry(prev)


class TestExporters:
    def test_prometheus_text_format(self):
        reg = MetricsRegistry()
        reg.counter("repro_test_hits_total", help="hit count").inc(3)
        reg.gauge("repro_test_queue_depth").set(2)
        h = reg.histogram("repro_test_latency_seconds", bounds=(0.01, 0.1))
        h.observe(0.005)
        h.observe(0.05)
        text = prometheus_text(reg)
        assert "# HELP repro_test_hits_total hit count" in text
        assert "# TYPE repro_test_hits_total counter" in text
        assert "repro_test_hits_total 3" in text
        assert "repro_test_queue_depth 2" in text
        # cumulative buckets
        assert 'repro_test_latency_seconds_bucket{le="0.01"} 1' in text
        assert 'repro_test_latency_seconds_bucket{le="0.1"} 2' in text
        assert 'repro_test_latency_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_test_latency_seconds_count 2" in text

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""

    def test_snapshot_is_versioned_and_json_ready(self):
        reg = MetricsRegistry()
        reg.counter("repro_test_hits_total").inc()
        rec = SpanRecorder()
        rec.record(0, "fft", "compute", 0.0, 1.0)
        doc = telemetry_snapshot(reg, rec, meta={"run": "x"})
        assert doc["schema"] == SNAPSHOT_SCHEMA
        assert doc["meta"] == {"run": "x"}
        assert doc["spans"]["count"] == 1
        assert doc["spans"]["category_totals"] == {
            "compute": pytest.approx(1.0)}
        json.dumps(doc)  # must serialize as-is


class TestTelemetryBundle:
    def test_stage_records_span_and_histogram(self):
        telem = Telemetry(recorder=SpanRecorder(),
                          metrics=MetricsRegistry())
        telem.stage("back", 1.0, 3.0, nbytes=1000)
        s = telem.recorder.charges[0]
        assert s.name == "soi back" and s.category == "compute"
        h = telem.metrics.get("repro_core_stage_back_seconds")
        assert h.count == 1 and h.sum == pytest.approx(2.0)

    def test_machine_enables_roofline_gauges(self):
        telem = Telemetry(recorder=SpanRecorder(),
                          metrics=MetricsRegistry(),
                          machine=XEON_E5_2680)
        telem.stage("conv", 0.0, 1.0, nbytes=2 * 10 ** 9)
        assert telem.metrics.get(
            "repro_core_stage_conv_gbps").value == pytest.approx(2.0)
        assert telem.metrics.get(
            "repro_core_roofline_ceiling_gbps").value == pytest.approx(
                XEON_E5_2680.stream_gbps)

    def test_transform_done_counts(self):
        telem = Telemetry(recorder=SpanRecorder(),
                          metrics=MetricsRegistry())
        telem.transform_done(4, 1e6)
        telem.transform_done(1, 2e5)
        assert telem.metrics.get(
            "repro_core_transforms_total").value == 5
        assert telem.metrics.get(
            "repro_core_flops_total").value == pytest.approx(1.2e6)

    def test_instrumented_soi_matches_plain(self, rng):
        params = SoiParams(n=8 * 448, n_procs=1, segments_per_process=8,
                           n_mu=8, d_mu=7, b=48)
        x = random_complex(rng, 8 * 448)
        plain = SoiFFT(params)(x)
        telem = Telemetry(recorder=SpanRecorder(),
                          metrics=MetricsRegistry())
        instrumented = SoiFFT(params, telemetry=telem)(x)
        assert np.array_equal(plain, instrumented)
        # one span per stage: the front, and the back (the segment FFT and
        # demodulation)
        assert [s.name for s in telem.recorder.charges] == [
            "soi conv", "soi back"]
        assert telem.metrics.get("repro_core_transforms_total").value == 1


    def test_a_pooled_transform_records_the_same_spans(self, rng):
        # a frame the worker pool shares out: one span per stage, on the
        # caller, after the join — as for the one-range call
        params = SoiParams(n=7 * 2 ** 13, n_procs=1, segments_per_process=8,
                           n_mu=8, d_mu=7, b=48)
        x = random_complex(rng, params.n)
        names = {}
        for share in (SoiFFT._POOL_MIN_SHARE, 1 << 60):
            telem = Telemetry(recorder=SpanRecorder(),
                              metrics=MetricsRegistry())
            f = SoiFFT(params, telemetry=telem)
            f._POOL_MIN_SHARE = share
            names[share] = (f._parts(1), f(x).tobytes(),
                            [s.name for s in telem.recorder.charges])
        (parts, y, spans), (one, want, serial) = names.values()
        assert parts == min(2, len(os.sched_getaffinity(0))) and one == 1
        assert y == want
        assert spans == serial == ["soi conv", "soi back"]


class TestStageProfile:
    def test_profile_of_distributed_run(self, rng):
        cluster, dist = run_distributed(rng)
        profiles = stage_profile(dist)
        names = [pr.stage for pr in profiles]
        assert names[:6] == ["ghost exchange", "convolution", "checkpoint",
                             "all-to-all", "local FFT", "demodulation"]
        by_name = {pr.stage: pr for pr in profiles}
        for stage in ("convolution", "local FFT", "demodulation"):
            assert by_name[stage].predicted_s > 0.0
            assert by_name[stage].measured_s > 0.0
            assert by_name[stage].retry_s == 0.0

    def test_measured_matches_trace_total(self, rng):
        cluster, dist = run_distributed(rng)
        by_name = {pr.stage: pr for pr in stage_profile(dist)}
        assert by_name["local FFT"].measured_s * 4 == pytest.approx(
            cluster.trace.total(label="local FFT"))

    def test_render_contains_every_stage_and_total(self, rng):
        _, dist = run_distributed(rng)
        text = render_stage_profile(stage_profile(dist))
        for stage in ("convolution", "all-to-all", "total"):
            assert stage in text
