"""Tests for ASCII Gantt rendering."""

from repro.cluster.gantt import gantt_from_schedule, gantt_from_trace
from repro.cluster.schedule import Schedule
from repro.cluster.trace import CATEGORIES, Trace


def sample_trace() -> Trace:
    t = Trace()
    t.record(0, "conv", "compute", 0.0, 2.0)
    t.record(0, "a2a", "mpi", 2.0, 4.0)
    t.record(1, "conv", "compute", 0.0, 1.0)
    t.record(1, "dma", "pcie", 1.0, 2.0)
    return t


class TestTraceGantt:
    def test_one_lane_per_rank(self):
        out = gantt_from_trace(sample_trace())
        assert "rank 0" in out and "rank 1" in out

    def test_glyphs_by_category(self):
        out = gantt_from_trace(sample_trace(), width=16)
        rank0 = next(l for l in out.splitlines() if l.startswith("rank 0"))
        assert "#" in rank0 and "=" in rank0
        rank1 = next(l for l in out.splitlines() if l.startswith("rank 1"))
        assert "~" in rank1

    def test_proportions(self):
        out = gantt_from_trace(sample_trace(), width=16)
        rank0 = next(l for l in out.splitlines() if l.startswith("rank 0"))
        assert rank0.count("#") == rank0.count("=")  # 2s compute, 2s mpi

    def test_empty_trace(self):
        assert gantt_from_trace(Trace(), title="empty") == "empty"

    def test_title_and_legend(self):
        out = gantt_from_trace(sample_trace(), title="T")
        assert out.splitlines()[0] == "T"
        assert "compute" in out  # legend

    def test_retry_hedge_deadline_glyphs_distinct(self):
        t = Trace()
        t.record(0, "a2a retry", "retry", 0.0, 2.0)
        t.record(0, "hedge launch", "hedge", 2.0, 4.0)
        t.record(0, "deadline slack", "deadline", 4.0, 6.0)
        out = gantt_from_trace(t, width=18)
        rank0 = next(l for l in out.splitlines() if l.startswith("rank 0"))
        assert "!" in rank0 and "+" in rank0 and "x" in rank0
        # three distinct glyphs, never sharing one symbol
        assert len({g for g in rank0 if g in "!+x"}) == 3

    def test_legend_covers_every_category(self):
        out = gantt_from_trace(sample_trace())
        legend = out.splitlines()[-1]
        for cat in CATEGORIES:
            assert cat in legend


class TestScheduleGantt:
    def test_one_lane_per_resource(self):
        s = Schedule()
        s.add("a", ("cpu", 0), 1.0, category="compute")
        s.add("b", ("net", 0), 2.0, deps=["a"], category="mpi")
        out = gantt_from_schedule(s)
        assert "cpu/0" in out and "net/0" in out

    def test_overlap_visible(self):
        s = Schedule()
        s.add("c1", ("cpu", 0), 2.0, category="compute")
        s.add("n1", ("net", 0), 2.0, category="mpi")
        out = gantt_from_schedule(s, width=8)
        cpu = next(l for l in out.splitlines() if l.startswith("cpu"))
        net = next(l for l in out.splitlines() if l.startswith("net"))
        # both lanes fully busy over the same span
        assert cpu.count("#") >= 7 and net.count("=") >= 7

    def test_finer_compute_categories_draw_as_compute(self):
        # Fig 12a: the overlap model accounts convolution and segment FFTs
        # apart; both are compute on the cpu lane
        from repro.bench.runner import paper_scale_model
        from repro.machine.spec import XEON_PHI_SE10
        from repro.perfmodel.overlap import soi_segment_schedule

        sched = soi_segment_schedule(paper_scale_model(32), XEON_PHI_SE10)
        assert sched.category_total("convolution") > 0
        assert sched.category_total("local_fft") > 0
        out = gantt_from_schedule(sched)
        cpu = next(l for l in out.splitlines() if l.startswith("cpu"))
        assert "#" in cpu and "?" not in out

    def test_unknown_category_still_stands_out(self):
        s = Schedule()
        s.add("a", ("cpu", 0), 1.0, category="mystery")
        lane = gantt_from_schedule(s, width=8).splitlines()[0]
        assert lane.count("?") == 8

    def test_empty_schedule(self):
        assert gantt_from_schedule(Schedule(), title="x") == "x"
