"""The exhibit modules judge their rows, never their rendered text.

Each of ``bench/faultsweep``, ``scalechaos``, ``degrade``,
``parallelbench`` and ``chaosparallel`` has one ``build`` that turns its
rows into ``(text, {gate: verdict})`` together.  Every gate family here
has a test-local mutant that turns it red, and a renderer that drops the
verdict column still fails on a bad row — which a gate that searched the
text for "MISMATCH" or "FAIL" would pass.
"""

import ast
import copy
from pathlib import Path

import pytest

from repro.bench import (
    chaosparallel,
    degrade,
    faultsweep,
    parallelbench,
    scalechaos,
    tables,
)

BENCH = Path(__file__).resolve().parents[1] / "src" / "repro" / "bench"

QUICK_RATES = (0.0, 0.002, 0.01)
QUICK_SEEDS = faultsweep.DEFAULT_SEEDS[:2]


def only_failure(gates: dict, gate: str) -> None:
    assert gates[gate] is False, gates
    assert all(v is True for k, v in gates.items() if k != gate), gates


def drop_last_column(headers, rows, title=""):
    """A renderer that loses the verdict / bitwise column."""
    return tables.render_table(headers[:-1], [r[:-1] for r in rows], title)


def spoil(monkeypatch, module, name: str, key: str, value) -> None:
    """Make ``module.name`` return its real rows with ``row[key] = value``."""
    real = getattr(module, name)

    def spoiled(*args, **kwargs):
        out = real(*args, **kwargs)
        for row in out if isinstance(out, list) else [out]:
            row[key] = value
        return out

    monkeypatch.setattr(module, name, spoiled)


# -- fault-sweep --------------------------------------------------------------

@pytest.fixture(scope="module")
def sweep():
    """One quick sweep's data, keyed by the function that measured it."""
    return {
        "fault_sweep_rows": faultsweep.fault_sweep_rows(QUICK_RATES,
                                                        QUICK_SEEDS),
        "rank_failure_demo": faultsweep.rank_failure_demo(),
        "abft_coverage_rows": faultsweep.abft_coverage_rows(
            seeds=QUICK_SEEDS),
    }


def build_sweep(monkeypatch, data: dict):
    for name, value in data.items():
        monkeypatch.setattr(faultsweep, name,
                            lambda *a, v=copy.deepcopy(value), **k: v)
    return faultsweep.build(QUICK_RATES, QUICK_SEEDS)


def _abft_row(data, amplitude):
    return next(r for r in data["abft_coverage_rows"]["rows"]
                if r[0] == amplitude)


def _uncovered(data):
    _abft_row(data, 1e-4)[2] = 66.7


def _unlocalized(data):
    _abft_row(data, 1.0)[3] = 0.0


def _loud_below_floor(data):
    abft = data["abft_coverage_rows"]
    _abft_row(data, 1e-13)[4] = 2 * abft["bound"]


def _false_positive(data):
    data["abft_coverage_rows"]["clean_detections"] = 1


def _soi_off_bound(data):
    demo = data["rank_failure_demo"]
    demo["soi_error"] = 2 * demo["error_bound"]


def _nobody_died(data):
    data["rank_failure_demo"]["dead_ranks"] = []


def _ct_completed(data):
    data["rank_failure_demo"]["ct_aborted_rank"] = None


class TestFaultSweepGates:
    def test_quick_sweep_passes_five_gates_with_the_ratio_under_one(
            self, sweep, monkeypatch):
        text, gates = build_sweep(monkeypatch, sweep)
        assert text == faultsweep.build(QUICK_RATES, QUICK_SEEDS)[0]
        assert len(gates) == 5 and all(v is True for v in gates.values())
        # the CT/SOI retry-cost column is a two-seed mean here: printed,
        # not gated
        assert min(r[5] for r in sweep["fault_sweep_rows"]
                   if r[5] != "-") < 1

    @pytest.mark.parametrize("mutant, gate", [
        (_false_positive, "clean_runs_zero_trips"),
        (_uncovered, "full_coverage_ge_1e-8"),
        (_unlocalized, "full_coverage_ge_1e-8"),
        (_loud_below_floor, "sub_threshold_in_bound"),
        (_soi_off_bound, "soi_survives_rank_loss"),
        (_nobody_died, "soi_survives_rank_loss"),
        (_ct_completed, "ct_aborts_rank_failed"),
    ])
    def test_mutant_turns_its_gate_red(self, sweep, monkeypatch, mutant,
                                       gate):
        data = copy.deepcopy(sweep)
        mutant(data)
        only_failure(build_sweep(monkeypatch, data)[1], gate)


# -- scale-chaos --------------------------------------------------------------

@pytest.fixture
def small_fabric(monkeypatch):
    """``--quick`` on the 64-rank fabric alone (~0.3 s)."""
    monkeypatch.setattr(scalechaos, "DEFAULT_SIZES", (64,))


class TestScaleChaosGates:
    def test_each_series_has_a_passing_gate(self, small_fabric):
        _, gates = scalechaos.build(quick=True)
        assert sorted(gates) == ["degraded_complete", "exchange_bitwise",
                                 "partition_bitwise", "soi_recovery_bitwise",
                                 "switch_bitwise"]
        assert all(v is True for v in gates.values())

    @pytest.mark.parametrize("series, key, gate", [
        ("exchange_rows", "bitwise_equal", "exchange_bitwise"),
        ("degraded_uplink_rows", "complete", "degraded_complete"),
        ("switch_failure_rows", "bitwise_equal", "switch_bitwise"),
        ("partition_rows", "bitwise_equal", "partition_bitwise"),
        ("soi_domain_recovery", "bitwise_equal", "soi_recovery_bitwise"),
    ])
    def test_mutant_row_turns_its_series_red(self, small_fabric, monkeypatch,
                                             series, key, gate):
        spoil(monkeypatch, scalechaos, series, key, False)
        only_failure(scalechaos.build(quick=True)[1], gate)


# -- the distinguishing mutant: the verdict column is gone, the gate is not ---

def _chaos_result(**row):
    base = {"name": "kill", "expect": "recovered", "mttr_s": 0.02,
            "throughput": 1.0, "dead": (1,), "bitwise": True, "leaks": 0,
            "ok": True, "wall_s": 0.1}
    return {"n": 2 ** 13, "workers": 4, "seed": 0, "hang_timeout_s": 1.5,
            "cpus": 4, "rows": [{**base, **row}]}


def _parallel_result(**row):
    base = {"workers": 4, "serial_s": 1.0, "parallel_s": 0.5, "speedup": 2.0,
            "model_s": 0.01, "model_predicted_speedup": 1.3,
            "bitwise_equal": True}
    return {"n": 2 ** 18, "segments_per_process": 2, "start_method": "fork",
            "cpus": 4, "reps": 1, "rows": [{**base, **row}]}


class TestVerdictsComeFromRows:
    def test_scale_chaos(self, small_fabric, monkeypatch):
        spoil(monkeypatch, scalechaos, "exchange_rows", "bitwise_equal",
              False)
        monkeypatch.setattr(scalechaos, "render_table", drop_last_column)
        text, gates = scalechaos.build(quick=True)
        assert "MISMATCH" not in text
        only_failure(gates, "exchange_bitwise")

    def test_degrade_sweep(self, monkeypatch):
        spoil(monkeypatch, degrade, "degrade_sweep_rows", "delta_db", -0.5)
        monkeypatch.setattr(degrade, "render_table", drop_last_column)
        text, gates = degrade.build()
        assert "FAIL" not in text and "VIOLATED" not in text
        assert gates == {"snr_band": False}

    def test_parallel_bench(self, monkeypatch):
        monkeypatch.setattr(parallelbench, "render_table", drop_last_column)
        text, gates = parallelbench.build(
            _parallel_result(bitwise_equal=False))
        assert "MISMATCH" not in text
        only_failure(gates, "bitwise")

    def test_chaos_parallel(self, monkeypatch):
        monkeypatch.setattr(chaosparallel, "render_table", drop_last_column)
        text, gates = chaosparallel.build(_chaos_result(leaks=1, ok=False))
        assert "FAIL" not in text
        only_failure(gates, "bitwise_zero_leak")

    def test_degrade_rung_over_the_band_fails(self, monkeypatch):
        spoil(monkeypatch, degrade, "degrade_sweep_rows", "delta_db",
              degrade.TOLERANCE_DB + 0.1)
        assert degrade.build()[1] == {"snr_band": False}


class TestWallClockFloors:
    """Floors a small host cannot measure print ``skipped``, never PASS."""

    def test_speedup_floor_judged_skipped_or_failed(self):
        assert parallelbench.build(_parallel_result())[1]["speedup_floor"]
        slow = _parallel_result(speedup=1.2)
        assert parallelbench.build(slow)[1]["speedup_floor"] is False
        assert parallelbench.build(slow, quick=True)[1]["speedup_floor"] \
            == "--quick sizes"
        small = {**slow, "cpus": 2}
        assert parallelbench.build(small)[1]["speedup_floor"] == \
            "2 cpu(s) < 4 workers"

    def test_chaos_floors(self):
        assert all(v is True for v in
                   chaosparallel.build(_chaos_result())[1].values())
        only_failure(chaosparallel.build(_chaos_result(mttr_s=None))[1],
                     "mttr_ceiling")
        only_failure(chaosparallel.build(_chaos_result(throughput=0.4))[1],
                     "throughput_floor")
        slow = {**_chaos_result(throughput=0.4), "cpus": 2}
        assert chaosparallel.build(slow)[1]["throughput_floor"] == \
            "2 cpu(s) < 4 workers"


# -- no verdict is read back from text ----------------------------------------

_SEARCHES = {"count", "find", "rfind", "index", "startswith", "endswith"}


def _is_text(node, names: set) -> bool:
    if isinstance(node, ast.JoinedStr) or (
            isinstance(node, ast.Constant) and isinstance(node.value, str)):
        return True
    if isinstance(node, ast.Name):
        return node.id in names or node.id.endswith("text")
    if isinstance(node, ast.BinOp):
        return _is_text(node.left, names) or _is_text(node.right, names)
    if isinstance(node, ast.Call):
        f = node.func
        called = f.attr if isinstance(f, ast.Attribute) else \
            getattr(f, "id", "")
        return called.startswith("render") or called == "join"
    return False


def text_reads(source: str) -> list[int]:
    """Lines where a function tests rendered text for a word: ``in`` /
    ``not in``, a string search, or a regular expression whose subject is
    a string it built (an f-string, a ``render*`` or ``join`` call, a name
    bound to one of those, or a name ending in ``text``)."""
    hits = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        names: set = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and _is_text(node.value, names):
                names |= {t.id for t in node.targets
                          if isinstance(t, ast.Name)}
        for node in ast.walk(fn):
            if isinstance(node, ast.Compare) and any(
                    isinstance(op, (ast.In, ast.NotIn)) for op in node.ops) \
                    and any(_is_text(c, names) for c in node.comparators):
                hits.add(node.lineno)
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and (
                        node.func.attr in _SEARCHES
                        and _is_text(node.func.value, names)
                        or node.func.attr in ("search", "match",
                                              "fullmatch", "findall")
                        and any(_is_text(a, names) for a in node.args[1:])):
                hits.add(node.lineno)
    return sorted(hits)


#: the two handlers that judged their own text before ``build`` (renderers
#: renamed), and a helper that searches a table: each passes on any table
#: that does not happen to print the word
GREPPING_HANDLERS = '''
def _scale_chaos(args) -> dict:
    text = render_chaos(quick=args.quick, seed=args.seed)
    return {"text": text, "gates": {"bitwise": "MISMATCH" not in text}}


def _degrade_sweep(args) -> dict:
    text = render_ladder(DEFAULT_N if args.n is None else args.n,
                         seed=args.seed)
    return {"text": text,
            "gates": {"snr_band": "FAIL" not in text
                      and "VIOLATED" not in text}}


def _judge(rows):
    table = render_table(["bitwise"], rows)
    return {"bitwise": table.count("MISMATCH") == 0,
            "ok": re.search("FAIL", "\\\\n".join(table)) is None}
'''


class TestNoVerdictFromText:
    SITES = ("exhibits.py", "faultsweep.py", "scalechaos.py", "degrade.py",
             "parallelbench.py", "chaosparallel.py")

    def test_no_gate_is_read_back_from_rendered_text(self):
        found = {name: text_reads((BENCH / name).read_text())
                 for name in self.SITES}
        assert {k: v for k, v in found.items() if v} == {}

    def test_mutant_grepping_handlers_are_caught(self):
        assert text_reads(GREPPING_HANDLERS) == [4, 11, 12, 17, 18]

    def test_membership_in_a_dict_is_not_text(self):
        assert text_reads('def f(result):\n    return "json" in result\n') \
            == []
