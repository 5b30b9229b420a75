"""The figure table against the result files it owns.

``python -m repro figures --output benchmarks/results`` is the one
producer of every file no other exhibit verb writes; this module holds
the checked-in files to it, and each check to a mutant that turns it red.
"""

import ast
import contextlib
import io
import re
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench import exhibits
from repro.bench.exhibits import EXHIBITS
from repro.cli import main

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "benchmarks" / "results"

#: files no ``--output`` default names: the wisdom store is
#: ``autotune --wisdom``'s default
ON_REQUEST = ("wisdom.json",)


def producers() -> list[str]:
    """Every file name some table row owns under ``benchmarks/results``."""
    return ([f"{fig.name}.txt" for fig in exhibits.FIGURES]
            + [Path(ex.output).name for ex in EXHIBITS
               if ex.output and Path(ex.output).parent.name == "results"]
            + list(ON_REQUEST))


def drift(results: Path, fresh: Path) -> list[str]:
    """Every way *results* differs from the table and what it wrote to
    *fresh*."""
    owned = producers()
    found = {p.name for p in results.iterdir()}
    problems = [f"{name}: {owned.count(name)} producers"
                for name in sorted(found | set(owned))
                if owned.count(name) != 1]
    problems += [f"{name}: owned but not checked in"
                 for name in sorted(set(owned) - found)]
    for fig in exhibits.FIGURES:
        name = f"{fig.name}.txt"
        if fig.exact and name in found and \
                (results / name).read_bytes() != (fresh / name).read_bytes():
            problems.append(f"{name}: differs from the regenerated file")
    return problems


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    fresh = tmp_path_factory.mktemp("figures")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["figures", "--output", str(fresh)])
    return code, fresh, out.getvalue()


class TestOneProducerNoDrift:
    def test_every_gate_passes_and_every_file_is_reproduced(self, regenerated):
        code, fresh, out = regenerated
        assert code == 0, out
        assert out.endswith("figures: PASS\n")
        assert drift(RESULTS, fresh) == []

    def test_an_inexact_row_is_held_by_a_gate(self, regenerated):
        _, _, out = regenerated
        inexact = [fig.name for fig in exhibits.FIGURES if not fig.exact]
        assert inexact
        for name in inexact:
            assert re.search(rf"^  {name}\.\w+ +PASS$", out, re.M), name

    def test_mutant_one_changed_digit_is_drift(self, tmp_path, monkeypatch):
        row = exhibits.FIGURES[0]
        text, gates = row.build()
        digit = re.search(r"\d", text)
        wrong = (text[:digit.start()] + str((int(digit[0]) + 1) % 10)
                 + text[digit.end():])
        monkeypatch.setattr(exhibits, "FIGURES", (
            replace(row, build=lambda: (wrong, gates)),))
        assert main(["figures", "--output", str(tmp_path)]) == 0
        assert f"{row.name}.txt: differs from the regenerated file" in \
            drift(RESULTS, tmp_path)

    def test_mutant_orphan_file_is_drift(self, regenerated, tmp_path):
        _, fresh, _ = regenerated
        copy = tmp_path / "results"
        shutil.copytree(RESULTS, copy)
        assert drift(copy, fresh) == []
        (copy / "orphan.txt").write_text("a table no row writes\n")
        assert drift(copy, fresh) == ["orphan.txt: 0 producers"]

    def test_fault_sweep_file_is_its_producer(self, tmp_path, capsys):
        # full mode, ~1 s: the verb's default --output is the checked-in file
        fresh = tmp_path / "fault_sweep.txt"
        assert main(["fault-sweep", "--output", str(fresh)]) == 0
        assert capsys.readouterr().out.endswith("fault-sweep: PASS\n")
        assert fresh.read_bytes() == (RESULTS / "fault_sweep.txt").read_bytes()

    def test_mutant_failed_gate_of_any_row_fails_the_verb(self, monkeypatch,
                                                          capsys):
        row = exhibits.FIGURES[0]
        monkeypatch.setattr(exhibits, "FIGURES", (
            replace(row, build=lambda: ("table", {"bound": False})),))
        assert main(["figures"]) == 1
        assert capsys.readouterr().out.endswith(
            f"figures: FAIL ({row.name}.bound)\n")


#: a format spec that pads its field to a width (``>8``, ``<26``, ``8.3f``)
_WIDTH = re.compile(r"[<>=^]?[+\- ]?#?0?\d")


def hand_aligned(source: str) -> list[int]:
    """Lines of hand-aligned table rows: an f-string padding three or more
    fields to a width, or a ``ljust`` / ``rjust`` / ``center`` call.  A
    label/value list (Fig 12's lanes, the verdict lines) pads at most two."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.JoinedStr):
            padded = [v for v in node.values
                      if isinstance(v, ast.FormattedValue) and v.format_spec
                      and _WIDTH.match("".join(
                          c.value for c in v.format_spec.values
                          if isinstance(c, ast.Constant)))]
            if len(padded) >= 3:
                lines.append(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func,
                                                       ast.Attribute) \
                and node.func.attr in ("ljust", "rjust", "center"):
            lines.append(node.lineno)
    return sorted(lines)


#: the parent's ladder row, verbatim
HAND_ALIGNED_ROW = '''
lines.append(
    f"{r['rung']:>4d}  {r['mu']:<4s}  {r['b']:>2d}  "
    f"{r['dtype']:<10s}  {r['predicted_db']:>8.1f} dB  "
    f"{r['measured_db']:>8.1f} dB  {r['delta_db']:>+5.1f}   "
    f"{'ok' if good else 'FAIL'}")
header = " ".join(h.rjust(9) for h in headers)
'''


class TestHeadersOnce:
    """A header list, a footer line and a render call live in the figure
    table only: a second copy in a verb or in the report is the drift this
    table replaced."""

    SRC = ROOT / "src" / "repro"

    def test_cli_and_report_render_nothing_themselves(self):
        for path in (self.SRC / "cli.py", self.SRC / "bench" / "report.py"):
            assert not re.search(r"render_(table|series|bars)",
                                 path.read_text()), path

    def test_fig9_header_has_one_site(self):
        # the Fig 9 column, with or without its unit: the runner's dict key
        # and the one header list
        sites = [path.name
                 for path in [*sorted((self.SRC / "bench").glob("*.py")),
                              self.SRC / "cli.py"]
                 for line in path.read_text().splitlines()
                 if re.search(r'"exposed MPI( \(s\))?"', line)]
        assert sites == ["figures.py", "runner.py"]

    def test_no_table_is_hand_aligned_outside_the_renderer(self):
        found = {path.name: hand_aligned(path.read_text())
                 for path in sorted((self.SRC / "bench").glob("*.py"))
                 if path.name != "tables.py"}
        assert {name: lines for name, lines in found.items() if lines} == {}

    def test_mutant_hand_aligned_rows_are_caught(self):
        assert hand_aligned(HAND_ALIGNED_ROW) == [3, 7]
        assert hand_aligned((self.SRC / "bench" / "tables.py").read_text())
