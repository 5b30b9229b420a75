"""The figure table against the result files it owns.

``python -m repro figures --output benchmarks/results`` is the one
producer of every file no other exhibit verb writes; this module holds
the checked-in files to it, and each check to a mutant that turns it red.
"""

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

#: files a verb writes only when told where: these two rows print only by
#: default, and the wisdom store is ``autotune --wisdom``'s default
ON_REQUEST = ("fault_sweep.txt", "scale_chaos.txt", "wisdom.json")


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

    def test_mutant_failed_gate_of_any_row_fails_the_verb(self, monkeypatch,
                                                          capsys):
        row = exhibits.FIGURES[0]
        monkeypatch.setattr(exhibits, "FIGURES", (
            replace(row, build=lambda: ("table", {"bound": False})),))
        assert main(["figures"]) == 1
        assert capsys.readouterr().out.endswith(
            f"figures: FAIL ({row.name}.bound)\n")


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
