"""Tests for the command-line interface."""

import argparse

import pytest

from repro.bench import exhibits
from repro.bench.exhibits import EXHIBITS, Exhibit, run_exhibit
from repro.cli import main


class TestSelftest:
    def test_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "OK" in out


class TestTransform:
    def test_default(self, capsys):
        assert main(["transform", "--n", "3584", "--b", "48"]) == 0
        out = capsys.readouterr().out
        assert "rel l2 error" in out

    def test_mu_flags(self, capsys):
        assert main(["transform", "--n", "4096", "--n-mu", "5",
                     "--d-mu", "4", "--b", "48"]) == 0

    def test_invalid_params_raise(self):
        with pytest.raises(ValueError):
            main(["transform", "--n", "4096", "--b", "48"])  # 7 !| 512


class TestFigures:
    @pytest.mark.parametrize("which", ["table2", "fig3", "fig10", "fig11",
                                       "fig12"])
    def test_individual_figures(self, capsys, which):
        assert main(["figures", which]) == 0
        assert capsys.readouterr().out.strip()

    def test_fig8_prints_series(self, capsys):
        assert main(["figures", "fig8"]) == 0
        out = capsys.readouterr().out
        assert "TFLOPS" in out
        assert "512" in out

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["figures", "fig99"])


class TestVerify:
    def test_sdc_run_detects_and_passes(self, capsys):
        assert main(["verify", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "verify: PASS" in out
        assert "detected=" in out
        assert "thresholds:" in out

    def test_clean_run_has_zero_detections(self, capsys):
        assert main(["verify", "--sdc-rate", "0.0"]) == 0
        out = capsys.readouterr().out
        assert "injected=0 detected=0" in out
        assert "verify: PASS" in out

    def test_amplitude_flag(self, capsys):
        assert main(["verify", "--seed", "1", "--amplitude", "0.01"]) == 0
        assert "verify: PASS" in capsys.readouterr().out


class TestInfo:
    def test_prints_presets(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Xeon Phi" in out
        assert "bops" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


#: quick arguments for every exhibit verb, with the suite marker whose CI
#: job owns it; the other rows of the table keep the smoke case that
#: predates it, beside their module's tests
SMOKE = {
    "fault-sweep": (["--quick"], ()),
    "scale-chaos": (["--quick"], pytest.mark.scale),
    "degrade-sweep": ([], ()),
    "trace-export": (["--profile"], ()),
    "metrics": (["--json"], ()),
    "parallel-bench": (["--quick", "--workers", "1,2"], pytest.mark.parallel),
    "chaos-parallel": (["--quick"], pytest.mark.chaos_parallel),
}
SMOKED_ELSEWHERE = {
    "autotune": "TestAutotune below",
    "serve-bench": "tests/test_serve.py::TestServeBench::test_cli_verb_smoke",
    "figures": "tests/test_figures.py::TestOneProducerNoDrift::"
               "test_every_gate_passes_and_every_file_is_reproduced",
    "report": "tests/test_report.py::TestCliReport::test_cli_command",
    "apidoc": "tests/test_apidoc.py::TestApidoc::test_cli",
}


class TestExhibitTable:
    def test_every_row_has_a_smoke_case(self):
        assert sorted([*SMOKE, *SMOKED_ELSEWHERE]) == sorted(
            ex.verb for ex in EXHIBITS)

    @pytest.mark.parametrize("verb", [
        pytest.param(verb, marks=marks) for verb, (_, marks) in SMOKE.items()])
    def test_verb_runs_and_writes_where_it_says(self, verb, tmp_path, capsys,
                                                monkeypatch):
        # a 5 % wall-clock ratio is judged in a process of its own (CI runs
        # `python -m repro metrics`), not inside a long-lived pytest one
        monkeypatch.setattr(exhibits, "batch_overhead", lambda **_: {
            "plain_s": 1.0, "instrumented_s": 1.0, "ratio": 1.0})
        out_file = tmp_path / "sub" / f"{verb}.out"
        assert main([verb, *SMOKE[verb][0], "--output", str(out_file)]) == 0
        assert out_file.stat().st_size > 0
        assert f"wrote {out_file}" in capsys.readouterr().out

    def run(self, gates, capsys):
        ex = Exhibit("demo", "", lambda args: {"text": "table",
                                               "gates": gates})
        code = run_exhibit(ex, argparse.Namespace(output=None))
        return code, capsys.readouterr().out

    def test_skipped_gate_is_not_a_pass_and_not_a_failure(self, capsys):
        code, out = self.run({"bitwise": True,
                              "floor": "2 cpu(s) < 4 workers"}, capsys)
        assert code == 0
        assert "floor                    skipped (2 cpu(s) < 4 workers)" in out
        assert "bitwise                  PASS" in out
        assert out.endswith("demo: PASS\n")

    @pytest.mark.parametrize("verdict", [False, None])
    def test_failed_or_unmeasured_gate_fails_the_verb(self, verdict, capsys):
        code, out = self.run({"bitwise": True, "floor": verdict}, capsys)
        assert code == 1
        assert "floor                    FAIL" in out
        assert out.endswith("demo: FAIL (floor)\n")


@pytest.mark.autotune
class TestAutotune:
    def test_smoke_run_passes_and_persists_wisdom(self, tmp_path, capsys):
        import json

        from repro.fft.plan import cache_info

        wisdom_path = tmp_path / "wisdom.json"
        table_path = tmp_path / "speedup.txt"
        cached = cache_info().currsize
        assert main(["autotune", "--smoke", "--budget", "10",
                     "--wisdom", str(wisdom_path),
                     "--output", str(table_path)]) == 0
        # tuner and differential check plan directly: the cache is as found
        assert cache_info().currsize == cached
        out = capsys.readouterr().out
        assert "autotune: PASS" in out
        assert "speedup" in out
        assert "best_speedup_floor" not in out  # printed, not gated
        assert "reported, not gated" in out

        store = json.loads(wisdom_path.read_text())
        assert store["version"] == 2
        assert store["entries"]

        from repro.fft.wisdom import Wisdom
        wisdom = Wisdom.load(wisdom_path, strict=True)
        assert wisdom.lookup_kernel(256, -1, "complex128") is not None

        assert "tuned" in table_path.read_text()
