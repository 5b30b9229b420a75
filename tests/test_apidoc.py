"""Tests for the API-reference generator."""

import pytest

from repro.bench import apidoc
from repro.bench.apidoc import SUBPACKAGES, build_apidoc, write_apidoc


@pytest.fixture(scope="module")
def doc() -> str:
    return build_apidoc()


class TestApidoc:
    def test_all_subpackages_present(self, doc):
        for pkg in SUBPACKAGES:
            assert f"## {pkg}" in doc

    def test_key_classes_documented(self, doc):
        for name in ("SoiFFT", "DistributedSoiFFT", "StockhamPlan",
                     "SimCluster", "FftModel", "MachineSpec"):
            assert name in doc

    def test_no_private_names(self, doc):
        assert "### `_" not in doc
        assert "### class `_" not in doc

    def test_substantial(self, doc):
        assert len(doc.splitlines()) > 400

    def test_write(self, tmp_path):
        p = write_apidoc(tmp_path / "API.md")
        assert p.exists() and p.stat().st_size > 10_000

    def test_cli(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "API.md"
        assert main(["apidoc", "--output", str(out)]) == 0
        assert out.exists()


class TestRegenerationIsStable:
    """Regenerating docs/API.md changes nothing when the code did not:
    no object address reaches the text."""

    def test_no_object_addresses(self, doc):
        assert " at 0x" not in doc

    def test_repr_rendered_constants_carry_addresses(self, monkeypatch):
        monkeypatch.setattr(apidoc, "_shown", repr)
        assert " at 0x" in build_apidoc()
