"""CLI contract for `repro lint` and `repro analyze --symbolic`.

Exit codes are part of the interface: 0 clean, 1 findings at error
severity, 2 usage error, 3 internal analysis defect.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import (
    EXIT_FINDINGS,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from repro.errors import AnalysisError

REPO = Path(__file__).resolve().parent.parent

CLEAN_SRC = """
fun main(x: uint) -> uint {
  let y <- x + 1;
  return y;
}
"""

WARN_SRC = """
fun main(x: uint) -> uint {
  let dead <- x + 1;
  let y <- x;
  return y;
}
"""


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.twr"
    path.write_text(CLEAN_SRC)
    return str(path)


@pytest.fixture
def warn_file(tmp_path):
    path = tmp_path / "warn.twr"
    path.write_text(WARN_SRC)
    return str(path)


@pytest.fixture
def broken_file(tmp_path):
    path = tmp_path / "broken.twr"
    path.write_text("fun main( {")
    return str(path)


@pytest.fixture
def length_file(tmp_path, length_source):
    path = tmp_path / "length.twr"
    path.write_text(length_source)
    return str(path)


class TestLintExitCodes:
    def test_clean_is_zero(self, clean_file, capsys):
        assert main(["lint", clean_file]) == EXIT_OK
        assert "clean" in capsys.readouterr().out

    def test_warnings_only_is_zero(self, warn_file, capsys):
        assert main(["lint", warn_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "RPA102" in out

    def test_parse_error_is_findings(self, broken_file, capsys):
        assert main(["lint", broken_file]) == EXIT_FINDINGS
        assert "RPA001" in capsys.readouterr().out

    def test_unknown_entry_is_findings(self, length_file, capsys):
        code = main(["lint", length_file, "--entry", "nope"])
        assert code == EXIT_FINDINGS
        assert "RPA002" in capsys.readouterr().out

    def test_no_target_is_usage(self, capsys):
        assert main(["lint"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--table1" in err and "--codes" in err

    def test_internal_defect_is_three(self, clean_file, monkeypatch):
        import repro.analysis

        def boom(*args, **kwargs):
            raise AnalysisError("fixpoint diverged")

        monkeypatch.setattr(repro.analysis, "lint_source", boom)
        assert main(["lint", clean_file]) == EXIT_INTERNAL


class TestLintOutput:
    def test_codes_catalog(self, capsys):
        assert main(["lint", "--codes"]) == EXIT_OK
        out = capsys.readouterr().out
        for code in ("RPA001", "RPA101", "RPA203", "RPA301"):
            assert code in out

    def test_codes_catalog_json(self, capsys):
        assert main(["lint", "--codes", "--json"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert [r["code"] for r in rows] == sorted(r["code"] for r in rows)

    def test_json_report_single_file(self, warn_file, capsys):
        assert main(["lint", warn_file, "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["path"] == warn_file
        codes = [d["code"] for d in payload["diagnostics"]]
        assert "RPA102" in codes

    def test_table1_lints_every_benchmark(self, capsys):
        assert main(["lint", "--table1", "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        from repro.benchsuite.programs import SOURCES

        assert len(payload) == len(SOURCES)
        assert all(p["max_severity"] != "error" for p in payload)


class TestAnalyzeSymbolic:
    def test_human_output(self, length_file, capsys):
        code = main(
            ["analyze", length_file, "--symbolic", "--entry", "length",
             "--optimize", "spire", "--word-width", "3",
             "--addr-width", "3", "--heap-cells", "6"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "T(d)" in out and "MCX(d)" in out

    def test_json_output(self, length_file, capsys):
        code = main(
            ["analyze", length_file, "--symbolic", "--json", "--entry",
             "length", "--optimize", "spire", "--word-width", "3",
             "--addr-width", "3", "--heap-cells", "6"]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["entry"] == "length"
        assert payload["pipeline"] == "spire"
        assert payload["functions"][0]["function"] == "length"

    def test_raw_spec_is_analyzed_like_its_preset(self, length_file, capsys):
        def symbolic(spec):
            code = main(
                ["analyze", length_file, "--symbolic", "--json", "--entry",
                 "length", "--optimize", spec, "--word-width", "3",
                 "--addr-width", "3", "--heap-cells", "6"]
            )
            assert code == EXIT_OK
            return json.loads(capsys.readouterr().out)

        raw = symbolic("flatten,narrow")
        assert raw["pipeline"] == "flatten,narrow"
        assert raw["functions"] == symbolic("spire")["functions"]

    def test_internal_defect_is_three(self, length_file, monkeypatch):
        import repro.analysis

        def boom(*args, **kwargs):
            raise AnalysisError("series did not stabilize")

        monkeypatch.setattr(repro.analysis, "symbolic_cost", boom)
        code = main(
            ["analyze", length_file, "--symbolic", "--entry", "length"]
        )
        assert code == EXIT_INTERNAL


# ------------------------------------------------- optional static tooling
@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_clean_on_analysis_package():
    result = subprocess.run(
        ["ruff", "check", "--select", "F", "src/repro/analysis"],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_clean_on_strict_packages():
    result = subprocess.run(
        [sys.executable, "-m", "mypy", "src/repro/analysis",
         "src/repro/errors.py", "src/repro/types.py"],
        cwd=REPO, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
