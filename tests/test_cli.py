"""Command-line interface: commands, output formats and exit codes."""

from __future__ import annotations

import json

import pytest

from tdcolor.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuild:
    def test_dimacs_output(self, capsys):
        code, out, _ = run(capsys, "build", "P(3)")
        assert code == 0
        assert out == "p edge 3 2\ne 1 2\ne 2 3\n"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "build", "C(4)", "--out", "json")
        assert code == 0
        data = json.loads(out)
        assert data["vertex_count"] == 4
        assert len(data["edges"]) == 4

    def test_parse_error_exit_one(self, capsys):
        code, _, err = run(capsys, "build", "P(")
        assert code == 1
        assert "offset" in err


class TestSolve:
    def test_td_chromatic_default(self, capsys):
        code, out, _ = run(capsys, "solve", "P(4)")
        assert code == 0
        assert "value 3" in out

    def test_chromatic(self, capsys):
        code, out, _ = run(capsys, "solve", "K(4)", "--what", "chromatic")
        assert code == 0
        assert "value 4" in out

    def test_total_domination(self, capsys):
        code, out, _ = run(capsys, "solve", "C(6)", "--what", "totaldom")
        assert code == 0
        assert "value 4" in out

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "solve", "P(4)", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["value"] == 3
        assert data["what"] == "tdchromatic"
        assert len(data["witness"]) == 4

    def test_budget_exhausted_exit_four(self, capsys):
        code, _, err = run(capsys, "solve", "G(4,4)", "--budget", "10")
        assert code == 4
        assert "budget" in err

    def test_zero_budget_rejected(self, capsys):
        code, out, err = run(capsys, "solve", "P(4)", "--budget", "0")
        assert code == 1
        assert out == ""
        assert "error: node_budget must be positive" in err

    def test_dimacs_input(self, capsys, tmp_path):
        path = tmp_path / "g.col"
        path.write_text("p edge 4 3\ne 1 2\ne 2 3\ne 3 4\n", encoding="utf-8")
        code, out, _ = run(capsys, "solve", "--dimacs", str(path))
        assert code == 0
        assert "value 3" in out

    def test_missing_input(self, capsys):
        code, _, err = run(capsys, "solve")
        assert code == 1
        assert "required" in err


class TestFormula:
    def test_grid(self, capsys):
        code, out, _ = run(capsys, "formula", "G(3,3)")
        assert code == 0
        assert "value 6" in out
        assert "tag grid" in out

    def test_no_formula(self, capsys):
        code, out, _ = run(capsys, "formula", "D(6,2)")
        assert code == 0
        assert "no formula applies" in out

    def test_join_formula_solves_components(self, capsys):
        code, out, _ = run(capsys, "formula", "join(P(3),K(3))")
        assert code == 0
        assert "value 5" in out


class TestBounds:
    def test_cycle6(self, capsys):
        code, out, _ = run(capsys, "bounds", "C(6)")
        assert code == 0
        assert "bounds [4, 6]" in out

    def test_isolated_rejected(self, capsys):
        code, _, err = run(capsys, "bounds", "E(3)")
        assert code == 1
        assert "isolated" in err


class TestVerify:
    def test_small_suite(self, capsys, tmp_path):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"instances": ["P(4)", "C(6)"]}), encoding="utf-8")
        code, out, _ = run(capsys, "verify", "--suite", str(suite))
        assert code == 0
        assert "confirmed 2" in out

    def test_report_and_cache_written(self, capsys, tmp_path):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"instances": ["P(4)", "F(2)"]}), encoding="utf-8")
        report = tmp_path / "report.txt"
        code, out, _ = run(
            capsys,
            "verify",
            "--suite",
            str(suite),
            "--cache",
            str(tmp_path / "cache"),
            "--report",
            str(report),
        )
        assert code == 0
        assert report.read_text(encoding="utf-8") == out
        jsonl = (tmp_path / "report.txt.jsonl").read_text(encoding="utf-8")
        assert len(jsonl.splitlines()) == 2
        assert (tmp_path / "cache" / "records.jsonl").exists()

    def test_refuted_suite_exit_three(self, capsys, tmp_path):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"instances": ["join(P(4),P(4))"]}), encoding="utf-8")
        code, out, _ = run(capsys, "verify", "--suite", str(suite))
        assert code == 3
        assert "refuted 1" in out

    def test_budget_cut_join_formula_sequence(self, capsys, tmp_path):
        # within 5000 nodes the solver finishes the join, but the formula's
        # solve of its factor P(16) does not
        cut = tmp_path / "cut.json"
        cut.write_text(
            json.dumps({"instances": ["join(P(16),K(3))"], "node_budget": 5000}),
            encoding="utf-8",
        )
        full = tmp_path / "full.json"
        full.write_text(json.dumps({"instances": ["join(P(16),K(3))"]}), encoding="utf-8")
        cache = str(tmp_path / "cache")
        code, out, _ = run(capsys, "verify", "--suite", str(cut), "--cache", cache)
        assert code == 4
        assert "== join" in out and "(no formula)" not in out
        assert "unknown 1" in out
        assert not (tmp_path / "cache" / "records.jsonl").exists()
        # the cut row was not cached, so the same cache now gives what a run
        # without a cache gives
        for extra in (("--cache", cache), ()):
            code, out, _ = run(capsys, "verify", "--suite", str(full), *extra)
            assert code == 3
            assert "join(P(16),K(3))           19       13       5" in out
            assert "refuted 1" in out

    def test_truncated_cache_line_skipped(self, capsys, tmp_path):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"instances": ["P(4)", "C(6)"]}), encoding="utf-8")
        argv = ("verify", "--suite", str(suite), "--cache", str(tmp_path / "cache"))
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        path = tmp_path / "cache" / "records.jsonl"
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 40])  # cut the last line short
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert err == "warning: skipped 1 malformed cache line(s)\n"
        assert "confirmed 2" in out
        # the recomputed record starts on a line of its own and is replayed
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        assert json.loads(lines[2])["record"]["spec_text"] in ("P(4)", "C(6)")

    def test_unreadable_suite_exit_one(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "--suite", str(tmp_path / "missing.json"))
        assert code == 1


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
