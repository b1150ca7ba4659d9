"""Command-line interface: commands, output formats and exit codes."""

from __future__ import annotations

import json
import re

import pytest

from tdcolor import (
    Coloring,
    is_proper,
    is_td_coloring,
    is_total_dominating_set,
    parse_expr,
    realize,
)
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

    @pytest.mark.parametrize(
        "what, expr, value, checks, size",
        [
            ("tdchromatic", "P(7)", 5, lambda g, w: is_td_coloring(g, Coloring(w)), set),
            ("chromatic", "C(9)", 3, lambda g, w: is_proper(g, Coloring(w)), set),
            ("totaldom", "C(6)", 4, is_total_dominating_set, tuple),
        ],
    )
    def test_json_witness_rechecks(self, capsys, what, expr, value, checks, size):
        code, out, _ = run(capsys, "solve", expr, "--what", what, "--json")
        assert code == 0
        data = json.loads(out)
        assert (data["what"], data["value"]) == (what, value)
        witness = tuple(data["witness"])
        assert checks(realize(parse_expr(expr)), witness)
        assert len(size(witness)) == value  # classes of a coloring, members of a set

    def test_json_chromatic_bounds_of_an_odd_cycle(self, capsys):
        # the DSATUR greedy's 3 colors certify an odd cycle, so no round runs;
        # before, the clique bound was 2 and the k = 2 round spent 1 node
        code, out, _ = run(capsys, "solve", "C(11)", "--what", "chromatic", "--json")
        assert code == 0
        data = json.loads(out)
        assert (data["value"], data["lower_bound_used"], data["upper_bound_used"]) == (3, 3, 3)
        assert data["nodes_explored"] == 0

    def test_budget_exhausted_exit_four(self, capsys):
        code, _, err = run(capsys, "solve", "G(4,4)", "--budget", "10")
        assert code == 4
        assert "budget" in err

    def test_zero_budget_rejected(self, capsys):
        code, out, err = run(capsys, "solve", "P(4)", "--budget", "0")
        assert code == 1
        assert out == ""
        assert "error: node_budget must be positive" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("C(2101)",),
            ("join(C(1001),C(1001))", "--what", "chromatic"),
            ("C(3001)", "--what", "totaldom"),
        ],
    )
    def test_search_past_recursion_limit_exit_four(self, capsys, argv):
        # the searches recurse once per vertex or pick; no traceback, no
        # answer. C(1501) took this path until forced-color propagation cut
        # its chromatic round after one node, and P(2100) and P(3000)
        # --what totaldom until the total-domination search ran once per
        # covering part, each half as deep; an odd cycle has one part
        code, out, err = run(capsys, "solve", *argv)
        assert code == 4
        assert out == ""
        assert err == "error: search too deep for the recursion limit; no answer\n"

    def test_path_once_past_recursion_limit_answers(self, capsys):
        # exit 4 until the total-domination search ran once per covering
        # part: a path's two parts each need 525 picks, not 1,050 in one
        code, out, err = run(capsys, "solve", "P(2100)")
        assert code == 0
        assert out.startswith("value 1052\n")
        assert err == ""

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

    def test_join_factor_within_budget(self, capsys):
        code, out, _ = run(capsys, "formula", "join(P(3),K(3))", "--budget", "5000")
        assert code == 0
        assert "value 5" in out

    def test_join_factor_budget_exhausted_exit_four(self, capsys):
        # G(3,20) takes 6,195 nodes, more than the budget (6,231 before the
        # total-domination search ran once per covering part, and 7,617
        # before the lex-leader cut). T(20) served here
        # until testing the idle-class cap before a node is spent solved it
        # in 3,350 nodes, and T(30) (19,326 nodes) until the counting bound
        # ruled out its UNSAT round and it solved in 811
        code, out, err = run(capsys, "formula", "join(G(3,20),K(3))", "--budget", "5000")
        assert code == 4
        assert out == ""
        assert "error: node budget exhausted" in err

    def test_zero_budget_rejected(self, capsys):
        code, out, err = run(capsys, "formula", "G(3,3)", "--budget", "0")
        assert code == 1
        assert out == ""
        assert "error: node_budget must be positive" in err


class TestBounds:
    def test_cycle6(self, capsys):
        code, out, _ = run(capsys, "bounds", "C(6)")
        assert code == 0
        assert "bounds [4, 6]" in out

    def test_isolated_rejected(self, capsys):
        code, _, err = run(capsys, "bounds", "E(3)")
        assert code == 1
        assert "isolated" in err

    def test_zero_budget_rejected(self, capsys):
        code, out, err = run(capsys, "bounds", "C(6)", "--budget", "0")
        assert code == 1
        assert out == ""
        assert "error: node_budget must be positive" in err

    def test_budget_exhausted_exit_four(self, capsys):
        # one budget for both searches; T(36) needs more (3,706 nodes).
        # G(10,10) served here until the total-domination search ran once
        # per covering part and it took 219 nodes, not 24,441
        code, out, err = run(capsys, "bounds", "T(36)", "--budget", "1000")
        assert code == 4
        assert out == ""
        assert "error: node budget exhausted" in err

    @pytest.mark.parametrize("expr", ["E(0)", "P(1)"])
    def test_too_small_rejected_like_solve(self, capsys, expr):
        for command in ("bounds", "solve"):
            code, out, err = run(capsys, command, expr)
            assert (code, out) == (1, "")
            assert err == "error: TD-coloring needs at least 2 vertices\n"

    def test_one_budget_for_both_searches(self, capsys):
        # join(C(5),E(2)) spends 2 nodes on chi and 2 on gamma_t, 4 in all, so
        # a budget that covers chi alone runs out in gamma_t. C(11) served
        # here (1 node on chi, 6 on gamma_t; budgets 4 and 6 exited 4 and 7
        # answered) until the odd-cycle bound closed its chi phase at 0 nodes
        for budget in ("1", "3"):
            code, out, err = run(capsys, "bounds", "join(C(5),E(2))", "--budget", budget)
            assert (code, out) == (4, "")
            assert "error: node budget exhausted" in err
        code, out, _ = run(capsys, "bounds", "join(C(5),E(2))", "--budget", "4")
        assert (code, out) == (0, "bounds [4, 6]\n")


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
        # within 5000 nodes the solver finishes the join (3 nodes), but the
        # formula's solve of its factor G(3,20) (6,195 nodes; 6,231 before
        # the total-domination search ran once per covering part, and 7,617
        # before the lex-leader cut) does not; T(16)
        # served here until the new-color-first order solved it in 2,614
        # nodes, T(20) until testing the idle-class cap before a node is
        # spent solved it in 3,350, and T(30) (row "join(T(30),K(3)) 64 25
        # 6") until the counting bound ruled out its UNSAT round and it
        # solved in 811
        cut = tmp_path / "cut.json"
        cut.write_text(
            json.dumps({"instances": ["join(G(3,20),K(3))"], "node_budget": 5000}),
            encoding="utf-8",
        )
        full = tmp_path / "full.json"
        full.write_text(json.dumps({"instances": ["join(G(3,20),K(3))"]}), encoding="utf-8")
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
            assert "join(G(3,20),K(3))         63       25       5" in out
            assert "refuted 1" in out

    def test_edited_refutations_are_not_replayed(self, capsys, tmp_path):
        # mark every refuted row of a default-suite cache confirmed, with the
        # formula value set to the solver's; the forms are recomputed on a
        # hit, so each edited row is rejected, solved again and refuted again
        argv = ("verify", "--cache", str(tmp_path / "cache"))
        code, cold, _ = run(capsys, *argv)
        assert code == 3
        path = tmp_path / "cache" / "records.jsonl"
        entries = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        edited = 0
        for entry in entries:
            rec = entry["record"]
            if rec["match"] == "refuted":
                rec.update(match="confirmed", formula_value=rec["solver_value"])
                edited += 1
        assert edited == 15
        path.write_text("".join(json.dumps(e) + "\n" for e in entries), encoding="utf-8")
        code, warm, err = run(capsys, *argv)
        assert code == 3
        assert err == "warning: re-solved 15 cache record(s) that failed a re-check\n"
        assert "total 79: confirmed 64, refuted 15, unknown 0" in warm

        def rows(table: str) -> list[str]:  # the table without its seconds column
            return [re.sub(r" +\d+\.\d{3}$", "", line) for line in table.splitlines()]

        assert rows(warm) == rows(cold)

    @pytest.mark.parametrize(
        "damage",
        [
            {"spec_text": "P(999)"},
            {"solver_value": 3.0},
            {"oracle_value": 3.0},
            {"solver_value": 3.0, "oracle_value": 3.0},
            {"elapsed": "x"},
        ],
    )
    def test_damaged_record_is_re_solved(self, capsys, tmp_path, damage):
        # a hit replays only if it is, as JSON, the record this run would
        # write from its witness, so a renamed, retyped or unprintable field
        # is solved again, not shown or fatal
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"instances": ["P(4)", "C(6)"]}), encoding="utf-8")
        report = tmp_path / "report.txt"
        argv = ("verify", "--suite", str(suite), "--cache", str(tmp_path / "cache"),
                "--report", str(report))

        def rows() -> list[dict]:  # the JSONL report without elapsed
            lines = (tmp_path / "report.txt.jsonl").read_text(encoding="utf-8").splitlines()
            return [{k: v for k, v in json.loads(x).items() if k != "elapsed"} for x in lines]

        def table(text: str) -> list[str]:  # the table without its seconds column
            return [re.sub(r" +\d+\.\d{3}$", "", line) for line in text.splitlines()]

        code, cold, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        cold_rows = rows()
        path = tmp_path / "cache" / "records.jsonl"
        entries = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        (p4,) = [e for e in entries if e["record"]["spec_text"] == "P(4)"]
        p4["record"].update(damage)
        damaged = "".join(json.dumps(e) + "\n" for e in entries)
        path.write_text(damaged, encoding="utf-8")
        code, warm, err = run(capsys, *argv)
        assert code == 0
        assert err == "warning: re-solved 1 cache record(s) that failed a re-check\n"
        assert table(warm) == table(cold) and rows() == cold_rows
        assert path.read_text(encoding="utf-8") != damaged
        code, again, err = run(capsys, *argv)
        assert (code, err, again) == (0, "", warm)

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
        # the cut line is dropped: the valid line stays byte for byte and the
        # recomputed record follows it
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert lines[0].encode() == data.splitlines()[0]
        assert json.loads(lines[1])["record"]["spec_text"] in ("P(4)", "C(6)")
        # so the next run warns no more and replays both rows as they were
        code, again, err = run(capsys, *argv)
        assert (code, err, again) == (0, "", out)

    def test_unreadable_suite_exit_one(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "--suite", str(tmp_path / "missing.json"))
        assert code == 1

    @pytest.mark.parametrize(
        "config",
        [
            {"instances": ["P(4)"], "node_budget": "100"},
            {"instances": ["P(4)"], "oracle_cap": "10"},
            {"instances": [4]},
            {"instances": ["P(4)"], "cache_dir": 5},
            [{"a": 1}],
            {"instances": ["P(4)"], "node_budget": True},
            {"instances": "P(4)"},
        ],
        ids=[
            "node_budget-string",
            "oracle_cap-string",
            "instance-integer",
            "cache_dir-integer",
            "top-level-list",
            "node_budget-boolean",
            "instances-string",
        ],
    )
    def test_badly_typed_suite_exit_one(self, capsys, tmp_path, config):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps(config), encoding="utf-8")
        code, out, err = run(capsys, "verify", "--suite", str(suite))
        assert code == 1
        assert out == ""
        assert err.startswith("error: suite config")
        assert "Traceback" not in err


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
