"""Verification records, formula dispatch, caching and exit statuses."""

from __future__ import annotations

import csv
import dataclasses
import io
import json

import pytest

from tdcolor import families as fam
from tdcolor import harness, solvers
from tdcolor.expr import parse_expr
from tdcolor.formulas import formula_for_spec
from tdcolor.harness import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_REFUTED,
    OracleMismatchError,
    SuiteConfig,
    VerificationRecord,
    default_suite,
    render_csv,
    run_suite,
    verify_instance,
)
from tdcolor.solvers import SolveOptions


class TestFormulaDispatch:
    def test_path(self):
        result = formula_for_spec(fam.Path(7))
        assert (result.value, result.theorem_tag) == (5, "path")

    def test_path_below_domain(self):
        assert formula_for_spec(fam.Path(1)) is None

    def test_corona_pendant_cases(self):
        assert formula_for_spec(fam.Corona(fam.Path(5), fam.Complete(1))).theorem_tag == "corona-path-pendant"
        assert formula_for_spec(fam.Corona(fam.Cycle(3), fam.Complete(1))).theorem_tag == "corona-cycle-pendant"
        assert formula_for_spec(fam.Corona(fam.Complete(4), fam.Complete(1))).theorem_tag == "corona-pendant"
        assert formula_for_spec(fam.Corona(fam.Path(3), fam.Empty(2))).theorem_tag == "corona-path-empty"

    def test_corona_sharpness_instances(self):
        a = formula_for_spec(fam.Corona(fam.Cycle(4), fam.Complete(2)))
        b = formula_for_spec(fam.Corona(fam.Complete(2), fam.Complete(3)))
        assert (a.value, a.theorem_tag) == (6, "corona-sharpness")
        assert (b.value, b.theorem_tag) == (5, "corona-sharpness")

    def test_corona_without_formula(self):
        assert formula_for_spec(fam.Corona(fam.Cycle(5), fam.Complete(2))) is None
        assert formula_for_spec(fam.Corona(fam.Empty(3), fam.Complete(1))) is None

    def test_join_uses_component_values(self):
        spec = fam.Join(fam.Path(3), fam.Complete(3))
        result = formula_for_spec(spec, harness._factor_solver(None))
        assert (result.value, result.theorem_tag) == (5, "join")

    def test_join_with_undefined_component(self):
        spec = fam.Join(fam.Complete(1), fam.Path(3))
        assert formula_for_spec(spec, harness._factor_solver(None)) is None

    def test_friendship_out_of_domain(self):
        assert formula_for_spec(fam.Friendship(6, 2)) is None
        assert formula_for_spec(fam.Friendship(3, 1)) is None

    def test_no_formula_for_plain_products(self):
        assert formula_for_spec(fam.Cart(fam.Path(3), fam.Path(3))) is None
        assert formula_for_spec(fam.Complete(5)) is None


class TestVerifyInstance:
    def test_confirmed_path(self):
        rec = verify_instance("P(7)")
        assert (rec.formula_value, rec.solver_value, rec.match) == (5, 5, "confirmed")
        assert rec.oracle_value == 5
        assert rec.witness is not None

    def test_confirmed_friendship(self):
        rec = verify_instance("F(2)")
        assert (rec.formula_value, rec.solver_value, rec.match) == (3, 3, "confirmed")

    def test_grid_record_complete(self):
        rec = verify_instance("G(3,3)")
        assert rec.formula_value == 6
        assert rec.solver_value is not None
        assert rec.match in ("confirmed", "refuted")
        assert rec.match == ("confirmed" if rec.formula_value == rec.solver_value else "refuted")

    def test_no_formula_instance_is_unknown(self):
        rec = verify_instance("cart(P(3),P(3))")
        assert rec.formula_value is None
        assert rec.solver_value is not None
        assert rec.match == "unknown"

    def test_budget_exhaustion_yields_unknown(self):
        rec = verify_instance("G(3,3)", opts=SolveOptions(node_budget=5))
        assert rec.solver_value is None
        assert rec.witness is None
        assert rec.match == "unknown"

    def test_oracle_out_of_budget(self, tmp_path):
        # G(4,5) at cap 20: the TD solve takes 102 nodes and the oracle runs
        # out of the 5,000; the record keeps the solver's value, has no oracle
        # value, and is not cached. The form (11) is refuted, so exit 3
        rec = verify_instance("G(4,5)", opts=SolveOptions(node_budget=5_000), oracle_cap=20)
        assert (rec.solver_value, rec.oracle_value, rec.match) == (10, None, "refuted")
        assert harness._budget_cut(rec, 20)
        config = SuiteConfig(
            instances=("G(4,5)",), node_budget=5_000, oracle_cap=20, cache_dir=str(tmp_path)
        )
        report = run_suite(config)
        assert report.records == (dataclasses.replace(rec, elapsed=report.records[0].elapsed),)
        assert report.exit_code == EXIT_REFUTED
        assert not (tmp_path / "records.jsonl").exists()

    def test_oracle_out_of_budget_exit_four(self, tmp_path):
        # P(10): the TD solve takes 42 nodes, the oracle 77 partial partitions
        config = SuiteConfig(instances=("P(10)",), node_budget=50, cache_dir=str(tmp_path))
        report = run_suite(config)
        assert (report.records[0].solver_value, report.records[0].oracle_value) == (7, None)
        assert report.exit_code == EXIT_BUDGET
        assert report.table.endswith("exit status 4\n")
        assert not (tmp_path / "records.jsonl").exists()
        report = run_suite(dataclasses.replace(config, node_budget=77))
        assert (report.records[0].oracle_value, report.exit_code) == (7, EXIT_OK)

    def test_oracle_skipped_above_cap(self):
        rec = verify_instance("P(12)")
        assert rec.oracle_value is None

    def test_oracle_mismatch_is_fatal(self, monkeypatch):
        real = solvers.td_chromatic_oracle

        def wrong_oracle(g, cap=10, opts=None):
            res = real(g, cap=cap, opts=opts)
            return type(res)(
                res.value + 1, res.witness, res.nodes_explored, res.elapsed, 1, res.value + 1
            )

        monkeypatch.setattr(solvers, "td_chromatic_oracle", wrong_oracle)
        with pytest.raises(OracleMismatchError):
            verify_instance("P(4)")

    @pytest.mark.parametrize(
        "text,budget,cap,form",
        [
            ("P(7)", None, 10, ("path", 5)),
            ("G(4,5)", 5_000, 20, ("grid", 11)),
            # G(3,20) runs out of the budget as a join factor (T(20) solves
            # in it, and T(30) in 811 nodes since the counting bound), so the
            # form is cut off
            ("join(G(3,20),K(3))", 5_000, 10, ("join", None)),
        ],
    )
    def test_record_is_the_suite_record(self, text, budget, cap, form):
        rec = verify_instance(text, opts=SolveOptions(node_budget=budget), oracle_cap=cap)
        config = SuiteConfig(instances=(text,), node_budget=budget, oracle_cap=cap)
        (suite_rec,) = run_suite(config).records
        assert (rec.theorem_tag, rec.formula_value) == form
        assert rec == dataclasses.replace(suite_rec, elapsed=rec.elapsed)
        again = verify_instance(parse_expr(text), opts=SolveOptions(node_budget=budget), oracle_cap=cap)
        assert again == dataclasses.replace(rec, elapsed=again.elapsed)

    def test_oracle_cap_below_two_rejected(self):
        with pytest.raises(ValueError, match="^oracle cap must be >= 2$"):
            verify_instance("P(4)", oracle_cap=1)

    def test_spec_text_is_canonical(self):
        rec = verify_instance("  d( 3 , 2 ) ")
        assert rec.spec_text == "F(2)"


class TestRecordsJson:
    def test_round_trip(self):
        rec = verify_instance("P(4)")
        again = VerificationRecord.from_dict(json.loads(rec.to_json()))
        assert again == rec

    def test_json_fields(self):
        data = json.loads(verify_instance("P(4)").to_json())
        assert set(data) == {
            "schema_version",
            "spec_text",
            "vertex_count",
            "formula_value",
            "theorem_tag",
            "solver_value",
            "oracle_value",
            "match",
            "elapsed",
            "witness",
        }


class TestSuite:
    CONFIRMED = ("P(4)", "C(6)", "F(2)", "L(2)")

    def test_all_confirmed_exit_zero(self, tmp_path):
        config = SuiteConfig(instances=self.CONFIRMED)
        report = run_suite(config)
        assert report.exit_code == EXIT_OK
        assert all(r.match == "confirmed" for r in report.records)

    def test_refuted_exit_three(self):
        report = run_suite(SuiteConfig(instances=("P(4)", "join(P(4),P(4))")))
        assert report.exit_code == EXIT_REFUTED

    def test_budget_exhausted_exit_four(self):
        report = run_suite(SuiteConfig(instances=("G(3,3)",), node_budget=5))
        assert report.exit_code == EXIT_BUDGET

    def test_records_sorted_and_deduplicated(self):
        report = run_suite(SuiteConfig(instances=("P(4)", "C(6)", "P(4)")))
        texts = [r.spec_text for r in report.records]
        assert texts == sorted(texts)
        assert len(texts) == 2

    def test_warm_cache_reproduces_report(self, tmp_path):
        config = SuiteConfig(
            instances=self.CONFIRMED,
            cache_dir=str(tmp_path / "cache"),
            report_path=str(tmp_path / "report.txt"),
            jsonl_path=str(tmp_path / "records.jsonl"),
            csv_path=str(tmp_path / "records.csv"),
        )
        run_suite(config)
        cold = [(tmp_path / name).read_bytes() for name in ("report.txt", "records.jsonl", "records.csv")]
        run_suite(config)
        warm = [(tmp_path / name).read_bytes() for name in ("report.txt", "records.jsonl", "records.csv")]
        assert warm == cold

    def test_cache_hits_skip_solving(self, tmp_path, monkeypatch):
        config = SuiteConfig(instances=("P(4)",), cache_dir=str(tmp_path))
        run_suite(config)

        def boom(*args, **kwargs):
            raise AssertionError("solver called on a warm cache")

        monkeypatch.setattr(solvers, "td_chromatic_number", boom)
        report = run_suite(config)
        assert report.records[0].solver_value == 3

    def test_cache_keeps_old_lines_and_adds_fresh_ones(self, tmp_path):
        run_suite(SuiteConfig(instances=("P(4)",), cache_dir=str(tmp_path)))
        path = tmp_path / "records.jsonl"
        first = path.read_bytes()
        run_suite(SuiteConfig(instances=("P(4)", "C(6)"), cache_dir=str(tmp_path)))
        lines = path.read_bytes().splitlines(keepends=True)
        assert len(lines) == 2 and lines[0] == first
        assert [f.name for f in tmp_path.iterdir()] == ["records.jsonl"]

    def test_unknown_not_cached(self, tmp_path):
        config = SuiteConfig(instances=("P(12)",), node_budget=10, cache_dir=str(tmp_path))
        assert run_suite(config).exit_code == EXIT_BUDGET
        assert not (tmp_path / "records.jsonl").exists()
        report = run_suite(dataclasses.replace(config, node_budget=10**8))
        assert report.records[0].solver_value == 8
        assert report.exit_code == EXIT_OK

    def test_cached_unknown_is_recomputed(self, tmp_path):
        config = SuiteConfig(instances=("P(12)",), cache_dir=str(tmp_path))
        run_suite(config)
        # replace the stored row by a budget-exhausted one under the same key,
        # as an earlier version of the cache wrote them
        path = tmp_path / "records.jsonl"
        entry = json.loads(path.read_text(encoding="utf-8"))
        stale = verify_instance("P(12)", opts=SolveOptions(node_budget=10))
        entry["record"] = json.loads(stale.to_json())
        path.write_text(json.dumps(entry) + "\n", encoding="utf-8")
        report = run_suite(config)
        assert report.records[0].solver_value == 8
        assert report.exit_code == EXIT_OK

    def test_older_solver_version_is_a_miss(self, tmp_path, monkeypatch):
        # version "3" searched upward from max(chi, gamma_t) and gave C(6) the
        # witness (1, 2, 3, 4, 3, 4); a line keyed under "3" must not replay it
        config = SuiteConfig(instances=("C(6)",), cache_dir=str(tmp_path))
        run_suite(config)
        path = tmp_path / "records.jsonl"
        entry = json.loads(path.read_text(encoding="utf-8"))
        prefix, version, cap = entry["key"].rsplit("|", 2)
        assert version == solvers.SOLVER_VERSION == "6"
        entry["key"] = f"{prefix}|3|{cap}"
        entry["record"]["witness"] = [1, 2, 3, 4, 3, 4]
        old = json.dumps(entry)
        path.write_text(old + "\n", encoding="utf-8")
        solved: list[int] = []
        td_chromatic_number = solvers.td_chromatic_number

        def counting(g, opts=None):
            solved.append(g.vertex_count)
            return td_chromatic_number(g, opts)

        monkeypatch.setattr(solvers, "td_chromatic_number", counting)
        report = run_suite(config)
        assert solved == [6]
        assert report.records[0].witness == (1, 2, 1, 2, 3, 4)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == old and len(lines) == 2

    def test_malformed_cache_lines_skipped(self, tmp_path):
        config = SuiteConfig(instances=("P(4)", "C(6)"), cache_dir=str(tmp_path))
        cold = run_suite(config)
        path = tmp_path / "records.jsonl"
        good = path.read_text(encoding="utf-8")
        path.write_text(
            '[1]\n{"key": "x"}\n{"record": {}}\n' + good + '{"key": "y", "rec',
            encoding="utf-8",
        )
        report = run_suite(config)
        assert (report.skipped_cache_lines, report.rejected_cache_records) == (4, 0)
        assert report.records == cold.records  # both rows replayed
        assert run_suite(dataclasses.replace(config, cache_dir=None)).skipped_cache_lines == 0
        # the malformed lines were dropped and the valid ones kept as they were
        assert path.read_text(encoding="utf-8") == good
        assert run_suite(config).skipped_cache_lines == 0
        # a damaged P(4) record parses but fails the re-check: it is counted
        # as rejected, not malformed, dropped and solved again
        p4, c6 = good.splitlines()
        entry = json.loads(p4)
        assert entry["record"]["spec_text"] == "P(4)"
        damages = [
            {"solver_value": 2, "witness": [1, 1, 1, 1]},  # not a TD-coloring
            {"solver_value": 4, "oracle_value": 4},  # the witness has 3 colors
            {"oracle_value": 4},  # the oracle disagrees
            {"vertex_count": 5},
            {"witness": [1, 2, 3]},
            {"witness": None},
            {"match": "refuted"},  # not what the values give
            {"formula_value": 4, "match": "refuted"},  # not what the form gives
            {"theorem_tag": None, "formula_value": None, "match": "unknown"},
        ]
        for damage in damages:
            damaged = json.dumps({**entry, "record": {**entry["record"], **damage}})
            path.write_text(damaged + "\n" + c6 + "\n", encoding="utf-8")
            report = run_suite(config)
            assert (report.skipped_cache_lines, report.rejected_cache_records) == (0, 1)
            assert [dataclasses.replace(r, elapsed=0) for r in report.records] == [
                dataclasses.replace(r, elapsed=0) for r in cold.records
            ]
            lines = path.read_text(encoding="utf-8").splitlines()
            assert lines[0] == c6 and json.loads(lines[1])["record"]["solver_value"] == 3
            again = run_suite(config)
            assert (again.skipped_cache_lines, again.rejected_cache_records) == (0, 0)

    def test_blanked_oracle_value_not_replayed(self, tmp_path, monkeypatch):
        # P(4) lies within the oracle cap, so its record must carry the
        # oracle value; a hit with it set to null must not replay as "-"
        config = SuiteConfig(instances=("P(4)",), cache_dir=str(tmp_path))
        run_suite(config)
        path = tmp_path / "records.jsonl"
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["record"]["oracle_value"] = None
        path.write_text(json.dumps(entry) + "\n", encoding="utf-8")
        solved: list[int] = []
        td_chromatic_number = solvers.td_chromatic_number

        def counting(g, opts=None):
            solved.append(g.vertex_count)
            return td_chromatic_number(g, opts)

        monkeypatch.setattr(solvers, "td_chromatic_number", counting)
        report = run_suite(config)
        assert (report.skipped_cache_lines, report.rejected_cache_records) == (0, 1)
        assert solved == [4]
        assert report.records[0].oracle_value == 3
        (row,) = [line for line in report.table.splitlines() if line.startswith("P(4)")]
        assert row.split()[:5] == ["P(4)", "4", "3", "3", "3"]

    def test_oracle_value_past_the_cap_not_replayed(self, tmp_path):
        # P(11) lies past the default cap of 10: no oracle ran, so a stored
        # oracle value, even the right one, is an edit
        config = SuiteConfig(instances=("P(11)",), cache_dir=str(tmp_path))
        run_suite(config)
        path = tmp_path / "records.jsonl"
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["record"]["oracle_value"] = 7
        path.write_text(json.dumps(entry) + "\n", encoding="utf-8")
        report = run_suite(config)
        assert report.rejected_cache_records == 1
        assert report.records[0].oracle_value is None

    def test_non_utf8_cache_line_skipped(self, tmp_path):
        config = SuiteConfig(instances=("P(4)",), cache_dir=str(tmp_path))
        cold = run_suite(config)
        path = tmp_path / "records.jsonl"
        good = path.read_bytes()
        path.write_bytes(b"\xff\xfe garbage\n" + good)
        report = run_suite(config)
        assert report.skipped_cache_lines == 1
        assert report.records == cold.records  # the valid row replayed
        assert path.read_bytes() == good

    def test_budget_cut_factor_solved_once(self, tmp_path, monkeypatch):
        solved: list[int] = []
        td_chromatic_number = solvers.td_chromatic_number

        def counting(g, opts=None):
            solved.append(g.vertex_count)
            return td_chromatic_number(g, opts)

        monkeypatch.setattr(solvers, "td_chromatic_number", counting)
        texts = ("join(G(3,20),K(3))", "join(G(3,20),P(3))", "join(G(3,20),C(5))")
        config = SuiteConfig(instances=texts, node_budget=5000, cache_dir=str(tmp_path))
        report = run_suite(config)
        # G(3,20) (60 vertices, 6,195 nodes; 6,231 before the total-domination
        # search ran once per covering part, 7,617 before the lex-leader cut)
        # runs out of budget once; the
        # three joins (3-8 nodes each) reuse that outcome. T(16) served here
        # until the new-color-first order solved it in 2,614 nodes, T(20)
        # until testing the idle-class cap before a node is spent solved it in
        # 3,350, and T(30) (solved [61, 64, 64, 66]) until the counting bound
        # solved it in 811
        assert solved == [60, 63, 63, 65]
        assert [(r.theorem_tag, r.formula_value) for r in report.records] == [("join", None)] * 3
        assert report.exit_code == EXIT_BUDGET
        assert not (tmp_path / "records.jsonl").exists()

    def test_each_labeled_graph_solved_once(self, monkeypatch):
        solved: list[int] = []
        td_chromatic_number = solvers.td_chromatic_number

        def counting(g, opts=None):
            solved.append(g.vertex_count)
            return td_chromatic_number(g, opts)

        monkeypatch.setattr(solvers, "td_chromatic_number", counting)
        texts = ("P(4)", "join(P(4),P(2))", "C(3)", "T(1)")
        report = run_suite(SuiteConfig(instances=texts))
        # the join reads the instance P(4)'s solve and solves P(2) once as a
        # factor; T(1) is the same labeled graph as C(3)
        assert solved == [4, 2, 6, 3]
        assert [(r.spec_text, r.formula_value, r.solver_value) for r in report.records] == [
            ("C(3)", 3, 3),
            ("P(4)", 3, 3),
            ("T(1)", 3, 3),
            ("join(P(4),P(2))", 5, 4),
        ]

    def test_cache_key_includes_oracle_cap(self, tmp_path):
        config = SuiteConfig(instances=("P(11)",), cache_dir=str(tmp_path))
        assert run_suite(config).records[0].oracle_value is None
        wider = run_suite(dataclasses.replace(config, oracle_cap=11))
        assert wider.records[0].oracle_value == 7

    def test_table_mentions_groups(self):
        report = run_suite(SuiteConfig(instances=("P(4)", "cart(P(3),P(3))")))
        assert "== path" in report.table
        assert "(no formula)" in report.table
        assert "exit status" in report.table

    def test_csv_shape(self):
        report = run_suite(SuiteConfig(instances=("P(4)",)))
        lines = render_csv(report.records).splitlines()
        assert lines[0].startswith("spec_text,")
        assert len(lines) == 2

    def test_csv_round_trip_with_commas(self):
        texts = ("G(3,3)", "join(P(2),P(3))", "P(4)")
        report = run_suite(SuiteConfig(instances=texts))
        rows = list(csv.DictReader(io.StringIO(render_csv(report.records))))
        assert sorted(row["spec_text"] for row in rows) == sorted(texts)
        assert all(len(row) == 8 and None not in row for row in rows)

    def test_solved_rows_cached_when_a_later_instance_raises(self, tmp_path, monkeypatch):
        with pytest.raises(ValueError):
            run_suite(SuiteConfig(instances=("P(4)", "C(5)", "E(3)"), cache_dir=str(tmp_path)))
        assert len((tmp_path / "records.jsonl").read_text(encoding="utf-8").splitlines()) == 2

        def boom(*args, **kwargs):
            raise AssertionError("solver called on a warm cache")

        monkeypatch.setattr(solvers, "td_chromatic_number", boom)
        report = run_suite(SuiteConfig(instances=("P(4)", "C(5)"), cache_dir=str(tmp_path)))
        assert [r.solver_value for r in report.records] == [4, 3]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SuiteConfig(instances=())
        with pytest.raises(ValueError):
            SuiteConfig(instances=("P(4)",), oracle_cap=1)
        with pytest.raises(ValueError, match="unknown suite config"):
            SuiteConfig.from_dict({"instances": ["P(4)"], "bogus": 1})
        # a wall-clock budget is not an option: a file that sets one fails, not runs unlimited
        with pytest.raises(ValueError, match="unknown suite config"):
            SuiteConfig.from_dict({"instances": ["P(4)"], "time_budget": 5})

    @pytest.mark.parametrize("key", ["node_budget"])
    def test_budget_validation(self, key):
        with pytest.raises(ValueError, match=f"^{key} must be positive$"):
            SuiteConfig.from_dict({"instances": ["P(4)"], key: 0})

    def test_default_suite_contents(self):
        config = default_suite()
        assert "G(4,4)" in config.instances
        assert "join(P(4),C(5))" in config.instances
        assert "corona(C(4),K(2))" in config.instances
        assert config.node_budget == 10**8


class TestSharpness:
    def test_rows(self):
        texts = ["corona(C(4),K(2))", "corona(K(2),K(3))", "corona(P(2),K(1))"]
        rows = {r.spec_text: r for r in map(verify_instance, texts)}
        c4k2 = rows["corona(C(4),K(2))"]
        k2k3 = rows["corona(K(2),K(3))"]
        assert (c4k2.solver_value, c4k2.formula_value, c4k2.match) == (6, 6, "confirmed")
        assert (k2k3.solver_value, k2k3.formula_value, k2k3.match) == (5, 5, "confirmed")
        pendant = rows["corona(P(2),K(1))"]
        assert (pendant.solver_value, pendant.match) == (3, "confirmed")


class TestCoronaBoundInequalities:
    @pytest.mark.parametrize(
        "left,right",
        [
            (fam.Cycle(4), fam.Complete(2)),
            (fam.Complete(2), fam.Complete(3)),
            (fam.Path(3), fam.Path(2)),
            (fam.Cycle(3), fam.Path(3)),
        ],
    )
    def test_solver_within_both_bounds(self, left, right):
        g = fam.realize(left)
        h = fam.realize(right)
        chi_g = solvers.td_chromatic_number(g).value
        chi_h = solvers.td_chromatic_number(h).value
        value = solvers.td_chromatic_number(fam.corona(g, h)).value
        assert value <= chi_g + g.vertex_count * chi_h
        assert value <= g.vertex_count + h.vertex_count
