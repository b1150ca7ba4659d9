"""Verification records, formula dispatch, caching and exit statuses."""

from __future__ import annotations

import dataclasses
import json

import pytest

from tdcolor import families as fam
from tdcolor import harness, solvers
from tdcolor.formulas import corona_upper_bounds
from tdcolor.harness import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_REFUTED,
    OracleMismatchError,
    SuiteConfig,
    VerificationRecord,
    default_suite,
    formula_for_spec,
    render_csv,
    run_suite,
    sharpness_check,
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
        result = formula_for_spec(fam.Join(fam.Path(3), fam.Complete(3)))
        assert (result.value, result.theorem_tag) == (5, "join")

    def test_join_with_undefined_component(self):
        assert formula_for_spec(fam.Join(fam.Complete(1), fam.Path(3))) is None

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

    def test_oracle_skipped_above_cap(self):
        rec = verify_instance("P(12)")
        assert rec.oracle_value is None

    def test_oracle_mismatch_is_fatal(self, monkeypatch):
        real = solvers.td_chromatic_oracle

        def wrong_oracle(g, cap=10):
            res = real(g, cap=cap)
            return type(res)(
                res.value + 1, res.witness, res.nodes_explored, res.elapsed, 1, res.value + 1
            )

        monkeypatch.setattr(solvers, "td_chromatic_oracle", wrong_oracle)
        with pytest.raises(OracleMismatchError):
            verify_instance("P(4)")

    def test_spec_text_is_canonical(self):
        rec = verify_instance("  d( 3 , 2 ) ")
        assert rec.spec_text == "F(2)"


class TestRecordsJson:
    def test_round_trip(self):
        rec = verify_instance("P(4)")
        again = VerificationRecord.from_json(rec.to_json())
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
        assert report.skipped_cache_lines == 4
        assert report.records == cold.records  # both rows replayed
        assert run_suite(dataclasses.replace(config, cache_dir=None)).skipped_cache_lines == 0

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

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SuiteConfig(instances=())
        with pytest.raises(ValueError):
            SuiteConfig(instances=("P(4)",), oracle_cap=1)
        with pytest.raises(ValueError, match="unknown suite config"):
            SuiteConfig.from_dict({"instances": ["P(4)"], "bogus": 1})

    def test_default_suite_contents(self):
        config = default_suite()
        assert "G(4,4)" in config.instances
        assert "join(P(4),C(5))" in config.instances
        assert "corona(C(4),K(2))" in config.instances
        assert config.node_budget == 10**8


class TestSharpness:
    def test_rows(self):
        rows = {r.spec_text: r for r in sharpness_check()}
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
        bounds = corona_upper_bounds(chi_g, g.vertex_count, chi_h, h.vertex_count)
        value = solvers.td_chromatic_number(fam.corona(g, h)).value
        assert value <= min(bounds.bounds)
