import csv
import io

import pytest

from idcodes.bounds import evaluate_bounds
from idcodes.families import is_2corona, path
from idcodes.survey import (
    CSV_COLUMNS,
    BoundViolation,
    SurveyBudgetError,
    SurveySummary,
    _check_tree,
    survey_trees,
)


class TestSurveyTrees:
    def test_n_max_4(self):
        summary = survey_trees(4)
        assert summary.trees_checked == 3  # P_3, P_4, K_{1,3}
        assert summary.violations == 0

    def test_n_max_7_with_csv(self):
        sink = io.StringIO()
        summary = survey_trees(7, out=sink)
        assert summary.trees_checked == 1 + 2 + 3 + 6 + 11
        rows = list(csv.DictReader(io.StringIO(sink.getvalue())))
        assert len(rows) == summary.trees_checked
        assert list(rows[0].keys()) == list(CSV_COLUMNS)
        # P_7 attains floor((n+l)/2); some row records that tightness
        assert any(r["tight_(n+l)/2"] == "1" for r in rows if r["n"] == "7")

    def test_two_corona_counted(self):
        summary = survey_trees(6)
        assert summary.two_coronas == 1  # the 6-vertex path

    def test_range_validation(self):
        with pytest.raises(ValueError):
            survey_trees(2)
        with pytest.raises(ValueError):
            survey_trees(13)
        with pytest.raises(ValueError):
            survey_trees(15, allow_large=True)

    def test_jobs_produce_identical_csv(self):
        solo, multi = io.StringIO(), io.StringIO()
        s1 = survey_trees(6, out=solo, jobs=1)
        s2 = survey_trees(6, out=multi, jobs=2)
        assert solo.getvalue() == multi.getvalue()
        assert s1 == s2

    def test_budget_exhaustion_is_not_a_violation(self):
        with pytest.raises(SurveyBudgetError) as err:
            survey_trees(6, budget=1)
        assert not isinstance(err.value, BoundViolation)
        assert err.value.tree.n == 3  # the first tree surveyed

    def test_summary_json(self):
        summary = survey_trees(5)
        d = summary.to_json_dict()
        assert d["trees_checked"] == 6 and d["violations"] == 0


class TestViolationChannel:
    def test_forged_bound_violation_carries_edge_list(self):
        tree = path(5)
        report = evaluate_bounds(tree, with_exact=True)
        forged = type(report)(
            n=report.n,
            profile=report.profile,
            bounds=report.bounds,
            exact=report.exact + 10,  # impossible value
            witness=report.witness,
            exact_status=report.exact_status,
        )
        with pytest.raises(BoundViolation) as err:
            _check_tree(tree, forged, is_2corona(tree) is not None)
        assert "5 4" in str(err.value)  # the offending edge list header

    def test_forged_equivalence_violation(self):
        tree = path(6)
        report = evaluate_bounds(tree, with_exact=True)
        with pytest.raises(BoundViolation):
            _check_tree(tree, report, False)  # P_6 is a 2-corona; claim not
