import math
import os
import random

import pytest

from urbanmas.backend import CassetteBackend, MockBackend
from urbanmas.domain import PredictionOutput
from urbanmas.errors import AlignmentError, EvaluationError
from urbanmas.evaluation import (
    EvalReport,
    format_change,
    format_metric,
    load_ground_truth_csv,
    metrics,
    render_report_table,
    rescale_to_unit_interval_times_ten,
    score_outcome,
    write_reports_csv,
)
from urbanmas.guidance import guide
from urbanmas.pipeline import GUIDED_VARIANTS, run_predictions


class TestRescale:
    def test_endpoints_map_to_scale_bounds(self):
        assert rescale_to_unit_interval_times_ten([0, 255]) == [0.0, 10.0]

    def test_all_equal_maps_to_midpoint(self):
        assert rescale_to_unit_interval_times_ten([5, 5, 5]) == [5.0, 5.0, 5.0]

    def test_affine_arithmetic(self):
        assert rescale_to_unit_interval_times_ten([2, 4, 6]) == [0.0, 5.0, 10.0]

    def test_empty_input_is_an_error(self):
        with pytest.raises(EvaluationError):
            rescale_to_unit_interval_times_ten([])

    def test_non_finite_values_are_an_error(self):
        with pytest.raises(EvaluationError):
            rescale_to_unit_interval_times_ten([1.0, float("nan")])


class TestMetrics:
    def test_hand_computed_example(self):
        report = metrics({"a": 2.0, "b": 4.0}, {"a": 1.0, "b": 2.0})
        assert report.mae == pytest.approx(1.5, abs=1e-12)
        assert report.mse == pytest.approx(2.5, abs=1e-12)
        assert report.rmse == pytest.approx(math.sqrt(2.5), abs=1e-12)
        assert report.n == 2

    def test_perfect_predictions_are_all_zero(self):
        report = metrics({"a": 3.0, "b": 7.0}, {"a": 3.0, "b": 7.0})
        assert (report.mae, report.mse, report.rmse) == (0.0, 0.0, 0.0)

    def test_unmatched_ids_raise_alignment_error(self):
        with pytest.raises(AlignmentError, match="do not align"):
            metrics({"a": 1.0}, {"b": 1.0})

    def test_empty_input_is_an_error(self):
        with pytest.raises(EvaluationError):
            metrics({}, {})

    def test_permutation_invariance(self):
        rng = random.Random(3)
        preds = {f"loc{i}": rng.uniform(0, 10) for i in range(20)}
        truths = {f"loc{i}": rng.uniform(0, 10) for i in range(20)}
        forward = metrics(preds, truths)
        shuffled_keys = list(preds)
        rng.shuffle(shuffled_keys)
        backward = metrics(
            {k: preds[k] for k in shuffled_keys}, {k: truths[k] for k in shuffled_keys}
        )
        assert forward == backward

    def test_jensen_inequality_and_rmse_identity_on_random_vectors(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randrange(1, 30)
            preds = {f"l{i}": rng.uniform(0, 10) for i in range(n)}
            truths = {f"l{i}": rng.uniform(0, 10) for i in range(n)}
            report = metrics(preds, truths)
            assert report.rmse**2 == pytest.approx(report.mse, abs=1e-12)
            assert report.mae <= report.rmse + 1e-12

    def test_eval_report_invariants(self):
        with pytest.raises(ValueError):
            EvalReport(task_id="t", variant="full", n=0, mae=1, mse=1, rmse=1)
        with pytest.raises(ValueError, match="sqrt"):
            EvalReport(task_id="t", variant="full", n=1, mae=1.0, mse=4.0, rmse=1.9)


class TestFormatting:
    def test_increase_rendering_matches_two_decimal_convention(self):
        # Unrounded pair displaying as 13.20 / 13.39 with a 1.46% increase.
        assert format_metric(13.197) == "13.20"
        assert format_metric(13.3897, baseline=13.197) == "13.39 (↑1.46%)"

    def test_decrease_uses_down_arrow(self):
        assert format_change(13.73, 13.20) == "↓3.86%"

    def test_equal_values_render_zero_percent(self):
        assert format_change(2.5, 2.5) == "0.00%"
        # All-zero error: both variants score 0.0, still "0.00%".
        assert format_change(0.0, 0.0) == "0.00%"

    def test_zero_baseline_with_nonzero_value_has_no_percentage(self):
        assert format_change(0.0, 1.0) == "n/a"

    def test_table_contains_baseline_and_ablation_rows(self):
        reports = [
            EvalReport("running_amount", "full", 3, 2.97, 13.197, math.sqrt(13.197)),
            EvalReport("running_amount", "no_reliability", 3, 2.98, 13.3897, math.sqrt(13.3897)),
        ]
        table = render_report_table(reports)
        assert "[running_amount]" in table
        assert "full" in table and "no_reliability" in table
        assert "13.39 (↑1.46%)" in table

    def test_csv_has_change_columns(self, tmp_path):
        reports = [
            EvalReport("t", "full", 3, 1.0, 1.0, 1.0),
            EvalReport("t", "single_llm", 3, 2.0, 4.0, 2.0),
        ]
        path = tmp_path / "reports.csv"
        write_reports_csv(reports, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("task_id,variant,n,mae,mse,rmse")
        assert "↑100.00%" in lines[2]

    def test_interrupted_csv_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        reports = [EvalReport("t", "full", 3, 1.0, 1.0, 1.0)]
        path = tmp_path / "reports.csv"
        write_reports_csv(reports, path)
        before = path.read_bytes()
        assert before.count(b"\r\n") == 2 and b"\r\r" not in before

        def killed(src, dst):
            raise OSError("killed before the rename")

        monkeypatch.setattr("os.replace", killed)
        with pytest.raises(OSError, match="killed"):
            write_reports_csv(reports * 2, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["reports.csv"]


class TestScoreOutcome:
    def _pred(self, loc, value, variant="full"):
        return PredictionOutput(
            location_id=loc, task_id="running_amount", value=value, variant=variant
        )

    def test_groups_by_task_and_variant(self):
        preds = [self._pred("a", 5.0), self._pred("b", 6.0), self._pred("a", 1.0, "single_llm")]
        truths = {("a", "running_amount"): 5.0, ("b", "running_amount"): 7.0}
        reports = score_outcome(preds, truths)
        assert {(r.variant, r.n) for r in reports} == {("full", 2), ("single_llm", 1)}

    def test_missing_truth_names_the_ids(self):
        preds = [self._pred("a", 5.0), self._pred("ghost", 6.0)]
        truths = {("a", "running_amount"): 5.0}
        with pytest.raises(AlignmentError, match="ghost"):
            score_outcome(preds, truths)


class TestGroundTruthCsv:
    def test_load_and_rescale_flow(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text(
            "location_id,task_id,raw_value\na,running_amount,0\nb,running_amount,255\n"
        )
        table = load_ground_truth_csv(path)
        assert table[("a", "running_amount")] == 0.0
        assert table[("b", "running_amount")] == 255.0

    def test_missing_columns_are_an_error(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("loc,task,value\na,b,1\n")
        with pytest.raises(EvaluationError, match="columns"):
            load_ground_truth_csv(path)


def run_and_score(dataset, task, variants, backend, factor_dir=None, workers=4):
    """Run the variant matrix for one task, then score it against the dataset truth."""
    factor_maps = {}
    if any(v in GUIDED_VARIANTS for v in variants):
        factor_maps = guide([task], backend, factor_dir=factor_dir, workers=workers)
    outcome = run_predictions(
        dataset, [task], variants, backend, factor_maps=factor_maps, workers=workers
    )
    truths = {(s.id, t): v for s in dataset for t, v in s.ground_truth.items()}
    return score_outcome(outcome.predictions, truths), outcome


class TestRunExperiment:
    def test_all_variants_over_three_locations(self, dataset, task, tmp_path):
        variants = ("full", "no_factors", "no_reliability", "single_llm")
        reports, outcome = run_and_score(dataset, task, variants, MockBackend(), tmp_path)
        assert len(reports) == 4
        assert {r.variant for r in reports} == set(variants)
        assert all(r.n == 3 for r in reports)
        assert not outcome.failures

    def test_replayed_experiment_is_identical(self, dataset, task, tmp_path):
        cassette = tmp_path / "cassette.jsonl"
        variants = ("full", "single_llm")
        recorder = CassetteBackend(cassette, MockBackend())
        first, _ = run_and_score(dataset, task, variants, recorder, tmp_path / "f1")
        second, _ = run_and_score(
            dataset, task, variants, CassetteBackend(cassette), tmp_path / "f2"
        )
        third, _ = run_and_score(
            dataset, task, variants, CassetteBackend(cassette), tmp_path / "f3", workers=1
        )
        assert first == second == third

    def test_failed_locations_are_excluded_from_metrics(self, dataset, task):
        backend = MockBackend()
        # Poison every prompt e2e for one location: extraction and the
        # single-LLM prompt for it never produce usable JSON.
        backend.add_rule(lambda r: "milan" in r.user_prompt.lower(), "garbage")
        reports, outcome = run_and_score(dataset, task, ("single_llm",), backend)
        assert len(outcome.failures) == 1
        assert outcome.failures[0]["location_id"] == "milan_duomo"
        assert reports[0].n == 2

    def test_dataset_without_truth_is_an_error(self, dataset):
        from urbanmas.domain import TaskSpec

        other = TaskSpec(id="noise", description="d", output_key="noise_score")
        with pytest.raises(EvaluationError, match="no ground truth for task 'noise'"):
            run_and_score(dataset, other, ("single_llm",), MockBackend())
