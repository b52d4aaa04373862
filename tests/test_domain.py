
import os

import pytest

from urbanmas.domain import (
    DEFAULT_TASKS,
    Dimension,
    FactorSet,
    FieldValue,
    Level,
    LocationSample,
    PAIRS,
    Pair,
    PoiEntry,
    PredictionOutput,
    PredictiveFactor,
    SimilarityReport,
    TaskSpec,
    builtin_task,
    load_samples,
    save_samples,
    validate_factor_set,
    write_text_atomic,
)

from conftest import make_factor_set, make_record


class TestEnums:
    def test_dimension_is_closed_with_two_values(self):
        assert {d.value for d in Dimension} == {"social", "built_environmental"}

    def test_level_is_closed_with_two_values(self):
        assert {r.value for r in Level} == {"macro", "street"}

    def test_cartesian_product_yields_exactly_four_pairs(self):
        assert len(PAIRS) == 4
        assert len(set(PAIRS)) == 4
        assert PAIRS[0] == (Dimension.SOCIAL, Level.MACRO)


class TestPair:
    def test_order_and_labels(self):
        assert PAIRS == (
            Pair(Dimension.SOCIAL, Level.MACRO),
            Pair(Dimension.SOCIAL, Level.STREET),
            Pair(Dimension.BUILT_ENVIRONMENTAL, Level.MACRO),
            Pair(Dimension.BUILT_ENVIRONMENTAL, Level.STREET),
        )
        assert [pair.label for pair in PAIRS] == [
            "social_macro", "social_street", "environment_macro", "environment_street",
        ]

    @pytest.mark.parametrize("pair", PAIRS, ids=lambda pair: pair.label)
    def test_is_its_plain_tuple(self, pair):
        d, r = pair
        assert (pair.dimension, pair.level) == (d, r)
        assert pair == (d, r) and (d, r) == pair
        assert hash(pair) == hash((d, r))
        assert {(d, r): "found"}[pair] == "found"
        assert {pair: "found"}[(d, r)] == "found"

    def test_record_writes_dimension_and_level(self):
        record = make_record({"f": "x"}, dimension=Dimension.BUILT_ENVIRONMENTAL, level=Level.STREET)
        doc = record.to_dict()
        assert list(doc) == ["location_id", "task_id", "dimension", "level", "status", "fields"]
        assert (doc["dimension"], doc["level"]) == ("built_environmental", "street")
        assert "pair" not in doc


class TestTaskSpec:
    def test_rejects_empty_id(self):
        with pytest.raises(ValueError):
            TaskSpec(id=" ", description="x", output_key="y")

    def test_builtin_tasks_cover_the_three_study_tasks(self):
        assert [t.id for t in DEFAULT_TASKS] == ["running_amount", "boringness", "liveliness"]
        assert builtin_task("liveliness").output_key == "liveliness_score"

    def test_unknown_builtin_task(self):
        with pytest.raises(ValueError, match="unknown task id"):
            builtin_task("walkability")


class TestLocationSample:
    def test_coordinate_range_enforced(self):
        with pytest.raises(ValueError):
            LocationSample(id="x", latitude=91.0, longitude=0.0)
        with pytest.raises(ValueError):
            LocationSample(id="x", latitude=0.0, longitude=-181.0)

    def test_ground_truth_range_enforced(self):
        with pytest.raises(ValueError):
            LocationSample(id="x", latitude=0.0, longitude=0.0, ground_truth={"t": 11.0})

    def test_poi_distance_nonnegative(self):
        with pytest.raises(ValueError):
            PoiEntry("x", "poi", -1.0)

    def test_jsonl_round_trip(self, tmp_path, sample):
        path = tmp_path / "samples.jsonl"
        save_samples([sample], path)
        loaded = load_samples(path)
        assert loaded == [sample]

    def test_load_rejects_bad_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a"}\n')
        with pytest.raises(ValueError, match="bad sample record"):
            load_samples(path)

    def test_interrupted_save_keeps_the_old_file(self, tmp_path, sample, monkeypatch):
        path = tmp_path / "enriched.jsonl"
        save_samples([sample], path)
        before = path.read_bytes()

        def killed(src, dst):
            raise OSError("killed before the rename")

        monkeypatch.setattr("os.replace", killed)
        with pytest.raises(OSError, match="killed"):
            save_samples([sample, sample], path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["enriched.jsonl"]


class TestValidateFactorSet:
    def test_six_distinct_factors_accepted(self):
        assert validate_factor_set(make_factor_set()) == []

    def test_five_factors_rejected_with_count(self):
        fs = make_factor_set(names=("a", "b", "c", "d", "e"))
        violations = validate_factor_set(fs)
        assert "count=5, expected 6" in violations

    def test_duplicate_after_normalization_rejected(self):
        fs = make_factor_set(names=("Greenery", "greenery ", "c", "d", "e", "f"))
        violations = validate_factor_set(fs)
        assert any("duplicate factor name" in v for v in violations)

    def test_empty_name_and_description_reported(self):
        fs = FactorSet(
            task_id="t",
            pair=Pair(Dimension.SOCIAL, Level.MACRO),
            factors=tuple(
                [PredictiveFactor("", "desc")]
                + [PredictiveFactor(f"f{i}", "") for i in range(5)]
            ),
        )
        violations = validate_factor_set(fs)
        assert any("empty name" in v for v in violations)
        assert any("empty description" in v for v in violations)

    def test_never_raises_on_garbage(self):
        fs = FactorSet(task_id="t", pair=Pair(Dimension.SOCIAL, Level.MACRO), factors=())
        assert validate_factor_set(fs)  # violations, not an exception


class TestRecords:
    def test_field_keys_preserve_order(self):
        values = {f"f{i}": f"text {i}" for i in range(6)}
        record = make_record(values)
        assert record.field_names == tuple(values)

    def test_settle_allows_raw_to_settled_only(self):
        record = make_record({"f": "text"})
        stable = record.settle("stable")
        assert stable.status == "stable"
        with pytest.raises(ValueError, match="illegal status transition"):
            stable.settle("refined")

    def test_bad_status_rejected(self):
        with pytest.raises(ValueError):
            make_record({"f": "x"}, status="final")

    def test_field_value_invariants(self):
        with pytest.raises(ValueError):
            FieldValue(text="", provenance="variant_a")
        with pytest.raises(ValueError):
            FieldValue(text="x", provenance="nowhere")
        with pytest.raises(ValueError):
            FieldValue(text="x", provenance="refined", similarity=1.5)


class TestSimilarityReport:
    def test_from_scores_computes_mean_and_conflicts(self):
        report = SimilarityReport({"a": 1.0, "b": 0.5, "c": 0.71}, threshold=0.72)
        assert report.conflicting == {"b", "c"}
        assert report.aggregate == pytest.approx((1.0 + 0.5 + 0.71) / 3, abs=1e-12)


class TestPredictionOutput:
    def test_value_must_be_in_scale(self):
        with pytest.raises(ValueError):
            PredictionOutput(location_id="l", task_id="t", value=10.5, variant="full")

    def test_dict_round_trip(self):
        pred = PredictionOutput(
            location_id="l", task_id="t", value=4.2, variant="full", rationale="r", clamped=True
        )
        assert PredictionOutput.from_dict(pred.to_dict()) == pred


class TestWriteTextAtomic:
    def test_writes_the_chunks_whole(self, tmp_path):
        path = tmp_path / "sub" / "out.txt"
        write_text_atomic(path, ["a\n", "b\r\n"])
        assert path.read_bytes() == b"a\nb\r\n"
        assert os.listdir(path.parent) == ["out.txt"]

    def test_failed_replace_leaves_only_the_old_target(self, tmp_path, monkeypatch):
        path = tmp_path / "predictions.jsonl"
        write_text_atomic(path, ["old\n"])

        def killed(src, dst):
            raise OSError("killed before the rename")

        monkeypatch.setattr("os.replace", killed)
        with pytest.raises(OSError, match="killed"):
            write_text_atomic(path, ["new\n"])
        assert os.listdir(tmp_path) == ["predictions.jsonl"]
        assert path.read_text() == "old\n"

    def test_failed_write_leaves_only_the_old_target(self, tmp_path):
        path = tmp_path / "predictions.jsonl"
        write_text_atomic(path, ["old\n"])

        def chunks():
            yield "new\n"
            raise RuntimeError("producer failed mid-write")

        with pytest.raises(RuntimeError, match="mid-write"):
            write_text_atomic(path, chunks())
        assert os.listdir(tmp_path) == ["predictions.jsonl"]
        assert path.read_text() == "old\n"
