"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import itertools
import json
import math
import random
import shutil
import string
import time
from pathlib import Path

import pytest

from urbanmas.backend import CassetteBackend, ChatBackend, MockBackend
from urbanmas.cli import main as cli_main
from urbanmas.domain import PAIRS, builtin_task
from urbanmas.evaluation import (
    format_change,
    format_metric,
    metrics,
    rescale_to_unit_interval_times_ten,
)
from urbanmas.guidance import GENERIC_FACTORS, guide
from urbanmas.pipeline import predict_location, run_predictions
from urbanmas.reliability import (
    evaluate,
    reconcile,
    seq_ratio,
    soft_sim,
)

from conftest import FACTOR_NAMES, FIXTURES, make_factor_set, make_record, scripted_extraction_backend
from oracles import brute_soft_sim


def _pass(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE C{criterion:02d} PASS: {message}")


def _normalized_word_salad(rng: random.Random, max_words: int = 12) -> str:
    words = [
        "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randrange(1, 9)))
        for _ in range(rng.randrange(max_words + 1))
    ]
    return " ".join(words)


class TestCriterion1SimilarityOracle:
    def test_soft_sim_matches_brute_force_reference(self):
        started = time.monotonic()

        # Exhaustive sweep: every pair of strings over {a, b, c} with a
        # combined length of at most 8 characters (83,653 pairs).
        alphabet = "abc"
        by_len = {
            n: ["".join(p) for p in itertools.product(alphabet, repeat=n)] for n in range(9)
        }
        checked = 0
        for len_a in range(9):
            for len_b in range(9 - len_a):
                for a in by_len[len_a]:
                    for b in by_len[len_b]:
                        assert abs(soft_sim(a, b) - brute_soft_sim(a, b)) <= 1e-9, (a, b)
                        checked += 1
        assert checked == 83653

        # 200 random normalized string pairs (lowercase words, single spaces).
        rng = random.Random(2024)
        for _ in range(200):
            a, b = _normalized_word_salad(rng), _normalized_word_salad(rng)
            assert abs(soft_sim(a, b) - brute_soft_sim(a, b)) <= 1e-9, (a, b)

        elapsed = time.monotonic() - started
        assert elapsed < 30.0, f"oracle equivalence took {elapsed:.1f}s"
        _pass(1, f"soft_sim == brute force on {checked} exhaustive + 200 random pairs "
                 f"in {elapsed:.1f}s")


class TestCriterion2GestaltSpotValue:
    def test_hand_traced_value_and_symmetry(self):
        assert seq_ratio("abcd", "bcde") == 0.75

        rng = random.Random(91)
        chars = string.ascii_letters + string.digits + " "
        for _ in range(1000):
            a = "".join(rng.choice(chars) for _ in range(rng.randrange(30)))
            b = "".join(rng.choice(chars) for _ in range(rng.randrange(30)))
            assert seq_ratio(a, b) == seq_ratio(b, a), (a, b)
        _pass(2, 'seq_ratio("abcd","bcde") == 0.75; symmetric on 1,000 random pairs')


class TestCriterion3GateBehavior:
    def test_k_corruptions_flag_and_repair_exactly_k_fields(self):
        base = {name: f"moderate {name} observed around this location" for name in FACTOR_NAMES}
        for k in (0, 1, 2, 3, 6):
            corrupted = set(FACTOR_NAMES[:k])
            values_b = {
                name: (
                    "entirely unrelated fenced industrial storage text"
                    if name in corrupted
                    else text
                )
                for name, text in base.items()
            }
            var_a = make_record(base, "variant_a")
            var_b = make_record(values_b, "variant_b")
            report = evaluate(var_a, var_b)
            assert report.conflicting == corrupted

            calls: list[str] = []
            record = reconcile(var_a, var_b, report, lambda name, a, b: calls.append(name) or a)
            assert len(calls) == k, f"expected exactly {k} round-one refiner calls"
            assert set(calls) == corrupted
            assert record.status == ("stable" if k == 0 else "refined")
        _pass(3, "evaluate flags exactly k corrupted fields; reconcile repairs exactly k")


class TestCriterion4FactorLayerContract:
    def test_guide_yields_4_sets_of_6_distinct_factors(self, task):
        from urbanmas.domain import normalized_factor_name, validate_factor_set

        def check(factor_map):
            assert set(factor_map) == set(PAIRS)
            for fs in factor_map.values():
                assert len(fs.factors) == 6
                names = [normalized_factor_name(f.name) for f in fs.factors]
                assert len(set(names)) == 6
                assert validate_factor_set(fs) == []

        check(guide([task], MockBackend())[task.id])

        # Retry fixture: every summary answers 5 factors first, then 6 once
        # the violation feedback is appended to the prompt.
        def factors_json(n):
            return json.dumps(
                {"factors": [
                    {"name": f"factor {i}", "description": f"Measurable definition {i}."}
                    for i in range(n)
                ]}
            )

        retry_backend = MockBackend()
        retry_backend.add_rule(
            lambda r: '"factors"' in r.user_prompt and "rejected" not in r.user_prompt,
            factors_json(5),
        )
        retry_backend.add_rule(
            lambda r: '"factors"' in r.user_prompt and "rejected" in r.user_prompt,
            factors_json(6),
        )
        check(guide([task], retry_backend)[task.id])
        assert retry_backend.call_count == 4 + 8  # 4 research + (5-then-6) summaries
        _pass(4, "guide -> 4 sets x 6 distinct factors, including the 5-then-6 retry fixture")


class TestCriterion5MetricCorrectness:
    def test_exact_example_and_random_vector_properties(self):
        report = metrics({"p1": 2.0, "p2": 4.0}, {"p1": 1.0, "p2": 2.0})
        assert abs(report.mae - 1.5) <= 1e-12
        assert abs(report.mse - 2.5) <= 1e-12
        assert abs(report.rmse - math.sqrt(2.5)) <= 1e-12

        rng = random.Random(55)
        for _ in range(1000):
            n = rng.randrange(1, 40)
            preds = {f"l{i}": rng.uniform(0, 10) for i in range(n)}
            truths = {f"l{i}": rng.uniform(0, 10) for i in range(n)}
            r = metrics(preds, truths)
            assert abs(r.rmse**2 - r.mse) <= 1e-12
            assert r.mae <= r.rmse + 1e-12
        _pass(5, "metrics exact on the worked example; rmse^2=mse and mae<=rmse on 1,000 vectors")


class TestCriterion6RescaleEndpoints:
    def test_endpoints_and_degenerate_convention(self):
        rng = random.Random(77)
        for _ in range(50):
            values = [rng.uniform(-50, 300) for _ in range(rng.randrange(2, 40))]
            rescaled = rescale_to_unit_interval_times_ten(values)
            assert rescaled[values.index(min(values))] == 0.0
            assert rescaled[values.index(max(values))] == 10.0
            assert all(0.0 <= v <= 10.0 for v in rescaled)
        assert rescale_to_unit_interval_times_ten([7.3, 7.3, 7.3]) == [5.0, 5.0, 5.0]
        _pass(6, "rescale maps min->0, max->10; all-equal input -> 5.0")


def _stage_run_dir(tmp_path: Path) -> Path:
    run_dir = tmp_path / "workspace"
    run_dir.mkdir()
    shutil.copy(FIXTURES / "samples.jsonl", run_dir / "samples.jsonl")
    return run_dir


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestCriterion7EndToEndDeterminism:
    def test_replay_runs_are_byte_identical_across_widths(self, tmp_path):
        run_dir = _stage_run_dir(tmp_path)
        factor_dir = run_dir / "factors"
        cassette = run_dir / "cassette.jsonl"

        assert cli_main([
            "factors", "--backend", "mock",
            "--factor-dir", str(factor_dir),
            "--out", str(run_dir / "out_factors"),
            "--tasks", "running_amount",
        ]) == 0
        assert cli_main([
            "predict", "--backend", "record", "--record-source", "mock",
            "--cassette", str(cassette),
            "--dataset", str(run_dir / "samples.jsonl"),
            "--factor-dir", str(factor_dir),
            "--out", str(run_dir / "out_record"),
            "--tasks", "running_amount",
            "--variant", "full",
        ]) == 0

        started = time.monotonic()
        trees = []
        for repeat in range(5):
            for workers in (1, 4):
                out = run_dir / f"out_replay_{repeat}_{workers}"
                assert cli_main([
                    "predict", "--backend", "replay",
                    "--cassette", str(cassette),
                    "--dataset", str(run_dir / "samples.jsonl"),
                    "--factor-dir", str(factor_dir),
                    "--out", str(out),
                    "--tasks", "running_amount",
                    "--variant", "full",
                    "--workers", str(workers),
                ]) == 0
                tree = _tree_bytes(out)
                # The manifest snapshots the per-run output path; the
                # criterion compares predictions and audit artifacts.
                tree.pop("manifest.json")
                assert tree["predictions.jsonl"]
                trees.append(tree)
        elapsed = time.monotonic() - started

        first = trees[0]
        for tree in trees[1:]:
            assert tree == first
        assert len(first) >= 5  # predictions + similarity log + 3 audit files
        assert elapsed < 10.0, f"replay matrix took {elapsed:.1f}s"
        predictions = [
            json.loads(line)
            for line in (run_dir / "out_replay_0_1" / "predictions.jsonl").read_text().splitlines()
        ]
        assert len(predictions) == 3
        _pass(7, f"10 replay runs (widths 1 and 4) byte-identical in {elapsed:.1f}s")


class CountingBackend(ChatBackend):
    backend_id = "counting"

    def __init__(self, inner: ChatBackend):
        self.inner = inner
        self.count = 0

    def complete(self, req):
        self.count += 1
        return self.inner.complete(req)


class TestCriterion8AblationAccounting:
    CONFLICTING = "entirely unrelated fenced industrial storage text"

    def _scripted(self, conflicts: int, refine_text: str | None = None) -> MockBackend:
        base = {name: f"moderate {name} observed around this location" for name in FACTOR_NAMES}
        values_b = dict(base)
        for name in FACTOR_NAMES[:conflicts]:
            values_b[name] = self.CONFLICTING
        return scripted_extraction_backend({0: base, 1: values_b}, refine_text)

    def test_call_counts_match_closed_forms(self, sample, task, tmp_path):
        factor_map = {(d, r): make_factor_set(dimension=d, level=r) for d, r in PAIRS}

        # Record each variant's traffic once, then count replayed calls.
        for conflicts, extraction_calls in ((0, 8), (1, 8 + 4)):
            # A conflict corrupts the same field in all four pairs: each
            # pair repairs it once, so repairs == 4 * conflicts.
            cassette = tmp_path / f"full_{conflicts}.jsonl"
            recorder = CassetteBackend(cassette, self._scripted(conflicts))
            predict_location(sample, task, "full", recorder, factor_map=factor_map)

            replay = CountingBackend(CassetteBackend(cassette))
            run = predict_location(sample, task, "full", replay, factor_map=factor_map)
            assert replay.count == extraction_calls + 1
            repairs = sum(pe.refine_calls for pe in run.pairs.values())
            assert replay.count == 4 * 2 + repairs + 1
            assert repairs == 4 * conflicts

        cassette = tmp_path / "no_reliability.jsonl"
        recorder = CassetteBackend(cassette, self._scripted(0))
        predict_location(sample, task, "no_reliability", recorder, factor_map=factor_map)
        replay = CountingBackend(CassetteBackend(cassette))
        predict_location(sample, task, "no_reliability", replay, factor_map=factor_map)
        assert replay.count == 4 + 1

        cassette = tmp_path / "single_llm.jsonl"
        recorder = CassetteBackend(cassette, self._scripted(0))
        predict_location(sample, task, "single_llm", recorder)
        replay = CountingBackend(CassetteBackend(cassette))
        predict_location(sample, task, "single_llm", replay)
        assert replay.count == 1
        _pass(8, "per-variant call counts: full=4*2+repairs+1, no_reliability=4+1, single_llm=1")

    def test_no_factors_extracts_once_per_location(self, sample):
        tasks = [builtin_task(t) for t in ("running_amount", "boringness", "liveliness")]
        names = [f.name for f in GENERIC_FACTORS]
        base = {name: f"moderate {name} observed around this location" for name in names}
        conflicting = {**base, names[0]: "entirely unrelated fenced industrial storage text"}
        backend = CountingBackend(scripted_extraction_backend({0: base, 1: conflicting}))
        runs = []
        outcome = run_predictions(
            [sample], tasks, ["no_factors"], backend, workers=1, on_job_end=runs.append
        )
        assert not outcome.failures and len(runs) == len(tasks)
        repairs = sum(pe.refine_calls for pe in runs[0].pairs.values())
        assert repairs == 4  # one corrupted field in each of the four pairs
        assert backend.count == 4 * 2 + repairs + len(tasks)
        _pass(8, "no_factors over 3 tasks of one location: 4*2+repairs+3 calls")

    def test_no_reliability_reuses_the_full_extraction(self, sample, task):
        factor_map = {(d, r): make_factor_set(dimension=d, level=r) for d, r in PAIRS}
        backend = CountingBackend(self._scripted(1))
        runs = []
        outcome = run_predictions(
            [sample], [task], ["full", "no_reliability"], backend,
            factor_maps={task.id: factor_map}, on_job_end=runs.append,
        )
        assert not outcome.failures
        assert [run.prediction.variant for run in runs] == ["full", "no_reliability"]
        repairs = sum(pe.refine_calls for pe in runs[0].pairs.values())
        assert repairs == 4
        # The refiner echoes value A, so both jobs send the same inference prompt.
        assert backend.count == 4 * 2 + repairs + 1
        _pass(8, "full + no_reliability of one location and task: 4*2+repairs+1 calls")

    def test_no_reliability_infers_itself_after_a_stubborn_refiner(self, sample, task):
        factor_map = {(d, r): make_factor_set(dimension=d, level=r) for d, r in PAIRS}
        # The refiner sides with value B: each pair asks once and stays low-confidence.
        backend = CountingBackend(self._scripted(1, refine_text=self.CONFLICTING))
        runs = []
        outcome = run_predictions(
            [sample], [task], ["full", "no_reliability"], backend,
            factor_maps={task.id: factor_map}, on_job_end=runs.append,
        )
        assert not outcome.failures
        assert [run.prediction.variant for run in runs] == ["full", "no_reliability"]
        assert {pe.record.status for pe in runs[0].pairs.values()} == {"low_confidence"}
        repairs = sum(pe.refine_calls for pe in runs[0].pairs.values())
        assert repairs == 4
        assert backend.count == (4 * 2 + repairs + 1) + 1
        _pass(8, "stubborn refiner: full=4*2+repairs+1 with repairs=4, no_reliability=+1")


class TestCriterion9ReportFormatting:
    def test_ablation_percentage_convention(self):
        # Fixture pair displaying as 13.20 vs 13.39. Percentages follow the
        # pre-rounding convention: computed from the unrounded metrics, then
        # rendered with two decimals and an arrow.
        full_mse, ablated_mse = 13.197, 13.3897
        assert format_metric(full_mse) == "13.20"
        assert format_metric(ablated_mse, baseline=full_mse) == "13.39 (↑1.46%)"
        assert format_change(full_mse, full_mse) == "0.00%"
        assert format_change(13.73, 13.20).startswith("↓")
        _pass(9, 'ablation cell renders "13.39 (↑1.46%)"; zero change renders "0.00%"')


class TestCriterion10OfflineGuarantee:
    def test_ingest_and_predict_touch_no_network(self, tmp_path, monkeypatch):
        import urbanmas.backend as backend_mod
        import urbanmas.geo as geo_mod

        attempts = {"count": 0}

        def failing_network(*args, **kwargs):
            attempts["count"] += 1
            raise AssertionError("network touched")

        monkeypatch.setattr(geo_mod, "_http_get", failing_network)
        monkeypatch.setattr(backend_mod, "_http_post", failing_network)

        run_dir = tmp_path / "offline"
        run_dir.mkdir()
        shutil.copy(FIXTURES / "raw_samples.jsonl", run_dir / "raw.jsonl")
        shutil.copytree(FIXTURES / "geocache", run_dir / "geocache")

        assert cli_main([
            "ingest", "--offline",
            "--dataset", str(run_dir / "raw.jsonl"),
            "--cache-dir", str(run_dir / "geocache"),
            "--out", str(run_dir / "out"),
        ]) == 0
        enriched = run_dir / "out" / "enriched.jsonl"
        assert enriched.exists()

        assert cli_main([
            "factors", "--backend", "mock", "--offline",
            "--factor-dir", str(run_dir / "factors"),
            "--out", str(run_dir / "out"),
            "--tasks", "running_amount",
        ]) == 0
        assert cli_main([
            "predict", "--backend", "mock", "--offline",
            "--dataset", str(enriched),
            "--factor-dir", str(run_dir / "factors"),
            "--out", str(run_dir / "out"),
            "--tasks", "running_amount",
            "--variant", "full", "--variant", "single_llm",
        ]) == 0
        assert (run_dir / "out" / "predictions.jsonl").read_text().count("\n") == 6

        assert attempts["count"] == 0
        _pass(10, "offline ingest + predict completed from fixtures with zero network attempts")
