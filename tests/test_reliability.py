import math
import random
import string
from difflib import SequenceMatcher
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from urbanmas import reliability
from urbanmas.errors import FieldKeyMismatchError, RefinerError
from urbanmas.domain import SimilarityReport
from urbanmas.reliability import (
    JACCARD_WEIGHT,
    MAX_REPAIR_ROUNDS,
    SEQ_WEIGHT,
    THRESHOLD,
    evaluate,
    jaccard,
    normalize,
    reconcile,
    seq_ratio,
    soft_sim,
)

from conftest import FACTOR_NAMES, make_record
from oracles import brute_gestalt, brute_normalize, brute_soft_sim

_CHARS = string.ascii_letters + string.digits + string.punctuation + "  \t\néµ東"


def _random_text(rng: random.Random, max_len: int = 40) -> str:
    return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(max_len)))


# Texts for the property tests: tiny alphabets give many tied longest blocks,
# word salad gives the repeated vocabulary of real extraction fields.
_WORDS = ("the", "street", "quiet", "green", "park", "shops", "bus", "stop", "a", "of")
_TINY_ALPHABET_TEXT = st.sampled_from(["ab", "abc", "ab c", "abcd"]).flatmap(
    lambda alphabet: st.text(alphabet=alphabet, max_size=400)
)
_WORD_SALAD = st.lists(st.sampled_from(_WORDS), max_size=90).map(lambda w: " ".join(w)[:400])
# Lowercasing changes the length of some characters ("İ" -> "i̇").
_UNICODE_TEXT = st.text(
    alphabet=st.one_of(st.characters(), st.sampled_from("İẞŉǰΐﬀ«»—…·#$+<=>|~ \t\n")),
    max_size=60,
)


def _difflib_ratio(a: str, b: str) -> float:
    """The reference gestalt ratio: difflib, operands in lexicographic order."""
    a, b = sorted((a, b))
    return SequenceMatcher(None, a, b, autojunk=False).ratio()


class TestConstants:
    def test_weights_sum_to_exactly_one(self):
        # The equal-operand shortcut in soft_sim returns 1.0 on this identity.
        assert 0.0 < JACCARD_WEIGHT < 1.0
        assert 0.0 < SEQ_WEIGHT < 1.0
        assert JACCARD_WEIGHT + SEQ_WEIGHT == 1.0

    def test_threshold_lies_inside_the_unit_interval(self):
        assert 0.0 < THRESHOLD <= 1.0

    def test_repair_budget_allows_at_least_one_round(self):
        assert type(MAX_REPAIR_ROUNDS) is int
        assert MAX_REPAIR_ROUNDS >= 1

    def test_readme_and_module_docstring_state_the_constants(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        assert f"{JACCARD_WEIGHT} * Jaccard + {SEQ_WEIGHT} * gestalt" in readme
        assert f"gate at a {THRESHOLD} stability threshold" in readme
        assert f"repair budget is {MAX_REPAIR_ROUNDS} refiner calls" in readme
        doc = " ".join(reliability.__doc__.split())
        assert f"(weight {JACCARD_WEIGHT})" in doc
        assert f"(weight {SEQ_WEIGHT})" in doc
        assert f"below the {THRESHOLD} stability threshold" in doc
        assert f"for at most {MAX_REPAIR_ROUNDS} refiner calls" in doc


class TestNormalize:
    def test_lowercases_strips_punctuation_collapses_whitespace(self):
        assert normalize("Hello,  World!") == "hello world"

    def test_empty_stays_empty(self):
        assert normalize("") == ""

    def test_removal_joins_hyphenated_words(self):
        # Punctuation is removed, not replaced by a space.
        assert normalize("foo-bar") == "foobar"

    def test_symbol_set_is_exact(self):
        assert normalize("a#b$c+d<e=f>g|h~i") == "abcdefghi"
        # ^ and ` are symbols but not in the removal set.
        assert normalize("a^b`c") == "a^b`c"

    def test_unicode_punctuation_removed(self):
        assert normalize("«quote» — dash…") == "quote dash"

    def test_idempotent_on_random_strings(self):
        rng = random.Random(7)
        for _ in range(300):
            text = _random_text(rng)
            once = normalize(text)
            assert normalize(once) == once

    @given(_UNICODE_TEXT)
    @example("İSTANBUL, «Türkiye»")
    def test_matches_brute_force_on_arbitrary_unicode(self, text):
        assert normalize(text) == brute_normalize(text)


class TestJaccard:
    def test_identical_nonempty(self):
        assert jaccard("quiet street", "quiet street") == 1.0

    def test_one_third_overlap(self):
        assert jaccard("a b", "b c") == pytest.approx(1 / 3)

    def test_disjoint(self):
        assert jaccard("a b", "c d") == 0.0

    def test_both_empty_by_convention(self):
        assert jaccard("", "") == 1.0

    def test_set_semantics_ignore_repeats(self):
        assert jaccard("a a a b", "a b") == 1.0


class TestSeqRatio:
    def test_identical(self):
        assert seq_ratio("abcdef", "abcdef") == 1.0

    def test_hand_traced_value(self):
        # Longest block "bcd" (3 chars), empty flanks: 2*3 / (4+4).
        assert seq_ratio("abcd", "bcde") == 0.75

    def test_no_common_characters(self):
        assert seq_ratio("aaa", "bbb") == 0.0

    def test_both_empty(self):
        assert seq_ratio("", "") == 1.0

    def test_symmetric_where_raw_gestalt_is_not(self):
        # Raw gestalt matching gives different totals for this pair
        # depending on operand order; canonicalization fixes it.
        assert seq_ratio("ab", "bacb") == seq_ratio("bacb", "ab")

    def test_symmetry_on_random_pairs(self):
        rng = random.Random(11)
        for _ in range(500):
            a, b = _random_text(rng), _random_text(rng)
            assert seq_ratio(a, b) == seq_ratio(b, a)

    def test_matches_brute_force_on_short_strings(self):
        rng = random.Random(13)
        alphabet = "abc"
        for _ in range(2000):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randrange(7)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randrange(7)))
            assert seq_ratio(a, b) == pytest.approx(brute_gestalt(a, b), abs=1e-12)

    @settings(deadline=None)
    @given(_TINY_ALPHABET_TEXT, _TINY_ALPHABET_TEXT)
    def test_equals_difflib_on_tiny_alphabets(self, a, b):
        assert seq_ratio(a, b) == _difflib_ratio(a, b)

    @settings(deadline=None)
    @given(_WORD_SALAD, _WORD_SALAD)
    def test_equals_difflib_on_word_salad(self, a, b):
        assert seq_ratio(a, b) == _difflib_ratio(a, b)


class TestSoftSim:
    def test_identical_strings_score_one(self):
        assert soft_sim("Quiet residential street.", "Quiet residential street.") == 1.0

    def test_strings_without_shared_tokens_or_characters_score_zero(self):
        assert soft_sim("aaabbb", "cccddd") == 0.0

    def test_against_independent_reference(self):
        value = soft_sim("quiet residential street", "quiet street")
        assert value == pytest.approx(
            brute_soft_sim("quiet residential street", "quiet street"), abs=1e-9
        )

    def test_empty_conventions(self):
        assert soft_sim("", "") == 1.0
        assert soft_sim("", "something") == 0.0

    def test_self_similarity_is_one_on_random_strings(self):
        rng = random.Random(17)
        for _ in range(200):
            text = _random_text(rng)
            assert soft_sim(text, text) == pytest.approx(1.0, abs=1e-12)

    def test_bounds_and_symmetry_on_random_strings(self):
        rng = random.Random(19)
        for _ in range(300):
            a, b = _random_text(rng), _random_text(rng)
            score = soft_sim(a, b)
            assert 0.0 <= score <= 1.0
            assert score == pytest.approx(soft_sim(b, a), abs=1e-12)

    def test_blend_reads_the_module_weights(self, monkeypatch):
        a, b = "quiet street", "quiet streets"
        j, r = jaccard(a, b), seq_ratio(a, b)
        assert j < r
        assert soft_sim(a, b) == JACCARD_WEIGHT * j + SEQ_WEIGHT * r
        monkeypatch.setattr(reliability, "JACCARD_WEIGHT", 1.0)
        monkeypatch.setattr(reliability, "SEQ_WEIGHT", 0.0)
        assert soft_sim(a, b) == j
        monkeypatch.setattr(reliability, "JACCARD_WEIGHT", 0.0)
        monkeypatch.setattr(reliability, "SEQ_WEIGHT", 1.0)
        assert soft_sim(a, b) == r

    @given(_UNICODE_TEXT)
    def test_equal_operands_score_exactly_one(self, text):
        # 0.4 + 0.6 is exactly 1.0 in doubles, so the shortcut keeps the bytes.
        assert soft_sim(text, text) == 1.0
        assert soft_sim(text, normalize(text)) == 1.0


def _variant_pair(corrupt: tuple[str, ...] = ()):
    base = {name: f"moderate {name} observed around this location" for name in FACTOR_NAMES}
    other = dict(base)
    for name in corrupt:
        other[name] = "entirely unrelated fenced industrial storage yard text"
    return make_record(base, "variant_a"), make_record(other, "variant_b")


class TestEvaluate:
    def test_identical_variants_have_no_conflicts(self):
        var_a, var_b = _variant_pair()
        report = evaluate(var_a, var_b)
        assert set(report.per_field.values()) == {1.0}
        assert report.conflicting == frozenset()
        assert report.aggregate == 1.0

    def test_single_corrupted_field_is_the_only_conflict(self):
        var_a, var_b = _variant_pair(corrupt=(FACTOR_NAMES[2],))
        report = evaluate(var_a, var_b)
        assert report.conflicting == {FACTOR_NAMES[2]}

    def test_key_mismatch_raises(self):
        var_a, _ = _variant_pair()
        other = make_record({"different": "x"}, "variant_b")
        with pytest.raises(FieldKeyMismatchError):
            evaluate(var_a, other)

    def test_a_field_at_the_threshold_passes_and_one_just_below_conflicts(self, monkeypatch):
        var_a, var_b = _variant_pair()
        below = math.nextafter(THRESHOLD, 0.0)
        scores = {var_a.fields[name].text: THRESHOLD for name in FACTOR_NAMES}
        scores[var_a.fields[FACTOR_NAMES[1]].text] = below
        monkeypatch.setattr(reliability, "soft_sim", lambda a, b: scores[a])
        report = evaluate(var_a, var_b)
        assert report.threshold == THRESHOLD
        assert report.conflicting == {FACTOR_NAMES[1]}

    def test_gate_monotonicity_in_threshold(self):
        rng = random.Random(23)
        for _ in range(100):
            scores = {f"f{i}": rng.random() for i in range(6)}
            low, high = sorted((rng.random(), rng.random()))
            assert (
                SimilarityReport(scores, low).conflicting
                <= SimilarityReport(scores, high).conflicting
            )


class TestReconcile:
    def test_no_conflicts_returns_variant_a_stable(self):
        var_a, var_b = _variant_pair()
        report = evaluate(var_a, var_b)
        calls = []
        record = reconcile(var_a, var_b, report, lambda *a: calls.append(a) or "x")
        assert record.status == "stable"
        assert not calls
        for name in FACTOR_NAMES:
            assert record.fields[name].text == var_a.fields[name].text
            assert record.fields[name].provenance == "variant_a"
            assert record.fields[name].similarity == 1.0

    def test_single_conflict_refined_in_one_round(self):
        target = FACTOR_NAMES[3]
        var_a, var_b = _variant_pair(corrupt=(target,))
        report = evaluate(var_a, var_b)
        calls = []

        def refine(name, value_a, value_b):
            calls.append((name, value_a, value_b))
            return value_a

        record = reconcile(var_a, var_b, report, refine)
        assert record.status == "refined"
        assert [c[0] for c in calls] == [target]
        assert calls[0][1] == var_a.fields[target].text
        assert calls[0][2] == var_b.fields[target].text
        refined = record.fields[target]
        assert refined.provenance == "refined"
        assert refined.repair_rounds == 1
        assert refined.similarity == pytest.approx(1.0)
        for name in FACTOR_NAMES:
            if name != target:
                assert record.fields[name].text == var_a.fields[name].text
                assert record.fields[name].repair_rounds == 0

    def test_k_conflicts_mean_k_refiner_calls_in_round_one(self):
        for k in (1, 2, 4, 6):
            corrupt = FACTOR_NAMES[:k]
            var_a, var_b = _variant_pair(corrupt=corrupt)
            report = evaluate(var_a, var_b)
            assert report.conflicting == frozenset(corrupt)
            calls = []
            record = reconcile(var_a, var_b, report, lambda n, a, b: calls.append(n) or a)
            assert len(calls) == k
            assert record.status == "refined"

    def test_a_refinement_scoring_exactly_the_threshold_is_resolved(self, monkeypatch):
        target = FACTOR_NAMES[0]
        var_a, var_b = _variant_pair(corrupt=(target,))
        report = evaluate(var_a, var_b)
        monkeypatch.setattr(reliability, "soft_sim", lambda a, b: THRESHOLD)
        record = reconcile(var_a, var_b, report, lambda n, a, b: "a new middle ground")
        assert record.status == "refined"
        field = record.fields[target]
        assert field.repair_rounds == 1
        assert field.similarity == THRESHOLD
        assert field.text == "a new middle ground"

    def test_hopeless_refiner_exhausts_rounds_to_low_confidence(self):
        target = FACTOR_NAMES[0]
        var_a, var_b = _variant_pair(corrupt=(target,))
        report = evaluate(var_a, var_b)
        calls = []

        def hopeless(name, value_a, value_b):
            calls.append(name)
            return f"still totally different nonsense {len(calls)}"

        record = reconcile(var_a, var_b, report, hopeless)
        assert record.status == "low_confidence"
        assert len(calls) == MAX_REPAIR_ROUNDS
        field = record.fields[target]
        assert field.repair_rounds == MAX_REPAIR_ROUNDS
        assert field.similarity < THRESHOLD
        assert field.text == f"still totally different nonsense {len(calls)}"

    def test_second_round_sees_previous_refinement_as_competitor(self):
        target = FACTOR_NAMES[1]
        var_a, var_b = _variant_pair(corrupt=(target,))
        report = evaluate(var_a, var_b)
        seen = []

        def refine(name, value_a, value_b):
            seen.append(value_b)
            if len(seen) == 1:
                return "first attempt still unrelated text entirely"
            return value_a

        record = reconcile(var_a, var_b, report, refine)
        assert record.status == "refined"
        assert seen[0] == var_b.fields[target].text
        assert seen[1] == "first attempt still unrelated text entirely"
        assert record.fields[target].repair_rounds == 2

    def test_refiner_siding_with_the_competing_value_is_asked_once(self, monkeypatch):
        target = FACTOR_NAMES[2]
        var_a, var_b = _variant_pair(corrupt=(target,))
        report = evaluate(var_a, var_b)
        calls = []
        scored = []

        def counted_soft_sim(*args, **kwargs):
            scored.append(args)
            return soft_sim(*args, **kwargs)

        def side_with_b(name, value_a, value_b):
            calls.append((name, value_a, value_b))
            return value_b

        monkeypatch.setattr(reliability, "soft_sim", counted_soft_sim)
        record = reconcile(var_a, var_b, report, side_with_b)
        assert calls == [(target, var_a.fields[target].text, var_b.fields[target].text)]
        assert scored == []
        assert record.status == "low_confidence"
        field = record.fields[target]
        assert field.repair_rounds == 1
        assert field.text == var_b.fields[target].text
        assert field.similarity == report.per_field[target]

    def test_a_repeated_refinement_ends_the_repair_loop(self, monkeypatch):
        target = FACTOR_NAMES[4]
        var_a, var_b = _variant_pair(corrupt=(target,))
        report = evaluate(var_a, var_b)
        # Above the budget of 2, so that only the repeated answer can end the loop early.
        monkeypatch.setattr(reliability, "MAX_REPAIR_ROUNDS", 3)
        seen = []

        def stubborn(name, value_a, value_b):
            seen.append(value_b)
            return "X"

        record = reconcile(var_a, var_b, report, stubborn)
        assert seen == [var_b.fields[target].text, "X"]
        field = record.fields[target]
        assert field.repair_rounds == 2
        assert field.text == "X"
        assert field.similarity == soft_sim("X", var_a.fields[target].text)
        assert record.status == "low_confidence"

    def test_refiner_failure_is_labeled_with_field(self):
        target = FACTOR_NAMES[5]
        var_a, var_b = _variant_pair(corrupt=(target,))
        report = evaluate(var_a, var_b)

        def broken(name, value_a, value_b):
            raise RuntimeError("backend down")

        with pytest.raises(RefinerError, match=target):
            reconcile(var_a, var_b, report, broken)
