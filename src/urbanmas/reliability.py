"""Hybrid soft similarity and the consistency gate between extraction variants.

Two independently generated extraction variants are compared field by field.
Texts are normalized (lowercased, punctuation stripped, whitespace collapsed)
and scored with a weighted blend of token-set Jaccard overlap (weight 0.4)
and gestalt sequence matching (weight 0.6). Fields scoring below the 0.72
stability threshold are regenerated one at a time, for at most 2 refiner
calls each, and a field whose refiner answers with the value it was shown
as competing is asked no more; everything at or above the gate is
byte-preserved from variant A. These four values are the method's
constants, not settings.

Normalization removes exactly: every character whose Unicode general
category starts with ``P`` (all punctuation categories), plus the symbols
``# $ + < = > | ~``. No other characters are touched. It is one
``str.translate`` pass after ``lower()``; the table fills lazily, deciding
each code point the first time one is seen.

The gestalt ratio follows Ratcliff/Obershelp matching (Dr. Dobb's Journal,
July 1988): recursively find the longest common contiguous block (ties
broken by earliest position in the first operand, then in the second) and
match the flanking regions, giving 2*M / (len(a) + len(b)). It is computed
exactly without difflib, and equals
``SequenceMatcher(None, a, b, autojunk=False).ratio()``. Raw gestalt
matching is order-dependent, so the operands are evaluated in
lexicographic order to make the score symmetric.

Operands that normalize to the same string score exactly 1.0 at once:
both parts are 1.0 there, and ``0.4 + 0.6 == 1.0`` in IEEE doubles.
"""

from __future__ import annotations

import logging
import unicodedata
from typing import Callable

from .domain import FieldValue, SimilarityReport, UrbanInfoRecord
from .errors import FieldKeyMismatchError, RefinerError

logger = logging.getLogger(__name__)

THRESHOLD = 0.72
JACCARD_WEIGHT = 0.4
SEQ_WEIGHT = 0.6
MAX_REPAIR_ROUNDS = 2

# Symbol characters removed alongside Unicode P* during normalization.
_EXTRA_PUNCTUATION = set("#$+<=>|~")


class _RemovalTable(dict):
    """``str.translate`` table that decides each code point on first sight:
    ``None`` (removed) for punctuation, the code point itself (kept) otherwise."""

    def __missing__(self, code: int) -> int | None:
        ch = chr(code)
        removed = ch in _EXTRA_PUNCTUATION or unicodedata.category(ch).startswith("P")
        value = self[code] = None if removed else code
        return value


_REMOVAL_TABLE = _RemovalTable()


def normalize(text: str) -> str:
    """Lowercase, strip punctuation, collapse whitespace. Idempotent."""
    return " ".join(text.lower().translate(_REMOVAL_TABLE).split())


def jaccard(a: str, b: str) -> float:
    """Token-set overlap of two already-normalized texts.

    Plain set semantics over whitespace tokens; two empty token sets
    count as identical (1.0).
    """
    tokens_a = set(a.split())
    tokens_b = set(b.split())
    if not tokens_a and not tokens_b:
        return 1.0
    union = tokens_a | tokens_b
    return len(tokens_a & tokens_b) / len(union)


def _matched_chars(a: str, b: str) -> int:
    """Characters that Ratcliff/Obershelp matching pairs up between a and b.

    Each range takes its longest common block, earliest in ``a`` and then
    earliest in ``b``, and the ranges on either side of it are matched in
    turn. ``k`` only grows: at each later start in ``a`` only a block
    longer than the best so far is looked for.
    """
    matched = 0
    ranges = [(0, len(a), 0, len(b))]
    while ranges:
        alo, ahi, blo, bhi = ranges.pop()
        sub_a, sub_b = a[alo:ahi], b[blo:bhi]
        n = len(sub_a)
        i = k = best = 0
        while i + k < n:
            if sub_a[i:i + k + 1] in sub_b:
                best, k = i, k + 1
            else:
                i += 1
        if not k:
            continue
        i, j = alo + best, blo + sub_b.find(sub_a[best:best + k])
        matched += k
        if alo < i and blo < j:
            ranges.append((alo, i, blo, j))
        if i + k < ahi and j + k < bhi:
            ranges.append((i + k, ahi, j + k, bhi))
    return matched


def seq_ratio(a: str, b: str) -> float:
    """Gestalt (Ratcliff/Obershelp) similarity of two already-normalized texts.

    Operands are compared in lexicographic order so the score is symmetric
    despite the algorithm's order-dependent tie-breaking.
    """
    if a > b:
        a, b = b, a
    if not a and not b:
        return 1.0
    return 2.0 * _matched_chars(a, b) / (len(a) + len(b))


def soft_sim(a: str, b: str) -> float:
    """Hybrid soft similarity: weighted Jaccard + gestalt ratio over normalized inputs."""
    na, nb = normalize(a), normalize(b)
    if na == nb:
        return 1.0
    return JACCARD_WEIGHT * jaccard(na, nb) + SEQ_WEIGHT * seq_ratio(na, nb)


def evaluate(var_a: UrbanInfoRecord, var_b: UrbanInfoRecord) -> SimilarityReport:
    """Score two variants field by field and flag the conflicting fields."""
    if var_a.field_names != var_b.field_names:
        raise FieldKeyMismatchError(
            f"variant field keys differ: {var_a.field_names} vs {var_b.field_names}"
        )
    per_field = {
        name: soft_sim(var_a.fields[name].text, var_b.fields[name].text)
        for name in var_a.field_names
    }
    return SimilarityReport(per_field, THRESHOLD)


RefineFn = Callable[[str, str, str], str]


def reconcile(
    var_a: UrbanInfoRecord,
    var_b: UrbanInfoRecord,
    report: SimilarityReport,
    refine_fn: RefineFn,
) -> UrbanInfoRecord:
    """Settle variant A into a reliable record, repairing only conflicts.

    Each field that ``report`` flags as conflicting is regenerated through
    ``refine_fn(field_name, value_a, value_b)`` and re-scored against
    variant A's value, up to ``MAX_REPAIR_ROUNDS`` times; later rounds
    pass the previous refinement as the competing value. A refinement equal
    to the competing value ends the field's loop: the next round would ask
    the same again, so the field keeps that text and the score already held
    for it (the report's in round one) and stays unresolved. A field's
    ``repair_rounds`` counts the refiner calls made for it. Fields that
    never reach the threshold keep their last refined text and the record
    settles as ``low_confidence``; with no conflicting fields it settles as
    ``stable``. Non-conflicting fields are byte-preserved from variant A.
    """
    fields: dict[str, FieldValue] = {}
    unresolved = 0
    for name, value in var_a.fields.items():
        if name not in report.conflicting:
            fields[name] = FieldValue(
                text=value.text,
                provenance=value.provenance,
                similarity=report.per_field[name],
                repair_rounds=0,
            )
            continue

        competing = var_b.fields[name].text
        refined = value.text
        score = report.per_field[name]
        rounds = 0
        resolved = False
        while rounds < MAX_REPAIR_ROUNDS:
            rounds += 1
            try:
                refined = refine_fn(name, value.text, competing)
            except Exception as exc:
                raise RefinerError(f"refiner failed for field {name!r}: {exc}") from exc
            if refined == competing:
                # The next round would send this round's request again, and
                # ``score`` already holds this text's score.
                break
            score = soft_sim(refined, value.text)
            if score >= THRESHOLD:
                resolved = True
                break
            competing = refined
        if not resolved:
            unresolved += 1
            logger.warning(
                "field %r still conflicting after %d repair rounds (score %.3f)",
                name, rounds, score,
            )
        fields[name] = FieldValue(
            text=refined or value.text,
            provenance="refined",
            similarity=score,
            repair_rounds=rounds,
        )

    status = "low_confidence" if unresolved else "refined" if report.conflicting else "stable"
    return var_a.settle(status, fields)
