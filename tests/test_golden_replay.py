"""Golden replay: a committed cassette pins request fingerprints and output bytes.

The acceptance suite's replay check (C7) compares replay runs with each
other inside one checkout. This test compares a replay against files
committed with the code, so a change to any prompt, request fingerprint,
gate decision or output format shows up as a diff across commits.

The set under ``tests/fixtures/golden/`` was recorded from the mock backend:
``factors``, then ``predict`` on ``tests/fixtures/samples.jsonl`` for task
``running_amount`` and all four variants. ``record`` leaves the cassette
sorted by fingerprint, so these commands reproduce every committed file
byte for byte, at any ``--workers``; the second test checks that for the
cassette. Regenerate the set from the repository root, only when an output
change is intended::

    G=tests/fixtures/golden; OUT=$(mktemp -d); export PYTHONPATH=src
    rm -rf $G/cassette.jsonl $G/factors
    python -m urbanmas.cli factors --backend record --record-source mock \\
        --cassette $G/cassette.jsonl --tasks running_amount \\
        --factor-dir $G/factors --out $OUT --workers 1
    python -m urbanmas.cli predict --backend record --record-source mock \\
        --cassette $G/cassette.jsonl --dataset tests/fixtures/samples.jsonl \\
        --tasks running_amount --variant full --variant no_factors \\
        --variant no_reliability --variant single_llm \\
        --factor-dir $G/factors --out $OUT --workers 1
    cp $OUT/predictions.jsonl $OUT/similarity_reports.jsonl $G/
    (cd $OUT/audit && find . -type f | LC_ALL=C sort | xargs sha256sum) \\
        | sha256sum | cut -c1-64 > $G/audit.sha256
"""

import hashlib
from pathlib import Path

from urbanmas.cli import main

from conftest import FIXTURES

GOLDEN = FIXTURES / "golden"
FACTOR_CACHE = "factors_running_amount.json"
VARIANT_FLAGS = (
    "--variant", "full", "--variant", "no_factors",
    "--variant", "no_reliability", "--variant", "single_llm",
)


def audit_digest(audit_dir: Path) -> str:
    """SHA-256 of the ``sha256sum`` listing of every audit file, sorted by path."""
    files = sorted(
        (p.relative_to(audit_dir).as_posix(), p) for p in audit_dir.rglob("*") if p.is_file()
    )
    listing = "".join(
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}  ./{rel}\n" for rel, p in files
    )
    return hashlib.sha256(listing.encode()).hexdigest()


def test_replay_of_the_golden_cassette_reproduces_the_pinned_outputs(tmp_path):
    cassette = str(GOLDEN / "cassette.jsonl")
    factor_dir, out = tmp_path / "factors", tmp_path / "out"
    common = ["--backend", "replay", "--cassette", cassette, "--tasks", "running_amount",
              "--factor-dir", str(factor_dir), "--out", str(out), "--workers", "2"]
    assert main(["factors", *common]) == 0
    assert (factor_dir / FACTOR_CACHE).read_bytes() == (GOLDEN / "factors" / FACTOR_CACHE).read_bytes()

    dataset = str(FIXTURES / "samples.jsonl")
    assert main(["predict", *common, "--dataset", dataset, *VARIANT_FLAGS]) == 0
    for name in ("predictions.jsonl", "similarity_reports.jsonl"):
        assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name
    assert audit_digest(out / "audit") == (GOLDEN / "audit.sha256").read_text().strip()


def test_recording_at_any_width_reproduces_the_committed_cassette(tmp_path):
    dataset = str(FIXTURES / "samples.jsonl")
    recorded = []
    for workers in ("1", "4"):
        run = tmp_path / f"workers_{workers}"
        cassette = run / "cassette.jsonl"
        common = ["--backend", "record", "--record-source", "mock", "--cassette", str(cassette),
                  "--tasks", "running_amount", "--factor-dir", str(run / "factors"),
                  "--out", str(run / "out"), "--workers", workers]
        assert main(["factors", *common]) == 0
        assert main(["predict", *common, "--dataset", dataset, *VARIANT_FLAGS]) == 0
        recorded.append(cassette.read_bytes())
    assert recorded[0] == recorded[1] == (GOLDEN / "cassette.jsonl").read_bytes()
