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

The third test replays the set through the CLI in a child process under
each other Python that CI tests, when one starts: the one on ``PATH``, else
a pyenv build of that version under ``$PYENV_ROOT`` (default ``~/.pyenv``).
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import urbanmas
from urbanmas.cli import main

from conftest import FIXTURES

GOLDEN = FIXTURES / "golden"
SRC = Path(urbanmas.__file__).resolve().parent.parent
DATASET = str(FIXTURES / "samples.jsonl")
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


def replay_commands(factor_dir: Path, out: Path, workers: str) -> list[list[str]]:
    """The ``factors`` and ``predict`` arguments of a replay of the golden set."""
    common = ["--backend", "replay", "--cassette", str(GOLDEN / "cassette.jsonl"),
              "--tasks", "running_amount", "--factor-dir", str(factor_dir), "--out", str(out),
              "--workers", workers]
    return [["factors", *common], ["predict", *common, "--dataset", DATASET, *VARIANT_FLAGS]]


def assert_pinned_outputs(factor_dir: Path, out: Path) -> None:
    assert (factor_dir / FACTOR_CACHE).read_bytes() == (GOLDEN / "factors" / FACTOR_CACHE).read_bytes()
    for name in ("predictions.jsonl", "similarity_reports.jsonl"):
        assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name
    assert audit_digest(out / "audit") == (GOLDEN / "audit.sha256").read_text().strip()


def test_replay_of_the_golden_cassette_reproduces_the_pinned_outputs(tmp_path):
    factor_dir, out = tmp_path / "factors", tmp_path / "out"
    for argv in replay_commands(factor_dir, out, "2"):
        assert main(argv) == 0
    assert_pinned_outputs(factor_dir, out)


# The versions CI tests, less the one running this suite.
OTHER_PYTHONS = [f"python3.{minor}" for minor in range(10, 14) if minor != sys.version_info.minor]


def interpreter_candidates(python: str) -> list[str]:
    """``python`` on ``PATH``, then the pyenv builds of its version.

    A pyenv shim is on ``PATH`` for every installed version, but it exits
    127 when no version is selected; the build itself still starts.
    """
    root = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    version = python.removeprefix("python")
    builds = sorted(str(p) for p in root.glob(f"versions/{version}.*/bin/{python}"))
    return [path for path in (shutil.which(python), *builds) if path]


@pytest.mark.parametrize("python", OTHER_PYTHONS)
def test_replay_under_another_python_reproduces_the_pinned_outputs(tmp_path, python):
    """The CLI in development mode with warnings as errors, at 1 and 4 workers."""
    refusals = []
    for path in interpreter_candidates(python):
        probe = subprocess.run([path, "-c", "pass"], capture_output=True, text=True, timeout=60)
        if probe.returncode == 0:
            break
        said = "".join((probe.stderr or probe.stdout).strip().splitlines()[:1])
        refusals.append(f"{python} ({path}) cannot start: exit {probe.returncode}: {said}")
    else:
        pytest.skip("; ".join(refusals) or f"{python} is not on PATH")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for workers in ("1", "4"):
        factor_dir, out = tmp_path / f"factors_{workers}", tmp_path / f"out_{workers}"
        for argv in replay_commands(factor_dir, out, workers):
            done = subprocess.run(
                [path, "-X", "dev", "-W", "error", "-m", "urbanmas.cli", *argv],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
        assert_pinned_outputs(factor_dir, out)


def test_evaluate_of_the_golden_predictions_reproduces_the_pinned_reports(tmp_path):
    """Scores the pinned predictions against the fixture samples' ground
    truth. Regenerate the pinned file from the repository root, only when a
    change to the scores or their format is intended::

        G=tests/fixtures/golden; OUT=$(mktemp -d); export PYTHONPATH=src
        python -m urbanmas.cli evaluate --dataset tests/fixtures/samples.jsonl \\
            --predictions $G/predictions.jsonl --out $OUT
        cp $OUT/reports.csv $G/
    """
    out = tmp_path / "out"
    assert main(["evaluate", "--dataset", DATASET,
                 "--predictions", str(GOLDEN / "predictions.jsonl"), "--out", str(out)]) == 0
    assert (out / "reports.csv").read_bytes() == (GOLDEN / "reports.csv").read_bytes()


def test_recording_at_any_width_reproduces_the_committed_cassette(tmp_path):
    recorded = []
    for workers in ("1", "4"):
        run = tmp_path / f"workers_{workers}"
        cassette = run / "cassette.jsonl"
        common = ["--backend", "record", "--record-source", "mock", "--cassette", str(cassette),
                  "--tasks", "running_amount", "--factor-dir", str(run / "factors"),
                  "--out", str(run / "out"), "--workers", workers]
        assert main(["factors", *common]) == 0
        assert main(["predict", *common, "--dataset", DATASET, *VARIANT_FLAGS]) == 0
        recorded.append(cassette.read_bytes())
    assert recorded[0] == recorded[1] == (GOLDEN / "cassette.jsonl").read_bytes()
