"""The benchmark's tracer names program attributes and pool modules; a rename
in the package must show up here, not only in a traced benchmark run."""

import ast
import importlib
import importlib.util
from pathlib import Path

from urbanmas.cli import main

from conftest import FIXTURES

ROOT = Path(__file__).resolve().parent.parent


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _imports_thread_pool(path: Path) -> bool:
    return any(
        isinstance(node, ast.ImportFrom) and any(a.name == "ThreadPoolExecutor" for a in node.names)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
    )


def test_every_wrapped_name_resolves_to_a_callable():
    for module, attr, _span in _spans().WRAPPED:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


def test_every_module_with_a_thread_pool_is_a_pool_module():
    pooled = {
        f"urbanmas.{path.stem}"
        for path in (ROOT / "src" / "urbanmas").glob("*.py")
        if _imports_thread_pool(path)
    }
    assert pooled
    assert pooled <= set(_spans().POOL_MODULES)


def test_a_traced_factors_and_predict_run_records_every_layer(tmp_path):
    tracer = _spans().Tracer()
    common = ["--backend", "mock", "--tasks", "running_amount",
              "--factor-dir", str(tmp_path / "factors"), "--out", str(tmp_path / "out")]
    tracer.install()
    try:
        assert main(["factors", *common]) == 0
        assert main([
            "predict", *common, "--dataset", str(FIXTURES / "samples.jsonl"),
            "--variant", "full", "--variant", "no_factors",
            "--variant", "no_reliability", "--variant", "single_llm",
        ]) == 0
    finally:
        tracer.uninstall()
    tracer.check_coverage()
