"""Operator entry point: staged subcommands over a shared run configuration.

Stages mirror the pipeline layers: ``factors`` materializes the per-task
factor caches, ``ingest`` resolves location context, ``predict`` runs the
prediction pipelines, and ``evaluate`` scores predictions against ground
truth. Every command writes a manifest (config snapshot, backend mode,
dataset and cassette fingerprints) sufficient to reproduce the run in
replay mode.

Config file is JSON with the same keys as the flags; flags override the
file. Environment: URBANMAS_API_KEY, URBANMAS_API_BASE, URBANMAS_MODEL.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from . import __version__
from .backend import CassetteBackend, ChatBackend, LiveBackend, LiveConfig, MockBackend
from .domain import (
    LocationSample,
    PAIRS,
    TaskSpec,
    builtin_task,
    load_samples,
    save_samples,
    write_text_atomic,
)
from .errors import ConfigError, EnrichmentError, UrbanMasError
from .evaluation import (
    load_ground_truth_csv,
    render_report_table,
    rescale_to_unit_interval_times_ten,
    score_outcome,
    write_reports_csv,
)
from .geo import GeoClient, IngestConfig
from .guidance import factor_cache_path, guide
from .pipeline import (
    GUIDED_VARIANTS,
    VARIANTS,
    load_predictions,
    run_predictions,
    write_audit,
    write_predictions,
    write_similarity_log,
)
from .reliability import ReliabilityConfig

logger = logging.getLogger(__name__)

BACKEND_MODES = ("live", "mock", "replay", "record")


@dataclass
class RunConfig:
    """Resolved configuration for one CLI invocation."""

    backend: str = "mock"
    dataset: str = ""
    tasks: tuple[str, ...] = ("running_amount",)
    custom_tasks: tuple[TaskSpec, ...] = ()
    variants: tuple[str, ...] = ("full",)
    workers: int = 4
    offline: bool = False
    cassette: str = ""
    record_source: str = "live"
    out_dir: str = "runs/out"
    cache_dir: str = "runs/geocache"
    factor_dir: str = "runs/factors"
    poi_radius_m: float = 300.0
    poi_limit: int = 25
    reliability: ReliabilityConfig = field(default_factory=ReliabilityConfig)
    model: str | None = None
    api_base: str | None = None
    temperature: float | None = None
    top_p: float | None = None
    requests_per_minute: float = 60.0

    def __post_init__(self) -> None:
        if self.backend not in BACKEND_MODES:
            raise ConfigError(f"backend: must be one of {BACKEND_MODES}, got {self.backend!r}")
        if self.record_source not in ("live", "mock"):
            raise ConfigError(f"record_source: must be 'live' or 'mock', got {self.record_source!r}")
        for key in ("workers", "poi_limit"):
            value = getattr(self, key)
            if not isinstance(value, int) or value < 1:
                raise ConfigError(f"{key}: must be an integer >= 1, got {value!r}")
        for key in ("poi_radius_m", "requests_per_minute"):
            value = getattr(self, key)
            if not isinstance(value, (int, float)) or value <= 0:
                raise ConfigError(f"{key}: must be a number > 0, got {value!r}")
        bad_ids = [t for t in self.tasks if not isinstance(t, str)]
        if bad_ids:
            raise ConfigError(f"tasks: task ids must be strings, got {bad_ids}")
        unknown = [v for v in self.variants if v not in VARIANTS]
        if unknown:
            raise ConfigError(f"variants: unknown variants {unknown} (choose from {VARIANTS})")
        if self.backend in ("replay", "record") and not self.cassette:
            raise ConfigError(f"cassette: backend {self.backend!r} requires --cassette")

    def resolve_tasks(self) -> list[TaskSpec]:
        """The selected tasks in order; a repeated id counts once."""
        custom = {t.id: t for t in self.custom_tasks}
        resolved = []
        for task_id in dict.fromkeys(self.tasks):
            try:
                resolved.append(custom.get(task_id) or builtin_task(task_id))
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        if not resolved:
            raise ConfigError("no tasks selected")
        return resolved


def _known_keys(data: dict, cls: type) -> dict:
    """``data`` unchanged, after rejecting keys that are not fields of ``cls``."""
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown keys: {sorted(unknown)}")
    return data


def load_config(path: str | Path | None, overrides: dict) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus CLI overrides.

    Unknown keys are rejected at every level. An error names the file and
    the top-level key, as in ``run.json: reliability: unknown keys: [...]``
    or ``run.json: workers: must be an integer >= 1, got 'two'``.
    """
    data: dict = {}
    if path:
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: must hold a JSON object")
    key = ""  # the key being parsed; RunConfig names its own fields
    try:
        data.update({k: v for k, v in overrides.items() if v is not None})
        key = "custom_tasks: "
        custom_tasks = tuple(
            TaskSpec(**_known_keys(t, TaskSpec)) for t in data.pop("custom_tasks", ())
        )
        key = "reliability: "
        section = data.pop("reliability", {})
        reliability = ReliabilityConfig(**_known_keys(section, ReliabilityConfig))
        for name in ("tasks", "variants"):
            key = f"{name}: "
            if isinstance(data.get(name), str):
                data[name] = [v.strip() for v in data[name].split(",") if v.strip()]
            if name in data:
                data[name] = tuple(data[name])
        key = ""
        return RunConfig(
            custom_tasks=custom_tasks,
            reliability=reliability,
            **_known_keys(data, RunConfig),
        )
    except (AttributeError, TypeError, ValueError, ConfigError) as exc:
        where = f"{path}: " if path else ""
        raise ConfigError(f"{where}{key}{exc}") from exc


def make_backend(cfg: RunConfig) -> ChatBackend:
    """The pure mock for ``mock``; otherwise one read-through store.

    ``replay`` serves the cassette only; ``record`` asks ``--record-source``
    on a miss and appends to the cassette; ``live`` asks the endpoint on a
    miss and keeps the store in memory, so it ignores ``--cassette``.
    """
    if cfg.backend == "mock":
        return MockBackend()
    if cfg.backend == "replay":
        return CassetteBackend(cfg.cassette)
    if cfg.backend == "record" and cfg.record_source == "mock":
        return CassetteBackend(cfg.cassette, MockBackend())
    live_cfg = LiveConfig.from_env(
        model=cfg.model,
        api_base=cfg.api_base,
        temperature=cfg.temperature,
        top_p=cfg.top_p,
        requests_per_minute=cfg.requests_per_minute,
    )
    return CassetteBackend(cfg.cassette if cfg.backend == "record" else None, LiveBackend(live_cfg))


def _sha256_file(path: str | Path) -> str:
    p = Path(path)
    if not path or not p.is_file():
        return ""
    return hashlib.sha256(p.read_bytes()).hexdigest()


def write_manifest(cfg: RunConfig, command: str) -> Path:
    manifest = {
        "command": command,
        "version": __version__,
        "backend_mode": cfg.backend,
        "dataset_sha256": _sha256_file(cfg.dataset),
        "cassette_sha256": _sha256_file(cfg.cassette),
        "config": asdict(cfg),
    }
    path = Path(cfg.out_dir) / "manifest.json"
    write_text_atomic(path, [json.dumps(manifest, indent=1, sort_keys=True)])
    return path


def _ingest_config(cfg: RunConfig) -> IngestConfig:
    return IngestConfig(
        cache_dir=Path(cfg.cache_dir),
        poi_radius_m=cfg.poi_radius_m,
        poi_limit=cfg.poi_limit,
        offline=cfg.offline,
    )


def _load_dataset(cfg: RunConfig) -> list[LocationSample]:
    if not cfg.dataset:
        raise ConfigError("--dataset is required for this command")
    try:
        samples = load_samples(cfg.dataset)
    except OSError as exc:
        raise ConfigError(f"{cfg.dataset}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not samples:
        raise ConfigError(f"dataset {cfg.dataset} contains no samples")
    return samples


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def cmd_factors(cfg: RunConfig) -> int:
    tasks = cfg.resolve_tasks()
    backend = make_backend(cfg)
    write_manifest(cfg, "factors")
    cached = {t.id for t in tasks if factor_cache_path(cfg.factor_dir, t.id).exists()}
    try:
        factor_maps = guide(tasks, backend, factor_dir=cfg.factor_dir, workers=cfg.workers)
    finally:
        backend.close()  # only guide() appends to a cassette
    for task in tasks:
        source = "cache" if task.id in cached else cfg.backend
        print(f"task={task.id} (from {source})")
        for d, r in PAIRS:
            fs = factor_maps[task.id][(d, r)]
            print(f"  [{d.value}, {r.value}]")
            for i, factor in enumerate(fs.factors, 1):
                print(f"    {i}. {factor.name}: {factor.description}")
    return 0


def cmd_ingest(cfg: RunConfig) -> int:
    samples = _load_dataset(cfg)
    client = GeoClient(_ingest_config(cfg))
    write_manifest(cfg, "ingest")

    enriched: dict[str, LocationSample] = {}
    hard_failures: dict[str, str] = {}

    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        futures = {s.id: pool.submit(client.enrich, s) for s in samples}
        for sample in samples:
            try:
                enriched[sample.id] = futures[sample.id].result()
            except EnrichmentError as exc:
                hard_failures[sample.id] = str(exc)
                enriched[sample.id] = sample

    out_path = Path(cfg.out_dir) / "enriched.jsonl"
    save_samples((enriched[s.id] for s in samples), out_path)

    with_address = sum(1 for s in enriched.values() if s.address)
    with_pois = sum(1 for s in enriched.values() if s.pois)
    total_requests = client.cache_hits + client.cache_misses
    hit_pct = 100.0 * client.cache_hits / total_requests if total_requests else 0.0
    print(f"ingested {len(samples)} sample(s) -> {out_path}")
    print(f"  with address: {with_address}; with POIs: {with_pois}")
    print(
        f"  cache hits: {client.cache_hits}/{total_requests} ({hit_pct:.0f}%); "
        f"network calls: {client.network_calls}"
    )
    if hard_failures:
        print(f"  failed completely: {len(hard_failures)}: {sorted(hard_failures)}")
    return 1 if len(hard_failures) == len(samples) else 0


def _replace_dir(new: Path, target: Path) -> None:
    """Move ``new`` to ``target`` in one rename. An existing ``target`` is
    renamed aside first and deleted afterwards, so ``target`` is never a
    mix of the two."""
    aside = target.with_name(f"{target.name}.{os.getpid()}.old")
    if target.exists():
        os.replace(target, aside)
    os.replace(new, target)
    shutil.rmtree(aside, ignore_errors=True)


def cmd_predict(cfg: RunConfig) -> int:
    samples = _load_dataset(cfg)
    tasks = cfg.resolve_tasks()
    backend = make_backend(cfg)
    write_manifest(cfg, "predict")

    factor_maps = {}
    if any(v in GUIDED_VARIANTS for v in cfg.variants):
        from .guidance import load_factor_cache

        for task in tasks:
            cache_path = factor_cache_path(cfg.factor_dir, task.id)
            if not cache_path.exists():
                raise ConfigError(
                    f"no factor cache for task {task.id!r} at {cache_path}; "
                    f"run `urbanmas factors --tasks {task.id}` first"
                )
            factor_maps[task.id] = load_factor_cache(cache_path, task)

    # Each job writes its audit file into a staging tree as it ends; the
    # tree replaces audit/ whole once every job has ended. The temp files
    # and trees that a killed run left behind go first.
    out_dir = Path(cfg.out_dir)
    for stale in [*out_dir.glob("*.tmp"), *out_dir.glob("audit.*.old")]:
        if stale.is_dir():
            shutil.rmtree(stale)
        else:
            stale.unlink()
    staging = out_dir / f"audit.{os.getpid()}.tmp"
    for variant in cfg.variants:
        for task in tasks:
            (staging / variant / task.id).mkdir(parents=True, exist_ok=True)
    try:
        try:
            outcome = run_predictions(
                samples, tasks, cfg.variants, backend, cfg.reliability, factor_maps,
                workers=cfg.workers,
                # write_audit is looked up per call, so a wrapper set on this module sees each job.
                on_job_end=lambda run: write_audit(run, staging),
            )
        finally:
            backend.close()
        write_predictions(outcome.predictions, out_dir / "predictions.jsonl")
        _replace_dir(staging, out_dir / "audit")
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    write_similarity_log(outcome, out_dir / "similarity_reports.jsonl")

    print(
        f"predicted {len(outcome.predictions)} (location, task, variant) job(s) "
        f"-> {out_dir / 'predictions.jsonl'}"
    )
    if outcome.clamp_count:
        print(f"  clamped values: {outcome.clamp_count}")
    if outcome.failures:
        print(f"  failed jobs: {len(outcome.failures)} (excluded)")
        for failure in outcome.failures:
            print(
                f"    {failure['location_id']}/{failure['task_id']}/{failure['variant']}: "
                f"{failure['error']}"
            )
    return 1 if outcome.failures else 0


def cmd_evaluate(cfg: RunConfig, predictions_path: str | None, truth_path: str | None,
                 rescale_truth: bool) -> int:
    pred_file = Path(predictions_path or (Path(cfg.out_dir) / "predictions.jsonl"))
    if not pred_file.is_file():
        raise ConfigError(f"predictions file not found: {pred_file}")
    try:
        predictions = load_predictions(pred_file)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not predictions:
        raise ConfigError(f"no predictions in {pred_file}")

    if truth_path:
        try:
            truths = load_ground_truth_csv(truth_path)
        except OSError as exc:
            raise ConfigError(f"{truth_path}: {exc.strerror or exc}") from exc
        if rescale_truth:
            by_task: dict[str, list[tuple[str, float]]] = {}
            for (loc, task_id), value in truths.items():
                by_task.setdefault(task_id, []).append((loc, value))
            truths = {}
            for task_id, rows in by_task.items():
                rescaled = rescale_to_unit_interval_times_ten([v for _, v in rows])
                truths.update({(loc, task_id): v for (loc, _), v in zip(rows, rescaled)})
        out_of_range = {
            key: v for key, v in truths.items() if not 0.0 <= v <= 10.0
        }
        if out_of_range:
            raise ConfigError(
                f"{len(out_of_range)} ground-truth value(s) outside [0, 10]; "
                "pass --rescale-truth to min-max rescale raw values"
            )
    else:
        samples = _load_dataset(cfg)
        truths = {
            (s.id, task_id): value for s in samples for task_id, value in s.ground_truth.items()
        }
    if not truths:
        raise ConfigError("no ground truth available (dataset has none and no --truth given)")

    reports = score_outcome(predictions, truths)
    write_manifest(cfg, "evaluate")
    out_dir = Path(cfg.out_dir)
    write_reports_csv(reports, out_dir / "reports.csv")
    table = render_report_table(reports)
    write_text_atomic(out_dir / "reports.txt", [table, "\n"])
    print(table)
    return 0


# --------------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--backend", choices=BACKEND_MODES, help="chat backend mode")
    parser.add_argument("--dataset", help="location samples (line-delimited JSON)")
    parser.add_argument("--tasks", help="comma-separated task ids")
    parser.add_argument(
        "--variant", action="append", dest="variants", choices=VARIANTS,
        help="pipeline variant (repeatable)",
    )
    parser.add_argument("--offline", action="store_true", default=None,
                        help="serve geo data from cache only; never touch the network")
    parser.add_argument("--cassette", help="cassette path for replay/record backends")
    parser.add_argument("--out", dest="out_dir", help="run output directory")
    parser.add_argument("--workers", type=int, help="worker pool width")
    parser.add_argument("--cache-dir", dest="cache_dir", help="geo cache directory")
    parser.add_argument("--factor-dir", dest="factor_dir", help="factor cache directory")
    parser.add_argument("--record-source", dest="record_source", choices=("live", "mock"),
                        help="inner backend for record mode")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="urbanmas",
        description="Multi-agent zero-shot prediction pipeline for human-centered urban tasks.",
    )
    parser.add_argument("--version", action="version", version=f"urbanmas {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_factors = sub.add_parser("factors", help="research and cache predictive factor sets")
    _add_common(p_factors)

    p_ingest = sub.add_parser("ingest", help="resolve location context (address, POIs, imagery)")
    _add_common(p_ingest)

    p_predict = sub.add_parser("predict", help="run prediction pipelines")
    _add_common(p_predict)

    p_eval = sub.add_parser("evaluate", help="score predictions against ground truth")
    _add_common(p_eval)
    p_eval.add_argument("--predictions", help="predictions file (default: <out>/predictions.jsonl)")
    p_eval.add_argument("--truth", help="ground-truth CSV (location_id, task_id, raw_value)")
    p_eval.add_argument("--rescale-truth", action="store_true",
                        help="min-max rescale raw truth values onto [0, 10]")

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )
    args = build_parser().parse_args(argv)
    config_keys = {f.name for f in fields(RunConfig)}
    overrides = {k: v for k, v in vars(args).items() if k in config_keys}
    try:
        cfg = load_config(args.config, overrides)
        if args.command == "factors":
            return cmd_factors(cfg)
        if args.command == "ingest":
            return cmd_ingest(cfg)
        if args.command == "predict":
            return cmd_predict(cfg)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args.predictions, args.truth, args.rescale_truth)
        raise ConfigError(f"unknown command {args.command!r}")
    except UrbanMasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
