"""The urbanmas benchmark: one command, three workloads, CLI-stage timing.

    python3 perfbench/run.py --workload mock_matrix --seed 1 --seconds 30 --trace 0

Run it from the repository root. It builds nothing: it imports the package
from ``src/`` and drives the user-facing stages in-process through
``urbanmas.cli.main``, first ``factors`` (the set-up), then ``predict``
again and again for ``--seconds``, on seeded synthetic locations. Every
workload runs the full 4-variant x 3-task matrix; each worker takes its
next job when its last one ends (a closed loop). ``record_latency`` runs
``--workers`` equal to the CPUs this process may use; the CPU-bound
workloads confine the process to one CPU and run one worker. See
``perfbench/NOTES.md`` for why each workload exists and what each metric
should move.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced ``predict`` stages and prints the per-layer metrics
(see ``spans.py``). Either way the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``,
and the exit code is 1 when a correctness check fails. Work files go to
``.bench_work/<workload>/`` under the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))

from dataset import TASKS, write_dataset  # noqa: E402
from spans import (  # noqa: E402
    CALL_KINDS, CHAT_SPAN, NAME, START, END, ATTRS, SPAN_ID, PARENT,
    CountingBackend, TraceError, Tracer,
)

VARIANTS = ("full", "no_factors", "no_reliability", "single_llm")
# Variants whose settled records carry a similarity report.
REPORTED_VARIANTS = ("full", "no_factors")


@dataclass(frozen=True)
class Workload:
    backend: str
    locations: int
    # Run on one CPU with one worker; set for the CPU-bound workloads. The
    # program holds the interpreter lock for its own work, so a second worker
    # adds no throughput, and the lock's hand-offs between two CPUs make jobs/s
    # follow the shared host's thread wake-up latency instead of the program.
    one_cpu: bool


# Sizes keep one predict stage at a few seconds (mock, replay) or half a run
# (record), so a run holds several stages; see NOTES.md for why each exists.
WORKLOADS = {
    "mock_matrix": Workload("mock", 60, one_cpu=True),
    "record_latency": Workload("record", 4, one_cpu=False),
    "replay_matrix": Workload("replay", 10, one_cpu=True),
}
# Simulated endpoint latency for record_latency: base plus per output character.
LATENCY_BASE_MS = 100.0
LATENCY_PER_CHAR_MS = 0.03
# The factors stage runs SETUP_FIRST_REPEATS times before the first predict
# stage and again after every predict stage until SETUP_GAP_SECONDS have
# passed (at least once); setup_s is the median of all of them. Spreading
# the samples over the run keeps a short stage from reporting one moment's
# machine state.
SETUP_FIRST_REPEATS = 3
SETUP_GAP_SECONDS = 0.5
# High enough that LiveBackend's token bucket never binds.
REQUESTS_PER_MINUTE = 1_000_000.0


class BenchError(RuntimeError):
    """The benchmark could not run or its outputs are wrong."""


@dataclass
class PredictRun:
    wall_s: float
    cpu_s: float
    attempted: int
    predictions: int
    failures: int
    model_calls: int
    digest: str
    traced: bool
    endpoint: dict | None = None


@dataclass
class Result:
    correct: bool = True
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.correct = False
            self.problems.append(message)


# --------------------------------------------------------------------------
# Simulated endpoint process
# --------------------------------------------------------------------------

_LOOPBACK = urllib.request.build_opener(urllib.request.ProxyHandler({}))


class Endpoint:
    """The simulated chat endpoint in its own process; stopped on exit."""

    def __init__(self, seed: int, log, **options: float):
        argv = [sys.executable, str(HERE / "endpoint.py"), "--seed", str(seed)]
        for key, value in options.items():
            argv += [f"--{key.replace('_', '-')}", str(value)]
        self._proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log, text=True
        )
        line = self._proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise BenchError(f"simulated endpoint did not start (said {line!r})")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def _call(self, path: str, data: bytes | None = None) -> dict:
        with _LOOPBACK.open(urllib.request.Request(self.url + path, data=data), timeout=30) as r:
            return json.loads(r.read())

    def reset(self) -> None:
        self._call("/reset", b"{}")

    def stats(self) -> dict:
        return self._call("/stats")

    def close(self) -> None:
        if self._proc.stdin:
            self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        if self._proc.stdout:
            self._proc.stdout.close()

    def __enter__(self) -> "Endpoint":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# --------------------------------------------------------------------------
# Stages through the CLI
# --------------------------------------------------------------------------

def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Bench:
    def __init__(self, name: str, seed: int, work: Path, log):
        import urbanmas.cli

        self.cli = urbanmas.cli
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.log = log
        self.workers = len(os.sched_getaffinity(0))
        self.dataset = work / "locations.jsonl"
        self.attempted_per_run = write_dataset(self.dataset, seed, self.workload.locations) * len(
            TASKS) * len(VARIANTS)
        self.config = work / "config.json"
        self.endpoint: Endpoint | None = None
        self.cassette = ""
        self.tracer = Tracer()
        self._runs = 0

    def pin_one_cpu(self) -> None:
        """Confine this process, and the threads it starts from now on, to one CPU."""
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.workers = 1

    def write_config(self, api_base: str) -> None:
        doc = {"requests_per_minute": REQUESTS_PER_MINUTE}
        if api_base:
            doc["api_base"] = api_base
        self.config.write_text(json.dumps(doc), encoding="utf-8")

    def _argv(self, command: str, backend: str, factor_dir: Path, cassette: str) -> list[str]:
        argv = [
            command, "--config", str(self.config), "--backend", backend,
            "--tasks", ",".join(TASKS), "--factor-dir", str(factor_dir),
            "--workers", str(self.workers),
        ]
        if cassette:
            argv += ["--cassette", cassette]
        if backend == "record":
            argv += ["--record-source", "live"]
        return argv

    def run_cli(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(self.log):
            rc = self.cli.main(argv)
        self.log.write(out.getvalue())
        self.log.flush()
        return rc, out.getvalue()

    def factors(self, factor_dir: Path) -> float:
        """Run the factors stage from an empty factor directory; wall seconds."""
        if self.endpoint:
            self.endpoint.reset()
        cassette = self.cassette
        if self.workload.backend == "record":
            cassette = str(factor_dir / "cassette.jsonl")
        argv = self._argv("factors", self.workload.backend, factor_dir, cassette)
        argv += ["--out", str(factor_dir / "out")]
        started = time.perf_counter()
        rc, _ = self.run_cli(argv)
        wall = time.perf_counter() - started
        if rc != 0:
            raise BenchError(f"factors stage exited {rc}; see {self.log.name}")
        return wall

    def predict(self, factor_dir: Path, traced: bool) -> tuple[PredictRun, Path]:
        self._runs += 1
        out_dir = self.work / f"predict_{self._runs:03d}"
        cassette = self.cassette
        if self.workload.backend == "record":
            cassette = str(out_dir / "cassette.jsonl")
        argv = self._argv("predict", self.workload.backend, factor_dir, cassette)
        argv += ["--dataset", str(self.dataset), "--out", str(out_dir)]
        for variant in VARIANTS:
            argv += ["--variant", variant]
        if self.endpoint:
            self.endpoint.reset()

        counted: list[CountingBackend] = []
        if traced:
            self.tracer.install()
            patch = contextlib.nullcontext()
        else:
            patch = _count_calls(self.cli, counted)
        try:
            with patch, self.tracer.span("stage.predict") if traced else contextlib.nullcontext():
                cpu0 = time.process_time()
                wall0 = time.perf_counter()
                rc, stdout = self.run_cli(argv)
                wall = time.perf_counter() - wall0
                cpu = time.process_time() - cpu0
        finally:
            if traced:
                self.tracer.uninstall()

        stats = self.endpoint.stats() if self.endpoint else None
        failures = int(m.group(1)) if (m := re.search(r"failed jobs: (\d+)", stdout)) else 0
        if rc not in (0, 1) or (rc == 1) != (failures > 0):
            raise BenchError(f"predict stage exited {rc} with {failures} failure(s)")
        pred_path = out_dir / "predictions.jsonl"
        lines = pred_path.read_text(encoding="utf-8").splitlines()
        if stats is not None:
            model_calls = stats["requests"]
        elif counted:
            model_calls = counted[0].calls
        else:
            stage = self.tracer.spans[-1]  # the stage span closes after all of its children
            model_calls = sum(1 for s in self.tracer.spans
                              if s[NAME] == CHAT_SPAN and s[START] >= stage[START])
        run = PredictRun(
            wall_s=wall, cpu_s=cpu, attempted=self.attempted_per_run, predictions=len(lines),
            failures=failures, model_calls=model_calls, digest=_digest(pred_path),
            traced=traced, endpoint=stats,
        )
        return run, out_dir


@contextlib.contextmanager
def _count_calls(cli, counted: list):
    original = getattr(cli, "make_backend", None)
    if not callable(original):
        raise TraceError("urbanmas.cli.make_backend no longer exists; the benchmark must be updated")

    def make_backend(*args, **kwargs):
        backend = CountingBackend(original(*args, **kwargs))
        counted.append(backend)
        return backend

    cli.make_backend = make_backend
    try:
        yield
    finally:
        cli.make_backend = original


def check_outputs(result: Result, run: PredictRun, out_dir: Path, jobs: set) -> None:
    """Structural checks of one predict stage's outputs."""
    result.check(run.attempted == run.predictions + run.failures,
                 f"{out_dir.name}: attempted {run.attempted} != predictions {run.predictions}"
                 f" + failures {run.failures}")
    keys = []
    with_report = 0
    for line in (out_dir / "predictions.jsonl").read_text(encoding="utf-8").splitlines():
        pred = json.loads(line)
        keys.append((pred["location_id"], pred["task_id"], pred["variant"]))
        result.check(0.0 <= pred["value"] <= 10.0, f"{out_dir.name}: value out of [0, 10]: {pred}")
        with_report += pred["variant"] in REPORTED_VARIANTS
    result.check(len(set(keys)) == len(keys), f"{out_dir.name}: duplicate prediction keys")
    result.check(set(keys) <= jobs, f"{out_dir.name}: predictions for jobs never attempted")
    audits = sum(1 for _ in (out_dir / "audit").rglob("*.json"))
    result.check(audits == len(keys), f"{out_dir.name}: {audits} audit files for {len(keys)} jobs")
    sim_lines = len((out_dir / "similarity_reports.jsonl").read_text(encoding="utf-8").splitlines())
    result.check(sim_lines == 4 * with_report,
                 f"{out_dir.name}: {sim_lines} similarity lines, expected {4 * with_report}")
    result.check((out_dir / "manifest.json").is_file(), f"{out_dir.name}: no manifest.json")


# --------------------------------------------------------------------------
# Statistics
# --------------------------------------------------------------------------

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it (p50 below 40 samples)."""
    n = len(values)
    if not n:
        return 0.0, 0.0, 0
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10:
            return percentile(values, pct), pct, n
    return percentile(values, 50.0), 50.0, n


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def in_flight(chats: list[tuple], windows: list[tuple[int, int]]) -> tuple[float, int]:
    """Time-weighted mean and peak of concurrent chat spans inside the windows."""
    events = sorted([(s[START], 1) for s in chats] + [(s[END], -1) for s in chats])
    level = peak = 0
    for _, step in events:
        level += step
        peak = max(peak, level)
    busy = sum(s[END] - s[START] for s in chats)
    window = sum(end - start for start, end in windows)
    return (busy / window if window else 0.0), peak


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------

def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runs: list[PredictRun], setup: list[float]) -> dict:
    jobs = [r.predictions for r in runs]
    return {
        "jobs_per_s": metric(median([j / r.wall_s for j, r in zip(jobs, runs)]), "jobs/s"),
        "cpu_ms_per_job": metric(
            median([1000.0 * r.cpu_s / max(1, j) for j, r in zip(jobs, runs)]), "ms"),
        "model_calls_per_job": metric(median([r.model_calls / r.attempted for r in runs]), "calls"),
        "setup_s": metric(median(setup), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def per_layer(tracer: Tracer, traced: list[PredictRun], untraced: list[PredictRun],
              factor_window: tuple[int, int], last_out: Path) -> dict:
    spans = tracer.spans
    stages = [(s[START], s[END]) for s in spans if s[NAME] == "stage.predict"]
    in_stage = [s for s in spans if any(a <= s[START] <= b for a, b in stages)]
    in_factors = [s for s in spans if factor_window[0] <= s[START] <= factor_window[1]]
    jobs = sum(r.predictions for r in traced)
    attempted = sum(r.attempted for r in traced)
    per_stage = len(stages)

    def named(name: str, pool=in_stage) -> list[tuple]:
        return [s for s in pool if s[NAME] == name]

    def ms(pool: list[tuple]) -> list[float]:
        return [(s[END] - s[START]) / 1e6 for s in pool]

    def children_ms(parents: list[tuple], pool: list[tuple]) -> float:
        ids = {p[SPAN_ID] for p in parents}
        return sum((s[END] - s[START]) / 1e6 for s in pool if s[PARENT] in ids)

    out: dict = {}

    def put_tail(prefix: str, values: list[float]) -> None:
        value, pct, n = tail(values)
        out[f"{prefix}.p50"] = metric(percentile(values, 50.0) if values else 0.0, "ms")
        out[f"{prefix}.tail"] = metric(value, "ms")
        out[f"{prefix}.tail_pct"] = metric(pct, "%")
        out[f"{prefix}.n"] = metric(n, "count")

    # backend
    chats = named(CHAT_SPAN)
    kinds = [s[ATTRS]["urbanmas.call.kind"] for s in chats]
    factor_kinds = [s[ATTRS]["urbanmas.call.kind"] for s in named(CHAT_SPAN, in_factors)]
    jobs_per_stage = jobs / per_stage
    out["backend.calls_per_job"] = metric(len(chats) / jobs, "calls")
    for kind in CALL_KINDS:
        if kind in ("research", "summary"):
            value = factor_kinds.count(kind) / jobs_per_stage
        else:
            value = kinds.count(kind) / jobs
        out[f"backend.calls_per_job.{kind}"] = metric(value, "calls")
    distinct = []
    for a, b in stages:
        ids = [s[ATTRS]["urbanmas.request.id"] for s in chats if a <= s[START] <= b]
        distinct.append(len(set(ids)) / len(ids))
    out["backend.distinct_share"] = metric(statistics.fmean(distinct), "ratio")
    call_ms = ms(chats)
    put_tail("backend.call_ms", call_ms)
    endpoint = [r.endpoint for r in traced if r.endpoint]
    service_p50 = median([e["service_ms_p50"] for e in endpoint])
    out["backend.transport_overhead_ms.p50"] = metric(median(call_ms) - service_p50, "ms")
    if endpoint:
        mean_in_flight = statistics.fmean(e["in_flight_mean"] for e in endpoint)
        peak_in_flight = max(e["in_flight_peak"] for e in endpoint)
        retries = sum(e["unavailable"] for e in endpoint)
    else:
        mean_in_flight, peak_in_flight = in_flight(chats, stages)
        retries = 0
    out["backend.in_flight.mean"] = metric(mean_in_flight, "calls")
    out["backend.in_flight.peak"] = metric(peak_in_flight, "calls")
    out["backend.http_retries_per_job"] = metric(retries / jobs, "calls")
    out["backend.make_ms"] = metric(sum(ms(named("backend.make"))) / per_stage, "ms")
    out["endpoint.service_ms.p50"] = metric(service_p50, "ms")

    # guidance
    out["guidance.guide_s"] = metric(sum(ms(named("guidance.guide", in_factors))) / 1000.0, "s")
    out["guidance.calls"] = metric(len(factor_kinds), "calls")

    # extraction
    put_tail("extraction.reliable_ms", ms(named("extraction.reliable")))
    out["extraction.variants_ms.p50"] = metric(median(ms(named("extraction.variants"))), "ms")

    # reliability
    evaluates = named("reliability.evaluate")
    reconciles = named("reliability.reconcile")
    sims = named("reliability.soft_sim")
    out["reliability.evaluate_ms_per_job"] = metric(sum(ms(evaluates)) / jobs, "ms")
    reconcile_self = sum(ms(reconciles)) - children_ms(reconciles, chats)
    out["reliability.reconcile_self_ms_per_job"] = metric(reconcile_self / jobs, "ms")
    buckets: dict[str, list[float]] = {"le100": [], "le250": [], "le400": []}
    for s in sims:
        chars = s[ATTRS]["urbanmas.operand_chars"]
        key = "le100" if chars <= 100 else "le250" if chars <= 250 else "le400"
        buckets[key].append((s[END] - s[START]) / 1e3)
    for key, values in buckets.items():
        out[f"reliability.soft_sim_us.{key}"] = metric(median(values), "us")
    out["reliability.soft_sim_calls_per_job"] = metric(len(sims) / jobs, "calls")
    fields = conflicts = records = low_confidence = 0
    for line in (last_out / "similarity_reports.jsonl").read_text(encoding="utf-8").splitlines():
        doc = json.loads(line)
        fields += len(doc["report"]["per_field"])
        conflicts += len(doc["report"]["conflicting"])
        records += 1
        low_confidence += doc["status"] == "low_confidence"
    refines = kinds.count("refine") / per_stage
    out["reliability.conflict_rate"] = metric(conflicts / fields if fields else 0.0, "ratio")
    out["reliability.low_confidence_rate"] = metric(
        low_confidence / records if records else 0.0, "ratio")
    out["reliability.refine_rounds_mean"] = metric(refines / conflicts if conflicts else 0.0,
                                                   "rounds")

    # inference
    put_tail("inference.infer_ms", ms(named("inference.infer")))
    clamped = [json.loads(line)["clamped"] for line in
               (last_out / "predictions.jsonl").read_text(encoding="utf-8").splitlines()]
    out["inference.clamp_share"] = metric(sum(clamped) / len(clamped), "ratio")

    # pipeline
    job_spans = named("pipeline.job")
    put_tail("pipeline.job_ms", ms(job_spans))
    job_children = [s for s in in_stage if s[NAME] in (
        "extraction.reliable", "inference.infer", "inference.single")]
    out["pipeline.job_self_ms_per_job"] = metric(
        (sum(ms(job_spans)) - children_ms(job_spans, job_children)) / jobs, "ms")
    full_jobs = [s for s in job_spans if s[ATTRS]["urbanmas.variant"] == "full"]
    out["pipeline.critical_path_rtt"] = metric(median(ms(full_jobs)) / median(call_ms), "calls")
    out["pipeline.failed_job_share"] = metric(
        sum(r.failures for r in traced) / attempted, "ratio")

    # io
    for name in ("write_predictions", "write_audit", "write_similarity_log", "write_manifest",
                 "load_factor_cache"):
        out[f"io.{name}_ms"] = metric(sum(ms(named(f"io.{name}"))) / per_stage, "ms")

    # tracing overhead
    plain = median([r.predictions / r.wall_s for r in untraced])
    with_trace = median([r.predictions / r.wall_s for r in traced])
    out["trace.overhead_jobs_per_s"] = metric(plain - with_trace, "jobs/s")
    out["trace.overhead_share"] = metric((plain - with_trace) / plain, "ratio")
    return out


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

def record_cassette(bench: Bench, log) -> str:
    """Record factors + predict from the endpoint at zero latency, in a child process.

    Returns the recorded predictions' digest; the cassette is left at
    ``bench.cassette``.
    """
    rec = bench.work / "recording"
    bench.cassette = str(rec / "cassette.jsonl")
    factor_dir = rec / "factors"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    program = "import sys, urbanmas.cli as c; sys.exit(c.main(sys.argv[1:]))"
    with Endpoint(bench.seed, log, base_ms=0, per_char_ms=0, unavailable_permille=0) as ep:
        bench.write_config(ep.url)
        for command in ("factors", "predict"):
            argv = bench._argv(command, "record", factor_dir, bench.cassette)
            argv += ["--out", str(rec / "out")]
            if command == "predict":
                argv += ["--dataset", str(bench.dataset)]
                for variant in VARIANTS:
                    argv += ["--variant", variant]
            done = subprocess.run([sys.executable, "-c", program, *argv], env=env, stdout=log,
                                  stderr=log, timeout=170, check=False)
            if done.returncode != 0:
                raise BenchError(f"recording {command} exited {done.returncode}")
    bench.write_config("")
    return _digest(rec / "out" / "predictions.jsonl")


def run_workload(args: argparse.Namespace, work: Path, log) -> dict:
    bench = Bench(args.workload, args.seed, work, log)
    result = Result()
    expected_digest = None
    if bench.workload.backend == "replay":
        expected_digest = record_cassette(bench, log)
    else:
        bench.write_config("")
    if bench.workload.one_cpu:
        bench.pin_one_cpu()

    with contextlib.ExitStack() as stack:
        if bench.workload.backend == "record":
            bench.endpoint = stack.enter_context(Endpoint(
                bench.seed, log, base_ms=LATENCY_BASE_MS, per_char_ms=LATENCY_PER_CHAR_MS))
            bench.write_config(bench.endpoint.url)

        setup: list[float] = []

        def set_up(repeats: int = 0, seconds: float = 0.0) -> None:
            started = time.perf_counter()
            for _ in range(repeats):
                setup.append(bench.factors(work / f"factors_{len(setup)}"))
            while time.perf_counter() - started < seconds:
                factor_dir = work / f"factors_{len(setup)}"
                setup.append(bench.factors(factor_dir))
                shutil.rmtree(factor_dir)

        set_up(1 if args.trace else SETUP_FIRST_REPEATS)
        factor_dir = work / "factors_0"
        factor_window = (0, 0)
        if args.trace:
            bench.tracer.install()
            try:
                with bench.tracer.span("stage.factors"):
                    bench.factors(work / "factors_traced")
            finally:
                bench.tracer.uninstall()
            stage = bench.tracer.spans[-1]
            factor_window = (stage[START], stage[END])

        runs: list[PredictRun] = []
        jobs = {
            (json.loads(line)["id"], task, variant)
            for line in bench.dataset.read_text(encoding="utf-8").splitlines()
            for task in TASKS for variant in VARIANTS
        }
        last_out = work
        deadline = time.perf_counter() + args.seconds
        while True:
            traced = bool(args.trace) and len(runs) % 2 == 1
            run, out_dir = bench.predict(factor_dir, traced)
            check_outputs(result, run, out_dir, jobs)
            expected_digest = expected_digest or run.digest
            result.check(run.digest == expected_digest,
                         f"{out_dir.name}: predictions.jsonl differs from the first run"
                         + (" / the recording" if bench.workload.backend == "replay" else ""))
            runs.append(run)
            if traced:
                last_out = out_dir
            elif run.failures == 0:
                # Keep the file system and the heap in the same state for every stage.
                shutil.rmtree(out_dir)
            gc.collect()
            enough = not args.trace or len(runs) >= 2
            # Stop unless another stage would end within half a stage of the deadline.
            if enough and time.perf_counter() + run.wall_s / 2 > deadline:
                break
            if not args.trace:
                set_up(seconds=SETUP_GAP_SECONDS)

    untraced = [r for r in runs if not r.traced]
    if args.trace:
        bench.tracer.check_coverage()
        bench.tracer.write(work / "spans.jsonl")
        traced = [r for r in runs if r.traced]
        metrics = per_layer(bench.tracer, traced, untraced, factor_window, last_out)
    else:
        metrics = end_to_end(untraced, setup)
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    return {
        "correct": result.correct,
        "attempted": sum(r.attempted for r in untraced),
        "failed": sum(r.failures for r in untraced),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="urbanmas benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "urbanmas" / "cli.py").is_file():
        print(f"error: no urbanmas sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.update({
        "URBANMAS_API_KEY": "benchmark-key",
        "URBANMAS_MODEL": "simulated",
        "NO_PROXY": "127.0.0.1,localhost",
        "no_proxy": "127.0.0.1,localhost",
    })
    os.environ.pop("URBANMAS_API_BASE", None)

    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    with open(work / "cli.log", "w", encoding="utf-8") as log:
        try:
            report = run_workload(args, work, log)
        except (BenchError, TraceError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    for name, m in report["metrics"].items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
