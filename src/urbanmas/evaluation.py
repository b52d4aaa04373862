"""Ground-truth handling, regression metrics, and ablation tables.

Predictions are scored with MAE, MSE and RMSE per (task, variant).
Ablation tables report each variant's relative change against the full
pipeline as arrow-tagged percentages with two decimals, computed from the
unrounded metric values.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .domain import PredictionOutput, write_text_atomic
from .errors import AlignmentError, EvaluationError

BASELINE_VARIANT = "full"


@dataclass(frozen=True)
class EvalReport:
    """Error metrics for one task under one pipeline variant."""

    task_id: str
    variant: str
    n: int
    mae: float
    mse: float
    rmse: float

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError("n must be positive")
        if min(self.mae, self.mse, self.rmse) < 0:
            raise ValueError("metrics must be nonnegative")
        if abs(self.rmse - math.sqrt(self.mse)) > 1e-12:
            raise ValueError("rmse must equal sqrt(mse)")


def rescale_to_unit_interval_times_ten(values: Sequence[float]) -> list[float]:
    """Min-max rescale raw values onto [0, 10].

    All-equal input maps every value to the midpoint 5.0.
    """
    if len(values) == 0:
        raise EvaluationError("cannot rescale an empty value list")
    floats = [float(v) for v in values]
    if any(not math.isfinite(v) for v in floats):
        raise EvaluationError("cannot rescale non-finite values")
    low, high = min(floats), max(floats)
    if low == high:
        return [5.0] * len(floats)
    span = high - low
    return [10.0 * (v - low) / span for v in floats]


def metrics(
    predictions: Mapping[str, float],
    truths: Mapping[str, float],
    task_id: str = "",
    variant: str = "",
) -> EvalReport:
    """MAE / MSE / RMSE over pairs aligned by location id."""
    if not predictions:
        raise EvaluationError("no predictions to score")
    missing = sorted(set(predictions) - set(truths))
    extra = sorted(set(truths) - set(predictions))
    if missing or extra:
        raise AlignmentError(
            f"prediction/truth ids do not align (no truth for {missing}, no prediction for {extra})"
        )
    errors = [predictions[k] - truths[k] for k in predictions]
    n = len(errors)
    mae = math.fsum(abs(e) for e in errors) / n
    mse = math.fsum(e * e for e in errors) / n
    return EvalReport(task_id=task_id, variant=variant, n=n, mae=mae, mse=mse, rmse=math.sqrt(mse))


# --------------------------------------------------------------------------
# Table rendering
# --------------------------------------------------------------------------

def format_change(baseline: float, value: float) -> str:
    """Relative change as an arrow-tagged two-decimal percentage.

    Computed from the unrounded inputs; equal values render ``0.00%``.
    A zero baseline with a nonzero value has no defined percentage and
    renders ``n/a``.
    """
    if value == baseline:
        return "0.00%"
    if baseline == 0:
        return "n/a"
    pct = (value - baseline) / baseline * 100.0
    arrow = "↑" if pct > 0 else "↓"
    return f"{arrow}{abs(pct):.2f}%"


def format_metric(value: float, baseline: float | None = None) -> str:
    """Metric cell: two decimals, plus the change versus baseline if given."""
    cell = f"{value:.2f}"
    if baseline is not None:
        cell += f" ({format_change(baseline, value)})"
    return cell


def _with_baselines(reports: Sequence[EvalReport]) -> list[tuple[EvalReport, EvalReport | None]]:
    """Reports by task, the baseline variant first, each paired with its task's
    baseline report (``None`` for the baseline itself, or if the task has none)."""
    baselines = {r.task_id: r for r in reports if r.variant == BASELINE_VARIANT}
    ordered = sorted(reports, key=lambda r: (r.task_id, r.variant != BASELINE_VARIANT, r.variant))
    return [
        (r, None if r.variant == BASELINE_VARIANT else baselines.get(r.task_id)) for r in ordered
    ]


def render_report_table(reports: Sequence[EvalReport]) -> str:
    """Aligned plain-text table, one block per task, changes vs the baseline variant."""
    rows: list[tuple[str, str, str, str, str]] = [("Task / Variant", "MAE", "MSE", "RMSE", "n")]
    task_id = None
    for report, base in _with_baselines(reports):
        if report.task_id != task_id:
            task_id = report.task_id
            rows.append((f"[{task_id}]", "", "", "", ""))
        rows.append(
            (
                f"  {report.variant}",
                format_metric(report.mae, base.mae if base else None),
                format_metric(report.mse, base.mse if base else None),
                format_metric(report.rmse, base.rmse if base else None),
                str(report.n),
            )
        )
    widths = [max(len(row[col]) for row in rows) for col in range(5)]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows]
    return "\n".join(lines)


def write_reports_csv(reports: Sequence[EvalReport], path: str | Path) -> None:
    """Delimited report table with relative-change columns versus the baseline."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        ["task_id", "variant", "n", "mae", "mse", "rmse", "mae_vs_full", "mse_vs_full", "rmse_vs_full"]
    )
    for report, base in _with_baselines(reports):
        changes = ["", "", ""]
        if base is not None:
            changes = [
                format_change(base.mae, report.mae),
                format_change(base.mse, report.mse),
                format_change(base.rmse, report.rmse),
            ]
        writer.writerow(
            [report.task_id, report.variant, report.n,
             repr(report.mae), repr(report.mse), repr(report.rmse), *changes]
        )
    write_text_atomic(Path(path), [buffer.getvalue()])


def load_ground_truth_csv(path: str | Path) -> dict[tuple[str, str], float]:
    """Load the (location_id, task_id) -> raw_value table."""
    table: dict[tuple[str, str], float] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"location_id", "task_id", "raw_value"}
        try:
            if reader.fieldnames is None or not required.issubset(reader.fieldnames):
                raise EvaluationError(
                    f"{path}: ground truth needs columns {sorted(required)}, got {reader.fieldnames}"
                )
            for row in reader:
                try:
                    table[(row["location_id"], row["task_id"])] = float(row["raw_value"])
                except (TypeError, ValueError) as exc:
                    raise EvaluationError(f"{path}:{reader.line_num}: bad raw_value: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise EvaluationError(f"{path}: not UTF-8: {exc}") from exc
    return table


def score_outcome(
    predictions: Sequence[PredictionOutput],
    truths: Mapping[tuple[str, str], float],
) -> list[EvalReport]:
    """Score all (task, variant) groups found in the predictions."""
    groups: dict[tuple[str, str], dict[str, float]] = {}
    for pred in predictions:
        groups.setdefault((pred.task_id, pred.variant), {})[pred.location_id] = pred.value
    reports = []
    for (task_id, variant), pred_map in sorted(groups.items()):
        truth_map = {
            loc: truths[(loc, task_id)] for loc in pred_map if (loc, task_id) in truths
        }
        missing = sorted(set(pred_map) - set(truth_map))
        if missing:
            raise AlignmentError(
                f"no ground truth for task {task_id!r} at locations {missing}"
            )
        reports.append(metrics(pred_map, truth_map, task_id=task_id, variant=variant))
    return reports
