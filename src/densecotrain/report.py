"""Run reports: the JSON artifact a run leaves behind, the history CSV,
and the human-readable summary table.

``report.json`` holds the results, not the config: the run's one config
echo is ``config.json`` beside it."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import fields
from pathlib import Path

from .codec import echo, from_dict, read_json, read_text, write_json, write_text
from .config import ARTIFACT_VERSION
from .cotrain import CoTrainResult, RoundRecord, result_to_dict
from .metrics import COCO_THRESHOLDS

REPORT_FILENAME = "report.json"
HISTORY_FILENAME = "history.csv"
TRACE_FILENAME = "tune_trace.csv"

_HISTORY_COLUMNS = tuple(f.name for f in fields(RoundRecord))
# what ``render_summary_table`` and ``history_series`` read
_SECTIONS = ("report_a", "report_b", "report_combined")
_METRICS = ("map_coco", "ap75", "ar300")  # each section's numbers in the table
_READ_KEYS = ("mode", "rounds_completed", "best_round", "history", *_SECTIONS)
_TRACE_COLUMNS = ("evaluation", "score", "best_so_far")  # what ``trace_series`` reads


def build_run_report(result: CoTrainResult, timings: dict[str, float]) -> dict:
    return {
        "artifact_version": ARTIFACT_VERSION,
        **result_to_dict(result),
        "timings": dict(timings),
    }


def save_run_report(report: dict, run_dir: str | Path) -> Path:
    path = Path(run_dir) / REPORT_FILENAME
    write_json(path, report)
    return path


def load_run_report(run_dir: str | Path) -> dict:
    """The run's report document, refused (``ValueError``, naming the file)
    unless it is a JSON object of this artifact version holding every key the
    summary table and the history plot read, its ``history`` a nonempty
    list of round records (a run always holds round 0) and each section an
    object whose headline metrics are numbers or null."""
    path = Path(run_dir) / REPORT_FILENAME
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: a report is a JSON object, got {type(doc).__name__}")
    if doc.get("artifact_version") != ARTIFACT_VERSION:
        raise ValueError(
            f"{path}: unsupported artifact_version {echo(doc.get('artifact_version'))}"
        )
    missing = [key for key in _READ_KEYS if key not in doc]
    if missing:
        raise ValueError(f"{path}: no {', '.join(missing)}")
    if not isinstance(doc["history"], list):
        raise ValueError(f"{path}: history must be a list, got {echo(doc['history'])}")
    if not doc["history"]:
        raise ValueError(f"{path}: history is empty (a run always holds round 0)")
    for i, row in enumerate(doc["history"]):
        from_dict(RoundRecord, row, where=f"{path}.history[{i}]")
    for key in _SECTIONS:
        section = doc[key]
        if not isinstance(section, dict) or not all(
            m in section and (section[m] is None or type(section[m]) in (int, float))
            for m in _METRICS
        ):
            raise ValueError(
                f"{path}: {key} must be an object whose {', '.join(_METRICS)} "
                f"are numbers or null, got {echo(section)}"
            )
    return doc


def write_history_csv(report: dict, run_dir: str | Path) -> Path:
    path = Path(run_dir) / HISTORY_FILENAME
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(_HISTORY_COLUMNS)
    for row in report["history"]:
        writer.writerow(["" if row[c] is None else row[c] for c in _HISTORY_COLUMNS])
    write_text(path, text.getvalue())
    return path


def _metric(value) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def render_summary_table(report: dict) -> str:
    """Three rows (view A, view B, combined) by the three headline
    metrics."""
    rows = [
        ("view A", report["report_a"]),
        ("view B", report["report_b"]),
        ("combined", report["report_combined"]),
    ]
    header = f"{'model':<10} {'mAP':>8} {'AP.75':>8} {'AR@300':>8}"
    lines = [header, "-" * len(header)]
    for name, rep in rows:
        lines.append(
            f"{name:<10} {_metric(rep['map_coco']):>8} "
            f"{_metric(rep['ap75']):>8} {_metric(rep['ar300']):>8}"
        )
    lines.append("")
    lines.append(
        f"mode={report['mode']} rounds={report['rounds_completed']} "
        f"best_round={report['best_round']}"
    )
    return "\n".join(lines)


def history_series(report: dict) -> list[tuple[str, list[tuple[float, float]]]]:
    hist = report["history"]
    return [
        ("view A", [(r["round"], r["val_map_a"]) for r in hist]),
        ("view B", [(r["round"], r["val_map_b"]) for r in hist]),
        ("combined", [(r["round"], r["val_map_combined"]) for r in hist]),
    ]


def trace_series(trace_path: str | Path) -> list[tuple[str, list[tuple[float, float]]]]:
    """The tuning trace's best-so-far and score series, refused
    (``ValueError``, naming the file) unless it has the evaluation, score
    and best_so_far columns and at least one row, each of those values a
    finite number, and a line the csv module refuses is named."""
    best: list[tuple[float, float]] = []
    score: list[tuple[float, float]] = []
    reader = csv.DictReader(io.StringIO(read_text(trace_path), newline=""))
    try:
        rows = [(reader.line_num, row) for row in reader]
    except csv.Error as exc:  # a field beyond the csv module's limit
        # the DictReader's line_num is set after a row is read; its reader's before
        raise ValueError(f"{trace_path}, line {reader.reader.line_num}: {exc}") from None
    missing = [c for c in _TRACE_COLUMNS if c not in (reader.fieldnames or ())]
    if missing:
        raise ValueError(f"{trace_path}: no {', '.join(missing)} column")
    for line_num, row in rows:
        values = [row[c] for c in _TRACE_COLUMNS]
        try:
            idx, s, b = map(float, values)
        except (TypeError, ValueError):  # a short row reads None
            idx = s = b = math.nan
        if not all(map(math.isfinite, (idx, s, b))):
            raise ValueError(
                f"{trace_path}, line {line_num}: "
                f"{', '.join(_TRACE_COLUMNS)} must be finite numbers, got {values}"
            )
        score.append((idx, s))
        best.append((idx, b))
    if not score:
        raise ValueError(f"{trace_path}: no evaluations, only a header")
    return [("best so far", best), ("evaluation", score)]


def per_threshold_lines(report_fragment: dict) -> list[str]:
    lines = []
    for t in COCO_THRESHOLDS:
        key = f"{t:.2f}"
        val = report_fragment["ap_per_threshold"].get(key)
        lines.append(f"AP@{key}: {_metric(val)}")
    return lines
