"""The benchmark's workloads: inputs made from a seed, the CLI call that is
timed, and the result fields that are checked and hashed.

Every workload runs through ``densecotrain.cli.main``.  ``scale`` is
"full" for the benchmark and "small" for the harness self-check, which
needs the same code paths on inputs a hundred times smaller.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

CONFIG_FILE = "config.json"
ANNOTATIONS_FILE = "annotations.csv"
PREDICTIONS_FILE = "predictions.jsonl"

# cotrain-headline: the stock default_synthetic experiment (200 labeled +
# 800 unlabeled scenes, 2 rounds at tau 0.8); nothing is overridden.
HEADLINE_ROUNDS = 2
# tune-sa: SA moves one gene at a time from the default vector.
TUNE_BUDGET = {"full": 8, "small": 2}
# evaluate-dense: 10 x 15 grids at overlap 0.4, 150 GT per image.
DENSE_IMAGES = {"full": 40, "small": 3}
DENSE_ROWS, DENSE_COLS, DENSE_OVERLAP = 10, 15, 0.4
# The small self-check dataset for the two training workloads.
SMALL_LABELED, SMALL_UNLABELED = 30, 60

# report.json keys that result_to_dict defines; timings, output_dir and the
# config echo are left out so that they can change without a digest change.
RESULT_KEYS = (
    "best_round", "rounds_completed", "mode", "history",
    "report_a", "report_b", "report_combined",
)
EVALUATE_KEYS = ("map_coco", "ap75", "ar300", "ap_per_threshold", "notes")


class ProgramMissing(RuntimeError):
    """The checkout holds no densecotrain sources."""


def import_program():
    """Import densecotrain from this checkout's ``src`` and nowhere else."""
    if not (SRC / "densecotrain" / "__init__.py").is_file():
        raise ProgramMissing(f"no densecotrain package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import densecotrain.cli as cli

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise ProgramMissing(f"densecotrain was imported from {cli.__file__}")
    return cli


def digest(result: dict) -> str:
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _small_config(seed: int, path: Path) -> None:
    from densecotrain.config import default_synthetic, save_config

    cfg = default_synthetic(seed)
    cfg = replace(cfg, dataset=replace(
        cfg.dataset, n_labeled=SMALL_LABELED, n_unlabeled=SMALL_UNLABELED,
    ))
    save_config(cfg, path)


def _config_args(work: Path, scale: str) -> list[str]:
    return ["--config", str(work / CONFIG_FILE)] if scale == "small" else []


def _in_unit(x: float) -> bool:
    return isinstance(x, float) and 0.0 <= x <= 1.0


# ------------------------------------------------------------ cotrain-headline

def _cli_setup(seed: int, work: Path, scale: str) -> None:
    import densecotrain.cli  # noqa: F401  (the import is part of set-up)

    if scale == "small":
        _small_config(seed, work / CONFIG_FILE)


def _headline_argv(seed: int, work: Path, run_dir: Path, scale: str) -> list[str]:
    return ["cotrain", "--seed", str(seed), "--out", str(run_dir),
            *_config_args(work, scale)]


def _headline_result(stdout: str, run_dir: Path) -> dict:
    report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    return {k: report[k] for k in RESULT_KEYS}


def _headline_problems(result: dict, scale: str) -> list[str]:
    out = []
    if result["mode"] != "cotrain":
        out.append(f"mode {result['mode']!r}")
    if result["rounds_completed"] != HEADLINE_ROUNDS:
        out.append(f"rounds_completed {result['rounds_completed']}")
    if len(result["history"]) != HEADLINE_ROUNDS + 1:
        out.append(f"{len(result['history'])} history rows")
    for side in ("report_a", "report_b", "report_combined"):
        if not _in_unit(result[side]["map_coco"]):
            out.append(f"{side}.map_coco {result[side]['map_coco']!r}")
    return out


# ---------------------------------------------------------------------- tune-sa

def _tune_argv(seed: int, work: Path, run_dir: Path, scale: str) -> list[str]:
    return ["tune", "--seed", str(seed), "--algorithm", "sa",
            "--budget", str(TUNE_BUDGET[scale]), "--out", str(run_dir),
            *_config_args(work, scale)]


def _tune_result(stdout: str, run_dir: Path) -> dict:
    payload = json.loads(stdout)
    with open(run_dir / "tune_trace.csv", newline="", encoding="utf-8") as fh:
        scores = [float(row["score"]) for row in csv.DictReader(fh)]
    return {
        "best_vector": payload["best_vector"],
        "best_score": payload["best_score"],
        "trace_scores": scores,
    }


def _tune_problems(result: dict, scale: str) -> list[str]:
    out = []
    scores = result["trace_scores"]
    if len(scores) != TUNE_BUDGET[scale]:
        out.append(f"{len(scores)} evaluations, budget {TUNE_BUDGET[scale]}")
    if not _in_unit(result["best_score"]) or result["best_score"] != max(scores, default=None):
        out.append(f"best_score {result['best_score']!r} is not the trace maximum")
    return out


# --------------------------------------------------------------- evaluate-dense

def _dense_setup(seed: int, work: Path, scale: str) -> None:
    """Dense scenes and both default views' raw detections on them."""
    from densecotrain.cli import save_predictions
    from densecotrain.data import SceneSpec, generate_synthetic_dataset, save_annotations
    from densecotrain.detectors import (
        CONTEXTUAL, DEFAULT_CONTEXTUAL_PARAMS, DEFAULT_LOCALIZER_PARAMS,
        LOCALIZER, derive_seed, detect, size_regime, skill_from_params,
    )

    spec = SceneSpec(grid_rows=DENSE_ROWS, grid_cols=DENSE_COLS,
                     overlap_factor=DENSE_OVERLAP, seed=seed)
    records = generate_synthetic_dataset(DENSE_IMAGES[scale], spec, seed=seed)
    regime = size_regime(records)
    views = [
        (LOCALIZER, DEFAULT_LOCALIZER_PARAMS),
        (CONTEXTUAL, DEFAULT_CONTEXTUAL_PARAMS),
    ]
    predictions = {r.image_id: [] for r in records}
    for profile, params in views:
        skill = skill_from_params(params, profile, regime)
        view_seed = derive_seed("perfbench-dense", seed, profile.name)
        for rec in records:
            predictions[rec.image_id].extend(
                d.scored for d in detect(rec, skill, params, profile, view_seed)
            )
    save_annotations(records, work / ANNOTATIONS_FILE)
    save_predictions(predictions, work / PREDICTIONS_FILE)


def _dense_argv(seed: int, work: Path, run_dir: Path, scale: str) -> list[str]:
    return ["evaluate", "--predictions", str(work / PREDICTIONS_FILE),
            "--annotations", str(work / ANNOTATIONS_FILE)]


def _dense_result(stdout: str, run_dir: Path) -> dict:
    payload = json.loads(stdout)
    return {k: payload[k] for k in EVALUATE_KEYS}


def _dense_problems(result: dict, scale: str) -> list[str]:
    out = []
    aps = list(result["ap_per_threshold"].values())
    if len(aps) != 10 or not all(_in_unit(v) for v in aps):
        out.append(f"ap_per_threshold {result['ap_per_threshold']!r}")
    elif abs(sum(aps) / len(aps) - result["map_coco"]) > 1e-12:
        out.append(f"map_coco {result['map_coco']!r} is not the mean over thresholds")
    if not _in_unit(result["ar300"]):
        out.append(f"ar300 {result['ar300']!r}")
    return out


# ------------------------------------------------------------------- registry
# Why each workload exists: README.md and BENCHMARK.json.

@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Path, str], None]
    argv: Callable[[int, Path, Path, str], list[str]]
    result: Callable[[str, Path], dict]
    problems: Callable[[dict, str], list[str]]
    quality: Callable[[dict], float]
    unit: str  # span timed as eval_s: the workload's repeated inner step


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "cotrain-headline",
            _cli_setup, _headline_argv, _headline_result,
            _headline_problems,
            lambda r: r["report_combined"]["map_coco"],
            "cotrain.exchange_round",
        ),
        Workload(
            "tune-sa",
            _cli_setup, _tune_argv, _tune_result, _tune_problems,
            lambda r: r["best_score"],
            "tuner.objective",
        ),
        Workload(
            "evaluate-dense",
            _dense_setup, _dense_argv, _dense_result, _dense_problems,
            lambda r: r["map_coco"],
            "metrics.mean_average_precision",
        ),
    )
}


def setup_child(name: str, seed: str, work: str, scale: str) -> None:
    """Entry point of one set-up process: import and make the inputs."""
    import_program()
    WORKLOADS[name].setup(int(seed), Path(work), scale)
