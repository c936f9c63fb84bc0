"""Command-line surface: dataset generation, splitting, evaluation, the
co-training experiment, hyperparameter tuning, and report rendering.

Exit codes are a stable contract: 0 success, 2 usage or validation
problem, 3 I/O failure, 4 runtime failure mid-run.  Logs go to stderr
(verbosity from the DENSECOTRAIN_LOG environment variable); stdout
carries machine-readable output (JSON), except `report`, which renders a
human-readable table.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

from .codec import from_dict
from .config import (
    ConfigError,
    RunConfig,
    default_synthetic,
    load_config,
    save_config,
)
from .cotrain import CHECKPOINT_FILENAME, records_index, report_to_dict, run_cotraining
from .data import (
    AnnotationError,
    SceneSpec,
    generate_synthetic_dataset,
    load_annotations,
    save_annotations,
    select_and_split,
    write_manifest,
)
from .geom import Box, ScoredBox
from .metrics import mean_average_precision
from .report import (
    REPORT_FILENAME,
    TRACE_FILENAME,
    build_run_report,
    history_series,
    load_run_report,
    per_threshold_lines,
    render_summary_table,
    save_run_report,
    trace_series,
    write_history_csv,
)
from .svgplot import line_plot, pr_curve_plot, save_svg
from .tuner import (
    HyperVector,
    ObjectiveError,
    tune_pipeline,
    validate_vector,
    vector_to_params,
    write_trace_csv,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_RUNTIME = 4

VECTOR_FILENAME = "best_vector.json"

logger = logging.getLogger("densecotrain")


class UsageError(Exception):
    """Bad flags or invalid input content; exit code 2."""


class IOFailure(Exception):
    """Filesystem problem; exit code 3."""


class RuntimeFailure(Exception):
    """Mid-run failure; exit code 4."""


def _setup_logging() -> None:
    name = os.environ.get("DENSECOTRAIN_LOG", "warning").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        stream=sys.stderr, level=level,
        format="%(levelname)s %(name)s: %(message)s", force=True,
    )


def _ensure_dir(path: Path) -> Path:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IOFailure(f"cannot create output directory {path}: {exc}") from exc
    return path


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise IOFailure(f"cannot write {path}: {exc}") from exc


def _read_text(path: Path, what: str) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise IOFailure(f"cannot read {what} {path}: {exc}") from exc


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


# ---------------------------------------------------------- predictions I/O

# exact types: JSON numbers load as int or float, and a bool is an int
_JSON_NUMBER_TYPES = frozenset((int, float))


def _box_and_score(d: dict) -> tuple[Box, float]:
    """One detection's box and score, each field a JSON number: float()
    would take "1" and true as 1.0."""
    vals = (d["x1"], d["y1"], d["x2"], d["y2"], d["score"])
    if not _JSON_NUMBER_TYPES.issuperset(map(type, vals)):
        for key, v in zip(("x1", "y1", "x2", "y2", "score"), vals):
            if type(v) not in _JSON_NUMBER_TYPES:
                raise ValueError(f"{key} must be a number, got {v!r}")
    x1, y1, x2, y2, score = map(float, vals)
    return Box(x1, y1, x2, y2), score


def load_predictions(path: str | Path) -> dict[str, list[ScoredBox]]:
    """JSON lines, one object per image:
    {"image_id": ..., "detections": [{x1, y1, x2, y2, score, label}]}."""
    text = _read_text(Path(path), "predictions file")
    out: dict[str, list[ScoredBox]] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise UsageError(f"predictions line {line_no}: invalid JSON ({exc})")
        if not isinstance(obj, dict) or "image_id" not in obj:
            raise UsageError(f"predictions line {line_no}: missing image_id")
        dets_field = obj.get("detections")
        if not isinstance(dets_field, list):
            raise UsageError(f"predictions line {line_no}: missing detections list")
        image_id = str(obj["image_id"])
        if image_id in out:
            raise UsageError(
                f"predictions line {line_no}: duplicate image_id {image_id!r}"
            )
        dets = []
        for j, d in enumerate(dets_field):
            try:
                box, score = _box_and_score(d)
                label = d.get("label", 0)
                # a JSON integer only: int() would take 1.7 as 1 and true as 1
                if isinstance(label, bool) or not isinstance(label, int):
                    raise ValueError(f"label must be an integer, got {label!r}")
                dets.append(ScoredBox(box, score, label))
            except (KeyError, TypeError, ValueError) as exc:
                raise UsageError(
                    f"predictions line {line_no}, detection {j}: {exc}"
                ) from exc
        out[image_id] = dets
    return out


def save_predictions(
    dets_by_image: Mapping[str, Sequence[ScoredBox]], path: str | Path
) -> None:
    lines = []
    for image_id in sorted(dets_by_image):
        lines.append(json.dumps({
            "image_id": image_id,
            "detections": [
                {"x1": d.box.x1, "y1": d.box.y1, "x2": d.box.x2, "y2": d.box.y2,
                 "score": d.score, "label": d.label}
                for d in dets_by_image[image_id]
            ],
        }))
    _write_text(Path(path), "\n".join(lines) + ("\n" if lines else ""))


# -------------------------------------------------------------- vector I/O

@dataclass(frozen=True)
class VectorFile:
    """The hyper-vector file: ``{"genes": {...}}``."""

    genes: HyperVector


def save_vector(v: HyperVector, path: Path) -> None:
    _write_text(path, json.dumps(asdict(VectorFile(v)), indent=2) + "\n")


def load_vector(path: str | Path) -> HyperVector:
    text = _read_text(Path(path), "hyper-vector file")
    try:  # JSON, codec and gene-range errors alike name the file
        v = from_dict(VectorFile, json.loads(text), where="vector").genes
        validate_vector(v)
    except ValueError as exc:
        raise UsageError(f"vector file {path}: {exc}") from exc
    return v


# ------------------------------------------------------------ dataset build

def _load_gt_csv(path: str | Path):
    try:
        return load_annotations(path)
    except FileNotFoundError as exc:
        raise IOFailure(f"annotations file not found: {path}") from exc
    except AnnotationError as exc:
        raise UsageError(f"annotations schema: {exc}") from exc


def build_dataset(cfg: RunConfig):
    d = cfg.dataset
    if d.source == "synthetic":
        n = d.n_labeled + d.n_unlabeled
        records = generate_synthetic_dataset(
            n, cfg.scene_spec(), seed=cfg.seed,
            row_range=d.row_range, col_range=d.col_range,
        )
    else:
        records = _load_gt_csv(d.csv_path)
    split = select_and_split(
        records, n_labeled=d.n_labeled, n_unlabeled=d.n_unlabeled,
        fractions=d.fractions, seed=cfg.seed,
    )
    if not (split.train and split.val):
        raise UsageError(
            f"dataset.fractions {list(d.fractions)} of dataset.n_labeled "
            f"{d.n_labeled} give {len(split.train)} train and {len(split.val)} "
            "validation images; a run needs at least one of each"
        )
    return records_index(records), split


def _load_run_config(args) -> RunConfig:
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise IOFailure(f"config file not found: {path}")
        cfg = load_config(path)
    else:
        cfg = default_synthetic()
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "out", None):
        cfg = replace(cfg, output_dir=args.out)
    return cfg


# ------------------------------------------------------------------ commands

def cmd_synth_gen(args) -> int:
    if args.images < 1:
        raise UsageError("--images must be >= 1")
    if args.rows < 1 or args.cols < 1:
        raise UsageError("--rows and --cols must be >= 1")
    if not (0.0 <= args.overlap < 1.0):
        raise UsageError("--overlap must be in [0, 1)")
    spec = SceneSpec(
        grid_rows=args.rows, grid_cols=args.cols, box_w=args.box_w,
        box_h=args.box_h, jitter=args.jitter, overlap_factor=args.overlap,
        seed=args.seed,
    )
    out_dir = _ensure_dir(Path(args.out))
    records = generate_synthetic_dataset(args.images, spec, seed=args.seed)
    csv_path = out_dir / "annotations.csv"
    manifest_path = out_dir / "manifest.json"
    try:
        save_annotations(records, csv_path)
        write_manifest(manifest_path, args.images, spec, args.seed)
    except OSError as exc:
        raise IOFailure(f"cannot write dataset files: {exc}") from exc
    _print_json({
        "images": len(records),
        "boxes": sum(len(r.gts) for r in records),
        "csv": str(csv_path),
        "manifest": str(manifest_path),
    })
    return EXIT_OK


def _parse_fractions(text: str) -> tuple[float, float, float]:
    try:
        parts = tuple(float(p) for p in text.split(","))
    except ValueError as exc:
        raise UsageError(f"--fractions must be three comma-separated floats: {exc}")
    if len(parts) != 3:
        raise UsageError("--fractions must have exactly three entries")
    if abs(sum(parts) - 1.0) > 1e-9:
        raise UsageError(f"--fractions must sum to 1 within 1e-9, got {parts}")
    return parts


def cmd_split(args) -> int:
    records = _load_gt_csv(args.annotations)
    fractions = _parse_fractions(args.fractions)
    split = select_and_split(
        records, n_labeled=args.n_labeled, n_unlabeled=args.n_unlabeled,
        fractions=fractions, seed=args.seed,
    )
    out_dir = _ensure_dir(Path(args.out))
    payload = {
        "seed": args.seed,
        "n_labeled": args.n_labeled,
        "n_unlabeled": args.n_unlabeled,
        "fractions": list(fractions),
        "split": asdict(split),
    }
    _write_text(out_dir / "split.json", json.dumps(payload, indent=2) + "\n")
    _print_json({
        "train": len(split.train), "val": len(split.val),
        "test": len(split.test), "unlabeled_pool": len(split.unlabeled_pool),
        "file": str(out_dir / "split.json"),
    })
    return EXIT_OK


def cmd_evaluate(args) -> int:
    records = _load_gt_csv(args.annotations)
    predictions = load_predictions(args.predictions)
    gts = {r.image_id: list(r.gts) for r in records}
    unknown = sorted(set(predictions) - set(gts))
    if unknown:
        raise UsageError(
            f"predictions reference unknown image ids: {', '.join(unknown[:5])}"
        )
    dets = {img: predictions.get(img, []) for img in gts}
    rep = mean_average_precision(dets, gts)
    payload = report_to_dict(rep)
    for line in per_threshold_lines(payload):
        logger.info(line)
    if args.out:
        out_dir = _ensure_dir(Path(args.out))
        _write_text(
            out_dir / "evaluation.json", json.dumps(payload, indent=2) + "\n"
        )
    if args.pr_svg:
        svg_dir = _ensure_dir(Path(args.pr_svg))
        for t, (recalls, precisions) in rep.pr_curves.items():
            if not len(recalls):
                continue
            svg = pr_curve_plot(
                [(f"IoU {t:.2f}", recalls, precisions)],
                f"precision-recall at IoU {t:.2f}",
            )
            save_svg(svg, svg_dir / f"pr_{int(round(t * 100)):03d}.svg")
    _print_json(payload)
    return EXIT_OK


def cmd_cotrain(args) -> int:
    cfg = _load_run_config(args)
    overrides = {}
    if args.max_rounds is not None:
        overrides["max_rounds"] = args.max_rounds
    if args.tau is not None:
        overrides["tau_conf"] = args.tau
    if args.baseline is not None:
        overrides["mode"] = {
            "self-train": "selftrain", "supervised": "supervised",
        }[args.baseline]
    if args.hyper:
        v = load_vector(args.hyper)
        ens, loc, ctx = vector_to_params(v)
        overrides.update(loc_params=loc, ctx_params=ctx, ensemble_params=ens)
    if overrides:
        cfg = replace(cfg, cotrain=replace(cfg.cotrain, **overrides))

    records, split = build_dataset(cfg)
    if not split.test:  # tune needs no test set; a co-training run reports on it
        d = cfg.dataset
        raise UsageError(
            f"dataset.fractions {list(d.fractions)} of dataset.n_labeled "
            f"{d.n_labeled} give {len(split.train)} train, {len(split.val)} "
            "validation and 0 test images; a co-training run needs at least "
            "one test image"
        )
    run_dir = _ensure_dir(Path(cfg.output_dir))
    save_config(cfg, run_dir / "config.json")
    t0 = time.perf_counter()
    try:
        result = run_cotraining(records, split, cfg.cotrain, run_dir=run_dir)
    except Exception as exc:
        raise RuntimeFailure(
            "co-training failed mid-run (the last completed round's checkpoint, "
            f"if any, is {run_dir / CHECKPOINT_FILENAME}): {exc}"
        ) from exc
    timings = {"total_s": time.perf_counter() - t0}
    report = build_run_report(result, timings)
    save_run_report(report, run_dir)
    write_history_csv(report, run_dir)
    _print_json(report)
    return EXIT_OK


def cmd_tune(args) -> int:
    cfg = _load_run_config(args)
    t_overrides = {}
    if args.algorithm:
        t_overrides["algorithm"] = args.algorithm
    if args.budget is not None:
        t_overrides["budget"] = args.budget
    if args.population is not None:
        t_overrides["population"] = args.population
    if t_overrides:
        cfg = replace(cfg, tuner=replace(cfg.tuner, **t_overrides))
    records, split = build_dataset(cfg)
    out_dir = _ensure_dir(Path(cfg.output_dir))
    try:
        rep = tune_pipeline(records, split, cfg.tuner, cfg.cotrain)
    except ObjectiveError as exc:
        save_vector(exc.vector, out_dir / "failed_vector.json")
        raise RuntimeFailure(str(exc)) from exc
    save_vector(rep.best_vector, out_dir / VECTOR_FILENAME)
    write_trace_csv(rep, out_dir / TRACE_FILENAME)
    payload = {
        "algorithm": rep.algorithm,
        "best_score": rep.best_score,
        "n_evaluations": rep.n_evaluations,
        "best_vector": asdict(rep.best_vector),
        "vector_file": str(out_dir / VECTOR_FILENAME),
        "trace_file": str(out_dir / TRACE_FILENAME),
    }
    _write_text(out_dir / "tune_report.json", json.dumps(payload, indent=2) + "\n")
    _print_json(payload)
    return EXIT_OK


def cmd_report(args) -> int:
    run_dir = Path(args.run)
    if not (run_dir / REPORT_FILENAME).is_file():
        raise IOFailure(f"run dir {run_dir} is missing artifacts: {REPORT_FILENAME}")
    try:
        report = load_run_report(run_dir)
    except ValueError as exc:
        raise UsageError(f"unreadable report: {exc}") from exc
    # both files are read before anything is printed or written
    trace_path = run_dir / TRACE_FILENAME
    trace = None
    if trace_path.is_file():
        try:
            trace = trace_series(trace_path)
        except ValueError as exc:
            raise UsageError(f"unreadable tuning trace: {exc}") from exc
    print(render_summary_table(report))
    save_svg(
        line_plot(
            history_series(report), "validation mAP by round", "round", "mAP",
        ),
        run_dir / "val_map.svg",
    )
    if trace is not None:
        save_svg(
            line_plot(trace, "tuning progress", "evaluation", "objective"),
            run_dir / "tune_trace.svg",
        )
    else:
        logger.info("no tuning trace in %s; skipping that plot", run_dir)
    return EXIT_OK


# ---------------------------------------------------------------- argparse

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densecotrain",
        description="Co-training experiments on dense synthetic scenes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-gen", help="generate a synthetic dataset CSV")
    p.add_argument("--images", type=int, required=True)
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--overlap", type=float, default=0.0)
    p.add_argument("--box-w", type=float, default=48.0)
    p.add_argument("--box-h", type=float, default=64.0)
    p.add_argument("--jitter", type=float, default=2.0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_synth_gen)

    p = sub.add_parser("split", help="select labeled/unlabeled sets and split")
    p.add_argument("--annotations", required=True)
    p.add_argument("--n-labeled", type=int, default=2000)
    p.add_argument("--n-unlabeled", type=int, default=8000)
    p.add_argument("--fractions", default="0.7,0.1,0.2")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("evaluate", help="score a predictions file against GT")
    p.add_argument("--predictions", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--pr-svg", default=None, metavar="DIR",
                   help="emit per-threshold PR-curve SVGs into DIR")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("cotrain", help="run the co-training experiment")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--max-rounds", type=int, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--baseline", choices=("self-train", "supervised"),
                   default=None, help="run an ablation arm instead of co-training")
    p.add_argument("--hyper", default=None,
                   help="hyper-vector JSON from the tune command")
    p.set_defaults(func=cmd_cotrain)

    p = sub.add_parser("tune", help="search hyperparameters on the supervised phase")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--algorithm", choices=("ga", "sa"), default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--population", type=int, default=None)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("report", help="render tables and plots for a run dir")
    p.add_argument("--run", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RuntimeFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (UsageError, ConfigError, AnnotationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (IOFailure, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # unexpected failure is a runtime failure
        logger.exception("unexpected failure")
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
