"""CLI behavior: exit-code contract, file artifacts, determinism."""

import json
import math
import os
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densecotrain.cli import (
    UsageError, load_predictions, load_vector, main, save_predictions, save_vector,
)
from densecotrain.config import default_synthetic, save_config
from densecotrain.cotrain import CHECKPOINT_FILENAME
from densecotrain.data import ImageRecord, SceneSpec, load_annotations, write_manifest
from densecotrain.geom import Box, ColumnBatch, GroundTruth, ScoredBox, columns
from densecotrain.report import save_run_report
from densecotrain.tuner import DEFAULT_VECTOR, GENE_NAMES, vector_values


def run_cli(argv):
    try:
        return main([str(a) for a in argv])
    except SystemExit as exc:  # argparse usage errors
        return exc.code


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


@pytest.fixture()
def dataset_dir(tmp_path):
    out = tmp_path / "ds"
    code = run_cli(
        ["synth-gen", "--images", 12, "--rows", 3, "--cols", 4,
         "--overlap", 0.2, "--seed", 7, "--out", out]
    )
    assert code == 0
    return out


def tiny_config(tmp_path, **cotrain_overrides) -> Path:
    doc = {
        "seed": 5,
        "output_dir": str(tmp_path / "run"),
        "dataset": {
            "source": "synthetic",
            "n_labeled": 40,
            "n_unlabeled": 60,
            "grid_rows": 3,
            "grid_cols": 4,
            "row_range": [3, 4],
            "col_range": [3, 5],
            "overlap_factor": 0.4,
        },
        "cotrain": {"max_rounds": 1, "tau_conf": 0.8, **cotrain_overrides},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


# ---------------------------------------------------------------- synth-gen


def test_synth_gen_counts(dataset_dir, capsys):
    csv_lines = (dataset_dir / "annotations.csv").read_text().splitlines()
    assert len(csv_lines) == 1 + 12 * 3 * 4  # header + one row per box
    assert (dataset_dir / "manifest.json").is_file()


def test_synth_gen_prints_counts(tmp_path, capsys):
    code = run_cli(
        ["synth-gen", "--images", 10, "--rows", 5, "--cols", 8,
         "--seed", 7, "--out", tmp_path / "g"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["images"] == 10
    assert payload["boxes"] == 400


def test_synth_gen_rerun_byte_identical(tmp_path):
    args = ["synth-gen", "--images", 6, "--rows", 2, "--cols", 3, "--seed", 9]
    assert run_cli(args + ["--out", tmp_path / "a"]) == 0
    assert run_cli(args + ["--out", tmp_path / "b"]) == 0
    a = (tmp_path / "a" / "annotations.csv").read_bytes()
    b = (tmp_path / "b" / "annotations.csv").read_bytes()
    assert a == b


def test_synth_gen_missing_seed_exits_2(tmp_path, capsys):
    code = run_cli(
        ["synth-gen", "--images", 3, "--rows", 2, "--cols", 2,
         "--out", tmp_path / "x"]
    )
    assert code == 2
    assert "--seed" in capsys.readouterr().err


def test_synth_gen_invalid_flags_exit_2(tmp_path, capsys):
    """Each bad flag is refused by the name of the field it sets, before the
    output dir is made: a non-finite size once exited 4 (inf:
    OverflowError) or failed on an int cast (nan), and numpy refused a
    negative seed without naming it, after the dir was made."""
    base = ["synth-gen", "--seed", 1, "--out", tmp_path / "x",
            "--images", 2, "--rows", 2, "--cols", 2]
    for flag, value, message in (
        ("--images", 0, "n_images must be >= 1, got 0"),
        ("--rows", 0, "grid_rows must be >= 1, got 0"),
        ("--cols", -1, "grid_cols must be >= 1, got -1"),
        ("--overlap", 1.5, "overlap_factor must be in [0, 1), got 1.5"),
        ("--jitter", "inf", "jitter must be finite"),
        ("--box-h", "inf", "box_h must be finite"),
        ("--box-w", "nan", "box_w must be finite"),
        ("--jitter", "nan", "jitter must be finite"),
        ("--seed", -3, "seed must be >= 0, got -3"),
    ):
        capsys.readouterr()
        assert run_cli(base + [flag, value]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


def test_synth_gen_unwritable_out_exits_3(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a dir", encoding="utf-8")
    code = run_cli(
        ["synth-gen", "--images", 2, "--rows", 2, "--cols", 2, "--seed", 1,
         "--out", blocker / "sub"]
    )
    assert code == 3


# -------------------------------------------------------------------- split


def test_split_writes_counts(dataset_dir, tmp_path, capsys):
    out = tmp_path / "sp"
    code = run_cli(
        ["split", "--annotations", dataset_dir / "annotations.csv",
         "--n-labeled", 10, "--n-unlabeled", 2, "--seed", 3, "--out", out]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["train"] == 7 and payload["val"] == 1 and payload["test"] == 2
    assert payload["unlabeled_pool"] == 2
    doc = read_json(out / "split.json")
    ids = (doc["split"]["train"] + doc["split"]["val"] + doc["split"]["test"]
           + doc["split"]["unlabeled_pool"])
    assert len(ids) == len(set(ids)) == 12


def test_split_deterministic(dataset_dir, tmp_path):
    outs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        assert run_cli(
            ["split", "--annotations", dataset_dir / "annotations.csv",
             "--n-labeled", 10, "--n-unlabeled", 2, "--seed", 3, "--out", out]
        ) == 0
        outs.append((out / "split.json").read_bytes())
    assert outs[0] == outs[1]


def test_split_bad_fractions_exit_2(dataset_dir, tmp_path):
    code = run_cli(
        ["split", "--annotations", dataset_dir / "annotations.csv",
         "--fractions", "0.5,0.4,0.2", "--n-labeled", 10, "--n-unlabeled", 2,
         "--seed", 1, "--out", tmp_path / "x"]
    )
    assert code == 2


@pytest.mark.parametrize("fractions", ["0.7,0.3,nan", "nan,0.3,0.7"])
def test_split_non_finite_fractions_exit_2(dataset_dir, tmp_path, capsys, fractions):
    code = run_cli(
        ["split", "--annotations", dataset_dir / "annotations.csv",
         "--fractions", fractions, "--n-labeled", 10, "--n-unlabeled", 2,
         "--seed", 1, "--out", tmp_path / "x"]
    )
    assert code == 2
    assert "fractions must be three finite shares >= 0" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_split_missing_annotations_exit_3(tmp_path):
    code = run_cli(
        ["split", "--annotations", tmp_path / "nope.csv", "--seed", 1,
         "--out", tmp_path / "x"]
    )
    assert code == 3


def test_split_malformed_annotations_exit_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "image_name,x1,y1,x2,y2,class,image_width,image_height\n"
        "img,zero,0,5,5,object,100,100\n",
        encoding="utf-8",
    )
    code = run_cli(
        ["split", "--annotations", bad, "--n-labeled", 1, "--n-unlabeled", 0,
         "--seed", 1, "--out", tmp_path / "x"]
    )
    assert code == 2


def test_annotations_with_two_class_names_of_one_id_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "img,0,0,5,5,cat,100,100\nimg,1,1,6,6,class_1,100,100\n", encoding="utf-8"
    )
    code = run_cli(
        ["split", "--annotations", bad, "--n-labeled", 1, "--n-unlabeled", 0,
         "--seed", 1, "--out", tmp_path / "x"]
    )
    assert code == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["split", "cotrain", "tune"])
def test_negative_seed_exit_2_naming_seed(dataset_dir, tmp_path, capsys, command):
    if command == "split":
        argv = ["split", "--annotations", dataset_dir / "annotations.csv",
                "--n-labeled", 10, "--n-unlabeled", 2]
    else:
        argv = [command]
    assert run_cli([*argv, "--seed", -3, "--out", tmp_path / "x"]) == 2
    assert "seed must be >= 0, got -3" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["cotrain", "tune"])
@pytest.mark.parametrize(
    "key, value", [("row_range", [5, 3]), ("col_range", [0, 2])]
)
def test_bad_grid_range_exit_2_naming_key(tmp_path, capsys, command, key, value):
    """A reversed range failed with numpy's bare "low >= high", and a 0 only
    when some scene drew it, so acceptance hung on the seed."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "seed": 1, "output_dir": str(tmp_path / "run"), "dataset": {key: value},
    }), encoding="utf-8")
    assert run_cli([command, "--config", cfg]) == 2
    assert f"dataset.{key} must be [lo, hi] with 1 <= lo <= hi" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["evaluate", "cotrain"])
def test_misspelled_annotation_header_exit_2(tmp_path, capsys, command):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "image_name,x1,y1,x2,y2,class,image_widht,image_height\n"
        "img,0,0,5,5,object,100,100\n",
        encoding="utf-8",
    )
    if command == "evaluate":
        preds = tmp_path / "preds.jsonl"
        preds.write_text("", encoding="utf-8")
        argv = ["evaluate", "--predictions", preds, "--annotations", bad]
    else:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "seed": 1, "output_dir": str(tmp_path / "run"),
            "dataset": {"source": "csv", "csv_path": str(bad),
                        "n_labeled": 1, "n_unlabeled": 0},
        }), encoding="utf-8")
        argv = ["cotrain", "--config", cfg]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert "image_name,x1,y1,x2,y2,class,image_width,image_height" in err


@pytest.mark.parametrize(
    "row, named",
    [("z," + "9" * 140_000, "line 3: field larger than field limit"),
     ("b,1,1,5,5,object," + "9" * 400 + ",10", "line 3: field image_width must be <= 2**53")],
    ids=["field-beyond-csv-limit", "width-beyond-float-range"],
)
def test_evaluate_annotation_field_beyond_its_limit_exit_2(tmp_path, capsys, row, named):
    """A csv.Error and an OverflowError in the clamp once exited 4,
    naming no line."""
    bad = tmp_path / "bad.csv"
    bad.write_text(f"a,1,1,5,5,object,10,10\n\n{row}\n", encoding="utf-8")
    preds = tmp_path / "preds.jsonl"
    preds.write_text("", encoding="utf-8")
    assert run_cli(["evaluate", "--predictions", preds, "--annotations", bad]) == 2
    assert f"{bad}, {named}" in capsys.readouterr().err


def test_split_too_few_records_exit_2(dataset_dir, tmp_path):
    code = run_cli(
        ["split", "--annotations", dataset_dir / "annotations.csv",
         "--n-labeled", 100, "--n-unlabeled", 100, "--seed", 1,
         "--out", tmp_path / "x"]
    )
    assert code == 2


# ----------------------------------------------------------------- evaluate


def test_evaluate_verbatim_predictions_map_one(dataset_dir, tmp_path, capsys):
    records = load_annotations(dataset_dir / "annotations.csv")
    preds = {
        r.image_id: [ScoredBox(g.box, 1.0, g.label) for g in r.gts]
        for r in records
    }
    pred_path = tmp_path / "preds.jsonl"
    save_predictions(preds, pred_path)
    code = run_cli(
        ["evaluate", "--predictions", pred_path,
         "--annotations", dataset_dir / "annotations.csv"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["map_coco"] == pytest.approx(1.0)
    assert payload["ap75"] == pytest.approx(1.0)
    assert payload["ar300"] == pytest.approx(1.0)


def test_evaluate_empty_predictions_all_zero(dataset_dir, tmp_path, capsys):
    pred_path = tmp_path / "empty.jsonl"
    pred_path.write_text("", encoding="utf-8")
    code = run_cli(
        ["evaluate", "--predictions", pred_path,
         "--annotations", dataset_dir / "annotations.csv"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["map_coco"] == 0.0
    assert payload["ap75"] == 0.0
    assert payload["ar300"] == 0.0


def test_evaluate_three_detection_fixture(tmp_path, capsys):
    from densecotrain.data import save_annotations

    rec = ImageRecord(
        "a", 100, 100,
        (GroundTruth(Box(0, 0, 2, 2)), GroundTruth(Box(10, 10, 12, 12))),
    )
    gt_path = tmp_path / "gt.csv"
    save_annotations([rec], gt_path)
    preds = {
        "a": [
            ScoredBox(Box(0, 0, 2, 2), 0.9),
            ScoredBox(Box(50, 50, 52, 52), 0.8),
            ScoredBox(Box(10, 10, 12, 12), 0.7),
        ]
    }
    pred_path = tmp_path / "p.jsonl"
    save_predictions(preds, pred_path)
    code = run_cli(
        ["evaluate", "--predictions", pred_path, "--annotations", gt_path]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["ap_per_threshold"]["0.50"] - 0.8350) < 1e-4


def test_evaluate_pr_svg_parses(dataset_dir, tmp_path, capsys):
    records = load_annotations(dataset_dir / "annotations.csv")
    preds = {
        r.image_id: [ScoredBox(g.box, 0.9, g.label) for g in r.gts]
        for r in records
    }
    pred_path = tmp_path / "p.jsonl"
    save_predictions(preds, pred_path)
    svg_dir = tmp_path / "svg"
    code = run_cli(
        ["evaluate", "--predictions", pred_path,
         "--annotations", dataset_dir / "annotations.csv",
         "--pr-svg", svg_dir]
    )
    assert code == 0
    files = sorted(svg_dir.glob("pr_*.svg"))
    assert len(files) == 10
    for f in files:
        ET.parse(f)  # well-formed XML


def test_evaluate_malformed_line_names_line_number(dataset_dir, tmp_path, capsys):
    pred_path = tmp_path / "bad.jsonl"
    pred_path.write_text('{"image_id": "x", "detections": []}\nnot json\n',
                         encoding="utf-8")
    code = run_cli(
        ["evaluate", "--predictions", pred_path,
         "--annotations", dataset_dir / "annotations.csv"]
    )
    assert code == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "label",
    ["1.7", "1.0", "true", '"0"', "null", "[0]",
     "100000000000000000000000", "-100000000000000000000000"],
)
def test_evaluate_non_integer_label_exit_2(dataset_dir, tmp_path, capsys, label):
    """A label must be a JSON integer: int() would read 1.7 as 1 and true
    as 1.  It must also fit the int64 label column, or matching failed
    with exit 4."""
    records = load_annotations(dataset_dir / "annotations.csv")
    good = '{"x1": 1, "y1": 1, "x2": 5, "y2": 5, "score": 0.5, "label": 0}'
    bad = good.replace('"label": 0', f'"label": {label}')
    pred_path = tmp_path / "p.jsonl"
    pred_path.write_text(
        f'{{"image_id": "{records[0].image_id}", "detections": [{good}]}}\n'
        f'{{"image_id": "{records[1].image_id}", "detections": [{good}, {bad}]}}\n',
        encoding="utf-8",
    )
    code = run_cli(
        ["evaluate", "--predictions", pred_path,
         "--annotations", dataset_dir / "annotations.csv"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "line 2, detection 1" in err and "label" in err


@pytest.mark.parametrize(
    "field, value",
    [("x1", '"1"'), ("y1", "true"), ("x2", "null"), ("y2", "[5]"),
     ("score", "true"), ("score", '"0.5"'), ("score", "false")],
)
def test_evaluate_non_numeric_box_or_score_exit_2(
    dataset_dir, tmp_path, capsys, field, value
):
    """Coordinates and score must be JSON numbers: float() would read "1"
    and true as 1.0."""
    records = load_annotations(dataset_dir / "annotations.csv")
    good = {"x1": 1, "y1": 1, "x2": 5, "y2": 5, "score": 0.5, "label": 0}
    bad = json.dumps(good).replace(f'"{field}": {json.dumps(good[field])}',
                                   f'"{field}": {value}')
    assert bad != json.dumps(good)
    pred_path = tmp_path / "p.jsonl"
    pred_path.write_text(
        f'{{"image_id": "{records[0].image_id}", "detections": [{json.dumps(good)}]}}\n'
        f'{{"image_id": "{records[1].image_id}", "detections": '
        f'[{json.dumps(good)}, {bad}]}}\n',
        encoding="utf-8",
    )
    code = run_cli(
        ["evaluate", "--predictions", pred_path,
         "--annotations", dataset_dir / "annotations.csv"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "line 2, detection 1" in err and field in err


@pytest.mark.parametrize(
    "image_id, shown", [("1", "1"), ("null", "None"), ("true", "True"), ("[1]", "[1]")]
)
def test_evaluate_non_string_image_id_exit_2(
    dataset_dir, tmp_path, capsys, image_id, shown
):
    """An image id must be a JSON string: str() would score 1 against the
    image named "1" and make null the image "None"."""
    records = load_annotations(dataset_dir / "annotations.csv")
    pred_path = tmp_path / "p.jsonl"
    pred_path.write_text(
        f'{{"image_id": "{records[0].image_id}", "detections": []}}\n'
        f'{{"image_id": {image_id}, "detections": []}}\n',
        encoding="utf-8",
    )
    code = run_cli(
        ["evaluate", "--predictions", pred_path,
         "--annotations", dataset_dir / "annotations.csv"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"{pred_path}, line 2: image_id must be a string, got {shown}" in err


_MISSING = object()


def _det(**changes):
    """A detection's JSON text: the good one with ``changes``, where the
    value ``_MISSING`` drops the key."""
    d = {"x1": 1, "y1": 1, "x2": 5, "y2": 5, "score": 0.5, "label": 0, **changes}
    return json.dumps({k: v for k, v in d.items() if v is not _MISSING})


@pytest.mark.parametrize(
    "detections, message",
    [
        (f"[{_det(x2=1)}]",
         "detection 0: degenerate box: need x2 > x1 and y2 > y1, got (1.0, 1.0, 1.0, 5.0)"),
        (f"[{_det()}, {_det(y2=0.5)}]",
         "detection 1: degenerate box: need x2 > x1 and y2 > y1, got (1.0, 1.0, 5.0, 0.5)"),
        (f"[{_det(x1=math.nan)}]", "detection 0: box coordinate x1 is not finite: nan"),
        (f"[{_det(y2=math.inf)}]", "detection 0: box coordinate y2 is not finite: inf"),
        (f"[{_det(x1=-math.inf)}]", "detection 0: box coordinate x1 is not finite: -inf"),
        (f"[{_det(score=1.5)}]", "detection 0: score must be in [0, 1], got 1.5"),
        (f"[{_det(score=-0.1)}]", "detection 0: score must be in [0, 1], got -0.1"),
        (f"[{_det(score=math.nan)}]", "detection 0: score must be in [0, 1], got nan"),
        (f"[{_det()}, {_det(x2=_MISSING)}]", "detection 1: 'x2'"),
        # the first bad detection is named, whatever check the next one fails
        (f'[{_det(x2=1)}, {_det(x1="1")}]',
         "detection 0: degenerate box: need x2 > x1 and y2 > y1, got (1.0, 1.0, 1.0, 5.0)"),
        # within a detection the box comes before the label, the label
        # before the score
        (f"[{_det(x2=1, label=1.5)}]",
         "detection 0: degenerate box: need x2 > x1 and y2 > y1, got (1.0, 1.0, 1.0, 5.0)"),
        (f"[{_det(score=2, label=1.5)}]", "detection 0: label must be an integer, got 1.5"),
        # a JSON integer beyond float range; float() raised OverflowError,
        # which exited 4 as an unexpected failure
        (f'[{_det()}, {{"x1": 1, "y1": 1, "x2": 1{"0" * 400}, "y2": 5, "score": 0.5}}]',
         "detection 1: int too large to convert to float"),
        (f'[{{"x1": 1, "y1": 1, "x2": 5, "y2": 5, "score": -1{"0" * 400}}}]',
         "detection 0: int too large to convert to float"),
    ],
    ids=["degenerate-x", "degenerate-y", "nan", "inf", "minus-inf", "score-1.5",
         "score-minus-0.1", "score-nan", "missing-x2", "degenerate-before-string",
         "box-before-label", "label-before-score", "huge-x2", "huge-score"],
)
def test_evaluate_bad_detection_value_exit_2(
    dataset_dir, tmp_path, capsys, detections, message
):
    """Every value error in a predictions file exits 2, naming the line,
    the detection and the check that failed (``geom``'s own message)."""
    records = load_annotations(dataset_dir / "annotations.csv")
    pred_path = tmp_path / "p.jsonl"
    pred_path.write_text(
        f'{{"image_id": "{records[0].image_id}", "detections": [{_det()}]}}\n'
        f'{{"image_id": "{records[1].image_id}", "detections": {detections}}}\n',
        encoding="utf-8",
    )
    code = run_cli(
        ["evaluate", "--predictions", pred_path,
         "--annotations", dataset_dir / "annotations.csv"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {pred_path}, line 2, {message}\n" in err
    assert "unexpected failure" not in err


def _reference_load_predictions(path):
    """The object loader that ``load_predictions`` replaced: a ``Box`` and
    a ``ScoredBox`` per detection, whose checks refuse bad values.  Only
    the ``OverflowError`` of a JSON integer beyond float range is added to
    the errors it turns into a ``UsageError``."""
    out = {}
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{path}, line {line_no}: invalid JSON ({exc})")
        if not isinstance(obj, dict) or "image_id" not in obj:
            raise UsageError(f"{path}, line {line_no}: missing image_id")
        dets_field = obj.get("detections")
        if not isinstance(dets_field, list):
            raise UsageError(f"{path}, line {line_no}: missing detections list")
        image_id = obj["image_id"]
        if not isinstance(image_id, str):
            raise UsageError(
                f"{path}, line {line_no}: image_id must be a string, "
                f"got {image_id!r}"
            )
        if image_id in out:
            raise UsageError(
                f"{path}, line {line_no}: duplicate image_id {image_id!r}"
            )
        dets = []
        for j, d in enumerate(dets_field):
            try:
                vals = (d["x1"], d["y1"], d["x2"], d["y2"], d["score"])
                for key, v in zip(("x1", "y1", "x2", "y2", "score"), vals):
                    if type(v) not in (int, float):
                        raise ValueError(f"{key} must be a number, got {v!r}")
                x1, y1, x2, y2, score = map(float, vals)
                box = Box(x1, y1, x2, y2)
                label = d.get("label", 0)
                if isinstance(label, bool) or not isinstance(label, int):
                    raise ValueError(f"label must be an integer, got {label!r}")
                if not -(2**63) <= label < 2**63:
                    raise ValueError(f"label {label} is beyond int64")
                dets.append(ScoredBox(box, score, label))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise UsageError(
                    f"{path}, line {line_no}, detection {j}: {exc}"
                ) from exc
        out[image_id] = dets
    return out


_BAD_VALUES = st.sampled_from([
    math.nan, math.inf, -math.inf, 1.5, -0.1, 1.0, 0.0, -0.0, 2.5,
    10**400, -(10**400), 2**63, -(2**63) - 1, 2**63 - 1, -(2**63),
    True, None, "1", [1],
]) | st.floats(-200.0, 200.0)
_KEYS = ("x1", "y1", "x2", "y2", "score", "label")
_BAD_LINES = (
    "not json", "[1]", '{"image_id": 1, "detections": []}', '{"image_id": "a"}',
    '{"detections": []}', '{"image_id": "img0", "detections": []}',
    '{"image_id": "a", "detections": [1]}', '{"image_id": "a", "detections": [null]}',
)


@st.composite
def _detection(draw):
    """A well-formed detection's JSON object."""
    x1, y1 = draw(st.floats(-100, 100)), draw(st.floats(-100, 100))
    d = {
        "x1": x1, "y1": y1,
        "x2": x1 + draw(st.floats(0.5, 50)), "y2": y1 + draw(st.floats(0.5, 50)),
        "score": draw(st.floats(0.0, 1.0) | st.sampled_from([0, 1])),
        "label": draw(st.integers(-(2**63), 2**63 - 1)),
    }
    if draw(st.booleans()):
        del d["label"]
    return d


@st.composite
def _predictions_text(draw, well_formed):
    """A predictions file; a malformed one has one or two faults: a bad
    line, or a detection with up to three fields dropped, set to a bad
    value or set to a coordinate's value (x2 = x1 is degenerate)."""
    lines = [
        {"image_id": f"img{i}",
         "detections": draw(st.lists(_detection(), min_size=1 - well_formed, max_size=5))}
        for i in range(draw(st.integers(1 - well_formed, 4)))
    ]
    texts = [json.dumps(line) for line in lines]
    for _ in range(0 if well_formed else draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        dets = lines[i]["detections"]
        if draw(st.integers(0, 4)) == 4:
            texts[i] = draw(st.sampled_from(_BAD_LINES))
            continue
        d = dets[draw(st.integers(0, len(dets) - 1))]
        for key in draw(st.lists(st.sampled_from(_KEYS), min_size=1, max_size=3)):
            how = draw(st.sampled_from(["value", "copy", "drop"]))
            if how == "value":
                d[key] = draw(_BAD_VALUES)
            elif how == "copy":
                d[key] = d.get(draw(st.sampled_from(_KEYS[:4])))
            else:
                d.pop(key, None)
        texts[i] = json.dumps(lines[i])
    return "\n".join(texts) + "\n"


def _bits(batch):
    return [(c.dtype, c.shape, c.tobytes()) for c in columns(batch)]


@settings(max_examples=150, deadline=None)
@given(well_formed=st.booleans(), data=st.data())
def test_load_predictions_matches_reference_loader(tmp_path_factory, well_formed, data):
    """The column loader equals the object loader: on a well-formed file
    each image's columns are ``geom.columns`` of the objects' list bit for
    bit, and on a malformed one both raise the same ``UsageError``."""
    text = data.draw(_predictions_text(well_formed))
    path = tmp_path_factory.getbasetemp() / "reference.jsonl"
    path.write_text(text, encoding="utf-8")
    try:
        want = _reference_load_predictions(path)
    except UsageError as exc:
        with pytest.raises(UsageError) as got:
            load_predictions(path)
        assert str(got.value) == str(exc)
        return
    got = load_predictions(path)
    assert list(got) == list(want)
    for image_id, dets in want.items():
        assert isinstance(got[image_id], ColumnBatch)
        assert _bits(got[image_id]) == _bits(dets)


def test_load_predictions_matches_reference_on_every_pair_of_faults(tmp_path):
    """Every pair of faults from a fixed list in one detection, and pairs in
    two detections: the first failing check decides the message, so the
    checks must run in the object loader's order."""
    base = {"x1": 1, "y1": 2, "x2": 5, "y2": 6, "score": 0.5, "label": 3}
    values = [math.nan, -math.inf, 1.5, -0.1, 10**400, 2**63, 2.5, True, "1", _MISSING]
    faults = [(key, v) for key in _KEYS for v in values] + [
        (key, base[other]) for key in _KEYS[:4] for other in _KEYS[:4] if key != other
    ]
    path = tmp_path / "p.jsonl"

    def same(dets):
        path.write_text(json.dumps({"image_id": "a", "detections": dets}) + "\n",
                        encoding="utf-8")
        try:
            want = _reference_load_predictions(path)
        except UsageError as exc:
            with pytest.raises(UsageError) as got:
                load_predictions(path)
            return str(got.value) == str(exc)
        return _bits(load_predictions(path)["a"]) == _bits(want["a"])

    def faulty(*changes):
        d = {**base, **dict(changes)}
        return {k: v for k, v in d.items() if v is not _MISSING}

    for a in faults:
        for b in faults:
            assert same([faulty(a, b)]), (a, b)
        for b in faults[::7]:
            assert same([faulty(a), faulty(b)]), (a, b)


def test_evaluate_builds_no_scored_box(tmp_path, capsys, monkeypatch):
    """``evaluate`` reads a well-formed predictions file as columns and
    scores them as columns: not one ``ScoredBox`` is made."""
    from densecotrain.data import save_annotations

    rec = ImageRecord(
        "a", 100, 100,
        (GroundTruth(Box(0, 0, 2, 2)), GroundTruth(Box(10, 10, 12, 12))),
    )
    gt_path, pred_path = tmp_path / "gt.csv", tmp_path / "p.jsonl"
    save_annotations([rec], gt_path)
    save_predictions(
        {"a": [ScoredBox(Box(0, 0, 2, 2), 0.9), ScoredBox(Box(50, 50, 52, 52), 0.8)]},
        pred_path,
    )
    made = []
    post_init = ScoredBox.__post_init__

    def counted(self):
        made.append(self)
        post_init(self)

    monkeypatch.setattr(ScoredBox, "__post_init__", counted)
    ScoredBox(Box(0, 0, 1, 1), 0.5)
    assert len(made) == 1  # the wrapper sees every ScoredBox
    assert run_cli(["evaluate", "--predictions", pred_path, "--annotations", gt_path]) == 0
    assert json.loads(capsys.readouterr().out)["map_coco"] > 0
    assert len(made) == 1


def test_cotrain_and_evaluate_build_no_ground_truth_objects(tmp_path, capsys, monkeypatch):
    """Ground truth stays columns from the source to the metrics: scene
    generation, a ``cotrain`` run, the annotation file and ``evaluate``
    build no ``GroundTruth``."""
    pred_path = tmp_path / "p.jsonl"
    save_predictions({"synth-00000": [ScoredBox(Box(10, 10, 58, 74), 0.9)]}, pred_path)
    built = []
    init = GroundTruth.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GroundTruth, "__init__", counting)
    GroundTruth(Box(0, 0, 1, 1))
    assert built == [1]  # the wrapper sees every GroundTruth
    assert run_cli(["cotrain", "--config", tiny_config(tmp_path)]) == 0
    assert run_cli(["synth-gen", "--images", 3, "--rows", 3, "--cols", 4,
                    "--seed", 7, "--out", tmp_path / "ds"]) == 0
    capsys.readouterr()
    assert run_cli(["evaluate", "--predictions", pred_path,
                    "--annotations", tmp_path / "ds" / "annotations.csv"]) == 0
    assert json.loads(capsys.readouterr().out)["map_coco"] >= 0
    assert built == [1]


def test_load_predictions_keeps_integer_labels(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_text(
        '{"image_id": "a", "detections": ['
        '{"x1": 1, "y1": 1, "x2": 5, "y2": 5, "score": 0.5, "label": 2}, '
        '{"x1": 1, "y1": 1, "x2": 5, "y2": 5, "score": 0.5}]}\n',
        encoding="utf-8",
    )
    labels = load_predictions(path)["a"].labels
    assert labels.tolist() == [2, 0]
    assert labels.dtype == np.int64


def test_evaluate_unknown_image_id_exit_2(dataset_dir, tmp_path):
    pred_path = tmp_path / "p.jsonl"
    pred_path.write_text(
        '{"image_id": "ghost", "detections": []}\n', encoding="utf-8"
    )
    code = run_cli(
        ["evaluate", "--predictions", pred_path,
         "--annotations", dataset_dir / "annotations.csv"]
    )
    assert code == 2


def test_evaluate_missing_predictions_exit_3(dataset_dir, tmp_path):
    code = run_cli(
        ["evaluate", "--predictions", tmp_path / "nope.jsonl",
         "--annotations", dataset_dir / "annotations.csv"]
    )
    assert code == 3


def test_predictions_roundtrip(tmp_path):
    preds = {
        "b": [ScoredBox(Box(1.25, 2.5, 3.75, 4.125), 0.625, 0)],
        "a": [],
    }
    path = tmp_path / "p.jsonl"
    save_predictions(preds, path)
    loaded = load_predictions(path)
    assert loaded == {
        "a": ColumnBatch(*columns([])), "b": ColumnBatch(*columns(preds["b"]))
    }


def test_predictions_save_load_save_byte_identical(tmp_path):
    """Saving what was loaded rewrites the file byte for byte, from column
    batches and from scored boxes alike."""
    preds = {
        "b": [ScoredBox(Box(1.25, 2.5, 3.75, 4.125), 0.625, 3),
              ScoredBox(Box(0.1, 0.2, 0.30000000000000004, 1e300), 1.0, -(2**63))],
        "a": [],
        "c": [ScoredBox(Box(-5e-324, -1.5, 0.0, 2.0), 0.0)],
    }
    first, second = tmp_path / "1.jsonl", tmp_path / "2.jsonl"
    save_predictions(preds, first)
    save_predictions(load_predictions(first), second)
    assert second.read_bytes() == first.read_bytes()


# ------------------------------------------------------------------ cotrain


def test_cotrain_run_artifacts(tmp_path, capsys):
    cfg_path = tiny_config(tmp_path)
    code = run_cli(["cotrain", "--config", cfg_path])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    run_dir = tmp_path / "run"
    # one checkpoint, replaced after each round, beside the three artifacts
    assert sorted(p.name for p in run_dir.iterdir()) == sorted(
        ["config.json", CHECKPOINT_FILENAME, "report.json", "history.csv"]
    )
    checkpoint = read_json(run_dir / CHECKPOINT_FILENAME)
    assert checkpoint["history"] == report["history"]
    assert report["rounds_completed"] == 1
    assert len(report["history"]) == 2
    hist_rows = (run_dir / "history.csv").read_text().splitlines()
    assert len(hist_rows) == 3  # header + 2 rounds


def test_cotrain_echoed_config_rebuilds_the_run(tmp_path):
    cfg_path = tiny_config(tmp_path, retrain_coeff={"recall_transfer": 0.3})
    assert run_cli(["cotrain", "--config", cfg_path]) == 0
    run_dir = tmp_path / "run"
    assert not (run_dir / "result.json").exists()
    echo = run_dir / "config.json"
    assert read_json(echo)["cotrain"]["retrain_coeff"]["recall_transfer"] == 0.3
    assert run_cli(["cotrain", "--config", echo, "--out", tmp_path / "rerun"]) == 0
    first = read_json(run_dir / "report.json")
    second = read_json(tmp_path / "rerun" / "report.json")
    assert "config" not in first  # config.json is the one echo
    for report in (first, second):
        report.pop("timings")
    assert first == second


def test_cotrain_rerun_identical_reports(tmp_path):
    cfg_path = tiny_config(tmp_path)
    assert run_cli(["cotrain", "--config", cfg_path]) == 0
    first = read_json(tmp_path / "run" / "report.json")
    assert run_cli(["cotrain", "--config", cfg_path]) == 0
    second = read_json(tmp_path / "run" / "report.json")
    first.pop("timings")
    second.pop("timings")
    assert first == second


def test_cotrain_max_rounds_zero_equals_supervised(tmp_path):
    cfg_path = tiny_config(tmp_path)
    assert run_cli(["cotrain", "--config", cfg_path, "--max-rounds", 0,
                    "--out", tmp_path / "r0"]) == 0
    assert run_cli(["cotrain", "--config", cfg_path, "--baseline", "supervised",
                    "--out", tmp_path / "rsup"]) == 0
    r0 = read_json(tmp_path / "r0" / "report.json")
    rsup = read_json(tmp_path / "rsup" / "report.json")
    assert r0["report_combined"] == rsup["report_combined"]
    assert r0["report_a"] == rsup["report_a"]
    assert r0["history"][0] == rsup["history"][0]


def test_cotrain_baseline_self_train(tmp_path):
    cfg_path = tiny_config(tmp_path)
    assert run_cli(["cotrain", "--config", cfg_path, "--baseline", "self-train",
                    "--out", tmp_path / "st"]) == 0
    report = read_json(tmp_path / "st" / "report.json")
    assert report["mode"] == "selftrain"


def test_cotrain_config_missing_seed_exit_2(tmp_path, capsys):
    path = tmp_path / "noseed.json"
    path.write_text(json.dumps({"dataset": {"source": "synthetic"}}),
                    encoding="utf-8")
    assert run_cli(["cotrain", "--config", path]) == 2
    assert "seed" in capsys.readouterr().err


def test_cotrain_config_bad_fractions_exit_2(tmp_path, capsys, monkeypatch):
    """Shares that sum to 1 but are not all >= 0 once passed the load and
    were refused, naming no key, after every scene was built."""
    import densecotrain.cli as cli_module

    built = []
    monkeypatch.setattr(
        cli_module, "generate_synthetic_dataset", lambda *a, **k: built.append(a)
    )
    path = tmp_path / "badfrac.json"
    for fractions in ([0.5, 0.4, 0.2], [1.5, -0.5, 0.0]):
        path.write_text(json.dumps({
            "seed": 1, "output_dir": str(tmp_path / "run"),
            "dataset": {"fractions": fractions},
        }), encoding="utf-8")
        assert run_cli(["cotrain", "--config", path]) == 2
        assert "error: config.dataset.fractions must be " in capsys.readouterr().err
    assert not built and not (tmp_path / "run").exists()


def test_cotrain_empty_share_exit_2_before_any_scene(tmp_path, capsys, monkeypatch):
    """The train, val and test counts depend only on n_labeled and the
    shares, so an empty one is refused before the scenes are made; all
    1,000 were once made first."""
    import densecotrain.cli as cli_module

    built = []
    monkeypatch.setattr(
        cli_module, "generate_synthetic_dataset", lambda *a, **k: built.append(a)
    )
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"seed": 0, "output_dir": str(tmp_path / "run"),
                                "dataset": {"fractions": [1.0, 0.0, 0.0]}}),
                    encoding="utf-8")
    assert run_cli(["cotrain", "--config", path]) == 2
    assert ("give 200 train and 0 validation images; a run needs at least one of each"
            in capsys.readouterr().err)
    assert not built and not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["cotrain", "tune"])
@pytest.mark.parametrize(
    "fractions, counts",
    [([0.9, 0.0, 0.1], "27 train and 0 validation"),
     ([0.0, 0.5, 0.5], "0 train and 15 validation")],
    ids=["no-val", "no-train"],
)
def test_split_without_train_or_val_exit_2_before_running(
    tmp_path, capsys, command, fractions, counts
):
    # both once failed deep in the run, with exit 4
    doc = read_json(tiny_config(tmp_path))
    doc["dataset"].update(n_labeled=30, fractions=fractions)
    path = tmp_path / "split.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli([command, "--config", path, "--budget" if command == "tune"
                    else "--max-rounds", 1]) == 2
    err = capsys.readouterr().err
    for token in ("dataset.fractions", "dataset.n_labeled 30", counts):
        assert token in err
    assert not (tmp_path / "run").exists()


def test_cotrain_split_without_test_exit_2_and_tune_accepts_it(tmp_path, capsys):
    # co-training once ran to exit 0 with every test metric null
    doc = read_json(tiny_config(tmp_path))
    doc["dataset"].update(n_labeled=30, fractions=[0.8, 0.2, 0.0])
    path = tmp_path / "split.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli(["cotrain", "--config", path, "--max-rounds", 1]) == 2
    err = capsys.readouterr().err
    for token in (
        "dataset.fractions [0.8, 0.2, 0.0]", "dataset.n_labeled 30",
        "24 train, 6 validation and 0 test",
    ):
        assert token in err
    assert not (tmp_path / "run").exists()
    # tuning reads no test image
    assert run_cli(["tune", "--config", path, "--budget", 1]) == 0


@pytest.mark.parametrize(
    "extra, key",
    [
        ({"detectors": {"loc": {"epochs": 20}}}, "detectors"),  # retired section
        ({"datset": {"n_labeled": 40}}, "datset"),               # misspelled
        ({"cotrain": {"max_rounds": 1, "loc_params": {"epoch": 3}}}, "epoch"),
        ({"cotrain": {"max_rounds": 1, "separation": 4.0}}, "separation"),  # retired
    ],
)
def test_cotrain_config_unknown_key_exit_2(tmp_path, capsys, extra, key):
    doc = {**read_json(tiny_config(tmp_path)), **extra}
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli(["cotrain", "--config", path]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"ensemble_train_cap": 0}, "ensemble_train_cap"),
        ({"ensemble_train_cap": -5}, "ensemble_train_cap"),
        ({"ensemble_train_cap": 1}, "ensemble_train_cap"),  # one class at most
        ({"unlabeled_subsample": -1}, "unlabeled_subsample"),
        # tree counts and depths are integers, and a bool is none
        ({"ensemble_params": {"xgb": {"n_trees": 2.5}}}, "n_trees"),
        ({"ensemble_params": {"rf": {"n_trees": 2.5}}}, "n_trees"),
        ({"ensemble_params": {"xgb": {"max_depth": 2.5}}}, "max_depth"),
        ({"ensemble_params": {"rf": {"max_depth": 1.5}}}, "max_depth"),
        ({"ensemble_params": {"rf": {"max_depth": True}}}, "max_depth"),
        # as is every integer key: 2.5 rounds ran 3, and true ran one
        ({"max_rounds": 2.5}, "config.cotrain.max_rounds must be int"),
        ({"max_rounds": True}, "config.cotrain.max_rounds must be int"),
        # a float key takes only a finite number; json writes and reads NaN
        ({"epsilon": float("nan")}, "config.cotrain.epsilon must be float"),
    ],
)
def test_cotrain_config_bad_value_exit_2_before_running(
    tmp_path, capsys, overrides, key
):
    cfg_path = tiny_config(tmp_path, **overrides)
    assert run_cli(["cotrain", "--config", cfg_path]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "run" / CHECKPOINT_FILENAME).exists()


def test_cotrain_retrain_coefficient_out_of_range_exit_2_before_making_dir(tmp_path, capsys):
    """An occlusion transfer above 1 makes the shrunk occlusion penalty
    negative: the run exited 4 after round 0, leaving config.json and
    checkpoint.json, with a message naming no config key."""
    cfg_path = tiny_config(tmp_path, retrain_coeff={"occlusion_transfer": 5.0})
    assert run_cli(["cotrain", "--config", cfg_path]) == 2
    assert (
        "config.cotrain.retrain_coeff.occlusion_transfer must be in [0, 1], got 5.0"
        in capsys.readouterr().err
    )
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "section, key", [("dataset", "box_w"), ("cotrain", "epsilon")]
)
def test_cotrain_float_key_beyond_float_range_exit_2_before_making_dir(
    tmp_path, capsys, section, key
):
    """A JSON integer too large for a float: box_w exited 4 from SceneSpec,
    and epsilon ran to the end and was echoed with its 401 digits."""
    doc = {"seed": 0, "output_dir": str(tmp_path / "run"), section: {key: 10**400}}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli(["cotrain", "--config", cfg_path]) == 2
    assert f"config.{section}.{key} must be float" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "section, key, value",
    [("dataset", "n_labeled", 40.5), (None, "seed", True)],
)
def test_cotrain_config_number_of_wrong_type_exit_2(
    tmp_path, capsys, section, key, value
):
    """An integer key takes only a JSON integer: 40.5 labeled images failed
    with a TypeError mid-build, and a true seed was taken for 1."""
    doc = read_json(tiny_config(tmp_path))
    (doc[section] if section else doc)[key] = value
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli(["cotrain", "--config", path]) == 2
    where = f"{section}.{key}" if section else key
    assert f"config.{where} must be int" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_cotrain_config_invalid_json_exit_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert run_cli(["cotrain", "--config", path]) == 2


@pytest.mark.parametrize("reader", ["predictions", "config"])
def test_integer_beyond_json_digit_limit_exit_2_naming_where(
    dataset_dir, tmp_path, capsys, reader
):
    """json refuses an integer of more than 4,300 digits with a plain
    ``ValueError``, not a ``JSONDecodeError``: the error still names the
    predictions line or the config file."""
    huge = "9" * 5001
    path = tmp_path / "input"
    if reader == "predictions":
        path.write_text(
            '{"image_id": "synth-00000", "detections": []}\n'
            f'{{"image_id": "synth-00001", "detections": [{{"x1": 0, "y1": 0, "x2": {huge}, '
            '"y2": 5, "score": 0.5}]}\n',
            encoding="utf-8",
        )
        argv = ["evaluate", "--predictions", path,
                "--annotations", dataset_dir / "annotations.csv"]
        named = f"{path}, line 2: invalid JSON"
    else:
        path.write_text(f'{{"seed": 0, "dataset": {{"box_w": {huge}}}}}', encoding="utf-8")
        argv = ["cotrain", "--config", path]
        named = f"{path}: not JSON"
    capsys.readouterr()
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert named in err and "4300" in err


@pytest.mark.parametrize("value", ["[" * 900 + "]" * 900, '"' + "x" * 5000 + '"'])
def test_config_value_nested_or_long_exit_2_with_a_bounded_message(tmp_path, capsys, value):
    """A config's seed nested 900 levels deep once came back whole in the
    message, 1,800 brackets on one line; the message names the field and
    shows a bounded repr of the value."""
    cfg = tmp_path / "config.json"
    cfg.write_text(f'{{"seed": {value}, "output_dir": "{tmp_path / "run"}"}}',
                   encoding="utf-8")
    capsys.readouterr()
    assert run_cli(["cotrain", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config.seed must be int, got " in err
    assert max(len(line) for line in err.splitlines()) <= 120
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("reader", ["predictions", "config", "hyper"])
def test_json_nested_beyond_the_recursion_limit_exit_2_naming_where(
    dataset_dir, tmp_path, capsys, reader
):
    """json.loads raises RecursionError, not ValueError, on a document
    nested 100,000 levels deep; each reader once exited 4 on it."""
    deep = "[" * 100_000
    path = tmp_path / "input"
    if reader == "predictions":
        path.write_text(f'{{"image_id": "synth-00000", "detections": []}}\n{deep}\n',
                        encoding="utf-8")
        argv = ["evaluate", "--predictions", path,
                "--annotations", dataset_dir / "annotations.csv"]
        named = f"{path}, line 2: invalid JSON"
    else:
        path.write_text(deep, encoding="utf-8")
        argv = (["cotrain", "--config", path] if reader == "config" else
                ["cotrain", "--config", tiny_config(tmp_path), "--hyper", path])
        named = f"{path}: not JSON"
    capsys.readouterr()
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert named in err and "recursion" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "write, name",
    [
        (lambda path, k: save_config(default_synthetic(k), path), "config.json"),
        (lambda path, k: save_run_report({"round": k}, path.parent), "report.json"),
        (lambda path, k: save_vector(replace(DEFAULT_VECTOR, d_rf=k + 2), path),
         "best_vector.json"),
        (lambda path, k: write_manifest(path, 10 + k, SceneSpec(3, 4), k), "manifest.json"),
    ],
    ids=["save_config", "save_run_report", "save_vector", "write_manifest"],
)
def test_write_cut_short_keeps_previous_file(tmp_path, monkeypatch, write, name):
    """Every document writer replaces its file atomically, as
    ``save_checkpoint`` does: a write cut short between the temp file and
    the rename leaves the previous file byte for byte."""
    path = tmp_path / name
    write(path, 0)
    previous = path.read_bytes()

    def cut_short(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", cut_short)
    with pytest.raises(OSError, match="disk full"):
        write(path, 1)
    monkeypatch.undo()
    assert path.read_bytes() == previous
    assert sorted(p.name for p in tmp_path.iterdir()) == [name, f"{name}.tmp"]
    write(path, 1)  # the next write replaces both
    assert path.read_bytes() != previous
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_cotrain_missing_config_file_exit_3(tmp_path):
    assert run_cli(["cotrain", "--config", tmp_path / "absent.json"]) == 3


def test_cotrain_bad_tau_override_exit_2(tmp_path):
    cfg_path = tiny_config(tmp_path)
    assert run_cli(["cotrain", "--config", cfg_path, "--tau", 7.5]) == 2


@pytest.mark.parametrize(
    "argv, field",
    [
        (["cotrain", "--tau", 1.5], "tau_conf"),
        (["cotrain", "--max-rounds", -1], "max_rounds"),
        (["tune", "--budget", 0], "budget"),
        (["tune", "--algorithm", "ga", "--population", 0], "population"),
    ],
)
def test_bad_override_exit_2_names_field(tmp_path, capsys, argv, field):
    assert run_cli([*argv, "--out", tmp_path / "run"]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_cotrain_midrun_failure_exit_4_with_checkpoint(tmp_path, monkeypatch, capsys):
    import densecotrain.cotrain as ct

    cfg_path = tiny_config(tmp_path)

    def boom(*args, **kwargs):
        raise RuntimeError("injected mid-run failure")

    monkeypatch.setattr(ct, "generate_pseudo_labels", boom)
    code = run_cli(["cotrain", "--config", cfg_path, "--out", tmp_path / "crash"])
    assert code == 4
    # the last completed round's checkpoint is kept and named, and nothing
    # else is dumped
    checkpoint = tmp_path / "crash" / CHECKPOINT_FILENAME
    assert str(checkpoint) in capsys.readouterr().err
    assert sorted(p.name for p in checkpoint.parent.iterdir()) == [
        CHECKPOINT_FILENAME, "config.json",
    ]
    assert len(read_json(checkpoint)["history"]) == 1


def test_cotrain_invalid_hyper_vector_exit_2(tmp_path):
    cfg_path = tiny_config(tmp_path)
    bad = tmp_path / "vec.json"
    bad.write_text(json.dumps({"genes": {"lr_xgb": 99}}), encoding="utf-8")
    assert run_cli(["cotrain", "--config", cfg_path, "--hyper", bad]) == 2


@pytest.mark.parametrize(
    "gene, value, rule",
    [("d_xgb", 13, "in [1, 12], got 13"),
     ("k_svm", "sigmoid", "one of ('linear', 'rbf', 'poly'), got 'sigmoid'")],
    ids=["d_xgb", "k_svm"],
)
def test_cotrain_hyper_vector_gene_out_of_range_exit_2(tmp_path, capsys, gene, value, rule):
    """A complete vector with one gene outside its range or menu fails
    naming the file and the gene's path, before any run directory."""
    cfg_path = tiny_config(tmp_path)
    genes = dict(zip(GENE_NAMES, vector_values(DEFAULT_VECTOR)))
    bad = tmp_path / "vec.json"
    bad.write_text(json.dumps({"genes": {**genes, gene: value}}), encoding="utf-8")
    assert run_cli(["cotrain", "--config", cfg_path, "--hyper", bad]) == 2
    err = capsys.readouterr().err
    assert f"vector file {bad}: vector.genes.{gene} must be {rule}" in err
    assert not (tmp_path / "run").exists()


def test_cotrain_hyper_vector_unknown_keys_exit_2(tmp_path, capsys):
    cfg_path = tiny_config(tmp_path)
    genes = dict(zip(GENE_NAMES, vector_values(DEFAULT_VECTOR)))
    bad = tmp_path / "vec.json"
    # one document each: the codec names the unknown keys of the first
    # object that holds any
    for doc, key in (
        ({"genes": genes, "extra": 1}, "extra"),
        ({"genes": {**genes, "lr_xgbb": 0.4}}, "genes.lr_xgbb"),
    ):
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli(["cotrain", "--config", cfg_path, "--hyper", bad]) == 2
        err = capsys.readouterr().err
        assert key in err and str(bad) in err


@pytest.mark.parametrize(
    "gene, value",
    [(g, True) for g in ("d_xgb", "rc_xgb", "c_svm", "ep_yolo", "ep_rcnn", "d_rf")]
    + [("d_xgb", 3.0), ("nt_rf", 25.0), ("ep_yolo", "20"), ("lr_yolo", None)]
    + [("bs_rcnn", 8.0)],
)
def test_cotrain_hyper_vector_wrong_type_exit_2(tmp_path, capsys, gene, value):
    """A bool is no number and an integer gene takes only a JSON integer:
    true would train depth-1 boosters, and 3.0 would pass for 3.  A menu
    gene takes only a menu entry of its type: 8.0 is no batch size."""
    cfg_path = tiny_config(tmp_path)
    genes = dict(zip(GENE_NAMES, vector_values(DEFAULT_VECTOR)))
    bad = tmp_path / "vec.json"
    bad.write_text(json.dumps({"genes": {**genes, gene: value}}), encoding="utf-8")
    assert run_cli(["cotrain", "--config", cfg_path, "--hyper", bad]) == 2
    assert f"genes.{gene} must be" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


# --------------------------------------------------------------------- tune


def test_tune_budget_one_trace(tmp_path, capsys):
    cfg_path = tiny_config(tmp_path)
    out = tmp_path / "tuned"
    code = run_cli(["tune", "--config", cfg_path, "--budget", 1, "--out", out])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_evaluations"] == 1
    rows = (out / "tune_trace.csv").read_text().splitlines()
    assert len(rows) == 2  # header + exactly one data row


def test_tune_ga_population_above_budget_writes_the_clamped_search(tmp_path):
    """A GA population above the budget is cut off by the budget inside its
    first generation; the files equal those of a population of the budget's
    size, as when the population was clamped."""
    cfg_path = tiny_config(tmp_path)
    outs = [tmp_path / "p4", tmp_path / "p2"]
    for out, population in zip(outs, (4, 2)):
        assert run_cli(["tune", "--config", cfg_path, "--budget", 2,
                        "--population", population, "--out", out]) == 0
    for name in ("tune_trace.csv", "best_vector.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_tune_vector_reloads_and_feeds_cotrain(tmp_path):
    cfg_path = tiny_config(tmp_path)
    out = tmp_path / "tuned"
    assert run_cli(["tune", "--config", cfg_path, "--budget", 2,
                    "--population", 2, "--out", out]) == 0
    v = load_vector(out / "best_vector.json")  # validates on load
    assert run_cli(
        ["cotrain", "--config", cfg_path, "--hyper", out / "best_vector.json",
         "--max-rounds", 0, "--out", tmp_path / "with-vec"]
    ) == 0


def test_tune_sa_monotone_best_so_far(tmp_path):
    cfg_path = tiny_config(tmp_path)
    out = tmp_path / "sa"
    code = run_cli(["tune", "--config", cfg_path, "--algorithm", "sa",
                    "--budget", 50, "--out", out])
    assert code == 0
    import csv as csvmod

    with open(out / "tune_trace.csv", newline="", encoding="utf-8") as fh:
        rows = list(csvmod.DictReader(fh))
    assert len(rows) == 50
    best = [float(r["best_so_far"]) for r in rows]
    assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))


def test_tune_objective_failure_exit_4_dumps_vector(tmp_path, monkeypatch):
    import densecotrain.tuner as tuner_mod

    cfg_path = tiny_config(tmp_path)

    def failing_factory(records, split, base):
        def obj(v):
            raise RuntimeError("objective blew up")
        return obj

    monkeypatch.setattr(tuner_mod, "make_supervised_objective", failing_factory)
    out = tmp_path / "fail"
    code = run_cli(["tune", "--config", cfg_path, "--budget", 2,
                    "--population", 2, "--out", out])
    assert code == 4
    assert (out / "failed_vector.json").is_file()


# ------------------------------------------------------------------- report


def test_report_renders_table_and_svg(tmp_path, capsys):
    cfg_path = tiny_config(tmp_path)
    assert run_cli(["cotrain", "--config", cfg_path]) == 0
    capsys.readouterr()
    run_dir = tmp_path / "run"
    code = run_cli(["report", "--run", run_dir])
    assert code == 0
    out = capsys.readouterr().out
    for token in ("view A", "view B", "combined", "mAP", "AP.75", "AR@300"):
        assert token in out
    svg = run_dir / "val_map.svg"
    assert svg.is_file()
    ET.parse(svg)
    assert not (run_dir / "tune_trace.svg").exists()  # no trace, plot omitted


def test_report_with_trace_plots_it(tmp_path, capsys):
    cfg_path = tiny_config(tmp_path)
    assert run_cli(["cotrain", "--config", cfg_path]) == 0
    out = tmp_path / "tuned"
    assert run_cli(["tune", "--config", cfg_path, "--budget", 2,
                    "--population", 2, "--out", out]) == 0
    run_dir = tmp_path / "run"
    (run_dir / "tune_trace.csv").write_bytes(
        (out / "tune_trace.csv").read_bytes()
    )
    capsys.readouterr()
    assert run_cli(["report", "--run", run_dir]) == 0
    trace_svg = run_dir / "tune_trace.svg"
    assert trace_svg.is_file()
    ET.parse(trace_svg)


def test_report_missing_artifacts_exit_3(tmp_path, capsys):
    code = run_cli(["report", "--run", tmp_path / "empty-dir"])
    assert code == 3
    assert "report.json" in capsys.readouterr().err


_SECTION = {"map_coco": 0.5, "ap75": 0.4, "ar300": 0.6}
_ROUND_0 = {
    "round": 0, "val_map_a": 0.5, "val_map_b": 0.4, "val_map_combined": 0.6,
    "n_accepted_for_a": 0, "n_accepted_for_b": 0,
    "pseudo_precision_a": None, "pseudo_precision_b": None,
}
_REPORT = {
    "artifact_version": 1, "mode": "cotrain", "rounds_completed": 0,
    "best_round": 0, "history": [_ROUND_0],
    "report_a": _SECTION, "report_b": _SECTION, "report_combined": _SECTION,
}


@pytest.mark.parametrize(
    "doc, named",
    [
        ([1], "a report is a JSON object"),
        ({"artifact_version": 1}, "no mode, rounds_completed, best_round, history"),
        ({"artifact_version": 1, "mode": "cotrain", "rounds_completed": 0,
          "best_round": 0, "history": [], "report_a": {}, "report_b": {}},
         "no report_combined"),
        ({**_REPORT, "report_a": 1}, "report_a must be an object"),
        ({**_REPORT, "history": [1, 2]}, "history[0] must be a JSON object"),
        ({**_REPORT, "report_b": {**_SECTION, "map_coco": "x"}},
         "report_b must be an object whose map_coco"),
        (json.dumps(_REPORT)[:40], "not JSON"),
        ({**_REPORT, "history": []}, "history is empty"),
        ('{"artifact_version": ' + "9" * 5001 + "}", "not JSON"),
    ],
    ids=["list", "version-only", "no-combined", "section-not-an-object",
         "history-entry-not-an-object", "metric-not-a-number", "truncated",
         "empty-history", "integer-beyond-digit-limit"],
)
def test_report_malformed_exit_2(tmp_path, capsys, doc, named):
    # an AttributeError, a KeyError and a TypeError once made these exit 4;
    # a string is the file's text
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    text = doc if isinstance(doc, str) else json.dumps(doc)
    (run_dir / "report.json").write_text(text, encoding="utf-8")
    assert run_cli(["report", "--run", run_dir]) == 2
    out, err = capsys.readouterr()
    assert "unreadable report" in err and named in err
    assert str(run_dir / "report.json") in err
    assert out == "" and not (run_dir / "val_map.svg").exists()


@pytest.mark.parametrize("kind", ["predictions", "annotations", "trace"])
def test_input_not_utf8_exit_2_naming_file_and_line(dataset_dir, tmp_path, capsys, kind):
    """A byte 0xff on line 2 of a predictions file, an annotations CSV or
    a tuning trace: the first two printed only the codec's message."""
    annotations = dataset_dir / "annotations.csv"
    predictions = tmp_path / "preds.jsonl"
    predictions.write_text("", encoding="utf-8")
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "report.json").write_text(json.dumps(_REPORT), encoding="utf-8")
    lines = {
        "predictions": (predictions, b'{"image_id": "synth-00000", "detections": []}'),
        "annotations": (annotations, annotations.read_bytes().splitlines()[0]),
        "trace": (run_dir / "tune_trace.csv", b"evaluation,score,best_so_far"),
    }
    path, first = lines[kind]
    path.write_bytes(first + b'\n{"image_id": "synth-\xff"}\n')
    argv = (["report", "--run", run_dir] if kind == "trace" else
            ["evaluate", "--predictions", predictions, "--annotations", annotations])
    capsys.readouterr()
    assert run_cli(argv) == 2
    assert f"{path}, line 2: not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, named",
    [
        ("evaluation,score\n0,0.5\n", "no best_so_far column"),
        ("", "no evaluation, score, best_so_far column"),
        ("evaluation,score,best_so_far\n", "no evaluations, only a header"),
        ("evaluation,score,best_so_far\n0,0.5,0.5\n1,x,0.5\n", "line 3"),
        ("evaluation,score,best_so_far\n0,0.5\n", "line 2"),
        ("evaluation,score,best_so_far\n0,nan,0.5\n", "line 2"),
        # a csv.Error once exited 4
        ("evaluation,score,best_so_far\n0,0.5,0.5\n1," + "9" * 140_000 + ",0.5\n",
         "line 3: field larger than field limit"),
    ],
    ids=["no-best-so-far", "empty", "header-only", "score-not-a-number",
         "short-row", "score-nan", "field-beyond-csv-limit"],
)
def test_report_malformed_trace_exit_2(tmp_path, capsys, text, named):
    # a KeyError once made the first exit 4, and the others exited 2
    # without naming the file, some after printing the table
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "report.json").write_text(json.dumps(_REPORT), encoding="utf-8")
    (run_dir / "tune_trace.csv").write_text(text, encoding="utf-8")
    assert run_cli(["report", "--run", run_dir]) == 2
    out, err = capsys.readouterr()
    assert "unreadable tuning trace" in err and named in err
    assert str(run_dir / "tune_trace.csv") in err
    assert out == "" and not (run_dir / "val_map.svg").exists()

