"""CLI behavior: exit-code contract, file artifacts, determinism."""

import json
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from densecotrain.cli import load_predictions, load_vector, main, save_predictions
from densecotrain.cotrain import CHECKPOINT_FILENAME
from densecotrain.data import ImageRecord, load_annotations
from densecotrain.geom import Box, GroundTruth, ScoredBox
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
    base = ["synth-gen", "--seed", 1, "--out", tmp_path / "x"]
    assert run_cli(base + ["--images", 0, "--rows", 2, "--cols", 2]) == 2
    assert run_cli(base + ["--images", 2, "--rows", 2, "--cols", 2,
                           "--overlap", 1.5]) == 2
    # a non-finite size once exited 4 (inf: OverflowError) or failed on an
    # int cast (nan); it is refused by name before the output dir is made
    for flag, value in (("--jitter", "inf"), ("--box-h", "inf"),
                        ("--box-w", "nan"), ("--jitter", "nan")):
        capsys.readouterr()
        assert run_cli(base + ["--images", 2, "--rows", 2, "--cols", 2,
                               flag, value]) == 2
        assert f"{flag[2:].replace('-', '_')} must be finite" in capsys.readouterr().err
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
    assert "finite nonnegative fractions" in capsys.readouterr().err
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


@pytest.mark.parametrize("label", ["1.7", "1.0", "true", '"0"', "null", "[0]"])
def test_evaluate_non_integer_label_exit_2(dataset_dir, tmp_path, capsys, label):
    """A label must be a JSON integer: int() would read 1.7 as 1 and true
    as 1."""
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


def test_load_predictions_keeps_integer_labels(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_text(
        '{"image_id": "a", "detections": ['
        '{"x1": 1, "y1": 1, "x2": 5, "y2": 5, "score": 0.5, "label": 2}, '
        '{"x1": 1, "y1": 1, "x2": 5, "y2": 5, "score": 0.5}]}\n',
        encoding="utf-8",
    )
    labels = [d.label for d in load_predictions(path)["a"]]
    assert labels == [2, 0]
    assert all(type(v) is int for v in labels)


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
    assert loaded == {"a": [], "b": preds["b"]}


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


def test_cotrain_config_bad_fractions_exit_2(tmp_path):
    path = tmp_path / "badfrac.json"
    path.write_text(
        json.dumps({"seed": 1, "dataset": {"fractions": [0.5, 0.4, 0.2]}}),
        encoding="utf-8",
    )
    assert run_cli(["cotrain", "--config", path]) == 2


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
    ],
    ids=["list", "version-only", "no-combined", "section-not-an-object",
         "history-entry-not-an-object", "metric-not-a-number", "truncated",
         "empty-history"],
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


@pytest.mark.parametrize(
    "text, named",
    [
        ("evaluation,score\n0,0.5\n", "no best_so_far column"),
        ("", "no evaluation, score, best_so_far column"),
        ("evaluation,score,best_so_far\n", "no evaluations, only a header"),
        ("evaluation,score,best_so_far\n0,0.5,0.5\n1,x,0.5\n", "line 3"),
        ("evaluation,score,best_so_far\n0,0.5\n", "line 2"),
        ("evaluation,score,best_so_far\n0,nan,0.5\n", "line 2"),
    ],
    ids=["no-best-so-far", "empty", "header-only", "score-not-a-number",
         "short-row", "score-nan"],
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

