"""Run-config schema: the JSON echo rebuilds the run exactly, and bad
documents fail loudly."""

import json
import math
import re
import typing
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densecotrain.codec import read_json
from densecotrain.config import (
    ConfigError,
    DatasetConfig,
    RunConfig,
    config_from_dict,
    config_to_dict,
    default_synthetic,
    load_config,
)
from densecotrain.cotrain import MODES, CoTrainConfig
from densecotrain.data import ImageRecord, SceneSpec, select_and_split
from densecotrain.detectors import (
    ANCHOR_MENU,
    BATCH_MENU,
    DetectorParams,
    RetrainCoefficients,
    SkillModel,
)
from densecotrain.ensemble import (
    SVM_KERNELS,
    EnsembleParams,
    RfParams,
    SvmParams,
    XgbParams,
)
from densecotrain.tuner import ALGORITHMS, GeneSpec, TunerConfig

nonnegative = st.floats(min_value=0.0, allow_infinity=False)
positive = st.floats(min_value=1e-6, max_value=1e6)
unit_open = st.floats(min_value=1e-6, max_value=1 - 1e-6)
unit_closed = st.floats(min_value=0.0, max_value=1.0)
unit_half_open = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
small_int = st.integers(min_value=0, max_value=10**6)
seeds = st.integers(min_value=0, max_value=2**63 - 1)


def every_field(cls, **strategies):
    """``st.builds`` that must draw every field of ``cls``, so a field
    added later cannot slip past the round trip untested."""
    assert set(strategies) == {f.name for f in fields(cls)}, cls.__name__
    return st.builds(cls, **strategies)


detector_params = every_field(
    DetectorParams,
    epochs=st.integers(min_value=1, max_value=500),
    confidence_threshold=st.floats(min_value=0.0, max_value=0.99),
    nms_iou=unit_open,
    batch_size=st.sampled_from(BATCH_MENU),
    learning_rate=positive,
    anchor_scales=st.none() | st.sampled_from(ANCHOR_MENU),
)
ensemble_params = every_field(
    EnsembleParams,
    xgb=every_field(
        XgbParams, learning_rate=positive, max_depth=st.integers(1, 12),
        l2_reg=st.floats(min_value=0.0, max_value=1e3), n_trees=small_int,
    ),
    rf=every_field(RfParams, max_depth=small_int, n_trees=st.integers(1, 500)),
    svm=every_field(
        SvmParams, c=positive, kernel=st.sampled_from(SVM_KERNELS), gamma=positive,
    ),
)
retrain_coeff = every_field(
    RetrainCoefficients,
    recall_transfer=nonnegative,
    occlusion_transfer=unit_closed,
    precision_transfer=unit_closed,
    reinforcement=nonnegative,
    noise_recall=nonnegative,
    noise_jitter=nonnegative,
    min_jitter=nonnegative,
)
cotrain_config = every_field(
    CoTrainConfig,
    loc_params=detector_params,
    ctx_params=detector_params,
    ensemble_params=ensemble_params,
    tau_conf=st.floats(min_value=1e-6, max_value=1.0),
    max_rounds=small_int,
    epsilon=st.floats(min_value=0.0, max_value=1.0),
    patience=st.integers(min_value=1, max_value=20),
    pseudo_nms_iou=unit_open,
    merge_nms_iou=unit_open,
    mode=st.sampled_from(MODES),
    seed=seeds,
    unlabeled_subsample=st.none() | small_int,
    ensemble_train_cap=st.integers(min_value=2, max_value=10**6),
    retrain_coeff=retrain_coeff,
)
tuner_config = every_field(
    TunerConfig,
    algorithm=st.sampled_from(ALGORITHMS),
    budget=st.integers(min_value=1, max_value=1000),
    population=st.integers(min_value=1, max_value=100),
    mutation_rate=unit_closed,
    crossover_rate=unit_closed,
    initial_temperature=st.floats(min_value=0.0, max_value=10.0),
    cooling_rate=st.floats(min_value=1e-6, max_value=1.0),
    seed=seeds,
)


@st.composite
def fractions(draw):
    a = draw(st.floats(min_value=0.0, max_value=0.5))
    b = draw(st.floats(min_value=0.0, max_value=0.5))
    return (a, b, 1.0 - a - b)


# ordered pairs only: DatasetConfig refuses a reversed range
ranges = st.none() | st.tuples(st.integers(1, 9), st.integers(1, 9)).map(
    lambda pair: tuple(sorted(pair))
)
dataset_config = st.one_of(
    every_field(
        DatasetConfig,
        source=st.just("synthetic"),
        csv_path=st.none() | st.text(max_size=12),
        n_labeled=st.integers(min_value=1, max_value=10**5),
        n_unlabeled=small_int,
        fractions=fractions(),
        grid_rows=st.integers(1, 20),
        grid_cols=st.integers(1, 20),
        row_range=ranges,
        col_range=ranges,
        box_w=positive,
        box_h=positive,
        jitter=nonnegative,
        overlap_factor=unit_half_open,
    ),
    st.builds(DatasetConfig, source=st.just("csv"),
              csv_path=st.text(min_size=1, max_size=12)),
)
run_config = every_field(
    RunConfig,
    seed=seeds,
    dataset=dataset_config,
    cotrain=cotrain_config,
    tuner=tuner_config,
    output_dir=st.text(max_size=20),
)


@settings(max_examples=200, deadline=None)
@given(run_config)
def test_config_json_roundtrip_is_exact(cfg):
    doc = json.loads(json.dumps(config_to_dict(cfg)))
    assert config_from_dict(doc) == cfg


@settings(max_examples=50, deadline=None)
@given(seeds)
def test_seed_only_config_is_the_stock_experiment(seed):
    cfg = config_from_dict({"seed": seed})
    assert cfg == default_synthetic(seed)
    assert cfg.cotrain.max_rounds == 2 and cfg.cotrain.tau_conf == 0.8
    assert cfg.cotrain.seed == cfg.tuner.seed == seed


def test_partial_section_keeps_stock_values():
    cfg = config_from_dict({"seed": 3, "cotrain": {"tau_conf": 0.7}})
    assert cfg == RunConfig(
        seed=3, cotrain=CoTrainConfig(tau_conf=0.7, max_rounds=2)
    )


def test_retrain_coeff_section_builds_the_dataclass():
    cfg = config_from_dict(
        {"seed": 1, "cotrain": {"retrain_coeff": {"recall_transfer": 0.3}}}
    )
    assert cfg.cotrain.retrain_coeff == RetrainCoefficients(recall_transfer=0.3)


def test_nested_params_merge_into_stock_values():
    cfg = config_from_dict(
        {"seed": 1, "cotrain": {"loc_params": {"epochs": 7},
                                "ensemble_params": {"svm": {"kernel": "poly"}}}}
    )
    stock = default_synthetic(1).cotrain
    assert cfg.cotrain.loc_params == DetectorParams(
        **{**vars(stock.loc_params), "epochs": 7}
    )
    assert cfg.cotrain.ensemble_params.svm == SvmParams(kernel="poly")
    assert cfg.cotrain.ensemble_params.xgb == stock.ensemble_params.xgb


@pytest.mark.parametrize(
    "doc, where",
    [
        ({"seed": 1, "detectors": {"loc": {"epochs": 3}}}, "detectors"),
        ({"seed": 1, "cotrain": {"max_round": 1}}, "max_round"),
        ({"seed": 1, "cotrain": {"loc_params": {"epoch": 3}}}, "epoch"),
        ({"seed": 1, "cotrain": {"seed": 2}}, "cotrain.seed"),
        ({"seed": 1, "tuner": {"seed": 2}}, "tuner.seed"),
        ({"seed": 1, "cotrain": {"mode": "bogus"}}, "mode"),
        ({"seed": 1, "cotrain": {"retrain_coeff": 0.5}}, "retrain_coeff"),
        ({"seed": 1, "dataset": {"fractions": [0.5, 0.4, 0.2]}}, "fractions"),
        # an int key takes only a JSON integer, a float key any JSON number
        # but a bool, and a str key a string
        ({"seed": True}, "config.seed must be int"),
        ({"seed": 1.0}, "config.seed must be int"),
        ({"seed": 1, "cotrain": {"max_rounds": 2.5}}, "config.cotrain.max_rounds"),
        ({"seed": 1, "cotrain": {"max_rounds": True}}, "config.cotrain.max_rounds"),
        ({"seed": 1, "cotrain": {"unlabeled_subsample": 10.0}},
         "config.cotrain.unlabeled_subsample must be int | None"),
        ({"seed": 1, "cotrain": {"tau_conf": True}},
         "config.cotrain.tau_conf must be float"),
        ({"seed": 1, "cotrain": {"loc_params": {"epochs": 3.0}}},
         "config.cotrain.loc_params.epochs"),
        ({"seed": 1, "dataset": {"n_labeled": 40.5}}, "config.dataset.n_labeled"),
        ({"seed": 1, "dataset": {"row_range": [3, 4.5]}}, "config.dataset.row_range"),
        ({"seed": 1, "dataset": {"fractions": [0.5, 0.5, False]}},
         "config.dataset.fractions"),
        ({"seed": 1, "tuner": {"budget": 4.0}}, "config.tuner.budget"),
        ({"seed": 1, "output_dir": None}, "config.output_dir must be str"),
        ({"seed": 1, "cotrain": {"mode": 3}}, "config.cotrain.mode must be str"),
        # and a finite one: Python's json reads NaN and Infinity, and a NaN
        # epsilon left the patience rule unable to stop a run
        ({"seed": 1, "cotrain": {"epsilon": float("nan")}},
         "config.cotrain.epsilon must be float"),
        ({"seed": 1, "cotrain": {"ensemble_params": {"svm": {"c": float("nan")}}}},
         "config.cotrain.ensemble_params.svm.c must be float"),
        ({"seed": 1, "dataset": {"fractions": [0.7, 0.3, float("nan")]}},
         "config.dataset.fractions"),
        ({"seed": 1, "tuner": {"initial_temperature": float("inf")}},
         "config.tuner.initial_temperature must be float"),
        ({"seed": 1, "cotrain": {"tau_conf": float("-inf")}},
         "config.cotrain.tau_conf must be float"),
        # a tuple key takes a list of exactly its length: a string, an object
        # or a short list once failed mid-run, and a third entry was ignored
        ({"seed": 1, "dataset": {"row_range": "35"}}, "config.dataset.row_range"),
        ({"seed": 1, "dataset": {"row_range": {"a": 1}}}, "config.dataset.row_range"),
        ({"seed": 1, "dataset": {"row_range": [3]}}, "config.dataset.row_range"),
        ({"seed": 1, "dataset": {"row_range": [3, 4, 5]}}, "config.dataset.row_range"),
        # numpy's generators refuse a negative seed without naming it
        ({"seed": -1}, "seed must be >= 0, got -1"),
        # a scene draws its grid dims from [lo, hi]: a reversed range failed
        # with numpy's "low >= high", and a 0 only when a scene drew it
        ({"seed": 1, "dataset": {"row_range": [5, 3]}},
         "dataset.row_range must be [lo, hi] with 1 <= lo <= hi, both integers, got (5, 3)"),
        ({"seed": 1, "dataset": {"row_range": [0, 2]}}, "dataset.row_range"),
        ({"seed": 1, "dataset": {"col_range": [2, 1]}}, "dataset.col_range"),
        ({"seed": 1, "dataset": {"col_range": [-1, 4]}}, "dataset.col_range"),
        # a float key takes no JSON integer beyond float range: box_w failed
        # in SceneSpec with OverflowError, and epsilon ran and was echoed
        ({"seed": 0, "dataset": {"box_w": 10**400}}, "config.dataset.box_w must be float"),
        ({"seed": 0, "cotrain": {"epsilon": -(10**400)}},
         "config.cotrain.epsilon must be float"),
    ],
)
def test_bad_documents_raise_config_error(doc, where):
    with pytest.raises(ConfigError, match=re.escape(where)):
        config_from_dict(doc)


def test_float_keys_take_json_integers():
    cfg = config_from_dict(
        {"seed": 1, "cotrain": {"tau_conf": 1, "epsilon": 0},
         "dataset": {"box_w": 40, "fractions": [1, 0, 0]}}
    )
    assert cfg.cotrain.tau_conf == 1.0 and cfg.cotrain.epsilon == 0.0
    assert cfg.dataset.box_w == 40.0 and cfg.dataset.fractions == (1, 0, 0)


def test_echo_has_one_seed():
    doc = config_to_dict(default_synthetic(9))
    assert doc["seed"] == 9
    assert "seed" not in doc["cotrain"] and "seed" not in doc["tuner"]


@pytest.mark.parametrize(
    "data, message",
    [
        (b'{"seed": 0, "dataset": {', ": not JSON (Expecting"),
        # read by read_text, which names the line; it once read
        # "not JSON ('utf-8' codec can't decode byte 0xff in position 19...)"
        (b'{"seed": 0,\n "x": "\xff"}', ", line 2: not UTF-8 (invalid start byte)"),
        (b'{"seed": ' + b"9" * 5001 + b"}", ": not JSON (Exceeds the limit (4300 digits)"),
        # json.loads raises RecursionError, which once exited 4
        (b'{"seed": ' + b"[" * 100_000, ": not JSON (maximum recursion depth exceeded"),
    ],
    ids=["truncated", "not-utf-8", "integer-beyond-digit-limit", "nested-beyond-recursion-limit"],
)
def test_read_json_names_the_file(tmp_path, data, message):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path) + message)}"):
        read_json(path)


def test_read_json_drops_a_byte_order_mark(tmp_path):
    # it once failed with "Unexpected UTF-8 BOM"
    path = tmp_path / "config.json"
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps({"seed": 3}).encode())
    assert read_json(path) == {"seed": 3}
    assert load_config(path).seed == 3


# each class whose scalar fields declare their rules, with the arguments it
# needs besides its defaults
RULED_CLASSES = {
    DetectorParams: {},
    SkillModel: dict(base_recall=0.5, occlusion_penalty=0.1, jitter_sigma=1.0, fp_rate=0.5),
    RetrainCoefficients: {},
    XgbParams: {},
    RfParams: {},
    SvmParams: {},
    CoTrainConfig: {},
    SceneSpec: dict(grid_rows=4, grid_cols=5),
    DatasetConfig: {},
    RunConfig: dict(seed=0),
    TunerConfig: {},
    GeneSpec: dict(name="g", kind="continuous", path="tau_conf", low=0.0, high=1.0),
}

# values once accepted, or refused by a bare TypeError or by a message that
# named no field: (class, where the class sits in a run config, field, value)
PROBED = [
    (DetectorParams, "cotrain.loc_params", "epochs", 2.5),
    (DetectorParams, "cotrain.loc_params", "epochs", True),
    (DetectorParams, "cotrain.loc_params", "confidence_threshold", "0.3"),
    (TunerConfig, "tuner", "budget", 2.5),
    (TunerConfig, "tuner", "budget", True),
    (TunerConfig, "tuner", "initial_temperature", math.inf),
    (SvmParams, "cotrain.ensemble_params.svm", "c", True),
    (CoTrainConfig, "cotrain", "max_rounds", 1.5),
    (CoTrainConfig, "cotrain", "epsilon", math.nan),
    (CoTrainConfig, "cotrain", "ensemble_train_cap", 2.5),
    (SceneSpec, "dataset", "grid_rows", 2.5),
    (DatasetConfig, "dataset", "grid_rows", 0),
    (DatasetConfig, "dataset", "box_w", -1.0),
    (DatasetConfig, "dataset", "overlap_factor", 1.5),
    (DatasetConfig, "dataset", "row_range", (1.5, 3)),
    (DatasetConfig, "dataset", "col_range", (2, True)),
    (RunConfig, "", "seed", True),
    (RetrainCoefficients, "cotrain.retrain_coeff", "occlusion_transfer", 5.0),
    (RetrainCoefficients, "cotrain.retrain_coeff", "noise_jitter", -0.5),
]


def _probe_id(case):
    cls, _, name, value = case
    return f"{cls.__name__}.{name}={value!r}"


@pytest.mark.parametrize("cls, section, name, value", PROBED, ids=map(_probe_id, PROBED))
def test_constructor_refuses_a_probed_value_naming_the_field(cls, section, name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be "):
        cls(**{**RULED_CLASSES[cls], name: value})


@pytest.mark.parametrize("cls, section, name, value", PROBED, ids=map(_probe_id, PROBED))
def test_config_document_refuses_a_probed_value_naming_the_path(cls, section, name, value):
    doc = {"seed": 0}
    inner = doc
    for key in filter(None, section.split(".")):
        inner = inner.setdefault(key, {})
    inner[name] = value
    where = ".".join(filter(None, ("config", section, name)))
    with pytest.raises(ConfigError, match=rf"^{re.escape(where)} must be "):
        config_from_dict(doc)


def _scalar_fields(cls):
    """(name, type) of each int, float and str field, ``X | None`` as X."""
    for f in fields(cls):
        tp = typing.get_type_hints(cls)[f.name]
        args = [a for a in typing.get_args(tp) or (tp,) if a is not type(None)]
        if len(args) == 1 and args[0] in (int, float, str):
            yield f.name, args[0]


@pytest.mark.parametrize("cls", RULED_CLASSES, ids=lambda c: c.__name__)
def test_every_scalar_field_refuses_a_bool_and_a_wrong_type_by_name(cls):
    wrong = {int: (2.5, "1"), float: ("1.0", 1j), str: (1, b"x")}
    cls(**RULED_CLASSES[cls])  # the base arguments are valid
    scalars = list(_scalar_fields(cls))
    assert scalars
    for name, tp in scalars:
        for value in (True, False, *wrong[tp]):
            with pytest.raises(ValueError, match=rf"^{name} must be "):
                cls(**{**RULED_CLASSES[cls], name: value})


def test_rules_accept_numpy_scalars():
    """The program passes numpy ints and floats, so an int field takes any
    integral and a float field any real, but a bool is neither."""
    assert DetectorParams(epochs=np.int64(3), learning_rate=np.float64(1e-3)).epochs == 3
    assert XgbParams(max_depth=np.int32(2), n_trees=np.uint8(5)).n_trees == 5
    assert SceneSpec(np.int64(3), 4, box_w=np.float32(10.0)).grid_rows == 3
    with pytest.raises(ValueError, match="^max_depth must be an integer, got "):
        RfParams(max_depth=np.bool_(True))


def test_dataset_config_shares_the_scene_rules():
    """``DatasetConfig``'s scene fields hold what ``RunConfig.scene_spec``
    passes to ``SceneSpec``, so each refuses what a scene would."""
    for name, value in [("grid_cols", 0), ("box_h", 0.0), ("jitter", -1.0),
                        ("overlap_factor", -0.1)]:
        with pytest.raises(ValueError) as scene:
            SceneSpec(**{"grid_rows": 4, "grid_cols": 5, name: value})
        with pytest.raises(ValueError) as dataset:
            DatasetConfig(**{name: value})
        assert str(dataset.value) == str(scene.value)


# ten records serve every split the counts below ask for
SPLIT_RECORDS = [ImageRecord(f"im{i}", 10, 10, ()) for i in range(10)]
odd_share = st.sampled_from([-0.5, -1e-12, math.nan, math.inf, -math.inf])
split_fractions = st.one_of(
    fractions(),
    # a sum off by 2e-9, and a share below 0 in a sum of 1
    st.tuples(fractions(), st.sampled_from([2e-9, -2e-9])).map(
        lambda p: (p[0][0] + p[1], *p[0][1:])
    ),
    fractions().map(lambda f: (f[0] + 0.5, f[1], f[2] - 0.5)),
    st.tuples(odd_share, unit_closed, unit_closed),
    st.lists(unit_closed | odd_share, min_size=2, max_size=4).map(tuple),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(-2, 6), st.integers(-2, 4), split_fractions)
def test_dataset_config_and_select_and_split_refuse_the_same_splits(
    n_labeled, n_unlabeled, fractions
):
    """A config once took NaN and negative shares that ``select_and_split``
    refused after every scene was built, and each side worded its own
    refusals: now both refuse the same splits with the same message."""

    def refusal(make):
        try:
            make()
        except ValueError as exc:
            return str(exc)
        return None

    by_config = refusal(lambda: DatasetConfig(
        n_labeled=n_labeled, n_unlabeled=n_unlabeled, fractions=fractions
    ))
    by_split = refusal(lambda: select_and_split(
        SPLIT_RECORDS, n_labeled, n_unlabeled, fractions
    ))
    assert by_config == by_split
