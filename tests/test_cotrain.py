"""Co-training engine behavior: exchange rules, stopping, persistence,
and the invariants that keep the experiment honest."""

import json
import os
import re
import shutil
from collections import Counter
from dataclasses import FrozenInstanceError, asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densecotrain.codec import from_dict, write_json
from densecotrain.cotrain import (
    CHECKPOINT_FILENAME,
    CHECKPOINT_VERSION,
    Checkpoint,
    CoTrainConfig,
    PseudoLabel,
    RoundRecord,
    exchange_round,
    generate_pseudo_labels,
    initial_supervised_phase,
    load_checkpoint,
    merge_views,
    records_index,
    result_to_dict,
    round_zero_data,
    run_cotraining,
    save_checkpoint,
    stagnant_rounds,
    view_specs,
)
from densecotrain.data import (
    DatasetSplit,
    SceneSpec,
    generate_synthetic_dataset,
    select_and_split,
)
from densecotrain.detectors import (
    FEATURE_DIM,
    DetectorParams,
    Detections,
    RetrainCoefficients,
    derive_seed,
    detect,
    size_regime,
    skill_from_params,
)
from densecotrain.geom import Box, ScoredBox, nms, nms_keep_groups
from densecotrain.metrics import greedy_match_groups, match_detections


def build_dataset(seed, n_labeled=60, n_unlabeled=150, overlap=0.4):
    spec = SceneSpec(grid_rows=3, grid_cols=4, overlap_factor=overlap, seed=seed)
    recs = generate_synthetic_dataset(
        n_labeled + n_unlabeled, spec, seed=seed,
        row_range=(3, 4), col_range=(3, 5),
    )
    split = select_and_split(recs, n_labeled=n_labeled, n_unlabeled=n_unlabeled, seed=seed)
    return records_index(recs), split


@pytest.fixture(scope="module")
def small_data():
    return build_dataset(seed=11)


@pytest.fixture(scope="module")
def cotrain_run(small_data, tmp_path_factory):
    records, split = small_data
    cfg = CoTrainConfig(mode="cotrain", max_rounds=2, seed=11)
    run_dir = tmp_path_factory.mktemp("cotrain-run")
    result = run_cotraining(records, split, cfg, run_dir=run_dir)
    return records, split, cfg, result, run_dir


@pytest.fixture(scope="module")
def cotrain_base(cotrain_run):
    """The cotrain run's round 0, rebuilt from its config."""
    records, split, cfg, _, _ = cotrain_run
    return initial_supervised_phase(records, split, cfg)


# ------------------------------------------------- initial supervised phase


def test_initial_phase_round0_structure(small_data):
    records, split = small_data
    state = initial_supervised_phase(records, split, CoTrainConfig(seed=11))
    assert state.round == 0
    assert state.accepted_for_a == {} and state.accepted_for_b == {}
    assert len(state.history) == 1 and len(state.skills) == 1
    # a view is built once, trained, and cannot lose its ensemble
    assert state.view_a.ensemble is not None and state.view_b.ensemble is not None
    with pytest.raises(FrozenInstanceError):
        state.view_a.ensemble = None
    with pytest.raises(FrozenInstanceError):  # and a history entry is a value
        state.history[0].val_map_a = 0.0


def _round_zero_train_set_reference(name, profile, params, records_by_id, split, config):
    """Round 0's ensemble training set before the train set was detected in
    one batch: one ``detect`` per train image."""
    train_records = [records_by_id[i] for i in split.train]
    skill = skill_from_params(params, profile, size_regime(train_records))
    seed = derive_seed(config.seed, "ens-train", name)
    dets = [detect(rec, skill, params, profile, seed) for rec in train_records]
    _, (matched,) = greedy_match_groups(
        [(d.boxes, d.scores, d.labels) for d in dets],
        [(r.gts.boxes, r.gts.labels) for r in train_records],
        (0.5,),
    )
    y = (matched >= 0).astype(int)
    X = np.concatenate([d.features for d in dets])
    if len(X) > config.ensemble_train_cap:
        rng = np.random.default_rng(derive_seed(config.seed, "cap", name))
        keep = rng.choice(len(X), config.ensemble_train_cap, replace=False)
        keep.sort()
        X, y = X[keep], y[keep]
    return X, y


@pytest.mark.parametrize("cap", [2500, 40])
def test_round_zero_train_set_equals_per_image_reference(small_data, cap):
    records, split = small_data
    config = CoTrainConfig(seed=11, ensemble_train_cap=cap)
    for name, profile, params in view_specs(config):
        X, y = round_zero_data(name, profile, params, records, split, config).train_set
        ref_X, ref_y = _round_zero_train_set_reference(
            name, profile, params, records, split, config
        )
        assert (len(X) == cap) == (cap == 40)  # the subsample is taken only at 40
        for got, ref in ((X, ref_X), (y, ref_y)):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


def test_initial_phase_val_map_above_floor(small_data):
    records, split = small_data
    state = initial_supervised_phase(records, split, CoTrainConfig(seed=11))
    assert state.history[0].val_map_a > 0.1
    assert state.history[0].val_map_b > 0.1


def test_initial_phase_empty_train_errors(small_data):
    records, split = small_data
    empty = DatasetSplit((), split.val, split.test, split.unlabeled_pool)
    with pytest.raises(ValueError):
        initial_supervised_phase(records, empty, CoTrainConfig(seed=11))


def test_initial_phase_empty_val_errors(small_data):
    records, split = small_data
    empty = DatasetSplit(split.train, (), split.test, split.unlabeled_pool)
    with pytest.raises(ValueError, match="nonempty validation set"):
        initial_supervised_phase(records, empty, CoTrainConfig(seed=11))


# ------------------------------------------------- pseudo-label generation


def test_generate_tags_and_confidence_floor(small_data):
    records, split = small_data
    cfg = CoTrainConfig(seed=11)
    state = initial_supervised_phase(records, split, cfg)
    pool = [records[i] for i in split.unlabeled_pool[:40]]
    labels = generate_pseudo_labels(
        state.view_a, state.skills[-1][0], pool, 0.8, 0.5, 3, seed=99
    )
    assert labels, "expected pseudo-labels from 40 pool images"
    pool_ids = {r.image_id for r in pool}
    for p in labels:
        assert p.score >= 0.8
        assert p.source_view == "A"
        assert p.round == 3
        assert p.image_id in pool_ids


def test_pseudo_labels_hold_no_numpy_scalars(small_data):
    # labels hold plain Python numbers, so they serialize as JSON as they are
    records, split = small_data
    state = initial_supervised_phase(records, split, CoTrainConfig(seed=11))
    pool = [records[i] for i in split.unlabeled_pool[:40]]
    labels = generate_pseudo_labels(
        state.view_b, state.skills[-1][1], pool, 0.8, 0.5, 1, seed=5
    )
    assert labels
    for p in labels:
        for v in (*p.box.as_tuple(), p.label, p.score, p.round):
            assert not isinstance(v, np.generic), v
        assert type(p.label) is int and type(p.score) is float
    json.dumps([[*p.box.as_tuple(), p.label, p.score] for p in labels])


def test_generate_tau_one_yields_empty(small_data):
    records, split = small_data
    cfg = CoTrainConfig(seed=11)
    state = initial_supervised_phase(records, split, cfg)
    pool = [records[i] for i in split.unlabeled_pool[:20]]
    labels = generate_pseudo_labels(
        state.view_a, state.skills[-1][0], pool, 1.0, 0.5, 1, seed=99
    )
    assert len(labels) == 0


def test_generate_invalid_tau_errors(small_data):
    records, split = small_data
    cfg = CoTrainConfig(seed=11)
    state = initial_supervised_phase(records, split, cfg)
    pool = [records[i] for i in split.unlabeled_pool[:2]]
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            generate_pseudo_labels(
                state.view_a, state.skills[-1][0], pool, bad, 0.5, 1, seed=99
            )


def test_generate_invalid_nms_iou_errors(small_data):
    # 1.0 and 1.5 are at or above the view's own nms_iou, where generation
    # skips its NMS: they are refused all the same
    records, split = small_data
    state = initial_supervised_phase(records, split, CoTrainConfig(seed=11))
    pool = [records[i] for i in split.unlabeled_pool[:20]]
    assert state.view_a.params.nms_iou == 0.5
    for bad in (0.0, -0.1, 1.0, 1.5):
        with pytest.raises(ValueError, match="nms_iou"):
            generate_pseudo_labels(
                state.view_a, state.skills[-1][0], pool, 0.8, bad, 1, seed=99
            )


def test_generated_labels_are_columns_grouped_by_image(small_data):
    records, split = small_data
    state = initial_supervised_phase(records, split, CoTrainConfig(seed=11))
    pool = [records[i] for i in split.unlabeled_pool[:40]]
    args = (state.view_b, state.skills[-1][1], pool, 0.8, 0.5, 2, 5)
    labels = generate_pseudo_labels(*args)
    rows = list(labels)
    # len() is the label count, one iterated PseudoLabel per row
    assert len(labels) == len(rows) == labels.offsets[-1] > 0
    assert all(isinstance(p, PseudoLabel) for p in rows)
    groups = labels.by_image()
    assert list(groups) == list(labels.image_ids) == sorted(groups)
    assert all(len(g) for g in groups.values())
    # each image's group iterates to that image's labels, in the same order
    assert [p for g in groups.values() for p in g] == rows
    for img, g in groups.items():
        assert g.image_ids == (img,) and (g.source_view, g.round) == ("B", 2)
        assert {p.image_id for p in g} == {img}
    # groups compare by value: a rerun's are equal, another round's are not
    assert generate_pseudo_labels(*args).by_image() == groups
    other = generate_pseudo_labels(*args[:5], 3, 5).by_image()
    assert other.keys() == groups.keys() and other != groups
    # nor are groups that differ only in their source view or round, or a
    # plain batch of the same columns
    g = groups[labels.image_ids[0]]
    assert replace(g) == g
    assert replace(g, source_view="A") != g and replace(g, round=3) != g
    plain = Detections(*(getattr(g, f) for f in Detections.COLUMNS), g.image_ids, g.offsets)
    assert plain != g and g != plain


def test_cotraining_run_builds_no_pseudo_label_objects(small_data, monkeypatch):
    records, split = small_data
    built = []
    init = PseudoLabel.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PseudoLabel, "__init__", counting)
    cfg = CoTrainConfig(mode="cotrain", max_rounds=2, patience=9, seed=11)
    state = run_cotraining(records, split, cfg).state
    assert state.round == 2 and state.accepted_for_a and state.accepted_for_b
    assert built == []
    # iterating a group is what builds them
    group = next(iter(state.accepted_for_a.values()))
    assert len(list(group)) == len(built) == len(group)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from((0.3, 0.4, 0.5, 0.7, 0.9)),
    st.sampled_from((0.0, 0.05, 0.2, 0.4)),
)
def test_second_nms_at_or_above_detect_iou_only_sorts(seed, detect_iou, step):
    """Rows a detector's NMS kept at ``detect_iou``, any subset of them and
    any confidences: NMS at ``detect_iou`` or above removes nothing and
    keeps the stable descending-confidence order, which is what
    generation's branch uses in its place."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 30))
    xy = rng.uniform(0, 40, (n, 2))
    boxes = np.concatenate([xy, xy + rng.uniform(4, 20, (n, 2))], axis=1)
    labels = rng.integers(0, 2, n)
    kept = nms_keep_groups(
        boxes, rng.uniform(0, 1, n), labels, np.zeros(n, np.int64), detect_iou
    )
    sub = kept[rng.random(len(kept)) < 0.7]
    conf = rng.choice([0.8, 0.9, 0.95, 1.0], len(sub))  # many ties
    second = min(detect_iou + step, 0.95)
    order = nms_keep_groups(
        boxes[sub], conf, labels[sub], np.zeros(len(sub), np.int64), second
    )
    assert order.tolist() == np.argsort(-conf, kind="stable").tolist()


def _generate_reference(view, skill, records, tau_conf, nms_iou, round_no, seed):
    """Generation before the pool pass was batched: one ``detect`` per
    image in sorted id order, one ``predict`` over all their rows, then
    NMS at ``nms_iou`` on each image's accepted rows, always."""
    dets = {r.image_id: detect(r, skill, view.params, view.profile, seed) for r in records}
    ids = sorted(dets)
    X = np.concatenate([dets[i].features for i in ids])
    is_object, conf = view.ensemble.predict(X)
    out, end = [], 0
    for img in ids:
        d = dets[img]
        start, end = end, end + len(d)
        c = conf[start:end]
        cand = np.flatnonzero((is_object[start:end] == 1) & (c >= tau_conf))
        one = np.zeros(len(cand), np.int64)
        keep = cand[nms_keep_groups(d.boxes[cand], c[cand], d.labels[cand], one, nms_iou)]
        out += [
            PseudoLabel(
                Box(*box), score, label, image_id=img, source_view=view.name,
                round=round_no,
            )
            for box, score, label in zip(
                d.boxes[keep].tolist(), c[keep].tolist(), d.labels[keep].tolist()
            )
        ]
    return out


@pytest.mark.parametrize(
    "detect_iou, pseudo_iou",
    [(0.7, 0.4), (0.4, 0.7), (0.5, 0.5), (0.3, 0.9)],
    ids=["nms", "sort-only", "default", "sort-only-far"],
)
def test_generate_equals_reference_on_both_sides_of_the_nms_skip(
    small_data, cotrain_base, detect_iou, pseudo_iou
):
    records, split = small_data
    pool = [records[i] for i in split.unlabeled_pool[:80]]
    for view, skill in zip((cotrain_base.view_a, cotrain_base.view_b), cotrain_base.skills[-1]):
        view = replace(view, params=replace(view.params, nms_iou=detect_iou))
        args = (view, skill, pool, 0.6, pseudo_iou, 2, 31)
        got = generate_pseudo_labels(*args)
        assert got and list(got) == _generate_reference(*args)
        if pseudo_iou < detect_iou:  # the second NMS does remove rows here
            assert len(got) < len(generate_pseudo_labels(*args[:4], detect_iou, 2, 31))


def test_ensemble_veto_raises_precision(small_data):
    """Ensemble vetting must beat the raw detector's precision even with
    the confidence gate effectively open (tau near zero)."""
    records, split = small_data
    # no detector confidence filtering, so raw output carries its FPs
    loc = DetectorParams(
        epochs=20, confidence_threshold=0.0, nms_iou=0.5,
        batch_size=16, learning_rate=1e-3, anchor_scales="medium",
    )
    cfg = CoTrainConfig(loc_params=loc, seed=11)
    state = initial_supervised_phase(records, split, cfg)
    pool = [records[i] for i in split.unlabeled_pool[:60]]

    def precision(dets_by_image):
        tp = n = 0
        for img, dets in dets_by_image.items():
            mr = match_detections(dets, list(records[img].gts), 0.5)
            tp += sum(mr.det_is_tp)
            n += len(dets)
        return tp / n

    raw = {
        r.image_id: [
            d.scored
            for d in detect(r, state.skills[-1][0], loc, state.view_a.profile, 77)
        ]
        for r in pool
    }
    labels = generate_pseudo_labels(
        state.view_a, state.skills[-1][0], pool, 0.05, 0.5, 1, seed=77
    )
    vetted = {}
    for p in labels:
        vetted.setdefault(p.image_id, []).append(p)
    assert precision(vetted) > precision(raw)
    assert precision(vetted) >= 0.95


# ------------------------------------------------------- exchange rounds


def test_exchange_strict_cross(cotrain_run):
    _, _, _, result, _ = cotrain_run
    state = result.state
    assert state.accepted_for_a, "view A should have received labels"
    assert state.accepted_for_b, "view B should have received labels"
    for group in state.accepted_for_a.values():
        assert all(p.source_view == "B" for p in group)
    for group in state.accepted_for_b.values():
        assert all(p.source_view == "A" for p in group)


def test_exchange_pool_ids_only(cotrain_run):
    _, split, _, result, _ = cotrain_run
    pool = set(split.unlabeled_pool)
    state = result.state
    for acc in (state.accepted_for_a, state.accepted_for_b):
        assert set(acc) <= pool


def test_exchange_replace_per_image(cotrain_run):
    """Each image's accepted labels all come from one round: the latest
    round that produced labels for that image from that source."""
    _, _, _, result, _ = cotrain_run
    for acc in (result.state.accepted_for_a, result.state.accepted_for_b):
        for group in acc.values():
            assert len({p.round for p in group}) == 1


def test_exchange_zero_pass_round(small_data):
    records, split = small_data
    cfg = CoTrainConfig(mode="cotrain", tau_conf=1.0, seed=11)
    state = initial_supervised_phase(records, split, cfg)
    skills = state.skills[-1]
    state = exchange_round(state, records, split)
    assert state.round == 1
    assert len(state.history) == 2
    assert state.accepted_for_a == {} and state.accepted_for_b == {}
    assert state.skills[-1] == skills


def test_exchange_round_leaves_its_input_unchanged(cotrain_base, cotrain_run):
    records, split, _, _, _ = cotrain_run
    before = (
        cotrain_base.round, list(cotrain_base.skills), list(cotrain_base.history),
        dict(cotrain_base.accepted_for_a), dict(cotrain_base.accepted_for_b),
    )
    after = exchange_round(cotrain_base, records, split)
    assert after.round == 1 and after.accepted_for_a and after.accepted_for_b
    assert (
        cotrain_base.round, cotrain_base.skills, cotrain_base.history,
        cotrain_base.accepted_for_a, cotrain_base.accepted_for_b,
    ) == before
    # the trained views are shared, not copied
    assert after.view_a is cotrain_base.view_a and after.view_b is cotrain_base.view_b


def test_exchange_selftrain_keeps_own_labels(small_data):
    records, split = small_data
    cfg = CoTrainConfig(mode="selftrain", max_rounds=1, seed=11)
    state = initial_supervised_phase(records, split, cfg)
    state = exchange_round(state, records, split)
    assert state.accepted_for_a
    for group in state.accepted_for_a.values():
        assert all(p.source_view == "A" for p in group)
    for group in state.accepted_for_b.values():
        assert all(p.source_view == "B" for p in group)


def test_labeled_records_never_mutated(small_data):
    records, split = small_data
    before = {i: records[i] for i in split.train + split.val + split.test}
    gts_before = {i: records[i].gts for i in before}
    run_cotraining(records, split, CoTrainConfig(max_rounds=1, seed=11))
    for i, rec in before.items():
        assert records[i] is rec
        assert records[i].gts == gts_before[i]


def test_localizer_no_regression_after_round1(cotrain_run):
    _, _, _, result, _ = cotrain_run
    h = result.state.history
    assert h[1].val_map_a >= h[0].val_map_a - 0.01


def test_history_records_pseudo_precision(cotrain_run):
    _, _, _, result, _ = cotrain_run
    for rec in result.state.history[1:]:
        assert rec.pseudo_precision_a is None or 0.0 <= rec.pseudo_precision_a <= 1.0
        assert rec.pseudo_precision_b is None or 0.0 <= rec.pseudo_precision_b <= 1.0
    assert result.state.history[1].pseudo_precision_a is not None


def _oracle_precision(labels, records_by_id):
    """Reference: the fraction of one round's pseudo-labels matching a
    hidden GT at IoU >= 0.5, each image's labels matched on their own."""
    if not labels:
        return None
    groups = {}
    for p in labels:
        groups.setdefault(p.image_id, []).append(p)
    correct = 0
    for img, group in groups.items():
        rec = records_by_id[img]
        mr = match_detections(group, list(rec.gts), 0.5)
        correct += sum(mr.det_is_tp)
    return correct / len(labels)


@pytest.mark.parametrize("mode", ["cotrain", "selftrain"])
def test_history_precision_matches_oracle_reference(small_data, monkeypatch, mode):
    """The precision read from the receiver's audit equals a separate
    matching of each round's produced labels, also when subsampled pools
    leave older per-image groups in the accepted sets."""
    import densecotrain.cotrain as ct

    records, split = small_data
    produced = []

    def recording(*args, **kwargs):
        out = generate_pseudo_labels(*args, **kwargs)
        produced.append(out)
        return out

    monkeypatch.setattr(ct, "generate_pseudo_labels", recording)
    cfg = CoTrainConfig(mode=mode, max_rounds=3, patience=9, seed=11,
                        unlabeled_subsample=60)
    state = run_cotraining(records, split, cfg).state
    history = state.history[1:]
    assert len(history) == 3 and len(produced) == 6
    # older rounds' groups survive on images the later pools skipped
    assert {p.round for g in state.accepted_for_a.values() for p in g} != {3}
    for k, rec in enumerate(history):
        ref_a = _oracle_precision(produced[2 * k], records)
        ref_b = _oracle_precision(produced[2 * k + 1], records)
        assert ref_a is not None and ref_b is not None
        assert rec.pseudo_precision_a == ref_a
        assert rec.pseudo_precision_b == ref_b


# ------------------------------------------------------- full runs


def test_run_history_length_and_rounds(cotrain_run):
    _, _, cfg, result, _ = cotrain_run
    assert result.state.round <= cfg.max_rounds
    assert len(result.state.history) == result.state.round + 1


def test_run_reports_present_and_combined_strong(cotrain_run):
    _, _, _, result, _ = cotrain_run
    assert result.report_a.map_coco is not None
    assert result.report_b.map_coco is not None
    comb = result.report_combined.map_coco
    assert comb is not None
    assert comb > max(result.report_a.map_coco, result.report_b.map_coco) - 0.01


def test_supervised_mode_runs_no_rounds(small_data):
    records, split = small_data
    cfg = CoTrainConfig(mode="supervised", max_rounds=5, seed=11)
    result = run_cotraining(records, split, cfg)
    assert result.state.round == 0
    assert len(result.state.history) == 1
    assert result.report_combined.map_coco is not None


def test_max_rounds_zero_matches_supervised(small_data):
    records, split = small_data
    r0 = run_cotraining(records, split, CoTrainConfig(mode="cotrain", max_rounds=0, seed=11))
    rs = run_cotraining(records, split, CoTrainConfig(mode="supervised", max_rounds=5, seed=11))
    assert r0.state.round == 0
    assert r0.report_a.map_coco == rs.report_a.map_coco
    assert r0.report_b.map_coco == rs.report_b.map_coco
    assert r0.report_combined.map_coco == rs.report_combined.map_coco


def test_supervised_run_builds_no_plain_scored_box(small_data, monkeypatch):
    # round 0 and the test pass keep each view's detections as columns from
    # detect to the metrics; a pseudo-label (a ScoredBox subclass) is not one
    built = []
    post_init = ScoredBox.__post_init__

    def counting(self):
        if type(self) is ScoredBox:
            built.append(self)
        post_init(self)

    monkeypatch.setattr(ScoredBox, "__post_init__", counting)
    records, split = small_data
    result = run_cotraining(records, split, CoTrainConfig(mode="supervised", seed=11))
    assert result.report_combined.map_coco > 0.1
    assert built == []


def test_run_determinism(small_data):
    records, split = small_data
    cfg = CoTrainConfig(mode="cotrain", max_rounds=1, seed=23)
    r1 = run_cotraining(records, split, cfg)
    r2 = run_cotraining(records, split, cfg)
    assert r1.state.history == r2.state.history
    assert r1.report_combined.map_coco == r2.report_combined.map_coco
    assert r1.report_combined.ap_per_threshold == r2.report_combined.ap_per_threshold


def test_test_set_read_exactly_once(small_data):
    records, split = small_data

    class CountingRecords(dict):
        def __init__(self, base):
            super().__init__(base)
            self.reads = Counter()

        def __getitem__(self, key):
            self.reads[key] += 1
            return super().__getitem__(key)

    counting = CountingRecords(records)
    run_cotraining(counting, split, CoTrainConfig(mode="cotrain", max_rounds=1, seed=11))
    for i in split.test:
        assert counting.reads[i] == 1, f"test image {i} read {counting.reads[i]} times"
    assert all(counting.reads[i] >= 1 for i in split.train)


def _history(*val_maps):
    """Round records whose views score the given (A, B) validation mAPs."""
    return [RoundRecord(r, a, b, max(a, b)) for r, (a, b) in enumerate(val_maps)]


def test_patience_trace_example():
    """Validation mAPs 0.40, 0.41, 0.412, 0.413 with epsilon 0.005 and
    patience 2 stop the run right after the 0.413 round."""
    maps = [(m, m) for m in (0.40, 0.41, 0.412, 0.413)]
    counts = [stagnant_rounds(_history(*maps[:n]), 0.005) for n in range(1, 5)]
    # a run stops once the count reaches patience 2: only after 0.413
    assert counts == [0, 0, 1, 2]


def test_patience_counter_resets_on_improvement():
    maps = [(0.40, 0.40), (0.401, 0.401)]
    assert stagnant_rounds(_history(*maps), 0.005) == 1
    assert stagnant_rounds(_history(*maps, (0.45, 0.40)), 0.005) == 0


def test_patience_stops_loop(small_data):
    """tau 1.0 gives identical rounds, so the patience rule must stop the
    run before max_rounds."""
    records, split = small_data
    cfg = CoTrainConfig(mode="cotrain", tau_conf=1.0, max_rounds=6, seed=11)
    result = run_cotraining(records, split, cfg)
    assert result.state.round == cfg.patience


def test_unlabeled_subsample_limits_label_sources(small_data):
    records, split = small_data
    cfg = CoTrainConfig(mode="cotrain", max_rounds=1, seed=11, unlabeled_subsample=10)
    result = run_cotraining(records, split, cfg)
    sources = set(result.state.accepted_for_a) | set(result.state.accepted_for_b)
    assert len(sources) <= 10


# --------------------------------------------------- checkpoints and resume


def test_checkpoints_written_per_round(cotrain_run, monkeypatch, tmp_path):
    records, split, cfg, result, run_dir = cotrain_run
    # one file, replaced after each round, and nothing else in the run dir
    assert sorted(p.name for p in run_dir.iterdir()) == [CHECKPOINT_FILENAME]
    doc = _checkpoint(run_dir)
    # only what the rounds change and cannot rebuild: round 0 and the
    # accepted sets are rebuilt, never stored, and the round is the history's
    assert set(doc) == {"checkpoint_version", "config_sha256", "skills", "history"}
    assert len(doc["skills"]) == len(doc["history"]) == result.state.round + 1
    # each round's write holds that round's state and goes to the one file
    import densecotrain.cotrain as ct

    written = []
    save = ct.save_checkpoint
    monkeypatch.setattr(
        ct, "save_checkpoint",
        lambda state, path: written.append((path, state.round)) or save(state, path),
    )
    run_cotraining(records, split, cfg, run_dir=tmp_path)
    ck = tmp_path / CHECKPOINT_FILENAME
    assert written == [(ck, r) for r in range(result.state.round + 1)]
    assert ck.read_bytes() == (run_dir / CHECKPOINT_FILENAME).read_bytes()


def _load(path, cotrain_run):
    records, split, cfg, _, _ = cotrain_run
    return load_checkpoint(path, records, split, cfg)


def _checkpoint(run_dir, round_no=None):
    """The run dir's checkpoint document, cut to rounds 0 to ``round_no``
    when given: a valid checkpoint of that round."""
    doc = json.loads((run_dir / CHECKPOINT_FILENAME).read_text("utf-8"))
    if round_no is None:
        return doc
    cut = slice(round_no + 1)
    return {**doc, "skills": doc["skills"][cut], "history": doc["history"][cut]}


def _checkpoint_bytes(run_dir):
    return {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())}


def test_checkpoint_roundtrip(cotrain_run, cotrain_base):
    _, _, _, result, run_dir = cotrain_run
    state = _load(run_dir / CHECKPOINT_FILENAME, cotrain_run)
    assert state.round == result.state.round
    assert state.skills == result.state.skills
    assert state.history == result.state.history
    assert state.accepted_for_a == result.state.accepted_for_a
    assert state.accepted_for_b == result.state.accepted_for_b
    assert state.config == cotrain_base.config
    # round 0 is rebuilt as the supervised phase builds it
    X = np.random.default_rng(0).random((64, FEATURE_DIM))
    for view, base in (
        (state.view_a, cotrain_base.view_a), (state.view_b, cotrain_base.view_b)
    ):
        assert (view.name, view.profile, view.params) == (
            base.name, base.profile, base.params
        )
        assert np.array_equal(
            view.ensemble.positive_probability(X),
            base.ensemble.positive_probability(X),
        )
    assert state.n_base_annotations == cotrain_base.n_base_annotations
    assert state.n_base_occluded == cotrain_base.n_base_occluded
    assert state.skills[0] == cotrain_base.skills[0]
    assert state.history[0] == cotrain_base.history[0]


def test_checkpoint_rejects_unknown_version(cotrain_run, tmp_path):
    # version 1 stored round 0's views and ensembles, version 2 one dict per
    # label, version 3 one row per label, version 4 the round; any version
    # but the current one is refused with a message naming the file and
    # the version
    _, _, _, _, run_dir = cotrain_run
    doc = _checkpoint(run_dir)
    path = tmp_path / CHECKPOINT_FILENAME
    for version in (1, 2, 3, 4, 999):
        path.write_text(
            json.dumps({**doc, "checkpoint_version": version}), encoding="utf-8"
        )
        with pytest.raises(
            ValueError,
            match=rf"{re.escape(str(path))}.*checkpoint_version {version}\b",
        ):
            _load(path, cotrain_run)


def test_checkpoint_write_cut_short_keeps_previous_latest(
    cotrain_run, tmp_path, monkeypatch
):
    _, _, _, result, run_dir = cotrain_run
    path = tmp_path / CHECKPOINT_FILENAME
    write_json(path, _checkpoint(run_dir, 1))  # as save_checkpoint writes it
    round_1 = path.read_bytes()
    state = _load(path, cotrain_run)
    save_checkpoint(state, path)
    assert path.read_bytes() == round_1

    def cut_short(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", cut_short)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(result.state, path)
    monkeypatch.undo()
    assert path.read_bytes() == round_1
    assert (tmp_path / f"{CHECKPOINT_FILENAME}.tmp").is_file()
    assert _load(path, cotrain_run).round == 1


@pytest.mark.parametrize("mode", ["cotrain", "selftrain"])
def test_resume_matches_uninterrupted_run(small_data, tmp_path, mode):
    records, split = small_data

    def config(max_rounds):
        return CoTrainConfig(
            mode=mode, max_rounds=max_rounds, patience=9, seed=31,
            unlabeled_subsample=60,
        )

    full_dir, cut_dir = tmp_path / "full", tmp_path / "resumable"
    full = run_cotraining(records, split, config(3), run_dir=full_dir)
    run_cotraining(records, split, config(1), run_dir=cut_dir)
    resumed = run_cotraining(records, split, config(3), run_dir=cut_dir, resume=True)
    # a subsampled pool leaves older per-image groups in the accepted sets
    assert any(
        group.round < full.state.round
        for acc in (full.state.accepted_for_a, full.state.accepted_for_b)
        for group in acc.values()
    )
    assert resumed.state.round == full.state.round == 3
    assert _checkpoint_bytes(cut_dir) == _checkpoint_bytes(full_dir)
    assert list(_checkpoint_bytes(full_dir)) == [CHECKPOINT_FILENAME]
    assert len(_checkpoint(full_dir)["history"]) == 4
    assert result_to_dict(resumed) == result_to_dict(full)


def test_resume_continues_the_last_run_into_a_reused_run_dir(small_data, tmp_path):
    # a run dir reused by a second run holds the second run's checkpoint
    # alone, so a resume of the second run continues it rather than
    # reading (and refusing) a later round of the first
    records, split = small_data

    def config(max_rounds, tau_conf):
        return CoTrainConfig(
            max_rounds=max_rounds, tau_conf=tau_conf, patience=9, seed=31,
            unlabeled_subsample=60,
        )

    shared, full_dir = tmp_path / "shared", tmp_path / "full"
    run_cotraining(records, split, config(3, 0.8), run_dir=shared)
    run_cotraining(records, split, config(1, 0.9), run_dir=shared)
    resumed = run_cotraining(records, split, config(3, 0.9), run_dir=shared, resume=True)
    full = run_cotraining(records, split, config(3, 0.9), run_dir=full_dir)
    assert resumed.state.round == 3
    assert result_to_dict(resumed) == result_to_dict(full)
    assert _checkpoint_bytes(shared) == _checkpoint_bytes(full_dir)


@pytest.mark.parametrize(
    "malformed",
    [
        lambda doc: {**doc, "history": doc["history"][:-1]},
        lambda doc: {**doc, "skills": doc["skills"][:-1]},
        lambda doc: {**doc, "skills": [], "history": []},
        lambda doc: {**doc, "skills": {}},
        lambda doc: {"checkpoint_version": doc["checkpoint_version"]},
        lambda doc: [doc["checkpoint_version"]],
        # a file cut short, a skill that is no object, a round with one
        # skill and a history entry that is no object once raised errors
        # naming no file, the last three after round 0 was rebuilt
        lambda doc: json.dumps(doc)[:100],
        lambda doc: {**doc, "skills": [[1, 2], *doc["skills"][1:]]},
        lambda doc: {**doc, "skills": [doc["skills"][0][:1], *doc["skills"][1:]]},
        lambda doc: {**doc, "history": [1, *doc["history"][1:]]},
        # json refuses an integer past its digit limit with a plain ValueError
        lambda doc: '{"checkpoint_version": ' + "9" * 5001 + "}",
    ],
    ids=[
        "history", "skills", "no-round", "skills-not-a-list", "version-only", "list",
        "truncated", "skill-not-an-object", "one-skill", "history-entry-not-an-object",
        "integer-beyond-digit-limit",
    ],
)
def test_checkpoint_rejects_inconsistent_lengths(
    cotrain_run, tmp_path, monkeypatch, malformed
):
    # a checkpoint missing its last round's history entry is the shape a
    # state dumped halfway through a round had; it and other documents of
    # the wrong shape are refused before round 0 is rebuilt, with a message
    # naming the file (a string is the file's text)
    import densecotrain.cotrain as ct

    _, _, _, _, run_dir = cotrain_run
    path = tmp_path / CHECKPOINT_FILENAME
    bad = malformed(_checkpoint(run_dir))
    path.write_text(bad if isinstance(bad, str) else json.dumps(bad), "utf-8")

    def rebuilt(*args, **kwargs):
        raise AssertionError("round 0 rebuilt for a refused checkpoint")

    monkeypatch.setattr(ct, "initial_supervised_phase", rebuilt)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        _load(path, cotrain_run)


def test_checkpoint_document_round_trips(cotrain_run):
    # a checkpoint is one dataclass: written with asdict, read back whole by
    # the codec, and the run's file is that document
    _, _, _, result, run_dir = cotrain_run
    doc = _checkpoint(run_dir)
    ck = Checkpoint(
        CHECKPOINT_VERSION, doc["config_sha256"],
        tuple(result.state.skills), tuple(result.state.history),
    )
    assert from_dict(Checkpoint, json.loads(json.dumps(asdict(ck)))) == ck
    assert from_dict(Checkpoint, doc) == ck


def test_checkpoint_refuses_a_replay_of_another_size(
    cotrain_run, tmp_path, monkeypatch
):
    # a round whose replayed accepted sets differ in size from its history
    # entry was written by another run: refused after round 0 is rebuilt,
    # with a message naming the file and the round
    import densecotrain.cotrain as ct

    _, _, _, _, run_dir = cotrain_run
    doc = _checkpoint(run_dir)
    doc["history"][1]["n_accepted_for_a"] += 1
    path = tmp_path / CHECKPOINT_FILENAME
    path.write_text(json.dumps(doc), "utf-8")
    rebuilt = []
    phase = ct.initial_supervised_phase
    monkeypatch.setattr(
        ct, "initial_supervised_phase",
        lambda *args: rebuilt.append(1) or phase(*args),
    )
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: round 1\b"):
        _load(path, cotrain_run)
    assert rebuilt == [1]


def test_resume_restores_an_earlier_best_round_from_the_latest_checkpoint(
    small_data, tmp_path, monkeypatch
):
    # validation mAPs that fall each round keep round 0 the best while the
    # exchanged labels move the skills; the test pass must use round 0's
    # skills, and a resume that starts at the last round must read them
    # from the checkpoint
    import densecotrain.cotrain as ct

    evaluate = ct._evaluate

    def falling(state, skills, records, namespace):
        # an exchange round's validation pass: ``state`` is the retrained
        # state, whose history ends at the round before
        reports = evaluate(state, skills, records, namespace)
        if namespace != "val":
            return reports
        return tuple(replace(rep, map_coco=0.5 - 0.1 * state.round) for rep in reports)

    monkeypatch.setattr(ct, "_evaluate", falling)
    records, split = small_data
    cfg = CoTrainConfig(mode="cotrain", max_rounds=2, patience=9, seed=11)
    first = run_cotraining(records, split, cfg, run_dir=tmp_path)
    assert first.best_round == 0 < first.state.round
    assert first.state.skills[0] != first.state.skills[-1]
    supervised = result_to_dict(
        run_cotraining(records, split, replace(cfg, max_rounds=0))
    )
    for key in ("report_a", "report_b", "report_combined"):
        assert result_to_dict(first)[key] == supervised[key]
    assert list(_checkpoint_bytes(tmp_path)) == [CHECKPOINT_FILENAME]
    again = run_cotraining(records, split, cfg, run_dir=tmp_path, resume=True)
    assert result_to_dict(again) == result_to_dict(first)


@pytest.mark.parametrize(
    "change", [{"seed": 12}, {"mode": "selftrain"}], ids=["seed", "mode"]
)
def test_resume_refuses_another_round0(cotrain_run, tmp_path, change):
    records, split, cfg, _, run_dir = cotrain_run
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    with pytest.raises(ValueError, match=re.escape(str(copy / CHECKPOINT_FILENAME))):
        run_cotraining(
            records, split, replace(cfg, **change), run_dir=copy, resume=True
        )
    assert _checkpoint_bytes(copy) == _checkpoint_bytes(run_dir)


def test_resume_refuses_another_record_set(cotrain_run, tmp_path):
    # same config, other records: only round 0's validation record differs
    _, _, cfg, _, run_dir = cotrain_run
    records, split = build_dataset(seed=12)
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    with pytest.raises(ValueError, match=re.escape(str(copy / CHECKPOINT_FILENAME))):
        run_cotraining(records, split, cfg, run_dir=copy, resume=True)
    assert _checkpoint_bytes(copy) == _checkpoint_bytes(run_dir)


@pytest.mark.parametrize(
    "change",
    [
        {"tau_conf": 0.3},
        {"pseudo_nms_iou": 0.4},
        {"unlabeled_subsample": 60},
        {"retrain_coeff": RetrainCoefficients(recall_transfer=0.6)},
        {"epsilon": 0.01},
        {"patience": 3},
    ],
    ids=lambda change: next(iter(change)),
)
def test_resume_refuses_a_changed_later_round_key(
    cotrain_run, tmp_path, monkeypatch, change
):
    # these keys leave round 0 as it was, so only the config fingerprint
    # tells the cut run from another; a larger max_rounds is no change.
    # The fingerprint is checked before round 0 is rebuilt.
    import densecotrain.cotrain as ct

    def rebuilt(*args, **kwargs):
        raise AssertionError("round 0 rebuilt for a refused checkpoint")

    monkeypatch.setattr(ct, "initial_supervised_phase", rebuilt)
    records, split, cfg, _, run_dir = cotrain_run
    cut = tmp_path / "cut"
    cut.mkdir()
    latest = cut / CHECKPOINT_FILENAME
    latest.write_text(json.dumps(_checkpoint(run_dir, 1)), "utf-8")
    before = _checkpoint_bytes(cut)
    with pytest.raises(ValueError, match=re.escape(str(latest))):
        run_cotraining(
            records, split, replace(cfg, max_rounds=3, **change),
            run_dir=cut, resume=True,
        )
    assert _checkpoint_bytes(cut) == before


def test_crash_persists_partial_state(small_data, tmp_path, monkeypatch):
    # a failed round leaves the run dir as the last checkpoint left it
    records, split = small_data
    run_dir = tmp_path / "crash"
    cfg = CoTrainConfig(mode="cotrain", max_rounds=2, seed=11)

    import densecotrain.cotrain as ct

    def boom(*args, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(ct, "generate_pseudo_labels", boom)
    with pytest.raises(RuntimeError, match="injected failure"):
        run_cotraining(records, split, cfg, run_dir=run_dir)
    assert sorted(p.name for p in run_dir.iterdir()) == [CHECKPOINT_FILENAME]
    state = load_checkpoint(run_dir / CHECKPOINT_FILENAME, records, split, cfg)
    assert state.round == 0


def test_failed_round1_validation_keeps_round0_checkpoint(
    small_data, tmp_path, monkeypatch
):
    # round 1 fails after its labels were exchanged and its skills retrained,
    # in its validation pass; nothing of that half-done round is written
    import densecotrain.cotrain as ct

    calls = []
    evaluate = ct._evaluate

    def fail_second(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:  # round 1's; round 0 scores its own validation pass
            raise RuntimeError("injected validation failure")
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(ct, "_evaluate", fail_second)
    records, split = small_data
    cfg = CoTrainConfig(mode="cotrain", max_rounds=2, seed=11)
    with pytest.raises(RuntimeError, match="injected validation failure"):
        run_cotraining(records, split, cfg, run_dir=tmp_path)
    assert not (tmp_path / "crash_state.json").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == [CHECKPOINT_FILENAME]
    assert len(_checkpoint(tmp_path)["history"]) == 1


# --------------------------------------------------------------- merging


def _detections(rows_by_image, first_tag=0):
    """A column batch over the images of ``rows_by_image``, in its order,
    from each one's ``(x1, y1, x2, y2, score, label)`` rows; feature 0 of
    each row is a tag, ``first_tag`` plus its index in the batch."""
    rows = [r for image_rows in rows_by_image.values() for r in image_rows]
    feats = np.zeros((len(rows), FEATURE_DIM))
    feats[:, 0] = first_tag + np.arange(len(rows))
    sizes = [len(image_rows) for image_rows in rows_by_image.values()]
    return Detections(
        np.array([r[:4] for r in rows], dtype=float).reshape(-1, 4),
        np.array([r[4] for r in rows], dtype=float),
        np.array([r[5] for r in rows], dtype=np.int64),
        feats, tuple(rows_by_image), np.cumsum([0, *sizes]),
    )


def _rows(dets):
    return [(d.scored.box.as_tuple(), d.scored.score, d.scored.label) for d in dets]


def test_merge_views_dedupes():
    a_dets = _detections({"img": [(0, 0, 10, 10, 0.9, 0)]})
    b_dets = _detections({"img": [(0.5, 0, 10.5, 10, 0.8, 0), (50, 50, 60, 60, 0.7, 0)]})
    merged = merge_views(a_dets, b_dets, 0.5)
    assert merged.image_ids == ("img",) and merged.offsets.tolist() == [0, 2]
    assert set(merged.scores.tolist()) == {0.9, 0.7}


def test_merge_views_handles_missing_images():
    # "x" has no rows in view B and "y" none in view A
    a_dets = _detections({"x": [(0, 0, 1, 1, 0.5, 0)], "y": []})
    b_dets = _detections({"x": [], "y": [(0, 0, 1, 1, 0.6, 0)]})
    merged = merge_views(a_dets, b_dets, 0.5).by_image()
    assert list(merged) == ["x", "y"]
    assert _rows(merged["x"]) == _rows(a_dets.by_image()["x"])
    assert _rows(merged["y"]) == _rows(b_dets.by_image()["y"])


@pytest.mark.parametrize(
    "ids_b", [("y", "x"), ("x",), ("x", "y", "z"), ("x", "z")],
)
def test_merge_views_refuses_batches_over_other_images(ids_b):
    a_dets = _detections({"x": [(0, 0, 1, 1, 0.5, 0)], "y": []})
    b_dets = _detections({img: [(0, 0, 1, 1, 0.6, 0)] for img in ids_b})
    with pytest.raises(ValueError, match="same images"):
        merge_views(a_dets, b_dets, 0.5)


def _merge_reference(a, b, merge_nms_iou):
    """The object merge ``merge_views`` replaced: per image, NMS over view
    A's scored boxes followed by view B's."""
    return {
        img: nms(list(a.get(img, ())) + list(b.get(img, ())), merge_nms_iou)
        for img in sorted(set(a) | set(b))
    }


def _random_view(rng, images, empty, first_tag):
    # integer grid boxes with tied scores and three labels, so touching,
    # identical and IoU-0.60 pairs are common; every image's rows but those
    # of ``empty`` also hold (0, 0, 10, 10) and (0, 0, 6, 10), whose IoU is
    # exactly 0.60
    out = {}
    for img in images:
        if img in empty:
            out[img] = []
            continue
        rows = [(0, 0, 10, 10, 0.9, 1), (0, 0, 6, 10, 0.8, 1)]
        for _ in range(int(rng.integers(0, 9))):
            x1, y1 = rng.integers(0, 12, 2).tolist()
            w, h = rng.integers(1, 11, 2).tolist()
            score = float(rng.choice([0.3, 0.5, 0.9, rng.uniform()]))
            rows.append((x1, y1, x1 + w, y1 + h, score, int(rng.integers(0, 3))))
        rng.shuffle(rows)
        out[img] = rows
    return _detections(out, first_tag)


@pytest.mark.parametrize("merge_nms_iou", [0.6, 0.5, 1 / 3])
def test_merge_views_equals_object_merge(merge_nms_iou):
    for seed in range(25):
        rng = np.random.default_rng(seed)
        # "a" has rows in view A only, "b" in view B only, "c" and "d" in both
        views = (
            _random_view(rng, "abcd", "b", 0), _random_view(rng, "abcd", "a", 1000)
        )
        merged = merge_views(*views, merge_nms_iou)
        assert merged.image_ids == tuple("abcd")
        merged = merged.by_image()
        groups = [view.by_image() for view in views]
        scored = [{img: [d.scored for d in dets] for img, dets in g.items()} for g in groups]
        reference = _merge_reference(*scored, merge_nms_iou)
        assert list(merged) == list(reference) == ["a", "b", "c", "d"]
        for img, kept in reference.items():
            got = merged[img]
            assert got.boxes.tolist() == [list(d.box.as_tuple()) for d in kept]
            assert got.scores.tolist() == [d.score for d in kept]
            assert got.labels.tolist() == [d.label for d in kept]
            # each kept row brings its own features along
            objs = [sb for view in scored for sb in view[img]]
            tags = [t for g in groups for t in g[img].features[:, 0]]
            at = {id(sb): k for k, sb in enumerate(objs)}
            assert got.features[:, 0].tolist() == [tags[at[id(sb)]] for sb in kept]
