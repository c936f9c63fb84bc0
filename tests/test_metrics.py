"""Evaluation-metric unit, fixture, and property tests.

The derived fixture values here were frozen from hand enumeration of the
interpolated PR staircase before the implementation existed:

* hit(0.9), miss(0.8), hit(0.7) over two GTs:
  cum points (0.5, 1.0), (0.5, 0.5), (1.0, 2/3); envelope 1.0 then 2/3;
  AP = (51*1 + 50*(2/3)) / 101 = 253/303 = 0.83498...
* detections at uniform IoU 0.6: AP is 1 for t in {0.50, 0.55, 0.60} and
  0 above, so map_coco = 3/10 exactly (boundary convention IoU >= t).
"""

from __future__ import annotations

import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from densecotrain.data import SceneSpec, generate_synthetic_dataset
from densecotrain.detectors import (
    CONTEXTUAL,
    DEFAULT_CONTEXTUAL_PARAMS,
    FEATURE_DIM,
    Detections,
    detect,
    skill_from_params,
)
from densecotrain import geom, metrics
from densecotrain.geom import Box, GroundTruth, ScoredBox, columns, corners, iou, iou_pairs
from densecotrain.metrics import (
    COCO_THRESHOLDS,
    average_precision,
    average_recall_at,
    brute_force_ap_oracle,
    MatchResult,
    greedy_match_groups,
    match_detections,
    mean_average_precision,
)


def _sb(x1, y1, x2, y2, s, label=0):
    return ScoredBox(Box(x1, y1, x2, y2), s, label)


def _gt(x1, y1, x2, y2, label=0):
    return GroundTruth(Box(x1, y1, x2, y2), label)


def test_thresholds_are_exact_hundredths():
    assert COCO_THRESHOLDS == (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)
    assert 0.6 in COCO_THRESHOLDS


def test_match_exact_detection_is_tp():
    mr = match_detections([_sb(0, 0, 2, 2, 0.9)], [_gt(0, 0, 2, 2)], 0.5)
    assert mr.det_is_tp == (True,)
    assert mr.det_matched_gt == (0,)
    assert mr.gt_matched == (True,)
    assert mr.det_match_iou[0] == 1.0


def test_match_disjoint_detection_is_fp():
    mr = match_detections([_sb(0, 0, 2, 2, 0.9)], [_gt(5, 5, 7, 7)], 0.5)
    assert mr.det_is_tp == (False,)
    assert mr.det_matched_gt == (None,)
    assert mr.gt_matched == (False,)


def test_match_greedy_consumption():
    # both detections overlap the single GT above t; the higher score wins
    dets = [_sb(0, 0, 2, 2, 0.9), _sb(0, 0, 2, 2.5, 0.8)]
    mr = match_detections(dets, [_gt(0, 0, 2, 2)], 0.5)
    assert mr.det_is_tp == (True, False)


def test_match_label_aware():
    mr = match_detections([_sb(0, 0, 2, 2, 0.9, label=1)], [_gt(0, 0, 2, 2, label=0)], 0.5)
    assert mr.det_is_tp == (False,)


def test_match_threshold_validation():
    with pytest.raises(ValueError):
        match_detections([], [], 0.0)
    with pytest.raises(ValueError):
        match_detections([], [], 1.5)


def test_ap_perfect_detector():
    d = {"a": [_sb(0, 0, 2, 2, 0.9)]}
    g = {"a": [_gt(0, 0, 2, 2)]}
    assert average_precision(d, g, 0.5) == pytest.approx(1.0)


def test_ap_disjoint_detector():
    d = {"a": [_sb(0, 0, 2, 2, 0.9)]}
    g = {"a": [_gt(5, 5, 7, 7)]}
    assert average_precision(d, g, 0.5) == 0.0


def test_ap_three_detection_fixture():
    # two GTs; ranked dets: hit (0.9), miss (0.8), hit (0.7)
    g = {"a": [_gt(0, 0, 2, 2), _gt(10, 10, 12, 12)]}
    d = {
        "a": [
            _sb(0, 0, 2, 2, 0.9),
            _sb(50, 50, 52, 52, 0.8),
            _sb(10, 10, 12, 12, 0.7),
        ]
    }
    expect = 253.0 / 303.0
    got = average_precision(d, g, 0.5)
    assert got == pytest.approx(expect, abs=1e-12)
    assert abs(got - 0.8350) < 1e-4
    assert brute_force_ap_oracle(d, g, 0.5) == pytest.approx(expect, abs=1e-12)


def test_map_perfect():
    d = {"a": [_sb(0, 0, 2, 2, 0.9)], "b": [_sb(1, 1, 4, 5, 0.7)]}
    g = {"a": [_gt(0, 0, 2, 2)], "b": [_gt(1, 1, 4, 5)]}
    rep = mean_average_precision(d, g)
    assert rep.map_coco == pytest.approx(1.0)
    assert rep.ap75 == pytest.approx(1.0)
    assert rep.ar300 == pytest.approx(1.0)


def test_map_no_detections():
    rep = mean_average_precision({"a": []}, {"a": [_gt(0, 0, 2, 2)]})
    assert rep.map_coco == 0.0
    assert rep.ap75 == 0.0


def test_map_uniform_iou_06():
    # detection (0,0,10,6) on GT (0,0,10,10): intersection 60, union 100
    g = {"a": [_gt(0, 0, 10, 10)]}
    d = {"a": [_sb(0, 0, 10, 6, 0.9)]}
    from densecotrain.geom import iou

    assert iou(d["a"][0].box, g["a"][0].box) == 0.6
    rep = mean_average_precision(d, g)
    for t in (0.5, 0.55, 0.6):
        assert rep.ap_per_threshold[t] == pytest.approx(1.0)
    for t in (0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95):
        assert rep.ap_per_threshold[t] == 0.0
    assert rep.map_coco == pytest.approx(0.3, abs=0.0)  # exact
    assert rep.map_coco == 0.3


def test_map_is_exact_mean():
    rng = random.Random(7)
    g = {}
    d = {}
    for i in range(5):
        img = f"im{i}"
        g[img] = [_gt(0, 0, 4, 4), _gt(10, 0, 14, 4)]
        d[img] = [
            _sb(rng.uniform(0, 1), 0, rng.uniform(3, 5), 4, rng.random()),
            _sb(10, 0, rng.uniform(12, 15), 4, rng.random()),
        ]
    rep = mean_average_precision(d, g)
    mean = sum(rep.ap_per_threshold.values()) / 10
    assert abs(rep.map_coco - mean) < 1e-12


def test_ap_nonincreasing_in_threshold_report():
    rng = random.Random(3)
    g = {"a": [_gt(i * 5, 0, i * 5 + 4, 4) for i in range(6)]}
    d = {
        "a": [
            _sb(i * 5 + rng.uniform(-1, 1), rng.uniform(-1, 1), i * 5 + 4, 4, rng.random())
            for i in range(6)
        ]
    }
    rep = mean_average_precision(d, g)
    vals = [rep.ap_per_threshold[t] for t in COCO_THRESHOLDS]
    for a, b in zip(vals, vals[1:]):
        assert a >= b - 1e-12


def test_ar_truncation_drops_late_hit():
    # 301 detections; only the lowest-scored one matches the GT
    g = {"a": [_gt(0, 0, 2, 2)]}
    dets = [
        _sb(100 + i, 100, 102 + i, 102, 1.0 - i * 0.002) for i in range(300)
    ]
    dets.append(_sb(0, 0, 2, 2, 0.05))
    assert average_recall_at({"a": dets}, g, 300) == 0.0
    assert average_recall_at({"a": dets}, g, 301) == pytest.approx(1.0)


def test_ar_k1_top_hit():
    g = {"a": [_gt(0, 0, 2, 2)], "b": [_gt(5, 5, 9, 9)]}
    d = {
        "a": [_sb(0, 0, 2, 2, 0.9), _sb(40, 40, 44, 44, 0.2)],
        "b": [_sb(5, 5, 9, 9, 0.8)],
    }
    assert average_recall_at(d, g, 1) == pytest.approx(1.0)


def test_ar_monotone_in_k():
    rng = random.Random(11)
    g = {"a": [_gt(i * 6, 0, i * 6 + 5, 5) for i in range(5)]}
    d = {
        "a": [
            _sb(i * 6 + rng.uniform(-2, 2), rng.uniform(-2, 2), i * 6 + 5, 5, rng.random())
            for i in range(5)
        ]
        + [_sb(100, 100, 101, 101, rng.random()) for _ in range(4)]
    }
    prev = 0.0
    for k in (1, 2, 3, 5, 9, 300):
        cur = average_recall_at(d, g, k)
        assert cur >= prev - 1e-12
        prev = cur


def test_ar_k_validation():
    with pytest.raises(ValueError):
        average_recall_at({}, {"a": [_gt(0, 0, 1, 1)]}, 0)


def test_zero_gt_with_dets_warns_and_zero():
    with pytest.warns(UserWarning):
        v = average_precision({"a": [_sb(0, 0, 2, 2, 0.9)]}, {"a": []}, 0.5)
    assert v == 0.0
    with pytest.warns(UserWarning):
        rep = mean_average_precision({"a": [_sb(0, 0, 2, 2, 0.9)]}, {"a": []})
    assert rep.map_coco == 0.0
    assert "no ground truths" in rep.notes


def test_zero_gt_zero_dets_absent():
    with pytest.warns(UserWarning):
        v = average_precision({"a": []}, {"a": []}, 0.5)
    assert v is None
    with pytest.warns(UserWarning):
        assert average_recall_at({}, {}, 300) is None


def test_oracle_rejects_large_inputs():
    dets = {"a": [_sb(i, 0, i + 1, 1, 0.5) for i in range(51)]}
    with pytest.raises(ValueError):
        brute_force_ap_oracle(dets, {"a": [_gt(0, 0, 1, 1)]}, 0.5)


def test_oracle_empty_dets():
    assert brute_force_ap_oracle({"a": []}, {"a": [_gt(0, 0, 1, 1)]}, 0.5) == 0.0


def test_oracle_order_independence():
    g = {"a": [_gt(0, 0, 4, 4), _gt(8, 0, 12, 4)]}
    dets = [
        _sb(0, 0, 4, 4, 0.9),
        _sb(8, 0, 12, 4, 0.4),
        _sb(20, 20, 22, 22, 0.6),
    ]
    a = brute_force_ap_oracle({"a": dets}, g, 0.5)
    b = brute_force_ap_oracle({"a": list(reversed(dets))}, g, 0.5)
    assert a == b


def _random_instance(rng: random.Random, max_boxes: int = 20):
    n_img = rng.randint(1, 3)
    gts = {}
    dets = {}
    budget = rng.randint(0, max_boxes)
    for i in range(n_img):
        img = f"im{i}"
        gts[img] = [
            _gt(x := rng.uniform(0, 40), y := rng.uniform(0, 40),
                x + rng.uniform(1, 10), y + rng.uniform(1, 10))
            for _ in range(rng.randint(0, 4))
        ]
        n_d = min(budget, rng.randint(0, 7))
        budget -= n_d
        dets[img] = []
        for _ in range(n_d):
            if gts[img] and rng.random() < 0.7:
                src = rng.choice(gts[img]).box
                x1 = src.x1 + rng.uniform(-2, 2)
                y1 = src.y1 + rng.uniform(-2, 2)
                x2 = max(x1 + 0.5, src.x2 + rng.uniform(-2, 2))
                y2 = max(y1 + 0.5, src.y2 + rng.uniform(-2, 2))
            else:
                x1, y1 = rng.uniform(0, 40), rng.uniform(0, 40)
                x2, y2 = x1 + rng.uniform(1, 8), y1 + rng.uniform(1, 8)
            dets[img].append(_sb(x1, y1, x2, y2, rng.random()))
    if sum(len(v) for v in gts.values()) == 0:
        gts["im0"] = [_gt(0, 0, 1, 1)]
    return dets, gts


def test_ap_matches_oracle_on_random_instances():
    rng = random.Random(20260817)
    for _ in range(120):
        dets, gts = _random_instance(rng)
        t = rng.choice(COCO_THRESHOLDS)
        fast = average_precision(dets, gts, t)
        slow = brute_force_ap_oracle(dets, gts, t)
        assert fast == pytest.approx(slow, abs=1e-9)


def test_ap_monotone_in_threshold_random():
    rng = random.Random(99)
    for _ in range(60):
        dets, gts = _random_instance(rng)
        vals = [average_precision(dets, gts, t) for t in COCO_THRESHOLDS]
        for a, b in zip(vals, vals[1:]):
            assert a >= b - 1e-12


def test_appending_lowest_score_tp_never_decreases_ap():
    rng = random.Random(5)
    for _ in range(40):
        dets, gts = _random_instance(rng)
        base = average_precision(dets, gts, 0.5)
        # add a fresh GT plus an exact lowest-score detection for it
        min_score = min(
            (d.score for v in dets.values() for d in v), default=1.0
        )
        g2 = {k: list(v) for k, v in gts.items()}
        d2 = {k: list(v) for k, v in dets.items()}
        img = next(iter(g2))
        nb = Box(900, 900, 905, 905)
        g2[img] = g2[img] + [GroundTruth(nb)]
        base_with_gt = average_precision(d2, g2, 0.5)
        d2[img] = d2[img] + [ScoredBox(nb, max(min_score / 2, 0.0))]
        after = average_precision(d2, g2, 0.5)
        assert after >= base_with_gt - 1e-12
        del base


def test_appending_lowest_score_fp_never_increases_ap():
    rng = random.Random(6)
    for _ in range(40):
        dets, gts = _random_instance(rng)
        base = average_precision(dets, gts, 0.5)
        min_score = min(
            (d.score for v in dets.values() for d in v), default=1.0
        )
        d2 = {k: list(v) for k, v in dets.items()}
        img = next(iter(gts))
        d2[img] = d2[img] + [ScoredBox(Box(900, 900, 901, 901), max(min_score / 2, 0.0))]
        after = average_precision(d2, gts, 0.5)
        assert after <= base + 1e-12


def test_invariance_under_image_relabeling_and_gt_permutation():
    rng = random.Random(42)
    for _ in range(20):
        dets, gts = _random_instance(rng)
        rep1 = mean_average_precision(dets, gts)
        remap = {k: f"x-{k}-y" for k in set(dets) | set(gts)}
        dets2 = {remap[k]: v for k, v in dets.items()}
        gts2 = {}
        for k, v in gts.items():
            shuffled = list(v)
            rng.shuffle(shuffled)
            gts2[remap[k]] = shuffled
        rep2 = mean_average_precision(dets2, gts2)
        assert rep1.map_coco == pytest.approx(rep2.map_coco, abs=1e-12)
        assert rep1.ar300 == pytest.approx(rep2.ar300, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_ap_oracle_property(seed):
    rng = random.Random(seed)
    dets, gts = _random_instance(rng, max_boxes=12)
    t = rng.choice(COCO_THRESHOLDS)
    fast = average_precision(dets, gts, t)
    slow = brute_force_ap_oracle(dets, gts, t)
    if fast is None:
        assert slow is None
    else:
        assert fast == pytest.approx(slow, abs=1e-9)


def test_report_scalars_in_unit_interval():
    rng = random.Random(13)
    dets, gts = _random_instance(rng)
    rep = mean_average_precision(dets, gts)
    for v in (rep.map_coco, rep.ap75, rep.ar300, *rep.ap_per_threshold.values()):
        assert v is not None and 0.0 <= v <= 1.0


def test_pr_curves_one_point_per_detection_ending_at_tp_over_n_gt():
    rng = random.Random(31)
    for _ in range(40):
        dets, gts = _random_instance(rng)
        n_det = sum(len(v) for v in dets.values())
        n_gt = sum(len(v) for v in gts.values())
        rep = mean_average_precision(dets, gts)
        assert set(rep.pr_curves) == set(COCO_THRESHOLDS)
        for t, (recalls, precisions) in rep.pr_curves.items():
            assert len(recalls) == len(precisions) == n_det
            if not n_det:
                continue
            n_tp = sum(
                sum(match_detections(dets[img], gts.get(img, []), t).det_is_tp)
                for img in dets
            )
            assert recalls[-1] == n_tp / n_gt
            assert precisions[-1] == n_tp / n_det


def test_pr_curves_empty_without_ground_truth():
    with pytest.warns(UserWarning):
        rep = mean_average_precision({"a": [_sb(0, 0, 1, 1, 0.5)]}, {"a": []})
    for recalls, precisions in rep.pr_curves.values():
        assert len(recalls) == len(precisions) == 0


def test_match_result_tp_iff_match_iou_above_threshold():
    rng = random.Random(21)
    for _ in range(50):
        dets, gts = _random_instance(rng)
        for img in dets:
            t = rng.choice(COCO_THRESHOLDS)
            mr = match_detections(dets[img], gts.get(img, []), t)
            for tp, v in zip(mr.det_is_tp, mr.det_match_iou):
                assert tp == (v >= t if v > 0 else False)
            # each GT matched by at most one detection
            matched = [j for j in mr.det_matched_gt if j is not None]
            assert len(matched) == len(set(matched))


# ------------------------------------- matrix matcher vs the scalar reference


def _match_reference(dets, gts, t):
    """The scalar greedy matcher the per-image IoU matrix replaced."""
    det_is_tp = [False] * len(dets)
    det_matched = [None] * len(dets)
    det_iou = [0.0] * len(dets)
    gt_matched = [False] * len(gts)
    for i in sorted(range(len(dets)), key=lambda i: -dets[i].score):
        d = dets[i]
        best_j, best_v = -1, 0.0
        for j, g in enumerate(gts):
            if gt_matched[j] or g.label != d.label:
                continue
            v = iou(d.box, g.box)
            if v > best_v:
                best_v, best_j = v, j
        if best_j >= 0 and best_v >= t:
            det_is_tp[i] = True
            det_matched[i] = best_j
            det_iou[i] = best_v
            gt_matched[best_j] = True
    return MatchResult(
        tuple(det_is_tp), tuple(det_matched), tuple(det_iou), tuple(gt_matched)
    )


def _ar_reference(dets_by_image, gts_by_image, k):
    """Truncate each image to its top-k detections, then match."""
    n_gt = sum(len(v) for v in gts_by_image.values())
    recalls = []
    for t in COCO_THRESHOLDS:
        matched = 0
        for img, gts in gts_by_image.items():
            dets = dets_by_image.get(img, [])
            top = sorted(dets, key=lambda d: -d.score)[:k]
            matched += sum(_match_reference(top, gts, t).gt_matched)
        recalls.append(matched / n_gt)
    return sum(recalls) / len(recalls)


@st.composite
def _grid_box(draw):
    # coarse integer grid: touching, identical and contained pairs are
    # common, and (0, 0, 10, 10) against (0, 0, 6, 10) has IoU exactly 0.60
    x1, y1 = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    return Box(x1, y1, x1 + draw(st.integers(1, 10)), y1 + draw(st.integers(1, 10)))


_tied_dets = st.lists(
    st.builds(
        ScoredBox, _grid_box(),
        st.sampled_from((0.2, 0.5, 0.9)), st.integers(0, 1),
    ),
    max_size=12,
)
_two_label_gts = st.lists(
    st.builds(GroundTruth, _grid_box(), st.integers(0, 1)), max_size=10
)
_EXACT_060 = (
    [ScoredBox(Box(0, 0, 6, 10), 0.9), ScoredBox(Box(0, 0, 10, 10), 0.9),
     ScoredBox(Box(0, 0, 6, 10), 0.5, 1)],
    [GroundTruth(Box(0, 0, 10, 10)), GroundTruth(Box(0, 0, 10, 10), 1)],
)


def _same_result(fast, slow):
    # every field, with the Python types of the scalar matcher
    assert fast == slow
    for a, b in zip(fast.det_match_iou, slow.det_match_iou):
        assert type(a) is type(b) is float
    for a, b in zip(fast.det_matched_gt, slow.det_matched_gt):
        assert type(a) is type(b)


@settings(max_examples=400)
@given(
    _tied_dets, _two_label_gts,
    st.one_of(st.sampled_from(COCO_THRESHOLDS), st.floats(0.01, 1.0)),
)
@example(*_EXACT_060, 0.6)
def test_match_detections_equals_scalar_reference(dets, gts, t):
    _same_result(match_detections(dets, gts, t), _match_reference(dets, gts, t))


@settings(max_examples=150)
@given(
    st.dictionaries(st.sampled_from("abc"), _tied_dets, max_size=3),
    st.dictionaries(st.sampled_from("abcd"), _two_label_gts, min_size=1, max_size=4),
    st.integers(1, 14),
)
@example({"a": _EXACT_060[0]}, {"a": _EXACT_060[1]}, 2)
def test_average_recall_at_equals_truncate_then_match(dets, gts, k):
    # k ranges below and above the per-image detection counts (<= 12)
    assume(sum(len(v) for v in gts.values()) > 0)
    assert average_recall_at(dets, gts, k) == _ar_reference(dets, gts, k)
    assert mean_average_precision(dets, gts).ar300 == _ar_reference(dets, gts, 300)


# ------------------------------- batched kernel vs the per-image candidate walk


def _greedy_passes_reference(boxes, scores, labels, gts, thresholds):
    """One image's greedy matching at every threshold from one IoU matrix,
    walking Python lists of candidates: the per-image matcher the batched
    kernel replaced.

    Returns the detection rows in descending score order (stable on
    ties) and, per threshold, what each step of the pass in that order
    matched: ``(gt index, IoU)``, or None for a false positive.
    """
    order = np.argsort(-scores, kind="stable")
    cands = [[] for _ in order]
    if len(order) and gts:
        m = iou_pairs(boxes[order][:, None, :], corners([g.box for g in gts])[None])
        m[labels[order][:, None] != np.array([g.label for g in gts])] = 0.0
        rows, cols = np.nonzero(m >= min(thresholds))
        vals = m[rows, cols]
        by = np.lexsort((cols, -vals, rows))
        for r, v, j in zip(rows[by].tolist(), vals[by].tolist(), cols[by].tolist()):
            cands[r].append((v, j))
    passes = []
    for t in thresholds:
        taken = set()
        steps = []
        for cand in cands:
            hit = None
            for v, j in cand:
                if v < t:
                    break
                if j not in taken:
                    taken.add(j)
                    hit = (j, v)
                    break
            steps.append(hit)
        passes.append(steps)
    return order.tolist(), passes


def _gt_columns(gts):
    return corners([g.box for g in gts]), np.array([g.label for g in gts], dtype=np.int64)


_thresholds = st.one_of(
    st.lists(st.sampled_from(COCO_THRESHOLDS), min_size=1, max_size=10),
    st.lists(st.floats(0.01, 1.0), min_size=1, max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(_tied_dets, _two_label_gts), max_size=6),
    _thresholds,
    st.sampled_from((1, 6, 40, 200, geom.NMS_BLOCK)),
)
@example([(*_EXACT_060,), ([], _EXACT_060[1]), (_EXACT_060[0], [])], [0.6, 0.65], 1)
def test_greedy_match_groups_equals_per_image_reference(images, thresholds, block):
    """Every group's ranks, matches and IoUs at every threshold equal the
    per-image candidate walk; groups hold tied scores and IoUs, two
    labels, no detections or no GTs, and small block bounds force padding
    of unequal groups and blocks of one group, which stay within the bound."""
    shapes = []

    def recording(a, b):
        shapes.append(np.broadcast_shapes(a.shape, b.shape))
        return iou_pairs(a, b)

    dets = [columns(d) for d, _ in images]
    gts = [_gt_columns(gt) for _, gt in images]
    with mock.patch.object(geom, "NMS_BLOCK", block), \
            mock.patch.object(metrics, "iou_pairs", recording):
        rank, matched = greedy_match_groups(dets, gts, thresholds)
    n = sum(len(d) for d, _ in images)
    assert rank.shape == (n,) and matched.shape == (len(thresholds), n)
    base = gt_base = 0
    for (d, gt), cols in zip(images, dets):
        order, passes = _greedy_passes_reference(*cols, gt, thresholds)
        assert [rank[base + i] for i in order] == list(range(len(d)))
        for ti, steps in enumerate(passes):
            for i, hit in zip(order, steps):
                assert matched[ti, base + i] == (-1 if hit is None else gt_base + hit[0])
        base, gt_base = base + len(d), gt_base + len(gt)
    assert all(c == 1 or c * k * m <= block for c, k, m, _ in shapes)


def test_greedy_match_groups_without_groups_or_candidates():
    rank, matched = greedy_match_groups([], [], (0.5,))
    assert rank.shape == (0,) and matched.shape == (1, 0)
    box = Box(0.0, 0.0, 4.0, 4.0)
    one = columns([ScoredBox(box, 0.5, 1)])
    rank, matched = greedy_match_groups(
        [columns([]), one, one],
        [_gt_columns([GroundTruth(box, 1)]), _gt_columns([GroundTruth(box)]), _gt_columns([])],
        (0.5, 0.95),
    )
    # a label mismatch and a group without GTs leave no candidate
    assert rank.tolist() == [0, 0] and matched.tolist() == [[-1, -1]] * 2


# --------------------------------------- column batches vs their scored rows


def _as_detections(dets, img="img"):
    """Scored boxes as image ``img``'s column batch, row i being ``dets[i]``."""
    return Detections(
        np.array([d.box.as_tuple() for d in dets], dtype=float).reshape(-1, 4),
        np.array([d.score for d in dets], dtype=float),
        np.array([d.label for d in dets], dtype=np.int64),
        np.zeros((len(dets), FEATURE_DIM)),
        (img,), np.array([0, len(dets)]),
    )


def _same_report(a, b):
    # EvalReport holds arrays, so its fields are compared one by one
    assert (a.ap_per_threshold, a.map_coco, a.ap75, a.ar300, a.notes) == (
        b.ap_per_threshold, b.map_coco, b.ap75, b.ar300, b.notes
    )
    assert a.pr_curves.keys() == b.pr_curves.keys()
    for t in a.pr_curves:
        for x, y in zip(a.pr_curves[t], b.pr_curves[t]):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


@settings(max_examples=300)
@given(
    _tied_dets, _two_label_gts,
    st.one_of(st.sampled_from(COCO_THRESHOLDS), st.floats(0.01, 1.0)),
)
@example(*_EXACT_060, 0.6)
def test_match_detections_reads_columns_as_their_rows(dets, gts, t):
    _same_result(match_detections(_as_detections(dets), gts, t),
                 match_detections(dets, gts, t))


@settings(max_examples=100)
@given(
    st.dictionaries(st.sampled_from("abc"), _tied_dets, max_size=3),
    st.dictionaries(st.sampled_from("abcd"), _two_label_gts, min_size=1, max_size=4),
)
@example({"a": _EXACT_060[0]}, {"a": _EXACT_060[1]})
def test_mean_average_precision_reads_columns_as_their_rows(dets, gts):
    assume(sum(len(v) for v in gts.values()) > 0)
    columns = {img: _as_detections(d, img) for img, d in dets.items()}
    _same_report(mean_average_precision(columns, gts), mean_average_precision(dets, gts))
    assert average_recall_at(columns, gts, 2) == average_recall_at(dets, gts, 2)
    assert average_precision(columns, gts, 0.6) == average_precision(dets, gts, 0.6)


def test_detector_output_scores_as_its_rows():
    # dense synthetic scenes and a detector's own column output on them
    spec = SceneSpec(grid_rows=4, grid_cols=5, overlap_factor=0.4, seed=3)
    records = generate_synthetic_dataset(6, spec, seed=3)
    skill = skill_from_params(DEFAULT_CONTEXTUAL_PARAMS, CONTEXTUAL)
    columns = {
        r.image_id: detect(r, skill, DEFAULT_CONTEXTUAL_PARAMS, CONTEXTUAL, 5)
        for r in records
    }
    rows = {img: [d.scored for d in dets] for img, dets in columns.items()}
    gts = {r.image_id: list(r.gts) for r in records}
    assert sum(map(len, rows.values())) > 50
    _same_report(mean_average_precision(columns, gts), mean_average_precision(rows, gts))
    for r in records:
        for t in (0.5, 0.75):
            _same_result(match_detections(columns[r.image_id], gts[r.image_id], t),
                         match_detections(rows[r.image_id], gts[r.image_id], t))
