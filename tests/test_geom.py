"""Geometry unit and property tests."""

from __future__ import annotations

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from densecotrain import geom
from densecotrain.geom import (
    Box,
    ColumnBatch,
    GroundTruth,
    GroundTruths,
    ScoredBox,
    area,
    columns,
    corners,
    gt_columns,
    iou,
    iou_pairs,
    nms,
    nms_keep_groups,
)


def test_area_example():
    assert area(Box(2, 3, 5, 7)) == 12.0


def test_box_validation():
    with pytest.raises(ValueError):
        Box(0, 0, 0, 1)
    with pytest.raises(ValueError):
        Box(0, 0, 1, 0)
    with pytest.raises(ValueError):
        Box(5, 0, 1, 1)
    with pytest.raises(ValueError):
        Box(0, 0, math.nan, 1)
    with pytest.raises(ValueError):
        Box(0, 0, math.inf, 1)
    # math.isfinite raises OverflowError on an int beyond float range
    with pytest.raises(ValueError, match="box coordinate x2 is beyond float range"):
        Box(0, 0, 10**400, 1)


def test_scoredbox_validation():
    b = Box(0, 0, 1, 1)
    with pytest.raises(ValueError):
        ScoredBox(b, -0.1)
    with pytest.raises(ValueError):
        ScoredBox(b, 1.1)
    assert ScoredBox(b, 0.0).score == 0.0
    assert ScoredBox(b, 1.0).score == 1.0


def test_iou_example_value():
    # overlap 1x1, union 4 + 4 - 1 = 7
    assert iou(Box(0, 0, 2, 2), Box(1, 1, 3, 3)) == pytest.approx(1.0 / 7.0, abs=1e-12)


def test_iou_disjoint_and_touching():
    assert iou(Box(0, 0, 1, 1), Box(2, 2, 3, 3)) == 0.0
    # sharing only an edge is not overlap
    assert iou(Box(0, 0, 1, 1), Box(1, 0, 2, 1)) == 0.0


def test_iou_identity():
    b = Box(0.5, 1.5, 9.25, 4.0)
    assert iou(b, b) == 1.0


def test_iou_containment():
    outer = Box(0, 0, 4, 4)
    inner = Box(1, 1, 3, 3)
    assert iou(outer, inner) == pytest.approx(4.0 / 16.0)


_coord = st.floats(min_value=-1000, max_value=1000)
_extent = st.floats(min_value=1e-3, max_value=500)


@st.composite
def boxes(draw):
    x1 = draw(_coord)
    y1 = draw(_coord)
    w = draw(_extent)
    h = draw(_extent)
    return Box(x1, y1, x1 + w, y1 + h)


@settings(max_examples=300)
@given(boxes(), boxes())
def test_iou_symmetric_and_bounded(a, b):
    v = iou(a, b)
    assert v == iou(b, a)
    assert 0.0 <= v <= 1.0


@settings(max_examples=200)
@given(boxes())
def test_iou_self_is_one(a):
    assert iou(a, a) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=200)
@given(boxes(), boxes())
def test_intersection_not_larger_than_either(a, b):
    v = iou(a, b)
    if v > 0:
        # IoU <= min(area)/max(area) when one contains the other is not
        # generally true, but intersection <= min area always holds:
        # IoU = I/U <= I/max(area) <= min(area)/max(area) <= 1
        assert v <= min(area(a), area(b)) / max(area(a), area(b)) + 1e-9


def _mk(x1, y1, x2, y2, s, label=0):
    return ScoredBox(Box(x1, y1, x2, y2), s, label)


def test_nms_identical_boxes_keeps_highest():
    a = _mk(0, 0, 2, 2, 0.9)
    b = _mk(0, 0, 2, 2, 0.8)
    kept = nms([b, a], 0.5)
    assert kept == [a]


def test_nms_tie_keeps_input_order():
    a = _mk(0, 0, 2, 2, 0.8)
    b = _mk(0, 0, 2, 2, 0.8)
    kept = nms([a, b], 0.5)
    assert kept == [a]
    kept = nms([b, a], 0.5)
    assert kept == [b]


def test_nms_iou_equal_threshold_suppresses():
    # iou = 1/3 for side-by-side half overlap: boxes (0,0,2,1) and (1,0,3,1)
    a = _mk(0, 0, 2, 1, 0.9)
    b = _mk(1, 0, 3, 1, 0.8)
    v = iou(a.box, b.box)
    kept = nms([a, b], v)
    assert kept == [a]
    kept = nms([a, b], v + 1e-9)
    assert kept == [a, b]


def test_nms_label_partitioned():
    a = _mk(0, 0, 2, 2, 0.9, label=0)
    b = _mk(0, 0, 2, 2, 0.8, label=1)
    kept = nms([a, b], 0.5)
    assert kept == [a, b]


def test_nms_threshold_validation():
    with pytest.raises(ValueError):
        nms([], 0.0)
    with pytest.raises(ValueError):
        nms([], 1.0)


@st.composite
def scored_boxes(draw):
    b = draw(boxes())
    s = draw(st.floats(min_value=0, max_value=1))
    label = draw(st.integers(min_value=0, max_value=2))
    return ScoredBox(b, s, label)


@settings(max_examples=200)
@given(st.lists(scored_boxes(), max_size=12), st.floats(min_value=0.05, max_value=0.95))
def test_nms_properties(dets, thr):
    kept = nms(dets, thr)
    # subset of input
    for k in kept:
        assert k in dets
    # pairwise same-label IoU below threshold
    for i, a in enumerate(kept):
        for b in kept[i + 1 :]:
            if a.label == b.label:
                assert iou(a.box, b.box) < thr
    # idempotent
    assert nms(kept, thr) == kept


# ------------------------------------------------ vectorised kernel vs scalar


@st.composite
def grid_boxes(draw):
    """Boxes on a coarse integer grid, so touching, identical and contained
    pairs are common; (0, 0, 10, 10) against (0, 0, 6, 10) has IoU 0.60."""
    x1 = draw(st.integers(0, 8))
    y1 = draw(st.integers(0, 8))
    w = draw(st.integers(1, 10))
    h = draw(st.integers(1, 10))
    return Box(x1, y1, x1 + w, y1 + h)


_any_box = st.one_of(grid_boxes(), boxes())


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _iou_matrix(a, b):
    """The IoU matrix as the package builds it: ``iou_pairs`` broadcast
    over ``(n, 1, 4)`` and ``(1, m, 4)`` corner arrays."""
    return iou_pairs(corners(a)[:, None, :], corners(b)[None, :, :])


def test_iou_matrix_matches_scalar():
    rng = np.random.default_rng(4)
    boxes = []
    for _ in range(12):
        x1, y1 = rng.uniform(0, 50, 2)
        boxes.append(Box(x1, y1, x1 + rng.uniform(1, 20), y1 + rng.uniform(1, 20)))
    m = _iou_matrix(boxes, boxes)
    assert _bits(m) == _bits([[iou(a, b) for b in boxes] for a in boxes])


@settings(max_examples=300)
@given(st.lists(_any_box, max_size=8), st.lists(_any_box, max_size=8))
@example([Box(0, 0, 10, 10), Box(0, 0, 6, 10)], [Box(0, 0, 10, 10), Box(10, 0, 12, 10)])
def test_iou_matrix_matches_scalar_bitwise(a, b):
    m = _iou_matrix(a, b)
    assert m.shape == (len(a), len(b))
    assert _bits(m) == _bits([[iou(x, y) for y in b] for x in a])


def test_iou_matrix_exact_060():
    m = _iou_matrix([Box(0, 0, 10, 10)], [Box(0, 0, 6, 10)])
    assert m[0, 0] == 0.6 == iou(Box(0, 0, 10, 10), Box(0, 0, 6, 10))


def _nms_reference(dets, iou_threshold):
    """The scalar greedy loop the vectorised ``nms`` replaced."""
    order = sorted(range(len(dets)), key=lambda i: -dets[i].score)
    kept = []
    for i in order:
        d = dets[i]
        if all(
            k.label != d.label or iou(k.box, d.box) < iou_threshold for k in kept
        ):
            kept.append(d)
    return kept


@st.composite
def tied_scored_boxes(draw):
    """Grid boxes with few distinct scores (many ties) and two labels."""
    return ScoredBox(
        draw(_any_box),
        draw(st.sampled_from((0.2, 0.5, 0.9, 1.0))),
        draw(st.integers(0, 1)),
    )


@settings(max_examples=300)
@given(
    st.lists(tied_scored_boxes(), max_size=14),
    st.one_of(
        st.sampled_from((0.6, 0.5, 1 / 3, 0.25)),
        st.floats(min_value=0.01, max_value=0.99),
    ),
)
@example(
    [ScoredBox(Box(0, 0, 10, 10), 0.9), ScoredBox(Box(0, 0, 6, 10), 0.9),
     ScoredBox(Box(0, 0, 6, 10), 0.5, 1)],
    0.6,
)
def test_nms_matches_scalar_reference(dets, thr):
    kept = nms(dets, thr)
    assert [id(d) for d in kept] == [id(d) for d in _nms_reference(dets, thr)]


def _corner_array(boxes):
    return np.array([b.as_tuple() for b in boxes], dtype=float).reshape(-1, 4)


@settings(max_examples=300)
@given(st.lists(st.tuples(_any_box, _any_box), max_size=10))
@example([
    # touching along an edge, at a corner, disjoint, identical, IoU 0.60
    (Box(0, 0, 1, 1), Box(1, 0, 2, 1)), (Box(0, 0, 1, 1), Box(1, 1, 2, 2)),
    (Box(0, 0, 1, 1), Box(2, 2, 3, 3)), (Box(3, 3, 5, 5), Box(3, 3, 5, 5)),
    (Box(0, 0, 10, 10), Box(0, 0, 6, 10)),
])
def test_iou_pairs_matches_scalar_bitwise(pairs):
    a, b = [p[0] for p in pairs], [p[1] for p in pairs]
    got = iou_pairs(_corner_array(a), _corner_array(b))
    assert got.shape == (len(pairs),)
    assert _bits(got) == _bits([iou(x, y) for x, y in pairs])


@settings(max_examples=300)
@given(
    st.lists(tied_scored_boxes(), max_size=14),
    st.one_of(
        st.sampled_from((0.6, 0.5, 1 / 3, 0.25)),
        st.floats(min_value=0.01, max_value=0.99),
    ),
)
@example(
    # tied scores, IoU equal to the threshold, an edge-touching and a
    # disjoint box, another label
    [ScoredBox(Box(0, 0, 10, 10), 0.9), ScoredBox(Box(0, 0, 6, 10), 0.9),
     ScoredBox(Box(10, 0, 12, 10), 0.9), ScoredBox(Box(20, 20, 22, 22), 0.5),
     ScoredBox(Box(0, 0, 6, 10), 0.9, 1)],
    0.6,
)
def test_nms_keep_matches_nms_and_scalar_reference(dets, thr):
    keep = nms_keep_groups(
        _corner_array([d.box for d in dets]),
        np.array([d.score for d in dets], dtype=float),
        np.array([d.label for d in dets], dtype=np.int64),
        np.zeros(len(dets), np.int64),
        thr,
    )
    assert keep.dtype.kind == "i"
    kept = [dets[i] for i in keep.tolist()]
    assert [id(d) for d in kept] == [id(d) for d in nms(dets, thr)]
    assert [id(d) for d in kept] == [id(d) for d in _nms_reference(dets, thr)]


@settings(max_examples=300)
@given(
    st.lists(st.tuples(tied_scored_boxes(), st.integers(0, 4)), max_size=30),
    st.one_of(
        st.sampled_from((0.6, 0.5, 1 / 3, 0.25)),
        st.floats(min_value=0.01, max_value=0.99),
    ),
    st.sampled_from((1, 20, 100, geom.NMS_BLOCK)),
)
def test_nms_keep_groups_matches_scalar_reference_per_group(rows, thr, block):
    """Each group, wherever its rows sit, keeps what the scalar loop keeps
    on that group alone, in its order; small blocks force padding of
    groups of unequal size and one block per group."""
    dets = [d for d, _ in rows]
    groups = np.array([g for _, g in rows], dtype=np.int64)
    shapes = []
    greedy = geom._greedy_removed

    def recording(ranked, *args):
        shapes.append(ranked.shape)
        return greedy(ranked, *args)

    with mock.patch.object(geom, "NMS_BLOCK", block), \
            mock.patch.object(geom, "_greedy_removed", recording):
        keep = nms_keep_groups(*columns(dets), groups, thr)
    assert keep.dtype.kind == "i"
    want = []
    for g in sorted(set(groups.tolist())):
        members = [d for d, k in rows if k == g]
        want += [id(d) for d in _nms_reference(members, thr)]
    assert [id(dets[i]) for i in keep.tolist()] == want
    # a padded block stays within the bound unless it holds one group
    assert all(c == 1 or c * n * n <= block for c, n, _ in shapes)


def test_nms_keep_groups_pads_without_invalid_values():
    """Padding rows have area, so padded IoUs never divide 0 by 0 (the
    suite turns such a RuntimeWarning into an error)."""
    boxes = np.array([[0, 0, 4, 4], [1, 0, 5, 4], [9, 9, 12, 12],
                      [0, 0, 4, 4], [10, 10, 11, 11]], dtype=float)
    scores = np.array([0.9, 0.8, 0.7, 0.6, 0.5])
    labels = np.zeros(5, dtype=np.int64)
    groups = np.array([0, 0, 0, 1, 1])  # group 1 is padded to 3 rows
    with np.errstate(all="raise"):
        keep = nms_keep_groups(boxes, scores, labels, groups, 0.5)
    assert keep.tolist() == [0, 2, 3, 4]
    empty = np.empty((0, 4))
    assert nms_keep_groups(empty, empty[:, 0], labels[:0], groups[:0], 0.5).size == 0


def test_columns_rows_in_input_order():
    dets = [ScoredBox(Box(1, 2, 3, 4), 0.25, 2), ScoredBox(Box(0.5, 0, 8, 9.5), 1.0)]
    boxes, scores, labels = columns(dets)
    assert boxes.tolist() == [[1.0, 2.0, 3.0, 4.0], [0.5, 0.0, 8.0, 9.5]]
    assert scores.tolist() == [0.25, 1.0] and scores.dtype == float
    assert labels.tolist() == [2, 0] and labels.dtype == np.int64
    empty = columns([])
    assert [c.shape for c in empty] == [(0, 4), (0,), (0,)]
    # a column batch is read as it is
    batch = ColumnBatch(boxes, scores, labels)
    assert all(a is b for a, b in zip(columns(batch), (boxes, scores, labels)))
    assert len(batch) == 2


def test_column_batch_compares_by_value():
    boxes, scores, labels = columns([ScoredBox(Box(1, 2, 3, 4), 0.25, 2)])
    batch = ColumnBatch(boxes, scores, labels)
    assert batch == ColumnBatch(boxes.copy(), scores.copy(), labels.copy())
    assert batch != ColumnBatch(boxes, scores, labels + 1)
    assert batch != ColumnBatch(boxes + 0.5, scores, labels)


def test_ground_truths_compare_and_hash_by_value():
    objs = [GroundTruth(Box(1, 2, 3, 4), 2), GroundTruth(Box(0, 0, 5.5, 1))]
    gts = gt_columns(objs)
    assert gt_columns(gts) is gts  # a batch is read as it is
    assert gts.boxes.tolist() == [[1, 2, 3, 4], [0, 0, 5.5, 1]]
    assert gts.boxes.dtype == float and gts.labels.dtype == np.int64
    assert list(gts) == objs and len(gts) == 2
    twin = GroundTruths(gts.boxes.copy(), gts.labels.copy())
    assert twin == gts and hash(twin) == hash(gts)
    negative_zeros, zeros = (GroundTruths(s * gts.boxes, gts.labels) for s in (-0.0, 0.0))
    assert negative_zeros == zeros and hash(negative_zeros) == hash(zeros)
    assert gts != GroundTruths(gts.boxes, gts.labels + 1)
    assert gts != GroundTruths(gts.boxes + 0.5, gts.labels)
    assert gts != ColumnBatch(gts.boxes, np.ones(2), gts.labels)
    for a in (gts.boxes, gts.labels):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1
    empty = gt_columns([])
    assert empty.boxes.shape == (0, 4) and empty.labels.shape == (0,) and list(empty) == []


@pytest.mark.parametrize(
    "labels, message",
    [
        ([1.5], "GT 0 label 1.5 is not an integer"),
        ([0.0, -0.25], "GT 1 label -0.25 is not an integer"),
        ([0.0, math.nan], "GT 1 label nan is not an integer"),
        ([math.inf, 0.0], "GT 0 label inf is not an integer"),
        (["1", "0"], "GT 0 label '1' is not an integer"),
        ([None, 1], "GT 0 label None is not an integer"),
        ([0, 1, 2**63], "GT 2 label is beyond int64"),
        ([0.0, 2.0**63], "GT 1 label is beyond int64"),
        (np.array([0, 2**63], dtype=np.uint64), "GT 1 label is beyond int64"),
    ],
    ids=["fraction", "second-negative-fraction", "nan", "inf", "strings", "none",
         "int-beyond-int64", "float-beyond-int64", "uint64-beyond-int64"],
)
def test_ground_truths_refuse_a_label_the_int64_cast_would_change(labels, message):
    boxes = [[1.0, 1.0, 2.0, 2.0]] * len(labels)
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        GroundTruths(boxes, labels)


def test_ground_truths_take_integral_labels():
    boxes = [[1.0, 1.0, 2.0, 2.0]] * 3
    for labels in ([0.0, 3.0, -1.0], [True, False, True], np.array([0, 3, 7], np.uint8),
                   [0, 1, 2**63 - 1]):
        gts = GroundTruths(boxes, labels)
        assert gts.labels.dtype == np.int64
        assert gts.labels.tolist() == [int(v) for v in labels]
    labels = np.array([0, 2, 1])
    assert GroundTruths(boxes, labels).labels is labels  # int64 is held as it is


def test_nms_suppressed_box_suppresses_nothing():
    # a chain: a suppresses b, b would suppress c, a does not reach c
    a = ScoredBox(Box(0, 0, 10, 10), 0.9)
    b = ScoredBox(Box(4, 0, 14, 10), 0.8)
    c = ScoredBox(Box(8, 0, 18, 10), 0.7)
    assert iou(a.box, b.box) >= 0.4 and iou(b.box, c.box) >= 0.4 > iou(a.box, c.box)
    assert nms([c, b, a], 0.4) == [a, c]
    assert _nms_reference([c, b, a], 0.4) == [a, c]


def test_nms_keep_threshold_validation():
    empty = np.empty((0, 4))
    for thr in (0.0, 1.0):
        with pytest.raises(ValueError):
            nms_keep_groups(
                empty, empty[:, 0], empty[:, 0], np.zeros(0, np.int64), thr
            )


def test_groundtruth_defaults():
    g = GroundTruth(Box(0, 0, 1, 1))
    assert g.label == 0
