"""Detection evaluation: greedy matching, AP/mAP, AR@k, and a test oracle.

Conventions:

* COCO-style 101-point interpolated AP at IoU thresholds 0.50:0.05:0.95.
  Thresholds are built as exact hundredths (``i/100``) so a detection
  whose IoU is exactly 0.60 counts at the 0.60 threshold; ``np.arange``
  would produce 0.6000000000000001 and silently drop it.
* Matching is greedy in descending score order (stable on ties by input
  order): each detection takes the unmatched same-label ground truth
  with the highest IoU (the lowest index on ties) and is a true positive
  iff that IoU >= t, as in pycocotools' ``COCOeval.evaluateImg``.
* One kernel, ``greedy_match_groups``, matches many images at every
  threshold at once: each image's detection-by-GT IoUs
  (``geom.iou_pairs``) are computed once and serve every threshold, in
  padded blocks of images of at most ``geom.NMS_BLOCK`` entries (or one
  image); ``match_detections`` is its one-image call, and a dataset's
  AP, mAP and AR passes are one call.
* AR@k comes from the same greedy passes: matching is sequential in score
  order, so the matching of an image's top-k detections is exactly the
  first k steps of its full pass.  ``mean_average_precision`` takes
  AR@300 from its AP passes.
* Zero-ground-truth inputs never yield a silent 1.0: with detections
  present the metric is 0.0 plus a warning, with nothing present it is
  absent (None) plus a warning.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .codec import check
from .geom import (
    ColumnBatch, GroundTruth, GroundTruths, ScoredBox, columns, gt_columns, iou_pairs, padded,
    size_blocks,
)

COCO_THRESHOLDS: tuple[float, ...] = tuple(i / 100 for i in range(50, 100, 5))
RECALL_LEVELS: tuple[float, ...] = tuple(i / 100 for i in range(101))
_RECALL_LEVELS = np.array(RECALL_LEVELS)
AR_MAX_DETS = 300
_T_RULE = {"gt": 0, "le": 1}  # an IoU threshold: a match needs IoU >= t, so 1 is exact


@dataclass(frozen=True)
class MatchResult:
    """Outcome of matching one image's detections against its ground truths."""

    det_is_tp: tuple[bool, ...]
    det_matched_gt: tuple[int | None, ...]
    det_match_iou: tuple[float, ...]
    gt_matched: tuple[bool, ...]


@dataclass(frozen=True)
class EvalReport:
    """Scalar detection metrics plus the per-threshold PR staircases.

    ``pr_curves[t]`` is the ``(recalls, precisions)`` array pair after
    each detection in descending score order (empty without detections
    or ground truths).  Scalars are None (absent) only in the degenerate
    no-GT-no-detection case; otherwise they lie in [0, 1].
    """

    ap_per_threshold: dict[float, float | None]
    map_coco: float | None
    ap75: float | None
    ar300: float | None
    pr_curves: dict[float, tuple[np.ndarray, np.ndarray]]
    notes: tuple[str, ...] = field(default=())


def greedy_match_groups(
    dets: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
    gts: Sequence[tuple[np.ndarray, np.ndarray]],
    thresholds: Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy matching of many images (groups) at every threshold at once:
    group i's detections are ``dets[i]``'s corner, score and label columns
    and its ground truths ``gts[i]``'s corner and label columns.

    Returns, over the groups' detection rows in order (group 0's first),
    each row's rank in its group (descending score, ties in row order)
    and, as a ``(thresholds, rows)`` array, the ground truth it matched at
    each threshold: its row among the groups' ground truths in order, or
    -1 for a false positive.
    """
    n = np.array([len(d[1]) for d in dets], dtype=np.int64)
    m = np.array([len(g[1]) for g in gts], dtype=np.int64)
    starts = np.cumsum(n) - n
    group = np.repeat(np.arange(len(n)), n)
    order = np.lexsort((-np.concatenate([np.empty(0), *(d[1] for d in dets)]), group))
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order)) - np.repeat(starts, n)
    gt_labels = np.concatenate([np.empty(0, np.int64), *(g[1] for g in gts)])
    pos, gt, val = _candidates(
        (np.concatenate([np.empty((0, 4)), *(d[0] for d in dets)]),
         np.concatenate([np.empty(0, np.int64), *(d[2] for d in dets)]),
         order, starts, n),
        (np.concatenate([np.empty((0, 4)), *(g[0] for g in gts)]), gt_labels,
         np.arange(len(gt_labels)), np.cumsum(m) - m, m),
        min(thresholds),
    )
    return rank, _greedy_walk(pos, gt, val, order, group[order], len(gt_labels), thresholds)


def _candidates(
    dets: tuple[np.ndarray, ...], truths: tuple[np.ndarray, ...], t_min: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every same-label (detection, GT) pair of a group with IoU >= t_min:
    the detection's and the GT's positions in their sides' orders and the
    IoU, sorted by (detection, -IoU, GT).  ``dets`` and ``truths`` are
    each side's corners, labels, row order (rank order for detections)
    and groups' first positions in it and sizes; IoUs come from padded
    ``(groups, k, m)`` blocks of at most ``NMS_BLOCK`` entries (or one
    group) of the groups that have both."""
    boxes, labels, order, starts, n = dets
    gt_boxes, gt_labels, gt_order, gt_starts, m = truths
    pos, gt, val = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
    both = np.flatnonzero((n > 0) & (m > 0))
    for ids in size_blocks(n[both], m[both]):
        ids = both[ids]
        d, d_labels, d_valid, _ = padded(boxes, labels, order, starts[ids], n[ids])
        g, g_labels, g_valid, _ = padded(gt_boxes, gt_labels, gt_order, gt_starts[ids], m[ids])
        iou = iou_pairs(d[:, :, None, :], g[:, None, :, :])
        cand = iou >= t_min
        cand &= d_labels[:, :, None] == g_labels[:, None, :]
        cand &= d_valid[:, :, None] & g_valid[:, None, :]
        s, r, c = np.nonzero(cand)
        pos.append(starts[ids][s] + r)
        gt.append(gt_starts[ids][s] + c)
        val.append(iou[s, r, c])
    pos, gt, val = (np.concatenate(x) for x in (pos, gt, val))
    by = np.lexsort((gt, -val, pos))
    return pos[by], gt[by], val[by]


def _greedy_walk(
    pos: np.ndarray,
    gt: np.ndarray,
    val: np.ndarray,
    order: np.ndarray,
    pos_group: np.ndarray,
    n_gt: int,
    thresholds: Sequence[float],
) -> np.ndarray:
    """The greedy rule on ``_candidates``' pairs: a detection takes its
    first candidate not yet taken, and is a TP iff that IoU >= t.  Rank
    position p is detection row ``order[p]`` of group ``pos_group[p]``
    (ascending), among ``n_gt`` GTs.

    Each group's detections with candidates are walked in rank order, all
    groups and thresholds in step: step s takes each group's s-th such
    detection against a ``(thresholds, detections, candidates)`` state.
    Returns the ``(thresholds, rows)`` matched GT rows (-1 for none)."""
    rows, first, count = np.unique(pos, return_index=True, return_counts=True)
    row_group = pos_group[rows]
    step = np.arange(len(rows)) - np.searchsorted(row_group, row_group)
    # one padded candidate row per detection, in step order; the padding
    # candidate is GT row n_gt, taken from the start
    by = np.lexsort((row_group, step))
    slot = np.empty(len(rows), dtype=np.int64)
    slot[by] = np.arange(len(rows))
    at = (np.repeat(slot, count), np.arange(len(pos)) - np.repeat(first, count))
    cand_gt = np.full((len(rows), count.max(initial=0)), n_gt)
    cand_gt[at] = gt
    cand_val = np.zeros(cand_gt.shape)
    cand_val[at] = val
    det = order[rows[by]]
    thr = np.asarray(thresholds, dtype=float)[:, None]
    taken = np.zeros((len(thr), n_gt + 1), dtype=bool)
    taken[:, n_gt] = True
    matched = np.full((len(thr), len(order)), -1)
    bounds = np.concatenate([[0], np.cumsum(np.bincount(step))]).tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        free = ~taken[:, cand_gt[lo:hi]]
        pick = free.argmax(axis=2)
        within = np.arange(hi - lo)
        j = cand_gt[lo:hi][within, pick]
        tp = free.any(axis=2) & (cand_val[lo:hi][within, pick] >= thr)
        ti, di = np.nonzero(tp)
        taken[ti, j[ti, di]] = True
        matched[:, det[lo:hi]] = np.where(tp, j, -1)
    return matched


def match_detections(
    dets: ColumnBatch | Sequence[ScoredBox],
    gts: GroundTruths | Sequence[GroundTruth],
    t: float,
) -> MatchResult:
    """Greedy per-image matching at IoU threshold ``t``: one group of
    ``greedy_match_groups``.

    Detections are processed in descending score order; each takes the
    unmatched ground truth of its own label with the highest IoU, and is
    a TP iff that IoU >= t.  A ground truth is consumed by at most one
    detection.
    """
    check("t", t, float, **_T_RULE)
    cols, gts = columns(dets), gt_columns(gts)
    _, (matched,) = greedy_match_groups([cols], [(gts.boxes, gts.labels)], (t,))
    hit = matched >= 0
    ious = np.zeros(len(matched))
    ious[hit] = iou_pairs(cols[0][hit], gts.boxes[matched[hit]])
    gt_matched = np.zeros(len(gts), dtype=bool)
    gt_matched[matched[hit]] = True
    return MatchResult(
        tuple(hit.tolist()),
        tuple(j if j >= 0 else None for j in matched.tolist()),
        tuple(ious.tolist()),
        tuple(gt_matched.tolist()),
    )


def _dataset_passes(
    dets_by_image: Mapping[str, ColumnBatch | Sequence[ScoredBox]],
    gts_by_image: Mapping[str, GroundTruths | Sequence[GroundTruth]],
    thresholds: Sequence[float],
    k: int,
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Greedy passes over a dataset, all images in one
    ``greedy_match_groups`` call.

    Returns the detection scores in (image insertion, input) order, the
    TP flags per threshold in that order (a thresholds x detections
    array), and per threshold the number of GTs matched by each image's
    top-k detections.  Images without detections match nothing.
    """
    cols = [columns(d) for d in dets_by_image.values()]
    gts = [gt_columns(gts_by_image.get(img, ())) for img in dets_by_image]
    rank, matched = greedy_match_groups(cols, [(g.boxes, g.labels) for g in gts], thresholds)
    tp = matched >= 0
    scores = np.concatenate([np.empty(0), *(c[1] for c in cols)])
    return scores, tp, np.count_nonzero(tp & (rank < k), axis=1).tolist()


def _pr_curve(
    ranked_flags: np.ndarray, n_gt: int
) -> tuple[np.ndarray, np.ndarray]:
    """Recall and precision after each detection of the ranked list."""
    tp = np.cumsum(ranked_flags)
    return tp / n_gt, tp / np.arange(1, len(tp) + 1)


def _interpolated_ap(recalls: np.ndarray, precisions: np.ndarray) -> float:
    """101-point AP from the raw (recall, precision) staircase."""
    if not len(recalls):
        return 0.0
    # monotone envelope: running max of precision from the right
    envelope = np.maximum.accumulate(precisions[::-1])[::-1]
    # first staircase point reaching each recall level (recalls ascend)
    at = np.searchsorted(recalls, _RECALL_LEVELS, side="left")
    total = 0.0
    for p in envelope[at[at < len(recalls)]].tolist():
        total += p
    return total / len(RECALL_LEVELS)


def _zero_gt_outcome(dets_by_image: Mapping, what: str) -> float | None:
    """``what`` without ground truths: 0.0 with detections, else None; warns."""
    n_det = sum(len(v) for v in dets_by_image.values())
    if n_det > 0:
        warnings.warn(
            f"{what}: no ground truths but {n_det} detections; defined as 0.0",
            stacklevel=3,
        )
        return 0.0
    warnings.warn(f"{what}: no ground truths and no detections; undefined", stacklevel=3)
    return None


def _n_gt(gts_by_image: Mapping[str, GroundTruths | Sequence[GroundTruth]]) -> int:
    return sum(len(v) for v in gts_by_image.values())


def _mean_recall(matched: Sequence[int], n_gt: int) -> float:
    recalls = [m / n_gt for m in matched]
    return sum(recalls) / len(recalls)


def _ranked(scores: np.ndarray, tp: np.ndarray) -> np.ndarray:
    """TP flags in descending score order, stable on ties by image
    insertion order then detection input order."""
    return tp[:, np.argsort(-scores, kind="stable")]


def average_precision(
    dets_by_image: Mapping[str, ColumnBatch | Sequence[ScoredBox]],
    gts_by_image: Mapping[str, GroundTruths | Sequence[GroundTruth]],
    t: float,
) -> float | None:
    """101-point interpolated AP at one IoU threshold over a dataset.

    Returns None (absent) when there are neither ground truths nor
    detections; 0.0 with a warning when detections exist without any
    ground truth.
    """
    check("t", t, float, **_T_RULE)
    n_gt = _n_gt(gts_by_image)
    if n_gt == 0:
        return _zero_gt_outcome(dets_by_image, "average_precision")
    scores, tp, _ = _dataset_passes(dets_by_image, gts_by_image, (t,), 0)
    return _interpolated_ap(*_pr_curve(_ranked(scores, tp)[0], n_gt))


def mean_average_precision(
    dets_by_image: Mapping[str, ColumnBatch | Sequence[ScoredBox]],
    gts_by_image: Mapping[str, GroundTruths | Sequence[GroundTruth]],
) -> EvalReport:
    """Full COCO-style report: per-threshold AP, their mean, AP.75, AR@300.

    One greedy pass per image and threshold serves both AP and AR@300.
    """
    notes: list[str] = []
    ap_per_t: dict[float, float | None] = {}
    pr_curves: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    n_gt = _n_gt(gts_by_image)
    if n_gt == 0:
        val = _zero_gt_outcome(dets_by_image, "mean_average_precision")
        notes.append("no ground truths")
        for t in COCO_THRESHOLDS:
            ap_per_t[t] = val
            pr_curves[t] = (np.empty(0), np.empty(0))
        return EvalReport(ap_per_t, val, val, val, pr_curves, tuple(notes))
    scores, tp, matched = _dataset_passes(
        dets_by_image, gts_by_image, COCO_THRESHOLDS, AR_MAX_DETS
    )
    for t, flags in zip(COCO_THRESHOLDS, _ranked(scores, tp)):
        pr_curves[t] = _pr_curve(flags, n_gt)
        ap_per_t[t] = _interpolated_ap(*pr_curves[t])
    vals = [v for v in ap_per_t.values() if v is not None]
    map_coco = sum(vals) / len(vals)
    ar = _mean_recall(matched, n_gt)
    return EvalReport(ap_per_t, map_coco, ap_per_t[0.75], ar, pr_curves, tuple(notes))


def average_recall_at(
    dets_by_image: Mapping[str, ColumnBatch | Sequence[ScoredBox]],
    gts_by_image: Mapping[str, GroundTruths | Sequence[GroundTruth]],
    k: int = AR_MAX_DETS,
) -> float | None:
    """AR@k: match each image's top-k detections by score, then average
    recall over the COCO thresholds (the first k steps of each image's
    greedy pass)."""
    check("k", k, int, ge=1)
    n_gt = _n_gt(gts_by_image)
    if n_gt == 0:
        return _zero_gt_outcome(dets_by_image, "average_recall_at")
    _, _, matched = _dataset_passes(dets_by_image, gts_by_image, COCO_THRESHOLDS, k)
    return _mean_recall(matched, n_gt)


def brute_force_ap_oracle(
    dets_by_image: Mapping[str, Sequence[ScoredBox]],
    gts_by_image: Mapping[str, GroundTruths | Sequence[GroundTruth]],
    t: float,
) -> float | None:
    """Independent AP computation for tests: explicit loops, no shared code.

    Re-derives the ranked list, the greedy matching, the full interpolated
    PR staircase, and the 101-point sum from scratch, with its own inline
    IoU.  Only intended for small inputs (<= 50 detections).
    """
    if not (0.0 < t <= 1.0):
        raise ValueError(f"IoU threshold must be in (0, 1], got {t!r}")
    n_det_total = sum(len(v) for v in dets_by_image.values())
    if n_det_total > 50:
        raise ValueError("oracle is for small test inputs (<= 50 detections)")

    def box_iou(a, b):
        # independent formulation: clamp-based overlap
        ox = min(a[2], b[2]) - max(a[0], b[0])
        oy = min(a[3], b[3]) - max(a[1], b[1])
        if ox <= 0 or oy <= 0:
            return 0.0
        inter = ox * oy
        a_area = (a[2] - a[0]) * (a[3] - a[1])
        b_area = (b[2] - b[0]) * (b[3] - b[1])
        return inter / (a_area + b_area - inter)

    n_gt = 0
    for v in gts_by_image.values():
        n_gt += len(v)
    if n_gt == 0:
        return _zero_gt_outcome(dets_by_image, "brute_force_ap_oracle")

    # per-image greedy matching, recording TP flags keyed by (score, arrival)
    ranked: list[tuple[float, int, bool]] = []
    arrival = 0
    for img, dets in dets_by_image.items():
        gts = gts_by_image.get(img, ())
        taken = [False] * len(gts)
        local = sorted(range(len(dets)), key=lambda i: -dets[i].score)
        flags = [False] * len(dets)
        for i in local:
            d = dets[i]
            dt = d.box.as_tuple()
            best = -1
            best_v = 0.0
            for j, g in enumerate(gts):
                if taken[j] or g.label != d.label:
                    continue
                v = box_iou(dt, g.box.as_tuple())
                if v > best_v:
                    best_v, best = v, j
            if best >= 0 and best_v >= t:
                flags[i] = True
                taken[best] = True
        for i, d in enumerate(dets):
            ranked.append((d.score, arrival, flags[i]))
            arrival += 1
    ranked.sort(key=lambda e: (-e[0], e[1]))

    # explicit PR staircase
    staircase: list[tuple[float, float]] = []
    tp = fp = 0
    for _, _, flag in ranked:
        if flag:
            tp += 1
        else:
            fp += 1
        staircase.append((tp / n_gt, tp / (tp + fp)))

    # direct 101-point sum with max-over-suffix interpolation
    total = 0.0
    for i in range(101):
        r = i / 100
        best_p = 0.0
        for rec, prec in staircase:
            if rec >= r and prec > best_p:
                best_p = prec
        total += best_p
    return total / 101
