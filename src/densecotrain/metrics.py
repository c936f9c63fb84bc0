"""Detection evaluation: greedy matching, AP/mAP, AR@k, and a test oracle.

Conventions:

* COCO-style 101-point interpolated AP at IoU thresholds 0.50:0.05:0.95.
  Thresholds are built as exact hundredths (``i/100``) so a detection
  whose IoU is exactly 0.60 counts at the 0.60 threshold; ``np.arange``
  would produce 0.6000000000000001 and silently drop it.
* Matching is greedy in descending score order (stable on ties by input
  order): each detection takes the unmatched same-label ground truth
  with the highest IoU (the lowest index on ties) and is a true positive
  iff that IoU >= t.
* Each image's detection-by-GT IoU matrix (``geom.iou_pairs``) is built
  once and serves every threshold, as in pycocotools'
  ``COCOeval.computeIoU``/``evaluateImg``; only one image's matrix is
  alive at a time.
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

from .geom import ColumnBatch, GroundTruth, ScoredBox, columns, corners, iou_pairs

COCO_THRESHOLDS: tuple[float, ...] = tuple(i / 100 for i in range(50, 100, 5))
RECALL_LEVELS: tuple[float, ...] = tuple(i / 100 for i in range(101))
_RECALL_LEVELS = np.array(RECALL_LEVELS)
AR_MAX_DETS = 300


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


def _greedy_passes(
    boxes: np.ndarray, scores: np.ndarray, labels: np.ndarray,
    gts: Sequence[GroundTruth],
    thresholds: Sequence[float],
) -> tuple[list[int], list[list[tuple[int, float] | None]]]:
    """One image's greedy matching at every threshold from one IoU matrix.

    Returns the detection rows in descending score order (stable on
    ties) and, per threshold, what each step of the pass in that order
    matched: ``(gt index, IoU)``, or None for a false positive.

    Each detection's candidates are its same-label GTs sorted by
    (-IoU, index), so the first candidate not yet taken is the one the
    greedy rule picks.  A detection is a TP iff that candidate's IoU >= t,
    and every candidate after it scores no higher, so a pass only looks
    at the candidates with IoU >= t; the lists keep those reaching the
    lowest threshold.
    """
    order = np.argsort(-scores, kind="stable")
    cands: list[list[tuple[float, int]]] = [[] for _ in order]
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
        taken: set[int] = set()
        steps: list[tuple[int, float] | None] = []
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


def match_detections(
    dets: ColumnBatch | Sequence[ScoredBox],
    gts: Sequence[GroundTruth],
    t: float,
) -> MatchResult:
    """Greedy per-image matching at IoU threshold ``t``.

    Detections are processed in descending score order; each takes the
    unmatched ground truth of its own label with the highest IoU, and is
    a TP iff that IoU >= t.  A ground truth is consumed by at most one
    detection.
    """
    if not (0.0 < t <= 1.0):
        raise ValueError(f"IoU threshold must be in (0, 1], got {t!r}")
    order, (steps,) = _greedy_passes(*columns(dets), gts, (t,))
    det_is_tp = [False] * len(dets)
    det_matched: list[int | None] = [None] * len(dets)
    det_iou = [0.0] * len(dets)
    gt_matched = [False] * len(gts)
    for i, hit in zip(order, steps):
        if hit is not None:
            j, v = hit
            det_is_tp[i] = True
            det_matched[i] = j
            det_iou[i] = v
            gt_matched[j] = True
    return MatchResult(
        tuple(det_is_tp), tuple(det_matched), tuple(det_iou), tuple(gt_matched)
    )


def _dataset_passes(
    dets_by_image: Mapping[str, ColumnBatch | Sequence[ScoredBox]],
    gts_by_image: Mapping[str, Sequence[GroundTruth]],
    thresholds: Sequence[float],
    k: int,
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Greedy passes over a dataset, one image (and one matrix) at a time.

    Returns the detection scores in (image insertion, input) order, the
    TP flags per threshold in that order (a thresholds x detections
    array), and per threshold the number of GTs matched by each image's
    top-k detections.  Images without detections match nothing.
    """
    n_det = sum(len(v) for v in dets_by_image.values())
    scores = np.empty(n_det)
    tp = np.zeros((len(thresholds), n_det), dtype=bool)
    matched_at_k = [0] * len(thresholds)
    base = 0
    for img, dets in dets_by_image.items():
        cols = columns(dets)
        order, passes = _greedy_passes(*cols, gts_by_image.get(img, ()), thresholds)
        scores[base : base + len(dets)] = cols[1]
        for ti, steps in enumerate(passes):
            hits = [s is not None for s in steps]
            tp[ti, [base + i for i, h in zip(order, hits) if h]] = True
            matched_at_k[ti] += sum(hits[:k])
        base += len(dets)
    return scores, tp, matched_at_k


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


def _zero_gt_outcome(n_det: int, what: str) -> float | None:
    if n_det > 0:
        warnings.warn(
            f"{what}: no ground truths but {n_det} detections; defined as 0.0",
            stacklevel=3,
        )
        return 0.0
    warnings.warn(f"{what}: no ground truths and no detections; undefined", stacklevel=3)
    return None


def _n_gt(gts_by_image: Mapping[str, Sequence[GroundTruth]]) -> int:
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
    gts_by_image: Mapping[str, Sequence[GroundTruth]],
    t: float,
) -> float | None:
    """101-point interpolated AP at one IoU threshold over a dataset.

    Returns None (absent) when there are neither ground truths nor
    detections; 0.0 with a warning when detections exist without any
    ground truth.
    """
    if not (0.0 < t <= 1.0):
        raise ValueError(f"IoU threshold must be in (0, 1], got {t!r}")
    n_gt = _n_gt(gts_by_image)
    if n_gt == 0:
        n_det = sum(len(v) for v in dets_by_image.values())
        return _zero_gt_outcome(n_det, "average_precision")
    scores, tp, _ = _dataset_passes(dets_by_image, gts_by_image, (t,), 0)
    return _interpolated_ap(*_pr_curve(_ranked(scores, tp)[0], n_gt))


def mean_average_precision(
    dets_by_image: Mapping[str, ColumnBatch | Sequence[ScoredBox]],
    gts_by_image: Mapping[str, Sequence[GroundTruth]],
) -> EvalReport:
    """Full COCO-style report: per-threshold AP, their mean, AP.75, AR@300.

    One greedy pass per image and threshold serves both AP and AR@300.
    """
    notes: list[str] = []
    ap_per_t: dict[float, float | None] = {}
    pr_curves: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    n_gt = _n_gt(gts_by_image)
    if n_gt == 0:
        n_det = sum(len(v) for v in dets_by_image.values())
        val = _zero_gt_outcome(n_det, "mean_average_precision")
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
    gts_by_image: Mapping[str, Sequence[GroundTruth]],
    k: int = AR_MAX_DETS,
) -> float | None:
    """AR@k: match each image's top-k detections by score, then average
    recall over the COCO thresholds (the first k steps of each image's
    greedy pass)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k!r}")
    n_gt = _n_gt(gts_by_image)
    if n_gt == 0:
        n_det = sum(len(v) for v in dets_by_image.values())
        return _zero_gt_outcome(n_det, "average_recall_at")
    _, _, matched = _dataset_passes(dets_by_image, gts_by_image, COCO_THRESHOLDS, k)
    return _mean_recall(matched, n_gt)


def brute_force_ap_oracle(
    dets_by_image: Mapping[str, Sequence[ScoredBox]],
    gts_by_image: Mapping[str, Sequence[GroundTruth]],
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
        return _zero_gt_outcome(n_det_total, "brute_force_ap_oracle")

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
