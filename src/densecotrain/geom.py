"""Axis-aligned box geometry: areas, IoU, and non-maximum suppression.

Conventions (fixed so every metric and filter above this layer is exact):

* Boxes are continuous corner coordinates ``(x1, y1, x2, y2)`` with the
  origin at the top-left, ``x1 < x2`` and ``y1 < y2``.  Area is
  ``(x2 - x1) * (y2 - y1)`` with no pixel correction.
* ``iou_pairs`` is the kernel every batch of boxes goes through (NMS,
  matching, occlusion levels, a detector's jittered boxes against their
  sources): pairs of corner rows, broadcast.  It runs the same float
  operations in the same order as the scalar ``iou``, so each entry is
  bit-identical to it; ``iou`` stays as the reference in tests.
* NMS is greedy by descending score, stable on ties (input order), and a
  candidate whose IoU with a kept same-label box equals the threshold is
  suppressed (strict ``< threshold`` keeps).  One kernel applies the rule
  by rank position to many groups of rows at once, each padded to the
  block's largest group; ``nms_keep_groups`` runs it on every image of a
  batch, ``nms_keep`` is its one-group call on column arrays, and ``nms``
  on scored boxes goes through that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Protocol, Sequence

import numpy as np


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle with strictly positive extent."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        for name in ("x1", "y1", "x2", "y2"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"box coordinate {name} is not finite: {v!r}")
        if not (self.x2 > self.x1 and self.y2 > self.y1):
            raise ValueError(
                f"degenerate box: need x2 > x1 and y2 > y1, "
                f"got ({self.x1}, {self.y1}, {self.x2}, {self.y2})"
            )

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


@dataclass(frozen=True)
class ScoredBox:
    """A box with a confidence score and a class label (0 = object)."""

    box: Box
    score: float
    label: int = 0

    def __post_init__(self) -> None:
        if not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score must be in [0, 1], got {self.score!r}")


@dataclass(frozen=True)
class GroundTruth:
    """An annotated box with its class label (0 = object)."""

    box: Box
    label: int = 0


def area(b: Box) -> float:
    """Area of a box; strictly positive for any valid ``Box``."""
    return (b.x2 - b.x1) * (b.y2 - b.y1)


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes, in [0, 1].

    Symmetric; 0 for disjoint or merely touching boxes; exactly 1 for
    identical boxes.
    """
    ix1 = max(a.x1, b.x1)
    iy1 = max(a.y1, b.y1)
    ix2 = min(a.x2, b.x2)
    iy2 = min(a.y2, b.y2)
    iw = ix2 - ix1
    ih = iy2 - iy1
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = area(a) + area(b) - inter
    return inter / union


def corners(boxes: Sequence[Box]) -> np.ndarray:
    """The boxes' ``(x1, y1, x2, y2)`` rows as an ``(n, 4)`` float array."""
    return np.array(
        [(b.x1, b.y1, b.x2, b.y2) for b in boxes], dtype=float
    ).reshape(-1, 4)


class ColumnBatch(Protocol):
    """One image's detections as columns, such as ``detectors.Detections``."""

    boxes: np.ndarray
    scores: np.ndarray
    labels: np.ndarray


def columns(
    dets: ColumnBatch | Sequence[ScoredBox],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A column batch's corner, score and label columns, or scored boxes'."""
    if not isinstance(dets, Sequence):
        return dets.boxes, dets.scores, dets.labels
    return (
        corners([d.box for d in dets]),
        np.array([d.score for d in dets], dtype=float),
        np.array([d.label for d in dets], dtype=np.int64),
    )


def _areas(c: np.ndarray) -> np.ndarray:
    return (c[..., 2] - c[..., 0]) * (c[..., 3] - c[..., 1])


def iou_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of corner arrays ``(..., 4)`` row by row, broadcasting: two
    ``(n, 4)`` arrays give the n pairs' IoUs, ``(n, 1, 4)`` against
    ``(1, m, 4)`` the matrix.  Each entry equals the scalar ``iou`` of its
    pair bit for bit: the overlap is min minus max clamped at 0, the union
    ``(area_a + area_b) - inter``.  Computed in place, so at most three
    arrays of the broadcast shape are alive at once."""
    inter = np.minimum(a[..., 2], b[..., 2])
    inter -= np.maximum(a[..., 0], b[..., 0])
    np.maximum(inter, 0.0, out=inter)
    ih = np.minimum(a[..., 3], b[..., 3])
    ih -= np.maximum(a[..., 1], b[..., 1])
    np.maximum(ih, 0.0, out=ih)
    inter *= ih
    union = np.add(_areas(a), _areas(b), out=ih)
    union -= inter
    inter /= union
    return inter


NMS_BLOCK = 1 << 16
"""Most entries of one padded ``(groups, n, n)`` block of
``nms_keep_groups``: groups go in by ascending size, so one large group
cannot widen the padding of many small ones."""

_PAD_BOX = (0.0, 0.0, 1.0, 1.0)  # a padding row has area, so no IoU is 0/0


def _check_threshold(iou_threshold: float) -> None:
    if not (0.0 < iou_threshold < 1.0):
        raise ValueError(f"iou_threshold must be in (0, 1), got {iou_threshold!r}")


@lru_cache(maxsize=256)
def _above(n: int) -> np.ndarray:
    """``(n, n)`` mask of the pairs (i, j) with i ranked above j."""
    out = np.triu(np.ones((n, n), dtype=bool), 1)
    out.flags.writeable = False
    return out


def _greedy_removed(
    ranked: np.ndarray,
    labels: np.ndarray,
    iou_threshold: float,
    valid: np.ndarray | None = None,
) -> np.ndarray:
    """The greedy rule on ``c`` groups at once: ``ranked[c, n, 4]`` corners
    and ``labels[c, n]``, each group's rows in rank order.  Row j of a
    group is removed iff a row ranked above it that is not removed has its
    label and IoU at least ``iou_threshold`` with it.  ``valid[c, n]``
    marks the real rows when groups are padded at their ends; a padding row
    ranks below every real one, so masking it as a candidate is enough.
    Returns the ``(c, n)`` removed mask."""
    suppresses = iou_pairs(ranked[:, :, None, :], ranked[:, None, :, :]) >= iou_threshold
    suppresses &= labels[:, :, None] == labels[:, None, :]
    if valid is not None:
        suppresses &= valid[:, None, :]
    # a row is removed iff a kept row ranked above it suppresses it, so only
    # ranks that some higher row overlaps need the sequential check
    removed = np.zeros(labels.shape, dtype=bool)
    overlapped = (suppresses & _above(labels.shape[1])).any(axis=(0, 1))
    for j in np.flatnonzero(overlapped).tolist():
        removed[:, j] = (suppresses[:, :j, j] & ~removed[:, :j]).any(axis=1)
    return removed


def nms_keep(
    boxes: np.ndarray, scores: np.ndarray, labels: np.ndarray, iou_threshold: float
) -> np.ndarray:
    """Greedy non-maximum suppression on columns: ``boxes[n, 4]`` corners,
    ``scores[n]`` and ``labels[n]``.

    Rows are visited in descending score order (ties keep row order); a
    row survives iff its IoU with every already-kept row of the same label
    is strictly below ``iou_threshold``.  Returns the kept row indices in
    kept order.
    """
    _check_threshold(iou_threshold)
    order = np.argsort(-scores, kind="stable")
    removed = _greedy_removed(boxes[order][None], labels[order][None], iou_threshold)
    return order[~removed[0]]


def nms_keep_groups(
    boxes: np.ndarray,
    scores: np.ndarray,
    labels: np.ndarray,
    groups: np.ndarray,
    iou_threshold: float,
) -> np.ndarray:
    """``nms_keep`` on each group of rows on its own, all groups at once:
    ``groups[n]`` holds each row's group id (an integer >= 0), and rows of
    a group need not be adjacent; ties keep row order.  Returns the kept
    row indices by ascending group id, each group's in kept order.

    Each group's rows are ranked, then blocks of groups of similar size are
    padded to ``(groups, n, n)`` of at most ``NMS_BLOCK`` entries (or one
    group) and go through the greedy rule together; one group is
    ``nms_keep``'s call."""
    _check_threshold(iou_threshold)
    if not len(groups) or groups.min() == groups.max():
        return nms_keep(boxes, scores, labels, iou_threshold)
    order = np.lexsort((-scores, groups))
    sizes = np.bincount(groups)
    starts = np.cumsum(sizes) - sizes
    removed = np.zeros(len(order), dtype=bool)
    # a group of one row keeps it; the others go by ascending size
    multi = np.flatnonzero(sizes > 1)
    multi = multi[np.argsort(sizes[multi], kind="stable")]
    lo = 0
    while lo < len(multi):
        # take groups while their count times n * n stays within the bound:
        # sizes ascend, so it holds for a prefix; a group too large goes alone
        n_after = sizes[multi[lo:]]
        fits = np.arange(1, len(n_after) + 1) * n_after * n_after <= NMS_BLOCK
        hi = lo + max(int(np.count_nonzero(fits)), 1)
        ids, n = multi[lo:hi], int(sizes[multi[hi - 1]])
        lens = sizes[ids]
        slot = np.repeat(np.arange(len(ids)), lens)
        rank = np.arange(len(slot)) - np.repeat(np.cumsum(lens) - lens, lens)
        rows = np.repeat(starts[ids], lens) + rank  # positions in ``order``
        ranked = np.full((len(ids), n, 4), _PAD_BOX)
        ranked[slot, rank] = boxes[order[rows]]
        ranked_labels = np.zeros((len(ids), n), dtype=labels.dtype)
        ranked_labels[slot, rank] = labels[order[rows]]
        valid = np.zeros((len(ids), n), dtype=bool)
        valid[slot, rank] = True
        block = _greedy_removed(ranked, ranked_labels, iou_threshold, valid)
        removed[rows] = block[slot, rank]
        lo = hi
    return order[~removed]


def nms(dets: Sequence[ScoredBox], iou_threshold: float) -> list[ScoredBox]:
    """Greedy non-maximum suppression of scored boxes (``nms_keep``'s rule).

    The result is a subset of the input (the same objects), in kept order.
    """
    return [dets[i] for i in nms_keep(*columns(dets), iou_threshold).tolist()]
