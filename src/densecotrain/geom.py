"""Axis-aligned box geometry: areas, IoU, and non-maximum suppression.

Conventions (fixed so every metric and filter above this layer is exact):

* Boxes are continuous corner coordinates ``(x1, y1, x2, y2)`` with the
  origin at the top-left, ``x1 < x2`` and ``y1 < y2``.  Area is
  ``(x2 - x1) * (y2 - y1)`` with no pixel correction.
* Detections have one column form, ``ColumnBatch``, which
  ``detectors.Detections`` extends and the predictions file is read into;
  ``columns`` reads it as it is and is the one converter from objects.
  Ground truth has one, ``GroundTruths``, which every ``ImageRecord``
  holds; ``gt_columns`` is its converter from objects.
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
  batch, and ``nms`` on scored boxes is its one-group call.  ``size_blocks``
  and ``padded``
  partition and pad the groups, for NMS and for batched matching alike.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .codec import check, finite


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
            if not finite(v):
                why = "beyond float range" if isinstance(v, int) else f"not finite: {v!r}"
                raise ValueError(f"box coordinate {name} is {why}")
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


@dataclass(frozen=True, eq=False)
class ColumnBatch:
    """Detections as columns, row i being one detection: ``boxes[n, 4]``
    corners (x1, y1, x2, y2), ``scores[n]`` and int64 ``labels[n]``.
    Batches compare by value, field by field."""

    boxes: np.ndarray
    scores: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.scores)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in pairs
        )


def columns(
    dets: ColumnBatch | Sequence[ScoredBox],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A column batch's corner, score and label columns, or scored boxes'."""
    if isinstance(dets, ColumnBatch):
        return dets.boxes, dets.scores, dets.labels
    return (
        corners([d.box for d in dets]),
        np.array([d.score for d in dets], dtype=float),
        np.array([d.label for d in dets], dtype=np.int64),
    )


def _int64_labels(values) -> np.ndarray:
    """``values`` as an int64 array, refusing a label that the cast would
    change (1.5, nan, "1", 2**63) and naming the first; an integer array
    that casts safely, the form every source makes, is not scanned."""
    a = np.asarray(values)
    if not np.can_cast(a.dtype, np.int64):
        for i, v in enumerate(a.ravel().tolist()):
            try:
                integral = int(v) == v
            except (TypeError, ValueError, OverflowError):  # None, nan, inf
                integral = False
            if not integral:
                raise ValueError(f"GT {i} label {v!r} is not an integer")
            if not -(2**63) <= v < 2**63:
                raise ValueError(f"GT {i} label is beyond int64")
    return a.astype(np.int64, copy=False)


@dataclass(frozen=True, eq=False)
class GroundTruths:
    """Ground truths as columns, row i being one: read-only ``boxes[n, 4]``
    corners (x1, y1, x2, y2) and int64 ``labels[n]``, where a label that
    the cast would change fails.  Batches compare by value, as
    ``ColumnBatch`` does, and hash by value."""

    boxes: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        for name, a in (("boxes", np.asarray(self.boxes, dtype=float)),
                        ("labels", _int64_labels(self.labels))):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    __eq__ = ColumnBatch.__eq__

    def __hash__(self) -> int:
        # hash(-0.0) == hash(0.0), as array_equal has it
        return hash((tuple(self.boxes.ravel().tolist()), tuple(self.labels.tolist())))

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[GroundTruth]:
        """The rows as ``GroundTruth`` objects, built on demand."""
        for box, label in zip(self.boxes.tolist(), self.labels.tolist()):
            yield GroundTruth(Box(*box), label)


def gt_columns(gts: GroundTruths | Sequence[GroundTruth]) -> GroundTruths:
    """A column batch of ground truths as it is, or ground truths' columns."""
    if isinstance(gts, GroundTruths):
        return gts
    return GroundTruths(corners([g.box for g in gts]), [g.label for g in gts])


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
"""Most entries of one padded block of groups: ``(groups, n, n)`` in
``nms_keep_groups``, ``(groups, k, m)`` in ``metrics.greedy_match_groups``.
Groups go in by ascending size, so one large group cannot widen the
padding of many small ones."""

_PAD_BOX = (0.0, 0.0, 1.0, 1.0)  # a padding row has area, so no IoU is 0/0


def size_blocks(rows: np.ndarray, cols: np.ndarray) -> list[np.ndarray]:
    """Blocks of the groups with ``rows[g]`` by ``cols[g]`` entries each,
    for padding to ``(groups, max rows, max cols)``: each block is an
    array of group ids, taken by ascending ``rows * cols`` (stable), that
    stays within ``NMS_BLOCK`` padded entries or holds one group."""
    ids = np.argsort(rows * cols, kind="stable")
    blocks = []
    lo = 0
    while lo < len(ids):
        # the padded size of a prefix grows with its length, so the groups
        # that fit are a prefix; a group too large goes alone
        n_rows = np.maximum.accumulate(rows[ids[lo:]])
        n_cols = np.maximum.accumulate(cols[ids[lo:]])
        fits = np.arange(1, len(n_rows) + 1) * n_rows * n_cols <= NMS_BLOCK
        hi = lo + max(int(np.count_nonzero(fits)), 1)
        blocks.append(ids[lo:hi])
        lo = hi
    return blocks


def padded(
    boxes: np.ndarray,
    labels: np.ndarray,
    order: np.ndarray,
    starts: np.ndarray,
    lens: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """Rows ``order[starts[i]:starts[i] + lens[i]]`` of ``boxes[n, 4]`` and
    ``labels[n]`` as slot i of ``(c, max lens, 4)`` corners, ``(c, max lens)``
    labels and a ``(c, max lens)`` mask of the real rows.  A padding row is
    the box (0, 0, 1, 1) with label 0, so no IoU with it is 0/0.  Also
    returns each real row's slot, its place in the slot and its position
    in ``order``."""
    slot = np.repeat(np.arange(len(lens)), lens)
    rank = np.arange(len(slot)) - np.repeat(np.cumsum(lens) - lens, lens)
    at = np.repeat(starts, lens) + rank
    shape = (len(lens), int(lens.max(initial=0)))
    out = np.full((*shape, 4), _PAD_BOX)
    out[slot, rank] = boxes[order[at]]
    out_labels = np.zeros(shape, dtype=labels.dtype)
    out_labels[slot, rank] = labels[order[at]]
    valid = np.zeros(shape, dtype=bool)
    valid[slot, rank] = True
    return out, out_labels, valid, (slot, rank, at)


NMS_IOU = {"gt": 0, "lt": 1}  # the rule of an NMS IoU threshold, for every field that holds one


@lru_cache(maxsize=256)
def _above(n: int) -> np.ndarray:
    """``(n, n)`` mask of the pairs (i, j) with i ranked above j."""
    out = np.triu(np.ones((n, n), dtype=bool), 1)
    out.flags.writeable = False
    return out


def _greedy_removed(
    ranked: np.ndarray, labels: np.ndarray, iou_threshold: float, valid: np.ndarray
) -> np.ndarray:
    """The greedy rule on ``c`` groups at once: ``ranked[c, n, 4]`` corners
    and ``labels[c, n]``, each group's rows in rank order.  Row j of a
    group is removed iff a row ranked above it that is not removed has its
    label and IoU at least ``iou_threshold`` with it.  ``valid[c, n]``
    marks the real rows of groups padded at their ends; a padding row
    ranks below every real one, so masking it as a candidate is enough.
    Returns the ``(c, n)`` removed mask."""
    suppresses = iou_pairs(ranked[:, :, None, :], ranked[:, None, :, :]) >= iou_threshold
    suppresses &= labels[:, :, None] == labels[:, None, :]
    suppresses &= valid[:, None, :]
    # a row is removed iff a kept row ranked above it suppresses it, so only
    # ranks that some higher row overlaps need the sequential check
    removed = np.zeros(labels.shape, dtype=bool)
    overlapped = (suppresses & _above(labels.shape[1])).any(axis=(0, 1))
    for j in np.flatnonzero(overlapped).tolist():
        removed[:, j] = (suppresses[:, :j, j] & ~removed[:, :j]).any(axis=1)
    return removed


def nms_keep_groups(
    boxes: np.ndarray,
    scores: np.ndarray,
    labels: np.ndarray,
    groups: np.ndarray,
    iou_threshold: float,
) -> np.ndarray:
    """Greedy non-maximum suppression on columns, each group of rows on its
    own, all groups at once: ``boxes[n, 4]`` corners, ``scores[n]``,
    ``labels[n]`` and ``groups[n]``, each row's group id (an integer >= 0);
    rows of a group need not be adjacent.

    A group's rows are visited in descending score order (ties keep row
    order); a row survives iff its IoU with every already-kept row of its
    group and label is strictly below ``iou_threshold``.  Returns the kept
    row indices by ascending group id, each group's in kept order.

    Each group's rows are ranked, then blocks of groups of similar size are
    padded to ``(groups, n, n)`` of at most ``NMS_BLOCK`` entries (or one
    group) and go through the greedy rule together."""
    check("iou_threshold", iou_threshold, float, **NMS_IOU)
    order = np.lexsort((-scores, groups))
    sizes = np.bincount(groups)
    starts = np.cumsum(sizes) - sizes
    removed = np.zeros(len(order), dtype=bool)
    # a group of one row keeps it; the others go by ascending size
    multi = np.flatnonzero(sizes > 1)
    for ids in size_blocks(sizes[multi], sizes[multi]):
        ids = multi[ids]
        ranked, ranked_labels, valid, (slot, rank, at) = padded(
            boxes, labels, order, starts[ids], sizes[ids]
        )
        block = _greedy_removed(ranked, ranked_labels, iou_threshold, valid)
        removed[at] = block[slot, rank]
    return order[~removed]


def nms(dets: Sequence[ScoredBox], iou_threshold: float) -> list[ScoredBox]:
    """Greedy non-maximum suppression of scored boxes: ``nms_keep_groups``
    on one group.

    The result is a subset of the input (the same objects), in kept order.
    """
    boxes, scores, labels = columns(dets)
    groups = np.zeros(len(scores), np.int64)
    keep = nms_keep_groups(boxes, scores, labels, groups, iou_threshold)
    return [dets[i] for i in keep.tolist()]
