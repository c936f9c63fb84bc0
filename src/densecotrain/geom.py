"""Axis-aligned box geometry: areas, IoU, and non-maximum suppression.

Conventions (fixed so every metric and filter above this layer is exact):

* Boxes are continuous corner coordinates ``(x1, y1, x2, y2)`` with the
  origin at the top-left, ``x1 < x2`` and ``y1 < y2``.  Area is
  ``(x2 - x1) * (y2 - y1)`` with no pixel correction.
* ``iou_matrix`` is the kernel every batch of boxes goes through (NMS,
  matching, occlusion levels).  It runs the same float operations in the
  same order as the scalar ``iou``, so each entry is bit-identical to it;
  ``iou`` stays for single pairs and as the reference in tests.
* NMS is greedy by descending score, stable on ties (input order), and a
  candidate whose IoU with a kept same-label box equals the threshold is
  suppressed (strict ``< threshold`` keeps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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


def _corners(boxes: Sequence[Box]) -> np.ndarray:
    return np.array(
        [(b.x1, b.y1, b.x2, b.y2) for b in boxes], dtype=float
    ).reshape(-1, 4)


def iou_matrix(a: Sequence[Box], b: Sequence[Box]) -> np.ndarray:
    """IoU of every box of ``a`` (rows) with every box of ``b`` (columns).

    Entry ``[i, j]`` equals ``iou(a[i], b[j])`` bit for bit: the overlap is
    min minus max clamped at 0, the union ``(area_a + area_b) - inter``.
    The matrix is built in place, so at most three ``len(a) x len(b)``
    arrays are alive at once.
    """
    ca, cb = _corners(a), _corners(b)
    area_a = (ca[:, 2] - ca[:, 0]) * (ca[:, 3] - ca[:, 1])
    area_b = (cb[:, 2] - cb[:, 0]) * (cb[:, 3] - cb[:, 1])
    inter = np.minimum(ca[:, None, 2], cb[None, :, 2])
    inter -= np.maximum(ca[:, None, 0], cb[None, :, 0])
    np.maximum(inter, 0.0, out=inter)
    ih = np.minimum(ca[:, None, 3], cb[None, :, 3])
    ih -= np.maximum(ca[:, None, 1], cb[None, :, 1])
    np.maximum(ih, 0.0, out=ih)
    inter *= ih
    union = np.add(area_a[:, None], area_b[None, :], out=ih)
    union -= inter
    inter /= union
    return inter


def nms(dets: Sequence[ScoredBox], iou_threshold: float) -> list[ScoredBox]:
    """Greedy non-maximum suppression.

    Detections are visited in descending score order (ties keep input
    order); a detection survives iff its IoU with every already-kept
    detection of the same label is strictly below ``iou_threshold``.
    The result is a subset of the input (the same objects), in kept order.
    """
    if not (0.0 < iou_threshold < 1.0):
        raise ValueError(f"iou_threshold must be in (0, 1), got {iou_threshold!r}")
    ranked = sorted(dets, key=lambda d: -d.score)
    boxes = [d.box for d in ranked]
    labels = np.array([d.label for d in ranked])
    suppresses = iou_matrix(boxes, boxes) >= iou_threshold
    suppresses &= labels[:, None] == labels[None, :]
    removed = np.zeros(len(ranked), dtype=bool)
    kept: list[ScoredBox] = []
    for k, d in enumerate(ranked):
        if not removed[k]:
            kept.append(d)
            removed |= suppresses[k]
    return kept
