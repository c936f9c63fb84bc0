"""Synthetic detector views: a precise localizer and a context-aware
detector with complementary strengths, parameterized by their
hyperparameter blocks.

Design notes that matter for correctness:

* Per-box detection success is decided by a persistent unit hash of
  (profile, image_id, box index) compared against the box's effective
  recall, not by a fresh Bernoulli draw per call.  A view's misses are
  therefore stable properties of the view (hard boxes stay hard), which
  is what makes a view's own pseudo-labels uninformative to itself while
  the partner view's labels genuinely cover new boxes.  Aggregated over
  many boxes the hash values are uniform, so detection counts still
  follow the Binomial(n, recall) law.  The hashes of an image are
  computed once per process and kept as a read-only array.
* Training effort follows a saturating curve in EP and LR with a
  log-Gaussian bump around a profile-specific optimum, scaled mildly by
  batch size, so every hyperparameter moves detection quality.
* True-detection scores increase with the achieved IoU to the source
  box; false-positive scores follow a low-score Beta law, which makes
  the confidence threshold a real precision/recall dial.
* Feature vectors separate objects from background by the fixed
  ``DEFAULT_SEPARATION``, scaled by localization quality.
* Occlusion levels come from ``ImageRecord.occlusion``, which every
  record computes from its own GTs.
* A view runs over a record set in one ``detect_batch`` call.  Per image
  it does only what that image's own generator forces (the emitted GTs'
  normals and the false-positive loop); the IoUs, scores, feature
  placement, CT filter and greedy NMS run once over the whole batch, and
  each image's rows equal those of a one-image call bit for bit.
  ``detect`` is that one-image call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from hashlib import blake2s
from typing import Iterator, Mapping, Sequence

import numpy as np

from .data import ImageRecord
from .geom import Box, ScoredBox, corners, iou_pairs, nms_keep_groups
from .metrics import match_detections

BATCH_MENU: tuple[int, ...] = (4, 8, 16, 32)
ANCHOR_MENU: tuple[str, ...] = ("small", "medium", "large", "mixed")
FEATURE_DIM = 16
DEFAULT_SEPARATION = 4.0

SKILL_KAPPA = 0.08     # effort units per epoch at the LR optimum
LR_BUMP_WIDTH = 1.5    # log-space width of the LR stability window

# score model: score = clamp(base + slope * IoU_to_source + noise, 0, 1)
SCORE_BASE = 0.2
SCORE_SLOPE = 0.75
SCORE_NOISE = 0.06
FP_SCORE_ALPHA = 2.0
FP_SCORE_BETA = 5.0


@dataclass(frozen=True)
class DetectorParams:
    """One view's hyperparameter block (EP, CT, IOU, BS, LR, and AS for
    the anchor-aware profile)."""

    epochs: int = 20
    confidence_threshold: float = 0.25
    nms_iou: float = 0.5
    batch_size: int = 16
    learning_rate: float = 1e-3
    anchor_scales: str | None = None

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        # the lower edge is closed so CT=0 can express "no filtering"
        if not (0.0 <= self.confidence_threshold < 1.0):
            raise ValueError(
                f"confidence_threshold must be in [0, 1), "
                f"got {self.confidence_threshold!r}"
            )
        if not (0.0 < self.nms_iou < 1.0):
            raise ValueError(f"nms_iou must be in (0, 1), got {self.nms_iou!r}")
        if self.batch_size not in BATCH_MENU:
            raise ValueError(
                f"batch_size must be one of {BATCH_MENU}, got {self.batch_size!r}"
            )
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate!r}")
        if self.anchor_scales is not None and self.anchor_scales not in ANCHOR_MENU:
            raise ValueError(
                f"anchor_scales must be one of {ANCHOR_MENU} or None, "
                f"got {self.anchor_scales!r}"
            )


@dataclass(frozen=True)
class DetectorProfile:
    """Fixed constants of one synthetic view."""

    name: str
    recall_floor: float
    recall_ceiling: float
    lr_opt: float
    jitter_best: float      # px, fully trained
    jitter_worst: float     # px, untrained
    occlusion_penalty: float
    fp_rate: float
    feature_rotation: float  # radians, plane (0,1)
    anchor_aware: bool


LOCALIZER = DetectorProfile(
    name="localizer",
    recall_floor=0.10,
    recall_ceiling=0.92,
    lr_opt=1e-3,
    jitter_best=0.6,
    jitter_worst=4.0,
    occlusion_penalty=0.90,
    fp_rate=0.8,
    feature_rotation=0.0,
    anchor_aware=True,
)

CONTEXTUAL = DetectorProfile(
    name="contextual",
    recall_floor=0.10,
    recall_ceiling=0.96,
    lr_opt=2e-3,
    jitter_best=2.4,
    jitter_worst=7.0,
    occlusion_penalty=0.35,
    fp_rate=1.5,
    feature_rotation=math.pi / 4,
    anchor_aware=False,
)

DEFAULT_LOCALIZER_PARAMS = DetectorParams(
    epochs=20, confidence_threshold=0.25, nms_iou=0.5,
    batch_size=16, learning_rate=1e-3, anchor_scales="medium",
)
DEFAULT_CONTEXTUAL_PARAMS = DetectorParams(
    epochs=20, confidence_threshold=0.25, nms_iou=0.5,
    batch_size=16, learning_rate=2e-3, anchor_scales=None,
)


@dataclass(frozen=True)
class SkillModel:
    """What a trained view can do, independent of any single image."""

    base_recall: float
    occlusion_penalty: float
    jitter_sigma: float
    fp_rate: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.base_recall <= 1.0):
            raise ValueError(f"base_recall must be in [0,1], got {self.base_recall!r}")
        if self.occlusion_penalty < 0 or self.jitter_sigma < 0 or self.fp_rate < 0:
            raise ValueError("occlusion_penalty, jitter_sigma, fp_rate must be >= 0")

    def effective_recall(self, occlusion: float | np.ndarray) -> float | np.ndarray:
        """Recall on a box of the given occlusion level (or on each of an
        array of them), clamped to [0, 1]."""
        return np.minimum(
            np.maximum(self.base_recall - self.occlusion_penalty * occlusion, 0.0), 1.0
        )


@dataclass(frozen=True)
class Detection:
    """A scored box plus the feature vector the ensemble classifies."""

    scored: ScoredBox
    features: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.features) != FEATURE_DIM:
            raise ValueError(
                f"feature vector must have length {FEATURE_DIM}, "
                f"got {len(self.features)}"
            )
        if not all(math.isfinite(v) for v in self.features):
            raise ValueError("feature vector must be finite")


@dataclass(frozen=True, eq=False)
class Detections:
    """One image's detections as columns, row i being one detection:
    ``boxes[n, 4]`` corners (x1, y1, x2, y2), ``scores[n]``, integer
    ``labels[n]`` and ``features[n, FEATURE_DIM]``."""

    boxes: np.ndarray
    scores: np.ndarray
    labels: np.ndarray
    features: np.ndarray

    def __len__(self) -> int:
        return len(self.scores)

    def __iter__(self) -> Iterator[Detection]:
        """The rows as ``Detection`` objects, built on demand."""
        rows = zip(self.boxes.tolist(), self.scores.tolist(), self.labels.tolist())
        for (box, score, label), feats in zip(rows, self.features.tolist()):
            yield Detection(ScoredBox(Box(*box), score, label), tuple(feats))


def training_effort(params: DetectorParams, profile: DetectorProfile) -> float:
    """Saturating-curve exponent: epochs scaled by the LR bump and a mild
    small-batch bonus."""
    lg = math.log(params.learning_rate / profile.lr_opt)
    g = math.exp(-(lg * lg) / (2.0 * LR_BUMP_WIDTH * LR_BUMP_WIDTH))
    bs_scale = (16.0 / params.batch_size) ** 0.25
    return SKILL_KAPPA * params.epochs * g * bs_scale


def size_regime(records: Sequence[ImageRecord]) -> str:
    """Scene box-size regime from the median GT box geometric mean size."""
    sizes = [
        math.sqrt(g.box.width * g.box.height) for r in records for g in r.gts
    ]
    if not sizes:
        return "medium"
    med = float(np.median(sizes))
    if med < 40.0:
        return "small"
    if med < 80.0:
        return "medium"
    return "large"


def skill_from_params(
    params: DetectorParams,
    profile: DetectorProfile,
    scene_regime: str = "medium",
) -> SkillModel:
    """Deterministic hyperparameters -> skill mapping.

    base_recall saturates in training effort toward the profile ceiling;
    jitter shrinks with effort from jitter_worst toward jitter_best; the
    anchor-aware profile gets extra localization sharpness when its
    anchor_scales matches the scene's box-size regime (partial credit for
    "mixed").
    """
    effort = training_effort(params, profile)
    sat = 1.0 - math.exp(-effort)
    base = profile.recall_floor + (profile.recall_ceiling - profile.recall_floor) * sat
    jitter = profile.jitter_best + (
        profile.jitter_worst - profile.jitter_best
    ) * math.exp(-0.6 * effort)
    if profile.anchor_aware and params.anchor_scales is not None:
        if params.anchor_scales == scene_regime:
            jitter *= 0.75
        elif params.anchor_scales == "mixed":
            jitter *= 0.85
    return SkillModel(
        base_recall=base,
        occlusion_penalty=profile.occlusion_penalty,
        jitter_sigma=jitter,
        fp_rate=profile.fp_rate,
    )


def detection_hash(profile_name: str, image_id: str, gt_index: int) -> float:
    """Persistent per-box difficulty draw in [0, 1)."""
    key = f"{profile_name}|{image_id}|{gt_index}".encode()
    h = blake2s(key, digest_size=8).digest()
    return int.from_bytes(h, "big") / 2.0**64


@lru_cache(maxsize=1 << 14)
def _difficulty(profile_name: str, image_id: str, n_gts: int) -> np.ndarray:
    """``detection_hash`` of each of an image's GTs, as a read-only array.
    The hashes depend on nothing else, so every detection and audit of the
    image shares one array."""
    out = np.array(
        [detection_hash(profile_name, image_id, i) for i in range(n_gts)], dtype=float
    )
    out.flags.writeable = False
    return out


def derive_seed(*parts: object) -> int:
    """Stable 64-bit seed from string-able parts (for per-call RNG)."""
    key = "|".join(str(p) for p in parts).encode()
    return int.from_bytes(blake2s(key, digest_size=8).digest(), "big")


def _place_features(
    profile: DetectorProfile, x: np.ndarray, quality: float | np.ndarray
) -> np.ndarray:
    """Feature vectors from standard normal rows ``x[n, FEATURE_DIM]``
    (changed in place), one per detection of the given localization
    ``quality`` (clamped to [0, 1]; each row's, or one for all).

    The center sits ``DEFAULT_SEPARATION`` times the quality along axis
    0, so an object draws with its IoU to the source box and background
    with quality 0, at the origin; the profile's rotation in the (0, 1)
    plane makes the two views' feature spaces distinct while unit
    covariance is preserved.
    """
    x[:, 0] += DEFAULT_SEPARATION * np.minimum(np.maximum(quality, 0.0), 1.0)
    c, s = math.cos(profile.feature_rotation), math.sin(profile.feature_rotation)
    x0, x1 = x[:, 0].copy(), x[:, 1].copy()
    x[:, 0] = c * x0 - s * x1
    x[:, 1] = s * x0 + c * x1
    return x


def _fp_box(
    rng: np.random.Generator, record: ImageRecord, mean_w: float, mean_h: float
) -> Box | None:
    w = mean_w * rng.uniform(0.7, 1.3)
    h = mean_h * rng.uniform(0.7, 1.3)
    w = min(w, record.width * 0.9)
    h = min(h, record.height * 0.9)
    if w < 1.0 or h < 1.0:
        return None
    x1 = rng.uniform(0.0, record.width - w)
    y1 = rng.uniform(0.0, record.height - h)
    return Box(x1, y1, x1 + w, y1 + h)


def _emitted_rows(
    record: ImageRecord,
    gt_boxes: np.ndarray,
    found: np.ndarray,
    sigma: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jittered boxes of the emitted GTs ``found``, in order, and their
    draws, taken from ``rng`` as one call per emitted GT would take them.

    Each emitted GT uses 4 jitter normals (none when ``sigma`` is 0), then
    1 score-noise and ``FEATURE_DIM`` feature normals, unless jitter made
    its box degenerate: then it is dropped and used only its jitter
    normals.  So all GTs' normals come from one draw, read in blocks that
    restart after each dropped GT; the generator is then rewound to just
    past the normals used.  Returns the kept GT indices, their boxes and
    their ``(m, 1 + FEATURE_DIM)`` score-noise and feature normals.
    """
    jit = 4 if sigma > 0 else 0
    width = jit + 1 + FEATURE_DIM
    if not len(found):
        return found, np.empty((0, 4)), np.empty((0, width - jit))
    limit = np.array([record.width, record.height] * 2, dtype=float)
    state = rng.bit_generator.state
    z = rng.standard_normal(width * len(found))
    idx, boxes, draws = [], [], []
    pos = start = 0
    while start < len(found):
        block = z[pos:pos + width * (len(found) - start)].reshape(-1, width)
        jitter = 0.0 + sigma * block[:, :4] if jit else 0.0
        b = np.minimum(np.maximum(gt_boxes[found[start:]] + jitter, 0.0), limit)
        bad = np.flatnonzero((b[:, 2] <= b[:, 0]) | (b[:, 3] <= b[:, 1]))
        n_ok = int(bad[0]) if len(bad) else len(b)
        idx.append(found[start:start + n_ok])
        boxes.append(b[:n_ok])
        draws.append(block[:n_ok, jit:])
        pos += width * n_ok + (jit if len(bad) else 0)
        start += n_ok + (1 if len(bad) else 0)
    if pos == len(z):  # nothing dropped: one block
        return idx[0], boxes[0], draws[0]
    rng.bit_generator.state = state
    rng.standard_normal(pos)
    return np.concatenate(idx), np.concatenate(boxes), np.concatenate(draws)


def detect_batch(
    records: Sequence[ImageRecord],
    skill: SkillModel,
    params: DetectorParams,
    profile: DetectorProfile,
    seed: int,
) -> tuple[Detections, np.ndarray]:
    """Run one synthetic view over each of ``records``: every image's
    detections as one column batch, image by image in the order given,
    and the row offsets (image k's rows are ``offsets[k]:offsets[k + 1]``).

    Each GT is emitted iff its persistent difficulty draw falls below the
    box's effective recall; emitted boxes are corner-jittered, scored by
    achieved IoU plus bounded noise, joined by Poisson false positives,
    then filtered at CT and passed through NMS at the view's IoU setting.
    An image's rows come in NMS kept order (descending score).
    Deterministic given (record, skill, params, profile, seed), image by
    image: each image has its own generator, from which its emitted GTs'
    normals come in one draw and its false positives one at a time after
    them.  Only those draws run per image; the IoUs, scores, feature
    placement, CT filter and NMS run once over the batch.
    """
    # per image: emitted GTs' boxes, their source GTs' and their draws
    boxes, sources = [np.empty((0, 4))], [np.empty((0, 4))]
    draws = [np.empty((0, 1 + FEATURE_DIM))]
    labels: list[int] = []
    groups: list[int] = []  # each row's image
    fp_boxes: list[tuple[float, ...]] = []
    fp_scores: list[float] = []
    fp_groups: list[int] = []
    fp_normals = [np.empty((0, FEATURE_DIM))]
    for k, record in enumerate(records):
        rng = np.random.default_rng(
            derive_seed("detect", profile.name, seed, record.image_id)
        )
        gts = record.gts
        gt_boxes = corners([g.box for g in gts])
        eff = skill.effective_recall(np.asarray(record.occlusion, dtype=float))
        hashes = _difficulty(profile.name, record.image_id, len(gts))
        idx, b, d = _emitted_rows(
            record, gt_boxes, np.flatnonzero(hashes < eff), skill.jitter_sigma, rng
        )
        boxes.append(b)
        sources.append(gt_boxes[idx])
        draws.append(d)
        emitted = idx.tolist()
        labels += [gts[i].label for i in emitted]
        groups += [k] * len(emitted)
        if skill.fp_rate > 0:
            if gts:  # np.mean's sum over the count, bit for bit, at less cost
                n = len(gts)
                mean_w = float(np.add.reduce(gt_boxes[:, 2] - gt_boxes[:, 0])) / n
                mean_h = float(np.add.reduce(gt_boxes[:, 3] - gt_boxes[:, 1])) / n
            else:
                mean_w, mean_h = record.width / 8.0, record.height / 8.0
            for _ in range(rng.poisson(skill.fp_rate)):
                fb = _fp_box(rng, record, mean_w, mean_h)
                if fb is None:
                    continue
                fp_boxes.append(fb.as_tuple())
                fp_scores.append(float(rng.beta(FP_SCORE_ALPHA, FP_SCORE_BETA)))
                fp_normals.append(rng.standard_normal((1, FEATURE_DIM)))
                fp_groups.append(k)
    # every emitted GT's rows, then every false positive's: within an image
    # that is the order a one-image call makes, which NMS keeps on ties
    n_gt = len(labels)
    boxes = np.concatenate([*boxes, np.array(fp_boxes, dtype=float).reshape(-1, 4)])
    draws = np.concatenate(draws)
    q = iou_pairs(boxes[:n_gt], np.concatenate(sources))
    raw = (SCORE_BASE + SCORE_SLOPE * q) + (0.0 + SCORE_NOISE * draws[:, 0])
    scores = np.concatenate([np.minimum(np.maximum(raw, 0.0), 1.0), fp_scores])
    labels = np.array(labels + [0] * len(fp_scores), dtype=np.int64)
    groups = np.array(groups + fp_groups, dtype=np.int64)
    cand = np.flatnonzero(scores >= params.confidence_threshold)
    keep = cand[nms_keep_groups(
        boxes[cand], scores[cand], labels[cand], groups[cand], params.nms_iou
    )]
    feats = _place_features(  # false positives sit at quality 0
        profile, np.concatenate([draws[:, 1:], *fp_normals])[keep],
        np.concatenate([q, np.zeros(len(fp_scores))])[keep],
    )
    # ``keep`` runs image by image, so image k's rows start at the first
    # kept row of an image k or later
    offsets = np.searchsorted(groups[keep], np.arange(len(records) + 1))
    return Detections(boxes[keep], scores[keep], labels[keep], feats), offsets


def detect(
    record: ImageRecord,
    skill: SkillModel,
    params: DetectorParams,
    profile: DetectorProfile,
    seed: int,
) -> Detections:
    """``detect_batch`` on one image: one row per detection, in NMS kept
    order (descending score)."""
    return detect_batch([record], skill, params, profile, seed)[0]


@dataclass(frozen=True)
class PseudoLabelAudit:
    """Counts describing one batch of accepted pseudo-labels, measured
    against hidden oracle GTs from the receiver's point of view."""

    n_pseudo: int = 0
    n_correct: int = 0
    n_wrong: int = 0
    n_novel: int = 0           # correct, on GTs the receiver's skill misses
    n_novel_occluded: int = 0  # novel and on an occluded GT
    n_precise: int = 0         # correct with match IoU >= precise threshold

    def __add__(self, other: "PseudoLabelAudit") -> "PseudoLabelAudit":
        return PseudoLabelAudit(
            self.n_pseudo + other.n_pseudo,
            self.n_correct + other.n_correct,
            self.n_wrong + other.n_wrong,
            self.n_novel + other.n_novel,
            self.n_novel_occluded + other.n_novel_occluded,
            self.n_precise + other.n_precise,
        )


AUDIT_MATCH_IOU = 0.5
AUDIT_PRECISE_IOU = 0.75
AUDIT_OCCLUSION_MIN = 0.15


def audit_pseudo_labels(
    pseudo_by_image: Mapping[str, Sequence[ScoredBox]],
    records_by_id: Mapping[str, ImageRecord],
    receiver_profile: DetectorProfile,
    receiver_skill: SkillModel,
) -> dict[str, PseudoLabelAudit]:
    """Grade accepted pseudo-labels against hidden GTs: one audit per
    image that has labels.

    A label is correct iff it greedily matches an unmatched GT at IoU >=
    ``AUDIT_MATCH_IOU``, and precise if that IoU is >= ``AUDIT_PRECISE_IOU``;
    a correct label is novel to the receiver iff the matched GT's
    persistent difficulty draw exceeds the receiver's effective recall
    there (the receiver would miss it on its own), and novel-occluded if
    that GT's occlusion is >= ``AUDIT_OCCLUSION_MIN``.
    """
    out = {}
    for image_id, labels in pseudo_by_image.items():
        if not labels:
            continue
        rec = records_by_id[image_id]
        occ = rec.occlusion
        missed = (  # the GTs the receiver's own detector misses
            _difficulty(receiver_profile.name, image_id, len(occ))
            >= receiver_skill.effective_recall(np.asarray(occ, dtype=float))
        ).tolist()
        mr = match_detections(list(labels), list(rec.gts), AUDIT_MATCH_IOU)
        n_corr = n_wrong = n_novel = n_novel_occ = n_prec = 0
        for is_tp, gt_idx, miou in zip(mr.det_is_tp, mr.det_matched_gt, mr.det_match_iou):
            if not is_tp:
                n_wrong += 1
                continue
            n_corr += 1
            if miou >= AUDIT_PRECISE_IOU:
                n_prec += 1
            if missed[gt_idx]:
                n_novel += 1
                if occ[gt_idx] >= AUDIT_OCCLUSION_MIN:
                    n_novel_occ += 1
        out[image_id] = PseudoLabelAudit(
            len(labels), n_corr, n_wrong, n_novel, n_novel_occ, n_prec
        )
    return out


@dataclass(frozen=True)
class RetrainCoefficients:
    """Strengths of the synthetic training-effect rule."""

    recall_transfer: float = 0.55   # novel-coverage recall gain
    occlusion_transfer: float = 0.50  # occlusion-penalty shrink from novel occluded labels
    precision_transfer: float = 0.40  # jitter shrink from precise labels
    reinforcement: float = 0.06     # small gain from any correct labels
    noise_recall: float = 0.60      # recall penalty per unit wrong-label exposure
    noise_jitter: float = 1.00      # jitter inflation per unit wrong-label exposure
    min_jitter: float = 0.05


def retrain(
    base: SkillModel,
    profile: DetectorProfile,
    n_base_annotations: int,
    n_base_occluded: int,
    audit: PseudoLabelAudit,
    coeff: RetrainCoefficients = RetrainCoefficients(),
) -> SkillModel:
    """Synthetic training-effect update from a batch of pseudo-labels.

    Always applied to the supervised base skill (not compounded round
    over round): recall rises with the volume of correct labels on boxes
    the receiver misses, the occlusion penalty shrinks with novel
    occluded coverage, jitter shrinks with the share of precise labels,
    and the wrong-label fraction degrades recall and inflates jitter.
    Zero pseudo-labels return the base skill unchanged.
    """
    if n_base_annotations <= 0:
        raise ValueError("retrain requires a nonempty labeled training set")
    if audit.n_pseudo == 0:
        return base
    nb = float(n_base_annotations)
    vol_corr = audit.n_correct / (audit.n_correct + nb)
    vol_novel = audit.n_novel / (audit.n_novel + nb)
    wrong_frac = audit.n_wrong / audit.n_pseudo
    pseudo_share = audit.n_pseudo / (audit.n_pseudo + nb)
    occ_base = max(float(n_base_occluded), 1.0)
    occ_cover = audit.n_novel_occluded / (audit.n_novel_occluded + occ_base)
    precise_vol = audit.n_precise / (audit.n_precise + nb)

    headroom = profile.recall_ceiling - base.base_recall
    gain = (
        coeff.recall_transfer * vol_novel
        + coeff.reinforcement * vol_corr * (1.0 - wrong_frac)
    ) * max(headroom, 0.0)
    penalty = coeff.noise_recall * wrong_frac * pseudo_share
    new_recall = base.base_recall + gain - penalty
    new_recall = min(max(new_recall, profile.recall_floor), profile.recall_ceiling)

    new_occ_pen = base.occlusion_penalty * (
        1.0 - coeff.occlusion_transfer * occ_cover
    )
    new_jitter = (
        base.jitter_sigma
        * (1.0 - coeff.precision_transfer * precise_vol)
        * (1.0 + coeff.noise_jitter * wrong_frac * pseudo_share)
    )
    new_jitter = max(new_jitter, coeff.min_jitter)
    return replace(
        base,
        base_recall=new_recall,
        occlusion_penalty=new_occ_pen,
        jitter_sigma=new_jitter,
    )


def count_occluded(records: Sequence[ImageRecord]) -> int:
    """GT boxes whose recorded occlusion is at least ``AUDIT_OCCLUSION_MIN``."""
    return sum(1 for r in records for v in r.occlusion if v >= AUDIT_OCCLUSION_MIN)
