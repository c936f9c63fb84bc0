"""The co-training loop: two detector views exchange ensemble-vetted
pseudo-labels on unlabeled images, retrain, and stop on a validation
patience rule.

Both views go through the same code: the supervised phase, pseudo-label
generation, retraining and evaluation each loop over (A, B), and the mode
only decides where each view's labels go.  Validation and the final test
pass share one evaluation function.  One detection pass per view and
record set, one batched ``detect_batch`` call, feeds both the verified
predictions and pseudo-labelling: the pool, validation and test passes
are batched, and generation runs one NMS for the whole pool, or none
where the detector's own NMS left nothing for it to remove.  A
pseudo-label is a scored box (its score is the ensemble's confidence),
so the audit grades an accepted set as it is.

Rules this module enforces:

* Strict cross-exchange: in cotrain mode the accepted set for view A
  holds only labels produced by view B and vice versa.  The self-training
  baseline (each view keeps its own labels) exists only as a harness for
  comparison experiments, selected by ``mode``.
* Replace-per-image-per-source: a round's labels for an image supersede
  that image's older labels from the same source; rounds that generate
  nothing leave the views unchanged.
* Retraining is always recomputed from the round-0 supervised skill plus
  the current accepted set, never compounded round over round.
* The labeled train/val/test sets are never mutated, and the test set is
  read exactly once per run, after stopping, with the best-validation
  round's skills.
* ``CoTrainState`` is the run's one record, and a value: its config, the
  trained views, every round's skills, the accepted sets and the history.
  Each round returns a new state and leaves its input as it was.
  Stopping and the best-round restore read the state alone, so a resumed
  run takes the same path as a fresh one.
* A run directory holds one checkpoint, ``checkpoint.json``, replaced
  after each round: the skills and history a resume cannot rebuild.
* Bit-for-bit reproducible from (config, seed): every RNG consumed here
  is derived from the config seed and a string namespace.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import KW_ONLY, asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .codec import from_dict
from .data import DatasetSplit, ImageRecord
from .detectors import (
    CONTEXTUAL,
    DEFAULT_CONTEXTUAL_PARAMS,
    DEFAULT_LOCALIZER_PARAMS,
    LOCALIZER,
    Detections,
    DetectorParams,
    DetectorProfile,
    PseudoLabelAudit,
    RetrainCoefficients,
    SkillModel,
    audit_pseudo_labels,
    count_occluded,
    derive_seed,
    detect,
    detect_batch,
    retrain,
    size_regime,
    skill_from_params,
)
from .ensemble import EnsembleClassifier, EnsembleParams
from .geom import Box, ScoredBox, nms_keep, nms_keep_groups
from .metrics import EvalReport, match_detections, mean_average_precision

MODES = ("cotrain", "selftrain", "supervised")
CHECKPOINT_VERSION = 5
CHECKPOINT_FILENAME = "checkpoint.json"


class InfeasibleViewError(ValueError):
    """The configuration produced no usable verification training data
    (no detections at all, or correct/incorrect examples of one class
    only)."""


@dataclass(frozen=True)
class PseudoLabel(ScoredBox):
    """One accepted pseudo-annotation on an unlabeled image: a scored box
    whose ``score`` is the ensemble's confidence, tagged with its image,
    the view that produced it and the round."""

    _: KW_ONLY
    image_id: str
    source_view: str
    round: int


@dataclass(frozen=True)
class CoTrainConfig:
    """Knobs of one run; everything downstream derives from these plus
    the seed."""

    loc_params: DetectorParams = DEFAULT_LOCALIZER_PARAMS
    ctx_params: DetectorParams = DEFAULT_CONTEXTUAL_PARAMS
    ensemble_params: EnsembleParams = EnsembleParams()
    tau_conf: float = 0.8
    max_rounds: int = 5
    epsilon: float = 0.005
    patience: int = 2
    pseudo_nms_iou: float = 0.5
    merge_nms_iou: float = 0.5
    mode: str = "cotrain"
    seed: int = 0
    unlabeled_subsample: int | None = None
    ensemble_train_cap: int = 2500
    retrain_coeff: RetrainCoefficients = RetrainCoefficients()

    def __post_init__(self) -> None:
        if not (0.0 < self.tau_conf <= 1.0):
            raise ValueError(f"tau_conf must be in (0, 1], got {self.tau_conf!r}")
        if self.max_rounds < 0:
            raise ValueError("max_rounds must be >= 0")
        if self.epsilon < 0 or self.patience < 1:
            raise ValueError("epsilon must be >= 0 and patience >= 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not (0.0 < self.pseudo_nms_iou < 1.0 and 0.0 < self.merge_nms_iou < 1.0):
            raise ValueError("nms thresholds must be in (0, 1)")
        if self.unlabeled_subsample is not None and self.unlabeled_subsample < 0:
            raise ValueError("unlabeled_subsample must be >= 0")
        if self.ensemble_train_cap < 2:  # a smaller cap holds one class at most
            raise ValueError("ensemble_train_cap must be >= 2")


@dataclass(frozen=True)
class ViewState:
    """One trained detector view plus its verification ensemble."""

    name: str
    profile: DetectorProfile
    params: DetectorParams
    ensemble: EnsembleClassifier


@dataclass(frozen=True)
class RoundRecord:
    round: int
    val_map_a: float
    val_map_b: float
    val_map_combined: float
    n_accepted_for_a: int = 0
    n_accepted_for_b: int = 0
    pseudo_precision_a: float | None = None  # oracle precision of A's output
    pseudo_precision_b: float | None = None


@dataclass(frozen=True)
class CoTrainState:
    """The run's one record.  ``skills[r]`` holds both views' skills after
    round r: entry 0 is the round-0 supervised skills, and the last entry
    is the pair the detectors run with now."""

    view_a: ViewState
    view_b: ViewState
    config: CoTrainConfig
    skills: list[tuple[SkillModel, SkillModel]]
    n_base_annotations: int
    n_base_occluded: int
    accepted_for_a: dict[str, list[PseudoLabel]] = field(default_factory=dict)
    accepted_for_b: dict[str, list[PseudoLabel]] = field(default_factory=dict)
    history: list[RoundRecord] = field(default_factory=list)

    @property
    def round(self) -> int:
        return len(self.history) - 1


@dataclass
class CoTrainResult:
    state: CoTrainState
    best_round: int
    report_a: EvalReport
    report_b: EvalReport
    report_combined: EvalReport


def records_index(records: Iterable[ImageRecord]) -> dict[str, ImageRecord]:
    out = {}
    for r in records:
        if r.image_id in out:
            raise ValueError(f"duplicate image_id {r.image_id!r}")
        out[r.image_id] = r
    return out


def _detect_view(
    profile: DetectorProfile,
    params: DetectorParams,
    skill: SkillModel,
    records: Sequence[ImageRecord],
    seed: int,
) -> tuple[list[tuple[str, Detections, slice]], np.ndarray]:
    """A view's detections on ``records``, all through one
    ``detect_batch``: per image, in sorted image-id order, its id, its
    detections and their rows in the returned matrix, which stacks every
    detection's feature vector in that order."""
    by_id = {rec.image_id: rec for rec in records}
    ids = sorted(by_id)
    batch, offsets = detect_batch([by_id[i] for i in ids], skill, params, profile, seed)
    rows = []
    for img, start, end in zip(ids, offsets.tolist(), offsets[1:].tolist()):
        r = slice(start, end)
        cols = (batch.boxes[r], batch.scores[r], batch.labels[r], batch.features[r])
        rows.append((img, Detections(*cols), r))
    return rows, batch.features


def _verified(
    ensemble: EnsembleClassifier,
    rows: Sequence[tuple[str, Detections, slice]],
    X: np.ndarray,
) -> dict[str, Detections]:
    """The scoring half of ``predict_verified``: each detection of ``rows``
    rescored by the rule, reading its features from ``X``."""
    p_obj = ensemble.positive_probability(X) if len(X) else np.empty(0)
    return {
        img: replace(d, scores=np.clip(d.scores * p_obj[r], 0.0, 1.0))
        for img, d, r in rows
    }


def predict_verified(
    view: ViewState,
    skill: SkillModel,
    records: Sequence[ImageRecord],
    seed: int,
) -> dict[str, Detections]:
    """Final prediction rule: detector score times the ensemble's fused
    object probability (keeps both stages' information in the ranking)."""
    return _verified(
        view.ensemble, *_detect_view(view.profile, view.params, skill, records, seed)
    )


def merge_views(
    dets_a: Mapping[str, Detections],
    dets_b: Mapping[str, Detections],
    merge_nms_iou: float,
) -> dict[str, Detections]:
    """The combined detector: per image, the rows of A then B that NMS keeps."""
    out = {}
    for img in sorted(set(dets_a) | set(dets_b)):
        ds = [d[img] for d in (dets_a, dets_b) if img in d]
        cols = [np.concatenate([getattr(x, f.name) for x in ds]) for f in fields(ds[0])]
        keep = nms_keep(*cols[:3], merge_nms_iou)
        out[img] = Detections(*(c[keep] for c in cols))
    return out


def _reports(
    dets_a: Mapping[str, Detections],
    dets_b: Mapping[str, Detections],
    records: Sequence[ImageRecord],
    merge_nms_iou: float,
) -> tuple[EvalReport, EvalReport, EvalReport]:
    """Reports of both views' verified detections and of their merge."""
    gts = {r.image_id: list(r.gts) for r in records}
    dc = merge_views(dets_a, dets_b, merge_nms_iou)
    return tuple(mean_average_precision(d, gts) for d in (dets_a, dets_b, dc))


def _evaluate(
    state: CoTrainState,
    skills: tuple[SkillModel, SkillModel],
    records: Sequence[ImageRecord],
    namespace: str,
) -> tuple[EvalReport, EvalReport, EvalReport]:
    """Reports of the views, run with ``skills``, and their merge on
    ``records``; detections are seeded from (seed, namespace, view name)."""
    da, db = (
        predict_verified(
            v, skill, records, derive_seed(state.config.seed, namespace, v.name)
        )
        for v, skill in zip((state.view_a, state.view_b), skills)
    )
    return _reports(da, db, records, state.config.merge_nms_iou)


def _maps(reports: Iterable[EvalReport]) -> tuple[float, ...]:
    return tuple(float(rep.map_coco) for rep in reports)


def _validation_maps(
    state: CoTrainState,
    records_by_id: Mapping[str, ImageRecord],
    split: DatasetSplit,
) -> tuple[float, float, float]:
    """Validation mAPs of an exchange round's state (round 0 scores the
    validation detections it made while fitting its ensembles)."""
    val_records = [records_by_id[i] for i in split.val]
    return _maps(_evaluate(state, state.skills[-1], val_records, "val"))


def view_specs(
    config: CoTrainConfig,
) -> tuple[tuple[str, DetectorProfile, DetectorParams], ...]:
    """Each view's name, detector profile and detector params under
    ``config``, view A first."""
    return ("A", LOCALIZER, config.loc_params), ("B", CONTEXTUAL, config.ctx_params)


@dataclass(frozen=True)
class RoundZeroData:
    """A view's detector-side work of round 0: its supervised skill, the
    training set of its verification ensemble and its raw validation
    detections (``_detect_view``'s rows and feature matrix)."""

    skill: SkillModel
    train_set: tuple[np.ndarray, np.ndarray]
    val_rows: list[tuple[str, Detections, slice]]
    val_X: np.ndarray


def round_zero_data(
    name: str,
    profile: DetectorProfile,
    params: DetectorParams,
    records_by_id: Mapping[str, ImageRecord],
    split: DatasetSplit,
    config: CoTrainConfig,
) -> RoundZeroData:
    """Step 1 of a view's round 0: detect on the labeled train set and
    label each detection correct/incorrect by oracle match (at most
    ``ensemble_train_cap`` rows, a seeded subsample), then detect on the
    validation set.  Reads of ``config`` only the seed and the cap."""
    if not split.train:
        raise ValueError("initial supervised phase requires a nonempty train set")
    if not split.val:
        raise ValueError("initial supervised phase requires a nonempty validation set")
    train_records = [records_by_id[i] for i in split.train]
    skill = skill_from_params(params, profile, size_regime(train_records))
    seed = derive_seed(config.seed, "ens-train", name)
    feats: list[np.ndarray] = []
    targets: list[bool] = []
    for rec in train_records:
        row = detect(rec, skill, params, profile, seed)
        feats.append(row.features)
        targets += match_detections(row, list(rec.gts), 0.5).det_is_tp
    if not targets:
        raise InfeasibleViewError(
            f"view {name}: no detections on the labeled train set; "
            "cannot fit the verification ensemble"
        )
    if len(set(targets)) < 2:
        raise InfeasibleViewError(
            f"view {name}: verification training data is single-class "
            "(every detection was {}); cannot fit the ensemble".format(
                "correct" if targets[0] else "incorrect"
            )
        )
    X = np.concatenate(feats)
    y = np.asarray(targets, dtype=int)
    if len(X) > config.ensemble_train_cap:
        rng = np.random.default_rng(derive_seed(config.seed, "cap", name))
        keep = rng.choice(len(X), config.ensemble_train_cap, replace=False)
        keep.sort()
        X, y = X[keep], y[keep]
    val_rows, val_X = _detect_view(
        profile, params, skill, [records_by_id[i] for i in split.val],
        derive_seed(config.seed, "val", name),
    )
    return RoundZeroData(skill, (X, y), val_rows, val_X)


def fit_round_zero(
    name: str,
    profile: DetectorProfile,
    params: DetectorParams,
    data: RoundZeroData,
    config: CoTrainConfig,
) -> tuple[ViewState, dict[str, Detections]]:
    """Step 2 of a view's round 0: fit the verification ensemble on
    ``data``'s training set and score its validation detections.  Reads
    of ``config`` only the seed and the ensemble params."""
    ensemble = EnsembleClassifier.train(
        data.train_set, config.ensemble_params,
        seed=derive_seed(config.seed, "ensemble", name) & 0xFFFFFFFF,
    )
    view = ViewState(name, profile, params, ensemble)
    return view, _verified(ensemble, data.val_rows, data.val_X)


def initial_supervised_phase(
    records_by_id: Mapping[str, ImageRecord],
    split: DatasetSplit,
    config: CoTrainConfig,
) -> CoTrainState:
    """Round 0: both views trained on labeled train data only; the first
    validation entry is recorded and both accepted sets are empty."""
    views, skills, verified = [], [], []
    for name, profile, params in view_specs(config):
        data = round_zero_data(name, profile, params, records_by_id, split, config)
        view, dets = fit_round_zero(name, profile, params, data, config)
        views.append(view)
        skills.append(data.skill)
        verified.append(dets)
    train_records = [records_by_id[i] for i in split.train]
    val_records = [records_by_id[i] for i in split.val]
    maps = _maps(_reports(*verified, val_records, config.merge_nms_iou))
    return CoTrainState(
        *views, config, [tuple(skills)],
        n_base_annotations=sum(len(r.gts) for r in train_records),
        n_base_occluded=count_occluded(train_records),
        history=[RoundRecord(0, *maps)],
    )


def generate_pseudo_labels(
    view: ViewState,
    skill: SkillModel,
    unlabeled_records: Sequence[ImageRecord],
    tau_conf: float,
    nms_iou: float,
    round_no: int,
    seed: int,
) -> list[PseudoLabel]:
    """Detector output vetted by the view's ensemble: keep detections the
    soft vote calls object with confidence >= tau_conf (the label's score),
    NMS-deduplicated per image; the whole pool is one ``predict`` batch and
    one NMS.  Labels come image by image in sorted id order."""
    if not (0.0 < tau_conf <= 1.0):
        raise ValueError(f"tau_conf must be in (0, 1], got {tau_conf!r}")
    rows, X = _detect_view(view.profile, view.params, skill, unlabeled_records, seed)
    if not len(X):
        return []
    is_object, conf = view.ensemble.predict(X)
    # the ensemble calls it an object, confidently enough
    cand = np.flatnonzero((is_object == 1) & (conf >= tau_conf))
    image = np.repeat(np.arange(len(rows)), [len(d) for _, d, _ in rows])[cand]
    boxes = np.concatenate([d.boxes for _, d, _ in rows])[cand]
    labels = np.concatenate([d.labels for _, d, _ in rows])[cand]
    if nms_iou >= view.params.nms_iou:
        # detect's NMS at the view's IoU left no same-label pair at or above
        # nms_iou, so NMS here would only sort each image by confidence
        keep = np.lexsort((-conf[cand], image))
    else:
        keep = nms_keep_groups(boxes, conf[cand], labels, image, nms_iou)
    ids = [img for img, _, _ in rows]
    return [
        PseudoLabel(
            Box(*box), score, label,
            image_id=ids[k], source_view=view.name, round=round_no,
        )
        for box, score, label, k in zip(
            boxes[keep].tolist(), conf[cand[keep]].tolist(),
            labels[keep].tolist(), image[keep].tolist(),
        )
    ]


def _group_by_image(labels: Sequence[PseudoLabel]) -> dict[str, list[PseudoLabel]]:
    grouped: dict[str, list[PseudoLabel]] = {}
    for p in labels:
        grouped.setdefault(p.image_id, []).append(p)
    return grouped


def _pool_records(
    records_by_id: Mapping[str, ImageRecord],
    split: DatasetSplit,
    config: CoTrainConfig,
    round_no: int,
) -> list[ImageRecord]:
    ids = list(split.unlabeled_pool)
    if config.unlabeled_subsample is not None and config.unlabeled_subsample < len(ids):
        rng = np.random.default_rng(
            derive_seed(config.seed, "pool-sample", round_no)
        )
        pick = rng.choice(len(ids), config.unlabeled_subsample, replace=False)
        ids = [ids[i] for i in sorted(pick)]
    return [records_by_id[i] for i in ids]


def _sources(mode: str) -> tuple[int, int]:
    """Per view, the index of the view whose labels it takes: the partner
    in cotrain mode, else itself.  A swap is its own inverse, so entry i
    is also the view that takes view i's labels."""
    return (1, 0) if mode == "cotrain" else (0, 1)


def _sizes(groups: Iterable[Mapping[str, list[PseudoLabel]]]) -> tuple[int, ...]:
    """The number of labels in each of ``groups`` (per image id)."""
    return tuple(sum(len(g) for g in by_image.values()) for by_image in groups)


def _next_labels(
    state: CoTrainState,
    records_by_id: Mapping[str, ImageRecord],
    split: DatasetSplit,
) -> tuple[list[dict[str, list[PseudoLabel]]], ...]:
    """The pseudo-label half of the round after ``state``'s, run by both
    ``exchange_round`` and a checkpoint's replay: both views generate from
    the state's last skills on that round's pool, and each view's accepted
    set takes the fresh labels of its source.  Returns, per view, the
    labels it produced grouped by image, and the accepted set it takes."""
    config = state.config
    round_no = state.round + 1
    fresh: list[dict[str, list[PseudoLabel]]] = [{}, {}]
    if config.mode != "supervised":
        pool = _pool_records(records_by_id, split, config, round_no)
        fresh = [
            _group_by_image(generate_pseudo_labels(
                v, skill, pool, config.tau_conf, config.pseudo_nms_iou, round_no,
                derive_seed(config.seed, "pool", v.name, round_no),
            ))
            for v, skill in zip((state.view_a, state.view_b), state.skills[-1])
        ]
    # replace-per-image-per-source: only images with fresh labels change
    sets, sources = (state.accepted_for_a, state.accepted_for_b), _sources(config.mode)
    accepted = [{**acc, **fresh[src]} for acc, src in zip(sets, sources)]
    return fresh, accepted


def exchange_round(
    state: CoTrainState,
    records_by_id: Mapping[str, ImageRecord],
    split: DatasetSplit,
) -> CoTrainState:
    """One iteration under ``state.config``: simultaneous pseudo-label
    generation from both views on the state as-is, exchange per mode, one
    audit of each view's accepted set (its retrain and the oracle precision
    of the labels it took both read it), retrain from the round-0 skills,
    and record the skills and validation mAP.  Returns the next state;
    ``state`` is left as it was."""
    fresh, accepted = _next_labels(state, records_by_id, split)
    skills, audits = [], []  # per view; an audit per image of its accepted set
    for view, base_skill, acc in zip(
        (state.view_a, state.view_b), state.skills[0], accepted
    ):
        audits.append(audit_pseudo_labels(acc, records_by_id, view.profile, base_skill))
        skills.append(retrain(
            base_skill, view.profile,
            state.n_base_annotations, state.n_base_occluded,
            sum(audits[-1].values(), PseudoLabelAudit()), state.config.retrain_coeff,
        ))
    # each view's oracle precision, from the audits of the view that took its
    # labels: a label matches a hidden GT at IoU 0.5 or not, whoever takes it
    precision = [
        sum(audits[r][img].n_correct for img in groups) / n if n else None
        for groups, n, r in zip(fresh, _sizes(fresh), _sources(state.config.mode))
    ]
    retrained = replace(
        state, skills=[*state.skills, tuple(skills)],
        accepted_for_a=accepted[0], accepted_for_b=accepted[1],
    )
    record = RoundRecord(
        state.round + 1, *_validation_maps(retrained, records_by_id, split),
        *_sizes(accepted), *precision,
    )
    return replace(retrained, history=[*state.history, record])


# ------------------------------------------------------------ checkpoints

def _fingerprint(config: CoTrainConfig) -> str:
    """sha256 of the config's sorted-key JSON; ``max_rounds`` is left out
    so that a resume may run more rounds."""
    doc = asdict(config)
    del doc["max_rounds"]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Checkpoint:
    """What ``checkpoint.json`` holds: every round's skills and the history
    (whose length gives the round) behind the config's fingerprint."""

    checkpoint_version: int
    config_sha256: str
    skills: tuple[tuple[SkillModel, SkillModel], ...]
    history: tuple[RoundRecord, ...]


def save_checkpoint(state: CoTrainState, path: str | Path) -> None:
    """Write what the exchange rounds change and cannot be rebuilt: round
    0's views and each round's pseudo-labelling are functions of the config,
    records, split and earlier skills, so ``load_checkpoint`` rebuilds both."""
    ck = Checkpoint(
        CHECKPOINT_VERSION, _fingerprint(state.config),
        tuple(state.skills), tuple(state.history),
    )
    # write beside the target, then rename: a write cut short leaves the
    # previous round's checkpoint in place, never a truncated one
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(asdict(ck)), encoding="utf-8")
    os.replace(tmp, path)


def load_checkpoint(
    path: str | Path,
    records_by_id: Mapping[str, ImageRecord],
    split: DatasetSplit,
    config: CoTrainConfig,
) -> CoTrainState:
    """The run's state at the checkpoint's round: round 0 rebuilt by the
    supervised phase, the stored skills and history, and both accepted
    sets rebuilt by replaying each stored round's pseudo-labelling.

    A file that is not a JSON ``Checkpoint`` of this version, was written
    under another config (fingerprint) or holds no round or unequal numbers
    of skills and history entries is refused, naming the file, before round
    0 is rebuilt.  One whose first history entry differs from the rebuilt
    one (round 0's validation mAPs, which move with the records and split),
    or a round whose replayed accepted sets differ in size from its history
    entry, was written by another run and is refused after."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not JSON ({exc}); cannot resume") from exc
    version = doc.get("checkpoint_version") if isinstance(doc, dict) else None
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"{path}: unsupported checkpoint_version {version!r} "
            f"(this version reads {CHECKPOINT_VERSION})"
        )
    ck = from_dict(Checkpoint, doc, where=str(path))
    if ck.config_sha256 != _fingerprint(config):
        raise ValueError(
            f"{path}: written by a run with another config "
            "(config_sha256 differs); cannot resume"
        )
    skills, history = list(ck.skills), list(ck.history)
    if not len(skills) == len(history) >= 1:
        raise ValueError(
            f"{path}: {len(skills)} skills and {len(history)} history entries "
            "(each must hold one entry per round from 0); cannot resume"
        )
    state = initial_supervised_phase(records_by_id, split, config)
    if history[:1] != state.history:
        raise ValueError(
            f"{path}: written by a run with another round 0 "
            "(history[0] differs); cannot resume"
        )
    for k, rec in enumerate(history[1:], start=1):
        state = replace(state, skills=skills[:k], history=history[:k])
        accepted = _next_labels(state, records_by_id, split)[1]
        replayed, stored = _sizes(accepted), (rec.n_accepted_for_a, rec.n_accepted_for_b)
        if replayed != stored:
            raise ValueError(
                f"{path}: round {k} replays to {replayed} accepted "
                f"pseudo-labels for (A, B), not the stored {stored}; cannot resume"
            )
        state = replace(state, accepted_for_a=accepted[0], accepted_for_b=accepted[1])
    return replace(state, skills=skills, history=history)


def stagnant_rounds(history: Sequence[RoundRecord], epsilon: float) -> int:
    """The patience count: how many rounds in a row, up to the last, left
    both views' best validation mAP so far short of a gain of epsilon.
    A run stops when it reaches ``patience``."""
    best_a, best_b = history[0].val_map_a, history[0].val_map_b
    stagnant = 0
    for rec in history[1:]:
        if rec.val_map_a - best_a < epsilon and rec.val_map_b - best_b < epsilon:
            stagnant += 1
        else:
            stagnant = 0
        best_a = max(best_a, rec.val_map_a)
        best_b = max(best_b, rec.val_map_b)
    return stagnant


def run_cotraining(
    records_by_id: Mapping[str, ImageRecord],
    split: DatasetSplit,
    config: CoTrainConfig,
    run_dir: str | Path | None = None,
    resume: bool = False,
) -> CoTrainResult:
    """Initial phase, then exchange rounds until max_rounds or the
    patience rule fires; the test set is evaluated exactly once at the
    end using the round whose combined validation mAP was best.

    With ``run_dir``, the state after round 0 and after each exchange
    round replaces ``run_dir / CHECKPOINT_FILENAME``.  With ``resume`` and
    that file present, it is checked against the config, then round 0 is
    rebuilt and each checkpointed round's pseudo-labelling replayed onto
    it.  Either way the rest of the run reads only the state."""
    ck = None if run_dir is None else Path(run_dir) / CHECKPOINT_FILENAME
    if resume and ck is not None and ck.is_file():
        state = load_checkpoint(ck, records_by_id, split, config)
    else:
        state = initial_supervised_phase(records_by_id, split, config)
        if ck is not None:
            ck.parent.mkdir(parents=True, exist_ok=True)
            save_checkpoint(state, ck)
    last_round = 0 if config.mode == "supervised" else config.max_rounds
    while (
        state.round < last_round
        and stagnant_rounds(state.history, config.epsilon) < config.patience
    ):
        state = exchange_round(state, records_by_id, split)
        if ck is not None:
            save_checkpoint(state, ck)

    # single test pass on the round whose combined validation mAP was best
    # (first max wins ties)
    best_round = max(
        state.history, key=lambda r: (r.val_map_combined, -r.round)
    ).round
    test_records = [records_by_id[i] for i in split.test]
    reports = _evaluate(state, state.skills[best_round], test_records, "test")
    return CoTrainResult(state, best_round, *reports)


def report_to_dict(rep: EvalReport) -> dict:
    return {
        "map_coco": rep.map_coco,
        "ap75": rep.ap75,
        "ar300": rep.ar300,
        "ap_per_threshold": {f"{t:.2f}": v for t, v in rep.ap_per_threshold.items()},
        "notes": list(rep.notes),
    }


def result_to_dict(result: CoTrainResult) -> dict:
    return {
        "best_round": result.best_round,
        "rounds_completed": result.state.round,
        "mode": result.state.config.mode,
        "history": [asdict(r) for r in result.state.history],
        "report_a": report_to_dict(result.report_a),
        "report_b": report_to_dict(result.report_b),
        "report_combined": report_to_dict(result.report_combined),
    }
