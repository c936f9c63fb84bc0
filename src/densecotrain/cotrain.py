"""The co-training loop: two detector views exchange ensemble-vetted
pseudo-labels on unlabeled images, retrain, and stop on a validation
patience rule.

Both views go through the same code: the supervised phase, pseudo-label
generation, retraining and evaluation each loop over (A, B), and the mode
only decides where each view's labels go.  Validation and the final test
pass share one evaluation function.

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
  read exactly once per run, after stopping, on the best-validation
  round's checkpointed state.
* Bit-for-bit reproducible from (config, seed): every RNG consumed here
  is derived from the config seed and a string namespace.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, replace
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
    Detection,
    DetectorParams,
    DetectorProfile,
    PseudoLabelAudit,
    RetrainCoefficients,
    SkillModel,
    audit_pseudo_labels,
    count_occluded,
    derive_seed,
    detect,
    retrain,
    size_regime,
    skill_from_params,
)
from .ensemble import EnsembleClassifier, EnsembleParams
from .geom import Box, ScoredBox, nms
from .metrics import EvalReport, match_detections, mean_average_precision

MODES = ("cotrain", "selftrain", "supervised")
CHECKPOINT_VERSION = 2


class InfeasibleViewError(ValueError):
    """The configuration produced no usable verification training data
    (no detections at all, or correct/incorrect examples of one class
    only)."""


@dataclass(frozen=True)
class PseudoLabel:
    """One accepted pseudo-annotation on an unlabeled image."""

    image_id: str
    box: Box
    label: int
    confidence: float
    source_view: str
    round: int

    def to_scored(self) -> ScoredBox:
        return ScoredBox(self.box, self.confidence, self.label)

    def to_dict(self) -> dict:
        return {
            "image_id": self.image_id,
            "box": list(self.box.as_tuple()),
            "label": self.label,
            "confidence": self.confidence,
            "source_view": self.source_view,
            "round": self.round,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PseudoLabel":
        return cls(
            d["image_id"], Box(*d["box"]), int(d["label"]),
            float(d["confidence"]), d["source_view"], int(d["round"]),
        )


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


@dataclass
class ViewState:
    """One detector view plus its verification ensemble."""

    name: str
    profile: DetectorProfile
    params: DetectorParams
    base_skill: SkillModel
    skill: SkillModel
    ensemble: EnsembleClassifier | None = None

    @property
    def trained(self) -> bool:
        return self.ensemble is not None


@dataclass
class RoundRecord:
    round: int
    val_map_a: float
    val_map_b: float
    val_map_combined: float
    n_accepted_for_a: int = 0
    n_accepted_for_b: int = 0
    pseudo_precision_a: float | None = None  # oracle precision of A's output
    pseudo_precision_b: float | None = None


@dataclass
class CoTrainState:
    round: int
    view_a: ViewState
    view_b: ViewState
    accepted_for_a: dict[str, list[PseudoLabel]] = field(default_factory=dict)
    accepted_for_b: dict[str, list[PseudoLabel]] = field(default_factory=dict)
    history: list[RoundRecord] = field(default_factory=list)
    n_base_annotations: int = 0
    n_base_occluded: int = 0
    mode: str = "cotrain"


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
    view: ViewState,
    records: Sequence[ImageRecord],
    seed: int,
) -> dict[str, list[Detection]]:
    return {
        rec.image_id: detect(rec, view.skill, view.params, view.profile, seed)
        for rec in records
    }


def _stacked_features(
    dets_by_image: Mapping[str, list[Detection]]
) -> tuple[list[str], np.ndarray]:
    """Image ids in sorted order, and every detection's feature vector
    stacked in that order (rows follow each image's detection order)."""
    order = sorted(dets_by_image)
    feats = [d.features for img in order for d in dets_by_image[img]]
    return order, np.asarray(feats)


def _verified_scores(
    view: ViewState, dets_by_image: Mapping[str, list[Detection]]
) -> dict[str, list[ScoredBox]]:
    """Final prediction rule: detector score times the ensemble's fused
    object probability (keeps both stages' information in the ranking)."""
    if not view.trained:
        raise ValueError(f"view {view.name} has no trained ensemble")
    order, X = _stacked_features(dets_by_image)
    p_obj = view.ensemble.positive_probability(X).tolist() if len(X) else []
    out: dict[str, list[ScoredBox]] = {}
    k = 0
    for img in order:
        row = []
        for d in dets_by_image[img]:
            s = d.scored.score * p_obj[k]
            row.append(ScoredBox(d.scored.box, min(max(s, 0.0), 1.0), d.scored.label))
            k += 1
        out[img] = row
    return out


def predict_verified(
    view: ViewState,
    records: Sequence[ImageRecord],
    seed: int,
) -> dict[str, list[ScoredBox]]:
    return _verified_scores(view, _detect_view(view, records, seed))


def merge_views(
    dets_a: Mapping[str, Sequence[ScoredBox]],
    dets_b: Mapping[str, Sequence[ScoredBox]],
    merge_nms_iou: float,
) -> dict[str, list[ScoredBox]]:
    """The combined detector: both views' outputs, NMS-deduplicated."""
    out = {}
    for img in sorted(set(dets_a) | set(dets_b)):
        merged = list(dets_a.get(img, ())) + list(dets_b.get(img, ()))
        out[img] = nms(merged, merge_nms_iou)
    return out


def _evaluate(
    state: CoTrainState,
    records: Sequence[ImageRecord],
    config: CoTrainConfig,
    namespace: str,
) -> tuple[EvalReport, EvalReport, EvalReport]:
    """Reports of view A, view B and their merge on ``records``; each
    view's detections are seeded from (seed, namespace, view name)."""
    gts = {r.image_id: list(r.gts) for r in records}
    da, db = (
        predict_verified(v, records, derive_seed(config.seed, namespace, v.name))
        for v in (state.view_a, state.view_b)
    )
    dc = merge_views(da, db, config.merge_nms_iou)
    return tuple(mean_average_precision(d, gts) for d in (da, db, dc))


def _validation_maps(
    state: CoTrainState,
    records_by_id: Mapping[str, ImageRecord],
    split: DatasetSplit,
    config: CoTrainConfig,
) -> tuple[float, float, float]:
    val_records = [records_by_id[i] for i in split.val]
    return tuple(
        float(rep.map_coco) for rep in _evaluate(state, val_records, config, "val")
    )


def _train_view_ensemble(
    view: ViewState,
    train_records: Sequence[ImageRecord],
    config: CoTrainConfig,
) -> EnsembleClassifier:
    """Fit the verification ensemble on the view's own detections over
    the labeled train set, labeled correct/incorrect by oracle match."""
    dets = _detect_view(
        view, train_records, derive_seed(config.seed, "ens-train", view.name)
    )
    feats: list[tuple[float, ...]] = []
    targets: list[int] = []
    for rec in train_records:
        row = dets[rec.image_id]
        mr = match_detections([d.scored for d in row], list(rec.gts), 0.5)
        for d, tp in zip(row, mr.det_is_tp):
            feats.append(d.features)
            targets.append(1 if tp else 0)
    if not feats:
        raise InfeasibleViewError(
            f"view {view.name}: no detections on the labeled train set; "
            "cannot fit the verification ensemble"
        )
    if len(set(targets)) < 2:
        raise InfeasibleViewError(
            f"view {view.name}: verification training data is single-class "
            "(every detection was {}); cannot fit the ensemble".format(
                "correct" if targets[0] else "incorrect"
            )
        )
    X = np.asarray(feats)
    y = np.asarray(targets)
    if len(X) > config.ensemble_train_cap:
        rng = np.random.default_rng(derive_seed(config.seed, "cap", view.name))
        keep = rng.choice(len(X), config.ensemble_train_cap, replace=False)
        keep.sort()
        X, y = X[keep], y[keep]
    return EnsembleClassifier.train(
        (X, y), config.ensemble_params,
        seed=derive_seed(config.seed, "ensemble", view.name) & 0xFFFFFFFF,
    )


def initial_supervised_phase(
    records_by_id: Mapping[str, ImageRecord],
    split: DatasetSplit,
    config: CoTrainConfig,
) -> CoTrainState:
    """Round 0: both views trained on labeled train data only; the first
    validation entry is recorded and both accepted sets are empty."""
    if not split.train:
        raise ValueError("initial supervised phase requires a nonempty train set")
    train_records = [records_by_id[i] for i in split.train]
    regime = size_regime(train_records)
    views = []
    for name, profile, params in (
        ("A", LOCALIZER, config.loc_params), ("B", CONTEXTUAL, config.ctx_params)
    ):
        skill = skill_from_params(params, profile, regime)
        view = ViewState(name, profile, params, base_skill=skill, skill=skill)
        view.ensemble = _train_view_ensemble(view, train_records, config)
        views.append(view)
    state = CoTrainState(
        0, *views,
        n_base_annotations=sum(len(r.gts) for r in train_records),
        n_base_occluded=count_occluded(train_records),
        mode=config.mode,
    )
    state.history.append(
        RoundRecord(0, *_validation_maps(state, records_by_id, split, config))
    )
    return state


def generate_pseudo_labels(
    view: ViewState,
    unlabeled_records: Sequence[ImageRecord],
    tau_conf: float,
    nms_iou: float,
    round_no: int,
    seed: int,
) -> list[PseudoLabel]:
    """Detector output vetted by the view's ensemble: keep detections the
    soft vote calls object with confidence >= tau_conf (the label's score),
    NMS-deduplicated; the whole pool is one ``predict`` batch."""
    if not view.trained:
        raise ValueError(f"view {view.name} is untrained; cannot generate pseudo-labels")
    if not (0.0 < tau_conf <= 1.0):
        raise ValueError(f"tau_conf must be in (0, 1], got {tau_conf!r}")
    dets = _detect_view(view, unlabeled_records, seed)
    order, X = _stacked_features(dets)
    if not len(X):
        return []
    labels, conf = view.ensemble.predict(X)
    # the ensemble calls it an object, confidently enough
    kept = ((labels == 1) & (conf >= tau_conf)).tolist()
    rows = iter(zip(kept, conf.tolist()))
    out: list[PseudoLabel] = []
    for img in order:
        candidates = [
            ScoredBox(d.scored.box, c, d.scored.label)
            for d, (keep, c) in zip(dets[img], rows) if keep
        ]
        for sb in nms(candidates, nms_iou):
            out.append(
                PseudoLabel(img, sb.box, sb.label, sb.score, view.name, round_no)
            )
    return out


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


def exchange_round(
    state: CoTrainState,
    records_by_id: Mapping[str, ImageRecord],
    split: DatasetSplit,
    config: CoTrainConfig,
) -> CoTrainState:
    """One iteration: simultaneous pseudo-label generation from both
    views on the state as-is, exchange per mode, one audit of each view's
    accepted set (its retrain and the oracle precision of the labels it
    took both read it), retrain from the round-0 base skills, and record
    validation mAP."""
    round_no = state.round + 1
    pool = _pool_records(records_by_id, split, config, round_no)
    views = (state.view_a, state.view_b)
    accepted = (state.accepted_for_a, state.accepted_for_b)
    produced: list[list[PseudoLabel]] = [[], []]
    if config.mode != "supervised":
        produced = [
            generate_pseudo_labels(
                v, pool, config.tau_conf, config.pseudo_nms_iou, round_no,
                derive_seed(config.seed, "pool", v.name, round_no),
            )
            for v in views
        ]
    # receiver[i] takes view i's labels and, a swap being its own inverse,
    # gives view i its labels: the partner in cotrain mode, else i itself
    receiver = (1, 0) if config.mode == "cotrain" else (0, 1)
    audits = []  # per view, one audit per image of its accepted set
    for view, acc, r in zip(views, accepted, receiver):
        # replace-per-image-per-source: only images with fresh labels change
        acc.update(_group_by_image(produced[r]))
        pseudo_scored = {
            img: [p.to_scored() for p in group] for img, group in acc.items()
        }
        audits.append(audit_pseudo_labels(
            pseudo_scored, records_by_id, view.profile, view.base_skill
        ))
        view.skill = retrain(
            view.base_skill, view.profile,
            state.n_base_annotations, state.n_base_occluded,
            sum(audits[-1].values(), PseudoLabelAudit()), config.retrain_coeff,
        )
    # each view's oracle precision, from the audits of the view that took its
    # labels: a label matches a hidden GT at IoU 0.5 or not, whoever takes it
    precision = [
        sum(audits[r][img].n_correct for img in _group_by_image(labels)) / len(labels)
        if labels else None
        for labels, r in zip(produced, receiver)
    ]
    state.round = round_no
    state.history.append(
        RoundRecord(
            round_no, *_validation_maps(state, records_by_id, split, config),
            *(sum(len(v) for v in acc.values()) for acc in accepted), *precision,
        )
    )
    return state


# ------------------------------------------------------------ checkpoints

def save_checkpoint(state: CoTrainState, path: str | Path) -> None:
    """Write what the exchange rounds change: both skills, both accepted
    sets and the history.  Round 0's views and ensembles are not stored;
    ``load_checkpoint`` takes them from a rebuilt round-0 state."""
    doc = {
        "checkpoint_version": CHECKPOINT_VERSION,
        "round": state.round,
        "mode": state.mode,
        "skill_a": asdict(state.view_a.skill),
        "skill_b": asdict(state.view_b.skill),
        "accepted_for_a": {
            img: [p.to_dict() for p in group]
            for img, group in state.accepted_for_a.items()
        },
        "accepted_for_b": {
            img: [p.to_dict() for p in group]
            for img, group in state.accepted_for_b.items()
        },
        "history": [asdict(r) for r in state.history],
    }
    # write beside the target, then rename: a write cut short leaves the
    # previous checkpoint as the latest, never a truncated one
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(doc), encoding="utf-8")
    os.replace(tmp, path)


def load_checkpoint(path: str | Path, base: CoTrainState) -> CoTrainState:
    """``base``, the run's round-0 state rebuilt from its config, moved to
    the checkpoint's round (``base`` itself is left as it was).

    Round 0's validation record depends on the seed, records, split,
    params and ensembles, so a checkpoint whose mode or first history
    entry differs from ``base``'s was written by another run and is
    refused."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    version = doc.get("checkpoint_version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"{path}: unsupported checkpoint_version {version!r} "
            f"(this version reads {CHECKPOINT_VERSION})"
        )
    history = [from_dict(RoundRecord, r) for r in doc["history"]]
    if doc["mode"] != base.mode or history[:1] != base.history[:1]:
        raise ValueError(
            f"{path}: written by a run with another round 0 "
            "(mode, seed, records, split, params or ensemble); cannot resume"
        )
    return replace(
        base,
        round=int(doc["round"]),
        view_a=replace(base.view_a, skill=from_dict(SkillModel, doc["skill_a"])),
        view_b=replace(base.view_b, skill=from_dict(SkillModel, doc["skill_b"])),
        accepted_for_a={
            img: [PseudoLabel.from_dict(p) for p in group]
            for img, group in doc["accepted_for_a"].items()
        },
        accepted_for_b={
            img: [PseudoLabel.from_dict(p) for p in group]
            for img, group in doc["accepted_for_b"].items()
        },
        history=history,
    )


def _checkpoint_path(run_dir: Path, round_no: int) -> Path:
    return run_dir / f"checkpoint_round_{round_no:03d}.json"


def latest_checkpoint(run_dir: str | Path) -> Path | None:
    run_dir = Path(run_dir)
    if not run_dir.is_dir():
        return None
    found = sorted(run_dir.glob("checkpoint_round_*.json"))
    return found[-1] if found else None


def _skills(state: CoTrainState) -> tuple[SkillModel, SkillModel]:
    """What the best-round restore needs of a round: both views' skills."""
    return state.view_a.skill, state.view_b.skill


class PatienceTracker:
    """Stopping rule: a round is stagnant when neither view improved its
    best validation mAP so far by at least epsilon; `patience` stagnant
    rounds in a row stop the run."""

    def __init__(self, epsilon: float, patience: int,
                 first_a: float, first_b: float) -> None:
        self.epsilon = epsilon
        self.patience = patience
        self.best_a = first_a
        self.best_b = first_b
        self.stagnant = 0

    def update(self, val_a: float, val_b: float) -> None:
        gain_a = val_a - self.best_a
        gain_b = val_b - self.best_b
        if gain_a < self.epsilon and gain_b < self.epsilon:
            self.stagnant += 1
        else:
            self.stagnant = 0
        self.best_a = max(self.best_a, val_a)
        self.best_b = max(self.best_b, val_b)

    @property
    def should_stop(self) -> bool:
        return self.stagnant >= self.patience


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

    With ``resume``, round 0 is rebuilt and the latest checkpoint in
    ``run_dir`` is loaded onto it; otherwise round 0 is checkpointed."""
    rd = Path(run_dir) if run_dir is not None else None
    if rd is not None:
        rd.mkdir(parents=True, exist_ok=True)
    state = initial_supervised_phase(records_by_id, split, config)
    ck = latest_checkpoint(rd) if resume and rd is not None else None
    if ck is not None:
        state = load_checkpoint(ck, state)
    elif rd is not None:
        save_checkpoint(state, _checkpoint_path(rd, 0))
    try:
        skills = {state.round: _skills(state)}
        tracker = PatienceTracker(
            config.epsilon, config.patience,
            state.history[0].val_map_a, state.history[0].val_map_b,
        )
        # replay history so a resumed run keeps the same patience state
        for rec in state.history[1:]:
            tracker.update(rec.val_map_a, rec.val_map_b)
        rounds_to_run = (
            0 if config.mode == "supervised" else config.max_rounds - state.round
        )
        for _ in range(max(rounds_to_run, 0)):
            if tracker.should_stop:
                break
            state = exchange_round(state, records_by_id, split, config)
            rec = state.history[-1]
            tracker.update(rec.val_map_a, rec.val_map_b)
            skills[state.round] = _skills(state)
            if rd is not None:
                save_checkpoint(state, _checkpoint_path(rd, state.round))
    except Exception:
        if rd is not None:
            save_checkpoint(state, rd / "crash_state.json")
        raise

    # single test pass on the round whose combined validation mAP was best
    # (first max wins ties)
    best_round = max(
        state.history, key=lambda r: (r.val_map_combined, -r.round)
    ).round
    if best_round not in skills:
        if rd is None:
            raise RuntimeError(
                f"no snapshot or checkpoint for best round {best_round}"
            )
        ck_state = load_checkpoint(_checkpoint_path(rd, best_round), state)
        skills[best_round] = _skills(ck_state)
    state.view_a.skill, state.view_b.skill = skills[best_round]
    test_records = [records_by_id[i] for i in split.test]
    reports = _evaluate(state, test_records, config, "test")
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
        "mode": result.state.mode,
        "history": [asdict(r) for r in result.state.history],
        "report_a": report_to_dict(result.report_a),
        "report_b": report_to_dict(result.report_b),
        "report_combined": report_to_dict(result.report_combined),
    }
