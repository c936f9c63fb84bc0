"""The co-training loop: two detector views exchange ensemble-vetted
pseudo-labels on unlabeled images, retrain, and stop on a validation
patience rule.

Both views go through the same code: the supervised phase, pseudo-label
generation, retraining and evaluation each loop over (A, B), and the mode
only decides where each view's labels go.  Validation and the final test
pass share one evaluation function.  One detection pass per view and
record set, one ``detect_batch`` call giving one ``Detections`` batch,
feeds both the verified predictions and pseudo-labelling: generation
runs one NMS for the whole pool, or none where the detector's own NMS
left nothing for it to remove, and the merge of the two views runs one
NMS for all images.  Accepted pseudo-labels are a ``Detections`` batch
too (``PseudoLabels``: the masked rows of the pool batch, scored by the
ensemble's confidence), one group per image in the accepted sets, and
the audit grades a whole accepted set in one matching call.

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
from dataclasses import KW_ONLY, asdict, dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .codec import Checked, check, echo, from_dict, read_json, rule, rule_of, write_json
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
    detect_batch,
    retrain,
    size_regime,
    skill_from_params,
)
from .ensemble import EnsembleClassifier, EnsembleParams
from .geom import NMS_IOU, Box, ScoredBox, nms_keep_groups
from .metrics import EvalReport, greedy_match_groups, mean_average_precision

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


@dataclass(frozen=True, eq=False)
class PseudoLabels(Detections):
    """Accepted pseudo-labels: rows of a pool batch, ``scores`` being the
    ensemble's confidences, every row made by view ``source_view`` in
    round ``round``.  Iterating gives them as ``PseudoLabel`` objects,
    built on demand."""

    source_view: str
    round: int

    def __iter__(self) -> Iterator[PseudoLabel]:
        cols = (self.image_index(), self.boxes, self.scores, self.labels)
        for k, box, score, label in zip(*(c.tolist() for c in cols)):
            yield PseudoLabel(
                Box(*box), score, label, image_id=self.image_ids[k],
                source_view=self.source_view, round=self.round,
            )


@dataclass(frozen=True)
class CoTrainConfig(Checked):
    """Knobs of one run; everything downstream derives from these plus
    the seed."""

    loc_params: DetectorParams = DEFAULT_LOCALIZER_PARAMS
    ctx_params: DetectorParams = DEFAULT_CONTEXTUAL_PARAMS
    ensemble_params: EnsembleParams = EnsembleParams()
    tau_conf: float = rule(0.8, gt=0, le=1)
    max_rounds: int = rule(5, ge=0)
    epsilon: float = rule(0.005, ge=0)
    patience: int = rule(2, ge=1)
    pseudo_nms_iou: float = rule(0.5, **NMS_IOU)
    merge_nms_iou: float = rule(0.5, **NMS_IOU)
    mode: str = rule("cotrain", menu=MODES)
    seed: int = rule(0, ge=0)
    unlabeled_subsample: int | None = rule(None, ge=0)
    ensemble_train_cap: int = rule(2500, ge=2)  # a smaller cap holds one class at most
    retrain_coeff: RetrainCoefficients = RetrainCoefficients()


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
    accepted_for_a: dict[str, PseudoLabels] = field(default_factory=dict)
    accepted_for_b: dict[str, PseudoLabels] = field(default_factory=dict)
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
) -> Detections:
    """A view's detections on ``records`` as one ``detect_batch``, images in
    sorted id order."""
    ordered = sorted(records, key=lambda rec: rec.image_id)
    return detect_batch(ordered, skill, params, profile, seed)


def rescore(batch: Detections, p_obj: np.ndarray) -> Detections:
    """The verification rule: each detection of ``batch`` scored by its
    detector score times its object probability ``p_obj``, clipped to
    [0, 1]."""
    return replace(batch, scores=np.clip(batch.scores * p_obj, 0.0, 1.0))


def _verified(ensemble: EnsembleClassifier, batch: Detections) -> Detections:
    """The scoring half of ``predict_verified``: ``batch`` rescored by the
    ensemble's soft vote."""
    p_obj = ensemble.positive_probability(batch.features) if len(batch) else np.empty(0)
    return rescore(batch, p_obj)


def predict_verified(
    view: ViewState,
    skill: SkillModel,
    records: Sequence[ImageRecord],
    seed: int,
) -> Detections:
    """Final prediction rule: detector score times the ensemble's fused
    object probability (keeps both stages' information in the ranking)."""
    return _verified(
        view.ensemble, _detect_view(view.profile, view.params, skill, records, seed)
    )


def merge_views(
    batch_a: Detections, batch_b: Detections, merge_nms_iou: float
) -> Detections:
    """The combined detector: per image, the rows of A then B that NMS keeps
    (so ties favour A), all images in one ``nms_keep_groups``.  Both
    batches must hold the same images in the same order."""
    if batch_a.image_ids != batch_b.image_ids:
        raise ValueError("merge_views needs two batches over the same images")
    image = np.concatenate([batch_a.image_index(), batch_b.image_index()])
    pair = (batch_a, batch_b)
    cols = [np.concatenate([getattr(b, c) for b in pair]) for c in Detections.COLUMNS]
    keep = nms_keep_groups(*cols[:3], image, merge_nms_iou)
    offsets = np.searchsorted(image[keep], np.arange(len(batch_a.image_ids) + 1))
    return Detections(*(c[keep] for c in cols), batch_a.image_ids, offsets)


def _reports(
    dets_a: Detections, dets_b: Detections,
    records: Sequence[ImageRecord],
    merge_nms_iou: float,
) -> tuple[EvalReport, EvalReport, EvalReport]:
    """Reports of both views' verified detections and of their merge."""
    gts = {r.image_id: r.gts for r in records}
    dc = merge_views(dets_a, dets_b, merge_nms_iou)
    return tuple(mean_average_precision(d.by_image(), gts) for d in (dets_a, dets_b, dc))


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
    detections, and the seed the ensemble trains with."""

    skill: SkillModel
    train_set: tuple[np.ndarray, np.ndarray]
    val: Detections
    ensemble_seed: int


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
    batch = detect_batch(train_records, skill, params, profile, seed)
    bounds = batch.offsets.tolist()
    _, (matched,) = greedy_match_groups(
        [(batch.boxes[a:b], batch.scores[a:b], batch.labels[a:b])
         for a, b in zip(bounds, bounds[1:])],
        [(r.gts.boxes, r.gts.labels) for r in train_records],
        (0.5,),
    )
    if not len(matched):
        raise InfeasibleViewError(
            f"view {name}: no detections on the labeled train set; "
            "cannot fit the verification ensemble"
        )
    y = (matched >= 0).astype(int)
    if y.min() == y.max():
        raise InfeasibleViewError(
            f"view {name}: verification training data is single-class "
            "(every detection was {}); cannot fit the ensemble".format(
                "correct" if y[0] else "incorrect"
            )
        )
    X = batch.features
    if len(X) > config.ensemble_train_cap:
        rng = np.random.default_rng(derive_seed(config.seed, "cap", name))
        keep = rng.choice(len(X), config.ensemble_train_cap, replace=False)
        keep.sort()
        X, y = X[keep], y[keep]
    val = _detect_view(
        profile, params, skill, [records_by_id[i] for i in split.val],
        derive_seed(config.seed, "val", name),
    )
    return RoundZeroData(skill, (X, y), val, derive_seed(config.seed, "ensemble", name))


def initial_supervised_phase(
    records_by_id: Mapping[str, ImageRecord],
    split: DatasetSplit,
    config: CoTrainConfig,
) -> CoTrainState:
    """Round 0: both views trained on labeled train data only; the first
    validation entry is recorded and both accepted sets are empty.  A
    view's round 0 is ``round_zero_data``, then its verification ensemble
    fit on that training set, which scores its validation detections."""
    views, skills, verified = [], [], []
    for name, profile, params in view_specs(config):
        data = round_zero_data(name, profile, params, records_by_id, split, config)
        ensemble = EnsembleClassifier.train(
            data.train_set, config.ensemble_params, data.ensemble_seed
        )
        views.append(ViewState(name, profile, params, ensemble))
        skills.append(data.skill)
        verified.append(_verified(ensemble, data.val))
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
) -> PseudoLabels:
    """Detector output vetted by the view's ensemble: keep detections the
    soft vote calls object with confidence >= tau_conf (the label's score),
    NMS-deduplicated per image; the whole pool is one ``predict`` batch and
    one NMS.  The accepted rows of the pool's detection columns, image by
    image in sorted id order (images without labels left out)."""
    check("tau_conf", tau_conf, float, **rule_of(CoTrainConfig, "tau_conf"))
    check("nms_iou", nms_iou, float, **rule_of(CoTrainConfig, "pseudo_nms_iou"))
    pool = _detect_view(view.profile, view.params, skill, unlabeled_records, seed)
    X = pool.features
    is_object, conf = view.ensemble.predict(X) if len(X) else (np.empty(0), np.empty(0))
    # the ensemble calls it an object, confidently enough
    cand = np.flatnonzero((is_object == 1) & (conf >= tau_conf))
    image = pool.image_index()[cand]
    if nms_iou >= view.params.nms_iou:
        # detect's NMS at the view's IoU left no same-label pair at or above
        # nms_iou, so NMS here would only sort each image by confidence
        keep = np.lexsort((-conf[cand], image))
    else:
        keep = nms_keep_groups(
            pool.boxes[cand], conf[cand], pool.labels[cand], image, nms_iou
        )
    rows = cand[keep]
    kept, counts = np.unique(image[keep], return_counts=True)
    return PseudoLabels(
        pool.boxes[rows], conf[rows], pool.labels[rows], pool.features[rows],
        tuple(pool.image_ids[k] for k in kept.tolist()),
        np.concatenate([[0], np.cumsum(counts)]), view.name, round_no,
    )


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


def _sizes(groups: Iterable[Mapping[str, PseudoLabels]]) -> tuple[int, ...]:
    """The number of labels in each of ``groups`` (per image id)."""
    return tuple(sum(len(g) for g in by_image.values()) for by_image in groups)


def _next_labels(
    state: CoTrainState,
    records_by_id: Mapping[str, ImageRecord],
    split: DatasetSplit,
) -> tuple[list[dict[str, PseudoLabels]], ...]:
    """The pseudo-label half of the round after ``state``'s, run by both
    ``exchange_round`` and a checkpoint's replay: both views generate from
    the state's last skills on that round's pool, and each view's accepted
    set takes the fresh labels of its source.  Returns, per view, the
    labels it produced grouped by image, and the accepted set it takes."""
    config = state.config
    round_no = state.round + 1
    fresh: list[dict[str, PseudoLabels]] = [{}, {}]
    if config.mode != "supervised":
        pool = _pool_records(records_by_id, split, config, round_no)
        fresh = [
            generate_pseudo_labels(
                v, skill, pool, config.tau_conf, config.pseudo_nms_iou, round_no,
                derive_seed(config.seed, "pool", v.name, round_no),
            ).by_image()
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
    val_records = [records_by_id[i] for i in split.val]
    val = _evaluate(retrained, tuple(skills), val_records, "val")
    record = RoundRecord(state.round + 1, *_maps(val), *_sizes(accepted), *precision)
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
    # replaced atomically: a write cut short leaves the previous round's
    # checkpoint in place, never a truncated one
    write_json(path, asdict(ck))


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
    doc = read_json(path)
    version = doc.get("checkpoint_version") if isinstance(doc, dict) else None
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"{path}: unsupported checkpoint_version {echo(version)} "
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
