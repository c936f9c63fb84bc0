"""Synthetic detector view tests: skill curve, detection, features,
retrain rule, and the two-profile complementarity contract."""

from __future__ import annotations

import functools
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densecotrain import geom
from densecotrain.cotrain import PseudoLabels, _detect_view
from densecotrain.data import ImageRecord, SceneSpec, generate_synthetic_scene
from densecotrain.detectors import (
    ANCHOR_MENU,
    BATCH_MENU,
    CONTEXTUAL,
    DEFAULT_CONTEXTUAL_PARAMS,
    DEFAULT_LOCALIZER_PARAMS,
    DEFAULT_SEPARATION,
    FEATURE_DIM,
    FP_SCORE_ALPHA,
    FP_SCORE_BETA,
    LOCALIZER,
    SCORE_BASE,
    SCORE_NOISE,
    SCORE_SLOPE,
    Detection,
    DetectorParams,
    PseudoLabelAudit,
    RetrainCoefficients,
    SkillModel,
    _difficulty,
    _fp_box,
    _place_features,
    audit_pseudo_labels,
    count_occluded,
    derive_seed,
    detect,
    detect_batch,
    detection_hash,
    retrain,
    size_regime,
    skill_from_params,
)
from densecotrain.geom import Box, GroundTruth, ScoredBox, iou
from densecotrain.metrics import match_detections


def test_params_validation():
    with pytest.raises(ValueError):
        DetectorParams(epochs=0)
    with pytest.raises(ValueError):
        DetectorParams(confidence_threshold=1.0)
    DetectorParams(confidence_threshold=0.0)  # closed left edge
    with pytest.raises(ValueError):
        DetectorParams(nms_iou=0.0)
    with pytest.raises(ValueError):
        DetectorParams(batch_size=7)
    with pytest.raises(ValueError):
        DetectorParams(learning_rate=0.0)
    with pytest.raises(ValueError):
        DetectorParams(anchor_scales="tiny")
    DetectorParams(anchor_scales="mixed")


def test_params_refuse_a_learning_rate_beyond_float_range():
    # math.isfinite raised a bare OverflowError on it
    with pytest.raises(
        ValueError, match="^learning_rate must be finite, got an int beyond float range$"
    ):
        DetectorParams(learning_rate=10**400)


def test_skill_reaches_ceiling_at_max_effort():
    for profile in (LOCALIZER, CONTEXTUAL):
        for bs in BATCH_MENU:
            p = DetectorParams(
                epochs=60, learning_rate=profile.lr_opt, batch_size=bs,
                anchor_scales="medium" if profile.anchor_aware else None,
            )
            s = skill_from_params(p, profile)
            assert profile.recall_ceiling - s.base_recall < 0.02
            assert s.base_recall <= profile.recall_ceiling


def test_skill_near_floor_at_min_effort():
    for profile in (LOCALIZER, CONTEXTUAL):
        p = DetectorParams(
            epochs=1, learning_rate=1e-5,
            anchor_scales="medium" if profile.anchor_aware else None,
        )
        s = skill_from_params(p, profile)
        assert s.base_recall - profile.recall_floor < 0.02


def test_skill_lr_knee_degrades():
    for profile in (LOCALIZER, CONTEXTUAL):
        at_opt = skill_from_params(
            DetectorParams(epochs=20, learning_rate=profile.lr_opt), profile
        )
        hot = skill_from_params(
            DetectorParams(epochs=20, learning_rate=profile.lr_opt * 30), profile
        )
        assert hot.base_recall < at_opt.base_recall


def test_skill_more_epochs_never_worse():
    prev = 0.0
    for ep in (1, 5, 10, 20, 40, 60):
        s = skill_from_params(DetectorParams(epochs=ep), LOCALIZER)
        assert s.base_recall >= prev
        prev = s.base_recall


def test_localizer_jitter_below_contextual():
    p = DetectorParams(epochs=20, learning_rate=1.5e-3)
    a = skill_from_params(p, LOCALIZER)
    b = skill_from_params(p, CONTEXTUAL)
    assert a.jitter_sigma < b.jitter_sigma
    assert a.occlusion_penalty > b.occlusion_penalty


def test_anchor_match_sharpens_localizer():
    base = dict(epochs=20, learning_rate=1e-3)
    matched = skill_from_params(
        DetectorParams(anchor_scales="medium", **base), LOCALIZER, "medium"
    )
    mixed = skill_from_params(
        DetectorParams(anchor_scales="mixed", **base), LOCALIZER, "medium"
    )
    off = skill_from_params(
        DetectorParams(anchor_scales="small", **base), LOCALIZER, "medium"
    )
    assert matched.jitter_sigma < mixed.jitter_sigma < off.jitter_sigma
    # contextual profile ignores anchors
    c1 = skill_from_params(DetectorParams(**base), CONTEXTUAL, "medium")
    c2 = skill_from_params(DetectorParams(**base), CONTEXTUAL, "large")
    assert c1 == c2


def test_effective_recall_clamps():
    s = SkillModel(0.8, 0.9, 1.0, 0.5)
    assert s.effective_recall(0.0) == 0.8
    assert s.effective_recall(0.5) == pytest.approx(0.35)
    assert s.effective_recall(2.0) == 0.0


def test_size_regime():
    small = generate_synthetic_scene(SceneSpec(2, 2, box_w=16, box_h=16, seed=1))
    med = generate_synthetic_scene(SceneSpec(2, 2, box_w=48, box_h=64, seed=1))
    large = generate_synthetic_scene(SceneSpec(2, 2, box_w=120, box_h=150, seed=1))
    assert size_regime([small]) == "small"
    assert size_regime([med]) == "medium"
    assert size_regime([large]) == "large"
    assert size_regime([]) == "medium"


def _scene(seed, overlap=0.4, rows=4, cols=5, jitter=2.0):
    return generate_synthetic_scene(
        SceneSpec(rows, cols, jitter=jitter, overlap_factor=overlap, seed=seed),
        image_id=f"sc-{overlap}-{seed}",
    )


def _columns(dets):
    """A batch's columns as bytes, dtypes included: equal iff bit-identical."""
    return [
        (a.dtype.str, a.shape, a.tobytes())
        for a in (dets.boxes, dets.scores, dets.labels, dets.features)
    ]


def test_detect_noiseless_limit():
    rec = _scene(3, overlap=0.4)
    skill = SkillModel(1.0, 0.0, 0.0, 0.0)
    params = DetectorParams(confidence_threshold=0.0, nms_iou=0.5)
    dets = detect(rec, skill, params, LOCALIZER, seed=1)
    assert len(dets) == len(rec.gts)
    got = sorted(d.scored.box.as_tuple() for d in dets)
    want = sorted(g.box.as_tuple() for g in rec.gts)
    assert got == want


def test_detect_ct_dominates():
    rec = _scene(4)
    skill = SkillModel(0.0, 0.0, 0.0, 3.0)  # only false positives
    params = DetectorParams(confidence_threshold=0.99)
    dets = detect(rec, skill, params, CONTEXTUAL, seed=7)
    assert len(dets) == 0


def test_detect_scores_respect_ct():
    rng = np.random.default_rng(0)
    for trial in range(10):
        ct = float(rng.uniform(0.1, 0.9))
        rec = _scene(trial)
        skill = SkillModel(0.9, 0.3, 3.0, 2.0)
        dets = detect(
            rec, skill, DetectorParams(confidence_threshold=ct), LOCALIZER, seed=trial
        )
        for d in dets:
            assert d.scored.score >= ct


def test_detect_respects_nms_threshold():
    rec = _scene(5, overlap=0.6, jitter=4.0)
    skill = SkillModel(0.95, 0.1, 5.0, 3.0)
    for thr in (0.3, 0.5, 0.7):
        dets = detect(
            rec, skill, DetectorParams(confidence_threshold=0.05, nms_iou=thr),
            CONTEXTUAL, seed=2,
        )
        rows = list(dets)
        for i, a in enumerate(rows):
            for b in rows[i + 1:]:
                if a.scored.label == b.scored.label:
                    assert iou(a.scored.box, b.scored.box) < thr


def test_detect_binomial_count():
    # recall 0.8, no jitter, no FPs, 1000 boxes aggregated: 99% interval
    skill = SkillModel(0.8, 0.0, 0.0, 0.0)
    params = DetectorParams(confidence_threshold=0.0)
    total_boxes = 0
    total_dets = 0
    for s in range(50):
        rec = _scene(s, overlap=0.0, rows=4, cols=5, jitter=0.0)
        total_boxes += len(rec.gts)
        total_dets += len(detect(rec, skill, params, LOCALIZER, seed=s))
    assert total_boxes == 1000
    assert 760 <= total_dets <= 840


def test_detect_deterministic():
    rec = _scene(9)
    skill = skill_from_params(DEFAULT_LOCALIZER_PARAMS, LOCALIZER)
    a = detect(rec, skill, DEFAULT_LOCALIZER_PARAMS, LOCALIZER, seed=11)
    b = detect(rec, skill, DEFAULT_LOCALIZER_PARAMS, LOCALIZER, seed=11)
    assert len(a) > 0
    assert _columns(a) == _columns(b)
    c = detect(rec, skill, DEFAULT_LOCALIZER_PARAMS, LOCALIZER, seed=12)
    assert _columns(a) != _columns(c)  # jitter/noise differ even though found boxes persist


def test_detect_found_set_persists_across_seeds():
    # which GTs are emitted is a property of (profile, image, skill), not
    # of the seed; zero jitter makes emission observable via exact boxes
    rec = _scene(13)
    ctx = skill_from_params(DEFAULT_CONTEXTUAL_PARAMS, CONTEXTUAL)
    skill = SkillModel(ctx.base_recall, ctx.occlusion_penalty, 0.0, 1.5)
    params = DetectorParams(confidence_threshold=0.0, nms_iou=0.9)

    def found(seed):
        dets = detect(rec, skill, params, CONTEXTUAL, seed=seed)
        mr = match_detections([d.scored for d in dets], list(rec.gts), 0.99)
        return frozenset(j for j in mr.det_matched_gt if j is not None)

    sets = {found(s) for s in range(1, 6)}
    assert len(sets) == 1
    assert 0 < len(next(iter(sets))) < len(rec.gts)


def test_detect_features_shape():
    rec = _scene(1)
    skill = SkillModel(1.0, 0.0, 1.0, 1.0)
    dets = detect(rec, skill, DetectorParams(confidence_threshold=0.0), LOCALIZER, 5)
    for d in dets:
        assert len(d.features) == FEATURE_DIM
        assert all(math.isfinite(v) for v in d.features)


def test_detect_output_holds_no_numpy_scalars():
    rec = _scene(7, overlap=0.4)
    for profile, params in (
        (LOCALIZER, DEFAULT_LOCALIZER_PARAMS), (CONTEXTUAL, DEFAULT_CONTEXTUAL_PARAMS)
    ):
        dets = detect(rec, skill_from_params(params, profile), params, profile, 3)
        assert dets
        for d in dets:
            sb = d.scored
            for v in (*sb.box.as_tuple(), sb.score, sb.label, *d.features):
                assert not isinstance(v, np.generic), (profile.name, v)
            assert type(sb.label) is int


# ------------------------------------------ column batch vs scalar reference


def _emit_features_reference(profile, rng, quality):
    """The scalar feature draw: 16 normals, placed and rotated one by one."""
    x = rng.standard_normal(FEATURE_DIM)
    x[0] += DEFAULT_SEPARATION * min(max(quality, 0.0), 1.0)
    c, s = math.cos(profile.feature_rotation), math.sin(profile.feature_rotation)
    x0, x1 = x[0], x[1]
    x[0] = c * x0 - s * x1
    x[1] = s * x0 + c * x1
    return tuple(float(v) for v in x)


def _nms_reference(dets, iou_threshold):
    order = sorted(range(len(dets)), key=lambda i: -dets[i].score)
    kept = []
    for i in order:
        d = dets[i]
        if all(k.label != d.label or iou(k.box, d.box) < iou_threshold for k in kept):
            kept.append(d)
    return kept


def _detect_reference(record, skill, params, profile, seed, dropped=None):
    """The scalar ``detect`` the column batch replaced: one object per
    detection, one generator call per draw and one hash per GT.
    ``dropped`` collects, for each emitted GT in order, whether jitter made
    its box degenerate."""
    rng = np.random.default_rng(derive_seed("detect", profile.name, seed, record.image_id))
    raw = []
    for i, g in enumerate(record.gts):
        occ = record.occlusion[i]
        eff = min(max(skill.base_recall - skill.occlusion_penalty * occ, 0.0), 1.0)
        if detection_hash(profile.name, record.image_id, i) >= eff:
            continue
        if skill.jitter_sigma > 0:
            dx1, dy1, dx2, dy2 = rng.normal(0.0, skill.jitter_sigma, 4).tolist()
        else:
            dx1 = dy1 = dx2 = dy2 = 0.0
        x1 = min(max(g.box.x1 + dx1, 0.0), record.width)
        y1 = min(max(g.box.y1 + dy1, 0.0), record.height)
        x2 = min(max(g.box.x2 + dx2, 0.0), record.width)
        y2 = min(max(g.box.y2 + dy2, 0.0), record.height)
        if dropped is not None:
            dropped.append(x2 <= x1 or y2 <= y1)
        if x2 <= x1 or y2 <= y1:
            continue
        box = Box(x1, y1, x2, y2)
        q = iou(box, g.box)
        score = SCORE_BASE + SCORE_SLOPE * q + rng.normal(0.0, SCORE_NOISE)
        score = min(max(score, 0.0), 1.0)
        feats = _emit_features_reference(profile, rng, q)
        raw.append(Detection(ScoredBox(box, score, g.label), feats))
    if skill.fp_rate > 0:
        if record.gts:
            mean_w = float(np.mean([g.box.width for g in record.gts]))
            mean_h = float(np.mean([g.box.height for g in record.gts]))
        else:
            mean_w, mean_h = record.width / 8.0, record.height / 8.0
        for _ in range(rng.poisson(skill.fp_rate)):
            fb = _fp_box(rng, record, mean_w, mean_h)
            if fb is None:
                continue
            score = float(rng.beta(FP_SCORE_ALPHA, FP_SCORE_BETA))
            feats = _emit_features_reference(profile, rng, 0.0)
            raw.append(Detection(ScoredBox(Box(*fb), score, 0), feats))
    kept_scored = _nms_reference(
        [d.scored for d in raw if d.scored.score >= params.confidence_threshold],
        params.nms_iou,
    )
    by_id = {id(d.scored): d for d in raw}
    return [by_id[id(sb)] for sb in kept_scored]


def _assert_batch_equals_reference(batch, ref):
    """Same rows in the same order, every value bit for bit."""
    assert len(batch) == len(ref)
    assert batch.boxes.shape == (len(ref), 4)
    assert batch.features.shape == (len(ref), FEATURE_DIM)
    assert batch.labels.dtype.kind == "i"
    want = [
        np.array([d.scored.box.as_tuple() for d in ref], dtype=float).reshape(-1, 4),
        np.array([d.scored.score for d in ref], dtype=float),
        np.array([d.scored.label for d in ref], dtype=np.int64),
        np.array([d.features for d in ref], dtype=float).reshape(-1, FEATURE_DIM),
    ]
    got = [batch.boxes, batch.scores, batch.labels, batch.features]
    for name, g, w in zip(("boxes", "scores", "labels", "features"), got, want):
        assert g.tobytes() == w.tobytes(), name


def _small_record(draw, tag):
    """An image without GTs or a small synthetic scene of up to 20 GTs."""
    seed = draw(st.integers(0, 2**32 - 1))
    rows = draw(st.integers(0, 4))
    if rows == 0:
        return ImageRecord(f"{tag}-empty-{seed}", draw(st.integers(8, 300)), 150, ())
    spec = SceneSpec(
        rows, draw(st.integers(1, 5)),
        jitter=draw(st.sampled_from((0.0, 2.0))),
        overlap_factor=draw(st.sampled_from((0.0, 0.4, 0.6))), seed=seed,
    )
    return generate_synthetic_scene(spec, image_id=f"{tag}-{seed}")


def _view(draw):
    """A view: recall, jitter from none through large enough to make boxes
    degenerate, FP rate and CT both possibly 0, either profile, a seed."""
    sigma = draw(st.one_of(
        st.just(0.0), st.floats(0.05, 8.0), st.floats(20.0, 90.0),
    ))
    skill = SkillModel(
        draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0)), sigma,
        draw(st.one_of(st.just(0.0), st.floats(0.05, 4.0))),
    )
    params = DetectorParams(
        confidence_threshold=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.9))),
        nms_iou=draw(st.floats(0.05, 0.95)),
    )
    profile = draw(st.sampled_from((LOCALIZER, CONTEXTUAL)))
    return skill, params, profile, draw(st.integers(0, 2**31))


@st.composite
def _detect_cases(draw):
    """An image (possibly without GTs) and a view."""
    return (_small_record(draw, "hyp"), *_view(draw))


@functools.lru_cache(maxsize=None)
def _dense_scene(seed):
    """A 10 x 15 grid at overlap 0.4: 150 GTs."""
    return generate_synthetic_scene(
        SceneSpec(10, 15, overlap_factor=0.4, seed=seed), image_id=f"dense-{seed}"
    )


@st.composite
def _record_sets(draw):
    """One to six images with distinct ids, in any order (images without
    GTs and small scenes, at most one dense 150-GT scene among them), and
    a view."""
    records = [_small_record(draw, f"set{k}") for k in range(draw(st.integers(1, 5)))]
    if draw(st.booleans()):
        at = draw(st.integers(0, len(records)))
        records.insert(at, _dense_scene(draw(st.integers(0, 3))))
    return records, *_view(draw)


def _rows_of(batch, k):
    """Image k's rows of ``batch``, sliced at its offsets."""
    r = slice(int(batch.offsets[k]), int(batch.offsets[k + 1]))
    return type(batch)(
        batch.boxes[r], batch.scores[r], batch.labels[r], batch.features[r],
        batch.image_ids[k:k + 1], np.array([0, r.stop - r.start]),
    )


@settings(max_examples=300, deadline=None)
@given(_detect_cases())
def test_detect_batch_equals_scalar_reference(case):
    _assert_batch_equals_reference(detect(*case), _detect_reference(*case))


@settings(max_examples=60, deadline=None)
@given(_record_sets())
def test_detect_batch_rows_equal_scalar_reference_per_image(case):
    records, *view = case
    batch = detect_batch(records, *view)
    offsets = batch.offsets
    assert batch.image_ids == tuple(r.image_id for r in records)
    assert offsets.tolist()[0] == 0 and offsets.tolist()[-1] == len(batch)
    assert np.all(np.diff(offsets) >= 0) and len(offsets) == len(records) + 1
    # by_image gives each image's rows, as one-image batches equal to a slice
    groups = batch.by_image()
    assert list(groups) == list(batch.image_ids)
    for k, rec in enumerate(records):
        assert groups[rec.image_id] == _rows_of(batch, k)
        _assert_batch_equals_reference(
            groups[rec.image_id], _detect_reference(rec, *view)
        )


def test_detect_batch_dense_image_among_small_ones():
    """A 150-GT image among small ones and an image without GTs, with and
    without false positives, at CT 0, jitter 0 and jitter that drops
    boxes: every image's rows equal the scalar reference, and a padded
    NMS block exceeds ``NMS_BLOCK`` entries only when it holds one image."""
    small = [_scene(s, overlap=0.6, rows=3, cols=4) for s in range(6)]
    records = [*small[:3], _dense_scene(0), ImageRecord("no-gts", 90, 60, ()), *small[3:]]
    shapes = []
    greedy = geom._greedy_removed

    def recording(ranked, *args):
        shapes.append(ranked.shape)
        return greedy(ranked, *args)

    for skill in (SkillModel(0.9, 0.3, 0.0, 2.0), SkillModel(0.95, 0.1, 45.0, 0.0)):
        for profile in (LOCALIZER, CONTEXTUAL):
            params = DetectorParams(confidence_threshold=0.0, nms_iou=0.5)
            with mock.patch.object(geom, "_greedy_removed", recording):
                batch = detect_batch(records, skill, params, profile, 4)
            for k, rec in enumerate(records):
                _assert_batch_equals_reference(
                    _rows_of(batch, k),
                    _detect_reference(rec, skill, params, profile, 4),
                )
    assert shapes and max(n for _, n, _ in shapes) >= 100  # the dense image's block
    assert all(c == 1 or c * n * n <= geom.NMS_BLOCK for c, n, _ in shapes)


@settings(max_examples=40, deadline=None)
@given(_record_sets())
def test_detect_view_equals_per_record_detect(case):
    """``_detect_view``: one batch, images in sorted id order, each one's
    rows, offsets and feature rows as a one-image ``detect`` gives them."""
    records, skill, params, profile, seed = case
    batch = _detect_view(profile, params, skill, records[::-1], seed)
    by_id = {r.image_id: r for r in records}
    assert batch.image_ids == tuple(sorted(by_id))
    end = 0
    for k, img in enumerate(batch.image_ids):
        got, want = _rows_of(batch, k), detect(by_id[img], skill, params, profile, seed)
        assert _columns(got) == _columns(want) and got == want
        assert batch.offsets[k:k + 2].tolist() == [end, end + len(want)]
        end += len(want)
    assert batch.features.shape == (end, FEATURE_DIM)


def test_detections_compare_by_value():
    records = [_scene(s, overlap=0.4) for s in (3, 4)]
    view = (skill_from_params(DEFAULT_LOCALIZER_PARAMS, LOCALIZER),
            DEFAULT_LOCALIZER_PARAMS, LOCALIZER, 7)
    batch = detect_batch(records, *view)
    assert 0 < batch.offsets[1] < len(batch)  # both images have rows
    assert batch == detect_batch(records, *view)
    assert replace(batch, scores=batch.scores.copy()) == batch
    changed = batch.scores.copy()
    changed[-1] = np.nextafter(changed[-1], 2.0)
    assert replace(batch, scores=changed) != batch
    assert replace(batch, image_ids=batch.image_ids[::-1]) != batch
    assert replace(batch, offsets=np.array([0, 0, len(batch)])) != batch
    assert batch.by_image() == {r.image_id: detect(r, *view) for r in records}


def test_detect_batch_handles_degenerate_boxes_like_reference():
    """Seeds where large jitter drops several emitted GTs of one image, one
    of them the last: its unused draws must not shift the false positives
    drawn after it."""
    rec = _scene(21, overlap=0.4, rows=3, cols=3)
    skill = SkillModel(0.9, 0.0, 45.0, 3.0)
    params = DetectorParams(confidence_threshold=0.0, nms_iou=0.95)
    hits = 0
    for seed in range(200):
        for profile in (LOCALIZER, CONTEXTUAL):
            dropped = []
            ref = _detect_reference(rec, skill, params, profile, seed, dropped)
            _assert_batch_equals_reference(detect(rec, skill, params, profile, seed), ref)
            hits += sum(dropped) >= 2 and dropped[-1]
    assert hits >= 5


def test_detect_sigma_zero_and_ct_zero_match_reference():
    rec = _scene(8, overlap=0.4)
    for profile in (LOCALIZER, CONTEXTUAL):
        for fp_rate in (0.0, 2.0):
            skill = SkillModel(0.8, 0.5, 0.0, fp_rate)
            params = DetectorParams(confidence_threshold=0.0, nms_iou=0.5)
            for seed in range(5):
                args = (rec, skill, params, profile, seed)
                _assert_batch_equals_reference(detect(*args), _detect_reference(*args))


def test_difficulty_is_memoised_and_read_only():
    rec = _scene(6)
    a = _difficulty(LOCALIZER.name, rec.image_id, len(rec.gts))
    assert a.tolist() == [
        detection_hash(LOCALIZER.name, rec.image_id, i) for i in range(len(rec.gts))
    ]
    assert _difficulty(LOCALIZER.name, rec.image_id, len(rec.gts)) is a
    with pytest.raises(ValueError):
        a[0] = 0.0


def test_detection_validates_feature_length():
    sb = ScoredBox(Box(0, 0, 1, 1), 0.5)
    with pytest.raises(ValueError):
        Detection(sb, (0.0,) * 5)
    with pytest.raises(ValueError):
        Detection(sb, (math.nan,) * FEATURE_DIM)


def emit_features(profile, rng, quality):
    """One detection's feature vector as a detection draws it: 16 normals
    from ``rng``, placed by the view's rule."""
    x = _place_features(profile, rng.standard_normal((1, FEATURE_DIM)), quality)
    return tuple(x[0].tolist())


def test_emit_features_deterministic_by_seed():
    def draw(seed):
        return emit_features(LOCALIZER, np.random.default_rng(seed), 1.0)

    assert draw(42) == draw(42)
    assert draw(42) != draw(43)


def _feature_sample(profile, quality, n, seed):
    rng = np.random.default_rng(seed)
    return np.array([emit_features(profile, rng, quality) for _ in range(n)])


def test_emit_features_zero_separation_no_signal():
    # a quality-0 draw (background) is the profile's rotation of a plain
    # standard normal draw from the same generator, bit for bit
    for profile in (LOCALIZER, CONTEXTUAL):
        c = math.cos(profile.feature_rotation)
        s = math.sin(profile.feature_rotation)
        for seed in range(20):
            x = np.random.default_rng(seed).standard_normal(FEATURE_DIM)
            x[0], x[1] = c * x[0] - s * x[1], s * x[0] + c * x[1]
            got = emit_features(profile, np.random.default_rng(seed), 0.0)
            assert got == tuple(float(v) for v in x)


def test_emit_features_midpoint_separation():
    # unit-variance classes DEFAULT_SEPARATION apart: the midpoint rule on
    # coordinate 0 is right with probability Phi(separation / 2); with
    # 5000 draws per class its standard error is about 0.0015
    obj = _feature_sample(LOCALIZER, 1.0, 5000, 3)
    bg = _feature_sample(LOCALIZER, 0.0, 5000, 4)
    thr = DEFAULT_SEPARATION / 2
    acc = ((obj[:, 0] > thr).mean() + (bg[:, 0] <= thr).mean()) / 2
    expected = 0.5 * (1.0 + math.erf(thr / math.sqrt(2.0)))
    assert abs(acc - expected) < 0.01


def test_emit_features_two_view_property():
    # a linear rule fit on view A transfers to view B worse than to A,
    # but still above chance
    tr_obj = _feature_sample(LOCALIZER, 1.0, 3000, 5)
    tr_bg = _feature_sample(LOCALIZER, 0.0, 3000, 6)
    w = tr_obj.mean(axis=0) - tr_bg.mean(axis=0)
    mid = (tr_obj.mean(axis=0) + tr_bg.mean(axis=0)) / 2

    def acc(obj, bg):
        return (
            ((obj - mid) @ w > 0).mean() + ((bg - mid) @ w <= 0).mean()
        ) / 2

    te_obj_a = _feature_sample(LOCALIZER, 1.0, 3000, 7)
    te_bg_a = _feature_sample(LOCALIZER, 0.0, 3000, 8)
    te_obj_b = _feature_sample(CONTEXTUAL, 1.0, 3000, 9)
    te_bg_b = _feature_sample(CONTEXTUAL, 0.0, 3000, 10)
    within = acc(te_obj_a, te_bg_a)
    cross = acc(te_obj_b, te_bg_b)
    assert cross < within - 0.01
    assert cross > 0.55
    assert within > 0.9


def test_profile_contract_dense_vs_sparse():
    """Contextual wins recall on occluded scenes; localizer wins matched
    IoU on sparse scenes (>= 20 seeds each)."""
    loc_skill = skill_from_params(DEFAULT_LOCALIZER_PARAMS, LOCALIZER, "medium")
    ctx_skill = skill_from_params(DEFAULT_CONTEXTUAL_PARAMS, CONTEXTUAL, "medium")

    def run(rec, skill, params, profile, seed):
        dets = detect(rec, skill, params, profile, seed=seed)
        mr = match_detections([d.scored for d in dets], list(rec.gts), 0.5)
        matched = sum(mr.gt_matched)
        ious = [v for v, tp in zip(mr.det_match_iou, mr.det_is_tp) if tp]
        return matched, len(rec.gts), ious

    loc_rec = ctx_rec = 0
    loc_tot = ctx_tot = 0
    for s in range(20):
        rec = _scene(s, overlap=0.4)
        m, n, _ = run(rec, loc_skill, DEFAULT_LOCALIZER_PARAMS, LOCALIZER, s)
        loc_rec += m
        loc_tot += n
        m, n, _ = run(rec, ctx_skill, DEFAULT_CONTEXTUAL_PARAMS, CONTEXTUAL, s)
        ctx_rec += m
        ctx_tot += n
    assert ctx_rec / ctx_tot > loc_rec / loc_tot

    loc_ious = []
    ctx_ious = []
    for s in range(20):
        rec = _scene(s + 100, overlap=0.0)
        _, _, ii = run(rec, loc_skill, DEFAULT_LOCALIZER_PARAMS, LOCALIZER, s)
        loc_ious += ii
        _, _, ii = run(rec, ctx_skill, DEFAULT_CONTEXTUAL_PARAMS, CONTEXTUAL, s)
        ctx_ious += ii
    assert np.mean(loc_ious) > np.mean(ctx_ious)


def _audit_fixture():
    rec = _scene(50, overlap=0.4)
    skill = SkillModel(0.6, 0.5, 1.0, 0.0)
    labels = [ScoredBox(g.box, 0.9, g.label) for g in list(rec.gts)[:8]]
    labels.append(ScoredBox(Box(0.5, 0.5, 3.5, 3.5), 0.85))  # matches nothing
    return rec, skill, labels


def test_audit_counts():
    rec, skill, labels = _audit_fixture()
    audits = audit_pseudo_labels(
        {rec.image_id: labels, "empty": []}, {rec.image_id: rec}, LOCALIZER, skill
    )
    assert list(audits) == [rec.image_id]  # one audit per image with labels
    audit = sum(audits.values(), PseudoLabelAudit())
    assert audit.n_pseudo == 9
    assert audit.n_correct == 8
    assert audit.n_wrong == 1
    assert audit.n_precise == 8  # exact copies match at IoU 1.0
    # novelty agrees with a direct hash check
    expect_novel = 0
    for j in range(8):
        eff = skill.effective_recall(rec.occlusion[j])
        if detection_hash(LOCALIZER.name, rec.image_id, j) >= eff:
            expect_novel += 1
    assert audit.n_novel == expect_novel


def _audit_reference(pseudo_by_image, records_by_id, profile, skill):
    """The scalar audit: one hash and one effective recall per correct label."""
    out = {}
    for image_id, labels in pseudo_by_image.items():
        if not labels:
            continue
        rec = records_by_id[image_id]
        mr = match_detections(list(labels), list(rec.gts), 0.5)
        counts = [len(labels), 0, 0, 0, 0, 0]
        for is_tp, j, miou in zip(mr.det_is_tp, mr.det_matched_gt, mr.det_match_iou):
            if not is_tp:
                counts[2] += 1
                continue
            counts[1] += 1
            counts[5] += miou >= 0.75
            occ = rec.occlusion[j]
            eff = min(max(skill.base_recall - skill.occlusion_penalty * occ, 0.0), 1.0)
            if detection_hash(profile.name, image_id, j) >= eff:
                counts[3] += 1
                counts[4] += occ >= 0.15
        out[image_id] = PseudoLabelAudit(*counts)
    return out


def test_audit_matches_scalar_reference():
    # a detector's own output on its images, graded by either profile
    records = {}
    labels = {}
    for seed in range(12):
        rec = _scene(seed, overlap=0.4)
        records[rec.image_id] = rec
        skill = SkillModel(0.9, 0.3, 3.0, 1.0)
        labels[rec.image_id] = [d.scored for d in detect(
            rec, skill, DetectorParams(confidence_threshold=0.0), CONTEXTUAL, seed
        )]
    for profile in (LOCALIZER, CONTEXTUAL):
        for skill in (SkillModel(0.6, 0.5, 1.0, 0.0), SkillModel(0.95, 1.5, 1.0, 0.0)):
            got = audit_pseudo_labels(labels, records, profile, skill)
            assert got == _audit_reference(labels, records, profile, skill)
            assert sum(a.n_novel for a in got.values()) > 0


def _random_labels(rng, rec):
    """Accepted labels on ``rec``: jittered copies of some of its GTs (some
    with the other label) and boxes anywhere, with tied scores."""
    boxes = [g.box.as_tuple() for g in rec.gts if rng.random() < 0.7]
    boxes = np.array(boxes, dtype=float).reshape(-1, 4) + rng.normal(0, 2.0, (len(boxes), 4))
    xy = rng.uniform(0, 60, (int(rng.integers(0, 4)), 2))
    boxes = np.concatenate([boxes, np.concatenate([xy, xy + 12.0], axis=1)])
    boxes[:, 2:] = np.maximum(boxes[:, 2:], boxes[:, :2] + 1.0)
    return [
        ScoredBox(Box(*b), float(rng.choice([0.8, 0.9, 1.0])), int(rng.random() < 0.1))
        for b in boxes.tolist()
    ]


def _as_group(img, rows):
    """Scored boxes as one image's accepted column group."""
    return PseudoLabels(
        *geom.columns(rows), np.zeros((len(rows), FEATURE_DIM)),
        (img,), np.array([0, len(rows)]), "B", 1,
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_batched_audit_equals_per_image_reference(seed):
    """Random accepted sets over scenes and an image without GTs, given as
    scored boxes or as column groups: the one batched audit equals the
    per-image scalar reference and auditing each image on its own."""
    rng = np.random.default_rng(seed)
    recs = [_scene(int(s), overlap=0.4) for s in rng.choice(500, int(rng.integers(1, 6)), replace=False)]
    recs.append(ImageRecord("no-gts", 80, 80, ()))
    records = {r.image_id: r for r in recs}
    labels = {r.image_id: _random_labels(rng, r) for r in recs}
    groups = {img: _as_group(img, rows) for img, rows in labels.items()}
    skill = SkillModel(float(rng.uniform(0.3, 1.0)), float(rng.uniform(0, 1.5)), 1.0, 0.0)
    for profile in (LOCALIZER, CONTEXTUAL):
        want = _audit_reference(labels, records, profile, skill)
        assert audit_pseudo_labels(labels, records, profile, skill) == want
        assert audit_pseudo_labels(groups, records, profile, skill) == want
        alone = {}
        for img, rows in labels.items():
            alone.update(audit_pseudo_labels({img: rows}, records, profile, skill))
        assert alone == want


def test_audit_addition():
    a = PseudoLabelAudit(2, 1, 1, 1, 0, 1)
    b = PseudoLabelAudit(3, 3, 0, 2, 2, 1)
    c = a + b
    assert c == PseudoLabelAudit(5, 4, 1, 3, 2, 2)


def test_retrain_zero_pseudo_is_identity():
    base = SkillModel(0.7, 0.9, 1.5, 0.8)
    out = retrain(base, LOCALIZER, 1000, 600, PseudoLabelAudit())
    assert out == base


def test_retrain_requires_training_set():
    with pytest.raises(ValueError):
        retrain(SkillModel(0.5, 0.5, 1.0, 1.0), LOCALIZER, 0, 0, PseudoLabelAudit())


def test_retrain_correct_labels_never_hurt():
    base = SkillModel(0.6, 0.9, 1.5, 0.8)
    audit = PseudoLabelAudit(
        n_pseudo=500, n_correct=500, n_wrong=0,
        n_novel=300, n_novel_occluded=250, n_precise=400,
    )
    out = retrain(base, LOCALIZER, 1000, 600, audit)
    assert out.base_recall >= base.base_recall
    assert out.occlusion_penalty <= base.occlusion_penalty
    assert out.jitter_sigma <= base.jitter_sigma
    assert out.base_recall <= LOCALIZER.recall_ceiling


def test_retrain_wrong_labels_hurt_vs_clean():
    base = SkillModel(0.6, 0.9, 1.5, 0.8)
    clean = PseudoLabelAudit(1000, 1000, 0, 600, 500, 800)
    dirty = PseudoLabelAudit(1000, 500, 500, 300, 250, 400)
    out_clean = retrain(base, LOCALIZER, 1000, 600, clean)
    out_dirty = retrain(base, LOCALIZER, 1000, 600, dirty)
    assert out_dirty.base_recall < out_clean.base_recall
    assert out_dirty.jitter_sigma > out_clean.jitter_sigma


def test_retrain_monotone_in_novel_volume():
    base = SkillModel(0.55, 0.9, 1.5, 0.8)
    prev = 0.0
    for novel in (0, 100, 400, 900, 2000):
        audit = PseudoLabelAudit(
            n_pseudo=max(novel, 1), n_correct=max(novel, 1), n_wrong=0,
            n_novel=novel, n_novel_occluded=0, n_precise=0,
        )
        out = retrain(base, LOCALIZER, 1000, 600, audit)
        assert out.base_recall >= prev
        prev = out.base_recall
    assert prev > base.base_recall


def test_retrain_bounded_by_ceiling_and_positive_jitter():
    base = SkillModel(0.9, 0.9, 0.08, 0.8)
    audit = PseudoLabelAudit(10**6, 10**6, 0, 10**6, 10**6, 10**6)
    out = retrain(base, LOCALIZER, 10, 5, audit)
    assert out.base_recall <= LOCALIZER.recall_ceiling
    assert out.jitter_sigma >= RetrainCoefficients().min_jitter
    assert out.occlusion_penalty >= 0.0


def test_count_occluded():
    dense = _scene(1, overlap=0.4)
    sparse = generate_synthetic_scene(
        SceneSpec(3, 3, jitter=0.0, overlap_factor=0.0, seed=1)
    )
    assert count_occluded([dense]) == len(dense.gts)
    assert count_occluded([sparse]) == 0
