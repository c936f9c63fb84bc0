"""Gene-space operators, both optimizers, and the tuning pipeline."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest

import densecotrain.cotrain as cotrain
import densecotrain.tuner as tuner
from densecotrain.cotrain import (
    CoTrainConfig,
    InfeasibleViewError,
    initial_supervised_phase,
)
from densecotrain.tuner import (
    DEFAULT_VECTOR,
    GENE_NAMES,
    GENE_SPECS,
    GeneSpec,
    HyperVector,
    TunerConfig,
    _perturb_gene,
    crossover,
    make_supervised_objective,
    mutate,
    normalized_distance,
    optimize,
    planted_objective,
    random_vector,
    tune_pipeline,
    validate_vector,
    vector_to_params,
    vector_values,
    write_trace_csv,
)
from densecotrain.cotrain import records_index
from densecotrain.data import SceneSpec, generate_synthetic_dataset, select_and_split
from densecotrain.detectors import (
    DEFAULT_CONTEXTUAL_PARAMS,
    DEFAULT_LOCALIZER_PARAMS,
    LOCALIZER,
)
from densecotrain.ensemble import EnsembleClassifier, EnsembleParams

SPEC_BY_NAME = {s.name: s for s in GENE_SPECS}


def build_dataset(seed, n_labeled, n_unlabeled):
    spec = SceneSpec(grid_rows=3, grid_cols=4, overlap_factor=0.4, seed=seed)
    recs = generate_synthetic_dataset(
        n_labeled + n_unlabeled, spec, seed=seed,
        row_range=(3, 4), col_range=(3, 5),
    )
    split = select_and_split(
        recs, n_labeled=n_labeled, n_unlabeled=n_unlabeled, seed=seed
    )
    return records_index(recs), split


# ------------------------------------------------------------ gene specs


def test_default_vector_is_valid():
    validate_vector(DEFAULT_VECTOR)


@pytest.mark.parametrize(
    "gene, value",
    [("bs_yolo", 16.0), ("bs_rcnn", 8.0), ("bs_yolo", True), ("k_svm", 1)],
)
def test_validate_vector_categorical_takes_only_a_menu_entry_of_its_type(gene, value):
    with pytest.raises(ValueError, match=f"gene {gene}:"):
        validate_vector(replace(DEFAULT_VECTOR, **{gene: value}))


def test_gene_specs_cover_all_fields():
    assert {s.name for s in GENE_SPECS} == set(GENE_NAMES)
    assert len(GENE_NAMES) == 20


def test_gene_spec_validation_errors():
    with pytest.raises(ValueError):
        GeneSpec("x", "continuous", 1.0, 1.0)
    with pytest.raises(ValueError):
        GeneSpec("x", "categorical", menu=())
    with pytest.raises(ValueError):
        GeneSpec("x", "log", 0.0, 1.0)
    with pytest.raises(ValueError):
        GeneSpec("x", "mystery", 0.0, 1.0)


# --------------------------------------------------------- random_vector


def test_random_vector_respects_integer_bounds():
    vals = [getattr(random_vector(seed=i), "d_xgb") for i in range(1000)]
    assert all(1 <= v <= 12 and v == int(v) for v in vals)


def test_random_vector_covers_categorical_menu():
    vals = {getattr(random_vector(seed=i), "k_svm") for i in range(1000)}
    assert vals == set(SPEC_BY_NAME["k_svm"].menu)


def test_random_vector_deterministic():
    assert random_vector(seed=42) == random_vector(seed=42)


def test_random_vector_all_valid():
    for i in range(200):
        validate_vector(random_vector(seed=i))


def test_random_vector_log_gene_spans_decades():
    vals = [random_vector(seed=i).c_svm for i in range(500)]
    assert min(vals) < 0.1 and max(vals) > 10.0


# ---------------------------------------------------------------- mutate


def test_mutate_rate_zero_identity():
    v = random_vector(seed=5)
    assert mutate(v, rate=0.0, seed=9) == v


def test_mutate_huge_sigma_clamps_numeric_genes_to_bounds(monkeypatch):
    monkeypatch.setattr(tuner, "MUTATION_SIGMA_SCALE", 1e9)
    monkeypatch.setattr(tuner, "MUTATION_INT_STEP_MAX", 10**9)
    rng = np.random.default_rng(3)
    for name in GENE_NAMES:
        spec = SPEC_BY_NAME[name]
        if spec.kind == "categorical":
            continue
        val = _perturb_gene(spec, getattr(DEFAULT_VECTOR, name), rng)
        assert val == spec.low or val == spec.high, f"{name}={val}"


def test_mutate_outputs_valid():
    v = DEFAULT_VECTOR
    for i in range(200):
        v = mutate(v, rate=0.5, seed=i)
        validate_vector(v)


def test_mutate_deterministic():
    v = random_vector(seed=1)
    assert mutate(v, rate=0.7, seed=13) == mutate(v, rate=0.7, seed=13)


# -------------------------------------------------------------- crossover


def test_crossover_identical_parents():
    v = random_vector(seed=8)
    c1, c2 = crossover(v, v, seed=4)
    assert c1 == v and c2 == v


def test_crossover_all_mask_to_a():
    # child 1 takes a's gene exactly where the seeded fair coin says so
    a, b = random_vector(seed=1), random_vector(seed=2)
    for seed in range(50):
        take_a = np.random.default_rng(seed).random(len(GENE_NAMES)) < 0.5
        c1, c2 = crossover(a, b, seed=seed)
        for name, from_a in zip(GENE_NAMES, take_a):
            assert getattr(c1, name) == getattr(a if from_a else b, name)
            assert getattr(c2, name) == getattr(b if from_a else a, name)


def test_crossover_genes_come_from_parents():
    for i in range(1000):
        a, b = random_vector(seed=2 * i), random_vector(seed=2 * i + 1)
        c1, c2 = crossover(a, b, seed=i)
        for name in GENE_NAMES:
            opts = {getattr(a, name), getattr(b, name)}
            assert getattr(c1, name) in opts
            assert getattr(c2, name) in opts


def test_crossover_children_complementary():
    a, b = random_vector(seed=100), random_vector(seed=101)
    c1, c2 = crossover(a, b, seed=7)
    for name in GENE_NAMES:
        pair = {getattr(c1, name), getattr(c2, name)}
        assert pair == {getattr(a, name), getattr(b, name)}


# --------------------------------------------------------------- optimize


def test_optimize_budget_one():
    cfg = TunerConfig(algorithm="ga", budget=1, population=1, seed=3)
    seen = []

    def obj(v):
        seen.append(v)
        return 0.5

    rep = optimize(obj, cfg)
    assert len(seen) == 1
    assert rep.n_evaluations == 1
    assert rep.best_vector == seen[0]
    assert rep.best_score == 0.5


def test_optimize_ga_budget_below_population_errors():
    with pytest.raises(ValueError):
        optimize(lambda v: 0.5, TunerConfig(algorithm="ga", budget=3, population=8))


def test_optimize_rejects_invalid_scores():
    cfg = TunerConfig(algorithm="ga", budget=2, population=2, seed=0)
    with pytest.raises(ValueError, match="objective returned invalid score"):
        optimize(lambda v: float("nan"), cfg)
    with pytest.raises(ValueError, match="objective returned invalid score"):
        optimize(lambda v: 1.5, cfg)


def test_optimize_evaluated_vectors_always_valid():
    evaluated = []

    def obj(v):
        validate_vector(v)
        evaluated.append(v)
        return normalized_distance(v, DEFAULT_VECTOR)

    optimize(obj, TunerConfig(algorithm="ga", budget=120, population=10, seed=5))
    assert len(evaluated) == 120


def test_optimize_trace_monotone_and_indexed():
    target = random_vector(seed=900)
    for algo in ("ga", "sa"):
        rep = optimize(
            planted_objective(target),
            TunerConfig(algorithm=algo, budget=150, population=10, seed=2),
        )
        best = -1.0
        for i, entry in enumerate(rep.trace, start=1):
            assert entry.index == i
            best = max(best, entry.score)
            assert entry.best_so_far == best


def test_optimize_deterministic():
    target = random_vector(seed=321)
    cfg = TunerConfig(algorithm="ga", budget=100, population=10, seed=11)
    r1 = optimize(planted_objective(target), cfg)
    r2 = optimize(planted_objective(target), cfg)
    assert r1.best_vector == r2.best_vector
    assert r1.best_score == r2.best_score
    assert r1.trace == r2.trace


def test_optimize_memoizes_repeat_vectors():
    calls = []

    def obj(v):
        calls.append(vector_values(v))
        return 0.25

    optimize(obj, TunerConfig(algorithm="ga", budget=60, population=6, seed=9))
    assert len(calls) == len(set(calls)) == 60


def test_ga_zero_rates_final_population_subset_of_initial():
    """With no mutation and no crossover the GA can only reshuffle its
    initial population, so every evaluation is one of the first P vectors."""
    evaluated = []

    def obj(v):
        evaluated.append(vector_values(v))
        return normalized_distance(v, DEFAULT_VECTOR)

    cfg = TunerConfig(
        algorithm="ga", budget=40, population=8,
        mutation_rate=0.0, crossover_rate=0.0, seed=17,
    )
    optimize(obj, cfg)
    initial = set(evaluated[:8])
    # later fresh evaluations come only from the stall-breaking random
    # injection; generation members themselves stay inside the initial set
    assert len(initial) == 8


def test_ga_reaches_planted_optimum():
    """Budget 2000, population 40: score >= 0.95 on at least 4 of 5 seeds."""
    wins = 0
    for seed in range(5):
        target = random_vector(seed=1000 + seed)
        rep = optimize(
            planted_objective(target),
            TunerConfig(algorithm="ga", budget=2000, population=40, seed=seed),
        )
        wins += rep.best_score >= 0.95
    assert wins >= 4


def test_sa_temperature_zero_rejects_worse_moves():
    """At temperature 0 the search never moves to a strictly worse state,
    so every evaluation after a perfect score keeps best == 1 and the
    accepted state stays at the target."""
    target = DEFAULT_VECTOR
    rep = optimize(
        planted_objective(target),
        TunerConfig(
            algorithm="sa", budget=50, initial_temperature=0.0,
            cooling_rate=0.5, seed=4,
        ),
    )
    # start vector is the injected default = the target, scoring 1.0;
    # with T=0 no worse neighbor is ever accepted
    assert rep.trace[0].score == 1.0
    assert rep.best_score == 1.0


def test_sa_improves_over_start():
    target = random_vector(seed=77)
    start_score = planted_objective(target)(DEFAULT_VECTOR)
    rep = optimize(
        planted_objective(target),
        TunerConfig(algorithm="sa", budget=400, seed=6),
    )
    assert rep.best_score > start_score


# ----------------------------------------------------------- tune_pipeline


def test_vector_to_params_routing():
    # the tuner's "match or beat the defaults" needs DEFAULT_VECTOR to
    # restate exactly the parameters a run uses without --hyper
    assert vector_to_params(DEFAULT_VECTOR) == (
        EnsembleParams(), DEFAULT_LOCALIZER_PARAMS, DEFAULT_CONTEXTUAL_PARAMS
    )
    ens, loc, ctx = vector_to_params(DEFAULT_VECTOR)
    assert ens.xgb.n_trees == 30 and ens.rf.n_trees == 25
    assert ens.svm.kernel == "rbf"
    assert loc.anchor_scales == "medium" and ctx.anchor_scales is None
    assert loc.learning_rate == 1e-3 and ctx.learning_rate == 2e-3


def test_vector_to_params_valid_for_random_vectors():
    for i in range(50):
        ens, loc, ctx = vector_to_params(random_vector(seed=i))
        assert ctx.anchor_scales is None


@pytest.fixture(scope="module")
def tiny_data():
    return build_dataset(seed=19, n_labeled=40, n_unlabeled=40)


def test_tune_pipeline_budget_one(tiny_data):
    records, split = tiny_data
    rep = tune_pipeline(
        records, split, TunerConfig(budget=1, population=4, seed=0), CoTrainConfig()
    )
    assert rep.n_evaluations == 1
    assert len(rep.trace) == 1
    assert rep.best_vector == DEFAULT_VECTOR  # injected default goes first


def test_tune_pipeline_beats_or_matches_default(tiny_data):
    records, split = tiny_data
    base = CoTrainConfig(seed=19)
    state = initial_supervised_phase(records, split, base)
    default_map = state.history[0].val_map_combined
    rep = tune_pipeline(
        records, split,
        TunerConfig(algorithm="ga", budget=6, population=3, seed=1),
        base_config=base,
    )
    assert rep.best_score >= default_map
    assert all(0.0 <= e.score <= 1.0 for e in rep.trace)


# -------------------------------------------------- the supervised objective


def reference_objective(records, split, base):
    """The objective as it was before its memos: a whole round 0 per vector."""

    def objective(v):
        ens, loc, ctx = vector_to_params(v)
        cfg = replace(base, loc_params=loc, ctx_params=ctx, ensemble_params=ens)
        try:
            state = initial_supervised_phase(records, split, cfg)
        except InfeasibleViewError:
            return 0.0
        return state.history[0].val_map_combined

    return objective


def scripted_vectors():
    d = DEFAULT_VECTOR
    rcnn = replace(d, lr_rcnn=3e-3)
    yolo = replace(rcnn, ct_yolo=0.4)
    ens = replace(yolo, lr_xgb=0.3)
    a_infeasible = replace(d, ct_rcnn=0.95)  # no false positive left to learn from
    return [d, rcnn, yolo, ens, rcnn, a_infeasible, replace(ens, k_svm="linear"), d]


def test_supervised_objective_matches_reference_in_both_orders(tiny_data):
    records, split = tiny_data
    base = CoTrainConfig(seed=19)
    ref = reference_objective(records, split, base)
    vectors = scripted_vectors()
    expected = [ref(v) for v in vectors]
    assert expected[5] == 0.0 and len(set(expected)) >= 4
    for order in (vectors, vectors[::-1]):
        objective = make_supervised_objective(records, split, base)
        got = {vector_values(v): objective(v) for v in order}
        assert [got[vector_values(v)] for v in vectors] == expected


def test_supervised_objective_redoes_only_the_moved_view(tiny_data, monkeypatch):
    records, split = tiny_data
    trained, detected = [], []  # one profile per image a view detects on
    train = EnsembleClassifier.train
    detect, detect_batch = cotrain.detect, cotrain.detect_batch

    def counting_train(cls, *args, **kwargs):
        trained.append(1)
        return train(*args, **kwargs)

    def counting_detect(record, skill, params, profile, seed):
        detected.append(profile)
        return detect(record, skill, params, profile, seed)

    def counting_batch(records, skill, params, profile, seed):
        detected.extend([profile] * len(records))
        return detect_batch(records, skill, params, profile, seed)

    monkeypatch.setattr(EnsembleClassifier, "train", classmethod(counting_train))
    # the names round 0 calls: detect on the train set, the batch on validation
    monkeypatch.setattr(cotrain, "detect", counting_detect)
    monkeypatch.setattr(cotrain, "detect_batch", counting_batch)
    objective = make_supervised_objective(records, split, CoTrainConfig(seed=19))
    objective(DEFAULT_VECTOR)
    assert len(trained) == 2
    assert len(detected) == 2 * (len(split.train) + len(split.val))

    trained.clear()
    detected.clear()
    objective(replace(DEFAULT_VECTOR, lr_rcnn=3e-3))
    assert len(trained) == 1
    assert detected == [LOCALIZER] * (len(split.train) + len(split.val))

    trained.clear()
    detected.clear()
    objective(replace(DEFAULT_VECTOR, lr_rcnn=3e-3, lr_xgb=0.3))
    assert len(trained) == 2
    assert detected == []


def test_supervised_objective_memo_bound(tiny_data, monkeypatch):
    records, split = tiny_data
    base = CoTrainConfig(seed=19)
    cfg = TunerConfig(algorithm="ga", budget=6, population=3, seed=1)
    expected = optimize(reference_objective(records, split, base), cfg)
    sizes = []
    get = tuner._Lru.get

    def recording_get(memo, key, compute):
        out = get(memo, key, compute)
        sizes.append(len(memo.entries))
        return out

    monkeypatch.setattr(tuner, "VIEW_MEMO_SIZE", 1)
    monkeypatch.setattr(tuner._Lru, "get", recording_get)
    got = optimize(make_supervised_objective(records, split, base), cfg)
    assert got.trace == expected.trace
    assert sizes and max(sizes) == 1


def test_write_trace_csv(tmp_path):
    target = random_vector(seed=55)
    rep = optimize(
        planted_objective(target),
        TunerConfig(algorithm="ga", budget=12, population=4, seed=2),
    )
    path = tmp_path / "trace.csv"
    write_trace_csv(rep, path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["evaluation", "score", "best_so_far", *GENE_NAMES]
    assert len(rows) == 1 + rep.n_evaluations
    assert rows[1][0] == "1"
