"""Metaheuristic search over the 20-gene hyperparameter vector that
configures both detector views and the three verification classifiers.

Each gene is declared once, on its ``HyperVector`` field, by ``gene``: its
kind, its bounds or menu, and the ``CoTrainConfig`` field it sets, as a
path such as ``ensemble_params.xgb.max_depth``.  The bounds or menu are
the field's ``codec.rule``, so a vector out of range is refused when it
is built (``d_xgb must be in [1, 12], got 13``; a vector file names the
path, ``vector.genes.d_xgb``).  ``GENE_SPECS`` is read from the fields,
``DEFAULT_VECTOR`` from ``CoTrainConfig()`` along the paths, and
``vector_to_params`` routes each gene along its path.

Two optimizers ship behind one interface: a genetic algorithm
(tournament selection, elitism, uniform crossover) and simulated
annealing (single-gene moves, Metropolis acceptance, geometric cooling).
The default configuration vector is always injected, so tuning can only
match or beat the defaults.  Objective scores are memoized by vector, and
only fresh evaluations consume budget.  Asking for an unseen vector once
the budget is spent ends the search wherever it stands, and the report
holds every evaluation made.

The pipeline objective (``make_supervised_objective``) scores a vector by
round 0 of co-training under it, and reuses each view's and each ensemble
member's share of that work when its inputs repeat.  View A reads only
the ``*_rcnn`` genes, view B only the ``*_yolo`` genes, and each of the
nine ensemble genes only its member's params block, so an SA move, which
changes one gene, leaves most of the previous evaluation valid.  The
reuse is exact, because the seed, the ensemble training cap and the
records come from the fixed base config and split, and each member's seed
from the view's seed alone, so the memo keys are the only inputs that
vary.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache, reduce
from pathlib import Path
from typing import Callable, Mapping, get_type_hints

import numpy as np

from .codec import Checked, rule, write_text
from .cotrain import (
    CoTrainConfig,
    InfeasibleViewError,
    RoundZeroData,
    merge_views,
    rescore,
    round_zero_data,
    view_specs,
)
from .data import DatasetSplit, ImageRecord
from .detectors import ANCHOR_MENU, BATCH_MENU, DetectorParams, derive_seed
from .ensemble import (
    MEMBER_TRAINERS,
    SVM_KERNELS,
    EnsembleParams,
    member_seeds,
    soft_vote,
)
from .metrics import mean_average_precision

ALGORITHMS = ("ga", "sa")
# one gene move, for GA mutation and SA steps alike: a Gaussian step of this
# share of a numeric gene's range, or an integer step of 1 up to this many
MUTATION_SIGMA_SCALE = 0.1
MUTATION_INT_STEP_MAX = 3
# entries per view in each memo of the supervised objective; SA moves only
# from its current vector, so a few recent ones cover its revisits
VIEW_MEMO_SIZE = 4


@dataclass(frozen=True)
class GeneSpec(Checked):
    """One gene of the search space: its kind, its bounds or menu, and the
    ``CoTrainConfig`` field it sets, as a dotted path."""

    name: str
    kind: str = rule(menu=("continuous", "log", "integer", "categorical"))
    path: str
    low: float | None = None
    high: float | None = None
    menu: tuple = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.kind == "categorical":
            if not self.menu:
                raise ValueError(f"gene {self.name}: categorical menu is empty")
        elif self.low is None or self.high is None or not (self.low < self.high):
            raise ValueError(f"gene {self.name}: needs low < high bounds")
        elif self.kind == "log" and self.low <= 0:
            raise ValueError(f"gene {self.name}: log bounds must be positive")


def gene(kind: str, path: str, low=None, high=None, menu=()):
    """A ``HyperVector`` field: a gene of ``kind`` in [``low``, ``high``] or
    one of ``menu``, which sets the ``CoTrainConfig`` field at ``path``.
    The range is the field's rule, so a vector is checked when built."""
    bounds = dict(menu=menu) if kind == "categorical" else dict(ge=low, le=high)
    return rule(**bounds, kind=kind, path=path)


@dataclass(frozen=True)
class HyperVector(Checked):
    """The 20 tunable cells: boosted-trees, random-forest, and SVM blocks,
    then the single-stage and anchor-based detector blocks.  Each field is
    one gene, declared once with ``gene``."""

    lr_xgb: float = gene("continuous", "ensemble_params.xgb.learning_rate", 0.01, 0.5)
    d_xgb: int = gene("integer", "ensemble_params.xgb.max_depth", 1, 12)
    rc_xgb: float = gene("continuous", "ensemble_params.xgb.l2_reg", 0.0, 10.0)
    nt_xgb: int = gene("integer", "ensemble_params.xgb.n_trees", 10, 300)
    d_rf: int = gene("integer", "ensemble_params.rf.max_depth", 1, 20)
    nt_rf: int = gene("integer", "ensemble_params.rf.n_trees", 10, 300)
    c_svm: float = gene("log", "ensemble_params.svm.c", 0.01, 100.0)
    k_svm: str = gene("categorical", "ensemble_params.svm.kernel", menu=SVM_KERNELS)
    g_svm: float = gene("log", "ensemble_params.svm.gamma", 1e-4, 10.0)
    ep_yolo: int = gene("integer", "ctx_params.epochs", 1, 60)
    ct_yolo: float = gene("continuous", "ctx_params.confidence_threshold", 0.05, 0.95)
    iou_yolo: float = gene("continuous", "ctx_params.nms_iou", 0.3, 0.9)
    bs_yolo: int = gene("categorical", "ctx_params.batch_size", menu=BATCH_MENU)
    lr_yolo: float = gene("log", "ctx_params.learning_rate", 1e-5, 1e-2)
    ep_rcnn: int = gene("integer", "loc_params.epochs", 1, 60)
    ct_rcnn: float = gene("continuous", "loc_params.confidence_threshold", 0.05, 0.95)
    iou_rcnn: float = gene("continuous", "loc_params.nms_iou", 0.3, 0.9)
    bs_rcnn: int = gene("categorical", "loc_params.batch_size", menu=BATCH_MENU)
    lr_rcnn: float = gene("log", "loc_params.learning_rate", 1e-5, 1e-2)
    as_rcnn: str = gene("categorical", "loc_params.anchor_scales", menu=ANCHOR_MENU)


GENE_SPECS = tuple(
    GeneSpec(f.name, f.metadata["kind"], f.metadata["path"], f.metadata.get("ge"),
             f.metadata.get("le"), f.metadata.get("menu", ())) for f in fields(HyperVector)
)
GENE_NAMES = tuple(s.name for s in GENE_SPECS)
SPEC_BY_NAME = {s.name: s for s in GENE_SPECS}

# the shipped defaults, read from the config fields the genes set; injected
# into every search so the tuned result can only match or beat them
_BASE = CoTrainConfig()
DEFAULT_VECTOR = HyperVector(**{
    s.name: reduce(getattr, s.path.split("."), _BASE) for s in GENE_SPECS
})


def _routes() -> dict:
    """The genes as a tree of their paths: an inner dict per params block,
    and per field a leaf of the gene that sets it and the gene's type."""
    types, tree = get_type_hints(HyperVector), {}
    for s in GENE_SPECS:
        *blocks, leaf = s.path.split(".")
        node = tree
        for block in blocks:
            node = node.setdefault(block, {})
        node[leaf] = (s.name, types[s.name])
    return tree


_ROUTES = _routes()


@dataclass(frozen=True)
class TunerConfig(Checked):
    algorithm: str = rule("ga", menu=ALGORITHMS)
    budget: int = rule(16, ge=1)
    population: int = rule(8, ge=1)
    mutation_rate: float = rule(0.1, ge=0, le=1)
    crossover_rate: float = rule(0.9, ge=0, le=1)
    initial_temperature: float = rule(0.05, ge=0)
    cooling_rate: float = rule(0.97, gt=0, le=1)
    seed: int = rule(0, ge=0)


@dataclass(frozen=True)
class TraceEntry:
    index: int  # 1-based fresh-evaluation counter
    score: float
    best_so_far: float
    vector: HyperVector


@dataclass(frozen=True)
class TuneReport:
    best_vector: HyperVector
    best_score: float
    trace: tuple[TraceEntry, ...]
    n_evaluations: int
    algorithm: str


def vector_values(v: HyperVector) -> tuple:
    return tuple(getattr(v, name) for name in GENE_NAMES)


def _sample_gene(spec: GeneSpec, rng: np.random.Generator):
    if spec.kind == "categorical":
        return spec.menu[int(rng.integers(len(spec.menu)))]
    if spec.kind == "integer":
        return int(rng.integers(int(spec.low), int(spec.high) + 1))
    if spec.kind == "log":
        return float(10.0 ** rng.uniform(math.log10(spec.low), math.log10(spec.high)))
    return float(rng.uniform(spec.low, spec.high))


def random_vector(seed: int = 0) -> HyperVector:
    """Uniform sample of every gene (log-space for log genes)."""
    rng = np.random.default_rng(seed)
    return HyperVector(**{n: _sample_gene(SPEC_BY_NAME[n], rng) for n in GENE_NAMES})


def _perturb_gene(spec: GeneSpec, val, rng: np.random.Generator):
    if spec.kind == "categorical":
        return spec.menu[int(rng.integers(len(spec.menu)))]
    if spec.kind == "integer":
        step = int(rng.integers(1, MUTATION_INT_STEP_MAX + 1))
        sign = 1 if rng.random() < 0.5 else -1
        return int(min(max(val + sign * step, spec.low), spec.high))
    if spec.kind == "log":
        lo, hi = math.log10(spec.low), math.log10(spec.high)
        x = math.log10(val) + rng.normal(0.0, MUTATION_SIGMA_SCALE * (hi - lo))
        return float(10.0 ** min(max(x, lo), hi))
    x = val + rng.normal(0.0, MUTATION_SIGMA_SCALE * (spec.high - spec.low))
    return float(min(max(x, spec.low), spec.high))


def mutate(v: HyperVector, rate: float = 0.2, seed: int = 0) -> HyperVector:
    """Independent per-gene perturbation with probability `rate`: Gaussian
    step (sigma = MUTATION_SIGMA_SCALE of the range, clamped) for
    continuous genes, a +-1..MUTATION_INT_STEP_MAX step for integers, a
    menu resample for categoricals."""
    rng = np.random.default_rng(seed)
    out = {}
    for name in GENE_NAMES:
        val = getattr(v, name)
        if rng.random() < rate:
            val = _perturb_gene(SPEC_BY_NAME[name], val, rng)
        out[name] = val
    return HyperVector(**out)


def crossover(
    a: HyperVector, b: HyperVector, seed: int = 0
) -> tuple[HyperVector, HyperVector]:
    """Uniform crossover: per gene, child1 takes a's value where a seeded
    fair coin says so and b's elsewhere; child2 takes the complement."""
    mask = np.random.default_rng(seed).random(len(GENE_NAMES)) < 0.5
    c1, c2 = {}, {}
    for take_a, name in zip(mask, GENE_NAMES):
        av, bv = getattr(a, name), getattr(b, name)
        c1[name] = av if take_a else bv
        c2[name] = bv if take_a else av
    return HyperVector(**c1), HyperVector(**c2)


class _BudgetSpent(Exception):
    """An unseen vector arrived after the last fresh evaluation."""


class _ScoreTracker:
    """Memoizing objective wrapper; only fresh evaluations consume budget
    and append to the trace."""

    def __init__(self, objective: Callable[[HyperVector], float], budget: int):
        self.objective = objective
        self.budget = budget
        self.memo: dict[tuple, float] = {}
        self.trace: list[TraceEntry] = []
        self.best_vector: HyperVector | None = None
        self.best_score = -math.inf

    @property
    def exhausted(self) -> bool:
        return len(self.memo) >= self.budget

    def score(self, v: HyperVector) -> float:
        """Score the vector; raises ``_BudgetSpent`` when the budget is
        exhausted and the vector has not been seen."""
        key = vector_values(v)
        if key in self.memo:
            return self.memo[key]
        if self.exhausted:
            raise _BudgetSpent
        s = self.objective(v)
        if not (isinstance(s, (int, float)) and math.isfinite(s) and 0.0 <= s <= 1.0):
            raise ValueError(
                f"objective returned invalid score {s!r} for vector {key}"
            )
        s = float(s)
        self.memo[key] = s
        if s > self.best_score:
            self.best_score = s
            self.best_vector = v
        self.trace.append(TraceEntry(len(self.memo), s, self.best_score, v))
        return s

    def report(self, algorithm: str) -> TuneReport:
        if self.best_vector is None:
            raise ValueError("no objective evaluations were performed")
        return TuneReport(
            self.best_vector, self.best_score, tuple(self.trace),
            len(self.memo), algorithm,
        )


def _tournament(pop, scores, rng) -> HyperVector:
    """The best of three draws with replacement."""
    best_i = None
    for _ in range(3):
        i = int(rng.integers(len(pop)))
        if best_i is None or scores[i] > scores[best_i]:
            best_i = i
    return pop[best_i]


def _optimize_ga(tracker, config) -> None:
    rng = np.random.default_rng(derive_seed(config.seed, "tuner", "ga"))
    pop = [DEFAULT_VECTOR] + [
        random_vector(seed=int(rng.integers(2**63)))
        for _ in range(config.population - 1)
    ]
    scores = [tracker.score(v) for v in pop]
    while not tracker.exhausted:
        elite_i = max(range(len(pop)), key=lambda i: scores[i])
        new_pop = [pop[elite_i]]
        while len(new_pop) < config.population:
            p1 = _tournament(pop, scores, rng)
            p2 = _tournament(pop, scores, rng)
            if rng.random() < config.crossover_rate:
                c1, c2 = crossover(p1, p2, seed=int(rng.integers(2**63)))
            else:
                c1, c2 = p1, p2
            c1 = mutate(c1, config.mutation_rate, seed=int(rng.integers(2**63)))
            c2 = mutate(c2, config.mutation_rate, seed=int(rng.integers(2**63)))
            new_pop.append(c1)
            if len(new_pop) < config.population:
                new_pop.append(c2)
        fresh_before = len(tracker.memo)
        new_scores = [tracker.score(v) for v in new_pop]
        if len(tracker.memo) == fresh_before and not tracker.exhausted:
            # generation was fully memoized; inject a fresh random vector
            # so the search keeps consuming budget
            for _ in range(16):
                rv = random_vector(seed=int(rng.integers(2**63)))
                s = tracker.score(rv)
                if len(tracker.memo) > fresh_before:
                    # the worst non-elite slot, or the elite's in a
                    # population of one, which has no other
                    worst_i = min(
                        range(1, len(new_pop)), key=lambda i: new_scores[i], default=0
                    )
                    new_pop[worst_i] = rv
                    new_scores[worst_i] = s
                    break
        pop, scores = new_pop, new_scores


def _optimize_sa(tracker, config) -> None:
    rng = np.random.default_rng(derive_seed(config.seed, "tuner", "sa"))
    current = DEFAULT_VECTOR
    current_score = tracker.score(current)
    temperature = config.initial_temperature
    while not tracker.exhausted:
        name = GENE_NAMES[int(rng.integers(len(GENE_NAMES)))]
        moved = _perturb_gene(SPEC_BY_NAME[name], getattr(current, name), rng)
        neighbor = replace(current, **{name: moved})
        s = tracker.score(neighbor)
        delta = s - current_score
        accept = delta >= 0 or (
            temperature > 0 and rng.random() < math.exp(delta / temperature)
        )
        if accept:
            current, current_score = neighbor, s
        temperature *= config.cooling_rate


def optimize(
    objective: Callable[[HyperVector], float],
    config: TunerConfig,
) -> TuneReport:
    """Maximize the objective over the gene space within config.budget
    fresh evaluations; deterministic given (objective, config).  The
    search ends when its budget is spent, whether or not it asks for
    another vector, so a GA whose budget is below its population stops
    inside its first generation."""
    tracker = _ScoreTracker(objective, config.budget)
    search = _optimize_ga if config.algorithm == "ga" else _optimize_sa
    try:
        search(tracker, config)
    except _BudgetSpent:
        pass
    return tracker.report(config.algorithm)


def normalized_distance(a: HyperVector, b: HyperVector) -> float:
    """Mean per-gene distance in [0, 1]: range-scaled for numeric genes
    (log-space for log genes), 0/1 mismatch for categoricals."""
    total = 0.0
    for name in GENE_NAMES:
        spec = SPEC_BY_NAME[name]
        av, bv = getattr(a, name), getattr(b, name)
        if spec.kind == "categorical":
            total += 0.0 if av == bv else 1.0
        elif spec.kind == "log":
            lo, hi = math.log10(spec.low), math.log10(spec.high)
            total += abs(math.log10(av) - math.log10(bv)) / (hi - lo)
        else:
            total += abs(av - bv) / (spec.high - spec.low)
    return total / len(GENE_NAMES)


def planted_objective(target: HyperVector) -> Callable[[HyperVector], float]:
    """Benchmark surrogate: 1 minus the normalized distance to a hidden
    target vector, so the planted optimum scores exactly 1."""
    def f(v: HyperVector) -> float:
        return 1.0 - normalized_distance(v, target)
    return f


def _set(block, routes: dict, v: HyperVector):
    """``block`` with each field ``routes`` names set from ``v``: a gene
    cast to its type, a nested block built the same way; built once."""
    return replace(block, **{
        key: _set(getattr(block, key), r, v) if isinstance(r, dict) else r[1](getattr(v, r[0]))
        for key, r in routes.items()
    })


def vector_to_params(
    v: HyperVector,
) -> tuple[EnsembleParams, DetectorParams, DetectorParams]:
    """Route each gene to the field its path names: the anchor-bearing
    detector genes drive the anchor-aware precise view, the anchor-free
    genes the context view (whose ``anchor_scales`` stays None), and the
    rest the verification ensemble.  A field no gene sets keeps its
    ``CoTrainConfig`` default."""
    blocks = ("ensemble_params", "loc_params", "ctx_params")
    return tuple(_set(getattr(_BASE, b), _ROUTES[b], v) for b in blocks)


def make_supervised_objective(
    records_by_id: Mapping[str, ImageRecord],
    split: DatasetSplit,
    base_config: CoTrainConfig,
) -> Callable[[HyperVector], float]:
    """Objective for tuning: combined validation mAP of the initial
    supervised phase under the candidate's parameters, or 0.0 when a view
    cannot fit its verification ensemble.

    Each view's round 0 is ``round_zero_data``, memoized by
    ``DetectorParams`` (None for an infeasible view), then each ensemble
    member trained on it alone, whose P(class 1) column on the validation
    detections is memoized by ``DetectorParams`` and the member's params
    block; every memo is an ``lru_cache(VIEW_MEMO_SIZE)``.  The view's
    verified detections are rescored from the three columns by the rule
    ``initial_supervised_phase`` applies, so a move on one view's detector
    genes reuses the other view whole, and a move on an ensemble gene
    retrains only that gene's member, once per view.  A memoized value is
    never changed."""

    def view_memos(name: str, profile):
        @lru_cache(VIEW_MEMO_SIZE)
        def data(params: DetectorParams) -> RoundZeroData | None:
            try:
                return round_zero_data(
                    name, profile, params, records_by_id, split, base_config
                )
            except InfeasibleViewError:
                return None

        def member_memo(field: str, index: int):
            @lru_cache(VIEW_MEMO_SIZE)
            def column(params: DetectorParams, member_params) -> np.ndarray:
                d = data(params)
                seed = member_seeds(d.ensemble_seed)[index]
                member = MEMBER_TRAINERS[field](d.train_set, member_params, seed)
                return member.predict_proba(d.val.features)

            return column

        return data, {f: member_memo(f, i) for i, f in enumerate(MEMBER_TRAINERS)}

    data_memo, column_memos = {}, {}
    for name, profile, _ in view_specs(base_config):
        data_memo[name], column_memos[name] = view_memos(name, profile)
    val_gts = {i: records_by_id[i].gts for i in split.val}

    def objective(v: HyperVector) -> float:
        ens, loc, ctx = vector_to_params(v)
        views = view_specs(replace(base_config, loc_params=loc, ctx_params=ctx))
        # a candidate that starves its own verification stage (e.g. a
        # confidence threshold that removes every false positive) scores
        # worst instead of killing the whole search
        if any(data_memo[name](params) is None for name, _, params in views):
            return 0.0
        verified = [
            rescore(data_memo[name](params).val, soft_vote(np.column_stack([
                column(params, getattr(ens, field))
                for field, column in column_memos[name].items()
            ])))
            for name, _, params in views
        ]
        merged = merge_views(*verified, base_config.merge_nms_iou)
        return float(mean_average_precision(merged.by_image(), val_gts).map_coco)

    return objective


class ObjectiveError(RuntimeError):
    """The tuning objective raised while scoring ``vector``."""

    def __init__(self, vector: HyperVector, cause: Exception):
        super().__init__(f"tuning objective failed: {cause}")
        self.vector = vector


def tune_pipeline(
    records_by_id: Mapping[str, ImageRecord],
    split: DatasetSplit,
    tuner_config: TunerConfig,
    base_config: CoTrainConfig,
) -> TuneReport:
    """Tune against the combined validation mAP of the initial supervised
    phase; the best vector is what a full co-training run should use.

    An exception inside the objective surfaces as ``ObjectiveError``
    carrying the vector that was being scored."""
    supervised = make_supervised_objective(records_by_id, split, base_config)

    def objective(v: HyperVector) -> float:
        try:
            return supervised(v)
        except Exception as exc:
            raise ObjectiveError(v, exc) from exc

    return optimize(objective, tuner_config)


def write_trace_csv(report: TuneReport, path: str | Path) -> None:
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["evaluation", "score", "best_so_far", *GENE_NAMES])
    for entry in report.trace:
        writer.writerow(
            [entry.index, entry.score, entry.best_so_far, *vector_values(entry.vector)]
        )
    write_text(path, text.getvalue())
