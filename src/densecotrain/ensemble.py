"""From-scratch ensemble classifiers: second-order gradient-boosted
trees, a random forest, and a kernelized SVM, fused by soft vote.

All three train on (feature vector, binary label) data with labels in
{0, 1} (1 = positive/object) and expose calibrated P(class 1):
logistic link for the GBT and SVM margins, vote fraction for the forest.
Everything is deterministic given (data, params, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

MEMBER_NAMES = ("gbt", "rf", "svm")
SVM_KERNELS = ("linear", "rbf", "poly")
SVM_ITERATION_BUDGET = 2000


@dataclass(frozen=True)
class XgbParams:
    learning_rate: float = 0.15
    max_depth: int = 3
    l2_reg: float = 1.0
    n_trees: int = 30

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.l2_reg < 0:
            raise ValueError("l2_reg must be >= 0")
        if self.n_trees < 0:
            raise ValueError("n_trees must be >= 0")


@dataclass(frozen=True)
class RfParams:
    max_depth: int = 8
    n_trees: int = 25

    def __post_init__(self) -> None:
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")


@dataclass(frozen=True)
class SvmParams:
    c: float = 1.0
    kernel: str = "rbf"
    gamma: float = 1.0 / 16.0

    def __post_init__(self) -> None:
        if self.c <= 0:
            raise ValueError("c must be > 0")
        if self.kernel not in SVM_KERNELS:
            raise ValueError(f"kernel must be one of {SVM_KERNELS}, got {self.kernel!r}")
        if self.gamma <= 0:
            raise ValueError("gamma must be > 0")


@dataclass(frozen=True)
class EnsemblePrediction:
    label: int
    confidence: float


def _as_xy(data) -> tuple[np.ndarray, np.ndarray]:
    """Check an ``(X, y)`` pair: X a nonempty (n, d) matrix, y n labels."""
    if not (isinstance(data, tuple) and len(data) == 2):
        raise ValueError("data must be an (X, y) pair")
    X = np.asarray(data[0], dtype=float)
    y = np.asarray(data[1], dtype=int)
    if X.ndim != 2 or len(X) != len(y) or len(X) == 0:
        raise ValueError("data must be a nonempty (X, y) pair of matching length")
    if not np.isfinite(X).all():
        raise ValueError("features must be finite")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    return X, y


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -60, 60)))


# ---------------------------------------------------------------- trees

@dataclass
class _Tree:
    """Flat node arrays; feature == -1 marks a leaf with the given value."""

    feature: list[int] = field(default_factory=list)
    threshold: list[float] = field(default_factory=list)
    left: list[int] = field(default_factory=list)
    right: list[int] = field(default_factory=list)
    value: list[float] = field(default_factory=list)

    def add_leaf(self, v: float) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(float(v))
        return len(self.feature) - 1

    def add_split(self, f: int, thr: float) -> int:
        self.feature.append(int(f))
        self.threshold.append(float(thr))
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def apply(self, X: np.ndarray) -> np.ndarray:
        feat = np.asarray(self.feature)
        thr = np.asarray(self.threshold)
        left = np.asarray(self.left)
        right = np.asarray(self.right)
        val = np.asarray(self.value)
        idx = np.zeros(len(X), dtype=int)
        while True:
            internal = feat[idx] >= 0
            if not internal.any():
                break
            rows = np.nonzero(internal)[0]
            cur = idx[rows]
            go_left = X[rows, feat[cur]] <= thr[cur]
            idx[rows] = np.where(go_left, left[cur], right[cur])
        return val[idx]


def _grow_gbt_tree(
    X: np.ndarray, g: np.ndarray, h: np.ndarray, max_depth: int, lam: float
) -> _Tree:
    tree = _Tree()

    def leaf_weight(idx: np.ndarray) -> float:
        return -g[idx].sum() / (h[idx].sum() + lam + 1e-12)

    def grow(idx: np.ndarray, depth: int) -> int:
        G, H = g[idx].sum(), h[idx].sum()
        if depth >= max_depth or len(idx) < 2:
            return tree.add_leaf(leaf_weight(idx))
        parent = G * G / (H + lam + 1e-12)
        best_gain = 0.0
        best = None
        for f in range(X.shape[1]):
            xs = X[idx, f]
            order = np.argsort(xs, kind="stable")
            xv = xs[order]
            if xv[0] == xv[-1]:
                continue
            gv = np.cumsum(g[idx][order])[:-1]
            hv = np.cumsum(h[idx][order])[:-1]
            valid = xv[1:] != xv[:-1]
            gl = gv * gv / (hv + lam + 1e-12)
            gr = (G - gv) ** 2 / (H - hv + lam + 1e-12)
            gain = 0.5 * (gl + gr - parent)
            gain[~valid] = -np.inf
            k = int(np.argmax(gain))
            if gain[k] > best_gain + 1e-12:
                best_gain = float(gain[k])
                best = (f, (xv[k] + xv[k + 1]) / 2.0)
        if best is None:
            return tree.add_leaf(leaf_weight(idx))
        f, thr = best
        node = tree.add_split(f, thr)
        mask = X[idx, f] <= thr
        tree.left[node] = grow(idx[mask], depth + 1)
        tree.right[node] = grow(idx[~mask], depth + 1)
        return node

    grow(np.arange(len(X)), 0)
    return tree


def _logistic_loss(margins: np.ndarray, y: np.ndarray) -> float:
    # mean negative log-likelihood of the logistic model
    z = np.clip(margins, -60, 60)
    return float(np.mean(np.log1p(np.exp(-z)) + (1 - y) * z))


class GradientBoostedTrees:
    """Binary logistic boosting with Newton leaf weights
    w = -G / (H + l2_reg) and shrinkage by learning_rate."""

    def __init__(
        self, params: XgbParams, base_score: float,
        trees: list[_Tree], loss_curve: list[float],
    ):
        self.params = params
        self.base_score = base_score
        self.trees = trees
        self.loss_curve = loss_curve

    def decision(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = np.full(len(X), self.base_score)
        for t in self.trees:
            out += self.params.learning_rate * t.apply(X)
        return out

    def predict_proba(self, X) -> np.ndarray:
        return _sigmoid(self.decision(X))

    def predict(self, X) -> np.ndarray:
        return (self.predict_proba(X) >= 0.5).astype(int)


def train_gbt(data, params: XgbParams, seed: int = 0) -> GradientBoostedTrees:
    """Second-order boosting on logistic loss; loss_curve records the
    training loss after the base score and after every round."""
    X, y = _as_xy(data)
    pos = int(y.sum())
    if pos == 0 or pos == len(y):
        raise ValueError("train_gbt requires at least one example of each class")
    p0 = pos / len(y)
    base = math.log(p0 / (1.0 - p0))
    margins = np.full(len(y), base)
    loss_curve = [_logistic_loss(margins, y)]
    trees: list[_Tree] = []
    for _ in range(params.n_trees):
        p = _sigmoid(margins)
        g = p - y
        h = p * (1.0 - p)
        tree = _grow_gbt_tree(X, g, h, params.max_depth, params.l2_reg)
        trees.append(tree)
        margins = margins + params.learning_rate * tree.apply(X)
        loss_curve.append(_logistic_loss(margins, y))
    return GradientBoostedTrees(params, base, trees, loss_curve)


def _grow_cart(
    X: np.ndarray, y: np.ndarray, max_depth: int,
    rng: np.random.Generator, n_sub_features: int,
) -> _Tree:
    tree = _Tree()

    def majority(idx: np.ndarray) -> int:
        ones = int(y[idx].sum())
        zeros = len(idx) - ones
        return 1 if ones > zeros else 0

    def gini_split(idx: np.ndarray, feats: np.ndarray):
        n = len(idx)
        best = None  # (impurity, f, thr)
        for f in feats:
            xs = X[idx, f]
            order = np.argsort(xs, kind="stable")
            xv = xs[order]
            if xv[0] == xv[-1]:
                continue
            ones = np.cumsum(y[idx][order])[:-1]
            nl = np.arange(1, n)
            nr = n - nl
            or_ = int(y[idx].sum()) - ones
            pl = ones / nl
            pr = or_ / nr
            imp = (nl * (2 * pl * (1 - pl)) + nr * (2 * pr * (1 - pr))) / n
            valid = xv[1:] != xv[:-1]
            imp = np.where(valid, imp, np.inf)
            k = int(np.argmin(imp))
            if math.isinf(imp[k]):
                continue
            if best is None or imp[k] < best[0] - 1e-12:
                best = (float(imp[k]), int(f), (xv[k] + xv[k + 1]) / 2.0)
        return best

    def grow(idx: np.ndarray, depth: int) -> int:
        ones = int(y[idx].sum())
        if depth >= max_depth or len(idx) < 2 or ones == 0 or ones == len(idx):
            return tree.add_leaf(majority(idx))
        n_feat = X.shape[1]
        if n_sub_features < n_feat:
            feats = np.sort(rng.choice(n_feat, n_sub_features, replace=False))
        else:
            feats = np.arange(n_feat)
        p1 = ones / len(idx)
        parent_imp = 2 * p1 * (1 - p1)
        best = gini_split(idx, feats)
        if best is None or best[0] >= parent_imp - 1e-12:
            return tree.add_leaf(majority(idx))
        _, f, thr = best
        node = tree.add_split(f, thr)
        mask = X[idx, f] <= thr
        tree.left[node] = grow(idx[mask], depth + 1)
        tree.right[node] = grow(idx[~mask], depth + 1)
        return node

    grow(np.arange(len(X)), 0)
    return tree


class RandomForest:
    """Bagged Gini trees with sqrt-feature subsampling and hard majority
    vote; probability is the vote fraction, so it is always a multiple
    of 1/n_trees."""

    def __init__(self, trees: list[_Tree]):
        self.trees = trees

    def predict_proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        votes = np.zeros(len(X))
        for t in self.trees:
            votes += t.apply(X)
        return votes / len(self.trees)

    def predict(self, X) -> np.ndarray:
        return (self.predict_proba(X) >= 0.5).astype(int)


def train_rf(data, params: RfParams, seed: int = 0) -> RandomForest:
    """Standard bagging: each tree grows on a bootstrap sample and picks
    each split among sqrt(d) random features."""
    X, y = _as_xy(data)
    rng = np.random.default_rng(seed)
    n_sub = max(1, int(math.sqrt(X.shape[1])))
    trees = []
    for _ in range(params.n_trees):
        idx = rng.integers(0, len(X), len(X))
        trees.append(_grow_cart(X[idx], y[idx], params.max_depth, rng, n_sub))
    return RandomForest(trees)


# ----------------------------------------------------------------- svm

def _kernel_matrix(kind: str, A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """Kernel values between the rows of A and B (linear / rbf / poly,
    degree 3)."""
    if kind == "linear":
        return A @ B.T
    if kind == "poly":
        return (gamma * (A @ B.T) + 1.0) ** 3
    if kind == "rbf":
        aa = (A * A).sum(axis=1)[:, None]
        bb = (B * B).sum(axis=1)[None, :]
        sq = np.maximum(aa + bb - 2.0 * (A @ B.T), 0.0)
        return np.exp(-gamma * sq)
    raise ValueError(f"unknown kernel {kind!r}")


def _fit_platt(decision: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Logistic link p = sigmoid(a*f + b) fit by Newton with Platt's
    smoothed targets (keeps the optimum finite on separable data)."""
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    hi = (n_pos + 1.0) / (n_pos + 2.0)
    lo = 1.0 / (n_neg + 2.0)
    t = np.where(y == 1, hi, lo)
    a, b = 1.0, 0.0
    for _ in range(50):
        z = a * decision + b
        p = _sigmoid(z)
        w = np.maximum(p * (1 - p), 1e-12)
        r = p - t
        g_a = float(decision @ r)
        g_b = float(r.sum())
        h_aa = float((w * decision * decision).sum()) + 1e-9
        h_ab = float((w * decision).sum())
        h_bb = float(w.sum()) + 1e-9
        det = h_aa * h_bb - h_ab * h_ab
        if abs(det) < 1e-18:
            break
        da = (h_bb * g_a - h_ab * g_b) / det
        db = (h_aa * g_b - h_ab * g_a) / det
        a -= da
        b -= db
        if abs(da) < 1e-10 and abs(db) < 1e-10:
            break
    return float(a), float(b)


class KernelSvm:
    """Kernelized Pegasos with a fixed iteration budget and a logistic
    calibration layer fitted on the training decisions."""

    def __init__(
        self, params: SvmParams, sv: np.ndarray, sv_coef: np.ndarray,
        platt_a: float, platt_b: float,
    ):
        self.params = params
        self.sv = sv
        self.sv_coef = sv_coef  # alpha_j * y_j / (lambda * T)
        self.platt_a = platt_a
        self.platt_b = platt_b

    def decision(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        gamma = self.params.gamma
        K = _kernel_matrix(self.params.kernel, X, self.sv, gamma)
        return K @ self.sv_coef

    def predict_proba(self, X) -> np.ndarray:
        return _sigmoid(self.platt_a * self.decision(X) + self.platt_b)

    def predict(self, X) -> np.ndarray:
        return (self.predict_proba(X) >= 0.5).astype(int)


def train_svm(data, params: SvmParams, seed: int = 0) -> KernelSvm:
    """Kernelized Pegasos on hinge loss with lambda = 1/(c*n)."""
    X, y01 = _as_xy(data)
    pos = int(y01.sum())
    if pos == 0 or pos == len(y01):
        raise ValueError("train_svm requires at least one example of each class")
    y = 2.0 * y01 - 1.0
    n = len(X)
    lam = 1.0 / (params.c * n)
    K = _kernel_matrix(params.kernel, X, X, params.gamma)
    alpha = np.zeros(n)
    s = np.zeros(n)  # K @ (alpha * y), updated incrementally
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, n, SVM_ITERATION_BUDGET)
    for t, i in enumerate(picks, start=1):
        if y[i] * s[i] / (lam * t) < 1.0:
            alpha[i] += 1.0
            s += y[i] * K[:, i]
    scale = 1.0 / (lam * SVM_ITERATION_BUDGET)
    decision_train = scale * s
    a, b = _fit_platt(decision_train, y01)
    keep = alpha > 0
    sv = X[keep]
    sv_coef = (alpha[keep] * y[keep]) * scale
    if len(sv) == 0:
        # budget never saw a violation (degenerate); fall back to priors
        sv = X[:1]
        sv_coef = np.zeros(1)
    return KernelSvm(params, sv, sv_coef, a, b)


# ---------------------------------------------------------------- fuse

def fuse(preds: Sequence[tuple[int, float]]) -> EnsemblePrediction:
    """Soft vote over three (label, probability) member pairs.

    Class scores sum each member's probability mass for that class
    (binary: the complementary class gets 1 - p); the winner is the
    argmax, ties go to the members in order gbt, rf, svm; confidence is
    the mean probability of the winning label.
    """
    if len(preds) != 3:
        raise ValueError(f"fuse expects exactly 3 member predictions, got {len(preds)}")
    for name, (label, p) in zip(MEMBER_NAMES, preds):
        if not (0.0 <= p <= 1.0):
            raise ValueError(
                f"member {name} probability outside [0, 1]: {p!r} "
                "(calibration bug)"
            )
    labels = sorted({label for label, _ in preds})
    if len(labels) > 2:
        raise ValueError("binary fuse saw more than two distinct labels")
    if len(labels) == 1:
        lab = labels[0]
        conf = sum(p for _, p in preds) / 3.0
        return EnsemblePrediction(lab, conf)
    score = {lab: 0.0 for lab in labels}
    for label, p in preds:
        other = labels[0] if label == labels[1] else labels[1]
        score[label] += p
        score[other] += 1.0 - p
    a, b = labels
    if score[a] > score[b]:
        winner = a
    elif score[b] > score[a]:
        winner = b
    else:
        winner = preds[0][0]  # tie: gbt first, then rf, then svm
    return EnsemblePrediction(winner, score[winner] / 3.0)


@dataclass(frozen=True)
class EnsembleParams:
    xgb: XgbParams = XgbParams()
    rf: RfParams = RfParams()
    svm: SvmParams = SvmParams()


class EnsembleClassifier:
    """The three members trained on the same data with derived seeds."""

    def __init__(self, gbt: GradientBoostedTrees, rf: RandomForest, svm: KernelSvm):
        self.gbt = gbt
        self.rf = rf
        self.svm = svm

    @classmethod
    def train(cls, data, params: EnsembleParams, seed: int = 0) -> "EnsembleClassifier":
        ss = np.random.SeedSequence([seed & 0xFFFFFFFF, 0x0E5E])
        s_gbt, s_rf, s_svm = (int(v) for v in ss.generate_state(3))
        return cls(
            train_gbt(data, params.xgb, s_gbt),
            train_rf(data, params.rf, s_rf),
            train_svm(data, params.svm, s_svm),
        )

    def member_probs(self, X) -> np.ndarray:
        """(n, 3) matrix of P(class 1) per member, in gbt/rf/svm order."""
        X = np.asarray(X, dtype=float)
        return np.column_stack(
            [self.gbt.predict_proba(X), self.rf.predict_proba(X),
             self.svm.predict_proba(X)]
        )

    def positive_probability(self, X) -> np.ndarray:
        """Soft-vote mass for class 1, in [0, 1]."""
        return self.member_probs(X).mean(axis=1)

    def predict(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Soft-vote labels and confidences of all rows: ``fuse``'s rule,
        bit for bit, on columns (each member's terms as ``fuse`` forms them
        from its vote, summed gbt, rf, svm from 0.0; ties go to gbt)."""
        P = self.member_probs(X)
        votes_1 = P >= 0.5
        mass_1 = np.where(votes_1, P, 1.0 - (1.0 - P))
        mass_0 = 1.0 - P
        score_1 = 0.0 + mass_1[:, 0] + mass_1[:, 1] + mass_1[:, 2]
        score_0 = 0.0 + mass_0[:, 0] + mass_0[:, 1] + mass_0[:, 2]
        labels = np.where(score_1 == score_0, votes_1[:, 0], score_1 > score_0)
        return labels.astype(int), np.where(labels, score_1, score_0) / 3.0
