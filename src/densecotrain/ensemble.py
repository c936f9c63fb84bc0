"""From-scratch ensemble classifiers: second-order gradient-boosted
trees, a random forest, and a kernelized SVM, fused by soft vote.

All three train on (feature vector, binary label) data with labels in
{0, 1} (1 = positive/object) and expose calibrated P(class 1):
logistic link for the GBT and SVM margins, vote fraction for the forest.
Everything is deterministic given (data, params, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .codec import Checked, rule

MEMBER_NAMES = ("gbt", "rf", "svm")
SVM_KERNELS = ("linear", "rbf", "poly")
SVM_ITERATION_BUDGET = 2000


@dataclass(frozen=True)
class XgbParams(Checked):
    learning_rate: float = rule(0.15, gt=0)
    max_depth: int = rule(3, ge=1)
    l2_reg: float = rule(1.0, ge=0)
    n_trees: int = rule(30, ge=0)


@dataclass(frozen=True)
class RfParams(Checked):
    max_depth: int = rule(8, ge=0)
    n_trees: int = rule(25, ge=1)


@dataclass(frozen=True)
class SvmParams(Checked):
    c: float = rule(1.0, gt=0)
    kernel: str = rule("rbf", menu=SVM_KERNELS)
    gamma: float = rule(1.0 / 16.0, gt=0)


@dataclass(frozen=True)
class EnsemblePrediction:
    label: int
    confidence: float


def _as_xy(data) -> tuple[np.ndarray, np.ndarray]:
    """Check an ``(X, y)`` pair: X a nonempty (n, d) matrix, y n labels."""
    if not (isinstance(data, tuple) and len(data) == 2):
        raise ValueError("data must be an (X, y) pair")
    X = np.asarray(data[0], dtype=float)
    y = np.asarray(data[1])
    if X.ndim != 2 or len(X) != len(y) or len(X) == 0:
        raise ValueError("data must be a nonempty (X, y) pair of matching length")
    if not np.isfinite(X).all():
        raise ValueError("features must be finite")
    # on the values given: a cast first would turn 0.4 into a 0 label
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    return X, y.astype(int)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -60, 60)))


# ---------------------------------------------------------------- trees

@dataclass(frozen=True, eq=False)
class _Tree:
    """Flat node arrays in depth-first preorder; feature == -1 marks a
    leaf with the given value."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        idx = np.zeros(len(X), dtype=int)
        while True:
            internal = self.feature[idx] >= 0
            if not internal.any():
                break
            rows = np.nonzero(internal)[0]
            cur = idx[rows]
            go_left = X[rows, self.feature[cur]] <= self.threshold[cur]
            idx[rows] = np.where(go_left, self.left[cur], self.right[cur])
        return self.value[idx]


class _TreeBuilder:
    """A tree's node columns, filled in depth-first preorder."""

    def __init__(self) -> None:
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []

    def add(self, link, feature: int, threshold: float, value: float) -> int:
        """Append a node (feature -1 for a leaf) and point its parent at it:
        ``link`` is ``(self.left or self.right, parent)``, None for the root."""
        node = len(self.feature)
        self.feature.append(int(feature))
        self.threshold.append(float(threshold))
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(float(value))
        if link is not None:
            side, parent = link
            side[parent] = node
        return node

    def build(self) -> _Tree:
        return _Tree(
            np.array(self.feature), np.array(self.threshold), np.array(self.left),
            np.array(self.right), np.array(self.value),
        )


def _sorted_columns(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort every feature once: ``(XT, rows)``, both (d, n), ``XT`` the
    features by row and ``rows[f]`` the row ids in the stable order of
    feature f.

    The trees grow on blocks of such rows. A node's block holds, for each
    feature, the node's rows in that feature's order, and its children
    filter it by the split mask, so no node sorts. Node row sets are
    increasing subsets of ``arange(n)``, so ties stay ordered by row id,
    exactly as a stable argsort of the node's own rows orders them (exact
    greedy search on presorted column blocks: Chen & Guestrin, "XGBoost: A
    Scalable Tree Boosting System", KDD 2016, section 4.1)."""
    XT = np.ascontiguousarray(X.T)
    return XT, np.argsort(XT, axis=1, kind="stable")


# cells one array pass works on, a boosting node's scored block or a block
# of kernel rows: 64 KiB per float temporary, so that the pass works in cache
_CHUNK_CELLS = 8192


def _filter_block(rows: np.ndarray, sel: np.ndarray, m: int) -> np.ndarray:
    """The m entries per feature of a block that the flat mask ``sel``
    keeps; each feature's order is kept."""
    return np.compress(sel, rows).reshape(len(rows), m)


def _grow_gbt_tree(
    columns: tuple[np.ndarray, np.ndarray], g: np.ndarray, h: np.ndarray,
    max_depth: int, lam: float,
) -> tuple[_Tree, np.ndarray]:
    """Grow one boosting tree on ``_sorted_columns`` output.

    Returns the tree and, per row, the value of the leaf the row reached,
    which equals ``tree.apply(X)``."""
    XT, rows0 = columns
    d, n = rows0.shape
    tree = _TreeBuilder()
    reached = np.zeros(n)
    go_left = np.zeros(n, dtype=bool)
    # pending nodes, left on top: (link, the node's rows in increasing
    # order, its block or None where the depth makes it a leaf, depth). A
    # stack, not a recursive nested function: that would hold itself, and
    # the arrays it sees, in a reference cycle until a garbage collection.
    stack = [(None, np.arange(n), rows0, 0)]
    while stack:
        link, idx, rows, depth = stack.pop()
        G, H = g[idx].sum(), h[idx].sum()
        best = None
        if depth < max_depth and len(idx) >= 2:
            parent = G * G / (H + lam + 1e-12)
            # the features a cache-sized chunk at a time, all of a chunk's
            # columns at once: prefix sums along each sorted column, every
            # cut's gain, each column's best cut
            ks: list[int] = []
            tops: list[float] = []
            step = max(1, _CHUNK_CELLS // len(idx))
            for lo in range(0, d, step):
                block = rows[lo:lo + step]
                vals = np.take_along_axis(XT[lo:lo + step], block, axis=1)
                gv = np.cumsum(g[block[:, :-1]], axis=1)
                hv = np.cumsum(h[block[:, :-1]], axis=1)
                gl = gv * gv / (hv + lam + 1e-12)
                gr = (G - gv) ** 2 / (H - hv + lam + 1e-12)
                gain = 0.5 * (gl + gr - parent)
                gain[vals[:, 1:] == vals[:, :-1]] = -np.inf
                k = gain.argmax(axis=1)
                ks += k.tolist()
                tops += gain[np.arange(len(block)), k].tolist()
            # in feature order, a later feature must beat the best by 1e-12;
            # a constant column has no valid cut, so its best gain is -inf
            best_gain = 0.0
            for f, top in enumerate(tops):
                if top > best_gain + 1e-12:
                    best_gain = top
                    best = f
        if best is None:
            w = -G / (H + lam + 1e-12)
            reached[idx] = w
            tree.add(link, -1, 0.0, w)
            continue
        k = ks[best]
        vals = XT[best, rows[best]]
        thr = (vals[k] + vals[k + 1]) / 2.0
        node = tree.add(link, best, thr, 0.0)
        go_left[rows[best]] = vals <= thr
        mask = go_left[idx]
        left, right = idx[mask], idx[~mask]
        lrows = rrows = None
        if depth + 1 < max_depth:
            sel = go_left[rows].ravel()
            lrows = _filter_block(rows, sel, len(left))
            rrows = _filter_block(rows, ~sel, len(right))
        stack.append(((tree.right, node), right, rrows, depth + 1))
        stack.append(((tree.left, node), left, lrows, depth + 1))
    return tree.build(), reached


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


def train_gbt(data, params: XgbParams, seed: int) -> GradientBoostedTrees:
    """Second-order boosting on logistic loss; loss_curve records the
    training loss after the base score and after every round.  Boosting
    draws nothing: ``seed`` is taken so that every member trains through
    one signature."""
    X, y = _as_xy(data)
    pos = int(y.sum())
    if pos == 0 or pos == len(y):
        raise ValueError("train_gbt requires at least one example of each class")
    p0 = pos / len(y)
    base = math.log(p0 / (1.0 - p0))
    margins = np.full(len(y), base)
    loss_curve = [_logistic_loss(margins, y)]
    columns = _sorted_columns(X)
    trees: list[_Tree] = []
    for _ in range(params.n_trees):
        p = _sigmoid(margins)
        g = p - y
        h = p * (1.0 - p)
        tree, reached = _grow_gbt_tree(columns, g, h, params.max_depth, params.l2_reg)
        trees.append(tree)
        margins = margins + params.learning_rate * reached
        loss_curve.append(_logistic_loss(margins, y))
    return GradientBoostedTrees(params, base, trees, loss_curve)


def _grow_cart(
    columns: tuple[np.ndarray, np.ndarray], y: np.ndarray, max_depth: int,
    rng: np.random.Generator, n_sub_features: int,
) -> _Tree:
    """Grow one Gini tree on ``_sorted_columns`` output, drawing each
    split's feature subset in depth-first preorder."""
    XT, rows0 = columns
    d, n = rows0.shape
    tree = _TreeBuilder()
    go_left = np.zeros(n, dtype=bool)
    # counts as floats: the same values, without an int-to-float cast in
    # every impurity operation
    y_float = y.astype(float)

    def stops(m: int, ones: int, depth: int) -> bool:
        return depth >= max_depth or m < 2 or ones == 0 or ones == m

    # pending nodes, left on top: (link, block, positives, depth); a node
    # the stopping rule makes a leaf is only counted, so one column of its
    # rows stands in for its block
    stack = [(None, rows0, int(y.sum()), 0)]
    while stack:
        link, rows, ones, depth = stack.pop()
        m = rows.shape[1]
        best = None  # (impurity, position in feats)
        if not stops(m, ones, depth):
            if n_sub_features < d:
                feats = np.sort(rng.choice(d, n_sub_features, replace=False))
            else:
                feats = np.arange(d)
            p1 = ones / m
            parent_imp = 2 * p1 * (1 - p1)
            # the drawn features at once: prefix counts along each sorted
            # column, every cut's impurity, each column's best cut
            frows = rows[feats]
            fvals = XT[feats[:, None], frows]
            left_ones = np.cumsum(y_float[frows[:, :-1]], axis=1)
            nl = np.arange(1.0, m)
            nr = m - nl
            pl = left_ones / nl
            pr = (ones - left_ones) / nr
            imp = (nl * (2 * pl * (1 - pl)) + nr * (2 * pr * (1 - pr))) / m
            imp[fvals[:, 1:] == fvals[:, :-1]] = np.inf
            ks = imp.argmin(axis=1)
            # in feature order, a later feature must beat the best by 1e-12;
            # a constant column has no valid cut, so its best impurity is inf
            for j, top in enumerate(imp[np.arange(len(feats)), ks].tolist()):
                if not math.isinf(top) and (best is None or top < best[0] - 1e-12):
                    best = (top, j)
            if best is not None and best[0] >= parent_imp - 1e-12:
                best = None
        if best is None:
            tree.add(link, -1, 0.0, 1 if ones > m - ones else 0)
            continue
        j = best[1]
        k = ks[j]
        thr = (fvals[j, k] + fvals[j, k + 1]) / 2.0
        node = tree.add(link, feats[j], thr, 0.0)
        go = fvals[j] <= thr
        go_left[frows[j]] = go
        sel = go_left[rows].ravel()
        children = []
        for side, child, keep in ((tree.left, frows[j][go], sel),
                                  (tree.right, frows[j][~go], ~sel)):
            child_ones = int(y[child].sum())
            if stops(len(child), child_ones, depth + 1):
                block = child[None, :]
            else:
                block = _filter_block(rows, keep, len(child))
            children.append(((side, node), block, child_ones, depth + 1))
        stack += reversed(children)
    return tree.build()


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


def train_rf(data, params: RfParams, seed: int) -> RandomForest:
    """Standard bagging: each tree grows on a bootstrap sample and picks
    each split among sqrt(d) random features."""
    X, y = _as_xy(data)
    rng = np.random.default_rng(seed)
    n = len(X)
    n_sub = max(1, int(math.sqrt(X.shape[1])))
    XT, rows = _sorted_columns(X)
    # each value's rank among the distinct values of its feature: a sample
    # sorts by the unique integer key (rank, position in the sample), which
    # is its stable sort, with no float sort per tree
    sorted_vals = np.take_along_axis(XT, rows, axis=1)
    sorted_rank = np.zeros_like(rows)
    np.cumsum(sorted_vals[:, 1:] != sorted_vals[:, :-1], axis=1, out=sorted_rank[:, 1:])
    rank = np.empty_like(rows)
    np.put_along_axis(rank, rows, sorted_rank, axis=1)
    trees = []
    for _ in range(params.n_trees):
        idx = rng.integers(0, n, n)
        key = rank[:, idx] * n + np.arange(n)
        key.sort(axis=1)
        columns = (XT[:, idx], key % n)
        trees.append(_grow_cart(columns, y[idx], params.max_depth, rng, n_sub))
    return RandomForest(trees)


# ----------------------------------------------------------------- svm

def _kernel_matrix(kind: str, A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """Kernel values between the rows of A and B (linear / rbf / poly,
    degree 3).

    One BLAS product ``A @ B.T``, finished in place a cache-sized block of
    rows at a time, so the kernel is the one matrix held: each entry goes
    through the same operations on the same operands as
    ``exp(-gamma * max(|a|^2 + |b|^2 - 2 a.b, 0))`` and
    ``(gamma * a.b + 1)^3``. The product itself is not blocked: OpenBLAS
    picks its kernel by shape, so a block of rows would change its bytes."""
    if kind not in SVM_KERNELS:
        raise ValueError(f"unknown kernel {kind!r}")
    if kind == "rbf":
        aa = (A * A).sum(axis=1)[:, None]
        bb = (B * B).sum(axis=1)[None, :]
    K = A @ B.T
    if kind == "linear":
        return K
    step = max(1, _CHUNK_CELLS // max(1, K.shape[1]))
    for lo in range(0, len(K), step):
        k = K[lo:lo + step]
        if kind == "poly":
            k *= gamma
            k += 1.0
            np.power(k, 3, out=k)
        else:
            k *= 2.0
            np.subtract(aa[lo:lo + step] + bb, k, out=k)
            np.maximum(k, 0.0, out=k)
            k *= -gamma
            np.exp(k, out=k)
    return K


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


def train_svm(data, params: SvmParams, seed: int) -> KernelSvm:
    """Kernelized Pegasos on hinge loss with lambda = 1/(c*n).

    Pegasos reads kernel column i only when a pick of row i violates the
    margin, so training computes just those columns, the first time each
    is read, and keeps them for the row's later violations: memory is the
    distinct violating rows times n, never the n x n kernel."""
    X, y01 = _as_xy(data)
    pos = int(y01.sum())
    if pos == 0 or pos == len(y01):
        raise ValueError("train_svm requires at least one example of each class")
    y = 2.0 * y01 - 1.0
    n = len(X)
    lam = 1.0 / (params.c * n)
    columns: dict[int, np.ndarray] = {}  # row -> its kernel column
    alpha = np.zeros(n)
    s = np.zeros(n)  # K @ (alpha * y), updated incrementally
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, n, SVM_ITERATION_BUDGET)
    for t, i in enumerate(picks, start=1):
        if y[i] * s[i] / (lam * t) < 1.0:
            alpha[i] += 1.0
            if i not in columns:
                row = X[i:i + 1]
                columns[i] = _kernel_matrix(params.kernel, X, row, params.gamma)[:, 0]
            s += y[i] * columns[i]
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


# each member's trainer by the EnsembleParams field that configures it, in
# gbt, rf, svm order
MEMBER_TRAINERS = {"xgb": train_gbt, "rf": train_rf, "svm": train_svm}


def member_seeds(seed: int) -> tuple[int, ...]:
    """The training seed of each member, in ``MEMBER_TRAINERS`` order, derived
    from the ensemble's ``seed`` alone, so a member is a function of its
    data and its own params block."""
    ss = np.random.SeedSequence([seed & 0xFFFFFFFF, 0x0E5E])
    return tuple(int(v) for v in ss.generate_state(len(MEMBER_TRAINERS)))


def soft_vote(member_probs: np.ndarray) -> np.ndarray:
    """Soft-vote mass for class 1 from the (n, 3) matrix of the members'
    P(class 1) columns, in [0, 1]."""
    return member_probs.mean(axis=1)


class EnsembleClassifier:
    """The three members trained on the same data with derived seeds."""

    def __init__(self, gbt: GradientBoostedTrees, rf: RandomForest, svm: KernelSvm):
        self.gbt = gbt
        self.rf = rf
        self.svm = svm

    @classmethod
    def train(cls, data, params: EnsembleParams, seed: int = 0) -> "EnsembleClassifier":
        return cls(*(
            train(data, getattr(params, name), s)
            for (name, train), s in zip(MEMBER_TRAINERS.items(), member_seeds(seed))
        ))

    def member_probs(self, X) -> np.ndarray:
        """(n, 3) matrix of P(class 1) per member, in gbt/rf/svm order."""
        X = np.asarray(X, dtype=float)
        return np.column_stack(
            [self.gbt.predict_proba(X), self.rf.predict_proba(X),
             self.svm.predict_proba(X)]
        )

    def positive_probability(self, X) -> np.ndarray:
        """Soft-vote mass for class 1, in [0, 1]."""
        return soft_vote(self.member_probs(X))

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
