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
    """A tree's nodes, ``[feature, threshold, left, right, value]`` each,
    filled in depth-first preorder."""

    LEFT, RIGHT = 2, 3  # a node's child slots

    def __init__(self) -> None:
        self.nodes: list[list] = []

    def add(self, link, feature: int, threshold: float, value: float) -> int:
        """Append a node (feature -1 for a leaf) and point its parent at it:
        ``link`` is ``(LEFT or RIGHT, parent)``, None for the root."""
        self.nodes.append([int(feature), float(threshold), -1, -1, float(value)])
        if link is not None:
            side, parent = link
            self.nodes[parent][side] = len(self.nodes) - 1
        return len(self.nodes) - 1

    def build(self) -> _Tree:
        return _Tree(*(np.array(column) for column in zip(*self.nodes)))


def _rank_keys(X: np.ndarray) -> tuple[np.ndarray, int]:
    """Each feature's rank keys, ``(keys, shift)``: ``keys[f, row]`` is
    ``rank << shift | row``, where ``rank`` is the dense rank of
    ``X[row, f]`` among the distinct values of feature f and ``shift`` is
    ``n.bit_length()``. Rank and row are both below ``2**shift``, so the
    keys of any n < 2**31 rows fit int64.

    Sorting a set of rows' keys puts the rows in the stable order of the
    feature's values, ties by row id, and ``key >> shift`` is equal
    exactly where the values are: a node's order and its equal-value cuts
    come from integers (exact greedy search on presorted columns: Chen &
    Guestrin, "XGBoost: A Scalable Tree Boosting System", KDD 2016, 4.1)."""
    shift = len(X).bit_length()
    XT = np.ascontiguousarray(X.T)
    order = np.argsort(XT, axis=1)
    vals = np.take_along_axis(XT, order, axis=1)
    rank = np.zeros_like(order)
    np.cumsum(vals[:, 1:] != vals[:, :-1], axis=1, out=rank[:, 1:])
    keys = np.empty_like(order)
    np.put_along_axis(keys, order, rank << shift | order, axis=1)
    return keys, shift


# cells one array pass works on, a chunk of a node's candidate columns or a
# block of kernel rows: 64 KiB per float temporary (128 KiB for the complex
# prefix sums), so that the pass works in cache
_CHUNK_CELLS = 8192


def _best_cut(keys: np.ndarray, shift: int, stat: np.ndarray, score, floor: float):
    """A node's best cut, or None: ``(j, rows, k, score)``, the cut
    between positions k and k + 1 of ``rows``, candidate j's rows in
    sorted order.

    ``keys`` holds a row of the node's sorted keys per candidate feature,
    and ``stat`` the two statistics each row adds, as one complex number:
    complex addition is two independent IEEE additions, so one prefix sum
    carries both, bit for bit as two would. ``score(a, b)`` turns the
    prefix sums into each cut's score, to maximize; a cut between equal
    values has none. In candidate order, a later column must beat the best
    so far, starting from ``floor``, by more than 1e-12."""
    low = (1 << shift) - 1
    ks: list[int] = []
    tops: list[float] = []
    # a cache-sized chunk of candidates at a time
    step = max(1, _CHUNK_CELLS // keys.shape[1])
    for lo in range(0, len(keys), step):
        block = keys[lo:lo + step]
        sums = np.cumsum(stat[block[:, :-1] & low], axis=1)
        gain = score(sums.real, sums.imag)
        rank = block >> shift
        np.putmask(gain, rank[:, 1:] == rank[:, :-1], -np.inf)
        k = gain.argmax(axis=1)
        ks += k.tolist()
        tops += gain[np.arange(len(block)), k].tolist()
    best = None
    for j, top in enumerate(tops):
        if top > floor + 1e-12:
            floor, best = top, j
    if best is None:
        return None
    return best, keys[best] & low, ks[best], floor


def _grow_gbt_tree(
    X: np.ndarray, root: tuple[np.ndarray, int], g: np.ndarray, h: np.ndarray,
    max_depth: int, lam: float,
) -> tuple[_Tree, np.ndarray]:
    """Grow one boosting tree from ``root``, the ``_rank_keys`` of X with
    each feature's keys sorted.

    Returns the tree and, per row, the value of the leaf the row reached,
    which equals ``tree.apply(X)``."""
    keys0, shift = root
    d, n = keys0.shape
    low = (1 << shift) - 1
    gh = np.column_stack((g, h)).view(complex).ravel()  # g + h i, bit for bit
    tree = _TreeBuilder()
    reached = np.zeros(n)
    go_left = np.zeros(n, dtype=bool)
    # pending nodes, left on top: (link, the node's rows in increasing
    # order, its sorted keys or None where the depth makes it a leaf,
    # depth). A stack, not a recursive nested function: that would hold
    # itself, and the arrays it sees, in a reference cycle until a garbage
    # collection.
    stack = [(None, np.arange(n), keys0, 0)]
    while stack:
        link, idx, keys, depth = stack.pop()
        # pairwise sums, which depend on the order: idx stays increasing
        G, H = g[idx].sum(), h[idx].sum()
        cut = None
        if depth < max_depth and len(idx) >= 2:
            parent = G * G / (H + lam + 1e-12)

            def gain(gv, hv):
                gl = gv * gv / (hv + lam + 1e-12)
                gr = (G - gv) ** 2 / (H - hv + lam + 1e-12)
                return 0.5 * (gl + gr - parent)

            # a constant column has no valid cut, so its best gain is -inf
            cut = _best_cut(keys, shift, gh, gain, 0.0)
        if cut is None:
            w = -G / (H + lam + 1e-12)
            reached[idx] = w
            tree.add(link, -1, 0.0, w)
            continue
        f, rows, k, _ = cut
        vals = X[rows, f]
        thr = (vals[k] + vals[k + 1]) / 2.0
        node = tree.add(link, f, thr, 0.0)
        go_left[rows] = vals <= thr
        mask = go_left[idx]
        left, right = idx[mask], idx[~mask]
        lkeys = rkeys = None
        if depth + 1 < max_depth:
            sel = go_left[keys & low].ravel()
            lkeys = np.compress(sel, keys).reshape(d, len(left))
            rkeys = np.compress(~sel, keys).reshape(d, len(right))
        stack.append(((tree.RIGHT, node), right, rkeys, depth + 1))
        stack.append(((tree.LEFT, node), left, lkeys, depth + 1))
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
    keys, shift = _rank_keys(X)
    root = (np.sort(keys, axis=1), shift)
    trees: list[_Tree] = []
    for _ in range(params.n_trees):
        p = _sigmoid(margins)
        g = p - y
        h = p * (1.0 - p)
        tree, reached = _grow_gbt_tree(X, root, g, h, params.max_depth, params.l2_reg)
        trees.append(tree)
        margins = margins + params.learning_rate * reached
        loss_curve.append(_logistic_loss(margins, y))
    return GradientBoostedTrees(params, base, trees, loss_curve)


def _grow_cart(
    X: np.ndarray, rank_keys: tuple[np.ndarray, int], y: np.ndarray, w: np.ndarray,
    max_depth: int, rng: np.random.Generator, n_sub_features: int,
) -> _Tree:
    """Grow one Gini tree on the sample that holds row i of X ``w[i]``
    times, given X's ``_rank_keys``, drawing each split's feature subset
    in depth-first preorder.

    A node holds its distinct rows and counts the sample's: the prefix
    sums of ``w`` and ``y * w`` are whole numbers, exact in floats, so each
    cut between distinct values scores as on the sample's own rows."""
    keys, shift = rank_keys
    d = len(keys)
    tree = _TreeBuilder()
    yw = y * w
    stat = np.column_stack((w, yw)).astype(float).view(complex).ravel()
    # pending nodes, left on top: (link, distinct rows, sample rows,
    # positives, depth)
    stack = [(None, np.flatnonzero(w), int(w.sum()), int(yw.sum()), 0)]
    while stack:
        link, rows, m, ones, depth = stack.pop()
        cut = None
        if not (depth >= max_depth or m < 2 or ones == 0 or ones == m):
            if n_sub_features < d:
                feats = np.sort(rng.choice(d, n_sub_features, replace=False))
            else:
                feats = np.arange(d)
            p1 = ones / m
            parent_imp = 2 * p1 * (1 - p1)
            block = keys[feats[:, None], rows]
            block.sort(axis=1)

            def neg_gini(nl, left_ones):
                # negated, which is exact, so that the best cut is the largest
                nr = m - nl
                pl = left_ones / nl
                pr = (ones - left_ones) / nr
                return (nl * (2 * pl * (1 - pl)) + nr * (2 * pr * (1 - pr))) / -m

            # the first valid cut is kept whatever its impurity; a constant
            # column has no valid cut
            cut = _best_cut(block, shift, stat, neg_gini, -math.inf)
            if cut is not None and -cut[3] >= parent_imp - 1e-12:
                cut = None
        if cut is None:
            tree.add(link, -1, 0.0, 1 if ones > m - ones else 0)
            continue
        j, rows, k, _ = cut
        vals = X[rows, feats[j]]
        thr = (vals[k] + vals[k + 1]) / 2.0
        node = tree.add(link, feats[j], thr, 0.0)
        # the children's counts follow the rows the threshold sends, not the
        # cut: a midpoint can round onto the upper value
        go = vals <= thr
        for side, child in ((tree.RIGHT, rows[~go]), (tree.LEFT, rows[go])):
            stack.append(((side, node), child, int(w[child].sum()),
                          int(yw[child].sum()), depth + 1))
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
    each split among sqrt(d) random features. A tree grows on the sample's
    draw counts, each training row weighted by how often it was drawn, as
    scikit-learn's forests weight theirs."""
    X, y = _as_xy(data)
    rng = np.random.default_rng(seed)
    n = len(X)
    n_sub = max(1, int(math.sqrt(X.shape[1])))
    rank_keys = _rank_keys(X)
    trees = []
    for _ in range(params.n_trees):
        w = np.bincount(rng.integers(0, n, n), minlength=n)
        trees.append(_grow_cart(X, rank_keys, y, w, params.max_depth, rng, n_sub))
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
        """(n, 3) matrix of P(class 1) per member, in gbt/rf/svm order, for
        an (n, d) matrix of finite features, d as in training."""
        X = np.asarray(X, dtype=float)
        d = self.svm.sv.shape[1]
        if X.ndim != 2 or X.shape[1] != d:
            raise ValueError(f"rows must be an (n, {d}) matrix, got shape {X.shape}")
        if not np.isfinite(X).all():
            raise ValueError("rows must hold finite features only")
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
