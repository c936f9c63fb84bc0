"""Ensemble classifier tests: GBT, RF, SVM and fusion."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densecotrain.ensemble import (
    EnsembleClassifier,
    EnsembleParams,
    RfParams,
    SvmParams,
    XgbParams,
    _grow_cart,
    _grow_gbt_tree,
    _kernel_matrix,
    fuse,
    train_gbt,
    train_rf,
    train_svm,
)


def _blobs(rng, n_per_class, separation, dim=16):
    X0 = rng.standard_normal((n_per_class, dim))
    X1 = rng.standard_normal((n_per_class, dim))
    X1[:, 0] += separation
    X = np.vstack([X0, X1])
    y = np.array([0] * n_per_class + [1] * n_per_class)
    perm = rng.permutation(len(y))
    return X[perm], y[perm]


def test_param_validation():
    with pytest.raises(ValueError):
        XgbParams(learning_rate=0)
    with pytest.raises(ValueError):
        XgbParams(max_depth=0)
    with pytest.raises(ValueError):
        XgbParams(l2_reg=-1)
    with pytest.raises(ValueError):
        XgbParams(n_trees=-1)
    XgbParams(n_trees=0)
    with pytest.raises(ValueError):
        RfParams(n_trees=0)
    RfParams(max_depth=0)
    with pytest.raises(ValueError):
        SvmParams(c=0)
    with pytest.raises(ValueError):
        SvmParams(kernel="sigmoid")
    with pytest.raises(ValueError):
        SvmParams(gamma=0)


def test_gbt_leaf_weight_example():
    # leaves grown by the booster hold -G / (H + l2_reg) of their rows
    X = np.zeros((2, 1))
    leaf = _grow_gbt_tree(X, np.array([1.0, 1.0]), np.array([2.0, 2.0]), 0, 1.0)
    assert leaf.apply(X) == pytest.approx([-0.4, -0.4])
    # the best stump splits at 1.5: -(-2) / (2 + 1) left, -2 / (2 + 1) right
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    g = np.array([-1.0, -1.0, 1.0, 1.0])
    h = np.array([0.5, 1.5, 1.0, 1.0])
    tree = _grow_gbt_tree(X, g, h, 1, 1.0)
    assert (tree.feature[0], tree.threshold[0]) == (0, 1.5)
    assert tree.apply(X) == pytest.approx([2 / 3, 2 / 3, -2 / 3, -2 / 3])


def test_gbt_zero_trees_predicts_prior():
    rng = np.random.default_rng(0)
    X, y = _blobs(rng, 50, 6.0)
    # unbalance it: drop some positives
    keep = np.concatenate([np.nonzero(y == 0)[0], np.nonzero(y == 1)[0][:25]])
    X, y = X[keep], y[keep]
    m = train_gbt((X, y), XgbParams(n_trees=0), seed=1)
    prior = y.mean()
    probs = m.predict_proba(rng.standard_normal((10, 16)))
    assert np.allclose(probs, prior, atol=1e-12)


def test_gbt_stumps_separate_sign_data():
    rng = np.random.default_rng(3)
    x = rng.uniform(-2, 2, 200)
    x = x[np.abs(x) > 0.05]
    X = x.reshape(-1, 1)
    y = (x > 0).astype(int)
    m = train_gbt((X, y), XgbParams(n_trees=10, max_depth=1, learning_rate=0.5), 0)
    assert (m.predict(X) == y).mean() == 1.0


def test_gbt_loss_curve_nonincreasing():
    rng = np.random.default_rng(5)
    X, y = _blobs(rng, 200, 2.5)
    m = train_gbt((X, y), XgbParams(), seed=2)
    assert len(m.loss_curve) == m.params.n_trees + 1
    for a, b in zip(m.loss_curve, m.loss_curve[1:]):
        assert b <= a + 1e-12


def test_gbt_single_class_error():
    X = np.random.default_rng(0).standard_normal((10, 4))
    with pytest.raises(ValueError, match="each class"):
        train_gbt((X, np.ones(10, dtype=int)), XgbParams(), 0)


def test_gbt_deterministic():
    rng = np.random.default_rng(7)
    X, y = _blobs(rng, 100, 3.0)
    Xt = rng.standard_normal((40, 16))
    a = train_gbt((X, y), XgbParams(), seed=5).predict_proba(Xt)
    b = train_gbt((X, y), XgbParams(), seed=5).predict_proba(Xt)
    assert np.array_equal(a, b)


def test_rf_depth_zero_is_majority_stub():
    rng = np.random.default_rng(1)
    X, y = _blobs(rng, 60, 6.0)
    m = train_rf((X, y), RfParams(max_depth=0, n_trees=7), seed=3)
    probs = m.predict_proba(rng.standard_normal((20, 16)))
    # every tree is a constant leaf, so all inputs get the same probability
    assert len(set(probs.tolist())) == 1


def test_grow_cart_hand_computed_gini_split():
    # the cut between x = 1 and x = 2 leaves two pure halves (Gini 0), so
    # the root splits feature 0 at the midpoint 1.5 into leaves 0 and 1
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    tree = _grow_cart(X, y, 3, np.random.default_rng(0), n_sub_features=1)
    assert tree.feature == [0, -1, -1]
    assert tree.threshold == [1.5, 0.0, 0.0]
    assert (tree.left, tree.right) == ([1, -1, -1], [2, -1, -1])
    assert tree.value == [0.0, 0.0, 1.0]
    assert tree.apply(X).tolist() == [0.0, 0.0, 1.0, 1.0]


def test_rf_probability_discreteness():
    rng = np.random.default_rng(4)
    X, y = _blobs(rng, 100, 1.5)
    nt = 9
    m = train_rf((X, y), RfParams(n_trees=nt), seed=1)
    probs = m.predict_proba(rng.standard_normal((200, 16)))
    scaled = probs * nt
    assert np.allclose(scaled, np.round(scaled), atol=1e-12)
    assert ((probs >= 0) & (probs <= 1)).all()


def test_rf_deterministic():
    rng = np.random.default_rng(8)
    X, y = _blobs(rng, 100, 2.0)
    Xt = rng.standard_normal((50, 16))
    a = train_rf((X, y), RfParams(), seed=9).predict_proba(Xt)
    b = train_rf((X, y), RfParams(), seed=9).predict_proba(Xt)
    assert np.array_equal(a, b)
    c = train_rf((X, y), RfParams(), seed=10).predict_proba(Xt)
    assert not np.array_equal(a, c)


def test_svm_kernel_values():
    def k(kind, x, z, gamma):
        return _kernel_matrix(kind, np.array([x]), np.array([z]), gamma)[0, 0]

    x = [1.0, 2.0, 3.0]
    assert k("rbf", x, x, gamma=0.7) == pytest.approx(1.0)
    a = [1.0, 0.0]
    b = [0.0, 5.0]
    assert k("linear", a, b, gamma=1.0) == pytest.approx(0.0)
    assert k("rbf", a, b, gamma=0.1) == pytest.approx(math.exp(-0.1 * 26.0))
    assert k("poly", a, b, gamma=2.0) == pytest.approx(1.0)  # (0+1)^3
    assert k("poly", a, a, gamma=2.0) == pytest.approx(27.0)  # (2+1)^3
    with pytest.raises(ValueError):
        k("sigmoid", a, b, 1.0)


def test_svm_two_point_problem():
    X = np.array([[-1.0], [1.0]])
    y = np.array([0, 1])
    m = train_svm((X, y), SvmParams(kernel="linear", c=10.0), seed=0)
    assert list(m.predict(X)) == [0, 1]
    p = m.predict_proba(X)
    assert p[0] < 0.5 < p[1]


def test_svm_single_class_error():
    X = np.random.default_rng(0).standard_normal((8, 3))
    with pytest.raises(ValueError, match="each class"):
        train_svm((X, np.zeros(8, dtype=int)), SvmParams(), 0)


def test_svm_deterministic():
    rng = np.random.default_rng(11)
    X, y = _blobs(rng, 100, 2.0)
    Xt = rng.standard_normal((50, 16))
    a = train_svm((X, y), SvmParams(), seed=4).predict_proba(Xt)
    b = train_svm((X, y), SvmParams(), seed=4).predict_proba(Xt)
    assert np.array_equal(a, b)


def test_svm_probabilities_in_unit_interval():
    rng = np.random.default_rng(12)
    X, y = _blobs(rng, 150, 4.0)
    for kernel in ("linear", "rbf", "poly"):
        m = train_svm((X, y), SvmParams(kernel=kernel, gamma=0.1), seed=1)
        p = m.predict_proba(rng.standard_normal((100, 16)) * 3)
        assert ((p >= 0) & (p <= 1)).all()


def test_all_members_accurate_on_6sigma_blobs():
    rng = np.random.default_rng(2026)
    Xtr, ytr = _blobs(rng, 500, 6.0)
    Xte, yte = _blobs(rng, 500, 6.0)
    gbt = train_gbt((Xtr, ytr), XgbParams(), seed=1)
    rf = train_rf((Xtr, ytr), RfParams(), seed=2)
    svm = train_svm((Xtr, ytr), SvmParams(), seed=3)
    for m in (gbt, rf, svm):
        assert (m.predict(Xte) == yte).mean() >= 0.95


def test_fuse_unanimity():
    out = fuse([(1, 0.9), (1, 0.9), (1, 0.9)])
    assert out.label == 1
    assert out.confidence == pytest.approx(0.9)


def test_fuse_hand_example():
    # object probabilities 0.9, 0.8, 0.1 -> sums 1.8 vs 1.2
    out = fuse([(1, 0.9), (1, 0.8), (0, 0.9)])
    assert out.label == 1
    assert out.confidence == pytest.approx(0.6)


def test_fuse_tie_uses_member_precedence():
    out = fuse([(1, 0.5), (0, 0.5), (0, 0.5)])
    assert out.label == 1  # gbt's label wins the 1.5 vs 1.5 tie
    assert out.confidence == pytest.approx(0.5)
    out = fuse([(0, 0.5), (1, 0.5), (1, 0.5)])
    assert out.label == 0


def test_fuse_identical_members_match_single():
    for p in (0.2, 0.5, 0.8):
        lab = 1 if p >= 0.5 else 0
        member = (lab, max(p, 1 - p))
        out = fuse([member, member, member])
        assert out.label == member[0]
        assert out.confidence == pytest.approx(member[1])


def test_fuse_probability_range_error():
    with pytest.raises(ValueError, match="outside"):
        fuse([(1, 1.2), (0, 0.5), (0, 0.5)])
    with pytest.raises(ValueError, match="outside"):
        fuse([(1, 0.9), (0, -0.1), (0, 0.5)])


def test_fuse_needs_three_members():
    with pytest.raises(ValueError):
        fuse([(1, 0.9), (0, 0.5)])


def test_fuse_permutation_invariant_without_tie():
    import itertools

    preds = [(1, 0.9), (1, 0.7), (0, 0.8)]
    base = fuse(preds)
    for perm in itertools.permutations(preds):
        out = fuse(list(perm))
        assert out.label == base.label
        assert out.confidence == pytest.approx(base.confidence)


def test_ensemble_beats_best_member_statistically():
    # moderate separation so members actually err, >= 20 seeds
    accs = {"gbt": [], "rf": [], "svm": [], "ens": []}
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        Xtr, ytr = _blobs(rng, 150, 2.0)
        Xte, yte = _blobs(rng, 300, 2.0)
        ens = EnsembleClassifier.train((Xtr, ytr), EnsembleParams(), seed=seed)
        accs["gbt"].append((ens.gbt.predict(Xte) == yte).mean())
        accs["rf"].append((ens.rf.predict(Xte) == yte).mean())
        accs["svm"].append((ens.svm.predict(Xte) == yte).mean())
        fused = (ens.positive_probability(Xte) >= 0.5).astype(int)
        accs["ens"].append((fused == yte).mean())
    best_member = max(np.mean(accs[m]) for m in ("gbt", "rf", "svm"))
    assert np.mean(accs["ens"]) >= best_member


class _FixedMember:
    """A stand-in ensemble member with given P(class 1) per row."""

    def __init__(self, p):
        self.p = np.asarray(p, dtype=float)

    def predict_proba(self, X):
        return self.p


# the vote boundary, both sides of it by one ulp, and the extremes
EDGE_PROBS = (0.0, 1.0, 0.5, 0.5 - 2.0**-54, 0.5 + 2.0**-53)
MEMBER_PROB = st.one_of(st.sampled_from(EDGE_PROBS), st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(MEMBER_PROB, MEMBER_PROB, MEMBER_PROB),
                min_size=1, max_size=20))
def test_ensemble_predict_uses_fuse(rows):
    """predict's column-wise vote equals the scalar fuse on every row, in
    label and bit for bit in confidence."""
    P = np.array(rows, dtype=float)
    ens = EnsembleClassifier(*(_FixedMember(P[:, k]) for k in range(3)))
    labels, conf = ens.predict(np.zeros((len(P), 1)))
    assert labels.shape == conf.shape == (len(P),)
    for row, label, c in zip(rows, labels.tolist(), conf.tolist()):
        ref = fuse([(1, p) if p >= 0.5 else (0, 1.0 - p) for p in row])
        assert label == ref.label
        assert c == ref.confidence


def test_ensemble_predict_on_trained_members():
    rng = np.random.default_rng(77)
    Xtr, ytr = _blobs(rng, 200, 6.0)
    ens = EnsembleClassifier.train((Xtr, ytr), EnsembleParams(), seed=0)
    Xte, yte = _blobs(rng, 50, 6.0)
    labels, conf = ens.predict(Xte)
    assert (labels == yte).mean() >= 0.95
    assert ((conf >= 0.5) & (conf <= 1.0)).all()


def test_empty_data_rejected():
    with pytest.raises(ValueError):
        train_rf((np.zeros((0, 4)), np.zeros(0, dtype=int)), RfParams(), 0)
    with pytest.raises(ValueError):
        train_gbt([], XgbParams(), 0)


def test_data_must_be_an_xy_pair():
    rows = [([0.0, 1.0], 0), ([1.0, 0.0], 1)]
    with pytest.raises(ValueError, match="pair"):
        train_gbt(rows, XgbParams(), 0)
    with pytest.raises(ValueError, match="pair"):
        train_svm((np.zeros((3, 2)), np.array([0, 1])), SvmParams(), 0)


def test_gbt_handles_constant_features():
    X = np.zeros((20, 4))
    X[:10, 0] = 1.0
    y = np.array([1] * 10 + [0] * 10)
    m = train_gbt((X, y), XgbParams(n_trees=5, max_depth=2), 0)
    assert (m.predict(X) == y).all()
    assert math.isfinite(m.base_score)
