"""Tests for the shared multiclass linear trainer."""

import numpy as np
import pytest

from signflow.linear_model import (
    MulticlassLinearModel,
    fit_multiclass_linear,
    response,
)
from signflow.skeleton import EmptyInputError


def training_accuracy(model, X, y):
    """Share of rows whose highest-scoring class is their label."""
    return float(((np.asarray(X) @ model.weights.T).argmax(axis=1) == y).mean())


def scan_argmax(W, x):
    """Scalar per-row dot products, first max wins."""
    best, best_s = 0, None
    for r in range(W.shape[0]):
        s = 0.0
        for a, b in zip(W[r], x):
            s += a * b
        if best_s is None or s > best_s:
            best, best_s = r, s
    return best


class TestFit:
    def test_orthogonal_one_hots_separable(self):
        X = np.zeros((20, 8))
        y = np.zeros(20, dtype=int)
        X[:10, 1] = 1.0
        X[10:, 5] = 1.0
        y[10:] = 1
        model = fit_multiclass_linear(X, y, cost=0.8352, seed=3)
        assert training_accuracy(model, X, y) == 1.0

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(30)
        X = rng.normal(size=(45, 6))
        y = rng.integers(0, 3, size=45)
        a = fit_multiclass_linear(X, y, cost=0.5, seed=9)
        b = fit_multiclass_linear(X, y, cost=0.5, seed=9)
        assert a.n_classes == 3
        assert a.weights.tobytes() == b.weights.tobytes()

    def test_gaussian_separated_three_class(self):
        rng = np.random.default_rng(31)
        centers = np.array([[4.0, 0.0], [0.0, 4.0], [-4.0, -4.0]])
        X = np.vstack([rng.normal(size=(30, 2)) * 0.3 + c for c in centers])
        y = np.repeat([0, 1, 2], 30)
        model = fit_multiclass_linear(X, y, cost=1.0, seed=1)
        assert training_accuracy(model, X, y) >= 0.95
        # every prediction agrees with the scalar row-scan oracle
        for i in range(X.shape[0]):
            assert response(model, X[i]).argmax() == scan_argmax(model.weights, X[i])

    def test_errors(self):
        with pytest.raises(EmptyInputError):
            fit_multiclass_linear(np.empty((0, 3)), np.empty(0, dtype=int), 1.0)
        X = np.zeros((4, 2))
        with pytest.raises(ValueError, match="X/y length mismatch"):
            fit_multiclass_linear(X, np.array([0, 1, 1]), cost=1.0)
        with pytest.raises(ValueError, match="need at least 2 classes"):
            fit_multiclass_linear(X, np.zeros(4, dtype=int), cost=1.0)
        with pytest.raises(ValueError, match="class 2 has no examples"):
            fit_multiclass_linear(X, np.array([0, 0, 1, 3]), cost=1.0)
        with pytest.raises(ValueError, match="label out of range"):
            fit_multiclass_linear(X, np.array([0, -1, 1, 1]), cost=1.0)
        with pytest.raises(ValueError, match="cost must be positive"):
            fit_multiclass_linear(X, np.array([0, 0, 1, 1]), cost=0.0)


class TestPredict:
    def make_model(self):
        W = np.array([[1.0, 0.0, 0.0],
                      [0.0, 1.0, 0.0],
                      [0.0, 0.0, 1.0]])
        return MulticlassLinearModel(weights=W)

    def test_one_hot_routing(self):
        m = self.make_model()
        assert response(m, np.array([0.0, 0.0, 2.0])).argmax() == 2

    def test_all_zero_ties_to_class_zero(self):
        m = self.make_model()
        assert response(m, np.zeros(3)).argmax() == 0

    def test_response_is_matrix_vector_product(self):
        rng = np.random.default_rng(33)
        W = rng.normal(size=(4, 7))
        m = MulticlassLinearModel(weights=W)
        for _ in range(50):
            x = rng.normal(size=7)
            r = response(m, x)
            oracle = np.array([sum(a * b for a, b in zip(row, x)) for row in W])
            np.testing.assert_allclose(r, oracle, rtol=1e-12)
            assert response(m, x).argmax() == scan_argmax(W, x)

    def test_linearity(self):
        rng = np.random.default_rng(34)
        W = rng.normal(size=(3, 5))
        m = MulticlassLinearModel(weights=W)
        p1, p2 = rng.normal(size=5), rng.normal(size=5)
        lhs = response(m, 2.0 * p1 + 3.0 * p2)
        rhs = 2.0 * response(m, p1) + 3.0 * response(m, p2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_dimension_mismatch(self):
        m = self.make_model()
        with pytest.raises(ValueError):
            response(m, np.zeros(4))

    def test_scale_invariance_of_argmax(self):
        rng = np.random.default_rng(35)
        W = rng.normal(size=(5, 4))
        m1 = MulticlassLinearModel(weights=W)
        m2 = MulticlassLinearModel(weights=W * 7.5)
        for _ in range(30):
            x = rng.normal(size=4)
            assert response(m1, x).argmax() == response(m2, x).argmax()
