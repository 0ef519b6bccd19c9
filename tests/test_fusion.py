"""Tests for the late-fusion stage (linear rule and KDE MAP rule)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from signflow.fusion import (
    BW_FLOOR,
    CLAMP_FLOOR,
    CoupledResponse,
    KdeFusionModel,
    couple,
    kde_class_log_posteriors,
    predict_kde,
    predict_linear,
    silverman_bandwidths,
    train_kde_fusion,
    train_linear_fusion,
)
from signflow.hmm import GestureResponse
from signflow.linear_model import MulticlassLinearModel
from signflow.pipeline import items_from_corpus, predict_item, train_pipeline
from signflow.skeleton import JointId
from signflow.synthetic import ClassSpec, SyntheticConfig, generate_synthetic_corpus


def kde_log_density(train, bandwidths, query):
    """Oracle: log of one class's product-Gaussian KDE at one query point,
    with the float steps of the per-class loop the stacked pass replaced."""
    z = (query - train) / bandwidths
    exponents = -0.5 * (z * z).sum(axis=1)
    log_norm = np.log(bandwidths).sum() + 0.5 * train.shape[1] * np.log(2.0 * np.pi)
    return float(logsumexp(exponents) - log_norm - np.log(train.shape[0]))


def oracle_log_posteriors(model, query):
    return np.array([
        kde_log_density(model.class_points[c], model.bandwidths[c], query)
        + np.log(model.priors[c])
        for c in range(model.n_classes)
    ])


def training_accuracy(model, X, y):
    """Share of rows whose highest-scoring class is their label."""
    return float(((np.asarray(X) @ model.weights.T).argmax(axis=1) == y).mean())


def make_rg(values):
    v = np.asarray(values, dtype=np.float64)
    return GestureResponse(values=v, best_class=int(np.nanargmax(np.nan_to_num(v, neginf=-1e18))))


class TestCouple:
    def test_plain_concatenation(self):
        r = couple(np.array([1.0, 2.0]), make_rg([-3.0, -4.0]))
        np.testing.assert_array_equal(r.values, [1.0, 2.0, -3.0, -4.0])

    def test_neg_inf_clamped(self):
        r = couple(np.array([0.0, 0.0]), make_rg([-np.inf, -5.0]))
        assert r.values[2] == CLAMP_FLOOR
        assert r.values[3] == -5.0

    def test_custom_clamp(self):
        r = couple(np.array([0.0]), make_rg([-np.inf]), clamp=-50.0)
        assert r.values[1] == -50.0

    def test_order_and_length(self):
        rng = np.random.default_rng(60)
        rp = rng.normal(size=5)
        rgv = rng.normal(size=5)
        r = couple(rp, make_rg(rgv))
        assert r.values.shape == (10,)
        np.testing.assert_array_equal(r.values[:5], rp)
        np.testing.assert_array_equal(r.values[5:], rgv)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            couple(np.zeros(3), make_rg(np.zeros(4)))


def coupled(values):
    return CoupledResponse(values=np.asarray(values, dtype=np.float64))


class TestLinearFusion:
    def separable_pairs(self, rng, n_per=12):
        # class decided by the sign of coordinate 2 (first gesture slot)
        pairs = []
        for c in (0, 1):
            for _ in range(n_per):
                v = rng.normal(scale=0.1, size=4)
                v[2] = (1.0 if c == 0 else -1.0) + rng.normal(scale=0.05)
                pairs.append((coupled(v), c))
        return pairs

    def test_separable_training_accuracy(self):
        rng = np.random.default_rng(61)
        pairs = self.separable_pairs(rng)
        model = train_linear_fusion(pairs, seed=1)
        X = np.stack([r.values for r, _ in pairs])
        y = np.array([c for _, c in pairs])
        assert training_accuracy(model, X, y) == 1.0

    def test_deterministic(self):
        rng = np.random.default_rng(62)
        pairs = self.separable_pairs(rng)
        a = train_linear_fusion(pairs, seed=5)
        b = train_linear_fusion(pairs, seed=5)
        assert a.weights.tobytes() == b.weights.tobytes()

    def test_gesture_dominant_weights(self):
        # posture slots pure noise, gesture slots carry the class; the
        # oracle retrains with posture coordinates zeroed and must do as
        # well, confirming they carry nothing
        rng = np.random.default_rng(63)
        pairs = []
        for c in (0, 1):
            for _ in range(25):
                v = np.empty(4)
                v[:2] = rng.normal(scale=1.0, size=2)
                v[2] = 2.0 if c == 0 else -2.0
                v[3] = -v[2]
                v[2:] += rng.normal(scale=0.05, size=2)
                pairs.append((coupled(v), c))
        model = train_linear_fusion(pairs, seed=2)
        w = np.abs(model.weights)
        gesture_mass = w[:, 2:].sum()
        posture_mass = w[:, :2].sum()
        assert gesture_mass >= 2.0 * posture_mass
        zeroed = [(coupled(np.concatenate([np.zeros(2), r.values[2:]])), c)
                  for r, c in pairs]
        zmodel = train_linear_fusion(zeroed, seed=2)
        Xz = np.stack([r.values for r, _ in zeroed])
        y = np.array([c for _, c in pairs])
        assert training_accuracy(zmodel, Xz, y) == 1.0

    def test_dimension_must_be_twice_classes(self):
        pairs = [(coupled(np.zeros(6)), c) for c in (0, 1)]
        with pytest.raises(ValueError):
            train_linear_fusion(pairs)

    def test_single_class_rejected(self):
        pairs = [(coupled(np.zeros(2)), 0)]
        with pytest.raises(ValueError):
            train_linear_fusion(pairs)


class TestPredictLinear:
    def identity_model(self):
        rng = np.random.default_rng(64)
        pairs = []
        for c in (0, 1, 2):
            for _ in range(8):
                v = np.zeros(6)
                v[c] = 1.0 + rng.normal(scale=0.01)
                pairs.append((coupled(v), c))
        return train_linear_fusion(pairs, seed=0)

    def test_posture_one_hot_routes(self):
        model = self.identity_model()
        v = np.zeros(6)
        v[2] = 1.0
        assert predict_linear(model, coupled(v)) == 2

    def test_all_zero_ties_to_class_zero(self):
        model = self.identity_model()
        assert predict_linear(model, coupled(np.zeros(6))) == 0

    def test_matches_row_scan_oracle(self):
        model = self.identity_model()
        rng = np.random.default_rng(65)
        for _ in range(40):
            v = rng.normal(size=6)
            scores = [sum(a * b for a, b in zip(row, v)) for row in model.weights]
            best = max(range(3), key=lambda k: (scores[k], -k))
            assert predict_linear(model, coupled(v)) == best

    def test_scale_invariance(self):
        model = self.identity_model()
        scaled = MulticlassLinearModel(weights=model.weights * 13.0,
                                       n_classes=model.n_classes)
        rng = np.random.default_rng(66)
        for _ in range(20):
            v = rng.normal(size=6)
            assert predict_linear(model, coupled(v)) == predict_linear(scaled, coupled(v))


class TestSilverman:
    def test_formula(self):
        rng = np.random.default_rng(67)
        x = rng.normal(loc=2.0, scale=3.0, size=(200, 1))
        h = silverman_bandwidths(x)
        iqr = np.percentile(x[:, 0], 75) - np.percentile(x[:, 0], 25)
        want = 0.9 * min(x[:, 0].std(), iqr / 1.34) * 200 ** (-0.2)
        assert abs(h[0] - want) < 1e-12

    def test_floor_on_constant_data(self):
        x = np.full((10, 3), 4.2)
        h = silverman_bandwidths(x)
        np.testing.assert_array_equal(h, BW_FLOOR)


class TestKdeFusion:
    def test_query_at_class_point_wins(self):
        # four classes, one well-separated 4-D point each: querying at a
        # class's own point must return that class
        locs = [(-9.0, -9.0), (-3.0, 0.0), (3.0, 0.0), (9.0, 9.0)]
        pairs = [(coupled(np.array([a, b, -a, -b])), c)
                 for c, (a, b) in enumerate(locs)]
        model = train_kde_fusion(pairs)
        for c, (a, b) in enumerate(locs):
            q = coupled(np.array([a, b, -a, -b]))
            assert predict_kde(model, q) == c

    def test_priors_separate_identical_densities(self):
        # both classes sit on the same constant point, so their floored
        # kernels are identical functions and only the priors differ
        p = np.array([0.5, -0.5, 1.0, -1.0])
        pairs = [(coupled(p), 0) for _ in range(9)] + [(coupled(p), 1)]
        model = train_kde_fusion(pairs)
        np.testing.assert_allclose(model.priors, [0.9, 0.1])
        for q in (p, p + 2e-7):
            lp = kde_class_log_posteriors(model, coupled(q))
            assert abs((lp[0] - lp[1]) - math.log(9.0)) < 1e-9
            assert predict_kde(model, coupled(q)) == 0

    def test_density_matches_scalar_oracle(self):
        rng = np.random.default_rng(69)
        train = rng.normal(size=(12, 3))
        h = silverman_bandwidths(train)
        for _ in range(20):
            q = rng.normal(size=3)
            got = kde_log_density(train, h, q)
            dens = 0.0
            for row in train:
                k = 1.0
                for d in range(3):
                    z = (q[d] - row[d]) / h[d]
                    k *= math.exp(-0.5 * z * z) / (h[d] * math.sqrt(2 * math.pi))
                dens += k
            want = math.log(dens / 12)
            assert abs(got - want) < 1e-9

    def test_decision_boundary_near_grid_oracle(self):
        # two 1-D clusters (other coordinates constant); the fused rule's
        # sign change must sit within 0.1 of the dense-grid comparison of
        # the same class densities
        rng = np.random.default_rng(70)
        a = rng.normal(loc=-2.0, scale=1.0, size=50)
        b = rng.normal(loc=2.0, scale=1.0, size=50)
        pairs = [(coupled(np.array([x, 0.0, 0.0, 0.0])), 0) for x in a]
        pairs += [(coupled(np.array([x, 0.0, 0.0, 0.0])), 1) for x in b]
        model = train_kde_fusion(pairs)
        grid = np.linspace(-4, 4, 1601)

        def density(train_pts, h, x):
            return sum(math.exp(-0.5 * ((x - p) / h) ** 2) / (h * math.sqrt(2 * math.pi))
                       for p in train_pts) / len(train_pts)

        ha = silverman_bandwidths(a[:, None])[0]
        hb = silverman_bandwidths(b[:, None])[0]
        oracle_sign = np.array([density(a, ha, x) >= density(b, hb, x) for x in grid])
        oracle_boundary = grid[np.argmin(oracle_sign)]  # first False
        preds = [predict_kde(model, coupled(np.array([x, 0.0, 0.0, 0.0])))
                 for x in grid]
        got_boundary = grid[int(np.argmax(np.array(preds) == 1))]
        assert abs(got_boundary - oracle_boundary) <= 0.1

    def test_log_posterior_shift_invariance(self):
        rng = np.random.default_rng(71)
        pairs = [(coupled(rng.normal(size=4)), c) for c in (0, 1) for _ in range(10)]
        model = train_kde_fusion(pairs)
        q = coupled(rng.normal(size=4))
        lp = kde_class_log_posteriors(model, q)
        assert predict_kde(model, q) == int(lp.argmax())

    def test_empty_class_rejected(self):
        pairs = [(coupled(np.zeros(4)), 0), (coupled(np.ones(4)), 2)]
        with pytest.raises(ValueError):
            train_kde_fusion(pairs)

    def test_dimension_mismatch_at_predict(self):
        rng = np.random.default_rng(72)
        pairs = [(coupled(rng.normal(size=4)), c) for c in (0, 1) for _ in range(5)]
        model = train_kde_fusion(pairs)
        with pytest.raises(ValueError):
            predict_kde(model, coupled(np.zeros(6)))


@st.composite
def kde_models(draw):
    """KDE models with unequal class sizes; some classes are constant, so
    their bandwidths sit on the floor."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    n_classes = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(1, 9), min_size=n_classes,
                          max_size=n_classes))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    rng = np.random.default_rng(seed)
    dim = 2 * n_classes
    points = []
    for n in sizes:
        p = rng.normal(size=(n, dim)) * scale
        if rng.random() < 0.3:
            p[:] = p[0]
        points.append(p)
    bandwidths = np.stack([silverman_bandwidths(p) for p in points])
    priors = np.array(sizes) / sum(sizes)
    model = KdeFusionModel(class_points=points, bandwidths=bandwidths,
                           priors=priors)
    queries = rng.normal(size=(4, dim)) * scale
    queries[0] = points[-1][0]
    return model, queries


class TestStackedKde:
    @settings(max_examples=200, deadline=None)
    @given(kde_models())
    def test_bytes_equal_per_class_oracle(self, case):
        model, queries = case
        for q in queries:
            got = kde_class_log_posteriors(model, coupled(q))
            assert got.tobytes() == oracle_log_posteriors(model, q).tobytes()
            assert np.isfinite(got).all()

    def test_noise_free_corpus_decision_is_finite(self):
        # with noise 0 every response of a class repeats, so every
        # bandwidth sits on the 1e-6 floor; the decision must stay finite
        config = SyntheticConfig(
            classes=[ClassSpec(template=0, anchor=JointId.Head, mask=0),
                     ClassSpec(template=1, anchor=JointId.Neck, mask=1)],
            counts=(3, 3, 2), noise=0.0, frame_count_range=(10, 10), seed=5)
        items = items_from_corpus(generate_synthetic_corpus(config))
        bundle = train_pipeline(items, {"gesture_k": 8, "posture_k": 8,
                                        "hmm_states": 3, "hmm_iters": 3,
                                        "epochs": 5, "seed": 1})
        model = bundle.fusion_kde
        assert np.all(model.bandwidths == BW_FLOOR)
        tests = [item for item in items if item.split == "test"]
        assert len(tests) == 4
        for item in tests:
            pred = predict_item(bundle, item.sequence, masks=item.masks)
            lp = kde_class_log_posteriors(model, pred.coupled)
            assert np.all(np.isfinite(lp))
            assert pred.fused_class == int(lp.argmax())


class TestCoupledResponseValidation:
    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            CoupledResponse(values=np.zeros(5))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            CoupledResponse(values=np.array([0.0, -np.inf]))
