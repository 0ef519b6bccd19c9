"""Tests for the discrete left-right HMMs.

The forward recursion is checked against a brute-force enumeration of all
N^T state paths in plain Python floats; Baum-Welch against EM's defining
properties (monotone likelihood, fixed points, beating the generator).
"""

import math
from itertools import product

import numpy as np
import pytest

from signflow.hmm import (
    EPS_P,
    DiscreteHMM,
    GestureResponse,
    baum_welch,
    baum_welch_classes,
    classify_gesture,
    forward_log_likelihood,
    init_left_right,
)
from signflow.skeleton import EmptyInputError

from hmm_records import arrays, single, stack


def enumerate_log_likelihood(hmm, obs):
    """Sum joint path probabilities over every state path, scalar math."""
    pi, A, B = arrays(hmm)
    total = 0.0
    for path in product(range(hmm.n_states), repeat=len(obs)):
        p = pi[path[0]] * B[path[0], obs[0]]
        for t in range(1, len(obs)):
            p *= A[path[t - 1], path[t]] * B[path[t], obs[t]]
        total += p
    return math.log(total) if total > 0.0 else float("-inf")


def random_left_right(rng, n, k):
    pi = rng.dirichlet(np.ones(n))
    A = np.zeros((n, n))
    for i in range(n - 1):
        u = rng.uniform(0.05, 0.95)
        A[i, i], A[i, i + 1] = u, 1.0 - u
    A[n - 1, n - 1] = 1.0
    B = rng.uniform(0.1, 1.0, size=(n, k))
    B /= B.sum(axis=1, keepdims=True)
    return single(pi, A, B)


def sample_sequence(rng, hmm, length):
    pi, A, B = arrays(hmm)
    state = int(rng.choice(hmm.n_states, p=pi))
    out = []
    for _ in range(length):
        out.append(int(rng.choice(hmm.n_symbols, p=B[state])))
        state = int(rng.choice(hmm.n_states, p=A[state]))
    return np.array(out)


class TestInitLeftRight:
    def test_four_state_layout(self):
        m = init_left_right(4, 100)
        want_A = np.array([
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.5, 0.5, 0.0],
            [0.0, 0.0, 0.5, 0.5],
            [0.0, 0.0, 0.0, 1.0],
        ])
        np.testing.assert_array_equal(m.A, [want_A])
        np.testing.assert_array_equal(m.pi, [[1, 0, 0, 0]])
        np.testing.assert_array_equal(m.B, np.full((1, 4, 100), 0.01))

    def test_single_state(self):
        m = init_left_right(1, 2)
        np.testing.assert_array_equal(m.A, [[[1.0]]])
        np.testing.assert_array_equal(m.pi, [[1.0]])
        np.testing.assert_array_equal(m.B, [[[0.5, 0.5]]])

    def test_rows_stochastic(self):
        for n in (1, 2, 5, 8):
            m = init_left_right(n, 7)
            np.testing.assert_allclose(m.A.sum(axis=-1), 1.0, atol=1e-12)
            np.testing.assert_allclose(m.B.sum(axis=-1), 1.0, atol=1e-12)
            assert m.pi.sum() == 1.0

    def test_every_class_gets_the_one_class_model(self):
        one, three = init_left_right(4, 5), init_left_right(4, 5, 3)
        assert len(one) == 1 and len(three) == 3
        for name in ("pi", "A", "B"):
            want = getattr(one, name)
            assert getattr(three, name).tobytes() == np.concatenate([want] * 3).tobytes()

    def test_zero_counts_rejected(self):
        with pytest.raises(ValueError):
            init_left_right(0, 5)
        with pytest.raises(ValueError):
            init_left_right(5, 0)
        with pytest.raises(ValueError):
            init_left_right(5, 5, 0)


class TestDiscreteHMMValidation:
    def test_left_right_violation_rejected(self):
        A = np.array([[0.5, 0.25, 0.25], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]])
        B = np.full((3, 2), 0.5)
        with pytest.raises(ValueError):
            single(np.array([1.0, 0, 0]), A, B)
        # in any class of the record, a backward step too
        back = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="left-right support"):
            stack([init_left_right(3, 2), single(np.array([1.0, 0, 0]), back, B)])

    def test_bad_row_sum_rejected(self):
        m = init_left_right(3, 2)
        bad_B = m.B.copy()
        bad_B[0, 0, 0] = 0.9
        with pytest.raises(ValueError):
            DiscreteHMM(m.pi, m.A, bad_B)

    def test_nan_class_hides_no_bad_row_sum(self):
        # a NaN class passes the row-sum check, as a diverged training
        # must; another class's bad row is still found
        m = init_left_right(3, 2, 2)
        B = m.B.copy()
        B[0] = np.nan
        B[1, 2, 0] = 0.9
        with pytest.raises(ValueError, match="B row sums off by 4.00e-01"):
            DiscreteHMM(m.pi, m.A, B)
        B[1, 2, 0] = 0.5
        assert len(DiscreteHMM(m.pi, m.A, B)) == 2

    def test_sizes_come_from_B(self):
        m = init_left_right(3, 7)
        assert (len(m), m.n_states, m.n_symbols) == (1, 3, 7)
        one = single(np.array([1.0]), np.array([[1.0]]), np.array([[0.25, 0.75]]))
        assert (len(one), one.n_states, one.n_symbols) == (1, 1, 2)
        assert len(init_left_right(3, 7, 5)) == 5

    @pytest.mark.parametrize("B", [np.full((1, 2), 0.5), np.array([]),
                                   np.empty((1, 1, 0)), np.full((1, 1, 1, 1), 1.0)])
    def test_B_must_be_a_non_empty_matrix(self, B):
        with pytest.raises(ValueError, match="B must be a non-empty"):
            DiscreteHMM(np.array([[1.0]]), np.array([[[1.0]]]), B)

    def test_zero_classes_rejected(self):
        # a record holds at least one class
        with pytest.raises(ValueError, match="B must be a non-empty"):
            DiscreteHMM(np.empty((0, 2)), np.empty((0, 2, 2)), np.empty((0, 2, 3)))

    def test_pi_and_A_must_match_B(self):
        m = init_left_right(3, 2)
        with pytest.raises(ValueError, match="for 3 states"):
            DiscreteHMM(m.pi[:, :2], m.A, m.B)
        with pytest.raises(ValueError, match="for 3 states"):
            DiscreteHMM(m.pi, m.A[:, :2, :2], m.B)
        with pytest.raises(ValueError, match=r"\(2, 3, 3\) for 3 states"):
            DiscreteHMM(np.concatenate([m.pi] * 2), m.A, np.concatenate([m.B] * 2))

    def test_iteration_yields_one_class_views(self):
        m = stack([init_left_right(3, 2), random_left_right(np.random.default_rng(2), 3, 2)])
        views = list(m)
        assert len(views) == 2
        for j, view in enumerate(views):
            assert len(view) == 1
            for name in ("pi", "A", "B"):
                assert getattr(view, name).base is not None
                np.testing.assert_array_equal(getattr(view, name)[0], getattr(m, name)[j])


class TestStepTable:
    """Each record derives scoring's step matrices and underflow constant
    once, from its arrays alone."""

    def test_each_symbol_then_the_identity(self):
        rng = np.random.default_rng(7)
        m = stack([random_left_right(rng, 4, 5) for _ in range(3)])
        assert m.steps.shape == (6, 3, 4, 4)
        for c in range(3):
            for s in range(5):
                assert m.steps[s, c].tobytes() == (m.A[c] * m.B[c, :, s]).tobytes()
            assert m.steps[5, c].tobytes() == np.eye(4).tobytes()
        want = m.A.min(where=m.A > 0.0, initial=1.0) * m.B.min(where=m.B > 0.0, initial=1.0)
        assert m.low == want

    def test_rebuilt_record_scores_alike(self):
        # a record rebuilt from its arrays' values, as a loaded bundle is,
        # scores short and multi-block probes with the same bytes
        rng = np.random.default_rng(8)
        m = stack([random_left_right(rng, 5, 6) for _ in range(4)])
        rebuilt = DiscreteHMM(*(np.array(getattr(m, p).tolist()) for p in ("pi", "A", "B")))
        for length in (1, 2, 3, 17, 40, 200):
            obs = rng.integers(6, size=length)
            got = classify_gesture(rebuilt, obs).values
            assert got.tobytes() == classify_gesture(m, obs).values.tobytes()


class TestGestureResponse:
    def test_best_class_is_the_first_maximum(self):
        assert GestureResponse(np.array([-3.0, -1.0, -1.0])).best_class == 1
        assert GestureResponse(np.array([-np.inf, -np.inf])).best_class == 0

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            GestureResponse(np.array([]))


class TestForward:
    def test_single_state_product_of_emissions(self):
        m = init_left_right(1, 2)
        ll = forward_log_likelihood(m, np.array([0, 1, 0]))
        assert abs(ll - math.log(0.125)) < 1e-12

    def test_impossible_symbol_gives_neg_inf(self):
        m = single(np.array([1.0]), np.array([[1.0]]), np.array([[1.0, 0.0]]))
        assert forward_log_likelihood(m, np.array([0, 1])) == float("-inf")

    def test_matches_path_enumeration(self):
        rng = np.random.default_rng(21)
        for trial in range(60):
            n = int(rng.integers(1, 4))
            k = int(rng.integers(2, 5))
            t = int(rng.integers(1, 7))
            m = random_left_right(rng, n, k)
            obs = rng.integers(0, k, size=t)
            got = forward_log_likelihood(m, obs)
            want = enumerate_log_likelihood(m, obs)
            assert abs(got - want) <= 1e-9 * abs(want)

    def test_long_sequence_no_underflow(self):
        m = init_left_right(6, 10)
        rng = np.random.default_rng(22)
        obs = rng.integers(0, 10, size=5000)
        ll = forward_log_likelihood(m, obs)
        assert math.isfinite(ll)
        # uniform emissions: every path emits (1/10)^T
        assert abs(ll - 5000 * math.log(0.1)) < 1e-6

    def test_symbol_out_of_range(self):
        m = init_left_right(2, 3)
        with pytest.raises(ValueError):
            forward_log_likelihood(m, np.array([0, 3]))

    def test_empty_rejected(self):
        m = init_left_right(2, 3)
        with pytest.raises(EmptyInputError):
            forward_log_likelihood(m, np.array([], dtype=int))

    def test_scores_one_class_only(self):
        with pytest.raises(ValueError, match="scores one model, got 2"):
            forward_log_likelihood(init_left_right(2, 3, 2), np.array([0, 1]))

    def test_accepts_any_integer_sequence(self):
        m = init_left_right(2, 3)
        want = forward_log_likelihood(m, np.array([0, 1, 2]))
        assert forward_log_likelihood(m, [0, 1, 2]) == want
        assert forward_log_likelihood(m, np.array([0, 1, 2], dtype=np.int32)) == want

    def test_negative_symbol_rejected(self):
        # symbols are plain arrays: a model rejects a negative one on entry
        m = init_left_right(2, 3)
        with pytest.raises(ValueError):
            forward_log_likelihood(m, np.array([1, -2]))
        with pytest.raises(ValueError):
            classify_gesture(stack([m, m]), np.array([1, -2]))
        with pytest.raises(ValueError):
            baum_welch(m, [np.array([0, 1]), np.array([1, -2])], max_iter=50, tol=1e-6)
        with pytest.raises(EmptyInputError):
            classify_gesture(m, np.array([], dtype=np.int64))


class TestBaumWelch:
    def test_constant_data_concentrates_emissions(self):
        m = init_left_right(3, 5)
        train = [np.zeros(12, dtype=int) for _ in range(4)]
        trained, report = baum_welch(m, train, max_iter=20, tol=1e-6)
        assert np.all(trained.B[0, :, 0] >= 1.0 - 5 * EPS_P)
        assert report.iterations >= 1

    def test_max_iter_zero_is_noop(self):
        m = init_left_right(3, 4)
        train = [np.array([0, 1, 2])]
        trained, report = baum_welch(m, train, max_iter=0, tol=1e-6)
        np.testing.assert_array_equal(trained.A, m.A)
        np.testing.assert_array_equal(trained.B, m.B)
        assert report.log_likelihoods == []
        assert not report.converged

    def test_monotone_log_likelihood(self):
        rng = np.random.default_rng(23)
        for trial in range(12):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(3, 7))
            gen = random_left_right(rng, n, k)
            train = [sample_sequence(rng, gen, int(rng.integers(5, 15)))
                     for _ in range(6)]
            m = init_left_right(n, k)
            _, report = baum_welch(m, train, max_iter=15, tol=-math.inf)
            ll = np.array(report.log_likelihoods)
            assert np.all(np.diff(ll) >= -1e-8), f"trial {trial}: {ll}"

    def test_structure_preserved_after_every_iteration(self):
        rng = np.random.default_rng(24)
        gen = random_left_right(rng, 3, 4)
        train = [sample_sequence(rng, gen, 10) for _ in range(5)]
        init = init_left_right(3, 4)
        off = ~np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]], dtype=bool)
        for iters in range(1, 9):
            m, _ = baum_welch(init, train, max_iter=iters, tol=-math.inf)
            assert np.all(m.A[0][off] == 0.0)
            np.testing.assert_allclose(m.A.sum(axis=-1), 1.0, atol=1e-9)
            np.testing.assert_allclose(m.B.sum(axis=-1), 1.0, atol=1e-9)
            np.testing.assert_array_equal(m.pi, [[1.0, 0.0, 0.0]])
            assert np.all(m.B >= EPS_P * (1 - 1e-12))

    def test_beats_generator_on_training_set(self):
        rng = np.random.default_rng(25)
        gen = random_left_right(rng, 2, 4)
        train = [sample_sequence(rng, gen, 12) for _ in range(10)]
        trained, _ = baum_welch(init_left_right(2, 4), train, max_iter=60, tol=1e-9)
        ll_gen = sum(enumerate_log_likelihood(gen, s) for s in train)
        ll_fit = sum(enumerate_log_likelihood(trained, s) for s in train)
        assert ll_fit >= ll_gen - 1e-6

    def test_empty_training_rejected(self):
        with pytest.raises(EmptyInputError):
            baum_welch(init_left_right(2, 3), [], max_iter=50, tol=1e-6)

    def test_out_of_range_training_symbol(self):
        with pytest.raises(ValueError):
            baum_welch(init_left_right(2, 3), [np.array([0, 5])], max_iter=50, tol=1e-6)

    def test_iteration_budget_and_tolerance_are_required(self):
        m, train = init_left_right(2, 3), [np.array([0, 1, 2])]
        with pytest.raises(TypeError):
            baum_welch(m, train)
        with pytest.raises(TypeError):
            baum_welch(m, train, max_iter=5)
        with pytest.raises(TypeError):
            baum_welch_classes(m, [train])

    def test_iterations_count_the_log_likelihoods(self):
        m = init_left_right(2, 3)
        _, report = baum_welch(m, [np.array([0, 1, 2, 2])], max_iter=4, tol=-math.inf)
        assert report.iterations == len(report.log_likelihoods) == 4

    def test_convergence_flag(self):
        m = init_left_right(2, 3)
        train = [np.array([0, 0, 1, 1, 2, 2])] * 3
        _, report = baum_welch(m, train, max_iter=200, tol=1e-6)
        assert report.converged
        assert report.iterations < 200


class TestClassifyGesture:
    def test_identical_models_tie_to_class_zero(self):
        m = init_left_right(3, 4)
        obs = np.array([0, 1, 2, 3])
        resp = classify_gesture(stack([m, m, m]), obs)
        assert resp.best_class == 0
        assert np.all(resp.values == resp.values[0])

    def test_trained_model_wins_on_its_data(self):
        rng = np.random.default_rng(26)
        const = [np.full(10, 2)] * 4
        specialist, _ = baum_welch(init_left_right(2, 5), const, max_iter=20, tol=1e-6)
        rival = init_left_right(2, 5)
        resp = classify_gesture(stack([rival, specialist]), np.full(10, 2))
        assert resp.best_class == 1

    def test_length_normalization(self):
        m = init_left_right(2, 3)
        obs = np.array([0, 1, 2, 0, 1, 2])
        resp = classify_gesture(m, obs)
        raw = forward_log_likelihood(m, obs)
        assert abs(resp.values[0] - raw / 6) < 1e-12

    def test_matches_per_model_oracle(self):
        rng = np.random.default_rng(27)
        for trial in range(20):
            models = [random_left_right(rng, 2, 4) for _ in range(3)]
            obs = rng.integers(0, 4, size=5)
            resp = classify_gesture(stack(models), obs)
            oracle = np.array([enumerate_log_likelihood(m, obs) for m in models]) / 5
            np.testing.assert_allclose(resp.values, oracle, rtol=1e-9)
            assert resp.best_class == int(oracle.argmax())

