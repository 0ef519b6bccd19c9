"""Property tests for the stacked HMM recursions.

The oracles are the per-model paths the stacked code replaced: one scaled
forward pass per (model, sequence), and Baum-Welch training one class at a
time with one forward and one backward pass per sequence. Every comparison
is exact, NaN included.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signflow.hmm import (
    EPS_P,
    NEG_INF,
    DiscreteHMM,
    TrainReport,
    _floor_row,
    _scaled_forward,
    baum_welch,
    baum_welch_classes,
    classify_gesture,
    forward_log_likelihood,
    init_left_right,
)
from signflow.skeleton import EmptyInputError


def oracle_forward(hmm, obs):
    """(alpha_hat, c) of one sequence, or (None, None) at probability zero."""
    T = obs.shape[0]
    alpha = np.empty((T, hmm.n_states))
    c = np.empty(T)
    a = hmm.pi * hmm.B[:, obs[0]]
    for t in range(T):
        if t > 0:
            a = (alpha[t - 1] @ hmm.A) * hmm.B[:, obs[t]]
        s = a.sum()
        if s <= 0.0:
            return None, None
        c[t] = s
        alpha[t] = a / s
    return alpha, c


def oracle_log_likelihood(hmm, obs):
    _, c = oracle_forward(hmm, obs)
    return NEG_INF if c is None else float(np.log(c).sum())


def oracle_backward(hmm, obs, c):
    T = obs.shape[0]
    beta = np.empty((T, hmm.n_states))
    beta[T - 1] = 1.0
    for t in range(T - 2, -1, -1):
        beta[t] = (hmm.A @ (hmm.B[:, obs[t + 1]] * beta[t + 1])) / c[t + 1]
    return beta


def oracle_baum_welch(hmm, seqs, max_iter, tol):
    """Multi-sequence EM with one forward pass per sequence."""
    pi, A, B = hmm.pi.copy(), hmm.A.copy(), hmm.B.copy()
    pi_sup, A_sup, B_sup = pi > 0.0, A > 0.0, B > 0.0
    report = TrainReport()
    for _ in range(max_iter):
        pi_cnt = np.zeros_like(pi)
        A_cnt = np.zeros_like(A)
        B_cnt = np.zeros_like(B)
        total_ll = 0.0
        cur = DiscreteHMM(hmm.n_states, hmm.n_symbols, pi, A, B)
        for obs in seqs:
            alpha, c = oracle_forward(cur, obs)
            if alpha is None:
                raise ValueError("training sequence has zero probability")
            beta = oracle_backward(cur, obs, c)
            gamma = alpha * beta
            total_ll += float(np.log(c).sum())
            pi_cnt += gamma[0]
            if obs.shape[0] > 1:
                m = (B[:, obs[1:]].T * beta[1:]) / c[1:, None]
                A_cnt += A * (alpha[:-1].T @ m)
            np.add.at(B_cnt.T, obs, gamma)
        report.log_likelihoods.append(total_ll)
        report.iterations += 1
        if (len(report.log_likelihoods) >= 2
                and total_ll - report.log_likelihoods[-2] < tol):
            report.converged = True
            break
        pi = _floor_row(pi_cnt, pi_sup, pi, EPS_P)
        A = np.stack([_floor_row(A_cnt[i], A_sup[i], A[i], EPS_P)
                      for i in range(hmm.n_states)])
        B = np.stack([_floor_row(B_cnt[i], B_sup[i], B[i], EPS_P)
                      for i in range(hmm.n_states)])
    return DiscreteHMM(hmm.n_states, hmm.n_symbols, pi, A, B), report


def random_left_right(rng, n, k):
    A = np.zeros((n, n))
    for i in range(n - 1):
        u = rng.uniform(0.05, 0.95)
        A[i, i], A[i, i + 1] = u, 1.0 - u
    A[n - 1, n - 1] = 1.0
    B = rng.uniform(0.01, 1.0, size=(n, k))
    B /= B.sum(axis=1, keepdims=True)
    return DiscreteHMM(n, k, rng.dirichlet(np.ones(n)), A, B)


def sample(rng, hmm, T):
    """One length-T symbol sequence drawn from hmm."""
    state, out = int(rng.choice(hmm.n_states, p=hmm.pi)), []
    for _ in range(T):
        out.append(int(rng.choice(hmm.n_symbols, p=hmm.B[state])))
        state = int(rng.choice(hmm.n_states, p=hmm.A[state]))
    return np.array(out)


def same(a, b):
    return np.array_equal(a, b, equal_nan=True)


def same_training(got, want):
    """Byte equality of two (model, report) pairs, NaN included."""
    (model, report), (model_w, report_w) = got, want
    return (all(getattr(model, p).tobytes() == getattr(model_w, p).tobytes()
                for p in ("pi", "A", "B"))
            and np.array(report.log_likelihoods).tobytes()
            == np.array(report_w.log_likelihoods).tobytes()
            and (report.iterations, report.converged)
            == (report_w.iterations, report_w.converged))


def padded_emissions(hmm, seqs):
    """(T_max, S, n) emissions with 1.0 past each sequence's end."""
    T = max(s.shape[0] for s in seqs)
    out = np.ones((T, len(seqs), hmm.n_states))
    for r, s in enumerate(seqs):
        out[:s.shape[0], r] = hmm.B[:, s].T
    return out


sizes = st.tuples(st.integers(1, 8), st.integers(1, 12), st.integers(1, 60),
                  st.integers(1, 5), st.integers(0, 2 ** 32 - 1))


class TestStackedForward:
    @settings(max_examples=150, deadline=None)
    @given(sizes)
    def test_equals_per_model_oracle(self, size):
        n, k, T, C, seed = size
        rng = np.random.default_rng(seed)
        models = [random_left_right(rng, n, k) for _ in range(C)]
        obs = rng.integers(0, k, size=T)
        emissions = np.stack([m.B for m in models]).transpose(2, 0, 1)[obs]
        alpha, c = _scaled_forward(np.stack([m.pi for m in models]),
                                   np.stack([m.A for m in models]), emissions)
        want = [oracle_forward(m, obs) for m in models]
        for r, (alpha_r, c_r) in enumerate(want):
            assert same(alpha[:, r], alpha_r)
            assert same(c[r], c_r)
        lls = np.array([oracle_log_likelihood(m, obs) for m in models])
        assert same(classify_gesture(models, obs).values, lls / T)
        for m, ll in zip(models, lls):
            assert same(forward_log_likelihood(m, obs), ll)

    @settings(max_examples=100, deadline=None)
    @given(sizes, st.integers(0, 59))
    def test_zero_probability_and_nan_rows_stay_in_their_rows(self, size, at):
        n, k, T, _, seed = size
        k, at = max(k, 2), at % T
        rng = np.random.default_rng(seed)
        good = [random_left_right(rng, n, k) for _ in range(2)]
        obs = rng.integers(0, k, size=T)
        B = good[0].B.copy()
        B[:, obs[at]] = 0.0  # the sequence turns impossible at step `at`
        B /= B.sum(axis=1, keepdims=True)
        zero = DiscreteHMM(n, k, good[0].pi, good[0].A, B)
        nan = DiscreteHMM(n, k, good[1].pi, good[1].A, np.full((n, k), np.nan))
        models = [good[0], zero, nan, good[1]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = classify_gesture(models, obs).values
            assert forward_log_likelihood(zero, obs) == NEG_INF
            assert np.isnan(forward_log_likelihood(nan, obs))
        want = [oracle_log_likelihood(m, obs) / T for m in models]
        assert want[1] == NEG_INF and np.isnan(want[2])
        assert same(values, want)

    @settings(max_examples=150, deadline=None)
    @given(sizes, st.lists(st.integers(1, 60), min_size=1, max_size=5))
    def test_padded_rows_equal_oracle_on_ragged_lengths(self, size, lengths):
        n, k, _, _, seed = size
        rng = np.random.default_rng(seed)
        hmm = random_left_right(rng, n, k)
        seqs = [rng.integers(0, k, size=T) for T in lengths]
        alpha, c = _scaled_forward(hmm.pi[None], hmm.A[None],
                                   padded_emissions(hmm, seqs))
        for r, obs in enumerate(seqs):
            alpha_r, c_r = oracle_forward(hmm, obs)
            assert same(alpha[:obs.shape[0], r], alpha_r)
            assert same(c[r, :obs.shape[0]], c_r)


class TestStackedBaumWelch:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 8),
           st.lists(st.integers(1, 40), min_size=1, max_size=5),
           st.integers(1, 8), st.sampled_from([1e-6, -np.inf]),
           st.integers(0, 2 ** 32 - 1))
    def test_trained_models_equal_oracle(self, n, k, lengths, iters, tol, seed):
        rng = np.random.default_rng(seed)
        gen = random_left_right(rng, n, k)
        seqs = [sample(rng, gen, T) for T in lengths]
        init = init_left_right(n, k)
        got, got_report = baum_welch(init, seqs, max_iter=iters, tol=tol)
        want, want_report = oracle_baum_welch(init, seqs, iters, tol)
        for name in ("pi", "A", "B"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert got_report == want_report

    def test_zero_probability_sequence_rejected_nan_model_not(self):
        # B puts no mass on symbol 1, so the second sequence is impossible
        m = DiscreteHMM(1, 2, np.array([1.0]), np.array([[1.0]]),
                        np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError, match="zero probability"):
            baum_welch(m, [np.array([0, 0, 0]), np.array([0, 1])], max_iter=1)
        nan = DiscreteHMM(1, 2, np.array([1.0]), np.array([[1.0]]),
                          np.full((1, 2), np.nan))
        trained, report = baum_welch(nan, [np.array([0, 0, 0]), np.array([1])],
                                     max_iter=2)
        assert np.isnan(report.log_likelihoods).all()


# Two sequences over 5 symbols, 1,901 frames in long runs of few symbols, as
# in the gesture-long class that trains to NaN: once the last state absorbs
# alpha, the earlier states' alpha underflows to 0 while their scaled beta
# overflows, and alpha * beta turns NaN on the third iteration.
DEGENERATE_RUNS = (
    ((2, 5), (1, 150), (2, 1), (0, 2), (2, 155), (0, 300), (3, 3), (0, 50),
     (1, 4), (0, 183)),
    ((3, 52), (2, 50), (4, 1), (0, 56), (3, 300), (1, 300), (4, 1), (1, 5),
     (0, 4), (4, 50), (3, 5), (2, 50), (4, 1), (2, 1), (0, 172)),
)


def degenerate_class():
    return [np.repeat([s for s, _ in runs], [n for _, n in runs])
            for runs in DEGENERATE_RUNS]


ragged_classes = st.lists(st.lists(st.integers(1, 40), min_size=1, max_size=4),
                         min_size=1, max_size=6)


def random_classes(seed, n, k, lengths):
    """Per class: a random initial model and sequences from another one."""
    rng = np.random.default_rng(seed)
    inits, trainings = [], []
    for class_lengths in lengths:
        gen = random_left_right(rng, n, k)
        trainings.append([sample(rng, gen, T) for T in class_lengths])
        inits.append(random_left_right(rng, n, k))
    return inits, trainings


class TestBaumWelchClasses:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 8), ragged_classes,
           st.integers(0, 12), st.sampled_from([1e-1, 1e-3, 1e-6, -np.inf]),
           st.integers(0, 2 ** 32 - 1))
    @example(3, 4, [[9, 1, 5], [12]], 0, 1e-6, 1)
    @example(3, 4, [[9, 1, 5], [12]], 1, 1e-6, 1)
    def test_each_class_equals_its_own_oracle_run(self, n, k, lengths, iters,
                                                  tol, seed):
        inits, trainings = random_classes(seed, n, k, lengths)
        got = baum_welch_classes(inits, trainings, iters, tol)
        assert len(got) == len(inits)
        for pair, init, seqs in zip(got, inits, trainings):
            assert same_training(pair, oracle_baum_welch(init, seqs, iters, tol))

    def test_classes_stopping_at_different_iterations(self):
        # a constant class converges within a few iterations; the others
        # keep training after its rows leave the stack
        rng = np.random.default_rng(5)
        inits, trainings = random_classes(6, 3, 4, [[30, 7, 22], [12], [40, 40]])
        inits.insert(1, init_left_right(3, 4))
        trainings.insert(1, [np.full(25, 2), np.full(9, 2)])
        inits.append(random_left_right(rng, 3, 4))
        trainings.append([np.arange(35) % 4])
        got = baum_welch_classes(inits, trainings, 40, 1e-3)
        stops = [report.iterations for _, report in got]
        assert len(set(stops)) > 2 and max(stops) == 40
        assert [r.converged for _, r in got] == [s < 40 for s in stops]
        for pair, init, seqs in zip(got, inits, trainings):
            assert same_training(pair, oracle_baum_welch(init, seqs, 40, 1e-3))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_class_does_not_touch_the_others(self):
        rng = np.random.default_rng(11)
        good = [[sample(rng, random_left_right(rng, 8, 5), T) for T in lengths]
                for lengths in ([60, 45, 80], [33, 70])]
        init = init_left_right(8, 5)
        alone = baum_welch_classes([init] * 2, good, 30, 1e-4)
        mixed = baum_welch_classes([init] * 3, [good[0], degenerate_class(), good[1]],
                                   30, 1e-4)
        nan_model, nan_report = mixed[1]
        assert np.isnan(nan_model.B).any() and nan_report.iterations == 30
        assert same_training(mixed[1],
                             oracle_baum_welch(init, degenerate_class(), 30, 1e-4))
        assert same_training(mixed[0], alone[0])
        assert same_training(mixed[2], alone[1])
        assert all(np.isfinite(m.B).all() for m, _ in alone)

    def test_errors(self):
        init = init_left_right(2, 3)
        ok = [np.array([0, 1, 2])]
        with pytest.raises(EmptyInputError, match="no class models"):
            baum_welch_classes([], [])
        with pytest.raises(ValueError, match="one training set per model"):
            baum_welch_classes([init, init], [ok])
        with pytest.raises(EmptyInputError, match="no training sequences"):
            baum_welch_classes([init, init], [ok, []])
        with pytest.raises(EmptyInputError, match="empty observation"):
            baum_welch_classes([init, init], [ok, [np.array([], dtype=int)]])
        for bad in (np.array([0, 3]), np.array([-1, 0])):
            with pytest.raises(ValueError, match="training symbol out of range"):
                baum_welch_classes([init, init], [ok, [bad]])
        with pytest.raises(ValueError, match="number of states"):
            baum_welch_classes([init, init_left_right(3, 3)], [ok, ok])
        with pytest.raises(ValueError, match="symbol alphabet size"):
            baum_welch_classes([init, init_left_right(2, 4)], [ok, ok])
        # B of the second class puts no mass on symbol 1
        blind = DiscreteHMM(1, 3, np.array([1.0]), np.array([[1.0]]),
                            np.array([[0.5, 0.0, 0.5]]))
        with pytest.raises(ValueError, match="zero probability"):
            baum_welch_classes([init_left_right(1, 3), blind],
                               [ok, [np.array([0, 2]), np.array([2, 1, 0])]])
