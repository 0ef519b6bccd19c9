"""Property tests for the stacked HMM recursions.

The oracles are per-model paths: one scaled forward and one backward pass
per (model, sequence) on A's two bands, and Baum-Welch training one class
at a time with those passes per sequence. Every comparison of the
per-frame recursion and of Baum-Welch with them is exact, NaN included.

The matrix-product oracles the banded code replaced (`alpha @ A`, and
`alpha.T @ m` for xi, floored row by row) are a second check. They round
in another order, so they agree within MATMUL_TOL, about six times the
largest difference measured at these tests' sizes. The M-step floor
(`_floor_rows`) has its own per-row oracle and tolerance.

Scoring multiplies 16-frame blocks of step matrices, which changes the
float order: its finite log-likelihoods are held to the error bound of
`_log_likelihoods`' docstring, against the per-frame oracle and against an
exact rational oracle, and its -inf and NaN positions stay exact. Over
several blocks, where the first pairing takes each distinct pair of steps
once, every score keeps the bytes of a step-by-step gather of the blocks.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signflow.hmm import (
    EPS_P,
    NEG_INF,
    DiscreteHMM,
    TrainReport,
    _ROW_TOL,
    _bands,
    _floor_rows,
    _log_likelihoods,
    _scaled_forward,
    _stacked_backward,
    baum_welch,
    baum_welch_classes,
    classify_gesture,
    forward_log_likelihood,
    init_left_right,
)
from signflow.skeleton import EmptyInputError

from hmm_records import arrays, single, stack


def band_forward(hmm, obs):
    """(alpha_hat, c) of one sequence on A's two bands, or (None, None) at
    probability zero."""
    pi, A, B = arrays(hmm)
    stay, move = np.diag(A), np.diag(A, 1)
    T = obs.shape[0]
    alpha = np.empty((T, hmm.n_states))
    c = np.empty(T)
    a = pi * B[:, obs[0]]
    for t in range(T):
        if t > 0:
            e = B[:, obs[t]]
            a = alpha[t - 1] * (stay * e)
            a[1:] += alpha[t - 1, :-1] * (move * e[1:])
        s = a.sum()
        if s <= 0.0:
            return None, None
        c[t] = s
        alpha[t] = a / s
    return alpha, c


def band_backward(hmm, obs, c):
    _, A, B = arrays(hmm)
    stay, move = np.diag(A), np.diag(A, 1)
    T = obs.shape[0]
    beta = np.empty((T, hmm.n_states))
    beta[T - 1] = 1.0
    for t in range(T - 2, -1, -1):
        e = B[:, obs[t + 1]]
        b = (stay * e) * beta[t + 1]
        b[:-1] += (move * e[1:]) * beta[t + 1, 1:]
        beta[t] = b / c[t + 1]
    return beta


def band_xi(hmm, obs, alpha, beta, c):
    """Summed xi of one sequence, (n, n): each band summed in time order."""
    _, A, B = arrays(hmm)
    stay, move = np.diag(A), np.diag(A, 1)
    stay_sum, move_sum = np.zeros_like(stay), np.zeros_like(move)
    for t in range(obs.shape[0] - 1):
        e = B[:, obs[t + 1]]
        m = beta[t + 1] / c[t + 1]
        stay_sum += (stay * e) * alpha[t] * m
        move_sum += (move * e[1:]) * alpha[t, :-1] * m[1:]
    return np.diag(stay_sum) + np.diag(move_sum, 1)


def matmul_forward(hmm, obs):
    """band_forward with one matrix product per step."""
    pi, A, B = arrays(hmm)
    T = obs.shape[0]
    alpha = np.empty((T, hmm.n_states))
    c = np.empty(T)
    a = pi * B[:, obs[0]]
    for t in range(T):
        if t > 0:
            a = (alpha[t - 1] @ A) * B[:, obs[t]]
        s = a.sum()
        if s <= 0.0:
            return None, None
        c[t] = s
        alpha[t] = a / s
    return alpha, c


def matmul_backward(hmm, obs, c):
    _, A, B = arrays(hmm)
    T = obs.shape[0]
    beta = np.empty((T, hmm.n_states))
    beta[T - 1] = 1.0
    for t in range(T - 2, -1, -1):
        beta[t] = (A @ (B[:, obs[t + 1]] * beta[t + 1])) / c[t + 1]
    return beta


def matmul_xi(hmm, obs, alpha, beta, c):
    _, A, B = arrays(hmm)
    m = (B[:, obs[1:]].T * beta[1:]) / c[1:, None]
    return A * (alpha[:-1].T @ m)


def oracle_floor_row(counts, support, prev, eps):
    """The M-step floor one row at a time: proportional shares, with
    undersized entries pinned at eps; stacked (..., m) arrays row by row."""
    if counts.ndim > 1:
        rows = zip(counts, support, prev)
        return np.reshape([oracle_floor_row(*row, eps) for row in rows],
                          counts.shape)
    out = np.zeros_like(counts)
    sup_idx = np.flatnonzero(support)
    if sup_idx.size == 1:
        out[sup_idx[0]] = 1.0
        return out
    cnt = counts[sup_idx]
    total = cnt.sum()
    if total <= 0.0:
        return prev.copy()
    pinned = cnt <= 0.0
    for _ in range(sup_idx.size):
        budget = 1.0 - pinned.sum() * eps
        share = np.zeros_like(cnt)
        free = ~pinned
        share[free] = cnt[free] * (budget / cnt[free].sum())
        newly = free & (share < eps)
        if not newly.any():
            break
        pinned |= newly
    share[pinned] = eps
    out[sup_idx] = share
    return out


BANDS = (band_forward, band_backward, band_xi, _floor_rows)
MATMUL = (matmul_forward, matmul_backward, matmul_xi, oracle_floor_row)


def oracle_log_likelihood(hmm, obs):
    _, c = band_forward(hmm, obs)
    return NEG_INF if c is None else float(np.log(c).sum())


def gather_log_likelihoods(hmm, sym):
    """`_log_likelihoods` with every block gathered step by step from the
    table, one product per pair of steps at every pairing level."""
    pi, A, B = hmm.pi, hmm.A, hmm.B
    R, n = pi.shape
    low = A.min(where=A > 0.0, initial=1.0) * B.min(where=B > 0.0, initial=1.0)
    q = 1
    while q < min(16, sym.shape[0] - 1) and low * low >= 2.0 ** -1022:
        low, q = low * low, 2 * q
    symbols, step = np.unique(sym[1:], return_inverse=True)
    table = np.concatenate([A * B[:, :, symbols].transpose(2, 0, 1)[:, :, None, :],
                            np.broadcast_to(np.eye(n), (1, R, n, n))])
    padded = np.append(step, np.full(-step.size % q, symbols.size))
    blocks = table[padded].reshape(-1, q, R, n, n)
    while blocks.shape[1] > 1:
        blocks = np.matmul(blocks[:, 0::2], blocks[:, 1::2])
    v = pi * B[:, :, sym[0]]
    c = [v.sum(axis=1)]
    with np.errstate(invalid="ignore"):  # 0/0 in a zero-probability row
        for P in blocks[:, 0]:
            v = np.matmul((v / c[-1][:, None])[:, None, :], P)[:, 0, :]
            c.append(v.sum(axis=1))
    c = np.array(c).T
    out = np.full(R, NEG_INF)
    possible = ~(c <= 0.0).any(axis=1)
    out[possible] = np.log(c[possible]).sum(axis=1)
    return out


def oracle_baum_welch(hmm, seqs, max_iter, tol, steps=BANDS):
    """Multi-sequence EM with one forward and one backward pass per
    sequence, on a one-class record; the log-likelihood adds each step's
    log c in (sequence, time) order from 0.0."""
    forward, backward, xi, floor = steps
    pi, A, B = (x.copy() for x in arrays(hmm))
    pi_sup, A_sup, B_sup = pi > 0.0, A > 0.0, B > 0.0
    report = TrainReport()
    for _ in range(max_iter):
        pi_cnt = np.zeros_like(pi)
        A_cnt = np.zeros_like(A)
        B_cnt = np.zeros_like(B)
        total_ll = 0.0
        cur = single(pi, A, B)
        for obs in seqs:
            alpha, c = forward(cur, obs)
            if alpha is None:
                raise ValueError("training sequence has zero probability")
            beta = backward(cur, obs, c)
            gamma = alpha * beta
            for log_c in np.log(c):
                total_ll += float(log_c)
            pi_cnt += gamma[0]
            A_cnt += xi(cur, obs, alpha, beta, c)
            np.add.at(B_cnt.T, obs, gamma)
        report.log_likelihoods.append(total_ll)
        if (len(report.log_likelihoods) >= 2
                and total_ll - report.log_likelihoods[-2] < tol):
            report.converged = True
            break
        pi = floor(pi_cnt, pi_sup, pi, EPS_P)
        A = floor(A_cnt, A_sup, A, EPS_P)
        B = floor(B_cnt, B_sup, B, EPS_P)
    return single(pi, A, B), report


def random_left_right(rng, n, k):
    A = np.zeros((n, n))
    for i in range(n - 1):
        u = rng.uniform(0.05, 0.95)
        A[i, i], A[i, i + 1] = u, 1.0 - u
    A[n - 1, n - 1] = 1.0
    B = rng.uniform(0.01, 1.0, size=(n, k))
    B /= B.sum(axis=1, keepdims=True)
    return single(rng.dirichlet(np.ones(n)), A, B)


def sample(rng, hmm, T):
    """One length-T symbol sequence drawn from a one-class hmm."""
    pi, A, B = arrays(hmm)
    state, out = int(rng.choice(hmm.n_states, p=pi)), []
    for _ in range(T):
        out.append(int(rng.choice(hmm.n_symbols, p=B[state])))
        state = int(rng.choice(hmm.n_states, p=A[state]))
    return np.array(out)


def same(a, b):
    return np.array_equal(a, b, equal_nan=True)


UNIT = 2.0 ** -53
# Largest band-against-matmul difference measured over 3,000 forward and
# 600 Baum-Welch draws of these tests' sizes (up to 60 frames, 12
# iterations): 6 u for alpha, 8 u relative for c, 31 u relative for beta,
# 88 u for trained parameters and 47 u relative for log-likelihoods.
MATMUL_TOL = 512 * UNIT


def assert_near_matmul(hmm, obs, alpha, c, beta=None):
    """The banded passes of one sequence against matmul_forward and
    matmul_backward: alpha absolutely, c and beta relatively."""
    alpha_m, c_m = matmul_forward(hmm, obs)
    assert np.all(np.abs(alpha - alpha_m) <= MATMUL_TOL)
    assert np.all(np.abs(c - c_m) <= MATMUL_TOL * c_m)
    if beta is not None:
        beta_m = matmul_backward(hmm, obs, c_m)
        assert np.all(np.abs(beta - beta_m) <= MATMUL_TOL * beta_m)


def block_length(models, T):
    """The block length the forward must use on a T-frame sequence, in
    exact arithmetic: the largest power of two q <= 16 with (min A *
    min B)^q >= 2^-1022, over the positive entries of every model, and at
    most the first power of two >= T - 1."""
    low = 1
    for name in ("A", "B"):
        entries = [x for m in models for x in getattr(m, name).ravel() if x > 0]
        low *= Fraction(min(entries, default=1.0))
    q = 1
    while q < min(16, T - 1) and low ** (2 * q) >= Fraction(2) ** -1022:
        q *= 2
    return q


def forward_bound(T, n, q, ll):
    """The docstring bound of `_log_likelihoods` on |log P~ - log P|. Its
    sum of |log c_b| is |log P| to first order; |ll| + 1 covers that."""
    K = (T + q) * (2 * n + 1)
    blocks = -(-(T - 1) // q)
    return K * UNIT / (1 - K * UNIT) + (blocks + 9) * UNIT * (abs(ll) + 1)


def assert_scores_close(got, want, tol):
    """Non-finite entries equal exactly, finite ones within tol."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    finite = np.isfinite(want)
    assert same(got[~finite], want[~finite])
    assert np.all(np.abs(got[finite] - want[finite]) <= np.asarray(tol)[finite])


def exact_log_likelihood(hmm, obs):
    """log P(obs | hmm) in exact rational arithmetic over the float
    parameters. Every float is a Fraction with a power-of-two denominator,
    so alpha is kept as integers over one power of two: 2^-scale."""
    def dyadic(values):
        """Integers over one power of two: (ints, exponent)."""
        fr = [Fraction(float(x)) for x in values]
        exp = max(f.denominator.bit_length() - 1 for f in fr)
        return [int(f * 2 ** exp) for f in fr], exp

    pi, A, B = arrays(hmm)
    n = hmm.n_states
    alpha, scale = dyadic(pi * B[:, obs[0]])
    steps = {}
    for o in obs[1:]:
        if o not in steps:
            steps[o] = dyadic((A * B[:, o]).ravel())
        M, exp = steps[o]
        alpha = [sum(alpha[i] * M[i * n + j] for i in range(n)) for j in range(n)]
        scale += exp
    total = sum(alpha)
    if total == 0:
        return NEG_INF
    # total / 2^scale = m 2^e with m in [0.5, 1): log m + e log 2 rounds
    # to within 4 u (|log P| + 1)
    bits = total.bit_length()
    m = float(total >> max(bits - 64, 0)) / 2.0 ** min(bits, 64)
    return math.log(m) + (bits - scale) * math.log(2.0)


def oracle_slack(ll):
    """Rounding of exact_log_likelihood's last steps."""
    return 4 * UNIT * (abs(ll) + 1)


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
        out[:s.shape[0], r] = hmm.B[0][:, s].T
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
        hmm = stack(models)
        emissions = hmm.B.transpose(2, 0, 1)[obs]
        bands = _bands(hmm.A, np.arange(C), emissions)
        alpha, c = _scaled_forward(hmm.pi, bands[:, 0], bands[:, 1, :, :-1])
        for r, m in enumerate(models):
            alpha_r, c_r = band_forward(m, obs)
            assert same(alpha[:, r], alpha_r)
            assert same(c[r], c_r)
            assert_near_matmul(m, obs, alpha_r, c_r)
        # the block forward and the per-frame oracle each err by at most
        # their own bound from the exact value
        lls = np.array([oracle_log_likelihood(m, obs) for m in models])
        q = block_length(models, T)
        tol = [forward_bound(T, n, q, ll) + forward_bound(T, n, 1, ll)
               for ll in lls]
        assert_scores_close(classify_gesture(hmm, obs).values * T, lls,
                            np.array(tol) + 2 * UNIT * np.abs(lls))
        for m, ll, t in zip(models, lls, tol):
            assert_scores_close([forward_log_likelihood(m, obs)], [ll], [t])

    @settings(max_examples=100, deadline=None)
    @given(sizes, st.integers(0, 59))
    def test_zero_probability_and_nan_rows_stay_in_their_rows(self, size, at):
        n, k, T, _, seed = size
        k, at = max(k, 2), at % T
        rng = np.random.default_rng(seed)
        good = [random_left_right(rng, n, k) for _ in range(2)]
        obs = rng.integers(0, k, size=T)
        B = good[0].B.copy()
        B[..., obs[at]] = 0.0  # the sequence turns impossible at step `at`
        B /= B.sum(axis=-1, keepdims=True)
        zero = DiscreteHMM(good[0].pi, good[0].A, B)
        nan = DiscreteHMM(good[1].pi, good[1].A, np.full((1, n, k), np.nan))
        models = [good[0], zero, nan, good[1]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = classify_gesture(stack(models), obs).values
            assert forward_log_likelihood(zero, obs) == NEG_INF
            assert np.isnan(forward_log_likelihood(nan, obs))
        want = np.array([oracle_log_likelihood(m, obs) for m in models])
        assert want[1] == NEG_INF and np.isnan(want[2])
        q = block_length(models, T)
        tol = [forward_bound(T, n, q, ll) + forward_bound(T, n, 1, ll)
               + 2 * UNIT * abs(ll) for ll in want]
        assert_scores_close(values * T, want, tol)

    @settings(max_examples=150, deadline=None)
    @given(sizes, st.lists(st.integers(1, 60), min_size=1, max_size=5))
    def test_padded_rows_equal_oracle_on_ragged_lengths(self, size, lengths):
        n, k, _, _, seed = size
        rng = np.random.default_rng(seed)
        hmm = random_left_right(rng, n, k)
        seqs = [rng.integers(0, k, size=T) for T in lengths]
        lens = np.array(lengths)
        bands = _bands(hmm.A, np.zeros_like(lens), padded_emissions(hmm, seqs))
        stay, move = bands[:, 0], bands[:, 1, :, :-1]
        alpha, c = _scaled_forward(hmm.pi, stay, move)
        beta = _stacked_backward(stay, move, c, lens)
        for r, obs in enumerate(seqs):
            T = obs.shape[0]
            alpha_r, c_r = band_forward(hmm, obs)
            beta_r = band_backward(hmm, obs, c_r)
            assert same(alpha[:T, r], alpha_r)
            assert same(c[r, :T], c_r)
            assert same(beta[:T, r], beta_r)
            assert np.all(beta[T:, r] == 1.0)
            assert_near_matmul(hmm, obs, alpha_r, c_r, beta_r)


def tiny_entry_model(rng, n, k, exponent):
    """A random left-right model with one advance probability and one
    emission near 10^-exponent, below EPS_P once exponent > 6."""
    pi, A, B = (x.copy() for x in arrays(random_left_right(rng, n, k)))
    if n > 1:
        i = int(rng.integers(n - 1))
        A[i, i + 1] = 10.0 ** -exponent
        A[i, i] = 1.0 - A[i, i + 1]
    B[int(rng.integers(n)), int(rng.integers(k))] = 10.0 ** -exponent
    B /= B.sum(axis=1, keepdims=True)
    return single(pi, A, B)


class TestBlockForward:
    """The block forward against exact rational arithmetic."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 6), st.integers(1, 4),
           st.integers(0, 150),
           st.one_of(st.sampled_from(["q", "q+1", "2q+1"]), st.integers(1, 17)),
           st.integers(0, 2 ** 32 - 1))
    # q set by the smallest entries, edges relative to the long-sequence q
    @example(3, 4, 3, 80, "q+1", 1)   # q = 1
    @example(3, 4, 3, 60, "2q+1", 2)  # q = 2
    @example(2, 3, 2, 30, "2q+1", 3)  # q = 4
    @example(1, 3, 2, 20, "q", 4)     # q = 8
    @example(4, 5, 4, 3, "2q+1", 5)   # q = 16
    # q set by the sequence length: the first power of two >= T - 1
    @example(4, 5, 4, 3, 1, 6)        # q = 1
    @example(4, 5, 4, 3, 2, 7)        # q = 1
    @example(4, 5, 4, 3, 3, 8)        # q = 2
    @example(4, 5, 4, 3, 5, 9)        # q = 4
    @example(4, 5, 4, 3, 9, 10)       # q = 8
    @example(4, 5, 4, 3, 17, 11)      # q = 16
    def test_equals_exact_oracle_at_block_edges(self, n, k, C, exponent,
                                                edge, seed):
        rng = np.random.default_rng(seed)
        models = [tiny_entry_model(rng, n, k, exponent) for _ in range(C)]
        long_q = block_length(models, 17)
        T = {"q": long_q, "q+1": long_q + 1, "2q+1": 2 * long_q + 1}.get(edge, edge)
        q = block_length(models, T)
        obs = rng.integers(0, k, size=T)
        want = np.array([exact_log_likelihood(m, obs) for m in models])
        tol = np.array([forward_bound(T, n, q, ll) + oracle_slack(ll)
                        for ll in want])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [forward_log_likelihood(m, obs) for m in models]
            resp = classify_gesture(stack(models), obs)
        assert_scores_close(got, want, tol)
        assert_scores_close(resp.values * T, want, tol + 2 * UNIT * np.abs(want))
        # the order is settled wherever the exact top-two margin exceeds
        # the bound of both rows
        order = np.argsort(-want, kind="stable")
        if C > 1 and np.isfinite(want[order[1]]):
            top, second = order[0], order[1]
            margin = want[top] - want[second]
            if margin > tol[top] + tol[second] + 2 * UNIT * abs(want[second]):
                assert resp.best_class == top

    def test_long_run_in_an_absorbing_state_stays_finite(self):
        # every state emits symbol 0 at EPS_P; alpha drains into the
        # absorbing last state and the earlier states underflow to 0, as in
        # the gesture-long class whose training turns NaN
        n, T = 3, 5000
        A = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]])
        B = np.tile([EPS_P, 1.0 - EPS_P], (n, 1))
        hmm = single(np.array([1.0, 0.0, 0.0]), A, B)
        obs = np.zeros(T, dtype=np.int64)
        want = exact_log_likelihood(hmm, obs)
        got = forward_log_likelihood(hmm, obs)
        assert math.isfinite(got)
        assert abs(got - want) <= forward_bound(T, n, 16, want) + oracle_slack(want)
        rival = init_left_right(n, 2)
        resp = classify_gesture(stack([hmm, rival]), obs)
        assert resp.best_class == 1 and np.isfinite(resp.values).all()


def paired_steps(rng, kind, k, steps):
    """`steps` symbols after the first: a few symbols in runs, every pair
    of steps (0, 1), (2, 3), ... distinct, or uniform draws."""
    if kind == "runs":
        few = rng.choice(k, size=min(k, 3), replace=False)
        runs = [np.full(int(rng.integers(1, 30)), rng.choice(few))
                for _ in range(steps)]
        return np.concatenate(runs)[:steps]
    if kind == "distinct":
        pairs = rng.choice(k * k, size=-(-steps // 2), replace=False)
        return np.stack(np.divmod(pairs, k), axis=1).ravel()[:steps]
    return rng.integers(0, k, size=steps)


class TestPairedBlocks:
    """Over two or more blocks the first pairing multiplies each distinct
    pair of steps once; every score keeps the bytes of the step-by-step
    gather, -inf and NaN included."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5), st.integers(3, 8), st.integers(1, 3),
           st.integers(0, 150), st.sampled_from(["runs", "distinct", "uniform"]),
           st.integers(1, 4), st.booleans(), st.booleans(), st.booleans(),
           st.integers(0, 2 ** 32 - 1))
    @example(3, 4, 2, 0, "runs", 1, True, True, True, 1)       # q = 16, odd
    @example(3, 4, 2, 0, "distinct", 2, False, True, True, 2)  # q = 16, even
    @example(2, 3, 1, 60, "uniform", 3, True, False, False, 3)  # q < 16
    def test_equal_step_by_step_gather(self, n, k, C, exponent, kind, extent,
                                       odd, zero, nan, seed):
        rng = np.random.default_rng(seed)
        models = [tiny_entry_model(rng, n, k, exponent) for _ in range(C)]
        q = block_length(models, 10 ** 6)
        # more than q steps; at most 2 k^2, so that k^2 pairs can be distinct
        cap = 2 * k * k if kind == "distinct" else 4 * q + 2
        steps = min(int(rng.integers(q + 1, extent * q + 2)), cap)
        if steps % 2 != odd:
            steps += 1 if steps < cap else -1
        obs = np.append(rng.integers(k), paired_steps(rng, kind, k, steps))
        if zero:  # the sequence turns impossible at a random step
            pi, A, B = (x.copy() for x in arrays(models[0]))
            B[:, obs[int(rng.integers(obs.size))]] = 0.0
            models.append(single(pi, A, B / B.sum(axis=1, keepdims=True)))
        if nan:
            pi, A, _ = arrays(models[0])
            models.append(single(pi, A, np.full((n, k), np.nan)))
        hmm = stack(models)
        T = obs.size
        assert T - 1 == steps and (T - 1) % 2 == odd
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _log_likelihoods(hmm, obs)
        want = gather_log_likelihoods(hmm, obs)
        assert got.tobytes() == want.tobytes()
        if q > 1:
            assert T - 1 > block_length(models, T)  # two or more blocks
        if zero:
            assert got[C] == NEG_INF
        if nan:
            assert np.isnan(got[-1])


@st.composite
def floor_stacks(draw):
    """(counts, support, prev, eps) of a (rows, m) stack. Each row is of
    one kind: counts on a support of several entries, no counts, or a
    single supported entry. eps = 0.5 / m pins often and in cascades."""
    rows, m = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    eps = draw(st.sampled_from([EPS_P, 0.5 / m]))
    entries = st.one_of(st.just(0.0), st.floats(1e-9, 1e-5), st.floats(1e-3, 1e3))
    counts = np.array(draw(st.lists(st.lists(entries, min_size=m, max_size=m),
                                    min_size=rows, max_size=rows)))
    support = np.array(draw(st.lists(st.lists(st.booleans(), min_size=m, max_size=m),
                                     min_size=rows, max_size=rows)))
    for r, kind in enumerate(draw(st.lists(st.sampled_from(["counts", "idle", "single"]),
                                           min_size=rows, max_size=rows))):
        if kind == "idle":
            counts[r] = 0.0
        elif kind == "single":
            support[r] = False
        support[r, draw(st.integers(0, m - 1))] = True
    weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=rows * m,
                                     max_size=rows * m))).reshape(rows, m) * support
    return counts, support, weights / weights.sum(axis=1, keepdims=True), eps


class TestFloorRows:
    # the two floors sum a row's free counts in different orders; measured
    # over these draws the entries differ by at most 2 u
    @settings(max_examples=300, deadline=None)
    @given(floor_stacks())
    # cascading pins: the 0.01 count is pinned first, which leaves the 0.3
    # count's share below eps = 0.2; the floor is [0.6, 0.2, 0.2]
    @example((np.array([[1.0, 0.3, 0.01]]), np.ones((1, 3), dtype=bool),
              np.full((1, 3), 1 / 3), 0.2))
    def test_rows_are_feasible_and_near_the_per_row_oracle(self, stack_):
        counts, support, prev, eps = stack_
        got = _floor_rows(counts, support, prev, eps)
        want = oracle_floor_row(counts, support, prev, eps)
        single = support.sum(axis=1) == 1
        idle = ~single & (np.where(support, counts, 0.0).sum(axis=1) <= 0.0)
        assert np.all(np.abs(got.sum(axis=1) - 1.0) <= _ROW_TOL)
        assert np.all(got[~support] == 0.0)
        assert np.all(got[~idle][support[~idle]] >= eps)
        assert got[idle].tobytes() == prev[idle].tobytes()
        assert np.all(got[single] == support[single])
        assert np.all(np.abs(got - want) <= 4 * counts.shape[1] * UNIT)


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
        # the matrix-product oracle, both run for all iters
        bands, bands_report = oracle_baum_welch(init, seqs, iters, -np.inf)
        prods, prods_report = oracle_baum_welch(init, seqs, iters, -np.inf, MATMUL)
        for name in ("pi", "A", "B"):
            assert np.all(np.abs(getattr(bands, name) - getattr(prods, name))
                          <= MATMUL_TOL)
        ll, ll_prods = (np.array(r.log_likelihoods) for r in (bands_report, prods_report))
        assert np.all(np.abs(ll - ll_prods) <= MATMUL_TOL * np.maximum(1.0, np.abs(ll)))

    def test_zero_probability_sequence_rejected_nan_model_not(self):
        # B puts no mass on symbol 1, so the second sequence is impossible
        m = single(np.array([1.0]), np.array([[1.0]]), np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError, match="zero probability"):
            baum_welch(m, [np.array([0, 0, 0]), np.array([0, 1])], max_iter=1,
                       tol=1e-6)
        nan = single(np.array([1.0]), np.array([[1.0]]), np.full((1, 2), np.nan))
        trained, report = baum_welch(nan, [np.array([0, 0, 0]), np.array([1])],
                                     max_iter=2, tol=1e-6)
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


def train_classes(inits, trainings, max_iter, tol):
    """(one-class model, report) per class of one baum_welch_classes run
    over the stack of inits."""
    trained, reports = baum_welch_classes(stack(inits), trainings, max_iter, tol)
    assert len(trained) == len(reports) == len(inits)
    return list(zip(trained, reports))


class TestBaumWelchClasses:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 8), ragged_classes,
           st.integers(0, 12), st.sampled_from([1e-1, 1e-3, 1e-6, -np.inf]),
           st.integers(0, 2 ** 32 - 1))
    @example(3, 4, [[9, 1, 5], [12]], 0, 1e-6, 1)
    @example(3, 4, [[9, 1, 5], [12]], 1, 1e-6, 1)
    # the edges of the stack-wide counts: a 1-frame row beside a 40-frame
    # row of another class, a class of one sequence, and k = 1, where the
    # pad symbol's bin sits next to the only real one
    @example(3, 4, [[1], [40]], 6, -np.inf, 2)
    @example(4, 5, [[17], [9, 30, 4]], 8, 1e-6, 3)
    @example(3, 1, [[6, 2], [11]], 4, -np.inf, 4)
    def test_each_class_equals_its_own_oracle_run(self, n, k, lengths, iters,
                                                  tol, seed):
        inits, trainings = random_classes(seed, n, k, lengths)
        got = train_classes(inits, trainings, iters, tol)
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
        got = train_classes(inits, trainings, 40, 1e-3)
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
        alone = train_classes([init] * 2, good, 30, 1e-4)
        mixed = train_classes([init] * 3, [good[0], degenerate_class(), good[1]],
                              30, 1e-4)
        nan_model, nan_report = mixed[1]
        assert np.isnan(nan_model.B).any() and nan_report.iterations == 30
        assert same_training(mixed[1],
                             oracle_baum_welch(init, degenerate_class(), 30, 1e-4))
        assert same_training(mixed[0], alone[0])
        assert same_training(mixed[2], alone[1])
        assert all(np.isfinite(m.B).all() for m, _ in alone)

    def test_errors(self):
        def train(models, trainings):
            return baum_welch_classes(models, trainings, max_iter=50, tol=1e-6)

        # a record of no classes, or of classes of different shapes, cannot
        # be built (tests/test_hmm.py::TestDiscreteHMMValidation)
        two = init_left_right(2, 3, 2)
        ok = [np.array([0, 1, 2])]
        with pytest.raises(ValueError, match="one training set per class model"):
            train(two, [ok])
        with pytest.raises(ValueError, match="one training set per class model"):
            train(two, [ok, ok, ok])
        with pytest.raises(EmptyInputError, match="no training sequences"):
            train(two, [ok, []])
        with pytest.raises(EmptyInputError, match="empty observation"):
            train(two, [ok, [np.array([], dtype=int)]])
        for bad in (np.array([0, 3]), np.array([-1, 0])):
            with pytest.raises(ValueError, match="training symbol out of range"):
                train(two, [ok, [bad]])
        # checked class by class: the first class at fault names the error
        with pytest.raises(ValueError, match="training symbol out of range"):
            train(two, [[ok[0], np.array([0, 3])], []])
        with pytest.raises(EmptyInputError, match="empty observation"):
            train(two, [[np.array([0, 3]), np.array([], dtype=int)], []])
        with pytest.raises(EmptyInputError, match="no training sequences"):
            train(two, [[], [np.array([], dtype=int)]])
        # B of the second class puts no mass on symbol 1
        blind = single(np.array([1.0]), np.array([[1.0]]), np.array([[0.5, 0.0, 0.5]]))
        with pytest.raises(ValueError, match="zero probability"):
            train(stack([init_left_right(1, 3), blind]),
                  [ok, [np.array([0, 2]), np.array([2, 1, 0])]])

    def test_input_record_is_not_modified(self):
        inits, trainings = random_classes(3, 3, 4, [[9, 5], [12]])
        hmm = stack(inits)
        before = [getattr(hmm, p).copy() for p in ("pi", "A", "B")]
        trained, _ = baum_welch_classes(hmm, trainings, 5, -np.inf)
        for p, want in zip(("pi", "A", "B"), before):
            assert getattr(hmm, p).tobytes() == want.tobytes()
            assert not np.shares_memory(getattr(trained, p), getattr(hmm, p))
