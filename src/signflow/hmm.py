"""Discrete-observation left-right HMMs for gesture classification.

One model per sign class, trained on that class's symbol sequences with
multi-sequence Baum-Welch. Classification scores a probe sequence under
every model and takes the best length-normalized forward log-likelihood.
Both run one scaled forward recursion over a stack of rows: scoring
stacks the class models, and each Baum-Welch iteration stacks the
sequences of every class still training.

Re-estimated probabilities are floored at EPS_P on their structural support
(the entries positive at initialization) so that test symbols unseen in
training still yield comparable, finite scores. The floor is applied as the
exact constrained M-step (largest entries scaled down, small ones pinned at
the floor, row re-summing to 1), which keeps the EM monotonicity guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codebook import SymbolSequence
from .skeleton import EmptyInputError

EPS_P = 1e-6
NEG_INF = float("-inf")
_ROW_TOL = 1e-9


def _symbols(obs) -> np.ndarray:
    arr = np.asarray(getattr(obs, "symbols", obs), dtype=np.int64)
    if arr.ndim != 1 or arr.shape[0] == 0:
        raise EmptyInputError("empty observation sequence")
    return arr


@dataclass
class DiscreteHMM:
    """Left-right model: states may only self-loop or advance by one."""

    n_states: int
    n_symbols: int
    pi: np.ndarray
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        self.pi = np.asarray(self.pi, dtype=np.float64)
        self.A = np.asarray(self.A, dtype=np.float64)
        self.B = np.asarray(self.B, dtype=np.float64)
        n, k = self.n_states, self.n_symbols
        if self.pi.shape != (n,) or self.A.shape != (n, n) or self.B.shape != (n, k):
            raise ValueError("parameter shapes inconsistent with n_states/n_symbols")
        if np.any(self.pi < 0) or np.any(self.A < 0) or np.any(self.B < 0):
            raise ValueError("negative probability")
        if abs(self.pi.sum() - 1.0) > _ROW_TOL:
            raise ValueError("pi does not sum to 1")
        for name, m in (("A", self.A), ("B", self.B)):
            err = np.abs(m.sum(axis=1) - 1.0).max()
            if err > _ROW_TOL:
                raise ValueError(f"{name} row sums off by {err:.2e}")
        off = ~_left_right_support(n)
        if np.any(self.A[off] != 0.0):
            raise ValueError("transition outside left-right support")


@dataclass
class TrainReport:
    """Baum-Welch trajectory: one total log-likelihood per iteration."""

    log_likelihoods: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False


@dataclass
class GestureResponse:
    """Per-class length-normalized forward log-likelihoods (R_gesture)."""

    values: np.ndarray
    best_class: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if not (0 <= self.best_class < self.values.shape[0]):
            raise ValueError("best_class out of range")


def _left_right_support(n: int) -> np.ndarray:
    sup = np.zeros((n, n), dtype=bool)
    idx = np.arange(n)
    sup[idx, idx] = True
    sup[idx[:-1], idx[:-1] + 1] = True
    return sup


def init_left_right(n_states: int, n_symbols: int) -> DiscreteHMM:
    """Fresh model: start in state 0, 0.5 self/advance, uniform emissions."""
    if n_states < 1 or n_symbols < 1:
        raise ValueError("n_states and n_symbols must be >= 1")
    pi = np.zeros(n_states)
    pi[0] = 1.0
    A = np.zeros((n_states, n_states))
    for i in range(n_states - 1):
        A[i, i] = A[i, i + 1] = 0.5
    A[n_states - 1, n_states - 1] = 1.0
    B = np.full((n_states, n_symbols), 1.0 / n_symbols)
    return DiscreteHMM(n_states=n_states, n_symbols=n_symbols, pi=pi, A=A, B=B)


def _scaled_forward(pi: np.ndarray, A: np.ndarray, emissions: np.ndarray):
    """Normalized forward pass over R stacked rows, in one time loop.

    pi is (R, n) and A (R, n, n), either with a leading 1 that broadcasts;
    emissions (T, R, n) holds each row's P(o_t | state). Returns alpha_hat
    (T, R, n) and c (R, T), c[r, t] = P(o_t | o_1..t-1) in row r. A row of
    probability zero reads c = 0 at that step and NaN after it, and a NaN
    model reads NaN; neither touches the other rows.
    """
    T, R, n = emissions.shape
    alpha = np.empty((T, R, n))
    c = np.empty((R, T))
    with np.errstate(invalid="ignore"):  # 0/0 in a zero-probability row
        a = pi * emissions[0]
        for t in range(T):
            if t > 0:
                # the same products and sums as one model's alpha @ A
                a = np.matmul(alpha[t - 1][:, None, :], A)[:, 0, :] * emissions[t]
            s = a.sum(axis=1)
            c[:, t] = s
            alpha[t] = a / s[:, None]
    return alpha, c


def _log_likelihoods(models, sym: np.ndarray) -> np.ndarray:
    """log P(sym) under each model, all in one stacked forward pass; -inf
    where the sequence is impossible, NaN for a NaN model."""
    if sym.min() < 0 or sym.max() >= models[0].n_symbols:
        raise ValueError("symbol out of range for this model")
    _, c = _scaled_forward(np.stack([m.pi for m in models]),
                           np.stack([m.A for m in models]),
                           np.stack([m.B for m in models]).transpose(2, 0, 1)[sym])
    out = np.full(len(models), NEG_INF)
    possible = ~(c <= 0.0).any(axis=1)
    # each row's pairwise sum over contiguous c, as for one sequence alone
    out[possible] = np.log(c[possible]).sum(axis=1)
    return out


def forward_log_likelihood(hmm: DiscreteHMM, obs) -> float:
    """log P(obs | hmm) via the scaled forward recursion; -inf if impossible.

    Scaling keeps each step's vector normalized, so sequences up to 10^4
    steps run without underflow.
    """
    return float(_log_likelihoods([hmm], _symbols(obs))[0])


def _floor_row(counts: np.ndarray, support: np.ndarray, prev: np.ndarray,
               eps: float) -> np.ndarray:
    """Exact M-step under the constraints x >= eps on support, 0 elsewhere,
    sum x = 1: proportional shares, with undersized entries pinned at eps.

    A row with no counts keeps its previous value (state never visited, any
    feasible row is optimal).
    """
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


def _check_alphabet(models) -> tuple[int, int]:
    n, k = models[0].n_states, models[0].n_symbols
    for m in models:
        if m.n_symbols != k:
            raise ValueError("models disagree on symbol alphabet size")
        if m.n_states != n:
            raise ValueError("models disagree on the number of states")
    return n, k


def _stacked_backward(A: np.ndarray, emissions: np.ndarray, c: np.ndarray,
                      lengths: np.ndarray) -> np.ndarray:
    """Scaled backward pass over the rows of a stacked forward pass.

    A is (R, n, n), emissions (T, R, n), c (R, T) from _scaled_forward, and
    lengths (R,) each row's sequence length. beta is 1.0 from each row's
    last step on, so each row gets the bytes of its own backward pass,
    beta[t] = A @ (B[:, o_t+1] * beta[t+1]) / c[t+1]. Returns (T, R, n).
    """
    T = emissions.shape[0]
    ended = np.arange(T)[:, None] >= lengths - 1
    beta = np.empty_like(emissions)
    beta[T - 1] = 1.0
    for t in range(T - 2, -1, -1):
        nxt = (emissions[t + 1] * beta[t + 1])[:, :, None]
        beta[t] = np.matmul(A, nxt)[:, :, 0] / c[:, t + 1, None]
        beta[t, ended[t]] = 1.0
    return beta


def baum_welch_classes(models, trainings, max_iter: int = 50,
                       tol: float = 1e-6) -> list[tuple[DiscreteHMM, TrainReport]]:
    """Multi-sequence EM re-estimation of (pi, A, B), one model per class.

    Expected counts are accumulated across a class's sequences before each
    re-estimation. Structural zeros never become positive; supported
    entries never drop below EPS_P. A class stops when its total
    log-likelihood improves by less than tol, or after max_iter iterations.

    Every class shares one E-step per iteration: the forward and backward
    recursions run once over a stack holding one row per sequence of each
    class still training, and a converged class's rows leave the stack.
    Each class's model and report are those it would get trained alone.
    """
    if not models:
        raise EmptyInputError("no class models")
    if len(trainings) != len(models):
        raise ValueError("one training set per model is required")
    n, k = _check_alphabet(models)
    per_class = []
    for training in trainings:
        if not training:
            raise EmptyInputError("no training sequences")
        seqs = [_symbols(s) for s in training]
        for s in seqs:
            if s.min() < 0 or s.max() >= k:
                raise ValueError("training symbol out of range")
        per_class.append(seqs)
    # one row per sequence, in class order; steps past a sequence's end
    # read the extra symbol k, whose emission is 1.0 in every state
    seqs = [s for class_seqs in per_class for s in class_seqs]
    row_class = np.repeat(np.arange(len(models)), [len(c) for c in per_class])
    lengths = np.array([s.shape[0] for s in seqs])
    padded = np.full((lengths.max(), len(seqs)), k)
    for r, s in enumerate(seqs):
        padded[:s.shape[0], r] = s

    pi = np.stack([m.pi for m in models])
    A = np.stack([m.A for m in models])
    B = np.stack([m.B for m in models])
    pi_sup, A_sup, B_sup = pi > 0.0, A > 0.0, B > 0.0
    reports = [TrainReport() for _ in models]
    done = np.zeros(len(models), dtype=bool)

    for _ in range(max_iter):
        if done.all():
            break
        rows = np.flatnonzero(~done[row_class])
        cls, sym = row_class[rows], padded[:lengths[rows].max(), rows]
        B_ext = np.concatenate([B, np.ones((len(models), n, 1))], axis=2)
        emissions = B_ext.transpose(0, 2, 1)[cls[None, :], sym]
        A_rows = A[cls]
        alphas, cs = _scaled_forward(pi[cls], A_rows, emissions)
        # steps past a sequence's end do not count; a NaN model's c passes
        if np.any((cs <= 0.0) & (sym.T < k)):
            raise ValueError("training sequence has zero probability")
        betas = _stacked_backward(A_rows, emissions, cs, lengths[rows])
        r = 0  # the stack holds the training classes' rows in class order
        for j in np.flatnonzero(~done):
            pi_cnt = np.zeros(n)
            A_cnt = np.zeros((n, n))
            B_cnt = np.zeros((n, k))
            total_ll = 0.0
            for obs in per_class[j]:
                T = obs.shape[0]
                # contiguous copies, so the matrix products below see the
                # same layout as a single-sequence pass
                alpha = np.ascontiguousarray(alphas[:T, r])
                beta = np.ascontiguousarray(betas[:T, r])
                c = cs[r, :T]
                r += 1
                gamma = alpha * beta
                total_ll += float(np.log(c).sum())
                pi_cnt += gamma[0]
                if T > 1:
                    # xi summed over t collapses to one matrix product, one
                    # per sequence: a GEMM over padded rows may sum otherwise
                    m = (B[j][:, obs[1:]].T * beta[1:]) / c[1:, None]
                    A_cnt += A[j] * (alpha[:-1].T @ m)
                np.add.at(B_cnt.T, obs, gamma)
            report = reports[j]
            report.log_likelihoods.append(total_ll)
            report.iterations += 1
            if (len(report.log_likelihoods) >= 2
                    and total_ll - report.log_likelihoods[-2] < tol):
                report.converged = done[j] = True
                continue
            pi[j] = _floor_row(pi_cnt, pi_sup[j], pi[j], EPS_P)
            A[j] = np.stack([_floor_row(A_cnt[i], A_sup[j, i], A[j, i], EPS_P)
                             for i in range(n)])
            B[j] = np.stack([_floor_row(B_cnt[i], B_sup[j, i], B[j, i], EPS_P)
                             for i in range(n)])

    return [(DiscreteHMM(n, k, pi[j].copy(), A[j].copy(), B[j].copy()), reports[j])
            for j in range(len(models))]


def baum_welch(hmm: DiscreteHMM, training, max_iter: int = 50,
               tol: float = 1e-6) -> tuple[DiscreteHMM, TrainReport]:
    """One model's multi-sequence EM: baum_welch_classes on a single class."""
    return baum_welch_classes([hmm], [training], max_iter, tol)[0]


def classify_gesture(models, obs) -> GestureResponse:
    """Score a sequence under every class model (length-normalized), all
    models in one stacked forward recursion."""
    if not models:
        raise EmptyInputError("no class models")
    sym = _symbols(obs)
    _check_alphabet(models)
    values = _log_likelihoods(models, sym) / sym.shape[0]
    best = int(values.argmax())  # argmax takes the first (lowest) on ties
    return GestureResponse(values=values, best_class=best)
