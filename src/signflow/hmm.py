"""Discrete-observation left-right HMMs for gesture classification.

One model per sign class, trained on that class's symbol sequences with
multi-sequence Baum-Welch. Classification scores a probe sequence under
every model and takes the best length-normalized forward log-likelihood.
Both run one scaled forward recursion over a stack of rows: scoring
stacks the class models, each Baum-Welch iteration the class's sequences.

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


def _scaled_backward(A: np.ndarray, B: np.ndarray, obs: np.ndarray,
                     c: np.ndarray) -> np.ndarray:
    T = obs.shape[0]
    beta = np.empty((T, A.shape[0]))
    beta[T - 1] = 1.0
    for t in range(T - 2, -1, -1):
        beta[t] = (A @ (B[:, obs[t + 1]] * beta[t + 1])) / c[t + 1]
    return beta


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


def baum_welch(hmm: DiscreteHMM, training, max_iter: int = 50,
               tol: float = 1e-6) -> tuple[DiscreteHMM, TrainReport]:
    """Multi-sequence EM re-estimation of (pi, A, B).

    Expected counts are accumulated across all sequences before each
    re-estimation. Structural zeros never become positive; supported
    entries never drop below EPS_P. Stops when the total log-likelihood
    improves by less than tol, or after max_iter iterations.
    """
    if not training:
        raise EmptyInputError("no training sequences")
    seqs = [_symbols(s) for s in training]
    for s in seqs:
        if s.min() < 0 or s.max() >= hmm.n_symbols:
            raise ValueError("training symbol out of range")
    # one forward row per sequence; steps past a sequence's end read the
    # extra symbol n_symbols, whose emission is 1.0 in every state
    padded = np.full((max(s.shape[0] for s in seqs), len(seqs)), hmm.n_symbols)
    for r, s in enumerate(seqs):
        padded[:s.shape[0], r] = s

    pi = hmm.pi.copy()
    A = hmm.A.copy()
    B = hmm.B.copy()
    pi_sup = pi > 0.0
    A_sup = A > 0.0
    B_sup = B > 0.0
    report = TrainReport()

    for _ in range(max_iter):
        pi_cnt = np.zeros_like(pi)
        A_cnt = np.zeros_like(A)
        B_cnt = np.zeros_like(B)
        total_ll = 0.0
        emissions = np.hstack([B, np.ones((hmm.n_states, 1))]).T[padded]
        alphas, cs = _scaled_forward(pi[None], A[None], emissions)
        # steps past a sequence's end do not count; a NaN model's c passes
        if np.any((cs <= 0.0) & (padded.T < hmm.n_symbols)):
            raise ValueError("training sequence has zero probability")
        for r, obs in enumerate(seqs):
            T = obs.shape[0]
            # a contiguous copy, so the matrix products below see the same
            # layout as a single-sequence forward pass
            alpha = np.ascontiguousarray(alphas[:T, r])
            c = cs[r, :T]
            beta = _scaled_backward(A, B, obs, c)
            gamma = alpha * beta
            total_ll += float(np.log(c).sum())
            pi_cnt += gamma[0]
            if T > 1:
                # xi summed over t collapses to one matrix product
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

    trained = DiscreteHMM(hmm.n_states, hmm.n_symbols, pi, A, B)
    return trained, report


def classify_gesture(models, obs) -> GestureResponse:
    """Score a sequence under every class model (length-normalized), all
    models in one stacked forward recursion."""
    if not models:
        raise EmptyInputError("no class models")
    sym = _symbols(obs)
    n, k = models[0].n_states, models[0].n_symbols
    for m in models:
        if m.n_symbols != k:
            raise ValueError("models disagree on symbol alphabet size")
        if m.n_states != n:
            raise ValueError("models disagree on the number of states")
    values = _log_likelihoods(models, sym) / sym.shape[0]
    best = int(values.argmax())  # argmax takes the first (lowest) on ties
    return GestureResponse(values=values, best_class=best)
