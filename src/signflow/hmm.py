"""Discrete-observation left-right HMMs for gesture classification.

One model per sign class, all classes held as one stacked record and
trained by multi-sequence Baum-Welch: one scaled recursion on A's two bands
per iteration, over the sequences of every class still training.
Classification scores a probe under every class at once, one scaled step
per 16-frame block product, and takes the best length-normalized score.
Symbols come in runs, so over several blocks the first pairing of the
block products multiplies each distinct pair of consecutive steps once.

Re-estimated probabilities are floored at EPS_P on their structural support
(the entries positive at initialization) so that test symbols unseen in
training still yield comparable, finite scores. The floor is applied as the
exact constrained M-step (largest entries scaled down, small ones pinned at
the floor, row re-summing to 1), which keeps the EM monotonicity guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .skeleton import EmptyInputError

EPS_P = 1e-6
NEG_INF = float("-inf")
_ROW_TOL = 1e-9


def _symbols(obs) -> np.ndarray:
    arr = np.asarray(obs, dtype=np.int64)
    if arr.ndim != 1 or arr.shape[0] == 0:
        raise EmptyInputError("empty observation sequence")
    return arr


@dataclass
class DiscreteHMM:
    """One left-right model per class, held as stacks: pi (C, n), A (C, n, n)
    and B (C, n, k). States may only self-loop or advance by one.

    B's shape gives the class, state and symbol counts. Iterating yields
    each class's model as a (1, ...) view.
    """

    pi: np.ndarray
    A: np.ndarray
    B: np.ndarray
    # scoring's step matrices (k + 1, C, n, n), A * B[:, :, s] for each
    # symbol s and then the identity, and its underflow constant
    steps: np.ndarray = field(init=False, repr=False, compare=False)
    low: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.pi = np.asarray(self.pi, dtype=np.float64)
        self.A = np.asarray(self.A, dtype=np.float64)
        self.B = np.asarray(self.B, dtype=np.float64)
        if self.B.ndim != 3 or self.B.size == 0:
            raise ValueError(f"B must be a non-empty (classes, states, symbols) "
                             f"array, got shape {self.B.shape}")
        C, n = len(self), self.n_states
        if self.pi.shape != (C, n) or self.A.shape != (C, n, n):
            raise ValueError(f"pi and A must be ({C}, {n}) and ({C}, {n}, {n}) "
                             f"for {n} states, got {self.pi.shape} and {self.A.shape}")
        if np.any(self.pi < 0) or np.any(self.A < 0) or np.any(self.B < 0):
            raise ValueError("negative probability")
        for name, m in (("pi", self.pi), ("A", self.A), ("B", self.B)):
            # row by row, so a NaN class (a diverged training) hides no other
            err = np.abs(m.sum(axis=-1) - 1.0)
            if np.any(err > _ROW_TOL):
                raise ValueError(f"{name} row sums off by {np.nanmax(err):.2e}")
        # np.any counts a NaN as nonzero
        if np.any(np.tril(self.A, -1)) or np.any(np.triu(self.A, 2)):
            raise ValueError("transition outside left-right support")
        self.steps = np.concatenate([self.A * self.B.transpose(2, 0, 1)[:, :, None, :],
                                     np.broadcast_to(np.eye(n), (1, C, n, n))])
        self.low = float(self.A.min(where=self.A > 0.0, initial=1.0)
                         * self.B.min(where=self.B > 0.0, initial=1.0))

    def __len__(self) -> int:
        return self.B.shape[0]

    def __iter__(self):
        for j in range(len(self)):
            yield DiscreteHMM(self.pi[j:j + 1], self.A[j:j + 1], self.B[j:j + 1])

    @property
    def n_states(self) -> int:
        return self.B.shape[1]

    @property
    def n_symbols(self) -> int:
        return self.B.shape[2]


@dataclass
class TrainReport:
    """Baum-Welch trajectory: one total log-likelihood per iteration."""

    log_likelihoods: list = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        return len(self.log_likelihoods)


@dataclass
class GestureResponse:
    """Per-class length-normalized forward log-likelihoods (R_gesture)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError("values must be a non-empty (classes,) array")

    @property
    def best_class(self) -> int:
        """The highest-scoring class; argmax takes the lowest on ties."""
        return int(self.values.argmax())


def init_left_right(n_states: int, n_symbols: int, n_classes: int = 1) -> DiscreteHMM:
    """Fresh models: start in state 0, 0.5 self/advance, uniform emissions."""
    if min(n_states, n_symbols, n_classes) < 1:
        raise ValueError("n_states, n_symbols and n_classes must be >= 1")
    pi = np.zeros((n_classes, n_states))
    pi[:, 0] = 1.0
    A = np.zeros((n_classes, n_states, n_states))
    idx = np.arange(n_states - 1)
    A[:, idx, idx] = A[:, idx, idx + 1] = 0.5
    A[:, -1, -1] = 1.0
    B = np.full((n_classes, n_states, n_symbols), 1.0 / n_symbols)
    return DiscreteHMM(pi=pi, A=A, B=B)


def _bands(A: np.ndarray, cls: np.ndarray, emissions: np.ndarray) -> np.ndarray:
    """Each row's emissions (T, R, n) folded into its class's two bands of A
    (C, n, n), cls (R,) naming the classes: (T, 2, R, n), [:, 0] holding
    A[i, i] P(o_t | i) (stay) but the first step's emissions at t = 0, and
    [:, 1, :, :-1] A[i, i + 1] P(o_t | i + 1) (move), its last column 0."""
    bands = np.zeros((emissions.shape[0], 2) + emissions.shape[1:])
    np.multiply(A.diagonal(0, 1, 2)[cls], emissions, out=bands[:, 0])
    np.multiply(A.diagonal(1, 1, 2)[cls], emissions[..., 1:], out=bands[:, 1, :, :-1])
    bands[0, 0] = emissions[0]
    return bands


def _scaled_forward(pi: np.ndarray, stay: np.ndarray, move: np.ndarray):
    """Normalized forward pass over R stacked rows, in one time loop, on
    the two bands of _bands; pi is (R, n) or (1, n). Returns alpha_hat
    (T, R, n) and c (R, T), c[r, t] = P(o_t | o_1..t-1) in row r. A row of
    probability zero reads c = 0 at that step and NaN after it, and a NaN
    model reads NaN; neither touches the other rows."""
    T, R, n = stay.shape
    alpha = np.empty((T, R, n))
    c = np.empty((T, R, 1))
    flow = np.empty((R, n - 1))  # the move band's share of each step
    with np.errstate(invalid="ignore"):  # 0/0 in a zero-probability row
        # out, and reduce's (axis, dtype, out, keepdims), passed by position:
        # keywords cost a parse on each of the T steps
        np.multiply(pi, stay[0], alpha[0])
        np.add.reduce(alpha[0], 1, None, c[0], True)
        alpha[0] /= c[0]
        for a, prev, head, s, m, ct in zip(alpha[1:], alpha[:-1], alpha[:-1, :, :-1],
                                          stay[1:], move[1:], c[1:]):
            np.multiply(prev, s, a)
            np.multiply(head, m, flow)
            a[:, 1:] += flow
            np.add.reduce(a, 1, None, ct, True)
            a /= ct
    return alpha, c[:, :, 0].T


def _log_likelihoods(hmm: DiscreteHMM, sym: np.ndarray) -> np.ndarray:
    """log P(sym) under each class model (-inf if impossible, NaN for a NaN
    model), one scaled step per block: frames 2..T form nb = ceil((T-1)/q)
    blocks of step matrices A diag(B[:, o_t]), gathered from the record's
    `steps` and identity-padded, which log2(q) batched pairings multiply
    into P_b; with v normalized, c_b = sum(v P_b) and log P = log c_0 +
    sum log c_b. Over more than one block the first pairing multiplies each
    distinct pair of steps once and gathers the products back to their
    blocks.

    Proof. With L_0 = fl(min positive A * min positive B), L_(l+1) =
    fl(L_l^2), q = 2^l is the largest power of two <= 16 with L_l >=
    2^-1022; a subnormal L_0 gives q = 1 and voids the bound. Monotone
    rounding of non-negative sums makes each block entry an exact 0 where
    the exact product is 0, else a normal float >= L_l; identities
    multiply exactly. So each path of prod c_b has at most K = (T + q)
    (2n + 1) roundings (1 + d), |d| <= u = 2^-53: q + (q - 1) n per block
    product, 2n + 1 per vector step (Higham, "Accuracy and Stability of
    Numerical Algorithms", ch. 3). The logs (4 ulp each) and their sum add
    (nb + 9) u sum |log c_b|, ~|log P| as each c_b <= 1 up to the row
    tolerance. So |log P~ - log P| <= K u / (1 - K u) + (nb + 9) u sum
    |log c_b|, P exact for the float parameters, while no entry of v is
    subnormal (one errs by <= 2^-1075, as at q = 1, the per-frame
    recursion). An impossible sequence has an exact block sum 0: c_b = 0.
    q is also at most the first power of two >= T - 1, so a short sequence
    is not padded to a whole 16-frame block; a smaller q only shrinks K.
    Taking a repeated pair's product once leaves K as it is: each block is
    still the same product of the same matrices in the same order, so its
    roundings, and every score's bytes, are those of a product per pair.
    """
    if sym.min() < 0 or sym.max() >= hmm.n_symbols:
        raise ValueError("symbol out of range for this model")
    pi, B, table = hmm.pi, hmm.B, hmm.steps
    R, n = pi.shape
    pad = len(table) - 1  # the identity, after one step matrix per symbol
    low, q = hmm.low, 1
    while q < min(16, sym.shape[0] - 1) and low * low >= 2.0 ** -1022:
        low, q = low * low, 2 * q
    padded = np.append(sym[1:], np.full(-(sym.shape[0] - 1) % q, pad))
    if 1 < q < sym.shape[0] - 1:
        # symbols come in runs, so over several blocks most pairs of steps
        # repeat: the first pairing takes one product per distinct pair
        pairs, at = np.unique(padded[0::2] * len(table) + padded[1::2],
                              return_inverse=True)
        left, right = np.divmod(pairs, len(table))
        blocks = np.matmul(table[left], table[right])[at].reshape(-1, q // 2, R, n, n)
    else:
        blocks = table[padded].reshape(-1, q, R, n, n)
    while blocks.shape[1] > 1:
        blocks = np.matmul(blocks[:, 0::2], blocks[:, 1::2])
    v = pi * B[:, :, sym[0]]
    c = np.empty((len(blocks) + 1, R))
    v.sum(axis=1, out=c[0])
    scaled = np.empty((R, 1, n))
    with np.errstate(invalid="ignore"):  # 0/0 in a zero-probability row
        for P, prev, total in zip(blocks[:, 0], c, c[1:]):
            np.divide(v, prev[:, None], out=scaled[:, 0])
            v = np.matmul(scaled, P)[:, 0, :]
            v.sum(axis=1, out=total)
    c = c.T
    out = np.full(R, NEG_INF)
    possible = ~(c <= 0.0).any(axis=1)
    out[possible] = np.log(c[possible]).sum(axis=1)
    return out


def forward_log_likelihood(hmm: DiscreteHMM, obs) -> float:
    """log P(obs | hmm) of a one-class hmm, -inf if impossible. The block
    recursion normalizes its vector once per block, so 10^4-step sequences
    do not underflow."""
    if len(hmm) != 1:
        raise ValueError(f"forward_log_likelihood scores one model, got {len(hmm)}")
    return float(_log_likelihoods(hmm, _symbols(obs))[0])


def _floor_rows(counts: np.ndarray, support: np.ndarray, prev: np.ndarray,
                eps: float) -> np.ndarray:
    """Exact M-step under the constraints x >= eps on support, 0 elsewhere,
    sum x = 1, on every row of (..., m) stacks at once: proportional
    shares, with undersized entries pinned at eps until no share falls
    below it (each round pins one more entry of some row, so at most m).
    A row with one supported entry gets 1.0 there; a row with no counts
    keeps prev (state never visited, any feasible row is optimal)."""
    cnt = np.where(support, counts, 0.0)
    pinned = support & (cnt <= 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # rows of no counts
        for _ in range(counts.shape[-1]):
            free = support & ~pinned
            budget = 1.0 - pinned.sum(axis=-1, keepdims=True) * eps
            free_cnt = np.where(free, cnt, 0.0)
            share = free_cnt * (budget / free_cnt.sum(axis=-1, keepdims=True))
            newly = free & (share < eps)
            if not newly.any():
                break
            pinned |= newly
    out = np.where(pinned, eps, np.where(free, share, 0.0))
    out = np.where((cnt.sum(axis=-1) <= 0.0)[..., None], prev, out)
    return np.where(support.sum(axis=-1, keepdims=True) == 1, support, out)


def _stacked_backward(stay: np.ndarray, move: np.ndarray, c: np.ndarray,
                      lengths: np.ndarray) -> np.ndarray:
    """Scaled backward pass over the rows of a stacked forward pass, its
    step's mirror image, with c (R, T) from _scaled_forward and lengths (R,)
    the rows' sequence lengths. beta is 1.0 from each row's last step on, so
    each row gets the bytes of its own backward pass. Returns (T, R, n)."""
    T, R, n = stay.shape
    ended = np.arange(T)[:, None] >= lengths - 1
    beta = np.empty_like(stay)
    beta[T - 1] = 1.0
    flow = np.empty((R, n - 1))  # the move band's share of each step
    # t = T - 2 down to 0 from reversed slices, each of T - 1 entries (at
    # T = 1, beta[T - 2::-1] would start at the end instead)
    for b, nxt, tail, s, m, ct, end in zip(beta[:-1][::-1], beta[1:][::-1],
                                            beta[1:, :, 1:][::-1], stay[1:][::-1],
                                            move[1:][::-1], c.T[1:, :, None][::-1],
                                            ended[:-1][::-1]):
        np.multiply(s, nxt, b)
        np.multiply(m, tail, flow)
        b[:, :-1] += flow
        b /= ct
        b[end] = 1.0
    return beta


def baum_welch_classes(hmm: DiscreteHMM, trainings, max_iter: int,
                       tol: float) -> tuple[DiscreteHMM, list[TrainReport]]:
    """Multi-sequence EM re-estimation of (pi, A, B), one model per class:
    returns the trained models and one report per class.

    Expected counts are accumulated across a class's sequences before each
    re-estimation. Structural zeros never become positive; supported
    entries never drop below EPS_P. A class stops when its total
    log-likelihood improves by less than tol, or after max_iter iterations.

    Every class shares one E-step per iteration: the forward and backward
    recursions run once on A's two bands, with no matrix product, over a
    stack holding one row per sequence of each class still training, and a
    converged class's rows leave the stack. Each count is a reduction over
    the stack that adds its terms in (row, time) order from 0.0, the A
    counts a row's summed steps at a time: each class's model and report
    are those it would get trained alone.
    """
    C, n, k = hmm.B.shape
    if len(trainings) != C:
        raise ValueError("one training set per class model is required")
    seqs = []
    for training in trainings:  # the first class at fault names the error
        if not training:
            raise EmptyInputError("no training sequences")
        class_seqs = [_symbols(s) for s in training]
        flat = np.concatenate(class_seqs)
        if flat.min() < 0 or flat.max() >= k:
            raise ValueError("training symbol out of range")
        seqs += class_seqs
    # one row per sequence, in class order; steps past a sequence's end
    # read the extra symbol k, whose emission is 1.0 in every state
    row_class = np.repeat(np.arange(C), [len(t) for t in trainings])
    lengths = np.array([s.shape[0] for s in seqs])
    padded = np.full((len(seqs), lengths.max()), k)
    padded[np.arange(lengths.max()) < lengths[:, None]] = np.concatenate(seqs)

    pi, A, B = hmm.pi.copy(), hmm.A.copy(), hmm.B.copy()
    pi_sup, A_sup, B_sup = pi > 0.0, A > 0.0, B > 0.0
    reports = [TrainReport() for _ in range(C)]
    done = np.zeros(C, dtype=bool)

    for _ in range(max_iter):
        if done.all():
            break
        rows = np.flatnonzero(~done[row_class])
        cls, lens = row_class[rows], lengths[rows]
        sym = padded[rows, :lens.max()]
        B_ext = np.concatenate([B, np.ones((C, n, 1))], axis=2)
        bands = _bands(A, cls, B_ext.transpose(0, 2, 1)[cls, sym.T])
        stay, move = bands[:, 0], bands[:, 1, :, :-1]
        alphas, cs = _scaled_forward(pi[cls], stay, move)
        # steps past a sequence's end do not count; a NaN model's c passes
        real = sym < k
        if np.any((cs <= 0.0) & real):
            raise ValueError("training sequence has zero probability")
        betas = _stacked_backward(stay, move, cs, lens)
        # xi_t(i, j) = alpha_t(i) A[i, j] P(o_t+1 | j) beta_t+1(j) / c_t+1 in place
        # of both bands; a sum over time of blocks of 2 R n entries adds in order
        m = betas[1:] / cs.T[1:, :, None]
        m[~real.T[1:]] = 0.0
        bands[1:] *= alphas[:-1, None]
        stay[1:] *= m
        move[1:] *= m[:, :, 1:]
        xi = bands[1:].sum(axis=0)
        A_cnt = np.zeros((C, n, n))
        np.add.at(A_cnt.reshape(C, n * n)[:, ::n + 1], cls, xi[0])
        np.add.at(A_cnt.reshape(C, n * n)[:, 1::n + 1], cls, xi[1, :, :-1])
        del bands, stay, move, m
        # gamma = alpha beta, in (R, T, n) order for the B terms in (row, time)
        # order; the pad symbol's bin takes the steps past each row's end
        alphas *= betas
        pi_cnt = np.zeros((C, n))
        np.add.at(pi_cnt, cls, alphas[0])
        keys = ((cls[:, None] * n + np.arange(n)) * (k + 1))[:, None] + sym[..., None]
        B_cnt = np.bincount(keys.ravel(), alphas.swapaxes(0, 1).ravel(), C * n * (k + 1))
        B_cnt = B_cnt.reshape(C, n, k + 1)[:, :, :k]
        del alphas, betas, keys
        class_ll = np.bincount(np.broadcast_to(cls[:, None], real.shape)[real],
                               np.log(cs[real]), C)
        for j in np.flatnonzero(~done):
            lls = reports[j].log_likelihoods
            lls.append(float(class_ll[j]))
            reports[j].converged = done[j] = len(lls) >= 2 and lls[-1] - lls[-2] < tol
        pi[~done] = _floor_rows(pi_cnt[~done], pi_sup[~done], pi[~done], EPS_P)
        A[~done] = _floor_rows(A_cnt[~done], A_sup[~done], A[~done], EPS_P)
        B[~done] = _floor_rows(B_cnt[~done], B_sup[~done], B[~done], EPS_P)

    return DiscreteHMM(pi, A, B), reports


def baum_welch(hmm: DiscreteHMM, training, max_iter: int,
               tol: float) -> tuple[DiscreteHMM, TrainReport]:
    """One model's multi-sequence EM: baum_welch_classes on a single class."""
    trained, (report,) = baum_welch_classes(hmm, [training], max_iter, tol)
    return trained, report


def classify_gesture(hmm: DiscreteHMM, obs) -> GestureResponse:
    """Score a sequence under every class model (length-normalized), all
    classes in one stacked forward recursion."""
    sym = _symbols(obs)
    return GestureResponse(values=_log_likelihoods(hmm, sym) / sym.shape[0])
