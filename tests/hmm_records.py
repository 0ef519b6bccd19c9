"""Test helpers that make and unpack the stacked class-HMM record.

`DiscreteHMM` holds every class as stacks `pi (C, n)`, `A (C, n, n)` and
`B (C, n, k)`. Oracles and hand-written cases think in one model's
`(n,)`, `(n, n)` and `(n, k)` arrays; these helpers turn those into
records and back.
"""

import numpy as np

from signflow.hmm import DiscreteHMM


def single(pi, A, B) -> DiscreteHMM:
    """The one-class record of one model's (n,), (n, n) and (n, k) arrays."""
    return DiscreteHMM(*(np.asarray(x, dtype=np.float64)[None] for x in (pi, A, B)))


def stack(models) -> DiscreteHMM:
    """One record of the classes of every given record, in order."""
    return DiscreteHMM(*(np.concatenate([getattr(m, p) for m in models])
                         for p in ("pi", "A", "B")))


def arrays(hmm: DiscreteHMM):
    """(pi, A, B) of a one-class record, without the class axis."""
    assert len(hmm) == 1
    return hmm.pi[0], hmm.A[0], hmm.B[0]
