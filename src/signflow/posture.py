"""Hand-posture branch: shape context, bag-of-words, classifier.

A hand arrives as a binary mask on a common 65x65 grid, one per hand and
frame (a PGM mask archive on disk, or the synthetic generator's masks); a
present hand is a single 8-connected region. A HandRegion holds its mask
as rows packed 8 pixels to a byte, 585 bytes, and unpacks it on demand.

Each mask's outer contour is sampled at 20 equal arc-length points; every
point yields a 49-bin log-polar shape context (12 angle bins x 4 outer
rings + 1 merged inner disk, radii 6..32 px). video_shape_contexts
unpacks a video's present masks in one call and describes them in three
array passes, with no per-contour loop: trace_boundary walks every outer
contour at once, sample_contour samples them all, and
frame_shape_contexts bins every point pair of every contour into integer
counts, 1 byte each for 20 points. Training holds each contour's counts,
computed once, for both the codebook sample and the bag-of-words;
shape_context_rows divides them into float rows only where those are
used. A video's rows are
quantized against a K-means codebook in one call and accumulated into
one [right | left] histogram, scored by a linear multiclass model:
R_posture = W p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .codebook import Codebook, quantize_batch
from .linear_model import MulticlassLinearModel, fit_multiclass_linear, response
from .skeleton import EmptyInputError

PATCH = 65
CONTOUR_POINTS = 20
INNER_RADIUS = 6.0
OUTER_RADIUS = 32.0
N_ANGLE_BINS = 12
N_RINGS = 4  # between inner and outer radius; r < inner is one merged bin
SC_DIM = 1 + N_ANGLE_BINS * N_RINGS  # 49
DEFAULT_POSTURE_COST = 0.8352

# geometric ring edges from 6 to 32 px
RING_EDGES = INNER_RADIUS * (OUTER_RADIUS / INNER_RADIUS) ** (np.arange(N_RINGS + 1) / N_RINGS)


# 8-connected components inside each mask of an (N, h, w) stack, none
# across masks, by a two-pass labelling over foreground runs (Rosenfeld &
# Pfaltz 1966; Wu, Otoo & Suzuki 2009). A run is a row's maximal stretch
# of foreground; components are numbered in raster order of their first
# pixel, as scipy.ndimage.label numbers them.


def _runs(masks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The foreground runs of every row of an (N, h, w) stack, in raster
    order: each run's row as n * (h + 1) + r, so that no two masks have
    adjacent rows, and its first and past-the-last columns."""
    masks = np.asarray(masks, dtype=bool)
    n, h, w = masks.shape
    union = masks.any(axis=0)
    rows, cols = np.flatnonzero(union.any(axis=1)), np.flatnonzero(union.any(axis=0))
    if rows.size == 0:
        return rows, rows, rows
    ch, cw = rows[-1] + 1 - rows[0], cols[-1] + 1 - cols[0]
    # the crop between two background columns: each row's edges
    # alternate start, end
    padded = np.zeros((n, ch, cw + 2), dtype=bool)
    padded[:, :, 1:-1] = masks[:, rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
    edges = np.flatnonzero(padded[:, :, 1:] != padded[:, :, :-1])
    line, col = np.divmod(edges, cw + 1)
    index, r = np.divmod(line[::2], ch)
    return index * (h + 1) + r + rows[0], col[::2] + cols[0], col[1::2] + cols[0]


def _links(row, start, end) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (upper, lower) index pairs of runs that touch 8-connectedly
    from adjacent rows, and each run's count of touching runs above.

    The runs that touch run b from above are those of the row above b's
    that end at or after b's first column and start at or before its
    past-the-last column: a contiguous range of the raster order, found
    by two searchsorted calls over (row, column) keys."""
    span = int(end.max(initial=0)) + 1
    lo = np.searchsorted(row * span + end, (row - 1) * span + start, side="left")
    hi = np.searchsorted(row * span + start, (row - 1) * span + end, side="right")
    above = np.maximum(hi - lo, 0)
    lower = np.repeat(np.arange(row.size), above)
    upper = np.arange(lower.size) - np.repeat(np.cumsum(above) - above - lo, above)
    return upper, lower, above


def _first_runs(n: int, upper, lower) -> np.ndarray:
    """For each of n runs, the lowest-indexed run of its component.

    Union-find without a loop over links: every link hooks the larger of
    its two roots under the smaller (np.minimum.at), then pointer jumping
    points every run at its root; links whose ends share a root are
    settled for good and dropped."""
    root = np.arange(n)
    while upper.size:
        a, b = root[upper], root[lower]
        np.minimum.at(root, a, b)
        np.minimum.at(root, b, a)
        while not np.array_equal(root[root], root):
            root = root[root]
        open_ = root[upper] != root[lower]
        upper, lower = upper[open_], lower[open_]
    return root


def _component_counts(masks) -> np.ndarray:
    """The number of 8-connected components of each mask of an (N, h, w)
    stack. Every component has a run with no touching run above it, so a
    mask with at most one such run has that many components; only masks
    with two or more go through union-find."""
    row, start, end = _runs(masks)
    upper, lower, above = _links(row, start, end)
    owner = row // (masks.shape[1] + 1)
    counts = np.bincount(owner[above == 0], minlength=len(masks))
    hard = counts > 1
    if hard.any():
        linked = hard[owner[lower]]
        first = _first_runs(row.size, upper[linked], lower[linked])
        roots = owner[first == np.arange(row.size)]
        counts[hard] = np.bincount(roots, minlength=len(masks))[hard]
    return counts


def _labelled_runs(masks) -> tuple[np.ndarray, ...]:
    """The runs of an (N, h, w) stack (see `_runs`) and each run's
    component, numbered from 1 in raster order over the whole stack."""
    row, start, end = _runs(masks)
    upper, lower, _ = _links(row, start, end)
    first = _first_runs(row.size, upper, lower)
    own = first == np.arange(row.size)
    return row, start, end, np.cumsum(own)[first]


def _paint(shape, row, start, end, values) -> np.ndarray:
    """An (N, h, w) array of `values`' dtype holding each run's value on
    its pixels and 0 elsewhere: one cumulative sum over +value at each
    start and -value at each end, every position distinct."""
    n, h, w = shape
    values = np.asarray(values)
    steps = np.zeros(n * (h + 1) * (w + 1), dtype=values.dtype)
    steps[row * (w + 1) + start] = values
    steps[row * (w + 1) + end] = -values
    return np.cumsum(steps, dtype=values.dtype).reshape(n, h + 1, w + 1)[:, :h, :w]


class HandSide(str, Enum):
    RIGHT = "R"
    LEFT = "L"


class HandRegion:
    """Segmented hand on the common 65x65 grid, present when its mask has
    foreground; which hand it is, is the key it is stored under. It holds
    the mask's rows packed by np.packbits, (65, 9) uint8 `bits`, 585 bytes
    against 4,225; `mask` unpacks them into a read-only bool array."""

    __slots__ = ("bits", "present")

    def __init__(self, mask):
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (PATCH, PATCH):
            raise ValueError(f"mask must be {PATCH}x{PATCH}")
        self.present = bool(mask.any())
        if self.present and _component_counts(mask[None])[0] != 1:
            raise ValueError("present region must be a single 8-connected component")
        self.bits = np.packbits(mask, axis=-1)

    @property
    def mask(self) -> np.ndarray:
        mask = np.unpackbits(self.bits, axis=-1, count=PATCH).view(bool)
        mask.flags.writeable = False
        return mask

    @classmethod
    def _validated(cls, bits: np.ndarray, present: bool) -> "HandRegion":
        """A region without the per-mask checks, for callers that made them
        (load_mask_archive's one component count) or need none (the
        generator's `_largest_component` masks): bits is a 65x65 bool mask's
        rows packed by np.packbits, one 8-connected component if present,
        else empty."""
        region = cls.__new__(cls)
        region.bits, region.present = bits, present
        return region


def _frame_regions(masks) -> list:
    """Per-frame {HandSide: HandRegion} dicts, right hand first, over a
    (T, 2, 65, 65) bool stack, right then left, of valid regions (see
    HandRegion._validated). The stack is packed once into (T, 2, 65, 9)
    uint8 rows, of which each region's bits is a view."""
    bits = np.packbits(masks, axis=-1)
    present = bits.any(axis=(2, 3)).tolist()
    return [{HandSide.RIGHT: HandRegion._validated(right, p_right),
             HandSide.LEFT: HandRegion._validated(left, p_left)}
            for (right, left), (p_right, p_left) in zip(bits, present)]


@dataclass
class PostureModel:
    """Linear posture classifier over BoW space plus its codebook."""

    model: MulticlassLinearModel
    codebook: Codebook


def _largest_component(masks) -> np.ndarray:
    """The largest 8-connected foreground component of each mask of an
    (N, h, w) stack, painted back from its runs; size ties keep the
    component numbered first in its mask, the one whose first pixel comes
    first in raster order."""
    masks = np.asarray(masks)
    row, start, end, label = _labelled_runs(masks)
    size = np.bincount(label, weights=end - start)
    owner = np.zeros(size.size, dtype=np.int64)  # each component's mask
    owner[label] = row // (masks.shape[1] + 1)
    # each mask's components largest first; the stable sort keeps ties in
    # label order, so each mask's first is the one kept
    order = np.lexsort((-size[1:], owner[1:])) + 1
    kept = np.zeros(size.size, dtype=bool)
    kept[order[np.unique(owner[order], return_index=True)[1]]] = True
    keep = kept[label]
    return _paint(masks.shape, row[keep], start[keep], end[keep], np.int8(1)) > 0


# clockwise king moves, image coords (row grows downward)
_DIRS = np.array(((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1)))


def _moore_tables() -> tuple[np.ndarray, np.ndarray]:
    """The Moore walk as lookups.

    NEXT[p, back] is the first direction clockwise after `back` whose bit
    is set in the 8-neighbor pattern p (bit d: the neighbor in direction d
    is foreground). BACK[d] is the direction, seen from the pixel that
    move d reaches, of the neighbor scanned just before the hit; that
    neighbor is background, and the next scan resumes after it.
    """
    scan = (np.arange(8)[:, None] + np.arange(1, 9)) % 8  # (back, step)
    hit = (np.arange(256)[:, None, None] >> scan) & 1
    nxt = scan[np.arange(8), hit.argmax(-1)]
    behind = _DIRS[(np.arange(8) - 1) % 8] - _DIRS
    back = (behind[:, None] == _DIRS).all(-1).argmax(-1)
    return nxt, back


_NEXT, _BACK = _moore_tables()


def trace_boundary(masks) -> tuple[np.ndarray, np.ndarray]:
    """Outer boundaries of a stack of masks by Moore neighbor tracing,
    each clockwise from its topmost-then-leftmost foreground pixel.

    masks: (N, h, w) bool, none of them empty. Returns (N, L, 2) int64
    (row, col) paths and their (N,) lengths; past its length a row holds
    filler. Single-pixel spurs appear once per side, so each path is the
    closed outer polygon. A walk stops when it leaves its first pixel in
    its first direction again, or after 4 x its foreground + 8 moves; a
    last pixel equal to the first is dropped.

    All walks run at once: a successor table over (boundary pixel, back
    direction) states is composed with itself (pointer doubling), and
    each round doubles the materialized prefix of every walk.
    """
    masks = np.asarray(masks, dtype=bool)
    if masks.ndim != 3:
        raise ValueError("masks must be an (N, h, w) stack")
    n = masks.shape[0]
    if n == 0 or not masks.any(axis=(1, 2)).all():
        raise EmptyInputError("empty mask")
    # crop to the union bounding box plus a zero ring, which stands in
    # for the bounds check of the grid's edge
    union = masks.any(axis=0)
    rows, cols = np.flatnonzero(union.any(axis=1)), np.flatnonzero(union.any(axis=0))
    grid = np.zeros((n, rows[-1] - rows[0] + 3, cols[-1] - cols[0] + 3), dtype=bool)
    grid[:, 1:-1, 1:-1] = masks[:, rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
    _, h, w = grid.shape
    fg = np.flatnonzero(grid)
    offsets = _DIRS @ (w, 1)
    flat = grid.view(np.uint8).ravel()
    pattern = np.zeros(fg.size, dtype=np.uint8)
    for d, offset in enumerate(offsets):  # bit d: the neighbor in direction d is foreground
        pattern |= flat[fg + offset] << d
    # every pixel a walk visits has a background neighbor
    pixel, pattern = fg[pattern != 255], pattern[pattern != 255]
    slot = np.zeros(grid.size, dtype=np.int64)
    slot[pixel] = np.arange(pixel.size)
    # state s = 8 * slot + back; its move d = step[s] keys as 8 * slot + d.
    # An isolated pixel's successors are filler: a walk from it stops at once.
    step = _NEXT[pattern]
    succ = (slot[pixel[:, None] + offsets[step]] * 8 + _BACK[step]).ravel()
    move = (8 * np.arange(pixel.size)[:, None] + step).ravel()

    start = np.searchsorted(pixel, np.arange(n) * (h * w))
    walk = (8 * start + 6)[:, None]  # the west neighbor of a start is background
    first = move[walk[:, 0]]
    n_fg = np.bincount(fg // (h * w), minlength=n)
    stop = np.where(pattern[start] == 0, 0, 4 * n_fg + 8)  # isolated start pixel
    jump = succ
    while True:
        done = walk.shape[1]
        walk = np.concatenate([walk, jump[walk]], axis=1)
        hit = move[walk[:, done:]] == first[:, None]
        stop = np.where(hit.any(axis=1), np.minimum(stop, done + hit.argmax(axis=1)), stop)
        if (stop < walk.shape[1]).all():
            break
        jump = jump[jump]
    at = pixel[walk[:, :stop.max() + 1] // 8]
    length = stop + 1 - ((stop > 0) & (at[np.arange(n), stop] == at[:, 0]))
    at %= h * w
    paths = np.stack([at // w + (rows[0] - 1), at % w + (cols[0] - 1)], axis=-1)
    return paths, length


def sample_contour(masks, m: int = CONTOUR_POINTS) -> tuple[np.ndarray, np.ndarray]:
    """m points at equal arc-length spacing along each traced boundary.

    masks: (N, h, w) bool stack. Returns the (K, m, 2) float (x, y) image
    coordinates, each contour starting at its trace start pixel, and the
    (K,) indices into the stack they belong to: a mask whose boundary has
    fewer than 3 pixels is degenerate and left out.
    """
    if m < 3:
        raise ValueError("need at least 3 sample points")
    paths, length = trace_boundary(masks)
    kept = np.flatnonzero(length >= 3)
    n = length[kept, None]
    pts = paths[kept, :, ::-1].astype(np.float64)
    j = np.arange(pts.shape[1])
    nxt = np.take_along_axis(pts, np.where(j + 1 < n, j + 1, 0)[..., None], axis=1)
    diff = nxt - pts
    seg = np.where(j < n, np.hypot(diff[..., 0], diff[..., 1]), 0.0)
    # a running sum adds left to right, so each row equals its own cumsum
    cum = np.zeros((kept.size, j.size + 1))
    np.cumsum(seg, axis=1, out=cum[:, 1:])
    targets = np.arange(m) * (cum[np.arange(kept.size), n[:, 0], None] / m)
    # searchsorted(cum[:n + 1], targets, side="right") over an +inf tail
    ends = np.where(np.arange(j.size + 1) <= n, cum, np.inf)
    idx = np.minimum((ends[:, None, :] <= targets[..., None]).sum(-1) - 1, n - 1)
    rows = np.arange(kept.size)[:, None]
    seg, start, end = seg[rows, idx], pts[rows, idx], nxt[rows, idx]
    t = (targets - cum[rows, idx]) / np.where(seg > 0, seg, 1.0)
    return start + t[..., None] * (end - start), kept


def _count_dtype(m: int) -> np.dtype:
    """The narrowest unsigned dtype that holds a bin count of m points."""
    return np.min_scalar_type(max(m - 1, 0))


def frame_shape_contexts(points) -> np.ndarray:
    """All shape contexts of sampled contours as bin counts, one row per
    reference point.

    points: (m, 2) for one contour, or (..., m, 2) for several; returns
    their (n * m, 49) counts, contour after contour, in the narrowest
    unsigned dtype that holds m - 1. Row i of a contour is the log-polar
    histogram of that contour's other points around point i: bin 0
    collects everything closer than 6 px; bins 1..48 are laid out
    ring-major (4 geometric rings out to 32 px, 12 angle bins each,
    angles from the +x axis); points at or beyond 32 px are dropped. All
    point pairs are binned in one pass. A non-finite point raises
    ValueError.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim < 2 or pts.shape[-1] != 2:
        raise ValueError("points must be (..., m, 2)")
    if not np.isfinite(pts).all():
        raise ValueError("non-finite point coordinate")
    m = pts.shape[-2]
    pts = pts.reshape(math.prod(pts.shape[:-2]), m, 2)
    n_rows = pts.shape[0] * m
    x, y = pts[..., 0], pts[..., 1]
    dx = x[:, None, :] - x[:, :, None]  # dx[c, i, j]: point j relative to reference i
    dy = y[:, None, :] - y[:, :, None]
    theta = np.arctan2(dy, dx)
    r = np.hypot(dx, dy, out=dx)
    del dy
    np.add(theta, 2.0 * np.pi, out=theta, where=theta < 0)  # mod 2 pi, as |theta| <= pi
    theta *= N_ANGLE_BINS / (2.0 * np.pi)
    # each pair's key, row * 49 + bin, built in place, 4 bytes where that
    # holds it; pairs that are not binned all count under one sentinel key
    sentinel = n_rows * SC_DIM
    key = theta.astype(np.int32 if sentinel < 2 ** 31 else np.int64)
    del theta
    np.minimum(key, N_ANGLE_BINS - 1, out=key)
    # the ring is the count of inner edges <= r, so at most N_RINGS - 1,
    # counted in key's dtype (numpy's bool + bool is OR)
    ring = np.zeros_like(key)
    for edge in RING_EDGES[1:-1]:
        ring += r >= edge
    key += 1 + N_ANGLE_BINS * ring
    key[r < INNER_RADIUS] = 0
    key += np.arange(0, sentinel, SC_DIM, dtype=key.dtype).reshape(-1, m, 1)
    key[r >= OUTER_RADIUS] = sentinel
    del r
    key[:, np.arange(m), np.arange(m)] = sentinel
    counts = np.bincount(key.ravel(), minlength=sentinel + 1)[:-1]
    return counts.reshape(n_rows, SC_DIM).astype(_count_dtype(m))


def shape_context_rows(counts) -> np.ndarray:
    """Float rows of frame_shape_contexts counts: each row divided by its
    own integer total, so it sums to 1, or left all-zero."""
    return counts / np.maximum(counts.sum(axis=1, keepdims=True, dtype=np.int64), 1)


def video_shape_contexts(frames,
                         m: int = CONTOUR_POINTS) -> tuple[np.ndarray, np.ndarray]:
    """Shape-context rows of a whole video, in frame order.

    frames: iterable of per-frame {HandSide: HandRegion} dicts. Absent
    hands contribute nothing; a mask too small for a contour is skipped
    the same way. The present regions' packed rows are stacked and
    unpacked once, and their masks traced, sampled and binned as one
    stack. Returns the (n, 49) bin counts and, per row, the histogram
    half it counts in: 0 for the right hand, 1 for the left.
    """
    frames = list(frames)
    if not frames:
        raise EmptyInputError("no frames")
    present = [(side, region) for sides in frames
               for side, region in sides.items() if region.present]
    if not present:
        return np.empty((0, SC_DIM), dtype=_count_dtype(m)), np.empty(0, dtype=np.int64)
    bits = np.stack([region.bits for _, region in present])
    points, kept = sample_contour(np.unpackbits(bits, axis=-1, count=PATCH).view(bool), m)
    left = np.array([side == HandSide.LEFT for side, _ in present], dtype=np.int64)
    return frame_shape_contexts(points), np.repeat(left[kept], m)


def bow_from_shape_contexts(counts: np.ndarray, halves: np.ndarray,
                            posture_cb: Codebook) -> np.ndarray:
    """(2k,) [right | left] bag-of-words from video_shape_contexts output.

    The whole video is normalized and quantized at once; each half is
    L1-normalized by its own integer word count, or stays all-zero.
    """
    if posture_cb.dimension != SC_DIM:
        raise ValueError(f"posture codebook must be {SC_DIM}-D, "
                         f"got {posture_cb.dimension}")
    k = posture_cb.k
    words = quantize_batch(posture_cb, shape_context_rows(counts))
    tally = np.bincount(halves * k + words, minlength=2 * k).reshape(2, k)
    return (tally / np.maximum(tally.sum(axis=1, keepdims=True), 1)).ravel()


def encode_video_bow(frames, posture_cb: Codebook,
                     m: int = CONTOUR_POINTS) -> np.ndarray:
    """Bag-of-words over a whole video's per-frame {HandSide: HandRegion}
    dicts; see video_shape_contexts and bow_from_shape_contexts."""
    counts, halves = video_shape_contexts(frames, m)
    return bow_from_shape_contexts(counts, halves, posture_cb)


def train_posture_classifier(X, y, codebook: Codebook,
                             cost: float = DEFAULT_POSTURE_COST,
                             seed: int = 0, epochs: int = 60) -> PostureModel:
    """Fit the linear multiclass posture model on (n, 2k) bags-of-words X
    and their (n,) classes y."""
    if np.shape(X)[-1] != 2 * codebook.k:
        raise ValueError("BoW dimension does not match 2 x codebook size")
    model = fit_multiclass_linear(X, y, cost, epochs=epochs, seed=seed)
    return PostureModel(model=model, codebook=codebook)


def posture_response(model: PostureModel, bow: np.ndarray) -> np.ndarray:
    """R_posture = W p for a (2k,) bag-of-words p, no normalization."""
    return response(model.model, bow)
