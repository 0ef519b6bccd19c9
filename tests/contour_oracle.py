"""Per-contour posture kernels, kept as oracles for the batched ones.

These are the one-mask-at-a-time Moore walk, arc-length sampler and
shape-context binner that signflow.posture's stacked trace_boundary,
sample_contour and frame_shape_contexts replaced. The batched kernels
must reproduce their integer paths, points, bin counts and rows exactly.
"""

import numpy as np

from signflow.posture import (
    CONTOUR_POINTS,
    INNER_RADIUS,
    N_ANGLE_BINS,
    N_RINGS,
    OUTER_RADIUS,
    RING_EDGES,
    SC_DIM,
)
from signflow.skeleton import EmptyInputError, SignflowError


class DegenerateContour(SignflowError):
    """The mask's boundary is too small to sample a contour from."""


# clockwise king moves, image coords (row grows downward)
_DIRS = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))
_DIR_INDEX = {d: i for i, d in enumerate(_DIRS)}


def trace_boundary(mask: np.ndarray) -> np.ndarray:
    """Outer boundary of one mask by Moore neighbor tracing, clockwise from
    the topmost-then-leftmost foreground pixel, as (n, 2) (row, col)."""
    mask = np.asarray(mask, dtype=bool)
    fg = np.argwhere(mask)
    if fg.size == 0:
        raise EmptyInputError("empty mask")
    h, w = mask.shape
    start = (int(fg[0, 0]), int(fg[0, 1]))

    def is_fg(r, c):
        return 0 <= r < h and 0 <= c < w and mask[r, c]

    path = [start]
    cur = start
    back = 6
    first_move = None
    for _ in range(4 * fg.shape[0] + 8):
        for step in range(1, 9):
            d = (back + step) % 8
            nr, nc = cur[0] + _DIRS[d][0], cur[1] + _DIRS[d][1]
            if is_fg(nr, nc):
                break
        else:
            break
        if (cur, d) == first_move:
            break
        if first_move is None:
            first_move = (cur, d)
        lr = cur[0] + _DIRS[(d - 1) % 8][0]
        lc = cur[1] + _DIRS[(d - 1) % 8][1]
        cur = (nr, nc)
        back = _DIR_INDEX[(lr - nr, lc - nc)]
        path.append(cur)
    if len(path) > 1 and path[-1] == path[0]:
        path.pop()
    return np.array(path, dtype=np.int64)


def sample_contour(region, m: int = CONTOUR_POINTS) -> np.ndarray:
    """m points at equal arc length along one region's traced boundary, as
    (m, 2) float (x, y); DegenerateContour below 3 boundary pixels."""
    if not region.present:
        raise ValueError("cannot sample the contour of an absent region")
    if m < 3:
        raise ValueError("need at least 3 sample points")
    return sample_path(trace_boundary(region.mask), m)


def sample_path(path: np.ndarray, m: int = CONTOUR_POINTS) -> np.ndarray:
    """sample_contour's arc-length step on an already traced path."""
    if path.shape[0] < 3:
        raise DegenerateContour(f"boundary has only {path.shape[0]} pixels")
    pts = path[:, ::-1].astype(np.float64)
    nxt = np.roll(pts, -1, axis=0)
    seg = np.hypot(*(nxt - pts).T)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    perimeter = cum[-1]
    targets = np.arange(m) * (perimeter / m)
    idx = np.minimum(np.searchsorted(cum, targets, side="right") - 1, len(seg) - 1)
    t = (targets - cum[idx]) / np.where(seg[idx] > 0, seg[idx], 1.0)
    return pts[idx] + t[:, None] * (nxt[idx] - pts[idx])


def frame_shape_contexts(points) -> np.ndarray:
    """The (m, 49) shape contexts of one sampled contour, each row divided
    by its number of binned points."""
    counts = shape_context_counts(points)
    return counts / np.maximum(counts.sum(axis=1), 1)[:, None]


def shape_context_counts(points) -> np.ndarray:
    """The (m, 49) int64 bin counts of one sampled contour."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be (m, 2)")
    m = pts.shape[0]
    x, y = pts[:, 0], pts[:, 1]
    dx = x[None, :] - x[:, None]
    dy = y[None, :] - y[:, None]
    r = np.hypot(dx, dy)
    keep = r < OUTER_RADIUS
    np.fill_diagonal(keep, False)
    ref = np.nonzero(keep)[0]
    dx, dy, r = dx[keep], dy[keep], r[keep]
    theta = np.mod(np.arctan2(dy, dx), 2.0 * np.pi)
    abin = np.minimum((theta * (N_ANGLE_BINS / (2.0 * np.pi))).astype(np.int64),
                      N_ANGLE_BINS - 1)
    ring = np.minimum(np.searchsorted(RING_EDGES, r, side="right") - 1, N_RINGS - 1)
    bins = np.where(r < INNER_RADIUS, 0, 1 + ring * N_ANGLE_BINS + abin)
    return np.bincount(ref * SC_DIM + bins, minlength=m * SC_DIM).reshape(m, SC_DIM)
