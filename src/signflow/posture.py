"""Hand-posture branch: shape context, bag-of-words, classifier.

A hand arrives as a binary mask on a common 65x65 grid, one per hand and
frame (a PGM mask archive on disk, or the synthetic generator's masks); a
present hand is a single 8-connected region.

Each mask's outer contour is sampled at 20 equal arc-length points; every
point yields a 49-bin log-polar shape context (12 angle bins x 4 outer
rings + 1 merged inner disk, radii 6..32 px). frame_shape_contexts bins
all point pairs of a contour in one vectorized pass and returns its
(m, 49) rows; video_shape_contexts stacks them for a whole video, so
training computes each contour's rows once and uses them for both the
codebook sample and the bag-of-words. A video's rows are quantized
against a K-means codebook in one call and accumulated into one
[right | left] histogram, scored by a linear multiclass model:
R_posture = W p.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import ndimage

from .codebook import Codebook, quantize_batch
from .linear_model import MulticlassLinearModel, fit_multiclass_linear, response
from .skeleton import EmptyInputError, SignflowError

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

_EIGHT = np.ones((3, 3), dtype=int)


class DegenerateContour(SignflowError):
    """The mask's boundary is too small to sample a contour from."""


class HandSide(str, Enum):
    RIGHT = "R"
    LEFT = "L"


@dataclass
class HandRegion:
    """Segmented hand on the common 65x65 grid."""

    mask: np.ndarray
    side: HandSide
    present: bool

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.shape != (PATCH, PATCH):
            raise ValueError(f"mask must be {PATCH}x{PATCH}")
        n_fg = int(self.mask.sum())
        if self.present:
            if n_fg == 0:
                raise ValueError("present region with empty mask")
            _, n_comp = ndimage.label(self.mask, structure=_EIGHT)
            if n_comp != 1:
                raise ValueError("present region must be a single 8-connected component")
        elif n_fg:
            raise ValueError("absent region must have an empty mask")


@dataclass
class PostureBoW:
    """Per-video [right | left] histogram over posture codebook words."""

    histogram: np.ndarray
    video_id: str = ""

    def __post_init__(self):
        self.histogram = np.asarray(self.histogram, dtype=np.float64)
        if self.histogram.ndim != 1 or self.histogram.shape[0] % 2 != 0:
            raise ValueError("histogram must be 1-D with even length")
        half = self.histogram.shape[0] // 2
        for lo, hi in ((0, half), (half, 2 * half)):
            s = self.histogram[lo:hi].sum()
            if s != 0.0 and abs(s - 1.0) > 1e-9:
                raise ValueError("each half must sum to 1 or be all-zero")


@dataclass
class PostureModel:
    """Linear posture classifier over BoW space plus its codebook."""

    model: MulticlassLinearModel
    codebook: Codebook


def _largest_component(mask: np.ndarray) -> np.ndarray:
    """Largest 8-connected foreground component; size ties keep the
    component labeled first in raster order."""
    labels, n = ndimage.label(mask, structure=_EIGHT)
    if n == 0:
        return np.zeros_like(mask, dtype=bool)
    sizes = np.bincount(labels.ravel())
    sizes[0] = 0
    return labels == int(sizes.argmax())


# clockwise king moves, image coords (row grows downward)
_DIRS = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))
_DIR_INDEX = {d: i for i, d in enumerate(_DIRS)}


def trace_boundary(mask: np.ndarray) -> np.ndarray:
    """Outer boundary by Moore neighbor tracing, clockwise from the
    topmost-then-leftmost foreground pixel.

    Returns an (n, 2) array of (row, col) pixel positions; single-pixel
    spurs appear once per side, so the path is the closed outer polygon.
    """
    mask = np.asarray(mask, dtype=bool)
    fg = np.argwhere(mask)
    if fg.size == 0:
        raise EmptyInputError("empty mask")
    h, w = mask.shape
    start = (int(fg[0, 0]), int(fg[0, 1]))  # argwhere is raster-ordered

    def is_fg(r, c):
        return 0 <= r < h and 0 <= c < w and mask[r, c]

    path = [start]
    cur = start
    back = 6  # the west neighbor of the start pixel is always background
    first_move = None
    for _ in range(4 * fg.shape[0] + 8):
        for step in range(1, 9):
            d = (back + step) % 8
            nr, nc = cur[0] + _DIRS[d][0], cur[1] + _DIRS[d][1]
            if is_fg(nr, nc):
                break
        else:
            break  # isolated pixel, no neighbors at all
        if (cur, d) == first_move:
            break  # boundary closed: same pixel left in the same direction
        if first_move is None:
            first_move = (cur, d)
        # the neighbor scanned just before the hit is background; the new
        # scan must resume from it
        lr = cur[0] + _DIRS[(d - 1) % 8][0]
        lc = cur[1] + _DIRS[(d - 1) % 8][1]
        cur = (nr, nc)
        back = _DIR_INDEX[(lr - nr, lc - nc)]
        path.append(cur)
    if len(path) > 1 and path[-1] == path[0]:
        path.pop()
    return np.array(path, dtype=np.int64)


def sample_contour(region: HandRegion, m: int = CONTOUR_POINTS) -> np.ndarray:
    """m points at equal arc-length spacing along the traced boundary.

    Returned as (m, 2) float (x, y) image coordinates, starting at the
    trace start pixel. Raises DegenerateContour when the boundary has
    fewer than 3 pixels.
    """
    if not region.present:
        raise ValueError("cannot sample the contour of an absent region")
    if m < 3:
        raise ValueError("need at least 3 sample points")
    path = trace_boundary(region.mask)
    if path.shape[0] < 3:
        raise DegenerateContour(f"boundary has only {path.shape[0]} pixels")
    pts = path[:, ::-1].astype(np.float64)  # (x, y)
    nxt = np.roll(pts, -1, axis=0)
    seg = np.hypot(*(nxt - pts).T)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    perimeter = cum[-1]
    targets = np.arange(m) * (perimeter / m)
    idx = np.minimum(np.searchsorted(cum, targets, side="right") - 1, len(seg) - 1)
    t = (targets - cum[idx]) / np.where(seg[idx] > 0, seg[idx], 1.0)
    return pts[idx] + t[:, None] * (nxt[idx] - pts[idx])


def frame_shape_contexts(points) -> np.ndarray:
    """All m shape contexts of a sampled contour, one row per reference.

    Row i is the log-polar histogram of the other points around
    points[i]: bin 0 collects everything closer than 6 px; bins 1..48 are
    laid out ring-major (4 geometric rings out to 32 px, 12 angle bins
    each, angles from the +x axis); points at or beyond 32 px are dropped.
    Each row is divided by its own integer count of binned points, so it
    sums to 1, or stays all-zero when nothing was binned. All m x (m - 1)
    point pairs are binned in one pass.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be (m, 2)")
    m = pts.shape[0]
    x, y = pts[:, 0], pts[:, 1]
    dx = x[None, :] - x[:, None]  # dx[i, j]: point j relative to reference i
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
    counts = np.bincount(ref * SC_DIM + bins, minlength=m * SC_DIM).reshape(m, SC_DIM)
    return counts / np.maximum(np.bincount(ref, minlength=m), 1)[:, None]


def video_shape_contexts(frames,
                         m: int = CONTOUR_POINTS) -> tuple[np.ndarray, np.ndarray]:
    """Shape-context rows of a whole video, in frame order.

    frames: iterable of per-frame HandRegion collections (typically a
    (right, left) pair). Absent hands contribute nothing; a frame whose
    mask is too small for a contour is skipped the same way. Returns the
    (n, 49) rows and, per row, the histogram half it counts in: 0 for the
    right hand, 1 for the left.
    """
    frames = list(frames)
    if not frames:
        raise EmptyInputError("no frames")
    rows, halves = [], []
    for regions in frames:
        for region in regions:
            if not region.present:
                continue
            try:
                contour = sample_contour(region, m)
            except DegenerateContour:
                continue
            rows.append(frame_shape_contexts(contour))
            halves.append(0 if region.side is HandSide.RIGHT else 1)
    if not rows:
        return np.empty((0, SC_DIM)), np.empty(0, dtype=np.int64)
    return np.concatenate(rows), np.repeat(halves, m)


def bow_from_shape_contexts(rows: np.ndarray, halves: np.ndarray,
                            posture_cb: Codebook, video_id: str = "") -> PostureBoW:
    """[right | left] bag-of-words from video_shape_contexts output.

    The whole video is quantized at once; each half is L1-normalized
    independently by its integer word count.
    """
    if posture_cb.dimension != SC_DIM:
        raise ValueError(f"posture codebook must be {SC_DIM}-D, "
                         f"got {posture_cb.dimension}")
    k = posture_cb.k
    words = quantize_batch(posture_cb, rows)
    counts = np.bincount(halves * k + words, minlength=2 * k).reshape(2, k)
    hist = counts / np.maximum(counts.sum(axis=1, keepdims=True), 1)
    return PostureBoW(histogram=hist.ravel(), video_id=video_id)


def encode_video_bow(frames, posture_cb: Codebook, video_id: str = "",
                     m: int = CONTOUR_POINTS) -> PostureBoW:
    """Bag-of-words over a whole video's hand regions; see
    video_shape_contexts and bow_from_shape_contexts."""
    rows, halves = video_shape_contexts(frames, m)
    return bow_from_shape_contexts(rows, halves, posture_cb, video_id)


def train_posture_classifier(pairs, codebook: Codebook,
                             cost: float = DEFAULT_POSTURE_COST,
                             seed: int = 0, epochs: int = 60) -> PostureModel:
    """Fit the linear multiclass posture model on (PostureBoW, class) pairs."""
    pairs = list(pairs)
    if not pairs:
        raise EmptyInputError("no training pairs")
    X = np.stack([p.histogram for p, _ in pairs])
    y = np.array([c for _, c in pairs], dtype=np.int64)
    n_classes = int(y.max()) + 1
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    present = np.bincount(y, minlength=n_classes)
    if np.any(present == 0):
        raise ValueError(f"class {int(present.argmin())} has no examples")
    if X.shape[1] != 2 * codebook.k:
        raise ValueError("BoW dimension does not match 2 x codebook size")
    model = fit_multiclass_linear(X, y, n_classes, cost, epochs=epochs, seed=seed)
    return PostureModel(model=model, codebook=codebook)


def posture_response(model: PostureModel, p: PostureBoW) -> np.ndarray:
    """R_posture = W p, no normalization."""
    return response(model.model, p.histogram)
