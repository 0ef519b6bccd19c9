"""Memory: what training, k-means, a loaded mask archive and the exact
distance kernels hold, traced by tracemalloc.

Shape contexts are held as bin counts, not float rows: a float64
shape-context row takes 392 bytes, its 1-byte bin counts 49. On a corpus
whose shape contexts dominate, the whole of `train_pipeline` must
allocate less, at its peak, than the split's rows would take as float64.

Gesture training peaks at one normalized descriptor matrix plus O(n +
chunk) work: each sequence's descriptors are written into one
preallocated matrix, normalized in place, and `fit_kmeans` keeps one
float32 bound per row and group of centers, not per row and center.

A loaded hand mask is held as its rows packed 8 pixels to a byte, 585
bytes against a bool mask's 4,225, in one array per archive.
`_sq_dists` holds its output and one chunk's work, not every chunk's;
`_paired_sq_dists` holds a chunk or two of difference, not an (n, D) one.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from signflow.codebook import _CHUNK_ELEMENTS, _paired_sq_dists, _sq_dists, fit_kmeans
from signflow.dataset import load_mask_archive, save_mask_archive
from signflow.descriptors import DescriptorVariant
from signflow.pipeline import items_from_corpus, train_pipeline
from signflow.posture import PATCH, SC_DIM, HandRegion, HandSide, video_shape_contexts
from signflow.skeleton import JointId
from signflow.synthetic import ClassSpec, SyntheticConfig, generate_synthetic_corpus

# 20 short train videos with both hands, and a training run small in
# everything but the shape contexts: 10,800 rows, 4.2 MB as float64
CORPUS = SyntheticConfig(
    classes=[ClassSpec(template=0, anchor=JointId.Head, mask=0),
             ClassSpec(template=1, anchor=JointId.Neck, mask=1)],
    counts=(10, 0, 0), frame_count_range=(12, 16), seed=5)
SMALL_RUN = {"fusion": "gesture-only", "gesture_k": 4, "posture_k": 4,
             "hmm_states": 2, "hmm_iters": 1, "epochs": 1, "sc_sample_cap": 200}


def test_training_peak_stays_below_float_rows_of_the_split():
    items = items_from_corpus(generate_synthetic_corpus(CORPUS))
    n_rows = sum(video_shape_contexts(i.masks)[0].shape[0] for i in items)
    float_rows = n_rows * SC_DIM * 8
    tracemalloc.start()
    try:
        bundle = train_pipeline(items, SMALL_RUN)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bundle.posture_model is not None
    assert n_rows > 10_000
    assert peak < float_rows, (
        f"train_pipeline peaked at {peak:,} traced bytes; the split's "
        f"{n_rows:,} shape-context rows take {float_rows:,} as float64")


# 20 gesture-only train sequences of about 1,000 frames: about 19,500
# rbpd-t descriptor rows, 9.8 MiB as one float64 matrix
LONG_CORPUS = SyntheticConfig(
    classes=[ClassSpec(template=0, anchor=JointId.Head, mask=0),
             ClassSpec(template=1, anchor=JointId.Neck, mask=1)],
    counts=(10, 0, 0), frame_count_range=(900, 1100), seed=5)
GESTURE_RUN = {"fusion": "gesture-only", "descriptor": "rbpd-t", "gesture_k": 100,
               "hmm_states": 2, "hmm_iters": 1}


def test_gesture_training_holds_one_descriptor_matrix():
    # training holds the normalized matrix, and k-means adds its (t, n)
    # float32 group bounds, 80 bytes a row at t = 20 against the matrix's
    # 528, a few (n,) arrays and chunked work: about 1.4 matrices. A raw
    # copy, an (n, D) temporary or per-center bounds would each add 0.75
    # to a whole matrix.
    items = items_from_corpus(generate_synthetic_corpus(LONG_CORPUS, with_masks=False))
    dim = DescriptorVariant.RBPD_T.dimension
    matrix = sum(len(i.sequence) - 1 for i in items) * dim * 8
    tracemalloc.start()
    try:
        bundle = train_pipeline(items, GESTURE_RUN)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bundle.gesture_codebook.k == 100
    assert peak < 1.8 * matrix, (
        f"train_pipeline peaked at {peak:,} traced bytes, "
        f"{peak / matrix:.2f} times the {matrix:,}-byte descriptor matrix")


def test_kmeans_work_is_a_fraction_of_its_data():
    # gesture-long's shape: 48,000 rows of 66 components and k = 100.
    # Bounds per row and center (400 bytes a row) or an (n, D) temporary
    # (528) would each exceed the bound alone.
    rng = np.random.default_rng(8)
    means = rng.normal(size=(40, 66)) * 2.0
    data = means[rng.integers(40, size=48_000)] + rng.normal(size=(48_000, 66))
    tracemalloc.start()
    try:
        cb = fit_kmeans(data, 100, seed=8, max_iter=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cb.wcss_history) == 10
    assert peak < 0.4 * data.nbytes, (
        f"fit_kmeans peaked at {peak:,} traced bytes, "
        f"{peak / data.nbytes:.2f} times its {data.nbytes:,}-byte data")


@pytest.mark.parametrize("per_row", [False, True], ids=["one-center", "per-row-centers"])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_paired_sq_dists_works_in_row_chunks(per_row, offset):
    # n rows at a chunk boundary give cdist's bytes, alone and as the first
    # rows of a larger call, which holds a chunk or two of difference at a
    # time, not an (n, D) one
    dim = 66
    chunk = _CHUNK_ELEMENTS // dim
    n = chunk + offset
    rng = np.random.default_rng(chunk + offset)
    points = rng.normal(size=(8 * n, dim)) * 1e3
    centers = rng.normal(size=(5, dim)) * 1e3
    labels = rng.integers(5, size=8 * n) if per_row else np.zeros(8 * n, dtype=int)
    targets = centers[labels] if per_row else centers[:1]
    want = cdist(points, centers, "sqeuclidean")[np.arange(8 * n), labels]
    first = _paired_sq_dists(points[:n], targets[:n] if per_row else targets)
    assert first.tobytes() == want[:n].tobytes()
    tracemalloc.start()
    try:
        got = _paired_sq_dists(points, targets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    assert peak < got.nbytes + 3 * chunk * dim * 8, (
        f"_paired_sq_dists peaked at {peak:,} traced bytes for {8 * n:,} rows")


def disk(radius):
    yy, xx = np.mgrid[:PATCH, :PATCH]
    return (yy - 32) ** 2 + (xx - 32) ** 2 <= radius ** 2


def test_loaded_archive_keeps_packed_rows(tmp_path):
    # 120 frames: the right hand a disk of radius 3 to 22, the left absent
    # every third frame
    frames = [{HandSide.RIGHT: HandRegion(disk(3 + t % 20)),
               HandSide.LEFT: HandRegion(disk(8) & (t % 3 > 0))}
              for t in range(120)]
    save_mask_archive(tmp_path, frames)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        back = load_mask_archive(tmp_path)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    regions = [region for frame in back for region in frame.values()]
    assert len(regions) == 240
    assert kept < 1024 * len(regions), (
        f"a loaded archive keeps {kept / len(regions):,.0f} traced bytes a mask")
    bases = {id(region.bits.base) for region in regions}
    assert len(bases) == 1 and regions[0].bits.base is not None
    for got, want in zip(back, frames):
        for side in HandSide:
            assert got[side].mask.tobytes() == want[side].mask.tobytes()
    with pytest.raises(ValueError):
        regions[0].mask[32, 32] = False


def test_sq_dists_holds_its_output_and_one_chunk():
    rng = np.random.default_rng(11)
    points, centers = rng.normal(size=(2000, 49)), rng.normal(size=(100, 49))
    tracemalloc.start()
    try:
        got = _sq_dists(points, centers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.nbytes == 1_600_000
    assert peak < 3 * got.nbytes, (
        f"_sq_dists peaked at {peak:,} traced bytes for a {got.nbytes:,}-byte output")
    assert got.tobytes() == cdist(points, centers, "sqeuclidean").tobytes()
