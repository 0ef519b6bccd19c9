"""Training memory: what `train_pipeline` holds at its traced peak.

Shape contexts are held as bin counts, not float rows: a float64
shape-context row takes 392 bytes, its 1-byte bin counts 49. On a corpus
whose shape contexts dominate, the whole of `train_pipeline` must
allocate less, at its peak, than the split's rows would take as float64.

The gesture descriptors are held as one matrix, normalized in place: no
raw copy of it is alive while k-means runs.
"""

import tracemalloc

from signflow.descriptors import DescriptorVariant
from signflow.pipeline import items_from_corpus, train_pipeline
from signflow.posture import SC_DIM, video_shape_contexts
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
    # k-means holds the matrix and its (k, n) float32 bounds, 400 bytes a
    # row against the matrix's 528, plus chunked work: about 2.3 matrices.
    # A raw copy kept beside the normalized one would add a whole matrix.
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
    assert peak < 2.8 * matrix, (
        f"train_pipeline peaked at {peak:,} traced bytes, "
        f"{peak / matrix:.2f} times the {matrix:,}-byte descriptor matrix")
