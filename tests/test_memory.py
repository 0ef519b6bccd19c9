"""Training memory: shape contexts are held as bin counts, not float rows.

A float64 shape-context row takes 392 bytes, its 1-byte bin counts 49.
On a corpus whose shape contexts dominate, the whole of `train_pipeline`
must allocate less, at its peak, than the split's rows would take as
float64.
"""

import tracemalloc

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
