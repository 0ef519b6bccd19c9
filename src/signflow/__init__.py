"""Skeleton-based isolated sign recognition.

Two recognition branches over tracked-skeleton video: a gesture branch
(body-relative displacement descriptors, vector-quantized into discrete
symbols and scored by per-class left-right HMMs) and a hand-posture branch
(per-frame binary hand masks, shape-context bag-of-words, linear multiclass
scoring), combined by a late fusion stage. A skeleton sequence is one
(T, 15, 3) position array plus its (T,) timestamps.
"""

__version__ = "0.1.0"

from .skeleton import (
    ALL_JOINTS,
    UPPER_BODY,
    EmptyInputError,
    JointId,
    MissingJointError,
    SignflowError,
    SkeletonSequence,
    forward_fill,
)
from .descriptors import (
    DescriptorVariant,
    ZNormStats,
    describe_sequence,
    fit_znorm,
)
from .codebook import (
    Codebook,
    build_codebook,
    encode_sequence,
    fit_kmeans,
    quantize_batch,
)
from .hmm import (
    DiscreteHMM,
    GestureResponse,
    TrainReport,
    baum_welch,
    baum_welch_classes,
    classify_gesture,
    forward_log_likelihood,
    init_left_right,
)
from .posture import (
    HandRegion,
    HandSide,
    PostureModel,
    encode_video_bow,
    frame_shape_contexts,
    posture_response,
    sample_contour,
    shape_context_rows,
    train_posture_classifier,
)
from .fusion import (
    KdeFusionModel,
    couple,
    predict_kde,
    predict_linear,
    train_kde_fusion,
    train_linear_fusion,
)
from .metrics import (
    ConfusionMatrix,
    MetricsReport,
    confusion,
    precision_recall_fscore,
)
from .dataset import (
    CorruptFileError,
    DatasetManifest,
    MalformedRowError,
    ManifestEntry,
    load_manifest,
    load_mask_archive,
    parse_skeleton_csv,
    save_manifest,
    save_mask_archive,
    write_skeleton_csv,
)
from .synthetic import (
    ClassSpec,
    SyntheticConfig,
    SyntheticCorpus,
    generate_synthetic_corpus,
    load_synthetic_config,
    write_corpus,
)
from .bundle import (
    BundleVersionError,
    ModelBundle,
    config_hash,
    load_bundle,
    save_bundle,
)
from .pipeline import (
    CorpusItem,
    EvalResult,
    Prediction,
    evaluate_pipeline,
    items_from_corpus,
    load_items,
    make_config,
    predict_item,
    train_pipeline,
)
