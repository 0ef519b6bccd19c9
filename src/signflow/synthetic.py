"""Synthetic sign corpus generator.

A fixed upper-body puppet performs each class's trajectory template with
its active right hand. The template is expressed relative to the class's
anchor joint: the puppet is posed so that the anchor joint sits exactly at
the template's canonical anchor point, and the hand path is the template
drawn around that point. Classes that share a template id therefore share
the identical world-space hand trajectory; they differ only in which body
joint is posed onto the anchor point (visible to body-relative
descriptors, invisible to hand-minus-torso ones) or only in the procedural
hand mask (visible to the posture branch alone).

Per-subject anatomy jitter scales with the noise level, so a zero-noise
corpus is bitwise reproducible frame for frame.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .dataset import (
    CorruptFileError,
    DatasetManifest,
    ManifestEntry,
    read_json,
    save_manifest,
    save_mask_archive,
    write_skeleton_csv,
)
from .posture import PATCH, _frame_regions, _largest_component
from .skeleton import UPPER_BODY, JointId, SkeletonSequence, _is_integral, _is_real

FRAME_DT = 1.0 / 30.0
SEQUENCE_TIME_GAP = 100.0
REST_MASK_ID = 5

# canonical standing puppet, meters: x right, y up, z toward the camera
BASE_PUPPET: dict[JointId, tuple[float, float, float]] = {
    JointId.Head: (0.00, 1.65, 0.00),
    JointId.Neck: (0.00, 1.45, 0.00),
    JointId.Torso: (0.00, 1.15, 0.00),
    JointId.LShoulder: (-0.20, 1.42, 0.00),
    JointId.RShoulder: (0.20, 1.42, 0.00),
    JointId.LElbow: (-0.28, 1.18, 0.02),
    JointId.RElbow: (0.28, 1.18, 0.02),
    JointId.LHand: (-0.30, 0.95, 0.05),
    JointId.RHand: (0.30, 0.95, 0.05),
    JointId.LHip: (-0.12, 0.85, 0.00),
    JointId.RHip: (0.12, 0.85, 0.00),
    JointId.LKnee: (-0.13, 0.48, 0.00),
    JointId.RKnee: (0.13, 0.48, 0.00),
    JointId.LFoot: (-0.14, 0.08, 0.00),
    JointId.RFoot: (0.14, 0.08, 0.00),
}

# where each template's anchor anatomy sits during the sign (face/chest area)
ANCHOR_POINTS: dict[int, tuple[float, float, float]] = {
    0: (0.06, 1.50, 0.10),
    1: (-0.04, 1.55, 0.12),
    2: (0.10, 1.40, 0.15),
    3: (0.00, 1.35, 0.18),
    4: (0.05, 1.58, 0.08),
    5: (-0.08, 1.45, 0.14),
}


def _traj_arc(u):
    return (0.20 * math.sin(math.pi * u), -0.05 + 0.10 * u,
            0.05 * math.sin(2 * math.pi * u))


def _traj_circle(u):
    return (0.12 * math.cos(2 * math.pi * u) - 0.12,
            0.12 * math.sin(2 * math.pi * u), 0.0)


def _traj_updown(u):
    return (0.02 * math.sin(2 * math.pi * u), 0.18 * math.sin(math.pi * u),
            0.04 * u)


def _traj_zigzag(u):
    return (0.15 * math.sin(3 * math.pi * u), 0.12 * u - 0.06, 0.0)


def _traj_push(u):
    return (0.03 * math.sin(math.pi * u),
            0.02 * math.cos(2 * math.pi * u) - 0.02,
            0.18 * math.sin(math.pi * u))


def _traj_wave(u):
    return (0.10 * math.sin(4 * math.pi * u),
            0.05 + 0.10 * math.sin(math.pi * u),
            0.02 * math.cos(2 * math.pi * u))


TRAJECTORY_TEMPLATES = {
    0: _traj_arc,
    1: _traj_circle,
    2: _traj_updown,
    3: _traj_zigzag,
    4: _traj_push,
    5: _traj_wave,
}

_GRID_Y, _GRID_X = np.mgrid[:PATCH, :PATCH].astype(np.float64)


def _shape_mask(shape_id: int, cx: float, cy: float, scale: float,
                phase: float) -> np.ndarray:
    """One procedural hand silhouette on the 65x65 grid, before
    `_largest_component` keeps its largest component."""
    dx = _GRID_X - cx
    dy = _GRID_Y - cy
    r = np.hypot(dx, dy)
    th = np.arctan2(dy, dx)
    if shape_id == 0:  # fist: plain disk
        mask = r <= 10.0 * scale
    elif shape_id == 1:  # open hand: core disk plus five petals
        petals = (r <= 16.0 * scale) & (np.cos(5.0 * (th - phase)) > 0.55)
        mask = (r <= 7.0 * scale) | petals
    elif shape_id == 2:  # flat hand: rotated ellipse
        a = dx * math.cos(phase) + dy * math.sin(phase)
        b = -dx * math.sin(phase) + dy * math.cos(phase)
        mask = (a / (14.0 * scale)) ** 2 + (b / (6.0 * scale)) ** 2 <= 1.0
    elif shape_id == 3:  # pointing: rotated bar
        a = dx * math.cos(phase) + dy * math.sin(phase)
        b = -dx * math.sin(phase) + dy * math.cos(phase)
        mask = (np.abs(a) <= 3.5 * scale) & (np.abs(b) <= 12.0 * scale)
    elif shape_id == 4:  # pinch: disk with a wedge bite
        ang = np.angle(np.exp(1j * (th - phase)))
        mask = (r <= 9.5 * scale) & ~(np.abs(ang) < 0.5)
    elif shape_id == REST_MASK_ID:  # resting hand: small disk
        mask = r <= 6.5 * scale
    else:
        raise ValueError(f"unknown mask shape id {shape_id}")
    return mask


MASK_SHAPE_IDS = (0, 1, 2, 3, 4, REST_MASK_ID)


@dataclass(frozen=True)
class ClassSpec:
    """One sign class: trajectory template, anchor joint, hand mask shape."""

    template: int
    anchor: JointId
    mask: int

    def __post_init__(self):
        if not (_is_integral(self.template) and self.template in TRAJECTORY_TEMPLATES):
            raise ValueError(f"unknown trajectory template {self.template!r}")
        if not (_is_integral(self.mask) and self.mask in MASK_SHAPE_IDS):
            raise ValueError(f"unknown mask shape id {self.mask!r}")
        object.__setattr__(self, "template", int(self.template))
        object.__setattr__(self, "mask", int(self.mask))
        anchor = JointId(self.anchor)
        object.__setattr__(self, "anchor", anchor)
        if anchor not in UPPER_BODY or anchor == JointId.RHand:
            raise ValueError(f"anchor must be a non-active upper-body joint, "
                             f"got {anchor.name}")


@dataclass
class SyntheticConfig:
    """Corpus recipe; everything downstream is a pure function of it."""

    classes: list
    counts: tuple = (8, 2, 4)
    noise: float = 0.01
    frame_count_range: tuple = (24, 32)
    seed: int = 0
    subjects: tuple = (4, 2, 2)
    subject_scale: float = 2.0

    def __post_init__(self):
        self.classes = [c if isinstance(c, ClassSpec) else ClassSpec(**c)
                        for c in self.classes]
        if len(self.classes) < 2:
            raise ValueError("fewer than 2 classes")
        self.counts = _integers(self.counts, "counts")
        if len(self.counts) != 3 or any(v < 0 for v in self.counts):
            raise ValueError("counts must be three non-negative ints")
        if self.counts[0] < 1:
            raise ValueError("need at least one training sequence per class")
        for name in ("noise", "subject_scale"):
            value = getattr(self, name)
            if not (_is_real(value) and value >= 0):
                raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
        self.frame_count_range = _integers(self.frame_count_range, "frame_count_range")
        lo, hi = self.frame_count_range
        if lo < 2 or hi < lo:
            raise ValueError("frame_count_range must satisfy 2 <= lo <= hi")
        self.subjects = _integers(self.subjects, "subjects")
        if len(self.subjects) != 3:
            raise ValueError("subjects must be three pool sizes")
        for n_seq, n_subj, split in zip(self.counts, self.subjects,
                                        ("train", "validation", "test")):
            if n_seq > 0 and n_subj < 1:
                raise ValueError(f"split {split} has sequences but no subjects")
        if not (_is_integral(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        self.seed = int(self.seed)


def _integers(values, name: str) -> tuple:
    """values as a tuple of ints; ValueError unless each is integral."""
    values = tuple(values)
    if not all(_is_integral(v) for v in values):
        raise ValueError(f"{name} must be integers, got {values!r}")
    return tuple(int(v) for v in values)


@dataclass
class SyntheticCorpus:
    """In-memory corpus: sequences, aligned mask videos, manifest."""

    sequences: list
    masks: Optional[list]
    manifest: DatasetManifest
    config: SyntheticConfig = field(repr=False, default=None)


def _subject_pools(cfg: SyntheticConfig):
    pools = []
    nxt = 0
    for size in cfg.subjects:
        pools.append([f"s{nxt + i:02d}" for i in range(size)])
        nxt += size
    return pools


def _subject_puppet(cfg: SyntheticConfig, subject_index: int) -> dict:
    rng = np.random.default_rng([cfg.seed, 101, subject_index])
    jitter_scale = cfg.subject_scale * cfg.noise
    puppet = {}
    for jid, pos in BASE_PUPPET.items():
        offset = rng.normal(0.0, jitter_scale, size=3) if jitter_scale > 0 \
            else np.zeros(3)
        puppet[jid] = np.asarray(pos, dtype=np.float64) + offset
    return puppet


def _render_sequence(cfg: SyntheticConfig, spec: ClassSpec, puppet: dict,
                     seq_index: int) -> SkeletonSequence:
    rng = np.random.default_rng([cfg.seed, 202, seq_index])
    lo, hi = cfg.frame_count_range
    n = int(rng.integers(lo, hi + 1))
    template = TRAJECTORY_TEMPLATES[spec.template]
    p_anchor = np.asarray(ANCHOR_POINTS[spec.template], dtype=np.float64)
    posed = dict(puppet)
    posed[spec.anchor] = p_anchor
    base = np.stack([posed[jid] for jid in JointId])
    noise = rng.normal(0.0, cfg.noise, size=(n, len(JointId), 3)) \
        if cfg.noise > 0 else np.zeros((n, len(JointId), 3))
    positions = base + noise
    path = np.array([template(t / (n - 1)) for t in range(n)])
    positions[:, JointId.RHand] = p_anchor + path + noise[:, JointId.RHand]
    timestamps = SEQUENCE_TIME_GAP * seq_index + np.arange(n) * FRAME_DT
    return SkeletonSequence(timestamps=timestamps, positions=positions,
                            source=f"synthetic:{seq_index:05d}")


def _render_masks(cfg: SyntheticConfig, spec: ClassSpec, seq_index: int,
                  n_frames: int) -> list:
    """A video's per-frame {HandSide: HandRegion} dicts: its masks are
    rendered into one (T, 2, 65, 65) stack, right then left, cut to their
    largest components in one call and packed by `_frame_regions`."""
    rng = np.random.default_rng([cfg.seed, 303, seq_index])
    masks = np.empty((n_frames, 2, PATCH, PATCH), dtype=bool)
    jitter = cfg.noise > 0
    for t in range(n_frames):
        for slot, shape_id in enumerate((spec.mask, REST_MASK_ID)):
            if jitter:
                cx = 32.0 + rng.uniform(-2.0, 2.0)
                cy = 32.0 + rng.uniform(-2.0, 2.0)
                scale = rng.uniform(0.92, 1.08)
                phase = rng.uniform(0.0, 2.0 * math.pi)
            else:
                cx, cy, scale, phase = 32.0, 32.0, 1.0, 0.0
            masks[t, slot] = _shape_mask(shape_id, cx, cy, scale, phase)
    masks = _largest_component(masks.reshape(-1, PATCH, PATCH))
    return _frame_regions(masks.reshape(n_frames, 2, PATCH, PATCH))


def generate_synthetic_corpus(cfg: SyntheticConfig,
                              with_masks: bool = True) -> SyntheticCorpus:
    """Render every sequence (and optionally its mask video) plus a manifest."""
    pools = _subject_pools(cfg)
    all_subjects = [s for pool in pools for s in pool]
    puppets = {name: _subject_puppet(cfg, i)
               for i, name in enumerate(all_subjects)}
    sequences = []
    masks = [] if with_masks else None
    entries = []
    seq_index = 0
    for label, spec in enumerate(cfg.classes):
        for split_idx, split in enumerate(("train", "validation", "test")):
            pool = pools[split_idx]
            for k in range(cfg.counts[split_idx]):
                subject = pool[k % len(pool)]
                seq = _render_sequence(cfg, spec, puppets[subject], seq_index)
                sequences.append(seq)
                if with_masks:
                    masks.append(_render_masks(cfg, spec, seq_index, len(seq)))
                entries.append(ManifestEntry(
                    sequence_path=f"seq_{seq_index:05d}.csv",
                    label=label,
                    subject=subject,
                    split=split,
                    mask_dir=f"masks_{seq_index:05d}" if with_masks else None,
                ))
                seq_index += 1
    manifest = DatasetManifest(entries=entries)
    return SyntheticCorpus(sequences=sequences, masks=masks, manifest=manifest,
                           config=cfg)


def write_corpus(corpus: SyntheticCorpus, out_dir, config_hash: str = "") -> Path:
    """Materialize a corpus: CSVs, mask archives, manifest.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stamp = f"signflow {__version__} config={config_hash}"
    for i, (seq, entry) in enumerate(zip(corpus.sequences,
                                         corpus.manifest.entries)):
        write_skeleton_csv(out / entry.sequence_path, seq,
                           header=f"{stamp} sequence {i:05d}")
        if entry.mask_dir is not None:
            save_mask_archive(out / entry.mask_dir, corpus.masks[i],
                              comment=f"{stamp} masks {i:05d}")
    manifest_path = out / "manifest.json"
    save_manifest(corpus.manifest, manifest_path, config_hash=config_hash)
    return manifest_path


def config_doc(cfg: SyntheticConfig) -> dict:
    """JSON-ready dict form of a config (anchors by joint name)."""
    doc = asdict(cfg)
    doc["classes"] = [{"template": c.template, "anchor": c.anchor.name,
                       "mask": c.mask} for c in cfg.classes]
    return doc


def load_synthetic_config(path) -> SyntheticConfig:
    """Read a config file, config_doc's dict as JSON; a file that is not a
    JSON object, or a missing or bad field, raises CorruptFileError naming
    the file."""
    doc = read_json(path)
    try:
        classes = []
        for c in doc.get("classes", []):
            # a joint by name, or by number; ClassSpec rejects any other
            anchor = JointId.__members__.get(c["anchor"], c["anchor"])
            classes.append(ClassSpec(template=c["template"], anchor=anchor,
                                     mask=c["mask"]))
        kwargs = {k: doc[k] for k in ("counts", "noise", "frame_count_range",
                                      "seed", "subjects", "subject_scale")
                  if k in doc}
        return SyntheticConfig(classes=classes, **kwargs)
    except KeyError as exc:
        raise CorruptFileError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise CorruptFileError(f"{path}: {exc}") from None
