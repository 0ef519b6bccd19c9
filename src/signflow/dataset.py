"""Dataset manifests, the skeleton CSV adapter, and PGM mask archives.

Recordings arrive as delimited text with one skeleton frame per row and
optional per-frame hand masks stored as portable graymaps, one archive
directory per video with filenames ``{frame:05}_{L|R}.pgm``. A manifest
ties sequences to labels, subjects, and splits; subject-disjointness
across splits is enforced at construction time.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .posture import PATCH, HandRegion, HandSide
from .skeleton import (
    ALL_JOINTS,
    UPPER_BODY,
    EmptyInputError,
    Joint3D,
    JointId,
    MissingJointError,
    SignflowError,
    SkeletonSequence,
    forward_fill,
)

SPLITS = ("train", "validation", "test")

_MASK_NAME = re.compile(r"^(\d{5})_([LR])\.pgm$")


class MalformedRowError(SignflowError):
    """A data row failed to parse; carries the 1-based line number."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line


class CorruptFileError(SignflowError):
    """A structured file could not be decoded; message names the spot."""


@dataclass(frozen=True)
class CsvSchema:
    """Row layout: timestamp column, then fields_per_joint columns per joint.

    With 4 fields per joint the last one is a confidence; zero or negative
    confidence marks the joint missing in that frame, to be repaired by
    forward fill. With 3 fields every joint is taken as observed.
    """

    joints: tuple = ALL_JOINTS
    fields_per_joint: int = 4

    def __post_init__(self):
        if self.fields_per_joint not in (3, 4):
            raise ValueError("fields_per_joint must be 3 (x,y,z) or 4 (+confidence)")
        if len(set(self.joints)) != len(self.joints):
            raise ValueError("duplicate joint in schema")

    @property
    def n_columns(self) -> int:
        return 1 + len(self.joints) * self.fields_per_joint


DEFAULT_SCHEMA = CsvSchema()


def _float_or_none(cell: str) -> Optional[float]:
    try:
        return float(cell)
    except ValueError:
        return None


def parse_skeleton_csv(path, schema: CsvSchema = DEFAULT_SCHEMA,
                       required: tuple = UPPER_BODY) -> SkeletonSequence:
    """Read one recording; repair missing joints by forward fill.

    Rows that fail to parse are rejected with their 1-based line number.
    Lines starting with '#' and blank lines are skipped.
    """
    for jid in required:
        if jid not in schema.joints:
            raise MissingJointError(JointId(jid))
    raw = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if row[0].lstrip().startswith("#"):
                continue
            if len(row) != schema.n_columns:
                raise MalformedRowError(
                    lineno, f"expected {schema.n_columns} columns, got {len(row)}")
            values = [_float_or_none(cell) for cell in row]
            if any(v is None for v in values):
                bad = row[values.index(None)]
                raise MalformedRowError(lineno, f"non-numeric cell {bad!r}")
            joints: dict[JointId, Optional[Joint3D]] = {}
            for i, jid in enumerate(schema.joints):
                base = 1 + i * schema.fields_per_joint
                x, y, z = values[base:base + 3]
                conf = values[base + 3] if schema.fields_per_joint == 4 else 1.0
                if conf > 0:
                    try:
                        joints[jid] = Joint3D(x, y, z, confidence=conf)
                    except ValueError as exc:
                        raise MalformedRowError(lineno, str(exc)) from None
                else:
                    joints[jid] = None
            raw.append((values[0], joints))
    if not raw:
        raise EmptyInputError(f"no data rows in {path}")
    return SkeletonSequence(frames=forward_fill(raw), source=str(path))


def write_skeleton_csv(path, seq: SkeletonSequence,
                       schema: CsvSchema = DEFAULT_SCHEMA,
                       header: Optional[str] = None) -> None:
    """Inverse of parse_skeleton_csv; floats via repr, so round-trips exact."""
    with open(path, "w", newline="") as fh:
        if header:
            fh.write(f"# {header}\n")
        writer = csv.writer(fh)
        for frame in seq.frames:
            row = [repr(float(frame.timestamp))]
            for jid in schema.joints:
                j = frame.joint(jid)
                row.extend([repr(j.x), repr(j.y), repr(j.z)])
                if schema.fields_per_joint == 4:
                    row.append(repr(j.confidence))
            writer.writerow(row)


@dataclass(frozen=True)
class ManifestEntry:
    """One recording: where it lives and how it is used."""

    sequence_path: str
    label: int
    subject: str
    split: str
    mask_dir: Optional[str] = None


@dataclass
class DatasetManifest:
    """All recordings of a corpus; validated for splits and labels."""

    entries: list

    def __post_init__(self):
        self.entries = list(self.entries)
        if not self.entries:
            raise EmptyInputError("manifest has no entries")
        subject_splits: dict[str, set] = {}
        labels = set()
        for e in self.entries:
            if e.split not in SPLITS:
                raise ValueError(f"unknown split {e.split!r}")
            if e.label < 0:
                raise ValueError("negative label")
            labels.add(e.label)
            subject_splits.setdefault(e.subject, set()).add(e.split)
        want = set(range(max(labels) + 1))
        if labels != want:
            raise ValueError(f"labels must cover 0..{max(labels)}, got {sorted(labels)}")
        for subject, splits in sorted(subject_splits.items()):
            if len(splits) > 1:
                raise ValueError(
                    f"subject {subject!r} appears in splits {sorted(splits)}; "
                    "splits must be subject-disjoint")

    @property
    def n_classes(self) -> int:
        return max(e.label for e in self.entries) + 1

    def for_split(self, split: str) -> list:
        if split not in SPLITS:
            raise ValueError(f"unknown split {split!r}")
        return [e for e in self.entries if e.split == split]


def save_manifest(manifest: DatasetManifest, path, config_hash: str = "") -> None:
    doc = {
        "format": "signflow-manifest",
        "tool_version": __version__,
        "config_hash": config_hash,
        "entries": [asdict(e) for e in manifest.entries],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_manifest(path) -> DatasetManifest:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise CorruptFileError(f"{path}: line {exc.lineno} col {exc.colno}: "
                               f"{exc.msg}") from None
    if not isinstance(doc, dict) or "entries" not in doc:
        raise CorruptFileError(f"{path}: missing 'entries'")
    entries = []
    for i, item in enumerate(doc["entries"]):
        try:
            entries.append(ManifestEntry(
                sequence_path=item["sequence_path"],
                label=int(item["label"]),
                subject=item["subject"],
                split=item["split"],
                mask_dir=item.get("mask_dir"),
            ))
        except (KeyError, TypeError) as exc:
            raise CorruptFileError(f"{path}: entry {i}: {exc}") from None
    return DatasetManifest(entries=entries)


def save_mask(path, mask: np.ndarray, comment: str = "") -> None:
    """Write a binary mask as an 8-bit P5 graymap (foreground 255)."""
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise ValueError("mask must be 2-D")
    data = np.where(mask.astype(bool), np.uint8(255), np.uint8(0))
    with open(path, "wb") as fh:
        fh.write(b"P5\n")
        if comment:
            fh.write(f"# {comment}\n".encode("ascii"))
        fh.write(f"{mask.shape[1]} {mask.shape[0]}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def load_mask(path) -> np.ndarray:
    """Read a P5 graymap back to a boolean mask (nonzero = foreground)."""
    blob = Path(path).read_bytes()
    if not blob.startswith(b"P5"):
        raise CorruptFileError(f"{path}: not a P5 graymap")
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if pos < len(blob) and blob[pos:pos + 1] == b"#":
            while pos < len(blob) and blob[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        if pos == start:
            raise CorruptFileError(f"{path}: truncated header")
        fields.append(blob[start:pos])
    try:
        width, height, maxval = (int(f) for f in fields)
    except ValueError:
        raise CorruptFileError(f"{path}: non-numeric header field") from None
    if maxval <= 0 or maxval > 255:
        raise CorruptFileError(f"{path}: unsupported maxval {maxval}")
    pos += 1  # single whitespace byte after maxval
    pixels = blob[pos:pos + width * height]
    if len(pixels) != width * height:
        raise CorruptFileError(f"{path}: expected {width * height} pixel bytes, "
                               f"got {len(pixels)}")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width) > 0


def mask_filename(frame: int, side: HandSide) -> str:
    return f"{frame:05d}_{side.value}.pgm"


def save_mask_archive(dir_path, frames: list, comment: str = "") -> None:
    """Write per-frame {HandSide: HandRegion} dicts to one directory.

    Absent regions are stored as all-background masks so the frame count
    stays recoverable.
    """
    out = Path(dir_path)
    out.mkdir(parents=True, exist_ok=True)
    for idx, sides in enumerate(frames):
        for side in HandSide:
            region = sides.get(side)
            if region is not None and region.present:
                mask = region.mask
            else:
                mask = np.zeros((PATCH, PATCH), dtype=bool)
            save_mask(out / mask_filename(idx, side), mask, comment=comment)


def load_mask_archive(dir_path) -> list:
    """Read a mask directory back to per-frame {HandSide: HandRegion} dicts.

    Each dict holds the right hand first, whatever order the directory
    lists its files in: that order would otherwise reach the posture
    codebook sample. A mask that is not a valid region (wrong size, or
    more than one 8-connected component) raises CorruptFileError naming
    its file.
    """
    root = Path(dir_path)
    if not root.is_dir():
        raise FileNotFoundError(f"no mask archive at {dir_path}")
    found: dict[int, dict[HandSide, np.ndarray]] = {}
    for p in root.iterdir():
        m = _MASK_NAME.match(p.name)
        if not m:
            continue
        idx, side = int(m.group(1)), HandSide(m.group(2))
        found.setdefault(idx, {})[side] = load_mask(p)
    if not found:
        raise EmptyInputError(f"no masks in {dir_path}")
    n = max(found) + 1
    frames = []
    for idx in range(n):
        sides = found.get(idx)
        if sides is None or set(sides) != set(HandSide):
            raise CorruptFileError(f"{dir_path}: frame {idx} is missing a side")
        out = {}
        for side in HandSide:  # fixed (right, left) order, not directory order
            mask = sides[side]
            present = bool(mask.any())
            try:
                out[side] = HandRegion(mask=mask if present else
                                       np.zeros((PATCH, PATCH), dtype=bool),
                                       side=side, present=present)
            except ValueError as exc:
                raise CorruptFileError(f"{root / mask_filename(idx, side)}: "
                                       f"frame {idx}: {exc}") from None
        frames.append(out)
    return frames
