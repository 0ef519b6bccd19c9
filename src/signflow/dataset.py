"""Dataset manifests, the skeleton CSV adapter, and PGM mask archives.

Recordings arrive as UTF-8 comma-separated text with one skeleton frame
per line (see parse_skeleton_csv for the grammar) and optional per-frame
hand masks stored as portable graymaps, one archive directory per video
with filenames exactly ``{frame:05}_{L|R}.pgm``. A manifest ties
sequences to labels, subjects, and splits; subject-disjointness across
splits is enforced at construction time.

Both loaders work once per file or archive, not once per cell or mask: a
CSV's data lines go through one np.loadtxt call, looked at one by one
only to name the first bad line, and an archive's masks are read into
one stack and validated with one count of 8-connected components per
mask, over the whole stack at once. The loaded masks are kept as rows
packed 8 pixels to a byte, one array per archive.
"""

from __future__ import annotations

import csv
import json
import os
import re
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .posture import PATCH, HandSide, _component_counts, _frame_regions
from .skeleton import (
    EmptyInputError,
    JointId,
    SignflowError,
    SkeletonSequence,
    _is_integral,
    forward_fill,
)

SPLITS = ("train", "validation", "test")

_MASK_NAME = re.compile(r"([0-9]{5})_([LR])\.pgm")

# a P5 header: "P5", then three tokens, each after a run of whitespace
# bytes and '#' comments to the end of the line, then one whitespace byte
# (at the end of the file, none: the pixel count then fails). A token is a
# whole run of non-whitespace, so it may hold a '#' but not start with one.
_PGM_TOKEN = rb"(?:\s|#[^\n]*(?=\n|\Z))*([^\s#]\S*)(?!\S)"
_PGM_HEADER = re.compile(rb"P5" + _PGM_TOKEN * 3 + rb"(?:\s|\Z)")

# the sides of a frame in the order of its two masks in an archive's stack
_SIDES = (HandSide.RIGHT, HandSide.LEFT)


class MalformedRowError(SignflowError):
    """A data row failed to parse; carries the file and 1-based line number."""

    def __init__(self, path, line: int, reason: str):
        super().__init__(f"{path}: line {line}: {reason}")
        self.path = str(path)
        self.line = line


class CorruptFileError(SignflowError):
    """A structured file could not be decoded; message names the spot."""


# one row per frame: the timestamp, then x, y, z, confidence per JointId
_N_COLUMNS = 1 + 4 * len(JointId)


def _bad_value(rows: np.ndarray, fields: np.ndarray, observed: np.ndarray):
    """(row index, reason) of the first value a row may not hold, or None.

    Values are checked in column order: the timestamp must be finite and
    not below the previous row's, an observed joint's coordinates finite
    and its confidence at most 1.
    """
    bad = ~np.isfinite(fields) & observed[:, :, None]
    bad[:, :, 3] = observed & (fields[:, :, 3] > 1)
    ts = rows[:, 0]
    back = np.concatenate([[False], ts[1:] < ts[:-1]])
    bad = np.concatenate([(~np.isfinite(ts) | back)[:, None],
                          bad.reshape(len(rows), _N_COLUMNS - 1)], axis=1)
    if not bad.any():
        return None
    row, col = divmod(int(bad.argmax()), _N_COLUMNS)
    value = float(rows[row, col])
    if col == 0 and not np.isfinite(value):
        return row, f"non-finite timestamp: {value!r}"
    if col == 0:
        return row, f"timestamp {value!r} goes back from {float(ts[row - 1])!r}"
    if (col - 1) % 4 == 3:
        return row, f"confidence outside [0, 1]: {value!r}"
    return row, f"non-finite joint coordinate: {value!r}"


def read_utf8(path) -> str:
    """A file's text decoded as UTF-8, each line end (LF, CRLF or a lone
    CR) read as LF. A byte that does not decode raises CorruptFileError
    naming the file and its line."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:  # whose offsets count from a chunk of the file
        with open(path, "rb") as fh:
            blob = fh.read()
    try:
        return blob.decode("utf-8")  # fails again, with the file's offsets
    except UnicodeDecodeError as exc:
        head = blob[:exc.start]
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise CorruptFileError(f"{path}: line {line}: invalid UTF-8 byte "
                               f"{blob[exc.start]:#04x}") from None


def read_json(path, parse_constant=None) -> dict:
    """The JSON object in a UTF-8 file (see read_utf8). A syntax error, or
    a document of another kind, raises CorruptFileError naming the file."""
    try:
        doc = json.loads(read_utf8(path), parse_constant=parse_constant)
    except json.JSONDecodeError as exc:
        raise CorruptFileError(f"{path}: line {exc.lineno} col {exc.colno}: "
                               f"{exc.msg}") from None
    if not isinstance(doc, dict):
        raise CorruptFileError(f"{path}: not a JSON object")
    return doc


def _rows(lines) -> np.ndarray:
    """Data lines parsed in one np.loadtxt call; ValueError if a cell is
    not a number."""
    if not lines:  # np.loadtxt warns on no data
        return np.empty((0, _N_COLUMNS))
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)


def _is_number(cell: str) -> bool:
    """Whether np.loadtxt reads the cell: stripped of whitespace, an ASCII
    literal that float() reads, without '_'."""
    cell = cell.strip()
    if not cell.isascii() or "_" in cell:
        return False
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _first_bad_line(path, lines, numbers):
    """(index, MalformedRowError naming it) of the first data line that is
    not 61 numbers."""
    for i, (line, number) in enumerate(zip(lines, numbers)):
        cells = line.split(",")
        if len(cells) != _N_COLUMNS:
            return i, MalformedRowError(
                path, number, f"expected {_N_COLUMNS} columns, got {len(cells)}")
        bad = next((cell for cell in cells if not _is_number(cell)), None)
        if bad is not None:
            return i, MalformedRowError(path, number, f"non-numeric cell {bad!r}")


def parse_skeleton_csv(path) -> SkeletonSequence:
    """Read one recording; repair missing joints by forward fill.

    The file is UTF-8, and a line ends at LF, CRLF or a lone CR (see
    read_utf8). A blank line, or one whose first non-blank character is
    '#', is skipped whatever else it holds. Every other line is a frame:
    the timestamp, then x, y, z and a confidence for every JointId in
    order, 61 cells split at every comma, each a number (see _is_number;
    quotes are not stripped). Zero or negative confidence marks the joint
    missing in that frame. The first line that is not 61 numbers, or an
    earlier one that holds a non-finite timestamp, one below the previous
    line's, a non-finite observed coordinate or a confidence above 1, is
    rejected with the file and its 1-based line number. A joint missing
    from the first frame raises MissingJointError. The data lines are
    parsed in one call, and looked at one by one only when it fails.
    """
    lines, numbers = [], []
    for number, line in enumerate(read_utf8(path).split("\n"), start=1):
        start = line.lstrip()
        if start and not start.startswith("#"):
            lines.append(line)
            numbers.append(number)
    error = None
    try:
        data = _rows(lines)
    except ValueError:
        data = None
    if data is None or data.shape != (len(lines), _N_COLUMNS):
        end, error = _first_bad_line(path, lines, numbers)
        data = _rows(lines[:end])
    fields = data[:, 1:].reshape(len(data), len(JointId), 4)
    observed = fields[:, :, 3] > 0
    found = _bad_value(data, fields, observed)
    if found is not None:  # a line before the first that is not 61 numbers
        raise MalformedRowError(path, numbers[found[0]], found[1])
    if error is not None:
        raise error
    if not len(data):
        raise EmptyInputError(f"no data rows in {path}")
    return SkeletonSequence(timestamps=data[:, 0],
                            positions=forward_fill(fields[:, :, :3], observed),
                            source=str(path))


def write_skeleton_csv(path, seq: SkeletonSequence,
                       header: Optional[str] = None) -> None:
    """Inverse of parse_skeleton_csv; floats via repr, so round-trips exact.

    Every joint is written as observed (confidence 1.0).
    """
    conf = repr(1.0)
    with open(path, "w", newline="") as fh:
        if header:
            fh.write(f"# {header}\n")
        writer = csv.writer(fh)
        for ts, frame in zip(seq.timestamps.tolist(), seq.positions.tolist()):
            row = [repr(ts)]
            for xyz in frame:
                row.extend(map(repr, xyz))
                row.append(conf)
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
        for i, e in enumerate(self.entries):
            if e.split not in SPLITS:
                raise ValueError(f"entry {i}: unknown split {e.split!r}")
            if e.label < 0:
                raise ValueError(f"entry {i}: negative label {e.label}")
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


def save_manifest(manifest: DatasetManifest, path, config_hash: str = "") -> None:
    doc = {
        "format": "signflow-manifest",
        "tool_version": __version__,
        "config_hash": config_hash,
        "entries": [asdict(e) for e in manifest.entries],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_manifest(path) -> DatasetManifest:
    doc = read_json(path)
    if "entries" not in doc:
        raise CorruptFileError(f"{path}: missing 'entries'")
    if not isinstance(doc["entries"], list):
        raise CorruptFileError(f"{path}: 'entries' must be a list, "
                               f"got {type(doc['entries']).__name__}")
    entries = []
    for i, item in enumerate(doc["entries"]):
        try:
            label = item["label"]
            if not _is_integral(label):
                raise ValueError(f"label must be an integer, got {label!r}")
            fields = {key: item[key] for key in ("sequence_path", "subject", "split")}
            fields["mask_dir"] = item.get("mask_dir")
            for key, value in fields.items():
                # only the mask dir may be null
                if not (isinstance(value, str) or (key == "mask_dir" and value is None)):
                    raise ValueError(f"{key} must be a string, got {value!r}")
            entries.append(ManifestEntry(label=int(label), **fields))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CorruptFileError(f"{path}: entry {i}: {exc}") from None
    try:
        return DatasetManifest(entries=entries)
    except (ValueError, EmptyInputError) as exc:
        raise CorruptFileError(f"{path}: {exc}") from None


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


def _pgm_header(blob: bytes) -> tuple[int, int, int]:
    """(height, width, offset of the pixels) of a P5 graymap that holds all
    its pixels; ValueError says what is wrong. Width, height and maxval
    must be ASCII decimals, width and height at least 1."""
    header = _PGM_HEADER.match(blob)
    if header is None:
        raise ValueError("truncated header" if blob.startswith(b"P5")
                         else "not a P5 graymap")
    fields = header.groups()
    try:
        if not all(f.isdigit() for f in fields):
            raise ValueError
        width, height, maxval = map(int, fields)  # ValueError past 4300 digits
    except ValueError:
        raise ValueError("non-numeric header field") from None
    if maxval <= 0 or maxval > 255:
        raise ValueError(f"unsupported maxval {maxval}")
    if width < 1 or height < 1:
        raise ValueError(f"image size {width}x{height} has no pixels")
    start = header.end()
    if len(blob) - start < width * height:
        raise ValueError(f"expected {width * height} pixel bytes, "
                         f"got {len(blob) - start}")
    return height, width, start


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
    codebook sample. The masks are read into one (T, 2, 65, 65) bool stack,
    frame-major, right then left, checked in one component count and
    handed to `_frame_regions`, which packs it for the regions. A file
    that is not a graymap (see _pgm_header) raises CorruptFileError naming
    it. Otherwise, in frame order, the first frame missing a side, or the
    first mask that is not a valid region (wrong size, even when blank, or
    more than one 8-connected component) raises CorruptFileError naming
    its file and frame.
    """
    root = Path(dir_path)
    if not root.is_dir():
        raise FileNotFoundError(f"no mask archive at {dir_path}")
    folder = os.fspath(root)
    found: dict[int, str] = {}  # 2 * frame + (0 right, 1 left) -> file name
    for name in os.listdir(folder):
        m = _MASK_NAME.fullmatch(name)
        if m:
            found[2 * int(m.group(1)) + (m.group(2) == "L")] = name
    if not found:
        raise EmptyInputError(f"no masks in {dir_path}")
    codes = sorted(found)
    shapes, chunks = [], []  # per file: (height, width), its pixel bytes
    header, size = None, 0
    for code in codes:
        with open(os.path.join(folder, found[code]), "rb", buffering=0) as fh:
            blob = fh.read()
        # a file that begins with the last header parsed shares its fields
        if header is None or not blob.startswith(header) or len(blob) < len(header) + size:
            try:
                height, width, start = _pgm_header(blob)
            except ValueError as exc:
                raise CorruptFileError(f"{root / found[code]}: {exc}") from None
            header, size = blob[:start], height * width
        shapes.append((height, width))
        chunks.append(blob[start:start + size])
    # the masks of whole frames, up to the first frame missing a side, and
    # of those the ones before the first that is not 65x65
    whole = next((i for i, code in enumerate(codes) if code != i), len(codes)) // 2 * 2
    end = next((i for i in range(whole) if shapes[i] != (PATCH, PATCH)), whole)
    masks = (np.frombuffer(b"".join(chunks[:end]), np.uint8) > 0).reshape(end, PATCH, PATCH)
    # the masks of more than one 8-connected component, counted for the
    # whole stack at once, without painting labels
    split = np.flatnonzero(_component_counts(masks) > 1)
    if split.size or end < whole:  # the first bad mask, in frame order
        idx, slot = divmod(int(split[0]) if split.size else end, 2)
        reason = ("present region must be a single 8-connected component"
                  if split.size else f"mask must be {PATCH}x{PATCH}")
        raise CorruptFileError(f"{root / mask_filename(idx, _SIDES[slot])}: "
                               f"frame {idx}: {reason}")
    if whole < len(codes):
        raise CorruptFileError(f"{dir_path}: frame {whole // 2} is missing a side")
    return _frame_regions(masks.reshape(-1, 2, PATCH, PATCH))
