"""Row-at-a-time loaders, kept as oracles for signflow.dataset's batched ones.

parse_skeleton_csv splits the bytes into lines at LF, CRLF or a lone CR,
decodes each line on its own and parses one cell at a time with float();
load_mask is the byte loop that reads a P5 header one token at a time,
with the header rule of the batched loader (ASCII-decimal fields, width
and height at least 1) added where its fields are converted;
load_mask_archive builds and checks one HandRegion per mask, listing the
directory in frame order, right before left. The batched loaders must
return the same bytes, or raise the same error type with the same
message.
"""

import re
from pathlib import Path

import numpy as np

from signflow.dataset import (
    _N_COLUMNS,
    CorruptFileError,
    MalformedRowError,
    _bad_value,
    _MASK_NAME,
    mask_filename,
)
from signflow.posture import HandRegion, HandSide
from signflow.skeleton import EmptyInputError, JointId, SkeletonSequence, forward_fill


def _cell(cell: str):
    """The float a cell holds, or None: ASCII once stripped, no '_'."""
    cell = cell.strip()
    if not cell.isascii() or "_" in cell:
        return None
    try:
        return float(cell)
    except ValueError:
        return None


def _decoded_lines(path) -> list:
    """The file's lines, split at LF, CRLF or a lone CR and decoded one by
    one; the first that is not UTF-8 raises, naming its line."""
    lines = []
    for lineno, line in enumerate(re.split(rb"\r\n|\r|\n", Path(path).read_bytes()),
                                  start=1):
        try:
            lines.append(line.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise CorruptFileError(f"{path}: line {lineno}: invalid UTF-8 byte "
                                   f"{line[exc.start]:#04x}") from None
    return lines


def parse_skeleton_csv(path) -> SkeletonSequence:
    rows, lines = [], []
    error = None  # a row that does not parse ends the read
    for lineno, line in enumerate(_decoded_lines(path), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        cells = line.split(",")
        if len(cells) != _N_COLUMNS:
            error = MalformedRowError(
                path, lineno, f"expected {_N_COLUMNS} columns, got {len(cells)}")
            break
        values = [_cell(cell) for cell in cells]
        if None in values:
            bad = cells[values.index(None)]
            error = MalformedRowError(path, lineno, f"non-numeric cell {bad!r}")
            break
        rows.append(values)
        lines.append(lineno)
    data = np.array(rows, dtype=np.float64).reshape(len(rows), _N_COLUMNS)
    fields = data[:, 1:].reshape(len(rows), len(JointId), 4)
    observed = fields[:, :, 3] > 0
    found = _bad_value(data, fields, observed)
    if found is not None:  # an earlier line than the one that ended the read
        raise MalformedRowError(path, lines[found[0]], found[1])
    if error is not None:
        raise error
    if not rows:
        raise EmptyInputError(f"no data rows in {path}")
    return SkeletonSequence(timestamps=data[:, 0],
                            positions=forward_fill(fields[:, :, :3], observed),
                            source=str(path))


def load_mask(path) -> np.ndarray:
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
        if not all(f.isdigit() for f in fields):  # the header rule
            raise ValueError
        width, height, maxval = (int(f) for f in fields)
    except ValueError:
        raise CorruptFileError(f"{path}: non-numeric header field") from None
    if maxval <= 0 or maxval > 255:
        raise CorruptFileError(f"{path}: unsupported maxval {maxval}")
    if width < 1 or height < 1:  # the header rule
        raise CorruptFileError(f"{path}: image size {width}x{height} has no pixels")
    pos += 1  # single whitespace byte after maxval
    pixels = blob[pos:pos + width * height]
    if len(pixels) != width * height:
        raise CorruptFileError(f"{path}: expected {width * height} pixel bytes, "
                               f"got {len(pixels)}")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width) > 0


def _frame_order(path: Path):
    m = _MASK_NAME.fullmatch(path.name)
    return (int(m.group(1)), m.group(2) == "L") if m else (-1, False)


def load_mask_archive(dir_path) -> list:
    root = Path(dir_path)
    if not root.is_dir():
        raise FileNotFoundError(f"no mask archive at {dir_path}")
    found: dict[int, dict[HandSide, np.ndarray]] = {}
    for p in sorted(root.iterdir(), key=_frame_order):
        m = _MASK_NAME.fullmatch(p.name)
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
            try:
                out[side] = HandRegion(mask=mask)
            except ValueError as exc:
                raise CorruptFileError(f"{root / mask_filename(idx, side)}: "
                                       f"frame {idx}: {exc}") from None
        frames.append(out)
    return frames
