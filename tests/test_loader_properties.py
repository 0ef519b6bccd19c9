"""The batched skeleton CSV and PGM mask loaders against the row-at-a-time
oracles in loader_oracle.py: same bytes, or the same error type and
message, on fuzzed files."""

import os
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import loader_oracle as oracle
from signflow import dataset
from signflow.dataset import (
    CorruptFileError,
    MalformedRowError,
    load_mask_archive,
    mask_filename,
    parse_skeleton_csv,
    save_mask,
)
from signflow.posture import PATCH, HandSide


def outcome(load, path):
    """What a loader makes of a file: its result, or its error's type and
    message. A warning counts as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return "ok", load(path)
        except Exception as exc:
            return type(exc), str(exc)


def assert_same_sequence(path):
    got, want = outcome(parse_skeleton_csv, path), outcome(oracle.parse_skeleton_csv, path)
    if want[0] != "ok":
        assert got == want
        return
    assert got[0] == "ok", got
    for name in ("timestamps", "positions"):
        assert getattr(got[1], name).tobytes() == getattr(want[1], name).tobytes()
    assert got[1].source == want[1].source


SPECIAL_CELLS = ["nan", "inf", "-0", "1e999", "1_0", " 1.5 ", '"2.0"', "", "x",
                 "\u0661\u0662", "\x1c1"]
SKIPPED_LINES = ["", "   ", "\t", "#", "# header", "  # x,1,2", '# a,"b', '# "',
                 ' #"x\ty",",']


@st.composite
def csv_texts(draw):
    """0-20 rows of 61 cells, or in some files 60, 61 or 62, mostly valid
    numbers, some cells replaced by special ones; blank, whitespace-only
    and '#' lines anywhere; "\\n" or "\\r\\n" line ends, sometimes one
    "\\r"; as UTF-8 bytes, sometimes with one byte that does not decode."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = []
    ragged = draw(st.booleans())  # else every row has 61 cells
    for i in range(draw(st.integers(0, 20))):
        lines += draw(st.lists(st.sampled_from(SKIPPED_LINES), max_size=2))
        width = draw(st.sampled_from([61, 61, 61, 60, 62])) if ragged else 61
        values = rng.normal(size=width)
        values[0] = 0.1 * i
        # a joint missing from the first frame fails every file
        values[4::4] = rng.choice([0.0, 0.5, 1.0] if i else [0.5, 1.0], size=values[4::4].size)
        cells = [repr(float(v)) for v in values]
        for at, cell in draw(st.lists(st.tuples(
                st.integers(0, width - 1),
                st.one_of(st.sampled_from(SPECIAL_CELLS), st.floats().map(repr))),
                max_size=2)):
            cells[at] = cell
        lines.append(",".join(cells))
    lines += draw(st.lists(st.sampled_from(SKIPPED_LINES), max_size=2))
    ends = [end] * len(lines)
    if lines and draw(st.booleans()):
        ends[draw(st.integers(0, len(lines) - 1))] = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    if lines and draw(st.booleans()):
        ends[-1] = ""
    blob = "".join(line + e for line, e in zip(lines, ends)).encode()
    if blob and rng.random() < 0.1:
        at = int(rng.integers(len(blob) + 1))
        blob = blob[:at] + draw(st.sampled_from([b"\xff", b"\xc3"])) + blob[at:]
    return blob


class TestCsvAgainstRowReader:
    @settings(max_examples=300, deadline=None)
    @given(csv_texts())
    def test_same_bytes_or_same_error(self, tmp_path_factory, blob):
        p = tmp_path_factory.mktemp("csv") / "seq.csv"
        p.write_bytes(blob)
        assert_same_sequence(p)

    def test_is_number_is_what_np_loadtxt_reads(self):
        # the one-by-one check names a line only if it agrees with the
        # one call: around, before and inside a number, every ASCII
        # character and every other one that is a space or a digit
        chars = [chr(c) for c in range(0x110000) if c < 0x80 or chr(c).isspace()
                 or chr(c).isnumeric()]
        for char in set(chars) - set("\n\r,"):
            for cell in (char + "1", "1" + char, "1" + char + "5", char):
                try:
                    np.loadtxt([cell], delimiter=",", comments=None, ndmin=2)
                    reads = True
                except ValueError:
                    reads = False
                assert dataset._is_number(cell) == reads, repr(cell)

    def test_files_only_csv_reader_can_settle(self, tmp_path):
        # the files an earlier parser handed to csv.reader, which unquoted
        # cells and let a quote in a comment swallow the lines after it
        row = ",".join(["0.0"] + ["1.0"] * 60)
        quoted = ",".join(['"0.0"'] + ["1.0"] * 60)
        p = tmp_path / "seq.csv"
        for text, want in (
                (quoted + "\r\n", """line 1: non-numeric cell '"0.0"'"""),
                (row + "\r" + row + "\n", 2),
                (row + "\r\r\n", 1),
                ('"# a comment"\n' + row + "\n", "line 1: expected 61 columns, got 1"),
                (row + ',"x\ny"\n', "line 1: expected 61 columns, got 62"),
                ("# a comment\r" + row + "\n", 1),
                ('# a,"b\n' + row + '\n# "\n' + row + "\n", 2),
                ("#" + "x" * 140_000 + "\n" + row + "\n", 1)):
            p.write_bytes(text.encode())
            assert_same_sequence(p)
            got = outcome(parse_skeleton_csv, p)
            if isinstance(want, int):
                assert got[0] == "ok" and len(got[1]) == want, (text[:50], got)
            else:
                assert got == (MalformedRowError, f"{p}: {want}")


WHITESPACE = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]


@st.composite
def separators(draw):
    """A run of whitespace bytes and '#' comments; a comment may end the
    run without its newline, and then runs into what follows."""
    parts = draw(st.lists(st.one_of(
        st.sampled_from(WHITESPACE),
        st.builds(lambda text, nl: b"#" + text + nl,
                  st.binary(max_size=4).map(lambda b: b.replace(b"\n", b"")),
                  st.sampled_from([b"\n", b"\n", b""]))), max_size=3))
    return b"".join(parts)


@st.composite
def graymaps(draw):
    """A P5 header of fuzzed separators and tokens, then a pixel count
    near width x height."""
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    tokens = []
    for value in (width, height, 255):
        tokens.append(draw(st.one_of(
            st.just(str(value).encode()), st.just(str(value).encode()),
            st.sampled_from([b"0", b"-5", b"+3", b"1_0", b"0003", b"2#1", b"x", b"#7",
                             b"00" * 2200 + b"3", b"256", b"\xd9\xa1"]))))
    blob = draw(st.sampled_from([b"P5", b"P5", b"P6", b""]))
    for token in tokens:
        blob += draw(separators()) + token
    blob += draw(st.sampled_from([b"\n", b" ", b"\r", b"", b"#", b"x"]))
    n = max(width * height + draw(st.integers(-2, 2)), 0)
    return blob + bytes(draw(st.lists(st.sampled_from([0, 1, 255]), min_size=n, max_size=n)))


class TestPgmAgainstByteLoop:
    @settings(max_examples=500, deadline=None)
    @given(graymaps())
    @example(b"P5\n-5 -5\n255\n" + b"\xff" * 25)
    @example(b"P5 # c\n2#1 1 255\n\x00\x00")
    @example(b"P5#c\n2 1 255 \xff\x00")
    @example(b"P5\x0b2\x0c1\r255\t\xff\x00")
    @example(b"P5 2 1 255")
    @example(b"P5 2 1 #c\n255")
    def test_same_mask_or_same_error(self, tmp_path_factory, blob):
        p = tmp_path_factory.mktemp("pgm") / "m.pgm"
        p.write_bytes(blob)
        got, want = outcome(dataset._pgm_header, blob), outcome(oracle.load_mask, p)
        if want[0] == "ok":
            assert got[0] == "ok", got
            height, width, start = got[1]
            mask = np.frombuffer(blob, np.uint8, height * width, start) > 0
            assert ((height, width), mask.tobytes()) == (want[1].shape, want[1].tobytes())
        else:
            # the oracle names the file before the reason _pgm_header gives
            assert want == (CorruptFileError, f"{p}: {got[1]}") and got[0] is ValueError


def rect(r0, r1, c0, c1):
    mask = np.zeros((PATCH, PATCH), dtype=bool)
    mask[r0:r1 + 1, c0:c1 + 1] = True
    return mask


BRIDGE = rect(20, 30, 20, 30)
# two pixels inside BRIDGE's box, not 8-connected in their own mask: a
# label that joined a mask to its neighbour in the stack would merge them
SPLIT = rect(20, 20, 20, 20) | rect(30, 30, 30, 30)

edge = st.integers(0, PATCH - 1)
valid_masks = st.one_of(
    st.just(None),                                   # absent hand
    st.builds(lambda r, c: rect(r, r, c, c), edge, edge),  # one pixel
    st.builds(lambda a, b, c, d: rect(min(a, b), max(a, b), min(c, d), max(c, d)),
              st.sampled_from([0, PATCH - 1]) | edge, edge,
              st.sampled_from([0, PATCH - 1]) | edge, edge),  # often on the edge
    st.just(BRIDGE))
# what a slot of an archive may hold besides a valid mask
faults = st.sampled_from(["split", "small", "blank-small", "no-file", "truncated"])


def write_archive(d, slots):
    """One file per slot, in frame order, right before left."""
    for i, slot in enumerate(slots):
        write_slot(d / mask_filename(i // 2, (HandSide.RIGHT, HandSide.LEFT)[i % 2]), slot)


def write_slot(path, slot):
    if isinstance(slot, str):
        if slot == "split":
            save_mask(path, SPLIT)
        elif slot == "small":
            save_mask(path, rect(1, 2, 1, 2)[:10, :7])
        elif slot == "blank-small":
            save_mask(path, np.zeros((10, 7), dtype=bool))
        elif slot == "truncated":
            save_mask(path, BRIDGE)
            path.write_bytes(path.read_bytes()[:-5])
        return
    save_mask(path, np.zeros((PATCH, PATCH), dtype=bool) if slot is None else slot)


def archive_outcome(load, d):
    got = outcome(load, d)
    if got[0] != "ok":
        return got
    return [[(side, r.present, r.mask.dtype, r.mask.shape, r.mask.tobytes())
             for side, r in frame.items()] for frame in got[1]]


class TestMaskArchiveAgainstOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(valid_masks, valid_masks), min_size=1, max_size=6),
           st.lists(st.tuples(st.integers(0, 11), faults), max_size=3))
    def test_same_regions_or_same_first_error(self, tmp_path_factory, frames, injected):
        d = tmp_path_factory.mktemp("masks")
        slots = [slot for frame in frames for slot in frame]
        for at, fault in injected:
            slots[at % len(slots)] = fault
        write_archive(d, slots)
        got, want = archive_outcome(load_mask_archive, d), archive_outcome(oracle.load_mask_archive, d)
        assert got == want
        if not injected:  # a valid archive round-trips exactly
            assert [[r[4] for r in frame] for frame in got] == [
                [(np.zeros((PATCH, PATCH), dtype=bool) if m is None else m).tobytes()
                 for m in frame] for frame in frames]

    def test_masks_are_not_joined_across_sides_or_frames(self, tmp_path):
        # SPLIT sits between BRIDGE masks, before and after it in the
        # stack: frame 0's right hand, frame 1's right hand
        d = tmp_path / "vid"
        d.mkdir()
        write_archive(d, [BRIDGE, SPLIT, BRIDGE, BRIDGE])
        got = archive_outcome(load_mask_archive, d)
        assert got == archive_outcome(oracle.load_mask_archive, d)
        assert got[0] is CorruptFileError
        assert got[1].startswith(f"{d / '00000_L.pgm'}: frame 0: ")

    def test_first_bad_mask_in_frame_order_wins(self, tmp_path):
        d = tmp_path / "vid"
        d.mkdir()
        write_archive(d, [BRIDGE, BRIDGE, BRIDGE, "small", "split", BRIDGE, "no-file", "split"])
        got = archive_outcome(load_mask_archive, d)
        assert got[1] == f"{d / '00001_L.pgm'}: frame 1: mask must be {PATCH}x{PATCH}"
        os.remove(d / "00001_L.pgm")  # now frame 1 misses a side
        got = archive_outcome(load_mask_archive, d)
        assert got[1] == f"{d}: frame 1 is missing a side"
        assert got == archive_outcome(oracle.load_mask_archive, d)
