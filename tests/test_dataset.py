"""Tests for manifests, the skeleton CSV adapter, and PGM mask archives."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from signflow.dataset import (
    DEFAULT_SCHEMA,
    CorruptFileError,
    CsvSchema,
    DatasetManifest,
    MalformedRowError,
    ManifestEntry,
    load_manifest,
    load_mask,
    load_mask_archive,
    mask_filename,
    parse_skeleton_csv,
    save_manifest,
    save_mask,
    save_mask_archive,
    write_skeleton_csv,
)
from signflow.posture import PATCH, HandRegion, HandSide
from signflow.skeleton import (
    ALL_JOINTS,
    UPPER_BODY,
    EmptyInputError,
    JointId,
    MissingJointError,
    SkeletonSequence,
)


def random_sequence(rng, n_frames=3):
    return SkeletonSequence(timestamps=0.1 * np.arange(n_frames),
                            positions=rng.normal(size=(n_frames, 15, 3)))


def csv_row(ts, coords, conf=1.0):
    cells = [str(ts)]
    for xyz in coords:
        cells.extend(str(v) for v in xyz)
        cells.append(str(conf))
    return ",".join(cells)


class TestParseCsv:
    def test_three_rows_61_columns(self, tmp_path):
        p = tmp_path / "seq.csv"
        rows = [csv_row(0.1 * t, [(t, j, 0.5) for j in range(15)]) for t in range(3)]
        p.write_text("\n".join(rows) + "\n")
        assert len(rows[0].split(",")) == 61
        seq = parse_skeleton_csv(p)
        assert len(seq) == 3
        assert seq.timestamps[1] == 0.1
        assert seq.positions[2, JointId(4), 1] == 4.0

    def test_non_numeric_cell_names_line_2(self, tmp_path):
        p = tmp_path / "seq.csv"
        good = csv_row(0.0, [(0, 0, 0)] * 15)
        bad = good.replace("0.0", "zero", 1)
        p.write_text(good + "\n" + bad + "\n")
        with pytest.raises(MalformedRowError) as exc:
            parse_skeleton_csv(p)
        assert exc.value.line == 2
        assert "line 2" in str(exc.value)

    def test_wrong_column_count_names_line(self, tmp_path):
        p = tmp_path / "seq.csv"
        p.write_text(csv_row(0.0, [(0, 0, 0)] * 15) + "\n1.0,2.0\n")
        with pytest.raises(MalformedRowError) as exc:
            parse_skeleton_csv(p)
        assert exc.value.line == 2

    def test_comment_and_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "seq.csv"
        row = csv_row(0.0, [(1, 2, 3)] * 15)
        p.write_text("# header v1\n\n" + row + "\n")
        seq = parse_skeleton_csv(p)
        assert len(seq) == 1

    def test_zero_confidence_forward_filled(self, tmp_path):
        p = tmp_path / "seq.csv"
        r0 = csv_row(0.0, [(7, 8, 9)] * 15)
        r1 = csv_row(0.1, [(1, 1, 1)] * 15, conf=0.0)
        p.write_text(r0 + "\n" + r1 + "\n")
        seq = parse_skeleton_csv(p)
        assert seq.positions[1, JointId.Head].tolist() == [7.0, 8.0, 9.0]

    def test_zero_confidence_in_first_frame_rejected(self, tmp_path):
        p = tmp_path / "seq.csv"
        p.write_text(csv_row(0.0, [(1, 1, 1)] * 15, conf=0.0) + "\n")
        with pytest.raises(MissingJointError):
            parse_skeleton_csv(p)

    def test_required_joint_not_in_schema(self, tmp_path):
        p = tmp_path / "seq.csv"
        p.write_text("0.0,1.0,2.0,3.0,1.0\n")
        schema = CsvSchema(joints=(JointId.Head,))
        with pytest.raises(MissingJointError):
            parse_skeleton_csv(p, schema=schema)
        seq = parse_skeleton_csv(p, schema=schema, required=(JointId.Head,))
        assert seq.joints == (JointId.Head,)
        assert seq.positions[0, 0, 2] == 3.0

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "seq.csv"
        p.write_text("# nothing here\n")
        with pytest.raises(EmptyInputError):
            parse_skeleton_csv(p)

    def test_three_field_schema(self, tmp_path):
        p = tmp_path / "seq.csv"
        p.write_text("0.0," + ",".join(str(v) for v in range(45)) + "\n")
        seq = parse_skeleton_csv(p, schema=CsvSchema(fields_per_joint=3))
        assert seq.positions[0, JointId(1), 0] == 3.0

    def test_non_finite_timestamp_names_line(self, tmp_path):
        # [0, .033, nan, 0.0]: the NaN used to load and hide the step back
        # to 0.0 from a frame-by-frame check
        p = tmp_path / "seq.csv"
        rows = [csv_row(ts, [(1, 2, 3)] * 15) for ts in (0.0, 0.033, "nan", 0.0)]
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(MalformedRowError, match="non-finite timestamp: nan") as exc:
            parse_skeleton_csv(p)
        assert exc.value.line == 3
        p.write_text(rows[0] + "\n# note\n" + csv_row("-inf", [(1, 2, 3)] * 15) + "\n")
        with pytest.raises(MalformedRowError, match="non-finite timestamp: -inf") as exc:
            parse_skeleton_csv(p)
        assert exc.value.line == 3

    def test_non_finite_coordinate_names_line_unless_missing(self, tmp_path):
        p = tmp_path / "seq.csv"
        good = csv_row(0.0, [(1, 2, 3)] * 15)
        coords = [(1, 2, 3)] * 15
        coords[4] = (1, "inf", 3)
        p.write_text(good + "\n" + csv_row(0.1, coords) + "\n")
        with pytest.raises(MalformedRowError, match="non-finite joint coordinate: inf") as exc:
            parse_skeleton_csv(p)
        assert exc.value.line == 2
        # a missing joint's cells are not read: its value is held instead
        p.write_text(good + "\n" + csv_row(0.1, coords, conf=0.0) + "\n")
        assert parse_skeleton_csv(p).positions[1, 4].tolist() == [1.0, 2.0, 3.0]

    def test_confidence_above_one_names_line(self, tmp_path):
        p = tmp_path / "seq.csv"
        good = csv_row(0.0, [(1, 2, 3)] * 15)
        p.write_text(good + "\n" + good + "\n" + csv_row(0.1, [(1, 2, 3)] * 15, conf=1.5) + "\n")
        with pytest.raises(MalformedRowError, match=r"confidence outside \[0, 1\]: 1.5") as exc:
            parse_skeleton_csv(p)
        assert exc.value.line == 3

    def test_earliest_bad_line_wins(self, tmp_path):
        # a bad value on line 2 is reported before a short row on line 3
        p = tmp_path / "seq.csv"
        p.write_text(csv_row(0.0, [(1, 2, 3)] * 15) + "\n"
                     + csv_row("nan", [(1, 2, 3)] * 15) + "\n1.0,2.0\n")
        with pytest.raises(MalformedRowError) as exc:
            parse_skeleton_csv(p)
        assert exc.value.line == 2

    def test_backward_timestamp_names_file_and_line(self, tmp_path):
        p = tmp_path / "seq.csv"
        rows = [csv_row(ts, [(1, 2, 3)] * 15) for ts in (0.0, 0.1, 0.05)]
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(MalformedRowError,
                           match="timestamp 0.05 goes back from 0.1") as exc:
            parse_skeleton_csv(p)
        assert exc.value.line == 3
        assert str(exc.value).startswith(f"{p}: line 3: ")
        # a repeated timestamp does not go back
        p.write_text("\n".join(rows[:2] + [rows[1]]) + "\n")
        assert len(parse_skeleton_csv(p)) == 3

    def test_schema_validation(self):
        with pytest.raises(ValueError):
            CsvSchema(fields_per_joint=5)
        with pytest.raises(ValueError):
            CsvSchema(joints=(JointId.Head, JointId.Head))


class TestRoundTrip:
    def test_write_then_parse_exact(self, tmp_path):
        rng = np.random.default_rng(90)
        seq = random_sequence(rng, n_frames=5)
        p = tmp_path / "seq.csv"
        write_skeleton_csv(p, seq, header="tool test")
        back = parse_skeleton_csv(p)
        assert len(back) == len(seq)
        np.testing.assert_array_equal(back.timestamps, seq.timestamps)
        np.testing.assert_array_equal(back.positions, seq.positions)


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def schemas(draw):
    """A shuffled superset of the upper body, with or without confidence."""
    extra = draw(st.lists(st.sampled_from(ALL_JOINTS[len(UPPER_BODY):]), unique=True))
    joints = draw(st.permutations(UPPER_BODY + tuple(extra)))
    return CsvSchema(joints=tuple(joints), fields_per_joint=draw(st.sampled_from((3, 4))))


class TestCsvProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.data(), schemas())
    def test_write_then_parse_is_exact(self, tmp_path_factory, data, schema):
        n = data.draw(st.integers(1, 6))
        seq = SkeletonSequence(
            # sorted: a timestamp that goes back is rejected on parsing
            timestamps=np.sort(data.draw(arrays(np.float64, n, elements=finite))),
            positions=data.draw(arrays(np.float64, (n, len(schema.joints), 3),
                                       elements=finite)),
            joints=schema.joints)
        p = tmp_path_factory.mktemp("csv") / "seq.csv"
        write_skeleton_csv(p, seq, schema=schema)
        back = parse_skeleton_csv(p, schema=schema)
        assert back.joints == seq.joints
        # bytes, so that -0.0 and 0.0 count as different
        assert back.timestamps.tobytes() == seq.timestamps.tobytes()
        assert back.positions.tobytes() == seq.positions.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_zero_confidence_gaps_hold_last_observed_value(self, tmp_path_factory, data):
        n = data.draw(st.integers(1, 8))
        observed = data.draw(arrays(bool, (n, 15)))
        observed[0] = True
        positions = data.draw(arrays(np.float64, (n, 15, 3), elements=finite))
        lines = []
        for t in range(n):
            cells = [repr(0.1 * t)]
            for j in range(15):
                if observed[t, j]:
                    conf = data.draw(st.floats(0.0, 1.0, exclude_min=True))
                    cells += [repr(float(v)) for v in positions[t, j]] + [repr(conf)]
                else:  # a missing joint's cells are never read, not even a NaN
                    conf = data.draw(st.sampled_from([0.0, -0.0, -1.0, float("nan")]))
                    cells += ["nan", "inf", "-7.5", repr(conf)]
            lines.append(",".join(cells))
        p = tmp_path_factory.mktemp("csv") / "seq.csv"
        p.write_text("\n".join(lines) + "\n")
        seq = parse_skeleton_csv(p, schema=DEFAULT_SCHEMA)
        want = positions.copy()
        for t in range(1, n):
            want[t, ~observed[t]] = want[t - 1, ~observed[t]]
        assert seq.positions.tobytes() == want.tobytes()


class TestManifest:
    def entries(self):
        return [
            ManifestEntry("a.csv", 0, "s1", "train"),
            ManifestEntry("b.csv", 1, "s1", "train"),
            ManifestEntry("c.csv", 0, "s2", "validation", mask_dir="c_masks"),
            ManifestEntry("d.csv", 1, "s3", "test"),
        ]

    def test_valid_manifest(self):
        m = DatasetManifest(entries=self.entries())
        assert m.n_classes == 2
        assert [e.sequence_path for e in m.entries if e.split == "train"] == ["a.csv", "b.csv"]

    def test_subject_in_two_splits_rejected(self):
        bad = self.entries() + [ManifestEntry("e.csv", 0, "s1", "test")]
        with pytest.raises(ValueError) as exc:
            DatasetManifest(entries=bad)
        assert "s1" in str(exc.value)

    def test_label_gap_rejected(self):
        bad = [ManifestEntry("a.csv", 0, "s1", "train"),
               ManifestEntry("b.csv", 2, "s2", "test")]
        with pytest.raises(ValueError):
            DatasetManifest(entries=bad)

    def test_unknown_split_rejected(self):
        with pytest.raises(ValueError):
            DatasetManifest(entries=[ManifestEntry("a.csv", 0, "s1", "dev")])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            DatasetManifest(entries=[])

    def test_save_load_round_trip(self, tmp_path):
        m = DatasetManifest(entries=self.entries())
        p = tmp_path / "manifest.json"
        save_manifest(m, p, config_hash="abc123")
        back = load_manifest(p)
        assert back.entries == m.entries
        text = p.read_text()
        assert "tool_version" in text and "abc123" in text

    def test_corrupt_json_names_location(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text('{"entries": [}')
        with pytest.raises(CorruptFileError) as exc:
            load_manifest(p)
        assert "line 1" in str(exc.value)

    def test_missing_entries_key(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text('{"format": "signflow-manifest"}')
        with pytest.raises(CorruptFileError):
            load_manifest(p)

    def test_entry_missing_field(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text('{"entries": [{"sequence_path": "a.csv"}]}')
        with pytest.raises(CorruptFileError) as exc:
            load_manifest(p)
        assert "entry 0" in str(exc.value)


def disk_region(side=HandSide.RIGHT, cx=32, cy=32, r=6):
    yy, xx = np.mgrid[:PATCH, :PATCH]
    mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
    return HandRegion(mask=mask, side=side, present=True)


class TestPgm:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(91)
        # random blob, no single-CC requirement at the raw mask level
        mask = rng.random((PATCH, PATCH)) < 0.3
        p = tmp_path / "m.pgm"
        save_mask(p, mask, comment="tool test")
        back = load_mask(p)
        np.testing.assert_array_equal(back, mask)

    def test_header_layout(self, tmp_path):
        p = tmp_path / "m.pgm"
        save_mask(p, np.ones((2, 3), dtype=bool))
        blob = p.read_bytes()
        assert blob.startswith(b"P5\n3 2\n255\n")
        assert blob[len(b"P5\n3 2\n255\n"):] == b"\xff" * 6

    def test_pixel_value_convention(self, tmp_path):
        p = tmp_path / "m.pgm"
        mask = np.zeros((1, 2), dtype=bool)
        mask[0, 1] = True
        save_mask(p, mask)
        assert p.read_bytes().endswith(b"\x00\xff")

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "m.pgm"
        p.write_bytes(b"P6\n1 1\n255\n\x00")
        with pytest.raises(CorruptFileError):
            load_mask(p)

    def test_truncated_pixels(self, tmp_path):
        p = tmp_path / "m.pgm"
        save_mask(p, np.ones((4, 4), dtype=bool))
        blob = p.read_bytes()
        p.write_bytes(blob[:-3])
        with pytest.raises(CorruptFileError) as exc:
            load_mask(p)
        assert "pixel" in str(exc.value)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "m.pgm"
        p.write_bytes(b"P5\n3")
        with pytest.raises(CorruptFileError):
            load_mask(p)


class TestMaskArchive:
    def test_filenames(self):
        assert mask_filename(7, HandSide.LEFT) == "00007_L.pgm"
        assert mask_filename(12345, HandSide.RIGHT) == "12345_R.pgm"

    def test_round_trip(self, tmp_path):
        frames = [
            {HandSide.RIGHT: disk_region(HandSide.RIGHT),
             HandSide.LEFT: HandRegion(mask=np.zeros((PATCH, PATCH), dtype=bool),
                                       side=HandSide.LEFT, present=False)},
            {HandSide.RIGHT: disk_region(HandSide.RIGHT, cx=20, cy=40, r=4),
             HandSide.LEFT: disk_region(HandSide.LEFT, cx=50, cy=10, r=5)},
        ]
        d = tmp_path / "vid0"
        save_mask_archive(d, frames)
        names = sorted(p.name for p in d.iterdir())
        assert names == ["00000_L.pgm", "00000_R.pgm", "00001_L.pgm", "00001_R.pgm"]
        back = load_mask_archive(d)
        assert len(back) == 2
        assert not back[0][HandSide.LEFT].present
        assert back[0][HandSide.RIGHT].present
        np.testing.assert_array_equal(back[0][HandSide.RIGHT].mask,
                                      frames[0][HandSide.RIGHT].mask)
        np.testing.assert_array_equal(back[1][HandSide.LEFT].mask,
                                      frames[1][HandSide.LEFT].mask)
        for sides in back:
            for side, region in sides.items():
                assert region.side == side

    def test_sides_in_fixed_order_whatever_the_directory_order(self, tmp_path,
                                                               monkeypatch):
        d = tmp_path / "vid0"
        save_mask_archive(d, [{HandSide.RIGHT: disk_region(),
                               HandSide.LEFT: disk_region(HandSide.LEFT)}] * 3)
        names = sorted(d.iterdir())
        for listing in (names, names[::-1]):
            monkeypatch.setattr(Path, "iterdir",
                                lambda self, listing=listing: iter(listing))
            for sides in load_mask_archive(d):
                assert list(sides) == [HandSide.RIGHT, HandSide.LEFT]

    def test_missing_side_rejected(self, tmp_path):
        d = tmp_path / "vid0"
        save_mask_archive(d, [{HandSide.RIGHT: disk_region(),
                               HandSide.LEFT: disk_region(HandSide.LEFT, cx=10)}])
        (d / "00000_L.pgm").unlink()
        with pytest.raises(CorruptFileError):
            load_mask_archive(d)

    def test_multi_component_mask_names_file_and_frame(self, tmp_path):
        d = tmp_path / "vid0"
        save_mask_archive(d, [{HandSide.RIGHT: disk_region(),
                               HandSide.LEFT: disk_region(HandSide.LEFT)}] * 2)
        two_blobs = disk_region(cx=15, cy=15, r=5).mask | disk_region(cx=48, cy=48, r=5).mask
        save_mask(d / "00001_L.pgm", two_blobs)
        with pytest.raises(CorruptFileError) as exc:
            load_mask_archive(d)
        assert str(d / "00001_L.pgm") in str(exc.value)
        assert "frame 1" in str(exc.value)

    def test_blank_wrong_size_mask_names_file_and_frame(self, tmp_path):
        d = tmp_path / "vid0"
        save_mask_archive(d, [{HandSide.RIGHT: disk_region(),
                               HandSide.LEFT: disk_region(HandSide.LEFT)}] * 2)
        save_mask(d / "00000_R.pgm", np.zeros((10, 7), dtype=bool))
        with pytest.raises(CorruptFileError) as exc:
            load_mask_archive(d)
        assert str(d / "00000_R.pgm") in str(exc.value)
        assert "frame 0" in str(exc.value)

    def test_missing_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_mask_archive(tmp_path / "nope")

    def test_empty_dir(self, tmp_path):
        d = tmp_path / "vid0"
        d.mkdir()
        with pytest.raises(EmptyInputError):
            load_mask_archive(d)
