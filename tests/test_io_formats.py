import math
import string
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamstab import (DepthMap, GrayImage, PointSet, Pose, Quaternion,
                        Trajectory, quat_normalize)
from streamstab import io_formats
from streamstab.errors import (InvalidValue, MissingProperty,
                               NonMonotonicTimestamps, ParseError,
                               UnsupportedMagic)
from streamstab.io_formats import (_pnm_header, read_pfm, read_pgm,
                                   read_ply_ascii, read_trajectory_tum,
                                   write_pfm, write_pgm, write_ply_ascii,
                                   write_trajectory_tum)

from streamstab.geometry import _SPLIT_ROWS

from conftest import awkward_trajectory, random_trajectory

# deterministic, and no example database written to disk
FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=300)
# an integer field of one digit more than int() reads by default
LONG = b"1" * 4301


def read_tum_loop_oracle(text):
    """The TUM reader one line at a time, one Pose per line."""
    poses = []
    last_ts = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 8:
            raise ParseError(f"expected 8 fields, got {len(fields)}", line=lineno)
        try:
            ts, tx, ty, tz, qx, qy, qz, qw = (float(f) for f in fields)
        except ValueError:
            raise ParseError(f"non-numeric field in {line!r}", line=lineno)
        if not all(math.isfinite(v) for v in (ts, tx, ty, tz, qx, qy, qz, qw)):
            raise ParseError("non-finite value", line=lineno)
        if last_ts is not None and ts <= last_ts:
            raise NonMonotonicTimestamps(
                f"timestamp {ts} does not increase past {last_ts}", line=lineno)
        last_ts = ts
        q = quat_normalize(Quaternion(qw, qx, qy, qz))
        poses.append(Pose(np.array([tx, ty, tz]), q, ts))
    return Trajectory(poses)


def write_tum_loop_oracle(traj):
    """The TUM writer one line at a time."""
    lines = ["# timestamp tx ty tz qx qy qz qw"]
    for p in traj:
        lines.append(" ".join("%.17g" % v for v in (
            p.timestamp, p.t[0], p.t[1], p.t[2],
            p.q.x, p.q.y, p.q.z, p.q.w)))
    return "\n".join(lines) + "\n"


def tum_text(rng, n):
    """TUM text of n poses with unnormalized quaternions, comments, blank
    lines and uneven whitespace."""
    traj = awkward_trajectory(rng, n)
    scale = np.exp(rng.uniform(-5.0, 5.0, size=(n, 1)))
    table = np.column_stack([traj.ts, traj.t,
                             scale * traj.q[:, [1, 2, 3, 0]]])
    lines = ["# comment"]
    for row in table:
        lines.append(rng.choice([" ", "\t", "  "]).join(map(repr, row.tolist())))
        if rng.uniform() < 0.1:
            lines.append(rng.choice(["", "# note", "   "]))
    return "\n".join(lines) + "\n"


def _outcome(read, text):
    try:
        traj = read(text)
    except ParseError as exc:
        return type(exc), str(exc)
    return traj.t, traj.q, traj.ts


def _same_outcome(a, b):
    """Equal errors, or arrays equal bit for bit."""
    if isinstance(a[0], type):
        return a == b
    return not isinstance(b[0], type) and all(
        x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(a, b))


# TUM text: any text, or lines of number-like fields
TUM_TEXT = st.one_of(
    st.text(),
    st.lists(st.lists(st.sampled_from(
        ["0", "1", "-1", "0.5", "2", "1e200", "1e-200", "1e308", "nan",
         "inf", "-inf", "x", "#", "1_0", "0x1", ""]), max_size=9)
        .map(" ".join), max_size=6).map("\n".join))


class TestTum:
    def test_identity_pose(self):
        traj = read_trajectory_tum("0.0 0 0 0 0 0 0 1\n")
        assert len(traj) == 1
        pose = traj[0]
        assert pose.timestamp == 0.0
        assert np.allclose(pose.t, 0)
        assert pose.q == Quaternion(1, 0, 0, 0)

    def test_comments_and_blank_lines(self):
        text = "# header\n\n1.0 1 2 3 0 0 0 1\n# trailing\n"
        traj = read_trajectory_tum(text)
        assert len(traj) == 1
        assert np.allclose(traj[0].t, [1, 2, 3])

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            traj = random_trajectory(rng, 5)
            back = read_trajectory_tum(write_trajectory_tum(traj))
            for a, b in zip(traj, back):
                assert abs(a.timestamp - b.timestamp) < 1e-12
                assert np.max(np.abs(a.t - b.t)) < 1e-12
                assert abs(abs(a.q.dot(b.q)) - 1.0) < 1e-12

    def test_seven_fields_rejected(self):
        with pytest.raises(ParseError) as exc:
            read_trajectory_tum("0 0 0 0 0 0 1\n")
        assert exc.value.line == 1

    def test_line_number_reported(self):
        text = "0 0 0 0 0 0 0 1\nbad line here\n"
        with pytest.raises(ParseError) as exc:
            read_trajectory_tum(text)
        assert exc.value.line == 2

    def test_non_monotonic_rejected(self):
        text = "1 0 0 0 0 0 0 1\n0.5 0 0 0 0 0 0 1\n"
        with pytest.raises(NonMonotonicTimestamps):
            read_trajectory_tum(text)

    def test_scalar_last_on_disk(self):
        traj = Trajectory([Pose(np.zeros(3), Quaternion(1, 0, 0, 0), 0.0)])
        line = write_trajectory_tum(traj).splitlines()[1]
        assert line.split() == ["0", "0", "0", "0", "0", "0", "0", "1"]

    def test_empty_trajectory_header_only(self):
        out = write_trajectory_tum(Trajectory([]))
        assert out == "# timestamp tx ty tz qx qy qz qw\n"

    def test_writer_matches_loop_oracle(self):
        rng = np.random.default_rng(41)
        for n in (0, 1, 5, 500):
            for make in (random_trajectory, awkward_trajectory):
                traj = make(rng, n)
                assert write_trajectory_tum(traj) == write_tum_loop_oracle(traj)
        odd = Trajectory.from_arrays([[-0.0, 5e-324, -1.7976931348623157e308]],
                                     [[-0.0, 0.5, -0.5, 0.5]], [-1e-300])
        assert write_trajectory_tum(odd) == write_tum_loop_oracle(odd)

    def test_reader_matches_loop_oracle(self):
        rng = np.random.default_rng(42)
        for n in (0, 1, 5, 500):
            for _ in range(5):
                text = tum_text(rng, n)
                assert _same_outcome(_outcome(read_trajectory_tum, text),
                                     _outcome(read_tum_loop_oracle, text))

    def test_reader_errors_match_loop_oracle(self):
        rng = np.random.default_rng(43)
        bad_lines = ["1 2 3", "0 0 0 0 0 0 0 1 9", "x 0 0 0 0 0 0 1",
                     "0 0 0 nan 0 0 0 1", "0 0 0 0 0 0 0 inf", "-inf 0 0 0 0 0 0 1",
                     "1e-3 0 0 0 0 0 0 1", "1e9 0 0 0 0 0 0 1",
                     "1e9 0 0 0 0 nan 0 1"]
        for _ in range(300):
            lines = tum_text(rng, 12).splitlines()
            for _ in range(rng.integers(1, 4)):
                lines[rng.integers(len(lines))] = rng.choice(bad_lines)
            text = "\n".join(lines)
            got = _outcome(read_trajectory_tum, text)
            assert _same_outcome(got, _outcome(read_tum_loop_oracle, text))

    @pytest.mark.parametrize("bad, message", [
        ("1 0 0 0 0 0 0 0", "zero quaternion"),
        ("1 0 0 0 1e-200 0 0 0", "zero quaternion"),
        ("1 0 0 0 0 0 1e200 1e200", "overflows"),
        ("1 0 0 0 1e308 1e308 1e308 1e308", "overflows"),
    ])
    def test_bad_quaternion_parse_error_with_line(self, bad, message):
        with pytest.raises(ParseError, match=message) as exc:
            read_trajectory_tum(f"0 0 0 0 0 0 0 1\n# x\n{bad}\n")
        assert exc.value.line == 3

    @pytest.mark.parametrize("bad", [
        "1_0 0 0 0 0 0 0 1", "1 0 0 0 0 0 0 1_0", "1 0 0 0 0 0 0 1.0_0",
        "\u0661 0 0 0 0 0 0 1", "1 0 0 0 0 0 0 \uff11", "1 0 0\u00a00 0 0 0 1"],
        ids=["underscore-ts", "underscore-qw", "underscore-fraction",
             "arabic-digit", "fullwidth-digit", "nbsp"])
    def test_only_decimal_numbers(self, bad):
        # Python's float reads `1_0` as 10 and non-ASCII digits as digits
        with pytest.raises(ParseError, match="non-numeric field") as exc:
            read_trajectory_tum(f"# a_b \u00e9\n0 0 0 0 0 0 0 1\n{bad}\n")
        assert exc.value.line == 3

    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
    def test_lines_end_only_at_newline_or_return(self, sep):
        # str.splitlines also ends a line at each of these
        text = f"0 0 0 0 0 0 0 1{sep}1 0 0 0 0 0 0 1{sep}2 0 0 0 0 0 0 1"
        with pytest.raises(ParseError) as exc:
            read_trajectory_tum(text)
        assert exc.value.line == 1
        with pytest.raises(ParseError, match="non-numeric field") as exc:
            read_trajectory_tum(f"# a{sep}# b\nx 0 0 0 0 0 0 1\n")
        assert exc.value.line == 2

    def test_newline_return_and_crlf_end_lines(self):
        text = "0 0 0 0 0 0 0 1\r1 0 0 0 0 0 0 1\r\n2 0 0 0 0 0 0 1\n"
        assert list(read_trajectory_tum(text).ts) == [0.0, 1.0, 2.0]
        with pytest.raises(ParseError) as exc:
            read_trajectory_tum(text + "\r\nx\n")
        assert exc.value.line == 5

    @pytest.mark.parametrize("sep", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_fields_split_on_ascii_whitespace_only(self, sep):
        # str.split also splits on these; bytes.split does not
        with pytest.raises(ParseError, match="non-numeric field") as exc:
            read_trajectory_tum(f"# c\n0 0 0{sep}0 0 0 0 1\n")
        assert exc.value.line == 2
        traj = read_trajectory_tum("0\x0b0\x0c0 0 0 0 0\t1\n")
        assert list(traj.ts) == [0.0]

    @FUZZ
    @given(TUM_TEXT)
    def test_any_text_gives_trajectory_or_parse_error(self, text):
        try:
            traj = read_trajectory_tum(text)
        except ParseError:
            return
        assert np.isfinite(traj.t).all()
        norms = np.linalg.norm(traj.q, axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-12)

    @FUZZ
    @given(TUM_TEXT)
    # a timestamp out of order in the first block of 2 lines, a non-numeric
    # line in the second: the order error comes first
    @example("1 0 0 0 0 0 0 1\n0 0 0 0 0 0 0 1\nx\n")
    def test_block_size_changes_no_outcome(self, text):
        outcomes = []
        for block in (1, 2, 4096):
            with mock.patch.object(io_formats, "_PLY_BLOCK_LINES", block):
                outcomes.append(_outcome(read_trajectory_tum, text))
        assert _same_outcome(outcomes[0], outcomes[1])
        assert _same_outcome(outcomes[0], outcomes[2])

    @FUZZ
    @given(st.lists(
        st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                  st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=3, max_size=3),
                  # unit quaternions whose normalization is exact
                  st.sampled_from([v for row in np.eye(4) for v in (row, -row)]
                                  + [np.array(s) - 0.5
                                     for s in np.ndindex(2, 2, 2, 2)])),
        unique_by=lambda pose: pose[0], max_size=20))
    def test_write_read_round_trip_bit_for_bit(self, poses):
        poses.sort(key=lambda pose: pose[0])
        traj = Trajectory.from_arrays([p[1] for p in poses],
                                      [p[2] for p in poses],
                                      [p[0] for p in poses])
        back = read_trajectory_tum(write_trajectory_tum(traj))
        for a, b in ((traj.t, back.t), (traj.q, back.q), (traj.ts, back.ts)):
            assert a.tobytes() == b.tobytes()


def pnm_header_tokens_oracle(data: bytes, count: int) -> tuple[list[bytes], int]:
    """Read `count` whitespace/comment-separated header tokens; return them
    and the offset one byte past the final token's trailing whitespace."""
    tokens = []
    i = 0
    while len(tokens) < count:
        if i >= len(data):
            raise ParseError("truncated header")
        c = data[i:i + 1]
        if c.isspace():
            i += 1
        elif c == b"#":
            while i < len(data) and data[i:i + 1] not in (b"\n", b"\r"):
                i += 1
        else:
            j = i
            while j < len(data) and not data[j:j + 1].isspace():
                j += 1
            tokens.append(data[i:j])
            i = j
    # single whitespace byte after the last header token
    if i < len(data) and data[i:i + 1].isspace():
        i += 1
    return tokens, i


def _header_outcome(read, data):
    """read(data) as (tokens, offset), or the parse error text."""
    try:
        tokens, offset = read(data)
    except ParseError as exc:
        return str(exc)
    return list(tokens), offset


def _same_header(body):
    """The pattern and the loop oracle agree on a P5 header `body`; the
    oracle reads the bytes after the magic, so its offset is 2 short."""
    got = _header_outcome(_pnm_header, b"P5" + body)
    want = _header_outcome(lambda d: pnm_header_tokens_oracle(d, 3), body)
    if isinstance(want, tuple):
        want = want[0], want[1] + 2
    return got == want


_HEADER_BYTES = st.one_of(
    st.sampled_from([bytes([c]) for c in b" \t\n\r\x0b\x0c"]),
    st.just(b"#"),
    st.sampled_from([c.encode() for c in string.digits]),
    st.sampled_from([c.encode() for c in string.ascii_letters]),
    st.sampled_from([b"-", b"\x00", b"\x1c", b"\xff"]))


class TestPnmHeader:
    @settings(FUZZ, max_examples=500)
    @given(st.lists(_HEADER_BYTES, max_size=16).map(b"".join))
    def test_pattern_matches_loop_oracle(self, body):
        assert _same_header(body)

    @pytest.mark.parametrize("body", [
        b"# #-\x0c1", b"#\n1 2 3", b"#x\r1 2 3", b"1#2 3\r#x\n4\n\n", b"1 2 3",
        b"1 2", b"1 2 #3", b"\x1c1 2 3 x", b"1\x0b2\x0c3\r\n"])
    def test_edge_cases_match_loop_oracle(self, body):
        assert _same_header(body)


class TestPgm:
    def test_p2_single_pixel(self):
        img = read_pgm(b"P2\n1 1\n255\n255\n")
        assert img.pixels[0, 0] == 1.0

    def test_p5_quarters(self):
        data = b"P5\n2 2\n255\n" + bytes([0, 85, 170, 255])
        img = read_pgm(data)
        assert np.allclose(img.pixels.ravel(), [0, 85 / 255, 170 / 255, 1.0],
                           atol=1e-9)

    def test_p6_rejected(self):
        with pytest.raises(UnsupportedMagic):
            read_pgm(b"P6\n1 1\n255\nxxx")

    @pytest.mark.parametrize("data", [b"", b"P"])
    def test_short_payload_unsupported_magic(self, data):
        with pytest.raises(UnsupportedMagic, match="unsupported magic"):
            read_pgm(data)

    def test_sixteen_bit(self):
        data = b"P5\n1 1\n65535\n" + (30000).to_bytes(2, "big")
        img = read_pgm(data)
        assert img.pixels[0, 0] == pytest.approx(30000 / 65535)

    def test_comment_in_header(self):
        img = read_pgm(b"P2\n# a comment\n1 1\n255\n128\n")
        assert img.pixels[0, 0] == pytest.approx(128 / 255)

    def test_truncated_payload(self):
        with pytest.raises(ParseError):
            read_pgm(b"P5\n2 2\n255\n" + bytes([0, 1]))

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            read_pgm(b"P5\n1 1\n255\n" + bytes([0, 99]))

    @pytest.mark.parametrize("payload", [b"1 \xff", b"\xc3\xa9 1", b"1 2\x80"],
                             ids=["ff", "utf-8", "80"])
    def test_p2_non_ascii_payload(self, payload):
        with pytest.raises(ParseError, match="non-ASCII"):
            read_pgm(b"P2\n2 1\n255\n" + payload)

    @pytest.mark.parametrize("payload", [b"-3 4", b"4 -1", b"-255 -255"],
                             ids=["first", "last", "both"])
    def test_p2_negative_sample(self, payload):
        with pytest.raises(ParseError, match="negative PGM sample"):
            read_pgm(b"P2\n2 1\n255\n" + payload)

    @pytest.mark.parametrize("header", [
        b"+2 1\n255", b"2 +1\n255", b"2 1\n+255", b"1_0 1\n255",
        b"2 1\n2_55", b"-2 1\n255", b"2 1\n0x1f", b"2 1\n\xd9\xa3",
        LONG + b" 1\n255", b"2 1\n" + LONG],
        ids=["plus-width", "plus-height", "plus-maxval", "underscore-width",
             "underscore-maxval", "minus-width", "hex-maxval", "arabic-digit",
             "long-width", "long-maxval"])
    @pytest.mark.parametrize("magic", [b"P2", b"P5"])
    def test_header_fields_are_decimal_digits(self, magic, header):
        with pytest.raises(ParseError, match="non-integer PGM header field"):
            read_pgm(magic + b"\n" + header + b"\n" + b"1 2\n")

    @pytest.mark.parametrize("payload", [
        b"1_0 3", b"+3 4", b"4 +0", b"-1_0 3", b"3 --3", b"3 -+3", b"3 3-",
        b"3 -", b"0x1 2", pytest.param(b"3 " + LONG, id="long"),
        pytest.param(b"-" + LONG + b" 3", id="long-negative")])
    def test_p2_samples_are_decimal_digits(self, payload):
        with pytest.raises(ParseError, match="non-integer PGM sample"):
            read_pgm(b"P2\n2 1\n255\n" + payload + b"\n")

    @pytest.mark.parametrize("sep", [b"\x1c", b"\x1d", b"\x1e", b"\x1f"])
    def test_p2_samples_split_on_ascii_whitespace_only(self, sep):
        # str.split would split on these bytes; the header treats them as
        # part of a token, and so does the payload
        with pytest.raises(ParseError, match="expected 2 samples, got 1"):
            read_pgm(b"P2\n2 1\n255\n1" + sep + b"2")
        with pytest.raises(ParseError, match="non-integer PGM sample"):
            read_pgm(b"P2\n1 1\n255\n1" + sep + b"2\n")

    def test_p2_minus_zero_is_zero(self):
        assert read_pgm(b"P2\n2 1\n255\n-0 255\n").pixels.tolist() == [[0.0, 1.0]]

    @pytest.mark.parametrize("sample, message", [
        (b"9" * 400, "sample exceeds maxval"),
        (b"-" + b"9" * 400, "negative PGM sample")], ids=["big", "negative"])
    def test_p2_sample_past_float_range(self, sample, message):
        # a sample is read as an int: as a float, 400 digits overflowed
        with pytest.raises(ParseError, match=message):
            read_pgm(b"P2\n2 1\n255\n3 " + sample + b"\n")
        assert read_pgm(b"P2\n1 1\n255\n" + b"0" * 400).pixels[0, 0] == 0.0

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        img = GrayImage(rng.integers(0, 256, size=(5, 7)) / 255.0)
        back = read_pgm(write_pgm(img))
        assert np.max(np.abs(back.pixels - img.pixels)) < 1e-12

    def test_sixteen_bit_round_trip(self):
        rng = np.random.default_rng(2)
        img = GrayImage(rng.integers(0, 65536, size=(5, 7)) / 65535.0)
        back = read_pgm(write_pgm(img, maxval=65535))
        assert np.max(np.abs(back.pixels - img.pixels)) < 1e-12


def read_pfm_serial_oracle(data: bytes, height: int, width: int,
                           endian: str) -> DepthMap:
    """The PFM payload cast, flipped and masked in one pass each: the code
    before the rows were split between the caller and the worker thread."""
    depths = np.frombuffer(data[-4 * height * width:],
                           dtype=endian + "f4").astype(float)
    depths = depths.reshape(height, width)[::-1]
    valid = np.isfinite(depths) & (depths > 0)
    return DepthMap(np.where(valid, depths, 0.0), valid)


class TestPfmSplit:
    """The rows split in halves between the caller and the worker thread
    against the serial reader, bit for bit."""

    @pytest.mark.parametrize("height", [1, 2, 37, _SPLIT_ROWS - 1, _SPLIT_ROWS,
                                        _SPLIT_ROWS + 1, 384])
    @pytest.mark.parametrize("endian", ["<", ">"])
    def test_bit_identical(self, monkeypatch, height, endian):
        monkeypatch.setattr("streamstab.geometry._THREADS", 2)
        rng = np.random.default_rng(height)
        width = 23
        values = rng.uniform(-1.0, 5.0, (height, width)).astype(np.float32)
        for i, x in enumerate([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-45,
                               3.4e38]):
            values.flat[(7 * i + height // 2 * width) % values.size] = x
        scale = b"-1.0" if endian == "<" else b"1.0"
        data = (b"Pf\n%d %d\n%s\n" % (width, height, scale)
                + values.astype(endian + "f4").tobytes())
        got = read_pfm(data)
        want = read_pfm_serial_oracle(data, height, width, endian)
        assert got.depths.tobytes() == want.depths.tobytes()
        assert np.array_equal(got.valid, want.valid)


class TestPfm:
    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            depths = rng.uniform(0.5, 10.0, size=(6, 9)).astype(np.float32)
            valid = rng.uniform(size=depths.shape) > 0.3
            dm = DepthMap(np.where(valid, depths, 0.0).astype(float), valid)
            back = read_pfm(write_pfm(dm))
            assert np.array_equal(back.valid, valid)
            assert np.array_equal(back.depths[valid],
                                  depths.astype(float)[valid])

    def test_nan_becomes_invalid(self):
        depths = np.array([[1.0, float("nan")], [2.0, -3.0]], dtype="<f4")
        data = b"Pf\n2 2\n-1.0\n" + depths[::-1].tobytes()
        dm = read_pfm(data)
        assert dm.valid.tolist() == [[True, False], [True, False]]

    def test_color_pf_rejected(self):
        with pytest.raises(UnsupportedMagic):
            read_pfm(b"PF\n1 1\n-1.0\n" + b"\0" * 12)

    def test_big_endian_scale(self):
        payload = np.array([[2.5]], dtype=">f4").tobytes()
        dm = read_pfm(b"Pf\n1 1\n1.0\n" + payload)
        assert dm.depths[0, 0] == 2.5

    def test_trailing_garbage(self):
        payload = np.array([[2.5]], dtype="<f4").tobytes()
        with pytest.raises(ParseError):
            read_pfm(b"Pf\n1 1\n-1.0\n" + payload + b"x")

    def test_truncated(self):
        with pytest.raises(ParseError):
            read_pfm(b"Pf\n4 4\n-1.0\n" + b"\0" * 8)

    @pytest.mark.parametrize("magic", [b"PF", b"P5", b"pf", b"P", b""])
    def test_magic_checked_before_header(self, magic):
        with pytest.raises(UnsupportedMagic):
            read_pfm(magic + b"\n1")

    @pytest.mark.parametrize("size", [b"+1 1", b"1 +1", b"1_0 1", b"1 0x1",
                                      b"-1 1", b"1.0 1", LONG + b" 1",
                                      b"1 " + LONG],
                             ids=["plus-width", "plus-height", "underscore",
                                  "hex", "minus", "float", "long-width",
                                  "long-height"])
    def test_size_fields_are_decimal_digits(self, size):
        payload = np.array([[2.5]], dtype="<f4").tobytes()
        with pytest.raises(ParseError, match="invalid PFM header field"):
            read_pfm(b"Pf\n" + size + b"\n-1.0\n" + payload)

    @pytest.mark.parametrize("scale", [b"-1_0", b"1_0", b"-1.0_0", b"-1e0_0"])
    def test_underscore_scale_rejected(self, scale):
        payload = np.array([[2.5]], dtype="<f4").tobytes()
        with pytest.raises(ParseError, match="invalid PFM header field"):
            read_pfm(b"Pf\n1 1\n" + scale + b"\n" + payload)

    @pytest.mark.parametrize("scale", [b"nan", b"-nan", b"inf", b"-inf",
                                       b"1e999", b"0"])
    def test_non_finite_or_zero_scale_rejected(self, scale):
        payload = np.array([[2.5]], dtype="<f4").tobytes()
        with pytest.raises(ParseError, match="invalid PFM dimensions or scale"):
            read_pfm(b"Pf\n1 1\n" + scale + b"\n" + payload)

    @pytest.mark.parametrize("depths", [
        [[1e39, 2.0], [1e-50, 3.0]], [[1e39, 2.0], [1.0, 3.0]],
        [[1.0, 2.0], [1e-50, 3.0]]], ids=["both", "overflow", "underflow"])
    def test_depth_float32_cannot_hold_rejected(self, depths):
        # float32 would hold inf or 0, which read back as invalid pixels
        dm = DepthMap.from_depths(depths)
        with pytest.raises(InvalidValue, match="finite positive float32"):
            write_pfm(dm)

    def test_float32_extremes_round_trip(self):
        f32 = np.finfo(np.float32)
        depths = np.array([[float(f32.max), 2.0],
                           [float(f32.smallest_subnormal), 3.0]])
        back = read_pfm(write_pfm(DepthMap.from_depths(depths)))
        assert back.valid.all()
        assert np.array_equal(back.depths, depths)


# header tokens: PGM/PFM sizes, then maxvals and PFM scales, valid and not
_PNM_SIZES = [b"1", b"2", b"3", b"0", b"-1", b"+2", b"1_0", b"1.0",
              b"\xd9\xa3", b"9" * 400, LONG]
_PNM_THIRDS = [b"255", b"65535", b"-1.0", b"1.0", b"256", b"65536", b"0",
               b"nan", b"1e999", b"1_0", LONG]
_P2_SAMPLES = [b"0", b"-0", b"7", b"255", b"256", b"-3", b"+3", b"1_0",
               b"--3", b"-", b"\xff", b"9" * 400, LONG]


@st.composite
def pnm_payloads(draw):
    """Any bytes, or a PGM or PFM whose magic, header tokens and payload
    length are drawn from valid and malformed pieces."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=80))
    magic = draw(st.sampled_from([b"P2", b"P5", b"Pf", b"PF", b"P6", b"P",
                                  b""]))
    tokens = [draw(st.sampled_from(_PNM_SIZES)),
              draw(st.sampled_from(_PNM_SIZES)),
              draw(st.sampled_from(_PNM_THIRDS))]
    tokens = tokens[:draw(st.sampled_from([3, 3, 3, 2]))]
    sep = st.sampled_from([b" ", b"\n", b"\n# c\n"])
    head = magic + draw(sep) + draw(sep).join(tokens) + draw(
        st.sampled_from([b"\n", b" ", b"", b"\n\n"]))
    # the sample count that small digit sizes give, else 2
    n = math.prod(int(t) if t in (b"1", b"2", b"3") else 2 for t in tokens[:2])
    if magic == b"P2":
        samples = st.one_of(st.sampled_from([b"0", b"-0", b"7", b"255"]),
                            st.sampled_from(_P2_SAMPLES))
        return head + b" ".join(draw(st.lists(samples, min_size=n - 1,
                                              max_size=n + 1)))
    size = max(0, n * draw(st.sampled_from([1, 2, 4]))
               + draw(st.sampled_from([0, 0, 1, -1])))
    return head + draw(st.binary(min_size=size, max_size=size))


class TestPnmReaders:
    @FUZZ
    @given(pnm_payloads())
    @example(b"P5\n" + LONG + b" 1\n255\n\x00")
    @example(b"P5\n1 1\n" + LONG + b"\n\x00")
    @example(b"P2\n1 1\n255\n" + LONG + b"\n")
    @example(b"Pf\n" + LONG + b" 1\n-1.0\n" + bytes(4))
    def test_any_bytes_give_value_or_parse_error(self, data):
        try:
            pixels = read_pgm(data).pixels
        except ParseError:
            pass
        else:
            assert ((pixels >= 0) & (pixels <= 1)).all()
        try:
            dm = read_pfm(data)
        except ParseError:
            pass
        else:
            assert np.array_equal(dm.valid, dm.depths > 0)
            assert np.isfinite(dm.depths).all()


_PLY_FIELDS = [b"0", b"1", b"-2.5", b"0.5", b"1e300", b"1e999", b"nan",
               b"-inf", b"1_0", b"z", b"\x1c", b"\x0b", b""]
_PLY_HEAD_LINES = [b"format ascii 1.0", b"format binary_little_endian 1.0",
                   b"format", b"element vertex 2", b"element vertex",
                   b"element vertex 99999999999999999999", b"element face 1",
                   b"property float x", b"property float confidence",
                   b"property", b"comment a_b", b"end_header", b""]


@st.composite
def ply_payloads(draw):
    """Any bytes, or a PLY file whose header, body and line ends are
    drawn from valid and malformed pieces."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=80))
    extra = draw(st.lists(st.sampled_from(["confidence", "w", "x"]),
                          max_size=2))
    props = draw(st.permutations(["x", "y", "z", *extra]))
    props = props[draw(st.sampled_from([0, 0, 0, 1])):]
    numbers = st.lists(st.sampled_from(_PLY_FIELDS[:5]), min_size=len(props),
                       max_size=len(props))
    body = draw(st.lists(st.one_of(
        numbers, numbers, st.lists(st.sampled_from(_PLY_FIELDS), max_size=5)),
        max_size=5))
    count = sum(map(any, body)) + draw(st.sampled_from([0, 0, 0, 1, -1]))
    head = [b"ply", b"format ascii 1.0", b"element vertex %d" % max(count, 0)]
    head += [b"property float " + name.encode() for name in props]
    head += draw(st.lists(st.sampled_from(_PLY_HEAD_LINES), max_size=2))
    eol = draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    lines = head + [b"end_header"] + [b" ".join(fields) for fields in body]
    return eol.join(lines) + draw(st.sampled_from([eol, b""]))


def read_ply_outcome(data):
    """The cloud's bytes, or the type and message of its error."""
    try:
        cloud = read_ply_ascii(data)
    except ParseError as exc:
        return type(exc), str(exc)
    except InvalidValue as exc:  # a confidence that is not positive: exit 3
        assert str(exc).startswith("confidences must be")
        return type(exc), str(exc)
    assert np.isfinite(cloud.points).all()
    conf = cloud.confidences
    return cloud.points.tobytes(), None if conf is None else conf.tobytes()


def memory_cloud(with_conf):
    rng = np.random.default_rng(8)
    return PointSet(rng.standard_normal((50_000, 3)),
                    rng.uniform(0.1, 2.0, 50_000) if with_conf else None)


class TestPly:
    @FUZZ
    @given(ply_payloads())
    @example(b"ply\nformat ascii 1.0\nelement vertex " + LONG + b"\n"
             b"property float x\nproperty float y\nproperty float z\n"
             b"end_header\n1 2 3\n")
    def test_any_bytes_give_cloud_or_parse_error(self, data):
        read_ply_outcome(data)

    @settings(FUZZ, max_examples=150)
    @given(ply_payloads())
    def test_block_size_changes_no_outcome(self, data):
        outcomes = []
        for block in (1, 2, 4096):
            with mock.patch.object(io_formats, "_PLY_BLOCK_LINES", block):
                outcomes.append(read_ply_outcome(data))
        assert outcomes[0] == outcomes[1] == outcomes[2]

    @pytest.mark.parametrize("with_conf", [False, True],
                             ids=["xyz", "confidence"])
    def test_reader_holds_table_and_one_block(self, with_conf):
        # no list of every line and no copy of the payload: about 3-4 MB here
        data = write_ply_ascii(memory_cloud(with_conf))
        tracemalloc.start()
        try:
            cloud = read_ply_ascii(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = cloud.points.nbytes + (cloud.confidences.nbytes if with_conf
                                       else 0)
        assert peak <= table + 4 * 2**20

    @pytest.mark.parametrize("with_conf", [False, True],
                             ids=["xyz", "confidence"])
    def test_writer_holds_output_and_one_block(self, with_conf):
        cloud = memory_cloud(with_conf)
        tracemalloc.start()
        try:
            data = write_ply_ascii(cloud)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * len(data)

    def test_single_point_round_trip(self):
        cloud = PointSet(np.array([[1.0, 2.0, 3.0]]))
        back = read_ply_ascii(write_ply_ascii(cloud))
        assert np.array_equal(back.points, cloud.points)
        assert back.confidences is None

    def test_large_round_trip_with_confidence(self):
        rng = np.random.default_rng(3)
        cloud = PointSet(rng.standard_normal((1000, 3)),
                         rng.uniform(0.1, 2.0, size=1000))
        back = read_ply_ascii(write_ply_ascii(cloud))
        assert np.array_equal(back.points, cloud.points)
        assert np.array_equal(back.confidences, cloud.confidences)

    def test_writer_matches_per_value_format(self):
        rng = np.random.default_rng(4)
        points = rng.standard_normal((50, 3)) * 10.0 ** rng.integers(-5, 5, (50, 3))
        points[3] = [-0.0, 0.0, 1e300]
        conf = rng.uniform(0.1, 2.0, size=50)
        lines = ["ply", "format ascii 1.0", "element vertex 50",
                 "property double x", "property double y", "property double z",
                 "property double confidence", "end_header"]
        lines += [" ".join("%.17g" % v for v in (*p, c))
                  for p, c in zip(points, conf)]
        expected = ("\n".join(lines) + "\n").encode("ascii")
        assert write_ply_ascii(PointSet(points, conf)) == expected

    def test_writer_blocks_match_one_block(self, monkeypatch):
        rng = np.random.default_rng(6)
        cloud = PointSet(rng.standard_normal((23, 3)),
                         rng.uniform(0.1, 2.0, size=23))
        whole = write_ply_ascii(cloud)
        for block in (1, 5, 23):
            monkeypatch.setattr("streamstab.io_formats._PLY_BLOCK_LINES", block)
            assert write_ply_ascii(cloud) == whole

    @pytest.mark.parametrize("count", [b"1_0", b"+10", b"0x0a", b"10.0",
                                       b"-10", b"",
                                       pytest.param(LONG, id="long")])
    def test_vertex_count_is_decimal_digits(self, count):
        # Python's int reads `1_0` and `+10` as 10; the count is ASCII
        # digits, as the PNM header integers are
        data = (b"ply\nformat ascii 1.0\nelement vertex " + count
                + b"\nproperty float x\nproperty float y\nproperty float z\n"
                b"end_header\n" + b"1 2 3\n" * 10)
        with pytest.raises(ParseError,
                           match="line 3: element vertex needs an integer count"):
            read_ply_ascii(data)
        good = data.replace(b"vertex " + count + b"\n", b"vertex 10\n")
        assert len(read_ply_ascii(good)) == 10

    def test_empty_cloud_header_only(self):
        data = write_ply_ascii(PointSet(np.zeros((0, 3))))
        assert data.endswith(b"element vertex 0\nproperty double x\n"
                             b"property double y\nproperty double z\n"
                             b"end_header\n")

    def test_blocks_and_blank_lines_round_trip(self, monkeypatch):
        monkeypatch.setattr("streamstab.io_formats._PLY_BLOCK_LINES", 3)
        rng = np.random.default_rng(5)
        cloud = PointSet(rng.standard_normal((20, 3)),
                         rng.uniform(0.1, 2.0, size=20))
        header, body = write_ply_ascii(cloud).split(b"end_header\n")
        lines = body.splitlines()
        spaced = b"\n".join(lines[:4] + [b"", b"  "] + lines[4:11] + [b""]
                            + lines[11:])
        back = read_ply_ascii(header + b"end_header\n" + spaced + b"\n\n")
        assert np.array_equal(back.points, cloud.points)
        assert np.array_equal(back.confidences, cloud.confidences)

    @pytest.mark.parametrize("header, message", [
        (b"element vertex 1\nproperty float x\nproperty float y\n"
         b"property float z\n", "missing end_header"),
        (b"property float x\nend_header\n", "missing vertex element"),
        (b"element face 1\nproperty float x\nend_header\n",
         "missing vertex element"),
    ], ids=["no-end-header", "no-element", "face-only"])
    def test_incomplete_header_rejected(self, header, message):
        with pytest.raises(ParseError, match=f"^{message}$"):
            read_ply_ascii(b"ply\nformat ascii 1.0\n" + header + b"1 2 3\n")

    def test_missing_z_rejected(self):
        data = (b"ply\nformat ascii 1.0\nelement vertex 1\n"
                b"property float x\nproperty float y\nend_header\n1 2\n")
        with pytest.raises(MissingProperty):
            read_ply_ascii(data)

    def test_wrong_vertex_count(self):
        data = (b"ply\nformat ascii 1.0\nelement vertex 2\n"
                b"property float x\nproperty float y\nproperty float z\n"
                b"end_header\n1 2 3\n")
        with pytest.raises(ParseError):
            read_ply_ascii(data)

    def test_bad_magic(self):
        with pytest.raises(UnsupportedMagic):
            read_ply_ascii(b"not a ply\n")

    @pytest.mark.parametrize("body, message, line", [
        (b"1 2 3\n4 5 6 7\n8 9\n", "wrong number of vertex fields", 9),
        (b"1 2 3 0\n4 5 6 0\n7 8 9 0\n", "wrong number of vertex fields", 8),
        (b"1 2 3\n4 5 6\n7 8 z\n", "non-numeric vertex field", 10),
        (b"1 2 3\nnan 5 6\n7 8 9\n", "non-finite vertex value", 9),
        (b"1 2 3\n4 inf 6\n7 8 9\n", "non-finite vertex value", 9),
        (b"1 2 3\n4 5 6\n7 8 -inf\n", "non-finite vertex value", 10),
        (b"1 2 1e999\n4 5 6\n7 8 9\n", "non-finite vertex value", 8),
        (b"1 2 3\n4 nan 6\n7 8\n", "non-finite vertex value", 9),
        (b"\n1 2 3\n\n4 5 x\n7 8 9\n", "non-numeric vertex field", 11),
    ], ids=["ragged", "extra-field", "non-numeric", "nan", "inf", "-inf",
            "overflow", "first-bad-line-wins", "blank-lines-counted"])
    @pytest.mark.parametrize("block", [4096, 2])
    def test_bad_vertex_line_named(self, monkeypatch, body, message, line,
                                   block):
        monkeypatch.setattr("streamstab.io_formats._PLY_BLOCK_LINES", block)
        data = (b"ply\nformat ascii 1.0\nelement vertex 3\n"
                b"property float x\nproperty float y\nproperty float z\n"
                b"end_header\n" + body)
        with pytest.raises(ParseError, match=f"line {line}: {message}"):
            read_ply_ascii(data)

    @pytest.mark.parametrize("count, body, message", [
        (2, b"1 2 3\x0b4 5 6\n", "expected 2 vertex lines, got 1"),
        (1, b"1 2 3\x0b4 5 6\n", "line 8: wrong number of vertex fields"),
        (2, b"1 2 3\x0c4 5 6\n", "expected 2 vertex lines, got 1"),
        (2, b"1 2 3\x1e4 5 6\n", "expected 2 vertex lines, got 1"),
        (1, b"1 2\x1c3\n", "line 8: wrong number of vertex fields"),
        (1, b"1 2 3\x1f\n", "line 8: non-numeric vertex field"),
        (2, b"1 2 3\n4\x1d5 6 7\n", "line 9: non-numeric vertex field"),
    ], ids=["vt-two-rows", "vt-one-row", "ff-two-rows", "rs-two-rows",
            "fs-in-field", "us-trailing", "gs-in-field"])
    @pytest.mark.parametrize("block", [4096, 2])
    def test_lines_and_fields_split_as_bytes(self, monkeypatch, count, body,
                                             message, block):
        # str.splitlines ends lines at \x0b, \x0c and \x1c-\x1e, and str.split
        # splits fields at \x1c-\x1f; each body here once read without error
        monkeypatch.setattr("streamstab.io_formats._PLY_BLOCK_LINES", block)
        data = (b"ply\nformat ascii 1.0\nelement vertex %d\n" % count
                + b"property float x\nproperty float y\nproperty float z\n"
                b"end_header\n" + body)
        with pytest.raises(ParseError, match=message):
            read_ply_ascii(data)

    @pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"])
    def test_newline_return_and_crlf_end_lines(self, eol):
        cloud = PointSet(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        data = write_ply_ascii(cloud).replace(b"\n", eol)
        assert np.array_equal(read_ply_ascii(data).points, cloud.points)
        bad = data.replace(b"4 5 6", b"4 5 x")
        with pytest.raises(ParseError,
                           match="line 9: non-numeric vertex field"):
            read_ply_ascii(bad)

    @pytest.mark.parametrize("body, line", [
        (b"1 2 3\n1_0 5 6\n7 8 9\n", 10),
        (b"1 2 3\n4 5 6\n7 8 9.0_1\n", 11),
        (b"1_0 2 3\n4 5 6 7\n7 8 9\n", 9),
    ], ids=["middle", "last", "first-bad-line-wins"])
    @pytest.mark.parametrize("block", [4096, 2])
    def test_underscore_is_non_numeric(self, monkeypatch, body, line, block):
        # np.array(rows, dtype=float) reads `1_0` as 10, as Python's float
        # does; a `_` in the header is no vertex field
        monkeypatch.setattr("streamstab.io_formats._PLY_BLOCK_LINES", block)
        header = (b"ply\nformat ascii 1.0\ncomment a_b\nelement vertex 3\n"
                  b"property float x\nproperty float y\nproperty float z\n"
                  b"end_header\n")
        assert len(read_ply_ascii(header + b"1 2 3\n4 5 6\n7 8 9\n")) == 3
        with pytest.raises(ParseError,
                           match=f"line {line}: non-numeric vertex field"):
            read_ply_ascii(header + body)
