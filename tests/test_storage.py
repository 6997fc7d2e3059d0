import hashlib
import json
import re
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavecap import storage
from wavecap.chain import ChainSpec, RegisterSpec
from wavecap.storage import (
    CorruptFileError,
    HashMismatchError,
    StorageError,
    VersionSkewError,
    _frames_csv,
    _parse_frames_csv,
    _times_csv,
    bit_lines,
    config_to_specs,
    load_dataset,
    parse_config_text,
    save_dataset,
    spec_to_config,
    take,
    write_pgm,
)
from wavecap.sweep import SweepDataset, SweepSpec, run_continuous, run_sweep
from wavecap.units import WavecapError
from wavecap.waveform import PllOutputSpec, make_pll_output


@pytest.fixture()
def small_dataset():
    spec = SweepSpec(
        PllOutputSpec(600e6, 0.5, seed=3),
        400.0,
        10.0,
        16,
        crystal_jitter_sigma_ps=5.0,
        seed=2,
    )
    chain = ChainSpec(96, 4.91, 4.54, tau_sigma_ps=0.05, seed=8)
    return run_sweep(spec, chain, RegisterSpec(seed=1))


def test_round_trip_sweep(small_dataset, tmp_path):
    save_dataset(small_dataset, tmp_path)
    back = load_dataset(tmp_path)
    assert back.chain_spec == small_dataset.chain_spec
    assert back.reg_spec == small_dataset.reg_spec
    assert back.sweep_spec == small_dataset.sweep_spec
    assert back.n_frames == small_dataset.n_frames
    for name in ("bits", "capture_time_fs"):
        assert np.array_equal(getattr(back, name), getattr(small_dataset, name))


def test_round_trip_continuous(tmp_path):
    w = make_pll_output(PllOutputSpec(600e6, 0.5, seed=4), 20_000)
    chain = ChainSpec(64, 5.0, 5.0)
    ds = run_continuous(w, chain, RegisterSpec(), 320.0, 6, t_start_ps=2_000)
    save_dataset(ds, tmp_path)
    back = load_dataset(tmp_path)
    assert back.sweep_spec is None
    assert back.t_capture_ps == 320.0
    assert np.array_equal(back.bits, ds.bits)


def test_save_without_sweep_or_frame_period_writes_nothing(tmp_path):
    # neither a sweep spec nor t_capture_ps: the config could not be read back
    ds = SweepDataset(np.zeros((1, 16)), [0], ChainSpec(16, 5.0, 5.0), RegisterSpec())
    with pytest.raises(StorageError, match="sweep spec or t_capture_ps"):
        save_dataset(ds, tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_save_is_byte_deterministic(small_dataset, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    save_dataset(small_dataset, a)
    save_dataset(small_dataset, b)
    assert {p.name for p in a.iterdir()} == storage._PAYLOAD_FILES | {"manifest.json"}
    for name in ("spec.config", "frames.csv", "times.csv", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize(
    "key, value",
    [("created_utc", "2021-06-01T00:00:00+00:00"), ("format_version", float("inf"))],
    ids=["created_utc", "format_version-Infinity"],
)
def test_manifest_with_created_utc_still_loads(small_dataset, tmp_path, key, value):
    # keys that older manifests carried are ignored; the format version is
    # read from spec.config alone
    save_dataset(small_dataset, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest[key] = value
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    assert load_dataset(tmp_path).n_frames == small_dataset.n_frames


def test_truncated_frames_csv_names_the_row(small_dataset, tmp_path):
    save_dataset(small_dataset, tmp_path)
    path = tmp_path / "frames.csv"
    lines = path.read_text().splitlines()
    lines[5] = lines[5][: len(lines[5]) // 2]
    path.write_text("\n".join(lines) + "\n")
    # refresh the manifest so the corruption, not the hash, is what trips
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    import hashlib

    manifest["hashes"]["frames.csv"] = hashlib.sha256(path.read_bytes()).hexdigest()
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CorruptFileError, match="row 6"):
        load_dataset(tmp_path)


def test_stale_hash_detected(small_dataset, tmp_path):
    save_dataset(small_dataset, tmp_path)
    cfg = tmp_path / "spec.config"
    cfg.write_text(cfg.read_text().replace("chain.seed = 8", "chain.seed = 9"))
    with pytest.raises(HashMismatchError, match="spec.config"):
        load_dataset(tmp_path)


def test_version_skew_detected(small_dataset, tmp_path):
    save_dataset(small_dataset, tmp_path)
    rewrite_row(tmp_path, "spec.config", 1, lambda ln: "format_version = 99")
    with pytest.raises(VersionSkewError):
        load_dataset(tmp_path)


def test_every_stored_byte_is_read(small_dataset, tmp_path):
    """One byte of frames.csv or times.csv overwritten, a line end included,
    and the manifest rehashed: load_dataset raises or returns different data,
    so no byte of the bits, indices, times or line ends is stored without
    being read or, for an index, checked against its row number.
    spec.config is left out: its key = value grammar strips whitespace
    around each key and value."""
    save_dataset(small_dataset, tmp_path / "saved")
    saved = {path.name: path.read_bytes() for path in (tmp_path / "saved").iterdir()}
    ds = tmp_path / "ds"
    ds.mkdir()

    @settings(max_examples=300, deadline=None, database=None)
    @given(data=st.data())
    def case(data):
        name = data.draw(st.sampled_from(sorted(storage._PAYLOAD_FILES - {"spec.config"})))
        blob = bytearray(saved[name])
        at = data.draw(st.integers(0, len(blob) - 1))
        blob[at] = data.draw(st.integers(0, 255).filter(lambda b: b != blob[at]))
        manifest = json.loads(saved["manifest.json"])
        manifest["hashes"][name] = hashlib.sha256(blob).hexdigest()
        files = {**saved, name: bytes(blob), "manifest.json": json.dumps(manifest).encode()}
        for file, content in files.items():
            (ds / file).write_bytes(content)
        try:
            back = load_dataset(ds)
        except WavecapError:
            return
        assert not all(
            np.array_equal(getattr(back, field), getattr(small_dataset, field))
            for field in ("bits", "capture_time_fs")
        ), (name, at, blob[at])

    case()


def test_missing_file_is_corrupt_error(small_dataset, tmp_path):
    save_dataset(small_dataset, tmp_path)
    (tmp_path / "times.csv").unlink()
    with pytest.raises(CorruptFileError, match="times.csv"):
        load_dataset(tmp_path)


def test_config_round_trip():
    chain = ChainSpec(
        1300,
        4.91,
        4.54,
        tau_sigma_ps=0.02,
        entry_delay_ps=120.0,
        entry_min_pulse_ps=50.0,
        dnl_ramp=(3.0, 2.0, 1.5),
        seed=11,
        allow_inverted=True,
    )
    regs = RegisterSpec(clock_jitter_sigma_ps=1.0, skew_sigma_ps=0.5, seed=7)
    sweep = SweepSpec(
        PllOutputSpec(100e6, 0.25, phase_offset_ps=13.0, seed=2),
        5_000,
        78,
        512,
        relock_dead_cycles=(3, 17),
        crystal_jitter_sigma_ps=30.0,
        seed=5,
    )
    text = spec_to_config(chain, regs, sweep)
    c2, r2, s2, t2 = config_to_specs(parse_config_text(text))
    assert (c2, r2, s2, t2) == (chain, regs, sweep, None)


def test_config_rejects_unknown_keys():
    chain = ChainSpec(16, 5.0, 5.0)
    text = spec_to_config(chain, RegisterSpec(), t_capture_ps=100.0)
    with pytest.raises(CorruptFileError, match="mystery"):
        config_to_specs(parse_config_text(text + "mystery.knob = 3\n"))


def test_config_rejects_missing_and_duplicate_keys():
    chain = ChainSpec(16, 5.0, 5.0)
    text = spec_to_config(chain, RegisterSpec(), t_capture_ps=100.0)
    lines = text.splitlines()
    with pytest.raises(CorruptFileError, match="chain.k"):
        config_to_specs(parse_config_text("\n".join(lines[:1] + lines[2:])))
    with pytest.raises(CorruptFileError, match="duplicate"):
        parse_config_text(text + lines[1] + "\n")


def test_config_comments_and_blanks_ignored():
    kv = parse_config_text("# hello\n\nfoo = 1\n")
    assert kv == {"foo": "1"}


def test_pgm_format(tmp_path):
    m = np.array([[1, 0, 1], [0, 1, 0]], dtype=np.uint8)
    write_pgm(m, tmp_path / "x.pgm")
    data = (tmp_path / "x.pgm").read_bytes()
    assert data.startswith(b"P5\n3 2\n255\n")
    assert data[-6:] == bytes([255, 0, 255, 0, 255, 0])
    with pytest.raises(StorageError, match="expected a frames x taps matrix"):
        write_pgm(m[0], tmp_path / "row.pgm")


# -- bulk frame encoding and parsing against the per-bit code they replaced ---


def per_bit_frames_csv(dataset):
    k = dataset.k
    header = "phase_index," + ",".join(f"bit_{i}" for i in range(1, k + 1))
    rows = [header]
    for idx, bits in enumerate(dataset.bits):
        rows.append(str(idx) + "," + ",".join(str(int(b)) for b in bits))
    return ("\n".join(rows) + "\n").encode()


def per_row_parse(data, k):
    lines = data.decode().splitlines()
    if not lines:
        raise CorruptFileError("frames.csv is empty")
    expected_header = "phase_index," + ",".join(f"bit_{i}" for i in range(1, k + 1))
    if lines[0] != expected_header:
        raise CorruptFileError("frames.csv header does not match the chain length")
    out = []
    for row_no, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != k + 1:
            raise CorruptFileError(
                f"frames.csv row {row_no}: expected {k + 1} cells, got {len(cells)}"
            )
        try:
            idx = int(cells[0])  # an empty cell is malformed too
            if not -(2**63) <= idx < 2**63:
                raise ValueError(f"{cells[0]!r} is outside int64")
            bits = np.array([int(c) for c in cells[1:]], dtype=np.uint8)
        except ValueError as exc:
            raise CorruptFileError(f"frames.csv row {row_no}: {exc}") from exc
        if np.any(bits > 1):
            raise CorruptFileError(f"frames.csv row {row_no}: bits must be 0 or 1")
        out.append((idx, bits))
    indices = np.array([idx for idx, _ in out], dtype=np.int64)
    return indices, np.array([bits for _, bits in out], dtype=np.uint8).reshape(-1, k)


# up to 12 rows, so the index cells cross from one digit to two
frame_sets = st.integers(1, 12).flatmap(
    lambda k: st.lists(st.lists(st.integers(0, 1), min_size=k, max_size=k), min_size=1, max_size=12)
)


def as_dataset(rows):
    chain = ChainSpec(len(rows[0]), 5.0, 5.0)
    return SweepDataset(np.array(rows), np.zeros(len(rows)), chain, RegisterSpec())


@settings(max_examples=200, deadline=None)
@given(rows=frame_sets)
def test_frames_csv_matches_per_bit_encoding(rows):
    ds = as_dataset(rows)
    assert _frames_csv(ds.bits) == per_bit_frames_csv(ds)


INT64 = st.integers(-(2**63), 2**63 - 1)


@st.composite
def frame_payloads(draw):
    """(bits, capture times) of a dataset of 0-110 frames: half the draws end
    within 10 rows past 10 or 100, so the row numbers cross from one index
    width to the next."""
    n = draw(st.one_of(
        st.integers(0, 12),
        st.builds(lambda step, past: step + past, st.sampled_from([10, 100]), st.integers(0, 10)),
    ))
    shape = (n, draw(st.integers(1, 5)))
    bits = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, 2, shape)
    return bits, draw(st.lists(INT64, min_size=n, max_size=n))


@settings(max_examples=500, deadline=None)
@given(payload=frame_payloads())
@example(payload=(np.zeros((0, 3)), []))  # a header-only dataset
@example(payload=(np.ones((1001, 2)), [2**63 - 1] * 1001))  # index widths 1 to 4
def test_payload_blocks_match_per_row_encoding(payload):
    bits, times = payload
    ds = SweepDataset(bits, times, ChainSpec(bits.shape[1], 5.0, 5.0), RegisterSpec())
    assert _frames_csv(ds.bits) == per_bit_frames_csv(ds)
    rows = ["phase_index,capture_time_fs", *(f"{n},{t}" for n, t in enumerate(times))]
    assert _times_csv(ds.capture_time_fs) == ("\n".join(rows) + "\n").encode()


@settings(max_examples=200, deadline=None)
@given(bits=st.lists(st.integers(0, 1), max_size=200))
def test_bit_lines_match_the_per_bit_stitched_text(bits):
    series = np.array(bits, dtype=np.uint8)
    text = "".join(f"{int(b)}\n" for b in series).encode()
    assert bit_lines(series[:, None]).tobytes() == text


@settings(max_examples=1000, deadline=None)
@given(
    rows=frame_sets,
    edits=st.lists(
        st.tuples(
            st.sampled_from(["set", "insert", "delete"]),
            st.floats(0.0, 1.0, exclude_max=True),
            st.sampled_from(list("01,2\n -+x\u00e9\u0663_")),
        ),
        max_size=3,
    ),
)
def test_parse_frames_csv_matches_the_per_row_parser(rows, edits):
    """An edited frames.csv loads exactly when it is the per-bit writing of
    the values the per-row parser reads from it, and then to those values;
    any other text raises CorruptFileError."""
    ds = as_dataset(rows)
    text = per_bit_frames_csv(ds).decode()
    for op, where, char in edits:
        i = int(where * len(text))
        if op == "set":
            text = text[:i] + char + text[i + 1 :]
        elif op == "insert":
            text = text[:i] + char + text[i:]
        else:
            text = text[:i] + text[i + 1 :]
    data = text.encode()
    try:
        indices, bits = per_row_parse(data, ds.k)
        read = SweepDataset(bits, np.zeros(len(indices)), ds.chain_spec, ds.reg_spec)
    except (CorruptFileError, OverflowError):  # OverflowError: a cell outside uint8
        read = None
    # the per-bit writing numbers the rows, so an index other than its row's fails here
    if read is not None and per_bit_frames_csv(read) == data:
        got = _parse_frames_csv(data, ds.k)
        assert got.dtype == np.uint8 and got.tolist() == bits.tolist()
    else:
        with pytest.raises(CorruptFileError):
            _parse_frames_csv(data, ds.k)


def test_frames_csv_is_read_without_copies_of_its_text():
    # fig6's shape: 256 frames of a 1,300-tap chain, with indices of 1-3 digits
    bits = np.random.default_rng(0).integers(0, 2, (256, 1300), dtype=np.uint8)
    data = bytes(_frames_csv(bits))
    tracemalloc.start()
    try:
        with mock.patch.object(storage, "_text", wraps=storage._text) as text:
            back = _parse_frames_csv(data, 1300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text.assert_not_called()
    assert np.array_equal(back, bits)
    assert peak <= len(data) + bits.nbytes + 2**20


def test_a_byte_past_the_first_compared_block_names_its_row():
    # fig6's shape: 256 rows of 2,604 bytes, ten 64 KiB blocks; the last
    # row's last comma is in the last block
    bits = np.random.default_rng(0).integers(0, 2, (256, 1300), dtype=np.uint8)
    data = bytearray(_frames_csv(bits))
    data[-3] = ord(";")
    message = "^frames.csv row 257, byte 2602: b';' where save_dataset writes b','"
    with pytest.raises(CorruptFileError, match=message):
        _parse_frames_csv(bytes(data), 1300)


@pytest.mark.parametrize("bad_row", [None, 3])
@pytest.mark.parametrize("line_end", ["\r\n", "no last newline"])
def test_lines_not_ending_in_newline_are_read_row_by_row(small_dataset, line_end, bad_row):
    # rejected, without decoding the file, at the first row not as written:
    # the header's \r, the last row's missing newline, or row 3's bit 2
    lines = per_bit_frames_csv(small_dataset).decode().splitlines()
    if bad_row is not None:
        lines[bad_row - 1] = lines[bad_row - 1][:-1] + "2"
    if line_end == "\r\n":
        data = ("\r\n".join(lines) + "\r\n").encode()
        message = "frames.csv row 1: header does not match the chain length"
    elif bad_row is None:
        data = "\n".join(lines).encode()
        message = f"frames.csv row {len(lines)}, byte 1: b'{lines[-1][0]}' where save_dataset writes b''"
    else:
        data = "\n".join(lines).encode()
        message = "frames.csv row 3: bits must be 0 or 1"
    with mock.patch.object(storage, "_text", wraps=storage._text) as text:
        with pytest.raises(CorruptFileError) as exc:
            _parse_frames_csv(data, small_dataset.k)
    text.assert_not_called()
    assert str(exc.value).startswith(message)


@pytest.mark.parametrize("char", ["\x00", "\r", "\x0b", "\x0c", "\x1c"])
def test_index_with_a_control_character_reads_as_row_by_row(small_dataset, char):
    # int() skips a trailing \r, \v or \f and numpy strings drop a trailing
    # NUL, so the index may read as 1; it does not write back with the char
    lines = per_bit_frames_csv(small_dataset).decode().splitlines()
    assert lines[2].startswith("1,")
    lines[2] = lines[2].replace(",", char + ",", 1)
    data = ("\n".join(lines) + "\n").encode()
    with pytest.raises(CorruptFileError, match="^frames.csv row 3, byte "):
        _parse_frames_csv(data, small_dataset.k)


@pytest.mark.parametrize("cell", ["-1", "256", "99999999999999999999"])
def test_out_of_range_bit_is_corrupt(small_dataset, tmp_path, cell):
    save_dataset(small_dataset, tmp_path)
    path = tmp_path / "frames.csv"
    lines = path.read_text().splitlines()
    lines[3] = lines[3][: lines[3].rindex(",") + 1] + cell
    path.write_text("\n".join(lines) + "\n")
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["hashes"]["frames.csv"] = hashlib.sha256(path.read_bytes()).hexdigest()
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CorruptFileError, match="row 4: bits must be 0 or 1"):
        load_dataset(tmp_path)


# -- one config reader: every spec written and read from its fields ----------

floats = st.floats(allow_nan=False, allow_infinity=False)
fs_floats = st.floats(-1e300, 1e300)  # a spec time must stay finite in femtoseconds
nonneg = st.floats(0.0, 1e6)
positive = st.floats(1e-3, 1e6)
seeds = st.integers(0, 2**32)


@st.composite
def chain_specs(draw):
    k = draw(st.integers(1, 2000))
    rise, fall = draw(positive), draw(positive)
    # each multiplier keeps the mean element delay >= 1 fs, as ChainSpec requires
    low = max(1e-3, 1 / (1e3 * min(rise, fall)))
    ramp = st.floats(low, 1e6).filter(lambda m: min(rise, fall) * m * 1e3 >= 1)
    return ChainSpec(
        k,
        rise,
        fall,
        tau_sigma_ps=draw(nonneg),
        entry_delay_ps=draw(nonneg),
        entry_min_pulse_ps=draw(nonneg),
        dnl_ramp=draw(st.none() | st.lists(ramp, max_size=min(k, 6)).map(tuple)),
        seed=draw(seeds),
        allow_inverted=draw(st.booleans()) or rise < fall,
    )


reg_specs = st.builds(RegisterSpec, nonneg, nonneg, seeds)


@st.composite
def sweep_specs(draw):
    lo = draw(st.integers(2, 100))
    frequency_hz = draw(positive)
    period = Fraction(10**15) / Fraction(frequency_hz)
    # each level stays over 1 fs wide, as PllOutputSpec requires
    duty = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    source = PllOutputSpec(
        frequency_hz,
        draw(duty.filter(lambda d: 1 < period * Fraction(d) < period - 1)),
        draw(fs_floats),
        draw(nonneg),
        draw(seeds),
    )
    return SweepSpec(
        source,
        draw(fs_floats),
        draw(nonneg),
        draw(st.integers(2, 10**6)),
        (lo, draw(st.integers(lo, 1000))),
        draw(nonneg),
        draw(seeds),
    )


@settings(max_examples=300, deadline=None)
@given(chain=chain_specs(), regs=reg_specs, sweep=st.none() | sweep_specs(), t=floats)
def test_config_round_trip_of_random_specs(chain, regs, sweep, t):
    text = spec_to_config(chain, regs, sweep, None if sweep else t)
    want = (chain, regs, sweep, None if sweep else t)
    assert config_to_specs(parse_config_text(text)) == want


def test_config_writes_numpy_floats_as_plain_numbers():
    chain = ChainSpec(16, np.float64(5.0), 4.5)
    text = spec_to_config(chain, RegisterSpec(), t_capture_ps=100.0)
    assert "chain.tau_rise_ps = 5.0\n" in text
    assert config_to_specs(parse_config_text(text))[0] == chain


def test_config_bad_values_name_their_key():
    text = spec_to_config(ChainSpec(16, 5.0, 5.0), RegisterSpec(), t_capture_ps=100.0)
    for key, value in [("chain.k", "abc"), ("chain.allow_inverted", "yes")]:
        kv = parse_config_text(text)
        kv[key] = value
        with pytest.raises(CorruptFileError, match=f"config key '{key}'"):
            config_to_specs(kv)


def test_take_defaults_and_bools():
    kv = {"a": "true", "b": "yes"}
    assert take(kv, "a", bool) is True and "a" not in kv
    assert take(kv, "missing", int, 7) == 7
    with pytest.raises(CorruptFileError, match="config key 'b': expected true/false"):
        take(kv, "b", bool, False)
    with pytest.raises(CorruptFileError, match="missing config key 'c'"):
        take(kv, "c", int)


def test_spec_field_without_a_parser_fails_loudly():
    @dataclass(frozen=True)
    class Odd:
        n: int
        z: complex

    with pytest.raises(TypeError, match="Odd.z"):
        storage._spec_pairs(Odd(1, 2j), "odd")
    with pytest.raises(TypeError, match="Odd.z"):
        storage.spec_from_config(Odd, "odd", {"odd.n": "1", "odd.z": "2j"})


def rewrite_file(directory, name, edit):
    """Edit the bytes of a payload file and refresh the manifest, so the
    content and not the hash is what load_dataset sees."""
    path = directory / name
    path.write_bytes(edit(path.read_bytes()))
    manifest = json.loads((directory / "manifest.json").read_text())
    manifest["hashes"][name] = hashlib.sha256(path.read_bytes()).hexdigest()
    (directory / "manifest.json").write_text(json.dumps(manifest))


def line_edit(row, edit):
    """A file edit of one line (row 1 is the header)."""
    def apply(data):
        lines = data.decode().split("\n")
        lines[row - 1] = edit(lines[row - 1])
        return "\n".join(lines).encode()
    return apply


def rewrite_row(directory, name, row, edit):
    rewrite_file(directory, name, line_edit(row, edit))


@pytest.mark.parametrize(
    "name, edit, message",
    [
        ("frames.csv", lambda ln: "abc" + ln[ln.index(","):], "frames.csv row 3, byte 1: b'a' where"),
        ("times.csv", lambda ln: ln[: ln.index(",") + 1] + "abc", "times.csv row 3, byte 3: b'a' where"),
        ("times.csv", lambda ln: "9" + ln, "times.csv row 3, byte 1: b'9' where"),
        ("times.csv", lambda ln: ln[ln.index(","):], "times.csv row 3, byte 1: b',' where"),
        ("frames.csv", lambda ln: ln[ln.index(","):], "frames.csv row 3, byte 1: b',' where"),
        ("frames.csv", lambda ln: f"{2**63}" + ln[ln.index(","):], "frames.csv row 3, byte 1: b'9' where"),
        ("times.csv", lambda ln: ln[: ln.index(",") + 1] + f"{2**63}", "times.csv row 3, byte 3: b'9' where"),
    ],
    ids=["frames-index", "times-time", "times-index", "times-index-missing",
         "frames-index-missing", "frames-index-2**63", "times-time-2**63"],
)
def test_bad_dataset_cell_names_file_and_row(small_dataset, tmp_path, name, edit, message):
    save_dataset(small_dataset, tmp_path)
    rewrite_row(tmp_path, name, 3, edit)
    with pytest.raises(CorruptFileError, match=message):
        load_dataset(tmp_path)


def time_edit(edit):
    """A line edit of times.csv's time cell."""
    return lambda ln: ln[: ln.index(",") + 1] + edit(ln[ln.index(",") + 1 :])


@pytest.mark.parametrize(
    "name, edit, row",
    [
        ("frames.csv", line_edit(3, lambda ln: "+" + ln), 3),
        ("frames.csv", line_edit(3, lambda ln: "0" + ln), 3),
        ("frames.csv", line_edit(3, lambda ln: " " + ln), 3),
        ("frames.csv", line_edit(5, lambda ln: "0_" + ln), 5),
        ("times.csv", line_edit(3, time_edit(lambda t: "+" + t)), 3),
        ("times.csv", line_edit(3, time_edit(lambda t: " " + t)), 3),
        ("times.csv", line_edit(3, time_edit(lambda t: t[0] + "_" + t[1:])), 3),
        ("frames.csv", lambda data: data.replace(b"\n", b"\r\n"), 1),
        ("times.csv", lambda data: data.replace(b"\n", b"\r\n"), 1),
        ("frames.csv", lambda data: data[:-1], 17),
        ("times.csv", lambda data: data[:-1], 17),
    ],
    ids=["index-+1", "index-01", "index-space-1", "index-0_3", "time-+", "time-space",
         "time-underscore", "frames-crlf", "times-crlf", "frames-no-last-newline",
         "times-no-last-newline"],
)
def test_other_spellings_of_the_saved_values_are_rejected(small_dataset, tmp_path, name, edit, row):
    # each edited file still reads as the saved values, spelled otherwise
    # than save_dataset spells them; rows 3 and 5 hold indices 1 and 3
    save_dataset(small_dataset, tmp_path)
    rewrite_file(tmp_path, name, edit)
    with pytest.raises(CorruptFileError, match=rf"^{re.escape(name)} row {row}[,:]"):
        load_dataset(tmp_path)


def index_column(indices):
    """A file edit that gives the data rows the index cells indices(n) for n rows."""
    def apply(data):
        header, *rows = data.splitlines(keepends=True)
        cells = [row.partition(b",")[2] for row in rows]
        return header + b"".join(b"%d,%s" % (i, c) for i, c in zip(indices(len(rows)), cells))
    return apply


@pytest.mark.parametrize("names", [["frames.csv"], ["times.csv"], ["frames.csv", "times.csv"]],
                         ids=["frames", "times", "both"])
@pytest.mark.parametrize(
    "indices, row",
    [
        (lambda n: [0, *range(2, n + 1)], 3),
        (lambda n: [0, *range(n - 1)], 3),
        (lambda n: range(n - 1, -1, -1), 2),
        (lambda n: range(0, -n, -1), 3),
        (lambda n: range(1, n + 1), 2),
    ],
    ids=["gapped", "repeated", "reversed", "negative", "from-1"],
)
def test_index_column_other_than_the_row_number_is_rejected(small_dataset, tmp_path, names, indices,
                                                            row):
    # row 1 is the header, so frame n is on row n + 2; frames.csv is read first
    save_dataset(small_dataset, tmp_path)
    for name in names:
        rewrite_file(tmp_path, name, index_column(indices))
    with pytest.raises(CorruptFileError, match=rf"^{re.escape(names[0])} row {row}, byte 1: "):
        load_dataset(tmp_path)


def test_saved_payloads_load_back_equal(tmp_path):
    """Any dataset save_dataset writes, sweep or continuous, with times
    across all of int64, loads back equal."""
    sweep = SweepSpec(PllOutputSpec(600e6, 0.5), 0.0, 10.0, 4)

    @settings(max_examples=300, deadline=None, database=None)
    @given(payload=frame_payloads(), continuous=st.booleans())
    @example(payload=(np.zeros((0, 3)), []), continuous=True)
    def case(payload, continuous):
        bits, times = payload
        kind = {"t_capture_ps": 320.0} if continuous else {"sweep_spec": sweep}
        ds = SweepDataset(bits, times, ChainSpec(bits.shape[1], 5.0, 5.0), RegisterSpec(), **kind)
        save_dataset(ds, tmp_path)
        back = load_dataset(tmp_path)
        assert (back.sweep_spec, back.t_capture_ps) == (ds.sweep_spec, ds.t_capture_ps)
        for field in ("bits", "capture_time_fs"):
            got, want = getattr(back, field), getattr(ds, field)
            assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)

    case()
