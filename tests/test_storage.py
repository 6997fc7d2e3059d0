import hashlib
import json
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
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
    for name in ("bits", "capture_time_fs", "phase_index"):
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
    ds = SweepDataset(np.zeros((1, 16)), [0], [0], ChainSpec(16, 5.0, 5.0), RegisterSpec())
    with pytest.raises(StorageError, match="sweep spec or t_capture_ps"):
        save_dataset(ds, tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_save_is_byte_deterministic(small_dataset, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    save_dataset(small_dataset, a)
    save_dataset(small_dataset, b)
    for name in ("spec.config", "frames.csv", "times.csv", "frames.pgm", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_manifest_with_created_utc_still_loads(small_dataset, tmp_path):
    save_dataset(small_dataset, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["created_utc"] = "2021-06-01T00:00:00+00:00"
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
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["format_version"] = 99
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(VersionSkewError):
        load_dataset(tmp_path)


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


# -- bulk frame encoding and parsing against the per-bit code they replaced ---


def per_bit_frames_csv(dataset):
    k = dataset.k
    header = "phase_index," + ",".join(f"bit_{i}" for i in range(1, k + 1))
    rows = [header]
    for idx, bits in zip(dataset.phase_index.tolist(), dataset.bits):
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


def outcome(parse, data, k):
    try:
        indices, bits = parse(data, k)
        return indices.tolist(), bits.tolist()
    except CorruptFileError as exc:
        return (type(exc), str(exc))
    except OverflowError:  # the per-row parser on a cell outside uint8
        return OverflowError


frame_sets = st.integers(1, 12).flatmap(
    lambda k: st.lists(
        st.tuples(
            st.integers(-5, 10**6),
            st.lists(st.integers(0, 1), min_size=k, max_size=k),
        ),
        min_size=1,
        max_size=6,
    )
)


def as_dataset(rows):
    index, bits = zip(*rows)
    chain = ChainSpec(len(bits[0]), 5.0, 5.0)
    return SweepDataset(np.array(bits), np.zeros(len(rows)), index, chain, RegisterSpec())


@settings(max_examples=200, deadline=None)
@given(rows=frame_sets)
def test_frames_csv_matches_per_bit_encoding(rows):
    ds = as_dataset(rows)
    assert _frames_csv(ds) == per_bit_frames_csv(ds)


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
    got, want = outcome(_parse_frames_csv, data, ds.k), outcome(per_row_parse, data, ds.k)
    if want is OverflowError:
        assert got[0] is CorruptFileError and got[1].endswith("bits must be 0 or 1")
    else:
        assert got == want


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
    return ChainSpec(
        k,
        rise,
        fall,
        tau_sigma_ps=draw(nonneg),
        entry_delay_ps=draw(nonneg),
        entry_min_pulse_ps=draw(nonneg),
        dnl_ramp=draw(st.none() | st.lists(positive, max_size=min(k, 6)).map(tuple)),
        seed=draw(seeds),
        allow_inverted=draw(st.booleans()) or rise < fall,
    )


reg_specs = st.builds(RegisterSpec, nonneg, nonneg, seeds)


@st.composite
def sweep_specs(draw):
    lo = draw(st.integers(2, 100))
    source = PllOutputSpec(
        draw(positive),
        draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
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


def rewrite_row(directory, name, row, edit):
    """Edit one line of a payload file (row 1 is the header) and refresh the
    manifest, so the content and not the hash is what load_dataset sees."""
    path = directory / name
    lines = path.read_text().splitlines()
    lines[row - 1] = edit(lines[row - 1])
    path.write_text("\n".join(lines) + "\n")
    manifest = json.loads((directory / "manifest.json").read_text())
    manifest["hashes"][name] = hashlib.sha256(path.read_bytes()).hexdigest()
    (directory / "manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize(
    "name, edit, message",
    [
        ("frames.csv", lambda ln: "abc" + ln[ln.index(","):], "frames.csv row 3: invalid"),
        ("times.csv", lambda ln: ln[: ln.index(",") + 1] + "abc", "times.csv row 3: invalid"),
        ("times.csv", lambda ln: "9" + ln, "times.csv row 3: phase index '9"),
        ("times.csv", lambda ln: ln[ln.index(","):], "times.csv row 3: phase index ''"),
        ("frames.csv", lambda ln: ln[ln.index(","):], "frames.csv row 3: invalid literal"),
        ("frames.csv", lambda ln: f"{2**63}" + ln[ln.index(","):],
         "frames.csv row 3: '9223372036854775808' is outside int64"),
        ("times.csv", lambda ln: ln[: ln.index(",") + 1] + f"{2**63}",
         "times.csv row 3: '9223372036854775808' is outside int64"),
    ],
    ids=["frames-index", "times-time", "times-index", "times-index-missing",
         "frames-index-missing", "frames-index-2**63", "times-time-2**63"],
)
def test_bad_dataset_cell_names_file_and_row(small_dataset, tmp_path, name, edit, message):
    save_dataset(small_dataset, tmp_path)
    rewrite_row(tmp_path, name, 3, edit)
    with pytest.raises(CorruptFileError, match=message):
        load_dataset(tmp_path)
