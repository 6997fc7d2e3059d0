"""Dataset persistence with provenance.

A dataset directory holds:

    spec.config   flat ``key = value`` description of every generating spec
    frames.csv    header ``phase_index,bit_1,...,bit_K``, then row n: n, frame n's bits
    times.csv     header ``phase_index,capture_time_fs``, then row n: n, frame n's time in fs
    manifest.json sha256 of each of the three payload files, and tool version

Each fact is stored once: the bits only in frames.csv, the format version
only in spec.config, which the manifest hashes.  Times are integers end to
end, so identical specs reproduce byte-identical files, and the manifest
hashes make silent edits loud.  One rule decides whether frames.csv and
times.csv load: each must be byte for byte what save_dataset writes for the
values read from it.  spec.config keeps its looser key = value grammar, so a
dataset written before a spec field existed loads with that field's default.
"""

from __future__ import annotations

import hashlib
import json
import os
import typing
from dataclasses import MISSING, fields, is_dataclass
from functools import cache
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import __version__
from .chain import ChainSpec, RegisterSpec
from .sweep import SweepDataset, SweepSpec
from .units import WavecapError

__all__ = [
    "StorageError",
    "CorruptFileError",
    "HashMismatchError",
    "VersionSkewError",
    "spec_to_config",
    "config_to_specs",
    "chain_from_config",
    "regs_from_config",
    "spec_from_config",
    "check_format_version",
    "parse_config_text",
    "take",
    "reject_unknown_keys",
    "save_dataset",
    "load_dataset",
    "write_report",
    "write_pgm",
    "bit_lines",
]

FORMAT_VERSION = 1
_PAYLOAD_FILES = frozenset({"spec.config", "frames.csv", "times.csv"})


class StorageError(WavecapError):
    pass


class CorruptFileError(StorageError):
    pass


class HashMismatchError(StorageError):
    pass


class VersionSkewError(StorageError):
    pass


# ---------------------------------------------------------------------------
# flat key = value config
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, (tuple, list)):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def spec_to_config(
    chain: ChainSpec,
    regs: RegisterSpec,
    sweep: Optional[SweepSpec] = None,
    t_capture_ps: Optional[float] = None,
) -> str:
    """Serialize generating specs as flat key = value text."""
    pairs = [("format_version", FORMAT_VERSION), *_spec_pairs(chain, "chain")]
    pairs += _spec_pairs(regs, "regs")
    if sweep is not None:
        pairs += [("kind", "sweep"), *_spec_pairs(sweep, "sweep")]
    else:
        pairs += [("kind", "continuous"), ("continuous.t_capture_ps", t_capture_ps)]
    return "".join(f"{k} = {_fmt(v)}\n" for k, v in pairs)


def parse_config_text(text: str) -> dict[str, str]:
    """Flat key = value lines into a dict; blank lines and # comments skipped."""
    out: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CorruptFileError(f"line {ln}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in out:
            raise CorruptFileError(f"line {ln}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


_REQUIRED = object()


def take(kv: dict[str, str], key: str, conv, default=_REQUIRED):
    """Pop ``key`` from ``kv`` and convert it; a key without a default must
    be present, and a bad value names its key."""
    if key not in kv:
        if default is _REQUIRED:
            raise CorruptFileError(f"missing config key {key!r}")
        return default
    try:
        return _PARSERS.get(conv, conv)(kv.pop(key))
    except ValueError as exc:
        raise CorruptFileError(f"config key {key!r}: {exc}") from exc


def _as_bool(s: str) -> bool:
    if s not in ("true", "false"):
        raise ValueError(f"expected true/false, got {s!r}")
    return s == "true"


def _as_float_tuple(s: str):
    if s == "none":
        return None
    return () if s == "" else tuple(float(v) for v in s.split(","))


def _as_int_tuple(s: str) -> tuple[int, ...]:
    return tuple(int(v) for v in s.split(","))


def _as_int_pair(s: str) -> tuple[int, int]:
    parts = _as_int_tuple(s)
    if len(parts) != 2:
        raise ValueError(f"expected two integers, got {s!r}")
    return parts


# one parser per field annotation of the spec classes; take() looks its
# conv up here too, so take(kv, key, bool) accepts only true and false
_PARSERS = {
    int: int,
    float: float,
    bool: _as_bool,
    Optional[float]: lambda s: None if s == "auto" else float(s),
    Optional[tuple[float, ...]]: _as_float_tuple,
    tuple[int, int]: _as_int_pair,
    tuple[int, ...]: _as_int_tuple,
    Union[str, tuple[int, ...]]: lambda s: s if s in ("pulse", "zeros") else _as_int_tuple(s),
}


def reject_unknown_keys(kv: dict[str, str]) -> None:
    if kv:
        raise CorruptFileError(f"unknown config keys: {sorted(kv)}")


@cache
def _spec_keys(cls, prefix: str) -> tuple[tuple[str, str, object, object], ...]:
    """(field, config key, annotation, default) per field of a spec class, keys
    under ``prefix``; a dataclass-typed field is a nested spec whose keys take
    its name as prefix.  A key may be left out iff its field has a default.
    Cached per class and prefix, and a tuple, so no caller can change it."""
    hints = typing.get_type_hints(cls)
    out = []
    for f in fields(cls):
        hint = hints[f.name]
        if not (is_dataclass(hint) or hint in _PARSERS):
            raise TypeError(f"no config parser for {cls.__name__}.{f.name}: {hint}")
        key = f.name if is_dataclass(hint) else f"{prefix}.{f.name}"
        out.append((f.name, key, hint, _REQUIRED if f.default is MISSING else f.default))
    return tuple(out)


def _spec_pairs(spec, prefix: str) -> list[tuple[str, object]]:
    pairs = []
    for name, key, hint, _ in _spec_keys(type(spec), prefix):
        value = getattr(spec, name)
        pairs += _spec_pairs(value, key) if is_dataclass(hint) else [(key, value)]
    return pairs


def spec_from_config(cls, prefix: str, kv: dict[str, str]):
    """Consume the keys of spec class ``cls`` under ``prefix`` from a parsed config."""
    return cls(**{
        name: spec_from_config(hint, key, kv) if is_dataclass(hint) else take(kv, key, hint, d)
        for name, key, hint, d in _spec_keys(cls, prefix)
    })


def chain_from_config(kv: dict[str, str]) -> ChainSpec:
    """Consume chain.* keys from an already-parsed config dict."""
    return spec_from_config(ChainSpec, "chain", kv)


def regs_from_config(kv: dict[str, str]) -> RegisterSpec:
    return spec_from_config(RegisterSpec, "regs", kv)


def check_format_version(kv: dict[str, str]) -> None:
    version = take(kv, "format_version", int)
    if version != FORMAT_VERSION:
        raise VersionSkewError(
            f"config format {version} not supported (expected {FORMAT_VERSION})"
        )


def config_to_specs(
    kv: dict[str, str],
) -> tuple[ChainSpec, RegisterSpec, Optional[SweepSpec], Optional[float]]:
    """Rebuild specs from parsed config; unknown keys are an error."""
    kv = dict(kv)
    check_format_version(kv)
    chain = chain_from_config(kv)
    regs = regs_from_config(kv)
    kind = take(kv, "kind", str)
    sweep = t_capture = None
    if kind == "sweep":
        sweep = spec_from_config(SweepSpec, "sweep", kv)
    elif kind == "continuous":
        t_capture = take(kv, "continuous.t_capture_ps", float)
    else:
        raise CorruptFileError(f"unknown dataset kind {kind!r}")
    reject_unknown_keys(kv)
    return chain, regs, sweep, t_capture


# ---------------------------------------------------------------------------
# payload files
# ---------------------------------------------------------------------------


def bit_lines(bits: np.ndarray) -> np.ndarray:
    """A 0/1 matrix as ASCII text, one uint8 row per line: cells joined by
    commas, newline last.  The array's buffer is the whole text."""
    m = np.asarray(bits, dtype=np.uint8)
    return _fill_bit_lines(np.empty((m.shape[0], 2 * m.shape[1]), dtype=np.uint8), m)


def _fill_bit_lines(out: np.ndarray, bits: np.ndarray) -> np.ndarray:
    # each cell is one little-endian 2-byte word: its digit, then a comma
    np.add(bits, np.uint16(ord("0") | ord(",") << 8), out=out.view("<u2"))
    out[:, -1] = ord("\n")
    return out


@cache
def _frames_header(k: int) -> bytes:
    """frames.csv's ``phase_index,bit_1,...,bit_K`` line, newline included."""
    return ("phase_index," + ",".join(f"bit_{i}" for i in range(1, k + 1)) + "\n").encode()


def _frames_csv(bits: np.ndarray) -> memoryview:
    """frames.csv as one uint8 buffer: the rows of one index width, each ``n,``
    and frame n's bits, are one (rows, width + 2K) block of it, filled in one pass."""
    header = _frames_header(bits.shape[1])
    digits = np.arange(len(bits)).astype("S20")  # an int64 has at most 20 characters
    cells = digits.view(np.uint8).reshape(-1, 20)
    widths = np.char.str_len(digits) + 1  # the comma too
    bounds = np.cumsum(np.concatenate(([len(header)], widths + 2 * bits.shape[1])))
    buf = np.empty(bounds[-1], dtype=np.uint8)
    buf[: len(header)] = np.frombuffer(header, dtype=np.uint8)
    starts = np.flatnonzero(np.diff(widths, prepend=0)).tolist()
    for a, b in zip(starts, [*starts[1:], widths.size]):
        w = int(widths[a])
        block = buf[bounds[a] : bounds[b]].reshape(b - a, -1)
        block[:, : w - 1] = cells[a:b, : w - 1]
        block[:, w - 1] = ord(",")
        _fill_bit_lines(block[:, w:], bits[a:b])
    return memoryview(buf)


def _times_csv(times_fs: np.ndarray) -> bytes:
    cells = np.stack([np.arange(times_fs.size), times_fs], axis=1).ravel().tolist()
    return ("phase_index,capture_time_fs\n" + "%d,%d\n" * times_fs.size % tuple(cells)).encode()


def write_pgm(bits_matrix: np.ndarray, path: Union[str, Path]) -> None:
    """Binary PGM raster: one row per frame, bit 1 rendered white."""
    m = np.asarray(bits_matrix, dtype=np.uint8)
    if m.ndim != 2:
        raise StorageError("expected a frames x taps matrix")
    with Path(path).open("wb") as f:
        f.write(f"P5\n{m.shape[1]} {m.shape[0]}\n255\n".encode())
        f.write(m * 255)


def save_dataset(dataset: SweepDataset, directory: Union[str, Path]) -> None:
    if dataset.sweep_spec is None and dataset.t_capture_ps is None:
        raise StorageError("a dataset needs a sweep spec or t_capture_ps to be saved")
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    payloads = {
        "spec.config": spec_to_config(
            dataset.chain_spec,
            dataset.reg_spec,
            dataset.sweep_spec,
            dataset.t_capture_ps,
        ).encode(),
        "frames.csv": _frames_csv(dataset.bits),
        "times.csv": _times_csv(dataset.capture_time_fs),
    }
    for name, data in payloads.items():
        (d / name).write_bytes(data)
    hashes = {name: hashlib.sha256(data).hexdigest() for name, data in payloads.items()}
    manifest = {"hashes": hashes, "tool_version": __version__}
    (d / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _read(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:  # missing, a directory, unreadable
        raise CorruptFileError(f"cannot read {path}: {exc.strerror}") from exc


def _load_manifest(d: Path) -> dict[str, str]:
    """The payload hashes of a manifest that also names its tool_version."""
    path = d / "manifest.json"
    data = _read(path)
    try:
        raw = json.loads(data)
        _, hashes = raw["tool_version"], raw["hashes"]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise CorruptFileError(f"{path} is not a valid manifest: {exc}") from exc
    # only the known payload names: a name like ../x would read outside d
    if not isinstance(hashes, dict) or hashes.keys() != _PAYLOAD_FILES:
        raise CorruptFileError(f"{path}: hashes must name exactly {sorted(_PAYLOAD_FILES)}")
    return hashes


def _text(name: str, data: bytes) -> str:
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise CorruptFileError(f"{name} is not UTF-8: {exc}") from exc


def _int64(cell: bytes) -> int:
    """A cell's int64 value, or 0 where it has none, which _check_written rejects."""
    try:
        value = int(cell)
    except ValueError:
        return 0
    return value if -(2**63) <= value < 2**63 else 0


def _check_written(name: str, data: bytes, written: bytes | memoryview) -> None:
    """Raise unless ``data`` is byte for byte ``written``, what save_dataset
    writes for the values read from it, naming the first row that differs."""
    step = 1 << 16  # a block at a time: no whole-file temporary beside the two files
    for a in range(0, max(len(data), len(written)), step):
        got, want = data[a : a + step], bytes(written[a : a + step])
        if got != want:
            at = a + len(os.path.commonprefix([got, want]))
            row = data.count(b"\n", 0, at) + 1  # the header is row 1
            col = at - data.rfind(b"\n", 0, at)
            raise CorruptFileError(
                f"{name} row {row}, byte {col}: {data[at : at + 1]!r} where save_dataset"
                f" writes {bytes(written[at : at + 1])!r} for the values read"
            )


def _parse_frames_csv(data: bytes, k: int) -> np.ndarray:
    """The (frames, K) bits matrix of frames.csv, which must be byte for byte
    what _frames_csv writes for it, each row's index its row number."""
    if not data.startswith(_frames_header(k)):
        raise CorruptFileError("frames.csv row 1: header does not match the chain length")
    # read as one buffer in blocks of rows whose ``index,`` prefixes have one
    # width, the mirror of _frames_csv, up to the first row too short for that
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))  # the header's own comes first
    widths = np.diff(ends) - 2 * k  # each row's ``index,`` prefix, its comma too
    widths = widths[: np.flatnonzero(np.append(widths, 0) < 2)[0]]
    bits = np.empty((widths.size, k), dtype=np.uint8)
    starts = np.flatnonzero(np.diff(widths, prepend=0)).tolist()
    for a, b in zip(starts, [*starts[1:], widths.size]):
        w = int(widths[a])
        block = buf[ends[a] + 1 : ends[b] + 1].reshape(b - a, -1)
        np.subtract(block[:, w:-1:2], ord("0"), out=bits[a:b])
    # checked apart, as the writer renders any digit: a 2 would write back as read
    bad = np.flatnonzero(bits.max(axis=1, initial=0) > 1)
    if bad.size:
        raise CorruptFileError(f"frames.csv row {bad[0] + 2}: bits must be 0 or 1")
    _check_written("frames.csv", data, _frames_csv(bits))
    return bits


def load_dataset(directory: Union[str, Path]) -> SweepDataset:
    d = Path(directory)
    blobs = {}
    for name, want in _load_manifest(d).items():
        blobs[name] = _read(d / name)
        got = hashlib.sha256(blobs[name]).hexdigest()
        if got != want:
            raise HashMismatchError(f"{name}: sha256 {got} != manifest {want}")
    chain, regs, sweep, t_capture = config_to_specs(
        parse_config_text(_text("spec.config", blobs["spec.config"]))
    )
    bits = _parse_frames_csv(blobs["frames.csv"], chain.k)
    times = np.zeros(len(bits), dtype=np.int64)
    # times.csv's two header cells, then a row number and a time per row
    cells = blobs["times.csv"].replace(b"\n", b",").split(b",")[3 : 2 * times.size + 3 : 2]
    times[: len(cells)] = [_int64(cell) for cell in cells]
    _check_written("times.csv", blobs["times.csv"], _times_csv(times))
    return SweepDataset(bits, times, chain, regs, sweep, t_capture_ps=t_capture)


def write_report(report: dict, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
