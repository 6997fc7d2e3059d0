"""Dataset persistence with provenance.

A dataset directory holds:

    spec.config   flat ``key = value`` description of every generating spec
    frames.csv    header ``phase_index,bit_1,...,bit_K``, one row per frame
    times.csv     per-frame capture instants, femtosecond integers
    frames.pgm    P5 raster, one row per frame, bit 1 rendered white
    manifest.json sha256 of each payload file plus format version

Times are integers end to end, so identical specs reproduce byte-identical
files, and the manifest hashes make silent edits loud.
"""

from __future__ import annotations

import hashlib
import json
import typing
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import __version__
from .chain import ChainSpec, RegisterSpec
from .sweep import SweepDataset, SweepSpec

__all__ = [
    "StorageError",
    "CorruptFileError",
    "HashMismatchError",
    "VersionSkewError",
    "RunManifest",
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
_PAYLOAD_FILES = frozenset({"spec.config", "frames.csv", "times.csv", "frames.pgm"})


class StorageError(Exception):
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


def _spec_keys(cls, prefix: str) -> list[tuple[str, str, object, object]]:
    """(field, config key, annotation, default) per field of a spec class, keys
    under ``prefix``; a dataclass-typed field is a nested spec whose keys take
    its name as prefix.  A key may be left out iff its field has a default."""
    hints = typing.get_type_hints(cls)
    out = []
    for f in fields(cls):
        hint = hints[f.name]
        if not (is_dataclass(hint) or hint in _PARSERS):
            raise TypeError(f"no config parser for {cls.__name__}.{f.name}: {hint}")
        key = f.name if is_dataclass(hint) else f"{prefix}.{f.name}"
        out.append((f.name, key, hint, _REQUIRED if f.default is MISSING else f.default))
    return out


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
    commas, newline last, so ``bit_lines(m).tobytes()`` is the whole text."""
    m = np.asarray(bits, dtype=np.uint8)
    out = np.full((m.shape[0], 2 * m.shape[1]), ord(","), dtype=np.uint8)
    out[:, 0::2] = m + ord("0")
    out[:, -1] = ord("\n")
    return out


def _frames_csv(dataset: SweepDataset) -> bytes:
    header = "phase_index," + ",".join(f"bit_{i}" for i in range(1, dataset.k + 1))
    rows = [(header + "\n").encode()]
    for idx, line in zip(dataset.phase_index.tolist(), bit_lines(dataset.bits)):
        rows.append(f"{idx},".encode() + line.tobytes())
    return b"".join(rows)


def _times_csv(dataset: SweepDataset) -> bytes:
    rows = ["phase_index,capture_time_fs"]
    for idx, t in zip(dataset.phase_index.tolist(), dataset.capture_time_fs.tolist()):
        rows.append(f"{idx},{t}")
    return ("\n".join(rows) + "\n").encode()


def write_pgm(bits_matrix: np.ndarray, path: Union[str, Path]) -> None:
    """Binary PGM raster: one row per frame, bit 1 rendered white."""
    m = np.asarray(bits_matrix, dtype=np.uint8)
    if m.ndim != 2:
        raise ValueError("expected a frames x taps matrix")
    header = f"P5\n{m.shape[1]} {m.shape[0]}\n255\n".encode()
    Path(path).write_bytes(header + (m * 255).tobytes())


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class RunManifest:
    format_version: int
    tool_version: str
    hashes: dict[str, str]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def save_dataset(dataset: SweepDataset, directory: Union[str, Path]) -> RunManifest:
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
        "frames.csv": _frames_csv(dataset),
        "times.csv": _times_csv(dataset),
    }
    for name, data in payloads.items():
        (d / name).write_bytes(data)
    write_pgm(dataset.bits, d / "frames.pgm")
    payloads["frames.pgm"] = (d / "frames.pgm").read_bytes()
    manifest = RunManifest(
        format_version=FORMAT_VERSION,
        tool_version=__version__,
        hashes={name: _sha256(data) for name, data in sorted(payloads.items())},
    )
    (d / "manifest.json").write_text(manifest.to_json() + "\n")
    return manifest


def _load_manifest(d: Path) -> RunManifest:
    path = d / "manifest.json"
    if not path.exists():
        raise CorruptFileError(f"{path} is missing")
    try:
        raw = json.loads(path.read_text())
        manifest = RunManifest(
            format_version=int(raw["format_version"]),
            tool_version=str(raw["tool_version"]),
            hashes=raw["hashes"],
        )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise CorruptFileError(f"{path} is not a valid manifest: {exc}") from exc
    # only the known payload names: a name like ../x would read outside d
    if not isinstance(manifest.hashes, dict) or manifest.hashes.keys() != _PAYLOAD_FILES:
        raise CorruptFileError(f"{path}: hashes must name exactly {sorted(_PAYLOAD_FILES)}")
    return manifest


def _int64(cell: str) -> int:
    if -(2**63) <= int(cell) < 2**63:
        return int(cell)
    raise ValueError(f"{cell!r} is outside int64")


def _parse_frames_csv(data: bytes, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The phase indices and the (frames, K) bits matrix of frames.csv."""
    lines = data.decode().splitlines()
    if not lines:
        raise CorruptFileError("frames.csv is empty")
    expected_header = "phase_index," + ",".join(f"bit_{i}" for i in range(1, k + 1))
    if lines[0] != expected_header:
        raise CorruptFileError("frames.csv header does not match the chain length")
    # well-formed rows are checked in one numpy pass; a malformed row falls
    # through to the row-by-row checks, which name it
    split = [line.partition(",") for line in lines[1:]]
    text = "".join(tail for _, _, tail in split)
    if text.isascii() and all(len(tail) == 2 * k - 1 for _, _, tail in split):
        cells = np.frombuffer(text.encode(), dtype=np.uint8).reshape(len(split), 2 * k - 1)
        bits = cells[:, 0::2] - np.uint8(ord("0"))
        if not (np.any(bits > 1) or np.any(cells[:, 1::2] != ord(","))):
            try:
                return np.array([_int64(h) for h, _, _ in split], dtype=np.int64), bits
            except ValueError:
                pass
    indices, rows = [], []
    for row_no, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != k + 1:
            raise CorruptFileError(
                f"frames.csv row {row_no}: expected {k + 1} cells, got {len(cells)}"
            )
        try:
            indices.append(_int64(cells[0]))
            values = [int(c) for c in cells[1:]]
        except ValueError as exc:
            raise CorruptFileError(f"frames.csv row {row_no}: {exc}") from exc
        if any(v not in (0, 1) for v in values):
            raise CorruptFileError(f"frames.csv row {row_no}: bits must be 0 or 1")
        rows.append(values)
    return np.array(indices, dtype=np.int64), np.array(rows, dtype=np.uint8).reshape(-1, k)


def load_dataset(directory: Union[str, Path]) -> SweepDataset:
    d = Path(directory)
    manifest = _load_manifest(d)
    if manifest.format_version != FORMAT_VERSION:
        raise VersionSkewError(
            f"dataset format {manifest.format_version} "
            f"not supported (expected {FORMAT_VERSION})"
        )
    blobs = {}
    for name, want in manifest.hashes.items():
        path = d / name
        if not path.exists():
            raise CorruptFileError(f"{path} is missing")
        blobs[name] = path.read_bytes()
        got = _sha256(blobs[name])
        if got != want:
            raise HashMismatchError(f"{name}: sha256 {got} != manifest {want}")
    chain, regs, sweep, t_capture = config_to_specs(
        parse_config_text(blobs["spec.config"].decode())
    )
    indices, bits = _parse_frames_csv(blobs["frames.csv"], chain.k)
    time_lines = blobs["times.csv"].decode().splitlines()
    if len(time_lines) - 1 != len(indices):
        raise CorruptFileError("times.csv row count does not match frames.csv")
    times = []
    for row_no, (idx, line) in enumerate(zip(indices.tolist(), time_lines[1:]), start=2):
        cells = line.split(",")
        try:
            if len(cells) != 2:
                raise ValueError(f"expected 2 cells, got {len(cells)}")
            if cells[0] != str(idx):
                raise ValueError(f"phase index {cells[0]!r} is not frames.csv's {idx}")
            times.append(_int64(cells[1]))
        except ValueError as exc:
            raise CorruptFileError(f"times.csv row {row_no}: {exc}") from exc
    return SweepDataset(bits, times, indices, chain, regs, sweep, t_capture_ps=t_capture)


def write_report(report: dict, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
