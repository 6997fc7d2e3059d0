"""Command-line driver.

Each subcommand reads a flat key = value config (shipped presets live under
wavecap/presets), writes its artifacts into an output directory, and leaves
a report.json that `wavecap report` can aggregate into a pass/fail table.
The WAVECAP_OUT_ROOT environment variable sets the root for relative --out
paths.

The commands only compute; ``_run`` alone times each one and does every
write.  ``main`` exits 2 on a ``WavecapError``; any other exception is a bug
and escapes with its traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, fields, is_dataclass, replace
from functools import cache, partial
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .calibrate import MIN_PULSE_CARRIES, calibrate, shrink_analysis
from .chain import MAX_CHAIN_LEN, ChainSpec, LookbackError, RegisterSpec, sample_chain, sample_registers
from .correct import CorrectionSpec, correct_dataset, dataset_fidelity
from .ringosc import (EventBudgetError, RingError, RingSpec, _stitched_taps, measure_node_timescale,
                      simulate_ring, stitch_frames)
from .storage import (
    bit_lines,
    check_format_version,
    load_dataset,
    parse_config_text,
    reject_unknown_keys,
    save_dataset,
    spec_from_config,
    take,
    write_pgm,
    write_report,
)
from .sweep import MAX_FRAMES, SweepSpec, _default_start_ps, run_continuous, run_sweep
from .units import WavecapError, require_finite

OUT_ROOT_ENV = "WAVECAP_OUT_ROOT"


class CliError(WavecapError):
    pass


@dataclass(frozen=True)
class CalibrateOptions:
    n_channels: int = 1  # sweeps generated, each with seeds shifted by 1000
    min_run: int = MIN_PULSE_CARRIES

    def __post_init__(self):
        for key in ("n_channels", "min_run"):
            if getattr(self, key) < 1:
                raise CliError(f"calibrate.{key} must be >= 1")


@dataclass(frozen=True)
class CorrectOptions:
    gap_threshold: int = 15
    dilation_factor: Optional[float] = None  # auto: 1 - the measured contraction rate

    def __post_init__(self):
        alpha = 1.0 if self.dilation_factor is None else self.dilation_factor
        CorrectionSpec(self.gap_threshold, alpha)


@dataclass(frozen=True)
class RoOptions:
    t_capture_ps: float = 5_000.0
    n_frames: int = 64
    t_start_ps: Optional[float] = None  # auto: the earliest start the chain allows
    capture_nodes: tuple[int, ...] = (0,)
    measure_timescale: bool = False

    def __post_init__(self):
        require_finite(self, CliError)
        if self.t_capture_ps <= 0:
            raise CliError("ro.t_capture_ps must be positive")
        if not 1 <= self.n_frames <= MAX_FRAMES:
            raise CliError(f"ro.n_frames must lie in [1, {MAX_FRAMES}], the frame bound")
        if len(set(self.capture_nodes)) < len(self.capture_nodes):
            raise CliError(f"ro.capture_nodes {list(self.capture_nodes)} repeats a node")


# the spec read from each config key prefix, per command
_SWEEP_SPECS = {"chain": ChainSpec, "regs": RegisterSpec, "sweep": SweepSpec}
_SPECS = {
    "sweep": _SWEEP_SPECS,
    "calibrate": {"calibrate": CalibrateOptions, **_SWEEP_SPECS},
    "shrink": _SWEEP_SPECS,
    "correct": {"correct": CorrectOptions, **_SWEEP_SPECS},
    "ro": {"ring": RingSpec, "ro": RoOptions, "chain": ChainSpec, "regs": RegisterSpec},
}


def _load_config(path: str) -> dict[str, str]:
    if path.startswith("preset:"):
        name = path.split(":", 1)[1]
        ref = resources.files("wavecap.presets") / f"{name}.config"
        if not ref.is_file():
            raise CliError(f"no preset named {name!r}")
        text = ref.read_text()
    else:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise CliError(f"cannot read config file {path}: {exc.strerror}") from exc
        except UnicodeDecodeError as exc:
            raise CliError(f"cannot read config file {path}: {exc}") from exc
    kv = parse_config_text(text)
    check_format_version(kv)
    return kv


def _out_dir(args) -> Path:
    out = Path(args.out)
    if not out.is_absolute():
        out = Path(os.environ.get(OUT_ROOT_ENV, ".")) / out
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot make output directory {out}: {exc.strerror}") from exc
    return out


def _shift_seeds(spec, offset: int):
    """spec with offset added to its seed and to those of its nested specs."""
    if offset == 0 or not is_dataclass(spec):
        return spec
    changes = {f.name: _shift_seeds(getattr(spec, f.name), offset) for f in fields(spec)}
    if "seed" in changes:
        changes["seed"] += offset
    return replace(spec, **changes)


def _specs(args) -> list:
    """The specs of the command's config in _SPECS order, each validated and
    its seeds shifted by --seed; any other key is an error.  A ring config
    has no kind, the other commands need kind = sweep."""
    kv = _load_config(args.config)
    if args.command != "ro" and take(kv, "kind", str, "sweep") != "sweep":
        raise CliError(f"{args.command} needs a config with kind = sweep")
    specs = [spec_from_config(cls, p, kv) for p, cls in _SPECS[args.command].items()]
    reject_unknown_keys(kv)
    return [_shift_seeds(spec, args.seed) for spec in specs]


def _run(command, args) -> int:
    """Time a command on its validated specs; only once it has returned,
    create --out, call its writer and write report.json with runtime_s, so a
    run that raises leaves no output.  {out} in its closing line is --out."""
    specs = _specs(args)
    t0 = time.perf_counter()
    report, write, closing = command(args, *specs)
    out = _out_dir(args)
    write(out)
    report["runtime_s"] = round(time.perf_counter() - t0, 3)
    write_report(report, out / "report.json")
    if not args.quiet:
        print(closing.format(out=out))
    return 0


# ---------------------------------------------------------------------------
# subcommands: each computes on its validated specs and returns its report,
# a function writing its artifacts into a directory, and its closing line
# ---------------------------------------------------------------------------


def cmd_sweep(args, chain, regs, sweep):
    dataset = run_sweep(sweep, chain, regs)
    report = {
        "kind": "sweep",
        "n_frames": dataset.n_frames,
        "chain_k": chain.k,
        "truth": {"tau_rise_ps": chain.tau_rise_ps, "tau_fall_ps": chain.tau_fall_ps},
    }

    def write(out: Path) -> None:
        save_dataset(dataset, out)
        write_pgm(dataset.bits, out / "frames.pgm")  # a picture, outside the manifest

    return report, write, f"wrote {dataset.n_frames} frames to {{out}}"


def cmd_calibrate(args, opts, chain, regs, sweep):
    if opts.n_channels * sweep.n_steps > MAX_FRAMES:
        raise CliError(f"calibrate.n_channels * sweep.n_steps > {MAX_FRAMES}, the frame bound")
    specs = []  # each dataset's chain and sweep specs; the report gives the first's

    def channel(source):
        if args.inputs:
            ds = load_dataset(source)
        else:
            ds = run_sweep(*(_shift_seeds(spec, 1000 * source) for spec in (sweep, chain, regs)))
        specs.append((ds.chain_spec, ds.sweep_spec))
        return ds

    # a map makes each dataset only when calibrate() reaches it: one channel's frames at a time
    result = calibrate(map(channel, args.inputs or range(opts.n_channels)), opts.min_run)
    chain, sweep = specs[0]
    report = {
        "kind": "calibrate",
        "truth": {"tau_rise_ps": chain.tau_rise_ps, "tau_fall_ps": chain.tau_fall_ps},
        "recovered": result.summary(),
        # calibrate() pooled the datasets, so each has a sweep spec
        "jitter_sigma_ps": sweep.crystal_jitter_sigma_ps,
        "n_channels": len(specs),
        "min_run": opts.min_run,
    }

    def write(out: Path) -> None:
        tf = result.t_of_x
        cells = [None] * (3 * tf.index.size)  # row by row: index, t_ps, dt_ps
        cells[::3], cells[1::3], cells[2::3] = tf.index.tolist(), tf.t_ps.tolist(), tf.dt_ps.tolist()
        rows = "%d,%.6f,%.6f\n" * tf.index.size % tuple(cells)
        (out / "transfer.csv").write_text("index,t_ps,dt_ps\n" + rows)

    closing = (
        "tau_rise = {tau_rise_ps:.4f} +- {tau_rise_err_ps:.4f} ps, "
        "tau_fall = {tau_fall_ps:.4f} +- {tau_fall_err_ps:.4f} ps, "
        "single-shot {single_shot_rise_ps:.2f} ps".format(**report["recovered"])
    )
    return report, write, closing


def cmd_shrink(args, chain, regs, sweep):
    dataset = run_sweep(sweep, chain, regs)
    res = shrink_analysis(dataset)
    truth_rate = (chain.tau_rise_ps - chain.tau_fall_ps) / chain.tau_rise_ps
    report = {
        "kind": "shrink",
        "truth": {"rate": truth_rate},
        "recovered": {"rate": res.rate, "n_pulses": len(res.samples)},
    }
    closing = f"contraction rate {res.rate:.4f} (configured {truth_rate:.4f})"
    return report, partial(save_dataset, dataset), closing


def cmd_correct(args, opts, chain, regs, sweep):
    # filter mode corrects an existing dataset and reads the specs only to
    # validate the config; recovery mode generates the dataset and scores it
    if len(args.inputs) > 1:
        raise CliError("correct takes at most one input dataset")
    dataset = load_dataset(args.inputs[0]) if args.inputs else run_sweep(sweep, chain, regs)
    alpha = opts.dilation_factor
    if alpha is None or not args.inputs:
        rate = shrink_analysis(dataset).rate
    alpha = 1.0 - rate if alpha is None else alpha
    corrected = correct_dataset(dataset, CorrectionSpec(opts.gap_threshold, alpha))
    report = {"kind": "correct", "alpha": alpha}
    if args.inputs:
        closing = f"corrected {dataset.n_frames} frames with alpha {alpha:.4f}"
    else:
        # score both against an unshrunk truth twin
        truth = run_sweep(sweep, replace(chain, tau_fall_ps=chain.tau_rise_ps), regs)
        raw_err = dataset_fidelity(truth, dataset).mean_abs_error
        fixed_err = dataset_fidelity(truth, corrected).mean_abs_error
        report["measured_rate"] = rate
        report["recovered"] = {
            "uncorrected_mean_abs_err": raw_err,
            "corrected_mean_abs_err": fixed_err,
            "improvement": 1.0 - fixed_err / raw_err if raw_err else 0.0,
        }
        closing = f"width error {raw_err:.2f} -> {fixed_err:.2f} carries (alpha {alpha:.4f})"
    return report, partial(save_dataset, corrected), closing


def cmd_ro(args, ring, opts, chain, regs):
    if not all(0 <= node < ring.n for node in opts.capture_nodes):
        raise CliError(f"ro.capture_nodes {list(opts.capture_nodes)} must lie in [0, {ring.n})")
    if chain.k > MAX_CHAIN_LEN:  # before sampling, as run_sweep checks it
        raise CliError(f"device bound: chain.k = {chain.k} > {MAX_CHAIN_LEN}")
    taps = f"chain.k = {chain.k} taps of chain.tau_fall_ps = {chain.tau_fall_ps} ps"
    try:  # stitch_frames's rule needs only these keys: check it before the ring is run
        _stitched_taps(opts.t_capture_ps, chain.tau_fall_ps, chain.k)
    except RingError as exc:
        raise CliError(f"{exc}: ro.t_capture_ps = {opts.t_capture_ps} ps on {taps}") from exc
    chain, regs = sample_chain(chain), sample_registers(regs, chain.k)
    auto_ps = _default_start_ps(chain, regs)  # ring nodes are defined from t = 0
    t_start_ps = auto_ps if opts.t_start_ps is None else opts.t_start_ps
    span = f"ro.n_frames = {opts.n_frames} frames of ro.t_capture_ps = {opts.t_capture_ps} ps"
    start = f"ro.t_start_ps = {t_start_ps} ps"
    try:
        trace = simulate_ring(ring, t_start_ps + opts.n_frames * opts.t_capture_ps + 1_000)
    except EventBudgetError as exc:  # name the keys that set the ring's work
        raise CliError(f"{exc}: ring.n = {ring.n} nodes over {span}") from exc
    except RingError as exc:  # any other: name the keys that set the ring's run
        raise CliError(f"{exc}: ring.release_time_ps = {ring.release_time_ps} ps, {start}, {span}") from exc
    report: dict = {"kind": "ro", "truth": {"tau_gate_ps": ring.tau_gate_ps, "n": ring.n}}
    tau_nominal = chain.spec.tau_fall_ps
    runs = {}
    lines = []
    for node in opts.capture_nodes:
        # a start or period the chain cannot read, or too few pulses, fails before any write
        try:
            ds = run_continuous(
                trace.nodes[node], chain, regs, opts.t_capture_ps, opts.n_frames,
                t_start_ps=t_start_ps,
            )
            series = stitch_frames(ds, tau_nominal)
            m = measure_node_timescale(ring, series, tau_nominal) if opts.measure_timescale else None
        except (LookbackError, RingError) as exc:
            raise CliError(f"node {node}: {exc} in {span} from {start} (auto picks {auto_ps} ps) "
                           f"on {taps}") from exc
        runs[node] = ds, series
        if m is not None:
            rec = report.setdefault("recovered", {})
            rec[f"node_{node}_per_inverter_ps"] = m.per_node_ps
            rec[f"node_{node}_err_ps"] = m.err_ps
            lines.append(f"node {node}: {m.per_node_ps:.2f} +- {m.err_ps:.2f} ps/inverter")

    def write(out: Path) -> None:
        # each node's series is the one stitched when its run was checked
        for node, (ds, series) in runs.items():
            (out / f"node_{node}_edges.csv").write_text(trace.nodes[node].to_csv())
            save_dataset(ds, out / f"node_{node}")
            (out / f"node_{node}_stitched.csv").write_bytes(bit_lines(series[:, None]))
            width = int(np.ceil(np.sqrt(series.size)))
            pad = (-series.size) % width
            strip = np.concatenate([series, np.zeros(pad, dtype=series.dtype)])
            write_pgm(strip.reshape(-1, width), out / f"node_{node}_stitched.pgm")

    return report, write, "\n".join([*lines, "ring artifacts in {out}"])


# ---------------------------------------------------------------------------
# report aggregation
# ---------------------------------------------------------------------------


def _check_calibrate(rep: dict) -> list[tuple[bool, str]]:
    truth, rec = rep["truth"], rep["recovered"]
    checks = []
    for pol in ("rise", "fall"):
        got, err, want = (
            rec[f"tau_{pol}_ps"],
            rec[f"tau_{pol}_err_ps"],
            truth[f"tau_{pol}_ps"],
        )
        checks.append(
            (
                abs(got - want) <= 0.1 and err <= 0.1,
                f"tau_{pol} {got:.4f}+-{err:.4f} ps vs {want:.2f} ps (+-0.1)",
            )
        )
    ssp = rec["single_shot_rise_ps"]
    if rep.get("jitter_sigma_ps", 0.0) > 0:
        checks.append(
            (24.0 <= ssp <= 36.0, f"single-shot {ssp:.2f} ps vs 30 ps +-20%")
        )
    else:
        checks.append((ssp <= 2.0, f"single-shot {ssp:.2f} ps vs quantization floor 2 ps"))
    checks.append(
        (rep["runtime_s"] < 60.0, f"runtime {rep['runtime_s']:.1f} s < 60 s")
    )
    return checks


def _check_shrink(rep: dict) -> list[tuple[bool, str]]:
    rate, want = rep["recovered"]["rate"], rep["truth"]["rate"]
    return [
        (0.06 <= rate <= 0.12, f"rate {rate:.4f} in [0.06, 0.12]"),
        (abs(rate - want) <= 0.05, f"rate {rate:.4f} within 0.05 of {want:.4f}"),
    ]


def _check_correct(rep: dict) -> list[tuple[bool, str]]:
    rec = rep.get("recovered")
    if not rec:
        return [(True, f"filter run, alpha {rep['alpha']:.4f}")]
    return [
        (
            rec["improvement"] >= 0.5,
            "width error {:.2f} -> {:.2f} carries ({:.0%} improvement, need 50%)".format(
                rec["uncorrected_mean_abs_err"],
                rec["corrected_mean_abs_err"],
                rec["improvement"],
            ),
        )
    ]


def _check_ro(rep: dict) -> list[tuple[bool, str]]:
    rec = rep.get("recovered")
    if not rec:
        return [(True, "trace exported (no timescale measurement)")]
    want = rep["truth"]["tau_gate_ps"]
    checks = []
    for key, got in rec.items():
        if key.endswith("_per_inverter_ps"):
            checks.append(
                (abs(got - want) <= 6.0, f"{key} {got:.2f} ps vs {want:.0f} (+-6)")
            )
    if not checks:
        raise KeyError("recovered names no node_*_per_inverter_ps")
    return checks


_CHECKERS = {
    "calibrate": _check_calibrate,
    "shrink": _check_shrink,
    "correct": _check_correct,
    "ro": _check_ro,
    "sweep": lambda rep: [(isinstance(rep["n_frames"], int) and rep["n_frames"] >= 2,
                           f"{rep['n_frames']} frames (SweepSpec.n_steps >= 2)")],
}


def cmd_report(args) -> int:
    import json

    if not args.inputs:
        raise CliError("report needs at least one result directory")
    failures = 0
    for d in args.inputs:
        path = Path(d) / "report.json"
        if not path.exists():
            raise CliError(f"{path} does not exist")
        try:
            rep = json.loads(path.read_text())
        except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not JSON
            raise CliError(f"{path} is not a readable JSON report: {exc}") from exc
        kind = rep.get("kind") if isinstance(rep, dict) else None
        if not isinstance(kind, str) or kind not in _CHECKERS:
            raise CliError(f"{path}: unknown report kind {kind!r}")
        try:
            checks = _CHECKERS[kind](rep)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CliError(f"{path}: malformed {kind} report: {exc!r}") from exc
        for ok, desc in checks:
            failures += 0 if ok else 1
            print(f"{'PASS' if ok else 'FAIL'}  {d} [{kind}] {desc}")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@cache  # one parser per process: each parse returns a fresh Namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavecap",
        description="Simulated carry-chain waveform capture and analysis.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, command, help_text, inputs=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--config",
            required=True,
            help="config file path, or preset:NAME for a bundled preset",
        )
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument(
            "--seed", type=int, default=0, help="offset added to every seed"
        )
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
        if inputs:
            p.add_argument("inputs", nargs="*", help="existing dataset directories")
        p.set_defaults(func=partial(_run, command))

    add("sweep", cmd_sweep, "run a phase sweep and save the dataset")
    add("calibrate", cmd_calibrate, "recover carry times from sweeps", inputs=True)
    add("shrink", cmd_shrink, "measure the pulse-width contraction rate")
    add("correct", cmd_correct, "apply pulse-shrinking correction", inputs=True)
    add("ro", cmd_ro, "simulate and capture a ring oscillator")
    rp = sub.add_parser("report", help="aggregate report.json files into pass/fail")
    rp.add_argument("inputs", nargs="*", help="result directories")
    rp.add_argument("--quiet", action="store_true")
    rp.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except WavecapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
