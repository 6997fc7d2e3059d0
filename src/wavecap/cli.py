"""Command-line driver.

Each subcommand reads a flat key = value config (shipped presets live under
wavecap/presets), writes its artifacts into an output directory, and leaves
a report.json that `wavecap report` can aggregate into a pass/fail table.
The WAVECAP_OUT_ROOT environment variable sets the root for relative --out
paths.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, fields, is_dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .calibrate import calibrate, shrink_analysis
from .chain import ChainSpec, RegisterSpec
from .correct import CorrectionSpec, correct_dataset, dataset_fidelity
from .ringosc import RingSpec, measure_node_timescale, simulate_ring, stitch_frames
from .storage import (
    StorageError,
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
from .sweep import SweepSpec, run_continuous, run_sweep
from .units import require_finite

OUT_ROOT_ENV = "WAVECAP_OUT_ROOT"


class CliError(Exception):
    pass


@dataclass(frozen=True)
class CalibrateOptions:
    n_channels: int = 1  # sweeps generated, each with seeds shifted by 1000
    min_run: int = 15


@dataclass(frozen=True)
class ShrinkOptions:
    min_run: int = 15
    bin_width: int = 25


@dataclass(frozen=True)
class CorrectOptions(ShrinkOptions):
    """The contraction-rate options plus those of the correction."""

    gap_threshold: int = 15
    dilation_factor: Optional[float] = None  # auto: 1 - the measured contraction rate

    def __post_init__(self):
        alpha = 1.0 if self.dilation_factor is None else self.dilation_factor
        CorrectionSpec(self.gap_threshold, alpha)


@dataclass(frozen=True)
class RoOptions:
    t_capture_ps: float = 5_000.0
    n_frames: int = 64
    t_start_ps: float = 15_000.0
    capture_nodes: tuple[int, ...] = (0,)
    measure_timescale: bool = False

    def __post_init__(self):
        require_finite(self, ValueError)


# the spec read from each config key prefix, per command
_SWEEP_SPECS = {"chain": ChainSpec, "regs": RegisterSpec, "sweep": SweepSpec}
_SPECS = {
    "sweep": _SWEEP_SPECS,
    "calibrate": {"calibrate": CalibrateOptions, **_SWEEP_SPECS},
    "shrink": {"shrink": ShrinkOptions, **_SWEEP_SPECS},
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


def _say(args, msg: str) -> None:
    if not args.quiet:
        print(msg)


# ---------------------------------------------------------------------------
# subcommands: each reads and validates its specs, runs, and only then
# creates --out and writes, so a failed run leaves no output behind
# ---------------------------------------------------------------------------


def cmd_sweep(args) -> int:
    chain, regs, sweep = _specs(args)
    t0 = time.perf_counter()
    dataset = run_sweep(sweep, chain, regs)
    out = _out_dir(args)
    save_dataset(dataset, out)
    write_report(
        {
            "kind": "sweep",
            "n_frames": dataset.n_frames,
            "chain_k": chain.k,
            "truth": {"tau_rise_ps": chain.tau_rise_ps, "tau_fall_ps": chain.tau_fall_ps},
            "runtime_s": round(time.perf_counter() - t0, 3),
        },
        out / "report.json",
    )
    _say(args, f"wrote {dataset.n_frames} frames to {out}")
    return 0


def cmd_calibrate(args) -> int:
    opts, chain, regs, sweep = _specs(args)
    t0 = time.perf_counter()
    if args.inputs:
        datasets = [load_dataset(d) for d in args.inputs]
        chain = datasets[0].chain_spec
    else:
        datasets = [
            run_sweep(*(_shift_seeds(spec, 1000 * ch) for spec in (sweep, chain, regs)))
            for ch in range(opts.n_channels)
        ]
    result = calibrate(datasets, min_run=opts.min_run)
    out = _out_dir(args)
    report = {
        "kind": "calibrate",
        "truth": {"tau_rise_ps": chain.tau_rise_ps, "tau_fall_ps": chain.tau_fall_ps},
        "recovered": {
            "tau_rise_ps": result.tau_rise_ps,
            "tau_rise_err_ps": result.tau_rise_err_ps,
            "tau_fall_ps": result.tau_fall_ps,
            "tau_fall_err_ps": result.tau_fall_err_ps,
            "single_shot_rise_ps": result.single_shot_rise_ps,
            "single_shot_fall_ps": result.single_shot_fall_ps,
        },
        "jitter_sigma_ps": (
            datasets[0].sweep_spec.crystal_jitter_sigma_ps
            if datasets[0].sweep_spec
            else 0.0
        ),
        "n_channels": len(datasets),
        "min_run": opts.min_run,
        "runtime_s": round(time.perf_counter() - t0, 3),
    }
    write_report(report, out / "report.json")
    tf = result.t_of_x
    lines = ["index,t_ps,dt_ps"]
    lines += [
        f"{int(i)},{t:.6f},{dt:.6f}" for i, t, dt in zip(tf.index, tf.t_ps, tf.dt_ps)
    ]
    (out / "transfer.csv").write_text("\n".join(lines) + "\n")
    _say(
        args,
        "tau_rise = {tau_rise_ps:.4f} +- {tau_rise_err_ps:.4f} ps, "
        "tau_fall = {tau_fall_ps:.4f} +- {tau_fall_err_ps:.4f} ps, "
        "single-shot {single_shot_rise_ps:.2f} ps".format(**report["recovered"]),
    )
    return 0


def cmd_shrink(args) -> int:
    opts, chain, regs, sweep = _specs(args)
    t0 = time.perf_counter()
    dataset = run_sweep(sweep, chain, regs)
    res = shrink_analysis(dataset, min_run=opts.min_run, bin_width=opts.bin_width)
    out = _out_dir(args)
    save_dataset(dataset, out)
    truth_rate = (chain.tau_rise_ps - chain.tau_fall_ps) / chain.tau_rise_ps
    write_report(
        {
            "kind": "shrink",
            "truth": {"rate": truth_rate},
            "recovered": {"rate": res.rate, "n_pulses": len(res.samples)},
            "runtime_s": round(time.perf_counter() - t0, 3),
        },
        out / "report.json",
    )
    _say(args, f"contraction rate {res.rate:.4f} (configured {truth_rate:.4f})")
    return 0


def cmd_correct(args) -> int:
    # filter mode corrects an existing dataset and reads the specs only to
    # validate the config; recovery mode generates the dataset and scores it
    opts, chain, regs, sweep = _specs(args)
    if len(args.inputs) > 1:
        raise CliError("correct takes at most one input dataset")
    t0 = time.perf_counter()
    dataset = load_dataset(args.inputs[0]) if args.inputs else run_sweep(sweep, chain, regs)
    alpha = opts.dilation_factor
    if alpha is None or not args.inputs:
        rate = shrink_analysis(dataset, min_run=opts.min_run, bin_width=opts.bin_width).rate
    alpha = 1.0 - rate if alpha is None else alpha
    corrected = correct_dataset(dataset, CorrectionSpec(opts.gap_threshold, alpha))
    report = {"kind": "correct", "alpha": alpha}
    if args.inputs:
        msg = f"corrected {dataset.n_frames} frames with alpha {alpha:.4f}"
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
        msg = f"width error {raw_err:.2f} -> {fixed_err:.2f} carries (alpha {alpha:.4f})"
    out = _out_dir(args)
    save_dataset(corrected, out)
    report["runtime_s"] = round(time.perf_counter() - t0, 3)
    write_report(report, out / "report.json")
    _say(args, msg)
    return 0


def cmd_ro(args) -> int:
    ring, opts, chain, regs = _specs(args)
    if not all(0 <= node < ring.n for node in opts.capture_nodes):
        raise CliError(f"ro.capture_nodes {list(opts.capture_nodes)} must lie in [0, {ring.n})")
    t0 = time.perf_counter()
    trace = simulate_ring(ring, opts.t_start_ps + opts.n_frames * opts.t_capture_ps + 1_000)
    report: dict = {"kind": "ro", "truth": {"tau_gate_ps": ring.tau_gate_ps, "n": ring.n}}
    tau_nominal = chain.tau_fall_ps
    datasets = {}
    for node in opts.capture_nodes:
        ds = datasets[node] = run_continuous(
            trace.node(node), chain, regs, opts.t_capture_ps, opts.n_frames,
            t_start_ps=opts.t_start_ps,
        )
        stitch_frames(ds, tau_nominal)  # fails here, before any file is written
        if opts.measure_timescale:
            m = measure_node_timescale(ring, ds, tau_nominal)
            rec = report.setdefault("recovered", {})
            rec[f"node_{node}_per_inverter_ps"] = m.per_node_ps
            rec[f"node_{node}_err_ps"] = m.err_ps
            _say(args, f"node {node}: {m.per_node_ps:.2f} +- {m.err_ps:.2f} ps/inverter")
    out = _out_dir(args)
    for node, ds in datasets.items():
        (out / f"node_{node}_edges.csv").write_text(trace.node(node).to_csv())
        save_dataset(ds, out / f"node_{node}")
        series = stitch_frames(ds, tau_nominal)
        (out / f"node_{node}_stitched.csv").write_bytes(bit_lines(series[:, None]).tobytes())
        width = int(np.ceil(np.sqrt(series.size)))
        pad = (-series.size) % width
        strip = np.concatenate([series, np.zeros(pad, dtype=series.dtype)])
        write_pgm(strip.reshape(-1, width), out / f"node_{node}_stitched.pgm")
    report["runtime_s"] = round(time.perf_counter() - t0, 3)
    write_report(report, out / "report.json")
    _say(args, f"ring artifacts in {out}")
    return 0


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
    return checks


_CHECKERS = {
    "calibrate": _check_calibrate,
    "shrink": _check_shrink,
    "correct": _check_correct,
    "ro": _check_ro,
    "sweep": lambda rep: [(True, f"{rep['n_frames']} frames")],
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
        rep = json.loads(path.read_text())
        kind = rep.get("kind") if isinstance(rep, dict) else None
        if kind not in _CHECKERS:
            raise CliError(f"{path}: unknown report kind {kind!r}")
        try:
            checks = _CHECKERS[kind](rep)
        except (KeyError, TypeError) as exc:
            raise CliError(f"{path}: malformed {kind} report: {exc!r}") from exc
        for ok, desc in checks:
            failures += 0 if ok else 1
            print(f"{'PASS' if ok else 'FAIL'}  {d} [{kind}] {desc}")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavecap",
        description="Simulated carry-chain waveform capture and analysis.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, needs_config=True, inputs=False):
        p = sub.add_parser(name, help=help_text)
        if needs_config:
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
        p.set_defaults(func=func)
        return p

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
    except (CliError, StorageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
