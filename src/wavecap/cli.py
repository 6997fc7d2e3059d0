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
from dataclasses import replace
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .calibrate import calibrate, shrink_analysis
from .correct import CorrectionSpec, correct_dataset, dataset_fidelity
from .ringosc import (
    RingSpec,
    measure_node_timescale,
    simulate_ring,
    stable_pulse_state,
    stitch_frames,
)
from .storage import (
    StorageError,
    bit_lines,
    chain_from_config,
    check_format_version,
    load_dataset,
    parse_config_text,
    regs_from_config,
    save_dataset,
    sweep_from_config,
    write_pgm,
    write_report,
)
from .sweep import run_continuous, run_sweep

OUT_ROOT_ENV = "WAVECAP_OUT_ROOT"


class CliError(Exception):
    pass


def _load_config(path: str) -> dict[str, str]:
    if path.startswith("preset:"):
        name = path.split(":", 1)[1]
        ref = resources.files("wavecap.presets") / f"{name}.config"
        if not ref.is_file():
            raise CliError(f"no preset named {name!r}")
        text = ref.read_text()
    else:
        p = Path(path)
        if not p.exists():
            raise CliError(f"config file {path} does not exist")
        text = p.read_text()
    kv = parse_config_text(text)
    check_format_version(kv)
    return kv


def _pop(kv: dict, key: str, conv, default):
    if key not in kv:
        return default
    return conv(kv.pop(key))


def _reject_leftovers(kv: dict) -> None:
    if kv:
        raise CliError(f"unknown config keys: {sorted(kv)}")


def _out_dir(args) -> Path:
    out = Path(args.out)
    if not out.is_absolute():
        out = Path(os.environ.get(OUT_ROOT_ENV, ".")) / out
    out.mkdir(parents=True, exist_ok=True)
    return out


def _shift_seeds(chain, regs, sweep, offset: int):
    if offset == 0:
        return chain, regs, sweep
    chain = replace(chain, seed=chain.seed + offset)
    regs = replace(regs, seed=regs.seed + offset)
    if sweep is not None:
        sweep = replace(
            sweep,
            seed=sweep.seed + offset,
            source=replace(sweep.source, seed=sweep.source.seed + offset),
        )
    return chain, regs, sweep


def _say(args, msg: str) -> None:
    if not args.quiet:
        print(msg)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_sweep(args) -> int:
    kv = _load_config(args.config)
    chain = chain_from_config(kv)
    regs = regs_from_config(kv)
    if _pop(kv, "kind", str, "sweep") != "sweep":
        raise CliError("sweep needs a config with kind = sweep")
    sweep = sweep_from_config(kv)
    _reject_leftovers(kv)
    chain, regs, sweep = _shift_seeds(chain, regs, sweep, args.seed)
    out = _out_dir(args)
    t0 = time.perf_counter()
    dataset = run_sweep(sweep, chain, regs)
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


def _sweep_channels(kv: dict, seed_offset: int, n_channels: int):
    chain = chain_from_config(kv)
    regs = regs_from_config(kv)
    if _pop(kv, "kind", str, "sweep") != "sweep":
        raise CliError("calibration needs a config with kind = sweep")
    sweep = sweep_from_config(kv)
    datasets = []
    for ch in range(n_channels):
        c, r, s = _shift_seeds(chain, regs, sweep, seed_offset + 1000 * ch)
        datasets.append(run_sweep(s, c, r))
    return chain, datasets


def cmd_calibrate(args) -> int:
    kv = _load_config(args.config)
    n_channels = _pop(kv, "calibrate.n_channels", int, 1)
    min_run = _pop(kv, "calibrate.min_run", int, 15)
    t0 = time.perf_counter()
    if args.inputs:
        datasets = [load_dataset(d) for d in args.inputs]
        chain = datasets[0].chain_spec
        _pop(kv, "kind", str, "sweep")
        for prefix in ("chain.", "regs.", "source.", "sweep."):
            for key in [k for k in kv if k.startswith(prefix)]:
                kv.pop(key)
        _reject_leftovers(kv)
    else:
        chain, datasets = _sweep_channels(kv, args.seed, n_channels)
        _reject_leftovers(kv)
    result = calibrate(datasets, min_run=min_run)
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
        "min_run": min_run,
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
    kv = _load_config(args.config)
    min_run = _pop(kv, "shrink.min_run", int, 15)
    bin_width = _pop(kv, "shrink.bin_width", int, 25)
    chain = chain_from_config(kv)
    regs = regs_from_config(kv)
    if _pop(kv, "kind", str, "sweep") != "sweep":
        raise CliError("shrink needs a config with kind = sweep")
    sweep = sweep_from_config(kv)
    _reject_leftovers(kv)
    chain, regs, sweep = _shift_seeds(chain, regs, sweep, args.seed)
    t0 = time.perf_counter()
    dataset = run_sweep(sweep, chain, regs)
    res = shrink_analysis(dataset, min_run=min_run, bin_width=bin_width)
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
    kv = _load_config(args.config)
    gap_threshold = _pop(kv, "correct.gap_threshold", int, 15)
    alpha_raw = _pop(kv, "correct.dilation_factor", str, "auto")
    min_run = _pop(kv, "correct.min_run", int, 15)
    bin_width = _pop(kv, "correct.bin_width", int, 25)
    out = _out_dir(args)
    t0 = time.perf_counter()
    if args.inputs:
        # filter mode: correct an existing dataset directory
        if len(args.inputs) != 1:
            raise CliError("correct takes at most one input dataset")
        for prefix in ("chain.", "regs.", "source.", "sweep.", "kind"):
            for key in [k for k in kv if k.startswith(prefix)]:
                kv.pop(key)
        _reject_leftovers(kv)
        dataset = load_dataset(args.inputs[0])
        alpha = (
            1.0 - shrink_analysis(dataset, min_run=min_run, bin_width=bin_width).rate
            if alpha_raw == "auto"
            else float(alpha_raw)
        )
        corrected = correct_dataset(dataset, CorrectionSpec(gap_threshold, alpha))
        save_dataset(corrected, out)
        write_report(
            {
                "kind": "correct",
                "alpha": alpha,
                "runtime_s": round(time.perf_counter() - t0, 3),
            },
            out / "report.json",
        )
        _say(args, f"corrected {dataset.n_frames} frames with alpha {alpha:.4f}")
        return 0
    # recovery mode: generate the dataset, an unshrunk truth twin, and score
    chain = chain_from_config(kv)
    regs = regs_from_config(kv)
    if _pop(kv, "kind", str, "sweep") != "sweep":
        raise CliError("correct needs a config with kind = sweep")
    sweep = sweep_from_config(kv)
    _reject_leftovers(kv)
    chain, regs, sweep = _shift_seeds(chain, regs, sweep, args.seed)
    dataset = run_sweep(sweep, chain, regs)
    truth_chain = replace(chain, tau_fall_ps=chain.tau_rise_ps)
    truth = run_sweep(sweep, truth_chain, regs)
    rate = shrink_analysis(dataset, min_run=min_run, bin_width=bin_width).rate
    alpha = 1.0 - rate if alpha_raw == "auto" else float(alpha_raw)
    corrected = correct_dataset(dataset, CorrectionSpec(gap_threshold, alpha))
    save_dataset(corrected, out)
    raw_err = dataset_fidelity(truth, dataset).mean_abs_error
    fixed_err = dataset_fidelity(truth, corrected).mean_abs_error
    write_report(
        {
            "kind": "correct",
            "alpha": alpha,
            "measured_rate": rate,
            "recovered": {
                "uncorrected_mean_abs_err": raw_err,
                "corrected_mean_abs_err": fixed_err,
                "improvement": 1.0 - fixed_err / raw_err if raw_err else 0.0,
            },
            "runtime_s": round(time.perf_counter() - t0, 3),
        },
        out / "report.json",
    )
    _say(
        args,
        f"width error {raw_err:.2f} -> {fixed_err:.2f} carries "
        f"(alpha {alpha:.4f})",
    )
    return 0


def cmd_ro(args) -> int:
    kv = _load_config(args.config)
    n = _pop(kv, "ring.n", int, None)
    if n is None:
        raise CliError("ring.n is required")
    init_raw = _pop(kv, "ring.initial_state", str, "zeros")
    if init_raw == "pulse":
        init = stable_pulse_state(n)
    elif init_raw == "zeros":
        init = tuple(0 for _ in range(n))
    else:
        init = tuple(int(b) for b in init_raw.split(","))
    ring = RingSpec(
        n=n,
        tau_gate_ps=_pop(kv, "ring.tau_gate_ps", float, 240.0),
        tau_sigma_ps=_pop(kv, "ring.tau_sigma_ps", float, 0.0),
        tau_fall_extra_ps=_pop(kv, "ring.tau_fall_extra_ps", float, 0.0),
        min_pulse_ps=_pop(kv, "ring.min_pulse_ps", float, 50.0),
        initial_state=init,
        release_time_ps=_pop(kv, "ring.release_time_ps", float, 0.0),
        seed=_pop(kv, "ring.seed", int, 0) + args.seed,
    )
    t_capture = _pop(kv, "ro.t_capture_ps", float, 5_000.0)
    n_frames = _pop(kv, "ro.n_frames", int, 64)
    t_start = _pop(kv, "ro.t_start_ps", float, 15_000.0)
    nodes_raw = _pop(kv, "ro.capture_nodes", str, "0")
    capture_nodes = [int(v) for v in nodes_raw.split(",")]
    measure = _pop(kv, "ro.measure_timescale", str, "false") == "true"
    chain = chain_from_config(kv)
    regs = regs_from_config(kv)
    _reject_leftovers(kv)
    chain, regs, _ = _shift_seeds(chain, regs, None, args.seed)

    out = _out_dir(args)
    t0 = time.perf_counter()
    duration = t_start + n_frames * t_capture + 1_000
    trace = simulate_ring(ring, duration)
    report: dict = {
        "kind": "ro",
        "truth": {"tau_gate_ps": ring.tau_gate_ps, "n": ring.n},
    }
    tau_nominal = chain.tau_fall_ps
    for node in capture_nodes:
        (out / f"node_{node}_edges.csv").write_text(trace.node(node).to_csv())
        ds = run_continuous(
            trace.node(node), chain, regs, t_capture, n_frames, t_start_ps=t_start
        )
        save_dataset(ds, out / f"node_{node}")
        series = stitch_frames(ds, tau_nominal)
        (out / f"node_{node}_stitched.csv").write_bytes(bit_lines(series[:, None]).tobytes())
        width = int(np.ceil(np.sqrt(series.size)))
        pad = (-series.size) % width
        strip = np.concatenate([series, np.zeros(pad, dtype=series.dtype)])
        write_pgm(strip.reshape(-1, width), out / f"node_{node}_stitched.pgm")
        if measure:
            m = measure_node_timescale(ring, ds, tau_nominal)
            report.setdefault("recovered", {})[f"node_{node}_per_inverter_ps"] = (
                m.per_node_ps
            )
            report["recovered"][f"node_{node}_err_ps"] = m.err_ps
            _say(args, f"node {node}: {m.per_node_ps:.2f} +- {m.err_ps:.2f} ps/inverter")
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
