"""The benchmark's workloads, the configs it generates for them, and op checks.

An op is one workload seed driven through ``wavecap.cli.main`` in-process.
Every op is checked three ways: each CLI exit code is 0, no ``wavecap
report`` line says FAIL, and the digest of the op's scientific outputs
matches the one recorded in ``digests.json`` for that workload and seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DIGESTS = Path(__file__).resolve().parent / "digests.json"

# Chain, register, source and sweep keys shared by the sweep-mode configs.
_SWEEP_BASE = {
    "format_version": "1",
    "kind": "sweep",
    "chain.k": "1300",
    "chain.tau_rise_ps": "4.91",
    "chain.tau_fall_ps": "4.54",
    "chain.tau_sigma_ps": "0.02",
    "chain.entry_delay_ps": "0.0",
    "chain.entry_min_pulse_ps": "50.0",
    "chain.dnl_ramp": "none",
    "chain.seed": "100",
    "chain.allow_inverted": "false",
    "regs.clock_jitter_sigma_ps": "0.0",
    "regs.skew_sigma_ps": "0.0",
    "regs.seed": "200",
    "source.phase_offset_ps": "0.0",
    "source.period_jitter_sigma_ps": "0.0",
    "source.seed": "1000",
    "sweep.t_capture_ps": "5000.0",
    "sweep.relock_dead_cycles": "2,40",
    "sweep.seed": "0",
}

# fig4: 8 channels x 512 phase steps of a 100 MHz, 25 % duty source with
# 30 ps crystal jitter.
CALIBRATE = {
    **_SWEEP_BASE,
    "calibrate.n_channels": "8",
    "calibrate.min_run": "15",
    "source.frequency_hz": "100000000.0",
    "source.duty_cycle": "0.25",
    "sweep.dt_ps": "78.0",
    "sweep.n_steps": "512",
    "sweep.crystal_jitter_sigma_ps": "30.0",
}

# fig3c: 600 MHz square wave swept in 104 ps steps, jitter-free.  The preset
# has chain.tau_sigma_ps = 0; 0.02 here makes the seed move the chain draw.
SHRINK_SWEEP = {
    **_SWEEP_BASE,
    "source.frequency_hz": "600000000.0",
    "source.duty_cycle": "0.5",
    "sweep.dt_ps": "104.0",
    "sweep.n_steps": "256",
    "sweep.crystal_jitter_sigma_ps": "0.0",
}

# fig6: the fig3c sweep plus correction settings.
CORRECT = {
    **SHRINK_SWEEP,
    "correct.gap_threshold": "15",
    "correct.dilation_factor": "auto",
}

# appendix-ro19: a 19-node ring carrying one stable pulse, stretched from 150
# to 2,000 frames, with a 50 ps entry filter so capture rejects short pulses.
RING = {
    "format_version": "1",
    "ring.n": "19",
    "ring.tau_gate_ps": "240.0",
    "ring.tau_sigma_ps": "0.0",
    "ring.tau_fall_extra_ps": "0.0",
    "ring.min_pulse_ps": "50.0",
    "ring.initial_state": "pulse",
    "ring.release_time_ps": "0.0",
    "ring.seed": "0",
    "ro.t_capture_ps": "5000.0",
    "ro.n_frames": "2000",
    "ro.t_start_ps": "15000.0",
    "ro.capture_nodes": "0",
    "ro.measure_timescale": "true",
    "chain.k": "1024",
    "chain.tau_rise_ps": "5.0",
    "chain.tau_fall_ps": "5.0",
    "chain.tau_sigma_ps": "0.0",
    "chain.entry_delay_ps": "0.0",
    "chain.entry_min_pulse_ps": "50.0",
    "chain.dnl_ramp": "none",
    "chain.seed": "100",
    "chain.allow_inverted": "false",
    "regs.clock_jitter_sigma_ps": "0.0",
    "regs.skew_sigma_ps": "0.0",
    "regs.seed": "200",
}


def config_text(kv: dict[str, str]) -> str:
    return "".join(f"{k} = {v}\n" for k, v in kv.items())


def _calibrate_ops(cfg: dict[str, Path], out: Path):
    return [["calibrate", "--config", str(cfg["main"]), "--out", str(out / "cal")]]


def _correct_ops(cfg: dict[str, Path], out: Path):
    raw, fixed, rec = out / "raw", out / "fixed", out / "rec"
    return [
        ["sweep", "--config", str(cfg["sweep"]), "--out", str(raw)],
        ["correct", "--config", str(cfg["main"]), "--out", str(fixed), str(raw)],
        ["correct", "--config", str(cfg["main"]), "--out", str(rec)],
    ]


def _ring_ops(cfg: dict[str, Path], out: Path):
    return [["ro", "--config", str(cfg["main"]), "--out", str(out / "ro")]]


def _calibrate_accuracy(reports: dict[str, dict]) -> dict[str, float]:
    rep = reports["cal"]
    truth, rec = rep["truth"], rep["recovered"]
    return {
        "tau_err_ps": max(abs(rec[f"tau_{p}_ps"] - truth[f"tau_{p}_ps"]) for p in ("rise", "fall")),
        "single_shot_err_ps": abs(rec["single_shot_rise_ps"] - rep["jitter_sigma_ps"]),
    }


def _correct_accuracy(reports: dict[str, dict]) -> dict[str, float]:
    return {"width_err_carries": reports["rec"]["recovered"]["corrected_mean_abs_err"]}


def _ring_accuracy(reports: dict[str, dict]) -> dict[str, float]:
    rep = reports["ro"]
    return {"gate_delay_err_ps": abs(rep["recovered"]["node_0_per_inverter_ps"]
                                     - rep["truth"]["tau_gate_ps"])}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str  # why it was chosen, and which layer it leaves idle
    configs: dict[str, dict[str, str]]  # "main" is the one set-up loads
    size_key: str  # config key that scales the frame count
    frames_per_size: int  # frames captured per op per unit of size_key
    ops: Callable[[dict[str, Path], Path], list[list[str]]]
    accuracy: Callable[[dict[str, dict]], dict[str, float]]

    @property
    def size(self) -> int:
        return int(self.configs["main"][self.size_key])

    @property
    def frames_per_op(self) -> int:
        return self.size * self.frames_per_size

    def resized(self, size: int) -> "Workload":
        """The same workload with size_key set to size in every config."""
        configs = {name: {**kv, self.size_key: str(size)} if self.size_key in kv else kv
                   for name, kv in self.configs.items()}
        return Workload(self.name, self.why, configs, self.size_key,
                        self.frames_per_size, self.ops, self.accuracy)

    def write_configs(self, directory: Path) -> dict[str, Path]:
        directory.mkdir(parents=True, exist_ok=True)
        paths = {}
        for name, kv in self.configs.items():
            paths[name] = directory / f"{self.name}-{name}.config"
            paths[name].write_text(config_text(kv))
        return paths

    def argvs(self, cfg: dict[str, Path], out: Path, seed: int) -> list[list[str]]:
        return [argv + ["--seed", str(seed), "--quiet"] for argv in self.ops(cfg, out)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "calibrate",
            "fig4 calibration: the calibrate layer (smooth_bits) does ~90% of the work; "
            "sweep-mode capture ~6%; storage idle",
            {"main": CALIBRATE},
            "sweep.n_steps",
            8,
            _calibrate_ops,
            _calibrate_accuracy,
        ),
        Workload(
            "correct",
            "fig3c/fig6 write-then-read round trip: storage save+load ~47%, 600 MHz "
            "sweep capture ~23%, smooth_bits ~18%, correct ~6%; ringosc idle",
            {"sweep": SHRINK_SWEEP, "main": CORRECT},
            "sweep.n_steps",
            3,  # the raw sweep, then the recovery run's dataset and its twin
            _correct_ops,
            _correct_accuracy,
        ),
        Workload(
            "ring",
            "appendix-ro19 at 2,000 frames: the only continuous capture of a long waveform, "
            "where reject_short_pulses cost per frame grows with run length; calibrate idle",
            {"main": RING},
            "ro.n_frames",
            1,
            _ring_ops,
            _ring_accuracy,
        ),
    )
}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def output_digest(out: Path) -> str:
    """sha256 over an op's scientific outputs.

    Covers every CSV file (frames, times, transfer function, node traces) and
    each report.json without runtime_s.  manifest.json (which carries a
    timestamp), the PGM renderings and the copied configs are left out.
    """
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        if path.suffix == ".csv":
            data = path.read_bytes()
        elif path.name == "report.json":
            rep = json.loads(path.read_text())
            rep.pop("runtime_s", None)
            data = json.dumps(rep, sort_keys=True).encode()
        else:
            continue
        h.update(f"{path.relative_to(out).as_posix()}\0".encode())
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest()


def load_digests() -> dict[str, dict[int, str]]:
    raw = json.loads(DIGESTS.read_text())
    return {name: {int(seed): d for seed, d in table.items()} for name, table in raw.items()}


def report_failures(cli_main, result_dirs: list[Path]) -> list[str]:
    """Run `wavecap report` on the op's result directories; return FAIL lines."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(["report", *map(str, result_dirs)])
    lines = buf.getvalue().splitlines()
    bad = [line for line in lines if line.startswith("FAIL")]
    if code != 0 and not bad:
        bad.append(f"wavecap report exited with {code}")
    return bad


def read_reports(out: Path) -> dict[str, dict]:
    """report.json of each result directory, keyed by directory name."""
    return {p.parent.name: json.loads(p.read_text()) for p in sorted(out.glob("*/report.json"))}
