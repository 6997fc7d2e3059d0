"""Every config key changes what a run computes.

A small sweep config and a small ring config, each with every sigma above
zero so that every seed draws something, are run once as they are and once
per key with that key set to another valid value.  Each edit must change a
computed output (the CSV files and the report's recovered figures, not the
echoed specs) or exit 2.  A key that does neither is read for nothing; only
the keys of ``SILENT`` may, each for the reason it gives, and each of them
must still change nothing, so the list shrinks when one of them is deleted
or made live.
"""

import hashlib
import json
from dataclasses import is_dataclass
from pathlib import Path

import pytest

from wavecap import cli, storage
from wavecap.cli import main

SWEEP = {
    "chain.k": ("400", "402"),
    "chain.tau_rise_ps": ("4.91", "5.0"),
    "chain.tau_fall_ps": ("4.54", "4.6"),
    "chain.tau_sigma_ps": ("0.05", "0.1"),
    "chain.entry_delay_ps": ("10.0", "30.0"),
    "chain.entry_min_pulse_ps": ("50.0", "2000.0"),  # longer than the source's high level
    "chain.dnl_ramp": ("1.5,1.2", "1.5,1.3"),
    "chain.seed": ("100", "107"),
    "chain.allow_inverted": ("false", "true"),
    "regs.clock_jitter_sigma_ps": ("1.0", "2.0"),
    "regs.skew_sigma_ps": ("2.0", "3.0"),
    "regs.seed": ("200", "207"),
    "source.frequency_hz": ("300000000.0", "310000000.0"),
    "source.duty_cycle": ("0.3", "0.35"),
    "source.phase_offset_ps": ("100.0", "150.0"),
    "source.period_jitter_sigma_ps": ("1.0", "2.0"),
    "source.seed": ("1000", "1007"),
    "sweep.t_capture_ps": ("1500.0", "1600.0"),
    "sweep.dt_ps": ("78.0", "80.0"),
    "sweep.n_steps": ("32", "34"),
    "sweep.relock_dead_cycles": ("2,40", "3,41"),
    "sweep.crystal_jitter_sigma_ps": ("30.0", "40.0"),
    "sweep.seed": ("0", "7"),
}

RING = {
    "ring.n": ("5", "7"),
    "ring.tau_gate_ps": ("240.0", "250.0"),
    "ring.tau_sigma_ps": ("5.0", "6.0"),
    "ring.tau_fall_extra_ps": ("20.0", "30.0"),
    "ring.min_pulse_ps": ("50.0", "60.0"),
    "ring.initial_state": ("pulse", "1,0,1,0,0"),
    "ring.release_time_ps": ("10.0", "20.0"),
    "ring.seed": ("0", "7"),
    "ro.t_capture_ps": ("5000.0", "5100.0"),
    "ro.n_frames": ("8", "10"),
    "ro.t_start_ps": ("15000.0", "15100.0"),
    "ro.capture_nodes": ("0", "2"),
    "ro.measure_timescale": ("true", "false"),
    # the sweep's chain and register keys, on a chain that spans a 5 ns frame
    **{key: edit for key, edit in SWEEP.items() if key.startswith(("chain.", "regs."))},
    "chain.k": ("1024", "1026"),
    "chain.tau_rise_ps": ("5.0", "5.1"),
    "chain.tau_fall_ps": ("5.0", "4.9"),
}

SILENT = {
    "chain.allow_inverted": "a validation switch: it only lets a config through",
    "regs.clock_jitter_sigma_ps": "read, validated and saved, but no capture applies it (ROADMAP "
                                  "item 4); the benchmark's configs set it",
    "ring.min_pulse_ps": "only a precondition check and the event budget's horizon (ROADMAP "
                         "item 14); the benchmark's ring config sets it",
}

RUNS = {"sweep": SWEEP, "ro": RING}


def config_keys(command: str) -> set[str]:
    """The key of every field of the specs the command reads."""
    def keys(cls, prefix):
        for _, key, hint, _ in storage._spec_keys(cls, prefix):
            yield from keys(hint, key) if is_dataclass(hint) else [key]

    return {key for prefix, cls in cli._SPECS[command].items() for key in keys(cls, prefix)}


def computed(tmp_path: Path, command: str, edit: dict[str, str]):
    """sha256 of the run's CSV files and recovered figures, or None on exit 2."""
    values = {key: base for key, (base, _) in RUNS[command].items()} | edit
    kind = {"ro": {}, "sweep": {"kind": "sweep"}}[command]
    run = tmp_path / str(len(list(tmp_path.iterdir())))
    run.mkdir()
    (run / "c.config").write_text("".join(f"{k} = {v}\n" for k, v in
                                          {"format_version": "1", **kind, **values}.items()))
    code = main([command, "--config", str(run / "c.config"), "--out", str(run / "out"), "--quiet"])
    if code == 2:
        return None
    assert code == 0
    h = hashlib.sha256()
    for path in sorted((run / "out").rglob("*.csv")):
        h.update(path.relative_to(run).as_posix().encode() + b"\0" + path.read_bytes())
    report = json.loads((run / "out" / "report.json").read_text())
    h.update(json.dumps(report.get("recovered")).encode())
    return h.hexdigest()


@pytest.mark.parametrize("command", sorted(RUNS))
def test_every_key_is_edited(command):
    assert set(RUNS[command]) == config_keys(command)


@pytest.mark.parametrize("command", sorted(RUNS))
def test_every_key_changes_a_computed_output(tmp_path, command):
    base = computed(tmp_path, command, {})
    assert base is not None
    changed = {key: computed(tmp_path, command, {key: new}) != base
               for key, (_, new) in RUNS[command].items()}
    assert {key for key, moved in changed.items() if not moved} == set(SILENT) & set(changed)
