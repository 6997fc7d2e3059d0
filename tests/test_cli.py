import hashlib
import json
import re
import shutil
from dataclasses import is_dataclass
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavecap import cli, storage
from wavecap.cli import main
from wavecap.storage import load_dataset, parse_config_text


def run(*argv):
    return main(list(argv))


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0


def test_unknown_preset_fails(tmp_path, capsys):
    code = run("sweep", "--config", "preset:nope", "--out", str(tmp_path / "x"))
    assert code == 2
    assert "no preset named" in capsys.readouterr().err


def test_sweep_preset_writes_dataset(tmp_path):
    out = tmp_path / "run"
    assert run("sweep", "--config", "preset:fig3c", "--out", str(out), "--quiet") == 0
    ds = load_dataset(out)
    assert ds.n_frames == 256
    assert (out / "frames.pgm").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["kind"] == "sweep"


def test_sweep_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("sweep", "--config", "preset:fig3c", "--out", str(out), "--quiet") == 0
    ha = hashlib.sha256((a / "frames.csv").read_bytes()).hexdigest()
    hb = hashlib.sha256((b / "frames.csv").read_bytes()).hexdigest()
    assert ha == hb


# sha256 of preset outputs, recorded before sweeps captured the unshifted
# source at t0 - n*dt and before frame bits were written in bulk
GOLDEN = [
    ("sweep", "fig3a", "frames.csv",
     "1c476209e98c8c9f204b228f81f6589edf4ca4361e69997a81b8f8d113ec431d"),
    ("sweep", "fig3c", "frames.csv",
     "6ebbfe10b9dea53da0a6ceebe1452dc5fe1d1f2b4d2f4296647c626c7208c080"),
    ("ro", "appendix-ro19", "node_0/frames.csv",
     "534a72bbd79309e40fb69a9bc4d738e8cf19e1d0c6ecd869f8391548a47b4672"),
    ("ro", "appendix-ro19", "node_0_stitched.csv",
     "b093dc24ea25f454f2c360914e1e941683bbf3057e2644b149fd26112c345725"),
    # recorded before specs were written and read from their dataclass fields
    ("sweep", "fig3a", "spec.config",
     "b8ec0dbf96c63a2211be0e26246ecae16490b608621159200dbb061364b93535"),
    ("sweep", "fig3c", "spec.config",
     "7b036cdba07c34a4cf6ebe5fe34e9dd56ef2666642f51a29ac5f052deb9cb9ce"),
    ("ro", "appendix-ro19", "node_0/spec.config",
     "e5d064d042c3e010a97179d777b9726a1e2a227b758b36701f735ea0345ed5b5"),
    # recorded before capture grouped the frames of a call by edge window
    ("correct", "fig6", "frames.csv",
     "4aa11eb9e39bd10d71d478beacc45437bc6b12c3620acf31d7cc5b69b9c63bd6"),
    ("ro", "fig7", "node_0/frames.csv",
     "266b00fc51298c0724672f0343bc8294a2508b8f710eceb05036f3fc6a840259"),
    ("ro", "fig7", "node_1/frames.csv",
     "4fd9b087413c8112d2fbefe77461e544f2d8f399bbe5b8334f114548a1bb6503"),
    ("ro", "fig7", "node_2/frames.csv",
     "fc6df5c07d0fc871060d48690aaa1b708cac1da0ce830fa82467cab944d40b25"),
    # recorded before a dataset was held as one bits matrix
    ("sweep", "fig3a", "times.csv",
     "4a152a806c1fd5f2af51774c92c0fae711e39ff4f6bbf22f7017e4139f9bca6e"),
    ("ro", "appendix-ro19", "node_0/times.csv",
     "a6ad040e45d3d70b376eb77bb3780a80ab787d78fea120807c2aaa6cb6a2f5e8"),
]


@pytest.mark.parametrize("command,preset,name,sha", GOLDEN)
def test_preset_output_is_pinned(tmp_path, command, preset, name, sha):
    out = tmp_path / "run"
    assert run(command, "--config", f"preset:{preset}", "--out", str(out), "--quiet") == 0
    assert hashlib.sha256((out / name).read_bytes()).hexdigest() == sha


def test_seed_override_changes_frames(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("sweep", "--config", "preset:fig3a", "--out", str(a), "--quiet") == 0
    assert (
        run("sweep", "--config", "preset:fig3a", "--out", str(b), "--seed", "7", "--quiet")
        == 0
    )
    assert not np.array_equal(load_dataset(a).bits, load_dataset(b).bits)


def test_out_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("WAVECAP_OUT_ROOT", str(tmp_path))
    assert run("sweep", "--config", "preset:fig3c", "--out", "rel", "--quiet") == 0
    assert (tmp_path / "rel" / "frames.csv").exists()


def test_unknown_config_key_rejected(tmp_path, capsys):
    text = (resources.files("wavecap.presets") / "fig3c.config").read_text()
    cfg = tmp_path / "bad.config"
    cfg.write_text(text + "sweep.bogus_knob = 1\n")
    code = run("sweep", "--config", str(cfg), "--out", str(tmp_path / "x"))
    assert code == 2
    assert "bogus_knob" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key,value",
    [
        ("chain.entry_delay_ps", "inf"),
        ("chain.tau_rise_ps", "nan"),
        ("source.phase_offset_ps", "inf"),
        ("source.period_jitter_sigma_ps", "inf"),
        ("source.frequency_hz", "0"),
        ("regs.clock_jitter_sigma_ps", "inf"),
        ("sweep.dt_ps", "inf"),
        ("chain.entry_min_pulse_ps", "1e308"),
        ("source.phase_offset_ps", "1e308"),
        ("source.period_jitter_sigma_ps", "1e17"),
        *(("chain.dnl_ramp", v) for v in ("nan", "inf", "-inf", "-1", "1e308")),
        *((f"{spec}.seed", "-1") for spec in ("chain", "regs", "sweep", "ring")),
    ],
)
def test_non_finite_or_zero_config_value_exits_2(tmp_path, capsys, key, value):
    command, preset = ("ro", "fig7") if key.startswith("ring.") else ("correct", "fig6")
    cfg = set_config_value(tmp_path, preset, key, value)
    # an escaping exception would fail the test instead of returning
    assert run(command, "--config", cfg, "--out", str(tmp_path / "x")) == 2
    assert key.split(".")[1] in capsys.readouterr().err


def set_config_value(tmp_path, preset, key, value):
    text = (resources.files("wavecap.presets") / f"{preset}.config").read_text()
    edited, n = re.subn(rf"^{re.escape(key)} = .*$", f"{key} = {value}", text, flags=re.M)
    assert n == 1
    cfg = tmp_path / "bad.config"
    cfg.write_text(edited)
    return str(cfg)


@pytest.mark.parametrize(
    "key,value",
    [
        ("ring.tau_gate_ps", "inf"),
        ("ro.t_start_ps", "1e308"),
        ("ring.tau_gate_ps", "1e300"),
        ("ring.tau_sigma_ps", "1e300"),
        ("ring.tau_fall_extra_ps", "1e300"),
    ],
)
def test_ring_time_beyond_femtoseconds_exits_2(tmp_path, capsys, key, value):
    cfg = set_config_value(tmp_path, "fig7", key, value)
    assert run("ro", "--config", cfg, "--out", str(tmp_path / "x")) == 2
    err = capsys.readouterr().err
    assert key.split(".")[1] in err and "finite" in err


def test_ring_duration_beyond_int64_femtoseconds_exits_2(tmp_path, capsys):
    # a 1e12 ps gate keeps the event count small, so only the int64 bound on
    # the 1e16 ps duration can stop the run
    text = (resources.files("wavecap.presets") / "fig7.config").read_text()
    cfg = tmp_path / "ring.config"
    cfg.write_text(
        text.replace("ring.tau_gate_ps = 240.0", "ring.tau_gate_ps = 1e12")
        .replace("ro.t_start_ps = 15000.0", "ro.t_start_ps = 1e16")
    )
    assert run("ro", "--config", str(cfg), "--out", str(tmp_path / "x")) == 2
    assert "duration" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edits,messages",
    [
        # a 1e15 ps phase step stretches the source past int64 fs
        ({"source.frequency_hz": "0.001", "sweep.dt_ps": "1e15", "sweep.n_steps": "10000"},
         ("a 9.999", "does not fit int64")),
        # relock dead cycles of 1e15 ps frames carry the last frame time past it
        ({"chain.tau_rise_ps": "1e12", "chain.tau_fall_ps": "1e12", "source.frequency_hz": "1.0",
          "sweep.t_capture_ps": "1e15", "sweep.n_steps": "8"},
         ("a frame time of 1.893", "does not fit int64")),
        ({"source.frequency_hz": "1.0", "source.phase_offset_ps": "-1e16"},
         ("phase_offset_ps -1e+16", "does not fit int64")),
        ({"sweep.relock_dead_cycles": "2,9223372036854775806"},
         ("a frame time of 1.2", "does not fit int64")),
        # the dead-cycle draw itself is int64
        ({"sweep.relock_dead_cycles": "2,9223372036854775808"}, ("dead-cycle range",)),
    ],
    ids=["source-duration", "dead-cycles", "phase-offset", "dead-cycle-sum", "dead-cycle-range"],
)
def test_sweep_beyond_int64_exits_2(tmp_path, capsys, edits, messages):
    text = (resources.files("wavecap.presets") / "fig3a.config").read_text()
    for key, value in edits.items():
        text, n = re.subn(rf"^{re.escape(key)} = .*$", f"{key} = {value}", text, flags=re.M)
        assert n == 1
    cfg = tmp_path / "sweep.config"
    cfg.write_text(text)
    out = tmp_path / "x"
    assert run("sweep", "--config", str(cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert all(m in err for m in messages), err
    assert not out.exists()


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("chain.entry_delay_ps", "1e300", "does not fit int64"),
        ("chain.tau_sigma_ps", "99999999", "edges"),
        ("sweep.crystal_jitter_sigma_ps", "99999999", "edges"),
        ("source.period_jitter_sigma_ps", "1e9", "no ordered jitter draw"),
        ("chain.tau_sigma_ps", "1e300", "does not fit int64 femtoseconds"),
    ],
)
def test_unbounded_source_exits_2(tmp_path, capsys, key, value, message):
    # each edit once made the source generator run without bound
    cfg = set_config_value(tmp_path, "fig6", key, value)
    assert run("correct", "--config", cfg, "--out", str(tmp_path / "x")) == 2
    err = capsys.readouterr().err
    assert message in err
    if value == "99999999":  # the run_sweep look-back names the term behind it
        assert "look-back" in err and key.split(".")[1] in err


def test_shrink_and_report(tmp_path, capsys):
    out = tmp_path / "sh"
    assert run("shrink", "--config", "preset:fig3c", "--out", str(out), "--quiet") == 0
    assert run("report", str(out)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(line.startswith("PASS") for line in lines if line)


def test_report_flags_failures(tmp_path, capsys):
    out = tmp_path / "sh"
    assert run("shrink", "--config", "preset:fig3c", "--out", str(out), "--quiet") == 0
    rep = json.loads((out / "report.json").read_text())
    rep["recovered"]["rate"] = 0.5
    (out / "report.json").write_text(json.dumps(rep))
    assert run("report", str(out)) == 1
    assert "FAIL" in capsys.readouterr().out


def test_correct_recovery_mode(tmp_path):
    out = tmp_path / "corr"
    assert run("correct", "--config", "preset:fig6", "--out", str(out), "--quiet") == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["recovered"]["improvement"] >= 0.5
    # output dataset has the corrected frames on disk
    ds = load_dataset(out)
    assert ds.n_frames == 256


def test_correct_recovery_report_is_pinned(tmp_path):
    # recorded before correction and fidelity became one pass per dataset
    out = tmp_path / "corr"
    assert run("correct", "--config", "preset:fig6", "--out", str(out), "--quiet") == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["alpha"] == 0.9246246382588122
    assert rep["recovered"]["uncorrected_mean_abs_err"] == 43.06298449612403
    assert rep["recovered"]["corrected_mean_abs_err"] == 0.627906976744186


def test_correct_filter_mode_preserves_phase_index(tmp_path):
    raw = tmp_path / "raw"
    out = tmp_path / "fixed"
    assert run("sweep", "--config", "preset:fig3c", "--out", str(raw), "--quiet") == 0
    assert (
        run("correct", "--config", "preset:fig6", "--out", str(out), str(raw), "--quiet")
        == 0
    )
    a = load_dataset(raw)
    b = load_dataset(out)
    assert np.array_equal(a.phase_index, b.phase_index)
    assert np.any(a.bits != b.bits)


def test_ro_fig7_artifacts(tmp_path):
    out = tmp_path / "ring"
    assert run("ro", "--config", "preset:fig7", "--out", str(out), "--quiet") == 0
    for node in (0, 1, 2):
        assert (out / f"node_{node}_edges.csv").exists()
        assert (out / f"node_{node}_stitched.csv").exists()
        assert (out / f"node_{node}_stitched.pgm").read_bytes().startswith(b"P5")
        assert load_dataset(out / f"node_{node}").n_frames == 16


def test_ro_appendix_recovers_gate_delay(tmp_path):
    out = tmp_path / "ro19"
    assert run("ro", "--config", "preset:appendix-ro19", "--out", str(out), "--quiet") == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["recovered"]["node_0_per_inverter_ps"] == pytest.approx(240.0, abs=6.0)
    assert run("report", str(out)) == 0


def test_calibrate_accepts_existing_datasets(tmp_path):
    dirs = []
    for ch in range(2):
        d = tmp_path / f"ch{ch}"
        assert (
            run(
                "sweep",
                "--config",
                "preset:fig3c",
                "--out",
                str(d),
                "--seed",
                str(1000 * ch),
                "--quiet",
            )
            == 0
        )
        dirs.append(str(d))
    out = tmp_path / "cal"
    assert (
        run("calibrate", "--config", "preset:fig4", "--out", str(out), *dirs, "--quiet")
        == 0
    )
    rep = json.loads((out / "report.json").read_text())
    assert rep["recovered"]["tau_rise_ps"] == pytest.approx(4.91, abs=0.05)
    assert (out / "transfer.csv").read_text().startswith("index,t_ps,dt_ps")


def test_missing_config_file(tmp_path, capsys):
    code = run("sweep", "--config", str(tmp_path / "nope.config"), "--out", str(tmp_path))
    assert code == 2


def test_impossible_ring_config_exits_2(tmp_path, capsys):
    from importlib import resources

    text = (resources.files("wavecap.presets") / "appendix-ro19.config").read_text()
    cfg = tmp_path / "ring.config"
    cfg.write_text(text.replace("ring.min_pulse_ps = 50.0", "ring.min_pulse_ps = 300.0"))
    assert run("ro", "--config", str(cfg), "--out", str(tmp_path / "x"), "--quiet") == 2
    assert "min_pulse" in capsys.readouterr().err


@pytest.mark.parametrize(
    "report, message",
    [
        ({"kind": "calibrate"}, "truth"),
        ({"kind": "ro", "recovered": {"a": 1.0}, "truth": "x"}, "malformed ro report"),
        ([1], "unknown report kind"),
        (b"{not json", "not a readable JSON report"),
        ({"kind": "correct", "alpha": "x"}, "malformed correct report"),
        (
            {
                "kind": "calibrate",
                "truth": {"tau_rise_ps": 4.91, "tau_fall_ps": 4.54},
                "recovered": {"tau_rise_ps": 9.0, "tau_rise_err_ps": "e"},
            },
            "malformed calibrate report",
        ),
        ({"kind": "ro", "recovered": [1], "truth": {"tau_gate_ps": 240.0}}, "malformed ro report"),
    ],
)
def test_malformed_report_exits_2(tmp_path, capsys, report, message):
    data = report if isinstance(report, bytes) else json.dumps(report).encode()
    (tmp_path / "report.json").write_bytes(data)
    assert run("report", str(tmp_path)) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "tamper",
    [
        lambda hashes, outside: {k: v for k, v in hashes.items() if k != "spec.config"},
        lambda hashes, outside: {**hashes, "../outside.csv": outside},
        lambda hashes, outside: sorted(hashes.items()),
        # a dataset saved when the raster was a fourth payload
        lambda hashes, outside: {**hashes, "frames.pgm": outside},
    ],
    ids=["missing-spec", "outside-name", "list", "legacy-pgm"],
)
def test_tampered_manifest_exits_2(tmp_path, capsys, tamper):
    raw = tmp_path / "raw"
    assert run("sweep", "--config", "preset:fig3c", "--out", str(raw), "--quiet") == 0
    outside = tmp_path / "outside.csv"
    outside.write_bytes(b"x")
    manifest = json.loads((raw / "manifest.json").read_text())
    manifest["hashes"] = tamper(
        manifest["hashes"], hashlib.sha256(outside.read_bytes()).hexdigest()
    )
    (raw / "manifest.json").write_text(json.dumps(manifest))
    code = run("correct", "--config", "preset:fig6", "--out", str(tmp_path / "y"), str(raw))
    assert code == 2
    assert "hashes must name exactly" in capsys.readouterr().err


def test_unreadable_dataset_file_exits_2(tmp_path, capsys, raw_sweep):
    out = tmp_path / "y"
    for name in ("manifest.json", "times.csv"):
        path = tmp_path / "raw" / name
        kept = path.read_bytes()
        path.unlink()
        path.mkdir()  # a directory where the file should be
        assert run("correct", "--config", "preset:fig6", "--out", str(out), raw_sweep) == 2
        assert f"cannot read {path}" in capsys.readouterr().err
        assert not out.exists()
        path.rmdir()
        path.write_bytes(kept)
    assert run("correct", "--config", "preset:fig6", "--out", str(out), raw_sweep, "--quiet") == 0


def preset_config(tmp_path, preset, old="", new="", extra=""):
    from importlib import resources

    text = (resources.files("wavecap.presets") / f"{preset}.config").read_text()
    assert old in text
    cfg = tmp_path / f"{preset}-edited.config"
    cfg.write_text(text.replace(old, new) + extra)
    return str(cfg)


@pytest.mark.parametrize(
    "command, preset, old, new, key",
    [
        ("ro", "appendix-ro19", "ro.measure_timescale = true", "ro.measure_timescale = yes",
         "'ro.measure_timescale': expected true/false"),
        ("sweep", "fig3c", "chain.k = 1300", "chain.k = abc", "'chain.k': invalid literal"),
        ("ro", "fig7", "ro.capture_nodes = 0,1,2", "ro.capture_nodes = 5",
         "ro.capture_nodes [5] must lie in [0, 3)"),
        ("ro", "fig7", "ro.capture_nodes = 0,1,2", "ro.capture_nodes = -1",
         "ro.capture_nodes [-1] must lie in [0, 3)"),
        ("ro", "fig7", "ring.initial_state = zeros", "ring.initial_state = 1,x,0",
         "'ring.initial_state': invalid literal"),
        ("correct", "fig6", "correct.dilation_factor = auto", "correct.dilation_factor = big",
         "'correct.dilation_factor': could not convert"),
    ],
    ids=["measure-yes", "k-abc", "nodes-5", "nodes-minus-1", "initial-state", "dilation-big"],
)
def test_bad_config_value_exits_2_naming_the_key(tmp_path, capsys, command, preset, old, new, key):
    cfg = preset_config(tmp_path, preset, old, new)
    out = tmp_path / "x"
    assert run(command, "--config", cfg, "--out", str(out), "--quiet") == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture()
def raw_sweep(tmp_path):
    raw = tmp_path / "raw"
    assert run("sweep", "--config", "preset:fig3c", "--out", str(raw), "--quiet") == 0
    return str(raw)


@pytest.mark.parametrize("command, preset", [("correct", "fig6"), ("calibrate", "fig4")])
def test_filter_mode_rejects_stray_spec_keys(tmp_path, capsys, raw_sweep, command, preset):
    cfg = preset_config(tmp_path, preset, extra="chain.bogus = 1\n")
    assert run(command, "--config", cfg, "--out", str(tmp_path / "y"), raw_sweep) == 2
    assert "unknown config keys: ['chain.bogus']" in capsys.readouterr().err


def test_filter_mode_needs_a_complete_config(tmp_path, capsys, raw_sweep):
    cfg = tmp_path / "only-correct.config"
    cfg.write_text("format_version = 1\ncorrect.gap_threshold = 15\n")
    assert run("correct", "--config", str(cfg), "--out", str(tmp_path / "y"), raw_sweep) == 2
    assert "missing config key 'chain.k'" in capsys.readouterr().err


def test_bad_config_and_out_paths_exit_2(tmp_path, capsys):
    assert run("sweep", "--config", str(tmp_path), "--out", str(tmp_path / "x")) == 2
    assert "cannot read config file" in capsys.readouterr().err
    (tmp_path / "latin-1.config").write_bytes("# caf\xe9\n".encode("latin-1"))
    assert run("sweep", "--config", str(tmp_path / "latin-1.config"), "--out", str(tmp_path / "x")) == 2
    assert "cannot read config file" in capsys.readouterr().err
    (tmp_path / "taken").write_text("")
    assert run("sweep", "--config", "preset:fig3c", "--out", str(tmp_path / "taken")) == 2
    assert "cannot make output directory" in capsys.readouterr().err


# -- one config schema: every key a command reads is a spec field -----------


def command_keys(command):
    """(config key, field default) of every key the command's specs read."""

    def walk(cls, prefix):
        for _, key, hint, default in storage._spec_keys(cls, prefix):
            yield from walk(hint, key) if is_dataclass(hint) else [(key, default)]

    return [kd for prefix, cls in cli._SPECS[command].items() for kd in walk(cls, prefix)]


def output_digests(out):
    """sha256 of every file under out, report.json without its runtime."""
    digests = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "report.json":
            report = json.loads(data)
            del report["runtime_s"]
            data = json.dumps(report, sort_keys=True).encode()
        digests[str(path.relative_to(out))] = hashlib.sha256(data).hexdigest()
    return digests


@pytest.mark.parametrize(
    "command, preset",
    [("sweep", "fig3a"), ("calibrate", "fig4"), ("shrink", "fig3c"), ("correct", "fig6"),
     ("ro", "fig7"), ("ro", "appendix-ro19")],
)
def test_preset_without_its_default_values_is_unchanged(tmp_path, command, preset):
    defaults = {
        key: storage._fmt(default)
        for key, default in command_keys(command)
        if default is not storage._REQUIRED
    }
    text = (resources.files("wavecap.presets") / f"{preset}.config").read_text()
    kept = [
        line for line in text.splitlines()
        if defaults.get(line.partition("=")[0].strip()) != line.partition("=")[2].strip()
    ]
    assert len(kept) < len(text.splitlines())
    cfg = tmp_path / "short.config"
    cfg.write_text("\n".join(kept) + "\n")
    full, short = tmp_path / "full", tmp_path / "short"
    assert run(command, "--config", f"preset:{preset}", "--out", str(full), "--quiet") == 0
    assert run(command, "--config", str(cfg), "--out", str(short), "--quiet") == 0
    assert output_digests(full) == output_digests(short)


# small configs on which every command exits 0 unedited
SMALL_SWEEP = """format_version = 1
kind = sweep
chain.k = 160
chain.tau_rise_ps = 5.0
chain.tau_fall_ps = 4.5
source.frequency_hz = 2000000000.0
sweep.t_capture_ps = 700.0
sweep.dt_ps = 20.0
sweep.n_steps = 40
"""
SMALL_RING = """format_version = 1
ring.n = 3
ro.t_capture_ps = 500.0
ro.n_frames = 4
ro.t_start_ps = 2000.0
chain.k = 128
chain.tau_rise_ps = 5.0
chain.tau_fall_ps = 5.0
"""
FUZZ_VALUES = ["nan", "inf", "-inf", "0", "-1", "abc", "", "1e308", "1e300", "2.5", "1,2"]


@pytest.mark.parametrize("command", sorted(cli._SPECS))
def test_every_config_key_fails_cleanly_on_bad_values(tmp_path, capsys, command):
    base = parse_config_text(SMALL_RING if command == "ro" else SMALL_SWEEP)
    cfg, out = tmp_path / "fuzz.config", tmp_path / "out"
    argv = (command, "--config", str(cfg), "--out", str(out), "--quiet")
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
    assert run(*argv) == 0
    failures = []
    for key, _ in command_keys(command):
        for value in FUZZ_VALUES:
            shutil.rmtree(out, ignore_errors=True)
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**base, key: value}.items()))
            try:
                code = run(*argv)
            except Exception as exc:  # an exception escaping main fails the case
                code = repr(exc)
            if code not in (0, 2) or (code == 2 and out.exists()):
                failures.append((key, value, code))
    capsys.readouterr()
    assert not failures


def test_mutated_dataset_fails_cleanly(tmp_path):
    """Random byte edits of one payload of a saved sweep, non-UTF-8 bytes
    included and the manifest rehashed on some draws: filter-mode correct and
    calibrate each exit 0 or 2, and leave no --out on exit 2."""
    cfg, raw, ds, out = (tmp_path / name for name in ("small.config", "raw", "ds", "out"))
    cfg.write_text(SMALL_SWEEP)
    assert run("sweep", "--config", str(cfg), "--out", str(raw), "--quiet") == 0
    saved = {path.name: path.read_bytes() for path in raw.iterdir()}

    @settings(max_examples=150, deadline=None, database=None)
    @given(
        name=st.sampled_from(sorted(storage._PAYLOAD_FILES)),
        edits=st.lists(
            st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 255)),
            min_size=1,
            max_size=4,
        ),
        rehash=st.booleans(),
    )
    def case(name, edits, rehash):
        files = dict(saved)
        data = bytearray(saved[name])
        for where, byte in edits:
            data[int(where * len(data))] = byte
        files[name] = bytes(data)
        if rehash:
            manifest = json.loads(saved["manifest.json"])
            manifest["hashes"][name] = hashlib.sha256(data).hexdigest()
            files["manifest.json"] = json.dumps(manifest).encode()
        shutil.rmtree(ds, ignore_errors=True)
        ds.mkdir()
        for file, content in files.items():
            (ds / file).write_bytes(content)
        for command in ("correct", "calibrate"):
            shutil.rmtree(out, ignore_errors=True)
            code = run(command, "--config", str(cfg), "--out", str(out), str(ds), "--quiet")
            assert code in (0, 2) and (code == 0 or not out.exists()), (command, code)

    case()


def test_a_plain_value_error_is_a_bug_and_escapes(tmp_path, monkeypatch):
    def broken(*args):
        raise ValueError("not an input error")

    monkeypatch.setattr(cli, "run_sweep", broken)
    out = tmp_path / "x"
    with pytest.raises(ValueError, match="not an input error"):
        run("sweep", "--config", "preset:fig3c", "--out", str(out), "--quiet")
    assert not out.exists()
