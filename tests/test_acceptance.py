"""End-to-end acceptance checks, one printed verdict line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the verdict table.
"""

import hashlib
import json
import time
from importlib import resources

import numpy as np
import pytest

from wavecap.chain import (
    CaptureFrame,
    ChainSpec,
    RegisterSpec,
    capture,
    capture_oracle,
    sample_chain,
    sample_registers,
    validate_config,
)
from wavecap.cli import main as cli_main
from wavecap.correct import CorrectionSpec, correct_frame
from wavecap.waveform import make_pll_output


def verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def run_cli(*argv) -> int:
    return cli_main(list(argv))


@pytest.fixture(scope="module")
def calibrate_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cal")
    t0 = time.perf_counter()
    assert run_cli("calibrate", "--config", "preset:fig4", "--out", str(out), "--quiet") == 0
    elapsed = time.perf_counter() - t0
    return json.loads((out / "report.json").read_text()), elapsed


def test_criterion_1_carry_time_recovery(calibrate_run):
    rep, elapsed = calibrate_run
    rec, truth = rep["recovered"], rep["truth"]
    errs = (rec["tau_rise_err_ps"], rec["tau_fall_err_ps"])
    ok = (
        abs(rec["tau_rise_ps"] - truth["tau_rise_ps"]) <= 0.1
        and abs(rec["tau_fall_ps"] - truth["tau_fall_ps"]) <= 0.1
        and max(errs) <= 0.1
        and elapsed < 60.0
    )
    verdict(
        "1 carry-time recovery",
        ok,
        "rise {:.4f}+-{:.4f} / fall {:.4f}+-{:.4f} ps vs 4.91/4.54, {:.1f} s".format(
            rec["tau_rise_ps"], errs[0], rec["tau_fall_ps"], errs[1], elapsed
        ),
    )


def test_criterion_2_single_shot_precision(calibrate_run, tmp_path):
    rep, _ = calibrate_run
    ssp = rep["recovered"]["single_shot_rise_ps"]
    # same pipeline with the crystal jitter turned off
    text = (resources.files("wavecap.presets") / "fig4.config").read_text()
    cfg = tmp_path / "nojitter.config"
    cfg.write_text(
        text.replace(
            "sweep.crystal_jitter_sigma_ps = 30.0", "sweep.crystal_jitter_sigma_ps = 0.0"
        )
    )
    out = tmp_path / "cal0"
    assert run_cli("calibrate", "--config", str(cfg), "--out", str(out), "--quiet") == 0
    ssp0 = json.loads((out / "report.json").read_text())["recovered"][
        "single_shot_rise_ps"
    ]
    ok = 24.0 <= ssp <= 36.0 and ssp0 <= 2.0
    verdict(
        "2 single-shot precision",
        ok,
        f"{ssp:.2f} ps with 30 ps jitter (band 24-36), {ssp0:.2f} ps without (<= 2)",
    )


def test_criterion_3_constraint_gate():
    a = validate_config(ChainSpec(1300, 4.91, 4.54), 5_000, 500)
    b = validate_config(ChainSpec(1000, 4.91, 4.54), 5_000, 500)
    c = validate_config(ChainSpec(1741, 4.91, 4.54), 5_000, 500)
    ok = (
        a.ok
        and not b.ok
        and any("coverage" in v for v in b.violations)
        and not c.ok
        and any("1740" in v or "device" in v for v in c.violations)
    )
    verdict(
        "3 constraint gate",
        ok,
        f"K=1300 ok={a.ok}, K=1000 -> {b.violations}, K=1741 -> {c.violations}",
    )


def test_criterion_4_shrink_rate(calibrate_run, tmp_path):
    rep, _ = calibrate_run
    out = tmp_path / "shrink"
    assert run_cli("shrink", "--config", "preset:fig3c", "--out", str(out), "--quiet") == 0
    rate = json.loads((out / "report.json").read_text())["recovered"]["rate"]
    rec = rep["recovered"]
    fitted = (rec["tau_rise_ps"] - rec["tau_fall_ps"]) / rec["tau_rise_ps"]
    ok = 0.06 <= rate <= 0.12 and abs(rate - fitted) <= 0.05
    verdict(
        "4 shrink-rate consistency",
        ok,
        f"rate {rate:.4f} in [0.06, 0.12], fitted-tau prediction {fitted:.4f}",
    )


def test_criterion_5_error_correction(tmp_path):
    out = tmp_path / "corr"
    assert run_cli("correct", "--config", "preset:fig6", "--out", str(out), "--quiet") == 0
    rec = json.loads((out / "report.json").read_text())["recovered"]
    bits = np.ones(1300, dtype=np.uint8)
    bits[1032:1249] = 0  # zero-run [1033, 1249]
    fixed = correct_frame(CaptureFrame(bits, 0), CorrectionSpec(15, 0.95))
    zeros = np.flatnonzero(fixed.bits == 0) + 1
    endpoint_ok = zeros.min() == 1033 and zeros.max() == 1186
    ok = rec["improvement"] >= 0.5 and endpoint_ok
    verdict(
        "5 error correction",
        ok,
        "width error {:.2f} -> {:.2f} carries ({:.0%}), endpoint 1249 -> {}".format(
            rec["uncorrected_mean_abs_err"],
            rec["corrected_mean_abs_err"],
            rec["improvement"],
            zeros.max(),
        ),
    )


def test_criterion_6_oracle_equivalence():
    from test_chain import random_config

    rng = np.random.default_rng(606)
    mismatches = 0
    for _ in range(1_000):
        chain, regs, src = random_config(rng)
        w = make_pll_output(src, 30_000)
        t = float(rng.uniform(10_000, 25_000))
        jit = float(rng.normal(0, 20))
        a = capture(w, chain, regs, t, clock_jitter_ps=jit)
        b = capture_oracle(w, chain, regs, t, clock_jitter_ps=jit)
        mismatches += not np.array_equal(a.bits, b.bits)
    for i in range(100):
        chain = sample_chain(
            ChainSpec(
                1300,
                4.91,
                4.54,
                tau_sigma_ps=float(rng.uniform(0, 0.3)),
                entry_delay_ps=float(rng.uniform(0, 100)),
                seed=i,
            )
        )
        regs = sample_registers(RegisterSpec(skew_sigma_ps=2.0, seed=i), 1300)
        src_freq = float(rng.uniform(1e8, 8e8))
        from wavecap.waveform import PllOutputSpec

        w = make_pll_output(PllOutputSpec(src_freq, 0.5, seed=i), 40_000)
        t = float(rng.uniform(20_000, 35_000))
        a = capture(w, chain, regs, t)
        b = capture_oracle(w, chain, regs, t)
        mismatches += not np.array_equal(a.bits, b.bits)
    verdict(
        "6 oracle equivalence",
        mismatches == 0,
        f"{mismatches} mismatches over 1000 small + 100 full-length configs",
    )


def test_criterion_7_ring_oscillator(tmp_path):
    out = tmp_path / "ro19"
    assert run_cli("ro", "--config", "preset:appendix-ro19", "--out", str(out), "--quiet") == 0
    got19 = json.loads((out / "report.json").read_text())["recovered"][
        "node_0_per_inverter_ps"
    ]
    # N-invariance: a single inverter measured the same way
    text = (resources.files("wavecap.presets") / "appendix-ro19.config").read_text()
    cfg = tmp_path / "ro1.config"
    cfg.write_text(
        text.replace("ring.n = 19", "ring.n = 1").replace(
            "ro.n_frames = 150", "ro.n_frames = 40"
        )
    )
    out1 = tmp_path / "ro1"
    assert run_cli("ro", "--config", str(cfg), "--out", str(out1), "--quiet") == 0
    got1 = json.loads((out1 / "report.json").read_text())["recovered"][
        "node_0_per_inverter_ps"
    ]
    ok = abs(got19 - 240.0) <= 6.0 and abs(got19 - got1) <= 5.0
    verdict(
        "7 ring oscillator",
        ok,
        f"N=19 gives {got19:.2f} ps/inverter (240 +-6), N=1 gives {got1:.2f} (within one carry)",
    )


def test_criterion_8_determinism(tmp_path):
    def output_hashes(out):
        # every file, report.json without its wall-clock runtime_s
        hashes = {}
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            data = path.read_bytes()
            if path.name == "report.json":
                rep = json.loads(data)
                rep.pop("runtime_s")
                data = json.dumps(rep, sort_keys=True).encode()
            hashes[path.relative_to(out).as_posix()] = hashlib.sha256(data).hexdigest()
        return hashes

    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli("sweep", "--config", "preset:fig3a", "--out", str(out), "--quiet") == 0
        runs.append(output_hashes(out))
    names = runs[0].keys() | runs[1].keys()
    differing = sorted(n for n in names if runs[0].get(n) != runs[1].get(n))
    verdict(
        "8 determinism",
        "manifest.json" in runs[0] and not differing,
        f"{len(runs[0])} files, differing: {differing or 'none'}",
    )


def test_criterion_9_property_suites():
    from test_chain import test_symmetric_pulse_width_quantization
    from test_correct import test_no_subthreshold_zero_runs
    from test_ringosc import test_stitch_matches_direct_sampling
    from test_waveform import test_translation_equivariance

    suites = {
        "translation equivariance": test_translation_equivariance,
        "pulse-width conservation": test_symmetric_pulse_width_quantization,
        "no sub-threshold zero-runs": test_no_subthreshold_zero_runs,
        "stitched vs direct sampling": test_stitch_matches_direct_sampling,
    }
    failed = []
    for name, prop in suites.items():
        try:
            prop()  # each runs its full 1000-case hypothesis suite
        except Exception:
            failed.append(name)
    verdict(
        "9 property suites",
        not failed,
        "4 suites x 1000 cases" if not failed else f"failed: {failed}",
    )
