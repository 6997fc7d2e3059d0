import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavecap.chain import CaptureFrame, ChainSpec, RegisterSpec
from wavecap.calibrate import shrink_analysis
from wavecap.correct import (
    CorrectionSpec,
    _level_runs,
    correct_dataset,
    correct_frame,
    correction_fidelity,
    dataset_fidelity,
)
from wavecap.sweep import SweepSpec, run_sweep
from wavecap.waveform import PllOutputSpec


def frame_of(bits):
    return CaptureFrame(np.array(bits, dtype=np.uint8), 0)


def bits_with_zero_run(k, l, r):
    b = np.ones(k, dtype=np.uint8)
    b[l - 1 : r] = 0
    return b


def test_endpoint_scaling_example():
    f = frame_of(bits_with_zero_run(1300, 1033, 1249))
    out = correct_frame(f, CorrectionSpec(15, 0.95))
    expect = bits_with_zero_run(1300, 1033, 1186)
    assert np.array_equal(out.bits, expect)


def test_all_ones_unchanged():
    f = frame_of(np.ones(64, dtype=np.uint8))
    assert np.array_equal(correct_frame(f).bits, f.bits)


def test_bubble_filled_wide_gap_scaled():
    bits = np.concatenate(
        [[1, 1], np.zeros(20, dtype=np.uint8), [1, 0, 1], np.ones(40, dtype=np.uint8)]
    )
    out = correct_frame(frame_of(bits), CorrectionSpec(15, 0.95))
    # lone zero at index 24 is a bubble; the 20-run [3, 22] keeps its left
    # end and the right end moves to floor(0.95 * 22) = 20
    expect = np.ones(bits.size, dtype=np.uint8)
    expect[2:20] = 0
    assert np.array_equal(out.bits, expect)


def test_alpha_one_is_pure_bubble_fill():
    rng = np.random.default_rng(3)
    bits = (rng.random(400) < 0.6).astype(np.uint8)
    out = correct_frame(frame_of(bits), CorrectionSpec(15, 1.0))
    assert np.all(out.bits >= bits)


def test_trailing_run_exempt_from_scaling():
    bits = np.ones(1300, dtype=np.uint8)
    bits[1000:] = 0  # signal has not reached carries 1001..1300 yet
    out = correct_frame(frame_of(bits), CorrectionSpec(15, 0.95))
    assert np.array_equal(out.bits, bits)


def test_overlapping_adjusted_runs_merge():
    bits = np.ones(200, dtype=np.uint8)
    bits[99:120] = 0  # [100, 120] -> [100, 114]
    bits[121:140] = 0  # [122, 140] -> [122, 133], contiguous after scaling?
    out = correct_frame(frame_of(bits), CorrectionSpec(15, 0.6))
    # [100,120] -> [100,72]: collapses below threshold; [122,140] -> [122,84]
    # likewise; aggressive alpha legitimately erases both regions
    assert np.all(out.bits == 1)
    out2 = correct_frame(frame_of(bits), CorrectionSpec(15, 0.99))
    # [100,118] and [122,138] both survive and stay separate
    zero_idx = np.flatnonzero(out2.bits == 0) + 1
    assert zero_idx.min() == 100 and zero_idx.max() == 138
    assert 119 not in zero_idx and 121 not in zero_idx and 118 in zero_idx


def test_not_idempotent():
    f = frame_of(bits_with_zero_run(100, 30, 60))
    spec = CorrectionSpec(15, 0.95)
    once = correct_frame(f, spec)
    twice = correct_frame(once, spec)
    assert not np.array_equal(once.bits, twice.bits)


@settings(max_examples=1000, deadline=None)
@given(
    bits=st.lists(st.integers(0, 1), min_size=1, max_size=300),
    alpha=st.floats(0.5, 1.0),
    threshold=st.integers(1, 30),
)
def test_no_subthreshold_zero_runs(bits, alpha, threshold):
    out = correct_frame(
        frame_of(bits), CorrectionSpec(threshold, alpha)
    ).bits.astype(np.int8)
    padded = np.concatenate(([1], out, [1]))
    d = np.diff(padded)
    starts = np.flatnonzero(d == -1)
    ends = np.flatnonzero(d == 1)
    assert np.all(ends - starts >= threshold)


def runs_by_scan(bits, level):
    """Reference: maximal runs of level as 1-based [l, r], one bit at a time."""
    out, start = [], None
    for i, b in enumerate(bits, start=1):
        if b == level and start is None:
            start = i
        elif b != level and start is not None:
            out.append((start, i - 1))
            start = None
    if start is not None:
        out.append((start, len(bits)))
    return out


@settings(max_examples=1000, deadline=None)
@given(bits=st.lists(st.integers(0, 1), max_size=300))
def test_level_runs_match_plain_scan(bits):
    for level in (0, 1):
        assert _level_runs(np.array(bits, dtype=np.uint8), level) == runs_by_scan(bits, level)


# -- fidelity ---------------------------------------------------------------


def test_fidelity_identical_frames():
    f = frame_of(bits_with_zero_run(300, 100, 150))
    stats = correction_fidelity(f, f)
    assert stats.n_matched == 2
    assert stats.mean_abs_error == 0.0


def test_fidelity_width_difference():
    truth = np.zeros(100, dtype=np.uint8)
    truth[19:60] = 1  # width 41
    meas = np.zeros(100, dtype=np.uint8)
    meas[24:60] = 1  # width 36
    stats = correction_fidelity(frame_of(truth), frame_of(meas))
    assert stats.n_matched == 1
    assert stats.errors.tolist() == [-5.0]


def test_fidelity_unmatched_counts():
    truth = frame_of(bits_with_zero_run(100, 40, 60))  # two pulses
    meas = frame_of(np.zeros(100, dtype=np.uint8))
    stats = correction_fidelity(truth, meas)
    assert stats.n_matched == 0
    assert stats.n_unmatched_truth == 2


@pytest.fixture(scope="module")
def shrink_pair():
    """A 600 MHz capture set and its unshrunk ground truth."""
    src = PllOutputSpec(600e6, 0.5, seed=77)

    def run(tau_fall):
        spec = SweepSpec(src, 5_000, 104, 128, crystal_jitter_sigma_ps=0.0, seed=5)
        chain = ChainSpec(
            1300, 4.91, tau_fall, tau_sigma_ps=0.0, entry_delay_ps=0.0, seed=9
        )
        return run_sweep(spec, chain, RegisterSpec())

    return run(4.91), run(4.54)


def test_uncorrected_error_tracks_travel_distance(shrink_pair):
    truth_ds, meas_ds = shrink_pair
    rate = (4.91 - 4.54) / 4.91
    errs = []
    for t, m in zip(truth_ds.frames, meas_ds.frames):
        stats = correction_fidelity(t, m)
        errs.append(stats.mean_error)
    # pulses live across the whole chain; average travel ~ half the length
    mean_travel = 650.0
    assert np.mean(errs) == pytest.approx(-rate * mean_travel, rel=0.35)


def test_correction_halves_width_error(shrink_pair):
    truth_ds, meas_ds = shrink_pair
    rate = shrink_analysis(meas_ds, min_run=15, bin_width=25).rate
    fixed_ds = correct_dataset(meas_ds, CorrectionSpec(15, 1.0 - rate))
    raw = dataset_fidelity(truth_ds, meas_ds).mean_abs_error
    fixed = dataset_fidelity(truth_ds, fixed_ds).mean_abs_error
    assert fixed < 0.5 * raw
