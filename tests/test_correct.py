import numpy as np
import pytest
from hypothesis import example, given, settings
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
from wavecap.sweep import SweepDataset, SweepSpec, run_sweep
from wavecap.units import WavecapError
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
@given(bits=st.lists(st.integers(0, 1), max_size=300), n_rows=st.integers(1, 4))
def test_level_runs_match_plain_scan(bits, n_rows):
    k = len(bits) // n_rows
    rows = [bits[f * k : (f + 1) * k] for f in range(n_rows)]
    for level in (0, 1):
        got = _level_runs(np.array(rows, dtype=np.uint8).reshape(len(rows), -1), level)
        want = [(f, l, r) for f, row in enumerate(rows) for l, r in runs_by_scan(row, level)]
        assert list(zip(*(a.tolist() for a in got))) == want


# -- the matrix forms against the per-frame code they replaced ---------------


def correct_frame_per_frame(bits, spec):
    """Reference: correction as first written, one frame at a time: drop the
    narrow zero-runs, scale the rest, merge overlapping or touching results,
    then drop what no longer clears the threshold."""
    k = bits.size
    regions = []
    for l, r in runs_by_scan(bits.tolist(), 0):
        if r - l + 1 < spec.gap_threshold:
            continue
        if r == k:
            regions.append((l, r))
            continue
        regions.append((l, int(np.floor(spec.dilation_factor * r))))
    merged: list[list[int]] = []
    for l, r in sorted(regions):
        if merged and l <= merged[-1][1] + 1:
            merged[-1][1] = max(merged[-1][1], r)
        else:
            merged.append([l, r])
    out = np.ones(k, dtype=np.uint8)
    for l, r in merged:
        if r - l + 1 < spec.gap_threshold:
            continue
        out[l - 1 : r] = 0
    return out


def fidelity_per_frame(truth_bits, test_bits):
    """Reference: the greedy best-overlap match of each frame pair, summed
    over frames; returns (errors, matched, unmatched truth, unmatched test)."""
    errors, unmatched_truth, unmatched_test = [], 0, 0
    for truth, test in zip(truth_bits, test_bits):
        test_pulses = runs_by_scan(test.tolist(), 1)
        used = [False] * len(test_pulses)
        for tl, tr in runs_by_scan(truth.tolist(), 1):
            best = None
            best_ov = 0
            for j, (ml, mr) in enumerate(test_pulses):
                if used[j]:
                    continue
                ov = min(tr, mr) - max(tl, ml) + 1
                if ov > best_ov:
                    best_ov, best = ov, j
            if best is None:
                unmatched_truth += 1
                continue
            used[best] = True
            ml, mr = test_pulses[best]
            errors.append((mr - ml) - (tr - tl))
        unmatched_test += used.count(False)
    return errors, len(errors), unmatched_truth, unmatched_test


@st.composite
def run_rows(draw, k):
    """One row of k bits built from runs of 1-40 bits, so that zero-runs
    both below and above every gap threshold occur."""
    lengths = draw(st.lists(st.integers(1, 40), min_size=1, max_size=k))
    levels = (np.arange(len(lengths)) % 2) ^ draw(st.integers(0, 1))
    return np.resize(np.repeat(levels, lengths), k).astype(np.uint8)


bit_matrices = st.tuples(st.integers(1, 5), st.integers(1, 120)).flatmap(
    lambda fk: st.lists(run_rows(fk[1]), min_size=fk[0], max_size=fk[0]).map(np.array)
)
alphas = st.one_of(
    st.just(1.0), st.just(1.0 - 2.0**-53), st.floats(0.0, 1.0, exclude_min=True)
)


def dataset_of(bits):
    chain = ChainSpec(bits.shape[1], 5.0, 5.0)
    return SweepDataset(bits, np.zeros(len(bits)), chain, RegisterSpec())


@settings(max_examples=200, deadline=None)
@given(bits=bit_matrices, alpha=alphas, threshold=st.integers(1, 30))
def test_correct_dataset_matches_per_frame_reference(bits, alpha, threshold):
    spec = CorrectionSpec(threshold, alpha)
    got = correct_dataset(dataset_of(bits), spec).bits
    want = np.array([correct_frame_per_frame(row, spec) for row in bits])
    assert got.dtype == np.uint8 and got.flags.c_contiguous
    assert np.array_equal(got, want)
    assert np.array_equal(correct_frame(frame_of(bits[0]), spec).bits, want[0])


@settings(max_examples=200, deadline=None)
@given(
    truth=bit_matrices,
    noise=st.floats(0.0, 0.3),
    independent=st.booleans(),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_dataset_fidelity_matches_per_frame_reference(truth, noise, independent, seed, data):
    # the measured matrix is either drawn on its own or the truth with bits
    # flipped, so that pulses overlap several candidates and ties occur
    if independent:
        test = np.array([data.draw(run_rows(truth.shape[1])) for _ in truth])
    else:
        flips = np.random.default_rng(seed).random(truth.shape) < noise
        test = truth ^ flips.astype(np.uint8)
    stats = dataset_fidelity(dataset_of(truth), dataset_of(test))
    errors, *counts = fidelity_per_frame(truth, test)
    assert stats.errors.tolist() == errors
    assert [stats.n_matched, stats.n_unmatched_truth, stats.n_unmatched_test] == counts


def fidelity_by_row_scan(truth_bits, test_bits):
    """Reference: the matrix fidelity as it was before it searched for the
    overlapping pulses, every measured pulse of the row a candidate."""
    t_rows, t_l, t_r = (a.tolist() for a in _level_runs(truth_bits, 1))
    m_rows, m_l, m_r = (a.tolist() for a in _level_runs(test_bits, 1))
    lo = np.searchsorted(m_rows, t_rows).tolist()
    hi = np.searchsorted(m_rows, t_rows, side="right").tolist()
    used = [False] * len(m_l)
    errors = []
    for tl, tr, a, z in zip(t_l, t_r, lo, hi):
        best = None
        best_ov = 0
        for j in range(a, z):
            if used[j]:
                continue
            ov = min(tr, m_r[j]) - max(tl, m_l[j]) + 1
            if ov > best_ov:
                best_ov, best = ov, j
        if best is None:
            continue
        used[best] = True
        errors.append((m_r[best] - m_l[best]) - (tr - tl))
    return np.array(errors, dtype=float), len(errors), len(t_l) - len(errors), used.count(False)


def morphed(bits, op, left, right):
    """Each row dilated (op = np.maximum) or eroded (np.minimum) by a window
    reaching left taps back and right taps ahead, the rows' ends padded with
    the op's identity; dilation merges pulses, erosion splits them."""
    pad = 0 if op is np.maximum else 1
    k = bits.shape[1]
    padded = np.pad(bits, ((0, 0), (left, right)), constant_values=pad)
    return op.reduce([padded[:, i : i + k] for i in range(left + right + 1)])


def bit_rows(n_rows, k):
    return st.lists(
        st.lists(st.integers(0, 1), min_size=k, max_size=k), min_size=n_rows, max_size=n_rows
    ).map(lambda rows: np.array(rows, dtype=np.uint8))


class Drawn:
    """Stands in for st.data() in an @example: the draw is given."""

    def __init__(self, value):
        self.value = value

    def draw(self, strategy):
        return self.value


# true pulses [1, 2] [4, 5] [7, 11] [14, 15], measured [1, 5] [7, 7] [9, 11] [14, 16]:
# one measured pulse over two true ones, one true pulse over two measured
# ones, and a pulse pair that no other pulse contests
CONTESTED_ROW = [1, 1, 0, 1, 1, 0, 1, 1, 1, 1, 1, 0, 0, 1, 1, 0]
CONTESTED_TEST = [1, 1, 1, 1, 1, 0, 1, 0, 1, 1, 1, 0, 0, 1, 1, 1]


@settings(max_examples=1000, deadline=None)
@example(  # one measured pulse over two true ones
    bits=np.array([[1, 0, 1, 1, 1]], dtype=np.uint8), how="test morphed", op=np.maximum,
    left=1, right=0, data=None,
)
@example(  # one true pulse over two measured ones
    bits=np.array([[1, 0, 1, 1, 1]], dtype=np.uint8), how="truth morphed", op=np.maximum,
    left=1, right=0, data=None,
)
@example(  # both in one row
    bits=np.array([CONTESTED_ROW], dtype=np.uint8), how="independent", op=np.maximum,
    left=0, right=0, data=Drawn(np.array([CONTESTED_TEST], dtype=np.uint8)),
)
@given(
    bits=st.tuples(st.integers(1, 6), st.integers(1, 40)).flatmap(lambda fk: bit_rows(*fk)),
    how=st.sampled_from(["independent", "test morphed", "truth morphed"]),
    op=st.sampled_from([np.maximum, np.minimum]),
    left=st.integers(0, 3),
    right=st.integers(0, 3),
    data=st.data(),
)
def test_fidelity_matches_row_scan_reference(bits, how, op, left, right, data):
    # morphed copies overlap their original by 1 cell and more, so that a
    # search missing pulses that only touch the true one is caught
    if how == "independent":
        other = data.draw(bit_rows(*bits.shape))
    else:
        other = morphed(bits, op, left, right)
    truth, test = (other, bits) if how == "truth morphed" else (bits, other)
    stats = dataset_fidelity(dataset_of(truth), dataset_of(test))
    errors, *counts = fidelity_by_row_scan(truth, test)
    assert stats.errors.tobytes() == errors.tobytes()
    assert [stats.n_matched, stats.n_unmatched_truth, stats.n_unmatched_test] == counts


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


def test_fidelity_needs_paired_frames():
    four = dataset_of(np.zeros((4, 16), dtype=np.uint8))
    with pytest.raises(WavecapError, match="datasets have different frame counts"):
        dataset_fidelity(four, dataset_of(np.zeros((3, 16), dtype=np.uint8)))
    with pytest.raises(WavecapError, match="frames have different lengths"):
        dataset_fidelity(four, dataset_of(np.zeros((4, 17), dtype=np.uint8)))


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
    for t, m in zip(truth_ds.bits, meas_ds.bits):
        stats = correction_fidelity(frame_of(t), frame_of(m))
        errs.append(np.mean(stats.errors) if stats.errors.size else 0.0)
    # pulses live across the whole chain; average travel ~ half the length
    mean_travel = 650.0
    assert np.mean(errs) == pytest.approx(-rate * mean_travel, rel=0.35)


def test_correction_halves_width_error(shrink_pair):
    truth_ds, meas_ds = shrink_pair
    rate = shrink_analysis(meas_ds).rate
    fixed_ds = correct_dataset(meas_ds, CorrectionSpec(15, 1.0 - rate))
    raw = dataset_fidelity(truth_ds, meas_ds).mean_abs_error
    fixed = dataset_fidelity(truth_ds, fixed_ds).mean_abs_error
    assert fixed < 0.5 * raw
