import hashlib
import math
import sys
import weakref
from dataclasses import fields, replace
from itertools import groupby

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavecap.calibrate import (
    QUANT_FLOOR_CARRIES,
    CalibrationError,
    EdgeObservation,
    TransferFunction,
    _edges,
    _estimate_step_carries,
    _isotonic_increasing,
    _pool,
    _runs,
    _track,
    _tracks,
    _transfer_function,
    build_transfer_function,
    calibrate,
    extract_edges,
    fit_carry_times,
    shrink_analysis,
    single_shot_precision,
    smooth_bits,
)
from wavecap.chain import FALLING, RISING, CaptureFrame, ChainSpec, RegisterSpec
from wavecap.sweep import SweepSpec, run_sweep
from wavecap.waveform import PllOutputSpec


def mlab_datasets(
    tau_rise=4.91,
    tau_fall=4.54,
    jitter=30.0,
    n_channels=8,
    n_steps=512,
    tau_sigma=0.02,
    source=None,
    dt=78.0,
    seed0=0,
    **chain_kw,
):
    datasets = []
    for ch in range(n_channels):
        src = source or PllOutputSpec(100e6, 0.25, seed=1000 + seed0 + ch)
        spec = SweepSpec(
            src, 5_000, dt, n_steps, crystal_jitter_sigma_ps=jitter, seed=seed0 + ch
        )
        chain = ChainSpec(
            1300, tau_rise, tau_fall, tau_sigma_ps=tau_sigma, seed=100 + seed0 + ch, **chain_kw
        )
        datasets.append(run_sweep(spec, chain, RegisterSpec(seed=200 + seed0 + ch)))
    return datasets


@pytest.fixture(scope="module")
def reference_datasets():
    return mlab_datasets()


@pytest.fixture(scope="module")
def reference_result(reference_datasets):
    return calibrate(reference_datasets, min_run=15)


# -- extract_edges ----------------------------------------------------------


def frame_of(bits):
    return CaptureFrame(np.array(bits, dtype=np.uint8), 0)


def test_extract_edges_convention():
    # bits x1..x10 = 0,0,0,1,1,1,1,0,0,0: falling at k=3, rising at k=7
    edges = extract_edges(frame_of([0, 0, 0, 1, 1, 1, 1, 0, 0, 0]), min_run=1)
    kinds = {(e.edge_index, e.polarity) for e in edges}
    assert kinds == {(3, FALLING), (7, RISING)}


def test_extract_edges_bubble_filtered():
    bits = [0] * 20 + [1] * 30 + [0] + [1] * 30 + [0] * 20
    edges = extract_edges(frame_of(bits), min_run=15)
    # the lone 0 is a bubble: one pulse, two edges
    assert len(edges) == 2
    raw = extract_edges(frame_of(bits), min_run=1)
    assert len(raw) == 4


def test_extract_edges_all_ones():
    assert extract_edges(frame_of([1] * 16), min_run=1) == []


@pytest.mark.parametrize("min_run", [0, -3])
def test_min_run_below_one_is_rejected(min_run):
    # the CLI rejects calibrate.min_run < 1 first; this is the library's own check
    with pytest.raises(CalibrationError, match="min_run must be >= 1"):
        extract_edges(frame_of([1] * 16), min_run=min_run)


def test_smooth_bits_merges_short_runs():
    bits = np.array([1, 1, 0, 1, 1, 1, 1, 1], dtype=np.uint8)
    assert np.all(smooth_bits(bits, 3) == 1)
    assert np.all(smooth_bits(bits, 1) == bits)


def test_smooth_bits_keeps_the_shape_of_its_input():
    bits = np.array([[1, 1, 0, 1, 1, 1, 0, 0], [0, 1, 0, 0, 0, 1, 1, 1]], dtype=np.uint8)
    smoothed = smooth_bits(bits, 3)
    assert smoothed.shape == (2, 8)
    assert np.array_equal(smoothed, [smooth_bits(row, 3) for row in bits])
    assert smooth_bits(bits[:0], 3).shape == (0, 8)


def smooth_bits_per_bit(bits, min_run):
    """Reference: build the runs bit by bit, then merge shortest first."""
    if min_run <= 1:
        return np.asarray(bits, dtype=np.uint8)
    runs = []  # [level, length]
    for b in np.asarray(bits, dtype=np.uint8):
        if runs and runs[-1][0] == b:
            runs[-1][1] += 1
        else:
            runs.append([int(b), 1])
    while len(runs) > 1:
        lengths = [r[1] for r in runs]
        shortest = min(lengths)
        if shortest >= min_run:
            break
        i = lengths.index(shortest)
        if 0 < i < len(runs) - 1:
            runs[i - 1][1] += runs[i][1] + runs[i + 1][1]
            del runs[i : i + 2]
        else:
            j = 1 if i == 0 else len(runs) - 2
            runs[j][1] += runs[i][1]
            del runs[i]
    out = np.empty(sum(r[1] for r in runs), dtype=np.uint8)
    pos = 0
    for level, length in runs:
        out[pos : pos + length] = level
        pos += length
    return out


def edges_per_bit(bits, min_run):
    """Reference: (index, polarity) where neighbouring smoothed bits differ."""
    b = smooth_bits_per_bit(bits, min_run).astype(np.int8)
    d = b[:-1] - b[1:]
    return [(int(k) + 1, RISING if d[k] > 0 else FALLING) for k in np.flatnonzero(d)]


@settings(max_examples=1000, deadline=None)
@given(
    bits=st.lists(st.integers(0, 1), max_size=300),
    min_run=st.integers(1, 20),
)
def test_smoothing_and_edges_match_per_bit_reference(bits, min_run):
    b = np.array(bits, dtype=np.uint8)
    smoothed = smooth_bits(b, min_run)
    assert smoothed.dtype == np.uint8
    assert np.array_equal(smoothed, smooth_bits_per_bit(b, min_run))
    got = [(e.edge_index, e.polarity) for e in extract_edges(b, min_run)]
    assert got == edges_per_bit(b, min_run)


@st.composite
def bit_matrices(draw):
    """(frames, K) bit matrices mixing random rows, constant rows and rows
    with short runs at both chain ends."""
    f, k = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    rows = []
    for _ in range(f):
        kind = draw(st.sampled_from(["random", "constant", "short ends"]))
        if kind == "random":
            row = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
        else:
            level = draw(st.integers(0, 1))
            row = [level] * k
            if kind == "short ends":
                head, tail = draw(st.integers(0, 3)), draw(st.integers(0, 3))
                row[: min(head, k)] = [1 - level] * min(head, k)
                row[k - min(tail, k) :] = [1 - level] * min(tail, k)
        rows.append(row)
    return np.array(rows, dtype=np.uint8)


@settings(max_examples=1000, deadline=None)
@given(bits=bit_matrices(), min_run=st.integers(1, 20))
def test_dataset_pass_matches_per_frame_extract_edges(bits, min_run):
    rows, ks, levels = _edges(bits, min_run)
    got = [
        [(k, level) for r, k, level in zip(rows, ks, levels) if r == row]
        for row in range(bits.shape[0])
    ]
    per_frame = [[(e.edge_index, e.polarity) for e in extract_edges(b, min_run)] for b in bits]
    assert got == per_frame
    assert got == [edges_per_bit(b, min_run) for b in bits]


def runs_per_row(bits, min_run):
    """Reference: each row smoothed bit by bit, then its runs read off with
    itertools.groupby; (row, level, first tap, last tap) per run."""
    out = []
    for r, row in enumerate(np.atleast_2d(bits)):
        first = 1
        for level, run in groupby(smooth_bits_per_bit(row, min_run).tolist()):
            n = len(list(run))
            out.append((r, level, first, first + n - 1))
            first += n
    return out


@settings(max_examples=1000, deadline=None)
@given(
    bits=st.one_of(
        bit_matrices(),
        st.lists(st.integers(0, 1), max_size=300).map(lambda b: np.array(b, dtype=np.uint8)),
        st.lists(st.integers(0, 1), min_size=1, max_size=40).map(
            lambda b: np.array(b, dtype=np.uint8)[:, None]
        ),
    ),
    min_run=st.integers(1, 20),
)
def test_runs_match_groupby_reference(bits, min_run):
    # 2-D matrices, 1-D series (a ring node's) and one-tap (K = 1) matrices
    rows, levels, first, last = _runs(bits, min_run)
    assert levels.dtype == np.uint8
    got = list(zip(rows.tolist(), levels.tolist(), first.tolist(), last.tolist()))
    assert got == runs_per_row(bits, min_run)


# -- fit_carry_times --------------------------------------------------------


def test_fit_recovers_reference_carry_times(reference_result):
    res = reference_result
    assert res.tau_rise_ps == pytest.approx(4.91, abs=2 * max(res.tau_rise_err_ps, 0.01))
    assert res.tau_fall_ps == pytest.approx(4.54, abs=2 * max(res.tau_fall_err_ps, 0.01))
    # uncertainties comparable to the reference values
    assert res.tau_rise_err_ps < 0.04
    assert res.tau_fall_err_ps < 0.04


def test_fit_ideal_chain_is_exact():
    ds = mlab_datasets(5.0, 5.0, jitter=0.0, n_channels=2, n_steps=256, tau_sigma=0.0)
    fits = fit_carry_times(ds, 15)
    assert fits[RISING].tau_ps == pytest.approx(5.0, abs=0.01)
    assert fits[FALLING].tau_ps == pytest.approx(5.0, abs=0.01)


def test_fit_lab_parameter_set():
    ds = mlab_datasets(6.35, 5.60, n_channels=4, n_steps=256, seed0=17)
    fits = fit_carry_times(ds, 15)
    assert fits[RISING].tau_ps == pytest.approx(6.35, abs=0.05)
    assert fits[FALLING].tau_ps == pytest.approx(5.60, abs=0.05)


def test_fit_recovery_within_one_percent_jitter_free():
    ds = mlab_datasets(5.2, 4.8, jitter=0.0, n_channels=2, n_steps=256, tau_sigma=0.0)
    fits = fit_carry_times(ds, 15)
    assert abs(fits[RISING].tau_ps - 5.2) / 5.2 < 0.01
    assert abs(fits[FALLING].tau_ps - 4.8) / 4.8 < 0.01


def test_fit_requires_data():
    with pytest.raises(CalibrationError):
        fit_carry_times([], 15)


def test_estimators_deterministic(reference_datasets):
    a = calibrate(reference_datasets, 15)
    b = calibrate(reference_datasets, 15)
    assert a.tau_rise_ps == b.tau_rise_ps
    assert a.single_shot_rise_ps == b.single_shot_rise_ps
    assert np.all(a.t_of_x.t_ps == b.t_of_x.t_ps)


# -- tracking and pooling against the per-frame code they replaced ----------


def estimate_step_carries_per_frame(rows, polarity):
    drops = []
    prev = None
    for _, edges in rows:
        idx = [e.edge_index for e in edges if e.polarity == polarity]
        if prev and idx:
            x, y = np.array(prev), np.array(idx)
            below = np.searchsorted(y, x, side="left") - 1
            drops.extend((x - y[below])[below >= 0].tolist())
        prev = idx or prev
    if not drops:
        raise CalibrationError(f"not enough {polarity} edges to track")
    return float(np.median(drops))


def track_per_frame(rows, polarity, period_ps, dt_ps):
    step = estimate_step_carries_per_frame(rows, polarity)
    tau0 = dt_ps / step if step > 0 else float("nan")
    period_carries = period_ps / tau0
    tol = max(period_carries / 4.0, 3 * step)
    out = {}
    predicted = None
    m = 0
    for n, edges in rows:
        idx = [e.edge_index for e in edges if e.polarity == polarity]
        if not idx:
            if predicted is not None:
                predicted -= step
            continue
        if predicted is None:
            x = max(idx)
            out[n] = (x, m)
            predicted = x - step
            continue
        best = min(idx, key=lambda v: abs(v - predicted))
        jump = best - predicted
        if abs(jump) <= tol:
            out[n] = (best, m)
            predicted = best - step
        else:
            wraps = round(jump / period_carries)
            if wraps > 0 and abs(jump - wraps * period_carries) <= tol:
                m += wraps
                out[n] = (best, m)
                predicted = best - step
            else:
                predicted -= step
    return out


def tracks_per_frame(datasets, min_run, polarities):
    """Reference: every frame's edges as EdgeObservations, one frame at a time."""
    spec = datasets[0].sweep_spec
    out = {pol: [] for pol in polarities}
    for ds in datasets:
        rows = [(n, extract_edges(b, min_run)) for n, b in enumerate(ds.bits)]
        for pol in polarities:
            out[pol].append(track_per_frame(rows, pol, spec.source.period_ps, spec.dt_ps))
    return out


def pool_per_step(spec, tracks, polarity):
    """Reference: one np.mean and np.std per phase step, once each track's wrap
    counts are shifted by their most frequent difference from the first
    track's over the steps all tracks hold (the least of those on a tie)."""
    period, dt = spec.source.period_ps, spec.dt_ps
    shared = sorted(set(tracks[0]).intersection(*tracks[1:]))
    aligned = []
    for track in tracks:
        diffs = [track[n][1] - tracks[0][n][1] for n in shared]
        shift = max(sorted(set(diffs)), key=diffs.count) if diffs else 0
        aligned.append({n: (x, m - shift) for n, (x, m) in track.items()})
    per_step = {}
    for track in aligned:
        for n, (x, m) in track.items():
            per_step.setdefault(n, []).append((x, m))
    steps, wraps, u, mean, std = [], [], [], [], []
    for n in sorted(per_step):
        entries = per_step[n]
        ms = [m for _, m in entries]
        m_star = max(set(ms), key=ms.count)
        xs = np.array([x for x, m in entries if m == m_star], dtype=float)
        if xs.size < len(tracks):
            continue
        steps.append(n)
        wraps.append(m_star)
        u.append(n * dt - m_star * period)
        mean.append(xs.mean())
        std.append(xs.std(ddof=1) if xs.size > 1 else float("nan"))
    if len(steps) < 2:
        name = "rising" if polarity == RISING else "falling"
        raise CalibrationError(f"fewer than two phase steps with {name} edges")
    return tuple(map(np.array, (steps, wraps, u, mean, std)))


def transfer_function_by_index(tracks, tr, polarity):
    """Reference: every track walked again, one list of phases per carry index."""
    step_u = dict(zip(tr.steps.tolist(), tr.u_ps.tolist()))
    by_index = {}
    for track in tracks:
        for n, (x, _m) in track.items():
            if n in step_u:
                by_index.setdefault(x, []).append(-step_u[n])

    if len(by_index) < 2:
        raise CalibrationError("fewer than two populated carry indices")

    xs = np.array(sorted(by_index))
    counts = np.array([len(by_index[x]) for x in xs.tolist()])
    t_raw = np.empty(xs.size)
    for n in set(counts.tolist()):  # equal-length rows: mean(axis=1) is np.mean per row
        rows = np.flatnonzero(counts == n)
        t_raw[rows] = np.array([by_index[x] for x in xs[rows].tolist()]).mean(axis=1)
    t_raw -= t_raw[0]
    t_mono = _isotonic_increasing(t_raw)

    grid = np.arange(xs[0], xs[-1] + 1)
    populated = np.isin(grid, xs)
    t_grid = np.interp(grid, xs, t_mono)

    has_std = ~np.isnan(tr.x_std)
    if has_std.any():
        order = np.argsort(tr.x_mean[has_std])
        sx = tr.x_mean[has_std][order]
        sdx = np.maximum(tr.x_std[has_std][order], QUANT_FLOOR_CARRIES)
        dx_grid = np.interp(grid, sx, sdx)
    else:
        dx_grid = np.full(grid.size, QUANT_FLOOR_CARRIES)
    half = max(min(12, (grid.size - 1) // 2), 1)
    lo = np.clip(np.arange(grid.size) - half, 0, grid.size - 1)
    hi = np.clip(np.arange(grid.size) + half, 0, grid.size - 1)
    slope = (t_grid[hi] - t_grid[lo]) / np.maximum(hi - lo, 1)
    slope = np.maximum(slope, 0.0)
    dt_grid = slope * dx_grid

    return TransferFunction(polarity, grid, t_grid, dt_grid, populated)


def isotonic_by_slicing(y):
    """Reference: pool-adjacent-violators rebuilding its lists on every merge."""
    y = y.astype(float).copy()
    n = y.size
    vals, wts, spans = [], [], []
    for i in range(n):
        vals.append(y[i])
        wts.append(1.0)
        spans.append(1)
        while len(vals) > 1 and vals[-2] > vals[-1]:
            v = (vals[-2] * wts[-2] + vals[-1] * wts[-1]) / (wts[-2] + wts[-1])
            w = wts[-2] + wts[-1]
            s = spans[-2] + spans[-1]
            vals = vals[:-2] + [v]
            wts = wts[:-2] + [w]
            spans = spans[:-2] + [s]
    out = np.empty(n)
    pos = 0
    for v, s in zip(vals, spans):
        out[pos : pos + s] = v
        pos += s
    eps = 1e-9
    for i in range(1, n):
        if out[i] <= out[i - 1]:
            out[i] = out[i - 1] + eps
    return out


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def pooled_same_bits(got, want):
    fields = (got.steps, got.wraps, got.u_ps, got.x_mean, got.x_std)
    return all(same_bits(g, w) for g, w in zip(fields, want))


def as_dict(track):
    """An array track as the {step: (edge index, wrap count)} dict of the references."""
    steps, index, wraps = (a.tolist() for a in track)
    return dict(zip(steps, zip(index, wraps)))


def as_arrays(track):
    """A {step: (edge index, wrap count)} dict as an array track, steps ascending."""
    steps = sorted(track)
    columns = (steps, [track[n][0] for n in steps], [track[n][1] for n in steps])
    return tuple(np.array(col, dtype=np.int64) for col in columns)


def dict_tracks(tracks):
    return {pol: [as_dict(t) for t in ts] for pol, ts in tracks.items()}


def edge_arrays(frames):
    """One track's per-frame edge indices as _track's inputs: every edge's
    frame and index, and the mask of each nonempty frame's first edge."""
    frame, index, new = [], [], []
    for f, idx in enumerate(frames):
        frame += [f] * len(idx)
        index += sorted(idx)
        new += [j == 0 for j in range(len(idx))]
    return np.array(frame, dtype=np.int64), np.array(index, dtype=np.int64), np.array(new, dtype=bool)


def track_each(frames, period_ps, dt_ps):
    """_tracks' two calls on one track's per-frame edge lists, frame n at
    phase step n: _estimate_step_carries, raising where the step is NaN as
    _tracks does, then _track; the track as a dict."""
    frame, index, new = edge_arrays(frames)
    step = _estimate_step_carries(index, new)
    if math.isnan(step):
        raise CalibrationError("not enough edges to track")
    return as_dict(_track(frame, index, new, step, period_ps, dt_ps))


def test_tracks_match_per_frame_reference(reference_datasets):
    pols = (RISING, FALLING)
    got = dict_tracks(_tracks(reference_datasets, 15, pols)[1])
    assert got == tracks_per_frame(reference_datasets, 15, pols)
    jitter_free = mlab_datasets(jitter=0.0)
    assert dict_tracks(_tracks(jitter_free, 15, pols)[1]) == tracks_per_frame(jitter_free, 15, pols)


@settings(max_examples=500, deadline=None)
@given(
    frames=st.lists(st.lists(st.integers(1, 200), max_size=4, unique=True), max_size=30),
    dt=st.sampled_from([10.0, 78.0, 300.0]),
)
def test_track_on_edge_indices_matches_per_frame_reference(frames, dt):
    rows = [(n, sorted(idx)) for n, idx in enumerate(frames)]
    as_edges = [(n, [EdgeObservation(k, RISING) for k in idx]) for n, idx in rows]
    try:
        want = track_per_frame(as_edges, RISING, 1_000.0, dt)
    except CalibrationError:
        with pytest.raises(CalibrationError):
            track_each(frames, 1_000.0, dt)
        return
    assert track_each(frames, 1_000.0, dt) == want


def saw(x0, n_frames, step=10, span=100):
    """One edge per frame: x0 - step * n, wrapped into 1..span."""
    return [[1 + (x0 - 1 - step * n) % span] for n in range(n_frames)]


def edited(frames, at):
    """frames with each frame number in at given its edge list there."""
    return [at.get(f, idx) for f, idx in enumerate(frames)]


@st.composite
def sawtooth_tracks(draw):
    """1-3 tracks on one grid, each a sawtooth x0 - step * n wrapped by the
    per-period carry span, with +-1 noise and per-frame mishaps: empty
    frames, outliers, frames of 2-4 edges and exact ties.  Returns the
    source period and each track's per-frame edge lists."""
    step, n_frames = draw(st.integers(1, 12)), draw(st.integers(2, 40))
    span = draw(st.integers(2 * step, 300))
    kinds = st.sampled_from(["edge"] * 4 + ["empty", "outlier", "several", "tie"])
    tracks = []
    for _ in range(draw(st.integers(1, 3))):
        frames = []
        for (x,) in saw(draw(st.integers(1, span)), n_frames, step, span):
            kind, noise = draw(kinds), draw(st.integers(-1, 1))
            if kind == "outlier":
                idx = [x + draw(st.integers(-span, span))]
            elif kind == "several":
                others = draw(st.lists(st.integers(-span, span), min_size=1, max_size=3))
                idx = [x + noise] + [x + d for d in others]
            elif kind == "tie":
                d = draw(st.integers(1, 3))
                idx = [x - d, x + d]
            else:
                idx = [x + noise] if kind == "edge" else []
            frames.append(sorted({max(v, 1) for v in idx}))
        tracks.append(frames)
    return span * 78.0 / step, tracks


# step 10, span 100 and dt 78: period 780 ps, so a wrap is a jump of 100 and
# the tolerance is max(100 / 4, 3 * 10) = 30
PASS_ONLY = saw(55, 12)  # every frame matched, a wrap at frame 6
OUTLIER = edited(saw(95, 12), {4: [20]})  # 35 under the prediction: coasted over, then resumed
TIE = edited(saw(95, 10), {3: [60, 70], 6: [35, 90]})  # 60 and 70 tie around 65; 35 is nearer
SEVERAL_FIRST = edited(saw(73, 14), {0: [], 1: [20, 63], 3: [], 4: [], 5: []})
SEVERAL_LATER = edited(saw(55, 14), {2: [40, 90], 12: [], 13: []})  # 40 is nearer 35


@settings(max_examples=300, deadline=None)
@given(case=sawtooth_tracks())
@example(case=(780.0, [PASS_ONLY]))
@example(case=(780.0, [OUTLIER, PASS_ONLY]))
@example(case=(780.0, [PASS_ONLY[:10], TIE]))
@example(case=(780.0, [SEVERAL_FIRST, SEVERAL_LATER]))
@example(case=(780.0, [[[50], [], []], [[50], [40], [30]]]))
def test_array_pass_matches_per_frame_reference(case):
    period_ps, tracks_frames = case
    want_steps, want_tracks = [], []
    for frames in tracks_frames:
        rows = [(n, [EdgeObservation(k, RISING) for k in idx]) for n, idx in enumerate(frames)]
        try:
            want_steps.append(estimate_step_carries_per_frame(rows, RISING))
            want_tracks.append(track_per_frame(rows, RISING, period_ps, 78.0))
        except CalibrationError:
            want_steps.append(float("nan"))
    got_steps = [_estimate_step_carries(*edge_arrays(frames)[1:]) for frames in tracks_frames]
    assert same_bits(np.array(got_steps), np.array(want_steps))
    if len(want_tracks) < len(tracks_frames):
        with pytest.raises(CalibrationError):
            [track_each(frames, period_ps, 78.0) for frames in tracks_frames]
        return
    assert [track_each(frames, period_ps, 78.0) for frames in tracks_frames] == want_tracks


def test_tracks_match_per_frame_reference_on_multi_edge_frames(multi_pulse_dataset):
    # a 600 MHz sweep holds several edges of each polarity per frame, so the
    # loop tracks it from the second nonempty frame on; fig4 holds one at most
    fig4 = mlab_datasets(n_channels=1, seed0=7)
    for datasets, several in (([multi_pulse_dataset], True), (fig4, False)):
        rows, _, levels = _edges(datasets[0].bits, 15)
        for pol in (RISING, FALLING):
            assert (np.bincount(rows[levels == pol]).max() > 1) == several
        pols = (RISING, FALLING)
        assert dict_tracks(_tracks(datasets, 15, pols)[1]) == tracks_per_frame(datasets, 15, pols)


def pool_grid(dt_ps):
    return SweepSpec(PllOutputSpec(100e6, 0.25), 5_000, dt_ps, 32)


POOL_GRID = pool_grid(78.0)


def track_lists(max_index):
    """1-10 tracks over steps 0-24, each missing any step, at wraps 0-2."""
    return st.lists(
        st.dictionaries(
            st.integers(0, 24), st.tuples(st.integers(1, max_index), st.integers(0, 2)), max_size=25
        ),
        min_size=1,
        max_size=10,
    )


@settings(max_examples=500, deadline=None)
@given(tracks=track_lists(1300))
def test_pool_matches_per_step_reference(tracks):
    try:
        want = pool_per_step(POOL_GRID, tracks, RISING)
    except CalibrationError as exc:
        with pytest.raises(CalibrationError, match=str(exc)):
            _pool(POOL_GRID, [as_arrays(t) for t in tracks], RISING)
        return
    assert pooled_same_bits(_pool(POOL_GRID, [as_arrays(t) for t in tracks], RISING), want)


@settings(max_examples=500, deadline=None)
@given(
    tracks=st.one_of(track_lists(1300), track_lists(3)),
    dt=st.sampled_from([78.0, 77.7]),
    polarity=st.sampled_from([RISING, FALLING]),
)
def test_transfer_function_matches_by_index_reference(tracks, dt, polarity):
    # _track walks the phase steps in order, so its tracks list them ascending;
    # at dt 77.7 the phases are not integers and the summation order shows
    tracks = [dict(sorted(track.items())) for track in tracks]
    try:
        tr = _pool(pool_grid(dt), [as_arrays(t) for t in tracks], polarity)
    except CalibrationError:
        return
    try:
        want = transfer_function_by_index(tracks, tr, polarity)
    except CalibrationError as exc:
        with pytest.raises(CalibrationError, match=str(exc)):
            _transfer_function(tr, polarity)
        return
    got = _transfer_function(tr, polarity)
    assert got.polarity == want.polarity
    for k in ("index", "t_ps", "dt_ps", "populated"):
        assert same_bits(getattr(got, k), getattr(want, k)), k


def test_pool_censors_steps_at_mixed_wraps_or_missing_channels():
    tracks = [
        {0: (900, 0), 1: (880, 0), 2: (860, 0), 3: (840, 1), 4: (820, 1)},
        {0: (901, 0), 1: (881, 0), 2: (861, 1), 3: (841, 1)},
        {0: (899, 0), 1: (879, 0), 2: (859, 0), 3: (839, 1), 4: (819, 1)},
    ]
    got = _pool(POOL_GRID, [as_arrays(t) for t in tracks], FALLING)
    assert got.steps.tolist() == [0, 1, 3]
    assert got.wraps.tolist() == [0, 0, 1]
    assert pooled_same_bits(got, pool_per_step(POOL_GRID, tracks, FALLING))


@settings(max_examples=1000, deadline=None)
@given(
    y=st.one_of(
        st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.5, -1.0]), max_size=60),
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), max_size=60),
    )
)
def test_isotonic_matches_slicing_reference(y):
    y = np.array(y, dtype=float)
    assert same_bits(_isotonic_increasing(y), isotonic_by_slicing(y))


# -- golden values ----------------------------------------------------------
# calibrate() on the fig4 fixture and on its jitter-free twin, pinned bit for
# bit: a change to how calibration is computed must not move any of these.


def sha256_of(a: np.ndarray) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


def check_golden(datasets, summary, fit_stats, digests):
    result = calibrate(datasets, 15)
    assert result.summary() == summary
    assert {pol: (fit.r2, fit.n_points) for pol, fit in result.fits.items()} == fit_stats
    tfs = {"rise": result.t_of_x, "fall": result.t_of_x_fall}
    got = {
        f"{pol}.{k}": sha256_of(getattr(tf, k))
        for pol, tf in tfs.items()
        for k in ("t_ps", "dt_ps")
    }
    assert got == digests
    # the public entry points agree with calibrate() exactly
    assert fit_carry_times(datasets, 15) == result.fits
    fall = build_transfer_function(datasets, 15, FALLING)
    assert sha256_of(fall.t_ps) == digests["fall.t_ps"]
    assert sha256_of(fall.dt_ps) == digests["fall.dt_ps"]


def test_calibrate_golden(reference_datasets):
    check_golden(
        reference_datasets,
        {
            "tau_rise_ps": 4.909730711313455,
            "tau_rise_err_ps": 0.0037212442758857243,
            "tau_fall_ps": 4.538111374676239,
            "tau_fall_err_ps": 0.004118791515046094,
            "single_shot_rise_ps": 28.606178241945557,
            "single_shot_fall_ps": 28.694165008304285,
        },
        {RISING: (0.9999582677834686, 317), FALLING: (0.9999537374526443, 291)},
        {
            "rise.t_ps": "a999bb9c35b60924d8d047a60037b0170c6502ca636ddd87cf6f88fda2d5538f",
            "rise.dt_ps": "97f8120d796a8c81f92d2b5c47548ff79d50557a41df5d8b3d5cc7d9f7aacfb8",
            "fall.t_ps": "ea1b5f4738bb6179f1a606e2cf5b7e5ea0405923766ad5d61b113cec32800d75",
            "fall.dt_ps": "14ae3ca32f1e743bcc6448395abaf33897da84d891bc3de088605cdca346789c",
        },
    )


def test_calibrate_golden_jitter_free():
    check_golden(
        mlab_datasets(jitter=0.0),
        {
            "tau_rise_ps": 4.9097520815492555,
            "tau_rise_err_ps": 0.00024129864585228556,
            "tau_fall_ps": 4.539628791463174,
            "tau_fall_err_ps": 0.0004747881715095009,
            "single_shot_rise_ps": 1.8508261862000408,
            "single_shot_fall_ps": 1.6053345321917332,
        },
        {RISING: (0.9999997003423021, 320), FALLING: (0.9999996654426924, 295)},
        {
            "rise.t_ps": "a442ee65e4de9ca0e1a09e6bd12ef012e6445d7386d363ef8cbdc20017ff35c9",
            "rise.dt_ps": "3bfa20fdc773ece8df40e3d6a41c16e328c5956937d318a061a70ee3687922fa",
            "fall.t_ps": "3acb4c60bfa7d269b68976f978d470e23583083bac0f3faf3d607b55cbe5e570",
            "fall.dt_ps": "f4ef5955872cf9e991845e901a71856d854acff36b7b073cb6669ddb53966e17",
        },
    )


# -- streaming --------------------------------------------------------------
# calibrate() reads its datasets once, in order, and keeps only their edges


def test_calibrate_of_a_generator_equals_calibrate_of_a_list(reference_datasets, reference_result):
    got = calibrate((ds for ds in reference_datasets), min_run=15)
    for f in fields(got):
        a, b = getattr(got, f.name), getattr(reference_result, f.name)
        if isinstance(a, TransferFunction):
            assert a.polarity == b.polarity, f.name
            for k in ("index", "t_ps", "dt_ps", "populated"):
                assert same_bits(getattr(a, k), getattr(b, k)), (f.name, k)
        else:
            assert repr(a) == repr(b), f.name  # repr: bit for bit, and equal NaNs too
    assert fit_carry_times(iter(reference_datasets), 15) == reference_result.fits
    tf = build_transfer_function(iter(reference_datasets), 15, FALLING)
    assert all(same_bits(getattr(tf, k), getattr(reference_result.t_of_x_fall, k))
               for k in ("index", "t_ps", "dt_ps", "populated"))


def test_calibrate_holds_one_dataset_at_a_time(reference_datasets):
    alive = []  # a weakref to the bits of each dataset yielded so far

    def datasets():
        for ds in reference_datasets:
            ds = replace(ds, bits=ds.bits.copy())  # owned by this generator alone
            assert sum(ref() is not None for ref in alive) <= 1
            alive.append(weakref.ref(ds.bits))
            yield ds

    assert calibrate(datasets(), 15).summary() == calibrate(reference_datasets, 15).summary()
    assert len(alive) == len(reference_datasets)


def test_calibrate_holds_one_dataset_of_edges_at_a_time(reference_datasets, reference_result,
                                                        monkeypatch):
    alive = []  # weakrefs to the arrays of each _edges call so far
    edges = _edges

    def spy(bits, min_run):
        out = edges(bits, min_run)
        alive.append([weakref.ref(a) for a in out])
        return out

    def datasets():
        for ds in reference_datasets:
            assert sum(any(ref() is not None for ref in refs) for refs in alive) <= 1
            yield ds

    # wavecap.calibrate, as an attribute of the package, is the calibrate() function
    monkeypatch.setattr(sys.modules[_edges.__module__], "_edges", spy)
    assert calibrate(datasets(), 15).summary() == reference_result.summary()
    assert len(alive) == len(reference_datasets)


def test_too_few_edges_names_the_dataset_before_the_next_is_read(reference_datasets):
    first = reference_datasets[0]
    # each frame is ones up to a tap two lower than the frame before: rising edges only
    top = 1200 - 2 * np.arange(first.n_frames)
    only_rising = replace(first, bits=(np.arange(first.k) < top[:, None]).astype(np.uint8))

    def datasets():
        yield only_rising
        pytest.fail("a second dataset was read")

    with pytest.raises(CalibrationError, match="^dataset 1: not enough falling edges to track$"):
        calibrate(datasets(), 15)
    with pytest.raises(CalibrationError, match="^dataset 1: not enough falling edges"):
        calibrate([only_rising, first], 15)


def test_pooling_message_names_the_dataset_by_position(reference_datasets):
    # a list and an iterator are named alike: by position, not by count
    first, second = reference_datasets[:2]
    bad = replace(second, sweep_spec=replace(second.sweep_spec, dt_ps=second.sweep_spec.dt_ps + 1))
    message = "^dataset 2: sweep.dt_ps differs from dataset 1$"
    with pytest.raises(CalibrationError, match=message):
        calibrate([first, bad], 15)
    with pytest.raises(CalibrationError, match=message):
        calibrate(iter([first, bad]), 15)


# -- transfer function ------------------------------------------------------


def test_transfer_function_straight_line_ideal():
    ds = mlab_datasets(5.0, 5.0, jitter=0.0, n_channels=2, n_steps=256, tau_sigma=0.0)
    tf = build_transfer_function(ds, 15)
    assert np.all(np.diff(tf.t_ps) > 0)
    slope = np.polyfit(tf.index.astype(float), tf.t_ps, 1)[0]
    assert slope == pytest.approx(5.0, abs=0.02)


def test_transfer_function_uncertainty_tracks_jitter(reference_result):
    tf = reference_result.t_of_x
    # 30 ps common-mode jitter at ~4.9 ps/carry -> ~6 carries, ~30 ps locally
    mid = (tf.index > 300) & (tf.index < 1000)
    assert 18 < np.median(tf.dt_ps[mid]) < 42


def test_transfer_function_dnl_ramp_slope():
    ds = mlab_datasets(
        5.0,
        5.0,
        jitter=0.0,
        n_channels=2,
        n_steps=256,
        tau_sigma=0.0,
        dnl_ramp=tuple(np.linspace(3.0, 1.0, 10)),
    )
    tf = build_transfer_function(ds, 15)
    sel_head = tf.index <= 8
    sel_body = (tf.index > 20) & (tf.index < 200)
    if sel_head.sum() >= 4:
        head_slope = np.polyfit(tf.index[sel_head].astype(float), tf.t_ps[sel_head], 1)[0]
        body_slope = np.polyfit(tf.index[sel_body].astype(float), tf.t_ps[sel_body], 1)[0]
        assert head_slope > 2.0 * body_slope


def test_transfer_function_composition(reference_datasets, reference_result):
    # a fresh frame of a known-phase signal: t_of_x at its edge recovers the
    # injected shift within 3x single-shot precision, 95% of trials
    from wavecap.chain import capture, sample_chain, sample_registers
    from wavecap.waveform import make_pll_output, shift_phase

    res = reference_result
    chain = sample_chain(ChainSpec(1300, 4.91, 4.54, tau_sigma_ps=0.02, seed=100))
    regs = sample_registers(RegisterSpec(seed=200), 1300)
    base = make_pll_output(PllOutputSpec(100e6, 0.25), 120_000)
    rng = np.random.default_rng(7)
    ok = trials = 0
    t0 = 90_000
    ref = None
    for delta in np.arange(4_000, 9_400, 100.0):
        jit = float(rng.normal(0, 30.0))
        frame = capture(shift_phase(base, delta), chain, regs, t0, clock_jitter_ps=jit)
        edges = [e for e in extract_edges(frame, 15) if e.polarity == RISING]
        if not edges:
            continue
        x = max(e.edge_index for e in edges)
        if not 100 <= x <= 1250:
            continue
        t_est = float(np.interp(x, res.t_of_x.index, res.t_of_x.t_ps))
        if ref is None:
            ref = t_est + delta
            continue
        trials += 1
        if abs((ref - delta) - t_est) <= 3 * res.single_shot_rise_ps:
            ok += 1
    assert trials >= 30
    assert ok / trials >= 0.95


def test_single_shot_precision_quantization_floor():
    ds = mlab_datasets(5.0, 5.0, jitter=0.0, n_channels=2, n_steps=256, tau_sigma=0.0)
    tf = build_transfer_function(ds, 15)
    assert single_shot_precision(tf) <= 5.0 / np.sqrt(12) * 1.05


def test_single_shot_precision_30ps(reference_result):
    assert 24.0 < reference_result.single_shot_rise_ps < 36.0
    assert 24.0 < reference_result.single_shot_fall_ps < 36.0


def test_single_shot_precision_scales_with_jitter():
    a = calibrate(mlab_datasets(jitter=15.0, n_channels=4, n_steps=256, seed0=31), 15)
    b = calibrate(mlab_datasets(jitter=30.0, n_channels=4, n_steps=256, seed0=31), 15)
    ratio = b.single_shot_rise_ps / a.single_shot_rise_ps
    assert 1.6 < ratio < 2.4


# -- shrink analysis --------------------------------------------------------


@pytest.fixture(scope="module")
def multi_pulse_dataset():
    src = PllOutputSpec(600e6, 0.5, seed=77)
    spec = SweepSpec(src, 5_000, 104, 256, crystal_jitter_sigma_ps=0.0, seed=5)
    chain = ChainSpec(1300, 4.91, 4.54, tau_sigma_ps=0.0, seed=9)
    return run_sweep(spec, chain, RegisterSpec())


def test_shrink_rate_mlab(multi_pulse_dataset):
    res = shrink_analysis(multi_pulse_dataset)
    assert 0.06 <= res.rate <= 0.12


def test_shrink_rate_matches_tau_asymmetry(multi_pulse_dataset):
    res = shrink_analysis(multi_pulse_dataset)
    assert abs(res.rate - (4.91 - 4.54) / 4.91) < 0.05


def test_shrink_rate_zero_for_symmetric_chain():
    src = PllOutputSpec(600e6, 0.5, seed=77)
    spec = SweepSpec(src, 5_000, 104, 64, seed=5)
    ds = run_sweep(spec, ChainSpec(1300, 5.0, 5.0), RegisterSpec())
    res = shrink_analysis(ds)
    assert res.rate < 0.01


def test_shrink_rate_lab_set():
    src = PllOutputSpec(600e6, 0.5, seed=78)
    spec = SweepSpec(src, 5_000, 104, 128, seed=6)
    ds = run_sweep(spec, ChainSpec(1100, 6.35, 5.60), RegisterSpec())
    res = shrink_analysis(ds)
    assert 0.10 <= res.rate <= 0.20


def shrink_samples_per_frame(dataset, min_run):
    """Reference: (start, width) of each interior pulse, one frame at a time."""
    samples = []
    for bits in dataset.bits:
        b = smooth_bits_per_bit(bits, min_run)
        starts = np.flatnonzero(np.diff(b.astype(np.int8), prepend=-1))
        widths = np.diff(starts, append=b.size)
        for start, width in zip(starts.tolist(), widths.tolist()):
            if b[start] == 1 and width >= min_run and start > 0 and start + width < dataset.k:
                samples.append((start, width))
    return tuple(samples)


def test_shrink_samples_match_per_frame_reference(multi_pulse_dataset):
    res = shrink_analysis(multi_pulse_dataset)
    assert res.samples == shrink_samples_per_frame(multi_pulse_dataset, 15)
