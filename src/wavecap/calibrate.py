"""Recover chain timing from phase-sweep datasets.

A dataset's frames are held as the runs (row, level, first and last tap) of
its bits matrix.  Rows holding a short run are smoothed by merging it into its
surroundings, and the edges of every frame, both polarities, are read off
the run boundaries in one pass per dataset.  The datasets may come from any
iterable, each read once: as it arrives, the track of each polarity is
followed through the sweep, frame n being phase step n, in an array pass up
to the track's first frame of several edges or no match and by a per-frame
loop from there, so a generator holds one dataset's frames and edges at a
time.  A track is (steps, index, wraps) arrays; per polarity, each track's
wraps are aligned with the first track's, and the tracks are pooled on the
steps all channels share at one wrap count into one (steps x channels) matrix
of edge indices.  That pooled matrix feeds both the straight-line fit of edge
index against unwrapped phase, whose reciprocal slope is the per-element
delay, and the carry-index-to-time transfer function and its uncertainty,
whose RMS is the single-shot precision.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial, reduce
from typing import Iterable, Sequence

import numpy as np

from .chain import FALLING, RISING, CaptureFrame
from .storage import spec_to_config
from .sweep import SweepDataset, SweepSpec
from .units import WavecapError

__all__ = [
    "EdgeObservation",
    "TransferFunction",
    "CarryTimeFit",
    "CalibrationResult",
    "ShrinkResult",
    "smooth_bits",
    "extract_edges",
    "fit_carry_times",
    "build_transfer_function",
    "single_shot_precision",
    "shrink_analysis",
    "calibrate",
]

# a polarity is the chain's RISING = 1 / FALLING = 0; its name is for messages
_NAMES = {RISING: "rising", FALLING: "falling"}

# One-sample index quantization floor (uniform distribution over one carry).
QUANT_FLOOR_CARRIES = 1.0 / math.sqrt(12.0)

MIN_PULSE_CARRIES = 15  # the shortest pulse counted, and calibrate's default smoothing
SHRINK_BIN_CARRIES = 25  # shrink_analysis's bin of pulse positions


class CalibrationError(WavecapError):
    pass


@dataclass(frozen=True)
class EdgeObservation:
    edge_index: int  # 1-based carry index
    polarity: int  # RISING or FALLING


def _runs(bits, min_run: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run-length encoding of each row of a (frames, K) bit matrix, a 1-D
    frame being one row: the row, level and 1-based first and last tap of
    every maximal run, row by row.  Only the rows holding a run shorter than
    min_run go through the merge (_smooth_runs), every other row keeps its runs."""
    b = np.atleast_2d(np.asarray(bits, dtype=np.uint8))
    starts = np.ones(b.shape, dtype=bool)
    np.not_equal(b[:, 1:], b[:, :-1], out=starts[:, 1:])
    flat = np.flatnonzero(starts)  # one scan, row by row
    rows = flat // b.shape[1]
    levels = b.reshape(-1)[flat]
    lengths = np.diff(flat, append=b.size)
    # at min_run 1 no run is short: skip np.unique, which allocates even on []
    redo = np.unique(rows[lengths < min_run]) if min_run > 1 else ()
    if len(redo):
        cuts = np.searchsorted(rows, np.c_[redo, redo + 1].ravel())
        # odd pieces are the rows to merge, spliced back in place; even ones stay as they are
        parts = [np.split(a, cuts) for a in (rows, levels, lengths)]
        for i in range(1, len(cuts), 2):
            lv, ln = parts[1][i].tolist(), parts[2][i].tolist()
            _smooth_runs(lv, ln, min_run)
            parts[0][i] = parts[0][i][: len(ln)]  # merging only drops runs
            parts[1][i], parts[2][i] = np.array(lv, np.uint8), np.array(ln)
        rows, levels, lengths = (np.concatenate(p) for p in parts)
    last = np.cumsum(lengths) - rows * b.shape[1]
    return rows, levels, last - lengths + 1, last


def _smooth_runs(levels: list[int], lengths: list[int], min_run: int) -> None:
    """Merge the runs of one row shorter than min_run into their
    surroundings, in place, shortest first (ties go to the first such run)."""
    while len(lengths) > 1:
        shortest = min(lengths)
        if shortest >= min_run:
            break
        i = lengths.index(shortest)
        if 0 < i < len(lengths) - 1:
            lengths[i - 1] += lengths[i] + lengths[i + 1]
            del levels[i : i + 2], lengths[i : i + 2]
        else:
            j = 1 if i == 0 else len(lengths) - 2
            lengths[j] += lengths[i]
            del levels[i], lengths[i]


def smooth_bits(bits: np.ndarray, min_run: int) -> np.ndarray:
    """Run-length smoothing: merge runs shorter than min_run into their
    surroundings, shortest first."""
    _, levels, first, last = _runs(bits, min_run)
    return np.repeat(levels, last - first + 1).reshape(np.shape(bits))


def _edges(bits, min_run: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges of each smoothed row of a (frames, K) bit matrix: the row, the
    1-based carry index and the level before the edge (1 = rising), row by
    row with the index ascending.

    Index 1 is the most recent sample, so a rising edge (0 -> 1 in signal
    time) sits at k with bit_k = 1 and bit_{k+1} = 0.
    """
    if min_run < 1:
        raise CalibrationError("min_run must be >= 1")
    rows, levels, _, last = _runs(bits, min_run)
    edge = last < np.shape(bits)[-1]  # an edge ends every run but a row's last
    return rows[edge], last[edge], levels[edge]


def extract_edges(frame: CaptureFrame | np.ndarray, min_run: int = 1) -> list[EdgeObservation]:
    """Edges of one smoothed frame (see _edges)."""
    bits = frame.bits if isinstance(frame, CaptureFrame) else frame
    _, ks, levels = _edges(bits, min_run)
    return [EdgeObservation(k, level) for k, level in zip(ks.tolist(), levels.tolist())]


# ---------------------------------------------------------------------------
# trajectory tracking and unwrapping
# ---------------------------------------------------------------------------


# (phase steps, edge indices, wrap counts) of one edge trajectory, steps ascending
_Track = tuple[np.ndarray, np.ndarray, np.ndarray]


def _estimate_step_carries(index: np.ndarray, new: np.ndarray) -> float:
    """The median index drop from each edge of one track to the nearest lower
    edge of its next nonempty frame, NaN if none.  index lists the edges
    (>= 1) by frame and then index ascending; new marks each frame's first."""
    rank = new.cumsum()  # of each nonempty frame
    span = int(index.max(initial=0)) + 2
    key = rank * span + index  # ascending, one band of span per nonempty frame
    below = np.searchsorted(key, key + span) - 1  # the highest key under x in the next band
    drops = np.sort((index - index[below])[rank[below] == rank + 1])
    if not drops.size:
        return math.nan
    # np.median's value (the mean of two integers is exact), at a sort's cost
    # rather than np.median's call overhead, which is paid once per track
    return (drops[(drops.size - 1) // 2] + drops[drops.size // 2]).item() / 2


def _track(frame, index, new, step: float, period_ps: float, dt_ps: float) -> _Track:
    """Follow one track (frame holding each edge's frame, which is its phase
    step, the rest as in _estimate_step_carries; step the index drop per
    frame) from the highest edge of its first nonempty frame on to each
    later frame's edge nearest the last match less step per frame since.  An
    upward jump close to a multiple of the per-period carry span is a
    source-period wrap; any other jump beyond tolerance leaves it unmatched."""
    head = new.nonzero()[0]  # each nonempty frame's first edge
    end = np.append(head[1:], frame.size)
    fr, x = frame[head], index[end - 1]
    period_carries = period_ps / (dt_ps / step)
    tol = max(period_carries / 4.0, 3 * step)
    # one pass that takes every frame after the first as matched, so that each prediction
    # is the previous frame's edge less step per frame between (exact: step is a median
    # of integers), and each match test is the loop's own expression
    jump = x[1:] - (x[:-1] - step * (fr[1:] - fr[:-1]))
    direct = np.abs(jump) <= tol
    wraps = np.rint(jump / period_carries)  # half to even, as round()
    wrap = (wraps > 0) & (np.abs(jump - wraps * period_carries) <= tol)
    ok = (end - head == 1)[1:] & (direct | wrap)
    # the pass holds up to the first frame with several edges or no match
    c = fr.size if ok.all() else 1 + int(ok.argmin())
    m = np.zeros(fr.size, dtype=np.int64)
    m[1:] = np.where(direct, 0, wraps).cumsum()
    more = []
    # the loop takes the track on from the pass's last match
    ref_x, ref_f, count = x[c - 1].item(), fr[c - 1].item(), m[c - 1].item()
    for g in range(c, fr.size):
        idx = index[head[g] : end[g]].tolist()
        predicted = ref_x - step * (fr[g].item() - ref_f)
        # the nearer of the two neighbours of predicted; a tie keeps the lower
        i = bisect_left(idx, predicted)
        if i == len(idx) or (i and predicted - idx[i - 1] <= idx[i] - predicted):
            i -= 1
        jump = idx[i] - predicted
        if not abs(jump) <= tol:
            w = round(jump / period_carries)
            if not (w > 0 and abs(jump - w * period_carries) <= tol):
                continue  # unmatched; keep coasting
            count += w
        ref_x, ref_f = idx[i], fr[g].item()
        more.append((ref_f, ref_x, count))
    track = (fr[:c], x[:c], m[:c])
    return tuple(np.concatenate((t, u)) for t, u in zip(track, zip(*more))) if more else track


def _tracks(
    datasets: Iterable[SweepDataset], min_run: int, polarities: Sequence[int]
) -> tuple[SweepSpec, dict[int, list[_Track]]]:
    """The sweep spec and, per polarity, one track per dataset: a sweep whose
    config, seeds aside, is the first one's.  A dataset's edges, all
    polarities from one pass over its bits, are tracked as soon as it is
    read, and only its finished tracks are kept."""
    spec, first, tracks = None, None, {pol: [] for pol in polarities}
    for d, ds in enumerate(datasets, start=1):
        if ds.sweep_spec is None:
            raise CalibrationError("datasets must be sweeps on one shared grid to be pooled")
        # one chain and grid, so one truth: all of the config but its "*.seed = " lines
        text = spec_to_config(ds.chain_spec, ds.reg_spec, ds.sweep_spec)
        spec, lines = ds.sweep_spec, [ln for ln in text.splitlines() if ".seed = " not in ln]
        first = first or lines
        differs = [a.partition(" = ")[0] for a, b in zip(lines, first) if a != b]
        if differs:
            raise CalibrationError(f"dataset {d}: {differs[0]} differs from dataset 1")
        rows, ks, levels = _edges(ds.bits, min_run)
        period = spec.source.period_ps
        for pol in polarities:
            frame, index = rows[levels == pol], ks[levels == pol]
            new = np.ones(frame.size, dtype=bool)  # each nonempty frame's first edge
            np.not_equal(frame[1:], frame[:-1], out=new[1:])
            step = _estimate_step_carries(index, new)
            if math.isnan(step):
                raise CalibrationError(f"dataset {d}: not enough {_NAMES[pol]} edges to track")
            tracks[pol].append(_track(frame, index, new, step, period, spec.dt_ps))
    if spec is None:
        raise CalibrationError("no datasets")
    return spec, tracks


@dataclass(frozen=True)
class _PooledTrajectory:
    steps: np.ndarray  # phase-step indices
    wraps: np.ndarray  # source-period wrap count m per step
    u_ps: np.ndarray  # unwrapped phase, phi - m*period
    xs: np.ndarray  # edge index per step and track, steps x tracks
    x_mean: np.ndarray
    x_std: np.ndarray  # nan where a step has a single observation


def _pool(spec: SweepSpec, tracks: list[_Track], polarity: int) -> _PooledTrajectory:
    period, dt = spec.source.period_ps, spec.dt_ps
    # steps not seen by every channel at one wrap count are censored (the
    # edge sits within jitter reach of a chain end, so only
    # favorably-jittered channels report it); keeping them tilts the slope
    steps = reduce(partial(np.intersect1d, assume_unique=True), [n for n, _, _ in tracks])
    at = [np.searchsorted(n, steps) for n, _, _ in tracks]
    xs = np.stack([x[i] for (_, x, _), i in zip(tracks, at)], axis=1)  # steps x tracks
    wraps = np.stack([m[i] for (_, _, m), i in zip(tracks, at)], axis=1)
    if steps.size:  # each track counts wraps from its own first match, so shift
        # each by its most common difference from the first's (the least on a tie)
        d = wraps - wraps[:, :1]
        wraps -= np.array([np.bincount(c).argmax() for c in (d - d.min()).T]) + d.min()
    same = np.all(wraps == wraps[:, :1], axis=1)
    steps, wraps, xs = steps[same], wraps[same, 0], xs[same].astype(float)
    if len(steps) < 2:
        raise CalibrationError(f"fewer than two phase steps with {_NAMES[polarity]} edges")
    std = xs.std(axis=1, ddof=1) if len(tracks) > 1 else np.full(len(steps), np.nan)
    return _PooledTrajectory(steps, wraps, steps * dt - wraps * period, xs, xs.mean(axis=1), std)


# ---------------------------------------------------------------------------
# weighted straight-line fit
# ---------------------------------------------------------------------------


def _wls_line(x: np.ndarray, y: np.ndarray, sigma: np.ndarray):
    """Weighted least squares y = a + b x; returns a, b, var_b, chi2red, r2."""
    w = 1.0 / sigma**2
    sw = w.sum()
    xbar = (w * x).sum() / sw
    ybar = (w * y).sum() / sw
    sxx = (w * (x - xbar) ** 2).sum()
    b = (w * (x - xbar) * (y - ybar)).sum() / sxx
    a = ybar - b * xbar
    resid = y - (a + b * x)
    dof = max(x.size - 2, 1)
    chi2red = float((w * resid**2).sum() / dof)
    var_b = 1.0 / sxx
    ss_tot = ((y - y.mean()) ** 2).sum()
    r2 = 1.0 - float((resid**2).sum() / ss_tot) if ss_tot > 0 else 1.0
    return a, b, var_b, chi2red, r2


@dataclass(frozen=True)
class CarryTimeFit:
    tau_ps: float
    tau_err_ps: float
    r2: float
    chi2red: float
    n_points: int
    residual_rms_carries: float
    segment_taus_ps: tuple[float, ...] = ()


def _fit_polarity(tr: _PooledTrajectory) -> CarryTimeFit:
    sigma = tr.x_std
    if np.all(np.isnan(sigma)):
        sigma = np.full_like(tr.u_ps, 1.0)  # unweighted
    else:
        med = np.nanmedian(sigma)
        sigma = np.where(np.isnan(sigma), med, sigma)
    sigma = np.maximum(sigma, QUANT_FLOOR_CARRIES)

    a, b, var_b, chi2red, r2 = _wls_line(tr.u_ps, tr.x_mean, sigma)
    if b == 0 or not np.isfinite(b):
        raise CalibrationError("degenerate trajectory: zero slope")
    tau = 1.0 / abs(b)
    se_b = math.sqrt(var_b * max(chi2red, 1.0))
    se_tau = se_b / b**2
    resid = tr.x_mean - (a + b * tr.u_ps)

    # per-wrap-segment slopes capture systematic wiggle the pointwise errors
    # miss; the reported error is the larger of the two estimates
    seg_taus = []
    for m in np.unique(tr.wraps):
        sel = tr.wraps == m
        if sel.sum() >= 8:
            _, bs, *_ = _wls_line(tr.u_ps[sel], tr.x_mean[sel], sigma[sel])
            if bs != 0 and np.isfinite(bs):
                seg_taus.append(1.0 / abs(bs))
    if len(seg_taus) >= 2:
        se_seg = float(np.std(seg_taus, ddof=1) / math.sqrt(len(seg_taus)))
        se_tau = max(se_tau, se_seg)

    return CarryTimeFit(
        tau_ps=tau,
        tau_err_ps=se_tau,
        r2=r2,
        chi2red=chi2red,
        n_points=int(tr.u_ps.size),
        residual_rms_carries=float(np.sqrt(np.mean(resid**2))),
        segment_taus_ps=tuple(seg_taus),
    )


def fit_carry_times(
    datasets: Iterable[SweepDataset], min_run: int = MIN_PULSE_CARRIES
) -> dict[int, CarryTimeFit]:
    """Carry times from pooled sweep data, keyed by RISING and FALLING."""
    spec, tracks = _tracks(datasets, min_run, (RISING, FALLING))
    return {pol: _fit_polarity(_pool(spec, tracks[pol], pol)) for pol in tracks}


# ---------------------------------------------------------------------------
# transfer function
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TransferFunction:
    """Monotone map from carry index to time before capture, with
    per-index uncertainty."""

    polarity: int  # RISING or FALLING
    index: np.ndarray  # contiguous 1-based carry indices
    t_ps: np.ndarray  # strictly increasing
    dt_ps: np.ndarray  # local uncertainty
    populated: np.ndarray  # bool: index observed directly (vs interpolated)


def _isotonic_increasing(y: np.ndarray) -> np.ndarray:
    """Pool-adjacent-violators, then break exact ties with an epsilon ramp."""
    vals, wts, spans = [], [], []
    for v in y.astype(float).tolist():
        w, s = 1.0, 1
        while vals and vals[-1] > v:
            v = (vals[-1] * wts[-1] + v * w) / (wts[-1] + w)
            w += wts.pop()
            s += spans.pop()
            vals.pop()
        vals.append(v)
        wts.append(w)
        spans.append(s)
    out = np.repeat(vals, spans).tolist()
    eps = 1e-9
    for i in range(1, len(out)):
        if out[i] <= out[i - 1]:
            out[i] = out[i - 1] + eps
    return np.array(out, dtype=float)


def build_transfer_function(
    datasets: Iterable[SweepDataset],
    min_run: int = MIN_PULSE_CARRIES,
    polarity: int = RISING,
) -> TransferFunction:
    """Transpose the edge trajectory into t(x) with dt(x) = t'(x) * dx."""
    spec, tracks = _tracks(datasets, min_run, (polarity,))
    return _transfer_function(_pool(spec, tracks[polarity], polarity), polarity)


def _transfer_function(tr: _PooledTrajectory, polarity: int) -> TransferFunction:
    # every channel-level observation, placed at the negated unwrapped phase:
    # larger carry index = earlier signal time = more time before the capture;
    # a stable sort by index keeps each index's phases track by track, steps ascending
    x_all = tr.xs.T.ravel().astype(int)
    order = np.argsort(x_all, kind="stable")
    t_all = np.tile(-tr.u_ps, tr.xs.shape[1])[order]
    xs, first, counts = np.unique(x_all[order], return_index=True, return_counts=True)
    if xs.size < 2:
        raise CalibrationError("fewer than two populated carry indices")

    t_raw = np.empty(xs.size)
    for n in set(counts.tolist()):  # equal-length rows: mean(axis=1) is np.mean per row
        rows = np.flatnonzero(counts == n)
        t_raw[rows] = t_all[first[rows, None] + np.arange(n)].mean(axis=1)
    t_raw -= t_raw[0]
    t_mono = _isotonic_increasing(t_raw)

    grid = np.arange(xs[0], xs[-1] + 1)
    populated = np.isin(grid, xs)
    t_grid = np.interp(grid, xs, t_mono)

    # per-phase index scatter transposed onto the index axis
    has_std = ~np.isnan(tr.x_std)
    if has_std.any():
        order = np.argsort(tr.x_mean[has_std])
        sx = tr.x_mean[has_std][order]
        sdx = np.maximum(tr.x_std[has_std][order], QUANT_FLOOR_CARRIES)
        dx_grid = np.interp(grid, sx, sdx)
    else:
        dx_grid = np.full(grid.size, QUANT_FLOOR_CARRIES)
    # windowed secant slope: per-index means are too noisy for a pointwise
    # derivative, and the uncertainty only needs the local scale of t'(x)
    half = max(min(12, (grid.size - 1) // 2), 1)
    lo = np.clip(np.arange(grid.size) - half, 0, grid.size - 1)
    hi = np.clip(np.arange(grid.size) + half, 0, grid.size - 1)
    slope = (t_grid[hi] - t_grid[lo]) / np.maximum(hi - lo, 1)
    slope = np.maximum(slope, 0.0)
    dt_grid = slope * dx_grid

    return TransferFunction(polarity, grid, t_grid, dt_grid, populated)


def single_shot_precision(tf: TransferFunction) -> float:
    """RMS timing uncertainty over the populated dynamic range."""
    vals = tf.dt_ps[tf.populated]
    return float(np.sqrt(np.mean(vals**2)))


# ---------------------------------------------------------------------------
# pulse-shrink analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShrinkResult:
    rate: float  # carries lost per carry of falling-edge travel
    samples: tuple[tuple[int, int], ...]  # (falling-edge index, width)


def shrink_analysis(dataset: SweepDataset) -> ShrinkResult:
    """Pulse width versus falling-edge position, binned and fit to a line."""
    _, levels, first, last = _runs(dataset.bits, MIN_PULSE_CARRIES)
    widths = last - first + 1
    # a pulse truncated at a chain boundary has no width to report; its
    # position is the 1-based index of the 0 just below it
    keep = (levels == 1) & (widths >= MIN_PULSE_CARRIES) & (first > 1) & (last < dataset.k)
    pos, wid = (first - 1)[keep], widths[keep]
    if pos.size < 2:
        raise CalibrationError("not enough pulses for a shrink fit")

    bins = pos // SHRINK_BIN_CARRIES
    counts = np.bincount(bins)
    nz = np.flatnonzero(counts)
    if nz.size < 2:
        raise CalibrationError("fewer than two populated bins")
    centers = (nz + 0.5) * SHRINK_BIN_CARRIES
    # integer widths: each bin's float sum is exact in any order, as in a per-bin mean
    means = np.bincount(bins, wid)[nz] / counts[nz]
    _, b, *_ = _wls_line(centers, means, np.ones_like(centers))
    return ShrinkResult(rate=abs(b), samples=tuple(zip(pos.tolist(), wid.tolist())))


# ---------------------------------------------------------------------------
# full calibration
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CalibrationResult:
    tau_rise_ps: float
    tau_rise_err_ps: float
    tau_fall_ps: float
    tau_fall_err_ps: float
    t_of_x: TransferFunction
    t_of_x_fall: TransferFunction
    single_shot_rise_ps: float
    single_shot_fall_ps: float
    fits: dict[int, CarryTimeFit]  # keyed by RISING and FALLING

    def summary(self) -> dict:
        """The six figures of a calibration, as ``wavecap calibrate`` reports them."""
        return {
            "tau_rise_ps": self.tau_rise_ps,
            "tau_rise_err_ps": self.tau_rise_err_ps,
            "tau_fall_ps": self.tau_fall_ps,
            "tau_fall_err_ps": self.tau_fall_err_ps,
            "single_shot_rise_ps": self.single_shot_rise_ps,
            "single_shot_fall_ps": self.single_shot_fall_ps,
        }


def calibrate(datasets: Iterable[SweepDataset], min_run: int = MIN_PULSE_CARRIES) -> CalibrationResult:
    """Calibrate from any iterable of sweep datasets, each read once."""
    spec, tracks = _tracks(datasets, min_run, (RISING, FALLING))
    pooled = {pol: _pool(spec, tracks[pol], pol) for pol in tracks}
    fits = {pol: _fit_polarity(pooled[pol]) for pol in tracks}
    tf_rise = _transfer_function(pooled[RISING], RISING)
    tf_fall = _transfer_function(pooled[FALLING], FALLING)
    return CalibrationResult(
        tau_rise_ps=fits[RISING].tau_ps,
        tau_rise_err_ps=fits[RISING].tau_err_ps,
        tau_fall_ps=fits[FALLING].tau_ps,
        tau_fall_err_ps=fits[FALLING].tau_err_ps,
        t_of_x=tf_rise,
        t_of_x_fall=tf_fall,
        single_shot_rise_ps=single_shot_precision(tf_rise),
        single_shot_fall_ps=single_shot_precision(tf_fall),
        fits=fits,
    )
