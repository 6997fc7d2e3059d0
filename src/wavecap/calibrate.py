"""Recover chain timing from phase-sweep datasets.

A dataset's frames are held as the runs (row, level, first and last tap) of
its bits matrix.  Rows holding a short run are smoothed by merging it into its
surroundings, and the edges of every frame, both polarities, are read off
the run boundaries in one pass per dataset.  Each channel and polarity is
then tracked once through the sweep (unwrapping source-period wraps), and
the tracks are pooled per phase step across channels, once per polarity.
The same pooled trajectory feeds the straight-line fit of edge index
against unwrapped phase, whose reciprocal slope is the per-element delay,
and, with the same tracks, the carry-index-to-time transfer function and
its uncertainty, whose RMS is the single-shot precision.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chain import FALLING, RISING, CaptureFrame
from .sweep import SweepDataset
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
        lo, hi = np.searchsorted(rows, redo), np.searchsorted(rows, redo, side="right")
        keep = ~np.isin(rows, redo)
        pieces = [(rows[keep], levels[keep], lengths[keep])]
        for r, a, z in zip(redo.tolist(), lo.tolist(), hi.tolist()):
            lv, ln = levels[a:z].tolist(), lengths[a:z].tolist()
            _smooth_runs(lv, ln, min_run)
            pieces.append((np.full(len(ln), r), np.array(lv, np.uint8), np.array(ln)))
        # the merged rows come last; a stable sort by row puts them back in place
        rows, levels, lengths = (np.concatenate(a) for a in zip(*pieces))
        order = np.argsort(rows, kind="stable")
        rows, levels, lengths = rows[order], levels[order], lengths[order]
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
    return np.repeat(levels, last - first + 1)


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


# {phase step: (edge index, wrap count)} of one edge trajectory
_Track = dict[int, tuple[int, int]]


def _estimate_step_carries(rows, polarity: int) -> float:
    """Median per-step index drop, from nearest-below matching of consecutive
    nonempty frames."""
    drops = []
    prev = None
    for _, idx in rows:
        if prev and idx:
            for x in prev:
                below = bisect_left(idx, x)  # idx[below - 1] is the nearest y < x
                if below:
                    drops.append(x - idx[below - 1])
        prev = idx or prev
    if not drops:
        raise CalibrationError(f"not enough {_NAMES[polarity]} edges to track")
    return float(np.median(drops))


def _track(rows, polarity: int, period_ps: float, dt_ps: float) -> _Track:
    """Follow one edge trajectory through rows of (phase step, ascending edge
    indices); returns {step: (edge_index, wrap_count)}.

    The tracked pulse is the one nearest the previous step's position; an
    upward jump close to a multiple of the per-period carry span is a
    source-period wrap and bumps the wrap counter.
    """
    step = _estimate_step_carries(rows, polarity)
    tau0 = dt_ps / step if step > 0 else float("nan")
    period_carries = period_ps / tau0
    tol = max(period_carries / 4.0, 3 * step)

    out: _Track = {}
    predicted = None
    m = 0
    for n, idx in rows:
        if not idx:
            if predicted is not None:
                predicted -= step
            continue
        if predicted is None:
            x = max(idx)
            out[n] = (x, m)
            predicted = x - step
            continue
        # the nearer of the two neighbours of predicted; a tie keeps the lower
        i = bisect_left(idx, predicted)
        if i == len(idx) or (i and predicted - idx[i - 1] <= idx[i] - predicted):
            i -= 1
        best = idx[i]
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
                predicted -= step  # unmatched; keep coasting
    return out


def _tracks(
    datasets: Sequence[SweepDataset], min_run: int, polarities: Sequence[int]
) -> dict[int, list[_Track]]:
    """Per polarity, one track per dataset; the edges of a dataset, of every
    polarity, come from one pass over its bits matrix."""
    if not datasets:
        raise CalibrationError("no datasets")
    spec = datasets[0].sweep_spec
    for ds in datasets:
        s = ds.sweep_spec
        if s is None or s.dt_ps != spec.dt_ps or s.source.frequency_hz != spec.source.frequency_hz:
            raise CalibrationError("datasets must be sweeps on one shared grid to be pooled")
    out: dict[int, list[_Track]] = {pol: [] for pol in polarities}
    for ds in datasets:
        rows, ks, levels = _edges(ds.bits, min_run)
        steps = ds.phase_index.tolist()
        for pol in polarities:
            sel = levels == pol
            # rows ascend, so frame f's edges are one slice, index ascending
            cuts = np.searchsorted(rows[sel], np.arange(len(steps) + 1)).tolist()
            pol_ks = ks[sel].tolist()
            idx = [pol_ks[a:z] for a, z in zip(cuts, cuts[1:])]
            out[pol].append(_track(list(zip(steps, idx)), pol, spec.source.period_ps, spec.dt_ps))
    return out


@dataclass(frozen=True)
class _PooledTrajectory:
    steps: np.ndarray  # phase-step indices
    wraps: np.ndarray  # source-period wrap count m per step
    u_ps: np.ndarray  # unwrapped phase, phi - m*period
    x_mean: np.ndarray
    x_std: np.ndarray  # nan where a step has a single observation


def _pool(
    datasets: Sequence[SweepDataset], tracks: list[_Track], polarity: int
) -> _PooledTrajectory:
    spec = datasets[0].sweep_spec
    period, dt = spec.source.period_ps, spec.dt_ps
    # steps not seen by every channel at one wrap count are censored (the
    # edge sits within jitter reach of a chain end, so only
    # favorably-jittered channels report it); keeping them tilts the slope
    common = set(tracks[0]).intersection(*tracks[1:])
    steps = sorted(n for n in common if len({track[n][1] for track in tracks}) == 1)
    if len(steps) < 2:
        raise CalibrationError(f"fewer than two phase steps with {_NAMES[polarity]} edges")
    xs = np.array([[track[n][0] for track in tracks] for n in steps], dtype=float)  # steps x tracks
    wraps = np.array([tracks[0][n][1] for n in steps])
    steps = np.array(steps)
    std = xs.std(axis=1, ddof=1) if len(tracks) > 1 else np.full(len(steps), np.nan)
    return _PooledTrajectory(steps, wraps, steps * dt - wraps * period, xs.mean(axis=1), std)


# ---------------------------------------------------------------------------
# weighted straight-line fit
# ---------------------------------------------------------------------------


def _wls_line(x: np.ndarray, y: np.ndarray, sigma: np.ndarray):
    """Weighted least squares y = a + b x; returns a, b, var_a, var_b, chi2red, r2."""
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
    var_a = 1.0 / sw + xbar**2 / sxx
    ss_tot = ((y - y.mean()) ** 2).sum()
    r2 = 1.0 - float((resid**2).sum() / ss_tot) if ss_tot > 0 else 1.0
    return a, b, var_a, var_b, chi2red, r2


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

    a, b, var_a, var_b, chi2red, r2 = _wls_line(tr.u_ps, tr.x_mean, sigma)
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
    datasets: Sequence[SweepDataset], min_run: int = 15
) -> dict[int, CarryTimeFit]:
    """Carry times from pooled sweep data, keyed by RISING and FALLING."""
    tracks = _tracks(datasets, min_run, (RISING, FALLING))
    return {pol: _fit_polarity(_pool(datasets, tracks[pol], pol)) for pol in tracks}


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

    def time_of(self, x) -> np.ndarray:
        return np.interp(np.asarray(x, dtype=float), self.index, self.t_ps)


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
    datasets: Sequence[SweepDataset],
    min_run: int = 15,
    polarity: int = RISING,
) -> TransferFunction:
    """Transpose the edge trajectory into t(x) with dt(x) = t'(x) * dx."""
    tracks = _tracks(datasets, min_run, (polarity,))[polarity]
    return _transfer_function(tracks, _pool(datasets, tracks, polarity), polarity)


def _transfer_function(
    tracks: list[_Track], tr: _PooledTrajectory, polarity: int
) -> TransferFunction:
    # every channel-level observation, placed at the negated unwrapped phase:
    # larger carry index = earlier signal time = more time before the capture
    step_u = dict(zip(tr.steps.tolist(), tr.u_ps.tolist()))
    by_index: dict[int, list[float]] = {}
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


def shrink_analysis(
    dataset: SweepDataset, min_run: int = 15, bin_width: int = 25
) -> ShrinkResult:
    """Pulse width versus falling-edge position, binned and fit to a line."""
    if min_run < 1 or bin_width < 1:
        raise CalibrationError("min_run and bin_width must be >= 1")
    _, levels, first, last = _runs(dataset.bits, min_run)
    widths = last - first + 1
    # a pulse truncated at a chain boundary has no width to report; its
    # position is the 1-based index of the 0 just below it
    keep = (levels == 1) & (widths >= min_run) & (first > 1) & (last < dataset.k)
    samples = list(zip((first - 1)[keep].tolist(), widths[keep].tolist()))
    if len(samples) < 2:
        raise CalibrationError("not enough pulses for a shrink fit")

    pos = np.array([s for s, _ in samples], dtype=float)
    wid = np.array([w for _, w in samples], dtype=float)
    bins = (pos // bin_width).astype(int)
    centers, means = [], []
    for bval in np.unique(bins):
        centers.append((bval + 0.5) * bin_width)
        means.append(wid[bins == bval].mean())
    if len(centers) < 2:
        raise CalibrationError("fewer than two populated bins")
    centers = np.array(centers)
    _, b, *_ = _wls_line(centers, np.array(means), np.ones_like(centers))
    return ShrinkResult(rate=abs(b), samples=tuple(samples))


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
    min_run: int

    def summary(self) -> dict:
        return {
            "tau_rise_ps": self.tau_rise_ps,
            "tau_rise_err_ps": self.tau_rise_err_ps,
            "tau_fall_ps": self.tau_fall_ps,
            "tau_fall_err_ps": self.tau_fall_err_ps,
            "single_shot_rise_ps": self.single_shot_rise_ps,
            "single_shot_fall_ps": self.single_shot_fall_ps,
            "r2_rise": self.fits[RISING].r2,
            "r2_fall": self.fits[FALLING].r2,
            "n_points_rise": self.fits[RISING].n_points,
            "n_points_fall": self.fits[FALLING].n_points,
            "min_run": self.min_run,
        }


def calibrate(datasets: Sequence[SweepDataset], min_run: int = 15) -> CalibrationResult:
    tracks = _tracks(datasets, min_run, (RISING, FALLING))
    pooled = {pol: _pool(datasets, tracks[pol], pol) for pol in tracks}
    fits = {pol: _fit_polarity(pooled[pol]) for pol in tracks}
    tf_rise = _transfer_function(tracks[RISING], pooled[RISING], RISING)
    tf_fall = _transfer_function(tracks[FALLING], pooled[FALLING], FALLING)
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
        min_run=min_run,
    )
