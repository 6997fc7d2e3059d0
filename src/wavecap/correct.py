"""Frame error correction: bubble filling and position-dependent dilation.

A shrinking pulse loses width in proportion to how far its trailing edge has
travelled, so the zero gap behind it grows by the same amount.  Scaling the
right endpoint of every wide zero-run by a factor a < 1 pulls that edge back;
with a = 1 - rate the linear part of the shrinkage cancels.  Runs narrower
than the gap threshold are treated as bubbles and filled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .calibrate import _runs
from .chain import CaptureFrame, _flip_rows
from .sweep import SweepDataset
from .units import WavecapError

__all__ = [
    "CorrectionSpec",
    "FidelityStats",
    "correct_frame",
    "correct_dataset",
    "correction_fidelity",
    "dataset_fidelity",
]


@dataclass(frozen=True)
class CorrectionSpec:
    gap_threshold: int = 15
    dilation_factor: float = 0.95

    def __post_init__(self):
        if self.gap_threshold < 1:
            raise WavecapError("gap_threshold must be >= 1")
        if not 0.0 < self.dilation_factor <= 1.0:
            raise WavecapError("dilation_factor must be in (0, 1]")


def _level_runs(bits, level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximal runs of level in each row of a (frames, K) bit matrix, a 1-D
    frame being one row: the row and 1-based inclusive ends l, r of each."""
    rows, levels, first, last = _runs(bits)
    sel = levels == level
    return rows[sel], first[sel], last[sel]


def _corrected(bits, spec: CorrectionSpec) -> np.ndarray:
    """correct_frame applied to every row of a (frames, K) bit matrix."""
    k = bits.shape[1]
    rows, l, r = _level_runs(bits, 0)
    r = np.where(r == k, r, np.floor(spec.dilation_factor * r).astype(np.int64))
    keep = r - l + 1 >= spec.gap_threshold
    # kept runs never overlap, so each is a flip to 0 at tap l - 1 and one back at r
    return _flip_rows(np.tile(rows[keep], 2), np.concatenate((l[keep] - 1, r[keep])), 1, len(bits), k)


def correct_frame(frame: CaptureFrame, spec: CorrectionSpec = CorrectionSpec()) -> CaptureFrame:
    """Fill bubbles and rescale wide zero-gaps toward the chain entry.

    Each zero-run [l, r] keeps its left end while the right end moves to
    r' = floor(a * r); it stays zero when r' - l + 1 clears the gap threshold
    and is filled with ones otherwise, which fills every bubble.  A run still
    touching the far end of the chain is the not-yet-arrived signal, not a
    shrunken gap, so it passes through unscaled.

    Adjusted runs never merge: maximal zero-runs have a 1 between them, so
    the next one starts at l' >= r + 2, while floor(a * r) <= r for
    0 < a <= 1 because float rounding is monotone.
    """
    return replace(frame, bits=_corrected(frame.bits[None], spec)[0])


def correct_dataset(
    dataset: SweepDataset, spec: CorrectionSpec = CorrectionSpec()
) -> SweepDataset:
    return replace(dataset, bits=_corrected(dataset.bits, spec))


@dataclass(frozen=True)
class FidelityStats:
    """Width errors of pulses matched by interval overlap."""

    errors: np.ndarray  # measured width - true width, carries
    n_matched: int
    n_unmatched_truth: int
    n_unmatched_test: int

    @property
    def mean_abs_error(self) -> float:
        return float(np.mean(np.abs(self.errors))) if self.errors.size else 0.0


def _fidelity(truth_bits, test_bits) -> FidelityStats:
    """Width errors of the pulses of each row pair of two bit matrices: each
    true pulse takes the free measured pulse of its row overlapping it most."""
    if np.shape(truth_bits)[-1] != np.shape(test_bits)[-1]:
        raise WavecapError("frames have different lengths")
    span = np.shape(truth_bits)[-1] + 1
    t_rows, t_l, t_r = _level_runs(truth_bits, 1)
    m_rows, m_l, m_r = _level_runs(test_bits, 1)
    # a row's measured pulses are disjoint and sorted, so are their ends: the
    # candidates [lo, hi) are exactly those that overlap the true pulse
    lo = np.searchsorted(m_rows * span + m_r, t_rows * span + t_l)
    hi = np.searchsorted(m_rows * span + m_l, t_rows * span + t_r, side="right")
    # a true pulse with one candidate that no other true pulse has takes it in
    # any visiting order; only the rest go through the greedy loop, in order
    n = m_l.size + 1
    n_ranges = np.cumsum(np.bincount(lo, minlength=n) - np.bincount(hi, minlength=n))
    matched = (hi - lo == 1) & (n_ranges[lo] == 1)
    errors = np.full(t_l.size, np.nan)
    errors[matched] = (m_r - m_l)[lo[matched]] - (t_r - t_l)[matched]
    contested = np.flatnonzero((hi > lo) & ~matched)
    rest = zip(contested.tolist(), *(x[contested].tolist() for x in (t_l, t_r, lo, hi)))
    m_l, m_r = m_l.tolist(), m_r.tolist()
    used = [False] * len(m_l)
    for i, tl, tr, a, z in rest:
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
        errors[i] = (m_r[best] - m_l[best]) - (tr - tl)
    errors = errors[~np.isnan(errors)]
    return FidelityStats(
        errors=errors,
        n_matched=errors.size,
        n_unmatched_truth=t_l.size - errors.size,
        n_unmatched_test=len(m_l) - errors.size,
    )


def correction_fidelity(truth: CaptureFrame, test: CaptureFrame) -> FidelityStats:
    """Match pulses between two same-length frames and compare widths."""
    return _fidelity(truth.bits, test.bits)


def dataset_fidelity(
    truth: SweepDataset, test: SweepDataset
) -> FidelityStats:
    """Pooled pulse-width errors over paired frames."""
    if truth.n_frames != test.n_frames:
        raise WavecapError("datasets have different frame counts")
    return _fidelity(truth.bits, test.bits)
