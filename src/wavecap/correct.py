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
from .chain import CaptureFrame
from .sweep import SweepDataset

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
            raise ValueError("gap_threshold must be >= 1")
        if not 0.0 < self.dilation_factor <= 1.0:
            raise ValueError("dilation_factor must be in (0, 1]")


def _level_runs(bits: np.ndarray, level: int) -> list[tuple[int, int]]:
    """Maximal runs of level as 1-based inclusive [l, r] intervals."""
    _, levels, lengths = _runs(bits)
    ends = np.cumsum(lengths)
    sel = levels == level
    return list(zip((ends - lengths + 1)[sel].tolist(), ends[sel].tolist()))


def correct_frame(frame: CaptureFrame, spec: CorrectionSpec = CorrectionSpec()) -> CaptureFrame:
    """Fill bubbles and rescale wide zero-gaps toward the chain entry.

    Zero-runs shorter than the gap threshold vanish (bubble fill).  Each
    remaining run [l, r] keeps its left end while the right end moves to
    floor(a * r); overlapping adjusted runs merge, and an adjusted run that
    no longer clears the threshold is dropped.  A run still touching the far
    end of the chain is the not-yet-arrived signal, not a shrunken gap, so it
    passes through unscaled.
    """
    bits = frame.bits
    k = bits.size
    regions = []
    for l, r in _level_runs(bits, 0):
        if r - l + 1 < spec.gap_threshold:
            continue
        if r == k:
            regions.append((l, r))
            continue
        regions.append((l, int(np.floor(spec.dilation_factor * r))))
    # merge overlapping or touching intervals
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
    return replace(frame, bits=out)


def correct_dataset(
    dataset: SweepDataset, spec: CorrectionSpec = CorrectionSpec()
) -> SweepDataset:
    return replace(
        dataset, frames=tuple(correct_frame(f, spec) for f in dataset.frames)
    )


@dataclass(frozen=True)
class FidelityStats:
    """Width errors of pulses matched by interval overlap."""

    errors: np.ndarray  # measured width - true width, carries
    n_matched: int
    n_unmatched_truth: int
    n_unmatched_test: int

    @property
    def mean_error(self) -> float:
        return float(np.mean(self.errors)) if self.errors.size else 0.0

    @property
    def mean_abs_error(self) -> float:
        return float(np.mean(np.abs(self.errors))) if self.errors.size else 0.0


def correction_fidelity(truth: CaptureFrame, test: CaptureFrame) -> FidelityStats:
    """Match pulses between two same-length frames and compare widths."""
    if truth.k != test.k:
        raise ValueError("frames have different lengths")
    truth_pulses = _level_runs(truth.bits, 1)
    test_pulses = _level_runs(test.bits, 1)
    used = [False] * len(test_pulses)
    errors = []
    unmatched_truth = 0
    for tl, tr in truth_pulses:
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
    return FidelityStats(
        errors=np.array(errors, dtype=float),
        n_matched=len(errors),
        n_unmatched_truth=unmatched_truth,
        n_unmatched_test=used.count(False),
    )


def dataset_fidelity(
    truth: SweepDataset, test: SweepDataset
) -> FidelityStats:
    """Pooled pulse-width errors over paired frames."""
    if truth.n_frames != test.n_frames:
        raise ValueError("datasets have different frame counts")
    parts = [correction_fidelity(a, b) for a, b in zip(truth.frames, test.frames)]
    return FidelityStats(
        errors=np.concatenate([p.errors for p in parts]) if parts else np.empty(0),
        n_matched=sum(p.n_matched for p in parts),
        n_unmatched_truth=sum(p.n_unmatched_truth for p in parts),
        n_unmatched_test=sum(p.n_unmatched_test for p in parts),
    )
