"""Time units.

All times are kept internally as signed 64-bit integer femtoseconds so that
edge ordering and register sampling never hinge on float comparisons.  The
public API speaks picoseconds (floats are fine; they are rounded to the
nearest femtosecond on entry).
"""

from __future__ import annotations

import math

FS_PER_PS = 1000


class WavecapError(ValueError):
    """A bad input: a spec, config, dataset or report the program cannot use.
    The CLI reports it and exits with code 2; any other exception is a bug."""


def require_finite(spec, error: type[WavecapError]) -> None:
    """Raise ``error`` naming the first float field of a dataclass not finite
    in femtoseconds, or a negative ``seed`` field."""
    for name, value in vars(spec).items():
        if isinstance(value, float) and not math.isfinite(value * FS_PER_PS):
            raise error(f"{name} must be finite in femtoseconds, got {value}")
    if vars(spec).get("seed", 0) < 0:
        raise error(f"seed must be >= 0, got {spec.seed}")


def ps_to_fs(t_ps: float) -> int:
    """Round a picosecond quantity to integer femtoseconds."""
    t_fs = t_ps * FS_PER_PS
    if not math.isfinite(t_fs):
        raise WavecapError(f"{t_ps} ps is not a finite number of femtoseconds")
    return int(round(t_fs))


def fs_to_ps(t_fs: int) -> float:
    return t_fs / FS_PER_PS

