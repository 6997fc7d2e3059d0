"""In-memory span tracer that wraps wavecap's public functions from outside.

A traced function is replaced at every module attribute that binds it, so a
call reached through another module's import (``wavecap.sweep.capture``) or
through a module global (``extract_edges`` calling ``smooth_bits``) is
recorded as well.  Spans stay in memory and are written out once, at the end
of a run.  Self time is a span's duration minus the durations of its direct
children, which is exact because spans on one thread nest.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional

# A count hook turns (args, kwargs, result) into {counter name: amount}.
CountHook = Callable[[tuple, dict, object], dict]


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    op: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Per-span self time: duration minus the durations of direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def aggregate(spans: list[Span], ops: Iterable[int]) -> dict[int, dict[str, dict]]:
    """Per op and span name: calls, inclusive seconds and self seconds."""
    out: dict[int, dict[str, dict]] = {op: {} for op in ops}
    for span, own in zip(spans, self_times(spans)):
        if span.op not in out:
            continue
        row = out[span.op].setdefault(span.name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["incl_s"] += span.duration
        row["self_s"] += own
    return out


class Tracer:
    """Records nested spans and counters while ``op`` is not None."""

    def __init__(self) -> None:
        self.spans: list[Optional[Span]] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op: Optional[int] = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, count: Optional[CountHook] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = Span(name, start, end, parent, op)
            if count is not None:
                for key, amount in count(args, kwargs, result).items():
                    self.counts[op][key] += amount
            return result

        return traced

    def install(self, package: str, targets: dict[str, Optional[CountHook]]) -> None:
        """Wrap each ``module.function`` in targets wherever the package binds it.

        Target names are relative to the package (``"chain.capture"``); the
        span name is the same string.
        """
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for target, hook in targets.items():
            mod_name, fn_name = target.rsplit(".", 1)
            original = getattr(sys.modules[f"{package}.{mod_name}"], fn_name)
            wrapper = self.wrap(target, original, hook)
            bound = 0
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))
                        bound += 1
            if bound == 0:
                raise RuntimeError(f"{package}.{target} is bound nowhere")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def finished_spans(self) -> list[Span]:
        if self._stack:
            raise RuntimeError("spans are still open")
        return list(self.spans)

    def write(self, path: Path) -> None:
        """Write every span as one CSV row: name,start,end,parent,op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = ["name,start_s,end_s,parent,op"]
        rows += [f"{s.name},{s.start:.9f},{s.end:.9f},{s.parent},{s.op}"
                 for s in self.finished_spans()]
        path.write_text("\n".join(rows) + "\n")
