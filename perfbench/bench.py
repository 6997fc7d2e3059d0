"""Closed-loop benchmark of the wavecap CLI: one client, one op at a time.

Each op drives one workload seed through ``wavecap.cli.main`` in the
benchmark's own process and is timed from outside.  With ``trace`` off the
run reports the end-to-end metrics; with it on, each op seed runs once
untraced and once traced, and the run reports per-layer self times and work
counts from wrappers installed around wavecap's public functions.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import wavecap
import wavecap.cli as cli

from tracer import Span, Tracer, aggregate
from workloads import Workload, output_digest, read_reports, report_failures

ROOT = Path(__file__).resolve().parent.parent

# Fresh-interpreter set-up: import wavecap, load the workload config, sample
# the chain and the register bank.  numpy's import alone varied from 0.13 s
# to 0.32 s between fresh runs on a 2-core machine, so the median of several
# is reported and setup_s gets the widest bound.
SETUP_RUNS = 7
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import wavecap
from wavecap.storage import chain_from_config, parse_config_text, regs_from_config
with open(sys.argv[2]) as f:
    kv = parse_config_text(f.read())
chain = wavecap.sample_chain(chain_from_config(kv))
wavecap.sample_registers(regs_from_config(kv), chain.k)
"""


def _edges_scanned(args, kwargs, result):
    return {"waveform.reject_short_pulses.edges_scanned": args[0].n_edges}


def _edges_committed(args, kwargs, result):
    return {"ringosc.edges_committed": sum(w.n_edges for w in result.nodes)}


def _dir_bytes(directory) -> int:
    return sum(p.stat().st_size for p in Path(directory).iterdir() if p.is_file())


def _bytes_written(args, kwargs, result):
    return {"storage.bytes_written": _dir_bytes(args[1])}


def _bytes_read(args, kwargs, result):
    return {"storage.bytes_read": _dir_bytes(args[0])}


# Public functions wrapped in the traced run, by module, with count hooks.
TRACED = {
    "waveform.make_pll_output": None,
    "waveform.shift_phase": None,
    "waveform.reject_short_pulses": _edges_scanned,
    "chain.sample_chain": None,
    "chain.sample_registers": None,
    "chain.capture": None,
    "sweep.run_sweep": None,
    "sweep.run_continuous": None,
    "calibrate.calibrate": None,
    "calibrate.smooth_bits": None,
    "calibrate.extract_edges": None,
    "calibrate.fit_carry_times": None,
    "calibrate.build_transfer_function": None,
    "calibrate.single_shot_precision": None,
    "calibrate.shrink_analysis": None,
    "correct.correct_dataset": None,
    "correct.correct_frame": None,
    "correct.dataset_fidelity": None,
    "correct.correction_fidelity": None,
    "ringosc.simulate_ring": _edges_committed,
    "ringosc.stitch_frames": None,
    "ringosc.measure_node_timescale": None,
    "storage.save_dataset": _bytes_written,
    "storage.load_dataset": _bytes_read,
    "storage.write_report": None,
    "storage.write_pgm": None,
    "cli.main": None,
}
CALLS_REPORTED = ("calibrate.smooth_bits", "calibrate.extract_edges", "correct.correct_frame",
                  "waveform.reject_short_pulses", "chain.capture", "waveform.shift_phase")
# Accuracy figure of an op -> (per-layer metric, unit).
ACCURACY = {
    "tau_err_ps": ("calibrate.tau_err_ps", "ps"),
    "single_shot_err_ps": ("calibrate.single_shot_err_ps", "ps"),
    "width_err_carries": ("correct.width_err_carries", "carries"),
    "gate_delay_err_ps": ("ringosc.gate_delay_err_ps", "ps"),
}

END_TO_END = {"run_ref": "ref", "frames_per_ref": "1/ref", "setup_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER = {
    **{("cli.self_s" if n == "cli.main" else f"{n}.s"): "s" for n in TRACED},
    **{f"{n}.calls": "count" for n in CALLS_REPORTED},
    "calibrate.extract_edges.calls_per_frame": "count/frame",
    "waveform.reject_short_pulses.edges_scanned": "count",
    "chain.capture.us_per_frame": "us",
    "chain.capture.frame_cost_growth": "ratio",
    "ringosc.edges_committed": "count",
    "ringosc.events_per_s": "1/s",
    "storage.bytes_written": "B",
    "storage.save_mib_per_s": "MiB/s",
    "storage.bytes_read": "B",
    "storage.load_mib_per_s": "MiB/s",
    "storage.manifest_rerun_identical": "count",
    "trace.overhead_s": "s",
    "trace.accounted_share": "share",
    **dict(ACCURACY.values()),
}
# Host speed on a shared machine drifts by a quarter and more over seconds to
# minutes, and a fixed reference kernel slows with it.  The kernel is timed
# before the first op and after each op, and the run's median op seconds are
# divided by its median kernel seconds.
REFERENCE_REPS = 5
# The extra traced pass that measures how capture cost per frame grows runs
# at 1/GROWTH_DIVISOR of the size.
GROWTH_DIVISOR = 4
# Smallest size at which every workload's commands succeed (calibrate needs
# enough phase steps to track edges); the untimed warm-up runs at least this.
WARM_SIZE = 32


@dataclass
class Op:
    seed: int
    seconds: float
    failures: list[str] = field(default_factory=list)
    digest: Optional[str] = None
    accuracy: dict[str, float] = field(default_factory=dict)
    manifests: dict[str, bytes] = field(default_factory=dict)


def run_op(workload: Workload, cfg: dict[str, Path], out: Path, seed: int,
           digests: Optional[dict[int, str]], tracer: Optional[Tracer] = None,
           span_op: Optional[int] = None) -> Op:
    """Run one op, time it, check it, and delete its outputs.

    digests maps op seed to the recorded output digest.  With None only the
    exit codes are checked: the warm-up and the growth pass run at other
    sizes, where neither digests nor the report tolerances apply.
    """
    shutil.rmtree(out, ignore_errors=True)
    gc.collect()  # the previous op's garbage is not this op's cost
    argvs = workload.argvs(cfg, out, seed)
    op = Op(seed, 0.0)
    if tracer is not None:
        tracer.install("wavecap", TRACED)
        tracer.op = span_op
    start = time.perf_counter()
    try:
        for argv in argvs:
            code = cli.main(argv)
            if code != 0:
                op.failures.append(f"wavecap {argv[0]} exited with {code}")
    except Exception:  # a traceback is a failed op, not a failed benchmark
        op.failures.append(traceback.format_exc(limit=3))
    finally:
        op.seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.op = None
            tracer.uninstall()

    if digests is not None and not op.failures:
        reports = read_reports(out)
        op.failures += report_failures(cli.main, [out / name for name in reports])
        op.digest = output_digest(out)
        if digests.get(seed) != op.digest:
            op.failures.append(f"digest {op.digest} != recorded {digests.get(seed)}")
        try:
            op.accuracy = workload.accuracy(reports)
        except KeyError as exc:
            op.failures.append(f"report.json lacks {exc}")
        op.manifests = {p.relative_to(out).as_posix(): p.read_bytes()
                        for p in sorted(out.rglob("manifest.json"))}
    shutil.rmtree(out, ignore_errors=True)
    return op


def setup_seconds(config: Path, runs: int = SETUP_RUNS) -> list[float]:
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(ROOT / "src"), str(config)],
                       check=True, cwd=ROOT, timeout=60,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        times.append(time.perf_counter() - start)
    return times


def reference_kernel():
    """A timer for a fixed kernel of Python object churn and numpy sorting.

    Its time stands for the host's speed at the moment.  It builds CSV rows
    of bits, as storage does, and sorts a 4 MB array.  Its data is allocated
    once, so that it adds a constant to the benchmark's peak RSS.
    """
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, 20_000).tolist()
    data = rng.random(500_000)
    buf = np.empty_like(data)

    def seconds() -> float:
        times = []
        for _ in range(REFERENCE_REPS):
            start = time.perf_counter()
            for _ in range(3):
                ",".join(map(str, bits))
            buf[:] = data
            buf.sort()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    return seconds


def op_seed_order(workload: str, seed: int, pool: list[int]) -> list[int]:
    """The run's op seeds: a permutation of the recorded pool fixed by seed."""
    return random.Random(f"{workload}:{seed}").sample(sorted(pool), len(pool))


def tail_percentile(values: list[float]) -> Optional[tuple[int, float]]:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100 * (1 - 10 / n))
    ordered = sorted(values)
    return p, ordered[max(math.ceil(p / 100 * n) - 1, 0)]


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src = ROOT / "src" / "wavecap"
    h = hashlib.sha256()
    for p in sorted(src.rglob("*")):
        if p.is_file() and p.suffix in (".py", ".config"):
            h.update(p.relative_to(src).as_posix().encode() + b"\0" + p.read_bytes())
    return {
        "commit": commit,
        "src_sha256": h.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
    }


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(workload: Workload, pairs: list[tuple[Op, Op]], spans: list[Span],
                  counts: dict, growth_op: int, growth_frames: int) -> dict[str, float]:
    """Per-layer metrics: per-op medians over the traced ops of the run.

    growth_op is the span op id of the extra traced pass that captured
    growth_frames frames.
    """
    traced = [t for _, t in pairs]
    ids = list(range(len(traced)))
    per_op = aggregate(spans, ids + [growth_op])

    def stat(i: int, name: str, key: str) -> float:
        return per_op[i].get(name, {}).get(key, 0.0)

    def per_frame_us(i: int, frames: int) -> float:
        return stat(i, "chain.capture", "incl_s") / frames * 1e6

    m: dict[str, float] = {}
    for name in TRACED:
        metric = "cli.self_s" if name == "cli.main" else f"{name}.s"
        m[metric] = _median(stat(i, name, "self_s") for i in ids)
    for name in CALLS_REPORTED:
        m[f"{name}.calls"] = _median(stat(i, name, "calls") for i in ids)
    m["calibrate.extract_edges.calls_per_frame"] = (
        m["calibrate.extract_edges.calls"] / workload.frames_per_op)
    for key in ("waveform.reject_short_pulses.edges_scanned", "ringosc.edges_committed",
                "storage.bytes_written", "storage.bytes_read"):
        m[key] = _median(counts[i].get(key, 0.0) for i in ids)
    m["chain.capture.us_per_frame"] = _median(per_frame_us(i, workload.frames_per_op)
                                              for i in ids)
    small = per_frame_us(growth_op, growth_frames)
    m["chain.capture.frame_cost_growth"] = m["chain.capture.us_per_frame"] / small if small else 0.0

    def rate(amount_key: str, name: str, scale: float) -> float:
        return _median(
            counts[i].get(amount_key, 0.0) / scale / stat(i, name, "incl_s")
            if stat(i, name, "incl_s") else 0.0
            for i in ids)

    m["ringosc.events_per_s"] = rate("ringosc.edges_committed", "ringosc.simulate_ring", 1)
    m["storage.save_mib_per_s"] = rate("storage.bytes_written", "storage.save_dataset", 2**20)
    m["storage.load_mib_per_s"] = rate("storage.bytes_read", "storage.load_dataset", 2**20)
    m["storage.manifest_rerun_identical"] = sum(
        sum(t.manifests.get(k) == v for k, v in u.manifests.items()) for u, t in pairs)
    m["trace.overhead_s"] = _median(t.seconds - u.seconds for u, t in pairs)
    m["trace.accounted_share"] = _median(
        sum(row["self_s"] for row in per_op[i].values()) / traced[i].seconds for i in ids)
    for key, (metric, _) in ACCURACY.items():
        m[metric] = _median(t.accuracy[key] for t in traced if key in t.accuracy)
    return m


def run(workload: Workload, seed: int, seconds: float, trace: bool, work: Path,
        digests: dict[int, str], spans_out: Optional[Path] = None) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, detailed record)."""
    if not digests:
        raise ValueError(f"no recorded digests for workload {workload.name}")
    shutil.rmtree(work, ignore_errors=True)
    cfg = workload.write_configs(work / "configs")
    warm = workload.resized(max(WARM_SIZE, workload.size // 16))
    warm_cfg = warm.write_configs(work / "warm-configs")

    setup = [] if trace else setup_seconds(cfg["main"])
    ops = [run_op(warm, warm_cfg, work / "op", 0, None)]
    order = op_seed_order(workload.name, seed, list(digests))
    tracer = Tracer() if trace else None
    pairs: list[tuple[Op, Op]] = []
    timed: list[Op] = []

    reference_seconds = reference_kernel()
    refs = [reference_seconds()]
    begin = time.perf_counter()
    for i in itertools.count():
        op_seed = order[i % len(order)]
        op = run_op(workload, cfg, work / "op", op_seed, digests)
        refs.append(reference_seconds())
        timed.append(op)
        if trace:
            traced = run_op(workload, cfg, work / "op", op_seed, digests, tracer, len(pairs))
            pairs.append((op, traced))
        if time.perf_counter() - begin >= seconds:
            break
    ops += timed + [t for _, t in pairs]

    growth_op, small = -1, workload.resized(workload.size // GROWTH_DIVISOR)
    if trace:
        ops.append(run_op(small, small.write_configs(work / "small-configs"), work / "op",
                          order[0], None, tracer, growth_op))
    shutil.rmtree(work, ignore_errors=True)

    failed = [o for o in ops if o.failures]
    times = [o.seconds for o in timed]
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "trace": int(trace),
        "closed_loop": "one client, one op in flight",
        "env": environment(),
        "op_seeds": [o.seed for o in timed],
        "op_seconds": times,
        "reference_seconds": refs,
        "run_s": _median(times),
        "frames_per_s": _median(workload.frames_per_op / t for t in times),
        "samples": len(times),
        "tail_percentile": tail_percentile(times),
        "setup_seconds": setup,
        "fail_share": len(failed) / len(ops),
        "failures": [f for o in failed for f in o.failures][:20],
        "accuracy": {k: _median(o.accuracy[k] for o in timed if k in o.accuracy)
                     for k in ACCURACY if any(k in o.accuracy for o in timed)},
        "frames_per_op": workload.frames_per_op,
    }
    if trace:
        spans = tracer.finished_spans()
        if spans_out is not None:
            tracer.write(spans_out)
        metrics = layer_metrics(workload, pairs, spans, tracer.counts, growth_op,
                                small.frames_per_op)
        units = PER_LAYER
    else:
        metrics = {
            "run_ref": _median(times) / _median(refs),
            "frames_per_ref": workload.frames_per_op * _median(refs) / _median(times),
            "setup_s": _median(setup),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, record
