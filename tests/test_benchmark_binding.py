"""The benchmark still binds to src/ by name.

perfbench's tracer wraps every function its ``TRACED`` table names wherever
the package binds it, two of its count hooks read fields of what
``simulate_ring`` and ``reject_short_pulses`` return, and its set-up code
imports ``chain_from_config`` and ``regs_from_config``.  The default test run
does not collect ``perfbench/tests``, so this guard runs that code of
perfbench against ``src/`` in a child interpreter, which leaves this one's
modules unwrapped whatever happens.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import json, sys, tempfile
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
import bench  # imports wavecap.cli, and with it every module TRACED names
import wavecap.sweep
from tracer import Tracer
from wavecap.ringosc import RingSpec, simulate_ring
from wavecap.waveform import reject_short_pulses
from workloads import WORKLOADS

tracer = Tracer()
tracer.install("wavecap", bench.TRACED)
wrapped = wavecap.sweep.capture is wavecap.chain.capture  # perfbench's tracer test reads it
tracer.uninstall()
trace = simulate_ring(RingSpec(3, initial_state="pulse"), 5_000.0)
node = trace.nodes[0]
counts = {**bench._edges_committed((), {}, trace),
          **bench._edges_scanned((node, 50.0), {}, reject_short_pulses(node, 50.0))}
with tempfile.TemporaryDirectory() as tmp:
    for workload in WORKLOADS.values():  # the set-up of each workload's timed runs
        sys.argv[2:] = [str(workload.write_configs(Path(tmp))["main"])]
        exec(bench.SETUP_CODE, {})
print(json.dumps({"wrapped": wrapped, "counts": counts}))
"""


def test_perfbench_tracer_hooks_and_setup_bind_to_src():
    done = subprocess.run(
        [sys.executable, "-B", "-c", CHILD, str(ROOT / "src"), str(ROOT / "perfbench")],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["wrapped"]
    # a 3-node pulse ring over 5 ns: each node toggles every 3 x 240 ps, node 0
    # 7 times and the three nodes 20 times
    assert result["counts"] == {"ringosc.edges_committed": 20,
                                "waveform.reject_short_pulses.edges_scanned": 7}
