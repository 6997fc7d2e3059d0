"""Watching an asynchronous inverter ring with the capture chain.

An odd ring of inverters has no stable state; a lone domain wall travels
around it forever, holding each node high for exactly N gate delays per lap.
Capturing one node every 5 ns and stitching the frames end to end gives a
continuous record, from which the per-inverter delay falls out as (mean
pulse width) / N.
"""

from wavecap import (
    ChainSpec,
    RegisterSpec,
    RingSpec,
    measure_node_timescale,
    run_continuous,
    simulate_ring,
    stable_pulse_state,
    stitch_frames,
)


def main():
    ring = RingSpec(n=19, tau_gate_ps=240.0, initial_state=stable_pulse_state(19))
    trace = simulate_ring(ring, duration_ps=800_000)

    # a symmetric chain so the capture itself adds no pulse distortion
    chain = ChainSpec(1024, 5.0, 5.0, entry_delay_ps=0.0)
    dataset = run_continuous(
        trace.nodes[0], chain, RegisterSpec(), t_capture_ps=5_000, n_frames=150,
        t_start_ps=15_000,
    )

    series = stitch_frames(dataset, 5.0)
    print(f"stitched {dataset.n_frames} frames into {series.size} contiguous samples")

    m = measure_node_timescale(ring, series, tau_ps=5.0)
    print(
        f"per-inverter delay: {m.per_node_ps:.2f} +- {m.err_ps:.2f} ps "
        f"from {m.n_pulses} pulses (configured 240.00)"
    )


if __name__ == "__main__":
    main()
