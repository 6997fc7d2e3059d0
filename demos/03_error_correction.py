"""Undoing pulse shrinking in software.

A pulse loses (tau_rise - tau_fall) of width per element it travels, which
is a position-dependent, hence invertible, distortion: scale every wide
zero-gap's right endpoint by alpha = 1 - rate and the linear part cancels.
Ground truth comes from a twin chain with equal rise/fall delays, where
nothing shrinks.
"""

from dataclasses import replace

from wavecap import (
    ChainSpec,
    CorrectionSpec,
    PllOutputSpec,
    RegisterSpec,
    SweepSpec,
    correct_dataset,
    dataset_fidelity,
    run_sweep,
    shrink_analysis,
)


def main():
    sweep = SweepSpec(
        source=PllOutputSpec(600e6, duty_cycle=0.5, seed=77),
        t_capture_ps=5_000,
        dt_ps=104.0,
        n_steps=128,
        seed=5,
    )
    chain = ChainSpec(1300, 4.91, 4.54, entry_delay_ps=0.0, seed=9)
    regs = RegisterSpec()

    measured = run_sweep(sweep, chain, regs)
    truth = run_sweep(sweep, replace(chain, tau_fall_ps=chain.tau_rise_ps), regs)

    res = shrink_analysis(measured)
    print(f"measured contraction rate: {res.rate:.4f} carries per carry of travel")

    corrected = correct_dataset(measured, CorrectionSpec(15, 1.0 - res.rate))
    before = dataset_fidelity(truth, measured).mean_abs_error
    after = dataset_fidelity(truth, corrected).mean_abs_error
    print(f"mean |pulse-width error|: {before:.2f} carries raw -> {after:.2f} corrected")
    print(f"improvement: {1 - after / before:.0%}")


if __name__ == "__main__":
    main()
