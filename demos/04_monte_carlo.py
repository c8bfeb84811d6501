"""Round-level protocol simulation cross-validating the analytics.

Runs a million forced-matching rounds at 10 km, tallies detector
patterns and per-pair errors after bit-flip cooperation, and compares
the tally's empirical gain and pair QBERs (its ``gain`` and
``pair_qbers`` properties) against their exact expectation under the
simulator's click model.  Beside them it prints the paper's closed-form
pair QBERs, whose slice misalignment e_delta(M) is below the click
model's mean misalignment e_avg(M), so they come out lower.
Also demonstrates reference-deviation compensation via adjusted slice
indices.
"""

import math

from pmqcc import (
    ChannelParams,
    ProtocolParams,
    SimConfig,
    branch_qber_avg,
    intrinsic_misalignment,
    marginal_qber,
    run_rounds,
    tally_expectation,
    transmittance,
)


def main():
    pp = ProtocolParams(n_parties=3, signal_intensity=0.1333, slice_count=14)
    ch = ChannelParams(loss_rate=0.2, distance=10.0, detector_efficiency=0.65, dark_count=7.2e-8)
    tally = run_rounds(pp, ch, SimConfig(rounds=1_000_000, seed=8), workers=2)

    print(f"rounds sent {tally.sent}, sifted {tally.sifted}, successes {tally.success}")
    print("click patterns:", dict(sorted(tally.pattern_counts.items())))

    gain, pair_errors = tally_expectation(pp, ch)
    sig = abs(tally.gain - gain) / math.sqrt(gain * (1 - gain) / tally.sifted)
    print(f"\ngain: empirical {tally.gain:.4e} vs analytic {gain:.4e}  ({sig:.2f} sigma)")
    for m in (2, 3):
        expected = pair_errors[m]
        se = math.sqrt(expected * (1 - expected) / tally.success)
        sig = abs(tally.pair_qbers[m] - expected) / se
        print(f"pair (1,{m}) QBER: empirical {tally.pair_qbers[m]:.5f} vs analytic "
              f"{expected:.5f}  ({sig:.2f} sigma)")

    m_slices = pp.slice_count
    e_avg = (1.0 - (m_slices / math.pi) ** 2 * math.sin(math.pi / m_slices) ** 2) / 2.0
    branch = branch_qber_avg(transmittance(ch) * pp.signal_intensity, ch.dark_count, m_slices)
    print(f"closed form with the paper's e_delta({m_slices}) = {intrinsic_misalignment(m_slices):.5f} "
          f"(click-model mean e_avg({m_slices}) = {e_avg:.5f}):")
    print("  " + ", ".join(f"pair (1,{m}) QBER {marginal_qber(branch, m):.5f}" for m in (2, 3)))

    # a whole-slice reference deviation, cancelled by the adjusted index
    delta = 2 * math.pi * 5 / m_slices
    compensated = run_rounds(
        pp, ch,
        SimConfig(rounds=1_000_000, seed=8, reference_offsets=(delta, 0.0),
                  compensation_indices=(-5 % m_slices, 0)),
    )
    uncompensated = run_rounds(
        pp, ch, SimConfig(rounds=1_000_000, seed=8, reference_offsets=(delta, 0.0))
    )
    print(f"\nreference deviation of 5 slices on the first pair:")
    print(f"  compensated   pair-(1,2) QBER = {compensated.pair_qbers[2]:.5f}")
    print(f"  uncompensated pair-(1,2) QBER = {uncompensated.pair_qbers[2]:.5f}")


if __name__ == "__main__":
    main()
