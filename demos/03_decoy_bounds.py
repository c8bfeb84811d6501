"""Decoy-state estimation, step by step.

Simulates the observable gains of a four-intensity decoy set, runs the
decoy ladder for the two-photon yield lower bound, turns it into a
phase-error upper bound and a certified key-rate lower bound, and then
checks the bound against the exact phase-error rate.
"""

from pmqcc import (
    ChannelParams,
    ProtocolParams,
    decoy_bounds,
    rate_lower,
    rate_pmqcc,
    simulate_decoy_gains,
)


def main():
    pp = ProtocolParams(
        n_parties=3, signal_intensity=0.104815, slice_count=13,
        decoy_intensities=(0.0204583, 0.0182017, 9.27216e-5, 0.0),
    )
    ch = ChannelParams(loss_rate=0.2, distance=150.0, detector_efficiency=0.65, dark_count=7.2e-8)

    gains = simulate_decoy_gains(pp, ch)
    print("observed decoy gains:")
    for x, q in zip(gains.intensities, gains.gains):
        print(f"  intensity {x:.7f} -> Q = {q:.6e}")
    print(f"  vacuum            -> Q0 = {gains.vacuum_gain:.6e}")

    bounds = decoy_bounds(pp, ch)
    print(f"\ntwo-photon yield lower bound  Y2^L = {bounds.y_lower[2]:.6e}")

    exact = rate_pmqcc(pp, ch)
    e_x = exact.phase_error
    print(f"\nphase-error upper bound  E_X^U = {bounds.phase_error_upper:.5f}")
    print(f"exact phase-error rate   E_X   = {e_x:.5f}  (bound is safe: "
          f"{bounds.phase_error_upper >= e_x})")

    certified = rate_lower(pp, ch).rate
    infinite = exact.rate
    print(f"\ncertified rate lower bound  R^L = {certified:.4e} bits/pulse")
    print(f"infinite-decoy rate         R   = {infinite:.4e} bits/pulse")
    print(f"finite-decoy penalty: {(1 - certified / infinite) * 100:.1f}%")


if __name__ == "__main__":
    main()
