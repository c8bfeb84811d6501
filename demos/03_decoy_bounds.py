"""Decoy-state estimation, step by step.

Simulates the observable gains of a four-intensity decoy set
(``simulate_decoy_gains``), runs the decoy ladder for the two-photon
yield lower bound (``yields_lower_general``), turns it into a
phase-error upper bound (``phase_error_upper``) and a certified key-rate
lower bound (``rate_lower``, which runs the same steps), and then checks
the bound against the exact phase-error rate.
"""

from pmqcc import (
    ChannelParams,
    ProtocolParams,
    phase_error_upper,
    rate_lower,
    rate_pmqcc,
    simulate_decoy_gains,
    yields_lower_general,
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

    # the ladder scales the decoys by the N - 1 = 2 branches and bounds the
    # even orders up to n_cut_for(3) = 2
    y_lower = yields_lower_general(gains, 2.0, 2)
    print(f"\ntwo-photon yield lower bound  Y2^L = {y_lower[2]:.6e}")

    exact = rate_pmqcc(pp, ch)
    e_x = exact.phase_error
    e_x_u = phase_error_upper(y_lower, pp.signal_intensity, exact.gain, gains.vacuum_gain, 3)
    print(f"\nphase-error upper bound  E_X^U = {e_x_u:.5f}")
    print(f"exact phase-error rate   E_X   = {e_x:.5f}  (bound is safe: {e_x_u >= e_x})")

    certified = rate_lower(pp, ch).rate
    infinite = exact.rate
    print(f"\ncertified rate lower bound  R^L = {certified:.4e} bits/pulse")
    print(f"infinite-decoy rate         R   = {infinite:.4e} bits/pulse")
    print(f"finite-decoy penalty: {(1 - certified / infinite) * 100:.1f}%")


if __name__ == "__main__":
    main()
