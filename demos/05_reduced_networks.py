"""Reduced networks: conferencing over a partially broken chain.

When an interference link fails, the parties at the break still send
full-intensity pulses but half their light feeds the dead branch.  The
surviving branch sees the same arrival intensity (gain and QBER are
unchanged) while its virtual source grows from mu to 1.5 mu, raising the
odd-photon fraction and with it the phase-error rate.
"""

from pmqcc import (
    BranchTopology,
    ChannelParams,
    ProtocolParams,
    phase_error_rate,
    rate_pmqcc,
    rate_reduced,
    transmittance,
)

BENCH = dict(loss_rate=0.2, detector_efficiency=0.65, dark_count=7.2e-8)


def main():
    ch = ChannelParams(distance=50.0, **BENCH)
    eta = transmittance(ch)
    pp = ProtocolParams(n_parties=3, signal_intensity=0.1059, slice_count=13)

    sym = BranchTopology.symmetric(3, pp.signal_intensity, eta, ch.dark_count)
    red = BranchTopology.chain(3, pp.signal_intensity, eta, ch.dark_count, (False, True))
    print("virtual intensities per branch:")
    print(f"  intact chain : {[b.virtual_intensity for b in sym.branches]}")
    print(f"  one boundary : {[round(b.virtual_intensity, 6) for b in red.branches]}")
    print(f"phase error intact  : {phase_error_rate(sym):.5f}")
    print(f"phase error reduced : {phase_error_rate(red):.5f}")

    print("\nreduced 3-party rates at the published optima:")
    for distance, mu, reference in [(50.0, 0.1059, 1.7060e-7), (100.0, 0.1032, 1.6152e-9)]:
        pp_l = ProtocolParams(n_parties=3, signal_intensity=mu, slice_count=13)
        rate = rate_reduced(pp_l, ChannelParams(distance=distance, **BENCH), (False, True)).rate
        print(f"  L={distance:5.0f} km  R={rate:.4e}  (reference {reference:.4e})")

    full = rate_pmqcc(pp, ch).rate
    broken = rate_reduced(pp, ch, (False, True)).rate
    print(f"\nat L=50 km, mu=0.1059: intact chain {full:.4e}, one boundary {broken:.4e} "
          f"({broken / full:.2f}x)")


if __name__ == "__main__":
    main()
