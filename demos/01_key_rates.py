"""Single-point conference key rates and what goes into them.

Walks the full analytic pipeline for the 3-party network on the
benchmark channel (0.2 dB/km fiber, 65% detectors, 7.2e-8 dark counts)
and prints every intermediate: branch gain, marginal QBERs, phase-error
rate, sifting prefactor, final rate.
"""

from pmqcc import (
    ChannelParams,
    ProtocolParams,
    branch_gain_avg,
    branch_qber_avg,
    rate_pmqcc,
    transmittance,
)

BENCH = dict(loss_rate=0.2, detector_efficiency=0.65, dark_count=7.2e-8)


def main():
    pp = ProtocolParams(n_parties=3, signal_intensity=0.1333, slice_count=13, ec_efficiency=1.16)
    ch = ChannelParams(distance=50.0, **BENCH)

    eta = transmittance(ch)
    arrival = eta * pp.signal_intensity
    print(f"channel: L = {ch.distance:g} km  ->  eta = {eta:.4f}, arrival intensity {arrival:.5f}")
    print(f"branch gain      Q_1 = {branch_gain_avg(arrival, ch.dark_count):.6e}")
    print(f"branch QBER      E_1 = {branch_qber_avg(arrival, ch.dark_count, pp.slice_count):.6e}")

    report = rate_pmqcc(pp, ch)
    print(f"\noverall gain     Q   = {report.gain:.6e}")
    print(f"marginal QBERs       = {[f'{e:.5f}' for e in report.marginal_qbers]}")
    print(f"phase error      E_X = {report.phase_error:.5f}")
    print(f"sifting prefactor    = {report.sifting_prefactor:.6f}  (2/M)^(N-1), M = {pp.slice_count}")
    print(f"key rate         R   = {report.rate:.5e} bits/pulse")

    # benchmark table: optimized (mu, M) per distance, frozen reference rates
    print("\n3-party benchmark table (mu, M as published, engine rate vs reference):")
    table = [
        (50.0, 0.1333, 13, 2.6989e-7),
        (80.0, 0.1299, 13, 1.6227e-8),
        (100.0, 0.1291, 13, 2.5332e-9),
        (150.0, 0.1263, 13, 2.2928e-11),
        (200.0, 0.1239, 17, 2.6206e-14),
    ]
    for distance, mu, m, ref in table:
        r = rate_pmqcc(
            ProtocolParams(n_parties=3, signal_intensity=mu, slice_count=m),
            ChannelParams(distance=distance, **BENCH),
        ).rate
        note = "" if abs(r - ref) / ref < 0.03 else "  <- reference row inconsistent (see README)"
        print(f"  L={distance:5.0f} km  R={r:.4e}  (reference {ref:.4e}){note}")

    # the variant without phase post-selection trades the (2/M)^(N-1)
    # sifting loss for an explicit signal-mode misalignment
    pp_star = ProtocolParams(
        n_parties=3, signal_intensity=0.1333, slice_count=13,
        ec_efficiency=1.16, signal_phase_misalignment=0.015,
    )
    ch93 = ChannelParams(distance=50.0, loss_rate=0.2, detector_efficiency=0.93, dark_count=1e-7)
    plain = rate_pmqcc(pp_star, ch93).rate
    star = rate_pmqcc(pp_star, ch93, sliced=False).rate
    print(f"\nwithout phase post-selection (eta_d=0.93): R* = {star:.4e} vs R = {plain:.4e} "
          f"({star / plain:.0f}x)")


if __name__ == "__main__":
    main()
