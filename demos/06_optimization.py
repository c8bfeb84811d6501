"""Parameter optimization: signal intensity, slice count, decoy set.

Recovers the published optimal (mu, M) pairs on the benchmark channel
and then optimizes a four-intensity decoy set for the certified rate
lower bound at 150 km.
"""

from pmqcc import ChannelParams, optimize_decoys, optimize_signal

BENCH = dict(loss_rate=0.2, detector_efficiency=0.65, dark_count=7.2e-8)


def main():
    print("signal optimization on the benchmark channel (3 parties):")
    for distance in (50.0, 100.0, 200.0):
        res = optimize_signal(ChannelParams(distance=distance, **BENCH), 3)
        pp = res.best_params
        print(f"  L={distance:5.0f} km -> mu*={pp.signal_intensity:.4f}  M*={pp.slice_count}  "
              f"R={res.best_rate:.4e}  ({res.evaluations} evaluations)")

    print("\ndecoy optimization at L=150 km, mu=0.104815, M=13:")
    res = optimize_decoys(ChannelParams(distance=150.0, **BENCH), 3, 0.104815, 13)
    nu, om, ta, _ = res.best_params.decoy_intensities
    print(f"  nu={nu:.6f}  omega={om:.6f}  tau={ta:.3e}")
    print(f"  certified rate lower bound R^L = {res.best_rate:.4e} bits/pulse")
    print("  (in the asymptotic noiseless model, decoys far weaker than the signal")
    print("   extract the two-photon yield almost exactly, and the certified rate is")
    print("   flat in them to ~1e-6; finite statistics would penalize such weak decoys,")
    print("   but fluctuation analysis is out of scope here)")

    print("\ninfeasible channel handling (L = 10000 km):")
    res = optimize_signal(ChannelParams(distance=10_000.0, **BENCH), 3, m_values=range(10, 20))
    print(f"  flagged_zero={res.flagged_zero}, best_rate={res.best_rate}")


if __name__ == "__main__":
    main()
