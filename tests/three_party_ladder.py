"""The three-party closed form of the decoy ladder's Y_2 rung.

With exactly three nonzero decoys plus vacuum, eliminating the orders
{1, 3} from the scaled gain excesses A_x = e^{t_x} Q_x - Q_0 leaves Y_2
in closed form.  ``pmqcc.decoy.yields_lower_general`` reaches the same
bound from the general rung combination, written for any order m; the
test suite pins the two against each other.
"""

from __future__ import annotations

import math

from pmqcc import DecoyGains, DegenerateGeometryError, InsufficientIntensitiesError
from pmqcc.decoy import MIN_RELATIVE_SEPARATION


def y2_lower_3party(g: DecoyGains) -> float:
    """Closed-form Y_2 lower bound from exactly three nonzero decoys
    plus vacuum (three-party network, virtual intensities 2x)."""
    if len(g.intensities) != 3:
        raise InsufficientIntensitiesError(
            f"the closed form needs exactly 3 nonzero decoys, got {len(g.intensities)}"
        )
    nu, om, ta = g.intensities
    tn, to, tt = 2.0 * nu, 2.0 * om, 2.0 * ta
    for hi, lo in ((tn, to), (to, tt)):
        if (hi - lo) / hi < MIN_RELATIVE_SEPARATION:
            raise DegenerateGeometryError(f"decoy intensities too close: {hi} vs {lo}")
    q0 = g.vacuum_gain
    a_nu = math.exp(tn) * g.gains[0] - q0
    a_om = math.exp(to) * g.gains[1] - q0
    a_ta = math.exp(tt) * g.gains[2] - q0
    c_no3 = to * tn**3 - tn * to**3
    c_ot3 = tt * to**3 - to * tt**3
    num = c_no3 * (tt * a_om - to * a_ta) - c_ot3 * (to * a_nu - tn * a_om)
    den = c_no3 * (tt * to**2 - to * tt**2) - c_ot3 * (to * tn**2 - tn * to**2)
    if den <= 0.0:
        raise DegenerateGeometryError("closed-form denominator is not positive")
    return float(min(max(2.0 * num / den, 0.0), 1.0))
