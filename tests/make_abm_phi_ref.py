"""Write tests/abm_phi_ref.json: the abm potential Phi from 800-digit mpmath.

For V(m) = m (1 + m/s)^r, Phi(m) = log(m/(s + m)) + sum_{j<r} e^j/j with
e = s/(s + m).  In floats that sum cancels once m >> s, so each value is
computed from the float mean exactly as given, at 800 significant digits
(at 60 the reference itself cancels past m = 1e30), and rounded to the
nearest float.  Each case holds 241 log-spaced means over 1e-300..1e300 and
241 over s 1e-3..s 1e3, where the potential changes form.

Run with mpmath 1.3.0:

    python tests/make_abm_phi_ref.py

The tier-1 test reads only the JSON, so it needs no mpmath.
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath
import numpy as np

CASES = [(3.0, 2), (10.0, 5), (0.5, 3), (1e4, 2), (3.0, 8)]
DIGITS = 800


def phi(s: float, r: int, m: float) -> float:
    s, m = mpmath.mpf(s), mpmath.mpf(m)
    e = s / (s + m)
    return float(mpmath.log(m / (s + m)) + mpmath.fsum(e ** j / j for j in range(1, r)))


def main() -> None:
    mpmath.mp.dps = DIGITS
    cases = []
    for s, r in CASES:
        means = np.geomspace(1e-300, 1e300, 241).tolist()
        near_means = (s * np.geomspace(1e-3, 1e3, 241)).tolist()
        cases.append({"s": s, "r": r,
                      "means": means, "phi": [phi(s, r, m) for m in means],
                      "near_means": near_means, "near_phi": [phi(s, r, m) for m in near_means]})
    path = Path(__file__).with_name("abm_phi_ref.json")
    payload = {"mpmath": mpmath.__version__, "digits": DIGITS, "cases": cases}
    path.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {path}")


if __name__ == "__main__":
    main()
