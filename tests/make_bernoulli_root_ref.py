"""Write tests/bernoulli_root_ref.json: the Bernoulli k-sample root from 40-digit mpmath.

The Bernoulli k-sample alternative with arm means p_i moves its arms to
expit(logit(p_i) + gamma), and its inverse mean map at a total mean m is
beta = gamma(m) - gamma(mu*), with gamma(m) the root of
sum_i expit(logit(p_i) + gamma) = m and mu* = sum_i p_i the anchor.  Each
root is a bisection on the bracket [L - max logit, L - min logit], with
L = log(m / (k - m)), at 40 significant digits and 170 halvings (the
bracket ends far below the working precision), computed from the float arm
means and the float total mean exactly as given; each beta is rounded to
the nearest float.  Each case holds 45 means: k (1e-9, 1e-6, 41 points
over 0.01..0.99, 1 - 1e-6, 1 - 1e-9).

Run with mpmath 1.3.0:

    python tests/make_bernoulli_root_ref.py

The tier-1 test reads only the JSON, so it needs no mpmath.
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath
import numpy as np

CASES = [(0.3, 0.5, 0.7), (1e-6, 0.5, 1.0 - 1e-6), (1e-6, 0.2, 0.5, 0.9, 1.0 - 1e-6)]
DIGITS = 40
HALVINGS = 170


def gamma(logits: list, mean: float):
    k, m = len(logits), mpmath.mpf(mean)
    centre = mpmath.log(m) - mpmath.log(k - m)
    lo, hi = centre - max(logits), centre - min(logits)
    for _ in range(HALVINGS):
        mid = (lo + hi) / 2
        if mpmath.fsum(1 / (1 + mpmath.exp(-(x + mid))) for x in logits) < m:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def main() -> None:
    mpmath.mp.dps = DIGITS
    cases = []
    for arms in CASES:
        k = len(arms)
        logits = [mpmath.log(mpmath.mpf(p)) - mpmath.log(1 - mpmath.mpf(p)) for p in arms]
        anchor = float(np.sum(arms))
        means = (k * np.concatenate([[1e-9, 1e-6], np.linspace(0.01, 0.99, 41),
                                     [1.0 - 1e-6, 1.0 - 1e-9]])).tolist()
        at_anchor = gamma(logits, anchor)
        cases.append({"arms": list(arms), "anchor": anchor, "means": means,
                      "beta": [float(gamma(logits, m) - at_anchor) for m in means]})
    path = Path(__file__).with_name("bernoulli_root_ref.json")
    payload = {"mpmath": mpmath.__version__, "digits": DIGITS, "halvings": HALVINGS, "cases": cases}
    path.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {path}")


if __name__ == "__main__":
    main()
