"""Seeded inputs for the three benchmark workloads.

Everything a workload feeds to evfam comes from ``make_inputs(workload,
seed, workdir)``: data files, the linear-model design, and the integer seeds
evfam receives for its own pair sequence, Monte Carlo carrier draws, growth
estimators and sequential paths.  The same seed gives byte-identical inputs.

Why each workload exists:

* ``catalog-check`` runs ``evfam check`` in-process once for every CLI model
  key at the default grid (65 means / 512 pairs; 8x8 in 2-D).  There are
  many small batteries, so per-call overhead and per-point scalar Python
  dominate (domain membership alone is about half the time).  It reaches
  conditions, families, domains, models and linear_model, and never the
  tilt fallback routes, finite differences, oracles, sequential or CSV data.
* ``generic-check`` runs few batteries with heavy per-point work through
  the public API: a dense negbinom-vs-poisson grid, the same null with a
  carrier given only by its log-MGF (domain discovery, Newton re-anchoring,
  finite differences) and a Monte Carlo carrier on a small grid.  This is
  where batching and the generic Newton/FD/MC routes show; catalog-check
  never reaches those routes.
* ``data-path`` bypasses the battery: ``evfam evalue --force`` on large
  CSVs, ``growth_rate`` for every support kind, and ``simulate_two_sample``.
  CSV parsing and formatting, carrier densities, lattice sums, quadrature
  and the sequential kernel do the work, so changes to the battery layers
  should not move it.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

WORKLOADS = ("catalog-check", "generic-check", "data-path")

NEGBINOM_ROWS = 200_000
KSAMPLE_ROWS = 100_000
KSAMPLE_MEANS = (0.5, 1.0, 1.5)
LINMODEL_N, LINMODEL_D = 20, 2


def _seed_int(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _linmodel(rng: np.random.Generator, workdir: Path) -> dict:
    x = rng.normal(size=(LINMODEL_N, LINMODEL_D + 1))
    path = workdir / "linmodel_design.csv"
    np.savetxt(path, x, delimiter=",", fmt="%.17g")
    return {
        "design_path": str(path),
        # read back what evfam will read, so the references see the same numbers
        "design": np.loadtxt(path, delimiter=",", ndmin=2),
        "sigma2": float(0.5 + rng.random()),
        "gamma": rng.normal(size=LINMODEL_D + 1),
    }


def make_inputs(workload: str, seed: int, workdir: Path) -> dict:
    """Generate the inputs of one workload run into ``workdir``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    if workload == "catalog-check":
        return {"pair_seed": _seed_int(rng), "linmodel": _linmodel(rng, workdir)}
    if workload == "generic-check":
        return {"pair_seed": _seed_int(rng), "mc_seed": _seed_int(rng)}

    counts = rng.poisson(2.0, NEGBINOM_ROWS)
    negbinom_path = workdir / "negbinom_counts.csv"
    negbinom_path.write_text("count\n" + "\n".join(map(str, counts.tolist())) + "\n")
    arms = rng.poisson(KSAMPLE_MEANS, (KSAMPLE_ROWS, len(KSAMPLE_MEANS)))
    ksample_path = workdir / "ksample_counts.csv"
    np.savetxt(ksample_path, arms, delimiter=",", fmt="%d", header="a,b,c", comments="")
    return {
        "negbinom_path": str(negbinom_path),
        "negbinom_counts": counts.astype(float),
        "ksample_path": str(ksample_path),
        "ksample_counts": arms.astype(float),
        "growth_seed": _seed_int(rng),
        "sequential_seed": _seed_int(rng),
        "linmodel": _linmodel(rng, workdir),
    }
