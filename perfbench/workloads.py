"""Operations of each workload and the checks on their outputs.

An operation is one call a user would make: ``evfam check`` or ``evfam
evalue`` through ``evfam.cli.main`` in-process, or a public-API call
(``run_condition_battery``, ``build_tilted_family``, ``growth_rate``,
``simulate_two_sample``).  Every call goes through a module attribute, so
the traced run's wrappers see it.  ``check`` runs after the timed loop and
returns ``None`` for a correct output or the reason it is wrong;
``fingerprint`` is what must repeat exactly from pass to pass.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy.special import gammaln

import evfam.cli as cli
import evfam.conditions as conditions
import evfam.errors as errors
import evfam.linear_model as linear_model
import evfam.models as models
import evfam.sequential as sequential
import evfam.tilt as tilt


CERTIFIED = "simple-evariable-certified"
REFUTED = "refuted"
STOCHASTIC = "inconclusive-stochastic"
EXIT_CODE = {CERTIFIED: 0, REFUTED: 2, STOCHASTIC: 3}

COV_BIG = np.array([[2.0, 0.3], [0.3, 1.0]])
COV_SMALL = np.array([[1.0, 0.1], [0.1, 0.5]])
ALT_MEAN = np.array([1.0, -0.5])
GROWTH_N_MC = 200_000
SEQ_PATHS, SEQ_ROUNDS, SEQ_ALPHA = 4000, 500, 0.05


def ref():
    """The reference module, imported only when the checks run after the timed loop.

    It loads scipy.stats and scipy.integrate; importing it earlier would
    count them in the benchmark's peak memory as if evfam had loaded them.
    """
    return importlib.import_module("references")


@dataclass
class Op:
    kind: str                              # check | battery | evalue | growth | sequential
    label: str
    run: Callable[[int], Any]              # pass index -> raw output
    check: Callable[[Any], str | None]     # raw output -> failure reason or None
    work: Callable[[Any], int]             # raw output -> work units (points, rows, ...)
    fingerprint: Callable[[Any], Any]      # raw output -> what must repeat across passes
    checks_exceptions: bool = False        # check() also judges a raised exception


def _matrix(a: np.ndarray) -> str:
    return ";".join(",".join(f"{v:.17g}" for v in row) for row in a)


def _vector(v) -> str:
    return ",".join(f"{x:.17g}" for x in v)


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _report_fingerprint(report: dict) -> dict:
    return {
        "overall": report["overall"],
        "grid_points": report["grid_points"],
        "pair_count": report["pair_count"],
        "worst_values": {k: repr(v["worst_value"]) for k, v in sorted(report["items"].items())},
    }


def _verdict_check(report: dict, code: int | None, expected: str) -> str | None:
    if report["overall"] != expected:
        return f"verdict {report['overall']}, expected {expected}"
    if code is not None and code != EXIT_CODE[expected]:
        return f"exit code {code}, expected {EXIT_CODE[expected]}"
    passed = [item["passed"] for item in report["items"].values()]
    if expected == CERTIFIED and not all(passed):
        return "certified with a failing ordering"
    if expected == REFUTED and all(passed):
        return "refuted with every ordering passing"
    return None


def _cli_check_op(label: str, argv: list[str], expected: str, seed: int) -> Op:
    full = ["check", *argv, "--seed", str(seed)]

    def parse(output) -> dict:
        return json.loads(output[1])

    def check(output) -> str | None:
        code, stdout, stderr = output
        try:
            report = parse(output)
        except json.JSONDecodeError:
            return f"exit {code}, no JSON report; stderr: {stderr.strip()[:200]}"
        return _verdict_check(report, code, expected)

    def points(output) -> int:
        report = parse(output)
        return report["grid_points"] + report["pair_count"]

    return Op("check", label, lambda _p: _run_cli(full), check, points,
              lambda output: _report_fingerprint(parse(output)))


def catalog_ops(inputs: dict) -> list[Op]:
    seed = inputs["pair_seed"]
    lm = inputs["linmodel"]
    cases = [
        ("ksample-poisson", ["--model", "ksample-poisson", "--alt-means", "0.5,1,1.5"], CERTIFIED),
        ("ksample-gaussian", ["--model", "ksample-gaussian", "--alt-means", "0.2,1,1.8"], CERTIFIED),
        ("ksample-bernoulli", ["--model", "ksample-bernoulli", "--alt-means", "0.3,0.5,0.7"],
         CERTIFIED),
        ("gaussian-location", ["--model", "gaussian-location", f"--cov-null={_matrix(COV_BIG)}",
                               f"--cov-alt={_matrix(COV_SMALL)}", f"--alt-mean={_vector(ALT_MEAN)}"],
         CERTIFIED),
        ("gaussian-location-swapped",
         ["--model", "gaussian-location", f"--cov-null={_matrix(COV_SMALL)}",
          f"--cov-alt={_matrix(COV_BIG)}", f"--alt-mean={_vector(ALT_MEAN)}"], REFUTED),
        ("gaussian-location-constrained",
         ["--model", "gaussian-location-constrained", "--cov=1,0.4;0.4,2", "--constrained", "1",
          "--alt-mean=0.9,1"], CERTIFIED),
        ("gaussian-scale", ["--model", "gaussian-scale", "--carrier-mean=-3", "--carrier-var=9"],
         CERTIFIED),
        ("negbinom-vs-poisson", ["--model", "negbinom-vs-poisson", "--successes", "4", "--mu", "2"],
         CERTIFIED),
        ("abm-vs-poisson", ["--model", "abm-vs-poisson", "--s", "3", "--r", "2", "--mu", "2"],
         CERTIFIED),
        ("tweedie-same-power", ["--model", "tweedie-pair", "--null-a", "1", "--null-power", "1.5",
                                "--alt-a", "0.5", "--alt-power", "1.5"], CERTIFIED),
        ("tweedie-crossing", ["--model", "tweedie-pair", "--null-a", "1", "--null-power", "1.2",
                              "--alt-a", "1", "--alt-power", "1.8"], REFUTED),
        # V_p - V_q changes sign at m = 1e6, outside the default grid's [1e-4, 1e4]
        # clip; evfam 0.1.0 certifies this pairing, which counts as a failure
        ("tweedie-crossing-off-grid",
         ["--model", "tweedie-pair", "--null-a", "1", "--null-power", "1.5",
          "--alt-a", "1e-3", "--alt-power", "2.0"], REFUTED),
        ("ig-vs-exp", ["--model", "ig-vs-exp", "--lam", "2", "--mu", "0.8"], REFUTED),
        ("linmodel", ["--model", "linmodel", "--design", lm["design_path"],
                      f"--sigma2={lm['sigma2']:.17g}", f"--gamma={_vector(lm['gamma'])}"],
         CERTIFIED),
    ]
    return [_cli_check_op(label, argv, expected, seed) for label, argv, expected in cases]


def _battery_op(label: str, build: Callable[[], Any], spec_kwargs: dict, expected: str) -> Op:
    def run(_p):
        pairing = build()
        return conditions.run_condition_battery(pairing, spec=conditions.GridSpec(**spec_kwargs))

    return Op("battery", label, run,
              lambda report: _verdict_check(report.to_dict(), None, expected),
              lambda report: report.grid_points + report.pair_count,
              lambda report: _report_fingerprint(report.to_dict()))


def _poisson_logpmf(u, mean: float = 2.0):
    u = np.asarray(u, dtype=float)
    return u * math.log(mean) - mean - gammaln(u + 1.0)


def _log_mgf_pairing():
    """negbinom(4) null, Poisson(2) carrier known only through its log-MGF."""
    null = models.negbinom_family(4.0)
    carrier = tilt.CarrierAlternative(
        name="poisson(2) by log-mgf",
        log_density=_poisson_logpmf,
        mean_of_suff_stat=np.array([2.0]),
        mgf_log=lambda beta: 2.0 * math.expm1(float(beta[0])),
    )
    return models.Pairing("negbinom-vs-mgf-poisson", null, tilt.build_tilted_family(null, carrier),
                          params={"successes": 4.0, "mu": 2.0})


def _monte_carlo_pairing(mc_seed: int):
    """Centered-normal scale null, N(-3, 9) carrier given only by a sampler."""
    null = models.gaussian_scale_family()
    carrier = tilt.CarrierAlternative(
        name="normal(-3,9) by sampling",
        log_density=lambda u: -0.5 * ((np.asarray(u) + 3.0) ** 2 / 9.0 + math.log(2 * math.pi * 9.0)),
        mean_of_suff_stat=np.array([18.0]),
        sampler=lambda n, rng: rng.normal(-3.0, 3.0, n),
    )
    family = tilt.build_tilted_family(null, carrier, mc_samples=20_000, seed=mc_seed)
    return models.Pairing("gaussian-scale-mc", null, family, params={"m": -3.0, "s2": 9.0})


def generic_ops(inputs: dict) -> list[Op]:
    seed, mc_seed = inputs["pair_seed"], inputs["mc_seed"]
    return [
        _battery_op("negbinom-vs-poisson-dense", lambda: models.negbinom_vs_poisson(4.0, 2.0),
                    {"points_per_axis": 1024, "n_pairs": 8192, "seed": seed}, CERTIFIED),
        _battery_op("negbinom-vs-mgf-poisson", _log_mgf_pairing, {"seed": seed}, CERTIFIED),
        # the default 65/512 grid takes minutes on this route; 16/64 keeps one pass short
        _battery_op("gaussian-scale-monte-carlo", lambda: _monte_carlo_pairing(mc_seed),
                    {"points_per_axis": 16, "n_pairs": 64, "seed": seed}, STOCHASTIC),
    ]


def _read_evalue_csv(path: Path, rows: int) -> np.ndarray:
    lines = [line for line in path.read_text().splitlines() if line and not line.startswith("#")]
    if not lines or lines[0] != "row,evalue,log_evalue":
        raise ValueError(f"unexpected header {lines[:1]!r}")
    table = np.loadtxt(lines[1:], delimiter=",", usecols=(1, 2), ndmin=2)
    if table.shape[0] != rows + 1:
        raise ValueError(f"{table.shape[0] - 1} rows written, expected {rows}")
    return table


def _evalue_op(label: str, argv: list[str], out_dir: Path, rows: int,
               reference: Callable[[], np.ndarray]) -> Op:
    reference = functools.cache(reference)

    def run(p):
        out_path = out_dir / f"evalue_{label}_{p}.csv"
        code, _, stderr = _run_cli(["evalue", *argv, "--force", "--out", str(out_path)])
        return code, stderr, out_path

    def check(output) -> str | None:
        code, stderr, out_path = output
        if code != 0:
            return f"exit code {code}: {stderr.strip()[:200]}"
        try:
            table = _read_evalue_csv(out_path, rows)
        except (OSError, ValueError) as exc:
            return f"unreadable output: {exc}"
        want = reference()
        got_e, got_log = table[:-1, 0], table[:-1, 1]
        if not np.allclose(got_log, want, rtol=0.0, atol=1e-9) \
                or not np.allclose(got_e, np.exp(want), rtol=1e-9, atol=0.0):
            worst = int(np.argmax(np.abs(got_log - want)))
            return f"row {worst}: log e-value {got_log[worst]!r}, reference {want[worst]!r}"
        total = float(want.sum())
        if not math.isclose(table[-1, 1], total, rel_tol=1e-9, abs_tol=1e-9):
            return f"product row log {table[-1, 1]!r}, reference {total!r}"
        return None

    def fingerprint(output):
        code, _, out_path = output
        if code != 0 or not out_path.exists():
            return code
        return out_path.read_text().splitlines()[-1]  # the product row

    return Op("evalue", label, run, check, lambda _out: rows, fingerprint)


def _growth_op(label: str, build: Callable[[], Any], seed: int,
               reference: Callable[[], tuple[float, float, str]] | None) -> Op:
    """``reference`` gives (value, tolerance, method); None means a typed error is expected."""
    if reference is not None:
        reference = functools.cache(reference)

    def run(_p):
        pairing = build()
        return conditions.growth_rate(pairing.tilted, pairing.null, pairing.tilted.mu_star,
                                      n_mc=GROWTH_N_MC, seed=seed)

    def check(value) -> str | None:
        if reference is None:
            if isinstance(value, errors.EvfamError):
                return None
            return f"expected a typed evfam error (the null has no density), got {value!r}"
        if isinstance(value, Exception):
            return f"raised {type(value).__name__}: {value}"
        want, tol, method = reference()
        if not abs(value - want) <= tol:
            return f"growth {value!r}, {method} reference {want!r} (tolerance {tol:.2e})"
        return None

    return Op("growth", label, run, check, lambda _v: 1, repr, checks_exceptions=True)


def _exact(value: float) -> tuple[float, float, str]:
    return value, 1e-9 * (1.0 + abs(value)), "closed-form"


def growth_ops(inputs: dict) -> list[Op]:
    seed = inputs["growth_seed"]
    lm = inputs["linmodel"]
    design = linear_model.LinearModelDesign(lm["design"])
    bern, pois3, pois4, gauss3 = (0.3, 0.5, 0.7), (0.5, 1.0, 1.5), (0.5, 1.0, 1.5, 2.0), (0.2, 1.0, 1.8)

    def mc(value: float, se: float) -> tuple[float, float, str]:
        return value, 4.0 * se, "closed-form (Monte Carlo, 4 SE)"

    return [
        _growth_op("bernoulli-k3", lambda: models.ksample_pairing("bernoulli", bern), seed,
                   lambda: _exact(ref().ksample_bernoulli_growth(bern))),
        _growth_op("poisson-k3", lambda: models.ksample_pairing("poisson", pois3), seed,
                   lambda: _exact(ref().ksample_poisson_growth(pois3))),
        _growth_op("poisson-k4", lambda: models.ksample_pairing("poisson", pois4), seed,
                   lambda: _exact(ref().ksample_poisson_growth(pois4))),
        _growth_op("gaussian-scale", lambda: models.gaussian_scale_pairing(-3.0, 9.0), seed,
                   lambda: (ref().gaussian_scale_growth(-3.0, 9.0), 1e-7, "closed-form")),
        _growth_op("ig-vs-exp", lambda: models.ig_vs_exp_pairing(2.0, 0.8), seed,
                   lambda: (ref().ig_vs_exp_growth(2.0, 0.8), 1e-7, "scipy quad")),
        _growth_op("gaussian-k3", lambda: models.ksample_pairing("gaussian", gauss3), seed,
                   lambda: mc(ref().ksample_gaussian_growth(gauss3),
                              ref().ksample_gaussian_mc_se(gauss3, GROWTH_N_MC))),
        _growth_op("gaussian-location",
                   lambda: models.gaussian_location_pairing(COV_BIG, COV_SMALL, ALT_MEAN), seed,
                   lambda: mc(ref().gaussian_location_growth(COV_BIG, COV_SMALL),
                              ref().gaussian_location_mc_se(COV_BIG, COV_SMALL, ALT_MEAN,
                                                          GROWTH_N_MC))),
        _growth_op("linmodel",
                   lambda: linear_model.linmodel_pairing(design, lm["sigma2"], lm["gamma"]), seed,
                   lambda: mc(ref().linmodel_growth(lm["design"], lm["sigma2"], lm["gamma"]),
                              ref().linmodel_mc_se(lm["design"], lm["sigma2"], lm["gamma"],
                                                 GROWTH_N_MC))),
        # both crash in evfam 0.1.0 (matmul ValueError, TypeError); they count as failures
        _growth_op("negbinom-vs-poisson", lambda: models.negbinom_vs_poisson(4.0, 2.0), seed,
                   lambda: _exact(ref().negbinom_poisson_growth(4.0, 2.0))),
        _growth_op("abm-vs-poisson-r2", lambda: models.abm_vs_poisson(3.0, 2, 2.0), seed, None),
    ]


def _sequential_op(label: str, arm_means: tuple[float, float], seed: int) -> Op:
    def run(_p):
        return sequential.simulate_two_sample(arm_means, rounds=SEQ_ROUNDS, n_paths=SEQ_PATHS,
                                              alpha=SEQ_ALPHA, seed=seed)

    def check(result) -> str | None:
        if arm_means[0] == arm_means[1]:
            # anytime validity: under the null the crossing rate stays below alpha
            bound = SEQ_ALPHA + 3.0 * math.sqrt(SEQ_ALPHA * (1.0 - SEQ_ALPHA) / SEQ_PATHS)
            if not result.ever_crossed_fraction <= bound:
                return f"null crossing fraction {result.ever_crossed_fraction} > {bound:.4f}"
            return None
        # plug-in growth settles near the exact KL sum; with 4000 paths the ratio
        # varies by a few percent between seeds, so 10% is a loose sanity bound
        exact = ref().bernoulli_two_sample_growth(*arm_means)
        ratio = result.tail_log_growth / exact
        if not abs(ratio - 1.0) <= 0.1:
            return f"tail growth {result.tail_log_growth!r} is {ratio:.3f} x the exact {exact!r}"
        return None

    return Op("sequential", label, run, check, lambda _r: SEQ_PATHS * SEQ_ROUNDS,
              lambda r: repr((r.ever_crossed_fraction, r.mean_log_growth, r.tail_log_growth)))


def data_path_ops(inputs: dict, out_dir: Path) -> list[Op]:
    counts, arms = inputs["negbinom_counts"], inputs["ksample_counts"]
    ops = [
        _evalue_op("negbinom-vs-poisson",
                   ["--model", "negbinom-vs-poisson", "--successes", "4", "--mu", "2",
                    "--data", inputs["negbinom_path"]], out_dir, counts.size,
                   lambda: ref().negbinom_log_evalues(counts, 4.0, 2.0)),
        _evalue_op("ksample-poisson",
                   ["--model", "ksample-poisson", "--alt-means", "0.5,1,1.5",
                    "--data", inputs["ksample_path"]], out_dir, arms.shape[0],
                   lambda: ref().ksample_poisson_log_evalues(arms, (0.5, 1.0, 1.5))),
    ]
    ops += growth_ops(inputs)
    seed = inputs["sequential_seed"]
    ops += [_sequential_op("arms-0.375-0.625", (0.375, 0.625), seed),
            _sequential_op("null-0.5-0.5", (0.5, 0.5), seed)]
    return ops


def build_ops(workload: str, inputs: dict, out_dir: Path) -> list[Op]:
    if workload == "catalog-check":
        return catalog_ops(inputs)
    if workload == "generic-check":
        return generic_ops(inputs)
    return data_path_ops(inputs, out_dir)
