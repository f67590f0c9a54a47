"""Command-line interface.

Subcommands cover the catalog listing, the existence battery, e-value
evaluation on data files, growth rates, sequential simulation, and the
standard figure data sets.  Exit codes are part of the contract:

    0   battery certified (or the command simply succeeded)
    2   battery refuted the family-wide claim
    3   battery inconclusive
    64  bad configuration or arguments
    65  malformed data file

All outputs are deterministic for fixed inputs: JSON is key-sorted and CSV
files carry their effective configuration as '#' comment lines.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .conditions import (
    CERTIFIED,
    GridSpec,
    INCONCLUSIVE,
    REFUTED,
    growth_rate,
    run_condition_battery,
    simple_log_evalue,
)
from .errors import DataError, EvfamError
from .figures import figure_data, write_figure_csv
from .linear_model import LinearModelDesign, linmodel_pairing
from .models import (
    abm_vs_poisson,
    gaussian_location_constrained,
    gaussian_location_pairing,
    gaussian_scale_pairing,
    ig_vs_exp_pairing,
    ksample_pairing,
    negbinom_vs_poisson,
    tweedie_pair,
)
from .sequential import simulate_two_sample

__all__ = ["main"]

EXIT_OK = 0
EXIT_REFUTED = 2
EXIT_INCONCLUSIVE = 3
EXIT_BAD_CONFIG = 64
EXIT_BAD_DATA = 65

_OVERALL_EXIT = {CERTIFIED: EXIT_OK, REFUTED: EXIT_REFUTED, INCONCLUSIVE: EXIT_INCONCLUSIVE}

_MODEL_HELP = {
    "ksample-poisson": "k Poisson arms, equal-rate null (needs --alt-means)",
    "ksample-gaussian": "k Gaussian arms, equal-mean null (needs --alt-means; --sigma2)",
    "ksample-bernoulli": "k Bernoulli arms, equal-rate null (needs --alt-means)",
    "gaussian-location": "normal location, distinct known covariances "
                         "(needs --cov-null --cov-alt --alt-mean)",
    "gaussian-location-constrained": "normal location with pinned coordinates "
                                     "(needs --cov --constrained --alt-mean)",
    "gaussian-scale": "centered-normal scale null vs a shifted carrier "
                      "(needs --carrier-mean --carrier-var)",
    "negbinom-vs-poisson": "negative binomial null vs Poisson alternative "
                           "(needs --successes --mu)",
    "abm-vs-poisson": "variance m(1+m/s)^r null vs Poisson alternative (needs --s --r --mu)",
    "tweedie-pair": "two power-variance families "
                    "(needs --null-a --null-power --alt-a --alt-power; --mu)",
    "ig-vs-exp": "exponential null vs inverse Gaussian alternative (needs --lam --mu)",
    "linmodel": "Gaussian linear model, first coefficient tested "
                "(needs --design --sigma2 --gamma)",
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 by default, which collides with the refuted verdict
    def error(self, message):
        self.exit(EXIT_BAD_CONFIG, f"{self.prog}: error: {message}\n")


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",") if tok.strip() != ""])
    except ValueError:
        raise ValueError(f"expected a comma-separated number list, got {text!r}") from None


def _parse_matrix(text: str) -> np.ndarray:
    rows = [_parse_vector(row) for row in text.split(";") if row.strip() != ""]
    widths = {row.size for row in rows}
    if len(widths) != 1:
        raise ValueError(f"matrix rows have unequal lengths in {text!r}")
    return np.vstack(rows)


def _require(args, *names):
    missing = [f"--{name.replace('_', '-')}" for name in names if getattr(args, name) is None]
    if missing:
        raise ValueError(f"model {args.model!r} needs {', '.join(missing)}")


def _is_numeric(row: str) -> bool:
    try:
        [float(tok) for tok in row.split(",")]
    except ValueError:
        return False
    return True


def _parse_lines(path, lines: list[str]) -> np.ndarray:
    """Line-by-line reader; raises the error of the first bad line with its number."""
    rows: list[np.ndarray] = []
    header_seen = False
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            row = np.array([float(tok) for tok in stripped.split(",")])
        except ValueError:
            if not header_seen and not rows:
                header_seen = True
                continue
            raise DataError(f"{path}:{lineno}: non-numeric row {stripped!r}") from None
        if np.any(~np.isfinite(row)):
            raise DataError(f"{path}:{lineno}: non-finite value")
        rows.append(row)
    if not rows:
        raise DataError(f"{path}: no data rows")
    widths = {row.size for row in rows}
    if len(widths) != 1:
        raise DataError(f"{path}: rows have unequal lengths {sorted(widths)}")
    return np.vstack(rows)


def _read_numeric_csv(path) -> np.ndarray:
    """Rows of numbers; '#' comments skipped, one optional header tolerated.

    The whole body is parsed in one call (numpy parses each token as Python's
    ``float`` does).  A file that fails the bulk parse, the finite check or
    the width check is read again line by line, which raises the error of
    its first bad line.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    rows = [stripped for line in lines
            if (stripped := line.strip()) and not stripped.startswith("#")]
    if rows and not _is_numeric(rows[0]):
        del rows[0]
    try:
        flat = np.array(",".join(rows).split(","), dtype=float)
    except ValueError:
        return _parse_lines(path, lines)
    if not np.isfinite(flat).all() or len({row.count(",") for row in rows}) != 1:
        return _parse_lines(path, lines)
    return flat.reshape(len(rows), -1)


def build_pairing(args):
    model = args.model
    if model in ("ksample-poisson", "ksample-gaussian", "ksample-bernoulli"):
        _require(args, "alt_means")
        kind = model.split("-")[1]
        return ksample_pairing(kind, _parse_vector(args.alt_means), sigma2=args.sigma2)
    if model == "gaussian-location":
        _require(args, "cov_null", "cov_alt", "alt_mean")
        return gaussian_location_pairing(_parse_matrix(args.cov_null),
                                         _parse_matrix(args.cov_alt),
                                         _parse_vector(args.alt_mean))
    if model == "gaussian-location-constrained":
        _require(args, "cov", "constrained", "alt_mean")
        return gaussian_location_constrained(_parse_matrix(args.cov), args.constrained,
                                             _parse_vector(args.alt_mean))
    if model == "gaussian-scale":
        _require(args, "carrier_mean", "carrier_var")
        return gaussian_scale_pairing(args.carrier_mean, args.carrier_var)
    if model == "negbinom-vs-poisson":
        _require(args, "successes", "mu")
        return negbinom_vs_poisson(args.successes, float(args.mu))
    if model == "abm-vs-poisson":
        _require(args, "s", "r", "mu")
        return abm_vs_poisson(args.s, args.r, float(args.mu))
    if model == "tweedie-pair":
        _require(args, "null_a", "null_power", "alt_a", "alt_power")
        return tweedie_pair((args.null_a, args.null_power), (args.alt_a, args.alt_power),
                            mu_star=float(args.mu) if args.mu is not None else 1.0)
    if model == "ig-vs-exp":
        _require(args, "lam", "mu")
        return ig_vs_exp_pairing(args.lam, float(args.mu))
    if model == "linmodel":
        _require(args, "design", "sigma2", "gamma")
        design = LinearModelDesign(_read_numeric_csv(args.design))
        return linmodel_pairing(design, args.sigma2, _parse_vector(args.gamma))
    raise ValueError(f"unknown model {model!r} (see 'evfam catalog')")


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", required=True, help="model key; see 'evfam catalog'")
    parser.add_argument("--alt-means", help="comma-separated per-arm means")
    parser.add_argument("--sigma2", type=float, default=1.0, help="per-arm or noise variance")
    parser.add_argument("--cov-null", help="null covariance, rows separated by ';'")
    parser.add_argument("--cov-alt", help="alternative covariance, rows separated by ';'")
    parser.add_argument("--cov", help="shared covariance, rows separated by ';'")
    parser.add_argument("--alt-mean", help="alternative mean vector")
    parser.add_argument("--constrained", type=int, help="number of pinned leading coordinates")
    parser.add_argument("--carrier-mean", type=float, help="carrier location")
    parser.add_argument("--carrier-var", type=float, help="carrier variance")
    parser.add_argument("--successes", type=float, help="negative binomial success count")
    parser.add_argument("--s", type=float, help="variance-function scale parameter")
    parser.add_argument("--r", type=int, help="variance-function power (integer)")
    parser.add_argument("--null-a", type=float, help="null power-variance coefficient")
    parser.add_argument("--null-power", type=float, help="null power-variance exponent")
    parser.add_argument("--alt-a", type=float, help="alternative power-variance coefficient")
    parser.add_argument("--alt-power", type=float, help="alternative power-variance exponent")
    parser.add_argument("--lam", type=float, help="inverse Gaussian shape")
    parser.add_argument("--mu", help="anchor mean (scalar or comma-separated vector)")
    parser.add_argument("--design", help="CSV file with the design matrix")
    parser.add_argument("--gamma", help="comma-separated coefficient vector")


def _grid_spec(args) -> GridSpec:
    kwargs = {}
    if args.grid_points is not None:
        kwargs["points_per_axis"] = args.grid_points
    if args.pairs is not None:
        kwargs["n_pairs"] = args.pairs
    if args.seed is not None:
        kwargs["seed"] = args.seed
    return GridSpec(**kwargs)


def _anchor_mean(args, pairing) -> np.ndarray:
    if args.mu is None:
        return np.asarray(pairing.tilted.mu_star, dtype=float)
    return pairing.null.vec(_parse_vector(args.mu) if "," in args.mu else float(args.mu))


def _cmd_catalog(_args) -> int:
    width = max(len(key) for key in _MODEL_HELP)
    for key in sorted(_MODEL_HELP):
        print(f"{key:<{width}}  {_MODEL_HELP[key]}")
    return EXIT_OK


def _cmd_check(args) -> int:
    pairing = build_pairing(args)
    report = run_condition_battery(pairing, spec=_grid_spec(args))
    payload = json.dumps(report.to_dict(), sort_keys=True, indent=2)
    print(payload)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    return _OVERALL_EXIT[report.overall]


def _cmd_evalue(args) -> int:
    pairing = build_pairing(args)
    if not args.force:
        report = run_condition_battery(pairing, spec=_grid_spec(args))
        if report.overall != CERTIFIED:
            print(f"refusing to evaluate: battery verdict is {report.overall} "
                  f"({report.reason}); pass --force to override", file=sys.stderr)
            return _OVERALL_EXIT[report.overall]
    data = _read_numeric_csv(args.data)
    mu = _anchor_mean(args, pairing)
    null = pairing.null
    width = 1 if null.element_ndim == 0 else null.support.axes
    if data.shape[1] != width:
        expected = "one column" if width == 1 else f"{width} columns"
        raise DataError(f"model {pairing.name} expects {expected}, got {data.shape[1]}")
    batch = data[:, 0] if null.element_ndim == 0 else data
    try:
        logs = np.atleast_1d(simple_log_evalue(pairing.tilted, null, mu, batch))
    except (ValueError, FloatingPointError) as exc:
        raise DataError(f"data incompatible with model {pairing.name}: {exc}") from None
    total = logs.sum()
    with np.errstate(over="ignore"):
        values = np.exp(logs)
        product = np.exp(total)
    lines = [f"# model={pairing.name}",
             f"# mu={','.join(f'{v:.17g}' for v in mu)}",
             f"# rows={data.shape[0]}",
             "row,evalue,log_evalue"]
    lines += ["%d,%.17g,%.17g" % row
              for row in zip(range(logs.size), values.tolist(), logs.tolist())]
    lines.append(f"product,{product:.17g},{total:.17g}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_growth(args) -> int:
    pairing = build_pairing(args)
    mu = _anchor_mean(args, pairing)
    value = growth_rate(pairing.tilted, pairing.null, mu, seed=args.seed or 0)
    print(json.dumps({"growth_rate": value, "model": pairing.name,
                      "mu": [float(v) for v in mu]}, sort_keys=True))
    return EXIT_OK


def _cmd_sequential(args) -> int:
    arm_means = _parse_vector(args.arm_means)
    if arm_means.size != 2:
        raise ValueError("sequential simulation needs exactly two arm means")
    prior = tuple(_parse_vector(args.prior)) if args.prior else (1.0, 1.0, 1.0, 1.0)
    if len(prior) != 4:
        raise ValueError("prior must have four values: a1,b1,a2,b2")
    result = simulate_two_sample(arm_means, rounds=args.rounds, n_paths=args.paths,
                                 alpha=args.alpha, seed=args.seed or 0, prior=prior,
                                 tail_window=args.tail_window)
    config = {
        "alpha": result.alpha,
        "arm_means": list(result.arm_means),
        "n_paths": result.n_paths,
        "prior": list(prior),
        "rounds": result.rounds,
        "seed": result.seed,
        "tail_window": result.tail_window,
    }
    path_lines = [f"# {key}={config[key]}" for key in sorted(config)]
    path_lines.append("path,final_log_value,crossed,first_crossing")
    for i in range(result.n_paths):
        fc = result.first_crossing[i]
        fc_text = "" if np.isnan(fc) else f"{int(fc)}"
        crossed = int(not np.isnan(fc))
        path_lines.append(f"{i},{result.final_log_values[i]:.17g},{crossed},{fc_text}")
    with open(f"{args.out}_paths.csv", "w", encoding="utf-8") as handle:
        handle.write("\n".join(path_lines) + "\n")
    summary = dict(config)
    summary.update({
        "report_version": 1,
        "ever_crossed_fraction": result.ever_crossed_fraction,
        "mean_log_growth": result.mean_log_growth,
        "tail_log_growth": result.tail_log_growth,
        "threshold": float(np.log(1.0 / result.alpha)),
    })
    with open(f"{args.out}_summary.json", "w", encoding="utf-8") as handle:
        handle.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(json.dumps(summary, sort_keys=True, indent=2))
    return EXIT_OK


def _cmd_figure(args) -> int:
    options = {}
    if args.id == "fig2" and args.arm_means:
        options["arm_means"] = tuple(_parse_vector(args.arm_means))
    if args.id == "fig3":
        if args.lam is not None:
            options["lam"] = args.lam
        if args.mus:
            options["mus"] = tuple(_parse_vector(args.mus))
    rows, config = figure_data(args.id, **options)
    write_figure_csv(rows, config, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="evfam",
                     description="Simple e-values for composite exponential-family nulls.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", help="list available model pairings").set_defaults(fn=_cmd_catalog)

    check = sub.add_parser("check", help="run the existence battery for a pairing")
    _add_model_arguments(check)
    check.add_argument("--grid-points", type=int, help="mean-grid points per axis")
    check.add_argument("--pairs", type=int, help="number of quasi-random mean pairs")
    check.add_argument("--seed", type=int, help="seed for the pair sequence")
    check.add_argument("--json", help="also write the report to this file")
    check.set_defaults(fn=_cmd_check)

    evalue = sub.add_parser("evalue", help="evaluate the simple e-value on data rows")
    _add_model_arguments(evalue)
    evalue.add_argument("--data", required=True, help="CSV of observations, one row each")
    evalue.add_argument("--force", action="store_true",
                        help="evaluate even when the battery does not certify")
    evalue.add_argument("--grid-points", type=int, help="mean-grid points per axis")
    evalue.add_argument("--pairs", type=int, help="number of quasi-random mean pairs")
    evalue.add_argument("--seed", type=int, help="seed for the pair sequence")
    evalue.add_argument("--out", help="write the CSV here instead of stdout")
    evalue.set_defaults(fn=_cmd_evalue)

    growth = sub.add_parser("growth", help="expected log e-value under the alternative")
    _add_model_arguments(growth)
    growth.add_argument("--seed", type=int, help="seed for sampled estimators")
    growth.set_defaults(fn=_cmd_growth)

    seq = sub.add_parser("sequential", help="simulate the two-sample plug-in e-process")
    seq.add_argument("--arm-means", required=True, help="true arm means, e.g. 0.4,0.6")
    seq.add_argument("--rounds", type=int, default=500)
    seq.add_argument("--paths", type=int, default=1000)
    seq.add_argument("--alpha", type=float, default=0.05)
    seq.add_argument("--seed", type=int, default=0)
    seq.add_argument("--prior", help="Beta prior a1,b1,a2,b2 (default 1,1,1,1)")
    seq.add_argument("--tail-window", type=int, default=100)
    seq.add_argument("--out", required=True, help="output prefix for paths/summary files")
    seq.set_defaults(fn=_cmd_sequential)

    figure = sub.add_parser("figure", help="write one of the standard figure data sets")
    figure.add_argument("--id", required=True, choices=("fig1", "fig2", "fig3"))
    figure.add_argument("--out", required=True, help="CSV output path")
    figure.add_argument("--arm-means", help="fig2: arm means")
    figure.add_argument("--lam", type=float, help="fig3: inverse Gaussian shape")
    figure.add_argument("--mus", help="fig3: alternative means, comma-separated")
    figure.set_defaults(fn=_cmd_figure)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse handles --help and usage errors by exiting; keep the code
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except DataError as exc:
        print(f"evfam: data error: {exc}", file=sys.stderr)
        return EXIT_BAD_DATA
    except EvfamError as exc:
        print(f"evfam: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except ValueError as exc:
        print(f"evfam: bad configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
