"""Command-line interface.

Subcommands cover the catalog listing, the existence battery, e-value
evaluation on data files, growth rates, sequential simulation, and the
standard figure data sets.  Exit codes are part of the contract:

    0   battery certified (or the command simply succeeded)
    2   battery refuted the family-wide claim
    3   battery inconclusive (Monte Carlo families, or failed preconditions)
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
    INCONCLUSIVE_PRECONDITIONS,
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

_OVERALL_EXIT = {CERTIFIED: EXIT_OK, REFUTED: EXIT_REFUTED, INCONCLUSIVE: EXIT_INCONCLUSIVE,
                 INCONCLUSIVE_PRECONDITIONS: EXIT_INCONCLUSIVE}


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


def _is_numeric(row: str) -> bool:
    try:
        [float(tok) for tok in row.split(",")]
    except ValueError:
        return False
    return True


def _join_negative_values(argv: list[str]) -> list[str]:
    """Rewrite ``--flag -0.5,1`` as ``--flag=-0.5,1``.

    argparse reads a token that starts with '-' as an option unless it is a
    plain negative number such as -1 or -0.5, so a vector or matrix whose
    first entry is negative, or a number like -1e-3, would never reach its
    flag.  A token joins the long flag before it when its first entry
    parses as a number.
    """
    out: list[str] = []
    for token in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and token.startswith("-") and _is_numeric(token.split(";")[0].split(",")[0])):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


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


def _first_data_line(handle) -> int | None:
    """Index of the first data line: past leading blank or '#' lines and one header."""
    header_seen = False
    for index, line in enumerate(handle):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if header_seen or _is_numeric(stripped):
            return index
        header_seen = True
    return None


def _read_numeric_csv(path) -> np.ndarray:
    """Rows of numbers; '#' comments skipped, one optional header tolerated.

    The lines past the leading comments and the header are parsed in one
    ``np.loadtxt`` call.  It accepts a subset of what Python's ``float``
    accepts and rounds the same way; it refuses comments, underscores and
    ragged rows inside the body.  A file that it refuses, or that holds a
    non-finite value, is read again line by line, which accepts what the
    line reader accepts and raises the error of the first bad line.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            start = _first_data_line(handle)
        if start is not None:
            try:
                table = np.loadtxt(path, delimiter=",", comments=None, skiprows=start, ndmin=2,
                                   encoding="utf-8")
            except ValueError:
                pass
            else:
                if np.isfinite(table).all():
                    return table
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError:
        # the text reader decodes chunk by chunk, so the error's own offset is
        # relative to its chunk: decode the whole file for the offset in it
        with open(path, "rb") as handle:
            try:
                handle.read().decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}: not UTF-8 text: byte {exc.object[exc.start]:#04x} "
                                f"at byte offset {exc.start}") from None
        raise
    return _parse_lines(path, lines)


# key -> (description, required flags, optional flags, pairing builder from the parsed args)
_MODELS = {
    "ksample-poisson": (
        "k Poisson arms, equal-rate null", ("--alt-means",), (),
        lambda a: ksample_pairing("poisson", _parse_vector(a.alt_means))),
    "ksample-gaussian": (
        "k Gaussian arms, equal-mean null", ("--alt-means",), ("--sigma2",),
        lambda a: ksample_pairing("gaussian", _parse_vector(a.alt_means), sigma2=a.sigma2)),
    "ksample-bernoulli": (
        "k Bernoulli arms, equal-rate null", ("--alt-means",), (),
        lambda a: ksample_pairing("bernoulli", _parse_vector(a.alt_means))),
    "gaussian-location": (
        "normal location, distinct known covariances", ("--cov-null", "--cov-alt", "--alt-mean"), (),
        lambda a: gaussian_location_pairing(_parse_matrix(a.cov_null), _parse_matrix(a.cov_alt),
                                            _parse_vector(a.alt_mean))),
    "gaussian-location-constrained": (
        "normal location with pinned coordinates", ("--cov", "--constrained", "--alt-mean"), (),
        lambda a: gaussian_location_constrained(_parse_matrix(a.cov), a.constrained,
                                                _parse_vector(a.alt_mean))),
    "gaussian-scale": (
        "centered-normal scale null vs a shifted carrier", ("--carrier-mean", "--carrier-var"), (),
        lambda a: gaussian_scale_pairing(a.carrier_mean, a.carrier_var)),
    "negbinom-vs-poisson": (
        "negative binomial null vs Poisson alternative", ("--successes", "--mu"), (),
        lambda a: negbinom_vs_poisson(a.successes, float(a.mu))),
    "abm-vs-poisson": (
        "variance m(1+m/s)^r null vs Poisson alternative", ("--s", "--r", "--mu"), (),
        lambda a: abm_vs_poisson(a.s, a.r, float(a.mu))),
    "tweedie-pair": (
        "two power-variance families", ("--null-a", "--null-power", "--alt-a", "--alt-power"),
        ("--mu",),
        lambda a: tweedie_pair((a.null_a, a.null_power), (a.alt_a, a.alt_power),
                               mu_star=float(a.mu) if a.mu is not None else 1.0)),
    "ig-vs-exp": (
        "exponential null vs inverse Gaussian alternative", ("--lam", "--mu"), (),
        lambda a: ig_vs_exp_pairing(a.lam, float(a.mu))),
    "linmodel": (
        "Gaussian linear model, first coefficient tested", ("--design", "--gamma"), ("--sigma2",),
        lambda a: linmodel_pairing(LinearModelDesign(_read_numeric_csv(a.design)), a.sigma2,
                                   _parse_vector(a.gamma))),
}


def build_pairing(args):
    if args.model not in _MODELS:
        raise ValueError(f"unknown model {args.model!r} (see 'evfam catalog')")
    _, required, _, build = _MODELS[args.model]
    missing = [flag for flag in required if getattr(args, flag[2:].replace("-", "_")) is None]
    if missing:
        raise ValueError(f"model {args.model!r} needs {', '.join(missing)}")
    return build(args)


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
    width = max(len(key) for key in _MODELS)
    for key in sorted(_MODELS):
        description, required, optional, _ = _MODELS[key]
        flags = " ".join(required) + ("; " + " ".join(optional) if optional else "")
        print(f"{key:<{width}}  {description} (needs {flags})")
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


def _format_rows(values: np.ndarray, logs: np.ndarray) -> str:
    """The ``row,evalue,log_evalue`` lines, each ending in a newline.

    Two routes give the same bytes.  When the rows hold at most half as many
    distinct ``(evalue, log_evalue)`` bit patterns as there are rows (count
    data, where the log e-value depends only on a few distinct observations),
    each distinct pair is formatted with ``%.17g`` once, and one ``%d,%s``
    pass stitches the row numbers to their pair's text.  Otherwise a single
    ``%`` call formats every row from one interleaved tuple.  Patterns are
    compared as bits, so 0.0 and -0.0 stay apart; one sort of the log bits
    counts them.
    """
    n = logs.size
    values = np.ascontiguousarray(values, dtype=float)
    logs = np.ascontiguousarray(logs, dtype=float)
    log_bits = logs.view(np.int64)
    sorted_bits = np.sort(log_bits)
    if 2 * (1 + np.count_nonzero(sorted_bits[1:] != sorted_bits[:-1])) <= n:
        distinct, inverse = np.unique(log_bits, return_inverse=True)
        distinct_values = np.empty(distinct.size)
        distinct_values[inverse] = values
        # an e-value is exp of its log, so each log pattern has one value; check the bits
        if np.array_equal(distinct_values[inverse].view(np.int64), values.view(np.int64)):
            pairs: list = [None] * (2 * distinct.size)
            pairs[0::2] = distinct_values.tolist()
            pairs[1::2] = distinct.view(float).tolist()
            cells = np.array((("%.17g,%.17g\n" * distinct.size) % tuple(pairs)).splitlines(),
                             dtype=object)
            fields: list = [None] * (2 * n)
            fields[0::2] = range(n)
            fields[1::2] = cells[inverse].tolist()
            return ("%d,%s\n" * n) % tuple(fields)
    fields = [None] * (3 * n)
    fields[0::3] = range(n)
    fields[1::3] = values.tolist()
    fields[2::3] = logs.tolist()
    return ("%d,%.17g,%.17g\n" * n) % tuple(fields)


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
    width = 1 if null.element_ndim == 0 else len(null.law(mu)[1])  # the arm or mean vector
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
    text = (f"# model={pairing.name}\n"
            f"# mu={','.join(f'{v:.17g}' for v in mu)}\n"
            f"# rows={data.shape[0]}\n"
            "row,evalue,log_evalue\n"
            + _format_rows(values, logs)
            + f"product,{product:.17g},{total:.17g}\n")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_growth(args) -> int:
    pairing = build_pairing(args)
    mu = _anchor_mean(args, pairing)
    value = growth_rate(pairing.tilted, pairing.null, mu)
    print(json.dumps({"growth_rate": "inf" if value == np.inf else value,
                      "model": pairing.name, "mu": [float(v) for v in mu]},
                     sort_keys=True, allow_nan=False))
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
        args = _build_parser().parse_args(
            _join_negative_values(sys.argv[1:] if argv is None else list(argv)))
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
