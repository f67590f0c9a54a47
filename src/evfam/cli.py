"""Command-line interface.

Subcommands cover the catalog listing, the existence battery, e-value
evaluation on data files, growth rates, sequential simulation, and the
standard figure data sets.  Exit codes are part of the contract:

    0   battery certified (or the command simply succeeded)
    2   battery refuted the family-wide claim
    3   battery inconclusive (Monte Carlo families, or failed preconditions)
    64  bad configuration or arguments, or an output path that cannot be written
    65  malformed data file
    141 standard output closed early (a reader such as ``head`` quit)

All outputs are deterministic for fixed inputs: JSON is key-sorted and CSV
files carry their effective configuration as '#' comment lines.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
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
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer killed by the signal

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


def _decode_utf8(path, raw: bytes) -> str:
    """``raw`` as UTF-8 text; a DataError names the first bad byte and its offset."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: byte {exc.object[exc.start]:#04x} "
                        f"at byte offset {exc.start}") from None


def _read_numeric_csv(path) -> np.ndarray:
    """Rows of numbers; '#' comments skipped, one optional header tolerated.

    The lines past the leading comments and the header are parsed in one
    ``np.loadtxt`` call.  It accepts a subset of what Python's ``float``
    accepts and rounds the same way; it refuses comments, underscores and
    ragged rows inside the body.  A file that it refuses, or that holds a
    non-finite value, is read again line by line, which accepts what the
    line reader accepts and raises the error of the first bad line.  A path
    that is not a regular file (a pipe, say) can be read only once, so it is
    read whole into memory and every pass parses that one copy.
    """
    try:
        if os.path.isfile(path):
            source = path
            with open(path, "r", encoding="utf-8") as handle:
                start = _first_data_line(handle)
        else:
            with open(path, "rb") as handle:
                source = io.StringIO(_decode_utf8(path, handle.read()), newline=None).readlines()
            start = _first_data_line(source)
        if start is not None:
            try:
                table = np.loadtxt(source, delimiter=",", comments=None, skiprows=start, ndmin=2,
                                   encoding="utf-8")
            except ValueError:
                pass
            else:
                if np.isfinite(table).all():
                    return table
        if source is path:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.readlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError:
        # the text reader decodes chunk by chunk, so the error's own offset is
        # relative to its chunk: decode the whole file for the offset in it
        with open(path, "rb") as handle:
            _decode_utf8(path, handle.read())
        raise
    return _parse_lines(path, source)


# key -> (description, required flags, optional flags, pairing builder from the parsed args)
_MODELS = {
    "ksample-poisson": (
        "k Poisson arms, equal-rate null", ("--alt-means",), (),
        lambda a: ksample_pairing("poisson", _parse_vector(a.alt_means))),
    "ksample-gaussian": (
        "k Gaussian arms, equal-mean null", ("--alt-means",), ("--sigma2",),
        lambda a: ksample_pairing("gaussian", _parse_vector(a.alt_means),
                                  sigma2=1.0 if a.sigma2 is None else a.sigma2)),
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
        lambda a: linmodel_pairing(LinearModelDesign(_read_numeric_csv(a.design)),
                                   1.0 if a.sigma2 is None else a.sigma2,
                                   _parse_vector(a.gamma))),
}


def build_pairing(args):
    if args.model not in _MODELS:
        raise ValueError(f"unknown model {args.model!r} (see 'evfam catalog')")
    _, required, optional, build = _MODELS[args.model]
    # every model flag is listed by some model; none has a default
    given = sorted({flag for row in _MODELS.values() for flag in (*row[1], *row[2])
                    if getattr(args, flag[2:].replace("-", "_")) is not None})
    missing = [flag for flag in required if flag not in given]
    if missing:
        raise ValueError(f"model {args.model!r} needs {', '.join(missing)}")
    # on evalue and growth, --mu names the anchor mean whatever the model
    extra = [flag for flag in given if flag not in (*required, *optional)
             and not (flag == "--mu" and args.command != "check")]
    if extra:
        raise ValueError(f"model {args.model!r} does not take {', '.join(extra)}")
    return build(args)


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    # no model flag has a default, so build_pairing can tell which were given
    parser.add_argument("--model", required=True, help="model key; see 'evfam catalog'")
    parser.add_argument("--alt-means", help="comma-separated per-arm means")
    parser.add_argument("--sigma2", type=float, help="per-arm or noise variance (default 1)")
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
    mu = _parse_vector(args.mu) if "," in args.mu else np.array([float(args.mu)])
    if mu.size != pairing.null.dim:
        raise ValueError(f"--mu has length {mu.size}; the {args.model} mean has dimension "
                         f"{pairing.null.dim}")
    return mu


def _cmd_catalog(_args) -> int:
    width = max(len(key) for key in _MODELS)
    for key in sorted(_MODELS):
        description, required, optional, _ = _MODELS[key]
        flags = " ".join(required) + ("; " + " ".join(optional) if optional else "")
        print(f"{key:<{width}}  {description} (needs {flags})")
    return EXIT_OK


def _probe_output(*paths) -> None:
    """Raise now the OSError that writing a path would raise after the work, leaving no new file."""
    for path in filter(None, paths):
        existed = os.path.exists(path)
        if not existed or os.path.isfile(path) or os.path.isdir(path):  # a pipe's open could block
            open(path, "a", encoding="utf-8").close()  # appending nothing keeps the bytes
            if not existed:
                os.remove(path)


def _cmd_check(args) -> int:
    _probe_output(args.json)
    pairing = build_pairing(args)
    report = run_condition_battery(pairing, spec=_grid_spec(args))
    payload = json.dumps(report.to_dict(), sort_keys=True, indent=2, allow_nan=False)
    print(payload)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    return _OVERALL_EXIT[report.overall]


BLOCK_ROWS = 8192  # rows formatted per write: the output text in memory is one block


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of ``values`` in ascending order, from one ``np.sort``.

    ``np.unique`` hashes its input, which on 200k distinct int64 takes about
    30 times as long as the sort.
    """
    ordered = np.sort(values, axis=None)
    return ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]


def _distinct_rows(batch: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The distinct rows of ``batch``, and each row's index among them.

    Rows are keyed by their float64 bits, so 0.0 and -0.0 stay apart.  A row
    of k columns is keyed by its elements' codes in one sort of every
    element, read as the k digits of one int64.  None when more than half the
    rows are distinct, or when k digits do not fit an int64.
    """
    bits = np.ascontiguousarray(batch, dtype=float).view(np.int64)
    keys = bits
    if bits.ndim == 2:
        elements = _sorted_distinct(bits)
        # a row holds at most k of the elements, so m elements need m / k distinct rows
        if (2 * elements.size > bits.size
                or elements.size ** bits.shape[1] > np.iinfo(np.int64).max):
            return None
        keys = np.searchsorted(elements, bits) @ elements.size ** np.arange(bits.shape[1])[::-1]
    distinct = _sorted_distinct(keys)
    if 2 * distinct.size > keys.size:
        return None
    inverse = np.searchsorted(distinct, keys)
    rows = np.empty((distinct.size, *batch.shape[1:]))
    rows[inverse] = batch  # every row with one key has the same bits
    return rows, inverse


def _write_rows(write, values: np.ndarray, logs: np.ndarray, inverse: np.ndarray | None) -> None:
    """Write the ``row,evalue,log_evalue`` lines, at most ``BLOCK_ROWS`` rows a call.

    Without ``inverse``, ``values`` and ``logs`` hold one entry per row, and
    each block is one ``%`` call on an interleaved tuple.  With it, they hold
    one entry per distinct row and row i takes entry ``inverse[i]``: each
    distinct ``(evalue, log_evalue)`` cell is formatted with ``%.17g`` once,
    and each block stitches the row numbers to their cells.
    """
    n = logs.size if inverse is None else inverse.size
    if inverse is not None:
        pairs: list = [None] * (2 * logs.size)
        pairs[0::2] = values.tolist()
        pairs[1::2] = logs.tolist()
        cells = np.array((("%.17g,%.17g\n" * logs.size) % tuple(pairs)).splitlines(),
                         dtype=object)
    for start in range(0, n, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n)
        if inverse is None:
            fields: list = [None] * (3 * (stop - start))
            fields[0::3] = range(start, stop)
            fields[1::3] = values[start:stop].tolist()
            fields[2::3] = logs[start:stop].tolist()
            write(("%d,%.17g,%.17g\n" * (stop - start)) % tuple(fields))
        else:
            fields = [None] * (2 * (stop - start))
            fields[0::2] = range(start, stop)
            fields[1::2] = cells[inverse[start:stop]].tolist()
            write(("%d,%s\n" * (stop - start)) % tuple(fields))


def _cmd_evalue(args) -> int:
    _probe_output(args.out)
    pairing = build_pairing(args)
    # the data and the mean are read and checked before the battery runs
    data = _read_numeric_csv(args.data)
    mu = _anchor_mean(args, pairing)
    null = pairing.null
    width = 1 if null.element_ndim == 0 else len(null.law(mu)[1])  # the arm or mean vector
    if data.shape[1] != width:
        expected = "one column" if width == 1 else f"{width} columns"
        raise DataError(f"model {pairing.name} expects {expected}, got {data.shape[1]}")
    batch = data[:, 0] if null.element_ndim == 0 else data
    if not args.force:
        report = run_condition_battery(pairing, spec=_grid_spec(args))
        if report.overall != CERTIFIED:
            print(f"refusing to evaluate: battery verdict is {report.overall} "
                  f"({report.reason}); pass --force to override", file=sys.stderr)
            return _OVERALL_EXIT[report.overall]

    def log_evalues(rows):
        try:
            return np.atleast_1d(simple_log_evalue(pairing.tilted, null, mu, rows))
        except (ValueError, FloatingPointError) as exc:
            raise DataError(f"data incompatible with model {pairing.name}: {exc}") from None

    distinct = _distinct_rows(batch)
    inverse = None
    if distinct is not None:
        with contextlib.suppress(DataError):  # the full batch names the file's first bad row
            logs, inverse = log_evalues(distinct[0]), distinct[1]
    if inverse is None:
        logs = log_evalues(batch)
    # summed over every row, so both routes add the same numbers in the same order
    total = (logs if inverse is None else logs[inverse]).sum()
    with np.errstate(over="ignore"):
        values = np.exp(logs)
        product = np.exp(total)
    with (open(args.out, "w", encoding="utf-8") if args.out
          else contextlib.nullcontext(sys.stdout)) as handle:
        handle.write(f"# model={pairing.name}\n"
                     f"# mu={','.join(f'{v:.17g}' for v in mu)}\n"
                     f"# rows={data.shape[0]}\n"
                     "row,evalue,log_evalue\n")
        _write_rows(handle.write, values, logs, inverse)
        handle.write(f"product,{product:.17g},{total:.17g}\n")
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
    _probe_output(f"{args.out}_paths.csv", f"{args.out}_summary.json")
    config = {
        "alpha": args.alpha,
        "arm_means": _parse_vector(args.arm_means).tolist(),
        "n_paths": args.paths,
        "prior": _parse_vector(args.prior).tolist() if args.prior else [1.0, 1.0, 1.0, 1.0],
        "rounds": args.rounds,
        "seed": args.seed,
        "tail_window": args.tail_window,
    }
    result = simulate_two_sample(**config)
    path_lines = [f"# {key}={config[key]}" for key in sorted(config)]
    path_lines.append("path,final_log_value,crossed,first_crossing")
    for i in range(args.paths):
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
        "threshold": float(np.log(1.0 / args.alpha)),
    })
    payload = json.dumps(summary, sort_keys=True, indent=2, allow_nan=False)
    with open(f"{args.out}_summary.json", "w", encoding="utf-8") as handle:
        handle.write(payload + "\n")
    print(payload)
    return EXIT_OK


def _cmd_figure(args) -> int:
    _probe_output(args.out)
    # every option given goes to figure_data, which refuses one the figure does not take
    options = {name: tuple(_parse_vector(text).tolist())
               for name, text in (("arm_means", args.arm_means), ("mus", args.mus))
               if text is not None}
    empty = [name for name, values in options.items() if not values]
    if empty:
        raise ValueError(f"--{empty[0].replace('_', '-')} is empty; give at least one number")
    if args.lam is not None:
        options["lam"] = args.lam
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
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe must fail here, not at interpreter exit
        return code
    except BrokenPipeError:
        # point stdout at devnull so the flush at exit does not fail again
        # (the idiom of the Python signal module's documentation)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except OSError as exc:
        # data files are read behind DataError, so this is an output that cannot be written
        print(f"evfam: cannot write {exc.filename or 'output'}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_BAD_CONFIG
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
