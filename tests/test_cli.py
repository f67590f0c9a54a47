"""Command-line interface: exit codes, outputs, determinism."""

from __future__ import annotations

import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from evfam.cli import _MODELS, _build_parser, _format_rows, _read_numeric_csv, main
from evfam.errors import DataError

NB_ARGS = ["--model", "negbinom-vs-poisson", "--successes", "4", "--mu", "2",
           "--grid-points", "24", "--pairs", "32"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


CATALOG = """\
abm-vs-poisson                 variance m(1+m/s)^r null vs Poisson alternative (needs --s --r --mu)
gaussian-location              normal location, distinct known covariances (needs --cov-null --cov-alt --alt-mean)
gaussian-location-constrained  normal location with pinned coordinates (needs --cov --constrained --alt-mean)
gaussian-scale                 centered-normal scale null vs a shifted carrier (needs --carrier-mean --carrier-var)
ig-vs-exp                      exponential null vs inverse Gaussian alternative (needs --lam --mu)
ksample-bernoulli              k Bernoulli arms, equal-rate null (needs --alt-means)
ksample-gaussian               k Gaussian arms, equal-mean null (needs --alt-means; --sigma2)
ksample-poisson                k Poisson arms, equal-rate null (needs --alt-means)
linmodel                       Gaussian linear model, first coefficient tested (needs --design --gamma; --sigma2)
negbinom-vs-poisson            negative binomial null vs Poisson alternative (needs --successes --mu)
tweedie-pair                   two power-variance families (needs --null-a --null-power --alt-a --alt-power; --mu)
"""


def test_catalog_lists_models(capsys):
    assert run(capsys, "catalog") == (0, CATALOG, "")


# One case per CLI model: its flags (DESIGN stands for a design file), the
# rows of a data file of the model's width, and the exit codes of check,
# evalue --force and growth.  abm r = 2 and the Tweedie 1.5 pair have no
# densities (exit 64); the inverse Gaussian alternative is refuted (exit 2).
DESIGN = "<design>"
MODEL_CASES = {
    "ksample-poisson": ({"--alt-means": "0.5,1,1.5"}, "0,1,2\n3,0,1\n", (0, 0, 0)),
    "ksample-gaussian": ({"--alt-means": "0.2,1,1.8"}, "0.1,-0.5,2\n1,1.2,0.3\n", (0, 0, 0)),
    "ksample-bernoulli": ({"--alt-means": "0.3,0.5,0.7"}, "0,1,1\n1,0,1\n", (0, 0, 0)),
    "gaussian-location": ({"--cov-null": "2,0.3;0.3,1", "--cov-alt": "1,0.1;0.1,0.5",
                           "--alt-mean": "1,-0.5"}, "0.2,1\n-1,0.4\n", (0, 0, 0)),
    "gaussian-location-constrained": ({"--cov": "1,0.4;0.4,2", "--constrained": "1",
                                       "--alt-mean": "0.9,1"}, "0.2,1\n-1,0.4\n", (0, 0, 0)),
    "gaussian-scale": ({"--carrier-mean": "-3", "--carrier-var": "9"}, "0.5\n-2\n", (0, 0, 0)),
    "negbinom-vs-poisson": ({"--successes": "4", "--mu": "2"}, "0\n3\n", (0, 0, 0)),
    "abm-vs-poisson": ({"--s": "3", "--r": "2", "--mu": "2"}, "0\n3\n", (0, 64, 64)),
    "tweedie-pair": ({"--null-a": "1", "--null-power": "1.5", "--alt-a": "0.5",
                      "--alt-power": "1.5"}, "0.5\n2\n", (0, 64, 64)),
    "ig-vs-exp": ({"--lam": "2", "--mu": "0.8"}, "0.5\n2\n", (2, 0, 0)),
    "linmodel": ({"--design": DESIGN, "--gamma": "0.5,-0.3"},
                 "0.1,-0.4,1.2,0.3,-0.8,0.5,0.9,-1.1\n", (0, 0, 0)),
}


def _model_argv(tmp_path, key, drop=None):
    flags, _, _ = MODEL_CASES[key]
    design = tmp_path / "design.csv"
    if DESIGN in flags.values():
        rows = np.random.default_rng(0).normal(size=(8, 2))
        design.write_text("\n".join(",".join(f"{v:.6f}" for v in row) for row in rows) + "\n")
    return ["--model", key] + [f"{flag}={design if value == DESIGN else value}"
                               for flag, value in flags.items() if flag != drop]


def test_every_model_has_a_smoke_case():
    assert set(MODEL_CASES) == set(_MODELS)
    for key, (flags, _, _) in MODEL_CASES.items():
        _, required, optional, _ = _MODELS[key]
        assert set(flags) - set(optional) == set(required), key


@pytest.mark.parametrize("key", sorted(MODEL_CASES))
def test_every_model_runs_every_subcommand(capsys, tmp_path, key):
    _, rows, (check_code, evalue_code, growth_code) = MODEL_CASES[key]
    data = tmp_path / "data.csv"
    data.write_text(rows)
    argv = _model_argv(tmp_path, key)

    code, out, err = run(capsys, "check", *argv)
    assert code == check_code, err
    assert json.loads(out)["model"] == key

    code, out, err = run(capsys, "evalue", *argv, "--force", "--data", str(data))
    assert code == evalue_code, err
    if code == 0:
        assert out.splitlines()[-1].startswith("product,")
    else:
        assert out == "" and "need density evaluation" in err

    code, out, err = run(capsys, "growth", *argv)
    assert code == growth_code, err
    if code == 0:
        assert json.loads(out)["model"] == key
    else:
        assert out == "" and "need density evaluation" in err


@pytest.mark.parametrize("key", sorted(MODEL_CASES))
def test_every_required_flag_is_enforced(capsys, tmp_path, key):
    for flag in _MODELS[key][1]:
        code, out, err = run(capsys, "check", *_model_argv(tmp_path, key, drop=flag))
        assert (code, out) == (64, ""), flag
        assert err == f"evfam: bad configuration: model {key!r} needs {flag}\n"


def test_check_certified_exit_and_json(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "check", *NB_ARGS, "--json", str(report_path))
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert payload == json.loads(out)
    assert payload["overall"] == "simple-evariable-certified"


def test_check_refuted_exit(capsys):
    code, out, _ = run(capsys, "check", "--model", "ig-vs-exp",
                       "--lam", "2", "--mu", "1.5",
                       "--grid-points", "24", "--pairs", "32")
    assert code == 2
    assert json.loads(out)["overall"] == "refuted"


def test_check_failed_preconditions_exit_3(capsys):
    code, out, _ = run(capsys, "check", "--model", "tweedie-pair", "--null-a", "1",
                       "--null-power", "1", "--alt-a", "1e-5", "--alt-power", "1.5",
                       "--grid-points", "24", "--pairs", "32")
    assert code == 3
    assert json.loads(out)["overall"] == "inconclusive-preconditions"


def test_check_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "check", *NB_ARGS)
    code2, out2, _ = run(capsys, "check", *NB_ARGS)
    assert (code1, out1) == (code2, out2)


def test_usage_errors_exit_64(capsys):
    assert main(["check", "--model", "negbinom-vs-poisson"]) == 64  # missing flags
    capsys.readouterr()
    assert main(["check", "--model", "no-such-model", "--mu", "1"]) == 64
    capsys.readouterr()
    assert main(["bogus-command"]) == 64
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["--model", "negbinom-vs-poisson", "--successes", "4", "--mu", "-1"],
     "evfam: alternative mean -1.0 lies outside the mean domain of poisson\n"),
    (["--model", "tweedie-pair", "--null-a", "1", "--null-power", "1.5", "--alt-a", "0.5",
      "--alt-power", "1.5", "--mu", "-2"],
     "evfam: alternative mean -2.0 lies outside the mean domain of tweedie(a=0.5,power=1.5)\n"),
    (["--model", "gaussian-location", "--cov-null=2,0.3;0.3,1", "--cov-alt=1,0,0;0,1,0;0,0,1",
      "--alt-mean=1,-0.5,0"], "evfam: carrier mean has shape (3,), statistic is 2-dimensional\n"),
])
def test_anchor_outside_the_alternative_family_exits_64(capsys, argv, message):
    assert run(capsys, "check", *argv) == (64, "", message)


def not_pd(label, matrix):
    return f"evfam: bad covariance {label}: {matrix} is not positive definite\n"


COV_NULL, COV_ALT = ["--cov-null", "2,0.3;0.3,1"], ["--cov-alt", "1,0.1;0.1,0.5"]
SMALL_GRID = ["--grid-points", "8", "--pairs", "8"]


# argparse reads a token such as -0.5,1 as an option unless it is joined to its
# flag; the space-separated form must reach the model as the "=" form does
@pytest.mark.parametrize("flag, value, rest, code, message", [
    ("--alt-means", "-0.5,1,1.5", ["--model", "ksample-poisson"], 64,
     "evfam: poisson arm means must be positive\n"),
    ("--alt-mean", "-1,-0.5", ["--model", "gaussian-location", *COV_NULL, *COV_ALT, *SMALL_GRID],
     0, ""),
    ("--mu", "-1e-3", ["--model", "negbinom-vs-poisson", "--successes", "4"], 64,
     "evfam: alternative mean -0.001 lies outside the mean domain of poisson\n"),
    ("--gamma", "-0.5,0.3", ["--model", "linmodel", "--design", DESIGN, *SMALL_GRID], 0, ""),
    ("--cov", "-1,0.4;0.4,2", ["--model", "gaussian-location-constrained", "--constrained", "1",
                                "--alt-mean", "0.9,1"], 64, not_pd("cov", [[-1.0, 0.4], [0.4, 2.0]])),
    ("--cov-null", "-2,0.3;0.3,1", ["--model", "gaussian-location", *COV_ALT, "--alt-mean", "1,0"],
     64, not_pd("cov_null", [[-2.0, 0.3], [0.3, 1.0]])),
    ("--cov-alt", "-1,0.1;0.1,0.5", ["--model", "gaussian-location", *COV_NULL, "--alt-mean", "1,0"],
     64, not_pd("cov_alt", [[-1.0, 0.1], [0.1, 0.5]])),
])
def test_a_negative_first_entry_reaches_the_model(capsys, tmp_path, flag, value, rest, code,
                                                   message):
    design = tmp_path / "design.csv"
    design.write_text("1,0.5\n0.2,-1\n-0.7,0.3\n1.5,1\n-0.4,-0.8\n0.9,0.1\n")
    rest = [str(design) if arg == DESIGN else arg for arg in rest]
    spaced = run(capsys, "check", *rest, flag, value)
    assert spaced == run(capsys, "check", *rest, f"{flag}={value}")
    assert (spaced[0], spaced[2]) == (code, message)
    if code == 0:
        assert json.loads(spaced[1])["model"] == rest[1]


# an indefinite matrix with a positive diagonal is refused by name as well
@pytest.mark.parametrize("argv, label", [
    (["--model", "gaussian-location", "--cov-null=1,2;2,1", *COV_ALT, "--alt-mean=1,0"],
     "cov_null"),
    (["--model", "gaussian-location", *COV_NULL, "--cov-alt=1,2;2,1", "--alt-mean=1,0"],
     "cov_alt"),
    (["--model", "gaussian-location-constrained", "--cov=1,2;2,1", "--constrained", "1",
      "--alt-mean=0.9,1"], "cov"),
], ids=["cov-null", "cov-alt", "cov"])
def test_a_covariance_that_is_not_positive_definite_is_named(capsys, argv, label):
    assert run(capsys, "check", *argv) == (64, "", not_pd(label, [[1.0, 2.0], [2.0, 1.0]]))


# both location models refuse a covariance that is not symmetric, with one message
@pytest.mark.parametrize("argv", [
    ["--model", "gaussian-location", "--cov-null=2,0.3;0.1,1", *COV_ALT, "--alt-mean=1,0"],
    ["--model", "gaussian-location-constrained", "--cov=1,0.5;0.2,1", "--constrained", "1",
     "--alt-mean=0.9,1"],
], ids=["gaussian-location", "gaussian-location-constrained"])
def test_a_covariance_that_is_not_symmetric_is_refused(capsys, argv):
    assert run(capsys, "check", *argv) == (
        64, "", "evfam: location family needs a symmetric covariance\n")


def test_sigma2_is_reported_only_where_it_is_used(capsys):
    poisson = ["check", "--model", "ksample-poisson", "--alt-means", "0.5,1,1.5"]
    _, plain, _ = run(capsys, *poisson)
    _, with_sigma2, _ = run(capsys, *poisson, "--sigma2", "3")
    assert json.loads(with_sigma2) == json.loads(plain)
    assert "sigma2" not in json.loads(plain)["params"]
    _, out, _ = run(capsys, "check", "--model", "ksample-gaussian", "--alt-means", "0.2,1,1.8",
                    "--sigma2", "3")
    assert json.loads(out)["params"]["sigma2"] == 3.0


def test_evalue_writes_rows_and_product(capsys, tmp_path):
    data = tmp_path / "counts.csv"
    data.write_text("value\n0\n1\n3\n")
    out_path = tmp_path / "ev.csv"
    code, _, _ = run(capsys, "evalue", *NB_ARGS, "--data", str(data),
                     "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "# model=negbinom-vs-poisson"
    header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header_idx] == "row,evalue,log_evalue"
    body = [ln.split(",") for ln in lines[header_idx + 1:]]
    assert [row[0] for row in body] == ["0", "1", "2", "product"]
    product = np.prod([float(row[1]) for row in body[:-1]])
    assert float(body[-1][1]) == pytest.approx(product, rel=1e-12)


def test_evalue_refuses_unsound_model_without_force(capsys, tmp_path):
    data = tmp_path / "obs.csv"
    data.write_text("0.5\n1.5\n")
    argv = ["evalue", "--model", "ig-vs-exp", "--lam", "2", "--mu", "1.5",
            "--grid-points", "24", "--pairs", "32", "--data", str(data)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert "refusing to evaluate" in captured.err
    assert captured.out == ""

    code = main(argv + ["--force"])
    captured = capsys.readouterr()
    assert code == 0
    assert "row,evalue,log_evalue" in captured.out


def test_evalue_rejects_malformed_data(capsys, tmp_path):
    data = tmp_path / "bad.csv"
    data.write_text("value\n1\nnot-a-number\n")
    code, _, _ = run(capsys, "evalue", *NB_ARGS, "--data", str(data))
    assert code == 65


BAD_CSV_CASES = {
    "second-non-numeric-line": ("value\nother\n1\n", "{path}:2: non-numeric row 'other'"),
    "bad-line-after-data": ("value\n1\nnot-a-number\n", "{path}:3: non-numeric row 'not-a-number'"),
    "comments-blanks-whitespace": ("# note\n\n  value \n 1 \n\n# more\n\t2\t\n 3 x \n",
                                   "{path}:8: non-numeric row '3 x'"),
    "empty-token": ("1\n2,\n", "{path}:2: non-numeric row '2,'"),
    "nan": ("1\nnan\n", "{path}:2: non-finite value"),
    "nan-first-is-not-a-header": ("nan\n1\n", "{path}:1: non-finite value"),
    "inf": ("value\n1\n-inf\n", "{path}:3: non-finite value"),
    "overflow": ("1\n1e400\n", "{path}:2: non-finite value"),
    "bad-line-beats-ragged": ("1\n1,2\nfoo\n", "{path}:3: non-numeric row 'foo'"),
    "non-finite-beats-ragged": ("1\n1,2\ninf\n", "{path}:3: non-finite value"),
    "ragged": ("# c\nvalue\n1\n1,2\n", "{path}: rows have unequal lengths [1, 2]"),
    "header-only": ("value\n", "{path}: no data rows"),
    "comments-only": ("# nothing\n\n", "{path}: no data rows"),
    "missing-file": (None, "cannot read {path}: [Errno 2] No such file or directory: '{path}'"),
}


@pytest.mark.parametrize("content, message", BAD_CSV_CASES.values(), ids=BAD_CSV_CASES.keys())
def test_evalue_csv_contract(capsys, tmp_path, content, message):
    data = tmp_path / "data.csv"
    if content is not None:
        data.write_text(content)
    code, out, err = run(capsys, "evalue", *NB_ARGS, "--force", "--data", str(data))
    assert code == 65
    assert out == ""
    assert err == f"evfam: data error: {message.format(path=data)}\n"


# counts >= 7, whose log e-values survive a log(exp(.)) round trip bit for bit
GOLDEN_ROWS = """\
# model=negbinom-vs-poisson
# mu=2
# rows=5
row,evalue,log_evalue
0,0.31711956904121968,-1.1484763868184187
1,0.086487155193060147,-2.4477593709486767
2,0.17297431038611985,-1.7546121903887339
3,0.0068429397515387957,-4.9845378514435215
4,0.039917148550643149,-3.2209492591821585
product,1.295861207455861e-06,-13.55633505878151
"""


# the bulk parse and the line reader accept and refuse the same files; each case is
# one where a plain np.loadtxt would differ, or a layout the bulk parse must take
READER_CASES = {
    "underscore-digits": ("1_0\n2\n", [[10.0], [2.0]]),
    "comment-after-a-value": ("1\n1 # c\n", "{path}:2: non-numeric row '1 # c'"),
    "comment-after-the-first-value-is-a-header": ("1 # c\n2\n", [[2.0]]),
    "indented-comments": ("  # c\n1\n  # d\n2\n", [[1.0], [2.0]]),
    "infinity": ("1\ninfinity\n", "{path}:2: non-finite value"),
    "crlf": (b"x,y\r\n1,2\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]]),
    "blank-lines": ("\n1\n\n  \n2\n\n", [[1.0], [2.0]]),
    "plus-sign": ("+1,-2\n+0.5,3e+2\n", [[1.0, -2.0], [0.5, 300.0]]),
    "tabs": ("\tx,y\t\n\t1\t,\t2\n3\t,4\t\n", [[1.0, 2.0], [3.0, 4.0]]),
    "comments-around-the-header": ("# c\n\nx\n# d\n5\n", [[5.0]]),
}


@pytest.mark.parametrize("content, expected", READER_CASES.values(), ids=READER_CASES.keys())
def test_csv_reader_accepts_what_the_line_reader_accepts(tmp_path, content, expected):
    data = tmp_path / "data.csv"
    if isinstance(content, bytes):
        data.write_bytes(content)
    else:
        data.write_text(content)
    if isinstance(expected, str):
        with pytest.raises(DataError) as err:
            _read_numeric_csv(data)
        assert str(err.value) == expected.format(path=data)
    else:
        got = _read_numeric_csv(data)
        assert got.dtype == float and got.tolist() == expected


def test_evalue_output_is_byte_identical_to_golden(capsys, tmp_path):
    data = tmp_path / "counts.csv"
    data.write_text("count\n7\n# comment\n 9 \n8\n\n12\n10\n")
    out_path = tmp_path / "rows.csv"
    code, out, err = run(capsys, "evalue", *NB_ARGS, "--data", str(data), "--out", str(out_path))
    assert (code, out, err) == (0, "", "")
    assert out_path.read_bytes() == GOLDEN_ROWS.encode()


@pytest.mark.parametrize("argv, content, message", [
    (["--model", "ksample-poisson", "--alt-means", "0.5,1,1.5"], "0\n1\n",
     "model ksample-poisson expects 3 columns, got 1"),
    (NB_ARGS, "0,1\n2,3\n", "model negbinom-vs-poisson expects one column, got 2"),
], ids=["vector-model-one-column", "scalar-model-two-columns"])
def test_evalue_checks_the_column_count(capsys, tmp_path, argv, content, message):
    data = tmp_path / "data.csv"
    data.write_text(content)
    code, out, err = run(capsys, "evalue", *argv, "--force", "--data", str(data))
    assert (code, out) == (65, "")
    assert err == f"evfam: data error: {message}\n"


def _evalue_rows(capsys, tmp_path, argv, content):
    data = tmp_path / "data.csv"
    data.write_text(content)
    code, out, err = run(capsys, "evalue", *argv, "--force", "--data", str(data))
    assert (code, err) == (0, "")
    return [line.split(",") for line in out.splitlines() if not line.startswith("#")][1:]


def test_evalue_log_column_stays_finite_where_the_evalue_underflows(capsys, tmp_path):
    from scipy import stats

    rows = _evalue_rows(capsys, tmp_path, NB_ARGS, "300\n")
    want = stats.poisson.logpmf(300, 2.0) - stats.nbinom.logpmf(300, 4, 4 / 6)
    assert want == pytest.approx(-893.10, abs=0.01)
    assert rows[0][1] == "0"
    assert float(rows[0][2]) == pytest.approx(want, rel=1e-12)
    assert rows[1][0] == "product" and float(rows[1][2]) == float(rows[0][2])


def test_evalue_product_overflows_to_inf_without_a_warning(capsys, tmp_path):
    rows = _evalue_rows(capsys, tmp_path, ["--model", "ksample-poisson", "--alt-means", "0.5,1,1.5"],
                        "0,0,9\n" * 400)
    logs = np.array([float(row[2]) for row in rows[:-1]])
    assert np.all(np.isfinite(logs)) and np.all(logs > 0)
    assert rows[-1][1] == "inf"
    assert float(rows[-1][2]) == pytest.approx(logs.sum(), rel=1e-12)
    assert float(rows[-1][2]) > 710


SPECIAL_LOGS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
                         np.inf, -np.inf, 1.0, -13.55633505878151, 0.1, 709.78, -745.2])
# five bit patterns, 0.0 and -0.0 among them, repeated over 200 rows
REPEATED_LOGS = np.tile([0.0, -0.0, np.nan, -13.55633505878151, 709.78], 40)


# all-distinct rows take the one-pass route; repeated rows whose value is exp(log)
# take the table of distinct rows; repeated logs with unrelated values fall back
@pytest.mark.parametrize("logs, values", [
    (np.array([]), np.array([])),
    (SPECIAL_LOGS, SPECIAL_LOGS[::-1].copy()),
    (REPEATED_LOGS, np.exp(REPEATED_LOGS)),
    (REPEATED_LOGS, np.arange(REPEATED_LOGS.size, dtype=float)),
], ids=["no-rows", "special-values", "repeated-values", "repeated-logs-distinct-values"])
def test_evalue_rows_format_as_one_row_at_a_time(logs, values):
    want = "".join("%d,%.17g,%.17g\n" % row
                   for row in zip(range(logs.size), values.tolist(), logs.tolist()))
    assert _format_rows(values, logs) == want


def test_parser_is_built_once_and_calls_share_no_state(capsys, tmp_path):
    assert _build_parser() is _build_parser()
    first = _build_parser().parse_args(["check", *NB_ARGS, "--seed", "7", "--json", "r.json"])
    second = _build_parser().parse_args(["check", *NB_ARGS])
    assert (first.seed, first.json) == (7, "r.json")
    assert (second.seed, second.json) == (None, None)

    report_path = tmp_path / "report.json"
    code_seeded, _, _ = run(capsys, "check", *NB_ARGS, "--seed", "7", "--json", str(report_path))
    assert code_seeded == 0 and report_path.exists()
    report_path.unlink()
    code, out, _ = run(capsys, "growth", "--model", "ksample-poisson", "--alt-means", "0.5,1.5")
    assert code == 0 and "growth_rate" in out
    _, default_out, _ = run(capsys, "check", *NB_ARGS)
    _, fresh_out, _ = run(capsys, "check", *NB_ARGS, "--seed", "0")
    assert not report_path.exists()
    assert default_out == fresh_out


def test_growth_without_null_density_exits_64(capsys):
    code, _, err = run(capsys, "growth", "--model", "abm-vs-poisson",
                       "--s", "3", "--r", "2", "--mu", "2")
    assert code == 64
    assert "density" in err and "Traceback" not in err


def test_growth_on_a_truncated_lattice_exits_64(capsys):
    # the lattice ends at 65535 counts, far below this Poisson alternative's mass
    code, out, err = run(capsys, "growth", "--model", "negbinom-vs-poisson",
                         "--successes", "4", "--mu", "1e5")
    assert code == 64 and out == ""
    assert "k=1, lattice side 65536" in err and "Traceback" not in err


# products of Poisson arms have a closed-form growth at any number of arms;
# a lattice of side 32 would have needed 1.07e9 (k = 6) or 1.1e12 (k = 8) points
@pytest.mark.parametrize("means", ["0.5,1,1.5,2,2.5,3", "0.5,1,1.5,2,2.5,3,3.5,4"],
                         ids=["k6", "k8"])
def test_growth_of_many_poisson_arms_is_the_closed_form(capsys, means):
    code, out, err = run(capsys, "growth", "--model", "ksample-poisson", "--alt-means", means)
    assert (code, err) == (0, "")
    arms = np.array([float(m) for m in means.split(",")])
    want = float(np.sum(arms * np.log(arms / arms.mean())))
    assert json.loads(out)["growth_rate"] == pytest.approx(want, rel=1e-12)


# c = 1 / (2 s2) = 5e299 made c^2 m^2 overflow in the inverse mean map, so the
# alternative law had variance 0 and the growth printed "inf" after a warning;
# it is KL(N(3, 1e-300) || N(0, 9)) = (ln 9 + 300 ln 10) / 2
def test_gaussian_scale_growth_at_a_tiny_carrier_variance_is_finite(capsys):
    code, out, err = run(capsys, "growth", "--model", "gaussian-scale", "--carrier-mean=3",
                         "--carrier-var=1e-300")
    assert (code, err) == (0, "")
    assert json.loads(out)["growth_rate"] == pytest.approx(346.48637623777496, rel=1e-12)


@pytest.mark.parametrize("argv", [
    ["--model", "ksample-poisson", "--alt-means", "0.5,1.5", "--mu", "0"],
    ["--model", "ksample-poisson", "--alt-means", "0.5,1.5", "--mu", "-1"],
    ["--model", "ksample-bernoulli", "--alt-means", "0.3,0.5,0.7", "--mu", "3.5"],
    ["--model", "gaussian-scale", "--carrier-mean=-3", "--carrier-var=9", "--mu", "-1"],
    ["--model", "gaussian-location", *COV_NULL, *COV_ALT, "--alt-mean=1,-0.5", "--mu=nan,0"],
], ids=["poisson-zero", "poisson-negative", "bernoulli-above-k", "scale-negative", "location-nan"])
def test_growth_at_a_mean_outside_the_mean_spaces_exits_64(capsys, argv):
    code, out, err = run(capsys, "growth", *argv)
    assert (code, out) == (64, "")
    assert err.startswith("evfam: mean [") and err.endswith("must lie in both mean spaces\n")


# 2 mu^2 underflows there, and the inverse Gaussian density at such a mean is
# NaN; the closed form reads neither, and depends on lam / mu only (mpmath values)
@pytest.mark.parametrize("lam, want", [("2.5", 345.42697078183926), ("1e-300", 0.12305439212766114)],
                         ids=["2.5", "1e-300"])
def test_ig_growth_at_a_mean_whose_square_underflows_is_the_closed_form(capsys, lam, want):
    code, out, err = run(capsys, "growth", "--model", "ig-vs-exp", f"--lam={lam}", "--mu=1e-300")
    assert (code, err) == (0, "")
    assert json.loads(out)["growth_rate"] == pytest.approx(want, rel=0.0, abs=1e-9)


# E_q[1 / X] diverges under a gamma law of shape 1, and the second arms sum
# overflows: both growths are +inf, printed as the string "inf" that JSON allows
@pytest.mark.parametrize("argv", [
    ["--model", "tweedie-pair", "--null-a", "1", "--null-power", "3", "--alt-a", "1", "--alt-power", "2"],
    ["--model", "ksample-gaussian", "--alt-means=1e300,1"],
], ids=["gamma-vs-inverse-gaussian", "ksample-gaussian-overflow"])
def test_an_infinite_growth_prints_the_string_inf(capsys, argv):
    code, out, err = run(capsys, "growth", *argv)
    assert (code, err) == (0, "")
    assert json.loads(out, parse_constant=pytest.fail)["growth_rate"] == "inf"


# a gamma law against a Poisson one: the quadrature summed or integrated the
# wrong density and printed -0.0868 and 0.965
@pytest.mark.parametrize("null_power, alt_power, alt, null", [("2", "1", "poisson", "gamma"),
                                                              ("1", "2", "gamma", "poisson")])
def test_growth_between_laws_on_different_sample_spaces_exits_64(capsys, null_power, alt_power,
                                                                 alt, null):
    code, out, err = run(capsys, "growth", "--model", "tweedie-pair", "--null-a", "1",
                         "--null-power", null_power, "--alt-a", "1", "--alt-power", alt_power)
    assert (code, out) == (64, "")
    assert err == (f"evfam: growth rate: no divergence between a {alt} alternative law and "
                   f"a {null} null law (different sample spaces)\n")


# NaN and inf passed the builders' `x <= 0` checks: the first two exited 0 with
# non-JSON growth values, the third raised OverflowError in the abm potentials
@pytest.mark.parametrize("argv, message", [
    (["growth", "--model", "ig-vs-exp", "--lam=nan", "--mu=1"],
     "inverse-Gaussian-vs-exponential needs a finite lam > 0, got lam=nan"),
    (["growth", "--model", "negbinom-vs-poisson", "--successes=inf", "--mu=0.5"],
     "negative binomial family needs a finite successes > 0, got successes=inf"),
    (["check", "--model", "abm-vs-poisson", "--s=1e300", "--r=50", "--mu=1e300"],
     "abm family: s ** r overflows the float range for s=1e+300, r=50"),
    (["check", "--model", "tweedie-pair", "--null-a", "1", "--null-power", "nan", "--alt-a", "0.5",
      "--alt-power", "1.5"], "tweedie family needs a finite power, got power=nan"),
    (["check", "--model", "tweedie-pair", "--null-a", "1", "--null-power", "inf", "--alt-a", "0.5",
      "--alt-power", "1.5"], "tweedie family needs a finite power, got power=inf"),
], ids=["ig-lam-nan", "negbinom-successes-inf", "abm-overflow", "tweedie-power-nan",
        "tweedie-power-inf"])
def test_a_model_parameter_out_of_range_exits_64_naming_it(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (64, "", f"evfam: {message}\n")


# these reached the arithmetic first: an inf arm warned "invalid value
# encountered in subtract" (gaussian) or "in divide" (poisson) before an error
# about the sum; the tiny negbinom warned twice and ended in "bad configuration:
# Out of range float values are not JSON compliant"
NON_FINITE_ARMS = [
    pytest.param(["check", "--model", f"ksample-{kind}", f"--alt-means={means}"],
                 f"{kind} arm {arm} has mean {value}; arm means must be finite",
                 id=f"ksample-{kind}-{value}")
    for kind in ("gaussian", "poisson", "bernoulli")
    for means, arm, value in (("inf,1,0.5", 1, "inf"), ("0.2,0.5,nan", 3, "nan"),
                              ("0.2,-inf,0.5", 2, "-inf"))
]


@pytest.mark.parametrize("argv, message", [
    *NON_FINITE_ARMS,
    pytest.param(["growth", "--model", "negbinom-vs-poisson", "--successes=1e-300", "--mu=2"],
                 "growth rate: the lattice sum between a poisson alternative law and a negbinom "
                 "null law is NaN", id="negbinom-growth-tiny-successes"),
])
def test_a_value_past_the_float_range_exits_64_without_a_runtime_warning(capsys, argv, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv)
    assert (code, out, err) == (64, "", f"evfam: {message}\n")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# V(m) = m (1 + m/10)^5 is a valid model, but Phi's terms cancel: at the grid's
# top mean 1e4 the computed Phi is +1.5e-15, past its supremum 0 (the true
# value is -2.0e-16), and the battery refuses that canonical point
@pytest.mark.xfail(strict=True, reason="known defect, ROADMAP item 9 (abm Phi cancels at large "
                                       "means): exits 64 at the domain boundary")
def test_abm_with_a_high_power_gives_a_verdict(capsys):
    code, out, err = run(capsys, "check", "--model", "abm-vs-poisson", "--s", "10", "--r", "5",
                         "--mu", "1")
    assert code in (0, 2, 3), err
    assert json.loads(out)["model"] == "abm-vs-poisson"


def test_a_tiny_bernoulli_arm_is_certified_without_a_runtime_warning(capsys):
    # by Cauchy-Schwarz V_q <= V_p for any arms; the arm at 1e-300 takes the
    # alternative's cumulant past e^beta's float range, where it must still be
    # finite, not an infinite log-partition that refutes
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "check", "--model", "ksample-bernoulli",
                             "--alt-means=1e-300,0.5,0.7")
    assert (code, err) == (0, "")
    assert json.loads(out)["overall"] == "simple-evariable-certified"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# power 1 with a != 1 is the scaled Poisson family V(m) = a m, which no other
# test reaches: V_p = 2m >= V_q = m certifies, and the swapped pairing refutes
@pytest.mark.parametrize("null_a, alt_a, code, overall", [
    ("2", "1", 0, "simple-evariable-certified"),
    ("1", "2", 2, "refuted"),
], ids=["certified", "swapped-refuted"])
def test_tweedie_power_one_with_a_scale_gives_its_verdict(capsys, null_a, alt_a, code, overall):
    got, out, err = run(capsys, "check", "--model", "tweedie-pair", "--null-a", null_a,
                        "--null-power", "1", "--alt-a", alt_a, "--alt-power", "1", "--mu", "1.5")
    assert (got, err) == (code, "")
    assert json.loads(out)["overall"] == overall


def test_growth_reports_json(capsys):
    code, out, _ = run(capsys, "growth", "--model", "ksample-poisson",
                       "--alt-means", "0.5,1.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["growth_rate"] == pytest.approx(0.26162407188227393, abs=1e-9)
    assert payload["mu"] == [2.0]


def test_sequential_writes_paths_and_summary(capsys, tmp_path):
    prefix = tmp_path / "run"
    code, out, _ = run(capsys, "sequential", "--arm-means", "0.375,0.625",
                       "--rounds", "40", "--paths", "12", "--seed", "1",
                       "--tail-window", "10", "--out", str(prefix))
    assert code == 0
    summary = json.loads((tmp_path / "run_summary.json").read_text())
    assert summary == json.loads(out)
    assert summary["report_version"] == 1
    lines = (tmp_path / "run_paths.csv").read_text().splitlines()
    header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header_idx] == "path,final_log_value,crossed,first_crossing"
    assert len(lines) - header_idx - 1 == 12


def test_sequential_validates_arm_means(capsys):
    code = main(["sequential", "--arm-means", "0.3,0.4,0.5", "--out", "/tmp/x"])
    capsys.readouterr()
    assert code == 64


# these ran: alpha 1.5 gave a negative threshold, alpha nan printed NaN, and
# zero paths gave NaN summaries; bad arm means and tail windows exited 65, the
# code for malformed data files; rounds -3 was blamed on the tail window
@pytest.mark.parametrize("flag, value, message", [
    ("--arm-means", "nan,0.4", "arm means (nan, 0.4) must lie strictly inside (0, 1)"),
    ("--tail-window", "0", "tail window 0 must lie in 1..5, the rounds"),
    ("--rounds", "-3", "rounds -3 must be at least 1"),
    ("--alpha", "1.5", "alpha 1.5 must lie strictly inside (0, 1)"),
    ("--alpha", "nan", "alpha nan must lie strictly inside (0, 1)"),
    ("--paths", "0", "n_paths 0 must be at least 1"),
    ("--prior", "1,nan,1,1", "Beta prior (1.0, nan, 1.0, 1.0) must be four finite values > 0"),
])
def test_sequential_out_of_range_settings_exit_64(capsys, tmp_path, flag, value, message):
    code, out, err = run(capsys, "sequential", "--arm-means", "0.375,0.625", "--rounds", "5",
                         "--tail-window", "2", f"{flag}={value}", "--out", str(tmp_path / "run"))
    assert (code, out, err) == (64, "", f"evfam: {message}\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_sequential_seed_outside_a_philox_key_word_exits_64(capsys, tmp_path, seed):
    code, out, err = run(capsys, "sequential", "--arm-means", "0.375,0.625", "--rounds", "5",
                         "--paths", "2", "--tail-window", "2", "--seed", seed,
                         "--out", str(tmp_path / "run"))
    assert (code, out) == (64, "")
    assert err == f"evfam: seed {seed} must lie in 0..2**64-1, the range of a Philox key word\n"


def test_check_negative_seed_exits_64_naming_the_seed(capsys):
    code, out, err = run(capsys, "check", *NB_ARGS, "--seed", "-1")
    assert (code, out) == (64, "")
    assert err == "evfam: seed -1 must be a non-negative integer\n"


def test_check_into_a_closed_pipe_exits_141_without_a_traceback():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    proc = subprocess.Popen([sys.executable, "-m", "evfam.cli", "check", *NB_ARGS],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # the reader quits before the report is written
    with proc.stderr:
        err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 141
    assert "Traceback" not in err


def test_evalue_data_that_is_not_utf8_exits_65_with_the_byte_offset(capsys, tmp_path):
    data = tmp_path / "latin1.csv"
    # past the text reader's first decode chunk, so its own offset would be wrong
    data.write_bytes(b"value\n" + b"1\n" * 10_000 + b"caf\xe9\n")
    code, out, err = run(capsys, "evalue", *NB_ARGS, "--force", "--data", str(data))
    assert (code, out) == (65, "")
    assert err == f"evfam: data error: {data}: not UTF-8 text: byte 0xe9 at byte offset 20009\n"


def _evalue_from_pipe(capsys, payload: bytes):
    """``evalue`` on the read end of a pipe that holds ``payload``, as a shell's <(...) gives."""
    read_fd, write_fd = os.pipe()
    os.write(write_fd, payload)
    os.close(write_fd)
    try:
        return run(capsys, "evalue", *NB_ARGS, "--force", "--data", f"/dev/fd/{read_fd}")
    finally:
        os.close(read_fd)


def test_evalue_reads_every_row_of_a_piped_data_file(capsys, tmp_path):
    # a pipe can be read only once, so the header scan must not drain it before np.loadtxt
    text = "count\n0\n3\n1\n"
    code, out, err = _evalue_from_pipe(capsys, text.encode())
    assert (code, err) == (0, "")
    assert "# rows=3\n" in out
    data = tmp_path / "counts.csv"
    data.write_text(text)
    assert run(capsys, "evalue", *NB_ARGS, "--force", "--data", str(data)) == (0, out, "")


def test_evalue_piped_data_that_is_not_utf8_exits_65_with_the_byte_offset(capsys):
    code, out, err = _evalue_from_pipe(capsys, b"count\n0\ncaf\xe9\n")
    assert (code, out) == (65, "")
    assert re.fullmatch(r"evfam: data error: /dev/fd/\d+: not UTF-8 text: byte 0xe9 "
                        r"at byte offset 11\n", err)


def test_figure_command_round_trips(capsys, tmp_path):
    out_path = tmp_path / "fig2.csv"
    code, out, _ = run(capsys, "figure", "--id", "fig2", "--out", str(out_path))
    assert code == 0 and "wrote" in out
    text = out_path.read_text()
    assert "figure,series,x,y,flag" in text
    assert "anchor" in text


def test_linmodel_check_via_design_file(capsys, tmp_path):
    rng = np.random.default_rng(0)
    design = tmp_path / "design.csv"
    rows = "\n".join(",".join(f"{v:.6f}" for v in row)
                     for row in rng.normal(size=(8, 2)))
    design.write_text(rows + "\n")
    code, out, _ = run(capsys, "check", "--model", "linmodel",
                       "--design", str(design), "--sigma2", "1.0",
                       "--gamma", "0.5,-0.3", "--grid-points", "8", "--pairs", "16")
    assert code == 0
    assert json.loads(out)["overall"] == "simple-evariable-certified"


# ---------------------------------------------------------------------------
# README's usage commands, run as written

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands() -> list[tuple[list[str], str]]:
    """README's ``evfam`` and ``printf`` commands (continuations joined), each with its next line."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [(shlex.split(line), lines[i + 1] if i + 1 < len(lines) else "")
            for i, line in enumerate(lines) if line.startswith(("evfam ", "printf "))]


def test_readme_usage_commands_run_as_documented(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert [argv[0] if argv[0] == "printf" else argv[1] for argv, _ in commands] == [
        "check", "printf", "evalue", "growth", "sequential", "figure"]
    for argv, next_line in commands:
        if argv[0] == "printf":  # printf FORMAT > FILE
            assert argv[2] == ">"
            Path(argv[3]).write_text(argv[1].encode().decode("unicode_escape"))
            continue
        assert argv[0] == "evfam"
        code, out, err = run(capsys, *argv[1:])
        assert code == 0, (argv, err)
        if argv[1] == "check":
            assert json.loads(out)["overall"] == "simple-evariable-certified"
        if argv[1] == "growth":
            shown = re.match(r'# \{"growth_rate": ([0-9.]+)\.\.\.', next_line).group(1)
            assert str(json.loads(out)["growth_rate"]).startswith(shown)
    assert (tmp_path / "rows.csv").exists() and (tmp_path / "seq_summary.json").exists()
    assert (tmp_path / "fig1.csv").exists()
