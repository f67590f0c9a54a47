"""Command-line interface: exit codes, outputs, determinism."""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from evfam import cli
from evfam.cli import (_MODELS, _anchor_mean, _build_parser, _distinct_rows, _read_numeric_csv,
                       _write_rows, build_pairing, main)
from evfam.conditions import simple_log_evalue
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


def _write_design(tmp_path, shape) -> Path:
    """A design CSV of standard normal entries drawn from seed 0."""
    design = tmp_path / "design.csv"
    rows = np.random.default_rng(0).normal(size=shape)
    design.write_text("\n".join(",".join(f"{v:.6f}" for v in row) for row in rows) + "\n")
    return design


def _model_argv(tmp_path, key, drop=None):
    flags, _, _ = MODEL_CASES[key]
    design = _write_design(tmp_path, (8, 2)) if DESIGN in flags.values() else None
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
def test_every_family_takes_its_dimension_from_its_mean_domain(tmp_path, key):
    pairing = build_pairing(_build_parser().parse_args(["check", *_model_argv(tmp_path, key)]))
    rows = np.array([[float(v) for v in line.split(",")] for line in MODEL_CASES[key][1].splitlines()])
    for fam in (pairing.null, pairing.tilted.family):
        stats = fam.suff_stat(rows[:, 0] if fam.element_ndim == 0 else rows)
        assert fam.dim == fam.mean_domain.dim == stats.shape[1] == pairing.tilted.mu_star.size
        with pytest.raises(TypeError, match="dim"):
            dataclasses.replace(fam, dim=2)


@pytest.mark.parametrize("key", sorted(MODEL_CASES))
def test_every_required_flag_is_enforced(capsys, tmp_path, key):
    for flag in _MODELS[key][1]:
        code, out, err = run(capsys, "check", *_model_argv(tmp_path, key, drop=flag))
        assert (code, out) == (64, ""), flag
        assert err == f"evfam: bad configuration: model {key!r} needs {flag}\n"


# a flag of another model was accepted and ignored (a --design file was not
# even read); each is refused by name before the pairing is built
@pytest.mark.parametrize("key", sorted(MODEL_CASES))
def test_a_flag_of_another_model_exits_64_naming_it(capsys, tmp_path, key):
    _, required, optional, _ = _MODELS[key]
    foreign = {flag: value for flags, _, _ in MODEL_CASES.values() for flag, value in flags.items()
               if flag not in (*required, *optional)}
    assert foreign
    for flag, value in foreign.items():
        code, out, err = run(capsys, "check", *_model_argv(tmp_path, key), f"{flag}={value}")
        assert (code, out, err) == (
            64, "", f"evfam: bad configuration: model {key!r} does not take {flag}\n"), flag


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
      "--alt-mean=1,-0.5,0"], "evfam: gaussian-location cov_null has dimension 2; "
                              "cov_alt has dimension 3\n"),
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


# --sigma2 on a model without a variance was accepted and ignored
def test_sigma2_is_reported_only_where_it_is_used(capsys):
    poisson = ["check", "--model", "ksample-poisson", "--alt-means", "0.5,1,1.5"]
    _, plain, _ = run(capsys, *poisson)
    assert "sigma2" not in json.loads(plain)["params"]
    assert run(capsys, *poisson, "--sigma2", "3") == (
        64, "", "evfam: bad configuration: model 'ksample-poisson' does not take --sigma2\n")
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


# evalue reads and checks its data before the battery: a missing file, or one of
# the wrong width, exits 65 without a battery run, even where the battery would refuse
@pytest.mark.parametrize("argv, content, message", [
    (["--model", "negbinom-vs-poisson", "--successes", "4", "--mu", "2"], None,
     "cannot read {path}: [Errno 2] No such file or directory: '{path}'"),
    (["--model", "ig-vs-exp", "--lam", "2", "--mu", "1.5"], "1,2\n",
     "model ig-vs-exp expects one column, got 2"),
], ids=["missing-file", "refuted-model-wrong-width"])
def test_evalue_checks_its_data_before_the_battery(capsys, monkeypatch, tmp_path, argv, content,
                                                    message):
    monkeypatch.setattr(cli, "run_condition_battery", lambda *a, **k: pytest.fail("battery ran"))
    data = tmp_path / "obs.csv"
    if content is not None:
        data.write_text(content)
    code, out, err = run(capsys, "evalue", *argv, "--data", str(data))
    assert (code, out, err) == (65, "", f"evfam: data error: {message.format(path=data)}\n")


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
    # a row outside the laws' support was given a NaN or a meaningless e-value, with exit 0
    (NB_ARGS, "0\n-1\n0.5\n3\n", "row 1 holds -1.0, outside the support of the negbinom law "
     "(non-negative integer counts)"),
    (NB_ARGS, "0\n0.5\n", "row 1 holds 0.5, outside the support of the negbinom law "
     "(non-negative integer counts)"),
    (["--model", "ig-vs-exp", "--lam", "2", "--mu", "0.8"], "1\n-1\n",
     "row 1 holds -1.0, outside the support of the gamma law (finite positive reals)"),
    (["--model", "ksample-bernoulli", "--alt-means", "0.3,0.5,0.7"], "1,0,1\n1,0,2\n",
     "row 1 holds 2.0, outside the support of the bernoulli law (0 or 1)"),
], ids=["vector-model-one-column", "scalar-model-two-columns", "negative-count",
        "fractional-count", "negative-ig-row", "bernoulli-arm-of-2"])
def test_evalue_checks_the_column_count(capsys, tmp_path, argv, content, message):
    data = tmp_path / "data.csv"
    data.write_text(content)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "evalue", *argv, "--force", "--data", str(data))
    assert (code, out) == (65, "")
    assert err == f"evfam: data error: {message}\n"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


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


def test_ig_evalue_at_a_tiny_mean_is_finite(capsys, tmp_path):
    # the square of a mean below about 1e-154 underflows; the values are mpmath's
    rows = _evalue_rows(capsys, tmp_path, ["--model", "ig-vs-exp", "--lam", "2.5", "--mu", "1e-300"],
                        "1e-300\n2e-300\n")
    assert float(rows[0][2]) == pytest.approx(345.92697078183926, rel=1e-14)
    assert float(rows[1][2]) == pytest.approx(-6.25e299, rel=1e-14)


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


def _cell_table(values, logs):
    """The distinct (value, log) bit pairs of the rows, and each row's index among them."""
    pairs = np.stack([values, logs], axis=1).view(np.int64)
    distinct, inverse = np.unique(pairs, axis=0, return_inverse=True)
    distinct = distinct.view(float)
    return distinct[:, 0].copy(), distinct[:, 1].copy(), inverse.ravel()


# each case is written row by row and through a table of its distinct cells,
# in blocks of the module's size and of 7 rows (which splits every case)
@pytest.mark.parametrize("logs, values", [
    (np.array([]), np.array([])),
    (SPECIAL_LOGS, SPECIAL_LOGS[::-1].copy()),
    (REPEATED_LOGS, np.exp(REPEATED_LOGS)),
    (REPEATED_LOGS, np.arange(REPEATED_LOGS.size, dtype=float)),
], ids=["no-rows", "special-values", "repeated-values", "repeated-logs-distinct-values"])
def test_evalue_rows_format_as_one_row_at_a_time(monkeypatch, logs, values):
    want = "".join("%d,%.17g,%.17g\n" % row
                   for row in zip(range(logs.size), values.tolist(), logs.tolist()))
    for block in (cli.BLOCK_ROWS, 7):
        monkeypatch.setattr(cli, "BLOCK_ROWS", block)
        for table in ((values, logs, None), _cell_table(values, logs)):
            writes: list[str] = []
            _write_rows(writes.append, *table)
            assert "".join(writes) == want
            assert all(0 < chunk.count("\n") <= block for chunk in writes)


@pytest.mark.parametrize("batch, distinct", [
    (np.array([0.0, -0.0, 0.0, -0.0, 0.0]), [[0.0], [-0.0]]),
    (np.array([[0.0, -0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, 0.0]]), [[0.0, -0.0], [-0.0, 0.0]]),
    (np.array([[1.0, 2.0], [2.0, 1.0], [1.0, 2.0], [1.0, 2.0]]), [[1.0, 2.0], [2.0, 1.0]]),
], ids=["signed-zeros", "signed-zeros-in-columns", "columns-in-another-order"])
def test_distinct_rows_are_keyed_by_their_bits(batch, distinct):
    rows, inverse = _distinct_rows(batch)
    assert rows[inverse].tobytes() == batch.tobytes()
    got = sorted(rows.reshape(len(rows), -1).view(np.int64).tolist())
    assert got == sorted(np.array(distinct).view(np.int64).tolist())


# every row is evaluated when more than half the rows are distinct (seen in the
# rows, or in their elements: m elements need m / k rows), or when k codes pass
# an int64 (2000^8 > 2^63)
@pytest.mark.parametrize("batch", [
    np.array([1.0, 2.0, 1.0]),
    np.array([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0]]),
    np.tile(np.arange(2000.0).reshape(250, 8), (4, 1)),
], ids=["mostly-distinct", "mostly-distinct-elements", "codes-past-int64"])
def test_distinct_rows_decline(batch):
    assert _distinct_rows(batch) is None


def _evalue_body(args, data):
    """The evalue rows and product line, formatted one row at a time from the full batch."""
    pairing = build_pairing(args)
    mu = _anchor_mean(args, pairing)
    logs = np.atleast_1d(simple_log_evalue(pairing.tilted, pairing.null, mu,
                                           data[:, 0] if pairing.null.element_ndim == 0 else data))
    with np.errstate(over="ignore"):
        lines = ["%d,%.17g,%.17g" % (i, np.exp(v), v) for i, v in enumerate(logs.tolist())]
        lines.append("product,%.17g,%.17g" % (np.exp(logs.sum()), logs.sum()))
    return lines


# the smoke rows, and zeros of both signs where the model takes them, three
# times over: the distinct rows are evaluated once, and every byte is the same
@pytest.mark.parametrize("key", sorted(key for key, case in MODEL_CASES.items() if case[2][1] == 0))
def test_evalue_on_repeated_rows_writes_what_one_row_at_a_time_does(monkeypatch, capsys,
                                                                    tmp_path, key):
    rows = MODEL_CASES[key][1]
    if key in ("ksample-gaussian", "gaussian-location", "gaussian-scale"):
        width = len(rows.splitlines()[0].split(","))
        rows += ",".join(["0.0"] * width) + "\n" + ",".join(["-0.0"] * width) + "\n"
    data = tmp_path / "data.csv"
    data.write_text(rows * 3)
    argv = ["evalue", *_model_argv(tmp_path, key), "--force", "--data", str(data)]
    sizes = []

    def spy(tilted, null, mu, u):
        sizes.append(len(u))
        return simple_log_evalue(tilted, null, mu, u)

    monkeypatch.setattr(cli, "simple_log_evalue", spy)
    code, out, err = run(capsys, *argv)
    assert (code, err, sizes) == (0, "", [len(rows.splitlines())])
    want = _evalue_body(_build_parser().parse_args(argv), _read_numeric_csv(data))
    assert out.splitlines()[4:] == want


# the distinct rows sort -1 first, yet the message names the file's first bad row
@pytest.mark.parametrize("copies", [1, 2], ids=["each-row-evaluated", "distinct-rows-evaluated"])
def test_evalue_support_error_names_the_first_bad_row_of_the_file(capsys, tmp_path, copies):
    data = tmp_path / "data.csv"
    data.write_text("5\n-1\n0.5\n-1\n" * copies)
    code, out, err = run(capsys, "evalue", *NB_ARGS, "--force", "--data", str(data))
    assert (code, out) == (65, "")
    assert err.startswith("evfam: data error: row 1 holds -1.0, outside the support")


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
    (["check", "--model", "ksample-poisson", "--alt-means", "0.5,abc"],
     "bad configuration: expected a comma-separated number list, got '0.5,abc'"),
    (["check", "--model", "gaussian-location", "--cov-null", "1,0;0", "--cov-alt", "1",
      "--alt-mean", "1"], "bad configuration: matrix rows have unequal lengths in '1,0;0'"),
    (["check", "--model", "ksample-poisson", "--alt-means", "0.5"],
     "k-sample families need k >= 2"),
], ids=["ig-lam-nan", "negbinom-successes-inf", "abm-overflow", "tweedie-power-nan",
        "tweedie-power-inf", "alt-means-not-numeric", "cov-null-ragged", "one-arm"])
def test_a_model_parameter_out_of_range_exits_64_naming_it(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (64, "", f"evfam: {message}\n")


# these reached the arithmetic first: an inf arm warned "invalid value
# encountered in subtract" (gaussian) or "in divide" (poisson) before an error
# about the sum; the tiny negbinom warned twice and ended in "bad configuration:
# Out of range float values are not JSON compliant"; the inverse Gaussian's
# Phi = -lam / (2 m^2) divided by zero and the check was refuted (exit 2); the
# tweedie power overflowed m ** (1 - power) before an error about the boundary
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
    pytest.param(["check", "--model", "ig-vs-exp", "--lam", "2.5", "--mu", "1e-300"],
                 "invgauss(lam=2.5): canonical point beyond float range at mean 1e-300",
                 id="ig-tiny-mu"),
    pytest.param(["check", "--model", "tweedie-pair", "--null-a", "1", "--null-power", "1e300",
                  "--alt-a", "0.5", "--alt-power", "1.5"],
                 "tweedie family needs a power <= 64, got power=1e+300", id="tweedie-huge-power"),
    # on a 5 x 3 design, each of these overflows the alternative's mean or
    # covariance, or its variance does not come back from its mean
    *[pytest.param(["check", "--model", "linmodel", "--design", DESIGN, f"--gamma={gamma}",
                    "--sigma2", sigma2], message, id=f"linmodel-{ident}")
      for gamma, sigma2, message, ident in (
          ("1e300,0,0", "1", "linmodel alternative sigma2=1.0, gamma=[1e+300, 0.0, 0.0] lies past "
           "the float range", "huge-gamma"),
          ("1,1,1", "1e300", "linmodel alternative sigma2=1e+300, gamma=[1.0, 1.0, 1.0] lies past "
           "the float range", "huge-sigma2"),
          ("nan,0,0", "1", "linmodel alternative sigma2=1.0, gamma=[nan, 0.0, 0.0] lies past the "
           "float range", "nan-gamma"),
          ("1,1,1", "1e-300", "mean [3.72759372 1.14285714 1.14285714] of the theta=1e+300 linear "
           "model lies past the float range: its variance does not round to a finite positive "
           "float", "tiny-sigma2"),
          # gamma_0 / sigma2 itself overflows to theta = inf
          ("1,1,1", "1e-320", "mean [ 3.72759372 -1.14285714 -1.14285714] of the theta=inf linear "
           "model lies past the float range: its variance does not round to a finite positive "
           "float", "denormal-sigma2"),
          ("1e150,1,1", "1", "mean [8.73428750e+300 2.45959458e+150 2.04526817e+150] of the "
           "theta=1e+150 linear model lies past the float range: its variance does not round to a "
           "finite positive float", "large-gamma"))],
])
def test_a_value_past_the_float_range_exits_64_without_a_runtime_warning(capsys, tmp_path, argv,
                                                                         message):
    if DESIGN in argv:
        argv = [str(_write_design(tmp_path, (5, 3))) if arg == DESIGN else arg for arg in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv)
    assert (code, out, err) == (64, "", f"evfam: {message}\n")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# numpy's "cannot reshape array of size 2 into shape (3,)" reached the user
# (a 5 x 3 design), as did "... of size 1 into shape (2,)"; gaussian-location
# named internal shapes ("parameter shape (3,), expected (2,)") or, for
# covariances of two dimensions, the carrier mean
@pytest.mark.parametrize("argv, message", [
    (["--model", "linmodel", "--design", DESIGN, "--gamma=1,1"],
     "linmodel gamma has length 2; the design has 3 columns"),
    (["--model", "gaussian-location-constrained", "--cov", "1,0.4;0.4,2", "--constrained", "1",
      "--alt-mean", "1"],
     "gaussian-location-constrained alt_mean has length 1; the covariance has dimension 2"),
    (["--model", "gaussian-location", "--cov-null", "1,0;0,1", "--cov-alt", "0.5,0;0,0.5",
      "--alt-mean", "0,0,0"],
     "gaussian-location alt_mean has length 3; the covariances have dimension 2"),
    (["--model", "gaussian-location", "--cov-null", "1,0;0,1", "--cov-alt", "1", "--alt-mean", "0"],
     "gaussian-location cov_null has dimension 2; cov_alt has dimension 1"),
], ids=["linmodel-gamma", "constrained-alt-mean", "location-alt-mean", "location-covariances"])
def test_a_vector_of_the_wrong_length_exits_64_naming_both_lengths(capsys, tmp_path, argv,
                                                                   message):
    argv = [str(_write_design(tmp_path, (5, 3))) if arg == DESIGN else arg for arg in argv]
    assert run(capsys, "check", *argv) == (64, "", f"evfam: {message}\n")


# the anchor mean's length was refused as "parameter shape (2,), expected (3,)"
@pytest.mark.parametrize("command", ["evalue", "growth"])
@pytest.mark.parametrize("argv, message", [
    (["--model", "linmodel", "--design", DESIGN, "--gamma=1,1,1", "--mu", "1,2"],
     "--mu has length 2; the linmodel mean has dimension 3"),
    (["--model", "gaussian-location-constrained", "--cov", "1,0.4;0.4,2", "--constrained", "1",
      "--alt-mean", "0.9,1", "--mu", "1,2,3"],
     "--mu has length 3; the gaussian-location-constrained mean has dimension 1"),
], ids=["linmodel", "constrained"])
def test_an_anchor_mean_of_the_wrong_length_exits_64_naming_mu(capsys, tmp_path, command, argv,
                                                               message):
    argv = [str(_write_design(tmp_path, (5, 3))) if arg == DESIGN else arg for arg in argv]
    if command == "evalue":
        data = tmp_path / "data.csv"
        data.write_text("0.1,0.2\n")
        argv += ["--force", "--data", str(data)]
    assert run(capsys, command, *argv) == (64, "", f"evfam: bad configuration: {message}\n")


# NaN passed the `sigma2 <= 0` test of LinearModelParams and was refused as "past
# the float range"; -1 and 0 were refused without their value
@pytest.mark.parametrize("sigma2", ["nan", "-1", "0", "-inf"])
def test_linmodel_sigma2_that_is_not_positive_exits_64_naming_it(capsys, tmp_path, sigma2):
    design = _write_design(tmp_path, (5, 3))
    code, out, err = run(capsys, "check", "--model", "linmodel", "--design", str(design),
                         "--gamma=1,1,1", f"--sigma2={sigma2}")
    assert (code, out, err) == (
        64, "", f"evfam: linmodel needs a finite sigma2 > 0, got sigma2={float(sigma2)!r}\n")


# beta' cov beta overflowed in util.rowdot's matmul, which warned twice before the
# honest inf gave the same certificate
@pytest.mark.parametrize("argv", [
    ["--model", "gaussian-location", "--cov-null", "1,0;0,1", "--cov-alt", "0.5,0;0,0.5",
     "--alt-mean", "1e308,0"],
    ["--model", "gaussian-location-constrained", "--cov", "1,0.4;0.4,2", "--constrained", "1",
     "--alt-mean", "1e308,1"],
], ids=["gaussian-location", "constrained"])
def test_gaussian_location_at_a_huge_mean_certifies_without_a_runtime_warning(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "check", *argv)
    assert (code, err, json.loads(out)["overall"]) == (0, "", "simple-evariable-certified")


# these printed "invalid value encountered in subtract" (an inf covariance less
# an inf) or "in divide" (inf / inf) and then exited 2, refuted on a NaN margin;
# here a * m^1.5 itself overflows at the named mean
@pytest.mark.parametrize("argv, message", [
    (["--model", "tweedie-pair", "--null-a", "1e308", "--null-power", "1.5", "--alt-a", "0.5",
      "--alt-power", "1.5"], "tweedie(a=1e+308,power=1.5) against tweedie(a=0.5,power=1.5) is NaN "
                             "at grid mean [1.5505157798326221]"),
], ids=["tweedie-a-1e308"])
def test_a_nan_covariance_margin_exits_64_naming_the_mean(capsys, argv, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "check", *argv)
    assert (code, out, err) == (64, "", f"evfam: covariance ordering of {message}\n")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# these exited 64 on a NaN covariance margin: the symmetrized covariance summed
# cov + cov' past the float range before halving it, though each entry is finite
@pytest.mark.parametrize("argv", [
    ["--model", "ksample-poisson", "--alt-means", "0.5,1e308"],
    ["--model", "ksample-gaussian", "--alt-means", "0.2,1,1.8", "--sigma2", "5e307"],
], ids=["ksample-poisson-1e308", "ksample-gaussian-sigma2-5e307"])
def test_a_covariance_near_the_float_range_is_certified_without_a_runtime_warning(capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "check", *argv)
    assert (code, err, json.loads(out)["overall"]) == (0, "", "simple-evariable-certified")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# these warned ("invalid value encountered in multiply" in the Gaussian arm
# family's inverse potential; divide by zero, invalid multiply and overflow in
# the gaussian-scale root maps) before their exit 64: each model's float range
# is now refused by name before any arithmetic; a gaussian-scale mean past the
# inverse mean map's range is past the null variance's too, and named by it
@pytest.mark.parametrize("argv, message", [
    (["--model", "ksample-gaussian", "--alt-means", "0.2,1,1.8", "--sigma2", "1e308"],
     "gaussian k-sample: k * sigma2 overflows the float range for k=3, sigma2=1e+308"),
    (["--model", "gaussian-scale", "--carrier-mean=-3", "--carrier-var", "1e308"],
     "gaussian scale pairing: the null variance at the mean of u^2, 2 (s2 + m^2)^2, overflows "
     "for m=-3.0, s2=1e+308"),
    (["--model", "gaussian-scale", "--carrier-mean=-3", "--carrier-var", "1e160"],
     "gaussian scale pairing: the null variance at the mean of u^2, 2 (s2 + m^2)^2, overflows "
     "for m=-3.0, s2=1e+160"),
], ids=["ksample-gaussian-sigma2", "gaussian-scale-var", "gaussian-scale-null-variance"])
def test_a_model_past_its_float_range_exits_64_before_any_warning(capsys, argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "check", *argv)
    assert (code, out, err) == (64, "", f"evfam: {message}\n")


# the null variance 2 (s2 + m^2)^2 is refused past sqrt(max / 2), about 9.48e153;
# below it, at 1e150, the pairing is certified, as it is in truth
def test_gaussian_scale_below_its_null_variance_limit_is_certified(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "check", "--model", "gaussian-scale", "--carrier-mean=-3",
                             "--carrier-var", "1e150")
    assert (code, err, json.loads(out)["overall"]) == (0, "", "simple-evariable-certified")


# the alternative's variance m^3 / lam overflows at lam = 1e-300, and the pairing
# and KL products overflow at lam >= 1e299: each overflow is an honest inf, and
# the verdict is the refutation the swept lams in between give, without a warning
@pytest.mark.parametrize("lam", ["1e-300", "1e299", "1e300"])
def test_ig_vs_exp_at_an_extreme_lam_refutes_without_a_runtime_warning(capsys, lam):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "check", "--model", "ig-vs-exp", "--lam", lam, "--mu", "1")
    assert (code, err, json.loads(out)["overall"]) == (2, "", "refuted")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# a 10-column design's 513 grid means need 513 * 3^10 = 30.3 M canonical probes
# (2.4 GB a copy); the battery refuses them by name before making any
def test_linmodel_past_the_probe_limit_exits_64_before_allocating(capsys, tmp_path):
    design = _write_design(tmp_path, (200, 10))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "check", "--model", "linmodel", "--design", str(design),
                             "--sigma2", "1", "--gamma=" + ",".join(["1"] * 10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (64, "")
    assert err == ("evfam: the log-partition ordering in dimension 10 needs 30292137 canonical "
                   "probes, past 8388608\n")
    assert peak < 200 * 2 ** 20


# V(m) = m (1 + m/10)^5 is a valid model, and its Phi is never positive; but
# near the grid's top mean 1e4 Phi(mu) is about -2e-16, and the KL ordering
# rebuilds it as beta + Phi(mu') with beta = Phi(mu) - Phi(mu'): below half an
# ulp of Phi(mu'), that rounds onto Phi's supremum 0, where the log-partition
# is +inf.  Item 13 drops the orderings that compose the potentials so; item 2
# decides the pairing from V alone
@pytest.mark.xfail(strict=True, reason="known defect, ROADMAP items 13 and 2 (the KL ordering "
                                       "rounds beta + Phi(mu') onto 0): exits 64, "
                                       "log-partition divergent inside the mean image")
def test_abm_with_a_high_power_gives_a_verdict(capsys):
    code, out, err = run(capsys, "check", "--model", "abm-vs-poisson", "--s", "10", "--r", "5",
                         "--mu", "1")
    assert code in (0, 2, 3), err
    assert json.loads(out)["model"] == "abm-vs-poisson"


# V_p(m) = m + m^2/n >= m = V_q(m) at every mean, so the claim holds; but at
# n = 1e300 the computed n log(n + m) cancels once n + m rounds to n, and the
# KL (worst 9900.15) and log-partition (worst 2.5e270) orderings refute it
# while the covariance ordering passes at -5.6e-14
@pytest.mark.xfail(strict=True, reason="known defect, ROADMAP items 9 and 13 (the integrated "
                                       "orderings cancel at a huge negbinom size): exits 2")
def test_negbinom_with_a_huge_size_is_certified(capsys):
    code, out, err = run(capsys, "check", "--model", "negbinom-vs-poisson", "--successes", "1e300",
                         "--mu", "2")
    assert code == 0, err
    assert json.loads(out)["overall"] == "simple-evariable-certified"


GAUSSIAN_SCALE_TINY_VAR = ["check", "--model", "gaussian-scale", "--carrier-mean=3",
                           "--carrier-var=1e-300"]


def test_gaussian_scale_at_a_tiny_variance_keeps_its_covariances_finite(capsys):
    # c^2 m^2 and t^3 overflow at c = 5e299; the alternative's moments were NaN
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *GAUSSIAN_SCALE_TINY_VAR)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert err == ""
    ordering = json.loads(out)["items"]["covariance_ordering"]
    assert ordering["passed"] and ordering["worst_value"] == 1.0


# the variances 2 m^2 >= the alternative's are ordered at every mean, but the
# root cumulant cancels at c = 5e299 into a log-partition gap of 1.26 that refutes
@pytest.mark.xfail(strict=True, reason="known defect, ROADMAP items 2 and 11 (root-cumulant "
                                       "cancellation refutes a pairing ordered everywhere)")
def test_gaussian_scale_at_a_tiny_variance_is_certified(capsys):
    code, out, err = run(capsys, *GAUSSIAN_SCALE_TINY_VAR)
    assert (code, err) == (0, "")
    assert json.loads(out)["overall"] == "simple-evariable-certified"


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


def test_equal_bernoulli_arms_are_certified_without_a_runtime_warning(capsys):
    # the root's bracket then has width 0, and its halving count must not take log2(0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "check", "--model", "ksample-bernoulli", "--alt-means", "0.4,0.4")
    assert (code, err, json.loads(out)["overall"]) == (0, "", "simple-evariable-certified")
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
    ("--prior", "1,1,1", "prior must have four values: a1,b1,a2,b2"),
    ("--arm-means", "0.3,0.4,0.5", "sequential simulation needs exactly two arm means"),
])
def test_sequential_out_of_range_settings_exit_64(capsys, tmp_path, flag, value, message):
    code, out, err = run(capsys, "sequential", "--arm-means", "0.375,0.625", "--rounds", "5",
                         "--tail-window", "2", f"{flag}={value}", "--out", str(tmp_path / "run"))
    assert (code, out, err) == (64, "", f"evfam: {message}\n")
    assert not any(tmp_path.iterdir())


# these ran and exited 0: the first two wrote "mean_log_growth": NaN after a RuntimeWarning
# (0/0 in the ratio), and the third silently plugged in p = 0 for arm 1, whose a + b overflowed
@pytest.mark.parametrize("prior", ["1e308,1e308,1e308,1e308", "5e-324,1e10,5e-324,1e10",
                                   "1e308,1e308,1,1"])
def test_sequential_prior_past_the_float_range_exits_64(capsys, tmp_path, prior):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "sequential", "--arm-means", "0.3,0.6", "--rounds", "20",
                             "--paths", "5", "--tail-window", "5", "--prior", prior,
                             "--out", str(tmp_path / "run"))
    values = repr(tuple(float(v) for v in prior.split(",")))
    assert (code, out) == (64, "")
    assert err == (f"evfam: Beta prior {values} takes a posterior mean to 0 or 1 "
                   "within 20 rounds in float64\n")
    assert not any(tmp_path.iterdir())


def test_sequential_paths_header_writes_the_prior_as_plain_floats(capsys, tmp_path):
    # numpy scalars leaked into the header: "# prior=[np.float64(2.0), ...]"
    code, _, _ = run(capsys, "sequential", "--arm-means", "0.3,0.6", "--rounds", "20",
                     "--paths", "5", "--tail-window", "5", "--prior", "2,1,0.5,0.5",
                     "--out", str(tmp_path / "run"))
    assert code == 0
    lines = (tmp_path / "run_paths.csv").read_text().splitlines()
    assert "# prior=[2.0, 1.0, 0.5, 0.5]" in lines
    assert json.loads((tmp_path / "run_summary.json").read_text())["prior"] == [2.0, 1.0, 0.5, 0.5]


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


# --grid-points 0 ran the default grid, since 0 read as unset; -2 and --pairs -5
# exited with numpy's own messages, and --pairs 0 asked for axis ranges that no
# flag sets
@pytest.mark.parametrize("flag, value, message", [
    ("--grid-points", "0", "points_per_axis 0 must be a positive integer"),
    ("--grid-points", "-2", "points_per_axis -2 must be a positive integer"),
    ("--pairs", "-5", "n_pairs -5 must be a positive integer"),
    ("--pairs", "0", "n_pairs 0 must be a positive integer"),
])
def test_check_grid_sizes_below_one_exit_64_naming_the_field(capsys, flag, value, message):
    code, out, err = run(capsys, "check", "--model", "negbinom-vs-poisson", "--successes", "4",
                         "--mu", "2", f"{flag}={value}")
    assert (code, out, err) == (64, "", f"evfam: {message}\n")


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


def _write_rows_file(path, values) -> Path:
    path.write_text("\n".join(map(repr, values.tolist())) + "\n")
    return path


# 200k negative binomial counts (12 distinct) and 200k distinct gaussian-scale
# rows; the whole output's text was held at once, for a peak of 31.6 and 44.3 MB
@pytest.mark.parametrize("kind", ["counts", "all-distinct"])
def test_evalue_on_200k_rows_peaks_under_12_mb_traced(capsys, tmp_path, kind):
    rng = np.random.default_rng(0)
    if kind == "counts":
        argv, values = NB_ARGS, rng.poisson(2.0, 200_000)
    else:
        argv = ["--model", "gaussian-scale", "--carrier-mean", "-3", "--carrier-var", "9"]
        values = rng.normal(-3.0, 3.0, 200_000)
    data = _write_rows_file(tmp_path / "data.csv", values)
    # a first call loads the modules it needs outside the trace
    warm = _write_rows_file(tmp_path / "warm.csv", values[:4])
    assert run(capsys, "evalue", *argv, "--force", "--data", str(warm))[0] == 0
    out = tmp_path / "out.csv"
    tracemalloc.start()
    try:
        code = main(["evalue", *argv, "--force", "--data", str(data), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 12 * 2 ** 20
    with out.open() as handle:
        assert sum(1 for _ in handle) == 4 + 200_000 + 1


# what `evfam evalue ... | head -n 1` does: read one line, then close the pipe
def test_evalue_into_a_closed_pipe_exits_141_without_a_traceback(tmp_path):
    data = _write_rows_file(tmp_path / "data.csv", np.random.default_rng(0).poisson(2.0, 200_000))
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    proc = subprocess.Popen([sys.executable, "-m", "evfam.cli", "evalue", *NB_ARGS, "--force",
                             "--data", str(data)],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read().decode()
    assert first == b"# model=negbinom-vs-poisson\n"
    assert proc.wait(timeout=120) == 141
    assert "Traceback" not in err


# an output path in a missing directory ended in a FileNotFoundError traceback and exit 1
@pytest.mark.parametrize("argv, path", [
    (["check", *NB_ARGS, "--json", "{missing}/x.json"], "{missing}/x.json"),
    (["evalue", *NB_ARGS, "--force", "--data", "{data}", "--out", "{missing}/x.csv"],
     "{missing}/x.csv"),
    (["sequential", "--arm-means", "0.375,0.625", "--rounds", "4", "--paths", "2",
      "--tail-window", "2", "--out", "{missing}/x"], "{missing}/x_paths.csv"),
    (["figure", "--id", "fig2", "--out", "{missing}/x.csv"], "{missing}/x.csv"),
], ids=["check", "evalue", "sequential", "figure"])
def test_an_output_path_that_cannot_be_opened_exits_64_naming_it(capsys, tmp_path, argv, path):
    data = tmp_path / "data.csv"
    data.write_text("0\n3\n")
    fill = lambda text: text.format(missing=tmp_path / "missing", data=data)
    code, out, err = run(capsys, *map(fill, argv))
    assert (code, out, err) == (64, "", f"evfam: cannot write {fill(path)}: "
                                        "No such file or directory\n")
    assert [p.name for p in tmp_path.iterdir()] == ["data.csv"]


# sequential tries both output paths before it simulates: a path in a missing
# directory, and a summary path that is a directory, which used to be found
# only after every path ran and the paths file was written
@pytest.mark.parametrize("out", ["{missing}/x", "{dir}"], ids=["missing-dir", "a-directory"])
def test_sequential_checks_its_outputs_before_simulating(capsys, monkeypatch, tmp_path, out):
    monkeypatch.setattr(cli, "simulate_two_sample", lambda **kwargs: pytest.fail("simulated"))
    (tmp_path / "d_summary.json").mkdir()
    out = out.format(missing=tmp_path / "missing", dir=tmp_path / "d")
    code, stdout, err = run(capsys, "sequential", "--arm-means", "0.375,0.625", "--paths", "20000",
                            "--out", out)
    assert (code, stdout) == (64, "") and err.startswith("evfam: cannot write ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d_summary.json"]


# a command that fails after the probe leaves no new file and an existing one
# as it was; one that succeeds over an existing file replaces its bytes
def test_output_probes_leave_no_file_and_keep_existing_bytes(capsys, tmp_path):
    report = tmp_path / "report.json"
    failing = ["check", "--model", "abm-vs-poisson", "--s=-1", "--r=2", "--mu=2", "--json", str(report)]
    assert run(capsys, *failing)[0] == 64 and not report.exists()
    report.write_text("x" * 100_000)
    assert run(capsys, *failing)[0] == 64 and report.read_text() == "x" * 100_000
    code, out, _ = run(capsys, "check", *NB_ARGS, "--json", str(report))
    assert code == 0 and report.read_text() == out


def test_check_loads_no_scipy_module_outside_two_models(tmp_path):
    # scipy.special loads where a law density, a divergence or the k-sample
    # Bernoulli logistic map is called, and scipy.linalg with the linear model;
    # the battery of every other catalog model needs neither
    runs = [["check", *_model_argv(tmp_path, key)] for key in sorted(MODEL_CASES)
            if key not in ("ksample-bernoulli", "linmodel")]
    code = ("import contextlib, io, sys; from evfam import cli\n"
            f"for argv in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        cli.main(argv)\n"
            "    print(argv[2], sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"{argv[2]} []" for argv in runs]


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


# each option against what the library writes with the same options
@pytest.mark.parametrize("argv, options", [
    (["--id", "fig2", "--arm-means", "0.2,0.7"], ("fig2", {"arm_means": (0.2, 0.7)})),
    (["--id", "fig3", "--lam", "3", "--mus", "0.8,2"], ("fig3", {"lam": 3.0, "mus": (0.8, 2.0)})),
], ids=["fig2-arm-means", "fig3-lam-mus"])
def test_figure_options_round_trip(capsys, tmp_path, argv, options):
    from evfam.figures import figure_data, write_figure_csv

    got, want = tmp_path / "cli.csv", tmp_path / "library.csv"
    code, out, err = run(capsys, "figure", *argv, "--out", str(got))
    assert (code, err) == (0, "") and out.startswith("wrote ")
    figure_id, kwargs = options
    write_figure_csv(*figure_data(figure_id, **kwargs), want)
    assert got.read_bytes() == want.read_bytes()


# arm means outside (0, 1) exited 65, the code for a malformed data file; one
# arm mean failed to unpack; a negative lam wrote three not-local rows; a zero
# mean was printed as np.float64(0.0)
@pytest.mark.parametrize("argv, message", [
    (["--id", "fig2", "--arm-means", "0,1.5"], "arm means must lie strictly inside (0, 1)"),
    (["--id", "fig2", "--arm-means", "0.3"], "fig2 needs exactly two arm means, got 1"),
    (["--id", "fig3", "--lam", "-1"],
     "inverse-Gaussian-vs-exponential needs a finite lam > 0, got lam=-1.0"),
    (["--id", "fig3", "--mus", "0,-1"],
     "inverse-Gaussian-vs-exponential needs a finite mu > 0, got mu=0.0"),
    (["--id", "fig1", "--lam", "3"], "figure 'fig1' does not take --lam"),
    (["--id", "fig2", "--mus", "0.5"], "figure 'fig2' does not take --mus"),
    (["--id", "fig3", "--arm-means", "0.1,0.2"], "figure 'fig3' does not take --arm-means"),
    (["--id", "fig3", "--mus", ""], "bad configuration: --mus is empty; give at least one number"),
    (["--id", "fig1", "--mus", ""], "bad configuration: --mus is empty; give at least one number"),
    (["--id", "fig2", "--arm-means", " , "],
     "bad configuration: --arm-means is empty; give at least one number"),
], ids=["fig2-mean-outside", "fig2-one-mean", "fig3-negative-lam", "fig3-zero-mu",
        "fig1-lam", "fig2-mus", "fig3-arm-means", "fig3-empty-mus", "fig1-empty-mus",
        "fig2-empty-arm-means"])
def test_figure_options_out_of_range_exit_64(capsys, tmp_path, argv, message):
    path = tmp_path / "fig.csv"
    code, out, err = run(capsys, "figure", *argv, "--out", str(path))
    assert (code, out, err) == (64, "", f"evfam: {message}\n")
    assert not path.exists()


def test_linmodel_check_via_design_file(capsys, tmp_path):
    code, out, _ = run(capsys, "check", "--model", "linmodel",
                       "--design", str(_write_design(tmp_path, (8, 2))), "--sigma2", "1.0",
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
