"""Command-line interface: exit codes, outputs, determinism."""

from __future__ import annotations

import json

import numpy as np
import pytest

from evfam.cli import _build_parser, main

NB_ARGS = ["--model", "negbinom-vs-poisson", "--successes", "4", "--mu", "2",
           "--grid-points", "24", "--pairs", "32"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_lists_models(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    for key in ("ksample-poisson", "gaussian-scale", "ig-vs-exp", "linmodel"):
        assert key in out


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
