"""Command-line interface: exit codes, outputs, determinism."""

from __future__ import annotations

import json

import numpy as np
import pytest

from evfam.cli import main

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
