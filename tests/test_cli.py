"""Driver behavior: exit codes, CSV schema, determinism, SVG output.

Exit code contract: 0 all checks pass, 1 a contract check failed,
2 configuration problem, 3 budget exceeded, 4 any other computation
error. The budget path is forced with j0=15 (4M+ cells); the failure
paths substitute a stub suite.
"""

import argparse
import csv
from pathlib import Path

import pytest

from diskproj import cli
from diskproj import disk as dk
from diskproj import measures as ms
from diskproj import operators as op
from diskproj.errors import ConfigError, NoConvergenceError


def test_fmt():
    assert cli._fmt(0.1) == "0.1"
    assert cli._fmt(1.0 / 3.0) == "0.333333333333"
    assert cli._fmt(2.0 + 1e-10) == "2.0000000001"
    assert cli._fmt("finite") == "finite"
    assert cli._fmt(7) == "7"


def test_list_catalog():
    text = cli.list_catalog()
    for name in ("lebesgue", "expinv", "loginv", "power"):
        assert name in text
    for suite in cli.SUITES:
        assert suite in text


def run_main(tmp_path, *extra):
    out = tmp_path / "out"
    code = cli.main(["--out", str(out), "--no-timestamp", *extra])
    return code, out


def test_czd_suite_csv(tmp_path, capsys):
    code, out = run_main(tmp_path, "--suite", "czd")
    assert code == 0
    text = (out / "czd.csv").read_text()
    lines = text.strip().splitlines()
    assert lines[0] == ",".join(cli.COLUMNS)
    assert not lines[0].startswith("#")
    body = lines[1:]
    assert len(body) == 7
    for line in body:
        assert line.startswith("czd,")
        assert line.endswith(",pass")
    assert "czd: 7 checks, 7 passed, 0 failed" in capsys.readouterr().out


def test_csv_determinism(tmp_path):
    _, out1 = run_main(tmp_path / "a", "--suite", "czd", "--seed", "3")
    _, out2 = run_main(tmp_path / "b", "--suite", "czd", "--seed", "3")
    assert (out1 / "czd.csv").read_bytes() == (out2 / "czd.csv").read_bytes()


def test_timestamp_comment(tmp_path, monkeypatch):
    def stub(cfg):
        return [{"check": "c", "inputs": "i", "value": "1", "bound": "1",
                 "status": "pass"}], {}
    monkeypatch.setitem(cli.SUITES, "czd", stub)
    out = tmp_path / "out"
    assert cli.main(["--suite", "czd", "--out", str(out)]) == 0
    first = (out / "czd.csv").read_text().splitlines()[0]
    assert first.startswith("# generated ")
    assert "runtime" in first


def test_config_errors(tmp_path, capsys):
    # no suite given at all
    assert cli.main(["--out", str(tmp_path)]) == 2
    # config file missing
    assert cli.main(["--config", str(tmp_path / "nope.ini")]) == 2
    # unknown suite via config
    bad = tmp_path / "bad.ini"
    bad.write_text("[run]\nsuite = nonsense\n")
    assert cli.main(["--config", str(bad)]) == 2
    # p = 1 is outside the weighted range
    p1 = tmp_path / "p1.ini"
    p1.write_text("[run]\nsuite = czd\np = 1\n")
    assert cli.main(["--config", str(p1), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    # a non-finite p would give the twoweight suite a silent zero row
    for bad in ("inf", "nan"):
        ini = tmp_path / f"p_{bad}.ini"
        ini.write_text(f"[run]\nsuite = twoweight\np = {bad}\n")
        assert cli.main(["--config", str(ini), "--out", str(tmp_path)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "twoweight.csv").exists()


def kernel_comparability_rows(out):
    with open(out / "comparability.csv", newline="") as fh:
        return [r for r in csv.DictReader(fh)
                if r["check"].startswith("kernel-comparability-")]


def test_comparability_kernel_rows_are_seed_free(tmp_path):
    """The kernel rows are extremes over node pairs, so no seed enters
    them; at seed 11 the sampled estimate used to drift past 0.2."""
    code0, out0 = run_main(tmp_path / "s0", "--suite", "comparability",
                           "--seed", "0")
    code11, out11 = run_main(tmp_path / "s11", "--suite", "comparability",
                             "--seed", "11")
    assert code0 == code11 == 0
    rows = kernel_comparability_rows(out0)
    assert len(rows) == 6
    assert rows == kernel_comparability_rows(out11)


def test_comparability_honors_j0(tmp_path):
    ini = tmp_path / "j0.ini"
    ini.write_text("[run]\nsuite = comparability\nj0 = 0\n")
    code = cli.main(["--config", str(ini), "--out", str(tmp_path / "out"),
                     "--no-timestamp"])
    assert code == 0
    psi = op.PsiProfile(1.0, ms.point_mass(1.0, 1.0))
    lo, hi = op.comparability_constants(
        psi, dk.build_quadrature(ms.lebesgue(), J=8, j0=0))
    got = {r["check"]: r["value"] for r in kernel_comparability_rows(
        tmp_path / "out") if r["inputs"] == "psi=atom1, node pairs J 8"}
    assert got == {"kernel-comparability-low": cli._fmt(lo),
                   "kernel-comparability-high": cli._fmt(hi)}
    # the default j0 = 1 reads other extremes
    assert lo != op.comparability_constants(
        psi, dk.build_quadrature(ms.lebesgue(), J=8))[0]


def projection_weak11_rows(out):
    with open(out / "weak11.csv", newline="") as fh:
        return [r for r in csv.DictReader(fh) if r["check"] in (
            "projection-weak11-bounded", "projection-weak11-divergent")]


def test_weak11_projection_rows_are_seed_free(tmp_path):
    """The projection rows read point masses, so no seed enters them; at
    seeds 34, 43 and 61 the random-field rows used to fail."""
    code, out = run_main(tmp_path / "s0", "--suite", "weak11")
    assert code == 0
    rows = projection_weak11_rows(out)
    assert [r["bound"] for r in rows] == ["2", "1.5"]
    for seed in ("34", "43", "61"):
        code, out = run_main(tmp_path / seed, "--suite", "weak11",
                             "--seed", seed)
        assert code == 0
        assert projection_weak11_rows(out) == rows


def test_depth_out_of_range(tmp_path):
    assert cli.main(["--suite", "czd", "--depth", "13",
                     "--out", str(tmp_path)]) == 2


def test_budget_exit(tmp_path, capsys):
    ini = tmp_path / "big.ini"
    ini.write_text("[run]\nsuite = czd\nj0 = 15\n")
    assert cli.main(["--config", str(ini), "--out", str(tmp_path)]) == 3
    assert "budget exceeded" in capsys.readouterr().err


def test_suite_error_exits(tmp_path, monkeypatch, capsys):
    # a weight the config parser accepts and the weight layer rejects
    ini = tmp_path / "bump.ini"
    ini.write_text("[run]\nsuite = oneweight\n\n"
                   "[weight]\nbump_center = 0.5\nbump_width = -1\n")
    assert cli.main(["--config", str(ini), "--out", str(tmp_path)]) == 2
    assert "config error: bump width" in capsys.readouterr().err

    def stalled(cfg):
        raise NoConvergenceError("Lanczos norm: stalled")
    monkeypatch.setitem(cli.SUITES, "czd", stalled)
    code, out = run_main(tmp_path, "--suite", "czd")
    assert code == 4 and not (out / "czd.csv").exists()
    err = capsys.readouterr().err
    assert err == "computation failed: NoConvergenceError: " \
        "Lanczos norm: stalled\n"


def test_contract_failure_exit(tmp_path, monkeypatch, capsys):
    def failing(cfg):
        rows = []
        cli._row(rows, "always-fails", "stub", 2.0, 1.0, False)
        cli._row(rows, "fine", "stub", 1.0, 1.0, True)
        return rows, {}
    monkeypatch.setitem(cli.SUITES, "czd", failing)
    code, out = run_main(tmp_path, "--suite", "czd")
    assert code == 1
    captured = capsys.readouterr()
    assert "FAIL always-fails" in captured.err
    assert "1 failed" in captured.out
    assert ",fail" in (out / "czd.csv").read_text()


def test_suite_column_and_exit_code_come_from_the_rows(tmp_path,
                                                       monkeypatch):
    """A suite returns bare rows: the suite column is stamped on each,
    and the exit code reads their status, with no pass flag beside them."""
    status = {"flip": "fail"}

    def bare(cfg):
        return [{"check": name, "inputs": "stub", "value": "1",
                 "bound": "1", "status": st}
                for name, st in (("a", "pass"), ("flip", status["flip"]),
                                 ("b", "pass"))], {}
    monkeypatch.setitem(cli.SUITES, "czd", bare)
    code, out = run_main(tmp_path / "failing", "--suite", "czd")
    assert code == 1
    with open(out / "czd.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["suite"] for r in rows] == ["czd"] * 3
    assert [r["status"] for r in rows] == ["pass", "fail", "pass"]
    status["flip"] = "pass"
    code, out = run_main(tmp_path / "passing", "--suite", "czd")
    assert code == 0


def test_svg_output(tmp_path, monkeypatch):
    def with_series(cfg):
        rows = []
        cli._row(rows, "c", "i", 1.0, 1.0, True)
        return rows, {"curve-a": [1.0, 2.0, 4.0], "curve-b": [2.0, 2.0, 2.0]}
    monkeypatch.setitem(cli.SUITES, "czd", with_series)
    code, out = run_main(tmp_path / "plain", "--suite", "czd")
    assert code == 0 and not (out / "czd.svg").exists()
    code, out = run_main(tmp_path / "plotted", "--suite", "czd", "--svg")
    assert code == 0
    svg = (out / "czd.svg").read_text()
    assert svg.count("<polyline") == 2
    assert "curve-a" in svg and "curve-b" in svg


def test_write_svg_empty(tmp_path):
    target = tmp_path / "empty.svg"
    cli._write_svg(target, "t", {}, (6, 7, 8))
    assert not target.exists()


def make_args(**kw):
    base = dict(config=None, suite=None, seed=None, depth=None, out=None,
                no_timestamp=False, svg=False)
    base.update(kw)
    return argparse.Namespace(**base)


def test_load_config_precedence(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nsuite = czd\nseed = 4\ndepth = 6\n"
                    "[weight]\neta = 0.25\n")
    cfg = cli.load_config(make_args(config=str(ini)))
    assert (cfg.suite, cfg.seed, cfg.depth) == ("czd", 4, 6)
    assert cfg.sections == {"weight": {"eta": "0.25"}}
    # flags beat config values
    cfg = cli.load_config(make_args(config=str(ini), seed=9, depth=5))
    assert (cfg.seed, cfg.depth) == (9, 5)
    with pytest.raises(ConfigError):
        cli.load_config(make_args())
    with pytest.raises(ConfigError):
        cli.load_config(make_args(suite="czd", seed=-1))


def test_oneweight_single_run(tmp_path):
    ini = tmp_path / "w.ini"
    ini.write_text("[run]\nsuite = oneweight\ndepth = 5\ndyadic_depth = 4\n"
                   "[weight]\neta = 0.25\nname = probe\n")
    out = tmp_path / "out"
    code = cli.main(["--config", str(ini), "--out", str(out),
                     "--no-timestamp"])
    assert code == 0
    text = (out / "oneweight.csv").read_text()
    assert "norm-vs-characteristic" in text
    assert "probe" in text
    assert ",fail" not in text


def test_oneweight_single_run_at_depth_12(tmp_path):
    """The norm needs no dense matrix, so single-run mode reaches the
    deepest quadrature the CLI accepts (16,388 cells)."""
    ini = tmp_path / "w.ini"
    ini.write_text("[run]\nsuite = oneweight\ndyadic_depth = 6\n"
                   "[weight]\neta = 0.25\nname = probe\n")
    out = tmp_path / "out"
    code = cli.main(["--config", str(ini), "--depth", "12", "--out", str(out),
                     "--no-timestamp"])
    assert code == 0
    text = (out / "oneweight.csv").read_text()
    assert "p=2, J=12" in text
    assert ",fail" not in text
