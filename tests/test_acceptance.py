"""End-to-end acceptance battery over the experiment suites.

Each numbered test asserts one contract of the library on the rows the
corresponding suite emits: kernel identities at fixed tolerances,
zero-violation inequality sweeps at fixed seeds and sample counts, the
decomposition and stopping-time exactness properties, the testing and
characteristic comparisons, and byte-level determinism of the CSV
reports. Every suite runs once in a shared fixture (seed 0, default
depths); the determinism test reruns each suite a second time.
"""

import math

import pytest

from diskproj import cli

SUITE_NAMES = tuple(cli.SUITES)


@pytest.fixture(scope="module")
def results():
    out = {}
    for name in SUITE_NAMES:
        cfg = cli.ExperimentConfig(suite=name, seed=0)
        out[name] = cli.run_suite(cfg)
    return out


def rows_for(results, suite, check):
    rows = [r for r in results[suite][0] if r["check"] == check]
    assert rows, f"suite {suite} emitted no rows for check {check}"
    return rows


def assert_passes(rows, count=None):
    if count is not None:
        assert len(rows) == count
    for r in rows:
        assert r["status"] == "pass", f"{r['check']} [{r['inputs']}] failed"
    return rows


def values(rows):
    return [float(r["value"]) for r in rows]


def test_01_standard_weight_kernels(results):
    rows = assert_passes(rows_for(results, "kernel-identities",
                                  "standard-weight-kernel"), count=3)
    assert {r["inputs"] for r in rows} == {"alpha=0", "alpha=1", "alpha=2"}
    assert all(v <= 1e-8 for v in values(rows))


def test_02_log_kernel_and_moments(results):
    (row,) = assert_passes(rows_for(results, "kernel-identities",
                                    "log-kernel"), count=1)
    assert float(row["value"]) <= 1e-6
    (mrow,) = assert_passes(rows_for(results, "kernel-identities",
                                     "log-kernel-moments"), count=1)
    assert float(mrow["value"]) <= 1e-10


def test_03_harmonic_phi_coefficients(results):
    (row,) = assert_passes(rows_for(results, "kernel-identities",
                                    "harmonic-phi-coefficients"), count=1)
    assert float(row["value"]) <= 1e-8


def test_04_complete_monotonicity(results):
    (good,) = assert_passes(rows_for(results, "kernel-identities",
                                     "completely-monotone"), count=1)
    assert good["value"] == "True"
    (bad,) = assert_passes(rows_for(results, "kernel-identities",
                                    "not-completely-monotone"), count=1)
    assert bad["value"] == "(1, 0)"  # first violated difference


def test_05_transform_lower_bound(results):
    rows = assert_passes(rows_for(results, "kernel-identities",
                                  "transform-lower-bound"), count=3)
    tags = {r["inputs"].split(",")[0] for r in rows}
    assert tags == {"nu=lebesgue", "nu=atom1", "nu=halfmix"}
    assert all(v >= 1.0 for v in values(rows))  # zero violations


def test_06_difference_bound_with_explicit_constant(results):
    (const,) = assert_passes(rows_for(results, "kernel-identities",
                                      "difference-constant"), count=1)
    assert float(const["value"]) <= 1e-10  # |C(2,1) - 84 sqrt 2|
    rows = assert_passes(rows_for(results, "kernel-identities",
                                  "kernel-difference-bound"), count=3)
    assert all(v <= 1.0 for v in values(rows))  # max lhs/bound over 10^4


def test_07_tail_transform_band(results):
    rows = assert_passes(rows_for(results, "kernel-identities",
                                  "tail-transform-band"), count=3)
    assert all(v < 10.0 for v in values(rows))  # c_high/c_low per instance
    stab = assert_passes(rows_for(results, "kernel-identities",
                                  "tail-transform-band-stability"), count=3)
    assert all(v < 1e-10 for v in values(stab))  # 10x tighter quadrature


def test_08_dyadic_containment(results):
    (row,) = assert_passes(rows_for(results, "comparability",
                                    "dyadic-containment"), count=1)
    assert float(row["value"]) <= 4.0  # |K| <= 4 |I| on 10^4 arcs


def test_09_kernel_comparability(results):
    lows = assert_passes(rows_for(results, "comparability",
                                  "kernel-comparability-low"), count=2)
    assert all(v > 0.0 for v in values(lows))
    highs = assert_passes(rows_for(results, "comparability",
                                   "kernel-comparability-high"), count=2)
    assert all(math.isfinite(v) for v in values(highs))
    stab = assert_passes(rows_for(results, "comparability",
                                  "kernel-comparability-stability"), count=2)
    assert all(v <= 0.2 for v in values(stab))  # J, L_max +2 drift


def test_10_dyadic_maximal_weak11(results):
    (row,) = assert_passes(rows_for(results, "weak11",
                                    "dyadic-maximal-weak11"), count=1)
    assert float(row["value"]) <= 2.0 + 1e-10


def test_11_cz_decomposition_exactness(results):
    for check in ("cell-partition", "selected-mass-bound",
                  "selection-two-sided"):
        (row,) = assert_passes(rows_for(results, "czd", check), count=1)
        assert row["value"] == "True"
    for check in ("good-plus-bad-identity", "bad-part-mean-zero"):
        (row,) = assert_passes(rows_for(results, "czd", check), count=1)
        assert float(row["value"]) <= 1e-12
    assert results["czd"][1]  # whole suite green


def test_12_stopping_machinery(results):
    (chain,) = assert_passes(rows_for(results, "twoweight",
                                      "stopping-factor-4"), count=1)
    assert chain["value"] == "True"
    (point,) = assert_passes(rows_for(results, "twoweight",
                                      "stopped-sum-pointwise"), count=1)
    assert float(point["value"]) <= 1.0 + 1e-10  # lhs vs (4/3) maximal
    (embed,) = assert_passes(rows_for(results, "twoweight",
                                      "carleson-embedding"), count=1)
    assert embed["value"] == "True"
    (k_row,) = assert_passes(rows_for(results, "twoweight",
                                      "carleson-embedding-global-K"), count=1)
    assert math.isfinite(float(k_row["value"]))


def test_13_two_weight_testing(results):
    (nec,) = assert_passes(rows_for(results, "twoweight",
                                    "testing-necessity"), count=1)
    assert nec["value"] == "True"
    (c1,) = assert_passes(rows_for(results, "twoweight",
                                   "testing-sufficiency-C1"), count=1)
    assert float(c1["value"]) < float(c1["bound"])  # C1 < 10x median


def test_14_one_weight_characteristic(results):
    stable = assert_passes(rows_for(results, "oneweight",
                                    "characteristic-depth-stable"), count=3)
    assert all(v <= 1.08 for v in values(stable))
    (div,) = assert_passes(rows_for(results, "oneweight",
                                    "characteristic-divergence"), count=1)
    assert float(div["value"]) > 1.08  # eta=1 grows every refinement
    (spread,) = assert_passes(rows_for(results, "oneweight",
                                       "norm-ratio-spread"), count=1)
    assert float(spread["value"]) <= 3.0


def test_15_projection_weak11_contrast(results):
    (bounded,) = assert_passes(rows_for(results, "weak11",
                                        "projection-weak11-bounded"), count=1)
    assert float(bounded["value"]) <= 2.0  # one constant across J=6..8
    (fin,) = assert_passes(rows_for(results, "weak11",
                                    "projection-weak11-b1-finite"), count=1)
    assert math.isfinite(float(fin["value"]))
    (grow,) = assert_passes(rows_for(results, "weak11",
                                     "projection-weak11-divergent"), count=1)
    assert float(grow["value"]) >= 1.5  # ratio growth J=6 -> 8
    (b1d,) = assert_passes(rows_for(results, "weak11",
                                    "projection-weak11-b1-divergent"),
                           count=1)
    assert float(b1d["value"]) >= 2.0


def test_16_csv_determinism(results, tmp_path):
    for name in SUITE_NAMES:
        first = tmp_path / f"{name}-1.csv"
        second = tmp_path / f"{name}-2.csv"
        cli._write_csv(first, results[name][0], timestamp=False, runtime=0.0)
        rerun, ok, _ = cli.run_suite(cli.ExperimentConfig(suite=name, seed=0))
        assert ok
        cli._write_csv(second, rerun, timestamp=False, runtime=1.0)
        assert first.read_bytes() == second.read_bytes(), \
            f"suite {name} is not byte-deterministic"
