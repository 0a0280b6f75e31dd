"""Experiment driver: named suites, CSV reports, optional SVG plots.

Each suite runs a fixed battery of identity and inequality checks with
an explicit seed and returns its rows, one per measurement, each with
its own pass/fail status; run_suite stamps the suite's name on them.
The CSV (stable column order), the FAIL lines and the exit code all
read those rows: the run exits 0 only if every row passed.
Reruns with the same config and seed produce byte-identical CSV when
the timestamp comment is suppressed; wall-clock times only ever appear
in that suppressible comment line.

Exit codes: 0 all checks pass, 1 contract failure, 2 config error,
3 budget exceeded.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict

import numpy as np

from . import measures as ms
from . import kernels as kn
from . import disk as dk
from . import operators as op
from . import weights as wt
from . import czd as cz
from . import twoweight as tw
from .errors import (BudgetExceededError, ConfigError, DiskprojError,
                     InvalidRangeError)

COLUMNS = ("suite", "check", "inputs", "value", "bound", "status")
# the depths J of the weak11 and oneweight sweeps: the x axis of their SVGs
SWEEP_DEPTHS = (6, 7, 8)


@dataclass
class ExperimentConfig:
    suite: str
    seed: int = 0
    depth: int = 8                 # depth J of oneweight's single run
    j0: int = 1
    p: float = 2.0
    dyadic_depth: int = 6          # testing / characteristic depth
    out_dir: Path = Path("diskproj-out")
    timestamp: bool = True
    svg: bool = False
    sections: Dict[str, Dict[str, str]] = field(default_factory=dict)

    def __post_init__(self):
        if not 1 <= self.depth <= 12:
            raise ConfigError(f"depth J = {self.depth} outside [1, 12]")
        if not 1.0 < self.p < math.inf:
            raise ConfigError(f"p = {self.p:g} must be finite and exceed 1 "
                              "(weighted theory needs p in (1, inf))")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _row(rows, check, inputs, value, bound, ok):
    rows.append({"check": check, "inputs": inputs, "value": _fmt(value),
                 "bound": _fmt(bound), "status": "pass" if ok else "fail"})


def _sample_disk(rng, n, r_max=0.999):
    return (np.sqrt(rng.random(n)) * r_max *
            np.exp(2j * np.pi * rng.random(n)))


# -- kernel-identities ---------------------------------------------------------

def _harmonic(n):
    return np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1, n + 1))])


def run_kernel_identities(cfg: ExperimentConfig):
    rows = []
    xs = np.arange(0.0, 0.95, 0.1)
    n_terms = 560

    for alpha in (0, 1, 2):
        meas = ms.power_measure(float(alpha))
        moments = list(kn.nu_moment_table(meas, 2 * n_terms - 1)[1::2])
        worst = 0.0
        for x in xs:
            val = kn.kernel_series(moments, float(x))
            target = (1.0 - x) ** -(alpha + 2.0)
            worst = max(worst, abs(val - target) / target)
        _row(rows, "standard-weight-kernel", f"alpha={alpha}", worst, 1e-8,
             worst <= 1e-8)

    mc = kn.construct_omega_from_nu(ms.lebesgue(), 2 * n_terms + 1)
    moments = list(mc.constructed_moments[1::2])
    worst = 0.0
    for x in xs[1:]:
        val = kn.kernel_series(moments, float(x))
        target = math.log(1.0 / (1.0 - x)) / (x * (1.0 - x))
        worst = max(worst, abs(val - target) / target)
    at_zero = abs(kn.kernel_series(moments, 0.0) - 1.0)
    _row(rows, "log-kernel", "nu=lebesgue", max(worst, at_zero), 1e-6,
         max(worst, at_zero) <= 1e-6)
    m_err = max(abs(mc.constructed_moments[1] - 0.5),
                abs(mc.constructed_moments[3] - 1.0 / 3.0))
    _row(rows, "log-kernel-moments", "omega1,omega3", m_err, 1e-10,
         m_err <= 1e-10)

    n_coef = 64
    h = _harmonic(n_coef)
    phi = 1.0 + h[:n_coef]
    coeffs = 1.0 / (2.0 * kn.moments_from_phi(phi))
    n1 = np.arange(1.0, n_coef + 1.0)
    log_series = np.concatenate([[0.0], 1.0 / np.arange(1.0, n_coef)])
    oracle = n1 + np.convolve(n1, log_series)[:n_coef]
    err = float(np.max(np.abs(coeffs - oracle) / oracle))
    _row(rows, "harmonic-phi-coefficients", "first 64", err, 1e-8, err <= 1e-8)

    rep = kn.check_completely_monotone([1.0 / (n + 1) for n in range(51)],
                                       k_max=10)
    _row(rows, "completely-monotone", "1/(n+1), k=10 N=50", str(rep.passed),
         "True", rep.passed)
    rep2 = kn.check_completely_monotone(list(range(51)), k_max=10)
    _row(rows, "not-completely-monotone", "n", str(rep2.first_violation[:2]),
         "(1, 0)", rep2.first_violation[:2] == (1, 0))

    rng = np.random.default_rng(cfg.seed)
    for nu, tag in ((ms.lebesgue(), "lebesgue"),
                    (ms.point_mass(1.0, 1.0), "atom1"),
                    (ms.half_atom_mix(), "halfmix")):
        z = _sample_disk(rng, 10 ** 4)
        _, _, ratio = kn.lower_bound_eq4_grid(nu, z)
        bad = int(np.sum(ratio < 1.0))
        _row(rows, "transform-lower-bound", f"nu={tag}, n=10000",
             float(ratio.min()), 1.0, bad == 0)

    const_err = abs(kn.difference_constant(2.0, 1.0) - 84.0 * math.sqrt(2.0))
    _row(rows, "difference-constant", "(c,gamma)=(2,1)", const_err, 1e-10,
         const_err <= 1e-10)
    for c, gamma in ((2.0, 1.0), (4.0, 1.0), (2.0, 2.0)):
        spec = kn.KernelSpec(gamma=gamma, nu=ms.lebesgue(),
                             name=f"g{gamma:g}-leb")
        n_want = 10 ** 4
        z0b, zb, zetab = [], [], []
        got = 0
        while got < n_want:
            m = 4 * n_want
            z0 = _sample_disk(rng, m, 0.99)
            zc = z0 + 0.2 * rng.random(m) * np.exp(2j * np.pi * rng.random(m))
            zeta = _sample_disk(rng, m, 0.99)
            keep = (np.abs(zc) < 0.995) & \
                (np.abs(1.0 - zeta.conjugate() * zc) >= c * np.abs(zc - z0))
            idx = np.nonzero(keep)[0][:n_want - got]
            z0b.append(z0[idx]); zb.append(zc[idx]); zetab.append(zeta[idx])
            got += idx.size
        lhs, bound = kn.difference_bound_grid(
            spec, np.concatenate(z0b), np.concatenate(zb),
            np.concatenate(zetab), c)
        frac = float(np.max(lhs / bound))
        _row(rows, "kernel-difference-bound",
             f"c={c:g}, gamma={gamma:g}, n=10000", frac, 1.0, frac <= 1.0)

    instances = [
        ("gamma1-atom1/lebesgue",
         kn.KernelSpec(gamma=1.0, nu=ms.point_mass(1.0, 1.0), name="a1"),
         ms.lebesgue()),
        ("gamma2-atom1/power1",
         kn.KernelSpec(gamma=2.0, nu=ms.point_mass(1.0, 1.0), name="a2"),
         ms.power_measure(1.0)),
        ("gamma1-lebesgue/constructed",
         kn.KernelSpec(gamma=1.0, nu=ms.lebesgue(), name="a3"),
         kn.construct_omega_from_nu(ms.lebesgue(), 16)),
    ]
    for tag, spec, omega in instances:
        points = [1.0 - 2.0 ** -k for k in range(1, 13)]
        vals = np.array([kn.shi_ratio(spec, omega, x) for x in points])
        tight = np.array([kn.shi_ratio(spec, omega, x, tol=1e-13)
                          for x in points])
        band = float(vals.max() / vals.min())
        drift = max(abs(tight.max() / vals.max() - 1.0),
                    abs(tight.min() / vals.min() - 1.0))
        _row(rows, "tail-transform-band", tag, band, 10.0, band < 10.0)
        _row(rows, "tail-transform-band-stability", tag, drift, 1e-10,
             drift < 1e-10)
    return rows, {}


# -- comparability -------------------------------------------------------------

def run_comparability(cfg: ExperimentConfig):
    rows = []
    rng = np.random.default_rng(cfg.seed)

    lengths, starts = np.array([(rng.uniform(1e-6, 0.25), rng.random())
                                for _ in range(10 ** 4)]).T
    beta, level, index = dk.containing_dyadics(starts, lengths)
    width = np.ldexp(1.0, -level)
    offset = (starts - ((index + beta) * width) % 1.0) % 1.0
    contained = bool(np.all(offset + lengths <= width * (1.0 + 1e-12)))
    worst = float(np.max(width / lengths))
    _row(rows, "dyadic-containment", "10000 arcs <= 1/4", worst, 4.0,
         worst <= 4.0 and contained)

    quads = [dk.build_quadrature(ms.lebesgue(), J=J, j0=cfg.j0)
             for J in (8, 10)]
    for nu, tag in ((ms.point_mass(1.0, 1.0), "atom1"),
                    (ms.lebesgue(), "lebesgue")):
        psi = op.PsiProfile(1.0, nu)
        (lo1, hi1), (lo2, hi2) = (op.comparability_constants(psi, q)
                                  for q in quads)
        _row(rows, "kernel-comparability-low", f"psi={tag}, node pairs J 8",
             lo1, 0.0, lo1 > 0.0)
        _row(rows, "kernel-comparability-high", f"psi={tag}, node pairs J 8",
             hi1, math.inf, math.isfinite(hi1))
        drift = max(abs(lo2 / lo1 - 1.0), abs(hi2 / hi1 - 1.0))
        _row(rows, "kernel-comparability-stability",
             f"psi={tag}, node pairs J 8->10", drift, 0.2, drift <= 0.2)
    return rows, {}


# -- weak11 --------------------------------------------------------------------

def run_weak11(cfg: ExperimentConfig):
    rows = []
    rng = np.random.default_rng(cfg.seed)
    leb = ms.lebesgue()

    quad = dk.build_quadrature(leb, J=8, j0=cfg.j0)
    sup = 0.0
    for _ in range(100):
        f = dk.Field(quad, rng.pareto(1.2, quad.size) + 1e-6)
        sup = max(sup, wt.weak11_maximal_check(quad, quad.masses, 0.0, f))
    _row(rows, "dyadic-maximal-weak11", "100 random f", sup, 2.0 + 1e-10,
         sup <= 2.0 + 1e-10)

    # The point masses 1_c of the deepest band stress the inequality
    # where it can fail: mass that is L^1(v)-cheap near the boundary but
    # projects onto the interior. The kernel is Hermitian, so
    # |P 1_c| = |K[c, :]| mu_c, and the ratio at c is the weak sup of
    # |K[c, :]| in v mu over v_c: a lower bound for the operator's, as
    # weak L^1 is not normed. A quarter turn (a half turn at j0 = 0)
    # maps every band, the radial weight and |K| onto themselves, so the
    # cells t < 1/4 (t < 1/2) hold every ratio.
    spec = kn.KernelSpec(gamma=1.0, nu=ms.point_mass(1.0, 1.0), name="a1")
    depths = []
    for J in SWEEP_DEPTHS:
        q = quad if J == quad.J else dk.build_quadrature(leb, J=J, j0=cfg.j0)
        cells = np.flatnonzero((q.cell_band == q.cell_band[-1]) &
                               (q.nodes_t < (0.25 if q.j0 else 0.5)))
        depths.append((q, cells, np.abs(
            op.bergman_handle(spec, q).kernel_block(cells))))
    series = {}
    for eta, tag in ((-0.25, "in-class"), (1.5, "diverging")):
        ratios, b1s = [], []
        for q, cells, rows_abs in depths:
            v = wt.weight_field(q, eta=eta, name=f"(1-r)^{eta:g}")
            b1s.append(wt.b1_characteristic(v).value)
            ratios.append(float(np.max(wt._exact_weak_sup(
                rows_abs, v.values * q.masses) / v.values[cells])))
        series[tag] = ratios
        if tag == "in-class":
            spread = max(ratios) / min(ratios)
            _row(rows, "projection-weak11-bounded",
                 f"eta={eta:g}, J=6..8, point masses", spread, 2.0,
                 spread <= 2.0)
            _row(rows, "projection-weak11-b1-finite", f"eta={eta:g}", max(b1s),
                 50.0, max(b1s) <= 50.0)
        else:
            growing = ratios[0] < ratios[1] < ratios[2]
            growth = ratios[2] / ratios[0]
            _row(rows, "projection-weak11-divergent",
                 f"eta={eta:g} (B1 diverges), J=6..8, point masses", growth,
                 1.5, growing and growth >= 1.5)
            _row(rows, "projection-weak11-b1-divergent",
                 f"eta={eta:g}, J=6..8", b1s[2] / b1s[0], 2.0,
                 b1s[0] < b1s[1] < b1s[2] and b1s[2] / b1s[0] >= 2.0)
    return rows, series


# -- czd -----------------------------------------------------------------------

def run_czd(cfg: ExperimentConfig):
    rows = []
    rng = np.random.default_rng(cfg.seed)
    leb = ms.lebesgue()
    quad = dk.build_quadrature(leb, J=6, j0=cfg.j0)
    region = cz.level_one_regions()[0]
    rmask = quad.node_mask(region)

    max_identity = max_meanzero = 0.0
    omega_ok = prop4_ok = selection_ok = True
    disjoint_ok = True
    unresolved_total = 0
    for _ in range(50):
        vals = (rng.pareto(1.5, quad.size) + 1e-6) * rmask
        f = dk.Field(quad, vals)
        norm1 = float(np.sum(np.abs(vals) * quad.masses))
        lam = norm1 * rng.uniform(1.05, 6.0)
        dec = cz.cz_decompose(f, lam, region)
        unresolved_total += dec.unresolved

        seen = np.concatenate([dec.f_cells] + list(dec.selected_cells)) \
            if dec.selected_cells else dec.f_cells
        disjoint_ok &= np.array_equal(np.sort(seen), np.nonzero(rmask)[0])
        max_identity = max(max_identity, float(np.max(np.abs(
            dec.g.values + dec.b.values - vals * rmask))))
        for cells in dec.selected_cells:
            m = quad.masses[cells]
            avg = float(np.sum(np.abs(vals[cells]) * m) / m.sum())
            selection_ok &= avg >= lam
            prop4_ok &= avg <= dec.parent_constant * lam * (1.0 + 1e-12) \
                or dec.root_selected
            max_meanzero = max(max_meanzero, abs(float(
                np.sum(dec.b.values[cells] * m))) / max(lam, 1.0))
        omega = sum(float(quad.masses[c].sum()) for c in dec.selected_cells)
        omega_ok &= omega * lam <= norm1 * (1.0 + 1e-12)

    _row(rows, "cell-partition", "50 instances", str(disjoint_ok), "True",
         disjoint_ok)
    _row(rows, "good-plus-bad-identity", "50 instances", max_identity, 1e-12,
         max_identity <= 1e-12)
    _row(rows, "bad-part-mean-zero", "50 instances", max_meanzero, 1e-12,
         max_meanzero <= 1e-12)
    _row(rows, "selected-mass-bound", "omega(Omega) lam <= |f|", str(omega_ok),
         "True", omega_ok)
    _row(rows, "selection-two-sided", "lam <= avg <= C lam",
         str(selection_ok and prop4_ok), "True", selection_ok and prop4_ok)
    _row(rows, "unresolved-floor-cells", "50 instances", unresolved_total,
         "reported", True)

    spec = kn.KernelSpec(gamma=1.0, nu=ms.point_mass(1.0, 1.0), name="a1")
    v = wt.weight_field(quad, eta=-0.25)
    vals = (rng.pareto(1.5, quad.size) + 1e-6) * rmask
    f = dk.Field(quad, vals)
    lam = float(np.sum(vals * quad.masses)) * 3.0
    rep = cz.cz_reconstruct_weak11_bound(spec, v, f, lam)
    fin = all(map(math.isfinite, (rep.good_part_ratio, rep.bad_tail_ratio,
                                  rep.omega_prime_ratio)))
    _row(rows, "reconstruction-ratios", f"lam=3|f|, eta=-0.25",
         rep.good_part_ratio, "finite", fin)
    return rows, {}


# -- twoweight -----------------------------------------------------------------

def run_twoweight(cfg: ExperimentConfig):
    rows = []
    rng = np.random.default_rng(cfg.seed)
    leb = ms.lebesgue()
    quad = dk.build_quadrature(leb, J=6, j0=cfg.j0)
    s0 = dk.DyadicInterval(0.0, 0, 0)

    chain_ok = True
    point_worst = 0.0
    embed_ok = True
    k_global = 0.0
    p = cfg.p
    for i in range(50):
        sigma, _, f, _ = tw.random_instance(quad, cfg.seed * 1000 + i)
        fam = tw.stopping_family(f, sigma, s0)
        # each later stopping square against lambda(its parent), the
        # stopping square it stopped under
        stops = np.flatnonzero(fam.generation >= 1)
        chain_ok &= bool(np.all(fam.averages[stops] > 4.0 * fam.averages[
            fam.owner[(stops - 1) >> 1]]))
        lhs, rhs = tw.pointwise_linearization(fam)
        live = rhs > 0.0
        if np.any(live):
            point_worst = max(point_worst, float(
                np.max(lhs[live] / rhs[live])))
        total = tw.carleson_embedding_sum(fam, p)
        # rhs = (4/3) M f, so this is (4/3)^p ||M f||^p in sigma mu
        embed_ok &= total <= float(
            np.sum(rhs ** p * fam.sigma_mu)) * (1.0 + 1e-12)
        norm_p = float(np.sum(fam.f_abs ** p * fam.sigma_mu))
        if norm_p > 0.0:
            k_global = max(k_global, total / norm_p)

    _row(rows, "stopping-factor-4", "50 random f", str(chain_ok), "True",
         chain_ok)
    _row(rows, "stopped-sum-pointwise", "vs (4/3) maximal", point_worst,
         1.0 + 1e-10, point_worst <= 1.0 + 1e-10)
    _row(rows, "carleson-embedding", "vs (4/3)^p ||Mf||_p^p", str(embed_ok),
         "True", embed_ok)
    _row(rows, "carleson-embedding-global-K", f"p={p:g}, 50 f", k_global,
         "reported", True)

    quad2 = dk.build_quadrature(leb, J=7, j0=cfg.j0)
    psi = op.PsiProfile(1.0, ms.point_mass(1.0, 1.0))
    base = tw.sparse_bergman_model(psi, quad2)
    necessity_ok = True
    ratios = []
    for i in range(20):
        sub = np.random.default_rng(cfg.seed * 77 + i)
        T = tw.sparse_bergman_model(
            psi, quad2, tau=base.tau * sub.uniform(0.25, 2.0, base.tau.shape))
        sigma, u, _, _ = tw.random_instance(quad2, cfg.seed * 77 + i)
        rep = tw.testing_constants(T, sigma, u, 2.0, cfg.dyadic_depth)
        necessity_ok &= rep.c0_root <= rep.norm_lower * (1.0 + 1e-8)
        necessity_ok &= rep.c0_star_root <= rep.norm_lower * (1.0 + 1e-8)
        ratios.append(rep.c1_measured)
    c1 = max(ratios)
    med = float(np.median(ratios))
    _row(rows, "testing-necessity", "20 instances, p=2", str(necessity_ok),
         "True", necessity_ok)
    _row(rows, "testing-sufficiency-C1", "single C1 vs 10x median", c1,
         10.0 * med, c1 < 10.0 * med)
    return rows, {}


# -- oneweight -----------------------------------------------------------------

def run_oneweight(cfg: ExperimentConfig):
    rows = []
    leb = ms.lebesgue()
    spec = kn.KernelSpec(gamma=1.0, nu=ms.point_mass(1.0, 1.0), name="a1")

    if "weight" in cfg.sections:
        quad = dk.build_quadrature(leb, J=cfg.depth, j0=cfg.j0)
        v = wt.weight_from_config(quad, cfg.sections["weight"])
        rep = tw.one_weight_norm_experiment(spec, v, cfg.p,
                                            cfg.dyadic_depth)
        fin = math.isfinite(rep.bp_value) and math.isfinite(rep.norm)
        _row(rows, "norm-vs-characteristic", f"p={cfg.p:g}, J={cfg.depth}",
             rep.ratio, "finite", fin)
        _row(rows, "characteristic", v.name, rep.bp_value, "reported", True)
        _row(rows, "norm", v.name, rep.norm, "reported", True)
        return rows, {}

    # one quadrature per depth, shared by the four weights and the J = 8
    # block: each builds its kernel tables and incidences once
    quads = {J: dk.build_quadrature(leb, J=J, j0=cfg.j0)
             for J in SWEEP_DEPTHS}
    series = {}
    ratios_top = {}
    for eta in (-0.5, 0.0, 0.5, 1.0):
        bs, rats = [], []
        for J, quad in quads.items():
            v = wt.weight_field(quad, eta=eta, name=f"(1-r)^{eta:g}")
            rep = tw.one_weight_norm_experiment(spec, v, 2.0, min(J, 6))
            bs.append(rep.bp_value)
            rats.append(rep.ratio)
            if (eta, J) == (0.0, 8):
                # the structure rows below read only the spec, the
                # quadrature and the depth, not the weight
                structure = rep
        series[f"eta={eta:g}"] = bs
        steps = [bs[i + 1] / bs[i] for i in range(len(bs) - 1)]
        if eta == 1.0:
            growing = all(s > 1.08 for s in steps) and \
                bs[0] < bs[1] < bs[2]
            _row(rows, "characteristic-divergence", "eta=1, J=6..8",
                 min(steps), 1.08, growing)
        else:
            stable = all(s < 1.08 for s in steps)
            _row(rows, "characteristic-depth-stable", f"eta={eta:g}, J=6..8",
                 max(steps), 1.08, stable)
            ratios_top[eta] = rats[-1]
    spread = max(ratios_top.values()) / min(ratios_top.values())
    _row(rows, "norm-ratio-spread", "eta in {-1/2,0,1/2}, J=8", spread, 3.0,
         spread <= 3.0)

    band = structure.psi_mu_band[1] / structure.psi_mu_band[0]
    _row(rows, "profile-mass-band", "Psi|I| mu(S)/|I|", band, 10.0,
         band < 10.0)
    _row(rows, "top-half-mass-share", "mu(S)/mu(T) max",
         structure.top_half_max_ratio, "finite",
         math.isfinite(structure.top_half_max_ratio))
    return rows, series


# -- plumbing ------------------------------------------------------------------

SUITES = {
    "kernel-identities": run_kernel_identities,
    "comparability": run_comparability,
    "weak11": run_weak11,
    "czd": run_czd,
    "twoweight": run_twoweight,
    "oneweight": run_oneweight,
}


def list_catalog():
    lines = ["measures:"]
    for name, desc in ms.catalog().items():
        lines.append(f"  {name:10s} {desc}")
    lines.append("kernels:")
    lines.append("  standard(alpha)   gamma=1, nu=atom at 1 scaled: "
                 "kernel (1-w)^-(alpha+2) via power-measure moments")
    lines.append("  log               gamma=1, nu=lebesgue: kernel "
                 "log(1/(1-w))/(w(1-w))")
    lines.append("weights:")
    lines.append("  (1-r)^eta (1-log(1-r))^log_exp with optional angular "
                 "bump; [weight] section keys eta, log_exp, bump_*")
    lines.append("suites:")
    for name in SUITES:
        lines.append(f"  {name}")
    return "\n".join(lines)


def _write_csv(path: Path, rows, timestamp, runtime):
    with open(path, "w", newline="") as fh:
        if timestamp:
            stamp = datetime.now(timezone.utc).isoformat()
            fh.write(f"# generated {stamp} runtime {runtime:.2f}s\n")
        writer = csv.DictWriter(fh, fieldnames=COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def _write_svg(path: Path, title, series, x_values):
    """Minimal line plot: one polyline per series over the x grid."""
    width, height, margin = 640, 400, 50
    ys = [y for vals in series.values() for y in vals]
    if not ys:
        return
    y_lo, y_hi = min(ys), max(ys)
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    x_lo, x_hi = min(x_values), max(x_values)

    def sx(x):
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y_lo) / (y_hi - y_lo) * \
            (height - 2 * margin)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<text x="{width // 2}" y="20" text-anchor="middle" '
             f'font-size="14">{title}</text>',
             f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
             f'y2="{height - margin}" stroke="black"/>',
             f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
             f'y2="{height - margin}" stroke="black"/>']
    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")
    for i, (label, vals) in enumerate(sorted(series.items())):
        color = palette[i % len(palette)]
        pts = " ".join(f"{sx(x):.1f},{sy(y):.1f}"
                       for x, y in zip(x_values, vals))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{width - margin + 4}" '
                     f'y="{sy(vals[-1]):.1f}" font-size="11" '
                     f'fill="{color}">{label}</text>')
    for x in x_values:
        parts.append(f'<text x="{sx(x):.1f}" y="{height - margin + 16}" '
                     f'text-anchor="middle" font-size="11">{x:g}</text>')
    parts.append(f'<text x="{margin - 6}" y="{sy(y_lo):.1f}" '
                 f'text-anchor="end" font-size="11">{y_lo:.3g}</text>')
    parts.append(f'<text x="{margin - 6}" y="{sy(y_hi):.1f}" '
                 f'text-anchor="end" font-size="11">{y_hi:.3g}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts))


def load_config(args) -> ExperimentConfig:
    sections: Dict[str, Dict[str, str]] = {}
    values: Dict[str, str] = {}
    if args.config:
        parser = configparser.ConfigParser()
        read = parser.read(args.config)
        if not read:
            raise ConfigError(f"config file {args.config!r} not found")
        for name in parser.sections():
            if name == "run":
                values.update(parser["run"])
            else:
                sections[name] = dict(parser[name])
    suite = args.suite or values.get("suite")
    if not suite:
        raise ConfigError("no suite given (flag --suite or [run] suite)")
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; known: "
                          + ", ".join(SUITES))
    # only the values given are passed: the defaults are ExperimentConfig's
    flags = {"seed": args.seed, "depth": args.depth}
    given = {}
    try:
        for key, kind in (("seed", int), ("depth", int), ("j0", int),
                          ("p", float), ("dyadic_depth", int)):
            if flags.get(key) is not None:
                given[key] = flags[key]
            elif key in values:
                given[key] = kind(values[key])
    except ValueError as exc:
        raise ConfigError(f"bad numeric value in config: {exc}") from None
    out = args.out or values.get("out")
    if out is not None:
        given["out_dir"] = Path(out)
    return ExperimentConfig(suite=suite, timestamp=not args.no_timestamp,
                            svg=args.svg, sections=sections, **given)


def run_suite(cfg: ExperimentConfig):
    """Run one suite; returns (rows, all_pass, plot series or {}).

    A suite returns its rows and series; this stamps the suite's name on
    each row, and all_pass is read from the rows' status."""
    rows, series = SUITES[cfg.suite](cfg)
    for r in rows:
        r["suite"] = cfg.suite
    return rows, all(r["status"] == "pass" for r in rows), series


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="diskproj",
        description="identity and inequality suites for weighted "
                    "Bergman-type projections on the disk")
    ap.add_argument("--config", help="INI config path")
    ap.add_argument("--suite", choices=sorted(SUITES), help="suite name")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--depth", type=int, default=None,
                    help="quadrature depth J of the oneweight suite's "
                         "single run (a [weight] section); the other "
                         "suites run at fixed depths")
    ap.add_argument("--out", default=None, help="output directory")
    ap.add_argument("--no-timestamp", action="store_true",
                    help="suppress the timestamp comment (byte-stable CSV)")
    ap.add_argument("--svg", action="store_true", help="emit SVG plots")
    ap.add_argument("--list-catalog", action="store_true")
    args = ap.parse_args(argv)

    if args.list_catalog:
        print(list_catalog())
        return 0

    try:
        cfg = load_config(args)
    except (ConfigError, InvalidRangeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    start = time.time()
    try:
        rows, _, series = run_suite(cfg)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, InvalidRangeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DiskprojError as exc:
        print(f"computation failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 4

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    out_csv = cfg.out_dir / f"{cfg.suite}.csv"
    _write_csv(out_csv, rows, cfg.timestamp, time.time() - start)
    if cfg.svg and series:
        _write_svg(cfg.out_dir / f"{cfg.suite}.svg",
                   f"{cfg.suite}: value vs depth", series, SWEEP_DEPTHS)
    failed = [r["check"] for r in rows if r["status"] == "fail"]
    print(f"{cfg.suite}: {len(rows)} checks, "
          f"{len(rows) - len(failed)} passed, {len(failed)} failed "
          f"-> {out_csv}")
    for name in failed:
        print(f"  FAIL {name}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
