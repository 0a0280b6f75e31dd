"""Radial-measure primitives against closed-form oracles.

Oracle values used below:
- power measure (alpha+1)(1-r^2)^alpha dr has moments
  m_j = (alpha+1)/2 * B((j+1)/2, alpha+1) (substitute u = r^2);
- alpha = -1/2 total mass is (1/2) arcsin(1) = pi/4;
- expinv has tail exactly exp(-1/(1-r)) (substitute u = 1/(1-r));
- the power measure's tail at r is (alpha+1)/2 B(1/2, alpha+1)
  I_{1-r^2}(alpha+1, 1/2), with I the regularized incomplete beta
  function (substitute u = 1 - s^2);
- loginv tails at the atom radii telescope to 1/(1 + k log 2).

Interval masses and tails keep their relative accuracy as they shrink,
down to r = 1 - 2^-27. They run on the graded Gauss-Legendre rule, which
is pinned against adaptive Simpson quadrature (tests/quadrature_oracle.py)
for every catalog measure on the J=12 bands and tails.
"""

import math
import sys

import numpy as np
import pytest
from scipy.special import beta, betainc

from diskproj import measures as ms
from diskproj.errors import InvalidRangeError
from quadrature_oracle import adaptive_simpson


def power_moment_oracle(alpha, j):
    return (alpha + 1.0) / 2.0 * (
        math.gamma((j + 1.0) / 2.0) * math.gamma(alpha + 1.0)
        / math.gamma((j + 1.0) / 2.0 + alpha + 1.0))


def test_lebesgue_primitives():
    leb = ms.lebesgue()
    assert leb.total_mass() == pytest.approx(1.0, abs=1e-12)
    assert leb.interval_mass(0.0, 0.5) == pytest.approx(0.5, abs=1e-12)
    assert leb.tail(0.25) == pytest.approx(0.75, abs=1e-12)
    assert leb.moment(0.0) == pytest.approx(1.0, rel=1e-12)
    assert leb.moment(2.0) == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert leb.weighted_interval_mass(0.0, 1.0, exponent=1) == \
        pytest.approx(0.5, abs=1e-12)


def test_interval_additivity_with_atom_on_cut():
    mix = ms.half_atom_mix()   # Lebesgue + unit atom at 1/2
    left = mix.interval_mass(0.0, 0.5)
    right = mix.interval_mass(0.5, 1.0)
    # the atom sits on the cut and must be counted exactly once
    assert left + right == pytest.approx(mix.total_mass(), abs=1e-12)
    assert left == pytest.approx(0.5, abs=1e-12)
    assert right == pytest.approx(1.5, abs=1e-12)


def test_atom_boundary_conventions():
    one = ms.point_mass(1.0, 1.0)
    assert one.tail(0.9) == 1.0           # tail is the closed interval [r, 1]
    assert one.interval_mass(0.0, 0.9) == 0.0
    assert one.interval_mass(1.0, 1.0) == 1.0
    assert one.moment(7.0) == 1.0

    half = ms.point_mass(0.5, 2.0)
    assert half.interval_mass(0.5, 0.5) == 2.0   # degenerate: closed point
    assert half.interval_mass(0.2, 0.5) == 0.0   # [a, b) excludes b < 1
    assert half.interval_mass(0.5, 0.7) == 2.0
    assert half.moment(2.0) == 0.5


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.5, -0.5, -0.7, -0.9])
def test_power_measure_moments_match_beta_oracle(alpha):
    # alpha < 0 runs in the endpoint variable near r = 1
    rel = 1e-9 if alpha < 0.0 else 1e-10
    meas = ms.power_measure(alpha)
    for j in range(9):
        assert meas.moment(float(j)) == \
            pytest.approx(power_moment_oracle(alpha, j), rel=rel)


def test_power_measure_endpoint_singularity():
    # alpha = -1/2: integrable singularity at r = 1 handled by the
    # endpoint substitution; total mass is pi/4 exactly.
    meas = ms.power_measure(-0.5)
    assert meas.total_mass() == pytest.approx(math.pi / 4.0, rel=1e-9)
    # the rule in u reaches toward u = 0, where the bounded factor is
    # finite, and converges at alpha near -1 as well
    assert ms.power_measure(-0.9).total_mass() == \
        pytest.approx(power_moment_oracle(-0.9, 0), rel=1e-9)
    assert meas.tail(0.99) > 0.0
    with pytest.raises(InvalidRangeError):
        ms.power_measure(-1.0)


def test_loginv_tails_exact():
    lg = ms.loginv()
    assert lg.total_mass() == pytest.approx(1.0, abs=1e-12)
    for k in (0, 1, 5, 20, 45):
        r = 1.0 - 2.0 ** -k
        assert lg.tail(r) == pytest.approx(1.0 / (1.0 + k * math.log(2.0)),
                                           abs=1e-14)


def test_expinv_tail_closed_form():
    ex = ms.expinv()
    assert ex.tail(0.5) == pytest.approx(math.exp(-2.0), rel=1e-8)
    assert ex.tail(0.9) == pytest.approx(math.exp(-10.0), rel=1e-6)
    # tails and annulus masses far below 1e-12 keep their digits
    for k in range(1, 10):
        r, outer = 1.0 - 2.0 ** -k, 1.0 - 2.0 ** -(k + 1)
        assert ex.tail(r) == pytest.approx(math.exp(-2.0 ** k), rel=1e-11,
                                           abs=0.0)
        assert ex.interval_mass(r, outer) == pytest.approx(
            math.exp(-2.0 ** k) - math.exp(-2.0 ** (k + 1)), rel=1e-11,
            abs=0.0)


@pytest.mark.parametrize("alpha", [0.5, 2.5])
def test_power_measure_small_tails_match_incomplete_beta(alpha):
    meas = ms.power_measure(alpha)
    scale = (alpha + 1.0) / 2.0 * beta(0.5, alpha + 1.0)
    for k in range(1, 28):
        gap = 2.0 ** -k
        want = scale * betainc(alpha + 1.0, 0.5, gap * (2.0 - gap))
        assert meas.tail(1.0 - gap) == pytest.approx(want, rel=1e-7,
                                                     abs=0.0), k


def test_catalog_factories_and_config():
    names = ms.catalog()
    for key in ("lebesgue", "power", "point1", "loginv", "expinv",
                "halfmix"):
        assert key in names
    assert "atoms" not in names


def test_invalid_ranges():
    with pytest.raises(InvalidRangeError):
        ms.RadialMeasure(name="bad", density=lambda r: (1.0 - r) ** -0.5,
                         endpoint_power=-0.5)   # no endpoint_factor
    with pytest.raises(InvalidRangeError):
        ms.RadialMeasure(name="bad", atoms=((1.5, 1.0),))
    with pytest.raises(InvalidRangeError):
        ms.RadialMeasure(name="bad", atoms=((0.5, -1.0),))
    # NaN fails every comparison, so each parameter needs a finite check
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidRangeError):
            ms.power_measure(bad)
        with pytest.raises(InvalidRangeError):
            ms.RadialMeasure(name="bad", density=lambda r: r,
                             endpoint_power=bad)
        with pytest.raises(InvalidRangeError):
            ms.RadialMeasure(name="bad", atoms=((bad, 1.0),))
        with pytest.raises(InvalidRangeError):
            ms.point_mass(1.0, bad)
    # a non-finite density value raises on the rule instead of giving NaN
    for bad in (math.nan, math.inf):
        meas = ms.RadialMeasure(name="bad",
                                density=lambda r, v=bad: np.full_like(
                                    np.asarray(r, dtype=float), v))
        with pytest.raises(InvalidRangeError):
            meas.total_mass()
    leb = ms.lebesgue()
    with pytest.raises(InvalidRangeError):
        leb.interval_mass(0.7, 0.2)
    with pytest.raises(InvalidRangeError):
        leb.tail(1.5)
    with pytest.raises(InvalidRangeError):
        leb.moment(-1.0)
    # one order check for moments and weighted masses: r^-2 is not
    # integrable at 0, and a NaN order would give NaN
    with pytest.raises(InvalidRangeError):
        leb.moment(math.nan)
    for meas in (leb, ms.point_mass(0.5, 1.0)):
        for bad in (-2, -0.5, math.nan):
            with pytest.raises(InvalidRangeError):
                meas.weighted_interval_mass(0.0, 1.0, exponent=bad)


def test_density_not_finite_on_the_rule_raises():
    """A density that is NaN (or infinite) above r = 0.99 leaves the
    rule over [0, 1/2], and so the mass of [0, 1/2], alone, but every
    Gauss-Legendre rule over [0, 1] has nodes there: the rule, the
    moments, the kernel layer's moment table and total_mass raise
    instead of returning NaN."""
    from diskproj import kernels as kn

    for bad in (math.nan, math.inf):
        meas = ms.RadialMeasure(
            name="bad-tail",
            density=lambda r, v=bad: np.where(np.asarray(r) > 0.99, v, 1.0))
        assert meas.interval_mass(0.0, 0.5) == pytest.approx(0.5, rel=1e-12)
        nodes, weights = meas.density_rule(0.0, 0.5)
        assert np.all(np.isfinite(weights)) and nodes.max() < 0.5
        with pytest.raises(InvalidRangeError):
            meas.density_rule()
        with pytest.raises(InvalidRangeError):
            meas.moment(1.0)
        with pytest.raises(InvalidRangeError):
            kn.nu_moment_table(meas, 3)
        with pytest.raises(InvalidRangeError):
            meas.total_mass()


def test_adaptive_simpson_raises_on_nonfinite_integrand():
    """The first NaN or infinite value raises at once, real or complex;
    without the check a NaN integrand recursed toward depth 48."""
    calls = []

    def nan_above(x, v):
        calls.append(x)
        return v if x > 0.3 else x

    for bad in (math.nan, math.inf, complex(math.nan, 0.0)):
        calls.clear()
        with pytest.raises(InvalidRangeError):
            adaptive_simpson(lambda x: nan_above(x, bad), 0.0, 1.0)
        assert len(calls) <= 3          # f(a), f(b): b = 1 > 0.3
    assert adaptive_simpson(lambda x: 1j * x, 0.0, 1.0) == \
        pytest.approx(0.5j, abs=1e-15)


def test_signed_density_raises():
    """A density negative on part of [0, 1] is no measure. The rule's
    weight check rejects it once for every primitive built on the rule:
    before it, a J=4 quadrature came out with cell masses down to
    -0.0052."""
    from diskproj import disk as dk
    from diskproj.kernels import KernelSpec

    neg = ms.RadialMeasure(name="neg", density=lambda r: r - 0.5)
    with pytest.raises(InvalidRangeError):
        dk.build_quadrature(neg, J=4)
    with pytest.raises(InvalidRangeError):
        neg.total_mass()
    with pytest.raises(InvalidRangeError):
        KernelSpec(gamma=1.0, nu=neg, name="neg")


def simpson_weighted_mass(meas, a, b, exponent, rtol=1e-13):
    """int_[a,b) r^exponent domega with the interval_mass atom rule, the
    density part by adaptive Simpson to rtol relative to each piece's
    whole-interval Simpson estimate. Above 7/8 a density with
    endpoint_power p < 0 runs in u = (1-r)^q, q = 1 + p, where
    dr = -(s^(1-q) / q) du at the gap s = u^(1/q) = 1 - r."""
    def relative(f, lo, hi):
        whole = (hi - lo) / 6.0 * (f(lo) + 4.0 * f(0.5 * (lo + hi)) + f(hi))
        return adaptive_simpson(f, lo, hi, tol=max(
            sys.float_info.min, rtol * abs(whole)))

    total = 0.0
    dens = meas.density
    if dens is not None and a < b:
        cut = b
        if meas.endpoint_power < 0.0 and b > 0.875:
            cut = max(a, 0.875)
            q = 1.0 + meas.endpoint_power

            def in_u(u):
                s = u ** (1.0 / q)
                return (1.0 - s) ** exponent * meas.endpoint_factor(s) / q

            total += relative(in_u, (1.0 - b) ** q, (1.0 - cut) ** q)
        total += relative(lambda r: r ** exponent * dens(r), a, cut)
    for loc, mass in meas.atoms:
        if a <= loc < b or (b == 1.0 and loc == b):
            total += loc ** exponent * mass
    return total


CATALOG_MEASURES = [ms.lebesgue(), *(ms.power_measure(alpha) for alpha in
                                     (-0.9, -0.5, 0.5, 1.0, 2.0, 2.5)),
                    ms.expinv(), ms.half_atom_mix(), ms.loginv(),
                    ms.point_mass(1.0, 1.0, name="point1")]


@pytest.mark.parametrize("meas", CATALOG_MEASURES, ids=lambda m: m.name)
def test_rule_masses_and_tails_match_simpson_oracle(meas):
    """Every J=12 band mass (exponents 0 and 1) and the tails at
    r = 0, 1/4, 1/2 and 1 - 2^-k, k = 1..13, agree with adaptive Simpson
    to 1e-12 relative; the largest gap, expinv's, is about 3e-13."""
    edges = [(0.0, 0.25), (0.25, 0.5)] + [
        (1.0 - 2.0 ** -j, 1.0 - 2.0 ** -(j + 1)) for j in range(1, 13)]
    for a, b in edges:
        for exponent in (0, 1):
            assert meas.weighted_interval_mass(a, b, exponent) == \
                pytest.approx(simpson_weighted_mass(meas, a, b, exponent),
                              rel=1e-12, abs=0.0), (a, exponent)
    for r in [0.0, 0.25, 0.5] + [1.0 - 2.0 ** -k for k in range(1, 14)]:
        assert meas.tail(r) == pytest.approx(
            simpson_weighted_mass(meas, r, 1.0, 0), rel=1e-12, abs=0.0), r
