"""Radial-measure primitives against closed-form oracles.

Oracle values used below:
- power measure (alpha+1)(1-r^2)^alpha dr has moments
  m_j = (alpha+1)/2 * B((j+1)/2, alpha+1) (substitute u = r^2);
- alpha = -1/2 total mass is (1/2) arcsin(1) = pi/4;
- expinv has tail exactly exp(-1/(1-r)) (substitute u = 1/(1-r));
- loginv tails at the atom radii telescope to 1/(1 + k log 2).
"""

import math

import pytest

from diskproj import measures as ms
from diskproj.errors import ConfigError, InvalidRangeError


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


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.5, -0.5])
def test_power_measure_moments_match_beta_oracle(alpha):
    # alpha = -1/2 runs in the endpoint variable near r = 1
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


def test_catalog_factories_and_config():
    names = ms.catalog()
    for key in ("lebesgue", "power", "point1", "loginv", "expinv",
                "halfmix", "atoms"):
        assert key in names

    p = ms.make_measure("power", alpha=1)
    assert p.moment(1.0) == pytest.approx(power_moment_oracle(1.0, 1),
                                          rel=1e-10)
    atoms = ms.make_measure("atoms", atoms=[(0.5, 1.0), (1.0, 2.0)])
    assert atoms.atoms == ((0.5, 1.0), (1.0, 2.0))
    assert atoms.total_mass() == 3.0

    with pytest.raises(ConfigError):
        ms.make_measure("no-such-measure")
    with pytest.raises(ConfigError):
        ms.make_measure("atoms")


def test_invalid_ranges():
    with pytest.raises(InvalidRangeError):
        ms.RadialMeasure(name="bad", atoms=((1.5, 1.0),))
    with pytest.raises(InvalidRangeError):
        ms.RadialMeasure(name="bad", atoms=((0.5, -1.0),))
    leb = ms.lebesgue()
    with pytest.raises(InvalidRangeError):
        leb.interval_mass(0.7, 0.2)
    with pytest.raises(InvalidRangeError):
        leb.tail(1.5)
    with pytest.raises(InvalidRangeError):
        leb.moment(-1.0)
