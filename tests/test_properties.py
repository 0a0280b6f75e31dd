"""Property test: the kernel layer's entry points give finite values or
raise a DiskprojError on every accepted input.

Inputs: the catalog measures (power at alpha in {-1/2, 0, 1}), gamma in
{1, 2}, and arguments |w| < 1 (x = |w| in [0, 1) where a real argument
is needed). A silent NaN or infinity, or an exception that is not a
DiskprojError, fails the test.
"""

import functools
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from diskproj import kernels as kn
from diskproj import measures as ms
from diskproj.errors import DiskprojError

MEASURES = {
    "lebesgue": ms.lebesgue(),
    "power(-0.5)": ms.power_measure(-0.5),
    "power(0)": ms.power_measure(0.0),
    "power(1)": ms.power_measure(1.0),
    "point1": ms.make_measure("point1"),
    "loginv": ms.loginv(),
    "expinv": ms.expinv(),
    "halfmix": ms.half_atom_mix(),
}


@functools.lru_cache(maxsize=None)
def construction(name):
    return kn.construct_omega_from_nu(MEASURES[name], 16)


def assert_finite_or_raises(fn):
    try:
        value = fn()
    except DiskprojError:
        return
    assert np.all(np.isfinite(value)), value


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(sorted(MEASURES)),
       gamma=st.sampled_from([1.0, 2.0]),
       radius=st.floats(0.0, 1.0, exclude_max=True),
       angle=st.floats(0.0, 2.0 * math.pi))
def test_kernel_layer_is_finite_or_raises(name, gamma, radius, angle):
    nu = MEASURES[name]
    w = radius * complex(math.cos(angle), math.sin(angle))
    spec = kn.KernelSpec(gamma=gamma, nu=nu)
    assert_finite_or_raises(lambda: kn.nu_cauchy_transform(nu, w))
    assert_finite_or_raises(lambda: kn.kernel_integral(spec, w))
    assert_finite_or_raises(lambda: kn.lower_bound_eq4(nu, w))
    assert_finite_or_raises(lambda: construction(name).tail(radius))
    assert_finite_or_raises(
        lambda: kn.shi_ratio(spec, construction(name), radius))
