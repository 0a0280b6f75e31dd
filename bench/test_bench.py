"""Tests of the benchmark's own pieces: seeded inputs and the tracer.

Run from the repository root with ``python3 -m pytest bench``.
"""

import hashlib

import numpy as np
import pytest

from diskproj import disk, kernels, measures, operators, weights
from tracer import COUNTS, Tracer
from workloads import WORKLOADS


def input_digest(inputs):
    """SHA-256 over every seeded value in a workload's inputs: arrays,
    field and weight values, and plain numbers. Library objects that are
    built from these (quadratures, specs, handles) are skipped."""
    h = hashlib.sha256()

    def walk(x):
        if isinstance(x, dict):
            for k in sorted(x):
                h.update(str(k).encode())
                walk(x[k])
        elif isinstance(x, (list, tuple)):
            for item in x:
                walk(item)
        elif isinstance(x, np.ndarray):
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, (disk.Field, weights.WeightField)):
            walk(x.values)
        elif isinstance(x, (int, float, str, np.integer, np.floating)):
            h.update(repr(x).encode())

    walk(inputs)
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_seed_gives_identical_inputs(name, tmp_path):
    setup = WORKLOADS[name].setup
    first = input_digest(setup(3, tmp_path))
    assert input_digest(setup(3, tmp_path)) == first
    assert input_digest(setup(4, tmp_path)) != first


def _small_apply():
    """One apply on each route: dense, matrix-free and dyadic fast."""
    atom = measures.point_mass(1.0, 1.0)
    quad = disk.build_quadrature(measures.lebesgue(), J=4)
    ones = np.ones(quad.size)
    handle = operators.bergman_handle(kernels.KernelSpec(gamma=1.0, nu=atom),
                                      quad)
    handle.apply(ones)
    handle.apply(ones, matrix_free=True)
    psi = operators.PsiProfile(1.0, atom)
    operators.dyadic_handle(0.0, psi, quad).apply(ones)
    return quad.size


def test_tracer_spans_cross_module_bindings_and_restores():
    original = operators.kernel_integral_grid
    tracer = Tracer()
    tracer.install()
    try:
        assert operators.kernel_integral_grid is not original
        n = _small_apply()
        first = dict(tracer.counts)
        tracer.reset()
        _small_apply()
        assert dict(tracer.counts) == first
    finally:
        tracer.uninstall()
    assert operators.kernel_integral_grid is original
    assert set(COUNTS) <= set(first)
    assert first["operators.dense_applies"] == 1
    assert first["operators.matrix_free_applies"] == 1
    assert first["operators.fast_applies"] == 1
    assert first["operators.kernel_entries"] == 2 * n * n
    assert first["operators.matrix_bytes"] == n * n * 16
    assert first["disk.cells"] == n
    calls, self_s, _ = tracer.layer_table()
    # operators calls kernel_integral_grid through its own binding; the
    # kernels time must land in a kernels span, not in operators.
    assert {name for name, layer, *_ in tracer.spans if layer == "kernels"} \
        >= {"kernel_integral_grid", "nu_cauchy_grid"}
    assert calls["operators"] >= 2 and self_s["kernels"] > 0.0
