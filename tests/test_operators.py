"""Projection handles, dyadic models, and the lower-bound lemmas.

Oracles used here:
  * gamma=1, nu = atom at 1 gives Psi(t) = 1/t, so the dyadic level
    coefficient Psi(2^-l) 2^l is 4^l and two points sharing squares at
    levels 0..2 see kernel 1 + 4 + 16 = 21.
  * the separation margin g(D) is recomputed from scratch and checked
    to bracket the bisection output.
  * the exact p=2 weighted norm for a diagonal 2x2 instance is 4 by
    hand: diag(sqrt(u mu)) K diag(sqrt(sigma mu)) = diag(2 sqrt 3, 4).
  * the kernel handles' band-pair tables are pinned against kernels
    evaluated directly at every node pair w = z_j conj(z_i), the dense
    route the tables replace; the mode-domain apply is pinned against
    the rows gathered from the tables, and each (b, a) table filled by
    conjugated reversal against the kernel at its own arguments.
  * the span-class build of the tables, the mode matrix and the grouped
    band FFTs is pinned bit for bit against the per-pair build it
    replaced (per_pair_tables, per_pair_modes, per_band_apply): one
    table, one COO block and one FFT per band pair or band.
  * the matrix-free norms are pinned against dense oracles on the
    gathered kernel: svdvals at p = 2, and at p != 2 a nonlinear power
    iteration from random starts, which must land inside the bracket.
    At J = 10 the p = 2 norm is also pinned against ARPACK (svds) on
    the same applies, the route the library's Lanczos replaced.
  * under radial weights a band-pair handle's p = 2 norm runs on the
    residue-0 block of its mode matrix: it is pinned against svdvals,
    ARPACK, and the cell-domain Lanczos (cell_route), including where
    that route breaks down and raises.
  * the comparability constants, the extremes over node pairs of
    K_Psi / (K^0 + K^(1/2)), are pinned against the pointwise route the
    library used to sample: psi at |1 - conj(zeta) z| over dyadic
    kernels that test square membership level by level with a radius
    threshold and an arc index, at every node pair; and the rows the
    library reads against all rows, bitwise.
Deterministic grid quantities (identity error, comparability range)
were computed once and frozen.
"""

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import svdvals
from scipy.sparse import csr_array
from scipy.sparse.linalg import LinearOperator, svds

from diskproj import czd
from diskproj import disk as dk
from diskproj import measures as ms
from diskproj import operators as op
from diskproj import twoweight as tw
from diskproj import weights as wt
from diskproj.errors import (InvalidRangeError, NoConvergenceError,
                             QuadratureMismatchError)
from diskproj.kernels import KernelSpec, kernel_integral_grid

ATOM1 = ms.point_mass(1.0, 1.0)
STD = KernelSpec(gamma=1.0, nu=ATOM1, name="std")


def std_psi():
    return op.PsiProfile(1.0, ATOM1, name="std")


def gather(h):
    """The handle's full kernel matrix, gathered: a dense test oracle."""
    return h.kernel_block(np.arange(h.mu.size))


def test_psi_profile_closed_forms():
    psi = std_psi()
    for t in (0.01, 0.25, 1.0, 2.0):
        assert psi(t) == pytest.approx(1.0 / t, rel=1e-14)
    grid = np.array([0.5, 1.5])
    np.testing.assert_allclose(psi(grid), 1.0 / grid, rtol=1e-14)
    assert psi(2.0 ** -10) == pytest.approx(2.0 ** 10, rel=1e-14)
    psi2 = op.PsiProfile(2.0, ATOM1)
    assert psi2(0.3) == pytest.approx(1.0 / 0.3 ** 2, rel=1e-13)
    t = np.array([2.0, 1.0, 0.25, 2.0 ** -10])
    np.testing.assert_allclose(psi2(t), 1.0 / t ** 2, rtol=1e-14)
    z, zeta = 0.5 + 0.1j, 0.3 - 0.4j
    t = abs(1.0 - np.conj(zeta) * z)
    assert psi.kernel(z, zeta) == pytest.approx(1.0 / t ** 2, rel=1e-13)
    for gamma in (0.5, math.inf, math.nan):
        with pytest.raises(InvalidRangeError):
            op.PsiProfile(gamma, ATOM1)
    with pytest.raises(InvalidRangeError):
        psi(0.0)
    with pytest.raises(InvalidRangeError):
        psi(2.5)


def test_psi_profile_rejects_zero_mass_nu():
    """A profile takes KernelSpec's checks: a nu without mass has no
    profile, where it used to give comparability constants (inf, 0)."""
    for location in (1.0, 0.5):
        with pytest.raises(InvalidRangeError):
            op.PsiProfile(1.0, ms.point_mass(location, 0.0))


def test_projection_identity_error_frozen(leb_quad5, leb_quad6):
    err5 = op.projection_identity_error(STD, leb_quad5)
    err6 = op.projection_identity_error(STD, leb_quad6)
    assert err5 == pytest.approx(0.03094312361260676, rel=1e-9)
    assert err6 == pytest.approx(0.015501229081356538, rel=1e-9)
    assert err6 < err5  # refinement shrinks the truncation error


def test_handle_matrix_consistency(leb_quad5):
    quad = leb_quad5
    rng = np.random.default_rng(5)
    f = rng.uniform(-1.0, 1.0, size=quad.size)
    h = op.bergman_handle(STD, quad)
    K = gather(h)
    via_matrix = K @ (f * quad.masses)
    np.testing.assert_allclose(h.apply(f), via_matrix, rtol=1e-12)
    np.testing.assert_allclose(h.apply(f, matrix_free=True), via_matrix,
                               rtol=1e-12)
    pos = op.positive_handle(STD, quad)
    np.testing.assert_allclose(gather(pos), np.abs(K), rtol=1e-13)
    # the Psi handle is real symmetric by construction
    ph = op.psi_positive_handle(std_psi(), quad)
    m = gather(ph)
    assert np.all(m > 0.0)
    np.testing.assert_allclose(m, m.T, rtol=1e-13)


NUS = {"atom": ATOM1, "lebesgue": ms.lebesgue(), "halfmix": ms.half_atom_mix()}


@pytest.mark.parametrize("J, j0", [(6, 0), (5, 1)])
@pytest.mark.parametrize("gamma", [1.0, 2.0])
@pytest.mark.parametrize("nu_name", sorted(NUS))
def test_table_route_matches_dense_oracle(nu_name, gamma, J, j0):
    """FFT apply and gathered rows of the three kernel handles
    against kernels evaluated directly at every pair w = z_j conj(z_i)."""
    nu = NUS[nu_name]
    quad = dk.build_quadrature(ms.lebesgue(), J=J, j0=j0)
    spec = KernelSpec(gamma=gamma, nu=nu)
    psi = op.PsiProfile(gamma, nu)
    z = quad.nodes_z
    B = kernel_integral_grid(spec, z[None, :] * np.conj(z[:, None]))
    cases = [(op.bergman_handle(spec, quad), np.conj(B)),
             (op.positive_handle(spec, quad), np.abs(B)),
             (op.psi_positive_handle(psi, quad),
              psi.kernel(z[:, None], z[None, :]))]
    rng = np.random.default_rng(10 * J + j0)
    f = rng.standard_normal(quad.size) + 1j * rng.standard_normal(quad.size)
    for h, K in cases:
        want = K @ (f * quad.masses)
        for matrix_free in (False, True):
            got = h.apply(f, matrix_free=matrix_free)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.max(np.abs(gather(h) - K)) <= 1e-12 * np.max(np.abs(K))
        if h.positive:
            assert np.isrealobj(h.apply(f.real))


def test_table_evaluates_each_band_pair_offset_once(monkeypatch):
    """One kernel call, at the max(n_a, n_b) offsets of each unordered
    band pair: the (b, a) tables are filled from the (a, b) ones."""
    quad = dk.build_quadrature(ms.lebesgue(), J=6, j0=0)
    arcs = [b.arc_count for b in quad.bands]
    distinct = sum(max(a, b) for i, a in enumerate(arcs) for b in arcs[i:])
    assert distinct == 900 < quad.size ** 2
    sizes = []
    evaluate = op.kernel_integral_grid

    def counted(spec, w):
        sizes.append(np.size(w))
        return evaluate(spec, w)

    monkeypatch.setattr(op, "kernel_integral_grid", counted)
    h = op.bergman_handle(STD, quad)
    assert sizes == []   # nothing is evaluated before first use
    ones = np.ones(quad.size)
    h.apply(ones)
    h.apply(ones, matrix_free=True)
    gather(h)
    assert sizes == [distinct]


def test_bergman_and_positive_handles_share_one_table(monkeypatch):
    """A Bergman and a positive handle on one spec and quadrature
    evaluate the kernel once, and their tables are bit for bit those of
    lone handles; another spec object, or another quadrature, evaluates
    again."""
    def fresh():
        return (KernelSpec(gamma=1.0, nu=ms.lebesgue()),
                dk.build_quadrature(ms.lebesgue(), J=5, j0=0))

    lone_conj = op.bergman_handle(*fresh()).values
    lone_abs = op.positive_handle(*fresh()).values
    specs = []
    evaluate = op.kernel_integral_grid

    def counted(spec, w):
        specs.append(spec)
        return evaluate(spec, w)

    monkeypatch.setattr(op, "kernel_integral_grid", counted)
    spec, quad = fresh()
    bergman = op.bergman_handle(spec, quad)
    positive = op.positive_handle(spec, quad)
    assert np.array_equal(positive.values, lone_abs)
    assert np.array_equal(bergman.values, lone_conj)
    assert specs == [spec]
    other_spec, other_quad = fresh()
    op.bergman_handle(other_spec, quad).values
    op.positive_handle(spec, other_quad).values
    op.bergman_handle(spec, quad).values
    assert specs == [spec, other_spec, spec]


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="a second BLAS thread needs a second CPU")
def test_table_builds_run_no_blas_worker_threads():
    """A power(1/2)-nu Bergman first apply at J=8, which sums the nu
    integral on the full density rule, in a fresh interpreter allowed
    two OpenBLAS threads: its CPU time stays near its wall time. A BLAS
    product in the rule sums runs on both threads and reads about 2."""
    src = str(pathlib.Path(op.__file__).resolve().parents[1])
    code = ("import time, numpy as np; "
            "from diskproj import disk, kernels, measures, operators; "
            "q = disk.build_quadrature(measures.lebesgue(), J=8); "
            "h = operators.bergman_handle(kernels.KernelSpec("
            "1.0, measures.power_measure(0.5)), q); f = np.ones(q.size); "
            "w, c = time.perf_counter(), time.process_time(); h.apply(f); "
            "print((time.process_time() - c) / (time.perf_counter() - w))")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "2"}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert float(out) <= 1.3


def per_pair_tables(h, kernel_of_w):
    """{(a, b): T_ab}, built pair by pair: one kernel call at the
    arguments of the pairs a <= b, pair-major, then each (b, a) table as
    the conjugated reversal of the (a, b) one."""
    arcs, span = h._arcs, h._span
    radius = h.quad.nodes_r[h._starts]
    upper = list(zip(*np.triu_indices(arcs.size)))
    w = []
    for a, b in upper:
        n = span[a, b]
        delta = 0.5 * (n // arcs[b] - n // arcs[a])
        angle = (np.arange(n) + delta) / n
        w.append(radius[a] * radius[b] * np.exp(2j * np.pi * angle))
    k = np.asarray(kernel_of_w(np.concatenate(w)))
    tables = {}
    for (a, b), t in zip(upper, np.split(
            k, np.cumsum([x.size for x in w])[:-1])):
        tables[b, a] = np.conj(t[-np.arange(t.size) % t.size])
        tables[a, b] = t   # a == b keeps the evaluated table
    return tables


def per_pair_modes(h, tables):
    """The mode matrix from COO triples, one block per band pair: block
    (a, b) sends DFT entry m mod n_b of band b to entry m mod n_a of
    band a times ifft(T_ab)[m] n_a / N."""
    rows, cols, data = [], [], []
    for a, b in np.ndindex(h._span.shape):
        t = tables[a, b]
        m = np.arange(t.size)
        rows.append(h._starts[a] + m % h._arcs[a])
        cols.append(h._starts[b] + m % h._arcs[b])
        data.append(np.fft.ifft(t, norm="forward") * (h._arcs[a] / t.size))
    n = h.quad.size
    return csr_array((np.concatenate(data), (
        np.concatenate(rows), np.concatenate(cols))), shape=(n, n))


def per_band_apply(h, modes, g):
    """K @ g with one FFT and one inverse FFT per band."""
    bands = [slice(b.start, b.start + b.arc_count) for b in h.quad.bands]
    acc = modes @ np.concatenate([np.fft.fft(g[s]) for s in bands])
    out = np.concatenate([np.fft.ifft(acc[s]) for s in bands])
    return out.real if h.positive and not np.iscomplexobj(g) else out


def table_cases(gamma, nu, quad):
    """(name, handle, kernel of w) for the three kernel handles."""
    spec = KernelSpec(gamma=gamma, nu=nu)
    psi = op.PsiProfile(gamma, nu)
    return [
        ("bergman", op.bergman_handle(spec, quad),
         lambda w: np.conj(kernel_integral_grid(spec, w))),
        ("positive", op.positive_handle(spec, quad),
         lambda w: np.abs(kernel_integral_grid(spec, w))),
        ("psi-positive", op.psi_positive_handle(psi, quad),
         lambda w: psi.kernel(w, 1.0))]


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(J=st.integers(1, 7), j0=st.integers(0, 3),
       kind=st.sampled_from(["bergman", "positive", "psi-positive"]),
       nu_name=st.sampled_from(["atom", "lebesgue"]),
       gamma=st.sampled_from([1.0, 2.0]), real=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_mode_apply_matches_gathered_rows(J, j0, kind, nu_name, gamma, real,
                                          seed):
    """The mode-domain apply against the rows gathered from the tables,
    on complex fields, and on real fields for the positive handles."""
    quad = dk.build_quadrature(ms.lebesgue(), J=J, j0=j0)
    h = next(h for name, h, _ in table_cases(gamma, NUS[nu_name], quad)
             if name == kind)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(quad.size)
    if not (real and h.positive):
        f = f + 1j * rng.standard_normal(quad.size)
    want = h.apply(f, matrix_free=True)
    got = h.apply(f)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    if h.positive and real:
        assert np.isrealobj(got)


@pytest.mark.parametrize("J, j0", [(6, 0), (5, 2)])
def test_mode_matrix_has_one_nonzero_per_table_value(J, j0):
    quad = dk.build_quadrature(ms.lebesgue(), J=J, j0=j0)
    arcs = [b.arc_count for b in quad.bands]
    size = sum(max(a, b) for a in arcs for b in arcs)
    for _, h, _ in table_cases(1.0, ATOM1, quad):
        assert h.values.size == size
        assert h.modes.shape == (quad.size, quad.size)
        assert h.modes.nnz == size


@pytest.mark.parametrize("J, j0", [(6, 0), (5, 2)])
@pytest.mark.parametrize("nu_name", ["atom", "lebesgue"])
def test_filled_tables_match_direct_evaluation(nu_name, J, j0):
    """Every (b, a) table with b > a, filled by conjugated reversal, against
    the kernel evaluated at its own arguments
    r_a r_b e^{2 pi i (m + (s_a - s_b) / 2) / N}, read at its offset."""
    quad = dk.build_quadrature(ms.lebesgue(), J=J, j0=j0)
    arcs = [b.arc_count for b in quad.bands]
    radius = [0.5 * (b.r_lo + b.r_hi) for b in quad.bands]
    for name, h, kernel in table_cases(2.0, NUS[nu_name], quad):
        values = h.values
        scale = np.max(np.abs(values))
        for b, n_b in enumerate(arcs):
            for a, n_a in enumerate(arcs[:b]):
                span = max(n_a, n_b)
                shift = 0.5 * (span // n_a - span // n_b)
                w = radius[a] * radius[b] * np.exp(
                    2j * np.pi * (np.arange(span) + shift) / span)
                got = values[h._offset[b, a]:h._offset[b, a] + span]
                assert np.max(np.abs(got - kernel(w))) <= 1e-12 * scale, \
                    (name, b, a)
        assert values.size == sum(max(n_a, n_b) for n_a in arcs
                                  for n_b in arcs)


@pytest.mark.parametrize("J, j0", [(6, 0), (5, 2), (8, 1)])
@pytest.mark.parametrize("nu_name", ["atom", "lebesgue"])
def test_span_class_build_matches_per_pair_oracle(nu_name, J, j0):
    """Each (a, b) table at its offset, the mode matrix's indptr,
    indices and data, and fast_apply on real and complex fields, bit
    for bit against the per-pair build; and the residue-0 block, built
    from the tables folded by the core arc count, against the per-pair
    mode matrix's rows and columns at those modes, to 1e-14 of its
    largest entry."""
    quad = dk.build_quadrature(ms.lebesgue(), J=J, j0=j0)
    core = quad.bands[0].arc_count
    residue = np.flatnonzero(quad.cell_arc % core == 0)
    rng = np.random.default_rng(J)
    f = rng.standard_normal(quad.size)
    for name, h, kernel in table_cases(2.0, NUS[nu_name], quad):
        tables = per_pair_tables(h, kernel)
        for (a, b), t in tables.items():
            got = h.values[h._offset[a, b]:h._offset[a, b] + t.size]
            assert got.dtype == t.dtype and np.array_equal(got, t), \
                (name, a, b)
        want = per_pair_modes(h, tables)
        assert want.has_canonical_format
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(h.modes, part),
                                  getattr(want, part)), (name, part)
        for g in (f, f + 1j * f[::-1]):
            got, oracle = h.fast_apply(g), per_band_apply(h, want, g)
            assert got.dtype == oracle.dtype and np.array_equal(got, oracle)
        block = want[residue][:, residue].toarray()
        assert np.max(np.abs(h._mode_matrix(core).toarray() - block)) <= \
            1e-14 * np.max(np.abs(block)), name


def counted_transforms(monkeypatch):
    """Patch np.fft.fft and np.fft.ifft to record (name, norm) per call."""
    calls = []
    for name in ("fft", "ifft"):
        def counted(x, *args, _name=name, _transform=getattr(np.fft, name),
                    **kwargs):
            calls.append((_name, kwargs.get("norm")))
            return _transform(x, *args, **kwargs)
        monkeypatch.setattr(op.np.fft, name, counted)
    return calls


@pytest.mark.parametrize("J, j0", [(6, 0), (5, 2), (8, 1)])
def test_transforms_run_once_per_span_and_band_size(monkeypatch, J, j0):
    """A mode-matrix build takes one inverse FFT per distinct span, and an
    apply one FFT and one inverse FFT per distinct band size, however
    many band pairs and bands share them."""
    quad = dk.build_quadrature(ms.lebesgue(), J=J, j0=j0)
    sizes = len({b.arc_count for b in quad.bands})   # = distinct spans
    assert sizes == J == len(quad.bands) - 2
    calls = counted_transforms(monkeypatch)
    for name, h, _ in table_cases(1.0, ATOM1, quad):
        calls.clear()
        h.modes
        assert calls == [("ifft", "forward")] * sizes, name
        calls.clear()
        h.fast_apply(np.ones(quad.size))
        assert calls == [("fft", None)] * sizes + [("ifft", None)] * sizes


def test_repeated_requests_build_once_per_spec_and_quadrature(monkeypatch):
    """The one-weight sweep's pattern: 13 positive-handle requests on one
    spec over three quadratures, each with a Bergman request beside it,
    evaluate the kernel once per quadrature and build each kind's mode
    matrix once per quadrature."""
    spec = KernelSpec(gamma=1.0, nu=ATOM1)
    quads = [dk.build_quadrature(ms.lebesgue(), J=J) for J in (4, 5, 6)]
    evaluated = []
    evaluate = op.kernel_integral_grid

    def counted(spec_, w):
        evaluated.append(spec_)
        return evaluate(spec_, w)

    monkeypatch.setattr(op, "kernel_integral_grid", counted)
    calls = counted_transforms(monkeypatch)
    for i in range(13):
        quad = quads[i % 3]
        for handle in (op.positive_handle, op.bergman_handle):
            handle(spec, quad).apply(np.ones(quad.size))
    assert evaluated == [spec] * 3
    builds = calls.count(("ifft", "forward"))
    assert builds == 2 * sum(len({b.arc_count for b in q.bands})
                             for q in quads)


def test_projection_identity_error_density_deep():
    """A lebesgue-nu projection at J=10, 4100 cells: past the dense
    threshold, finite, and closer to the identity than at J=8."""
    spec = KernelSpec(gamma=1.0, nu=ms.lebesgue())
    err8, err10 = (op.projection_identity_error(
        spec, dk.build_quadrature(ms.lebesgue(), J=J)) for J in (8, 10))
    assert math.isfinite(err10) and err10 < err8


def test_projection_identity_error_tracks_depth_at_j0_2():
    """With four-arc core rings (j0=1) the monitor stalls near 4e-3 from
    J=10; with j0=2 it stays within 5% of 2^-J for an atom nu."""
    for J in range(8, 12):
        err = op.projection_identity_error(
            STD, dk.build_quadrature(ms.lebesgue(), J=J, j0=2))
        assert err == pytest.approx(2.0 ** -J, rel=0.05), J


def test_dyadic_handle_fast_matches_matrix(leb_quad5):
    quad = leb_quad5
    rng = np.random.default_rng(11)
    f = rng.uniform(0.0, 2.0, size=quad.size)
    h = op.dyadic_handle(0.0, std_psi(), quad)
    fast = h.apply(f)
    K = gather(h)
    slow = K @ (f * quad.masses)
    np.testing.assert_allclose(fast, slow, rtol=1e-12)
    np.testing.assert_allclose(K, K.T)
    # tau on the root square alone, which holds every node
    root = tw.sparse_bergman_model(std_psi(), quad, tau=np.concatenate([
        np.array([quad.total_mass()])] + [np.zeros(2 ** lev)
                                          for lev in range(1, quad.J + 1)]))
    want = float(np.sum(f * quad.masses))
    np.testing.assert_allclose(root.apply(f), want, rtol=1e-13)
    h_half = op.dyadic_handle(0.5, std_psi(), quad)
    np.testing.assert_allclose(h_half.apply(f),
                               gather(h_half) @ (f * quad.masses),
                               rtol=1e-12)


@pytest.mark.parametrize("beta", [0.0, 0.5])
@pytest.mark.parametrize("J", [3, 6])
def test_sparse_apply_complex_field(beta, J):
    """A complex field goes through the real and imaginary parts; a real
    field stays real."""
    quad = dk.build_quadrature(ms.lebesgue(), J=J)
    T = tw.sparse_bergman_model(std_psi(), quad, beta=beta)
    rng = np.random.default_rng(J)
    f = rng.standard_normal(quad.size) + 1j * rng.standard_normal(quad.size)
    want = T.kernel_block(np.arange(quad.size)) @ (f * quad.masses)
    got = tw.apply_sparse(T, dk.Field(quad, f)).values
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    np.testing.assert_allclose(T.apply(f), got, rtol=0.0, atol=0.0)
    assert np.isrealobj(T.apply(f.real))


def dyadic_kernel_polar(beta, psi, r1, t1, r2, t2, L_max):
    """sum over grid squares S(I), level <= L_max, containing both points
    (r1, t1) and (r2, t2), t in turns, of Psi(|I|)/|I|, over paired
    arrays. Levels are scanned independently: the half-shifted family is
    not nested, so membership is not monotone in the level."""
    out = np.zeros(np.broadcast(r1, t1, r2, t2).shape)
    for l in range(L_max + 1):
        thr = 1.0 - 2.0 ** -l
        both = (r1 >= thr) & (r2 >= thr) & \
            (dk.arc_index(beta, l, t1) == dk.arc_index(beta, l, t2))
        out[both] += float(psi(2.0 ** -l)) * 2.0 ** l
    return out


def dyadic_kernel_pairs(beta, psi, z, zeta, L_max):
    """dyadic_kernel_polar at paired points of the disk."""
    def turns(x):
        return (np.angle(x) / (2 * np.pi)) % 1.0
    return dyadic_kernel_polar(beta, psi, np.abs(z), turns(z), np.abs(zeta),
                               turns(zeta), L_max)


def pointwise_ratio(psi, r1, t1, r2, t2, L_max):
    """K_Psi / (K^0 + K^(1/2)) at paired points in polar form, dyadic
    levels <= L_max."""
    z, zeta = r1 * np.exp(2j * np.pi * t1), r2 * np.exp(2j * np.pi * t2)
    sep = np.abs(1.0 - np.conj(zeta) * z)
    return psi(sep) / sep / sum(
        dyadic_kernel_polar(beta, psi, r1, t1, r2, t2, L_max)
        for beta in dk.GRID_SHIFTS)


def sampled_comparability(psi, sample_count, seed, J=8, L_max=None):
    """min and max of pointwise_ratio over pairs sampled boundary-clustered
    in the truncated disk of depth J, dyadic levels <= L_max (default
    J + 1): the estimator the comparability suite used to run."""
    L_max = J + 1 if L_max is None else L_max
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=(2, sample_count))
    r = 1.0 - np.power(2.0, -u * (J + 1))
    t = rng.uniform(size=(2, sample_count))
    ratio = pointwise_ratio(psi, r[0], t[0], r[1], t[1], L_max)
    return float(ratio.min()), float(ratio.max())


def test_dyadic_kernel_hand_value():
    psi = std_psi()
    z = 0.9 * np.exp(2j * np.pi * 0.01)
    zeta = 0.9 * np.exp(2j * np.pi * 0.02)
    # shared squares at levels 0, 1, 2 with coefficients 4^l
    assert float(dyadic_kernel_pairs(0.0, psi, z, zeta, 2)) == 21.0
    # radius 0.9 misses the level-4 band even though the arcs agree
    assert float(dyadic_kernel_pairs(0.0, psi, z, zeta, 6)) == \
        pytest.approx(21.0 + 64.0)
    # random pairs against a scan of every grid arc at every level
    rng = np.random.default_rng(2)
    zs = 0.97 * np.exp(2j * np.pi * rng.random(50))
    ws = 0.97 * np.exp(2j * np.pi * rng.random(50))
    for beta in (0.0, 0.5):
        vec = dyadic_kernel_pairs(beta, psi, zs, ws, 6)
        want = np.zeros(zs.size)
        for k, (a, b) in enumerate(zip(zs, ws)):
            ta, tb = (np.angle([a, b]) / (2.0 * np.pi)) % 1.0
            for level in range(7):
                if min(abs(a), abs(b)) < 1.0 - 2.0 ** -level:
                    continue
                for m in range(2 ** level):
                    arc = dk.DyadicInterval(beta, level, m).arc
                    if arc.contains(ta) and arc.contains(tb):
                        want[k] += 4.0 ** level
        np.testing.assert_allclose(vec, want, rtol=1e-13)
    # the sampled estimator keeps the values it gave in the library
    lo, hi = sampled_comparability(psi, 200, seed=1)
    assert lo == pytest.approx(0.019607385808610732, rel=1e-9)
    assert hi == pytest.approx(1.3757575185586914, rel=1e-9)


PSIS = {"atom1": std_psi(), "lebesgue": op.PsiProfile(1.0, ms.lebesgue())}


@pytest.mark.parametrize("j0", [0, 1, 2])
@pytest.mark.parametrize("psi_name", sorted(PSIS))
def test_comparability_matches_pointwise_oracle(psi_name, j0):
    """The extremes over node pairs against the pointwise ratio at every
    node pair, dyadic levels <= J. The oracle takes the node angles as
    they are: at j0 = 0 nodes lie on arc ends, and an angle recovered by
    np.angle can fall into the arc before."""
    psi = PSIS[psi_name]
    for J in range(1, 7):
        quad = dk.build_quadrature(ms.lebesgue(), J=J, j0=j0)
        r, t = quad.nodes_r, quad.nodes_t
        ratio = pointwise_ratio(psi, r[:, None], t[:, None], r[None, :],
                                t[None, :], J)
        want = (ratio.min(), ratio.max())
        got = op.comparability_constants(psi, quad)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0,
                                   err_msg=f"J={J}")


def all_row_ratio(psi, quad):
    """K_Psi / (K^0 + K^(1/2)) at every node pair, from the handles."""
    rows = np.arange(quad.size)
    return op.psi_positive_handle(psi, quad).kernel_block(rows) / sum(
        op.dyadic_handle(beta, psi, quad).kernel_block(rows)
        for beta in dk.GRID_SHIFTS)


@pytest.mark.parametrize("j0", [0, 1, 2, 3])
def test_comparability_rows_hold_all_extremes(j0):
    """The rows the library reads give bitwise the extremes of all rows."""
    for psi in PSIS.values():
        for J in range(1, 8):
            quad = dk.build_quadrature(ms.lebesgue(), J=J, j0=j0)
            ratio = all_row_ratio(psi, quad)
            assert op.comparability_constants(psi, quad) == \
                (ratio.min(), ratio.max()), (J, j0)


@pytest.mark.parametrize("j0", [0, 1, 2])
def test_dyadic_kernel_symmetries(j0):
    """The half turn keeps the dyadic kernel sum at every j0; the
    reflection t -> 1 - t keeps it only when no node lies on an arc end,
    j0 >= 1. At j0 = 0 annulus-l nodes start half-shifted level-l arcs."""
    quad = dk.build_quadrature(ms.lebesgue(), J=5, j0=j0)
    rows = np.arange(quad.size)
    den = sum(op.dyadic_handle(beta, std_psi(), quad).kernel_block(rows)
              for beta in dk.GRID_SHIFTS)
    band, arc = quad.cell_band, quad.cell_arc
    start = np.array([b.start for b in quad.bands])[band]
    n = np.array([b.arc_count for b in quad.bands])[band]
    turned = start + (arc + n // 2) % n
    reflected = start + n - 1 - arc
    np.testing.assert_array_equal(den[np.ix_(turned, turned)], den)
    assert np.array_equal(den[np.ix_(reflected, reflected)], den) == (j0 > 0)


BAD_DYADIC_INPUTS = {
    "tau-nan": lambda q: tw.sparse_bergman_model(std_psi(), q, tau=(
        np.concatenate([np.full(2 ** lev, np.nan if lev == 1 else 1.0)
                        for lev in range(q.J + 1)]))),
    "bp-depth-negative": lambda q: wt.bp_characteristic(
        wt.weight_field(q), 2.0, -1),
    "maximal-shift-off-grid": lambda q: wt.dyadic_maximal(
        q, q.masses, 0.3, np.ones(q.size)),
    "shift-off-grid": lambda q: op.dyadic_handle(0.3, std_psi(), q),
    # a fractional depth raised TypeError, and NaN ran at full depth
    "testing-depth-fractional": lambda q: tw.testing_constants(
        tw.sparse_bergman_model(std_psi(), q), wt.weight_field(q),
        wt.weight_field(q), 2.0, 3.5),
    "testing-depth-nan": lambda q: tw.testing_constants(
        tw.sparse_bergman_model(std_psi(), q), wt.weight_field(q),
        wt.weight_field(q), 2.0, math.nan),
    "maximal-nu-nan": lambda q: wt.dyadic_maximal(
        q, np.full(q.size, np.nan), 0.0, np.ones(q.size)),
    "maximal-nu-negative": lambda q: wt.weak11_maximal_check(
        q, -q.masses, 0.0, dk.Field.constant(q, 1.0)),
    "maximal-nu-short": lambda q: wt.weak11_maximal_check(
        q, q.masses[:-1], 0.5, dk.Field.constant(q, 1.0)),
}


@pytest.mark.parametrize("call", BAD_DYADIC_INPUTS.values(),
                         ids=list(BAD_DYADIC_INPUTS))
def test_dyadic_inputs_out_of_range_raise(leb_quad5, call):
    with pytest.raises(InvalidRangeError):
        call(leb_quad5)


def one_field(q):
    return dk.Field.constant(q, 1.0)


NONFINITE_FIELD_CALLS = {
    "dyadic-maximal": lambda q, f: wt.dyadic_maximal(q, q.masses, 0.0, f),
    "weak11-maximal": lambda q, f: wt.weak11_maximal_check(
        q, q.masses, 0.5, dk.Field(q, f)),
    "weak11-projection-f": lambda q, f: wt.weak11_projection_check(
        wt.weight_field(q), dk.Field(q, f), one_field(q)),
    "weak11-projection-output": lambda q, f: wt.weak11_projection_check(
        wt.weight_field(q), dk.Field.constant(q, 0.0), dk.Field(q, f)),
    "split-f": lambda q, f: tw.split_by_criterion(
        dk.Field(q, f), one_field(q), wt.weight_field(q),
        wt.weight_field(q), 2.0, 2),
    "split-g": lambda q, f: tw.split_by_criterion(
        one_field(q), dk.Field(q, f), wt.weight_field(q),
        wt.weight_field(q), 2.0, 2),
    "stopping-family": lambda q, f: tw.stopping_family(
        dk.Field(q, f), wt.weight_field(q), dk.DyadicInterval(0.0, 0, 0)),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", ["bergman", "positive", "psi-positive",
                                  "dyadic-0", *NONFINITE_FIELD_CALLS])
def test_nonfinite_fields_raise(leb_quad5, kind, bad):
    """One NaN or inf cell would make every output cell NaN: the handle
    apply, by either route, apply_sparse, the dyadic maximal function,
    the weak (1,1) ratios, the splitting criterion and the stopping
    family reject it."""
    f = np.ones(leb_quad5.size)
    f[7] = bad
    if kind in NONFINITE_FIELD_CALLS:
        with pytest.raises(InvalidRangeError):
            NONFINITE_FIELD_CALLS[kind](leb_quad5, f)
        return
    h = handle_kinds(leb_quad5)[kind]
    for matrix_free in (False, True):
        with pytest.raises(InvalidRangeError):
            h.apply(f, matrix_free=matrix_free)
        with pytest.raises(InvalidRangeError):
            h.apply(f + 1j, matrix_free=matrix_free)
    with pytest.raises(InvalidRangeError):
        tw.apply_sparse(tw.sparse_bergman_model(std_psi(), leb_quad5),
                        dk.Field(leb_quad5, f))


MISMATCHED_QUADRATURE = {
    "weak11-projection": lambda q, o: wt.weak11_projection_check(
        wt.weight_field(q), dk.Field.constant(o, 1.0),
        dk.Field.constant(q, 1.0)),
    "weak11-maximal": lambda q, o: wt.weak11_maximal_check(
        q, q.masses, 0.0, dk.Field.constant(o, 1.0)),
    "split": lambda q, o: tw.split_by_criterion(
        dk.Field.constant(q, 1.0), dk.Field.constant(q, 1.0),
        wt.weight_field(o), wt.weight_field(q), 2.0, 2),
    "testing": lambda q, o: tw.testing_constants(
        tw.sparse_bergman_model(std_psi(), q), wt.weight_field(o),
        wt.weight_field(q), 2.0, 2),
    "cz-weak11": lambda q, o: czd.cz_reconstruct_weak11_bound(
        STD, wt.weight_field(o), dk.Field.constant(q, 1.0), 2.0),
    "identity-error": lambda q, o: op.projection_identity_error(
        STD, q, handle=op.bergman_handle(STD, o)),
}


@pytest.mark.parametrize("call, other, error", [
    *(pytest.param(call, other, QuadratureMismatchError, id=f"{name}-{other}")
      for name, call in MISMATCHED_QUADRATURE.items()
      for other in ("J6", "power1")),
    pytest.param(lambda q, o: op.bergman_handle(STD, q).apply(np.ones(o.size)),
                 "J6", InvalidRangeError, id="apply-J6")])
def test_mismatched_quadratures_raise(leb_quad5, leb_quad6, call, other,
                                      error):
    """An item on a deeper quadrature, or on a same-size one over another
    measure, raises instead of crashing in numpy or returning a number;
    a handle rejects a value array of the wrong length."""
    o = leb_quad6 if other == "J6" else \
        dk.build_quadrature(ms.power_measure(1.0), J=5)
    with pytest.raises(error):
        call(leb_quad5, o)


def test_comparability_constants():
    quad = dk.build_quadrature(ms.lebesgue(), J=6, j0=1)
    lo, hi = op.comparability_constants(std_psi(), quad)
    assert 0.0 < lo <= hi < math.inf
    assert lo == pytest.approx(0.018623256609585713, rel=1e-12)
    assert hi == pytest.approx(1.2614771880125706, rel=1e-12)


def test_import_leaves_scipy_optimize_unloaded():
    """weighted_norm_p2 runs its own Lanczos: importing the package, in a
    fresh interpreter, loads none of scipy.optimize, scipy.sparse.linalg
    and scipy.linalg."""
    src = str(pathlib.Path(op.__file__).resolve().parents[1])
    code = ("import sys, diskproj; print([m for m in ('scipy.optimize', "
            "'scipy.sparse.linalg', 'scipy.linalg') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def handle_kinds(quad):
    """One handle of every kind: the Lanczos adjoint assumes each kernel
    equals its conjugate transpose."""
    spec = KernelSpec(gamma=2.0, nu=ms.half_atom_mix())
    psi = op.PsiProfile(2.0, ms.half_atom_mix())
    return {"bergman": op.bergman_handle(spec, quad),
            "positive": op.positive_handle(spec, quad),
            "psi-positive": op.psi_positive_handle(psi, quad),
            "dyadic-0": op.dyadic_handle(0.0, psi, quad),
            "dyadic-1/2": op.dyadic_handle(0.5, psi, quad)}


@pytest.mark.parametrize("J", [4, 6])
def test_handle_kernels_are_hermitian(J):
    for kind, h in handle_kinds(dk.build_quadrature(ms.lebesgue(), J=J)
                                ).items():
        K = gather(h)
        err = np.max(np.abs(K - K.conj().T)) / np.max(np.abs(K))
        assert err <= 1e-13, kind
        if h.positive:
            assert np.isrealobj(K) and K.min() >= 0.0, kind


def matrix_handle(K, mu):
    """A handle that applies a given kernel matrix: K @ (x mu)."""
    K = np.asarray(K)
    masses = mu

    class MatrixHandle(op.OperatorHandle):
        mu = masses
        positive = bool(np.isrealobj(K) and K.min() >= 0.0)

        def fast_apply(self, g):
            return K @ g

        def kernel_block(self, rows):
            return K[rows]

    return MatrixHandle()


def cell_route(h):
    """h's kernel behind the base class's Lanczos operands: the
    cell-domain route, the oracle for the residue-0 block."""
    class CellRoute(op.OperatorHandle):
        quad, positive = h.quad, h.positive
        fast_apply = staticmethod(h.fast_apply)

    return CellRoute()


def weighted_matrix(K, mu, u, sigma, p):
    q = p / (p - 1.0)
    return ((u * mu) ** (1.0 / p))[:, None] * K * \
        ((sigma * mu) ** (1.0 / q))[None, :]


def random_start_lower(A, p, starts=16, iters=300, seed=0):
    """Nonlinear power iteration from the constant vector and random
    starts on a dense nonnegative matrix: a lower bound for its l^p norm."""
    q = p / (p - 1.0)
    rng = np.random.default_rng(seed)
    best = 0.0
    n = A.shape[1]
    for s in range(starts + 1):
        x = np.ones(n) if s == 0 else rng.uniform(0.1, 1.0, size=n)
        x /= np.linalg.norm(x, ord=p)
        for _ in range(iters):
            y = A @ x
            z = A.T @ (y / np.linalg.norm(y, ord=p)) ** (p - 1.0)
            x = np.maximum(z, 0.0) ** (q - 1.0)
            x /= np.linalg.norm(x, ord=p)
        best = max(best, float(np.linalg.norm(A @ x, ord=p)))
    return best


def radial_weights(quad):
    """(u, sigma) = ((1-r)^(-1/2), (1-r)^0.3 (1 - log(1-r))): each is
    constant on every band, so a band-pair handle's p = 2 norm runs on
    the residue-0 block of its mode matrix."""
    return (wt.weight_field(quad, eta=-0.5).values,
            wt.weight_field(quad, eta=0.3, log_exp=1.0).values)


@pytest.fixture(scope="module", params=[6, 8], ids=["J6", "J8"])
def norm_instance(request):
    """At an int J, the seeded bump weights of random_instance on the
    J-level quadrature; at ("radial", j0), radial_weights at J = 6."""
    if isinstance(request.param, int):
        quad = dk.build_quadrature(ms.lebesgue(), J=request.param)
        sigma, u, _, _ = tw.random_instance(quad, request.param)
        return quad, handle_kinds(quad), u.values, sigma.values
    quad = dk.build_quadrature(ms.lebesgue(), J=6, j0=request.param[1])
    return (quad, handle_kinds(quad), *radial_weights(quad))


NORM_KINDS = ["bergman", "positive", "psi-positive", "dyadic-0",
              "dyadic-1/2"]


# Under radial weights the Bergman kernel is left out: rotation by one
# core arc keeps the constant vector's Krylov space in the residue-0
# modes on either route, and its top singular vector lies elsewhere
# (j0 = 2: 10.35488 against svdvals' 10.38119).
@pytest.mark.parametrize("norm_instance, kind", [
    *(pytest.param(J, kind, id=f"J{J}-{kind}")
      for J in (6, 8) for kind in NORM_KINDS),
    *(pytest.param(("radial", j0), kind, id=f"radial-j0={j0}-{kind}")
      for j0 in (0, 1, 2) for kind in ("positive", "psi-positive"))],
    indirect=["norm_instance"])
def test_weighted_norm_p2_matches_svdvals(norm_instance, kind):
    quad, handles, u, sigma = norm_instance
    h = handles[kind]
    want = svdvals(weighted_matrix(gather(h), h.mu, u, sigma, 2.0))[0]
    got = op.weighted_norm_p2(h, u, sigma)
    assert got == pytest.approx(want, rel=1e-12)
    assert op.weighted_norm_bracket(h, u, sigma, 2.0) == (got, got, True)


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("kind", ["positive", "psi-positive", "dyadic-0",
                                  "dyadic-1/2"])
def test_weighted_norm_lp_bracket_closes(norm_instance, kind, p):
    quad, handles, u, sigma = norm_instance
    h = handles[kind]
    lower, upper, closed = op.weighted_norm_bracket(h, u, sigma, p)
    assert closed and 0.0 < lower and upper - lower <= 1e-10 * upper
    if quad.J <= 6:
        old = random_start_lower(weighted_matrix(gather(h), h.mu, u, sigma,
                                                 p), p)
        assert lower * (1.0 - 1e-10) <= old <= upper * (1.0 + 1e-12)


def test_weighted_norm_p2_hand_value():
    K = np.array([[2.0, 0.0], [0.0, 1.0]])
    mu = np.array([1.0, 2.0])
    u = np.array([3.0, 1.0])
    sigma = np.array([1.0, 4.0])
    # diag(sqrt(u mu)) K diag(sqrt(sigma mu)) = diag(2 sqrt 3, 4)
    assert op.weighted_norm_p2(matrix_handle(K, mu), u, sigma) == \
        pytest.approx(4.0, rel=1e-12)


def test_weighted_norm_lp_lower():
    rng = np.random.default_rng(7)
    K = rng.uniform(0.0, 1.0, size=(30, 30))
    K = K + K.T
    mu = rng.uniform(0.5, 1.5, size=30)
    u = rng.uniform(0.5, 2.0, size=30)
    sigma = rng.uniform(0.5, 2.0, size=30)
    h = matrix_handle(K, mu)
    exact = op.weighted_norm_p2(h, u, sigma)
    assert exact == pytest.approx(
        svdvals(weighted_matrix(K, mu, u, sigma, 2.0))[0], rel=1e-12)
    # just off p = 2, Boyd's bracket closes near the singular value
    lower, upper, closed = op.weighted_norm_bracket(h, u, sigma, 2.0 + 1e-9)
    assert closed and upper - lower <= 1e-12 * upper
    assert lower == pytest.approx(exact, rel=1e-7)
    lower3, upper3, closed3 = op.weighted_norm_bracket(h, u, sigma, 3.0)
    old = random_start_lower(weighted_matrix(K, mu, u, sigma, 3.0), 3.0)
    assert closed3 and lower3 * (1.0 - 1e-10) <= old <= upper3 * (1.0 + 1e-12)
    # a zero column (a massless cell) drops out of the Schur bound
    mu0 = mu.copy()
    mu0[3] = 0.0
    lo0, up0, closed0 = op.weighted_norm_bracket(matrix_handle(K, mu0), u,
                                                 sigma, 3.0)
    assert closed0 and 0.0 < lo0 < lower3
    with pytest.raises(InvalidRangeError):
        op.weighted_norm_bracket(h, u, sigma, p=1.0)
    with pytest.raises(InvalidRangeError):
        op.weighted_norm_bracket(matrix_handle(K - 0.5, mu), u, sigma, 3.0)
    with pytest.raises(InvalidRangeError):
        op.weighted_norm_p2(h, u[:-1], sigma)
    with pytest.raises(InvalidRangeError):
        op.weighted_norm_bracket(h, u, np.full(30, np.nan), 3.0)


OVERFLOWING_TABLE_CALLS = {
    "bergman-apply": lambda spec, q: op.bergman_handle(spec, q).apply(
        np.ones(q.size)),
    "positive-apply": lambda spec, q: op.positive_handle(spec, q).apply(
        np.ones(q.size)),
    "psi-apply": lambda spec, q: op.psi_positive_handle(
        op.PsiProfile(spec.gamma, spec.nu), q).apply(np.ones(q.size)),
    "identity-error": op.projection_identity_error,
    "one-weight": lambda spec, q: tw.one_weight_norm_experiment(
        spec, wt.weight_field(q), 2.0, 3),
}


@pytest.mark.parametrize("gamma, J, kind", [
    *((150.0, 8, kind) for kind in OVERFLOWING_TABLE_CALLS),
    (100.0, 12, "positive-apply")])
def test_overflowing_kernel_tables_raise(gamma, J, kind):
    """A kernel table with an entry past the double range raises instead
    of giving inf or NaN applies, a 1e26 identity error or a crash in
    the SVD of the norm."""
    spec = KernelSpec(gamma=gamma, nu=ms.lebesgue())
    quad = dk.build_quadrature(ms.lebesgue(), J=J)
    with pytest.raises(InvalidRangeError, match="overflows"):
        OVERFLOWING_TABLE_CALLS[kind](spec, quad)


def overflowing_products_handle():
    """A finite table (largest entry 9.8e223) whose weighted products
    pass sqrt(DBL_MAX), about 1.3e154."""
    quad = dk.build_quadrature(ms.lebesgue(), J=8)
    h = op.positive_handle(KernelSpec(gamma=100.0, nu=ms.lebesgue()), quad)
    assert np.all(np.isfinite(h.values))
    return h, np.ones(quad.size)


def test_overflowing_products_keep_a_finite_p2_norm():
    """Norms of products past sqrt(DBL_MAX) are taken on the product
    over its largest entry, so the p = 2 norm is finite: it matches the
    norm with u scaled by 2^-800, whose products do not overflow, times
    2^400."""
    h, one = overflowing_products_handle()
    lower, upper, closed = op.weighted_norm_bracket(h, one, one, 2.0)
    assert closed and lower == upper and math.isfinite(upper)
    assert upper > 1e200
    scaled = op.weighted_norm_p2(h, one * 2.0 ** -800, one)
    assert upper == pytest.approx(scaled * 2.0 ** 400, rel=1e-12)


@pytest.mark.parametrize("p", [3.0, 1.5])
def test_overflowing_norms_raise(p):
    """At p != 2 a Boyd power past the double range raises, with no
    RuntimeWarning (the run turns those into errors). Without that check
    p = 3 read (5.9e218, inf, closed): an infinite upper end passed the
    gap test."""
    h, one = overflowing_products_handle()
    with pytest.raises(InvalidRangeError, match="overflows"):
        op.weighted_norm_bracket(h, one, one, p)


def test_lanczos_failure_is_a_diskproj_error(monkeypatch):
    """A residual still above eps times the norm at the step cap raises."""
    h = matrix_handle(np.diag([1.0, 2.0, 3.0]), np.ones(3))
    assert op.weighted_norm_p2(h, np.ones(3), np.ones(3)) == \
        pytest.approx(3.0, rel=1e-14)
    monkeypatch.setattr(op, "NORM_MAX_STEPS", 1)
    with pytest.raises(NoConvergenceError):
        op.weighted_norm_p2(h, np.ones(3), np.ones(3))


def test_lanczos_breakdown():
    """An invariant Krylov space of the constant vector gives the norm for
    a nonnegative kernel (it holds the Perron vector) and raises for any
    other kernel, whose top singular vector it may miss."""
    one = np.ones(3)
    assert op.weighted_norm_p2(matrix_handle(np.eye(3), one), one, one) \
        == pytest.approx(1.0, rel=1e-14)
    assert op.weighted_norm_p2(matrix_handle(np.ones((3, 3)), one), one,
                               one) == pytest.approx(3.0, rel=1e-14)
    assert op.weighted_norm_p2(matrix_handle(np.zeros((3, 3)), one), one,
                               one) == 0.0
    one = np.ones(2)
    # A 1 = 0, and the norm is 2
    with pytest.raises(NoConvergenceError):
        op.weighted_norm_p2(matrix_handle([[1.0, -1.0], [-1.0, 1.0]], one),
                            one, one)
    # A 1 = 2 * 1, and the norm is 4
    with pytest.raises(NoConvergenceError):
        op.weighted_norm_p2(matrix_handle([[3.0, -1.0], [-1.0, 3.0]], one),
                            one, one)
    # A 1 = 0.4 * 1 up to rounding, so beta_1 is about 4e-17, not 0, and
    # the norm is 0.7
    one = np.ones(3)
    with pytest.raises(NoConvergenceError):
        op.weighted_norm_p2(matrix_handle(0.7 * np.eye(3) - 0.1, one), one,
                            one)


@pytest.mark.parametrize("kind, radial", [
    *(pytest.param(kind, False, id=kind)
      for kind in ("positive", "dyadic-0", "dyadic-1/2")),
    pytest.param("positive", True, id="positive-radial")])
def test_weighted_norm_p2_matches_arpack(kind, radial):
    """At J = 10 (4,100 cells) against ARPACK's svds on the same applies,
    in the cell domain: under radial weights the library's Lanczos runs
    on the residue-0 block instead."""
    quad = dk.build_quadrature(ms.lebesgue(), J=10)
    if radial:
        u, sigma = radial_weights(quad)
    else:
        sigma, u, _, _ = tw.random_instance(quad, 10)
        u, sigma = u.values, sigma.values
    h = handle_kinds(quad)[kind]
    left = np.sqrt(u * h.mu)
    right = np.sqrt(sigma * h.mu)
    n = quad.size
    A = LinearOperator((n, n), dtype=float,
                       matvec=lambda x: left * h.fast_apply(x.ravel() * right),
                       rmatvec=lambda y: right * h.fast_apply(y.ravel() * left))
    want = svds(A, k=1, tol=0, v0=np.ones(n), return_singular_vectors=False)[0]
    assert op.weighted_norm_p2(h, u, sigma) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("kind", ["bergman", "positive", "psi-positive"])
def test_radial_norms_run_on_the_residue_block(kind, monkeypatch):
    """Radial weights take the residue-0 block: no fast_apply call, and
    the cell route's norm to 1e-14. A weight perturbed in one cell takes
    the cell route, bit for bit."""
    quad = dk.build_quadrature(ms.lebesgue(), J=7)
    h = handle_kinds(quad)[kind]
    cells = cell_route(h)
    u, sigma = radial_weights(quad)
    want = op.weighted_norm_p2(cells, u, sigma)
    calls = []
    apply = h.fast_apply
    monkeypatch.setattr(h, "fast_apply",
                        lambda g: calls.append(g.size) or apply(g))
    assert op.weighted_norm_p2(h, u, sigma) == pytest.approx(want, rel=1e-14)
    assert not calls
    bumped = u.copy()
    bumped[quad.size - 1] *= 1.0 + 1e-9
    assert op.weighted_norm_p2(h, bumped, sigma) == \
        op.weighted_norm_p2(cells, bumped, sigma)
    assert calls


@pytest.mark.parametrize("J", [3, 4])
def test_radial_breakdown_matches_the_cell_route(J):
    """The Bergman handle at j0 = 0, J = 3 and 4 breaks down under radial
    weights on both routes: the residue-0 block fills, an invariant
    space, where the cell route meets beta_k = 0 to rounding. A
    breakdown for a kernel that is not nonnegative raises."""
    quad = dk.build_quadrature(ms.lebesgue(), J=J, j0=0)
    h = handle_kinds(quad)["bergman"]
    one = np.ones(quad.size)
    for u, sigma in ((one, one), radial_weights(quad)):
        for route in (h, cell_route(h)):
            with pytest.raises(NoConvergenceError):
                op.weighted_norm_p2(route, u, sigma)
