"""Property tests of the structural invariants across the four damping
regimes, and of the CSV artifact format."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from disspec import (SymbolPropagator, SystemParams, artifacts, branch_continuation,
                     build_symbol, eigenvalues_batch, real_symbol_stack, symbol_stack)
from disspec import propagator as propagator_module
from oracles import csv_text_per_element, read_csv

PROPERTY = settings(max_examples=40, derandomize=True, deadline=None)

_speed = st.floats(0.3, 2.5)
_damping = st.floats(0.05, 2.0)


@st.composite
def params(draw):
    regime = draw(st.sampled_from(
        ["both_damped", "gamma1_zero", "gamma2_zero", "undamped"]))
    g1 = 0.0 if regime in ("gamma1_zero", "undamped") else draw(_damping)
    g2 = 0.0 if regime in ("gamma2_zero", "undamped") else draw(_damping)
    p = SystemParams(draw(_speed), draw(_speed), draw(_speed), g1, g2)
    assert p.regime == regime
    return p


frequencies = st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=8)
#: symmetric grids through xi = 0, increasing grids, and unsorted lists
branch_grids = st.one_of(
    st.builds(lambda x, m: np.linspace(-x, x, 2 * m + 1), st.floats(0.01, 20.0),
              st.integers(1, 150)),
    st.builds(lambda lo, span, n: np.linspace(lo, lo + span, n), st.floats(-20.0, 20.0),
              st.floats(0.01, 40.0), st.integers(2, 300)),
    st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=40).map(np.array))
#: reaching past symbol scale 64 (scale >= |xi|), the matrix route's rows
wide_frequencies = st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=8)


@PROPERTY
@given(params(), branch_grids)
@example(SystemParams(1, 1, np.sqrt(8.0), 0, np.sqrt(27.0)), np.linspace(-1.0, 1.0, 201))
@example(SystemParams(1, 2, 0.5, 0, 1), np.linspace(-10.0, 10.0, 401))
@example(SystemParams(1, 1, 1, 1, 0), np.linspace(-10.0, 10.0, 41))
def test_branch_matching_is_optimal(p, grid):
    """Each row of branch_continuation is a permutation of the solve's row,
    row 0 in Putzer order, and its matching to the previous row costs at
    most scipy's optimal assignment of the same two rows."""
    from scipy.optimize import linear_sum_assignment

    out = branch_continuation(p, grid)
    lam, _ = eigenvalues_batch(p, grid)
    assert np.array_equal(out[0], lam[0])
    assert np.array_equal(np.sort(out, axis=1), np.sort(lam, axis=1))
    for prev, row in zip(out[:-1], out[1:]):
        cost = np.abs(prev[:, None] - row[None, :])
        best = cost[linear_sum_assignment(cost)].sum()
        assert np.trace(cost) <= best + 1e-12 * (1.0 + best)


@PROPERTY
@given(params(), frequencies)
def test_batched_equals_scalar(p, xi):
    lam, resid = eigenvalues_batch(p, xi)
    for i, x in enumerate(xi):
        one, one_resid = eigenvalues_batch(p, [x])
        assert np.array_equal(one[0], lam[i])
        assert np.array_equal(one_resid[0], resid[i])


@PROPERTY
@given(params(), frequencies)
def test_trace_identity(p, xi):
    # sum lambda = trace Phi = -(gamma1 + gamma2), to rounding on the scale
    # of the symbol's norm; the solve's errors stay near 10 eps * scale
    lam, _ = eigenvalues_batch(p, xi)
    scale = 1.0 + np.abs(xi) * max(1.0, p.a, p.k) + p.l * p.k + p.gamma1 + p.gamma2
    err = np.abs(lam.sum(axis=1) + p.gamma1 + p.gamma2)
    assert np.all(err <= 1e4 * np.finfo(float).eps * scale)


@PROPERTY
@given(params(), frequencies, st.lists(st.floats(0.0, 50.0), min_size=1, max_size=4))
def test_semigroup_is_a_contraction(p, xi, times):
    nrm = SymbolPropagator(p, np.unique(xi)).operator_norms(times)
    assert np.all(nrm <= 1.0 + 1e-10)


@PROPERTY
@given(params(), wide_frequencies)
def test_spectra_are_conjugate_closed(p, xi):
    # the solve takes a real matrix, so complex roots pair up bit for bit
    lam, _ = eigenvalues_batch(p, xi)
    for row in lam:
        assert np.array_equal(np.sort_complex(row), np.sort_complex(row.conj()))


@PROPERTY
@given(params(), wide_frequencies)
def test_similar_symbol_is_real(p, xi):
    S = np.array([1, 1j, -1j, 1, -1j, 1])
    similar = S.conj()[:, None] * symbol_stack(p, xi) * S
    assert np.all(similar.imag == 0.0)
    assert np.array_equal(similar.real, real_symbol_stack(p, xi))


@PROPERTY
@given(params(), wide_frequencies, st.floats(0.0, 20.0), st.floats(0.0, 20.0))
def test_semigroup_law(p, xi, s, t):
    # e^{(s+t) Phi} = e^{s Phi} e^{t Phi}: the identity block propagated to
    # s + t against the block e^{t Phi} propagated by s
    prop = SymbolPropagator(p, np.unique(xi))
    eye = np.broadcast_to(np.eye(6, dtype=complex), (len(prop.grid), 6, 6))
    whole = prop.propagate_many(eye, [s + t])[0]
    split = prop.propagate_many(prop.propagate_many(eye, [t])[0], [s])[0]
    nrm = np.linalg.norm(whole, ord=2, axis=(1, 2))
    err = np.linalg.norm(whole - split, ord=2, axis=(1, 2))
    assert np.all(err <= 1e-10 * nrm)


@st.composite
def defective_family(draw):
    """(1, 1, sqrt 8 (1 + eps), 0, sqrt 27 (1 + eps)) near xi = 0, where the
    symbol carries a 3x3 Jordan block at eps = xi = 0 and three nodes
    cluster within solver resolution around it."""
    eps = draw(st.one_of(st.just(0.0), st.floats(-3e-11, 3e-11)))
    p = SystemParams(1.0, 1.0, np.sqrt(8.0) * (1.0 + eps), 0.0, np.sqrt(27.0) * (1.0 + eps))
    return p, draw(st.floats(-1e-8, 1e-8))


#: every regime at any frequency, at frequencies near 0 (the undamped double
#: root 0 at xi = 0), and the defective family
clustered = st.one_of(
    st.tuples(params(), st.one_of(st.floats(-100.0, 100.0), st.floats(-1e-8, 1e-8))),
    defective_family())


def test_putzer_matches_expm_on_clustered_nodes():
    # the identity block propagated by a one-frequency SymbolPropagator
    # against the scaling-and-squaring Pade exponential, entrywise
    routes = []

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(clustered, st.floats(0.0, 10.0))
    def check(draw, t):
        p, xi = draw
        prop = SymbolPropagator(p, np.array([xi]))
        routes.append(bool(prop.ambiguous[0]))
        E = prop.propagate_many(np.eye(6)[None], [t])[0, 0]
        assert np.max(np.abs(E - expm(build_symbol(p, xi).Phi * t))) <= 1e-8

    check()
    assert any(routes) and not all(routes)


#: every regime on a symmetric grid that may hold xi = 0 (the undamped
#: double root 0 there takes the bidiagonal route), and the defective family
#: on its own symmetric grid, whose xi = 0 row carries the 3x3 Jordan block,
#: resolved to the clustered tolerance of the test above
propagation_cases = st.one_of(
    st.tuples(params(), st.lists(st.one_of(st.just(0.0), st.floats(0.0, 30.0)),
                                 min_size=1, max_size=4), st.just(1e-10)),
    defective_family().map(lambda draw: (draw[0], [0.0, abs(draw[1])], 1e-8)))


@PROPERTY
@given(propagation_cases, st.lists(st.floats(0.0, 10.0), min_size=1, max_size=3),
       st.integers(0, 2**32 - 1))
def test_real_frame_matches_expm(case, times, seed):
    # propagate_many, the density reduction and operator_norms against the Pade
    # exponential of the complex symbol, on Hermitian data, with at most one
    # complex exp per conjugate pair and cell
    p, half, tol = case
    half = np.unique(half)
    grid = np.unique(np.concatenate([-half, half]))
    rng = np.random.default_rng(seed)
    pos = rng.normal(size=(len(grid), 6)) + 1j * rng.normal(size=(len(grid), 6))
    vals = np.where((grid > 0)[:, None], pos, 0.0)
    vals[grid < 0] = vals[grid > 0][::-1].conj()
    vals[grid == 0] = pos[grid == 0].real
    prop = SymbolPropagator(p, grid)
    cells = []
    with pytest.MonkeyPatch.context() as patch:
        safe_exp = propagator_module._safe_exp
        patch.setattr(propagator_module, "_safe_exp",
                      lambda z: cells.append(z.size * (z.dtype.kind == "c")) or safe_exp(z))
        traj = prop.propagate_many(vals, times)
        dens = prop.plancherel_sums(vals, times, np.eye(len(grid)))[0]
        nrm = prop.operator_norms(times)
    pairs = np.sum((prop.nodes.imag > 0) & ~prop._ambiguous_nodes[:, None])
    assert sum(cells) <= 3 * pairs * len(times)        # three evaluations
    for i, xi in enumerate(grid):
        for q, t in enumerate(times):
            E = expm(build_symbol(p, xi).Phi * t)
            assert np.max(np.abs(traj[q, i] - E @ vals[i])) <= tol
            assert abs(nrm[i, q] - np.linalg.norm(E, 2)) <= tol
    ref = np.sum(np.abs(traj) ** 2, axis=2).T
    assert np.all(np.abs(dens - ref) <= 1e-13 * ref)
    # Hermitian data: the density is even in xi
    assert np.all(np.abs(dens - dens[::-1]) <= 1e-13 * dens)


@PROPERTY
@given(params(), st.lists(st.floats(0.0, 30.0), min_size=1, max_size=6),
       st.lists(st.floats(31.0, 60.0), max_size=3), st.integers(0, 2**32 - 1))
def test_rows_fold_onto_spectra(p, half, tail, seed):
    # a symmetric grid with an unpaired tail at -xi, and random Hermitian
    # data: one spectrum per distinct |xi|, whose state the rows at -xi read
    # as exact conjugates
    half = np.unique(half)
    grid = np.unique(np.concatenate([-np.asarray(tail), -half, half]))
    rng = np.random.default_rng(seed)
    _, row = np.unique(np.abs(grid), return_inverse=True)
    shape = (row.max() + 1, 6)
    vals = (rng.normal(size=shape) + 1j * rng.normal(size=shape))[row]
    vals[grid < 0] = vals[grid < 0].conj()
    times = np.array([0.0, 0.3, 4.0, 50.0])
    prop = SymbolPropagator(p, grid)
    traj = prop.propagate_many(vals, times)
    paired = np.isin(-grid, grid) & (grid > 0)
    mirror = np.searchsorted(grid, -grid[paired])
    assert np.array_equal(traj[:, mirror], traj[:, paired].conj())
    for i in range(len(grid)):
        ref = SymbolPropagator(p, grid[i:i + 1]).propagate_many(vals[i:i + 1], times)[:, 0]
        assert np.all(np.abs(traj[:, i] - ref) <= 1e-13 * np.abs(ref).max(axis=1)[:, None])
    # the norms of some rows, repeats and +-xi included, are the whole grid's
    rows = rng.integers(0, len(grid), size=5)
    whole = prop.operator_norms(times)
    assert np.array_equal(prop.operator_norms(times, rows=rows).view(np.uint64),
                          whole[rows].view(np.uint64))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.lists(st.integers(0, 2**64 - 1), min_size=3, max_size=3), max_size=8))
# a quiet NaN with a payload, a negative signalling NaN, -5e-324
@example([[0x7FF8_0000_0000_0001, 0xFFF0_0000_0000_0001, 0x8000_0000_0000_0001]])
def test_csv_bytes_equal_repr_of_every_bit_pattern(patterns):
    # raw 64-bit patterns viewed as float64: every NaN payload and sign,
    # subnormals, +-0 and +-inf, formatted once per distinct magnitude
    table = np.array(patterns, dtype=np.uint64).reshape(-1, 3).view(np.float64)
    rows = table.tolist()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        artifacts.write_csv(path, ["xi", "re", "im"], rows)
        assert path.read_bytes() == csv_text_per_element(["xi", "re", "im"], rows).encode()


@PROPERTY
@given(st.lists(st.lists(st.floats(), min_size=3, max_size=3), max_size=6))
def test_csv_round_trip_is_byte_identical(rows):
    # repr floats (NaN, +-inf and -0.0 included) read back to the same values
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        artifacts.write_csv(path, ["xi", "re", "im"], rows)
        first = path.read_bytes()
        header, back = read_csv(path)
        artifacts.write_csv(path, header, back)
        assert path.read_bytes() == first
