import numpy as np
import pytest

from disspec import (PreconditionError, RegimeError, SystemParams,
                     build_matrices, build_symbol, char_poly_coeffs)
from oracles import char_poly_value, factor_check_gamma2_zero


def char_poly(params, zeta, lam):
    """The closed-form polynomial of Phi(zeta) at lam."""
    return np.polyval(char_poly_coeffs(params, zeta)[::-1], lam)


def test_params_reject_nonpositive_speeds():
    for bad in ({"a": 0}, {"k": -1}, {"l": 0}):
        kw = {"a": 1.0, "k": 1.0, "l": 1.0, "gamma1": 1.0, "gamma2": 1.0, **bad}
        with pytest.raises(PreconditionError):
            SystemParams(**kw)
    with pytest.raises(PreconditionError):
        SystemParams(1, 1, 1, -0.1, 1)


def test_params_json_round_trip():
    p = SystemParams(1.5, 2.0, 0.5, 0.0, 1.25)
    q = SystemParams.from_dict(p.to_dict())
    assert p == q
    with pytest.raises(PreconditionError):
        SystemParams.from_dict({**p.to_dict(), "gamma_1": 1.0})


def test_stability_defect_recomputed():
    p = SystemParams(1, np.sqrt(2.0), 1, 0, 1)
    assert abs(p.stability_defect) < 1e-15
    assert SystemParams(1, 2, 1, 0, 1).stability_defect == pytest.approx(2.0)


def test_matrix_entries_unit_params():
    A, L = build_matrices(SystemParams(1, 1, 1, 1, 1))
    assert A[0][1] == -1.0 and A[2][3] == -1.0 and A[4][5] == -1.0
    pattern = np.zeros((6, 6), dtype=bool)
    for i, j in ((0, 1), (1, 0), (2, 3), (3, 2), (4, 5), (5, 4)):
        pattern[i, j] = True
    assert np.all(A[~pattern] == 0.0)


def test_matrix_A_symmetric_exactly():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a, k, l = rng.uniform(0.2, 3.0, size=3)
        A, _ = build_matrices(SystemParams(a, k, l, rng.uniform(0, 2), rng.uniform(0, 2)))
        assert np.array_equal(A, A.T)


def test_matrix_L_entries_and_quadratic_form():
    p = SystemParams(2, 3, 0.5, 0, 1)
    _, L = build_matrices(p)
    assert L[1][4] == -1.5 and L[4][1] == 1.5 and L[5][5] == 1.0
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = rng.normal(size=6)
        assert x @ L @ x == pytest.approx(p.gamma1 * x[3] ** 2 + p.gamma2 * x[5] ** 2,
                                          abs=1e-12)


def test_symbol_at_zero_is_minus_L():
    p = SystemParams(1.3, 0.7, 2.0, 0.5, 0.2)
    sym = build_symbol(p, 0.0)
    assert np.array_equal(sym.Phi, -sym.L.astype(complex))


def test_symbol_entry_and_conjugation():
    p = SystemParams(1, 1, 1, 1, 1)
    sym = build_symbol(p, 1.0)
    assert sym.Phi[0][1] == 1j
    neg = build_symbol(p, -1.0)
    assert np.allclose(neg.Phi, np.conj(sym.Phi))


def test_char_poly_lambda5_coefficient():
    p = SystemParams(1.2, 0.8, 1.5, 0.3, 0.9)
    coeffs = char_poly_coeffs(p, 0.37j)
    assert coeffs[6] == 1.0
    assert coeffs[5] == pytest.approx(p.gamma1 + p.gamma2)


def test_char_poly_constant_term_vanishes_at_zero():
    p = SystemParams(1, 1, 1, 1, 0)
    assert char_poly_coeffs(p, 0.0)[0] == 0.0
    assert p.regime == "gamma2_zero"


def test_char_poly_matches_determinant_at_samples():
    p = SystemParams(1, 1, 1, 0, 1)
    rng = np.random.default_rng(7)
    for _ in range(7):
        lam = complex(rng.normal(), rng.normal())
        ref = char_poly_value(p, 1j, lam)
        assert abs(char_poly(p, 1j, lam) - ref) <= 1e-10 * (1.0 + abs(ref))


def test_char_poly_determinant_oracle_all_regimes():
    rng = np.random.default_rng(42)
    for _ in range(200):
        g1, g2 = rng.uniform(0, 2, size=2)
        regime = rng.integers(3)
        if regime == 1:
            g1 = 0.0
        elif regime == 2:
            g2 = 0.0
        p = SystemParams(*rng.uniform(0.2, 3.0, size=3), g1, g2)
        xi = rng.uniform(-20, 20)
        lam = complex(rng.normal(scale=3), rng.normal(scale=3))
        ref = char_poly_value(p, 1j * xi, lam)
        val = char_poly(p, 1j * xi, lam)
        assert abs(val - ref) <= 1e-10 * (1.0 + abs(ref))


def test_trace_consistency():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = SystemParams(*rng.uniform(0.3, 2.5, size=3), *rng.uniform(0, 2, size=2))
        xi = rng.uniform(-50, 50)
        ev = np.linalg.eigvals(build_symbol(p, xi).Phi)
        assert ev.sum() == pytest.approx(-(p.gamma1 + p.gamma2), abs=1e-10)


def test_factorization_gamma2_zero():
    assert factor_check_gamma2_zero(SystemParams(1, 1, 1, 1, 0), 0.3j)
    assert factor_check_gamma2_zero(SystemParams(2, 3, 0.5, 2, 0), 2j)
    with pytest.raises(RegimeError):
        factor_check_gamma2_zero(SystemParams(1, 1, 1, 1, 0.5), 0.3j)


def test_quadratic_factor_roots_purely_imaginary():
    p = SystemParams(1.4, 2.0, 0.7, 0.9, 0)
    for xi in (0.3, 1.0, 5.0):
        root = 1j * p.k * np.sqrt(p.l**2 + xi**2)
        assert abs(char_poly(p, 1j * xi, root)) <= 1e-9 * (1 + abs(root) ** 6)
        assert abs(char_poly(p, 1j * xi, -root)) <= 1e-9 * (1 + abs(root) ** 6)
