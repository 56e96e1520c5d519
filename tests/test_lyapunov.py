import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disspec import (PreconditionError, RegimeError, SystemParams,
                     audit_inequality, gronwall_check, search_constants, symbol_stack)
from disspec.core_model import build_symbol
from disspec.lyapunov import (LyapunovConstants, _cross_matrix, _cross_terms,
                              _unit_states, lyapunov_sigma, sandwich_fit)
from disspec.propagator import SymbolPropagator
from oracles import density, functionals, rates, trajectory_audit


def unit_states(n, rng):
    s = rng.normal(size=(n, 6)) + 1j * rng.normal(size=(n, 6))
    return s / np.linalg.norm(s, axis=1, keepdims=True)


class TestFunctionals:
    p = SystemParams(1, 1, 0.5, 1, 1)

    def test_zero_state_all_zero(self):
        c = search_constants(self.p)
        values = functionals(np.zeros(6, complex), 1.0, self.p, c)
        assert all(v == 0.0 for v in values)

    def test_real_vector_reduces_F(self):
        # Re(i xi * real * real) = 0, so only the -xi^2 block survives
        c = search_constants(self.p)
        rng = np.random.default_rng(2)
        x = rng.normal(size=6)
        xi = 1.7
        F, K, *_ = functionals(x.astype(complex), xi, self.p, c)
        expected = -xi**2 * (x[0] * x[3] + self.p.a * x[2] * x[1])
        assert F == pytest.approx(expected, rel=1e-12)
        assert K == pytest.approx(0.0, abs=1e-12)


class TestDerivativeIdentities:
    """The time derivatives of F, K, P along exact trajectories must satisfy
    the displayed identities (with the single longitudinal speed k); this is
    the numerical arbiter for the speed-naming ambiguity.  The closed-form
    rates of the oracle (:func:`oracles.rates`, polarization along Phi U)
    must give the same identities to rounding."""

    def _traj_derivative(self, params, xi, vec, name, h=1e-5):
        """(finite-difference rate, the oracle's exact rate, state) at t = 1 of
        the functional ``name``: "E" (E_hat), "F", "K" or "P"."""
        dummy = LyapunovConstants(1, 1, 1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1)
        prop = SymbolPropagator(params, np.array([xi]))
        ts = np.array([1.0 - 2 * h, 1.0 - h, 1.0, 1.0 + h, 1.0 + 2 * h])
        traj = prop.propagate_many(np.asarray(vec, complex)[None, :], ts)[:, 0, :]
        vals = functionals(traj, xi, params, dummy)[{"F": 0, "K": 1, "P": 2, "E": 5}[name]]
        d = (vals[0] - 8 * vals[1] + 8 * vals[3] - vals[4]) / (12 * h)
        v = traj[2]
        exact = rates(v, build_symbol(params, xi).Phi @ v, xi, params)["EFKP".index(name)]
        return d, exact, v

    @pytest.mark.parametrize("params", [
        SystemParams(2, 3, 1.2, 0.7, 0.4),
        SystemParams(1.5, 0.6, 0.9, 0.0, 1.1),
    ])
    def test_E_identity(self, params):
        rng = np.random.default_rng(4)
        vec = rng.normal(size=6) + 1j * rng.normal(size=6)
        dE, exact, v = self._traj_derivative(params, 1.1, vec, "E")
        rhs = -(params.gamma1 * abs(v[3]) ** 2 + params.gamma2 * abs(v[5]) ** 2)
        assert dE == pytest.approx(rhs, rel=1e-6, abs=1e-8)
        assert exact == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("params", [
        SystemParams(1, 1, 0.5, 1, 1),
        SystemParams(2, 3, 1.2, 0.7, 0.4),
        SystemParams(1.5, 0.6, 0.9, 0.0, 1.1),
    ])
    def test_K_identity(self, params):
        a, k, l = params.a, params.k, params.l
        g1, g2 = params.gamma1, params.gamma2
        rng = np.random.default_rng(5)
        xi = 1.3
        vec = rng.normal(size=6) + 1j * rng.normal(size=6)
        dK, exact, v = self._traj_derivative(params, xi, vec, "K")
        vv, u, z, y, phi, eta = v
        rhs = (-k * xi**2 * (abs(phi) ** 2 - abs(eta) ** 2)
               + np.real(1j * xi * l * k * u * np.conj(eta))
               - g2 * np.real(1j * xi * eta * np.conj(phi))
               + np.real(l * a * xi**2 * z * np.conj(phi))
               + l * g1 * np.real(1j * xi * np.conj(phi) * y)
               - l * k * xi**2 * np.real(eta * np.conj(y))
               - np.real(l**2 * k * 1j * xi * np.conj(y) * u))
        assert dK == pytest.approx(rhs, rel=1e-6, abs=1e-8)
        assert exact == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("params", [
        SystemParams(1, 1, 0.5, 1, 1),
        SystemParams(2, 3, 1.2, 0.7, 0.4),
    ])
    def test_F_identity(self, params):
        a, l = params.a, params.l
        g1, g2 = params.gamma1, params.gamma2
        rng = np.random.default_rng(6)
        xi = 0.8
        vec = rng.normal(size=6) + 1j * rng.normal(size=6)
        dF, exact, v = self._traj_derivative(params, xi, vec, "F")
        vv, u, z, y, phi, eta = v
        # the gamma1 xi^2 Re(v conj(y)) term is required: it comes from the
        # -gamma1 y part of y_t hitting the -xi^2 Re(v conj(y)) block of F
        rhs = (-a**2 * l**2 * xi**2 * (abs(z) ** 2 - abs(y) ** 2)
               + xi**2 * abs(y) ** 2 - xi**2 * abs(vv) ** 2
               + g1 * xi**2 * np.real(vv * np.conj(y))
               - a * l**2 * g1 * np.real(1j * xi * np.conj(z) * y)
               + g2 * a * l * np.real(1j * xi * eta * np.conj(z))
               + (1 - a**2) * l * xi**2 * np.real(y * np.conj(eta))
               + (a**2 - 1) * np.real(1j * xi**3 * u * np.conj(y)))
        assert dF == pytest.approx(rhs, rel=1e-6, abs=1e-8)
        assert exact == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("params", [
        SystemParams(1, 1, 0.5, 1, 1),
        SystemParams(1.5, 0.6, 0.9, 0.0, 1.1),
    ])
    def test_P_identity(self, params):
        k, l = params.k, params.l
        g2 = params.gamma2
        rng = np.random.default_rng(7)
        xi = 2.1
        vec = rng.normal(size=6) + 1j * rng.normal(size=6)
        dP, exact, v = self._traj_derivative(params, xi, vec, "P")
        vv, u, z, y, phi, eta = v
        rhs = (-xi**2 * (abs(u) ** 2 - abs(vv) ** 2)
               - l**2 * abs(vv) ** 2 + l**2 * abs(eta) ** 2
               - np.real(1j * xi * y * np.conj(u))
               - 2 * np.real(1j * xi * k * l * phi * np.conj(vv))
               + l * np.real(y * np.conj(eta))
               + l * g2 * np.real(np.conj(vv) * eta))
        assert dP == pytest.approx(rhs, rel=1e-6, abs=1e-8)
        assert exact == pytest.approx(rhs, rel=1e-12)


class TestSearchConstants:
    def test_ordering_satisfied(self):
        p = SystemParams(1, 1, 0.5, 1, 1)
        c = search_constants(p)
        assert c.ordering_violations(p) == []
        assert c.d0 > 0 and c.d1 > 1 and c.d2 > 0

    def test_requires_both_dampings(self):
        with pytest.raises(RegimeError):
            search_constants(SystemParams(1, 1, 0.5, 0, 1))

    def test_vanishing_curvature_infeasible(self):
        # l = 0 makes eps4 < l^2 impossible; l <= 0 is already invalid data
        with pytest.raises(PreconditionError):
            SystemParams(1, 1, 0.0, 1, 1)


class TestAudit:
    p = SystemParams(1, 1, 0.5, 1, 1)

    def test_searched_constants_pass(self):
        c = search_constants(self.p)
        rep = audit_inequality(self.p, c, [0.1, 1.0, 10.0], n_random=40)
        assert rep.violation_count == 0
        assert rep.c0_feasible > 0
        assert rep.max_violation <= rep.slack

    def test_undersized_d0_is_caught(self):
        base = search_constants(self.p)
        small = LyapunovConstants(d0=0.01, d1=base.d1, d2=base.d2,
                                  eps1=base.eps1, eps1p=base.eps1p,
                                  eps2=base.eps2, eps2p=base.eps2p,
                                  eps3=base.eps3, eps4=base.eps4)
        rep = audit_inequality(self.p, small, [0.1, 1.0, 10.0], n_random=40)
        assert rep.violation_count > 0
        assert rep.max_violation > rep.slack

    def test_zero_frequency_bounds_no_c(self):
        # weight 0 at xi = 0: its states must neither set c0 nor hide the
        # other frequencies' bound
        c = search_constants(self.p)
        alone = audit_inequality(self.p, c, [1.0], n_random=10)
        for xi in ([0.0, 1.0], [1.0, 0.0]):
            rep = audit_inequality(self.p, c, xi, n_random=10)
            assert rep.c0_feasible == alone.c0_feasible
            assert rep.violation_count == 0

    def test_bad_ordering_rejected(self):
        bad = LyapunovConstants(d0=100, d1=0.5, d2=1, eps1=10, eps1p=0.1,
                                eps2=0.1, eps2p=0.0, eps3=0.5, eps4=0.1)
        with pytest.raises(RegimeError):
            audit_inequality(self.p, bad, [1.0])

    @pytest.mark.parametrize("name, value, constraint", [
        ("eps2", 0.5, "eps2 must lie in (0, a^2 l^2): 0.5"),
        ("eps3", 1.5, "eps3 must lie in (0, 1): 1.5"),
        ("eps4", 0.5, "eps4 must lie in (0, l^2): 0.5"),
        ("eps1p", 1.0, "eps1p must lie in (0, (1 - eps3)/d2)"),
    ])
    def test_bad_ordering_names_the_constraint(self, name, value, constraint):
        # a^2 l^2 = l^2 = 0.25 here; one constant moved out of its interval
        bad = dataclasses.replace(search_constants(self.p), **{name: value})
        with pytest.raises(RegimeError, match=re.escape(constraint)):
            audit_inequality(self.p, bad, [1.0])

    def test_a_not_one_uses_L2(self):
        p = SystemParams(2, 1, 0.5, 1, 1)
        c = search_constants(p)
        rep = audit_inequality(p, c, [0.1, 1.0, 5.0], n_random=30)
        assert rep.weight_kind == "L2"
        assert rep.violation_count == 0
        assert rep.c0_feasible > 0

    def test_L1_nonincreasing_along_trajectories(self):
        c = search_constants(self.p)
        prop = SymbolPropagator(self.p, np.array([1.0]))
        rng = np.random.default_rng(8)
        states = unit_states(16, rng)
        times = np.linspace(0.0, 5.0, 60)
        traj = prop.propagate_many(states.T[None], times)[:, 0].transpose(0, 2, 1)
        L1 = functionals(traj, 1.0, self.p, c)[3]
        assert np.all(np.diff(L1, axis=0) <= 1e-10)


def stencil_rate(params, consts, xi, states, times):
    """The audit's former dL/dt, kept as an independent oracle: 4th-order
    central differences of L along propagated trajectories.

    The step is a quarter of the audit's former h = min(1e-3, 0.02 / (1 +
    2 |xi| max(1, a, k))), whose h^4 truncation error reached 4e-4 of
    dL/dt at xi = 10 for L2.  Returns the states at ``times``, (nt, c, 6),
    dL/dt there, (nt, c), and the stencil's rounding allowance: 32 eps
    max |L| / h, since L is up to 3e7 times dL/dt at xi = 10 for L2.
    """
    h = 0.25 * min(1e-3, 0.02 / (1.0 + 2.0 * abs(xi) * max(1.0, params.a, params.k)))
    grid = (times[:, None] + np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * h).ravel()
    prop = SymbolPropagator(params, np.array([xi]))
    traj = prop.propagate_many(states.T[None], grid)[:, 0].transpose(0, 2, 1)
    which = 3 if lyapunov_sigma(params, xi)[0] == "L1" else 4
    L = functionals(traj, xi, params, consts)[which].reshape(len(times), 5, -1)
    dL = (L[:, 0] - 8.0 * L[:, 1] + 8.0 * L[:, 3] - L[:, 4]) / (12.0 * h)
    rounding = 32.0 * np.finfo(float).eps * np.abs(L).max() / h
    return traj.reshape(len(times), 5, len(states), 6)[:, 2], dL, rounding


class TestExactRate:
    """The audit's closed-form dL/dt against the finite-difference oracle, to
    1e-6 relative plus the oracle's rounding allowance."""

    # unequal dampings, so a swapped gamma in the energy term shows
    @pytest.mark.parametrize("params", [SystemParams(1, 1, 0.5, 1, 2),
                                        SystemParams(2, 1, 0.5, 1.5, 1)])
    @pytest.mark.parametrize("xi", [0.1, 1.0, 10.0])
    def test_matches_stencil(self, params, xi):
        c = search_constants(params)
        n_random, seed = 20, 4
        rep = audit_inequality(params, c, [xi], n_random=n_random, seed=seed)
        # the audit's states: the basis, then its seeded random unit states
        states = np.concatenate([np.eye(6), unit_states(n_random, np.random.default_rng(seed))])
        times = np.linspace(2e-3, rep.horizon, 24)
        U, dL, rounding = stencil_rate(params, c, xi, states, times)

        kind, sigma = lyapunov_sigma(params, xi)
        dE, dF, dK, dP = rates(U, U @ build_symbol(params, xi).Phi.T, xi, params)
        exact = c.d0 * sigma * dE + c.d1 * dF + c.d2 * dK + dP
        np.testing.assert_allclose(exact, dL, rtol=1e-6, atol=rounding)
        assert rep.weight_kind == kind
        worst = dL.max()
        assert abs(rep.per_frequency_violation[0] - worst) <= 1e-6 * abs(worst) + rounding
        wE = (xi**2 if kind == "L1" else xi**2 / sigma) * 0.5 * np.sum(np.abs(U) ** 2, axis=-1)
        c0 = np.min(-dL / wE)
        assert abs(rep.c0_feasible - c0) <= 1e-6 * c0 + rounding / wE.min()


_speed = st.floats(0.3, 2.5)
_damping = st.floats(0.05, 2.0)


class TestHermitianForm:
    """The audit takes dL/dt and E_hat as Hermitian forms on the propagated
    identity; the state-by-state audit of the oracle is its reference."""

    p = SystemParams(1, 1, 0.5, 1, 1)

    @pytest.mark.parametrize("params", [SystemParams(1, 1, 0.5, 1, 2),
                                        SystemParams(2, 1.3, 0.7, 1.5, 0.4)])
    def test_cross_matrix_is_the_functional(self, params):
        c = search_constants(params)
        xi = np.array([1e-5, 0.3, 1.0, 17.0, 1e3])
        M = _cross_matrix(xi, params, c)
        assert np.array_equal(M, M.conj().swapaxes(-1, -2))
        s = unit_states(50, np.random.default_rng(11))
        F, K, P = _cross_terms(s, xi[:, None], params)
        form = np.einsum("ma,kab,mb->km", s.conj(), M, s).real
        scale = np.abs(M).sum(axis=(1, 2))[:, None]
        assert np.all(np.abs(form - (c.d1 * F + c.d2 * K + P)) <= 1e-14 * scale)

    @pytest.mark.parametrize("n_random", [0, 7, 100])
    def test_propagates_the_identity_only(self, monkeypatch, n_random):
        blocks = []
        stream = SymbolPropagator.states

        def spy(prop, values0, times):
            blocks.append(values0)
            return stream(prop, values0, times)

        monkeypatch.setattr(SymbolPropagator, "states", spy)
        rep = audit_inequality(self.p, search_constants(self.p), [0.1, 1.0, 10.0],
                               n_random=n_random)
        assert len(blocks) == 1
        assert np.array_equal(blocks[0], np.broadcast_to(np.eye(6), (3, 6, 6)))
        assert rep.n_states == 6 + n_random

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(st.builds(SystemParams, _speed, _speed, _speed, _damping, _damping),
           st.lists(st.floats(-5.0, 3.0).map(lambda e: 10.0**e), min_size=1, max_size=4),
           st.integers(0, 40), st.integers(0, 2**32 - 1))
    def test_matches_trajectory_audit(self, params, xi, n_random, seed):
        c = search_constants(params)
        rep = audit_inequality(params, c, xi, n_random=n_random, seed=seed)
        per_freq, count, c0, floor = trajectory_audit(params, c, xi, n_random=n_random,
                                                      seed=seed)
        assert rep.violation_count == count
        # either route sums terms up to |M_G| (1 + |Phi|)^2 and d0 sigma gamma
        # on unit states, each to rounding
        xi = np.asarray(xi)
        size = (np.abs(_cross_matrix(xi, params, c)).sum(axis=(1, 2))
                * (1.0 + np.abs(symbol_stack(params, xi)).sum(axis=(1, 2))) ** 2
                + c.d0 * lyapunov_sigma(params, xi)[1] * (params.gamma1 + params.gamma2))
        rounding = 64 * np.finfo(float).eps * size
        assert np.all(np.abs(rep.per_frequency_violation - per_freq)
                      <= 1e-6 * np.abs(per_freq) + rounding)
        assert abs(rep.c0_feasible - c0) <= 1e-6 * abs(c0) + rounding.max() / floor


class TestLowFrequency:
    """At xi = 1e-5 the energy term d0 sigma E_hat dwarfs dL/dt, and the
    rounding noise of a time stencil faked violations and negative c0."""

    xi = [1e-5]

    def audit(self, params):
        return audit_inequality(params, search_constants(params), self.xi, n_random=20)

    def test_clustered_spectrum(self):
        rep = self.audit(SystemParams(1, 1, 7 / np.sqrt(3), 1, 23 / 3))
        assert rep.violation_count == 0
        assert rep.c0_feasible > 1.9

    def test_L2_functional(self):
        assert self.audit(SystemParams(2, 1, 0.5, 1, 1)).c0_feasible > 1.9

    def test_unequal_speeds(self):
        assert self.audit(SystemParams(1.3, 1.1, 0.7, 1, 2)).violation_count == 0


class TestAuditInput:
    p = SystemParams(1, 1, 0.5, 1, 1)

    @pytest.mark.parametrize("kwargs", [{"xi": []}, {"n_random": -3},
                                        {"horizon": 2e-3}, {"horizon": -1.0},
                                        {"horizon": np.inf}, {"xi": [0.0]},
                                        {"xi": [0.0, 1e-160]}, {"xi": [1e-200]}])
    def test_refused(self, kwargs):
        args = {"xi": [1.0], **kwargs}
        with pytest.raises(PreconditionError):
            audit_inequality(self.p, search_constants(self.p), **args)

    def test_memory_stays_chunked(self):
        # the (times, frequencies, 6, states) trajectory alone would be 8 MB
        import tracemalloc
        c = search_constants(self.p)
        tracemalloc.start()
        try:
            audit_inequality(self.p, c, np.geomspace(0.05, 20.0, 200), n_random=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestSandwichAndGronwall:
    p = SystemParams(1, 1, 0.5, 1, 1)

    def test_equivalence_constants(self):
        c = search_constants(self.p)
        c1, c2 = sandwich_fit(self.p, c, [0.1, 1.0, 10.0], n_states=10_000)
        assert 0 < c1 <= c2

    @pytest.mark.parametrize("xi, n_states", [([], 100), ([1.0], 0), ([1.0], -1)])
    def test_sandwich_over_nothing_refused(self, xi, n_states):
        # before: (inf, -inf) over no state, and a raw ValueError at -1
        c = search_constants(self.p)
        with pytest.raises(PreconditionError, match="sandwich needs frequencies"):
            sandwich_fit(self.p, c, xi, n_states=n_states)

    def test_gronwall_over_no_frequency_refused(self):
        # before: a "pass" with worst ratio 0.0
        c = search_constants(self.p)
        with pytest.raises(PreconditionError, match="sandwich needs frequencies"):
            gronwall_check(self.p, c, [], np.linspace(0.0, 1.0, 5), c0=1.0)

    def test_draws_match_per_frequency_loop(self):
        # the batched draw keeps the stream of one (real, imag) pair of
        # draws per frequency, bit for bit
        loop_rng, rng = np.random.default_rng(9), np.random.default_rng(9)
        loop = np.stack([unit_states(5, loop_rng) for _ in range(3)])
        assert np.array_equal(_unit_states(rng, 3, 5), loop)

    @pytest.mark.parametrize("params", [SystemParams(1, 1, 0.5, 1, 1),
                                        SystemParams(2, 1, 0.5, 1, 1)])
    def test_sandwich_matches_per_frequency_loop(self, params):
        c = search_constants(params)
        xi = [0.1, 1.0, 10.0]
        rng = np.random.default_rng(7)
        c1, c2 = np.inf, -np.inf
        for x in xi:
            L1, L2, E = functionals(unit_states(50, rng), x, params, c)[3:]
            sigma = (1.0 + x * x) if params.a == 1 else (1.0 + x * x + x**4)
            ratio = (L1 if params.a == 1 else L2) / (sigma * E)
            c1, c2 = min(c1, ratio.min()), max(c2, ratio.max())
        # the form s* M s against the per-state functionals, to rounding
        assert sandwich_fit(params, c, xi, n_states=50, seed=7) == pytest.approx(
            (c1, c2), rel=1e-14)

    @pytest.mark.parametrize("params, xi", [(SystemParams(1, 1, 0.5, 1, 1), [0.1, 1.0, 10.0]),
                                            (SystemParams(2, 1, 0.5, 1, 1), [0.1, 1.0, 5.0])])
    def test_gronwall_is_exact_over_all_data(self, params, xi):
        # the worst datum gives E(t)/E(0) = ||e^{t Phi}||_2^2; a sample of
        # unit states can only fall short of it
        from scipy.linalg import expm
        xi = np.asarray(xi)
        c = search_constants(params)
        t_grid = np.linspace(0, 20, 40)
        worst, (c1, c2, c3) = gronwall_check(params, c, xi, t_grid, c0=1.5)
        assert (c1, c2) == sandwich_fit(params, c, xi, seed=5)
        rho = xi**2 / lyapunov_sigma(params, xi)[1]
        allowed = (c2 / c1) * np.exp(-c3 * rho[:, None] * t_grid)     # (nxi, nt)
        exact = np.array([[np.linalg.norm(expm(build_symbol(params, x).Phi * t), 2) ** 2
                           for t in t_grid] for x in xi])
        assert worst == pytest.approx((exact / allowed).max(), rel=1e-9)
        # E(t)/E(0) of 32 random unit states per frequency
        states = _unit_states(np.random.default_rng(5), len(xi), 32)
        E = density(SymbolPropagator(params, xi), states.transpose(0, 2, 1), t_grid)
        assert worst >= (E / allowed[:, None]).max()

    def test_gronwall_bound_holds(self):
        c = search_constants(self.p)
        rep = audit_inequality(self.p, c, [0.1, 1.0, 10.0], n_random=30)
        worst, (c1, c2, c3) = gronwall_check(
            self.p, c, [0.1, 1.0, 10.0], np.linspace(0, 20, 40),
            c0=rep.c0_feasible)
        assert c1 > 0 and c3 > 0
        assert worst <= 1.0 + 1e-9

    def test_gronwall_bound_holds_a2(self):
        # a != 1 route: L2 functional, rho2 shape
        p = SystemParams(2, 1, 0.5, 1, 1)
        c = search_constants(p)
        rep = audit_inequality(p, c, [0.1, 1.0, 5.0], n_random=30)
        worst, (c1, c2, c3) = gronwall_check(
            p, c, [0.1, 1.0, 5.0], np.linspace(0, 20, 40),
            c0=rep.c0_feasible)
        assert c1 > 0 and c3 > 0
        assert worst <= 1.0 + 1e-9


class TestAmbiguousFrequency:
    """(1, 1, 7/sqrt 3, 1, 23/3): the zero-frequency cubic is
    (Z + 3)^2 (Z + 8/3), so the spectrum at xi = 1e-5 is ambiguously
    clustered and takes the bidiagonal route."""

    p = SystemParams(1, 1, 7 / np.sqrt(3), 1, 23 / 3)
    xi = 1e-5

    def test_frequency_is_ambiguous(self):
        assert SymbolPropagator(self.p, np.array([self.xi])).ambiguous.all()

    def test_audit_propagates_the_states(self, monkeypatch):
        calls, chunks = [], []
        stream = SymbolPropagator.states

        def spy(prop, values0, times):
            calls.append(times)
            for rows, U in stream(prop, values0, times):
                chunks.append(U)
                yield rows, U

        monkeypatch.setattr(SymbolPropagator, "states", spy)
        c = search_constants(self.p)
        rep = audit_inequality(self.p, c, [self.xi], n_random=20)
        assert len(calls) == 1 and len(chunks) == 1
        # unit states at the first sample, t = 2e-3 (gamma2 = 23/3 takes at
        # most 2% off); the zero state would give 0 here
        norms = np.linalg.norm(chunks[0][0, :, :, 0], axis=0)
        assert np.all((0.9 < norms) & (norms <= 1.0 + 1e-12))
        assert rep.per_frequency_violation[0] != 0.0

    def test_gronwall_ratio_is_evaluated(self):
        c = search_constants(self.p)
        rep = audit_inequality(self.p, c, [0.1, 1.0], n_random=20)
        worst, _ = gronwall_check(self.p, c, [self.xi], np.linspace(0, 20, 40),
                                  c0=rep.c0_feasible)
        assert 0.5 < worst <= 1.0 + 1e-9
