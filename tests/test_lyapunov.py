import numpy as np
import pytest

from disspec import (FourierState, PreconditionError, RegimeError,
                     SystemParams, audit_inequality, eval_functionals,
                     gronwall_check, search_constants)
from disspec.lyapunov import (LyapunovConstants, _functionals_arrays,
                              required_d0, sandwich_fit)
from disspec.propagator import SymbolPropagator


def unit_states(n, rng):
    s = rng.normal(size=(n, 6)) + 1j * rng.normal(size=(n, 6))
    return s / np.linalg.norm(s, axis=1, keepdims=True)


class TestFunctionals:
    p = SystemParams(1, 1, 0.5, 1, 1)

    def state_at(self, xi, vec):
        grid = np.array([xi])
        return FourierState(params=self.p, grid=grid,
                            values=np.asarray(vec, complex)[None, :], t=0.0)

    def test_zero_state_all_zero(self):
        c = search_constants(self.p)
        fv = eval_functionals(self.state_at(1.0, np.zeros(6)), self.p, c, 1.0)
        assert fv.F == fv.K == fv.P == fv.L1 == fv.L2 == fv.E_hat == 0.0

    def test_real_vector_reduces_F(self):
        # Re(i xi * real * real) = 0, so only the -xi^2 block survives
        c = search_constants(self.p)
        rng = np.random.default_rng(2)
        x = rng.normal(size=6)
        xi = 1.7
        fv = eval_functionals(self.state_at(xi, x), self.p, c, xi)
        expected = -xi**2 * (x[0] * x[3] + self.p.a * x[2] * x[1])
        assert fv.F == pytest.approx(expected, rel=1e-12)
        assert fv.K == pytest.approx(0.0, abs=1e-12)

    def test_off_grid_frequency_rejected(self):
        c = search_constants(self.p)
        with pytest.raises(PreconditionError):
            eval_functionals(self.state_at(1.0, np.ones(6)), self.p, c, 2.0)


class TestDerivativeIdentities:
    """The time derivatives of F, K, P along exact trajectories must satisfy
    the displayed identities (with the single longitudinal speed k); this is
    the numerical arbiter for the speed-naming ambiguity."""

    def _traj_derivative(self, params, xi, vec, func, h=1e-5):
        prop = SymbolPropagator(params, np.array([xi]))
        ts = np.array([1.0 - 2 * h, 1.0 - h, 1.0, 1.0 + h, 1.0 + 2 * h])
        traj = prop.propagate_many(np.asarray(vec, complex)[None, :], ts)[:, 0, :]
        vals = np.array([func(v) for v in traj])
        d = (vals[0] - 8 * vals[1] + 8 * vals[3] - vals[4]) / (12 * h)
        return d, traj[2]

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
        dummy = LyapunovConstants(1, 1, 1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1)

        def K_of(v):
            return _functionals_arrays(v, xi, params, dummy)[1]

        dK, v = self._traj_derivative(params, xi, vec, K_of)
        vv, u, z, y, phi, eta = v
        rhs = (-k * xi**2 * (abs(phi) ** 2 - abs(eta) ** 2)
               + np.real(1j * xi * l * k * u * np.conj(eta))
               - g2 * np.real(1j * xi * eta * np.conj(phi))
               + np.real(l * a * xi**2 * z * np.conj(phi))
               + l * g1 * np.real(1j * xi * np.conj(phi) * y)
               - l * k * xi**2 * np.real(eta * np.conj(y))
               - np.real(l**2 * k * 1j * xi * np.conj(y) * u))
        assert dK == pytest.approx(rhs, rel=1e-6, abs=1e-8)

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
        dummy = LyapunovConstants(1, 1, 1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1)

        def F_of(v):
            return _functionals_arrays(v, xi, params, dummy)[0]

        dF, v = self._traj_derivative(params, xi, vec, F_of)
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
        dummy = LyapunovConstants(1, 1, 1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1)

        def P_of(v):
            return _functionals_arrays(v, xi, params, dummy)[2]

        dP, v = self._traj_derivative(params, xi, vec, P_of)
        vv, u, z, y, phi, eta = v
        rhs = (-xi**2 * (abs(u) ** 2 - abs(vv) ** 2)
               - l**2 * abs(vv) ** 2 + l**2 * abs(eta) ** 2
               - np.real(1j * xi * y * np.conj(u))
               - 2 * np.real(1j * xi * k * l * phi * np.conj(vv))
               + l * np.real(y * np.conj(eta))
               + l * g2 * np.real(np.conj(vv) * eta))
        assert dP == pytest.approx(rhs, rel=1e-6, abs=1e-8)


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

    def test_bad_ordering_rejected(self):
        bad = LyapunovConstants(d0=100, d1=0.5, d2=1, eps1=10, eps1p=0.1,
                                eps2=0.1, eps2p=0.0, eps3=0.5, eps4=0.1)
        with pytest.raises(RegimeError):
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
        L1 = _functionals_arrays(traj, 1.0, self.p, c)[3]
        assert np.all(np.diff(L1, axis=0) <= 1e-10)


class TestSandwichAndGronwall:
    p = SystemParams(1, 1, 0.5, 1, 1)

    def test_equivalence_constants(self):
        c = search_constants(self.p)
        c1, c2 = sandwich_fit(self.p, c, [0.1, 1.0, 10.0], n_states=10_000)
        assert 0 < c1 <= c2

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
        trajectories = []
        propagate = SymbolPropagator.propagate_many

        def spy(prop, values0, times):
            out = propagate(prop, values0, times)
            trajectories.append(out)
            return out

        monkeypatch.setattr(SymbolPropagator, "propagate_many", spy)
        c = search_constants(self.p)
        rep = audit_inequality(self.p, c, [self.xi], n_random=20)
        assert len(trajectories) == 1
        # unit states at the first sample, t = 2 h = 2e-3 (gamma2 = 23/3
        # takes at most 2% off); the zero state would give 0 here
        norms = np.linalg.norm(trajectories[0][0, 0], axis=0)
        assert np.all((0.9 < norms) & (norms <= 1.0 + 1e-12))
        assert rep.per_frequency_violation[0] != 0.0

    def test_gronwall_ratio_is_evaluated(self):
        c = search_constants(self.p)
        rep = audit_inequality(self.p, c, [0.1, 1.0], n_random=20)
        worst, _ = gronwall_check(self.p, c, [self.xi], np.linspace(0, 20, 40),
                                  c0=rep.c0_feasible)
        assert 0.5 < worst <= 1.0 + 1e-9


@pytest.mark.slow
def test_required_d0_monotone_under_damping_doubling():
    # recorded golden behavior: doubling both dampings from a weakly damped
    # start never increases the minimal d0 that passes the audit
    base = SystemParams(1, 1, 0.5, 0.25, 0.25)
    d0s = []
    for scale in (1.0, 2.0, 4.0):
        p = SystemParams(1, 1, 0.5, base.gamma1 * scale, base.gamma2 * scale)
        d0s.append(required_d0(p, xi=(0.1, 1.0, 10.0), horizon=3.0, n_random=16))
    assert d0s[1] <= d0s[0] * 1.05
    assert d0s[2] <= d0s[1] * 1.05
