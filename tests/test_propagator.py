import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from disspec import (FourierState, PreconditionError, SolverError,
                     SystemParams, TailMassError, build_symbol, default_grid,
                     eigenvalues_batch, sobolev_norms)
from disspec import propagator as propagator_module
from disspec.decay_lab import _conservative_vector
from disspec.propagator import (_EXP_FLOOR, SymbolPropagator, _ambiguous, _basis,
                                _newton_weights, _partners, _q_chain, _r_bidiag)
from oracles import (density, dissipation, energy, energy_audit, plancherel_norms,
                     r_chain_mp, six_exp_table)


def plancherel_norm(state, j):
    """Squared Sobolev seminorm of one state: :func:`sobolev_norms` at t = 0."""
    prop = SymbolPropagator(state.params, state.grid)
    return float(sobolev_norms(prop, state.values, [0.0], (j,))[0, 0])


def defective_nodes():
    """Putzer-order eigenvalues at xi = 0 of (1, 1, sqrt 8, 0, sqrt 27),
    whose symbol carries a 3x3 Jordan block."""
    p = SystemParams(1.0, 1.0, np.sqrt(8.0), 0.0, np.sqrt(27.0))
    return eigenvalues_batch(p, [0.0])[0][0]


def weights_r(lam, t):
    """r_1..r_6 of one node set at one time: the Newton weights times the
    six exponentials e^{lambda t}."""
    lam = np.asarray(lam, dtype=complex)[None]
    return (_newton_weights(lam) @ np.exp(lam * t)[..., None])[0, :, 0]


def bidiag_r(lam, t):
    """r_1..r_6 of one node set at one time from the bidiagonal exponential."""
    return _r_bidiag(np.asarray(lam, dtype=complex)[None], np.array([t]))[:, 0]


def p_chain(Phi, lam):
    """P_0..P_5 of one symbol: the Q chain of the identity block."""
    return _q_chain(Phi[None], np.asarray(lam, dtype=complex)[None], np.eye(6)[None])[0]


def exp_many(p, xi, times):
    """e^{t Phi(i xi)} at each time: the identity block propagated by a
    one-frequency SymbolPropagator, shape (ntimes, 6, 6)."""
    prop = SymbolPropagator(p, np.array([xi]))
    return prop.propagate_many(np.eye(6)[None], np.asarray(times, dtype=float))[:, 0]


class TestPutzerR:
    def test_initial_values(self):
        prop = SymbolPropagator(SystemParams(1, 1, 0.5, 1, 1), np.array([-2.0, 0.3, 7.0]))
        r = prop.r_many(np.array([0.0]))[:, 0]
        assert np.all(r[:, 0] == 1.0)
        assert np.all(r[:, 1:] == 0.0)

    def test_exact_double_confluent_limit(self):
        lam0 = -0.7 + 0.4j
        lam = np.array([lam0, lam0, -2.0, -3.0, -4.0, -5.0])
        # an exact repeat is a cluster of width 0: the bidiagonal route
        assert _ambiguous(lam[None])[0]
        t = 1.3
        r = bidiag_r(lam, t)
        assert r[1] == pytest.approx(t * np.exp(lam0 * t), rel=1e-12)

    def test_distinct_matches_mp_oracle(self):
        lam = np.array([-1.0, -2.0, -3.0, -4.0, -5.0, -6.0], dtype=complex)
        r = weights_r(lam, 1.0)
        assert np.max(np.abs(r - r_chain_mp(lam, 1.0))) <= 1e-9

    def test_near_double_routes_through_chain(self):
        lam = np.array([-1 + 1j, -1 + 1j + 1e-8, -2.0, -3.0, 0.5j, -0.5j])
        assert _ambiguous(lam[None])[0]
        r = bidiag_r(lam, 2.0)
        assert np.max(np.abs(r - r_chain_mp(lam, 2.0))) <= 1e-10

    def test_non_adjacent_equal_nodes_take_bidiag(self):
        # undamped at xi = 0: the sextic lambda^2 (lambda^2 + 1) (lambda^2 + 2)
        # has the exact double root 0
        p = SystemParams(1, 1, 1, 0, 0)
        sym = build_symbol(p, 0.0)
        r2 = np.sqrt(2.0)
        putzer_order = np.array([-1j * r2, -1j, 0.0, 0.0, 1j, 1j * r2])
        lam = putzer_order[[2, 0, 1, 4, 5, 3]]
        # equal nodes take the bidiagonal route in any order
        assert _ambiguous(np.array([lam, putzer_order])).tolist() == [True, True]
        t = 1.7
        r = bidiag_r(lam, t)
        E = np.einsum("j,jab->ab", r, p_chain(sym.Phi, lam))
        assert np.max(np.abs(E - expm(sym.Phi * t))) <= 1e-10

    @pytest.mark.parametrize("p, adjacent", [((0.3, 0.3, 1.935200679453398, 0, 0), True),
                                             ((1, 1, 1, 0, 0), False)])
    def test_undamped_double_root_at_zero(self, p, adjacent):
        # the solve returns the double root 0 either as the exactly equal
        # adjacent 0j, -0j or as -0j and -4.7e-17 apart; both take the
        # bidiagonal route
        prop = SymbolPropagator(SystemParams(*p), np.array([0.0]))
        lam = prop.nodes[0]
        assert np.any(lam[1:] == lam[:-1]) == adjacent
        assert np.all(np.sort(np.abs(lam))[:2] <= 1e-16)
        assert prop.ambiguous.tolist() == [True]
        times = np.array([0.3, 1.7, 20.0])
        E = prop.propagate_many(np.eye(6)[None], times)[:, 0]
        for q, t in enumerate(times):
            assert np.max(np.abs(E[q] - expm(prop.Phi[0] * t))) <= 1e-10

    def test_one_ambiguity_rule(self):
        base = np.array([-1.0, -2.0, -3.0, -4.0, -5.0, -6.0], dtype=complex)
        near, adjacent, apart, unpaired = base.copy(), base.copy(), base.copy(), base.copy()
        near[1] = -1.0 + 1e-4
        adjacent[1] = -1.0
        apart[2] = -1.0
        unpaired[5] = -6.0 + 1.0j
        rows = np.array([base, near, adjacent, apart, unpaired])
        assert _ambiguous(rows).tolist() == [False, True, True, True, True]

    def test_negative_time_rejected(self):
        prop = SymbolPropagator(SystemParams(1, 1, 0.5, 1, 1), np.array([0.5]))
        with pytest.raises(PreconditionError, match="finite and >= 0"):
            prop.r_many(np.array([-1.0]))

    def test_overflow_policy(self):
        def basis(lam, t):
            lam = np.asarray(lam, dtype=complex)[None]
            return _basis(lam, _partners(lam), np.array([t]))[0, :, 0]

        lam = np.array([2.0, -1.0, -2.0, -3.0, -4.0, -5.0])
        with pytest.raises(SolverError):
            basis(lam, 400.0)
        lam_neg = np.array([-10.0, -1.0, -2.0, -3.0, -4.0, -5.0])
        psi = basis(lam_neg, 200.0)  # e^{-2000} underflows to exactly 0
        assert np.isfinite(psi).all() and psi[0] == 0.0


class TestBidiagKernel:
    """_r_bidiag against the 50-digit bidiagonal exponential."""

    def test_random_clusters_match_mp_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            center = complex(-abs(rng.normal()), rng.normal())
            spread = 10.0 ** rng.uniform(-10, 0)
            lam = center + spread * (rng.normal(size=6) + 1j * rng.normal(size=6))
            t = rng.uniform(0.05, 10.0) / max(1.0, np.abs(lam).max())
            ref = r_chain_mp(lam, t)
            r = _r_bidiag(lam[None], np.array([t]))[:, 0]
            assert np.max(np.abs(r - ref)) <= 1e-12 * max(1.0, np.abs(ref).max())

    @pytest.mark.parametrize("t", [50.0, 200.0, 1e3, 1e4])
    def test_defective_point_large_times(self, t):
        # the sinh-only subdiagonal turns into NaN here at t = 1e4
        lam = defective_nodes()
        ref = r_chain_mp(lam, t)
        r = _r_bidiag(lam[None], np.array([t]))[:, 0]
        assert np.isfinite(r).all()
        assert np.max(np.abs(r - ref)) <= 1e-10 * max(1.0, np.abs(ref).max())

    @pytest.mark.parametrize("t", [5e-324, 1e-310])
    def test_subnormal_time(self, t):
        # complex division by the subnormal half-differences of y = lambda t
        # turned the subdiagonal into NaN here
        lam = defective_nodes()
        r = bidiag_r(lam, t)
        assert np.isfinite(r).all()
        assert np.max(np.abs(r - r_chain_mp(lam, t))) <= 1e-15

    def test_batch_rows_are_independent(self):
        rng = np.random.default_rng(12)
        lam = -np.abs(rng.normal(size=(5, 6))) + 1j * rng.normal(size=(5, 6))
        t = np.array([0.0, 0.3, 7.0, 200.0, 1e4])
        r = _r_bidiag(lam, t)
        for i in range(len(t)):
            one = _r_bidiag(lam[i:i + 1], t[i:i + 1])[:, 0]
            assert np.max(np.abs(one - r[:, i])) <= 1e-14 * max(1.0, np.abs(one).max())

    def test_edge_values(self):
        lam = np.array([[-1.0, -2.0, 0.5j, -0.5j, -3.0, -3.0 + 1e-9]])
        r = _r_bidiag(lam, np.array([0.0]))
        assert np.array_equal(r[:, 0], np.eye(6)[0])
        with pytest.raises(SolverError):
            _r_bidiag(lam + 1.0, np.array([701.0]))
        low = np.full((1, 6), -1.0 + 0.2j)
        low[0, ::2] -= 1e-7
        r = _r_bidiag(low, np.array([-_EXP_FLOOR + 1.0]))
        assert np.array_equal(r, np.zeros((6, 1)))


class TestConjugateMirror:
    """Every complex node needs its mirror: the exact conjugate, whose
    basis function is the conjugate of its own.  The real
    contraction evaluates one complex exp per pair, and r_many, the weights
    times that basis, agrees with the six-exp Newton table on values."""

    # the regimes of test_spectral.TestBatchedSolve
    REGIMES = [(1, 1, 0.5, 1, 1), (2, 1, 1, 0, 1), (1.3, 0.8, 1.1, 1, 0),
               (1, 1, 1, 0, 0), (1, 1, np.sqrt(8.0), 0, np.sqrt(27.0))]
    #: t = 0 and the floor (Re(lambda t) < -745) give zero imaginary parts
    TIMES = np.concatenate([[0.0], np.geomspace(1e-3, 1e4, 30)])

    @staticmethod
    def spy(monkeypatch):
        """Record the arrays that the basis hands to _safe_exp."""
        safe_exp = propagator_module._safe_exp
        calls = []

        def counting(z):
            calls.append((z.dtype.kind, z.size))
            return safe_exp(z)

        monkeypatch.setattr(propagator_module, "_safe_exp", counting)
        return calls

    @pytest.mark.parametrize("p", REGIMES)
    def test_default_grid_nodes_bitwise(self, p):
        # the solve's complex roots pair up bit for bit, so every
        # default-grid spectrum has its mirrors
        lam, _ = eigenvalues_batch(SystemParams(*p), default_grid())
        nodes = np.unique(lam, axis=0)
        partner = _partners(nodes)
        assert np.all(partner >= 0)
        assert np.array_equal(nodes[np.arange(len(nodes))[:, None], partner], nodes.conj())

    @pytest.mark.parametrize("p", REGIMES)
    def test_r_many_matches_six_exp_table(self, p):
        # relative to the sum's own scale sum_i |W_ji phi_i(t)|: both the
        # weights and the table cancel there at small t and close nodes
        prop = SymbolPropagator(SystemParams(*p), default_grid())
        ok = ~prop.ambiguous
        lam = prop.lambdas[ok]
        ref = np.moveaxis(six_exp_table(lam, self.TIMES), 0, -1)        # (n, nt, 6)
        with np.errstate(under="ignore"):
            phi = np.exp(lam[..., None] * self.TIMES)
        scale = np.moveaxis(np.abs(_newton_weights(lam)) @ np.abs(phi), 1, -1)
        err = np.abs(prop.r_many(self.TIMES)[ok] - ref)
        assert np.all(err <= 1e-13 * scale + 1e-300)

    def test_random_nodes_mirror_nothing(self):
        rng = np.random.default_rng(21)
        lam = -np.abs(rng.normal(size=(50, 6))) + 1j * rng.normal(size=(50, 6))
        lam = lam[np.arange(50)[:, None], np.lexsort((lam.imag, -lam.real), axis=1)]
        assert np.all(_partners(lam) == -1)
        assert _ambiguous(lam).all()

    def test_only_exact_conjugates_pair(self):
        # exact conjugates pair in any order; a pair whose real parts are a
        # rounding apart does not; equal nodes share their mirror, and their
        # row is ambiguous for the repeat
        pair = np.array([-0.5 - 2.0j, -0.5 + 2.0j])
        rows = np.array([
            [0.0, *pair, -1.0 - 1.0j, -1.0 + 1.0j, -2.0],
            [0.0, *pair[::-1], -1.0 - 1.0j, -1.0 + 1.0j, -2.0],
            [0.0, pair[0], np.nextafter(pair[1].real, 0) + 2.0j, -1.0, -2.0, -3.0],
            [-0.1 - 1.0j, -0.1 + 1.0j, -0.1 - 3.0j, -0.1 + 3.0j, -1.0, -2.0],
            [pair[0], pair[0], pair[1], -1.0, -2.0, -3.0],
        ])
        partner = _partners(rows)
        assert partner.tolist()[0] == [0, 2, 1, 4, 3, 5]
        assert partner.tolist()[1] == [0, 2, 1, 4, 3, 5]
        assert partner.tolist()[2] == [0, -1, -1, 3, 4, 5]
        assert partner.tolist()[3] == [1, 0, 3, 2, 4, 5]
        assert partner.tolist()[4] == [2, 2, 0, 3, 4, 5]
        assert _ambiguous(rows).tolist() == [False, False, True, False, True]

    def test_default_grid_exponentiates_at_most_60_percent(self, monkeypatch):
        prop = SymbolPropagator(SystemParams(1, 1, 0.5, 1, 1), default_grid())
        calls = self.spy(monkeypatch)
        times = np.geomspace(1.0, 1e4, 40)
        prop.plancherel_sums(np.ones((len(prop.grid), 6)), times, np.ones((len(prop.grid), 1)))
        cells = sum(size for _, size in calls)
        complex_cells = sum(size for kind, size in calls if kind == "c")
        assert cells <= 0.6 * 6 * len(prop.nodes) * len(times)
        # one complex exp per conjugate pair and cell, none for a real node
        assert complex_cells == np.sum(prop.nodes.imag > 0) * len(times)


class TestMatrixExp:
    """e^{t Phi} as the identity block propagated by SymbolPropagator."""

    p = SystemParams(1, 1, 0.5, 1, 1)

    def test_identity_at_time_zero(self):
        assert np.array_equal(exp_many(self.p, 1.0, [0.0])[0], np.eye(6))

    def test_against_pade_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            p = SystemParams(*rng.uniform(0.3, 2.5, 3), *rng.uniform(0, 2, 2))
            xi = rng.uniform(-100, 100)
            t = rng.uniform(0, 10)
            E_putzer = exp_many(p, xi, [t])[0]
            E_pade = expm(build_symbol(p, xi).Phi * t)
            assert np.max(np.abs(E_putzer - E_pade)) <= 1e-8

    def test_semigroup_property(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            xi = rng.uniform(-5, 5)
            t1, t2 = rng.uniform(0, 5, size=2)
            whole, first, second = exp_many(self.p, xi, [t1 + t2, t1, t2])
            assert np.max(np.abs(whole - first @ second)) <= 1e-8

    def test_cayley_hamilton_residual(self):
        # P_6 = (Phi - lambda_6 I) P_5 vanishes up to roundoff
        rng = np.random.default_rng(31)
        for _ in range(20):
            p = SystemParams(*rng.uniform(0.3, 2.5, 3), *rng.uniform(0, 2, 2))
            xi = rng.uniform(-50, 50)
            Phi = build_symbol(p, xi).Phi
            lam = eigenvalues_batch(p, [xi])[0][0]
            P6 = (Phi - lam[5] * np.eye(6)) @ p_chain(Phi, lam)[5]
            nrm = np.linalg.norm(Phi, 2)
            assert np.linalg.norm(P6, 2) <= 1e-6 * (1.0 + nrm) ** 6

    def test_defective_triple_point(self):
        # the cubic governing the zero-frequency limit becomes a perfect
        # cube at l^2 = 8, gamma2^2 = 27 (gamma1 = 0): the symbol carries a
        # genuine 3x3 Jordan block there, individual roots are only
        # resolvable to ~eps^(1/3), and only the trace-corrected cluster
        # snap keeps the assembled exponential at oracle accuracy
        p = SystemParams(1.0, 1.0, np.sqrt(8.0), 0.0, np.sqrt(27.0))
        for xi, t in ((0.0, 8.6), (1e-8, 5.0), (0.0, 0.5), (-1e-9, 2.0)):
            E_putzer = exp_many(p, xi, [t])[0]
            E_pade = expm(build_symbol(p, xi).Phi * t)
            assert np.max(np.abs(E_putzer - E_pade)) <= 1e-8

    def test_order_invariance(self):
        # r and the P chain of the nodes in any order assemble the same
        # exponential; the bidiagonal r accepts nodes in any order
        rng = np.random.default_rng(37)
        Phi = build_symbol(self.p, 2.0).Phi
        lam = eigenvalues_batch(self.p, [2.0])[0][0]
        E_ref = exp_many(self.p, 2.0, [1.5])[0]
        for _ in range(4):
            perm = rng.permutation(6)
            E_perm = np.einsum("j,jab->ab", bidiag_r(lam[perm], 1.5),
                               p_chain(Phi, lam[perm]))
            assert np.max(np.abs(E_perm - E_ref)) <= 1e-9


class TestEvolve:
    def make_state(self, params, xi_max=8.0):
        grid = default_grid(xi_max=xi_max, n_geo=64, n_lin=64)
        values = np.exp(-0.5 * grid**2)[:, None] * np.ones(6) / np.sqrt(6)
        return FourierState(params=params, grid=grid, values=values.astype(complex))

    def test_zero_step_unchanged(self):
        st = self.make_state(SystemParams(1, 1, 0.5, 1, 1))
        out = SymbolPropagator(st.params, st.grid).apply(st.values, 0.0)
        assert np.array_equal(out, st.values)

    def test_backwards_rejected(self):
        st = self.make_state(SystemParams(1, 1, 0.5, 1, 1))
        with pytest.raises(PreconditionError):
            SymbolPropagator(st.params, st.grid).apply(st.values, -1.0)

    def test_undamped_norm_preserved(self):
        st = self.make_state(SystemParams(1.3, 0.7, 1.0, 0, 0))
        values = SymbolPropagator(st.params, st.grid).apply(st.values, 7.0)
        n0 = np.linalg.norm(st.values, axis=1)
        n1 = np.linalg.norm(values, axis=1)
        assert np.allclose(n0, n1, atol=1e-9)

    def test_conservative_eigenvector_modulus_constant(self):
        p = SystemParams(1, 1, 1, 1, 0)
        xi0 = 1.0
        vec = _conservative_vector(p, [xi0])
        prop = SymbolPropagator(p, np.array([xi0]))
        times = np.linspace(0.5, 100.0, 40)
        traj = prop.propagate_many(vec, times)
        mods = np.linalg.norm(traj[:, 0, :], axis=1)
        assert np.max(np.abs(mods - 1.0)) <= 1e-8


class TestEnergyAudit:
    def make_state(self, params):
        grid = default_grid(xi_max=8.0, n_geo=96, n_lin=96)
        values = np.exp(-0.5 * grid**2)[:, None] * np.ones(6) / np.sqrt(6)
        return FourierState(params=params, grid=grid, values=values.astype(complex))

    def test_undamped_energy_conserved(self):
        p = SystemParams(1, 1, 1, 0, 0)
        st = self.make_state(p)
        assert energy_audit(st, 1e-3) <= 1e-9
        values = SymbolPropagator(p, st.grid).apply(st.values, 3.0)
        assert np.allclose(energy(values), energy(st.values), rtol=1e-9)

    def test_instantaneous_dissipation_of_pure_y(self):
        p = SystemParams(1, 1, 1, 1, 0.3)
        grid = np.array([-1.0, 1.0])
        values = np.zeros((2, 6), dtype=complex)
        values[:, 3] = 1.0
        assert np.allclose(dissipation(p, values), 1.0)

    def test_residual_second_order_in_dt(self):
        p = SystemParams(1, 1, 0.5, 1, 1)
        st = self.make_state(p)
        resids = []
        dts = [4e-3, 2e-3, 1e-3, 5e-4]
        for dt in dts:
            resids.append(energy_audit(st, dt))
        order = np.polyfit(np.log(dts), np.log(resids), 1)[0]
        assert order >= 1.9

    def test_residual_small_at_reference_dt(self):
        st = self.make_state(SystemParams(1, 1, 0.5, 1, 1))
        assert energy_audit(st, 1e-4) <= 1e-6


class TestPlancherel:
    def test_zero_state(self):
        p = SystemParams(1, 1, 1, 1, 1)
        grid = np.linspace(-2, 2, 101)
        st = FourierState(params=p, grid=grid,
                          values=np.zeros((101, 6), dtype=complex))
        assert plancherel_norm(st, 0) == 0.0

    def test_unit_profile_on_band(self):
        p = SystemParams(1, 1, 1, 1, 1)
        grid = np.linspace(-2, 2, 4001)
        values = np.zeros((len(grid), 6), dtype=complex)
        inside = np.abs(grid) <= 1.0
        values[inside, :] = 1.0
        st = FourierState(params=p, grid=grid, values=values)
        # integral of |U|^2 = 6 over [-1, 1] gives 12
        assert plancherel_norm(st, 0) == pytest.approx(12.0, abs=1e-6 * 12 + 0.02)

    def test_tail_mass_violation(self):
        p = SystemParams(1, 1, 1, 1, 1)
        grid = np.linspace(-1, 1, 101)
        values = np.ones((101, 6), dtype=complex)
        st = FourierState(params=p, grid=grid, values=values)
        with pytest.raises(TailMassError):
            plancherel_norm(st, 0)

    def test_norm_monotone_under_damped_evolution(self):
        p = SystemParams(1, 1, 0.5, 1, 1)
        grid = default_grid(xi_max=8.0, n_geo=64, n_lin=64)
        values = (np.exp(-0.5 * grid**2)[:, None]
                  * np.ones(6).astype(complex) / np.sqrt(6))
        st = FourierState(params=p, grid=grid, values=values)
        prop = SymbolPropagator(p, grid)
        times = np.linspace(0.0, 10.0, 21)
        traj = prop.propagate_many(st.values, times)
        norms = [plancherel_norm(
            FourierState(params=p, grid=grid, values=traj[i]), 0)
            for i in range(len(times))]
        assert np.all(np.diff(norms) <= 1e-12)


class TestPointwiseRateShape:
    def test_rho1_lower_bound_a1(self):
        from disspec import fit_pointwise_rate
        p = SystemParams(1, 1, 0.5, 1, 1)
        out = fit_pointwise_rate(p, np.geomspace(0.01, 100, 15))
        assert out["ratio_min"] > 0
        assert out["ratio_max"] < 50 * max(1.0, out["ratio_min"])

    def test_regularity_loss_rate_a2(self):
        from disspec import fit_pointwise_rate
        p = SystemParams(2, 1, 0.5, 1, 1)
        xi = np.geomspace(10, 100, 8)
        out = fit_pointwise_rate(p, xi)
        scaled = out["rate"] * xi**2
        assert scaled.max() / scaled.min() < 3.0

    def test_one_solve_matches_expm(self, monkeypatch):
        from disspec import fit_pointwise_rate

        calls = []
        batch = propagator_module.eigenvalues_batch

        def spy(params, xi):
            calls.append(len(xi))
            return batch(params, xi)

        monkeypatch.setattr(propagator_module, "eigenvalues_batch", spy)
        p = SystemParams(1, 1, 0.5, 1, 1)
        xi = np.geomspace(0.01, 100, 12)
        out = fit_pointwise_rate(p, xi)
        assert calls == [12]
        for x, rate in zip(xi, out["rate"]):
            T = 20.0 * (1.0 + x * x) / (x * x)
            ref = -2.0 * np.log(np.linalg.norm(expm(build_symbol(p, x).Phi * T), 2)) / T
            assert abs(rate - ref) <= 1e-9 * abs(ref)


class TestVectorizedPropagator:
    def test_operator_norm_contraction(self):
        p = SystemParams(1, 1, 0.5, 1, 1)
        grid = np.geomspace(0.1, 50, 12)
        prop = SymbolPropagator(p, grid)
        nrm = prop.operator_norms(np.geomspace(0.01, 100, 12))
        assert np.all(nrm <= 1.0 + 1e-9)

    @pytest.mark.parametrize("method", ["propagate_many", "plancherel_sums", "operator_norms"])
    def test_negative_time_rejected(self, method):
        # e^{-t Phi} grows: ||e^{-Phi}|| = 2.67 at xi = 0.5 for these params
        prop = SymbolPropagator(SystemParams(1, 1, 0.5, 1, 1), np.array([0.5, 1.0]))
        args = (np.array([0.0, -1.0]),)
        if method != "operator_norms":
            args = (np.ones((2, 6), dtype=complex),) + args
        if method == "plancherel_sums":
            args += (np.ones((2, 1)),)
        with pytest.raises(PreconditionError, match="finite and >= 0"):
            getattr(prop, method)(*args)

    def test_single_pass_table_matches_expm(self):
        # xi = 0 of the undamped system has the double root 0, which the
        # solve returns as -4.7e-17 and -0, so that row takes the bidiagonal
        # route and every other row the table
        times = np.array([0.0, 0.4, 3.0, 11.0])
        for p in ((1, 1, 0.5, 1, 1), (2, 1, 1, 0, 1), (1, 1, 1, 1, 0), (1, 1, 1, 0, 0)):
            params = SystemParams(*p)
            grid = np.array([-7.0, -0.3, 0.0, 0.02, 1.0, 25.0])
            prop = SymbolPropagator(params, grid)
            undamped = params.regime == "undamped"
            assert prop.ambiguous.tolist() == [False, False, undamped, False, False, False]
            eye = np.broadcast_to(np.eye(6, dtype=complex), (len(grid), 6, 6))
            E = prop.propagate_many(eye, times)
            for i in range(len(grid)):
                for q, t in enumerate(times):
                    assert np.max(np.abs(E[q, i] - expm(prop.Phi[i] * t))) <= 1e-10

    def test_no_per_frequency_solves(self, monkeypatch):
        import disspec.core_model as core_model
        import disspec.spectral as spectral

        calls = {"build_symbol": 0, "eigenvalues_batch": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # the propagator imports only the batched solve
        assert not hasattr(propagator_module, "eigenvalues")
        monkeypatch.setattr(core_model, "build_symbol",
                            counting("build_symbol", core_model.build_symbol))
        monkeypatch.setattr(propagator_module, "eigenvalues_batch",
                            counting("eigenvalues_batch", spectral.eigenvalues_batch))
        prop = SymbolPropagator(SystemParams(1, 1, 0.5, 1, 1), default_grid())
        assert prop.lambdas.shape == (4097, 6)
        assert calls == {"build_symbol": 0, "eigenvalues_batch": 1}


class TestSharedTable:
    """One r table per distinct spectrum, contracted chunk by chunk."""

    # the regimes of test_spectral.TestBatchedSolve; xi = 0 takes the
    # ambiguous route for the undamped double root 0 and the defective
    # point's 3x3 Jordan block
    REGIMES = [(1, 1, 0.5, 1, 1), (2, 1, 1, 0, 1), (1.3, 0.8, 1.1, 1, 0),
               (1, 1, 1, 0, 0), (1, 1, np.sqrt(8.0), 0, np.sqrt(27.0))]

    @staticmethod
    def data(n, seed=5):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(n, 6)) + 1j * rng.normal(size=(n, 6))

    @pytest.mark.parametrize("p", REGIMES)
    def test_propagate_many_matches_expm(self, p):
        params = SystemParams(*p)
        grid = np.array([-7.0, -0.3, 0.0, 0.02, 0.3, 1.0, 7.0, 25.0])
        prop = SymbolPropagator(params, grid)
        assert prop.ambiguous[2] == (params.regime == "undamped" or params.l == np.sqrt(8.0))
        times = np.array([0.4, 3.0, 11.0])
        vals = self.data(len(grid))
        traj = prop.propagate_many(vals, times)
        for i in range(len(grid)):
            for q, t in enumerate(times):
                ref = expm(prop.Phi[i] * t) @ vals[i]
                assert np.max(np.abs(traj[q, i] - ref)) <= 1e-10

    @pytest.mark.parametrize("p", REGIMES)
    def test_block_propagate_many_matches_expm(self, p):
        params = SystemParams(*p)
        grid = np.array([-7.0, -0.3, 0.0, 0.02, 0.3, 1.0, 7.0, 25.0])
        prop = SymbolPropagator(params, grid)
        assert prop.ambiguous[2] == (params.regime == "undamped" or params.l == np.sqrt(8.0))
        times = np.array([0.4, 3.0, 11.0])
        block = self.data(3 * len(grid)).reshape(len(grid), 6, 3)
        traj = prop.propagate_many(block, times)
        assert traj.shape == (len(times), len(grid), 6, 3)
        for i in range(len(grid)):
            for q, t in enumerate(times):
                ref = expm(prop.Phi[i] * t) @ block[i]
                assert np.max(np.abs(traj[q, i] - ref)) <= 1e-10
        # the reduction of each block column, one weight column per row
        for col in range(block.shape[2]):
            dens = prop.plancherel_sums(block[:, :, col], times, np.eye(len(grid)))[0]
            ref = np.sum(np.abs(traj[..., col]) ** 2, axis=2).T
            assert np.max(np.abs(dens - ref) / ref) <= 1e-13

    def test_operator_norms_match_expm(self):
        params = SystemParams(*self.REGIMES[-1])
        grid = np.array([-2.0, 0.0, 0.3, 5.0])
        prop = SymbolPropagator(params, grid)
        assert prop.ambiguous.tolist() == [False, True, False, False]
        times = np.array([0.0, 0.5, 8.6, 50.0])
        nrm = prop.operator_norms(times)
        for i in range(len(grid)):
            for q, t in enumerate(times):
                ref = np.linalg.norm(expm(prop.Phi[i] * t), 2)
                assert abs(nrm[i, q] - ref) <= 1e-10

    @pytest.mark.parametrize("p", [REGIMES[0], REGIMES[-1]])
    def test_density_is_squared_trajectory(self, p, monkeypatch):
        params = SystemParams(*p)
        grid = default_grid(xi_max=8.0, n_geo=64, n_lin=64)
        prop = SymbolPropagator(params, grid)
        assert prop.ambiguous.any() == (params.l == np.sqrt(8.0))
        vals = self.data(len(grid))
        times = np.geomspace(0.1, 50.0, 9)
        ref = np.sum(np.abs(prop.propagate_many(vals, times)) ** 2, axis=2).T
        # several chunks, each with its own slice of the table; one weight
        # column per row reads the density back
        monkeypatch.setattr(propagator_module, "_CHUNK_BYTES", 96 * len(times) * 7)
        dens = prop.plancherel_sums(vals, times, np.eye(len(grid)))[0]
        assert dens.shape == (len(grid), len(times))
        assert np.max(np.abs(dens - ref) / ref) <= 1e-13

    @pytest.mark.parametrize("params", [SystemParams(1, 1, 0.5, 1, 1),
                                        SystemParams(2, 1, 1, 0, 1),
                                        SystemParams(1, 1, np.sqrt(8.0), 0, np.sqrt(27.0))])
    def test_one_spectrum_per_distinct_abs_xi(self, params):
        # a grid with some points mirrored, some not, and xi = 0
        rng = np.random.default_rng(3)
        pos = np.sort(rng.uniform(0.01, 30.0, 40))
        grid = np.concatenate([-pos[::3][::-1], [0.0], pos])
        prop = SymbolPropagator(params, grid)
        assert len(prop.nodes) == len(np.unique(np.abs(grid))) == 41
        assert np.array_equal(prop.nodes[prop.row], prop.lambdas)

    def test_one_table_row_per_spectrum(self, monkeypatch):
        eigvals = np.linalg.eigvals
        solved = []

        def spy(a):
            solved.append(a.shape)
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", spy)
        p = SystemParams(1, 1, 0.5, 1, 1)
        grid = default_grid()
        prop = SymbolPropagator(p, grid)
        # one batched eigen solve of one row per distinct |xi|, one table
        # row per spectrum
        assert solved == [(2049, 6, 6)]
        assert prop.nodes.shape == (2049, 6)
        assert np.array_equal(prop.nodes[prop.row], prop.lambdas)
        # +-xi rows agree bitwise
        lam, _ = eigenvalues_batch(p, grid)
        assert np.array_equal(lam, lam[::-1])
        r = prop.r_many(np.geomspace(0.01, 100.0, 5))
        assert np.array_equal(r, r[::-1])

    def test_no_stored_chain(self):
        import tracemalloc

        tracemalloc.start()
        try:
            prop = SymbolPropagator(SystemParams(1, 1, 0.5, 1, 1), default_grid())
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(prop.grid) == 4097
        assert retained < 4097 * 6 * 6 * 6 * 16        # one P chain, 14.2 MB

    def test_density_memory_below_one_trajectory(self):
        import tracemalloc

        grid = default_grid()
        prop = SymbolPropagator(SystemParams(1, 1, 0.5, 1, 1), grid)
        vals = np.exp(-0.5 * grid**2)[:, None] * np.ones(6, dtype=complex)
        times = np.geomspace(1.0, 1e4, 40)
        tracemalloc.start()
        try:
            sobolev_norms(prop, vals, times, (0, 1, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * len(grid) * 6 * 16        # 15.7 MB


class TestOncePerAbsXi:
    """Operator norms, and densities of Hermitian data, are even in xi: the
    stream runs on one row per distinct |xi| and the mirrored rows copy it.
    Any other data evaluate every row."""

    P = SystemParams(1, 1, 0.5, 1, 1)
    GRID = default_grid(xi_max=8.0, n_geo=64, n_lin=64)
    TIMES = np.geomspace(0.1, 50.0, 7)

    @staticmethod
    def spy(monkeypatch):
        """Record the number of rows of every Q chain."""
        q_chain = propagator_module._q_chain
        rows = []

        def counting(Phi, lam, X):
            rows.append(len(Phi))
            return q_chain(Phi, lam, X)

        monkeypatch.setattr(propagator_module, "_q_chain", counting)
        return rows

    @staticmethod
    def hermitian(grid, seed=11):
        """Random data with X(-xi) = conj X(xi) bit for bit on a symmetric grid."""
        rng = np.random.default_rng(seed)
        vals = rng.normal(size=(len(grid), 6)) + 1j * rng.normal(size=(len(grid), 6))
        vals[grid < 0] = vals[grid > 0][::-1].conj()
        vals[grid == 0] = vals[grid == 0].real
        return vals

    @staticmethod
    def per_row(p, grid, vals, times):
        """The density evaluated by a one-frequency propagator per row."""
        return np.concatenate([
            SymbolPropagator(p, grid[i:i + 1]).plancherel_sums(vals[i:i + 1], times,
                                                               np.ones((1, 1)))[0]
            for i in range(len(grid))])

    def test_operator_norms_match_svd(self):
        # a symmetric grid about the defective point's ambiguous xi = 0 row,
        # with an unmirrored tail; the norms run from 1 through ~1e-300 to 0
        p = SystemParams(1, 1, np.sqrt(8.0), 0, np.sqrt(27.0))
        grid = np.array([-3.0, -1.5, -0.4, 0.0, 0.4, 1.5, 3.0, 5.0, 9.0])
        times = np.array([0.0, 0.5, 10.0, 1e3, 1e4, 1e5, 1.3e5, 1.36e5, 1e6])
        prop = SymbolPropagator(p, grid)
        assert prop.ambiguous.tolist() == [False] * 3 + [True] + [False] * 5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nrm = prop.operator_norms(times)
        # the independent route: the SVD of the propagated identity block
        eye = np.repeat(np.eye(6)[None], len(grid), axis=0)
        svd = np.linalg.svd(prop.propagate_many(eye, times), compute_uv=False)[..., 0].T
        assert svd.max() == pytest.approx(1.0, abs=1e-15)
        assert 0.0 < svd[svd > 0].min() < 1e-290 and (svd == 0).any()
        assert np.array_equal(nrm == 0.0, svd == 0.0)
        nz = svd > 0
        assert np.all(np.abs(nrm[nz] - svd[nz]) <= 1e-13 * svd[nz])

    def test_one_chain_row_per_spectrum(self, monkeypatch):
        prop = SymbolPropagator(self.P, self.GRID)
        assert not prop.ambiguous.any() and len(prop.nodes) < len(self.GRID)
        rows = self.spy(monkeypatch)
        prop.operator_norms(self.TIMES)
        assert sum(rows) == len(prop.nodes)
        rows.clear()
        prop.plancherel_sums(self.hermitian(self.GRID), self.TIMES, np.ones((len(self.GRID), 1)))
        assert sum(rows) == len(prop.nodes)

    def test_operator_norms_of_rows(self, monkeypatch):
        # unsorted rows, +-xi of one |xi| among them and one row twice, on a
        # grid with an ambiguous row: one chain row per spectrum of the rows,
        # and bitwise the norms of the whole grid at those rows
        p = SystemParams(1, 1, np.sqrt(8.0), 0, np.sqrt(27.0))
        grid = np.array([-3.0, -1.5, -0.4, 0.0, 0.4, 1.5, 3.0, 5.0, 9.0])
        times = np.array([0.0, 0.5, 10.0, 1e3, 1e5])
        rows = np.array([8, 2, 3, 4, 2, 6])
        prop = SymbolPropagator(p, grid)
        whole = prop.operator_norms(times)
        chained = self.spy(monkeypatch)
        nrm = prop.operator_norms(times, rows=rows)
        # a row per spectrum of |xi| = 0, 0.4, 3, 9, then the ambiguous xi = 0
        # row's bidiagonal exponential, one row per time
        assert chained == [4, len(times)]
        assert nrm.shape == (len(rows), len(times))
        assert np.array_equal(nrm.view(np.uint64), whole[rows].view(np.uint64))

    @pytest.mark.parametrize("kind", ["ulp", "complex", "asymmetric"])
    def test_other_data_take_every_row(self, monkeypatch, kind):
        grid = self.GRID.copy()
        vals = self.hermitian(grid)
        if kind == "ulp":
            # one mirrored row off by one ulp
            vals[3, 2] = complex(np.nextafter(vals[3, 2].real, np.inf), vals[3, 2].imag)
        elif kind == "complex":
            vals = np.random.default_rng(12).normal(size=(len(grid), 6)) * (1 + 2j)
        else:
            # -xi replaced by xi: the row repeats |xi| without mirroring it
            grid[3] = -grid[3]
        prop = SymbolPropagator(self.P, grid)
        assert len(prop.nodes) < len(grid)
        rows = self.spy(monkeypatch)
        dens = prop.plancherel_sums(vals, self.TIMES, np.eye(len(grid)))[0]
        assert sum(rows) == len(grid)
        monkeypatch.undo()
        ref = self.per_row(self.P, grid, vals, self.TIMES)
        assert np.max(np.abs(dens - ref) / ref) <= 1e-14

    def test_hermitian_states_once_per_abs_xi(self, monkeypatch):
        prop = SymbolPropagator(self.P, self.GRID)
        vals = self.hermitian(self.GRID)
        rows = self.spy(monkeypatch)
        traj = prop.propagate_many(vals, self.TIMES)
        assert sum(rows) == len(prop.nodes)
        # the mirrored rows are the exact conjugates of the first rows
        pos, neg = self.GRID > 0, self.GRID < 0
        assert np.array_equal(traj[:, pos], traj[:, neg][:, ::-1].conj())
        monkeypatch.undo()
        for i in np.flatnonzero(pos)[::9]:
            ref = SymbolPropagator(self.P, self.GRID[i:i + 1]).propagate_many(
                vals[i:i + 1], self.TIMES)[:, 0]
            assert np.max(np.abs(traj[:, i] - ref)) <= 1e-14 * np.abs(ref).max()

    def test_hermitian_density_is_the_positive_half(self):
        vals = self.hermitian(self.GRID)
        dens = SymbolPropagator(self.P, self.GRID).plancherel_sums(
            vals, self.TIMES, np.eye(len(self.GRID)))[0]
        half = self.GRID >= 0
        ref = SymbolPropagator(self.P, self.GRID[half]).plancherel_sums(
            vals[half], self.TIMES, np.eye(half.sum()))[0]
        # the full grid evaluates the first row of each |xi|, on the negative side
        for side in (self.GRID[half], -self.GRID[half]):
            got = dens[np.searchsorted(self.GRID, side)]
            assert np.max(np.abs(got - ref) / ref) <= 1e-14


class TestPlancherelSums:
    """Sobolev norms reduced inside the stream against the trajectory."""

    GRID = default_grid(xi_max=12.0, n_geo=96, n_lin=96)
    TIMES = np.geomspace(0.1, 50.0, 9)
    PARAMS = [SystemParams(1, 1, 0.5, 1, 1),
              SystemParams(1, 1, np.sqrt(8.0), 0, np.sqrt(27.0))]   # ambiguous xi = 0

    @staticmethod
    def data(grid, hermitian, seed=4):
        rng = np.random.default_rng(seed)
        vals = rng.normal(size=(len(grid), 6)) + 1j * rng.normal(size=(len(grid), 6))
        if hermitian:
            vals[grid < 0] = vals[grid > 0][::-1].conj()
            vals[grid == 0] = vals[grid == 0].real
        return np.exp(-0.5 * grid**2)[:, None] * vals

    @pytest.mark.parametrize("hermitian", [True, False])
    @pytest.mark.parametrize("params", PARAMS)
    def test_matches_trajectory_quadrature(self, params, hermitian):
        prop = SymbolPropagator(params, self.GRID)
        assert prop.ambiguous.any() == (params.gamma1 == 0)
        vals = self.data(self.GRID, hermitian)
        assert prop._hermitian(vals[..., None]) == hermitian
        got = sobolev_norms(prop, vals, self.TIMES, (0, 1, 2))
        dens = density(prop, vals, self.TIMES)
        for row, j in zip(got, (0, 1, 2)):
            ref = plancherel_norms(self.GRID, dens, j)
            assert np.max(np.abs(row - ref) / ref) <= 1e-13

    @pytest.mark.parametrize("hermitian", [True, False])
    def test_each_time_bitwise_alone_and_in_subsets(self, hermitian):
        # the packet run's grid and times, whose bracket evaluates subsets;
        # the chunks change with the number of times, the summation order not
        from disspec.decay_lab import Profile, build_initial_state
        from oracles import packet_grid

        params = SystemParams(2, 1, 1, 1, 1)
        grid = packet_grid(10.0, 2.0)
        if hermitian:
            vals = build_initial_state(params, Profile(kind="high_freq_packet", center=10.0,
                                                       width=2.0, component="v"), grid).values
        else:
            vals = self.data(grid - 10.0 * np.sign(grid), hermitian=False)
        prop = SymbolPropagator(params, grid)
        times = np.geomspace(1e-2, 1e6, 400)
        full = sobolev_norms(prop, vals, times, (0, 1, 2), check_tail=False)
        for subset in [[q] for q in range(0, 400, 7)] + [list(range(0, 399, 20)) + [399],
                                                        list(range(41, 60)), [5, 17, 399]]:
            part = sobolev_norms(prop, vals, times[subset], (0, 1, 2), check_tail=False)
            assert np.array_equal(part, full[:, subset])
        alone = [sobolev_norms(prop, vals, times[q:q + 1], (0,), check_tail=False)[0, 0]
                 for q in range(400)]
        assert np.array_equal(alone, full[0])

    def test_first_offending_order_and_time(self):
        # j = 2 reaches the edge first: the refusal names the first bad
        # (j, t) in j-major order, with that order's edge values
        grid = np.linspace(-4.0, 4.0, 161)
        prop = SymbolPropagator(self.PARAMS[0], grid)
        vals = np.exp(-grid**2)[:, None] * np.ones(6)
        times = np.array([0.0, 1.0, 2.0])
        with pytest.raises(TailMassError) as info:
            sobolev_norms(prop, vals, times, (0, 2))
        dens = density(prop, vals, times)
        with pytest.raises(TailMassError) as oracle:
            plancherel_norms(grid, dens, 2)
        assert info.value.edge_values == pytest.approx(oracle.value.edge_values, rel=1e-12)
        plancherel_norms(grid, dens, 0)     # j = 0 alone passes

    @pytest.mark.parametrize("j, grid", [(97, np.linspace(-40.0, 40.0, 81)),
                                         (15, np.array([-1e10, 0.0, 1e10]))])
    @pytest.mark.filterwarnings("error")
    def test_overflowing_order_refused(self, j, grid):
        # |xi|^(2j) overflows at |xi| = 40 for j = 97; at j = 15 it is 1e300
        # on the coarse grid, whose trapezoid weight 5e9 overflows the sum
        prop = SymbolPropagator(self.PARAMS[0], grid)
        with pytest.raises(PreconditionError, match=f"j = {j} is too high"):
            sobolev_norms(prop, np.ones((len(grid), 6)), [0.0], (0, j))


class TestUndampedGrid:
    """(1, 1, 1, 0, 0) on the default grid: 437 ambiguous frequencies, all
    evaluated by the batched bidiagonal route."""

    p = SystemParams(1, 1, 1, 0, 0)

    def test_density_is_conserved(self):
        import time

        grid = default_grid()
        rng = np.random.default_rng(9)
        vals = rng.normal(size=(len(grid), 6)) + 1j * rng.normal(size=(len(grid), 6))
        times = np.geomspace(0.01, 1e4, 40)
        t0 = time.perf_counter()
        prop = SymbolPropagator(self.p, grid)
        dens = density(prop, vals, times)
        elapsed = time.perf_counter() - t0
        assert prop.ambiguous.sum() == 437
        # the undamped semigroup is unitary: no decay at any frequency
        dens0 = np.sum(np.abs(vals) ** 2, axis=1)[:, None]
        assert np.max(np.abs(dens - dens0) / dens0) <= 1e-9
        assert elapsed < 5.0

    def test_ambiguous_rows_match_expm(self):
        grid = default_grid()
        amb = np.flatnonzero(SymbolPropagator(self.p, grid).ambiguous)
        sample = grid[amb[::29]]
        prop = SymbolPropagator(self.p, sample)
        assert prop.ambiguous.all()
        vals = TestSharedTable.data(len(sample))
        times = np.geomspace(0.01, 1e4, 7)
        traj = prop.propagate_many(vals, times)
        for i in range(len(sample)):
            for q, t in enumerate(times):
                ref = expm(prop.Phi[i] * t) @ vals[i]
                assert np.max(np.abs(traj[q, i] - ref)) <= 1e-9


class TestTracerContract:
    """perfbench/tracer.py wraps these SymbolPropagator methods by name and
    reads ``grid`` and ``ambiguous`` off the instance; a missing one passes
    every other test but ends the traced benchmark run in a KeyError."""

    @staticmethod
    def tracer():
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_wrapped_methods_exist(self):
        tracer = self.tracer()
        methods = tracer.CLASS_METHODS["propagator"]["SymbolPropagator"]
        assert "r_many" in methods
        for name in methods:
            assert callable(vars(SymbolPropagator).get(name)), name

    def test_info_reads_the_instance(self):
        tracer = self.tracer()
        grid = np.array([-1.0, 0.0, 1.0])
        prop = SymbolPropagator(SystemParams(1, 1, 1, 0, 0), grid)
        assert isinstance(prop.grid, np.ndarray) and isinstance(prop.ambiguous, np.ndarray)
        info = tracer._INFO["propagator.SymbolPropagator.init"]
        assert info(None, (prop,), {}, None) == (3, int(prop.ambiguous.sum()))
        cells = tracer._INFO["propagator.SymbolPropagator.r_many"]
        assert cells(None, (prop, np.ones(4)), {}, None) == 12
