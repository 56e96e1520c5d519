import numpy as np
import pytest

from disspec import (CertificateRefused, PreconditionError, RegimeError,
                     SolverError, SymbolPropagator, SystemParams, UnsupportedRegimeError,
                     branch_continuation, cardano_classify,
                     char_poly_coeffs, default_grid, eigenvalues_batch,
                     gap_scan, high_freq_expansion, low_freq_expansion,
                     real_symbol_stack)
from disspec import spectral as spectral_module
from disspec.spectral import _minus_L_roots, _putzer_order
from oracles import (abcd_constants, beta_delta_hat, branches_first_minimum, eigenvalues_hp,
                     slow_rates_closed_form)


def lam_at(params, xi):
    return eigenvalues_batch(params, [xi])[0][0]


def scalar_oracle(params, xi):
    """One frequency at a time: eigvals of the real symbol S^-1 Phi S at
    |xi|, Putzer order."""
    lam = np.linalg.eigvals(real_symbol_stack(params, abs(xi))).astype(complex)
    return lam[np.lexsort((lam.imag, -lam.real))]


class TestBatchedSolve:
    # both dampings, gamma1 = 0, gamma2 = 0, undamped (xi = 0 is a simple
    # resp. double root 0), and the defective triple point
    REGIMES = [(1, 1, 0.5, 1, 1), (2, 1, 1, 0, 1), (1.3, 0.8, 1.1, 1, 0),
               (1, 1, 1, 0, 0), (1, 1, np.sqrt(8.0), 0, np.sqrt(27.0))]

    @pytest.mark.parametrize("p", REGIMES)
    def test_bit_identical_to_scalar_oracle(self, p):
        params = SystemParams(*p)
        # xi = 0, the geometric and linear parts, and rows past scale 64
        grid = default_grid(xi_max=100.0, n_geo=64, n_lin=200)
        lam, resid = eigenvalues_batch(params, grid)
        ref = np.array([scalar_oracle(params, x) for x in grid])
        assert np.array_equal(lam, ref)
        assert np.array_equal(resid, np.abs(
            [np.polyval(char_poly_coeffs(params, 1j * x)[::-1], row)
             for x, row in zip(grid, ref)]))

    def test_mirror_rows_bitwise_equal_past_scale_64(self):
        # rows past symbol scale 64 are solved once per |xi| as well, so the
        # propagator keeps one table row per mirror pair
        params = SystemParams(2, 1, 1, 0, 1)
        grid = default_grid(xi_max=300.0, n_geo=64, n_lin=400)
        assert np.array_equal(grid, -grid[::-1]) and np.abs(grid).max() * 2 > 64
        lam, resid = eigenvalues_batch(params, grid)
        assert np.array_equal(lam, lam[::-1])
        assert np.array_equal(resid, resid[::-1])
        prop = SymbolPropagator(params, grid)
        assert len(prop.nodes) == len(np.unique(np.abs(grid)))

    @pytest.mark.parametrize("shift, broken", [(1e-10, "dissipativity"),
                                               (-1e-10, "trace identity")])
    def test_invariant_breach_refused(self, monkeypatch, shift, broken):
        # a solve shifted by 1e-10 keeps its residuals far inside the
        # certificate but misses the invariants' 1e4 eps * scale; +shift
        # lifts the gamma2 = 0 imaginary pair into Re > 0, -shift only
        # moves the trace
        params = SystemParams(1, 1, 1, 1, 0) if shift > 0 else SystemParams(1, 1, 0.5, 1, 1)
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: eigvals(a) + shift)
        with pytest.raises(SolverError, match=broken):
            eigenvalues_batch(params, [0.5, 2.0])

    @pytest.mark.parametrize("xi", [1e60, 1e300])
    def test_overflowing_certificate_refused(self, xi):
        # far past the 2^38 symbol-scale cap; here |lambda|^6 would also
        # overflow the residual bound, which must not pass vacuously
        with pytest.raises(SolverError):
            eigenvalues_batch(SystemParams(1, 1, 0.5, 1, 1), [xi])

    @pytest.mark.parametrize("xi", [1e14, 1e16, 1e18, 1e40])
    def test_past_scale_cap_refused(self, xi):
        # eps * scale drowns the O(1) real parts here: the parent solve
        # reported max Re = -0.211 at 1e15, +64 at 1e18, +6e23 at 1e40
        with pytest.raises(SolverError):
            eigenvalues_batch(SystemParams(1, 1, 0.5, 1, 1), [xi])
        with pytest.raises(SolverError):
            eigenvalues_batch(SystemParams(1, 1, 0.5, 1, 1), [1.0, xi])

    @pytest.mark.parametrize("xi", [1e6, 1e8, 1e10])
    def test_below_scale_cap_solved(self, xi):
        # the a = 1 high-frequency table: Re -> -gamma2/2 and Re delta_+- = -1/4
        lam = lam_at(SystemParams(1, 1, 0.5, 1, 1), xi)
        assert lam.real.max() == pytest.approx(-0.25, abs=1e-4)

    def test_non_finite_frequency_rejected(self):
        with pytest.raises(PreconditionError):
            eigenvalues_batch(SystemParams(1, 1, 0.5, 1, 1), [0.0, np.nan])


class TestEigenvalues:
    def test_gamma2_zero_imaginary_pair(self):
        p = SystemParams(1.2, 0.9, 0.6, 1.0, 0.0)
        for xi in (0.1, 1.0, 7.0):
            lam = lam_at(p, xi)
            target = 1j * p.k * np.sqrt(p.l**2 + xi**2)
            for t in (target, -target):
                assert np.min(np.abs(lam - t)) <= 1e-8

    def test_zero_frequency_contains_known_roots(self):
        lam = lam_at(SystemParams(1, 1, 1, 1, 1), 0.0)
        assert np.min(np.abs(lam - 0.0)) <= 1e-10
        assert np.min(np.abs(lam - 1j)) <= 1e-10
        assert np.min(np.abs(lam + 1j)) <= 1e-10

    def test_residual_bound(self):
        p = SystemParams(1, 1, 0.5, 1, 1)
        lam = lam_at(p, 0.7)
        poly = np.polyval(char_poly_coeffs(p, 0.7j)[::-1], lam)
        assert np.all(np.abs(poly) <= 1e-8 * (1 + np.abs(lam) ** 6))

    def test_conjugate_spectrum_at_negated_frequency(self):
        p = SystemParams(1.5, 0.8, 1.1, 0.4, 0.9)
        lam_p = lam_at(p, 2.3)
        lam_m = np.conj(lam_at(p, -2.3))
        match = np.abs(lam_p[:, None] - lam_m[None, :]).min(axis=1)
        assert np.all(match <= 1e-9)

    def test_eigenvalue_sum_is_trace(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            p = SystemParams(*rng.uniform(0.3, 2.5, 3), *rng.uniform(0, 2, 2))
            xi = rng.uniform(-100, 100)
            lam = lam_at(p, xi)
            assert abs(lam.sum() + p.gamma1 + p.gamma2) <= 1e-13 * 100

    def test_gamma2_zero_exactly_two_machine_imaginary(self):
        p = SystemParams(1, 1, 1, 1, 0)
        for xi in np.geomspace(1e-3, 50, 40):
            lam = lam_at(p, xi)
            assert np.sum(np.abs(lam.real) <= 1e-10) == 2

    def test_high_precision_agrees_with_double(self):
        p = SystemParams(1, 1, 0.5, 1, 1)
        lam = lam_at(p, 3.0)
        lam_hp = eigenvalues_hp(p, 3.0)
        match = np.abs(lam[:, None] - lam_hp[None, :]).min(axis=1)
        assert np.all(match <= 1e-12)


class TestLowFrequency:
    def test_zero_branch_coefficient_fit(self):
        p = SystemParams(1, 1, 0.5, 1, 1)
        c_pred = low_freq_expansion(p)[0].re_coefficient
        assert c_pred == pytest.approx(-0.2, abs=1e-15)
        xis = np.geomspace(1e-3, 1e-2, 8)
        vals = []
        for xi in xis:
            lam = lam_at(p, xi)
            vals.append(lam[np.argmin(np.abs(lam))].real / xi**2)
        assert np.allclose(vals, c_pred, rtol=0.01)
        slope = np.polyfit(np.log(xis), np.log(-np.array(vals) * xis**2), 1)[0]
        assert slope == pytest.approx(2.0, rel=0.01)

    def test_oscillatory_pair_coefficient_both_damped(self):
        rng = np.random.default_rng(9)
        for _ in range(4):
            p = SystemParams(*rng.uniform(0.4, 2.2, 3), *rng.uniform(0.2, 1.8, 2))
            beta, K = abcd_constants(p)
            assert low_freq_expansion(p)[1].re_coefficient == pytest.approx(-beta.real, rel=1e-12)
            assert beta.real > 0
            assert K < 0
            xi = 1e-3
            lam = lam_at(p, xi)
            t = lam[np.argmin(np.abs(lam - 1j * p.k * p.l))]
            fitted = (t - 1j * p.k * p.l) / (1j * xi) ** 2
            assert fitted.real == pytest.approx(beta.real, rel=1e-3)

    def test_K_negative_for_unit_params(self):
        p = SystemParams(1, 1, 1, 1, 1)
        assert abcd_constants(p)[1] < 0
        assert low_freq_expansion(p)[1].re_coefficient < 0

    def test_gamma1_zero_closed_forms(self):
        p = SystemParams(1.3, 0.8, 1.1, 0, 0.6)
        bh, dh = beta_delta_hat(p)
        assert low_freq_expansion(p)[1].re_coefficient == pytest.approx(-bh, rel=1e-12)
        assert bh > 0
        xi = 1e-3
        lam = lam_at(p, xi)
        t = lam[np.argmin(np.abs(lam - 1j * p.k * p.l))]
        lam2 = (t - 1j * p.k * p.l) / (1j * xi) ** 2
        assert lam2.real == pytest.approx(bh, rel=1e-3)
        assert lam2.imag == pytest.approx(dh, rel=1e-3)

    @staticmethod
    def slow_rows_error(p):
        """Worst relative error of the zero-branch and pair rows against the
        hand-derived closed forms."""
        table = low_freq_expansion(p)
        return max(abs(-row.re_coefficient - want) / want
                   for row, want in zip(table[:2], slow_rates_closed_form(p)))

    def test_slow_rows_match_closed_forms(self):
        # the five sets of the asymptotic-profile prototype, then random sets
        # of both regimes away from a vanishing gamma1 = 0 defect
        for p in [(1, 1, 0.5, 1, 1), (2, 1, 1, 1, 1), (2, 1.5, 0.5, 0, 1),
                  (1, 1.5, 0.5, 0, 1), (3, 0.7, 2, 0.3, 2)]:
            assert self.slow_rows_error(SystemParams(*p)) <= 1e-12
        rng = np.random.default_rng(24)
        errors = []
        for i in range(1200):
            p = SystemParams(*rng.uniform(0.05, 5.0, 3), rng.uniform(0.05, 5.0) * (i % 2),
                             rng.uniform(0.05, 5.0))
            if abs(p.stability_defect) >= 1e-2:
                errors.append(self.slow_rows_error(p))
        assert len(errors) >= 1000
        assert max(errors) <= 1e-12

    @pytest.mark.parametrize("defect", [1e-4, 1e-6, 1e-8, 1e-11])
    def test_near_degenerate_pair_rate(self, defect):
        # gamma1 = 0: the pair's rate is proportional to defect^2, and the
        # defect (k^2 - 1) l^2 - 1 cancels to a relative rounding error of
        # about eps k^2 l^2 / |defect| (k^2 l^2 ~ 2 here) in the solve and
        # in the closed form alike; squared, each is off by ~4 eps / |defect|
        import mpmath as mp
        from types import SimpleNamespace

        eps = np.finfo(float).eps
        for a in (0.7, 1.0, 2.0):
            for g2 in (0.3, 1.0, 3.0):
                p = SystemParams(a, np.sqrt(2.0 + defect), 1.0, 0.0, g2)
                bound = 8 * eps / abs(p.stability_defect)
                got = -low_freq_expansion(p)[1].re_coefficient
                assert abs(got - beta_delta_hat(p)[0]) <= bound * got
                with mp.workdps(50):
                    exact = beta_delta_hat(SimpleNamespace(
                        k=mp.mpf(p.k), l=mp.mpf(p.l), gamma2=mp.mpf(g2)))[0]
                    assert abs(got - exact) <= bound * exact

    def test_degenerate_defect_rejected(self):
        p = SystemParams(1, np.sqrt(2.0), 1, 0, 1)
        assert abs(p.stability_defect) < 1e-14
        with pytest.raises(RegimeError):
            low_freq_expansion(p)

    def test_cubic_variant_diagnosis(self):
        # the roots besides {0, +-i k l} solve the product-coupling cubic
        # Z^3 + (g1 + g2) Z^2 + (l^2 + 1 + g1 g2) Z + g1 l^2 + g2, the
        # factor of det(Z I + L) besides Z (Z^2 + k^2 l^2)
        p = SystemParams(1, 1, 0.5, 1.5, 0.7)
        roots = _minus_L_roots(p)
        assert [b.re_coefficient for b in low_freq_expansion(p)[2:]] == list(roots.real)
        g1, g2, l = p.gamma1, p.gamma2, p.l
        cubic = [1.0, g1 + g2, l * l + 1.0 + g1 * g2, g1 * l * l + g2]
        assert np.max(np.abs(np.polyval(cubic, roots))) < 1e-10
        assert np.all(roots.real < 0)

    @pytest.mark.parametrize("params", [
        SystemParams(1, 1, 0.5, 1.5, 0.7), SystemParams(2, 3, 1.2, 0.0, 0.4),
        SystemParams(0.7, 1.3, 3.5, 0.0, 4.0), SystemParams(1.4, 0.6, 0.9, 2.5, 0.0),
        SystemParams(1, 1, 2.0, 0.0, 5.0), SystemParams(1, 1, 3.5, 0.0, 7.0)])
    def test_cubic_roots_match_high_precision_spectrum(self, params):
        # the cubic's roots with {0, +-i k l} are the 50-digit spectrum at
        # xi = 0 (away from the defective triple root l^2 = 8, gamma2^2 = 27)
        kl = params.k * params.l
        cubic = _minus_L_roots(params)
        want = np.concatenate([[0.0, 1j * kl, -1j * kl], cubic])
        hp = eigenvalues_hp(params, 0.0)
        gap = np.abs(want[:, None] - hp[None, :])
        tol = 1e-12 * (1.0 + np.abs(want))
        # each expected root has a 50-digit root within tolerance, and none
        # is shared: a bijection
        assert np.all(gap.min(axis=1) <= tol)
        assert len(set(gap.argmin(axis=1))) == 6
        assert np.array_equal(cubic, _putzer_order(cubic))

    def test_regime_guard(self):
        with pytest.raises(RegimeError):
            low_freq_expansion(SystemParams(1, 1, 1, 1, 0))


def constant_sum(table):
    """The constant terms of a high-frequency table, each times its
    multiplicity: the trace -(gamma1 + gamma2) when the table is right."""
    return sum(b.re_coefficient * b.multiplicity for b in table if b.xi_power == 0)


def slow_pair(table):
    """The both-damped table's -kappa xi^-2 row."""
    (row,) = [b for b in table if b.label == "slow-pair"]
    assert (row.xi_power, row.multiplicity) == (-2, 2)
    return row


def _fitted_constants(params, xi_ref=1e3, hp=False):
    solver = eigenvalues_hp if hp else lam_at
    lam = solver(params, xi_ref)
    return np.sort(lam.real)


class TestHighFrequency:
    def test_a1_delta_table(self):
        # gamma1 > 2 separates the two delta values
        p = SystemParams(1, 2, 1, 3, 0.8)
        table = high_freq_expansion(p)
        predicted = sorted(
            sum(([b.re_coefficient] * b.multiplicity for b in table), []))
        measured = sorted(_fitted_constants(p))
        assert np.allclose(measured, predicted, rtol=5e-4)
        assert constant_sum(table) == pytest.approx(-(p.gamma1 + p.gamma2), abs=1e-12)

    def test_a1_complex_delta_real_parts(self):
        p = SystemParams(1, 1, 1, 1, 1)
        table = high_freq_expansion(p)
        vals = sorted(b.re_coefficient for b in table)
        assert vals == pytest.approx([-0.5, -0.25, -0.25])
        measured = sorted(_fitted_constants(p, xi_ref=1e4))
        predicted = sorted(
            sum(([b.re_coefficient] * b.multiplicity for b in table), []))
        assert np.allclose(measured, predicted, atol=5e-4)

    def test_generic_kappa_branch(self):
        p = SystemParams(2, 3, 1, 1, 0.5)
        kappa = -slow_pair(high_freq_expansion(p)).re_coefficient
        assert kappa == pytest.approx((9 * 1 * 0.5 + 1) / 18)
        xis = np.geomspace(100, 1000, 6)
        slow = np.array([np.sort(lam_at(p, x).real)[-2:].mean() for x in xis])
        expo = np.polyfit(np.log(xis), np.log(-slow), 1)[0]
        assert expo == pytest.approx(-2.0, rel=0.02)
        assert (-slow * xis**2).mean() == pytest.approx(kappa, rel=0.05)

    def test_k1_degenerate_kappa(self):
        p = SystemParams(2, 1, 0.8, 0.5, 1.3)
        kappa = -slow_pair(high_freq_expansion(p)).re_coefficient
        # the k = 1 law gamma1 / (2 (a^2 - 1)^2), not the generic
        # ((a^2 - 1)^2 l^2 gamma2 + gamma1) / (2 (a^2 - 1)^2)
        assert kappa == p.gamma1 / (2.0 * (p.a**2 - 1.0) ** 2)
        assert kappa == pytest.approx(0.5 / 18)
        xi = 2e3
        slow = np.sort(lam_at(p, xi).real)[-2:]
        assert (-slow * xi**2).mean() == pytest.approx(kappa, rel=0.01)

    def test_gamma1_zero_equal_speeds_quadruple(self):
        p = SystemParams(1, 1, 0.8, 0, 1.5)
        table = high_freq_expansion(p)
        slow = [b for b in table if b.xi_power == -2]
        assert len(slow) == 1 and slow[0].multiplicity == 4
        c = -slow[0].re_coefficient
        assert c == pytest.approx(0.8**2 * 1.5 / (4 * (1 + 1.5**2)))
        xi = 3e3
        measured = -np.sort(lam_at(p, xi).real)[2:] * xi**2
        assert np.allclose(measured, c, rtol=0.01)

    def test_gamma1_zero_generic_three_pairs(self):
        p = SystemParams(2, 3, 0.5, 0, 1)
        table = high_freq_expansion(p)
        powers = sorted((b.xi_power, b.multiplicity) for b in table)
        assert powers == [(-4, 2), (-2, 2), (0, 2)]
        xi = 50.0
        re = np.sort(lam_at(p, xi).real)
        assert re[:2] == pytest.approx(-0.5, rel=1e-3)
        assert (-re[2:4] * xi**2).mean() == pytest.approx(0.5**2 * 1 / 2, rel=0.01)
        c34 = next(b for b in table if b.xi_power == -4).re_coefficient
        assert (-re[4:] * xi**4).mean() == pytest.approx(-c34, rel=0.01)

    def test_gamma1_zero_k1_two_xi4_pairs(self):
        p = SystemParams(2, 1, 1, 0, 1)
        table = high_freq_expansion(p)
        slow = [b for b in table if b.xi_power == -4]
        assert sum(b.multiplicity for b in slow) == 4
        angle = next(b for b in slow if np.isfinite(b.re_coefficient))
        assert -angle.re_coefficient == pytest.approx(1 / 18)
        # the angle pair (speed-a family) carries the closed-form constant
        xis = np.geomspace(50, 500, 5)
        fits = []
        for x in xis:
            lam = eigenvalues_hp(p, x)
            afam = lam[np.abs(np.abs(lam.imag) / x - p.a) < 0.3]
            fits.append(afam.real.mean())
        fits = np.array(fits)
        expo = np.polyfit(np.log(xis), np.log(-fits), 1)[0]
        assert expo == pytest.approx(-4.0, rel=0.02)
        assert (-fits * xis**4).mean() == pytest.approx(1 / 18, rel=0.01)
        # the degenerate wave pair decays at the same power
        wave = []
        for x in xis:
            lam = eigenvalues_hp(p, x)
            onefam = lam[np.abs(np.abs(lam.imag) / x - 1.0) < 0.3]
            wave.append(np.sort(onefam.real)[-2:].mean())
        expo_w = np.polyfit(np.log(xis), np.log(-np.array(wave)), 1)[0]
        assert expo_w == pytest.approx(-4.0, rel=0.05)

    def test_unsupported_regimes(self):
        with pytest.raises(UnsupportedRegimeError):
            high_freq_expansion(SystemParams(1, 2, 1, 0, 1))
        with pytest.raises(UnsupportedRegimeError):
            high_freq_expansion(SystemParams(2, 2, 0.5, 0, 1))

    def test_randomized_generic_table_sweep(self):
        # random well-separated-speed draws: the generic both-damped table
        # must match eigenvalue fits at large frequency
        rng = np.random.default_rng(21)
        done = 0
        while done < 6:
            a, k = rng.uniform(0.4, 3.0, 2)
            if min(abs(a - 1), abs(k - 1), abs(a - k)) < 0.15:
                continue
            l = rng.uniform(0.3, 2.0)
            g1, g2 = rng.uniform(0.3, 2.0, 2)
            if abs(g1 / 2 - g2 / 2) < 0.05:
                continue
            p = SystemParams(a, k, l, g1, g2)
            table = high_freq_expansion(p)
            xi = 2e3
            re = np.sort(lam_at(p, xi).real)
            consts = sorted(b.re_coefficient for b in table if b.xi_power == 0)
            assert re[0] == pytest.approx(min(consts), rel=5e-3)
            assert re[2] == pytest.approx(max(consts), rel=5e-3)
            kappa = -slow_pair(table).re_coefficient
            assert (-re[-2:] * xi**2).mean() == pytest.approx(kappa, rel=0.02)
            done += 1

    def test_constant_terms_sum_to_trace(self):
        # decaying branches contribute zero constants, so the constant rows
        # alone must rebuild the exact trace -(gamma1 + gamma2)
        for p in (SystemParams(1, 1, 1, 1, 1), SystemParams(2, 3, 1, 1, 0.5),
                  SystemParams(2, 1, 0.8, 0.5, 1.3), SystemParams(1, 1, 0.8, 0, 1.5),
                  SystemParams(2, 3, 0.5, 0, 1), SystemParams(2, 1, 1, 0, 1),
                  SystemParams(1, 2, 1, 3, 0.8)):
            assert constant_sum(high_freq_expansion(p)) == pytest.approx(
                -(p.gamma1 + p.gamma2), abs=1e-12)


class TestCardano:
    def test_small_l_always_conjugate_pair(self):
        for g2 in (0.1, 1.0, 5.0):
            c = cardano_classify(SystemParams(1, 1, 1, 0, g2))
            assert c.verdict == "one_real_pair_conjugate"
            assert c.D > 0
            assert c.gamma_hat_1 is None

    def test_double_root_point(self):
        c = cardano_classify(SystemParams(1, 1, np.sqrt(8.0), 0, np.sqrt(27.0)))
        assert abs(c.D) <= 1e-12
        assert c.verdict == "real_plus_double"

    def test_three_real_window(self):
        l = 3.0
        c0 = cardano_classify(SystemParams(1, 1, l, 0, 1.0))
        gh1, gh2 = c0.gamma_hat_1, c0.gamma_hat_2
        assert gh2 < gh1
        g2 = np.sqrt(0.5 * (gh1 + gh2))
        c = cardano_classify(SystemParams(1, 1, l, 0, g2))
        assert c.verdict == "three_distinct_real"
        roots = np.roots([1.0, g2, l * l + 1.0, g2])
        assert np.all(np.abs(roots.imag) < 1e-8)
        assert len(np.unique(np.round(roots.real, 6))) == 3

    def test_requires_gamma1_zero(self):
        with pytest.raises(RegimeError):
            cardano_classify(SystemParams(1, 1, 1, 0.5, 1))

    def test_verdict_matches_root_clustering(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(200):
            l = rng.uniform(0.2, 4.0)
            g2 = rng.uniform(0.05, 6.0)
            c = cardano_classify(SystemParams(1, 1, l, 0, g2))
            roots = np.roots([1.0, g2, l * l + 1.0, g2])
            n_real = int(np.sum(np.abs(roots.imag) <= 1e-7 * (1 + np.abs(roots))))
            if abs(c.D) < 1e-8:
                continue  # too close to the boundary for float clustering
            if c.verdict == "one_real_pair_conjugate":
                assert n_real == 1
            else:
                assert n_real == 3
                gaps = np.abs(roots[:, None] - roots[None, :])[np.triu_indices(3, 1)]
                assert gaps.min() > 1e-7
            checked += 1
        assert checked > 150


class TestGapScan:
    # golden value recorded from the first verified run of this scan
    GOLDEN_GAP = 0.0002968518853990505

    def test_certificate_positive_gap(self):
        cert = gap_scan(SystemParams(1, 1, 0.5, 0, 1), 0.1, 10.0)
        assert cert.gap > 0
        assert np.all(cert.max_re <= -cert.gap + 1e-15)
        assert cert.gap == pytest.approx(self.GOLDEN_GAP, rel=1e-3)

    def test_gamma2_zero_refused_with_witness(self):
        with pytest.raises(CertificateRefused) as exc:
            gap_scan(SystemParams(1, 1, 1, 1, 0), 0.1, 10.0)
        assert abs(exc.value.max_real_part) <= 1e-10
        assert 0.1 <= exc.value.witness_xi <= 10.0

    def test_gamma2_zero_refused_before_any_solve(self, monkeypatch):
        from disspec import spectral

        def solve(params, xi):
            raise AssertionError("gap_scan solved an eigenproblem")

        monkeypatch.setattr(spectral, "eigenvalues_batch", solve)
        with pytest.raises(CertificateRefused) as exc:
            gap_scan(SystemParams(1.3, 0.7, 2.0, 0.4, 0), 0.05, 50.0, initial_points=257)
        assert (exc.value.witness_xi, exc.value.max_real_part) == (0.05, 0.0)

    def test_gamma2_zero_pair_is_exact(self):
        # +-i k sqrt(l^2 + xi^2) is a root of the characteristic polynomial
        # at every xi, to rounding relative to the polynomial's terms
        rng = np.random.default_rng(19)
        xi = np.geomspace(1e-3, 1e3, 20)
        for a, k, l, gamma1 in rng.uniform(0.1, 5.0, size=(200, 4)):
            coeffs = char_poly_coeffs(SystemParams(a, k, l, gamma1, 0.0), 1j * xi)
            for sign in (1.0, -1.0):
                lam = sign * 1j * k * np.sqrt(l * l + xi * xi)
                terms = coeffs * lam[:, None] ** np.arange(7)
                residual = np.abs(terms.sum(axis=1)) / np.abs(terms).sum(axis=1)
                assert residual.max() <= 1e-15

    @pytest.mark.parametrize("nu, N", [(1 / 3, 2.0), (0.05, 1 / 3)])
    def test_scanned_undamped_pair_refused(self, nu, N):
        # gamma1 = 0 with (k^2 - 1) l^2 - 1 != 0 still has an undamped pair
        # at xi0 = 1/3 for these parameters; a scanned grid point on it
        # refuses the certificate with that witness
        with pytest.raises(CertificateRefused) as exc:
            gap_scan(SystemParams(1, 2, 0.5, 0, 1), nu, N)
        assert exc.value.witness_xi == 1 / 3
        assert -1e-15 < exc.value.max_real_part <= 0.0

    def test_bad_interval(self):
        with pytest.raises(PreconditionError):
            gap_scan(SystemParams(1, 1, 0.5, 0, 1), 5.0, 5.0)


def test_branch_continuation_is_continuous():
    p = SystemParams(1, 1, 0.5, 1, 1)
    grid = np.linspace(-10, 10, 401)
    branches = branch_continuation(p, grid)
    jumps = np.abs(np.diff(branches, axis=0)).max(axis=0)
    assert np.all(jumps < 0.5)


@pytest.mark.parametrize("p", [(1, 1, np.sqrt(8.0), 0, np.sqrt(27.0)), (1, 2, 0.5, 0, 1),
                               (1, 1, 1, 1, 0), (1.3, 0.7, 1.0, 0, 0)])
@pytest.mark.parametrize("search_bytes", [None, 1])
def test_branch_tie_rule(monkeypatch, p, search_bytes):
    # the symmetric grids hold tie rows at xi = 0 and at collisions on the
    # real axis; the unsorted grid sends most row pairs to the permutation
    # search, which one row per slice leaves unchanged
    if search_bytes is not None:
        monkeypatch.setattr(spectral_module, "_SEARCH_BYTES", search_bytes)
    params = SystemParams(*p)
    for grid in (np.linspace(-10.0, 10.0, 401), np.linspace(-1.0, 1.0, 201),
                 np.random.default_rng(5).uniform(-20.0, 20.0, 300)):
        assert np.array_equal(branch_continuation(params, grid),
                              branches_first_minimum(params, grid))
