import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disspec import (Experiment, FrequencyPartition,
                     PreconditionError, Profile, RegimeError, SymbolPropagator,
                     SystemParams, TailMassError, build_initial_state,
                     default_grid, eigenvalues_batch, fit_pointwise_rate,
                     optimality_probe, run_decay, three_region_synthesis)
from disspec import decay_lab, propagator
from disspec.core_model import build_symbol
from disspec.decay_lab import _conservative_vector, packet_decay_time
from disspec.errors import SolverError

from oracles import packet_grid, packet_ratio_scan, plancherel_norms, scan_crossing


def small_grid(xi_max=10.0):
    return default_grid(xi_max=xi_max, n_geo=160, n_lin=160)


class TestProfiles:
    def test_gaussian_hermitian_symmetry(self):
        p = SystemParams(1, 1, 0.5, 1, 1)
        grid = small_grid()
        st = build_initial_state(p, Profile(kind="gaussian", width=1.0), grid)
        flipped = np.conj(st.values[::-1])
        assert np.allclose(st.values, flipped)

    def test_box_profile_value_at_zero(self):
        prof = Profile(kind="box", width=0.7)
        amp = prof.amplitude(np.array([0.0, 1e-9]))
        assert amp[0] == pytest.approx(2 * 0.7)
        assert amp[1] == pytest.approx(2 * 0.7, rel=1e-9)

    def test_packet_needs_center(self):
        with pytest.raises(PreconditionError):
            Profile(kind="high_freq_packet", center=0.0).amplitude(np.array([1.0]))

    def test_unknown_component(self):
        with pytest.raises(PreconditionError):
            Profile(kind="gaussian", component="w").vector()

    def test_conservative_profile_requires_gamma2_zero(self):
        p = SystemParams(1, 1, 1, 1, 1)
        with pytest.raises(RegimeError):
            build_initial_state(p, Profile(kind="conservative_mode", center=1.0),
                                small_grid())


def conservative_vector_oracle(params, xi):
    """The scalar inverse iteration: one frequency, one eigen solve and one
    symbol at a time."""
    lam_target = 1j * params.k * np.sqrt(params.l**2 + xi**2)
    spec = eigenvalues_batch(params, [xi])[0][0]
    lam = spec[np.argmin(np.abs(spec - lam_target))]
    M = build_symbol(params, xi).Phi - (lam + 1e-13 * (1.0 + abs(lam))) * np.eye(6)
    vec = np.full(6, 1.0 + 0.0j) / np.sqrt(6.0)
    for _ in range(2):
        vec = np.linalg.solve(M, vec)
        vec /= np.linalg.norm(vec)
    return vec


class TestConservativeMode:
    p = SystemParams(1, 1, 1, 1, 0)

    @pytest.mark.parametrize("params", [SystemParams(1, 1, 1, 1, 0),
                                        SystemParams(1.2, 0.9, 0.6, 1.0, 0.0)])
    def test_batched_vectors_match_scalar_oracle(self, params):
        xi = np.concatenate([[0.0], np.geomspace(1e-4, 40.0, 60)])
        vec = _conservative_vector(params, xi)
        ref = np.array([conservative_vector_oracle(params, x) for x in xi])
        assert vec.shape == (len(xi), 6)
        assert np.max(np.abs(vec - ref)) <= 1e-12

    def test_negative_half_is_the_conjugate_of_the_nearest_mirror(self):
        # an asymmetric grid: each negative point takes the conjugate of the
        # point nearest to its mirror, ties to the lower index (-2.5 is as
        # far from 2 as from 3 and takes 2)
        rng = np.random.default_rng(3)
        pos = rng.uniform(0, 6, 70)
        grid = np.unique(np.concatenate([-rng.uniform(0, 6, 80), pos[np.abs(pos - 2.5) > 0.6],
                                         [-2.5, -1.0, 0.0, 1.0, 2.0, 3.0]]))
        prof = Profile(kind="conservative_mode", center=2.0, width=0.5)
        st = build_initial_state(self.p, prof, grid)
        amp = prof.amplitude(grid)
        for i in np.flatnonzero((grid < 0) & (amp > 1e-14 * amp.max())):
            mirror = np.argmin(np.abs(grid + grid[i]))
            assert np.array_equal(st.values[i], np.conj(st.values[mirror]))
        pos = grid >= 0
        assert np.max(np.abs(st.values[pos] - amp[pos, None] * np.array(
            [conservative_vector_oracle(self.p, x) for x in grid[pos]]))) <= 1e-12


class TestExperimentValidation:
    def test_times_must_increase(self):
        with pytest.raises(PreconditionError):
            Experiment(params=SystemParams(1, 1, 1, 1, 1),
                       profile=Profile(kind="gaussian"),
                       times=np.array([1.0, 1.0, 2.0]))


class TestRunDecay:
    def test_heat_like_exponent_j0(self):
        p = SystemParams(1, 1, 0.5, 1, 1)
        exp = Experiment(params=p, profile=Profile(kind="gaussian", width=1.0),
                         times=np.geomspace(1, 1e4, 28), j_orders=(0,),
                         grid=default_grid(xi_max=12.0, n_geo=512, n_lin=256))
        fits = run_decay(exp, fit_window=(1e2, 1e4))
        assert fits[0].exponent == pytest.approx(-0.25, rel=0.10)

    def test_non_decay_with_conservative_data(self):
        p = SystemParams(1, 1, 1, 1, 0)
        exp = Experiment(params=p,
                         profile=Profile(kind="conservative_mode", center=1.0, width=2.0),
                         times=np.geomspace(1, 1e3, 20), j_orders=(0,),
                         grid=default_grid(xi_max=8.0, n_geo=128, n_lin=128))
        fits = run_decay(exp, fit_window=(10, 1e3))
        assert fits[0].exponent >= -0.02
        ratios = fits[0].norms / fits[0].norms[0]
        assert np.all(ratios <= 1.0 + 1e-6)
        assert np.all(ratios >= 0.99)

    def test_gamma2_zero_norm_never_increases(self):
        p = SystemParams(1.2, 0.8, 0.9, 1.0, 0)
        exp = Experiment(params=p, profile=Profile(kind="gaussian", width=1.0),
                         times=np.geomspace(0.5, 1e3, 15), j_orders=(0,),
                         grid=default_grid(xi_max=8.0, n_geo=96, n_lin=96))
        fits = run_decay(exp, fit_window=(1.0, 1e3))
        ratios = fits[0].norms / fits[0].norms[0]
        assert np.all(ratios <= 1.0 + 1e-6)


class TestFusedNorms:
    """run_decay reduces the density straight to norms, never the trajectory."""

    @staticmethod
    def readme_decay():
        # the README `decay` config: default grid, 40 times, j = 0, 1, 2
        return Experiment(params=SystemParams(1, 1, 0.5, 1, 1),
                          profile=Profile(kind="gaussian", width=1.0, component="z"),
                          times=np.geomspace(1.0, 1e4, 40), j_orders=(0, 1, 2))

    def test_matches_per_time_plancherel_loop(self):
        exp = self.readme_decay()
        fits = run_decay(exp, fit_window=(1e2, 1e4))
        state0 = build_initial_state(exp.params, exp.profile, exp.grid)
        traj = SymbolPropagator(exp.params, exp.grid).propagate_many(
            state0.values, exp.times)
        for j in exp.j_orders:
            ref = np.array([np.sqrt(plancherel_norms(
                exp.grid, np.sum(np.abs(traj[i]) ** 2, axis=1)[:, None], j)[0])
                for i in range(len(exp.times))])
            assert np.max(np.abs(fits[j].norms - ref) / ref) <= 1e-13

    def test_narrow_grid_refused_with_edge_values(self):
        p = SystemParams(1, 1, 0.5, 1, 1)
        grid = np.linspace(-1.0, 1.0, 201)
        exp = Experiment(params=p, profile=Profile(kind="gaussian", width=1.0),
                         times=np.geomspace(1.0, 10.0, 5), j_orders=(0, 1), grid=grid)
        with pytest.raises(TailMassError) as info:
            run_decay(exp)
        # the first offending (j, t) is j = 0 at the first time
        state0 = build_initial_state(p, exp.profile, grid)
        u = SymbolPropagator(p, grid).propagate_many(state0.values, exp.times[:1])[0]
        integrand = np.sum(np.abs(u) ** 2, axis=1)
        assert info.value.edge_values == pytest.approx(
            (integrand[0], integrand[-1]), rel=1e-12)

    def test_norm_increase_refused(self, monkeypatch):
        true_sums = SymbolPropagator.plancherel_sums

        def growing(self, values0, times, weights, scale=None):
            sums, peak, edges = true_sums(self, values0, times, weights, scale)
            return sums * (1.0 + times), peak, edges

        monkeypatch.setattr(SymbolPropagator, "plancherel_sums", growing)
        exp = Experiment(params=SystemParams(1, 1, 0.5, 1, 1),
                         profile=Profile(kind="gaussian", width=1.0),
                         times=np.geomspace(1.0, 10.0, 5), j_orders=(0,),
                         grid=small_grid())
        with pytest.raises(SolverError, match="increased"):
            run_decay(exp)

    def test_memory_below_one_density(self):
        import tracemalloc

        exp = self.readme_decay()
        run_decay(exp, fit_window=(1e2, 1e4))
        tracemalloc.start()
        try:
            run_decay(exp, fit_window=(1e2, 1e4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 4.4 MB measured; 7.7 MB while the (4097, 40) density was stored
        assert peak < 6e6


class TestPointwiseRates:
    def test_conservative_mode_rate_vanishes(self):
        p = SystemParams(1, 1, 1, 1, 0)
        out = fit_pointwise_rate(p, [1.0], t_factor=100.0)
        # worst-case rate includes the undamped pair: essentially zero
        assert out["rate"][0] <= 1e-8

    def test_shape_sandwich_a1(self):
        p = SystemParams(1, 1, 0.5, 1, 1)
        out = fit_pointwise_rate(p, np.geomspace(0.01, 100, 12))
        assert out["ratio_min"] > 0


class TestPacketTiming:
    def test_xi0_squared_scaling_one_weak_direction(self):
        p = SystemParams(2, 1, 1, 1, 1)
        t10 = packet_decay_time(p, 10.0)
        t20 = packet_decay_time(p, 20.0)
        assert t20 / t10 == pytest.approx(4.0, rel=0.10)

    def test_uniform_rate_when_a_is_one(self):
        p = SystemParams(1, 1, 1, 1, 1)
        t10 = packet_decay_time(p, 10.0, t_max=1e3)
        t20 = packet_decay_time(p, 20.0, t_max=1e3)
        assert t20 / t10 == pytest.approx(1.0, rel=0.10)


#: the benchmark's packet runs: (params, t_max) for each centre
PACKET_RUNS = [(SystemParams(2, 1, 1, 1, 1), 1e6), (SystemParams(1, 1, 1, 1, 1), 1e3)]


class TestPacketGrid:
    @pytest.mark.parametrize("width", [0.5, 1.0])
    @pytest.mark.parametrize("xi0", [10.0, 20.0, 40.0])
    @pytest.mark.parametrize("params, t_max", PACKET_RUNS)
    def test_narrow_bump_matches_a_wider_finer_grid(self, params, t_max, xi0, width):
        # the bump's xi standard deviation is 1/width, so below width = sqrt 2
        # a grid of +-4 width cuts it off; reference: a grid twice as wide
        # with a step four times as fine
        times, ratio = packet_ratio_scan(params, xi0, width=width, t_max=t_max,
                                         grid=packet_grid(xi0, width, 16.0, 1281))
        ref = scan_crossing(times, ratio, math.exp(-2.0))
        got = packet_decay_time(params, xi0, width=width, t_max=t_max)
        assert got == pytest.approx(ref, rel=1e-5)


def scanned(params, xi0, level=math.exp(-2.0), **kw):
    """The decay time of the full scan (the oracle), or None where the level
    is never reached."""
    return scan_crossing(*packet_ratio_scan(params, xi0, **kw), level)


def bracketed(params, xi0, **kw):
    """packet_decay_time, or None where it refuses a level never reached."""
    try:
        return packet_decay_time(params, xi0, **kw)
    except PreconditionError as e:
        assert "never reached level" in str(e)
        return None


class TestPacketBracket:
    """The bracketed search finds the full scan's crossing bit for bit."""

    @pytest.mark.parametrize("xi0", [10.0, 20.0, 40.0])
    @pytest.mark.parametrize("params, t_max", PACKET_RUNS)
    def test_benchmark_runs_equal_full_scan(self, params, t_max, xi0):
        assert packet_decay_time(params, xi0, t_max=t_max) == scanned(params, xi0, t_max=t_max)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.sampled_from(PACKET_RUNS), st.sampled_from([10.0, 20.0]),
           st.floats(1.5, 2.5), st.floats(0.0, 8.0, exclude_min=True),
           st.integers(2, 800), st.floats(-1.0, 6.5))
    def test_equals_full_scan(self, run, xi0, width, log_level, n_times, log_t_max):
        # level = e^-x in (0, 1); a t_max below the crossing checks that both
        # refuse
        params, _ = run
        kw = dict(width=width, level=math.exp(-log_level), n_times=n_times,
                  t_max=10.0 ** log_t_max)
        assert bracketed(params, xi0, **kw) == scanned(params, xi0, **kw)

    @pytest.mark.parametrize("where", ["index 1", "last bracket", "coarse sample",
                                       "second coarse sample", "last sample"])
    def test_edge_crossings(self, where):
        params, t_max = PACKET_RUNS[1]
        n = 400
        s = math.isqrt(n)
        times, ratio = packet_ratio_scan(params, 10.0, t_max=t_max, n_times=n)
        assert np.all(np.diff(ratio) < 0)
        level = {"index 1": ratio[1], "last bracket": 0.5 * (ratio[n - 3] + ratio[n - 2]),
                 "coarse sample": ratio[s], "second coarse sample": ratio[2 * s],
                 "last sample": ratio[n - 1]}[where]
        got = packet_decay_time(params, 10.0, level=level, t_max=t_max, n_times=n)
        assert got == scan_crossing(times, ratio, level)
        i = {"index 1": 1, "last bracket": n - 2, "coarse sample": s,
             "second coarse sample": 2 * s, "last sample": n - 1}[where]
        assert times[i - 1] < got <= times[i]

    def test_level_reached_at_start(self):
        params, t_max = PACKET_RUNS[1]
        assert packet_decay_time(params, 10.0, level=1.0, t_max=t_max) == 1e-2

    def test_never_reached_refused(self):
        params, _ = PACKET_RUNS[0]
        with pytest.raises(PreconditionError, match="never reached level .* extend t_max"):
            packet_decay_time(params, 10.0, t_max=10.0)
        assert scanned(params, 10.0, t_max=10.0) is None

    @pytest.mark.parametrize("kw, key", [({"n_times": 1}, "n_times"),
                                         ({"n_times": 0}, "n_times"),
                                         ({"n_times": 40.0}, "n_times"),
                                         ({"t_max": 1e-2}, "t_max"),
                                         ({"t_max": 1e-3}, "t_max"),
                                         ({"t_max": float("nan")}, "t_max")])
    def test_bad_time_grid_refused(self, kw, key):
        with pytest.raises(PreconditionError, match=key):
            packet_decay_time(PACKET_RUNS[1][0], 10.0, **kw)

    @pytest.mark.parametrize("rise_at", ["coarse", "fine"])
    def test_rising_norm_is_solver_error(self, monkeypatch, rise_at):
        params, t_max = PACKET_RUNS[1]
        times, ratio = packet_ratio_scan(params, 10.0, t_max=t_max)
        true_sums = SymbolPropagator.plancherel_sums
        # a coarse rise at t = times[20]; a fine one at times[5], which only
        # the second pass evaluates, with the crossing on times[20]
        bump = times[20] if rise_at == "coarse" else times[5]

        def rising(self, values0, t, weights, scale=None):
            sums, peak, edges = true_sums(self, values0, t, weights, scale)
            return sums * np.where(t == bump, 2.0, 1.0), peak, edges

        monkeypatch.setattr(SymbolPropagator, "plancherel_sums", rising)
        with pytest.raises(SolverError, match="rose"):
            packet_decay_time(params, 10.0, level=ratio[20], t_max=t_max)

    def test_rise_within_rounding_passes(self, monkeypatch):
        params, t_max = PACKET_RUNS[1]
        times, ratio = packet_ratio_scan(params, 10.0, t_max=t_max)
        true_sums = SymbolPropagator.plancherel_sums

        def flat(self, values0, t, weights, scale=None):
            # every norm held at its t = 1e-2 value, plus 1e-13 of it
            sums, peak, edges = true_sums(self, values0, times[:1], weights, scale)
            return sums * np.where(t > times[0], 1.0 + 1e-13, 1.0), peak, edges

        monkeypatch.setattr(SymbolPropagator, "plancherel_sums", flat)
        assert packet_decay_time(params, 10.0, level=1.0, t_max=t_max) == times[0]
        with pytest.raises(PreconditionError, match="never reached"):
            packet_decay_time(params, 10.0, t_max=t_max)

    @pytest.mark.parametrize("n_times", [2, 3, 17, 40, 400, 401, 800])
    @pytest.mark.parametrize("level", [math.exp(-2.0), 0.9999, 1e-9])
    def test_times_evaluated(self, monkeypatch, n_times, level):
        params, t_max = PACKET_RUNS[1]
        true_sums = SymbolPropagator.plancherel_sums
        seen = []

        def spy(self, values0, t, weights, scale=None):
            seen.append(len(t))
            return true_sums(self, values0, t, weights, scale)

        monkeypatch.setattr(SymbolPropagator, "plancherel_sums", spy)
        bracketed(params, 10.0, level=level, t_max=t_max, n_times=n_times)
        assert sum(seen) <= 2 * math.isqrt(n_times) + 2


class TestSynthesis:
    def make_exp(self, params, xi_max=120.0):
        return Experiment(params=params,
                          profile=Profile(kind="gaussian", width=1.0),
                          times=np.geomspace(1, 1e4, 20), j_orders=(0,),
                          grid=default_grid(xi_max=xi_max, n_geo=256, n_lin=512))

    def test_regime_guards(self):
        exp = self.make_exp(SystemParams(1, 1, 0.5, 1, 1))
        with pytest.raises(RegimeError):
            three_region_synthesis(exp, FrequencyPartition(nu=0.05, N=50))
        exp2 = self.make_exp(SystemParams(1, np.sqrt(2.0), 1, 0, 1))
        with pytest.raises(RegimeError):
            three_region_synthesis(exp2, FrequencyPartition(nu=0.05, N=50))

    def test_equal_speeds_synthesis(self):
        exp = self.make_exp(SystemParams(1, 1, 0.5, 0, 1))
        rep = three_region_synthesis(exp, FrequencyPartition(nu=0.05, N=50))
        assert rep["gap"] > 0
        assert rep["q_tail"] == 2
        assert rep["bound_dominates"]
        assert rep["c1_hat"] >= 1.0 and rep["c5_hat"] >= 1.0

    def test_low_region_reproduces_heat_exponent(self):
        # the low-region integral of gaussian data alone must decay like
        # (1+t)^{-1/2} in the squared norm (j = 0): quadrature of the
        # heat-like bound against the measured regional integral
        exp = Experiment(params=SystemParams(1, 1, 0.5, 0, 1),
                         profile=Profile(kind="gaussian", width=1.0),
                         times=np.geomspace(10.0, 1e5, 22), j_orders=(0,),
                         grid=default_grid(xi_max=120.0, n_geo=384, n_lin=384))
        rep = three_region_synthesis(exp, FrequencyPartition(nu=0.05, N=50))
        # the -1/2 law needs t well past 1/(2 c2 nu^2) ~ 1e3
        sel = rep["times"] >= 5e3
        slope = np.polyfit(np.log1p(rep["times"][sel]),
                           np.log(rep["I_low"][sel]), 1)[0]
        assert slope == pytest.approx(-0.5, rel=0.10)
        # quadrature oracle: integral of exp(-2 c xi^2 t) over the low band
        c2 = rep["c2_hat"]
        xi = np.linspace(0, 0.05, 2000)
        oracle = np.array([np.trapezoid(np.exp(-2 * c2 * xi**2 * t), xi)
                           for t in rep["times"][sel]])
        slope_oracle = np.polyfit(np.log1p(rep["times"][sel]), np.log(oracle), 1)[0]
        assert slope_oracle == pytest.approx(-0.5, rel=0.10)
        assert slope == pytest.approx(slope_oracle, rel=0.05)

    def test_one_propagator(self, monkeypatch):
        # one propagator, one eigen solve over the grid: the thinned rows'
        # operator norms and the data's norms both come from it
        built, solved = [], []

        class Spy(SymbolPropagator):
            def __init__(self, params, grid):
                built.append(len(grid))
                super().__init__(params, grid)

        def eigen_spy(params, xi):
            solved.append(len(xi))
            return eigenvalues_batch(params, xi)

        monkeypatch.setattr(decay_lab, "SymbolPropagator", Spy)
        monkeypatch.setattr(propagator, "eigenvalues_batch", eigen_spy)
        exp = self.make_exp(SystemParams(1, 1, 0.5, 0, 1))
        rep = three_region_synthesis(exp, FrequencyPartition(nu=0.05, N=50))
        assert rep["bound_dominates"]
        assert built == [len(exp.grid)] and solved == [len(exp.grid)]

    # certify's synthesize grid and times, and the default grid
    @pytest.mark.parametrize("grid, thinned_spectra", [
        (default_grid(xi_max=40.0, n_geo=96, n_lin=128), 225),
        (default_grid(), 477)])
    def test_thinned_norms_on_their_spectra(self, monkeypatch, grid, thinned_spectra):
        # the grid propagator's norms of the thinned rows are bitwise those
        # of a propagator over the thinned rows alone, and only their
        # spectra are evaluated
        calls, inside, streamed = [], [], []
        norms, stream = SymbolPropagator.operator_norms, SymbolPropagator._real_states

        def norms_spy(prop, times, rows=None):
            inside.append(True)
            out = norms(prop, times, rows)
            inside.pop()
            calls.append((prop.params, prop.grid, times, rows, out))
            return out

        def stream_spy(prop, *args, **kwargs):
            # the frequencies whose spectra the norms propagate
            for idx, V in stream(prop, *args, **kwargs):
                if inside:
                    streamed.append(prop.grid[prop._first[idx]])
                yield idx, V

        monkeypatch.setattr(SymbolPropagator, "operator_norms", norms_spy)
        monkeypatch.setattr(SymbolPropagator, "_real_states", stream_spy)
        exp = Experiment(params=SystemParams(1, 1, 0.5, 0, 1),
                         profile=Profile(kind="gaussian", width=1.0),
                         times=np.geomspace(1.0, 1000.0, 10), j_orders=(0,), grid=grid)
        assert three_region_synthesis(exp, FrequencyPartition(nu=0.05, N=20.0))["bound_dominates"]
        [(params, prop_grid, times, rows, out)] = calls
        assert np.array_equal(prop_grid, grid)
        monkeypatch.undo()
        alone = SymbolPropagator(params, grid[rows]).operator_norms(times)
        assert np.array_equal(out.view(np.uint64), alone.view(np.uint64))
        evaluated = np.abs(np.concatenate(streamed))
        assert len(evaluated) == thinned_spectra
        assert np.array_equal(np.sort(evaluated), np.unique(np.abs(grid[rows])))

    def test_low_region_past_the_exponent_floor(self):
        # c2_hat xi^2 t reaches 5625 in the low region and the middle region's
        # gap * t passes 700 too: the operator norms underflow to 0, and the
        # floored shapes keep every constant finite
        exp = Experiment(params=SystemParams(1, 1, 0.5, 0, 1),
                         profile=Profile(kind="gaussian", width=1.0),
                         times=np.geomspace(1, 1e7, 15), j_orders=(0,),
                         grid=default_grid(xi_max=60.0, n_geo=64, n_lin=128))
        part = FrequencyPartition(nu=0.05, N=20)
        rep = three_region_synthesis(exp, part)
        assert rep["c2_hat"] * part.nu**2 * exp.times[-1] > 700
        assert rep["gap"] * exp.times[-1] > 700
        for key in ("c1_hat", "c5_hat", "c3_hat", "p_fitted"):
            assert np.isfinite(rep[key])
        assert rep["bound_dominates"] and "inconsistency" not in rep

    def test_partition_invariance_of_total(self):
        exp = self.make_exp(SystemParams(1, 1, 0.5, 0, 1))
        totals = []
        for nu, N in ((0.02, 20.0), (0.05, 50.0), (0.1, 100.0)):
            rep = three_region_synthesis(exp, FrequencyPartition(nu=nu, N=N))
            split_total = rep["I_low"] + rep["I_mid"] + rep["I_high"]
            assert np.allclose(split_total, rep["I_total"], rtol=1e-2)
            totals.append(rep["I_total"])
        assert np.allclose(totals[0], totals[1], rtol=1e-9)
        assert np.allclose(totals[1], totals[2], rtol=1e-9)


class TestOptimalityProbe:
    def test_ratios_bounded_low_frequency(self):
        p = SystemParams(1, 1, 0.5, 1, 1)
        rep = optimality_probe(p, xi_grid=np.geomspace(0.01, 0.1, 8))
        lo, hi = rep["ratio_empirical_bounds"]
        assert 0.5 <= lo <= hi <= 2.0
        assert rep["ratio_lyapunov_bounds"][0] > 0

    def test_high_frequency_rate_floor_a1(self):
        # a = 1: the spectral rate stays bounded below by a constant of the
        # order of the smaller damping (no regularity loss)
        p = SystemParams(1, 1, 0.5, 1, 1)
        for xi in (50.0, 200.0, 1000.0):
            rate = -2.0 * eigenvalues_batch(p, [xi])[0][0].real.max()
            assert rate >= 0.25 * min(p.gamma1, p.gamma2)

    def test_high_frequency_rate_decays_a2(self):
        # a != 1: the spectral rate falls like xi^-2 (regularity loss)
        p = SystemParams(2, 3, 1, 1, 1)
        scaled = []
        for xi in (50.0, 100.0, 200.0):
            scaled.append(-2.0 * eigenvalues_batch(p, [xi])[0][0].real.max() * xi**2)
        assert max(scaled) / min(scaled) < 1.2

    def test_requires_both_dampings(self):
        with pytest.raises(RegimeError):
            optimality_probe(SystemParams(1, 1, 1, 0, 1))
