"""Independent oracles shared by the tests; mpmath is a test dependency only."""

import itertools
from pathlib import Path

import numpy as np

from disspec.core_model import _sextic_coeffs, build_matrices, char_poly_coeffs
from disspec.errors import PreconditionError, RegimeError, TailMassError
from disspec.spectral import _putzer_order


def char_poly_value(params, zeta, lam):
    """det(lambda I - Phi(zeta)) via LU factorization."""
    A, L = build_matrices(params)
    Phi = -(L.astype(complex) + zeta * A)
    M = lam * np.eye(6, dtype=complex) - Phi
    sign, logdet = np.linalg.slogdet(M)
    if sign == 0:
        return 0j
    return sign * np.exp(logdet)


def factor_check_gamma2_zero(params, zeta, n_samples=12, rtol=1e-10, rng=None):
    """Check the quadratic-times-quartic splitting of the gamma2 = 0 polynomial.

    The sextic factors as (lambda^2 + k^2 (l^2 - zeta^2)) times a quartic;
    the quadratic factor carries the two undamped (purely imaginary, for
    zeta = i xi) roots.  Returns True iff the expanded product matches
    :func:`disspec.char_poly_coeffs` at ``n_samples`` random lambda values
    to relative error ``rtol``.
    """
    if params.gamma2 != 0.0:
        raise RegimeError("factor_check_gamma2_zero requires gamma2 = 0")
    a, k, l, g1 = params.a, params.k, params.l, params.gamma1
    z2 = zeta * zeta
    lz = l * l - z2

    quad = np.array([k**2 * lz, 0.0, 1.0], dtype=complex)          # ascending
    quart = np.array([-(a**2) * z2 * lz, g1 * lz,
                      l * l + 1.0 - z2 * (a**2 + 1.0), g1, 1.0], dtype=complex)
    prod = np.polymul(quad[::-1], quart[::-1])                      # descending

    if rng is None:
        rng = np.random.default_rng(2024)
    lams = rng.normal(size=n_samples) + 1j * rng.normal(size=n_samples)
    p_ref = np.polyval(char_poly_coeffs(params, zeta)[::-1], lams)
    p_fac = np.polyval(prod, lams)
    scale = 1.0 + np.abs(p_ref)
    return bool(np.all(np.abs(p_fac - p_ref) / scale <= rtol))


def abcd_constants(params):
    """``(beta, K)`` of the linear equation (A + i B) + (C + i D) beta = 0
    fixing the second-order correction of the oscillatory branch pair at
    zero frequency (both dampings), hand-derived: lambda = i k l - beta xi^2
    + ... and its conjugate.  K = A C + B D, so Re beta = -K / |C + i D|^2.
    C = D = 0 would need i k l to be a root of the cubic of -L too, which
    no l > 0 with a positive damping allows."""
    k, l, g1, g2 = params.k, params.l, params.gamma1, params.gamma2
    A_ = k**2 * l**2 * (k**2 * (1 + l**2) - k**4 * l**2 + g1 * g2)
    B_ = k**3 * l**3 * (g1 * (k**2 - 1) + g2)
    C_ = 2 * k**2 * l**2 * (g1 * l**2 * (k**2 - 1) + g2 * (k**2 * l**2 - 1))
    D_ = 2 * k**3 * l**3 * (l**2 * (k**2 - 1) - 1 - g1 * g2)
    return -(A_ + 1j * B_) / (C_ + 1j * D_), A_ * C_ + B_ * D_


def beta_delta_hat(params):
    """Closed-form second-order correction -beta_hat + i delta_hat of the
    oscillatory pair at low frequency for gamma1 = 0, hand-derived.  Reads
    only ``k``, ``l`` and ``gamma2``, in any number type (mpmath numbers
    give a 50-digit value)."""
    k, l, g2 = params.k, params.l, params.gamma2
    defect = (k**2 - 1.0) * l**2 - 1.0
    den = 2.0 * (g2**2 * (k**2 * l**2 - 1.0) ** 2 + k**2 * l**2 * defect**2)
    beta_hat = g2 * k**2 * defect**2 / den
    delta_hat = -k * l * (g2**2 * (k**2 * l**2 - 1.0) + (k - k * (k**2 - 1.0) * l**2) ** 2) / den
    return beta_hat, delta_hat


def slow_rates_closed_form(params):
    """The hand-derived xi^2 rates (sigma0, pair) of the zero branch and of
    the oscillatory pair: a^2 l^2 / (gamma1 l^2 + gamma2) and Re beta of
    :func:`abcd_constants` for both dampings, a^2 l^2 / gamma2 and beta_hat
    of :func:`beta_delta_hat` for gamma1 = 0."""
    a, l, g1, g2 = params.a, params.l, params.gamma1, params.gamma2
    if g1 == 0.0:
        return a * a * l * l / g2, beta_delta_hat(params)[0]
    return a * a * l * l / (g1 * l * l + g2), float(abcd_constants(params)[0].real)


def energy(values):
    """Per-frequency energy 0.5 |U_hat|^2 of a (nfreq, 6) state."""
    return 0.5 * np.sum(np.abs(values) ** 2, axis=1)


def dissipation(params, values):
    """Per-frequency gamma1 |y_hat|^2 + gamma2 |eta_hat|^2 of a (nfreq, 6) state."""
    return (params.gamma1 * np.abs(values[:, 3]) ** 2
            + params.gamma2 * np.abs(values[:, 5]) ** 2)


def energy_audit(params, grid, values, dt, propagator=None):
    """Largest residual of the energy identity dE/dt = -(gamma1 |y|^2 +
    gamma2 |eta|^2) over ``grid`` for the (nfreq, 6) data ``values``.

    Central difference of the energy across [0, dt] against the dissipation
    at the midpoint state; the residual is O(dt^2) thanks to the exact
    propagation.
    """
    from disspec.propagator import SymbolPropagator

    if dt <= 0:
        raise PreconditionError("dt must be positive")
    if propagator is None:
        propagator = SymbolPropagator(params, grid)
    vals_half = propagator.apply(values, 0.5 * dt)
    vals_full = propagator.apply(values, dt)
    dE = (energy(vals_full) - energy(values)) / dt
    diss = dissipation(params, vals_half)
    return float(np.max(np.abs(dE + diss)))


def rates(U, PhiU, xi, params):
    """dE_hat/dt, dF/dt, dK/dt, dP/dt at states U (..., 6) with dU/dt = PhiU:
    the dissipation identity, then for each real quadratic form
    Q(U) = Re U* M U (M Hermitian) dQ/dt = (Q(U + PhiU) - Q(U - PhiU))/2."""
    from disspec.lyapunov import _cross_terms

    dE = -(params.gamma1 * np.abs(U[..., 3]) ** 2 + params.gamma2 * np.abs(U[..., 5]) ** 2)
    plus, minus = _cross_terms(U + PhiU, xi, params), _cross_terms(U - PhiU, xi, params)
    return (dE,) + tuple(0.5 * (p - m) for p, m in zip(plus, minus))


def functionals(values, xi, params, consts):
    """F, K, P, L1, L2, E_hat state by state for values of shape (..., 6); xi
    broadcasts against (...).  L1 and L2 are the Lyapunov functionals with
    sigma = 1 + xi^2 and 1 + xi^2 + xi^4."""
    from disspec.lyapunov import _cross_terms

    F, K, P = _cross_terms(values, xi, params)
    E = 0.5 * np.sum(np.abs(values) ** 2, axis=-1)
    L1 = consts.d0 * (1.0 + xi**2) * E + consts.d1 * F + consts.d2 * K + P
    L2 = consts.d0 * (1.0 + xi**2 + xi**4) * E + consts.d1 * F + consts.d2 * K + P
    return F, K, P, L1, L2, E


def trajectory_audit(params, consts, xi, horizon=5.0, n_random=100, seed=123):
    """The Lyapunov audit state by state: the 6 basis vectors and the same
    seeded unit states as :func:`disspec.audit_inequality` are propagated
    themselves, and dL/dt is taken by :func:`rates` at each of them.

    Returns (per-frequency max of dL/dt, count of dL/dt > slack, the
    feasible c0, the smallest weight * E_hat that bounds c) over the audit's
    24 times, with its slack and its 1e-300 floor.
    """
    from disspec.core_model import symbol_stack
    from disspec.lyapunov import _SLACK, _T_FIRST, _unit_states, lyapunov_sigma
    from disspec.propagator import SymbolPropagator

    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    states = np.concatenate([np.eye(6, dtype=complex),
                             _unit_states(np.random.default_rng(seed), 1, n_random)[0]])
    kind, sigma = lyapunov_sigma(params, xi)
    weight = xi**2 if kind == "L1" else xi**2 / sigma
    prop = SymbolPropagator(params, xi)
    Phi = symbol_stack(params, xi)
    block = np.broadcast_to(states.T, (len(xi), 6, len(states)))
    per_freq = np.empty(len(xi))
    count, c0, floor = 0, np.inf, np.inf
    for rows, U in prop.states(block, np.linspace(_T_FIRST, horizon, 24)):
        PhiU = (Phi[rows] @ U.reshape(len(rows), 6, -1)).reshape(U.shape)
        U, PhiU = np.moveaxis(U, 1, -1), np.moveaxis(PhiU, 1, -1)   # (k, c, nt, 6)
        at = (rows, None, None)
        dE, dF, dK, dP = rates(U, PhiU, xi[at], params)
        dL = consts.d0 * sigma[at] * dE + consts.d1 * dF + consts.d2 * dK + dP
        per_freq[rows] = dL.max(axis=(1, 2))
        count += int(np.count_nonzero(dL > _SLACK))
        wE = weight[at] * (0.5 * np.sum(np.abs(U) ** 2, axis=-1))
        good = wE > 1e-300
        c0 = min(c0, float(np.min(-dL[good] / wE[good], initial=np.inf)))
        floor = min(floor, float(np.min(wE[good], initial=np.inf)))
    return per_freq, count, c0, floor


def r_chain_mp(lam, t):
    """First column of the 50-digit exponential of t J, J lower
    bidiagonal with the nodes on the diagonal and ones below it."""
    import mpmath as mp

    n = len(lam)
    with mp.workdps(50):
        J = mp.zeros(n)
        for i in range(n):
            J[i, i] = mp.mpc(lam[i]) * t
            if i:
                J[i, i - 1] = t
        E = mp.expm(J)
        return np.array([complex(E[i, 0]) for i in range(n)])


def branches_first_minimum(params, grid):
    """Branch columns frequency by frequency, with no shortcut: each pair of
    adjacent raw (Putzer-order) rows of the solve is matched by the first
    permutation of ``itertools.permutations(range(6))`` with the least total
    cost sum_a |lam_old[a] - lam_new[perm[a]]|, and the matchings are
    composed row by row."""
    from disspec.spectral import eigenvalues_batch

    lam, _ = eigenvalues_batch(params, grid)
    perms = np.array(list(itertools.permutations(range(6))))
    out = lam.copy()
    cols = np.arange(6)
    for i in range(1, len(lam)):
        cost = np.abs(lam[i - 1][:, None] - lam[i][None, :])
        cols = perms[cost[np.arange(6), perms].sum(axis=1).argmin()][cols]
        out[i] = lam[i][cols]
    return out


def eigenvalues_hp(params, xi, dps=50):
    """Eigenvalues at zeta = i xi by high-precision polynomial rooting, in
    Putzer order.

    Resolves branch real parts below the double-precision floor eps * scale
    (e.g. the xi^-4 branches past xi ~ 100).  The coefficients come from the
    formula of :func:`disspec.char_poly_coeffs`, evaluated in working
    precision, since double-rounded coefficients would themselves drown
    those real parts.
    """
    import mpmath as mp

    with mp.workdps(dps):
        mp_params = map(mp.mpf, (params.a, params.k, params.l, params.gamma1, params.gamma2))
        coeffs = _sextic_coeffs(*mp_params, mp.mpc(0, xi) ** 2)[::-1]
        roots = mp.polyroots(coeffs, maxsteps=400, extraprec=120)
        lam = np.array([complex(r) for r in roots])
    return _putzer_order(lam)


def six_exp_table(lam, t):
    """r_1..r_6 of rows of nodes at several times by the Newton/Hermite
    table on values: the exponentials of all six nodes (with the floor's
    zeros), then the divided-difference levels, the confluent entry t/d
    times the entry below it where a level's end nodes coincide.

    lam : (m, 6), t : (nt,).  Returns (6, m, nt), node-major.
    """
    from disspec.propagator import _EXP_FLOOR

    r = np.empty((6, len(lam), len(t)), dtype=complex)
    for i in range(6):
        z = lam[:, i, None] * t
        with np.errstate(under="ignore"):
            r[i] = np.exp(z)
        r[i][z.real < _EXP_FLOOR] = 0.0
    for d in range(1, 6):
        for i in range(5, d - 1, -1):
            dz = lam[:, i] - lam[:, i - d]
            with np.errstate(divide="ignore", invalid="ignore"):
                divided = (r[i] - r[i - 1]) / dz[:, None]
            r[i] = np.where((dz == 0.0)[:, None], r[i] * (t / d), divided)
    return r


def density(prop, values0, times):
    """sum_a |U_a(t)|^2 per frequency (and block column) and time, from the
    whole trajectory of :meth:`disspec.SymbolPropagator.propagate_many`:
    shape (nfreq, ntimes), or (nfreq, c, ntimes) for a (nfreq, 6, c) block."""
    traj = prop.propagate_many(values0, times)
    return np.moveaxis(np.sum(np.abs(traj) ** 2, axis=2), 0, -1)


def plancherel_norms(grid, dens, j, check_tail=True):
    """Squared Sobolev seminorms at several times: np.trapezoid of
    |xi|^{2j} dens over the grid, dens of shape (nfreq, ntimes).  Raises
    TailMassError (with the edge values of the first offending time) where
    the integrand at a grid edge exceeds 1e-12 times its peak."""
    integrand = np.abs(grid) ** (2 * j) * np.ascontiguousarray(dens.T)
    if check_tail:
        peak = integrand.max(axis=1)
        edge = np.maximum(integrand[:, 0], integrand[:, -1])
        bad = np.flatnonzero((peak > 0.0) & (edge > 1e-12 * peak))
        if bad.size:
            q = bad[0]
            raise TailMassError("integrand tail at grid edge exceeds 1e-12 x peak",
                                edge_values=(float(integrand[q, 0]), float(integrand[q, -1])))
    return np.trapezoid(integrand, grid, axis=-1)


def packet_grid(xi0, width, sigmas=8.0, n=161):
    """The symmetric grid of :func:`disspec.decay_lab.packet_decay_time`:
    ``n`` points on each side spanning xi0 +- max(sigmas / width, 4 width).
    Wider and finer grids serve as its reference."""
    span = max(sigmas / width, 4.0 * width)
    half = np.linspace(max(xi0 - span, 0.05), xi0 + span, n)
    return np.concatenate([-half[::-1], half])


def packet_ratio_scan(params, xi0, width=2.0, component="v", t_max=1e6, n_times=400,
                      grid=None):
    """The packet's squared norm relative to its start at every one of the
    ``n_times`` times of :func:`disspec.decay_lab.packet_decay_time`: the
    same grid (unless ``grid`` is given), data and propagator, with all the
    times in one call.  Returns (times, ratio)."""
    from disspec.decay_lab import Profile, build_initial_state
    from disspec.propagator import Rule, SymbolPropagator

    if grid is None:
        grid = packet_grid(xi0, width)
    prof = Profile(kind="high_freq_packet", center=xi0, width=width, component=component)
    state = build_initial_state(params, prof, grid)
    times = np.geomspace(1e-2, t_max, n_times)
    rule = Rule(grid)
    n2 = rule.integrate(SymbolPropagator(params, grid), state, times,
                        rule.sobolev(state, (0,)), check_tail=False)[0]
    return times, n2 / n2[0]


def scan_crossing(times, ratio, level):
    """The first time of ``ratio <= level``, log-log interpolated, by a scan
    of every sample; ``None`` when the level is never reached."""
    import math

    below = np.flatnonzero(ratio <= level)
    if below.size == 0:
        return None
    i = below[0]
    if i == 0:
        return float(times[0])
    t1, t2 = times[i - 1], times[i]
    r1, r2 = ratio[i - 1], ratio[i]
    frac = (math.log(level) - math.log(r1)) / (math.log(r2) - math.log(r1))
    return float(math.exp(math.log(t1) + frac * (math.log(t2) - math.log(t1))))


def read_csv(path):
    """(header, rows) of a CSV artifact, every cell read as a float."""
    lines = [ln for ln in Path(path).read_text().split("\n") if ln]
    return lines[0].split(","), [[float(x) for x in ln.split(",")] for ln in lines[1:]]


def csv_text_per_element(header, rows):
    """The CSV text of ``rows`` formatted element by element: repr of each
    float (numpy scalars converted first), str of anything else."""
    def fmt(x):
        if isinstance(x, (float, np.floating)):
            return repr(float(x))
        return str(x)

    lines = [",".join(header)] + [",".join(fmt(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def spectrum_rows_per_element(grid, branches):
    """Rows of the spectrum CSV built frequency by frequency from numpy
    scalars: xi, re_1..re_6, im_1..im_6, max_re."""
    return [[xi] + list(lam.real) + list(lam.imag) + [lam.real.max()]
            for xi, lam in zip(grid, branches)]


def state_rows_per_element(grid, values):
    """Rows of a state CSV built frequency by frequency from numpy
    scalars: xi plus the real and imaginary parts."""
    return [[xi] + list(v.real) + list(v.imag) for xi, v in zip(grid, values)]
