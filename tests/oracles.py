"""50-digit oracles shared by the tests; mpmath is a test dependency only."""

import numpy as np

from disspec.core_model import _sextic_coeffs
from disspec.spectral import _putzer_order


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


def packet_ratio_scan(params, xi0, width=2.0, component="v", t_max=1e6, n_times=400):
    """The packet's squared norm relative to its start at every one of the
    ``n_times`` times of :func:`disspec.decay_lab.packet_decay_time`: the
    same grid, data and propagator, with the density at all times at once.
    Returns (times, ratio)."""
    from disspec.decay_lab import Profile, build_initial_state
    from disspec.propagator import SymbolPropagator, plancherel_norms

    half = np.linspace(max(xi0 - 4.0 * width, 0.05), xi0 + 4.0 * width, 161)
    grid = np.concatenate([-half[::-1], half])
    prof = Profile(kind="high_freq_packet", center=xi0, width=width, component=component)
    state = build_initial_state(params, prof, grid)
    times = np.geomspace(1e-2, t_max, n_times)
    dens = SymbolPropagator(params, grid).density(state.values, times)
    n2 = plancherel_norms(grid, dens, 0, check_tail=False)
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
