"""End-to-end decay experiments on the Fourier side.

The lab evolves initial data exactly (per-frequency Putzer exponentials),
computes Sobolev seminorms by Plancherel quadrature, and fits decay laws:

* power-law fits of ||d^j U / dx^j||_{L^2} against (1 + t) for the damped
  regimes (expected exponent -1/4 - j/2 from the heat-like low-frequency
  branch);
* non-decay certification for gamma2 = 0 by evolving data concentrated on
  the conservative (purely imaginary) eigenvalue branch;
* per-frequency worst-case rates in operator norm against the reference
  shapes rho1 = xi^2/(1+xi^2) and rho2 = xi^2/(1+xi^2+xi^4);
* the low/middle/high frequency synthesis for the single-damping regime,
  with per-region fitted constants;
* a probe comparing the Lyapunov decay prediction against the slowest
  spectral branch.

Grids are symmetric with geometric spacing near zero; all randomness is
seeded through explicit ``seed`` arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core_model import SystemParams, build_symbol
from .errors import PreconditionError, RegimeError
from .lyapunov import audit_inequality, lyapunov_sigma, sandwich_fit, search_constants
from .propagator import FourierState, SymbolPropagator, default_grid, plancherel_norms
from .spectral import (_cluster_tags, eigenvalues, eigenvalues_batch, gap_scan,
                       high_freq_expansion, low_freq_expansion)

__all__ = [
    "Profile",
    "Experiment",
    "DecayFit",
    "FrequencyPartition",
    "build_initial_state",
    "run_decay",
    "fit_pointwise_rate",
    "packet_decay_time",
    "three_region_synthesis",
    "optimality_probe",
]

_COMPONENTS = {"v": 0, "u": 1, "z": 2, "y": 3, "phi": 4, "eta": 5}


@dataclass(frozen=True)
class Profile:
    """Initial-data profile in frequency space.

    kind:
      gaussian(width)            -- exp(-(width*xi)^2/2) (unit L-infinity peak)
      box(halfwidth)             -- Fourier image 2 sin(halfwidth*xi)/xi of a
                                    physical box, finite L^1 data
      high_freq_packet(center, width) -- Hermitian pair of Gaussian bumps at
                                    +-center
      conservative_mode(center, width) -- packet carried by the undamped
                                    eigenvector at each frequency (gamma2 = 0)
    component: which first-order unknown carries the profile ("v".."eta" or
      "all" for an equal mix); ignored for conservative_mode.
    """

    kind: str
    width: float = 1.0
    center: float = 0.0
    component: str = "z"

    def amplitude(self, grid: np.ndarray) -> np.ndarray:
        if self.kind == "gaussian":
            return np.exp(-0.5 * (self.width * grid) ** 2)
        if self.kind == "box":
            out = np.empty_like(grid)
            nz = grid != 0
            out[nz] = 2.0 * np.sin(self.width * grid[nz]) / grid[nz]
            out[~nz] = 2.0 * self.width
            return out
        if self.kind in ("high_freq_packet", "conservative_mode"):
            if self.center <= 0:
                raise PreconditionError("packet profiles need center > 0")
            w = self.width
            return (np.exp(-0.5 * ((grid - self.center) * w) ** 2)
                    + np.exp(-0.5 * ((grid + self.center) * w) ** 2))
        raise PreconditionError(f"unknown profile kind {self.kind!r}")

    def vector(self) -> np.ndarray:
        if self.component == "all":
            return np.ones(6) / np.sqrt(6.0)
        if self.component not in _COMPONENTS:
            raise PreconditionError(f"unknown component {self.component!r}")
        e = np.zeros(6)
        e[_COMPONENTS[self.component]] = 1.0
        return e


@dataclass(frozen=True)
class Experiment:
    """One decay experiment: parameters, data, sampling instants."""

    params: SystemParams
    profile: Profile
    times: np.ndarray
    j_orders: tuple[int, ...] = (0,)
    grid: np.ndarray = field(default=None)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if np.any(np.diff(t) <= 0):
            raise PreconditionError("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        if self.grid is None:
            object.__setattr__(self, "grid", default_grid())


@dataclass(frozen=True)
class DecayFit:
    """Least-squares power law ||.|| ~ amplitude * (1+t)^exponent."""

    j: int
    exponent: float
    amplitude: float
    fit_window: tuple[float, float]
    max_residual: float
    norms: np.ndarray
    times: np.ndarray


@dataclass(frozen=True)
class FrequencyPartition:
    """Low / middle / high frequency split at nu and N.

    Defaults chosen so asymptotic fits run strictly outside the middle band.
    """

    nu: float = 0.05
    N: float = 50.0

    def __post_init__(self):
        if not (0.0 < self.nu < 1.0 < self.N):
            raise PreconditionError(f"need 0 < nu < 1 < N, got nu={self.nu}, N={self.N}")


def _conservative_vector(params: SystemParams, xi: float) -> np.ndarray:
    """Unit eigenvector of the purely imaginary eigenvalue (gamma2 = 0).

    The undamped pair sits at +- i k sqrt(l^2 + xi^2); one inverse-iteration
    step from a fixed start vector at the polished eigenvalue recovers its
    eigenvector to solver precision.
    """
    lam_target = 1j * params.k * np.sqrt(params.l**2 + xi**2)
    spec = eigenvalues(params, xi)
    lam = spec.eigenvalues[np.argmin(np.abs(spec.eigenvalues - lam_target))]
    Phi = build_symbol(params, xi).Phi
    M = Phi - (lam + 1e-13 * (1.0 + abs(lam))) * np.eye(6)
    vec = np.full(6, 1.0 + 0.0j) / np.sqrt(6.0)
    for _ in range(2):
        vec = np.linalg.solve(M, vec)
        vec /= np.linalg.norm(vec)
    return vec


def build_initial_state(params: SystemParams, profile: Profile,
                        grid: np.ndarray) -> FourierState:
    """Assemble the initial FourierState for a profile (Hermitian for real data)."""
    amp = profile.amplitude(grid)
    if profile.kind == "conservative_mode":
        if params.gamma2 != 0.0:
            raise RegimeError("conservative_mode data requires gamma2 = 0")
        values = np.zeros((len(grid), 6), dtype=complex)
        sig = amp > 1e-14 * amp.max()
        for i in np.flatnonzero(sig & (grid >= 0)):
            values[i] = amp[i] * _conservative_vector(params, grid[i])
        # Hermitian completion on the negative half
        for i in np.flatnonzero(sig & (grid < 0)):
            mirror = np.argmin(np.abs(grid + grid[i]))
            values[i] = np.conj(values[mirror])
    else:
        values = amp[:, None] * profile.vector()[None, :].astype(complex)
    return FourierState(params=params, grid=np.asarray(grid, float),
                        values=values, t=0.0)


def _fit_power_law(times: np.ndarray, norms: np.ndarray,
                   window: tuple[float, float]) -> tuple[float, float, float]:
    """LS fit of log(norm) = log(amplitude) + exponent * log(1+t) on a window."""
    sel = (times >= window[0]) & (times <= window[1]) & (norms > 0)
    if sel.sum() < 3:
        raise PreconditionError("fit window contains fewer than 3 usable samples")
    x = np.log1p(times[sel])
    y = np.log(norms[sel])
    coef = np.polyfit(x, y, 1)
    resid = y - np.polyval(coef, x)
    return float(coef[0]), float(np.exp(coef[1])), float(np.max(np.abs(resid)))


def run_decay(exp: Experiment, fit_window: tuple[float, float] | None = None,
              monotonicity_rtol: float = 1e-6) -> dict[int, DecayFit]:
    """Evolve the experiment and fit one power law per derivative order.

    The default window is the last decade of the sampled times.  In damped
    regimes a norm increase beyond ``monotonicity_rtol`` is flagged as an
    inconsistency (each Fourier mode's modulus is provably non-increasing).
    """
    params = exp.params
    state0 = build_initial_state(params, exp.profile, exp.grid)
    prop = SymbolPropagator(params, exp.grid)
    density = prop.density(state0.values, exp.times)      # (nfreq, nt)

    if fit_window is None:
        fit_window = (exp.times[-1] / 10.0, exp.times[-1])

    fits: dict[int, DecayFit] = {}
    for j in exp.j_orders:
        norms = np.sqrt(plancherel_norms(exp.grid, density, j))
        increase = np.max(norms[1:] / np.maximum(norms[:-1], 1e-300)) - 1.0
        if increase > monotonicity_rtol:
            raise PreconditionError(
                f"norm for j={j} increased by {increase:.2e} along the run; "
                "mode-wise moduli are non-increasing, so this is an inconsistency")
        exponent, amplitude, resid = _fit_power_law(exp.times, norms, fit_window)
        fits[j] = DecayFit(j=j, exponent=exponent, amplitude=amplitude,
                           fit_window=fit_window, max_residual=resid,
                           norms=norms, times=exp.times)
    return fits


def fit_pointwise_rate(params: SystemParams, xi_grid, t_grid=None,
                       t_factor: float = 20.0, t_cap: float = 1e6):
    """Worst-case per-frequency decay rates in operator norm.

    rate(xi) = -log ||e^{Phi(i xi) T}||_2^2 / T with T at the end of
    ``t_grid`` when given, otherwise T ~ t_factor divided by the expected
    rate shape (so every frequency is measured deep in its own decay, not
    in the transient).  Returns a dict with the rates, the reference shape
    values, and the fitted proportionality interval [c, C].

    Reference shape: rho1 = xi^2/(1+xi^2) for a = 1, rho2 with the extra
    xi^4 for a != 1 (both dampings); for gamma1 = 0 the shape uses the
    high-frequency table's slow power; for gamma2 = 0 the rate itself is
    reported (it should vanish on the conservative pair).
    """
    xi_grid = np.atleast_1d(np.asarray(xi_grid, dtype=float))
    regime = params.regime

    def shape(x: np.ndarray) -> np.ndarray:
        x2 = x * x
        if regime == "both_damped":
            return x2 / lyapunov_sigma(params, x)[1]
        if regime == "gamma1_zero":
            hf = high_freq_expansion(params)
            slow_pow = min(b.xi_power for b in hf.high_freq)
            return x2 / (1.0 + x2 + x ** (2 - slow_pow))
        return np.ones_like(x)

    shp = shape(xi_grid)
    if t_grid is not None:
        T = np.full(len(xi_grid), float(np.max(t_grid)))
    else:
        T = np.minimum(t_factor / np.maximum(shp, 1e-12), t_cap)
    # one propagator and one norm table over the distinct end times; each
    # frequency reads its own
    ends, which = np.unique(T, return_inverse=True)
    nrm = SymbolPropagator(params, xi_grid).operator_norms(ends)
    nrm = nrm[np.arange(len(xi_grid)), which]
    rates = -2.0 * np.log(np.maximum(nrm, 1e-300)) / T

    ratio = rates / shp
    return {
        "xi": xi_grid,
        "rate": rates,
        "shape": shp,
        "ratio_min": float(ratio.min()),
        "ratio_max": float(ratio.max()),
    }


def packet_decay_time(params: SystemParams, xi0: float, width: float = 2.0,
                      component: str = "v", level: float = math.exp(-2.0),
                      t_max: float = 1e6, n_times: int = 400) -> float:
    """Time at which a packet's squared norm falls to ``level`` of its start.

    Builds a Hermitian Gaussian packet at +-xi0, evolves it exactly, and
    log-interpolates the first crossing.  For one mild damping the decay
    time grows like xi0^2 (regularity loss); when every branch keeps a
    uniform spectral gap it is xi0-independent.
    """
    if xi0 <= 0:
        raise PreconditionError("packet center must be positive")
    half = np.linspace(max(xi0 - 4.0 * width, 0.05), xi0 + 4.0 * width, 161)
    grid = np.concatenate([-half[::-1], half])
    prof = Profile(kind="high_freq_packet", center=xi0, width=width,
                   component=component)
    state = build_initial_state(params, prof, grid)
    prop = SymbolPropagator(params, grid)
    times = np.geomspace(1e-2, t_max, n_times)
    n2 = plancherel_norms(grid, prop.density(state.values, times), 0, check_tail=False)
    ratio = n2 / n2[0]
    below = np.flatnonzero(ratio <= level)
    if below.size == 0:
        raise PreconditionError(
            f"packet norm never reached level {level} by t={t_max}; extend t_max")
    i = below[0]
    if i == 0:
        return float(times[0])
    # log-log interpolation of the crossing
    t1, t2 = times[i - 1], times[i]
    r1, r2 = ratio[i - 1], ratio[i]
    frac = (math.log(level) - math.log(r1)) / (math.log(r2) - math.log(r1))
    return float(math.exp(math.log(t1) + frac * (math.log(t2) - math.log(t1))))


def _region_masks(grid: np.ndarray, part: FrequencyPartition):
    ax = np.abs(grid)
    low = ax < part.nu
    mid = (ax >= part.nu) & (ax <= part.N)
    high = ax > part.N
    return low, mid, high


def three_region_synthesis(exp: Experiment, part: FrequencyPartition,
                           ell: int = 1, j: int | None = None) -> dict:
    """Decompose the squared Sobolev norm into the three-region integrals and
    fit each region's pointwise bound.

    Regions: low |xi| < nu with |U_hat(t)| <= c1_hat exp(-c2_hat xi^2 t) |U_hat(0)|;
    middle with |U_hat(t)| <= c5_hat (1 + |xi|^{2m} t^m) exp(-C t) |U_hat(0)|
    (C from a gap certificate, m from the multiplicity scan); high |xi| > N
    with |U_hat(t)| <= c3_hat |xi|^p exp(-c4_hat xi^{-q} t)|U_hat(0)|.

    The tail power q is taken from the validated high-frequency table (the
    most slowly decaying branch).  Regional shape constants are calibrated
    worst-case, on the *operator norms* ||e^{Phi(i xi) t}||_2 (so they bound
    every admissible datum, not just the experiment's profile); the
    amplification power p is *fitted*, not assumed:

        p = log-log slope in xi of sup_t ||e^{Phi t}||_2 e^{+c4_hat xi^{-q} t}

    over the high region.  Because the semigroup is an exact L^2 contraction,
    the honest p comes out near zero; the report carries it as measured.
    The assembled pointwise bounds dominate the experiment's regional
    integrals by construction at every sampled (xi, t); the report records
    that verification explicitly.
    """
    params = exp.params
    if params.regime != "gamma1_zero":
        raise RegimeError("three-region synthesis covers the gamma1 = 0, gamma2 > 0 regime")
    if abs(params.stability_defect) < 1e-12:
        raise RegimeError("synthesis requires (k^2 - 1) l^2 - 1 != 0")
    if j is None:
        j = exp.j_orders[0]

    hf = high_freq_expansion(params)
    validated = [b for b in hf.high_freq if np.isfinite(b.re_coefficient)]
    slow = min(validated, key=lambda b: b.xi_power)
    q = -slow.xi_power
    c4_hat = -slow.re_coefficient  # per-branch rate constant (of xi^-q)

    state0 = build_initial_state(params, exp.profile, exp.grid)
    prop = SymbolPropagator(params, exp.grid)
    density = prop.density(state0.values, exp.times)
    amp0 = np.linalg.norm(state0.values, axis=1)
    low, mid, high = _region_masks(exp.grid, part)

    # measured regional integrals of xi^{2j} |U_hat|^2
    w = np.abs(exp.grid) ** (2 * j)
    integ = w[None, :] * np.ascontiguousarray(density.T)

    def region_integral(mask):
        return np.trapezoid(np.where(mask, integ, 0.0), exp.grid, axis=1)

    I_low, I_mid, I_high = region_integral(low), region_integral(mid), region_integral(high)
    I_total = np.trapezoid(integ, exp.grid, axis=1)

    # worst-case per-frequency amplification, on a thinned frequency set
    def thin(mask, cap=160):
        idx = np.flatnonzero(mask)
        if len(idx) > cap:
            idx = idx[np.unique(np.linspace(0, len(idx) - 1, cap).astype(int))]
        return idx

    opnorm = {}
    for name, mask in (("low", low), ("mid", mid), ("high", high)):
        idx = thin(mask)
        if idx.size:
            sub = SymbolPropagator(params, exp.grid[idx])
            opnorm[name] = (idx, sub.operator_norms(exp.times))  # (nidx, nt)

    out: dict = {"j": j, "ell": ell, "q_tail": q, "c4_hat": c4_hat}

    # low region: ||e^{Phi t}|| <= c1_hat exp(-c2_hat xi^2 t)
    if "low" in opnorm:
        idx, nrm = opnorm["low"]
        lf = low_freq_expansion(params)
        # slowest xi^2-order branch governs the uniform low-frequency rate
        slow_low = min(-b.re_coefficient for b in lf.low_freq if b.xi_power == 2)
        c2_hat = 0.9 * slow_low  # slightly inside the true rate
        x2t = np.outer(exp.grid[idx] ** 2, exp.times)
        c1_hat = float(np.max(nrm * np.exp(np.minimum(c2_hat * x2t, 700.0))))
        out["c1_hat"] = c1_hat
        out["c2_hat"] = c2_hat

    # middle region: gap certificate + multiplicity scan
    cert = gap_scan(params, part.nu, part.N, initial_points=257)
    scan, _ = eigenvalues_batch(params, np.linspace(part.nu, part.N, 33))
    m = int(_cluster_tags(scan).max()) - 1
    out["gap"] = cert.gap
    out["m_detected"] = m
    if "mid" in opnorm:
        idx, nrm = opnorm["mid"]
        growth = 1.0 + np.outer(np.abs(exp.grid[idx]) ** (2 * m), exp.times**m) \
            if m > 0 else np.ones_like(nrm)
        comp = np.exp(np.minimum(cert.gap * exp.times, 700.0))[None, :]
        c5_hat = float(np.max(nrm * comp / growth))
        out["c5_hat"] = c5_hat

    # high region: fit the amplification power p against |xi|
    if "high" in opnorm:
        idx, nrm = opnorm["high"]
        xs = np.abs(exp.grid[idx])
        comp = np.exp(np.minimum(c4_hat * np.outer(xs ** (-q), exp.times), 700.0))
        sup_ratio = np.max(nrm * comp, axis=1)
        slope = np.polyfit(np.log(xs), np.log(sup_ratio), 1)
        out["p_fitted"] = float(slope[0])
        out["c3_hat"] = float(np.max(sup_ratio / xs ** slope[0]))
        out["high_xi_range"] = (float(xs.min()), float(xs.max()))

    # assembled bound versus the measured total, pointwise in time
    bounds = np.zeros(len(exp.times))
    data_w = w * amp0**2
    if "c1_hat" in out and np.any(low):
        B = (out["c1_hat"] ** 2
             * np.exp(-2.0 * out["c2_hat"] * np.outer(exp.times, exp.grid**2))
             * data_w[None, :])
        bounds += np.trapezoid(np.where(low, B, 0.0), exp.grid, axis=1)
    if "c5_hat" in out and np.any(mid):
        growth = (1.0 + np.outer(exp.times**m, np.abs(exp.grid) ** (2 * m))
                  if m > 0 else np.ones((len(exp.times), len(exp.grid))))
        B = (out["c5_hat"] ** 2 * growth**2
             * np.exp(-2.0 * cert.gap * exp.times)[:, None] * data_w[None, :])
        bounds += np.trapezoid(np.where(mid, B, 0.0), exp.grid, axis=1)
    if "p_fitted" in out and np.any(high):
        xs_all = np.where(high, np.abs(exp.grid), 1.0)
        B = (out["c3_hat"] ** 2 * xs_all[None, :] ** (2 * out["p_fitted"])
             * np.exp(-2.0 * c4_hat * np.outer(exp.times, xs_all ** float(-q)))
             * data_w[None, :])
        bounds += np.trapezoid(np.where(high, B, 0.0), exp.grid, axis=1)

    dominated = bounds >= I_total * (1.0 - 1e-9)
    if not np.all(dominated):
        i = int(np.argmin(bounds - I_total))
        out["inconsistency"] = {"t": float(exp.times[i]),
                                "bound": float(bounds[i]),
                                "measured": float(I_total[i])}
    out["bound_dominates"] = bool(np.all(dominated))
    out["I_low"] = I_low
    out["I_mid"] = I_mid
    out["I_high"] = I_high
    out["I_total"] = I_total
    out["times"] = exp.times
    return out


def optimality_probe(params: SystemParams, xi_grid=None,
                     seed: int = 11) -> dict:
    """Compare the Lyapunov-certified decay rate against the slowest branch.

    Runs both pipelines independently: the energy route (searched constants,
    trajectory audit, Gronwall rate c3 * rho(xi)) and the spectral route
    (empirical per-frequency operator-norm rate, which converges to
    -2 max Re lambda(i xi)).  Reports the pointwise ratio of the two rates
    over the grid; bounded ratios mean the energy method captures the true
    decay shape.
    """
    if params.gamma1 <= 0.0 or params.gamma2 <= 0.0:
        raise RegimeError("optimality probe requires both dampings")
    if xi_grid is None:
        xi_grid = np.geomspace(0.01, 100.0, 25)
    xi_grid = np.asarray(xi_grid, dtype=float)

    consts = search_constants(params)
    audit = audit_inequality(params, consts, xi=[0.1, 1.0, 10.0], n_random=32)
    c1, c2 = sandwich_fit(params, consts, xi=[0.1, 1.0, 10.0], n_states=2000, seed=seed)
    c3 = max(audit.c0_feasible, 0.0) / c2

    emp = fit_pointwise_rate(params, xi_grid)
    spectral_rate = -2.0 * eigenvalues_batch(params, xi_grid)[0].real.max(axis=1)

    rho = xi_grid**2 / lyapunov_sigma(params, xi_grid)[1]
    lyap_rate = c3 * rho
    ratio_emp = emp["rate"] / spectral_rate
    ratio_lyap = lyap_rate / spectral_rate
    return {
        "xi": xi_grid,
        "empirical_rate": emp["rate"],
        "spectral_rate": spectral_rate,
        "lyapunov_rate": lyap_rate,
        "c3": c3,
        "ratio_empirical": ratio_emp,
        "ratio_lyapunov": ratio_lyap,
        "ratio_empirical_bounds": (float(ratio_emp.min()), float(ratio_emp.max())),
        "ratio_lyapunov_bounds": (float(ratio_lyap.min()), float(ratio_lyap.max())),
    }
