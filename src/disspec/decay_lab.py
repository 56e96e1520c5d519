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

The quadrature is a weighted sum over the grid that the propagator reduces
while it evolves (:func:`propagator.sobolev_norms`): the derivative orders
of ``run_decay``, the packet norm and the synthesis's four regional
integrals are weight columns of one pass, and no (frequencies, times)
density is held.

Grids are symmetric with geometric spacing near zero; all randomness is
seeded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core_model import SystemParams, symbol_stack
from .errors import PreconditionError, RegimeError, SolverError
from .lyapunov import audit_inequality, lyapunov_sigma, sandwich_fit, search_constants
from .propagator import (FourierState, SymbolPropagator, _sobolev_weights,
                         _trapezoid_weights, default_grid, sobolev_norms)
from .spectral import (_cluster_tags, eigenvalues_batch, gap_scan,
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

    def __post_init__(self):
        # NaN passes the schema's exclusiveMinimum and would yield NaN data
        if not (np.isfinite(self.width) and np.isfinite(self.center)):
            raise PreconditionError(f"profile width and center must be finite, got "
                                    f"width={self.width!r}, center={self.center!r}")

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


def _conservative_vector(params: SystemParams, xi) -> np.ndarray:
    """Unit eigenvectors of the purely imaginary eigenvalue (gamma2 = 0).

    The undamped pair sits at +- i k sqrt(l^2 + xi^2); two batched
    inverse-iteration steps from a fixed start vector at the polished
    eigenvalue recover its eigenvector to solver precision.  Returns one
    row per frequency of ``xi``: shape (n, 6).
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    lam_target = 1j * params.k * np.sqrt(params.l**2 + xi**2)
    spec, _ = eigenvalues_batch(params, xi)
    lam = np.take_along_axis(
        spec, np.argmin(np.abs(spec - lam_target[:, None]), axis=1)[:, None], axis=1)
    M = symbol_stack(params, xi) - (lam + 1e-13 * (1.0 + np.abs(lam)))[..., None] * np.eye(6)
    vec = np.full((len(xi), 6, 1), 1.0 + 0.0j) / np.sqrt(6.0)
    for _ in range(2):
        vec = np.linalg.solve(M, vec)
        vec /= np.linalg.norm(vec, axis=1, keepdims=True)
    return vec[..., 0]


def build_initial_state(params: SystemParams, profile: Profile,
                        grid: np.ndarray) -> FourierState:
    """Assemble the initial FourierState for a profile (Hermitian for real data)."""
    amp = profile.amplitude(grid)
    if profile.kind == "conservative_mode":
        if params.gamma2 != 0.0:
            raise RegimeError("conservative_mode data requires gamma2 = 0")
        values = np.zeros((len(grid), 6), dtype=complex)
        sig = amp > 1e-14 * amp.max()
        pos = np.flatnonzero(sig & (grid >= 0))
        values[pos] = amp[pos, None] * _conservative_vector(params, grid[pos])
        # Hermitian completion on the negative half: the nearest grid point
        # to -xi (ties to the lower index) carries the conjugate
        neg = np.flatnonzero(sig & (grid < 0))
        right = np.clip(np.searchsorted(grid, -grid[neg]), 1, len(grid) - 1)
        left = right - 1
        mirror = np.where(np.abs(grid[left] + grid[neg]) <= np.abs(grid[right] + grid[neg]),
                          left, right)
        values[neg] = np.conj(values[mirror])
    else:
        values = amp[:, None] * profile.vector()[None, :].astype(complex)
    return FourierState(params=params, grid=np.asarray(grid, float), values=values)


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


def run_decay(exp: Experiment,
              fit_window: tuple[float, float] | None = None) -> dict[int, DecayFit]:
    """Evolve the experiment and fit one power law per derivative order.

    The default window is the last decade of the sampled times.  A relative
    norm increase beyond 1e-6 is a :class:`SolverError`, a numerical
    breakdown (each Fourier mode's modulus is provably non-increasing).
    """
    params = exp.params
    state0 = build_initial_state(params, exp.profile, exp.grid)
    prop = SymbolPropagator(params, exp.grid)
    squared = sobolev_norms(prop, state0.values, exp.times, exp.j_orders)

    if fit_window is None:
        fit_window = (exp.times[-1] / 10.0, exp.times[-1])

    fits: dict[int, DecayFit] = {}
    for j, norms in zip(exp.j_orders, np.sqrt(squared)):
        increase = np.max(norms[1:] / np.maximum(norms[:-1], 1e-300)) - 1.0
        if increase > 1e-6:
            raise SolverError(
                f"norm for j={j} increased by {increase:.2e} along the run; "
                "mode-wise moduli are non-increasing, so this is an inconsistency")
        exponent, amplitude, resid = _fit_power_law(exp.times, norms, fit_window)
        fits[j] = DecayFit(j=j, exponent=exponent, amplitude=amplitude,
                           fit_window=fit_window, max_residual=resid,
                           norms=norms, times=exp.times)
    return fits


def fit_pointwise_rate(params: SystemParams, xi_grid, t_factor: float = 20.0):
    """Worst-case per-frequency decay rates in operator norm.

    rate(xi) = -log ||e^{Phi(i xi) T}||_2^2 / T with T = t_factor divided by
    the expected rate shape, capped at 1e6 (so every frequency is measured
    deep in its own decay, not in the transient).  Returns a dict with the
    rates, the reference shape values, and the fitted proportionality
    interval [c, C].

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
    T = np.minimum(t_factor / np.maximum(shp, 1e-12), 1e6)
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
    log-interpolates the first crossing of ``level`` by the squared norm,
    relative to its value at t = 1e-2, on ``np.geomspace(1e-2, t_max,
    n_times)``.  For one mild damping the decay time grows like xi0^2
    (regularity loss); when every branch keeps a uniform spectral gap it is
    xi0-independent.

    e^{t Phi} is a contraction (sym(L) >= 0), so the norm is nonincreasing
    in t and the crossing is bracketed rather than scanned: the norm is
    evaluated at every s-th time, s = isqrt(n_times), and at the last, and
    then only inside the first stride whose right end is at or below
    ``level``; about 2 sqrt(n_times) of the times, and the same first
    crossing as at every time.  An evaluated norm above an earlier one by
    more than 1e-12 of the start breaks the contraction and is a
    :class:`SolverError`.  ``n_times < 2`` and ``t_max <= 1e-2`` (a grid
    that does not run forward) are refused, and so is a norm that is still
    above ``level`` at ``t_max``.
    """
    if xi0 <= 0:
        raise PreconditionError("packet center must be positive")
    if not (isinstance(n_times, (int, np.integer)) and n_times >= 2):
        raise PreconditionError(f"n_times must be an integer >= 2, got {n_times!r}")
    if not t_max > 1e-2:
        raise PreconditionError(f"t_max must exceed the first time 1e-2, got {t_max!r}")
    # at least +-8 standard deviations 1/width of the bump
    # exp(-((xi - xi0) width)^2 / 2); from width = sqrt 2 up the span stays
    # +-4 width, since the decay times there carry grid noise of a few 1e-6
    # that any other grid would move
    span = max(8.0 / width, 4.0 * width)
    half = np.linspace(max(xi0 - span, 0.05), xi0 + span, 161)
    grid = np.concatenate([-half[::-1], half])
    prof = Profile(kind="high_freq_packet", center=xi0, width=width,
                   component=component)
    state = build_initial_state(params, prof, grid)
    prop = SymbolPropagator(params, grid)
    times = np.geomspace(1e-2, t_max, n_times)
    n2 = np.full(n_times, np.nan)

    def evaluate(idx: np.ndarray) -> None:
        n2[idx] = sobolev_norms(prop, state.values, times[idx], (0,), check_tail=False)[0]
        seen = n2[~np.isnan(n2)]
        rise = seen - np.minimum.accumulate(seen)
        if rise.max() > 1e-12 * n2[0]:
            raise SolverError(
                f"packet norm rose by {rise.max():.3e} (start {n2[0]:.3e}) along the "
                "run; e^(t Phi) is a contraction, so this is a numerical breakdown")

    coarse = np.append(np.arange(0, n_times - 1, math.isqrt(n_times)), n_times - 1)
    evaluate(coarse)
    below = coarse[n2[coarse] / n2[0] <= level]
    if below.size == 0:
        raise PreconditionError(
            f"packet norm never reached level {level} by t={t_max}; extend t_max")
    hi = below[0]
    if hi > 0:
        # the times strictly inside the stride that ends at hi
        inside = np.arange(coarse[np.searchsorted(coarse, hi) - 1] + 1, hi)
        if inside.size:
            evaluate(inside)
    ratio = n2 / n2[0]
    i = np.flatnonzero(ratio <= level)[0]
    if i == 0:
        return float(times[0])
    # log-log interpolation of the crossing
    t1, t2 = times[i - 1], times[i]
    r1, r2 = ratio[i - 1], ratio[i]
    frac = (math.log(level) - math.log(r1)) / (math.log(r2) - math.log(r1))
    return float(math.exp(math.log(t1) + frac * (math.log(t2) - math.log(t1))))


def _floored_exp(rate: np.ndarray) -> np.ndarray:
    """e^{-rate} with the exponent floored at -700, so no constant divides by
    an underflowed zero."""
    return np.exp(np.maximum(-rate, -700.0))


def three_region_synthesis(exp: Experiment, part: FrequencyPartition,
                           ell: int = 1) -> dict:
    """Decompose the squared Sobolev norm into the three-region integrals and
    fit each region's pointwise bound ||e^{Phi(i xi) t}||_2 <= c s(|xi|, t).

    Each region has one shape s:

    * low |xi| < nu:   s = exp(-c2_hat xi^2 t)                  (constant c1_hat)
    * middle:          s = (1 + |xi|^{2m} t^m) exp(-gap t)      (constant c5_hat)
    * high |xi| > N:   s = |xi|^p exp(-c4_hat |xi|^{-q} t)      (constant c3_hat)

    gap comes from a gap certificate and m from the multiplicity scan (the
    first factor of the middle shape is exactly 1 when m = 0).  The tail
    power q is taken from the validated high-frequency table (the most
    slowly decaying branch).  Each constant is the largest
    ||e^{Phi t}||_2 / s over the region's frequencies, thinned to at most 160,
    and all times; these are operator norms, so the constants bound every
    admissible datum, not just the experiment's profile.  One propagator
    over the grid gives both the norms, evaluated only for the spectra of
    the thinned rows, and the measured integrals.  The amplification power
    p is *fitted* first, not assumed: it is the log-log slope in |xi| of
    sup_t ||e^{Phi t}||_2 / s over the high region with p = 0.  Because the
    semigroup is an exact L^2 contraction, the honest p comes out near zero;
    the report carries it as measured.

    Each region's bound term, for the experiment's first derivative order j,
    is the trapezoid of c^2 s^2 |xi|^{2j} |U_hat(0)|^2 over that region,
    taken like the measured regional integrals I_low, I_mid and I_high.  The
    assembled bound dominates the measured total by construction at every
    sampled (xi, t); the report records that verification explicitly.
    """
    params = exp.params
    if params.regime != "gamma1_zero":
        raise RegimeError("three-region synthesis covers the gamma1 = 0, gamma2 > 0 regime")
    if abs(params.stability_defect) < 1e-12:
        raise RegimeError("synthesis requires (k^2 - 1) l^2 - 1 != 0")
    j = exp.j_orders[0]
    grid, times = exp.grid, exp.times
    ax = np.abs(grid)
    masks = {"low": ax < part.nu, "mid": (ax >= part.nu) & (ax <= part.N),
             "high": ax > part.N}
    distinct = {region: np.unique(ax[mask]).size for region, mask in masks.items()}
    if min(distinct.values()) < 1 or distinct["high"] < 2:
        # an empty region bounds nothing, and fitting p takes two |xi|
        raise PreconditionError(
            f"grid leaves distinct |xi| per region {distinct} for nu={part.nu}, "
            f"N={part.N}: each region needs one and the high region two")

    # |xi|^{2j} |U_hat(0)|^2, refused up front where the weight overflows
    state0 = build_initial_state(params, exp.profile, grid)
    mass = np.sum(np.abs(state0.values) ** 2, axis=1)
    trapezoid = _trapezoid_weights(grid)
    sobolev = _sobolev_weights(grid, (j,), trapezoid * mass)[:, 0]
    data_w = sobolev * mass

    hf = high_freq_expansion(params)
    validated = [b for b in hf.high_freq if np.isfinite(b.re_coefficient)]
    slow = min(validated, key=lambda b: b.xi_power)
    q = -slow.xi_power
    c4_hat = -slow.re_coefficient  # per-branch rate constant (of xi^-q)
    # the slowest xi^2-order branch governs the uniform low-frequency rate;
    # c2_hat sits slightly inside it
    c2_hat = 0.9 * min(-b.re_coefficient for b in low_freq_expansion(params).low_freq
                       if b.xi_power == 2)
    # middle region: gap certificate + multiplicity scan
    cert = gap_scan(params, part.nu, part.N, initial_points=257)
    scan, _ = eigenvalues_batch(params, np.linspace(part.nu, part.N, 33))
    m = int(_cluster_tags(scan).max()) - 1
    p = 0.0   # the high region's amplification power, fitted below

    def shape(region: str, x: np.ndarray) -> np.ndarray:
        """The region's s(|xi|, t) at |xi| = x, as a (times, x) table."""
        if region == "low":
            return _floored_exp(c2_hat * np.outer(times, x**2))
        if region == "mid":
            growth = 1.0 + np.outer(times**m, x ** (2 * m)) if m else 1.0
            return growth * _floored_exp(cert.gap * times)[:, None]
        return x**p * _floored_exp(c4_hat * np.outer(times, x ** float(-q)))

    # one propagator over the grid: the operator norms of the thinned rows,
    # then the Plancherel sums of the data
    prop = SymbolPropagator(params, grid)
    # ||e^{Phi t}||_2 on each region thinned to at most 160 frequencies, for
    # the spectra of those rows only
    thinned = {}
    for region, mask in masks.items():
        # past 160 points the linspace steps exceed 1, so the indices are distinct
        idx = np.flatnonzero(mask)
        thinned[region] = idx[np.linspace(0, len(idx) - 1, min(len(idx), 160)).astype(int)]
    union = np.concatenate(list(thinned.values()))
    opnorm = np.empty((len(times), len(grid)))
    opnorm[:, union] = prop.operator_norms(times, rows=union).T

    out: dict = {"j": j, "ell": ell, "q_tail": q, "c4_hat": c4_hat, "c2_hat": c2_hat,
                 "gap": cert.gap, "m_detected": m}
    bounds = np.zeros(len(times))
    for region, key in (("low", "c1_hat"), ("mid", "c5_hat"), ("high", "c3_hat")):
        idx, mask = thinned[region], masks[region]
        x, nrm = ax[idx], opnorm[:, idx]
        if region == "high":
            # p first: the log-log slope in |xi| of sup_t ||e^{Phi t}||_2 / s at p = 0
            sup_ratio = np.max(nrm / shape(region, x), axis=0)
            p = float(np.polyfit(np.log(x), np.log(sup_ratio), 1)[0])
            out["p_fitted"] = p
            out["high_xi_range"] = (float(x.min()), float(x.max()))
        c = out[key] = float(np.max(nrm / shape(region, x)))
        bounds += (c**2 * shape(region, ax[mask]) ** 2 * data_w[mask]) @ trapezoid[mask]

    # measured integrals of xi^{2j} |U_hat|^2, per region and in total: four
    # weight columns of one pass of the stream
    columns = [masks["low"], masks["mid"], masks["high"], np.ones(len(grid), dtype=bool)]
    weights = np.stack([np.where(col, trapezoid * sobolev, 0.0) for col in columns], axis=1)
    sums, _, _ = prop.plancherel_sums(state0.values, times, weights)
    out["I_low"], out["I_mid"], out["I_high"], I_total = sums
    dominated = bounds >= I_total * (1.0 - 1e-9)
    if not np.all(dominated):
        i = int(np.argmin(bounds - I_total))
        out["inconsistency"] = {"t": float(times[i]),
                                "bound": float(bounds[i]),
                                "measured": float(I_total[i])}
    out["bound_dominates"] = bool(np.all(dominated))
    out["I_total"] = I_total
    out["times"] = times
    return out


def optimality_probe(params: SystemParams, xi_grid=None) -> dict:
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
    c1, c2 = sandwich_fit(params, consts, xi=[0.1, 1.0, 10.0], n_states=2000, seed=11)
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
