"""Fourier-side Lyapunov functionals and numerical audits of their decay law.

For both dampings active the energy E_hat = |U_hat|^2 / 2 dissipates only
through the y and eta components.  Three auxiliary functionals F, K, P
(cross terms chosen so their time derivatives produce the missing
|z|^2, |v|^2, |phi|^2, |u|^2 terms) combine into

    L1 = d0 (1 + xi^2) E_hat + d1 F + d2 K + P          (a = 1)
    L2 = d0 (1 + xi^2 + xi^4) E_hat + d1 F + d2 K + P   (a != 1)

which satisfy d/dt L1 + c0 xi^2 E_hat <= 0, respectively
d/dt L2 + c4 xi^2/(1+xi^2+xi^4) E_hat <= 0, once the weights are fixed in
the documented order.  The audit takes dL/dt in closed form: the energy
term by the dissipation identity, d1 F + d2 K + P (a real quadratic form G)
by polarization, dG/dt = (G(U + Phi U) - G(U - Phi U))/2.

Every helper constant C(.) below comes from the elementary bound
|x y| <= eps x^2 + y^2/(4 eps); the full bookkeeping is in
``_constants_ledger`` so the audit can point at the binding term when a
hand-tuned weight fails.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core_model import SystemParams
from .errors import PreconditionError, RegimeError
from .propagator import FourierState, SymbolPropagator

__all__ = [
    "LyapunovConstants",
    "FunctionalValues",
    "eval_functionals",
    "search_constants",
    "audit_inequality",
    "AuditReport",
    "sandwich_fit",
    "gronwall_check",
    "required_d0",
    "lyapunov_sigma",
]

#: the audit's first sample time, shared by every frequency
_T_FIRST = 2e-3


@dataclass(frozen=True)
class LyapunovConstants:
    d0: float
    d1: float
    d2: float
    eps1: float
    eps1p: float
    eps2: float
    eps2p: float
    eps3: float
    eps4: float

    def ordering_violations(self, params: SystemParams) -> list[str]:
        """The selection-order constraints; empty list means admissible."""
        a, k, l = params.a, params.k, params.l
        ledger = _constants_ledger(params, self)
        out = []
        if not (0 < self.eps1 < k):
            out.append(f"eps1 must lie in (0, k): {self.eps1} vs k={k}")
        if not (0 < self.eps2 < a * a * l * l):
            out.append(f"eps2 must lie in (0, a^2 l^2): {self.eps2}")
        if not (0 < self.eps3 < 1):
            out.append(f"eps3 must lie in (0, 1): {self.eps3}")
        if not (0 < self.eps4 < l * l):
            out.append(f"eps4 must lie in (0, l^2): {self.eps4}")
        if not self.d2 * (k - self.eps1) > ledger["C_P2"]:
            out.append("d2 (k - eps1) must exceed C_P2 = 2 (k l)^2 / eps4")
        # d1/2 must beat the xi^2 |v|^2 loss of the P-identity (the other
        # half of the F budget absorbs the gamma1 cross term)
        if not self.d1 > max(2.0, self.d2 * ledger["C_K2"] / (a * a * l * l - self.eps2)):
            out.append("d1 must exceed max(2, d2 C_K2 / (a^2 l^2 - eps2))")
        if not (0 < self.eps1p < (1.0 - self.eps3) / self.d2):
            out.append("eps1p must lie in (0, (1 - eps3)/d2)")
        return out


def _constants_ledger(params: SystemParams, c: LyapunovConstants) -> dict:
    """Every Young-inequality constant, keyed by the estimate it closes.

    C_F   : F-identity residual against (1 + xi^2)(|y|^2 + |eta|^2)   (a = 1)
    C_Fq  : same against (1 + xi^2 + xi^4), including the two a != 1 terms
    C_K   : K-identity residual against (1 + xi^2)(|y|^2 + |eta|^2)
    C_K2  : K-identity cost on xi^2 |z|^2
    C_P   : P-identity residual against |y|^2 + |eta|^2
    C_P2  : P-identity cost on xi^2 |phi|^2
    """
    a, k, l = params.a, params.k, params.l
    g1, g2 = params.gamma1, params.gamma2
    e1, e1p, e2, e2p, e3, e4 = c.eps1, c.eps1p, c.eps2, c.eps2p, c.eps3, c.eps4

    # the F-identity carries gamma1 xi^2 Re(v conj(y)) (the damping term of
    # y_t against the -xi^2 Re(v conj(y)) block); half of the xi^2 |v|^2
    # budget absorbs it, putting gamma1^2/2 onto the |y|^2 side
    C_F_y = a * a * l * l + 1.0 + (a * l * l * g1) ** 2 / (2.0 * e2) + g1 * g1 / 2.0
    C_F_eta = (g2 * a * l) ** 2 / (2.0 * e2)
    C_F = max(C_F_y, C_F_eta)
    # a != 1 extras: |1-a^2| l xi^2 |y||eta| and |a^2-1| |xi|^3 |u||y|
    extra = abs(1.0 - a * a) * l / 2.0
    C_Fq = max(C_F_y + extra + (a * a - 1.0) ** 2 / (4.0 * e2p if e2p > 0 else np.inf),
               C_F_eta + extra)

    C_K_eta = k + k * l / 2.0 + (l * k) ** 2 / (2.0 * e1p) + 3.0 * g2 * g2 / (4.0 * e1)
    C_K_y = k * l / 2.0 + (l * l * k) ** 2 / (2.0 * e1p) + 3.0 * (l * g1) ** 2 / (4.0 * e1)
    C_K = max(C_K_eta, C_K_y)
    C_K2 = 3.0 * (l * a) ** 2 / (4.0 * e1)

    C_P_y = 1.0 / (4.0 * e3) + l / 2.0
    C_P_eta = l * l + l / 2.0 + (l * g2) ** 2 / (2.0 * e4)
    C_P = max(C_P_y, C_P_eta)
    C_P2 = 2.0 * (k * l) ** 2 / e4
    return {"C_F": C_F, "C_Fq": C_Fq, "C_K": C_K, "C_K2": C_K2,
            "C_P": C_P, "C_P2": C_P2}


def search_constants(params: SystemParams, margin: float = 2.0) -> LyapunovConstants:
    """Fix the weights in the canonical order, each with a safety margin.

    Order: eps1..eps4 at the midpoints of their admissible intervals, then
    d2, then d1, then eps1p (and eps2p for a != 1), finally d0 large enough
    that the combined damping dominates both the differential inequality and
    the sandwich equivalence with (1 + xi^2) E_hat.
    """
    if params.gamma1 <= 0.0 or params.gamma2 <= 0.0:
        raise RegimeError("constant search requires gamma1 > 0 and gamma2 > 0")
    if params.l <= 0.0:
        raise RegimeError("constant search infeasible: eps4 < l^2 needs l > 0")
    a, k, l = params.a, params.k, params.l
    g_min = min(params.gamma1, params.gamma2)

    eps1 = k / 2.0
    eps2 = a * a * l * l / 2.0
    eps3 = 0.5
    eps4 = l * l / 2.0

    half = LyapunovConstants(d0=1, d1=1, d2=1, eps1=eps1, eps1p=1.0,
                             eps2=eps2, eps2p=0.0, eps3=eps3, eps4=eps4)
    led = _constants_ledger(params, half)
    d2 = margin * led["C_P2"] / (k - eps1)
    d1 = margin * max(2.0, d2 * led["C_K2"] / (a * a * l * l - eps2))
    eps1p = (1.0 - eps3) / (margin * d2)
    use_l1 = lyapunov_sigma(params, 0.0)[0] == "L1"
    eps2p = 0.0 if use_l1 else (1.0 - eps3) / (2.0 * margin * d1)

    full = LyapunovConstants(d0=1, d1=d1, d2=d2, eps1=eps1, eps1p=eps1p,
                             eps2=eps2, eps2p=eps2p, eps3=eps3, eps4=eps4)
    led = _constants_ledger(params, full)
    CF = led["C_F"] if use_l1 else led["C_Fq"]
    d0_diss = margin * (d1 * CF + d2 * led["C_K"] + led["C_P"]) / g_min
    # sandwich: |d1 F + d2 K + P| <= C_eq (1 + xi^2) E (a = 1); require d0 > 2 C_eq
    C_eq = (d1 * (a * l * l + a * l + 1.0 + a)
            + d2 * (1.0 + l)
            + (1.0 + l + l * params.gamma2))
    d0 = max(d0_diss, margin * C_eq)
    out = LyapunovConstants(d0=d0, d1=d1, d2=d2, eps1=eps1, eps1p=eps1p,
                            eps2=eps2, eps2p=eps2p, eps3=eps3, eps4=eps4)
    violations = out.ordering_violations(params)
    if violations:
        raise RegimeError("constant search failed; binding constraints: "
                          + "; ".join(violations))
    return out


@dataclass(frozen=True)
class FunctionalValues:
    F: float
    K: float
    P: float
    L1: float
    L2: float
    E_hat: float


def lyapunov_sigma(params: SystemParams, xi):
    """("L1", 1 + xi^2) for a = 1, ("L2", 1 + xi^2 + xi^4) otherwise: the
    functional of the decay law and its size, L ~ sigma(xi) E_hat."""
    xi = np.asarray(xi, dtype=float)
    if abs(params.a - 1.0) < 1e-12:
        return "L1", 1.0 + xi**2
    return "L2", 1.0 + xi**2 + xi**4


def _cross_terms(values: np.ndarray, xi, params: SystemParams):
    """F, K, P for values of shape (..., 6); xi broadcasts against (...)."""
    a, l = params.a, params.l
    v, u, z, y, phi, eta = (values[..., i] for i in range(6))

    def re_i_xy(x, ybar_of):
        return np.real(1j * xi * x * np.conj(ybar_of))

    F = (l * a * (l * re_i_xy(y, z) + re_i_xy(z, eta))
         - xi**2 * (np.real(v * np.conj(y)) + a * np.real(np.conj(z) * u)))
    K = np.real(-1j * xi * phi * np.conj(eta)) + l * np.real(-1j * xi * y * np.conj(phi))
    P = np.real(1j * xi * v * np.conj(u)) - l * np.real(v * np.conj(eta))
    return F, K, P


def _rates(U: np.ndarray, PhiU: np.ndarray, xi, params: SystemParams):
    """dE_hat/dt, dF/dt, dK/dt, dP/dt at states U (..., 6) with dU/dt = PhiU:
    the dissipation identity, then for each real quadratic form
    Q(U) = Re U* M U (M Hermitian) dQ/dt = (Q(U + PhiU) - Q(U - PhiU))/2."""
    dE = -(params.gamma1 * np.abs(U[..., 3]) ** 2 + params.gamma2 * np.abs(U[..., 5]) ** 2)
    plus, minus = _cross_terms(U + PhiU, xi, params), _cross_terms(U - PhiU, xi, params)
    return (dE,) + tuple(0.5 * (p - m) for p, m in zip(plus, minus))


def _functionals_arrays(values: np.ndarray, xi, params: SystemParams,
                        consts: LyapunovConstants):
    """Vectorized F, K, P, L1, L2, E for values of shape (..., 6)."""
    F, K, P = _cross_terms(values, xi, params)
    E = 0.5 * np.sum(np.abs(values) ** 2, axis=-1)
    L1 = consts.d0 * (1.0 + xi**2) * E + consts.d1 * F + consts.d2 * K + P
    L2 = consts.d0 * (1.0 + xi**2 + xi**4) * E + consts.d1 * F + consts.d2 * K + P
    return F, K, P, L1, L2, E


def _unit_states(rng: np.random.Generator, n_freq: int, n_states: int) -> np.ndarray:
    """(n_freq, n_states, 6) random unit states, real parts drawn first."""
    draw = rng.normal(size=(n_freq, 2, n_states, 6))
    states = draw[:, 0] + 1j * draw[:, 1]
    states /= np.linalg.norm(states, axis=-1, keepdims=True)
    return states


def eval_functionals(state: FourierState, params: SystemParams,
                     consts: LyapunovConstants, xi: float) -> FunctionalValues:
    """Evaluate the functionals at one on-grid frequency of a state."""
    idx = np.flatnonzero(np.isclose(state.grid, xi, rtol=0, atol=1e-12))
    if len(idx) != 1:
        raise PreconditionError(f"xi={xi} is not on the state grid")
    vals = state.values[idx[0]]
    F, K, P, L1, L2, E = _functionals_arrays(vals, xi, params, consts)
    return FunctionalValues(F=float(F), K=float(K), P=float(P),
                            L1=float(L1), L2=float(L2), E_hat=float(E))


@dataclass(frozen=True)
class AuditReport:
    params: SystemParams
    constants: LyapunovConstants
    frequencies: np.ndarray
    weight_kind: str
    max_violation: float
    violation_count: int
    c0_feasible: float
    per_frequency_violation: np.ndarray
    n_states: int
    horizon: float
    slack: float


def audit_inequality(params: SystemParams, consts: LyapunovConstants,
                     xi, horizon: float = 5.0, n_random: int = 100,
                     seed: int = 123, slack: float = 1e-10) -> AuditReport:
    """Trajectory audit of the decay inequality at the given frequencies.

    Evolves the 6 basis vectors plus ``n_random`` random unit states exactly
    by one propagator, chunk by chunk, takes dL/dt in closed form
    (:func:`_rates`) at 24 times from 2e-3 to ``horizon``, and reports the
    largest violation of dL/dt + c * weight * E_hat <= 0 (at c = 0, against
    the absolute slack; weight xi^2 for L1, xi^2 / sigma for L2) together
    with the maximal feasible c.
    """
    if params.gamma1 <= 0.0 or params.gamma2 <= 0.0:
        raise RegimeError("audit requires gamma1 > 0 and gamma2 > 0")
    violations = consts.ordering_violations(params)
    if violations:
        raise RegimeError("constants violate the selection order: "
                          + "; ".join(violations))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.size == 0 or n_random < 0 or not horizon > _T_FIRST:
        raise PreconditionError(f"audit needs frequencies, n_random >= 0 and horizon > "
                                f"{_T_FIRST}; got {xi.size} frequencies, n_random = "
                                f"{n_random}, horizon = {horizon}")
    if not np.any(xi != 0.0):
        raise PreconditionError("every audited frequency is 0, where the weight "
                                "vanishes and bounds no decay rate c")
    states = np.concatenate([np.eye(6, dtype=complex),
                             _unit_states(np.random.default_rng(seed), 1, n_random)[0]])
    kind, sigma = lyapunov_sigma(params, xi)
    weight = xi**2 if kind == "L1" else xi**2 / sigma
    prop = SymbolPropagator(params, xi)
    block = np.broadcast_to(states.T, (len(xi), 6, len(states)))
    per_freq = np.empty(len(xi))
    count, c0 = 0, np.inf
    for rows, U in prop.states(block, np.linspace(_T_FIRST, horizon, 24)):
        PhiU = (prop.Phi[rows] @ U.reshape(len(rows), 6, -1)).reshape(U.shape)
        U, PhiU = np.moveaxis(U, 1, -1), np.moveaxis(PhiU, 1, -1)   # (k, c, nt, 6)
        at = (rows, None, None)
        dE, dF, dK, dP = _rates(U, PhiU, xi[at], params)
        dL = consts.d0 * sigma[at] * dE + consts.d1 * dF + consts.d2 * dK + dP
        per_freq[rows] = dL.max(axis=(1, 2))
        count += int(np.count_nonzero(dL > slack))
        # xi = 0 (weight 0) and vanished states bound no c
        wE = weight[at] * (0.5 * np.sum(np.abs(U) ** 2, axis=-1))
        good = wE > 1e-300
        c0 = min(c0, float(np.min(-dL[good] / wE[good], initial=np.inf)))

    return AuditReport(
        params=params, constants=consts, frequencies=xi, weight_kind=kind,
        max_violation=float(per_freq.max()), violation_count=count,
        c0_feasible=float(c0), per_frequency_violation=per_freq,
        n_states=len(states), horizon=horizon, slack=slack)


def sandwich_fit(params: SystemParams, consts: LyapunovConstants,
                 xi, n_states: int = 10_000, seed: int = 7):
    """Empirical constants of c1 sigma(xi) E <= L <= c2 sigma(xi) E.

    sigma and the functional come from :func:`lyapunov_sigma`.  Returns
    (c1, c2) fitted over ``n_states`` random unit states per frequency.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    states = _unit_states(np.random.default_rng(seed), len(xi), n_states)
    kind, sigma = lyapunov_sigma(params, xi[:, None])
    _, _, _, L1, L2, E = _functionals_arrays(states, xi[:, None], params, consts)
    ratio = (L1 if kind == "L1" else L2) / (sigma * E)
    return float(ratio.min(initial=np.inf)), float(ratio.max(initial=-np.inf))


def gronwall_check(params: SystemParams, consts: LyapunovConstants,
                   xi, t_grid, c0: float, seed: int = 5):
    """Check E(xi, t) <= (c2/c1) exp(-c3 rho(xi) t) E(xi, 0) over all data.

    c3 = c0 / c2 with (c1, c2) the fitted sandwich constants; rho is
    xi^2 / sigma(xi) (:func:`lyapunov_sigma`).  The largest E(xi, t)/E(xi, 0)
    over all data is ||e^{t Phi(i xi)}||_2^2, so no state is sampled.  Returns
    the maximal ratio of that to the allowed energy ratio (<= 1 means the
    bound holds) together with (c1, c2, c3).
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    t_grid = np.asarray(t_grid, dtype=float)
    c1, c2 = sandwich_fit(params, consts, xi, seed=seed)
    if c1 <= 0:
        raise RegimeError(f"sandwich lower constant is not positive (c1={c1}); "
                          "d0 too small for equivalence")
    c3 = c0 / c2
    growth = SymbolPropagator(params, xi).operator_norms(t_grid) ** 2   # (nxi, nt)
    rho = xi**2 / lyapunov_sigma(params, xi)[1]
    allowed = (c2 / c1) * np.exp(-c3 * rho[:, None] * t_grid)
    return float((growth / allowed).max(initial=0.0)), (c1, c2, c3)


def required_d0(params: SystemParams, lo: float = 1e-3, hi: float | None = None,
                xi=(0.1, 1.0, 10.0), horizon: float = 3.0,
                n_random: int = 24, tol: float = 0.05) -> float:
    """Minimal d0 passing the trajectory audit, found by bisection.

    All other constants stay at their searched values; only d0 varies.
    """
    base = search_constants(params)
    if hi is None:
        hi = base.d0

    def passes(d0: float) -> bool:
        rep = audit_inequality(params, replace(base, d0=d0), xi, horizon=horizon,
                               n_random=n_random)
        return rep.violation_count == 0 and rep.c0_feasible > 0

    if not passes(hi):
        raise RegimeError("searched constants fail their own audit")
    while hi / lo > 1.0 + tol:
        mid = np.sqrt(lo * hi)
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return hi
