"""Fourier-side Lyapunov functionals and numerical audits of their decay law.

For both dampings active the energy E_hat = |U_hat|^2 / 2 dissipates only
through the y and eta components.  Three auxiliary functionals F, K, P
(cross terms chosen so their time derivatives produce the missing
|z|^2, |v|^2, |phi|^2, |u|^2 terms) combine into

    L1 = d0 (1 + xi^2) E_hat + d1 F + d2 K + P          (a = 1)
    L2 = d0 (1 + xi^2 + xi^4) E_hat + d1 F + d2 K + P   (a != 1)

which satisfy d/dt L1 + c0 xi^2 E_hat <= 0, respectively
d/dt L2 + c4 xi^2/(1+xi^2+xi^4) E_hat <= 0, once the weights are fixed in
the documented order.  The audit takes dL/dt as a Hermitian form.  The
cross part d1 F + d2 K + P is Re U* M_G U, M_G polarized from the
functionals, so along U' = Phi U

    dL/dt = U* D U,   D = Phi* M_G + M_G Phi - d0 sigma diag(0,0,0,gamma1,0,gamma2),

the last term being the dissipation identity of E_hat.  On the trajectory
U(t) = E_t s, E_t = e^{t Phi}, that is s* (E_t* D E_t) s, so propagating the
6 columns of the identity serves every audited state s.

Every helper constant C(.) below comes from the elementary bound
|x y| <= eps x^2 + y^2/(4 eps); the full bookkeeping is in
``_constants_ledger`` so the audit can point at the binding term when a
hand-tuned weight fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_model import SystemParams
from .errors import PreconditionError, RegimeError
from .propagator import _CHUNK_BYTES, SymbolPropagator

__all__ = [
    "LyapunovConstants",
    "search_constants",
    "audit_inequality",
    "AuditReport",
    "sandwich_fit",
    "gronwall_check",
    "lyapunov_sigma",
]

#: the audit's first sample time, shared by every frequency
_T_FIRST = 2e-3
#: the safety factor of every weight in :func:`search_constants`
_MARGIN = 2.0
#: absolute slack of the audit's dL/dt <= 0 test
_SLACK = 1e-10


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


def search_constants(params: SystemParams) -> LyapunovConstants:
    """Fix the weights in the canonical order, each with a safety margin of 2.

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
    d2 = _MARGIN * led["C_P2"] / (k - eps1)
    d1 = _MARGIN * max(2.0, d2 * led["C_K2"] / (a * a * l * l - eps2))
    eps1p = (1.0 - eps3) / (_MARGIN * d2)
    use_l1 = lyapunov_sigma(params, 0.0)[0] == "L1"
    eps2p = 0.0 if use_l1 else (1.0 - eps3) / (2.0 * _MARGIN * d1)

    full = LyapunovConstants(d0=1, d1=d1, d2=d2, eps1=eps1, eps1p=eps1p,
                             eps2=eps2, eps2p=eps2p, eps3=eps3, eps4=eps4)
    led = _constants_ledger(params, full)
    CF = led["C_F"] if use_l1 else led["C_Fq"]
    d0_diss = _MARGIN * (d1 * CF + d2 * led["C_K"] + led["C_P"]) / g_min
    # sandwich: |d1 F + d2 K + P| <= C_eq (1 + xi^2) E (a = 1); require d0 > 2 C_eq
    C_eq = (d1 * (a * l * l + a * l + 1.0 + a)
            + d2 * (1.0 + l)
            + (1.0 + l + l * params.gamma2))
    d0 = max(d0_diss, _MARGIN * C_eq)
    out = LyapunovConstants(d0=d0, d1=d1, d2=d2, eps1=eps1, eps1p=eps1p,
                            eps2=eps2, eps2p=eps2p, eps3=eps3, eps4=eps4)
    violations = out.ordering_violations(params)
    if violations:
        raise RegimeError("constant search failed; binding constraints: "
                          + "; ".join(violations))
    return out


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


def _cross_matrix(xi: np.ndarray, params: SystemParams,
                  consts: LyapunovConstants) -> np.ndarray:
    """M_G, shape (nxi, 6, 6) Hermitian, with Re s* M_G s = d1 F + d2 K + P
    at every state s: the functional is polarized on the states e_i,
    e_i + e_j and e_i + i e_j, whose values are M_ii, M_ii + M_jj + 2 Re M_ij
    and M_ii + M_jj - 2 Im M_ij."""
    eye = np.eye(6)
    i, j = np.triu_indices(6, 1)
    probes = np.concatenate([eye, eye[i] + eye[j], eye[i] + 1j * eye[j]])
    F, K, P = _cross_terms(probes, xi[:, None], params)
    G = consts.d1 * F + consts.d2 * K + P
    diag = G[:, :6]
    both = diag[:, i] + diag[:, j]
    M = np.zeros((len(xi), 6, 6), dtype=complex)
    M[:, np.arange(6), np.arange(6)] = diag
    M[:, i, j] = 0.5 * ((G[:, 6:21] - both) - 1j * (G[:, 21:] - both))
    M[:, j, i] = M[:, i, j].conj()
    return M


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
                     seed: int = 123) -> AuditReport:
    """Trajectory audit of the decay inequality at the given frequencies.

    Audits the 6 basis vectors plus ``n_random`` random unit states s at 24
    times from 2e-3 to ``horizon``.  Along U = E_t s, E_t = e^{t Phi},
    dL/dt = s* (E_t* D E_t) s and E_hat = s* (E_t* E_t / 2) s (module
    docstring), so one propagator carries only the 6 columns of the
    identity, chunk by chunk, and each chunk evaluates both forms at every
    state by one real matmul against the outer products conj(s_a) s_b.
    Reports the largest violation of dL/dt + c * weight * E_hat <= 0 (at
    c = 0, against the absolute slack 1e-10; weight xi^2 for L1, xi^2 / sigma
    for L2) together with the maximal feasible c.  Samples with
    weight * E_hat <= 1e-300, as at xi = 0, bound no c; when no sample does,
    the audit is refused.
    """
    if params.gamma1 <= 0.0 or params.gamma2 <= 0.0:
        raise RegimeError("audit requires gamma1 > 0 and gamma2 > 0")
    violations = consts.ordering_violations(params)
    if violations:
        raise RegimeError("constants violate the selection order: "
                          + "; ".join(violations))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    # NaN and Infinity fail the horizon bound too
    if xi.size == 0 or n_random < 0 or not _T_FIRST < horizon < np.inf:
        raise PreconditionError(f"audit needs frequencies, n_random >= 0 and a finite "
                                f"horizon > {_T_FIRST}; got {xi.size} frequencies, "
                                f"n_random = {n_random}, horizon = {horizon}")
    # first, so that its scale cap refuses a |xi| whose sigma would overflow
    prop = SymbolPropagator(params, xi)
    kind, sigma = lyapunov_sigma(params, xi)
    weight = xi**2 if kind == "L1" else xi**2 / sigma
    D = _cross_matrix(xi, params, consts) @ prop.Phi
    D += D.conj().swapaxes(-1, -2)
    D[:, 3, 3] -= consts.d0 * sigma * params.gamma1
    D[:, 5, 5] -= consts.d0 * sigma * params.gamma2
    states = np.concatenate([np.eye(6, dtype=complex),
                             _unit_states(np.random.default_rng(seed), 1, n_random)[0]])
    # Re s* Q s = sum_ab Re(Q_ab conj(s_a) s_b) is the real dot product of
    # Q and s_a conj(s_b), both viewed as (re, im) pairs
    pairs = (states[:, :, None] * states[:, None, :].conj()).reshape(-1, 36).view(float).T
    times = np.linspace(_T_FIRST, horizon, 24)
    # frequencies per evaluation: it makes about eight (k, times, states)
    # float arrays, each held to an eighth of the propagator's chunk size
    step = max(1, _CHUNK_BYTES // (64 * len(times) * len(states)))
    block = np.broadcast_to(np.eye(6, dtype=complex), (len(xi), 6, 6))
    per_freq = np.empty(len(xi))
    count, c0 = 0, np.inf
    for chunk, U in prop.states(block, times):
        for lo in range(0, len(chunk), step):
            rows = chunk[lo:lo + step]
            Et = np.moveaxis(U[lo:lo + step], -1, 1)          # (k, nt, 6, 6)
            EtH = Et.conj().swapaxes(-1, -2)
            forms = np.stack([EtH @ D[rows, None] @ Et, 0.5 * (EtH @ Et)], axis=2)
            values = forms.reshape(*forms.shape[:3], 36).view(float) @ pairs
            dL, E = values[:, :, 0], values[:, :, 1]          # (k, nt, states)
            per_freq[rows] = dL.max(axis=(1, 2))
            count += int(np.count_nonzero(dL > _SLACK))
            # xi = 0 (weight 0) and vanished states bound no c
            wE = weight[rows, None, None] * E
            good = wE > 1e-300
            c0 = min(c0, float(np.min(-dL[good] / wE[good], initial=np.inf)))
    if c0 == np.inf:
        raise PreconditionError("no audited sample bounds a decay rate c: the weight "
                                f"{'xi^2' if kind == 'L1' else 'xi^2 / sigma'} times E_hat "
                                "is at most 1e-300 at every frequency, time and state")

    return AuditReport(
        params=params, constants=consts, frequencies=xi, weight_kind=kind,
        max_violation=float(per_freq.max()), violation_count=count,
        c0_feasible=float(c0), per_frequency_violation=per_freq,
        n_states=len(states), horizon=horizon, slack=_SLACK)


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
                   xi, t_grid, c0: float):
    """Check E(xi, t) <= (c2/c1) exp(-c3 rho(xi) t) E(xi, 0) over all data.

    c3 = c0 / c2 with (c1, c2) the fitted sandwich constants; rho is
    xi^2 / sigma(xi) (:func:`lyapunov_sigma`).  The largest E(xi, t)/E(xi, 0)
    over all data is ||e^{t Phi(i xi)}||_2^2, so no state is sampled.  Returns
    the maximal ratio of that to the allowed energy ratio (<= 1 means the
    bound holds) together with (c1, c2, c3).
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    t_grid = np.asarray(t_grid, dtype=float)
    c1, c2 = sandwich_fit(params, consts, xi, seed=5)
    if c1 <= 0:
        raise RegimeError(f"sandwich lower constant is not positive (c1={c1}); "
                          "d0 too small for equivalence")
    c3 = c0 / c2
    growth = SymbolPropagator(params, xi).operator_norms(t_grid) ** 2   # (nxi, nt)
    rho = xi**2 / lyapunov_sigma(params, xi)[1]
    allowed = (c2 / c1) * np.exp(-c3 * rho[:, None] * t_grid)
    return float((growth / allowed).max(initial=0.0)), (c1, c2, c3)
