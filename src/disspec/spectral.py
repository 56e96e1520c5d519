"""Eigenvalues of the symbol across frequencies and their asymptotic laws.

Provides the eigenvalue solver, the low/high-frequency expansion tables of
the real parts, the Cardano classification of the cubic that governs the
zero-frequency limit when gamma1 = 0, and spectral-gap scans on
middle-frequency bands.  The gap is *sampled*: the largest Re lambda on an
adaptively refined grid, with no bound between the grid points.

The solver treats the frequency axis as a batch dimension: one call solves
a whole array of frequencies with one batched eigvals call of the real
similar symbol S^-1 Phi S, one matrix per distinct |xi|, followed by a
vectorized residual certificate and the run-time invariants (dissipativity
and the trace identity).  One frequency is a batch of one, and its row is
bitwise equal to that frequency's row of any larger batch.

S = diag(1, i, -i, 1, -i, 1) makes the symbol real at real frequencies
(:func:`core_model.real_symbol_stack`), so each spectrum is closed under
conjugation exactly, complex roots coming in pairs that are conjugate bit
for bit, which the propagator's r table exploits.

The expansion tables are *numerically grounded*: every coefficient returned
here has been validated against eigenvalue fits (see tests).  Where commonly
quoted branch tables disagree with the spectrum of the symbol itself (they
do in the degenerate equal-speed cases), the tables returned here follow
the spectrum.  The exact trace identity

    sum_j lambda_j(i xi) = -(gamma1 + gamma2)   for every xi

is the quick sanity check: the constant terms of the six branch expansions
must sum to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_model import SystemParams, char_poly_coeffs, real_symbol_stack
from .errors import (CertificateRefused, PreconditionError, RegimeError,
                     SolverError, UnsupportedRegimeError)

__all__ = [
    "BranchRate",
    "AsymptoticCoeffs",
    "CardanoClass",
    "GapCertificate",
    "eigenvalues_batch",
    "branch_continuation",
    "low_freq_expansion",
    "high_freq_expansion",
    "cardano_classify",
    "gap_scan",
]

#: speeds closer than this are treated as coincident when selecting the
#: asymptotic table (the tables change discontinuously at the coincidences)
_SPEED_TOL = 1e-9


def _putzer_order(lam: np.ndarray) -> np.ndarray:
    """Sort each row (last axis) into the fixed Putzer order."""
    idx = np.lexsort((lam.imag, -lam.real), axis=-1)
    return np.take_along_axis(lam, idx, axis=-1)


def _cluster_tags(lam: np.ndarray) -> np.ndarray:
    """Size of the cluster of each eigenvalue of each row, at relative
    tolerance 1e-7."""
    tol = 1e-7 * (1.0 + np.abs(lam))
    return np.sum(np.abs(lam[..., None, :] - lam[..., :, None]) <= tol[..., :, None],
                  axis=-1)


def _polyval_rows(coeffs: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Horner evaluation of each row's ascending coefficients at that row's
    points, with the operation order of np.polyval."""
    y = np.zeros_like(lam)
    for d in range(coeffs.shape[-1] - 1, -1, -1):
        y = y * lam + coeffs[:, d, None]
    return y


#: largest supported symbol scale |xi| max(1, a, k) + 1 + l k + gamma1 + gamma2
_SCALE_CAP = 2.0**38

#: invariant slack in units of eps * scale: the solve's worst dissipativity
#: and trace errors on random parameter sets stay near 10 of these units
_INVARIANT_ULPS = 1e4


def eigenvalues_batch(params: SystemParams, xi) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of Phi(i xi) at every frequency of ``xi`` in one solve.

    Returns ``(lam, resid)``, both of shape (n, 6): each row in Putzer
    order and its residuals |p(lambda)|.  The eigenvalues are those of the
    real similar matrix S^-1 Phi S (:func:`core_model.real_symbol_stack`),
    one batched backward-stable solve.  The spectrum depends on xi only
    through xi^2, so each distinct |xi| is solved once and rows at +-xi are
    bitwise equal; every row is closed under conjugation exactly.

    Raises :class:`SolverError` (a numerical breakdown) when any row's
    symbol scale exceeds 2^38, where the solve's absolute error eps * scale
    reaches ~1e-4 and real parts of order 1 become noise; when a residual
    exceeds 1e-8 (1 + |lambda|^6) or is not finite; or when a row breaks
    dissipativity (max Re lambda) or the trace identity
    (|sum lambda + gamma1 + gamma2|) by more than 1e4 eps * scale.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.ndim != 1 or not np.all(np.isfinite(xi)):
        raise PreconditionError(f"frequencies must be a finite 1-d array, got {xi!r}")
    u, inverse = np.unique(np.abs(xi), return_inverse=True)
    g = params.gamma1 + params.gamma2
    scale = u * max(1.0, params.a, params.k) + (1.0 + params.l * params.k + g)
    if np.any(scale > _SCALE_CAP):
        raise SolverError(f"symbol scale {scale[-1]:.3g} at |xi|={u[-1]} exceeds 2^38: "
                          "rounding (eps * scale) would drown the real parts")
    # a float result when every root of the batch is real
    lam = _putzer_order(np.linalg.eigvals(real_symbol_stack(params, u)).astype(complex))
    coeffs = char_poly_coeffs(params, 1j * u)
    resid = np.abs(_polyval_rows(coeffs, lam))
    tol = _INVARIANT_ULPS * np.finfo(float).eps * scale
    # NaN fails every check
    checks = (
        (~(resid <= 1e-8 * (1.0 + np.abs(lam) ** 6))).any(axis=1),
        ~(lam.real.max(axis=1) <= tol),
        ~(np.abs(lam.sum(axis=1) + g) <= tol),
    )
    for what, bad in zip(("residual certificate", "dissipativity", "trace identity"), checks):
        if bad.any():
            i = int(np.argmax(bad))
            raise SolverError(
                f"eigenvalue solve breaks the {what} at |xi|={u[i]} (tolerance "
                f"{tol[i]:.3g}): eigenvalues {lam[i]}, residuals {resid[i]}, "
                f"coefficients {coeffs[i]}")
    return lam[inverse], resid[inverse]


def branch_continuation(params: SystemParams, grid: np.ndarray) -> np.ndarray:
    """Eigenvalue branches over a frequency grid, continuation-matched.

    Returns an array of shape (len(grid), 6); row i holds the eigenvalues at
    grid[i], column order chosen by nearest-neighbor assignment against the
    previous row so each column is a continuous branch.
    """
    from scipy.optimize import linear_sum_assignment

    out, _ = eigenvalues_batch(params, grid)
    for i in range(1, len(out)):
        cost = np.abs(out[i - 1][:, None] - out[i][None, :])
        _, cols = linear_sum_assignment(cost)
        out[i] = out[i][cols]
    return out


@dataclass(frozen=True)
class BranchRate:
    """Leading behavior of Re(lambda) along one eigenvalue branch family.

    xi_power semantics: at low frequency, Re(lambda) ~ re_coefficient * xi**xi_power
    (xi_power = 0 means a constant limit Re = re_coefficient); at high
    frequency the same with negative powers.
    """

    label: str
    re_coefficient: float
    xi_power: int
    multiplicity: int


@dataclass(frozen=True)
class AsymptoticCoeffs:
    regime: str
    low_freq: tuple[BranchRate, ...] | None
    high_freq: tuple[BranchRate, ...] | None
    auxiliary: dict


def _abcd_constants(params: SystemParams) -> dict:
    """Constants of the linear equation fixing the second-order correction of
    the oscillatory branch pair at zero frequency (both dampings)."""
    a, k, l, g1, g2 = params.a, params.k, params.l, params.gamma1, params.gamma2
    A_ = k**2 * l**2 * (k**2 * (1 + l**2) - k**4 * l**2 + g1 * g2)
    B_ = k**3 * l**3 * (g1 * (k**2 - 1) + g2)
    C_ = 2 * k**2 * l**2 * (g1 * l**2 * (k**2 - 1) + g2 * (k**2 * l**2 - 1))
    D_ = 2 * k**3 * l**3 * (l**2 * (k**2 - 1) - 1 - g1 * g2)
    if C_ == 0.0 and D_ == 0.0:
        raise RegimeError("degenerate parameters: the branch-correction equation "
                          "has vanishing coefficients (C = D = 0)")
    beta = -(A_ + 1j * B_) / (C_ + 1j * D_)
    return {"A": A_, "B": B_, "C": C_, "D": D_, "K": A_ * C_ + B_ * D_, "beta": beta}


def _beta_delta_hat(params: SystemParams) -> tuple[float, float]:
    """Closed-form second-order corrections for gamma1 = 0 at low frequency."""
    k, l, g2 = params.k, params.l, params.gamma2
    defect = params.stability_defect
    den = 2.0 * (g2**2 * (k**2 * l**2 - 1.0) ** 2 + k**2 * l**2 * defect**2)
    beta_hat = g2 * k**2 * defect**2 / den
    delta_hat = -k * l * (g2**2 * (k**2 * l**2 - 1.0) + (k - k * (k**2 - 1.0) * l**2) ** 2) / den
    return beta_hat, delta_hat


def _minus_L_root_split(params: SystemParams) -> tuple[np.ndarray, dict]:
    """Eigenvalues of -L split into {0, +-i k l} and the remaining cubic roots.

    The cubic roots are taken from the numerically computed spectrum of -L
    (ground truth); the two printed cubic variants are evaluated against them
    for diagnostics only.
    """
    ev = eigenvalues_batch(params, [0.0])[0][0]
    kl = params.k * params.l
    known = np.array([0.0, 1j * kl, -1j * kl])
    remaining = list(ev)
    for target in known:
        i = int(np.argmin(np.abs(np.array(remaining) - target)))
        remaining.pop(i)
    roots = np.array(remaining)

    g1, g2, l = params.gamma1, params.gamma2, params.l
    # variant A: linear coefficient l^2 + 1 + gamma1*gamma2 (matches det(lambda I + L))
    pa = np.array([1.0, g1 + g2, l * l + 1.0 + g1 * g2, g1 * l * l + g2])
    # variant B: linear coefficient l^2 + 1 + gamma1 + gamma2
    pb = np.array([1.0, g1 + g2, l * l + 1.0 + g1 + g2, g1 * l * l + g2])
    ra = float(np.max(np.abs(np.polyval(pa, roots))))
    rb = float(np.max(np.abs(np.polyval(pb, roots))))
    diag = {
        "cubic_residual_product_coupling": ra,
        "cubic_residual_sum_coupling": rb,
        "cubic_variant_matched": "product_coupling" if ra <= rb else "sum_coupling",
    }
    return roots, diag


def low_freq_expansion(params: SystemParams) -> AsymptoticCoeffs:
    """Leading real-part coefficients of the six branches as xi -> 0.

    Branch families: one branch emanating from eigenvalue 0 of -L with
    Re ~ -sigma0 xi^2; a conjugate pair from +-i k l with Re ~ -Re(beta) xi^2;
    three branches from the cubic roots of -L with constant negative real
    parts.
    """
    regime = params.regime
    a, l = params.a, params.l
    g1, g2 = params.gamma1, params.gamma2
    roots, diag = _minus_L_root_split(params)
    aux: dict = dict(diag)
    aux["r_roots"] = roots

    if regime == "both_damped":
        sigma0 = a * a * l * l / (g1 * l * l + g2)
        abcd = _abcd_constants(params)
        aux.update(abcd)
        pair_coeff = -float(abcd["beta"].real)
    elif regime == "gamma1_zero":
        if abs(params.stability_defect) < 1e-12:
            raise RegimeError(
                "low-frequency expansion invalid: (k^2-1) l^2 - 1 = 0 "
                "(the oscillatory pair loses its damping at this order)")
        sigma0 = a * a * l * l / g2
        beta_hat, delta_hat = _beta_delta_hat(params)
        aux["beta_hat"] = beta_hat
        aux["delta_hat"] = delta_hat
        pair_coeff = -beta_hat
    else:
        raise RegimeError(f"low_freq_expansion requires damping regime "
                          f"both_damped or gamma1_zero, got {regime}")

    branches = (
        BranchRate("zero-branch", -sigma0, 2, 1),
        BranchRate("oscillatory-pair", pair_coeff, 2, 2),
        BranchRate("cubic-root-1", float(roots[0].real), 0, 1),
        BranchRate("cubic-root-2", float(roots[1].real), 0, 1),
        BranchRate("cubic-root-3", float(roots[2].real), 0, 1),
    )
    aux["sigma0"] = sigma0
    return AsymptoticCoeffs(regime=regime, low_freq=branches, high_freq=None, auxiliary=aux)


def high_freq_expansion(params: SystemParams) -> AsymptoticCoeffs:
    """Leading real-part behavior of the six branches as xi -> +inf.

    The table depends on which propagation speeds coincide.  All entries are
    validated against eigenvalue fits; the constant terms always sum to
    -(gamma1 + gamma2) (trace identity).

    both_damped:
      a = 1 (any k)        : Re delta_+ and Re delta_- twice each, -gamma2/2 twice,
                             with delta_+- = (-gamma1 +- sqrt(gamma1^2 - 4))/4
      a != 1, k != 1       : -kappa xi^-2 pair, -gamma1/2 pair, -gamma2/2 pair
      a != 1, k = 1        : as above with kappa replaced by gamma1/(2(a^2-1)^2)

    gamma1_zero ((k^2-1) l^2 != 1 required):
      a = k = 1            : four branches -l^2 gamma2/(4(1+gamma2^2)) xi^-2,
                             two branches -gamma2/2
      a != 1, k != 1, a != k : -l^2 gamma2/2 xi^-2 pair,
                             -l^2 gamma2/(2(a-1)^2(a+1)^2) xi^-4 pair, -gamma2/2 pair
      a != 1, k = 1        : four branches -l^2 gamma2/(2(a-1)^2(a+1)^2) xi^-4,
                             two branches -gamma2/2
      a = 1, k != 1; a = k != 1 : unsupported (no validated table)
    """
    regime = params.regime
    a, k, l = params.a, params.k, params.l
    g1, g2 = params.gamma1, params.gamma2
    aux: dict = {}

    a_is_1 = abs(a - 1.0) < _SPEED_TOL
    k_is_1 = abs(k - 1.0) < _SPEED_TOL
    a_eq_k = abs(a - k) < _SPEED_TOL

    if regime == "both_damped":
        if a_is_1:
            disc = np.sqrt(complex(g1 * g1 - 4.0))
            dplus = (-g1 + disc) / 4.0
            dminus = (-g1 - disc) / 4.0
            aux["delta_plus"] = dplus
            aux["delta_minus"] = dminus
            branches = (
                BranchRate("delta-plus-pair", float(dplus.real), 0, 2),
                BranchRate("delta-minus-pair", float(dminus.real), 0, 2),
                BranchRate("eta-damped-pair", -g2 / 2.0, 0, 2),
            )
        else:
            if k_is_1:
                kappa = g1 / (2.0 * (a * a - 1.0) ** 2)
                aux["kappa_k1_degenerate"] = True
            else:
                kappa = ((a * a - 1.0) ** 2 * l * l * g2 + g1) / (2.0 * (a * a - 1.0) ** 2)
            aux["kappa"] = kappa
            branches = (
                BranchRate("slow-pair", -kappa, -2, 2),
                BranchRate("angle-damped-pair", -g1 / 2.0, 0, 2),
                BranchRate("eta-damped-pair", -g2 / 2.0, 0, 2),
            )
    elif regime == "gamma1_zero":
        if abs(params.stability_defect) < 1e-12:
            raise RegimeError("high-frequency expansion invalid: (k^2-1) l^2 - 1 = 0")
        if a_is_1 and k_is_1:
            c_slow = l * l * g2 / (4.0 * (1.0 + g2 * g2))
            aux["c_slow"] = c_slow
            branches = (
                BranchRate("slow-quadruple", -c_slow, -2, 4),
                BranchRate("eta-damped-pair", -g2 / 2.0, 0, 2),
            )
        elif a_is_1:
            raise UnsupportedRegimeError(
                "gamma1 = 0 with a = 1, k != 1 has no validated high-frequency table")
        elif a_eq_k:
            raise UnsupportedRegimeError(
                "gamma1 = 0 with a = k != 1 has no validated high-frequency table "
                "(the angle pair decays faster than xi^-4, below fit resolution)")
        else:
            c34 = l * l * g2 / (2.0 * (a - 1.0) ** 2 * (a + 1.0) ** 2)
            aux["c34"] = c34
            if k_is_1:
                # the wave pair (degenerate with the longitudinal pair at
                # speed 1) also decays like xi^-4, but its constant has no
                # validated closed form; the angle pair keeps the c34 law
                aux["wave_pair_note"] = ("xi^-4 exponent verified; constant "
                                         "has no validated closed form")
                branches = (
                    BranchRate("angle-pair", -c34, -4, 2),
                    BranchRate("wave-pair-degenerate", float("nan"), -4, 2),
                    BranchRate("eta-damped-pair", -g2 / 2.0, 0, 2),
                )
            else:
                aux["c12"] = l * l * g2 / 2.0
                branches = (
                    BranchRate("wave-pair", -l * l * g2 / 2.0, -2, 2),
                    BranchRate("angle-pair", -c34, -4, 2),
                    BranchRate("eta-damped-pair", -g2 / 2.0, 0, 2),
                )
    else:
        raise RegimeError(f"high_freq_expansion requires damping regime "
                          f"both_damped or gamma1_zero, got {regime}")

    const_sum = sum(b.re_coefficient * b.multiplicity for b in branches if b.xi_power == 0)
    aux["constant_sum"] = const_sum   # must equal -(g1+g2); asserted in tests
    return AsymptoticCoeffs(regime=regime, low_freq=None, high_freq=branches, auxiliary=aux)


@dataclass(frozen=True)
class CardanoClass:
    """Discriminant classification of the cubic Z^3 + g2 Z^2 + (l^2+1) Z + g2.

    D = Q^3 + R^2 decides the root pattern: D > 0 one real root plus a
    conjugate pair, D < 0 three distinct real roots, D = 0 a repeated real
    root.  gamma_hat_1 >= gamma_hat_2 bound the three-real-root window of
    gamma2^2 and exist only for l^2 > 8.
    """

    Q: float
    R: float
    D: float
    gamma_hat_1: float | None
    gamma_hat_2: float | None
    verdict: str


def cardano_classify(params: SystemParams) -> CardanoClass:
    """Classify the zero-frequency cubic for the gamma1 = 0 regime; |D| up
    to 1e-12 of max(1, |Q|^3, R^2) counts as a repeated root."""
    if params.gamma1 != 0.0:
        raise RegimeError("cardano_classify applies to the gamma1 = 0 regime")
    l, g2 = params.l, params.gamma2
    Q = (3.0 * (l * l + 1.0) - g2 * g2) / 9.0
    R = (9.0 * g2 * (l * l + 1.0) - 2.0 * g2**3 - 27.0 * g2) / 54.0
    D = Q**3 + R**2

    gh1 = gh2 = None
    if l * l > 8.0:
        s = l * np.sqrt((l * l - 8.0) ** 3)
        gh1 = (-8.0 + 20.0 * l * l + l**4 + s) / 8.0
        gh2 = (-8.0 + 20.0 * l * l + l**4 - s) / 8.0

    scale = max(1.0, abs(Q) ** 3, R * R)
    if abs(D) <= 1e-12 * scale:
        verdict = "real_plus_double"
    elif D > 0:
        verdict = "one_real_pair_conjugate"
    else:
        verdict = "three_distinct_real"
    return CardanoClass(Q=Q, R=R, D=D, gamma_hat_1=gh1, gamma_hat_2=gh2, verdict=verdict)


@dataclass(frozen=True)
class GapCertificate:
    """Sampled uniform spectral gap on a middle-frequency band.

    gap > 0 and max Re lambda(i xi) <= -gap for every scanned xi in
    [nu, N] at the final refinement; between the scanned frequencies
    nothing is certified.
    """

    nu: float
    N: float
    grid: np.ndarray
    max_re: np.ndarray
    gap: float
    refinement_depth: int


#: scanned max Re above this refuses the certificate (absorbs the eigenvalue
#: solver's ~1e-12 noise floor around genuinely imaginary roots)
_REFUSAL_LEVEL = -1e-10


def gap_scan(params: SystemParams, nu: float, N: float,
             initial_points: int = 129) -> GapCertificate:
    """Adaptively refined scan of max Re lambda over [nu, N].

    The grid is uniformly doubled until either the mesh is finer than
    (N - nu) / 2^14 or the sampled bound changes by less than 1e-4
    relative between refinements.  Any scanned frequency with
    max Re lambda >= -1e-10 refuses the certificate with that witness.
    Each refinement level is one batched eigen solve.

    gamma2 = 0 refuses before any solve, with witness nu and real part 0:
    lambda^2 + k^2 (l^2 + xi^2) is then an exact factor of the
    characteristic polynomial, so +-i k sqrt(l^2 + xi^2) is an undamped
    pair at every frequency.
    """
    if not (0.0 < nu < N):
        raise PreconditionError(f"need 0 < nu < N, got nu={nu}, N={N}")
    if initial_points < 2:
        raise PreconditionError("initial_points must be at least 2")
    if params.gamma2 == 0.0:
        raise CertificateRefused(float(nu), 0.0)

    def scan(grid: np.ndarray) -> np.ndarray:
        return eigenvalues_batch(params, grid)[0].real.max(axis=1)

    grid = np.linspace(nu, N, initial_points)
    max_re = scan(grid)
    depth = 0
    target_mesh = (N - nu) / 2**14
    done = grid[1] - grid[0] <= target_mesh
    while True:
        worst = float(max_re.max())
        if worst >= _REFUSAL_LEVEL:
            raise CertificateRefused(float(grid[int(np.argmax(max_re))]), worst)
        if done:
            break
        mids = 0.5 * (grid[:-1] + grid[1:])
        grid = np.insert(grid, np.arange(1, len(grid)), mids)
        max_re = np.insert(max_re, np.arange(1, len(max_re)), scan(mids))
        depth += 1
        new_bound = float(max_re.max())
        done = (grid[1] - grid[0] <= target_mesh
                or abs(new_bound - worst) <= 1e-4 * abs(new_bound))

    gap = -float(max_re.max())
    return GapCertificate(nu=float(nu), N=float(N), grid=grid, max_re=max_re,
                          gap=gap, refinement_depth=depth)
