"""First-order model objects for the damped curved-beam (Bresse) system.

The physical system couples vertical displacement phi, rotation angle psi
and longitudinal displacement w on the line, with frictional damping gamma1
on the angle equation and gamma2 on the longitudinal equation:

    phi_tt - (phi_x + psi + l w)_x + k^2 l (w_x + l phi) = 0,
    psi_tt - a^2 psi_xx + (phi_x + psi + l w) + gamma1 psi_t = 0,
    w_tt - k^2 (w_x + l phi)_x + l (phi_x + psi + l w) + gamma2 w_t = 0.

The axial strain is w_x + l phi; Liu & Rao (ZAMP 60, 2009) write it with
the other sign, w_x - l phi, which gives another spectrum.  In Fourier form
the eigenvalues solve det(lambda^2 I + lambda diag(0, gamma1, gamma2) +
K(xi)) = 0 with

    K = [[xi^2 + k^2 l^2,        -i xi,         i xi l (k^2 - 1)],
         [i xi,                  a^2 xi^2 + 1,  l               ],
         [-i xi l (k^2 - 1),     l,             k^2 xi^2 + l^2  ]],

which the test suite checks against the spectrum of Phi and against
:func:`char_poly_coeffs`.  After the standard change of unknowns the system
becomes

    U_t + A U_x + L U = 0,      U = (v, u, z, y, phi, eta),

with A real symmetric and L nonnegative (not symmetric).  On the Fourier
side the evolution is U_hat_t = Phi(i xi) U_hat with symbol

    Phi(zeta) = -(L + zeta A),  zeta = i xi.

This module builds A, L and Phi, the real similar symbol S^-1 Phi S, and
the closed-form coefficients of the characteristic polynomial of Phi(zeta)
(the test suite checks them against an LU determinant and against the
quadratic-times-quartic splitting that holds when gamma2 = 0).

The real symbol Phi_r = S^-1 Phi S couples (v, z, phi) only to (u, y, eta),
with skew couplings, and damps only (u, y, eta).  So J Phi_r is exactly
symmetric for J = diag(1, -1, 1, -1, 1, -1), hence so is J e^{t Phi_r}, and
||e^{t Phi}||_2 is the largest |eigenvalue| of J e^{t Phi_r} (the test suite
checks the symmetry bit for bit).

Component order is fixed project-wide: indices 0..5 = (v, u, z, y, phi, eta).
The single longitudinal speed k is used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError

__all__ = [
    "SystemParams",
    "SymbolMatrix",
    "build_matrices",
    "build_symbol",
    "symbol_stack",
    "real_symbol_stack",
    "char_poly_coeffs",
]

# component indices
V, U, Z, Y, PHI, ETA = range(6)


@dataclass(frozen=True)
class SystemParams:
    """The five physical coefficients.

    a : shear wave speed ratio (> 0)
    k : longitudinal wave speed (> 0)
    l : curvature (> 0)
    gamma1 : frictional damping on the rotation-angle equation (>= 0)
    gamma2 : frictional damping on the longitudinal equation (>= 0)
    """

    a: float
    k: float
    l: float
    gamma1: float
    gamma2: float

    def __post_init__(self):
        for name in ("a", "k", "l", "gamma1", "gamma2"):
            value, damping = getattr(self, name), name.startswith("gamma")
            if not (np.isfinite(value) and (value >= 0 if damping else value > 0)):
                bound = "nonnegative" if damping else "positive"
                raise PreconditionError(f"parameter {name} must be finite and {bound}, got {value!r}")

    @property
    def stability_defect(self) -> float:
        """(k^2 - 1) l^2 - 1, recomputed on every access.

        The single-damping (gamma1 = 0) decay theory requires it nonzero.
        """
        return (self.k**2 - 1.0) * self.l**2 - 1.0

    @property
    def regime(self) -> str:
        if self.gamma1 == 0.0 and self.gamma2 == 0.0:
            return "undamped"
        if self.gamma2 == 0.0:
            return "gamma2_zero"
        if self.gamma1 == 0.0:
            return "gamma1_zero"
        return "both_damped"

    def to_dict(self) -> dict:
        return {"a": self.a, "k": self.k, "l": self.l,
                "gamma1": self.gamma1, "gamma2": self.gamma2}

    @classmethod
    def from_dict(cls, d: dict) -> "SystemParams":
        missing = {"a", "k", "l", "gamma1", "gamma2"} - set(d)
        if missing:
            raise PreconditionError(f"params missing keys: {sorted(missing)}")
        extra = set(d) - {"a", "k", "l", "gamma1", "gamma2"}
        if extra:
            raise PreconditionError(f"params has unknown keys: {sorted(extra)}")
        return cls(float(d["a"]), float(d["k"]), float(d["l"]),
                   float(d["gamma1"]), float(d["gamma2"]))


def build_matrices(params: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """Return (A, L) of the first-order system U_t + A U_x + L U = 0."""
    a, k, l = params.a, params.k, params.l
    g1, g2 = params.gamma1, params.gamma2

    A = np.zeros((6, 6))
    A[V, U] = A[U, V] = -1.0
    A[Z, Y] = A[Y, Z] = -a
    A[PHI, ETA] = A[ETA, PHI] = -k

    L = np.zeros((6, 6))
    L[V, Y] = 1.0
    L[V, ETA] = l
    L[U, PHI] = -l * k
    L[Y, V] = -1.0
    L[Y, Y] = g1
    L[PHI, U] = l * k
    L[ETA, V] = -l
    L[ETA, ETA] = g2
    return A, L


@dataclass(frozen=True)
class SymbolMatrix:
    """The Fourier symbol Phi(i xi) = -(L + i xi A) with its real parts."""

    xi: float
    A: np.ndarray
    L: np.ndarray
    Phi: np.ndarray


def _symbol(A: np.ndarray, L: np.ndarray, xi) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    return -(L.astype(complex) + 1j * xi[..., None, None] * A)


def build_symbol(params: SystemParams, xi: float) -> SymbolMatrix:
    """Assemble Phi(i xi) = -L - i xi A."""
    A, L = build_matrices(params)
    return SymbolMatrix(xi=float(xi), A=A, L=L, Phi=_symbol(A, L, xi))


def symbol_stack(params: SystemParams, xi) -> np.ndarray:
    """Phi(i xi) for every entry of ``xi`` at once: shape xi.shape + (6, 6)."""
    A, L = build_matrices(params)
    return _symbol(A, L, xi)


#: the diagonal of S in :func:`real_symbol_stack`, in component order
_REAL_SIMILARITY = np.array([1.0, 1.0j, -1.0j, 1.0, -1.0j, 1.0])


def real_symbol_stack(params: SystemParams, xi) -> np.ndarray:
    """S^-1 Phi(i xi) S with S = diag(1, i, -i, 1, -i, 1), for every entry
    of ``xi``: shape xi.shape + (6, 6), real.

    The similarity moves the factor i of i xi A onto the off-diagonal
    couplings, so the matrix is exactly real for every parameter set and
    has the eigenvalues of Phi(i xi), in exact conjugate pairs.  Each entry
    is the symbol's entry times one of 1, -1, i, -i: no rounding enters.
    """
    A, L = build_matrices(params)
    s = _REAL_SIMILARITY
    # S^-1 = conj(S); L and A share no nonzero entry, so the sum below
    # adds only exact zeros
    L_s = (s.conj()[:, None] * L * s).real
    A_s = (s.conj()[:, None] * (1j * A) * s).real
    xi = np.asarray(xi, dtype=float)
    return -(L_s + xi[..., None, None] * A_s)


def char_poly_coeffs(params: SystemParams, zeta) -> np.ndarray:
    """Closed-form coefficients of det(lambda I - Phi(zeta)) for every entry
    of ``zeta``.

    One formula covers all damping regimes (it reduces to the single-damping
    forms when the corresponding gamma vanishes).  Shape zeta.shape + (7,),
    ascending degree; the leading coefficient is 1.
    """
    zeta = np.asarray(zeta, dtype=complex)
    coeffs = _sextic_coeffs(params.a, params.k, params.l,
                            params.gamma1, params.gamma2, zeta * zeta)
    return np.stack(np.broadcast_arrays(*coeffs), axis=-1)


def _sextic_coeffs(a, k, l, g1, g2, z2) -> tuple:
    """c_0..c_6 of det(lambda I - Phi(zeta)) from z2 = zeta^2.

    Generic over the number type: floats with numpy arrays for
    :func:`char_poly_coeffs`, mpmath numbers for the tests' 50-digit
    roots.  The literals are integers, so rational inputs give exact
    coefficients.
    """
    lz = l * l - z2
    c6 = 1
    c5 = g1 + g2
    c4 = (k**2 + 1) * lz + g1 * g2 + 1 - a**2 * z2
    c3 = g1 * (k**2 + 1) * lz + g2 * ((k**2 * l**2 + 1) - (1 + a**2) * z2)
    c2 = g1 * g2 * (k**2 * l**2 - z2) + lz * (k**2 * lz + (k**2 - a**2 * (k**2 + 1) * z2))
    c1 = g1 * k**2 * lz**2 + k**2 * l**2 * g2 - a**2 * k**2 * l**2 * g2 * z2 + a**2 * g2 * z2 * z2
    c0 = -(a**2) * k**2 * z2 * lz**2
    return c0, c1, c2, c3, c4, c5, c6
