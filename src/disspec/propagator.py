"""Exact-in-time evolution of the Fourier modes via Putzer's algorithm.

e^{t Phi} X is assembled without eigenvectors as sum_j r_{j+1}(t) Q_j with
the Q chain Q_0 = X, Q_j = (Phi - lambda_j I) Q_{j-1} built on the data
block X itself, and r solving the triangular chain r_1' = lambda_1 r_1,
r_j' = lambda_j r_j + r_{j-1}, r(0) = e_1.  The factors commute, so X = I
gives the classical P chain P_j = prod_{k<=j} (Phi - lambda_k I); the
matrix exponential and operator norms are that case of the same path.

Real frame.  S = diag(1, i, -i, 1, -i, 1) is unitary and Phi_r = S^-1 Phi S
is real (:func:`core_model.real_symbol_stack`), so e^{t Phi} X = S e^{t Phi_r} Y
with Y = S^-1 X, |e^{t Phi} X| = |e^{t Phi_r} Y| and ||e^{t Phi}||_2 =
||e^{t Phi_r}||_2.  Y is split into real columns, and columns that are zero
over the whole grid are dropped (:func:`_real_columns`); real data of one
component gives one real column.

Weights once per spectrum.  For pairwise well-separated eigenvalues the r_j
are divided differences of exp(. t) over lambda_1..lambda_j, so r(t) =
W phi(t) with phi_i = e^{lambda_i t} and W the lower-triangular Newton
weight matrix of the nodes (:func:`_newton_weights`).  W has no time axis;
it is folded into the Q chain once per spectrum, B = Q W, and
e^{t Phi_r} Y = sum_i B_i phi_i(t).

Real contraction.  The eigen solve is of the real Phi_r, so complex nodes
come in pairs that are conjugate bit for bit, and for real Y the state is
real: a pair (i, j) contributes Re((B_j + conj B_i) phi_j).
A real coefficient matrix C times a real basis psi(t) then gives the state
(:func:`_real_coefficients`, :func:`_basis`): psi holds e^{lambda t} of each
real node (a real exp) and Re and Im of one complex exp per pair, so a
(spectrum, time) cell costs one complex exp per pair, one real exp per real
node and no division.  Times where eps |Im lambda| t exceeds _PHASE_LOSS,
the phase error that the rounding of lambda leaves, are refused.

One rule (:func:`_ambiguous`) sends every other node set (two nodes closer
than _GAP_AMBIGUOUS, equal nodes included, or a complex node without an
exact conjugate partner) to one double-precision route: r is the first
column of exp(t J), J lower bidiagonal with the nodes on its diagonal,
computed for a whole batch of (nodes, time) rows at once by shifted
scaling and squaring with the diagonal and first subdiagonal recomputed
exactly at every level (:func:`_r_bidiag`), which stays accurate for
clusters of any width, width 0 included, and at large |lambda| t.  The scaling-and-squaring Pade exponential (scipy) and a
50-digit evaluation of the same bidiagonal exponential (mpmath) serve as
the independent oracles in the tests and are never used on the Putzer path.

The frequency axis is a batch dimension, and its unit is the distinct |xi|.
The spectrum depends on xi only through xi^2, and real solutions have
Hermitian Fourier data, U(-xi) = conj U(xi), so the whole Fourier-side
problem lives on |xi| >= 0: one batched eigen solve
(:func:`spectral.distinct_spectra`) gives one spectrum and one Phi_r per
distinct |xi|, and the weights, the basis and the Q chains are evaluated
once per spectrum.  Every evaluation first folds the data onto the spectra
(:meth:`SymbolPropagator._fold`): a row at -xi must hold the exact conjugate
of the data at +xi, rows of the same xi equal data (equal as floats), and
data that do not fold are refused with a PreconditionError.  Phi(-xi) =
conj Phi(xi), so a row at -xi reads the exact conjugate of the state at
+|xi|, and its density is that of +|xi|.  The basis is contracted with the
coefficients of its spectra by one real batched matmul per chunk.  Each
(spectrum, time) value is bitwise the same whatever other times are
evaluated with it.

Plancherel norms are a weighted reduction of that stream
(:meth:`SymbolPropagator.plancherel_sums`).  :class:`Rule` is the one place
that knows the quadrature: it checks the grid, holds the trapezoid weights,
builds the |xi|^{2j} columns and applies the tail check.  Its weights times
a column are one weight per row and column, the weights of the rows of a
|xi| fold into one per spectrum, and each chunk's density sum_a |U_a|^2 is
reduced at once into the per-time sums, the per-time peak and the two
grid-edge values that the tail check needs.  Neither the
(times, frequencies, 6) trajectory nor a (frequencies, times) density is
ever held.  Operator norms are even in xi too (the identity is Hermitian
data).  J Phi_r is symmetric for J = diag(1, -1, 1, -1, 1, -1), so
J e^{t Phi_r} is symmetric, and the norm is its largest |eigenvalue|, from
one batched eigvalsh of the real 6x6 J e^{t Phi_r}.

:class:`SymbolPropagator` is the only entry point to e^{t Phi}, and the
route rule is consulted only there.  One frequency is a grid of one, and
the matrix exponential e^{t Phi(i xi)} is the propagation of the identity
block: ``SymbolPropagator(p, [xi]).propagate_many(np.eye(6)[None], [t])[0, 0]``.

All eigenvalue orderings here are descending real part, ties by ascending
imaginary part; the assembled exponential is order-invariant (tested).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core_model import _REAL_SIMILARITY, SystemParams
from .errors import PreconditionError, SolverError, TailMassError
from .spectral import distinct_spectra

__all__ = [
    "default_grid",
    "Rule",
    "SymbolPropagator",
]

#: below this absolute gap the float divided differences are unreliable
#: for higher-order clusters (calibrated: a 3-cluster at gap 1e-4 already
#: loses ~8 digits); such spectra take the bidiagonal exponential instead
_GAP_AMBIGUOUS = 1e-3
#: snapping a cluster of diameter s to its mean costs at most
#: ~(s t)^2/2 * e^{Re lambda t}, so clusters with s t below this are merged;
#: at (near-)defective points the individual roots carry O(eps^(1/m)) noise
#: anyway while the cluster mean is trace-accurate, and the bidiagonal
#: exponential then applies (Phi - mean)^m, which is small there
_SNAP_ST = 4e-5
#: Re(lambda) * t below this underflows e^{lambda t} to exactly zero
_EXP_FLOOR = -745.0
#: eps |Im lambda| t above this refuses: lambda carries a relative rounding
#: of eps, so the phase of e^{lambda t} is off by up to that many radians
_PHASE_LOSS = 1e-6
#: J = diag(1, -1, 1, -1, 1, -1): J Phi_r is symmetric (:mod:`core_model`),
#: so J Phi_r^n = (Phi_r^T)^n J and J e^{t Phi_r} is symmetric too
_J = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
#: bytes of basis plus Q chains and states per chunk of the SymbolPropagator
#: contraction; the Q chains of the ambiguous (frequency, time) pairs are
#: built in slices of this size
_CHUNK_BYTES = 2 ** 20
#: the bidiagonal exponential scales its matrix to 1-norm <= _TAYLOR_NORM,
#: where the degree-14 Taylor remainder 0.5^15/15! ~ 2e-17 is below rounding
_TAYLOR_NORM = 0.5
_TAYLOR_DEGREE = 14
#: the subdiagonal of exp([[a, 0], [c, b]]) is c e^{(a+b)/2} sinh(d)/d with
#: d = (b - a)/2; past |d| = 1 the plain quotient (e^b - e^a)/(b - a) has no
#: cancellation, while sinh(d) overflows for large Re d
_SINH_MAX = 1.0
#: below this |d|, sinh(d)/d = 1 + d^2/6 is 1 to rounding; it is taken as 1
#: there, since complex division by a subnormal d (a subnormal time t)
#: overflows to NaN
_SINHC_ONE = 1e-8


def _snap_clusters(lam: np.ndarray, tol, trace) -> np.ndarray:
    """Snap transitively-linked clusters (link distance <= tol) to their mean.

    lam   : (m, n) nodes per row.
    tol   : scalar or (m,) link distance per row.
    trace : (m,) matrix traces.  Each row's sum defect (trace minus node
            sum) is folded into its snapped members: cluster means are then
            exact to the accuracy of the non-clustered nodes, which matters
            at defective points where the individual cluster members carry
            O(eps^(1/m)) noise.
    """
    lam = np.asarray(lam, dtype=complex)
    tol = np.asarray(tol, dtype=float)[..., None, None]
    link = np.abs(lam[:, :, None] - lam[:, None, :]) <= tol
    while True:                                   # transitive closure
        closed = np.matmul(link, link, dtype=np.uint8) > 0
        if np.array_equal(closed, link):
            break
        link = closed
    size = link.sum(axis=2)
    snapped = size > 1
    out = np.where(snapped, np.sum(link * lam[:, None, :], axis=2) / size, lam)
    count = snapped.sum(axis=1)
    defect = (np.asarray(trace) - out.sum(axis=1)) / np.maximum(count, 1)
    out += snapped * defect[:, None]
    return out


def _snap_tol(scale, t):
    return np.maximum(1e-13 * scale, _SNAP_ST / np.maximum(t, 1.0))


def _safe_exp(z: np.ndarray) -> np.ndarray:
    """exp(z), overwriting z, with underflow to zero; overflow
    (Re z > 700) is an error."""
    _check_overflow(z.real)
    with np.errstate(under="ignore"):
        return np.exp(z, out=z)


def _check_overflow(re: np.ndarray) -> None:
    if np.any(re > 700.0):
        raise SolverError(f"exp overflow: Re(lambda t) = {re.max():.3g} > 700 "
                          "(growing mode propagated too far)")


def _partners(lam: np.ndarray) -> np.ndarray:
    """partner (m, n): partner[:, i] is the first node whose value is the
    exact conjugate of node i's, i itself for a real node, and -1 where no
    node qualifies."""
    match = lam.conj()[:, :, None] == lam[:, None, :]
    return np.where(match.any(axis=2), match.argmax(axis=2), -1)


def _newton_weights(lam: np.ndarray) -> np.ndarray:
    """Newton weights: W of shape (m, n, n), lower triangular, with
    r_{j+1}(t) = sum_i W[:, j, i] e^{lambda_i t} for every t.

    The divided-difference table over pairwise distinct nodes in their given
    order, run on the basis functions instead of on their values, so it has
    no time axis.  Level 0 holds e^{lambda_i t}, the unit vector i.  After
    level d, entry i is the divided difference over lambda_{i-d}..lambda_i,
    so entry d is final and is row d of W.
    """
    m, n = lam.shape
    D = np.repeat(np.eye(n, dtype=complex)[None], m, axis=0)
    for d in range(1, n):
        inverse = 1.0 / (lam[:, d:] - lam[:, :-d])         # 1/(lambda_i - lambda_{i-d})
        D[:, d:] = (D[:, d:] - D[:, d - 1:-1]) * inverse[..., None]
    return D


def _basis(lam: np.ndarray, partner: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The real basis psi of shape (m, n, nt) for rows of paired nodes.

    A real node's slot holds phi_i(t) = e^{lambda_i t}, from one real
    exponential.  A conjugate pair (i, j) with Im lambda_j > 0 holds Re phi_j
    in slot i and Im phi_j in slot j, both from one complex exponential;
    phi_i is conj(phi_j).
    """
    psi = np.empty(lam.shape + t.shape)
    real = partner == np.arange(lam.shape[1])
    z = lam.real[real][:, None] * t
    psi[real] = _safe_exp(z)
    up = lam.imag > 0.0
    z = lam[up][:, None] * t
    e = _safe_exp(z)
    psi[up] = e.imag
    psi[np.nonzero(up)[0], partner[up]] = e.real
    return psi


def _real_coefficients(B: np.ndarray, lam: np.ndarray, partner: np.ndarray) -> np.ndarray:
    """Real C with C psi = Re(B phi): the coefficients of :func:`_basis`.

    B : (k, r, n), column i the coefficient of phi_i; lam, partner : (k, n).
    Re(B_i phi_i + B_j phi_j) = Re((B_j + conj B_i) phi_j) for a pair with
    phi_i = conj(phi_j), so slot i takes Re B_i + Re B_j and slot j
    Im B_i - Im B_j; a real node's slot takes Re B_i.
    """
    Bp = np.take_along_axis(B, partner[:, None, :], axis=2)
    up = (lam.imag > 0.0)[:, None, :]
    down = (lam.imag < 0.0)[:, None, :]
    return np.where(up, Bp.imag - B.imag, B.real + np.where(down, Bp.real, 0.0))


def _real_columns(X: np.ndarray, keep=slice(None)) -> np.ndarray:
    """The columns ``keep`` of [Re S^-1 X | Im S^-1 X] for a (k, 6, c)
    block X: real, shape (k, 6, len(keep)), and S^-1 X = Y + i Z gives
    e^{t Phi} X = S (e^{t Phi_r} Y + i e^{t Phi_r} Z)."""
    Y = _REAL_SIMILARITY.conj()[:, None] * X
    return np.concatenate([Y.real, Y.imag], axis=2)[:, :, keep]


def _nonzero_columns(X: np.ndarray) -> np.ndarray:
    """Index of the columns of :func:`_real_columns` that are nonzero
    somewhere in X (the first if none is)."""
    keep = np.flatnonzero(_real_columns(X).any(axis=(0, 1)))
    return keep if keep.size else np.zeros(1, dtype=np.intp)


def _r_bidiag(lam: np.ndarray, t: np.ndarray) -> np.ndarray:
    """r_1..r_n at one time per row, for nodes in any order and clustering.

    lam : (m, n) nodes per row.
    t   : (m,) times.
    Returns r of shape (n, m), node-major.

    r is the first column of exp(t J), J lower bidiagonal with the nodes on
    its diagonal and ones below it (McCurdy, Ng & Parlett 1984).  With
    y = lambda t and S = diag(t^j), t J = S Y S^-1 where Y has diagonal y and
    a unit subdiagonal, so r_{j+1} = t^j exp(Y)[j, 0].  Y is shifted by
    mu = max Re y, which bounds every intermediate by one, scaled by 2^-s to
    1-norm <= _TAYLOR_NORM, exponentiated by a Taylor polynomial and squared
    s times.  The diagonal and the first subdiagonal are recomputed exactly
    at every level (Al-Mohy & Higham 2009, Code Fragment 2.1), so the
    squarings lose neither the small entries of decaying nodes nor the
    differences of clustered ones.  Rows with Re(lambda t) > 700 refuse;
    rows with mu below _EXP_FLOOR are exactly zero.
    """
    lam = np.asarray(lam, dtype=complex)
    t = np.asarray(t, dtype=float)
    m, n = lam.shape
    y = lam * t[:, None]
    mu = y.real.max(axis=1)
    _check_overflow(mu)
    b = y - mu[:, None]
    s = np.ceil(np.log2((np.abs(b).max(axis=1) + 1.0) / _TAYLOR_NORM)).astype(int)
    h = np.ldexp(1.0, -s)[:, None, None]
    diag = np.arange(n)
    # Horner on X = 2^-s (Y - mu): E <- I + X E / k, X E by its two diagonals
    E = np.zeros((m, n, n), dtype=complex)
    E[:, diag, diag] = 1.0
    for k in range(_TAYLOR_DEGREE, 0, -1):
        XE = b[:, :, None] * h * E
        XE[:, 1:] += h * E[:, :-1]
        XE /= k
        XE[:, diag, diag] += 1.0
        E = XE
    with np.errstate(under="ignore"):
        for k in range(s.max() + 1):
            rows = np.flatnonzero(s >= k)
            if k:
                E[rows] = E[rows] @ E[rows]
            # exact diagonal and first subdiagonal of exp(c (Y - mu)),
            # c = 2^(k - s) the scale each row has reached
            c = np.ldexp(1.0, k - s[rows])[:, None]
            z = b[rows] * c
            ez = np.exp(z)
            d = 0.5 * (z[:, 1:] - z[:, :-1])
            far = np.abs(d) > _SINH_MAX
            near = np.where(far, 1.0, d)
            sinhc = np.divide(np.sinh(near), near, out=np.ones_like(near),
                              where=np.abs(near) > _SINHC_ONE)
            sub = np.where(far, (ez[:, 1:] - ez[:, :-1]) / np.where(far, 2.0 * d, 1.0),
                           np.exp(0.5 * (z[:, 1:] + z[:, :-1])) * sinhc)
            E[rows[:, None], diag, diag] = ez
            E[rows[:, None], diag[1:], diag[:-1]] = c * sub
        scale = np.where(mu < _EXP_FLOOR, 0.0, np.exp(mu))
    r = E[:, :, 0] * (scale[:, None] * t[:, None] ** diag)
    return np.ascontiguousarray(r.T)


def _ambiguous(lam: np.ndarray, partner: np.ndarray | None = None) -> np.ndarray:
    """(m,) rows of nodes the Newton weights cannot take: two nodes closer
    than _GAP_AMBIGUOUS, equal nodes included (the divided differences would
    cancel or divide by zero), or a complex node without an exact conjugate
    partner (the real contraction needs one; ``partner`` is that of
    :func:`_partners`, computed here when not given)."""
    gaps = np.abs(lam[:, :, None] - lam[:, None, :])
    close = np.tril(gaps < _GAP_AMBIGUOUS, -1).any(axis=(1, 2))
    if partner is None:
        partner = _partners(lam)
    return close | (partner < 0).any(axis=1)


def _q_chain(Phi: np.ndarray, lam: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Q_0..Q_5 for a stack of symbols and data blocks.

    Phi : (n, 6, 6), lam : (n, 6), X : (n, 6, c).
    Q_0 = X and Q_j = (Phi - lambda_j I) Q_{j-1}: shape (n, 6, 6, c).
    The factors commute, so X = I gives the P chain P_j.
    """
    Q = np.empty((len(Phi), 6) + X.shape[1:], dtype=complex)
    Q[:, 0] = X
    for j in range(1, 6):
        np.matmul(Phi, Q[:, j - 1], out=Q[:, j])
        Q[:, j] -= lam[:, j - 1, None, None] * Q[:, j - 1]
    return Q


def _putzer_sum(Q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """sum_j r_{j+1} Q_j by one batched matmul.

    Q : (k, 6, 6, c) chains from :func:`_q_chain`, r : (k, 6, nt).
    Returns (k, 6, c, nt).
    """
    k, _, _, c = Q.shape
    return (np.moveaxis(Q, 1, -1).reshape(k, 6 * c, 6) @ r).reshape(k, 6, c, -1)


def _exp_bidiag(Phi: np.ndarray, lambdas: np.ndarray, t: np.ndarray,
                X: np.ndarray) -> np.ndarray:
    """e^{t Phi} X for a batch of (symbol, nodes, time, data) quadruples.

    Phi : (m, 6, 6), lambdas : (m, 6), t : (m,), X : (m, 6, c).
    Returns (m, 6, c).  Each quadruple snaps its clusters at its own
    t-aware tolerance, with the trace correction, and its r functions (one
    :func:`_r_bidiag` call for the batch) and Q chain use the same snapped
    nodes.  The Q chains are built in slices of about ``_CHUNK_BYTES``.
    """
    t = np.asarray(t, dtype=float)
    scale = np.maximum(1.0, np.abs(lambdas).max(axis=1))
    lam = _snap_clusters(lambdas, _snap_tol(scale, t),
                         trace=np.trace(Phi, axis1=1, axis2=2))
    r = _r_bidiag(lam, t).T[:, :, None]                        # (m, 6, 1)
    out = np.empty(X.shape, dtype=complex)
    step = max(1, _CHUNK_BYTES // (6 * X[0].size * 16))
    for lo in range(0, len(t), step):
        sl = slice(lo, lo + step)
        out[sl] = _putzer_sum(_q_chain(Phi[sl], lam[sl], X[sl]), r[sl])[..., 0]
    return out


def default_grid(xi_min_pos: float = 1e-4, xi_max: float = 40.0,
                 n_geo: int = 1024, n_lin: int = 1024) -> np.ndarray:
    """Symmetric frequency grid, geometric near zero and linear beyond 1."""
    if not (0 < xi_min_pos < 1.0 < xi_max):
        raise PreconditionError("need 0 < xi_min_pos < 1 < xi_max")
    if not all(float(n).is_integer() and n >= 1 for n in (n_geo, n_lin)):
        raise PreconditionError(f"need integer n_geo, n_lin >= 1, got {n_geo}, {n_lin}")
    geo = np.geomspace(xi_min_pos, 1.0, n_geo)
    lin = np.linspace(1.0, xi_max, n_lin + 1)[1:]
    pos = np.concatenate([geo, lin])
    return np.concatenate([-pos[::-1], [0.0], pos])


class SymbolPropagator:
    """Per-grid cache of Putzer data for fast repeated propagation.

    The spectrum depends on xi only through xi^2, and real solutions have
    Hermitian Fourier data, U(-xi) = conj U(xi), so the distinct |xi| are
    the only unit the propagator works on.  Construction keeps what
    :func:`spectral.distinct_spectra` solves: one spectrum (``nodes``) and
    one real similar symbol ``Phi_r`` = S^-1 Phi S per distinct |xi|, with
    ``row`` mapping each frequency of ``grid`` to its spectrum.

    Every evaluation first folds the data onto the spectra
    (:meth:`_fold`), then propagates the real columns Y of S^-1 of the
    folded data (:func:`_real_columns`) by e^{t Phi_r} chunk by chunk: a run
    of spectra gets its weights W and its real basis psi (spectra, slots,
    times) and the Q chains of its columns, folded with W into B = Q W and
    made real (:func:`_real_coefficients`), and one real batched matmul gives
    the states.  A chunk's basis, chains and states hold about
    ``_CHUNK_BYTES``, so no (frequencies, 6, 6, 6) chain or (times,
    frequencies, 6) trajectory is made unless asked for.  The (spectrum,
    time) pairs of ambiguous spectra (:func:`_ambiguous`, flagged per
    frequency in ``ambiguous``) take one :func:`_exp_bidiag` call per chunk,
    in the same real frame.  A row at -xi reads the exact conjugate of the
    state at +|xi|: Phi(-xi) = conj Phi(xi).
    """

    def __init__(self, params: SystemParams, grid: np.ndarray):
        self.params = params
        self.grid = np.asarray(grid, dtype=float)
        self.row, self.Phi_r, self.nodes, _ = distinct_spectra(params, self.grid)
        self._partner = _partners(self.nodes)
        self._ambiguous_nodes = _ambiguous(self.nodes, self._partner)
        self.ambiguous = self._ambiguous_nodes[self.row]
        # the rows grouped by spectrum, in grid order within each; the rows of
        # the spectra a..b-1 are _by_spectrum[_ends[a]:_ends[b]]
        self._by_spectrum = np.argsort(self.row, kind="stable")
        self._ends = np.searchsorted(self.row[self._by_spectrum],
                                     np.arange(len(self.nodes) + 1))
        self._phase_rate = np.finfo(float).eps * np.abs(self.nodes.imag).max(initial=0.0)

    def _times(self, times) -> np.ndarray:
        """``times`` as a 1-d float array.  Every evaluation passes here
        first, so negative and non-finite times are refused here, and so are
        times where eps |Im lambda| t, the phase error that the rounding of
        lambda leaves in e^{lambda t}, exceeds _PHASE_LOSS."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        if not np.all(np.isfinite(times) & (times >= 0)):
            raise PreconditionError(f"times must be finite and >= 0, got {times}")
        loss = self._phase_rate * times.max(initial=0.0)
        if loss > _PHASE_LOSS:
            raise PreconditionError(
                f"phase of e^(lambda t) lost: eps |Im lambda| t = {loss:.3g} exceeds "
                f"{_PHASE_LOSS:g} at t = {times.max():.6g}")
        return times

    def _fold(self, X: np.ndarray) -> np.ndarray:
        """The data of each spectrum, at +|xi|, of a (nfreq, 6, c) block X:
        X at a row with xi >= 0 and conj X at a row with xi < 0.  Every row
        of a spectrum must fold to data equal as floats (Hermitian data,
        equal data at a repeated xi; 0.0 and -0.0 are equal, so the conj of
        real data folds); anything else, NaN data included, is refused."""
        F = np.where(self.grid[:, None, None] < 0, X.conj(), X)
        D = F[self._by_spectrum[self._ends[:-1]]]
        bad = np.flatnonzero((F != D[self.row]).any(axis=(1, 2)))
        if bad.size:
            r = bad[0]
            f = self._by_spectrum[self._ends[self.row[r]]]
            if np.isnan(F[[r, f]]).any():
                raise PreconditionError(f"data hold NaN at row {r} or {f}")
            raise PreconditionError(
                "data must be Hermitian, equal as floats, U(-xi) = conj U(xi) with "
                f"equal data at a repeated xi: row {r} (xi = {float(self.grid[r])!r}) "
                f"does not fold onto row {f} (xi = {float(self.grid[f])!r})")
        return D

    def _weights_and_basis(self, spectra, times: np.ndarray):
        """W (s, 6, 6) and psi (s, 6, ntimes) of the distinct spectra
        ``spectra`` (an index or a slice); both are zero for ambiguous
        spectra."""
        lam, partner = self.nodes[spectra], self._partner[spectra]
        ok = ~self._ambiguous_nodes[spectra]
        if ok.all():
            return _newton_weights(lam), _basis(lam, partner, times)
        W = np.zeros(lam.shape + (6,), dtype=complex)
        psi = np.zeros(lam.shape + times.shape)
        W[ok] = _newton_weights(lam[ok])
        psi[ok] = _basis(lam[ok], partner[ok], times)
        return W, psi

    def r_many(self, times: np.ndarray) -> np.ndarray:
        """r_j(t) = sum_i W[j, i] phi_i(t) for the non-ambiguous
        frequencies: shape (nfreq, ntimes, 6).

        Rows of ambiguous frequencies are zeros; the propagation methods
        route those through :func:`_exp_bidiag` instead.
        """
        times = self._times(times)
        W, psi = self._weights_and_basis(slice(None), times)
        # phi from psi: Re phi_j + i Im phi_j for Im lambda_j > 0, the
        # conjugate for its partner, psi itself for a real node
        mate = np.take_along_axis(psi, self._partner[..., None], axis=1)
        im = self.nodes.imag[..., None]
        phi = np.where(im > 0, mate + 1j * psi, np.where(im < 0, psi - 1j * mate, psi))
        r = np.moveaxis(W @ phi, 1, -1)
        r[np.ix_(~self._ambiguous_nodes, times == 0.0)] = np.eye(6)[0]   # r(0) = e_1
        return r[self.row]

    def _real_states(self, D: np.ndarray, keep: np.ndarray, times: np.ndarray,
                     spectra: np.ndarray | None = None):
        """Yield (idx, V) chunk by chunk for the increasing spectrum indices
        ``spectra`` (all by default): V[k, a, m, q] is component a of
        e^{t Phi_r} Y at spectrum idx[k], column m and time times[q], all
        real, for the real columns Y = :func:`_real_columns` (D, keep) of the
        folded data D (len(spectra), 6, c).  idx is a run of ``spectra``.
        Every value is bitwise the same whatever other times are evaluated
        with it."""
        if spectra is None:
            spectra = np.arange(len(self.nodes))
        nt, m = len(times), len(keep)
        # e^{0 Phi_r} = I exactly, where the rows j > 1 of W sum to zero
        # only up to rounding
        zero = times == 0.0
        # bytes per spectrum: its basis and the exponentials behind it, and
        # its states, chains and coefficients
        step = max(1, int(_CHUNK_BYTES / (48 * (2 * nt + m * (nt + 60)))))
        for lo in range(0, len(spectra), step):
            idx = spectra[lo:lo + step]
            lam, partner = self.nodes[idx], self._partner[idx]
            W, psi = self._weights_and_basis(idx, times)
            if nt == 1:
                # a product with one column takes numpy's matrix-vector
                # kernel, whose summation order differs from the matrix kernel's
                psi = np.repeat(psi, 2, axis=-1)
            Y = _real_columns(D[lo:lo + step], keep)
            Q = _q_chain(self.Phi_r[idx], lam, Y)
            B = np.moveaxis(Q, 1, -1).reshape(len(idx), 6 * m, 6) @ W
            C = _real_coefficients(B, lam, partner)
            V = (C @ psi)[..., :nt].reshape(len(idx), 6, m, nt)
            amb = np.flatnonzero(self._ambiguous_nodes[idx])
            if amb.size:
                i = np.repeat(idx[amb], nt)
                E = _exp_bidiag(self.Phi_r[i], self.nodes[i], np.tile(times, amb.size),
                                np.repeat(Y[amb], nt, axis=0))
                V[amb] = np.moveaxis(E.real.reshape(amb.size, nt, 6, m), 1, -1)
            V[..., zero] = Y[..., None]
            yield idx, V

    def states(self, values0: np.ndarray, times: np.ndarray):
        """Yield (rows, U) chunk by chunk: U[k, a, ..., q] is component a of
        the state at frequency rows[k] and time times[q]; the middle axis is
        the column of a (nfreq, 6, c) block and absent for (nfreq, 6).
        U = S e^{t Phi_r} S^-1 X, assembled from the real stream of the
        folded data (:meth:`_fold`); a row at -xi is written as the exact
        conjugate of the state at +|xi|.
        """
        times = self._times(times)
        X = values0 if values0.ndim == 3 else values0[..., None]
        D = self._fold(X)
        keep = _nonzero_columns(D)
        c = X.shape[2]
        re = keep < c
        for idx, V in self._real_states(D, keep, times):
            U = np.zeros((len(idx), 6, c, len(times)), dtype=complex)
            U.real[:, :, keep[re]] = V[:, :, re]
            U.imag[:, :, keep[~re] - c] = V[:, :, ~re]
            U *= _REAL_SIMILARITY[:, None, None]
            # every row of the run of spectra idx
            rows = self._by_spectrum[self._ends[idx[0]]:self._ends[idx[-1] + 1]]
            U = U[self.row[rows] - idx[0]]
            mirrored = self.grid[rows] < 0
            U[mirrored] = U[mirrored].conj()
            yield rows, U.reshape(len(rows), *values0.shape[1:], len(times))

    def apply(self, values: np.ndarray, dt: float) -> np.ndarray:
        """Propagate a (nfreq, 6) state matrix by time dt."""
        return self.propagate_many(values, np.array([dt]))[0]

    def propagate_many(self, values0: np.ndarray, times: np.ndarray) -> np.ndarray:
        """States at several absolute times from one initial state.

        values0 is (nfreq, 6) or a block (nfreq, 6, c).  Returns shape
        (ntimes,) + values0.shape; times measured from the state's own
        clock (pass absolute offsets).
        """
        times = np.atleast_1d(np.asarray(times, dtype=float))
        out = np.empty((len(times),) + values0.shape, dtype=complex)
        for rows, U in self.states(values0, times):
            out[:, rows] = np.moveaxis(U, -1, 0)
        return out

    def plancherel_sums(self, values0: np.ndarray, times: np.ndarray,
                        weights: np.ndarray, scale: np.ndarray | None = None):
        """Weighted sums over the grid of the density sum_a |U_a(xi, t)|^2 of
        (nfreq, 6) data, reduced from the real stream chunk by chunk.

        weights : (nfreq, w), one column per sum.
        scale   : None, or (nfreq, w) nonnegative factors of the integrand
                  whose peak and grid-edge values are wanted.
        Returns (sums, peak, edges): sums (w, ntimes) is sum over the rows of
        weights times the density; peak (w, ntimes) is the largest scale
        times the density over the rows, and edges (w, 2, ntimes) that
        product at the first and at the last row; both are None without
        ``scale``.

        S is unitary, so the density is the sum of squares of the stream's
        real columns.  Each chunk's density is reduced as soon as it is made,
        so no (nfreq, ntimes) array exists.  The data fold onto the spectra
        (:meth:`_fold`), so the density is one per spectrum, and the weights
        of the rows of a spectrum are folded into one (their sum, and the
        largest scale).  Each time's sum is accumulated one spectrum at a
        time in a fixed order, so it is bitwise the same whatever other times
        are evaluated with it and however the stream is chunked.
        """
        times = self._times(times)
        D = self._fold(values0[..., None])
        # fold the rows of each spectrum, which are consecutive in
        # _by_spectrum, onto it
        w = np.add.reduceat(np.asarray(weights, dtype=float)[self._by_spectrum],
                            self._ends[:-1], axis=0)
        edge_rows = np.array([0, len(self.grid) - 1])
        sums = np.zeros((w.shape[1], len(times)))
        peak = edges = None
        if scale is not None:
            s = np.maximum.reduceat(scale[self._by_spectrum], self._ends[:-1], axis=0)
            peak = np.zeros_like(sums)
            edges = np.zeros((w.shape[1], 2, len(times)))
        for idx, V in self._real_states(D, _nonzero_columns(D), times):
            # the sum of squares column by column, so that its order is the
            # same for any number of times
            sq = V.reshape(len(idx), -1, len(times))
            sq *= sq
            d = sq[:, 0].copy()
            for col in range(1, sq.shape[1]):
                d += sq[:, col]
            part = w[idx, :, None] * d[:, None]
            part[0] += sums
            sums = np.cumsum(part, axis=0, out=part)[-1]
            if scale is None:
                continue
            np.maximum(peak, (s[idx, :, None] * d[:, None]).max(axis=0), out=peak)
            for side, row in enumerate(edge_rows):
                at = np.flatnonzero(idx == self.row[row])
                if at.size:
                    edges[:, side] = scale[row, :, None] * d[at[0]]
        return sums, peak, edges

    def operator_norms(self, times: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """2-norm of e^{Phi t} per frequency and time: shape (nfreq, ntimes),
        or (len(rows), ntimes) for the grid rows ``rows``, of which only the
        spectra are evaluated.

        S is unitary, so it is the 2-norm of e^{Phi_r t}.  The data diag(S)
        have S^-1 diag(S) = I, so the stream propagates the real identity in
        its own order.  The identity is Hermitian data, so the norm is one per
        spectrum.  J e^{Phi_r t} is symmetric (:data:`_J`) and J is
        orthogonal, so the norm is the largest |eigenvalue| of J e^{Phi_r t},
        by one batched eigvalsh.
        """
        times = self._times(times)
        spectra = self.row if rows is None else self.row[rows]
        distinct = np.flatnonzero(np.bincount(spectra))
        data = np.broadcast_to(np.diag(_REAL_SIMILARITY), (len(distinct), 6, 6))
        out = np.empty((len(self.nodes), len(times)))
        for idx, V in self._real_states(data, np.arange(6), times, distinct):
            JV = _J[:, None] * np.moveaxis(V, -1, 1)                 # (k, nt, 6, 6)
            out[idx] = np.abs(np.linalg.eigvalsh(JV)).max(axis=-1)
        return out[spectra]


#: an integrand at a grid edge above this fraction of its peak refuses
_TAIL_RTOL = 1e-12


@dataclass(frozen=True)
class Rule:
    """The Plancherel quadrature over a frequency grid: the trapezoid rule.

    ``grid`` must be 1-d, finite and strictly increasing, with at least two
    nodes.  ``weights`` w gives sum_i w_i f_i, the trapezoid rule of f over
    the grid: w_i = (xi_{i+1} - xi_{i-1}) / 2, one-sided at the two ends.
    :meth:`integrate` refuses, unless told not to check the tail, an
    integrand whose value at a grid edge exceeds 1e-12 times its peak,
    since the tail mass beyond the grid would then pollute the value.
    """

    grid: np.ndarray
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        grid = np.atleast_1d(np.asarray(self.grid, dtype=float))
        # finite steps from a first node leave every node finite
        d = 0.5 * np.diff(grid)
        if grid.ndim != 1 or grid.size < 2 or not np.all((d > 0.0) & (d < np.inf)):
            raise PreconditionError("grid must be a 1-d finite strictly increasing array "
                                    f"of at least two nodes, got shape {grid.shape}")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "weights", np.append(d, 0.0) + np.append(0.0, d))

    def sobolev(self, values0: np.ndarray, j_orders) -> np.ndarray:
        """|xi|^{2j} per grid row and order: shape (nfreq, len(j_orders)).

        e^{t Phi} is a contraction, so the density of the (nfreq, 6) data
        ``values0`` bounds it at every time.  Refuses an order that is not a
        nonnegative integer, and one whose column times the weights and that
        density is not finite on the grid (|xi|^{2j} overflows past
        1.8e308, say j = 97 at |xi| = 40), naming the order and the largest
        |xi|.
        """
        mass = self.weights * np.sum(values0.real ** 2 + values0.imag ** 2, axis=1)
        out = np.empty((len(self.grid), len(j_orders)))
        for col, j in enumerate(j_orders):
            if j < 0 or int(j) != j:
                raise PreconditionError(f"derivative order must be a nonnegative integer, got {j}")
            with np.errstate(over="ignore", invalid="ignore"):
                out[:, col] = np.abs(self.grid) ** (2 * j)
                finite = np.all(np.isfinite(out[:, col] * mass))
            if not finite:
                raise PreconditionError(
                    f"derivative order j = {j} is too high for the grid: |xi|^(2j) times "
                    f"the density is not finite up to |xi| = {np.abs(self.grid).max():.6g}")
        return out

    def integrate(self, prop: SymbolPropagator, values0: np.ndarray, times: np.ndarray,
                  columns: np.ndarray, check_tail: bool = True) -> np.ndarray:
        """Integrals over the grid of each column of ``columns`` (nfreq, w)
        times the density sum_a |U_a(xi, t)|^2 of the (nfreq, 6) data
        evolved by ``prop``: shape (w, ntimes).

        One pass of :meth:`SymbolPropagator.plancherel_sums` reduces every
        column with the weights times it.  With ``check_tail`` (the
        default) it refuses (with the edge values of the first offending
        (column, t), column-major) where the integrand at a grid edge
        exceeds 1e-12 times its peak at that time.  A propagator over
        another grid is refused.
        """
        if not np.array_equal(prop.grid, self.grid):
            raise PreconditionError("the propagator was built over another grid than the rule's")
        sums, peak, edges = prop.plancherel_sums(values0, times, self.weights[:, None] * columns,
                                                 columns if check_tail else None)
        if check_tail:
            edge = edges.max(axis=1)
            bad = np.argwhere((peak > 0.0) & (edge > _TAIL_RTOL * peak))
            if bad.size:
                o, q = bad[0]
                raise TailMassError(
                    f"integrand tail at grid edge = {edge[o, q]:.3e} exceeds "
                    f"{_TAIL_RTOL:.0e} x peak ({peak[o, q]:.3e}); widen the grid",
                    edge_values=(float(edges[o, 0, q]), float(edges[o, 1, q])))
        return sums
