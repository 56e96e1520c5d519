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
it is folded into the Q chain once per frequency, B = Q W, and
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

The frequency axis is a batch dimension: a grid of frequencies gets one
batched eigen solve, and the weights and the basis are evaluated once per
distinct spectrum (they depend only on the nodes and t, and a symmetric
grid repeats each spectrum at +-xi).  The basis is contracted with the
coefficients of its frequencies by one real batched matmul per chunk of
rows, so Plancherel norms are reduced chunk by chunk
(:meth:`SymbolPropagator.density`, :func:`plancherel_norms`) without ever
holding the (times, frequencies, 6) trajectory.  Where the answer is even
in xi, the rows themselves are reduced to one per distinct |xi|:
Phi_r(-xi) = J Phi_r(xi) J with J = diag(1, -1, -1, 1, -1, 1), so operator
norms are always even, and densities are even for data that are Hermitian
bit for bit (:meth:`SymbolPropagator._hermitian`); the mirrored rows copy
the first row of their |xi|.  Operator norms come from one batched
eigvalsh of the Gram matrices of the real 6x6 e^{t Phi_r}, each scaled by
its largest entry.

:class:`SymbolPropagator` is the only entry point to e^{t Phi}, and the
route rule is consulted only there.  One frequency is a grid of one, and
the matrix exponential e^{t Phi(i xi)} is the propagation of the identity
block: ``SymbolPropagator(p, [xi]).propagate_many(np.eye(6)[None], [t])[0, 0]``.

All eigenvalue orderings here are descending real part, ties by ascending
imaginary part; the assembled exponential is order-invariant (tested).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core_model import (_REAL_SIMILARITY, SystemParams, real_symbol_stack,
                         symbol_stack)
from .errors import PreconditionError, SolverError, TailMassError
from .spectral import eigenvalues_batch

__all__ = [
    "FourierState",
    "default_grid",
    "plancherel_norms",
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
    somewhere on the grid (the first if none is), found in slices of rows
    of about ``_CHUNK_BYTES``."""
    nonzero = np.zeros(2 * X.shape[2], dtype=bool)
    step = max(1, _CHUNK_BYTES // (X[0].size * 32))
    for lo in range(0, len(X), step):
        nonzero |= _real_columns(X[lo:lo + step]).any(axis=(0, 1))
    return np.flatnonzero(nonzero) if nonzero.any() else np.zeros(1, dtype=np.intp)


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


@dataclass(frozen=True)
class FourierState:
    """Per-frequency 6-component Fourier data of the first-order unknowns."""

    params: SystemParams
    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        if grid.ndim != 1 or np.any(np.diff(grid) <= 0):
            raise PreconditionError("grid must be a 1-d strictly increasing array")
        if self.values.shape != (len(grid), 6):
            raise PreconditionError(
                f"values must have shape (len(grid), 6), got {self.values.shape}")


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

    Construction makes one batched eigen solve over the grid (rows in
    Putzer order) and builds the real similar symbol stack
    ``Phi_r`` = S^-1 Phi S.  The complex ``Phi`` is built only when read.
    The Newton weights depend only on the nodes, so the rows are reduced to
    their distinct spectra once, one per distinct |xi| (``nodes``, with
    ``row`` mapping each frequency to its spectrum; on a symmetric grid +-xi
    share one).  :meth:`operator_norms`, and :meth:`density` of
    Hermitian data, propagate only the first row of each distinct |xi| and
    scatter the result through ``row``.

    Every evaluation propagates real columns Y of S^-1 X (:func:`_real_columns`)
    by e^{t Phi_r} chunk by chunk: a run of spectra gets its weights W and
    its real basis psi (spectra, slots, times), its frequencies get the Q
    chains of their columns, folded with W into B = Q W and made real
    (:func:`_real_coefficients`), and one real batched matmul gives the
    states.  A chunk's basis, chains and states hold about ``_CHUNK_BYTES``,
    so no (frequencies, 6, 6, 6) chain or (times, frequencies, 6)
    trajectory is made unless asked for.  The (frequency, time) pairs of
    ambiguous spectra (:func:`_ambiguous`, flagged in ``ambiguous``) take
    one :func:`_exp_bidiag` call per chunk, in the same real frame.
    """

    def __init__(self, params: SystemParams, grid: np.ndarray):
        self.params = params
        self.grid = np.asarray(grid, dtype=float)
        self.lambdas, _ = eigenvalues_batch(params, self.grid)
        # the spectrum depends on |xi| only, and the rows at +-xi are bitwise
        # equal, so the distinct |xi| index the distinct spectra
        _, self._first, self.row = np.unique(np.abs(self.grid), return_index=True,
                                             return_inverse=True)
        self.nodes = self.lambdas[self._first]
        self.Phi_r = real_symbol_stack(params, self.grid)
        self._partner = _partners(self.nodes)
        self._ambiguous_nodes = _ambiguous(self.nodes, self._partner)
        self.ambiguous = self._ambiguous_nodes[self.row]
        self._phase_rate = np.finfo(float).eps * np.abs(self.nodes.imag).max(initial=0.0)

    @cached_property
    def Phi(self) -> np.ndarray:
        """The complex symbol stack Phi(i xi) = S Phi_r S^-1, built on first
        read; the evaluations use ``Phi_r``."""
        return symbol_stack(self.params, self.grid)

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

    def _weights_and_basis(self, spectra: slice, times: np.ndarray):
        """W (s, 6, 6) and psi (s, 6, ntimes) of the distinct spectra in
        ``spectra``; both are zero for ambiguous spectra."""
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

    def _real_states(self, X: np.ndarray, keep: np.ndarray, times: np.ndarray,
                     once: bool = False):
        """Yield (idx, V) chunk by chunk: V[k, a, m, q] is component a of
        e^{t Phi_r} Y at a frequency, column m and time times[q], all real,
        for the real columns Y = :func:`_real_columns` (X, keep) of a
        (nfreq, 6, c) block X.  idx holds the frequency rows of V, or with
        ``once`` its distinct spectra, a run of consecutive ones: then only
        the first row of each distinct |xi| is evaluated, and the caller
        copies V to the other rows of that |xi|."""
        nt, m = len(times), len(keep)
        # e^{0 Phi_r} = I exactly, where the rows j > 1 of W sum to zero
        # only up to rounding
        zero = times == 0.0
        sel = self._first if once else np.arange(len(self.grid))
        spectrum = self.row[sel]
        # bytes per spectrum: its basis and the exponentials behind it, its
        # rows' states, and their chains and coefficients
        rows_per = len(sel) / len(self.nodes)
        step = max(1, int(_CHUNK_BYTES / (48 * (2 * nt + rows_per * m * (nt + 60)))))
        starts = np.arange(0, len(self.nodes) + step, step)
        by_spectrum = np.argsort(spectrum, kind="stable")
        bounds = np.searchsorted(spectrum[by_spectrum], starts)
        for s, lo, hi in zip(starts[:-1], bounds[:-1], bounds[1:]):
            idx = by_spectrum[lo:hi]
            rows = sel[idx]
            W, psi = self._weights_and_basis(slice(s, s + step), times)
            at = self.row[rows] - s
            Y = _real_columns(X[rows], keep)
            Q = _q_chain(self.Phi_r[rows], self.lambdas[rows], Y)
            B = np.moveaxis(Q, 1, -1).reshape(len(rows), 6 * m, 6) @ W[at]
            C = _real_coefficients(B, self.lambdas[rows], self._partner[s + at])
            V = (C @ psi[at]).reshape(len(rows), 6, m, nt)
            amb = np.flatnonzero(self.ambiguous[rows])
            if amb.size:
                i = np.repeat(rows[amb], nt)
                E = _exp_bidiag(self.Phi_r[i], self.lambdas[i], np.tile(times, amb.size),
                                np.repeat(Y[amb], nt, axis=0))
                V[amb] = np.moveaxis(E.real.reshape(amb.size, nt, 6, m), 1, -1)
            V[..., zero] = Y[..., None]
            yield idx, V

    def _hermitian(self, X: np.ndarray) -> bool:
        """Whether X is Hermitian data on the grid, bit for bit: every row r
        that is not the first row f of its |xi| has grid[r] == -grid[f] and
        X[r] == conj X[f].  Then S^-1 X[r] = J conj(S^-1 X[f]) with
        J = diag(1, -1, -1, 1, -1, 1), and J Phi_r(xi) J = Phi_r(-xi), so
        e^{t Phi_r} S^-1 X at r is J times the conjugate of that at f, and
        every density of r equals that of f."""
        first = self._first[self.row]
        r = np.flatnonzero(first != np.arange(len(first)))
        f = first[r]
        return (np.array_equal(self.grid[r], -self.grid[f])
                and np.array_equal(X[r], X[f].conj()))

    def states(self, values0: np.ndarray, times: np.ndarray):
        """Yield (rows, U) chunk by chunk: U[k, a, ..., q] is component a of
        the state at frequency rows[k] and time times[q]; the middle axis is
        the column of a (nfreq, 6, c) block and absent for (nfreq, 6).
        U = S e^{t Phi_r} S^-1 X, assembled from the real stream that
        :meth:`density` reduces.
        """
        times = self._times(times)
        X = values0 if values0.ndim == 3 else values0[..., None]
        keep = _nonzero_columns(X)
        c = X.shape[2]
        re = keep < c
        for rows, V in self._real_states(X, keep, times):
            U = np.zeros((len(rows), 6, c, len(times)), dtype=complex)
            U.real[:, :, keep[re]] = V[:, :, re]
            U.imag[:, :, keep[~re] - c] = V[:, :, ~re]
            U *= _REAL_SIMILARITY[:, None, None]
            yield rows, U.reshape(len(rows), *values0.shape[1:], len(times))

    def apply(self, values: np.ndarray, dt: float) -> np.ndarray:
        """Propagate a (nfreq, 6) state matrix by time dt."""
        if dt == 0.0:
            return values.copy()
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

    def density(self, values0: np.ndarray, times: np.ndarray) -> np.ndarray:
        """sum_a |U_a(t)|^2 per frequency (and block column) and time.

        Shape (nfreq, ntimes), or (nfreq, c, ntimes) for a (nfreq, 6, c)
        block.  The Plancherel integrand of :func:`plancherel_norms`: S is
        unitary, so it is the sum of squares of the real stream's columns
        of each block column, reduced chunk by chunk without holding the
        trajectory.  For Hermitian data (:meth:`_hermitian`) the density is
        even in xi: the stream runs on one row per distinct |xi| and the
        mirrored rows copy it; any other data evaluate every row.
        """
        times = self._times(times)
        X = values0 if values0.ndim == 3 else values0[..., None]
        keep = _nonzero_columns(X)
        once = self._hermitian(X)
        dens = np.empty((len(self.grid), len(keep), len(times)))
        # the rows of each spectrum, so that a chunk writes all its rows and
        # no second (nfreq, ...) array is gathered
        by_spectrum = np.argsort(self.row, kind="stable")
        ends = np.searchsorted(self.row[by_spectrum], np.arange(len(self.nodes) + 1))
        for idx, V in self._real_states(X, keep, times, once):
            d = np.einsum("kamt,kamt->kmt", V, V)
            if once:
                # idx is a run of consecutive spectra a..b-1
                a, b = idx[0], idx[-1] + 1
                idx = by_spectrum[ends[a]:ends[b]]
                d = d[self.row[idx] - a]
            dens[idx] = d
        # fold the real stream's columns onto their block columns
        c = X.shape[2]
        if not np.array_equal(keep % c, np.arange(c)):
            out = np.zeros((len(self.grid), c, len(times)))
            for col, q in enumerate(keep % c):
                out[:, q] += dens[:, col]
            dens = out
        return dens if values0.ndim == 3 else dens[:, 0]

    def operator_norms(self, times: np.ndarray) -> np.ndarray:
        """2-norm of e^{Phi t} per frequency and time: shape (nfreq, ntimes).

        S is unitary, so it is the 2-norm of e^{Phi_r t}: the real columns
        of the identity block are +-e_a, so the stream propagates the real
        identity up to signs.  The norm is even in xi, since
        Phi_r(-xi) = J Phi_r(xi) J with the orthogonal
        J = diag(1, -1, -1, 1, -1, 1), so the stream runs on one row per
        distinct |xi|.  Each 6x6 V is scaled by s = max|V| (1 where V is
        exactly 0), so that its Gram matrix neither underflows nor
        overflows, and ||V||_2 = s sqrt(lambda_max((V/s)^T (V/s))) by one
        batched eigvalsh; the largest eigenvalue of a Gram matrix is
        accurate to rounding relative to itself.
        """
        times = self._times(times)
        eye = np.broadcast_to(np.eye(6, dtype=complex), (len(self.grid), 6, 6))
        out = np.empty((len(self.nodes), len(times)))
        for idx, V in self._real_states(eye, _nonzero_columns(eye), times, once=True):
            V = np.moveaxis(V, -1, 1)                        # (k, nt, 6, 6)
            s = np.abs(V).max(axis=(2, 3), keepdims=True)
            s[s == 0.0] = 1.0
            V = V / s
            gram = np.linalg.eigvalsh(np.swapaxes(V, 2, 3) @ V)[..., -1]
            out[idx] = s[..., 0, 0] * np.sqrt(np.maximum(gram, 0.0))
        return out[self.row]


def _sobolev_integrand(grid: np.ndarray, density: np.ndarray, j: int) -> np.ndarray:
    """|xi|^{2j} density of shape (ntimes, nfreq), so each time's sum runs
    over a contiguous row; density is (nfreq, ntimes).

    Refuses an order that is not a nonnegative integer, and one whose weight
    or weighted density is not finite on the grid (|xi|^{2j} overflows past
    1.8e308, say j = 97 at |xi| = 40), naming the order and the largest |xi|.
    """
    if j < 0 or int(j) != j:
        raise PreconditionError(f"derivative order must be a nonnegative integer, got {j}")
    with np.errstate(over="ignore", invalid="ignore"):
        integrand = np.abs(grid) ** (2 * j) * np.ascontiguousarray(density.T)
    if not np.all(np.isfinite(integrand)):
        raise PreconditionError(
            f"derivative order j = {j} is too high for the grid: |xi|^(2j) times the "
            f"density is not finite up to |xi| = {np.abs(grid).max():.6g}")
    return integrand


#: an integrand at a grid edge above this fraction of its peak refuses
_TAIL_RTOL = 1e-12


def plancherel_norms(grid: np.ndarray, density: np.ndarray, j: int,
                     check_tail: bool = True) -> np.ndarray:
    """Squared Sobolev seminorms at several times: trapezoid of
    |xi|^{2j} density over the grid (:func:`_sobolev_integrand`).

    density : (nfreq, ntimes) values of sum_a |U_a|^2, as returned by
              :meth:`SymbolPropagator.density`.
    Returns shape (ntimes,).  Refuses (with the edge values of the first
    offending time) when the integrand at a grid edge exceeds 1e-12 times
    its peak at that time, since the missing tail mass would then pollute
    the value.
    """
    integrand = _sobolev_integrand(grid, density, j)
    if check_tail:
        peak = integrand.max(axis=1)
        edge = np.maximum(integrand[:, 0], integrand[:, -1])
        bad = np.flatnonzero((peak > 0.0) & (edge > _TAIL_RTOL * peak))
        if bad.size:
            q = bad[0]
            raise TailMassError(
                f"integrand tail at grid edge = {edge[q]:.3e} exceeds "
                f"{_TAIL_RTOL:.0e} x peak ({peak[q]:.3e}); widen the grid",
                edge_values=(float(integrand[q, 0]), float(integrand[q, -1])))
    return np.trapezoid(integrand, grid, axis=-1)
