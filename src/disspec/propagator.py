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
W phi(t) with phi_i = t^{p_i} e^{lambda_i t}/p_i! and W the lower-triangular
Newton/Hermite weight matrix of the nodes (:func:`_newton_weights`; p_i is
the node's position in its run of exactly equal nodes, the confluent
entries).  W has no time axis; it is folded into the Q chain once per
frequency, B = Q W, and e^{t Phi_r} Y = sum_i B_i phi_i(t).

Real contraction.  The eigen solve is of the real Phi_r, so complex nodes
come in pairs that are conjugate bit for bit, and for real Y the state is
real: a pair (i, j) of equal power contributes Re((B_j + conj B_i) phi_j).
A real coefficient matrix C times a real basis psi(t) then gives the state
(:func:`_real_coefficients`, :func:`_basis`): psi holds e^{lambda t} of each
real node (a real exp) and Re and Im of one complex exp per pair, so a
(spectrum, time) cell costs one complex exp per pair, one real exp per real
node and no division.  Times where eps |Im lambda| t exceeds _PHASE_LOSS,
the phase error that the rounding of lambda leaves, are refused.

One rule (:func:`_ambiguous`) sends every other node set (an unequal pair
closer than _GAP_AMBIGUOUS, equal nodes apart in the given order, or a
complex node without a conjugate partner of equal power) to one
double-precision route: r is the first column of exp(t J), J lower
bidiagonal with the nodes on its diagonal, computed for a whole batch of
(nodes, time) rows at once by shifted scaling and squaring with the
diagonal and first subdiagonal recomputed exactly at every level
(:func:`_r_bidiag`), which stays accurate for clusters of any width and at
large |lambda| t.  The scaling-and-squaring Pade exponential (scipy) and a
50-digit evaluation of the same bidiagonal exponential (mpmath) serve as
the independent oracles in the tests and are never used on the Putzer path.

The frequency axis is a batch dimension: a grid of frequencies gets one
batched eigen solve, and the weights and the basis are evaluated once per
distinct spectrum (they depend only on the nodes and t, and a symmetric
grid repeats each spectrum at +-xi).  The basis is contracted with the
coefficients of its frequencies by one real batched matmul per chunk of
rows, so Plancherel norms are reduced chunk by chunk
(:meth:`SymbolPropagator.density`, :func:`plancherel_norms`) without ever
holding the (times, frequencies, 6) trajectory.

:class:`SymbolPropagator` is the only entry point to e^{t Phi}, and the
route rule is consulted only there.  One frequency is a grid of one, and
the matrix exponential e^{t Phi(i xi)} is the propagation of the identity
block: ``SymbolPropagator(p, [xi]).propagate_many(np.eye(6)[None], [t])[0, 0]``.

All eigenvalue orderings here are descending real part, ties by ascending
imaginary part; the assembled exponential is order-invariant (tested).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .core_model import (_REAL_SIMILARITY, SystemParams, real_symbol_stack,
                         symbol_stack)
from .errors import PreconditionError, SolverError, TailMassError
from .spectral import eigenvalues_batch

__all__ = [
    "FourierState",
    "default_grid",
    "energy_audit",
    "EnergyRecord",
    "plancherel_norm",
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
#: anyway while the cluster mean is trace-accurate, and the confluent
#: evaluation then applies (Phi - mean)^m, which is small there
_SNAP_ST = 4e-5
#: Re(lambda) * t below this underflows e^{lambda t} to exactly zero
_EXP_FLOOR = -745.0
#: eps |Im lambda| t above this refuses: lambda carries a relative rounding
#: of eps, so the phase of e^{lambda t} is off by up to that many radians
_PHASE_LOSS = 1e-6
#: p! for the confluent basis functions t^p e^{lambda t}/p!
_FACTORIAL = np.array([1.0, 1.0, 2.0, 6.0, 24.0, 120.0])
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


def _snap_clusters(lam: np.ndarray, tol, trace=None) -> np.ndarray:
    """Snap transitively-linked clusters (link distance <= tol) to their mean.

    lam   : (m, n) nodes per row.
    tol   : scalar or (m,) link distance per row.
    trace : None or (m,) matrix traces.  When supplied, each row's sum
            defect (trace minus node sum) is folded into its snapped
            members: cluster means are then exact to the accuracy of the
            non-clustered nodes, which matters at defective points where the
            individual cluster members carry O(eps^(1/m)) noise.
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
    if trace is not None:
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


def _layout(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(power, partner) of every node of every row, both (m, n).

    power[:, i] is the node's position in its run of exactly equal adjacent
    nodes, so its basis function is phi_i(t) = t^power e^{lambda_i t}/power!.
    partner[:, i] is the node with the conjugate value and the same power:
    i itself for a real node, and -1 where no node qualifies.
    """
    power = np.zeros(lam.shape, dtype=np.intp)
    for i in range(1, lam.shape[1]):
        power[:, i] = np.where(lam[:, i] == lam[:, i - 1], power[:, i - 1] + 1, 0)
    match = ((lam.conj()[:, :, None] == lam[:, None, :])
             & (power[:, :, None] == power[:, None, :]))
    return power, np.where(match.any(axis=2), match.argmax(axis=2), -1)


def _newton_weights(lam: np.ndarray, power: np.ndarray) -> np.ndarray:
    """Newton/Hermite weights: W of shape (m, n, n), lower triangular, with
    r_{j+1}(t) = sum_i W[:, j, i] phi_i(t) for every t.

    The divided-difference table over the nodes in their given order, run
    on the basis functions instead of on their values, so it has no time
    axis.  Level 0 holds e^{lambda_i t}, the unit vector of the first node
    of i's run.  After level d, entry i is the divided difference over
    lambda_{i-d}..lambda_i, so entry d is final and is row d of W.  Where
    the end nodes of a level coincide, so do all nodes between them (equal
    nodes are adjacent), and the entry is the confluent t^d e^{lambda t}/d!:
    the unit vector of the run's node of power d.
    """
    n = lam.shape[1]
    eye = np.eye(n)
    start = np.arange(n) - power
    D = eye[start].astype(complex)
    gap = lam[:, :, None] - lam[:, None, :]
    equal = gap == 0.0
    inverse = 1.0 / np.where(equal, 1.0, gap)
    confluent = (power > 0).any()
    for d in range(1, n):
        # diagonal -d of the gaps: lambda_i - lambda_{i-d} for i = d..n-1
        D[:, d:] = (D[:, d:] - D[:, d - 1:-1]) * np.diagonal(inverse, -d, 1, 2)[..., None]
        if confluent:
            at = np.diagonal(equal, -d, 1, 2)
            D[:, d:][at] = eye[start[:, d:][at] + d]
    return D


def _basis(lam: np.ndarray, power: np.ndarray, partner: np.ndarray,
           t: np.ndarray) -> np.ndarray:
    """The real basis psi of shape (m, n, nt) for rows of paired nodes.

    A real node's slot holds phi_i(t), from one real exponential.  A
    conjugate pair (i, j) with Im lambda_j > 0 holds Re phi_j in slot i and
    Im phi_j in slot j, both from one complex exponential; phi_i is
    conj(phi_j), since the pair has one power.
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
    powered = power > 0
    if powered.any():
        p = power[powered][:, None]
        psi[powered] *= t ** p / _FACTORIAL[p]
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
    """(m,) rows of nodes the Newton/Hermite weights cannot take: some
    unequal pair closer than _GAP_AMBIGUOUS (the divided differences would
    cancel), equal nodes that are not adjacent (the Hermite rule needs them
    so), or a complex node without an exact conjugate partner of equal
    power (the real contraction needs one; ``partner`` is that of
    :func:`_layout`, computed here when not given)."""
    gaps = np.abs(lam[:, :, None] - lam[:, None, :])
    close = ((gaps > 0.0) & (gaps < _GAP_AMBIGUOUS)).any(axis=(1, 2))
    distinct = (~np.tril(gaps == 0.0, -1).any(axis=2)).sum(axis=1)
    runs = 1 + np.count_nonzero(lam[:, 1:] != lam[:, :-1], axis=1)
    if partner is None:
        partner = _layout(lam)[1]
    unpaired = (partner < 0).any(axis=1)
    return close | (distinct != runs) | unpaired


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
    t: float

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        if grid.ndim != 1 or np.any(np.diff(grid) <= 0):
            raise PreconditionError("grid must be a 1-d strictly increasing array")
        if self.values.shape != (len(grid), 6):
            raise PreconditionError(
                f"values must have shape (len(grid), 6), got {self.values.shape}")

    def energy(self) -> np.ndarray:
        """Per-frequency energy 0.5 |U_hat|^2."""
        return 0.5 * np.sum(np.abs(self.values) ** 2, axis=1)

    def dissipation(self) -> np.ndarray:
        """Per-frequency gamma1 |y_hat|^2 + gamma2 |eta_hat|^2."""
        return (self.params.gamma1 * np.abs(self.values[:, 3]) ** 2
                + self.params.gamma2 * np.abs(self.values[:, 5]) ** 2)


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
    Putzer order, so exactly equal eigenvalues are adjacent and conjugate
    pairs share one run of equal real parts) and builds the real similar
    symbol stack ``Phi_r`` = S^-1 Phi S.  The complex ``Phi`` is built only
    when read.  The Newton weights depend only on the nodes, so the rows are
    reduced to their distinct spectra once, one per distinct |xi| (``nodes``,
    with ``row`` mapping each frequency to its spectrum; on a symmetric grid
    +-xi share one).

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
        _, first, self.row = np.unique(np.abs(self.grid), return_index=True,
                                       return_inverse=True)
        self.nodes = self.lambdas[first]
        self.Phi_r = real_symbol_stack(params, self.grid)
        self._power, self._partner = _layout(self.nodes)
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
        lam, power, partner = (self.nodes[spectra], self._power[spectra],
                               self._partner[spectra])
        ok = ~self._ambiguous_nodes[spectra]
        if ok.all():
            return _newton_weights(lam, power), _basis(lam, power, partner, times)
        W = np.zeros(lam.shape + (6,), dtype=complex)
        psi = np.zeros(lam.shape + times.shape)
        W[ok] = _newton_weights(lam[ok], power[ok])
        psi[ok] = _basis(lam[ok], power[ok], partner[ok], times)
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

    def _real_states(self, X: np.ndarray, keep: np.ndarray, times: np.ndarray):
        """Yield (rows, V) chunk by chunk: V[k, a, m, q] is component a of
        e^{t Phi_r} Y at frequency rows[k], column m and time times[q], all
        real, for the real columns Y = :func:`_real_columns` (X, keep) of a
        (nfreq, 6, c) block X."""
        nt, m = len(times), len(keep)
        # e^{0 Phi_r} = I exactly, where the rows j > 1 of W sum to zero
        # only up to rounding
        zero = times == 0.0
        # bytes per spectrum: its basis and the exponentials behind it, its
        # rows' states, and their chains and coefficients
        rows_per = len(self.row) / len(self.nodes)
        step = max(1, int(_CHUNK_BYTES / (48 * (2 * nt + rows_per * m * (nt + 60)))))
        starts = np.arange(0, len(self.nodes) + step, step)
        by_spectrum = np.argsort(self.row, kind="stable")
        bounds = np.searchsorted(self.row[by_spectrum], starts)
        for s, lo, hi in zip(starts[:-1], bounds[:-1], bounds[1:]):
            rows = by_spectrum[lo:hi]
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
            yield rows, V

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
        trajectory.
        """
        times = self._times(times)
        X = values0 if values0.ndim == 3 else values0[..., None]
        keep = _nonzero_columns(X)
        dens = np.empty((len(self.grid), len(keep), len(times)))
        for rows, V in self._real_states(X, keep, times):
            dens[rows] = np.einsum("kamt,kamt->kmt", V, V)
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
        identity up to signs, one real 6x6 SVD per frequency and time.
        """
        times = self._times(times)
        eye = np.broadcast_to(np.eye(6, dtype=complex), (len(self.grid), 6, 6))
        out = np.empty((len(self.grid), len(times)))
        for rows, V in self._real_states(eye, _nonzero_columns(eye), times):
            out[rows] = np.linalg.norm(V, ord=2, axis=(1, 2))
        return out


@dataclass(frozen=True)
class EnergyRecord:
    t: float
    E_hat: np.ndarray
    dissipation: np.ndarray


def energy_audit(state: FourierState, dt: float,
                 propagator: SymbolPropagator | None = None):
    """Audit the energy identity dE/dt = -(gamma1 |y|^2 + gamma2 |eta|^2).

    Central difference of the energy across [t, t+dt] against the
    dissipation at the midpoint state; the residual is O(dt^2) thanks to the
    exact propagation.  Returns (record_at_t, record_at_t+dt, max_residual).
    """
    if dt <= 0:
        raise PreconditionError("dt must be positive")
    if propagator is None:
        propagator = SymbolPropagator(state.params, state.grid)
    vals_half = propagator.apply(state.values, 0.5 * dt)
    vals_full = propagator.apply(state.values, dt)
    s_half = replace(state, values=vals_half, t=state.t + 0.5 * dt)
    s_full = replace(state, values=vals_full, t=state.t + dt)

    dE = (s_full.energy() - state.energy()) / dt
    diss = s_half.dissipation()
    residual = float(np.max(np.abs(dE + diss)))
    rec0 = EnergyRecord(t=state.t, E_hat=state.energy(), dissipation=state.dissipation())
    rec1 = EnergyRecord(t=s_full.t, E_hat=s_full.energy(), dissipation=s_full.dissipation())
    return rec0, rec1, residual


def plancherel_norms(grid: np.ndarray, density: np.ndarray, j: int,
                     tail_rtol: float = 1e-12, check_tail: bool = True) -> np.ndarray:
    """Squared Sobolev seminorms at several times: trapezoid of
    |xi|^{2j} density over the grid.

    density : (nfreq, ntimes) values of sum_a |U_a|^2, as returned by
              :meth:`SymbolPropagator.density`.
    Returns shape (ntimes,).  Refuses (with the edge values of the first
    offending time) when the integrand at a grid edge exceeds ``tail_rtol``
    times its peak at that time, since the missing tail mass would then
    pollute the value.
    """
    if j < 0 or int(j) != j:
        raise PreconditionError(f"derivative order must be a nonnegative integer, got {j}")
    # (ntimes, nfreq), so each time's sum runs over a contiguous row
    integrand = np.abs(grid) ** (2 * j) * np.ascontiguousarray(density.T)
    if check_tail:
        peak = integrand.max(axis=1)
        edge = np.maximum(integrand[:, 0], integrand[:, -1])
        bad = np.flatnonzero((peak > 0.0) & (edge > tail_rtol * peak))
        if bad.size:
            q = bad[0]
            raise TailMassError(
                f"integrand tail at grid edge = {edge[q]:.3e} exceeds "
                f"{tail_rtol:.0e} x peak ({peak[q]:.3e}); widen the grid",
                edge_values=(float(integrand[q, 0]), float(integrand[q, -1])))
    return np.trapezoid(integrand, grid, axis=-1)


def plancherel_norm(state: FourierState, j: int,
                    tail_rtol: float = 1e-12, check_tail: bool = True) -> float:
    """Squared Sobolev seminorm of one state: :func:`plancherel_norms` at one time."""
    density = np.sum(np.abs(state.values) ** 2, axis=1)[:, None]
    return float(plancherel_norms(state.grid, density, j, tail_rtol, check_tail)[0])
