"""Exact-in-time evolution of the Fourier modes via Putzer's algorithm.

e^{t Phi} X is assembled without eigenvectors as sum_j r_{j+1}(t) Q_j with
the Q chain Q_0 = X, Q_j = (Phi - lambda_j I) Q_{j-1} built on the data
block X itself, and r solving the triangular chain r_1' = lambda_1 r_1,
r_j' = lambda_j r_j + r_{j-1}, r(0) = e_1.  The factors commute, so X = I
gives the classical P chain P_j = prod_{k<=j} (Phi - lambda_k I); the
matrix exponential and operator norms are that case of the same path.

For pairwise well-separated eigenvalues the r_j are divided differences of
exp(. t) over lambda_1..lambda_j.  One Newton table over the six nodes in
their given order yields all six at once: the table's entry of level j - 1
is r_j, so a (frequency, time) cell costs 6 exponentials and 15 divisions,
and one exponential less per exactly conjugate pair of nodes, whose second
member takes the conjugate of the first's.
Exact repeats use the confluent (Hermite) entries t^m e^{lambda t}/m!,
which needs equal nodes to sit next to each other; the Putzer order below
guarantees that for the solver's eigenvalues.  One rule (:func:`_ambiguous`)
sends every other node set (an unequal pair closer than _GAP_AMBIGUOUS, or
equal nodes apart in the given order) to one double-precision route: r is
the first column of exp(t J), J lower bidiagonal with the nodes on its
diagonal, computed for a whole batch of (nodes, time) rows at once by
shifted scaling and squaring with the diagonal and first subdiagonal
recomputed exactly at every level (:func:`_r_bidiag`), which stays accurate
for clusters of any width and at large |lambda| t.
The scaling-and-squaring Pade exponential (scipy) and a 50-digit
evaluation of the same bidiagonal exponential (mpmath) serve as the
independent oracles in the tests and are never used on the Putzer path.

The frequency axis is a batch dimension: a grid of frequencies gets one
batched eigen solve and one table evaluation per distinct spectrum for all
times (r depends only on the nodes and t, and a symmetric grid repeats each
spectrum at +-xi).  The table is node-major, (6, spectra, times) contiguous
planes, and is contracted with the Q chains of the data by one batched
matmul per chunk of rows, so Plancherel norms are reduced chunk by chunk
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

import numpy as np

from .core_model import SystemParams, symbol_stack
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

#: below this absolute gap the float divided-difference table is unreliable
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
#: bytes of r table plus Q chains and states per chunk of the SymbolPropagator
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


def _safe_exp(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp into ``out`` with explicit underflow-to-zero; overflow (Re z > 700)
    is an error."""
    _check_overflow(z.real)
    with np.errstate(under="ignore"):
        np.exp(z, out=out)
    out[z.real < _EXP_FLOOR] = 0.0
    return out


def _check_overflow(re: np.ndarray) -> None:
    if np.any(re > 700.0):
        raise SolverError(f"exp overflow: Re(lambda t) = {re.max():.3g} > 700 "
                          "(growing mode propagated too far)")


def _conjugate_mirror(lam: np.ndarray) -> np.ndarray:
    """(m, 6) index of the node whose exponentials give this node's by
    conjugation, or -1.

    In Putzer order a conjugate pair sits in one run of exactly equal real
    parts, at mirror positions lo + hi - i of the run lo..hi.  A node with
    Im < 0 points at its mirror when that node is exactly its conjugate;
    the mirror then lies after it and has Im > 0.  Rows in any other order
    simply fail the check.
    """
    m, n = lam.shape
    idx = np.arange(n)
    starts = np.ones((m, n), dtype=bool)
    starts[:, 1:] = lam.real[:, 1:] != lam.real[:, :-1]
    ends = np.ones((m, n), dtype=bool)
    ends[:, :-1] = starts[:, 1:]
    lo = np.maximum.accumulate(np.where(starts, idx, 0), axis=1)
    hi = np.minimum.accumulate(np.where(ends, idx, n - 1)[:, ::-1], axis=1)[:, ::-1]
    mirror = lo + hi - idx
    partner = np.take_along_axis(lam, mirror, axis=1)
    exact = (lam.imag < 0.0) & (mirror > idx) & (partner == lam.conj())
    return np.where(exact, mirror, -1)


def _r_table(lam: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Newton/Hermite table of r_1..r_6 for every row of nodes and every time.

    lam : (m, 6) nodes per row; equal nodes must be adjacent for the
          Hermite rule.
    t   : (nt,) times.
    Returns r of shape (6, m, nt), node-major: r[j] is the contiguous
    (m, nt) plane of r_{j+1}.

    The table is built in place in the result.  Its level 0 holds
    e^{lam_i t}; exp(conj z) is conj(exp z) bit for bit, so a node that is
    exactly the conjugate of its mirror node (:func:`_conjugate_mirror`)
    takes the conjugate of that node's row instead of its own
    exponentials, and only nodes without such a partner call exp.  After
    level d, entry i holds the divided difference over lam_{i-d}..lam_i,
    so entry d is final and equals r_{d+1}.  Where the end nodes of a level
    coincide, all nodes between them do too, and the entry is the
    confluent t^d e^{lam t}/d!: the entry below it times t/d.  Levels
    without such rows take the plain divide.
    """
    r = np.empty((6, len(lam), len(t)), dtype=complex)
    mirror = _conjugate_mirror(lam)
    # mirrors lie after their nodes, so each is filled before it is read
    for i in range(5, -1, -1):
        own = mirror[:, i] < 0
        if own.all():
            _safe_exp(lam[:, i, None] * t[None, :], out=r[i])
            continue
        z = lam[own, i, None] * t[None, :]
        r[i, own] = _safe_exp(z, out=np.empty_like(z))
        rows = np.flatnonzero(~own)
        e = np.conjugate(r[mirror[rows, i], rows])
        # conj signs a zero imaginary part, where exp(lam t) has the floor's
        # +0 or, at t = 0 or in underflow, exp's own: set those cells anew
        q, c = np.nonzero(e.imag == 0.0)
        z = lam[rows[q], i] * t[c]
        live = z.real >= _EXP_FLOOR
        e[q, c] = 0.0
        e[q[live], c[live]] = _safe_exp(z[live], out=np.empty_like(z[live]))
        r[i, rows] = e
    for d in range(1, 6):
        for i in range(5, d - 1, -1):
            dz = lam[:, i] - lam[:, i - d]
            conf = dz == 0.0
            ri = r[i]
            if not conf.any():
                ri -= r[i - 1]
                ri /= dz[:, None]
                continue
            hermite = ri[conf] * (t / d)
            ri -= r[i - 1]
            np.divide(ri, dz[:, None], out=ri, where=~conf[:, None])
            ri[conf] = hermite
    return r


def _r_bidiag(lam: np.ndarray, t: np.ndarray) -> np.ndarray:
    """r_1..r_n at one time per row, for nodes in any order and clustering.

    lam : (m, n) nodes per row.
    t   : (m,) times.
    Returns r of shape (n, m), node-major like :func:`_r_table`.

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


def _ambiguous(lam: np.ndarray) -> np.ndarray:
    """(m,) rows of nodes the Newton/Hermite table cannot take: some unequal
    pair closer than _GAP_AMBIGUOUS (the divided differences would cancel),
    or equal nodes that are not adjacent (the Hermite rule needs them so)."""
    gaps = np.abs(lam[:, :, None] - lam[:, None, :])
    close = ((gaps > 0.0) & (gaps < _GAP_AMBIGUOUS)).any(axis=(1, 2))
    distinct = (~np.tril(gaps == 0.0, -1).any(axis=2)).sum(axis=1)
    runs = 1 + np.count_nonzero(lam[:, 1:] != lam[:, :-1], axis=1)
    return close | (distinct != runs)


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
    Putzer order, so exactly equal eigenvalues are adjacent) and builds the
    symbol stack by broadcasting.  The r functions depend only on the nodes
    and t, so the rows are reduced to their distinct spectra once (``nodes``,
    with ``row`` mapping each frequency to its spectrum; on a symmetric grid
    +-xi share one).  Every evaluation applies e^{t Phi} to a data block of
    shape (nfreq, 6) or (nfreq, 6, c) chunk by chunk: a run of spectra gets
    its slice of one Newton/Hermite table, node-major as (6, spectra,
    times), its frequencies get the Q chains of their data, and one batched
    matmul sums r_{j+1} Q_j.  A chunk's table and states hold about
    ``_CHUNK_BYTES``, so no (frequencies, 6, 6, 6) chain, whole table or
    (times, frequencies, 6) trajectory is made unless asked for.  The
    (frequency, time) pairs of ambiguous spectra (:func:`_ambiguous`, flagged
    in ``ambiguous``) take one :func:`_exp_bidiag` call per chunk.
    """

    def __init__(self, params: SystemParams, grid: np.ndarray):
        self.params = params
        self.grid = np.asarray(grid, dtype=float)
        self.lambdas, _ = eigenvalues_batch(params, self.grid)
        self.nodes, self.row = np.unique(self.lambdas, axis=0, return_inverse=True)
        self.Phi = symbol_stack(params, self.grid)
        self._ambiguous_nodes = _ambiguous(self.nodes)
        self.ambiguous = self._ambiguous_nodes[self.row]

    def _table(self, times: np.ndarray, spectra: slice = slice(None)) -> np.ndarray:
        """r of the distinct spectra in ``spectra``: (6, spectra, ntimes),
        node-major; rows of ambiguous spectra are zero.  Every evaluation
        passes here first, so negative and non-finite times are refused
        here."""
        if not np.all(np.isfinite(times) & (times >= 0)):
            raise PreconditionError(f"times must be finite and >= 0, got {times}")
        r = _r_table(self.nodes[spectra], times)
        r[:, self._ambiguous_nodes[spectra]] = 0.0
        return r

    def r_many(self, times: np.ndarray) -> np.ndarray:
        """r_j(t) for the non-ambiguous frequencies: shape (nfreq, ntimes, 6).

        Rows of ambiguous frequencies are zeros; the propagation methods
        route those through :func:`_exp_bidiag` instead.
        """
        times = np.atleast_1d(np.asarray(times, dtype=float))
        return np.moveaxis(self._table(times), 0, -1)[self.row]

    def states(self, values0: np.ndarray, times: np.ndarray):
        """Yield (rows, U) chunk by chunk: U[k, a, ..., q] is component a of
        the state at frequency rows[k] and time times[q] (a 1-d array); the
        middle axis is the column of a (nfreq, 6, c) block and absent for
        (nfreq, 6).  Every evaluation method reduces this stream.
        """
        X = values0 if values0.ndim == 3 else values0[..., None]
        nt = len(times)
        # bytes per spectrum: its table row plus its rows' Q chains and states
        rows_per = len(self.row) / len(self.nodes)
        step = max(1, int(_CHUNK_BYTES / (96 * (nt + X.shape[2] * (nt + 6) * rows_per))))
        starts = np.arange(0, len(self.nodes) + step, step)
        by_spectrum = np.argsort(self.row, kind="stable")
        bounds = np.searchsorted(self.row[by_spectrum], starts)
        for s, lo, hi in zip(starts[:-1], bounds[:-1], bounds[1:]):
            rows = by_spectrum[lo:hi]
            table = self._table(times, slice(s, s + step)).transpose(1, 0, 2)
            Q = _q_chain(self.Phi[rows], self.lambdas[rows], X[rows])
            U = _putzer_sum(Q, table[self.row[rows] - s])       # (k, 6, c, nt)
            amb = np.flatnonzero(self.ambiguous[rows])
            if amb.size:
                i = np.repeat(rows[amb], nt)
                E = _exp_bidiag(self.Phi[i], self.lambdas[i], np.tile(times, amb.size), X[i])
                U[amb] = np.moveaxis(E.reshape(amb.size, nt, *X.shape[1:]), 1, -1)
            yield rows, U.reshape(len(rows), *values0.shape[1:], nt)

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
        block.  The Plancherel integrand of :func:`plancherel_norms`,
        reduced chunk by chunk without holding the trajectory.
        """
        times = np.atleast_1d(np.asarray(times, dtype=float))
        out = np.empty((len(self.grid),) + values0.shape[2:] + (len(times),))
        for rows, U in self.states(values0, times):
            sq = np.square(U.view(float), out=U.view(float)).sum(axis=1)
            out[rows] = sq[..., 0::2] + sq[..., 1::2]
        return out

    def operator_norms(self, times: np.ndarray) -> np.ndarray:
        """2-norm of e^{Phi t} per frequency and time: shape (nfreq, ntimes).

        The propagation of the identity block, reduced chunk by chunk.
        """
        times = np.atleast_1d(np.asarray(times, dtype=float))
        eye = np.broadcast_to(np.eye(6, dtype=complex), (len(self.grid), 6, 6))
        out = np.empty((len(self.grid), len(times)))
        for rows, U in self.states(eye, times):
            out[rows] = np.linalg.norm(U, ord=2, axis=(1, 2))
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
