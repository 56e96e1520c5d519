"""Exact-in-time evolution of the Fourier modes via Putzer's algorithm.

e^{t Phi} is assembled without eigenvectors as sum_j r_{j+1}(t) P_j with
P_0 = I, P_j = prod_{k<=j} (Phi - lambda_k I), and r solving the triangular
chain r_1' = lambda_1 r_1, r_j' = lambda_j r_j + r_{j-1}, r(0) = e_1.

For pairwise well-separated eigenvalues the r_j are divided differences of
exp(. t) over lambda_1..lambda_j.  One Newton table over the six nodes in
their given order yields all six at once: the table's entry of level j - 1
is r_j, so a (frequency, time) cell costs 6 exponentials and 15 divisions.
Exact repeats use the confluent (Hermite) entries t^m e^{lambda t}/m!,
which needs equal nodes to sit next to each other; the Putzer order below
guarantees that for the solver's eigenvalues, and a caller-supplied order
with separated equal nodes takes the chain integration instead.
Ambiguously clustered spectra fall back to direct integration of the chain
(adaptive RK for moderate |lambda| t, high-precision bidiagonal exponential
beyond), which has no cancellation problem.  The scaling-and-squaring Pade
exponential (scipy) serves as the independent oracle in the tests and is
never used on the Putzer path.

The frequency axis is a batch dimension: a grid of frequencies gets one
batched eigen solve, one batched matmul per step of the P chain, and one
table evaluation per distinct spectrum for all times (r depends only on the
nodes and t, and a symmetric grid repeats each spectrum at +-xi).  The
table is node-major, (6, spectra, times) contiguous planes, and is
contracted with the data by one batched matmul per chunk of rows, so
Plancherel norms are reduced chunk by chunk (:meth:`SymbolPropagator.density`,
:func:`plancherel_norms`) without ever holding the (times, frequencies, 6)
trajectory.  The single-frequency entry points (putzer_r,
putzer_workspace) are n = 1 calls of the same code.

All eigenvalue orderings here are descending real part, ties by ascending
imaginary part; the assembled exponential is order-invariant (tested).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core_model import SystemParams, SymbolMatrix, symbol_stack
from .errors import PreconditionError, SolverError, TailMassError
from .spectral import eigenvalues, eigenvalues_batch

__all__ = [
    "putzer_r",
    "PutzerWorkspace",
    "putzer_workspace",
    "matrix_exp",
    "FourierState",
    "default_grid",
    "evolve",
    "energy_audit",
    "EnergyRecord",
    "plancherel_norm",
    "plancherel_norms",
    "SymbolPropagator",
]

#: below this absolute gap the float divided-difference table is unreliable
#: for higher-order clusters (calibrated: a 3-cluster at gap 1e-4 already
#: loses ~8 digits); such spectra take the ODE-chain route instead
_GAP_AMBIGUOUS = 1e-3
#: snapping a cluster of diameter s to its mean costs at most
#: ~(s t)^2/2 * e^{Re lambda t}, so clusters with s t below this are merged;
#: at (near-)defective points the individual roots carry O(eps^(1/m)) noise
#: anyway while the cluster mean is trace-accurate, and the confluent
#: evaluation then applies (Phi - mean)^m, which is small there
_SNAP_ST = 4e-5
#: Re(lambda) * t below this underflows e^{lambda t} to exactly zero
_EXP_FLOOR = -745.0
#: r-table bytes per chunk of the SymbolPropagator contraction
_CHUNK_BYTES = 2 ** 20


def _snap_clusters(lam: np.ndarray, tol: float,
                   trace: complex | None = None) -> np.ndarray:
    """Snap transitively-linked clusters (link distance <= tol) to their mean.

    When the matrix trace is supplied, the sum defect (trace minus node sum)
    is folded into the snapped members: cluster means are then exact to the
    accuracy of the non-clustered nodes, which matters at defective points
    where the individual cluster members carry O(eps^(1/m)) noise.
    """
    lam = lam.copy()
    n = len(lam)
    group = np.arange(n)

    def find(i):
        while group[i] != i:
            group[i] = group[group[i]]
            i = group[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(lam[i] - lam[j]) <= tol:
                group[find(i)] = find(j)
    snapped = np.zeros(n, dtype=bool)
    for root in set(find(i) for i in range(n)):
        members = np.array([find(i) == root for i in range(n)])
        if members.sum() > 1:
            lam[members] = lam[members].mean()
            snapped |= members
    if trace is not None and snapped.any():
        lam[snapped] += (trace - lam.sum()) / snapped.sum()
    return lam


def _snap_tol(scale: float, t: float) -> float:
    return max(1e-13 * scale, _SNAP_ST / max(t, 1.0))


def _safe_exp(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp into ``out`` with explicit underflow-to-zero; overflow (Re z > 700)
    is an error."""
    re = z.real
    if np.any(re > 700.0):
        raise SolverError(f"exp overflow: Re(lambda t) = {re.max():.3g} > 700 "
                          "(growing mode propagated too far)")
    with np.errstate(under="ignore"):
        np.exp(z, out=out)
    out[re < _EXP_FLOOR] = 0.0
    return out


def _r_table(lam: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Newton/Hermite table of r_1..r_6 for every row of nodes and every time.

    lam : (m, 6) nodes per row; equal nodes must be adjacent for the
          Hermite rule.
    t   : (nt,) times.
    Returns r of shape (6, m, nt), node-major: r[j] is the contiguous
    (m, nt) plane of r_{j+1}.

    The table is built in place in the result.  After level d, entry i
    holds the divided difference over lam_{i-d}..lam_i, so entry d is final
    and equals r_{d+1}.  Where the end nodes of a level coincide, all nodes
    between them do too, and the entry is the confluent t^d e^{lam t}/d!:
    the entry below it times t/d.  Levels without such rows take the plain
    divide.
    """
    r = np.empty((6, len(lam), len(t)), dtype=complex)
    for i in range(6):
        _safe_exp(lam[:, i, None] * t[None, :], out=r[i])
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


def _equal_nodes_adjacent(lam: np.ndarray) -> bool:
    return len(np.unique(lam)) == 1 + np.count_nonzero(lam[1:] != lam[:-1])


def _r_ode_chain(lam: np.ndarray, t: float) -> np.ndarray:
    """Adaptive integration of the triangular chain (cancellation-free)."""
    from scipy.integrate import solve_ivp

    n = len(lam)
    J = np.diag(lam) + np.diag(np.ones(n - 1), -1).astype(complex)

    def rhs(_, y):
        yc = y[:n] + 1j * y[n:]
        d = J @ yc
        return np.concatenate([d.real, d.imag])

    y0 = np.zeros(2 * n)
    y0[0] = 1.0
    sol = solve_ivp(rhs, (0.0, t), y0, method="DOP853", rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise SolverError(f"r-chain integration failed: {sol.message}")
    y = sol.y[:, -1]
    return y[:n] + 1j * y[n:]


def _r_chain_mp(lam: np.ndarray, t: float) -> np.ndarray:
    """High-precision evaluation of the same chain for large |lambda| t."""
    import mpmath as mp

    n = len(lam)
    with mp.workdps(50):
        J = mp.zeros(n)
        for i in range(n):
            J[i, i] = mp.mpc(lam[i]) * t
            if i:
                J[i, i - 1] = t
        E = mp.expm(J)
        return np.array([complex(E[i, 0]) for i in range(n)])


def putzer_r(lambdas: np.ndarray, t: float) -> np.ndarray:
    """The six chain functions r_1(t)..r_6(t) for the given eigenvalue order.

    Dispatch: exact repeats (below 1e-13 relative) collapse onto the
    confluent (Hermite) table entries; with all remaining pairwise gaps
    >= 1e-3 and equal nodes adjacent in the given order, the float
    divided-difference table applies; anything else integrates the chain
    directly (near clusters are resolvable there while the table would
    cancel catastrophically).  The wider, time-aware cluster
    snapping lives in the matrix assembly, which rebuilds its P chain on the
    snapped nodes; here the nodes are honored as given.
    """
    lam = np.asarray(lambdas, dtype=complex)
    t = float(t)
    if t < 0 or not np.isfinite(t):
        raise PreconditionError(f"time must be finite and >= 0, got {t}")
    if t == 0.0:
        r = np.zeros(len(lam), dtype=complex)
        r[0] = 1.0
        return r
    scale = max(1.0, float(np.abs(lam).max()))
    lam = _snap_clusters(lam, 1e-13 * scale)
    gaps = np.abs(lam[:, None] - lam[None, :])[np.triu_indices(len(lam), 1)]
    unequal = gaps[gaps > 0]
    if ((unequal.size == 0 or unequal.min() >= _GAP_AMBIGUOUS)
            and _equal_nodes_adjacent(lam)):
        return _r_table(lam[None], np.array([t]))[:, 0, 0]
    if scale * t <= 500.0:
        return _r_ode_chain(lam, t)
    return _r_chain_mp(lam, t)


@dataclass(frozen=True)
class PutzerWorkspace:
    """Eigenvalues in the fixed order and the matrix chain P_0..P_6.

    P[6] is the full product over all six factors; by Cayley-Hamilton it
    vanishes up to roundoff, and its norm is kept as a health indicator.
    """

    lambdas: np.ndarray
    P: tuple[np.ndarray, ...]
    cayley_residual: float


def _p_chain(Phi: np.ndarray, lam: np.ndarray, count: int = 6) -> np.ndarray:
    """P_0..P_{count-1} for a stack of symbols: shape (n, count, 6, 6).

    P_0 = I and P_j = P_{j-1} (Phi - lambda_j I), one batched matmul per j.
    """
    eye = np.eye(6)
    P = np.empty((len(Phi), count, 6, 6), dtype=complex)
    P[:, 0] = eye
    for j in range(1, count):
        np.matmul(P[:, j - 1], Phi - lam[:, j - 1, None, None] * eye, out=P[:, j])
    return P


def putzer_workspace(symbol: SymbolMatrix, params: SystemParams | None = None,
                     lambdas: np.ndarray | None = None) -> PutzerWorkspace:
    """Build the P_j products for one symbol matrix."""
    if lambdas is None:
        if params is None:
            raise PreconditionError("need params to solve for eigenvalues")
        lambdas = eigenvalues(params, symbol.xi).eigenvalues
    lam = np.asarray(lambdas, dtype=complex)
    P = _p_chain(symbol.Phi[None], lam[None], count=7)[0]
    return PutzerWorkspace(lambdas=lam, P=tuple(P),
                           cayley_residual=float(np.linalg.norm(P[6], 2)))


def _assemble_exp(Phi: np.ndarray, lambdas: np.ndarray, t: float) -> np.ndarray:
    """Snap, rebuild the P chain on the snapped nodes, and assemble.

    The r functions and the P products must use identical nodes; since the
    snap tolerance depends on t, clustered spectra rebuild their (cheap)
    6-step matrix chain here.
    """
    scale = max(1.0, float(np.abs(lambdas).max()))
    lam = _snap_clusters(np.asarray(lambdas, complex), _snap_tol(scale, t),
                         trace=complex(np.trace(Phi)))
    r = putzer_r(lam, t)
    return np.einsum("j,jab->ab", r, _p_chain(Phi[None], lam[None])[0])


def matrix_exp(symbol: SymbolMatrix, t: float,
               params: SystemParams | None = None,
               workspace: PutzerWorkspace | None = None) -> np.ndarray:
    """e^{Phi(i xi) t} assembled as sum_j r_{j+1}(t) P_j."""
    if t < 0:
        raise PreconditionError(f"time must be >= 0, got {t}")
    if workspace is None:
        workspace = putzer_workspace(symbol, params=params)
    lam = workspace.lambdas
    scale = max(1.0, float(np.abs(lam).max()))
    snapped = _snap_clusters(lam, _snap_tol(scale, t),
                             trace=complex(np.trace(symbol.Phi)))
    if not np.array_equal(snapped, lam):
        return _assemble_exp(symbol.Phi, lam, t)
    r = putzer_r(lam, t)
    out = np.zeros((6, 6), dtype=complex)
    for j in range(6):
        out += r[j] * workspace.P[j]
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
    Putzer order, so exactly equal eigenvalues are adjacent), builds the
    symbol stack by broadcasting, and the P_j chain with one batched matmul
    per j.  The r functions depend only on the nodes and t, so the rows are
    reduced to their distinct spectra once (``nodes``, with ``row`` mapping
    each frequency to its spectrum; on a symmetric grid +-xi share one).
    Every evaluation runs one Newton/Hermite table over the distinct
    spectra, node-major as (6, spectra, times), and contracts it with the
    data by one batched matmul per chunk, U_n(t) = Q_n^T r(t) with
    Q_n[j] = P_j U_n(0).  A chunk is a run of spectra whose table slice
    holds about ``_CHUNK_BYTES``, so neither the whole table nor a (times,
    frequencies, 6) trajectory is made unless asked for; ``density``
    reduces each chunk to sum_a |U_a|^2 at once.  Frequencies
    whose spectra are ambiguously clustered (absolute gap below 1e-3) are
    flagged and handled per-frequency through :func:`putzer_r`.
    """

    def __init__(self, params: SystemParams, grid: np.ndarray):
        self.params = params
        self.grid = np.asarray(grid, dtype=float)
        self.lambdas, _ = eigenvalues_batch(params, self.grid)
        self.nodes, self.row = np.unique(self.lambdas, axis=0, return_inverse=True)
        self.Phi = symbol_stack(params, self.grid)
        self.P = _p_chain(self.Phi, self.lambdas)                 # (freq, j, 6, 6)
        gaps = np.abs(self.nodes[:, :, None] - self.nodes[:, None, :])
        iu = np.triu_indices(6, 1)
        pair_gaps = gaps[:, iu[0], iu[1]]
        min_nonzero = np.where(pair_gaps == 0.0, np.inf, pair_gaps).min(axis=1)
        # ambiguous: some unequal pair closer than the table tolerance;
        # those frequencies are assembled per time with t-aware snapping
        self._ambiguous_nodes = np.isfinite(min_nonzero) & (min_nonzero < _GAP_AMBIGUOUS)
        self.ambiguous = self._ambiguous_nodes[self.row]

    def _table(self, times: np.ndarray, spectra: slice = slice(None)) -> np.ndarray:
        """r of the distinct spectra in ``spectra``: (6, spectra, ntimes),
        node-major; rows of ambiguous spectra are zero."""
        r = _r_table(self.nodes[spectra], times)
        r[:, self._ambiguous_nodes[spectra]] = 0.0
        return r

    def r_many(self, times: np.ndarray) -> np.ndarray:
        """r_j(t) for the non-ambiguous frequencies: shape (nfreq, ntimes, 6).

        Rows of ambiguous frequencies are zeros; callers route those
        through the per-time assembly instead.
        """
        times = np.atleast_1d(np.asarray(times, dtype=float))
        return np.moveaxis(self._table(times), 0, -1)[self.row]

    def _exp_ambiguous(self, i: int, t: float) -> np.ndarray:
        return _assemble_exp(self.Phi[i], self.lambdas[i], t)

    def _states(self, values0: np.ndarray, times: np.ndarray):
        """Yield (rows, U) chunk by chunk: U[k, a, q] is component a of the
        state at frequency rows[k] and time times[q].

        A chunk is a run of distinct spectra: its slice of the table, then
        one batched matmul Q_n^T r(t) for the frequencies that share them.
        """
        Qt = np.einsum("njab,nb->naj", self.P, values0)            # Q_n^T
        step = max(1, _CHUNK_BYTES // (96 * len(times)))
        starts = np.arange(0, len(self.nodes) + step, step)
        by_spectrum = np.argsort(self.row, kind="stable")
        bounds = np.searchsorted(self.row[by_spectrum], starts)
        for s, lo, hi in zip(starts[:-1], bounds[:-1], bounds[1:]):
            rows = by_spectrum[lo:hi]
            table = self._table(times, slice(s, s + step)).transpose(1, 0, 2)
            U = Qt[rows] @ table[self.row[rows] - s]                # (c, 6, nt)
            for k in np.flatnonzero(self.ambiguous[rows]):
                i = rows[k]
                for q, t in enumerate(times):
                    U[k, :, q] = self._exp_ambiguous(i, t) @ values0[i]
            yield rows, U

    def apply(self, values: np.ndarray, dt: float) -> np.ndarray:
        """Propagate a (nfreq, 6) state matrix by time dt."""
        if dt == 0.0:
            return values.copy()
        return self.propagate_many(values, np.array([dt]))[0]

    def propagate_many(self, values0: np.ndarray, times: np.ndarray) -> np.ndarray:
        """States at several absolute times from one initial state.

        Returns shape (ntimes, nfreq, 6); times measured from the state's
        own clock (pass absolute offsets).
        """
        times = np.atleast_1d(np.asarray(times, dtype=float))
        out = np.empty((len(times), len(self.grid), 6), dtype=complex)
        for rows, U in self._states(values0, times):
            out[:, rows] = U.transpose(2, 0, 1)
        return out

    def density(self, values0: np.ndarray, times: np.ndarray) -> np.ndarray:
        """sum_a |U_a(t)|^2 per frequency and time: shape (nfreq, ntimes).

        The Plancherel integrand of :func:`plancherel_norms`, reduced chunk
        by chunk without holding the trajectory.
        """
        times = np.atleast_1d(np.asarray(times, dtype=float))
        out = np.empty((len(self.grid), len(times)))
        for rows, U in self._states(values0, times):
            sq = np.square(U.view(float), out=U.view(float)).sum(axis=1)
            out[rows] = sq[:, 0::2] + sq[:, 1::2]
        return out

    def operator_norms(self, times: np.ndarray) -> np.ndarray:
        """2-norm of e^{Phi t} per frequency and time: shape (nfreq, ntimes)."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        n = len(self.grid)
        E = (self.r_many(times) @ self.P.reshape(n, 6, 36)).reshape(n, len(times), 6, 6)
        nrm = np.linalg.norm(E, ord=2, axis=(2, 3))
        for i in np.nonzero(self.ambiguous)[0]:
            for q, t in enumerate(times):
                nrm[i, q] = np.linalg.norm(self._exp_ambiguous(i, t), 2)
        return nrm


def evolve(state: FourierState, t_target: float) -> FourierState:
    """Advance the state to t_target by per-frequency Putzer exponentials.

    Exact in time: no stepping error beyond the matrix-exponential accuracy.
    """
    if t_target < state.t:
        raise PreconditionError(f"t_target={t_target} is before state.t={state.t}")
    if t_target == state.t:
        return state
    prop = SymbolPropagator(state.params, state.grid)
    new_values = prop.apply(state.values, t_target - state.t)
    return replace(state, values=new_values, t=t_target)


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
