"""Linear-algebra kernels for absorbing and irreducible Markov chains.

Every chain, whatever its size, is solved by one sparse LU factorization
(SuperLU through ``scipy.sparse.linalg.splu``), followed by residual and
invariant checks that raise instead of returning a doubtful answer.  The
almost-linear directed-Laplacian solvers are deliberately out of scope; a
direct factorization is exact up to rounding and has no convergence rate to
fail on slowly mixing chains.  The epsilon oracle alone uses a dense
subtraction-free state reduction instead.  All functions are pure and
reentrant.

``scipy.sparse.linalg`` is reached as ``sp.linalg`` inside the functions, so
that importing this module does not pay for loading it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from .errors import SolverConvergenceError

if TYPE_CHECKING:  # pragma: no cover
    from .epsmc import EpsilonMC



@dataclass(frozen=True)
class StochasticMatrix:
    """Row-stochastic sparse matrix with a mask of absorbing rows.

    Non-absorbing rows must sum to one within 1e-12; absorbing rows carry no
    out-probability (the chain stops there).
    """

    matrix: sp.csr_matrix
    absorbing: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix is {m.shape}, not square")
        if self.absorbing.shape != (m.shape[0],):
            raise ValueError("absorbing mask length does not match the matrix")
        if m.nnz and m.data.min() < 0:
            raise ValueError("negative transition probability")
        sums = np.asarray(m.sum(axis=1)).ravel()
        bad = ~self.absorbing & (np.abs(sums - 1.0) > 1e-12)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ValueError(f"row {i} sums to {sums[i]!r}, expected 1")
        if np.any(self.absorbing & (sums != 0.0)):
            raise ValueError("absorbing row has outgoing probability")

    @property
    def num_states(self) -> int:
        return self.matrix.shape[0]


@dataclass
class AbsorptionResult:
    """Hitting probabilities of an absorbing chain.

    `hitting[i, j]` is the probability that the chain started at transient
    state `transient[i]` is absorbed at state `absorbing[j]`; `residual` is
    the max-abs residual of the linear system and `bound_excess` how far any
    entry fell outside [0, 1] before clamping.
    """

    hitting: np.ndarray
    transient: np.ndarray
    absorbing: np.ndarray
    residual: float
    bound_excess: float


def stationary_distribution(chain, tol: float = 1e-12) -> np.ndarray:
    """Stationary distribution of one irreducible row-stochastic chain.

    Parameters
    ----------
    chain : (n, n) ndarray or sparse matrix
        Transition matrix of a strongly connected component.  Rows are
        renormalized to one defensively.

    Returns
    -------
    pi : (n,) ndarray
        The unique probability vector with ``pi @ T = pi``.  Solved by one
        sparse LU factorization of the balance system ``(T^T - I) pi = 0``
        with its last equation replaced by ``sum(pi) = 1``.  Being a
        direct solve, it is correct for periodic chains, where power
        iteration on the raw matrix would oscillate.  A singular system, a
        non-positive entry or a residual above 1e-10 raises
        `SolverConvergenceError`: the component is not strongly connected.
    """
    T = sp.coo_matrix(chain, dtype=float)
    n = T.shape[0]
    if T.shape != (n, n):
        raise ValueError(f"transition matrix is {T.shape}, not square")
    if n == 1:
        return np.array([1.0])
    src, dst = T.row, T.col
    sums = np.bincount(src, weights=T.data, minlength=n)
    if np.any(sums <= 0):
        raise SolverConvergenceError(
            "component has a node with no internal transitions; not irreducible"
        )
    p = T.data / sums[src]

    # Assembled from triplets: sparse algebra costs about 0.2 ms per
    # operation, several times the whole solve of a small component.
    keep = dst != n - 1
    A = sp.csc_matrix(
        (
            np.concatenate([p[keep], np.full(n - 1, -1.0), np.ones(n)]),
            (
                np.concatenate([dst[keep], np.arange(n - 1), np.full(n, n - 1)]),
                np.concatenate([src[keep], np.arange(n - 1), np.arange(n)]),
            ),
        ),
        shape=(n, n),
    )
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        lu = sp.linalg.splu(A)
    except RuntimeError as exc:
        raise SolverConvergenceError(
            f"singular balance system; component not strongly connected ({exc})"
        ) from exc
    pi = lu.solve(b)

    if np.any(pi <= 0):
        raise SolverConvergenceError(
            "stationary vector has non-positive entries; component not strongly connected"
        )
    pi = pi / pi.sum()
    inflow = np.bincount(dst, weights=pi[src] * p, minlength=n)  # (pi @ T)
    residual = float(np.max(np.abs(inflow - pi)))
    if residual > 1e-10:
        raise SolverConvergenceError(f"stationary residual {residual} exceeds 1e-10")
    return pi


def absorption_probabilities(chain: StochasticMatrix, stable: bool = False) -> AbsorptionResult:
    """Hitting probabilities of every absorbing state from every transient one.

    Solves ``(I - Q) H = R``, where Q is the transient-to-transient block and
    R the transient-to-absorbing block, by one sparse LU factorization of
    ``I - Q`` and one multi-column solve against all of R, at every size.
    The result must then pass a 1e-9 residual check, a 1e-9 row-sum check
    and a 1e-9 bound check; entries are clamped to [0, 1] only after these,
    so pathologies surface before cosmetic repair.  A singular factorization
    raises `SolverConvergenceError`.

    With ``stable=True`` the system is solved by state-reduction elimination
    instead (dense, cubic): each pivot ``1 - p_kk`` is formed as the sum of
    the off-diagonal row entries, so there is no cancellation and the result
    stays componentwise accurate even when escape probabilities are tiny, as
    happens when a vanishing-weight chain is instantiated at a very small
    epsilon.  Only the epsilon oracle uses it.
    """
    mask = chain.absorbing
    absorbing = np.flatnonzero(mask)
    transient = np.flatnonzero(~mask)
    if absorbing.size == 0:
        raise SolverConvergenceError("chain has no absorbing state")
    if transient.size == 0:
        return AbsorptionResult(
            np.zeros((0, absorbing.size)), transient, absorbing, 0.0, 0.0
        )

    _check_absorption_reachable(chain.matrix, mask)
    csr = chain.matrix.tocsr()
    Q = csr[transient][:, transient]
    R = csr[transient][:, absorbing].toarray()

    if stable:
        H = _state_reduction_hitting(csr.toarray(), mask)
    else:
        # I - Q is a nonsingular M-matrix with weakly dominant rows, so
        # diagonal pivots are stable; unlike row interchanges they also keep
        # exact zeros for the sinks a state cannot reach.  COLAMD in
        # symmetric mode was the fastest ordering measured on game chains.
        A = (sp.eye(transient.size, format="csc") - Q).tocsc()
        try:
            lu = sp.linalg.splu(
                A, permc_spec="COLAMD", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        except RuntimeError as exc:
            raise SolverConvergenceError(f"absorption system is singular ({exc})") from exc
        H = lu.solve(R)

    residual = float(np.max(np.abs(H - (Q @ H + R))))
    if residual > 1e-9:
        raise SolverConvergenceError(f"absorption residual {residual} exceeds 1e-9")
    row_sums = H.sum(axis=1)
    worst_row = float(np.max(np.abs(row_sums - 1.0)))
    if worst_row > 1e-9:
        i = int(np.argmax(np.abs(row_sums - 1.0)))
        raise SolverConvergenceError(
            f"hitting row for state {transient[i]} sums to {row_sums[i]!r}"
        )
    bound_excess = float(max(0.0, np.max(-H, initial=0.0), np.max(H - 1.0, initial=0.0)))
    if bound_excess > 1e-9:
        raise SolverConvergenceError(
            f"hitting probability outside [0, 1] by {bound_excess}"
        )
    H = np.clip(H, 0.0, 1.0)
    return AbsorptionResult(H, transient, absorbing, residual, bound_excess)


def _state_reduction_hitting(P: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Censoring elimination of the transient states, then back-substitution.

    Every quantity is a sum or product of nonnegative numbers, which is what
    makes this accurate on nearly-reducible chains where LU loses digits to
    cancellation in the pivots.
    """
    n = P.shape[0]
    work = P.astype(float).copy()
    np.fill_diagonal(work, 0.0)  # self-loops never affect absorption
    transient = np.flatnonzero(~mask)
    absorbing = np.flatnonzero(mask)
    alive = np.ones(n, dtype=bool)
    stack = []
    for k in transient[::-1]:
        alive[k] = False
        row = work[k].copy()
        row[~alive] = 0.0
        denom = row.sum()
        if denom <= 0.0:
            raise SolverConvergenceError(
                f"transient state {k} has no path to an absorbing state"
            )
        row /= denom
        stack.append((k, row))
        factor = work[:, k].copy()
        factor[~alive] = 0.0
        work += np.outer(factor, row)
        work[:, k] = 0.0
        work[k, :] = 0.0
    hrows = np.zeros((n, absorbing.size))
    for j, a in enumerate(absorbing):
        hrows[a, j] = 1.0
    for k, row in reversed(stack):
        hrows[k] = row @ hrows
    return hrows[transient]


def _check_absorption_reachable(matrix: sp.spmatrix, mask: np.ndarray) -> None:
    """BFS on the reversed graph; every transient state must reach absorption."""
    csc = matrix.tocsc()
    n = matrix.shape[0]
    seen = mask.copy()
    frontier = list(np.flatnonzero(mask))
    while frontier:
        nxt = []
        for v in frontier:
            sources = csc.indices[csc.indptr[v] : csc.indptr[v + 1]]
            for s in sources:
                if not seen[s]:
                    seen[s] = True
                    nxt.append(int(s))
        frontier = nxt
    if not seen.all():
        offender = int(np.flatnonzero(~seen)[0])
        raise SolverConvergenceError(
            f"transient state {offender} has no path to an absorbing state"
        )


def chain_matrix(chain: "EpsilonMC", nodes: list[int] | None = None) -> StochasticMatrix:
    """Concrete stochastic matrix of a chain whose epsilon edges are gone.

    `nodes[i]` gives the chain node id sitting at matrix index `i`.
    """
    if nodes is None:
        nodes = chain.live_nodes()
    busy = np.flatnonzero(np.diff(chain.eps.indptr)[nodes])
    if busy.size:
        raise ValueError(f"node {nodes[busy[0]]} still has epsilon edges")
    mask = np.isin(nodes, list(chain.absorbing))
    return StochasticMatrix(chain.reg[nodes][:, nodes], mask)


def oracle_hitting_at_epsilon(chain: "EpsilonMC", eps: float) -> AbsorptionResult:
    """Solve the chain with the vanishing weight frozen at a concrete `eps`.

    Each epsilon edge gets weight ``coeff * eps`` and the node's regular
    weights are scaled by one minus that mass, which keeps rows stochastic
    and preserves the limit.  A node with only epsilon edges would formally
    keep the residual mass as a self-loop; since self-loops do not change
    absorption probabilities, such rows are renormalized to the exact
    coefficient ratios instead, which keeps the system well-conditioned for
    very small `eps`.

    Matrix index `i` corresponds to ``chain.live_nodes()[i]``.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    nodes = chain.live_nodes()
    n = len(nodes)
    reg = chain.reg[nodes][:, nodes].tocoo()
    tie = chain.eps[nodes][:, nodes].tocoo()
    eps_mass = np.bincount(tie.row, weights=tie.data * eps, minlength=n)
    too_big = np.flatnonzero(eps_mass >= 1.0)
    if too_big.size:
        i = too_big[0]
        raise ValueError(
            f"eps={eps} too large: node {nodes[i]} gets epsilon mass {eps_mass[i]} >= 1"
        )
    has_reg = np.bincount(reg.row, minlength=n) > 0
    tie_total = np.bincount(tie.row, weights=tie.data, minlength=n)
    vals = np.concatenate([
        reg.data * (1.0 - eps_mass[reg.row]),
        np.where(has_reg[tie.row], tie.data * eps, tie.data / tie_total[tie.row]),
    ])
    matrix = sp.csr_matrix(
        (vals, (np.concatenate([reg.row, tie.row]), np.concatenate([reg.col, tie.col]))),
        shape=(n, n),
    )
    mask = np.isin(nodes, list(chain.absorbing))
    return absorption_probabilities(StochasticMatrix(matrix, mask), stable=True)
