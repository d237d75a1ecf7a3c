"""Linear-algebra kernels for absorbing and irreducible Markov chains.

An absorbing chain is solved block by block along the condensation of its
transient states (Stewart 1994): level by level, from the components next
to absorption up, each component's hitting rows follow from those of the
levels below.  Every absorbing solve takes this one path with one of two
block kernels: `_solve_block`, dense with numpy for small blocks and sparse
LU (SuperLU through ``scipy.sparse.linalg.splu``) for large ones, or, for
the epsilon oracle, the subtraction-free `_state_reduction`.  Residual and
invariant checks then raise instead of returning a doubtful answer.  The
almost-linear directed-Laplacian solvers are deliberately out of scope; a
direct solve is exact up to rounding and has no convergence rate to fail on
slowly mixing chains.  All functions are pure and reentrant.

This module imports the `scipy` package alone and spells every call
``scipy.sparse.<name>``, so scipy loads each submodule when a call first
reaches it.  Importing this module loads neither; the exact path loads
``scipy.sparse`` with its first chain, and ``scipy.sparse.linalg`` only
when `_solve_block` meets a component of more than `_DENSE_MAX` states.
"""

from dataclasses import dataclass

import numpy as np
import scipy

from .errors import SolverConvergenceError
from .game import EpsilonMC
from .scc import _edges, component_numbers, condensation_levels

# Blocks of up to this many states are solved dense.  With 2 to 64
# right-hand sides, numpy's LU beat SuperLU on random blocks of every size
# from 8 to 512 states, and on a path, the sparsest strongly connected
# block, up to 96 states.  On the 4,998 inner states of a 5,000-state path
# the dense solve takes 1.8 s, SuperLU about 0.05 s.
_DENSE_MAX = 64


@dataclass(frozen=True)
class StochasticMatrix:
    """Row-stochastic sparse matrix with a mask of absorbing rows.

    Non-absorbing rows must sum to one within 1e-12; absorbing rows store no
    entries, not even zeros (the chain stops there).
    """

    matrix: "scipy.sparse.csr_matrix"
    absorbing: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix is {m.shape}, not square")
        if self.absorbing.shape != (m.shape[0],):
            raise ValueError("absorbing mask length does not match the matrix")
        if not np.all(m.data >= 0):
            raise ValueError("negative or NaN transition probability")
        sums = np.asarray(m.sum(axis=1)).ravel()
        bad = ~self.absorbing & ~(np.abs(sums - 1.0) <= 1e-12)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ValueError(f"row {i} sums to {float(sums[i])!r}, expected 1")
        if np.any(self.absorbing & (np.diff(m.tocsr().indptr) > 0)):
            raise ValueError("absorbing row has outgoing entries")


@dataclass
class AbsorptionResult:
    """Hitting probabilities of an absorbing chain.

    `rows` is ``[H; I]``: the hitting rows of the states `transient`, then
    the unit rows of the states `absorbing`, so `rows[i, j]` is the
    probability that the chain started at state
    ``concatenate([transient, absorbing])[i]`` is absorbed at `absorbing[j]`.
    `residual` is the max-abs residual of the linear system and
    `bound_excess` how far any entry fell outside [0, 1] before clamping.
    """

    rows: np.ndarray
    transient: np.ndarray
    absorbing: np.ndarray
    residual: float
    bound_excess: float

    @property
    def hitting(self) -> np.ndarray:
        """``H``, the transient rows of `rows`, as a view."""
        return self.rows[: self.transient.size]


def _solve_block(A, b: np.ndarray, singular: str, **options) -> np.ndarray:
    """Solve ``A x = b``, every failure a `SolverConvergenceError`.

    A sparse `A` of at most `_DENSE_MAX` rows is solved dense by
    ``np.linalg.solve``, a larger one by ``splu(A, **options)``.  A singular
    `A` is reported as `singular`.  SuperLU raises SystemError ("gstrf was
    called with invalid arguments") when it cannot expand its memory, and
    numpy raises MemoryError; both are reported as allocation failures of
    the solve.
    """
    n = A.shape[0]
    dense = n <= _DENSE_MAX
    try:
        if dense:
            return np.linalg.solve(A.toarray(), b)
        return scipy.sparse.linalg.splu(A.tocsc(), **options).solve(b)
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        raise SolverConvergenceError(f"{singular} ({exc})") from exc
    except (SystemError, MemoryError) as exc:
        kind = "dense solve" if dense else "sparse LU"
        raise SolverConvergenceError(
            f"{kind} of {n} states could not allocate its memory ({exc!r})"
        ) from exc


def stationary_distribution(chain) -> np.ndarray:
    """Stationary distribution of one irreducible row-stochastic chain.

    Parameters
    ----------
    chain : (n, n) ndarray or sparse matrix
        Transition matrix of a strongly connected component.  Rows are
        renormalized to one defensively.

    Returns
    -------
    pi : (n,) ndarray
        The unique probability vector with ``pi @ T = pi``.  Solved by
        `_solve_block` on the balance system ``(T^T - I) pi = 0`` with its
        last equation replaced by ``sum(pi) = 1``: dense up to `_DENSE_MAX`
        states, by sparse LU above.  Being a direct solve, it is correct
        for periodic chains, where power iteration on the raw matrix would
        oscillate.  A singular system, a non-positive or non-finite entry or
        a residual above 1e-10 (or NaN) raises `SolverConvergenceError`: the
        component is not strongly connected.  So does a solve that cannot
        allocate its memory.
    """
    T = scipy.sparse.coo_matrix(chain, dtype=float)
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
    A = scipy.sparse.coo_matrix(
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
    pi = _solve_block(A, b, "singular balance system; component not strongly connected")

    # NaN fails every comparison, so each check holds only for good values.
    if not np.all((pi > 0) & (pi < np.inf)):
        raise SolverConvergenceError(
            "stationary vector has non-positive or non-finite entries;"
            " component not strongly connected"
        )
    pi = pi / pi.sum()
    inflow = np.bincount(dst, weights=pi[src] * p, minlength=n)  # (pi @ T)
    residual = float(np.max(np.abs(inflow - pi)))
    if not residual <= 1e-10:
        raise SolverConvergenceError(f"stationary residual {residual} exceeds 1e-10")
    return pi


def absorption_probabilities(chain: StochasticMatrix, stable: bool = False) -> AbsorptionResult:
    """Hitting probabilities of every absorbing state from every transient one.

    Solves ``(I - Q) H = R``, where Q is the transient-to-transient block and
    R the transient-to-absorbing block, along the condensation of Q: one
    Pearce search finds its components and their levels, and `_level_solve`
    solves them level by level into ``[H; I]``, which the result keeps as
    its `rows`.  The same search checks that no closed class of transient
    states strands the chain.  The result must then pass a 1e-9 residual
    check, a 1e-9 row-sum check and a 1e-9 bound check; entries are clamped
    to [0, 1] only after these, so pathologies surface before cosmetic
    repair.  A singular block, or a solve that cannot allocate its memory,
    raises `SolverConvergenceError`.  A chain without transient states has
    ``[H; I] = I``.

    Exact zeros hold by construction.  Every state of a component reaches
    the same absorbing states, and a component's right-hand sides are sums
    of products of nonnegative numbers from the rows below it.  So the
    column of an absorbing state that a component cannot reach is exactly
    zero, and so is its solution, whatever the block solve pivots on.

    `stable` chooses only the block kernel: state reduction (Grassmann,
    Taksar and Heyman 1985) instead of ``1 - q`` and LU.  Every pivot is
    then a sum of nonnegative terms, so there is no cancellation and the
    result stays componentwise accurate even when escape probabilities are
    tiny, as happens when a vanishing-weight chain is instantiated at a very
    small epsilon.  Only the epsilon oracle uses it.
    """
    mask = chain.absorbing
    absorbing = np.flatnonzero(mask)
    transient = np.flatnonzero(~mask)
    if absorbing.size == 0:
        raise SolverConvergenceError("chain has no absorbing state")
    if transient.size == 0:
        return AbsorptionResult(np.eye(absorbing.size), transient, absorbing, 0.0, 0.0)

    t = transient.size
    rows = chain.matrix.tocsr()[transient][:, np.concatenate([transient, absorbing])]  # [Q R]
    Q = rows[:, :t]
    numbers = component_numbers(Q)
    levels = condensation_levels(Q, numbers)
    # A component of level 0 with no edge into an absorbing state is closed.
    exits = np.bincount(numbers, weights=np.diff(rows[:, t:].indptr), minlength=t)
    closed = (levels == 0) & (exits[numbers] == 0)
    if closed.any():
        raise SolverConvergenceError(
            f"transient state {transient[np.argmax(closed)]} has no path to an absorbing state"
        )

    HI = _level_solve(rows, numbers, levels, stable)
    H = HI[:t]

    # NaN fails every comparison, so each check is negated; an inf in H
    # leaves inf - inf = NaN in the residual.
    with np.errstate(invalid="ignore"):
        gap = rows @ HI  # Q H + R
        gap -= H
        residual = float(np.max(np.abs(gap, out=gap)))
    if not residual <= 1e-9:
        raise SolverConvergenceError(f"absorption residual {residual} exceeds 1e-9")
    row_sums = H.sum(axis=1)
    worst_row = float(np.max(np.abs(row_sums - 1.0)))
    if not worst_row <= 1e-9:
        i = int(np.argmax(np.abs(row_sums - 1.0)))
        raise SolverConvergenceError(
            f"hitting row for state {transient[i]} sums to {float(row_sums[i])!r}"
        )
    bound_excess = float(max(0.0, -H.min(), H.max() - 1.0))
    if not bound_excess <= 1e-9:
        raise SolverConvergenceError(
            f"hitting probability outside [0, 1] by {bound_excess}"
        )
    np.clip(H, 0.0, 1.0, out=H)  # H is a view, so the clip reaches HI
    return AbsorptionResult(HI, transient, absorbing, residual, bound_excess)


def _level_solve(rows: "scipy.sparse.csr_matrix", numbers: np.ndarray,
                 levels: np.ndarray, stable: bool) -> np.ndarray:
    """``[H; I]`` for the hitting rows ``H = (I - Q)^{-1} R``, where
    ``rows = [Q R]``, solved along the condensation of Q, level by level.

    `numbers` and `levels` are each transient state's component number and
    level.  Taken by level, then component, each level and each component
    is one contiguous range of states.  ``[H; I]`` starts with ``H = 0``
    and each level's rows are written after those of the levels below, so
    one sparse product of a level's rows of ``[Q R]`` gives its right-hand
    sides ``B = [Q_out R] [H; I]``: its in-component edges read rows that
    are still zero.  With the column indices sorted, each sum adds the
    leaving edges in column order, as a product over them alone would.  A
    single state's row is then ``B / (1 - q)``, with ``q`` its self-loop,
    and each larger component solves ``(I - Q_in) H = B`` by `_solve_block`,
    ``Q_in`` cut from the same rows; with `stable`, a single state divides
    ``B`` by its row sum, its exit mass, and a component goes to `_state_reduction`.
    """
    t, k = numbers.size, rows.shape[1] - numbers.size
    order = np.lexsort((numbers, levels))
    ordered = rows[order]  # rows taken in that order, columns as in `rows`
    ordered.sort_indices()
    scale = 1.0 - rows.diagonal()[order]
    numbers, levels = numbers[order], levels[order]
    level_bounds = np.searchsorted(levels, np.arange(levels[-1] + 2))
    starts = np.flatnonzero(np.diff(numbers, prepend=-1))
    ends = np.append(starts[1:], t)
    big = ends - starts > 1
    blocks = [[] for _ in range(levels[-1] + 1)]
    for a, b in zip(starts[big].tolist(), ends[big].tolist()):
        blocks[levels[a]].append((a, b))

    HI = np.zeros((t + k, k))
    HI[t:] = np.eye(k)
    for lo, hi, level_blocks in zip(level_bounds[:-1].tolist(), level_bounds[1:].tolist(), blocks):
        B = ordered[lo:hi] @ HI
        divisor = B.sum(axis=1) if stable else scale[lo:hi]
        # A divisor is 0 only for a state whose other entries are stored
        # zeros: its row is NaN or inf, which the residual check reports.
        with np.errstate(divide="ignore", invalid="ignore"):
            HI[order[lo:hi]] = B / divisor[:, None]
        for a, b in level_blocks:
            members = order[a:b]
            inside = ordered[a:b][:, members]
            if stable:
                HI[members] = _state_reduction(inside, B[a - lo : b - lo])
                continue
            # I - Q is a nonsingular M-matrix with weakly dominant rows, so
            # SuperLU's diagonal pivots are stable.  COLAMD in symmetric
            # mode was the fastest ordering measured on game chains.
            HI[members] = _solve_block(
                scipy.sparse.eye(b - a, format="csr") - inside,
                B[a - lo : b - lo], "absorption system is singular", permc_spec="COLAMD",
                diag_pivot_thresh=0.0, options={"SymmetricMode": True},
            )
    return HI


def _state_reduction(inside: "scipy.sparse.csr_matrix", B: np.ndarray) -> np.ndarray:
    """``(I - Q_in)^{-1} B`` for one component, by censoring elimination of
    its augmented chain ``W = [Q_in | B]``, then back-substitution.

    `W` is filled in place from the entries of `inside` (Q_in) and `B`.
    Every quantity is a sum or product of nonnegative numbers, and each
    pivot is its row's sum without its self-loop, which keeps this accurate
    where exits are tiny and LU loses digits to cancellation.  States are
    eliminated from the last down, in place: a pivot row stays in `W` for
    the back-substitution, and only its nonzero columns in the live rows
    entering it are updated.
    """
    m = inside.shape[0]
    try:
        W = np.zeros((m, m + B.shape[1]))
        np.add.at(W, _edges(inside), inside.data)
        W[:, m:] = B
        for i in range(m - 1, -1, -1):
            W[i, i] = 0.0  # a self-loop never affects absorption
            W[i] /= W[i].sum()  # eliminated columns are zero already
            live, cols = np.flatnonzero(W[:i, i]), np.flatnonzero(W[i])  # live rows are below i
            W[np.ix_(live, cols)] += np.outer(W[live, i], W[i, cols])
            W[live, i] = 0.0
        for i in range(1, m):  # row i's transient entries point to rows already solved
            W[i, m:] += W[i, :i] @ W[:i, m:]
    except MemoryError as exc:
        raise SolverConvergenceError(
            f"state reduction of {m} states could not allocate its memory ({exc!r})"
        ) from exc
    return W[:, m:]


def chain_matrix(chain: EpsilonMC, nodes: np.ndarray) -> StochasticMatrix:
    """Concrete stochastic matrix of a chain whose epsilon edges are gone.

    `nodes[i]` gives the chain node id sitting at matrix index `i`.
    """
    busy = np.flatnonzero(np.diff(chain.eps.indptr)[nodes])
    if busy.size:
        raise ValueError(f"node {nodes[busy[0]]} still has epsilon edges")
    return StochasticMatrix(chain.reg[nodes][:, nodes], chain.absorbing[nodes])


def oracle_hitting_at_epsilon(chain: EpsilonMC, eps: float) -> AbsorptionResult:
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
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and positive, got {eps}")
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
    matrix = scipy.sparse.csr_matrix(
        (vals, (np.concatenate([reg.row, tie.row]), np.concatenate([reg.col, tie.col]))),
        shape=(n, n),
    )
    return absorption_probabilities(StochasticMatrix(matrix, chain.absorbing[nodes]), stable=True)
