import os
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.sparse as sp

from sinklimit import (
    EpsilonMC,
    Game,
    SolverConvergenceError,
    StochasticMatrix,
    absorption_probabilities,
    limit_hitting_probabilities,
    oracle_hitting_at_epsilon,
    oracle_hitting_matrix,
    random_game,
    stationary_distribution,
)
from sinklimit import solver
from sinklimit.solver import _DENSE_MAX, _solve_block

from test_acceptance import _tie_game_set
from test_graphs import gray_code_game


def absorbing_chain(P, absorbing) -> StochasticMatrix:
    mask = np.zeros(len(P), dtype=bool)
    mask[list(absorbing)] = True
    return StochasticMatrix(sp.csr_matrix(np.asarray(P, dtype=float)), mask)


def reference_state_reduction_hitting(P: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The dense state reduction the solver ran before its in-place rewrite.

    Every step copies the pivot row and column, zeroes their eliminated
    entries and adds their full n x n outer product to the work matrix.
    """
    n = P.shape[0]
    work = P.astype(float).copy()
    np.fill_diagonal(work, 0.0)
    transient = np.flatnonzero(~mask)
    absorbing = np.flatnonzero(mask)
    alive = np.ones(n, dtype=bool)
    stack = []
    for k in transient[::-1]:
        alive[k] = False
        row = work[k].copy()
        row[~alive] = 0.0
        row /= row.sum()
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


def cycle(n: int) -> sp.csr_matrix:
    """The n-cycle 0 -> 1 -> ... -> n-1 -> 0."""
    return sp.csr_matrix((np.ones(n), (np.arange(n), (np.arange(n) + 1) % n)), shape=(n, n))


def gamblers_ruin(n: int) -> StochasticMatrix:
    """A fair walk on 0..n-1 that stops at both ends: one block of n - 2 states."""
    inner = np.arange(1, n - 1)
    P = sp.csr_matrix(
        (np.full(2 * (n - 2), 0.5), (np.r_[inner, inner], np.r_[inner - 1, inner + 1])),
        shape=(n, n),
    )
    mask = np.zeros(n, dtype=bool)
    mask[[0, n - 1]] = True
    return StochasticMatrix(P, mask)


def identical_interest_game(players: int) -> Game:
    """Every player of `players` x 2 strategies shares one seeded payoff in 0..12."""
    u = np.random.default_rng(0).integers(0, 13, size=2**players).astype(float)
    return Game((2,) * players, (u,) * players)


def path_sum_hitting(P, absorbing, depth=60):
    """Truncated path summation: accumulate probability mass of all paths of
    length <= depth from each transient state into each absorbing one."""
    P = np.asarray(P, dtype=float)
    n = len(P)
    transient = [i for i in range(n) if i not in set(absorbing)]
    Q = P[np.ix_(transient, transient)]
    R = P[np.ix_(transient, list(absorbing))]
    H = np.zeros_like(R)
    walk = np.eye(len(transient))
    for _ in range(depth):
        H += walk @ R
        walk = walk @ Q
    return H


# -- stationary distributions -------------------------------------------------


def test_stationary_single_node():
    assert stationary_distribution(np.array([[0.0]])) == pytest.approx([1.0])


def test_stationary_two_cycle_despite_period_two():
    pi = stationary_distribution(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(pi, [0.5, 0.5], atol=1e-12)


def test_stationary_three_cycle():
    T = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
    np.testing.assert_allclose(stationary_distribution(T), np.full(3, 1 / 3), atol=1e-12)


def test_stationary_random_dense_chain_residual():
    rng = np.random.default_rng(5)
    for n in (4, 17, 60):
        T = rng.random((n, n)) + 1e-3
        T /= T.sum(axis=1, keepdims=True)
        pi = stationary_distribution(T)
        assert abs(pi.sum() - 1.0) <= 1e-12
        assert np.max(np.abs(pi @ T - pi)) < 1e-10
        assert np.all(pi > 0)


def test_stationary_large_periodic_cycle():
    n = 600
    pi = stationary_distribution(cycle(n))
    np.testing.assert_allclose(pi, np.full(n, 1 / n), atol=1e-12)


def test_stationary_rejects_reducible_component():
    T = np.array([[0.0, 1.0], [0.0, 1.0]])
    with pytest.raises(SolverConvergenceError):
        stationary_distribution(T)


# -- absorption ----------------------------------------------------------------


def test_absorption_single_hop():
    chain = absorbing_chain([[0, 1], [0, 0]], [1])
    res = absorption_probabilities(chain)
    np.testing.assert_allclose(res.hitting, [[1.0]])


def test_absorption_two_targets():
    chain = absorbing_chain([[0, 0.3, 0.7], [0, 0, 0], [0, 0, 0]], [1, 2])
    res = absorption_probabilities(chain)
    np.testing.assert_allclose(res.hitting, [[0.3, 0.7]], atol=1e-15)


def test_absorption_gamblers_ruin_vs_path_sum():
    # States 0..4; 0 and 4 absorb; interior moves left/right with prob 1/2.
    P = np.zeros((5, 5))
    for i in (1, 2, 3):
        P[i, i - 1] = 0.5
        P[i, i + 1] = 0.5
    res = absorption_probabilities(absorbing_chain(P, [0, 4]))
    np.testing.assert_allclose(res.hitting[:, 1], [0.25, 0.5, 0.75], atol=1e-12)
    brute = path_sum_hitting(P, [0, 4], depth=60)
    np.testing.assert_allclose(res.hitting, brute, atol=1e-8)


def test_absorption_invariants_on_random_chains():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(5, 30))
        P = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
        absorbing = [0, 1]
        P[absorbing] = 0.0
        # force a positive path to absorption from everywhere
        P[:, 0] += 0.05
        P[absorbing] = 0.0
        sums = P.sum(axis=1, keepdims=True)
        P[2:] /= sums[2:]
        res = absorption_probabilities(absorbing_chain(P, absorbing))
        assert res.residual < 1e-9
        assert res.bound_excess <= 1e-12
        np.testing.assert_allclose(res.hitting.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(res.hitting >= 0) and np.all(res.hitting <= 1)


def test_absorption_slowly_mixing_gamblers_ruin():
    # A fair walk on 0..n-1 needs ~n^2 steps to be absorbed, so any solver
    # whose progress depends on mixing stalls here.
    n = 5000
    inner = np.arange(1, n - 1)
    start = time.perf_counter()
    res = absorption_probabilities(gamblers_ruin(n))
    elapsed = time.perf_counter() - start
    np.testing.assert_allclose(res.hitting[:, 1], inner / (n - 1), rtol=0, atol=1e-9)
    np.testing.assert_allclose(res.hitting[:, 0], 1 - inner / (n - 1), rtol=0, atol=1e-9)
    assert elapsed < 1.0


def test_absorption_large_random_sparse_chain_matches_dense_solve():
    rng = np.random.default_rng(21)
    t, k, per_row = 2100, 30, 4
    n = t + k
    rows = np.repeat(np.arange(t), per_row)
    cols = rng.integers(0, n, size=rows.size)
    keep = rows != cols
    P = sp.csr_matrix(
        (rng.random(keep.sum()) + 0.05, (rows[keep], cols[keep])), shape=(n, n)
    )
    P = P + sp.csr_matrix(
        (np.full(t, 0.02), (np.arange(t), rng.integers(t, n, size=t))), shape=(n, n)
    )
    # Absorbing rows are empty; the clip only keeps their scale finite.
    P = sp.csr_matrix(sp.diags(1.0 / np.asarray(P.sum(axis=1)).ravel().clip(1e-300)) @ P)
    mask = np.zeros(n, dtype=bool)
    mask[t:] = True
    res = absorption_probabilities(StochasticMatrix(P, mask))

    dense = P.toarray()
    Q = dense[:t, :t]
    R = dense[:t, t:]
    reference = np.linalg.solve(np.eye(t) - Q, R)
    np.testing.assert_allclose(res.hitting, reference, rtol=0, atol=1e-12)
    assert res.residual < 1e-9
    assert res.bound_excess <= 1e-12
    np.testing.assert_allclose(res.hitting.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(res.hitting >= 0) and np.all(res.hitting <= 1)


def test_absorption_keeps_exact_zeros_for_unreachable_sinks(monkeypatch):
    # The final chain of this identical-interest game is one where LU with
    # row interchanges turned some zero hitting probabilities into rounding
    # noise; the subtraction-free state reduction is zero exactly where a
    # sink is unreachable.
    u = np.random.default_rng(1).integers(0, 13, size=2**8).astype(float)
    chains = []

    def capture(chain):
        chains.append(chain)
        return absorption_probabilities(chain)

    monkeypatch.setattr("sinklimit.solver.absorption_probabilities", capture)
    limit_hitting_probabilities(Game((2,) * 8, (u,) * 8))
    hitting = absorption_probabilities(chains[0]).hitting
    unreachable = absorption_probabilities(chains[0], stable=True).hitting == 0
    assert unreachable.any()
    assert np.all(hitting[unreachable] == 0.0)


def test_import_leaves_sparse_linalg_unloaded():
    # Loading scipy.sparse costs about 0.1 s, and its linalg (or csgraph,
    # which imports it) tens of milliseconds and about 10 MB of resident
    # memory more; the solver reaches them lazily, and the sink search holds
    # the reduced graph in numpy, so neither `import sinklimit` nor a
    # simulation pays.
    code = (
        "import sys, sinklimit\n"
        "fig2 = sinklimit.Game((3, 3), ([2, 1, 0, 1, 2, 0, 0, 0, 1], [1, 2, 0, 2, 1, 0, 0, 0, 1]))\n"
        "sinklimit.estimate_limit_distribution(fig2, sinklimit.Prior('uniform'),"
        " sinklimit.ReplicatorParams(max_steps=50), runs_per_sample=2, max_samples=2)\n"
        "print([m for m in sys.modules if m.startswith('scipy.sparse')])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_absorption_reports_stranded_state():
    P = np.zeros((3, 3))
    P[0, 1] = 1.0
    P[1, 0] = 1.0
    with pytest.raises(SolverConvergenceError, match="state 0"):
        absorption_probabilities(absorbing_chain(P, [2]))
    # 0 -> {1 <-> 2}, 3 absorbing: the closed class is named, not its feeder.
    P = np.zeros((4, 4))
    P[0, 1] = P[1, 2] = P[2, 1] = 1.0
    with pytest.raises(SolverConvergenceError, match="transient state 1 has no path"):
        absorption_probabilities(absorbing_chain(P, [3]))


def random_sparse_chain(rng) -> tuple:
    """Dense transition matrix and absorbing states of a small sparse chain.

    Some transient states only loop on themselves (a row with no entries at
    all is not stochastic) and, half the time, a closed class of transient
    states is fed from outside."""
    n = int(rng.integers(3, 13))
    absorbing = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
    transient = np.setdiff1d(np.arange(n), absorbing)
    P = np.zeros((n, n))
    for i in transient:
        if rng.random() < 0.15:
            P[i, i] = 1.0
        else:
            targets = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
            P[i, targets] = rng.random(targets.size) + 0.1
    if transient.size >= 3 and rng.random() < 0.5:
        closed = rng.choice(transient, size=int(rng.integers(2, 4)), replace=False)
        P[closed] = 0.0
        P[closed, np.roll(closed, 1)] = 1.0
        outside = np.setdiff1d(transient, closed)
        if outside.size:
            P[rng.choice(outside), closed[0]] = 1.0
    P[absorbing] = 0.0
    P[transient] /= P[transient].sum(axis=1, keepdims=True)
    return P, absorbing


def test_stranded_check_matches_dense_closure():
    rng = np.random.default_rng(17)
    raised = 0
    for _ in range(400):
        P, absorbing = random_sparse_chain(rng)
        n = len(P)
        reach = (P > 0) | np.eye(n, dtype=bool)
        for _ in range(n.bit_length()):
            reach = (reach.astype(int) @ reach.astype(int)) > 0
        mask = np.zeros(n, dtype=bool)
        mask[absorbing] = True
        stranded = ~mask & ~reach[:, mask].any(axis=1)
        # A state in a closed class can return from everywhere it reaches.
        closed = np.array([np.all(reach[reach[s], s]) for s in range(n)])
        if stranded.any():
            raised += 1
            name = np.flatnonzero(stranded & closed)[0]
            with pytest.raises(SolverConvergenceError,
                               match=f"transient state {name} has no path"):
                absorption_probabilities(absorbing_chain(P, absorbing))
        else:
            res = absorption_probabilities(absorbing_chain(P, absorbing))
            np.testing.assert_allclose(res.hitting.sum(axis=1), 1.0, atol=1e-9)
    assert 50 < raised < 350


def test_absorption_no_transient_states():
    res = absorption_probabilities(absorbing_chain(np.zeros((2, 2)), [0, 1]))
    assert res.hitting.shape == (0, 2)


def test_stochastic_matrix_validation():
    with pytest.raises(ValueError, match=r"^row 0 sums to 0\.9, expected 1$"):
        absorbing_chain([[0.5, 0.4], [0, 0]], [1])
    with pytest.raises(ValueError, match="negative"):
        absorbing_chain([[-0.5, 1.5], [0, 0]], [1])
    # A stored zero is an edge to the sink search, so absorbing rows hold none.
    P = sp.csr_matrix((np.array([1.0, 0.0]), ([0, 1], [1, 0])), shape=(2, 2))
    assert P.nnz == 2
    with pytest.raises(ValueError, match="absorbing row"):
        StochasticMatrix(P, np.array([False, True]))


def test_stochastic_matrix_rejects_nan_rows():
    # `nan < 0` and `abs(nan - 1) > 1e-12` are both False.
    for P in ([[0, np.nan, 1.0], [0, 0, 0], [0, 0, 0]], [[0, 0.5, 0.5], [0, 0, np.nan], [0, 0, 0]]):
        with pytest.raises(ValueError, match="NaN"):
            absorbing_chain(P, [2])


# SuperLU only sees blocks of more than _DENSE_MAX states.
BIG = _DENSE_MAX + 1


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_lu_solves_raise(monkeypatch, value):
    # NaN passes every `x > tol` check, so a NaN solve would reach the output.
    class LU:
        def solve(self, b):
            return np.full(np.shape(b), value)

    monkeypatch.setattr(sp.linalg, "splu", lambda *args, **kwargs: LU())
    with pytest.raises(SolverConvergenceError):
        stationary_distribution(cycle(BIG))
    with pytest.raises(SolverConvergenceError):
        absorption_probabilities(gamblers_ruin(BIG + 2))


@pytest.mark.parametrize("step, error", [
    ("factor", SystemError("gstrf was called with invalid arguments")),
    ("factor", MemoryError("Unable to allocate 8.00 GiB for an array")),
    ("solve", MemoryError("Unable to allocate 8.00 GiB for an array")),
    ("solve", SystemError("gstrs was called with invalid arguments")),
])
def test_lu_allocation_failures_raise(monkeypatch, step, error):
    # SuperLU raises SystemError when it cannot expand its memory, numpy MemoryError.
    class LU:
        def solve(self, b):
            raise error

    def splu(*args, **kwargs):
        if step == "factor":
            raise error
        return LU()

    monkeypatch.setattr(sp.linalg, "splu", splu)
    with pytest.raises(SolverConvergenceError,
                       match=f"sparse LU of {BIG} states could not allocate") as info:
        stationary_distribution(cycle(BIG))
    assert info.value.__cause__ is error
    with pytest.raises(SolverConvergenceError,
                       match=f"sparse LU of {BIG} states could not allocate") as info:
        absorption_probabilities(gamblers_ruin(BIG + 2))
    assert info.value.__cause__ is error


@pytest.mark.parametrize("error, message", [
    (np.linalg.LinAlgError("Singular matrix"), r"singular .*\(Singular matrix\)$"),
    (MemoryError("Unable to allocate 8.00 GiB for an array"),
     r"^dense solve of \d+ states could not allocate its memory"),
    (None, "residual|non-finite"),
])
def test_dense_block_failures_raise(monkeypatch, error, message):
    # `None` stands for a solve that returns NaN.
    def solve(A, b):
        if error is None:
            return np.full(np.shape(b), np.nan)
        raise error

    monkeypatch.setattr(np.linalg, "solve", solve)
    for run in (lambda: stationary_distribution(cycle(_DENSE_MAX)),
                lambda: absorption_probabilities(gamblers_ruin(_DENSE_MAX + 2))):
        with pytest.raises(SolverConvergenceError, match=message) as info:
            run()
        if error is not None:
            assert info.value.__cause__ is error


def block_chain(rng, sizes) -> tuple:
    """Dense transition matrix and absorbing mask of a chain whose transient
    states form strongly connected components of the given `sizes`.

    A component is a cycle through its states plus random internal edges; a
    single state has a self-loop half the time.  Half of the states have
    edges into random earlier components, every fifth state one into an
    absorbing state, and each component's first state one or the other, so
    that no component is closed.  The states are shuffled, so components and
    levels are not index ranges.
    """
    t, k = sum(sizes), 3
    n = t + k
    P = np.zeros((n, n))
    bounds = np.cumsum([0, *sizes])
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        members = np.arange(lo, hi)
        if members.size > 1:
            P[members, np.roll(members, -1)] += 1.0
            for i in members:
                P[i, rng.choice(members, size=2)] += rng.random(2)
        elif rng.random() < 0.5:
            P[lo, lo] = rng.random()
        for i in members:
            if lo and (rng.random() < 0.5 or i == lo):
                P[i, rng.integers(0, lo, size=2)] += rng.random(2) + 0.01
            if i % 5 == 0 or not lo:
                P[i, t + rng.integers(0, k)] += rng.random() + 0.01
    P[:t] /= P[:t].sum(axis=1, keepdims=True)
    perm = rng.permutation(n)
    mask = np.zeros(n, dtype=bool)
    mask[perm[t:]] = True
    inverse = np.argsort(perm)
    return P[np.ix_(inverse, inverse)], mask


def test_block_solve_matches_dense_reference(monkeypatch):
    rng = np.random.default_rng(3)
    sizes_seen = []

    def spy(A, b, singular, **options):
        sizes_seen.append(A.shape[0])
        return _solve_block(A, b, singular, **options)

    monkeypatch.setattr("sinklimit.solver._solve_block", spy)
    for _ in range(6):
        sizes = rng.choice([1, 1, 1, 2, 5, _DENSE_MAX, _DENSE_MAX + 6], size=12).tolist()
        P, mask = block_chain(rng, sizes)
        res = absorption_probabilities(StochasticMatrix(sp.csr_matrix(P), mask))
        Q = P[np.ix_(~mask, ~mask)]
        R = P[np.ix_(~mask, mask)]
        reference = np.linalg.solve(np.eye(Q.shape[0]) - Q, R)
        np.testing.assert_allclose(res.hitting, reference, rtol=0, atol=1e-12)
        assert np.any(np.diag(Q) > 0)
    assert min(sizes_seen) > 1
    assert min(sizes_seen) <= _DENSE_MAX < max(sizes_seen)


def reference_level_solve(rows, numbers: np.ndarray, levels: np.ndarray,
                          stable: bool = False) -> np.ndarray:
    """The level solve with its right-hand sides from a matrix of the
    leaving edges alone (`crossing`), its blocks from one of the
    in-component edges (`inside`) and its self-loops tallied apart.  With
    `stable`, a single state divides by its row sum of `B`, and each block
    goes to `solver._state_reduction`."""
    t, k = numbers.size, rows.shape[1] - numbers.size
    order = np.lexsort((numbers, levels))
    coo = rows[order].tocoo()
    inner = coo.col < t
    inner[inner] = numbers[order[coo.row[inner]]] == numbers[coo.col[inner]]
    numbers, levels = numbers[order], levels[order]
    crossing, inside = (
        sp.csr_matrix((coo.data[m], (coo.row[m], coo.col[m])), shape=rows.shape)
        for m in (~inner, inner)
    )
    loops = inner & (order[coo.row] == coo.col)
    scale = 1.0 - np.bincount(coo.row[loops], weights=coo.data[loops], minlength=t)
    level_bounds = np.searchsorted(levels, np.arange(levels[-1] + 2))
    starts = np.flatnonzero(np.diff(numbers, prepend=-1))
    ends = np.append(starts[1:], t)
    big = ends - starts > 1
    blocks = [[] for _ in range(levels[-1] + 1)]
    for a, b in zip(starts[big].tolist(), ends[big].tolist()):
        blocks[levels[a]].append((a, b))
    HI = np.empty((t + k, k))
    HI[t:] = np.eye(k)
    for lo, hi, level_blocks in zip(level_bounds[:-1].tolist(), level_bounds[1:].tolist(), blocks):
        B = crossing[lo:hi] @ HI
        with np.errstate(divide="ignore", invalid="ignore"):
            HI[order[lo:hi]] = B / (B.sum(axis=1)[:, None] if stable else scale[lo:hi, None])
        for a, b in level_blocks:
            members = order[a:b]
            if stable:
                HI[members] = solver._state_reduction(inside[a:b][:, members], B[a - lo : b - lo])
                continue
            HI[members] = _solve_block(
                sp.eye(b - a, format="csr") - inside[a:b][:, members],
                B[a - lo : b - lo], "absorption system is singular", permc_spec="COLAMD",
                diag_pivot_thresh=0.0, options={"SymmetricMode": True},
            )
    return HI


def test_level_solve_matches_the_crossing_inside_split_bit_for_bit(monkeypatch):
    # `[Q R]` comes from `csr[transient][:, perm]`, whose column indices are
    # not sorted; the one product over a zero-started `[H; I]` must add the
    # leaving edges in the same order as the split did.
    rng = np.random.default_rng(11)
    calls = []
    level_solve = solver._level_solve

    def spy(rows, numbers, levels, stable):
        calls.append((rows.has_sorted_indices, np.any(rows.diagonal() > 0)))
        HI = level_solve(rows, numbers, levels, stable)
        want = reference_level_solve(rows, numbers, levels, stable)
        assert HI.shape == want.shape and HI.tobytes() == want.tobytes()
        return HI

    monkeypatch.setattr("sinklimit.solver._level_solve", spy)
    for _ in range(8):
        sizes = rng.choice([1, 1, 1, 2, 3, 9, _DENSE_MAX + 6], size=14).tolist()
        P, mask = block_chain(rng, sizes)
        for stable in (False, True):
            res = absorption_probabilities(StochasticMatrix(sp.csr_matrix(P), mask), stable)
            assert res.rows.shape == (len(P), mask.sum())
            assert np.array_equal(res.rows[len(res.transient):], np.eye(mask.sum()))
    assert len(calls) == 16
    assert not any(sorted_indices for sorted_indices, _ in calls)
    assert all(self_loops for _, self_loops in calls)


def test_clip_reaches_every_row(monkeypatch):
    # With Q = 0, H = R = [0, 1]; a solve 5e-10 off in each cell passes the
    # residual, row-sum and bound checks, and only the clip makes it exact.
    chain = absorbing_chain([[0, 0, 1], [0, 0, 0], [0, 0, 0]], [1, 2])
    monkeypatch.setattr(
        "sinklimit.solver._level_solve",
        lambda *args: np.array([[-5e-10, 1 + 5e-10], [1.0, 0.0], [0.0, 1.0]]),
    )
    res = absorption_probabilities(chain)
    assert 0 < res.residual <= 1e-9 and 0 < res.bound_excess <= 1e-9
    assert res.hitting.tolist() == [[0.0, 1.0]]
    assert res.rows.tolist() == [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]


def test_clip_reaches_the_profile_rows(monkeypatch, fig3_game):
    # A unit hitting row is moved 5e-10 out of [0, 1]; every profile whose
    # live node it is must read the clipped, exact unit row.
    level_solve = solver._level_solve
    moved = []

    def off_by_5e10(rows, numbers, levels, stable):
        HI = level_solve(rows, numbers, levels, stable)
        i = next(i for i in range(numbers.size) if (HI[i] == 0).any() and rows[i, i] == 0)
        HI[i, np.argmin(HI[i])] -= 5e-10
        HI[i, np.argmax(HI[i])] += 5e-10
        moved.append(HI[i].copy())
        return HI

    exact = limit_hitting_probabilities(fig3_game)
    monkeypatch.setattr("sinklimit.solver._level_solve", off_by_5e10)
    h = limit_hitting_probabilities(fig3_game)
    assert sorted(moved[0].tolist()) == [-5e-10, 1 + 5e-10]
    assert 0 < h.residual <= 1e-9 and 0 < h.bound_excess <= 1e-9
    assert h.probabilities.min() == 0.0 and h.probabilities.max() == 1.0
    assert h.probabilities.tobytes() == exact.probabilities.tobytes()


def reachability(P: np.ndarray) -> np.ndarray:
    """`reach[i, j]`: some path of length >= 0 leads from i to j."""
    reach = (P > 0) | np.eye(len(P), dtype=bool)
    for _ in range(len(P).bit_length()):
        reach = (reach.astype(int) @ reach.astype(int)) > 0
    return reach


def test_hitting_zeros_are_the_unreachable_sinks():
    rng = np.random.default_rng(8)
    chains = [block_chain(rng, rng.choice([1, 1, 2, 4, _DENSE_MAX + 3], size=10).tolist())
              for _ in range(4)]
    while len(chains) < 200:
        P, absorbing = random_sparse_chain(rng)
        mask = np.zeros(len(P), dtype=bool)
        mask[absorbing] = True
        if reachability(P)[np.ix_(~mask, mask)].any(axis=1).all():
            chains.append((P, mask))
    for P, mask in chains:
        unreachable = ~reachability(P)[np.ix_(~mask, mask)]
        for stable in (False, True):
            res = absorption_probabilities(StochasticMatrix(sp.csr_matrix(P), mask), stable)
            assert np.array_equal(res.hitting == 0.0, unreachable)


def test_state_reduction_allocation_failure_raises(monkeypatch):
    # np.outer, the update of each elimination step, stands for every
    # allocation of the kernel.
    error = MemoryError("Unable to allocate 1.84 GiB for an array")

    def out_of_memory(*args):
        raise error

    P = np.zeros((4, 4))
    P[1, [0, 2]] = P[2, [1, 3]] = 0.5  # one block of 2 states
    chain = absorbing_chain(P, [0, 3])
    monkeypatch.setattr(np, "outer", out_of_memory)
    np.testing.assert_allclose(absorption_probabilities(chain).hitting, np.array([[2, 1], [1, 2]]) / 3)
    with pytest.raises(SolverConvergenceError, match=r"^state reduction of 2 states could not"
                       r" allocate its memory \(MemoryError\('Unable to allocate 1.84 GiB") as info:
        absorption_probabilities(chain, stable=True)
    assert info.value.__cause__ is error


def test_oracle_blocks_fit_where_the_whole_chain_did_not():
    # A fresh process with 400 MB of address space and one BLAS thread.  The
    # 2^13 identical-interest oracle needed a 479 MiB whole-chain matrix;
    # block by block it takes about 120 MB.  A 12,000-state block does need
    # 1.07 GiB, and its allocation failure is one SolverConvergenceError.
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))\n"
        "import numpy as np, scipy.sparse as sp, sinklimit\n"
        "u = np.random.default_rng(0).integers(0, 14, 2**13).astype(float)\n"
        "game = sinklimit.Game((2,) * 13, (u,) * 13)\n"
        "oracle = sinklimit.oracle_hitting_matrix(game, 1e-8)\n"
        "hit = sinklimit.limit_hitting_probabilities(game)\n"
        "print(oracle.sinks == hit.sinks, np.abs(oracle.probabilities - hit.probabilities).max())\n"
        "n = 12_000\n"
        "ring = np.arange(n)\n"
        "P = sp.csr_matrix((np.r_[0.9, np.ones(n - 1), 0.1], (np.r_[ring, 0], np.r_[(ring + 1) % n, n])),"
        " shape=(n + 1, n + 1))\n"
        "mask = np.arange(n + 1) == n\n"
        "try:\n"
        "    sinklimit.absorption_probabilities(sinklimit.StochasticMatrix(P, mask), stable=True)\n"
        "except sinklimit.SolverConvergenceError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout.splitlines()
    same_sinks, gap = out[0].split()
    assert same_sinks == "True" and float(gap) <= 1e-6
    assert out[1] == ("state reduction of 12000 states could not allocate its memory"
                      " (MemoryError((12000, 12001), dtype('float64')))")


# -- epsilon oracle -------------------------------------------------------------


def test_state_reduction_matches_the_dense_reference_per_block(monkeypatch):
    # Each block of the oracle's chains, reduced in place, against the dense
    # reduction of its augmented chain [Q_in | B]: the same eliminations, a
    # back-substitution that adds in another order.
    blocks = []
    state_reduction = solver._state_reduction

    def spy(inside, B):
        got = state_reduction(inside, B)
        blocks.append((inside.toarray(), B.copy(), got))
        return got

    monkeypatch.setattr("sinklimit.solver._state_reduction", spy)
    for game in _tie_game_set():
        for eps in (1e-4, 1e-6, 1e-8):
            oracle_hitting_matrix(game, eps)
    oracle_hitting_matrix(identical_interest_game(9), 1e-8)
    assert max(inside.shape[0] for inside, _, _ in blocks) >= 8
    for inside, B, got in blocks:
        m, k = B.shape
        P = np.zeros((m + k, m + k))
        P[:m, :m], P[:m, m:] = inside, B
        want = reference_state_reduction_hitting(P, np.arange(m + k) >= m)
        assert np.array_equal(got == 0, want == 0)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


def test_oracle_agrees_with_limit_on_2_to_the_11_profiles():
    # 2,048 profiles, 1,960 of them live in the oracle's chain.  On a 2-core
    # machine the dense reference reduction takes about 20 s on it, the
    # in-place one about 0.3 s.
    game = identical_interest_game(11)
    hit = limit_hitting_probabilities(game)
    assert hit.order_trace == [3, 0]
    oracle = oracle_hitting_matrix(game, 1e-8)
    assert oracle.sinks == hit.sinks
    assert np.max(np.abs(oracle.probabilities - hit.probabilities)) <= 1e-6


def test_oracle_matches_plain_absorption_without_eps_edges():
    chain = EpsilonMC.from_edges(
        3, regular=[(0, 1, 0.4), (0, 2, 0.6)], absorbing=[1, 2]
    )
    plain = absorption_probabilities(
        absorbing_chain([[0, 0.4, 0.6], [0, 0, 0], [0, 0, 0]], [1, 2])
    )
    for eps in (1e-2, 1e-6, 1e-10):
        res = oracle_hitting_at_epsilon(chain, eps)
        np.testing.assert_allclose(res.hitting, plain.hitting, atol=1e-15)


def test_oracle_fig3_pseudosink_row(fig3_game):
    hit = oracle_hitting_matrix(fig3_game, 1e-8)
    assert hit.probabilities[8, 0] >= 1 - 1e-6
    assert hit.probabilities[8, 1] <= 1e-6


def integer_games() -> list:
    """18 random integer games, 12 of 3 x 3 and 6 of 2 x 2 x 2."""
    games = [random_game(seed, 2, (3, 3), mode="integer") for seed in range(12)]
    return games + [random_game(seed, 3, (2, 2, 2), mode="integer") for seed in range(6)]


def test_oracle_cauchy_convergence_in_eps():
    for game in integer_games():
        h4 = oracle_hitting_matrix(game, 1e-4).probabilities
        h6 = oracle_hitting_matrix(game, 1e-6).probabilities
        h8 = oracle_hitting_matrix(game, 1e-8).probabilities
        near = np.max(np.abs(h6 - h8))
        far = np.max(np.abs(h4 - h6))
        assert near <= far + 1e-12


def test_oracle_at_1e_300_agrees_with_limit():
    # Escape probabilities of 1e-300 next to ones: an LU block kernel finds
    # `I - Q_in` singular here, while every pivot of the state reduction is
    # a sum of nonnegative terms.
    for game in _tie_game_set() + integer_games():
        oracle = oracle_hitting_matrix(game, 1e-300)
        hit = limit_hitting_probabilities(game)
        assert oracle.sinks == hit.sinks
        assert np.max(np.abs(oracle.probabilities - hit.probabilities)) <= 1e-12


def test_gray_code_rows_sum_to_one():
    # One improvement path through all 4,096 profiles: 4,096 levels of one
    # state each, for the limit and for the oracle.
    game = gray_code_game(12)
    for hit in (limit_hitting_probabilities(game), oracle_hitting_matrix(game, 1e-8)):
        assert hit.probabilities.shape == (4096, 1)
        assert np.max(np.abs(hit.probabilities.sum(axis=1) - 1.0)) <= 1e-12


def test_oracle_rejects_oversized_eps():
    chain = EpsilonMC.from_edges(2, eps=[(0, 1, 3.0)], absorbing=[1])
    with pytest.raises(ValueError, match="too large"):
        oracle_hitting_at_epsilon(chain, 0.5)
    res = oracle_hitting_at_epsilon(chain, 0.1)
    np.testing.assert_allclose(res.hitting, [[1.0]])
