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


def absorbing_chain(P, absorbing) -> StochasticMatrix:
    mask = np.zeros(len(P), dtype=bool)
    mask[list(absorbing)] = True
    return StochasticMatrix(sp.csr_matrix(np.asarray(P, dtype=float)), mask)


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
    T = sp.csr_matrix(
        (np.ones(n), (np.arange(n), (np.arange(n) + 1) % n)), shape=(n, n)
    )
    pi = stationary_distribution(T)
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
    P = sp.csr_matrix(
        (np.full(2 * (n - 2), 0.5), (np.r_[inner, inner], np.r_[inner - 1, inner + 1])),
        shape=(n, n),
    )
    mask = np.zeros(n, dtype=bool)
    mask[[0, n - 1]] = True
    start = time.perf_counter()
    res = absorption_probabilities(StochasticMatrix(P, mask))
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
    # Loading scipy.sparse.linalg costs tens of milliseconds; the solver
    # reaches it lazily so that `import sinklimit` does not pay for it.
    code = "import sys, sinklimit; print('scipy.sparse.linalg' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_absorption_reports_stranded_state():
    P = np.zeros((3, 3))
    P[0, 1] = 1.0
    P[1, 0] = 1.0
    with pytest.raises(SolverConvergenceError, match="state 0"):
        absorption_probabilities(absorbing_chain(P, [2]))


def test_absorption_no_transient_states():
    res = absorption_probabilities(absorbing_chain(np.zeros((2, 2)), [0, 1]))
    assert res.hitting.shape == (0, 2)


def test_stochastic_matrix_validation():
    with pytest.raises(ValueError, match="row 0"):
        absorbing_chain([[0.5, 0.4], [0, 0]], [1])
    with pytest.raises(ValueError, match="negative"):
        absorbing_chain([[-0.5, 1.5], [0, 0]], [1])


# -- epsilon oracle -------------------------------------------------------------


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


def test_oracle_cauchy_convergence_in_eps():
    games = [random_game(seed, 2, (3, 3), mode="integer") for seed in range(12)]
    games += [random_game(seed, 3, (2, 2, 2), mode="integer") for seed in range(6)]
    for game in games:
        h4 = oracle_hitting_matrix(game, 1e-4).probabilities
        h6 = oracle_hitting_matrix(game, 1e-6).probabilities
        h8 = oracle_hitting_matrix(game, 1e-8).probabilities
        near = np.max(np.abs(h6 - h8))
        far = np.max(np.abs(h4 - h6))
        assert near <= far + 1e-12


def test_oracle_rejects_oversized_eps():
    chain = EpsilonMC.from_edges(2, eps=[(0, 1, 3.0)], absorbing=[1])
    with pytest.raises(ValueError, match="too large"):
        oracle_hitting_at_epsilon(chain, 0.5)
    res = oracle_hitting_at_epsilon(chain, 0.1)
    np.testing.assert_allclose(res.hitting, [[1.0]])
