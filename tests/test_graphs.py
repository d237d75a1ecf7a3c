import numpy as np
import scipy.sparse as sp

from sinklimit.scc import (
    CsrPattern,
    component_numbers,
    condensation_levels,
    group_ids,
    leaving,
    sink_components,
    strongly_connected_components,
)


def csr(adj) -> sp.csr_matrix:
    """Pattern matrix of a {node: successors} dict over nodes 0..len-1."""
    rows = [u for u, succ in adj.items() for _ in succ]
    cols = [v for succ in adj.values() for v in succ]
    return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(len(adj), len(adj)))


def test_tarjan_partitions_known_graph():
    adj = {0: [1], 1: [2], 2: [0], 3: [1, 2, 4], 4: [5, 3], 5: [6, 1], 6: [5], 7: [6, 7, 4]}
    comps = strongly_connected_components(csr(adj))
    as_sets = {frozenset(c) for c in comps}
    assert as_sets == {frozenset({0, 1, 2}), frozenset({3, 4}), frozenset({5, 6}), frozenset({7})}


def test_tarjan_deep_chain_is_iterative():
    n = 50_000
    chain = sp.csr_matrix((np.ones(n - 1), (np.arange(n - 1), np.arange(1, n))), shape=(n, n))
    comps = strongly_connected_components(chain)
    assert len(comps) == n


def random_digraph(rng, n) -> sp.csr_matrix:
    """CSR digraph with self-loops, isolated nodes and repeated, unsorted
    column entries kept as stored."""
    m = int(rng.integers(0, 3 * n + 1))
    rows = np.sort(rng.integers(0, n, m))
    cols = rng.integers(0, n, m)
    indptr = np.searchsorted(rows, np.arange(n + 1))
    return sp.csr_matrix((np.ones(m), cols, indptr), shape=(n, n))


def closure(matrix) -> np.ndarray:
    """Dense reflexive-transitive closure: reach[u, v] iff v is reachable from u."""
    n = matrix.shape[0]
    reach = np.eye(n, dtype=bool) | (matrix.toarray() != 0)
    while True:
        nxt = reach | ((reach.astype(np.int64) @ reach.astype(np.int64)) > 0)
        if (nxt == reach).all():
            return reach
        reach = nxt


def brute_components(reach) -> list[list[int]]:
    """Mutual-reachability classes, members ascending, by smallest member."""
    mutual = reach & reach.T
    comps, seen = [], set()
    for u in range(len(reach)):
        if u not in seen:
            comps.append(np.flatnonzero(mutual[u]).tolist())
            seen.update(comps[-1])
    return comps


def test_components_and_sinks_match_brute_force_closure():
    rng = np.random.default_rng(2016)
    for _ in range(300):
        matrix = random_digraph(rng, int(rng.integers(0, 31)))
        reach = closure(matrix)
        want = brute_components(reach)
        assert strongly_connected_components(matrix) == want
        closed = [c for c in want if reach[c[0]].sum() == len(c)]
        assert sink_components(matrix) == closed


def test_numpy_patterns_match_scipy_matrices():
    # `leaving` and `condensation_levels` read `indptr`/`indices` alone: the
    # scipy matrix, its own arrays in a `CsrPattern` and the sorted pattern of
    # its shuffled edges give the same arrays.
    rng = np.random.default_rng(27)
    for _ in range(300):
        matrix = random_digraph(rng, int(rng.integers(0, 31)))
        coo = matrix.tocoo()
        shuffle = rng.permutation(coo.nnz)
        patterns = [CsrPattern(matrix.indptr, matrix.indices),
                    CsrPattern.from_edges(matrix.shape[0], coo.row[shuffle], coo.col[shuffle])]
        comps = strongly_connected_components(matrix)
        want_leaving = leaving(comps, matrix)
        want_levels = condensation_levels(matrix, component_numbers(matrix))
        for pattern in patterns:
            assert pattern.shape == matrix.shape and pattern.nnz == matrix.nnz
            assert strongly_connected_components(pattern) == comps
            assert leaving(comps, pattern).tolist() == want_leaving.tolist()
            levels = condensation_levels(pattern, component_numbers(pattern))
            assert levels.tolist() == want_levels.tolist()


def test_long_cycle_is_one_component():
    n = 50_000
    cycle = sp.csr_matrix((np.ones(n), (np.arange(n), (np.arange(n) + 1) % n)), shape=(n, n))
    assert strongly_connected_components(cycle) == [list(range(n))]
    assert sink_components(cycle) == [list(range(n))]


def test_sink_components_ordering_and_members():
    adj = {0: [1], 1: [0, 2], 2: [3], 3: [2], 4: [], 5: [4]}
    sinks = sink_components(csr(adj))
    assert sinks == [[2, 3], [4]]
    assert leaving([[0, 1], [2, 3], [4], [5]], csr(adj)).tolist() == [True, False, False, True]


def test_group_ids_marks_nodes_in_no_group():
    assert group_ids(5, [[3], [0, 4]]).tolist() == [1, -1, -1, 0, 1]
    assert group_ids(3, []).tolist() == [-1, -1, -1]
