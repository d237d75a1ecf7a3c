import ast
from pathlib import Path

import numpy as np
import pytest

import sinklimit.game
from sinklimit import (
    ContractViolation,
    EpsilonMC,
    build_cmc,
    collapse_pseudosink,
    delete_epsilon_edges,
    epsmc,
    from_cmc,
    limit_hitting_probabilities,
    node_orders,
    oracle_hitting_at_epsilon,
    oracle_hitting_matrix,
    random_game,
    rsccs,
    sink_equilibria,
)

from conftest import bimatrix, row
from test_acceptance import _tie_game_set
from test_graphs import brute_components, closure
from test_solver import identical_interest_game, reference_level_solve

FIG3_EXPECTED = np.array(
    [
        [1.0, 0.0],          # (1,1): sink member
        [19 / 30, 11 / 30],  # (2,1)
        [1.0, 0.0],          # (3,1): unique improvement to (1,1)
        [3 / 5, 2 / 5],      # (1,2)
        [0.0, 1.0],          # (2,2): sink member
        [1 / 2, 1 / 2],      # (3,2)
        [13 / 15, 2 / 15],   # (1,3)
        [1 / 3, 2 / 3],      # (2,3)
        [1.0, 0.0],          # (3,3): order-1 pseudosink, drains to (1,1)
    ]
)


def collapsed_chain(game, tie_tolerance=0.0):
    return from_cmc(build_cmc(game, tie_tolerance), sink_equilibria(game, tie_tolerance))


def mc_exit_counts(P, start, absorbing, walkers, seed, max_steps=400_000):
    """Simulate independent walkers on a concrete chain until absorption."""
    rng = np.random.default_rng(seed)
    cum = np.cumsum(np.asarray(P, dtype=float), axis=1)
    pos = np.full(walkers, start)
    absorbed = np.isin(pos, absorbing)
    for _ in range(max_steps):
        if absorbed.all():
            break
        act = ~absorbed
        u = rng.random(int(act.sum()))
        pos[act] = (cum[pos[act]] < u[:, None]).sum(axis=1)
        absorbed = np.isin(pos, absorbing)
    assert absorbed.all(), "walkers failed to absorb within the step budget"
    return {a: int(np.sum(pos == a)) for a in absorbing}


# -- EpsilonMC mechanics -------------------------------------------------------


def test_parallel_edges_merge():
    chain = EpsilonMC.from_edges(
        3, regular=[(0, 1, 0.5), (0, 1, 0.25), (0, 2, 0.25)], eps=[(0, 1, 1.0), (0, 1, 2.0)],
        absorbing=[1, 2],
    )
    assert row(chain.reg, 0) == {1: 0.75, 2: 0.25}
    assert row(chain.eps, 0) == {1: 3.0}


def test_self_loops_rejected():
    with pytest.raises(ContractViolation, match="self-loop"):
        EpsilonMC.from_edges(2, regular=[(0, 0, 1.0)])
    with pytest.raises(ContractViolation, match="self-loop"):
        EpsilonMC.from_edges(2, eps=[(1, 1, 1.0)])
    with pytest.raises(ContractViolation, match="self-loop"):
        EpsilonMC.from_edges(2, regular=np.array([[0.0, 1.0, 1.0], [1.0, 1.0, 1.0]]))


@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("kind", ["regular", "eps"])
def test_edge_values_must_be_finite_and_positive(kind, value):
    with pytest.raises(ContractViolation, match="finite and positive"):
        EpsilonMC.from_edges(2, **{kind: [(0, 1, value)]})


def test_imports_only_at_module_level():
    # `EpsilonMC` lives in `game`, which `epsmc` and `solver` import at module
    # level; `game` imports neither, so no import hides in a function body or
    # behind TYPE_CHECKING to break a cycle.
    for path in sorted(Path(sinklimit.game.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                assert node in tree.body, f"{path.name}:{node.lineno} imports below module level"
            if isinstance(node, ast.If):
                assert "TYPE_CHECKING" not in ast.unparse(node.test), path.name
    game_imports = [(node.module, alias.name)
                    for node in ast.parse(Path(sinklimit.game.__file__).read_text()).body
                    if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert not [pair for pair in game_imports if {"epsmc", "solver"} & set(pair)]


def test_validate_rejects_bad_rows():
    with pytest.raises(ContractViolation, match="sum"):
        EpsilonMC.from_edges(2, regular=[(0, 1, 0.5)])
    with pytest.raises(ContractViolation, match="absorbing"):
        EpsilonMC.from_edges(2, regular=[(0, 1, 1.0)], absorbing=[0])


# -- sink collapse ---------------------------------------------------------------


def test_from_cmc_fig2_counts(fig2_game):
    chain = collapsed_chain(fig2_game)
    assert chain.absorbing.dtype == bool
    assert np.flatnonzero(chain.absorbing).tolist() == [0, 8]
    assert chain.live_nodes().tolist() == [0, 2, 5, 6, 7, 8]
    for member in (1, 3, 4):
        assert chain.origin[member] == 0
    assert node_orders(chain)[[1, 3, 4]].tolist() == [-1, -1, -1]  # dead nodes


def test_from_cmc_fig3_is_identity_on_nodes(fig3_game):
    chain = collapsed_chain(fig3_game)
    assert len(chain.live_nodes()) == 9
    assert np.flatnonzero(chain.absorbing).tolist() == [0, 4]


def test_from_cmc_whole_graph_sink(matching_pennies):
    chain = collapsed_chain(matching_pennies)
    assert len(chain.live_nodes()) == 1
    assert np.flatnonzero(chain.absorbing).tolist() == [0]
    hit = limit_hitting_probabilities(matching_pennies)
    np.testing.assert_array_equal(hit.probabilities, np.ones((4, 1)))


def test_from_cmc_leaves_its_input_unchanged(fig2_game):
    cmc = build_cmc(fig2_game)

    def arrays():
        return [a.copy() for m in (cmc.reg, cmc.eps) for a in (m.data, m.indices, m.indptr)]

    before, absorbing, origin = arrays(), cmc.absorbing.copy(), cmc.origin.copy()
    chain = from_cmc(cmc, sink_equilibria(fig2_game))
    # the collapse happened
    assert np.flatnonzero(chain.absorbing).tolist() == [0, 8] and chain.origin[1] == 0
    for got, want in zip(arrays(), before):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(cmc.absorbing, absorbing)
    np.testing.assert_array_equal(cmc.origin, origin)


def test_from_cmc_rejects_unclosed_sink(fig3_game):
    cmc = build_cmc(fig3_game)
    with pytest.raises(ContractViolation, match="leaves"):
        from_cmc(cmc, [[1]])
    # (3,3) has no regular out-edge; only its tie with (3,1) leaves it.
    assert row(cmc.reg, 8) == {} and row(cmc.eps, 8) == {2: 1.0}
    with pytest.raises(ContractViolation, match=r"a eps edge leaves supposed sink \[8\]"):
        from_cmc(cmc, [[0], [8]])
    with pytest.raises(ContractViolation, match=r"a regular edge leaves supposed sink \[1\]"):
        from_cmc(cmc, [[1], [8]])  # the regular check runs first


# -- rSCC partition --------------------------------------------------------------


def test_rsccs_fig3_pseudosink(fig3_game):
    # (1,1) is a sink and (3,1) leaves by a regular edge: neither is returned.
    assert rsccs(collapsed_chain(fig3_game)) == [[8]]


def test_rsccs_without_eps_edges_has_no_pseudosinks():
    chain = EpsilonMC.from_edges(
        3, regular=[(0, 1, 1.0), (1, 0, 0.5), (1, 2, 0.5)], absorbing=[2]
    )
    assert rsccs(chain) == []


def test_rsccs_eps_two_cycle_stays_split():
    chain = EpsilonMC.from_edges(2, eps=[(0, 1, 1.0), (1, 0, 1.0)])
    assert rsccs(chain) == [[0], [1]]


def test_rsccs_match_brute_force_definition():
    # Pseudosinks by definition: components of the live regular subgraph with
    # no regular exit and at least one epsilon exit, checked every round.
    found = 0
    for seed in range(20):
        chain = collapsed_chain(random_game(seed, 3, (2, 2, 3), "integer", int_max=1))
        while True:
            live = chain.live_nodes()
            reach = closure(chain.reg[live][:, live])
            eps = chain.eps[live][:, live].toarray() != 0
            want = []
            for comp in brute_components(reach):
                outside = np.ones(len(live), dtype=bool)
                outside[comp] = False
                if reach[comp[0]].sum() == len(comp) and eps[np.ix_(comp, outside)].any():
                    want.append(live[comp].tolist())
            pseudos = rsccs(chain)
            assert pseudos == want
            if not pseudos:
                break
            found += len(pseudos)
            collapse_pseudosink(chain, pseudos)
    assert found > 0


# -- orders ----------------------------------------------------------------------


def test_orders_fig3(fig3_game):
    orders = node_orders(collapsed_chain(fig3_game))
    assert orders.max() == 1
    assert orders[8] == 1
    assert all(orders[v] == 0 for v in range(8))


def test_orders_absorbing_is_zero():
    chain = EpsilonMC.from_edges(1, absorbing=[0])
    assert node_orders(chain)[0] == 0


def test_orders_count_eps_hops():
    chain = EpsilonMC.from_edges(3, eps=[(0, 1, 1.0), (1, 2, 1.0)], absorbing=[2])
    orders = node_orders(chain)
    assert orders.tolist() == [2, 1, 0]
    assert orders.max() == 2


def test_orders_prefer_regular_bypass():
    chain = EpsilonMC.from_edges(
        3, regular=[(0, 2, 1.0)], eps=[(0, 1, 1.0), (1, 2, 1.0)], absorbing=[2]
    )
    assert node_orders(chain).tolist() == [0, 1, 0]


def test_orders_unreachable_node_raises():
    chain = EpsilonMC.from_edges(3, regular=[(0, 1, 1.0), (1, 0, 1.0)], absorbing=[2])
    with pytest.raises(ContractViolation, match="reach"):
        node_orders(chain)


# -- pseudosink collapse ----------------------------------------------------------


def test_collapse_fig3_pseudosink(fig3_game):
    chain = collapsed_chain(fig3_game)
    collapse_pseudosink(chain, [[8]])
    assert row(chain.reg, 8) == {2: 1.0}
    assert row(chain.eps, 8) == {}
    # the incoming tie edge from (3,1) is redirected, still epsilon class
    assert row(chain.eps, 2) == {8: 1.0}


def test_collapse_singleton_weight_ratios():
    chain = EpsilonMC.from_edges(
        3, eps=[(0, 1, 2.0), (0, 2, 1.0)], absorbing=[1, 2]
    )
    collapse_pseudosink(chain, [[0]])
    out = row(chain.reg, 0)
    assert out[1] == pytest.approx(2 / 3, abs=1e-15)
    assert out[2] == pytest.approx(1 / 3, abs=1e-15)


def two_node_pseudosink_chain():
    # Pseudosink {0, 1}: a regular 2-cycle, so pi = (1/2, 1/2); exits 0->2
    # with coefficient 1 and 1->3 with coefficient 3.
    return EpsilonMC.from_edges(
        4,
        regular=[(0, 1, 1.0), (1, 0, 1.0)],
        eps=[(0, 2, 1.0), (1, 3, 3.0)],
        absorbing=[2, 3],
    )


def test_collapse_two_node_pseudosink_weights():
    chain = two_node_pseudosink_chain()
    collapse_pseudosink(chain, [[0, 1]])
    out = row(chain.reg, 0)
    assert out[2] == pytest.approx(0.25, abs=1e-15)
    assert out[3] == pytest.approx(0.75, abs=1e-15)


def test_collapse_two_node_pseudosink_vs_small_eps_solve():
    res = oracle_hitting_at_epsilon(two_node_pseudosink_chain(), 1e-8)
    np.testing.assert_allclose(res.hitting[0], [0.25, 0.75], atol=1e-6)
    np.testing.assert_allclose(res.hitting[1], [0.25, 0.75], atol=1e-6)


def test_collapse_two_node_pseudosink_vs_monte_carlo():
    eps = 2e-4
    # concrete chain: node 0 -> 1 with 1 - eps, -> 2 with eps; node 1 -> 0
    # with 1 - 3 eps, -> 3 with 3 eps
    P = np.zeros((4, 4))
    P[0, 1] = 1.0 - eps
    P[0, 2] = eps
    P[1, 0] = 1.0 - 3 * eps
    P[1, 3] = 3 * eps
    counts = mc_exit_counts(P, start=0, absorbing=(2, 3), walkers=10_000, seed=123)
    split = counts[2] / (counts[2] + counts[3])
    assert split == pytest.approx(0.25, abs=1e-2)


def test_collapse_rejects_non_pseudosink(fig3_game):
    chain = collapsed_chain(fig3_game)
    with pytest.raises(ContractViolation, match="not a pseudosink"):
        collapse_pseudosink(chain, [[2]])


def test_collapse_rejects_bad_stationary_vector():
    chain = two_node_pseudosink_chain()
    with pytest.raises(ContractViolation, match="normalized"):
        epsmc._collapse(chain, [[0, 1]], [np.array([0.9, 0.3])])
    with pytest.raises(ContractViolation, match="match"):
        epsmc._collapse(chain, [[0, 1]], [np.array([1.0])])


def test_batch_collapse_matches_one_at_a_time():
    # Pseudosink {0} exits into both members of pseudosink {1, 2}, which
    # exits back into 0: the batch relabels 0's exit row onto node 1.
    edges = dict(
        regular=[(1, 2, 1.0), (2, 1, 1.0)],
        eps=[(0, 1, 1.0), (0, 2, 2.0), (0, 4, 1.0), (1, 0, 1.0), (2, 3, 3.0)],
        absorbing=[3, 4],
    )
    batch = EpsilonMC.from_edges(5, **edges)
    pseudos = rsccs(batch)
    assert pseudos == [[0], [1, 2]]
    collapse_pseudosink(batch, pseudos)
    serial = EpsilonMC.from_edges(5, **edges)
    for members in pseudos:
        collapse_pseudosink(serial, [members])
    assert batch.live_nodes().tolist() == serial.live_nodes().tolist() == [0, 1, 3, 4]
    assert batch.origin.tolist() == serial.origin.tolist() == [0, 1, 1, 3, 4]
    for v in (0, 1):
        assert row(batch.reg, v) == pytest.approx(row(serial.reg, v), abs=1e-15)
        assert row(batch.eps, v) == row(serial.eps, v) == {}
    assert row(batch.reg, 0) == pytest.approx({1: 0.75, 4: 0.25}, abs=1e-15)
    assert row(batch.reg, 1) == pytest.approx({0: 0.25, 3: 0.75}, abs=1e-15)


def exit_rows_chain():
    # Pseudosinks {0} and {1, 2} (a regular 2-cycle); node 5 has a regular
    # out-edge and absorbing node 3 has no exit at all.
    return EpsilonMC.from_edges(
        6,
        regular=[(1, 2, 1.0), (2, 1, 1.0), (5, 3, 1.0)],
        eps=[(0, 4, 1.0), (0, 1, 1.0), (1, 4, 1.0), (2, 3, 3.0), (5, 4, 1.0)],
        absorbing=[3, 4],
    )


def collapsed_copy(chain, groups, pis):
    """`_collapse` of `groups` on a copy of `chain`, which is left as it is."""
    copy = EpsilonMC(chain.reg, chain.eps, chain.absorbing, chain.origin)
    epsmc._collapse(copy, groups, pis)
    return copy


@pytest.mark.parametrize(
    "second, pi, match",
    [
        ([1, 2], [1.0], "match"),
        ([1, 2], [0.9, 0.3], "normalized"),
        ([1, 2], [1.5, -0.5], "normalized"),
        ([1, 2], [float("nan"), 0.5], "normalized"),
        ([5], [1.0], "regular out-edge 5->3"),
        ([3], [1.0], "no outgoing eps edge"),
    ],
)
def test_exit_rows_check_every_group(second, pi, match):
    chain = exit_rows_chain()
    collapsed_copy(chain, [[0]], [np.ones(1)])  # the first group alone is fine
    with pytest.raises(ContractViolation, match=match):
        collapsed_copy(chain, [[0], second], [np.ones(1), np.array(pi)])


def test_exit_rows_match_one_group_at_a_time():
    # No group exits into two members of another, so each representative's
    # collapsed row is its exit row, target for target and bit for bit.
    cases = [(exit_rows_chain(), [[0], [2, 1]], [np.ones(1), np.array([0.5, 0.5])])]
    for seed in (43, 51, 55):
        chain = collapsed_chain(random_game(seed, 4, (3,) * 4, mode="integer", int_max=2))
        pseudos = rsccs(chain)
        cases.append((chain, pseudos, [np.ones(1)] * len(pseudos)))
    for chain, groups, pis in cases:
        batch = collapsed_copy(chain, groups, pis)
        for g, pi in zip(groups, pis):
            assert row(batch.reg, min(g)) == row(collapsed_copy(chain, [g], [pi]).reg, min(g))
    batch = collapsed_copy(*cases[0])
    assert row(batch.reg, 0) == pytest.approx({1: 0.5, 4: 0.5}, abs=1e-15)
    assert row(batch.reg, 1) == pytest.approx({3: 0.75, 4: 0.25}, abs=1e-15)


# -- epsilon deletion --------------------------------------------------------------


def test_delete_eps_noop_without_eps_edges():
    chain = EpsilonMC.from_edges(
        3, regular=[(0, 1, 0.5), (0, 2, 0.5)], absorbing=[1, 2]
    )
    delete_epsilon_edges(chain, node_orders(chain))
    assert row(chain.reg, 0) == {1: 0.5, 2: 0.5}


def test_delete_eps_keeps_regular_weights():
    chain = EpsilonMC.from_edges(
        3,
        regular=[(0, 1, 0.5), (0, 2, 0.5)],
        eps=[(0, 1, 1.0)],
        absorbing=[1, 2],
    )
    delete_epsilon_edges(chain, node_orders(chain))
    assert row(chain.reg, 0) == {1: 0.5, 2: 0.5}
    assert row(chain.eps, 0) == {}


def test_delete_eps_requires_order_zero():
    chain = EpsilonMC.from_edges(2, eps=[(0, 1, 1.0)], absorbing=[1])
    with pytest.raises(ContractViolation, match="order"):
        delete_epsilon_edges(chain, node_orders(chain))


def test_delete_eps_preserves_hitting_fig3(fig3_game):
    chain = collapsed_chain(fig3_game)
    collapse_pseudosink(chain, [[8]])
    delete_epsilon_edges(chain, node_orders(chain))
    assert chain.eps.nnz == 0
    # against the small-eps oracle of the untouched chain
    limit = limit_hitting_probabilities(fig3_game).probabilities
    oracle = oracle_hitting_matrix(fig3_game, 1e-8).probabilities
    assert np.max(np.abs(limit - oracle)) < 1e-6


# -- full driver --------------------------------------------------------------------


def test_fig3_exact_hitting_matrix(fig3_game):
    hit = limit_hitting_probabilities(fig3_game)
    assert hit.sinks == [[0], [4]]
    np.testing.assert_allclose(hit.probabilities, FIG3_EXPECTED, atol=1e-12)
    assert hit.rounds == len(hit.pseudosink_counts) == 1
    with pytest.raises(AttributeError):  # read from `pseudosink_counts`, never stored
        hit.rounds = 2
    assert hit.order_trace == [1, 0]
    assert hit.pseudosink_counts == [1]


def two_round_game():
    # (1,1) is a pure equilibrium whose one exit is a row tie with (2,1), and
    # (2,1) -> (2,2) -> (1,2) -> (1,1) is a regular cycle that leaves only
    # through ties (to (3,2) and (1,4)).  Round 1 collapses (1,1); that
    # closes the cycle into a four-profile pseudosink for round 2.
    return bimatrix([
        [(2, 2), (2, 1), (0, 0), (0, 1)],
        [(2, 1), (1, 2), (1, 0), (1, -1)],
        [(0, 0), (1, 1), (3, 2), (2, -1)],
        [(-1, 0), (0, 1), (2, 2), (3, 3)],
    ])


@pytest.mark.parametrize("game_name, groups, trace", [
    ("fig3", [[[8]]], [1, 0]),
    ("two_round", [[[0]], [[0, 1, 4, 5]]], [2, 1, 0]),
])
def test_driver_collapses_each_round_through_collapse_pseudosink(
        fig3_game, monkeypatch, game_name, groups, trace):
    game = fig3_game if game_name == "fig3" else two_round_game()
    calls, inside, stationary_sizes = [], [], []
    collapse, stationary = epsmc.collapse_pseudosink, epsmc.solver.stationary_distribution

    def recording_collapse(chain, round_groups):
        calls.append([list(m) for m in round_groups])
        inside.append(True)
        try:
            return collapse(chain, round_groups)
        finally:
            inside.pop()

    def stationary_inside_collapse(matrix):
        assert inside, "stationary vector computed outside collapse_pseudosink"
        stationary_sizes.append(matrix.shape[0])
        return stationary(matrix)

    monkeypatch.setattr(epsmc, "collapse_pseudosink", recording_collapse)
    monkeypatch.setattr(epsmc.solver, "stationary_distribution", stationary_inside_collapse)
    hit = limit_hitting_probabilities(game)
    assert calls == groups and hit.order_trace == trace
    assert hit.rounds == len(calls)
    assert hit.pseudosink_counts == [len(g) for g in calls]
    assert stationary_sizes == [len(m) for g in calls for m in g if len(m) > 1]
    oracle = oracle_hitting_matrix(game, 1e-8).probabilities
    assert np.max(np.abs(hit.probabilities - oracle)) < 1e-6


def test_driver_builds_response_graph_once(fig3_game, monkeypatch):
    calls = []
    build = sinklimit.game.build_response_graph

    def counting_build(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(sinklimit.game, "build_response_graph", counting_build)
    limit_hitting_probabilities(fig3_game)
    assert len(calls) == 1


@pytest.mark.parametrize("game_name, trace", [
    ("fig2", [0]),
    ("fig3", [1, 0]),
    ("seed_1238", [4, 1, 0]),
])
def test_driver_computes_orders_once_per_chain(fig2_game, fig3_game, monkeypatch, game_name,
                                               trace):
    # One order pass before the first round and one after each collapse;
    # `delete_epsilon_edges` checks the last of them instead of its own.
    game = {
        "fig2": fig2_game, "fig3": fig3_game,
        "seed_1238": random_game(1238, 2, (3, 3), mode="integer", int_max=1),
    }[game_name]
    calls = []
    orders = epsmc.node_orders

    def counting_orders(chain):
        calls.append(chain)
        return orders(chain)

    monkeypatch.setattr(epsmc, "node_orders", counting_orders)
    hit = limit_hitting_probabilities(game)
    assert hit.order_trace == trace
    assert len(calls) == hit.rounds + 1 == len(trace)


def test_fig3_keeps_final_solve_diagnostics(fig3_game):
    hit = limit_hitting_probabilities(fig3_game)
    assert 0.0 <= hit.residual <= 1e-9
    assert 0.0 <= hit.bound_excess <= 1e-9


def test_fig2_exact_hitting_matrix(fig2_game):
    hit = limit_hitting_probabilities(fig2_game)
    assert hit.sinks == [[0, 1, 3, 4], [8]]
    expected = np.ones((9, 2)) * np.nan
    for pid in (0, 1, 3, 4):
        expected[pid] = [1.0, 0.0]
    expected[8] = [0.0, 1.0]
    for pid in (2, 5, 6, 7):
        expected[pid] = [0.75, 0.25]
    np.testing.assert_allclose(hit.probabilities, expected, atol=1e-12)
    assert hit.rounds == 0


def reference_hitting_rows(chain, nodes, result):
    """The gather with a transient-row map, a column map and the unit rows
    of the absorbed nodes written by hand."""
    k = result.absorbing.size
    pos = np.zeros(chain.num_original, dtype=np.intp)
    pos[nodes] = np.arange(len(nodes))
    live = pos[chain.origin]
    hitting_row = np.full(len(nodes), -1)
    hitting_row[result.transient] = np.arange(result.transient.size)
    column = np.zeros(len(nodes), dtype=np.intp)
    column[result.absorbing] = np.arange(k)
    hitting_row = hitting_row[live]
    absorbed = np.flatnonzero(hitting_row < 0)
    if result.transient.size:
        rows = result.hitting[np.maximum(hitting_row, 0)]
        rows[absorbed] = 0.0
    else:
        rows = np.zeros((live.size, k))
    rows[absorbed, column[live[absorbed]]] = 1.0
    return rows


def test_hitting_rows_match_the_hand_built_unit_rows_bit_for_bit(monkeypatch):
    # The reference run takes the level solve with the crossing/inside split
    # and the gather with hand-built unit rows; the tie games include final
    # chains with no transient state and collapse rounds.
    games = _tie_game_set()
    results = {}

    def run(label):
        results[label] = (
            [limit_hitting_probabilities(g).probabilities for g in games]
            + [limit_hitting_probabilities(identical_interest_game(9)).probabilities]
            + [oracle_hitting_matrix(g, 1e-8).probabilities for g in games]
        )

    run("new")
    monkeypatch.setattr("sinklimit.solver._level_solve", reference_level_solve)
    monkeypatch.setattr("sinklimit.epsmc._hitting_rows", reference_hitting_rows)
    run("old")
    assert len(results["new"]) == 2 * len(games) + 1
    for new, old in zip(results["new"], results["old"]):
        assert new.shape == old.shape and new.tobytes() == old.tobytes()


def test_sink_rows_are_indicators():
    for seed in range(6):
        game = random_game(seed, 2, (3, 3), mode="integer")
        hit = limit_hitting_probabilities(game)
        for j, sink in enumerate(hit.sinks):
            for pid in sink:
                row = np.zeros(len(hit.sinks))
                row[j] = 1.0
                np.testing.assert_array_equal(hit.probabilities[pid], row)


def test_no_tie_games_take_degenerate_path():
    for seed in range(5):
        game = random_game(seed, 2, (4, 4))
        hit = limit_hitting_probabilities(game)
        assert hit.rounds == 0
        oracle = oracle_hitting_matrix(game, 1e-6).probabilities
        np.testing.assert_allclose(hit.probabilities, oracle, atol=1e-12)


def test_driver_matches_oracle_on_random_tie_games():
    cases = [(s, 2, (3, 3)) for s in range(15)]
    cases += [(s, 2, (4, 4)) for s in range(10)]
    cases += [(s, 3, (2, 3, 2)) for s in range(10)]
    cases += [(s, 3, (3, 3, 3)) for s in range(5)]
    worst = 0.0
    for seed, p, counts in cases:
        game = random_game(seed, p, counts, mode="integer")
        hit = limit_hitting_probabilities(game)
        oracle = oracle_hitting_matrix(game, 1e-8)
        assert hit.sinks == oracle.sinks
        gap = float(np.max(np.abs(hit.probabilities - oracle.probabilities)))
        worst = max(worst, gap)
        rows = hit.probabilities.sum(axis=1)
        np.testing.assert_allclose(rows, 1.0, atol=1e-9)
        assert np.all(hit.probabilities >= 0) and np.all(hit.probabilities <= 1)
    assert worst < 1e-4


def test_driver_lemma_instrumentation():
    seen_multi_round = False
    for seed in range(40):
        game = random_game(seed, 3, (2, 2, 3), mode="integer")
        hit = limit_hitting_probabilities(game)
        trace = hit.order_trace
        assert trace[-1] == 0
        assert all(a > b for a, b in zip(trace, trace[1:]))
        assert hit.rounds == len(trace) - 1
        assert hit.rounds <= trace[0]
        assert all(c >= 1 for c in hit.pseudosink_counts)
        seen_multi_round = seen_multi_round or hit.rounds >= 1
    assert seen_multi_round


def test_collapse_invariance_of_singleton_pseudosinks():
    checked = 0
    for seed in range(60):
        if checked >= 8:
            break
        game = random_game(seed, 2, (3, 3), mode="integer")
        chain = collapsed_chain(game)
        singles = [c for c in rsccs(chain) if len(c) == 1]
        if not singles:
            continue
        members = singles[0]
        before = oracle_hitting_at_epsilon(chain, 1e-8)
        nodes_before = chain.live_nodes()
        collapse_pseudosink(chain, [members])
        after = oracle_hitting_at_epsilon(chain, 1e-8)
        nodes_after = chain.live_nodes()
        rows_b = {}
        for pos, i in enumerate(before.transient):
            rows_b[nodes_before[i]] = before.hitting[pos]
        rows_a = {}
        for pos, i in enumerate(after.transient):
            rows_a[nodes_after[i]] = after.hitting[pos]
        survivors = [v for v in rows_a if v not in members and v in rows_b]
        assert survivors or len(rows_b) == len(members)
        for v in survivors:
            np.testing.assert_allclose(rows_b[v], rows_a[v], atol=1e-9)
        checked += 1
    assert checked >= 3


def test_collapse_invariance_multinode_pseudosink():
    chain = EpsilonMC.from_edges(
        5,
        regular=[(0, 1, 1.0), (1, 0, 1.0), (4, 0, 0.5), (4, 3, 0.5)],
        eps=[(0, 2, 1.0), (1, 3, 3.0)],
        absorbing=[2, 3],
    )
    before = oracle_hitting_at_epsilon(chain, 1e-8)
    h4_before = before.hitting[list(before.transient).index(4)]
    collapse_pseudosink(chain, [[0, 1]])
    after = oracle_hitting_at_epsilon(chain, 1e-8)
    nodes_after = chain.live_nodes()
    h4_after = after.hitting[[nodes_after[i] for i in after.transient].index(4)]
    np.testing.assert_allclose(h4_before, [0.125, 0.875], atol=1e-6)
    np.testing.assert_allclose(h4_after, h4_before, atol=1e-6)
