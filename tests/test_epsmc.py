import numpy as np
import pytest

import sinklimit.game
from sinklimit import (
    ContractViolation,
    EpsilonMC,
    build_cmc,
    build_response_graph,
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
    graph = build_response_graph(game, tie_tolerance)
    return from_cmc(build_cmc(game, tie_tolerance), sink_equilibria(graph))


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
    assert chain.regular_out(0) == {1: 0.75, 2: 0.25}
    assert chain.eps_out(0) == {1: 3.0}


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


def test_validate_rejects_bad_rows():
    with pytest.raises(ContractViolation, match="sum"):
        EpsilonMC.from_edges(2, regular=[(0, 1, 0.5)])
    with pytest.raises(ContractViolation, match="absorbing"):
        EpsilonMC.from_edges(2, regular=[(0, 1, 1.0)], absorbing=[0])


def test_copy_is_independent():
    chain = EpsilonMC.from_edges(
        3, regular=[(0, 1, 1.0)], eps=[(1, 2, 1.0)], absorbing=[2]
    )
    dup = chain.copy()
    dup.reg.data[:] = 0.5
    dup.eps.data[:] = 2.0
    dup.absorbing.add(0)
    dup._collapse([[0, 1]], new_rows=[(np.array([2]), np.array([1.0]))])
    assert chain.regular_out(0) == {1: 1.0}
    assert chain.eps_out(1) == {2: 1.0}
    assert chain.absorbing == {2}
    assert chain.origin.tolist() == [0, 1, 2]
    assert dup.live_nodes() == [0, 2] and dup.origin.tolist() == [0, 0, 2]


# -- sink collapse ---------------------------------------------------------------


def test_from_cmc_fig2_counts(fig2_game):
    chain = collapsed_chain(fig2_game)
    assert chain.num_live == 6
    assert chain.absorbing == {0, 8}
    assert sorted(chain.live_nodes()) == [0, 2, 5, 6, 7, 8]
    for member in (1, 3, 4):
        assert chain.current(member) == 0


def test_from_cmc_fig3_is_identity_on_nodes(fig3_game):
    chain = collapsed_chain(fig3_game)
    assert chain.num_live == 9
    assert chain.absorbing == {0, 4}


def test_from_cmc_whole_graph_sink(matching_pennies):
    chain = collapsed_chain(matching_pennies)
    assert chain.num_live == 1
    assert chain.absorbing == {0}
    hit = limit_hitting_probabilities(matching_pennies)
    np.testing.assert_array_equal(hit.probabilities, np.ones((4, 1)))


def test_from_cmc_rejects_unclosed_sink(fig3_game):
    cmc = build_cmc(fig3_game)
    with pytest.raises(ContractViolation, match="leaves"):
        from_cmc(cmc, [[1]])


# -- rSCC partition --------------------------------------------------------------


def test_rsccs_fig3_pseudosink(fig3_game):
    part = rsccs(collapsed_chain(fig3_game))
    assert part.pseudosinks() == [[8]]
    label_of = {tuple(c): l for c, l in zip(part.components, part.labels)}
    assert label_of[(0,)] == "sink"
    assert label_of[(2,)] == "ordinary"


def test_rsccs_without_eps_edges_has_no_pseudosinks():
    chain = EpsilonMC.from_edges(
        3, regular=[(0, 1, 1.0), (1, 0, 0.5), (1, 2, 0.5)], absorbing=[2]
    )
    part = rsccs(chain)
    assert part.pseudosinks() == []
    assert {tuple(c) for c in part.components} == {(0, 1), (2,)}


def test_rsccs_eps_two_cycle_stays_split():
    chain = EpsilonMC.from_edges(2, eps=[(0, 1, 1.0), (1, 0, 1.0)])
    part = rsccs(chain)
    assert part.components == [[0], [1]]
    assert part.labels == ["pseudosink", "pseudosink"]


# -- orders ----------------------------------------------------------------------


def test_orders_fig3(fig3_game):
    orders = node_orders(collapsed_chain(fig3_game))
    assert orders.max_order == 1
    assert orders.order[8] == 1
    assert all(orders.order[v] == 0 for v in range(8))


def test_orders_absorbing_is_zero():
    chain = EpsilonMC.from_edges(1, absorbing=[0])
    assert node_orders(chain).order[0] == 0


def test_orders_count_eps_hops():
    chain = EpsilonMC.from_edges(3, eps=[(0, 1, 1.0), (1, 2, 1.0)], absorbing=[2])
    orders = node_orders(chain)
    assert orders.order == {0: 2, 1: 1, 2: 0}
    assert orders.max_order == 2


def test_orders_prefer_regular_bypass():
    chain = EpsilonMC.from_edges(
        3, regular=[(0, 2, 1.0)], eps=[(0, 1, 1.0), (1, 2, 1.0)], absorbing=[2]
    )
    assert node_orders(chain).order == {0: 0, 1: 1, 2: 0}


def test_orders_unreachable_node_raises():
    chain = EpsilonMC.from_edges(3, regular=[(0, 1, 1.0), (1, 0, 1.0)], absorbing=[2])
    with pytest.raises(ContractViolation, match="reach"):
        node_orders(chain)


# -- pseudosink collapse ----------------------------------------------------------


def test_collapse_fig3_pseudosink(fig3_game):
    chain = collapsed_chain(fig3_game)
    collapse_pseudosink(chain, [8], np.array([1.0]))
    assert chain.regular_out(8) == {2: 1.0}
    assert chain.eps_out(8) == {}
    # the incoming tie edge from (3,1) is redirected, still epsilon class
    assert chain.eps_out(2) == {8: 1.0}


def test_collapse_singleton_weight_ratios():
    chain = EpsilonMC.from_edges(
        3, eps=[(0, 1, 2.0), (0, 2, 1.0)], absorbing=[1, 2]
    )
    collapse_pseudosink(chain, [0], np.array([1.0]))
    out = chain.regular_out(0)
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
    collapse_pseudosink(chain, [0, 1], np.array([0.5, 0.5]))
    out = chain.regular_out(0)
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
        collapse_pseudosink(chain, [2], np.array([1.0]))


def test_collapse_rejects_bad_stationary_vector():
    chain = two_node_pseudosink_chain()
    with pytest.raises(ContractViolation, match="normalized"):
        collapse_pseudosink(chain, [0, 1], np.array([0.9, 0.3]))
    with pytest.raises(ContractViolation, match="match"):
        collapse_pseudosink(chain, [0, 1], np.array([1.0]))


def test_batch_collapse_matches_one_at_a_time():
    # Pseudosink {0} exits into both members of pseudosink {1, 2}, which
    # exits back into 0: the batch relabels 0's exit row onto node 1.
    edges = dict(
        regular=[(1, 2, 1.0), (2, 1, 1.0)],
        eps=[(0, 1, 1.0), (0, 2, 2.0), (0, 4, 1.0), (1, 0, 1.0), (2, 3, 3.0)],
        absorbing=[3, 4],
    )
    pis = {(0,): np.array([1.0]), (1, 2): np.array([0.5, 0.5])}
    batch = EpsilonMC.from_edges(5, **edges)
    pseudos = rsccs(batch).pseudosinks()
    assert pseudos == [[0], [1, 2]]
    exits = [epsmc._exit_row(batch, m, pis[tuple(m)]) for m in pseudos]
    batch._collapse(pseudos, new_rows=exits)
    serial = EpsilonMC.from_edges(5, **edges)
    for members in pseudos:
        collapse_pseudosink(serial, members, pis[tuple(members)])
    assert batch.live_nodes() == serial.live_nodes() == [0, 1, 3, 4]
    assert batch.origin.tolist() == serial.origin.tolist() == [0, 1, 1, 3, 4]
    for v in (0, 1):
        assert batch.regular_out(v) == pytest.approx(serial.regular_out(v), abs=1e-15)
        assert batch.eps_out(v) == serial.eps_out(v) == {}
    assert batch.regular_out(0) == pytest.approx({1: 0.75, 4: 0.25}, abs=1e-15)
    assert batch.regular_out(1) == pytest.approx({0: 0.25, 3: 0.75}, abs=1e-15)


# -- epsilon deletion --------------------------------------------------------------


def test_delete_eps_noop_without_eps_edges():
    chain = EpsilonMC.from_edges(
        3, regular=[(0, 1, 0.5), (0, 2, 0.5)], absorbing=[1, 2]
    )
    delete_epsilon_edges(chain)
    assert chain.regular_out(0) == {1: 0.5, 2: 0.5}


def test_delete_eps_keeps_regular_weights():
    chain = EpsilonMC.from_edges(
        3,
        regular=[(0, 1, 0.5), (0, 2, 0.5)],
        eps=[(0, 1, 1.0)],
        absorbing=[1, 2],
    )
    delete_epsilon_edges(chain)
    assert chain.regular_out(0) == {1: 0.5, 2: 0.5}
    assert chain.eps_out(0) == {}


def test_delete_eps_requires_order_zero():
    chain = EpsilonMC.from_edges(2, eps=[(0, 1, 1.0)], absorbing=[1])
    with pytest.raises(ContractViolation, match="order"):
        delete_epsilon_edges(chain)


def test_delete_eps_preserves_hitting_fig3(fig3_game):
    chain = collapsed_chain(fig3_game)
    collapse_pseudosink(chain, [8], np.array([1.0]))
    delete_epsilon_edges(chain)
    assert chain.num_eps_edges() == 0
    # against the small-eps oracle of the untouched chain
    limit = limit_hitting_probabilities(fig3_game).probabilities
    oracle = oracle_hitting_matrix(fig3_game, 1e-8).probabilities
    assert np.max(np.abs(limit - oracle)) < 1e-6


# -- full driver --------------------------------------------------------------------


def test_fig3_exact_hitting_matrix(fig3_game):
    hit = limit_hitting_probabilities(fig3_game)
    assert hit.sinks == [[0], [4]]
    np.testing.assert_allclose(hit.probabilities, FIG3_EXPECTED, atol=1e-12)
    assert hit.rounds == 1
    assert hit.order_trace == [1, 0]
    assert hit.pseudosink_counts == [1]


def test_driver_builds_response_graph_once(fig3_game, monkeypatch):
    calls = []
    build = sinklimit.game.build_response_graph

    def counting_build(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(sinklimit.game, "build_response_graph", counting_build)
    limit_hitting_probabilities(fig3_game)
    assert len(calls) == 1


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
        singles = [c for c in rsccs(chain).pseudosinks() if len(c) == 1]
        if not singles:
            continue
        members = singles[0]
        before = oracle_hitting_at_epsilon(chain, 1e-8)
        nodes_before = chain.live_nodes()
        after_chain = chain.copy()
        collapse_pseudosink(after_chain, members, np.array([1.0]))
        after = oracle_hitting_at_epsilon(after_chain, 1e-8)
        nodes_after = after_chain.live_nodes()
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
    after_chain = chain.copy()
    collapse_pseudosink(after_chain, [0, 1], np.array([0.5, 0.5]))
    after = oracle_hitting_at_epsilon(after_chain, 1e-8)
    nodes_after = after_chain.live_nodes()
    h4_after = after.hitting[[nodes_after[i] for i in after.transient].index(4)]
    np.testing.assert_allclose(h4_before, [0.125, 0.875], atol=1e-6)
    np.testing.assert_allclose(h4_after, h4_before, atol=1e-6)
