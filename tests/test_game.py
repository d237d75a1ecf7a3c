import json

import numpy as np
import pytest
import scipy.sparse as sp

from sinklimit import (
    Game,
    GameFormatError,
    build_cmc,
    build_reduced_response_graph,
    build_response_graph,
    decode_profile,
    encode_profile,
    game_from_json,
    game_to_json,
    profile_label,
    random_game,
    sink_equilibria,
)
from sinklimit.game import profile_labels
from sinklimit.scc import sink_components, strongly_connected_components

from conftest import bimatrix, full_graph, row


def one_player(utilities) -> Game:
    return Game((len(utilities),), (np.array(utilities, dtype=float),))


def successors(matrix) -> tuple:
    """Sorted successor tuple of every row of a CSR pattern."""
    return tuple(
        tuple(sorted(matrix.indices[matrix.indptr[v] : matrix.indptr[v + 1]].tolist()))
        for v in range(matrix.shape[0])
    )


def enumerated_edges(game, tie_tolerance):
    """Regular and tie edges by direct enumeration of every profile's
    deviations, in (player, line, from strategy, to strategy) order."""
    regular, ties = [], []
    for player, s in enumerate(game.strategy_counts):
        for base in range(game.num_profiles):
            profile = list(decode_profile(base, game))
            if profile[player]:
                continue
            line = [encode_profile(profile[:player] + [a] + profile[player + 1 :], game)
                    for a in range(s)]
            for a in range(s):
                for b in range(s):
                    u, v = line[a], line[b]
                    gain = game.utility(player, v) - game.utility(player, u)
                    if a != b and gain > tie_tolerance:
                        regular.append([u, v, player, gain])
                    elif a < b and abs(gain) <= tie_tolerance:
                        ties.append([u, v, player])
    return regular, ties


def reachable_sets(num_nodes, adj):
    """Brute-force transitive closure by BFS from every node."""
    out = []
    for start in range(num_nodes):
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        out.append(frozenset(seen))
    return out


# -- profile encoding --------------------------------------------------------


def test_encode_profile_examples():
    g33 = random_game(0, 2, (3, 3))
    assert encode_profile((0, 0), g33) == 0
    assert encode_profile((2, 2), g33) == 8
    g333 = random_game(0, 3, (3, 3, 3))
    assert encode_profile((1, 0, 2), g333) == 19


def test_encode_decode_round_trip():
    rng = np.random.default_rng(7)
    for counts in [(2,), (4, 3), (2, 3, 2), (3, 3, 3), (2, 2, 2, 2)]:
        game = random_game(1, len(counts), counts)
        for pid in range(game.num_profiles):
            assert encode_profile(decode_profile(pid, game), game) == pid
        for _ in range(20):
            v = tuple(int(rng.integers(0, s)) for s in counts)
            assert decode_profile(encode_profile(v, game), game) == v


def test_encode_profile_range_errors():
    game = random_game(0, 2, (3, 3))
    with pytest.raises(GameFormatError):
        encode_profile((3, 0), game)
    with pytest.raises(GameFormatError):
        encode_profile((0,), game)
    with pytest.raises(GameFormatError):
        decode_profile(9, game)


def test_profile_label_is_one_indexed():
    game = random_game(0, 2, (3, 3))
    assert profile_label(0, game) == "(1,1)"
    assert profile_label(8, game) == "(3,3)"


@pytest.mark.parametrize("counts", [(3, 3), (2, 2, 2), (12,), (1, 3, 1), (10, 2, 11), (2,) * 5])
def test_profile_labels_match_profile_label(counts):
    game = Game(counts, tuple(np.zeros(int(np.prod(counts))) for _ in counts))
    labels = profile_labels(game)
    assert labels == [profile_label(pid, game) for pid in range(game.num_profiles)]
    assert len(set(labels)) == game.num_profiles


class IntEntry(int):
    pass


class FloatEntry(float):
    pass


@pytest.mark.parametrize("entry", [3, 2.5, IntEntry(3), FloatEntry(2.5)])
def test_game_from_json_accepts_numbers(entry):
    game = game_from_json({"players": 1, "strategies": [2], "utilities": [[0, entry]]})
    assert game.utilities[0].tolist() == [0.0, float(entry)]


@pytest.mark.parametrize("entry", [True, "1", None, [1]], ids=["bool", "str", "none", "list"])
def test_game_from_json_rejects_non_numbers(entry):
    obj = {"players": 2, "strategies": [1, 2], "utilities": [[0, 1], [0.5, entry]]}
    with pytest.raises(GameFormatError, match=r"^utilities\[1\]: entries must be numbers$"):
        game_from_json(obj)


# -- response graph ----------------------------------------------------------


def test_fig2_column_edge(fig2_game):
    # (1,1) -> (1,2) is the column player's unique strict improvement, gain 1.
    graph = build_response_graph(fig2_game)
    edges = {(u, v): (p, d) for u, v, p, d in graph.regular_edges}
    assert edges[(0, 3)] == (1, 1.0)
    out_of_origin = [e for e in graph.regular_edges if e[0] == 0]
    assert len(out_of_origin) == 1


def test_fig3_tie_edge_and_no_regular_out(fig3_game):
    graph = build_response_graph(fig3_game)
    assert [2, 8, 1] in graph.tie_edges.tolist()
    assert not any(u == 8 for u, _, _, _ in graph.regular_edges)


def test_one_player_improvement_edge():
    graph = build_response_graph(one_player((0.0, 5.0)))
    assert graph.regular_edges.tolist() == [[0, 1, 0, 5.0]]
    assert graph.tie_edges.tolist() == []


def test_edges_are_single_player_deviations():
    game = random_game(3, 3, (2, 3, 2), mode="integer")
    graph = build_response_graph(game)
    for u, v, player, gain in graph.regular_edges.tolist():
        u, v, player = int(u), int(v), int(player)
        du, dv = decode_profile(u, game), decode_profile(v, game)
        diff = [i for i in range(3) if du[i] != dv[i]]
        assert diff == [player]
        assert gain > 0
        assert game.utility(player, v) - game.utility(player, u) == gain
    for u, v, player in graph.tie_edges.tolist():
        assert u < v
        assert game.utility(player, v) == game.utility(player, u)


def test_tie_tolerance_reclassifies_near_ties():
    game = one_player((0.0, 1e-12))
    assert len(build_response_graph(game).regular_edges) > 0
    graph = build_response_graph(game, tie_tolerance=1e-9)
    assert len(graph.regular_edges) == 0
    assert graph.tie_edges.tolist() == [[0, 1, 0]]


def seeded_tie_games():
    for seed in range(40, 60):
        yield random_game(seed, 4, (3,) * 4, mode="integer", int_max=2)
    for seed in range(20):
        yield random_game(seed, 3, (3, 3, 3), mode="integer", int_max=1)
        yield random_game(seed, 2, (6, 6), mode="integer", int_max=2)
        yield random_game(seed, 6, (2,) * 6, mode="integer", int_max=1)


def test_response_graph_matches_enumeration():
    cases = [(game, tol) for game in seeded_tie_games() for tol in (0.0, 0.5)]
    cases += [(random_game(seed, 3, (2, 3, 4)), 0.0) for seed in range(5)]
    for game, tol in cases:
        graph = build_response_graph(game, tol)
        regular, ties = enumerated_edges(game, tol)
        assert graph.regular_edges.tolist() == regular
        assert graph.tie_edges.tolist() == ties


@pytest.mark.parametrize("tolerance", [-1e-9, float("nan"), float("inf")])
def test_tie_tolerance_must_be_finite_and_nonnegative(tolerance):
    game = random_game(0, 2, (3, 3), mode="integer")
    for build in (build_response_graph, build_reduced_response_graph):
        with pytest.raises(GameFormatError, match="tie tolerance"):
            build(game, tolerance)


# -- reduced graph -----------------------------------------------------------


def test_reduced_line_strictly_sorted():
    red = build_reduced_response_graph(one_player((1.0, 2.0, 3.0)))
    assert successors(red) == ((1,), (2,), ())


def test_reduced_line_with_tie_pair():
    red = build_reduced_response_graph(one_player((2.0, 2.0, 5.0)))
    assert successors(red) == ((1,), (0, 2), ())
    full = full_graph(one_player((2.0, 2.0, 5.0)))
    assert reachable_sets(3, successors(red)) == reachable_sets(3, successors(full))


def test_reduced_line_trailing_tie_group():
    red = build_reduced_response_graph(one_player((5.0, 5.0)))
    assert successors(red) == ((1,), (0,))


def line_sort_successors(game, tol) -> list[set]:
    """The reduced graph's successor sets by the per-line loop the array code
    replaced: sort each line, chain it, close each tie group."""
    expected = [set() for _ in range(game.num_profiles)]
    for player, s in enumerate(game.strategy_counts):
        for base in range(game.num_profiles):
            profile = list(decode_profile(base, game))
            if profile[player]:
                continue
            line = [encode_profile(profile[:player] + [a] + profile[player + 1 :], game)
                    for a in range(s)]
            line.sort(key=lambda pid: game.utility(player, pid))
            start = 0
            for j in range(s):
                if j + 1 < s:
                    expected[line[j]].add(line[j + 1])
                gap = j + 1 == s or (game.utility(player, line[j + 1])
                                     - game.utility(player, line[j]) > tol)
                if gap:
                    if j > start:
                        expected[line[j]].add(line[start])
                    start = j + 1
    return expected


def test_reduced_graph_matches_line_sort():
    for game in list(seeded_tie_games())[::4]:
        for tol in (0.0, 0.5):
            expected = line_sort_successors(game, tol)
            red = build_reduced_response_graph(game, tol)
            assert successors(red) == tuple(tuple(sorted(a)) for a in expected)
            assert red.nnz == sum(map(len, expected))


def test_reduced_graph_is_scipy_canonical_csr():
    # The numpy pattern stores what scipy's canonical CSR of the same edges
    # stores: rows in order, each row's columns ascending, no repeats.
    rng = np.random.default_rng(27)
    for game in list(seeded_tie_games())[::4]:
        for tol in (0.0, 0.5):
            edges = [(u, v) for u, succ in enumerate(line_sort_successors(game, tol))
                     for v in succ]
            rows, cols = np.array(edges).T[:, rng.permutation(len(edges))]
            n = game.num_profiles
            want = sp.csr_matrix((np.ones(len(edges)), (rows, cols)), shape=(n, n))
            want.sum_duplicates()
            red = build_reduced_response_graph(game, tol)
            assert red.shape == want.shape and red.nnz == want.nnz
            assert red.indptr.tolist() == want.indptr.tolist()
            assert red.indices.tolist() == want.indices.tolist()


def test_reduced_closure_and_sinks_match_full():
    cases = [(s, 2, (3, 3)) for s in range(10)]
    cases += [(s, 3, (2, 3, 2)) for s in range(10)]
    cases += [(s, 2, (4, 4)) for s in range(5)]
    for seed, p, counts in cases:
        for mode in ("continuous", "integer"):
            game = random_game(seed, p, counts, mode=mode)
            full = full_graph(game)
            red = build_reduced_response_graph(game)
            assert reachable_sets(game.num_profiles, successors(red)) == (
                reachable_sets(game.num_profiles, successors(full))
            )
            full_sccs = {frozenset(c) for c in strongly_connected_components(full)}
            red_sccs = {frozenset(c) for c in strongly_connected_components(red)}
            assert full_sccs == red_sccs
            assert sink_equilibria(game) == sink_components(full)


def test_reduced_edge_budget():
    for seed in range(20):
        game = random_game(seed, 2, (4, 4), mode="integer")
        red = build_reduced_response_graph(game)
        per_node_per_line = red.nnz / (game.num_profiles * game.num_players)
        assert per_node_per_line <= 1.5


# -- sink equilibria ---------------------------------------------------------


def test_fig2_sinks(fig2_game):
    assert sink_equilibria(fig2_game) == [[0, 1, 3, 4], [8]]


def test_fig3_sinks(fig3_game):
    assert sink_equilibria(fig3_game) == [[0], [4]]


def test_dominant_profile_is_unique_singleton_sink():
    game = bimatrix([[(5, 5), (1, 1)], [(1, 1), (0, 0)]])
    assert sink_equilibria(game) == [[0]]


# -- profile chain -----------------------------------------------------------


def test_cmc_fig2_normalized_single_edge(fig2_game):
    chain = build_cmc(fig2_game)
    assert row(chain.reg, 0) == {3: 1.0}
    assert row(chain.eps, 0) == {}


def test_cmc_fig3_pure_tie_node(fig3_game):
    chain = build_cmc(fig3_game)
    assert row(chain.reg, 8) == {}
    assert row(chain.eps, 8) == {2: 1.0}
    assert row(chain.eps, 2) == {8: 1.0}


def test_cmc_strict_equilibrium_is_bare(fig2_game):
    chain = build_cmc(fig2_game)
    assert row(chain.reg, 8) == {} and row(chain.eps, 8) == {}


def test_cmc_rows_normalized_and_positive():
    for seed in range(10):
        game = random_game(seed, 2, (3, 4), mode="integer")
        chain = build_cmc(game)
        for v in range(game.num_profiles):
            reg = row(chain.reg, v)
            if reg:
                assert abs(sum(reg.values()) - 1.0) <= 1e-12
                assert all(w > 0 for w in reg.values())
            assert all(c > 0 for c in row(chain.eps, v).values())


def test_cmc_sink_sccs_match_response_graph():
    for seed in range(10):
        game = random_game(seed, 2, (3, 3), mode="integer")
        chain = build_cmc(game)
        chain_sinks = sink_components(chain.reg + chain.eps)
        assert chain_sinks == sink_equilibria(game)


# -- random games ------------------------------------------------------------


def test_random_game_deterministic():
    a = random_game(42, 2, (3, 3))
    b = random_game(42, 2, (3, 3))
    assert all(np.array_equal(x, y) for x, y in zip(a.utilities, b.utilities))
    c = random_game(43, 2, (3, 3))
    assert not all(np.array_equal(x, y) for x, y in zip(a.utilities, c.utilities))


def test_random_game_continuous_has_no_ties():
    for seed in range(25):
        graph = build_response_graph(random_game(seed, 2, (3, 3)))
        assert len(graph.tie_edges) == 0


def test_random_game_integer_mode_tie_rate():
    with_ties = sum(
        1
        for seed in range(1000)
        if len(build_response_graph(random_game(seed, 2, (3, 3), mode="integer")).tie_edges)
    )
    assert with_ties > 950


# -- JSON round trip ---------------------------------------------------------


def test_game_json_round_trip_bit_exact():
    game = random_game(11, 3, (2, 3, 2))
    text = json.dumps(game_to_json(game))
    back = game_from_json(json.loads(text))
    assert back.strategy_counts == game.strategy_counts
    for a, b in zip(back.utilities, game.utilities):
        assert np.array_equal(a, b)


def test_game_json_errors_name_the_field():
    good = game_to_json(random_game(0, 2, (2, 2)))
    missing = dict(good)
    del missing["utilities"]
    with pytest.raises(GameFormatError, match="utilities"):
        game_from_json(missing)
    short = dict(good)
    short["utilities"] = [good["utilities"][0], good["utilities"][1][:-1]]
    with pytest.raises(GameFormatError, match=r"utilities\[1\]"):
        game_from_json(short)
    bad_players = dict(good)
    bad_players["players"] = "two"
    with pytest.raises(GameFormatError, match="players"):
        game_from_json(bad_players)


@pytest.mark.parametrize(
    "obj, field",
    [
        ({"players": True, "strategies": [1], "utilities": [[0]]}, "players"),
        ({"players": 1, "strategies": [True], "utilities": [[0]]}, "strategies"),
        ({"players": 2, "strategies": [2, True], "utilities": [[0, 0], [0, 0]]}, "strategies"),
    ],
)
def test_game_json_rejects_booleans_as_counts(obj, field):
    with pytest.raises(GameFormatError, match=field):
        game_from_json(obj)


def test_game_validation():
    with pytest.raises(GameFormatError, match="finite"):
        Game((2,), (np.array([np.inf, 0.0]),))
    with pytest.raises(GameFormatError, match="strategies"):
        Game((0, 2), (np.zeros(0), np.zeros(0)))
    with pytest.raises(GameFormatError, match="utilities"):
        Game((2, 2), (np.zeros(4),))
