from sinklimit.scc import sink_components, strongly_connected_components


def test_tarjan_partitions_known_graph():
    adj = {0: [1], 1: [2], 2: [0], 3: [1, 2, 4], 4: [5, 3], 5: [6, 1], 6: [5], 7: [6, 7, 4]}
    comps = strongly_connected_components(range(8), lambda v: adj[v])
    as_sets = {frozenset(c) for c in comps}
    assert as_sets == {frozenset({0, 1, 2}), frozenset({3, 4}), frozenset({5, 6}), frozenset({7})}


def test_tarjan_deep_chain_is_iterative():
    n = 50_000
    comps = strongly_connected_components(range(n), lambda v: [v + 1] if v + 1 < n else [])
    assert len(comps) == n


def test_sink_components_ordering_and_members():
    adj = {0: [1], 1: [0, 2], 2: [3], 3: [2], 4: [], 5: [4]}
    sinks = sink_components(range(6), lambda v: adj[v])
    assert sinks == [[2, 3], [4]]

