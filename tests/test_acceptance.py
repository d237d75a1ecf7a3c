"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; the
whole suite is deterministic.
"""

import itertools
import json
import time

import numpy as np
import pytest

from sinklimit import (
    Prior,
    ReplicatorParams,
    build_reduced_response_graph,
    estimate_limit_distribution,
    limit_hitting_probabilities,
    node_orders,
    noisy_replicator_step,
    oracle_hitting_matrix,
    project_to_simplex,
    random_game,
    rsccs,
    sink_equilibria,
)
from sinklimit.cli import main
from sinklimit.epsmc import from_cmc
from sinklimit.game import build_cmc, save_game
from sinklimit.scc import sink_components

from conftest import full_graph

from test_dynamics import exact_simplex_projection


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num} ({name}): {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def _tie_game_set():
    """>= 100 random integer-utility games with p in {2,3}, s_i in {2,3,4}."""
    shapes = [
        (2, (2, 2)), (2, (3, 3)), (2, (4, 4)), (2, (2, 3)), (2, (3, 4)),
        (3, (2, 2, 2)), (3, (2, 3, 2)), (3, (3, 3, 3)), (3, (2, 2, 4)),
    ]
    games = []
    for i, (p, counts) in enumerate(shapes):
        for seed in range(12):
            games.append(random_game(seed, p, counts, mode="integer", int_max=1 + (seed + i) % 3))
    return games


def test_criterion_1_fig2_sinks(tmp_path, capsys, fig2_game):
    start = time.perf_counter()
    path = tmp_path / "fig2.json"
    save_game(fig2_game, path)
    code = main(["sinks", str(path)])
    payload = json.loads(capsys.readouterr().out)
    elapsed = time.perf_counter() - start
    ok = (
        code == 0
        and payload["sinks"] == [[0, 1, 3, 4], [8]]
        and elapsed < 1.0
    )
    with capsys.disabled():
        _report(1, "figure-2 sink report", ok, f"{elapsed:.3f}s")


def test_criterion_2_fig3_pseudosink(fig3_game):
    chain = from_cmc(build_cmc(fig3_game), sink_equilibria(fig3_game))
    orders = node_orders(chain)
    pseudos = rsccs(chain)
    hit = limit_hitting_probabilities(fig3_game)
    ok = (
        pseudos == [[8]]
        and orders[8] == 1
        and orders.max() == 1
        and abs(hit.probabilities[8, 0] - 1.0) <= 1e-9
        and hit.rounds == 1
    )
    _report(2, "figure-3 order-1 pseudosink", ok,
            f"h={hit.probabilities[8, 0]!r}, rounds={hit.rounds}")


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    games = _tie_game_set()
    worst_gap = 0.0
    monotone = 0
    for game in games:
        hit = limit_hitting_probabilities(game)
        gaps = []
        for eps in (1e-4, 1e-6, 1e-8):
            oracle = oracle_hitting_matrix(game, eps)
            gaps.append(float(np.max(np.abs(hit.probabilities - oracle.probabilities))))
        worst_gap = max(worst_gap, gaps[-1])
        if gaps[0] + 1e-12 >= gaps[1] >= gaps[2] - 1e-12:
            monotone += 1
    elapsed = time.perf_counter() - start
    share = monotone / len(games)
    ok = len(games) >= 100 and worst_gap < 1e-4 and share >= 0.95 and elapsed < 120
    _report(3, "oracle equivalence", ok,
            f"{len(games)} games, worst gap {worst_gap:.2e}, "
            f"monotone {share:.0%}, {elapsed:.1f}s")


def test_criterion_4_lemma_suite(fig2_game, fig3_game):
    games = _tie_game_set() + [fig2_game, fig3_game]
    games += [random_game(s, 3, (2, 2, 3), mode="integer", int_max=1) for s in range(40)]
    violations = 0
    for game in games:
        hit = limit_hitting_probabilities(game)  # raises if a round finds no pseudosink
        trace = hit.order_trace
        if not all(a > b for a, b in zip(trace, trace[1:])):
            violations += 1
        if len(hit.pseudosink_counts) != hit.rounds or any(
            c < 1 for c in hit.pseudosink_counts
        ):
            violations += 1
        rows = hit.probabilities.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > 1e-9:
            violations += 1
    ok = violations == 0
    _report(4, "lemma property suite", ok, f"{len(games)} games, {violations} violations")


def test_criterion_5_reduced_graph_equivalence():
    start = time.perf_counter()
    shapes = [
        (2, (3, 3)), (2, (4, 4)), (2, (5, 5)), (2, (6, 6)), (2, (12, 12)),
        (3, (2, 2, 2)), (3, (3, 3, 3)), (3, (2, 3, 4)), (4, (2, 2, 2, 2)),
        (3, (4, 4, 4)),
    ]
    checked = 0
    mismatches = 0
    worst_avg = 0.0
    for (p, counts), seed, mode in itertools.product(shapes, range(10), ("continuous", "integer")):
        game = random_game(seed, p, counts, mode=mode)
        assert game.num_profiles <= 200
        red = build_reduced_response_graph(game)
        if sink_equilibria(game) != sink_components(full_graph(game)):
            mismatches += 1
        worst_avg = max(worst_avg, red.nnz / (game.num_profiles * game.num_players))
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked >= 200 and mismatches == 0 and worst_avg <= 1.5
    _report(5, "reduced-graph equivalence", ok,
            f"{checked} games, {mismatches} mismatches, "
            f"max avg out-degree/line {worst_avg:.3f}, {elapsed:.1f}s")


def test_criterion_6_fig2_simulation(fig2_game):
    start = time.perf_counter()
    dist = estimate_limit_distribution(
        fig2_game,
        Prior("uniform"),
        ReplicatorParams(rng_seed=2024),
        tv_tol=0.01,
        runs_per_sample=40,
    )
    elapsed = time.perf_counter() - start
    sink_mass = float(dist.sink_probabilities.sum())
    # Regression split pinned from the first measurement of this seed.
    split_ok = abs(dist.sink_probabilities[0] - 0.869) < 0.05
    ok = sink_mass >= 0.99 and dist.converged and elapsed < 300 and split_ok
    _report(6, "figure-2 simulation", ok,
            f"mass {sink_mass:.4f}, split {np.round(dist.sink_probabilities, 4)}, "
            f"samples {dist.samples}, {elapsed:.1f}s")


def test_criterion_7_scale_check():
    times = []
    ok = True
    for seed in range(3):
        game = random_game(seed, 12, (2,) * 12)
        start = time.perf_counter()
        hit = limit_hitting_probabilities(game)
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        initial_order = hit.order_trace[0]
        if elapsed >= 60 or hit.rounds > initial_order + 1:
            ok = False
        if np.max(np.abs(hit.probabilities.sum(axis=1) - 1.0)) > 1e-9:
            ok = False
    _report(7, "4096-profile scale check", ok,
            "walls " + ", ".join(f"{t:.1f}s" for t in times))


def test_criterion_8_replicator_invariants():
    rng = np.random.default_rng(77)
    params = ReplicatorParams()
    violations = 0
    steps = 0
    games = [random_game(s, 2, (3, 3)) for s in range(4)]
    games += [random_game(s, 3, (2, 2, 2), mode="integer") for s in range(3)]
    games += [random_game(s, 2, (4, 4), mode="integer") for s in range(3)]
    step_rng = np.random.default_rng(78)
    for game in games:
        x = tuple(rng.dirichlet(np.ones(s)) for s in game.strategy_counts)
        for _ in range(1000):
            prev_support = [xi > 0 for xi in x]
            x = noisy_replicator_step(game, x, params, step_rng)
            steps += 1
            for xi, sup in zip(x, prev_support):
                if abs(float(xi.sum()) - 1.0) > 1e-9 or np.any(xi < 0):
                    violations += 1
                if np.any(~sup & (xi > 0)):
                    violations += 1
    proj_worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 7))
        v = rng.normal(0.0, 1.5, k)
        mask = np.ones(k, dtype=bool)
        got = project_to_simplex(v)
        want = exact_simplex_projection(v, mask)
        proj_worst = max(proj_worst, float(np.max(np.abs(got - want))))
    ok = steps >= 10_000 and violations == 0 and proj_worst < 1e-8
    _report(8, "replicator invariants", ok,
            f"{steps} steps, {violations} violations, projection gap {proj_worst:.1e}")
