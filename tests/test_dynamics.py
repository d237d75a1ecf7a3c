import itertools

import numpy as np
import pytest

from sinklimit import (
    Game,
    Prior,
    ReplicatorParams,
    best_response_vector,
    build_reduced_response_graph,
    build_response_graph,
    decode_profile,
    estimate_limit_distribution,
    exact_limit_distribution,
    limit_hitting_probabilities,
    noisy_replicator_step,
    project_to_simplex,
    random_game,
    simulate_to_sink,
    sink_equilibria,
    total_variation,
    vertex_profile,
)
import sinklimit.dynamics
from sinklimit.dynamics import _VERTEX_TOLERANCE, _expected_utilities_batch, _simulate_batch
from sinklimit.scc import group_ids


def exact_simplex_projection(v, mask):
    """Exact projection by enumerating candidate supports: the optimum's
    support yields the affine formula, so the best feasible candidate over
    all subsets is the projection."""
    idx = [i for i in range(len(v)) if mask[i]]
    best = None
    for r in range(1, len(idx) + 1):
        for sub in itertools.combinations(idx, r):
            lam = (1.0 - sum(v[list(sub)])) / len(sub)
            x = np.zeros(len(v))
            x[list(sub)] = v[list(sub)] + lam
            if np.all(x[list(sub)] >= -1e-14):
                obj = float(np.sum((x - np.where(mask, v, 0.0)) ** 2))
                if best is None or obj < best[0] - 1e-15:
                    best = (obj, x)
    return best[1]


def reference_simulate(game, x0, sinks, params, rng):
    """Independent re-implementation of the trajectory classification rule,
    driven by the public single-step function."""
    lookup = group_ids(game.num_profiles, sinks)
    x = x0
    streak_sink, streak_len, streak_close = -2, 0, False
    for _ in range(params.max_steps):
        x = noisy_replicator_step(game, x, params, rng)
        nearest = [int(np.argmax(xi)) for xi in x]
        pid = sum(a * s for a, s in zip(nearest, game.strides))
        s = int(lookup[pid])
        dist = max(
            float(np.max(np.abs(xi - np.eye(len(xi))[a])))
            for xi, a in zip(x, nearest)
        )
        close = dist < _VERTEX_TOLERANCE
        if s >= 0 and s == streak_sink:
            streak_len += 1
            streak_close = streak_close or close
        elif s >= 0:
            streak_sink, streak_len, streak_close = s, 1, close
        else:
            streak_sink, streak_len, streak_close = -2, 0, False
        if streak_len >= params.window and streak_close:
            return s
        if all(int(np.sum(xi > 0)) == 1 for xi in x):
            return s if s >= 0 else None
    return None


# -- best response -------------------------------------------------------------


def test_best_response_pure_profiles():
    game = random_game(4, 2, (3, 3))
    x = vertex_profile(game, 4)
    br = best_response_vector(game, x, 0)
    # against a pure opponent the supported best response is the vertex itself
    np.testing.assert_array_equal(br, [0, 1, 0])


def test_best_response_fig2_uniform_breaks_tie_low(fig2_game):
    x = (np.full(3, 1 / 3), np.full(3, 1 / 3))
    br = best_response_vector(fig2_game, x, 0)
    np.testing.assert_array_equal(br, [1, 0, 0])


def test_best_response_respects_support(fig2_game):
    x = (np.array([0.0, 0.0, 1.0]), np.full(3, 1 / 3))
    br = best_response_vector(fig2_game, x, 0)
    np.testing.assert_array_equal(br, [0, 0, 1])


def test_many_player_game_matches_its_two_player_core():
    """25 one-strategy players between the two real ones change nothing."""
    core = random_game(8, 2, (3, 3))
    counts = (3,) + (1,) * 25 + (3,)
    wide = Game(counts, (core.utilities[0],) + (np.zeros(9),) * 25 + (core.utilities[1],))
    rng = np.random.default_rng(2)
    x0, x1 = rng.dirichlet(np.ones(3), size=5), rng.dirichlet(np.ones(3), size=5)
    X = [x0] + [np.ones((5, 1))] * 25 + [x1]
    for player, core_player in ((0, 0), (26, 1)):
        np.testing.assert_allclose(  # the einsum may sum in another order
            _expected_utilities_batch(wide, X, player),
            _expected_utilities_batch(core, [x0, x1], core_player),
            rtol=1e-14,
        )
        np.testing.assert_array_equal(
            best_response_vector(wide, [row[0] for row in X], player),
            best_response_vector(core, (x0[0], x1[0]), core_player),
        )


def test_expected_utilities_reject_52_players():
    game = Game((2,) + (1,) * 51, (np.arange(2.0),) * 52)
    with pytest.raises(ValueError):
        _expected_utilities_batch(game, [np.full((1, s), 1.0 / s) for s in game.strategy_counts], 0)


# -- simplex projection ----------------------------------------------------------


def test_projection_identity_on_simplex():
    v = np.array([0.2, 0.5, 0.3])
    np.testing.assert_allclose(project_to_simplex(v), v, atol=1e-15)


def test_projection_symmetric_overshoot():
    np.testing.assert_allclose(
        project_to_simplex(np.array([0.8, 0.8])), [0.5, 0.5], atol=1e-15
    )


def test_projection_thresholds_to_vertex():
    np.testing.assert_allclose(
        project_to_simplex(np.array([1.3, -0.1, 0.1])), [1.0, 0.0, 0.0], atol=1e-15
    )


def test_projection_against_enumeration_oracle():
    rng = np.random.default_rng(17)
    for _ in range(100):
        k = int(rng.integers(2, 7))
        v = rng.normal(0, 1.5, k)
        mask = np.zeros(k, dtype=bool)
        mask[rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False)] = True
        got = project_to_simplex(v, support=mask)
        want = exact_simplex_projection(v, mask)
        np.testing.assert_allclose(got, want, atol=1e-8)
        assert np.all(got[~mask] == 0.0)


def test_projection_support_as_index_list():
    got = project_to_simplex(np.array([5.0, 5.0, 5.0]), support=[0, 2])
    np.testing.assert_allclose(got, [0.5, 0.0, 0.5], atol=1e-15)


def test_projection_extinction_floor():
    v = np.array([0.9999999995, 5e-10])
    got = project_to_simplex(v, floor=1e-9)
    np.testing.assert_array_equal(got, [1.0, 0.0])


def test_projection_all_extinguished_falls_back_to_pure():
    # Every coordinate projects below the (absurdly large) floor except none;
    # the fallback puts everything on the largest input coordinate.
    got = project_to_simplex(np.array([0.4, 0.6]), floor=0.7)
    np.testing.assert_array_equal(got, [0.0, 1.0])


def test_projection_empty_support_rejected():
    with pytest.raises(ValueError):
        project_to_simplex(np.array([1.0, 0.0]), support=np.zeros(2, dtype=bool))


# -- replicator step -------------------------------------------------------------


def test_step_fixed_point_at_vertex(fig2_game):
    params = ReplicatorParams(delta=1e-300)
    x = vertex_profile(fig2_game, 8)
    rng = np.random.default_rng(0)
    nxt = noisy_replicator_step(fig2_game, x, params, rng)
    for a, b in zip(nxt, x):
        np.testing.assert_array_equal(a, b)


def test_step_singleton_supports_never_move(fig2_game):
    params = ReplicatorParams(eta=0.5, delta=0.5)
    x = vertex_profile(fig2_game, 2)
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = noisy_replicator_step(fig2_game, x, params, rng)
    np.testing.assert_array_equal(x[0], [0, 0, 1.0])
    np.testing.assert_array_equal(x[1], [1.0, 0, 0])


def test_step_invariants_over_random_walks():
    params = ReplicatorParams()
    games = [random_game(s, 2, (3, 3)) for s in range(3)]
    games += [random_game(s, 3, (2, 2, 2), mode="integer") for s in range(2)]
    rng = np.random.default_rng(5)
    steps = 0
    for game in games:
        x = tuple(rng.dirichlet(np.ones(s)) for s in game.strategy_counts)
        for _ in range(400):
            prev_support = [xi > 0 for xi in x]
            x = noisy_replicator_step(game, x, params, rng)
            steps += 1
            for xi, sup in zip(x, prev_support):
                assert abs(float(xi.sum()) - 1.0) <= 1e-9
                assert np.all(xi >= 0)
                assert np.all(sup | (xi == 0))  # support never grows
    assert steps == 2000


def test_engine_matches_reference_classification(fig2_game, fig3_game):
    params = ReplicatorParams(max_steps=4000)
    for game in (fig2_game, fig3_game):
        sinks = sink_equilibria(build_response_graph(game))
        for seed in range(6):
            x0 = tuple(
                np.random.default_rng(seed + 50).dirichlet(np.ones(s))
                for s in game.strategy_counts
            )
            got = simulate_to_sink(
                game, x0, sinks, params, np.random.default_rng(seed)
            )
            want = reference_simulate(
                game, x0, sinks, params, np.random.default_rng(seed)
            )
            assert got == want


# -- padded batch against the per-player reference ----------------------------------


def reference_project_rows(V, mask, floor):
    """The simplex projection with extinction, as written for one player's
    unpadded (runs, s) rows."""

    def simplex_rows(V, mask):
        runs, k = V.shape
        Vm = np.where(mask, V, -np.inf)
        s = -np.sort(-Vm, axis=1)
        vals = np.where(np.isfinite(s), s, 0.0)
        cs = np.cumsum(vals, axis=1)
        rho = (s + (1.0 - cs) / np.arange(1, k + 1) > 0).sum(axis=1)
        lam = (1.0 - cs[np.arange(runs), rho - 1]) / rho
        X = np.maximum(V + lam[:, None], 0.0)
        X[~mask] = 0.0
        return X

    X = simplex_rows(V, mask)
    if floor <= 0.0:
        return X
    for _ in range(V.shape[1]):
        small = (X > 0) & (X < floor)
        rows = np.flatnonzero(small.any(axis=1))
        if rows.size == 0:
            break
        keep = (X > 0) & ~small
        dead = rows[~keep[rows].any(axis=1)]
        if dead.size:
            best = np.argmax(np.where(mask[dead], V[dead], -np.inf), axis=1)
            X[dead] = 0.0
            X[dead, best] = 1.0
            rows = rows[keep[rows].any(axis=1)]
        if rows.size:
            X[rows] = simplex_rows(X[rows], keep[rows])
    return X


def reference_step_batch(game, X, params, noise_row):
    """One step with one (runs, s_i) array per player and the noise in
    player-order columns, each player's operations made on their own."""
    runs = X[0].shape[0]
    offsets = np.cumsum([0] + list(game.strategy_counts))
    out = []
    for i in range(game.num_players):
        eu = _expected_utilities_batch(game, X, i)
        mask = X[i] > 0
        idx = np.argmax(np.where(mask, eu, -np.inf), axis=1)
        V = X[i].copy()
        V[np.arange(runs), idx] += params.eta
        V += params.delta * noise_row[:, offsets[i] : offsets[i + 1]] * mask
        out.append(reference_project_rows(V, mask, params.extinction_floor))
    return out


def reference_simulate_batch(game, x0, sink_of, params, rngs):
    """`_simulate_batch` over per-player arrays, classifying one player at a time."""
    runs = len(rngs)
    X = [np.array(np.broadcast_to(np.asarray(x0[i], dtype=float), (runs, s)))
         for i, s in enumerate(game.strategy_counts)]
    live = np.arange(runs)
    streak_sink = np.full(runs, -1)
    streak_len = np.zeros(runs, dtype=int)
    streak_close = np.zeros(runs, dtype=bool)
    result = np.full(runs, -1)
    block = np.empty((runs, sinklimit.dynamics._NOISE_BLOCK, sum(game.strategy_counts)))
    pos = sinklimit.dynamics._NOISE_BLOCK
    for _ in range(params.max_steps):
        if live.size == 0:
            break
        if pos == sinklimit.dynamics._NOISE_BLOCK:
            for j, r in enumerate(live.tolist()):
                rngs[r].standard_normal(out=block[j])
            pos = 0
        X = reference_step_batch(game, X, params, block[:, pos, :])
        pos += 1
        m = live.size
        nearest = np.zeros(m, dtype=int)
        dist = np.zeros(m)
        frozen = np.ones(m, dtype=bool)
        for i in range(game.num_players):
            arg = np.argmax(X[i], axis=1)
            nearest += arg * game.strides[i]
            tmp = X[i].copy()
            tmp[np.arange(m), arg] -= 1.0
            dist = np.maximum(dist, np.max(np.abs(tmp), axis=1))
            frozen &= (X[i] > 0).sum(axis=1) == 1
        s = sink_of[nearest]
        in_sink = s >= 0
        same = in_sink & (s == streak_sink)
        streak_len = np.where(same, streak_len + 1, in_sink)
        streak_close = (same & streak_close) | (in_sink & (dist < _VERTEX_TOLERANCE))
        streak_sink = s
        settled = ((streak_len >= params.window) & streak_close) | frozen
        result[live[settled]] = s[settled]
        keep = ~settled
        if not keep.all():
            live = live[keep]
            X = [xi[keep] for xi in X]
            streak_sink, streak_len, streak_close = (
                streak_sink[keep], streak_len[keep], streak_close[keep])
            block = block[keep]
    return result


UNEQUAL_COUNTS = [(2, 3, 4), (4, 3), (1, 3), (3, 1, 2), (3,)]


def mixed_starts(game, rng, runs):
    """Per-player (runs, s) starts: near-uniform rows, Dirichlet rows and rows
    with part of the support cut away."""
    x0 = []
    for s in game.strategy_counts:
        rows = rng.dirichlet(np.ones(s), size=runs)
        rows[: runs // 3] = 1.0 + 0.01 * rng.random((runs // 3, s))
        cut = rng.random((runs, s)) < 0.3
        cut[np.arange(runs), rows.argmax(axis=1)] = False
        rows[runs // 3 : 2 * runs // 3] *= ~cut[runs // 3 : 2 * runs // 3]
        x0.append(rows / rows.sum(axis=1, keepdims=True))
    return x0


@pytest.mark.parametrize("counts", UNEQUAL_COUNTS)
@pytest.mark.parametrize("floor", [1e-9, 0.2, 0.45])
def test_padded_step_matches_per_player_reference(counts, floor, monkeypatch):
    """Padding is bit-identical to stepping each player's unpadded rows; the
    floors 0.2 and 0.45 drive re-projection and the dead-row fallback."""
    game = random_game(7, len(counts), counts)
    params = ReplicatorParams(delta=0.05, extinction_floor=floor)
    rng = np.random.default_rng(11)
    ref = mixed_starts(game, rng, 12)
    X = sinklimit.dynamics._pad(game, ref, 12)
    slots = sinklimit.dynamics._noise_slots(game)
    projections = []
    simplex_rows = sinklimit.dynamics._simplex_rows
    monkeypatch.setattr(sinklimit.dynamics, "_simplex_rows",
                        lambda V, mask: projections.append(len(V)) or simplex_rows(V, mask))
    for step in range(40):
        noise = rng.standard_normal((12, sum(counts)))
        X = sinklimit.dynamics._step_batch(game, X, params, noise[:, slots].transpose(1, 0, 2))
        ref = reference_step_batch(game, ref, params, noise)
        for i, s in enumerate(counts):
            np.testing.assert_array_equal(X[i, :, :s], ref[i])
            assert np.all(X[i, :, s:] == 0.0)
        if step == 0 and floor == 0.45:
            # Near-uniform rows of three or more strategies lie wholly
            # below the floor, so the fallback makes them vertices.
            wide = [i for i, s in enumerate(counts) if s >= 3]
            assert np.all(np.sort(X[wide, :4], axis=2)[..., -1] == 1.0)
    if floor == 0.2:
        assert len(projections) > 40  # some steps re-projected

    x = tuple(rng.dirichlet(np.ones(s)) for s in counts)
    want = [xi[None, :] for xi in x]
    step_rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(200):
        x = noisy_replicator_step(game, x, params, step_rng)
        want = reference_step_batch(game, want, params, ref_rng.standard_normal(sum(counts))[None, :])
        for got, w in zip(x, want):
            np.testing.assert_array_equal(got, w[0])


# Seeds 4 and 6 give a sink cycle of 23, 5 and 6 profiles.  The short budget
# ends while runs still settle by the window rule, so it checks when each run
# is classified as well as where.
@pytest.mark.parametrize("counts, seed", zip(UNEQUAL_COUNTS, (4, 6, 7, 6, 7)))
@pytest.mark.parametrize("floor", [1e-9, 0.2])
def test_padded_simulation_matches_per_player_reference(counts, seed, floor):
    game = random_game(seed, len(counts), counts)
    lookup = group_ids(game.num_profiles, sink_equilibria(build_reduced_response_graph(game)))
    x0 = mixed_starts(game, np.random.default_rng(5), 15)

    def rngs():
        return [np.random.default_rng(np.random.SeedSequence([9, r])) for r in range(15)]

    for max_steps in (60, 1500):
        params = ReplicatorParams(extinction_floor=floor, max_steps=max_steps)
        got = _simulate_batch(game, x0, lookup, params, rngs())
        want = reference_simulate_batch(game, x0, lookup, params, rngs())
        np.testing.assert_array_equal(got, want)
    assert np.any(got >= 0)


# -- trajectory classification ------------------------------------------------------


def test_vertex_inside_sink_classifies_immediately(fig2_game):
    sinks = sink_equilibria(build_response_graph(fig2_game))
    params = ReplicatorParams()
    out = simulate_to_sink(
        fig2_game, vertex_profile(fig2_game, 0), sinks, params, np.random.default_rng(3)
    )
    assert out == 0  # the 4-cycle sink
    out = simulate_to_sink(
        fig2_game, vertex_profile(fig2_game, 8), sinks, params, np.random.default_rng(3)
    )
    assert out == 1


def test_zero_step_budget_never_classifies(fig2_game):
    sinks = sink_equilibria(build_response_graph(fig2_game))
    params = ReplicatorParams(max_steps=0)
    out = simulate_to_sink(
        fig2_game, vertex_profile(fig2_game, 0), sinks, params, np.random.default_rng(0)
    )
    assert out is None


def test_near_strict_equilibrium_attraction(fig2_game):
    # Regression: from full-support states concentrated on (3,3), the
    # dynamics stays with the strict equilibrium in at least 90% of runs.
    sinks = sink_equilibria(build_response_graph(fig2_game))
    x0 = tuple(np.array([0.025, 0.025, 0.95]) for _ in range(2))
    params = ReplicatorParams()
    rngs = [np.random.default_rng(np.random.SeedSequence([777, r])) for r in range(100)]
    res = _simulate_batch(fig2_game, x0, group_ids(fig2_game.num_profiles, sinks), params, rngs)
    assert np.mean(res == 1) > 0.9


def test_batch_width_does_not_change_runs(fig2_game):
    # Each run draws only from its own generator and finished runs stop
    # moving, so a run's outcome cannot depend on which others share its batch.
    sinks = sink_equilibria(build_response_graph(fig2_game))
    lookup = group_ids(fig2_game.num_profiles, sinks)
    x0 = tuple(np.full(3, 1 / 3) for _ in range(2))
    params = ReplicatorParams(max_steps=2000)

    def runs(width):
        rngs = [np.random.default_rng(np.random.SeedSequence([5, r])) for r in range(width)]
        return _simulate_batch(fig2_game, x0, lookup, params, rngs)

    wide = runs(10)
    assert wide[0] == 0 and wide[1] == -1  # one run stops early, one never does
    np.testing.assert_array_equal(runs(4), wide[:4])


def test_noise_block_length_does_not_change_runs(fig2_game, monkeypatch):
    # Each run refills its block rows from its own stream, so the block length
    # only decides when the draws happen, not what they are.
    lookup = group_ids(fig2_game.num_profiles, sink_equilibria(build_response_graph(fig2_game)))
    x0 = tuple(np.full(3, 1 / 3) for _ in range(2))
    params = ReplicatorParams(max_steps=2000)

    def runs():
        rngs = [np.random.default_rng(np.random.SeedSequence([8, r])) for r in range(10)]
        return _simulate_batch(fig2_game, x0, lookup, params, rngs)

    default = runs()
    assert len(set(default.tolist())) > 1
    for length in (7, 256):
        monkeypatch.setattr(sinklimit.dynamics, "_NOISE_BLOCK", length)
        np.testing.assert_array_equal(runs(), default)


def test_mixed_start_rows_match_runs_alone():
    game = random_game(6, 3, (2, 2, 2), mode="integer", int_max=9)
    lookup = group_ids(game.num_profiles, sink_equilibria(build_response_graph(game)))
    params = ReplicatorParams(max_steps=1500)
    starts = [tuple(np.random.default_rng(seed).dirichlet(np.ones(s))
                    for s in game.strategy_counts) for seed in range(6)]
    starts.append(vertex_profile(game, 5))  # frozen from the first step

    def rng(r):
        return np.random.default_rng(np.random.SeedSequence([3, r]))

    x0 = [np.array([x[i] for x in starts]) for i in range(game.num_players)]
    batch = _simulate_batch(game, x0, lookup, params, [rng(r) for r in range(len(starts))])
    alone = [_simulate_batch(game, x, lookup, params, [rng(r)])[0] for r, x in enumerate(starts)]
    np.testing.assert_array_equal(batch, alone)
    assert set(batch.tolist()) == {-1, 0, 1}


def test_checkpoint_block_is_one_shrinking_batch(fig2_game, monkeypatch):
    rows = []
    step = sinklimit.dynamics._step_batch

    def counting_step(game, X, params, noise_row):
        rows.append(len(X[0]))
        return step(game, X, params, noise_row)

    monkeypatch.setattr(sinklimit.dynamics, "_step_batch", counting_step)
    estimate_limit_distribution(
        fig2_game, Prior("uniform"), ReplicatorParams(rng_seed=4, max_steps=3000),
        runs_per_sample=5, max_samples=3, checkpoint_every=3,
    )
    assert rows[0] == 3 * 5
    assert all(b <= a for a, b in zip(rows, rows[1:]))
    assert rows[-1] < rows[0]


# -- limit distribution estimation ----------------------------------------------------


def test_estimate_single_sink_game(matching_pennies):
    dist = estimate_limit_distribution(
        matching_pennies,
        Prior("uniform"),
        ReplicatorParams(rng_seed=1),
        runs_per_sample=10,
        max_samples=16,
        checkpoint_every=4,
    )
    np.testing.assert_allclose(dist.sink_probabilities, [1.0])
    assert dist.non_converged == 0
    assert dist.converged


def test_estimate_point_mass_on_sink_vertex(fig3_game):
    weights = np.zeros(9)
    weights[0] = 1.0  # the strict equilibrium (1,1)
    dist = estimate_limit_distribution(
        fig3_game,
        Prior.pure(weights),
        ReplicatorParams(rng_seed=2),
        max_samples=24,
    )
    np.testing.assert_allclose(dist.sink_probabilities, [1.0, 0.0])
    assert dist.converged


def test_estimate_deterministic_bit_for_bit(fig2_game):
    # short step budget: non-converged runs are fine, determinism is the point
    kwargs = dict(tv_tol=0.02, runs_per_sample=6, max_samples=12, checkpoint_every=4)
    a = estimate_limit_distribution(
        fig2_game, Prior("uniform"), ReplicatorParams(rng_seed=31, max_steps=600), **kwargs
    )
    b = estimate_limit_distribution(
        fig2_game, Prior("uniform"), ReplicatorParams(rng_seed=31, max_steps=600), **kwargs
    )
    np.testing.assert_array_equal(a.sink_probabilities, b.sink_probabilities)
    assert a.tv_trace == b.tv_trace
    assert a.samples == b.samples and a.non_converged == b.non_converged
    c = estimate_limit_distribution(
        fig2_game, Prior("uniform"), ReplicatorParams(rng_seed=32, max_steps=600), **kwargs
    )
    assert not np.array_equal(a.sink_probabilities, c.sink_probabilities)


def test_estimate_consistent_with_exact_on_pinned_no_tie_games():
    # Vertex-prior simulation reproduces the exact pure-prior distribution on
    # games whose basins match the chain's hitting pattern; pinned seeds.
    cases = [
        (3, 2, (3, 3)),
        (23, 2, (3, 3)),  # two sinks with a genuine split
        (1, 3, (2, 2, 2)),
        (14, 2, (4, 4)),
        (0, 2, (2, 3)),
    ]
    for seed, p, counts in cases:
        game = random_game(seed, p, counts)
        n = game.num_profiles
        w = np.full(n, 1.0 / n)
        exact = exact_limit_distribution(game, w)
        est = estimate_limit_distribution(
            game,
            Prior.pure(w, vertex_smoothing=0.1),
            ReplicatorParams(rng_seed=99),
            max_samples=64,
        )
        tv = total_variation(
            np.append(exact.sink_probabilities, 0.0),
            np.append(est.sink_probabilities, est.non_converged_fraction),
        )
        assert tv <= 0.05, f"game {seed},{p},{counts}: TV {tv}"


def test_estimate_fig2_uniform_smoke(fig2_game):
    # Light-budget version of the uniform-prior run; the full-budget
    # regression lives in the acceptance suite.
    dist = estimate_limit_distribution(
        fig2_game,
        Prior("uniform"),
        ReplicatorParams(rng_seed=2024),
        tv_tol=0.02,
        runs_per_sample=6,
        max_samples=24,
    )
    assert dist.sink_probabilities.sum() >= 0.95
    assert dist.sink_probabilities[0] > dist.sink_probabilities[1]


def per_sample_estimate(game, prior, params, tv_tol=0.01, *, runs_per_sample=40,
                        max_samples=512, checkpoint_every=8):
    """The estimator as one `_simulate_batch` call per prior sample, with the
    same seeds and stopping rule."""
    sinks = sink_equilibria(build_reduced_response_graph(game))
    lookup = group_ids(game.num_profiles, sinks)
    k = len(sinks)
    root = params.rng_seed
    counts = np.zeros(k + 1)
    checkpoints, tv_trace = [], []
    converged = False
    samples = 0
    while samples < max_samples and not converged:
        block = range(samples, min(samples + checkpoint_every, max_samples))
        for s_idx in block:
            x0 = prior.sample(game, np.random.default_rng(np.random.SeedSequence([root, s_idx])))
            rngs = [np.random.default_rng(np.random.SeedSequence([root, s_idx, r + 1]))
                    for r in range(runs_per_sample)]
            res = _simulate_batch(game, x0, lookup, params, rngs)
            counts += np.bincount(np.where(res >= 0, res, k), minlength=k + 1)
        samples += len(block)
        dist = counts / counts.sum()
        if checkpoints:
            tv_trace.append(total_variation(dist, checkpoints[-1]))
            converged = tv_trace[-1] < tv_tol
        checkpoints.append(dist)
    final = checkpoints[-1]
    return dict(
        sink_probabilities=final[:k].tobytes(),
        samples=samples,
        non_converged=int(counts[k]),
        converged=converged,
        tv_trace=tv_trace,
        tv_to_final=[total_variation(c, final) for c in checkpoints],
    )


@pytest.mark.parametrize("case", ["fig2", "unclassified", "pure", "ragged"])
def test_wide_batch_equals_per_sample_batches(fig2_game, fig3_game, case):
    if case == "fig2":
        game, prior = fig2_game, Prior("uniform")
        params = ReplicatorParams(rng_seed=2024)
        kwargs = dict(tv_tol=0.02, runs_per_sample=5, max_samples=4, checkpoint_every=2)
    elif case == "unclassified":
        game = random_game(6, 3, (2, 2, 2), mode="integer", int_max=9)
        prior = Prior("dirichlet", alpha=0.5)
        params = ReplicatorParams(rng_seed=7, max_steps=120)
        kwargs = dict(runs_per_sample=6, max_samples=8, checkpoint_every=4)
    elif case == "pure":
        game = random_game(23, 2, (3, 3))
        prior = Prior.pure(np.full(9, 1 / 9))
        params = ReplicatorParams(rng_seed=99)
        kwargs = dict(runs_per_sample=8, max_samples=16)
    else:
        game, prior = fig3_game, Prior("uniform")
        params = ReplicatorParams(rng_seed=11, max_steps=2000)
        kwargs = dict(tv_tol=1e-9, runs_per_sample=4, max_samples=7, checkpoint_every=3)
    got = estimate_limit_distribution(game, prior, params, **kwargs)
    want = per_sample_estimate(game, prior, params, **kwargs)
    assert dict(
        sink_probabilities=got.sink_probabilities.tobytes(),
        samples=got.samples,
        non_converged=got.non_converged,
        converged=got.converged,
        tv_trace=got.tv_trace,
        tv_to_final=got.tv_to_final,
    ) == want
    if case == "unclassified":
        assert got.non_converged > 0
    if case == "ragged":
        assert got.samples == 7 and len(got.tv_trace) == 2


# -- exact path -------------------------------------------------------------------


def test_exact_point_mass_inside_sink(fig3_game):
    w = np.zeros(9)
    w[4] = 1.0
    dist = exact_limit_distribution(fig3_game, w)
    np.testing.assert_array_equal(dist.sink_probabilities, [0.0, 1.0])
    assert dist.method == "exact"


def test_exact_fig3_point_mass_on_tie_profile(fig3_game):
    w = np.zeros(9)
    w[8] = 1.0  # profile (3,3)
    dist = exact_limit_distribution(fig3_game, w)
    np.testing.assert_allclose(dist.sink_probabilities, [1.0, 0.0], atol=1e-12)


def test_exact_uniform_prior_averages_rows(fig3_game):
    hit = limit_hitting_probabilities(fig3_game)
    w = np.full(9, 1 / 9)
    dist = exact_limit_distribution(fig3_game, w)
    np.testing.assert_allclose(
        dist.sink_probabilities, hit.probabilities.mean(axis=0), atol=1e-12
    )


def test_exact_rejects_bad_priors(fig3_game):
    with pytest.raises(ValueError, match="sum"):
        exact_limit_distribution(fig3_game, np.full(9, 0.2))
    with pytest.raises(ValueError, match="weights"):
        exact_limit_distribution(fig3_game, np.full(4, 0.25))
    with pytest.raises(ValueError, match="nonnegative"):
        w = np.zeros(9)
        w[0], w[1] = 1.5, -0.5
        exact_limit_distribution(fig3_game, w)


# -- misc ------------------------------------------------------------------------


def test_prior_parsing():
    assert Prior.parse("uniform").kind == "uniform"
    assert Prior.parse("dirichlet:0.5").alpha == 0.5
    with pytest.raises(ValueError):
        Prior.parse("dirichlet:-1")
    with pytest.raises(ValueError):
        Prior.parse("gaussian")
    with pytest.raises(ValueError, match="sum"):
        Prior.pure([0.5, 0.2])


def test_prior_samples_match_game_shape(fig2_game):
    rng = np.random.default_rng(0)
    x = Prior.parse("uniform").sample(fig2_game, rng)
    assert [len(xi) for xi in x] == [3, 3]
    for xi in x:
        assert abs(float(xi.sum()) - 1.0) <= 1e-12


def test_vertex_profile_smoothing(fig2_game):
    x = vertex_profile(fig2_game, 8, smoothing=0.3)
    np.testing.assert_allclose(x[0], [0.1, 0.1, 0.8], atol=1e-15)
    assert decode_profile(8, fig2_game) == (2, 2)


def test_total_variation():
    assert total_variation([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert total_variation([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert total_variation([0.7, 0.3], [0.5, 0.5]) == pytest.approx(0.2)


@pytest.mark.parametrize("bad", [[np.nan, 1.0, 0.0], [np.inf, 1.0, 0.0], [np.inf, -np.inf, 1.0],
                                 [np.nan] * 3, [np.inf] * 3])
def test_non_finite_starts_rejected(fig2_game, bad):
    x = (np.array(bad), np.full(3, 1 / 3))
    sinks = sink_equilibria(build_response_graph(fig2_game))
    params = ReplicatorParams()
    with pytest.raises(ValueError, match="player 0"):
        simulate_to_sink(fig2_game, x, sinks, params, np.random.default_rng(0))
    with pytest.raises(ValueError, match="player 0"):
        noisy_replicator_step(fig2_game, x, params, np.random.default_rng(0))
    with pytest.raises(ValueError, match="player 0"):
        best_response_vector(fig2_game, x, 1)


def test_replicator_params_validation():
    with pytest.raises(ValueError):
        ReplicatorParams(eta=0.0)
    with pytest.raises(ValueError):
        ReplicatorParams(delta=-1.0)
    with pytest.raises(ValueError):
        ReplicatorParams(window=0)
