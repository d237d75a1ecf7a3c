import itertools
import re

import numpy as np
import pytest

from sinklimit import (
    ContractViolation,
    Game,
    Prior,
    ReplicatorParams,
    SolverConvergenceError,
    best_response_vector,
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
from sinklimit.dynamics import _simulate_batch
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
    """Independent re-implementation of the face rule, checked at every step
    and driven by the public single-step function."""
    lookup = group_ids(game.num_profiles, sinks)
    x = x0
    for _ in range(params.max_steps):
        x = noisy_replicator_step(game, x, params, rng)
        nearest = [int(np.argmax(xi)) for xi in x]
        s = int(lookup[sum(a * st for a, st in zip(nearest, game.strides))])
        # The face rule: every profile in the product of the supports has id s.
        face = itertools.product(*(np.flatnonzero(xi) for xi in x))
        if all(lookup[sum(a * st for a, st in zip(v, game.strides))] == s for v in face):
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


def block_utilities(game, X, player):
    """`player`'s expected utilities against the per-player (runs, s_i) rows
    `X`, read from `_BlockConstants.eu` after the step's kernel filled it."""
    runs = len(X[0])
    padded = sinklimit.dynamics._pad(game, X, runs)
    consts = sinklimit.dynamics._BlockConstants(game, runs)
    sinklimit.dynamics._best_responses(padded, padded > 0, consts)
    return consts.eu[player, :, :game.strategy_counts[player]]


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
            block_utilities(wide, X, player),
            block_utilities(core, [x0, x1], core_player),
            rtol=1e-14,
        )
        np.testing.assert_array_equal(
            best_response_vector(wide, [row[0] for row in X], player),
            best_response_vector(core, (x0[0], x1[0]), core_player),
        )


# Unequal strategy counts and one-strategy players, for 1 to 5 players.
CONTRACTION_COUNTS = [(3,), (1,), (4, 3), (1, 3), (3, 1), (2, 3, 4), (3, 1, 2), (1, 2, 1),
                      (2, 1, 3, 2), (3, 2, 2, 3), (2, 3, 1, 2, 2), (1, 1, 2, 1, 3)]


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_best_responses_match_the_plain_einsum(p):
    """The matmul-then-multiply-sum contraction gives each player's expected
    utilities within rtol 1e-14 of one plain einsum, and the same best
    responses, on batches with cut supports."""
    for n, counts in enumerate(c for c in CONTRACTION_COUNTS if len(c) == p):
        game = random_game(30 + n, p, counts)
        X = mixed_starts(game, np.random.default_rng(n), 9)
        padded = sinklimit.dynamics._pad(game, X, 9)
        consts = sinklimit.dynamics._BlockConstants(game, 9)
        best = sinklimit.dynamics._best_responses(padded, padded > 0, consts)
        for i, s in enumerate(counts):
            want = reference_utilities(game, X, i)
            np.testing.assert_allclose(consts.eu[i, :, :s], want, rtol=1e-14, atol=0)
            np.testing.assert_array_equal(best[i], np.where(X[i] > 0, want, -np.inf).argmax(axis=1))


def test_expected_utilities_of_52_players():
    """No player count limit: player 0 picks the payoff 0 or 1 and the 51
    one-strategy players are paid what player 0 gets."""
    game = Game((2,) + (1,) * 51, (np.arange(2.0),) * 52)
    x = [np.array([0.75, 0.25])] + [np.ones(1)] * 51
    eu = [block_utilities(game, [xi[None, :] for xi in x], i) for i in (0, 1, 51)]
    np.testing.assert_array_equal(eu[0], [[0.0, 1.0]])
    np.testing.assert_array_equal(eu[1], [[0.25]])
    np.testing.assert_array_equal(eu[2], [[0.25]])
    np.testing.assert_array_equal(best_response_vector(game, x, 0), [0.0, 1.0])
    # The one sink is the profile where player 0 takes payoff 1; a run near
    # it settles there at the end of its first noise block.
    sinks = sink_equilibria(game)
    assert sinks == [[1]]
    x[0] = np.array([0.1, 0.9])
    params = ReplicatorParams(max_steps=sinklimit.dynamics._NOISE_BLOCK)
    assert simulate_to_sink(game, x, sinks, params, np.random.default_rng(0)) == 0


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


def test_projection_cancelled_by_rounding_raises(fig2_game):
    # 1 - 1e16 rounds to -1e16, so no coordinate keeps positive mass.  The
    # failure is the error alone: the suite turns a RuntimeWarning into one.
    np.testing.assert_array_equal(project_to_simplex(np.array([1e15, 0.0])), [1.0, 0.0])
    with pytest.raises(SolverConvergenceError, match="rounding"):
        project_to_simplex(np.array([1e16, 0.0]))
    # So does a replicator step of eta = 1e200, also where a row has a pad.
    x = tuple(np.full(3, 1 / 3) for _ in range(2))
    with pytest.raises(SolverConvergenceError, match="eta/delta"):
        noisy_replicator_step(fig2_game, x, ReplicatorParams(eta=1e200), np.random.default_rng(0))
    padded = random_game(2, 2, (2, 3))
    x = (np.full(2, 1 / 2), np.full(3, 1 / 3))
    with pytest.raises(SolverConvergenceError, match="eta/delta"):
        noisy_replicator_step(padded, x, ReplicatorParams(eta=1e200), np.random.default_rng(0))


def test_projection_of_a_cancelled_or_empty_row_is_zero(fig2_game):
    """A row whose largest coordinate swamps 1, so that rounding cancels it,
    and a row with an empty mask both project to zeros, pads included: no
    inf or NaN enters the state, and `_check_supports` sees the row empty."""
    V = np.array([[1e200, 0.0, 0.0], [0.3, 0.2, 0.0], [0.5, 0.5, 0.0]])
    mask = np.array([[True, True, False], [False, False, False], [True, True, False]])
    X = sinklimit.dynamics._project_rows(V, mask, 1e-9, np.arange(1, 4), np.arange(3))
    np.testing.assert_array_equal(X, [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
    # So do rows whose every coordinate lies far below -1 (1 minus the
    # largest is positive, and over rho = 0 it would be a +inf shift that
    # the clip keeps), rows whose sums overflow, and rows with an infinite
    # coordinate; a -inf coordinate alone just gets 0.
    V = np.array([[-1e300, -2e300, 0.0], [1.5e308, 1e308, 0.0], [np.inf, 0.5, 0.0],
                  [-np.inf, 0.5, 0.25]])
    mask = np.array([[True, True, False], [True, True, False], [True, True, False],
                     [True, True, True]])
    X = sinklimit.dynamics._project_rows(V, mask, 1e-9, np.arange(1, 4), np.arange(4))
    np.testing.assert_array_equal(X, [[0.0] * 3] * 3 + [[0.0, 0.625, 0.375]])
    with pytest.raises(SolverConvergenceError, match="rounding"):
        project_to_simplex(np.array([-1e300, -2e300]))
    # A replicator step whose scaled noise overflows fails by name, warning
    # nothing; so does one whose eta plus a draw overflows.
    x = tuple(np.full(3, 1 / 3) for _ in range(2))
    rng = np.random.default_rng(0)
    for params in (ReplicatorParams(delta=1e308), ReplicatorParams(eta=1e308, delta=1e308)):
        with pytest.raises(SolverConvergenceError, match="eta/delta"):
            noisy_replicator_step(fig2_game, x, params, rng)


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
        sinks = sink_equilibria(game)
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


def reference_utilities(game, X, player):
    """`player`'s expected utilities against the per-player (runs, s_j) rows
    `X`, one plain einsum into a fresh array.  Sublist labels: tensor axis k
    is player p - 1 - k, label j player j's strategy and label p the run."""
    p = game.num_players
    if p == 1:
        return np.tile(game.utilities[0], (len(X[0]), 1))
    operands = [game.tensor(player), list(range(p - 1, -1, -1))]
    for j in range(p):
        if j != player:
            operands += [X[j], [p, j]]
    return np.einsum(*operands, [p, player])


def reference_step_batch(game, X, params, noise_row):
    """One step with one (runs, s_i) array per player and the noise in
    player-order columns, each player's operations made on their own."""
    runs = X[0].shape[0]
    offsets = np.cumsum([0] + list(game.strategy_counts))
    out = []
    for i in range(game.num_players):
        eu = reference_utilities(game, X, i)
        mask = X[i] > 0
        idx = np.argmax(np.where(mask, eu, -np.inf), axis=1)
        V = X[i].copy()
        V[np.arange(runs), idx] += params.eta
        V += params.delta * noise_row[:, offsets[i] : offsets[i + 1]] * mask
        out.append(reference_project_rows(V, mask, sinklimit.dynamics._EXTINCTION_FLOOR))
    return out


def face_settles(game, X, s, sink_of):
    """The face rule at one step: each run whose every profile in the
    product of its supports has the run's sink id `s` (-1 included), with
    the face gathered through each profile's strategy digits."""
    digits = np.array([decode_profile(v, game) for v in range(game.num_profiles)]).T
    face = np.ones((len(s), game.num_profiles), dtype=bool)
    for i, xi in enumerate(X):
        face &= xi[:, digits[i]] > 0
    return (~face | (sink_of == s[:, None])).all(axis=1)


def frozen_settles(game, X, s, sink_of):
    """The rule the face rule replaced: a run settles once every support is
    a singleton, which is the face rule on one-profile faces only."""
    return np.all([(xi > 0).sum(axis=1) == 1 for xi in X], axis=0)


def reference_simulate_batch(game, x0, sink_of, params, rngs, settles=face_settles,
                             unsettled=None):
    """`_simulate_batch` over per-player arrays, finding each run's nearest
    profile one player at a time and checking `settles` (the face rule by
    default) at every step.  A dict passed as `unsettled` receives each run
    still live at the budget, mapped to its last per-player state."""
    runs = len(rngs)
    X = [np.array(np.broadcast_to(np.asarray(x0[i], dtype=float), (runs, s)))
         for i, s in enumerate(game.strategy_counts)]
    live = np.arange(runs)
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
        nearest = sum(np.argmax(xi, axis=1) * stride for xi, stride in zip(X, game.strides))
        s = sink_of[nearest]
        settled = settles(game, X, s, sink_of)
        result[live[settled]] = s[settled]
        keep = ~settled
        if not keep.all():
            live = live[keep]
            X = [xi[keep] for xi in X]
            block = block[keep]
    if unsettled is not None:
        unsettled.update({int(r): [xi[j] for xi in X] for j, r in enumerate(live)})
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
    monkeypatch.setattr(sinklimit.dynamics, "_EXTINCTION_FLOOR", floor)
    params = ReplicatorParams(delta=0.05)
    rng = np.random.default_rng(11)
    ref = mixed_starts(game, rng, 12)
    X = sinklimit.dynamics._pad(game, ref, 12)
    slots = sinklimit.dynamics._noise_slots(game)
    consts = sinklimit.dynamics._BlockConstants(game, 12)
    projections = []
    simplex_rows = sinklimit.dynamics._simplex_rows
    monkeypatch.setattr(sinklimit.dynamics, "_simplex_rows",
                        lambda V, mask, *index: projections.append(len(V))
                        or simplex_rows(V, mask, *index))
    for step in range(40):
        noise = rng.standard_normal((12, sum(counts)))
        X = sinklimit.dynamics._step_batch(
            game, X, params, params.delta * noise[:, slots].transpose(1, 0, 2), consts)
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

    # One run, stepped as `_simulate_batch` steps it: the constants of each
    # 64-step noise block are built once and shared by its steps.
    ref = [rng.dirichlet(np.ones(s))[None, :] for s in counts]
    X = sinklimit.dynamics._pad(game, ref, 1)
    for _ in range(3):
        consts = sinklimit.dynamics._BlockConstants(game, 1)
        for _ in range(64):
            noise = rng.standard_normal((1, sum(counts)))
            X = sinklimit.dynamics._step_batch(
                game, X, params, params.delta * noise[:, slots].transpose(1, 0, 2), consts)
            ref = reference_step_batch(game, ref, params, noise)
            for i, s in enumerate(counts):
                np.testing.assert_array_equal(X[i, :, :s], ref[i])
                assert np.all(X[i, :, s:] == 0.0)

    x = tuple(rng.dirichlet(np.ones(s)) for s in counts)
    want = [xi[None, :] for xi in x]
    step_rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(200):
        x = noisy_replicator_step(game, x, params, step_rng)
        want = reference_step_batch(game, want, params, ref_rng.standard_normal(sum(counts))[None, :])
        for got, w in zip(x, want):
            np.testing.assert_array_equal(got, w[0])


# Seeds 4 and 6 give a sink cycle of 23, 5 and 6 profiles.  The short budget
# ends while runs' faces are still closing, so it checks when each run
# settles as well as where.
@pytest.mark.parametrize("counts, seed", zip(UNEQUAL_COUNTS, (4, 6, 7, 6, 7)))
@pytest.mark.parametrize("floor", [1e-9, 0.2])
def test_padded_simulation_matches_per_player_reference(counts, seed, floor, monkeypatch):
    game = random_game(seed, len(counts), counts)
    lookup = group_ids(game.num_profiles, sink_equilibria(game))
    x0 = mixed_starts(game, np.random.default_rng(5), 15)

    def rngs():
        return [np.random.default_rng(np.random.SeedSequence([9, r])) for r in range(15)]

    monkeypatch.setattr(sinklimit.dynamics, "_EXTINCTION_FLOOR", floor)
    for max_steps in (60, 1500):
        params = ReplicatorParams(max_steps=max_steps)
        got = _simulate_batch(game, x0, lookup, params, rngs())
        want = reference_simulate_batch(game, x0, lookup, params, rngs())
        np.testing.assert_array_equal(got, want)
    assert np.any(got >= 0)


def test_simulation_shrinking_to_one_run_matches_reference(fig2_game, monkeypatch):
    """Four runs near the strict equilibrium settle at the end of the first
    noise block (their faces close at steps 8-12); the fifth steps on alone,
    through a budget that ends inside its fourth block and then through its
    fifth, at whose end (step 160) the face rule settles it in the 4-cycle:
    its face closes at step 140."""
    lookup = group_ids(fig2_game.num_profiles, sink_equilibria(fig2_game))
    near = np.array([0.025, 0.025, 0.95])
    x0 = [np.vstack([np.tile(near, (4, 1)), np.random.default_rng(31).dirichlet(np.ones(3))])
          for _ in range(2)]

    def rngs():
        return [np.random.default_rng(np.random.SeedSequence([3, r])) for r in range(5)]

    rows = []
    step = sinklimit.dynamics._step_batch
    monkeypatch.setattr(sinklimit.dynamics, "_NOISE_BLOCK", 32)
    monkeypatch.setattr(sinklimit.dynamics, "_step_batch",
                        lambda game, X, *rest: rows.append(len(X[0])) or step(game, X, *rest))
    outcomes = []
    for max_steps in (100, 1500):
        params = ReplicatorParams(max_steps=max_steps)
        got = _simulate_batch(fig2_game, x0, lookup, params, rngs())
        want = reference_simulate_batch(fig2_game, x0, lookup, params, rngs())
        np.testing.assert_array_equal(got, want)
        outcomes.append(got.tolist())
    assert outcomes == [[1, 1, 1, 1, -1], [1, 1, 1, 1, 0]]
    assert rows == [5] * 32 + [1] * 68 + [5] * 32 + [1] * 128


@pytest.mark.parametrize("block", [1, 7, 64])
def test_block_classification_matches_per_step_reference(block, fig2_game, monkeypatch):
    """The face rule checked once per noise block settles every run in the
    sink the per-step check gives it: budgets that end inside a block, a
    face that closes inside a block and frozen starts."""
    monkeypatch.setattr(sinklimit.dynamics, "_NOISE_BLOCK", block)
    game = random_game(6, 3, (2, 2, 2), mode="integer", int_max=9)
    # The fig2 start's nearest profile is the strict equilibrium (3,3) from
    # the first step, and its face closes at step 64, so the 60-step budget
    # leaves it unsettled.  Vertex 5 of `game` is frozen outside its sinks.
    cases = [(game, mixed_starts(game, np.random.default_rng(5), 12), vertex_profile(game, 5)),
             (fig2_game, mixed_starts(fig2_game, np.random.default_rng(5), 12),
              (np.array([0.12, 0.08, 0.8]), np.array([0.11, 0.25, 0.64])))]

    def rngs():
        return [np.random.default_rng(np.random.SeedSequence([3, r])) for r in range(13)]

    for g, rows, start in cases:
        lookup = group_ids(g.num_profiles, sink_equilibria(g))
        x0 = [np.vstack([r, x]) for r, x in zip(rows, start)]
        outcomes = []
        for max_steps in (60, 131, 1500):
            params = ReplicatorParams(max_steps=max_steps)
            got = _simulate_batch(g, x0, lookup, params, rngs())
            want = reference_simulate_batch(g, x0, lookup, params, rngs())
            np.testing.assert_array_equal(got, want)
            outcomes.append(got)
        assert np.count_nonzero(outcomes[0] >= 0) < np.count_nonzero(outcomes[2] >= 0)
        if g is game:
            assert outcomes[2][-1] == -1
        else:
            assert [o[-1] for o in outcomes] == [-1, 1, 1]


def scripted_steps(monkeypatch, path):
    """Replace the replicator step by the profiles of `path`, one per step."""
    path = iter(path)
    monkeypatch.setattr(sinklimit.dynamics, "_step_batch",
                        lambda game, X, *rest: sinklimit.dynamics._pad(game, next(path), 1))


# A mixed profile whose face holds both sinks, and profiles in the faces of
# the 4-cycle sink and of the strict equilibrium (3,3).
UNSETTLED = tuple(np.full(3, 1 / 3) for _ in range(2))
CYCLE = tuple(np.array([0.98, 0.02, 0.0]) for _ in range(2))
STRICT = tuple(np.array([0.0, 0.0, 1.0]) for _ in range(2))


@pytest.mark.parametrize("closing", [1, 20, 64, 65, 130])
def test_window_completing_at_the_budget_classifies(fig2_game, monkeypatch, closing):
    """The face rule's counterpart of a window completing at the budget: a
    run whose face closes at step `closing`, at a block end or inside a
    block, is settled by a budget of `closing` steps but not one fewer."""
    sinks = sink_equilibria(fig2_game)

    def outcome(max_steps):
        scripted_steps(monkeypatch, [UNSETTLED] * (closing - 1) + [CYCLE] * 200)
        params = ReplicatorParams(max_steps=max_steps)
        return simulate_to_sink(fig2_game, UNSETTLED, sinks, params, np.random.default_rng(1))

    assert (outcome(closing - 1), outcome(closing)) == (None, 0)


@pytest.mark.parametrize("block, max_steps, want", [
    (3, 64, 0), (4, 64, 1), (62, 64, None), (62, 65, 1),
])
def test_run_settles_at_its_first_settling_step(fig2_game, monkeypatch, block, max_steps, want):
    # A scripted trajectory: three steps in the 4-cycle's face, one in the
    # strict equilibrium's, sixty in a face of both sinks, then the strict
    # equilibrium's again.  The face rule looks at block ends and at the
    # budget only, and the first of those whose face holds one sink settles
    # the run; later states must not change where it settled.
    sinks = sink_equilibria(fig2_game)
    scripted_steps(monkeypatch, [CYCLE] * 3 + [STRICT] + [UNSETTLED] * 60 + [STRICT] * 100)
    monkeypatch.setattr(sinklimit.dynamics, "_NOISE_BLOCK", block)
    params = ReplicatorParams(max_steps=max_steps)
    assert simulate_to_sink(fig2_game, CYCLE, sinks, params, np.random.default_rng(0)) == want


@pytest.mark.parametrize("shape", [(2, 2, 2), (3, 3), (4, 4)])
def test_face_rule_keeps_every_outcome_of_the_frozen_rule(shape):
    """Against the per-step frozen rule it replaced, the face rule at block
    ends changes no sink a run is classified to; a run the old rule leaves
    unclassified stays so, or ends in a face whose every profile has the
    sink the face rule gave it.  The short budget ends inside a block, with
    many runs still live."""
    outcomes = np.zeros(2, dtype=int)  # runs the old rule classified, and left at -1
    for seed in range(10):
        game = random_game(seed, len(shape), shape)
        lookup = group_ids(game.num_profiles, sink_equilibria(game))
        x0 = mixed_starts(game, np.random.default_rng(seed), 12)

        def rngs():
            return [np.random.default_rng(np.random.SeedSequence([seed, r])) for r in range(12)]

        for max_steps in (130, 1000):
            params = ReplicatorParams(max_steps=max_steps)
            new = _simulate_batch(game, x0, lookup, params, rngs())
            unsettled = {}
            old = reference_simulate_batch(game, x0, lookup, params, rngs(),
                                           settles=frozen_settles, unsettled=unsettled)
            np.testing.assert_array_equal(new[old >= 0], old[old >= 0])
            for r in np.flatnonzero((old == -1) & (new != -1)):
                X = [xi[None, :] for xi in unsettled[r]]
                assert face_settles(game, X, new[r:r + 1], lookup)[0]
            outcomes += np.count_nonzero(old >= 0), np.count_nonzero(old == -1)
    assert np.all(outcomes > 0)


# Per-run outcomes of the simulator that also settled runs by a window rule
# (50 steps with the nearest profile in one sink, one of them within 0.05 of
# a vertex), at the default budget: `_simulate_batch` over
# `mixed_starts(game, default_rng(s), 30)` with run r seeded by (s, r), for
# `random_game(s, ., shape)`, s = 0..9.  A digit is a sink, "." is -1.
WINDOW_RULE_OUTCOMES = {
    (3, 3): [
        '00000020002.00.010022212200222', '0000000000.0.0.....0..000..00.',
        '00000000000...00.0000000000000', '00000000000000.000000000000000',
        '000000000000000000000000000000', '............0..0....0.........',
        '0000000000.0.0....00000000.0.0', '000000.0.0.0......0.000000.0.0',
        '00000000000.000000000000000000', '..............................',
    ],
    (2, 2, 2): [
        '....................0....0...0', '000000000000.00000000000000000',
        '..........0...0....0.0........', '000000000000000000000000000000',
        '0000000000..00....000..0000000', '11111111111..11111.10100100111',
        '000000000000000000000000000000', '00000000000000.00....000000000',
        '0000000000..0...0....000.0000.', '0..........0........000....000',
    ],
    (4, 4): [
        '0000..0...0....0...0...0......', '..........0....1.111.1.0001111',
        '0000000000.0.00.....00.0.0000.', '111111111110.10001.110011.01.1',
        '0000000000000.......0.00000.00', '11111111110101.111101111111.11',
        '0000000000.0.0.00.0..000.00000', '000000000000.00000000000000000',
        '0000000000.0002100020011010.02', '000.0....0....000.0000....00..',
    ],
    (3, 3, 3): [
        '000000000000000000000000000000', '0.0000.00..0.0.....00.0....0..',
        '0000000000...0.0......00000000', '100101100110....1.10.111.111.0',
        '0000000000120.....1.2010011001', '...........2.2221...20..2.121.',
        '..0..0..0..0.01............1..', '....................1.11.....1',
        '..0.........000.0.0...001..000', '0000000000..0..0..000..0000.00',
    ],
    (5, 5): [
        '000000000000000000000000000000', '000000000000000000000000000000',
        '..............................', '2222222222032011330330121.2203',
        '0000000000...00.0....0...000.0', '000000000000000000000000000000',
        '0000000000.0...0.00.0.0..0..0.', '0.0......0..0..000......0.0000',
        '000000000000000000000000000000', '.......0..0...0....0000.000..0',
    ],
}


@pytest.mark.parametrize("shape", list(WINDOW_RULE_OUTCOMES))
def test_face_rule_alone_keeps_every_window_rule_outcome(shape):
    """The window rule decided nothing the face rule does not: without it,
    every run keeps its outcome, unsettled runs included."""
    params = ReplicatorParams()
    for s, want in enumerate(WINDOW_RULE_OUTCOMES[shape]):
        game = random_game(s, len(shape), shape)
        lookup = group_ids(game.num_profiles, sink_equilibria(game))
        x0 = mixed_starts(game, np.random.default_rng(s), 30)
        rngs = [np.random.default_rng(np.random.SeedSequence([s, r])) for r in range(30)]
        got = _simulate_batch(game, x0, lookup, params, rngs)
        assert "".join("." if v < 0 else str(v) for v in got) == want, f"seed {s}"


def test_run_on_a_one_sink_face_settles_at_the_first_block_end(fig2_game, monkeypatch):
    # Started on the face {1,2}x{1,2}, which is the 4-cycle sink, the run
    # can never leave it; the face rule settles it when the first noise
    # block ends.
    rows = []
    step = sinklimit.dynamics._step_batch
    monkeypatch.setattr(sinklimit.dynamics, "_step_batch",
                        lambda game, X, *rest: rows.append(len(X[0])) or step(game, X, *rest))
    x0 = (np.array([0.6, 0.4, 0.0]), np.array([0.3, 0.7, 0.0]))
    sinks = sink_equilibria(fig2_game)
    params = ReplicatorParams()
    assert simulate_to_sink(fig2_game, x0, sinks, params, np.random.default_rng(0)) == 0
    assert rows == [1] * sinklimit.dynamics._NOISE_BLOCK


def test_run_on_a_face_without_sink_profiles_settles_unclassified(fig2_game, monkeypatch):
    # Column 3 against rows 1 and 2: the profiles (1,3) and (2,3) lie in no
    # sink, and the run, not yet at a vertex, settles as -1 when the first
    # noise block ends.
    rows = []
    step = sinklimit.dynamics._step_batch
    monkeypatch.setattr(sinklimit.dynamics, "_step_batch",
                        lambda game, X, *rest: rows.append(step(game, X, *rest)) or rows[-1])
    x0 = (np.array([0.5, 0.5, 0.0]), np.array([0.0, 0.0, 1.0]))
    lookup = group_ids(fig2_game.num_profiles, sink_equilibria(fig2_game))
    got = _simulate_batch(fig2_game, x0, lookup, ReplicatorParams(), [np.random.default_rng(0)])
    assert got.tolist() == [-1]
    assert len(rows) == sinklimit.dynamics._NOISE_BLOCK
    assert np.count_nonzero(rows[-1][0, 0] > 0) == 2  # the row player is still mixed


# -- trajectory classification ------------------------------------------------------


def test_vertex_inside_sink_classifies_immediately(fig2_game):
    sinks = sink_equilibria(fig2_game)
    params = ReplicatorParams()
    out = simulate_to_sink(
        fig2_game, vertex_profile(fig2_game, 0), sinks, params, np.random.default_rng(3)
    )
    assert out == 0  # the 4-cycle sink
    out = simulate_to_sink(
        fig2_game, vertex_profile(fig2_game, 8), sinks, params, np.random.default_rng(3)
    )
    assert out == 1
    out = simulate_to_sink(  # (1,3) lies in no sink: frozen there, the run stays unclassified
        fig2_game, vertex_profile(fig2_game, 6), sinks, params, np.random.default_rng(3)
    )
    assert out is None


def test_zero_step_budget_never_classifies(fig2_game):
    sinks = sink_equilibria(fig2_game)
    params = ReplicatorParams(max_steps=0)
    out = simulate_to_sink(
        fig2_game, vertex_profile(fig2_game, 0), sinks, params, np.random.default_rng(0)
    )
    assert out is None
    # Nor does the face rule look at a one-sink face with no step taken.
    x0 = (np.array([0.6, 0.4, 0.0]), np.array([0.3, 0.7, 0.0]))
    assert simulate_to_sink(fig2_game, x0, sinks, params, np.random.default_rng(0)) is None


def test_near_strict_equilibrium_attraction(fig2_game):
    # Regression: from full-support states concentrated on (3,3), the
    # dynamics stays with the strict equilibrium in at least 90% of runs.
    sinks = sink_equilibria(fig2_game)
    x0 = tuple(np.array([0.025, 0.025, 0.95]) for _ in range(2))
    params = ReplicatorParams()
    rngs = [np.random.default_rng(np.random.SeedSequence([777, r])) for r in range(100)]
    res = _simulate_batch(fig2_game, x0, group_ids(fig2_game.num_profiles, sinks), params, rngs)
    assert np.mean(res == 1) > 0.9


def test_batch_width_does_not_change_runs(fig2_game):
    # Each run draws only from its own generator and finished runs stop
    # moving, so a run's outcome cannot depend on which others share its batch.
    sinks = sink_equilibria(fig2_game)
    lookup = group_ids(fig2_game.num_profiles, sinks)
    x0 = mixed_starts(fig2_game, np.random.default_rng(1), 10)
    params = ReplicatorParams(max_steps=200)

    def runs(width):
        rngs = [np.random.default_rng(np.random.SeedSequence([5, r])) for r in range(width)]
        return _simulate_batch(fig2_game, [x[:width] for x in x0], lookup, params, rngs)

    wide = runs(10)
    # Run 4's face closes at step 9, in the first block; run 3's face still
    # holds a third strategy at the budget, so it never settles.
    assert wide[4] == 0 and wide[3] == -1
    np.testing.assert_array_equal(runs(5), wide[:5])


def test_noise_block_length_does_not_change_runs(fig2_game, monkeypatch):
    # Each run refills its block rows from its own stream, so the block length
    # only decides when the draws happen, not what they are.
    # Nine of the runs' faces close, at steps 70 to 162, inside blocks of
    # every length; the budget ends inside a block of each length with one
    # run unsettled.
    lookup = group_ids(fig2_game.num_profiles, sink_equilibria(fig2_game))
    x0 = mixed_starts(fig2_game, np.random.default_rng(3), 10)
    params = ReplicatorParams(max_steps=200)

    def runs():
        rngs = [np.random.default_rng(np.random.SeedSequence([8, r])) for r in range(10)]
        return _simulate_batch(fig2_game, x0, lookup, params, rngs)

    default = runs()
    assert set(default.tolist()) == {-1, 0, 1}
    for length in (7, 256):
        monkeypatch.setattr(sinklimit.dynamics, "_NOISE_BLOCK", length)
        np.testing.assert_array_equal(runs(), default)


def test_mixed_start_rows_match_runs_alone():
    game = random_game(6, 3, (2, 2, 2), mode="integer", int_max=9)
    lookup = group_ids(game.num_profiles, sink_equilibria(game))
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

    def counting_step(game, X, *rest):
        rows.append(len(X[0]))
        return step(game, X, *rest)

    monkeypatch.setattr(sinklimit.dynamics, "_step_batch", counting_step)
    monkeypatch.setattr(sinklimit.dynamics, "_CHECKPOINT_EVERY", 3)
    estimate_limit_distribution(
        fig2_game, Prior("uniform"), ReplicatorParams(rng_seed=4, max_steps=3000),
        runs_per_sample=5, max_samples=3,
    )
    assert rows[0] == 3 * 5
    assert all(b <= a for a, b in zip(rows, rows[1:]))
    assert rows[-1] < rows[0]


# -- limit distribution estimation ----------------------------------------------------


def test_estimate_single_sink_game(matching_pennies, monkeypatch):
    monkeypatch.setattr(sinklimit.dynamics, "_CHECKPOINT_EVERY", 4)
    dist = estimate_limit_distribution(
        matching_pennies,
        Prior("uniform"),
        ReplicatorParams(rng_seed=1),
        runs_per_sample=10,
        max_samples=16,
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


def test_estimate_deterministic_bit_for_bit(fig2_game, monkeypatch):
    # short step budget: non-converged runs are fine, determinism is the point
    monkeypatch.setattr(sinklimit.dynamics, "_CHECKPOINT_EVERY", 4)
    kwargs = dict(tv_tol=0.02, runs_per_sample=6, max_samples=12)
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
            Prior.pure(w),
            ReplicatorParams(rng_seed=99),
            max_samples=64,
        )
        tv = total_variation(
            np.append(exact.sink_probabilities, 0.0),
            np.append(est.sink_probabilities, est.non_converged_fraction),
        )
        assert tv <= 0.05, f"game {seed},{p},{counts}: TV {tv}"


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: a run frozen at a pure profile "
                   "outside every sink never follows the profile chain out of it")
@pytest.mark.parametrize("seed", [1, 5])
def test_estimate_matches_exact_on_unpicked_games(seed):
    # The pinned seeds above were chosen to agree.  Here exact reads 1.0 for
    # the one sink, while the simulation leaves half (seed 1) or three
    # quarters (seed 5) of its runs frozen outside it.
    game = random_game(seed, 2, (3, 3))
    w = np.full(game.num_profiles, 1.0 / game.num_profiles)
    exact = exact_limit_distribution(game, w)
    est = estimate_limit_distribution(game, Prior.pure(w), ReplicatorParams(rng_seed=1),
                                      max_samples=16)
    tv = total_variation(
        np.append(exact.sink_probabilities, 0.0),
        np.append(est.sink_probabilities, est.non_converged_fraction),
    )
    assert tv <= 0.05


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
                        max_samples=512):
    """The estimator as one `_simulate_batch` call per prior sample, with the
    same seeds, checkpoints and stopping rule."""
    sinks = sink_equilibria(game)
    lookup = group_ids(game.num_profiles, sinks)
    k = len(sinks)
    root = params.rng_seed
    counts = np.zeros(k + 1)
    checkpoints, tv_trace = [], []
    converged = False
    samples = 0
    while samples < max_samples and not converged:
        block = range(samples, min(samples + sinklimit.dynamics._CHECKPOINT_EVERY, max_samples))
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
            converged = tv_trace[-1] < tv_tol and counts[:k].sum() > 0
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


@pytest.mark.parametrize("case", ["fig2", "unclassified", "pure", "ragged", "none-classified"])
def test_wide_batch_equals_per_sample_batches(fig2_game, fig3_game, case, monkeypatch):
    every = sinklimit.dynamics._CHECKPOINT_EVERY
    if case == "fig2":
        game, prior = fig2_game, Prior("uniform")
        params = ReplicatorParams(rng_seed=2024)
        kwargs, every = dict(tv_tol=0.02, runs_per_sample=5, max_samples=4), 2
    elif case == "unclassified":
        game = random_game(6, 3, (2, 2, 2), mode="integer", int_max=9)
        prior = Prior("dirichlet", alpha=0.5)
        params = ReplicatorParams(rng_seed=7, max_steps=120)
        kwargs, every = dict(runs_per_sample=6, max_samples=8), 4
    elif case == "pure":
        game = random_game(23, 2, (3, 3))
        prior = Prior.pure(np.full(9, 1 / 9))
        params = ReplicatorParams(rng_seed=99)
        kwargs = dict(runs_per_sample=8, max_samples=16)
    elif case == "ragged":
        game, prior = fig3_game, Prior("uniform")
        params = ReplicatorParams(rng_seed=11, max_steps=2000)
        kwargs, every = dict(tv_tol=1e-9, runs_per_sample=4, max_samples=7), 3
    else:  # ten steps close no run's face: every checkpoint is all-unclassified
        game, prior = fig2_game, Prior("uniform")
        params = ReplicatorParams(rng_seed=1, max_steps=10)
        kwargs, every = dict(runs_per_sample=3, max_samples=12), 4
    monkeypatch.setattr(sinklimit.dynamics, "_CHECKPOINT_EVERY", every)
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
    if case == "none-classified":
        assert got.tv_trace == [0.0, 0.0] and not got.converged and got.samples == 12


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


def test_exact_shares_never_exceed_one(monkeypatch):
    # One sink whose hitting rows are all exactly 1.0: `w @ H` adds nine
    # weights of 1/9 to 1.0000000000000002, which is clipped to 1.
    game = random_game(1, 2, (3, 3))
    w = np.full(9, 1 / 9)
    assert (w @ np.ones(9)) > 1.0
    np.testing.assert_array_equal(exact_limit_distribution(game, w).sink_probabilities, [1.0])
    # Beyond the 2e-9 rounding allowance the excess is a broken invariant.
    hit = limit_hitting_probabilities(game)
    hit.probabilities = hit.probabilities + 3e-9
    monkeypatch.setattr(sinklimit.dynamics, "limit_hitting_probabilities", lambda *a: hit)
    with pytest.raises(ContractViolation, match="exceeds 1"):
        exact_limit_distribution(game, w)


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


def test_pure_prior_keeps_read_only_weights(fig2_game):
    w = np.array([3, 0, 1, 0, 2, 0, 0, 1, 3], dtype=float) / 10
    prior = Prior.pure(w)
    assert prior.weights.dtype == np.float64 and not prior.weights.flags.writeable
    w[0] = 0.0  # the prior holds its own copy
    assert prior.weights[0] == 0.3
    with pytest.raises(ValueError):
        prior.weights[0] = 1.0
    rng, ref = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(20):
        want = vertex_profile(fig2_game, int(ref.choice(9, p=prior.weights / prior.weights.sum())),
                              sinklimit.dynamics._VERTEX_SMOOTHING)
        for got, expected in zip(prior.sample(fig2_game, rng), want):
            assert np.array_equal(got, expected)


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
    sinks = sink_equilibria(fig2_game)
    params = ReplicatorParams()
    with pytest.raises(ValueError, match="player 0"):
        simulate_to_sink(fig2_game, x, sinks, params, np.random.default_rng(0))
    with pytest.raises(ValueError, match="player 0"):
        noisy_replicator_step(fig2_game, x, params, np.random.default_rng(0))
    with pytest.raises(ValueError, match="player 0"):
        best_response_vector(fig2_game, x, 1)


@pytest.mark.parametrize("x, message", [
    ((np.full(3, 1 / 3),), "profile has 1 vectors for 2 players"),
    ((np.full(2, 1 / 2), np.full(3, 1 / 3)), "player 0 vector has wrong length"),
    ((np.full(3, 1 / 3), np.zeros(3)), "player 1 vector sums to 0.0"),
])
def test_malformed_starts_rejected(fig2_game, x, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        noisy_replicator_step(fig2_game, x, ReplicatorParams(), np.random.default_rng(0))


def test_pure_prior_sample_needs_one_weight_per_profile(fig2_game):
    prior = Prior.pure(np.full(4, 0.25))
    with pytest.raises(ValueError, match=r"^pure prior has 4 weights for 9 profiles$"):
        prior.sample(fig2_game, np.random.default_rng(0))


def test_replicator_params_validation():
    with pytest.raises(ValueError):
        ReplicatorParams(eta=0.0)
    with pytest.raises(ValueError):
        ReplicatorParams(delta=-1.0)
