"""Noisy replicator dynamics and the prior-to-limit-distribution estimators.

A mixed strategy profile is a tuple of per-player probability vectors.  The
dynamics adds a best-response drift and projected Gaussian noise to each
player's vector and projects back onto the simplex of the current support,
so supports never grow.  Trajectories are classified to a sink once the
nearest pure profile stays inside that sink for a window of consecutive
steps and the state passes close to a vertex at least once in the window.

The estimator steps every run of a checkpoint block (samples times runs
per sample) as one batch, and a run leaves the batch as soon as it is
classified or frozen.  The batch is one zero-padded array of shape
(players, runs, widest strategy count), so each step and each
classification makes one numpy call per operation for all players, not
one per player; a pad slot is zero and never enters a support.  Each run
draws its noise from its own generator,
seeded by a splittable (root, sample, run) scheme, so a run's trajectory
does not depend on which runs share its batch and results are
bit-identical for a given root seed.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .epsmc import limit_hitting_probabilities
from .game import Game, build_reduced_response_graph, decode_profile, sink_equilibria
from .scc import group_ids

_NOISE_BLOCK = 64
_VERTEX_TOLERANCE = 0.05


@dataclass(frozen=True)
class ReplicatorParams:
    """Step length, noise scale, and classification knobs of the dynamics."""

    eta: float = 0.01
    delta: float = 0.005
    extinction_floor: float = 1e-9
    max_steps: int = 100_000
    window: int = 50
    rng_seed: int = 0

    def __post_init__(self):
        if not (0 < self.eta < math.inf and 0 < self.delta < math.inf):
            raise ValueError("eta and delta must be finite and positive")
        if not 0 <= self.extinction_floor < math.inf:
            raise ValueError("extinction_floor must be finite and nonnegative")
        if self.window < 1:
            raise ValueError("window must be at least 1")
        if self.max_steps < 0:
            raise ValueError("max_steps must be nonnegative")


@dataclass
class LimitDistribution:
    """Estimated or exact probability of ending in each sink.

    `sink_probabilities` plus the non-converged fraction sums to one.  The
    TV traces record, per checkpoint, the distance between successive
    running averages (the online stopping rule) and to the final average
    (the ex-post view).
    """

    sink_probabilities: np.ndarray
    sinks: list
    samples: int
    runs_per_sample: int
    non_converged: int
    converged: bool
    method: str
    tv_trace: list = field(default_factory=list)
    tv_to_final: list = field(default_factory=list)

    @property
    def non_converged_fraction(self) -> float:
        total = self.samples * self.runs_per_sample
        return self.non_converged / total if total else 0.0


def total_variation(p, q) -> float:
    """Half the L1 distance between two probability vectors."""
    return 0.5 * float(np.sum(np.abs(np.asarray(p) - np.asarray(q))))


def check_mixed_profile(game: Game, x) -> None:
    if len(x) != game.num_players:
        raise ValueError(f"profile has {len(x)} vectors for {game.num_players} players")
    for i, xi in enumerate(x):
        xi = np.asarray(xi)
        if xi.shape != (game.strategy_counts[i],):
            raise ValueError(f"player {i} vector has wrong length")
        # Written so that NaN and inf fail: every comparison with NaN is False.
        if not np.all(xi >= 0):
            raise ValueError(f"player {i} vector has negative or NaN entries")
        if not abs(float(xi.sum()) - 1.0) <= 1e-12:
            raise ValueError(f"player {i} vector sums to {xi.sum()!r}")
        if not np.any(xi > 0):
            raise ValueError(f"player {i} vector has empty support")


def _check_pure_weights(weights) -> np.ndarray:
    """Weights of a pure prior as a float array: finite, nonnegative, summing to 1."""
    w = np.asarray(weights, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError("pure prior weights must be finite")
    if np.any(w < 0):
        raise ValueError("pure prior weights must be nonnegative")
    if abs(float(w.sum()) - 1.0) > 1e-9:
        raise ValueError(f"pure prior weights sum to {w.sum()!r}, not 1")
    return w


def vertex_profile(game: Game, profile_id: int, smoothing: float = 0.0):
    """Mixed profile at (or near) a pure profile's vertex.

    With positive `smoothing`, mass `smoothing` is spread uniformly over each
    player's strategies so the dynamics can actually move; supports at the
    exact vertex are singletons and the state would be frozen forever.
    """
    strategies = decode_profile(profile_id, game)
    out = []
    for i, a in enumerate(strategies):
        s = game.strategy_counts[i]
        xi = np.full(s, smoothing / s)
        xi[a] += 1.0 - smoothing
        out.append(xi)
    return tuple(out)


@dataclass(frozen=True)
class Prior:
    """Sampler over mixed strategy profiles.

    `uniform` and `dirichlet` draw each player's vector from a symmetric
    Dirichlet (alpha 1 is the uniform distribution over the simplex);
    `pure` draws a pure profile from explicit weights and starts at its
    smoothed vertex.
    """

    kind: str
    alpha: float = 1.0
    weights: tuple = ()
    vertex_smoothing: float = 0.1

    @classmethod
    def parse(cls, text: str) -> "Prior":
        if text == "uniform":
            return cls("uniform")
        if text.startswith("dirichlet:"):
            alpha = float(text.split(":", 1)[1])
            if not 0 < alpha < math.inf:
                raise ValueError(f"dirichlet alpha must be finite and positive, got {alpha}")
            return cls("dirichlet", alpha=alpha)
        raise ValueError(f"unknown prior spec {text!r}")

    @classmethod
    def pure(cls, weights, vertex_smoothing: float = 0.1) -> "Prior":
        w = _check_pure_weights(weights)
        if not 0 <= vertex_smoothing <= 1:
            raise ValueError(f"vertex smoothing must be in [0, 1], got {vertex_smoothing}")
        return cls("pure", weights=tuple(float(v) for v in w),
                   vertex_smoothing=vertex_smoothing)

    def sample(self, game: Game, rng) :
        if self.kind in ("uniform", "dirichlet"):
            return tuple(
                rng.dirichlet(np.full(s, self.alpha)) for s in game.strategy_counts
            )
        if self.kind == "pure":
            w = np.asarray(self.weights)
            if len(w) != game.num_profiles:
                raise ValueError(
                    f"pure prior has {len(w)} weights for {game.num_profiles} profiles"
                )
            pid = int(rng.choice(game.num_profiles, p=w / w.sum()))
            return vertex_profile(game, pid, self.vertex_smoothing)
        raise ValueError(f"unknown prior kind {self.kind!r}")


# -- core numerics -----------------------------------------------------------


def _expected_utilities_batch(game: Game, X, player: int) -> np.ndarray:
    """Expected utility of each pure strategy of `player` against the
    opponents' mixed vectors; X is a list of (runs, s_j) arrays."""
    p = game.num_players
    runs = X[0].shape[0]
    if p == 1:
        return np.tile(game.utilities[0], (runs, 1))
    # Sublist form: label j is player j's strategy axis, label p the run axis.
    operands = [game.tensor(player), list(range(p - 1, -1, -1))]
    for j in range(p):
        if j != player:
            operands += [X[j], [p, j]]
    return np.einsum(*operands, [p, player])


def best_response_vector(game: Game, x, player: int) -> np.ndarray:
    """Unit vector on `player`'s best response, projected to the support of x.

    The argmax is restricted to the supported strategies (ties break to the
    lowest index), so the vector is never zero.
    """
    check_mixed_profile(game, x)
    X = [np.asarray(xi, dtype=float)[None, :] for xi in x]
    eu = _expected_utilities_batch(game, X, player)[0]
    out = np.zeros_like(eu)
    out[int(np.argmax(np.where(X[player][0] > 0, eu, -np.inf)))] = 1.0
    return out


def _simplex_rows(V: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean projection onto the simplex over masked coords."""
    runs, k = V.shape
    Vm = np.where(mask, V, -np.inf)
    s = np.sort(Vm, axis=1)[:, ::-1]
    vals = np.where(np.isfinite(s), s, 0.0)
    cs = np.cumsum(vals, axis=1)
    j = np.arange(1, k + 1)
    cond = s + (1.0 - cs) / j > 0
    rho = cond.sum(axis=1)
    lam = (1.0 - cs[np.arange(runs), rho - 1]) / rho
    X = np.maximum(V + lam[:, None], 0.0)
    X[~mask] = 0.0
    return X


def _project_rows(V: np.ndarray, mask: np.ndarray, floor: float) -> np.ndarray:
    """Projection plus extinction: entries that land below `floor` are zeroed
    and the survivors re-projected; a row losing every coordinate falls back
    to the pure strategy at its largest input coordinate."""
    X = _simplex_rows(V, mask)
    if floor <= 0.0:
        return X
    # A re-projected row loses a coordinate each pass and a fallen-back row
    # stays put, so the row width (pads included) bounds the passes.
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
            X[rows] = _simplex_rows(X[rows], keep[rows])
    return X


def project_to_simplex(v, support=None, floor: float = 0.0) -> np.ndarray:
    """Euclidean projection of `v` onto the probability simplex over
    `support` (indices or boolean mask; default all coordinates), with
    entries below `floor` extinguished as described in `_project_rows`."""
    v = np.asarray(v, dtype=float)
    k = v.shape[0]
    if support is None:
        mask = np.ones(k, dtype=bool)
    else:
        support = np.asarray(support)
        if support.dtype == bool:
            mask = support.copy()
        else:
            mask = np.zeros(k, dtype=bool)
            mask[support] = True
    if not mask.any():
        raise ValueError("support must be nonempty")
    return _project_rows(v[None, :], mask[None, :], floor)[0]


def _noise_slots(game: Game) -> np.ndarray:
    """`slots[i, k]` is the noise column of player i's strategy k in the
    padded layout; a pad slot k >= s_i reads player i's last column, and the
    step masks it to zero."""
    counts = np.array(game.strategy_counts)
    k = np.minimum(np.arange(counts.max()), counts[:, None] - 1)
    return (np.cumsum(counts) - counts)[:, None] + k


def _pad(game: Game, x, runs: int) -> np.ndarray:
    """Zero-padded `(players, runs, widest)` array of the per-player starts
    `x[i]`: one vector shared by every run, or one row per run."""
    X = np.zeros((game.num_players, runs, max(game.strategy_counts)))
    for i, s in enumerate(game.strategy_counts):
        X[i, :, :s] = np.asarray(x[i], dtype=float)
    return X


def _step_batch(game: Game, X, params: ReplicatorParams, noise_row: np.ndarray):
    """One synchronous noisy-replicator step for a batch of runs.

    `X[i]` is player i's `(runs, widest)` array, zero beyond its strategy
    count, and `noise_row` holds the noise in the same layout."""
    p, runs, widest = X.shape
    views = [X[j, :, :s] for j, s in enumerate(game.strategy_counts)]
    eu = np.empty_like(X)
    for i, s in enumerate(game.strategy_counts):
        eu[i, :, :s] = _expected_utilities_batch(game, views, i)
    mask = X > 0
    idx = np.argmax(np.where(mask, eu, -np.inf), axis=2)
    V = X.copy()
    V[np.arange(p)[:, None], np.arange(runs), idx] += params.eta
    V += params.delta * noise_row * mask
    rows = _project_rows(V.reshape(-1, widest), mask.reshape(-1, widest),
                         params.extinction_floor)
    return rows.reshape(p, runs, widest)


def noisy_replicator_step(game: Game, x, params: ReplicatorParams, rng):
    """One step of the dynamics for a single profile.

    Gaussian noise is drawn for every coordinate in player order and zeroed
    off-support (equivalent to drawing on the support only), which keeps the
    stream consumption identical to the batched simulation engine.
    """
    check_mixed_profile(game, x)
    noise = rng.standard_normal(sum(game.strategy_counts))[_noise_slots(game)][:, None, :]
    X = _step_batch(game, _pad(game, x, 1), params, noise)
    return tuple(X[i, 0, :s].copy() for i, s in enumerate(game.strategy_counts))


def _simulate_batch(game: Game, x0, sink_of: np.ndarray, params: ReplicatorParams,
                    rngs) -> np.ndarray:
    """Run one replicator trajectory per generator.

    `x0[i]` is player i's start: one vector shared by every run, or one row
    per run.  Runs leave the batch once classified or frozen, so each step
    costs only the runs still moving.  Returns the sink index per run, -1
    when not classified within `params.max_steps`.
    """
    runs = len(rngs)
    p = game.num_players
    X = _pad(game, x0, runs)
    slots = _noise_slots(game)
    strides = np.array(game.strides)
    live = np.arange(runs)
    players, rows = np.arange(p)[:, None], live
    streak_sink = np.full(runs, -1)
    streak_len = np.zeros(runs, dtype=int)
    streak_close = np.zeros(runs, dtype=bool)
    result = np.full(runs, -1)
    pos = _NOISE_BLOCK
    for _ in range(params.max_steps):
        if live.size == 0:
            break
        if pos == _NOISE_BLOCK:
            # Run j's draws fill raw[j] from its own stream, so the block
            # length never changes a run's noise; then one gather moves
            # every draw into its padded slot.
            raw = np.empty((live.size, _NOISE_BLOCK, sum(game.strategy_counts)))
            for j, r in enumerate(live.tolist()):
                rngs[r].standard_normal(out=raw[j])
            block = raw[:, :, slots]
            pos = 0
        X = _step_batch(game, X, params, block[:, pos].transpose(1, 0, 2))
        pos += 1
        arg = X.argmax(axis=2)
        nearest = strides @ arg
        offset = X.copy()
        offset[players, rows, arg] -= 1.0
        dist = np.abs(offset).max(axis=(0, 2))
        # Every support keeps at least one strategy, so p supported
        # strategies in all means every support is a singleton.
        frozen = (X > 0).sum(axis=(0, 2)) == p
        s = sink_of[nearest]
        in_sink = s >= 0
        same = in_sink & (s == streak_sink)
        streak_len = np.where(same, streak_len + 1, in_sink)
        streak_close = (same & streak_close) | (in_sink & (dist < _VERTEX_TOLERANCE))
        streak_sink = s
        # A run whose supports are all singletons can never move again: the
        # window rule on its constant trajectory would classify it to the
        # nearest profile's sink (or never); settle it now instead of
        # grinding out the remaining steps.  Either way a settled run ends
        # at `s`.
        settled = ((streak_len >= params.window) & streak_close) | frozen
        result[live[settled]] = s[settled]
        keep = ~settled
        if not keep.all():
            live = live[keep]
            rows = np.arange(live.size)
            X = X[:, keep]
            streak_sink, streak_len, streak_close = (
                streak_sink[keep], streak_len[keep], streak_close[keep])
            block = block[keep]
    return result


def simulate_to_sink(game: Game, x0, sinks, params: ReplicatorParams, rng):
    """Classify one trajectory started at `x0`; returns the sink index or
    None when the run exhausts `max_steps` unclassified."""
    check_mixed_profile(game, x0)
    res = _simulate_batch(game, x0, group_ids(game.num_profiles, sinks), params, [rng])
    return int(res[0]) if res[0] >= 0 else None


def estimate_limit_distribution(game: Game, prior: Prior, params: ReplicatorParams,
                                tv_tol: float = 0.01, *, runs_per_sample: int = 40,
                                max_samples: int = 512, checkpoint_every: int = 8,
                                tie_tolerance: float = 0.0) -> LimitDistribution:
    """Empirical limit distribution over the sinks of `game`.

    Draws start profiles from `prior`, runs `runs_per_sample` independent
    noisy-replicator instances per draw, and accumulates the running average
    of the per-run outcomes.  The runs of each block of `checkpoint_every`
    samples are stepped as one batch, which a run leaves once it is
    classified or frozen.  Stops when the total-variation distance between
    the running averages at successive checkpoints drops below `tv_tol`, or
    at the `max_samples` budget.  The sinks are those of the response graph
    at `tie_tolerance`.  Deterministic given `params.rng_seed`, and the same
    as stepping each sample's runs on their own.
    """
    if not 0 < tv_tol < math.inf:
        raise ValueError("tv_tol must be finite and positive")
    if min(runs_per_sample, max_samples, checkpoint_every) < 1:
        raise ValueError("runs_per_sample, max_samples and checkpoint_every must be at least 1")
    sinks = sink_equilibria(build_reduced_response_graph(game, tie_tolerance))
    lookup = group_ids(game.num_profiles, sinks)
    k = len(sinks)
    root = int(params.rng_seed)
    counts = np.zeros(k + 1)
    checkpoints = []
    tv_trace = []
    converged = False
    samples = 0
    while samples < max_samples and not converged:
        block = range(samples, min(samples + checkpoint_every, max_samples))
        starts = [prior.sample(game, np.random.default_rng(np.random.SeedSequence([root, s_idx])))
                  for s_idx in block]
        x0 = [np.repeat([x[i] for x in starts], runs_per_sample, axis=0)
              for i in range(game.num_players)]
        rngs = [np.random.default_rng(np.random.SeedSequence([root, s_idx, r + 1]))
                for s_idx in block for r in range(runs_per_sample)]
        res = _simulate_batch(game, x0, lookup, params, rngs)
        counts += np.bincount(np.where(res >= 0, res, k), minlength=k + 1)
        samples += len(block)
        dist = counts / counts.sum()
        if checkpoints:
            tv = total_variation(dist, checkpoints[-1])
            tv_trace.append(tv)
            if tv < tv_tol:
                converged = True
        checkpoints.append(dist)
    final = checkpoints[-1]
    return LimitDistribution(
        sink_probabilities=final[:k],
        sinks=sinks,
        samples=samples,
        runs_per_sample=runs_per_sample,
        non_converged=int(counts[k]),
        converged=converged,
        method="simulation",
        tv_trace=tv_trace,
        tv_to_final=[total_variation(c, final) for c in checkpoints],
    )


def exact_limit_distribution(game: Game, pure_prior, tie_tolerance: float = 0.0) -> LimitDistribution:
    """Exact limit distribution for a prior supported on pure profiles:
    the prior-weighted average of the limit hitting probability rows."""
    w = _check_pure_weights(pure_prior)
    if w.shape != (game.num_profiles,):
        raise ValueError(
            f"pure prior needs {game.num_profiles} weights, got {w.shape}"
        )
    hit = limit_hitting_probabilities(game, tie_tolerance)
    return LimitDistribution(
        sink_probabilities=w @ hit.probabilities,
        sinks=hit.sinks,
        samples=0,
        runs_per_sample=0,
        non_converged=0,
        converged=True,
        method="exact",
    )
