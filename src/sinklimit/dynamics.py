"""Noisy replicator dynamics and the prior-to-limit-distribution estimators.

A mixed strategy profile is a tuple of per-player probability vectors.  The
dynamics adds a best-response drift and projected Gaussian noise to each
player's vector and projects back onto the simplex of the current support,
so supports never grow.  Trajectories are classified to a sink once the
nearest pure profile stays inside that sink for a window of consecutive
steps and the state passes close to a vertex at least once in the window.

Replicate runs draw their noise from per-run generators seeded by a
splittable (root, sample, run) scheme, so results are bit-identical for a
given root seed.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .epsmc import limit_hitting_probabilities
from .game import Game, build_response_graph, sink_equilibria

_NOISE_BLOCK = 256


@dataclass(frozen=True)
class ReplicatorParams:
    """Step length, noise scale, and classification knobs of the dynamics."""

    eta: float = 0.01
    delta: float = 0.005
    extinction_floor: float = 1e-9
    max_steps: int = 100_000
    window: int = 50
    rng_seed: int = 0
    vertex_tolerance: float = 0.05

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
        if np.any(xi < 0):
            raise ValueError(f"player {i} vector has negative entries")
        if abs(float(xi.sum()) - 1.0) > 1e-12:
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
    from .game import decode_profile

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
    if p > 25:
        raise ValueError("more than 25 players is not supported")
    letters = [chr(ord("a") + j) for j in range(p)]
    tensor_subs = "".join(letters[j] for j in reversed(range(p)))
    parts = [tensor_subs] + ["z" + letters[j] for j in range(p) if j != player]
    expr = ",".join(parts) + "->z" + letters[player]
    operands = [game.tensor(player)] + [X[j] for j in range(p) if j != player]
    return np.einsum(expr, *operands)


def best_response_vector(game: Game, x, player: int, mode: str = "support") -> np.ndarray:
    """Unit vector on `player`'s best response, projected to the support of x.

    In `support` mode the argmax is restricted to the supported strategies
    (ties break to the lowest index), so the vector is never zero; in
    `global` mode the unrestricted argmax is used and the result is the zero
    vector whenever that strategy is extinct.
    """
    check_mixed_profile(game, x)
    X = [np.asarray(xi, dtype=float)[None, :] for xi in x]
    eu = _expected_utilities_batch(game, X, player)[0]
    support = X[player][0] > 0
    out = np.zeros_like(eu)
    if mode == "support":
        idx = int(np.argmax(np.where(support, eu, -np.inf)))
        out[idx] = 1.0
    elif mode == "global":
        idx = int(np.argmax(eu))
        if support[idx]:
            out[idx] = 1.0
    else:
        raise ValueError(f"unknown best-response mode {mode!r}")
    return out


def _simplex_rows(V: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean projection onto the simplex over masked coords."""
    runs, k = V.shape
    Vm = np.where(mask, V, -np.inf)
    s = -np.sort(-Vm, axis=1)
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


def _step_batch(game: Game, X, params: ReplicatorParams, noise_row: np.ndarray):
    """One synchronous noisy-replicator step for a batch of runs."""
    p = game.num_players
    runs = X[0].shape[0]
    offsets = np.cumsum([0] + list(game.strategy_counts))
    out = []
    for i in range(p):
        eu = _expected_utilities_batch(game, X, i)
        mask = X[i] > 0
        idx = np.argmax(np.where(mask, eu, -np.inf), axis=1)
        V = X[i].copy()
        V[np.arange(runs), idx] += params.eta
        V += params.delta * noise_row[:, offsets[i] : offsets[i + 1]] * mask
        out.append(_project_rows(V, mask, params.extinction_floor))
    return out


def noisy_replicator_step(game: Game, x, params: ReplicatorParams, rng):
    """One step of the dynamics for a single profile.

    Gaussian noise is drawn for every coordinate in player order and zeroed
    off-support (equivalent to drawing on the support only), which keeps the
    stream consumption identical to the batched simulation engine.
    """
    check_mixed_profile(game, x)
    X = [np.asarray(xi, dtype=float)[None, :] for xi in x]
    noise = rng.standard_normal(sum(game.strategy_counts))[None, :]
    return tuple(xi[0] for xi in _step_batch(game, X, params, noise))


def _simulate_batch(game: Game, x0, sink_of: np.ndarray, params: ReplicatorParams,
                    rngs) -> np.ndarray:
    """Run one replicator trajectory per generator, all starting at `x0`.

    Returns the sink index per run, -1 when not classified within
    `params.max_steps`.
    """
    runs = len(rngs)
    X = [np.tile(np.asarray(x0[i], dtype=float), (runs, 1))
         for i in range(game.num_players)]
    strides = np.array(game.strides)
    coords = sum(game.strategy_counts)
    active = np.ones(runs, dtype=bool)
    streak_sink = np.full(runs, -2)
    streak_len = np.zeros(runs, dtype=int)
    streak_close = np.zeros(runs, dtype=bool)
    result = np.full(runs, -1)
    block = None
    pos = _NOISE_BLOCK
    for _ in range(params.max_steps):
        if not active.any():
            break
        if pos == _NOISE_BLOCK:
            block = np.stack([rng.standard_normal((_NOISE_BLOCK, coords)) for rng in rngs])
            pos = 0
        noise_row = block[:, pos, :]
        pos += 1
        new = _step_batch(game, X, params, noise_row)
        for i in range(game.num_players):
            X[i] = np.where(active[:, None], new[i], X[i])
        nearest = np.zeros(runs, dtype=int)
        dist = np.zeros(runs)
        frozen = np.ones(runs, dtype=bool)
        for i in range(game.num_players):
            arg = np.argmax(X[i], axis=1)
            nearest += arg * strides[i]
            tmp = X[i].copy()
            tmp[np.arange(runs), arg] -= 1.0
            dist = np.maximum(dist, np.max(np.abs(tmp), axis=1))
            frozen &= (X[i] > 0).sum(axis=1) == 1
        s = sink_of[nearest]
        close = dist < params.vertex_tolerance
        same = (s == streak_sink) & (s >= 0)
        streak_len = np.where(same, streak_len + 1, np.where(s >= 0, 1, 0))
        streak_close = np.where(same, streak_close | close, (s >= 0) & close)
        streak_sink = np.where(s >= 0, s, -2)
        done = active & (streak_len >= params.window) & streak_close
        result[done] = streak_sink[done]
        active &= ~done
        # A run whose supports are all singletons can never move again: the
        # window rule on its constant trajectory would classify it to the
        # nearest profile's sink (or never); settle it now instead of
        # grinding out the remaining steps.
        stuck = active & frozen
        result[stuck] = np.where(s[stuck] >= 0, s[stuck], -1)
        active &= ~stuck
    return result


def _sink_lookup(game: Game, sinks) -> np.ndarray:
    lookup = np.full(game.num_profiles, -1)
    for j, sink in enumerate(sinks):
        lookup[list(sink)] = j
    return lookup


def simulate_to_sink(game: Game, x0, sinks, params: ReplicatorParams, rng):
    """Classify one trajectory started at `x0`; returns the sink index or
    None when the run exhausts `max_steps` unclassified."""
    check_mixed_profile(game, x0)
    res = _simulate_batch(game, x0, _sink_lookup(game, sinks), params, [rng])
    return int(res[0]) if res[0] >= 0 else None


def estimate_limit_distribution(game: Game, prior: Prior, params: ReplicatorParams,
                                tv_tol: float = 0.01, *, runs_per_sample: int = 40,
                                max_samples: int = 512, checkpoint_every: int = 8,
                                tie_tolerance: float = 0.0) -> LimitDistribution:
    """Empirical limit distribution over the sinks of `game`.

    Draws start profiles from `prior`, runs `runs_per_sample` independent
    noisy-replicator instances per draw, and accumulates the running average
    of the per-run outcomes.  Stops when the total-variation distance between
    the running averages at successive checkpoints (every `checkpoint_every`
    samples) drops below `tv_tol`, or at the `max_samples` budget.  The sinks
    are those of the response graph at `tie_tolerance`.  Deterministic given
    `params.rng_seed`.
    """
    if not 0 < tv_tol < math.inf:
        raise ValueError("tv_tol must be finite and positive")
    if min(runs_per_sample, max_samples, checkpoint_every) < 1:
        raise ValueError("runs_per_sample, max_samples and checkpoint_every must be at least 1")
    sinks = sink_equilibria(build_response_graph(game, tie_tolerance))
    lookup = _sink_lookup(game, sinks)
    k = len(sinks)
    root = int(params.rng_seed)
    counts = np.zeros(k + 1)

    def one_sample(s_idx: int) -> np.ndarray:
        prior_rng = np.random.default_rng(np.random.SeedSequence([root, s_idx]))
        x0 = prior.sample(game, prior_rng)
        rngs = [
            np.random.default_rng(np.random.SeedSequence([root, s_idx, r + 1]))
            for r in range(runs_per_sample)
        ]
        return _simulate_batch(game, x0, lookup, params, rngs)

    checkpoints = []
    tv_trace = []
    converged = False
    samples = 0
    while samples < max_samples and not converged:
        block = range(samples, min(samples + checkpoint_every, max_samples))
        for s_idx in block:
            res = one_sample(s_idx)
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
