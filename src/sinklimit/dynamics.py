"""Noisy replicator dynamics and the prior-to-limit-distribution estimators.

A mixed strategy profile is a tuple of per-player probability vectors.  The
dynamics adds a best-response drift and projected Gaussian noise to each
player's vector and projects back onto the simplex of the current support,
so supports never grow.  One rule classifies a trajectory, the face rule:
once every profile in the run's face, the product of its supports, has one
sink id (or lies in no sink, id -1), the run's sink is fixed, because the
nearest pure profile never leaves the face.

The estimator steps every run of a checkpoint block (`_CHECKPOINT_EVERY`
samples times runs per sample) as one batch.  Noise is drawn one block of
steps at a time; within a noise block each step only advances the batch,
and at the block's last step the face rule runs once, on the sink ids of
the runs' nearest profiles.  A run leaves the batch at the end of the noise
block in which the face rule settles it.  What is the same for every step
of a noise block is made once per block: the noise, scaled by delta, and
`_BlockConstants`; a step computes only what depends on the batch's state.
Expected utilities and best responses have one kernel, `_best_responses`
(per player, one matrix product, then one multiply-sum per further
opponent), which the step and `best_response_vector` (on a one-run batch)
both call.  The batch is one zero-padded array of shape (players, runs,
widest strategy count), so each step makes one numpy call per operation for
all players, not one per player; a pad slot is zero and never enters a
support.  Each run draws its noise from its own generator, seeded by a
splittable (root, sample, run) scheme, so a run's trajectory does not
depend on which runs share its batch and results are bit-identical for a
given root seed.

The dynamics has two parameters, `eta` and `delta`.  Four module constants
fix the estimator's own rules:
- `_NOISE_BLOCK`: steps drawn at once, and the face rule's period; no
  result depends on it.
- `_CHECKPOINT_EVERY`: prior samples batched between stopping-rule checks.
- `_EXTINCTION_FLOOR`: probabilities below it go extinct, so supports can shrink.
- `_VERTEX_SMOOTHING`: mass spread at a pure prior's start; an exact vertex never moves.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .epsmc import limit_hitting_probabilities
from .errors import ContractViolation, SolverConvergenceError
from .game import Game, decode_profile, sink_equilibria
from .scc import group_ids

_NOISE_BLOCK = 32
_CHECKPOINT_EVERY = 8
_EXTINCTION_FLOOR = 1e-9
_VERTEX_SMOOTHING = 0.1


@dataclass(frozen=True)
class ReplicatorParams:
    """Step length, noise scale, step budget and root seed of the dynamics."""

    eta: float = 0.01
    delta: float = 0.005
    max_steps: int = 100_000
    rng_seed: int = 0

    def __post_init__(self):
        if not (0 < self.eta < math.inf and 0 < self.delta < math.inf):
            raise ValueError("eta and delta must be finite and positive")
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
        # Nonnegative entries summing to 1 include a positive one: the support is never empty.
        if not abs(float(xi.sum()) - 1.0) <= 1e-12:
            raise ValueError(f"player {i} vector sums to {float(xi.sum())!r}")


def _check_pure_weights(weights) -> np.ndarray:
    """Weights of a pure prior as a float array: finite, nonnegative, summing to 1."""
    w = np.asarray(weights, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError("pure prior weights must be finite")
    if np.any(w < 0):
        raise ValueError("pure prior weights must be nonnegative")
    if abs(float(w.sum()) - 1.0) > 1e-9:
        raise ValueError(f"pure prior weights sum to {float(w.sum())!r}, not 1")
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


@dataclass(frozen=True, eq=False)
class Prior:
    """Sampler over mixed strategy profiles.

    `uniform` and `dirichlet` draw each player's vector from a symmetric
    Dirichlet (alpha 1 is the uniform distribution over the simplex);
    `pure` draws a pure profile from explicit weights, kept as a read-only
    float64 array so no draw converts them again, and starts at its vertex
    smoothed by `_VERTEX_SMOOTHING`.  Priors compare by identity.
    """

    kind: str
    alpha: float = 1.0
    weights: np.ndarray = ()

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
    def pure(cls, weights) -> "Prior":
        w = _check_pure_weights(weights).copy()
        w.flags.writeable = False
        return cls("pure", weights=w)

    def sample(self, game: Game, rng) :
        if self.kind in ("uniform", "dirichlet"):
            return tuple(
                rng.dirichlet(np.full(s, self.alpha)) for s in game.strategy_counts
            )
        if self.kind == "pure":
            w = self.weights
            if len(w) != game.num_profiles:
                raise ValueError(
                    f"pure prior has {len(w)} weights for {game.num_profiles} profiles"
                )
            pid = int(rng.choice(game.num_profiles, p=w / w.sum()))
            return vertex_profile(game, pid, _VERTEX_SMOOTHING)
        raise ValueError(f"unknown prior kind {self.kind!r}")


# -- core numerics -----------------------------------------------------------


def _simplex_rows(V: np.ndarray, mask: np.ndarray, ranks: np.ndarray,
                  row_ids: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean projection onto the simplex over masked coords.

    `ranks` (1..k) and `row_ids` (0..len(V)-1) are built once per noise
    block.  Per call: the rows with -inf off the mask, sorted decreasing into
    s with running sums cs; rho counts the j with j s_j > cs_j - 1, which is
    s_j + (1 - cs_j)/j > 0 and is false at -inf, and the shift is
    (1 - cs_rho)/rho.  An unmasked coordinate stays -inf until the clip.
    """
    Vm = np.where(mask, V, -np.inf)
    # rho is 0 only where float64 failed the row: rounding cancelled it
    # (eta = 1e200 or delta = 1e300, say), its sums overflowed or met an
    # infinite coordinate (delta = 1e308), or its mask is empty.  Its shift
    # is then -inf whatever the sign of its largest coordinate, the clip
    # (`fmax`, which maps NaN to 0) leaves it no positive coordinate, and
    # `_check_supports` reports the failure, so the arithmetic that got
    # there warns nothing.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        s = np.sort(Vm, axis=1)[:, ::-1]
        cs = s.cumsum(axis=1)
        rho = (s * ranks > cs - 1.0).sum(axis=1)
        lam = (1.0 - cs[row_ids, np.maximum(rho, 1) - 1]) / rho
        lam[rho == 0] = -np.inf
        Vm += lam[:, None]
    return np.fmax(Vm, 0.0, out=Vm)


def _project_rows(V: np.ndarray, mask: np.ndarray, floor: float, ranks: np.ndarray,
                  row_ids: np.ndarray) -> np.ndarray:
    """Projection plus extinction: entries that land below `floor` are zeroed
    and the survivors re-projected; a row losing every coordinate falls back
    to the pure strategy at its largest input coordinate.  `ranks` and
    `row_ids` are as in `_simplex_rows`."""
    X = _simplex_rows(V, mask, ranks, row_ids)
    if floor <= 0.0:
        return X
    # A re-projected row loses a coordinate each pass and a fallen-back row
    # stays put, so the row width (pads included) bounds the passes.
    for _ in range(V.shape[1]):
        small = (X > 0) & (X < floor)
        if not small.any():
            break
        rows = np.flatnonzero(small.any(axis=1))
        keep = (X > 0) & ~small
        dead = rows[~keep[rows].any(axis=1)]
        if dead.size:
            best = np.argmax(np.where(mask[dead], V[dead], -np.inf), axis=1)
            X[dead] = 0.0
            X[dead, best] = 1.0
            rows = rows[keep[rows].any(axis=1)]
        if rows.size:
            X[rows] = _simplex_rows(X[rows], keep[rows], ranks, row_ids[:rows.size])
    return X


def project_to_simplex(v, support=None, floor: float = 0.0) -> np.ndarray:
    """Euclidean projection of `v` onto the probability simplex over
    `support` (indices or boolean mask; default all coordinates), with
    entries below `floor` extinguished as described in `_project_rows`.
    Raises `SolverConvergenceError` where float64 rounding cancels every
    coordinate, as for `[1e16, 0.0]`."""
    v = np.asarray(v, dtype=float)
    k = v.shape[0]
    mask = np.zeros(k, dtype=bool)
    mask[slice(None) if support is None else np.asarray(support)] = True
    if not mask.any():
        raise ValueError("support must be nonempty")
    x = _project_rows(v[None, :], mask[None, :], floor, np.arange(1, k + 1), np.arange(1))[0]
    if not (x > 0).any():
        raise SolverConvergenceError("projection lost every coordinate to rounding")
    return x


def _noise_slots(game: Game) -> np.ndarray:
    """`slots[i, k]` is the noise column of player i's strategy k in the
    padded layout; a pad slot k >= s_i reads player i's last column, which the
    step's projection ignores there."""
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


def _oriented_utilities(game: Game, player: int, opponents: list) -> np.ndarray:
    """`player`'s payoffs as an `(s_j, rest)` matrix: row b is the first
    opponent j's strategy b, and the columns run row-major over the further
    `opponents`, then `player` last.  Built from flat profile ids, so no
    array has one axis per player."""
    ids = np.zeros(1, dtype=np.intp)
    for j in opponents + [player]:
        ids = (ids[:, None] + game.strides[j] * np.arange(game.strategy_counts[j])).ravel()
    return game.utilities[player][ids].reshape(game.strategy_counts[opponents[0]], -1)


class _BlockConstants:
    """What every step of a noise block over `runs` runs shares.

    `players[i]` cuts player i's strategies out of the padded batch; each
    of `terms` is a player's opponents in increasing order, their oriented
    payoff matrix (`_oriented_utilities`) and the output view into the
    utility buffer `eu` (with one player, `eu` is the constant payoff row and
    `terms` is empty); `cells[i, r]` is the flat index of the first slot of
    player i's row for run r; `ranks` and `row_ids` index the projection's
    rows.
    """

    def __init__(self, game: Game, runs: int):
        p, counts = game.num_players, game.strategy_counts
        widest = max(counts)
        self.eu = np.empty((p, runs, widest))
        self.players = [np.s_[i, :, :s] for i, s in enumerate(counts)]
        self.terms = []
        for i, key in enumerate(self.players):
            opponents = [j for j in range(p) if j != i]
            if opponents:
                self.terms.append((opponents, _oriented_utilities(game, i, opponents), self.eu[key]))
            else:
                self.eu[key] = game.utilities[i]
        self.ranks = np.arange(1, widest + 1)
        self.row_ids = np.arange(p * runs)
        self.cells = (self.row_ids * widest).reshape(p, runs)


def _best_responses(X, mask: np.ndarray, consts: _BlockConstants) -> np.ndarray:
    """The one expected-utility kernel: each player's expected utilities
    against the others' rows of the padded batch `X`, into `consts.eu`, and
    the `(players, runs)` index of each run's best response among the
    strategies where `mask` holds (ties break to the lowest index).  Per
    player, one matrix product contracts the first opponent's strategy
    axis; each further opponent's axis, which then comes first after the
    run axis, is contracted by one multiply-sum per run (a two-operand
    einsum).  With two players the product alone writes `eu`."""
    views = [X[key] for key in consts.players]
    for (first, *rest), T, out in consts.terms:
        M = np.matmul(views[first], T, out=None if rest else out)
        for j in rest:
            M = np.einsum("rkm,rk->rm", M.reshape(len(M), views[j].shape[1], -1), views[j],
                          out=out if j == rest[-1] else None)
    return np.where(mask, consts.eu, -np.inf).argmax(axis=2)


def _step_batch(game: Game, X, params: ReplicatorParams, noise_row: np.ndarray,
                consts: _BlockConstants):
    """One synchronous noisy-replicator step for a batch of runs.

    `X[i]` is player i's `(runs, widest)` array, zero beyond its strategy
    count.  `noise_row` is the step's noise in the same layout, already
    multiplied by `params.delta`: the caller scales a whole noise block at
    once.  `consts` is what the steps of a noise block share, built once per
    block for the batch's run count.  Per step: each run's best response on
    its support from `_best_responses`, `eta` added there through flat
    indices, the noise added, and the projection with extinction.  Sums
    past float64 become infinite: the caller ignores their overflow, and
    `_check_supports` reports the rows the projection then empties."""
    mask = X > 0
    V = X.copy()
    V.reshape(-1)[consts.cells + _best_responses(X, mask, consts)] += params.eta
    V += noise_row  # the projection reads V on the support only
    widest = X.shape[2]
    rows = _project_rows(V.reshape(-1, widest), mask.reshape(-1, widest),
                         _EXTINCTION_FLOOR, consts.ranks, consts.row_ids)
    return rows.reshape(X.shape)


def best_response_vector(game: Game, x, player: int) -> np.ndarray:
    """Unit vector on `player`'s best response, projected to the support of x.

    Computed by the replicator step's own kernel, `_best_responses`, on a
    one-run padded batch.  The argmax is restricted to the supported
    strategies (ties break to the lowest index), so the vector is never zero.
    """
    check_mixed_profile(game, x)
    X = _pad(game, x, 1)
    out = np.zeros(game.strategy_counts[player])
    out[_best_responses(X, X > 0, _BlockConstants(game, 1))[player, 0]] = 1.0
    return out


def noisy_replicator_step(game: Game, x, params: ReplicatorParams, rng):
    """One step of the dynamics for a single profile.

    Gaussian noise is drawn for every coordinate in player order and ignored
    off-support (equivalent to drawing on the support only), which keeps the
    stream consumption identical to the batched simulation engine.  A step
    that empties a support raises, as in `_check_supports`.
    """
    check_mixed_profile(game, x)
    noise = rng.standard_normal(sum(game.strategy_counts))[_noise_slots(game)][:, None, :]
    with np.errstate(over="ignore"):  # as in `_simulate_batch`
        noise *= params.delta
        X = _step_batch(game, _pad(game, x, 1), params, noise, _BlockConstants(game, 1))
    _check_supports(X)
    return tuple(X[i, 0, :s].copy() for i, s in enumerate(game.strategy_counts))


def _check_supports(X) -> None:
    """Raise `SolverConvergenceError` if some player's row of the padded
    batch `X` has no positive coordinate: float64 rounding cancelled a whole
    projection, which no later step undoes."""
    empty = ~(X > 0).any(axis=2)
    if empty.any():
        raise SolverConvergenceError(
            f"eta/delta: a replicator step left player {int(np.argwhere(empty)[0, 0])} "
            "with no positive coordinate; the step is too large for float64"
        )


def _one_sink_faces(game: Game, X, s: np.ndarray, sink_of: np.ndarray) -> np.ndarray:
    """The face rule: which runs of the padded batch `X` lie in a face (the
    product of their supports) whose every profile has the run's id `s`, its
    nearest profile's sink or -1.  Supports never grow and the nearest
    profile always lies in the face, so such a run's sink can no longer
    change.  One `(runs, profiles)` boolean array holds the profiles of
    another id, cut down player by player to each run's face: player i's
    strategy is the middle axis of the profile ids viewed as
    `(higher players, s_i, lower players)`.  An empty support would make an
    empty face pass, so `_check_supports` comes first.
    """
    _check_supports(X)
    runs = X.shape[1]
    other = sink_of != s[:, None]
    for i, (c, stride) in enumerate(zip(game.strategy_counts, game.strides)):
        face = other.reshape(runs, -1, c, stride)
        face &= (X[i, :, None, :c, None] > 0)
    return ~other.any(axis=1)


def _simulate_batch(game: Game, x0, sink_of: np.ndarray, params: ReplicatorParams,
                    rngs) -> np.ndarray:
    """Run one replicator trajectory per generator.

    `x0[i]` is player i's start: one vector shared by every run, or one row
    per run.  Each noise block steps every live run; at the block's last
    step each run's id is its nearest profile's sink (-1 outside every
    sink), and the face rule (`_one_sink_faces`) settles each run whose face
    holds that id alone.  The runs that settled leave the batch.  Returns
    the sink index per run, -1 when not settled within `params.max_steps` or
    settled in a face without sink profiles.
    """
    runs = len(rngs)
    X = _pad(game, x0, runs)
    slots = _noise_slots(game)
    strides = np.array(game.strides)
    live = np.arange(runs)
    result = np.full(runs, -1)
    done = 0
    while live.size and done < params.max_steps:
        steps = min(_NOISE_BLOCK, params.max_steps - done)
        # Run j's draws fill raw[j] from its own stream, so the block
        # length never changes a run's noise; they are scaled by delta, and
        # one gather moves every draw into its padded slot, in
        # (steps, players, runs, widest) order.
        raw = np.empty((live.size, steps, sum(game.strategy_counts)))
        for j, r in enumerate(live.tolist()):
            rngs[r].standard_normal(out=raw[j])
        # `_simplex_rows` takes infinite draws, and the step's infinite sums
        # of `eta` and a draw; one errstate per block, not per step.
        with np.errstate(over="ignore"):
            raw *= params.delta
            block = raw[:, :, slots].transpose(1, 2, 0, 3)
            del raw
            consts = _BlockConstants(game, live.size)
            for t in range(steps):
                X = _step_batch(game, X, params, block[t], consts)
        del block
        sink = sink_of[strides @ X.argmax(axis=2)]
        hit = _one_sink_faces(game, X, sink, sink_of)
        result[live[hit]] = sink[hit]
        live, X = live[~hit], X[:, ~hit]
        done += steps
    return result


def simulate_to_sink(game: Game, x0, sinks, params: ReplicatorParams, rng):
    """Classify one trajectory started at `x0` by the face rule; returns the
    sink index, or None when the run exhausts `max_steps` unsettled or
    settles in a face without sink profiles."""
    check_mixed_profile(game, x0)
    res = _simulate_batch(game, x0, group_ids(game.num_profiles, sinks), params, [rng])
    return int(res[0]) if res[0] >= 0 else None


def estimate_limit_distribution(game: Game, prior: Prior, params: ReplicatorParams,
                                tv_tol: float = 0.01, *, runs_per_sample: int = 40,
                                max_samples: int = 512, tie_tolerance: float = 0.0) -> LimitDistribution:
    """Empirical limit distribution over the sinks of `game`.

    Draws start profiles from `prior`, runs `runs_per_sample` independent
    noisy-replicator instances per draw, and accumulates the running average
    of the per-run outcomes.  The runs of each block of `_CHECKPOINT_EVERY`
    samples (a module constant, 8) are stepped as one batch, which a run
    leaves at the end of the noise block in which the face rule settles it;
    each block ends at a checkpoint.  Stops when the total-variation
    distance between the running averages at successive checkpoints drops
    below `tv_tol` once some run has classified, or at the `max_samples`
    budget.  A run counts as non-converged when it ends unsettled or the
    face rule settles it where no sink profile is left.  A step so large
    that a support empties raises `SolverConvergenceError`.  The sinks are
    those of the response graph at `tie_tolerance`.
    Deterministic given `params.rng_seed`, and the same as stepping each
    sample's runs on their own.
    """
    if not 0 < tv_tol < math.inf:
        raise ValueError("tv_tol must be finite and positive")
    if min(runs_per_sample, max_samples) < 1:
        raise ValueError("runs_per_sample and max_samples must be at least 1")
    sinks = sink_equilibria(game, tie_tolerance)
    lookup = group_ids(game.num_profiles, sinks)
    k = len(sinks)
    root = int(params.rng_seed)
    counts = np.zeros(k + 1)
    checkpoints = []
    tv_trace = []
    converged = False
    samples = 0
    while samples < max_samples and not converged:
        block = range(samples, min(samples + _CHECKPOINT_EVERY, max_samples))
        # numpy may fail to allocate the block's starts, its noise or its
        # draws: a run count beyond memory, reported as an input error.
        try:
            starts = [
                prior.sample(game, np.random.default_rng(np.random.SeedSequence([root, s_idx])))
                for s_idx in block
            ]
            x0 = [np.repeat([x[i] for x in starts], runs_per_sample, axis=0)
                  for i in range(game.num_players)]
            rngs = [np.random.default_rng(np.random.SeedSequence([root, s_idx, r + 1]))
                    for s_idx in block for r in range(runs_per_sample)]
            res = _simulate_batch(game, x0, lookup, params, rngs)
        except MemoryError as exc:
            raise ValueError(f"runs-per-sample: {exc}") from exc
        counts += np.bincount(np.where(res >= 0, res, k), minlength=k + 1)
        samples += len(block)
        dist = counts / counts.sum()
        if checkpoints:
            tv = total_variation(dist, checkpoints[-1])
            tv_trace.append(tv)
            # With no run classified, every checkpoint is the same all-unclassified point.
            if tv < tv_tol and counts[:k].any():
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
    the prior-weighted average of the limit hitting probability rows.  A share
    above 1 by rounding (`w @ H` adds the weights in another order than
    `w.sum()`) is clipped to 1 within 2e-9, the weights' 1e-9 tolerance plus
    the solver's 1e-9 row tolerance, and raises `ContractViolation` beyond."""
    w = _check_pure_weights(pure_prior)
    if w.shape != (game.num_profiles,):
        raise ValueError(
            f"pure prior needs {game.num_profiles} weights, got {w.shape}"
        )
    hit = limit_hitting_probabilities(game, tie_tolerance)
    shares = w @ hit.probabilities
    excess = float(np.max(shares - 1.0, initial=0.0))
    if not excess <= 2e-9:
        raise ContractViolation(f"limit share exceeds 1 by {excess}")
    return LimitDistribution(
        sink_probabilities=np.minimum(shares, 1.0),
        sinks=hit.sinks,
        samples=0,
        runs_per_sample=0,
        non_converged=0,
        converged=True,
        method="exact",
    )
