"""Normal-form games, their response graphs and sink equilibria, and the profile chain.

Pure strategy profiles are encoded as mixed-radix integers with player 0 as
the least significant digit, so profile ``(a_0, ..., a_{p-1})`` has id
``sum_i a_i * prod_{j<i} s_j``.  The profile chain's type, `EpsilonMC`,
lives here next to `build_cmc`, which builds it; `epsmc` collapses it in
place.  Nothing else here modifies a structure once it is built, so the
others are safe for concurrent reads.

The reduced response graph is a numpy `scc.CsrPattern`, so the sink search
(`sink_equilibria`) never loads scipy.sparse.  Only the profile chain
(`build_cmc`, `EpsilonMC`) does, on its first use: this module imports the
`scipy` package alone, whose submodules load when first reached.
"""

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy

from .errors import ContractViolation, GameFormatError
from .scc import CsrPattern, sink_components

SCHEMA_VERSION = 1
_ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Game:
    """A normal-form game: strategy counts plus one flat utility tensor per
    player, indexed by profile id."""

    strategy_counts: tuple
    utilities: tuple

    def __post_init__(self):
        counts = tuple(int(s) for s in self.strategy_counts)
        if not counts:
            raise GameFormatError("strategies: game needs at least one player")
        if any(s < 1 for s in counts):
            raise GameFormatError(f"strategies: counts must be positive, got {counts}")
        n = math.prod(counts)
        tensors = []
        utils = self.utilities
        if len(utils) != len(counts):
            raise GameFormatError(
                f"utilities: expected {len(counts)} player tensors, got {len(utils)}"
            )
        for i, u in enumerate(utils):
            arr = np.asarray(u, dtype=float)
            if arr.shape != (n,):
                raise GameFormatError(
                    f"utilities[{i}]: expected {n} entries, got {arr.shape}"
                )
            if not np.all(np.isfinite(arr)):
                raise GameFormatError(f"utilities[{i}]: entries must be finite")
            arr = arr.copy()
            arr.setflags(write=False)
            tensors.append(arr)
        # Each profile's total gain, the sum `build_cmc` normalises by at tie
        # tolerance 0; one overflowing payoff difference makes it inf too.
        total_gain = np.zeros(n)
        stride = 1
        with np.errstate(over="ignore"):
            for s, t in zip(counts, tensors):
                vals = t.reshape(-1, s, stride)  # vals[., a, .]: strategy a of this player
                gain = vals[:, None, :, :] - vals[:, :, None, :]  # [., a, b, .]: b minus a
                total_gain += np.maximum(gain, 0.0).sum(axis=2).reshape(n)
                stride *= s
        if not np.all(np.isfinite(total_gain)):
            raise GameFormatError("utilities: payoff differences overflow a float")
        object.__setattr__(self, "strategy_counts", counts)
        object.__setattr__(self, "utilities", tuple(tensors))

    @property
    def num_players(self) -> int:
        return len(self.strategy_counts)

    @property
    def num_profiles(self) -> int:
        return math.prod(self.strategy_counts)

    @property
    def strides(self) -> tuple:
        out = []
        acc = 1
        for s in self.strategy_counts:
            out.append(acc)
            acc *= s
        return tuple(out)

    def utility(self, player: int, profile_id: int) -> float:
        return float(self.utilities[player][profile_id])

    def tensor(self, player: int) -> np.ndarray:
        """Utility tensor reshaped so axis k indexes player ``p - 1 - k``."""
        return self.utilities[player].reshape(self.strategy_counts[::-1])


def encode_profile(strategies, game: Game) -> int:
    """Mixed-radix profile id of a per-player strategy vector."""
    counts = game.strategy_counts
    if len(strategies) != len(counts):
        raise GameFormatError(
            f"profile has {len(strategies)} entries for {len(counts)} players"
        )
    pid = 0
    for i, (a, stride) in enumerate(zip(strategies, game.strides)):
        if not 0 <= a < counts[i]:
            raise GameFormatError(
                f"strategy {a} of player {i} outside range 0..{counts[i] - 1}"
            )
        pid += a * stride
    return pid


def decode_profile(profile_id: int, game: Game) -> tuple:
    """Inverse of `encode_profile`."""
    if not 0 <= profile_id < game.num_profiles:
        raise GameFormatError(
            f"profile id {profile_id} outside range 0..{game.num_profiles - 1}"
        )
    out = []
    rest = profile_id
    for s in game.strategy_counts:
        out.append(rest % s)
        rest //= s
    return tuple(out)


def profile_label(profile_id: int, game: Game) -> str:
    """Human-facing 1-indexed tuple, e.g. profile 0 of a 3x3 game is (1,1)."""
    return "(" + ",".join(str(a + 1) for a in decode_profile(profile_id, game)) + ")"


def profile_labels(game: Game) -> list[str]:
    """`profile_label` of every profile, in id order, in one mixed-radix pass.

    Player 0's strategy varies fastest with the id, so the labels grow from
    the last player's digit forwards, each player's digits innermost.
    """
    tails = [")"]
    for s in reversed(game.strategy_counts):
        digits = [str(a + 1) for a in range(s)]
        tails = [f",{d}{tail}" for tail in tails for d in digits]
    return ["(" + tail[1:] for tail in tails]


@dataclass(frozen=True)
class ResponseGraph:
    """All single-player weakly-improving deviations between pure profiles.

    `regular_edges` is an ``(m, 4)`` float array of rows ``(from, to, player,
    improvement)``; `tie_edges` an ``(k, 3)`` int array of rows ``(from, to,
    player)`` with from < to, stored once per unordered pair.
    """

    regular_edges: np.ndarray
    tie_edges: np.ndarray


def _player_lines(game: Game, player: int) -> np.ndarray:
    """Profile ids of every line along `player`'s strategies, one row per
    line in ascending order of its first id."""
    s, stride = game.strategy_counts[player], game.strides[player]
    ids = np.arange(game.num_profiles).reshape(-1, s, stride)
    return ids.transpose(0, 2, 1).reshape(-1, s)


def _check_tie_tolerance(tie_tolerance: float) -> None:
    if not math.isfinite(tie_tolerance) or tie_tolerance < 0:
        raise GameFormatError(
            f"tie tolerance: expected a finite nonnegative number, got {tie_tolerance!r}"
        )


def build_response_graph(game: Game, tie_tolerance: float = 0.0) -> ResponseGraph:
    """Better-or-equal response graph of `game`.

    A deviation with utility gain above `tie_tolerance` becomes a regular
    edge; a gain within the tolerance in absolute value becomes a tie edge.
    The default tolerance 0 means exact equality, which is the right notion
    for integer-valued utilities.  Edges come in (player, line, from, to)
    order.
    """
    _check_tie_tolerance(tie_tolerance)
    regular, ties = [], []
    for player in range(game.num_players):
        lines = _player_lines(game, player)
        vals = game.utilities[player][lines]
        gain = vals[:, None, :] - vals[:, :, None]  # gain[l, a, b] = vals[l, b] - vals[l, a]
        l, a, b = np.nonzero(gain > tie_tolerance)
        regular.append(np.column_stack([lines[l, a], lines[l, b], np.full(l.size, player),
                                        gain[l, a, b]]))
        upper = ~np.tri(lines.shape[1], dtype=bool)  # a < b: each tie once
        l, a, b = np.nonzero((np.abs(gain) <= tie_tolerance) & upper)
        ties.append(np.column_stack([lines[l, a], lines[l, b], np.full(l.size, player)]))
    return ResponseGraph(np.concatenate(regular), np.concatenate(ties))


def build_reduced_response_graph(game: Game, tie_tolerance: float = 0.0) -> CsrPattern:
    """CSR pattern of a linear-size digraph with the same transitive closure
    as the response graph, every tie taken in both directions: at most two
    out-edges per node per line.  Each line is sorted by the moving player's
    utility, chained in increasing order, and each group of tied profiles
    gets one back edge from its last to its first member to close the tie
    cycle."""
    _check_tie_tolerance(tie_tolerance)
    rows, cols = [], []
    for player in range(game.num_players):
        lines = _player_lines(game, player)
        vals = game.utilities[player][lines]
        order = np.argsort(vals, axis=1, kind="stable")
        members = np.take_along_axis(lines, order, axis=1)
        gaps = np.diff(np.take_along_axis(vals, order, axis=1), axis=1)
        # cut[:, j]: a tie group starts at sorted position j (and one ends at j - 1).
        cut = np.pad(gaps > tie_tolerance, ((0, 0), (1, 1)), constant_values=True)
        pos = np.arange(lines.shape[1])
        first = np.maximum.accumulate(np.where(cut[:, :-1], pos, 0), axis=1)
        l, last = np.nonzero(cut[:, 1:] & (first < pos))
        rows += [members[:, :-1].ravel(), members[l, last]]
        cols += [members[:, 1:].ravel(), members[l, first[l, last]]]
    return CsrPattern.from_edges(game.num_profiles, np.concatenate(rows), np.concatenate(cols))


def sink_equilibria(game: Game, tie_tolerance: float = 0.0) -> list:
    """Sink equilibria of `game`: the sink SCCs of its reduced response graph,
    each sorted, ordered by smallest member profile id."""
    return sink_components(build_reduced_response_graph(game, tie_tolerance))


def _csr(n: int, rows, cols, vals) -> "scipy.sparse.csr_matrix":
    """n x n CSR matrix of triplets; parallel entries are summed in input order."""
    order = np.lexsort((cols, rows))
    return scipy.sparse.csr_matrix((vals[order], (rows[order], cols[order])), shape=(n, n))


class EpsilonMC:
    """Mutable two-class Markov chain over the original node ids.

    `reg` and `eps` are square CSR matrices of regular weights and epsilon
    coefficients.  Self-loops are never stored, and for every non-absorbing
    node with at least one regular out-edge the regular out-weights sum to
    one.  `absorbing` is a boolean mask over the original ids, the format of
    `solver.StochasticMatrix.absorbing`.  `origin[i]` is the live node that
    currently represents original node `i`; the live nodes are the fixed
    points of `origin`, and every other node has an empty row and column and
    is not absorbing.  These two CSR matrices and the two arrays are the
    chain's whole interface.  The type lives here, where `build_cmc` builds
    it; `epsmc` collapses it in place.
    """

    def __init__(self, reg: "scipy.sparse.csr_matrix", eps: "scipy.sparse.csr_matrix",
                 absorbing: np.ndarray, origin=None):
        self.reg = reg
        self.eps = eps
        self.absorbing = absorbing
        self.origin = np.arange(reg.shape[0]) if origin is None else origin

    @classmethod
    def from_edges(cls, num_nodes, regular=(), eps=(), absorbing=()):
        """Build a chain from ``(u, v, weight)`` / ``(u, v, coeff)`` triples
        or ``(m, 3)`` arrays and the ids of its absorbing nodes; parallel
        edges of one class are summed."""
        mats = []
        for kind, edges in (("regular", regular), ("eps", eps)):
            arr = np.asarray(edges, dtype=float).reshape(-1, 3)
            u, v, w = arr[:, 0].astype(np.intp), arr[:, 1].astype(np.intp), arr[:, 2]
            bad = np.flatnonzero((u == v) | ~(np.isfinite(w) & (w > 0)))
            if bad.size:
                i = bad[0]
                raise ContractViolation(
                    f"{kind} edge {u[i]}->{v[i]} of value {float(w[i])}: self-loops and "
                    "values that are not finite and positive cannot be stored"
                )
            mats.append(_csr(num_nodes, u, v, w))
        mask = np.zeros(num_nodes, dtype=bool)
        mask[np.asarray(absorbing, dtype=np.intp)] = True
        chain = cls(*mats, mask)
        chain.validate()
        return chain

    @property
    def num_original(self) -> int:
        return self.reg.shape[0]

    def live_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.origin == np.arange(self.num_original))

    def validate(self) -> None:
        reg_degree = np.diff(self.reg.indptr)
        busy = np.flatnonzero(self.absorbing & (reg_degree + np.diff(self.eps.indptr) > 0))
        if busy.size:
            raise ContractViolation(f"absorbing node {busy[0]} has out-edges")
        sums = np.asarray(self.reg.sum(axis=1)).ravel()
        bad = np.flatnonzero((reg_degree > 0) & (np.abs(sums - 1.0) > _ROW_SUM_TOL))
        if bad.size:
            raise ContractViolation(
                f"regular out-weights of node {bad[0]} sum to {float(sums[bad[0]])!r}, not 1"
            )


def build_cmc(game: Game, tie_tolerance: float = 0.0) -> EpsilonMC:
    """Profile chain of `game`: strict improvements become regular edges
    weighted proportionally to the utility gain (normalized per node), and
    every tie deviation becomes a unit-coefficient epsilon edge in each
    direction.  Nodes whose deviations are all ties keep only epsilon edges;
    the residual probability is an implicit self-loop that is never stored."""
    graph = build_response_graph(game, tie_tolerance)
    n = game.num_profiles
    reg = graph.regular_edges  # u, v, player, gain
    src = reg[:, 0].astype(np.intp)
    weights = reg[:, 3] / np.bincount(src, weights=reg[:, 3], minlength=n)[src]
    ties = graph.tie_edges[:, :2]
    ties = np.concatenate([ties, ties[:, ::-1]])
    return EpsilonMC.from_edges(
        n, np.column_stack([reg[:, :2], weights]), np.column_stack([ties, np.ones(len(ties))])
    )


def random_game(seed, num_players: int, strategy_counts, mode: str = "continuous",
                int_max: int = 2) -> Game:
    """Deterministic random game.

    `continuous` draws utilities i.i.d. uniform on [0, 1), which almost
    surely produces no tie edges; `integer` draws uniform integers in
    {0, ..., int_max}, which produces plenty of them.
    """
    counts = tuple(int(s) for s in strategy_counts)
    if len(counts) != num_players:
        raise GameFormatError(
            f"strategies: got {len(counts)} counts for {num_players} players"
        )
    top = np.iinfo(np.int64).max  # `int_max + 1` is an exclusive int64 bound
    if not 0 <= int_max <= top:
        raise GameFormatError(f"int-max: expected an integer in 0..{top}, got {int_max}")
    rng = np.random.default_rng(seed)
    n = math.prod(counts)
    tensors = []
    for _ in range(num_players):
        if mode == "continuous":
            tensors.append(rng.random(n))
        elif mode == "integer":
            tensors.append(rng.integers(0, int_max + 1, size=n).astype(float))
        else:
            raise GameFormatError(f"mode: unknown utility distribution {mode!r}")
    return Game(counts, tuple(tensors))


# -- JSON round trip --------------------------------------------------------


def game_to_json(game: Game) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "players": game.num_players,
        "strategies": list(game.strategy_counts),
        "utilities": [arr.tolist() for arr in game.utilities],
    }


def game_from_json(obj) -> Game:
    if not isinstance(obj, dict):
        raise GameFormatError("game: top-level JSON value must be an object")
    for key in ("players", "strategies", "utilities"):
        if key not in obj:
            raise GameFormatError(f"{key}: missing required field")
    players = obj["players"]
    strategies = obj["strategies"]
    utilities = obj["utilities"]
    if not isinstance(players, int) or isinstance(players, bool) or players < 1:
        raise GameFormatError(f"players: expected a positive integer, got {players!r}")
    if not isinstance(strategies, list) or len(strategies) != players:
        raise GameFormatError(
            f"strategies: expected a list of {players} counts"
        )
    if not all(isinstance(s, int) and not isinstance(s, bool) and s >= 1 for s in strategies):
        raise GameFormatError("strategies: counts must be positive integers")
    if not isinstance(utilities, list) or len(utilities) != players:
        raise GameFormatError("utilities: expected one tensor per player")
    n = math.prod(strategies)
    tensors = []
    for i, tensor in enumerate(utilities):
        if not isinstance(tensor, list) or len(tensor) != n:
            raise GameFormatError(
                f"utilities[{i}]: expected a flat list of {n} numbers"
            )
        # One check per distinct entry type: subclasses of int and float pass,
        # bool (an int subclass) does not.
        if not all(issubclass(t, (int, float)) and not issubclass(t, bool)
                   for t in set(map(type, tensor))):
            raise GameFormatError(f"utilities[{i}]: entries must be numbers")
        try:
            tensors.append(np.array(tensor, dtype=float))
        except OverflowError as exc:  # an integer beyond the float range
            raise GameFormatError(f"utilities[{i}]: {exc}") from exc
    return Game(tuple(strategies), tuple(tensors))


def load_game(path) -> Game:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise GameFormatError(f"file: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise GameFormatError(f"json: {path} is not valid JSON: {exc}") from exc
    return game_from_json(obj)


def save_game(game: Game, path) -> None:
    with open(path, "w") as fh:
        json.dump(game_to_json(game), fh)
        fh.write("\n")
