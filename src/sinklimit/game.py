"""Normal-form games, better-response graphs, and the profile chain.

Pure strategy profiles are encoded as mixed-radix integers with player 0 as
the least significant digit, so profile ``(a_0, ..., a_{p-1})`` has id
``sum_i a_i * prod_{j<i} s_j``.  All structures here are immutable once
built and safe for concurrent reads.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .epsmc import EpsilonMC
from .errors import GameFormatError
from .scc import sink_components

SCHEMA_VERSION = 1


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


@dataclass(frozen=True)
class ResponseGraph:
    """All single-player weakly-improving deviations between pure profiles.

    Regular edges carry the strict utility improvement; tie edges are stored
    once per unordered pair (they act bidirectionally).
    """

    num_nodes: int
    regular_edges: tuple  # (from, to, player, improvement)
    tie_edges: tuple  # (from, to, player) with from < to

    def adjacency(self) -> list:
        adj = [[] for _ in range(self.num_nodes)]
        for u, v, _, _ in self.regular_edges:
            adj[u].append(v)
        for u, v, _ in self.tie_edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj


@dataclass(frozen=True)
class ReducedGraph:
    """Linear-size digraph with the same transitive closure as the full
    response graph: per player line, a chain through the utility-sorted
    profiles plus one cycle-closing edge per tied group."""

    num_nodes: int
    adjacency: tuple  # tuple of tuples of successors

    @property
    def num_edges(self) -> int:
        return sum(len(a) for a in self.adjacency)


def _player_lines(game: Game, player: int):
    """Yield the profile-id lists of every line along `player`'s strategies."""
    s = game.strategy_counts[player]
    stride = game.strides[player]
    block = stride * s
    for base_block in range(0, game.num_profiles, block):
        for r in range(stride):
            base = base_block + r
            yield [base + t * stride for t in range(s)]


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
    for integer-valued utilities.
    """
    _check_tie_tolerance(tie_tolerance)
    regular = []
    ties = []
    for player in range(game.num_players):
        util = game.utilities[player]
        for line in _player_lines(game, player):
            vals = util[line]
            k = len(line)
            for a in range(k):
                for b in range(k):
                    if a == b:
                        continue
                    gain = float(vals[b] - vals[a])
                    if gain > tie_tolerance:
                        regular.append((line[a], line[b], player, gain))
                    elif a < b and abs(gain) <= tie_tolerance:
                        ties.append((line[a], line[b], player))
    return ResponseGraph(game.num_profiles, tuple(regular), tuple(ties))


def build_reduced_response_graph(game: Game, tie_tolerance: float = 0.0) -> ReducedGraph:
    """Transitive-closure-equivalent graph with at most two out-edges per
    node per line: each line is sorted by the moving player's utility, chained
    in increasing order, and each group of tied profiles gets one back edge
    from its last to its first member to close the tie cycle."""
    _check_tie_tolerance(tie_tolerance)
    adj = [[] for _ in range(game.num_profiles)]
    for player in range(game.num_players):
        util = game.utilities[player]
        for line in _player_lines(game, player):
            k = len(line)
            if k == 1:
                continue
            vals = util[line]
            order = np.argsort(vals, kind="stable")
            members = [line[int(i)] for i in order]
            sorted_vals = [float(vals[int(i)]) for i in order]
            for j in range(k - 1):
                adj[members[j]].append(members[j + 1])
            group_start = 0
            for j in range(k):
                last_of_group = j == k - 1 or sorted_vals[j + 1] - sorted_vals[j] > tie_tolerance
                if last_of_group:
                    if j > group_start:
                        adj[members[j]].append(members[group_start])
                    group_start = j + 1
    return ReducedGraph(game.num_profiles, tuple(tuple(a) for a in adj))


def sink_equilibria(graph) -> list:
    """Sink SCCs of a response graph (full or reduced), each sorted, ordered
    by smallest member profile id.  Tie edges count in both directions."""
    if isinstance(graph, ReducedGraph):
        adj = graph.adjacency
    else:
        adj = graph.adjacency()
    return sink_components(range(graph.num_nodes), lambda v: adj[v])


def build_cmc(game: Game, tie_tolerance: float = 0.0) -> EpsilonMC:
    """Profile chain of `game`: strict improvements become regular edges
    weighted proportionally to the utility gain (normalized per node), and
    every tie deviation becomes a unit-coefficient epsilon edge in each
    direction.  Nodes whose deviations are all ties keep only epsilon edges;
    the residual probability is an implicit self-loop that is never stored."""
    graph = build_response_graph(game, tie_tolerance)
    n = game.num_profiles
    reg = np.array(graph.regular_edges, dtype=float).reshape(-1, 4)  # u, v, player, gain
    src = reg[:, 0].astype(np.intp)
    weights = reg[:, 3] / np.bincount(src, weights=reg[:, 3], minlength=n)[src]
    ties = np.array(graph.tie_edges, dtype=float).reshape(-1, 3)  # u, v, player
    ties[:, 2] = 1.0
    return EpsilonMC.from_edges(
        n, np.column_stack([reg[:, :2], weights]), np.concatenate([ties, ties[:, [1, 0, 2]]])
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
    if not isinstance(players, int) or players < 1:
        raise GameFormatError(f"players: expected a positive integer, got {players!r}")
    if not isinstance(strategies, list) or len(strategies) != players:
        raise GameFormatError(
            f"strategies: expected a list of {players} counts"
        )
    if not all(isinstance(s, int) and s >= 1 for s in strategies):
        raise GameFormatError(f"strategies: counts must be positive integers")
    if not isinstance(utilities, list) or len(utilities) != players:
        raise GameFormatError(f"utilities: expected one tensor per player")
    n = math.prod(strategies)
    for i, tensor in enumerate(utilities):
        if not isinstance(tensor, list) or len(tensor) != n:
            raise GameFormatError(
                f"utilities[{i}]: expected a flat list of {n} numbers"
            )
        if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in tensor):
            raise GameFormatError(f"utilities[{i}]: entries must be numbers")
    return Game(tuple(strategies), tuple(np.array(t, dtype=float) for t in utilities))


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
