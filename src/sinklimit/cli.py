"""Command-line front end.

Commands: sinks, hit, limit, simulate, export-dot, random-game.  All outputs
are JSON except export-dot; every command is deterministic given its seed
and flags.  Exit codes: 0 success, 2 input error, 3 numerical failure, each
with a single-line diagnostic on stderr prefixed INPUT_ERROR or
NUMERIC_ERROR.

Sink-indexed outputs (`sink_labels`, the cells of each `hit` row, the
`distribution` of `limit` and `simulate`) are keyed by the id `sink_<j>`, so
their size does not grow with a sink's membership.  `sinks[j]` lists the
profile ids of `sink_<j>`; the `sinks` command also gives their strategies
in `sink_strategies[j]`.

JSON is indented by 2, except `hit`'s rows: each takes one line, its
profile label and then exactly `json.dumps` of the row, and `_emit_json`
formats and writes them a block of rows at a time.
"""

import argparse
import functools
import json
import sys
from contextlib import contextmanager

import numpy as np

from . import dynamics, epsmc
from .dot import export_dot
from .errors import ContractViolation, GameFormatError, SolverConvergenceError
from .game import (
    SCHEMA_VERSION,
    game_to_json,
    load_game,
    profile_labels,
    random_game,
    sink_equilibria,
)


def _sink_label(index: int) -> str:
    return f"sink_{index}"


@contextmanager
def _output(args):
    """The `-o` file, opened for writing, or stdout."""
    if getattr(args, "output", None):
        try:
            with open(args.output, "w") as fh:
                yield fh
        except OSError as exc:  # opening, writing or closing
            raise GameFormatError(f"output: cannot write {args.output}: {exc}") from exc
    else:
        yield sys.stdout


# Rows of the matrix `_emit_json` formats and writes at a time.
_ROW_BLOCK = 256


def _emit_json(args, payload: dict, rows=None) -> None:
    """Write `payload` as JSON indented by 2, then a newline.

    `rows`, a (row keys, column keys, float matrix) triple, is written after
    the payload's members as "rows": one object per matrix row, mapping
    column keys to its entries.  Each row takes one line, its key indented
    by 4, then exactly `json.dumps` of the row: default separators, ASCII
    escapes and `float.__repr__`, json's text for every finite float.  The
    rows go out `_ROW_BLOCK` at a time with no Python loop per cell.  Each
    column's zero-cell text (", " + key + ": 0.0", without the ", " in the
    first column) is built once.  A block's texts are one numpy object
    array: per row, its key, its cells and "}".  The cells that are not
    +0.0 (`-0.0` included) are set by one fancy-indexed assignment of their
    column's prefix plus their `float.__repr__`, and the block is written as
    one join.  Most cells are zero: `json.dumps` per row, which formats every
    cell, took about 0.4 s against 0.14 s on a 4,096 x 237 matrix with
    133,372 nonzero cells.  The payload and both key lists must be non-empty.
    """
    if rows is not None:
        row_keys, col_keys, matrix = rows
        if not np.all(np.isfinite(matrix)):
            raise ContractViolation("rows: non-finite entry, which JSON cannot hold")
        encode = json.encoder.encode_basestring_ascii
        prefixes = np.array([", " + encode(key) + ": " for key in col_keys], dtype=object)
        prefixes[0] = prefixes[0][2:]
        zero_cells = prefixes + "0.0"
        heads = [",\n    " + encode(key) + ": {" for key in row_keys]
        heads[0] = heads[0][1:]
    with _output(args) as fh:
        if rows is None:
            # Streamed: with `indent`, `json.dumps` holds every chunk until it joins them.
            json.dump(payload, fh, indent=2)
        else:
            fh.write(json.dumps(payload, indent=2)[:-2] + ',\n  "rows": {')
            for start in range(0, len(heads), _ROW_BLOCK):
                part = matrix[start:start + _ROW_BLOCK]
                texts = np.empty((len(part), len(prefixes) + 2), dtype=object)
                texts[:, 0] = heads[start:start + len(part)]
                texts[:, 1:-1] = zero_cells
                texts[:, -1] = "}"
                i, j = np.nonzero((part != 0) | np.signbit(part))
                values = list(map(float.__repr__, part[i, j].tolist()))
                texts[i, j + 1] = prefixes[j] + np.array(values, dtype=object)
                fh.write("".join(texts.ravel().tolist()))
            fh.write("\n  }\n}")
        fh.write("\n")


def _require_seed(args) -> int:
    if args.seed is None:
        raise GameFormatError("seed: required for stochastic commands")
    if args.seed < 0:  # numpy's own message would not name the field
        raise GameFormatError(f"seed: expected a non-negative integer, got {args.seed}")
    return args.seed


def cmd_sinks(args) -> int:
    game = load_game(args.game)
    sinks = sink_equilibria(game, args.tie_tolerance)
    # Every member's 1-indexed strategies in one mixed-radix pass.
    members = np.concatenate(sinks)
    digits = ((members[:, None] // game.strides) % game.strategy_counts + 1).tolist()
    ends = np.cumsum([len(s) for s in sinks]).tolist()
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "sinks",
        "num_profiles": game.num_profiles,
        "sinks": [list(s) for s in sinks],
        "sink_strategies": [digits[end - len(s) : end] for s, end in zip(sinks, ends)],
        "sink_labels": [_sink_label(j) for j in range(len(sinks))],
    }
    _emit_json(args, payload)
    return 0


def cmd_hit(args) -> int:
    game = load_game(args.game)
    if args.oracle_eps is not None:
        hit = epsmc.oracle_hitting_matrix(game, args.oracle_eps, args.tie_tolerance)
        method = "oracle"
    else:
        hit = epsmc.limit_hitting_probabilities(game, args.tie_tolerance)
        method = "limit"
    labels = [_sink_label(j) for j in range(len(hit.sinks))]
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "hit",
        "method": method,
        "sinks": [list(s) for s in hit.sinks],
        "sink_labels": labels,
        "rounds": hit.rounds,
        "order_trace": hit.order_trace,
    }
    _emit_json(args, payload, rows=(profile_labels(game), labels, hit.probabilities))
    return 0


def _load_pure_weights(path, game) -> np.ndarray:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise GameFormatError(f"weights: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise GameFormatError(f"weights: {path} is not valid JSON: {exc}") from exc
    if isinstance(obj, dict):
        obj = obj.get("weights")
    if not isinstance(obj, list):
        raise GameFormatError("weights: expected a JSON array (or {'weights': [...]})")
    if not all(type(x) in (int, float) for x in obj):  # bool is not a JSON number
        raise GameFormatError("weights: entries must be numbers")
    try:
        w = np.asarray(obj, dtype=float)
    except OverflowError as exc:  # an integer beyond the float range
        raise GameFormatError(f"weights: {exc}") from exc
    if w.shape != (game.num_profiles,):
        raise GameFormatError(
            f"weights: expected {game.num_profiles} entries, got {w.shape[0]}"
        )
    return w


def _run_limit(args, force_simulation: bool) -> int:
    game = load_game(args.game)
    spec = args.prior
    if spec.startswith("pure:"):
        weights = _load_pure_weights(spec.split(":", 1)[1], game)
        if not force_simulation:
            dist = dynamics.exact_limit_distribution(game, weights, args.tie_tolerance)
            return _emit_limit(args, dist, seed=None)
        prior = dynamics.Prior.pure(weights)
    else:
        try:
            prior = dynamics.Prior.parse(spec)
        except ValueError as exc:
            raise GameFormatError(f"prior: {exc}") from exc
    if args.runs_per_sample > np.iinfo(np.intp).max:  # numpy could not repeat the starts
        raise GameFormatError(
            f"runs-per-sample: {args.runs_per_sample} is above {np.iinfo(np.intp).max}"
        )
    seed = _require_seed(args)
    params = dynamics.ReplicatorParams(
        eta=args.eta, delta=args.delta, max_steps=args.max_steps, rng_seed=seed,
    )
    dist = dynamics.estimate_limit_distribution(
        game,
        prior,
        params,
        tv_tol=args.tv_tol,
        runs_per_sample=args.runs_per_sample,
        max_samples=args.max_samples,
        tie_tolerance=args.tie_tolerance,
    )
    return _emit_limit(args, dist, seed=seed)


def _emit_limit(args, dist: dynamics.LimitDistribution, seed) -> int:
    labels = [_sink_label(j) for j in range(len(dist.sinks))]
    payload = {
        "schema": SCHEMA_VERSION,
        "command": args.command,
        "method": dist.method,
        "seed": seed,
        "sinks": [list(s) for s in dist.sinks],
        "sink_labels": labels,
        "distribution": {
            labels[j]: float(p) for j, p in enumerate(dist.sink_probabilities)
        },
        "non_converged": dist.non_converged_fraction,
        "samples": dist.samples,
        "runs_per_sample": dist.runs_per_sample,
        "converged": dist.converged,
        "tv_trace": [float(v) for v in dist.tv_trace],
        "tv_to_final": [float(v) for v in dist.tv_to_final],
    }
    _emit_json(args, payload)
    return 0


def cmd_export_dot(args) -> int:
    text = export_dot(load_game(args.game), args.tie_tolerance)
    with _output(args) as fh:
        fh.write(text)
    return 0


def cmd_random_game(args) -> int:
    seed = _require_seed(args)
    try:
        counts = [int(s) for s in args.strategies.split(",")]
    except ValueError as exc:
        raise GameFormatError("strategies: expected comma-separated integers") from exc
    try:
        game = random_game(seed, args.players, counts, mode=args.mode, int_max=args.int_max)
        obj = game_to_json(game)
    except MemoryError as exc:
        raise GameFormatError(f"strategies: the game cannot be allocated ({exc})") from exc
    _emit_json(args, obj)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sinklimit",
        description="Map a normal-form game and a prior over strategy profiles "
        "to its limit distribution over sink equilibria.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, game_arg=True, seed=False):
        if game_arg:
            p.add_argument("game", help="game JSON file")
            p.add_argument("--tie-tolerance", type=float, default=0.0,
                           help="utility gap treated as a tie (default 0: exact equality)")
        p.add_argument("-o", "--output", help="output file (default stdout)")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="root seed; required for stochastic commands")

    p = sub.add_parser("sinks", help="list the sink equilibria")
    common(p)
    p.set_defaults(func=cmd_sinks)

    p = sub.add_parser("hit", help="limit hitting probabilities of every profile")
    common(p)
    p.add_argument("--oracle-eps", type=float, default=None,
                   help="debug: solve at a concrete epsilon instead of the limit")
    p.set_defaults(func=cmd_hit)

    for name in ("limit", "simulate"):
        p = sub.add_parser(
            name,
            help="limit distribution for a prior (exact for pure priors"
            + (", simulation forced)" if name == "simulate" else ", else simulated)"),
        )
        common(p, seed=True)
        p.add_argument("prior", help="'uniform', 'dirichlet:<alpha>', or 'pure:<weights file>'")
        p.add_argument("--eta", type=float, default=0.01, help="step length")
        p.add_argument("--delta", type=float, default=0.005, help="noise std")
        p.add_argument("--tv-tol", type=float, default=0.01,
                       help="TV convergence tolerance (default 0.01)")
        p.add_argument("--max-steps", type=int, default=100_000,
                       help="steps per run before giving up")
        p.add_argument("--runs-per-sample", type=int, default=40,
                       help="independent runs per prior sample (default 40)")
        p.add_argument("--max-samples", type=int, default=512,
                       help="prior sample budget")
        p.set_defaults(func=functools.partial(_run_limit, force_simulation=name == "simulate"))

    p = sub.add_parser("export-dot", help="render the better-response graph as DOT")
    common(p)
    p.set_defaults(func=cmd_export_dot)

    p = sub.add_parser("random-game", help="generate a reproducible random game")
    common(p, game_arg=False, seed=True)
    p.add_argument("--players", "-p", type=int, required=True)
    p.add_argument("--strategies", "-s", required=True,
                   help="comma-separated per-player strategy counts, e.g. 3,3")
    p.add_argument("--mode", choices=("continuous", "integer"), default="continuous")
    p.add_argument("--int-max", type=int, default=2,
                   help="integer mode draws utilities uniform on 0..int-max")
    p.set_defaults(func=cmd_random_game)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SolverConvergenceError as exc:
        print(f"NUMERIC_ERROR: {exc}", file=sys.stderr)
        return 3
    # OverflowError: an integer too large for the C type numpy converts it to.
    except (GameFormatError, ValueError, OverflowError) as exc:
        print(f"INPUT_ERROR: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
