"""Command-line front end.

Commands: sinks, hit, limit, simulate, export-dot, random-game.  All outputs
are JSON except export-dot; every command is deterministic given its seed
and flags.  Exit codes: 0 success, 2 input error, 3 numerical failure, each
with a single-line diagnostic on stderr prefixed INPUT_ERROR or
NUMERIC_ERROR.
"""

import argparse
import json
import sys

import numpy as np

from . import dynamics, epsmc
from .dot import export_dot
from .errors import GameFormatError, SolverConvergenceError
from .game import (
    SCHEMA_VERSION,
    build_reduced_response_graph,
    decode_profile,
    game_to_json,
    load_game,
    profile_label,
    random_game,
    save_game,
    sink_equilibria,
)


def _sink_label(index: int, sink, game) -> str:
    members = ",".join(profile_label(pid, game) for pid in sink)
    return f"sink_{index} {{{members}}}"


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload: dict) -> None:
    _emit(args, json.dumps(payload, indent=2) + "\n")


def _require_seed(args) -> int:
    if args.seed is None:
        raise GameFormatError("seed: required for stochastic commands")
    return args.seed


def _replicator_params(args, seed: int) -> dynamics.ReplicatorParams:
    return dynamics.ReplicatorParams(
        eta=args.eta,
        delta=args.delta,
        extinction_floor=args.extinction_floor,
        max_steps=args.max_steps,
        window=args.window,
        rng_seed=seed,
    )


def cmd_sinks(args) -> int:
    game = load_game(args.game)
    reduced = build_reduced_response_graph(game, args.tie_tolerance)
    sinks = sink_equilibria(reduced)
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "sinks",
        "num_profiles": game.num_profiles,
        "sinks": [list(s) for s in sinks],
        "sink_strategies": [
            [[a + 1 for a in decode_profile(pid, game)] for pid in s] for s in sinks
        ],
        "sink_labels": [_sink_label(j, s, game) for j, s in enumerate(sinks)],
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
    labels = [_sink_label(j, s, game) for j, s in enumerate(hit.sinks)]
    rows = {
        profile_label(pid, game): dict(zip(labels, row))
        for pid, row in enumerate(hit.probabilities.tolist())
    }
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "hit",
        "method": method,
        "sinks": [list(s) for s in hit.sinks],
        "sink_labels": labels,
        "rounds": hit.rounds,
        "order_trace": hit.order_trace,
        "rows": rows,
    }
    _emit_json(args, payload)
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
    w = np.asarray(obj, dtype=float)
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
            return _emit_limit(args, game, dist, seed=None)
        prior = dynamics.Prior.pure(weights, args.vertex_smoothing)
    else:
        try:
            prior = dynamics.Prior.parse(spec)
        except ValueError as exc:
            raise GameFormatError(f"prior: {exc}") from exc
    seed = _require_seed(args)
    params = _replicator_params(args, seed)
    dist = dynamics.estimate_limit_distribution(
        game,
        prior,
        params,
        tv_tol=args.tv_tol,
        runs_per_sample=args.runs_per_sample,
        max_samples=args.max_samples,
        tie_tolerance=args.tie_tolerance,
    )
    return _emit_limit(args, game, dist, seed=seed)


def _emit_limit(args, game, dist: dynamics.LimitDistribution, seed) -> int:
    labels = [_sink_label(j, s, game) for j, s in enumerate(dist.sinks)]
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "limit",
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


def cmd_limit(args) -> int:
    return _run_limit(args, force_simulation=False)


def cmd_simulate(args) -> int:
    return _run_limit(args, force_simulation=True)


def cmd_export_dot(args) -> int:
    game = load_game(args.game)
    hitting = None
    if args.hit:
        hitting = _load_hitting(args.hit, game)
    text = export_dot(game, hitting, args.tie_tolerance)
    _emit(args, text)
    return 0


def _load_hitting(path, game) -> epsmc.HittingMatrix:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise GameFormatError(f"hit: cannot read hitting matrix {path}: {exc}") from exc
    try:
        sinks = [list(map(int, s)) for s in obj["sinks"]]
        labels = obj["sink_labels"]
        rows = obj["rows"]
        probs = np.zeros((game.num_profiles, len(sinks)))
        for pid in range(game.num_profiles):
            row = rows[profile_label(pid, game)]
            probs[pid] = [row[lab] for lab in labels]
    except (KeyError, TypeError) as exc:
        raise GameFormatError(f"hit: malformed hitting matrix file ({exc})") from exc
    return epsmc.HittingMatrix(probs, sinks)


def cmd_random_game(args) -> int:
    seed = _require_seed(args)
    try:
        counts = [int(s) for s in args.strategies.split(",")]
    except ValueError as exc:
        raise GameFormatError(f"strategies: expected comma-separated integers") from exc
    game = random_game(seed, args.players, counts, mode=args.mode, int_max=args.int_max)
    if args.output:
        save_game(game, args.output)
    else:
        _emit_json(args, game_to_json(game))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sinklimit",
        description="Map a normal-form game and a prior over strategy profiles "
        "to its limit distribution over sink equilibria.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, game_arg=True):
        if game_arg:
            p.add_argument("game", help="game JSON file")
        p.add_argument("-o", "--output", help="output file (default stdout)")
        p.add_argument("--tie-tolerance", type=float, default=0.0,
                       help="utility gap treated as a tie (default 0: exact equality)")
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

    for name, func in (("limit", cmd_limit), ("simulate", cmd_simulate)):
        p = sub.add_parser(
            name,
            help="limit distribution for a prior (exact for pure priors"
            + (", simulation forced)" if name == "simulate" else ", else simulated)"),
        )
        common(p)
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
        p.add_argument("--window", type=int, default=50,
                       help="consecutive in-sink steps needed to classify")
        p.add_argument("--extinction-floor", type=float, default=1e-9,
                       help="probabilities below this go extinct")
        p.add_argument("--vertex-smoothing", type=float, default=0.1,
                       help="tail mass when simulating from a pure-profile prior")
        p.set_defaults(func=func)

    p = sub.add_parser("export-dot", help="render the better-response graph as DOT")
    common(p)
    p.add_argument("--hit", help="reuse a hitting matrix JSON produced by `hit`")
    p.set_defaults(func=cmd_export_dot)

    p = sub.add_parser("random-game", help="generate a reproducible random game")
    common(p, game_arg=False)
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
    except (GameFormatError, ValueError) as exc:
        print(f"INPUT_ERROR: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
