"""Graphviz DOT rendering of a game's better-response structure.

Sink members are filled with one fixed color per sink; every other node is
drawn as a pie (graphviz `wedged` style) split by its limit hitting
probabilities.  Regular edges carry their chain weight to two decimals and
tie edges, the epsilon edges of the profile chain, appear as a bidirectional
pair labeled "0.00".
"""

from .epsmc import HittingMatrix, limit_hitting_probabilities
from .game import Game, build_cmc, profile_label

# Fixed 12-color palette, cycled by sink index so re-runs color identically.
PALETTE = (
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00", "#a65628",
    "#f781bf", "#999999", "#66c2a5", "#fc8d62", "#8da0cb", "#e78ac3",
)


def sink_color(index: int) -> str:
    return PALETTE[index % len(PALETTE)]


def export_dot(game: Game, hitting: HittingMatrix | None = None,
               tie_tolerance: float = 0.0) -> str:
    """DOT text for `game`; computes the hitting matrix when not supplied."""
    if hitting is None:
        hitting = limit_hitting_probabilities(game, tie_tolerance)
    n = game.num_profiles
    if hitting.probabilities.shape != (n, len(hitting.sinks)):
        raise ValueError(
            f"hitting matrix shape {hitting.probabilities.shape} does not match "
            f"{n} profiles x {len(hitting.sinks)} sinks"
        )
    sink_of = {}
    for j, sink in enumerate(hitting.sinks):
        for pid in sink:
            sink_of[pid] = j

    chain = build_cmc(game, tie_tolerance)
    names = [profile_label(pid, game) for pid in range(n)]

    lines = ["digraph game {", "  node [shape=ellipse];"]
    for pid, name in enumerate(names):
        if pid in sink_of:
            lines.append(
                f'  "{name}" [style=filled, fillcolor="{sink_color(sink_of[pid])}"];'
            )
            continue
        row = hitting.probabilities[pid]
        wedges = [(j, frac) for j, frac in enumerate(row) if frac > 0]
        if len(wedges) == 1:
            lines.append(
                f'  "{name}" [style=filled, fillcolor="{sink_color(wedges[0][0])}"];'
            )
        else:
            spec = ":".join(f"{sink_color(j)};{frac:.6f}" for j, frac in wedges)
            lines.append(f'  "{name}" [style=wedged, fillcolor="{spec}"];')
    reg = chain.reg.tocoo()
    for u, v, w in zip(reg.row.tolist(), reg.col.tolist(), reg.data.tolist()):
        lines.append(f'  "{names[u]}" -> "{names[v]}" [label="{w:.2f}"];')
    tie = chain.eps.tocoo()
    for u, v in zip(tie.row.tolist(), tie.col.tolist()):
        if u < v:
            lines.append(f'  "{names[u]}" -> "{names[v]}" [label="0.00"];')
            lines.append(f'  "{names[v]}" -> "{names[u]}" [label="0.00"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
