"""Markov chains with vanishing transitions and their limit hitting probabilities.

The chain has two edge classes: regular edges carry ordinary positive
probabilities, epsilon edges carry a positive coefficient on a symbolic
vanishing weight.  Hitting probabilities of the absorbing nodes are computed
in the limit where the vanishing weight goes to zero, by repeatedly
collapsing pseudosinks (components that can only leave through epsilon
edges) until every node has a regular path to absorption, at which point the
epsilon edges can be deleted and an ordinary absorbing-chain solve finishes
the job.

The chain type, `EpsilonMC`, with its boolean mask of absorbing nodes,
lives in `game` next to `build_cmc`, which builds it.  This module holds
the algorithm, and `game` does not import it.  One step, `_collapse`,
collapses both the sinks and each round's pseudosinks, the latter with
their exit rows.
"""

from collections import deque
from dataclasses import dataclass, field

import numpy as np
import scipy

from . import solver
from .errors import ContractViolation
from .game import EpsilonMC, _csr, build_cmc, sink_equilibria
from .scc import group_ids, leaving, sink_components


def _collapse(chain: EpsilonMC, groups, pis=None) -> None:
    """Replace each group of members with a single node (its smallest id), in place.

    With `pis=None` the groups are sinks: no edge of either class may leave
    one, and each representative becomes absorbing.  Otherwise they are
    pseudosinks: no regular edge may leave one, each must have an epsilon
    exit, and `pis[g]` is the stationary distribution of group g's internal
    regular chain, aligned with its sorted members.  A pseudosink's new
    regular out-row gives each external target y the weight

        W(y) = sum of coeff(x -> y) * pi[x]  /  total over all exits,

    which sums to one over its targets.  Then one relabelling of both edge
    classes: the members' rows are dropped, every column is mapped through
    the new labels and parallel edges are summed, so edges among the members
    of a group vanish, and no member stays absorbing.  Exit rows hold only
    edges that leave their group, so no collapsed node points into itself.
    """
    n, k = chain.num_original, len(groups)
    group_of = group_ids(n, groups)
    is_member = group_of >= 0
    nodes = np.flatnonzero(is_member)
    members = nodes[np.argsort(group_of[nodes], kind="stable")]  # group by group, sorted
    member_group = group_of[members]
    reps = members[np.searchsorted(member_group, np.arange(k))]  # smallest members
    label = np.where(is_member, reps[group_of], np.arange(n))
    if pis is not None:
        if any(np.shape(pi) != (len(g),) for g, pi in zip(groups, pis)):
            raise ContractViolation("stationary vector does not match the component")
        pi = np.concatenate(pis, dtype=float)
        pi_total = np.bincount(member_group, weights=pi, minlength=k)
        if not np.all(np.abs(pi_total - 1.0) <= 1e-9) or np.any(pi < 0):
            raise ContractViolation("stationary vector is not a normalized distribution")
    reg = chain.reg[members].tocoo()
    escapes = np.flatnonzero(group_of[reg.col] != member_group[reg.row])
    if escapes.size:
        u, v = members[reg.row[escapes[0]]], reg.col[escapes[0]]
        raise ContractViolation(
            f"a regular edge leaves supposed sink {groups[group_of[u]]}" if pis is None
            else f"component has regular out-edge {u}->{v}; not a pseudosink"
        )
    eps = chain.eps[members].tocoo()
    src = member_group[eps.row]
    out = group_of[eps.col] != src
    exit_rows = ()
    if pis is None:
        if out.any():
            raise ContractViolation(f"a eps edge leaves supposed sink {groups[src[out][0]]}")
    else:
        if not np.all(np.bincount(src[out], minlength=k)):
            raise ContractViolation("component has no outgoing eps edge; not a pseudosink")
        # Row-major order: the masses add up member by member, as in the
        # formula, and each group's total adds its masses up target by target.
        keys, slot = np.unique(src[out] * n + eps.col[out], return_inverse=True)
        mass = np.bincount(slot, weights=eps.data[out] * pi[eps.row[out]])
        group = keys // n
        exit_rows = ((reps[group], keys % n, mass / np.bincount(group, weights=mass)[group]),)

    def relabel(matrix, extra=()):
        coo = matrix.tocoo()
        keep = ~is_member[coo.row]
        parts = [(coo.row[keep], coo.col[keep], coo.data[keep]), *extra]
        rows, cols, vals = (np.concatenate(p) for p in zip(*parts))
        return _csr(n, rows, label[cols], vals)

    chain.reg = relabel(chain.reg, exit_rows)
    chain.eps = relabel(chain.eps)
    chain.absorbing = chain.absorbing & ~is_member
    if pis is None:
        chain.absorbing[reps] = True
    chain.origin = label[chain.origin]


@dataclass
class HittingMatrix:
    """Limit probabilities of reaching each sink from each original node.

    `probabilities[i, j]` is the limit probability that the chain started at
    original node `i` is absorbed by sink `j`; sinks are indexed in the order
    of the `sinks` list (ascending smallest member).  The remaining fields
    are diagnostics of the collapse rounds and, in `residual` and
    `bound_excess`, of the final solve (see `solver.AbsorptionResult`).
    """

    probabilities: np.ndarray
    sinks: list[list[int]]
    order_trace: list[int] = field(default_factory=list)
    pseudosink_counts: list[int] = field(default_factory=list)
    residual: float = 0.0
    bound_excess: float = 0.0

    @property
    def rounds(self) -> int:
        """Number of collapse rounds, one per entry of `pseudosink_counts`."""
        return len(self.pseudosink_counts)


def from_cmc(cmc: EpsilonMC, sinks: list[list[int]]) -> EpsilonMC:
    """Collapse each sink component of `cmc` into a single absorbing node.

    `sinks` must be exactly the sink SCCs of the chain (no edge of either
    class may leave a sink); violating that indicates a caller bug and
    raises.  Each sink's smallest member becomes absorbing.  The input chain
    is not modified: `_collapse` writes new matrices and arrays.
    """
    chain = EpsilonMC(cmc.reg, cmc.eps, cmc.absorbing, cmc.origin)
    _collapse(chain, sinks)
    return chain


def rsccs(chain: EpsilonMC) -> list[list[int]]:
    """Pseudosinks of `chain`: the components under regular edges that no
    regular edge leaves and some epsilon edge does, each sorted, ordered by
    smallest member.  Dead and absorbing nodes have no out-edges, so they
    are singleton sink components that no epsilon edge leaves."""
    comps = sink_components(chain.reg)
    return [c for c, eps_out in zip(comps, leaving(comps, chain.eps)) if eps_out]


def node_orders(chain: EpsilonMC) -> np.ndarray:
    """Exact orders via 0-1 BFS over the reversed graph from the absorbing nodes.

    The order of a node is the minimum number of epsilon edges on any path
    from it to an absorbing node, per original id; -1 for a node that
    reaches none (every dead node).  Regular edges cost 0, epsilon edges
    cost 1.  Every live node must reach
    an absorbing node (guaranteed after sink collapse), otherwise the chain
    is malformed and this raises.
    """
    sources = np.flatnonzero(chain.absorbing).tolist()
    if not sources:
        raise ContractViolation("chain has no absorbing nodes")
    # In-lists as (indptr, indices) Python lists of the transposed matrices.
    (reg_ptr, reg_in), (eps_ptr, eps_in) = (
        (m.indptr.tolist(), m.indices.tolist()) for m in (chain.reg.T.tocsr(), chain.eps.T.tocsr())
    )
    dist = [-1] * chain.num_original
    for a in sources:
        dist[a] = 0
    dq = deque((a, 0) for a in sources)
    while dq:
        v, d = dq.popleft()
        if d > dist[v]:
            continue
        for src in reg_in[reg_ptr[v] : reg_ptr[v + 1]]:
            if not 0 <= dist[src] <= d:  # unreached, or reached at a higher order
                dist[src] = d
                dq.appendleft((src, d))
        for src in eps_in[eps_ptr[v] : eps_ptr[v + 1]]:
            if not 0 <= dist[src] <= d + 1:
                dist[src] = d + 1
                dq.append((src, d + 1))
    order = np.array(dist)
    live = chain.live_nodes()
    stranded = live[order[live] < 0]
    if stranded.size:
        raise ContractViolation(
            f"nodes {stranded[:5].tolist()} cannot reach any absorbing node"
        )
    return order


def collapse_pseudosink(chain: EpsilonMC, groups: list[list[int]]) -> EpsilonMC:
    """Collapse each pseudosink of `groups` into one node, in place.

    One collapse round: each group's exit row (see `_collapse`) is weighted
    by the stationary distribution of its internal regular-edge chain, all
    read from the chain as the round found it.  One pseudosink is collapsed
    as ``collapse_pseudosink(chain, [members])``.
    """
    pis = [solver.stationary_distribution(chain.reg[m][:, m]) if len(m) > 1 else np.ones(1)
           for m in groups]
    _collapse(chain, groups, pis)
    return chain


def delete_epsilon_edges(chain: EpsilonMC, orders: np.ndarray) -> EpsilonMC:
    """Remove every epsilon edge, in place.

    `orders` must be `node_orders(chain)` of the chain as it stands; this
    does not recompute them.  Only valid when their maximum order is zero,
    i.e. every node already has a regular path to absorption; then the
    removal provably leaves the limit hitting probabilities unchanged and no
    reweighting is needed.
    """
    if orders.max() > 0:
        raise ContractViolation(f"cannot delete eps edges at max order {orders.max()} > 0")
    chain.eps = scipy.sparse.csr_matrix(chain.eps.shape)
    return chain


def _hitting_rows(chain: EpsilonMC, nodes: np.ndarray, result) -> np.ndarray:
    """Hitting rows of every original node from a solve over live `nodes`,
    after the collapse rounds or at the oracle's epsilon: one gather from
    ``result.rows``, which is ``[H; I]``, of each node's live node's row, a
    hitting row where that is transient and a unit row where it is absorbing."""
    row = np.zeros(chain.num_original, dtype=np.intp)  # each live node's row of ``[H; I]``
    row[nodes[np.concatenate([result.transient, result.absorbing])]] = np.arange(len(nodes))
    return result.rows[row[chain.origin]]


def limit_hitting_from_cmc(cmc: EpsilonMC, sinks: list[list[int]]) -> HittingMatrix:
    """Limit hitting probabilities from every original node of the profile
    chain `cmc` into its sink components `sinks`; `cmc` is not modified.

    Pipeline: collapse the sinks (`from_cmc`), then collapse every
    pseudosink of a round with one `collapse_pseudosink` call and
    re-partition, until every node has a regular path to absorption;
    finally drop the vanishing edges and solve the ordinary absorbing chain.
    Each collapse round provably reduces the maximum order by at least one,
    so the loop runs at most max-order rounds; both guarantees are asserted
    and violations raise rather than loop.  Orders are computed once per
    round, and `delete_epsilon_edges` checks the ones the loop ended on.
    """
    chain = from_cmc(cmc, sinks)
    orders = node_orders(chain)
    trace = [int(orders.max())]
    pseudo_counts: list[int] = []
    while trace[-1] > 0:
        pseudos = rsccs(chain)
        if not pseudos:
            raise ContractViolation(f"max order is {trace[-1]} but no pseudosink exists")
        pseudo_counts.append(len(pseudos))
        collapse_pseudosink(chain, pseudos)
        orders = node_orders(chain)
        if orders.max() >= trace[-1]:
            raise ContractViolation(
                f"collapse round failed to reduce the max order ({trace[-1]} -> {orders.max()})"
            )
        trace.append(int(orders.max()))
    delete_epsilon_edges(chain, orders)
    nodes = chain.live_nodes()
    result = solver.absorption_probabilities(solver.chain_matrix(chain, nodes))
    return HittingMatrix(
        _hitting_rows(chain, nodes, result), sinks, trace, pseudo_counts,
        result.residual, result.bound_excess,
    )


def limit_hitting_probabilities(game, tie_tolerance: float = 0.0) -> HittingMatrix:
    """Limit hitting probabilities from every pure profile of `game`: the
    collapse driver on its profile chain and sink equilibria."""
    return limit_hitting_from_cmc(build_cmc(game, tie_tolerance),
                                  sink_equilibria(game, tie_tolerance))


def oracle_hitting_matrix(game, eps: float, tie_tolerance: float = 0.0) -> HittingMatrix:
    """Hitting probabilities with the vanishing weight frozen at `eps`.

    Numerical cross-check for `limit_hitting_probabilities`: instantiates the
    chain at a concrete small `eps` and solves it directly, with no collapse
    machinery involved.
    """
    sinks = sink_equilibria(game, tie_tolerance)
    chain = from_cmc(build_cmc(game, tie_tolerance), sinks)
    result = solver.oracle_hitting_at_epsilon(chain, eps)
    return HittingMatrix(
        _hitting_rows(chain, chain.live_nodes(), result), sinks,
        residual=result.residual, bound_excess=result.bound_excess,
    )
