"""Markov chains with vanishing transitions and their limit hitting probabilities.

The chain has two edge classes: regular edges carry ordinary positive
probabilities, epsilon edges carry a positive coefficient on a symbolic
vanishing weight.  Hitting probabilities of the absorbing nodes are computed
in the limit where the vanishing weight goes to zero, by repeatedly
collapsing pseudosinks (components that can only leave through epsilon
edges) until every node has a regular path to absorption, at which point the
epsilon edges can be deleted and an ordinary absorbing-chain solve finishes
the job.
"""

from collections import deque
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import solver
from .errors import ContractViolation
from .scc import strongly_connected_components
from .unionfind import UnionFind

_ROW_SUM_TOL = 1e-12


class EpsilonMC:
    """Mutable two-class Markov chain over integer node ids.

    Parallel edges of the same class are merged on insertion, self-loops are
    never stored, and for every non-absorbing node with at least one regular
    out-edge the regular out-weights sum to one.  A union-find structure maps
    the original node ids to whatever collapsed node currently represents
    them.
    """

    def __init__(self, num_nodes: int):
        self.num_original = num_nodes
        self._reg: dict[int, dict[int, float]] = {v: {} for v in range(num_nodes)}
        self._eps: dict[int, dict[int, float]] = {v: {} for v in range(num_nodes)}
        self._reg_in: dict[int, set[int]] = {v: set() for v in range(num_nodes)}
        self._eps_in: dict[int, set[int]] = {v: set() for v in range(num_nodes)}
        self.absorbing: set[int] = set()
        self.origin = UnionFind(num_nodes)

    @classmethod
    def from_edges(cls, num_nodes, regular=(), eps=(), absorbing=(), validate=True):
        """Build a chain from edge lists ``(u, v, weight)`` / ``(u, v, coeff)``."""
        chain = cls(num_nodes)
        for u, v, w in regular:
            chain.add_regular(u, v, w)
        for u, v, c in eps:
            chain.add_eps(u, v, c)
        chain.absorbing = set(absorbing)
        if validate:
            chain.validate()
        return chain

    # -- construction ------------------------------------------------------

    def add_regular(self, u: int, v: int, weight: float) -> None:
        if u == v:
            raise ContractViolation(f"self-loop {u}->{v} cannot be stored")
        if weight <= 0.0:
            raise ContractViolation(f"regular edge {u}->{v} has weight {weight} <= 0")
        self._reg[u][v] = self._reg[u].get(v, 0.0) + weight
        self._reg_in[v].add(u)

    def add_eps(self, u: int, v: int, coeff: float) -> None:
        if u == v:
            raise ContractViolation(f"self-loop {u}->{v} cannot be stored")
        if coeff <= 0.0:
            raise ContractViolation(f"eps edge {u}->{v} has coefficient {coeff} <= 0")
        self._eps[u][v] = self._eps[u].get(v, 0.0) + coeff
        self._eps_in[v].add(u)

    # -- queries -----------------------------------------------------------

    def live_nodes(self) -> list[int]:
        return sorted(self._reg)

    @property
    def num_live(self) -> int:
        return len(self._reg)

    def regular_out(self, v: int) -> dict[int, float]:
        return self._reg[v]

    def eps_out(self, v: int) -> dict[int, float]:
        return self._eps[v]

    def num_regular_edges(self) -> int:
        return sum(len(d) for d in self._reg.values())

    def num_eps_edges(self) -> int:
        return sum(len(d) for d in self._eps.values())

    def current(self, original_id: int) -> int:
        """Live node currently representing an original node id."""
        return self.origin.find(original_id)

    def copy(self) -> "EpsilonMC":
        dup = EpsilonMC(0)
        dup.num_original = self.num_original
        dup._reg = {v: dict(d) for v, d in self._reg.items()}
        dup._eps = {v: dict(d) for v, d in self._eps.items()}
        dup._reg_in = {v: set(s) for v, s in self._reg_in.items()}
        dup._eps_in = {v: set(s) for v, s in self._eps_in.items()}
        dup.absorbing = set(self.absorbing)
        dup.origin = self.origin.copy()
        return dup

    def validate(self) -> None:
        for v in self._reg:
            if v in self.absorbing:
                if self._reg[v] or self._eps[v]:
                    raise ContractViolation(f"absorbing node {v} has out-edges")
                continue
            if self._reg[v]:
                total = sum(self._reg[v].values())
                if abs(total - 1.0) > _ROW_SUM_TOL:
                    raise ContractViolation(
                        f"regular out-weights of node {v} sum to {total!r}, not 1"
                    )

    # -- mutation ----------------------------------------------------------

    def _collapse(self, members, *, make_absorbing=False, new_regular=None) -> int:
        """Replace `members` with a single node (their smallest id).

        Incoming edges are redirected and merged per class; edges among the
        members vanish.  Outgoing edges of the members are dropped, so the
        caller must supply the collapsed node's regular out-row via
        `new_regular` unless the node becomes absorbing.
        """
        members_set = frozenset(members)
        rep = min(members_set)
        incoming_reg: dict[int, float] = {}
        incoming_eps: dict[int, float] = {}
        for m in members_set:
            for src in self._reg_in[m]:
                if src not in members_set:
                    incoming_reg[src] = incoming_reg.get(src, 0.0) + self._reg[src][m]
            for src in self._eps_in[m]:
                if src not in members_set:
                    incoming_eps[src] = incoming_eps.get(src, 0.0) + self._eps[src][m]
        for m in members_set:
            for tgt in self._reg[m]:
                self._reg_in[tgt].discard(m)
            for tgt in self._eps[m]:
                self._eps_in[tgt].discard(m)
            for src in self._reg_in[m]:
                if src not in members_set:
                    del self._reg[src][m]
            for src in self._eps_in[m]:
                if src not in members_set:
                    del self._eps[src][m]
        for m in members_set:
            del self._reg[m]
            del self._eps[m]
            del self._reg_in[m]
            del self._eps_in[m]
            self.absorbing.discard(m)
        self._reg[rep] = {}
        self._eps[rep] = {}
        self._reg_in[rep] = set(incoming_reg)
        self._eps_in[rep] = set(incoming_eps)
        for src, w in incoming_reg.items():
            self._reg[src][rep] = w
        for src, c in incoming_eps.items():
            self._eps[src][rep] = c
        for m in members_set:
            if m != rep:
                self.origin.union_into(rep, m)
        if make_absorbing:
            self.absorbing.add(rep)
        if new_regular:
            for y in sorted(new_regular):
                if y in members_set:
                    raise ContractViolation("collapsed node cannot point into itself")
                self.add_regular(rep, y, new_regular[y])
        return rep


@dataclass
class SccPartition:
    """Components under the regular edges only, with their classification."""

    components: list[list[int]]
    labels: list[str]  # "sink" | "pseudosink" | "ordinary" per component
    comp_of: dict[int, int]

    def pseudosinks(self) -> list[list[int]]:
        return [c for c, lab in zip(self.components, self.labels) if lab == "pseudosink"]


@dataclass
class OrderLabels:
    """Minimum number of epsilon edges on any path to an absorbing node."""

    order: dict[int, int]
    max_order: int


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
    rounds: int = 0
    order_trace: list[int] = field(default_factory=list)
    pseudosink_counts: list[int] = field(default_factory=list)
    residual: float = 0.0
    bound_excess: float = 0.0

    @property
    def num_sinks(self) -> int:
        return len(self.sinks)

    def row(self, original_id: int) -> np.ndarray:
        return self.probabilities[original_id]


def from_cmc(cmc: EpsilonMC, sinks: list[list[int]]) -> EpsilonMC:
    """Collapse each sink component of `cmc` into a single absorbing node.

    `sinks` must be exactly the sink SCCs of the chain (no edge of either
    class may leave a sink); violating that indicates a caller bug and
    raises.  The input chain is not modified.
    """
    chain = cmc.copy()
    for sink in sinks:
        sink_set = set(sink)
        for m in sink:
            for tgt in chain.regular_out(m):
                if tgt not in sink_set:
                    raise ContractViolation(
                        f"regular edge {m}->{tgt} leaves supposed sink {sink}"
                    )
            for tgt in chain.eps_out(m):
                if tgt not in sink_set:
                    raise ContractViolation(
                        f"eps edge {m}->{tgt} leaves supposed sink {sink}"
                    )
    for sink in sinks:
        chain._collapse(sink, make_absorbing=True)
    return chain


def rsccs(chain: EpsilonMC) -> SccPartition:
    """Strongly connected components under regular edges only.

    A component is a pseudosink when it has at least one outgoing epsilon
    edge and no outgoing regular edge; with neither it is a sink.
    """
    nodes = chain.live_nodes()
    comps = strongly_connected_components(nodes, lambda v: chain._reg[v].keys())
    comps.sort(key=lambda c: c[0])
    comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
    labels = []
    for comp in comps:
        comp_set = set(comp)
        reg_out = any(t not in comp_set for v in comp for t in chain._reg[v])
        eps_out = any(t not in comp_set for v in comp for t in chain._eps[v])
        if reg_out:
            labels.append("ordinary")
        elif eps_out:
            labels.append("pseudosink")
        else:
            labels.append("sink")
    return SccPartition(comps, labels, comp_of)


def node_orders(chain: EpsilonMC) -> OrderLabels:
    """Exact orders via 0-1 BFS over the reversed graph from the absorbing set.

    Regular edges cost 0, epsilon edges cost 1.  Every live node must reach
    an absorbing node (guaranteed after sink collapse), otherwise the chain
    is malformed and this raises.
    """
    if not chain.absorbing:
        raise ContractViolation("chain has no absorbing nodes")
    dist: dict[int, int] = {}
    dq: deque[tuple[int, int]] = deque()
    for a in sorted(chain.absorbing):
        dist[a] = 0
        dq.append((a, 0))
    while dq:
        v, d = dq.popleft()
        if d > dist[v]:
            continue
        for src in chain._reg_in[v]:
            if src not in dist or d < dist[src]:
                dist[src] = d
                dq.appendleft((src, d))
        for src in chain._eps_in[v]:
            if src not in dist or d + 1 < dist[src]:
                dist[src] = d + 1
                dq.append((src, d + 1))
    missing = [v for v in chain._reg if v not in dist]
    if missing:
        raise ContractViolation(
            f"nodes {missing[:5]} cannot reach any absorbing node"
        )
    return OrderLabels(dist, max(dist.values()))


def collapse_pseudosink(chain: EpsilonMC, members: list[int], pi: np.ndarray) -> EpsilonMC:
    """Collapse pseudosink `members` into one node, in place.

    `pi` is the stationary distribution of the pseudosink's internal
    regular-edge chain, aligned with `sorted(members)`.  The collapsed node's
    regular out-edges to each external target y get weight

        W(y) = sum of coeff(x -> y) * pi[x]  /  total over all exits,

    which sums to one over the targets.
    """
    members = sorted(members)
    members_set = set(members)
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (len(members),):
        raise ContractViolation("stationary vector does not match the component")
    if abs(float(pi.sum()) - 1.0) > 1e-9 or np.any(pi < 0):
        raise ContractViolation("stationary vector is not a normalized distribution")
    exit_mass: dict[int, float] = {}
    for idx, x in enumerate(members):
        for tgt in chain._reg[x]:
            if tgt not in members_set:
                raise ContractViolation(
                    f"component has regular out-edge {x}->{tgt}; not a pseudosink"
                )
        for y in sorted(chain._eps[x]):
            if y not in members_set:
                exit_mass[y] = exit_mass.get(y, 0.0) + chain._eps[x][y] * pi[idx]
    if not exit_mass:
        raise ContractViolation("component has no outgoing eps edge; not a pseudosink")
    denom = sum(exit_mass[y] for y in sorted(exit_mass))
    weights = {y: exit_mass[y] / denom for y in sorted(exit_mass)}
    chain._collapse(members, new_regular=weights)
    return chain


def delete_epsilon_edges(chain: EpsilonMC) -> EpsilonMC:
    """Remove every epsilon edge, in place.

    Only valid when the maximum order is zero, i.e. every node already has a
    regular path to absorption; then the removal provably leaves the limit
    hitting probabilities unchanged and no reweighting is needed.
    """
    orders = node_orders(chain)
    if orders.max_order > 0:
        raise ContractViolation(
            f"cannot delete eps edges at max order {orders.max_order} > 0"
        )
    for v in chain.live_nodes():
        for tgt in chain._eps[v]:
            chain._eps_in[tgt].discard(v)
        chain._eps[v].clear()
    return chain


def _stationary_within(chain: EpsilonMC, members: list[int]) -> np.ndarray:
    """Stationary distribution of a component's internal regular chain."""
    if len(members) == 1:
        return np.array([1.0])
    index = {v: i for i, v in enumerate(members)}
    rows, cols, vals = [], [], []
    for v in members:
        for tgt, w in chain._reg[v].items():
            rows.append(index[v])
            cols.append(index[tgt])
            vals.append(w)
    n = len(members)
    T = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    return solver.stationary_distribution(T)


def _rows_from_result(chain, nodes, result) -> tuple[dict[int, np.ndarray], list[int]]:
    absorbing_ids = [nodes[i] for i in result.absorbing]
    k = len(absorbing_ids)
    rows: dict[int, np.ndarray] = {}
    for j, a in enumerate(absorbing_ids):
        ind = np.zeros(k)
        ind[j] = 1.0
        rows[a] = ind
    for pos, i in enumerate(result.transient):
        rows[nodes[i]] = result.hitting[pos]
    return rows, absorbing_ids


def _expand_rows(chain: EpsilonMC, rows: dict[int, np.ndarray], k: int) -> np.ndarray:
    out = np.zeros((chain.num_original, k))
    for pid in range(chain.num_original):
        out[pid] = rows[chain.current(pid)]
    return out


def limit_hitting_probabilities(game, tie_tolerance: float = 0.0) -> HittingMatrix:
    """Limit hitting probabilities from every pure profile of `game`.

    Pipeline: build the profile chain, collapse its sink components, then
    alternate pseudosink collapse and re-partitioning until every node has a
    regular path to absorption; finally drop the vanishing edges and solve
    the ordinary absorbing chain.  Each collapse round provably reduces the
    maximum order by at least one, so the loop runs at most max-order rounds;
    both guarantees are asserted and violations raise rather than loop.
    """
    from .game import build_cmc, build_response_graph, sink_equilibria

    graph = build_response_graph(game, tie_tolerance)
    sinks = sink_equilibria(graph)
    chain = from_cmc(build_cmc(game, tie_tolerance), sinks)

    orders = node_orders(chain)
    trace = [orders.max_order]
    pseudo_counts: list[int] = []
    rounds = 0
    while orders.max_order > 0:
        partition = rsccs(chain)
        pseudos = partition.pseudosinks()
        if not pseudos:
            raise ContractViolation(
                f"max order is {orders.max_order} but no pseudosink exists"
            )
        pseudo_counts.append(len(pseudos))
        for members in pseudos:
            pi = _stationary_within(chain, members)
            collapse_pseudosink(chain, members, pi)
        rounds += 1
        new_orders = node_orders(chain)
        if new_orders.max_order >= orders.max_order:
            raise ContractViolation(
                "collapse round failed to reduce the max order "
                f"({orders.max_order} -> {new_orders.max_order})"
            )
        orders = new_orders
        trace.append(orders.max_order)
    delete_epsilon_edges(chain)
    nodes = chain.live_nodes()
    result = solver.absorption_probabilities(solver.chain_matrix(chain, nodes))
    rows, absorbing_ids = _rows_from_result(chain, nodes, result)
    probs = _expand_rows(chain, rows, len(absorbing_ids))
    return HittingMatrix(
        probs, sinks, rounds, trace, pseudo_counts, result.residual, result.bound_excess
    )


def oracle_hitting_matrix(game, eps: float, tie_tolerance: float = 0.0) -> HittingMatrix:
    """Hitting probabilities with the vanishing weight frozen at `eps`.

    Numerical cross-check for `limit_hitting_probabilities`: instantiates the
    chain at a concrete small `eps` and solves it directly, with no collapse
    machinery involved.
    """
    from .game import build_cmc, build_response_graph, sink_equilibria

    graph = build_response_graph(game, tie_tolerance)
    sinks = sink_equilibria(graph)
    chain = from_cmc(build_cmc(game, tie_tolerance), sinks)
    nodes = chain.live_nodes()
    result = solver.oracle_hitting_at_epsilon(chain, eps)
    rows, absorbing_ids = _rows_from_result(chain, nodes, result)
    probs = _expand_rows(chain, rows, len(absorbing_ids))
    return HittingMatrix(
        probs, sinks, residual=result.residual, bound_excess=result.bound_excess
    )
