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
from .scc import sink_components, strongly_connected_components

_ROW_SUM_TOL = 1e-12


def _csr(n: int, rows, cols, vals) -> sp.csr_matrix:
    """n x n CSR matrix of triplets; parallel entries are summed in input order."""
    order = np.lexsort((cols, rows))
    return sp.csr_matrix((vals[order], (rows[order], cols[order])), shape=(n, n))


def _adjacency(matrix: sp.csr_matrix):
    """Column lists of a CSR matrix's rows, as a callback over Python ints."""
    indptr, indices = matrix.indptr.tolist(), matrix.indices.tolist()
    return lambda v: indices[indptr[v] : indptr[v + 1]]


def _row(matrix: sp.csr_matrix, v: int) -> dict[int, float]:
    lo, hi = matrix.indptr[v], matrix.indptr[v + 1]
    return dict(zip(matrix.indices[lo:hi].tolist(), matrix.data[lo:hi].tolist()))


def _group_ids(num_nodes: int, groups: list[list[int]]) -> np.ndarray:
    """Index of each node's group, -1 for nodes in none."""
    ids = np.full(num_nodes, -1)
    ids[np.concatenate(groups)] = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    return ids


class EpsilonMC:
    """Mutable two-class Markov chain over the original node ids.

    `reg` and `eps` are square CSR matrices of regular weights and epsilon
    coefficients.  Self-loops are never stored, and for every non-absorbing
    node with at least one regular out-edge the regular out-weights sum to
    one.  `origin[i]` is the live node that currently represents original
    node `i`; the live nodes are the fixed points of `origin`, and every
    other node has an empty row and column.
    """

    def __init__(self, reg: sp.csr_matrix, eps: sp.csr_matrix, absorbing=(), origin=None):
        self.reg = reg
        self.eps = eps
        self.absorbing: set[int] = set(absorbing)
        self.origin = np.arange(reg.shape[0]) if origin is None else origin

    @classmethod
    def from_edges(cls, num_nodes, regular=(), eps=(), absorbing=(), validate=True):
        """Build a chain from ``(u, v, weight)`` / ``(u, v, coeff)`` triples
        or ``(m, 3)`` arrays; parallel edges of one class are summed."""
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
        chain = cls(*mats, absorbing)
        if validate:
            chain.validate()
        return chain

    # -- queries -----------------------------------------------------------

    @property
    def num_original(self) -> int:
        return self.reg.shape[0]

    def live_nodes(self) -> list[int]:
        return np.flatnonzero(self.origin == np.arange(self.num_original)).tolist()

    @property
    def num_live(self) -> int:
        return len(self.live_nodes())

    def regular_out(self, v: int) -> dict[int, float]:
        return _row(self.reg, v)

    def eps_out(self, v: int) -> dict[int, float]:
        return _row(self.eps, v)

    def num_eps_edges(self) -> int:
        return self.eps.nnz

    def current(self, original_id: int) -> int:
        """Live node currently representing an original node id."""
        return int(self.origin[original_id])

    def copy(self) -> "EpsilonMC":
        return EpsilonMC(self.reg.copy(), self.eps.copy(), self.absorbing, self.origin.copy())

    def validate(self) -> None:
        reg_degree = np.diff(self.reg.indptr)
        out_degree = reg_degree + np.diff(self.eps.indptr)
        for v in sorted(self.absorbing):
            if out_degree[v]:
                raise ContractViolation(f"absorbing node {v} has out-edges")
        sums = np.asarray(self.reg.sum(axis=1)).ravel()
        bad = np.flatnonzero((reg_degree > 0) & (np.abs(sums - 1.0) > _ROW_SUM_TOL))
        if bad.size:
            raise ContractViolation(
                f"regular out-weights of node {bad[0]} sum to {float(sums[bad[0]])!r}, not 1"
            )

    # -- mutation ----------------------------------------------------------

    def _collapse(self, groups, *, make_absorbing=False, new_rows=None) -> None:
        """Replace each group of members with a single node (its smallest id).

        One relabelling of both edge classes: the members' rows are dropped,
        every column is mapped through the new labels and parallel edges are
        summed, so edges among the members of a group vanish.  Unless the
        nodes become absorbing, the caller supplies each collapsed node's
        regular out-row in `new_rows` as a ``(targets, weights)`` pair, over
        targets as they were before the collapse.
        """
        n = self.num_original
        group_of = _group_ids(n, groups)
        is_member = group_of >= 0
        reps = np.array([min(g) for g in groups])
        label = np.where(is_member, reps[group_of], np.arange(n))
        exits = []
        for rep, (targets, weights) in zip(reps, new_rows or ()):
            if np.any(label[targets] == rep):
                raise ContractViolation("collapsed node cannot point into itself")
            exits.append((np.full(len(targets), rep), np.asarray(targets), weights))

        def relabel(matrix, extra=()):
            coo = matrix.tocoo()
            keep = ~is_member[coo.row]
            parts = [(coo.row[keep], coo.col[keep], coo.data[keep]), *extra]
            rows, cols, vals = (np.concatenate(p) for p in zip(*parts))
            return _csr(n, rows, label[cols], vals)

        self.reg = relabel(self.reg, exits)
        self.eps = relabel(self.eps)
        self.absorbing.difference_update(np.flatnonzero(is_member).tolist())
        if make_absorbing:
            self.absorbing.update(reps.tolist())
        self.origin = label[self.origin]


@dataclass
class SccPartition:
    """Components under the regular edges only, with their classification."""

    components: list[list[int]]
    labels: list[str]  # "sink" | "pseudosink" | "ordinary" per component

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


def from_cmc(cmc: EpsilonMC, sinks: list[list[int]]) -> EpsilonMC:
    """Collapse each sink component of `cmc` into a single absorbing node.

    `sinks` must be exactly the sink SCCs of the chain (no edge of either
    class may leave a sink); violating that indicates a caller bug and
    raises.  The input chain is not modified.
    """
    sink_of = _group_ids(cmc.num_original, sinks)
    for kind, matrix in (("regular", cmc.reg), ("eps", cmc.eps)):
        coo = matrix.tocoo()
        src = sink_of[coo.row]
        leaving = np.flatnonzero((src >= 0) & (sink_of[coo.col] != src))
        if leaving.size:
            i = leaving[0]
            raise ContractViolation(
                f"{kind} edge {coo.row[i]}->{coo.col[i]} leaves supposed sink {sinks[src[i]]}"
            )
    chain = cmc.copy()
    chain._collapse(sinks, make_absorbing=True)
    return chain


def rsccs(chain: EpsilonMC) -> SccPartition:
    """Strongly connected components under regular edges only.

    A component is a pseudosink when it has at least one outgoing epsilon
    edge and no outgoing regular edge; with neither it is a sink.
    """
    comps = strongly_connected_components(chain.live_nodes(), _adjacency(chain.reg))
    comps.sort(key=lambda c: c[0])
    comp_of = _group_ids(chain.num_original, comps)
    leaves = []
    for matrix in (chain.reg, chain.eps):
        coo = matrix.tocoo()
        src = comp_of[coo.row]
        leaves.append(np.bincount(src[src != comp_of[coo.col]], minlength=len(comps)) > 0)
    labels = [
        "ordinary" if reg_out else "pseudosink" if eps_out else "sink"
        for reg_out, eps_out in zip(*leaves)
    ]
    return SccPartition(comps, labels)


def node_orders(chain: EpsilonMC) -> OrderLabels:
    """Exact orders via 0-1 BFS over the reversed graph from the absorbing set.

    Regular edges cost 0, epsilon edges cost 1.  Every live node must reach
    an absorbing node (guaranteed after sink collapse), otherwise the chain
    is malformed and this raises.
    """
    if not chain.absorbing:
        raise ContractViolation("chain has no absorbing nodes")
    reg_in = _adjacency(chain.reg.T.tocsr())
    eps_in = _adjacency(chain.eps.T.tocsr())
    dist: dict[int, int] = {}
    dq: deque[tuple[int, int]] = deque()
    for a in sorted(chain.absorbing):
        dist[a] = 0
        dq.append((a, 0))
    while dq:
        v, d = dq.popleft()
        if d > dist[v]:
            continue
        for src in reg_in(v):
            if src not in dist or d < dist[src]:
                dist[src] = d
                dq.appendleft((src, d))
        for src in eps_in(v):
            if src not in dist or d + 1 < dist[src]:
                dist[src] = d + 1
                dq.append((src, d + 1))
    missing = [v for v in chain.live_nodes() if v not in dist]
    if missing:
        raise ContractViolation(
            f"nodes {missing[:5]} cannot reach any absorbing node"
        )
    return OrderLabels(dist, max(dist.values()))


def collapse_pseudosink(chain: EpsilonMC, members: list[int], pi: np.ndarray) -> EpsilonMC:
    """Collapse pseudosink `members` into one node, in place.

    `pi` is the stationary distribution of the pseudosink's internal
    regular-edge chain, aligned with `sorted(members)`; see `_exit_row` for
    the collapsed node's out-row.
    """
    chain._collapse([members], new_rows=[_exit_row(chain, members, pi)])
    return chain


def _exit_row(chain: EpsilonMC, members: list[int], pi: np.ndarray):
    """Regular out-row of pseudosink `members` once collapsed, as sorted
    targets and their weights.

    Each external target y gets weight

        W(y) = sum of coeff(x -> y) * pi[x]  /  total over all exits,

    which sums to one over the targets.
    """
    members = sorted(members)
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (len(members),):
        raise ContractViolation("stationary vector does not match the component")
    if not abs(float(pi.sum()) - 1.0) <= 1e-9 or np.any(pi < 0):
        raise ContractViolation("stationary vector is not a normalized distribution")
    inside = np.zeros(chain.num_original, dtype=bool)
    inside[members] = True
    reg = chain.reg[members].tocoo()
    escapes = np.flatnonzero(~inside[reg.col])
    if escapes.size:
        i = escapes[0]
        raise ContractViolation(
            f"component has regular out-edge {members[reg.row[i]]}->{reg.col[i]}; "
            "not a pseudosink"
        )
    eps = chain.eps[members].tocoo()
    out = ~inside[eps.col]
    if not out.any():
        raise ContractViolation("component has no outgoing eps edge; not a pseudosink")
    # Row-major order: the masses add up member by member, as in the formula.
    targets, slot = np.unique(eps.col[out], return_inverse=True)
    mass = np.bincount(slot, weights=eps.data[out] * pi[eps.row[out]])
    return targets, mass / sum(mass.tolist())


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
    chain.eps = sp.csr_matrix(chain.eps.shape)
    return chain


def _stationary_within(chain: EpsilonMC, members: list[int]) -> np.ndarray:
    """Stationary distribution of a component's internal regular chain."""
    if len(members) == 1:
        return np.array([1.0])
    return solver.stationary_distribution(chain.reg[members][:, members])


def _hitting_rows(chain: EpsilonMC, nodes: list[int], result) -> np.ndarray:
    """Hitting rows of every original node from a solve over live `nodes`."""
    k = result.absorbing.size
    rows = np.zeros((len(nodes), k))
    rows[result.absorbing, np.arange(k)] = 1.0
    rows[result.transient] = result.hitting
    pos = np.zeros(chain.num_original, dtype=np.intp)
    pos[nodes] = np.arange(len(nodes))
    return rows[pos[chain.origin]]


def _collapsed_profile_chain(game, tie_tolerance: float):
    """Profile chain of `game` with its sinks collapsed, plus those sinks."""
    from .game import build_cmc

    cmc = build_cmc(game, tie_tolerance)
    sinks = sink_components(range(cmc.num_original), _adjacency(cmc.reg + cmc.eps))
    return from_cmc(cmc, sinks), sinks


def limit_hitting_probabilities(game, tie_tolerance: float = 0.0) -> HittingMatrix:
    """Limit hitting probabilities from every pure profile of `game`.

    Pipeline: build the profile chain, collapse its sink components, then
    collapse every pseudosink of a round together (exit rows taken from the
    chain as the round found it) and re-partition, until every node has a
    regular path to absorption; finally drop the vanishing edges and solve
    the ordinary absorbing chain.  Each collapse round provably reduces the
    maximum order by at least one, so the loop runs at most max-order rounds;
    both guarantees are asserted and violations raise rather than loop.
    """
    chain, sinks = _collapsed_profile_chain(game, tie_tolerance)
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
        exits = [_exit_row(chain, m, _stationary_within(chain, m)) for m in pseudos]
        chain._collapse(pseudos, new_rows=exits)
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
    return HittingMatrix(
        _hitting_rows(chain, nodes, result), sinks, rounds, trace, pseudo_counts,
        result.residual, result.bound_excess,
    )


def oracle_hitting_matrix(game, eps: float, tie_tolerance: float = 0.0) -> HittingMatrix:
    """Hitting probabilities with the vanishing weight frozen at `eps`.

    Numerical cross-check for `limit_hitting_probabilities`: instantiates the
    chain at a concrete small `eps` and solves it directly, with no collapse
    machinery involved.
    """
    chain, sinks = _collapsed_profile_chain(game, tie_tolerance)
    result = solver.oracle_hitting_at_epsilon(chain, eps)
    return HittingMatrix(
        _hitting_rows(chain, chain.live_nodes(), result), sinks,
        residual=result.residual, bound_excess=result.bound_excess,
    )
