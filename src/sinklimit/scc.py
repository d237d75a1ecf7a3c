"""Strongly connected components (Pearce's one-rank search), their
condensation levels and sink detection.

Every function takes a square CSR pattern: any object with `indptr`,
`indices` and `shape`, whose stored entries are the edge set, such as a
`CsrPattern` or a scipy CSR matrix.  Rows may hold repeated or unsorted
columns.  Node ids are the row indices.  Components come as lists of
ascending members, ordered by smallest member.  This module uses numpy
alone, so the sink search never loads scipy.sparse.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CsrPattern:
    """The nonzero pattern of a square CSR matrix, held in numpy arrays:
    row `v`'s columns are ``indices[indptr[v] : indptr[v + 1]]``."""

    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_edges(cls, n: int, rows: np.ndarray, cols: np.ndarray) -> "CsrPattern":
        """Pattern of the edges ``rows[i] -> cols[i]`` over nodes 0..n-1, each
        row's columns ascending, as in scipy's canonical CSR; repeated edges
        are kept."""
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        # One sort of row-major keys, several times faster than a lexsort;
        # n * n fits in int64 for every graph whose node arrays fit in memory.
        return cls(indptr, np.sort(np.asarray(rows, dtype=np.int64) * n + cols) % n)

    @property
    def shape(self) -> tuple:
        return (self.indptr.size - 1,) * 2

    @property
    def nnz(self) -> int:
        return self.indices.size


def _edges(matrix) -> tuple:
    """Source and target of every stored entry of a CSR pattern."""
    return np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr)), matrix.indices


def component_numbers(matrix) -> np.ndarray:
    """Each node's component number, by Pearce's algorithm (IPL 2016),
    iterative so deep chains cannot overflow the stack.

    One `rank` per node: -1 until visited, then its visit rank, lowered to the
    smallest rank it reaches among open nodes, and finally its component's
    number, counted down from n - 1.  Those numbers stay above the rank of
    every open node, so strict `<` comparisons alone skip finished nodes.  A
    component closes after every component it reaches (Tarjan 1972), so an
    edge between two components always goes to the higher number.
    """
    indptr, indices = matrix.indptr.tolist(), matrix.indices.tolist()
    n = len(indptr) - 1
    rank = [-1] * n
    stack: list[int] = []  # visited nodes whose component is still open
    opened = 0  # open nodes, which is also the next visit rank
    number = n

    for root in range(n):
        if rank[root] >= 0:
            continue
        # Each work item is (node, its visit rank, iterator over its successors).
        rank[root] = opened
        work = [(root, opened, iter(indices[indptr[root] : indptr[root + 1]]))]
        opened += 1
        while work:
            v, r, it = work[-1]
            for w in it:
                if rank[w] < 0:
                    rank[w] = opened
                    work.append((w, opened, iter(indices[indptr[w] : indptr[w + 1]])))
                    opened += 1
                    break
                if rank[w] < rank[v]:
                    rank[v] = rank[w]
            else:
                work.pop()
                if rank[v] == r:  # v is its component's root: close the component
                    number -= 1
                    rank[v] = number
                    while stack and rank[stack[-1]] >= r:
                        rank[stack.pop()] = number
                    opened = r  # every node opened since v is finished now
                else:
                    stack.append(v)
                    parent = work[-1][0]
                    if rank[v] < rank[parent]:
                        rank[parent] = rank[v]

    return np.array(rank, dtype=np.int64)


def condensation_levels(matrix, numbers: np.ndarray) -> np.ndarray:
    """Each node's level: the length of the longest path in the
    condensation from its component to one that no edge leaves (level 0).

    `numbers` are `component_numbers(matrix)`.  An edge between components
    goes to the higher number, so one pass over those edges by descending
    source number reaches each component after all of its successors.
    """
    src, dst = (numbers[ends] for ends in _edges(matrix))
    cross = src != dst
    by_source = np.argsort(-src[cross], kind="stable")
    level = [0] * matrix.shape[0]  # by component number
    for s, d in zip(src[cross][by_source].tolist(), dst[cross][by_source].tolist()):
        if level[d] >= level[s]:
            level[s] = level[d] + 1
    return np.array(level, dtype=np.int64)[numbers]


def strongly_connected_components(matrix) -> list[list[int]]:
    """Components of `matrix` by `component_numbers`."""
    ranks = component_numbers(matrix)
    n = ranks.size
    nodes = np.argsort(ranks, kind="stable")  # component by component, members ascending
    starts = np.flatnonzero(np.diff(ranks[nodes], prepend=-1))
    bounds, members = np.append(starts, n).tolist(), nodes.tolist()
    by_smallest = np.argsort(nodes[starts]).tolist()
    return [members[bounds[i] : bounds[i + 1]] for i in by_smallest]


def group_ids(num_nodes: int, groups: list[list[int]]) -> np.ndarray:
    """Index of each node's group, -1 for nodes in none."""
    ids = np.full(num_nodes, -1)
    if groups:
        ids[np.concatenate(groups)] = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    return ids


def leaving(components: list[list[int]], matrix) -> np.ndarray:
    """Mask of the components that some edge of `matrix` leaves."""
    comp_of = group_ids(matrix.shape[0], components)
    src, dst = (comp_of[ends] for ends in _edges(matrix))
    out = (src >= 0) & (src != dst)
    return np.bincount(src[out], minlength=len(components)) > 0


def sink_components(matrix) -> list[list[int]]:
    """Components of the condensation with no outgoing edge."""
    comps = strongly_connected_components(matrix)
    return [comp for comp, out in zip(comps, leaving(comps, matrix)) if not out]
