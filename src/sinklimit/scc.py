"""Strongly connected components (iterative Tarjan) and sink detection.

Every function takes a square CSR matrix whose nonzero pattern is the edge
set; node ids are the row indices.
"""

import numpy as np


def strongly_connected_components(matrix) -> list[list[int]]:
    """Tarjan's algorithm, iterative so deep chains cannot overflow the stack.

    Returns the list of components; each component is sorted ascending.
    """
    indptr, indices = matrix.indptr.tolist(), matrix.indices.tolist()
    n = len(indptr) - 1
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] >= 0:
            continue
        # Each work item is (node, iterator over its successors).
        work = [(root, iter(indices[indptr[root] : indptr[root + 1]]))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index[w] < 0:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(indices[indptr[w] : indptr[w + 1]])))
                    advanced = True
                    break
                if on_stack[w] and index[w] < lowlink[v]:
                    lowlink[v] = index[w]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if lowlink[v] < lowlink[parent]:
                    lowlink[parent] = lowlink[v]
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comp.sort()
                components.append(comp)
    return components


def group_ids(num_nodes: int, groups: list[list[int]]) -> np.ndarray:
    """Index of each node's group, -1 for nodes in none."""
    ids = np.full(num_nodes, -1)
    if groups:
        ids[np.concatenate(groups)] = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    return ids


def leaving(components: list[list[int]], matrix) -> np.ndarray:
    """Mask of the components that some edge of `matrix` leaves."""
    comp_of = group_ids(matrix.shape[0], components)
    coo = matrix.tocoo()
    src = comp_of[coo.row]
    out = (src >= 0) & (src != comp_of[coo.col])
    return np.bincount(src[out], minlength=len(components)) > 0


def sink_components(matrix) -> list[list[int]]:
    """Components of the condensation with no outgoing edge, sorted by
    smallest member."""
    comps = strongly_connected_components(matrix)
    sinks = [comp for comp, out in zip(comps, leaving(comps, matrix)) if not out]
    sinks.sort(key=lambda c: c[0])
    return sinks
