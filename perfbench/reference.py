"""Fixed reference tasks that gauge how fast the host runs right now.

The shared host's speed differs from one process to the next and drifts
over minutes, and a slow spell slows the program and these tasks alike.
Each measured run times a reference task just before and just after its
`cli.main` call, in the same process, and the benchmark reports the call's
wall time over their mean as well as the wall time itself.

The tasks use numpy, scipy and the standard library only, never `sinklimit`,
so a change to the program cannot change them.  Each mirrors the kind of
work its workloads do:

- `exact` builds nested dicts of floats and encodes them as JSON (the `hit`
  rows and their emit), then runs sparse matrix products over many columns
  (the absorption sweeps);
- `dynamics` takes many small-array numpy steps (the replicator dynamics).

Their inputs are fixed, so each does the same work every time.  They are
built on first use and kept small, so that a task adds little to the peak
RSS the benchmark reports.
"""

import functools
import json
import time

import numpy as np
import scipy.sparse as sp

ROWS, COLUMNS = 1500, 60
SPARSE_N, SPARSE_COLUMNS, SWEEPS = 4000, 40, 100
STEPS, BATCH, PROFILES = 15000, 40, 9


@functools.cache
def _exact_inputs():
    rng = np.random.default_rng(0)
    labels = [f"sink_{j} {{(1,2,1,2)}}" for j in range(COLUMNS)]
    values = rng.random((ROWS, COLUMNS)).tolist()
    per_row = 12
    matrix = sp.csr_matrix(
        (rng.random(SPARSE_N * per_row) * 0.08,
         rng.integers(0, SPARSE_N, size=SPARSE_N * per_row),
         np.arange(0, SPARSE_N * per_row + 1, per_row)),
        shape=(SPARSE_N, SPARSE_N))
    start = rng.random((SPARSE_N, SPARSE_COLUMNS))
    return labels, values, matrix, start


@functools.cache
def _dynamics_inputs():
    return (np.random.default_rng(0).random((PROFILES, PROFILES)),)


def _exact(labels, values, matrix, x):
    rows = {f"({i})": dict(zip(labels, row)) for i, row in enumerate(values)}
    text = json.dumps(rows, indent=2)
    for _ in range(SWEEPS):
        x = matrix @ x + 0.5
    return bool(text) and np.isfinite(x).all()


def _dynamics(payoff):
    shares = np.full((BATCH, PROFILES), 1.0 / PROFILES)
    for _ in range(STEPS):
        fitness = shares @ payoff
        shares = shares * np.exp(0.1 * (fitness - (shares * fitness).sum(1, keepdims=True)))
        shares /= shares.sum(1, keepdims=True)
    return np.isfinite(shares).all()


TASKS = {"exact": (_exact_inputs, _exact), "dynamics": (_dynamics_inputs, _dynamics)}


def seconds(kind):
    """Wall time of one pass of the reference task `kind`, its inputs built
    beforehand."""
    inputs, task = TASKS[kind]
    args = inputs()
    t0 = time.perf_counter()
    ok = task(*args)
    elapsed = time.perf_counter() - t0
    if not ok:
        raise RuntimeError(f"reference task {kind} went wrong")
    return elapsed
