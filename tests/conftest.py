import os
from pathlib import Path

import numpy as np
import pytest

import sinklimit
from sinklimit import Game

# Child interpreters started by tests (`python -m sinklimit`) must import the
# same package as the tests, also when only pytest's `pythonpath` setting
# put it on the path.
_SRC = str(Path(sinklimit.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")])
)


def bimatrix(cells) -> Game:
    """Two-player game from a matrix of (row payoff, col payoff) cells,
    indexed [row strategy][col strategy]."""
    rows = len(cells)
    cols = len(cells[0])
    u0 = np.zeros(rows * cols)
    u1 = np.zeros(rows * cols)
    for r in range(rows):
        for c in range(cols):
            pid = r + rows * c
            u0[pid], u1[pid] = cells[r][c]
    return Game((rows, cols), (u0, u1))


# 3x3 game with two sink SCCs: a directed 4-cycle over the top-left block and
# the strict pure equilibrium (3,3).
@pytest.fixture(scope="session")
def fig2_game() -> Game:
    return bimatrix(
        [
            [(2, 1), (1, 2), (0, 0)],
            [(1, 2), (2, 1), (0, 0)],
            [(0, 0), (0, 0), (1, 1)],
        ]
    )


# 3x3 game whose profile (3,3) is a pure equilibrium connected to the rest of
# the graph only through a tie with (3,1): it needs exactly one tie edge to
# reach a sink, so the collapse loop runs exactly one round.
@pytest.fixture(scope="session")
def fig3_game() -> Game:
    return bimatrix(
        [
            [(4, 4), (1, 1), (0, 0)],
            [(0, 0), (3, 3), (1, 1)],
            [(2, 2), (1, 1), (2, 2)],
        ]
    )


# Matching pennies: the better-response graph is a single 4-cycle, so the
# whole profile space is one sink SCC.
@pytest.fixture(scope="session")
def matching_pennies() -> Game:
    return bimatrix([[(1, -1), (-1, 1)], [(-1, 1), (1, -1)]])
