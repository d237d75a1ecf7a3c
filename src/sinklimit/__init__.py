"""sinklimit: limit distributions of game dynamics over sink equilibria.

Maps a normal-form game and a prior over strategy profiles to its limit
distribution over sink equilibria — exactly for pure-support priors via a
vanishing-transition collapse algorithm, and empirically for general priors
via noisy replicator simulation.
"""

from .dynamics import (
    LimitDistribution,
    Prior,
    ReplicatorParams,
    best_response_vector,
    estimate_limit_distribution,
    exact_limit_distribution,
    noisy_replicator_step,
    project_to_simplex,
    simulate_to_sink,
    total_variation,
    vertex_profile,
)
from .epsmc import (
    HittingMatrix,
    collapse_pseudosink,
    delete_epsilon_edges,
    from_cmc,
    limit_hitting_probabilities,
    node_orders,
    oracle_hitting_matrix,
    rsccs,
)
from .errors import (
    ContractViolation,
    GameFormatError,
    SinklimitError,
    SolverConvergenceError,
)
from .game import (
    EpsilonMC,
    Game,
    ResponseGraph,
    build_cmc,
    build_reduced_response_graph,
    build_response_graph,
    decode_profile,
    encode_profile,
    game_from_json,
    game_to_json,
    load_game,
    profile_label,
    random_game,
    save_game,
    sink_equilibria,
)
from .solver import (
    AbsorptionResult,
    StochasticMatrix,
    absorption_probabilities,
    oracle_hitting_at_epsilon,
    stationary_distribution,
)

__version__ = "0.1.0"
