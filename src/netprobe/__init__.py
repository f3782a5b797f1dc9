"""netprobe: probing incomplete networks to maximize newly observed nodes.

Given a partial observation of a larger graph, decide which b nodes to
probe (each probe reveals a node's full neighborhood) so that as many new
nodes as possible enter the observation.  Ships the estimate-driven
outside-degree strategy, seven baseline strategies, four samplers for
generating incomplete observations, closed-form estimators for samples of
known origin, and an experiment harness with CCDF/AUC aggregation.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetError,
    ConfigError,
    EmptyGraphError,
    EstimationError,
    NetProbeError,
    NotCandidateError,
    ParseError,
    SamplingError,
    UnknownNodeError,
)
from .graphs import (
    CompleteGraph,
    NodeStatus,
    ObservedGraph,
    TriangleWedgeCounts,
    count_triangles_wedges,
    edge_dispersion,
    global_clustering,
    load_edge_list,
    local_clustering,
    read_observed,
    two_hop_open_wedges,
    write_observed,
)
from .sampling import (
    SampleFractions,
    run_sampler,
    sample_node_bernoulli,
    sample_random_edge,
    sample_random_node,
    sample_random_walk,
)
from .probing import ProbeLedger, ProbeLogEntry, probe
from .estimators import (
    EstimateSet,
    SurvivalProbs,
    estimate_avg_clustering,
    estimate_scale_factor,
    known_edge_sample_estimates,
    known_node_sample_estimates,
    probe_based_estimates,
    survival_probs,
    triangle_survival_prob,
    unbiased_clustering_edge_sampling,
    unbiased_clustering_node_sampling,
    unbiased_degree_edge_sampling,
    unbiased_degree_node_sampling,
    wedge_survival_prob,
)
from .communities import detect_communities, modularity
from .strategies import (
    CandidateScore,
    ProbePlan,
    STRATEGIES,
    estimate,
    make_probe_plan,
    score_clustering,
    score_cross_comm,
    score_degree,
    score_dispersion,
    score_max_out_probe,
    select_random,
    select_top_b,
)
from .harness import (
    AggregateCurve,
    TrialConfig,
    TrialResult,
    auc,
    budget_from_fraction,
    ccdf,
    percent_improvement,
    run_session,
    run_trial,
    sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
