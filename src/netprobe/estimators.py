"""Degree-scale and clustering estimation.

Two routes to the same pair of statistics:

* probe-based: spend part of the budget probing high-degree candidates,
  average true/observed degree ratios for the scale multiplier, and watch
  which open wedges the probes close for the clustering estimate;
* closed-form: when the sample is known to come from random node or random
  edge sampling with a known fraction, scale observed quantities by the
  appropriate survival probabilities instead, spending no budget.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import BudgetError, EstimationError, SamplingError
from .graphs import CompleteGraph, ObservedGraph, global_clustering, two_hop_open_wedges
from .probing import PHASE_ESTIMATION, ProbeLedger, probe

METHOD_PROBE = "probe_based"
METHOD_KNOWN_NODE = "known_node_sample"
METHOD_KNOWN_EDGE = "known_edge_sample"

DEFAULT_ESTIMATION_PROBES = 100


@dataclass
class EstimateSet:
    """Estimated degree scale and clustering, however obtained.

    scale_multiplier is the estimated ratio of true to observed degree, so
    an observed degree times the multiplier approximates the true degree.
    clustering is the estimated probability that an open wedge is closed in
    the complete graph.
    """

    method: str
    scale_multiplier: float
    clustering: float
    probes_used: int = 0
    scale_clamped: bool = False
    clustering_clamped: bool = False

    def report(self) -> dict:
        """External report record (stable key names)."""
        return {
            "method": self.method,
            "m_hat": self.scale_multiplier,
            "c_hat": self.clustering,
            "probes_used": self.probes_used,
            "clamped_flags": {
                "m_hat": self.scale_clamped,
                "c_hat": self.clustering_clamped,
            },
        }


@dataclass(frozen=True)
class SurvivalProbs:
    """Probabilities that a triangle/wedge of the complete graph shows up
    in a random node sample, and that a surviving wedge appears closed."""

    p_triangle: float
    p_wedge: float
    p_closed: float


@dataclass(frozen=True)
class EstimationProbeRecord:
    """One estimation probe: state just before, and what it revealed."""

    node: str
    observed_degree: int
    true_degree: int
    open_wedge_partners: frozenset[str]
    closed_partners: frozenset[str]


def estimate_scale_factor(
    g: CompleteGraph,
    obs: ObservedGraph,
    ledger: ProbeLedger,
    n_probes: int = DEFAULT_ESTIMATION_PROBES,
    seed: int = 0,
) -> tuple[EstimateSet, list[EstimationProbeRecord]]:
    """Probe a random subset of the highest-observed-degree candidates and
    average their true/observed degree ratios.

    The pool is the ledger.budget highest-degree candidates (ties broken by
    label), from which min(n_probes, pool size) nodes are drawn uniformly.
    Each probe mutates obs and is charged to the ledger under the
    estimation phase.  The returned records carry each node's pre-probe
    open-wedge partners for :func:`estimate_avg_clustering`.

    The ratio mean is clamped to at least 1: a true degree cannot be below
    the observed one.
    """
    pool = obs.candidate_nodes()
    if not pool:
        raise EstimationError("no candidate nodes to estimate from")
    if n_probes <= 0:
        raise EstimationError(f"n_probes must be positive, got {n_probes}")
    if n_probes > ledger.remaining:
        raise BudgetError(
            f"{n_probes} estimation probes exceed remaining budget {ledger.remaining}"
        )
    pool.sort(key=lambda u: (-obs.degree(u), u))
    pool = pool[: ledger.budget]
    rng = random.Random(seed)
    chosen = rng.sample(pool, min(n_probes, len(pool)))

    records: list[EstimationProbeRecord] = []
    ratio_sum = 0.0
    for u in chosen:
        observed_degree = obs.degree(u)
        partners = frozenset(two_hop_open_wedges(obs, u))
        probe(g, obs, ledger, u, phase=PHASE_ESTIMATION)
        true_degree = g.degree(u)
        ratio_sum += true_degree / observed_degree
        closed = frozenset(w for w in partners if obs.has_edge(u, w))
        records.append(
            EstimationProbeRecord(
                node=u,
                observed_degree=observed_degree,
                true_degree=true_degree,
                open_wedge_partners=partners,
                closed_partners=closed,
            )
        )

    raw = ratio_sum / len(chosen)
    clamped = raw < 1.0
    est = EstimateSet(
        method=METHOD_PROBE,
        scale_multiplier=max(1.0, raw),
        clustering=0.0,
        probes_used=len(chosen),
        scale_clamped=clamped,
    )
    return est, records


def estimate_avg_clustering(records: list[EstimationProbeRecord]) -> float:
    """Fraction of pre-probe open wedges that the probes closed.

    Zero when no probed node had any open-wedge partner.
    """
    total = sum(len(r.open_wedge_partners) for r in records)
    if total == 0:
        return 0.0
    closed = sum(len(r.closed_partners) for r in records)
    return closed / total


def probe_based_estimates(
    g: CompleteGraph,
    obs: ObservedGraph,
    ledger: ProbeLedger,
    n_probes: int = DEFAULT_ESTIMATION_PROBES,
    seed: int = 0,
) -> EstimateSet:
    """Run the full estimation pass: scale multiplier, then clustering."""
    est, records = estimate_scale_factor(g, obs, ledger, n_probes=n_probes, seed=seed)
    est.clustering = estimate_avg_clustering(records)
    return est


def unbiased_degree_node_sampling(d_known: int, node_fraction: float) -> float:
    """Estimated true degree of an observed but unselected node, under
    random node sampling with known selection fraction."""
    if not 0.0 < node_fraction <= 1.0:
        raise SamplingError(f"node_fraction must be in (0, 1], got {node_fraction}")
    return d_known / node_fraction


def triangle_survival_prob(node_fraction: float) -> float:
    """Probability a triangle survives node sampling: at least two of its
    three nodes must be selected."""
    f = node_fraction
    return 3.0 * f * f * (1.0 - f) + f**3


def wedge_survival_prob(node_fraction: float) -> float:
    """Probability a wedge survives node sampling: its center is selected,
    or at least two of its three nodes are."""
    f = node_fraction
    return f**3 + 3.0 * (f * f * (1.0 - f)) + f * (1.0 - f) ** 2


def survival_probs(node_fraction: float) -> SurvivalProbs:
    p_t = triangle_survival_prob(node_fraction)
    p_w = wedge_survival_prob(node_fraction)
    return SurvivalProbs(
        p_triangle=p_t,
        p_wedge=p_w,
        p_closed=p_t / p_w if p_w > 0 else 0.0,
    )


def unbiased_clustering_node_sampling(
    c_observed: float, node_fraction: float
) -> tuple[float, bool]:
    """Rescale the observed global clustering by the wedge/triangle survival
    ratio.  Returns (estimate clamped to [0, 1], clamp flag)."""
    if not 0.0 < node_fraction <= 1.0:
        raise SamplingError(f"node_fraction must be in (0, 1], got {node_fraction}")
    probs = survival_probs(node_fraction)
    # below f ~ 1e-162 the triangle survival underflows to 0, where the
    # ratio's limit is +inf: any observed clustering then clamps to 1
    ratio = probs.p_wedge / probs.p_triangle if probs.p_triangle > 0.0 else math.inf
    raw = ratio * c_observed if c_observed else 0.0
    return min(1.0, max(0.0, raw)), not 0.0 <= raw <= 1.0


def unbiased_degree_edge_sampling(d_known: int, edge_fraction: float) -> float:
    """Estimated true degree under random edge sampling with known fraction."""
    if not 0.0 < edge_fraction <= 1.0:
        raise SamplingError(f"edge_fraction must be in (0, 1], got {edge_fraction}")
    return d_known / edge_fraction


def unbiased_clustering_edge_sampling(
    c_observed: float, edge_fraction: float
) -> tuple[float, bool]:
    """Rescale observed global clustering by the edge survival probability.
    Returns (estimate clamped to [0, 1], clamp flag)."""
    if not 0.0 < edge_fraction <= 1.0:
        raise SamplingError(f"edge_fraction must be in (0, 1], got {edge_fraction}")
    raw = c_observed / edge_fraction
    return min(1.0, max(0.0, raw)), not 0.0 <= raw <= 1.0


def known_node_sample_estimates(obs: ObservedGraph, node_fraction: float) -> EstimateSet:
    """Closed-form estimates for a sample known to be random-node with the
    given selection fraction; spends no probes."""
    c_obs = global_clustering(obs)
    clustering, clamped = unbiased_clustering_node_sampling(c_obs, node_fraction)
    return EstimateSet(
        method=METHOD_KNOWN_NODE,
        scale_multiplier=unbiased_degree_node_sampling(1, node_fraction),
        clustering=clustering,
        probes_used=0,
        clustering_clamped=clamped,
    )


def known_edge_sample_estimates(obs: ObservedGraph, edge_fraction: float) -> EstimateSet:
    """Closed-form estimates for a sample known to be random-edge with the
    given fraction; spends no probes."""
    c_obs = global_clustering(obs)
    clustering, clamped = unbiased_clustering_edge_sampling(c_obs, edge_fraction)
    return EstimateSet(
        method=METHOD_KNOWN_EDGE,
        scale_multiplier=unbiased_degree_edge_sampling(1, edge_fraction),
        clustering=clustering,
        probes_used=0,
        clustering_clamped=clamped,
    )
