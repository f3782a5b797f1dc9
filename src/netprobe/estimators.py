"""Degree-scale and clustering estimation.

Two routes to the same pair of statistics:

* probe-based: spend part of the budget probing a random subset of the
  highest-degree candidates; the scale multiplier m̂ is the mean of their
  true/observed degree ratios, and the clustering estimate ĉ is the share
  of their open wedges, counted just before each probe, that the probe
  closes;
* closed-form: when the sample is known to come from random node or random
  edge sampling with a known fraction, scale observed quantities by the
  appropriate survival probabilities instead, spending no budget.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import BudgetError, EstimationError, SamplingError
from .graphs import (
    CompleteGraph,
    ObservedGraph,
    _open_wedge_partners,
    global_clustering,
    two_hop_open_wedges,  # unused here; bench/tracing.py wraps it at this name
)
from .probing import PHASE_ESTIMATION, ProbeLedger, probe

METHOD_PROBE = "probe_based"
METHOD_KNOWN_NODE = "known_node_sample"
METHOD_KNOWN_EDGE = "known_edge_sample"
METHOD_FALLBACK = "fallback"

DEFAULT_ESTIMATION_PROBES = 100


@dataclass(frozen=True)
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


# no probe was left to estimate with: the neutral m̂ = 2, ĉ = 0 stand in,
# which ranks candidates by observed degree
FALLBACK_ESTIMATE = EstimateSet(method=METHOD_FALLBACK, scale_multiplier=2.0, clustering=0.0)


def probe_based_estimates(
    g: CompleteGraph,
    obs: ObservedGraph,
    ledger: ProbeLedger,
    n_probes: int = DEFAULT_ESTIMATION_PROBES,
    seed: int = 0,
) -> EstimateSet:
    """Probe a random subset of the highest-observed-degree candidates and
    estimate the scale multiplier and the clustering from what they reveal.

    The pool is the ledger.budget highest-degree candidates (ties broken by
    label), from which min(n_probes, pool size) nodes are drawn uniformly:
    the prefix of strategies._by_degree(obs).  Each probe mutates obs and
    is charged to the ledger under the estimation phase.  Just before each
    probe, the node's true/observed degree ratio, its open-wedge partners
    and the partners among its true neighbours (the wedges the probe
    closes) are counted.

    The ratio mean is clamped to at least 1: a true degree cannot be below
    the observed one.  The clustering is closed wedges over open wedges, or
    0 when no probed node had an open-wedge partner.
    """
    # strategies imports this module, so it is imported only here
    from .strategies import _by_degree

    by_degree = _by_degree(obs)
    if not by_degree:
        raise EstimationError("no candidate nodes to estimate from")
    if n_probes <= 0:
        raise EstimationError(f"n_probes must be positive, got {n_probes}")
    if n_probes > ledger.remaining:
        raise BudgetError(
            f"{n_probes} estimation probes exceed remaining budget {ledger.remaining}"
        )
    nbrs, labels = obs._nbrs, obs._labels
    pool = by_degree[: ledger.budget]
    rng = random.Random(seed)
    chosen = rng.sample(pool, min(n_probes, len(pool)))

    ratio_sum = 0.0
    n_partners = n_closed = 0
    for i in chosen:
        true_nbrs = g._nbrs[i]
        partners = _open_wedge_partners(obs, i)
        ratio_sum += len(true_nbrs) / len(nbrs[i])
        n_partners += len(partners)
        n_closed += len(partners.intersection(true_nbrs))
        probe(g, obs, ledger, labels[i], phase=PHASE_ESTIMATION)

    raw = ratio_sum / len(chosen)
    return EstimateSet(
        method=METHOD_PROBE,
        scale_multiplier=max(1.0, raw),
        clustering=n_closed / n_partners if n_partners else 0.0,
        probes_used=len(chosen),
        scale_clamped=raw < 1.0,
    )


def _check_fraction(name: str, fraction: float) -> None:
    """A sampling fraction lies in (0, 1] and has a finite reciprocal."""
    if not 0.0 < fraction <= 1.0 or math.isinf(1.0 / fraction):
        raise SamplingError(f"{name} must be in (0, 1] with a finite reciprocal, got {fraction}")


def _scale_degree(d_known: int, name: str, fraction: float) -> float:
    """d_known / fraction, the estimated true degree, which must be finite."""
    _check_fraction(name, fraction)
    degree = d_known / fraction
    if not math.isfinite(degree):
        raise SamplingError(f"degree {d_known} / {name} {fraction} is not finite")
    return degree


def unbiased_degree_node_sampling(d_known: int, node_fraction: float) -> float:
    """Estimated true degree of an observed but unselected node, under
    random node sampling with known selection fraction."""
    return _scale_degree(d_known, "node_fraction", node_fraction)


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


def unbiased_clustering_node_sampling(
    c_observed: float, node_fraction: float
) -> tuple[float, bool]:
    """Rescale the observed global clustering by the wedge/triangle survival
    ratio.  Returns (estimate clamped to [0, 1], clamp flag)."""
    _check_fraction("node_fraction", node_fraction)
    p_triangle = triangle_survival_prob(node_fraction)
    # below f ~ 1e-162 the triangle survival underflows to 0, where the
    # ratio's limit is +inf: any observed clustering then clamps to 1
    ratio = wedge_survival_prob(node_fraction) / p_triangle if p_triangle > 0.0 else math.inf
    raw = ratio * c_observed if c_observed else 0.0
    return min(1.0, max(0.0, raw)), not 0.0 <= raw <= 1.0


def unbiased_degree_edge_sampling(d_known: int, edge_fraction: float) -> float:
    """Estimated true degree under random edge sampling with known fraction."""
    return _scale_degree(d_known, "edge_fraction", edge_fraction)


def unbiased_clustering_edge_sampling(
    c_observed: float, edge_fraction: float
) -> tuple[float, bool]:
    """Rescale observed global clustering by the edge survival probability.
    Returns (estimate clamped to [0, 1], clamp flag)."""
    _check_fraction("edge_fraction", edge_fraction)
    raw = c_observed / edge_fraction
    return min(1.0, max(0.0, raw)), not 0.0 <= raw <= 1.0


def known_node_sample_estimates(obs: ObservedGraph, node_fraction: float) -> EstimateSet:
    """Closed-form estimates for a sample known to be random-node with the
    given selection fraction; spends no probes."""
    clustering, clamped = unbiased_clustering_node_sampling(global_clustering(obs), node_fraction)
    return EstimateSet(method=METHOD_KNOWN_NODE,
                       scale_multiplier=unbiased_degree_node_sampling(1, node_fraction),
                       clustering=clustering, clustering_clamped=clamped)


def known_edge_sample_estimates(obs: ObservedGraph, edge_fraction: float) -> EstimateSet:
    """Closed-form estimates for a sample known to be random-edge with the
    given fraction; spends no probes."""
    clustering, clamped = unbiased_clustering_edge_sampling(global_clustering(obs), edge_fraction)
    return EstimateSet(method=METHOD_KNOWN_EDGE,
                       scale_multiplier=unbiased_degree_edge_sampling(1, edge_fraction),
                       clustering=clustering, clustering_clamped=clamped)
