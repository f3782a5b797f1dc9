"""Probe-selection strategies: the estimate-driven outside-degree ranking
plus the popular baselines (degree, dispersion, community-crossing,
clustering, random).

Every strategy scores the candidate nodes of an observed graph and a shared
selector takes the top b, breaking ties by ascending label so runs are
reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .communities import detect_communities
from .errors import ConfigError, UnknownNodeError
from .estimators import (
    DEFAULT_ESTIMATION_PROBES,
    EstimateSet,
    METHOD_PROBE,
    known_edge_sample_estimates,
    known_node_sample_estimates,
    probe_based_estimates,
)
from .graphs import (
    CompleteGraph,
    ObservedGraph,
    edge_dispersion,
    local_clustering,
    two_hop_open_wedges,
)
from .probing import ProbeLedger

HIGH = "high"
LOW = "low"


@dataclass(frozen=True)
class CandidateScore:
    """Ranking score for one candidate; the estimate-driven strategy also
    records its components (estimated true degree, observed degree, and the
    open-wedge partner count)."""

    node: str
    score: float
    est_degree: float = 0.0
    known_degree: int = 0
    open_wedge_count: int = 0


@dataclass(frozen=True)
class ProbePlan:
    strategy: str
    nodes: tuple[str, ...]
    scores: tuple[float, ...]


def _direction_sign(direction: str) -> float:
    if direction == HIGH:
        return 1.0
    if direction == LOW:
        return -1.0
    raise ConfigError(f"direction must be 'high' or 'low', got {direction!r}")


def score_max_out_probe(obs: ObservedGraph, est: EstimateSet) -> list[CandidateScore]:
    """Score candidates by estimated neighbors outside the observed graph.

    For candidate u: estimated true degree minus observed degree, minus the
    expected number of open-wedge partners that are really neighbors
    (clustering estimate times partner count).  Negative scores clamp to 0.
    """
    scores = []
    for u in obs.candidate_nodes():
        d_known = obs.degree(u)
        d_hat = est.scale_multiplier * d_known
        w_u = len(two_hop_open_wedges(obs, u))
        outside = d_hat - d_known - est.clustering * w_u
        scores.append(
            CandidateScore(
                node=u,
                score=max(0.0, outside),
                est_degree=d_hat,
                known_degree=d_known,
                open_wedge_count=w_u,
            )
        )
    return scores


def select_top_b(
    scores: Sequence[CandidateScore], b_remaining: int, strategy: str = ""
) -> ProbePlan:
    """The b_remaining highest-scoring candidates, ties by ascending label."""
    if b_remaining < 1:
        raise ConfigError(f"b_remaining must be at least 1, got {b_remaining}")
    ranked = sorted(scores, key=lambda s: (-s.score, s.node))[:b_remaining]
    return ProbePlan(
        strategy=strategy,
        nodes=tuple(s.node for s in ranked),
        scores=tuple(s.score for s in ranked),
    )


def score_degree(obs: ObservedGraph, direction: str = HIGH) -> list[CandidateScore]:
    sign = _direction_sign(direction)
    return [
        CandidateScore(node=u, score=sign * obs.degree(u), known_degree=obs.degree(u))
        for u in obs.candidate_nodes()
    ]


def score_dispersion(obs: ObservedGraph, direction: str = HIGH) -> list[CandidateScore]:
    """Mean dispersion of a candidate's incident observed edges (every
    observed node has at least one)."""
    sign = _direction_sign(direction)
    scores = []
    for u in obs.candidate_nodes():
        neighbors = obs.neighbors(u)
        mean_disp = sum(edge_dispersion(obs, u, v) for v in neighbors) / len(neighbors)
        scores.append(CandidateScore(node=u, score=sign * mean_disp, known_degree=len(neighbors)))
    return scores


def score_cross_comm(
    obs: ObservedGraph, partition: dict[str, int]
) -> list[CandidateScore]:
    """Fraction of a candidate's observed neighbors outside its community."""
    scores = []
    for u in obs.candidate_nodes():
        if u not in partition:
            raise UnknownNodeError(f"node {u!r} missing from the community partition")
        neighbors = obs.neighbors(u)
        cu = partition[u]
        outside = 0
        for v in neighbors:
            if v not in partition:
                raise UnknownNodeError(f"node {v!r} missing from the community partition")
            if partition[v] != cu:
                outside += 1
        scores.append(
            CandidateScore(node=u, score=outside / len(neighbors), known_degree=len(neighbors))
        )
    return scores


def score_clustering(obs: ObservedGraph, direction: str = HIGH) -> list[CandidateScore]:
    sign = _direction_sign(direction)
    return [
        CandidateScore(node=u, score=sign * local_clustering(obs, u))
        for u in obs.candidate_nodes()
    ]


def select_random(obs: ObservedGraph, b_remaining: int, seed: int) -> ProbePlan:
    """Uniform sample of candidates, without replacement, seed-deterministic."""
    if b_remaining < 1:
        raise ConfigError(f"b_remaining must be at least 1, got {b_remaining}")
    pool = obs.candidate_nodes()
    rng = random.Random(seed)
    chosen = rng.sample(pool, min(b_remaining, len(pool)))
    return ProbePlan(
        strategy="random",
        nodes=tuple(chosen),
        scores=tuple(0.0 for _ in chosen),
    )


Scorer = Callable[[ObservedGraph, int, EstimateSet | None], list[CandidateScore]]

# Strategy name -> scorer(obs, selection_seed, est), in the order the CLI
# lists them; random has no scorer and draws candidates uniformly.  Each
# scorer looks up the module's function when it is called, so replacing a
# module attribute (to trace it, say) reaches every strategy.
STRATEGIES: dict[str, Scorer | None] = {
    "maxoutprobe": lambda obs, seed, est: score_max_out_probe(obs, est),
    "highdeg": lambda obs, seed, est: score_degree(obs, HIGH),
    "lowdeg": lambda obs, seed, est: score_degree(obs, LOW),
    "highdisp": lambda obs, seed, est: score_dispersion(obs, HIGH),
    "lowdisp": lambda obs, seed, est: score_dispersion(obs, LOW),
    "crosscomm": lambda obs, seed, est: score_cross_comm(
        obs, detect_communities(obs, seed=seed)
    ),
    "highcc": lambda obs, seed, est: score_clustering(obs, HIGH),
    "lowcc": lambda obs, seed, est: score_clustering(obs, LOW),
    "random": None,
}
# The strategies that run the estimation phase first; their scorers get its
# EstimateSet as est, the others get None.
ESTIMATED = frozenset({"maxoutprobe"})


def lookup_strategy(name: str) -> Scorer | None:
    """The named strategy's scorer; ConfigError for an unknown name."""
    try:
        return STRATEGIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown strategy {name!r}; expected one of {tuple(STRATEGIES)}"
        ) from None


def estimate(
    g: CompleteGraph,
    obs: ObservedGraph,
    ledger: ProbeLedger,
    known_sample: tuple[str, float] | None = None,
    n_probes: int = DEFAULT_ESTIMATION_PROBES,
    seed: int = 0,
) -> EstimateSet | None:
    """Estimate the degree scale and the clustering of obs.

    known_sample ("node" or "edge", fraction) selects the closed-form
    estimators of a random-node or random-edge sample, which spend no
    probes.  Otherwise up to n_probes estimation probes are charged to the
    ledger, capped at half its budget so selection keeps at least half, at
    its remaining budget and at the number of candidates.  Returns None
    when that cap leaves no probe.
    """
    if known_sample is not None:
        kind, fraction = known_sample
        if kind == "node":
            return known_node_sample_estimates(obs, fraction)
        if kind == "edge":
            return known_edge_sample_estimates(obs, fraction)
        raise ConfigError(f"known_sample kind must be 'node' or 'edge', got {kind!r}")
    n_probes = min(
        n_probes, ledger.budget // 2, ledger.remaining, len(obs.candidate_nodes())
    )
    if n_probes < 1:
        return None
    return probe_based_estimates(g, obs, ledger, n_probes=n_probes, seed=seed)


def make_probe_plan(
    strategy: str,
    g: CompleteGraph,
    obs: ObservedGraph,
    ledger: ProbeLedger,
    selection_seed: int,
    estimation_seed: int = 0,
    estimation_probes: int = DEFAULT_ESTIMATION_PROBES,
    known_sample: tuple[str, float] | None = None,
    charge_estimation: bool = True,
) -> tuple[ProbePlan, EstimateSet | None]:
    """Build the probe plan for a named strategy against one observed graph.

    A strategy that needs estimates runs :func:`estimate` first, charging
    its probes unless charge_estimation is False.  Returns the plan over the
    remaining budget and the estimate set used, None for the other strategies.
    """
    scorer = lookup_strategy(strategy)
    est: EstimateSet | None = None
    if strategy in ESTIMATED:
        est = estimate(
            g, obs, ledger, known_sample, n_probes=estimation_probes, seed=estimation_seed
        )
        if est is None:
            # no budget to estimate: a neutral multiplier and zero
            # clustering fall back to ranking by observed degree
            est = EstimateSet(method=METHOD_PROBE, scale_multiplier=2.0, clustering=0.0)
        elif not charge_estimation:
            ledger.budget += est.probes_used
    if scorer is None:
        return select_random(obs, ledger.remaining, selection_seed), None
    scores = scorer(obs, selection_seed, est)
    return select_top_b(scores, ledger.remaining, strategy=strategy), est
