"""Probe-selection strategies: the estimate-driven outside-degree ranking
plus the popular baselines (degree, dispersion, community-crossing,
clustering, random).

Every strategy but random maps the candidate nodes of an observed graph to
scores (see Scores) and one selector takes the top b, breaking ties by
ascending label so runs are reproducible.  A scorer is told b and may leave
out candidates that cannot be among the top b; MaxOutProbe does, the
baselines score every candidate.  The observed graph lists its candidates
once per state (ObservedGraph._candidate_ixs), and _by_degree ranks them by
degree once per state, for every plan made on it or on an unchanged copy.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Callable

from .communities import communities_by_index, detect_communities
from .errors import ConfigError
from .estimators import (
    DEFAULT_ESTIMATION_PROBES,
    FALLBACK_ESTIMATE,
    EstimateSet,
    known_edge_sample_estimates,
    known_node_sample_estimates,
    probe_based_estimates,
)
from .graphs import (
    CompleteGraph,
    ObservedGraph,
    _edge_dispersion,
    _local_clustering,
    two_hop_open_wedges,  # unused here; bench/tracing.py wraps it at this name
)
from .probing import ProbeLedger
from .sampling import SampleFractions

HIGH = "high"
LOW = "low"


# A ranking: candidates' complete-graph indices mapped to their scores, keys
# in ascending label order (the order of obs._candidate_ixs()), covering at
# least every candidate that can be among the top b of the full ranking;
# select_top_b relies on that order to break ties by label.
Scores = dict[int, float]


@dataclass(frozen=True)
class ProbePlan:
    nodes: tuple[str, ...]


def _check_b(b_remaining: int) -> None:
    if b_remaining < 1:
        raise ConfigError(f"b_remaining must be at least 1, got {b_remaining}")


def _plan(obs: ObservedGraph, ixs) -> ProbePlan:
    return ProbePlan(nodes=tuple(map(obs._labels.__getitem__, ixs)))


def _direction_sign(direction: str) -> float:
    if direction == HIGH:
        return 1.0
    if direction == LOW:
        return -1.0
    raise ConfigError(f"direction must be 'high' or 'low', got {direction!r}")


def score_max_out_probe(obs: ObservedGraph, est: EstimateSet, b: int | None = None) -> Scores:
    """Score candidates by estimated neighbors outside the observed graph.

    For candidate u with observed degree d: the estimated true degree m̂·d,
    minus d, minus the expected number of open-wedge partners that are
    really neighbors (the clustering estimate ĉ times the partner count w).
    Negative scores clamp to 0.

    Only candidates that can be among the top b are scored (b=None: every
    candidate).  The same expression with w = 0 bounds each score from
    above, as ĉ ≥ 0 (else ConfigError) and w ≥ 0, so candidates are
    visited by descending bound and the scan stops at the first bound below
    the b-th best score so far (the threshold algorithm of Fagin, Lotem and
    Naor).  A node's candidate neighbours are listed once per call, when a
    scanned candidate first reaches it.
    """
    nbrs = obs._nbrs
    order = obs._candidate_ixs()
    cands = set(order)
    m_hat, c_hat = est.scale_multiplier, est.clustering
    if not c_hat >= 0:  # also NaN
        raise ConfigError(f"clustering estimate must be at least 0, got {c_hat}")

    def score(d: int, w: int) -> float:
        return max(0.0, m_hat * d - d - c_hat * w)

    if b is None:
        b = len(order)
    elif b < 1:
        raise ConfigError(f"b must be at least 1, got {b}")
    # bounds by position in order; few distinct degrees, so one score call each
    degrees = list(map(len, map(nbrs.__getitem__, order)))
    bound_of = {d: score(d, 0) for d in set(degrees)}
    bounds = list(map(bound_of.__getitem__, degrees))
    best: list[float] = []  # min-heap of the b best scores so far
    scored = {}  # position -> score
    # observed node -> its candidate neighbours, a tuple: a set per entry
    # would double the call's peak memory
    cand_nbrs = {}
    # descending bound; a bound equal to the b-th best is still scored, so
    # every candidate that can tie it is there for the label tie-break
    for k in sorted(range(len(order)), key=bounds.__getitem__, reverse=True):
        if len(best) == b and bounds[k] < best[0]:
            break
        mine = nbrs[order[k]]
        # graphs._open_wedge_partners in bulk, less the candidate itself:
        # (∪ N(v)) ∩ C is the union of the entries N(v) ∩ C
        parts = []
        for v in mine:
            p = cand_nbrs.get(v)
            if p is None:
                p = cand_nbrs[v] = tuple(nbrs[v] & cands)
            parts.append(p)
        partners = set().union(*parts)
        partners -= mine
        s = scored[k] = score(degrees[k], len(partners) - 1)
        if len(best) < b:
            heapq.heappush(best, s)
        elif s > best[0]:
            heapq.heapreplace(best, s)
    return {order[k]: scored[k] for k in sorted(scored)}


def select_top_b(obs: ObservedGraph, scores: Scores, b_remaining: int) -> ProbePlan:
    """The b_remaining highest-scoring candidates, ties by ascending label.

    nlargest equals sorted(..., reverse=True)[:b], which is stable, so equal
    scores keep the label order of the keys.
    """
    _check_b(b_remaining)
    return _plan(obs, heapq.nlargest(b_remaining, scores, key=scores.__getitem__))


def score_degree(obs: ObservedGraph, direction: str = HIGH) -> Scores:
    sign = _direction_sign(direction)
    nbrs = obs._nbrs
    return {i: sign * len(nbrs[i]) for i in obs._candidate_ixs()}


def _by_degree(obs: ObservedGraph) -> list[int]:
    """obs's candidates by descending observed degree, ties by label: the
    ranking select_top_b makes of score_degree(obs, HIGH), sorted once per
    state of obs.  highdeg's plan and the estimation pool at budget b are
    its first b nodes; callers must not change the list."""
    derived = obs._derived_values()
    if "by_degree" not in derived:
        scores = score_degree(obs, HIGH)
        # sorted is stable also in reverse, so equal degrees keep label order
        derived["by_degree"] = sorted(scores, key=scores.__getitem__, reverse=True)
    return derived["by_degree"]


def score_dispersion(obs: ObservedGraph, direction: str = HIGH) -> Scores:
    """Mean dispersion of a candidate's incident observed edges (every
    observed node has at least one).

    An edge's dispersion counts pairs of its ends' common neighbours, so
    an edge with fewer than two common neighbours adds 0 and is skipped.
    """
    sign = _direction_sign(direction)
    nbrs = obs._nbrs
    scores = {}
    for i in obs._candidate_ixs():
        mine = nbrs[i]
        total = 0
        for j in mine:
            if len(mine & nbrs[j]) >= 2:
                total += _edge_dispersion(nbrs, i, j)
        scores[i] = sign * (total / len(mine))
    return scores


def score_cross_comm(obs: ObservedGraph, partition: dict[str, int]) -> Scores:
    """Fraction of a candidate's observed neighbors outside its community.

    The partition must cover every observed node (UnknownNodeError if not).
    """
    nbrs = obs._nbrs
    community = communities_by_index(obs, partition)
    scores = {}
    for i in obs._candidate_ixs():
        mine = nbrs[i]
        cu = community[i]
        outside = sum(community[j] != cu for j in mine)
        scores[i] = outside / len(mine)
    return scores


def score_clustering(obs: ObservedGraph, direction: str = HIGH) -> Scores:
    sign = _direction_sign(direction)
    nbrs = obs._nbrs
    return {i: sign * _local_clustering(nbrs, i) for i in obs._candidate_ixs()}


def select_random(obs: ObservedGraph, b_remaining: int, seed: int) -> ProbePlan:
    """Uniform sample of candidates, without replacement, seed-deterministic."""
    _check_b(b_remaining)
    pool = obs._candidate_ixs()
    return _plan(obs, random.Random(seed).sample(pool, min(b_remaining, len(pool))))


Scorer = Callable[[ObservedGraph, int, EstimateSet | None, int | None], Scores]

# Strategy name -> scorer(obs, selection_seed, est, b), in the order the CLI
# lists them; random has no scorer and draws candidates uniformly.  b is the
# number of probes the plan takes (None: rank every candidate); only
# maxoutprobe uses it, to skip candidates that cannot make the top b.  Each
# scorer looks up the module's function when it is called, so replacing a
# module attribute (to trace it, say) reaches every strategy.
# make_probe_plan cuts highdeg's plan from _by_degree, its scorer's ranking.
STRATEGIES: dict[str, Scorer | None] = {
    "maxoutprobe": lambda obs, seed, est, b: score_max_out_probe(obs, est, b),
    "highdeg": lambda obs, seed, est, b: score_degree(obs, HIGH),
    "lowdeg": lambda obs, seed, est, b: score_degree(obs, LOW),
    "highdisp": lambda obs, seed, est, b: score_dispersion(obs, HIGH),
    "lowdisp": lambda obs, seed, est, b: score_dispersion(obs, LOW),
    "crosscomm": lambda obs, seed, est, b: score_cross_comm(
        obs, detect_communities(obs, seed=seed)
    ),
    "highcc": lambda obs, seed, est, b: score_clustering(obs, HIGH),
    "lowcc": lambda obs, seed, est, b: score_clustering(obs, LOW),
    "random": None,
}
# The strategies that run the estimation phase first; their scorers get its
# EstimateSet as est, the others get None.
ESTIMATED = frozenset({"maxoutprobe"})
# The strategies whose plan reads neither the budget nor a seed: the plan at
# budget b is the first b nodes of the plan at any larger budget.
BUDGET_FREE = frozenset({"highdeg", "lowdeg", "highdisp", "lowdisp", "highcc", "lowcc"})


def lookup_strategy(name: str) -> Scorer | None:
    """The named strategy's scorer; ConfigError for an unknown name."""
    try:
        return STRATEGIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown strategy {name!r}; expected one of {tuple(STRATEGIES)}"
        ) from None


# The samplers whose samples estimate() maps to closed-form estimators, which
# it looks up in this module when it runs, as STRATEGIES does.
KNOWN_SAMPLERS = ("randnode", "randedge")


def estimate(
    g: CompleteGraph,
    obs: ObservedGraph,
    ledger: ProbeLedger,
    known_sample: tuple[str, SampleFractions] | None = None,
    n_probes: int = DEFAULT_ESTIMATION_PROBES,
    seed: int = 0,
) -> EstimateSet:
    """Estimate the degree scale and the clustering a plan ranks obs with.

    known_sample (sampler, fractions), as run_sampler returned them, selects
    a KNOWN_SAMPLERS sampler's closed-form estimators, which spend no probes
    (another sampler is a ConfigError).  Otherwise up to n_probes estimation
    probes are charged to the ledger, capped at half its budget so selection
    keeps at least half, at its remaining budget and at the number of
    candidates.  When that cap leaves no probe, it returns FALLBACK_ESTIMATE.
    """
    if known_sample is not None:
        sampler, fractions = known_sample
        if sampler == "randnode":
            return known_node_sample_estimates(obs, fractions.node_fraction)
        if sampler == "randedge":
            return known_edge_sample_estimates(obs, fractions.edge_fraction)
        raise ConfigError(f"known_sample needs a sampler in {KNOWN_SAMPLERS}, got {sampler!r}")
    n_candidates = len(obs._candidate_ixs())
    n_probes = min(n_probes, ledger.budget // 2, ledger.remaining, n_candidates)
    if n_probes < 1:
        return FALLBACK_ESTIMATE
    return probe_based_estimates(g, obs, ledger, n_probes=n_probes, seed=seed)


def make_probe_plan(
    strategy: str,
    g: CompleteGraph,
    obs: ObservedGraph,
    ledger: ProbeLedger,
    selection_seed: int,
    estimation_seed: int = 0,
    estimation_probes: int = DEFAULT_ESTIMATION_PROBES,
    known_sample: tuple[str, SampleFractions] | None = None,
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
        if not charge_estimation:
            ledger.budget += est.probes_used
    b = ledger.remaining
    if scorer is None:
        return select_random(obs, b, selection_seed), None
    if strategy == "highdeg":
        _check_b(b)
        return _plan(obs, _by_degree(obs)[:b]), est
    return select_top_b(obs, scorer(obs, selection_seed, est, b), b), est
