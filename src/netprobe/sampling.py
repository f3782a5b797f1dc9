"""Samplers that generate an incomplete observation of a complete graph.

Four edge-budget samplers (random node, random edge, random walk, random
walk with jump) plus a Bernoulli node sampler whose selection probability is
known exactly -- the model the closed-form estimators assume.  All samplers
are pure functions of (graph, parameters, seed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import SamplingError
from .graphs import CompleteGraph, ObservedGraph

DEFAULT_JUMP_PROB = 0.15
DEFAULT_EDGE_FRACTION = 0.10

SAMPLER_NAMES = ("randnode", "randedge", "rw", "rwj")


@dataclass(frozen=True)
class SampleFractions:
    """Achieved coverage of the complete graph.

    node_fraction is the fraction of nodes *selected* (fully explored or,
    for the Bernoulli sampler, the selection probability); edge_fraction is
    the fraction of edges observed.
    """

    node_fraction: float
    edge_fraction: float


def _check_edge_fraction(edge_fraction: float) -> None:
    if not 0.0 < edge_fraction <= 1.0:
        raise SamplingError(f"edge_fraction must be in (0, 1], got {edge_fraction}")


def _edge_target(g: CompleteGraph, edge_fraction: float) -> int:
    """The number of edges to observe, floor(edge_fraction * |E|) >= 1."""
    _check_edge_fraction(edge_fraction)
    m = int(edge_fraction * g.n_edges)
    if m == 0:
        raise SamplingError(f"edge_fraction {edge_fraction} selects zero of {g.n_edges} edges")
    return m


def _check_jump_prob(jump_prob: float) -> None:
    if not 0.0 <= jump_prob < 1.0:
        raise SamplingError(f"jump_prob must be in [0, 1), got {jump_prob}")


def check_sampler_args(sampler: str, edge_fraction: float, jump_prob: float) -> None:
    """Raise SamplingError unless run_sampler takes these arguments: a
    named sampler, an edge fraction in (0, 1] and, for rwj, a jump
    probability in [0, 1)."""
    if sampler not in SAMPLER_NAMES:
        raise SamplingError(f"unknown sampler {sampler!r}; expected one of {SAMPLER_NAMES}")
    _check_edge_fraction(edge_fraction)
    if sampler == "rwj":
        _check_jump_prob(jump_prob)


def sample_random_node(
    g: CompleteGraph, edge_fraction: float, seed: int
) -> tuple[ObservedGraph, SampleFractions]:
    """Select uniformly random nodes, each with its full neighborhood.

    Selection stops at the first node whose addition reaches
    floor(edge_fraction * |E|) observed edges, so the sample may overshoot
    the target by at most one neighborhood.  Selected nodes are EXPLORED,
    everything else CANDIDATE.
    """
    _check_edge_fraction(edge_fraction)
    rng = random.Random(seed)
    target = int(edge_fraction * g.n_edges)
    obs = ObservedGraph(g, origin="randnode", target_edge_fraction=edge_fraction)
    unselected = g.labels()
    n_selected = 0
    while unselected:
        pick_at = rng.randrange(len(unselected))
        u = unselected[pick_at]
        unselected[pick_at] = unselected[-1]
        unselected.pop()
        obs.explore(u)
        n_selected += 1
        if obs.n_edges >= target:
            break
    return obs, SampleFractions(n_selected / g.n_nodes, obs.n_edges / g.n_edges)


def sample_random_edge(
    g: CompleteGraph, edge_fraction: float, seed: int
) -> tuple[ObservedGraph, SampleFractions]:
    """Observe exactly floor(edge_fraction * |E|) edges, chosen uniformly
    without replacement.  No node is fully explored."""
    m = _edge_target(g, edge_fraction)
    rng = random.Random(seed)
    # index pairs in g.edges() order, so the draws match label pairs'
    all_edges = [(u, v) for u, neighbors in enumerate(g._adj) for v in neighbors if v > u]
    chosen = rng.sample(all_edges, m)
    obs = ObservedGraph(g, origin="randedge", target_edge_fraction=edge_fraction)
    for u, v in chosen:
        obs._link(u, v)
    return obs, SampleFractions(node_fraction=0.0, edge_fraction=m / g.n_edges)


def sample_random_walk(
    g: CompleteGraph,
    edge_fraction: float,
    jump_prob: float,
    seed: int,
    stall_threshold: int | None = None,
    max_steps: int | None = None,
    stats: dict | None = None,
) -> tuple[ObservedGraph, SampleFractions]:
    """Walk the complete graph, observing one traversed edge per step.

    With jump_prob > 0, each step first teleports to a uniformly random node
    with that probability (observing nothing).  Distinct observed edges
    accumulate until floor(edge_fraction * |E|) is reached.  A plain walk
    (jump_prob = 0) restarts at a uniform random node after stall_threshold
    consecutive steps without a new edge, so disconnected graphs still get
    covered.  No node is marked explored: a walk learns one edge at a time.

    If ``stats`` is given it is filled with step/jump/restart counters.
    """
    m = _edge_target(g, edge_fraction)
    _check_jump_prob(jump_prob)
    if stall_threshold is None:
        stall_threshold = 100 * g.n_nodes
    if max_steps is None:
        max_steps = max(1_000_000, 1000 * g.n_nodes)

    rng = random.Random(seed)
    origin = "rwj" if jump_prob > 0 else "rw"
    obs = ObservedGraph(g, origin=origin, target_edge_fraction=edge_fraction)
    # the walk steps on indices; randrange(n) and choice(adj[i]) draw as
    # choice(labels) and choice(g.neighbors(u)) would
    n = g.n_nodes
    adj = g._adj
    current = rng.randrange(n)
    steps = 0
    jumps = 0
    restarts = 0
    stalled = 0
    while obs.n_edges < m:
        steps += 1
        if steps > max_steps:
            raise SamplingError(
                f"walk step limit {max_steps} exceeded at "
                f"{obs.n_edges / g.n_edges:.4f} of {edge_fraction} edge fraction"
            )
        if jump_prob > 0 and rng.random() < jump_prob:
            current = rng.randrange(n)
            jumps += 1
            continue
        nxt = rng.choice(adj[current])
        if obs._link(current, nxt):
            stalled = 0
        else:
            stalled += 1
            if jump_prob == 0 and stalled > stall_threshold:
                current = rng.randrange(n)
                restarts += 1
                stalled = 0
                continue
        current = nxt
    if stats is not None:
        stats.update(steps=steps, jumps=jumps, restarts=restarts)
    return obs, SampleFractions(node_fraction=0.0, edge_fraction=obs.n_edges / g.n_edges)


def sample_node_bernoulli(
    g: CompleteGraph, node_prob: float, seed: int
) -> tuple[ObservedGraph, SampleFractions]:
    """Select each node independently with probability node_prob, with its
    full neighborhood.

    This is the selection model behind the closed-form degree and clustering
    estimators; node_fraction reports the design probability rather than the
    realized share so the estimators can consume it directly.
    """
    if not 0.0 < node_prob <= 1.0:
        raise SamplingError(f"node_prob must be in (0, 1], got {node_prob}")
    rng = random.Random(seed)
    obs = ObservedGraph(g, origin="bernoullinode", target_edge_fraction=0.0)
    selected = [u for u in g.labels() if rng.random() < node_prob]
    if not selected:
        raise SamplingError("no node selected; try a larger node_prob or another seed")
    for u in selected:
        obs.explore(u)
    obs.target_edge_fraction = obs.n_edges / g.n_edges
    return obs, SampleFractions(node_prob, obs.target_edge_fraction)


def run_sampler(
    g: CompleteGraph,
    sampler: str,
    edge_fraction: float,
    seed: int,
    jump_prob: float = DEFAULT_JUMP_PROB,
) -> tuple[ObservedGraph, SampleFractions]:
    """Dispatch one of the named samplers: randnode, randedge, rw, rwj."""
    check_sampler_args(sampler, edge_fraction, jump_prob)
    if sampler == "randnode":
        return sample_random_node(g, edge_fraction, seed)
    if sampler == "randedge":
        return sample_random_edge(g, edge_fraction, seed)
    return sample_random_walk(g, edge_fraction, jump_prob if sampler == "rwj" else 0.0, seed)
