"""Synthetic graph generators for tests and benchmarks.

Planted-partition graphs give tunable clustering.  Labels are zero-padded
so label order matches numeric order.
"""

from __future__ import annotations

import random

from .graphs import CompleteGraph


def _label(i: int) -> str:
    return f"n{i:05d}"


def random_graph(n: int, p: float, seed: int) -> CompleteGraph:
    """Erdos-Renyi G(n, p).  Raises if no edge was drawn."""
    rng = random.Random(seed)
    edges = [
        (_label(i), _label(j))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return CompleteGraph(edges)


def planted_partition_graph(
    n_communities: int,
    community_size: int,
    p_in: float,
    p_out: float,
    seed: int,
) -> CompleteGraph:
    """Dense within-community blocks, sparse between: high clustering when
    p_in is large relative to p_out."""
    rng = random.Random(seed)
    n = n_communities * community_size
    edges = []
    for i in range(n):
        ci = i // community_size
        for j in range(i + 1, n):
            p = p_in if j // community_size == ci else p_out
            if p > 0 and rng.random() < p:
                edges.append((_label(i), _label(j)))
    return CompleteGraph(edges)


def hub_community_graph(
    n_communities: int,
    community_size: int,
    p_in: float,
    n_hubs: int,
    hub_degree: int,
    seed: int,
) -> CompleteGraph:
    """Dense small communities plus high-degree hubs wired to random bulk
    nodes.

    The communities supply triangles (high global clustering); the hubs
    supply the heavy-tailed, degree-disassortative structure of real social
    and information networks, where a hub's neighbors are mostly low-degree.
    Hub labels follow the bulk labels.
    """
    rng = random.Random(seed)
    edges = []
    n_bulk = n_communities * community_size
    for c in range(n_communities):
        members = list(range(c * community_size, (c + 1) * community_size))
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                if rng.random() < p_in:
                    edges.append((_label(a), _label(b)))
    for h in range(n_hubs):
        hub = n_bulk + h
        for target in rng.sample(range(n_bulk), hub_degree):
            edges.append((_label(hub), _label(target)))
    return CompleteGraph(edges)
