"""Greedy modularity community detection (Louvain-style).

Two-level iteration at resolution 1: move nodes between communities while
any move improves modularity, then collapse communities into super-nodes
and repeat.  Node visiting order is shuffled with a seeded generator so the
partition is deterministic for a given seed.

Every level runs on positions: the observed nodes in label order (as
ObservedGraph lists them, from the label order the complete graph sorts
once at load) are positions 0..n-1, adj[u] maps each neighbour position
of u to the edge weight, and the per-node state is held in lists.  These
orders keep the partition of a seed byte-identical to the label-keyed
original:

* each pass shuffles range(n) once with the seeded generator, so the
  visiting order depends on the positions, that is on label order;
* ties in gain within 1e-12 go to the lower community id;
* the first level's adj[u] holds its keys in ascending position, and each
  aggregated level inserts them as _aggregate first meets them (u
  ascending, then adj[u] in its order).  This fixes the order in which a
  node's links are summed and its candidate communities compared.  Every
  weight is a multiple of 1/2, whose sums are exact, so this order can only
  matter between gains within 1e-12 of each other.
"""

from __future__ import annotations

import random
from collections import defaultdict

from .graphs import ObservedGraph


def _local_move(
    adj: list[dict[int, float]],
    total_weight: float,
    rng: random.Random,
) -> tuple[list[int], bool]:
    """One level of Louvain local moving.  Returns (community list, improved)."""
    n = len(adj)
    community = list(range(n))
    # strength = weighted degree incl. self-loops counted twice
    strength = [
        sum(w for v, w in nbrs.items() if v != u) + 2.0 * nbrs.get(u, 0.0)
        for u, nbrs in enumerate(adj)
    ]
    comm_total = list(strength)
    m2 = 2.0 * total_weight
    # each node's (neighbour, weight) pairs in adj order, self-loops excluded
    pairs = [[(v, w) for v, w in nbrs.items() if v != u] for u, nbrs in enumerate(adj)]

    improved = False
    moved = True
    while moved:
        moved = False
        order = list(range(n))
        rng.shuffle(order)
        for u in order:
            cu = community[u]
            su = strength[u]
            # weight from u to each neighboring community, summed in adj order
            links: dict[int, float] = {}
            get = links.get
            for v, w in pairs[u]:
                c = community[v]
                links[c] = get(c, 0.0) + w
            comm_total[cu] -= su
            best_comm = cu
            best_gain = get(cu, 0.0) - comm_total[cu] * su / m2
            for c, w_uc in links.items():
                if c == cu:
                    continue
                gain = w_uc - comm_total[c] * su / m2
                if gain > best_gain + 1e-12 or (
                    abs(gain - best_gain) <= 1e-12 and c < best_comm
                ):
                    best_gain = gain
                    best_comm = c
            comm_total[best_comm] += su
            if best_comm != cu:
                community[u] = best_comm
                moved = True
                improved = True
    return community, improved


def _aggregate(
    adj: list[dict[int, float]], community: list[int]
) -> tuple[list[dict[int, float]], list[int]]:
    """Collapse each community into one node, accumulating edge weights.

    Returns the new adjacency and the node -> super-node map.  Within-
    community weight becomes a self-loop (stored at half weight so that the
    degree bookkeeping above stays consistent).
    """
    comm_ids = sorted(set(community))
    renumber = {c: i for i, c in enumerate(comm_ids)}
    node_map = [renumber[c] for c in community]
    new_adj: list[dict[int, float]] = [defaultdict(float) for _ in comm_ids]
    for u, neighbors in enumerate(adj):
        cu = node_map[u]
        for v, w in neighbors.items():
            cv = node_map[v]
            if u == v:
                new_adj[cu][cu] += w
            elif cu == cv:
                # each undirected within-community edge is seen from both
                # endpoints; accumulate half per sighting
                new_adj[cu][cu] += w / 2.0
            else:
                new_adj[cu][cv] += w
    return [dict(nbrs) for nbrs in new_adj], node_map


def detect_communities(obs: ObservedGraph, seed: int = 0) -> dict[str, int]:
    """Partition the observed nodes by greedy modularity maximization.

    Returns a map from node label to community id; ids are renumbered by
    first appearance in label order, so equal seeds give identical output.
    """
    labels = obs._labels
    nbrs = obs._nbrs
    order = obs._in_label_order()
    if not order:
        return {}
    position = {ix: k for k, ix in enumerate(order)}
    adj = [dict.fromkeys(sorted(map(position.__getitem__, nbrs[ix])), 1.0) for ix in order]
    total_weight = float(obs.n_edges)
    rng = random.Random(seed)

    # membership[k] tracks the current super-node of position k
    membership = list(range(len(order)))
    while True:
        community, improved = _local_move(adj, total_weight, rng)
        if not improved or len(set(community)) == len(adj):
            # nothing moved, or every community is a singleton: done either
            # way, and the discarded move map cannot change the partition
            break
        adj, node_map = _aggregate(adj, community)
        membership = [node_map[c] for c in membership]

    renumber: dict[int, int] = {}
    partition: dict[str, int] = {}
    for ix, c in zip(order, membership):
        if c not in renumber:
            renumber[c] = len(renumber)
        partition[labels[ix]] = renumber[c]
    return partition


def modularity(obs: ObservedGraph, partition: dict[str, int]) -> float:
    """Newman modularity of a partition of the observed graph (weight 1)."""
    m = obs.n_edges
    if m == 0:
        return 0.0
    within = 0
    comm_degree: dict[int, int] = defaultdict(int)
    for u in obs.nodes():
        cu = partition[u]
        comm_degree[cu] += obs.degree(u)
        for v in obs.neighbors(u):
            if u < v and partition[v] == cu:
                within += 1
    q = within / m
    q -= sum((d / (2.0 * m)) ** 2 for d in comm_degree.values())
    return q
