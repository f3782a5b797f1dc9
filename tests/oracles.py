"""Independent brute-force reference implementations.

Everything here enumerates definitions directly (triples, pairs, BFS) and
stays deliberately separate from the library's counting code so the two
routes can disagree.  The one exception is a frozen copy of the library's
earlier label-keyed Louvain, the reference its partitions must equal.
"""

from __future__ import annotations

import random
from collections import defaultdict
from itertools import combinations


def adjacency(g):
    """Plain dict-of-sets adjacency with label keys, for either graph type."""
    nodes = g.nodes() if hasattr(g, "nodes") else g.labels()
    return {u: set(g.neighbors(u)) for u in nodes}


def brute_triangles(adj):
    count = 0
    for a, b, c in combinations(sorted(adj), 3):
        if b in adj[a] and c in adj[a] and c in adj[b]:
            count += 1
    return count


def brute_wedges(adj):
    count = 0
    for center in adj:
        count += sum(1 for _ in combinations(sorted(adj[center]), 2))
    return count


def brute_global_clustering(adj):
    w = brute_wedges(adj)
    if w == 0:
        return 0.0
    return 3.0 * brute_triangles(adj) / w


def brute_local_clustering(adj, u):
    neighbors = sorted(adj[u])
    if len(neighbors) < 2:
        return 0.0
    pairs = list(combinations(neighbors, 2))
    links = sum(1 for a, b in pairs if b in adj[a])
    return links / len(pairs)


def brute_two_hop_open_wedges(obs, u):
    """BFS to depth 2, then filter: distance exactly 2, unexplored."""
    adj = adjacency(obs)
    dist = {u: 0}
    frontier = [u]
    for level in (1, 2):
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in dist:
                    dist[w] = level
                    nxt.append(w)
        frontier = nxt
    return {
        w
        for w, d in dist.items()
        if d == 2 and w not in adj[u] and obs.is_candidate(w)
    }


def brute_max_out_scores(obs, est):
    """MaxOutProbe's score of every candidate by definition, label -> score:
    max(0, m̂·d − d − ĉ·w) with d the observed degree and w the open-wedge
    partner count."""
    adj = adjacency(obs)
    scores = {}
    for u in sorted(adj):
        if obs.is_candidate(u):
            d, w = len(adj[u]), len(brute_two_hop_open_wedges(obs, u))
            scores[u] = max(0.0, est.scale_multiplier * d - d - est.clustering * w)
    return scores


def brute_probe_estimates(g, obs, nodes):
    """The probe-based (m̂, ĉ, open-wedge count) by definition, for
    estimation probes of nodes in order on obs, which they reveal.

    m̂ is max(1, mean true/observed degree ratio); ĉ is the share of each
    node's open-wedge partners, found just before its probe, that are its
    true neighbours, or 0 without partners."""
    ratio_sum, n_partners, n_closed = 0.0, 0, 0
    for u in nodes:
        partners = brute_two_hop_open_wedges(obs, u)
        true_nbrs = set(g.neighbors(u))
        # a plain loop: sum() of floats rounds differently from 3.12 on
        ratio_sum += len(true_nbrs) / len(obs.neighbors(u))
        n_partners += len(partners)
        n_closed += len(partners & true_nbrs)
        obs.explore(u)
    m_hat = max(1.0, ratio_sum / len(nodes))
    return m_hat, n_closed / n_partners if n_partners else 0.0, n_partners


def by_label(obs, scores):
    """A scorer's {candidate index: score} map keyed by label, in its order."""
    return {obs._labels[i]: score for i, score in scores.items()}


def brute_edge_dispersion(obs, u, v):
    """Definitional enumeration over common-neighbor pairs."""
    adj = adjacency(obs)
    common = sorted(adj[u] & adj[v])
    count = 0
    for s, t in combinations(common, 2):
        if t in adj[s]:
            continue
        others = (adj[s] & adj[t]) - {u, v}
        if others:
            continue
        count += 1
    return count


def brute_closure_nodes(g, obs):
    """Node set after probing every candidate: every observed node's full
    ground-truth neighborhood joins the observation."""
    nodes = set(obs.nodes())
    for u in obs.nodes():
        nodes.update(g.neighbors(u))
    return nodes


def brute_ccdf_value(values, x):
    return sum(1 for v in values if v >= x) / len(values)


# The label-keyed Louvain that detect_communities replaced, kept verbatim but
# for its names, as the reference for partitions: dict-of-dicts keyed by the
# positions of the labels, built from the sorted label API.


def ref_local_move(
    adj: dict[int, dict[int, float]],
    total_weight: float,
    rng: random.Random,
) -> tuple[dict[int, int], bool]:
    """One level of Louvain local moving.  Returns (community map, improved)."""
    nodes = sorted(adj)
    community = {u: u for u in nodes}
    # strength = weighted degree incl. self-loops counted twice
    strength = {
        u: sum(w for v, w in adj[u].items() if v != u)
        + 2.0 * adj[u].get(u, 0.0)
        for u in nodes
    }
    comm_total = dict(strength)
    m2 = 2.0 * total_weight

    improved = False
    moved = True
    while moved:
        moved = False
        order = list(nodes)
        rng.shuffle(order)
        for u in order:
            cu = community[u]
            # weight from u to each neighboring community (self-loops excluded)
            links: dict[int, float] = defaultdict(float)
            for v, w in adj[u].items():
                if v != u:
                    links[community[v]] += w
            comm_total[cu] -= strength[u]
            best_comm = cu
            best_gain = links.get(cu, 0.0) - comm_total[cu] * strength[u] / m2
            for c, w_uc in links.items():
                if c == cu:
                    continue
                gain = w_uc - comm_total[c] * strength[u] / m2
                if gain > best_gain + 1e-12 or (
                    abs(gain - best_gain) <= 1e-12 and c < best_comm
                ):
                    best_gain = gain
                    best_comm = c
            comm_total[best_comm] += strength[u]
            if best_comm != cu:
                community[u] = best_comm
                moved = True
                improved = True
    return community, improved


def ref_aggregate(
    adj: dict[int, dict[int, float]], community: dict[int, int]
) -> tuple[dict[int, dict[int, float]], dict[int, int]]:
    """Collapse each community into one node, accumulating edge weights.

    Returns the new adjacency and the node -> super-node map.  Within-
    community weight becomes a self-loop (stored at half weight so that the
    degree bookkeeping above stays consistent).
    """
    comm_ids = sorted(set(community.values()))
    renumber = {c: i for i, c in enumerate(comm_ids)}
    node_map = {u: renumber[c] for u, c in community.items()}
    new_adj: dict[int, dict[int, float]] = {i: defaultdict(float) for i in range(len(comm_ids))}
    for u, neighbors in adj.items():
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
    return {u: dict(nbrs) for u, nbrs in new_adj.items()}, node_map


def ref_detect_communities(obs: ObservedGraph, seed: int = 0) -> dict[str, int]:
    """Partition the observed nodes by greedy modularity maximization.

    Returns a map from node label to community id; ids are renumbered by
    first appearance in label order, so equal seeds give identical output.
    """
    # sorted here, so that a wrong order from obs.nodes() cannot reach both
    labels = sorted(obs.nodes())
    if not labels:
        return {}
    index = {u: i for i, u in enumerate(labels)}
    adj: dict[int, dict[int, float]] = {
        index[u]: {index[v]: 1.0 for v in obs.neighbors(u)} for u in labels
    }
    total_weight = float(obs.n_edges)
    rng = random.Random(seed)

    # membership[i] tracks the current super-node of original node i
    membership = {i: i for i in range(len(labels))}
    while True:
        community, improved = ref_local_move(adj, total_weight, rng)
        if not improved or len(set(community.values())) == len(adj):
            # nothing moved, or every community is a singleton: done either
            # way, and the discarded move map cannot change the partition
            break
        adj, node_map = ref_aggregate(adj, community)
        membership = {i: node_map[membership[i]] for i in membership}

    raw = {labels[i]: membership[i] for i in range(len(labels))}
    renumber: dict[int, int] = {}
    partition: dict[str, int] = {}
    for u in labels:
        c = raw[u]
        if c not in renumber:
            renumber[c] = len(renumber)
        partition[u] = renumber[c]
    return partition
