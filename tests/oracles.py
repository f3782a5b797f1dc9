"""Independent brute-force reference implementations.

Everything here enumerates definitions directly (triples, pairs, BFS) and
stays deliberately separate from the library's counting code so the two
routes can disagree.
"""

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
