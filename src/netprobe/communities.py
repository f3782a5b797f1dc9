"""Greedy modularity community detection (Louvain-style).

Two-level iteration at resolution 1: move nodes between communities while
any move improves modularity, then collapse communities into super-nodes
and repeat.  The local move is the fast local move of Leiden (Traag,
Waltman & van Eck, "From Louvain to Leiden", Sci. Rep. 2019): each level
shuffles its nodes once with the seeded generator and visits them from a
FIFO queue in that order; when a node moves, each of its neighbours that
is not queued and not in the node's new community joins the back of the
queue, and the level ends when the queue is empty.  So the partition is
deterministic for a given seed, but it is not the one that versions with
the pass-based local move (one shuffle and one visit of every node per
pass, until a pass moves nothing) gave for the same seed.

Every level runs on positions: the observed nodes in label order (as
ObservedGraph lists them, from the label order the complete graph sorts
once at load) are positions 0..n-1.  A level is pairs[u], the list of u's
(neighbour position, weight) pairs without u itself, and strength[u], the
total degree of the observed nodes u stands for: the first level's
strengths are the degrees, and a super-node's is the sum of its members'.
Strengths are exact integer sums, and so is their total, twice the number
of observed edges.  These orders fix the partition of a seed:

* the shuffle of range(n) depends on the positions, that is on label order;
* ties in gain within 1e-12 go to the lower community id;
* the first level's pairs[u] holds its neighbours in ascending position,
  as detect_communities builds it in one walk over the positions in
  ascending order, appending each position to its neighbours' lists; each
  aggregated level lists them as _aggregate first meets them (u
  ascending, then pairs[u] in its order).  This fixes the order in which a
  node's links are summed, its candidate communities compared and its
  neighbours queued.  Every weight is a whole number, whose sums are
  exact, so the summing order can only matter between gains within 1e-12
  of each other.
"""

from __future__ import annotations

import random
from collections import defaultdict, deque

from .errors import UnknownNodeError
from .graphs import ObservedGraph

# per node of a level: its (neighbour position, weight) pairs, self excluded
Pairs = list[list[tuple[int, float]]]


def _local_move(pairs: Pairs, strength: list[float], rng: random.Random) -> list[int]:
    """One level of Louvain local moving, from a queue.  Returns the
    community of each node; some node moved iff there are fewer
    communities than nodes, as a node only joins a neighbour's community.

    Only nodes with pairs are queued: one without (a super-node holding a
    whole component) cannot move, and no node queues it.  Every node is
    still shuffled, so the generator's state is unchanged."""
    n = len(pairs)
    community = list(range(n))
    comm_total = list(strength)
    m2 = sum(strength)
    order = list(range(n))
    rng.shuffle(order)
    queue = deque(filter(pairs.__getitem__, order))
    queued = [True] * n

    while queue:
        u = queue.popleft()
        queued[u] = False
        cu = community[u]
        nbrs = pairs[u]
        su = strength[u]
        # weight from u to each neighboring community, summed in pair order
        links: dict[int, float] = {}
        get = links.get
        for v, w in nbrs:
            c = community[v]
            links[c] = get(c, 0.0) + w
        best_comm = cu
        best_gain = get(cu, 0.0) - (comm_total[cu] - su) * su / m2
        for c, w_uc in links.items():
            if c == cu:
                continue
            gain = w_uc - comm_total[c] * su / m2
            if gain > best_gain + 1e-12 or (
                abs(gain - best_gain) <= 1e-12 and c < best_comm
            ):
                best_gain = gain
                best_comm = c
        if best_comm != cu:
            comm_total[cu] -= su
            comm_total[best_comm] += su
            community[u] = best_comm
            for v, _ in nbrs:
                if not queued[v] and community[v] != best_comm:
                    queued[v] = True
                    queue.append(v)
    return community


def _aggregate(
    pairs: Pairs, strength: list[float], community: list[int]
) -> tuple[Pairs, list[float], list[int]]:
    """Collapse each community into one node, accumulating edge weights.

    Returns the new level's pairs and strengths and the node -> super-node
    map.  A super-node's strength is the sum of its members'; the weights
    between two super-nodes are listed in the order first met.
    """
    comm_ids = sorted(set(community))
    renumber = {c: i for i, c in enumerate(comm_ids)}
    node_map = [renumber[c] for c in community]
    new_strength = [0.0] * len(comm_ids)
    links: list[dict[int, float]] = [{} for _ in comm_ids]
    for u, nbrs in enumerate(pairs):
        cu = node_map[u]
        row = links[cu]
        new_strength[cu] += strength[u]
        for v, w in nbrs:
            cv = node_map[v]
            if cu != cv:
                row[cv] = row.get(cv, 0.0) + w
    return [list(row.items()) for row in links], new_strength, node_map


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
    # u ascending, so each list comes out in ascending position
    pairs: Pairs = [[] for _ in order]
    for u, ix in enumerate(order):
        pair = (u, 1.0)
        for v in map(position.__getitem__, nbrs[ix]):
            pairs[v].append(pair)
    strength = [float(len(p)) for p in pairs]
    rng = random.Random(seed)

    # membership[k] tracks the current super-node of position k
    membership = list(range(len(order)))
    while True:
        community = _local_move(pairs, strength, rng)
        if len(set(community)) == len(pairs):
            # nothing moved: the discarded move map cannot change the partition
            break
        pairs, strength, node_map = _aggregate(pairs, strength, community)
        membership = [node_map[c] for c in membership]

    renumber: dict[int, int] = {}
    partition: dict[str, int] = {}
    for ix, c in zip(order, membership):
        if c not in renumber:
            renumber[c] = len(renumber)
        partition[labels[ix]] = renumber[c]
    return partition


def communities_by_index(obs: ObservedGraph, partition: dict[str, int]) -> dict[int, int]:
    """The label-keyed partition keyed by observed node index.

    The partition must cover every observed node (UnknownNodeError if not).
    """
    labels = obs._labels
    try:
        return {i: partition[labels[i]] for i in obs._nbrs}
    except KeyError as exc:
        raise UnknownNodeError(
            f"node {exc.args[0]!r} missing from the community partition"
        ) from None


def modularity(obs: ObservedGraph, partition: dict[str, int]) -> float:
    """Newman modularity of a partition of the observed graph (weight 1).

    The partition must cover every observed node (UnknownNodeError if not).
    """
    community = communities_by_index(obs, partition)
    m = obs.n_edges
    if m == 0:
        return 0.0
    nbrs = obs._nbrs
    within = 0
    comm_degree: dict[int, int] = defaultdict(int)
    # communities first met in label order, the order their squares are summed
    for u in obs._in_label_order():
        cu = community[u]
        comm_degree[cu] += len(nbrs[u])
        within += sum(community[v] == cu for v in nbrs[u] if v > u)
    q = within / m
    q -= sum((d / (2.0 * m)) ** 2 for d in comm_degree.values())
    return q
