"""Independent brute-force reference implementations.

Everything here enumerates definitions directly (triples, pairs, BFS) and
stays deliberately separate from the library's counting code so the two
routes can disagree.  The exceptions are frozen copies of earlier library
code: the label-keyed Louvain, whose partitions the library must equal
with the queue-based local move and match in modularity with the
pass-based one it replaced, and the line-by-line edge-list and
observed-graph readers with the per-pair graph construction and the
random-edge sampler that draws from a list of every edge: the library
must equal these.  The reference trial probes its plan node by node
through the public run_session, where the library counts what the plan
would add, and the reference sweep is built on it, with seeds, pairing and
row order of its own.  Two helpers serve the estimator tests and no
program: sample_node_bernoulli, the Bernoulli node selection the
closed-form estimators assume, and random_bipartite_graph, their
triangle-free control.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from dataclasses import replace
from itertools import combinations

from netprobe.errors import EmptyGraphError, NetProbeError, ParseError, SamplingError
from netprobe.generators import _label
from netprobe.graphs import CompleteGraph, LoadReport, ObservedGraph
from netprobe.harness import TrialResult, budget_from_fraction, derive_seed, run_session
from netprobe.sampling import SampleFractions, run_sampler


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


def brute_auc(values, x_lo, x_hi):
    """Trapezoid sum over [x_lo, x_hi] under the CCDF of values, with a
    vertex at each distinct value inside the window and every y counted
    from the values."""
    if x_hi <= x_lo:
        return 0.0
    xs = [x_lo, *sorted({v for v in values if x_lo < v < x_hi}), x_hi]
    ys = [brute_ccdf_value(values, x) for x in xs]
    area = 0.0
    for i in range(1, len(xs)):
        area += (xs[i] - xs[i - 1]) * (ys[i] + ys[i - 1]) / 2.0
    return area


# The label-keyed Louvain that detect_communities replaced, kept verbatim but
# for its names and the local_move parameter: dict-of-dicts keyed by the
# positions of the labels, built from the sorted label API.  With its
# pass-based ref_local_move it is the reference for partition quality; with
# ref_queue_local_move it is the reference for partitions.


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


def ref_queue_local_move(
    adj: dict[int, dict[int, float]],
    total_weight: float,
    rng: random.Random,
) -> tuple[dict[int, int], bool]:
    """One level of Louvain local moving from a queue, as Leiden's fast
    local move: one shuffle of the level's nodes, visited first in that
    order; a node that moves queues each neighbour that is neither queued
    nor in its new community.  Returns (community map, improved)."""
    nodes = sorted(adj)
    community = {u: u for u in nodes}
    strength = {
        u: sum(w for v, w in adj[u].items() if v != u)
        + 2.0 * adj[u].get(u, 0.0)
        for u in nodes
    }
    comm_total = dict(strength)
    m2 = 2.0 * total_weight

    queue = list(nodes)
    rng.shuffle(queue)
    improved = False
    while queue:
        u = queue.pop(0)
        cu = community[u]
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
            improved = True
            for v in adj[u]:
                if v != u and v not in queue and community[v] != best_comm:
                    queue.append(v)
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


def ref_detect_communities(
    obs: ObservedGraph, seed: int = 0, local_move=ref_local_move
) -> dict[str, int]:
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
        community, improved = local_move(adj, total_weight, rng)
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


def ref_complete_graph(edges, lines_read: int = 0) -> CompleteGraph:
    """A CompleteGraph built pair by pair: each self-loop and duplicate is
    dropped before its endpoints get an index."""
    index: dict[str, int] = {}
    labels: list[str] = []
    nbrs: list[set[int]] = []
    n_edges = duplicates = self_loops = 0
    for a, b in edges:
        if a == b:
            self_loops += 1
            continue
        ia = index.get(a)
        if ia is None:
            ia = index[a] = len(labels)
            labels.append(a)
            nbrs.append(set())
        ib = index.get(b)
        if ib is None:
            ib = index[b] = len(labels)
            labels.append(b)
            nbrs.append(set())
        if ib in nbrs[ia]:
            duplicates += 1
            continue
        nbrs[ia].add(ib)
        nbrs[ib].add(ia)
        n_edges += 1

    if not n_edges:
        raise EmptyGraphError("graph must contain at least one edge")

    g = CompleteGraph.__new__(CompleteGraph)
    g._index = index
    g._labels = labels
    g._by_label = sorted(range(len(labels)), key=labels.__getitem__)
    g._edge_ends = None
    g._nbrs = [sorted(neighbors) for neighbors in nbrs]
    g._n_edges = n_edges
    g.load_report = LoadReport(
        lines_read=lines_read,
        edges_kept=n_edges,
        duplicates_dropped=duplicates,
        self_loops_dropped=self_loops,
    )
    return g


def _check_second_label(lineno: int, label: str) -> None:
    """The one rule the readers gained after these copies were frozen."""
    if label.startswith("#"):
        raise ParseError(
            f"line {lineno}: node label {label!r} starts with '#', which marks a comment"
        )


def ref_load_edge_list(source) -> CompleteGraph:
    """The edge-list reader that iterates over the source's lines."""
    edges: list[tuple[str, str]] = []
    lines_read = 0
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        lines_read += 1
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(
                f"line {lineno}: expected 2 node labels, got {len(tokens)}"
            )
        _check_second_label(lineno, tokens[1])
        edges.append((tokens[0], tokens[1]))
    return ref_complete_graph(edges, lines_read=lines_read)


def ref_sample_random_edge(g: CompleteGraph, edge_fraction: float, seed: int) -> ObservedGraph:
    """The random-edge sampler that draws its edges from the list of every
    edge as a label pair, in g.edges() order."""
    rng = random.Random(seed)
    chosen = rng.sample(list(g.edges()), int(edge_fraction * g.n_edges))
    obs = ObservedGraph(g, origin="randedge", target_edge_fraction=edge_fraction)
    for u, v in chosen:
        obs.add_edge(u, v)
    return obs


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


def random_bipartite_graph(n_left: int, n_right: int, p: float, seed: int) -> CompleteGraph:
    """Random bipartite graph: triangle-free by construction."""
    rng = random.Random(seed)
    edges = [
        (_label(i), _label(n_left + j))
        for i in range(n_left)
        for j in range(n_right)
        if rng.random() < p
    ]
    return CompleteGraph(edges)


def ref_read_observed(source, g: CompleteGraph) -> ObservedGraph:
    """The observed-graph reader that iterates over the source's lines and
    checks on labels."""
    origin = ""
    target_fraction = 0.0
    section = None
    edges: list[tuple[str, str]] = []
    statuses: dict[str, str] = {}
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("origin:"):
                origin = body[len("origin:"):].strip()
            elif body.startswith("target_edge_fraction:"):
                try:
                    target_fraction = float(body[len("target_edge_fraction:"):])
                except ValueError:
                    target_fraction = math.nan
                if not 0.0 <= target_fraction <= 1.0:
                    raise ParseError(
                        f"line {lineno}: bad target_edge_fraction, expected a number in [0, 1]"
                    )
            continue
        if line == "[edges]":
            section = "edges"
            continue
        if line == "[status]":
            section = "status"
            continue
        tokens = line.split()
        if section == "edges":
            if len(tokens) != 2:
                raise ParseError(f"line {lineno}: expected 2 node labels")
            _check_second_label(lineno, tokens[1])
            edges.append((tokens[0], tokens[1]))
        elif section == "status":
            if len(tokens) != 2 or tokens[1] not in ("E", "C"):
                raise ParseError(f"line {lineno}: expected '<label> E|C'")
            if tokens[0] in statuses:
                raise ParseError(f"line {lineno}: second status entry for {tokens[0]!r}")
            statuses[tokens[0]] = tokens[1]
        else:
            raise ParseError(f"line {lineno}: content outside any section")

    obs = ObservedGraph(g, origin=origin, target_edge_fraction=target_fraction)
    for u, v in edges:
        obs.add_edge(u, v)
    for u in obs.nodes():
        if u not in statuses:
            raise ParseError(f"node {u!r} has an edge but no status entry")
    for u, flag in statuses.items():
        if not obs.has_node(u):
            raise ParseError(f"status entry for {u!r} but no incident edge")
        if flag == "E":
            if obs.degree(u) != g.degree(u):
                raise ParseError(
                    f"node {u!r} marked explored but its neighborhood is incomplete"
                )
            obs.mark_explored(u)
    return obs


def ref_trial(g: CompleteGraph, config, sampler_seed: int, strategy_seed: int) -> TrialResult:
    """The result harness.run_trial must return for a valid config: draw
    the sample, then probe the plan node by node."""
    obs, fractions = run_sampler(
        g, config.sampler, config.edge_fraction, sampler_seed, jump_prob=config.jump_prob
    )
    nodes_before = obs.n_nodes
    ledger, est = run_session(
        g, obs, config.strategy, budget_from_fraction(config.budget_fraction, g.n_nodes),
        strategy_seed, estimation_probes=config.estimation_probes,
        known_sample=(config.sampler, fractions) if config.known_sample else None,
    )
    return TrialResult(nodes_before, obs.n_nodes, obs.n_edges, ledger.spent, est)


def ref_sweep(g: CompleteGraph, grid, master_seed: int) -> list[dict]:
    """The rows harness.sweep must return for a valid grid, one ref_trial
    call per trial, each drawing its own sample, and no pool.

    The sampler seed comes from (sampler, repeat), the selection seed from
    (sampler, strategy, budget fraction, repeat).  A trial's baseline is
    the grid's first random trial with its (sampler, edge fraction, budget
    fraction, repeat and, for rwj alone, jump probability), else a random
    trial added after the grid's trials, in sorted key order.
    """

    def pair(config, repeat):
        jump = config.jump_prob if config.sampler == "rwj" else None
        return (config.sampler, config.edge_fraction, config.budget_fraction, repeat, jump)

    trials = [(config, repeat) for config in grid for repeat in range(config.n_repeats)]
    baseline = {}
    for config, repeat in trials:
        if config.strategy == "random":
            baseline.setdefault(pair(config, repeat), (config, repeat))
    added = {}
    for config, repeat in trials:
        key = pair(config, repeat)
        if key not in baseline and key not in added:
            added[key] = (replace(config, strategy="random"), repeat)
    trials += [added[key] for key in sorted(added)]
    baseline.update(added)

    outcomes = {}
    for config, repeat in trials:
        sampler_seed = derive_seed(master_seed, "sampler", config.sampler, repeat)
        selection_seed = derive_seed(master_seed, "selection", config.sampler,
                                     config.strategy, config.budget_fraction, repeat)
        try:
            result = ref_trial(g, config, sampler_seed, selection_seed)
        except NetProbeError:
            result = None
        outcomes[config, repeat] = (sampler_seed, result)

    rows = []
    for config, repeat in trials:
        sampler_seed, result = outcomes[config, repeat]
        _, base = outcomes[baseline[pair(config, repeat)]]
        row = dict.fromkeys(
            ("nodes_before", "nodes_after", "edges_after", "probes_spent",
             "c_hat", "m_hat", "improvement_vs_random"), "")
        row.update(sampler=config.sampler, strategy=config.strategy,
                   edge_fraction=config.edge_fraction,
                   budget_fraction=config.budget_fraction, repeat=repeat, seed=sampler_seed)
        if result is not None:
            row.update(nodes_before=result.nodes_before, nodes_after=result.nodes_after,
                       edges_after=result.edges_after, probes_spent=result.probes_spent)
            if result.estimate is not None:
                row.update(c_hat=result.estimate.clustering,
                           m_hat=result.estimate.scale_multiplier)
            if base is not None:
                row["improvement_vs_random"] = (
                    0.0 if config.strategy == "random"
                    else 100.0 * (result.nodes_after - base.nodes_after) / base.nodes_after
                )
        rows.append(row)
    return rows
