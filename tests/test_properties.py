"""Property tests of a probe session over small random graphs, for every
sampler and every strategy: the budget holds, the probe log explains the
final observation, the observation stays a subgraph whose explored nodes
have complete neighbourhoods, the observed-graph file round-trips, and
every observation is a consistent graph whose counting primitives agree
with brute force and whose node listings are in label order, also when
the complete graph's index order differs from it.  A copy of an
observation is equal to it and independent of it, a reveal reports
exactly what it added, and the growth counted for a plan is what probing
the plan on a copy adds.  Every scorer keys its scores by candidate index in
label order, and the selector keeps the same top b as a full sort by
(-score, label); MaxOutProbe told b scores a
label-ordered subset of the candidates, with the same scores and the same
top b as the unbounded call.  The probe-based estimates equal a
brute-force replay of their probes.  On graphs whose index order differs
from their label order, Louvain equals the label-keyed reference with the
queue-based local move, and so does each of its steps on random weighted
levels with self-loops;
the dispersion, clustering and cross-community scores equal their
definitions.  The random-edge sampler draws the edges that drawing from
a list of every edge draws.  A sweep's rows equal the reference sweep's
on random grids with known samples and failing trials, a work unit's
outcomes equal its trials counted alone, also where the plan that a
budget-free ranker's trials share fails, and one walk along a plan counts
the growth of each of its prefixes.  Then properties
of the CCDF and AUC aggregation: the AUC equals a trapezoid sum over the
brute-force CCDF on any window."""

import io
import random
from dataclasses import replace
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from netprobe import harness, strategies
from netprobe.communities import _aggregate, _local_move, detect_communities
from netprobe.errors import (
    ConfigError,
    EmptyGraphError,
    NetProbeError,
    SamplingError,
    UnknownNodeError,
)
from netprobe.estimators import METHOD_PROBE, EstimateSet, probe_based_estimates
from netprobe.generators import planted_partition_graph, random_graph
from netprobe.graphs import (
    CompleteGraph,
    NodeStatus,
    count_triangles_wedges,
    edge_dispersion,
    local_clustering,
    read_observed,
    two_hop_open_wedges,
    write_observed,
)
from netprobe.harness import TrialConfig, auc, ccdf, common_range_aucs, run_session, sweep
from netprobe.probing import PHASE_ESTIMATION, ProbeLedger, probe
from netprobe.sampling import SAMPLER_NAMES, run_sampler, sample_random_edge, sample_random_walk
from netprobe.strategies import (
    BUDGET_FREE,
    HIGH,
    KNOWN_SAMPLERS,
    LOW,
    STRATEGIES,
    score_clustering,
    score_cross_comm,
    score_dispersion,
    score_max_out_probe,
    select_top_b,
)

from oracles import (
    adjacency,
    brute_auc,
    brute_edge_dispersion,
    brute_local_clustering,
    brute_max_out_scores,
    brute_probe_estimates,
    brute_triangles,
    brute_two_hop_open_wedges,
    brute_wedges,
    by_label,
    ref_aggregate,
    ref_detect_communities,
    ref_queue_local_move,
    ref_sample_random_edge,
    ref_sample_random_walk,
    ref_sweep,
    ref_trial,
)


def _text(obs) -> str:
    sink = io.StringIO()
    write_observed(obs, sink)
    return sink.getvalue()


def _check_representation(obs) -> None:
    """obs is a consistent undirected graph with one status per node, its
    node listings and its file's [status] section are in label order, and
    its counting primitives equal the brute-force oracles."""
    adj = adjacency(obs)
    assert all(u in adj[v] for u in adj for v in adj[u])
    assert 2 * obs.n_edges == sum(len(neighbors) for neighbors in adj.values())
    candidates, explored = obs.candidate_nodes(), obs.explored_nodes()
    assert candidates == sorted(candidates) and explored == sorted(explored)
    assert sorted(candidates + explored) == obs.nodes() == sorted(adj)
    # nodes() filters the label order on the neighbour sets, n_nodes counts them
    assert len(obs.nodes()) == obs.n_nodes
    status_lines = _text(obs).split("[status]\n")[1].splitlines()
    assert [line.split()[0] for line in status_lines] == obs.nodes()
    for u in adj:
        assert (obs.status(u) is NodeStatus.CANDIDATE) == obs.is_candidate(u)
    counts = count_triangles_wedges(obs)
    assert (counts.triangles, counts.wedges) == (brute_triangles(adj), brute_wedges(adj))
    for u in adj:
        assert local_clustering(obs, u) == pytest.approx(brute_local_clustering(adj, u))
    for u in candidates:
        assert two_hop_open_wedges(obs, u) == brute_two_hop_open_wedges(obs, u)
    for u in adj:
        for v in adj[u]:
            if u < v:
                assert edge_dispersion(obs, u, v) == brute_edge_dispersion(obs, u, v)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(6, 24),
    p=st.floats(0.1, 0.5),
    graph_seed=st.integers(0, 10_000),
    sampler=st.sampled_from(SAMPLER_NAMES),
    strategy=st.sampled_from(tuple(STRATEGIES)),
    edge_fraction=st.floats(0.1, 0.6),
    budget=st.integers(1, 30),
    estimation_probes=st.integers(1, 8),
    known=st.booleans(),
    charge=st.booleans(),
    relabel=st.booleans(),
    seed=st.integers(0, 2**32),
)
def test_session_invariants(
    n, p, graph_seed, sampler, strategy, edge_fraction, budget,
    estimation_probes, known, charge, relabel, seed,
):
    try:
        g = random_graph(n, p, seed=graph_seed)
        if relabel:
            g = _relabelled(g, random.Random(seed))
        obs, fractions = run_sampler(g, sampler, edge_fraction, seed)
    except (EmptyGraphError, SamplingError):
        assume(False)
    known_sample = (sampler, fractions) if known and sampler in KNOWN_SAMPLERS else None
    start = _text(obs)
    _check_representation(obs)

    ledger, est = run_session(
        g, obs, strategy, budget, seed,
        estimation_probes=estimation_probes, known_sample=known_sample,
        charge_estimation=charge,
    )

    # the budget is never exceeded; uncharged estimation probes extend it
    uncharged = est.probes_used if est is not None and not charge else 0
    assert ledger.budget == budget + uncharged
    assert ledger.spent == len(ledger.log) <= ledger.budget
    # logged nodes are distinct, estimation probes come first, and replaying
    # the log on the starting observation probes a candidate each time and
    # ends in the same observation
    nodes = [entry.node for entry in ledger.log]
    assert len(set(nodes)) == len(nodes)
    phases = [entry.phase == PHASE_ESTIMATION for entry in ledger.log]
    assert phases == sorted(phases, reverse=True)
    replay = read_observed(io.StringIO(start), g)
    replay_ledger = ProbeLedger(budget=len(nodes))
    for entry in ledger.log:
        assert replay.is_candidate(entry.node)
        probe(g, replay, replay_ledger, entry.node, phase=entry.phase)
    end = _text(obs)
    assert _text(replay) == end
    _check_representation(obs)
    _check_representation(replay)
    # the observation is a subgraph of the complete graph, and every
    # explored node's neighbourhood is complete
    for u in obs.nodes():
        assert all(g.has_edge(u, v) for v in obs.neighbors(u))
    for u in obs.explored_nodes():
        assert set(obs.neighbors(u)) == set(g.neighbors(u))
    # the observed-graph file round-trips
    again = read_observed(io.StringIO(end), g)
    assert _text(again) == end
    assert again.candidate_nodes() == obs.candidate_nodes()
    assert again.n_edges == obs.n_edges
    _check_representation(again)


def _edge_set(adj) -> set:
    return {frozenset((u, v)) for u in adj for v in adj[u]}


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(6, 24),
    p=st.floats(0.1, 0.5),
    graph_seed=st.integers(0, 10_000),
    sampler=st.sampled_from(SAMPLER_NAMES),
    edge_fraction=st.floats(0.1, 0.6),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_copy_is_independent_and_explore_counts_its_reveal(
    n, p, graph_seed, sampler, edge_fraction, seed, data
):
    try:
        g = random_graph(n, p, seed=graph_seed)
        obs, _ = run_sampler(g, sampler, edge_fraction, seed)
    except (EmptyGraphError, SamplingError):
        assume(False)
    start, n_edges = _text(obs), obs.n_edges
    copy = obs.copy()
    _check_representation(copy)
    # the file holds the nodes, edges, statuses, origin and target fraction
    assert _text(copy) == start
    assert copy.n_edges == n_edges
    # m̂ = |V| + 2, ĉ = 1 clamps no score and pins every degree and partner count
    for m_hat, c_hat in ((2.0, 0.5), (copy.n_nodes + 2, 1.0)):
        est = EstimateSet(method=METHOD_PROBE, scale_multiplier=m_hat, clustering=c_hat)
        scores = score_max_out_probe(copy, est)
        assert by_label(copy, scores) == brute_max_out_scores(copy, est)

    # explore any node of g on the copy, observed or not, explored or not
    for u in data.draw(st.lists(st.sampled_from(g.labels()), max_size=6)):
        before = adjacency(copy)
        new_nodes, new_edges = copy.explore(u)
        after = adjacency(copy)
        # u itself is not counted among the new nodes
        assert new_nodes == len(after.keys() - before.keys() - {u})
        assert new_edges == len(_edge_set(after) - _edge_set(before))
        assert copy.status(u) is NodeStatus.EXPLORED
        assert after[u] == set(g.neighbors(u))
    _check_representation(copy)
    assert _text(obs) == start
    assert obs.n_edges == n_edges


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(6, 24),
    p=st.floats(0.1, 0.8),
    graph_seed=st.integers(0, 10_000),
    sampler=st.sampled_from(SAMPLER_NAMES),
    edge_fraction=st.floats(0.1, 0.6),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_exploration_growth_equals_probing_the_plan_on_a_copy(
    n, p, graph_seed, sampler, edge_fraction, seed, data
):
    try:
        g = random_graph(n, p, seed=graph_seed)
        obs, _ = run_sampler(g, sampler, edge_fraction, seed)
    except (EmptyGraphError, SamplingError):
        assume(False)
    # explore some candidates first, as an estimation phase does; a randnode
    # sample holds explored nodes already
    for u in data.draw(st.lists(st.sampled_from(obs.candidate_nodes()), max_size=3, unique=True)):
        obs.explore(u)
    candidates = obs.candidate_nodes()
    assume(candidates)
    # on dense graphs, planned nodes are often adjacent, by an observed edge
    # or by one not yet observed
    plan = data.draw(st.permutations(candidates))[: data.draw(st.integers(1, len(candidates)))]
    start = _text(obs)
    ixs = [g._index[u] for u in plan]
    new_nodes, new_edges = next(obs._growth_walk(ixs, [len(ixs)]))
    assert _text(obs) == start
    probed = obs.copy()
    ledger = ProbeLedger(budget=len(plan))
    for u in plan:
        probe(g, probed, ledger, u)
    assert (new_nodes, new_edges) == (probed.n_nodes - obs.n_nodes, probed.n_edges - obs.n_edges)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(6, 24),
    p=st.floats(0.1, 0.5),
    graph_seed=st.integers(0, 10_000),
    sampler=st.sampled_from(SAMPLER_NAMES),
    edge_fraction=st.floats(0.1, 0.6),
    seed=st.integers(0, 2**32),
    strategy=st.sampled_from([name for name, scorer in STRATEGIES.items() if scorer]),
    # few distinct estimates, so that MaxOutProbe scores tie too
    m_hat=st.sampled_from([1.0, 1.5, 2.0, 4.0]),
    c_hat=st.sampled_from([0.0, 0.5, 1.0]),
)
def test_select_top_b_equals_the_full_label_tie_sort(
    n, p, graph_seed, sampler, edge_fraction, seed, strategy, m_hat, c_hat
):
    try:
        g = random_graph(n, p, seed=graph_seed)
        obs, _ = run_sampler(g, sampler, edge_fraction, seed)
    except (EmptyGraphError, SamplingError):
        assume(False)
    est = EstimateSet(method=METHOD_PROBE, scale_multiplier=m_hat, clustering=c_hat)
    scores = STRATEGIES[strategy](obs, seed, est, None)
    assert list(scores) == obs._candidate_ixs()
    # the selector's definition before score maps: sort every candidate by
    # (-score, label) and keep the first b
    candidates = [(obs._labels[i], score) for i, score in scores.items()]
    reference = [u for u, _ in sorted(candidates, key=lambda c: (-c[1], c[0]))]
    for b in range(1, len(candidates) + 2):
        assert select_top_b(obs, scores, b).nodes == tuple(reference[:b])
    if strategy == "highdeg":
        # make_probe_plan cuts highdeg's plans from this order
        assert [obs._labels[i] for i in strategies._by_degree(obs)] == reference


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(6, 24),
    p=st.floats(0.1, 0.5),
    graph_seed=st.integers(0, 10_000),
    sampler=st.sampled_from(SAMPLER_NAMES),
    edge_fraction=st.floats(0.1, 0.6),
    seed=st.integers(0, 2**32),
    # m̂ ≤ 1 clamps every bound to 0; under 1 + 2⁻⁵², m̂·d − d rounds so that
    # different degrees share a bound
    m_hat=st.floats(0.0, 50.0) | st.sampled_from([1.0, 2.0, 1.0 + 2.0**-52]),
    c_hat=st.floats(0.0, 5.0) | st.sampled_from([0.0, 1.0]),
)
def test_pruned_max_out_probe_keeps_the_top_b(
    n, p, graph_seed, sampler, edge_fraction, seed, m_hat, c_hat
):
    try:
        g = random_graph(n, p, seed=graph_seed)
        obs, _ = run_sampler(g, sampler, edge_fraction, seed)
    except (EmptyGraphError, SamplingError):
        assume(False)
    est = EstimateSet(method=METHOD_PROBE, scale_multiplier=m_hat, clustering=c_hat)
    full = score_max_out_probe(obs, est)
    assert list(full) == obs._candidate_ixs()
    for b in range(1, len(full) + 2):
        pruned = score_max_out_probe(obs, est, b)
        assert select_top_b(obs, pruned, b) == select_top_b(obs, full, b)
        # a label-ordered subset of the full keys, each with its full score
        assert list(pruned) == [i for i in full if i in pruned]
        assert all(pruned[i] == full[i] for i in pruned)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(6, 24),
    p=st.floats(0.1, 0.5),
    graph_seed=st.integers(0, 10_000),
    sampler=st.sampled_from(SAMPLER_NAMES),
    edge_fraction=st.floats(0.1, 0.6),
    budget=st.integers(1, 30),
    n_probes=st.integers(1, 8),
    seed=st.integers(0, 2**32),
)
def test_probe_based_estimates_equal_a_brute_force_replay(
    n, p, graph_seed, sampler, edge_fraction, budget, n_probes, seed
):
    try:
        g = random_graph(n, p, seed=graph_seed)
        obs, _ = run_sampler(g, sampler, edge_fraction, seed)
    except (EmptyGraphError, SamplingError):
        assume(False)
    start = obs.copy()
    adj = adjacency(start)
    # the probes are a seeded draw from the budget highest-(degree, label)
    # candidates
    pool = sorted(start.candidate_nodes(), key=lambda u: (-len(adj[u]), u))[:budget]
    assume(pool)
    n_probes = min(n_probes, budget)
    ledger = ProbeLedger(budget=budget)
    est = probe_based_estimates(g, obs, ledger, n_probes=n_probes, seed=seed)
    nodes = [entry.node for entry in ledger.log]
    assert all(entry.phase == PHASE_ESTIMATION for entry in ledger.log)
    assert est.probes_used == len(nodes) == ledger.spent
    assert nodes == random.Random(seed).sample(pool, min(n_probes, len(pool)))
    # m̂ and ĉ are exactly their definitions, replayed probe by probe
    m_hat, c_hat, _ = brute_probe_estimates(g, start, nodes)
    assert (est.scale_multiplier, est.clustering) == (m_hat, c_hat)
    assert _text(start) == _text(obs)


def _relabelled(g, rng):
    """g with its labels permuted, so that index order (first appearance in
    g's edge order) differs from label order."""
    labels = g.labels()
    shuffled = labels[:]
    rng.shuffle(shuffled)
    rename = dict(zip(labels, shuffled))
    return CompleteGraph([(rename[u], rename[v]) for u, v in g.edges()])


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(6, 40),
    p=st.floats(0.05, 0.5),
    graph_seed=st.integers(0, 10_000),
    sampler=st.sampled_from(SAMPLER_NAMES),
    edge_fraction=st.floats(0.1, 1.0),
    seed=st.integers(0, 2**32),
    louvain_seeds=st.lists(st.integers(0, 2**32), min_size=1, max_size=4),
)
def test_detect_communities_equals_the_label_keyed_reference(
    n, p, graph_seed, sampler, edge_fraction, seed, louvain_seeds
):
    try:
        g = _relabelled(random_graph(n, p, seed=graph_seed), random.Random(seed))
        obs, _ = run_sampler(g, sampler, edge_fraction, seed)
    except (EmptyGraphError, SamplingError):
        assume(False)
    for louvain_seed in louvain_seeds:
        partition = detect_communities(obs, seed=louvain_seed)
        ref = ref_detect_communities(obs, louvain_seed, local_move=ref_queue_local_move)
        # equal values in equal key order: labels ascending
        assert list(partition.items()) == list(ref.items())


def _dict_level(pairs, loops):
    """A pair-list level in the reference's dict-of-dicts form: each node's
    neighbours in pair order, then its self-loop if it has one."""
    return {
        u: {**dict(row), **({u: loop} if loop else {})}
        for u, (row, loop) in enumerate(zip(pairs, loops))
    }


@st.composite
def louvain_levels(draw):
    """Symmetric levels as _aggregate makes them: weights and self-loops in
    multiples of 1/2, each node's pairs in an arbitrary order."""
    n = draw(st.integers(1, 10))
    possible = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
    halves = st.integers(1, 16).map(lambda k: k / 2)
    pairs = [[] for _ in range(n)]
    for a, b in edges:
        w = draw(halves)
        pairs[a].append((b, w))
        pairs[b].append((a, w))
    loops = draw(st.lists(st.integers(0, 16).map(lambda k: k / 2), min_size=n, max_size=n))
    community = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return pairs, loops, community


def _strengths(pairs, loops):
    """Each node's weighted degree, its self-loop counted twice."""
    return [sum(w for _, w in row) + 2.0 * loop for row, loop in zip(pairs, loops)]


@settings(max_examples=300, deadline=None)
@given(level=louvain_levels(), seed=st.integers(0, 2**32))
def test_a_level_moves_and_aggregates_as_the_dict_reference(level, seed):
    pairs, loops, community = level
    total_weight = sum(w for row in pairs for _, w in row) / 2 + sum(loops)
    assume(total_weight > 0)
    strength = _strengths(pairs, loops)
    rng, ref_rng = random.Random(seed), random.Random(seed)
    moved = _local_move(pairs, strength, rng)
    ref_moved, ref_improved = ref_queue_local_move(
        _dict_level(pairs, loops), total_weight, ref_rng
    )
    assert moved == [ref_moved[u] for u in range(len(pairs))]
    assert (len(set(moved)) < len(pairs)) == ref_improved
    # equal generator states: one shuffle each
    assert rng.getstate() == ref_rng.getstate()

    new_pairs, new_strength, node_map = _aggregate(pairs, strength, community)
    ref_adj, ref_map = ref_aggregate(_dict_level(pairs, loops), dict(enumerate(community)))
    assert node_map == [ref_map[u] for u in range(len(pairs))]
    ref_pairs = [[(v, w) for v, w in ref_adj[c].items() if v != c] for c in range(len(ref_adj))]
    assert new_pairs == ref_pairs
    ref_loops = [ref_adj[c].get(c, 0.0) for c in range(len(ref_adj))]
    assert new_strength == _strengths(ref_pairs, ref_loops)


def test_a_neighbour_of_a_moved_node_is_queued_again_and_moves():
    # a star from 0 plus the link 2-3; seed 8 visits 0, 2, 3, 1.  0 joins
    # 1; 2 joins 3 and queues 0 again; 3 stays, and 1 stays with 0; 0 then
    # joins {2, 3} and queues 1, which follows it.  Without the second
    # visit, 1 would be left on its own.
    pairs = [
        [(1, 2.0), (2, 2.0), (3, 2.0)],
        [(0, 2.0)],
        [(0, 2.0), (3, 1.0)],
        [(0, 2.0), (2, 1.0)],
    ]
    loops = [0.0] * 4
    rng, ref_rng = random.Random(8), random.Random(8)
    moved = _local_move(pairs, _strengths(pairs, loops), rng)
    ref_moved, _ = ref_queue_local_move(_dict_level(pairs, loops), 7.0, ref_rng)
    assert moved == [ref_moved[u] for u in range(4)] == [3, 3, 3, 3]
    # one shuffle for the level, and no more draws
    once = random.Random(8)
    order = list(range(4))
    once.shuffle(order)
    assert order == [0, 2, 3, 1]
    assert rng.getstate() == ref_rng.getstate() == once.getstate()


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(6, 24),
    p=st.floats(0.1, 0.5),
    graph_seed=st.integers(0, 10_000),
    sampler=st.sampled_from(SAMPLER_NAMES),
    edge_fraction=st.floats(0.1, 0.6),
    seed=st.integers(0, 2**32),
    n_communities=st.integers(1, 4),
)
def test_baseline_scorers_equal_their_definitions(
    n, p, graph_seed, sampler, edge_fraction, seed, n_communities
):
    try:
        g = _relabelled(random_graph(n, p, seed=graph_seed), random.Random(seed))
        obs, _ = run_sampler(g, sampler, edge_fraction, seed)
    except (EmptyGraphError, SamplingError):
        assume(False)
    adj = adjacency(obs)
    candidates = obs.candidate_nodes()
    rng = random.Random(seed)
    partition = {u: rng.randrange(n_communities) for u in rng.sample(sorted(adj), len(adj))}
    for sign, direction in ((1.0, HIGH), (-1.0, LOW)):
        dispersion = {
            u: sign * (sum(brute_edge_dispersion(obs, u, v) for v in adj[u]) / len(adj[u]))
            for u in candidates
        }
        clustering = {u: sign * brute_local_clustering(adj, u) for u in candidates}
        for scores, expected in (
            (score_dispersion(obs, direction), dispersion),
            (score_clustering(obs, direction), clustering),
        ):
            assert list(scores) == obs._candidate_ixs()
            assert by_label(obs, scores) == expected
    cross = {
        u: sum(partition[v] != partition[u] for v in adj[u]) / len(adj[u]) for u in candidates
    }
    scores = score_cross_comm(obs, partition)
    assert list(scores) == obs._candidate_ixs()
    assert by_label(obs, scores) == cross
    # a partition that misses an observed node is rejected
    missing = rng.choice(sorted(adj))
    with pytest.raises(UnknownNodeError, match="missing from the community partition"):
        score_cross_comm(obs, {u: c for u, c in partition.items() if u != missing})


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 40),
    p=st.floats(0.05, 0.6),
    graph_seed=st.integers(0, 10_000),
    edge_fraction=st.floats(0.01, 1.0),
    seed=st.integers(0, 2**32),
)
def test_random_edge_sample_equals_the_edge_list_draw(n, p, graph_seed, edge_fraction, seed):
    # random.sample reads only its population's length, so positions drawn
    # from range(|E|) are the edges drawn from the list of every edge
    try:
        g = random_graph(n, p, seed=graph_seed)
        obs, fractions = sample_random_edge(g, edge_fraction, seed)
    except (EmptyGraphError, SamplingError):
        assume(False)
    ref = ref_sample_random_edge(g, edge_fraction, seed)
    assert _text(obs) == _text(ref)
    assert obs.n_edges == ref.n_edges
    assert fractions.edge_fraction == ref.n_edges / g.n_edges
    _check_representation(obs)


def _check_walk_equals_the_reference(g, edge_fraction, jump_prob, seed, **limits) -> dict:
    """sample_random_walk equals the walk through add_edge in its neighbour
    sets (insertion order too), edge count, fractions and stats, or raises
    the same error after the same stats; returns the stats."""
    stats, ref_stats = {}, {}
    try:
        ref = ref_sample_random_walk(g, edge_fraction, jump_prob, seed, stats=ref_stats, **limits)
    except SamplingError as exc:
        with pytest.raises(SamplingError) as raised:
            sample_random_walk(g, edge_fraction, jump_prob, seed, stats=stats, **limits)
        assert str(raised.value) == str(exc)
    else:
        obs, fractions = sample_random_walk(g, edge_fraction, jump_prob, seed, stats=stats, **limits)
        assert obs._nbrs == ref[0]._nbrs and list(obs._nbrs) == list(ref[0]._nbrs)
        assert obs.n_edges == ref[0].n_edges
        assert fractions == ref[1]
        assert obs.origin == ref[0].origin
    assert stats == ref_stats
    return stats


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 30),
    p=st.floats(0.05, 0.6),
    graph_seed=st.integers(0, 10_000),
    edge_fraction=st.floats(0.05, 1.0),
    jump_prob=st.one_of(st.just(0.0), st.floats(0.01, 0.9)),
    seed=st.integers(0, 2**32),
    stall_threshold=st.one_of(st.none(), st.integers(0, 5)),
    max_steps=st.one_of(st.none(), st.integers(0, 300)),
)
def test_the_walk_equals_the_walk_through_add_edge(
    n, p, graph_seed, edge_fraction, jump_prob, seed, stall_threshold, max_steps
):
    try:
        g = random_graph(n, p, seed=graph_seed)
    except EmptyGraphError:
        assume(False)
    assume(int(edge_fraction * g.n_edges) >= 1)
    _check_walk_equals_the_reference(g, edge_fraction, jump_prob, seed,
                                     stall_threshold=stall_threshold, max_steps=max_steps)


@pytest.mark.parametrize("max_steps", [None, 40])
def test_the_walk_equals_the_walk_through_add_edge_across_restarts(max_steps):
    # ten components: a plain walk covers them only by restarting
    g = CompleteGraph([(f"c{k}{a}", f"c{k}{b}") for k in range(10) for a, b in ("ab", "bc")])
    stats = _check_walk_equals_the_reference(g, 1.0, 0.0, 4, stall_threshold=2,
                                             max_steps=max_steps)
    assert stats["restarts"] > 0


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 30),
    p=st.floats(0.05, 0.6),
    graph_seed=st.integers(0, 10_000),
    sampler=st.sampled_from(SAMPLER_NAMES),
    edge_fraction=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**32),
)
def test_the_edge_count_is_half_the_neighbour_set_sizes(
    n, p, graph_seed, sampler, edge_fraction, seed
):
    try:
        g = random_graph(n, p, seed=graph_seed)
        obs, _ = run_sampler(g, sampler, edge_fraction, seed)
    except (EmptyGraphError, SamplingError):
        assume(False)
    assert obs.n_edges == sum(map(len, obs._nbrs.values())) // 2
    # read back from a file that lists its first edge twice more, once
    # reversed
    head, status = _text(obs).split("[status]\n")
    a, b = head.split("[edges]\n")[1].split("\n", 1)[0].split()
    read = read_observed(io.StringIO(f"{head}{a} {b}\n{b} {a}\n[status]\n{status}"), g)
    assert read.n_edges == sum(map(len, read._nbrs.values())) // 2 == obs.n_edges


def _failing_highcc(obs, seed, est, b):
    """The highcc scorer, failing on every sample with an odd edge count."""
    if obs.n_edges % 2:
        raise NetProbeError("injected scorer failure")
    return score_clustering(obs, HIGH)


@st.composite
def sweep_grids(draw):
    """A valid sweep grid over a small menu of values, so that its trials
    share samples and pair keys: rwj at two jump probabilities, the grid's
    own random trials, known samples for the samplers that have them, and
    no two configs equal but for their repeats or an unread jump."""
    def menu(values, most):
        return draw(st.lists(st.sampled_from(values), min_size=1, max_size=most, unique=True))

    config = st.builds(
        TrialConfig,
        sampler=st.sampled_from(menu(SAMPLER_NAMES, 3)),
        strategy=st.sampled_from(menu(("maxoutprobe", "highdeg", "crosscomm", "highcc", "random"), 3)),
        edge_fraction=st.sampled_from(menu((0.1, 0.2), 2)),
        budget_fraction=st.sampled_from(menu((0.1, 0.2), 2)),
        n_repeats=st.integers(1, 3),
        jump_prob=st.sampled_from((0.1, 0.5)),
        estimation_probes=st.integers(1, 5),
        known_sample=st.booleans(),
    ).map(lambda c: c if c.sampler in KNOWN_SAMPLERS else replace(c, known_sample=False))
    return draw(st.lists(config, min_size=1, max_size=8, unique_by=lambda c: replace(
        c, n_repeats=0, jump_prob=c.jump_prob if c.sampler == "rwj" else 0.0)))


# a grid on which each rule of the reference shows in the rows: two rwj
# jump probabilities at one budget, a random trial of the grid's own, added
# baselines under several keys, a known sample and failing highcc trials
_EXAMPLE_GRID = [
    TrialConfig("rwj", "highdeg", 0.2, 0.1, 2, jump_prob=0.1),
    TrialConfig("rwj", "maxoutprobe", 0.2, 0.1, 2, jump_prob=0.5, estimation_probes=3),
    TrialConfig("randedge", "maxoutprobe", 0.2, 0.2, 2, known_sample=True),
    TrialConfig("randedge", "random", 0.2, 0.2, 3),
    TrialConfig("randnode", "highcc", 0.2, 0.1, 2),
    TrialConfig("randnode", "highcc", 0.2, 0.2, 1),
]


# the grid's random trials come first, so an estimating trial ends each unit
_RANDOM_FIRST_GRID = [
    TrialConfig("randedge", "random", 0.2, 0.1, 2),
    TrialConfig("randedge", "maxoutprobe", 0.2, 0.1, 2, estimation_probes=4),
]


@settings(max_examples=60, deadline=None)
@given(
    grid=sweep_grids(),
    shape=st.tuples(st.integers(2, 6), st.integers(8, 12), st.integers(0, 10_000)),
    master_seed=st.integers(0, 2**32),
    jobs=st.just(1),
)
@example(grid=_EXAMPLE_GRID, shape=(3, 8, 5), master_seed=7, jobs=2)
@example(grid=_RANDOM_FIRST_GRID, shape=(3, 8, 5), master_seed=7, jobs=1)
def test_sweep_equals_the_reference_sweep(grid, shape, master_seed, jobs):
    n_blocks, block_size, graph_seed = shape
    g = planted_partition_graph(n_blocks, block_size, 0.5, 0.05, seed=graph_seed)
    assume(g.n_edges >= 10)
    # forked pool workers inherit the patched scorer
    with patch.dict(STRATEGIES, highcc=_failing_highcc):
        assert sweep(g, grid, master_seed, jobs=jobs) == ref_sweep(g, grid, master_seed)


def _outcome(trial, *args):
    """A trial's result, or its error's type and message."""
    try:
        return trial(*args)
    except NetProbeError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("sampler, known_sample", [
    *((sampler, False) for sampler in SAMPLER_NAMES),
    *((sampler, True) for sampler in KNOWN_SAMPLERS),
])
@pytest.mark.parametrize("strategy", tuple(STRATEGIES))
@settings(max_examples=6, deadline=None)
@given(
    shape=st.tuples(st.integers(2, 5), st.integers(6, 10), st.integers(0, 10_000)),
    budget_fraction=st.sampled_from((0.05, 0.2, 0.6)),
    estimation_probes=st.integers(1, 5),
    seeds=st.tuples(st.integers(0, 2**32), st.integers(0, 2**32)),
)
def test_a_counted_trial_leaves_its_sample_and_equals_the_probed_one(
    sampler, known_sample, strategy, shape, budget_fraction, estimation_probes, seeds
):
    n_blocks, block_size, graph_seed = shape
    sampler_seed, strategy_seed = seeds
    g = planted_partition_graph(n_blocks, block_size, 0.5, 0.05, seed=graph_seed)
    config = TrialConfig(sampler, strategy, 0.2, budget_fraction, 1,
                         estimation_probes=estimation_probes, known_sample=known_sample)
    try:
        sample, fractions = run_sampler(g, sampler, 0.2, sampler_seed, jump_prob=config.jump_prob)
    except (EmptyGraphError, SamplingError):
        assume(False)
    before = _text(sample)
    counted = _outcome(_counted, g, config, sample, fractions, strategy_seed)
    assert _text(sample) == before
    assert counted == _outcome(ref_trial, g, config, sampler_seed, strategy_seed)


def _counted(g, config, sample, fractions, strategy_seed):
    """The trial of config on a copy of sample counted alone: the outcome,
    or its error raised."""
    spec = harness._TrialSpec(config, 0, 0, strategy_seed)
    (outcome,) = harness._count_trials(g, [spec], sample.copy(), fractions)
    if isinstance(outcome, NetProbeError):
        raise outcome
    return outcome


def _unit_specs(names, budget_fractions, master_seed, **fields):
    """The specs of one sweep work unit: every named strategy at every
    budget, on the sample of repeat 0."""
    return [
        harness._TrialSpec.derive(
            master_seed, TrialConfig(strategy=name, budget_fraction=b, n_repeats=1, **fields), 0
        )
        for b in budget_fractions
        for name in names
    ]


@pytest.mark.parametrize("sampler", SAMPLER_NAMES)
@pytest.mark.parametrize("ranker", sorted(BUDGET_FREE))
@settings(max_examples=5, deadline=None)
@given(
    shape=st.tuples(st.integers(2, 5), st.integers(6, 10), st.integers(0, 10_000)),
    budget_fractions=st.lists(st.sampled_from((0.05, 0.1, 0.2, 0.5)), min_size=2, unique=True),
    also=st.lists(st.sampled_from(("maxoutprobe", "random", "highdeg", "lowcc")), unique=True),
    master_seed=st.integers(0, 2**32),
)
def test_a_unit_counts_each_trial_as_if_it_ran_alone(
    sampler, ranker, shape, budget_fractions, also, master_seed
):
    # a budget of every node always exceeds the candidates, as explored
    # nodes or ones the sample missed are no candidates
    budget_fractions = [*budget_fractions, 1.0]
    n_blocks, block_size, graph_seed = shape
    g = planted_partition_graph(n_blocks, block_size, 0.5, 0.05, seed=graph_seed)
    specs = _unit_specs(dict.fromkeys([ranker, *also]), budget_fractions, master_seed,
                        sampler=sampler, edge_fraction=0.2, estimation_probes=3)
    try:
        for spec in specs:
            harness._check_config(spec.config, g)
        sample, fractions = run_sampler(g, sampler, 0.2, specs[0].sampler_seed)
    except (EmptyGraphError, SamplingError, ConfigError):
        assume(False)
    assert len(sample.candidate_nodes()) < g.n_nodes
    before = _text(sample)
    unit = [o if isinstance(o, harness.TrialResult) else (type(o), str(o))
            for o in harness._run_unit(g, specs)]
    alone = [_outcome(_counted, g, spec.config, sample, fractions, spec.strategy_seed)
             for spec in specs]
    assert unit == alone
    assert _text(sample) == before


@pytest.mark.parametrize("fails_at", [None, 3])
@pytest.mark.parametrize("ranker", sorted(BUDGET_FREE))
def test_a_failing_shared_plan_fails_its_trials_as_if_each_ran_alone(ranker, fails_at):
    # fails_at None: planning raises, at every budget; else the shared plan
    # holds a node outside the sample at that place, and only the budgets
    # whose prefix reaches it fail, as the count of that prefix fails
    g = planted_partition_graph(4, 8, 0.5, 0.05, seed=3)
    specs = _unit_specs((ranker, "random"), (0.1, 0.2, 0.4), 5, sampler="rw", edge_fraction=0.2)
    sample, fractions = run_sampler(g, "rw", 0.2, specs[0].sampler_seed)
    outside = next(i for i, label in enumerate(g._labels) if not sample.has_node(label))

    def failing(obs, *args):
        if fails_at is None:
            raise NetProbeError(f"injected {ranker} failure")
        candidates = obs._candidate_ixs()
        ranked = candidates[:fails_at] + [outside]
        scores = dict.fromkeys(candidates, 0.0)
        scores.update((i, float(len(ranked) - k)) for k, i in enumerate(ranked))
        return scores

    # highdeg plans from the degree order, which score_degree ranks
    with patch.object(strategies, "score_degree", failing), \
            patch.dict(STRATEGIES, {ranker: failing}):
        outcomes = harness._run_unit(g, specs)
        alone = [_outcome(_counted, g, spec.config, sample, fractions, spec.strategy_seed)
                 for spec in specs]
    assert [(type(o), str(o)) if isinstance(o, NetProbeError) else o for o in outcomes] == alone
    mine = [o for o, spec in zip(outcomes, specs) if spec.config.strategy == ranker]
    if fails_at is None:
        assert [(type(o), str(o)) for o in mine] == [(NetProbeError, f"injected {ranker} failure")] * 3
    else:
        assert [type(o) for o in mine] == [harness.TrialResult, UnknownNodeError, UnknownNodeError]
    assert all(isinstance(o, harness.TrialResult) for o, spec in zip(outcomes, specs)
               if spec.config.strategy == "random")


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(6, 24),
    p=st.floats(0.1, 0.8),
    graph_seed=st.integers(0, 10_000),
    sampler=st.sampled_from(SAMPLER_NAMES),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_the_growth_walk_counts_each_prefix(n, p, graph_seed, sampler, seed, data):
    try:
        g = random_graph(n, p, seed=graph_seed)
        obs, _ = run_sampler(g, sampler, 0.3, seed)
    except (EmptyGraphError, SamplingError):
        assume(False)
    for u in data.draw(st.lists(st.sampled_from(obs.candidate_nodes()), max_size=2, unique=True)):
        obs.explore(u)
    candidates = obs.candidate_nodes()
    assume(candidates)
    ixs = [g._index[u] for u in data.draw(st.permutations(candidates))]
    # a plan that is no plan of candidates: an explored or repeated node
    # fails the walk where it stands, after the prefixes before it
    if data.draw(st.booleans()):
        explored = [g._index[u] for u in obs.explored_nodes()]
        bad = data.draw(st.sampled_from(explored + ixs))
        ixs.insert(data.draw(st.integers(0, len(ixs))), bad)
    ends = sorted(data.draw(st.sets(st.integers(0, len(ixs)), min_size=1)))
    start = _text(obs)
    walked = []
    try:
        for counts in obs._growth_walk(ixs, ends):
            walked.append(counts)
    except NetProbeError as exc:
        walked.append((type(exc), str(exc)))
    expected = []
    for end in ends:
        prefix = ixs[:end]
        expected.append(_outcome(next, obs._growth_walk(prefix, [len(prefix)])))
        if not isinstance(expected[-1][0], int):
            break
    assert walked == expected
    assert _text(obs) == start
    # and each counted prefix is what probing it on a copy adds
    for end, counts in zip(ends, walked):
        if isinstance(counts[0], int):
            probed = obs.copy()
            for i in ixs[:end]:
                probed.explore(g._labels[i])
            assert counts == (probed.n_nodes - obs.n_nodes, probed.n_edges - obs.n_edges)


finite = st.floats(-1e6, 1e6, allow_nan=False)
value_lists = st.lists(finite, min_size=1, max_size=40)


def _width_bound(width: float) -> float:
    """width, with room for the rounding of a trapezoid sum"""
    return max(0.0, width) * (1 + 1e-9) + 1e-9


@given(values=value_lists)
def test_ccdf_is_a_step_survival_curve(values):
    curve = ccdf(values)
    xs = [x for x, _ in curve]
    ys = [y for _, y in curve]
    assert xs == sorted(set(values))
    assert all(a < b for a, b in zip(xs, xs[1:]))
    assert all(a >= b for a, b in zip(ys, ys[1:]))
    assert all(0.0 < y <= 1.0 for y in ys)
    assert ys[0] == 1.0


@given(values=value_lists, window=st.tuples(finite, finite))
def test_auc_is_bounded_by_the_range_width(values, window):
    curve = ccdf(values)
    x_lo, x_hi = curve[0][0], curve[-1][0]
    assert 0.0 <= auc(curve) <= _width_bound(x_hi - x_lo)
    lo, hi = window
    assert 0.0 <= auc(curve, lo, hi) <= _width_bound(hi - lo)


@pytest.mark.parametrize("window", ["below", "across", "inside", "above"])
@given(values=value_lists, data=st.data())
def test_auc_equals_the_trapezoid_sum_of_the_counted_ccdf(window, values, data):
    """auc's steps are exactly the brute-force CCDF's values, on windows
    below, across, inside and above the support; a window end often falls
    on a point, where the step takes that point's y."""
    curve = ccdf(values)
    first, last = curve[0][0], curve[-1][0]
    support = st.one_of(st.sampled_from([x for x, _ in curve]), st.floats(first, last))
    below, above = st.floats(-2e6, first), st.floats(last, 2e6)
    ends = {
        "below": (below, below),
        "across": (st.one_of(below, support), st.one_of(support, above)),
        "inside": (support, support),
        "above": (above, above),
    }[window]
    x_lo, x_hi = sorted(data.draw(st.tuples(*ends)))
    assert auc(curve, x_lo, x_hi) == brute_auc(values, x_lo, x_hi)
    assert auc(curve) == brute_auc(values, first, last)


@given(curves=st.dictionaries(st.text(max_size=3), value_lists, min_size=1, max_size=5))
def test_common_range_aucs_are_bounded_by_the_shared_width(curves):
    built = {name: ccdf(values) for name, values in curves.items()}
    x_lo = max(c[0][0] for c in built.values())
    x_hi = min(c[-1][0] for c in built.values())
    areas = common_range_aucs(built)
    assert set(areas) == set(built)
    assert all(0.0 <= area <= _width_bound(x_hi - x_lo) for area in areas.values())
    # each area is its curve's over the shared window
    assert areas == {name: brute_auc(values, x_lo, x_hi) for name, values in curves.items()}
