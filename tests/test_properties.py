"""Property tests of a probe session over small random graphs, for every
sampler and every strategy: the budget holds, the probe log explains the
final observation, the observation stays a subgraph whose explored nodes
have complete neighbourhoods, the observed-graph file round-trips, and
every observation is a consistent graph whose counting primitives agree
with brute force.  Then properties of the CCDF and AUC aggregation."""

import io

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from netprobe.errors import EmptyGraphError, SamplingError
from netprobe.generators import random_graph
from netprobe.graphs import (
    NodeStatus,
    count_triangles_wedges,
    edge_dispersion,
    local_clustering,
    read_observed,
    two_hop_open_wedges,
    write_observed,
)
from netprobe.harness import KNOWN_SAMPLE_KINDS, auc, ccdf, common_range_aucs, run_session
from netprobe.probing import PHASE_ESTIMATION, ProbeLedger, probe
from netprobe.sampling import SAMPLER_NAMES, run_sampler
from netprobe.strategies import STRATEGIES

from oracles import (
    adjacency,
    brute_edge_dispersion,
    brute_local_clustering,
    brute_triangles,
    brute_two_hop_open_wedges,
    brute_wedges,
)


def _text(obs) -> str:
    sink = io.StringIO()
    write_observed(obs, sink)
    return sink.getvalue()


def _check_representation(obs) -> None:
    """obs is a consistent undirected graph with one status per node, and
    its counting primitives equal the brute-force oracles."""
    adj = adjacency(obs)
    assert all(u in adj[v] for u in adj for v in adj[u])
    assert 2 * obs.n_edges == sum(len(neighbors) for neighbors in adj.values())
    candidates, explored = obs.candidate_nodes(), obs.explored_nodes()
    assert sorted(candidates + explored) == obs.nodes() == sorted(adj)
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
    seed=st.integers(0, 2**32),
)
def test_session_invariants(
    n, p, graph_seed, sampler, strategy, edge_fraction, budget,
    estimation_probes, known, charge, seed,
):
    try:
        g = random_graph(n, p, seed=graph_seed)
        obs, fractions = run_sampler(g, sampler, edge_fraction, seed)
    except (EmptyGraphError, SamplingError):
        assume(False)
    known_sample = None
    if known and sampler in KNOWN_SAMPLE_KINDS:
        kind = KNOWN_SAMPLE_KINDS[sampler]
        fraction = fractions.node_fraction if kind == "node" else fractions.edge_fraction
        known_sample = (kind, fraction)
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
        assert obs.neighbor_set(u) == frozenset(g.neighbors(u))
    # the observed-graph file round-trips
    again = read_observed(io.StringIO(end), g)
    assert _text(again) == end
    assert again.candidate_nodes() == obs.candidate_nodes()
    assert again.n_edges == obs.n_edges
    _check_representation(again)


finite = st.floats(-1e6, 1e6, allow_nan=False)
value_lists = st.lists(finite, min_size=1, max_size=40)


def _width_bound(width: float) -> float:
    """width, with room for the rounding of a trapezoid sum"""
    return max(0.0, width) * (1 + 1e-9) + 1e-9


@given(values=value_lists)
def test_ccdf_is_a_step_survival_curve(values):
    curve = ccdf(values)
    xs = [x for x, _ in curve.points]
    ys = [y for _, y in curve.points]
    assert xs == sorted(set(values))
    assert all(a < b for a, b in zip(xs, xs[1:]))
    assert all(a >= b for a, b in zip(ys, ys[1:]))
    assert all(0.0 < y <= 1.0 for y in ys)
    assert ys[0] == 1.0


@given(values=value_lists, window=st.tuples(finite, finite))
def test_auc_is_bounded_by_the_range_width(values, window):
    curve = ccdf(values)
    x_lo, x_hi = curve.points[0][0], curve.points[-1][0]
    assert 0.0 <= curve.auc == auc(curve) <= _width_bound(x_hi - x_lo)
    lo, hi = window
    assert 0.0 <= auc(curve, lo, hi) <= _width_bound(hi - lo)


@given(curves=st.dictionaries(st.text(max_size=3), value_lists, min_size=1, max_size=5))
def test_common_range_aucs_are_bounded_by_the_shared_width(curves):
    built = {name: ccdf(values) for name, values in curves.items()}
    x_lo = max(c.points[0][0] for c in built.values())
    x_hi = min(c.points[-1][0] for c in built.values())
    areas = common_range_aucs(built)
    assert set(areas) == set(built)
    assert all(0.0 <= area <= _width_bound(x_hi - x_lo) for area in areas.values())
