"""Property tests of a probe session over small random graphs, for every
sampler and every strategy: the budget holds, the probe log explains the
final observation, the observation stays a subgraph whose explored nodes
have complete neighbourhoods, and the observed-graph file round-trips."""

import io

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from netprobe.errors import EmptyGraphError, SamplingError
from netprobe.generators import random_graph
from netprobe.graphs import read_observed, write_observed
from netprobe.harness import KNOWN_SAMPLE_KINDS, run_session
from netprobe.probing import PHASE_ESTIMATION, ProbeLedger, probe
from netprobe.sampling import SAMPLER_NAMES, run_sampler
from netprobe.strategies import STRATEGIES


def _text(obs) -> str:
    sink = io.StringIO()
    write_observed(obs, sink)
    return sink.getvalue()


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
