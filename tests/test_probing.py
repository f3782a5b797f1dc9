"""Probe contract: neighborhood revelation, statuses, budget accounting."""

import io
import random
import re

import pytest

from netprobe.errors import BudgetError, NetProbeError, NotCandidateError, UnknownNodeError
from netprobe.generators import random_graph
from netprobe.graphs import CompleteGraph, ObservedGraph
from netprobe.probing import (
    PHASE_ESTIMATION,
    PHASE_SELECTION,
    ProbeLedger,
    ProbeLogEntry,
    probe,
    write_probe_log,
)
from netprobe.sampling import sample_random_edge, sample_random_node

from oracles import brute_closure_nodes


def small_world():
    g = CompleteGraph([("u", "a"), ("u", "b"), ("u", "c"), ("a", "b")])
    obs = ObservedGraph(g)
    obs.add_edge("u", "a")
    return g, obs


class TestProbe:
    def test_reveals_full_neighborhood(self):
        g, obs = small_world()
        ledger = ProbeLedger(budget=2)
        entry = probe(g, obs, ledger, "u")
        assert entry == ledger.log[0]
        assert (entry.node, entry.new_nodes, entry.new_edges) == ("u", 2, 2)
        assert obs.nodes() == ["a", "b", "c", "u"]
        assert obs.neighbors("u") == ["a", "b", "c"]
        assert not obs.is_candidate("u")
        assert ledger.spent == 1

    def test_double_probe_rejected(self):
        g, obs = small_world()
        ledger = ProbeLedger(budget=5)
        probe(g, obs, ledger, "u")
        with pytest.raises(NotCandidateError):
            probe(g, obs, ledger, "u")

    def test_budget_exhaustion(self):
        g, obs = small_world()
        ledger = ProbeLedger(budget=1)
        probe(g, obs, ledger, "u")
        with pytest.raises(BudgetError):
            probe(g, obs, ledger, "a")

    def test_no_master_list(self):
        g, obs = small_world()
        ledger = ProbeLedger(budget=3)
        with pytest.raises(UnknownNodeError):
            probe(g, obs, ledger, "c")  # in G but not yet observed

    def test_only_incident_edges_revealed(self):
        # probing u must not reveal the (a,b) edge among its neighbors
        g, obs = small_world()
        ledger = ProbeLedger(budget=3)
        probe(g, obs, ledger, "u")
        assert not obs.has_edge("a", "b")

    def test_subgraph_and_explored_invariants_hold(self):
        rng = random.Random(3)
        for trial in range(15):
            g = random_graph(25, 0.25, seed=trial)
            obs, _ = sample_random_edge(g, 0.3, seed=trial)
            ledger = ProbeLedger(budget=5)
            pool = obs.candidate_nodes()
            for u in pool[:5]:
                probe(g, obs, ledger, u)
            for u in obs.nodes():
                for v in obs.neighbors(u):
                    assert g.has_edge(u, v)
            for u in obs.explored_nodes():
                assert obs.neighbors(u) == sorted(g.neighbors(u))


class TestExplorationGrowth:
    """ObservedGraph._growth_walk counts what probing a plan would add."""

    @staticmethod
    def world():
        # u-a and a-b observed, then b explored, which reveals u-b; u-c, c-d,
        # a-e and u-e unobserved
        g = CompleteGraph([("u", "a"), ("u", "b"), ("a", "b"), ("u", "c"),
                           ("c", "d"), ("a", "e"), ("u", "e")])
        obs = ObservedGraph(g)
        obs.add_edge("u", "a")
        obs.add_edge("a", "b")
        obs.explore("b")
        return g, obs

    def test_adjacent_planned_nodes_count_each_edge_once(self):
        g, obs = self.world()
        obs.add_edge("u", "e")
        # u-a is observed, a-e and u-e join planned nodes, only u-e observed
        plan = ["u", "a", "e"]
        ixs = [g._index[u] for u in plan]
        assert next(obs._growth_walk(ixs, [len(ixs)])) == (1, 2)
        ledger = ProbeLedger(budget=3)
        for u in plan:
            probe(g, obs, ledger, u)
        assert [(e.new_nodes, e.new_edges) for e in ledger.log] == [(1, 1), (0, 1), (0, 0)]

    @pytest.mark.parametrize("plan", [["u", "u"], ["u", "b"], ["a", "d"]])
    def test_a_plan_that_probing_refuses_raises_the_error_probe_raises(self, plan):
        # a repeated node, an explored node and one outside the observation
        g, obs = self.world()
        probed = obs.copy()
        ledger = ProbeLedger(budget=len(plan))
        with pytest.raises(NetProbeError) as refused:
            for u in plan:
                probe(g, probed, ledger, u)
        expected = refused.value
        with pytest.raises(type(expected), match=re.escape(str(expected))):
            next(obs._growth_walk([g._index[u] for u in plan], [len(plan)]))


class TestCandidates:
    def test_edge_sample_all_candidates(self):
        g = random_graph(20, 0.3, seed=1)
        obs, _ = sample_random_edge(g, 0.5, seed=1)
        assert obs.candidate_nodes() == obs.nodes()

    def test_node_sample_of_k4(self):
        g = CompleteGraph([("1", "2"), ("1", "3"), ("1", "4"),
                           ("2", "3"), ("2", "4"), ("3", "4")])
        obs, _ = sample_random_node(g, 0.5, seed=0)
        selected = obs.explored_nodes()[0]
        expected = sorted(set(g.labels()) - {selected})
        assert obs.candidate_nodes() == expected

    def test_probing_everything_empties_the_pool(self):
        g = random_graph(15, 0.3, seed=2)
        obs, _ = sample_random_edge(g, 0.5, seed=2)
        ledger = ProbeLedger(budget=g.n_nodes)
        while obs.candidate_nodes():
            probe(g, obs, ledger, obs.candidate_nodes()[0])
        assert obs.candidate_nodes() == []

    def test_closure_matches_oracle(self):
        rng = random.Random(8)
        for trial in range(20):
            g = random_graph(rng.randrange(10, 40), 0.2, seed=trial * 3)
            obs, _ = sample_random_edge(g, 0.4, seed=trial)
            expected = brute_closure_nodes(g, obs)
            ledger = ProbeLedger(budget=g.n_nodes)
            for u in list(obs.candidate_nodes()):
                probe(g, obs, ledger, u)
            assert set(obs.nodes()) == expected


class TestLedgerAndLog:
    def test_log_matches_spend(self):
        g = random_graph(20, 0.3, seed=5)
        obs, _ = sample_random_edge(g, 0.5, seed=5)
        ledger = ProbeLedger(budget=4)
        names = obs.candidate_nodes()[:4]
        probe(g, obs, ledger, names[0], phase=PHASE_ESTIMATION)
        for u in names[1:]:
            probe(g, obs, ledger, u)
        assert ledger.spent == 4
        assert len(ledger.log) == 4
        assert ledger.log[0].phase == PHASE_ESTIMATION
        assert [e.node for e in ledger.log] == names

    def test_spent_counts_the_log(self):
        entry = ProbeLogEntry(node="u", new_nodes=2, new_edges=2, phase=PHASE_SELECTION)
        ledger = ProbeLedger(budget=5, log=[entry, entry])
        assert ledger.spent == 2
        assert ledger.remaining == 3

    def test_csv_export(self):
        g, obs = small_world()
        ledger = ProbeLedger(budget=2)
        probe(g, obs, ledger, "u", phase=PHASE_ESTIMATION)
        probe(g, obs, ledger, "a")
        buf = io.StringIO()
        write_probe_log(ledger, buf)
        assert "\r" not in buf.getvalue()
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "phase,node,new_nodes,new_edges,spent_after"
        assert lines[1] == "estimation,u,2,2,1"
        assert lines[2].startswith("selection,a,")
