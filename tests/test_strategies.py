"""Strategy scoring, selection, tie-breaking, and plan orchestration."""

import random

import pytest
from scipy import stats as scipy_stats

from netprobe.errors import ConfigError, UnknownNodeError
from netprobe.estimators import EstimateSet, METHOD_PROBE
from netprobe.generators import planted_partition_graph, random_graph
from netprobe.graphs import CompleteGraph, ObservedGraph
from netprobe.probing import ProbeLedger
from netprobe.sampling import sample_random_edge, sample_random_node
from netprobe.strategies import (
    CandidateScore,
    edge_dispersion,
    make_probe_plan,
    score_clustering,
    score_cross_comm,
    score_degree,
    score_dispersion,
    score_max_out_probe,
    select_random,
    select_top_b,
)

from oracles import brute_edge_dispersion


def probe_est(scale, clustering):
    return EstimateSet(method=METHOD_PROBE, scale_multiplier=scale, clustering=clustering)


def full_view(g):
    obs = ObservedGraph(g)
    for u, v in g.edges():
        obs.add_edge(u, v)
    return obs


def star(n_leaves=4):
    return CompleteGraph([("hub", f"leaf{i}") for i in range(n_leaves)])


class TestScoreMaxOutProbe:
    def test_component_arithmetic(self):
        edges = [("u", f"n{i}") for i in range(5)]
        edges += [("n0", f"w{i}") for i in range(10)]
        g = CompleteGraph(edges)
        obs = full_view(g)
        scores = {s.node: s for s in score_max_out_probe(obs, probe_est(10.0, 0.2))}
        u = scores["u"]
        assert u.known_degree == 5
        assert u.est_degree == pytest.approx(50.0)
        assert u.open_wedge_count == 10
        assert u.score == pytest.approx(50 - 5 - 0.2 * 10)

    def test_negative_scores_clamp_to_zero(self):
        edges = [("u", f"n{i}") for i in range(5)] + [("n0", f"w{i}") for i in range(4)]
        g = CompleteGraph(edges)
        obs = full_view(g)
        scores = {s.node: s for s in score_max_out_probe(obs, probe_est(1.0, 0.5))}
        # raw score for u: 5 - 5 - 0.5*4 = -2
        assert scores["u"].score == 0.0

    def test_zero_clustering_matches_degree_ranking(self):
        rng = random.Random(2)
        for trial in range(10):
            g = random_graph(rng.randrange(10, 30), 0.3, seed=trial)
            obs, _ = sample_random_edge(g, 0.5, seed=trial)
            mop = select_top_b(score_max_out_probe(obs, probe_est(3.7, 0.0)), 5)
            deg = select_top_b(score_degree(obs, "high"), 5)
            assert mop.nodes == deg.nodes

    def test_explored_nodes_not_scored(self):
        g = random_graph(20, 0.3, seed=3)
        obs, _ = sample_random_node(g, 0.4, seed=3)
        nodes = {s.node for s in score_max_out_probe(obs, probe_est(2.0, 0.1))}
        assert nodes == set(obs.candidate_nodes())


class TestSelectTopB:
    def test_tie_broken_by_label(self):
        scores = [
            CandidateScore(node="a", score=3.0),
            CandidateScore(node="c", score=5.0),
            CandidateScore(node="b", score=5.0),
        ]
        plan = select_top_b(scores, 2)
        assert plan.nodes == ("b", "c")

    def test_budget_exceeds_candidates(self):
        scores = [CandidateScore(node="a", score=1.0)]
        assert select_top_b(scores, 10).nodes == ("a",)

    def test_single_max(self):
        scores = [CandidateScore(node=n, score=s) for n, s in [("x", 1), ("y", 9), ("z", 2)]]
        assert select_top_b(scores, 1).nodes == ("y",)


class TestScoreDegree:
    def test_star_high_and_low(self):
        obs = full_view(star())
        high = select_top_b(score_degree(obs, "high"), 1)
        assert high.nodes == ("hub",)
        low = select_top_b(score_degree(obs, "low"), 2)
        assert low.nodes == ("leaf0", "leaf1")

    def test_equal_degrees_order_by_label(self):
        g = CompleteGraph([("a", "b"), ("c", "d")])
        obs = full_view(g)
        plan = select_top_b(score_degree(obs, "high"), 4)
        assert plan.nodes == ("a", "b", "c", "d")

    def test_direction_validated(self):
        with pytest.raises(ConfigError):
            score_degree(full_view(star()), "sideways")


class TestEdgeDispersion:
    def k4_view(self):
        return full_view(CompleteGraph(
            [("1", "2"), ("1", "3"), ("1", "4"), ("2", "3"), ("2", "4"), ("3", "4")]
        ))

    def test_k4_edges_zero(self):
        obs = self.k4_view()
        assert edge_dispersion(obs, "1", "2") == 0

    def test_gadget_one(self):
        g = CompleteGraph([("u", "v"), ("u", "s"), ("v", "s"), ("u", "t"), ("v", "t")])
        obs = full_view(g)
        assert edge_dispersion(obs, "u", "v") == 1

    def test_few_common_neighbors_zero(self):
        g = CompleteGraph([("u", "v"), ("u", "s"), ("v", "s")])
        obs = full_view(g)
        assert edge_dispersion(obs, "u", "v") == 0

    def test_non_edge_rejected(self):
        g = CompleteGraph([("a", "b"), ("b", "c")])
        obs = full_view(g)
        with pytest.raises(UnknownNodeError):
            edge_dispersion(obs, "a", "c")

    def test_matches_brute_force(self):
        rng = random.Random(7)
        for trial in range(20):
            g = random_graph(rng.randrange(8, 25), rng.uniform(0.2, 0.6), seed=trial)
            obs, _ = sample_random_edge(g, 0.7, seed=trial)
            for u in obs.nodes():
                for v in obs.neighbors(u):
                    if u < v:
                        assert edge_dispersion(obs, u, v) == brute_edge_dispersion(obs, u, v)


class TestScoreDispersion:
    def test_k4_members_zero(self):
        obs = TestEdgeDispersion().k4_view()
        assert all(s.score == 0.0 for s in score_dispersion(obs, "high"))

    def test_gadget_average(self):
        g = CompleteGraph([("u", "v"), ("u", "s"), ("v", "s"), ("u", "t"), ("v", "t")])
        obs = full_view(g)
        scores = {s.node: s.score for s in score_dispersion(obs, "high")}
        # u's incident edges: (u,v) disp 1, (u,s) disp 0, (u,t) disp 0
        assert scores["u"] == pytest.approx(1 / 3)
        assert scores["s"] == 0.0

    def test_low_negates(self):
        g = CompleteGraph([("u", "v"), ("u", "s"), ("v", "s"), ("u", "t"), ("v", "t")])
        obs = full_view(g)
        high = {s.node: s.score for s in score_dispersion(obs, "high")}
        low = {s.node: s.score for s in score_dispersion(obs, "low")}
        assert low["u"] == -high["u"]


class TestScoreCrossComm:
    def test_fraction_outside(self):
        g = CompleteGraph([("u", "a"), ("u", "b"), ("u", "c"), ("u", "d")])
        obs = full_view(g)
        partition = {"u": 0, "a": 0, "b": 1, "c": 1, "d": 2}
        scores = {s.node: s.score for s in score_cross_comm(obs, partition)}
        assert scores["u"] == pytest.approx(0.75)

    def test_all_inside_is_zero(self):
        g = CompleteGraph([("u", "a"), ("u", "b")])
        obs = full_view(g)
        scores = {s.node: s.score for s in score_cross_comm(obs, {"u": 0, "a": 0, "b": 0})}
        assert scores["u"] == 0.0

    def test_missing_node_rejected(self):
        obs = full_view(star())
        with pytest.raises(UnknownNodeError):
            score_cross_comm(obs, {"hub": 0})


class TestScoreClustering:
    def test_k4_member(self):
        obs = TestEdgeDispersion().k4_view()
        scores = {s.node: s.score for s in score_clustering(obs, "high")}
        assert all(v == 1.0 for v in scores.values())

    def test_star_center(self):
        obs = full_view(star())
        scores = {s.node: s.score for s in score_clustering(obs, "high")}
        assert scores["hub"] == 0.0

    def test_triangle_with_pendant_apex(self):
        g = CompleteGraph([("a", "b"), ("b", "c"), ("a", "c"), ("a", "p")])
        obs = full_view(g)
        scores = {s.node: s.score for s in score_clustering(obs, "high")}
        assert scores["a"] == pytest.approx(1 / 3)


class TestSelectRandom:
    def test_all_when_budget_large(self):
        g = random_graph(12, 0.4, seed=1)
        obs, _ = sample_random_edge(g, 0.6, seed=1)
        plan = select_random(obs, 100, seed=5)
        assert sorted(plan.nodes) == obs.candidate_nodes()

    def test_deterministic(self):
        g = random_graph(20, 0.3, seed=2)
        obs, _ = sample_random_edge(g, 0.5, seed=2)
        assert select_random(obs, 5, seed=9).nodes == select_random(obs, 5, seed=9).nodes

    def test_uniform_over_candidates(self):
        g = random_graph(15, 0.4, seed=3)
        obs, _ = sample_random_edge(g, 0.8, seed=3)
        pool = obs.candidate_nodes()
        counts = {u: 0 for u in pool}
        draws = 4000
        for seed in range(draws):
            picked = select_random(obs, 1, seed=seed).nodes[0]
            counts[picked] += 1
        _, p_value = scipy_stats.chisquare(list(counts.values()))
        assert p_value > 0.01


class TestMakeProbePlan:
    def setup_sample(self, seed=0):
        g = planted_partition_graph(8, 10, 0.5, 0.02, seed=seed)
        obs, fractions = sample_random_edge(g, 0.2, seed=seed)
        return g, obs, fractions

    def test_unknown_strategy(self):
        g, obs, _ = self.setup_sample()
        with pytest.raises(ConfigError):
            make_probe_plan("meud", g, obs, ProbeLedger(budget=5), selection_seed=1)

    def test_maxoutprobe_spends_estimation_budget(self):
        g, obs, _ = self.setup_sample()
        ledger = ProbeLedger(budget=10)
        plan, est = make_probe_plan(
            "maxoutprobe", g, obs, ledger,
            selection_seed=1, estimation_seed=2, estimation_probes=4,
        )
        assert est is not None
        assert est.probes_used == 4
        assert len(plan.nodes) == 6  # remaining budget
        assert ledger.spent == 4

    def test_estimation_capped_at_half_budget(self):
        g, obs, _ = self.setup_sample()
        ledger = ProbeLedger(budget=10)
        _, est = make_probe_plan(
            "maxoutprobe", g, obs, ledger,
            selection_seed=1, estimation_seed=2, estimation_probes=100,
        )
        assert est.probes_used == 5

    def test_known_sample_spends_nothing(self):
        g, obs, fractions = self.setup_sample()
        ledger = ProbeLedger(budget=10)
        plan, est = make_probe_plan(
            "maxoutprobe", g, obs, ledger,
            selection_seed=1,
            known_sample=("edge", fractions.edge_fraction),
        )
        assert est.probes_used == 0
        assert ledger.spent == 0
        assert len(plan.nodes) == 10

    def test_uncharged_estimation_restores_budget(self):
        g, obs, _ = self.setup_sample()
        ledger = ProbeLedger(budget=10)
        plan, est = make_probe_plan(
            "maxoutprobe", g, obs, ledger,
            selection_seed=1, estimation_seed=2, estimation_probes=4,
            charge_estimation=False,
        )
        assert est.probes_used == 4
        assert ledger.budget == 14
        assert len(plan.nodes) == 10

    def test_estimation_that_explores_every_candidate_leaves_empty_plan(self):
        # c is the only candidate and its probe reveals nothing new, so no
        # candidate is left to rank; like the baselines, plan nothing
        g = CompleteGraph([("a", "b"), ("a", "c"), ("b", "c")])
        obs = full_view(g)
        obs.mark_explored("a")
        obs.mark_explored("b")
        ledger = ProbeLedger(budget=4)
        plan, est = make_probe_plan(
            "maxoutprobe", g, obs, ledger, selection_seed=1, estimation_seed=2
        )
        assert est.probes_used == 1
        assert plan.nodes == ()
        assert ledger.spent == 1

    def test_tiny_budget_falls_back_to_degree_ranking(self):
        g, obs, _ = self.setup_sample()
        ledger = ProbeLedger(budget=1)
        plan, est = make_probe_plan(
            "maxoutprobe", g, obs, ledger, selection_seed=1, estimation_seed=2
        )
        assert est.probes_used == 0
        deg_plan = select_top_b(score_degree(obs, "high"), 1)
        assert plan.nodes == deg_plan.nodes

    def test_all_plans_contain_distinct_candidates(self):
        g, obs_master, fractions = self.setup_sample(seed=4)
        for name in ("highdeg", "lowdeg", "highdisp", "lowdisp",
                     "crosscomm", "highcc", "lowcc", "random", "maxoutprobe"):
            obs, _ = sample_random_edge(g, 0.2, seed=4)
            ledger = ProbeLedger(budget=8)
            plan, _ = make_probe_plan(
                name, g, obs, ledger, selection_seed=3, estimation_seed=5,
                estimation_probes=3,
            )
            assert len(set(plan.nodes)) == len(plan.nodes)
            assert all(obs.is_candidate(u) for u in plan.nodes)
            assert len(plan.nodes) == min(ledger.remaining, len(obs.candidate_nodes()))
