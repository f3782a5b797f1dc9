"""Estimation: degree-scale ratios, wedge-closure clustering, survival
probabilities, and the closed-form estimators for known sample origins."""

import random
from itertools import combinations

import pytest

from netprobe.errors import BudgetError, EstimationError, SamplingError
from netprobe.estimators import (
    DEFAULT_ESTIMATION_PROBES,
    EstimationProbeRecord,
    estimate_avg_clustering,
    estimate_scale_factor,
    known_edge_sample_estimates,
    known_node_sample_estimates,
    probe_based_estimates,
    survival_probs,
    triangle_survival_prob,
    unbiased_clustering_edge_sampling,
    unbiased_clustering_node_sampling,
    unbiased_degree_edge_sampling,
    unbiased_degree_node_sampling,
    wedge_survival_prob,
)
from netprobe.generators import (
    planted_partition_graph,
    random_bipartite_graph,
    random_graph,
)
from netprobe.graphs import CompleteGraph, ObservedGraph, global_clustering
from netprobe.probing import ProbeLedger, probe
from netprobe.sampling import sample_node_bernoulli, sample_random_edge


def two_hub_graph():
    """Two hubs with disjoint leaf sets: true degrees 8 and 9."""
    edges = [("p1", f"a{i}") for i in range(8)]
    edges += [("p2", f"b{i}") for i in range(9)]
    return CompleteGraph(edges)


def partial_view(g, kept):
    obs = ObservedGraph(g)
    for u, v in kept:
        obs.add_edge(u, v)
    return obs


class TestScaleFactor:
    def test_mean_of_ratios(self):
        g = two_hub_graph()
        kept = [("p1", f"a{i}") for i in range(4)] + [("p2", f"b{i}") for i in range(3)]
        obs = partial_view(g, kept)
        ledger = ProbeLedger(budget=2)
        est, records = estimate_scale_factor(g, obs, ledger, n_probes=2, seed=0)
        # pool is the budget (2) highest-degree candidates: p1 (4) and p2 (3)
        assert {r.node for r in records} == {"p1", "p2"}
        assert est.scale_multiplier == pytest.approx((8 / 4 + 9 / 3) / 2)
        assert est.probes_used == 2
        assert ledger.spent == 2

    def test_full_observation_gives_one(self):
        g = random_graph(25, 0.3, seed=2)
        obs, _ = sample_random_edge(g, 1.0, seed=0)
        ledger = ProbeLedger(budget=10)
        est, _ = estimate_scale_factor(g, obs, ledger, n_probes=5, seed=1)
        assert est.scale_multiplier == 1.0
        assert not est.scale_clamped

    def test_default_probe_count(self):
        assert DEFAULT_ESTIMATION_PROBES == 100

    def test_pool_limited_to_budget_highest_degrees(self):
        g = two_hub_graph()
        kept = [("p1", f"a{i}") for i in range(4)] + [("p2", f"b{i}") for i in range(3)]
        obs = partial_view(g, kept)
        ledger = ProbeLedger(budget=2)
        _, records = estimate_scale_factor(g, obs, ledger, n_probes=2, seed=3)
        assert all(r.node in ("p1", "p2") for r in records)

    def test_errors(self):
        g = CompleteGraph([("a", "b")])
        obs = ObservedGraph(g)
        obs.add_edge("a", "b")
        ledger = ProbeLedger(budget=2)
        with pytest.raises(EstimationError):
            estimate_scale_factor(g, obs, ledger, n_probes=0)
        with pytest.raises(BudgetError):
            estimate_scale_factor(g, obs, ledger, n_probes=3)
        for u in list(obs.candidate_nodes()):
            probe(g, obs, ledger, u)
        with pytest.raises(EstimationError):
            estimate_scale_factor(g, obs, ledger, n_probes=1)

    def test_multiplier_clamped_at_one(self):
        # ratios are never below 1 in honest observations, so force the
        # degenerate case through the record arithmetic instead
        g = random_graph(25, 0.3, seed=4)
        obs, _ = sample_random_edge(g, 1.0, seed=0)
        ledger = ProbeLedger(budget=5)
        est, _ = estimate_scale_factor(g, obs, ledger, n_probes=3, seed=2)
        assert est.scale_multiplier >= 1.0


class TestAvgClustering:
    def test_ratio(self):
        records = [
            EstimationProbeRecord(
                node="x",
                observed_degree=2,
                true_degree=4,
                open_wedge_partners=frozenset(f"w{i}" for i in range(20)),
                closed_partners=frozenset(f"w{i}" for i in range(5)),
            )
        ]
        assert estimate_avg_clustering(records) == pytest.approx(0.25)

    def test_degenerate_no_partners(self):
        records = [
            EstimationProbeRecord(
                node="x",
                observed_degree=1,
                true_degree=2,
                open_wedge_partners=frozenset(),
                closed_partners=frozenset(),
            )
        ]
        assert estimate_avg_clustering(records) == 0.0

    def test_triangle_free_graph_estimates_zero(self):
        g = random_bipartite_graph(30, 30, 0.15, seed=6)
        obs, _ = sample_random_edge(g, 0.4, seed=1)
        ledger = ProbeLedger(budget=30)
        est = probe_based_estimates(g, obs, ledger, n_probes=15, seed=2)
        assert est.clustering == 0.0

    def test_disjoint_cliques_estimate_one(self):
        # every open wedge in a clique closes when probed
        g = planted_partition_graph(4, 6, 1.0, 0.0, seed=0)
        obs, _ = sample_random_edge(g, 0.3, seed=3)
        ledger = ProbeLedger(budget=20)
        _, records = estimate_scale_factor(g, obs, ledger, n_probes=10, seed=4)
        assert sum(len(r.open_wedge_partners) for r in records) > 0
        assert estimate_avg_clustering(records) == 1.0

    def test_in_unit_interval_on_random_inputs(self):
        rng = random.Random(11)
        for trial in range(15):
            g = random_graph(30, rng.uniform(0.1, 0.5), seed=trial)
            obs, _ = sample_random_edge(g, 0.5, seed=trial)
            ledger = ProbeLedger(budget=10)
            est = probe_based_estimates(g, obs, ledger, n_probes=5, seed=trial)
            assert 0.0 <= est.clustering <= 1.0


class TestSurvivalProbs:
    def test_endpoints(self):
        assert triangle_survival_prob(1.0) == 1.0
        assert wedge_survival_prob(1.0) == 1.0
        assert triangle_survival_prob(0.0) == 0.0
        assert wedge_survival_prob(0.0) == 0.0

    def test_half_spot_values(self):
        assert triangle_survival_prob(0.5) == 0.5
        assert wedge_survival_prob(0.5) == 0.625
        probs = survival_probs(0.5)
        assert probs.p_closed == pytest.approx(0.8)

    def test_triangle_never_exceeds_wedge(self):
        for i in range(101):
            f = i / 100
            assert triangle_survival_prob(f) <= wedge_survival_prob(f) + 1e-12

    def test_monte_carlo_survival(self):
        from oracles import adjacency

        g = random_graph(20, 0.4, seed=13)
        adj = adjacency(g)
        triangles = [
            (a, b, c)
            for a, b, c in combinations(sorted(adj), 3)
            if b in adj[a] and c in adj[a] and c in adj[b]
        ]
        wedges = []
        for center in sorted(adj):
            for a, b in combinations(sorted(adj[center]), 2):
                wedges.append((a, center, b))
        assert len(triangles) > 10 and len(wedges) > 50

        rng = random.Random(99)
        reps = 4000
        t_surv = 0.0
        w_surv = 0.0
        for _ in range(reps):
            selected = {u for u in adj if rng.random() < 0.5}
            t_surv += sum(
                1 for a, b, c in triangles
                if (a in selected) + (b in selected) + (c in selected) >= 2
            ) / len(triangles)
            w_surv += sum(
                1 for a, center, b in wedges
                if center in selected or (a in selected and b in selected)
            ) / len(wedges)
        assert abs(t_surv / reps - 0.5) < 0.02
        assert abs(w_surv / reps - 0.625) < 0.02


class TestUnbiasedDegree:
    def test_node_sampling_formula(self):
        assert unbiased_degree_node_sampling(5, 0.1) == pytest.approx(50.0)
        assert unbiased_degree_node_sampling(7, 1.0) == 7.0
        with pytest.raises(SamplingError):
            unbiased_degree_node_sampling(5, 0.0)

    def test_edge_sampling_formula(self):
        assert unbiased_degree_edge_sampling(3, 0.1) == pytest.approx(30.0)
        assert unbiased_degree_edge_sampling(4, 1.0) == 4.0
        with pytest.raises(SamplingError):
            unbiased_degree_edge_sampling(3, 0.0)

    def test_node_sampling_unbiased_monte_carlo(self):
        g = random_graph(60, 0.3, seed=17)
        targets = [u for u in g.labels() if g.degree(u) >= 10][:5]
        assert targets
        sums = {u: 0.0 for u in targets}
        counts = {u: 0 for u in targets}
        for rep in range(600):
            obs, fractions = sample_node_bernoulli(g, 0.5, seed=rep)
            for u in targets:
                if obs.has_node(u) and not obs.is_candidate(u):
                    continue  # selected nodes are exempt from the estimator
                d_known = obs.degree(u) if obs.has_node(u) else 0
                sums[u] += unbiased_degree_node_sampling(d_known, 0.5)
                counts[u] += 1
        for u in targets:
            mean = sums[u] / counts[u]
            assert abs(mean - g.degree(u)) / g.degree(u) < 0.05

    def test_edge_sampling_unbiased_monte_carlo(self):
        g = random_graph(60, 0.3, seed=18)
        targets = [u for u in g.labels() if g.degree(u) >= 10][:5]
        assert targets
        sums = {u: 0.0 for u in targets}
        for rep in range(600):
            obs, _ = sample_random_edge(g, 0.5, seed=rep)
            for u in targets:
                d_known = obs.degree(u) if obs.has_node(u) else 0
                sums[u] += unbiased_degree_edge_sampling(d_known, 0.5)
        for u in targets:
            mean = sums[u] / 600
            assert abs(mean - g.degree(u)) / g.degree(u) < 0.05


class TestUnbiasedClustering:
    def test_node_sampling_formula(self):
        value, clamped = unbiased_clustering_node_sampling(0.4, 0.5)
        assert value == pytest.approx(0.5)
        assert not clamped
        value, clamped = unbiased_clustering_node_sampling(0.4, 1.0)
        assert value == 0.4

    def test_edge_sampling_formula(self):
        value, clamped = unbiased_clustering_edge_sampling(0.05, 0.1)
        assert value == pytest.approx(0.5)
        assert not clamped
        value, _ = unbiased_clustering_edge_sampling(0.3, 1.0)
        assert value == pytest.approx(0.3)

    def test_clamping(self):
        value, clamped = unbiased_clustering_edge_sampling(0.8, 0.1)
        assert value == 1.0
        assert clamped

    def test_node_sampling_unbiased_monte_carlo(self):
        g = planted_partition_graph(6, 10, 0.7, 0.02, seed=19)
        truth = global_clustering(g)
        assert truth > 0.2
        total = 0.0
        for rep in range(400):
            obs, _ = sample_node_bernoulli(g, 0.5, seed=rep)
            est, clamped = unbiased_clustering_node_sampling(
                global_clustering(obs), 0.5
            )
            assert not clamped
            total += est
        assert abs(total / 400 - truth) / truth < 0.05

    def test_edge_sampling_unbiased_monte_carlo(self):
        g = planted_partition_graph(6, 10, 0.7, 0.02, seed=20)
        truth = global_clustering(g)
        total = 0.0
        for rep in range(400):
            obs, _ = sample_random_edge(g, 0.5, seed=rep)
            est, clamped = unbiased_clustering_edge_sampling(
                global_clustering(obs), 0.5
            )
            assert not clamped
            total += est
        assert abs(total / 400 - truth) / truth < 0.05


class TestKnownSampleEstimates:
    def test_node_variant(self):
        g = planted_partition_graph(4, 8, 0.6, 0.05, seed=21)
        obs, fractions = sample_node_bernoulli(g, 0.5, seed=2)
        est = known_node_sample_estimates(obs, fractions.node_fraction)
        assert est.method == "known_node_sample"
        assert est.scale_multiplier == pytest.approx(2.0)
        assert est.probes_used == 0
        assert 0.0 <= est.clustering <= 1.0

    def test_edge_variant(self):
        g = planted_partition_graph(4, 8, 0.6, 0.05, seed=22)
        obs, fractions = sample_random_edge(g, 0.25, seed=3)
        est = known_edge_sample_estimates(obs, fractions.edge_fraction)
        assert est.method == "known_edge_sample"
        assert est.scale_multiplier == pytest.approx(1.0 / fractions.edge_fraction)
        assert est.probes_used == 0

    def test_report_shape(self):
        g = planted_partition_graph(4, 8, 0.6, 0.05, seed=23)
        obs, fractions = sample_random_edge(g, 0.25, seed=4)
        report = known_edge_sample_estimates(obs, fractions.edge_fraction).report()
        assert set(report) == {"method", "m_hat", "c_hat", "probes_used", "clamped_flags"}
