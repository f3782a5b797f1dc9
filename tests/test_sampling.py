"""Sampler contracts: subgraph property, exact edge targets, statuses,
determinism, and the walk's jump behavior."""

import io

import pytest

from netprobe.errors import SamplingError
from netprobe.generators import planted_partition_graph, random_graph
from netprobe.graphs import CompleteGraph, NodeStatus, write_observed
from netprobe.sampling import (
    run_sampler,
    sample_random_edge,
    sample_random_node,
    sample_random_walk,
)

from oracles import sample_node_bernoulli


def k4():
    return CompleteGraph([("1", "2"), ("1", "3"), ("1", "4"),
                          ("2", "3"), ("2", "4"), ("3", "4")])


def serialize(obs):
    buf = io.StringIO()
    write_observed(obs, buf)
    return buf.getvalue()


def assert_subgraph(g, obs):
    for u in obs.nodes():
        for v in obs.neighbors(u):
            assert g.has_edge(u, v)


class TestRandomNode:
    def test_full_fraction_covers_graph(self):
        g = random_graph(30, 0.2, seed=1)
        obs, fractions = sample_random_node(g, 1.0, seed=4)
        assert obs.n_edges == g.n_edges
        assert fractions.edge_fraction == 1.0

    def test_k4_half(self):
        # any single K4 node contributes exactly 3 edges >= floor(0.5*6)
        for seed in range(10):
            obs, fractions = sample_random_node(k4(), 0.5, seed=seed)
            assert obs.n_edges == 3
            assert len(obs.explored_nodes()) == 1
            assert len(obs.candidate_nodes()) == 3
            assert fractions.node_fraction == pytest.approx(0.25)

    def test_determinism(self):
        g = random_graph(40, 0.2, seed=2)
        obs_a, _ = sample_random_node(g, 0.3, seed=77)
        obs_b, _ = sample_random_node(g, 0.3, seed=77)
        assert serialize(obs_a) == serialize(obs_b)

    def test_bad_fraction(self):
        with pytest.raises(SamplingError):
            sample_random_node(k4(), 0.0, seed=1)
        with pytest.raises(SamplingError):
            sample_random_node(k4(), 1.5, seed=1)

    def test_explored_have_complete_neighborhoods(self):
        g = random_graph(40, 0.15, seed=9)
        obs, _ = sample_random_node(g, 0.4, seed=9)
        for u in obs.explored_nodes():
            assert obs.neighbors(u) == sorted(g.neighbors(u))

    def test_overshoot_bounded_by_max_degree(self):
        for seed in range(20):
            g = random_graph(30, 0.3, seed=seed)
            target = int(0.3 * g.n_edges)
            obs, _ = sample_random_node(g, 0.3, seed=seed)
            assert target <= obs.n_edges < target + g.max_degree()

    def test_subgraph(self):
        g = random_graph(30, 0.25, seed=3)
        obs, _ = sample_random_node(g, 0.5, seed=12)
        assert_subgraph(g, obs)


class TestRandomEdge:
    def test_full_fraction_all_candidates(self):
        g = random_graph(25, 0.3, seed=6)
        obs, _ = sample_random_edge(g, 1.0, seed=1)
        assert obs.n_edges == g.n_edges
        assert obs.explored_nodes() == []

    def test_ten_percent_of_twenty(self):
        g = random_graph(40, 0.05, seed=11)
        # retry seeds until the generator lands on exactly 20 edges
        seed = 11
        while g.n_edges != 20:
            seed += 1
            g = random_graph(40, 0.05, seed=seed)
        obs, fractions = sample_random_edge(g, 0.1, seed=5)
        assert obs.n_edges == 2
        assert fractions.edge_fraction == pytest.approx(0.1)

    def test_every_node_candidate(self):
        g = random_graph(30, 0.2, seed=8)
        obs, _ = sample_random_edge(g, 0.4, seed=2)
        assert all(obs.status(u) is NodeStatus.CANDIDATE for u in obs.nodes())

    def test_exact_count(self):
        for seed in range(10):
            g = random_graph(35, 0.25, seed=seed)
            obs, _ = sample_random_edge(g, 0.27, seed=seed)
            assert obs.n_edges == int(0.27 * g.n_edges)

    def test_empty_sample_rejected(self):
        g = CompleteGraph([("a", "b"), ("b", "c")])
        with pytest.raises(SamplingError):
            sample_random_edge(g, 0.1, seed=1)  # floor(0.2) = 0

    def test_determinism(self):
        g = random_graph(30, 0.3, seed=4)
        assert serialize(sample_random_edge(g, 0.5, seed=3)[0]) == serialize(
            sample_random_edge(g, 0.5, seed=3)[0]
        )


class TestRandomWalk:
    def test_connected_cover_at_full_fraction(self):
        g = planted_partition_graph(1, 12, 0.5, 0.0, seed=2)
        obs, _ = sample_random_walk(g, 1.0, 0.0, seed=5)
        assert obs.n_edges == g.n_edges

    def test_exact_target(self):
        g = random_graph(40, 0.2, seed=21)
        obs, _ = sample_random_walk(g, 0.3, 0.0, seed=1)
        assert obs.n_edges == int(0.3 * g.n_edges)

    def test_no_explored_nodes(self):
        g = random_graph(30, 0.3, seed=13)
        obs, _ = sample_random_walk(g, 0.2, 0.15, seed=7)
        assert obs.explored_nodes() == []

    def test_path_half(self):
        g = CompleteGraph([("a", "b"), ("b", "c")])
        obs, _ = sample_random_walk(g, 0.5, 0.0, seed=3)
        assert obs.n_edges == 1
        assert len(obs.candidate_nodes()) == 2

    def test_jump_rate_statistics(self):
        g = random_graph(60, 0.12, seed=19)
        total_steps = 0
        total_jumps = 0
        for seed in range(30):
            stats = {}
            sample_random_walk(g, 0.9, 0.15, seed=seed, stats=stats)
            total_steps += stats["steps"]
            total_jumps += stats["jumps"]
        assert total_steps > 2000
        assert abs(total_jumps / total_steps - 0.15) < 0.02

    def test_jumps_cross_components(self):
        edges = [(f"c{comp}a", f"c{comp}b") for comp in range(40)]
        g = CompleteGraph(edges)
        obs_rwj, _ = sample_random_walk(g, 0.5, 0.15, seed=9)
        comps = {u[:-1] for u in obs_rwj.nodes()}
        assert len(comps) >= 10  # jumps must hop across components

    def test_disconnected_plain_walk_restarts(self):
        edges = [("a", "b"), ("c", "d"), ("e", "f")]
        g = CompleteGraph(edges)
        obs, _ = sample_random_walk(g, 1.0, 0.0, seed=2, stall_threshold=50)
        assert obs.n_edges == 3

    def test_step_cap_reports_fraction(self):
        # the walk never leaves its first component, one of the two edges
        edges = [("a", "b"), ("c", "d")]
        g = CompleteGraph(edges)
        stats = {}
        with pytest.raises(SamplingError, match=r"step limit 50 exceeded at 0\.5000 of 1\.0 "):
            sample_random_walk(g, 1.0, 0.0, seed=2, stall_threshold=10**9,
                               max_steps=50, stats=stats)
        assert stats == {"steps": 50, "jumps": 0, "restarts": 0}

    def test_determinism(self):
        g = random_graph(30, 0.3, seed=17)
        assert serialize(sample_random_walk(g, 0.4, 0.15, seed=8)[0]) == serialize(
            sample_random_walk(g, 0.4, 0.15, seed=8)[0]
        )

    def test_bad_jump_prob(self):
        with pytest.raises(SamplingError):
            sample_random_walk(k4(), 0.5, 1.0, seed=1)


class TestBernoulliNode:
    def test_selection_probability_is_recorded(self):
        g = random_graph(50, 0.2, seed=31)
        obs, fractions = sample_node_bernoulli(g, 0.4, seed=3)
        assert fractions.node_fraction == 0.4
        assert 0 < fractions.edge_fraction <= 1.0

    def test_selected_are_explored_with_full_neighborhoods(self):
        g = random_graph(50, 0.2, seed=32)
        obs, _ = sample_node_bernoulli(g, 0.5, seed=4)
        for u in obs.explored_nodes():
            assert obs.neighbors(u) == sorted(g.neighbors(u))

    def test_mean_selection_rate(self):
        g = random_graph(60, 0.2, seed=33)
        rates = []
        for seed in range(300):
            obs, _ = sample_node_bernoulli(g, 0.5, seed=seed)
            rates.append(len(obs.explored_nodes()) / g.n_nodes)
        assert abs(sum(rates) / len(rates) - 0.5) < 0.02

    @pytest.mark.parametrize("node_prob", [0.0, -0.5, 1.5, float("nan")])
    def test_bad_probability(self, node_prob):
        with pytest.raises(SamplingError, match="node_prob must be in"):
            sample_node_bernoulli(k4(), node_prob, seed=1)

    def test_no_node_selected(self):
        with pytest.raises(SamplingError, match="no node selected"):
            sample_node_bernoulli(k4(), 1e-12, seed=1)


class TestRunSampler:
    def test_dispatch_and_origin_tags(self):
        g = random_graph(30, 0.3, seed=41)
        for name in ("randnode", "randedge", "rw", "rwj"):
            obs, _ = run_sampler(g, name, 0.3, seed=5)
            assert obs.origin == name
            assert_subgraph(g, obs)

    def test_unknown_sampler(self):
        with pytest.raises(SamplingError, match="unknown sampler"):
            run_sampler(k4(), "snowball", 0.5, seed=1)

    def test_all_samplers_deterministic(self):
        g = random_graph(40, 0.2, seed=55)
        for name in ("randnode", "randedge", "rw", "rwj"):
            a, _ = run_sampler(g, name, 0.25, seed=99)
            b, _ = run_sampler(g, name, 0.25, seed=99)
            assert serialize(a) == serialize(b)
