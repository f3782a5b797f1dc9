"""Graph storage and counting primitives against brute-force oracles."""

import io
import random

import pytest

from netprobe.errors import (
    EmptyGraphError,
    NotCandidateError,
    ParseError,
    UnknownNodeError,
)
from netprobe.generators import random_graph
from netprobe.graphs import (
    CompleteGraph,
    NodeStatus,
    ObservedGraph,
    count_triangles_wedges,
    global_clustering,
    load_edge_list,
    local_clustering,
    read_observed,
    two_hop_open_wedges,
    write_observed,
)
from netprobe.sampling import sample_random_edge, sample_random_node

from oracles import (
    adjacency,
    brute_global_clustering,
    brute_local_clustering,
    brute_triangles,
    brute_two_hop_open_wedges,
    brute_wedges,
)


def k4():
    return CompleteGraph([("1", "2"), ("1", "3"), ("1", "4"),
                          ("2", "3"), ("2", "4"), ("3", "4")])


def k4_minus_edge():
    # K4 with edge (3,4) removed
    return CompleteGraph([("1", "2"), ("1", "3"), ("1", "4"), ("2", "3"), ("2", "4")])


class TestLoadEdgeList:
    def test_duplicates_dropped(self):
        g = load_edge_list(io.StringIO("a b\nb c\na b\n"))
        assert g.n_nodes == 3
        assert g.n_edges == 2
        assert g.load_report.duplicates_dropped == 1

    def test_self_loop_only_is_empty(self):
        with pytest.raises(EmptyGraphError):
            load_edge_list(io.StringIO("a a\n"))

    def test_k4(self):
        lines = "a b\na c\na d\nb c\nb d\nc d\n"
        g = load_edge_list(io.StringIO(lines))
        assert g.n_nodes == 4
        assert g.n_edges == 6

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError, match="line 3"):
            load_edge_list(io.StringIO("a b\nb c\na b c\n"))

    def test_comments_and_blanks_ignored(self):
        g = load_edge_list(io.StringIO("# header\n\na b\n"))
        assert g.n_edges == 1

    def test_empty_input(self):
        with pytest.raises(EmptyGraphError):
            load_edge_list(io.StringIO(""))

    def test_reversed_duplicate_dropped(self):
        g = load_edge_list(io.StringIO("a b\nb a\n"))
        assert g.n_edges == 1
        assert g.load_report.duplicates_dropped == 1

    def test_first_appearance_order(self):
        g = load_edge_list(io.StringIO("x y\na x\n"))
        assert g.labels() == ["x", "y", "a"]


class TestDegree:
    def test_k4(self):
        g = k4()
        assert all(g.degree(u) == 3 for u in g.labels())

    def test_path_center(self):
        g = CompleteGraph([("a", "b"), ("b", "c")])
        assert g.degree("b") == 2
        assert g.degree("a") == 1

    def test_unknown_node(self):
        g = k4()
        with pytest.raises(UnknownNodeError):
            g.degree("zzz")


class TestTriangleWedgeCounts:
    def test_k3(self):
        g = CompleteGraph([("a", "b"), ("b", "c"), ("a", "c")])
        counts = count_triangles_wedges(g)
        assert counts.triangles == 1
        assert counts.wedges == 3

    def test_path(self):
        g = CompleteGraph([("a", "b"), ("b", "c")])
        counts = count_triangles_wedges(g)
        assert counts.triangles == 0
        assert counts.wedges == 1

    def test_k4_minus_edge(self):
        counts = count_triangles_wedges(k4_minus_edge())
        adj = adjacency(k4_minus_edge())
        assert brute_triangles(adj) == 2
        assert brute_wedges(adj) == 8
        assert counts.triangles == 2
        assert counts.wedges == 8


class TestClustering:
    def test_global_k3(self):
        g = CompleteGraph([("a", "b"), ("b", "c"), ("a", "c")])
        assert global_clustering(g) == 1.0

    def test_global_path(self):
        g = CompleteGraph([("a", "b"), ("b", "c")])
        assert global_clustering(g) == 0.0

    def test_global_k4_minus_edge(self):
        assert global_clustering(k4_minus_edge()) == pytest.approx(0.75)

    def test_local_k4(self):
        g = k4()
        assert all(local_clustering(g, u) == 1.0 for u in g.labels())

    def test_local_star_center(self):
        g = CompleteGraph([("c", "l1"), ("c", "l2"), ("c", "l3")])
        assert local_clustering(g, "c") == 0.0

    def test_local_one_neighbor_pair_connected(self):
        g = CompleteGraph([("u", "a"), ("u", "b"), ("u", "c"), ("a", "b")])
        adj = adjacency(g)
        assert brute_local_clustering(adj, "u") == pytest.approx(1 / 3)
        assert local_clustering(g, "u") == pytest.approx(1 / 3)

    def test_local_unknown_node(self):
        with pytest.raises(UnknownNodeError):
            local_clustering(k4(), "zzz")

    def test_complete_graphs_cluster_to_one(self):
        for n in (3, 5, 8):
            edges = [(str(i), str(j)) for i in range(n) for j in range(i + 1, n)]
            assert global_clustering(CompleteGraph(edges)) == 1.0


def observed_from_edges(g, edges, explored=()):
    obs = ObservedGraph(g)
    for u, v in edges:
        obs.add_edge(u, v)
    for u in explored:
        obs.mark_explored(u)
    return obs


class TestTwoHopOpenWedges:
    def gadget(self):
        g = CompleteGraph(
            [("u", "a"), ("a", "w"), ("u", "b"), ("b", "w"), ("a", "x"),
             ("u", "w"), ("u", "x")]  # extra G edges; not observed below
        )
        obs = observed_from_edges(
            g, [("u", "a"), ("a", "w"), ("u", "b"), ("b", "w"), ("a", "x")]
        )
        return g, obs

    def test_two_partners(self):
        _, obs = self.gadget()
        assert two_hop_open_wedges(obs, "u") == {"w", "x"}

    def test_triangle_has_no_partner(self):
        g = CompleteGraph([("u", "a"), ("a", "b"), ("u", "b")])
        obs = observed_from_edges(g, [("u", "a"), ("a", "b"), ("u", "b")])
        assert two_hop_open_wedges(obs, "u") == set()

    def test_explored_partner_excluded(self):
        _, obs = self.gadget()
        obs.mark_explored("w")
        assert two_hop_open_wedges(obs, "u") == {"x"}

    def test_explored_or_absent_source_rejected(self):
        _, obs = self.gadget()
        obs.mark_explored("u")
        with pytest.raises(NotCandidateError):
            two_hop_open_wedges(obs, "u")
        with pytest.raises(UnknownNodeError):
            two_hop_open_wedges(obs, "nope")

    def test_matches_bfs_oracle_on_random_samples(self):
        rng = random.Random(7)
        for trial in range(30):
            g = random_graph(rng.randrange(8, 30), rng.uniform(0.15, 0.5), seed=trial)
            obs, _ = sample_random_node(g, 0.5, seed=trial)
            for u in obs.candidate_nodes():
                assert two_hop_open_wedges(obs, u) == brute_two_hop_open_wedges(obs, u)


class TestCountsMatchBruteForce:
    def test_random_graphs(self):
        rng = random.Random(123)
        for trial in range(40):
            g = random_graph(rng.randrange(5, 40), rng.uniform(0.1, 0.6), seed=trial * 11)
            adj = adjacency(g)
            counts = count_triangles_wedges(g)
            assert counts.triangles == brute_triangles(adj)
            assert counts.wedges == brute_wedges(adj)
            assert global_clustering(g) == pytest.approx(brute_global_clustering(adj))
            for u in list(adj)[:10]:
                assert local_clustering(g, u) == pytest.approx(
                    brute_local_clustering(adj, u)
                )

    def test_observed_graphs_too(self):
        rng = random.Random(5)
        for trial in range(20):
            g = random_graph(rng.randrange(8, 30), rng.uniform(0.2, 0.6), seed=trial * 7)
            obs, _ = sample_random_edge(g, 0.5, seed=trial)
            adj = adjacency(obs)
            counts = count_triangles_wedges(obs)
            assert counts.triangles == brute_triangles(adj)
            assert counts.wedges == brute_wedges(adj)


class TestInvariants:
    def test_symmetry_after_load(self):
        for seed in range(10):
            g = random_graph(25, 0.3, seed=seed)
            adj = adjacency(g)
            for u, neighbors in adj.items():
                for v in neighbors:
                    assert u in adj[v]

    def test_three_t_at_most_w(self):
        for seed in range(25):
            g = random_graph(20, random.Random(seed).uniform(0.1, 0.9), seed=seed)
            counts = count_triangles_wedges(g)
            assert 3 * counts.triangles <= counts.wedges

    def test_equality_on_disjoint_cliques(self):
        edges = []
        for base in (0, 10):
            for i in range(4):
                for j in range(i + 1, 4):
                    edges.append((str(base + i), str(base + j)))
        counts = count_triangles_wedges(CompleteGraph(edges))
        assert 3 * counts.triangles == counts.wedges

    def test_two_hop_disjoint_from_closed_neighborhood(self):
        rng = random.Random(99)
        for trial in range(15):
            g = random_graph(20, 0.3, seed=trial)
            obs, _ = sample_random_node(g, 0.4, seed=trial)
            for u in obs.candidate_nodes():
                partners = two_hop_open_wedges(obs, u)
                assert u not in partners
                assert not partners & set(obs.neighbors(u))
                assert all(obs.is_candidate(w) for w in partners)


class TestObservedGraph:
    def test_subgraph_enforced(self):
        g = CompleteGraph([("a", "b"), ("b", "c")])
        obs = ObservedGraph(g)
        obs.add_edge("a", "b")
        with pytest.raises(UnknownNodeError):
            obs.add_edge("a", "c")  # not an edge of g

    def test_status_lifecycle(self):
        g = CompleteGraph([("a", "b")])
        obs = ObservedGraph(g)
        obs.add_edge("a", "b")
        assert obs.status("a") is NodeStatus.CANDIDATE
        obs.mark_explored("a")
        assert obs.status("a") is NodeStatus.EXPLORED
        assert obs.candidate_nodes() == ["b"]

    def test_roundtrip(self):
        g = random_graph(20, 0.3, seed=3)
        obs, _ = sample_random_node(g, 0.5, seed=3)
        buf = io.StringIO()
        write_observed(obs, buf)
        back = read_observed(io.StringIO(buf.getvalue()), g)
        assert back.nodes() == obs.nodes()
        assert back.origin == obs.origin
        assert back.target_edge_fraction == obs.target_edge_fraction
        assert back.candidate_nodes() == obs.candidate_nodes()
        assert back.explored_nodes() == obs.explored_nodes()
        for u in obs.nodes():
            assert back.neighbors(u) == obs.neighbors(u)
        second = io.StringIO()
        write_observed(back, second)
        assert second.getvalue() == buf.getvalue()

    def test_read_rejects_incomplete_explored(self):
        g = CompleteGraph([("a", "b"), ("a", "c")])
        text = "[edges]\na b\n[status]\na E\nb C\n"
        with pytest.raises(ParseError, match="explored"):
            read_observed(io.StringIO(text), g)

    def test_read_rejects_foreign_edge(self):
        g = CompleteGraph([("a", "b")])
        text = "[edges]\na c\n[status]\na C\nc C\n"
        with pytest.raises(UnknownNodeError):
            read_observed(io.StringIO(text), g)
