"""Synthetic generator properties."""

from netprobe.generators import planted_partition_graph, random_graph
from netprobe.graphs import count_triangles_wedges, global_clustering

from oracles import random_bipartite_graph


def test_random_graph_deterministic():
    a = random_graph(30, 0.2, seed=5)
    b = random_graph(30, 0.2, seed=5)
    assert list(a.edges()) == list(b.edges())


def test_bipartite_triangle_free():
    g = random_bipartite_graph(20, 20, 0.2, seed=1)
    assert count_triangles_wedges(g).triangles == 0
    assert global_clustering(g) == 0.0


def test_planted_partition_clusters():
    g = planted_partition_graph(10, 12, 0.6, 0.01, seed=2)
    assert g.n_nodes == 120
    assert global_clustering(g) > 0.2


def test_sparser_blocks_cluster_less():
    dense = planted_partition_graph(6, 10, 0.8, 0.01, seed=3)
    sparse = planted_partition_graph(6, 10, 0.2, 0.01, seed=3)
    assert global_clustering(dense) > global_clustering(sparse)


def test_labels_sort_numerically():
    g = random_graph(1200, 0.005, seed=4)
    labels = g.labels()
    assert sorted(labels) == sorted(labels, key=lambda s: int(s[1:]))
