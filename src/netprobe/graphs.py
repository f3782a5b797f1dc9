"""Undirected simple-graph storage plus degree, triangle, wedge and
clustering primitives.

Two graph classes live here: :class:`CompleteGraph`, the immutable ground
truth that answers probes, and :class:`ObservedGraph`, the partial view that
samplers and probes build up.  All public interfaces speak external string
labels; ``CompleteGraph`` maps them to dense integer indices internally.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import IO, Iterable, Iterator

from .errors import (
    EmptyGraphError,
    NotCandidateError,
    ParseError,
    UnknownNodeError,
)


@dataclass(frozen=True)
class LoadReport:
    """What was kept and dropped while building a graph."""

    lines_read: int = 0
    edges_kept: int = 0
    duplicates_dropped: int = 0
    self_loops_dropped: int = 0


@dataclass(frozen=True)
class TriangleWedgeCounts:
    triangles: int
    wedges: int


class NodeStatus(str, Enum):
    EXPLORED = "E"
    CANDIDATE = "C"


class CompleteGraph:
    """Immutable ground-truth graph.

    Safe for unrestricted concurrent reads once constructed.  Self-loops and
    duplicate edges are dropped silently; the counts end up in
    ``load_report``.
    """

    __slots__ = ("_index", "_labels", "_adj", "_adj_sets", "_n_edges", "load_report")

    def __init__(self, edges: Iterable[tuple[str, str]], lines_read: int = 0):
        index: dict[str, int] = {}
        labels: list[str] = []
        adj: list[list[int]] = []
        pair_set: set[tuple[int, int]] = set()
        duplicates = 0
        self_loops = 0

        for a, b in edges:
            if a == b:
                self_loops += 1
                continue
            ia = index.get(a)
            if ia is None:
                ia = index[a] = len(labels)
                labels.append(a)
                adj.append([])
            ib = index.get(b)
            if ib is None:
                ib = index[b] = len(labels)
                labels.append(b)
                adj.append([])
            key = (ia, ib) if ia < ib else (ib, ia)
            if key in pair_set:
                duplicates += 1
                continue
            pair_set.add(key)
            adj[ia].append(ib)
            adj[ib].append(ia)

        if not pair_set:
            raise EmptyGraphError("graph must contain at least one edge")

        for neighbors in adj:
            neighbors.sort()

        self._index = index
        self._labels = labels
        self._adj = adj
        self._adj_sets = [frozenset(neighbors) for neighbors in adj]
        self._n_edges = len(pair_set)
        self.load_report = LoadReport(
            lines_read=lines_read,
            edges_kept=len(pair_set),
            duplicates_dropped=duplicates,
            self_loops_dropped=self_loops,
        )

    @property
    def n_nodes(self) -> int:
        return len(self._labels)

    @property
    def n_edges(self) -> int:
        return self._n_edges

    def labels(self) -> list[str]:
        """Node labels in first-appearance (dense-index) order."""
        return list(self._labels)

    def has_node(self, u: str) -> bool:
        return u in self._index

    def _ix(self, u: str) -> int:
        try:
            return self._index[u]
        except KeyError:
            raise UnknownNodeError(f"unknown node {u!r}") from None

    def degree(self, u: str) -> int:
        return len(self._adj[self._ix(u)])

    def neighbors(self, u: str) -> list[str]:
        labels = self._labels
        return [labels[v] for v in self._adj[self._ix(u)]]

    def has_edge(self, u: str, v: str) -> bool:
        return self._ix(v) in self._adj_sets[self._ix(u)]

    def edges(self) -> Iterator[tuple[str, str]]:
        """All edges once each, as label pairs in dense-index order."""
        labels = self._labels
        for u, neighbors in enumerate(self._adj):
            for v in neighbors:
                if v > u:
                    yield labels[u], labels[v]

    def max_degree(self) -> int:
        return max(len(neighbors) for neighbors in self._adj)


def load_edge_list(source: IO[str]) -> CompleteGraph:
    """Parse a whitespace-separated edge list into a :class:`CompleteGraph`.

    One edge per line, two labels; ``#`` lines and blank lines are ignored.
    Raises :class:`ParseError` on a malformed line (with its number) and
    :class:`EmptyGraphError` if nothing usable remains.
    """
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
        edges.append((tokens[0], tokens[1]))
    return CompleteGraph(edges, lines_read=lines_read)


class ObservedGraph:
    """The incomplete graph built up by sampling and probing.

    Every node carries a status: EXPLORED nodes have had their complete
    neighborhood revealed; CANDIDATE nodes are present but only partially
    known.  Mutation is single-writer: one trial owns one instance.
    """

    def __init__(
        self,
        graph: CompleteGraph,
        origin: str = "",
        target_edge_fraction: float = 0.0,
    ):
        self.graph = graph
        self.origin = origin
        self.target_edge_fraction = target_edge_fraction
        self._adj: dict[str, set[str]] = {}
        self._status: dict[str, NodeStatus] = {}
        self._n_edges = 0

    @property
    def n_nodes(self) -> int:
        return len(self._adj)

    @property
    def n_edges(self) -> int:
        return self._n_edges

    def nodes(self) -> list[str]:
        return sorted(self._adj)

    def has_node(self, u: str) -> bool:
        return u in self._adj

    def has_edge(self, u: str, v: str) -> bool:
        return u in self._adj and v in self._adj[u]

    def degree(self, u: str) -> int:
        if u not in self._adj:
            raise UnknownNodeError(f"node {u!r} not in observed graph")
        return len(self._adj[u])

    def neighbors(self, u: str) -> list[str]:
        if u not in self._adj:
            raise UnknownNodeError(f"node {u!r} not in observed graph")
        return sorted(self._adj[u])

    def neighbor_set(self, u: str) -> frozenset[str]:
        if u not in self._adj:
            raise UnknownNodeError(f"node {u!r} not in observed graph")
        return frozenset(self._adj[u])

    def status(self, u: str) -> NodeStatus:
        if u not in self._status:
            raise UnknownNodeError(f"node {u!r} not in observed graph")
        return self._status[u]

    def is_candidate(self, u: str) -> bool:
        return self._status.get(u) is NodeStatus.CANDIDATE

    def candidate_nodes(self) -> list[str]:
        return sorted(
            u for u, s in self._status.items() if s is NodeStatus.CANDIDATE
        )

    def explored_nodes(self) -> list[str]:
        return sorted(
            u for u, s in self._status.items() if s is NodeStatus.EXPLORED
        )

    def add_edge(self, u: str, v: str) -> bool:
        """Record an observed edge; returns True if it was new.

        The edge must exist in the complete graph (the observation is a
        subgraph by construction).  New endpoints enter as CANDIDATE.
        """
        if not self.graph.has_edge(u, v):
            raise UnknownNodeError(f"({u!r}, {v!r}) is not an edge of the complete graph")
        adj_u = self._adj.get(u)
        if adj_u is None:
            adj_u = self._adj[u] = set()
            self._status[u] = NodeStatus.CANDIDATE
        if v in adj_u:
            return False
        adj_v = self._adj.get(v)
        if adj_v is None:
            adj_v = self._adj[v] = set()
            self._status[v] = NodeStatus.CANDIDATE
        adj_u.add(v)
        adj_v.add(u)
        self._n_edges += 1
        return True

    def mark_explored(self, u: str) -> None:
        if u not in self._status:
            raise UnknownNodeError(f"node {u!r} not in observed graph")
        self._status[u] = NodeStatus.EXPLORED


def _adjacency_items(g: CompleteGraph | ObservedGraph):
    """(node-key, neighbor-set) pairs plus a set lookup, label-free.

    Counting primitives only care about incidence, so the complete graph
    exposes its dense-index sets directly and the observed graph its label
    sets; both key types are totally ordered.
    """
    if isinstance(g, CompleteGraph):
        return list(enumerate(g._adj_sets)), g._adj_sets.__getitem__
    return list(g._adj.items()), g._adj.__getitem__


def count_triangles_wedges(g: CompleteGraph | ObservedGraph) -> TriangleWedgeCounts:
    """Exact triangle count and wedge (length-2 path) count.

    Wedges include closed ones: sum over nodes of C(degree, 2).
    """
    items, lookup = _adjacency_items(g)
    wedges = 0
    triangle_sides = 0
    for u, neighbors in items:
        d = len(neighbors)
        wedges += d * (d - 1) // 2
        for v in neighbors:
            if v > u:
                triangle_sides += sum(1 for w in neighbors & lookup(v) if w > v)
    return TriangleWedgeCounts(triangles=triangle_sides, wedges=wedges)


def global_clustering(g: CompleteGraph | ObservedGraph) -> float:
    """Transitivity: 3 * triangles / wedges, or 0 on a wedge-free graph."""
    counts = count_triangles_wedges(g)
    if counts.wedges == 0:
        return 0.0
    return 3.0 * counts.triangles / counts.wedges


def local_clustering(g: CompleteGraph | ObservedGraph, u: str) -> float:
    """Fraction of pairs of u's neighbors that are themselves connected."""
    if isinstance(g, CompleteGraph):
        key = g._ix(u)
        lookup = g._adj_sets.__getitem__
    else:
        if not g.has_node(u):
            raise UnknownNodeError(f"node {u!r} not in observed graph")
        key = u
        lookup = g._adj.__getitem__
    neighbors = lookup(key)
    d = len(neighbors)
    if d < 2:
        return 0.0
    links = sum(len(neighbors & lookup(v)) for v in neighbors) // 2
    return links / (d * (d - 1) / 2)


def two_hop_open_wedges(obs: ObservedGraph, u: str) -> set[str]:
    """Unexplored nodes exactly two hops from candidate u, not adjacent to u.

    These are the open-wedge partners: each shares at least one observed
    neighbor with u but no observed edge.  Explored nodes are excluded
    because their neighborhoods are complete, so a missing edge to one of
    them is known to be absent rather than merely unobserved.
    """
    if not obs.has_node(u):
        raise UnknownNodeError(f"node {u!r} not in observed graph")
    if not obs.is_candidate(u):
        raise NotCandidateError(f"node {u!r} is already explored")
    adj = obs._adj
    direct = adj[u]
    partners: set[str] = set()
    for v in direct:
        partners.update(adj[v])
    partners.discard(u)
    partners -= direct
    return {w for w in partners if obs.is_candidate(w)}


def write_observed(obs: ObservedGraph, sink: IO[str]) -> None:
    """Serialize an observed graph: header, [edges] section, [status] section.

    Output is canonical (label-sorted), so equal graphs serialize
    byte-identically.
    """
    sink.write("# netprobe observed graph v1\n")
    sink.write(f"# origin: {obs.origin}\n")
    sink.write(f"# target_edge_fraction: {obs.target_edge_fraction!r}\n")
    sink.write("[edges]\n")
    seen: list[tuple[str, str]] = []
    for u, neighbors in obs._adj.items():
        for v in neighbors:
            if u < v:
                seen.append((u, v))
    for u, v in sorted(seen):
        sink.write(f"{u} {v}\n")
    sink.write("[status]\n")
    for u in obs.nodes():
        sink.write(f"{u} {obs._status[u].value}\n")


def read_observed(source: IO[str], g: CompleteGraph) -> ObservedGraph:
    """Parse an observed graph written by :func:`write_observed`.

    Validates the subgraph property, status coverage, and the completeness
    of every explored node's neighborhood.
    """
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
                    raise ParseError(f"line {lineno}: bad target_edge_fraction") from None
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
            edges.append((tokens[0], tokens[1]))
        elif section == "status":
            if len(tokens) != 2 or tokens[1] not in ("E", "C"):
                raise ParseError(f"line {lineno}: expected '<label> E|C'")
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
            if obs._adj[u] != set(g.neighbors(u)):
                raise ParseError(
                    f"node {u!r} marked explored but its neighborhood is incomplete"
                )
            obs.mark_explored(u)
    return obs
