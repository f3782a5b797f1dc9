"""Undirected simple-graph storage plus degree, triangle, wedge, clustering
and dispersion primitives.

Two graph classes live here: :class:`CompleteGraph`, the immutable ground
truth that answers probes, and :class:`ObservedGraph`, the partial view that
samplers and probes build up.  Both hold the complete graph's dense integer
indices (``_nbrs`` maps an index to its neighbours' indices, ``_ix`` maps a
label to its index), so each primitive has one path for both.  All public
interfaces speak external string labels.
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


# ObservedGraph._status holds one of these per complete-graph index; 0 marks
# a node not yet observed.
_CANDIDATE = 1
_EXPLORED = 2
_STATUSES = (None, NodeStatus.CANDIDATE, NodeStatus.EXPLORED)


class CompleteGraph:
    """Immutable ground-truth graph.

    Safe for unrestricted concurrent reads once constructed.  Self-loops and
    duplicate edges are dropped silently, before their endpoints get an
    index, so every indexed node has at least one neighbour; the counts end
    up in ``load_report``.
    """

    __slots__ = ("_index", "_labels", "_adj", "_nbrs", "_n_edges", "load_report")

    def __init__(self, edges: Iterable[tuple[str, str]], lines_read: int = 0):
        index: dict[str, int] = {}
        labels: list[str] = []
        nbrs: list[set[int]] = []
        n_edges = duplicates = self_loops = 0
        for a, b in edges:
            if a == b:
                self_loops += 1
                continue
            ia = index.get(a)
            if ia is None:
                ia = index[a] = len(labels)
                labels.append(a)
                nbrs.append(set())
            ib = index.get(b)
            if ib is None:
                ib = index[b] = len(labels)
                labels.append(b)
                nbrs.append(set())
            if ib in nbrs[ia]:
                duplicates += 1
                continue
            nbrs[ia].add(ib)
            nbrs[ib].add(ia)
            n_edges += 1

        if not n_edges:
            raise EmptyGraphError("graph must contain at least one edge")

        self._index = index
        self._labels = labels
        # sorted neighbour lists, for ordered reads and walk steps
        self._adj = [sorted(neighbors) for neighbors in nbrs]
        self._nbrs = {u: frozenset(neighbors) for u, neighbors in enumerate(nbrs)}
        self._n_edges = n_edges
        self.load_report = LoadReport(
            lines_read=lines_read,
            edges_kept=n_edges,
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
        return self._ix(v) in self._nbrs[self._ix(u)]

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
    known.  Nodes are stored by their index in ``graph``.  Mutation is
    single-writer: one trial owns one instance.
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
        self._index = graph._index
        self._labels = graph._labels
        self._nbrs: dict[int, set[int]] = {}
        self._status = bytearray(graph.n_nodes)
        self._n_edges = 0

    @property
    def n_nodes(self) -> int:
        return len(self._nbrs)

    @property
    def n_edges(self) -> int:
        return self._n_edges

    def _ix(self, u: str) -> int:
        i = self._index.get(u)
        if i is None or not self._status[i]:
            raise UnknownNodeError(f"node {u!r} not in observed graph")
        return i

    def _sorted_labels(self, indices: Iterable[int]) -> list[str]:
        return sorted(map(self._labels.__getitem__, indices))

    def nodes(self) -> list[str]:
        return self._sorted_labels(self._nbrs)

    def has_node(self, u: str) -> bool:
        i = self._index.get(u)
        return i is not None and self._status[i] != 0

    def has_edge(self, u: str, v: str) -> bool:
        neighbors = self._nbrs.get(self._index.get(u))
        return neighbors is not None and self._index.get(v) in neighbors

    def degree(self, u: str) -> int:
        return len(self._nbrs[self._ix(u)])

    def neighbors(self, u: str) -> list[str]:
        return sorted(map(self._labels.__getitem__, self._nbrs[self._ix(u)]))

    def neighbor_set(self, u: str) -> frozenset[str]:
        return frozenset(map(self._labels.__getitem__, self._nbrs[self._ix(u)]))

    def status(self, u: str) -> NodeStatus:
        return _STATUSES[self._status[self._ix(u)]]

    def is_candidate(self, u: str) -> bool:
        i = self._index.get(u)
        return i is not None and self._status[i] == _CANDIDATE

    def candidate_nodes(self) -> list[str]:
        status = self._status
        return self._sorted_labels(i for i in self._nbrs if status[i] == _CANDIDATE)

    def explored_nodes(self) -> list[str]:
        status = self._status
        return self._sorted_labels(i for i in self._nbrs if status[i] == _EXPLORED)

    def add_edge(self, u: str, v: str) -> bool:
        """Record an observed edge; returns True if it was new.

        The edge must exist in the complete graph (the observation is a
        subgraph by construction).  New endpoints enter as CANDIDATE.
        """
        i, j = self._index.get(u), self._index.get(v)
        if i is None or j not in self.graph._nbrs[i]:
            raise UnknownNodeError(f"({u!r}, {v!r}) is not an edge of the complete graph")
        return self._link(i, j)

    def _link(self, i: int, j: int) -> bool:
        """add_edge on indices of an edge known to be in the complete graph."""
        nbrs = self._nbrs
        mine = nbrs.get(i)
        if mine is None:
            mine = nbrs[i] = set()
            self._status[i] = _CANDIDATE
        elif j in mine:
            return False
        theirs = nbrs.get(j)
        if theirs is None:
            theirs = nbrs[j] = set()
            self._status[j] = _CANDIDATE
        mine.add(j)
        theirs.add(i)
        self._n_edges += 1
        return True

    def explore(self, u: str) -> tuple[int, int]:
        """Reveal u's complete neighbourhood and mark u explored.

        u is any node of the complete graph; it joins the observation if it
        was not in it.  Edges among u's neighbours stay hidden.  Returns the
        numbers of nodes (u not counted) and edges the reveal added.
        """
        i = self.graph._ix(u)
        nbrs = self._nbrs
        n_before = len(nbrs) + (i not in nbrs)
        fresh = self.graph._nbrs[i].difference(nbrs.get(i, ()))
        for j in fresh:
            self._link(i, j)
        self._status[i] = _EXPLORED
        return len(nbrs) - n_before, len(fresh)

    def mark_explored(self, u: str) -> None:
        self._status[self._ix(u)] = _EXPLORED


def count_triangles_wedges(g: CompleteGraph | ObservedGraph) -> TriangleWedgeCounts:
    """Exact triangle count and wedge (length-2 path) count.

    Wedges include closed ones: sum over nodes of C(degree, 2).
    """
    nbrs = g._nbrs
    wedges = 0
    triangle_sides = 0
    for u, neighbors in nbrs.items():
        d = len(neighbors)
        wedges += d * (d - 1) // 2
        for v in neighbors:
            if v > u:
                triangle_sides += sum(1 for w in neighbors & nbrs[v] if w > v)
    return TriangleWedgeCounts(triangles=triangle_sides, wedges=wedges)


def global_clustering(g: CompleteGraph | ObservedGraph) -> float:
    """Transitivity: 3 * triangles / wedges, or 0 on a wedge-free graph."""
    counts = count_triangles_wedges(g)
    if counts.wedges == 0:
        return 0.0
    return 3.0 * counts.triangles / counts.wedges


def local_clustering(g: CompleteGraph | ObservedGraph, u: str) -> float:
    """Fraction of pairs of u's neighbors that are themselves connected."""
    nbrs = g._nbrs
    neighbors = nbrs[g._ix(u)]
    d = len(neighbors)
    if d < 2:
        return 0.0
    links = sum(len(neighbors & nbrs[v]) for v in neighbors) // 2
    return links / (d * (d - 1) / 2)


def edge_dispersion(g: CompleteGraph | ObservedGraph, u: str, v: str) -> int:
    """Dispersion of an edge: the number of pairs of common neighbors of u
    and v that are not connected and share no common neighbor other than u
    and v themselves."""
    nbrs = g._nbrs
    i, j = g._ix(u), g._ix(v)
    if j not in nbrs[i]:
        raise UnknownNodeError(f"({u!r}, {v!r}) is not an edge of the graph")
    ends = {i, j}
    common = list(nbrs[i] & nbrs[j])
    count = 0
    for k, s in enumerate(common):
        s_nbrs = nbrs[s]
        for t in common[k + 1:]:
            if t not in s_nbrs and s_nbrs & nbrs[t] <= ends:
                count += 1
    return count


def two_hop_open_wedges(obs: ObservedGraph, u: str) -> set[str]:
    """Unexplored nodes exactly two hops from candidate u, not adjacent to u.

    These are the open-wedge partners: each shares at least one observed
    neighbor with u but no observed edge.  Explored nodes are excluded
    because their neighborhoods are complete, so a missing edge to one of
    them is known to be absent rather than merely unobserved.
    """
    i = obs._ix(u)
    status = obs._status
    if status[i] != _CANDIDATE:
        raise NotCandidateError(f"node {u!r} is already explored")
    nbrs = obs._nbrs
    direct = nbrs[i]
    partners = set().union(*map(nbrs.__getitem__, direct))
    partners -= direct
    partners.discard(i)
    labels = obs._labels
    return {labels[w] for w in partners if status[w] == _CANDIDATE}


def write_observed(obs: ObservedGraph, sink: IO[str]) -> None:
    """Serialize an observed graph: header, [edges] section, [status] section.

    Output is canonical (label-sorted), so equal graphs serialize
    byte-identically.
    """
    labels = obs._labels
    sink.write("# netprobe observed graph v1\n")
    sink.write(f"# origin: {obs.origin}\n")
    sink.write(f"# target_edge_fraction: {obs.target_edge_fraction!r}\n")
    sink.write("[edges]\n")
    pairs: list[tuple[str, str]] = []
    for i, neighbors in obs._nbrs.items():
        a = labels[i]
        for j in neighbors:
            b = labels[j]
            if a < b:
                pairs.append((a, b))
    pairs.sort()
    sink.writelines(f"{a} {b}\n" for a, b in pairs)
    sink.write("[status]\n")
    status = obs._status
    codes = [s and s.value for s in _STATUSES]
    sink.writelines(
        f"{labels[i]} {codes[status[i]]}\n" for i in sorted(obs._nbrs, key=labels.__getitem__)
    )


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
            # add_edge keeps obs a subgraph of g: equal degrees, equal sets
            if obs.degree(u) != g.degree(u):
                raise ParseError(
                    f"node {u!r} marked explored but its neighborhood is incomplete"
                )
            obs.mark_explored(u)
    return obs
