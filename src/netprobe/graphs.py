"""Undirected simple-graph storage plus degree, triangle, wedge, clustering
and dispersion primitives.

Two graph classes live here: :class:`CompleteGraph`, the immutable ground
truth that answers probes, and :class:`ObservedGraph`, the partial view that
samplers and probes build up.  Both hold the complete graph's dense integer
indices (``_nbrs`` maps an index to its neighbours' indices, ``_ix`` maps a
label to its index, ``_adjacent`` tests two indices for an edge), so each
primitive has one path for both.  All public interfaces speak external
string labels.

Edge lists and observed-graph files each have one reader, which reads a
text in blocks of whole lines: a span of plain lines is split into labels in
one call, with a NUL marker at every line end that shows each line held two
fields, and every other line is read on its own.  The complete graph is
built block by block into its one adjacency, ``_nbrs``: each index's
neighbours as a sorted list, which walks step through and edge tests
bisect.  The observed graph keeps a set per node, which probes and scorers
grow and intersect.

Every listing of nodes is in ascending label order, so that rankings can
break ties by label and files are canonical.  The complete graph sorts its
indices by label once, at load (``_by_label``); the observed graph lists
its nodes by filtering that list on membership, in its neighbour sets or in
its explored set, with no sort of its own, and keeps its candidate listing
until it changes.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from operator import eq, length_hint, ne
from typing import IO, AbstractSet, Callable, Iterable, Iterator, Mapping

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


class _Numbering(dict):
    """Label -> dense index; looking up a new label numbers it next, so
    labels are numbered by first lookup."""

    __slots__ = ()

    def __missing__(self, label: str) -> int:
        self[label] = i = len(self)
        return i


class CompleteGraph:
    """Immutable ground-truth graph.

    ``_nbrs`` is its one adjacency: each index's neighbours as a list in
    ascending index order, with no repeats, built at load.  The flat array
    of edge ends that random-edge sampling reads (``_edge_ends``) is built
    on first use, by :meth:`_edge_end_array`.  Self-loops and duplicate
    edges are dropped silently, before their endpoints get an index, so
    every indexed node has at least one neighbour; the counts end up in
    ``load_report``.
    """

    __slots__ = ("_index", "_labels", "_by_label", "_edge_ends", "_nbrs", "_n_edges", "load_report")

    def __init__(self, edges: Iterable[tuple[str, str]]):
        self._build([list(chain.from_iterable(edges))])

    def _build(self, chunks: Iterable[list[str]]) -> None:
        """Build from a stream of flat label lists, one list at a time; in
        each, labels 2k and 2k + 1 are the endpoints of pair k.  Labels are
        numbered by first appearance among the pairs that are not
        self-loops."""
        index = _Numbering()
        nbrs: list[list[int]] = []
        n_pairs = self_loops = 0
        for tokens in chunks:
            firsts, seconds = tokens[0::2], tokens[1::2]
            n_pairs += len(firsts)
            if any(map(eq, firsts, seconds)):
                # a self-loop's labels must get no index from it
                pairs = [(a, b) for a, b in zip(firsts, seconds) if a != b]
                self_loops += len(firsts) - len(pairs)
                tokens = list(chain.from_iterable(pairs))
            # number the chunk's new labels, then give each a list
            ends = iter(list(map(index.__getitem__, tokens)))
            nbrs += [[] for _ in range(len(index) - len(nbrs))]
            for i, j in zip(ends, ends):
                nbrs[i].append(j)
                nbrs[j].append(i)
        # a repeated edge leaves a list longer than its set
        if any(map(ne, map(len, map(set, nbrs)), map(len, nbrs))):
            for i, neighbors in enumerate(nbrs):
                nbrs[i] = sorted(set(neighbors))
        else:
            for neighbors in nbrs:
                neighbors.sort()
        n_edges = sum(map(len, nbrs)) // 2
        if not n_edges:
            raise EmptyGraphError("graph must contain at least one edge")

        labels = list(index)
        self._index = dict(index)
        self._labels = labels
        # every index, in ascending label order
        self._by_label = sorted(range(len(labels)), key=labels.__getitem__)
        self._edge_ends = None
        self._nbrs = nbrs
        self._n_edges = n_edges
        self.load_report = LoadReport(
            lines_read=n_pairs,
            edges_kept=n_edges,
            duplicates_dropped=n_pairs - self_loops - n_edges,
            self_loops_dropped=self_loops,
        )

    def _edge_end_array(self) -> array:
        """The ends of every edge in :meth:`edges` order, flat: edge k joins
        the indices at positions 2k and 2k + 1.  Built on first use and
        kept."""
        ends = self._edge_ends
        if ends is None:
            ends = self._edge_ends = array("i", chain.from_iterable(self._index_edges()))
        return ends

    def _index_edges(self) -> Iterator[tuple[int, int]]:
        """All edges once each, as index pairs (u, v) with u < v, in
        ascending order."""
        for u, neighbors in enumerate(self._nbrs):
            for v in neighbors:
                if v > u:
                    yield u, v

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
        return len(self._nbrs[self._ix(u)])

    def neighbors(self, u: str) -> list[str]:
        """u's neighbours in ascending label order."""
        return sorted(map(self._labels.__getitem__, self._nbrs[self._ix(u)]))

    def has_edge(self, u: str, v: str) -> bool:
        return self._adjacent(self._ix(u), self._ix(v))

    def _adjacent(self, i: int | None, j: int | None) -> bool:
        """Whether indices i and j are joined, found by bisecting i's
        list; False if either is None (a label with no index)."""
        if i is None or j is None:
            return False
        neighbors = self._nbrs[i]
        try:
            return neighbors[bisect_left(neighbors, j)] == j
        except IndexError:
            # j sorts after every neighbour
            return False

    def edges(self) -> Iterator[tuple[str, str]]:
        """All edges once each, as label pairs in dense-index order."""
        labels = self._labels
        for u, v in self._index_edges():
            yield labels[u], labels[v]

    def max_degree(self) -> int:
        return max(map(len, self._nbrs))


# the error for a second label that starts with "#": write_observed puts
# each label first on a line, where it would read as a comment
_HASH_LABEL = "node label {!r} starts with '#', which marks a comment"
# A text is read in blocks of whole lines of about _BLOCK characters, and a
# block in spans of whole lines.  A span is plain when it holds no "#" and
# no NUL and each of its lines is blank or two fields: a NUL marker put at
# every line end then splits out as every third field, once the blank lines
# are left out, so one str.split() reads the span and its count checks
# every line.  A span that is not plain is halved at a line end and each
# half tried again; a single line that is not plain is read on its own.
# A split makes a string of every label, next to the half-built graph, so
# the blocks are kept this small.
_BLOCK = 1 << 13


def _blocks(text: str, start: int) -> Iterator[tuple[int, int]]:
    """The bounds of text[start:] cut into blocks of whole lines of about
    _BLOCK characters."""
    end = len(text)
    while start < end:
        stop = text.find("\n", start + _BLOCK, end) + 1 or end
        yield start, stop
        start = stop


def _plain_fields(span: str, listed: set[str] | None = None) -> list[str] | None:
    """span's fields, flat, if span is plain (see above), else None.  With
    listed, span is read as status lines: each second field must also be E
    or C, and each first field must be new to listed and the span, and is
    then added to listed."""
    if "#" in span or "\0" in span:
        return None
    n = span.count("\n")
    fields = span.replace("\n", " \0 ").split()
    if len(fields) != 3 * n or fields[2::3].count("\0") != n:
        # a blank line leaves its marker two fields short of a line of two:
        # if the fields fall short by a positive multiple of two, try once
        # more with the blank lines left out
        short = 3 * n - len(fields)
        if short <= 0 or short % 2:
            return None
        lines = list(filter(str.strip, span.split("\n")))
        n = len(lines)
        fields = " \0 ".join(lines + [""]).split()
        if len(fields) != 3 * n or fields[2::3].count("\0") != n:
            return None
    del fields[2::3]
    if listed is not None:
        labels, flags = set(fields[0::2]), fields[1::2]
        if (flags.count("E") + flags.count("C") != n or len(labels) != n
                or not listed.isdisjoint(labels)):
            return None
        listed |= labels
    return fields


def _spans(
    text: str, a: int, b: int, plain: Callable[[str], list[str] | None]
) -> Iterator[tuple[int, int, list[str] | None]]:
    """text[a:b], whole lines, as spans in file order, each yielded as
    (start, stop, fields) with plain's fields for it, or with None for a
    single line it refuses.  A refused span of more lines is halved at a
    line end and each half tried again, after the lines before it have
    been yielded."""
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        fields = plain(text[a:b])
        if fields is None:
            mid = (a + b) // 2
            cut = text.rfind("\n", a, mid) + 1 or text.find("\n", mid, b - 1) + 1
            if cut:
                todo += (cut, b), (a, cut)
                continue
        yield a, b, fields


def _line_error(text: str, pos: int, message: str) -> ParseError:
    """A ParseError naming the number of the line of text at pos."""
    lineno = text.count("\n", 0, pos) + 1
    return ParseError(f"line {lineno}: {message}")


def load_edge_list(source: IO[str]) -> CompleteGraph:
    """Parse a whitespace-separated edge list into a :class:`CompleteGraph`.

    One edge per line, two labels, neither starting with ``#``; ``#`` lines
    and blank lines are ignored, and so is one leading byte-order mark.  Reads the whole text with
    ``source.read()``; lines end at ``"\\n"``.  Raises :class:`ParseError`
    on a malformed line (with its number) and :class:`EmptyGraphError` if
    nothing usable remains.  The graph is built from each block's labels,
    read by :func:`_edge_line_labels`, before the next block is read.
    """
    g = CompleteGraph.__new__(CompleteGraph)
    g._build(_edge_line_labels(source.read()))
    return g


def _edge_line_labels(text: str) -> Iterator[list[str]]:
    """The labels of text's edge lines, less one leading byte-order mark, a
    list per block of lines, raising ParseError on the first line that is
    neither blank, a comment nor two labels.  Each plain span is split in
    one call; each other line is read on its own."""
    for a, b in _blocks(text, int(text.startswith("\ufeff"))):
        labels: list[str] = []
        for start, stop, fields in _spans(text, a, b, _plain_fields):
            if fields is None:
                fields = text[start:stop].split()
                if not fields or fields[0].startswith("#"):
                    continue
                if len(fields) != 2:
                    raise _line_error(text, start, f"expected 2 node labels, got {len(fields)}")
                if fields[1].startswith("#"):
                    raise _line_error(text, start, _HASH_LABEL.format(fields[1]))
            labels += fields
        yield labels


class ObservedGraph:
    """The incomplete graph built up by sampling and probing.

    Every node carries a status: EXPLORED nodes have had their complete
    neighborhood revealed; CANDIDATE nodes are present but only partially
    known.  Nodes are stored by their index in ``graph``: a node is observed
    iff it has a neighbour set in ``_nbrs``, and explored iff it is also in
    ``_explored``.  Listings filter the complete graph's label order on
    these.  Mutation is single-writer: one trial owns one instance.
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
        self._by_label = graph._by_label
        self._nbrs: dict[int, set[int]] = {}
        self._explored: set[int] = set()
        self._n_edges = 0
        # values derived from the present nodes, edges and explored set,
        # filled on first use (_candidate_ixs) and shared with copies; every
        # change drops the reference, never empties the dict, as a copy may
        # hold it
        self._derived: dict | None = None

    @property
    def n_nodes(self) -> int:
        return len(self._nbrs)

    @property
    def n_edges(self) -> int:
        return self._n_edges

    def _ix(self, u: str) -> int:
        i = self._index.get(u)
        if i not in self._nbrs:
            raise UnknownNodeError(f"node {u!r} not in observed graph")
        return i

    def _in_label_order(self, among: AbstractSet[int] | None = None) -> list[int]:
        """Observed indices in ascending label order: every observed node, or
        only those in ``among``, a set of observed indices."""
        keep = self._nbrs if among is None else among
        return list(filter(keep.__contains__, self._by_label))

    def nodes(self) -> list[str]:
        """Observed nodes in ascending label order."""
        return list(map(self._labels.__getitem__, self._in_label_order()))

    def has_node(self, u: str) -> bool:
        return self._index.get(u) in self._nbrs

    def has_edge(self, u: str, v: str) -> bool:
        return self._adjacent(self._index.get(u), self._index.get(v))

    def _adjacent(self, i: int | None, j: int | None) -> bool:
        """Whether indices i and j are joined by an observed edge; False if
        either is None (a label with no index)."""
        return j in self._nbrs.get(i, ())

    def degree(self, u: str) -> int:
        return len(self._nbrs[self._ix(u)])

    def neighbors(self, u: str) -> list[str]:
        """u's observed neighbours in ascending label order."""
        return sorted(map(self._labels.__getitem__, self._nbrs[self._ix(u)]))

    def status(self, u: str) -> NodeStatus:
        if self._ix(u) in self._explored:
            return NodeStatus.EXPLORED
        return NodeStatus.CANDIDATE

    def is_candidate(self, u: str) -> bool:
        i = self._index.get(u)
        return i in self._nbrs and i not in self._explored

    def _derived_values(self) -> dict:
        """The dict of values derived from the present state (see __init__)."""
        if self._derived is None:
            self._derived = {}
        return self._derived

    def _candidate_ixs(self) -> list[int]:
        """Candidate indices in ascending label order (see _in_label_order),
        listed once per state; callers must not change the list."""
        derived = self._derived_values()
        if "by_label" not in derived:
            derived["by_label"] = self._in_label_order(self._nbrs.keys() - self._explored)
        return derived["by_label"]

    def candidate_nodes(self) -> list[str]:
        return list(map(self._labels.__getitem__, self._candidate_ixs()))

    def explored_nodes(self) -> list[str]:
        return list(map(self._labels.__getitem__, self._in_label_order(self._explored)))

    def add_edge(self, u: str, v: str) -> bool:
        """Record an observed edge; returns True if it was new.

        The edge must exist in the complete graph (the observation is a
        subgraph by construction).  New endpoints enter as CANDIDATE.
        """
        i, j = self._index.get(u), self._index.get(v)
        if not self.graph._adjacent(i, j):
            raise UnknownNodeError(f"({u!r}, {v!r}) is not an edge of the complete graph")
        return self._link(i, j)

    def _link(self, i: int, j: int) -> bool:
        """add_edge on indices of an edge known to be in the complete graph."""
        self._derived = None
        nbrs = self._nbrs
        mine = nbrs.get(i)
        if mine is None:
            mine = nbrs[i] = set()
        elif j in mine:
            return False
        theirs = nbrs.get(j)
        if theirs is None:
            theirs = nbrs[j] = set()
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
        self._derived = None
        nbrs = self._nbrs
        n_before = len(nbrs) + (i not in nbrs)
        mine = nbrs.setdefault(i, set())
        complete = self.graph._nbrs[i]
        for j in complete:
            theirs = nbrs.get(j)
            if theirs is None:
                nbrs[j] = {i}
            else:
                # a no-op for an edge already observed
                theirs.add(i)
        n_known = len(mine)
        mine.update(complete)
        n_fresh = len(mine) - n_known
        self._n_edges += n_fresh
        self._explored.add(i)
        return len(nbrs) - n_before, n_fresh

    def _growth_walk(self, ixs: list[int], ends: Iterable[int]) -> Iterator[tuple[int, int]]:
        """The numbers of nodes and edges that exploring the candidates at
        indices ixs[:k] would add, for each k in ends, which ascend: counted
        without exploring them, in one walk along ixs.

        Only candidates count, as only candidates can be probed: an index
        not observed raises UnknownNodeError, and one explored or listed
        twice NotCandidateError, with probe's messages.  The walk raises
        when it reaches such an index, after every prefix before it has
        been counted.
        """
        nbrs, explored, labels = self._nbrs, self._explored, self._labels
        complete = self.graph._nbrs
        planned: set[int] = set()
        reached: set[int] = set()
        new_edges = start = 0
        for end in ends:
            chunk = ixs[start:end]
            for i in chunk:
                if i not in nbrs:
                    raise UnknownNodeError(f"cannot probe {labels[i]!r}: not in the observed graph")
                if i in explored or i in planned:
                    raise NotCandidateError(f"cannot probe {labels[i]!r}: already explored")
                # i's unobserved edges, less those to nodes planned before
                # it, which were counted at their other end
                mine, theirs = nbrs[i], complete[i]
                new_edges += len(theirs) - len(mine)
                new_edges -= len(planned.intersection(theirs)) - len(planned.intersection(mine))
                planned.add(i)
            # planned nodes are observed, so only their neighbours can be new
            reached.update(*map(complete.__getitem__, chunk))
            yield len(reached.difference(nbrs)), new_edges
            start = end

    def copy(self) -> ObservedGraph:
        """An independent observation with the same nodes, edges, statuses,
        origin and target edge fraction.  The two share their derived values
        until either changes."""
        other = ObservedGraph(self.graph, self.origin, self.target_edge_fraction)
        other._derived = self._derived_values()
        other._nbrs = {i: neighbors.copy() for i, neighbors in self._nbrs.items()}
        other._explored = self._explored.copy()
        other._n_edges = self._n_edges
        return other

    def mark_explored(self, u: str) -> None:
        self._explored.add(self._ix(u))
        self._derived = None


def count_triangles_wedges(g: CompleteGraph | ObservedGraph) -> TriangleWedgeCounts:
    """Exact triangle count and wedge (length-2 path) count.

    Wedges include closed ones: sum over nodes of C(degree, 2).
    """
    nbrs = _neighbour_sets(g)
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
    return _clustering_of(count_triangles_wedges(g))


def _clustering_of(counts: TriangleWedgeCounts) -> float:
    """global_clustering of a graph with these counts."""
    if counts.wedges == 0:
        return 0.0
    return 3.0 * counts.triangles / counts.wedges


def local_clustering(g: CompleteGraph | ObservedGraph, u: str) -> float:
    """Fraction of pairs of u's neighbors that are themselves connected."""
    i = g._ix(u)
    return _local_clustering(_neighbour_sets(g, i), i)


def edge_dispersion(g: CompleteGraph | ObservedGraph, u: str, v: str) -> int:
    """Dispersion of an edge: the number of pairs of common neighbors of u
    and v that are not connected and share no common neighbor other than u
    and v themselves."""
    i, j = g._ix(u), g._ix(v)
    if not g._adjacent(i, j):
        raise UnknownNodeError(f"({u!r}, {v!r}) is not an edge of the graph")
    # the common neighbours of i and j are neighbours of i
    return _edge_dispersion(_neighbour_sets(g, i), i, j)


def _neighbour_sets(
    g: CompleteGraph | ObservedGraph, around: int | None = None
) -> Mapping[int, AbstractSet[int]]:
    """g's neighbours by index, as sets: an observed graph's own sets; for a
    complete graph, sets made from its lists, of every index or of index
    ``around`` and its neighbours only."""
    if isinstance(g, ObservedGraph):
        return g._nbrs
    lists = g._nbrs
    ixs = range(len(lists)) if around is None else [around, *lists[around]]
    return {i: set(lists[i]) for i in ixs}


def _open_wedge_partners(obs: ObservedGraph, i: int) -> set[int]:
    """Indices of the candidates two hops from index i and not adjacent to it."""
    nbrs = obs._nbrs
    direct = nbrs[i]
    partners = set().union(*map(nbrs.__getitem__, direct))
    partners -= direct
    partners -= obs._explored
    partners.discard(i)
    return partners


def _local_clustering(nbrs: Mapping[int, AbstractSet[int]], i: int) -> float:
    """local_clustering of index i, on either graph's ``_nbrs``."""
    neighbors = nbrs[i]
    d = len(neighbors)
    if d < 2:
        return 0.0
    links = sum(len(neighbors & nbrs[v]) for v in neighbors) // 2
    return links / (d * (d - 1) / 2)


def _edge_dispersion(nbrs: Mapping[int, AbstractSet[int]], i: int, j: int) -> int:
    """edge_dispersion of the edge between indices i and j, on either
    graph's ``_nbrs``."""
    common = list(nbrs[i] & nbrs[j])
    count = 0
    for k, s in enumerate(common):
        s_nbrs = nbrs[s]
        for t in common[k + 1:]:
            # i and j are common neighbours of s and t; a third makes 3
            if t not in s_nbrs and len(s_nbrs & nbrs[t]) == 2:
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
    if i in obs._explored:
        raise NotCandidateError(f"node {u!r} is already explored")
    labels = obs._labels
    return {labels[w] for w in _open_wedge_partners(obs, i)}


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
    explored = obs._explored
    sink.writelines(labels[i] + (" E\n" if i in explored else " C\n") for i in obs._in_label_order())


def read_observed(source: IO[str], g: CompleteGraph) -> ObservedGraph:
    """Parse an observed graph written by :func:`write_observed`.

    Validates the subgraph property, status coverage (exactly one entry per
    observed node), the completeness of every explored node's neighborhood,
    and a target edge fraction in [0, 1].  Reads the whole text with
    ``source.read()``, less one leading byte-order mark; lines end at
    ``"\\n"``.

    The text is read by :func:`_observed_lines`, and its labels are
    checked once, on indices, by :func:`_fill_observed`.
    """
    text = source.read().removeprefix("\ufeff")
    origin, target_fraction, edges, statuses = _observed_lines(text)
    obs = ObservedGraph(g, origin=origin, target_edge_fraction=target_fraction)
    _fill_observed(obs, edges, statuses)
    return obs


def _fill_observed(obs: ObservedGraph, edges: list[str], statuses: list[str]) -> None:
    """Fill an empty obs from flat label lists: edge endpoints in pairs, and
    (label, flag) status pairs with distinct labels.  Raises on the first
    fault: the first pair, in file order, that is not an edge of the
    complete graph; else the first observed node, in label order, with no
    status entry; else the first status entry, in file order, with no
    incident edge or marked explored with an incomplete neighborhood.  The
    explored marks keep obs's derived values, as nothing lists obs before
    the fill returns."""
    g = obs.graph
    index, adjacent, link = g._index, g._adjacent, obs._link
    pairs = iter(list(map(index.get, edges)))
    for i, j in zip(pairs, pairs):
        if not adjacent(i, j):
            # the pair just read ends where the iterator stands
            end = len(edges) - length_hint(pairs)
            u, v = edges[end - 2:end]
            raise UnknownNodeError(f"({u!r}, {v!r}) is not an edge of the complete graph")
        link(i, j)
    status_labels, nbrs = statuses[0::2], obs._nbrs
    listed = list(map(index.get, status_labels))
    missing = nbrs.keys() - set(listed)
    if missing:
        u = min(map(g._labels.__getitem__, missing))
        raise ParseError(f"node {u!r} has an edge but no status entry")
    explored = obs._explored
    for u, i, flag in zip(status_labels, listed, statuses[1::2]):
        if i not in nbrs:
            raise ParseError(f"status entry for {u!r} but no incident edge")
        if flag == "E":
            if len(nbrs[i]) != len(g._nbrs[i]):
                raise ParseError(
                    f"node {u!r} marked explored but its neighborhood is incomplete"
                )
            explored.add(i)


def _observed_lines(text: str) -> tuple[str, float, list[str], list[str]]:
    """Read an observed-graph text: its origin, target edge fraction, edge
    endpoints and (label, flag) status pairs, the last two as flat label
    lists, raising ParseError on the first bad line.  In a section, each
    plain span is split in one call, and under [status] only if it also
    names no node twice or already listed; each other line is read on its
    own, so that an error names its line."""
    origin = ""
    target_fraction = 0.0
    section = None
    edges: list[str] = []
    statuses: list[str] = []
    listed: set[str] = set()

    def plain(span: str) -> list[str] | None:
        # outside any section no line is plain
        if section:
            return _plain_fields(span, listed if section == "status" else None)
        return None

    for a, b in _blocks(text, 0):
        for line_at, pos, fields in _spans(text, a, b, plain):
            if fields is not None:
                if section == "edges":
                    edges += fields
                else:
                    statuses += fields
                continue
            line = text[line_at:pos].strip()
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
                        target_fraction = math.nan
                    # the comparison is false for nan
                    if not 0.0 <= target_fraction <= 1.0:
                        raise _line_error(
                            text, line_at, "bad target_edge_fraction, expected a number in [0, 1]"
                        )
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
                    raise _line_error(text, line_at, "expected 2 node labels")
                if tokens[1].startswith("#"):
                    raise _line_error(text, line_at, _HASH_LABEL.format(tokens[1]))
                edges += tokens
            elif section == "status":
                if len(tokens) != 2 or tokens[1] not in ("E", "C"):
                    raise _line_error(text, line_at, "expected '<label> E|C'")
                if tokens[0] in listed:
                    raise _line_error(text, line_at, f"second status entry for {tokens[0]!r}")
                listed.add(tokens[0])
                statuses += tokens
            else:
                raise _line_error(text, line_at, "content outside any section")

    return origin, target_fraction, edges, statuses
