"""The edge-list and observed-graph readers against frozen copies of their
line-by-line predecessors, on generated texts whose lines each reader
splits in bulk or reads on its own: both give equal graphs, or both raise
the same error with the same message."""

import io
import math
import tracemalloc
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netprobe.errors import NetProbeError, ParseError, UnknownNodeError
from netprobe import graphs
from netprobe.generators import hub_community_graph
from netprobe.graphs import (
    CompleteGraph,
    ObservedGraph,
    load_edge_list,
    read_observed,
    write_observed,
)
from netprobe.sampling import sample_random_edge

from oracles import ref_load_edge_list, ref_read_observed

LABELS = ("a", "b", "c", "é", "节点", "#h", "x#")
# str.isspace() whitespace other than space, tab and "\n": it separates
# fields within a line, so a line with it is still split in bulk
ODD_SPACE = ("\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u3000", "\r")
CLEAN_GAPS = (" ", "\t", " \t", "  ")
CLEAN_TRAILS = ("", "", " ", "\t")
ENDS = ("\n", "\r\n", "\r")


def _joined(*parts):
    return st.tuples(*parts).map("".join)


def _lines_text(draw, lines, clean):
    """Lines joined by drawn line ends, the last one perhaps without."""
    ends = st.just("\n") if clean else st.sampled_from(ENDS)
    text = "".join(line + draw(ends) for line in lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("\n\r")
    return text


@st.composite
def edge_list_texts(draw):
    clean = draw(st.booleans())
    label = st.sampled_from(LABELS)
    gap = st.sampled_from(CLEAN_GAPS if clean else CLEAN_GAPS + ODD_SPACE)
    trail = st.sampled_from(CLEAN_TRAILS if clean else CLEAN_TRAILS + ODD_SPACE)
    edge = _joined(label, gap, label, trail)
    blank = st.sampled_from(("", " ", "\t "))
    if clean:
        line = st.one_of(edge, edge, edge, blank)
    else:
        line = st.one_of(
            edge, edge,
            blank,
            st.sampled_from(("# comment", "  #a b", "#", " a b", "\u3000a b")),
            label,
            _joined(label, gap, label, gap, label),
        )
    lines = draw(st.lists(line, max_size=12))
    # a reversed copy of an edge line
    if lines and draw(st.booleans()):
        lines.append(" ".join(reversed(lines[0].split())))
    return _lines_text(draw, lines, clean)


# the readers read long texts in blocks of lines; tiny blocks split the
# generated texts into many
DEFAULT_BLOCK = graphs._BLOCK
BLOCKS = st.sampled_from((DEFAULT_BLOCK, 1, 7))


@contextmanager
def blocks_of(block):
    saved, graphs._BLOCK = graphs._BLOCK, block
    try:
        yield
    finally:
        graphs._BLOCK = saved


def _graph_state(g: CompleteGraph):
    return (
        list(g._index.items()), g._labels, g._by_label, g._nbrs,
        g.n_edges, g.load_report,
    )


def _outcome(read, text, *args, summary):
    try:
        return summary(read(io.StringIO(text), *args))
    except NetProbeError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(edge_list_texts(), BLOCKS)
@example("a b\nb c\n", DEFAULT_BLOCK)
@example("a b\r\nb c\r\n", DEFAULT_BLOCK)
@example("a b\rb c\n", DEFAULT_BLOCK)
@example("# header\na\tb\n\n  \nb c", DEFAULT_BLOCK)
@example("a a\nb a\na b\nb a\n", DEFAULT_BLOCK)
@example("a\x0bb\nb\x0cc\nc\x1ca\na\x85d\nd\xa0e\ne\u3000a\n", DEFAULT_BLOCK)
@example("é 节点\n节点 é\n", DEFAULT_BLOCK)
@example("a b c\n", DEFAULT_BLOCK)
@example("a\n", DEFAULT_BLOCK)
@example("", DEFAULT_BLOCK)
@example("a a\n", DEFAULT_BLOCK)
# lines the bulk check must refuse: a 3-field and a 1-field line whose
# field counts balance, a NUL in a label or standing for a marker, a "#"
# inside a label mid-run; and a plain run whose last line has no "\n"
@example("a b c\nd\n", DEFAULT_BLOCK)
@example("d\na b c\n", DEFAULT_BLOCK)
@example("a\x00 b\nb c\n", DEFAULT_BLOCK)
@example("a\n\x00 b c\n", DEFAULT_BLOCK)
@example("a b\nx# a\nb c\n", DEFAULT_BLOCK)
@example("a b\nb c\nc a", DEFAULT_BLOCK)
def test_load_edge_list_equals_line_reader(text, block):
    with blocks_of(block):
        new = _outcome(load_edge_list, text, summary=_graph_state)
    assert new == _outcome(ref_load_edge_list, text, summary=_graph_state)


# the complete graph the observed texts are read against
G_EDGES = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "é"), ("é", "节点")]
G = CompleteGraph(G_EDGES)
# edges of G both ways round, and pairs that are not: a self-loop, a non-edge
# and an unknown label
G_PAIRS = G_EDGES + [(v, u) for u, v in G_EDGES]
BAD_PAIRS = [("a", "a"), ("a", "é"), ("zz", "a")]
LABELS_ANY = ("a", "b", "c", "é", "节点", "zz")


@st.composite
def observed_texts(draw):
    clean = draw(st.booleans())
    gap = st.sampled_from(CLEAN_GAPS if clean else CLEAN_GAPS + ODD_SPACE)
    trail = st.sampled_from(CLEAN_TRAILS if clean else CLEAN_TRAILS + ODD_SPACE)
    fractions = ("0.25", "0", "1", "-0.0") + (() if clean else ("1.5", "nan", "x"))
    header = [
        "# netprobe observed graph v1",
        f"# origin: {draw(st.sampled_from(LABELS_ANY + ('',)))}",
        f"# target_edge_fraction: {draw(st.sampled_from(fractions))}",
    ]
    pairs = draw(st.lists(st.sampled_from(G_PAIRS), max_size=8))
    if draw(st.integers(0, 3)) == 0:
        pairs.insert(draw(st.integers(0, len(pairs))), draw(st.sampled_from(BAD_PAIRS)))
    seen = {}
    for u, v in pairs:
        seen.setdefault(u, set()).add(v)
        seen.setdefault(v, set()).add(u)
    statuses = []
    for u in seen:
        complete = G.has_node(u) and len(seen[u]) == G.degree(u)
        statuses.append([u, "E" if complete and draw(st.booleans()) else "C"])
    if statuses and draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(0, len(statuses) - 1))
        fault = draw(st.sampled_from(("drop", "repeat", "rename", "flag", "explored")))
        if fault == "drop":
            del statuses[k]
        elif fault == "repeat":
            statuses.append(list(statuses[k]))
        elif fault == "rename":
            statuses[k][0] = draw(st.sampled_from(LABELS_ANY))
        else:
            statuses[k][1] = "X" if fault == "flag" else "E"
    if draw(st.integers(0, 5)) == 0:
        statuses.append([draw(st.sampled_from(LABELS_ANY)), "C"])
    lines = (
        header
        + ["[edges]"]
        + [u + draw(gap) + v + draw(trail) for u, v in pairs]
        + ["[status]"]
        + [u + draw(gap) + flag + draw(trail) for u, flag in statuses]
    )
    if not clean:
        # a comment, a blank line or a padded heading at a drawn place
        extra = draw(st.sampled_from(("# note", "# origin: b", "", " [edges]", "[status] ")))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return _lines_text(draw, lines, clean)


def _observed_state(obs):
    return (
        obs.nodes(),
        sorted((u, v) for u in obs.nodes() for v in obs.neighbors(u) if u < v),
        {u: obs.status(u) for u in obs.nodes()},
        obs.origin,
        repr(obs.target_edge_fraction),
        obs.n_edges,
        obs._nbrs,
    )


@settings(max_examples=400, deadline=None)
@given(observed_texts(), BLOCKS)
@example("# origin: a\n[edges]\na b\nb c\na c\n[status]\na E\nb E\nc C\n", DEFAULT_BLOCK)
@example("[edges]\na\tb\n\n[status]\na C\nb C", DEFAULT_BLOCK)
@example("[edges]\na b\n[status]\na C\na C\nb C\n", DEFAULT_BLOCK)
@example("[edges]\na b\n[status]\na C\nb C\nzz C\n", DEFAULT_BLOCK)
@example("[edges]\na zz\n[status]\na C\nzz C\n", DEFAULT_BLOCK)
@example("[edges]\na é\n[status]\na C\né C\n", DEFAULT_BLOCK)
@example("[edges]\na b\n[status]\na E\nb C\n", DEFAULT_BLOCK)
@example("[edges]\na b\n[status]\na C\n", DEFAULT_BLOCK)
@example("[edges]\na b\n[status]\na C\nc C\n", DEFAULT_BLOCK)
@example("[edges]\na b\r\n[status]\r\na C\r\nb C\r\n", DEFAULT_BLOCK)
@example("# target_edge_fraction: 2\n[edges]\n[status]\n", DEFAULT_BLOCK)
@example("#x[edges]\na b\n[status]\na C\nb C\n", DEFAULT_BLOCK)
@example("[status]\nb C\n[edges]\na b\n[status]\na C\nb C\n", DEFAULT_BLOCK)
@example("[edges]\na b\n[status]\na C\n[edges]\nb C\n", DEFAULT_BLOCK)
@example("", DEFAULT_BLOCK)
# the order of faults: of two missing statuses, the first by label; a
# missing status before a status for an unobserved label; an incomplete
# explored node before a status for an unknown label; a repeated status (a
# line error) before a non-edge
@example("[edges]\nb c\na b\n[status]\nb C\n", DEFAULT_BLOCK)
@example("[edges]\na b\n[status]\nc C\na C\n", DEFAULT_BLOCK)
@example("[edges]\na b\n[status]\na E\nb C\nzz C\n", DEFAULT_BLOCK)
@example("[edges]\na b\na é\n[status]\na C\nb C\né C\nb C\n", DEFAULT_BLOCK)
# lines the bulk check must refuse, as for edge lists; a status run with
# an X flag; and, at block size 7, a status label in a later block than
# its first listing
@example("[edges]\na b c\nb\n[status]\na C\nb C\n", DEFAULT_BLOCK)
@example("[edges]\na\x00 b\nb c\n[status]\nb C\nc C\n", DEFAULT_BLOCK)
@example("[edges]\na b\nx# a\nb c\n[status]\na C\nb C\nc C\n", DEFAULT_BLOCK)
@example("[edges]\na b\nb c\n[status]\na C\nb C\nc C", DEFAULT_BLOCK)
@example("[edges]\na b\n[status]\na C\nb X\n", DEFAULT_BLOCK)
@example("[edges]\na b\nb c\n[status]\na C\nb C\nc C\na C\n", 7)
def test_read_observed_equals_line_reader(text, block):
    with blocks_of(block):
        new = _outcome(read_observed, text, G, summary=_observed_state)
    assert new == _outcome(ref_read_observed, text, G, summary=_observed_state)


def test_a_text_is_read_once_and_checked_once(monkeypatch):
    """Neither a failed check on indices nor a repeated status entry sends
    a text back to be read again."""
    line_reader = graphs._observed_lines
    read = []

    def counted(text):
        read.append(text)
        return line_reader(text)

    monkeypatch.setattr(graphs, "_observed_lines", counted)
    text = "# origin: a\n[edges]\na b\na é\n[status]\na C\nb C\né C\n"
    with pytest.raises(UnknownNodeError, match="is not an edge of the complete graph"):
        read_observed(io.StringIO(text), G)
    repeated = "[edges]\na b\n[status]\na C\nb C\na C\n"
    with pytest.raises(ParseError, match="^line 6: second status entry for 'a'$"):
        read_observed(io.StringIO(repeated), G)
    assert read == [text, repeated]


@pytest.mark.parametrize("block", [DEFAULT_BLOCK, 1])
def test_a_second_label_that_starts_with_a_hash_is_refused(block):
    """write_observed would write '#b' first on its status line, where it
    reads as a comment, so neither reader accepts it."""
    message = "^line 3: node label '#b' starts with '#', which marks a comment$"
    with blocks_of(block):
        with pytest.raises(ParseError, match=message):
            load_edge_list(io.StringIO("a c\nc d\na #b\nd a\n"))
        with pytest.raises(ParseError, match=message):
            read_observed(io.StringIO("[edges]\na b\na #b\n[status]\na C\nb C\n"), G)


@pytest.mark.parametrize("comment", ["", "# written by hand\r\n"], ids=["plain", "comment"])
def test_a_real_file_reads_as_the_line_readers_read_it(tmp_path, comment):
    """A file opened in text mode turns "\\r\\n" into "\\n" before either
    reader sees it."""
    edges = tmp_path / "graph.edges"
    edges.write_bytes(f"{comment}a b\r\nb\tc\r\nc é\r\né 节点\r\n".encode())
    observed = tmp_path / "observed.txt"
    observed.write_bytes(
        f"# origin: b\n[edges]\n{comment}a b\nb c\n[status]\na C\nb E\nc C\n".encode()
    )

    with open(edges, encoding="utf-8") as fh:
        g = load_edge_list(fh)
    with open(edges, encoding="utf-8") as fh:
        assert _graph_state(g) == _graph_state(ref_load_edge_list(fh))
    assert g.n_edges == 4 and g.load_report.lines_read == 4

    with open(observed, encoding="utf-8") as fh:
        obs = read_observed(fh, g)
    with open(observed, encoding="utf-8") as fh:
        assert _observed_state(obs) == _observed_state(ref_read_observed(fh, g))
    assert obs.origin == "b" and obs.explored_nodes() == ["b"]


# a 1230-node graph as an edge list, plain and with a comment line
HUB = hub_community_graph(100, 12, 0.85, 30, 20, seed=1)
HUB_TEXT = "".join(f"{u} {v}\n" for u, v in HUB.edges())


def test_only_odd_lines_are_read_one_by_one(monkeypatch):
    """Every edge line is split in bulk, in few spans: the check refuses no
    span of an edge list whose lines are edges or blank, and of one with a
    header line only the spans that hold it, one per halving of the first
    block down to that line."""
    check = graphs._plain_fields
    seen = []

    def counted(span, *listed):
        fields = check(span, *listed)
        seen.append((span, fields))
        return fields

    def load(text):
        seen.clear()
        load_edge_list(io.StringIO(text))
        assert sum(len(fields) for _, fields in seen if fields) == 2 * HUB.n_edges
        return [span for span, fields in seen if fields is None]

    monkeypatch.setattr(graphs, "_plain_fields", counted)
    assert load(HUB_TEXT) == []
    assert len(seen) == len(list(graphs._blocks(HUB_TEXT, 0)))
    # blank lines, empty or not, cost no halving
    spaced = HUB_TEXT.replace("0\n", "0\n\n").replace("5\n", "5\n \t\n")
    assert load(spaced) == []
    assert len(seen) == len(list(graphs._blocks(spaced, 0)))

    text = "# header\n" + HUB_TEXT
    refused = load(text)
    blocks = list(graphs._blocks(text, 0))
    lines = text.count("\n", *blocks[0])
    assert all(span.startswith("# header\n") for span in refused)
    assert 0 < len(refused) <= math.ceil(math.log2(lines)) + 1
    # each refused span but the header line is cut in two
    assert len(seen) == len(blocks) + 2 * (len(refused) - 1)


@pytest.mark.parametrize("header", ["", "# header\n"])
def test_a_load_peaks_below_twice_what_the_graph_keeps(header):
    """Either reader builds the graph one block of labels at a time, so no
    whole-text token list, per-node set or second copy of the adjacency
    lives next to the graph it builds."""
    source = io.StringIO(header + HUB_TEXT)
    tracemalloc.start()
    try:
        g = load_edge_list(source)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (g.n_nodes, g.n_edges) == (HUB.n_nodes, HUB.n_edges) == (1230, 6189)
    assert peak <= 2.0 * kept


@pytest.mark.parametrize("header", ["", "# header\n"])
@pytest.mark.parametrize(
    "text, lists, dropped",
    [
        # repeated in both orientations, plus a self-loop
        ("a b\nb a\nb b\nc b\nb c\na b\n", [[1], [0, 2], [1]], (3, 1)),
        # node 1's last neighbour is node 2's first, which is no repeat
        ("a b\nc d\na d\nb d\n", [[1, 3], [0, 3], [3], [0, 1, 2]], (0, 0)),
    ],
)
def test_neighbour_lists_are_sorted_without_repeats(header, text, lists, dropped):
    g = load_edge_list(io.StringIO(header + text))
    assert g._nbrs == lists
    report = g.load_report
    assert (report.duplicates_dropped, report.self_loops_dropped) == dropped
    assert g._nbrs == CompleteGraph(line.split() for line in text.splitlines())._nbrs


def test_a_real_graph_loads_sorted_lists_without_repeats():
    for header in ("", "# header\n"):
        g = load_edge_list(io.StringIO(header + HUB_TEXT))
        assert all(all(map(int.__lt__, nbrs, nbrs[1:])) for nbrs in g._nbrs)
        assert sum(map(len, g._nbrs)) == 2 * HUB.n_edges


class _CountingList(list):
    """A list that counts the entries read from it: one per indexed read,
    and every entry for a membership scan."""

    reads = 0

    def __getitem__(self, k):
        _CountingList.reads += 1
        return super().__getitem__(k)

    def __contains__(self, x):
        _CountingList.reads += len(self)
        return super().__contains__(x)


def test_a_hub_that_sorts_first_is_read_back_in_log_time_per_edge():
    # a star whose centre sorts before every leaf: write_observed writes
    # each edge centre first, so every pair read tests the centre's list
    d = 2000
    g = load_edge_list(io.StringIO("".join(f"a b{k:04d}\n" for k in range(d))))
    obs = ObservedGraph(g, "a", 1.0)
    obs.explore("a")
    sink = io.StringIO()
    write_observed(obs, sink)
    centre = g._index["a"]
    g._nbrs[centre] = _CountingList(g._nbrs[centre])
    _CountingList.reads = 0
    back = read_observed(io.StringIO(sink.getvalue()), g)
    assert _observed_state(back) == _observed_state(obs)
    # a bisection per edge; a scan would read about d * d / 2 entries
    assert _CountingList.reads <= d * (d.bit_length() + 1)
    leaf = g._index["b0007"]
    assert g._adjacent(centre, leaf) and g._adjacent(leaf, centre)
    assert not g._adjacent(leaf, g._index["b0008"])
    assert not g._adjacent(centre, None) and not g._adjacent(None, leaf)
    assert obs._adjacent(centre, leaf) and not obs._adjacent(leaf, None)


def test_edge_ends_are_built_on_first_use_in_edge_order():
    g = load_edge_list(io.StringIO(HUB_TEXT))
    assert g._edge_ends is None
    sample_random_edge(g, 0.1, seed=1)
    ends = g._edge_ends
    labels = g.labels()
    assert [(labels[u], labels[v]) for u, v in zip(ends[0::2], ends[1::2])] == list(g.edges())
    assert g._edge_end_array() is ends
