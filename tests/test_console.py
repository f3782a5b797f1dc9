"""`netprobe stats` on edge lists and observed files that the readers must
read as their plain forms, each command run in a fresh interpreter as the
console script runs it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from netprobe.generators import planted_partition_graph

SRC = str(Path(__file__).resolve().parents[1] / "src")
MAIN = "import sys; from netprobe.cli import main; sys.exit(main(sys.argv[1:]))"


def netprobe(*argv):
    """Run the CLI with argv in a new interpreter that imports this tree's
    package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", MAIN, *map(str, argv)],
        capture_output=True, text=True, env=env,
    )


def stats(*argv):
    result = netprobe("stats", *argv)
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A 120-node graph as a plain edge list, and a randedge sample of it."""
    work = tmp_path_factory.mktemp("console")
    g = planted_partition_graph(12, 10, 0.5, 0.02, seed=1)
    with open(work / "graph.edges", "w") as fh:
        fh.writelines(f"{u} {v}\n" for u, v in g.edges())
    result = netprobe("sample", "--graph", work / "graph.edges", "--sampler", "randedge",
                      "--seed", 3, "--out", work / "obs.txt")
    assert result.returncode == 0, result.stderr
    return work


def test_a_header_a_tab_and_crlf_give_the_plain_files_stats(work):
    lines = (work / "graph.edges").read_text().splitlines()
    lines[0] = lines[0].replace(" ", "\t")
    edited = work / "graph.crlf.edges"
    with open(edited, "w", newline="\r\n") as fh:
        fh.write("# edge list with a header\n" + "\n".join(lines) + "\n")
    assert b"\r\n" in edited.read_bytes()
    assert stats("--graph", edited) == stats("--graph", work / "graph.edges")


def test_a_byte_order_mark_joins_no_label(work):
    edited = work / "graph.bom.edges"
    edited.write_bytes(b"\xef\xbb\xbf" + (work / "graph.edges").read_bytes())
    plain = json.loads(stats("--graph", work / "graph.edges"))
    bom = json.loads(stats("--graph", edited))
    assert (bom["nodes"], bom["edges"]) == (plain["nodes"], plain["edges"])


def test_every_edge_repeated_reversed_is_a_dropped_duplicate(work):
    text = (work / "graph.edges").read_text()
    reversed_lines = "".join(f"{v} {u}\n" for u, v in map(str.split, text.splitlines()))
    edited = work / "graph.twice.edges"
    edited.write_text(text + reversed_lines)
    plain = json.loads(stats("--graph", work / "graph.edges"))
    twice = json.loads(stats("--graph", edited))
    shape = ("nodes", "edges", "global_clustering")
    assert [twice[key] for key in shape] == [plain[key] for key in shape]
    assert twice["duplicates_dropped"] == plain["edges"]


def test_a_comment_under_edges_and_crlf_give_the_plain_files_observed_stats(work):
    text = (work / "obs.txt").read_text()
    edited = work / "obs.crlf.txt"
    with open(edited, "w", newline="\r\n") as fh:
        fh.write(text.replace("[edges]\n", "[edges]\n# edited by hand\n", 1))
    assert b"# edited by hand\r\n" in edited.read_bytes()

    def observed(path):
        return json.loads(stats("--graph", work / "graph.edges", "--observed", path))["observed"]

    assert observed(edited) == observed(work / "obs.txt")


def test_a_second_label_that_starts_with_a_hash_exits_2_naming_its_line(work):
    edited = work / "graph.hash.edges"
    edited.write_text("a c\nc d\na #b\nd a\n")
    result = netprobe("stats", "--graph", edited)
    assert result.returncode == 2
    assert "line 3: node label '#b'" in result.stderr
