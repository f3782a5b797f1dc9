"""`netprobe stats` on edge lists and observed files that the readers must
read as their plain forms, and `netprobe sweep`'s worker count, each command
run in a fresh interpreter as the console script runs it."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from netprobe.generators import planted_partition_graph

SRC = str(Path(__file__).resolve().parents[1] / "src")
MAIN = "import sys; from netprobe.cli import main; sys.exit(main(sys.argv[1:]))"


def netprobe(*argv, env=()):
    """Run the CLI with argv in a new interpreter that imports this tree's
    package, with the variables of env set over this process's."""
    env = {**os.environ, **dict(env)}
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


# a grid that runs Louvain and lists the paired random baseline itself
SWEEP = ("sweep", "--budget-fracs", "0.05,0.1", "--repeats", 2,
         "--strategies", "maxoutprobe,highdeg,crosscomm,random", "--master-seed", 7)


def sweep(work, prefix, *argv, env=()):
    """Run SWEEP on the work graph; its results and curves CSVs, as bytes."""
    result = netprobe(*SWEEP, "--graph", work / "graph.edges", "--out-prefix", work / prefix,
                      *argv, env=env)
    assert result.returncode == 0, result.stderr
    return [(work / f"{prefix}.{name}.csv").read_bytes() for name in ("results", "curves")]


@pytest.fixture(scope="module")
def in_process(work):
    """SWEEP's CSVs at one worker."""
    return sweep(work, "sweep.serial", "--jobs", 1)


def test_a_two_worker_sweep_writes_the_in_process_csvs(work, in_process):
    # the pool is forked from a process whose collector is paused
    assert sweep(work, "sweep.two", "--jobs", 2) == in_process


def test_the_sweep_writes_each_strategys_rows_none_blank_or_twice(in_process):
    rows = [tuple(row.items()) for row in csv.DictReader(io.StringIO(in_process[0].decode()))]
    assert rows and len(set(rows)) == len(rows)
    assert all(dict(row)["nodes_after"] != "" for row in rows)
    strategies = {dict(row)["strategy"] for row in rows}
    assert strategies == {"maxoutprobe", "highdeg", "crosscomm", "random"}


def test_without_jobs_the_sweep_takes_its_worker_count_from_netprobe_jobs(work, in_process):
    assert sweep(work, "sweep.env", env={"NETPROBE_JOBS": "2"}) == in_process
    manifest = json.loads((work / "sweep.env.results.csv.manifest.json").read_text())
    assert manifest["parameters"]["jobs"] == 2


def test_netprobe_jobs_0_exits_1_naming_the_variable_and_writes_no_results(work):
    result = netprobe("sweep", "--graph", work / "graph.edges", "--budget-fracs", 0.05,
                      "--repeats", 1, "--out-prefix", work / "sweep.badenv",
                      env={"NETPROBE_JOBS": "0"})
    assert result.returncode == 1
    errors = [line for line in result.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "NETPROBE_JOBS" in errors[0]
    assert not (work / "sweep.badenv.results.csv").exists()
