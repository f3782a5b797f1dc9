"""CLI workflows: subcommands, manifests, exit codes, reproducibility."""

import contextlib
import gc
import hashlib
import io
import json
import math
import subprocess
import sys
import tempfile
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netprobe import cli, graphs
from netprobe.cli import main
from netprobe.generators import planted_partition_graph
from netprobe.graphs import CompleteGraph, ObservedGraph, load_edge_list
from netprobe.sampling import SAMPLER_NAMES


def write_graph(directory):
    """The 60-node, 168-edge test graph as an edge-list file."""
    g = planted_partition_graph(6, 10, 0.5, 0.02, seed=1)
    path = directory / "graph.edges"
    with open(path, "w") as fh:
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")
    return path


@pytest.fixture()
def graph_file(tmp_path):
    return write_graph(tmp_path)


def run(*argv):
    return main([str(a) for a in argv])


def assert_usage_error(code, capsys, flag=None):
    """Exit 1 with one error line on stderr, naming flag if given.  Every
    flag kept its value: argparse's missing-value error would stand in for
    the value's own check."""
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    errors = [line for line in err if line.startswith("error:")]
    assert len(errors) == 1
    assert "expected one argument" not in errors[0]
    assert flag is None or flag in errors[0]


class TestSample:
    def test_roundtrip_and_manifest(self, graph_file, tmp_path):
        out = tmp_path / "obs.txt"
        code = run("sample", "--graph", graph_file, "--sampler", "randedge",
                   "--fraction", "0.2", "--seed", "3", "--out", out)
        assert code == 0
        assert out.exists()
        manifest = json.loads((tmp_path / "obs.txt.manifest.json").read_text())
        assert manifest["command"] == "sample"
        digest = hashlib.sha256(graph_file.read_bytes()).hexdigest()
        assert manifest["inputs"][str(graph_file)] == digest

    def test_rwj_default_jump(self, graph_file, tmp_path):
        out = tmp_path / "obs.txt"
        run("sample", "--graph", graph_file, "--sampler", "rwj", "--out", out)
        manifest = json.loads((tmp_path / "obs.txt.manifest.json").read_text())
        assert manifest["parameters"]["jump_prob"] == 0.15
        assert manifest["parameters"]["fraction"] == 0.10

    def test_unknown_sampler_is_usage_error(self, graph_file, tmp_path, capsys):
        code = run("sample", "--graph", graph_file, "--sampler", "snowball",
                   "--out", tmp_path / "x.txt")
        assert code == 1

    def test_module_error_is_runtime_exit(self, tmp_path):
        graph = tmp_path / "bad.edges"
        graph.write_text("1 2\n3\n")
        code = run("sample", "--graph", graph, "--sampler", "randedge",
                   "--out", tmp_path / "x.txt")
        assert code == 2

    @pytest.mark.parametrize("flags", [
        ("--sampler", "randedge", "--fraction", "0"),
        ("--sampler", "randnode", "--fraction", "1.5"),
        ("--sampler", "rwj", "--jump-prob", "1"),
        ("--sampler", "randedge", "--fraction", "0.001"),
        # every float flag must be finite, also where the sampler ignores it
        ("--sampler", "rw", "--jump-prob", "nan"),
        ("--sampler", "randedge", "--jump-prob", "inf"),
        ("--sampler", "randnode", "--jump-prob=-inf"),
        # a negative number in any float() syntax is the flag's value
        ("--sampler", "rwj", "--jump-prob", "-1e-3"),
        ("--sampler", "randnode", "--jump-prob", "-inf"),
        ("--sampler", "rwj", "--jump-prob", "-nan"),
        ("--sampler", "randedge", "--fraction", "-1E+2"),
    ])
    def test_out_of_range_flag_is_usage_error(self, graph_file, tmp_path, capsys, flags):
        out = tmp_path / "x.txt"
        code = run("sample", "--graph", graph_file, *flags, "--out", out)
        assert_usage_error(code, capsys)
        assert list(tmp_path.glob("x.*")) == []

    def test_identical_args_identical_bytes(self, graph_file, tmp_path):
        outs = []
        for name in ("a.txt", "b.txt"):
            out = tmp_path / name
            run("sample", "--graph", graph_file, "--sampler", "randnode",
                "--fraction", "0.15", "--seed", "11", "--out", out)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestProbe:
    def make_sample(self, graph_file, tmp_path, sampler="randedge"):
        obs_path = tmp_path / "obs.txt"
        run("sample", "--graph", graph_file, "--sampler", sampler,
            "--fraction", "0.2", "--seed", "3", "--out", obs_path)
        return obs_path

    def test_maxoutprobe_budget_frac(self, graph_file, tmp_path):
        obs = self.make_sample(graph_file, tmp_path)
        prefix = tmp_path / "out" / "run"
        code = run("probe", "--graph", graph_file, "--observed", obs,
                   "--strategy", "maxoutprobe", "--budget-frac", "0.2",
                   "--estimation-probes", "4", "--seed", "5",
                   "--out-prefix", prefix)
        assert code == 0
        log = (tmp_path / "out" / "run.probelog.csv").read_text().splitlines()
        assert log[0] == "phase,node,new_nodes,new_edges,spent_after"
        assert sum(1 for ln in log[1:] if ln.startswith("estimation,")) == 4
        report = json.loads((tmp_path / "out" / "run.estimate.json").read_text())
        assert report["method"] == "probe_based"
        assert report["probes_used"] == 4

    def test_in_place_probe_records_the_digest_of_what_it_read(self, graph_file, tmp_path):
        """A probe whose observed output is its observed input: the manifest
        records the digest of the file the probe read, not of the one it
        wrote over it."""
        obs = tmp_path / "run.observed.txt"
        run("sample", "--graph", graph_file, "--sampler", "randedge",
            "--fraction", "0.2", "--seed", "3", "--out", obs)
        read = hashlib.sha256(obs.read_bytes()).hexdigest()
        code = run("probe", "--graph", graph_file, "--observed", obs,
                   "--strategy", "highdeg", "--budget", "5", "--seed", "5",
                   "--out-prefix", tmp_path / "run")
        assert code == 0
        assert hashlib.sha256(obs.read_bytes()).hexdigest() != read
        manifest = json.loads((tmp_path / "run.observed.txt.manifest.json").read_text())
        assert manifest["inputs"][str(obs)] == read

    def test_no_probe_to_estimate_with_reports_the_fallback(self, graph_file, tmp_path):
        obs = self.make_sample(graph_file, tmp_path)
        prefix = tmp_path / "run"
        # half of one probe rounds to none for estimation
        code = run("probe", "--graph", graph_file, "--observed", obs,
                   "--strategy", "maxoutprobe", "--budget", "1", "--seed", "5",
                   "--out-prefix", prefix)
        assert code == 0
        report = json.loads((tmp_path / "run.estimate.json").read_text())
        assert report["method"] == "fallback"
        assert (report["m_hat"], report["c_hat"], report["probes_used"]) == (2.0, 0.0, 0)
        log = (tmp_path / "run.probelog.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in log[1:]] == ["selection"]

    def test_internal_error_exits_2_with_its_traceback(
        self, graph_file, tmp_path, capsys, monkeypatch
    ):
        obs = self.make_sample(graph_file, tmp_path)
        capsys.readouterr()

        def broken_budget(fraction, n_nodes):
            raise TypeError("injected bug")

        monkeypatch.setattr(cli, "budget_from_fraction", broken_budget)
        code = run("probe", "--graph", graph_file, "--observed", obs,
                   "--strategy", "highdeg", "--budget-frac", "0.2",
                   "--out-prefix", tmp_path / "x")
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback (most recent call last)" in err
        assert "in broken_budget" in err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert errors == ["error: internal error: TypeError('injected bug')"]

    def test_known_sampler_activates_closed_form(self, graph_file, tmp_path):
        obs = self.make_sample(graph_file, tmp_path)
        prefix = tmp_path / "known"
        code = run("probe", "--graph", graph_file, "--observed", obs,
                   "--strategy", "maxoutprobe", "--budget-frac", "0.2",
                   "--known-sampler", "randedge", "--f-e", "0.2",
                   "--seed", "5", "--out-prefix", prefix)
        assert code == 0
        report = json.loads((tmp_path / "known.estimate.json").read_text())
        assert report["method"] == "known_edge_sample"
        assert report["probes_used"] == 0
        assert report["m_hat"] == pytest.approx(5.0)

    def test_random_strategy_reproducible(self, graph_file, tmp_path):
        obs = self.make_sample(graph_file, tmp_path)
        blobs = []
        for name in ("r1", "r2"):
            prefix = tmp_path / name
            run("probe", "--graph", graph_file, "--observed", obs,
                "--strategy", "random", "--budget", "5", "--seed", "9",
                "--out-prefix", prefix)
            blobs.append((tmp_path / f"{name}.observed.txt").read_bytes())
        assert blobs[0] == blobs[1]

    def test_bad_budget_is_usage_error(self, graph_file, tmp_path):
        obs = self.make_sample(graph_file, tmp_path)
        code = run("probe", "--graph", graph_file, "--observed", obs,
                   "--strategy", "highdeg", "--budget", "0",
                   "--out-prefix", tmp_path / "x")
        assert code == 1

    @pytest.mark.parametrize("frac", ["-0.5", "0", "7", "0.001", "nan", "-1e-3"])
    def test_budget_frac_out_of_range_is_usage_error(self, graph_file, tmp_path, capsys, frac):
        obs = self.make_sample(graph_file, tmp_path)
        capsys.readouterr()
        code = run("probe", "--graph", graph_file, "--observed", obs,
                   "--strategy", "highdeg", "--budget-frac", frac,
                   "--out-prefix", tmp_path / "x")
        assert_usage_error(code, capsys)
        assert not (tmp_path / "x.observed.txt").exists()

    def test_bad_strategy_is_usage_error(self, graph_file, tmp_path):
        obs = self.make_sample(graph_file, tmp_path)
        code = run("probe", "--graph", graph_file, "--observed", obs,
                   "--strategy", "meud", "--budget", "5",
                   "--out-prefix", tmp_path / "x")
        assert code == 1

    @pytest.mark.parametrize("flags", [
        ("--known-sampler", "randnode", "--f-n", "7"),
        ("--known-sampler", "randnode", "--f-n", "0"),
        ("--known-sampler", "randedge", "--f-e", "0"),
        ("--known-sampler", "randedge", "--f-e", "nan"),
        # positive, but 1/f overflows to inf
        ("--known-sampler", "randnode", "--f-n", "5e-324"),
        ("--known-sampler", "randedge", "--f-e", "5e-324"),
        ("--estimation-probes", "0"),
        ("--estimation-probes", "-3"),
        # --budget wins, but --budget-frac must still be finite
        ("--budget-frac", "nan"),
        ("--known-sampler", "randnode", "--f-n", "0.2", "--f-e", "inf"),
        # a fraction that no --known-sampler reads
        ("--known-sampler", "randedge", "--f-e", "0.2", "--f-n", "7"),
        ("--known-sampler", "randnode", "--f-n", "0.2", "--f-e", "0.2"),
        ("--f-n", "0.3"),
        ("--f-e", "0.3"),
        ("--budget-frac", "-inf"),
        ("--known-sampler", "randnode", "--f-n", "-inf"),
        ("--known-sampler", "randedge", "--f-e", "-nan"),
    ])
    def test_out_of_range_flag_is_usage_error(self, graph_file, tmp_path, capsys, flags):
        obs = self.make_sample(graph_file, tmp_path)
        capsys.readouterr()
        code = run("probe", "--graph", graph_file, "--observed", obs,
                   "--strategy", "maxoutprobe", "--budget", "6", *flags,
                   "--out-prefix", tmp_path / "x")
        assert_usage_error(code, capsys, flags[-2])
        assert list(tmp_path.glob("x.*")) == []

    def test_known_sampler_requires_fraction(self, graph_file, tmp_path):
        obs = self.make_sample(graph_file, tmp_path)
        code = run("probe", "--graph", graph_file, "--observed", obs,
                   "--strategy", "maxoutprobe", "--budget", "5",
                   "--known-sampler", "randedge",
                   "--out-prefix", tmp_path / "x")
        assert code == 1


class TestEstimate:
    def test_probe_based_report(self, graph_file, tmp_path):
        obs = TestProbe().make_sample(graph_file, tmp_path)
        out = tmp_path / "report.json"
        code = run("estimate", "--graph", graph_file, "--observed", obs,
                   "--budget", "10", "--n-probes", "4", "--seed", "2",
                   "--out", out)
        assert code == 0
        report = json.loads(out.read_text())
        assert report["method"] == "probe_based"
        assert report["m_hat"] >= 1.0
        assert 0.0 <= report["c_hat"] <= 1.0

    def test_known_node_report(self, graph_file, tmp_path):
        obs_path = tmp_path / "nodes.txt"
        run("sample", "--graph", graph_file, "--sampler", "randnode",
            "--fraction", "0.2", "--seed", "4", "--out", obs_path)
        out = tmp_path / "report.json"
        code = run("estimate", "--graph", graph_file, "--observed", obs_path,
                   "--known-sampler", "randnode", "--f-n", "0.1", "--out", out)
        assert code == 0
        assert json.loads(out.read_text())["method"] == "known_node_sample"

    @pytest.mark.parametrize("known, method, probes_used", [
        (None, "probe_based", 4),
        (("randedge", "--f-e", "achieved_edge_fraction"), "known_edge_sample", 0),
        (("randnode", "--f-n", "achieved_node_fraction"), "known_node_sample", 0),
    ], ids=["probe-based", "randedge", "randnode"])
    def test_equals_the_estimate_probe_plans_with(
        self, graph_file, tmp_path, known, method, probes_used
    ):
        """`estimate` with `probe`'s flags writes the very bytes of the
        estimate the probe planned with; a known sample is given the fraction
        its sample's manifest records."""
        obs = TestProbe().make_sample(graph_file, tmp_path, known[0] if known else "randedge")
        flags = ["--graph", graph_file, "--observed", obs, "--budget", "10", "--seed", "7"]
        if known:
            sampler, flag, field = known
            fraction = json.loads(Path(f"{obs}.manifest.json").read_text())["parameters"][field]
            flags += ["--known-sampler", sampler, flag, repr(fraction)]
        assert run("probe", *flags, "--strategy", "maxoutprobe",
                   "--estimation-probes", "4", "--out-prefix", tmp_path / "run") == 0
        assert run("estimate", *flags, "--n-probes", "4", "--out", tmp_path / "r.json") == 0
        planned = (tmp_path / "run.estimate.json").read_bytes()
        assert (tmp_path / "r.json").read_bytes() == planned
        report = json.loads(planned)
        assert (report["method"], report["probes_used"]) == (method, probes_used)


    def test_an_observation_with_no_candidate_is_not_blamed_on_the_budget(
        self, tmp_path, capsys
    ):
        graph = tmp_path / "triangle.edges"
        graph.write_text("a b\nb c\nc a\n")
        obs = tmp_path / "all.txt"
        obs.write_text("[edges]\na b\na c\nb c\n[status]\na E\nb E\nc E\n")
        code = run("estimate", "--graph", graph, "--observed", obs,
                   "--budget", "100", "--out", tmp_path / "r.json")
        assert_usage_error(code, capsys, "no candidate to probe")
        assert not (tmp_path / "r.json").exists()

    def test_a_budget_of_one_leaves_no_estimation_probe(self, graph_file, tmp_path, capsys):
        obs = TestProbe().make_sample(graph_file, tmp_path)
        capsys.readouterr()
        code = run("estimate", "--graph", graph_file, "--observed", obs,
                   "--budget", "1", "--out", tmp_path / "r.json")
        assert_usage_error(code, capsys, "budget too small for any estimation probe")

    @pytest.mark.parametrize("frac", ["-0.5", "0", "7", "0.001", "nan", "-1e-3"])
    def test_budget_frac_out_of_range_is_usage_error(self, graph_file, tmp_path, capsys, frac):
        obs = TestProbe().make_sample(graph_file, tmp_path)
        capsys.readouterr()
        for known in ([], ["--known-sampler", "randedge", "--f-e", "0.2"]):
            code = run("estimate", "--graph", graph_file, "--observed", obs,
                       "--budget-frac", frac, "--out", tmp_path / "r.json", *known)
            assert_usage_error(code, capsys)
        assert not (tmp_path / "r.json").exists()


    @pytest.mark.parametrize("flags", [
        ("--known-sampler", "randnode", "--f-n", "7"),
        ("--known-sampler", "randedge", "--f-e", "0"),
        ("--known-sampler", "randnode", "--f-n", "5e-324"),
        ("--known-sampler", "randedge", "--f-e", "5e-324"),
        ("--n-probes", "0"),
        ("--n-probes", "-1"),
        ("--budget-frac", "inf"),
        ("--known-sampler", "randedge", "--f-e", "0.2", "--f-n", "7"),
        ("--f-n", "0.3"),
        ("--f-e", "0.3"),
        ("--budget-frac", "-nan"),
        ("--known-sampler", "randedge", "--f-e", "-1.5e0"),
        ("--n-probes", "-1e3"),
    ])
    def test_out_of_range_flag_is_usage_error(self, graph_file, tmp_path, capsys, flags):
        obs = TestProbe().make_sample(graph_file, tmp_path)
        capsys.readouterr()
        out = tmp_path / "r.json"
        code = run("estimate", "--graph", graph_file, "--observed", obs,
                   "--budget", "10", *flags, "--out", out)
        assert_usage_error(code, capsys, flags[-2])
        assert not out.exists()


class TestSweep:
    def test_outputs_and_reproducibility(self, graph_file, tmp_path):
        blobs = []
        for name in ("s1", "s2"):
            prefix = tmp_path / name / "sweep"
            code = run("sweep", "--graph", graph_file,
                       "--samplers", "randedge",
                       "--strategies", "maxoutprobe,highdeg",
                       "--budget-fracs", "0.1,0.2", "--repeats", "2",
                       "--edge-fraction", "0.2", "--estimation-probes", "3",
                       "--master-seed", "5", "--out-prefix", prefix)
            assert code == 0
            blobs.append((
                (tmp_path / name / "sweep.results.csv").read_bytes(),
                (tmp_path / name / "sweep.curves.csv").read_bytes(),
            ))
        assert blobs[0] == blobs[1]
        text = blobs[0][0].decode()
        assert text.splitlines()[0].startswith("sampler,strategy,")
        # 2 strategies x 2 budgets x 2 repeats + 4 paired random rows
        assert len(text.strip().splitlines()) == 1 + 8 + 4

    def test_empty_strategy_list_rejected(self, graph_file, tmp_path):
        code = run("sweep", "--graph", graph_file, "--strategies", "",
                   "--out-prefix", tmp_path / "x")
        assert code == 1

    def test_known_sample_with_walk_sampler_is_usage_error(self, graph_file, tmp_path):
        out = tmp_path / "ks"
        code = run("sweep", "--graph", graph_file, "--samplers", "randedge,rw",
                   "--budget-fracs", "0.1", "--repeats", "1", "--known-sample",
                   "--out-prefix", out / "sweep")
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ("--budget-fracs", "7,0.1"),
        ("--budget-fracs", "0.1,x"),
        ("--edge-fraction", "0"),
        ("--edge-fraction", "1.5"),
        ("--jump-prob", "1.5"),
        ("--repeats", "0"),
        ("--edge-fraction", "0.001"),
        ("--jobs", "0"),
        ("--jobs", "-2"),
        ("--estimation-probes", "0"),
        ("--estimation-probes", "-5"),
        # a jump probability that no rwj trial reads must still be finite
        ("--samplers", "rw", "--jump-prob", "inf"),
        ("--samplers", "randedge", "--jump-prob", "nan"),
    ])
    def test_out_of_range_grid_value_is_usage_error(self, graph_file, tmp_path, capsys, flags):
        out = tmp_path / "range"
        code = run("sweep", "--graph", graph_file, "--samplers", "randedge,rwj",
                   "--strategies", "highdeg", "--budget-fracs", "0.1",
                   "--repeats", "1", *flags, "--out-prefix", out / "sweep")
        # a count flag's error names the flag
        counts = ("--repeats", "--jobs", "--estimation-probes")
        assert_usage_error(code, capsys, flags[0] if flags[0] in counts else None)
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--budget-fracs", "0.05,0.05"),
        ("--budget-fracs", "0.1,0.2,0.10"),
        ("--strategies", "highdeg,highdeg"),
        ("--samplers", "rw,rw"),
        # lists with no entry
        ("--samplers", ""),
        ("--strategies", ","),
        ("--budget-fracs", ","),
    ])
    def test_empty_or_repeated_grid_list_is_usage_error(
        self, graph_file, tmp_path, capsys, flag, value
    ):
        out = tmp_path / "grid"
        argv = {"--samplers": "randedge", "--strategies": "highdeg", "--budget-fracs": "0.1"}
        argv[flag] = value
        code = run("sweep", "--graph", graph_file, *chain(*argv.items()), "--repeats", "1",
                   "--out-prefix", out / "sweep")
        assert_usage_error(code, capsys, flag)
        assert not out.exists()

    def test_bad_jobs_environment_is_usage_error(self, graph_file, tmp_path, capsys, monkeypatch):
        argv = ["sweep", "--graph", graph_file, "--samplers", "randedge",
                "--strategies", "highdeg", "--budget-fracs", "0.1", "--repeats", "1"]
        for value in ("x", "0"):
            monkeypatch.setenv("NETPROBE_JOBS", value)
            code = run(*argv, "--out-prefix", tmp_path / "j")
            # the error names the variable, not the --jobs flag never given
            assert_usage_error(code, capsys, "NETPROBE_JOBS")
            assert not (tmp_path / "j.results.csv").exists()
        monkeypatch.setenv("NETPROBE_JOBS", "2")
        assert run(*argv, "--out-prefix", tmp_path / "env") == 0
        manifest = read_manifest(tmp_path / "env.results.csv.manifest.json")
        assert manifest["parameters"]["jobs"] == 2

    def test_parallel_jobs_flag(self, graph_file, tmp_path):
        prefix = tmp_path / "par" / "sweep"
        code = run("sweep", "--graph", graph_file, "--samplers", "randedge",
                   "--strategies", "highdeg", "--budget-fracs", "0.1",
                   "--repeats", "2", "--edge-fraction", "0.2",
                   "--jobs", "2", "--master-seed", "1", "--out-prefix", prefix)
        assert code == 0


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def read_manifest(path):
    """A manifest file, parsed as strict JSON."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


# manifest parameters that the run derived rather than parsed
DERIVED = ("achieved_node_fraction", "achieved_edge_fraction")
OUTPUT_FLAGS = ("out", "out_prefix")


def replay_argv(manifest, out_dir):
    """The argv the manifest records, with its outputs moved into out_dir."""
    argv = [manifest["command"]]
    for dest, value in manifest["parameters"].items():
        if dest in DERIVED or value is None or value is False:
            continue
        flag = "--" + dest.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif dest in OUTPUT_FLAGS:
            argv.append(f"{flag}={out_dir / Path(value).name}")
        else:
            argv.append(f"{flag}={value}")
    return argv


REPLAY_CASES = {
    "sample": ("sample", "--sampler", "rwj", "--fraction", "0.2", "--jump-prob", "0.3",
               "--seed", "4", "--out", "obs.txt"),
    "probe": ("probe", "--observed", "{observed}", "--strategy", "maxoutprobe",
              "--budget-frac", "0.2", "--estimation-probes", "4", "--seed", "5",
              "--out-prefix", "run"),
    "probe-uncharged": ("probe", "--observed", "{observed}", "--strategy", "maxoutprobe",
                        "--budget-frac", "0.2", "--estimation-probes", "4", "--seed", "5",
                        "--estimation-uncharged", "--out-prefix", "run"),
    "probe-known": ("probe", "--observed", "{observed}", "--strategy", "highdeg",
                    "--budget", "5", "--known-sampler", "randedge", "--f-e", "0.2",
                    "--out-prefix", "run"),
    "estimate-6": ("estimate", "--observed", "{observed}", "--budget", "6",
                   "--n-probes", "4", "--seed", "2", "--out", "report.json"),
    "estimate-20": ("estimate", "--observed", "{observed}", "--budget", "20",
                    "--n-probes", "4", "--seed", "2", "--out", "report.json"),
    "sweep": ("sweep", "--samplers", "randedge,rw", "--strategies", "maxoutprobe,highdeg",
              "--budget-fracs", "0.1,0.2", "--repeats", "1", "--edge-fraction", "0.2",
              "--estimation-probes", "3", "--master-seed", "5", "--out-prefix", "sweep"),
}


@pytest.mark.parametrize("case", REPLAY_CASES)
def test_manifest_replays_run(graph_file, tmp_path, case):
    """Rerunning the argv a manifest records rewrites every output byte for
    byte, and writes the same manifest apart from the output paths."""
    observed = TestProbe().make_sample(graph_file, tmp_path)
    command, *flags = REPLAY_CASES[case]
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    flags = [f.format(observed=observed) for f in flags]
    flags[-1] = first / flags[-1]
    assert run(command, "--graph", graph_file, *flags) == 0
    manifest_path = next(first.glob("*.manifest.json"))
    manifest = read_manifest(manifest_path)
    assert run(*replay_argv(manifest, second)) == 0

    outputs = sorted(p.name for p in first.iterdir())
    assert sorted(p.name for p in second.iterdir()) == outputs
    for name in outputs:
        if not name.endswith(".manifest.json"):
            assert (second / name).read_bytes() == (first / name).read_bytes(), name
    replayed = read_manifest(second / manifest_path.name)
    for m in (manifest, replayed):
        for dest in OUTPUT_FLAGS:
            m["parameters"].pop(dest, None)
    assert replayed == manifest


class TestStats:
    def test_graph_stats(self, graph_file, capsys):
        code = run("stats", "--graph", graph_file)
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["nodes"] == 60
        assert stats["triangles"] > 0
        assert 0 <= stats["global_clustering"] <= 1

    def test_observed_stats(self, graph_file, tmp_path, capsys):
        obs = TestProbe().make_sample(graph_file, tmp_path)
        capsys.readouterr()
        code = run("stats", "--graph", graph_file, "--observed", obs)
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["observed"]["explored"] == 0
        assert stats["observed"]["origin"] == "randedge"

    def test_each_graph_is_counted_once(self, graph_file, tmp_path, monkeypatch, capsys):
        obs = TestProbe().make_sample(graph_file, tmp_path)
        counted = []
        count = graphs.count_triangles_wedges

        def counting(g):
            counted.append(type(g))
            return count(g)

        monkeypatch.setattr(graphs, "count_triangles_wedges", counting)
        monkeypatch.setattr(cli, "count_triangles_wedges", counting)
        capsys.readouterr()
        assert run("stats", "--graph", graph_file, "--observed", obs) == 0
        assert counted == [CompleteGraph, ObservedGraph]
        stats = json.loads(capsys.readouterr().out)
        with open(graph_file) as fh:
            g = load_edge_list(fh)
        assert stats["global_clustering"] == graphs.global_clustering(g)


class TestCollectorPause:
    @pytest.fixture()
    def load_states(self, monkeypatch):
        """The collector's state at each graph load, which the command runs."""
        states = []
        load_graph = cli._load_graph

        def recording_load_graph(path):
            states.append(gc.isenabled())
            return load_graph(path)

        monkeypatch.setattr(cli, "_load_graph", recording_load_graph)
        yield states
        gc.enable()

    @pytest.mark.parametrize("code, argv", [
        (0, ["stats", "--graph", "{graph}"]),
        (1, ["sample", "--graph", "{graph}", "--sampler", "randedge", "--fraction", "2",
             "--out", "{tmp}/obs.txt"]),
        (2, ["stats", "--graph", "{tmp}/missing.edges"]),
    ])
    def test_a_command_runs_paused_and_restores_the_collector(
        self, graph_file, tmp_path, capsys, load_states, code, argv
    ):
        argv = [a.format(graph=graph_file, tmp=tmp_path) for a in argv]
        assert main(argv) == code
        assert load_states == [False]
        assert gc.isenabled()

    def test_a_caller_that_turned_the_collector_off_finds_it_off(
        self, graph_file, capsys, load_states
    ):
        gc.disable()
        assert run("stats", "--graph", graph_file) == 0
        assert load_states == [False]
        assert not gc.isenabled()


N_NODES, N_EDGES = 60, 168

def mostly_in_range(in_range, anything):
    """Four draws in five from in_range, so that examples with every flag
    in range stay common."""
    return st.integers(0, 4).flatmap(lambda i: anything if i == 0 else in_range)


NAN, INF = float("nan"), float("inf")
fractions = mostly_in_range(st.floats(0.05, 1.0), st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-200, 1e-5, 0.001, 0.01, 0.02, 1.5, NAN, INF, -INF]),
    st.floats(-0.5, 1.5),
))
jump_probs = mostly_in_range(st.floats(0.0, 1.0, exclude_max=True), st.one_of(
    st.sampled_from([1.0, NAN, INF]), st.floats(-0.5, 1.5),
))
counts = mostly_in_range(st.integers(1, 12), st.integers(-3, 0))
seeds = st.integers(-5, 10**6)
budget_flags = st.one_of(st.tuples(st.just("--budget"), counts),
                         st.tuples(st.just("--budget-frac"), fractions))
known_flags = st.one_of(st.none(), st.tuples(st.sampled_from(["randnode", "randedge"]), fractions))


def in_unit_interval(f):
    return 0.0 < f <= 1.0


def budget_in_range(flag, value):
    """The probe count a valid budget flag gives, or None."""
    if flag == "--budget":
        return value if value >= 1 else None
    budget = int(value * N_NODES) if in_unit_interval(value) else 0
    return budget if budget >= 1 else None


def edge_fraction_in_range(f, sampler):
    # randnode explores at least one node whatever the fraction
    return in_unit_interval(f) and (sampler == "randnode" or int(f * N_EDGES) >= 1)


def jump_prob_in_range(p, sampler):
    # every sampler takes the flag, and only rwj bounds it
    return math.isfinite(p) and (sampler != "rwj" or 0.0 <= p < 1.0)


def known_args(known):
    if known is None:
        return [], True
    sampler, fraction = known
    flag = "--f-n" if sampler == "randnode" else "--f-e"
    in_range = in_unit_interval(fraction) and not math.isinf(1 / fraction)
    return ["--known-sampler", sampler, f"{flag}={fraction}"], in_range


@pytest.fixture(scope="module")
def flag_inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("flags")
    graph = write_graph(directory)
    observed = directory / "obs.txt"
    assert run("sample", "--graph", graph, "--sampler", "randedge",
               "--fraction", "0.2", "--seed", "3", "--out", observed) == 0
    return graph, observed


def check_exit_contract(argv, in_range, out_of):
    """Run argv, whose outputs go into a fresh directory passed to out_of.
    In range it never exits 1; out of range it exits 1 with one error line,
    no traceback and no output file."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([str(a) for a in [*argv, *out_of(out_dir)]])
        written = list(out_dir.iterdir())
    assert "Traceback" not in err.getvalue()
    if in_range:
        assert code != 1, err.getvalue()
    else:
        assert code == 1
        assert len([ln for ln in err.getvalue().splitlines() if ln.startswith("error:")]) == 1
        assert written == []


@settings(max_examples=100, deadline=None)
@given(sampler=st.sampled_from(SAMPLER_NAMES), fraction=fractions, jump_prob=jump_probs,
       seed=seeds)
def test_sample_numeric_flags(flag_inputs, sampler, fraction, jump_prob, seed):
    graph, _ = flag_inputs
    argv = ["sample", "--graph", graph, "--sampler", sampler, f"--fraction={fraction}",
            f"--jump-prob={jump_prob}", f"--seed={seed}"]
    in_range = edge_fraction_in_range(fraction, sampler) and jump_prob_in_range(jump_prob, sampler)
    check_exit_contract(argv, in_range, lambda out: ["--out", out / "obs.txt"])


@settings(max_examples=100, deadline=None)
@given(budget=budget_flags, known=known_flags, estimation_probes=counts, seed=seeds)
def test_probe_numeric_flags(flag_inputs, budget, known, estimation_probes, seed):
    graph, observed = flag_inputs
    known_argv, known_in_range = known_args(known)
    argv = ["probe", "--graph", graph, "--observed", observed, "--strategy", "maxoutprobe",
            f"{budget[0]}={budget[1]}", f"--estimation-probes={estimation_probes}",
            f"--seed={seed}", *known_argv]
    in_range = (budget_in_range(*budget) is not None and known_in_range
                and estimation_probes >= 1)
    check_exit_contract(argv, in_range, lambda out: ["--out-prefix", out / "run"])


@settings(max_examples=100, deadline=None)
@given(budget=budget_flags, known=known_flags, n_probes=counts, seed=seeds)
def test_estimate_numeric_flags(flag_inputs, budget, known, n_probes, seed):
    graph, observed = flag_inputs
    known_argv, known_in_range = known_args(known)
    argv = ["estimate", "--graph", graph, "--observed", observed,
            f"{budget[0]}={budget[1]}", f"--n-probes={n_probes}", f"--seed={seed}", *known_argv]
    n_budget = budget_in_range(*budget)
    # without known-sample estimators, a budget of 1 leaves no estimation probe
    in_range = (n_budget is not None and known_in_range and n_probes >= 1
                and (known is not None or n_budget >= 2))
    check_exit_contract(argv, in_range, lambda out: ["--out", out / "report.json"])


@settings(max_examples=100, deadline=None)
@given(samplers=st.lists(st.sampled_from(SAMPLER_NAMES), min_size=1, max_size=2, unique=True),
       budgets=st.lists(fractions, min_size=1, max_size=2), edge_fraction=fractions,
       jump_prob=jump_probs, repeats=mostly_in_range(st.integers(1, 2), st.integers(-2, 0)),
       estimation_probes=counts, jobs=mostly_in_range(st.just(1), st.integers(-3, 0)),
       seed=seeds)
def test_sweep_numeric_flags(flag_inputs, samplers, budgets, edge_fraction, jump_prob,
                             repeats, estimation_probes, jobs, seed):
    graph, _ = flag_inputs
    argv = ["sweep", "--graph", graph, "--samplers", ",".join(samplers),
            "--strategies", "maxoutprobe,highdeg",
            f"--budget-fracs={','.join(map(str, budgets))}",
            f"--edge-fraction={edge_fraction}", f"--jump-prob={jump_prob}",
            f"--repeats={repeats}", f"--estimation-probes={estimation_probes}",
            f"--jobs={jobs}", f"--master-seed={seed}"]
    in_range = (
        all(budget_in_range("--budget-frac", b) is not None for b in budgets)
        and all(edge_fraction_in_range(edge_fraction, s) and jump_prob_in_range(jump_prob, s)
                for s in samplers)
        and repeats >= 1 and estimation_probes >= 1 and jobs >= 1
        # a budget listed twice would run its trials twice
        and len(set(budgets)) == len(budgets)
    )
    check_exit_contract(argv, in_range, lambda out: ["--out-prefix", out / "sweep"])


def test_console_script_runs():
    result = subprocess.run(
        [sys.executable, "-m", "netprobe.cli", "--version"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "netprobe" in result.stdout


def test_importing_the_cli_loads_no_process_pool():
    # only a parallel sweep needs multiprocessing, and it loads it then
    code = "import sys, netprobe.cli; sys.exit('multiprocessing' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
