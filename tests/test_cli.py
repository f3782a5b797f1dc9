"""CLI workflows: subcommands, manifests, exit codes, reproducibility."""

import hashlib
import json
import subprocess
import sys

import pytest

from netprobe.cli import build_parser, main
from netprobe.generators import planted_partition_graph


@pytest.fixture()
def graph_file(tmp_path):
    g = planted_partition_graph(6, 10, 0.5, 0.02, seed=1)
    path = tmp_path / "graph.edges"
    with open(path, "w") as fh:
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")
    return path


def run(*argv):
    return main([str(a) for a in argv])


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

    def test_module_error_is_runtime_exit(self, graph_file, tmp_path):
        code = run("sample", "--graph", graph_file, "--sampler", "randedge",
                   "--fraction", "0.00001", "--out", tmp_path / "x.txt")
        assert code == 2

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

    @pytest.mark.parametrize("frac", ["-0.5", "0", "7", "0.001", "nan"])
    def test_budget_frac_out_of_range_is_usage_error(self, graph_file, tmp_path, frac):
        obs = self.make_sample(graph_file, tmp_path)
        code = run("probe", "--graph", graph_file, "--observed", obs,
                   "--strategy", "highdeg", "--budget-frac", frac,
                   "--out-prefix", tmp_path / "x")
        assert code == 1
        assert not (tmp_path / "x.observed.txt").exists()

    def test_bad_strategy_is_usage_error(self, graph_file, tmp_path):
        obs = self.make_sample(graph_file, tmp_path)
        code = run("probe", "--graph", graph_file, "--observed", obs,
                   "--strategy", "meud", "--budget", "5",
                   "--out-prefix", tmp_path / "x")
        assert code == 1

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


    @pytest.mark.parametrize("frac", ["-0.5", "0", "7", "0.001", "nan"])
    def test_budget_frac_out_of_range_is_usage_error(self, graph_file, tmp_path, frac):
        obs = TestProbe().make_sample(graph_file, tmp_path)
        for known in ([], ["--known-sampler", "randedge", "--f-e", "0.2"]):
            code = run("estimate", "--graph", graph_file, "--observed", obs,
                       "--budget-frac", frac, "--out", tmp_path / "r.json", *known)
            assert code == 1
        assert not (tmp_path / "r.json").exists()


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
        ("--edge-fraction", "0"),
        ("--edge-fraction", "1.5"),
        ("--jump-prob", "1.5"),
        ("--repeats", "0"),
    ])
    def test_out_of_range_grid_value_is_usage_error(self, graph_file, tmp_path, flags):
        out = tmp_path / "range"
        code = run("sweep", "--graph", graph_file, "--samplers", "randedge,rwj",
                   "--strategies", "highdeg", "--budget-fracs", "0.1",
                   "--repeats", "1", *flags, "--out-prefix", out / "sweep")
        assert code == 1
        assert not out.exists()

    def test_bad_jobs_environment_is_usage_error(self, graph_file, tmp_path, monkeypatch):
        monkeypatch.setenv("NETPROBE_JOBS", "x")
        code = run("sweep", "--graph", graph_file, "--samplers", "randedge",
                   "--strategies", "highdeg", "--budget-fracs", "0.1",
                   "--repeats", "1", "--out-prefix", tmp_path / "j")
        assert code == 1
        monkeypatch.setenv("NETPROBE_JOBS", "2")
        assert build_parser().parse_args(
            ["sweep", "--graph", "g", "--out-prefix", "p"]).jobs == 2

    def test_parallel_jobs_flag(self, graph_file, tmp_path):
        prefix = tmp_path / "par" / "sweep"
        code = run("sweep", "--graph", graph_file, "--samplers", "randedge",
                   "--strategies", "highdeg", "--budget-fracs", "0.1",
                   "--repeats", "2", "--edge-fraction", "0.2",
                   "--jobs", "2", "--master-seed", "1", "--out-prefix", prefix)
        assert code == 0


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


def test_console_script_runs():
    result = subprocess.run(
        [sys.executable, "-m", "netprobe.cli", "--version"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "netprobe" in result.stdout
