"""The three workloads: their inputs, set-up, operations and checks.

All of them run on the graph ``hub_community_graph(410, 12, 0.85, 110, 65,
seed=2024)`` (5030 nodes, 30063 edges), written to an edge-list file and
loaded from it.  The workload seed given to the benchmark picks every other
seed.  One round is a fixed list of operations; a run repeats the round, so
every round must give byte-identical outputs.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import checks
from netprobe import cli, communities, generators, graphs, harness, probing, sampling, strategies

GRAPH_PARAMS = dict(
    n_communities=410, community_size=12, p_in=0.85, n_hubs=110, hub_degree=65, seed=2024
)
SAMPLERS = ("randnode", "randedge", "rw", "rwj")
EDGE_FRACTION = 0.10
SESSION_BUDGET_FRAC = 0.05
SAMPLES_PER_SAMPLER = 3
SESSIONS_PER_SAMPLE = 4


def seed_for(seed: int, *parts) -> int:
    """A sub-seed of the workload seed, named by its purpose."""
    text = ":".join(["bench", str(seed), *map(str, parts)])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:6], "big")


def write_graph(path: Path) -> None:
    g = generators.hub_community_graph(**GRAPH_PARAMS)
    with open(path, "w", encoding="utf-8") as fh:
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")


def write_graph_apart(path: Path) -> None:
    """Write the graph file from a child process, so the generator's
    memory never counts in the peak RSS of the process that runs the
    workload."""
    src = str(Path(graphs.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, __file__, str(path)], env=env, check=True, timeout=120)


def aggregate(rows: list[dict]) -> tuple[str, str]:
    """The sweep's results and curves CSVs, written to memory."""
    results = io.StringIO()
    harness.write_results_csv(rows, results)
    curves = io.StringIO()
    harness.write_curves_csv(harness.improvement_curves(rows), curves)
    return results.getvalue(), curves.getvalue()


def _sha(*texts: str) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


class SweepWorkload:
    """Each operation is one ``harness.sweep`` call on one grid cell: one
    sampler, one budget and one repeat, with the cell's strategies plus the
    paired random baseline, then its CSVs written to memory."""

    def __init__(self, name, workdir: Path, seed: int, samplers, budgets, strategies_, repeats):
        self.name = name
        self.strategies = tuple(strategies_)
        self.graph_path = workdir / "graph.edges"
        self.cells = [
            (sampler, budget, seed_for(seed, name, sampler, budget, r))
            for r in range(repeats)
            for budget in budgets
            for sampler in samplers
        ]
        self.g = None

    def make_inputs(self) -> None:
        write_graph_apart(self.graph_path)

    def setup_steps(self) -> list:
        return [self._load]

    def _load(self) -> None:
        with open(self.graph_path, encoding="utf-8") as fh:
            self.g = graphs.load_edge_list(fh)

    def round(self) -> list:
        return self.cells

    def run(self, cell):
        sampler, budget, master_seed = cell
        grid = [
            harness.TrialConfig(
                sampler=sampler,
                strategy=strategy,
                edge_fraction=EDGE_FRACTION,
                budget_fraction=budget,
                n_repeats=1,
            )
            for strategy in self.strategies
        ]
        rows = harness.sweep(self.g, grid, master_seed=master_seed, jobs=1)
        return (rows, *aggregate(rows))

    def failed(self, out) -> bool:
        return any(row["nodes_after"] == "" for row in out[0])

    def digest(self, out) -> str:
        return _sha(out[1], out[2])

    def trials(self, out) -> int:
        return len(out[0])

    def gain(self, outs) -> tuple[int, int]:
        """(nodes gained, probes spent) over every non-random trial."""
        gained = probes = 0
        for out in outs:
            for row in out[0]:
                if row["strategy"] != "random" and row["nodes_after"] != "":
                    gained += row["nodes_after"] - row["nodes_before"]
                    probes += row["probes_spent"]
        return gained, probes

    def check(self, outs, adj) -> list[str]:
        errors = []
        n = len(adj)
        for out in outs:
            errors += checks.check_sweep_rows(out[0], n)
        if "maxoutprobe" in self.strategies:
            errors += checks.check_mean_improvement([r for out in outs for r in out[0]], "maxoutprobe")
        return errors

    def replay(self, index: int, rows: list[dict], adj) -> list[str]:
        """Rebuild every trial of one cell through the public functions and
        recompute its nodes_after over the complete graph."""
        sampler, budget, master_seed = self.cells[index]
        g = self.g
        errors = []
        for row in rows:
            strategy = row["strategy"]
            strategy_seed = harness.derive_seed(
                master_seed, "selection", sampler, strategy, budget, 0
            )
            obs, _ = sampling.run_sampler(g, sampler, EDGE_FRACTION, row["seed"])
            before = set(obs.nodes())
            ledger = probing.ProbeLedger(budget=int(budget * g.n_nodes))
            candidates = obs.candidate_nodes()
            plan, _ = strategies.make_probe_plan(
                strategy,
                g,
                obs,
                ledger,
                selection_seed=strategy_seed,
                estimation_seed=harness.derive_seed(strategy_seed, "estimation"),
            )
            edges = [(u, v) for u in obs.nodes() for v in obs.neighbors(u) if u < v]
            if strategy == "highcc":
                errors += checks.check_top_by_clustering(edges, candidates, list(plan.nodes), ledger.budget)
            if strategy == "crosscomm":
                partition = communities.detect_communities(obs, seed=strategy_seed)
                q = communities.modularity(obs, partition)
                errors += checks.check_modularity(edges, partition, q)
            for u in plan.nodes:
                probing.probe(g, obs, ledger, u)
            probed = [entry.node for entry in ledger.log]
            errors += [
                f"replay {sampler}/{strategy}: {e}"
                for e in checks.check_probe_closure(adj, before, probed, row["nodes_after"])
            ]
        return errors

    def truth_errors(self, outs, adj) -> list[tuple[float, float, float, float]]:
        """(m_hat, m_true, c_hat, c_true) of every probe-based estimate."""
        cases = []
        for out in outs:
            for row in out[0]:
                if row["m_hat"] == "":
                    continue
                obs, _ = sampling.run_sampler(self.g, row["sampler"], EDGE_FRACTION, row["seed"])
                obs_adj = {u: set(obs.neighbors(u)) for u in obs.nodes()}
                m_true, c_true = checks.estimation_truth(adj, obs_adj, obs.candidate_nodes())
                cases.append((row["m_hat"], m_true, row["c_hat"], c_true))
        return cases

    def walk_calls(self, outs) -> list[tuple[str, int]]:
        """The distinct (sampler, seed) pairs of the random-walk trials."""
        return sorted(
            {(row["sampler"], row["seed"]) for out in outs for row in out[0] if row["sampler"] in ("rw", "rwj")}
        )


class ProbeSessionWorkload:
    """Each operation is one in-process ``netprobe probe`` session with
    maxoutprobe at a 5% budget on an observed file written in set-up."""

    name = "probe-session"

    def __init__(self, workdir: Path, seed: int):
        self.seed = seed
        self.graph_path = workdir / "graph.edges"
        self.sample_dir = workdir / "samples"
        self.session_dir = workdir / "sessions"
        self.samples = [(f"{sampler}-{j}", sampler) for j in range(SAMPLES_PER_SAMPLER) for sampler in SAMPLERS]
        # Every observed file gets SESSIONS_PER_SAMPLE sessions.  On
        # randnode/randedge files every other one uses the closed-form
        # estimators; the rest are probe-based, each with its own seed.
        self.sessions = []
        for i in range(SESSIONS_PER_SAMPLE):
            for sample, sampler in self.samples:
                known = i % 2 == 1 and sampler in ("randnode", "randedge")
                self.sessions.append((sample, sampler, known, seed_for(seed, "session", sample, i)))
        self.fractions = {}

    def _observed(self, sample: str) -> Path:
        return self.sample_dir / f"{sample}.observed.txt"

    def _prefix(self, index: int) -> Path:
        return self.session_dir / f"s{index}"

    def make_inputs(self) -> None:
        write_graph_apart(self.graph_path)
        self.session_dir.mkdir(parents=True, exist_ok=True)

    def setup_steps(self) -> list:
        return [functools.partial(self._sample, sample, sampler) for sample, sampler in self.samples]

    def _sample(self, sample: str, sampler: str) -> None:
        argv = [
            "sample",
            "--graph", str(self.graph_path),
            "--sampler", sampler,
            "--fraction", str(EDGE_FRACTION),
            "--seed", str(seed_for(self.seed, "sample", sample)),
            "--out", str(self._observed(sample)),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"netprobe sample exited {rc} for {sample}")
        params = json.loads(self._observed(sample).with_suffix(".txt.manifest.json").read_text())["parameters"]
        if sampler == "randnode":
            self.fractions[sample] = ("node", params["achieved_node_fraction"])
        elif sampler == "randedge":
            self.fractions[sample] = ("edge", params["achieved_edge_fraction"])

    def round(self) -> list:
        return list(range(len(self.sessions)))

    def argv(self, index: int) -> list[str]:
        sample, sampler, known, session_seed = self.sessions[index]
        argv = [
            "probe",
            "--graph", str(self.graph_path),
            "--observed", str(self._observed(sample)),
            "--strategy", "maxoutprobe",
            "--budget-frac", str(SESSION_BUDGET_FRAC),
            "--seed", str(session_seed),
            "--out-prefix", str(self._prefix(index)),
        ]
        if known:
            kind, fraction = self.fractions[sample]
            argv += ["--known-sampler", sampler, "--f-n" if kind == "node" else "--f-e", repr(fraction)]
        return argv

    def run(self, index: int):
        argv = self.argv(index)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        return index, rc

    def failed(self, out) -> bool:
        return out[1] != 0

    def _outputs(self, index: int) -> tuple[str, str, str]:
        prefix = self._prefix(index)
        return tuple(
            Path(f"{prefix}{suffix}").read_text(encoding="utf-8")
            for suffix in (".observed.txt", ".probelog.csv", ".estimate.json")
        )

    def digest(self, out) -> str:
        return _sha(*self._outputs(out[0]))

    def trials(self, out) -> int:
        return 1

    def budget(self, n_nodes: int) -> int:
        return int(SESSION_BUDGET_FRAC * n_nodes)

    def gain(self, outs) -> tuple[int, int]:
        gained = probes = 0
        for index, _ in outs:
            sample = self.sessions[index][0]
            _, status_in = checks.parse_observed(self._observed(sample).read_text())
            observed, log, _ = self._outputs(index)
            _, status_out = checks.parse_observed(observed)
            gained += len(status_out) - len(status_in)
            probes += len(checks.parse_probe_log(log))
        return gained, probes

    def check(self, outs, adj) -> list[str]:
        with open(self.graph_path, encoding="utf-8") as fh:
            g = graphs.load_edge_list(fh)
        errors = []
        for index, _ in outs:
            sample, _, known, _ = self.sessions[index]
            observed, log, report = self._outputs(index)
            in_text = self._observed(sample).read_text(encoding="utf-8")
            graphs.read_observed(io.StringIO(observed), g)
            found = checks.check_session(adj, in_text, observed, log, self.budget(len(adj)))
            report = json.loads(report)
            found += checks.check_estimate(report)
            if known:
                kind, fraction = self.fractions[sample]
                found += checks.check_known_estimate(in_text, kind, fraction, report)
            errors += [f"session {index} ({sample}): {e}" for e in found]
        return errors

    def truth_errors(self, outs, adj) -> list[tuple[float, float, float, float]]:
        cases = []
        for index, _ in outs:
            sample, _, known, _ = self.sessions[index]
            if known:
                continue
            edges, status = checks.parse_observed(self._observed(sample).read_text())
            candidates = [u for u, s in status.items() if s == "C"]
            m_true, c_true = checks.estimation_truth(adj, checks.observed_adjacency(edges), candidates)
            report = json.loads(self._outputs(index)[2])
            cases.append((report["m_hat"], m_true, report["c_hat"], c_true))
        return cases

    def walk_calls(self, outs) -> list[tuple[str, int]]:
        return []


def make(name: str, workdir: Path, seed: int):
    if name == "sweep-paper":
        return SweepWorkload(
            name, workdir, seed, SAMPLERS, (0.01, 0.02, 0.03, 0.04, 0.05),
            ("maxoutprobe", "highdeg"), repeats=4,
        )
    if name == "scorer-mix":
        return SweepWorkload(
            name, workdir, seed, ("randedge", "rw"), (0.01, 0.05),
            ("highdisp", "highcc", "crosscomm"), repeats=12,
        )
    if name == "probe-session":
        return ProbeSessionWorkload(workdir, seed)
    raise ValueError(f"unknown workload {name!r}")



if __name__ == "__main__":
    write_graph(Path(sys.argv[1]))
