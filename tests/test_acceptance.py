"""Acceptance suite.

Each test implements one acceptance criterion end to end at its stated
tolerance and prints a single PASS/FAIL line (visible with pytest -s, and
in the captured output on failure).
"""

import random
import time
from contextlib import contextmanager

import numpy as np

from netprobe.errors import EmptyGraphError
from netprobe.estimators import (
    EstimateSet,
    METHOD_PROBE,
    triangle_survival_prob,
    unbiased_clustering_edge_sampling,
    unbiased_clustering_node_sampling,
    unbiased_degree_edge_sampling,
    unbiased_degree_node_sampling,
    wedge_survival_prob,
)
from netprobe.generators import (
    hub_community_graph,
    planted_partition_graph,
    random_graph,
)
from netprobe.graphs import (
    count_triangles_wedges,
    global_clustering,
    local_clustering,
    two_hop_open_wedges,
)
from netprobe.harness import TrialConfig, derive_seed, run_trial, sweep, write_results_csv
from netprobe.probing import ProbeLedger, probe
from netprobe.sampling import (
    run_sampler,
    sample_node_bernoulli,
    sample_random_edge,
)
from netprobe.strategies import (
    edge_dispersion,
    score_degree,
    score_max_out_probe,
    select_top_b,
)

from oracles import (
    adjacency,
    brute_closure_nodes,
    brute_edge_dispersion,
    brute_global_clustering,
    brute_local_clustering,
    brute_triangles,
    brute_two_hop_open_wedges,
    brute_wedges,
)


@contextmanager
def criterion(number, title):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({title}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({title}): PASS [{time.monotonic() - start:.1f}s]")


def random_graphs(count, seed, max_nodes=50):
    """Yield `count` nonempty random graphs with at most max_nodes nodes."""
    rng = random.Random(seed)
    produced = 0
    attempt = 0
    while produced < count:
        attempt += 1
        n = rng.randrange(6, max_nodes + 1)
        p = rng.uniform(0.12, 0.55)
        try:
            g = random_graph(n, p, seed=seed * 100_000 + attempt)
        except EmptyGraphError:
            continue
        produced += 1
        yield g


def test_criterion_1_exact_oracles():
    with criterion(1, "exact-oracle equivalence on 200 small graphs"):
        start = time.monotonic()
        rng = random.Random(42)
        checked = 0
        for g in random_graphs(200, seed=7):
            adj = adjacency(g)
            counts = count_triangles_wedges(g)
            assert counts.triangles == brute_triangles(adj)
            assert counts.wedges == brute_wedges(adj)
            assert abs(global_clustering(g) - brute_global_clustering(adj)) < 1e-12
            for u in list(adj)[:8]:
                assert abs(local_clustering(g, u) - brute_local_clustering(adj, u)) < 1e-12

            sampler = "randedge" if checked % 2 == 0 else "randnode"
            obs, _ = run_sampler(g, sampler, 0.5, seed=checked)

            for u in obs.candidate_nodes():
                assert two_hop_open_wedges(obs, u) == brute_two_hop_open_wedges(obs, u)
            for u in obs.nodes():
                for v in obs.neighbors(u):
                    if u < v:
                        assert edge_dispersion(obs, u, v) == brute_edge_dispersion(obs, u, v)

            if obs.candidate_nodes():
                est = EstimateSet(
                    method=METHOD_PROBE,
                    scale_multiplier=1.0 + rng.uniform(0.5, 4.0),
                    clustering=rng.uniform(0.0, 1.0),
                )
                for s in score_max_out_probe(obs, est):
                    assert s.known_degree == obs.degree(s.node)
                    assert s.open_wedge_count == len(brute_two_hop_open_wedges(obs, s.node))
                    raw = (
                        est.scale_multiplier * s.known_degree
                        - s.known_degree
                        - est.clustering * s.open_wedge_count
                    )
                    assert s.score == max(0.0, raw)

            expected_closure = brute_closure_nodes(g, obs)
            ledger = ProbeLedger(budget=g.n_nodes)
            for u in list(obs.candidate_nodes()):
                probe(g, obs, ledger, u)
            assert set(obs.nodes()) == expected_closure
            checked += 1
        assert checked == 200
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s (limit 60s)"


def test_criterion_2_unbiased_estimators():
    with criterion(2, "closed-form estimators unbiased at f=0.5"):
        start = time.monotonic()
        g = planted_partition_graph(20, 10, 0.7, 0.025, seed=2202)
        truth_c = global_clustering(g)
        assert truth_c > 0.15
        heavy = [u for u in g.labels() if g.degree(u) >= 10]
        assert len(heavy) >= 20
        reps = 2500

        # random node sampling (Bernoulli selection at f_N = 0.5)
        degree_sum = {u: 0.0 for u in heavy}
        degree_count = {u: 0 for u in heavy}
        c_sum = 0.0
        for rep in range(reps):
            obs, _ = sample_node_bernoulli(g, 0.5, seed=rep)
            for u in heavy:
                if obs.has_node(u) and not obs.is_candidate(u):
                    continue  # the estimator covers observed-but-unselected nodes
                d_known = obs.degree(u) if obs.has_node(u) else 0
                degree_sum[u] += unbiased_degree_node_sampling(d_known, 0.5)
                degree_count[u] += 1
            estimate, clamped = unbiased_clustering_node_sampling(
                global_clustering(obs), 0.5
            )
            assert not clamped
            c_sum += estimate
        for u in heavy:
            mean = degree_sum[u] / degree_count[u]
            assert abs(mean - g.degree(u)) / g.degree(u) < 0.03, (
                f"node-sampling degree estimate for {u}: {mean:.2f} vs {g.degree(u)}"
            )
        c_mean = c_sum / reps
        assert abs(c_mean - truth_c) / truth_c < 0.05

        # random edge sampling at f_E = 0.5
        degree_sum = {u: 0.0 for u in heavy}
        c_sum = 0.0
        for rep in range(reps):
            obs, fractions = sample_random_edge(g, 0.5, seed=rep)
            f_e = fractions.edge_fraction
            for u in heavy:
                d_known = obs.degree(u) if obs.has_node(u) else 0
                degree_sum[u] += unbiased_degree_edge_sampling(d_known, f_e)
            estimate, clamped = unbiased_clustering_edge_sampling(
                global_clustering(obs), f_e
            )
            assert not clamped
            c_sum += estimate
        for u in heavy:
            mean = degree_sum[u] / reps
            assert abs(mean - g.degree(u)) / g.degree(u) < 0.03, (
                f"edge-sampling degree estimate for {u}: {mean:.2f} vs {g.degree(u)}"
            )
        c_mean = c_sum / reps
        assert abs(c_mean - truth_c) / truth_c < 0.05

        elapsed = time.monotonic() - start
        assert elapsed < 300.0, f"criterion 2 took {elapsed:.1f}s (limit 300s)"


def test_criterion_3_survival_formulas():
    with criterion(3, "triangle/wedge survival probabilities"):
        assert triangle_survival_prob(0.5) == 0.5
        assert wedge_survival_prob(0.5) == 0.625

        g = random_graph(20, 0.4, seed=13)
        adj = adjacency(g)
        index = {u: i for i, u in enumerate(sorted(adj))}
        triangles = []
        wedges = []
        for u in sorted(adj):
            neighbors = sorted(adj[u])
            for i, a in enumerate(neighbors):
                for b in neighbors[i + 1:]:
                    wedges.append((index[a], index[u], index[b]))
                    if b in adj[a] and u < a:
                        triangles.append((index[u], index[a], index[b]))
        assert len(triangles) > 10 and len(wedges) > 50

        tri = np.array(triangles)
        wed = np.array(wedges)
        reps = 10_000
        for f in (0.2, 0.5, 0.8):
            selected = np.random.default_rng(seed=int(f * 1000)).random(
                (reps, len(adj))
            ) < f
            tri_hits = selected[:, tri[:, 0]].astype(int)
            tri_hits += selected[:, tri[:, 1]]
            tri_hits += selected[:, tri[:, 2]]
            tri_rate = float((tri_hits >= 2).mean())
            wedge_alive = selected[:, wed[:, 1]] | (
                selected[:, wed[:, 0]] & selected[:, wed[:, 2]]
            )
            wedge_rate = float(wedge_alive.mean())
            assert abs(tri_rate - triangle_survival_prob(f)) < 0.02, f"p_T at f={f}"
            assert abs(wedge_rate - wedge_survival_prob(f)) < 0.02, f"p_W at f={f}"


def test_criterion_4_low_clustering_reduction():
    with criterion(4, "zero-clustering ranking equals high-degree ranking"):
        rng = random.Random(404)
        checked = 0
        for g in random_graphs(100, seed=9, max_nodes=40):
            sampler = ("randedge", "randnode", "rw")[checked % 3]
            obs, _ = run_sampler(g, sampler, 0.5, seed=checked)
            if not obs.candidate_nodes():
                obs, _ = sample_random_edge(g, 1.0, seed=checked)
            est = EstimateSet(
                method=METHOD_PROBE,
                scale_multiplier=1.0 + rng.uniform(0.1, 6.0),
                clustering=0.0,
            )
            b = rng.randrange(1, 12)
            mop = select_top_b(score_max_out_probe(obs, est), b)
            deg = select_top_b(score_degree(obs, "high"), b)
            assert mop.nodes == deg.nodes
            checked += 1
        assert checked == 100


def test_criterion_5_end_to_end_ordering():
    with criterion(5, "probing a clustered 5000-node graph"):
        start = time.monotonic()
        g = hub_community_graph(410, 12, 0.85, 110, 65, seed=2024)
        assert g.n_nodes >= 5000
        truth_c = global_clustering(g)
        assert truth_c >= 0.2

        strategies = (
            "maxoutprobe", "highdeg", "lowdeg", "highdisp", "lowdisp",
            "crosscomm", "highcc", "lowcc", "random",
        )
        master = 1105
        n_trials = 20
        means = {}
        for strategy in strategies:
            total = 0
            for rep in range(n_trials):
                config = TrialConfig(
                    sampler="randnode",
                    strategy=strategy,
                    edge_fraction=0.10,
                    budget_fraction=0.05,
                )
                result = run_trial(
                    g,
                    config,
                    sampler_seed=derive_seed(master, "sampler", rep),
                    strategy_seed=derive_seed(master, "selection", strategy, rep),
                )
                total += result.nodes_after
            means[strategy] = total / n_trials

        best_baseline = max(v for k, v in means.items() if k != "maxoutprobe")
        summary = " ".join(f"{k}={v:.0f}" for k, v in sorted(means.items()))
        print(f"  trial means: {summary}")
        assert means["maxoutprobe"] > means["random"], (
            f"maxoutprobe {means['maxoutprobe']:.1f} <= random {means['random']:.1f}"
        )
        assert means["maxoutprobe"] >= 0.98 * best_baseline, (
            f"maxoutprobe {means['maxoutprobe']:.1f} < 0.98 * best "
            f"baseline {best_baseline:.1f}"
        )
        elapsed = time.monotonic() - start
        assert elapsed < 600.0, f"criterion 5 took {elapsed:.1f}s (limit 600s)"


def test_criterion_6_budget_and_sampling_contracts(tmp_path):
    with criterion(6, "sweep budget and sampling contracts"):
        g = planted_partition_graph(8, 10, 0.5, 0.02, seed=660)
        grid = [
            TrialConfig(
                sampler=sampler,
                strategy=strategy,
                edge_fraction=0.10,
                budget_fraction=budget,
                n_repeats=3,
                estimation_probes=2,
            )
            for sampler in ("randnode", "randedge", "rw", "rwj")
            for strategy in ("maxoutprobe", "highdeg", "random")
            for budget in (0.05, 0.10)
        ]
        rows = sweep(g, grid, master_seed=66)
        assert all(row["nodes_after"] != "" for row in rows)

        for row in rows:
            budget = int(row["budget_fraction"] * g.n_nodes)
            assert row["probes_spent"] <= budget

        target = int(0.10 * g.n_edges)
        seen = set()
        for row in rows:
            key = (row["sampler"], row["seed"])
            if key in seen:
                continue
            seen.add(key)
            obs, _ = run_sampler(g, row["sampler"], 0.10, row["seed"])
            if row["sampler"] == "randnode":
                assert target <= obs.n_edges < target + g.max_degree()
            else:
                assert obs.n_edges == target

        import io

        buffers = []
        for _ in range(2):
            rows_again = sweep(g, grid, master_seed=66)
            buf = io.StringIO()
            write_results_csv(rows_again, buf)
            buffers.append(buf.getvalue())
        assert buffers[0] == buffers[1]
        assert rows == sweep(g, grid, master_seed=66)
