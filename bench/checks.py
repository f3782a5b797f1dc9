"""Correctness checks computed apart from netprobe.

Every check recomputes what the program's output must be from plain sets
over the complete graph's adjacency, or from networkx, and returns a list
of error strings: an empty list means the output passed.  Nothing here
imports netprobe, so a fault in the program cannot also hide in its check.
networkx is imported only by the checks that need it, after the benchmark
has read its peak RSS.
"""

from __future__ import annotations

import csv
import io
import math

Adjacency = dict[str, set[str]]

# The closed-form and float comparisons below recompute the program's
# arithmetic in another order; they agree to far better than this.
TOLERANCE = 1e-9


def read_edge_list(path) -> Adjacency:
    """Adjacency sets of an edge-list file: two labels a line, # comments."""
    adj: Adjacency = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            u, v = line.split()
            if u != v:
                adj.setdefault(u, set()).add(v)
                adj.setdefault(v, set()).add(u)
    return adj


def parse_observed(text: str) -> tuple[set[tuple[str, str]], dict[str, str]]:
    """(edges as sorted label pairs, status by label) of an observed-graph file."""
    edges: set[tuple[str, str]] = set()
    status: dict[str, str] = {}
    section = None
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line in ("[edges]", "[status]"):
            section = line
            continue
        a, b = line.split()
        if section == "[edges]":
            edges.add((a, b) if a < b else (b, a))
        elif section == "[status]":
            status[a] = b
        else:
            raise ValueError(f"line outside any section: {line!r}")
    return edges, status


def observed_adjacency(edges) -> Adjacency:
    adj: Adjacency = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def parse_probe_log(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=TOLERANCE, abs_tol=TOLERANCE)


def _blank(row: dict) -> bool:
    return row["nodes_after"] in ("", None)


def check_sweep_rows(rows: list[dict], n_nodes: int) -> list[str]:
    """Budget spent exactly, node counts ordered, improvements recomputed
    from the paired random row on the same sample seed."""
    errors = []
    baseline = {}
    for row in rows:
        if row["strategy"] == "random" and not _blank(row):
            key = (row["sampler"], row["budget_fraction"], row["repeat"], row["seed"])
            baseline[key] = row["nodes_after"]
    for row in rows:
        if _blank(row):
            continue
        name = f"{row['sampler']}/{row['strategy']} b={row['budget_fraction']}"
        budget = int(row["budget_fraction"] * n_nodes)
        if row["probes_spent"] != budget:
            errors.append(f"{name}: spent {row['probes_spent']} probes, budget {budget}")
        if not 0 <= row["nodes_before"] <= row["nodes_after"] <= n_nodes:
            errors.append(
                f"{name}: nodes_before {row['nodes_before']}, nodes_after "
                f"{row['nodes_after']}, n {n_nodes} out of order"
            )
        key = (row["sampler"], row["budget_fraction"], row["repeat"], row["seed"])
        r = baseline.get(key)
        if r is None:
            errors.append(f"{name}: no paired random row on sample seed {row['seed']}")
            continue
        expected = 100.0 * (row["nodes_after"] - r) / r
        if not _close(float(row["improvement_vs_random"]), expected):
            errors.append(
                f"{name}: improvement {row['improvement_vs_random']} != {expected} "
                f"recomputed from random's {r} nodes"
            )
    return errors


def check_mean_improvement(rows: list[dict], strategy: str) -> list[str]:
    values = [
        float(r["improvement_vs_random"])
        for r in rows
        if r["strategy"] == strategy and not _blank(r)
    ]
    if not values:
        return [f"no {strategy} rows"]
    mean = sum(values) / len(values)
    if mean <= 0:
        return [f"mean improvement of {strategy} over random is {mean}, not above 0"]
    return []


def check_probe_closure(
    adj: Adjacency, nodes_before: set[str], probed: list[str], nodes_after: int
) -> list[str]:
    """nodes_after must be |V_before ∪ N(probed)| over the complete graph."""
    reached = set(nodes_before)
    for u in probed:
        reached |= adj[u]
    if len(reached) != nodes_after:
        return [f"nodes_after {nodes_after} != {len(reached)} = |V_before ∪ N(probed)|"]
    return []


def check_top_by_clustering(
    edges, candidates: list[str], plan: list[str], budget: int
) -> list[str]:
    """The plan holds the top candidates by networkx.clustering, ties allowed."""
    import networkx as nx

    G = nx.Graph()
    G.add_edges_from(edges)
    cc = nx.clustering(G, nodes=candidates)
    errors = []
    if len(set(plan)) != len(plan) or not set(plan) <= set(candidates):
        errors.append("plan holds repeated nodes or non-candidates")
    if len(plan) != min(budget, len(candidates)):
        errors.append(f"plan holds {len(plan)} nodes, budget {budget}")
    if errors:
        return errors
    chosen = set(plan)
    rest = [cc[c] for c in candidates if c not in chosen]
    if rest and min(cc[p] for p in plan) < max(rest) - TOLERANCE:
        errors.append(
            f"plan's lowest clustering {min(cc[p] for p in plan)} is below an "
            f"unchosen candidate's {max(rest)}"
        )
    return errors


def check_modularity(edges, partition: dict[str, int], q: float) -> list[str]:
    """The program's modularity of its partition equals networkx's."""
    import networkx as nx

    G = nx.Graph()
    G.add_edges_from(edges)
    if set(partition) != set(G.nodes):
        return ["partition does not cover exactly the observed nodes"]
    groups: dict[int, set[str]] = {}
    for u, c in partition.items():
        groups.setdefault(c, set()).add(u)
    expected = nx.community.modularity(G, list(groups.values()))
    if not _close(q, expected):
        return [f"modularity {q} != networkx {expected}"]
    return []


def check_session(
    adj: Adjacency, in_text: str, out_text: str, log_text: str, budget: int
) -> list[str]:
    """One probe session: the log spends the budget on distinct candidates,
    and the written observation is the input plus the probed neighbourhoods."""
    errors = []
    in_edges, in_status = parse_observed(in_text)
    out_edges, out_status = parse_observed(out_text)
    log = parse_probe_log(log_text)
    probed = [row["node"] for row in log]
    if len(probed) != budget:
        errors.append(f"log has {len(probed)} rows, budget {budget}")
    if len(set(probed)) != len(probed):
        errors.append("log probes a node twice")
    if errors:
        return errors
    # A probe must hit a candidate: a node observed by then (in the input,
    # or revealed by an earlier probe such as an estimation probe) and not
    # explored.  Probes are distinct, so only the input's explored nodes
    # need excluding.
    nodes = set(in_status)
    edges = set(in_edges)
    for u in probed:
        if u not in nodes or in_status.get(u) == "E":
            errors.append(f"probed node {u} was not a candidate when probed")
            return errors
        for w in adj[u]:
            nodes.add(w)
            edges.add((u, w) if u < w else (w, u))
    if len(out_status) != len(nodes) or len(out_edges) != len(edges):
        errors.append(
            f"observed {len(out_status)} nodes, {len(out_edges)} edges; "
            f"recomputed {len(nodes)} nodes, {len(edges)} edges"
        )
    elif set(out_status) != nodes or out_edges != edges:
        errors.append("observed node or edge set differs from the recomputed one")
    explored = {u for u, s in in_status.items() if s == "E"} | set(probed)
    if {u for u, s in out_status.items() if s == "E"} != explored:
        errors.append("explored nodes differ from the input's plus the probed ones")
    gained = sum(int(row["new_nodes"]) for row in log)
    if gained != len(out_status) - len(in_status):
        errors.append(f"log gains {gained} nodes, observation grew by {len(out_status) - len(in_status)}")
    return errors


def check_estimate(report: dict) -> list[str]:
    errors = []
    if not report["m_hat"] >= 1.0:
        errors.append(f"m_hat {report['m_hat']} below 1")
    if not 0.0 <= report["c_hat"] <= 1.0:
        errors.append(f"c_hat {report['c_hat']} outside [0, 1]")
    return errors


def check_known_estimate(in_text: str, kind: str, fraction: float, report: dict) -> list[str]:
    """Closed-form estimates: the observed global clustering the program
    scaled must be networkx.transitivity of the input observation."""
    import networkx as nx

    edges, _ = parse_observed(in_text)
    G = nx.Graph()
    G.add_edges_from(edges)
    c_obs = nx.transitivity(G)
    f = fraction
    if kind == "node":
        p_triangle = 3 * f * f * (1 - f) + f**3
        p_wedge = p_triangle + f * (1 - f) ** 2
        raw = c_obs * p_wedge / p_triangle
    else:
        raw = c_obs / f
    expected_c = min(1.0, max(0.0, raw))
    expected_m = max(1.0, 1.0 / f)
    errors = []
    if not _close(report["c_hat"], expected_c):
        errors.append(f"c_hat {report['c_hat']} != {expected_c} from transitivity {c_obs}")
    if not _close(report["m_hat"], expected_m):
        errors.append(f"m_hat {report['m_hat']} != 1/f = {expected_m}")
    return errors


def estimation_truth(
    adj: Adjacency, obs_adj: Adjacency, candidates: list[str]
) -> tuple[float, float]:
    """What the estimation phase estimates, taken from the complete graph:
    the mean true/observed degree ratio over all candidates, and the share
    of their open-wedge partners (unexplored nodes two observed hops away,
    not observed neighbours) that are true neighbours."""
    candidate_set = set(candidates)
    ratio_sum = 0.0
    partners_total = 0
    partners_closed = 0
    for u in candidates:
        direct = obs_adj[u]
        ratio_sum += len(adj[u]) / len(direct)
        partners = set()
        for v in direct:
            partners |= obs_adj[v]
        partners -= direct
        partners.discard(u)
        partners &= candidate_set
        partners_total += len(partners)
        partners_closed += len(partners & adj[u])
    m_true = ratio_sum / len(candidates)
    c_true = partners_closed / partners_total if partners_total else 0.0
    return m_true, c_true
