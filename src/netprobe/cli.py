"""Command-line entry point.

Subcommands: sample | probe | estimate | sweep | stats.  Every command that
writes output also writes a JSON run manifest (arguments, seeds, input file
digests, tool version) sufficient to reproduce the run byte for byte.

Exit codes: 0 success, 1 usage error (bad flags or an invalid
configuration), 2 runtime error.  A budget fraction must lie in (0, 1] and
give at least one probe.  The NETPROBE_JOBS environment variable sets the
default sweep parallelism.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

from . import __version__
from .errors import ConfigError, NetProbeError
from .estimators import DEFAULT_ESTIMATION_PROBES
from .graphs import (
    count_triangles_wedges,
    global_clustering,
    load_edge_list,
    read_observed,
    write_observed,
)
from .harness import (
    KNOWN_SAMPLE_KINDS,
    TrialConfig,
    budget_from_fraction,
    improvement_curves,
    run_session,
    sweep,
    write_curves_csv,
    write_results_csv,
)
# probe is not called here; bench/tracing.py wraps it by this module's name
from .probing import ProbeLedger, probe, write_probe_log
from .sampling import (
    DEFAULT_EDGE_FRACTION,
    DEFAULT_JUMP_PROB,
    SAMPLER_NAMES,
    run_sampler,
)
from .strategies import STRATEGIES, estimate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2

DEFAULT_BUDGETS = "0.01,0.02,0.03,0.04,0.05"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(
    out_path: Path, command: str, params: dict, inputs: list[Path], master_seed: int
) -> None:
    manifest = {
        "tool": "netprobe",
        "version": __version__,
        "command": command,
        "master_seed": master_seed,
        "parameters": params,
        "inputs": {str(p): _sha256(p) for p in inputs},
    }
    manifest_path = out_path.with_suffix(out_path.suffix + ".manifest.json")
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _load_graph(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return load_edge_list(fh)


def _load_observed(path: str, g):
    with open(path, "r", encoding="utf-8") as fh:
        return read_observed(fh, g)


def _parse_budget(args, n_nodes: int) -> int:
    """Absolute --budget wins; otherwise the fraction of the graph's nodes."""
    if args.budget is not None:
        if args.budget < 1:
            raise UsageError(f"budget must be at least 1, got {args.budget}")
        return args.budget
    return budget_from_fraction(args.budget_frac, n_nodes)


def _known_sample_from_args(args) -> tuple[str, float] | None:
    if args.known_sampler is None:
        return None
    kind = KNOWN_SAMPLE_KINDS[args.known_sampler]
    flag, fraction = ("--f-n", args.f_n) if kind == "node" else ("--f-e", args.f_e)
    if fraction is None:
        raise UsageError(f"--known-sampler {args.known_sampler} requires {flag}")
    return (kind, fraction)


def cmd_sample(args) -> int:
    g = _load_graph(args.graph)
    obs, fractions = run_sampler(
        g, args.sampler, args.fraction, args.seed, jump_prob=args.jump_prob
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        write_observed(obs, fh)
    _write_manifest(
        out,
        "sample",
        {
            "graph": args.graph,
            "sampler": args.sampler,
            "fraction": args.fraction,
            "jump_prob": args.jump_prob,
            "seed": args.seed,
            "achieved_node_fraction": fractions.node_fraction,
            "achieved_edge_fraction": fractions.edge_fraction,
        },
        [Path(args.graph)],
        master_seed=args.seed,
    )
    print(
        f"sampled {obs.n_nodes} nodes, {obs.n_edges} edges "
        f"({fractions.edge_fraction:.4f} of {g.n_edges}) -> {out}"
    )
    return EXIT_OK


def cmd_probe(args) -> int:
    g = _load_graph(args.graph)
    obs = _load_observed(args.observed, g)
    budget = _parse_budget(args, g.n_nodes)
    known = _known_sample_from_args(args)
    ledger, est = run_session(
        g, obs, args.strategy, budget, args.seed,
        estimation_probes=args.estimation_probes, known_sample=known,
        charge_estimation=not args.estimation_uncharged,
    )

    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    observed_path = Path(f"{prefix}.observed.txt")
    log_path = Path(f"{prefix}.probelog.csv")
    report_path = Path(f"{prefix}.estimate.json")
    with open(observed_path, "w", encoding="utf-8") as fh:
        write_observed(obs, fh)
    with open(log_path, "w", encoding="utf-8", newline="") as fh:
        write_probe_log(ledger, fh)
    report = est.report() if est is not None else None
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    _write_manifest(
        observed_path,
        "probe",
        {
            "graph": args.graph,
            "observed": args.observed,
            "strategy": args.strategy,
            "budget": budget,
            "seed": args.seed,
            "estimation_probes": args.estimation_probes,
            "known_sampler": args.known_sampler,
            "f_n": args.f_n,
            "f_e": args.f_e,
        },
        [Path(args.graph), Path(args.observed)],
        master_seed=args.seed,
    )
    print(
        f"probed {ledger.spent} nodes: {obs.n_nodes} nodes observed -> {observed_path}"
    )
    return EXIT_OK


def cmd_estimate(args) -> int:
    g = _load_graph(args.graph)
    obs = _load_observed(args.observed, g)
    known = _known_sample_from_args(args)
    ledger = ProbeLedger(budget=_parse_budget(args, g.n_nodes))
    est = estimate(g, obs, ledger, known, n_probes=args.n_probes, seed=args.seed)
    if est is None:
        raise UsageError(
            "budget too small for any estimation probe; "
            "use --known-sampler or a larger budget"
        )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(est.report(), indent=2, sort_keys=True) + "\n")
    _write_manifest(
        out,
        "estimate",
        {
            "graph": args.graph,
            "observed": args.observed,
            "n_probes": args.n_probes,
            "seed": args.seed,
            "known_sampler": args.known_sampler,
            "f_n": args.f_n,
            "f_e": args.f_e,
        },
        [Path(args.graph), Path(args.observed)],
        master_seed=args.seed,
    )
    print(json.dumps(est.report(), sort_keys=True))
    return EXIT_OK


def cmd_sweep(args) -> int:
    g = _load_graph(args.graph)
    samplers = [s for s in args.samplers.split(",") if s]
    strategies = [s for s in args.strategies.split(",") if s]
    try:
        budgets = [float(b) for b in args.budget_fracs.split(",") if b]
    except ValueError:
        raise UsageError(f"bad budget list {args.budget_fracs!r}") from None

    grid = [
        TrialConfig(
            sampler=sampler,
            strategy=strategy,
            edge_fraction=args.edge_fraction,
            budget_fraction=budget,
            n_repeats=args.repeats,
            jump_prob=args.jump_prob,
            estimation_probes=args.estimation_probes,
            known_sample=args.known_sample,
        )
        for sampler in samplers
        for strategy in strategies
        for budget in budgets
    ]
    rows = sweep(g, grid, master_seed=args.master_seed, jobs=args.jobs)

    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    results_path = Path(f"{prefix}.results.csv")
    curves_path = Path(f"{prefix}.curves.csv")
    with open(results_path, "w", encoding="utf-8", newline="") as fh:
        write_results_csv(rows, fh)
    curves = improvement_curves(rows)
    with open(curves_path, "w", encoding="utf-8", newline="") as fh:
        write_curves_csv(curves, fh)
    _write_manifest(
        results_path,
        "sweep",
        {
            "graph": args.graph,
            "samplers": samplers,
            "strategies": strategies,
            "budget_fracs": budgets,
            "edge_fraction": args.edge_fraction,
            "repeats": args.repeats,
            "master_seed": args.master_seed,
            "jump_prob": args.jump_prob,
            "estimation_probes": args.estimation_probes,
            "known_sample": args.known_sample,
        },
        [Path(args.graph)],
        master_seed=args.master_seed,
    )
    print(f"{len(rows)} trial rows -> {results_path}")
    print(f"{len(curves)} curves -> {curves_path}")
    return EXIT_OK


def cmd_stats(args) -> int:
    g = _load_graph(args.graph)
    counts = count_triangles_wedges(g)
    stats = {
        "nodes": g.n_nodes,
        "edges": g.n_edges,
        "triangles": counts.triangles,
        "wedges": counts.wedges,
        "global_clustering": global_clustering(g),
        "max_degree": g.max_degree(),
        "duplicates_dropped": g.load_report.duplicates_dropped,
        "self_loops_dropped": g.load_report.self_loops_dropped,
    }
    if args.observed:
        obs = _load_observed(args.observed, g)
        stats["observed"] = {
            "nodes": obs.n_nodes,
            "edges": obs.n_edges,
            "candidates": len(obs.candidate_nodes()),
            "explored": len(obs.explored_nodes()),
            "origin": obs.origin,
            "global_clustering": global_clustering(obs),
        }
    print(json.dumps(stats, indent=2, sort_keys=True))
    return EXIT_OK


def _add_session_args(p) -> None:
    """The inputs, budget, seed and known-sample flags of probe and estimate."""
    p.add_argument("--graph", required=True)
    p.add_argument("--observed", required=True)
    p.add_argument("--budget", type=int, default=None, help="absolute probe budget")
    p.add_argument("--budget-frac", type=float, default=0.05,
                   help="budget as a fraction in (0, 1] of the complete graph's nodes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--known-sampler", choices=tuple(KNOWN_SAMPLE_KINDS), default=None,
                   help="use closed-form estimators for a sample of known origin")
    p.add_argument("--f-n", type=float, default=None, help="known selected-node fraction")
    p.add_argument("--f-e", type=float, default=None, help="known observed-edge fraction")


def build_parser() -> _Parser:
    parser = _Parser(prog="netprobe", description=__doc__)
    parser.add_argument("--version", action="version", version=f"netprobe {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="generate an incomplete observation of a graph")
    p.add_argument("--graph", required=True, help="edge-list file of the complete graph")
    p.add_argument("--sampler", required=True, choices=SAMPLER_NAMES)
    p.add_argument("--fraction", type=float, default=DEFAULT_EDGE_FRACTION,
                   help="target fraction of edges to observe (default 0.10)")
    p.add_argument("--jump-prob", type=float, default=DEFAULT_JUMP_PROB,
                   help="teleport probability for the rwj sampler (default 0.15)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="observed-graph output file")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("probe", help="plan and execute probes on an observed graph")
    _add_session_args(p)
    p.add_argument("--strategy", required=True, choices=tuple(STRATEGIES))
    p.add_argument("--estimation-probes", type=int, default=DEFAULT_ESTIMATION_PROBES)
    p.add_argument("--estimation-uncharged", action="store_true",
                   help="do not charge estimation probes against the budget")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("estimate", help="estimate degree scale and clustering only")
    _add_session_args(p)
    p.add_argument("--n-probes", type=int, default=DEFAULT_ESTIMATION_PROBES)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("sweep", help="run the full experiment grid")
    p.add_argument("--graph", required=True)
    p.add_argument("--samplers", default="randnode,randedge,rw,rwj",
                   help="comma-separated sampler names")
    p.add_argument("--strategies", default="maxoutprobe,highdeg",
                   help="comma-separated strategy names")
    p.add_argument("--budget-fracs", default=DEFAULT_BUDGETS,
                   help="comma-separated node-fraction budgets (default 1%%..5%%)")
    p.add_argument("--edge-fraction", type=float, default=DEFAULT_EDGE_FRACTION)
    p.add_argument("--repeats", type=int, default=20)
    p.add_argument("--jump-prob", type=float, default=DEFAULT_JUMP_PROB)
    p.add_argument("--estimation-probes", type=int, default=DEFAULT_ESTIMATION_PROBES)
    p.add_argument("--known-sample", action="store_true",
                   help="give maxoutprobe the sampler's true fractions")
    p.add_argument("--master-seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=os.environ.get("NETPROBE_JOBS", "1"),
                   help="worker processes (default: NETPROBE_JOBS, else 1)")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("stats", help="print graph (and optional observation) statistics")
    p.add_argument("--graph", required=True)
    p.add_argument("--observed", default=None)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NetProbeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
