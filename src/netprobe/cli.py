"""Command-line entry point.

Subcommands: sample | probe | estimate | sweep | stats.  Every command that
writes output also writes a JSON run manifest (every parsed flag, seeds,
input file digests, tool version) sufficient to reproduce the run byte for
byte.

Exit codes: 0 success, 1 usage error (bad flags or an invalid
configuration), 2 runtime error.  Any other exception is an internal error,
a runtime error too: its traceback and one "error: internal error: ..."
line go to stderr, and the exit code is 2.  Every float flag must be
finite.  A budget fraction must lie in (0, 1] and give at least one probe;
every count flag (budget, probes, jobs) must be at least 1.  --f-n goes
only with --known-sampler randnode and --f-e only with --known-sampler
randedge.  Without --jobs, sweep reads its worker count from the
NETPROBE_JOBS environment variable, else runs one; the variable too must
be a whole number of at least 1.  Each list flag of sweep must list at
least one entry, and none twice.

main runs with CPython's cyclic garbage collector paused, from parsing the
flags to the command's last write: no part of a command's graph is in a
reference cycle, so what it drops is freed by reference counting, and its
graph is gone before the pause ends, so the collector never walks it.  The
cycles a command does leave are small: each JSON text it writes leaves
json's indenting encoder, its closures and their cells (33 objects), which
the collector frees after the pause.  main restores the collector state
its caller had, whatever the exit code.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import traceback
from pathlib import Path

from . import __version__
from .errors import ConfigError, NetProbeError, SamplingError
from .estimators import DEFAULT_ESTIMATION_PROBES, METHOD_FALLBACK, _check_fraction
from .graphs import (
    _clustering_of,
    count_triangles_wedges,
    global_clustering,
    load_edge_list,
    read_observed,
    write_observed,
)
from .harness import (
    TrialConfig,
    _collector_paused,
    budget_from_fraction,
    derive_seed,
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
    SampleFractions,
    check_sampler_args,
    run_sampler,
)
from .strategies import KNOWN_SAMPLERS, STRATEGIES, estimate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2

DEFAULT_BUDGETS = "0.01,0.02,0.03,0.04,0.05"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)

    def _parse_optional(self, arg_string):
        # argparse takes only "-1" and "-.5"-like tokens for negative
        # numbers, so "--jump-prob -1e-3" or "-inf" would lack its value;
        # a token float() reads is a value, which the flag's type checks
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _input_digests(args) -> dict[str, str]:
    """The digests of the run's input files by path.  A command takes them
    before it writes its first output, which may overwrite an input."""
    paths = [Path(p) for p in (args.graph, getattr(args, "observed", None)) if p]
    return {str(p): _sha256(p) for p in paths}


def _write_manifest(out_path: Path, args, inputs: dict[str, str], **derived) -> None:
    """Write out_path's manifest: every parsed flag under its argparse dest,
    plus the derived values the run resolved (they win over a flag of the
    same name), the input digests and the tool version."""
    params = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    params.update(derived)
    _write_json(out_path.with_suffix(out_path.suffix + ".manifest.json"), {
        "tool": "netprobe",
        "version": __version__,
        "command": args.command,
        "master_seed": params.get("master_seed", params.get("seed")),
        "parameters": params,
        "inputs": inputs,
    })


def _load_graph(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return load_edge_list(fh)


def _load_observed(path: str, g):
    with open(path, "r", encoding="utf-8") as fh:
        return read_observed(fh, g)


def positive_int(text: str) -> int:
    """argparse type of a count flag: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def finite_float(text: str) -> float:
    """argparse type of a float flag: a finite number."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
    return value


def _parse_budget(args, n_nodes: int) -> int:
    """Absolute --budget wins; otherwise the fraction of the graph's nodes."""
    if args.budget is not None:
        return args.budget
    return budget_from_fraction(args.budget_frac, n_nodes)


def _known_sample_from_args(args) -> tuple[str, SampleFractions] | None:
    """The (sampler, fractions) of --known-sampler, or None without it.  Each
    fraction flag goes only with the sampler that reads it; the other is 0.0."""
    flags = {"randnode": ("--f-n", args.f_n), "randedge": ("--f-e", args.f_e)}
    for sampler, (flag, fraction) in flags.items():
        if fraction is not None and sampler != args.known_sampler:
            raise ConfigError(f"{flag} is read only with --known-sampler {sampler}")
    if args.known_sampler is None:
        return None
    flag, fraction = flags[args.known_sampler]
    if fraction is None:
        raise ConfigError(f"--known-sampler {args.known_sampler} requires {flag}")
    try:
        _check_fraction(flag, fraction)
    except SamplingError as exc:
        raise ConfigError(str(exc)) from None
    return (args.known_sampler, SampleFractions(args.f_n or 0.0, args.f_e or 0.0))


def cmd_sample(args) -> int:
    g = _load_graph(args.graph)
    try:
        check_sampler_args(args.sampler, args.fraction, args.jump_prob, g.n_edges)
    except SamplingError as exc:
        raise ConfigError(str(exc)) from None
    obs, fractions = run_sampler(
        g, args.sampler, args.fraction, args.seed, jump_prob=args.jump_prob
    )
    inputs = _input_digests(args)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        write_observed(obs, fh)
    _write_manifest(out, args, inputs, achieved_node_fraction=fractions.node_fraction,
                    achieved_edge_fraction=fractions.edge_fraction)
    print(
        f"sampled {obs.n_nodes} nodes, {obs.n_edges} edges "
        f"({fractions.edge_fraction:.4f} of {g.n_edges}) -> {out}"
    )
    return EXIT_OK


def cmd_probe(args) -> int:
    known = _known_sample_from_args(args)
    g = _load_graph(args.graph)
    obs = _load_observed(args.observed, g)
    budget = _parse_budget(args, g.n_nodes)
    ledger, est = run_session(
        g, obs, args.strategy, budget, args.seed,
        estimation_probes=args.estimation_probes, known_sample=known,
        charge_estimation=not args.estimation_uncharged,
    )

    inputs = _input_digests(args)
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    observed_path = Path(f"{prefix}.observed.txt")
    log_path = Path(f"{prefix}.probelog.csv")
    report_path = Path(f"{prefix}.estimate.json")
    with open(observed_path, "w", encoding="utf-8") as fh:
        write_observed(obs, fh)
    with open(log_path, "w", encoding="utf-8", newline="") as fh:
        write_probe_log(ledger, fh)
    _write_json(report_path, est.report() if est is not None else None)
    _write_manifest(observed_path, args, inputs, budget=budget)
    print(
        f"probed {ledger.spent} nodes: {obs.n_nodes} nodes observed -> {observed_path}"
    )
    return EXIT_OK


def cmd_estimate(args) -> int:
    known = _known_sample_from_args(args)
    g = _load_graph(args.graph)
    obs = _load_observed(args.observed, g)
    budget = _parse_budget(args, g.n_nodes)
    seed = derive_seed(args.seed, "estimation")  # as run_session derives it for probe
    est = estimate(g, obs, ProbeLedger(budget), known, n_probes=args.n_probes, seed=seed)
    if est.method == METHOD_FALLBACK:
        if not obs.candidate_nodes():
            raise ConfigError("no candidate to probe: every observed node is explored")
        raise ConfigError(
            "budget too small for any estimation probe; "
            "use --known-sampler or a larger budget"
        )
    inputs = _input_digests(args)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_json(out, est.report())
    _write_manifest(out, args, inputs, budget=budget)
    print(json.dumps(est.report(), sort_keys=True))
    return EXIT_OK


def _grid_list(flag: str, text: str, kind=str) -> list:
    """The entries of a comma-separated list flag, each read with kind:
    at least one, and none listed twice, as its trials would run twice and
    count twice in the curves."""
    entries = []
    for entry in filter(None, text.split(",")):
        try:
            value = kind(entry)
        except ValueError:
            raise ConfigError(f"{flag} lists {entry!r}, which is not a number") from None
        if value in entries:
            raise ConfigError(f"{flag} lists {value!r} more than once")
        entries.append(value)
    if not entries:
        raise ConfigError(f"{flag} lists no entry")
    return entries


def _sweep_jobs(args) -> int:
    """--jobs, else the NETPROBE_JOBS environment variable, else 1."""
    if args.jobs is not None:
        return args.jobs
    text = os.environ.get("NETPROBE_JOBS", "1")
    try:
        return positive_int(text)
    except (ValueError, argparse.ArgumentTypeError):
        raise ConfigError(
            f"NETPROBE_JOBS must be a whole number of at least 1, got {text!r}"
        ) from None


def cmd_sweep(args) -> int:
    samplers = _grid_list("--samplers", args.samplers)
    strategies = _grid_list("--strategies", args.strategies)
    budgets = _grid_list("--budget-fracs", args.budget_fracs, float)
    jobs = _sweep_jobs(args)
    g = _load_graph(args.graph)

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
    rows = sweep(g, grid, master_seed=args.master_seed, jobs=jobs)

    inputs = _input_digests(args)
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    results_path = Path(f"{prefix}.results.csv")
    curves_path = Path(f"{prefix}.curves.csv")
    with open(results_path, "w", encoding="utf-8", newline="") as fh:
        write_results_csv(rows, fh)
    curves = improvement_curves(rows)
    with open(curves_path, "w", encoding="utf-8", newline="") as fh:
        write_curves_csv(curves, fh)
    _write_manifest(results_path, args, inputs, jobs=jobs)
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
        "global_clustering": _clustering_of(counts),
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
    p.add_argument("--budget", type=positive_int, default=None, help="absolute probe budget")
    p.add_argument("--budget-frac", type=finite_float, default=0.05,
                   help="budget as a fraction in (0, 1] of the complete graph's nodes")
    p.add_argument("--seed", type=int, default=0,
                   help="session seed; the estimation probes' seed is derived from it")
    p.add_argument("--known-sampler", choices=KNOWN_SAMPLERS, default=None,
                   help="use closed-form estimators for a sample of known origin")
    p.add_argument("--f-n", type=finite_float, default=None, help="known selected-node fraction")
    p.add_argument("--f-e", type=finite_float, default=None, help="known observed-edge fraction")


# one parser per process: a parser is some 430 objects in reference cycles,
# which only the cyclic collector could free
@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="netprobe", description=__doc__)
    parser.add_argument("--version", action="version", version=f"netprobe {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="generate an incomplete observation of a graph")
    p.add_argument("--graph", required=True, help="edge-list file of the complete graph")
    p.add_argument("--sampler", required=True, choices=SAMPLER_NAMES)
    p.add_argument("--fraction", type=finite_float, default=DEFAULT_EDGE_FRACTION,
                   help="target fraction of edges to observe (default 0.10)")
    p.add_argument("--jump-prob", type=finite_float, default=DEFAULT_JUMP_PROB,
                   help="teleport probability for the rwj sampler (default 0.15)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="observed-graph output file")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("probe", help="plan and execute probes on an observed graph")
    _add_session_args(p)
    p.add_argument("--strategy", required=True, choices=tuple(STRATEGIES))
    p.add_argument("--estimation-probes", type=positive_int, default=DEFAULT_ESTIMATION_PROBES)
    p.add_argument("--estimation-uncharged", action="store_true",
                   help="do not charge estimation probes against the budget")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("estimate", help="estimate degree scale and clustering only")
    _add_session_args(p)
    p.add_argument("--n-probes", type=positive_int, default=DEFAULT_ESTIMATION_PROBES)
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
    p.add_argument("--edge-fraction", type=finite_float, default=DEFAULT_EDGE_FRACTION)
    p.add_argument("--repeats", type=positive_int, default=20)
    p.add_argument("--jump-prob", type=finite_float, default=DEFAULT_JUMP_PROB)
    p.add_argument("--estimation-probes", type=positive_int, default=DEFAULT_ESTIMATION_PROBES)
    p.add_argument("--known-sample", action="store_true",
                   help="give maxoutprobe the sampler's true fractions")
    p.add_argument("--master-seed", type=int, default=0)
    p.add_argument("--jobs", type=positive_int,
                   help="worker processes (default: NETPROBE_JOBS, else 1)")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("stats", help="print graph (and optional observation) statistics")
    p.add_argument("--graph", required=True)
    p.add_argument("--observed", default=None)
    p.set_defaults(func=cmd_stats)

    return parser


# the whole of main: a command allocates many container objects, but its
# only cycles are the few a JSON write leaves, so a pass of the collector
# would find next to nothing, yet each full pass walks the graph it loaded
@_collector_paused()
def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NetProbeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:
        # a bug, or a pool worker killed mid-sweep: a runtime failure, never
        # the usage-error exit the interpreter would give it
        traceback.print_exc()
        print(f"error: internal error: {exc!r}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
