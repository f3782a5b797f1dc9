"""Experiment harness: run sampling + probing trials, pair every strategy
trial with a Random baseline on the identical sample, and aggregate percent
improvements into CCDF curves with trapezoidal AUC."""

from __future__ import annotations

import csv
import hashlib
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import IO, Sequence

from .errors import ConfigError, NetProbeError, SamplingError
from .estimators import DEFAULT_ESTIMATION_PROBES, EstimateSet
from .graphs import CompleteGraph, ObservedGraph
from .probing import PHASE_SELECTION, ProbeLedger, probe
from .sampling import DEFAULT_EDGE_FRACTION, DEFAULT_JUMP_PROB, check_sampler_args, run_sampler
from .strategies import lookup_strategy, make_probe_plan

logger = logging.getLogger(__name__)

# The samplers with closed-form estimators, and the kind of fraction they take.
KNOWN_SAMPLE_KINDS = {"randnode": "node", "randedge": "edge"}

RESULT_COLUMNS = [
    "sampler",
    "strategy",
    "edge_fraction",
    "budget_fraction",
    "repeat",
    "seed",
    "nodes_before",
    "nodes_after",
    "edges_after",
    "probes_spent",
    "c_hat",
    "m_hat",
    "improvement_vs_random",
]


def derive_seed(master_seed: int, *parts) -> int:
    """Stable named sub-seed: hash the master seed with the purpose parts."""
    text = ":".join([str(master_seed), *[str(p) for p in parts]])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class TrialConfig:
    """One cell of the experiment grid."""

    sampler: str
    strategy: str
    edge_fraction: float = DEFAULT_EDGE_FRACTION
    budget_fraction: float = 0.05
    n_repeats: int = 20
    jump_prob: float = DEFAULT_JUMP_PROB
    estimation_probes: int = DEFAULT_ESTIMATION_PROBES
    known_sample: bool = False


@dataclass(frozen=True)
class TrialResult:
    nodes_before: int
    nodes_after: int
    edges_after: int
    probes_spent: int
    estimate: EstimateSet | None = None


def budget_from_fraction(fraction: float, n_nodes: int) -> int:
    """The probe count of a budget given as a fraction of the complete
    graph's nodes: floor(fraction * n_nodes), which must be at least 1."""
    budget = int(fraction * n_nodes) if 0.0 < fraction <= 1.0 else 0
    if budget < 1:
        raise ConfigError(
            f"budget_fraction {fraction} must be in (0, 1] and yield a budget "
            f"of at least 1 on {n_nodes} nodes"
        )
    return budget


def _check_config(config: TrialConfig, n_nodes: int) -> int:
    """Reject a grid cell that no trial of it could run on n_nodes nodes: an
    unknown sampler or strategy, known-sample estimates for a sampler
    without closed-form estimators, no repeats, or a budget fraction, edge
    fraction or jump probability out of range.  Returns the trial budget."""
    try:
        check_sampler_args(config.sampler, config.edge_fraction, config.jump_prob)
    except SamplingError as exc:
        raise ConfigError(str(exc)) from None
    lookup_strategy(config.strategy)
    if config.known_sample and config.sampler not in KNOWN_SAMPLE_KINDS:
        raise ConfigError("known-sample estimators require the randnode or randedge sampler")
    if config.n_repeats < 1:
        raise ConfigError(f"n_repeats must be at least 1, got {config.n_repeats}")
    return budget_from_fraction(config.budget_fraction, n_nodes)


def run_session(
    g: CompleteGraph,
    obs: ObservedGraph,
    strategy: str,
    budget: int,
    seed: int,
    *,
    estimation_probes: int = DEFAULT_ESTIMATION_PROBES,
    known_sample: tuple[str, float] | None = None,
    charge_estimation: bool = True,
) -> tuple[ProbeLedger, EstimateSet | None]:
    """Plan then probe: spend a budget of probes on obs with a named strategy.

    seed is the selection seed; the estimation seed is derived from it.
    obs gains every probed neighbourhood, and the returned ledger's log
    lists every probe in order, estimation probes first.  The estimate set
    is None for strategies that use none.
    """
    ledger = ProbeLedger(budget=budget)
    plan, est = make_probe_plan(
        strategy, g, obs, ledger, selection_seed=seed,
        estimation_seed=derive_seed(seed, "estimation"),
        estimation_probes=estimation_probes, known_sample=known_sample,
        charge_estimation=charge_estimation,
    )
    for u in plan.nodes:
        probe(g, obs, ledger, u, phase=PHASE_SELECTION)
    return ledger, est


def run_trial(
    g: CompleteGraph,
    config: TrialConfig,
    sampler_seed: int,
    strategy_seed: int,
) -> TrialResult:
    """Sample, plan, probe, count.  Deterministic given both seeds."""
    budget = _check_config(config, g.n_nodes)
    obs, fractions = run_sampler(
        g, config.sampler, config.edge_fraction, sampler_seed, jump_prob=config.jump_prob
    )
    nodes_before = obs.n_nodes
    known = None
    if config.known_sample:
        kind = KNOWN_SAMPLE_KINDS[config.sampler]
        known = (kind, fractions.node_fraction if kind == "node" else fractions.edge_fraction)
    ledger, est = run_session(
        g, obs, config.strategy, budget, strategy_seed,
        estimation_probes=config.estimation_probes, known_sample=known,
    )
    return TrialResult(
        nodes_before=nodes_before,
        nodes_after=obs.n_nodes,
        edges_after=obs.n_edges,
        probes_spent=ledger.spent,
        estimate=est,
    )


def percent_improvement(strategy_nodes: int, random_nodes: int) -> float:
    """Percent by which a strategy's node count beats the Random baseline."""
    if random_nodes <= 0:
        raise ConfigError("random baseline node count must be positive")
    return 100.0 * (strategy_nodes - random_nodes) / random_nodes


@dataclass(frozen=True)
class AggregateCurve:
    """Complementary CDF: fraction of values at or above each x."""

    points: tuple[tuple[float, float], ...]
    auc: float = 0.0


def ccdf(values: Sequence[float]) -> AggregateCurve:
    """CCDF over the distinct values: y(x) = |{v >= x}| / n."""
    if not values:
        raise ConfigError("cannot build a CCDF from no values")
    ordered = sorted(values)
    n = len(ordered)
    points = []
    for i, x in enumerate(ordered):
        if i > 0 and x == ordered[i - 1]:
            continue
        points.append((x, (n - i) / n))
    curve = AggregateCurve(points=tuple(points))
    return replace(curve, auc=auc(curve))


def _step_value(points: Sequence[tuple[float, float]], x: float) -> float:
    """Evaluate a CCDF at any x: y of the next point at or above x, the
    first point's y below the support, 0 above it."""
    if x <= points[0][0]:
        return points[0][1]
    for px, py in points:
        if px >= x:
            return py
    return 0.0


def auc(
    curve: AggregateCurve, x_lo: float | None = None, x_hi: float | None = None
) -> float:
    """Trapezoidal area under the curve over [x_lo, x_hi] (defaults to the
    curve's own range).  A single-point curve has zero area."""
    points = curve.points
    if x_lo is None:
        x_lo = points[0][0]
    if x_hi is None:
        x_hi = points[-1][0]
    if x_hi <= x_lo:
        return 0.0
    xs = [x_lo] + [px for px, _ in points if x_lo < px < x_hi] + [x_hi]
    ys = [_step_value(points, x) for x in xs]
    area = 0.0
    for i in range(1, len(xs)):
        area += (xs[i] - xs[i - 1]) * (ys[i] + ys[i - 1]) / 2.0
    return area


def common_range_aucs(curves: dict[str, AggregateCurve]) -> dict[str, float]:
    """AUC of each curve over the x-range shared by all of them, making the
    areas comparable across strategies."""
    if not curves:
        return {}
    x_lo = max(c.points[0][0] for c in curves.values())
    x_hi = min(c.points[-1][0] for c in curves.values())
    return {name: auc(c, x_lo, x_hi) for name, c in curves.items()}


def _trial_row(
    config: TrialConfig, repeat: int, sampler_seed: int, result: TrialResult | None
) -> dict:
    row = {
        "sampler": config.sampler,
        "strategy": config.strategy,
        "edge_fraction": config.edge_fraction,
        "budget_fraction": config.budget_fraction,
        "repeat": repeat,
        "seed": sampler_seed,
        "nodes_before": "",
        "nodes_after": "",
        "edges_after": "",
        "probes_spent": "",
        "c_hat": "",
        "m_hat": "",
        "improvement_vs_random": "",
    }
    if result is not None:
        row["nodes_before"] = result.nodes_before
        row["nodes_after"] = result.nodes_after
        row["edges_after"] = result.edges_after
        row["probes_spent"] = result.probes_spent
        if result.estimate is not None:
            row["c_hat"] = result.estimate.clustering
            row["m_hat"] = result.estimate.scale_multiplier
    return row


@dataclass(frozen=True)
class _TrialSpec:
    config: TrialConfig
    repeat: int
    sampler_seed: int
    strategy_seed: int

    @property
    def pair_key(self) -> tuple:
        """The trials sharing this key share one sample and one baseline."""
        c = self.config
        return (c.sampler, c.edge_fraction, c.budget_fraction, self.repeat)


_WORKER_GRAPH: CompleteGraph | None = None


def _init_worker(g: CompleteGraph) -> None:
    global _WORKER_GRAPH
    _WORKER_GRAPH = g


def _run_spec_in_worker(spec: _TrialSpec):
    try:
        return run_trial(_WORKER_GRAPH, spec.config, spec.sampler_seed, spec.strategy_seed)
    except NetProbeError as exc:
        return exc


def sweep(
    g: CompleteGraph,
    grid: Sequence[TrialConfig],
    master_seed: int = 0,
    jobs: int = 1,
) -> list[dict]:
    """Run every grid config for its repeats, plus one paired Random
    baseline per (sampler, edge fraction, budget, repeat).

    The sampler seed depends only on (sampler, repeat), so each repeat is
    one incomplete network probed by every strategy at every budget, and the
    Random baseline sees the byte-identical sample.  A config that no
    trial could run, an out-of-range fraction among them, raises
    ConfigError before any trial runs; trials that fail on their own become
    rows with blank measurements, and the sweep continues.
    """
    if not grid:
        raise ConfigError("sweep grid is empty")
    for config in grid:
        _check_config(config, g.n_nodes)

    baseline_keys: dict[tuple, _TrialSpec] = {}
    strategy_specs: list[_TrialSpec] = []
    for config in grid:
        for repeat in range(config.n_repeats):
            sampler_seed = derive_seed(master_seed, "sampler", config.sampler, repeat)
            strategy_seed = derive_seed(
                master_seed,
                "selection",
                config.sampler,
                config.strategy,
                config.budget_fraction,
                repeat,
            )
            spec = _TrialSpec(config, repeat, sampler_seed, strategy_seed)
            strategy_specs.append(spec)
            key = spec.pair_key
            if key not in baseline_keys:
                baseline_config = replace(config, strategy="random")
                baseline_seed = derive_seed(
                    master_seed,
                    "selection",
                    config.sampler,
                    "random",
                    config.budget_fraction,
                    repeat,
                )
                baseline_keys[key] = _TrialSpec(
                    baseline_config, repeat, sampler_seed, baseline_seed
                )

    baseline_specs = [baseline_keys[k] for k in sorted(baseline_keys)]
    specs = strategy_specs + baseline_specs

    results: list[TrialResult | None] = []
    if jobs > 1:
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=(g,)
        ) as pool:
            outcomes = list(pool.map(_run_spec_in_worker, specs, chunksize=1))
    else:
        _init_worker(g)
        outcomes = [_run_spec_in_worker(spec) for spec in specs]
    for spec, outcome in zip(specs, outcomes):
        if isinstance(outcome, NetProbeError):
            logger.warning(
                "trial failed (%s/%s b=%s rep=%d): %s",
                spec.config.sampler,
                spec.config.strategy,
                spec.config.budget_fraction,
                spec.repeat,
                outcome,
            )
            results.append(None)
        else:
            results.append(outcome)

    baseline_nodes: dict[tuple, int | None] = {}
    n_strategy = len(strategy_specs)
    for spec, result in zip(baseline_specs, results[n_strategy:]):
        baseline_nodes[spec.pair_key] = result.nodes_after if result is not None else None

    rows = []
    for spec, result in zip(strategy_specs, results[:n_strategy]):
        row = _trial_row(spec.config, spec.repeat, spec.sampler_seed, result)
        base = baseline_nodes.get(spec.pair_key)
        if result is not None and base:
            if spec.config.strategy == "random":
                row["improvement_vs_random"] = 0.0
            else:
                row["improvement_vs_random"] = percent_improvement(
                    result.nodes_after, base
                )
        rows.append(row)
    for spec, result in zip(baseline_specs, results[n_strategy:]):
        row = _trial_row(spec.config, spec.repeat, spec.sampler_seed, result)
        if result is not None:
            row["improvement_vs_random"] = 0.0
        rows.append(row)
    return rows


def write_results_csv(rows: Sequence[dict], sink: IO[str]) -> None:
    writer = csv.DictWriter(sink, fieldnames=RESULT_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)


def improvement_curves(rows: Sequence[dict]) -> dict[str, AggregateCurve]:
    """CCDF of percent improvement over Random, per non-baseline strategy."""
    by_strategy: dict[str, list[float]] = {}
    for row in rows:
        value = row.get("improvement_vs_random")
        if row["strategy"] == "random" or value == "" or value is None:
            continue
        by_strategy.setdefault(row["strategy"], []).append(float(value))
    return {name: ccdf(values) for name, values in sorted(by_strategy.items())}


def write_curves_csv(curves: dict[str, AggregateCurve], sink: IO[str]) -> None:
    """Plot-ready curve rows (strategy,x,y) followed by one AUC summary row
    per strategy, computed over the strategies' common x-range."""
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["strategy", "x", "y"])
    for name in sorted(curves):
        for x, y in curves[name].points:
            writer.writerow([name, x, y])
    for name, area in sorted(common_range_aucs(curves).items()):
        writer.writerow([name, "auc", area])
