"""Experiment harness: run sampling + probing trials, pair every strategy
trial with a Random baseline on the identical sample, and aggregate percent
improvements into CCDF curves with trapezoidal AUC.

A trial probes nothing in its selection phase: every strategy fixes its
whole plan before the first selection probe, so the trial counts the nodes
and edges the plan would add (ObservedGraph._growth_walk).  Only the CLI's
probe session probes its plan node by node, through run_session.

A sweep's work unit is one drawn sample and every trial on it.  _run_unit
runs one, and run_trial runs a unit of one, so there is one trial path.  A
unit does its per-sample work once: the sample keeps its candidate listing
and degree order while it is unchanged, and shares them with its copies
(ObservedGraph._derived), so every trial on the unit reads the same ones.
The trials of one budget-free ranker (strategies.BUDGET_FREE) share its
plan at their largest budget, and _count_trials counts each smaller
budget's prefix in the same walk along the plan.  A trial whose
estimation phase probes changes the graph it plans on, so the unit runs
those trials last, each on a copy but the last, which probes the sample
itself: no trial reads the sample after it.

A work unit runs with CPython's cyclic garbage collector paused.  A trial
allocates many container objects but builds no reference cycle, so every
object it drops is freed by reference counting; the collector would find
nothing, yet each of its full passes walks the whole complete graph.  The
pause is process-wide, and the collector state the caller had is restored
when the unit ends, also when a trial raises.
"""

from __future__ import annotations

import concurrent.futures
import csv
import gc
import hashlib
import logging
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import chain
from typing import IO, Sequence

from .errors import ConfigError, NetProbeError, SamplingError
from .estimators import DEFAULT_ESTIMATION_PROBES, EstimateSet
from .graphs import CompleteGraph, ObservedGraph
from .probing import PHASE_SELECTION, ProbeLedger, probe
from .sampling import DEFAULT_EDGE_FRACTION, DEFAULT_JUMP_PROB, SampleFractions
from .sampling import check_sampler_args, run_sampler
from .strategies import (
    BUDGET_FREE,
    ESTIMATED,
    KNOWN_SAMPLERS,
    ProbePlan,
    lookup_strategy,
    make_probe_plan,
)

logger = logging.getLogger(__name__)

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


def _check_config(config: TrialConfig, g: CompleteGraph) -> None:
    """Reject a grid cell that no trial of it could run on g: an unknown
    sampler or strategy, known-sample estimates for a sampler not in
    strategies.KNOWN_SAMPLERS, no repeats or estimation probes, or a budget
    fraction, edge fraction or jump probability that check_sampler_args or
    budget_from_fraction refuse."""
    try:
        check_sampler_args(config.sampler, config.edge_fraction, config.jump_prob, g.n_edges)
    except SamplingError as exc:
        raise ConfigError(str(exc)) from None
    lookup_strategy(config.strategy)
    if config.known_sample and config.sampler not in KNOWN_SAMPLERS:
        raise ConfigError(f"known-sample estimators require a sampler in {KNOWN_SAMPLERS}")
    if config.n_repeats < 1:
        raise ConfigError(f"n_repeats must be at least 1, got {config.n_repeats}")
    if config.estimation_probes < 1:
        raise ConfigError(f"estimation_probes must be at least 1, got {config.estimation_probes}")
    budget_from_fraction(config.budget_fraction, g.n_nodes)


def run_session(
    g: CompleteGraph,
    obs: ObservedGraph,
    strategy: str,
    budget: int,
    seed: int,
    *,
    estimation_probes: int = DEFAULT_ESTIMATION_PROBES,
    known_sample: tuple[str, SampleFractions] | None = None,
    charge_estimation: bool = True,
) -> tuple[ProbeLedger, EstimateSet | None]:
    """Plan then probe: spend a budget of probes on obs with a named strategy.

    seed is the selection seed; the estimation seed is derived from it.
    known_sample, (sampler, fractions), goes to strategies.estimate.  obs
    gains every probed neighbourhood, and the returned ledger's log lists
    every probe in order, estimation probes first.  The estimate set is
    None for strategies that use none.
    """
    ledger, plan, est = _plan_session(
        g, obs, strategy, budget, seed, estimation_probes=estimation_probes,
        known_sample=known_sample, charge_estimation=charge_estimation,
    )
    for u in plan.nodes:
        probe(g, obs, ledger, u, phase=PHASE_SELECTION)
    return ledger, est


def _plan_session(
    g: CompleteGraph,
    obs: ObservedGraph,
    strategy: str,
    budget: int,
    seed: int,
    *,
    estimation_probes: int,
    known_sample: tuple[str, SampleFractions] | None,
    charge_estimation: bool = True,
) -> tuple[ProbeLedger, ProbePlan, EstimateSet | None]:
    """run_session up to its selection probes: the ledger, charged with
    any estimation probes made on obs, the plan and the estimate set."""
    ledger = ProbeLedger(budget=budget)
    plan, est = make_probe_plan(
        strategy, g, obs, ledger, selection_seed=seed,
        estimation_seed=derive_seed(seed, "estimation"),
        estimation_probes=estimation_probes, known_sample=known_sample,
        charge_estimation=charge_estimation,
    )
    return ledger, plan, est


def run_trial(
    g: CompleteGraph,
    config: TrialConfig,
    sampler_seed: int,
    strategy_seed: int,
) -> TrialResult:
    """Sample, plan, count.  Deterministic given both seeds: the trial a
    sweep runs for config with these seeds, as a work unit of one, on a
    sample of its own.  A failed trial raises its error."""
    _check_config(config, g)
    (outcome,) = _run_unit(g, [_TrialSpec(config, 0, sampler_seed, strategy_seed)])
    if isinstance(outcome, NetProbeError):
        raise outcome
    return outcome


def percent_improvement(strategy_nodes: int, random_nodes: int) -> float:
    """Percent by which a strategy's node count beats the Random baseline."""
    if random_nodes <= 0:
        raise ConfigError("random baseline node count must be positive")
    return 100.0 * (strategy_nodes - random_nodes) / random_nodes


# A complementary CDF's points (x, y), in ascending x: the fraction y of the
# values at or above each x.
Curve = tuple[tuple[float, float], ...]


def ccdf(values: Sequence[float]) -> Curve:
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
    return tuple(points)


def auc(curve: Curve, x_lo: float | None = None, x_hi: float | None = None) -> float:
    """Trapezoidal area under the curve over [x_lo, x_hi] (defaults to the
    curve's own range).  A single-point curve has zero area."""
    if x_lo is None:
        x_lo = curve[0][0]
    if x_hi is None:
        x_hi = curve[-1][0]
    if x_hi <= x_lo:
        return 0.0
    points_x = [px for px, _ in curve]
    points_y = [py for _, py in curve] + [0.0]
    xs = [x_lo, *points_x[bisect_right(points_x, x_lo):bisect_left(points_x, x_hi)], x_hi]
    # the step value at x is the y of the first point at or above x: the
    # first point's y below the support, 0 above it
    ys = [points_y[bisect_left(points_x, x)] for x in xs]
    area = 0.0
    for i in range(1, len(xs)):
        area += (xs[i] - xs[i - 1]) * (ys[i] + ys[i - 1]) / 2.0
    return area


def common_range_aucs(curves: dict[str, Curve]) -> dict[str, float]:
    """AUC of each curve over the x-range shared by all of them, making the
    areas comparable across strategies."""
    if not curves:
        return {}
    x_lo = max(c[0][0] for c in curves.values())
    x_hi = min(c[-1][0] for c in curves.values())
    return {name: auc(c, x_lo, x_hi) for name, c in curves.items()}


@dataclass(frozen=True)
class _TrialSpec:
    """One trial of a sweep: a grid config's repeat and its two seeds.
    Equal specs have equal outcomes."""

    config: TrialConfig
    repeat: int
    sampler_seed: int
    strategy_seed: int

    @classmethod
    def derive(cls, master_seed: int, config: TrialConfig, repeat: int) -> _TrialSpec:
        """The spec with its seeds, derived by one rule for strategy trials
        and baselines alike.  The sampler seed depends only on (sampler,
        repeat), so each repeat is one sample probed at every budget."""
        c = config
        selection = (c.sampler, c.strategy, c.budget_fraction, repeat)
        sampler_seed = derive_seed(master_seed, "sampler", c.sampler, repeat)
        return cls(config, repeat, sampler_seed, derive_seed(master_seed, "selection", *selection))

    @property
    def pair_key(self) -> tuple:
        """The trials sharing this key share one sample and one baseline."""
        c = self.config
        return (c.sampler, c.edge_fraction, c.budget_fraction, self.repeat, c.jump_prob)

    @property
    def sample_key(self) -> tuple:
        """The trials sharing this key share one drawn sample: a work unit."""
        c = self.config
        return (c.sampler, c.edge_fraction, c.jump_prob, self.sampler_seed)

    def row(self, outcome, baseline) -> dict:
        """This trial's result row, given its outcome and its paired Random
        baseline's, each a TrialResult or a NetProbeError.  A failed trial
        leaves its measurements blank, and the improvement over the
        baseline is blank if either trial failed."""
        c = self.config
        row = dict.fromkeys(RESULT_COLUMNS, "")
        row.update(sampler=c.sampler, strategy=c.strategy, edge_fraction=c.edge_fraction,
                   budget_fraction=c.budget_fraction, repeat=self.repeat, seed=self.sampler_seed)
        if isinstance(outcome, TrialResult):
            row.update(nodes_before=outcome.nodes_before, nodes_after=outcome.nodes_after,
                       edges_after=outcome.edges_after, probes_spent=outcome.probes_spent)
            if outcome.estimate is not None:
                row.update(c_hat=outcome.estimate.clustering,
                           m_hat=outcome.estimate.scale_multiplier)
            if isinstance(baseline, TrialResult):
                row["improvement_vs_random"] = (
                    0.0 if c.strategy == "random"
                    else percent_improvement(outcome.nodes_after, baseline.nodes_after)
                )
        return row


@contextmanager
def _collector_paused():
    """Run the body with the cyclic garbage collector off, and turn it back
    on afterwards only if it was on before, so nested use and a caller that
    had it off both keep their state."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _detached(exc: NetProbeError) -> NetProbeError:
    """exc without its traceback or chained exceptions, which hold the frames
    the error passed through: kept in a unit's outcomes, they would put the
    unit's frame, sample and outcomes in a reference cycle.  Only the
    message is used, as for an outcome pickled back from a pool worker."""
    exc.__cause__ = exc.__context__ = None
    return exc.with_traceback(None)


# a decorator, not a with block in the body: the pause must end after the
# unit's frame and the sample it holds are freed, or the collector's first
# pass would walk the whole sample
@_collector_paused()
def _run_unit(g: CompleteGraph, specs: list[_TrialSpec]) -> list:
    """Draw the sample the specs share, once, then count the specs' trials
    on it.  The specs of one budget-free ranker share one plan.  The plans
    that probe to estimate (_probes) run after every other, each on its
    own copy but the last, which probes the sample itself.  Returns one
    TrialResult or NetProbeError per spec; a sample that fails fails every
    trial.  Runs with the cyclic garbage collector paused."""
    c = specs[0].config
    try:
        sample, fractions = run_sampler(
            g, c.sampler, c.edge_fraction, specs[0].sampler_seed, jump_prob=c.jump_prob
        )
    except NetProbeError as exc:
        return [_detached(exc)] * len(specs)
    plans: dict[object, list[_TrialSpec]] = {}
    for spec in specs:
        strategy = spec.config.strategy
        plans.setdefault(strategy if strategy in BUDGET_FREE else spec, []).append(spec)
    ordered = sorted(plans.values(), key=lambda shared: _probes(shared[0].config))
    last = len(ordered) - 1
    outcomes = {}
    for i, shared in enumerate(ordered):
        obs = sample.copy() if i < last and _probes(shared[0].config) else sample
        outcomes.update(zip(shared, _count_trials(g, shared, obs, fractions)))
    return list(map(outcomes.__getitem__, specs))


def _probes(config: TrialConfig) -> bool:
    """Whether a trial of config probes the graph it plans on, to estimate."""
    return config.strategy in ESTIMATED and not config.known_sample


def _count_trials(
    g: CompleteGraph,
    specs: list[_TrialSpec],
    obs: ObservedGraph,
    fractions: SampleFractions,
) -> list:
    """The outcomes of the specs' trials on obs, a sample their sampler
    drew with these fractions, when they share one plan: one trial, or one
    budget-free ranker's trials at several budgets.

    Plan as run_session does at the largest budget, then count what probing
    each budget's prefix of the plan would add, in one walk along it.  A
    plan fixes every selection probe before the first is made, so the count
    equals the probes' growth.  Only the estimation phase changes obs, and
    only for a trial that probes (_probes); the caller copies obs for such
    a trial if it reads obs later.  A plan that fails fails every spec, and
    a count that fails on a node, every spec whose prefix reaches it.
    """
    try:
        budgets = [budget_from_fraction(s.config.budget_fraction, g.n_nodes) for s in specs]
        top = specs[budgets.index(max(budgets))]
        c = top.config
        known = c.known_sample
        nodes_before = obs.n_nodes
        ledger, plan, est = _plan_session(
            g, obs, c.strategy, max(budgets), top.strategy_seed,
            estimation_probes=c.estimation_probes,
            known_sample=(c.sampler, fractions) if known else None,
        )
    except NetProbeError as exc:
        return [_detached(exc)] * len(specs)
    ixs = list(map(g._index.__getitem__, plan.nodes))
    ends = [min(b, len(ixs)) for b in budgets]
    walked = sorted(set(ends))
    results, failure = {}, None
    try:
        for end, (new_nodes, new_edges) in zip(walked, obs._growth_walk(ixs, walked)):
            results[end] = TrialResult(
                nodes_before=nodes_before,
                nodes_after=obs.n_nodes + new_nodes,
                edges_after=obs.n_edges + new_edges,
                probes_spent=ledger.spent + end,
                estimate=est,
            )
    except NetProbeError as exc:
        failure = _detached(exc)
    return [results.get(end, failure) for end in ends]


_WORKER_GRAPH: CompleteGraph | None = None


def _init_worker(g: CompleteGraph) -> None:
    """Store the graph, and turn the collector on: a forked worker inherits
    the state of the process that started it, which may be paused, and
    only _run_unit's own pause should hold in a worker."""
    global _WORKER_GRAPH
    _WORKER_GRAPH = g
    gc.enable()


def _run_unit_in_worker(specs: list[_TrialSpec]) -> list:
    """_run_unit in a pool worker, on the graph its initializer stored."""
    return _run_unit(_WORKER_GRAPH, specs)


def sweep(
    g: CompleteGraph,
    grid: Sequence[TrialConfig],
    master_seed: int = 0,
    jobs: int = 1,
) -> list[dict]:
    """Run every grid config for its repeats, plus one paired Random
    baseline per (sampler, edge fraction, budget, repeat, rwj jump probability).

    Each repeat is one incomplete network probed by every strategy at every
    budget, and the Random baseline sees the byte-identical sample, drawn
    once.  Each trial counts the growth its plan would bring on that sample
    instead of probing it, and every trial plans on the sample as drawn:
    those whose estimation phase probes run after the others, each on a
    copy but the last, which probes the sample.  A config that no trial
    could run, an out-of-range fraction among them, a config listed twice
    (equal but for n_repeats, or for a jump probability, which only rwj
    reads), or jobs below 1 raises ConfigError before any trial runs;
    trials that fail on their own become rows with blank measurements, and
    the sweep continues.
    Rows list the grid's trials in grid order, then in pair-key order the
    baselines the grid does not list itself: each trial is written once.
    """
    if not grid:
        raise ConfigError("sweep grid is empty")
    grid = [c if c.sampler == "rwj" else replace(c, jump_prob=DEFAULT_JUMP_PROB) for c in grid]
    trials = set()
    for config in grid:
        _check_config(config, g)
        # configs that differ in their repeat count alone share trials
        trial = replace(config, n_repeats=0)
        if trial in trials:
            raise ConfigError(
                f"sweep grid lists {config.sampler}/{config.strategy} at budget fraction "
                f"{config.budget_fraction} more than once"
            )
        trials.add(trial)
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")

    specs = [
        _TrialSpec.derive(master_seed, config, repeat)
        for config in grid
        for repeat in range(config.n_repeats)
    ]
    # a grid's own random trial is its pair's baseline (the first one, if
    # estimation settings tell several apart), so it runs and is written
    # once; an rwj jump probability is part of the sample, so each has its own
    baselines = {s.pair_key: s for s in reversed(specs) if s.config.strategy == "random"}
    added: dict[tuple, _TrialSpec] = {}
    for spec in specs:
        key = spec.pair_key
        if key not in baselines:
            random_config = replace(spec.config, strategy="random")
            baselines[key] = added[key] = _TrialSpec.derive(master_seed, random_config, spec.repeat)
    specs += [added[key] for key in sorted(added)]

    units: dict[tuple, list[_TrialSpec]] = {}
    for spec in specs:
        units.setdefault(spec.sample_key, []).append(spec)
    # never more workers than work units: under fork the pool starts every
    # worker on its first submit; concurrent.futures loads the pool, and
    # multiprocessing with it, on this first lookup
    workers = min(jobs, len(units))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(g,)
        ) as pool:
            unit_outcomes = list(pool.map(_run_unit_in_worker, units.values(), chunksize=1))
    else:
        unit_outcomes = [_run_unit(g, unit) for unit in units.values()]
    outcomes = dict(zip(chain(*units.values()), chain(*unit_outcomes)))

    rows = []
    for spec in specs:
        outcome = outcomes[spec]
        if isinstance(outcome, NetProbeError):
            c = spec.config
            logger.warning("trial failed (%s/%s b=%s rep=%d): %s",
                           c.sampler, c.strategy, c.budget_fraction, spec.repeat, outcome)
        rows.append(spec.row(outcome, outcomes[baselines[spec.pair_key]]))
    return rows


def write_results_csv(rows: Sequence[dict], sink: IO[str]) -> None:
    writer = csv.DictWriter(sink, fieldnames=RESULT_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)


def improvement_curves(rows: Sequence[dict]) -> dict[str, Curve]:
    """CCDF of percent improvement over Random, per non-baseline strategy."""
    by_strategy: dict[str, list[float]] = {}
    for row in rows:
        value = row.get("improvement_vs_random")
        if row["strategy"] == "random" or value == "" or value is None:
            continue
        by_strategy.setdefault(row["strategy"], []).append(float(value))
    return {name: ccdf(values) for name, values in sorted(by_strategy.items())}


def write_curves_csv(curves: dict[str, Curve], sink: IO[str]) -> None:
    """Plot-ready curve rows (strategy,x,y) followed by one AUC summary row
    per strategy, computed over the strategies' common x-range."""
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["strategy", "x", "y"])
    for name in sorted(curves):
        for x, y in curves[name]:
            writer.writerow([name, x, y])
    for name, area in sorted(common_range_aucs(curves).items()):
        writer.writerow([name, "auc", area])
