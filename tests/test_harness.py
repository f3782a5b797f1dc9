"""Trial execution, pairing, CCDF/AUC aggregation, and sweep plumbing."""

import concurrent.futures
import gc
import io
import logging
import random
from dataclasses import replace

import pytest

from netprobe import harness, strategies
from netprobe.errors import ConfigError, NetProbeError, SamplingError
from netprobe.generators import planted_partition_graph, random_graph
from netprobe.graphs import ObservedGraph, write_observed
from netprobe.harness import (
    RESULT_COLUMNS,
    TrialConfig,
    auc,
    budget_from_fraction,
    ccdf,
    common_range_aucs,
    derive_seed,
    improvement_curves,
    percent_improvement,
    run_trial,
    sweep,
    write_curves_csv,
    write_results_csv,
)
from netprobe.sampling import SAMPLER_NAMES, run_sampler

from oracles import brute_ccdf_value, brute_closure_nodes


class TestRunTrial:
    def test_random_with_full_budget_reaches_closure(self):
        g = random_graph(30, 0.15, seed=1)
        obs, _ = run_sampler(g, "randedge", 0.3, seed=77)
        expected = brute_closure_nodes(g, obs)
        config = TrialConfig(sampler="randedge", strategy="random",
                             edge_fraction=0.3, budget_fraction=1.0)
        result = run_trial(g, config, sampler_seed=77, strategy_seed=5)
        assert result.nodes_after == len(expected)

    def test_budget_below_one_rejected(self):
        g = random_graph(30, 0.2, seed=2)
        config = TrialConfig(sampler="randedge", strategy="highdeg",
                             budget_fraction=0.01)
        with pytest.raises(ConfigError):
            run_trial(g, config, sampler_seed=1, strategy_seed=1)

    def test_deterministic(self):
        g = planted_partition_graph(6, 10, 0.5, 0.02, seed=3)
        config = TrialConfig(sampler="randnode", strategy="maxoutprobe",
                             budget_fraction=0.2, estimation_probes=5)
        a = run_trial(g, config, sampler_seed=9, strategy_seed=4)
        b = run_trial(g, config, sampler_seed=9, strategy_seed=4)
        assert a == b

    def test_counts_monotone_and_budgeted(self):
        g = planted_partition_graph(6, 10, 0.5, 0.02, seed=4)
        for strategy in ("highdeg", "random", "maxoutprobe", "crosscomm"):
            config = TrialConfig(sampler="randedge", strategy=strategy,
                                 budget_fraction=0.15, estimation_probes=4)
            result = run_trial(g, config, sampler_seed=2, strategy_seed=8)
            assert result.nodes_after >= result.nodes_before
            assert result.probes_spent <= int(0.15 * g.n_nodes)

    def test_known_sample_mode(self):
        g = planted_partition_graph(6, 10, 0.5, 0.02, seed=5)
        config = TrialConfig(sampler="randedge", strategy="maxoutprobe",
                             budget_fraction=0.2, known_sample=True)
        result = run_trial(g, config, sampler_seed=3, strategy_seed=7)
        assert result.estimate is not None
        assert result.estimate.probes_used == 0
        assert result.probes_spent == int(0.2 * g.n_nodes)

    def test_known_sample_requires_supported_sampler(self):
        g = random_graph(40, 0.2, seed=6)
        config = TrialConfig(sampler="rw", strategy="maxoutprobe",
                             budget_fraction=0.2, known_sample=True)
        with pytest.raises(ConfigError):
            run_trial(g, config, sampler_seed=1, strategy_seed=1)

    def test_no_strategy_beats_probing_all_candidates(self):
        g = random_graph(40, 0.15, seed=7)
        obs, _ = run_sampler(g, "randedge", 0.3, seed=55)
        upper_bound = len(brute_closure_nodes(g, obs))
        for strategy in ("maxoutprobe", "highdeg", "lowcc", "crosscomm", "random"):
            config = TrialConfig(sampler="randedge", strategy=strategy,
                                 edge_fraction=0.3, budget_fraction=0.2,
                                 estimation_probes=2)
            result = run_trial(g, config, sampler_seed=55, strategy_seed=3)
            assert result.nodes_after <= upper_bound


@pytest.mark.parametrize("fraction, n_nodes, budget", [
    (1.0, 30, 30), (0.5, 3, 1), (0.05, 5030, 251), (0.1, 9, None), (0.0, 30, None),
    (-0.5, 30, None), (1.01, 30, None), (float("nan"), 30, None),
])
def test_budget_from_fraction(fraction, n_nodes, budget):
    if budget is None:
        with pytest.raises(ConfigError):
            budget_from_fraction(fraction, n_nodes)
    else:
        assert budget_from_fraction(fraction, n_nodes) == budget


class TestPercentImprovement:
    def test_examples(self):
        assert percent_improvement(1100, 1000) == pytest.approx(10.0)
        assert percent_improvement(1000, 1000) == 0.0
        assert percent_improvement(900, 1000) == pytest.approx(-10.0)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ConfigError):
            percent_improvement(10, 0)


class TestCcdf:
    def test_simple_counts(self):
        curve = ccdf([1.0, 2.0, 3.0])
        points = dict(curve)
        assert points[2.0] == pytest.approx(2 / 3)
        assert points[1.0] == 1.0
        assert points[3.0] == pytest.approx(1 / 3)

    def test_all_equal_single_point(self):
        curve = ccdf([5.0, 5.0, 5.0])
        assert curve == ((5.0, 1.0),)
        assert auc(curve) == 0.0

    def test_matches_brute_force_counting(self):
        rng = random.Random(13)
        for _ in range(10):
            values = [rng.uniform(-50, 50) for _ in range(40)]
            curve = ccdf(values)
            for x, y in curve:
                assert y == pytest.approx(brute_ccdf_value(values, x))
            ys = [y for _, y in curve]
            assert ys == sorted(ys, reverse=True)
            assert all(0 < y <= 1 for y in ys)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            ccdf([])


class TestAuc:
    def test_constant_one(self):
        curve = ((0.0, 1.0), (10.0, 1.0))
        assert auc(curve) == pytest.approx(10.0)

    def test_constant_half(self):
        curve = ((0.0, 0.5), (10.0, 0.5))
        assert auc(curve) == pytest.approx(5.0)

    def test_uniform_descent_closed_form(self):
        curve = ((0.0, 1.0), (1.0, 0.75), (2.0, 0.5), (3.0, 0.25), (4.0, 0.0))
        # trapezoid of a uniform descent: mean height 0.5 over width 4
        assert auc(curve) == pytest.approx(2.0)

    def test_single_point_is_zero(self):
        assert auc(((3.0, 1.0),)) == 0.0

    def test_restricted_range(self):
        curve = ((0.0, 1.0), (10.0, 1.0))
        assert auc(curve, 2.0, 7.0) == pytest.approx(5.0)

    def test_common_range(self):
        curves = {
            "a": ((0.0, 1.0), (10.0, 1.0)),
            "b": ((5.0, 1.0), (20.0, 1.0)),
        }
        areas = common_range_aucs(curves)
        assert areas["a"] == pytest.approx(5.0)
        assert areas["b"] == pytest.approx(5.0)
        assert common_range_aucs({}) == {}


class TestSweep:
    def small_grid(self, n_repeats=3):
        return [
            TrialConfig(sampler="randedge", strategy=strategy,
                        edge_fraction=0.2, budget_fraction=budget,
                        n_repeats=n_repeats, estimation_probes=4)
            for strategy in ("maxoutprobe", "highdeg")
            for budget in (0.1, 0.2)
        ]

    def test_row_counts(self):
        g = planted_partition_graph(6, 10, 0.5, 0.02, seed=8)
        rows = sweep(g, self.small_grid(), master_seed=1)
        strategy_rows = [r for r in rows if r["strategy"] != "random"]
        random_rows = [r for r in rows if r["strategy"] == "random"]
        assert len(strategy_rows) == 12
        assert len(random_rows) == 6

    def test_paired_sampler_seeds(self):
        g = planted_partition_graph(6, 10, 0.5, 0.02, seed=9)
        rows = sweep(g, self.small_grid(), master_seed=2)
        by_key = {}
        for row in rows:
            key = (row["sampler"], row["budget_fraction"], row["repeat"])
            by_key.setdefault(key, set()).add(row["seed"])
        assert all(len(seeds) == 1 for seeds in by_key.values())
        # same repeat shares one sample across budgets too
        seeds_by_repeat = {}
        for row in rows:
            seeds_by_repeat.setdefault(row["repeat"], set()).add(row["seed"])
        assert all(len(s) == 1 for s in seeds_by_repeat.values())

    def test_improvement_consistency(self):
        g = planted_partition_graph(6, 10, 0.5, 0.02, seed=10)
        rows = sweep(g, self.small_grid(), master_seed=3)
        random_nodes = {
            (r["sampler"], r["budget_fraction"], r["repeat"]): r["nodes_after"]
            for r in rows
            if r["strategy"] == "random"
        }
        for row in rows:
            if row["strategy"] == "random":
                assert row["improvement_vs_random"] == 0.0
                continue
            base = random_nodes[(row["sampler"], row["budget_fraction"], row["repeat"])]
            expected = 100.0 * (row["nodes_after"] - base) / base
            assert row["improvement_vs_random"] == pytest.approx(expected)

    def test_each_jump_probability_has_a_baseline_on_its_own_sample(self):
        """rwj trials that differ only in jump probability draw different
        samples, so each is paired with a Random baseline on its own; the
        baselines are written in jump-probability order."""
        g = planted_partition_graph(6, 10, 0.5, 0.02, seed=8)
        grid = [TrialConfig("rwj", "highdeg", 0.2, 0.1, 1, jump_prob=j) for j in (0.1, 0.5)]
        rows = sweep(g, grid, master_seed=3)
        trials = [r for r in rows if r["strategy"] != "random"]
        baselines = [r for r in rows if r["strategy"] == "random"]
        assert len(trials) == len(baselines) == 2
        assert trials[0]["nodes_before"] != trials[1]["nodes_before"]
        for trial, base in zip(trials, baselines):
            assert trial["nodes_before"] == base["nodes_before"]
            expected = 100.0 * (trial["nodes_after"] - base["nodes_after"]) / base["nodes_after"]
            assert trial["improvement_vs_random"] == pytest.approx(expected)

    def test_jump_probability_is_read_only_by_rwj(self, monkeypatch):
        """randnode, randedge and rw ignore the jump probability: configs
        that differ only in it list one trial twice, or share one sample
        and one baseline."""
        g = planted_partition_graph(6, 10, 0.5, 0.02, seed=8)
        repeated = [TrialConfig("randnode", "highdeg", 0.2, 0.1, 1, jump_prob=j) for j in (0.1, 0.5)]
        with pytest.raises(ConfigError, match="randnode/highdeg at budget fraction 0.1 more than once"):
            sweep(g, repeated, master_seed=3)
        calls = []

        def counting_run_sampler(g, sampler, edge_fraction, seed, **kwargs):
            calls.append(seed)
            return run_sampler(g, sampler, edge_fraction, seed, **kwargs)

        monkeypatch.setattr(harness, "run_sampler", counting_run_sampler)
        grid = [TrialConfig("rw", "highdeg", 0.2, 0.1, 1, jump_prob=0.1),
                TrialConfig("rw", "lowdeg", 0.2, 0.1, 1, jump_prob=0.5)]
        rows = sweep(g, grid, master_seed=3)
        assert [r["strategy"] for r in rows] == ["highdeg", "lowdeg", "random"]
        assert len(calls) == 1
        assert all(r["nodes_after"] != "" for r in rows)

    def test_reproducible_csv(self):
        g = planted_partition_graph(6, 10, 0.5, 0.02, seed=11)
        rows_a = sweep(g, self.small_grid(), master_seed=4)
        rows_b = sweep(g, self.small_grid(), master_seed=4)
        buf_a, buf_b = io.StringIO(), io.StringIO()
        write_results_csv(rows_a, buf_a)
        write_results_csv(rows_b, buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()

    def test_failed_trials_become_blank_rows(self, monkeypatch):
        g = planted_partition_graph(6, 10, 0.5, 0.02, seed=12)
        failing_seed = derive_seed(5, "sampler", "randedge", 1)

        def run_sampler_failing_once(g, sampler, edge_fraction, seed, **kwargs):
            if seed == failing_seed:
                raise SamplingError("sampler failed")
            return run_sampler(g, sampler, edge_fraction, seed, **kwargs)

        monkeypatch.setattr(harness, "run_sampler", run_sampler_failing_once)
        rows = sweep(g, self.small_grid(), master_seed=5)
        failed = [r for r in rows if r["nodes_after"] == ""]
        # repeat 1 of every strategy and budget, and its two baselines
        assert len(failed) == 6
        assert all(r["seed"] == failing_seed and r["repeat"] == 1 for r in failed)
        assert all(r["improvement_vs_random"] == "" for r in failed)
        assert all(r["nodes_after"] != "" for r in rows if r["repeat"] != 1)

    def test_each_sample_drawn_once(self, monkeypatch):
        g = planted_partition_graph(6, 10, 0.5, 0.02, seed=8)
        calls = []

        def counting_run_sampler(g, sampler, edge_fraction, seed, **kwargs):
            calls.append((sampler, edge_fraction, seed))
            return run_sampler(g, sampler, edge_fraction, seed, **kwargs)

        monkeypatch.setattr(harness, "run_sampler", counting_run_sampler)
        rows = sweep(g, self.small_grid(n_repeats=2), master_seed=1)
        # 2 strategies x 2 budgets x 2 repeats plus 4 baselines, on 2 samples
        assert len(rows) == 12
        assert all(r["nodes_after"] != "" for r in rows)
        assert sorted(calls) == sorted(
            ("randedge", 0.2, derive_seed(1, "sampler", "randedge", repeat))
            for repeat in range(2)
        )

    def test_random_trial_equal_to_its_baseline_runs_once(self, monkeypatch):
        g = planted_partition_graph(6, 10, 0.5, 0.02, seed=8)
        calls = []
        count_trials = harness._count_trials

        def recording_count_trials(g, specs, *args):
            calls.extend((spec.config.strategy, spec.strategy_seed) for spec in specs)
            return count_trials(g, specs, *args)

        monkeypatch.setattr(harness, "_count_trials", recording_count_trials)
        grid = [TrialConfig(sampler="randedge", strategy=strategy, edge_fraction=0.2,
                            budget_fraction=0.1, n_repeats=2)
                for strategy in ("highdeg", "random")]
        rows = sweep(g, grid, master_seed=1)
        # the random rows are the baselines, and none is added
        assert [r["strategy"] for r in rows] == ["highdeg"] * 2 + ["random"] * 2
        assert sorted(calls) == sorted(set(calls)) and len(calls) == 4

    def test_each_trial_is_written_once(self):
        # the grid's own random trials are their pairs' baselines, also where
        # the random config has more repeats than the strategy it pairs with
        g = planted_partition_graph(6, 10, 0.5, 0.02, seed=8)
        grid = [TrialConfig(sampler=sampler, strategy=strategy, edge_fraction=0.2,
                            budget_fraction=budget, n_repeats=n_repeats)
                for sampler in ("randnode", "rw")
                for strategy, n_repeats in (("highdeg", 2), ("random", 3))
                for budget in (0.1, 0.2)]
        rows = sweep(g, grid, master_seed=3)
        sink = io.StringIO()
        write_results_csv(rows, sink)
        lines = sink.getvalue().splitlines()
        assert len(lines) == len(set(lines))
        # per sampler and budget, 2 highdeg and 3 random trials
        assert len(rows) == 2 * 2 * (2 + 3)
        assert all(r["nodes_after"] != "" for r in rows)

    def test_each_estimating_trial_but_the_last_copies_the_sample(self, monkeypatch):
        g = planted_partition_graph(6, 10, 0.5, 0.02, seed=8)
        copies = []
        copy = ObservedGraph.copy
        monkeypatch.setattr(ObservedGraph, "copy", lambda obs: copies.append(1) or copy(obs))
        units = []
        run_unit = harness._run_unit

        def counting_run_unit(g, specs):
            before = len(copies)
            outcomes = run_unit(g, specs)
            units.append((len(specs), len(copies) - before))
            return outcomes

        monkeypatch.setattr(harness, "_run_unit", counting_run_unit)
        rows = sweep(g, self.small_grid(n_repeats=2), master_seed=1)
        assert all(r["nodes_after"] != "" for r in rows)
        # per sample: 2 strategies x 2 budgets plus 2 baselines, and only
        # the 2 maxoutprobe trials probe the sample, to estimate; the last
        # of them probes the sample itself
        assert units == [(6, 1), (6, 1)]
        # a unit's only estimating trial copies nothing, wherever the grid
        # lists it
        units.clear()
        grid = [TrialConfig(sampler="randedge", strategy=strategy, edge_fraction=0.2,
                            budget_fraction=0.1, n_repeats=2, estimation_probes=4)
                for strategy in ("random", "maxoutprobe")]
        rows = sweep(g, grid, master_seed=1)
        assert all(r["nodes_after"] != "" for r in rows)
        assert units == [(2, 0), (2, 0)]

    @pytest.mark.parametrize("n_probing", [0, 1, 2, 4])
    def test_a_unit_with_k_probing_plans_makes_k_minus_one_copies(self, monkeypatch, n_probing):
        # the probing plans (maxoutprobe without a known sample) are listed
        # first; known-sample maxoutprobe plans read the sample unchanged,
        # like every other strategy
        g = planted_partition_graph(6, 10, 0.5, 0.02, seed=8)
        budgets = (0.05, 0.1, 0.15, 0.2)[:n_probing]
        configs = [
            *(TrialConfig(sampler="randedge", strategy="maxoutprobe", edge_fraction=0.2,
                          budget_fraction=b, n_repeats=1, estimation_probes=4)
              for b in budgets),
            TrialConfig(sampler="randedge", strategy="highdeg", edge_fraction=0.2,
                        budget_fraction=0.1, n_repeats=1),
            *(TrialConfig(sampler="randedge", strategy="maxoutprobe", edge_fraction=0.2,
                          budget_fraction=b, n_repeats=1, known_sample=True)
              for b in (0.05, 0.1)),
            TrialConfig(sampler="randedge", strategy="random", edge_fraction=0.2,
                        budget_fraction=0.1, n_repeats=1),
        ]
        specs = [harness._TrialSpec.derive(4, config, 0) for config in configs]
        alone = [harness._run_unit(g, [spec]) for spec in specs]
        copies = []
        copy = ObservedGraph.copy
        monkeypatch.setattr(ObservedGraph, "copy", lambda obs: copies.append(1) or copy(obs))
        outcomes = harness._run_unit(g, specs)
        assert len(copies) == max(n_probing - 1, 0)
        assert all(isinstance(o, harness.TrialResult) for o in outcomes)
        assert [[o] for o in outcomes] == alone

    def test_run_trial_of_an_estimating_strategy_copies_nothing(self, monkeypatch):
        # a unit of one: its one probing plan probes the sample it drew
        g = planted_partition_graph(6, 10, 0.5, 0.02, seed=8)
        copies = []
        copy = ObservedGraph.copy
        monkeypatch.setattr(ObservedGraph, "copy", lambda obs: copies.append(1) or copy(obs))
        for sampler in SAMPLER_NAMES:
            config = TrialConfig(sampler=sampler, strategy="maxoutprobe", edge_fraction=0.2,
                                 budget_fraction=0.1, n_repeats=1, estimation_probes=4)
            result = run_trial(g, config, sampler_seed=3, strategy_seed=5)
            assert result.estimate is not None and result.probes_spent == 6
        assert copies == []

    def test_every_plan_gets_the_sample_as_drawn_and_only_the_last_may_probe_it(
        self, monkeypatch
    ):
        g = planted_partition_graph(6, 10, 0.5, 0.02, seed=8)
        samples = []

        def text(obs):
            sink = io.StringIO()
            write_observed(obs, sink)
            return sink.getvalue()

        def recording_run_sampler(*args, **kwargs):
            sample, fractions = run_sampler(*args, **kwargs)
            samples.append((sample, text(sample), []))
            return sample, fractions

        count_trials = harness._count_trials

        def recording_count_trials(g, specs, obs, *args):
            before = text(obs)
            outcomes = count_trials(g, specs, obs, *args)
            samples[-1][2].append((specs[0].config, obs, before, text(obs)))
            return outcomes

        monkeypatch.setattr(harness, "run_sampler", recording_run_sampler)
        monkeypatch.setattr(harness, "_count_trials", recording_count_trials)
        # two budgets, so each sample has two probing plans: maxoutprobe
        # without a known sample, listed first in the grid
        grid = [TrialConfig(sampler=sampler, strategy=strategy, edge_fraction=0.2,
                            budget_fraction=budget, n_repeats=1, estimation_probes=4,
                            known_sample=known)
                for sampler in ("randnode", "randedge", "rw")
                for strategy in strategies.STRATEGIES
                for known in ((False, True) if sampler != "rw" and strategy == "maxoutprobe"
                              else (False,))
                for budget in (0.1, 0.2)]
        rows = sweep(g, grid, master_seed=2)
        assert all(r["nodes_after"] != "" for r in rows)
        assert len(samples) == 3
        for sample, drawn, plans in samples:
            probing = [harness._probes(config) for config, *_ in plans]
            # the probing plans run last, after every plan that reads the sample
            assert probing == sorted(probing) and sum(probing) == 2
            for k, (config, obs, before, after) in enumerate(plans):
                assert before == drawn
                if not probing[k]:
                    assert obs is sample and after == drawn
                elif k < len(plans) - 1:
                    assert obs is not sample and after != drawn
                else:
                    assert obs is sample
            assert text(sample) != drawn

    def test_parallel_matches_serial(self):
        g = planted_partition_graph(5, 8, 0.5, 0.02, seed=13)
        grid = self.small_grid(n_repeats=2)
        serial = sweep(g, grid, master_seed=6, jobs=1)
        parallel = sweep(g, grid, master_seed=6, jobs=2)
        assert serial == parallel

    def test_failed_baseline_blanks_its_rows_and_every_improvement(self, monkeypatch, caplog):
        g = planted_partition_graph(6, 10, 0.5, 0.02, seed=12)
        plan_session = harness._plan_session

        def plan_session_failing_random(g, obs, strategy, *args, **kwargs):
            if strategy == "random":
                raise SamplingError("random failed")
            return plan_session(g, obs, strategy, *args, **kwargs)

        monkeypatch.setattr(harness, "_plan_session", plan_session_failing_random)
        grid = self.small_grid(n_repeats=2)
        with caplog.at_level("WARNING", logger="netprobe.harness"):
            rows = sweep(g, grid, master_seed=5)
        baseline_rows = [r for r in rows if r["strategy"] == "random"]
        strategy_rows = [r for r in rows if r["strategy"] != "random"]
        assert len(baseline_rows) == 4 and len(strategy_rows) == 8
        measured = RESULT_COLUMNS[RESULT_COLUMNS.index("nodes_before"):]
        assert all(r[col] == "" for r in baseline_rows for col in measured)
        assert all(r["nodes_after"] != "" and r["probes_spent"] != "" for r in strategy_rows)
        assert all(r["improvement_vs_random"] == "" for r in strategy_rows)
        # one warning per failed trial: the baselines, in pair-key order
        assert [rec.getMessage() for rec in caplog.records] == [
            f"trial failed (randedge/random b={b} rep={rep}): random failed"
            for b, rep in sorted((b, rep) for b in (0.1, 0.2) for rep in range(2))
        ]
        # forked pool workers inherit the patched _plan_session
        assert sweep(g, grid, master_seed=5, jobs=2) == rows

    def test_serial_sweep_leaves_no_worker_graph(self, monkeypatch):
        monkeypatch.setattr(harness, "_WORKER_GRAPH", None)
        g = planted_partition_graph(5, 8, 0.5, 0.02, seed=13)
        assert sweep(g, self.small_grid(n_repeats=1), master_seed=6)
        assert harness._WORKER_GRAPH is None

    @pytest.mark.parametrize("n_repeats, pools", [(1, []), (2, [2])])
    def test_pool_has_no_more_workers_than_work_units(self, monkeypatch, n_repeats, pools):
        # a recording stand-in for the executor: it starts no process and
        # maps in this one, after running the initializer as a worker would
        built = []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                built.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness, "_WORKER_GRAPH", None)
        g = planted_partition_graph(5, 8, 0.5, 0.02, seed=13)
        # one work unit per repeat: the grid has one sampler and edge fraction
        grid = self.small_grid(n_repeats=n_repeats)
        rows = sweep(g, grid, master_seed=6, jobs=8)
        assert built == pools
        assert rows == sweep(g, grid, master_seed=6, jobs=1)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected_before_any_trial(self, monkeypatch, jobs):
        calls = []
        monkeypatch.setattr(harness, "run_sampler", lambda *args, **kw: calls.append(args))
        g = random_graph(40, 0.2, seed=14)
        with pytest.raises(ConfigError, match="jobs"):
            sweep(g, self.small_grid(n_repeats=1), master_seed=1, jobs=jobs)
        assert calls == []

    def test_known_sample_with_walk_sampler_rejected_before_any_trial(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run_sampler", lambda *args, **kw: calls.append(args))
        g = random_graph(20, 0.3, seed=14)
        grid = [
            TrialConfig(sampler=sampler, strategy="highdeg", budget_fraction=0.2,
                        n_repeats=1, known_sample=True)
            for sampler in ("randedge", "rw")
        ]
        with pytest.raises(ConfigError, match="known-sample"):
            sweep(g, grid, master_seed=1)
        assert calls == []

    @pytest.mark.parametrize("field, value", [
        ("budget_fraction", 7.0),
        ("budget_fraction", 0.001),
        ("edge_fraction", 0.0),
        ("edge_fraction", 1.5),
        ("jump_prob", 1.5),
        ("n_repeats", 0),
        ("estimation_probes", 0),
        ("estimation_probes", -5),
    ])
    def test_out_of_range_grid_value_rejected_before_any_trial(
        self, monkeypatch, field, value
    ):
        calls = []
        monkeypatch.setattr(harness, "run_sampler", lambda *args, **kw: calls.append(args))
        g = random_graph(20, 0.3, seed=14)
        good = TrialConfig(sampler="rwj", strategy="highdeg", budget_fraction=0.2,
                           n_repeats=1)
        with pytest.raises(ConfigError):
            sweep(g, [good, replace(good, **{field: value})], master_seed=1)
        assert calls == []

    @pytest.mark.parametrize("sampler", ["randedge", "rw", "rwj"])
    def test_edge_fraction_selecting_no_edge_rejected_before_any_trial(
        self, monkeypatch, sampler
    ):
        g = random_graph(60, 0.1, seed=1)
        config = TrialConfig(sampler="randnode", strategy="highdeg", edge_fraction=0.001,
                             budget_fraction=0.1, n_repeats=1)
        # randnode explores at least one node, whatever the fraction
        assert all(r["nodes_after"] != "" for r in sweep(g, [config], master_seed=1))
        calls = []
        monkeypatch.setattr(harness, "run_sampler", lambda *args, **kw: calls.append(args))
        with pytest.raises(ConfigError, match="selects zero"):
            sweep(g, [replace(config, sampler=sampler)], master_seed=1)
        assert calls == []

    @pytest.mark.parametrize("field, value", [
        (None, None),
        ("n_repeats", 2),
    ])
    def test_repeated_config_rejected_before_any_trial(self, monkeypatch, field, value):
        calls = []
        monkeypatch.setattr(harness, "run_sampler", lambda *args, **kw: calls.append(args))
        g = random_graph(40, 0.2, seed=14)
        config = TrialConfig(sampler="rw", strategy="highdeg", budget_fraction=0.1,
                             n_repeats=1)
        other = config if field is None else replace(config, **{field: value})
        with pytest.raises(ConfigError, match="rw/highdeg at budget fraction 0.1 more than once"):
            sweep(g, [config, replace(config, budget_fraction=0.2), other], master_seed=1)
        assert calls == []

    def test_empty_grid_rejected(self):
        g = random_graph(20, 0.3, seed=14)
        with pytest.raises(ConfigError):
            sweep(g, [], master_seed=1)


@pytest.fixture()
def collector_restored():
    """Turn the collector back on after the test, whatever the test did."""
    yield
    gc.enable()


@pytest.mark.usefixtures("collector_restored")
class TestCollectorPause:
    def grid(self, strategies_=("highdeg", "random"), samplers=("randedge",)):
        return [
            TrialConfig(sampler=sampler, strategy=strategy, edge_fraction=0.2,
                        budget_fraction=0.1, n_repeats=2, estimation_probes=4)
            for sampler in samplers
            for strategy in strategies_
        ]

    def test_trials_run_paused_and_the_collector_is_back_on_after(self, monkeypatch):
        g = planted_partition_graph(6, 10, 0.5, 0.02, seed=8)
        states = []
        plan_session = harness._plan_session

        def recording_plan_session(g, obs, strategy, *args, **kwargs):
            states.append(gc.isenabled())
            if strategy == "random":
                raise SamplingError("random failed")
            return plan_session(g, obs, strategy, *args, **kwargs)

        monkeypatch.setattr(harness, "_plan_session", recording_plan_session)
        rows = sweep(g, self.grid(), master_seed=1)
        assert states == [False] * 4
        assert [r["nodes_after"] == "" for r in rows] == [False] * 2 + [True] * 2
        assert gc.isenabled()

    def test_the_pause_ends_after_the_unit_has_dropped_its_sample(self, monkeypatch):
        # else the collector's first pass after a unit would walk the sample
        g = planted_partition_graph(6, 10, 0.5, 0.02, seed=8)
        observed_at_enable = []
        enable = gc.enable

        def recording_enable():
            observed_at_enable.append(
                sum(isinstance(o, ObservedGraph) and o.graph is g for o in gc.get_objects())
            )
            enable()

        monkeypatch.setattr(gc, "enable", recording_enable)
        sweep(g, self.grid(), master_seed=1)
        assert observed_at_enable == [0, 0]

    def test_a_unit_that_raises_turns_the_collector_back_on(self, monkeypatch):
        g = planted_partition_graph(6, 10, 0.5, 0.02, seed=8)

        def broken_count_trials(*args):
            raise TypeError("injected bug")

        monkeypatch.setattr(harness, "_count_trials", broken_count_trials)
        spec = harness._TrialSpec.derive(1, self.grid()[0], 0)
        with pytest.raises(TypeError, match="injected bug"):
            harness._run_unit(g, [spec])
        assert gc.isenabled()

    def test_a_caller_that_turned_the_collector_off_finds_it_off(self):
        g = planted_partition_graph(6, 10, 0.5, 0.02, seed=8)
        gc.disable()
        assert sweep(g, self.grid(), master_seed=1)
        assert not gc.isenabled()

    def test_nested_pauses_end_with_the_outermost(self):
        with harness._collector_paused():
            with harness._collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_a_worker_starts_with_the_collector_on(self, monkeypatch):
        # a worker forked from a paused process inherits the pause
        monkeypatch.setattr(harness, "_WORKER_GRAPH", None)
        g = planted_partition_graph(5, 8, 0.5, 0.02, seed=13)
        gc.disable()
        harness._init_worker(g)
        assert gc.isenabled()
        assert harness._WORKER_GRAPH is g

    @pytest.mark.parametrize("failing", [None, "scorer", "scorer, chained", "sampler"])
    def test_a_sweep_leaves_no_cyclic_garbage(self, monkeypatch, caplog, failing):
        # the premise of the pause: what a trial drops, reference counting
        # frees, also when a trial fails; the collector stays off from the
        # first count to the second, so no pass of its own can hide a cycle,
        # and no warning is recorded, so no kept record keeps an error alive
        caplog.set_level(logging.ERROR, logger="netprobe.harness")

        def failing_scorer(obs, seed, est, b):
            if failing == "scorer":
                raise NetProbeError("injected scorer failure")
            try:
                {}[obs.origin]
            except KeyError:
                raise NetProbeError("injected scorer failure") from None

        def failing_sampler(g, sampler, *args, **kwargs):
            if sampler == "rw":
                raise SamplingError("injected sampler failure")
            return run_sampler(g, sampler, *args, **kwargs)

        if failing == "sampler":
            monkeypatch.setattr(harness, "run_sampler", failing_sampler)
        elif failing is not None:
            monkeypatch.setitem(strategies.STRATEGIES, "highcc", failing_scorer)
        g = planted_partition_graph(6, 10, 0.5, 0.02, seed=8)
        grid = self.grid(tuple(strategies.STRATEGIES), SAMPLER_NAMES)
        gc.disable()
        gc.collect()
        rows = sweep(g, grid, master_seed=3)
        assert gc.collect() == 0
        failed = {(r["sampler"], r["strategy"]) for r in rows if r["nodes_after"] == ""}
        expected = {None: set(), "sampler": {("rw", name) for name in strategies.STRATEGIES}}
        assert failed == expected.get(failing, {(name, "highcc") for name in SAMPLER_NAMES})


class TestCurveExport:
    def test_curves_and_summary_rows(self):
        g = planted_partition_graph(6, 10, 0.5, 0.02, seed=15)
        grid = [
            TrialConfig(sampler="randedge", strategy=s, edge_fraction=0.2,
                        budget_fraction=0.2, n_repeats=4, estimation_probes=4)
            for s in ("maxoutprobe", "highdeg")
        ]
        rows = sweep(g, grid, master_seed=7)
        curves = improvement_curves(rows)
        assert set(curves) == {"maxoutprobe", "highdeg"}
        buf = io.StringIO()
        write_curves_csv(curves, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "strategy,x,y"
        auc_lines = [ln for ln in lines if ",auc," in ln]
        assert len(auc_lines) == 2


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, "sampler", "randedge", 0) == derive_seed(1, "sampler", "randedge", 0)
    assert derive_seed(1, "sampler", "randedge", 0) != derive_seed(1, "sampler", "randedge", 1)
    assert derive_seed(1, "sampler", "x", 0) != derive_seed(2, "sampler", "x", 0)
