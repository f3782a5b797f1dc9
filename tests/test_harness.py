"""Trial execution, pairing, CCDF/AUC aggregation, and sweep plumbing."""

import io
import random
from dataclasses import replace

import pytest

from netprobe import harness
from netprobe.errors import ConfigError, SamplingError
from netprobe.generators import planted_partition_graph, random_graph
from netprobe.harness import (
    AggregateCurve,
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
from netprobe.sampling import run_sampler

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
        points = dict(curve.points)
        assert points[2.0] == pytest.approx(2 / 3)
        assert points[1.0] == 1.0
        assert points[3.0] == pytest.approx(1 / 3)

    def test_all_equal_single_point(self):
        curve = ccdf([5.0, 5.0, 5.0])
        assert curve.points == ((5.0, 1.0),)
        assert curve.auc == 0.0

    def test_matches_brute_force_counting(self):
        rng = random.Random(13)
        for _ in range(10):
            values = [rng.uniform(-50, 50) for _ in range(40)]
            curve = ccdf(values)
            for x, y in curve.points:
                assert y == pytest.approx(brute_ccdf_value(values, x))
            ys = [y for _, y in curve.points]
            assert ys == sorted(ys, reverse=True)
            assert all(0 < y <= 1 for y in ys)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            ccdf([])


class TestAuc:
    def test_constant_one(self):
        curve = AggregateCurve(points=((0.0, 1.0), (10.0, 1.0)))
        assert auc(curve) == pytest.approx(10.0)

    def test_constant_half(self):
        curve = AggregateCurve(points=((0.0, 0.5), (10.0, 0.5)))
        assert auc(curve) == pytest.approx(5.0)

    def test_uniform_descent_closed_form(self):
        curve = AggregateCurve(
            points=((0.0, 1.0), (1.0, 0.75), (2.0, 0.5), (3.0, 0.25), (4.0, 0.0))
        )
        # trapezoid of a uniform descent: mean height 0.5 over width 4
        assert auc(curve) == pytest.approx(2.0)

    def test_single_point_is_zero(self):
        assert auc(AggregateCurve(points=((3.0, 1.0),))) == 0.0

    def test_restricted_range(self):
        curve = AggregateCurve(points=((0.0, 1.0), (10.0, 1.0)))
        assert auc(curve, 2.0, 7.0) == pytest.approx(5.0)

    def test_common_range(self):
        curves = {
            "a": AggregateCurve(points=((0.0, 1.0), (10.0, 1.0))),
            "b": AggregateCurve(points=((5.0, 1.0), (20.0, 1.0))),
        }
        areas = common_range_aucs(curves)
        assert areas["a"] == pytest.approx(5.0)
        assert areas["b"] == pytest.approx(5.0)


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

    def test_parallel_matches_serial(self):
        g = planted_partition_graph(5, 8, 0.5, 0.02, seed=13)
        grid = self.small_grid(n_repeats=2)
        serial = sweep(g, grid, master_seed=6, jobs=1)
        parallel = sweep(g, grid, master_seed=6, jobs=2)
        assert serial == parallel

    def test_known_sample_with_walk_sampler_rejected_before_any_trial(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run_trial", lambda *args: calls.append(args))
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
    ])
    def test_out_of_range_grid_value_rejected_before_any_trial(
        self, monkeypatch, field, value
    ):
        calls = []
        monkeypatch.setattr(harness, "run_trial", lambda *args: calls.append(args))
        g = random_graph(20, 0.3, seed=14)
        good = TrialConfig(sampler="rwj", strategy="highdeg", budget_fraction=0.2,
                           n_repeats=1)
        with pytest.raises(ConfigError):
            sweep(g, [good, replace(good, **{field: value})], master_seed=1)
        assert calls == []

    def test_empty_grid_rejected(self):
        g = random_graph(20, 0.3, seed=14)
        with pytest.raises(ConfigError):
            sweep(g, [], master_seed=1)


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
