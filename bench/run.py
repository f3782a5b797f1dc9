#!/usr/bin/env python3
"""Benchmark of netprobe: the paper's sweep, CLI probe sessions and the
baseline scorers.

One run of one workload:

    python3 bench/run.py --workload sweep-paper --seed 1 --seconds 15 --trace 0

repeats the workload's round of operations until --seconds have passed,
checks every output, and prints as its last line one JSON object with the
keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics; --trace 1 wraps netprobe's layers and reports the
per-layer metrics instead.

Steadiness mode runs two sets of ten runs of every workload in
BENCHMARK.json for its run_seconds, alternating the workloads, and says
whether the two sets agree within BENCHMARK.json's bounds:

    python3 bench/run.py --steadiness

Times other than setup_s are in ref: an operation's seconds divided by the
mean time of a fixed reference loop run just before and just after it on the
same core (see README.md).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 3
STEADINESS_RUNS = 10
# setup_s is given in seconds at a nominal host speed: its cost in ref
# times the seconds one ref takes on a host where the loop runs in 10 ms.
REF_SECONDS = 0.010


@dataclass(frozen=True)
class _Score:
    node: str
    score: float


class _View:
    def __init__(self, adj: dict, status: dict):
        self._adj = adj
        self._status = status

    def is_candidate(self, u: str) -> bool:
        return self._status.get(u) == "C"


def _make_ref_loop():
    """A fixed reference loop of about 10 ms that does netprobe's kind of
    work in plain Python: two-hop set unions over a seeded random graph of
    2000 string-labelled nodes with a method call per partner, frozen
    dataclasses, a keyed sort, and parsing and formatting text.  It uses
    nothing from netprobe.  This varied loop follows the host's speed
    changes more closely than a tight loop of set unions alone."""
    rng = random.Random(0)
    labels = [f"n{i:05d}" for i in range(2000)]
    adj = {u: set() for u in labels}
    for _ in range(10000):
        a, b = rng.choice(labels), rng.choice(labels)
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    view = _View(adj, {u: "E" if rng.random() < 0.2 else "C" for u in labels})
    order = [rng.choice(labels) for _ in range(280)]
    text = "".join(f"{u} {v}\n" for u in order for v in sorted(adj[u])[:3])

    def ref_loop() -> float:
        t0 = perf_counter()
        scores = []
        for u in order:
            direct = adj[u]
            partners = set()
            for v in direct:
                partners.update(adj[v])
            partners.discard(u)
            partners -= direct
            wedges = sum(1 for w in partners if view.is_candidate(w))
            scores.append(_Score(u, max(0.0, len(direct) - 0.3 * wedges)))
        ranked = sorted(scores, key=lambda s: (-s.score, s.node))[:50]
        parsed: dict[str, list[str]] = {}
        for line in text.splitlines():
            a, b = line.split()
            parsed.setdefault(a, []).append(b)
        out = "".join(f"{s.node},{s.score:.3f},{len(parsed.get(s.node, ()))}\n" for s in ranked)
        t1 = perf_counter()
        if not out:
            raise AssertionError("reference loop did no work")
        return t1 - t0

    return ref_loop


ref_loop = _make_ref_loop()


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _import_program() -> tuple[float, float, dict]:
    """Import netprobe from this checkout's src/ and time the import."""
    if not (SRC / "netprobe" / "__init__.py").is_file():
        raise SystemExit(f"error: no netprobe sources under {SRC}")
    sys.path.insert(0, str(SRC))
    for _ in range(3):
        ref_loop()
    ref_before = ref_loop()
    t0 = perf_counter()
    importlib.import_module("netprobe.cli")
    import_s = perf_counter() - t0
    import_ref = import_s / ((ref_before + ref_loop()) / 2)
    import netprobe

    if Path(netprobe.__file__).resolve().parent != SRC / "netprobe":
        raise SystemExit(f"error: imported netprobe from {netprobe.__file__}, not {SRC}")
    sys.path.insert(0, str(HERE))
    modules = {
        name: importlib.import_module(name)
        for name in ("netprobe.harness", "netprobe.cli", "netprobe.estimators", "netprobe.strategies", "workloads")
    }
    return import_s, import_ref, modules


def run_workload(args) -> int:
    import_s, import_ref, modules = _import_program()
    workloads = modules["workloads"]
    import checks
    import tracing

    workdir = OUT / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = workloads.make(args.workload, workdir, args.seed)
    wl.make_inputs()

    # Each set-up step is timed between two runs of the reference loop,
    # like an operation, and a set-up's cost is the sum over its steps.
    setup_times = []
    setup_refs = []
    ref_before = ref_loop()
    for _ in range(SETUP_REPEATS):
        seconds = cost = 0.0
        for step in wl.setup_steps():
            t0 = perf_counter()
            step()
            step_s = perf_counter() - t0
            ref_after = ref_loop()
            seconds += step_s
            cost += step_s / ((ref_before + ref_after) / 2)
            ref_before = ref_after
        setup_times.append(seconds)
        setup_refs.append(cost)
    setup_s = (import_ref + statistics.median(setup_refs)) * REF_SECONDS

    ops = wl.round()
    for _ in range(5):
        ref_loop()

    tracer = None
    records = []  # (index in round, round, op seconds, ref seconds)
    first_outs = []
    first_digests = []
    attempted = failed = mismatched = 0
    trials = 0
    errors: list[str] = []
    start = perf_counter()
    ref_before = ref_loop()
    round_no = 0
    while True:
        if args.trace and round_no == 1:
            tracer = tracing.Tracer(modules)
            tracer.install()
        for k, op in enumerate(ops):
            if tracer is not None:
                tracer.op = len(records)
            out = None
            t0 = perf_counter()
            try:
                out = wl.run(op)
            except Exception:
                traceback.print_exc()
            t1 = perf_counter()
            ref_after = ref_loop()
            records.append((k, round_no, t1 - t0, (ref_before + ref_after) / 2))
            ref_before = ref_after
            attempted += 1
            ok = out is not None and not wl.failed(out)
            failed += not ok
            digest = wl.digest(out) if ok else None
            if ok:
                trials += wl.trials(out)
            if round_no == 0:
                first_outs.append(out if ok else None)
                first_digests.append(digest)
            elif digest != first_digests[k]:
                mismatched += 1
        round_no += 1
        if perf_counter() - start >= args.seconds and (not args.trace or round_no >= 2):
            break
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Checks run after the peak RSS is read, so the checker's memory and
    # imports do not count.
    if mismatched:
        errors.append(f"{mismatched} operations gave other outputs than in the first round")
    good = [out for out in first_outs if out is not None]
    adj = checks.read_edge_list(wl.graph_path)
    errors += wl.check(good, adj)
    replay_index = args.seed % len(ops)
    if hasattr(wl, "replay") and first_outs[replay_index] is not None:
        errors += wl.replay(replay_index, first_outs[replay_index][0], adj)
    gained, probes = wl.gain(good)

    op_ref = [op_s / ref_s for _, _, op_s, ref_s in records]
    untraced = [i for i, r in enumerate(records) if not (args.trace and r[1] >= 1)]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": round_no,
        "ops_per_round": len(ops),
        "digest": hashlib.sha256("".join(d or "-" for d in first_digests).encode()).hexdigest(),
        "ref_s": statistics.median(r[3] for r in records),
        "op_p50_s": statistics.median(records[i][2] for i in untraced),
        "setup_repeats_s": setup_times,
        "import_s": import_s,
        "setup_refs": setup_refs,
        "import_ref": import_ref,
    }
    if not args.trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "trials_per_ref": (trials / sum(op_ref[i] for i in untraced), "1/ref"),
            "op_p50_ref": (statistics.median(op_ref[i] for i in untraced), "ref"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "new_nodes_per_probe": (gained / probes if probes else 0.0, "nodes/probe"),
        }
    else:
        per_ref = [r[3] for r in records]
        metrics = tracer.layer_metrics(per_ref, len(records) - len(untraced))
        metrics.update(_extra_layer_metrics(wl, good, adj, records))
        spans_path = OUT / f"{args.workload}.spans.jsonl"
        tracer.write_jsonl(spans_path)
        info["spans"] = str(spans_path.relative_to(ROOT))
        info["spans_count"] = len(tracer.start)
    shutil.rmtree(workdir, ignore_errors=True)

    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    print("info " + json.dumps(info))
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _extra_layer_metrics(wl, outs, adj, records) -> dict:
    """Per-layer numbers taken apart from the timed operations: estimate
    errors against the truth, walk steps per edge, and tracing overhead."""
    sampling = importlib.import_module("netprobe.sampling")
    cases = wl.truth_errors(outs, adj)
    metrics = {
        "estimators.m_hat_rel_err": (
            statistics.fmean(abs(m - mt) / mt for m, mt, _, _ in cases) if cases else 0.0,
            "ratio",
        ),
        "estimators.c_hat_abs_err": (
            statistics.fmean(abs(c - ct) for _, _, c, ct in cases) if cases else 0.0,
            "ratio",
        ),
    }
    steps = edges = 0
    for sampler, seed in wl.walk_calls(outs):
        stats: dict = {}
        jump = 0.0 if sampler == "rw" else sampling.DEFAULT_JUMP_PROB
        obs, _ = sampling.sample_random_walk(wl.g, 0.10, jump, seed, stats=stats)
        steps += stats["steps"]
        edges += obs.n_edges
    metrics["sampling.rw_steps_per_edge"] = (steps / edges if edges else 0.0, "steps/edge")

    # Tracing overhead: each operation's traced cost in ref against its
    # untraced cost in the first round, as a median over the round.
    untraced = {k: op_s / ref_s for k, r, op_s, ref_s in records if r == 0}
    traced: dict[int, list[float]] = {}
    for k, r, op_s, ref_s in records:
        if r >= 1:
            traced.setdefault(k, []).append(op_s / ref_s)
    ratios = [statistics.median(v) / untraced[k] - 1.0 for k, v in traced.items()]
    metrics["trace.overhead_pct"] = (100.0 * statistics.median(ratios), "%")
    return metrics


def steadiness() -> int:
    """Two sets of runs, workloads alternating; medians, quartiles and
    whether the two sets agree within each metric's bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = list(range(1, STEADINESS_RUNS + 1))
    results: dict[tuple[int, str], list[dict]] = {}
    ok = True
    for set_no in (1, 2):
        for seed in seeds:
            for name in workloads:
                cmd = [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", "0",
                ]
                t0 = perf_counter()
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
                wall = perf_counter() - t0
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"set {set_no} {name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                    return 1
                result = json.loads(lines[-1])
                info = json.loads(lines[-2][len("info "):])
                results.setdefault((set_no, name), []).append(result)
                values = " ".join(
                    f"{m}={v['value']:.5g}" for m, v in result["metrics"].items()
                )
                print(
                    f"set {set_no} {name:13s} seed {seed:3d} wall {wall:5.1f}s "
                    f"ref_s {info['ref_s']:.5f} op_p50_s {info['op_p50_s']:.4f} "
                    f"ops {result['attempted']} failed {result['failed']} "
                    f"correct {result['correct']} {values}",
                    flush=True,
                )
                ok &= result["correct"]
    print()
    print(f"{'workload':13s} {'metric':20s} {'set':>3s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'spread':>7s} {'bound':>6s}  verdict")
    for name in workloads:
        for metric in spec["end_to_end"]:
            m = metric["name"]
            bound = metric["bound"]
            medians = []
            for set_no in (1, 2):
                values = [r["metrics"][m]["value"] for r in results[(set_no, name)]]
                q1, med, q3 = _quartiles(values)
                spread = (q3 - q1) / med if med else 0.0
                medians.append(med)
                steady = spread <= bound / 3
                ok &= spread <= bound
                print(
                    f"{name:13s} {m:20s} {set_no:3d} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                    f"{spread:7.2%} {bound:6.0%}  {'steady' if steady else 'SPREAD'}"
                )
            worse = medians[1] - medians[0] if metric["better"] == "lower" else medians[0] - medians[1]
            drift = worse / medians[0] if medians[0] else 0.0
            agree = abs(drift) <= bound
            ok &= agree
            print(f"{name:13s} {m:20s} second set worse by {drift:+.2%}: {'agree' if agree else 'DISAGREE'}")
        # new_nodes_per_probe is deterministic for a seed, so each seed must
        # give the same value in both sets.
        nnp = [
            [r["metrics"]["new_nodes_per_probe"]["value"] for r in results[(set_no, name)]]
            for set_no in (1, 2)
        ]
        repeats = nnp[0] == nnp[1]
        ok &= repeats
        print(f"{name:13s} new_nodes_per_probe per seed: {'repeats' if repeats else 'DIFFERS'}")
        shares = {
            set_no: sorted({r["failed"] / r["attempted"] for r in results[(set_no, name)]})
            for set_no in (1, 2)
        }
        same = shares[1] == shares[2] and len(shares[1]) == 1
        ok &= same
        print(f"{name:13s} failed share {shares[1]} vs {shares[2]}: {'same' if same else 'DIFFERENT'}")
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="sweep-paper, probe-session or scorer-mix")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--seconds", type=float, default=None, help="how long a run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true", help="run two sets of runs and compare them")
    args = parser.parse_args(argv)
    if args.steadiness:
        if args.workload is not None or args.seconds is not None:
            parser.error("--steadiness runs every workload for BENCHMARK.json's run_seconds")
        return steadiness()
    if args.workload is None or args.seconds is None:
        parser.error("--workload and --seconds are required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
