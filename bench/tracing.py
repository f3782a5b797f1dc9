"""Spans around netprobe's layers, recorded from outside the program.

A :class:`Tracer` replaces a public function at the module attribute its
caller looks up (``netprobe.harness.run_sampler``, ``netprobe.cli.probe``
and so on) with a wrapper that records one span a call: name, start, end,
parent span and operation id.  Spans stay in memory, in flat arrays, until
the run ends.  Wrappers exist only while a traced run has them installed.
"""

from __future__ import annotations

import json
import statistics
from array import array
from time import perf_counter

# (module, attribute, span name).  A name ending in ".*" is completed by the
# sampler argument of run_sampler.
TARGETS = (
    ("netprobe.harness", "sweep", "harness.sweep"),
    ("workloads", "aggregate", "harness.aggregate"),
    ("netprobe.cli", "main", "cli.session"),
    ("netprobe.cli", "load_edge_list", "graphs.load_edge_list"),
    ("netprobe.cli", "read_observed", "graphs.read_observed"),
    ("netprobe.cli", "write_observed", "graphs.write_observed"),
    ("netprobe.estimators", "global_clustering", "graphs.global_clustering"),
    ("netprobe.strategies", "two_hop_open_wedges", "graphs.two_hop_open_wedges"),
    ("netprobe.estimators", "two_hop_open_wedges", "graphs.two_hop_open_wedges"),
    ("netprobe.harness", "run_sampler", "sampling.*"),
    ("netprobe.strategies", "probe_based_estimates", "estimators.probe_based"),
    ("netprobe.strategies", "known_node_sample_estimates", "estimators.known_sample"),
    ("netprobe.strategies", "known_edge_sample_estimates", "estimators.known_sample"),
    ("netprobe.strategies", "score_max_out_probe", "strategies.score_maxoutprobe"),
    ("netprobe.strategies", "score_degree", "strategies.score_degree"),
    ("netprobe.strategies", "score_dispersion", "strategies.score_dispersion"),
    ("netprobe.strategies", "score_clustering", "strategies.score_clustering"),
    ("netprobe.strategies", "score_cross_comm", "strategies.score_cross_comm"),
    ("netprobe.strategies", "select_top_b", "strategies.select"),
    ("netprobe.strategies", "select_random", "strategies.select"),
    ("netprobe.strategies", "detect_communities", "communities.detect"),
    ("netprobe.harness", "probe", "probing.probe"),
    ("netprobe.cli", "probe", "probing.probe"),
    ("netprobe.estimators", "probe", "probing.probe"),
)

# Layers reported as the median inclusive time of a call, in ref.
INCLUSIVE_LAYERS = (
    "graphs.load_edge_list",
    "graphs.read_observed",
    "graphs.write_observed",
    "graphs.global_clustering",
    "graphs.two_hop_open_wedges",
    "sampling.randnode",
    "sampling.randedge",
    "sampling.rw",
    "sampling.rwj",
    "estimators.probe_based",
    "estimators.known_sample",
    "strategies.score_maxoutprobe",
    "strategies.score_degree",
    "strategies.score_dispersion",
    "strategies.score_clustering",
    "strategies.score_cross_comm",
    "strategies.select",
    "communities.detect",
    "probing.probe",
    "harness.aggregate",
)
# Layers reported as the median self time of a call: the span minus the
# spans of the layers it calls.
SELF_LAYERS = {"harness.sweep": "harness.sweep_self", "cli.session": "cli.session_self"}


class Tracer:
    def __init__(self, modules: dict):
        self._modules = modules
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.op = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("l")
        self.op_of = array("l")
        self.start = array("d")
        self.end = array("d")
        # counts taken at the layer boundaries
        self.sampler_calls: dict[int, list[tuple]] = {}
        self.candidates_scored = 0
        self.scoring_calls = 0
        self.phase_nodes: dict[str, int] = {}
        self.phase_probes: dict[str, int] = {}

    def _name_id(self, name: str) -> int:
        ix = self._name_ids.get(name)
        if ix is None:
            ix = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ix

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            module = self._modules[module_name]
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        tracer = self
        fixed_id = None if name.endswith(".*") else self._name_id(name)
        prefix = name[:-1]
        observe = _OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            name_id = fixed_id
            if name_id is None:
                name_id = tracer._name_id(prefix + args[1])
            sid = len(tracer.start)
            tracer.name_of.append(name_id)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.op_of.append(tracer.op)
            tracer.end.append(0.0)
            tracer._stack.append(sid)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[sid] = perf_counter()
                tracer._stack.pop()
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def self_times(self) -> list[float]:
        times = [e - s for s, e in zip(self.start, self.end)]
        own = list(times)
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= times[sid]
        return own

    def layer_metrics(self, op_ref: list[float], traced_ops: int) -> dict[str, tuple[float, str]]:
        """Median cost per call in ref (a span's seconds over its
        operation's reference time) and calls per traced operation of
        every layer."""
        own = self.self_times()
        per_layer: dict[str, list[float]] = {}
        for sid, name_id in enumerate(self.name_of):
            name = self.names[name_id]
            ref = op_ref[self.op_of[sid]]
            if name in SELF_LAYERS:
                per_layer.setdefault(SELF_LAYERS[name], []).append(own[sid] / ref)
            else:
                per_layer.setdefault(name, []).append((self.end[sid] - self.start[sid]) / ref)
        metrics = {}
        for name in (*INCLUSIVE_LAYERS, *SELF_LAYERS.values()):
            values = per_layer.get(name, [])
            metrics[f"{name}_ref"] = (statistics.median(values) if values else 0.0, "ref")
            metrics[f"{name}_calls"] = (len(values) / traced_ops, "calls/op")
        calls = sum(len(c) for c in self.sampler_calls.values())
        distinct = sum(len(set(c)) for c in self.sampler_calls.values())
        metrics["sampling.calls_per_distinct_sample"] = (
            calls / distinct if distinct else 0.0,
            "ratio",
        )
        metrics["strategies.candidates_scored"] = (
            self.candidates_scored / self.scoring_calls if self.scoring_calls else 0.0,
            "candidates/call",
        )
        for phase in ("estimation", "selection"):
            probes = self.phase_probes.get(phase, 0)
            metrics[f"probing.{phase}_new_nodes_per_probe"] = (
                self.phase_nodes.get(phase, 0) / probes if probes else 0.0,
                "nodes/probe",
            )
        return metrics

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid in range(len(self.start)):
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": self.names[self.name_of[sid]],
                            "start": self.start[sid],
                            "end": self.end[sid],
                            "parent": self.parent[sid],
                            "op": self.op_of[sid],
                        }
                    )
                    + "\n"
                )


def _observe_sampler(tracer: Tracer, args, kwargs, result) -> None:
    """Sampler calls per operation, to count the distinct samples drawn."""
    _, sampler, edge_fraction, seed = args[:4]
    call = (sampler, edge_fraction, seed, kwargs.get("jump_prob"))
    tracer.sampler_calls.setdefault(tracer.op, []).append(call)


def _observe_scores(tracer: Tracer, args, kwargs, result) -> None:
    tracer.scoring_calls += 1
    tracer.candidates_scored += len(result)


def _observe_probe(tracer: Tracer, args, kwargs, result) -> None:
    entry = args[2].log[-1]
    tracer.phase_nodes[entry.phase] = tracer.phase_nodes.get(entry.phase, 0) + entry.new_nodes
    tracer.phase_probes[entry.phase] = tracer.phase_probes.get(entry.phase, 0) + 1


_OBSERVERS = {
    "sampling.*": _observe_sampler,
    "strategies.score_maxoutprobe": _observe_scores,
    "strategies.score_degree": _observe_scores,
    "strategies.score_dispersion": _observe_scores,
    "strategies.score_clustering": _observe_scores,
    "strategies.score_cross_comm": _observe_scores,
    "probing.probe": _observe_probe,
}
