"""Golden digests: sha256 of the reproducible outputs of a small seeded
sweep and of CLI probe and estimate sessions.

The digests pin the exact bytes these runs write, so a refactor that
changes a seed, a tie-break, a probe order or an estimate cannot drift
unnoticed.  When an intended change alters an output, recompute the digest
and say why in the change log.
"""

import hashlib
import io

from netprobe.cli import main
from netprobe.generators import planted_partition_graph
from netprobe.harness import (
    TrialConfig,
    improvement_curves,
    sweep,
    write_curves_csv,
    write_results_csv,
)

SAMPLERS = ("randnode", "randedge", "rw", "rwj")
STRATEGIES = (
    "maxoutprobe",
    "highdeg",
    "lowdeg",
    "highdisp",
    "lowdisp",
    "crosscomm",
    "highcc",
    "lowcc",
    "random",
)
# 0.02 of 60 nodes is a budget of 1, too small for any estimation probe
BUDGETS = (0.02, 0.1, 0.2)

SWEEP_DIGESTS = {
    "results": "099b489bdbe2ee5b3eed6439568e6b8bdd0c3e8a2dc6a821eec814bf450a2ee2",
    "curves": "fe2ab420bcb51fae7800874b07093139d428033a34159fb0912d4f3f638ee099",
}

SESSION_DIGESTS = {
    "probe-based": "f470b8ad17936a20604ed286bee2c03ed3d4aa81a199e40e02bb5ad1f97d7faa",
    "probe-uncharged": "42856fabb6f4ab02b7abc6cc4bd5f169a7347484c47f685f4302233850a839db",
    "probe-known-randnode": "a1fafa756e1fe0ca9d06fda42bb34e431638228b1df77f0be7f368e741482f40",
    "probe-known-randedge": "9f3050954fe425bb87f0324545d462f6fad95291f577c46944c19b5ab7782022",
    "estimate-probe-based": "c7c9f0a110a19faf3d6871708d779fb99dbd5a97d2ef6dce62b7534f844111c8",
    "estimate-known-randedge": "b74e4a591df13c482c404c1bcecce79206c3037f124857e1dcf3848ec904b9a0",
}


def _sha(*outputs: bytes) -> str:
    h = hashlib.sha256()
    for output in outputs:
        h.update(output)
        h.update(b"\0")
    return h.hexdigest()


def _graph():
    return planted_partition_graph(6, 10, 0.5, 0.02, seed=1)


def _grid() -> list[TrialConfig]:
    grid = [
        TrialConfig(
            sampler=sampler,
            strategy=strategy,
            edge_fraction=0.2,
            budget_fraction=budget,
            n_repeats=2,
            estimation_probes=3,
        )
        for sampler in SAMPLERS
        for strategy in STRATEGIES
        for budget in BUDGETS
    ]
    grid += [
        TrialConfig(
            sampler=sampler,
            strategy=strategy,
            edge_fraction=0.2,
            budget_fraction=budget,
            n_repeats=2,
            known_sample=True,
        )
        for sampler in ("randnode", "randedge")
        for strategy in ("maxoutprobe", "highdeg")
        for budget in BUDGETS
    ]
    return grid


def sweep_outputs() -> dict[str, str]:
    rows = sweep(_graph(), _grid(), master_seed=11)
    results, curves = io.StringIO(), io.StringIO()
    write_results_csv(rows, results)
    write_curves_csv(improvement_curves(rows), curves)
    return {"results": results.getvalue(), "curves": curves.getvalue()}


def _run(*argv) -> None:
    code = main([str(a) for a in argv])
    assert code == 0, argv


def session_outputs(tmp_path) -> dict[str, tuple[bytes, ...]]:
    """Each session's output files, as the bytes written: a change of line
    endings or encoding changes a digest."""
    graph = tmp_path / "graph.edges"
    with open(graph, "w") as fh:
        for u, v in _graph().edges():
            fh.write(f"{u} {v}\n")
    samples = {}
    for sampler in ("randnode", "randedge", "rw"):
        samples[sampler] = tmp_path / f"{sampler}.txt"
        _run("sample", "--graph", graph, "--sampler", sampler, "--fraction", "0.2",
             "--seed", "3", "--out", samples[sampler])

    def probe(name, observed, *extra):
        prefix = tmp_path / name
        _run("probe", "--graph", graph, "--observed", observed,
             "--strategy", "maxoutprobe", "--budget-frac", "0.2", "--seed", "5",
             "--out-prefix", prefix, *extra)
        return tuple(
            (tmp_path / f"{name}{suffix}").read_bytes()
            for suffix in (".observed.txt", ".probelog.csv", ".estimate.json")
        )

    def estimate(name, observed, *extra):
        out = tmp_path / f"{name}.json"
        _run("estimate", "--graph", graph, "--observed", observed,
             "--seed", "2", "--out", out, *extra)
        return (out.read_bytes(),)

    return {
        "probe-based": probe("pb", samples["rw"], "--estimation-probes", "4"),
        "probe-uncharged": probe("pu", samples["rw"], "--estimation-probes", "4",
                                 "--estimation-uncharged"),
        "probe-known-randnode": probe("kn", samples["randnode"],
                                      "--known-sampler", "randnode", "--f-n", "0.2"),
        "probe-known-randedge": probe("ke", samples["randedge"],
                                      "--known-sampler", "randedge", "--f-e", "0.2"),
        "estimate-probe-based": estimate("epb", samples["rw"],
                                         "--budget", "10", "--n-probes", "4"),
        "estimate-known-randedge": estimate("eke", samples["randedge"],
                                            "--known-sampler", "randedge", "--f-e", "0.2"),
    }


def test_sweep_digests():
    outputs = sweep_outputs()
    assert {k: _sha(v.encode("utf-8")) for k, v in outputs.items()} == SWEEP_DIGESTS


def test_session_digests(tmp_path):
    outputs = session_outputs(tmp_path)
    assert {k: _sha(*v) for k, v in outputs.items()} == SESSION_DIGESTS
