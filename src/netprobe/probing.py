"""The probe contract: reveal a candidate node's complete neighborhood,
update the observed graph, and account for the budget."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import IO

from .errors import BudgetError, NotCandidateError, UnknownNodeError
from .graphs import CompleteGraph, ObservedGraph

PHASE_ESTIMATION = "estimation"
PHASE_SELECTION = "selection"


@dataclass(frozen=True)
class ProbeLogEntry:
    node: str
    new_nodes: int
    new_edges: int
    phase: str


@dataclass
class ProbeLedger:
    """Tracks budget b and every probe spent against it."""

    budget: int
    spent: int = 0
    log: list[ProbeLogEntry] = field(default_factory=list)

    @property
    def remaining(self) -> int:
        return self.budget - self.spent


@dataclass(frozen=True)
class ProbeResult:
    node: str
    new_nodes: frozenset[str]
    new_edges: frozenset[tuple[str, str]]


def probe(
    g: CompleteGraph,
    obs: ObservedGraph,
    ledger: ProbeLedger,
    u: str,
    phase: str = PHASE_SELECTION,
) -> ProbeResult:
    """Reveal all of u's neighbors in the complete graph.

    u must already be observed (there is no master list of nodes) and still
    a candidate, and the budget must not be exhausted.  Only edges incident
    to u are revealed; edges among u's neighbors stay hidden.
    """
    if not obs.has_node(u):
        raise UnknownNodeError(f"cannot probe {u!r}: not in the observed graph")
    if not obs.is_candidate(u):
        raise NotCandidateError(f"cannot probe {u!r}: already explored")
    if ledger.spent >= ledger.budget:
        raise BudgetError(f"probe budget {ledger.budget} exhausted")

    new_nodes: set[str] = set()
    new_edges: set[tuple[str, str]] = set()
    for w in g.neighbors(u):
        known = obs.has_node(w)
        if obs.add_edge(u, w):
            new_edges.add((u, w) if u < w else (w, u))
            if not known:
                new_nodes.add(w)
    obs.mark_explored(u)
    ledger.spent += 1
    ledger.log.append(
        ProbeLogEntry(
            node=u, new_nodes=len(new_nodes), new_edges=len(new_edges), phase=phase
        )
    )
    return ProbeResult(
        node=u, new_nodes=frozenset(new_nodes), new_edges=frozenset(new_edges)
    )


def write_probe_log(ledger: ProbeLedger, sink: IO[str]) -> None:
    """CSV export: phase,node,new_nodes,new_edges,spent_after."""
    writer = csv.writer(sink)
    writer.writerow(["phase", "node", "new_nodes", "new_edges", "spent_after"])
    for i, entry in enumerate(ledger.log, start=1):
        writer.writerow([entry.phase, entry.node, entry.new_nodes, entry.new_edges, i])
