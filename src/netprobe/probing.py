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
    log: list[ProbeLogEntry] = field(default_factory=list)

    @property
    def spent(self) -> int:
        return len(self.log)

    @property
    def remaining(self) -> int:
        return self.budget - self.spent


def probe(
    g: CompleteGraph,
    obs: ObservedGraph,
    ledger: ProbeLedger,
    u: str,
    phase: str = PHASE_SELECTION,
) -> ProbeLogEntry:
    """Reveal u's neighbors in g, the complete graph of obs, and log it.

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

    new_nodes, new_edges = obs.explore(u)
    entry = ProbeLogEntry(node=u, new_nodes=new_nodes, new_edges=new_edges, phase=phase)
    ledger.log.append(entry)
    return entry


def write_probe_log(ledger: ProbeLedger, sink: IO[str]) -> None:
    """CSV export: phase,node,new_nodes,new_edges,spent_after."""
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["phase", "node", "new_nodes", "new_edges", "spent_after"])
    for i, entry in enumerate(ledger.log, start=1):
        writer.writerow([entry.phase, entry.node, entry.new_nodes, entry.new_edges, i])
