"""Brute-force ground truth for partial and total validity.

Both decisions reduce to graph analysis of the target-avoiding region R
(states reachable from the source without touching the target):

* partial validity fails exactly when R contains a normal form, because a
  shortest target-free run into that normal form is a finite maximal
  counterexample;
* total validity additionally fails when the subgraph induced on R has a
  directed cycle, because on a finite system an infinite target-free run
  exists exactly when such a cycle is reachable.

This module is deliberately simple and slow; it is the reference the proof
engine is differentially tested against, never the default engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ars import ExecutionPath, System, bfs, bfs_path
from .proofs import AprPredicate
from .prover import FinitePath, Witness, region_lasso


@dataclass(frozen=True)
class OracleAnswer:
    """A decision: valid exactly when no counterexample was found."""

    witness: Witness | None = None

    @property
    def valid(self) -> bool:
        return self.witness is None


def _stuck_path(ars: System, tree: dict[int, int | None]) -> FinitePath | None:
    """Shortest target-free run into a normal form: the tree path to the
    first normal form the search discovered."""
    stuck = next((v for v in tree if v in ars._nf), None)
    if stuck is None:
        return None
    return FinitePath(ExecutionPath(bfs_path(tree, stuck)))


def oracle_partial(ars: System, pred: AprPredicate) -> OracleAnswer:
    """Exact decision of partial validity by region analysis."""
    tree = bfs(ars, ars.check_members(pred.source), ars.check_members(pred.target))
    return OracleAnswer(_stuck_path(ars, tree))


def oracle_total(ars: System, pred: AprPredicate) -> OracleAnswer:
    """Exact decision of total validity by region analysis: one breadth-first
    tree of the avoiding region yields both the stuck run and the lasso."""
    target = ars.check_members(pred.target)
    tree = bfs(ars, ars.check_members(pred.source), target)
    return OracleAnswer(_stuck_path(ars, tree) or region_lasso(ars, tree, target))
