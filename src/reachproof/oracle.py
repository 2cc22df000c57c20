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
    valid: bool
    witness: Witness | None = None

    def __post_init__(self) -> None:
        if self.valid and self.witness is not None:
            raise ValueError("valid answers carry no witness")
        if not self.valid and self.witness is None:
            raise ValueError("invalid answers need a witness")


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
    path = _stuck_path(ars, tree)
    return OracleAnswer(path is None, path)


def oracle_total(ars: System, pred: AprPredicate) -> OracleAnswer:
    """Exact decision of total validity by region analysis: one breadth-first
    tree of the avoiding region yields both the stuck run and the lasso."""
    target = ars.check_members(pred.target)
    tree = bfs(ars, ars.check_members(pred.source), target)
    witness = _stuck_path(ars, tree) or region_lasso(ars, tree, target)
    return OracleAnswer(witness is None, witness)
