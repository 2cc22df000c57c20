"""Breadth-first proof construction and validity verdicts.

`prove` grows a derivation tree from a FIFO queue of open goals.  Before a
goal is expanded it is matched against the companions collected so far
(``Der`` nodes, earliest first); an exact predicate match closes the goal
as a bud.  On a finite system this always terminates with a closed
pre-proof: a proof certifies that every finite run from the source reaches
the target, a disproof refutes it and yields a finite counterexample run.
Total validity (infinite runs included) is decided on a proof by checking
its proof graph for cycles; a cyclic graph yields a lasso counterexample
dug out of the target-avoiding region.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from .ars import (
    ExecutionPath,
    StateSet,
    System,
    bfs,
    bfs_path,
    cyclic_sccs,
    region_succs,
)
from .proofs import (
    EVERY_STATE,
    AprPredicate,
    DerivationTree,
    PreProof,
    ProofGraph,
    RuleName,
    is_acyclic,
    premises,
    proof_graph,
)


DEFAULT_NODE_BUDGET = 1_000_000
# ``AUTO`` splits pointwise once its Der sources sum past this many sweeps
# of the object table.
AUTO_SWEEPS = 32


class NodeBudgetExceeded(RuntimeError):
    """The proof search created more nodes than the configured cap."""


class SplitStrategy(Enum):
    """The fold set `prove` hands `premises` for each goal.

    ``MONOLITHIC`` passes an empty one: every rule emits a single child.
    ``EAGER`` passes the states whose singleton goal can fold onto an
    already available companion, so a ``Der`` result splits those off as
    singleton children; the remaining states stay together in one child.
    ``AUTO`` is ``EAGER`` until the summed source size of its ``Der``
    nodes exceeds `AUTO_SWEEPS` times the object count; from then on it
    passes `EVERY_STATE`, so each ``Der`` child is a singleton.
    """

    AUTO = "auto"
    EAGER = "eager"
    MONOLITHIC = "monolithic"


@dataclass(frozen=True)
class ProverConfig:
    """Search knobs.  The companion policy is fixed: the earliest-created
    ``Der`` node with the identical predicate wins."""

    strategy: SplitStrategy = SplitStrategy.AUTO
    node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self) -> None:
        if self.node_budget < 1:
            raise ValueError("node_budget must be positive")


class VerdictKind(Enum):
    PARTIALLY_VALID = "PartiallyValid"
    NOT_PARTIALLY_VALID = "NotPartiallyValid"
    TOTALLY_VALID = "TotallyValid"
    NOT_TOTALLY_VALID = "NotTotallyValid"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class FinitePath:
    """Counterexample: a maximal target-free run from the source set."""

    path: ExecutionPath


@dataclass(frozen=True)
class Lasso:
    """Counterexample to total validity: stem into a target-free cycle."""

    stem: tuple[int, ...]
    cycle: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.cycle:
            raise ValueError("lasso cycle must be nonempty")


Witness = FinitePath | Lasso


@dataclass
class ProofStats:
    nodes: int
    buds: int
    rule_counts: dict[str, int]


@dataclass
class Verdict:
    """A decision with the pre-proof behind it and that pre-proof's proof
    graph, built once per query, and whether the graph is acyclic."""

    kind: VerdictKind
    pre_proof: PreProof
    witness: Witness | None
    stats: ProofStats
    graph: ProofGraph
    acyclic: bool


def prove(ars: System, pred: AprPredicate, cfg: ProverConfig | None = None) -> PreProof:
    """Construct a closed pre-proof (proof or disproof) for `pred`.

    Deterministic for fixed inputs and config; always terminates on a
    finite system.  Raises NodeBudgetExceeded if the configured cap is hit
    (defensive only; unreachable for the built-in strategies on finite
    inputs of sane size).
    """
    cfg = cfg or ProverConfig()
    if pred.is_bottom:
        raise ValueError("cannot prove the bottom predicate")
    # The only canonicalisation: every later goal is built canonical.
    pred = AprPredicate(ars.check_members(pred.source), ars.check_members(pred.target))

    preds: list[AprPredicate] = [pred]
    rules: dict[int, RuleName] = {}
    children: dict[int, tuple[int, ...]] = {}
    xi: dict[int, int] = {}
    # Every goal has the root's target, so a companion is keyed by its
    # source, the target is one set for the whole query, and the eager
    # split needs only the states whose singleton goal is a companion.
    # A goal claims its source's companion entry before its rule is known
    # and gives it back unless the rule is Der.
    companions: dict[StateSet, int] = {}
    fold_states: set[int] = set()
    folds = frozenset() if cfg.strategy is SplitStrategy.MONOLITHIC else fold_states
    # AUTO counts the Der sources down from its budget; below zero it
    # switches to the pointwise fold set.
    auto = cfg.strategy is SplitStrategy.AUTO
    sweep_budget = AUTO_SWEEPS * ars.n
    target_set = frozenset(pred.target)
    # With the normal forms as a set, most goals reach Der by one test.
    stop = target_set | ars._nf if isinstance(ars._nf, frozenset) else None
    budget = cfg.node_budget
    der, dis = RuleName.DER, RuleName.DIS
    queue = [0]

    for done, v in enumerate(queue):  # grows while walked: a FIFO queue of open goals
        pv = preds[v]
        source = pv.source
        comp = companions.setdefault(source, v)
        if comp != v:
            xi[v] = comp
            continue
        rule, kid_preds = premises(ars, pv, folds, target_set, stop)
        rules[v] = rule
        w = len(preds)
        if w + len(kid_preds) > budget:
            made = kid_preds[:budget - w]
            preds += made  # the nodes made up to the cap, as the message counts them
            raise NodeBudgetExceeded(
                f"node budget {budget} exceeded: {len(preds)} nodes made, "
                f"{len(queue) - done + len(made)} goals open, largest source set "
                f"{max(len(p.source) for p in preds)} states")
        preds += kid_preds
        children[v] = kids = (w,) if len(kid_preds) == 1 else tuple(range(w, len(preds)))
        if rule is der:
            if len(source) == 1:
                fold_states.add(source[0])
            if auto:
                sweep_budget -= len(source)
                if sweep_budget < 0:
                    folds, auto = EVERY_STATE, False
        else:
            del companions[source]
        if rule is not dis:  # the bottom child of Dis is closed
            queue += kids

    return PreProof(DerivationTree(preds, rules, children, 0), xi)


def stats_of(pp: PreProof) -> ProofStats:
    rules = list(pp.tree.rules.values())
    return ProofStats(nodes=pp.tree.node_count, buds=len(pp.xi),
                      rule_counts={r.value: rules.count(r) for r in RuleName})


def check_partial(ars: System, pred: AprPredicate, cfg: ProverConfig | None = None) -> Verdict:
    """Decide whether every finite run from the source reaches the target.

    The pre-proof is a disproof exactly when it holds a ``Dis`` node, and
    then a finite counterexample is read off it.
    """
    pp = prove(ars, pred, cfg)
    stats = stats_of(pp)
    graph = proof_graph(pp)
    if stats.rule_counts[RuleName.DIS.value]:
        kind = VerdictKind.NOT_PARTIALLY_VALID
        witness: Witness | None = FinitePath(extract_finite_counterexample(ars, pp))
    else:
        kind, witness = VerdictKind.PARTIALLY_VALID, None
    return Verdict(kind, pp, witness, stats, graph, is_acyclic(graph))


def check_total(ars: System, pred: AprPredicate, cfg: ProverConfig | None = None) -> Verdict:
    """Decide whether every run, finite or infinite, reaches the target.

    This is `check_partial` plus the cycle test on its proof graph: a
    disproof keeps its finite counterexample, an acyclic proof is totally
    valid, and a cyclic one yields a lasso.  A single proof suffices:
    whenever the predicate is totally valid, the proof graph of any proof
    for it is acyclic, so no alternative proof search is ever needed.
    """
    verdict = check_partial(ars, pred, cfg)
    if verdict.witness is not None:
        return replace(verdict, kind=VerdictKind.NOT_TOTALLY_VALID)
    if verdict.acyclic:
        return replace(verdict, kind=VerdictKind.TOTALLY_VALID)
    return replace(verdict, kind=VerdictKind.NOT_TOTALLY_VALID, witness=extract_lasso(ars, pred))


def extract_finite_counterexample(ars: System, disproof: PreProof) -> ExecutionPath:
    """Read a maximal target-free run off the tree path into a ``Dis`` node.

    Walks from the earliest ``Dis`` node back to the root, choosing at each
    ``Der`` step a concrete predecessor (smallest id) and collapsing the
    reflexive steps contributed by ``Subs`` nodes.  Sources are ascending,
    so the first hit of each scan is the smallest and the scan stops there.
    """
    t = disproof.tree
    node = min((v for v, r in t.rules.items() if r is RuleName.DIS), default=None)
    if node is None:
        raise ValueError("pre-proof contains no Dis node")
    chain = [next(s for s in t.preds[node].source if s in ars._nf)]
    for v in reversed(bfs_path(t.parents, node)[:-1]):
        if t.rules[v] is RuleName.DER:
            cur = chain[-1]
            pred_state = next(s for s in t.preds[v].source if cur in ars.succs[s])
            if pred_state != cur:
                chain.append(pred_state)
        # Subs: the chosen state survives the subtraction unchanged.
    return ExecutionPath(tuple(reversed(chain)))


def extract_lasso(ars: System, pred: AprPredicate) -> Lasso:
    """Find a target-free infinite run, as a lasso, in the avoiding region.

    Deterministic: the cycle is entered at the region vertex with the
    shortest stem (ties broken by smallest id), and both stem and cycle are
    shortest by breadth-first search.
    """
    target = ars.check_members(pred.target)
    lasso = region_lasso(ars, bfs(ars, ars.check_members(pred.source), target), target)
    if lasso is None:
        raise ValueError("no cycle in the avoiding region")
    return lasso


def region_lasso(ars: System, tree: dict[int, int | None], target: StateSet) -> Lasso | None:
    """The lasso of `extract_lasso`, read off `tree`, the `bfs` tree of the
    region avoiding `target`; None when the region has no cycle."""
    succs = region_succs(ars, tree)
    cyclic = [v for comp in cyclic_sccs(succs) for v in comp]
    if not cyclic:
        return None
    depth: dict[int, int] = {}
    for v, u in tree.items():  # parents are discovered before children
        depth[v] = 0 if u is None else depth[u] + 1
    entry = min(cyclic, key=lambda v: (depth[v], v))
    stem = bfs_path(tree, entry)[:-1]
    if entry in succs[entry]:
        return Lasso(stem, (entry,))
    # Shortest cycle through the entry vertex, inside the region.
    ring = bfs(ars, succs[entry], target)
    closer = next(v for v in ring if entry in succs[v])
    return Lasso(stem, (entry,) + bfs_path(ring, closer))


def witness_violations(ars: System, pred: AprPredicate, witness: Witness) -> list[str]:
    """Check a witness against the original query's invariants, as one walk
    over a finite path or a lasso's stem and cycle: its start, each edge,
    its end (stuck, or an edge back into the cycle) and the target."""
    if isinstance(witness, FinitePath):
        kind, walk, back = "path", witness.path.steps, None
    else:
        kind, walk, back = "lasso", witness.stem + witness.cycle, witness.cycle[0]
    if bad := sorted({s for s in walk if not 0 <= s < ars.n}):
        return [f"{kind} has ids outside the object table: {bad}"]
    problems = []
    if walk[0] not in pred.source:
        problems.append(f"{kind} does not start in the source set")
    for a, b in zip(walk, walk[1:]):
        if b not in ars.succs[a]:
            problems.append(f"no edge {ars.labels[a]} -> {ars.labels[b]}")
    if back is None:
        if not ars.is_normal_form(walk[-1]):
            problems.append(f"maximal path ends at reducible {ars.labels[walk[-1]]}")
    elif back not in ars.succs[walk[-1]]:
        problems.append("cycle does not close")
    if not set(pred.target).isdisjoint(walk):
        problems.append(f"{kind} touches the target set")
    return problems
