"""Inference rules, derivation trees, pre-proofs, and proof graphs.

The rule system decides one of four moves for every goal `<P> => <Q>`:

* ``Axiom``  closes an empty-source goal,
* ``Subs``   removes the part of the source already inside the target,
* ``Der``    steps every source state forward (source must be runnable),
* ``Dis``    refutes a goal whose source contains a stuck non-target state.

Exactly one rule applies to any non-bottom goal.  A derivation tree records
rule applications; a pre-proof adds bud->companion links that close
recurring goals against an earlier ``Der`` node carrying the identical
predicate.  Collapsing each bud onto its companion yields the proof graph,
whose acyclicity separates "all finite runs reach the target" from "all
runs, including infinite ones, reach the target".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Container, Iterable, Iterator

from .ars import Ars, ArsError, StateSet, canon, derivative, is_runnable


@dataclass(frozen=True)
class AprPredicate:
    """An all-path reachability goal: source set => target set.

    `is_bottom` marks the distinguished refuted goal produced by ``Dis``;
    it compares equal only to itself and carries empty sets.
    """

    source: StateSet
    target: StateSet
    is_bottom: bool = False

    def __post_init__(self) -> None:
        if self.is_bottom and (self.source or self.target):
            raise ValueError("bottom predicate must carry empty sets")

    def __str__(self) -> str:
        if self.is_bottom:
            return "BOT"
        return f"<{{{','.join(map(str, self.source))}}}> => <{{{','.join(map(str, self.target))}}}>"


BOTTOM = AprPredicate((), (), is_bottom=True)


def predicate(source: Iterable[int], target: Iterable[int]) -> AprPredicate:
    """Build a goal with canonicalized source and target."""
    return AprPredicate(canon(source), canon(target))


def format_predicate(ars: Ars, pred: AprPredicate) -> str:
    if pred.is_bottom:
        return "BOT"
    src = ",".join(ars.labels[i] for i in pred.source)
    tgt = ",".join(ars.labels[i] for i in pred.target)
    return f"{{{src}}} => {{{tgt}}}"


class RuleName(Enum):
    AXIOM = "Axiom"
    SUBS = "Subs"
    DER = "Der"
    DIS = "Dis"

    def __str__(self) -> str:
        return self.value


_RULES = tuple(RuleName)


class SplitStrategy(Enum):
    """How ``Subs``/``Der`` premises partition their result set.

    ``MONOLITHIC`` never splits: both rules emit a single child.
    ``EAGER`` additionally splits off, as singleton children, those
    derivative states whose singleton goal can fold onto an already
    available companion; the remaining states stay together in one child.
    """

    EAGER = "eager"
    MONOLITHIC = "monolithic"


def applicable_rules(ars: Ars, pred: AprPredicate) -> list[RuleName]:
    """Evaluate every rule's side condition independently (test surface)."""
    if pred.is_bottom:
        raise ValueError("no rule applies to the bottom predicate")
    p = set(ars.check_members(pred.source))
    q = set(ars.check_members(pred.target))
    nf = set(ars.normal_forms)
    rules = []
    if not p:
        rules.append(RuleName.AXIOM)
    if p & q:
        rules.append(RuleName.SUBS)
    if not p & q and is_runnable(ars, pred.source):
        rules.append(RuleName.DER)
    if not p & q and p and p & nf:
        rules.append(RuleName.DIS)
    return rules


def applicable_rule(ars: Ars, pred: AprPredicate) -> RuleName:
    """The unique rule applicable to a canonical non-bottom goal.

    Costs one pass over the source and the target, whatever the proof
    around the goal: because both are canonical, ids are range-checked at
    the ends of each tuple, and the overlap and the normal-form hit are
    ``set.isdisjoint`` tests.  Out-of-table ids raise UnknownObjectError.
    """
    if pred.is_bottom:
        raise ValueError("no rule applies to the bottom predicate")
    p = pred.source
    n = ars.n
    for ids in (p, pred.target):
        if ids and (ids[0] < 0 or ids[-1] >= n):
            ars.check_members(ids)  # raises, naming the bad ids
    overlap = not set(pred.target).isdisjoint(p)
    stuck = not ars._nf.isdisjoint(p)
    # Side conditions in RuleName order: Axiom, Subs, Der, Dis.
    holds = (not p, overlap, bool(p) and not overlap and not stuck,
             bool(p) and not overlap and stuck)
    assert sum(holds) == 1, f"rule uniqueness violated for {pred}: {holds}"
    return _RULES[holds.index(True)]


def premises(
    ars: Ars,
    pred: AprPredicate,
    strategy: SplitStrategy = SplitStrategy.EAGER,
    fold_sources: Container[StateSet] = (),
) -> tuple[RuleName, list[AprPredicate]]:
    """Apply the unique rule to the canonical goal `pred` and return its
    child goals, which are canonical again.

    `fold_sources` holds the source sets of companions currently available
    to the caller (same target as `pred`); the eager strategy splits those
    states off as singleton children so they can close as buds.  It is only
    tested with ``in``, never copied or iterated, so the cost of a call
    does not grow with the proof around it.  Children always share the
    parent's target.  No child is empty except the single ``Subs`` child
    of a goal whose source is already contained in the target.
    """
    rule = applicable_rule(ars, pred)
    p, q = pred.source, pred.target
    if rule is RuleName.AXIOM:
        return rule, []
    if rule is RuleName.SUBS:
        qs = set(q)
        return rule, [AprPredicate(tuple(s for s in p if s not in qs), q)]
    if rule is RuleName.DIS:
        return rule, [BOTTOM]
    succ_union: set[int] = set()
    for s in p:
        succ_union.update(ars.succs[s])
    deriv = tuple(sorted(succ_union))
    if strategy is SplitStrategy.MONOLITHIC:
        return rule, [AprPredicate(deriv, q)]
    matched: list[int] = []
    rest: list[int] = []
    for t in deriv:
        (matched if (t,) in fold_sources else rest).append(t)
    parts = [AprPredicate((t,), q) for t in matched]
    if rest:
        parts.append(AprPredicate(tuple(rest), q))
    return rule, parts


@dataclass
class DerivationTree:
    """Finite rule-application tree.

    Node ids index `preds`.  `rules` and `children` are partial: a node has
    a rule entry exactly when it has a children entry, and `()` means the
    rule has zero premises.  A node is a leaf iff it has no children entry
    or an empty one; a leaf is closed iff its children entry is `()` or its
    predicate is bottom, and open otherwise.
    """

    preds: list[AprPredicate]
    rules: dict[int, RuleName]
    children: dict[int, tuple[int, ...]]
    root: int = 0

    @property
    def node_count(self) -> int:
        return len(self.preds)

    def is_leaf(self, v: int) -> bool:
        return not self.children.get(v)

    def is_open_leaf(self, v: int) -> bool:
        return v not in self.children and not self.preds[v].is_bottom

    def open_leaves(self) -> list[int]:
        return [v for v in range(len(self.preds)) if self.is_open_leaf(v)]

    def preorder(self) -> Iterator[int]:
        stack = [self.root]
        while stack:
            v = stack.pop()
            yield v
            stack.extend(reversed(self.children.get(v, ())))

    def parent_map(self) -> dict[int, int]:
        return {c: v for v, kids in self.children.items() for c in kids}


@dataclass
class PreProof:
    """A derivation tree plus bud->companion links.

    `xi` maps open leaves to non-open nodes carrying the identical
    predicate and ruled by ``Der``.
    """

    tree: DerivationTree
    xi: dict[int, int] = field(default_factory=dict)

    @property
    def buds(self) -> list[int]:
        return sorted(self.xi)

    def is_closed(self) -> bool:
        return all(v in self.xi for v in self.tree.open_leaves())

    def has_dis(self) -> bool:
        return any(r is RuleName.DIS for r in self.tree.rules.values())

    @property
    def classification(self) -> str:
        """'disproof' (a Dis node exists), 'proof' (closed, no Dis), or 'open'."""
        if self.has_dis():
            return "disproof"
        if self.is_closed():
            return "proof"
        return "open"


@dataclass(frozen=True)
class Violation:
    node: int | None
    message: str

    def __str__(self) -> str:
        where = "" if self.node is None else f"node {self.node}: "
        return where + self.message


@dataclass
class ValidationReport:
    violations: list[Violation]
    classification: str

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_pre_proof(ars: Ars, pp: PreProof) -> ValidationReport:
    """Check every rule instance and bud condition; never raises.

    A valid report confirms: the tree is a tree, each ruled node is an
    instance of its rule with the exact side conditions, bottom occurs only
    under ``Dis``, and every bud points at a ``Der`` node with the identical
    predicate.
    """
    t = pp.tree
    n = len(t.preds)
    out: list[Violation] = []

    def bad(node: int | None, msg: str) -> None:
        out.append(Violation(node, msg))

    # Tree shape: child ids in range, unique parent, all reachable from root.
    if not 0 <= t.root < n:
        bad(None, f"root {t.root} out of range")
        return ValidationReport(out, "open")
    parents: dict[int, int] = {}
    for v, kids in t.children.items():
        if v not in t.rules:
            bad(v, "children without a rule")
        for c in kids:
            if not 0 <= c < n:
                bad(v, f"child id {c} out of range")
            elif c in parents:
                bad(c, "node has two parents")
            else:
                parents[c] = v
    for v in t.rules:
        if v not in t.children:
            bad(v, "rule without a children entry")
    if t.root in parents:
        bad(t.root, "root has a parent")
    seen = set()
    stack = [t.root]
    while stack:
        v = stack.pop()
        if v in seen:
            bad(v, "cycle in tree structure")
            break
        seen.add(v)
        stack.extend(c for c in t.children.get(v, ()) if 0 <= c < n)
    if len(seen) != n and not out:
        bad(None, f"{n - len(seen)} nodes unreachable from root")

    # Rule instances.
    for v, rule in t.rules.items():
        pred = t.preds[v]
        kids = t.children.get(v, ())
        if pred.is_bottom:
            bad(v, "rule applied to bottom")
            continue
        try:
            ars.check_members(pred.source)
            ars.check_members(pred.target)
        except ArsError as exc:
            bad(v, str(exc))
            continue
        p = set(pred.source)
        q = set(pred.target)
        kid_preds = [t.preds[c] for c in kids if 0 <= c < n]
        if rule is not RuleName.DIS:
            for c, kp in zip(kids, kid_preds):
                if kp.is_bottom:
                    bad(c, "bottom child outside Dis")
                elif kp.target != pred.target:
                    bad(c, "child target differs from parent target")
        if rule is RuleName.AXIOM:
            if p:
                bad(v, "Axiom with nonempty source")
            if kids:
                bad(v, "Axiom with premises")
        elif rule is RuleName.SUBS:
            if not p & q:
                bad(v, "Subs without source/target overlap")
            if not kids:
                bad(v, "Subs needs at least one premise")
            else:
                union = set().union(*(set(kp.source) for kp in kid_preds))
                if union != p - q:
                    bad(v, "Subs children do not union to source minus target")
                if len(kids) > 1 and any(not kp.source for kp in kid_preds):
                    bad(v, "empty part in a split Subs")
        elif rule is RuleName.DER:
            if p & q:
                bad(v, "Der with source/target overlap")
            if not is_runnable(ars, pred.source):
                bad(v, "Der on a non-runnable source")
            if not kids:
                bad(v, "Der needs at least one premise")
            else:
                union = set().union(*(set(kp.source) for kp in kid_preds))
                if union != set(derivative(ars, pred.source)):
                    bad(v, "Der children do not union to the derivative")
                if any(not kp.source for kp in kid_preds):
                    bad(v, "empty part in a Der split")
        elif rule is RuleName.DIS:
            if p & q or not p or not p & set(ars.normal_forms):
                bad(v, "Dis side condition violated")
            if len(kids) != 1 or not kid_preds or not kid_preds[0].is_bottom:
                bad(v, "Dis premise must be the single bottom goal")

    # Bottom nodes may only hang under Dis and carry no rule.
    for v in range(n):
        if t.preds[v].is_bottom:
            parent = parents.get(v)
            if parent is None or t.rules.get(parent) is not RuleName.DIS:
                bad(v, "bottom node not introduced by Dis")

    # Buds.
    open_leaves = set(t.open_leaves())
    for v, comp in pp.xi.items():
        if v not in open_leaves:
            bad(v, "bud is not an open leaf")
            continue
        if not 0 <= comp < n or comp in open_leaves:
            bad(v, "companion must be a non-open node")
            continue
        if t.preds[v] != t.preds[comp]:
            bad(v, "bud and companion predicates differ")
        if t.rules.get(comp) is not RuleName.DER:
            bad(v, "companion rule must be Der")

    return ValidationReport(out, pp.classification)


@dataclass
class ProofGraph:
    """Quotient of a closed pre-proof: buds identified with companions.

    Vertices are the tree's non-open nodes in preorder; an edge leads from
    a node to each child, with bud children redirected to their companions.
    Every edge is labeled (via `rules`) by the rule of its source vertex.
    """

    vertices: tuple[int, ...]
    predicates: dict[int, AprPredicate]
    rules: dict[int, RuleName]
    edges: tuple[tuple[int, int], ...]

    def successors(self, v: int) -> list[int]:
        return [b for a, b in self.edges if a == v]


def proof_graph(pp: PreProof) -> ProofGraph:
    """Build the proof graph of a closed pre-proof (deterministic order)."""
    if not pp.is_closed():
        raise ValueError("proof graph requires a closed pre-proof")
    t = pp.tree
    open_leaves = set(t.open_leaves())
    vertices = tuple(v for v in t.preorder() if v not in open_leaves)
    edges: list[tuple[int, int]] = []
    edge_set: set[tuple[int, int]] = set()
    for v in vertices:
        for c in t.children.get(v, ()):
            dst = pp.xi[c] if c in open_leaves else c
            e = (v, dst)
            if e not in edge_set:
                edge_set.add(e)
                edges.append(e)
    preds = {v: t.preds[v] for v in vertices}
    rules = {v: t.rules[v] for v in vertices if v in t.rules}
    return ProofGraph(vertices, preds, rules, tuple(edges))


def is_acyclic(g: ProofGraph) -> bool:
    """True iff the proof graph has no directed cycle."""
    succs: dict[int, list[int]] = {v: [] for v in g.vertices}
    for a, b in g.edges:
        succs[a].append(b)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {v: WHITE for v in g.vertices}
    for start in g.vertices:
        if color[start] != WHITE:
            continue
        stack: list[tuple[int, int]] = [(start, 0)]
        color[start] = GRAY
        while stack:
            v, i = stack[-1]
            if i < len(succs[v]):
                stack[-1] = (v, i + 1)
                w = succs[v][i]
                if color[w] == GRAY:
                    return False
                if color[w] == WHITE:
                    color[w] = GRAY
                    stack.append((w, 0))
            else:
                color[v] = BLACK
                stack.pop()
    return True


def graph_violations(ars: Ars, g: ProofGraph) -> list[str]:
    """Check the structural facts every proof graph must satisfy.

    Per-vertex checks: edges into non-bottom vertices preserve the target;
    a ``Subs`` child source is contained in the parent's source minus
    target; every source state of a ``Der`` vertex has a successor in some
    child and every child state has a predecessor in the parent; ``Dis``
    points only at bottom; ``Axiom`` vertices have empty source and no
    outedge.
    """
    problems = []
    succ_edges: dict[int, list[int]] = {v: [] for v in g.vertices}
    for a, b in g.edges:
        succ_edges[a].append(b)
    for v, rule in g.rules.items():
        pv = g.predicates[v]
        kids = succ_edges[v]
        for w in kids:
            pw = g.predicates[w]
            if pw.is_bottom:
                if rule is not RuleName.DIS:
                    problems.append(f"{v}->{w}: bottom reached by {rule}")
                continue
            if pw.target != pv.target:
                problems.append(f"{v}->{w}: target not preserved")
            if rule is RuleName.SUBS:
                if not set(pw.source) <= set(pv.source) - set(pv.target):
                    problems.append(f"{v}->{w}: Subs child escapes source minus target")
            if rule is RuleName.DER:
                for t in pw.source:
                    if not any(t in ars.succs[s] for s in pv.source):
                        problems.append(f"{v}->{w}: Der child state {t} has no predecessor")
        if rule is RuleName.DER:
            child_states = set().union(
                *(set(g.predicates[w].source) for w in kids)) if kids else set()
            for s in pv.source:
                if not set(ars.succs[s]) & child_states:
                    problems.append(f"{v}: Der source state {s} has no successor in children")
        if rule is RuleName.DIS:
            if not kids or any(not g.predicates[w].is_bottom for w in kids):
                problems.append(f"{v}: Dis does not point at bottom")
        if rule is RuleName.AXIOM:
            if pv.source:
                problems.append(f"{v}: Axiom with nonempty source")
            if kids:
                problems.append(f"{v}: Axiom with an outedge")
    return problems


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(ars: Ars, g: ProofGraph, name: str = "proof") -> str:
    """Render the proof graph as deterministic DOT (byte-for-byte stable)."""
    order = {v: i for i, v in enumerate(g.vertices)}
    lines = [f"digraph {name} {{"]
    for v in g.vertices:
        pred = g.predicates[v]
        if pred.is_bottom:
            lines.append(f'  n{order[v]} [label="BOT", shape=doublecircle];')
        else:
            lines.append(f'  n{order[v]} [label="{_dot_escape(format_predicate(ars, pred))}"];')
    for a, b in g.edges:
        lines.append(f'  n{order[a]} -> n{order[b]} [label="{g.rules[a]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
