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
from functools import cached_property
from itertools import filterfalse
from operator import lt
from typing import AbstractSet, Callable, Iterable, Iterator, TextIO

from .ars import (
    ArsError,
    StateSet,
    System,
    canon,
    cyclic_sccs,
    der_image,
    image,
    join_labels,
)


@dataclass(frozen=True, init=False, slots=True)
class AprPredicate:
    """An all-path reachability goal: source set => target set.

    `is_bottom` marks the distinguished refuted goal produced by ``Dis``;
    it compares equal only to itself and carries empty sets.
    """

    source: StateSet
    target: StateSet
    is_bottom: bool = False

    def __init__(self, source: StateSet, target: StateSet, is_bottom: bool = False) -> None:
        if is_bottom and (source or target):
            raise ValueError("bottom predicate must carry empty sets")
        # A proof makes one predicate per node: each slot is set through its
        # own descriptor, with no name lookup as in `object.__setattr__`.
        _set_source(self, source)
        _set_target(self, target)
        _set_bottom(self, is_bottom)


_set_source = AprPredicate.source.__set__
_set_target = AprPredicate.target.__set__
_set_bottom = AprPredicate.is_bottom.__set__


BOTTOM = AprPredicate((), (), is_bottom=True)


def predicate(source: Iterable[int], target: Iterable[int]) -> AprPredicate:
    """Build a goal with canonicalized source and target."""
    return AprPredicate(canon(source), canon(target))


def predicate_formatter(ars: System) -> Callable[[AprPredicate], str]:
    """Render goals as `{a,b} => {c}`, or `BOT`, for the many goals of one
    output.  The goals of a proof share the root's target tuple, so the
    rendered target is kept until a goal brings another tuple: once per
    output, not once per goal.  A set's labels are gathered in one call;
    no rendered source is kept."""
    labels = ars.labels
    target: StateSet | None = None
    tail = ""

    def fmt(pred: AprPredicate) -> str:
        nonlocal target, tail
        if pred.is_bottom:
            return "BOT"
        if pred.target is not target:
            target = pred.target
            tail = "} => {" + join_labels(labels, target, ",") + "}"
        return "{" + join_labels(labels, pred.source, ",") + tail
    return fmt


class RuleName(Enum):
    AXIOM = "Axiom"
    SUBS = "Subs"
    DER = "Der"
    DIS = "Dis"

    def __str__(self) -> str:
        return self.value


# Members bound once for the per-goal step: before Python 3.12, reading a
# member off its Enum class runs Python code (about 0.15 us a read).
_AXIOM, _SUBS, _DER, _DIS = RuleName


# The fold set of the pointwise split, standing for every state: `premises`
# knows it by identity and never reads it.
EVERY_STATE = object()


def premises(
    ars: System,
    pred: AprPredicate,
    fold_states: AbstractSet[int] = frozenset(),
    target_set: AbstractSet[int] | None = None,
    stop: AbstractSet[int] | None = None,
) -> tuple[RuleName, list[AprPredicate]]:
    """Apply the unique rule to the canonical goal `pred` and return it with
    the child goals, which are canonical again and share the parent's target.

    The side conditions are tested in the order Axiom, Subs, Dis, Der; each
    excludes the ones before it, so exactly one rule applies.  Because both
    sets are canonical, ids are range-checked at the ends of each tuple, and
    the overlap and the normal-form hit are ``isdisjoint`` tests; out-of-table
    ids raise UnknownObjectError.  Only a target-free source is tested for
    normal forms: on a lazy system the test computes successors, and no goal
    needs those of a target state.

    `fold_states` is the fold set: a ``Der`` result splits exactly those of
    its states off as singleton children, in id order and ahead of the
    rest, and an empty fold set leaves it one child.  The eager strategy
    passes the states whose singleton goal (with the target of `pred`) is
    a companion, so those children close as buds.  The fold set is read
    only by its size, by ``isdisjoint`` with the result and, on a hit, by
    ``in``: never iterated or copied, so the cost of a call does not grow
    with the proof around it.  `EVERY_STATE` splits the result into
    singleton children, built straight from the image.
    `target_set` is ``set(pred.target)``: a caller proving many
    goals with one target builds it once, and it is built here when
    omitted.  `stop`, when given, is the union of `target_set` and the
    normal forms, both held as sets: a source disjoint from it goes to
    ``Der`` after one test instead of two.  Each step is a few passes in C
    over the source and its image.  No child is empty except the single
    ``Subs`` child of a goal whose source is already contained in the
    target.
    """
    if pred.is_bottom:
        raise ValueError("no rule applies to the bottom predicate")
    p, q = pred.source, pred.target
    n = ars.n
    if p and (p[0] < 0 or p[-1] >= n) or q and (q[0] < 0 or q[-1] >= n):
        ars.check_members(p)  # raises, naming the bad ids
        ars.check_members(q)
    if not p:
        return _AXIOM, []
    if stop is None or not stop.isdisjoint(p):
        if target_set is None:
            target_set = frozenset(q)
        if not target_set.isdisjoint(p):
            return _SUBS, [AprPredicate(tuple(filterfalse(target_set.__contains__, p)), q)]
        if not ars._nf.isdisjoint(p):
            return _DIS, [BOTTOM]
    deriv = der_image(ars, p)
    if fold_states is EVERY_STATE:
        return _DER, [AprPredicate((t,), q) for t in deriv]
    if fold_states and not fold_states.isdisjoint(deriv):
        folded = tuple(filter(fold_states.__contains__, deriv))
        parts = [AprPredicate((t,), q) for t in folded]
        if len(folded) < len(deriv):
            parts.append(AprPredicate(tuple(filterfalse(fold_states.__contains__, deriv)), q))
        return _DER, parts
    return _DER, [AprPredicate(deriv, q)]


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

    def open_leaves(self) -> set[int]:
        preds = self.preds
        leaves = set(range(len(preds))).difference(self.children)
        return {v for v in leaves if not preds[v].is_bottom}

    def preorder(self) -> Iterator[int]:
        """The nodes the root reaches, depth first.  Raises ValueError past
        `node_count` nodes: then `children` revisits a node."""
        stack = [self.root] if self.preds else []
        for _ in self.preds:
            if not stack:
                return
            v = stack.pop()
            yield v
            stack.extend(reversed(self.children.get(v, ())))
        if stack:
            raise ValueError("children revisit a node: not a tree")

    @cached_property
    def parents(self) -> dict[int, int | None]:
        """Each child's parent, and None for the root.  Built on first read,
        so all readers share one inversion of `children`; the tree must not
        change after that read."""
        parents: dict[int, int | None] = {c: v for v, kids in self.children.items() for c in kids}
        parents[self.root] = None
        return parents


@dataclass
class PreProof:
    """A derivation tree plus bud->companion links.

    `xi` maps open leaves to non-open nodes carrying the identical
    predicate and ruled by ``Der``.  It is closed when every open leaf is
    a bud, that is, a key of `xi`.
    """

    tree: DerivationTree
    xi: dict[int, int] = field(default_factory=dict)

    @property
    def classification(self) -> str:
        """'disproof' (a Dis node exists), 'proof' (closed, no Dis), or 'open'."""
        if RuleName.DIS in self.tree.rules.values():
            return "disproof"
        if all(v in self.xi for v in self.tree.open_leaves()):
            return "proof"
        return "open"


def _increasing(ids: StateSet) -> bool:
    """Whether `ids` is canonical: bud matching compares tuples."""
    return all(map(lt, ids, ids[1:]))


def validate_pre_proof(ars: System, pp: PreProof) -> list[str]:
    """Check every rule instance and bud condition; never raises.

    Returns one message per violation (`node <v>: <fault>`, or the fault
    alone when it is the whole tree's), and ``[]`` for a pre-proof whose
    tree is a tree, each ruled node an instance of its rule with the exact
    side conditions on canonical (strictly increasing) sets, bottom only
    under ``Dis``, and every bud pointing at a ``Der`` node with the
    identical predicate.
    """
    t = pp.tree
    n = len(t.preds)
    out: list[str] = []

    def bad(node: int, msg: str) -> None:
        out.append(f"node {node}: {msg}")

    # Tree shape: the root and child ids in range, one parent at most, none
    # for the root.  A cycle the root reaches breaks one of these, so once
    # they hold, `preorder` visits each reached node once.
    if not 0 <= t.root < n:
        return [f"root {t.root} out of range"]
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
    if not out and (reached := sum(1 for _ in t.preorder())) != n:
        out.append(f"{n - reached} nodes unreachable from root")

    # Rule instances.  No set is canonicalized again: each must be strictly
    # increasing, so it is range-checked at its ends, and the target's set
    # and check are made once per distinct target tuple.
    def table_error(ids: StateSet) -> str | None:
        if not _increasing(ids):
            return "source or target not strictly increasing"
        if ids and (ids[0] < 0 or ids[-1] >= ars.n):
            try:
                ars.check_members(ids)
            except ArsError as exc:
                return str(exc)
        return None

    target: StateSet | None = None
    for v, rule in t.rules.items():
        if not 0 <= v < n:
            bad(v, "node id out of range")
            continue
        pred = t.preds[v]
        kids = t.children.get(v, ())
        if pred.is_bottom:
            bad(v, "rule applied to bottom")
            continue
        if pred.target is not target:
            target, q, target_error = pred.target, set(pred.target), table_error(pred.target)
        src = pred.source
        if error := table_error(src) or target_error:
            bad(v, error)
            continue
        in_range = [c for c in kids if 0 <= c < n]
        kid_preds = [t.preds[c] for c in in_range]
        if rule is not RuleName.DIS:
            for c, kp in zip(in_range, kid_preds):
                if kp.is_bottom:
                    bad(c, "bottom child outside Dis")
                elif kp.target != target:
                    bad(c, "child target differs from parent target")
        if rule is RuleName.AXIOM:
            if src:
                bad(v, "Axiom with nonempty source")
            if kids:
                bad(v, "Axiom with premises")
        elif rule is RuleName.SUBS:
            if q.isdisjoint(src):
                bad(v, "Subs without source/target overlap")
            if not kids:
                bad(v, "Subs needs at least one premise")
            else:
                if set().union(*(kp.source for kp in kid_preds)) != set(src) - q:
                    bad(v, "Subs children do not union to source minus target")
                if len(kids) > 1 and any(not kp.source for kp in kid_preds):
                    bad(v, "empty part in a split Subs")
        elif rule is RuleName.DER:
            if not q.isdisjoint(src):
                bad(v, "Der with source/target overlap")
            if not src or not ars._nf.isdisjoint(src):
                bad(v, "Der on a non-runnable source")
            if not kids:
                bad(v, "Der needs at least one premise")
            else:
                if set().union(*(kp.source for kp in kid_preds)) != image(ars, src):
                    bad(v, "Der children do not union to the derivative")
                if any(not kp.source for kp in kid_preds):
                    bad(v, "empty part in a Der split")
        elif rule is RuleName.DIS:
            if not q.isdisjoint(src) or not src or ars._nf.isdisjoint(src):
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
    open_leaves = t.open_leaves()
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

    return out


@dataclass
class ProofGraph:
    """Quotient of a closed pre-proof: buds identified with companions.

    A view of `pre_proof`, whose buds must be exactly its open leaves and
    its companions ``Der`` nodes, as `proof_graph` checks.  Vertices are
    the tree's non-bud nodes in preorder; an edge leads from a node to each
    child, with bud children redirected to their companions, and parallel
    edges collapse.  Every edge is labeled (via `rules`) by the rule of its
    source vertex.
    `predicates` and `rules` are the tree's own tables, indexed by node id;
    `predicates` also holds the buds, which are not vertices.  The
    `vertices` and `edges` tuples are built on first read; their counts
    come from the tree's size, the buds and the children of bud parents,
    so a query that prints only the counts never builds them.
    """

    pre_proof: PreProof

    @property
    def predicates(self) -> list[AprPredicate]:
        return self.pre_proof.tree.preds

    @property
    def rules(self) -> dict[int, RuleName]:
        return self.pre_proof.tree.rules

    @property
    def vertex_count(self) -> int:
        return self.pre_proof.tree.node_count - len(self.pre_proof.xi)

    @cached_property
    def edge_count(self) -> int:
        # One edge per tree link, less the links that a redirected bud merges
        # into a parallel edge: those are all children of a bud's parent.
        t, xi = self.pre_proof.tree, self.pre_proof.xi
        merged = 0
        for v in {t.parents[b] for b in xi}:
            kids = t.children[v]
            merged += len(kids) - len({xi.get(c, c) for c in kids})
        return sum(map(len, t.children.values())) - merged

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        return tuple(filterfalse(self.pre_proof.xi.__contains__, self.pre_proof.tree.preorder()))

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        children, xi = self.pre_proof.tree.children, self.pre_proof.xi
        # Keyed by edge, in first-seen order: parallel edges collapse.
        return tuple(dict.fromkeys((v, xi.get(c, c))
                                   for v in self.vertices for c in children.get(v, ())))


def proof_graph(pp: PreProof) -> ProofGraph:
    """The proof graph of a closed pre-proof (deterministic order).

    Its buds must be exactly its open leaves, each some node's child, and
    its companions ``Der`` nodes of the tree.
    """
    t = pp.tree
    if (pp.xi.keys() != t.open_leaves() or None in map(t.parents.get, pp.xi)
            or any(t.rules.get(c) is not _DER for c in pp.xi.values())):
        raise ValueError("proof graph requires a closed pre-proof with Der companions")
    return ProofGraph(pp)


def is_acyclic(g: ProofGraph) -> bool:
    """True iff the proof graph has no directed cycle.

    Tree edges alone close no cycle, so a cycle takes the edge from some
    bud's parent to its companion, and from there follows tree edges down
    to the parent of the next bud.  The graph is therefore cyclic iff its
    bud graph is: one step per bud, from bud b1 to every bud b2 whose
    parent is `xi[b1]` or lies below it.  To keep that graph linear in the
    buds, the step runs through the companions and bud parents as
    vertices: each is entered from its nearest such proper ancestor, and
    a bud's parent leads to the bud's companion.  Raises ValueError when
    the parent links close a cycle.
    """
    xi, parents = g.pre_proof.xi, g.pre_proof.tree.parents
    succs: dict[int, list[int]] = {c: [] for c in xi.values()}
    for b, c in xi.items():
        succs.setdefault(parents[b], []).append(c)
    above: dict[int, int | None] = {}  # other nodes: the nearest ancestor in succs
    for k in succs:
        path = []
        v = parents.get(k)
        for _ in parents:  # a longer walk up repeats a node
            if v is None or v in succs or v in above:
                break
            path.append(v)
            v = parents.get(v)
        else:
            raise ValueError("parent links close a cycle: not a tree")
        top = above.get(v, v)
        for u in path:
            above[u] = top
        if top is not None:
            succs[top].append(k)
    return next(cyclic_sccs(succs), None) is None


def graph_violations(ars: System, g: ProofGraph) -> list[str]:
    """Check the structural facts every proof graph must satisfy.

    Per-vertex checks: sources and targets are strictly increasing; edges
    into non-bottom vertices preserve the target; a ``Subs`` child source
    is contained in the parent's source minus target; every source state
    of a ``Der`` vertex has a successor in some child and every child state
    has a predecessor in the parent; ``Dis`` points only at bottom;
    ``Axiom`` vertices have empty source and no outedge.
    """
    problems = []
    succ_edges: dict[int, list[int]] = {v: [] for v in g.vertices}
    for a, b in g.edges:
        succ_edges[a].append(b)
    for v, kids in succ_edges.items():
        rule = g.rules.get(v)
        if rule is None:
            continue
        pv = g.predicates[v]
        if not (_increasing(pv.source) and _increasing(pv.target)):
            problems.append(f"{v}: source or target not strictly increasing")
        img = image(ars, pv.source) if rule is RuleName.DER else None
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
            if rule is RuleName.DER and not img.issuperset(pw.source):
                for t in filterfalse(img.__contains__, pw.source):
                    problems.append(f"{v}->{w}: Der child state {t} has no predecessor")
        if rule is RuleName.DER:
            # Runnable states whose successors all lie in the children pass.
            child_states = set().union(*(g.predicates[w].source for w in kids))
            if not child_states.issuperset(img) or not ars._nf.isdisjoint(pv.source):
                for s in pv.source:
                    if child_states.isdisjoint(ars.succs[s]):
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


def to_dot(ars: System, g: ProofGraph, out: TextIO | None = None) -> str | None:
    """Render the proof graph as deterministic DOT (byte-for-byte stable):
    written to the text stream `out` line by line, or returned as one
    string when `out` is None."""
    if out is None:
        return "".join(_dot_lines(ars, g))
    out.writelines(_dot_lines(ars, g))


def _dot_lines(ars: System, g: ProofGraph) -> Iterator[str]:
    order = {v: i for i, v in enumerate(g.vertices)}
    fmt = predicate_formatter(ars)
    preds, rules = g.predicates, g.rules
    yield "digraph proof {\n"
    for i, v in enumerate(g.vertices):
        pred = preds[v]
        if pred.is_bottom:
            yield f'  n{i} [label="BOT", shape=doublecircle];\n'
        else:
            yield f'  n{i} [label="{fmt(pred)}"];\n'
    edge_label = {rule: f' [label="{rule.value}"];\n' for rule in RuleName}
    for a, b in g.edges:
        yield f"  n{order[a]} -> n{order[b]}" + edge_label[rules[a]]
    yield "}\n"
