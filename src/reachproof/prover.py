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

from collections import deque
from dataclasses import dataclass, replace
from enum import Enum

from .ars import (
    Ars,
    ExecutionPath,
    StateSet,
    avoiding_region,
    execution_path_violations,
)
from .proofs import (
    AprPredicate,
    DerivationTree,
    PreProof,
    ProofGraph,
    RuleName,
    SplitStrategy,
    is_acyclic,
    premises,
    proof_graph,
)


class NodeBudgetExceeded(RuntimeError):
    """The proof search created more nodes than the configured cap."""


@dataclass(frozen=True)
class ProverConfig:
    """Search knobs.  The companion policy is fixed: the earliest-created
    ``Der`` node with the identical predicate wins."""

    strategy: SplitStrategy = SplitStrategy.EAGER
    node_budget: int = 1_000_000

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


def prove(ars: Ars, pred: AprPredicate, cfg: ProverConfig | None = None) -> PreProof:
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
    companions: dict[AprPredicate, int] = {}
    fold_sources: set[StateSet] = set()
    queue: deque[int] = deque([0])

    while queue:
        v = queue.popleft()
        pv = preds[v]
        comp = companions.get(pv)
        if comp is not None:
            xi[v] = comp
            continue
        rule, kid_preds = premises(ars, pv, cfg.strategy, fold_sources)
        rules[v] = rule
        kid_ids = []
        for kp in kid_preds:
            if len(preds) >= cfg.node_budget:
                raise NodeBudgetExceeded(f"node budget {cfg.node_budget} exceeded")
            w = len(preds)
            preds.append(kp)
            kid_ids.append(w)
            if not kp.is_bottom:
                queue.append(w)
        children[v] = tuple(kid_ids)
        if rule is RuleName.DER:
            companions[pv] = v
            fold_sources.add(pv.source)

    return PreProof(DerivationTree(preds, rules, children, 0), xi)


def stats_of(pp: PreProof) -> ProofStats:
    counts = {r.value: 0 for r in RuleName}
    for rule in pp.tree.rules.values():
        counts[rule.value] += 1
    return ProofStats(nodes=pp.tree.node_count, buds=len(pp.xi), rule_counts=counts)


def _verdict(kind: VerdictKind, pp: PreProof, witness: Witness | None) -> Verdict:
    graph = proof_graph(pp)
    return Verdict(kind, pp, witness, stats_of(pp), graph, is_acyclic(graph))


def check_partial(ars: Ars, pred: AprPredicate, cfg: ProverConfig | None = None) -> Verdict:
    """Decide whether every finite run from the source reaches the target."""
    pp = prove(ars, pred, cfg)
    if pp.classification == "disproof":
        witness = FinitePath(extract_finite_counterexample(ars, pp))
        return _verdict(VerdictKind.NOT_PARTIALLY_VALID, pp, witness)
    return _verdict(VerdictKind.PARTIALLY_VALID, pp, None)


def check_total(ars: Ars, pred: AprPredicate, cfg: ProverConfig | None = None) -> Verdict:
    """Decide whether every run, finite or infinite, reaches the target.

    A single proof suffices: whenever the predicate is totally valid, the
    proof graph of any proof for it is acyclic, so no alternative proof
    search is ever needed.
    """
    pp = prove(ars, pred, cfg)
    if pp.classification == "disproof":
        witness: Witness = FinitePath(extract_finite_counterexample(ars, pp))
        return _verdict(VerdictKind.NOT_TOTALLY_VALID, pp, witness)
    verdict = _verdict(VerdictKind.TOTALLY_VALID, pp, None)
    if verdict.acyclic:
        return verdict
    return replace(verdict, kind=VerdictKind.NOT_TOTALLY_VALID, witness=extract_lasso(ars, pred))


def extract_finite_counterexample(ars: Ars, disproof: PreProof) -> ExecutionPath:
    """Read a maximal target-free run off the tree path into a ``Dis`` node.

    Walks from the earliest ``Dis`` node back to the root, choosing at each
    ``Der`` step a concrete predecessor (smallest id) and collapsing the
    reflexive steps contributed by ``Subs`` nodes.
    """
    t = disproof.tree
    dis_nodes = sorted(v for v, r in t.rules.items() if r is RuleName.DIS)
    if not dis_nodes:
        raise ValueError("pre-proof contains no Dis node")
    target_node = dis_nodes[0]
    parents = t.parent_map()
    path_nodes = [target_node]
    while path_nodes[-1] != t.root:
        path_nodes.append(parents[path_nodes[-1]])
    path_nodes.reverse()

    nf = set(ars.normal_forms)
    stuck = min(s for s in t.preds[target_node].source if s in nf)
    chain = [stuck]
    for node in reversed(path_nodes[:-1]):
        cur = chain[0]
        if t.rules[node] is RuleName.DER:
            pred_state = min(s for s in t.preds[node].source if cur in ars.succs[s])
            chain.insert(0, pred_state)
        else:  # Subs: the chosen state survives the subtraction unchanged
            chain.insert(0, cur)
    steps = [chain[0]]
    for s in chain[1:]:
        if s != steps[-1]:
            steps.append(s)
    return ExecutionPath(tuple(steps), is_maximal=True)


def _cyclic_vertices(succs: dict[int, list[int]]) -> set[int]:
    """Vertices on some directed cycle (SCC of size > 1, or a self-loop)."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    scc_stack: list[int] = []
    counter = 0
    cyclic: set[int] = set()
    for root in sorted(succs):
        if root in index:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, i = work[-1]
            if i == 0:
                index[v] = low[v] = counter
                counter += 1
                scc_stack.append(v)
                on_stack.add(v)
            advanced = False
            while i < len(succs[v]):
                w = succs[v][i]
                i += 1
                if w not in index:
                    work[-1] = (v, i)
                    work.append((w, 0))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = scc_stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                if len(comp) > 1 or v in succs[v]:
                    cyclic.update(comp)
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return cyclic


def extract_lasso(ars: Ars, pred: AprPredicate) -> Lasso:
    """Find a target-free infinite run, as a lasso, in the avoiding region.

    Deterministic: the cycle is entered at the region vertex with the
    shortest stem (ties broken by smallest id), and both stem and cycle are
    shortest by breadth-first search.
    """
    p = ars.check_members(pred.source)
    q = set(ars.check_members(pred.target))
    region = avoiding_region(ars, p, q)
    rset = set(region)
    succs = {v: [w for w in ars.succs[v] if w in rset] for v in region}
    cyclic = _cyclic_vertices(succs)
    if not cyclic:
        raise ValueError("no cycle in the avoiding region")

    seeds = [s for s in p if s in rset]
    dist = {s: 0 for s in seeds}
    parent: dict[int, int] = {}
    queue = deque(seeds)
    while queue:
        v = queue.popleft()
        for w in succs[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                parent[w] = v
                queue.append(w)
    entry = min(cyclic, key=lambda v: (dist[v], v))

    stem = []
    v = entry
    while v in parent:
        v = parent[v]
        stem.append(v)
    stem.reverse()

    # Shortest cycle through the entry vertex, inside the region.
    cdist = {}
    cparent = {}
    queue = deque()
    for w in succs[entry]:
        if w not in cdist:
            cdist[w] = 1
            cparent[w] = entry
            queue.append(w)
    if entry in cdist:  # self-loop
        return Lasso(tuple(stem), (entry,))
    closer = None
    while queue and closer is None:
        v = queue.popleft()
        if entry in succs[v]:
            closer = v
            break
        for w in succs[v]:
            if w not in cdist:
                cdist[w] = cdist[v] + 1
                cparent[w] = v
                queue.append(w)
    assert closer is not None, "cycle vertex lost its cycle"
    back = [closer]
    while back[-1] != entry:
        back.append(cparent[back[-1]])
    back.reverse()  # entry, ..., closer
    return Lasso(tuple(stem), tuple(back))


def witness_violations(ars: Ars, pred: AprPredicate, witness: Witness) -> list[str]:
    """Check a witness against the original query's invariants."""
    src = set(pred.source)
    tgt = set(pred.target)
    problems = []
    if isinstance(witness, FinitePath):
        problems.extend(execution_path_violations(ars, witness.path))
        if not witness.path.is_maximal:
            problems.append("finite counterexample must be maximal")
        if witness.path.steps[0] not in src:
            problems.append("path does not start in the source set")
        if any(s in tgt for s in witness.path.steps):
            problems.append("path touches the target set")
        return problems
    stem, cycle = witness.stem, witness.cycle
    head = stem[0] if stem else cycle[0]
    if head not in src:
        problems.append("lasso does not start in the source set")
    walk = list(stem) + list(cycle)
    for a, b in zip(walk, walk[1:]):
        if b not in ars.succs[a]:
            problems.append(f"no edge {ars.labels[a]} -> {ars.labels[b]}")
    if cycle[0] not in ars.succs[cycle[-1]]:
        problems.append("cycle does not close")
    if any(s in tgt for s in walk):
        problems.append("lasso touches the target set")
    return problems
