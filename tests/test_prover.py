import hashlib
import random
import re
from pathlib import Path

import pytest

from reachproof import (
    AprPredicate,
    Ars,
    DerivationTree,
    ExecutionPath,
    FinitePath,
    NodeBudgetExceeded,
    ProverConfig,
    RuleName,
    SplitStrategy,
    VerdictKind,
    canon,
    check_partial,
    check_total,
    extract_finite_counterexample,
    extract_lasso,
    is_acyclic,
    oracle_partial,
    oracle_total,
    parse_ars,
    predicate,
    proof_graph,
    prove,
    validate_pre_proof,
)
from reachproof import prover
from reachproof.ars import bfs_path
from reachproof.proofs import graph_violations
from reachproof.prover import Lasso, witness_violations
from reachproof.reductions import build_safety_query

from conftest import bench_workloads, random_ars, random_subset

EAGER = ProverConfig(strategy=SplitStrategy.EAGER)
MONO = ProverConfig(strategy=SplitStrategy.MONOLITHIC)
# Goals on the worked system giving a cyclic proof, an acyclic proof and,
# under MONO, a disproof.
VERDICT_GOALS = [((0,), (2, 3)), ((0, 1), (0, 1)), ((0,), (2,))]


def open_leaf_scans(monkeypatch, check, ars, goals):
    """The most `DerivationTree.open_leaves` calls made by one query."""
    calls = []
    scan = DerivationTree.open_leaves
    monkeypatch.setattr(DerivationTree, "open_leaves", lambda t: calls.append(t) or scan(t))
    most = 0
    for (source, target) in goals:
        for cfg in (EAGER, MONO):
            calls.clear()
            check(ars, predicate(source, target), cfg)
            most = max(most, len(calls))
    return most


class TestProveShapes:
    def test_eager_reproduces_worked_proof(self, a1):
        pp = prove(a1, predicate((0,), (2, 3)), EAGER)
        t = pp.tree
        assert pp.classification == "proof"
        assert t.node_count == 6
        assert pp.xi == {3: 0}
        assert t.rules == {0: RuleName.DER, 1: RuleName.SUBS, 2: RuleName.DER,
                           4: RuleName.SUBS, 5: RuleName.AXIOM}
        assert t.children == {0: (1,), 1: (2,), 2: (3, 4), 4: (5,), 5: ()}
        assert t.preds[1] == predicate((1, 3), (2, 3))
        assert t.preds[3] == t.preds[0]

    def test_monolithic_reproduces_worked_disproof(self, a1):
        pp = prove(a1, predicate((0,), (2,)), MONO)
        t = pp.tree
        assert pp.classification == "disproof"
        assert t.node_count == 3
        assert t.rules == {0: RuleName.DER, 1: RuleName.DIS}
        assert t.preds[1] == predicate((1, 3), (2,))
        assert t.preds[2].is_bottom

    def test_empty_source_is_axiom_proof(self, a1):
        pp = prove(a1, predicate((), (2,)), EAGER)
        assert pp.classification == "proof"
        assert pp.tree.node_count == 1
        assert pp.tree.rules == {0: RuleName.AXIOM}

    def test_bottom_rejected(self, a1):
        from reachproof import BOTTOM
        with pytest.raises(ValueError):
            prove(a1, BOTTOM)

    def test_budget_guard(self, a1):
        with pytest.raises(NodeBudgetExceeded):
            prove(a1, predicate((0,), (2, 3)), ProverConfig(node_budget=2))

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            ProverConfig(node_budget=0)

    def test_unknown_ids_rejected(self, a1):
        from reachproof import UnknownObjectError
        with pytest.raises(UnknownObjectError):
            prove(a1, predicate((9,), (2,)))

    def test_deterministic(self, a1):
        p1 = prove(a1, predicate((0, 1), (2,)), EAGER)
        p2 = prove(a1, predicate((0, 1), (2,)), EAGER)
        assert p1.tree.preds == p2.tree.preds
        assert p1.tree.rules == p2.tree.rules
        assert p1.tree.children == p2.tree.children
        assert p1.xi == p2.xi


class TestCheckPartial:
    def test_valid_example(self, a1):
        verdict = check_partial(a1, predicate((0,), (2, 3)), EAGER)
        assert verdict.kind is VerdictKind.PARTIALLY_VALID
        assert verdict.witness is None
        assert verdict.stats.nodes == 6

    def test_invalid_example_with_path(self, a1):
        verdict = check_partial(a1, predicate((0,), (2,)), EAGER)
        assert verdict.kind is VerdictKind.NOT_PARTIALLY_VALID
        assert verdict.witness.path.steps == (0, 3)

    def test_rule_counts(self, a1):
        verdict = check_partial(a1, predicate((0,), (2, 3)), EAGER)
        assert verdict.stats.rule_counts == {"Axiom": 1, "Subs": 2, "Der": 2, "Dis": 0}
        assert verdict.stats.buds == 1

    def test_one_open_leaf_scan_per_query(self, a1, monkeypatch):
        assert open_leaf_scans(monkeypatch, check_partial, a1, VERDICT_GOALS) <= 1


class TestCheckTotal:
    def test_cyclic_proof_gives_lasso(self, a1):
        verdict = check_total(a1, predicate((0,), (2, 3)), EAGER)
        assert verdict.kind is VerdictKind.NOT_TOTALLY_VALID
        assert isinstance(verdict.witness, Lasso)
        assert set(verdict.witness.cycle) == {0, 1}

    def test_source_in_target_is_totally_valid(self, a1):
        verdict = check_total(a1, predicate((0, 1), (0, 1)), EAGER)
        assert verdict.kind is VerdictKind.TOTALLY_VALID

    def test_disproof_gives_finite_path(self, a1):
        verdict = check_total(a1, predicate((0,), (2,)), MONO)
        assert verdict.kind is VerdictKind.NOT_TOTALLY_VALID
        assert verdict.witness.path.steps == (0, 3)

    def test_acyclic_chain_totally_valid(self):
        chain = Ars(["x", "y"], [(0, 1)])
        verdict = check_total(chain, predicate((0,), (1,)), EAGER)
        assert verdict.kind is VerdictKind.TOTALLY_VALID

    def test_one_open_leaf_scan_per_query(self, a1, monkeypatch):
        assert open_leaf_scans(monkeypatch, check_total, a1, VERDICT_GOALS) <= 1

    def test_total_verdict_is_the_partial_one_plus_the_cycle_test(self, a1):
        for (source, target) in VERDICT_GOALS:
            for cfg in (EAGER, MONO):
                vp = check_partial(a1, predicate(source, target), cfg)
                vt = check_total(a1, predicate(source, target), cfg)
                assert (vt.stats, vt.graph, vt.acyclic) == (vp.stats, vp.graph, vp.acyclic)
                assert vt.pre_proof.tree == vp.pre_proof.tree
                if vp.witness is not None:
                    assert (vt.kind, vt.witness) == (VerdictKind.NOT_TOTALLY_VALID, vp.witness)
                elif vp.acyclic:
                    assert (vt.kind, vt.witness) == (VerdictKind.TOTALLY_VALID, None)
                else:
                    assert vt.kind is VerdictKind.NOT_TOTALLY_VALID
                    assert vt.witness == extract_lasso(a1, predicate(source, target))


class TestExtractFiniteCounterexample:
    def test_worked_disproof(self, a1):
        pp = prove(a1, predicate((0,), (2,)), MONO)
        assert extract_finite_counterexample(a1, pp).steps == (0, 3)

    def test_source_already_stuck(self, a1):
        pp = prove(a1, predicate((3,), (2,)), MONO)
        assert extract_finite_counterexample(a1, pp).steps == (3,)

    def test_through_subs(self, a1):
        pp = prove(a1, predicate((1,), (0,)), MONO)
        assert extract_finite_counterexample(a1, pp).steps == (1, 2)

    def test_rejects_proofs(self, a1):
        pp = prove(a1, predicate((0,), (2, 3)), EAGER)
        with pytest.raises(ValueError):
            extract_finite_counterexample(a1, pp)

    def test_first_hits_are_the_smallest_predecessors(self):
        # A 3,000-state spine with a detour at every third state: the
        # disproof of {s0} => {} carries sources of up to 1,001 states.
        n = 3000
        edges = [(i, i + 1) for i in range(n - 1)] + [(i, i + 2) for i in range(0, n - 2, 3)]
        ars = Ars([f"s{i}" for i in range(n)], edges)
        pp = prove(ars, predicate((0,), ()), EAGER)
        assert max(len(p.source) for p in pp.tree.preds) == 1001
        assert extract_finite_counterexample(ars, pp).steps == _min_counterexample(ars, pp)


def _min_counterexample(ars, pp) -> tuple[int, ...]:
    """The finite witness as read off with whole-source `min` scans."""
    t = pp.tree
    node = min(v for v, r in t.rules.items() if r is RuleName.DIS)
    parents = t.parents
    chain = [min(s for s in t.preds[node].source if ars.is_normal_form(s))]
    while node != t.root:
        node = parents[node]
        if t.rules[node] is RuleName.DER:
            pred_state = min(s for s in t.preds[node].source if chain[-1] in ars.succs[s])
            if pred_state != chain[-1]:
                chain.append(pred_state)
    return tuple(reversed(chain))


class TestExtractLasso:
    def test_cycle_entered_at_source(self, a1):
        assert extract_lasso(a1, predicate((0,), (2, 3))) == Lasso((), (0, 1))

    def test_cycle_rotates_with_entry(self, a1):
        assert extract_lasso(a1, predicate((1,), (2, 3))) == Lasso((), (1, 0))

    def test_self_loop(self):
        loop = Ars(["x"], [(0, 0)])
        assert extract_lasso(loop, predicate((0,), ())) == Lasso((), (0,))

    def test_stem_into_cycle(self):
        ars = Ars(["s", "x", "y"], [(0, 1), (1, 2), (2, 1)])
        assert extract_lasso(ars, predicate((0,), ())) == Lasso((0,), (1, 2))

    def test_no_cycle_rejected(self, a1):
        with pytest.raises(ValueError):
            extract_lasso(a1, predicate((3,), (2,)))


class TestWitnessChecks:
    def test_lasso_violations_detected(self, a1):
        bad = Lasso((), (0, 2))  # no edge c -> a
        assert witness_violations(a1, predicate((0,), ()), bad)

    def test_lasso_in_target_detected(self, a1):
        assert witness_violations(a1, predicate((0,), (1,)), Lasso((), (0, 1)))

    @pytest.mark.parametrize("source, target, witness, problems", [
        ((0,), (), FinitePath(ExecutionPath((0, 2))), ["no edge a -> c"]),
        ((0,), (), FinitePath(ExecutionPath((0, 1))), ["maximal path ends at reducible b"]),
        ((0,), (2,), FinitePath(ExecutionPath((1, 0, 3))),
         ["path does not start in the source set"]),
        ((0,), (2,), FinitePath(ExecutionPath((0, 1, 2))), ["path touches the target set"]),
        ((0,), (2, 3), Lasso((), (1, 0)), ["lasso does not start in the source set"]),
        ((0,), (), Lasso((), (0, 2)), ["no edge a -> c", "cycle does not close"]),
        ((0,), (1,), Lasso((), (0, 1)), ["lasso touches the target set"]),
        # Well-formed witnesses, and every fault at once: the messages come
        # in the walk's order (start, edges, end, target).
        ((0,), (), FinitePath(ExecutionPath((0, 3))), []),
        ((0,), (), Lasso((), (0, 1)), []),
        ((0,), (3,), FinitePath(ExecutionPath((1, 3, 0))),
         ["path does not start in the source set", "no edge b -> d", "no edge d -> a",
          "maximal path ends at reducible a", "path touches the target set"]),
        ((0,), (2,), Lasso((1,), (3, 2)),
         ["lasso does not start in the source set", "no edge b -> d", "no edge d -> c",
          "cycle does not close", "lasso touches the target set"]),
        # Ids outside the table are reported before the walk, and nothing
        # else is checked: -1 is not read as d, which would make a valid run.
        ((0,), (), FinitePath(ExecutionPath((0, 5))),
         ["path has ids outside the object table: [5]"]),
        ((0,), (), Lasso((), (7,)), ["lasso has ids outside the object table: [7]"]),
        ((0,), (), FinitePath(ExecutionPath((0, -1))),
         ["path has ids outside the object table: [-1]"]),
    ])
    def test_each_problem_is_named(self, a1, source, target, witness, problems):
        assert witness_violations(a1, predicate(source, target), witness) == problems


def _verdict_matches_oracle(ars, pred, cfg):
    vp = check_partial(ars, pred, cfg)
    vt = check_total(ars, pred, cfg)
    assert (vp.kind is VerdictKind.PARTIALLY_VALID) == oracle_partial(ars, pred).valid
    assert (vt.kind is VerdictKind.TOTALLY_VALID) == oracle_total(ars, pred).valid
    for v in (vp, vt):
        if v.witness is not None:
            assert witness_violations(ars, pred, v.witness) == []
        assert validate_pre_proof(ars, v.pre_proof) == []
        assert v.graph == proof_graph(v.pre_proof)
        assert v.acyclic == is_acyclic(v.graph)
    return vp, vt


def test_random_agreement_and_strategy_independence():
    rng = random.Random(8261)
    for _ in range(150):
        ars = random_ars(rng)
        pred = AprPredicate(random_subset(rng, ars.n), random_subset(rng, ars.n))
        ep, et = _verdict_matches_oracle(ars, pred, EAGER)
        mp, mt = _verdict_matches_oracle(ars, pred, MONO)
        assert ep.kind == mp.kind
        assert et.kind == mt.kind


def test_termination_bound_on_random_inputs():
    # Node counts stay modest on small systems for both strategies.
    rng = random.Random(977)
    for _ in range(100):
        ars = random_ars(rng, max_states=6)
        pred = AprPredicate(random_subset(rng, ars.n), random_subset(rng, ars.n))
        for cfg in (EAGER, MONO):
            pp = prove(ars, pred, cfg)
            assert pp.tree.node_count <= 2 ** ars.n + 3 * ars.n + 2


def test_total_verdict_reuses_single_proof(a1):
    # The same tree backs both the partial and the total verdict.
    vp = check_partial(a1, predicate((0,), (2, 3)), EAGER)
    vt = check_total(a1, predicate((0,), (2, 3)), EAGER)
    assert vp.pre_proof.tree.preds == vt.pre_proof.tree.preds


def test_proof_graph_cyclic_iff_not_totally_valid():
    rng = random.Random(5523)
    for _ in range(120):
        ars = random_ars(rng, max_states=6)
        pred = AprPredicate(random_subset(rng, ars.n), random_subset(rng, ars.n))
        pp = prove(ars, pred, EAGER)
        if pp.classification != "proof":
            continue
        acyclic = is_acyclic(proof_graph(pp))
        assert acyclic == oracle_total(ars, pred).valid


def _acyclic_by_peeling(g) -> bool:
    """Reference cycle test over the edges: deleting, again and again, the
    vertices no edge enters deletes them all iff there is no cycle."""
    succs = {v: [] for v in g.vertices}
    entering = dict.fromkeys(g.vertices, 0)
    for a, b in g.edges:
        succs[a].append(b)
        entering[b] += 1
    free = [v for v, k in entering.items() if k == 0]
    deleted = 0
    while free:
        deleted += 1
        for w in succs[free.pop()]:
            entering[w] -= 1
            if entering[w] == 0:
                free.append(w)
    return deleted == len(entering)


def test_rings_workload_graphs_and_verdicts():
    """Every goal of the benchmark's `rings` workload (seeds 1 and 2, both
    strategies, both modes): the cycle test on the buds agrees with one over
    the built edges, the counts match the built tuples, and the verdict is
    the oracle's."""
    workloads = bench_workloads()
    checks = {"partial": (check_partial, oracle_partial, VerdictKind.PARTIALLY_VALID),
              "total": (check_total, oracle_total, VerdictKind.TOTALLY_VALID)}
    seen = set()
    for seed in (1, 2):
        plan = workloads.rings(Path("rings"), seed)
        for op in plan.ops:
            q = op.query
            ars = parse_ars(plan.files[q.system])
            pred = AprPredicate(ars.ids_of(q.source), ars.ids_of(q.target))
            cfg = ProverConfig(SplitStrategy(op.argv[op.argv.index("--strategy") + 1]))
            check, oracle, holds = checks[q.mode]
            verdict = check(ars, pred, cfg)
            g = verdict.graph
            assert is_acyclic(g) == verdict.acyclic == _acyclic_by_peeling(g), op.name
            assert (g.vertex_count, g.edge_count) == (len(g.vertices), len(g.edges)), op.name
            assert (verdict.kind is holds) == oracle(ars, pred).valid, op.name
            seen.add(verdict.acyclic)
    assert seen == {True, False}


def test_chains_far_goals_pass_every_checker():
    """Every far goal of the benchmark's `chains` workload (seed 1: a
    2,200-step spine per kind, both strategies, both modes) through the
    independent checkers: the verdicts are the generator's and the
    oracle's, the pre-proof validates, its proof graph has no structural
    fault, and the witness is of the expected kind and re-validates.  Both
    modes read one pre-proof: a total check is the partial one plus the
    cycle test."""
    plan = bench_workloads().chains(Path("chains"), 1)
    far = {}
    for op in plan.ops:
        if re.fullmatch(r"\w+-far-(partial|total)", op.name):
            far.setdefault(op.query.system, {})[op.query.mode] = op.query
    assert len(far) == 3
    for path, goals in far.items():
        ars = parse_ars(plan.files[path])
        q = goals["total"]
        pred = AprPredicate(ars.ids_of(q.source), ars.ids_of(q.target))
        for cfg in (EAGER, MONO):
            name = f"{path} {cfg.strategy.value}"
            verdict = check_total(ars, pred, cfg)
            assert verdict.kind.value == q.verdict, name
            assert (verdict.witness is None) == oracle_total(ars, pred).valid, name
            partial = verdict.pre_proof.classification != "disproof"
            assert partial == (goals["partial"].verdict == "PartiallyValid"), name
            assert partial == oracle_partial(ars, pred).valid, name
            assert validate_pre_proof(ars, verdict.pre_proof) == [], name
            assert graph_violations(ars, verdict.graph) == [], name
            kind = {None: type(None), "path": FinitePath, "lasso": Lasso}[q.witness]
            assert isinstance(verdict.witness, kind), name
            if q.witness is not None:
                assert witness_violations(ars, pred, verdict.witness) == [], name


def _mixed_system(rng: random.Random, n: int) -> Ars:
    """A spine s -> s+1 with, at rates drawn per system, stuck states,
    self-loops, jumps anywhere (fan-in where they land, cycles when they
    lead back) and extra successors (fan-out); about a third get a sink."""
    stuck, loop, jump, fan = (rng.choice(rates) for rates in
                              ((0, 0.02), (0, 0.03), (0, 0.03, 0.1), (0.05, 0.15)))
    edges = []
    for s in range(n - 1):
        r = rng.random()
        if r < stuck:
            continue
        if r < stuck + loop:
            edges.append((s, s))
        edges.append((s, rng.randrange(n) if rng.random() < jump else s + 1))
        if rng.random() < fan:
            edges += [(s, rng.randrange(n)) for _ in range(rng.randint(1, 2))]
    ars = Ars([f"s{i}" for i in range(n)], edges)
    if rng.random() < 0.3:
        ars = ars.with_sink("sink", rng.sample(range(n), 8), complement=rng.random() < 0.2)
    return ars


def test_differential_at_200_states():
    """Random systems of 120-200 states, some as safety queries, under both
    strategies: every pre-proof validates and holds canonical goals, its
    graph has no structural fault, both verdicts are the oracle's and every
    witness re-validates."""
    rng = random.Random(2021)
    kinds = set()
    for _ in range(60):
        ars = _mixed_system(rng, rng.randint(120, 200))
        source = canon(rng.sample(range(ars.n), rng.randint(1, 4)))
        target = {ars.n - 1, *rng.sample(range(ars.n), rng.randint(1, 6))}
        if rng.random() < 0.6:
            target.update(ars.normal_forms)
        pred = AprPredicate(source, canon(target))
        if rng.random() < 0.2:
            ars, pred = build_safety_query(ars, source, ars.normal_forms[:3] or (0,))
        for cfg in (EAGER, MONO):
            verdict = check_total(ars, pred, cfg)
            pp = verdict.pre_proof
            assert (pp.classification != "disproof") == oracle_partial(ars, pred).valid
            assert (verdict.witness is None) == oracle_total(ars, pred).valid
            assert validate_pre_proof(ars, pp) == []
            assert all(p.source == canon(p.source) for p in pp.tree.preds)
            assert graph_violations(ars, verdict.graph) == []
            if verdict.witness is not None:
                assert witness_violations(ars, pred, verdict.witness) == []
            kinds.add(type(verdict.witness).__name__)
    assert kinds == {"NoneType", "FinitePath", "Lasso"}


def _witness_mutants(rng, ars, w):
    """Single mutations of the valid witness `w`: the kind, the mutant, and
    a message `witness_violations` must give for it.  A path drops its last
    step, whose state is then a reducible end; dropping another step may
    leave a valid run."""
    n, labels = ars.n, ars.labels
    if isinstance(w, FinitePath):
        kind, walk = "path", w.path.steps
        rebuilt = lambda steps: FinitePath(ExecutionPath(steps))
    else:
        kind, walk = "lasso", w.stem + w.cycle
        rebuilt = lambda steps: Lasso(steps[:len(w.stem)], steps[len(w.stem):])
    i = rng.randrange(len(walk))
    for sign, far in (("too large", n + rng.randrange(3)), ("negative", -1 - rng.randrange(n))):
        yield (f"{kind} id {sign}", rebuilt(walk[:i] + (far,) + walk[i + 1:]),
               f"{kind} has ids outside the object table: [{far}]")
    if kind == "path":
        t = rng.randrange(n)
        yield ("step past the stuck end", rebuilt(walk + (t,)),
               f"no edge {labels[walk[-1]]} -> {labels[t]}")
        if len(walk) > 1:
            yield ("dropped step", rebuilt(walk[:-1]),
                   f"maximal path ends at reducible {labels[walk[-2]]}")
    elif opening := [t for t in range(n) if w.cycle[0] not in ars.succs[t]]:
        yield "open cycle", Lasso(w.stem, w.cycle + (rng.choice(opening),)), "cycle does not close"


def test_witness_mutations_on_the_200_state_corpus(monkeypatch):
    """Every witness of the 200-state differential corpus passes
    `witness_violations`, and each single mutation of it is reported
    without raising: a state replaced by an out-of-range or negative id, a
    dropped step, a step past a stuck end, and a lasso cycle that does not
    close."""
    cases = []
    check = witness_violations

    def recorded(ars, pred, witness):
        cases.append((ars, pred, witness))
        return check(ars, pred, witness)

    monkeypatch.setitem(globals(), "witness_violations", recorded)
    test_differential_at_200_states()
    rng = random.Random(2505)
    seen = set()
    for ars, pred, witness in cases:
        assert check(ars, pred, witness) == []
        for kind, mutant, message in _witness_mutants(rng, ars, witness):
            assert message in check(ars, pred, mutant), kind
            seen.add(kind)
    assert seen == {f"{kind} id {sign}" for kind in ("path", "lasso")
                    for sign in ("too large", "negative")} | {
        "step past the stuck end", "dropped step", "open cycle"}


def test_tree_parents_on_the_200_state_corpus(monkeypatch):
    """On every pre-proof of the 200-state differential corpus, the tree's
    parent table is `children` inverted with the root mapped to None, and
    `bfs_path` walks it from the root down to each leaf, one tree edge a
    step."""
    pre_proofs = []
    search = prover.prove

    def recorded(*args):
        pre_proofs.append(search(*args))
        return pre_proofs[-1]

    monkeypatch.setattr(prover, "prove", recorded)
    test_differential_at_200_states()
    assert len(pre_proofs) == 120
    for pp in pre_proofs:
        t = pp.tree
        inverse = {c: v for v, kids in t.children.items() for c in kids}
        assert t.parents == {**inverse, t.root: None}
        for v in range(t.node_count):
            if not t.children.get(v):
                path = bfs_path(t.parents, v)
                assert path[0] == t.root
                assert all(b in t.children[a] for a, b in zip(path, path[1:]))


def test_prove_steps_each_ruled_node_through_prover_premises(a1, monkeypatch):
    """`prove` looks up `prover.premises` for each goal it rules, where the
    benchmark's tracer wraps it: exactly one call per ruled node, in order."""
    calls = []
    step = prover.premises
    monkeypatch.setattr(prover, "premises",
                        lambda ars, pred, *rest: calls.append(pred) or step(ars, pred, *rest))
    ring, ring_pred = _ring_goal()
    for ars, pred in ((a1, predicate((0,), (2, 3))), (a1, predicate((0,), (2,))), (ring, ring_pred)):
        for cfg in (EAGER, MONO):
            calls.clear()
            t = prove(ars, pred, cfg).tree
            assert len(calls) == len(t.rules)
            assert calls == [t.preds[v] for v in t.rules]


def test_non_canonical_root_gives_the_canonical_proof(a1):
    for cfg in (EAGER, MONO):
        messy = prove(a1, AprPredicate((1, 0, 1), (3, 2)), cfg)
        clean = prove(a1, predicate((0, 1), (2, 3)), cfg)
        assert messy.tree.preds == clean.tree.preds
        assert messy.tree.rules == clean.tree.rules
        assert messy.tree.children == clean.tree.children
        assert messy.xi == clean.xi


def _ring_goal():
    """One source state fanning out to one token on each of the rings
    2, 3, 5, 7, 11; ring 11 leads back to the source and ring 5 exits into
    the target."""
    rings = (2, 3, 5, 7, 11)
    labels = ["s"] + [f"r{p}_{i}" for p in rings for i in range(p)] + ["x"]
    ix = {lab: i for i, lab in enumerate(labels)}
    edges = [(ix[f"r{p}_{i}"], ix[f"r{p}_{(i + 1) % p}"]) for p in rings for i in range(p)]
    edges += [(ix["s"], ix[f"r{p}_0"]) for p in rings]
    edges += [(ix["r11_2"], ix["s"]), (ix["r5_3"], ix["x"])]
    return Ars(labels, edges), predicate([ix["s"]], [ix["r11_5"], ix["x"]])


def _chain_goal():
    """A 61-state spine with two detours and one branch back into the
    singleton goals near the source, plus a back edge further on."""
    n = 60
    labels = [f"c{i}" for i in range(n + 1)] + [f"b{j}_{k}" for j in range(3) for k in range(4)]
    ix = {lab: i for i, lab in enumerate(labels)}
    edges = [(ix[f"c{i}"], ix[f"c{i + 1}"]) for i in range(n)]
    for j, (start, back) in enumerate(((5, 3), (20, 22), (41, 44))):
        prev = f"c{start}"
        for k in range(4):
            edges.append((ix[prev], ix[f"b{j}_{k}"]))
            prev = f"b{j}_{k}"
        edges.append((ix[prev], ix[f"c{back}"]))
    edges.append((ix["c50"], ix["c30"]))
    return Ars(labels, edges), predicate([ix["c0"]], [ix[f"c{n}"]])


def _digest(pp) -> str:
    t = pp.tree
    text = repr((t.preds, sorted((v, r.value) for v, r in t.rules.items()),
                 sorted(t.children.items()), sorted(pp.xi.items())))
    return hashlib.sha256(text.encode()).hexdigest()


# Recorded from the prover before its per-node work was made linear; the
# pre-proofs (nodes, rules, children, buds) must stay identical.
GOLDEN_PROOFS = {
    ("ring", "eager"): (262, "5e06118e79c21fb6b9d8f539876f97b387622cbb98446d1669b2927b3045909b"),
    ("ring", "monolithic"): (50, "b15dd8db8aa747b7b26a798b08509b7c7267901258ba05e13d3f635d881dff87"),
    ("chain", "eager"): (417, "212d4198032ca26ad4a52d4ad4c6968cad88b3ea40f0c23e7ebc577a02e858f9"),
    ("chain", "monolithic"): (199, "2d2693dfc05c19a7c64a8c1d8b6823519418cf5185520f6cf82a7971fb3b3c4e"),
}


@pytest.mark.parametrize("goal, strategy", sorted(GOLDEN_PROOFS))
def test_pre_proofs_match_golden_digest(goal, strategy):
    ars, pred = {"ring": _ring_goal, "chain": _chain_goal}[goal]()
    pp = prove(ars, pred, ProverConfig(strategy=SplitStrategy(strategy)))
    assert (pp.tree.node_count, _digest(pp)) == GOLDEN_PROOFS[goal, strategy]


def _recorded_repr(obj) -> str:
    """`repr(obj)` in the text the golden witnesses were recorded from, in
    which every `ExecutionPath` also printed its `is_maximal=True` flag."""
    return re.sub(r"(ExecutionPath\(steps=\([^)]*\))\)", r"\1, is_maximal=True)", repr(obj))


def _witness_digest(seed: int, count: int) -> tuple[dict[str, int], str]:
    """Every witness the oracle, both checks under both strategies, and
    `extract_lasso` give over a seeded corpus of random systems, hashed;
    plus how many of each kind the corpus produced."""
    rng = random.Random(seed)
    kinds = {"FinitePath": 0, "Lasso": 0, "valid": 0, "no cycle": 0}
    lines = []
    for _ in range(count):
        ars = random_ars(rng, max_states=12)
        pred = AprPredicate(random_subset(rng, ars.n), random_subset(rng, ars.n))
        # An answer was recorded with the `valid` flag it then stored.
        lines.extend(f"OracleAnswer(valid={a.valid}, witness={_recorded_repr(a.witness)})"
                     for a in (oracle_partial(ars, pred), oracle_total(ars, pred)))
        for cfg in (EAGER, MONO):
            for check in (check_partial, check_total):
                v = check(ars, pred, cfg)
                lines.append(f"{v.kind} {_recorded_repr(v.witness)} {v.acyclic}")
                kinds[type(v.witness).__name__ if v.witness else "valid"] += 1
        try:
            lines.append(repr(extract_lasso(ars, pred)))
        except ValueError as exc:
            lines.append(str(exc))
            kinds["no cycle"] += 1
    return kinds, hashlib.sha256("\n".join(lines).encode()).hexdigest()


# Recorded from the oracle and prover before the graph searches were
# merged into `ars.bfs`/`ars.cyclic_sccs`; every witness must stay identical.
GOLDEN_WITNESSES = (
    {"FinitePath": 768, "Lasso": 90, "valid": 742, "no cycle": 303},
    "a24ca0b2f5c566b7c54fdf812247422e87549a893a4ea19d8eb32795f5eb9d8b",
)


def test_witnesses_match_golden_digest():
    assert _witness_digest(4242, 400) == GOLDEN_WITNESSES
