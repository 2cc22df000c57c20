import random
from collections.abc import Set as AbstractSet

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from reachproof import (
    BOTTOM,
    AprPredicate,
    Ars,
    UnknownObjectError,
    DerivationTree,
    PreProof,
    ProofGraph,
    ProverConfig,
    RuleName,
    SplitStrategy,
    canon,
    is_acyclic,
    predicate,
    premises,
    proof_graph,
    prove,
    to_dot,
    validate_pre_proof,
)
from reachproof.ars import bfs_path
from reachproof.proofs import graph_violations, predicate_formatter

from conftest import applicable_rules, random_ars, random_subset
from test_ars import ars_and_sets


def hand_built_proof(a1) -> PreProof:
    """The six-node worked proof of <{a}> => <{c,d}>, built by hand."""
    q = a1.ids_of(["c", "d"])
    preds = [
        AprPredicate(a1.ids_of(["a"]), q),
        AprPredicate(a1.ids_of(["b", "d"]), q),
        AprPredicate(a1.ids_of(["b"]), q),
        AprPredicate(a1.ids_of(["a"]), q),
        AprPredicate(a1.ids_of(["c"]), q),
        AprPredicate((), q),
    ]
    rules = {0: RuleName.DER, 1: RuleName.SUBS, 2: RuleName.DER,
             4: RuleName.SUBS, 5: RuleName.AXIOM}
    children = {0: (1,), 1: (2,), 2: (3, 4), 4: (5,), 5: ()}
    return PreProof(DerivationTree(preds, rules, children, 0), {3: 0})


def hand_built_disproof(a1) -> PreProof:
    q = a1.ids_of(["c"])
    preds = [
        AprPredicate(a1.ids_of(["a"]), q),
        AprPredicate(a1.ids_of(["b", "d"]), q),
        BOTTOM,
    ]
    rules = {0: RuleName.DER, 1: RuleName.DIS}
    children = {0: (1,), 1: (2,)}
    return PreProof(DerivationTree(preds, rules, children, 0), {})


def edited(a1, base: str, changes: dict) -> PreProof:
    """The worked `proof` or `disproof` of `a1` with `changes` made: a new
    `root`, nodes appended (`extra`), and entries of `preds`, `rules`,
    `children` and `xi` set, or deleted where the value is None."""
    return with_changes({"proof": hand_built_proof, "disproof": hand_built_disproof}[base](a1),
                        changes)


def with_changes(pp: PreProof, changes: dict) -> PreProof:
    """`pp` with `changes` made, as `edited` describes them."""
    t = pp.tree
    t.root = changes.get("root", t.root)
    t.preds.extend(changes.get("extra", ()))
    for name, table in (("preds", t.preds), ("rules", t.rules),
                        ("children", t.children), ("xi", pp.xi)):
        for k, v in changes.get(name, {}).items():
            if v is None:
                del table[k]
            else:
                table[k] = v
    return pp


Q = (2, 3)  # {c,d}, the target of the worked proof


class TestPredicate:
    def test_equality_is_extensional(self):
        assert predicate([2, 1, 1], [3]) == AprPredicate((1, 2), (3,))

    def test_bottom_is_special(self):
        assert BOTTOM != AprPredicate((), ())
        assert BOTTOM == AprPredicate((), (), is_bottom=True)

    def test_bottom_must_be_empty(self):
        with pytest.raises(ValueError):
            AprPredicate((1,), (), is_bottom=True)


class TestApplicableRule:
    def test_der_on_example(self, a1):
        assert premises(a1, predicate((0,), (2, 3)))[0] is RuleName.DER

    def test_axiom_on_empty_source(self, a1):
        assert premises(a1, predicate((), (1,)))[0] is RuleName.AXIOM

    def test_dis_on_stuck_source(self, a1):
        assert premises(a1, predicate((1, 3), (2,)))[0] is RuleName.DIS

    def test_subs_on_overlap(self, a1):
        assert premises(a1, predicate((1, 3), (2, 3)))[0] is RuleName.SUBS

    def test_bottom_rejected(self, a1):
        with pytest.raises(ValueError):
            premises(a1, BOTTOM)


@given(ars_and_sets(max_states=8))
def test_exactly_one_rule_applies(data):
    ars, p, q = data
    rules = applicable_rules(ars, AprPredicate(p, q))
    assert len(rules) == 1
    assert len([r for r in rules if r is not RuleName.DIS]) <= 1


@given(ars_and_sets(max_states=8), st.sampled_from(["source", "target"]),
       st.integers(-3, 3))
def test_premises_applies_the_applicable_rule(data, where, offset):
    ars, p, q = data
    pred = AprPredicate(p, q)
    (rule,) = applicable_rules(ars, pred)
    for fold_states in (frozenset(), frozenset(range(ars.n))):
        assert premises(ars, pred, fold_states)[0] is rule
    # Out-of-table ids are still rejected, by the fast check at the ends.
    bad = offset if offset < 0 else ars.n + offset
    if where == "source":
        pred = AprPredicate(canon(p + (bad,)), q)
    else:
        pred = AprPredicate(p, canon(q + (bad,)))
    for fold_states in (frozenset(), frozenset(range(ars.n))):
        with pytest.raises(UnknownObjectError):
            premises(ars, pred, fold_states)


class MembershipOnly(AbstractSet):
    """A set that answers ``in``, ``len`` and ``isdisjoint`` (the mixin
    tests each item of the other operand with ``in``) but refuses to be
    iterated, and so to be copied."""

    def __init__(self, items):
        self.items = frozenset(items)

    def __contains__(self, item):
        return item in self.items

    def __iter__(self):
        raise AssertionError("fold_states was iterated")

    def __len__(self):
        return len(self.items)


class TestPremises:
    def test_fold_sources_only_tested_with_in(self, a1):
        q = a1.ids_of(["c", "d"])
        rule, kids = premises(a1, AprPredicate((1,), q), fold_states=MembershipOnly([0]))
        assert rule is RuleName.DER
        assert kids == [AprPredicate((0,), q), AprPredicate((2,), q)]

    def test_eager_der_splits_off_companion_singletons(self, a1):
        # In-proof context: the goal for {a} is already a companion.
        q = a1.ids_of(["c", "d"])
        rule, kids = premises(a1, AprPredicate((1,), q), fold_states={0})
        assert rule is RuleName.DER
        assert kids == [AprPredicate((0,), q), AprPredicate((2,), q)]

    def test_eager_der_without_companions_is_one_block(self, a1):
        q = a1.ids_of(["c", "d"])
        rule, kids = premises(a1, AprPredicate((1,), q))
        assert rule is RuleName.DER
        assert kids == [AprPredicate((0, 2), q)]

    def test_subs_single_child(self, a1):
        q = a1.ids_of(["c", "d"])
        for fold_states in (frozenset(), frozenset(range(a1.n))):
            rule, kids = premises(a1, AprPredicate((1, 3), q), fold_states)
            assert rule is RuleName.SUBS
            assert kids == [AprPredicate((1,), q)]

    def test_subs_empty_difference(self, a1):
        q = a1.ids_of(["c", "d"])
        rule, kids = premises(a1, AprPredicate((2,), q))
        assert rule is RuleName.SUBS
        assert kids == [AprPredicate((), q)]

    def test_axiom_no_children(self, a1):
        assert premises(a1, predicate((), (1,))) == (RuleName.AXIOM, [])

    def test_dis_bottom_child(self, a1):
        rule, kids = premises(a1, predicate((1, 3), (2,)))
        assert rule is RuleName.DIS
        assert kids == [BOTTOM]

    @given(ars_and_sets(max_states=6))
    def test_children_cover_exactly(self, data):
        from reachproof import derivative
        ars, p, q = data
        pred = AprPredicate(p, q)
        for fold_states in (frozenset(), frozenset(range(0, ars.n, 2)), frozenset(range(ars.n))):
            rule, kids = premises(ars, pred, fold_states)
            assert all(k.target == q for k in kids if not k.is_bottom)
            union = set().union(*(set(k.source) for k in kids)) if kids else set()
            if rule is RuleName.SUBS:
                assert canon(union) == canon(set(p) - set(q))
            elif rule is RuleName.DER:
                assert canon(union) == derivative(ars, p)
                assert all(k.source for k in kids)


def reference_premises(ars, pred, fold_sources):
    """`premises` as a loop over single states, with the fold test on
    companion source tuples: the result the set-at-a-time steps must equal."""
    (rule,) = applicable_rules(ars, pred)
    p, q = pred.source, pred.target
    if rule is RuleName.AXIOM:
        return rule, []
    if rule is RuleName.SUBS:
        qs = set(q)
        return rule, [AprPredicate(tuple(s for s in p if s not in qs), q)]
    if rule is RuleName.DIS:
        return rule, [BOTTOM]
    succ_union = set()
    for s in p:
        succ_union.update(ars.succs[s])
    deriv = tuple(sorted(succ_union))
    matched, rest = [], []
    for t in deriv:
        (matched if (t,) in fold_sources else rest).append(t)
    parts = [AprPredicate((t,), q) for t in matched]
    if rest:
        parts.append(AprPredicate(tuple(rest), q))
    return rule, parts


@st.composite
def goals_for_each_rule(draw, max_states=40):
    """A system, a goal whose applicable rule is drawn first, a fold set and
    the sources of some other companions."""
    n = draw(st.integers(1, max_states))
    succs = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=3), min_size=n, max_size=n))
    ars = Ars([f"s{i}" for i in range(n)], [(s, t) for s in range(n) for t in succs[s]])
    # Each state in with probability one half, so sets are not all tiny.
    subset = st.lists(st.booleans(), min_size=n, max_size=n).map(
        lambda bits: tuple(i for i, bit in enumerate(bits) if bit))
    rule = draw(st.sampled_from(RuleName))
    q = draw(subset)
    free = [s for s in range(n) if s not in q]
    stuck = [s for s in free if ars.is_normal_form(s)]
    runnable = [s for s in free if not ars.is_normal_form(s)]
    if rule is RuleName.AXIOM:
        p = ()
    elif rule is RuleName.SUBS:
        assume(q)
        p = canon(draw(subset) + (draw(st.sampled_from(q)),))
    elif rule is RuleName.DER:
        assume(runnable)
        p = canon(draw(st.lists(st.sampled_from(runnable), min_size=1)))
    else:
        assume(stuck)
        p = canon(draw(st.lists(st.sampled_from(free))) + [draw(st.sampled_from(stuck))])
    return ars, AprPredicate(p, q), rule, draw(subset), draw(st.lists(subset, max_size=4))


@given(goals_for_each_rule())
def test_premises_matches_the_per_state_reference(case):
    ars, pred, rule, fold, others = case
    fold_sources = {(t,) for t in fold} | set(others)
    # Companions with other than one source state never take part in a split.
    fold_states = set(fold) | {s[0] for s in others if len(s) == 1}
    for sources, states in ((set(), frozenset()), (fold_sources, fold_states)):
        want = reference_premises(ars, pred, sources)
        assert want[0] is rule
        for target_set in (None, frozenset(pred.target)):
            assert premises(ars, pred, states, target_set) == want
        stop = frozenset(pred.target) | ars._nf
        assert premises(ars, pred, states, None, stop) == want
        assert premises(ars, pred, MembershipOnly(states), None, stop) == want


class TestValidation:
    def test_worked_proof_is_valid(self, a1):
        pp = hand_built_proof(a1)
        assert validate_pre_proof(a1, pp) == []
        assert pp.classification == "proof"

    def test_companion_must_be_der(self, a1):
        pp = hand_built_proof(a1)
        pp.xi[3] = 1  # points at a Subs node
        problems = validate_pre_proof(a1, pp)
        assert problems
        assert any("companion rule must be Der" in m for m in problems)

    def test_worked_disproof_is_valid(self, a1):
        pp = hand_built_disproof(a1)
        assert validate_pre_proof(a1, pp) == []
        assert pp.classification == "disproof"

    def test_bud_predicate_mismatch(self, a1):
        pp = hand_built_proof(a1)
        pp.tree.preds[3] = AprPredicate((1,), pp.tree.preds[3].target)
        problems = validate_pre_proof(a1, pp)
        assert any("predicates differ" in m for m in problems)

    def test_der_union_mismatch(self, a1):
        pp = hand_built_proof(a1)
        pp.tree.preds[1] = AprPredicate((1,), pp.tree.preds[1].target)
        problems = validate_pre_proof(a1, pp)
        assert any("union to the derivative" in m for m in problems)

    def test_open_pre_proof_reported_open(self, a1):
        pp = hand_built_proof(a1)
        del pp.xi[3]
        problems = validate_pre_proof(a1, pp)
        assert pp.classification == "open"
        assert not problems  # open is not a violation, just not closed

    def test_foreign_ids_reported_not_raised(self, a1):
        tree = DerivationTree([AprPredicate((9,), ())], {0: RuleName.DER}, {0: ()}, 0)
        problems = validate_pre_proof(a1, PreProof(tree, {}))
        assert problems
        assert any("outside object table" in m for m in problems)

    def test_overlapping_split_accepted(self):
        # x -> y, x -> z; a Der split {y,z} = {y} u {y,z} overlaps but is legal.
        ars = Ars(["x", "y", "z"], [(0, 1), (0, 2), (1, 0), (2, 0)])
        preds = [
            predicate((0,), ()),
            predicate((1,), ()),
            predicate((1, 2), ()),
        ]
        rules = {0: RuleName.DER}
        children = {0: (1, 2)}
        tree = DerivationTree(preds, rules, children, 0)
        problems = validate_pre_proof(ars, PreProof(tree, {}))
        assert not any("union" in m for m in problems)


# One malformed pre-proof per message of `validate_pre_proof`, except the
# four `TestValidation` names above: the worked pre-proof it is made from,
# the changes, and the violation it must report.
PRE_PROOF_FAULTS = [
    ("proof", {"root": 9}, "root 9 out of range"),
    ("proof", {"rules": {4: None}}, "node 4: children without a rule"),
    ("proof", {"children": {5: (9,)}}, "node 5: child id 9 out of range"),
    ("proof", {"children": {4: (5, 3)}}, "node 3: node has two parents"),
    ("proof", {"children": {5: None}}, "node 5: rule without a children entry"),
    ("proof", {"children": {5: (0,)}}, "node 0: root has a parent"),
    # A cycle back to node 1 gives node 1 a second parent: that is how the
    # checker reports it.
    ("proof", {"children": {5: (1,)}}, "node 1: node has two parents"),
    ("proof", {"rules": {9: RuleName.AXIOM}}, "node 9: node id out of range"),
    ("proof", {"rules": {-1: RuleName.AXIOM}, "children": {-1: ()}},
     "node -1: node id out of range"),
    ("proof", {"extra": [AprPredicate((0,), Q)]}, "1 nodes unreachable from root"),
    ("proof", {"preds": {5: BOTTOM}}, "node 5: rule applied to bottom"),
    ("proof", {"preds": {5: BOTTOM}}, "node 5: bottom child outside Dis"),
    ("proof", {"preds": {5: AprPredicate((), (2,))}},
     "node 5: child target differs from parent target"),
    ("proof", {"preds": {5: AprPredicate((2,), Q)}}, "node 5: Axiom with nonempty source"),
    ("proof", {"extra": [AprPredicate((), Q)], "children": {5: (6,)}},
     "node 5: Axiom with premises"),
    ("proof", {"rules": {2: RuleName.SUBS}}, "node 2: Subs without source/target overlap"),
    ("proof", {"children": {4: ()}}, "node 4: Subs needs at least one premise"),
    ("proof", {"preds": {1: AprPredicate((0, 1, 3), Q)}},
     "node 1: Subs children do not union to source minus target"),
    ("proof", {"extra": [AprPredicate((), Q)], "children": {1: (2, 6)}},
     "node 1: empty part in a split Subs"),
    ("proof", {"rules": {1: RuleName.DER}}, "node 1: Der with source/target overlap"),
    ("disproof", {"rules": {1: RuleName.DER}}, "node 1: Der on a non-runnable source"),
    ("proof", {"children": {2: ()}}, "node 2: Der needs at least one premise"),
    ("proof", {"extra": [AprPredicate((), Q)], "children": {2: (3, 4, 6)}},
     "node 2: empty part in a Der split"),
    ("proof", {"rules": {4: RuleName.DIS}}, "node 4: Dis side condition violated"),
    ("disproof", {"extra": [BOTTOM], "children": {1: (2, 3)}},
     "node 1: Dis premise must be the single bottom goal"),
    ("proof", {"extra": [BOTTOM]}, "node 6: bottom node not introduced by Dis"),
    ("proof", {"xi": {4: 0}}, "node 4: bud is not an open leaf"),
    ("proof", {"xi": {3: 9}}, "node 3: companion must be a non-open node"),
    ("proof", {"preds": {4: AprPredicate((2, 2), Q)}},
     "node 4: source or target not strictly increasing"),
]


@pytest.mark.parametrize("base, changes, message", PRE_PROOF_FAULTS,
                         ids=[m for *_, m in PRE_PROOF_FAULTS])
def test_validation_reports_each_fault(a1, base, changes, message):
    problems = validate_pre_proof(a1, edited(a1, base, changes))
    assert message in problems


def test_child_fault_names_its_own_child_past_an_out_of_range_id(a1):
    # The out-of-range id 9 comes first; node 4's fault must not be
    # reported for node 3, its neighbour in the children tuple.
    messages = validate_pre_proof(a1, edited(
        a1, "proof", {"children": {2: (9, 3, 4)}, "preds": {4: AprPredicate((2,), (2,))}}))
    assert "node 2: child id 9 out of range" in messages
    assert "node 4: child target differs from parent target" in messages
    assert not any(m.startswith("node 3:") for m in messages)


def test_second_parent_on_an_acyclic_tree_is_no_cycle(a1):
    # Node 3 hangs under node 2 and under node 4 as well: two parents, but
    # no node is its own ancestor.
    messages = validate_pre_proof(a1, edited(a1, "proof", {"children": {4: (5, 3)}}))
    assert "node 3: node has two parents" in messages
    assert not any("cycle" in m for m in messages)


def _mutants(rng, pp):
    """Copies of the prover's pre-proof `pp`, each with one structural
    fault: the kind of fault, the copy, and a message the checker must
    report for it."""
    t, n = pp.tree, pp.tree.node_count
    far = rng.choice([n + rng.randrange(3), -1 - rng.randrange(n + 2)])
    sign = "negative" if far < 0 else "too large"
    u = rng.choice(sorted(t.rules))
    a = rng.choice(bfs_path(t.parents, u))  # `u` or an ancestor, as a child of `u`
    edits = [
        (f"ruled id {sign}", {"rules": {far: t.rules[u]}, "children": {far: ()}},
         f"node {far}: node id out of range"),
        (f"child id {sign}", {"children": {u: t.children[u] + (far,)}},
         f"node {u}: child id {far} out of range"),
        ("cycle", {"children": {u: t.children[u] + (a,)}},
         f"node {a}: root has a parent" if a == t.root else f"node {a}: node has two parents"),
        ("no children entry", {"children": {u: None}}, f"node {u}: rule without a children entry"),
        ("no rule", {"rules": {u: None}}, f"node {u}: children without a rule"),
        ("orphan", {"extra": [t.preds[t.root]]}, "1 nodes unreachable from root"),
    ]
    if inner := [v for v in sorted(t.rules) if t.children[v]]:
        v = rng.choice(inner)
        c = rng.choice(t.children[v])
        edits.append(("duplicate child", {"children": {v: t.children[v] + (c,)}},
                      f"node {c}: node has two parents"))
    for kind, changes, message in edits:
        copy = DerivationTree(list(t.preds), dict(t.rules), dict(t.children), t.root)
        yield kind, with_changes(PreProof(copy, dict(pp.xi)), changes), message


def test_validation_reports_each_structural_mutation_of_prover_output():
    """On 300 random systems, the checker accepts the prover's pre-proofs
    and, without raising, reports every structural fault put into them: an
    out-of-range or negative ruled id or child id, a duplicate child, a
    child that closes a cycle, an orphan node, and a rule without a
    children entry or the reverse."""
    rng = random.Random(2404)
    seen = set()
    for _ in range(300):
        ars = random_ars(rng)
        pred = predicate(random_subset(rng, ars.n), random_subset(rng, ars.n))
        pp = prove(ars, pred, ProverConfig(strategy=rng.choice(list(SplitStrategy))))
        assert validate_pre_proof(ars, pp) == []
        for kind, mutant, message in _mutants(rng, pp):
            assert message in validate_pre_proof(ars, mutant)
            seen.add(kind)
    assert seen == {f"{what} id {sign}" for what in ("ruled", "child")
                    for sign in ("negative", "too large")} | {
        "cycle", "no children entry", "no rule", "orphan", "duplicate child"}


# One faulty proof graph per message of `graph_violations`, built as the
# view of an edited worked pre-proof.
GRAPH_FAULTS = [
    ("proof", {"preds": {5: BOTTOM}}, "4->5: bottom reached by Subs"),
    ("proof", {"preds": {5: AprPredicate((), (2,))}}, "4->5: target not preserved"),
    ("proof", {"preds": {2: AprPredicate((0, 1), Q)}},
     "1->2: Subs child escapes source minus target"),
    ("proof", {"preds": {1: AprPredicate((1, 2, 3), Q)}},
     "0->1: Der child state 2 has no predecessor"),
    ("proof", {"preds": {0: AprPredicate((0, 2), Q)}},
     "0: Der source state 2 has no successor in children"),
    ("disproof", {"preds": {2: AprPredicate((), (2,))}}, "1: Dis does not point at bottom"),
    ("proof", {"preds": {5: AprPredicate((2,), Q)}}, "5: Axiom with nonempty source"),
    ("proof", {"rules": {4: RuleName.AXIOM}}, "4: Axiom with an outedge"),
    ("proof", {"preds": {1: AprPredicate((3, 1), Q)}},
     "1: source or target not strictly increasing"),
]


@pytest.mark.parametrize("base, changes, message", GRAPH_FAULTS,
                         ids=[m for *_, m in GRAPH_FAULTS])
def test_graph_violations_reports_each_fault(a1, base, changes, message):
    assert message in graph_violations(a1, ProofGraph(edited(a1, base, changes)))


def test_graph_violations_skips_ruled_nodes_off_the_graph(a1):
    # Node 6, an Axiom the root does not reach, is no vertex of the graph.
    pp = edited(a1, "proof", {"extra": [AprPredicate((), Q)], "rules": {6: RuleName.AXIOM},
                              "children": {6: ()}})
    g = proof_graph(pp)
    assert 6 not in g.vertices
    assert graph_violations(a1, g) == []


def assert_counts(g) -> None:
    """The counts read off the buds match the built tuples."""
    assert (g.vertex_count, g.edge_count) == (len(g.vertices), len(g.edges))


class TestProofGraph:
    def test_worked_proof_graph(self, a1):
        g = proof_graph(hand_built_proof(a1))
        assert g.vertices == (0, 1, 2, 4, 5)
        assert set(g.edges) == {(0, 1), (1, 2), (2, 0), (2, 4), (4, 5)}
        assert_counts(g)
        assert not is_acyclic(g)

    def test_axiom_only_graph(self, a1):
        pp = prove(a1, predicate((), (2,)))
        g = proof_graph(pp)
        assert len(g.vertices) == 1
        assert g.edges == ()
        assert_counts(g)
        assert is_acyclic(g)

    def test_parallel_edges_collapse(self):
        # x -> x; the Der split {x} = {x} u {x} makes two buds on one
        # companion, which are one edge of the graph.
        ars = Ars(["x"], [(0, 0)])
        preds = [predicate((0,), ())] * 3
        pp = PreProof(DerivationTree(preds, {0: RuleName.DER}, {0: (1, 2)}, 0), {1: 0, 2: 0})
        assert validate_pre_proof(ars, pp) == []
        g = proof_graph(pp)
        assert (g.vertices, g.edges) == ((0,), ((0, 0),))
        assert_counts(g)
        assert not is_acyclic(g)

    def test_bud_with_children_rejected(self, a1):
        pp = hand_built_proof(a1)
        pp.xi[2] = 0
        with pytest.raises(ValueError):
            proof_graph(pp)

    def test_open_pre_proof_rejected(self, a1):
        pp = hand_built_proof(a1)
        del pp.xi[3]
        with pytest.raises(ValueError):
            proof_graph(pp)

    def test_bottom_bud_rejected(self, a1):
        pp = hand_built_disproof(a1)
        pp.xi[2] = 0
        with pytest.raises(ValueError):
            proof_graph(pp)

    def test_out_of_range_bud_rejected(self, a1):
        pp = hand_built_disproof(a1)
        pp.xi[7] = 0
        with pytest.raises(ValueError):
            proof_graph(pp)

    def test_bud_that_is_no_child_rejected(self, a1):
        # An open leaf with a Der companion but no parent, so no edge leads
        # to it: node 2, off the tree, or the root itself.
        goal, done = predicate((0,), (2,)), predicate((), (2,))
        off_tree = DerivationTree([goal, done, goal], {0: RuleName.DER, 1: RuleName.AXIOM},
                                  {0: (1,), 1: ()}, 0)
        root_bud = DerivationTree([goal, goal], {1: RuleName.DER}, {1: ()}, 0)
        for pp in (PreProof(off_tree, {2: 0}), PreProof(root_bud, {0: 1})):
            with pytest.raises(ValueError):
                proof_graph(pp)

    def test_out_of_range_companion_rejected(self, a1):
        pp = hand_built_proof(a1)
        pp.xi[3] = 9
        with pytest.raises(ValueError):
            proof_graph(pp)

    def test_open_leaf_companion_rejected(self):
        # Both leaves are buds, and the first one's companion is the other.
        pred = predicate((0,), (2,))
        tree = DerivationTree([pred] * 3, {0: RuleName.DER}, {0: (1, 2)}, 0)
        with pytest.raises(ValueError):
            proof_graph(PreProof(tree, {1: 2, 2: 0}))

    def test_bud_as_its_own_companion_rejected(self):
        tree = DerivationTree([predicate((0,), (2,))], {}, {}, 0)
        with pytest.raises(ValueError):
            proof_graph(PreProof(tree, {0: 0}))

    def test_walks_of_a_der_cycle_without_buds_raise(self, a1):
        # Nodes 1 and 2 are each other's child: no open leaf and so no bud,
        # which `proof_graph` accepts, but no walk of it may loop forever.
        tree = DerivationTree([predicate((0,), ())] * 3, dict.fromkeys(range(3), RuleName.DER),
                              {0: (1,), 1: (2,), 2: (1,)}, 0)
        g = proof_graph(PreProof(tree, {}))
        for walk in (lambda: g.vertices, lambda: to_dot(a1, g), lambda: graph_violations(a1, g)):
            with pytest.raises(ValueError):
                walk()

    def test_cycle_test_on_parent_links_that_cycle_raises(self):
        # Nodes 1 and 2 are each other's parent above companion 3 of bud 4:
        # the walk up from node 3 never meets the root.
        tree = DerivationTree([predicate((0,), ())] * 5, dict.fromkeys(range(4), RuleName.DER),
                              {0: (), 1: (2, 3), 2: (1,), 3: (4,)}, 0)
        with pytest.raises(ValueError):
            is_acyclic(proof_graph(PreProof(tree, {4: 3})))

    def test_companion_ruled_by_subs_rejected(self, a1):
        pp = hand_built_proof(a1)
        pp.xi[3] = 1
        with pytest.raises(ValueError):
            proof_graph(pp)

    def test_empty_graph_acyclic(self):
        from reachproof.proofs import ProofGraph
        g = ProofGraph(PreProof(DerivationTree([], {}, {}), {}))
        assert is_acyclic(g)
        assert_counts(g)

    def test_disproof_graph_includes_bottom(self, a1):
        g = proof_graph(hand_built_disproof(a1))
        assert len(g.vertices) == 3
        assert g.predicates[2].is_bottom
        assert_counts(g)
        assert is_acyclic(g)

    def test_worked_graphs_satisfy_structural_facts(self, a1):
        for pp in (hand_built_proof(a1), hand_built_disproof(a1)):
            assert graph_violations(a1, proof_graph(pp)) == []

    def test_tables_are_the_trees_own(self, a1):
        for pp in (hand_built_proof(a1), hand_built_disproof(a1),
                   prove(a1, predicate((0,), (2, 3)))):
            g = proof_graph(pp)
            assert g.predicates is pp.tree.preds
            assert g.rules is pp.tree.rules


class TestDotExport:
    EXPECTED = """\
digraph proof {
  n0 [label="{a} => {c,d}"];
  n1 [label="{b,d} => {c,d}"];
  n2 [label="{b} => {c,d}"];
  n3 [label="{c} => {c,d}"];
  n4 [label="{} => {c,d}"];
  n0 -> n1 [label="Der"];
  n1 -> n2 [label="Subs"];
  n2 -> n0 [label="Der"];
  n2 -> n3 [label="Der"];
  n3 -> n4 [label="Subs"];
}
"""

    def test_exact_bytes(self, a1):
        g = proof_graph(hand_built_proof(a1))
        assert to_dot(a1, g) == self.EXPECTED
        assert to_dot(a1, g) == to_dot(a1, g)

    def test_bottom_rendered_doublecircle(self, a1):
        dot = to_dot(a1, proof_graph(hand_built_disproof(a1)))
        assert 'label="BOT", shape=doublecircle' in dot

    def test_format_predicate(self, a1):
        assert predicate_formatter(a1)(predicate((0,), (2, 3))) == "{a} => {c,d}"

    def test_formatter_renders_each_goal_like_format_predicate(self, a1):
        # Equal targets in distinct tuples, a change of target, and bottom.
        goals = [predicate((0,), (2, 3)), predicate((1, 3), (2, 3)), BOTTOM,
                 predicate((), (1,)), predicate((0, 1), (2, 3))]
        fmt = predicate_formatter(a1)
        assert [fmt(g) for g in goals] == [predicate_formatter(a1)(g) for g in goals]

    def test_labels_with_every_admitted_punctuation_print_verbatim(self):
        # Labels admit _ . < > , - besides letters and digits, and none of
        # them needs escaping inside a quoted DOT label.
        ars = Ars(["a_1", "b.2", "<c,d>", "e-f"], [(0, 1), (1, 2)])
        dot = to_dot(ars, proof_graph(prove(ars, AprPredicate((0,), (3,)))))
        assert dot == """\
digraph proof {
  n0 [label="{a_1} => {e-f}"];
  n1 [label="{b.2} => {e-f}"];
  n2 [label="{<c,d>} => {e-f}"];
  n3 [label="BOT", shape=doublecircle];
  n0 -> n1 [label="Der"];
  n1 -> n2 [label="Der"];
  n2 -> n3 [label="Dis"];
}
"""


def _reach(succs, starts) -> set:
    out, todo = set(), list(starts)
    while todo:
        v = todo.pop()
        if v not in out:
            out.add(v)
            todo.extend(succs[v])
    return out


def test_is_acyclic_agrees_with_brute_force_on_the_fuzz_corpus():
    """The random corpus of the prover's oracle-agreement test, both
    strategies: a proof graph is acyclic iff no vertex is reachable from one
    of its own successors."""
    rng = random.Random(8261)
    seen = set()
    for _ in range(150):
        ars = random_ars(rng)
        pred = predicate(random_subset(rng, ars.n), random_subset(rng, ars.n))
        for strategy in SplitStrategy:
            g = proof_graph(prove(ars, pred, ProverConfig(strategy=strategy)))
            succs = {v: [] for v in g.vertices}
            for a, b in g.edges:
                succs[a].append(b)
            cyclic = any(v in _reach(succs, succs[v]) for v in g.vertices)
            assert is_acyclic(g) == (not cyclic)
            assert_counts(g)
            seen.add(cyclic)
    assert seen == {True, False}


def test_cycle_test_and_counts_on_random_trees():
    """Random trees with shuffled ids, each bud on a random inner node (not
    only an ancestor, and several buds of one parent on one companion): the
    cycle test on the buds agrees with brute force over the built edges,
    and the counts with the built tuples."""
    rng = random.Random(1)
    seen = set()
    for _ in range(3000):
        n = rng.randint(1, 14)
        order = rng.sample(range(n), n)
        children: dict[int, tuple[int, ...]] = {}
        for i in range(1, n):
            parent = order[rng.randrange(i)]
            children[parent] = children.get(parent, ()) + (order[i],)
        xi = {}
        for v in range(n):
            if v not in children and v != order[0] and children and rng.random() < 0.7:
                xi[v] = rng.choice(list(children))
        children.update({v: () for v in range(n) if v not in children and v not in xi})
        preds = [AprPredicate((), ())] * n
        tree = DerivationTree(preds, dict.fromkeys(children, RuleName.DER), children, order[0])
        g = proof_graph(PreProof(tree, xi))
        succs = {v: [] for v in g.vertices}
        for a, b in g.edges:
            succs[a].append(b)
        cyclic = any(v in _reach(succs, succs[v]) for v in g.vertices)
        assert is_acyclic(g) == (not cyclic)
        assert_counts(g)
        seen.add(cyclic)
    assert seen == {True, False}
