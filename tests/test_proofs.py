import pytest
from hypothesis import given
from hypothesis import strategies as st

from reachproof import (
    BOTTOM,
    AprPredicate,
    Ars,
    UnknownObjectError,
    DerivationTree,
    PreProof,
    RuleName,
    SplitStrategy,
    applicable_rule,
    canon,
    is_acyclic,
    predicate,
    premises,
    proof_graph,
    prove,
    to_dot,
    validate_pre_proof,
)
from reachproof.proofs import applicable_rules, format_predicate, graph_violations

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
        assert applicable_rule(a1, predicate((0,), (2, 3))) is RuleName.DER

    def test_axiom_on_empty_source(self, a1):
        assert applicable_rule(a1, predicate((), (1,))) is RuleName.AXIOM

    def test_dis_on_stuck_source(self, a1):
        assert applicable_rule(a1, predicate((1, 3), (2,))) is RuleName.DIS

    def test_subs_on_overlap(self, a1):
        assert applicable_rule(a1, predicate((1, 3), (2, 3))) is RuleName.SUBS

    def test_bottom_rejected(self, a1):
        with pytest.raises(ValueError):
            applicable_rule(a1, BOTTOM)


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
    assert applicable_rule(ars, pred) is rule
    for strategy in SplitStrategy:
        assert premises(ars, pred, strategy)[0] is rule
    # Out-of-table ids are still rejected, by the fast check at the ends.
    bad = offset if offset < 0 else ars.n + offset
    if where == "source":
        pred = AprPredicate(canon(p + (bad,)), q)
    else:
        pred = AprPredicate(p, canon(q + (bad,)))
    with pytest.raises(UnknownObjectError):
        applicable_rule(ars, pred)
    for strategy in SplitStrategy:
        with pytest.raises(UnknownObjectError):
            premises(ars, pred, strategy)


class MembershipOnly:
    """A container that answers ``in`` but refuses to be iterated."""

    def __init__(self, items):
        self.items = set(items)

    def __contains__(self, item):
        return item in self.items

    def __iter__(self):
        raise AssertionError("fold_sources was iterated")


class TestPremises:
    def test_fold_sources_only_tested_with_in(self, a1):
        q = a1.ids_of(["c", "d"])
        rule, kids = premises(a1, AprPredicate((1,), q), SplitStrategy.EAGER,
                              fold_sources=MembershipOnly([(0,)]))
        assert rule is RuleName.DER
        assert kids == [AprPredicate((0,), q), AprPredicate((2,), q)]

    def test_eager_der_splits_off_companion_singletons(self, a1):
        # In-proof context: the goal for {a} is already a companion.
        q = a1.ids_of(["c", "d"])
        rule, kids = premises(a1, AprPredicate((1,), q), SplitStrategy.EAGER,
                              fold_sources=[(0,)])
        assert rule is RuleName.DER
        assert kids == [AprPredicate((0,), q), AprPredicate((2,), q)]

    def test_eager_der_without_companions_is_one_block(self, a1):
        q = a1.ids_of(["c", "d"])
        rule, kids = premises(a1, AprPredicate((1,), q), SplitStrategy.EAGER)
        assert rule is RuleName.DER
        assert kids == [AprPredicate((0, 2), q)]

    def test_subs_single_child(self, a1):
        q = a1.ids_of(["c", "d"])
        for strategy in SplitStrategy:
            rule, kids = premises(a1, AprPredicate((1, 3), q), strategy)
            assert rule is RuleName.SUBS
            assert kids == [AprPredicate((1,), q)]

    def test_subs_empty_difference(self, a1):
        q = a1.ids_of(["c", "d"])
        rule, kids = premises(a1, AprPredicate((2,), q), SplitStrategy.EAGER)
        assert rule is RuleName.SUBS
        assert kids == [AprPredicate((), q)]

    def test_axiom_no_children(self, a1):
        assert premises(a1, predicate((), (1,)), SplitStrategy.EAGER) == (RuleName.AXIOM, [])

    def test_dis_bottom_child(self, a1):
        rule, kids = premises(a1, predicate((1, 3), (2,)), SplitStrategy.MONOLITHIC)
        assert rule is RuleName.DIS
        assert kids == [BOTTOM]

    @given(ars_and_sets(max_states=6))
    def test_children_cover_exactly(self, data):
        from reachproof import derivative
        ars, p, q = data
        pred = AprPredicate(p, q)
        for strategy in SplitStrategy:
            rule, kids = premises(ars, pred, strategy)
            assert all(k.target == q for k in kids if not k.is_bottom)
            union = set().union(*(set(k.source) for k in kids)) if kids else set()
            if rule is RuleName.SUBS:
                assert canon(union) == canon(set(p) - set(q))
            elif rule is RuleName.DER:
                assert canon(union) == derivative(ars, p)
                assert all(k.source for k in kids)


class TestValidation:
    def test_worked_proof_is_valid(self, a1):
        report = validate_pre_proof(a1, hand_built_proof(a1))
        assert report.ok
        assert report.classification == "proof"

    def test_companion_must_be_der(self, a1):
        pp = hand_built_proof(a1)
        pp.xi[3] = 1  # points at a Subs node
        report = validate_pre_proof(a1, pp)
        assert not report.ok
        assert any("companion rule must be Der" in str(v) for v in report.violations)

    def test_worked_disproof_is_valid(self, a1):
        report = validate_pre_proof(a1, hand_built_disproof(a1))
        assert report.ok
        assert report.classification == "disproof"

    def test_bud_predicate_mismatch(self, a1):
        pp = hand_built_proof(a1)
        pp.tree.preds[3] = AprPredicate((1,), pp.tree.preds[3].target)
        report = validate_pre_proof(a1, pp)
        assert any("predicates differ" in str(v) for v in report.violations)

    def test_der_union_mismatch(self, a1):
        pp = hand_built_proof(a1)
        pp.tree.preds[1] = AprPredicate((1,), pp.tree.preds[1].target)
        report = validate_pre_proof(a1, pp)
        assert any("union to the derivative" in str(v) for v in report.violations)

    def test_open_pre_proof_reported_open(self, a1):
        pp = hand_built_proof(a1)
        del pp.xi[3]
        report = validate_pre_proof(a1, pp)
        assert report.classification == "open"
        assert report.ok  # open is not a violation, just not closed

    def test_foreign_ids_reported_not_raised(self, a1):
        tree = DerivationTree([AprPredicate((9,), ())], {0: RuleName.DER}, {0: ()}, 0)
        report = validate_pre_proof(a1, PreProof(tree, {}))
        assert not report.ok
        assert any("outside object table" in str(v) for v in report.violations)

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
        report = validate_pre_proof(ars, PreProof(tree, {}))
        assert not any("union" in str(v) for v in report.violations)


class TestProofGraph:
    def test_worked_proof_graph(self, a1):
        g = proof_graph(hand_built_proof(a1))
        assert g.vertices == (0, 1, 2, 4, 5)
        assert set(g.edges) == {(0, 1), (1, 2), (2, 0), (2, 4), (4, 5)}
        assert not is_acyclic(g)

    def test_axiom_only_graph(self, a1):
        pp = prove(a1, predicate((), (2,)))
        g = proof_graph(pp)
        assert len(g.vertices) == 1
        assert g.edges == ()
        assert is_acyclic(g)

    def test_open_pre_proof_rejected(self, a1):
        pp = hand_built_proof(a1)
        del pp.xi[3]
        with pytest.raises(ValueError):
            proof_graph(pp)

    def test_empty_graph_acyclic(self):
        from reachproof.proofs import ProofGraph
        assert is_acyclic(ProofGraph((), {}, {}, ()))

    def test_disproof_graph_includes_bottom(self, a1):
        g = proof_graph(hand_built_disproof(a1))
        assert len(g.vertices) == 3
        assert g.predicates[2].is_bottom
        assert is_acyclic(g)

    def test_worked_graphs_satisfy_structural_facts(self, a1):
        for pp in (hand_built_proof(a1), hand_built_disproof(a1)):
            assert graph_violations(a1, proof_graph(pp)) == []


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
        assert format_predicate(a1, predicate((0,), (2, 3))) == "{a} => {c,d}"
