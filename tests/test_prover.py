import hashlib
import random

import pytest

from reachproof import (
    AprPredicate,
    Ars,
    NodeBudgetExceeded,
    ProverConfig,
    RuleName,
    SplitStrategy,
    VerdictKind,
    check_partial,
    check_total,
    extract_finite_counterexample,
    extract_lasso,
    is_acyclic,
    oracle_partial,
    oracle_total,
    predicate,
    proof_graph,
    prove,
    validate_pre_proof,
)
from reachproof.prover import Lasso, witness_violations

from conftest import random_ars, random_subset

EAGER = ProverConfig(strategy=SplitStrategy.EAGER)
MONO = ProverConfig(strategy=SplitStrategy.MONOLITHIC)


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


def _verdict_matches_oracle(ars, pred, cfg):
    vp = check_partial(ars, pred, cfg)
    vt = check_total(ars, pred, cfg)
    assert (vp.kind is VerdictKind.PARTIALLY_VALID) == oracle_partial(ars, pred).valid
    assert (vt.kind is VerdictKind.TOTALLY_VALID) == oracle_total(ars, pred).valid
    for v in (vp, vt):
        if v.witness is not None:
            assert witness_violations(ars, pred, v.witness) == []
        assert validate_pre_proof(ars, v.pre_proof).ok
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
