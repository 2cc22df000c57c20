"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; each test also carries its criterion number in its name.
"""

import random
import time
from dataclasses import dataclass, field

import pytest

from reachproof import (
    AprPredicate,
    ProverConfig,
    RuleName,
    SplitStrategy,
    VerdictKind,
    augment_any,
    augment_error,
    canon,
    check_partial,
    check_total,
    eval_state_predicate,
    is_acyclic,
    oracle_partial,
    oracle_total,
    predicate,
    proof_graph,
    prove,
    reachable,
    validate_safety_predicate,
)
from reachproof.cli import main
from reachproof.proofs import applicable_rules, graph_violations
from reachproof.prover import Lasso, witness_violations

from conftest import random_ars, random_subset

EAGER = ProverConfig(strategy=SplitStrategy.EAGER)
MONO = ProverConfig(strategy=SplitStrategy.MONOLITHIC)


def _passed(number: int, name: str) -> None:
    print(f"criterion {number:2d} ({name}): PASS")


@dataclass
class FuzzCorpus:
    trials: int = 0
    elapsed: float = 0.0
    verdict_mismatches: list = field(default_factory=list)
    witness_problems: list = field(default_factory=list)
    rule_uniqueness_violations: list = field(default_factory=list)
    graph_problems: list = field(default_factory=list)
    graphs_checked: int = 0
    predicates_checked: int = 0


@pytest.fixture(scope="module")
def corpus() -> FuzzCorpus:
    """Criterion 6 corpus: 1,000 random instances, both strategies, both
    modes; shared by criteria 6-8 so the search runs once."""
    rng = random.Random(0xACCE97)
    out = FuzzCorpus()
    started = time.perf_counter()
    for trial in range(1000):
        ars = random_ars(rng, max_states=8)
        pred = AprPredicate(random_subset(rng, ars.n), random_subset(rng, ars.n))
        expect_partial = oracle_partial(ars, pred).valid
        expect_total = oracle_total(ars, pred).valid
        for cfg in (EAGER, MONO):
            vp = check_partial(ars, pred, cfg)
            vt = check_total(ars, pred, cfg)
            if (vp.kind is VerdictKind.PARTIALLY_VALID) != expect_partial:
                out.verdict_mismatches.append((trial, cfg.strategy, "partial"))
            if (vt.kind is VerdictKind.TOTALLY_VALID) != expect_total:
                out.verdict_mismatches.append((trial, cfg.strategy, "total"))
            for verdict in (vp, vt):
                if verdict.witness is not None:
                    problems = witness_violations(ars, pred, verdict.witness)
                    if problems:
                        out.witness_problems.append((trial, cfg.strategy, problems))
            # Criterion 7: rule uniqueness over every encountered predicate.
            for node_pred in {p for p in vp.pre_proof.tree.preds if not p.is_bottom}:
                rules = applicable_rules(ars, node_pred)
                non_dis = [r for r in rules if r is not RuleName.DIS]
                if len(rules) != 1 or len(non_dis) > 1:
                    out.rule_uniqueness_violations.append((trial, node_pred, rules))
                out.predicates_checked += 1
            # Criterion 8: structural facts of every produced proof graph.
            graph = proof_graph(vp.pre_proof)
            problems = graph_violations(ars, graph)
            if problems:
                out.graph_problems.append((trial, cfg.strategy, problems))
            out.graphs_checked += 1
        out.trials += 1
    out.elapsed = time.perf_counter() - started
    return out


@pytest.fixture(scope="module")
def a1_module():
    from reachproof import parse_ars
    from conftest import A1_TEXT
    return parse_ars(A1_TEXT)


def test_criterion_01_partial_validity_with_exact_proof_shape(a1_module, capsys, tmp_path):
    a1 = a1_module
    a1_file = tmp_path / "a1.ars"
    from reachproof import render_ars
    a1_file.write_text(render_ars(a1))
    code = main(["check", "--ars", str(a1_file), "--source", "a",
                 "--target", "c,d", "--mode", "partial"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: PartiallyValid" in out

    pp = prove(a1, predicate((0,), (2, 3)), EAGER)
    t = pp.tree
    assert t.node_count == 6
    assert len(pp.xi) == 1
    # Exact expected shape: Der - Subs - Der(2), with one branch folding
    # back to the root and the other closing via Subs/Axiom.
    assert t.rules == {0: RuleName.DER, 1: RuleName.SUBS, 2: RuleName.DER,
                       4: RuleName.SUBS, 5: RuleName.AXIOM}
    assert t.children == {0: (1,), 1: (2,), 2: (3, 4), 4: (5,), 5: ()}
    assert pp.xi == {3: 0}
    assert t.preds[3] == t.preds[0] == predicate((0,), (2, 3))
    graph = proof_graph(pp)
    assert len(graph.vertices) == 5
    assert len(graph.edges) == 5
    assert not is_acyclic(graph)
    _passed(1, "partial validity, exact proof shape")


def test_criterion_02_disproof_with_exact_shape(a1_module, capsys, tmp_path):
    a1 = a1_module
    from reachproof import render_ars
    a1_file = tmp_path / "a1.ars"
    a1_file.write_text(render_ars(a1))
    code = main(["check", "--ars", str(a1_file), "--source", "a",
                 "--target", "c", "--mode", "partial"])
    out = capsys.readouterr().out
    assert code == 1
    assert "verdict: NotPartiallyValid" in out
    assert "witness: a -> d" in out

    verdict = check_partial(a1, predicate((0,), (2,)), MONO)
    assert verdict.kind is VerdictKind.NOT_PARTIALLY_VALID
    assert verdict.witness.path.steps == (0, 3)
    t = verdict.pre_proof.tree
    assert t.node_count == 3
    assert t.rules == {0: RuleName.DER, 1: RuleName.DIS}
    assert t.preds[2].is_bottom
    _passed(2, "disproof, exact three-node shape")


def test_criterion_03_total_validity_lasso(a1_module):
    a1 = a1_module
    verdict = check_total(a1, predicate((0,), (2, 3)), EAGER)
    assert verdict.kind is VerdictKind.NOT_TOTALLY_VALID
    assert isinstance(verdict.witness, Lasso)
    assert set(verdict.witness.cycle) == {0, 1}
    assert witness_violations(a1, predicate((0,), (2, 3)), verdict.witness) == []
    _passed(3, "total validity refuted with an a/b lasso")


def test_criterion_04_peterson_race_freedom(peterson, peterson_system, capsys):
    started = time.perf_counter()
    code = main(["safety", "--builtin", "peterson",
                 "--from", "loc(P0)=noncrit0 && loc(P1)=noncrit1 && b0=false && b1=false",
                 "--error", "loc(P0)=crit0 && loc(P1)=crit1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("safe")

    exp = peterson
    err = eval_state_predicate(peterson_system, "loc(P0)=crit0 && loc(P1)=crit1")
    aug, _ = augment_error(exp.ars, err)
    verdict = check_partial(aug, AprPredicate(exp.initial, ()))
    assert verdict.kind is VerdictKind.PARTIALLY_VALID
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _passed(4, "race freedom: safe, and <init> => <{}> partially valid")


def test_criterion_05_peterson_starvation_freedom(peterson, peterson_system, capsys, tmp_path):
    dot_path = tmp_path / "starvation.dot"
    code = main(["liveness", "--builtin", "peterson",
                 "--from", "loc(P0)=wait0 && b0=true",
                 "--goal", "loc(P0)=crit0", "--emit-proof", str(dot_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: TotallyValid" in out
    assert dot_path.exists()

    exp = peterson
    src = eval_state_predicate(peterson_system, "loc(P0)=wait0 && b0=true")
    goal = eval_state_predicate(peterson_system, "loc(P0)=crit0")
    verdict = check_total(exp.ars, AprPredicate(src, goal), EAGER)
    assert verdict.kind is VerdictKind.TOTALLY_VALID
    assert is_acyclic(proof_graph(verdict.pre_proof))
    _passed(5, "starvation freedom: totally valid, acyclic proof graph")


def test_criterion_06_oracle_equivalence_fuzz(corpus):
    assert corpus.trials == 1000
    assert corpus.verdict_mismatches == []
    assert corpus.witness_problems == []
    assert corpus.elapsed < 60.0, f"fuzz took {corpus.elapsed:.1f}s"
    _passed(6, f"1000-instance fuzz, zero mismatches in {corpus.elapsed:.1f}s")


def test_criterion_07_rule_uniqueness(corpus):
    assert corpus.rule_uniqueness_violations == []
    assert corpus.predicates_checked > 1000
    _passed(7, f"rule uniqueness over {corpus.predicates_checked} goals")


def test_criterion_08_proof_graph_structure(corpus, a1_module, peterson, peterson_system):
    assert corpus.graph_problems == []
    a1 = a1_module
    exp = peterson
    extra = []
    extra.append((a1, prove(a1, predicate((0,), (2, 3)), EAGER)))
    extra.append((a1, prove(a1, predicate((0,), (2,)), MONO)))
    err = eval_state_predicate(peterson_system, "loc(P0)=crit0 && loc(P1)=crit1")
    aug, _ = augment_error(exp.ars, err)
    extra.append((aug, prove(aug, AprPredicate(exp.initial, ()), EAGER)))
    src = eval_state_predicate(peterson_system, "loc(P0)=wait0 && b0=true")
    goal = eval_state_predicate(peterson_system, "loc(P0)=crit0")
    extra.append((exp.ars, prove(exp.ars, AprPredicate(src, goal), EAGER)))
    for ars, pp in extra:
        assert graph_violations(ars, proof_graph(pp)) == []
    checked = corpus.graphs_checked + len(extra)
    _passed(8, f"structural facts on {checked} proof graphs")


def test_criterion_09_any_augmentation_equivalence():
    rng = random.Random(0x5AFE)
    mismatches = []
    for trial in range(200):
        ars = random_ars(rng, max_states=6)
        nf = set(ars.normal_forms)
        e = canon(s for s in nf if rng.random() < 0.5)
        p = random_subset(rng, ars.n)
        q = canon(t for t in nf if t not in set(e) and t in set(reachable(ars, p)))
        report = validate_safety_predicate(ars, p, q, e)
        assert report.is_safety_predicate
        before = check_partial(ars, AprPredicate(p, q)).kind
        aug, any_id = augment_any(ars, e)
        after = check_partial(aug, AprPredicate(p, (any_id,))).kind
        if before != after:
            mismatches.append(trial)
    assert mismatches == []
    _passed(9, "any-augmentation preserves 200 safety verdicts")


def test_criterion_10_basic_validity_properties():
    rng = random.Random(0xBA51C)

    def pv(ars, p, q):
        return oracle_partial(ars, AprPredicate(p, q)).valid

    violations = []
    for trial in range(500):
        ars = random_ars(rng, max_states=6)
        p = random_subset(rng, ars.n)
        p2 = random_subset(rng, ars.n)
        q = random_subset(rng, ars.n)
        q2 = random_subset(rng, ars.n)
        r = random_subset(rng, ars.n)
        union_p = canon(set(p) | set(p2))
        union_q = canon(set(q) | set(q2))
        if pv(ars, p, q) and pv(ars, p2, q2) and not pv(ars, union_p, union_q):
            violations.append((trial, "union"))
        if pv(ars, union_p, q) and not (pv(ars, p, q) and pv(ars, p2, q)):
            violations.append((trial, "split completeness"))
        if pv(ars, p, q) and not pv(ars, p, union_q):
            violations.append((trial, "target monotonicity"))
        if pv(ars, p, q) and pv(ars, q, r) and not pv(ars, p, r):
            violations.append((trial, "transitivity"))
        no_nf = not set(reachable(ars, p)) & set(ars.normal_forms)
        if pv(ars, p, ()) != no_nf:
            violations.append((trial, "empty target"))
    assert violations == []
    _passed(10, "basic validity properties on 500 instances")
