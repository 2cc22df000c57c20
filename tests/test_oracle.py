import random

from reachproof import (
    AprPredicate,
    Ars,
    canon,
    oracle_partial,
    oracle_total,
    predicate,
    reachable,
)
from reachproof.prover import FinitePath, Lasso, witness_violations

from conftest import random_ars, random_subset


def enumerate_validity(ars, p, q):
    """Dumbest possible decision: enumerate target-free walks with a cycle
    cutoff of |A|+1 edges.  A walk ending at a normal form refutes partial
    validity; hitting the cutoff proves an infinite target-free run exists."""
    qs = set(q)
    nf = set(ars.normal_forms)
    limit = ars.n + 1
    found = {"nf_end": False, "long": False}

    def walk(v, depth):
        if found["nf_end"] and found["long"]:
            return
        if v in qs:
            return
        if v in nf:
            found["nf_end"] = True
            return
        if depth >= limit:
            found["long"] = True
            return
        for w in ars.succs[v]:
            walk(w, depth + 1)

    for s in p:
        walk(s, 0)
    partial_valid = not found["nf_end"]
    total_valid = partial_valid and not found["long"]
    return partial_valid, total_valid


class TestOraclePartial:
    def test_valid_example(self, a1):
        assert oracle_partial(a1, predicate((0,), (2, 3))).valid

    def test_invalid_example_shortest_path(self, a1):
        answer = oracle_partial(a1, predicate((0,), (2,)))
        assert not answer.valid
        assert answer.witness.path.steps == (0, 3)

    def test_empty_query(self, a1):
        assert oracle_partial(a1, predicate((), ())).valid


class TestOracleTotal:
    def test_cycle_makes_invalid(self, a1):
        answer = oracle_total(a1, predicate((0,), (2, 3)))
        assert not answer.valid
        assert isinstance(answer.witness, Lasso)
        assert set(answer.witness.cycle) == {0, 1}

    def test_single_edge_valid(self):
        ars = Ars(["x", "y"], [(0, 1)])
        assert oracle_total(ars, predicate((0,), (1,))).valid

    def test_finite_path_preferred_over_lasso(self, a1):
        # Both a stuck endpoint (d) and a cycle (a,b) avoid the target {c}.
        answer = oracle_total(a1, predicate((0,), (2,)))
        assert not answer.valid
        assert isinstance(answer.witness, FinitePath)

    def test_peterson_starvation_freedom(self, peterson, peterson_system):
        from reachproof import eval_state_predicate
        src = eval_state_predicate(peterson_system, "loc(P0)=wait0 && b0=true")
        goal = eval_state_predicate(peterson_system, "loc(P0)=crit0")
        assert oracle_total(peterson.ars, AprPredicate(src, goal)).valid


def test_total_implies_partial():
    rng = random.Random(31337)
    for _ in range(300):
        ars = random_ars(rng, max_states=6)
        pred = AprPredicate(random_subset(rng, ars.n), random_subset(rng, ars.n))
        if oracle_total(ars, pred).valid:
            assert oracle_partial(ars, pred).valid


def test_oracle_vs_path_enumeration():
    rng = random.Random(4242)
    for _ in range(400):
        ars = random_ars(rng, max_states=5)
        p = random_subset(rng, ars.n)
        q = random_subset(rng, ars.n)
        pred = AprPredicate(p, q)
        partial_expected, total_expected = enumerate_validity(ars, p, q)
        assert oracle_partial(ars, pred).valid == partial_expected
        assert oracle_total(ars, pred).valid == total_expected


def test_oracle_witnesses_revalidate():
    rng = random.Random(909)
    for _ in range(300):
        ars = random_ars(rng, max_states=6)
        pred = AprPredicate(random_subset(rng, ars.n), random_subset(rng, ars.n))
        for answer in (oracle_partial(ars, pred), oracle_total(ars, pred)):
            if answer.witness is not None:
                assert witness_violations(ars, pred, answer.witness) == []


def test_basic_validity_facts():
    """Union, splitting, target monotonicity, transitivity, empty target."""
    rng = random.Random(2718)

    def pv(ars, p, q):
        return oracle_partial(ars, AprPredicate(p, q)).valid

    for _ in range(300):
        ars = random_ars(rng, max_states=6)
        p = random_subset(rng, ars.n)
        p2 = random_subset(rng, ars.n)
        q = random_subset(rng, ars.n)
        q2 = random_subset(rng, ars.n)
        r = random_subset(rng, ars.n)
        union_p = canon(set(p) | set(p2))
        union_q = canon(set(q) | set(q2))
        if pv(ars, p, q) and pv(ars, p2, q2):
            assert pv(ars, union_p, union_q)
        if pv(ars, union_p, q):
            assert pv(ars, p, q) and pv(ars, p2, q)
        if pv(ars, p, q):
            assert pv(ars, p, union_q)
        if pv(ars, p, q) and pv(ars, q, r):
            assert pv(ars, p, r)
        no_reachable_nf = not set(reachable(ars, p)) & set(ars.normal_forms)
        assert pv(ars, p, ()) == no_reachable_nf
