import random

import pytest

from reachproof import (
    AprPredicate,
    Ars,
    ArsError,
    ModelSystem,
    VerdictKind,
    augment_any,
    augment_error,
    build_safety_query,
    builtin_peterson,
    canon,
    check_partial,
    eval_state_predicate,
    expand,
    parse_model,
    reachable,
    validate_safety_predicate,
)

from conftest import (
    assert_same_system,
    random_ars,
    random_subset,
    rebuilt_with_sink,
    semaphore_source,
)


class TestValidateSafetyPredicate:
    def test_well_formed(self, a1):
        report = validate_safety_predicate(a1, p=(0,), q=(2,), e=(3,))
        assert not (report.disjoint_offenders or report.covers_nf_offenders
                    or report.q_irreducible_offenders)
        assert report.is_safety_predicate

    def test_target_overlaps_errors(self, a1):
        report = validate_safety_predicate(a1, p=(0,), q=(3,), e=(3,))
        assert report.disjoint_offenders
        assert report.disjoint_offenders == (3,)

    def test_reducible_target(self, a1):
        report = validate_safety_predicate(a1, p=(0,), q=(1,), e=(3,))
        assert report.q_irreducible_offenders
        assert report.q_irreducible_offenders == (1,)
        assert report.covers_nf_offenders  # c is reachable but not covered

    def test_reducible_errors_rejected(self, a1):
        with pytest.raises(ArsError, match="augment_error"):
            validate_safety_predicate(a1, p=(0,), q=(2,), e=(1,))


class TestAugmentError:
    def test_adds_sink_with_feeding_edges(self, a1):
        new, err = augment_error(a1, (0,))
        assert err == 4
        assert new.labels == ("a", "b", "c", "d", "error")
        assert new.succs[0] == (1, 3, 4)
        assert new.succs[1] == a1.succs[1]
        assert not new.succs[err]

    def test_irreducible_error_state_gains_one_edge(self, a1):
        new, err = augment_error(a1, (3,))
        assert new.succs[3] == (err,)

    def test_label_collision_suffixed(self):
        ars = Ars(["error", "error_1"], [(0, 1)])
        new, err = augment_error(ars, (0,))
        assert new.labels[err] == "error_2"

    def test_empty_error_set_rejected(self, a1):
        with pytest.raises(ArsError):
            augment_error(a1, ())

    def test_peterson_race_states_feed_error(self, peterson, peterson_system):
        err_states = eval_state_predicate(peterson_system, "loc(P0)=crit0 && loc(P1)=crit1")
        new, err = augment_error(peterson.ars, err_states)
        assert all(err in new.succs[s] for s in err_states)
        assert new.labels[:peterson.ars.n] == peterson.ars.labels
        assert not new.succs[err]


class TestAugmentAny:
    def test_every_nonerror_state_feeds_any(self, a1):
        new, anyid = augment_any(a1, (3,))
        assert new.labels[anyid] == "any"
        for s in range(a1.n):
            assert (anyid in new.succs[s]) == (s != 3)

    def test_all_states_error(self):
        ars = Ars(["x", "y"], [])
        new, anyid = augment_any(ars, (0, 1))
        assert not any(anyid in new.succs[s] for s in range(ars.n))

    def test_reducible_error_rejected(self, a1):
        with pytest.raises(ArsError):
            augment_any(a1, (0,))

    def test_original_structure_preserved(self, a1):
        new, anyid = augment_any(a1, (3,))
        for s in range(a1.n):
            assert tuple(t for t in new.succs[s] if t != anyid) == a1.succs[s]


class TestBuildSafetyQuery:
    def test_error_reachable(self, a1):
        qars, pred = build_safety_query(a1, p=(0,), e_raw=(3,))
        assert pred.target == (qars.id_of("any"),)
        verdict = check_partial(qars, pred)
        assert verdict.kind is VerdictKind.NOT_PARTIALLY_VALID
        assert verdict.witness.path.steps[-1] == 3

    def test_error_unreachable(self, a1):
        qars, pred = build_safety_query(a1, p=(2,), e_raw=(3,))
        assert check_partial(qars, pred).kind is VerdictKind.PARTIALLY_VALID

    def test_reducible_errors_routed_through_error_sink(self, a1):
        qars, pred = build_safety_query(a1, p=(0,), e_raw=(1,))
        assert "error" in qars.labels and "any" in qars.labels
        assert check_partial(qars, pred).kind is VerdictKind.NOT_PARTIALLY_VALID

    def test_no_error_states_is_safe(self, a1):
        qars, pred = build_safety_query(a1, p=(0,), e_raw=())
        assert check_partial(qars, pred).kind is VerdictKind.PARTIALLY_VALID


@pytest.mark.parametrize("system, errors", [
    ("peterson", "loc(P0)=crit0 && loc(P1)=crit1"),
    ("sem3", "loc(P0)=crit0 && loc(P2)=crit2"),
    ("sem3-racy", "loc(P1)=crit1 && loc(P2)=crit2"),
])
def test_augmentations_equal_a_full_rebuild(peterson, system, errors):
    model = builtin_peterson() if system == "peterson" else parse_model(
        semaphore_source(3, 1 if system == "sem3-racy" else None))
    exp = peterson if system == "peterson" else expand(model)
    ars, e = exp.ars, eval_state_predicate(ModelSystem(model), errors)
    assert e and not any(map(ars.is_normal_form, e))
    err_ars, err = augment_error(ars, e)
    assert err == ars.n
    assert_same_system(err_ars, rebuilt_with_sink(ars, "error", e))
    any_ars, anyid = augment_any(err_ars, (err,))
    assert anyid == err_ars.n
    assert_same_system(any_ars, rebuilt_with_sink(err_ars, "any", range(ars.n)))
    qars, pred = build_safety_query(ars, exp.initial, e)
    assert_same_system(qars, any_ars)
    assert pred == AprPredicate(exp.initial, (anyid,))
    # The base systems are untouched.
    assert ars.n + 1 == err_ars.n and "error" not in ars.index and "any" not in err_ars.index
    assert_same_system(ars, expand(model).ars)


def _exact_safety_instance(rng):
    """Random system with an exact well-formed safety goal for random E."""
    ars = random_ars(rng, max_states=6)
    nf = list(ars.normal_forms)
    e = canon(s for s in nf if rng.random() < 0.5)
    p = random_subset(rng, ars.n)
    q = canon(t for t in nf if t not in set(e) and t in set(reachable(ars, p)))
    return ars, p, q, e


def test_safety_goal_decides_error_reachability():
    # Partial validity of a well-formed safety goal equals "no run from P
    # ever meets E", checked against an independent reachability search.
    rng = random.Random(1203)
    for _ in range(200):
        ars, p, q, e = _exact_safety_instance(rng)
        assert validate_safety_predicate(ars, p, q, e).is_safety_predicate
        valid = check_partial(ars, AprPredicate(p, q)).kind is VerdictKind.PARTIALLY_VALID
        hits_error = bool(set(reachable(ars, p)) & set(e))
        assert valid == (not hits_error)


def test_any_augmentation_preserves_verdicts():
    rng = random.Random(77)
    for _ in range(200):
        ars, p, q, e = _exact_safety_instance(rng)
        before = check_partial(ars, AprPredicate(p, q)).kind
        aug, anyid = augment_any(ars, e)
        after = check_partial(aug, AprPredicate(p, (anyid,))).kind
        assert before == after


def test_augmentations_never_touch_existing_edges():
    rng = random.Random(55)
    for _ in range(50):
        ars = random_ars(rng, max_states=6)
        e = canon(s for s in ars.normal_forms if rng.random() < 0.5)
        if set(e) != set(range(ars.n)):
            aug, fresh = augment_any(ars, e)
            assert aug.labels[:ars.n] == ars.labels
            assert not aug.succs[fresh]
            for s in range(ars.n):
                assert [t for t in aug.succs[s] if t != fresh] == list(ars.succs[s])
