"""Safety queries: error-state augmentation and well-formedness checks.

Error non-reachability is decided through partial validity of a reachability
goal whose target is a set of "good" stuck states.  A well-formed safety
goal for error states E needs a target that is disjoint from E, irreducible,
and covers every reachable non-error normal form.  Computing such a target
is exactly what the `any`-sink construction avoids: adding a fresh
irreducible state reachable from every non-error state turns `<P> => <{any}>`
into an exact (not approximate) encoding of error non-reachability.

Each sink comes from `with_sink`: on an `Ars` it is a table of feeder
edges, on a lazy system a rule ("every error state feeds `error`", "every
non-error state feeds `any`") applied to the states a query reaches.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ars import ArsError, StateSet, System, canon, reachable
from .proofs import AprPredicate


@dataclass(frozen=True)
class SafetyCheckReport:
    """The offenders of the three well-formedness conditions: target
    states that are errors, reachable normal forms outside the target and
    the errors, and reducible target states.  A condition holds when it
    has none."""

    disjoint_offenders: StateSet
    covers_nf_offenders: StateSet
    q_irreducible_offenders: StateSet

    @property
    def is_safety_predicate(self) -> bool:
        return not (self.disjoint_offenders or self.covers_nf_offenders
                    or self.q_irreducible_offenders)


def validate_safety_predicate(ars: System, p, q, e) -> SafetyCheckReport:
    """Evaluate the safety-goal conditions for target `q` and errors `e`.

    Requires `e` to be irreducible; reducible error states must be routed
    through `augment_error` first.
    """
    p = ars.check_members(p)
    q = ars.check_members(q)
    e = ars.check_members(e)
    nf = ars._nf
    bad_e = [s for s in e if s not in nf]
    if bad_e:
        labels = ", ".join(ars.labels[s] for s in bad_e)
        raise ArsError(
            f"error states must be irreducible (got {labels}); apply augment_error first")
    return SafetyCheckReport(
        disjoint_offenders=canon(set(q).intersection(e)),
        covers_nf_offenders=canon(set(filter(nf.__contains__, reachable(ars, p))).difference(e, q)),
        q_irreducible_offenders=canon(t for t in q if t not in nf),
    )


def _fresh_label(ars: System, base: str) -> str:
    if not ars.has_label(base):
        return base
    k = 1
    while ars.has_label(f"{base}_{k}"):
        k += 1
    return f"{base}_{k}"


def augment_error(ars: System, error_states) -> tuple[System, int]:
    """Add a fresh irreducible `error` object fed by every error state.

    Original ids are preserved as a prefix; the fresh object takes the next
    id.  Its label is `error`, numerically suffixed on collision.
    """
    error_states = ars.check_members(error_states)
    if not error_states:
        raise ArsError("augment_error needs at least one error state")
    return ars.with_sink(_fresh_label(ars, "error"), error_states), ars.n


def augment_any(ars: System, e) -> tuple[System, int]:
    """Add a fresh irreducible `any` sink reachable from every non-error state."""
    e = ars.check_members(e)
    bad = [s for s in e if not ars.is_normal_form(s)]
    if bad:
        labels = ", ".join(ars.labels[s] for s in bad)
        raise ArsError(f"augment_any needs irreducible error states (got {labels})")
    return ars.with_sink(_fresh_label(ars, "any"), e, complement=True), ars.n


def build_safety_query(ars: System, p, e_raw) -> tuple[System, AprPredicate]:
    """Reduce error non-reachability to one partial-validity goal.

    Reducible error states are first funneled into a fresh `error` state;
    then the `any` sink is added and the goal `<P> => <{any}>` is returned
    over the augmented system.  Its partial validity holds exactly when no
    state of `e_raw` is reachable from `p`.
    """
    p = ars.check_members(p)
    e = ars.check_members(e_raw)
    if not all(map(ars.is_normal_form, e)):
        ars, err_id = augment_error(ars, e)
        e = (err_id,)
    ars, any_id = augment_any(ars, e)
    return ars, AprPredicate(p, (any_id,))
