"""`expand` against a reference that sorts the rendered labels.

The reference is the sort-by-label expansion that `expand` replaced: it
renders every state, sorts the labels and interns the states by their
`(locations, values)` tuples, then evaluates every edge in every state.
`expand` computes the same ids as mixed-radix numbers and evaluates each
edge once per valuation; the two must agree on everything they return and
on the first domain error they report.  State predicates, which
`eval_state_predicate` reads off a `ModelSystem`'s digits, are checked
against a filter over the reference's states.
"""

import itertools
from math import prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from reachproof import (
    Ars,
    Model,
    ModelError,
    ModelSystem,
    canon,
    eval_state_predicate,
    expand,
    parse_model,
    render_ars,
)
from reachproof.modeling import (
    DomainError,
    StateLimitError,
    ProcessDecl,
    _compile,
    _compile_assign,
    parse_state_expr,
)

from conftest import assert_same_system


def _render_state(locs, values) -> str:
    parts = list(locs) + [str(v).lower() if isinstance(v, bool) else str(v) for v in values]
    return "<" + ",".join(parts) + ">"


def reference_expand(model):
    """(ars, states, initial) of `model`, states in sorted-label order, each
    its (locations, values) pair."""
    moves = []
    for proc in model.processes:
        by_src = {loc: [] for loc in proc.locations}
        for edge in proc.edges:
            guard = None if edge.guard is None else _compile(model, edge.guard, allow_loc=False)
            assigns = [_compile_assign(model, var, rhs) for var, rhs in edge.assigns]
            by_src[edge.src].append((edge, guard, assigns))
        moves.append(by_src)

    labelled = sorted(
        (_render_state(*state), state)
        for state in itertools.product(
            itertools.product(*(p.locations for p in model.processes)),
            itertools.product(*(v.domain() for v in model.variables))))
    states = tuple(state for _, state in labelled)
    index = {state: i for i, state in enumerate(states)}

    edges = []
    for sid, (locs, values) in enumerate(states):
        for pi, by_src in enumerate(moves):
            for edge, guard, assigns in by_src[locs[pi]]:
                if guard is not None and not guard(locs, values):
                    continue
                new_vals = list(values)
                for pos, decl, read in assigns:
                    value = read(values)
                    if not decl.admits(value):
                        raise DomainError(
                            f"assignment {decl.name} := {value} leaves its domain "
                            f"(edge {edge.src} -> {edge.dst} of {model.processes[pi].name})")
                    new_vals[pos] = value
                new_locs = locs[:pi] + (edge.dst,) + locs[pi + 1:]
                edges.append((sid, index[new_locs, tuple(new_vals)]))
    ars = Ars([label for label, _ in labelled], edges)

    initial = canon(
        index[key] for key in itertools.product(
            itertools.product(*(p.init_locations for p in model.processes)),
            itertools.product(*(v.init_values for v in model.variables))))
    return ars, states, initial


def assert_matches_reference(text: str) -> None:
    model = parse_model(text)
    try:
        want_ars, _, want_initial = reference_expand(model)
    except DomainError as exc:
        with pytest.raises(DomainError) as got:
            expand(model)
        assert str(got.value) == str(exc)
        return
    got = expand(model)
    assert render_ars(got.ars) == render_ars(want_ars)
    assert_same_system(got.ars, want_ars)
    assert got.initial == want_initial
    assert ModelSystem(model).initial == want_initial


# ---------------------------------------------------------------------------
# Random models

# Names chosen so that one is a prefix of another and digits, `_` and
# upper case interleave: label order then depends on the separator.
NAMES = ["a", "a1", "a10", "a2", "a_", "aB", "A", "B0", "b", "b1", "m", "m0",
         "m00", "n_1", "z", "z9", "Z", "q"]
# Domains crossing the sign and the digit-count boundaries.
INT_DOMAINS = [(-12, 12), (8, 11), (0, 3), (-1, 1), (9, 10), (0, 0), (-3, -2)]
STATE_BUDGET = 1500


def _domain(decl) -> list:
    return [False, True] if decl is None else list(range(decl[0], decl[1] + 1))


def _lit(v) -> str:
    return str(v).lower() if isinstance(v, bool) else str(v)


@st.composite
def _atom(draw, variables, processes=()):
    bools = [name for name, d in variables if d is None]
    ints = [(name, d) for name, d in variables if d is not None]
    kinds = ["const"] + ["bool"] * bool(bools) + ["int"] * bool(ints) + ["loc"] * bool(processes)
    kind = draw(st.sampled_from(kinds))
    if kind == "const":
        return draw(st.sampled_from(["true", "false"]))
    if kind == "loc":
        proc = draw(st.sampled_from(processes))
        op = draw(st.sampled_from(["=", "!="]))
        return f"loc({proc.name}) {op} {draw(st.sampled_from(proc.locations))}"
    if kind == "bool":
        name = draw(st.sampled_from(bools))
        other = draw(st.sampled_from(bools + ["true", "false"]))
        return draw(st.sampled_from([name, f"!{name}", f"{name} = {other}",
                                     f"{name} != {other}"]))
    name, dom = draw(st.sampled_from(ints))
    op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
    rhs = draw(st.one_of(st.sampled_from([n for n, _ in ints]),
                         st.integers(dom[0], dom[1]).map(str)))
    return f"{name} {op} {rhs}"


@st.composite
def _guard(draw, variables, processes=()):
    """A guard, or with `processes` a state predicate, over `variables`."""
    atoms = draw(st.lists(_atom(variables, processes), min_size=1, max_size=3))
    text = atoms[0]
    for atom in atoms[1:]:
        text += draw(st.sampled_from([" && ", " || "])) + atom
    return f"!({text})" if draw(st.booleans()) else text


@st.composite
def _assigns(draw, variables):
    if not variables:
        return []
    out = []
    for _ in range(draw(st.integers(0, 2))):
        name, dom = draw(st.sampled_from(variables))
        same = [n for n, d in variables if (d is None) == (dom is None)]
        rhs = draw(st.one_of(st.sampled_from(same),
                             st.sampled_from([_lit(v) for v in _domain(dom)])))
        out.append(f"{name} := {rhs}")
        if draw(st.integers(0, 3)) == 0 and rhs in same and rhs != name:
            out.append(f"{rhs} := {name}")  # a simultaneous swap
    return out


@st.composite
def random_models(draw) -> str:
    pool = iter(draw(st.permutations(NAMES)))
    loc_counts = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    size = prod(loc_counts)
    variables = []  # (name, None for bool or (lo, hi))
    for _ in range(draw(st.integers(0, 3))):
        fits = [d for d in [None, *INT_DOMAINS] if size * len(_domain(d)) <= STATE_BUDGET]
        dom = draw(st.sampled_from(fits))
        size *= len(_domain(dom))
        variables.append((next(pool), dom))

    lines = []
    for name, dom in variables:
        inits = draw(st.lists(st.sampled_from(_domain(dom)), min_size=1, max_size=3))
        kind = "bool" if dom is None else f"int[{dom[0]}..{dom[1]}]"
        lines.append(f"var {name}: {kind} = " + " | ".join(map(_lit, inits)))
    for count in loc_counts:
        lines.append(f"process {next(pool)} {{")
        locs = [next(pool) for _ in range(count)]
        inits = draw(st.sets(st.sampled_from(locs), min_size=1))
        lines += [f"  loc {loc}" + (" init" if loc in inits else "") for loc in locs]
        for _ in range(draw(st.integers(0, 4))):
            edge = f"  edge {draw(st.sampled_from(locs))} -> {draw(st.sampled_from(locs))}"
            if draw(st.booleans()):
                edge += " when " + draw(_guard(variables))
            assigns = draw(_assigns(variables))
            if assigns:
                edge += " do " + "; ".join(assigns)
            lines.append(edge)
        lines.append("}")
    return "\n".join(lines) + "\n"


# An int variable declared last, so the `>`-terminated field is numeric,
# and a simultaneous swap.
SWAP_INT_LAST = """\
var f: bool = false | true
var y: int[-12..12] = 8
var x: int[-12..12] = 0
process P {
  loc a init
  loc a1
  edge a -> a1 when f do x := y; y := x
  edge a1 -> a when x < -12 do f := false
  edge a1 -> a1 when x >= 10 || !f do f := true
}
"""

# The last field is a location.
NO_VARIABLES = """\
process P {
  loc a1 init
  loc a
  loc a10
  edge a1 -> a
  edge a -> a10
}
process Q {
  loc b init
  loc b1
  edge b -> b1
  edge b1 -> b
}
"""


def several_domain_errors(p_guard: str = "y > 6", q_edges: tuple[int, int] = (0, 1)) -> str:
    """A model in which several assignments leave their domain, the first
    of P's edges when `p_guard` holds."""
    q = ["  edge c -> d when y > 5 do x := y", "  edge c -> c when y > 5 do y := 9; z := y"]
    return "\n".join([
        "var x: int[0..2] = 0", "var z: int[0..1] = 0", "var y: int[0..9] = 0",
        "process P {", "  loc a init", "  loc b",
        "  edge b -> a when y > 4 do x := y", f"  edge a -> b when {p_guard} do x := y", "}",
        "process Q {", "  loc c init", "  loc d", *(q[i] for i in q_edges), "}", ""])


@settings(max_examples=200, deadline=None)
@given(random_models())
@example(SWAP_INT_LAST)
@example(NO_VARIABLES)
@example(several_domain_errors())
@example(several_domain_errors("y > 5"))
@example(several_domain_errors(q_edges=(1, 0)))
def test_expand_matches_sort_by_label_reference(text):
    assert_matches_reference(text)


@settings(max_examples=100, deadline=None)
@given(random_models(), st.data())
def test_state_predicates_match_a_filter_over_the_reference(text, data):
    model = parse_model(text)
    try:
        _, want_states, _ = reference_expand(model)
    except DomainError:
        assume(False)
    system = ModelSystem(model)
    variables = [(v.name, None if v.is_bool else (v.lo, v.hi)) for v in model.variables]
    for _ in range(3):
        expr = data.draw(_guard(variables, model.processes))
        test = _compile(model, parse_state_expr(expr), allow_loc=True)
        want = canon(sid for sid, state in enumerate(want_states) if test(*state))
        assert eval_state_predicate(system, expr) == want, expr


@st.composite
def _formulas(draw, variables, processes):
    """Nested `&&`/`||`/`!` formulas over every kind of atom."""
    return draw(st.recursive(
        _atom(variables, processes),
        lambda inner: st.one_of(
            inner.map(lambda e: f"!({e})"),
            st.tuples(inner, st.sampled_from([" && ", " || "]), inner).map(
                lambda t: f"({t[0]}{t[1]}{t[2]})")),
        max_leaves=8))


@settings(max_examples=100, deadline=None)
@given(random_models(), st.data())
def test_digit_walk_matches_the_per_state_scan(text, data):
    model = parse_model(text)
    try:
        _, states, _ = reference_expand(model)
    except DomainError:
        assume(False)
    system = ModelSystem(model)
    variables = [(v.name, None if v.is_bool else (v.lo, v.hi)) for v in model.variables]
    for _ in range(4):
        expr = data.draw(_formulas(variables, model.processes))
        test = _compile(model, parse_state_expr(expr), allow_loc=True)
        want = tuple(sid for sid, state in enumerate(states) if test(*state))
        assert eval_state_predicate(system, expr) == want, expr


def test_predicate_sets_are_capped():
    system = ModelSystem(parse_model(NO_VARIABLES), max_states=3)
    assert eval_state_predicate(system, "loc(P)=a1 && loc(Q)=b") == (3,)
    assert eval_state_predicate(system, "loc(Q)=b") == (1, 3, 5)
    with pytest.raises(StateLimitError, match="selects 4 states, more than cap 3"):
        eval_state_predicate(system, "loc(Q)=b1 || loc(P)=a")
    with pytest.raises(StateLimitError, match="selects 6 states, more than cap 3"):
        eval_state_predicate(system, "true")


@pytest.mark.parametrize("locations", [("a", "a"), ("a b", "c"), ("x,y", "z"), ("a>", "b")])
def test_hand_built_locations_must_make_distinct_valid_labels(locations):
    model = Model((), (ProcessDecl("P", locations, locations[:1], ()),))
    with pytest.raises(ModelError, match="distinct valid state labels"):
        expand(model)
    with pytest.raises(ModelError, match="distinct valid state labels"):
        ModelSystem(model)


def test_field_order_follows_the_separator():
    # `>` sorts after the digits, `,` before them.
    assert expand(parse_model(NO_VARIABLES)).ars.labels[:3] == ("<a,b1>", "<a,b>", "<a1,b1>")
    _, states, _ = reference_expand(parse_model(SWAP_INT_LAST))
    assert [values[-1] for _, values in states[:6]] == [-10, -11, -12, -1, -2, -3]
    assert [values[-1] for _, values in states[12:18]] == [0, 10, 11, 12, 1, 2]


@pytest.mark.parametrize("text, first", [
    # The earliest state wins, though a later process fails there.
    (several_domain_errors(), "x := 6 leaves its domain (edge c -> d of Q)"),
    # In one state, the earlier process wins...
    (several_domain_errors("y > 5"), "x := 6 leaves its domain (edge a -> b of P)"),
    # ...and in one process, the earlier edge.
    (several_domain_errors(q_edges=(1, 0)), "z := 6 leaves its domain (edge c -> c of Q)"),
])
def test_first_domain_error_in_state_process_edge_order(text, first):
    with pytest.raises(DomainError) as exc:
        expand(parse_model(text))
    assert str(exc.value) == "assignment " + first
