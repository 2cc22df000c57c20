import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from reachproof import (
    Ars,
    ArsError,
    ExecutionPath,
    FinitePath,
    UnknownObjectError,
    avoiding_region,
    canon,
    derivative,
    is_runnable,
    parse_ars,
    predicate,
    reachable,
    render_ars,
)
from reachproof.ars import (
    LABEL_RE,
    bfs,
    bfs_path,
    cyclic_sccs,
    der_image,
    image,
    region_succs,
)
from reachproof.prover import witness_violations

from conftest import A1_TEXT, assert_same_system, random_ars, random_subset, rebuilt_with_sink


@st.composite
def ars_and_sets(draw, max_states=6):
    n = draw(st.integers(1, max_states))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    ars = Ars([f"s{i}" for i in range(n)], edges)
    subset = st.lists(st.integers(0, n - 1), max_size=n).map(canon)
    return ars, draw(subset), draw(subset)


def region_by_path_enumeration(ars, p, q):
    """Independent recomputation of the avoiding region: every state on some
    q-free simple path from p \\ q."""
    qs = set(q)
    hit = set()

    def dfs(v, on_path):
        hit.add(v)
        for w in ars.succs[v]:
            if w not in qs and w not in on_path:
                dfs(w, on_path | {w})

    for s in p:
        if s not in qs:
            dfs(s, {s})
    return canon(hit)


class TestConstruction:
    def test_ids_are_dense_and_labels_unique(self, a1):
        assert a1.labels == ("a", "b", "c", "d")
        assert [a1.id_of(lab) for lab in a1.labels] == [0, 1, 2, 3]

    def test_duplicate_label_rejected(self):
        with pytest.raises(ArsError):
            Ars(["x", "x"], [])

    def test_duplicate_edges_collapse(self):
        ars = Ars(["x", "y"], [(0, 1), (0, 1), (0, 1)])
        assert ars.succs == ((1,), ())

    def test_self_loop_allowed(self):
        ars = Ars(["x"], [(0, 0)])
        assert ars.succs == ((0,),)
        assert ars.normal_forms == ()

    def test_normal_forms_cached(self, a1):
        assert a1.normal_forms == (2, 3)

    def test_edge_outside_table_rejected(self):
        with pytest.raises(UnknownObjectError):
            Ars(["x"], [(0, 1)])

    @pytest.mark.parametrize("labels", [["a b", "c#d"], ["x", ""], ["x", "c#d"], ["x\n"]])
    def test_unserialisable_label_rejected(self, labels):
        with pytest.raises(ArsError, match="bad object label"):
            Ars(labels, [(0, 0)])


@given(st.lists(st.text(st.sampled_from("ab_<>,.- #\t\n?"), max_size=4), max_size=5))
def test_labels_round_trip_or_fail_at_construction(labels):
    try:
        ars = Ars(labels, [(i, (i + 1) % len(labels)) for i in range(len(labels))])
    except ArsError:
        assert any(not LABEL_RE.match(lab) for lab in labels) or len(set(labels)) < len(labels)
        return
    assert parse_ars(render_ars(ars)) == ars


class TestWithSink:
    def test_equals_full_rebuild(self):
        rng = random.Random(4242)
        for _ in range(300):
            ars = random_ars(rng)
            feeders = random_subset(rng, ars.n)
            before = (ars.labels, ars.succs, ars.normal_forms, dict(ars.index))
            # Feeders in any order and with repeats.
            new = ars.with_sink("sink", [*reversed(feeders), *feeders])
            assert_same_system(new, rebuilt_with_sink(ars, "sink", feeders))
            assert new.succs[ars.n] == ()
            assert (ars.labels, ars.succs, ars.normal_forms, ars.index) == before

    @pytest.mark.parametrize("label", ["a b", "", "x?", "c#d"])
    def test_bad_label_rejected(self, a1, label):
        with pytest.raises(ArsError, match="bad object label"):
            a1.with_sink(label, (0,))

    def test_duplicate_label_rejected(self, a1):
        with pytest.raises(ArsError, match="duplicate object label 'c'"):
            a1.with_sink("c", (0,))

    @pytest.mark.parametrize("feeders", [(4,), (0, -1), (0, 1, 9)])
    def test_feeder_outside_table_rejected(self, a1, feeders):
        with pytest.raises(UnknownObjectError):
            a1.with_sink("sink", feeders)
        assert a1 == parse_ars(A1_TEXT)


class TestDerivative:
    def test_a1_from_a(self, a1):
        assert derivative(a1, a1.ids_of(["a"])) == a1.ids_of(["b", "d"])

    def test_empty_set(self, a1):
        assert derivative(a1, ()) == ()

    def test_stuck_sources(self, a1):
        assert derivative(a1, a1.ids_of(["c", "d"])) == ()

    def test_unknown_id(self, a1):
        with pytest.raises(UnknownObjectError):
            derivative(a1, (9,))


class TestRunnable:
    def test_live_pair(self, a1):
        assert is_runnable(a1, a1.ids_of(["a", "b"]))

    def test_empty(self, a1):
        assert not is_runnable(a1, ())

    def test_contains_stuck(self, a1):
        assert not is_runnable(a1, a1.ids_of(["b", "d"]))


class TestReachable:
    def test_from_a(self, a1):
        assert reachable(a1, (0,)) == (0, 1, 2, 3)

    def test_normal_form_alone(self, a1):
        assert reachable(a1, (3,)) == (3,)

    def test_from_b(self, a1):
        assert reachable(a1, (1,)) == (0, 1, 2, 3)


class TestAvoidingRegion:
    def test_avoid_cd(self, a1):
        assert avoiding_region(a1, (0,), (2, 3)) == (0, 1)

    def test_source_removed(self, a1):
        assert avoiding_region(a1, (0,), (0,)) == ()

    def test_avoid_c_keeps_d(self, a1):
        assert avoiding_region(a1, (0,), (2,)) == (0, 1, 3)


@given(ars_and_sets())
def test_derivative_distributes_over_union(data):
    ars, p, q = data
    union = canon(set(p) | set(q))
    expected = canon(set(derivative(ars, p)) | set(derivative(ars, q)))
    assert derivative(ars, union) == expected


@st.composite
def flat_table_cases(draw, max_states=30):
    """A system whose objects mostly have one successor, the others none or
    several (fan-out), with fan-in where successors coincide; or, for about
    half the draws, a spine with a few detours under shuffled ids, where
    most objects are on the flat table.  Sometimes with a sink.  Then
    canonical sources drawn from it."""
    n = draw(st.integers(1, max_states))
    if draw(st.booleans()):
        ids = draw(st.permutations(range(n)))
        edges = [(ids[s], ids[s + 1]) for s in range(n - 1)]
        edges += draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=3))
    else:
        degree = st.sampled_from((1, 1, 1, 1, 0, 2, 3))
        edges = [(s, draw(st.integers(0, n - 1))) for s in range(n) for _ in range(draw(degree))]
    ars = Ars([f"s{i}" for i in range(n)], edges)
    if draw(st.booleans()):
        ars = ars.with_sink("sink", draw(st.lists(st.integers(0, n - 1))), draw(st.booleans()))
    sources = st.lists(st.integers(0, ars.n - 1), max_size=ars.n).map(canon)
    return ars, draw(st.lists(sources, min_size=1, max_size=4))


def _spine(n: int) -> Ars:
    return Ars([f"s{i}" for i in range(n)], [(s, s + 1) for s in range(n - 1)])


# The spine 0 -> ... -> 8 with the detour 1 -> 3 -> 4 beside 1 -> 2 -> 4:
# the fan-out 1, the feeders 2 and 3 of the merge 4 and the normal form 8
# are off the flat table, the other five objects on it.
DETOUR = Ars([f"s{i}" for i in range(9)],
             [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8)])
# Only the spine's end feeds the sink: every object but the sink is on the table.
END_SINK = _spine(5).with_sink("sink", range(4), complement=True)


@given(flat_table_cases())
@example((Ars(["a", "b", "c", "d"], [(0, 3), (1, 2)]), [(0, 1), (1,), ()]))  # on the table
@example((Ars(["a", "b", "c"], [(0, 2), (1, 2)]), [(0, 1), (0,), ()]))  # fan-in, no table
@example((Ars(["a", "b", "c"], [(0, 1), (0, 2), (1, 2)]), [(0, 1), (1,)]))  # fan-out, no table
@example((DETOUR, [(2, 3), (1, 2, 3)]))  # both feeders of the merge; all off the table
@example((DETOUR, [(0, 1, 5, 6)]))  # a fan-out object among objects on the table
@example((DETOUR, [(2, 5, 6), (0, 3)]))  # exactly one object off the table
@example((DETOUR, [(7, 8), (8,), (0, 8)]))  # normal forms
@example((END_SINK, [(3, 4), (0, 4), (4,), (4, 5)]))
def test_der_image_is_the_sorted_image_of_the_successor_tuples(case):
    ars, sources = case
    for p in sources:  # the first call builds the flat table, the others read it
        assert der_image(ars, p) == tuple(sorted(image(ars, p)))
        assert derivative(ars, p) == canon(t for s in p for t in ars.succs[s])


def test_flat_table_is_built_where_half_the_objects_are_on_it():
    cases = [(DETOUR, True), (END_SINK, True), (_spine(4).with_sink("any", (), True), False),
             (Ars(["a", "b", "c"], [(0, 2), (1, 2)]), False)]
    for ars, built in cases:
        der_image(ars, (0, 1))
        assert bool(ars._flat) is built


@given(ars_and_sets())
def test_derivative_nonempty_iff_runnable_part(data):
    ars, p, _ = data
    nonempty = bool(derivative(ars, p))
    assert nonempty == bool(set(p) - set(ars.normal_forms))


@given(ars_and_sets())
def test_reachable_idempotent(data):
    ars, p, _ = data
    closure = reachable(ars, p)
    assert reachable(ars, closure) == closure


@given(ars_and_sets())
def test_avoiding_region_vs_path_enumeration(data):
    ars, p, q = data
    region = avoiding_region(ars, p, q)
    assert region == region_by_path_enumeration(ars, p, q)
    assert set(region) <= set(reachable(ars, p)) - set(q)
    base = canon(set(p) - set(q))
    if not set(reachable(ars, base)) & set(q):
        assert region == reachable(ars, base)


def _cycle_vertices_by_brute_force(ars):
    """v lies on a cycle iff v is reachable from one of its successors."""
    return {v for v in range(ars.n) if v in reachable(ars, ars.succs[v])}


@given(ars_and_sets(max_states=12))
def test_cyclic_sccs_are_exactly_the_cycle_vertices(data):
    ars, region, _ = data
    comps = list(cyclic_sccs({v: ars.succs[v] for v in range(ars.n)}))
    flat = [v for comp in comps for v in comp]
    assert len(flat) == len(set(flat))
    assert set(flat) == _cycle_vertices_by_brute_force(ars)
    # On an induced subgraph: cycles that stay inside the region.
    sub = Ars(ars.labels, [(v, w) for v in region for w in ars.succs[v] if w in region])
    in_region = {v for comp in cyclic_sccs(region_succs(ars, region)) for v in comp}
    assert in_region == _cycle_vertices_by_brute_force(sub)


@given(ars_and_sets(max_states=12))
def test_bfs_depths_are_derivative_layers(data):
    ars, seeds, avoid = data
    parent = bfs(ars, seeds, avoid)
    layers, seen = [], set()
    layer = canon(set(seeds) - set(avoid))
    while layer:
        layers.append(layer)
        seen.update(layer)
        layer = canon(set(derivative(ars, layer)) - set(avoid) - seen)
    depth = {v: k for k, layer in enumerate(layers) for v in layer}
    assert {v: len(bfs_path(parent, v)) - 1 for v in parent} == depth
    assert [depth[v] for v in parent] == sorted(depth.values())  # discovery order
    for v in parent:
        path = bfs_path(parent, v)
        assert path[0] in seeds and all(b in ars.succs[a] for a, b in zip(path, path[1:]))


class TestTextFormat:
    def test_round_trip(self, a1):
        assert parse_ars(render_ars(a1)) == a1

    def test_comments_and_blanks(self):
        ars = parse_ars("\n# hi\nstates x y # trailing\n\ntrans x y\n")
        assert ars.labels == ("x", "y")
        assert ars.succs == ((1,), ())

    @pytest.mark.parametrize("text", [
        "trans a b\n",
        "states a\nstates b\n",
        "states a b\ntrans a zz\n",
        "states a\ntrans a\n",
        "states a?\n",
        "states a a\n",
        "nonsense x\n",
        "",
    ])
    def test_malformed_rejected(self, text):
        with pytest.raises(ArsError):
            parse_ars(text)

    @pytest.mark.parametrize("text, message", [
        ("trans a b\nstates a b\n", "line 1: trans before states line"),
        ("states a b\n\nstates c\n", "line 3: duplicate states line"),
        ("states a b\ntrans a\n", "line 2: trans needs exactly two labels"),
        ("states a b\ntrans a b a\n", "line 2: trans needs exactly two labels"),
        ("states a b\ntrans\n", "line 2: trans needs exactly two labels"),
        ("states a b\ntrans a b\ntrans x b\n", "line 3: unknown label 'x' in trans"),
        ("states a b\ntrans a y\n", "line 2: unknown label 'y' in trans"),
        ("states a b\ntrans x y\n", "line 2: unknown label 'x' in trans"),
        ("states a b\ntrans a it's\n", "line 2: unknown label \"it's\" in trans"),
        ("states a\n# note\nfoo a\n", "line 3: unknown directive 'foo'"),
        ("states a\nStates b\n", "line 2: unknown directive 'States'"),
        ("", "missing states line"),
        ("# only a comment\n\n", "missing states line"),
        # These ids name the label error; its message adds the line.
        *(pytest.param(text, f"line 1: {error}", id=f"{text}-{error}")
          for text, error in [
              ("states ab b!c\n", "bad object label 'b!c'"),
              ("states ab b!c ab\n", "bad object label 'b!c'"),
              ("states ab cd ab\n", "duplicate object label 'ab'"),
              ("states ab ab b!c\n", "duplicate object label 'ab'"),
              ("states ab b!c\ntrans ab b!c\n", "bad object label 'b!c'"),
              ("states ab ab\ntrans ab ab\n", "duplicate object label 'ab'")]),
        # A bad or duplicate label is an error of its states line, reported
        # in line order.
        ("states ab b!c\nfoo\n", "line 1: bad object label 'b!c'"),
        ("states a b!c\nbogus x\n", "line 1: bad object label 'b!c'"),
        ("states ab ab\ntrans ab zz\n", "line 1: duplicate object label 'ab'"),
        ("# head\r\n\r\nstates a a\r\n", "line 3: duplicate object label 'a'"),
        ("foo\nstates a?\n", "line 1: unknown directive 'foo'"),
        ("states a\nstates a?\n", "line 2: duplicate states line"),
        ("states a b\r\n\r\ntrans a c\r\n", "line 3: unknown label 'c' in trans"),
        ("states a b\n#\n  # x\ntrans a b # ok\n\ntrans\ta\n",
         "line 6: trans needs exactly two labels"),
    ])
    def test_error_messages(self, text, message):
        with pytest.raises(ArsError) as exc:
            parse_ars(text)
        assert str(exc.value) == message

    def test_comments_blank_lines_and_crlf(self):
        text = ("# head\r\n\r\nstates s0 s1# tail\r\n  # indented\r\n"
                "trans s0 s1#x\r\ntrans s1 s1\r\n")
        ars = parse_ars(text)
        assert ars.labels == ("s0", "s1")
        assert ars.succs == ((1,), (1,))
        assert ars == parse_ars(text.replace("\r\n", "\n"))

    def test_parallel_edges_collapse_and_successors_sort(self):
        ars = parse_ars("states a b c\ntrans a c\ntrans a b\ntrans a c\ntrans c c\n")
        assert ars.succs == ((1, 2), (), (2,))
        assert ars.normal_forms == (1,)
        assert ars.n == 3
        assert ars == Ars(("a", "b", "c"), [(0, 2), (0, 1), (2, 2)])

    def test_empty_states_line(self):
        ars = parse_ars("states\n")
        assert (ars.n, ars.labels, ars.succs) == (0, (), ())

    def test_angle_bracket_labels(self):
        ars = parse_ars("states <p,q,0> <p,q,1>\ntrans <p,q,0> <p,q,1>\n")
        assert ars.succs[0] == (1,)


class TestExecutionPath:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ExecutionPath(())

    # A path's own faults are read by the witness walk: a missing edge, and
    # an end that is not a normal form.
    def test_gap_detected(self, a1):
        problems = witness_violations(a1, predicate((0,), ()), FinitePath(ExecutionPath((0, 2))))
        assert problems == ["no edge a -> c"]

    def test_nonmaximal_end_detected(self, a1):
        problems = witness_violations(a1, predicate((0,), ()), FinitePath(ExecutionPath((0, 1))))
        assert problems == ["maximal path ends at reducible b"]


def test_a1_text_matches_fixture(a1):
    assert parse_ars(A1_TEXT) == a1
