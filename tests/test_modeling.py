import hashlib
from dataclasses import replace

import pytest

from reachproof import (
    AprPredicate,
    ModelSystem,
    VerdictKind,
    augment_error,
    builtin_peterson,
    check_partial,
    check_total,
    eval_state_predicate,
    expand,
    oracle_partial,
    oracle_total,
    parse_model,
    reachable,
    render_ars,
)
from reachproof.modeling import (
    MAX_NESTING,
    DomainError,
    EdgeDecl,
    ModelError,
    ModelSyntaxError,
    StateLimitError,
    parse_state_expr,
)

from conftest import semaphore_source
from test_expand_reference import reference_expand

# Golden constant: reachable states of the built-in mutual-exclusion model
# from its two initial states, computed once by the closure and pinned.
PETERSON_REACHABLE = 10


def _semaphore_predicates(n: int) -> list[str]:
    last = n - 1
    return ["lock", "!lock && loc(P0)=crit0", "lock = true", "lock != false",
            f"loc(P0)=wait0 || loc(P{last})=crit{last}",
            f"loc(P1) != idle1 && (lock || loc(P0)=idle0)", "true"]


COUNTER_SOURCE = """\
var x: int[0..3] = 0
var y: int[0..3] = 1 | 2
var f: bool = false
process P {
  loc a init
  loc b
  edge a -> b when x < 3 && y >= 1 do x := y; f := true
  edge b -> a when x > 0 || f do y := x; f := false
  edge b -> b when x <= y && f != false do x := 0
}
process Q {
  loc q init
  edge q -> q when !(y = 3) do y := 3
  edge q -> q when x != y do x := y; y := x
}
"""

COUNTER_PREDICATES = ["x < y", "y >= 2 && !f", "loc(P)=b || x > 1", "x <= 1 && y != 0",
                      "loc(Q) = q && (f = true || x = 3)", "1 < x", "false"]

PETERSON_PREDICATES = ["loc(P0)=wait0 && b0=true", "loc(P0)=crit0 && loc(P1)=crit1",
                       "!(x = 0)", "x != 1 || b1", "b0=true || b1=true", "x >= 1 && x < 1"]


def _golden_models():
    for n in (3, 4, 5):
        for racy in (None, n - 2):
            name = f"sem{n}-{'racy' if racy is not None else 'correct'}"
            yield name, (lambda n=n, racy=racy: parse_model(semaphore_source(n, racy)),
                         _semaphore_predicates(n))
    yield "peterson", (builtin_peterson, PETERSON_PREDICATES)
    yield "counter", (lambda: parse_model(COUNTER_SOURCE), COUNTER_PREDICATES)


GOLDEN_MODELS = dict(_golden_models())


def _expansion_digest(name: str) -> str:
    """`render_ars` with the `expand` initial line, then each predicate's set."""
    make, preds = GOLDEN_MODELS[name]
    model = make()
    exp, system = expand(model), ModelSystem(model)
    lines = [render_ars(exp.ars),
             "# initial: " + ",".join(exp.ars.labels[i] for i in exp.initial)]
    lines += [f"{p}: {list(eval_state_predicate(system, p))}" for p in preds]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# Recorded when guards were still type-checked and interpreted by separate
# tree walkers and states were interned by their rendered label.
GOLDEN_EXPANSIONS = {
    "sem3-correct": "19f951e7cff27580f9b872a1ba12f0f2c213f52c88a44d309a609ea17dba5825",
    "sem3-racy": "14f308eca38c5ad5c40354d0bc139f9e57db0675f603eefd2a4f07ea09aeb6a3",
    "sem4-correct": "630a1ab67442b32b52cffad0cb1e5b338685bf3e723f9c6fed0620795b717866",
    "sem4-racy": "a630d9ce3e69c53e274d319ca7137fe8ea2ac74c9b687946e072ad5f269b0586",
    "sem5-correct": "b551ce699c56edb6a87ea4bfcfd676f625a7482cd6b397fb266579c83a8c790a",
    "sem5-racy": "116b14011575289984720da85639ab0ccb1497f6ce785620f5dbf83ed60bbb72",
    "peterson": "0d2a6d378ced057012904e11ff31b616ed519e0326bb9805b921a037987495a0",
    "counter": "923e4e9184ac9af5df9537a7bfe79dff10b7e0d5d433798424b1ddcb0da568b9",
}


@pytest.mark.parametrize("name", GOLDEN_EXPANSIONS)
def test_expansion_matches_golden_digest(name):
    assert _expansion_digest(name) == GOLDEN_EXPANSIONS[name]


class TestParseModel:
    def test_peterson_structure(self):
        model = builtin_peterson()
        assert [v.name for v in model.variables] == ["b0", "b1", "x"]
        assert model.var("b0").is_bool and model.var("b0").init_values == (False,)
        assert model.var("x").domain() == (0, 1)
        assert model.var("x").init_values == (0, 1)
        assert [p.name for p in model.processes] == ["P0", "P1"]
        for proc in model.processes:
            assert len(proc.locations) == 3
            assert len(proc.init_locations) == 1
            assert len(proc.edges) == 3

    def test_empty_input(self):
        with pytest.raises(ModelSyntaxError, match="no process declared"):
            parse_model("")

    def test_error_carries_line_and_column(self):
        try:
            parse_model("var b: bool = false\nprocess P {\n  loc a init\n  edge a -> zz\n}\n")
        except ModelSyntaxError as exc:
            assert exc.line == 4
            assert "unknown location" in str(exc)
        else:
            pytest.fail("expected a syntax error")

    @pytest.mark.parametrize("guard, column, message", [
        ("b && x = 7", 25, "literal 7 outside x:int[0..1]"),
        ("b || !(x = 0 && y)", 36, "variable 'y' is not boolean"),
        ("x = 1 && b < b", 29, "operator < needs integer operands"),
    ])
    def test_guard_error_points_at_the_failing_atom(self, guard, column, message):
        text = ("var b: bool = false\nvar x: int[0..1] = 0\nvar y: int[0..2] = 0\n"
                f"process P {{\n  loc a init\n  edge a -> a when {guard}\n}}\n")
        with pytest.raises(ModelSyntaxError) as exc:
            parse_model(text)
        assert (exc.value.line, exc.value.column) == (6, column)
        assert str(exc.value) == f"line 6, column {column}: {message}"

    @pytest.mark.parametrize("text, line, column", [
        ("process P {\n  loc true init\n}\n", 2, 7),
        ("process P {\n  loc a init\n  loc false\n}\n", 3, 7),
        ("var x: bool = false\nvar true: int[0..1] = 0\nprocess P { loc a init }\n", 2, 5),
        ("var false: bool = false\nprocess P { loc a init }\n", 1, 5),
        ("process true {\n  loc a init\n}\n", 1, 9),
    ])
    def test_literals_are_not_names(self, text, line, column):
        with pytest.raises(ModelSyntaxError, match="is a literal, not a name") as exc:
            parse_model(text)
        assert (exc.value.line, exc.value.column) == (line, column)

    @pytest.mark.parametrize("text,needle", [
        ("var x: int[1..0] = 1\nprocess P { loc a init }", "empty range"),
        ("var x: int[0..1] = 2\nprocess P { loc a init }", "outside"),
        ("var b: bool = 1\nprocess P { loc a init }", "true/false"),
        ("process P { loc a init loc a }", "duplicate"),
        ("var b: bool = false\nvar b: bool = true\nprocess P { loc a init }", "duplicate"),
        ("process P { edge a -> a }", "unknown location"),
        ("process P { loc a }", "no init location"),
        ("process P { loc a init\n edge a -> a when y = 1 }", "unknown variable"),
        ("process P { loc a init\n edge a -> a do z := 1 }", "unknown variable"),
        ("var b: bool = false\nprocess P { loc a init\n edge a -> a when b = 1 }", "mismatch"),
        ("var x: int[0..1] = 0\nprocess P { loc a init\n edge a -> a when x }", "not boolean"),
        ("process P { loc a@ init }", "unexpected character '@'"),
        ("process P { loc a init\n edge a -> a when loc(P) = a }",
         r"loc\(\) atoms are not allowed in guards"),
        ("var x: float = 0\nprocess P { loc a init }", "expected 'bool' or 'int', got 'float'"),
        ("var x: int[a..1] = 0\nprocess P { loc a init }", "expected an integer, got 'a'"),
        ("process P { loc a init", "unterminated process block"),
        ("process P { }", "process 'P' has no locations"),
        ("var x: int[0..1] = 0\nprocess P { loc a init\n edge a -> a do x := y }",
         "line 3, column 22: unknown variable 'y'"),
    ])
    def test_rejects(self, text, needle):
        with pytest.raises(ModelError, match=needle):
            parse_model(text)


class TestExpand:
    def test_peterson_size_and_initials(self, peterson):
        assert peterson.ars.n == 72
        initial_labels = [peterson.ars.labels[i] for i in peterson.initial]
        assert initial_labels == [
            "<noncrit0,noncrit1,false,false,0>",
            "<noncrit0,noncrit1,false,false,1>",
        ]

    def test_guard_fires_through_negated_flag(self, peterson):
        src = peterson.ars.id_of("<wait0,noncrit1,true,false,1>")
        dst = peterson.ars.id_of("<crit0,noncrit1,true,false,1>")
        assert dst in peterson.ars.succs[src]

    def test_assignments_are_simultaneous(self, peterson):
        src = peterson.ars.id_of("<noncrit0,noncrit1,false,false,0>")
        dst = peterson.ars.id_of("<wait0,noncrit1,true,false,1>")
        assert dst in peterson.ars.succs[src]

    def test_edgeless_process_yields_isolated_normal_forms(self):
        model = parse_model("var v: int[0..2] = 0\nprocess P { loc only init }")
        exp = expand(model)
        assert exp.ars.n == 3
        assert exp.ars.normal_forms == (0, 1, 2)

    def test_domain_violation_at_expansion(self):
        model = parse_model(
            "var x: int[0..1] = 0\nprocess P { loc a init\n edge a -> a do x := 5 }")
        with pytest.raises(DomainError):
            expand(model)

    @pytest.mark.parametrize("assign, error, needle", [
        ("b := x", ModelError, "assignment b := x mixes bool and int"),
        ("x := true", ModelError, "needs an integer"),
        ("b := 1", ModelError, "assignment b := 1 needs true/false"),
        ("x := 5", DomainError, r"assignment x := 5 leaves int\[0\.\.1\]"),
        ("x := y", DomainError, r"assignment x := 2 leaves its domain \(edge a -> a of P\)"),
    ])
    def test_assignment_errors_at_expansion(self, assign, error, needle):
        model = parse_model("var b: bool = false\nvar x: int[0..1] = 0\nvar y: int[0..3] = 0\n"
                            f"process P {{ loc a init\n edge a -> a do {assign} }}")
        with pytest.raises(error, match=needle):
            expand(model)

    def test_state_cap(self):
        with pytest.raises(StateLimitError):
            expand(builtin_peterson(), max_states=10)

    def test_deterministic_expansion(self):
        one = expand(builtin_peterson())
        two = expand(builtin_peterson())
        assert one.ars == two.ars
        assert render_ars(one.ars) == render_ars(two.ars)
        assert one.initial == two.initial

    def test_interleaving_justified_by_exactly_one_process_edge(self, peterson, peterson_system):
        model = peterson_system.model
        _, states, _ = reference_expand(model)
        var_names = [v.name for v in model.variables]
        enabled = {edge: set(eval_state_predicate(peterson_system, edge.guard))
                   for proc in model.processes for edge in proc.edges if edge.guard is not None}
        checked = 0
        for sid in range(0, peterson.ars.n, 3):
            locs, values = states[sid]
            for dst in peterson.ars.succs[sid]:
                dst_locs, dst_values = states[dst]
                causes = []
                for pi, proc in enumerate(model.processes):
                    others_same = all(
                        dst_locs[j] == locs[j] for j in range(len(model.processes)) if j != pi)
                    if not others_same:
                        continue
                    for edge in proc.edges:
                        if edge.src != locs[pi] or edge.dst != dst_locs[pi]:
                            continue
                        env = dict(zip(var_names, values))
                        new = dict(env)
                        for var, rhs in edge.assigns:
                            new[var] = env[rhs[1]] if rhs[0] == "name" else rhs[1]
                        guard_ok = edge.guard is None or sid in enabled[edge]
                        if guard_ok and tuple(new[v] for v in var_names) == dst_values:
                            causes.append((proc.name, edge))
                assert len(causes) == 1
                checked += 1
        assert checked > 40

    # A model built in code skips the parser's checks: each fault the parser
    # rejects in text is a ModelError naming the process or variable.
    @pytest.mark.parametrize("fault, needle", [
        ("edge", "unknown location 'zz' in an edge of P"),
        ("init location", "unknown init location 'zz' of P"),
        ("init value", "initial value 5 outside the domain of x"),
    ])
    @pytest.mark.parametrize("build", [ModelSystem, expand])
    def test_hand_built_model_faults_raise_model_error(self, build, fault, needle):
        model = parse_model("var x: int[0..3] = 0\nprocess P { loc a init\n loc b\n edge a -> b }")
        (x,), (proc,) = model.variables, model.processes
        if fault == "edge":
            proc = replace(proc, edges=(EdgeDecl("a", "zz", None, ()),))
        elif fault == "init location":
            proc = replace(proc, init_locations=("a", "zz"))
        else:
            x = replace(x, init_values=(0, 5))
        with pytest.raises(ModelError, match=needle):
            build(replace(model, variables=(x,), processes=(proc,))).initial


class TestEvalStatePredicate:
    def test_starvation_source_set(self, peterson_system):
        src = eval_state_predicate(peterson_system, "loc(P0)=wait0 && b0=true")
        assert len(src) == 12
        _, states, _ = reference_expand(peterson_system.model)
        assert all(states[i][0][0] == "wait0" for i in src)
        assert all(states[i][1][0] is True for i in src)

    def test_true_matches_all(self, peterson, peterson_system):
        assert len(eval_state_predicate(peterson_system, "true")) == peterson.ars.n

    def test_race_error_set(self, peterson_system):
        err = eval_state_predicate(peterson_system, "loc(P0)=crit0 && loc(P1)=crit1")
        assert len(err) == 8

    def test_negation_and_disequality(self, peterson_system):
        left = eval_state_predicate(peterson_system, "!(x = 0)")
        right = eval_state_predicate(peterson_system, "x != 1")
        assert len(left) == 36 and len(right) == 36
        assert not set(left) & set(right)

    @pytest.mark.parametrize("expr,needle", [
        ("loc(P9)=wait0", "unknown process"),
        ("loc(P0)=zzz", "not a location"),
        ("loc(P0) < wait0", "only = and !="),
        ("b0 = 1", "mismatch"),
        ("x = 7", "outside"),
        ("x", "not boolean"),
        ("b0 &&", "expected a variable or literal"),
        ("1", "int is not a boolean atom"),
        ("loc(P0)", "loc is not a boolean atom"),
        ("b0 < true", "operator < needs integer operands"),
        ("b0 = true extra", "trailing input"),
        ("loc(P0) = loc(P1)", r"loc\(P1\) is not a location of P0"),
    ])
    def test_type_errors(self, peterson_system, expr, needle):
        with pytest.raises(ModelError, match=needle):
            eval_state_predicate(peterson_system, expr)

    @pytest.mark.parametrize("op", ["=", "!="])
    def test_location_atoms_read_either_way_round(self, peterson_system, op):
        assert eval_state_predicate(peterson_system, f"crit0 {op} loc(P0)") == \
            eval_state_predicate(peterson_system, f"loc(P0){op}crit0")

    def test_long_chains_are_flat(self, peterson_system):
        b0 = eval_state_predicate(peterson_system, "b0")
        for op in ("&&", "||"):
            text = f" {op} ".join(["b0"] * 1200)
            assert len(parse_state_expr(text)) == 1201
            assert eval_state_predicate(peterson_system, text) == b0

    @pytest.mark.parametrize("prefix, suffix", [("(", ")"), ("!!", "")])
    def test_nesting_limit(self, peterson_system, prefix, suffix):
        ok = prefix * (MAX_NESTING // len(prefix)) + "b0" + suffix * (MAX_NESTING // len(prefix))
        b0 = eval_state_predicate(peterson_system, "b0")
        assert eval_state_predicate(peterson_system, ok) == b0
        with pytest.raises(ModelSyntaxError, match="nested deeper than") as info:
            parse_state_expr(prefix + ok + suffix)
        assert (info.value.line, info.value.column) == (1, MAX_NESTING + 1)

    def test_parse_state_expr_ast_reusable(self, peterson_system):
        ast = parse_state_expr("b0=true || b1=true")
        assert len(eval_state_predicate(peterson_system, ast)) == 54


class TestPetersonVerdicts:
    def test_reachable_golden_count(self, peterson):
        closure = reachable(peterson.ars, peterson.initial)
        assert len(closure) == PETERSON_REACHABLE
        # Independent recount: exhaustive simple-path enumeration.
        seen = set()

        def dfs(v, on_path):
            seen.add(v)
            for w in peterson.ars.succs[v]:
                if w not in on_path:
                    dfs(w, on_path | {w})

        for s in peterson.initial:
            dfs(s, {s})
        assert len(seen) == PETERSON_REACHABLE
        assert seen == set(closure)

    def test_race_error_states_unreachable(self, peterson, peterson_system):
        err = eval_state_predicate(peterson_system, "loc(P0)=crit0 && loc(P1)=crit1")
        assert not set(reachable(peterson.ars, peterson.initial)) & set(err)

    def test_no_normal_form_reachable(self, peterson):
        reach = reachable(peterson.ars, peterson.initial)
        assert not set(reach) & set(peterson.ars.normal_forms)

    def test_race_freedom_by_prover_and_oracle(self, peterson, peterson_system):
        err = eval_state_predicate(peterson_system, "loc(P0)=crit0 && loc(P1)=crit1")
        aug, _ = augment_error(peterson.ars, err)
        pred = AprPredicate(peterson.initial, ())
        assert check_partial(aug, pred).kind is VerdictKind.PARTIALLY_VALID
        assert oracle_partial(aug, pred).valid

    def test_starvation_freedom_by_prover_and_oracle(self, peterson, peterson_system):
        src = eval_state_predicate(peterson_system, "loc(P0)=wait0 && b0=true")
        goal = eval_state_predicate(peterson_system, "loc(P0)=crit0")
        pred = AprPredicate(src, goal)
        assert check_total(peterson.ars, pred).kind is VerdictKind.TOTALLY_VALID
        assert oracle_total(peterson.ars, pred).valid
