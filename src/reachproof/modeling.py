"""Guarded-transition models over finite-domain shared variables.

A model is a set of processes, each a graph of locations with guarded
edges, plus shared variables with explicit finite domains.  Expansion
enumerates the full Cartesian state space and interleaves the processes:
one transition per (state, process edge) whose guard holds, with the
edge's assignments applied simultaneously.  The expanded system is an
ordinary `Ars` whose object labels render the state tuples, so every
verifier facility applies unchanged.

Model DSL (UTF-8, `#` comments):

    var <name>: bool = <v>{|<v>}
    var <name>: int[<lo>..<hi>] = <v>{|<v>}
    process <name> {
      loc <name> [init]
      edge <src> -> <dst> [when <guard>] [do <var> := <expr> {; <var> := <expr>}]
    }

Guards combine comparisons (=, !=, <, <=, >, >=) of variables and literals
with &&, ||, ! and parentheses (`(` and `!` nested at most MAX_NESTING
deep); a bare boolean variable is an atom.  State predicates additionally
allow `loc(<process>) = <location>` atoms.  Guards are type-checked when the
model is parsed, assignments when it is expanded; each expression is
compiled once into a test over a state's location and value tuples.
"""

from __future__ import annotations

import itertools
import operator
import re
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cached_property
from math import prod

from .ars import LABEL_RE, Ars, StateSet, canon

Value = bool | int


class ModelError(ValueError):
    """Malformed model text or expression."""


class ModelSyntaxError(ModelError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class DomainError(ModelError):
    """An assignment leaves a variable's declared domain."""


class StateLimitError(ModelError):
    """The state space exceeds the configured cap."""


@dataclass(frozen=True)
class VarDecl:
    name: str
    is_bool: bool
    lo: int = 0
    hi: int = 0
    init_values: tuple[Value, ...] = ()

    def domain(self) -> tuple[Value, ...]:
        if self.is_bool:
            return (False, True)
        return tuple(range(self.lo, self.hi + 1))

    def admits(self, v: Value) -> bool:
        if self.is_bool:
            return isinstance(v, bool)
        return isinstance(v, int) and not isinstance(v, bool) and self.lo <= v <= self.hi


@dataclass(frozen=True)
class EdgeDecl:
    src: str
    dst: str
    guard: tuple | None  # expression AST, None = always enabled
    assigns: tuple[tuple[str, tuple], ...]  # (var name, expression AST)


@dataclass(frozen=True)
class ProcessDecl:
    name: str
    locations: tuple[str, ...]
    init_locations: tuple[str, ...]
    edges: tuple[EdgeDecl, ...]


@dataclass(frozen=True)
class Model:
    variables: tuple[VarDecl, ...]
    processes: tuple[ProcessDecl, ...]

    def var(self, name: str) -> VarDecl:
        for v in self.variables:
            if v.name == name:
                return v
        raise ModelError(f"unknown variable {name!r}")

    def process(self, name: str) -> ProcessDecl:
        for p in self.processes:
            if p.name == name:
                return p
        raise ModelError(f"unknown process {name!r}")


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"(?P<ws>[ \t\r]+)"
    r"|(?P<comment>#[^\n]*)"
    r"|(?P<nl>\n)"
    r"|(?P<int>\d+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<sym>:=|->|\.\.|&&|\|\||!=|<=|>=|[{}()\[\]:=|!<>;,-])"
)


@dataclass(frozen=True)
class Token:
    kind: str  # ident | int | sym | eof
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ModelSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind == "nl":
            line += 1
            col = 1
        else:
            if kind not in ("ws", "comment"):
                tokens.append(Token(kind, chunk, line, col))
            col += len(chunk)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.atoms: list[tuple[tuple, Token]] = []  # each atom parsed, with its first token

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def accept(self, text: str) -> bool:
        if self.peek().text == text and self.peek().kind != "eof":
            self.next()
            return True
        return False

    def expect(self, text: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.text != text or tok.kind == "eof":
            want = what or repr(text)
            raise ModelSyntaxError(f"expected {want}, got {tok.text!r}", tok.line, tok.column)
        return self.next()

    def expect_ident(self, what: str) -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise ModelSyntaxError(f"expected {what}, got {tok.text!r}", tok.line, tok.column)
        return self.next()

    def error(self, message: str) -> ModelSyntaxError:
        tok = self.peek()
        return ModelSyntaxError(message, tok.line, tok.column)


# ---------------------------------------------------------------------------
# Expression parsing (guards and state predicates share one grammar)

_CMP_OPS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge}

# Deepest `(`/`!` nesting an expression may have.  The parser and the
# compiler recurse once per level; `&&`/`||` chains are flat and cost none.
MAX_NESTING = 100


def _parse_expr(ts: _TokenStream, allow_loc: bool, depth: int = 0) -> tuple:
    terms = [_parse_and(ts, allow_loc, depth)]
    while ts.accept("||"):
        terms.append(_parse_and(ts, allow_loc, depth))
    return terms[0] if len(terms) == 1 else ("or", *terms)


def _parse_and(ts: _TokenStream, allow_loc: bool, depth: int) -> tuple:
    terms = [_parse_unary(ts, allow_loc, depth)]
    while ts.accept("&&"):
        terms.append(_parse_unary(ts, allow_loc, depth))
    return terms[0] if len(terms) == 1 else ("and", *terms)


def _parse_unary(ts: _TokenStream, allow_loc: bool, depth: int) -> tuple:
    tok = ts.peek()
    if tok.text not in ("!", "("):
        return _parse_atom(ts, allow_loc)
    if depth == MAX_NESTING:
        raise ts.error(f"expression nested deeper than {MAX_NESTING} levels")
    ts.next()
    if tok.text == "!":
        return ("not", _parse_unary(ts, allow_loc, depth + 1))
    node = _parse_expr(ts, allow_loc, depth + 1)
    ts.expect(")")
    return node


def _parse_atom(ts: _TokenStream, allow_loc: bool) -> tuple:
    first = ts.peek()
    lhs = _parse_operand(ts, allow_loc)
    tok = ts.peek()
    if tok.text in _CMP_OPS and tok.kind == "sym":
        op = ts.next().text
        node = ("cmp", op, lhs, _parse_operand(ts, allow_loc))
    else:
        node = ("atom", lhs)
    ts.atoms.append((node, first))
    return node


def _parse_operand(ts: _TokenStream, allow_loc: bool) -> tuple:
    tok = ts.peek()
    if tok.kind == "int" or tok.text == "-":
        return ("int", _parse_int_lit(ts))
    if tok.kind != "ident":
        raise ts.error(f"expected a variable or literal, got {tok.text!r}")
    ts.next()
    if tok.text == "true":
        return ("bool", True)
    if tok.text == "false":
        return ("bool", False)
    if tok.text == "loc" and ts.peek().text == "(":
        if not allow_loc:
            raise ModelSyntaxError("loc() atoms are not allowed in guards", tok.line, tok.column)
        ts.expect("(")
        proc = ts.expect_ident("a process name")
        ts.expect(")")
        return ("loc", proc.text)
    return ("name", tok.text)


def parse_state_expr(text: str) -> tuple:
    """Parse a state-predicate expression (loc/var atoms, and/or/not)."""
    ts = _TokenStream(_tokenize(text))
    node = _parse_expr(ts, allow_loc=True)
    tok = ts.peek()
    if tok.kind != "eof":
        raise ModelSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.column)
    return node


# ---------------------------------------------------------------------------
# Model parsing

def parse_model(text: str) -> Model:
    """Parse the model DSL, reporting the first error with line/column."""
    ts = _TokenStream(_tokenize(text))
    variables: list[VarDecl] = []
    processes: list[ProcessDecl] = []
    names: set[str] = set()
    while ts.peek().kind != "eof":
        head = ts.peek()
        if head.text == "var":
            ts.next()
            variables.append(_parse_var(ts, names))
        elif head.text == "process":
            ts.next()
            processes.append(_parse_process(ts, names, variables))
        else:
            raise ts.error(f"expected 'var' or 'process', got {head.text!r}")
    if not processes:
        raise ModelSyntaxError("no process declared", ts.peek().line, ts.peek().column)
    return Model(tuple(variables), tuple(processes))


def _declare(tok: Token, names: set[str]) -> str:
    """Claim `tok` as a new variable, process or location name."""
    if tok.text in ("true", "false"):
        raise ModelSyntaxError(f"{tok.text!r} is a literal, not a name", tok.line, tok.column)
    if tok.text in names:
        raise ModelSyntaxError(f"duplicate name {tok.text!r}", tok.line, tok.column)
    names.add(tok.text)
    return tok.text


def _parse_var(ts: _TokenStream, names: set[str]) -> VarDecl:
    name_tok = ts.expect_ident("a variable name")
    _declare(name_tok, names)
    ts.expect(":")
    type_tok = ts.next()
    if type_tok.text == "bool":
        is_bool, lo, hi = True, 0, 0
    elif type_tok.text == "int":
        ts.expect("[")
        lo = _parse_int_lit(ts)
        ts.expect("..")
        hi = _parse_int_lit(ts)
        ts.expect("]")
        if lo > hi:
            raise ModelSyntaxError(f"empty range [{lo}..{hi}]", type_tok.line, type_tok.column)
        is_bool = False
    else:
        raise ModelSyntaxError(
            f"expected 'bool' or 'int', got {type_tok.text!r}", type_tok.line, type_tok.column)
    ts.expect("=")
    decl = VarDecl(name_tok.text, is_bool, lo, hi)
    inits = [_parse_value(ts, decl)]
    while ts.accept("|"):
        inits.append(_parse_value(ts, decl))
    return VarDecl(name_tok.text, is_bool, lo, hi, tuple(dict.fromkeys(inits)))


def _parse_int_lit(ts: _TokenStream) -> int:
    sign = -1 if ts.accept("-") else 1
    tok = ts.peek()
    if tok.kind != "int":
        raise ts.error(f"expected an integer, got {tok.text!r}")
    try:
        value = int(tok.text)
    except ValueError:  # more digits than Python converts
        raise ts.error(f"integer literal of {len(tok.text)} digits is too long") from None
    ts.next()
    return sign * value


def _parse_value(ts: _TokenStream, decl: VarDecl) -> Value:
    tok = ts.peek()
    if decl.is_bool:
        if tok.text in ("true", "false"):
            ts.next()
            return tok.text == "true"
        raise ts.error(f"expected true/false for {decl.name}, got {tok.text!r}")
    value = _parse_int_lit(ts)
    if not decl.admits(value):
        raise ModelSyntaxError(
            f"value {value} outside {decl.name}:int[{decl.lo}..{decl.hi}]", tok.line, tok.column)
    return value


def _parse_process(ts: _TokenStream, names: set[str], variables: list[VarDecl]) -> ProcessDecl:
    name_tok = ts.expect_ident("a process name")
    _declare(name_tok, names)
    ts.expect("{")
    locations: list[str] = []
    init_locations: list[str] = []
    edges: list[EdgeDecl] = []
    var_names = {v.name for v in variables}
    while not ts.accept("}"):
        head = ts.peek()
        if head.text == "loc":
            ts.next()
            loc = _declare(ts.expect_ident("a location name"), names)
            locations.append(loc)
            if ts.accept("init"):
                init_locations.append(loc)
        elif head.text == "edge":
            ts.next()
            src = ts.expect_ident("a source location")
            ts.expect("->")
            dst = ts.expect_ident("a destination location")
            for tok in (src, dst):
                if tok.text not in locations:
                    raise ModelSyntaxError(
                        f"unknown location {tok.text!r}", tok.line, tok.column)
            guard = None
            if ts.accept("when"):
                # Only atoms can be ill-typed: check each one, so that an
                # error points at the atom that failed.
                first = len(ts.atoms)
                guard = _parse_expr(ts, allow_loc=False)
                scope = Model(tuple(variables), ())
                for atom, tok in ts.atoms[first:]:
                    try:
                        _compile(scope, atom, allow_loc=False)
                    except ModelError as exc:
                        raise ModelSyntaxError(str(exc), tok.line, tok.column) from None
            assigns: list[tuple[str, tuple]] = []
            if ts.accept("do"):
                assigns.append(_parse_assign(ts, var_names))
                while ts.accept(";"):
                    assigns.append(_parse_assign(ts, var_names))
            edges.append(EdgeDecl(src.text, dst.text, guard, tuple(assigns)))
        elif head.kind == "eof":
            raise ts.error("unterminated process block")
        else:
            raise ts.error(f"expected 'loc', 'edge' or '}}', got {head.text!r}")
    if not locations:
        raise ModelSyntaxError(
            f"process {name_tok.text!r} has no locations", name_tok.line, name_tok.column)
    if not init_locations:
        raise ModelSyntaxError(
            f"process {name_tok.text!r} has no init location", name_tok.line, name_tok.column)
    return ProcessDecl(name_tok.text, tuple(locations), tuple(init_locations), tuple(edges))


def _parse_assign(ts: _TokenStream, var_names: set[str]) -> tuple[str, tuple]:
    var_tok = ts.expect_ident("a variable name")
    if var_tok.text not in var_names:
        raise ModelSyntaxError(f"unknown variable {var_tok.text!r}", var_tok.line, var_tok.column)
    ts.expect(":=")
    rhs_tok = ts.peek()
    rhs = _parse_operand(ts, allow_loc=False)
    if rhs[0] == "name" and rhs[1] not in var_names:
        raise ModelSyntaxError(f"unknown variable {rhs[1]!r}", rhs_tok.line, rhs_tok.column)
    return var_tok.text, rhs


# ---------------------------------------------------------------------------
# Compilation: type-check an expression once, then test it on many states

_INT_ONLY_OPS = ("<", "<=", ">", ">=")

# A compiled state test: (locations, values) of one state -> truth.
StateTest = Callable[[tuple[str, ...], tuple[Value, ...]], bool]


def _var(model: Model, name: str) -> tuple[int, VarDecl]:
    decl = model.var(name)
    return model.variables.index(decl), decl


def _compile(model: Model, node: tuple, allow_loc: bool) -> StateTest:
    """Type-check an expression AST against `model` and compile it to a test
    over a state's location and value tuples; raises ModelError."""
    kind = node[0]
    if kind in ("or", "and"):
        tests = [_compile(model, child, allow_loc) for child in node[1:]]
        return _any_of(tests) if kind == "or" else _all_of(tests)
    if kind == "not":
        test = _compile(model, node[1], allow_loc)
        return lambda locs, values: not test(locs, values)
    if kind == "atom":
        operand = node[1]
        if operand[0] == "bool":
            return lambda locs, values, b=operand[1]: b
        if operand[0] == "name":
            i, decl = _var(model, operand[1])
            if not decl.is_bool:
                raise ModelError(f"variable {operand[1]!r} is not boolean")
            return lambda locs, values: values[i]
        raise ModelError(f"{operand[0]} is not a boolean atom")
    if kind != "cmp":
        raise ModelError(f"unknown expression node {kind!r}")
    _, op, lhs, rhs = node
    cmp = _CMP_OPS[op]
    if lhs[0] == "loc" or rhs[0] == "loc":
        if lhs[0] != "loc":
            lhs, rhs = rhs, lhs
        if not allow_loc:
            raise ModelError("loc() atoms are not allowed here")
        proc = model.process(lhs[1])
        if op not in ("=", "!="):
            raise ModelError(f"locations support only = and !=, not {op}")
        if rhs[0] != "name" or rhs[1] not in proc.locations:
            raise ModelError(f"{_render_operand(rhs)} is not a location of {proc.name}")
        p, loc = model.processes.index(proc), rhs[1]
        return lambda locs, values: cmp(locs[p], loc)
    left, lt = _compile_operand(model, lhs)
    right, rt = _compile_operand(model, rhs)
    if lt != rt:
        raise ModelError(f"type mismatch: {_render_operand(lhs)} {op} {_render_operand(rhs)}")
    if lt == "bool" and op in _INT_ONLY_OPS:
        raise ModelError(f"operator {op} needs integer operands")
    for side, other in ((lhs, rhs), (rhs, lhs)):
        if side[0] == "int" and other[0] == "name":
            decl = model.var(other[1])
            if not decl.admits(side[1]):
                raise ModelError(f"literal {side[1]} outside {decl.name}:int[{decl.lo}..{decl.hi}]")
    return lambda locs, values: cmp(left(values), right(values))


def _all_of(tests: list[StateTest]) -> StateTest:
    def test(locs, values):
        for t in tests:
            if not t(locs, values):
                return False
        return True
    return test


def _any_of(tests: list[StateTest]) -> StateTest:
    def test(locs, values):
        for t in tests:
            if t(locs, values):
                return True
        return False
    return test


def _compile_operand(model: Model, operand: tuple) -> tuple[Callable[[tuple], Value], str]:
    """A reader of the operand's value from a state's value tuple, and its type."""
    if operand[0] in ("int", "bool"):
        return (lambda values, c=operand[1]: c), operand[0]
    if operand[0] == "name":
        i, decl = _var(model, operand[1])
        return (lambda values: values[i]), "bool" if decl.is_bool else "int"
    raise ModelError(f"unexpected operand {operand[0]!r}")


def _compile_assign(model: Model, var_name: str,
                    rhs: tuple) -> tuple[int, VarDecl, Callable[[tuple], Value]]:
    """Type-check `var_name := rhs`; the variable's position, its declaration
    and a reader of the assigned value from a state's value tuple."""
    pos, decl = _var(model, var_name)
    read, rt = _compile_operand(model, rhs)
    if rhs[0] == "name":
        if (rt == "bool") != decl.is_bool:
            raise ModelError(f"assignment {var_name} := {rhs[1]} mixes bool and int")
    elif rhs[0] == "bool":
        if not decl.is_bool:
            raise ModelError(f"assignment {var_name} := {rhs[1]} needs an integer")
    elif decl.is_bool:
        raise ModelError(f"assignment {var_name} := {rhs[1]} needs true/false")
    elif not decl.admits(rhs[1]):
        raise DomainError(f"assignment {var_name} := {rhs[1]} leaves int[{decl.lo}..{decl.hi}]")
    return pos, decl, read


def _render_operand(operand: tuple) -> str:
    if operand[0] == "loc":
        return f"loc({operand[1]})"
    return str(operand[1]).lower() if operand[0] == "bool" else str(operand[1])


# ---------------------------------------------------------------------------
# Expansion

@dataclass(frozen=True)
class ModelState:
    """One expanded state: a location per process, a value per variable."""

    locs: tuple[str, ...]
    values: tuple[Value, ...]


@dataclass
class Expansion:
    """Expanded model: the system, its layout (each process's sorted
    locations, and the valuations, in id order) and the initial states."""

    model: Model
    ars: Ars
    loc_axes: tuple[tuple[str, ...], ...]
    valuations: tuple[tuple[Value, ...], ...]
    initial: StateSet

    def _layout(self) -> Iterator[tuple[tuple[str, ...], tuple[Value, ...]]]:
        """Every state's (locations, values), in id order."""
        return itertools.product(itertools.product(*self.loc_axes), self.valuations)

    @cached_property
    def states(self) -> tuple[ModelState, ...]:
        """The state table aligned with the ids, built on first access."""
        return tuple(itertools.starmap(ModelState, self._layout()))


DEFAULT_STATE_CAP = 1_000_000


def expand(model: Model, max_states: int = DEFAULT_STATE_CAP) -> Expansion:
    """Eagerly expand the full Cartesian state space with interleaving.

    Object order is lexicographic on the rendered state label
    `<loc,...,loc,value,...,value>`, so identical model text always yields a
    bit-identical system.  No field contains `,` or `>`, so that order is
    the product of one order per field: its text followed by the separator
    after it (`>` for the last field, so `10` sorts before `1`).  A state's
    id is its mixed-radix number over those sorted fields, the variables
    being the low-order digits, and each label is put together from
    per-field strings.

    Guards and assignments read only variables, so each edge is evaluated
    once per valuation `vi`; its transitions are then `li*|V| + vi ->
    li*|V| + vi + delta` for every location index `li` whose digit for the
    edge's process is the edge's source.
    """
    # Per process: location -> [(edge, guard test, assignments)] leaving it.
    moves = []
    for proc in model.processes:
        by_src = {loc: [] for loc in proc.locations}
        for edge in proc.edges:
            guard = None if edge.guard is None else _compile(model, edge.guard, allow_loc=False)
            assigns = [_compile_assign(model, var, rhs) for var, rhs in edge.assigns]
            by_src[edge.src].append((edge, guard, assigns))
        moves.append(by_src)

    size = prod(len(p.locations) for p in model.processes) * prod(
        2 if v.is_bool else v.hi - v.lo + 1 for v in model.variables)
    if size > max_states:
        raise StateLimitError(f"state space of {size} states exceeds cap {max_states}")

    # One axis per field: (text and separator, location or value), sorted.
    fields = [[(loc, loc) for loc in p.locations] for p in model.processes]
    fields += [[(str(v).lower() if decl.is_bool else str(v), v) for v in decl.domain()]
               for decl in model.variables]
    seps = [","] * (len(fields) - 1) + [">"]
    axes = [sorted((text + sep, v) for text, v in axis) for axis, sep in zip(fields, seps)]
    labels = ["<"] if axes else ["<>"]
    for axis in axes:
        labels = [head + text for head in labels for text, _ in axis]

    n_procs = len(model.processes)
    loc_axes = tuple(tuple(loc for _, loc in axis) for axis in axes[:n_procs])
    valuations = tuple(itertools.product(*([v for _, v in axis] for axis in axes[n_procs:])))
    vindex = {values: vi for vi, values in enumerate(valuations)}
    nv = len(valuations)
    # The id step of each process's location digit.
    weight = [prod(map(len, loc_axes[pi + 1:])) * nv for pi in range(n_procs)]

    succ: list[set[int]] = [set() for _ in range(size)]
    # The first assignment to leave its domain, in (state, process, edge) order.
    first_error = None
    for pi, (proc, by_src, axis, w) in enumerate(zip(model.processes, moves, loc_axes, weight)):
        digit = {loc: d for d, loc in enumerate(axis)}
        for d, src in enumerate(axis):
            if not by_src[src]:
                continue
            # The states with process pi at src and valuation 0.
            bases = [hi + lo for hi in range(d * w, size, w * len(axis)) for lo in range(0, w, nv)]
            for rank, (edge, guard, assigns) in enumerate(by_src[src]):
                step = (digit[edge.dst] - d) * w
                for vi, values in enumerate(valuations):
                    if guard is not None and not guard((), values):
                        continue
                    new_vals = list(values)
                    for pos, decl, read in assigns:
                        value = read(values)
                        if not decl.admits(value):
                            error = (d * w + vi, pi, rank, decl.name, value, edge, proc.name)
                            first_error = min(first_error or error, error)
                            break
                        new_vals[pos] = value
                    else:
                        delta = step + vindex[tuple(new_vals)] - vi
                        for b in bases:
                            succ[b + vi].add(b + vi + delta)
    if first_error:
        *_, name, value, edge, proc_name = first_error
        raise DomainError(f"assignment {name} := {value} leaves its domain "
                          f"(edge {edge.src} -> {edge.dst} of {proc_name})")
    # The labels skip `Ars`'s checks: they are put together from declared
    # identifiers, integer and bool literals and the characters `<`, `,`
    # and `>`, all inside LABEL_RE, and the mixed-radix fields make them
    # unique.  A hand-built model's location names are held to the same.
    index = dict(zip(labels, range(size)))
    if len(index) < size or not all(LABEL_RE.match(loc) for axis in loc_axes for loc in axis):
        raise ModelError("location names do not make distinct valid state labels")
    ars = Ars._from_table(tuple(labels), index, tuple(tuple(sorted(s)) for s in succ))
    initial = canon(
        sum(w * axis.index(loc) for w, axis, loc in zip(weight, loc_axes, locs)) + vindex[values]
        for locs, values in itertools.product(
            itertools.product(*(p.init_locations for p in model.processes)),
            itertools.product(*(v.init_values for v in model.variables))))
    return Expansion(model, ars, loc_axes, valuations, initial)


def eval_state_predicate(expansion: Expansion, expr: str | tuple) -> StateSet:
    """The states satisfying a state-predicate expression, in id order."""
    node = parse_state_expr(expr) if isinstance(expr, str) else expr
    test = _compile(expansion.model, node, allow_loc=True)
    return tuple(sid for sid, state in enumerate(expansion._layout()) if test(*state))


# ---------------------------------------------------------------------------
# Built-in model

PETERSON_SOURCE = """\
# Two-process mutual exclusion over shared intent flags and a turn variable.
var b0: bool = false
var b1: bool = false
var x: int[0..1] = 0 | 1

process P0 {
  loc noncrit0 init
  loc wait0
  loc crit0
  edge noncrit0 -> wait0 do b0 := true; x := 1
  edge wait0 -> crit0 when x = 0 || !b1
  edge crit0 -> noncrit0 do b0 := false
}

process P1 {
  loc noncrit1 init
  loc wait1
  loc crit1
  edge noncrit1 -> wait1 do b1 := true; x := 0
  edge wait1 -> crit1 when x = 1 || !b0
  edge crit1 -> noncrit1 do b1 := false
}
"""


def builtin_peterson() -> Model:
    """The two-process mutual exclusion model shipped with the tool."""
    return parse_model(PETERSON_SOURCE)
