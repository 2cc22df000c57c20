"""Guarded-transition models over finite-domain shared variables.

A model is a set of processes, each a graph of locations with guarded
edges, plus shared variables with explicit finite domains.  Its system,
a `ModelSystem`, has one object per state of the full Cartesian state
space and interleaves the processes: one transition per (state, process
edge) whose guard holds, with the edge's assignments applied
simultaneously.  Object labels render the state tuples.  The queries
explore it on the fly, so they compute successors only for the states
they reach; `expand` fills its whole table into an ordinary `Ars`.

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
model is parsed, assignments when it is expanded or explored; each
expression is compiled once into a test over a state's location and value
tuples.
"""

from __future__ import annotations

import itertools
import operator
import re
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, partial
from math import prod
from typing import NamedTuple

from .ars import EMPTY, LABEL_RE, Ars, LazySystem, StateSet, _LazyTable, canon

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

DEFAULT_STATE_CAP = 1_000_000
# Largest table of label tails a ModelSystem builds up front.
TAIL_LABELS = 4096


class Expansion(NamedTuple):
    """An expanded model: its whole system as a table, and the initial states."""

    ars: Ars
    initial: StateSet


def _moves(model: Model) -> list[dict[str, list]]:
    """Per process: location -> [(edge, guard test, assignments)] leaving it."""
    moves = []
    for proc in model.processes:
        by_src = {loc: [] for loc in proc.locations}
        for edge in proc.edges:
            for loc in (edge.src, edge.dst):
                if loc not in by_src:
                    raise ModelError(f"unknown location {loc!r} in an edge of {proc.name}")
            guard = None if edge.guard is None else _compile(model, edge.guard, allow_loc=False)
            assigns = [_compile_assign(model, var, rhs) for var, rhs in edge.assigns]
            by_src[edge.src].append((edge, guard, assigns))
        moves.append(by_src)
    return moves


def _valuation_count(model: Model) -> int:
    return prod(2 if v.is_bool else v.hi - v.lo + 1 for v in model.variables)


def _effects(model: Model, moves, loc_axes, valuations, weight) -> list[list[tuple]]:
    """The effect table of the model's edges, the one source of
    transitions of a `ModelSystem` and so of `expand`.

    Guards and assignments read only variables, so each edge is evaluated
    once per valuation `vi`.  Per process, entry `d * |V| + vi` holds the
    id deltas of the edges enabled at location digit `d` under `vi`: a
    state with those digits has its id plus each delta as a successor
    through that process.  Raises the first assignment to leave its
    domain in (state, process, edge) order; the earliest state in which
    an edge fails has every other digit 0, so its id is `d * weight + vi`.
    """
    nv = len(valuations)
    vindex = dict(zip(valuations, range(nv)))
    tables = []
    first_error = None
    for pi, (proc, by_src, axis, w) in enumerate(zip(model.processes, moves, loc_axes, weight)):
        digit = {loc: d for d, loc in enumerate(axis)}
        table = [EMPTY] * (len(axis) * nv)
        for d, src in enumerate(axis):
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
                        table[d * nv + vi] += (step + vindex[tuple(new_vals)] - vi,)
        tables.append(table)
    if first_error:
        *_, name, value, edge, proc_name = first_error
        raise DomainError(f"assignment {name} := {value} leaves its domain "
                          f"(edge {edge.src} -> {edge.dst} of {proc_name})")
    return tables


def expand(model: Model, max_states: int = DEFAULT_STATE_CAP) -> Expansion:
    """The whole table of `ModelSystem(model)`, whose docstring gives the
    label and id order: its step mapped over every id, and `initial`.

    `max_states` caps the product of the domain sizes; an ill-typed
    assignment is reported before the cap, a domain error after it.
    """
    size = prod(len(p.locations) for p in model.processes) * _valuation_count(model)
    if size > max_states:
        _moves(model)  # raises on an ill-typed assignment
        raise StateLimitError(f"state space of {size} states exceeds cap {max_states}")
    system = ModelSystem(model, max_states)
    # The system's labels, a head per block of `tail` ids and a tail each.
    labels = tuple(head + tail for head in system._heads for tail in system._tails)
    # The step counts the states it explores, but `size` is within the cap.
    ars = Ars._from_table(labels, dict(zip(labels, range(size))),
                          tuple(map(system._step, range(size))))
    return Expansion(ars, system.initial)


class ModelSystem(LazySystem):
    """The model's system, explored on the fly: a state's successors are
    computed from the digits of its id, through the effect table, when a
    query first reads them.  So a query costs what it reaches, not the
    product of the domain sizes.  `expand` maps the same step over every id.

    Object order is lexicographic on the rendered state label
    `<loc,...,loc,value,...,value>`, so identical model text always yields a
    bit-identical system.  No field contains `,` or `>`, so that order is
    the product of one order per field: its text followed by the separator
    after it (`>` for the last field, so `10` sorts before `1`).  A state's
    id is its mixed-radix number over those sorted fields, the variables
    being the low-order digits.  Queries read them as `radix`: a digit per
    process over its `loc_axes` entry, then one over the `valuations`.

    `max_states` caps the states whose successors are computed, the
    states a state predicate selects over it, and the number of
    valuations before their table is built.  Location names must be valid
    labels without `,` or `>` and distinct in their process, which makes
    the labels distinct without building them.
    """

    def __init__(self, model: Model, max_states: int = DEFAULT_STATE_CAP):
        moves = _moves(model)
        # The parser checks these in model text; `initial` reads them.
        faults = [f"unknown init location {loc!r} of {p.name}" for p in model.processes
                  for loc in p.init_locations if loc not in p.locations]
        faults += [f"initial value {v!r} outside the domain of {d.name}" for d in model.variables
                   for v in d.init_values if not d.admits(v)]
        if faults:
            raise ModelError(faults[0])
        nv = _valuation_count(model)
        if nv > max_states:
            raise StateLimitError(f"{nv} valuations of the variables exceed cap {max_states}")
        self.model = model
        self.max_states = max_states
        # Per field, processes first: its (text and separator, location or
        # value) pairs, sorted into label order.
        fields = [[(loc, loc) for loc in p.locations] for p in model.processes]
        fields += [[(str(v).lower(), v) for v in decl.domain()] for decl in model.variables]
        seps = [","] * (len(fields) - 1) + [">"]
        axes = [sorted((text + sep, v) for text, v in axis) for axis, sep in zip(fields, seps)]
        n_procs = len(model.processes)
        self.loc_axes = tuple(tuple(loc for _, loc in axis) for axis in axes[:n_procs])
        self.valuations = tuple(itertools.product(
            *([v for _, v in axis] for axis in axes[n_procs:])))
        self.radix = radix = (*map(len, self.loc_axes), len(self.valuations))
        weight = [prod(radix[pi + 1:]) for pi in range(n_procs)]
        tables = _effects(model, moves, self.loc_axes, self.valuations, weight)
        if not all(len(set(axis)) == len(axis) and all(
                LABEL_RE.match(loc) and "," not in loc and ">" not in loc for loc in axis)
                for axis in self.loc_axes):
            raise ModelError("location names do not make distinct valid state labels")
        # Per process: its digit's id step and radix, and its effect table.
        self._effect_tables = effect_tables = tuple(zip(weight, radix, tables))
        # Per field: text -> digit, for label lookups.
        self._digits = tuple({text[:-1]: d for d, (text, _) in enumerate(axis)} for axis in axes)
        n, nv = prod(radix), radix[-1]
        # The table functions below close over data, not over `self`, so a
        # system is freed by reference counting, without a cycle.
        explored = 0

        def step(s: int) -> StateSet:
            nonlocal explored
            if explored == max_states:
                raise StateLimitError(f"query explored {explored} states, reaching cap {max_states}")
            explored += 1
            vi = s % nv
            deltas = []
            for w, r, table in effect_tables:
                deltas += table[s // w % r * nv + vi]
            return tuple(map(s.__add__, sorted(set(deltas))))

        self._step = step

        # A label is a head, the text of the high fields, computed once per
        # head, plus a tail from a table of every text of the low fields,
        # which grows to about sqrt(n) entries, at most TAIL_LABELS.
        cut, tail = len(axes), 1
        while cut and tail * tail < n and tail * len(axes[cut - 1]) <= TAIL_LABELS:
            cut -= 1
            tail *= len(axes[cut])
        self._tails = tails = _field_texts(axes[cut:])
        self._heads = heads = _LazyTable(
            n // tail, partial(_head_text, axes[:cut], "<" if axes else "<>"))
        super().__init__(n, step, lambda s: heads[s // tail] + tails[s % tail])

    def is_normal_form(self, i: int) -> bool:
        # Read off the effect table, so that testing a state (as
        # `build_safety_query` tests every error state) does not explore it.
        nv = self.radix[-1]
        vi = i % nv
        return not any(table[i // w % r * nv + vi] for w, r, table in self._effect_tables)

    @cached_property
    def initial(self) -> StateSet:
        """Every combination of the fields' initial digits, built on first read."""
        model = self.model
        texts = [p.init_locations for p in model.processes]
        texts += [[str(v).lower() for v in decl.init_values] for decl in model.variables]
        ids = [0]
        for field, digits in zip(texts, self._digits):
            ids = [i * len(digits) + digits[text] for i in ids for text in field]
        return canon(ids)

    def _find(self, label: str) -> int | None:
        fields = label[1:-1].split(",")
        if label[:1] != "<" or label[-1:] != ">" or len(fields) != len(self._digits):
            return None
        i = 0
        for text, digits in zip(fields, self._digits):
            d = digits.get(text)
            if d is None:
                return None
            i = i * len(digits) + d
        return i


def _field_texts(axes) -> tuple[str, ...]:
    """The texts of the fields `axes` at every digit combination, in id order."""
    texts = [""]
    for axis in axes:
        texts = [head + text for head in texts for text, _ in axis]
    return tuple(texts)


def _head_text(axes, prefix: str, i: int) -> str:
    """`prefix` plus the texts of the fields `axes` at digits `i`."""
    parts = []
    for axis in reversed(axes):
        i, d = divmod(i, len(axis))
        parts.append(axis[d][0])
    parts.append(prefix)
    return "".join(reversed(parts))


# ---------------------------------------------------------------------------
# State predicates

def eval_state_predicate(system: ModelSystem, expr: str | tuple) -> StateSet:
    """The states satisfying a state-predicate expression, in id order.

    Each atom reads one digit of the mixed-radix id: a process's location
    digit, or the valuation digit for variable atoms.  So the digits are
    walked from the most significant down in three-valued logic: a block
    of ids whose formula the digits so far decide true is one id range, a
    block decided false is pruned, and blocks left with the same formula
    share one result.  The cost follows the formula and the size of the
    result, not the product of the domains.  A result of more than
    `system.max_states` states raises StateLimitError before it is built.
    The ids are those of `expand(system.model)` too.
    """
    node = parse_state_expr(expr) if isinstance(expr, str) else expr
    return _DigitWalk(system).ids(node)


def _negate(f):
    return (not f) if isinstance(f, bool) else ("not", f)


def _connect(kind: str, kids: list):
    """`kind` ("and"/"or") of `kids`, with constant kids folded away."""
    decides = kind == "or"  # the constant that decides the connective
    rest = []
    for k in kids:
        if k is decides:
            return decides
        if k is not (not decides):
            rest.append(k)
    if not rest:
        return not decides
    return rest[0] if len(rest) == 1 else (kind, *rest)


class _DigitWalk:
    """`eval_state_predicate` over one system's layout.  A formula is True,
    False, `("lit", atom)`, or "not"/"and"/"or" over formulas; atom `a`
    reads digit `self.level[a]`, and `self.truth[a][d]` is its value there."""

    def __init__(self, system: ModelSystem):
        self.system = system
        # Ids per block of the digits from `level` on.
        self.block = [prod(system.radix[level:]) for level in range(len(system.radix) + 1)]
        self.level: list[int] = []
        self.truth: list[tuple[bool, ...]] = []

    def _formula(self, node: tuple):
        kind = node[0]
        if kind == "not":
            return _negate(self._formula(node[1]))
        if kind in ("and", "or"):
            return _connect(kind, [self._formula(child) for child in node[1:]])
        system = self.system
        test = _compile(system.model, node, allow_loc=True)  # type-checks the atom
        operands = node[1:] if kind == "atom" else node[2:]
        kinds = [op[0] for op in operands]
        if "loc" in kinds:
            level = [p.name for p in system.model.processes].index(operands[kinds.index("loc")][1])
            # The test reads only the location of process `level`.
            truth = tuple(test((here,) * (level + 1), ()) for here in system.loc_axes[level])
        elif "name" in kinds:
            level = len(system.loc_axes)
            truth = tuple(map(test, itertools.repeat(()), system.valuations))
        else:
            return bool(test((), ()))  # literals only: reads no digit
        self.level.append(level)
        self.truth.append(truth)
        return ("lit", len(self.level) - 1)

    def _split(self, f, level: int):
        """`f` at each value of digit `level`, or None when `f` does not
        read that digit."""
        tag = f[0]
        if tag == "lit":
            return self.truth[f[1]] if self.level[f[1]] == level else None
        if tag == "not":
            kid = self._split(f[1], level)
            return None if kid is None else tuple(map(_negate, kid))
        kids = [self._split(child, level) for child in f[1:]]
        if kids.count(None) == len(kids):
            return None
        columns = zip(*(itertools.repeat(child) if k is None else k
                        for k, child in zip(kids, f[1:])))
        return tuple(_connect(tag, column) for column in columns)

    def _vector(self, f) -> tuple[bool, ...]:
        """The values of `f`, which reads only the valuation digit, at
        every valuation: C-level passes over the atoms' values."""
        tag = f[0]
        if tag == "lit":
            return self.truth[f[1]]
        if tag == "not":
            return tuple(map(operator.not_, self._vector(f[1])))
        return tuple(map(all if tag == "and" else any,
                         zip(*(self._vector(child) for child in f[1:]))))

    def ids(self, node: tuple) -> StateSet:
        root = self._formula(node)
        cap = self.system.max_states
        if isinstance(root, bool):
            if root and self.block[0] > cap:
                raise StateLimitError(
                    f"state predicate selects {self.block[0]} states, more than cap {cap}")
            return tuple(range(self.block[0])) if root else EMPTY
        # Walk the location digits level by level: each formula still
        # undecided at a level, split into its formula per digit value
        # (itself for every value when it does not read the digit).
        levels: list[dict] = []
        undecided = {root: None}
        for level, radix in enumerate(self.system.radix[:-1]):
            split = {f: self._split(f, level) or (f,) * radix for f in undecided}
            levels.append(split)
            undecided = {g: None for kids in split.values() for g in kids
                         if not isinstance(g, bool)}
        # What is left reads only the valuation digit.
        vectors = {f: self._vector(f) for f in undecided}
        if self.block[0] > cap:  # the result may not fit: count it first
            count = {f: sum(vector) for f, vector in vectors.items()}
            for level in reversed(range(len(levels))):
                size = self.block[level + 1]
                count = {f: sum(size if g is True else 0 if g is False else count[g]
                                for g in kids)
                         for f, kids in levels[level].items()}
            if count[root] > cap:
                raise StateLimitError(
                    f"state predicate selects {count[root]} states, more than cap {cap}")
        valuations = range(self.system.radix[-1])
        built = {f: tuple(itertools.compress(valuations, vector)) for f, vector in vectors.items()}
        for level in reversed(range(len(levels))):
            size = self.block[level + 1]
            built = {f: tuple(itertools.chain.from_iterable(
                         _shift(g if isinstance(g, bool) else built[g], d * size, size)
                         for d, g in enumerate(kids) if g is not False))
                     for f, kids in levels[level].items()}
        return built[root]


def _shift(ids, base: int, size: int):
    """The ids of a sub-block (True: all `size` of them) moved up by `base`."""
    if ids is True:
        return range(base, base + size)
    return map(base.__add__, ids) if base else ids


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
