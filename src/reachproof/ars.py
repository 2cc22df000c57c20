"""Finite abstract reduction systems and canonical state-set primitives.

An `Ars` is a finite object table plus a transition relation, stored as a
sorted adjacency list with precomputed normal forms.  A `LazySystem`
offers the same reads (`System`) but computes each successor tuple and
label on first access, so a query on it costs what the query reaches;
`SinkSystem` adds a sink to one by a rule instead of a table.  State sets are
canonical tuples of object ids (strictly increasing), so two sets are
extensionally equal exactly when their representations are equal.  That
representation equality is what the proof machinery relies on when it
matches recurring goals.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import invert, itemgetter
from typing import Callable, Collection, Iterable, Iterator, Sequence, TextIO

# Canonical state set: strictly increasing tuple of object ids.
StateSet = tuple[int, ...]

EMPTY: StateSet = ()

LABEL_RE = re.compile(r"[A-Za-z0-9_.<>,-]+\Z")
# Labels joined by single spaces, each matching LABEL_RE: one match checks
# a whole `states` line, since a label holds no whitespace.
_LABEL_LIST_RE = re.compile(r"[ A-Za-z0-9_.<>,-]*\Z")


class ArsError(ValueError):
    """Malformed system description or ill-formed query input."""


class UnknownObjectError(ArsError):
    """An object id or label that is not part of the system."""


def canon(members: Iterable[int]) -> StateSet:
    """Canonicalize a collection of object ids (sorted, duplicate-free)."""
    return tuple(sorted(set(members)))


class System:
    """What the prover, `bfs`, the oracle, witness extraction and the DOT
    and trace writers read of a finite reduction system:

    * `n`, the size of the object table: objects are the ids 0..n-1;
    * `succs[i]`, the sorted, duplicate-free successor tuple of `i`;
    * `labels[i]`, the label of `i`;
    * `_nf`, the normal forms, read only through `in` and `isdisjoint`.

    `Ars` holds all of it in tables.  A `LazySystem` computes each entry
    on first access, so a query pays only for the objects it reaches.
    """

    __slots__ = ()
    # The flat successor table `der_image` gathers from: per object its one
    # successor when no other object has it, else `~i`, the object's id
    # complemented, which sorts ahead of every successor and gives `i`
    # back.  An `Ars` builds it on its first step, as `()` when under half
    # its objects are on it; a lazy system has none.
    _flat = False

    def is_normal_form(self, i: int) -> bool:
        return i in self._nf

    def _find(self, label: str) -> int | None:
        """The id labelled `label`, or None."""
        raise NotImplementedError

    def has_label(self, label: str) -> bool:
        return self._find(label) is not None

    def id_of(self, label: str) -> int:
        i = self._find(label)
        if i is None:
            raise UnknownObjectError(f"unknown object label {label!r}")
        return i

    def ids_of(self, labels: Iterable[str]) -> StateSet:
        return canon(self.id_of(lab) for lab in labels)

    def check_members(self, p: Iterable[int]) -> StateSet:
        """Canonicalize `p` and reject ids outside the object table."""
        p = canon(p)
        if p and (p[0] < 0 or p[-1] >= self.n):
            bad = [i for i in p if not 0 <= i < self.n]
            raise UnknownObjectError(f"object ids {bad} outside object table of size {self.n}")
        return p

    def with_sink(self, label: str, feeders: Iterable[int], complement: bool = False) -> System:
        """This system plus one fresh irreducible object `label`, with id
        `n` and an edge into it from every feeder or, with `complement`,
        from every object that is not a feeder."""
        feeders = self.check_members(feeders)
        if not LABEL_RE.match(label):
            raise ArsError(f"bad object label {label!r}")
        if self.has_label(label):
            raise ArsError(f"duplicate object label {label!r}")
        return self._with_sink(label, feeders, complement)


class Ars(System):
    """Immutable finite reduction system over an interned object table.

    Objects are dense integer ids 0..n-1; each id carries a unique label
    matching `LABEL_RE`, so `render_ars` output always parses back.
    Successor lists are sorted and duplicate-free (relation semantics, not
    multigraph: parallel edges collapse).  `normal_forms` is the canonical
    set of objects with no outgoing edge.
    """

    __slots__ = ("labels", "index", "succs", "normal_forms", "_nf", "n", "_flat")

    def __init__(self, labels: Sequence[str], edges: Iterable[tuple[int, int]]):
        labels = tuple(labels)
        index: dict[str, int] = {}
        for i, lab in enumerate(labels):
            if not LABEL_RE.match(lab):
                raise ArsError(f"bad object label {lab!r}")
            if lab in index:
                raise ArsError(f"duplicate object label {lab!r}")
            index[lab] = i
        n = len(labels)
        succ_sets: list[set[int]] = [set() for _ in range(n)]
        for src, dst in edges:
            if not (0 <= src < n and 0 <= dst < n):
                raise UnknownObjectError(f"edge ({src}, {dst}) outside object table of size {n}")
            succ_sets[src].add(dst)
        self._set_table(labels, index, tuple(tuple(sorted(s)) for s in succ_sets))

    @classmethod
    def _from_table(cls, labels, index, succs) -> Ars:
        """A system over a table its producer built, unchecked.  Trusted:
        labels match `LABEL_RE` and are unique, `index` maps each to its id,
        and successor tuples are sorted, duplicate-free and in range."""
        new = object.__new__(cls)
        new._set_table(labels, index, succs)
        return new

    def _set_table(self, labels, index, succs) -> None:
        """Fill the slots and derive the normal forms, for every producer."""
        self.labels = labels
        self.index = index
        self.succs = succs
        self.n = len(labels)
        self.normal_forms: StateSet = tuple(i for i, s in enumerate(succs) if not s)
        self._nf = frozenset(self.normal_forms)
        self._flat = None

    def _with_sink(self, label: str, feeders: StateSet, complement: bool) -> Ars:
        """Equal to rebuilding the system from all labels and edges, but the
        validated labels, index and successor tuples are shared: only the
        feeders' successor tuples are built anew."""
        sink = self.n
        succs = list(self.succs)
        if complement:
            skip = set(feeders)
            feeders = [s for s in range(sink) if s not in skip]
        for s in feeders:
            succs[s] += (sink,)
        succs.append(EMPTY)
        return Ars._from_table(self.labels + (label,), {**self.index, label: sink}, tuple(succs))

    def _find(self, label: str) -> int | None:
        return self.index.get(label)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ars):
            return NotImplemented
        return self.labels == other.labels and self.succs == other.succs

    def __hash__(self) -> int:
        return hash((self.labels, self.succs))

    def __repr__(self) -> str:
        return f"Ars({self.n} objects, {sum(len(s) for s in self.succs)} edges)"


class _LazyTable(dict):
    """The entries `compute(i)` for the ids 0..n-1, each computed on first
    access and kept.  It reads like the tuple of all n entries: indexing
    (a kept entry is a C-level dict lookup, so `itemgetter` and
    `labels.__getitem__` stay fast), `len` and iteration in id order, which
    computes every entry.  `dict.keys(table)` holds the ids computed."""

    __slots__ = ("_n", "_compute")

    def __init__(self, n: int, compute: Callable[[int], object]):
        super().__init__()
        self._n = n
        self._compute = compute

    def __missing__(self, i: int):
        if not 0 <= i < self._n:
            raise IndexError(f"object id {i} outside object table of size {self._n}")
        entry = self[i] = self._compute(i)
        return entry

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator:
        return map(self.__getitem__, range(self._n))


class _Stuck:
    """The normal forms of a lazy system, as `in` and `isdisjoint` read
    them: an object is stuck when its successor tuple is empty."""

    __slots__ = ("_succs",)

    def __init__(self, succs: _LazyTable):
        self._succs = succs

    def __contains__(self, i: int) -> bool:
        return not self._succs[i]

    def isdisjoint(self, ids: Iterable[int]) -> bool:
        return all(map(self._succs.__getitem__, ids))


class LazySystem(System):
    """A system whose successor tuples and labels are computed on first
    access by `successors(i)` and `label(i)` and kept, so a query computes
    them only for the objects it reaches.  The producer vouches for what
    they return, as `Ars._from_table`'s producers do."""

    def __init__(self, n: int, successors: Callable[[int], StateSet],
                 label: Callable[[int], str]):
        self.n = n
        self.succs = _LazyTable(n, successors)
        self.labels = _LazyTable(n, label)
        self._nf = _Stuck(self.succs)

    @property
    def explored(self) -> Collection[int]:
        """The ids whose successors have been computed."""
        return dict.keys(self.succs)

    def _with_sink(self, label: str, feeders: StateSet, complement: bool) -> SinkSystem:
        return SinkSystem(self, label, feeders, complement)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.n} objects, {len(self.explored)} explored)"


class SinkSystem(LazySystem):
    """`base` plus one fresh irreducible object `label` with id `base.n`,
    fed by a rule instead of a table: by every object in `members` or,
    with `complement`, by every object not in it.  An object's successor
    tuple is its base tuple, plus the sink when the rule says so."""

    def __init__(self, base: System, label: str, members: Iterable[int], complement: bool):
        sink = base.n
        members = frozenset(members)
        base_succs, base_labels = base.succs, base.labels

        def successors(i: int) -> StateSet:
            if i == sink:
                return EMPTY
            if (i in members) != complement:
                return base_succs[i] + (sink,)
            return base_succs[i]

        super().__init__(sink + 1, successors,
                         lambda i: label if i == sink else base_labels[i])
        self._base = base
        self._label = label

    def _find(self, label: str) -> int | None:
        return self._base.n if label == self._label else self._base._find(label)


def image(ars: System, p: Sequence[int]) -> set[int]:
    """The successors of the ids in `p`, unchecked.  One `itemgetter` call
    fetches every successor tuple, so the whole step runs in C; `p[0]` is
    fetched twice so that the result is a tuple of tuples also for one id."""
    if not p:
        return set()
    return set(chain.from_iterable(itemgetter(p[0], *p)(ars.succs)))


def der_image(ars: System, p: StateSet) -> StateSet:
    """The canonical successor set of the canonical set `p`: a ``Der`` step.
    On the flat table (see `System._flat`) a source gathers its entries and
    sorts them: a negative prefix names its objects off the table, and
    their successor tuples, which meet no gathered successor, replace it
    and are merged in.  Without a table a source reads its successor
    tuples."""
    flat = ars._flat
    if flat is None:
        succs = ars.succs
        preds = Counter(chain.from_iterable(succs))
        flat = tuple([s[0] if len(s) == 1 and preds[s[0]] == 1 else ~i
                      for i, s in enumerate(succs)])
        flat = ars._flat = flat if 2 * sum(e >= 0 for e in flat) >= len(flat) else ()
    if not flat:
        return tuple(sorted(image(ars, p)))
    if len(p) < 2:
        return ars.succs[p[0]] if p else EMPTY
    g = sorted(itemgetter(*p)(flat))
    if g[0] < 0:
        k = bisect_left(g, 0)
        g[:k] = (ars.succs[~g[0]] if k == 1 else
                 set(chain.from_iterable(itemgetter(*map(invert, g[:k]))(ars.succs))))
        g.sort()
    return tuple(g)


def derivative(ars: System, p: Iterable[int]) -> StateSet:
    """One-step successor set of `p`."""
    return der_image(ars, ars.check_members(p))


def is_runnable(ars: System, p: Iterable[int]) -> bool:
    """True iff `p` is nonempty and contains no normal form."""
    p = ars.check_members(p)
    return bool(p) and ars._nf.isdisjoint(p)


def bfs(ars: System, seeds: Iterable[int], avoid: Iterable[int] = ()) -> dict[int, int | None]:
    """Breadth-first search from `seeds` along edges that never enter `avoid`.

    Returns ``{state: parent}`` in discovery order: the seeds not in
    `avoid` first, in the given order and with parent None, then every
    state in order of its distance from them.  Successors are visited in
    id order, so the tree, and every path read off it, is deterministic.
    """
    avoid = set(avoid)
    parent: dict[int, int | None] = {s: None for s in seeds if s not in avoid}
    order = list(parent)
    for v in order:  # grows while it is walked: the FIFO queue
        for w in ars.succs[v]:
            if w not in parent and w not in avoid:
                parent[w] = v
                order.append(w)
    return parent


def bfs_path(parent: dict[int, int | None], v: int) -> tuple[int, ...]:
    """The tree path from a seed of `parent` (a `bfs` result, or a
    `DerivationTree.parents`) to `v`."""
    path = [v]
    while (u := parent[path[-1]]) is not None:
        path.append(u)
    path.reverse()
    return tuple(path)


def region_succs(ars: System, region: Collection[int]) -> dict[int, list[int]]:
    """Adjacency of the subgraph induced on `region`, in region order."""
    inside = set(region)
    return {v: [w for w in ars.succs[v] if w in inside] for v in region}


def cyclic_sccs(succs: dict[int, Sequence[int]]) -> Iterator[list[int]]:
    """Yield every strongly connected component of `succs` that contains a
    cycle: more than one vertex, or a single vertex with a self-loop.

    Iterative Tarjan.  `low` is the only per-vertex table: a vertex enters
    it with its DFS index, and the vertices of a finished component are set
    to `done`, above every index, so a low-link never takes a value through
    them and no on-stack set is needed.  Every successor must be a key.
    """
    low: dict[int, int] = {}
    done = len(succs)
    stack: list[int] = []
    for root in succs:
        if root in low:
            continue
        low[root] = len(low)
        work = [(root, low[root], len(stack), iter(succs[root]))]
        stack.append(root)
        while work:
            v, index, base, it = work[-1]
            for w in it:
                if w not in low:
                    low[w] = len(low)
                    work.append((w, low[w], len(stack), iter(succs[w])))
                    stack.append(w)
                    break
                if low[w] < low[v]:
                    low[v] = low[w]
            else:
                work.pop()
                if low[v] == index:
                    comp = stack[base:]
                    del stack[base:]
                    for w in comp:
                        low[w] = done
                    if len(comp) > 1 or v in succs[v]:
                        yield comp
                elif low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]


def avoiding_region(ars: System, p: Iterable[int], q: Iterable[int]) -> StateSet:
    """States reachable from p \\ q along edges that never touch q.

    This is reachability inside the subgraph induced on the complement of
    `q`, starting from the q-free part of `p`.  It underlies both the
    brute-force validity decisions and witness extraction.
    """
    return canon(bfs(ars, ars.check_members(p), ars.check_members(q)))


def reachable(ars: System, p: Iterable[int]) -> StateSet:
    """Reflexive-transitive closure of `p` under the transition relation."""
    return avoiding_region(ars, p, ())


@dataclass(frozen=True)
class ExecutionPath:
    """A maximal finite run of the system: it ends stuck.

    Only finite paths are materialized.  Infinite runs are reported as
    lassos (see the prover's witness types).
    """

    steps: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("execution path must be nonempty")


def parse_ars(text: str) -> Ars:
    """Parse the line-based system format.

    `#` starts a comment; one `states <label>...` line declares all objects;
    each `trans <src> <dst>` line adds one transition.  Labels must match
    ``[A-Za-z0-9_.<>,-]+`` and `trans` may only use declared labels.  The
    first error is reported with its line number; a bad or duplicate label
    is an error of the `states` line, found by one match of the whole line.
    """
    labels: tuple[str, ...] | None = None
    index: dict[str, int] = {}
    find = index.get
    succ_lists: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if len(parts) == 3 and parts[0] == "trans" and labels is not None:
            _, src_label, dst_label = parts
            src, dst = find(src_label), find(dst_label)
            if src is None or dst is None:
                unknown = src_label if src is None else dst_label
                raise ArsError(f"line {lineno}: unknown label {unknown!r} in trans")
            succ_lists[src].append(dst)
        elif not parts:
            continue
        elif parts[0] == "trans":
            if labels is None:
                raise ArsError(f"line {lineno}: trans before states line")
            raise ArsError(f"line {lineno}: trans needs exactly two labels")
        elif parts[0] == "states":
            if labels is not None:
                raise ArsError(f"line {lineno}: duplicate states line")
            labels = tuple(parts[1:])
            index.update(zip(labels, range(len(labels))))
            if len(index) < len(labels) or not _LABEL_LIST_RE.match(" ".join(labels)):
                try:
                    Ars(labels, ())  # names the first bad or duplicate label
                except ArsError as exc:
                    raise ArsError(f"line {lineno}: {exc}") from None
            succ_lists = [[] for _ in labels]
        else:
            raise ArsError(f"line {lineno}: unknown directive {parts[0]!r}")
    if labels is None:
        raise ArsError("missing states line")
    # Most objects have at most one successor; only longer lists are sorted.
    succs = tuple([tuple(sorted(set(s))) if len(s) > 1 else tuple(s) for s in succ_lists])
    return Ars._from_table(labels, index, succs)


def join_labels(labels: Sequence[str], ids: Sequence[int], sep: str) -> str:
    """`sep.join(labels[i] for i in ids)`, with one `itemgetter` call for
    all the labels.  A single id is read on its own: `itemgetter(i)`
    returns the label itself, not a 1-tuple, and joining that would put
    `sep` between its characters."""
    if len(ids) > 1:
        return sep.join(itemgetter(*ids)(labels))
    return labels[ids[0]] if ids else ""


def render_ars(ars: Ars, out: TextIO | None = None) -> str | None:
    """Serialize `ars` in the line-based format (inverse of parse_ars):
    written to the text stream `out` line by line, or returned as one
    string when `out` is None."""
    if out is None:
        return "".join(_ars_lines(ars))
    out.writelines(_ars_lines(ars))


def _ars_lines(ars: Ars) -> Iterator[str]:
    """The lines of `render_ars`.  One string per edge, not one per object:
    joining an object's lines in one call ran about a fifth faster on a
    13k-object system, but those strings of several hundred bytes fragment
    the heap, and repeated exports peaked about 4 MB higher."""
    labels = ars.labels
    yield "states " + " ".join(labels) + "\n"
    for src in range(ars.n):
        for dst in ars.succs[src]:
            yield f"trans {labels[src]} {labels[dst]}\n"
