"""Seeded input generators for the benchmark workloads.

Each generator returns a `Plan`: the text of each input file under its
path in the work directory, the operations one pass runs, each with the
answer the generator knows without calling reachproof, and one small
warm-up operation.  The generator writes nothing; the benchmark writes the
files during its timed set-up.  The
seed picks positions and choices inside the inputs; the op order and the
input sizes are fixed per workload, so a pass does nearly the same work
for every seed and only the shape of the search changes.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path

PARTIAL_OK = "PartiallyValid"
PARTIAL_BAD = "NotPartiallyValid"
TOTAL_OK = "TotallyValid"
TOTAL_BAD = "NotTotallyValid"


@dataclass
class Query:
    """Ground truth for one verdict: the states by label and the answer."""

    system: str                  # .ars path, or the model key of an expand op
    source: list[str]
    target: list[str]            # error states for safety queries
    mode: str                    # partial | total
    verdict: str
    witness: str | None          # None | "path" | "lasso"
    safety: bool = False


@dataclass
class Op:
    name: str
    argv: list[str]
    query: Query | None = None
    # expand ops: the output file and the sizes the generator computed
    out: str | None = None
    model: str | None = None
    states: int = 0
    edges: int = 0
    initial: list[str] = field(default_factory=list)
    # export ops
    dot: str | None = None
    trace: str | None = None


@dataclass
class Plan:
    files: dict[str, str]        # path -> text
    ops: list[Op]
    warmup: list[str]


def _ars_text(labels: list[str], edges: list[tuple[str, str]]) -> str:
    lines = ["states " + " ".join(labels)]
    lines += [f"trans {a} {b}" for a, b in edges]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# rings: disjoint prime-length cycles, one source state per ring

PRIMES = (2, 3, 5, 7, 11, 13)

# (rings without a target, ring with an exit into the target, bad exit)
# A bad exit leads to a stuck non-target state.  "late" puts it on a target
# ring behind the target, so the token dies first and it is never reached;
# "early" puts it on a ring without a target, so the goal has a disproof.
# The product of the target-free ring lengths sets the proof size.
RING_GOALS = (
    ((2, 3, 5, 7, 11), 11, "late"),
    ((2, 3, 5, 7, 13), 5, None),
    ((3, 7, 11, 13), 13, None),
    ((2, 3, 5, 11, 13), 3, "late"),
    ((5, 7, 11, 13), 11, "late"),
    ((2, 3, 7, 11, 13), 7, None),
    ((), None, "late"),
    ((3, 5, 7, 11, 13), None, "early"),
)


def _ring_goal(rng: random.Random, free, good_ring, bad):
    """Labels, edges, source, target and the two verdicts of one goal."""
    offset = {p: rng.randrange(p) for p in PRIMES}
    target_dist = {p: rng.randrange(1, p) for p in PRIMES if p not in free}
    exits: list[tuple[int, int, bool]] = []  # (ring, distance from source, into target)
    if good_ring is not None:
        exits.append((good_ring, rng.randrange(good_ring), True))
    if bad == "late":
        p = rng.choice([p for p in target_dist if p >= 3])
        target_dist[p] = rng.randrange(1, p - 1)
        exits.append((p, rng.randrange(target_dist[p] + 1, p), False))
    elif bad == "early":
        p = rng.choice(free)
        exits.append((p, rng.randrange(p), False))

    # Each ring's token walks its cycle until it meets its target; a bad
    # exit met first makes the goal fail partial validity.
    disproof = any(
        not good and (p not in target_dist or d < target_dist[p])
        for p, d, good in exits)
    if disproof:
        verdicts = {"partial": (PARTIAL_BAD, "path"), "total": (TOTAL_BAD, "path")}
    elif free:
        verdicts = {"partial": (PARTIAL_OK, None), "total": (TOTAL_BAD, "lasso")}
    else:
        verdicts = {"partial": (PARTIAL_OK, None), "total": (TOTAL_OK, None)}

    def at(p: int, dist: int) -> str:
        return f"r{p}_{(offset[p] + dist) % p}"

    labels = [f"r{p}_{i}" for p in PRIMES for i in range(p)]
    edges = [(f"r{p}_{i}", f"r{p}_{(i + 1) % p}") for p in PRIMES for i in range(p)]
    target = [at(p, d) for p, d in target_dist.items()]
    for k, (p, d, good) in enumerate(exits):
        labels.append(f"x{k}")
        edges.append((at(p, d), f"x{k}"))
        if good:
            target.append(f"x{k}")
    rng.shuffle(labels)
    source = [at(p, 0) for p in PRIMES]
    return labels, edges, source, target, verdicts


def rings(work: Path, seed: int) -> Plan:
    rng = random.Random(f"rings:{seed}")
    files, ops = {}, []
    for g, (free, good_ring, bad) in enumerate(RING_GOALS):
        labels, edges, source, target, verdicts = _ring_goal(rng, free, good_ring, bad)
        path = str(work / f"ring{g}.ars")
        files[path] = _ars_text(labels, edges)
        for strategy in ("eager", "monolithic"):
            for mode in ("partial", "total"):
                verdict, witness = verdicts[mode]
                ops.append(Op(
                    f"g{g}-{strategy}-{mode}",
                    ["check", "--ars", path, "--source", ",".join(source),
                     "--target", ",".join(target), "--mode", mode,
                     "--strategy", strategy, "--json"],
                    Query(path, source, target, mode, verdict, witness)))
    warm = str(work / "warm.ars")
    files[warm] = _ars_text(["a", "b", "c"], [("a", "b"), ("b", "a"), ("b", "c")])
    return Plan(files, ops, ["check", "--ars", warm, "--source", "a", "--target", "c",
                             "--mode", "total", "--json"])


# ---------------------------------------------------------------------------
# models: semaphore-N guarded-process models and the built-in peterson model

SEMAPHORE_SIZES = (6, 7, 8)


def _semaphore_text(n: int, racy: set[int]) -> str:
    """N processes idle -> wait -> crit -> idle around one lock.  A racy
    process enters without testing the lock."""
    lines = ["var lock: bool = false"]
    for i in range(n):
        guard = "" if i in racy else " when !lock"
        lines += [
            f"process P{i} {{",
            f"  loc idle{i} init",
            f"  loc wait{i}",
            f"  loc crit{i}",
            f"  edge idle{i} -> wait{i}",
            f"  edge wait{i} -> crit{i}{guard} do lock := true",
            f"  edge crit{i} -> idle{i} do lock := false",
            "}",
        ]
    return "\n".join(lines) + "\n"


def _semaphore_labels(n: int) -> list[tuple[str, ...]]:
    """Every state as its label fields: one location per process, then the lock."""
    axes = [(f"idle{i}", f"wait{i}", f"crit{i}") for i in range(n)] + [("false", "true")]
    return list(itertools.product(*axes))


def _label(fields) -> str:
    return "<" + ",".join(fields) + ">"


def _select(states, test) -> list[str]:
    return [_label(s) for s in states if test(s)]


def _peterson_states():
    """The built-in peterson model, interpreted here: its states and successors."""
    states = list(itertools.product(
        ("noncrit0", "wait0", "crit0"), ("noncrit1", "wait1", "crit1"),
        ("false", "true"), ("false", "true"), ("0", "1")))
    succ = {s: set() for s in states}
    for s in states:
        l0, l1, b0, b1, x = s
        if l0 == "noncrit0":
            succ[s].add(("wait0", l1, "true", b1, "1"))
        if l0 == "wait0" and (x == "0" or b1 == "false"):
            succ[s].add(("crit0", l1, b0, b1, x))
        if l0 == "crit0":
            succ[s].add(("noncrit0", l1, "false", b1, x))
        if l1 == "noncrit1":
            succ[s].add((l0, "wait1", b0, "true", "0"))
        if l1 == "wait1" and (x == "1" or b0 == "false"):
            succ[s].add((l0, "crit1", b0, b1, x))
        if l1 == "crit1":
            succ[s].add((l0, "noncrit1", b0, b1, x))
    return states, succ


def models(work: Path, seed: int) -> Plan:
    rng = random.Random(f"models:{seed}")
    files, ops = {}, []
    for n in SEMAPHORE_SIZES:
        states = _semaphore_labels(n)
        for variant in ("correct", "racy"):
            # Process r is the racy one in the racy variant.  The error pair
            # always contains r and the liveness subject never is r, so the
            # proof sizes are the same for every seed.
            r = rng.randrange(n)
            racy = {r} if variant == "racy" else set()
            key = f"sem{n}-{variant}"
            model = str(work / f"{key}.model")
            files[model] = _semaphore_text(n, racy)
            out = str(work / f"{key}.ars")
            ops.append(Op(
                f"{key}-expand", ["expand", "--model", model, "--out", out],
                out=out, model=key, states=3 ** n * 2,
                edges=3 ** (n - 1) * (5 * n + len(racy)),
                initial=[_label([f"idle{i}" for i in range(n)] + ["false"])]))

            j = rng.choice([m for m in range(n) if m != r])
            start = " && ".join(f"loc(P{m})=idle{m}" for m in range(n)) + " && !lock"
            ops.append(Op(
                f"{key}-safety",
                ["safety", "--model", model, "--from", start,
                 "--error", f"loc(P{r})=crit{r} && loc(P{j})=crit{j}", "--json"],
                Query(key,
                      _select(states, lambda s: s[n] == "false"
                              and all(f.startswith("idle") for f in s[:n])),
                      _select(states, lambda s: s[r] == f"crit{r}" and s[j] == f"crit{j}"),
                      "partial", PARTIAL_BAD if racy else PARTIAL_OK,
                      "path" if racy else None, safety=True)))

            k = rng.choice([m for m in range(n) if m != r])
            others = " && ".join(f"loc(P{m})!=crit{m}" for m in range(n) if m != k)
            query = Query(key,
                          _select(states, lambda s: s[k] == f"wait{k}" and s[n] == "false"
                                  and not any(f.startswith("crit") for f in s[:n])),
                          _select(states, lambda s: s[k] == f"crit{k}"),
                          "total", TOTAL_BAD, "lasso")
            live = ["liveness", "--model", model, "--from",
                    f"loc(P{k})=wait{k} && !lock && {others}",
                    "--goal", f"loc(P{k})=crit{k}", "--json"]
            ops.append(Op(f"{key}-liveness", live, query))
            dot = str(work / f"{key}-starvation.dot")
            ops.append(Op(f"{key}-liveness-dot", [*live, "--emit-proof", dot], query, dot=dot))

    states, succ = _peterson_states()
    initial = [("noncrit0", "noncrit1", "false", "false", x) for x in ("0", "1")]
    out = str(work / "peterson.ars")
    ops.append(Op("peterson-expand", ["expand", "--builtin", "peterson", "--out", out],
                  out=out, model="peterson", states=len(states),
                  edges=sum(len(t) for t in succ.values()),
                  initial=[_label(s) for s in initial]))
    ops.append(Op(
        "peterson-safety",
        ["safety", "--builtin", "peterson",
         "--from", "loc(P0)=noncrit0 && loc(P1)=noncrit1 && b0=false && b1=false",
         "--error", "loc(P0)=crit0 && loc(P1)=crit1", "--json"],
        Query("peterson",
              _select(states, lambda s: s[:4] == ("noncrit0", "noncrit1", "false", "false")),
              _select(states, lambda s: s[0] == "crit0" and s[1] == "crit1"),
              "partial", PARTIAL_OK, None, safety=True)))
    dot = str(work / "starvation.dot")
    ops.append(Op(
        "peterson-liveness",
        ["liveness", "--builtin", "peterson",
         "--from", "loc(P0)=wait0 && b0=true", "--goal", "loc(P0)=crit0", "--json",
         "--emit-proof", dot],
        Query("peterson", _select(states, lambda s: s[0] == "wait0" and s[2] == "true"),
              _select(states, lambda s: s[0] == "crit0"), "total", TOTAL_OK, None),
        dot=dot))
    return Plan(files, ops, ["check", "--builtin", "peterson", "--source", "loc(P0)=wait0",
                             "--target", "loc(P0)=crit0", "--json"])


# ---------------------------------------------------------------------------
# chains: a long spine with side branches and a feature at the far end

FAR, MID = 2200, 1100  # distances of the two sources from the target
BRANCHES = 10          # side branches per stretch, each leaving and rejoining the spine
BRANCH_LEN = 30
CHAIN_KINDS = {
    # kind: (export mode, partial verdict, total verdict, witness when not valid)
    "tv": ("total", (PARTIAL_OK, None), (TOTAL_OK, None)),
    "dead": ("partial", (PARTIAL_BAD, "path"), (TOTAL_BAD, "path")),
    "lasso": ("total", (PARTIAL_OK, None), (TOTAL_BAD, "lasso")),
}


def _chain(rng: random.Random, kind: str):
    """A spine c0..cFAR ending in the target, with side branches placed by
    the seed.  A branch is a detour (it rejoins fewer than BRANCH_LEN
    states downstream), so it never shortens the way to the target, and
    each source sees the same number of branches for every seed."""
    spine = [f"c{i}" for i in range(FAR + 1)]
    labels = list(spine)
    edges = list(zip(spine, spine[1:]))
    stretches = ((0, FAR - MID), (FAR - MID, FAR - 20))
    for s, (lo, hi) in enumerate(stretches):
        window = (hi - lo) // BRANCHES
        for b in range(BRANCHES):
            start = lo + b * window + rng.randrange(window - BRANCH_LEN)
            prev = spine[start]
            for k in range(BRANCH_LEN):
                labels.append(f"b{s}_{b}_{k}")
                edges.append((prev, labels[-1]))
                prev = labels[-1]
            edges.append((prev, spine[start + rng.randrange(2, BRANCH_LEN)]))
    end = FAR - rng.randrange(2, 12)
    if kind == "dead":
        labels.append("dead")
        edges.append((spine[end], "dead"))
    elif kind == "lasso":
        edges.append((spine[end], spine[end - rng.randrange(1, 8)]))
    rng.shuffle(labels)
    return labels, edges, spine


def chains(work: Path, seed: int) -> Plan:
    rng = random.Random(f"chains:{seed}")
    files, ops = {}, []
    for kind, (export_mode, partial, total) in CHAIN_KINDS.items():
        labels, edges, spine = _chain(rng, kind)
        path = str(work / f"chain-{kind}.ars")
        files[path] = _ars_text(labels, edges)
        verdicts = {"partial": partial, "total": total}
        for where, dist in (("far", FAR), ("mid", MID)):
            source = spine[FAR - dist]
            base = ["--ars", path, "--source", source, "--target", spine[-1]]
            for mode in ("partial", "total"):
                verdict, witness = verdicts[mode]
                ops.append(Op(f"{kind}-{where}-{mode}",
                              ["check", *base, "--mode", mode, "--json"],
                              Query(path, [source], [spine[-1]], mode, verdict, witness)))
            verdict, witness = verdicts[export_mode]
            query = Query(path, [source], [spine[-1]], export_mode, verdict, witness)
            if where == "far":
                ops.append(Op(f"{kind}-far-monolithic",
                              ["check", *base, "--mode", export_mode,
                               "--strategy", "monolithic", "--json"], query))
            stem = str(work / f"{kind}-{where}")
            ops.append(Op(f"{kind}-{where}-export",
                          ["export", *base, "--mode", export_mode, "--json",
                           "--emit-proof", stem + ".dot", "--emit-trace", stem + ".trace"],
                          query, dot=stem + ".dot", trace=stem + ".trace"))
    warm = str(work / "warm.ars")
    files[warm] = _ars_text(["a", "b", "c"], [("a", "b"), ("b", "c")])
    return Plan(files, ops, ["check", "--ars", warm, "--source", "a", "--target", "c",
                             "--mode", "total", "--json"])


WORKLOADS = {"rings": rings, "models": models, "chains": chains}
