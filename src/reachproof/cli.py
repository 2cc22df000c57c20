"""Command-line front end.

Subcommands:
  check      decide partial or total validity of <source> => <target>
  safety     decide error non-reachability via the any-sink reduction
  liveness   decide total validity of <from> => <goal>
  export     run a check query and write its proof graph (DOT) and rule trace
  expand     expand a model to the line-based system format

Exit status: 0 when the queried property holds, 1 when it fails (a witness
is printed), 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from typing import NamedTuple

from .ars import ArsError, StateSet, System, join_labels, parse_ars, render_ars
from .modeling import (
    DEFAULT_STATE_CAP,
    Model,
    ModelError,
    ModelSystem,
    builtin_peterson,
    eval_state_predicate,
    expand,
    parse_model,
)
from .oracle import oracle_partial, oracle_total
# The Verdict carries its proof graph; proof_graph and is_acyclic stay in
# this namespace because bench/tracing.py wraps them here.
from .proofs import (  # noqa: F401
    AprPredicate,
    RuleName,
    is_acyclic,
    predicate_formatter,
    proof_graph,
    to_dot,
)
from .prover import (
    DEFAULT_NODE_BUDGET,
    FinitePath,
    NodeBudgetExceeded,
    ProverConfig,
    SplitStrategy,
    Verdict,
    VerdictKind,
    Witness,
    check_partial,
    check_total,
)
from .reductions import build_safety_query

BUILTINS = {"peterson": builtin_peterson}


class UsageError(Exception):
    pass


@dataclass
class RunReport:
    """Machine-readable outcome of one query (JSON round-trippable)."""

    command: str
    source: str
    target: str
    mode: str
    engine: str
    strategy: str | None
    verdict: str
    holds: bool
    witness: str | None
    stats: dict | None
    time_ms: int


def report_to_json(report: RunReport) -> str:
    return json.dumps(asdict(report), indent=2, sort_keys=True)


def report_from_json(text: str) -> RunReport:
    return RunReport(**json.loads(text))


def render_witness(ars: System, witness: Witness) -> str:
    if isinstance(witness, FinitePath):
        return join_labels(ars.labels, witness.path.steps, " -> ")
    walk = witness.stem + witness.cycle + witness.cycle[:1]
    loop = len(witness.stem) + 1
    return (join_labels(ars.labels, walk[:loop], " -> ") + " -> ("
            + join_labels(ars.labels, walk[loop:], " -> ") + ")*")


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise UsageError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _load_model(args) -> Model | None:
    """The model of `--model` or `--builtin`; None for `--ars` input."""
    picked = [x for x in (args.ars, args.model, args.builtin) if x]
    if len(picked) != 1:
        raise UsageError("exactly one of --ars, --model, --builtin is required")
    if args.ars:
        return None
    if args.model:
        return parse_model(_read_text(args.model))
    if args.builtin not in BUILTINS:
        raise UsageError(f"unknown builtin {args.builtin!r} (available: "
                         + ", ".join(sorted(BUILTINS)) + ")")
    return BUILTINS[args.builtin]()


def _load_input(args) -> System:
    """The system a query runs on: a model is explored on the fly."""
    model = _load_model(args)
    if model is None:
        return parse_ars(_read_text(args.ars))
    return ModelSystem(model, max_states=args.max_states)


def _split_labels(text: str) -> list[str]:
    """Split a comma-joined label list; commas inside <...> state labels
    belong to the label, not the list."""
    labels, buf, depth = [], [], 0
    for ch in text:
        if ch == "," and depth == 0:
            labels.append("".join(buf))
            buf = []
            continue
        depth += ch == "<"
        depth -= ch == ">"
        buf.append(ch)
    labels.append("".join(buf))
    return [lab.strip() for lab in labels if lab.strip()]


def _resolve_set(ars: System, text: str) -> StateSet:
    """Label list for plain systems, state-predicate expression for models."""
    if isinstance(ars, ModelSystem):
        return eval_state_predicate(ars, text)
    return ars.ids_of(_split_labels(text))


_KINDS = {"partial": (VerdictKind.PARTIALLY_VALID, VerdictKind.NOT_PARTIALLY_VALID),
          "total": (VerdictKind.TOTALLY_VALID, VerdictKind.NOT_TOTALLY_VALID)}


def _run_query(args, command: str, ars: System, pred: AprPredicate, mode: str,
               started: float) -> tuple[RunReport, Verdict | None]:
    """Decide `pred` with the chosen engine; the report and, for the prover,
    the verdict behind it."""
    verd = None
    stats = None
    if args.engine == "oracle":
        answer = oracle_partial(ars, pred) if mode == "partial" else oracle_total(ars, pred)
        holds, witness = answer.valid, answer.witness
        kind = _KINDS[mode][not holds]
    else:
        cfg = ProverConfig(strategy=SplitStrategy(args.strategy), node_budget=args.max_nodes)
        verd = check_partial(ars, pred, cfg) if mode == "partial" else check_total(ars, pred, cfg)
        stats = {
            "nodes": verd.stats.nodes,
            "buds": verd.stats.buds,
            "rules": verd.stats.rule_counts,
            "graph_vertices": verd.graph.vertex_count,
            "graph_edges": verd.graph.edge_count,
            "graph_acyclic": verd.acyclic,
        }
        kind, witness = verd.kind, verd.witness
        holds = kind is _KINDS[mode][0]
    report = RunReport(
        command=command, source=args.source, target=args.target, mode=mode,
        engine=args.engine, strategy=args.strategy if args.engine == "prover" else None,
        verdict=kind.value, holds=holds,
        witness=None if witness is None else render_witness(ars, witness),
        stats=stats, time_ms=int((time.perf_counter() - started) * 1000))
    return report, verd


def _emit_proof(ars: System, verd: Verdict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        to_dot(ars, verd.graph, fh)


def _emit_trace(ars: System, verd: Verdict, path: str) -> None:
    t = verd.pre_proof.tree
    preds, rules, children, xi = t.preds, t.rules, t.children, verd.pre_proof.xi
    # Proof trees are as deep as the longest run they follow, so the walk
    # is the tree's iterative preorder, not a recursion.  Lines are written
    # as they are made: their indentation makes the trace quadratic in depth.
    depth = {t.root: 0}
    fmt = predicate_formatter(ars)
    # An unruled node that is no bud is keyed by its `is_bottom`: a bottom
    # leaf is closed, any other leaf open.
    rule_text = {rule: rule.value for rule in RuleName}
    rule_text.update({False: "open", True: "closed"})
    with open(path, "w", encoding="utf-8") as fh:
        for v in t.preorder():
            indent = "  " * depth[v]
            pred = fmt(preds[v])
            if v in xi:
                fh.write(f"{indent}bud {pred} -> node {xi[v]}\n")
                continue
            for c in children.get(v, ()):
                depth[c] = depth[v] + 1
            fh.write(f"{indent}{rule_text[rules.get(v, preds[v].is_bottom)]} [{v}] {pred}\n")


class QuerySpec(NamedTuple):
    """How a query subcommand reads its sets and reports its verdict."""

    help: str
    source_flags: tuple[str, ...]
    target_flags: tuple[str, ...]
    mode: str | None = None                # None: --mode decides
    banner: tuple[str, str] | None = None  # text line when it holds / fails


QUERIES = {
    "check": QuerySpec("decide partial or total validity",
                       ("--source", "--from"), ("--target", "--goal")),
    "safety": QuerySpec("decide error non-reachability", ("--from", "--source"), ("--error",),
                        "partial", ("safe: no error state reachable",
                                    "unsafe: error state reachable")),
    "liveness": QuerySpec("decide that every path reaches the goal",
                          ("--from", "--source"), ("--goal", "--target"),
                          "total", ("live: goal reached on every path",
                                    "not live: a path avoids the goal")),
    # A check query that must write a proof artifact; reported as "check".
    "export": QuerySpec("run a query and write proof artifacts",
                        ("--source", "--from"), ("--target", "--goal")),
}


def cmd_query(args) -> int:
    spec = QUERIES[args.cmd]
    command = "check" if args.cmd == "export" else args.cmd
    if args.cmd == "export" and not args.emit_proof and not args.emit_trace:
        raise UsageError("export needs --emit-proof and/or --emit-trace")
    if args.engine == "oracle" and (args.emit_proof or args.emit_trace):
        flag = "--emit-proof" if args.emit_proof else "--emit-trace"
        raise UsageError(f"{flag} requires the prover engine")
    started = time.perf_counter()
    ars = _load_input(args)
    source = _resolve_set(ars, args.source)
    target = _resolve_set(ars, args.target)
    if args.cmd == "safety":
        ars, pred = build_safety_query(ars, source, target)
    else:
        pred = AprPredicate(source, target)
    report, verd = _run_query(args, command, ars, pred, spec.mode or args.mode, started)
    # Artifacts first: a run that fails to write one exits 2 with no output.
    if args.emit_proof:
        _emit_proof(ars, verd, args.emit_proof)
    if args.emit_trace:
        _emit_trace(ars, verd, args.emit_trace)
    if spec.banner and not args.json:
        print(spec.banner[not report.holds])
    if args.json:
        print(report_to_json(report))
        return 0 if report.holds else 1
    print(f"verdict: {report.verdict}")
    if report.witness is not None:
        print(f"witness: {report.witness}")
    if stats := report.stats:
        rules = " ".join(f"{r}={stats['rules'][r]}" for r in ("Axiom", "Subs", "Der", "Dis"))
        print(f"nodes: {stats['nodes']} buds: {stats['buds']} rules: {rules}")
        shape = "acyclic" if stats["graph_acyclic"] else "cyclic"
        print(f"graph: {stats['graph_vertices']} vertices, {stats['graph_edges']} edges, {shape}")
    print(f"time: {report.time_ms} ms")
    return 0 if report.holds else 1


def cmd_expand(args) -> int:
    if bool(args.model) == bool(args.builtin):
        raise UsageError("expand needs exactly one of --model, --builtin")
    expansion = expand(_load_model(args), max_states=args.max_states)
    init = join_labels(expansion.ars.labels, expansion.initial, ",")
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as fh:
        render_ars(expansion.ars, fh)
        fh.write(f"# initial: {init}\n")
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _add_model_flags(sp, cap_help: str) -> None:
    sp.add_argument("--model", help="model file in the guarded-transition DSL")
    sp.add_argument("--builtin", help="built-in model name (peterson)")
    sp.add_argument("--max-states", type=_positive_int, default=DEFAULT_STATE_CAP,
                    help=cap_help)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: `parse_args` keeps
    no state between calls, and building it costs about two milliseconds,
    as much as a small query."""
    ap = argparse.ArgumentParser(
        prog="reachproof",
        description="All-path reachability verifier: cyclic proofs, safety and liveness checks.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    for name, spec in QUERIES.items():
        sp = sub.add_parser(name, help=spec.help)
        sp.add_argument("--ars", help="system file in the line-based states/trans format")
        _add_model_flags(sp, "cap on the model states a query explores, the states a "
                             "state predicate selects and the variable valuations")
        sp.add_argument(*spec.source_flags, dest="source", required=True,
                        help="comma-joined labels, or a state predicate for models")
        sp.add_argument(*spec.target_flags, dest="target", required=True,
                        metavar=spec.target_flags[0][2:].upper())
        if spec.mode is None:
            sp.add_argument("--mode", choices=["partial", "total"], default="partial")
        sp.add_argument("--engine", choices=["prover", "oracle"], default="prover")
        sp.add_argument("--strategy", choices=[s.value for s in SplitStrategy],
                        default=SplitStrategy.EAGER.value)
        sp.add_argument("--emit-proof", metavar="PATH", help="write the proof graph as DOT")
        sp.add_argument("--emit-trace", metavar="PATH",
                        help="write the pre-proof as an indented trace")
        sp.add_argument("--json", action="store_true", help="print a JSON report")
        sp.add_argument("--max-nodes", type=_positive_int, default=DEFAULT_NODE_BUDGET,
                        help="cap on proof-search nodes")
        sp.set_defaults(func=cmd_query)

    sp = sub.add_parser("expand", help="expand a model to the system format")
    _add_model_flags(sp, "cap on the expanded state-space size (the product of the domains)")
    sp.add_argument("--out", metavar="PATH", help="output path (default: stdout)")
    sp.set_defaults(func=cmd_expand, ars=None)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (ArsError, ModelError, UsageError, NodeBudgetExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
