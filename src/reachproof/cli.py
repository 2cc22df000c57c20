"""Command-line front end.

Subcommands:
  check      decide partial or total validity of <source> => <target>
  safety     decide error non-reachability via the any-sink reduction
  liveness   decide total validity of <from> => <goal>
  expand     expand a model to the line-based system format
  export     run a query and write its proof graph (DOT) and rule trace

Exit status: 0 when the queried property holds, 1 when it fails (a witness
is printed), 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass

from .ars import Ars, ArsError, StateSet, parse_ars, render_ars
from .modeling import (
    DEFAULT_STATE_CAP,
    Expansion,
    ModelError,
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
    SplitStrategy,
    format_predicate,
    is_acyclic,
    proof_graph,
    to_dot,
)
from .prover import (
    FinitePath,
    NodeBudgetExceeded,
    ProverConfig,
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


def render_witness(ars: Ars, witness: Witness) -> str:
    if isinstance(witness, FinitePath):
        return " -> ".join(ars.labels[i] for i in witness.path.steps)
    head = [ars.labels[i] for i in witness.stem] + [ars.labels[witness.cycle[0]]]
    tail = [ars.labels[i] for i in witness.cycle[1:]] + [ars.labels[witness.cycle[0]]]
    return " -> ".join(head) + " -> (" + " -> ".join(tail) + ")*"


def _load_input(args) -> tuple[Ars, Expansion | None]:
    picked = [x for x in (args.ars, args.model, args.builtin) if x]
    if len(picked) != 1:
        raise UsageError("exactly one of --ars, --model, --builtin is required")
    if args.ars:
        with open(args.ars, encoding="utf-8") as fh:
            return parse_ars(fh.read()), None
    if args.model:
        with open(args.model, encoding="utf-8") as fh:
            model = parse_model(fh.read())
    else:
        if args.builtin not in BUILTINS:
            raise UsageError(f"unknown builtin {args.builtin!r} (available: "
                             + ", ".join(sorted(BUILTINS)) + ")")
        model = BUILTINS[args.builtin]()
    expansion = expand(model, max_states=args.max_states)
    return expansion.ars, expansion


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


def _resolve_set(ars: Ars, expansion: Expansion | None, text: str, what: str) -> StateSet:
    """Label list for plain systems, state-predicate expression for models."""
    if text is None:
        raise UsageError(f"missing {what} set")
    if expansion is not None:
        return eval_state_predicate(expansion, text)
    return ars.ids_of(_split_labels(text))


def _run_query(ars: Ars, pred: AprPredicate, mode: str, engine: str,
               strategy: str, max_nodes: int) -> tuple[bool, str, Witness | None, dict | None,
                                                        Verdict | None]:
    """Returns (holds, verdict name, witness, stats dict, prover verdict or None)."""
    if engine == "oracle":
        answer = oracle_partial(ars, pred) if mode == "partial" else oracle_total(ars, pred)
        if mode == "partial":
            verdict = VerdictKind.PARTIALLY_VALID if answer.valid else VerdictKind.NOT_PARTIALLY_VALID
        else:
            verdict = VerdictKind.TOTALLY_VALID if answer.valid else VerdictKind.NOT_TOTALLY_VALID
        return answer.valid, verdict.value, answer.witness, None, None
    cfg = ProverConfig(strategy=SplitStrategy(strategy), node_budget=max_nodes)
    verd = check_partial(ars, pred, cfg) if mode == "partial" else check_total(ars, pred, cfg)
    stats = {
        "nodes": verd.stats.nodes,
        "buds": verd.stats.buds,
        "rules": verd.stats.rule_counts,
        "graph_vertices": len(verd.graph.vertices),
        "graph_edges": len(verd.graph.edges),
        "graph_acyclic": verd.acyclic,
    }
    holds = verd.kind in (VerdictKind.PARTIALLY_VALID, VerdictKind.TOTALLY_VALID)
    return holds, verd.kind.value, verd.witness, stats, verd


def _emit_proof(ars: Ars, verd: Verdict | None, path: str) -> None:
    if verd is None:
        raise UsageError("--emit-proof requires the prover engine")
    dot = to_dot(ars, verd.graph)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dot)


def _emit_trace(ars: Ars, verd: Verdict | None, path: str) -> None:
    if verd is None:
        raise UsageError("--emit-trace requires the prover engine")
    t = verd.pre_proof.tree
    xi = verd.pre_proof.xi
    # Proof trees are as deep as the longest run they follow, so the walk
    # is the tree's iterative preorder, not a recursion.  Lines are written
    # as they are made: their indentation makes the trace quadratic in depth.
    depth = {t.root: 0}
    with open(path, "w", encoding="utf-8") as fh:
        for v in t.preorder():
            indent = "  " * depth[v]
            pred = format_predicate(ars, t.preds[v])
            if v in xi:
                fh.write(f"{indent}bud {pred} -> node {xi[v]}\n")
                continue
            for c in t.children.get(v, ()):
                depth[c] = depth[v] + 1
            rule = t.rules.get(v)
            label = str(rule) if rule is not None else "open"
            fh.write(f"{indent}{label} [{v}] {pred}\n")


def _finish(args, report: RunReport, ars: Ars, verd: Verdict | None) -> int:
    if getattr(args, "emit_proof", None):
        _emit_proof(ars, verd, args.emit_proof)
    if getattr(args, "emit_trace", None):
        _emit_trace(ars, verd, args.emit_trace)
    if args.json:
        print(report_to_json(report))
    else:
        print(f"verdict: {report.verdict}")
        if report.witness is not None:
            print(f"witness: {report.witness}")
        if report.stats is not None:
            s = report.stats
            rules = " ".join(f"{r}={s['rules'][r]}" for r in ("Axiom", "Subs", "Der", "Dis"))
            print(f"nodes: {s['nodes']} buds: {s['buds']} rules: {rules}")
            shape = "acyclic" if s["graph_acyclic"] else "cyclic"
            print(f"graph: {s['graph_vertices']} vertices, {s['graph_edges']} edges, {shape}")
        print(f"time: {report.time_ms} ms")
    return 0 if report.holds else 1


def cmd_check(args) -> int:
    started = time.perf_counter()
    ars, expansion = _load_input(args)
    source = _resolve_set(ars, expansion, args.source, "source")
    target = _resolve_set(ars, expansion, args.target, "target")
    pred = AprPredicate(source, target)
    holds, verdict, witness, stats, verd = _run_query(
        ars, pred, args.mode, args.engine, args.strategy, args.max_nodes)
    report = RunReport(
        command="check", source=args.source, target=args.target, mode=args.mode,
        engine=args.engine, strategy=args.strategy if args.engine == "prover" else None,
        verdict=verdict, holds=holds,
        witness=None if witness is None else render_witness(ars, witness),
        stats=stats, time_ms=int((time.perf_counter() - started) * 1000))
    return _finish(args, report, ars, verd)


def cmd_safety(args) -> int:
    started = time.perf_counter()
    ars, expansion = _load_input(args)
    source = _resolve_set(ars, expansion, args.source, "from")
    errors = _resolve_set(ars, expansion, args.error, "error")
    query_ars, pred = build_safety_query(ars, source, errors)
    holds, verdict, witness, stats, verd = _run_query(
        query_ars, pred, "partial", args.engine, args.strategy, args.max_nodes)
    report = RunReport(
        command="safety", source=args.source, target=args.error, mode="partial",
        engine=args.engine, strategy=args.strategy if args.engine == "prover" else None,
        verdict=verdict, holds=holds,
        witness=None if witness is None else render_witness(query_ars, witness),
        stats=stats, time_ms=int((time.perf_counter() - started) * 1000))
    if not args.json:
        print("safe: no error state reachable" if holds else "unsafe: error state reachable")
    return _finish(args, report, query_ars, verd)


def cmd_liveness(args) -> int:
    started = time.perf_counter()
    ars, expansion = _load_input(args)
    source = _resolve_set(ars, expansion, args.source, "from")
    goal = _resolve_set(ars, expansion, args.goal, "goal")
    pred = AprPredicate(source, goal)
    holds, verdict, witness, stats, verd = _run_query(
        ars, pred, "total", args.engine, args.strategy, args.max_nodes)
    report = RunReport(
        command="liveness", source=args.source, target=args.goal, mode="total",
        engine=args.engine, strategy=args.strategy if args.engine == "prover" else None,
        verdict=verdict, holds=holds,
        witness=None if witness is None else render_witness(ars, witness),
        stats=stats, time_ms=int((time.perf_counter() - started) * 1000))
    if not args.json:
        print("live: goal reached on every path" if holds else "not live: a path avoids the goal")
    return _finish(args, report, ars, verd)


def cmd_expand(args) -> int:
    if not args.model and not args.builtin:
        raise UsageError("expand needs --model or --builtin")
    args.ars = None
    _, expansion = _load_input(args)
    text = render_ars(expansion.ars)
    init = ",".join(expansion.ars.labels[i] for i in expansion.initial)
    text += f"# initial: {init}\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_export(args) -> int:
    if not args.emit_proof and not args.emit_trace:
        raise UsageError("export needs --emit-proof and/or --emit-trace")
    return cmd_check(args)


def _add_input_flags(sp) -> None:
    sp.add_argument("--ars", help="system file in the line-based states/trans format")
    sp.add_argument("--model", help="model file in the guarded-transition DSL")
    sp.add_argument("--builtin", help="built-in model name (peterson)")
    sp.add_argument("--max-states", type=int, default=DEFAULT_STATE_CAP,
                    help="cap on the expanded state-space size")


def _add_query_flags(sp, with_mode: bool) -> None:
    if with_mode:
        sp.add_argument("--mode", choices=["partial", "total"], default="partial")
    sp.add_argument("--engine", choices=["prover", "oracle"], default="prover")
    sp.add_argument("--strategy", choices=["eager", "monolithic"], default="eager")
    sp.add_argument("--emit-proof", metavar="PATH", help="write the proof graph as DOT")
    sp.add_argument("--emit-trace", metavar="PATH", help="write the pre-proof as an indented trace")
    sp.add_argument("--json", action="store_true", help="print a JSON report")
    sp.add_argument("--max-nodes", type=int, default=1_000_000,
                    help="cap on proof-search nodes")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="reachproof",
        description="All-path reachability verifier: cyclic proofs, safety and liveness checks.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("check", help="decide partial or total validity")
    _add_input_flags(sp)
    sp.add_argument("--source", "--from", dest="source", required=True,
                    help="comma-joined labels, or a state predicate for models")
    sp.add_argument("--target", "--goal", dest="target", required=True)
    _add_query_flags(sp, with_mode=True)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("safety", help="decide error non-reachability")
    _add_input_flags(sp)
    sp.add_argument("--from", "--source", dest="source", required=True)
    sp.add_argument("--error", required=True)
    _add_query_flags(sp, with_mode=False)
    sp.set_defaults(func=cmd_safety)

    sp = sub.add_parser("liveness", help="decide that every path reaches the goal")
    _add_input_flags(sp)
    sp.add_argument("--from", "--source", dest="source", required=True)
    sp.add_argument("--goal", "--target", dest="goal", required=True)
    _add_query_flags(sp, with_mode=False)
    sp.set_defaults(func=cmd_liveness)

    sp = sub.add_parser("expand", help="expand a model to the system format")
    _add_input_flags(sp)
    sp.add_argument("--out", metavar="PATH", help="output path (default: stdout)")
    sp.set_defaults(func=cmd_expand)

    sp = sub.add_parser("export", help="run a query and write proof artifacts")
    _add_input_flags(sp)
    sp.add_argument("--source", "--from", dest="source", required=True)
    sp.add_argument("--target", "--goal", dest="target", required=True)
    _add_query_flags(sp, with_mode=True)
    sp.set_defaults(func=cmd_export)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (ArsError, ModelError, UsageError, NodeBudgetExceeded, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
