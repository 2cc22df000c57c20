"""Correctness gate: every output of a pass is checked before the next pass.

A verdict must match the generator's answer and the brute-force oracle on
the same system, and a witness must survive `witness_violations` on the
system the query ran on.  An expand output must re-parse to the state and
edge counts and the initial states the generator computed by itself.  An
exported proof graph must list the vertices and edges the JSON report
counts, and an exported trace one line per tree node.  Every check runs on
every pass, outside the timed region.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from workloads import Op, Query


@dataclass
class Outcome:
    """What one timed call returned."""

    seconds: float
    code: int | None = None
    stdout: str = ""
    error: str | None = None      # exception type name when the call raised


def parse_witness(rp, ars, text: str):
    """Invert cli.render_witness: `a -> b` or `a -> b -> (c -> b)*`."""
    if not text.endswith(")*"):
        steps = tuple(ars.id_of(s) for s in text.split(" -> "))
        return rp.prover.FinitePath(rp.ars.ExecutionPath(steps))
    head, tail = text[:-2].split(" -> (", 1)
    head_ids = [ars.id_of(s) for s in head.split(" -> ")]
    tail_ids = [ars.id_of(s) for s in tail.split(" -> ")]
    return rp.prover.Lasso(tuple(head_ids[:-1]), (head_ids[-1], *tail_ids[:-1]))


class Checker:
    """Checks one pass.  `systems` caches the reference systems the
    queries ran on for the length of one pass."""

    def __init__(self, rp):
        self.rp = rp
        self.systems: dict[str, object] = {}

    def check_pass(self, ops: list[Op], outcomes: list[Outcome], enter) -> list[str | None]:
        """One problem string (or None) per op.  Expand ops are checked
        first because the model queries are checked on their output.
        `enter(i)` is called before op i is checked."""
        self.systems.clear()
        problems: list[str | None] = [None] * len(ops)
        order = sorted(range(len(ops)), key=lambda i: ops[i].query is not None)
        for i in order:
            enter(i)
            problems[i] = self._check(ops[i], outcomes[i])
        self.systems.clear()
        return problems

    def _check(self, op: Op, out: Outcome) -> str | None:
        if out.error is not None:
            return f"raised {out.error}"
        if op.query is None:
            return self._check_expand(op, out)
        return self._check_verdict(op, op.query, out)

    def _check_expand(self, op: Op, out: Outcome) -> str | None:
        if out.code != 0:
            return f"exit code {out.code}"
        with open(op.out, encoding="utf-8") as fh:
            text = fh.read()
        ars = self.rp.ars.parse_ars(text)
        edges = sum(len(s) for s in ars.succs)
        if (ars.n, edges) != (op.states, op.edges):
            return f"expanded to {ars.n} states, {edges} edges; expected {op.states}, {op.edges}"
        initial = text.rstrip("\n").rsplit("\n", 1)[-1]
        if initial != "# initial: " + ",".join(sorted(op.initial)):
            return f"wrong initial line {initial!r}"
        self.systems[op.model] = ars
        return None

    def _system(self, name: str):
        if name not in self.systems:
            if not name.endswith(".ars"):
                raise LookupError(f"no checked expansion of {name}")
            with open(name, encoding="utf-8") as fh:
                self.systems[name] = self.rp.ars.parse_ars(fh.read())
        return self.systems[name]

    def _check_verdict(self, op: Op, q: Query, out: Outcome) -> str | None:
        rp = self.rp
        try:
            report = json.loads(out.stdout)
        except ValueError:
            return "no JSON report"
        holds = q.verdict in ("PartiallyValid", "TotallyValid")
        if out.code != (0 if holds else 1):
            return f"exit code {out.code}"
        if report["verdict"] != q.verdict or report["holds"] != holds:
            return f"verdict {report['verdict']}, expected {q.verdict}"
        try:
            ars = self._system(q.system)
        except LookupError as exc:
            return str(exc)
        source = ars.ids_of(q.source)
        target = ars.ids_of(q.target)
        if q.safety:
            ars, pred = rp.reductions.build_safety_query(ars, source, target)
        else:
            pred = rp.proofs.AprPredicate(source, target)
        decide = rp.oracle.oracle_partial if q.mode == "partial" else rp.oracle.oracle_total
        if decide(ars, pred).valid != holds:
            return "oracle disagrees"
        witness = report["witness"]
        if (witness is None) != holds:
            return "witness present on a valid verdict or missing on an invalid one"
        if witness is not None:
            w = parse_witness(rp, ars, witness)
            kind = "lasso" if isinstance(w, rp.prover.Lasso) else "path"
            if kind != q.witness:
                return f"{kind} witness, expected {q.witness}"
            bad = rp.prover.witness_violations(ars, pred, w)
            if bad:
                return "witness: " + "; ".join(bad)
        stats = report["stats"]
        if op.dot is not None:
            with open(op.dot, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            arrows = sum(" -> " in line for line in lines)
            if (len(lines) - 2 - arrows, arrows) != (stats["graph_vertices"], stats["graph_edges"]):
                return "DOT graph size differs from the report"
        if op.trace is not None:
            with open(op.trace, encoding="utf-8") as fh:
                if sum(1 for _ in fh) != stats["nodes"]:
                    return "trace line count differs from the node count"
        return None
