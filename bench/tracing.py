"""Spans around the calls into each reachproof layer, recorded from outside.

The tracer replaces public functions at the place where their caller looks
them up (`reachproof.cli.expand`, `reachproof.prover.premises`, ...) with
wrappers that record a span: name, start, end, parent span and query id.
Nothing under `src/` changes, and the wrappers are installed only for the
traced passes.  Spans stay in memory until `write` is called at the end of
the run.  Sizes (states, nodes, buds, ...) are read from the wrapped calls'
arguments and results after the query has finished, so that reading them
costs no span any time.
"""

from __future__ import annotations

import statistics
from array import array
from collections import defaultdict
from time import perf_counter


def _edges(ars) -> int:
    return sum(len(s) for s in ars.succs)


def _verdict_sizes(args, verdict):
    tree = verdict.pre_proof.tree
    yield "prover.nodes", verdict.stats.nodes
    yield "prover.buds", verdict.stats.buds
    yield "prover.der", verdict.stats.rule_counts["Der"]
    yield "max:prover.max_source", max(len(p.source) for p in tree.preds)
    w = verdict.witness
    if w is not None:
        steps = w.path.steps if hasattr(w, "path") else w.stem + w.cycle
        yield "prover.witness_len", len(steps)


def _prove_name(args, kwargs) -> str:
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    return "prover.prove." + (cfg.strategy.value if cfg is not None else "eager")


# (module, attribute, span name, size reader).  A size reader maps the
# call's arguments and result to (counter, value) pairs; "max:" counters
# keep the largest value seen in a query instead of the sum.
def _targets(rp, region):
    return [
        (rp.cli, "parse_ars", "ars.parse",
         lambda a, r: [("ars.states", r.n), ("ars.edges", _edges(r))]),
        (rp.cli, "render_ars", "ars.render", None),
        (rp.cli, "parse_model", "modeling.parse", None),
        (rp.modeling, "parse_model", "modeling.parse", None),
        (rp.cli, "expand", "modeling.expand", lambda a, r: [("modeling.states", r.ars.n)]),
        (rp.cli, "eval_state_predicate", "modeling.eval_pred", None),
        (rp.cli, "build_safety_query", "reductions.safety_query",
         lambda a, r: [("reductions.extra_edges", _edges(r[0]) - _edges(a[0]))]),
        (rp.cli, "check_partial", "prover.check", _verdict_sizes),
        (rp.cli, "check_total", "prover.check", _verdict_sizes),
        (rp.prover, "prove", _prove_name, None),
        (rp.prover, "premises", "proofs.premises", None),
        (rp.prover, "extract_finite_counterexample", "prover.witness", None),
        (rp.prover, "extract_lasso", "prover.witness", None),
        (rp.prover, "proof_graph", "proofs.graph",
         lambda a, r: [("max:proofs.graph_vertices", len(r.vertices)),
                       ("max:proofs.graph_edges", len(r.edges))]),
        (rp.cli, "proof_graph", "proofs.graph",
         lambda a, r: [("max:proofs.graph_vertices", len(r.vertices)),
                       ("max:proofs.graph_edges", len(r.edges))]),
        (rp.prover, "is_acyclic", "proofs.acyclic", None),
        (rp.cli, "is_acyclic", "proofs.acyclic", None),
        (rp.cli, "to_dot", "proofs.dot", None),
        (rp.oracle, "oracle_partial", "oracle.decide", region),
        (rp.oracle, "oracle_total", "oracle.decide", region),
    ]


class Tracer:
    def __init__(self, rp):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.query = array("i")
        self.stack: list[int] = []
        self.qid = -1
        self.pending: list[tuple] = []
        self.sizes: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.installed: list[tuple] = []

        def region(args, answer):
            ars, pred = args[0], args[1]
            return [("oracle.region_states",
                     len(rp.ars.avoiding_region(ars, pred.source, pred.target)))]
        self.targets = _targets(rp, region)

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        sid = len(self.start)
        self.span_name.append(self._name_id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.query.append(self.qid)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name, sizes):
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if sizes is not None:
                tracer.pending.append((sizes, args, result, tracer.qid))
            return result
        return traced

    def install(self) -> None:
        for module, attr, name, sizes in self.targets:
            original = getattr(module, attr)
            self.installed.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, sizes))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self.installed):
            setattr(module, attr, original)
        self.installed.clear()

    def settle(self) -> None:
        """Read the sizes of the calls recorded since the last settle."""
        for sizes, args, result, qid in self.pending:
            counters = self.sizes[qid]
            for key, value in sizes(args, result):
                if key.startswith("max:"):
                    key = key[4:]
                    counters[key] = max(counters[key], value)
                else:
                    counters[key] += value
        self.pending.clear()

    # -- reporting ----------------------------------------------------------

    def pass_metrics(self, first: int, last: int, qids: list[int]) -> dict[str, float]:
        """Per-layer metrics of the spans first..last-1 (one traced pass)."""
        dur: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child = defaultdict(float)
        for sid in range(first, last):
            if self.parent[sid] >= 0:
                child[self.parent[sid]] += self.end[sid] - self.start[sid]
        for sid in range(first, last):
            name = self.names[self.span_name[sid]]
            d = self.end[sid] - self.start[sid]
            dur[name] += d
            self_time[name] += d - child[sid]
            calls[name] += 1
        size = defaultdict(float)
        for qid in qids:
            for key, value in self.sizes.get(qid, {}).items():
                size[key] = max(size[key], value) if key == "prover.max_source" else size[key] + value

        prove_e = dur["prover.prove.eager"]
        prove_m = dur["prover.prove.monolithic"]
        prover_self = (self_time["prover.check"] + self_time["prover.prove.eager"]
                       + self_time["prover.prove.monolithic"] + self_time["prover.witness"])
        m = {
            "ars.parse_s": dur["ars.parse"],
            "ars.render_s": dur["ars.render"],
            "ars.states": size["ars.states"],
            "ars.edges": size["ars.edges"],
            "modeling.parse_s": dur["modeling.parse"],
            "modeling.expand_s": dur["modeling.expand"],
            "modeling.eval_pred_s": dur["modeling.eval_pred"],
            "modeling.states": size["modeling.states"],
            "reductions.safety_query_s": dur["reductions.safety_query"],
            "reductions.extra_edges": size["reductions.extra_edges"],
            "prover.prove_s": prove_e + prove_m,
            "prover.prove_s.eager": prove_e,
            "prover.prove_s.monolithic": prove_m,
            "prover.self_s": prover_self,
            "prover.nodes": size["prover.nodes"],
            "prover.buds": size["prover.buds"],
            "prover.bud_ratio": size["prover.buds"] / size["prover.der"] if size["prover.der"] else 0.0,
            "prover.max_source": size["prover.max_source"],
            "prover.witness_s": dur["prover.witness"],
            "prover.witness_len": size["prover.witness_len"],
            "proofs.premises_s": dur["proofs.premises"],
            "proofs.premises_calls": calls["proofs.premises"],
            "proofs.graph_s": dur["proofs.graph"],
            "proofs.graph_calls": calls["proofs.graph"],
            "proofs.acyclic_s": dur["proofs.acyclic"],
            "proofs.acyclic_calls": calls["proofs.acyclic"],
            "proofs.dot_s": dur["proofs.dot"],
            "proofs.graph_vertices": size["proofs.graph_vertices"],
            "proofs.graph_edges": size["proofs.graph_edges"],
            "oracle.decide_s": dur["oracle.decide"],
            "oracle.region_states": size["oracle.region_states"],
            "cli.self_s": self_time["cli.main"],
            "cli.calls": calls["cli.main"],
        }
        # Self time of every layer inside the timed calls; these add up to
        # the traced pass's busy time.
        m["_self"] = {name: t for name, t in self_time.items() if name != "oracle.decide"}
        return m

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart\tend\tparent\tquery\n")
            for sid in range(len(self.start)):
                fh.write(f"{sid}\t{self.names[self.span_name[sid]]}\t{self.start[sid]:.9f}\t"
                         f"{self.end[sid]:.9f}\t{self.parent[sid]}\t{self.query[sid]}\n")


def median_metrics(per_pass: list[dict]) -> dict[str, float]:
    keys = [k for k in per_pass[0] if not k.startswith("_")]
    return {k: statistics.median(p[k] for p in per_pass) for k in keys}
