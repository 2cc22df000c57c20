#!/usr/bin/env python3
"""Time-to-verdict benchmark for reachproof.

    python3 bench/run.py --workload rings|models|chains --seed N \
        --seconds S --trace 0|1

One process, one client, closed loop: the workload's generator writes its
inputs from the seed, then the benchmark runs passes over the workload's
operations until S seconds have gone by.  Each operation is one call of
`reachproof.cli.main(argv)` in this process, timed from the call to its
exit code and captured JSON report.  After every pass each output is
checked (see checks.py) outside the timed region.

With --trace 0 the passes are untraced and the end-to-end metrics are
printed.  With --trace 1 untraced and traced passes alternate, the
per-layer metrics are printed, and the spans are written to
.bench_run/spans-<workload>-s<seed>.tsv.  The last line of the output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

Exit status: 0 when every output is correct, 1 when a check failed (an
operation that raised counts as failed but not as incorrect), 2 when the
benchmark cannot start, for example without reachproof's sources.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import types
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import Checker, Outcome  # noqa: E402
from tracing import Tracer, median_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
# Every run makes at least MIN_PASSES passes.  The tail percentile is the
# highest of TAIL_LADDER with ten samples beyond it in that many passes, so
# it is fixed per workload and does not change with the machine's speed.
MIN_PASSES = 4
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)
LAYERS = ("reachproof", "reachproof.ars", "reachproof.modeling", "reachproof.reductions",
          "reachproof.proofs", "reachproof.prover", "reachproof.oracle", "reachproof.cli")

END_TO_END_UNITS = {
    "queries_per_s": "1/s",
    "verdict_s.p50": "s",
    "verdict_s.tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "proof_nodes": "count",
}


def load_reachproof() -> types.SimpleNamespace:
    """Import reachproof afresh from the checkout's src/ directory."""
    for name in [m for m in sys.modules if m == "reachproof" or m.startswith("reachproof.")]:
        del sys.modules[name]
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    modules = {name.rpartition(".")[2]: importlib.import_module(name) for name in LAYERS}
    if Path(modules["reachproof"].__file__).resolve().parent.parent != src:
        raise ImportError(f"reachproof imported from outside {src}")
    return types.SimpleNamespace(**modules)


def run_op(rp, argv: list[str], tracer: Tracer | None = None) -> Outcome:
    """One timed query: argv in, exit code and captured report out."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    sid = tracer.open("cli.main") if tracer else None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = rp.cli.main(argv)
    except Exception as exc:  # one op's failure must not end the pass
        return Outcome(perf_counter() - start, error=type(exc).__name__)
    finally:
        if tracer:
            tracer.close(sid)
    return Outcome(perf_counter() - start, code, out.getvalue())


def setup(plan, work: Path):
    """Import reachproof, write the inputs and warm up; returns (rp, seconds).
    The plan, with its expected answers, is made before the clock starts."""
    shutil.rmtree(work, ignore_errors=True)
    gc.collect()
    start = perf_counter()
    rp = load_reachproof()
    work.mkdir(parents=True)
    for path, text in plan.files.items():
        Path(path).write_text(text, encoding="utf-8")
    warm = run_op(rp, plan.warmup)
    if warm.error is not None or warm.code not in (0, 1):
        raise RuntimeError(f"warm-up query failed: {warm.error or warm.code}")
    return rp, perf_counter() - start


def run_pass(rp, plan, checker: Checker, tracer: Tracer | None, qid_base: int):
    outcomes = []
    for i, op in enumerate(plan.ops):
        for path in (op.out, op.dot, op.trace):
            if path:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)
        gc.collect()
        if tracer:
            tracer.qid = qid_base + i
        outcomes.append(run_op(rp, op.argv, tracer))
        if tracer:
            tracer.settle()

    def enter(i: int) -> None:
        if tracer:
            tracer.qid = qid_base + i
    problems = checker.check_pass(plan.ops, outcomes, enter)
    if tracer:
        tracer.settle()
    return outcomes, problems


def proof_nodes(ops, outcomes) -> int | None:
    """Proof-tree nodes over the pass's queries other than `export`, which
    repeat the query of a `check` op.  The set of ops counted is fixed:
    None when one of them gave no report."""
    total = 0
    for op, out in zip(ops, outcomes):
        if op.query is None or op.argv[0] == "export":
            continue
        try:
            total += json.loads(out.stdout)["stats"]["nodes"]
        except (ValueError, KeyError, TypeError):
            return None
    return total


def tail_percentile(ops_per_pass: int) -> float:
    n = MIN_PASSES * ops_per_pass
    return next((p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= 10), 50.0)


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    run_dir = ROOT / ".bench_run"
    work = run_dir / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        return measure(args, run_dir, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, run_dir: Path, work: Path) -> int:
    plan = WORKLOADS[args.workload](work, args.seed)
    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            setups.append(setup(plan, work))
    except (ImportError, RuntimeError) as exc:
        print(f"bench: cannot start: {exc}", file=sys.stderr)
        return 2
    rp = setups[-1][0]
    setup_s = statistics.median(s for _, s in setups)
    del setups
    gc.collect()
    gc.freeze()

    checker = Checker(rp)
    tracer = Tracer(rp) if args.trace else None
    passes = []
    started = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            first = len(tracer.start)
            tracer.install()
        try:
            outcomes, problems = run_pass(rp, plan, checker, tracer if traced else None,
                                          len(passes) * len(plan.ops))
        finally:
            if traced:
                tracer.uninstall()
        layer = None
        if traced:
            qids = [len(passes) * len(plan.ops) + i for i in range(len(plan.ops))]
            layer = tracer.pass_metrics(first, len(tracer.start), qids)
        passes.append((traced, outcomes, problems, layer))
        if perf_counter() - started >= args.seconds and len(passes) >= MIN_PASSES:
            break

    attempted = failed = 0
    incorrect: list[str] = []
    raised = Counter()
    for _, outcomes, problems, _ in passes:
        for op, out, problem in zip(plan.ops, outcomes, problems):
            attempted += 1
            if problem is None:
                continue
            failed += 1
            if out.error is not None:
                raised[f"{op.name}: {out.error}"] += 1
            else:
                incorrect.append(f"{op.name}: {problem}")
    nodes = {proof_nodes(plan.ops, o) for t, o, _, _ in passes if not t}
    if None in nodes:
        incorrect.append("proof_nodes: a query other than export gave no report")
    elif len(nodes) > 1:
        incorrect.append(f"proof_nodes differs between passes: {sorted(nodes)}")
    correct = not incorrect

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"ops/pass {len(plan.ops)}  attempted {attempted}  failed {failed}")
    for line in incorrect[:20]:
        print(f"INCORRECT {line}")
    for line, count in sorted(raised.items()):
        print(f"failed    {line} x{count}")

    if tracer is None:
        metrics = end_to_end(passes, setup_s, nodes, tail_percentile(len(plan.ops)))
        print(f"{'failed_share':24s} {failed / attempted:.6g} ratio")
    else:
        metrics = per_layer(passes, tracer, run_dir, args)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def end_to_end(passes, setup_s: float, nodes: set, pct: float) -> dict:
    """Every op's time is a verdict sample, also when it raised or failed a
    check, so the samples do not depend on which ops fail."""
    samples, done = [], 0
    for _, outcomes, problems, _ in passes:
        samples += [out.seconds for out in outcomes]
        done += problems.count(None)
    values = {
        "queries_per_s": done / sum(samples),
        "verdict_s.p50": statistics.median(samples),
        "verdict_s.tail": percentile(samples, pct),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "proof_nodes": min(n or 0 for n in nodes),
    }
    for name, value in values.items():
        note = f"  (p{pct:g} of {len(samples)} samples)" if name == "verdict_s.tail" else ""
        print(f"{name:24s} {value:.6g} {END_TO_END_UNITS[name]}{note}")
    return {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}


def per_layer(passes, tracer: Tracer, run_dir: Path, args) -> dict:
    def busy(outcomes):
        return sum(o.seconds for o in outcomes)
    traced = [layer for t, _, _, layer in passes if t]
    traced_busy = statistics.median(busy(o) for t, o, _, _ in passes if t)
    plain_busy = statistics.median(busy(o) for t, o, _, _ in passes if not t)
    metrics = median_metrics(traced)
    metrics["trace.overhead_s"] = traced_busy - plain_busy

    units = {}
    for name in metrics:
        if name.endswith("_s") or name.startswith("prover.prove_s"):
            units[name] = "s"
        elif name == "prover.bud_ratio":
            units[name] = "ratio"
        else:
            units[name] = "count"
    for name, value in metrics.items():
        print(f"{name:28s} {value:.6g} {units[name]}")

    self_time = Counter()
    for layer in traced:
        self_time.update(layer["_self"])
    print(f"self time per span name, summed over {len(traced)} traced passes:")
    for name, t in self_time.most_common():
        print(f"  {name:26s} {t:.6g} s")
    print(f"sum of self times {sum(self_time.values()) / len(traced):.6g} s per traced pass; "
          f"traced busy {traced_busy:.6g} s; untraced busy {plain_busy:.6g} s; "
          f"trace.overhead_s {traced_busy - plain_busy:.6g} s")

    run_dir.mkdir(exist_ok=True)
    tracer.write(run_dir / f"spans-{args.workload}-s{args.seed}.tsv")
    return {name: (value, units[name]) for name, value in metrics.items()}


if __name__ == "__main__":
    sys.exit(main())
