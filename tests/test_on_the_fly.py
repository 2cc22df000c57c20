"""Model queries on the on-the-fly system against the eager table.

A query command (`check`, `safety`, `liveness`) on `--model`/`--builtin`
input explores the model through `ModelSystem`, which computes a state's
successors when the query first reads them.  The reference is the library
run on `expand(model).ars`, with the same predicates and
`build_safety_query` on the eager table.  Exit code, `--json` report (time
masked), DOT and trace must be byte-identical, and the states whose
successors were computed must lie in the source, the avoiding region and
the sinks.  At benchmark scale, every op of the benchmark's `models`
workload is run through the CLI and checked as a benchmark pass is.
"""

import argparse
import io
import itertools
import re
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reachproof
from reachproof import (
    AprPredicate,
    ModelError,
    ModelSystem,
    SplitStrategy,
    avoiding_region,
    build_safety_query,
    eval_state_predicate,
    expand,
    parse_model,
    render_ars,
)
from reachproof import cli
from reachproof.modeling import PETERSON_SOURCE, StateLimitError
from reachproof.prover import ProverConfig, check_partial, check_total

from conftest import bench_checks, bench_workloads, semaphore_source
from test_cli import _PREDICATES, _model_texts
from test_expand_reference import NO_VARIABLES, SWAP_INT_LAST, several_domain_errors
from test_modeling import COUNTER_PREDICATES, COUNTER_SOURCE, PETERSON_PREDICATES

FLAGS = {"check": ("--source", "--target"), "safety": ("--from", "--error"),
         "liveness": ("--from", "--goal")}
MODES = {"check": "partial", "safety": "partial", "liveness": "total"}


def cli_output(tmp_path, model_text, command, source, target, mode, strategy) -> str:
    """Exit code, stdout (time masked), stderr, DOT and trace of one CLI run."""
    model = tmp_path / "m.model"
    model.write_text(model_text, encoding="utf-8")
    dot, trace = tmp_path / "cli.dot", tmp_path / "cli.trace"
    for path in (dot, trace):
        path.unlink(missing_ok=True)
    src_flag, tgt_flag = FLAGS[command]
    argv = [command, "--model", str(model), src_flag, source, tgt_flag, target,
            "--strategy", strategy, "--json", "--emit-proof", str(dot), "--emit-trace", str(trace)]
    if command == "check":
        argv += ["--mode", mode]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    stdout = re.sub(r'"time_ms": \d+', '"time_ms": -', out.getvalue())
    artifacts = [p.read_text() if p.exists() else "" for p in (dot, trace)]
    return "\n".join([str(code), stdout, err.getvalue(), *artifacts])


def reference_output(tmp_path, model_text, command, source, target, mode, strategy) -> str:
    """The same outputs from the library on the eager table."""
    dot, trace = tmp_path / "ref.dot", tmp_path / "ref.trace"
    try:
        model = parse_model(model_text)
        ars = expand(model).ars
        system = ModelSystem(model)
        src = eval_state_predicate(system, source)
        tgt = eval_state_predicate(system, target)
    except ModelError as exc:
        return "\n".join(["2", "", f"error: {exc}\n", "", ""])
    if command == "safety":
        ars, pred = build_safety_query(ars, src, tgt)
    else:
        pred = AprPredicate(src, tgt)
    args = argparse.Namespace(engine="prover", strategy=strategy, max_nodes=1_000_000,
                              source=source, target=target)
    report, verd = cli._run_query(args, command, ars, pred, mode, time.perf_counter())
    cli._emit_proof(ars, verd, str(dot))
    cli._emit_trace(ars, verd, str(trace))
    stdout = re.sub(r'"time_ms": \d+', '"time_ms": -', cli.report_to_json(report) + "\n")
    return "\n".join([str(int(not report.holds)), stdout, "", dot.read_text(), trace.read_text()])


def assert_explores_only_the_region(model_text, command, source, target, mode, strategy):
    """Run the query on a `ModelSystem`, as the CLI does, and check which
    states had their successors computed."""
    system = ModelSystem(parse_model(model_text))
    src = eval_state_predicate(system, source)
    tgt = eval_state_predicate(system, target)
    qsys, pred = build_safety_query(system, src, tgt) if command == "safety" else (
        system, AprPredicate(src, tgt))
    check = check_partial if mode == "partial" else check_total
    verdict = check(qsys, pred, ProverConfig(strategy=SplitStrategy(strategy)))
    if verdict.witness is not None:
        cli.render_witness(qsys, verdict.witness)
    cli.to_dot(qsys, verdict.graph)

    exp = expand(system.model)
    eager, eager_pred = build_safety_query(exp.ars, src, tgt) if command == "safety" else (
        exp.ars, pred)
    assert eager_pred == pred
    allowed = set(src) | set(avoiding_region(eager, pred.source, pred.target))
    assert set(system.explored) <= allowed
    assert set(qsys.explored) <= allowed | set(range(system.n, qsys.n))


def assert_same(tmp_path, model_text, command, source, target, mode=None, strategy="eager"):
    mode = mode or MODES[command]
    want = reference_output(tmp_path, model_text, command, source, target, mode, strategy)
    got = cli_output(tmp_path, model_text, command, source, target, mode, strategy)
    assert got == want
    if want.startswith(("0", "1")):
        assert_explores_only_the_region(model_text, command, source, target, mode, strategy)


def _queries(model_text, predicates):
    """(command, source, target, mode, strategy) over pairs of predicates."""
    for source, target in itertools.permutations(predicates, 2):
        for mode, strategy in itertools.product(("partial", "total"), ("eager", "monolithic")):
            yield "check", source, target, mode, strategy
        for command, strategy in itertools.product(("safety", "liveness"), ("eager", "monolithic")):
            yield command, source, target, None, strategy


FIXED_MODELS = {
    "peterson": (PETERSON_SOURCE, PETERSON_PREDICATES[:4]),
    "counter": (COUNTER_SOURCE, COUNTER_PREDICATES[:4]),
    "swap-int-last": (SWAP_INT_LAST, ["loc(P)=a && f", "x = y || x > 9", "!f"]),
    "no-variables": (NO_VARIABLES, ["loc(P)=a1", "loc(Q)=b1 && loc(P)!=a10", "loc(P)=a10"]),
}


@pytest.mark.parametrize("name", FIXED_MODELS)
def test_test_models_answer_like_the_eager_table(tmp_path, name):
    text, predicates = FIXED_MODELS[name]
    for query in _queries(text, predicates):
        assert_same(tmp_path, text, *query)


def _semaphore_queries(n: int):
    """Safety and liveness of semaphore-n with every choice the benchmark
    makes: racy process r, error pair {r, j} and liveness subject k, j and
    k other than r."""
    start = " && ".join(f"loc(P{m})=idle{m}" for m in range(n)) + " && !lock"
    for racy, r in itertools.product((False, True), range(n)):
        text = semaphore_source(n, r if racy else None)
        for j in (m for m in range(n) if m != r):
            yield text, "safety", start, f"loc(P{r})=crit{r} && loc(P{j})=crit{j}"
            others = " && ".join([f"loc(P{m})!=crit{m}" for m in range(n) if m != j] or ["true"])
            yield text, "liveness", f"loc(P{j})=wait{j} && !lock && {others}", f"loc(P{j})=crit{j}"


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_semaphores_answer_like_the_eager_table(tmp_path, n):
    for text, command, source, target in _semaphore_queries(n):
        assert_same(tmp_path, text, command, source, target)
    # The check command in every mode, once per model variant.
    for text, _, source, target in list(_semaphore_queries(n))[1::2 * (n - 1) * n]:
        for mode, strategy in itertools.product(("partial", "total"), ("eager", "monolithic")):
            assert_same(tmp_path, text, "check", source, target, mode, strategy)


@pytest.mark.parametrize("text", [several_domain_errors(), several_domain_errors("y > 5"),
                                  several_domain_errors(q_edges=(1, 0))],
                         ids=["state", "process", "edge"])
def test_first_domain_error_is_the_eager_one(tmp_path, text):
    for command in FLAGS:
        assert_same(tmp_path, text, command, "y = 0", "y = 1")


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_model_texts(), source=_PREDICATES, target=_PREDICATES,
       query=st.sampled_from([("check", "partial"), ("check", "total"), ("safety", None),
                              ("liveness", None)]),
       strategy=st.sampled_from(["eager", "monolithic"]))
def test_random_models_answer_like_the_eager_table(tmp_path, text, source, target, query, strategy):
    command, mode = query
    assert_same(tmp_path, text, command, source, target, mode, strategy)


def test_system_reads_like_the_eager_table():
    for text in (PETERSON_SOURCE, COUNTER_SOURCE, SWAP_INT_LAST, NO_VARIABLES,
                 semaphore_source(4, 1)):
        model = parse_model(text)
        exp, system = expand(model), ModelSystem(model)
        assert system.n == exp.ars.n
        assert tuple(system.succs) == exp.ars.succs
        assert tuple(system.labels) == exp.ars.labels
        assert [system.is_normal_form(i) for i in range(system.n)] == \
            [exp.ars.is_normal_form(i) for i in range(exp.ars.n)]
        assert [system.id_of(label) for label in exp.ars.labels] == list(range(exp.ars.n))
        assert system.initial == exp.initial
        assert not system.has_label("<" + exp.ars.labels[0]) and not system.has_label("any")
        assert render_ars(exp.ars).startswith("states " + " ".join(system.labels))
        for table in (system.succs, system.labels):
            for i in (-1, system.n):
                with pytest.raises(IndexError, match=f"object id {i} outside"):
                    table[i]


@pytest.mark.parametrize("seed", [1, 2])
def test_models_workload_passes_the_bench_checks(tmp_path, seed):
    """Every op of the benchmark's `models` workload, run through `cli.main`
    and checked as the benchmark checks a pass: the generator's verdicts,
    the oracle on the re-parsed `expand` output, the witnesses, and the
    `expand` counts and initial line."""
    checks = bench_checks()
    plan = bench_workloads().models(tmp_path, seed)
    for path, text in plan.files.items():
        Path(path).write_text(text, encoding="utf-8")
    outcomes = []
    for op in plan.ops:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(op.argv)
        assert err.getvalue() == "", op.name
        outcomes.append(checks.Outcome(0.0, code, out.getvalue()))
    problems = checks.Checker(reachproof).check_pass(plan.ops, outcomes, lambda i: None)
    assert [(op.name, p) for op, p in zip(plan.ops, problems) if p] == []
    assert sum(op.query is None for op in plan.ops) == 7


def test_initial_states_of_the_bench_models_match_expand(tmp_path):
    """Every model the benchmark's `models` workload generates, and
    `peterson`: the system's initial states are those of `expand`."""
    texts = list(bench_workloads().models(tmp_path, 1).files.values())
    assert len(texts) == 6
    for text in texts + [PETERSON_SOURCE]:
        model = parse_model(text)
        assert ModelSystem(model).initial == expand(model).initial, text


def test_initial_states_need_no_expansion():
    """Semaphore-12 has 1,062,882 states, above the default cap, so it
    cannot be expanded; its system reads its initial state off the digits."""
    model = parse_model(semaphore_source(12, None))
    with pytest.raises(StateLimitError):
        expand(model)
    system = ModelSystem(model)
    idle = " && ".join(f"loc(P{m})=idle{m}" for m in range(12)) + " && !lock"
    assert system.initial == eval_state_predicate(system, idle)
    assert len(system.initial) == 1 and not system.explored
