"""The benchmark's tracer wraps reachproof functions at the module globals
where their callers look them up; every one of them must exist, and the
calls must go through them."""

import importlib.util
import types
from pathlib import Path

import reachproof
from reachproof import (
    ModelSystem,
    ars,
    build_safety_query,
    cli,
    eval_state_predicate,
    expand,
    modeling,
    oracle,
    parse_model,
    predicate,
    prover,
)

from conftest import A1_TEXT, semaphore_source

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
RP = types.SimpleNamespace(ars=ars, cli=cli, modeling=modeling, oracle=oracle,
                           prover=prover, reachproof=reachproof)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_is_a_callable_module_global():
    targets = _load_tracing()._targets(RP, None)
    assert targets
    for module, attr, _, _ in targets:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    # The oracle's region size is read through reachproof.ars.avoiding_region.
    assert callable(RP.ars.avoiding_region)


def test_traced_calls_are_looked_up_at_call_time(tmp_path, capsys):
    system = str(tmp_path / "a1.ars")
    Path(system).write_text(A1_TEXT)
    model = str(tmp_path / "sem4.model")
    Path(model).write_text(semaphore_source(4, 1))
    tracer = _load_tracing().Tracer(RP)
    tracer.install()
    try:
        cli.main(["check", "--ars", system, "--source", "a", "--target", "c,d", "--mode", "total"])
        cli.main(["safety", "--ars", system, "--from", "a", "--error", "d"])
        oracle.oracle_total(ars.parse_ars(A1_TEXT), predicate((0,), (2, 3)))
        tracer.qid = 1
        cli.main(["safety", "--model", model, "--from", "loc(P0)=idle0 && !lock",
                  "--error", "loc(P1)=crit1 && loc(P2)=crit2", "--json"])
        tracer.qid = 2
        cli.main(["liveness", "--model", model, "--from", "loc(P2)=wait2 && !lock",
                  "--goal", "loc(P2)=crit2", "--json"])
        tracer.qid = 3
        cli.main(["expand", "--model", model])
        tracer.settle()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert set(tracer.names) >= {
        "ars.parse", "reductions.safety_query", "prover.check", "prover.prove.auto",
        "proofs.premises", "proofs.graph", "proofs.acyclic", "prover.witness", "oracle.decide",
        "modeling.parse", "modeling.eval_pred", "modeling.expand", "ars.render"}
    # The size reader counts the sink edges of the safety query by
    # iterating the successor tuples of the on-the-fly systems; it must
    # count what the eager tables hold.
    model = parse_model(semaphore_source(4, 1))
    exp = expand(model)
    errors = eval_state_predicate(ModelSystem(model), "loc(P1)=crit1 && loc(P2)=crit2")
    safety, _ = build_safety_query(exp.ars, (), errors)
    extra = sum(map(len, safety.succs)) - sum(map(len, exp.ars.succs))
    assert tracer.sizes[1]["reductions.extra_edges"] == extra
    assert tracer.sizes[2]["prover.nodes"] > 0
    assert tracer.sizes[3]["modeling.states"] == exp.ars.n == 162
