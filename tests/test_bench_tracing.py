"""The benchmark's tracer wraps reachproof functions at the module globals
where their callers look them up; every one of them must exist, and the
calls must go through them."""

import importlib.util
import types
from pathlib import Path

import reachproof
from reachproof import ars, cli, modeling, oracle, predicate, prover

from conftest import A1_TEXT

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
    tracer = _load_tracing().Tracer(RP)
    tracer.install()
    try:
        cli.main(["check", "--ars", system, "--source", "a", "--target", "c,d", "--mode", "total"])
        cli.main(["safety", "--ars", system, "--from", "a", "--error", "d"])
        oracle.oracle_total(ars.parse_ars(A1_TEXT), predicate((0,), (2, 3)))
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert set(tracer.names) >= {
        "ars.parse", "reductions.safety_query", "prover.check", "prover.prove.eager",
        "proofs.premises", "proofs.graph", "proofs.acyclic", "prover.witness", "oracle.decide"}
