import importlib.util
import random
import sys
from functools import cache
from pathlib import Path
from unittest import mock

import pytest

from reachproof import (
    Ars,
    ModelSystem,
    ProverConfig,
    RuleName,
    SplitStrategy,
    builtin_peterson,
    canon,
    expand,
    is_runnable,
    parse_ars,
    prover,
)

A1_TEXT = """\
# four objects, two of them stuck
states a b c d
trans a b
trans a d
trans b a
trans b c
"""


@pytest.fixture
def a1() -> Ars:
    return parse_ars(A1_TEXT)


@pytest.fixture(scope="session")
def peterson():
    return expand(builtin_peterson())


@pytest.fixture
def peterson_system() -> ModelSystem:
    """The built-in model's system, on which its state predicates are read;
    the ids are those of the `peterson` expansion."""
    return ModelSystem(builtin_peterson())


def random_ars(rng: random.Random, max_states: int = 8) -> Ars:
    """Random system: up to `max_states` objects, 0..2 edges per object."""
    n = rng.randint(1, max_states)
    density = rng.uniform(0.0, 2.0)
    m = int(density * n)
    labels = [f"s{i}" for i in range(n)]
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
    return Ars(labels, edges)


def applicable_rules(ars: Ars, pred) -> list[RuleName]:
    """Evaluate every rule's side condition independently: the reference
    `premises` is compared against."""
    if pred.is_bottom:
        raise ValueError("no rule applies to the bottom predicate")
    p = set(ars.check_members(pred.source))
    q = set(ars.check_members(pred.target))
    rules = []
    if not p:
        rules.append(RuleName.AXIOM)
    if p & q:
        rules.append(RuleName.SUBS)
    if not p & q and is_runnable(ars, pred.source):
        rules.append(RuleName.DER)
    if not p & q and p and not ars._nf.isdisjoint(p):
        rules.append(RuleName.DIS)
    return rules


def strategy_runs():
    """Every strategy's name and config, then auto forced to switch after its
    first ``Der`` node, so that every later ``Der`` result splits pointwise:
    `AUTO_SWEEPS` is patched to 0 while the loop body runs for that one."""
    for strategy in SplitStrategy:
        yield strategy.value, ProverConfig(strategy)
    with mock.patch.object(prover, "AUTO_SWEEPS", 0):
        yield "auto-switched", ProverConfig(SplitStrategy.AUTO)


def rebuilt_with_sink(ars: Ars, label: str, feeders) -> Ars:
    """`ars` plus a sink, rebuilt from scratch out of every label and edge."""
    edges = [(src, dst) for src in range(ars.n) for dst in ars.succs[src]]
    return Ars(ars.labels + (label,), edges + [(s, ars.n) for s in feeders])


def assert_same_system(got: Ars, want: Ars) -> None:
    assert got == want
    assert got.index == want.index
    assert got.normal_forms == want.normal_forms
    assert [got.is_normal_form(i) for i in range(got.n)] == \
        [want.is_normal_form(i) for i in range(want.n)]


def random_subset(rng: random.Random, n: int):
    bias = rng.choice([0.2, 0.5])
    return canon(i for i in range(n) if rng.random() < bias)


def semaphore_source(n: int, racy: int | None) -> str:
    """N processes idle -> wait -> crit -> idle around one lock; process
    `racy` enters without testing the lock."""
    lines = ["var lock: bool = false"]
    for i in range(n):
        guard = "" if i == racy else " when !lock"
        lines += [f"process P{i} {{", f"  loc idle{i} init", f"  loc wait{i}",
                  f"  loc crit{i}", f"  edge idle{i} -> wait{i}",
                  f"  edge wait{i} -> crit{i}{guard} do lock := true",
                  f"  edge crit{i} -> idle{i} do lock := false", "}"]
    return "\n".join(lines) + "\n"


def _bench_module(name: str):
    """`bench/<name>.py`, imported read-only from the checkout as
    `bench_<name>`."""
    path = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name while they are built.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@cache
def bench_workloads():
    """The benchmark's input generators, `bench/workloads.py`."""
    return _bench_module("workloads")


@cache
def bench_checks():
    """The benchmark's output checks, `bench/checks.py`.  Its `import
    workloads` is given the generators of `bench_workloads`."""
    sys.modules["workloads"] = bench_workloads()
    try:
        return _bench_module("checks")
    finally:
        del sys.modules["workloads"]
