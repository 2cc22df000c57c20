"""The DOT, trace and witness writers against per-label references.

The writers gather the labels of a whole set in one call.  `itemgetter`
with a single id returns the label itself, not a 1-tuple, so a writer that
joined its result would put commas between the label's characters; the
labels here are several characters long so that such a slip shows.  The
references below render one label at a time.  The scale goldens pin the
bytes of the writers on large proofs of the benchmark's generators.
"""

import hashlib
import io
import tracemalloc
import types
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from reachproof import (
    AprPredicate,
    Ars,
    ModelSystem,
    check_total,
    eval_state_predicate,
    parse_model,
    predicate,
)
from reachproof import cli
from reachproof.ars import ExecutionPath, SinkSystem
from reachproof.proofs import (
    BOTTOM,
    DerivationTree,
    PreProof,
    ProofGraph,
    RuleName,
    predicate_formatter,
    to_dot,
)
from reachproof.prover import FinitePath, Lasso

from conftest import bench_workloads, semaphore_source


def ref_format(ars, pred):
    if pred.is_bottom:
        return "BOT"
    return ("{" + ",".join([ars.labels[i] for i in pred.source]) + "} => {"
            + ",".join([ars.labels[i] for i in pred.target]) + "}")


def ref_dot(ars, g):
    order = {v: i for i, v in enumerate(g.vertices)}
    lines = ["digraph proof {"]
    for v in g.vertices:
        pred = g.predicates[v]
        if pred.is_bottom:
            lines.append(f'  n{order[v]} [label="BOT", shape=doublecircle];')
        else:
            lines.append(f'  n{order[v]} [label="{ref_format(ars, pred)}"];')
    for a, b in g.edges:
        lines.append(f'  n{order[a]} -> n{order[b]} [label="{g.rules[a].value}"];')
    return "\n".join(lines + ["}"]) + "\n"


def ref_trace(ars, pp):
    t, out = pp.tree, []

    def walk(v, depth):
        indent = "  " * depth
        if v in pp.xi:
            out.append(f"{indent}bud {ref_format(ars, t.preds[v])} -> node {pp.xi[v]}\n")
            return
        if v in t.rules:
            rule = t.rules[v].value
        else:
            rule = "closed" if t.preds[v].is_bottom else "open"
        out.append(f"{indent}{rule} [{v}] {ref_format(ars, t.preds[v])}\n")
        for c in t.children.get(v, ()):
            walk(c, depth + 1)
    walk(t.root, 0)
    return "".join(out)


def ref_witness(ars, w):
    if isinstance(w, FinitePath):
        return " -> ".join([ars.labels[i] for i in w.path.steps])
    loop = [ars.labels[i] for i in w.cycle] + [ars.labels[w.cycle[0]]]
    return " -> ".join([ars.labels[i] for i in w.stem] + loop[:1]) + \
        " -> (" + " -> ".join(loop[1:]) + ")*"


def written_trace(tmp_path, ars, pp):
    path = tmp_path / "t.trace"
    cli._emit_trace(ars, types.SimpleNamespace(pre_proof=pp), str(path))
    return path.read_text(encoding="utf-8")


def model_system():
    return ModelSystem(parse_model(semaphore_source(3, 1)))


def systems():
    """An `Ars`, a `ModelSystem` (labels computed on first read) and a
    `SinkSystem` over it, all with labels of several characters."""
    names = [f"st{i:02d}" for i in range(12)]
    ars = Ars(names, [(i, i + 1) for i in range(11)] + [(0, 5), (3, 0), (7, 2)])
    model = model_system()
    sink = model.with_sink("err_sink", range(0, model.n, 5))
    assert isinstance(sink, SinkSystem)
    return {"ars": ars, "model": model, "sink": sink}


def sized_sets(n):
    """Sets of 0, 1, 2 and many ids of a system of `n` objects."""
    return [(), (n - 1,), (0, n - 1), tuple(range(1, n, 2))]


def hand_proof(n):
    """A pre-proof whose goals have sources and targets of 0, 1, 2 and many
    states, a bottom node, a bud and an open leaf; shape only, not valid."""
    none, one, two, many = sized_sets(n)
    preds = [AprPredicate(many, two), AprPredicate(two, one), AprPredicate(one, none),
             AprPredicate(none, many), BOTTOM, AprPredicate(many, two), AprPredicate(one, one)]
    rules = {0: RuleName.DER, 1: RuleName.SUBS, 2: RuleName.DIS, 3: RuleName.AXIOM}
    children = {0: (1, 2, 5), 1: (3, 6), 2: (4,), 3: ()}
    return PreProof(DerivationTree(preds, rules, children), {5: 0})


@pytest.mark.parametrize("kind", ["ars", "model", "sink"])
def test_formatter_matches_per_label_reference(kind):
    ars = systems()[kind]
    fmt = predicate_formatter(ars)
    sets = sized_sets(ars.n)
    goals = [AprPredicate(p, q) for q in sets for p in sets] + [BOTTOM]
    assert [fmt(g) for g in goals] == [ref_format(ars, g) for g in goals]
    assert [predicate_formatter(ars)(g) for g in goals] == [ref_format(ars, g) for g in goals]


@pytest.mark.parametrize("kind", ["ars", "model", "sink"])
def test_dot_and_trace_match_per_label_reference(tmp_path, kind):
    ars = systems()[kind]
    pp = hand_proof(ars.n)
    g = ProofGraph(pp)
    assert to_dot(ars, g) == ref_dot(ars, g)
    assert written_trace(tmp_path, ars, pp) == ref_trace(ars, pp)


@pytest.mark.parametrize("kind", ["ars", "model", "sink"])
def test_proofs_and_witnesses_match_per_label_reference(tmp_path, kind):
    ars = systems()[kind]
    n = ars.n
    goals = [predicate((0,), (n - 1,)), predicate((0, 1), (2, 3)),
             predicate(range(1, n, 3), (n - 1,)), predicate((), (0,))]
    for pred in goals:
        verdict = check_total(ars, pred)
        assert to_dot(ars, verdict.graph) == ref_dot(ars, verdict.graph)
        assert written_trace(tmp_path, ars, verdict.pre_proof) == ref_trace(ars, verdict.pre_proof)
        if verdict.witness is not None:
            assert cli.render_witness(ars, verdict.witness) == ref_witness(ars, verdict.witness)


def test_witnesses_of_one_state():
    ars = systems()["ars"]
    path, lasso = FinitePath(ExecutionPath((11,))), Lasso((), (4,))
    assert cli.render_witness(ars, path) == ref_witness(ars, path) == "st11"
    assert cli.render_witness(ars, lasso) == ref_witness(ars, lasso) == "st04 -> (st04)*"


def test_model_lazy_labels_are_only_read():
    """Rendering reads labels of the states it names and no other."""
    system = model_system()
    src = eval_state_predicate(system, "loc(P0)=wait0 && !lock")
    fmt = predicate_formatter(system)
    text = fmt(AprPredicate(src, ()))
    assert text == ref_format(system, AprPredicate(src, ()))
    assert set(dict.keys(system.labels)) == set(src)


def _run_op(tmp_path, generator, name, *extra):
    """Write the input of one benchmark operation (seed 1) and run it, with
    `extra` flags appended."""
    plan = generator(tmp_path, 1)
    op = next(op for op in plan.ops if op.name == name)
    for path, text in plan.files.items():
        if path in op.argv:
            Path(path).write_text(text, encoding="utf-8")
    with redirect_stdout(io.StringIO()):
        cli.main(op.argv + list(extra))
    return op


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_scale_golden_far_chain_export(tmp_path):
    """DOT and trace of a far `chains` goal, whose proof graph is cyclic:
    under the default, auto, which splits pointwise part way down (2,816
    nodes, 186 buds), and under eager, the default when the second pair
    was recorded (2,721 nodes, a bud)."""
    for extra, dot, trace in (
            ((), "0833ccb79dfdf1ab8bd5ee6043ee0c2f5c860903cf8eba63a390a3e3da2cb13b",
             "ce4ca8adcb92a80ef133dd88b17489d1682d2189a33419c7ae6dba64e841a40f"),
            (("--strategy", "eager"),
             "abf7504007590fe7fbef0cffafa107bf9c2eb851076dc29ef74049cf568f343b",
             "29671ca5de4169cfa1bb0ff996e8db5c7ba94f5c083115669d1f564d0c504ba9")):
        op = _run_op(tmp_path, bench_workloads().chains, "lasso-far-export", *extra)
        assert (_sha256(op.dot), _sha256(op.trace)) == (dot, trace), extra


def test_scale_golden_semaphore_liveness_dot(tmp_path):
    """DOT of a racy semaphore-6 liveness proof over sets of model states."""
    op = _run_op(tmp_path, bench_workloads().models, "sem6-racy-liveness-dot")
    assert _sha256(op.dot) == "760803106d6ba73d875d779ad389e3674d0b5f131d3e0f2f129d69df5a4cac68"


@pytest.mark.parametrize("name, writer", [("sem7-racy-liveness-dot", "to_dot"),
                                          ("sem7-racy-expand", "render_ars")])
def test_model_artifacts_are_written_as_they_are_rendered(tmp_path, monkeypatch, name, writer):
    """`cli.main` streams a multi-MB DOT or `expand` file: while the writer
    runs, the traced heap grows by less than a quarter of the file's size.
    The writer's string form is the file's text."""
    render = getattr(cli, writer)
    calls = []

    def measured(*args):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = render(*args)
        calls.append((args, tracemalloc.get_traced_memory()[1] - start))
        return result

    monkeypatch.setattr(cli, writer, measured)
    tracemalloc.start()
    try:
        op = _run_op(tmp_path, bench_workloads().models, name)
    finally:
        tracemalloc.stop()
    text = Path(op.dot or op.out).read_text(encoding="utf-8")
    assert len(text) > 2_000_000
    [(args, grown)] = calls
    assert grown < len(text) / 4
    tail = "" if writer == "to_dot" else text[text.rindex("# initial: "):]
    assert render(*args[:-1]) + tail == text


def test_expand_writes_the_same_bytes_to_stdout_and_out(tmp_path):
    op = _run_op(tmp_path, bench_workloads().models, "sem7-racy-expand")
    written = Path(op.out).read_bytes()
    assert written.endswith(("\n# initial: " + ",".join(op.initial) + "\n").encode())
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        assert cli.main(op.argv[:op.argv.index("--out")]) == 0
    assert stdout.getvalue().encode() == written
