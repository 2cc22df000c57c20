import hashlib
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reachproof import ProverConfig, SplitStrategy, cli
from reachproof.cli import main, report_from_json, report_to_json

from conftest import A1_TEXT, semaphore_source


@pytest.fixture
def a1_file(tmp_path):
    path = tmp_path / "a1.ars"
    path.write_text(A1_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_partial_valid_exit_zero(self, capsys, a1_file):
        code, out, _ = run(capsys, "check", "--ars", a1_file,
                           "--source", "a", "--target", "c,d", "--mode", "partial")
        assert code == 0
        assert "verdict: PartiallyValid" in out

    def test_total_invalid_prints_lasso(self, capsys, a1_file):
        code, out, _ = run(capsys, "check", "--ars", a1_file,
                           "--source", "a", "--target", "c,d", "--mode", "total")
        assert code == 1
        assert "witness: a -> (b -> a)*" in out

    def test_partial_invalid_prints_path(self, capsys, a1_file):
        code, out, _ = run(capsys, "check", "--ars", a1_file,
                           "--source", "a", "--target", "c", "--mode", "partial")
        assert code == 1
        assert "witness: a -> d" in out

    def test_from_goal_aliases(self, capsys, a1_file):
        code, out, _ = run(capsys, "check", "--ars", a1_file,
                           "--from", "a", "--goal", "c,d")
        assert code == 0

    def test_unknown_label_is_usage_error(self, capsys, a1_file):
        code, _, err = run(capsys, "check", "--ars", a1_file,
                           "--source", "zz", "--target", "c")
        assert code == 2
        assert "unknown object label" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", "--ars", str(tmp_path / "nope.ars"),
                           "--source", "a", "--target", "b")
        assert code == 2

    def test_requires_one_input(self, capsys, a1_file):
        code, _, err = run(capsys, "check", "--ars", a1_file, "--builtin", "peterson",
                           "--source", "a", "--target", "b")
        assert code == 2
        assert "exactly one" in err

    @pytest.mark.parametrize("command", [["check", "--source", "x", "--target", "y"], ["expand"]])
    def test_unknown_builtin_is_usage_error(self, capsys, command):
        code, out, err = run(capsys, *command, "--builtin", "nope")
        assert (code, out) == (2, "")
        assert err == "error: unknown builtin 'nope' (available: peterson)\n"

    def test_bad_flag_combination(self, capsys):
        code, _, _ = run(capsys, "check", "--mode", "sideways")
        assert code == 2

    @pytest.mark.parametrize("flag", ["--max-nodes", "--max-states"])
    @pytest.mark.parametrize("value", ["0", "-3", "many"])
    def test_caps_must_be_positive(self, capsys, a1_file, flag, value):
        code, _, err = run(capsys, "check", "--ars", a1_file, flag, value,
                           "--source", "a", "--target", "c,d")
        assert code == 2
        assert "expected a positive integer" in err

    @pytest.mark.parametrize("flag", ["--ars", "--model"])
    def test_non_utf8_input_is_usage_error(self, capsys, tmp_path, flag):
        path = tmp_path / "latin1.txt"
        path.write_bytes("states a b\ntrans a b  # \xe9\n".encode("latin-1"))
        code, out, err = run(capsys, "check", flag, str(path), "--source", "a", "--target", "b")
        assert (code, out) == (2, "")
        assert "not UTF-8 text" in err

    def test_internal_value_error_is_not_hidden(self, monkeypatch, a1_file):
        def broken(*args, **kwargs):
            raise ValueError("internal fault")
        monkeypatch.setattr(cli, "check_partial", broken)
        with pytest.raises(ValueError, match="internal fault"):
            main(["check", "--ars", a1_file, "--source", "a", "--target", "c,d"])

    def test_over_long_integer_literal_is_model_error(self, capsys, tmp_path):
        path = tmp_path / "big.model"
        path.write_text(f"var x: int[0..{'9' * 5000}] = 0\n"
                        "process P {\n  loc a init\n  edge a -> a\n}\n")
        code, _, err = run(capsys, "check", "--model", str(path),
                           "--source", "x=0", "--target", "x=1")
        assert code == 2
        assert "too long" in err

    def test_node_budget_exhaustion_is_an_error(self, capsys, a1_file):
        code, _, err = run(capsys, "check", "--ars", a1_file, "--max-nodes", "2",
                           "--source", "a", "--target", "c,d")
        assert code == 2
        assert "node budget" in err
        assert err == ("error: node budget 2 exceeded: 2 nodes made, 1 goals open, "
                       "largest source set 2 states\n")

    # From {r}: a Der node {a,b} whose eager split is ({r}, {c,d,e}); {r}
    # closes as a bud and {c,d,e} gets Dis, whose child is bottom.  A cap of
    # 3 falls between the split's children, a cap of 4 on the bottom child:
    # the message counts only the nodes made before the cap.
    @pytest.mark.parametrize("cap, err", [
        (3, "3 nodes made, 2 goals open, largest source set 2 states"),
        (4, "4 nodes made, 1 goals open, largest source set 3 states"),
    ])
    def test_node_budget_message_counts_the_nodes_made(self, capsys, tmp_path, cap, err):
        path = tmp_path / "split.ars"
        path.write_text("states r a b c d e z\ntrans r a\ntrans r b\ntrans a r\ntrans a c\n"
                        "trans b r\ntrans b d\ntrans b e\n")
        code, out, got = run(capsys, "check", "--ars", str(path), "--max-nodes", str(cap),
                             "--source", "r", "--target", "z")
        assert (code, out) == (2, "")
        assert got == f"error: node budget {cap} exceeded: {err}\n"

    def test_wide_domain_hits_the_state_cap(self, capsys, tmp_path):
        path = tmp_path / "wide.model"
        path.write_text("var x: int[0..1000000000000] = 0\n"
                        "process P {\n  loc a init\n  edge a -> a do x := 1\n}\n")
        code, out, err = run(capsys, "expand", "--model", str(path))
        assert (code, out) == (2, "")
        assert err == "error: state space of 1000000000001 states exceeds cap 1000000\n"

    # An ill-typed assignment is reported first, then the state cap, then
    # an assignment that leaves its domain in some state.
    @pytest.mark.parametrize("domain, assign, cap, err", [
        ("0..1000000000000", "x := true", "1000000", "assignment x := True needs an integer"),
        ("0..20", "x := true", "10", "assignment x := True needs an integer"),
        ("0..20", "x := 21", "10", "assignment x := 21 leaves int[0..20]"),
        ("0..20", "y := x", "10", "state space of 84 states exceeds cap 10"),
        ("0..20", "y := x", "84", "assignment y := 10 leaves its domain (edge a -> a of P)"),
    ])
    def test_expand_error_order(self, capsys, tmp_path, domain, assign, cap, err):
        path = tmp_path / "wide.model"
        path.write_text(f"var x: int[{domain}] = 0\nvar y: int[0..3] = 0\n"
                        f"process P {{\n  loc a init\n  edge a -> a do {assign}\n}}\n")
        code, out, got = run(capsys, "expand", "--model", str(path), "--max-states", cap)
        assert (code, out) == (2, "")
        assert got == f"error: {err}\n"

    def test_wide_domain_stops_a_query_at_once(self, capsys, tmp_path):
        path = tmp_path / "wide.model"
        path.write_text("var x: int[0..1000000000000] = 0\n"
                        "process P {\n  loc a init\n  edge a -> a do x := 1\n}\n")
        code, out, err = run(capsys, "safety", "--model", str(path),
                             "--from", "x = 0", "--error", "x = 1")
        assert (code, out) == (2, "")
        assert err == "error: 1000000000001 valuations of the variables exceed cap 1000000\n"

    def test_query_past_the_product_cap(self, capsys, tmp_path):
        # 3^12 * 2 = 1,062,882 states, more than the default cap: a query
        # explores only the states it reaches.
        path = tmp_path / "sem12.model"
        path.write_text(semaphore_source(12, None))
        idle = " && ".join(f"loc(P{m})=idle{m}" for m in range(12)) + " && !lock"
        code, out, _ = run(capsys, "safety", "--model", str(path), "--from", idle,
                           "--error", "loc(P0)=crit0 && loc(P5)=crit5")
        assert code == 0
        assert out.startswith("safe: no error state reachable\nverdict: PartiallyValid\n")

    def test_query_exploring_past_the_cap(self, capsys, tmp_path):
        # Semaphore-8 reaches 1,280 of its 13,122 states.
        path = tmp_path / "sem8.model"
        path.write_text(semaphore_source(8, None))
        idle = " && ".join(f"loc(P{m})=idle{m}" for m in range(8)) + " && !lock"
        crit = " && ".join(f"loc(P{m})=crit{m}" for m in range(8))
        code, out, err = run(capsys, "safety", "--model", str(path), "--from", idle,
                             "--error", crit, "--max-states", "500", "--json")
        assert (code, out) == (2, "")
        assert err == "error: query explored 500 states, reaching cap 500\n"

    @pytest.mark.parametrize("source", ["(" * 400 + "b0" + ")" * 400, "!" * 1200 + "b0"],
                             ids=["parentheses", "negations"])
    def test_deep_predicate_is_a_syntax_error(self, capsys, source):
        code, out, err = run(capsys, "check", "--builtin", "peterson",
                             "--source", source, "--target", "b1")
        assert (code, out) == (2, "")
        assert err == "error: line 1, column 101: expression nested deeper than 100 levels\n"

    def test_deep_guard_is_a_syntax_error(self, capsys, tmp_path):
        path = tmp_path / "deep.model"
        path.write_text("var b: bool = false\nprocess P {\n  loc a init\n"
                        f"  edge a -> a when {'!' * 1200}b\n}}\n")
        code, out, err = run(capsys, "expand", "--model", str(path))
        assert (code, out) == (2, "")
        assert err == "error: line 4, column 120: expression nested deeper than 100 levels\n"

    def test_deep_model_ends_in_a_verdict(self, capsys, tmp_path):
        # One location digit per process, 600 of them: every walk over the
        # processes or the digits must be a loop, or this query ends in a
        # RecursionError traceback and exit status 1, which reads "unsafe".
        n = 600
        model = tmp_path / "deep.model"
        model.write_text("var f: bool = false\n" + "".join(
            f"process P{i} {{\n  loc a{i} init\n  loc b{i}\n"
            f"  edge a{i} -> b{i} when !f do f := true\n}}\n" for i in range(n)))
        start = " && ".join(f"loc(P{i})=a{i}" for i in range(n)) + " && !f"
        error = " && ".join(f"loc(P{i})={'b' if i < 2 else 'a'}{i}" for i in range(n))
        code, out, err = run(capsys, "safety", "--model", str(model),
                             "--from", start, "--error", error)
        assert (code, err) == (0, "")
        assert out.startswith("safe: no error state reachable\nverdict: PartiallyValid\n")

    def test_long_conjunction_decides_like_its_atom(self, capsys):
        outputs = []
        for source in (" && ".join(["b0"] * 1200), "b0"):
            code, out, _ = run(capsys, "liveness", "--builtin", "peterson",
                               "--from", source, "--goal", "loc(P0)=crit0 || b1")
            outputs.append((code, re.sub(r"time: \d+ ms", "", out)))
        assert outputs[0] == outputs[1]


class TestEngines:
    CASES = [
        ("a", "c,d", "partial"),
        ("a", "c,d", "total"),
        ("a", "c", "partial"),
        ("a", "c", "total"),
        ("b", "a", "partial"),
        ("d", "", "partial"),
        ("", "a", "partial"),
        ("a,b", "c,d", "total"),
    ]

    @pytest.mark.parametrize("source,target,mode", CASES)
    def test_oracle_and_prover_verdicts_agree(self, capsys, a1_file, source, target, mode):
        results = {}
        for engine in ("prover", "oracle"):
            code, out, _ = run(capsys, "check", "--ars", a1_file, "--engine", engine,
                               "--source", source, "--target", target, "--mode", mode)
            verdict = [l for l in out.splitlines() if l.startswith("verdict:")][0]
            results[engine] = (code, verdict)
        assert results["prover"] == results["oracle"]

    def test_strategies_agree_on_verdict(self, capsys, a1_file):
        for source, target, mode in self.CASES:
            verdicts = set()
            for strategy in ("eager", "monolithic"):
                code, out, _ = run(capsys, "check", "--ars", a1_file,
                                   "--strategy", strategy, "--source", source,
                                   "--target", target, "--mode", mode)
                verdicts.add((code, out.splitlines()[0]))
            assert len(verdicts) == 1


class TestJsonReport:
    def test_round_trip(self, capsys, a1_file):
        code, out, _ = run(capsys, "check", "--ars", a1_file, "--json",
                           "--source", "a", "--target", "c,d", "--mode", "total")
        report = report_from_json(out)
        assert report.verdict == "NotTotallyValid"
        assert report.holds is False
        assert report.witness == "a -> (b -> a)*"
        assert report_from_json(report_to_json(report)) == report

    def test_stats_fields(self, capsys, a1_file):
        _, out, _ = run(capsys, "check", "--ars", a1_file, "--json",
                        "--source", "a", "--target", "c,d")
        data = json.loads(out)
        assert data["stats"]["nodes"] == 6
        assert data["stats"]["graph_vertices"] == 5
        assert data["stats"]["graph_edges"] == 5
        assert data["stats"]["graph_acyclic"] is False

    def test_oracle_engine_has_no_stats(self, capsys, a1_file):
        _, out, _ = run(capsys, "check", "--ars", a1_file, "--json", "--engine", "oracle",
                        "--source", "a", "--target", "c,d")
        data = json.loads(out)
        assert data["stats"] is None
        assert data["strategy"] is None


class TestSafetyLiveness:
    def test_peterson_race_freedom(self, capsys):
        code, out, _ = run(capsys, "safety", "--builtin", "peterson",
                           "--from", "loc(P0)=noncrit0 && loc(P1)=noncrit1 && b0=false && b1=false",
                           "--error", "loc(P0)=crit0 && loc(P1)=crit1")
        assert code == 0
        assert out.startswith("safe")

    def test_peterson_starvation_freedom(self, capsys, tmp_path):
        dot = tmp_path / "proof.dot"
        code, out, _ = run(capsys, "liveness", "--builtin", "peterson",
                           "--from", "loc(P0)=wait0 && b0=true",
                           "--goal", "loc(P0)=crit0", "--emit-proof", str(dot))
        assert code == 0
        assert out.startswith("live")
        assert "verdict: TotallyValid" in out
        assert dot.read_text().startswith("digraph proof {")

    def test_liveness_failure_prints_lasso(self, capsys, a1_file):
        code, out, _ = run(capsys, "liveness", "--ars", a1_file,
                           "--from", "a", "--goal", "c,d")
        assert code == 1
        assert "a -> (b -> a)*" in out

    def test_unsafe_reports_witness(self, capsys, a1_file):
        code, out, _ = run(capsys, "safety", "--ars", a1_file,
                           "--from", "a", "--error", "d")
        assert code == 1
        assert out.startswith("unsafe")
        assert "witness: a -> d" in out


class TestExpandExport:
    def test_expand_round_trips_through_check(self, capsys, tmp_path):
        out_path = tmp_path / "peterson.ars"
        code, _, _ = run(capsys, "expand", "--builtin", "peterson", "--out", str(out_path))
        assert code == 0
        # No normal form is reachable from the initial states, so the
        # empty-target query holds on the expanded file as well.
        initials = "<noncrit0,noncrit1,false,false,0>,<noncrit0,noncrit1,false,false,1>"
        for engine in ("prover", "oracle"):
            code, out, _ = run(capsys, "check", "--ars", str(out_path),
                               "--source", initials, "--target", "",
                               "--mode", "partial", "--engine", engine)
            assert code == 0
            assert "verdict: PartiallyValid" in out

    def test_export_writes_deterministic_artifacts(self, capsys, a1_file, tmp_path):
        outs = []
        for name in ("one.dot", "two.dot"):
            path = tmp_path / name
            trace = tmp_path / (name + ".trace")
            code, _, _ = run(capsys, "export", "--ars", a1_file,
                             "--source", "a", "--target", "c,d", "--mode", "partial",
                             "--emit-proof", str(path), "--emit-trace", str(trace))
            assert code == 0
            outs.append(path.read_bytes())
            assert "bud {a} => {c,d} -> node 0" in trace.read_text()
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("strategy, source, target, expected", [
        ("eager", "a", "c,d",
         "Der [0] {a} => {c,d}\n"
         "  Subs [1] {b,d} => {c,d}\n"
         "    Der [2] {b} => {c,d}\n"
         "      bud {a} => {c,d} -> node 0\n"
         "      Subs [4] {c} => {c,d}\n"
         "        Axiom [5] {} => {c,d}\n"),
        ("monolithic", "a", "c",
         "Der [0] {a} => {c}\n"
         "  Dis [1] {b,d} => {c}\n"
         "    closed [2] BOT\n"),
    ])
    def test_trace_text(self, capsys, a1_file, tmp_path, strategy, source, target, expected):
        trace = tmp_path / "proof.trace"
        run(capsys, "export", "--ars", a1_file, "--source", source, "--target", target,
            "--strategy", strategy, "--emit-trace", str(trace))
        assert trace.read_text() == expected

    def test_trace_of_a_deep_proof(self, capsys, tmp_path):
        # The proof tree is one level per chain state, deeper than the
        # interpreter's recursion limit.
        n = 3000
        system = tmp_path / "chain.ars"
        system.write_text("states " + " ".join(f"c{i}" for i in range(n)) + "\n"
                          + "".join(f"trans c{i} c{i + 1}\n" for i in range(n - 1)))
        trace = tmp_path / "chain.trace"
        code, out, err = run(capsys, "export", "--ars", str(system), "--source", "c0",
                             "--target", f"c{n - 1}", "--mode", "total", "--json",
                             "--emit-proof", str(tmp_path / "chain.dot"),
                             "--emit-trace", str(trace))
        assert (code, err) == (0, "")
        nodes = json.loads(out)["stats"]["nodes"]
        assert nodes > n
        assert len(trace.read_text().splitlines()) == nodes

    def test_expand_takes_no_ars_input(self, capsys, tmp_path):
        code, out, err = run(capsys, "expand", "--ars", str(tmp_path / "missing.ars"),
                             "--builtin", "peterson")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --ars" in err
        code, out, _ = run(capsys, "expand", "--help")
        assert code == 0
        assert "--builtin" in out and "--ars" not in out
        for flags in ([], ["--model", str(tmp_path / "m.model"), "--builtin", "peterson"]):
            code, out, err = run(capsys, "expand", *flags)
            assert (code, out, err) == (2, "", "error: expand needs exactly one of --model, "
                                                "--builtin\n")

    def test_export_needs_an_artifact_path(self, capsys, a1_file):
        code, _, err = run(capsys, "export", "--ars", a1_file,
                           "--source", "a", "--target", "c,d")
        assert code == 2

    def test_emit_proof_rejected_for_oracle(self, capsys, a1_file, tmp_path):
        code, out, err = run(capsys, "check", "--ars", a1_file, "--engine", "oracle",
                             "--source", "a", "--target", "c,d",
                             "--emit-proof", str(tmp_path / "x.dot"))
        assert code == 2
        assert "prover engine" in err
        assert out == ""
        # Rejected before any input is read: no verdict, no artifact, and
        # a missing input file is never opened.
        for argv, flag in [
            (["check", "--ars", a1_file, "--source", "a", "--target", "c,d",
              "--emit-trace", str(tmp_path / "x.txt")], "--emit-trace"),
            (["safety", "--builtin", "peterson", "--from", PETERSON_FROM,
              "--error", PETERSON_ERROR, "--emit-proof", str(tmp_path / "x.dot")],
             "--emit-proof"),
            (["liveness", "--ars", str(tmp_path / "missing.ars"), "--from", "a",
              "--goal", "c", "--emit-trace", str(tmp_path / "x.txt")], "--emit-trace"),
        ]:
            code, out, err = run(capsys, *argv, "--engine", "oracle")
            assert (code, out, err) == (2, "", f"error: {flag} requires the prover engine\n")
        assert list(tmp_path.glob("x.*")) == []

    def test_unwritable_emit_path(self, capsys, a1_file, tmp_path):
        code, out, _ = run(capsys, "check", "--ars", a1_file,
                           "--source", "a", "--target", "c,d",
                           "--emit-proof", str(tmp_path / "no" / "dir" / "x.dot"))
        assert code == 2
        assert out == ""
        for flag in ("--emit-proof", "--emit-trace"):
            for json_flag in ([], ["--json"]):
                code, out, err = run(capsys, "safety", "--builtin", "peterson",
                                     "--from", PETERSON_FROM, "--error", PETERSON_ERROR,
                                     flag, str(tmp_path / "no" / "dir" / "x"), *json_flag)
                assert (code, out) == (2, "")
                assert err.startswith("error: ")


PETERSON_FROM = "loc(P0)=noncrit0 && loc(P1)=noncrit1 && b0=false && b1=false"
PETERSON_ERROR = "loc(P0)=crit0 && loc(P1)=crit1"
# (name, argv) of every query subcommand, in text and --json form; "{a1}"
# stands for the path of the worked four-object system.
GOLDEN_QUERIES = [
    ("check-partial", ["check", "--ars", "{a1}", "--source", "a", "--target", "c,d"]),
    ("check-total", ["check", "--ars", "{a1}", "--source", "a", "--target", "c,d",
                     "--mode", "total"]),
    ("check-disproof", ["check", "--ars", "{a1}", "--source", "a", "--target", "c",
                        "--strategy", "monolithic"]),
    ("check-oracle", ["check", "--ars", "{a1}", "--source", "a,b", "--target", "c,d",
                      "--mode", "total", "--engine", "oracle"]),
    ("safety-unsafe", ["safety", "--ars", "{a1}", "--from", "a", "--error", "d"]),
    ("safety-safe", ["safety", "--ars", "{a1}", "--source", "c", "--error", "d"]),
    ("safety-oracle", ["safety", "--ars", "{a1}", "--from", "a", "--error", "d",
                       "--engine", "oracle"]),
    ("safety-peterson", ["safety", "--builtin", "peterson", "--from", PETERSON_FROM,
                         "--error", "loc(P0)=crit0 && loc(P1)=crit1"]),
    ("liveness-lasso", ["liveness", "--ars", "{a1}", "--from", "a", "--goal", "c,d"]),
    ("liveness-path", ["liveness", "--ars", "{a1}", "--from", "a", "--target", "c",
                       "--strategy", "monolithic"]),
    ("liveness-live", ["liveness", "--ars", "{a1}", "--from", "b", "--goal", "a,c"]),
    ("liveness-oracle", ["liveness", "--ars", "{a1}", "--from", "a", "--goal", "c,d",
                         "--engine", "oracle"]),
    ("liveness-peterson", ["liveness", "--builtin", "peterson",
                           "--from", "loc(P0)=wait0 && b0=true", "--goal", "loc(P0)=crit0"]),
    ("export", ["export", "--ars", "{a1}", "--source", "a", "--target", "c,d",
                "--mode", "total", "--emit-proof", "{dot}", "--emit-trace", "{trace}"]),
]


def _query_paths(tmp_path, a1_file) -> dict[str, str]:
    return {"a1": a1_file, "dot": str(tmp_path / "q.dot"), "trace": str(tmp_path / "q.trace")}


def _query_output(capsys, tmp_path, a1_file, argv) -> str:
    """Exit code, stdout with the time masked, and any DOT/trace written."""
    paths = _query_paths(tmp_path, a1_file)
    code, out, _ = run(capsys, *(arg.format(**paths) for arg in argv))
    out = re.sub(r"^time: \d+ ms$", "time: - ms", out, flags=re.M)
    out = re.sub(r'"time_ms": \d+', '"time_ms": -', out)
    artifacts = [Path(paths[k]).read_text() for k in ("dot", "trace") if "{%s}" % k in argv]
    return "\n".join([str(code), out, *artifacts])


# Recorded from the CLI when each query subcommand still had its own
# command function; text, JSON, DOT and trace must stay identical.
GOLDEN_QUERY_DIGESTS = {
    ('check-partial', 'text'): "fecd627c6d72b69c8a1ae26bb45f16dc54e0e605aa2e4f98106c130a71910ce9",
    ('check-partial', 'json'): "1181053b48470442d6098fbe144fb3784ebd5a894b65e85df5ecbadda3ff0f2d",
    ('check-total', 'text'): "f4796dcab5f917fcf8936b30e0f01e8614aa79d6e65294ee1cfd4840c69ead76",
    ('check-total', 'json'): "ef08eb1774e78c4a785f6342ac3b524aa665fe831a3af0084603554ee52a360e",
    ('check-disproof', 'text'): "23ae024e9ab0f26b8df3df99e8114adb9b3e63650c444833e2f62b06565381ff",
    ('check-disproof', 'json'): "2225e3feea88f1140a3f7bce20b22db9a51180e9574d734912826ef18d31e64c",
    ('check-oracle', 'text'): "326d0c04e79f2c6aea2474a58f931b661cc5ed2b41304996fdb82a4227ba5dc7",
    ('check-oracle', 'json'): "f842a9a36bfdaca10de7eaf4808a3c86cbf4ae14b26bcf84ba8afca43cccdea1",
    ('safety-unsafe', 'text'): "aafcd1292db67cc2447bf0df029b78d0546dfcff1ed4c284da97cb24b97e161d",
    ('safety-unsafe', 'json'): "ae38621e72fd0a85ae19349079cc69d14e004866a742199b927c4c2907e22fac",
    ('safety-safe', 'text'): "fa11c69188d9151eea7d401a455954965256646ddb746772f55ce0391f9bb74f",
    ('safety-safe', 'json'): "a86bf2f6e085c0657099881e8c696c2e258a024051bd55bf91ac96bf21e260ec",
    ('safety-oracle', 'text'): "445d9c1c07332c1d108b508b2a19da5cc15a9a26c8ad38026be38d97caa61de6",
    ('safety-oracle', 'json'): "2580ff095e7c6132ba31738874e594eafb5b79374baad56043e354701766a7c4",
    ('safety-peterson', 'text'): "cf02646fd20e9f1df57aa092a7dc091d9d9553f9a0c3aaed0997d7c815aee35c",
    ('safety-peterson', 'json'): "2f4b599261dc232b2ed1b951135c7374e812a98984519c2307e394f28aa2f77c",
    ('liveness-lasso', 'text'): "941d8035dd4e720a0b866c5f0cc22060b680c47375f10004e94861a39ad0db2d",
    ('liveness-lasso', 'json'): "ef917f0422e7902afddb839818a3bd3d6c581d97d67e07c20c8cac61d6b5fa2a",
    ('liveness-path', 'text'): "c4b94cedb4592cf5e6472b4df0c6211e6c887e0b6a642a978d0dd1bc4743dfb9",
    ('liveness-path', 'json'): "2e9e8e5aca209993e0ffcd2fefe07b2729c1928cb7734caf2effbccad7a45cea",
    ('liveness-live', 'text'): "191007666b48364bb03e384c81601738eb5f6123a811b1663ba8cf0416d04423",
    ('liveness-live', 'json'): "c64332d1fe4c71a7f878788d3572bdfbdf6b761d248c6852ded932280ad76a98",
    ('liveness-oracle', 'text'): "e716b843b45faf026eb197fa3fa78395a9aea23348b4845d9c785cfb7134a4eb",
    ('liveness-oracle', 'json'): "78a376cfc4feedc5473d059250da49573d19b0a2d1fc1d5c132b64cba7c88680",
    ('liveness-peterson', 'text'): "d7913545d1d0a4cccf085de3fabd9b759b3ba935e242ffc6b3a2e3bd93d07a8a",
    ('liveness-peterson', 'json'): "bfbf327120522f241de79385ca6d65d314cfe6e00f6a971fb56cabfc4b8f2b9c",
    ('export', 'text'): "0dca5516b9478217a4dafa492409b3c3fb062c82179421c3e0ebc0a713a5c045",
    ('export', 'json'): "8626cc22ef0880e78b78ca8df7795e74f2687ec01f3a17fa080337d163755730",
}


@pytest.mark.parametrize("name, argv", GOLDEN_QUERIES)
@pytest.mark.parametrize("form", ["text", "json"])
def test_query_output_matches_golden_digest(capsys, tmp_path, a1_file, name, argv, form):
    output = _query_output(capsys, tmp_path, a1_file, argv + ["--json"] * (form == "json"))
    digest = hashlib.sha256(output.encode()).hexdigest()
    assert digest == GOLDEN_QUERY_DIGESTS[name, form]


def test_query_banners_and_command_field(capsys, tmp_path, a1_file):
    argv = dict(GOLDEN_QUERIES)
    assert _query_output(capsys, tmp_path, a1_file, argv["liveness-lasso"]) == (
        "1\nnot live: a path avoids the goal\nverdict: NotTotallyValid\n"
        "witness: a -> (b -> a)*\nnodes: 6 buds: 1 rules: Axiom=1 Subs=2 Der=2 Dis=0\n"
        "graph: 5 vertices, 5 edges, cyclic\ntime: - ms\n")
    for name, command in (("export", "check"), ("safety-safe", "safety")):
        paths = _query_paths(tmp_path, a1_file)
        _, out, _ = run(capsys, *(arg.format(**paths) for arg in argv[name]), "--json")
        assert json.loads(out)["command"] == command


def test_reused_parser_answers_like_a_fresh_one(capsys, tmp_path, a1_file):
    # main() builds its parser once per process; usage errors in between
    # must leave it answering every later call as a freshly built one does.
    usage_errors = [["check", "--mode", "sideways"], ["frobnicate"], ["liveness", "--from", "a"]]
    calls = [argv for i, (_, query) in enumerate(GOLDEN_QUERIES)
             for argv in (query, usage_errors[i % len(usage_errors)])]
    assert cli.build_parser() is cli.build_parser()
    reused = [_query_output(capsys, tmp_path, a1_file, argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(_query_output(capsys, tmp_path, a1_file, argv))
    assert reused == fresh
    assert [out.split("\n", 1)[0] for out in reused[1::2]] == ["2"] * len(GOLDEN_QUERIES)


def test_strategy_choices_are_the_enum_values():
    (queries,) = [a for a in cli.build_parser()._actions if a.dest == "cmd"]
    for name in cli.QUERIES:
        (flag,) = [a for a in queries.choices[name]._actions if a.dest == "strategy"]
        assert flag.choices == [s.value for s in SplitStrategy]
        assert flag.default == ProverConfig().strategy.value


# Random inputs for the robustness test.  Models and systems are drawn
# mostly well formed, from the DSL's and the file format's own pieces over
# a few fixed names, so that many runs reach a verdict; a third of them is
# then cut or spliced.  Sets are state expressions, label lists or junk.
_LOCS = {"P0": ("a0", "a1", "a2"), "P1": ("c0", "c1", "c2")}
_GUARD_ATOMS = st.one_of(
    st.sampled_from(["b", "true", "b = false", "b != true"]),
    st.tuples(st.just("x"), st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
              st.sampled_from(["x", "0", "1", "2"])).map(" ".join),
)
_LOC_ATOMS = st.sampled_from([f"loc({p})={loc}" for p in ("P0", "P1") for loc in ("a0", "a1", "c1")])


def _exprs(atoms: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    return st.recursive(atoms, lambda inner: st.one_of(
        inner.map(lambda e: f"!{e}"), inner.map(lambda e: f"({e})"),
        st.tuples(inner, st.sampled_from([" && ", " || "]), inner).map("".join)),
        max_leaves=5)


_GUARDS = _exprs(_GUARD_ATOMS)
_PREDICATES = _exprs(st.one_of(_GUARD_ATOMS, _LOC_ATOMS))
_ASSIGNS = st.sampled_from(["x := x", "x := 0", "x := 1", "b := b", "b := true", "b := false"])


def _spliced(text: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    cut = st.tuples(st.integers(0, 300), st.integers(0, 6),
                    st.sampled_from(["", "{", "}", " -> ", "\n", "#", ":=", "é", "\x00"]))
    return st.tuples(text, st.one_of(st.none(), st.none(), cut)).map(
        lambda t: t[0] if t[1] is None
        else t[0][:t[1][0]] + t[1][2] + t[0][t[1][0] + t[1][1]:])


@st.composite
def _model_texts(draw) -> str:
    lines = []
    lo = draw(st.integers(-1, 1))
    hi = lo + draw(st.integers(0, 3))
    init = " | ".join(map(str, draw(st.sets(st.integers(lo, hi), min_size=1, max_size=2))))
    lines.append(f"var x: int[{lo}..{hi}] = {init}")
    lines.append(f"var b: bool = {draw(st.sampled_from(['false', 'true', 'false | true']))}")
    for proc in draw(st.sampled_from([["P0"], ["P0", "P1"]])):
        locs = _LOCS[proc][:draw(st.integers(1, 3))]
        lines.append(f"process {proc} {{")
        lines += [f"  loc {loc}{' init' * (i == 0)}" for i, loc in enumerate(locs)]
        for _ in range(draw(st.integers(0, 4))):
            edge = f"  edge {draw(st.sampled_from(locs))} -> {draw(st.sampled_from(locs))}"
            if draw(st.booleans()):
                edge += f" when {draw(_GUARDS)}"
            if draw(st.booleans()):
                edge += f" do {draw(_ASSIGNS)}"
            lines.append(edge)
        lines.append("}")
    return "\n".join(lines) + "\n"


_LABELS = st.sampled_from(["a", "b", "c", "d", "<a,b>"])
_ARS_TEXTS = st.tuples(
    st.lists(_LABELS, max_size=3, unique=True).map(
        lambda ls: ["a", "b"] + [lab for lab in ls if lab not in ("a", "b")]),
    st.lists(st.tuples(_LABELS, _LABELS), max_size=8),
).map(lambda t: "states " + " ".join(t[0]) + "\n"
      + "".join(f"trans {a} {b}\n" for a, b in t[1] if a in t[0] and b in t[0]))
_JUNK_SETS = st.sampled_from(["", "loc(", "&&", "a,,b", "<a,b", "e", "x=", "b0=false"])
_SETS = {True: st.one_of(_PREDICATES, _PREDICATES, _PREDICATES, _JUNK_SETS),
         False: st.one_of(*[st.lists(_LABELS, max_size=3, unique=True).map(",".join)] * 3,
                          _JUNK_SETS)}
_QUERY_FLAGS = {
    "check": ("--source", "--target"), "safety": ("--from", "--error"),
    "liveness": ("--from", "--goal"),
}


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["check", "safety", "liveness", "expand"]),
       use_model=st.booleans(), model=_spliced(_model_texts()), system=_spliced(_ARS_TEXTS),
       data=st.data(),
       extra=st.sampled_from([[], ["--mode", "total"], ["--engine", "oracle"],
                              ["--strategy", "monolithic"], ["--json"]]))
def test_random_inputs_end_in_a_verdict_or_a_clean_exit_2(
        tmp_path, command, use_model, model, system, data, extra):
    path = tmp_path / ("m.model" if use_model or command == "expand" else "s.ars")
    source, target = data.draw(_SETS[use_model]), data.draw(_SETS[use_model])
    path.write_text(model if path.suffix == ".model" else system, encoding="utf-8")
    caps = ["--max-states", "500"]
    if command == "expand":
        argv = ["expand", "--model", str(path), *caps]
    else:
        src_flag, tgt_flag = _QUERY_FLAGS[command]
        argv = [command, "--model" if use_model else "--ars", str(path), src_flag, source,
                tgt_flag, target, "--max-nodes", "5000", *caps]
        if command == "check" or extra[:1] != ["--mode"]:
            argv += extra
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue()
    else:
        assert err.getvalue() == ""
