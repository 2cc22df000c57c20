import json

import pytest

from reachproof.cli import main, report_from_json, report_to_json

from conftest import A1_TEXT


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

    def test_bad_flag_combination(self, capsys):
        code, _, _ = run(capsys, "check", "--mode", "sideways")
        assert code == 2

    def test_node_budget_exhaustion_is_an_error(self, capsys, a1_file):
        code, _, err = run(capsys, "check", "--ars", a1_file, "--max-nodes", "2",
                           "--source", "a", "--target", "c,d")
        assert code == 2
        assert "node budget" in err


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
         "    open [2] BOT\n"),
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

    def test_export_needs_an_artifact_path(self, capsys, a1_file):
        code, _, err = run(capsys, "export", "--ars", a1_file,
                           "--source", "a", "--target", "c,d")
        assert code == 2

    def test_emit_proof_rejected_for_oracle(self, capsys, a1_file, tmp_path):
        code, _, err = run(capsys, "check", "--ars", a1_file, "--engine", "oracle",
                           "--source", "a", "--target", "c,d",
                           "--emit-proof", str(tmp_path / "x.dot"))
        assert code == 2
        assert "prover engine" in err

    def test_unwritable_emit_path(self, capsys, a1_file, tmp_path):
        code, _, _ = run(capsys, "check", "--ars", a1_file,
                         "--source", "a", "--target", "c,d",
                         "--emit-proof", str(tmp_path / "no" / "dir" / "x.dot"))
        assert code == 2
