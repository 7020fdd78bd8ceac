"""Tests for the command-line interface."""

from __future__ import annotations

import io
import re
from pathlib import Path

import pytest

from repro import schema
from repro.benchmarks import available_benchmarks
from repro.cli import EXPERIMENTS, STRATEGIES, build_parser, main
from repro.session import ClusterSession, ClusterSpec


class TestParser:
    def test_requires_a_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        """Unknown commands, the retired ``analyze`` among them."""
        for argv in (["frobnicate"], ["analyze"], ["analyze", "src/repro"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)

    def test_every_benchmark_is_a_valid_train_target(self):
        parser = build_parser()
        for name in available_benchmarks():
            args = parser.parse_args(["train", name])
            assert args.benchmark == name

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "tpcc"])
        assert args.strategy == "houdini"
        assert args.partitions == 8

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "tpcc", "--strategy", "magic"])

    def test_every_registered_experiment_is_accepted(self):
        parser = build_parser()
        for identifier in EXPERIMENTS:
            args = parser.parse_args(["experiment", identifier])
            assert args.id == identifier

    @pytest.mark.parametrize("command", ["simulate", "serve"])
    @pytest.mark.parametrize("flag", [["--backend", "inline"], ["--workers", "2"]])
    def test_there_is_no_backend_or_worker_flag(self, command, flag):
        """Attempts run on the coordinator alone; no flag picks another way."""
        parser = build_parser()
        parser.parse_args([command, "tpcc"])
        with pytest.raises(SystemExit):
            parser.parse_args([command, "tpcc", *flag])

    def test_strategies_cover_the_papers_comparisons(self):
        assert "assume-single-partition" in STRATEGIES
        assert "houdini-partitioned" in STRATEGIES
        assert "oracle" in STRATEGIES


class TestCommands:
    def test_list_benchmarks_prints_all(self, capsys):
        assert main(["list-benchmarks"]) == 0
        out = capsys.readouterr().out.split()
        assert set(out) == {"tatp", "tpcc", "auctionmark", "smallbank"}

    def test_train_and_inspect_round_trip(self, tmp_path, capsys):
        target = tmp_path / "bundle"
        code = main(
            ["train", "tatp", "--partitions", "2", "--trace", "120", "--output", str(target)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ArtifactBundle" in out
        assert target.exists()

        assert main(["inspect", str(target)]) == 0
        out = capsys.readouterr().out
        assert "tatp" in out
        assert "states" in out

    def test_train_without_output_does_not_write(self, tmp_path, capsys):
        code = main(["train", "tatp", "--partitions", "2", "--trace", "80"])
        assert code == 0
        assert "artifacts written" not in capsys.readouterr().out

    def test_inspect_missing_bundle_fails_cleanly(self, tmp_path, capsys):
        code = main(["inspect", str(tmp_path / "nowhere")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_inspect_corrupt_bundle_fails_cleanly(self, tmp_path, capsys):
        target = tmp_path / "bundle"
        assert main(["train", "tatp", "--partitions", "2", "--trace", "80",
                     "--output", str(target)]) == 0
        (target / "models.json").write_text("[1]")
        assert main(["inspect", str(target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "models.json" in err

    def test_simulate_prints_summary_row(self, capsys):
        code = main(
            [
                "simulate",
                "tatp",
                "--strategy",
                "assume-single-partition",
                "--partitions",
                "2",
                "--trace",
                "100",
                "--transactions",
                "120",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput_txn_s" in out
        assert "strategy: assume-single-partition" in out

    def test_simulate_houdini_with_threshold(self, capsys):
        code = main(
            [
                "simulate",
                "tatp",
                "--strategy",
                "houdini",
                "--partitions",
                "2",
                "--trace",
                "100",
                "--transactions",
                "100",
                "--threshold",
                "0.8",
            ]
        )
        assert code == 0
        assert "committed" in capsys.readouterr().out

    def test_simulate_json_emits_stable_result_document(self, capsys):
        import json

        from repro.sim import SimulationResult

        code = main(
            ["simulate", "tatp", "--strategy", "oracle", "--partitions", "2",
             "--trace", "100", "--transactions", "80", "--json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        result = SimulationResult.from_dict(data)
        assert result.total_transactions == 80
        assert data["derived"]["throughput_txn_per_sec"] > 0

    def test_serve_repl_drives_a_session(self, capsys, monkeypatch):
        import io

        script = "\n".join([
            "run 40",
            "policy shortest-predicted",
            "run 40",
            "admission max_in_flight=4,max_deferrals=64",
            "run 20",
            "metrics",
            "threshold 0.8",
            "caching off",
            "frobnicate",
            "drain",
            "quit",
        ]) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        code = main(["serve", "tatp", "--partitions", "2", "--trace", "100"])
        assert code == 0
        out = capsys.readouterr().out
        assert "session open" in out
        assert "policy -> shortest-predicted" in out
        assert "admission -> {'max_in_flight': 4, 'max_deferrals': 64}" in out
        assert "throughput_txn_s" in out
        assert "confidence threshold -> 0.8" in out
        assert "estimate caching -> off" in out
        assert "unknown command 'frobnicate'" in out
        assert "session closed after 100 transactions" in out

    def test_serve_survives_bad_commands(self, capsys, monkeypatch):
        import io

        script = "policy warp-speed\nadmission max_flights=2\nthreshold nine\nquit\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        code = main(["serve", "tatp", "--partitions", "2", "--trace", "100"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("error:") == 3
        assert "session closed" in out

    def test_record_then_replay_round_trip(self, tmp_path, capsys):
        import json

        from repro.sim import SimulationResult
        from repro.workload import WorkloadTrace

        trace_path = tmp_path / "tatp.jsonl"
        code = main(
            ["record", "tatp", "--partitions", "2", "--transactions", "80",
             "--rate", "500", "--output", str(trace_path)]
        )
        assert code == 0
        assert "recorded 80 tatp transactions" in capsys.readouterr().out
        recorded = WorkloadTrace.load(trace_path)
        assert len(recorded) == 80
        assert all(r.at_ms is not None for r in recorded)

        code = main(
            ["simulate", "tatp", "--strategy", "oracle", "--partitions", "2",
             "--trace", "100", "--transactions", "200",
             "--workload", str(trace_path), "--json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        result = SimulationResult.from_dict(data)
        # Replay is bounded by the trace, not by --transactions.
        assert result.total_transactions == 80
        assert "max_ms" in next(iter(data["scheduler_stats"]["queue_wait_by_class"].values()))

    def test_simulate_missing_workload_file_fails_cleanly(self, tmp_path, capsys):
        code = main(
            ["simulate", "tatp", "--partitions", "2", "--trace", "100",
             "--workload", str(tmp_path / "nope.jsonl")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_serve_workload_and_inflight_commands(self, capsys, monkeypatch, tmp_path):
        import io

        trace_path = tmp_path / "mini.jsonl"
        assert main(
            ["record", "tatp", "--partitions", "2", "--transactions", "30",
             "--rate", "400", "--output", str(trace_path)]
        ) == 0
        capsys.readouterr()

        script = "\n".join([
            "run 20",
            "workload open 500 poisson",
            "runfor 0.04",
            "inflight",
            f"workload trace {trace_path}",
            "run 30",
            "workload closed",
            "run 10",
            "workload sideways",
            "metrics",
            "quit",
        ]) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        code = main(["serve", "tatp", "--partitions", "2", "--trace", "100"])
        assert code == 0
        out = capsys.readouterr().out
        assert "workload -> open-loop" in out
        assert "workload -> trace-replay" in out
        assert "workload -> closed-loop" in out
        assert "transaction(s) in flight" in out
        assert "error: workload takes" in out
        assert "max_queue_wait_ms" in out
        assert "session closed" in out

    def test_serve_parses_values_by_declared_kind(self, capsys, monkeypatch):
        """``k=v`` values are converted by the kind the field declares (a
        float field takes ``2e1``; the old parser guessed ``int`` from the
        missing dot), and an unknown key gets the class's did-you-mean."""
        import io

        script = "\n".join([
            "admission max_in_flight_ms=2e1,max_in_flight=4",
            "selftune on divergence_threshold=5e-1,check_interval_txns=25",
            "tenancy set gold weight=2,quota=3,slo=2.5e1,quantile=0.9",
            "tenancy set gold quota=none",
            "admission max_flights=3",
            "admission max_in_flight=2.5",
            "run 20",
            "quit",
        ]) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        code = main(["serve", "tatp", "--partitions", "2", "--trace", "100"])
        assert code == 0
        out = capsys.readouterr().out
        assert "admission -> {'max_in_flight_ms': 20.0, 'max_in_flight': 4}" in out
        assert ("selftune -> on {'divergence_threshold': 0.5, "
                "'check_interval_txns': 25}") in out
        assert ("tenancy[gold] -> {'weight': 2.0, 'quota': 3, "
                "'slo_latency_ms': 25.0, 'slo_quantile': 0.9}") in out
        assert "'quota': None" in out
        assert "'max_flights' (did you mean 'max_in_flight'?)" in out
        assert "max_in_flight must be an integer >= 1 or None, got '2.5'" in out
        assert out.count("error:") == 2
        assert "session closed after 20 transactions" in out

    def test_serve_refuses_a_foreign_trace_and_stays_drainable(
        self, capsys, monkeypatch, tmp_path
    ):
        import io

        trace_path = tmp_path / "tatp.jsonl"
        assert main(
            ["record", "tatp", "--partitions", "2", "--transactions", "20",
             "--rate", "400", "--output", str(trace_path)]
        ) == 0
        capsys.readouterr()
        script = f"workload trace {trace_path}\nrunfor 0.05\nrun 10\nquit\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        code = main(["serve", "tpcc", "--partitions", "2", "--trace", "100"])
        out = capsys.readouterr().out
        assert code == 0
        assert "error: invalid workload source" in out
        assert "'tpcc' benchmark does not define" in out
        assert "workload -> trace-replay" not in out
        assert "session closed after" in out

    def test_simulate_refuses_a_foreign_trace_before_running(self, capsys, tmp_path):
        trace_path = tmp_path / "tatp.jsonl"
        assert main(
            ["record", "tatp", "--partitions", "2", "--transactions", "20",
             "--output", str(trace_path)]
        ) == 0
        capsys.readouterr()
        code = main(["simulate", "tpcc", "--partitions", "2", "--trace", "100",
                     "--workload", str(trace_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "invalid workload source" in captured.err
        assert "committed" not in captured.out


#: The ``serve`` verbs that change the session, and the live field each sets.
CHANGE_VERBS = {
    "policy": "policy", "admission": "admission", "caching": "houdini",
    "threshold": "houdini", "workload": "workload", "selftune": "selftune",
    "tenancy": "tenancy",
}


class _CountedLines(io.StringIO):
    """Stdin that counts the lines the REPL has read."""

    read = 0

    def readline(self, *args):
        line = super().readline(*args)
        self.read += bool(line)
        return line


def ci_serve_script(trace_path: Path) -> list[str]:
    """The stdin script of CI's ``Every serve set command once`` step, with
    its trace path replaced."""
    workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "ci.yml"
    script = re.search(r"<<'SERVE'\n(.*?)\n\s*SERVE\n", workflow.read_text(), re.S)
    return [line.strip().replace("/tmp/tatp_trace.jsonl", str(trace_path))
            for line in script.group(1).splitlines()]


def test_every_serve_change_verb_is_one_reconfigure_call(capsys, monkeypatch, tmp_path):
    """Each change verb of CI's serve script reaches the session through
    exactly one ``ClusterSession.reconfigure`` call keyed by the live field
    it changes; no other line calls it."""
    trace_path = tmp_path / "tatp.jsonl"
    assert main(["record", "tatp", "--partitions", "2", "--transactions", "60",
                 "--rate", "800", "--output", str(trace_path)]) == 0
    script = ci_serve_script(trace_path)
    assert {line.split()[0] for line in script} >= set(CHANGE_VERBS)
    stdin = _CountedLines("\n".join(script) + "\n")
    calls: dict[int, list[tuple[str, ...]]] = {}
    reconfigure = ClusterSession.reconfigure

    def recording(session, **changes):
        calls.setdefault(stdin.read, []).append(tuple(changes))
        return reconfigure(session, **changes)

    monkeypatch.setattr(ClusterSession, "reconfigure", recording)
    monkeypatch.setattr("sys.stdin", stdin)
    capsys.readouterr()
    assert main(["serve", "tatp", "--partitions", "2", "--trace", "100"]) == 0
    out = capsys.readouterr().out
    assert "error:" not in out and "session closed after" in out
    for number, line in enumerate(script, start=1):
        verb = line.split()[0]
        expected = [(CHANGE_VERBS[verb],)] if verb in CHANGE_VERBS else []
        assert calls.get(number, []) == expected, line
    assert set(CHANGE_VERBS.values()) <= set(schema.live_fields(ClusterSpec))
