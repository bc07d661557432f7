"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestParser:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 0
        assert "Speedlight" in capsys.readouterr().out

    def test_experiments_list_names_all(self, capsys):
        assert main(["experiments", "--list"]) == 0
        from repro.experiments import registry

        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == list(registry())

    def test_static_listing_is_the_registry(self):
        # --list prints the static table; it may not drift from what the
        # modules declare.
        from repro.experiments import LISTING, registry

        assert LISTING == tuple((name, exp.description)
                                for name, exp in registry().items())

    def test_metrics_lists_registry(self, capsys):
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "packet_count" in out
        assert "queue_depth" in out
        assert "gauge" in out

    def test_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["run", "fig99", "--no-cache"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_only_subset_fails_cleanly(self, capsys):
        assert main(["experiments", "--only", "fig99", "--no-cache"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestRun:
    def test_run_table1(self, capsys):
        assert main(["run", "table1", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "770" in out  # the channel-state SRAM figure

    def test_run_fig11_quick(self, capsys):
        assert main(["run", "fig11", "--quick", "--no-cache"]) == 0
        assert "Figure 11" in capsys.readouterr().out

    def test_run_caches_results(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "table1", "--cache-dir", cache_dir]) == 0
        assert "1 executed, 0 from cache" in capsys.readouterr().err
        assert main(["run", "table1", "--cache-dir", cache_dir]) == 0
        assert "0 executed, 1 from cache" in capsys.readouterr().err

    def test_experiments_subset_combined_batch(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(["experiments", "--only", "table1,fig11", "--quick",
                     "--cache-dir", cache_dir]) == 0
        captured = capsys.readouterr()
        assert "Table 1" in captured.out
        assert "Figure 11" in captured.out
        # One combined batch: 1 table1 trial + 4 quick fig11 trials.
        assert "5 trials: 5 executed" in captured.err
        # Second run: everything cached, nothing re-executed.
        assert main(["experiments", "--only", "table1,fig11", "--quick",
                     "--cache-dir", cache_dir]) == 0
        assert "0 executed, 5 from cache" in capsys.readouterr().err
        # A name selected twice (positional and --only) runs once.
        assert main(["experiments", "table1", "--only", "table1",
                     "--cache-dir", cache_dir]) == 0
        assert "1 trials: 0 executed, 1 from cache" in capsys.readouterr().err


class TestFaultProfileFlag:
    PROFILE = ('{"type": "compose", "parts": ['
               '{"type": "correlated", "at_ns": 25000000}, '
               '{"type": "independent", "intensity": 0.25, '
               '"kinds": ["link_delay"]}]}')

    def test_inline_json_profile_reaches_the_experiment(self, capsys):
        assert main(["run", "faults", "--quick", "--no-cache",
                     "--fault-profile", self.PROFILE]) == 0
        captured = capsys.readouterr()
        assert "[fault profile applied to: faults]" in captured.err
        # The single-profile scenario replaces the intensity sweep.
        assert "profile-compose" in captured.out

    def test_profile_file_accepted(self, capsys, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text(self.PROFILE)
        assert main(["run", "faults", "--quick", "--no-cache",
                     "--fault-profile", str(path)]) == 0
        assert "profile-compose" in capsys.readouterr().out

    def test_bad_json_fails_cleanly(self, capsys):
        assert main(["run", "faults", "--quick", "--no-cache",
                     "--fault-profile", "{not json"]) == 2
        assert "valid JSON" in capsys.readouterr().err

    def test_invalid_profile_fails_cleanly(self, capsys):
        assert main(["run", "faults", "--quick", "--no-cache",
                     "--fault-profile", '{"type": "gremlins"}']) == 2
        assert "unknown fault profile type" in capsys.readouterr().err

    def test_experiment_without_profile_support_fails_cleanly(self, capsys):
        assert main(["run", "table1", "--no-cache",
                     "--fault-profile", self.PROFILE]) == 2
        assert "does not accept a fault profile" in capsys.readouterr().err


class TestSpecFlagsRejectBadInput:
    """Both spec flags share one loader (repro.specs.load_spec): every
    kind of bad input is one stderr line and exit 2, never a traceback."""

    FLAGS = {
        "--fault-profile": ("faults", "fault profile",
                            {"type": "independent", "intensity": "high"},
                            {"type": "independent", "intensity": -1}),
        "--update-plan": ("updates", "update plan",
                          {"type": "timed_swap", "at_ns": "soon"},
                          {"type": "timed_swap", "at_ns": -1}),
    }

    @pytest.mark.parametrize("flag", FLAGS)
    @pytest.mark.parametrize("case", ["directory", "bad-json", "unknown-type",
                                      "wrong-typed-field", "nested-unknown",
                                      "out-of-range-field"])
    def test_one_line_and_exit_2(self, flag, case, capsys, tmp_path):
        import json

        experiment, noun, wrong_typed, out_of_range = self.FLAGS[flag]
        field = next(key for key in out_of_range if key != "type")
        text, expected = {
            "directory": (str(tmp_path), f"{flag} is neither a file nor "
                                         "valid JSON"),
            "bad-json": ("{not json", f"{flag} is neither a file nor "
                                      "valid JSON"),
            "unknown-type": ('{"type": "gremlins"}',
                             f"invalid {noun}: unknown {noun} type"),
            "wrong-typed-field": (json.dumps(wrong_typed),
                                  f"invalid {noun}: invalid {noun} type "
                                  f"'{wrong_typed['type']}'"),
            "nested-unknown": (json.dumps({"type": "compose", "parts": [
                {"type": wrong_typed["type"], "bogus": 1}]}),
                f"invalid {noun}: unknown field(s) bogus"),
            # The spec's own bounds refuse it, naming the field.
            "out-of-range-field": (json.dumps(out_of_range),
                                   f"invalid {noun}: "),
        }[case]
        assert main(["run", experiment, "--quick", "--no-cache",
                     flag, text]) == 2
        err = capsys.readouterr().err
        assert err.startswith(expected) and err.count("\n") == 1
        if case == "out-of-range-field":
            assert field in err


class TestShardsFlag:
    def test_run_scaling_quick_with_shards(self, capsys):
        # The CI quick suite's sharded exercise: a real two-shard
        # scaling run per trial.
        assert main(["run", "scaling", "--quick", "--no-cache",
                     "--shards", "2"]) == 0
        captured = capsys.readouterr()
        assert "[2 shards applied to: scaling]" in captured.err
        assert "fat-trees" in captured.out

    def test_experiment_without_shard_support_fails_cleanly(self, capsys):
        assert main(["run", "table1", "--no-cache", "--shards", "2"]) == 2
        assert "does not support sharded" in capsys.readouterr().err

    def test_shards_must_be_positive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "scaling", "--quick", "--no-cache",
                  "--shards", "0"])
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err


class TestDemo:
    def test_demo_runs_end_to_end(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "total packets" in out
        assert "consistent" in out


class TestServe:
    def test_serve_reports_throughput_and_summary(self, capsys):
        assert main(["serve", "--epochs", "10", "--interval-us", "1000",
                     "--seed", "3", "--json"]) == 0
        import json
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["epochs_stored"] >= 10
        # Wall-clock figures go to stderr, as one JSON line.
        assert json.loads(captured.err)["epochs_per_sec"] > 0
        assert "epochs_per_sec" not in doc
        assert doc["pipeline"]["backlog"] == 0
        assert doc["summary"]["epochs_stored"] == doc["pipeline"]["ingested"]

    def test_serve_queries_inline(self, capsys):
        assert main(["serve", "--epochs", "12", "--interval-us", "1000",
                     "--seed", "3", "--retention", "8",
                     "--query-range", "5", "8", "--conservation",
                     "--heavy-hitters", "3", "--json"]) == 0
        import json
        doc = json.loads(capsys.readouterr().out)
        epochs = [d["epoch"] for d in doc["range"]]
        assert epochs == sorted(epochs)
        assert all(5 <= e <= 8 for e in epochs)
        assert doc["conservation"]["violations"] == {}
        assert doc["summary"]["epochs_stored"] == 8  # retention ring held
        assert "units" in doc["heavy_hitters"]

    def test_serve_json_stdout_is_the_same_on_every_run(self, capsys):
        argv = ["serve", "--epochs", "12", "--interval-us", "1000",
                "--seed", "3", "--retention", "8", "--query-range", "5", "8",
                "--conservation", "--heavy-hitters", "3", "--json"]
        outs = []
        for _ in range(2):
            assert main(argv) == 0
            outs.append(capsys.readouterr().out.encode())
        assert outs[0] == outs[1]

    def test_serve_refuses_a_queue_capacity_below_two(self, capsys):
        # Coalescing folds into a waiting epoch, never the one in service.
        assert main(["serve", "--epochs", "5", "--queue-capacity", "1"]) == 2
        assert "PipelineConfig.queue_capacity" in capsys.readouterr().err

    def test_serve_human_readable(self, capsys):
        assert main(["serve", "--epochs", "5", "--interval-us", "1000",
                     "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "served" in out
        assert "epochs/s wall" in out
