"""Engine mechanics: scoping, walking, parse errors, output shape."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

from repro.statics import (ALL_RULES, Finding, check_source,
                           iter_python_files, run_paths, scope_of)

REPO = Path(__file__).resolve().parents[2]


class TestScopeDerivation:
    def test_repro_packages(self):
        assert scope_of("src/repro/sim/engine.py") == "sim"
        assert scope_of("src/repro/core/observer.py") == "core"
        assert scope_of("src/repro/faults/injector.py") == "faults"
        assert scope_of("src/repro/statics/rules.py") == "statics"

    def test_repro_top_level_modules(self):
        assert scope_of("src/repro/cli.py") == "cli"

    def test_non_package_trees(self):
        assert scope_of("tests/sim/test_engine.py") == "tests"
        assert scope_of("benchmarks/perf/test_bench.py") == "benchmarks"
        assert scope_of("examples/quickstart.py") == "examples"


class TestWalker:
    def test_skip_marker_prunes_directory(self, tmp_path):
        keep = tmp_path / "keep"
        skip = tmp_path / "skip"
        keep.mkdir()
        skip.mkdir()
        (keep / "a.py").write_text("x = 1\n")
        (skip / "b.py").write_text("x = 1\n")
        (skip / ".statics-skip").write_text("")
        found = list(iter_python_files([str(tmp_path)]))
        assert [Path(p).name for p in found] == ["a.py"]

    def test_walk_order_is_deterministic(self, tmp_path):
        for name in ("b.py", "a.py", "c.py"):
            (tmp_path / name).write_text("x = 1\n")
        first = list(iter_python_files([str(tmp_path)]))
        second = list(iter_python_files([str(tmp_path)]))
        assert first == second == sorted(first)

    def test_fixture_corpus_is_skipped(self):
        files = list(iter_python_files([str(REPO / "tests" / "statics")]))
        assert files, "the statics tests themselves must be walked"
        assert not any("fixtures" in f for f in files)


class TestEngineOutput:
    def test_syntax_error_yields_parse_finding(self):
        report = check_source("def broken(:\n", "x.py", ALL_RULES)
        assert [f.rule for f in report.findings] == ["PARSE001"]

    def test_findings_are_sorted_and_jsonable(self):
        src = ("import random\n"
               "import time\n"
               "b = time.time()\n"
               "a = random.random()\n")
        report = check_source(src, "x.py", ALL_RULES, scope="sim")
        keys = [f.sort_key() for f in report.findings]
        assert keys == sorted(keys)
        payload = json.dumps(report.to_dict())
        assert json.loads(payload)["ok"] is False

    def test_finding_render_mentions_location_and_rule(self):
        finding = Finding(rule="DET001", path="p.py", line=3, col=7,
                          message="msg", hint="fix it")
        text = finding.render()
        assert "p.py:3:7" in text and "DET001" in text and "fix it" in text


class TestParallelParse:
    """--jobs N must change wall-clock only, never the report."""

    def _render(self, report):
        lines = [f.render() for f in report.findings]
        lines.append(f"{report.files_checked}:{report.suppressed}")
        return "\n".join(lines)

    def test_parallel_report_is_byte_identical_to_serial(self):
        paths = [str(REPO / "src" / "repro" / "statics"),
                 str(REPO / "src" / "repro" / "sim")]
        serial = run_paths(paths, ALL_RULES)
        parallel = run_paths(paths, ALL_RULES, jobs=4)
        assert self._render(parallel) == self._render(serial)
        assert json.dumps(parallel.to_dict(), sort_keys=True) == \
            json.dumps(serial.to_dict(), sort_keys=True)

    def test_parallel_report_with_findings_matches(self, tmp_path):
        (tmp_path / "a.py").write_text(
            "def f(xs):\n    return sorted(xs, key=hash)\n")
        (tmp_path / "b.py").write_text(
            "def g(xs):\n    return sorted(xs, key=lambda x: id(x))\n")
        (tmp_path / "c.py").write_text("x = 1\n")
        serial = run_paths([str(tmp_path)], ALL_RULES)
        parallel = run_paths([str(tmp_path)], ALL_RULES, jobs=3)
        assert not serial.ok
        assert self._render(parallel) == self._render(serial)

    def test_cli_jobs_flag_matches_serial_output(self):
        env = {"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"}
        argv = [sys.executable, "-m", "repro", "statics",
                "src/repro/statics"]
        serial = subprocess.run(argv, cwd=REPO, capture_output=True,
                                text=True, env=env)
        parallel = subprocess.run(argv + ["--jobs", "4"], cwd=REPO,
                                  capture_output=True, text=True, env=env)
        assert serial.returncode == parallel.returncode == 0
        assert serial.stdout == parallel.stdout


class TestSelfRun:
    """The acceptance gate: the tree itself is clean under all rules."""

    def test_src_is_clean(self):
        report = run_paths([str(REPO / "src")], ALL_RULES)
        assert report.ok, "\n".join(f.render() for f in report.findings)
        assert report.files_checked > 80

    def test_src_and_tests_are_clean_via_cli(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "statics", "src", "tests"],
            cwd=REPO, capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout

    def test_cli_json_output(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "statics", "--json",
             "src/repro/statics"],
            cwd=REPO, capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["ok"] is True
        assert payload["files_checked"] >= 5

    def test_cli_nonzero_on_finding(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(xs):\n"
                       "    return sorted(xs, key=lambda x: hash(x))\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "statics", str(bad)],
            cwd=REPO, capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 1
        assert "DET004" in proc.stdout

    def test_cli_forbid_pragmas_fails_on_suppression(self, tmp_path):
        allowed = tmp_path / "allowed.py"
        allowed.write_text(
            "def f(xs):\n"
            "    return sorted(xs, key=hash)"
            "  # statics: allow[DET004] exercises --forbid-pragmas\n")
        argv = [sys.executable, "-m", "repro", "statics", str(allowed)]
        env = {"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"}
        plain = subprocess.run(argv, cwd=REPO, capture_output=True,
                               text=True, env=env)
        assert plain.returncode == 0, plain.stdout + plain.stderr
        assert "1 suppressed" in plain.stdout
        strict = subprocess.run(argv + ["--forbid-pragmas"], cwd=REPO,
                                capture_output=True, text=True, env=env)
        assert strict.returncode == 1
        assert "forbid-pragmas" in strict.stderr

    def test_ordering_rules_pragma_free_over_actor_packages(self):
        # The `make statics` / CI second line: what crosses a shard or
        # service boundary may not relax DET003/DET004 even by pragma.
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "statics",
             "--rules", "DET003,DET004", "--forbid-pragmas",
             "src/repro/sim/shard.py", "src/repro/core/sharded.py",
             "src/repro/core/deployment.py", "src/repro/core/builder.py",
             "src/repro/core/aggregation.py", "src/repro/service",
             "src/repro/updates", "src/repro/specs.py"],
            cwd=REPO, capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout and "0 suppressed" in proc.stdout

    def test_both_entry_points_declare_the_same_options(self):
        env = {"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"}
        options = []
        for module in (["repro", "statics"], ["repro.statics"]):
            proc = subprocess.run(
                [sys.executable, "-m", *module, "--help"], cwd=REPO,
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            options.append(sorted(set(re.findall(r"--[a-z][a-z-]*",
                                                 proc.stdout))))
        assert options[0] == options[1]
        assert "--forbid-pragmas" in options[0]

    def test_cli_missing_path_is_usage_error(self, tmp_path):
        # A typo'd path must not let the CI gate pass vacuously.
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "statics",
             str(tmp_path / "no_such_dir")],
            cwd=REPO, capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 2
        assert "no such path" in proc.stderr
