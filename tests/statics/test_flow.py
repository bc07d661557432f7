"""Whole-program (``--flow``) layer: fixtures, graphs, taint, caching.

The fixture corpus under ``tests/statics/fixtures_flow/`` is organised
per rule family, one *directory per case*: each case is a mini
multi-file program, because whole-program rules are exactly the ones a
single file cannot witness.  ``bad_*`` cases must produce at least one
finding of their family and nothing else; ``good_*`` cases must be
completely clean.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.statics import FLOW_RULE_IDS, load_program, run_flow
from repro.statics.project import (FileSummary, content_key,
                                   summarize_file, summarize_source)
from repro.statics.taint import TaintAnalysis

REPO = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures_flow"


def _fixture_cases():
    cases = []
    for family_dir in sorted(FIXTURES.iterdir()):
        if family_dir.is_dir():
            for case_dir in sorted(family_dir.iterdir()):
                if case_dir.is_dir():
                    cases.append(pytest.param(
                        family_dir.name, case_dir,
                        id=f"{family_dir.name}-{case_dir.name}"))
    return cases


class TestFixtureCorpus:
    def test_corpus_covers_every_family(self):
        dirs = {p.name for p in FIXTURES.iterdir() if p.is_dir()}
        assert dirs == set(FLOW_RULE_IDS)
        for family_dir in FIXTURES.iterdir():
            if not family_dir.is_dir():
                continue
            names = [p.name for p in family_dir.iterdir() if p.is_dir()]
            assert sum(n.startswith("bad_") for n in names) >= 2, family_dir
            assert sum(n.startswith("good_") for n in names) >= 2, family_dir

    def test_corpus_has_a_mailbox_scheme_case(self):
        # The agg:<switch> namespace from core/sharded must be mirrored.
        schemes = [p for p in FIXTURES.rglob("*.py")
                   if "agg:" in p.read_text()]
        assert schemes, "no fixture exercises an f-string mailbox scheme"

    @pytest.mark.parametrize("family, case_dir", _fixture_cases())
    def test_fixture(self, family, case_dir):
        report, _ = run_flow((str(case_dir),))
        rules_found = {f.rule for f in report.findings}
        rendered = [f.render() for f in report.findings]
        if case_dir.name.startswith("bad_"):
            assert rules_found == {family}, (
                f"{case_dir} expected only {family}, got {rendered}")
        else:
            assert not report.findings, (
                f"{case_dir} expected clean, got {rendered}")


class TestProgramGraphs:
    """Symbol-table / call-graph resolution on in-memory programs."""

    def _program(self, tmp_path, files):
        for name, source in files.items():
            (tmp_path / name).write_text(source)
        return load_program((str(tmp_path),))[0]

    def test_imported_function_call_resolves(self, tmp_path):
        program = self._program(tmp_path, {
            "a.py": "def helper():\n    return 1\n",
            "b.py": "from a import helper\n"
                    "def use():\n    return helper()\n",
        })
        use = program.functions["b:use"]
        assert program.callees(use) == ["a:helper"]

    def test_constructor_resolves_to_init(self, tmp_path):
        program = self._program(tmp_path, {
            "a.py": "class Box:\n"
                    "    def __init__(self, x):\n        self.x = x\n",
            "b.py": "from a import Box\n"
                    "def make():\n    return Box(1)\n",
        })
        make = program.functions["b:make"]
        assert program.callees(make) == ["a:Box.__init__"]

    def test_self_call_resolves_through_base_class(self, tmp_path):
        program = self._program(tmp_path, {
            "a.py": "class Base:\n"
                    "    def ping(self):\n        return 1\n",
            "b.py": "from a import Base\n"
                    "class Child(Base):\n"
                    "    def go(self):\n        return self.ping()\n",
        })
        go = program.functions["b:Child.go"]
        assert program.callees(go) == ["a:Base.ping"]

    def test_annotated_receiver_resolves_method(self, tmp_path):
        program = self._program(tmp_path, {
            "a.py": "class W:\n"
                    "    def poke(self):\n        return 1\n",
            "b.py": "from a import W\n"
                    "def drive(w: W):\n    w.poke()\n",
        })
        drive = program.functions["b:drive"]
        assert program.callees(drive) == ["a:W.poke"]

    def test_builtin_method_names_never_resolve_by_uniqueness(
            self, tmp_path):
        # `out.append(...)` on a local list must not link to the one
        # project class that happens to define `append`.
        program = self._program(tmp_path, {
            "a.py": "class Store:\n"
                    "    def append(self, x):\n        return x\n",
            "b.py": "def collect(xs):\n"
                    "    out = []\n"
                    "    for x in xs:\n        out.append(x)\n"
                    "    return out\n",
        })
        collect = program.functions["b:collect"]
        assert program.callees(collect) == []

    def test_actor_detection_requires_both_methods(self, tmp_path):
        program = self._program(tmp_path, {
            "a.py": "class Full:\n"
                    "    def register_mailbox(self, n, h):\n        pass\n"
                    "    def send_ctrl(self, n, p):\n        pass\n"
                    "class Half:\n"
                    "    def send_ctrl(self, n, p):\n        pass\n",
        })
        assert [c.name for c in program.actor_classes()] == ["Full"]

    def test_boundary_send_propagates_up_call_graph(self, tmp_path):
        program = self._program(tmp_path, {
            "a.py": "def leaf(w):\n    w.send_ctrl('m', 1)\n"
                    "def mid(w):\n    leaf(w)\n"
                    "def top(w):\n    mid(w)\n"
                    "def bystander(w):\n    return 0\n",
        })
        assert program.reaches_boundary_send(program.functions["a:top"])
        assert not program.reaches_boundary_send(
            program.functions["a:bystander"])

    def test_graph_dump_is_deterministic(self, tmp_path):
        files = {
            "a.py": "def helper():\n    return 1\n",
            "b.py": "from a import helper\n"
                    "def use():\n    return helper()\n",
        }
        first = self._program(tmp_path, files).dump()
        second = load_program((str(tmp_path),))[0].dump()
        assert first == second
        assert "call graph" in first


class TestMessageResolution:
    def test_helper_scheme_resolves_through_import(self, tmp_path):
        (tmp_path / "m.py").write_text(
            "def box(s):\n    return f'agg:{s}'\n")
        (tmp_path / "w.py").write_text(
            "from m import box\n"
            "def go(w, s):\n    w.send_ctrl(box(s), 1)\n")
        program = load_program((str(tmp_path),))[0]
        specs = [program.resolved_spec(fn, site)
                 for fn, site in program.iter_msg_sites()]
        assert specs == [("scheme", "agg:")]

    def test_local_constant_resolves_exact(self, tmp_path):
        (tmp_path / "w.py").write_text(
            "NAME = 'observer'\n"
            "def go(w):\n    w.send_ctrl(NAME, 1)\n")
        program = load_program((str(tmp_path),))[0]
        specs = [program.resolved_spec(fn, site)
                 for fn, site in program.iter_msg_sites()]
        assert specs == [("exact", "observer")]


class TestTaintLayer:
    def _analysis(self, tmp_path, files):
        for name, source in files.items():
            (tmp_path / name).write_text(source)
        return TaintAnalysis(load_program((str(tmp_path),))[0])

    def test_return_taint_crosses_modules(self, tmp_path):
        analysis = self._analysis(tmp_path, {
            "h.py": "def bad():\n    return 1 / 2\n",
            "s.py": "from h import bad\n"
                    "def go(sim):\n"
                    "    d = bad()\n"
                    "    sim.schedule(d, print)\n",
        })
        hits = analysis.sink_findings()
        assert len(hits) == 1
        assert "division" in hits[0].sources[0]

    def test_sanitizer_stops_taint(self, tmp_path):
        analysis = self._analysis(tmp_path, {
            "h.py": "def ok():\n    return int(1 / 2)\n",
            "s.py": "from h import ok\n"
                    "def go(sim):\n    sim.schedule(ok(), print)\n",
        })
        assert analysis.sink_findings() == []

    def test_param_obligation_walks_to_caller(self, tmp_path):
        analysis = self._analysis(tmp_path, {
            "s.py": "def arm(sim, delay):\n"
                    "    sim.schedule(delay, print)\n",
            "c.py": "from s import arm\n"
                    "def kick(sim):\n    arm(sim, 2.5)\n",
        })
        hits = analysis.sink_findings()
        assert len(hits) == 1
        assert hits[0].path.endswith("s.py")  # anchored at the sink
        assert hits[0].chain  # and names the tainting caller

    def test_direct_sinks_are_left_to_sim001(self, tmp_path):
        analysis = self._analysis(tmp_path, {
            "s.py": "def go(sim):\n    sim.schedule(1 / 2, print)\n",
        })
        assert analysis.sink_findings() == []


# Function-reordering property: a module is a *set* of definitions, so
# shuffling top-level function order must not change taint verdicts.
_HELPERS = st.permutations([
    "def tainted():\n    return 0.5\n",
    "def clean():\n    return 7\n",
    "def launder():\n    return int(tainted())\n",
    "def arm(sim):\n    sim.schedule(tainted(), print)\n",
    "def arm_ok(sim):\n    sim.schedule(clean(), print)\n",
])


class TestReorderingProperty:
    @settings(max_examples=25, deadline=None)
    @given(order=_HELPERS)
    def test_taint_verdicts_stable_under_reordering(self, order,
                                                    tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("reorder")
        (tmp_path / "m.py").write_text("".join(order))
        analysis = TaintAnalysis(load_program((str(tmp_path),))[0])
        verdicts = {(h.fn_qualname, tuple(h.sources))
                    for h in analysis.sink_findings()}
        assert verdicts == {
            ("m:arm", ("float literal 0.5",)),
        }


class TestSummaryCache:
    def test_cache_round_trip_is_equivalent(self, tmp_path):
        source = ("def f(sim, d):\n    sim.schedule(d, print)\n")
        target = tmp_path / "m.py"
        target.write_text(source)
        cache = tmp_path / "cache"
        cold = summarize_file(str(target), cache_dir=str(cache))
        assert list(cache.glob("*.json")), "cache entry must be written"
        warm = summarize_file(str(target), cache_dir=str(cache))
        assert warm.to_dict() == cold.to_dict()

    def test_corrupt_cache_entry_recomputes(self, tmp_path):
        source = "def f():\n    return 1\n"
        target = tmp_path / "m.py"
        target.write_text(source)
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / f"{content_key(source)}.json").write_text("{not json")
        summary = summarize_file(str(target), cache_dir=str(cache))
        assert summary.functions[0].name == "f"

    def test_content_key_changes_with_source(self):
        assert content_key("x = 1\n") != content_key("x = 2\n")

    def test_summary_survives_json_round_trip(self):
        source = ("M = 'observer'\n"
                  "class W:\n"
                  "    def send_ctrl(self, n, p):\n        pass\n"
                  "def go(w: W, sim, d):\n"
                  "    w.send_ctrl(M, 1)\n"
                  "    sim.schedule(d, print)\n"
                  "def order(w, xs):\n"
                  "    for x in set(xs):\n"
                  "        w.send_ctrl(M, x)\n")
        summary = summarize_source(source, "m.py")
        clone = FileSummary.from_dict(
            json.loads(json.dumps(summary.to_dict())))
        assert clone.to_dict() == summary.to_dict()


class TestFlowPragmas:
    def test_pragma_suppresses_flow_finding(self, tmp_path):
        (tmp_path / "actors.py").write_text(
            "class Worker:\n"
            "    def register_mailbox(self, n, h):\n        pass\n"
            "    def send_ctrl(self, n, p):\n        pass\n"
            "    def _flush(self):\n        pass\n")
        (tmp_path / "peer.py").write_text(
            "from actors import Worker\n"
            "def tick(w: Worker):\n"
            "    w._flush()  # statics: allow[FLOW001] test-only poke\n")
        report, _ = run_flow((str(tmp_path),))
        assert report.ok
        assert report.suppressed == 1

    def test_unused_flow_pragma_is_reported(self, tmp_path):
        (tmp_path / "m.py").write_text(
            "# statics: allow[MSG001] nothing here needs this\n"
            "x = 1\n")
        report, _ = run_flow((str(tmp_path),))
        assert [f.rule for f in report.findings] == ["PRAGMA002"]

    def test_per_file_rule_pragmas_are_not_audited_by_flow(self, tmp_path):
        # allow[DET003] can only be judged by the per-file pass; the
        # flow pass must leave it alone rather than call it unused.
        (tmp_path / "m.py").write_text(
            "def f(xs):\n"
            "    for x in set(xs):  # statics: allow[DET003] reasoned\n"
            "        print(x)\n")
        report, _ = run_flow((str(tmp_path),))
        assert report.ok, [f.render() for f in report.findings]


class TestFlowCli:
    def _run(self, *argv, cwd=REPO):
        return subprocess.run(
            [sys.executable, "-m", "repro", "statics", *argv],
            cwd=cwd, capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO / "src"),
                 "PATH": "/usr/bin:/bin"})

    def test_flow_clean_over_actor_packages(self):
        proc = self._run(
            "--flow", "--no-cache", "--forbid-pragmas",
            "src/repro/sim/shard.py", "src/repro/core/sharded.py",
            "src/repro/core/deployment.py", "src/repro/core/builder.py",
            "src/repro/core/aggregation.py", "src/repro/service")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout

    def test_flow_finds_fixture_bugs(self):
        proc = self._run(
            "--flow", "--no-cache",
            str(FIXTURES / "MSG001" / "bad_dead_letter"))
        assert proc.returncode == 1
        assert "MSG001" in proc.stdout

    def test_graph_dump_requires_flow(self):
        proc = self._run("--graph-dump")
        assert proc.returncode == 2
        assert "requires --flow" in proc.stderr

    def test_flow_rules_subset(self):
        proc = self._run(
            "--flow", "--no-cache", "--rules", "DET005",
            str(FIXTURES / "MSG001" / "bad_dead_letter"))
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_flow_rejects_non_flow_rule_ids(self):
        proc = self._run("--flow", "--rules", "DET001", "src")
        assert proc.returncode == 2
        assert "not flow rule" in proc.stderr

    def test_forbid_pragmas_fails_on_suppression(self, tmp_path):
        (tmp_path / "actors.py").write_text(
            "class Worker:\n"
            "    def register_mailbox(self, n, h):\n        pass\n"
            "    def send_ctrl(self, n, p):\n        pass\n"
            "    def _flush(self):\n        pass\n")
        (tmp_path / "peer.py").write_text(
            "from actors import Worker\n"
            "def tick(w: Worker):\n"
            "    w._flush()  # statics: allow[FLOW001] poke\n")
        proc = self._run("--flow", "--no-cache", "--forbid-pragmas",
                         str(tmp_path))
        assert proc.returncode == 1
        assert "forbid-pragmas" in proc.stderr

    def test_graph_dump_lists_actors_and_mailboxes(self):
        proc = self._run(
            "--flow", "--no-cache", "--graph-dump",
            "src/repro/sim/shard.py", "src/repro/core/sharded.py")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "ShardWorker" in proc.stdout
        assert "scheme:'cp:'" in proc.stdout
