"""Every statics rule against its fixture corpus.

Each ``tests/statics/fixtures/<RULE>/bad_*.py`` must produce at least
one finding of exactly its directory's rule (and of no other rule);
each ``good_*.py`` must be completely clean.  The fixture's first line
declares the scope it should be checked under
(``# statics-fixture-scope: sim``), because scoped rules deliberately
ignore the ``tests`` scope the fixture physically lives in.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.statics import ALL_RULE_IDS, ALL_RULES, check_file, check_source

FIXTURES = Path(__file__).parent / "fixtures"

_SCOPE_RE = re.compile(r"#\s*statics-fixture-scope:\s*(\w+)")


def _fixture_cases():
    cases = []
    for rule_dir in sorted(FIXTURES.iterdir()):
        if rule_dir.is_dir():
            for path in sorted(rule_dir.glob("*.py")):
                cases.append(pytest.param(rule_dir.name, path,
                                          id=f"{rule_dir.name}-{path.stem}"))
    return cases


def _check(path: Path):
    source = path.read_text()
    match = _SCOPE_RE.search(source)
    assert match, f"{path} must declare # statics-fixture-scope: <scope>"
    return check_source(source, str(path), ALL_RULES,
                        scope=match.group(1))


class TestFixtureCorpus:
    def test_corpus_covers_every_rule(self):
        dirs = {p.name for p in FIXTURES.iterdir() if p.is_dir()}
        assert dirs == set(ALL_RULE_IDS)
        for rule_dir in FIXTURES.iterdir():
            if rule_dir.is_dir():
                names = [p.name for p in rule_dir.glob("*.py")]
                assert any(n.startswith("bad_") for n in names), rule_dir
                assert any(n.startswith("good_") for n in names), rule_dir

    @pytest.mark.parametrize("rule_id, path", _fixture_cases())
    def test_fixture(self, rule_id, path):
        report = _check(path)
        rules_found = {f.rule for f in report.findings}
        if path.name.startswith("bad_"):
            assert rules_found == {rule_id}, (
                f"{path} expected only {rule_id}, got "
                f"{[f.render() for f in report.findings]}")
        else:
            assert not report.findings, (
                f"{path} expected clean, got "
                f"{[f.render() for f in report.findings]}")


class TestRuleBehaviour:
    """Targeted semantics beyond the corpus: abstentions and scoping."""

    def test_det001_ignores_out_of_scope(self):
        src = "import random\nx = random.random()\n"
        assert check_source(src, "x.py", ALL_RULES, scope="analysis").ok

    def test_det001_seeded_instance_ok_in_scope(self):
        src = ("import random\n"
               "rng = random.Random(7)\n"
               "x = rng.random()\n")
        assert check_source(src, "x.py", ALL_RULES, scope="sim").ok

    def test_det002_allows_runtime_only(self):
        src = "import time\nt = time.perf_counter()\n"
        assert check_source(src, "x.py", ALL_RULES, scope="runtime").ok
        # No other scope is exempt, ``perf`` included.
        for scope in ("sim", "perf"):
            report = check_source(src, "x.py", ALL_RULES, scope=scope)
            assert {f.rule for f in report.findings} == {"DET002"}

    def test_det003_sorted_wrapper_is_clean(self):
        src = "s = {1, 2}\nout = [x for x in sorted(s)]\n"
        assert check_source(src, "x.py", ALL_RULES, scope="sim").ok

    def test_det003_order_insensitive_builtin_is_clean(self):
        # min/max/sum/len do not depend on iteration order.
        src = "s = {1, 2}\nm = min(s)\nn = len(s)\nt = sum(s)\n"
        assert check_source(src, "x.py", ALL_RULES, scope="sim").ok

    def test_det003_propagates_through_set_ops(self):
        src = ("a = {1}\nb = {2}\n"
               "for x in a | b:\n    print(x)\n")
        report = check_source(src, "x.py", ALL_RULES, scope="core")
        assert {f.rule for f in report.findings} == {"DET003"}

    def test_det003_guards_every_src_package_but_not_tests(self):
        src = "def f(pending: set):\n    return [x for x in pending]\n"
        for scope in ("analysis", "service", "experiments"):
            report = check_source(src, "x.py", ALL_RULES, scope=scope)
            assert {f.rule for f in report.findings} == {"DET003"}, scope
        assert check_source(src, "x.py", ALL_RULES, scope="tests").ok

    def test_det004_plain_hash_use_is_not_flagged(self):
        # hash() as a cache key is fine; only ordering keys are flagged.
        src = "cache[hash(key)] = value\n"
        assert check_source(src, "x.py", ALL_RULES, scope="sim").ok

    def test_sim001_only_first_argument_is_time(self):
        src = "sim.schedule(delay, fn, 0.5)\n"
        assert check_source(src, "x.py", ALL_RULES, scope="sim").ok

    def test_sim001_keyword_delay(self):
        src = "sim.schedule(delay=t / 2, fn=cb)\n"
        report = check_source(src, "x.py", ALL_RULES, scope="sim")
        assert {f.rule for f in report.findings} == {"SIM001"}

    def test_sim002_unresolvable_base_is_skipped(self):
        src = ("from elsewhere import Base\n"
               "class C(Base):\n"
               "    __slots__ = ('x',)\n"
               "    def f(self):\n"
               "        self.y = 1\n")
        assert check_source(src, "x.py", ALL_RULES, scope="sim").ok

    def test_sim002_inherited_slots_allowed(self):
        src = ("class B:\n"
               "    __slots__ = ('x',)\n"
               "class C(B):\n"
               "    __slots__ = ('y',)\n"
               "    def f(self):\n"
               "        self.x = 1\n"
               "        self.y = 2\n")
        assert check_source(src, "x.py", ALL_RULES, scope="sim").ok

    def test_sim002_property_setter_allowed(self):
        src = ("class C:\n"
               "    __slots__ = ('_x',)\n"
               "    @property\n"
               "    def x(self):\n"
               "        return self._x\n"
               "    @x.setter\n"
               "    def x(self, v):\n"
               "        self._x = v\n"
               "    def reset(self):\n"
               "        self.x = 0\n")
        assert check_source(src, "x.py", ALL_RULES, scope="sim").ok

    def test_sim003_out_of_scope_is_ignored(self):
        src = "port.ingress.handle_packet(packet)\n"
        assert check_source(src, "x.py", ALL_RULES, scope="tests").ok

    def test_sim003_egress_delivery_is_clean(self):
        src = "port.egress.handle_packet(packet)\n"
        assert check_source(src, "x.py", ALL_RULES, scope="sim").ok

    def test_sim003_tracked_name_is_flagged(self):
        src = ("ing = port.ingress\n"
               "ing.handle_packet(packet)\n")
        report = check_source(src, "x.py", ALL_RULES, scope="sim")
        assert {f.rule for f in report.findings} == {"SIM003"}

    def test_sim003_inject_at_callback_is_flagged(self):
        src = "sim.inject_at(t_ns, node.receive_from_link, packet)\n"
        report = check_source(src, "x.py", ALL_RULES, scope="sim")
        assert {f.rule for f in report.findings} == {"SIM003"}

    def test_sim003_scheduled_egress_callback_is_clean(self):
        src = "sim.schedule(delay_ns, port.egress.handle_packet, packet)\n"
        assert check_source(src, "x.py", ALL_RULES, scope="sim").ok

    def test_sim003_handler_with_non_ingress_argument_is_clean(self):
        src = ("def deliver(unit, packet):\n"
               "    unit.handle_packet(packet)\n"
               "deliver(port.egress, packet)\n")
        assert check_source(src, "x.py", ALL_RULES, scope="sim").ok

    def test_sim003_pragma_suppresses(self):
        src = ("# statics: allow[SIM003] modeled CPU port, not a link\n"
               "port.ingress.handle_packet(packet)\n")
        assert check_source(src, "x.py", ALL_RULES, scope="sim").ok


class TestAggregationModuleIsClean:
    """The hierarchical snapshot fabric against the real rule set.

    The fabric is exactly the kind of code the DET/SIM rules exist for
    (unordered child sets, __slots__ epoch state, per-epoch timers), so
    it must pass every rule in its own ``core`` scope — with zero
    pragmas, not suppressed findings.
    """

    MODULE = (Path(__file__).parents[2] / "src" / "repro" / "core" /
              "aggregation.py")

    def test_passes_every_rule_without_pragmas(self):
        report = check_file(str(self.MODULE), ALL_RULES)
        assert report.ok, [f"{f.rule}:{f.line} {f.message}"
                           for f in report.findings]
        assert report.suppressed == 0


class TestServicePackageIsClean:
    """Every snapshot-service module against the real rule set.

    The service is simulation-pure by design (wall-clock throughput
    lives in ``repro.runtime.streaming``, a scope DET002 exempts), so
    each module must pass every rule in its own ``service`` scope —
    with zero pragmas, not suppressed findings.
    """

    PACKAGE = Path(__file__).parents[2] / "src" / "repro" / "service"

    @pytest.mark.parametrize(
        "module", sorted(p.name for p in (Path(__file__).parents[2] / "src"
                                          / "repro" / "service").glob("*.py")))
    def test_passes_every_rule_without_pragmas(self, module):
        report = check_file(str(self.PACKAGE / module), ALL_RULES)
        assert report.ok, [f"{f.rule}:{f.line} {f.message}"
                           for f in report.findings]
        assert report.suppressed == 0
