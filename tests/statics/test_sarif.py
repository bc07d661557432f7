"""Machine-readable output: SARIF 2.1.0 shape and stable finding ids."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.statics import ALL_RULES, check_source
from repro.statics.sarif import (enriched_dict, severity_of, stable_id,
                                 to_sarif)
from repro.statics.findings import Finding

REPO = Path(__file__).resolve().parents[2]

BAD = ("import random\n"
       "import time\n"
       "a = random.random()\n"
       "b = time.time()\n")


def _report():
    return check_source(BAD, "src/repro/sim/x.py", ALL_RULES, scope="sim")


class TestStableIds:
    def test_id_is_independent_of_line_numbers(self):
        a = Finding(rule="DET001", path="p.py", line=3, col=1,
                    message="m", hint="h")
        b = Finding(rule="DET001", path="p.py", line=99, col=7,
                    message="m", hint="h")
        assert stable_id(a, 0) == stable_id(b, 0)

    def test_id_distinguishes_rule_path_message_occurrence(self):
        base = Finding(rule="DET001", path="p.py", line=1, col=1,
                       message="m", hint="h")
        ids = {
            stable_id(base, 0),
            stable_id(base, 1),
            stable_id(Finding(rule="DET002", path="p.py", line=1, col=1,
                              message="m", hint="h"), 0),
            stable_id(Finding(rule="DET001", path="q.py", line=1, col=1,
                              message="m", hint="h"), 0),
            stable_id(Finding(rule="DET001", path="p.py", line=1, col=1,
                              message="other", hint="h"), 0),
        }
        assert len(ids) == 5

    def test_enriched_json_carries_id_and_severity(self):
        data = enriched_dict(_report())
        assert data["findings"], "fixture must produce findings"
        for row in data["findings"]:
            assert len(row["id"]) == 16
            assert row["severity"] in ("error", "warning")

    def test_severity_map(self):
        assert severity_of("DET001") == "error"
        assert severity_of("PRAGMA002") == "warning"


class TestSarifDocument:
    def test_minimal_valid_shape(self):
        doc = to_sarif(_report())
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-statics"
        assert len(run["results"]) == len(_report().findings)
        result = run["results"][0]
        assert result["ruleId"]
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith(".py")
        assert location["region"]["startLine"] >= 1
        assert result["partialFingerprints"]["reproStaticsId/v1"]

    def test_rule_metadata_covers_reported_rules(self):
        doc = to_sarif(_report())
        run = doc["runs"][0]
        meta_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert meta_ids == {r["ruleId"] for r in run["results"]}

    def test_clean_report_serializes(self):
        report = check_source("x = 1\n", "x.py", ALL_RULES, scope="sim")
        doc = to_sarif(report)
        assert doc["runs"][0]["results"] == []
        json.dumps(doc)  # must be pure-JSON serializable


class TestSarifCli:
    def test_cli_writes_sarif_file(self, tmp_path):
        out = tmp_path / "statics.sarif"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "statics",
             "src/repro/statics", "--sarif", str(out)],
            cwd=REPO, capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 0, proc.stdout + proc.stderr
        doc = json.loads(out.read_text())
        assert doc["version"] == "2.1.0"
