"""Tier-1 gate: the tree must satisfy its own static invariants.

Runs reprolint over ``src/repro`` with the repo's ``[tool.reprolint]``
config and fails on any unsuppressed finding; also proves the gate has
teeth by reintroducing the historical seeded-RNG violations and
checking they are reported with file:line locations.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import Analyzer, Severity, parse_config

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"
PYPROJECT = REPO_ROOT / "pyproject.toml"


@pytest.fixture(scope="module")
def analyzer() -> Analyzer:
    return Analyzer(config=parse_config(PYPROJECT))


@pytest.fixture(scope="module")
def tree_findings(analyzer):
    """One whole-tree pass, shared by every test that reads it."""
    return analyzer.analyze_paths([SRC])


def test_source_tree_is_clean(tree_findings):
    errors = [f for f in tree_findings if f.severity is Severity.ERROR]
    assert errors == [], "unsuppressed reprolint findings:\n" + "\n".join(
        f.format() for f in errors)


def test_reintroduced_link_seed_is_caught(analyzer):
    """The exact violation this PR removed must stay detectable."""
    source = (SRC / "net" / "link.py").read_text()
    patched = source.replace(
        'rng if rng is not None else sim.rng.stream("link.loss")',
        "rng or random.Random(0)")
    assert patched != source, "link.py no longer contains the fixed fallback"
    findings = analyzer.analyze_source(
        patched, path="src/repro/net/link.py", module="repro.net.link")
    assert any(f.rule == "det-seeded-random" for f in findings)
    finding = next(f for f in findings if f.rule == "det-seeded-random")
    assert finding.line > 0 and "random.Random(0)" in finding.message


def test_reintroduced_firewall_seed_is_caught(analyzer):
    source = (SRC / "gfw" / "firewall.py").read_text()
    patched = source.replace(
        'rng if rng is not None else sim.rng.stream("gfw.interference")',
        "rng or random.Random(0x67F)")
    assert patched != source
    findings = analyzer.analyze_source(
        patched, path="src/repro/gfw/firewall.py", module="repro.gfw.firewall")
    assert any(f.rule == "det-seeded-random" for f in findings)


def test_reintroduced_ambient_survey_random_is_caught(analyzer):
    findings = analyzer.analyze_source(
        "import random\n"
        "def sample():\n"
        "    return random.random()\n",
        path="src/repro/measure/survey.py", module="repro.measure.survey")
    assert [f.rule for f in findings] == ["det-ambient-random"]


def _run_cli(*args, cwd=REPO_ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        cwd=cwd, env=env, capture_output=True, text=True)


def test_cli_clean_tree_exits_zero():
    result = _run_cli("src/repro")
    assert result.returncode == 0, result.stdout + result.stderr


def test_cli_violation_exits_nonzero_with_location(tmp_path):
    bad = tmp_path / "repro" / "net" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import random\nrng = random.Random(0)\n")
    result = _run_cli(str(bad))
    assert result.returncode == 1
    assert "bad.py:2:" in result.stdout
    assert "det-seeded-random" in result.stdout


def test_cli_json_output(tmp_path):
    import json

    bad = tmp_path / "repro" / "gfw" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\nnow = time.time()\n")
    result = _run_cli(str(bad), "--json")
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload[0]["rule"] == "det-wallclock"
    assert payload[0]["line"] == 2


def test_cli_list_rules():
    result = _run_cli("--list-rules")
    assert result.returncode == 0
    for rule_id in ("det-seeded-random", "sim-forbidden-import",
                    "codec-str-bytes", "process-uninvoked",
                    "leak-on-error-path", "deadline-unclamped",
                    "rng-stream-registry", "wire-schema",
                    "stale-suppression"):
        assert rule_id in result.stdout


def test_cli_sarif_output(tmp_path):
    import json

    bad = tmp_path / "repro" / "net" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import random\nrng = random.Random(0)\n")
    out = tmp_path / "reprolint.sarif"
    result = _run_cli(str(bad), "--sarif", str(out))
    assert result.returncode == 1
    document = json.loads(out.read_text())
    assert document["version"] == "2.1.0"
    results = document["runs"][0]["results"]
    assert any(r["ruleId"] == "det-seeded-random" for r in results)


def test_cli_sarif_clean_tree_exits_zero(tmp_path):
    out = tmp_path / "reprolint.sarif"
    result = _run_cli("src/repro", "--sarif", str(out))
    assert result.returncode == 0, result.stdout + result.stderr
    assert out.exists()
