"""Repo gate: the library and test tree must lint clean.

This runs the full rule set — the syntactic rules *and* the rules the
program walker reports — over every Python tree in the repo.
Deliberate bad fixtures (e.g. the engine's mismatched-collective and
deadlock tests) carry ``# repro: lint-ok[CODE]`` suppressions; anything
else that fires here is a real finding to fix.  SP099 keeps the
suppressions honest: a stale one is itself a finding.
"""

from pathlib import Path

from repro.analysis import lint_paths

REPO = Path(__file__).resolve().parents[2]


def _fmt(findings):
    return "\n".join(f.format() for f in findings)


def test_src_lints_clean():
    findings = lint_paths([REPO / "src"])
    assert findings == [], _fmt(findings)


def test_tests_and_benchmarks_lint_clean():
    findings = lint_paths([REPO / "tests", REPO / "benchmarks",
                           REPO / "examples"])
    assert findings == [], _fmt(findings)


def test_protocol_rules_are_part_of_the_gate():
    # guard against the gate silently degrading to syntax-only: the
    # walker's codes must be selectable on their own and clean
    walker_codes = {"SP102", "SP104", "SP107", "SP108", "SP109", "SP110",
                    "SP111", "SP112"}
    findings = lint_paths([REPO / "src"], select=walker_codes)
    assert findings == [], _fmt(findings)
