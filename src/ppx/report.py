"""Structured pass/fail reports for the verification suites.

A report is a named list of checks; each check records its identifier, the
parameters it ran with, and exact expected/actual renderings (never rounded).
The suite passes iff every check passes.
"""

from __future__ import annotations

import collections

Check = collections.namedtuple("Check", "check_id params passed expected actual")


class Report:
    __slots__ = ("suite", "checks")

    def __init__(self, suite: str):
        self.suite = suite
        self.checks = []

    def add(self, check_id: str, params: dict, passed: bool, expected, actual) -> bool:
        self.checks.append(Check(check_id, dict(params), bool(passed), str(expected), str(actual)))
        return passed

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json_obj(self) -> dict:
        # The JSON names of the fields of Check, in their order.
        keys = ("id", "params", "pass", "expected", "actual")
        return {"report": self.suite, "checks": [dict(zip(keys, c)) for c in self.checks],
                "status": self.status}

    def render_text(self) -> str:
        lines = [f"report: {self.suite}"]
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            params = " ".join(f"{k}={v}" for k, v in c.params.items())
            head = f"  {mark} {c.check_id}" + (f" [{params}]" if params else "")
            lines.append(f"{head} | expected {c.expected} | actual {c.actual}")
        lines.append(f"status: {self.status}")
        return "\n".join(lines)


def render_reports_json(reports: list) -> str:
    import json
    if len(reports) == 1:
        obj = reports[0].to_json_obj()
    else:
        obj = {
            "report": "all",
            "suites": [r.to_json_obj() for r in reports],
            "status": "pass" if all(r.passed for r in reports) else "fail",
        }
    return json.dumps(obj, indent=2)
