"""Correctness gate: every job's output against its stored reference.

A job fails if it raises or exits non-zero, if its report is not JSON, if
its own verdict (``equal`` / ``pass``) is not true, or if its exact values
differ from the reference digest stored for it in ``reference.json``.  A
``wreath classes`` report must also have class sizes summing to the
wreath order.
"""

import hashlib
import json
import os
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def canonical(report: dict) -> dict:
    """The report with dataset file paths reduced to their file names, so
    the values do not depend on where the datasets were written."""
    datasets = report.get("datasets")
    if isinstance(datasets, dict):
        report = dict(report)
        report["datasets"] = {os.path.basename(k): v for k, v in datasets.items()}
    return report


def digest(report: dict) -> str:
    text = json.dumps(canonical(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check(text: str, code) -> tuple:
    """(report, None) if the output passes every check that needs no
    reference, else (None, a one-line reason)."""
    if code != 0:
        return None, f"exit {code}"
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, f"report is not JSON: {exc}"
    if not isinstance(report, dict):
        return None, "report is not a JSON object"
    for verdict in ("equal", "pass"):
        if verdict in report and report[verdict] is not True:
            return None, f"verdict {verdict} is {report[verdict]!r}"
    if report.get("command") == "wreath-classes":
        rows = report.get("rows", [])
        if sum(row["class_size"] for row in rows) != report.get("wreath_order"):
            return None, "class sizes do not sum to the wreath order"
        if report.get("class_count") != len(rows):
            return None, "class count differs from the number of rows"
    return report, None


def problem(text: str, code, reference: str | None) -> str | None:
    """None if the output passes, else a one-line reason."""
    report, reason = check(text, code)
    if reason is not None:
        return reason
    if reference is None:
        return "no reference values for this job"
    if digest(report) != reference:
        return "values differ from the reference"
    return None
