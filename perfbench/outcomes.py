"""Pinned outcomes and the per-operation correctness check.

``expected.json`` (next to this file) records, for every grammar any
workload analyses, the conflict count, the unifying / nonunifying /
timed-out split and the SHA-256 of the rendered reports: each report
block followed by a blank line, exactly as the CLI prints them before
its summary line. ``"plain"`` is the default pipeline; ``"ambiguity"``
adds the static SR-walk verdict lines of ``--ambiguity``.

Regenerate it with ``python3 perfbench/pin.py`` (which cross-checks the
registry and the paper's Table 1 before writing). Every operation is
checked against it outside its timed interval; a digest mismatch, a
stub or degraded rung, an unexpected exit code or a non-200 reply is a
failed operation.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Any, Mapping

EXPECTED_PATH = Path(__file__).with_name("expected.json")
SCHEMA = "perfbench.expected/1"

#: The CLI's summary line, minus its elapsed-time suffix.
_SUMMARY = re.compile(
    r"^grammar '(?P<name>[^']*)': (?:no conflicts — .*|"
    r"(?P<conflicts>\d+) conflicts — (?P<unifying>\d+) unifying, "
    r"(?P<nonunifying>\d+) nonunifying, (?P<timed_out>\d+) timed out"
    r"(?P<extras>.*?) \(\d+\.\d+s\))$"
)


def render(blocks: list[str]) -> str:
    """The rendered reports as the CLI prints them, summary line excluded."""
    return "".join(block + "\n\n" for block in blocks)


def digest(blocks: list[str]) -> str:
    return hashlib.sha256(render(blocks).encode("utf-8")).hexdigest()


def load_expected(path: Path = EXPECTED_PATH) -> dict[str, dict[str, Any]]:
    document = json.loads(path.read_text(encoding="utf-8"))
    if document.get("schema") != SCHEMA:
        raise ValueError(f"{path}: unsupported schema {document.get('schema')!r}")
    return document["grammars"]


def _counts_failures(expected: Mapping[str, Any], counts: Mapping[str, int]) -> list[str]:
    return [
        f"{key} {counts[key]} != pinned {expected[key]}"
        for key in ("conflicts", "unifying", "nonunifying", "timed_out")
        if counts[key] != expected[key]
    ]


def check_summary(
    expected: Mapping[str, Any], mode: str, summary: Any, blocks: list[str]
) -> list[str]:
    """Failures of an in-process run (a :class:`FinderSummary` and its blocks)."""
    failures = _counts_failures(
        expected,
        {
            "conflicts": summary.num_conflicts,
            "unifying": summary.num_unifying,
            "nonunifying": summary.num_nonunifying,
            "timed_out": summary.num_timeout,
        },
    )
    if summary.num_stub:
        failures.append(f"{summary.num_stub} stub rung(s)")
    # Render-stage failures land on the reports after explain_all()
    # counted, so count degradations from the reports themselves.
    degraded = sum(1 for report in summary.reports if report.degradations)
    if degraded:
        failures.append(f"{degraded} degraded report(s)")
    if digest(blocks) != expected["reports"][mode]:
        failures.append(f"{mode} report digest mismatch")
    return failures


def check_cli(expected: Mapping[str, Any], returncode: int, stdout: str) -> list[str]:
    """Failures of one ``repro-conflicts FILE`` process (plain mode)."""
    failures: list[str] = []
    wanted_exit = 1 if expected["conflicts"] else 0
    if returncode != wanted_exit:
        failures.append(f"exit code {returncode}, expected {wanted_exit}")
    body, _, last = stdout.rstrip("\n").rpartition("\n")
    match = _SUMMARY.match(last)
    if match is None:
        return failures + [f"unrecognised summary line {last!r}"]
    if match["conflicts"] is None:
        counts = dict.fromkeys(("conflicts", "unifying", "nonunifying", "timed_out"), 0)
    else:
        counts = {
            key: int(match[key])
            for key in ("conflicts", "unifying", "nonunifying", "timed_out")
        }
        if match["extras"]:
            failures.append(f"summary reports{match['extras']}")
    failures += _counts_failures(expected, counts)
    rendered = body + "\n" if body else ""
    if hashlib.sha256(rendered.encode("utf-8")).hexdigest() != expected["reports"]["plain"]:
        failures.append("plain report digest mismatch")
    return failures


def check_job(expected: Mapping[str, Any], status: int, body: Mapping[str, Any]) -> list[str]:
    """Failures of one ``POST /v1/analyze?wait=`` reply (plain mode)."""
    if status != 200:
        return [f"HTTP {status}"]
    if body.get("state") != "completed":
        return [f"job {body.get('state')}: {body.get('error')}"]
    result = body.get("result") or {}
    summary = result.get("summary") or {}
    failures = _counts_failures(
        expected,
        {
            "conflicts": summary.get("conflicts", -1),
            "unifying": summary.get("unifying", -1),
            "nonunifying": summary.get("nonunifying", -1),
            "timed_out": summary.get("timeouts", -1),
        },
    )
    if summary.get("stubs") or summary.get("degraded"):
        failures.append(
            f"{summary.get('stubs')} stub(s), {summary.get('degraded')} degraded"
        )
    if digest(list(result.get("reports") or [])) != expected["reports"]["plain"]:
        failures.append("plain report digest mismatch")
    return failures
