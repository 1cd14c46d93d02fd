"""Regenerate ``expected.json``, the benchmark's pinned outcomes.

Usage (from the repository root)::

    python3 perfbench/pin.py [--check]

Analyses every grammar of every workload through the benchmark's own
pipeline (from the emitted DSL text, as the operations do), re-proves
each counterexample with ``repro.verify.validate.validate_counterexample``
and cross-checks the outcome against the corpus registry: an
unambiguous grammar never has a unifying counterexample, and where the
reconstruction's conflict count equals its Table 1 row, the unifying /
nonunifying / timed-out split must equal the row too. ``--check``
compares with the committed file instead of writing it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import outcomes, pipeline  # noqa: E402
from perfbench.ops import EXCLUDED, WORKLOADS  # noqa: E402
from perfbench.run import OUTPUT, prepare_imports  # noqa: E402


def pin_grammar(name: str, ambiguity: bool) -> tuple[dict, list[str]]:
    from repro.corpus import registry
    from repro.grammar.emit import dump_grammar
    from repro.verify.validate import validate_counterexample

    spec = registry.get(name)
    text = dump_grammar(spec.load())
    problems: list[str] = []
    plain = pipeline.analyse(text, name)
    summary = plain.summary
    entry = {
        "conflicts": summary.num_conflicts,
        "unifying": summary.num_unifying,
        "nonunifying": summary.num_nonunifying,
        "timed_out": summary.num_timeout,
        "reports": {"plain": outcomes.digest(plain.blocks)},
    }
    if summary.num_stub or any(report.degradations for report in summary.reports):
        problems.append("stub or degraded report")
    for report in summary.reports:
        if report.counterexample is not None:
            result = validate_counterexample(plain.grammar, report.counterexample)
            if not result.ok:
                problems.append(f"state {report.conflict.state_id}: {result.describe()}")
    if not spec.ambiguous and summary.num_unifying:
        problems.append("registry says unambiguous, yet a unifying counterexample exists")
    row = spec.paper
    if row is not None and row.conflicts == summary.num_conflicts:
        published = (row.unifying, row.nonunifying, row.timeouts)
        measured = (summary.num_unifying, summary.num_nonunifying, summary.num_timeout)
        if published != measured:
            problems.append(f"Table 1 row {published} != measured {measured}")
        entry["table1_row_matches"] = True
    if ambiguity:
        cache_dir = OUTPUT / f"pin-{os.getpid()}"
        cache_dir.mkdir(parents=True)
        try:
            annotated = pipeline.analyse(text, name, cache_dir, ambiguity=True)
        finally:
            shutil.rmtree(cache_dir)
        entry["reports"]["ambiguity"] = outcomes.digest(annotated.blocks)
        verdicts: dict[str, int] = {}
        for report in annotated.summary.reports:
            key = report.ambiguity.verdict.value
            verdicts[key] = verdicts.get(key, 0) + 1
        entry["verdicts"] = dict(sorted(verdicts.items()))
        if not spec.ambiguous and verdicts.get("ambiguous"):
            problems.append("registry says unambiguous, yet the SR walk proved ambiguity")
    return entry, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    prepare_imports()
    names = sorted({name for workload in WORKLOADS.values() for name in workload.grammars})
    ambiguity = set(WORKLOADS["bv10-cold"].grammars)
    grammars: dict[str, dict] = {}
    failed = False
    for name in names:
        if name in EXCLUDED:
            print(f"{name}: excluded ({EXCLUDED[name]})", file=sys.stderr)
            failed = True
            continue
        entry, problems = pin_grammar(name, name in ambiguity)
        grammars[name] = entry
        for problem in problems:
            print(f"{name}: {problem}", file=sys.stderr)
        failed = failed or bool(problems)
    if failed:
        return 1
    document = {"schema": outcomes.SCHEMA, "grammars": grammars}
    text = json.dumps(document, indent=1, sort_keys=True) + "\n"
    if args.check:
        current = outcomes.EXPECTED_PATH.read_text(encoding="utf-8")
        if current != text:
            print("expected.json is out of date", file=sys.stderr)
            return 1
        print(f"expected.json matches ({len(grammars)} grammars)")
        return 0
    outcomes.EXPECTED_PATH.write_text(text, encoding="utf-8")
    print(f"wrote {outcomes.EXPECTED_PATH.name} ({len(grammars)} grammars)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
