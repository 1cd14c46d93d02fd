"""The in-process analysis an operation performs, with layer spans.

:func:`analyse` takes one grammar's DSL text to its rendered reports
the way ``repro-conflicts FILE [--cache-dir D] [--ambiguity]`` does:
load, cache lookup, LALR build on a miss and store, one finder pass,
the optional SR-walk verdicts, and report rendering. It calls each
layer's public function directly so a :class:`~perfbench.trace.Tracer`
can put a span around every call; with :data:`~perfbench.trace.NULL`
the same code runs untraced.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

from perfbench.trace import NULL

#: Finder settings of the service worker's defaults (``AnalyzeOptions``).
SERVICE_FINDER = {"time_limit": 2.0, "cumulative_limit": 30.0, "max_configurations": 500_000}


@dataclass
class Analysis:
    grammar: Any
    automaton: Any
    summary: Any
    blocks: list[str]


def analyse(
    text: str,
    name: str,
    cache_dir: Path | None = None,
    ambiguity: bool = False,
    finder_options: dict[str, Any] | None = None,
    tracer: Any = NULL,
) -> Analysis:
    from repro.analysis import analyze_conflicts
    from repro.automaton import build_automaton
    from repro.core import CounterexampleFinder, FinderSummary, safe_format_report
    from repro.grammar import load_grammar, normalize_algorithm
    from repro.perf.cache import AutomatonCache

    with tracer.span("grammar.load"):
        grammar = load_grammar(text, name=name)
    algorithm = normalize_algorithm(grammar.table_algorithm)
    cache = AutomatonCache(cache_dir) if cache_dir is not None else None
    automaton = None
    if cache is not None:
        with tracer.span("cache.get"):
            automaton = cache.get(grammar, algorithm)
    if automaton is None:
        with tracer.span("automaton.build"):
            automaton = build_automaton(grammar, algorithm)
            conflicts = automaton.conflicts
        if cache is not None:
            with tracer.span("cache.put"):
                cache.put(grammar, automaton)
    else:
        conflicts = automaton.conflicts

    if conflicts:
        with tracer.span("finder"):
            finder = CounterexampleFinder(automaton, **(finder_options or {}))
            tracer.wrap(finder, "explain", "finder.explain")
            summary = finder.explain_all()
    else:
        summary = FinderSummary(grammar_name=grammar.name)

    if ambiguity and conflicts:
        verdicts = None
        if cache is not None:
            with tracer.span("cache.get"):
                verdicts = cache.get_verdicts(grammar, automaton)
        if verdicts is None:
            with tracer.span("analysis"):
                verdicts = analyze_conflicts(automaton)
            if cache is not None:
                with tracer.span("cache.put"):
                    cache.put_verdicts(grammar, automaton, verdicts)
        for report in summary.reports:
            verdict = verdicts.get(report.conflict)
            if verdict is not None:
                report.ambiguity = verdict

    with tracer.span("report.format"):
        blocks = [safe_format_report(report) for report in summary.reports]
    return Analysis(grammar, automaton, summary, blocks)
