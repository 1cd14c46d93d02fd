"""Set-up: everything a workload does before its first timed operation.

Set-up is deterministic work with no sleep-polling: import the program,
load the workload's corpus grammars and emit them as DSL text (the only
input the program receives), and, per workload, write the grammar files,
fill the automaton cache in-process and boot the server (ready when it
prints its ``listening on`` line).
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from perfbench.ops import Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def program_env() -> dict[str, str]:
    """The environment of program subprocesses: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Context:
    workload: Workload
    work: Path
    #: Grammar name -> DSL text (the generated inputs).
    texts: dict[str, str]
    #: Grammar name -> DSL file (cli-warm).
    files: dict[str, Path] = field(default_factory=dict)
    #: The warm automaton cache (cli-warm, service-closed).
    cache_dir: Path | None = None
    #: The running service (service-closed).
    server: Any = None

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()


def setup(workload: Workload, work: Path) -> Context:
    """Run *workload*'s set-up in *work* (created empty by the caller)."""
    from repro.corpus import registry
    from repro.grammar import load_grammar, load_grammar_file
    from repro.grammar.emit import dump_grammar
    from repro.perf.cache import AutomatonCache, build_automaton_cached

    # Everything an operation imports, so no timed op pays for an import.
    import perfbench.pipeline  # noqa: F401
    from repro.analysis import analyze_conflicts  # noqa: F401
    from repro.core import CounterexampleFinder, safe_format_report  # noqa: F401
    from repro.verify.validate import validate_counterexample  # noqa: F401

    texts = {name: dump_grammar(registry.load(name)) for name in workload.grammars}
    context = Context(workload=workload, work=work, texts=texts)
    if workload.name == "cli-warm":
        context.cache_dir = work / "cache"
        cache = AutomatonCache(context.cache_dir)
        for name, text in texts.items():
            path = work / "grammars" / f"{name}.y"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
            context.files[name] = path
            build_automaton_cached(load_grammar_file(str(path)), cache)
    elif workload.name == "service-closed":
        from perfbench.workloads.service import Server

        context.cache_dir = work / "cache"
        cache = AutomatonCache(context.cache_dir)
        for name, text in texts.items():
            build_automaton_cached(load_grammar(text, name=name), cache)
        context.server = Server(work)
        context.server.start()
    return context


def setup_only(workload: Workload, work: Path) -> int:
    """The body of one timed set-up sample: set up, say ``ready``, tear down."""
    context = setup(workload, work)
    try:
        sys.stdout.write("ready\n")
        sys.stdout.flush()
    finally:
        context.close()
    return 0
