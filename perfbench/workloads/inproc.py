"""search-bound and bv10-cold: one in-process client, closed loop.

The program is imported and the inputs are loaded once, in the
benchmark process. Each operation then runs in a forked child of that
process, so every operation starts from the same interpreter state —
the same heap, the same collector generations — instead of inheriting
the fragments and garbage of the operations before it; its peak
resident set is the child's. Every operation is probed just before the
fork and just after the child exits, and those probes scale it. The
child times only the analysis; the outcome check and the counterexample
re-validation run in the child after that, and the cache clean-up in
the parent.
"""

from __future__ import annotations

import gc
import os
import pickle
import shutil
import signal
import time
import tracemalloc
from pathlib import Path
from typing import Any, Callable

from perfbench import outcomes, pipeline
from perfbench.measure import MB, LayerTally, Op, OpTrace, Pass
from perfbench.prepare import Context
from perfbench.probe import Probe, factor
from perfbench.trace import NULL, Tracer


class Validator:
    """Re-proves counterexamples with the independent validator.

    Identical rendered reports come from identical counterexamples, so
    each (grammar, report digest) is re-proved once per run: forked
    operations inherit ``seen`` and send new entries back.
    """

    def __init__(self) -> None:
        self.seen: dict[tuple[str, str], list[str]] = {}

    def failures(self, name: str, analysis: pipeline.Analysis) -> tuple[tuple[str, str], list[str]]:
        from repro.verify.validate import validate_counterexample

        key = (name, outcomes.digest(analysis.blocks))
        if key not in self.seen:
            self.seen[key] = [
                f"state {report.conflict.state_id}: counterexample fails validation"
                for report in analysis.summary.reports
                if report.counterexample is not None
                and not validate_counterexample(analysis.grammar, report.counterexample).ok
            ]
        return key, self.seen[key]


def in_child(work: Callable[[], Any]) -> tuple[Any, float]:
    """Run *work* in a forked child; returns its result and the child's
    peak resident set in MB. The in-process workloads start no threads,
    so forking here is safe. Raises ``RuntimeError`` if the child fails."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 0
        try:
            os.close(read_fd)
            payload = pickle.dumps((True, work()))
        except BaseException as error:  # noqa: BLE001 — report, then always exit
            payload = pickle.dumps((False, f"{type(error).__qualname__}: {error}"))
            status = 1
        try:
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            data = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    _, status, usage = os.wait4(pid, 0)
    ok, value = pickle.loads(data) if data else (False, f"child died with status {status}")
    if not ok:
        raise RuntimeError(f"operation failed in its child: {value}")
    return value, usage.ru_maxrss / 1024


def _cold_cache(context: Context, index: int) -> Path | None:
    if context.workload.name != "bv10-cold":
        return None
    path = context.work / "cold" / str(index)
    path.mkdir(parents=True)
    return path


def _entry_bytes(analysis: pipeline.Analysis, cache_dir: Path | None) -> int:
    if cache_dir is None:
        return 0
    from repro.perf.cache import grammar_fingerprint

    fingerprint = grammar_fingerprint(analysis.grammar, analysis.automaton.algorithm)
    return (cache_dir / f"{fingerprint}.json").stat().st_size


def run_pass(
    probe: Probe,
    context: Context,
    sequence: list[str],
    expected: dict,
    traced: bool,
) -> tuple[Pass, LayerTally | None, list]:
    """Run *sequence*; traced passes also return per-layer figures and spans."""
    from repro.perf import metrics

    validator = Validator()
    ambiguity = context.workload.name == "bv10-cold"
    mode = "ambiguity" if ambiguity else "plain"
    tally = LayerTally() if traced else None
    all_spans: list = []
    ops: list[Op] = []
    peak = 0.0
    for index, name in enumerate(sequence):
        cache_dir = _cold_cache(context, index)

        def operation() -> dict[str, Any]:
            tracer = Tracer(index) if traced else NULL
            collector = metrics.enable() if traced else None
            started = time.perf_counter()
            with tracer.span("op"):
                analysis = pipeline.analyse(
                    context.texts[name], name, cache_dir, ambiguity, tracer=tracer
                )
            elapsed = time.perf_counter() - started
            metrics.disable()
            failures = outcomes.check_summary(expected[name], mode, analysis.summary, analysis.blocks)
            key, invalid = validator.failures(name, analysis)
            result = {"elapsed": elapsed, "failures": failures + invalid, "validated": (key, invalid)}
            if traced:
                result["trace"] = OpTrace.of(
                    tracer.spans, collector, analysis.summary, _entry_bytes(analysis, cache_dir)
                )
            return result

        # The children inherit an empty young generation, so which op
        # pays for a collection does not depend on the ones before it.
        gc.collect()
        before = probe.sample()
        started = time.perf_counter()
        try:
            result, rss = in_child(operation)
        except RuntimeError as error:
            # Counted against the attempted ops, timed from the fork.
            result, rss = {"elapsed": time.perf_counter() - started, "failures": [str(error)]}, 0.0
        finally:
            if cache_dir is not None:
                shutil.rmtree(cache_dir)
        scale = factor(before, probe.sample())
        peak = max(peak, rss)
        if "validated" in result:
            key, invalid = result["validated"]
            validator.seen[key] = invalid
        ops.append(Op(name, result["elapsed"], result["elapsed"] * scale, result["failures"]))
        if traced and "trace" in result:
            tally.add(name, scale, result["trace"])
            all_spans.append(result["trace"].spans)
    run = Pass(ops, sum(op.scaled_s for op in ops), peak)
    return run, tally, all_spans


def shadow(
    probe: Probe,
    context: Context,
    name: str,
    op_id: int,
    tally: LayerTally,
    spans: list,
    finder_options: dict[str, Any] | None = None,
) -> None:
    """Trace one in-process analysis mirroring a subprocess operation.

    Subprocess workloads cannot be traced from inside without changing
    the program, so their per-layer figures come from this twin: the
    same grammar text through the same pipeline against the same warm
    cache, probed like an operation.
    """
    from repro.perf import metrics

    tracer = Tracer(op_id)
    before = probe.sample()
    collector = metrics.enable()
    try:
        with tracer.span("op"):
            analysis = pipeline.analyse(
                context.texts[name], name, context.cache_dir,
                finder_options=finder_options, tracer=tracer,
            )
    finally:
        metrics.disable()
    after = probe.sample()
    trace = OpTrace.of(
        tracer.spans, collector, analysis.summary, _entry_bytes(analysis, context.cache_dir)
    )
    tally.add(name, factor(before, after), trace)
    spans.append(tracer.spans)


def _reset_peak() -> int:
    tracemalloc.reset_peak()
    return tracemalloc.get_traced_memory()[0]


def _peak_since(base: int) -> float:
    """MB allocated at the peak since :func:`_reset_peak` returned *base*."""
    return (tracemalloc.get_traced_memory()[1] - base) / MB


def peak_alloc(context: Context, grammars: list[str]) -> dict[str, float]:
    """Peak allocation of the build and of the finder pass, in MB above
    what was allocated when each began.

    Measured in a repeat of its own under ``tracemalloc`` so that no
    timing is taken while it slows every allocation down. Workloads with
    a warm cache read their automatons from it, as their operations do,
    and build nothing.
    """
    from repro.automaton import build_automaton
    from repro.core import CounterexampleFinder
    from repro.grammar import load_grammar, normalize_algorithm
    from repro.perf.cache import AutomatonCache

    build_peak = search_peak = 0.0
    tracemalloc.start()
    try:
        for name in grammars:
            grammar = load_grammar(context.texts[name], name=name)
            algorithm = normalize_algorithm(grammar.table_algorithm)
            automaton = (
                AutomatonCache(context.cache_dir).get(grammar, algorithm)
                if context.cache_dir is not None
                else None
            )
            if automaton is None:
                base = _reset_peak()
                automaton = build_automaton(grammar, algorithm)
                automaton.conflicts
                build_peak = max(build_peak, _peak_since(base))
            if automaton.conflicts:
                base = _reset_peak()
                CounterexampleFinder(automaton).explain_all()
                search_peak = max(search_peak, _peak_since(base))
            del grammar, automaton
    finally:
        tracemalloc.stop()
    return {"automaton.peak_alloc_mb": build_peak, "search.peak_alloc_mb": search_peak}
