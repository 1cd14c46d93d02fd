"""Operation records, the end-to-end metrics and the per-layer tally."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any

from perfbench import stats
from perfbench.trace import Span, own_times

MB = 1024.0 * 1024.0


@dataclass
class Op:
    """One timed operation: a request for one grammar's report."""

    grammar: str
    raw_s: float
    #: Raw seconds times the probe factor of the interval (reference seconds).
    scaled_s: float
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class Pass:
    """One closed-loop pass over an operation sequence."""

    ops: list[Op]
    #: Reference seconds the system under test was busy with the ops.
    busy_s: float
    peak_rss_mb: float


def end_to_end(run: Pass) -> tuple[dict[str, float], dict[str, Any]]:
    """The end-to-end metrics of *run* (minus ``setup_s``) and their notes.

    Notes carry the sample count, the tail percentile and whether the
    median and tail ranks sit inside one grammar-cost plateau.
    """
    latencies = [op.scaled_s for op in run.ops]
    completed = len(run.ops)
    correct = sum(1 for op in run.ops if op.ok)
    percentile, tail_value, tail_rank = stats.tail(latencies)
    metrics = {
        "throughput_ops_s": completed / run.busy_s,
        "goodput_ops_s": correct / run.busy_s,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
        "peak_rss_mb": run.peak_rss_mb,
    }
    notes = {
        "samples": completed,
        "tail_percentile": percentile,
        "p50_on_plateau": stats.flat_at(latencies, stats.median_ranks(completed)),
        "tail_on_plateau": stats.flat_at(latencies, (tail_rank,)),
    }
    return metrics, notes


#: Program metric spans (``repro.perf.metrics`` paths, matched as a
#: suffix so nesting under another span does not hide them) per metric.
PROGRAM_SPANS = {
    "automaton.lr0_s": "automaton/lr0",
    "automaton.lookaheads_s": "automaton/lookaheads",
    "automaton.tables_s": "tables",
    "cache.encode_s": "cache/encode",
    "cache.decode_s": "cache/decode",
    "lasg.s": "explain/lasg",
    "search.s": "explain/search",
    "verify.s": "explain/verify",
    "nonunifying.s": "explain/nonunifying",
    "analysis.sr_s": "analysis/sr",
    "analysis.walk_s": "analysis/walk",
}

#: Benchmark spans (see :mod:`perfbench.pipeline`) per metric.
BENCH_SPANS = {
    "grammar.load_s": "grammar.load",
    "automaton.build_s": "automaton.build",
    "cache.get_s": "cache.get",
    "cache.put_s": "cache.put",
    "report.format_s": "report.format",
}


@dataclass
class OpTrace:
    """What one traced operation leaves for the tally.

    Plain data, so an operation run in a forked child can send it back.
    """

    spans: list[Span]
    #: ``repro.perf.metrics`` span path -> ``[count, total seconds]``.
    program_spans: dict[str, list]
    counters: dict[str, int]
    #: Per conflict: (state, terminal, rung, explored, searched, unifying, degraded).
    conflicts: list[tuple[int, str, str, int, bool, bool, bool]]
    entry_bytes: int = 0

    @classmethod
    def of(cls, spans: list[Span], collector: Any, summary: Any, entry_bytes: int = 0) -> "OpTrace":
        conflicts = [
            (
                report.conflict.state_id,
                str(report.conflict.terminal),
                report.rung.value,
                report.stats.explored if report.stats is not None else 0,
                report.stats is not None,
                report.counterexample is not None and report.counterexample.unifying,
                bool(report.degradations),
            )
            for report in summary.reports
        ]
        return cls(spans, dict(collector.spans), dict(collector.counters), conflicts, entry_bytes)

    def span_total(self, suffix: str, index: int = 1) -> float:
        """Program spans whose path is or ends in *suffix*: total seconds
        (``index=1``) or number of calls (``index=0``)."""
        return sum(
            cell[index]
            for path, cell in self.program_spans.items()
            if path == suffix or path.endswith("/" + suffix)
        )


class LayerTally:
    """Accumulates the per-layer figures of a traced pass, op by op.

    Times are scaled by each operation's probe factor; figures are
    reported per operation (totals divided by the operations tallied),
    so they do not depend on how many rounds the pass ran.
    """

    def __init__(self) -> None:
        self.ops = 0
        self.times: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.self_times: dict[str, float] = {}
        self.explain_s: list[float] = []
        #: (grammar, state, terminal, rung) -> [scaled explain s, explored]
        self.conflicts: dict[tuple[str, int, str, str], list] = {}
        self.degraded = 0
        self.entry_bytes = 0
        self.searches = 0
        self.unifying = 0
        #: Workload-specific figures taken outside the pipeline.
        self.extra: dict[str, float] = {}

    def _add_time(self, key: str, seconds: float) -> None:
        self.times[key] = self.times.get(key, 0.0) + seconds

    def _add_count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def add(self, grammar: str, factor: float, trace: OpTrace) -> None:
        """Tally one operation of *grammar* whose probe factor is *factor*."""
        self.ops += 1
        for metric, suffix in PROGRAM_SPANS.items():
            self._add_time(metric, factor * trace.span_total(suffix))
        self._add_count("verify.calls", int(trace.span_total("explain/verify", index=0)))
        for name in (
            "automaton.items",
            "automaton.states",
            "search.configurations.explored",
            "search.configurations.enqueued",
            "lasg.vertices.materialized",
            "lasg.successors.hit",
            "lasg.successors.miss",
            "cache.hit",
            "cache.miss",
            "analysis.verdict.ambiguous",
            "analysis.verdict.unambiguous",
            "analysis.verdict.inconclusive",
        ):
            self._add_count(name, trace.counters.get(name, 0))
        spans = trace.spans
        for span, own in zip(spans, own_times(spans)):
            self.self_times[span.name] = self.self_times.get(span.name, 0.0) + factor * own
        for metric, name in BENCH_SPANS.items():
            self._add_time(
                metric, factor * sum(s.duration for s in spans if s.name == name)
            )
        explains = [factor * s.duration for s in spans if s.name == "finder.explain"]
        self.explain_s.extend(explains)
        for row, seconds in zip(trace.conflicts, explains):
            state, terminal, rung, explored, searched, unifying, degraded = row
            self.conflicts.setdefault((grammar, state, terminal, rung), []).append((seconds, explored))
            self.searches += searched
            self.unifying += searched and unifying
            self.degraded += degraded
        self.entry_bytes += trace.entry_bytes

    def metrics(self) -> dict[str, float]:
        per_op = max(self.ops, 1)
        times = {key: value / per_op for key, value in self.times.items()}
        counts = self.counts
        lookups = counts["cache.hit"] + counts["cache.miss"]
        lasg_lookups = counts["lasg.successors.hit"] + counts["lasg.successors.miss"]
        verdicts = sum(counts[f"analysis.verdict.{v}"] for v in ("ambiguous", "unambiguous", "inconclusive"))
        build = self.times.get("automaton.build_s", 0.0)
        search = self.times.get("search.s", 0.0)
        return {
            **times,
            "automaton.items": counts["automaton.items"] / per_op,
            "automaton.states": counts["automaton.states"] / per_op,
            "automaton.items_per_s": counts["automaton.items"] / build if build else 0.0,
            "cache.entry_bytes": self.entry_bytes / per_op,
            "cache.hit_ratio": counts["cache.hit"] / lookups if lookups else 0.0,
            "lasg.vertices_materialized": counts["lasg.vertices.materialized"] / per_op,
            "lasg.successor_hit_ratio": (
                counts["lasg.successors.hit"] / lasg_lookups if lasg_lookups else 0.0
            ),
            "search.configurations_explored": counts["search.configurations.explored"] / per_op,
            "search.configurations_enqueued": counts["search.configurations.enqueued"] / per_op,
            "search.configurations_per_s": (
                counts["search.configurations.explored"] / search if search else 0.0
            ),
            "search.unifying_ratio": self.unifying / self.searches if self.searches else 0.0,
            "verify.calls": counts["verify.calls"] / per_op,
            "finder.conflict_p50_s": statistics.median(self.explain_s) if self.explain_s else 0.0,
            "finder.conflict_max_s": max(self.explain_s, default=0.0),
            "finder.degraded": float(self.degraded),
            "analysis.decided_ratio": (
                (counts["analysis.verdict.ambiguous"] + counts["analysis.verdict.unambiguous"])
                / verdicts
                if verdicts
                else 0.0
            ),
            **self.extra,
        }

    def conflict_rows(self) -> list[dict[str, Any]]:
        """One row per conflict: median explain time over its repeats."""
        rows = []
        for (grammar, state, terminal, rung), samples in self.conflicts.items():
            rows.append(
                {
                    "grammar": grammar,
                    "state": state,
                    "terminal": terminal,
                    "rung": rung,
                    "explain_s": statistics.median(s for s, _ in samples),
                    "explored": samples[0][1],
                }
            )
        rows.sort(key=lambda row: (row["grammar"], row["state"], row["terminal"]))
        return rows
