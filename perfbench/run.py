"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in :mod:`perfbench.ops`. With ``--trace 0`` the
run measures the end-to-end metrics; with ``--trace 1`` it measures an
untraced and a traced pass, then a ``tracemalloc`` repeat, and reports
the per-layer metrics, the self time per layer, the tracing overhead and
one row per conflict. Every operation is checked against the pinned
outcomes in ``perfbench/expected.json``. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (``{name: {"value", "unit"}}``).

Timings are in reference seconds (see :mod:`perfbench.probe`). Scratch
files go to ``.perfbench/`` in the checkout; span traces and a per-run
detail file stay there after the run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.ops import WORKLOADS, Workload, op_sequence, rounds_for  # noqa: E402
from perfbench.prepare import SRC, program_env, setup, setup_only  # noqa: E402
from perfbench.probe import Probe, factor  # noqa: E402

OUTPUT = ROOT / ".perfbench"
HASH_SEED = "0"

#: Set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 120.0

END_TO_END_UNITS = {
    "throughput_ops_s": "1/s",
    "goodput_ops_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.process_s": "s",
    "grammar.load_s": "s",
    "automaton.build_s": "s",
    "automaton.lr0_s": "s",
    "automaton.lookaheads_s": "s",
    "automaton.tables_s": "s",
    "automaton.items": "count",
    "automaton.states": "count",
    "automaton.items_per_s": "1/s",
    "automaton.peak_alloc_mb": "MB",
    "cache.put_s": "s",
    "cache.encode_s": "s",
    "cache.entry_bytes": "B",
    "cache.get_s": "s",
    "cache.decode_s": "s",
    "cache.hit_ratio": "ratio",
    "lasg.s": "s",
    "lasg.vertices_materialized": "count",
    "lasg.successor_hit_ratio": "ratio",
    "search.s": "s",
    "search.configurations_explored": "count",
    "search.configurations_enqueued": "count",
    "search.configurations_per_s": "1/s",
    "search.unifying_ratio": "ratio",
    "search.peak_alloc_mb": "MB",
    "verify.s": "s",
    "verify.calls": "count",
    "nonunifying.s": "s",
    "finder.conflict_p50_s": "s",
    "finder.conflict_max_s": "s",
    "finder.degraded": "count",
    "report.format_s": "s",
    "analysis.sr_s": "s",
    "analysis.walk_s": "s",
    "analysis.decided_ratio": "ratio",
    "service.worker_s": "s",
    "service.overhead_s": "s",
    "service.attempts_per_job": "count",
    "service.shed": "count",
    "service.journal_bytes": "B",
    "machine.probe_s": "s",
}


class BenchmarkError(RuntimeError):
    pass


def prepare_imports() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _raise_exit(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


def measure_setup(workload: Workload, probe: Probe) -> list[float]:
    """Time :data:`SETUP_SAMPLES` fresh set-ups, each in its own process,
    from spawn to its ``ready`` line; returns reference seconds."""
    samples = []
    for index in range(SETUP_SAMPLES):
        work = OUTPUT / f"setup-{workload.name}-{os.getpid()}-{index}"
        work.mkdir(parents=True)
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", workload.name, "--work", str(work),
        ]
        try:
            with (work.parent / f"{work.name}.err").open("w+b") as errors:
                before = probe.sample()
                started = time.perf_counter()
                process = subprocess.Popen(
                    argv, stdout=subprocess.PIPE, stderr=errors, env=program_env(),
                    cwd=ROOT, text=True,
                )
                try:
                    line = process.stdout.readline()
                    elapsed = time.perf_counter() - started
                    process.stdout.read()
                    process.wait(timeout=SETUP_TIMEOUT_S)
                finally:
                    if process.poll() is None:
                        process.kill()
                        process.wait()
                    process.stdout.close()
                after = probe.sample()
                if line.strip() != "ready" or process.returncode != 0:
                    errors.seek(0)
                    detail = errors.read().decode(errors="replace").strip().splitlines()[-3:]
                    raise BenchmarkError(f"set-up sample failed: {' | '.join(detail)}")
            samples.append(elapsed * factor(before, after))
        finally:
            shutil.rmtree(work, ignore_errors=True)
            (work.parent / f"{work.name}.err").unlink(missing_ok=True)
    return samples


def _runner(workload: Workload):
    if workload.name == "cli-warm":
        from perfbench.workloads import cli

        return cli.run_pass
    if workload.name == "service-closed":
        from perfbench.workloads import service

        return service.run_pass
    from perfbench.workloads import inproc

    return inproc.run_pass


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench import outcomes
    from perfbench.measure import end_to_end
    from perfbench.trace import write_spans

    probe = Probe()
    setup_samples = measure_setup(workload, probe)
    expected = outcomes.load_expected()
    work = OUTPUT / f"work-{workload.name}-{os.getpid()}"
    work.mkdir(parents=True)
    run_pass = _runner(workload)
    rounds = rounds_for(workload, seconds)
    result: dict = {"workload": workload.name, "seed": seed, "trace": trace}
    try:
        context = setup(workload, work)
        try:
            if not trace:
                sequence = op_sequence(workload.grammars, seed, rounds)
                timed, _, _ = run_pass(probe, context, sequence, expected, False)
            else:
                half = max(workload.min_rounds, (rounds + 1) // 2)
                sequence = op_sequence(workload.grammars, seed, 2 * half)
                middle = len(sequence) // 2
                timed, _, _ = run_pass(probe, context, sequence[:middle], expected, False)
                traced, tally, spans = run_pass(probe, context, sequence[middle:], expected, True)
                from perfbench.workloads.inproc import peak_alloc

                tally.extra.update(peak_alloc(context, list(workload.grammars)))
        finally:
            context.close()
        if context.server is not None:
            timed.peak_rss_mb = context.server.peak_rss_mb
            if trace:
                traced.peak_rss_mb = context.server.peak_rss_mb
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics, notes = end_to_end(timed)
    metrics["setup_s"] = statistics.median(setup_samples)
    result.update(
        rounds=len(timed.ops) // len(workload.grammars),
        ops=len(timed.ops),
        metrics=metrics,
        notes=notes,
        setup_samples=setup_samples,
        probe_readings=probe.readings,
        raw_p50_s=statistics.median(op.raw_s for op in timed.ops),
        op_records=[
            {"grammar": op.grammar, "raw_s": op.raw_s, "scaled_s": op.scaled_s, "failures": op.failures}
            for op in timed.ops
        ],
    )
    attempted = len(timed.ops)
    failed = sum(1 for op in timed.ops if not op.ok)
    if trace:
        traced_metrics, traced_notes = end_to_end(traced)
        attempted += len(traced.ops)
        failed += sum(1 for op in traced.ops if not op.ok)
        layers = tally.metrics()
        layers["machine.probe_s"] = statistics.median(probe.readings)
        for name in PER_LAYER_UNITS:
            layers.setdefault(name, 0.0)
        spans_path = OUTPUT / "traces" / f"{workload.name}-seed{seed}.jsonl"
        write_spans(spans_path, spans)
        result.update(
            layers=layers,
            traced_metrics=traced_metrics,
            traced_notes=traced_notes,
            overhead={key: traced_metrics[key] - metrics[key] for key in traced_metrics},
            self_times={
                name: seconds / tally.ops for name, seconds in sorted(tally.self_times.items())
            },
            conflict_rows=tally.conflict_rows(),
            spans_path=str(spans_path.relative_to(ROOT)),
        )
    result.update(attempted=attempted, failed=failed)
    result["failures"] = [
        f"{op.grammar}: {'; '.join(op.failures)}"
        for op in timed.ops + (traced.ops if trace else [])
        if op.failures
    ]
    return result


def _print_human(result: dict) -> None:
    notes = result["notes"]
    print(
        f"workload {result['workload']}  seed {result['seed']}  "
        f"{result['rounds']} rounds, {result['ops']} timed ops  trace {int(result['trace'])}"
    )
    for name, value in result["metrics"].items():
        unit = END_TO_END_UNITS[name]
        if name == "setup_s":
            detail = f"median of {len(result['setup_samples'])} set-ups"
        elif name == "latency_tail_s":
            detail = f"p{notes['tail_percentile']:.1f}, n={notes['samples']}"
        else:
            detail = f"n={notes['samples']}"
        print(f"  {name:<18} {value:>12.6f} {unit:<4} ({detail})")
    print(f"  attempted {result['attempted']}  failed {result['failed']}")
    print(
        f"  raw latency p50 {result['raw_p50_s']:.6f} s; machine.probe_s median "
        f"{statistics.median(result['probe_readings']):.6f} s over "
        f"{len(result['probe_readings'])} readings"
    )
    print(
        f"  p50 rank on one plateau: {notes['p50_on_plateau']}; "
        f"tail rank on one plateau: {notes['tail_on_plateau']}"
    )
    if not result["trace"]:
        return
    print("  tracing overhead (traced - untraced):")
    for name, value in result["overhead"].items():
        print(f"    {name:<18} {value:+.6f} {END_TO_END_UNITS[name]}")
    print("  self time per layer (reference s per op):")
    for name, seconds in result["self_times"].items():
        print(f"    {name:<18} {seconds:.6f}")
    print("  per-conflict rows (grammar, state, terminal, rung, explain s, explored):")
    for row in result["conflict_rows"]:
        print(
            f"    {row['grammar']:<18} #{row['state']:<5} {row['terminal']:<14} "
            f"{row['rung']:<12} {row['explain_s']:.6f} {row['explored']}"
        )
    print("  per-layer metrics:")
    for name, value in result["layers"].items():
        print(f"    {name:<32} {value:.6f} {PER_LAYER_UNITS[name]}")
    print(f"  spans: {result['spans_path']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    signal.signal(signal.SIGTERM, _raise_exit)
    try:
        prepare_imports()
        if args.setup_only:
            return setup_only(workload, Path(args.work))
        # Byte-compile once, untimed, so no set-up sample pays for it.
        compileall.compile_dir(str(SRC), quiet=1)
        result = run(workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    detail = OUTPUT / "runs" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    detail.parent.mkdir(parents=True, exist_ok=True)
    detail.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for failure in result["failures"][:20]:
        print(f"failed op: {failure}", file=sys.stderr)
    _print_human(result)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    values = result["layers"] if args.trace else result["metrics"]
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # A fixed string-hash seed makes dict layouts, and with them
        # memory peaks and timings, repeat from run to run.
        environment = {**os.environ, "PYTHONHASHSEED": HASH_SEED}
        os.execve(sys.executable, [sys.executable, *sys.orig_argv[1:]], environment)
    sys.exit(main())
