"""cli-warm: one ``repro-conflicts FILE --cache-dir D`` process per op.

The grammar files and their cache entries are written during set-up, so
every operation is a warm-cache run: interpreter start, imports, the
cache read side, a short finder pass and report rendering. The drift
probe runs in the benchmark process between operations, while no
program process is alive.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time

from perfbench import outcomes
from perfbench.probe import Probe, factor
from perfbench.measure import MB, LayerTally, Op, Pass
from perfbench.prepare import Context, program_env
from perfbench.workloads.inproc import shadow

#: ``-X importtime`` lines: ``import time: <self us> | <cumulative us> | <name>``.
_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")


def import_seconds(stderr: str) -> float:
    """Seconds spent importing ``repro`` and its modules, per ``-X importtime``.

    Sums the cumulative time of every outermost import of a ``repro``
    module: the package itself and, through it, everything the CLI pulls
    in (stdlib modules imported first by the interpreter do not count).
    """
    total = 0
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match and len(match[3]) == 1 and match[4].split(".")[0] == "repro":
            total += int(match[2])
    return total / 1e6


def run_op(context: Context, name: str, traced: bool) -> tuple[float, int, str, str, float]:
    """One CLI process: (seconds, exit code, stdout, stderr, peak RSS MB)."""
    argv = [sys.executable]
    if traced:
        argv += ["-X", "importtime"]
    argv += ["-m", "repro", str(context.files[name]), "--cache-dir", str(context.cache_dir)]
    errors_path = context.work / "cli.err"
    with errors_path.open("w+b") as errors:
        started = time.perf_counter()
        process = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=errors, env=program_env(),
            cwd=context.work,
        )
        try:
            stdout = process.stdout.read()
            # wait4, not Popen.wait: it also returns the child's rusage.
            _, status, usage = os.wait4(process.pid, 0)
        except BaseException:
            process.kill()
            process.wait()
            raise
        finally:
            process.stdout.close()
        elapsed = time.perf_counter() - started
        process.returncode = os.waitstatus_to_exitcode(status)
        errors.seek(0)
        stderr = errors.read().decode("utf-8", errors="replace")
    return (
        elapsed,
        process.returncode,
        stdout.decode("utf-8", errors="replace"),
        stderr,
        usage.ru_maxrss * 1024 / MB,
    )


def run_pass(
    probe: Probe, context: Context, sequence: list[str], expected: dict, traced: bool
) -> tuple[Pass, LayerTally | None, list]:
    ops: list[Op] = []
    peak = 0.0
    tally = LayerTally() if traced else None
    spans: list = []
    imports: list[float] = []
    processes: list[float] = []
    for index, name in enumerate(sequence):
        before = probe.sample()
        elapsed, code, stdout, stderr, rss = run_op(context, name, traced)
        after = probe.sample()
        scale = factor(before, after)
        failures = outcomes.check_cli(expected[name], code, stdout)
        ops.append(Op(name, elapsed, elapsed * scale, failures))
        peak = max(peak, rss)
        if traced:
            imports.append(import_seconds(stderr) * scale)
            processes.append(elapsed * scale)
            shadow(probe, context, name, index, tally, spans)
    run = Pass(ops, sum(op.scaled_s for op in ops), peak)
    if not traced:
        return run, None, spans
    tally.extra["cli.import_s"] = sum(imports) / len(imports)
    tally.extra["cli.process_s"] = sum(processes) / len(processes)
    return run, tally, spans
