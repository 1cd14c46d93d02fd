"""service-closed: two closed-loop clients against ``serve --workers 1``.

Closed loop because the service's real callers (CI jobs, campaign
shards) each wait for their reply before sending the next request. The
two clients move in lockstep: in each step both send one request of the
sequence, the second 10 ms after the first, and wait for its reply, so
the second job always queues behind the first for the single worker. Between steps both clients meet at a
barrier with no request in flight, and only then is the drift probe
run, so it never absorbs the server's own CPU use. A step's wall time
and both latencies in it are scaled by the probes on either side.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any

from perfbench import outcomes, pipeline
from perfbench.probe import Probe, factor
from perfbench.measure import MB, LayerTally, Op, Pass
from perfbench.prepare import Context, program_env

#: Seconds the server may take to print its ``listening on`` line, and
#: to drain and exit after SIGTERM before it is killed.
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0
#: Seconds a request may wait for its job (``?wait=``).
WAIT_S = 60
#: Clients, each with one request between two barriers; the probe then
#: runs every ~0.3 s and tracks drift that a probe per round would miss.
BATCH = 2
#: The second client of a step sends this long after the first, so the
#: first request always reaches the worker first and the other queues
#: behind it — decided by the sequence, not by a race between the two
#: connections (which made the median move from run to run).
STAGGER_S = 0.01


class ServerError(RuntimeError):
    pass


class Server:
    """A ``repro-conflicts serve`` subprocess that is always reaped.

    :meth:`stop` (also run by ``with``) sends SIGTERM, kills the process
    if it has not drained within :data:`STOP_TIMEOUT_S`, and reaps it
    with ``wait4`` to read the peak resident set of the server and every
    worker it reaped.
    """

    def __init__(self, work: Path) -> None:
        self.work = work
        self.process: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None
        self.peak_rss_mb = 0.0
        self._lines: queue.Queue = queue.Queue()
        self._reader: threading.Thread | None = None

    def __enter__(self) -> "Server":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def start(self) -> None:
        argv = [
            sys.executable, "-m", "repro", "serve", "--workers", "1", "--port", "0",
            "--journal", str(self.work / "journal.jsonl"),
            "--cache-dir", str(self.work / "cache"),
        ]
        with (self.work / "server.err").open("ab") as errors:
            self.process = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=errors, env=program_env(),
                text=True, start_new_session=True,
            )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            self.address = self._await_listening()
        except BaseException:
            self.stop()
            raise

    def _read(self) -> None:
        assert self.process is not None and self.process.stdout is not None
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _await_listening(self) -> tuple[str, int]:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while True:
            try:
                line = self._lines.get(timeout=max(deadline - time.monotonic(), 0.0))
            except queue.Empty:
                raise ServerError("server did not start listening in time") from None
            if line is None:
                raise ServerError("server exited before listening")
            if line.startswith("listening on http://"):
                host, _, port = line.split("http://", 1)[1].strip().rpartition(":")
                return host, int(port)

    def stop(self) -> None:
        process = self.process
        if process is None or process.returncode is not None:
            return
        # os.kill, not Popen.send_signal: the latter polls first, which
        # would reap an already-dead server and lose its resource usage.
        try:
            os.kill(process.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        killer = threading.Timer(STOP_TIMEOUT_S, self._kill)
        killer.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        finally:
            killer.cancel()
        process.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss * 1024 / MB
        if self._reader is not None:
            self._reader.join(timeout=STOP_TIMEOUT_S)
        if process.stdout is not None:
            process.stdout.close()

    def _kill(self) -> None:
        assert self.process is not None
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def request(self, method: str, path: str, body: Any = None) -> tuple[int, dict]:
        assert self.address is not None
        connection = http.client.HTTPConnection(*self.address, timeout=WAIT_S + 30)
        try:
            payload = None if body is None else json.dumps(body).encode()
            headers = {"Content-Type": "application/json"} if payload else {}
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            data = response.read()
            try:
                parsed = json.loads(data.decode() or "{}")
            except ValueError:
                parsed = {"error": data[:200].decode(errors="replace")}
            return response.status, parsed
        finally:
            connection.close()


def worker_seconds(phases: dict[str, Any]) -> float:
    """The worker's analysis time: the total of the job's outermost phases."""
    paths = set(phases)
    return sum(
        float(cell.get("total_s", 0.0))
        for path, cell in phases.items()
        if not any(path.startswith(other + "/") for other in paths if other != path)
    )


def run_pass(
    probe: Probe, context: Context, sequence: list[str], expected: dict, traced: bool
) -> tuple[Pass, LayerTally | None, list]:
    """One closed-loop pass; returns the pass, its per-layer figures and spans."""
    server = context.server
    batches = [sequence[i : i + BATCH] for i in range(0, len(sequence), BATCH)]
    ops: list[Op] = []
    busy = 0.0
    tally = LayerTally() if traced else None
    spans: list = []
    service_figures = {"worker_s": 0.0, "overhead_s": 0.0, "attempts": 0, "jobs": 0}

    def post(name: str, delay_s: float) -> tuple[str, float, int, dict]:
        body = {"grammar": context.texts[name], "name": name}
        time.sleep(delay_s)
        started = time.perf_counter()
        status, reply = server.request("POST", f"/v1/analyze?wait={WAIT_S}", body)
        return name, time.perf_counter() - started, status, reply

    with ThreadPoolExecutor(max_workers=BATCH) as clients:
        after = probe.sample()
        for batch in batches:
            before = after
            started = time.perf_counter()
            futures = [
                clients.submit(post, name, index * STAGGER_S) for index, name in enumerate(batch)
            ]
            replies = [future.result() for future in futures]
            elapsed = time.perf_counter() - started
            after = probe.sample()
            scale = factor(before, after)
            busy += elapsed * scale
            for name, latency, status, reply in replies:
                op = Op(name, latency, latency * scale, outcomes.check_job(expected[name], status, reply))
                ops.append(op)
                if traced and status == 200:
                    worker = worker_seconds((reply.get("result") or {}).get("phases") or {})
                    service_figures["worker_s"] += worker * scale
                    service_figures["overhead_s"] += (latency - worker) * scale
                    service_figures["attempts"] += int(reply.get("attempts", 0))
                    service_figures["jobs"] += 1
            if traced:
                from perfbench.workloads.inproc import shadow

                for name in batch:
                    shadow(
                        probe, context, name, len(spans), tally, spans,
                        finder_options=pipeline.SERVICE_FINDER,
                    )
                after = probe.sample()
    run = Pass(ops, busy, 0.0)
    if tally is None:
        return run, None, spans
    status, health = server.request("GET", "/healthz")
    if status != 200:
        raise ServerError(f"/healthz answered {status}")
    jobs = max(service_figures["jobs"], 1)
    tally.extra.update({
        "service.worker_s": service_figures["worker_s"] / jobs,
        "service.overhead_s": service_figures["overhead_s"] / jobs,
        "service.attempts_per_job": service_figures["attempts"] / jobs,
        "service.shed": float(health["admission"]["shed"]),
        "service.journal_bytes": float(health["journal"]["size_bytes"]),
    })
    return run, tally, spans
