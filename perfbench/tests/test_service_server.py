import os

import pytest

from perfbench.workloads import service
from perfbench.workloads.service import Server, ServerError, worker_seconds


def _gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def test_server_is_reaped_on_abort(tmp_path):
    with pytest.raises(RuntimeError, match="abort"):
        with Server(tmp_path) as server:
            pid = server.process.pid
            status, health = server.request("GET", "/healthz")
            assert status == 200 and health["status"] == "ok"
            raise RuntimeError("abort")
    assert server.process.returncode is not None
    assert _gone(pid)
    assert server.peak_rss_mb > 0


def test_server_that_does_not_listen_in_time_is_reaped(tmp_path, monkeypatch):
    monkeypatch.setattr(service, "BOOT_TIMEOUT_S", 0.0)
    server = Server(tmp_path)
    try:
        with pytest.raises(ServerError):
            server.start()
    finally:
        server.stop()  # a no-op once start() has reaped it
    assert server.process.returncode is not None
    assert _gone(server.process.pid)


def test_worker_seconds_sums_outermost_phases():
    phases = {
        "automaton": {"count": 1, "total_s": 0.5},
        "automaton/lr0": {"count": 1, "total_s": 0.2},
        "cache/decode": {"count": 1, "total_s": 0.1},
        "explain": {"count": 2, "total_s": 1.0},
        "explain/search": {"count": 2, "total_s": 0.7},
    }
    assert worker_seconds(phases) == pytest.approx(1.6)
