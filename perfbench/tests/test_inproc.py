import os

import pytest

from perfbench.workloads.inproc import in_child


def test_child_result_and_peak_rss():
    value, rss = in_child(lambda: {"pid": os.getpid(), "answer": 42})
    assert value["answer"] == 42
    assert value["pid"] != os.getpid()
    assert rss > 0


def test_child_failure_is_reported_and_reaped():
    def fail():
        raise ValueError("boom")

    with pytest.raises(RuntimeError, match="ValueError: boom"):
        in_child(fail)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # no child left unreaped
