import copy

import pytest

from perfbench import outcomes, pipeline


@pytest.fixture(scope="module")
def figure7():
    from repro.corpus import registry
    from repro.grammar.emit import dump_grammar

    text = dump_grammar(registry.load("figure7"))
    return text, outcomes.load_expected()["figure7"]


def test_pinned_outcome_passes(figure7):
    text, expected = figure7
    analysis = pipeline.analyse(text, "figure7")
    assert outcomes.check_summary(expected, "plain", analysis.summary, analysis.blocks) == []


def test_tampered_digest_fails(figure7):
    text, expected = figure7
    analysis = pipeline.analyse(text, "figure7")
    tampered = copy.deepcopy(expected)
    tampered["reports"]["plain"] = "0" * 64
    failures = outcomes.check_summary(tampered, "plain", analysis.summary, analysis.blocks)
    assert failures == ["plain report digest mismatch"]


def test_stubbed_report_fails(figure7):
    from repro.robust.faults import FaultKind, FaultSpec, inject_faults

    text, expected = figure7
    with inject_faults(FaultSpec("lasg", FaultKind.EXCEPTION, count=1000)):
        analysis = pipeline.analyse(text, "figure7")
    assert analysis.summary.num_stub == 2
    failures = outcomes.check_summary(expected, "plain", analysis.summary, analysis.blocks)
    assert "2 stub rung(s)" in failures
    assert "plain report digest mismatch" in failures


def test_cli_output_check(figure7):
    text, expected = figure7
    analysis = pipeline.analyse(text, "figure7")
    summary = "grammar 'figure7': 2 conflicts — 2 unifying, 0 nonunifying, 0 timed out (0.03s)\n"
    stdout = outcomes.render(analysis.blocks) + summary
    assert outcomes.check_cli(expected, 1, stdout) == []
    assert outcomes.check_cli(expected, 0, stdout) == ["exit code 0, expected 1"]
    stubbed = stdout.replace("timed out (", "timed out, 1 stubs (")
    assert outcomes.check_cli(expected, 1, stubbed) == ["summary reports, 1 stubs"]
    assert "plain report digest mismatch" in outcomes.check_cli(
        expected, 1, stdout.replace("Example", "Exemple", 1)
    )


def test_cli_no_conflict_line():
    expected = outcomes.load_expected()["clean-json"]
    assert outcomes.check_cli(expected, 0, "grammar 'clean-json': no conflicts — LALR(1)\n") == []


def test_job_reply_check(figure7):
    text, expected = figure7
    analysis = pipeline.analyse(text, "figure7")
    summary = {"conflicts": 2, "unifying": 2, "nonunifying": 0, "timeouts": 0, "stubs": 0, "degraded": 0}
    reply = {"state": "completed", "result": {"summary": summary, "reports": analysis.blocks}}
    assert outcomes.check_job(expected, 200, reply) == []
    assert outcomes.check_job(expected, 503, {"error": "queue full"}) == ["HTTP 503"]
    degraded = {"state": "degraded", "error": "retries exhausted"}
    assert outcomes.check_job(expected, 200, degraded) == ["job degraded: retries exhausted"]
