"""A traced fixture pass must see every call: a binding the tracer failed to
patch shows up here as a wrong count."""

import pytest

import run
from tracer import Tracer

FIXTURE_COUNTS = {
    "analytics.yen_k_shortest.calls": 213,
    "logsynth.load_log_csv.calls": 3,
    "logsynth.rows_parsed": 433_600,
    "logsynth.records": 272_000,
    "risk.annotate.calls": 2,
    "risk.edges_scored": 507,
    "risk.edges_recomputed": 406,
    "ingest.load_state.calls": 7,
    "ingest.save_state.calls": 4,
    "graph.project_view.calls": 12,
}


@pytest.fixture(scope="module")
def traced_fixture_pass(tmp_path_factory):
    icskg = run.import_program()
    bench = run.Bench("fixture", 42, icskg, tmp_path_factory.mktemp("bench"))
    bench.sizes = bench.make_inputs(bench.inputs)
    tracer = Tracer()
    tracer.install()
    try:
        result = bench.run_pass(tracer)
    finally:
        tracer.uninstall()
    bench.verify(result)
    return result, run.layer_metrics(tracer, result), run.layer_shares(tracer, result)


def test_fixture_counts_are_exact(traced_fixture_pass):
    result, metrics, _ = traced_fixture_pass
    assert result.failures == []
    assert {k: metrics[k] for k in FIXTURE_COUNTS} == FIXTURE_COUNTS


def test_log_layer_dominates_the_fixture(traced_fixture_pass):
    _, _, shares = traced_fixture_pass
    assert shares["logsynth"] >= 0.5


def test_uninstall_restores_every_binding():
    icskg = run.import_program()
    from icskg import analytics, graph, risk, scenarios
    before = (scenarios.yen_k_shortest, analytics.exposure,
              vars(graph.Graph)["project_view"], vars(risk.LogIndex)["__init__"])
    tracer = Tracer()
    tracer.install()
    assert scenarios.yen_k_shortest is not before[0]
    assert scenarios.yen_k_shortest is analytics.yen_k_shortest
    assert analytics.exposure is risk.exposure
    tracer.uninstall()
    after = (scenarios.yen_k_shortest, analytics.exposure,
             vars(graph.Graph)["project_view"], vars(risk.LogIndex)["__init__"])
    assert after == before
    assert icskg.cli.main.__module__ == "icskg.cli"

