"""End-to-end pipeline runs over the bundled fixture via the CLI."""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PIPELINE_STAGES as STAGES, tree_digest
from icskg.cli import default_config_path, main


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def test_build_counts_match_manifest(pipeline_out):
    summary = json.loads((pipeline_out / "graph-summary.json").read_text())
    manifest = json.loads(
        (default_config_path().parent / "manifest.json").read_text())
    assert summary["counts"] == manifest["counts"]
    assert summary["nodeTotal"] == manifest["nodeTotal"]
    assert summary["edgeTotal"] == manifest["edgeTotal"]
    assert summary["products"] == manifest["products"]
    assert summary["vulnerabilityLinks"] == manifest["vulnerabilityLinks"]
    assert summary["predictionsImported"] == manifest["predictionsImported"]


def test_build_missing_input_exits_2(tmp_path, capsys):
    config = {
        "paths": {
            "testbed": "missing-testbed.json",
            "advisories": "advisories.json",
            "nodes": "node.csv",
            "relations": "relation.csv",
            "scenarios": "scenarios.json",
            "riskConfig": "risk_config.json",
        },
        "seed": 1,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    code = main(["--config", str(cfg_path), "--out", str(tmp_path / "out"), "build"])
    assert code == 2
    assert "missing-testbed.json" in capsys.readouterr().err


def test_build_validate_only_writes_nothing(tmp_path):
    out = tmp_path / "out"
    code = main(["--out", str(out), "build", "--validate-only"])
    assert code == 0
    assert not out.exists()


# ---------------------------------------------------------------------------
# Stage ordering
# ---------------------------------------------------------------------------

def test_stage_order_enforced(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["--out", str(out), "annotate"]) == 3
    assert main(["--out", str(out), "build"]) == 0
    assert main(["--out", str(out), "annotate"]) == 3  # logs still missing
    err = capsys.readouterr().err
    assert "synth-logs stage required" in err


def test_simulate_controlled_requires_controls(tmp_path, capsys):
    out = tmp_path / "out"
    for stage in ("build", "synth-logs", "annotate"):
        assert main(["--out", str(out), stage]) == 0
    code = main(["--out", str(out), "simulate", "--config", "Controlled"])
    assert code == 3
    assert "controls stage required" in capsys.readouterr().err


def test_simulate_original_only_needs_annotate(tmp_path):
    out = tmp_path / "out"
    for stage in ("build", "synth-logs", "annotate"):
        assert main(["--out", str(out), stage]) == 0
    assert main(["--out", str(out), "simulate", "--config", "Original"]) == 0
    rows = read_csv(out / "propagation" / "propagation.csv")
    assert rows and all(r["config"] == "Original" for r in rows)


def test_seed_mismatch_rejected(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["--out", str(out), "build"]) == 0
    for stage in ("synth-logs", "export"):
        code = main(["--out", str(out), "--seed", "777", stage])
        assert code == 2
        assert "differs" in capsys.readouterr().err
    assert not (out / "export").exists()


@pytest.mark.parametrize("state, setting", [
    ([], "state.json must be"),
    ({"stages": 5}, "state.json: stages must be"),
    ({"stages": [1]}, "state.json: stages[0] must be"),
], ids=["list", "stages-number", "stage-number"])
def test_malformed_state_exits_2(tmp_path, pipeline_out, capsys, state, setting):
    out = tmp_path / "out"
    shutil.copytree(pipeline_out, out)
    (out / "state.json").write_text(json.dumps(state))
    before = tree_digest(out)
    assert main(["--out", str(out), "annotate"]) == 2
    assert setting in capsys.readouterr().err
    assert tree_digest(out) == before


def test_rerunning_stage_invalidates_downstream(tmp_path):
    out = tmp_path / "out"
    for stage in ("build", "synth-logs", "annotate", "enrich", "controls"):
        assert main(["--out", str(out), stage]) == 0
    # re-running enrich drops the controls marker: its mirrors are stale
    assert main(["--out", str(out), "enrich"]) == 0
    state = json.loads((out / "state.json").read_text())
    assert state["stages"] == ["build", "synth-logs", "annotate", "enrich"]
    assert main(["--out", str(out), "simulate", "--config", "Controlled"]) == 3


def edge_kind_counts(out: Path) -> dict[str, int]:
    counts: dict[str, int] = {}
    for row in read_csv(out / "graph" / "edges.csv"):
        counts[row["kind"]] = counts.get(row["kind"], 0) + 1
    return counts


def fixture_config(tmp_path: Path, **enrichment) -> Path:
    """A copy of the fixture run config with the given enrichment settings."""
    fixture_dir = default_config_path().parent
    raw = json.loads(default_config_path().read_text())
    raw["paths"] = {k: str(fixture_dir / v) for k, v in raw["paths"].items()}
    raw["enrichment"].update(enrichment)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    return config


def test_rerun_starts_from_upstream_state(tmp_path, pipeline_out):
    out = tmp_path / "out"
    shutil.copytree(pipeline_out, out)
    run = ["--config", str(fixture_config(tmp_path, topK=1)), "--out", str(out)]

    # enrich keeps none of the earlier run's links, nor the controls mirrors
    assert main(run + ["enrich"]) == 0
    links = json.loads((out / "enrich-report.json").read_text())["possibleLinks"]
    assert links == 61
    counts = edge_kind_counts(out)
    assert counts["HAS_POSSIBLE_COMMUNICATION"] == links
    assert "CONTROLLED_COMMUNICATES_WITH" not in counts

    # annotate starts from the graph before enrich and controls
    assert main(run + ["annotate"]) == 0
    counts = edge_kind_counts(out)
    assert "HAS_POSSIBLE_COMMUNICATION" not in counts
    assert "CONTROLLED_COMMUNICATES_WITH" not in counts
    assert counts["COMMUNICATES_WITH"] == 101

    # controls mirrors exactly the edges it recomputed
    assert main(run + ["controls"]) == 0
    report = json.loads((out / "controls-report.json").read_text())
    assert report["edgesRecomputed"] == 101
    assert edge_kind_counts(out)["CONTROLLED_COMMUNICATES_WITH"] == 101


@pytest.fixture(scope="module")
def short_run(tmp_path_factory):
    """A copy of the fixture run config with half an hour of logs, and the
    digest of a fresh run of every stage and export under it."""
    work = tmp_path_factory.mktemp("short-run")
    config = fixture_config(work)
    raw = json.loads(config.read_text())
    raw["synthProfile"]["durationHours"] = 0.5
    config.write_text(json.dumps(raw))
    for stage in [*STAGES, "export"]:
        assert main(["--config", str(config), "--out", str(work / "out"), stage]) == 0
    return config, tree_digest(work / "out")


def not_run(out: Path) -> list[str]:
    done = json.loads((out / "state.json").read_text())["stages"]
    return [stage for stage in STAGES if stage not in done]


@settings(max_examples=10, deadline=None)
@given(reruns=st.lists(st.sampled_from(STAGES), min_size=1, max_size=4))
def test_rerun_stages_then_completing_the_run_equals_a_fresh_run(short_run, reruns):
    # Any stages re-run after a full run, then each stage state.json lists
    # as not run, leave the output tree of a fresh run: a re-run keeps
    # nothing stale, and marks what it invalidates as not run.
    config, fresh = short_run
    with tempfile.TemporaryDirectory() as work:
        out = Path(work) / "out"
        run = ["--config", str(config), "--out", str(out)]
        for stage in STAGES:
            assert main(run + [stage]) == 0
        for stage in reruns:
            assert main(run + [stage]) in (0, 3)
        while not_run(out):
            assert main(run + [not_run(out)[0]]) == 0
        assert main(run + ["export"]) == 0
        assert tree_digest(out) == fresh


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def test_report_schemas(pipeline_out):
    propagation = read_csv(pipeline_out / "propagation" / "propagation.csv")
    assert list(propagation[0].keys()) == [
        "scenario", "source", "target", "config",
        "avgHops", "minHops", "maxHops", "affected"]
    scenarios = {r["scenario"] for r in propagation}
    assert len(scenarios) == 15
    assert len(propagation) == 45  # 15 scenarios x 3 configurations

    interproduct = read_csv(pipeline_out / "reports" / "interproduct.csv")
    assert list(interproduct[0].keys()) == [
        "source", "target", "risk", "exploitProb", "attackCost"]

    centrality = read_csv(pipeline_out / "reports" / "centrality.csv")
    assert list(centrality[0].keys()) == [
        "node", "type", "pageRankBefore", "pageRankAfter", "deltaPageRank",
        "betweennessBefore", "betweennessAfter", "deltaBetweenness"]
    assert len(centrality) == 61

    communities = read_csv(pipeline_out / "reports" / "communities.csv")
    assert list(communities[0].keys()) == [
        "communityId", "size", "keyAssets", "risk", "cascade"]
    assert sum(int(r["size"]) for r in communities) == 61

    residual = read_csv(pipeline_out / "reports" / "residual.csv")
    assert list(residual[0].keys()) == [
        "product", "zone", "raw", "enriched", "after", "delta", "reductionPct"]
    assert len(residual) == 61


def test_report_top_n(tmp_path, pipeline_out):
    out = tmp_path / "copy"
    shutil.copytree(pipeline_out, out)
    code = main(["--out", str(out), "report", "--table", "interproduct",
                 "--top", "5"])
    assert code == 0
    rows = read_csv(out / "reports" / "interproduct.csv")
    assert len(rows) == 5
    risks = [float(r["risk"]) for r in rows]
    assert risks == sorted(risks, reverse=True)


@pytest.mark.parametrize("enrichment, argv, setting", [
    ({}, ["report", "--top", "-3"], "--top"),
    ({"dim": 0}, ["enrich"], "enrichment.dim"),
    ({"iterationWeights": []}, ["enrich"], "enrichment.iterationWeights"),
    ({"topK": -1}, ["enrich"], "enrichment.topK"),
    ({"iterationWeights": 5}, ["enrich"], "enrichment.iterationWeights"),
    ({"dim": None}, ["enrich"], "enrichment.dim"),
    ({"topK": None}, ["enrich"], "enrichment.topK"),
    ({"dim": 8.7}, ["enrich"], "enrichment.dim"),
    ({"topK": True}, ["enrich"], "enrichment.topK"),
    ({"dim": 10**400}, ["enrich"], "enrichment.dim"),
], ids=["top", "dim", "iterationWeights", "topK", "iterationWeights-number",
        "dim-null", "topK-null", "dim-float", "topK-bool", "dim-huge"])
def test_out_of_range_setting_exits_2(tmp_path, pipeline_out, capsys,
                                      enrichment, argv, setting):
    out = tmp_path / "out"
    shutil.copytree(pipeline_out, out)
    config = fixture_config(tmp_path, **enrichment)
    assert main(["--config", str(config), "--out", str(out), *argv]) == 2
    assert setting in capsys.readouterr().err
    assert tree_digest(out) == tree_digest(pipeline_out)


@pytest.mark.parametrize("key, value", [
    ("seed", 8.7), ("seed", True), ("seed", "7"),
    ("k", 2.5), ("k", True), ("k", "3"), ("k", 0),
    ("clientIpPoolSize", 2.5),
], ids=["seed-float", "seed-bool", "seed-string", "k-float", "k-bool", "k-string",
        "k-zero", "clientIpPoolSize-float"])
def test_integer_setting_must_be_json_integer(tmp_path, pipeline_out, capsys, key, value):
    raw = json.loads(fixture_config(tmp_path).read_text())
    if key == "seed":
        # A fresh output tree: against an existing state any other seed
        # already exits 2 as a mismatch.
        raw["seed"] = value
        stage, out, needle = "build", tmp_path / "fresh", "seed must be"
    else:
        out = tmp_path / "out"
        shutil.copytree(pipeline_out, out)
        if key == "k":
            catalog = json.loads(Path(raw["paths"]["scenarios"]).read_text())
            catalog[0]["k"] = value
            raw["paths"]["scenarios"] = str(tmp_path / "scenarios.json")
            Path(raw["paths"]["scenarios"]).write_text(json.dumps(catalog))
            stage, needle = "simulate", "scenario S01: k must be"
        else:
            raw["synthProfile"][key] = value
            stage, needle = "synth-logs", f"{key} must be"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    assert main(["--config", str(config), "--out", str(out), stage]) == 2
    assert needle in capsys.readouterr().err
    if key == "seed":
        assert not out.exists()
    else:
        assert tree_digest(out) == tree_digest(pipeline_out)


@pytest.mark.parametrize("key, value, stage, needle", [
    ("synthProfile.durationHours", True, "synth-logs",
     "durationHours must be a finite number"),
    ("synthProfile.durationHours", "8", "synth-logs",
     "durationHours must be a finite number"),
    ("synthProfile.durationHours", float("inf"), "synth-logs",
     "durationHours must be a finite number"),
    ("synthProfile.clientIpPoolSize", 300, "synth-logs",
     "synthProfile.clientIpPoolSize must be an integer from 1 to 254"),
    ("riskConfig.criticalityDefaults.PLC", 8.7, "annotate",
     "criticalityDefaults.PLC must be an integer"),
    ("riskConfig.criticalityDefaults.HMI", True, "annotate",
     "criticalityDefaults.HMI must be an integer"),
    ("predictionMinConfidence", True, "build",
     "predictionMinConfidence must be a finite number"),
    ("predictionMinConfidence", "0.5", "build",
     "predictionMinConfidence must be a finite number"),
    ("predictionMinConfidence", float("inf"), "build",
     "predictionMinConfidence must be a finite number"),
    ("riskConfig.zoneDefaultWeakness", {"DMZ": 0.5}, "annotate",
     "zoneDefaultWeakness.DMZ must be a list of four numbers"),
    ("riskConfig.zoneDefaultWeakness.DMZ", [0.1, 0.2], "annotate",
     "zoneDefaultWeakness.DMZ must be a list of four numbers"),
    ("riskConfig.fAC", [1], "annotate", "fAC must be a JSON object"),
    ("riskConfig.convention", 5, "annotate",
     'convention must be "literal" or "complement"'),
    ("synthProfile.durationHours", 1e308, "synth-logs",
     "synthProfile: perFlowSessionRate * durationHours must be finite"),
    ("synthProfile.anonFrac", 1.2, "build --validate-only",
     "synthProfile.anonFrac must be a finite number from 0 to 1, got 1.2"),
    ("synthProfile.anonFrac", 0.5, "build --validate-only",
     "synthProfile: anonFrac + certFrac exceeds 1"),
    ("synthProfile.durationHours", -1, "build --validate-only",
     "synthProfile.durationHours must be a finite number of at least 0, got -1"),
    ("advisories.0.epss", 1.5, "build --validate-only",
     "advisory 'CVE-2024-1000': epss must be a finite number from 0 to 1, got 1.5"),
    ("advisories.0.cvss.baseScore", 11, "build --validate-only",
     "advisory 'CVE-2024-1000': cvss.baseScore must be a finite number from 0 to 10, got 11"),
    ("testbed.products.0.criticality", 11, "build --validate-only",
     "product 'ERP_Server_1': criticality must be an integer from 0 to 10, got 11"),
    ("riskConfig.criticalityDefaults.PLC", 12, "build --validate-only",
     "criticalityDefaults.PLC must be an integer from 0 to 10, got 12"),
    ("riskConfig.controlOverrides.cert_frac_floor", 1.5, "build --validate-only",
     "controlOverrides.cert_frac_floor must be a finite number from 0 to 1, got 1.5"),
    # An override above 1 would worsen the rate it scales.
    ("riskConfig.controlOverrides.misconfig_scale", 1.5, "build --validate-only",
     "controlOverrides.misconfig_scale must be a finite number from 0 to 1, got 1.5"),
    # Misconfigurations scaled by 0.5 against failed checks scaled by 0.05
    # give 20 checks a session, over the cap of 10; build derives the
    # secured profile that synth-logs generates from.
    ("riskConfig.controlOverrides.fail_check_scale", 0.05, "build --validate-only",
     "controlOverrides: in the secured profile, misconfigRate / failCheckFrac exceeds"),
    ("controlProfile", "nosuch", "build --validate-only",
     "controlProfile: testbed declares no control profile named 'nosuch'"),
    ("scenarios.0.k", 0, "build --validate-only",
     "scenario S01: k must be an integer of at least 1, got 0"),
    ("predictionMinConfidence", 1.5, "build --validate-only",
     "predictionMinConfidence must be a finite number from 0 to 1, got 1.5"),
    ("riskConfig.zoneDefaultWeakness.DMZ", [5, 0, 0, 0], "build --validate-only",
     "zoneDefaultWeakness.DMZ[0] must be a finite number from 0 to 1, got 5"),
], ids=["durationHours-bool", "durationHours-string", "durationHours-infinity",
        "clientIpPoolSize-300", "criticalityDefaults-float", "criticalityDefaults-bool",
        "predictionMinConfidence-bool", "predictionMinConfidence-string",
        "predictionMinConfidence-infinity", "zoneDefaultWeakness-number",
        "zoneDefaultWeakness-two-numbers", "fAC-list", "convention-number",
        "durationHours-overflow", "anonFrac-above-1", "anonFrac-plus-certFrac",
        "durationHours-negative", "epss-above-1", "baseScore-above-10",
        "criticality-above-10", "criticalityDefaults-above-10", "cert_frac_floor-above-1",
        "misconfig_scale-above-1", "secured-profile-check-cap", "controlProfile-unknown",
        "scenario-k-0", "predictionMinConfidence-above-1", "zoneDefaultWeakness-above-1"])
def test_numeric_setting_must_be_in_range(tmp_path, pipeline_out, capsys,
                                          key, value, stage, needle):
    # ``key`` is a dotted path into the run config, or into the document a
    # run-config path names when it starts with that path's key
    # (``riskConfig``, ``testbed``, ``advisories``, ``scenarios``); a list
    # index is a number.
    raw = json.loads(fixture_config(tmp_path).read_text())
    document, (*parents, name) = raw, key.split(".")
    file = parents.pop(0) if parents[:1] and parents[0] in raw["paths"] else None
    if file:
        document = json.loads(Path(raw["paths"][file]).read_text())
        raw["paths"][file] = str(tmp_path / f"{file}.json")
    table = document
    for parent in parents:
        table = table[int(parent) if isinstance(table, list) else parent]
    table[name] = value
    if file:
        Path(raw["paths"][file]).write_text(json.dumps(document))
    config = tmp_path / "config.json"
    # json writes infinity as Infinity, which json.loads reads back.
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    shutil.copytree(pipeline_out, out)
    assert main(["--config", str(config), "--out", str(out), *stage.split()]) == 2
    assert needle in capsys.readouterr().err
    assert tree_digest(out) == tree_digest(pipeline_out)


@pytest.mark.parametrize("key, value, needle", [
    ("synthProfile", 5, "synthProfile must be a JSON object"),
    ("enrichment", "x", "enrichment must be a JSON object"),
    ("paths", [], "paths must be a JSON object"),
    ("paths.testbed", 5, "paths.testbed must be a string"),
    (None, [], "run config must be a JSON object"),
], ids=["synthProfile-number", "enrichment-string", "paths-list", "paths-testbed-number",
        "document-list"])
def test_run_config_sections_must_be_objects(tmp_path, pipeline_out, capsys,
                                             key, value, needle):
    # ``key`` is a dotted path into the run config; None replaces all of it.
    raw = json.loads(fixture_config(tmp_path).read_text())
    if key is None:
        raw = value
    else:
        *parents, name = key.split(".")
        table = raw
        for parent in parents:
            table = table[parent]
        table[name] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    shutil.copytree(pipeline_out, out)
    assert main(["--config", str(config), "--out", str(out), "build", "--validate-only"]) == 2
    assert needle in capsys.readouterr().err
    assert tree_digest(out) == tree_digest(pipeline_out)


def _duplicate_product(testbed: dict) -> None:
    testbed["products"].append({**testbed["products"][0], "zone": "DMZ"})


def _unknown_allowlisted_product(testbed: dict) -> None:
    testbed["controlProfiles"]["secured"]["allowlist"].append(["NoSuch_Product", "PLC_CellA_1"])


def _unknown_overridden_product(testbed: dict) -> None:
    testbed["cpeOverrides"]["NoSuch_Product"] = "cpe:2.3:a:nosuch:product:1.0"


# Inputs each well formed by itself that contradict another part of the
# run: (testbed edit or None, props of a node.csv CVE that relation.csv
# links to a product or None, the error text).  The CVE is node.csv row 41.
INCONSISTENT_INPUTS = [
    (_duplicate_product, None, "products: product 'ERP_Server_1' is declared twice"),
    (_unknown_allowlisted_product, None,
     "controlProfiles.secured.allowlist 'NoSuch_Product' is not a declared product"),
    (_unknown_overridden_product, None,
     "cpeOverrides key 'NoSuch_Product' is not a declared product"),
    (None, {"epss": "high"}, "row 41: vulnerability 'CVE-2099-0001': "
     "epss must be a finite number from 0 to 1, got 'high'"),
    # advisories.json rejects an EPSS of 5 by the same rule.
    (None, {"epss": "5"}, "row 41: vulnerability 'CVE-2099-0001': "
     "epss must be a finite number from 0 to 1, got 5.0"),
    (None, {"accessComplexity": "Medium"}, "row 41: vulnerability 'CVE-2099-0001': "
     "accessComplexity must be \"Low\" or \"High\", got 'Medium'"),
]


@pytest.mark.parametrize("edit_testbed, cve_props, needle", INCONSISTENT_INPUTS,
                         ids=["duplicate-product", "allowlist-unknown-product",
                              "cpeOverrides-unknown-product", "node-csv-epss-high",
                              "node-csv-epss-5", "node-csv-accessComplexity-Medium"])
def test_inconsistent_input_fails_validate_only(tmp_path, capsys,
                                                edit_testbed, cve_props, needle):
    raw = json.loads(fixture_config(tmp_path).read_text())
    if edit_testbed:
        testbed = json.loads(Path(raw["paths"]["testbed"]).read_text())
        edit_testbed(testbed)
        raw["paths"]["testbed"] = str(tmp_path / "testbed.json")
        Path(raw["paths"]["testbed"]).write_text(json.dumps(testbed))
    if cve_props:
        cve = "CVE-2099-0001"
        for key, row in (("nodes", [cve, "Vulnerability", cve, "", "", json.dumps(cve_props)]),
                         ("relations", ["PLC_CellA_1", cve, "HAS_VULNERABILITY", "{}"])):
            path = tmp_path / Path(raw["paths"][key]).name
            with open(path, "w", newline="", encoding="utf-8") as fh:
                fh.write(Path(raw["paths"][key]).read_text())
                csv.writer(fh, lineterminator="\n").writerow(row)
            raw["paths"][key] = str(path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["--config", str(config), "--out", str(out), "build", "--validate-only"]) == 2
    assert needle in capsys.readouterr().err
    assert not out.exists()


def test_advisory_kev_must_be_json_boolean(tmp_path, capsys):
    raw = json.loads(fixture_config(tmp_path).read_text())
    advisories = json.loads(Path(raw["paths"]["advisories"]).read_text())
    advisories[0]["kev"] = "false"
    raw["paths"]["advisories"] = str(tmp_path / "advisories.json")
    Path(raw["paths"]["advisories"]).write_text(json.dumps(advisories))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["--config", str(config), "--out", str(out), "build"]) == 2
    assert "kev must be true or false, got 'false'" in capsys.readouterr().err
    assert not out.exists()


# One case per setting that ended in a traceback (exit 1) before the typed
# reader: (document, key path, value, stage, text the error must hold).  The
# document is the run config or the file of one of its paths; the
# durationHours overflow is a case of test_numeric_setting_must_be_in_range.
WRONG_TYPED = [
    ("testbed", (), 5, "validate", "testbed must be a JSON object, got 5"),
    ("testbed", ("zones",), 5, "validate", "zones must be a list"),
    ("testbed", ("zones", 0, "name"), [], "validate", "zones[0].name must be a string"),
    ("testbed", ("products",), 5, "validate", "products must be a list"),
    ("testbed", ("products", 0), 5, "validate", "products[0] must be a JSON object"),
    ("testbed", ("products", 0, "name"), [], "validate", "products[0].name must be a string"),
    ("testbed", ("products", 0, "zone"), [], "validate",
     "product 'ERP_Server_1': zone must be a string"),
    ("testbed", ("products", 0, "vendor"), 5, "validate",
     "product 'ERP_Server_1': vendor must be a string"),
    ("testbed", ("products", 0, "protocols"), 5, "validate",
     "product 'ERP_Server_1': protocols must be a list"),
    ("testbed", ("products", 0, "protocols", 0), 5, "validate",
     "product 'ERP_Server_1': protocols[0] must be a string"),
    ("testbed", ("dataflows",), 5, "validate", "dataflows must be a list"),
    ("testbed", ("dataflows", 0), 5, "validate", "dataflows[0] must be a JSON object"),
    ("testbed", ("dataflows", 0, "src"), [], "validate", "dataflows[0].src must be a string"),
    ("testbed", ("dataflows", 0, "dst"), {}, "validate", "dataflows[0].dst must be a string"),
    ("testbed", ("dataflows", 0, "protocol"), 5, "validate",
     "dataflows[0].protocol must be a string"),
    ("testbed", ("controlProfiles",), 5, "validate", "controlProfiles must be a JSON object"),
    ("testbed", ("controlProfiles", "secured"), 5, "validate",
     "controlProfiles.secured must be a JSON object"),
    ("testbed", ("controlProfiles", "secured", "controls"), 5, "validate",
     "controlProfiles.secured.controls must be a list"),
    ("testbed", ("controlProfiles", "secured", "allowlist"), 5, "validate",
     "controlProfiles.secured.allowlist must be a list"),
    ("testbed", ("controlProfiles", "secured", "allowlist", 0), 5, "validate",
     "controlProfiles.secured.allowlist[0] must be a pair of product names"),
    ("testbed", ("cpeOverrides",), 5, "validate", "cpeOverrides must be a JSON object"),
    ("advisories", (), 5, "validate", "advisories must be a list"),
    ("advisories", (0,), 5, "validate", "advisories[0] must be a JSON object"),
    ("advisories", (0, "cveId"), 5, "validate", "advisories[0].cveId must be a string"),
    ("advisories", (0, "cvss"), 5, "validate",
     "advisory 'CVE-2024-1000': cvss must be a JSON object"),
    ("advisories", (0, "description"), 5, "validate",
     "advisory 'CVE-2024-1000': description must be a string"),
    ("advisories", (0, "vendorStatements"), 5, "validate",
     "advisory 'CVE-2024-1000': vendorStatements must be a list"),
    ("advisories", (0, "vendorStatements", 0), 5, "validate",
     "advisory 'CVE-2024-1000': vendorStatements[0] must be a string"),
    ("advisories", (0, "cpes"), 5, "validate", "advisory 'CVE-2024-1000': cpes must be a list"),
    ("advisories", (0, "cpes", 0), 5, "validate",
     "advisory 'CVE-2024-1000': cpes[0] must be a string"),
    ("scenarios", (), 5, "simulate", "scenarios must be a list"),
    ("scenarios", (0,), 5, "simulate", "scenarios[0] must be a JSON object"),
    ("scenarios", (0, "id"), 5, "simulate", "scenarios[0].id must be a string"),
    ("scenarios", (0, "source"), 5, "simulate", "scenario S01: source must be a JSON object"),
    ("scenarios", (0, "source", "by"), "vibe", "simulate",
     'scenario S01: source.by must be "id", "class", "zone" or "name", got \'vibe\''),
    ("scenarios", (0, "source", "values"), 5, "simulate",
     "scenario S01: source.values must be a list"),
    ("scenarios", (0, "source", "values", 0), [], "simulate",
     "scenario S01: source.values[0] must be a string"),
    ("scenarios", (0, "target"), "x", "simulate", "scenario S01: target must be a JSON object"),
    ("scenarios", (0, "target", "values"), None, "simulate",
     "scenario S01: target.values must be a list"),
    ("scenarios", (0, "target", "values", 0), {}, "simulate",
     "scenario S01: target.values[0] must be a string"),
    ("config", ("controlProfile",), [], "synth-logs", "controlProfile must be a string"),
    ("config", ("synthProfile", "perFlowSessionRate"), 1e308, "synth-logs",
     "perFlowSessionRate * durationHours"),
    # These three did not end in a traceback: the weights loaded as
    # (1.0, 2.0, nan), and the unknown coefficient exited 2 without its setting.
    ("config", ("enrichment", "iterationWeights"), [True, "2", float("nan")], "enrich",
     "enrichment.iterationWeights[0] must be a finite number, got True"),
    ("config", ("enrichment", "iterationWeights"), [1.0, "2", 1.0], "enrich",
     "enrichment.iterationWeights[1] must be a finite number, got '2'"),
    ("riskConfig", ("factorCoefficients", "a_typo"), 0.1, "validate",
     "factorCoefficients.a_typo is not one of a_insecure"),
]


@pytest.mark.parametrize("document, path, value, stage, needle", WRONG_TYPED,
                         ids=[f"{case[0]}:{'.'.join(map(str, case[1]))}={case[2]!r}"
                              for case in WRONG_TYPED])
def test_wrong_typed_setting_exits_2(tmp_path, pipeline_out, capsys,
                                     document, path, value, stage, needle):
    raw = json.loads(fixture_config(tmp_path).read_text())
    target = raw if document == "config" else json.loads(
        Path(raw["paths"][document]).read_text())
    if path:
        table = target
        for key in path[:-1]:
            table = table[key]
        table[path[-1]] = value
    else:
        target = value
    if document != "config":
        raw["paths"][document] = str(tmp_path / f"{document}.json")
        Path(raw["paths"][document]).write_text(json.dumps(target))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    if stage == "validate":
        argv = ["build", "--validate-only"]
    else:
        shutil.copytree(pipeline_out, out)
        argv = [stage]
    assert main(["--config", str(config), "--out", str(out), *argv]) == 2
    assert needle in capsys.readouterr().err
    if stage == "validate":
        assert not out.exists()
    else:
        assert tree_digest(out) == tree_digest(pipeline_out)


def test_unknown_control_in_any_profile_fails_build(tmp_path, pipeline_out, capsys):
    raw = json.loads(fixture_config(tmp_path).read_text())
    testbed = json.loads(Path(raw["paths"]["testbed"]).read_text())
    testbed["controlProfiles"]["secured"]["controls"].append("MagicAmulet")
    raw["paths"]["testbed"] = str(tmp_path / "testbed.json")
    Path(raw["paths"]["testbed"]).write_text(json.dumps(testbed))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    shutil.copytree(pipeline_out, out)
    assert main(["--config", str(config), "--out", str(out), "build"]) == 2
    assert "controlProfiles.secured.controls[4] must be \"NetworkSegmentation\", " \
        "\"PatchManagement\", \"IDS\", \"AccessControl\" or \"ConfigHardening\", " \
        "got 'MagicAmulet'" in capsys.readouterr().err
    assert tree_digest(out) == tree_digest(pipeline_out)


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    raw = json.loads(fixture_config(tmp_path).read_text())
    raw["paths"]["testbed"] = str(tmp_path / "testbed.json")
    Path(raw["paths"]["testbed"]).write_text("[" * 100_000 + "]" * 100_000)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["--config", str(config), "--out", str(out), "build", "--validate-only"]) == 2
    assert f"{tmp_path / 'testbed.json'}: maximum recursion depth" in capsys.readouterr().err
    assert not out.exists()


def test_bare_carriage_return_in_csv_exits_2(tmp_path, pipeline_out, capsys):
    # A carriage return in an unquoted field is not CSV: in a log the
    # annotate stage reads, and in a node file build reads.
    out = tmp_path / "out"
    shutil.copytree(pipeline_out, out)
    log = out / "logs" / "baseline.csv"
    header, first, *rest = log.read_text().split("\n")
    stamp, src, *fields = first.split(",")
    log.write_text("\n".join([header, ",".join([stamp, src[:1] + "\r" + src[1:], *fields]),
                              *rest]))
    before = tree_digest(out)
    assert main(["--out", str(out), "annotate"]) == 2
    assert f"{log}: line 2: new-line character seen in unquoted field" \
        in capsys.readouterr().err
    assert tree_digest(out) == before

    raw = json.loads(fixture_config(tmp_path).read_text())
    nodes = Path(raw["paths"]["nodes"]).read_text().split("\n")
    raw["paths"]["nodes"] = str(tmp_path / "node.csv")
    Path(raw["paths"]["nodes"]).write_text("\n".join([nodes[0], "x,A\rB", *nodes[1:]]))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    assert main(["--config", str(config), "--out", str(out), "build"]) == 2
    assert f"{tmp_path / 'node.csv'}: line 2: new-line character" in capsys.readouterr().err
    assert tree_digest(out) == before


# The fixture's log CSVs at its config seed 42, as the row-by-row csv.writer
# path wrote them.
FIXTURE_LOG_SHA256 = {
    "baseline.csv": "150b5c2066aa11597bb7cfafebc462a4d1feca691adecde370cb9d7b160e2e6f",
    "secured.csv": "7f9921f259cbabeee4eaa411fcb14af257ade27041663cf1fb65e7ee82c376d8",
}


def test_fixture_log_bytes_are_pinned(pipeline_out):
    assert {name: hashlib.sha256((pipeline_out / "logs" / name).read_bytes()).hexdigest()
            for name in FIXTURE_LOG_SHA256} == FIXTURE_LOG_SHA256


def test_residual_controlled_not_above_enriched(pipeline_out):
    for row in read_csv(pipeline_out / "reports" / "residual.csv"):
        assert float(row["after"]) <= float(row["enriched"]) + 1e-9


def test_enriched_never_lengthens_fixture_distances(pipeline_out):
    from icskg.graph import Configuration
    from icskg.ingest import load_state

    graph = load_state(pipeline_out / "graph")
    graph.finalize()
    original = graph.project_view(Configuration.ORIGINAL)
    enriched = graph.project_view(Configuration.ENRICHED)

    def distances(view, src):
        adj: dict[str, set[str]] = {}
        for e in view.edges:
            adj.setdefault(e.src, set()).add(e.dst)
            adj.setdefault(e.dst, set()).add(e.src)
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for node in frontier:
                for nbr in adj.get(node, ()):
                    if nbr not in dist:
                        dist[nbr] = dist[node] + 1
                        nxt.append(nbr)
            frontier = nxt
        return dist

    for src in original.nodes():
        base = distances(original, src)
        rich = distances(enriched, src)
        for dst, hops in base.items():
            assert rich[dst] <= hops


def test_controls_report_contents(pipeline_out):
    report = json.loads((pipeline_out / "controls-report.json").read_text())
    assert report["edgesRecomputed"] > 0
    assert 0 < report["edgesPruned"] <= report["edgesRecomputed"]
    assert report["profile"] == "secured"


def test_export_artifacts(pipeline_out):
    export_dir = pipeline_out / "export" / "original"
    dot = (export_dir / "graph.dot").read_text()
    assert dot.count("->") == 101  # observed dataflow edges
    assert (export_dir / "graph.graphml").exists()
    edges = read_csv(export_dir / "edges.csv")
    assert len(edges) == 101
    assert list(edges[0].keys()) == ["src", "dst", "kind", "riskWeight",
                                     "pExploit", "attackCost",
                                     "controlStrength", "protocol"]
    nodes = read_csv(export_dir / "nodes.csv")
    assert len(nodes) == 233


def test_state_tracks_stages(pipeline_out):
    state = json.loads((pipeline_out / "state.json").read_text())
    assert state["stages"] == STAGES
    assert state["seed"] == 42
    assert state["convention"] == "complement"


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def test_pipeline_deterministic(pipeline_out, pipeline_out_rerun):
    second, _ = pipeline_out_rerun
    assert tree_digest(second) == tree_digest(pipeline_out)
