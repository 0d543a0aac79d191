"""CSV loaders, CVE preprocessing, product linking and testbed handling."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icskg.config import RiskConfig
from icskg.errors import (BadEnum, CorruptState, DanglingReference, IcskgError, IngestError,
                          MissingColumn)
from icskg.graph import (Edge, EdgeKind, Graph, Node, NodeKind, RiskAttributes, audit_hierarchy,
                         csv_line, parse_csv, props_from_json, read_lines, write_csv)
from icskg.ingest import (
    CvssSummary,
    Dataflow,
    TestbedProduct,
    TestbedSpec,
    VulnRecord,
    build_dataflow_edges,
    import_predictions,
    index_cpes,
    link_products,
    load_edge_csv,
    load_nodes,
    load_relations,
    load_state,
    load_testbed,
    load_testbed_into_graph,
    match_product_cpes,
    preprocess_cves,
    save_state,
    vulnerability_props,
    vulnerability_scores,
)


def write(tmp_path: Path, name: str, text: str) -> Path:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


NODE_CSV = """id,kind,name,zone,criticality,props_json
CWE-79,Weakness,XSS,,,{}
CAPEC-66,AttackPattern,SQL Injection,,,{}
T0886,Technique,Remote Services,,,{}
"""

RELATION_CSV = """src,dst,kind,props_json
CWE-79,CAPEC-66,HAS_CAPEC,{}
CAPEC-66,T0886,HAS_TECHNIQUE,{}
"""


def test_load_counts(tmp_path):
    g = Graph()
    nodes = load_nodes(g, write(tmp_path, "n.csv", NODE_CSV))
    rels = load_relations(g, write(tmp_path, "r.csv", RELATION_CSV))
    assert (nodes.count, rels.count) == (3, 2)
    assert g.node_count() == 3
    assert g.edge_count() == 2


def test_missing_column_fatal(tmp_path):
    g = Graph()
    with pytest.raises(MissingColumn):
        load_nodes(g, write(tmp_path, "bad.csv", "id,kind\nX,Weakness\n"))


def test_dangling_relation_reported_with_row(tmp_path):
    g = Graph()
    load_nodes(g, write(tmp_path, "n.csv", NODE_CSV))
    csv_text = ("src,dst,kind,props_json\n"
                "CWE-79,CAPEC-66,HAS_CAPEC,{}\n"
                "CWE-79,CAPEC-404,HAS_CAPEC,{}\n")
    result = load_relations(g, write(tmp_path, "r.csv", csv_text))
    assert result.count == 1
    assert len(result.issues) == 1
    assert result.issues[0].row == 2
    assert result.issues[0].kind == "DanglingReference"


def test_ragged_rows_are_row_issues(tmp_path):
    g = Graph()
    load_nodes(g, write(tmp_path, "n.csv", NODE_CSV))
    csv_text = ("src,dst,kind,props_json\n"
                "CWE-79,CAPEC-66,HAS_CAPEC,{},x,y\n"
                "CAPEC-66,T0886,HAS_TECHNIQUE,{}\n"
                "CAPEC-66,T0886\n")
    result = load_relations(g, write(tmp_path, "r.csv", csv_text))
    assert result.count == 1
    assert [(i.row, i.kind, i.message) for i in result.issues] == [
        (1, "InvalidRow", "6 fields, not 4"),
        (3, "InvalidRow", "2 fields, not 4")]


@pytest.mark.parametrize("file_name", ["nodes.csv", "edges.csv"])
def test_load_state_rejects_ragged_rows(tmp_path, file_name):
    g = Graph()
    load_testbed_into_graph(g, mini_testbed(), RiskConfig())
    save_state(g, tmp_path)
    path = tmp_path / file_name
    header, first, *rest = path.read_text(encoding="utf-8").splitlines()
    ragged = rf"corrupt state in .*{file_name}: row 1: \d+ fields, not"
    path.write_text("\n".join([header, first + ",x,y", *rest]) + "\n", encoding="utf-8")
    with pytest.raises(CorruptState, match=ragged):
        load_state(tmp_path)
    short = first.rsplit(",", 2)[0]
    path.write_text("\n".join([header, short, *rest]) + "\n", encoding="utf-8")
    with pytest.raises(CorruptState, match=ragged):
        load_state(tmp_path)


def _break_state_file(path: Path, fault: str) -> str:
    """Put ``fault`` into the state file ``path``: a row that fails the load
    (nodes.csv: a CVE whose EPSS is a word, which aborts any node file;
    edges.csv: a risk cell that is not a number), a byte that is not UTF-8
    or a missing column.  Returns the text the error must hold after
    ``corrupt state in <path>: ``."""
    lines = path.read_bytes().split(b"\n")
    if fault == "row":
        row = csv_line(["CVE-9", "Vulnerability", "", "", "", '{"epss": "high"}']
                       if path.name == "nodes.csv" else
                       ["PLC_1", "MES_1", "COMMUNICATES_WITH", "abc", "", "", "", "{}"])
        path.write_bytes(b"\n".join([*lines[:-1], row.encode(), b""]))
        return (f"row {len(lines) - 1}: " + ("vulnerability 'CVE-9': epss must be"
                if path.name == "nodes.csv" else "could not convert string to float"))
    if fault == "utf8":
        lines[1] = lines[1][:2] + b"\xff" + lines[1][2:]
        path.write_bytes(b"\n".join(lines))
        return "line 2: 'utf-8' codec can't decode byte 0xff in position 2"
    lines[0] = lines[0].replace(b"props_json", b"props")
    path.write_bytes(b"\n".join(lines))
    return "missing required column 'props_json'"


@pytest.mark.parametrize("fault", ["row", "utf8", "column"])
@pytest.mark.parametrize("file_name", ["nodes.csv", "edges.csv"])
def test_every_state_fault_is_corrupt_state_naming_the_file(tmp_path, file_name, fault):
    g = Graph()
    load_testbed_into_graph(g, mini_testbed(), RiskConfig())
    save_state(g, tmp_path)
    path = tmp_path / file_name
    needle = _break_state_file(path, fault)
    with pytest.raises(IngestError, match="^" + re.escape(f"corrupt state in {path}: {needle}")):
        load_state(tmp_path)


def test_load_state_reports_the_nodes_fault_before_reading_edges(tmp_path):
    g = Graph()
    load_testbed_into_graph(g, mini_testbed(), RiskConfig())
    save_state(g, tmp_path)
    for name in ("edges.csv", "nodes.csv"):
        needle = _break_state_file(tmp_path / name, "utf8")
    with pytest.raises(IngestError, match="^" + re.escape(
            f"corrupt state in {tmp_path / 'nodes.csv'}: {needle}")):
        load_state(tmp_path)


# Cell text that needs CSV quoting (comma, quote, LF, CR) or is not ASCII;
# id, name and zone cells are read stripped, so they carry no outer blanks.
CELL_TEXT = st.text(st.sampled_from(list('ab ,"\n\r\té€{}:\\')), min_size=1, max_size=6)
STRIPPED_TEXT = CELL_TEXT.filter(lambda text: text == text.strip())
PROPS = st.dictionaries(CELL_TEXT.filter(lambda key: key != "name"),
                        st.one_of(st.just(""), CELL_TEXT), max_size=3)
RISKS = st.one_of(st.none(), st.builds(RiskAttributes, *[st.floats(allow_nan=False)] * 4))


@st.composite
def state_graphs(draw) -> Graph:
    """A graph of Products and Vulnerabilities whose ids, names, zones and
    props need quoting or are empty, with communication edges with and
    without risk and risk-free HAS_VULNERABILITY edges."""
    ids = draw(st.lists(STRIPPED_TEXT, min_size=2, max_size=8, unique=True))
    split = draw(st.integers(2, len(ids)))
    products, vulns = ids[:split], ids[split:]
    g = Graph()
    for node_id in ids:
        props = draw(PROPS)
        if draw(st.booleans()):
            props["name"] = draw(STRIPPED_TEXT)
        product = node_id in products
        g.upsert_node(Node(node_id, NodeKind.PRODUCT if product else NodeKind.VULNERABILITY,
                           props, draw(st.integers(0, 10)) if product else 0,
                           draw(STRIPPED_TEXT) if product else None))
    for src, dst in draw(st.lists(st.tuples(st.sampled_from(products),
                                            st.sampled_from(products)), max_size=10)):
        if src != dst:
            g.upsert_edge(Edge(src, dst, EdgeKind.COMMUNICATES_WITH, draw(RISKS), draw(PROPS)))
    for vuln in vulns:
        g.upsert_edge(Edge(draw(st.sampled_from(products)), vuln,
                           EdgeKind.HAS_VULNERABILITY, props=draw(PROPS)))
    return g


@settings(max_examples=150, deadline=None)
@given(state_graphs())
def test_state_round_trip_is_exact(tmp_path_factory, graph):
    first, second = tmp_path_factory.mktemp("first"), tmp_path_factory.mktemp("second")
    save_state(graph, first)
    loaded = load_state(first)
    save_state(loaded, second)
    for name in ("nodes.csv", "edges.csv"):
        assert (second / name).read_bytes() == (first / name).read_bytes()
    assert loaded.nodes() == graph.nodes()
    assert loaded.edges() == graph.edges()


# Each cell parses as JSON but is not an object of strings, or nests deeper
# than the parser recurses.
NOT_PROPS = {"non-string values": '{"a": true, "b": null, "d": {"x": 1}}', "number": '{"n": 1}',
             "list": '["a"]', "string": '"a"', "deep": "[" * 100_000}


@pytest.mark.parametrize("cell", list(NOT_PROPS.values())[:4], ids=list(NOT_PROPS)[:4])
def test_props_from_json_takes_only_string_values(cell):
    with pytest.raises(ValueError):
        props_from_json(cell)


@pytest.mark.parametrize("cell", NOT_PROPS.values(), ids=NOT_PROPS)
def test_props_that_are_not_strings_are_invalid_rows(tmp_path, cell):
    g = Graph()
    nodes = load_nodes(g, write(tmp_path, "n.csv", NODE_CSV + csv_line(
        ["CWE-1", "Weakness", "", "", "", cell]) + "\n"))
    relations = load_relations(g, write(tmp_path, "r.csv", RELATION_CSV + csv_line(
        ["CWE-79", "CAPEC-66", "HAS_CAPEC", cell]) + "\n"))
    assert [(i.row, i.kind, i.message) for i in nodes.issues + relations.issues] == [
        (4, "InvalidRow", "unparseable props_json"), (3, "InvalidRow", "unparseable props_json")]


@pytest.mark.parametrize("file_name", ["nodes.csv", "edges.csv"])
def test_load_state_rejects_props_that_are_not_strings(tmp_path, file_name):
    g = Graph()
    load_testbed_into_graph(g, mini_testbed(), RiskConfig())
    save_state(g, tmp_path)
    path = tmp_path / file_name
    header, rows = parse_csv(read_lines(path), path, [])
    rows = list(rows)
    rows[0][-1] = '{"a": true}'
    path.write_bytes(write_csv(header, rows))
    with pytest.raises(CorruptState,
                       match=f"corrupt state in .*{file_name}: row 1: unparseable props_json"):
        load_state(tmp_path)


def test_load_state_names_file_and_row_of_unreadable_risk_cell(tmp_path):
    g = Graph()
    load_testbed_into_graph(g, mini_testbed(), RiskConfig())
    save_state(g, tmp_path)
    with (tmp_path / "edges.csv").open("a", encoding="utf-8") as fh:
        fh.write("PLC_1,MES_1,COMMUNICATES_WITH,abc,,,,{}\n")
    row = g.edge_count() + 1
    with pytest.raises(CorruptState, match=re.escape(
            f"edges.csv: row {row}: could not convert string to float: 'abc'")):
        load_state(tmp_path)


def test_edge_csv_unreadable_risk_cell_is_a_skipped_row(tmp_path):
    g = Graph()
    load_testbed_into_graph(g, mini_testbed(), RiskConfig())
    csv_text = ("src,dst,kind,riskWeight,pExploit,attackCost,controlStrength,protocol\n"
                "Broker_1,MES_1,COMMUNICATES_WITH,abc,0.25,1.0,0.5,MQTT\n"
                "MES_1,PLC_1,COMMUNICATES_WITH,0.2,0.25,1.0,0.5,MQTT\n")
    result = load_edge_csv(g, write(tmp_path, "edges.csv", csv_text))
    assert result.count == 1
    assert [e.key for e in g.edges(EdgeKind.COMMUNICATES_WITH)] == [
        ("MES_1", "PLC_1", "COMMUNICATES_WITH")]
    assert [(i.row, i.kind, i.message) for i in result.issues] == [
        (1, "InvalidRow", "could not convert string to float: 'abc'")]


@pytest.mark.parametrize("props, needle", [
    ({"epss": "high"}, "epss must be a finite number from 0 to 1, got 'high'"),
    ({"epss": "5"}, "epss must be a finite number from 0 to 1, got 5.0"),
    ({"baseScore": "nan"}, "baseScore must be a finite number from 0 to 10, got 'nan'"),
    ({"baseScore": "1e999"}, "baseScore must be a finite number from 0 to 10, got inf"),
    ({"accessComplexity": "Medium"}, 'accessComplexity must be "Low" or "High", got \'Medium\''),
    ({"attackVector": ""}, "attackVector must be \"Network\", \"Adjacent\", \"Local\" or "
                           "\"Physical\", got ''"),
])
def test_vulnerability_rows_are_read_by_the_advisory_rules(tmp_path, props, needle):
    csv_text = NODE_CSV + csv_line(["CVE-9", "Vulnerability", "", "", "", json.dumps(props)]) + "\n"
    path = write(tmp_path, "n.csv", csv_text)
    with pytest.raises(IngestError, match=f"^{re.escape(str(path))}: row 4: "
                                          f"vulnerability 'CVE-9': {re.escape(needle)}$"):
        load_nodes(Graph(), path)


def test_vulnerability_props_round_trip(tmp_path):
    # Absent scoring props take the advisory's defaults.
    csv_text = NODE_CSV + csv_line(["CVE-9", "Vulnerability", "", "", "",
                                    json.dumps({"epss": "0.25", "attackVector": "Local"})])
    g = Graph()
    assert load_nodes(g, write(tmp_path, "n.csv", csv_text + "\n")).count == 4
    assert vulnerability_scores(g.node("CVE-9")) == (0.25, CvssSummary(attack_vector="Local"))
    record = VulnRecord.from_dict({"cveId": "CVE-1", "epss": 0.125, "cvss": {
        "baseScore": 9.8, "accessComplexity": "High", "attackVector": "Adjacent"}})
    node = Node(id="CVE-1", kind=NodeKind.VULNERABILITY, props=vulnerability_props(record))
    assert vulnerability_scores(node) == (record.epss, record.cvss)


def test_bad_enum_node_row_skipped(tmp_path):
    g = Graph()
    csv_text = ("id,kind,name,zone,criticality,props_json\n"
                "X,Gadget,,,,{}\n"
                "CWE-1,Weakness,,,,{}\n")
    result = load_nodes(g, write(tmp_path, "n.csv", csv_text))
    assert result.count == 1
    assert result.issues[0].kind == "BadEnum"


def test_duplicate_node_row_counted_once(tmp_path):
    g = Graph()
    csv_text = ("id,kind,name,zone,criticality,props_json\n"
                "CWE-1,Weakness,,,,{}\n"
                "CWE-1,Weakness,,,,{}\n")
    result = load_nodes(g, write(tmp_path, "n.csv", csv_text))
    assert result.count == 1
    assert g.node_count() == 1


def test_preprocess_filters_and_sanitizes():
    records = [
        VulnRecord(cve_id="CVE-1", description="ok", status="ACTIVE"),
        VulnRecord(cve_id="CVE-2", description="gone", status="REJECTED"),
        VulnRecord(cve_id="CVE-3", description="gone", status="RESOLVED"),
    ]
    out = preprocess_cves(records)
    assert [r.cve_id for r in out] == ["CVE-1"]

    noisy = VulnRecord(cve_id="CVE-4",
                       description="bad\x07 control\tchars   here", status="ACTIVE")
    cleaned = preprocess_cves([noisy])[0]
    assert cleaned.cve_id == "CVE-4"
    assert cleaned.description == "bad control chars here"


def test_preprocess_idempotent():
    records = [VulnRecord(cve_id="CVE-1", description="a\x00b", status="ACTIVE")]
    once = preprocess_cves(records)
    twice = preprocess_cves(once)
    assert [r.description for r in once] == [r.description for r in twice]


def test_preprocess_empty():
    assert preprocess_cves([]) == []


def mini_testbed() -> TestbedSpec:
    return TestbedSpec(
        zones=["DMZ", "OT"],
        products=[
            TestbedProduct("Broker_1", "HiveMesh", "Broker", "DMZ", 8, ["MQTT"]),
            TestbedProduct("MES_1", "Opcenter", "Service", "DMZ", 8, ["MQTT"]),
            TestbedProduct("PLC_1", "Simatic", "PLC", "OT", None, ["Modbus/TCP"]),
        ],
        dataflows=[Dataflow("Broker_1", "MES_1", "MQTT")],
    )


def test_link_products_single_cpe_two_cves():
    g = Graph()
    cfg = RiskConfig()
    testbed = mini_testbed()
    load_testbed_into_graph(g, testbed, cfg)
    advisories = [
        VulnRecord(cve_id="CVE-1", epss=0.5, cpes=["cpe:2.3:h:hivemesh:broker_1"]),
        VulnRecord(cve_id="CVE-2", epss=0.7, cpes=["cpe:2.3:h:hivemesh:broker_1"]),
    ]
    count = link_products(g, testbed, advisories)
    assert count == 2
    assert len([e for e in g.edges(EdgeKind.HAS_VULNERABILITY)
                if e.src == "Broker_1"]) == 2
    assert g.node("CVE-1").props["epss"] == repr(0.5)


def test_link_products_no_match_logs_warning(caplog):
    g = Graph()
    cfg = RiskConfig()
    testbed = mini_testbed()
    testbed.products.append(TestbedProduct("RTU_1", "Acme", "RTU", "OT", None, []))
    load_testbed_into_graph(g, testbed, cfg)
    advisories = [VulnRecord(cve_id="CVE-9", cpes=["cpe:2.3:h:othervendor:gadget"])]
    with caplog.at_level("DEBUG", logger="icskg.ingest"):
        count = link_products(g, testbed, advisories)
    assert count == 0
    names = [p.name for p in testbed.products]
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert warnings == ["no advisory/CPE match for 4 products, first "
                        "'Broker_1', 'MES_1', 'PLC_1'"]
    assert [r.getMessage() for r in caplog.records if r.levelname == "DEBUG"] \
        == [f"no advisory/CPE match for product {name!r}" for name in names]


def test_link_products_shared_cve_fans_in():
    g = Graph()
    cfg = RiskConfig()
    testbed = TestbedSpec(
        zones=["OT"],
        products=[
            TestbedProduct("PLC_A", "Simatic", "PLC", "OT", None, []),
            TestbedProduct("PLC_B", "Simatic", "PLC", "OT", None, []),
        ],
        dataflows=[],
    )
    load_testbed_into_graph(g, testbed, cfg)
    advisories = [VulnRecord(
        cve_id="CVE-10",
        cpes=["cpe:2.3:h:simatic:plc_a", "cpe:2.3:h:simatic:plc_b"])]
    assert link_products(g, testbed, advisories) == 2
    assert g.nodes(NodeKind.VULNERABILITY)[0].id == "CVE-10"
    assert len(g.nodes(NodeKind.VULNERABILITY)) == 1


def test_cpe_override_map():
    product = TestbedProduct("Custom PLC", "Acme", "PLC", "OT", None, [])
    cpes = index_cpes(["cpe:2.3:h:acme:legacy_controller", "cpe:2.3:h:acme:custom_plc"])
    assert match_product_cpes(product, cpes) == ["cpe:2.3:h:acme:custom_plc"]
    overridden = match_product_cpes(
        product, cpes, {"Custom PLC": "cpe:2.3:h:acme:legacy_controller"})
    assert overridden == ["cpe:2.3:h:acme:legacy_controller"]


def cpe_match_oracle(product, cpes, overrides):
    """The per-product loop that match_product_cpes replaced: every CPE is
    re-parsed and re-tokenised for every product."""
    def tokens(text):
        return set(re.findall(r"[a-z0-9]+", text.lower()))
    override = overrides.get(product.name)
    matched = []
    for cpe in cpes:
        if override is not None:
            if cpe == override:
                matched.append(cpe)
            continue
        parts = cpe.split(":")
        vendor, name = (parts[3], parts[4]) if len(parts) >= 5 and parts[0] == "cpe" \
            else ("", cpe)
        if tokens(vendor) != tokens(product.vendor):
            continue
        if tokens(name) and tokens(name) <= tokens(product.name):
            matched.append(cpe)
    return matched


# Vendor and product words that differ only in case or punctuation, or hold
# no token at all.
VENDOR_WORDS = ["acme", "Acme", "ACME", "ac_me", "Ac-Me", "acme corp", "Acme.Corp", "siemens",
                "SIEMENS", "", "--"]
PRODUCT_WORDS = ["plc", "PLC", "plc_a", "PLC-A", "a", "s7", "S7-1500", "1500", "hmi", "", "_"]
CPES = st.one_of(
    st.builds("cpe:2.3:{}:{}:{}".format, st.sampled_from("aho"), st.sampled_from(VENDOR_WORDS),
              st.sampled_from(PRODUCT_WORDS)),
    st.sampled_from(PRODUCT_WORDS + ["cpe:2.3:h", "CPE:2.3:h:acme:plc"]))
PRODUCTS = st.builds(
    lambda name, vendor: TestbedProduct(" ".join(name), vendor, "PLC", "OT", None, []),
    st.lists(st.sampled_from(PRODUCT_WORDS), max_size=3), st.sampled_from(VENDOR_WORDS))


@settings(max_examples=300, deadline=None)
@given(st.lists(CPES, max_size=20), st.lists(PRODUCTS, min_size=1, max_size=6), st.data())
def test_cpe_index_matches_the_per_product_loop(cpes, products, data):
    """Overrides present, absent or naming an unknown CPE; the CPE list in
    link_products' sorted order and as drawn, duplicates included."""
    overrides = {}
    for product in products:
        choice = data.draw(st.one_of(st.none(), st.just("cpe:2.3:h:acme:unknown"),
                                     st.sampled_from(cpes) if cpes else st.none()))
        if choice is not None:
            overrides[product.name] = choice
    for ordered in (sorted(set(cpes)), cpes):
        index = index_cpes(ordered)
        for product in products:
            assert match_product_cpes(product, index, overrides) == \
                cpe_match_oracle(product, ordered, overrides)


def test_criticality_default_by_asset_class():
    g = Graph()
    load_testbed_into_graph(g, mini_testbed(), RiskConfig())
    assert g.node("PLC_1").criticality == 9   # class default
    assert g.node("Broker_1").criticality == 8  # explicit override


def test_build_dataflow_edges():
    g = Graph()
    testbed = mini_testbed()
    load_testbed_into_graph(g, testbed, RiskConfig())
    count = build_dataflow_edges(g, testbed)
    assert count == 1
    edge = g.edge("Broker_1", "MES_1", EdgeKind.COMMUNICATES_WITH)
    assert edge.props["protocol"] == "MQTT"
    assert edge.risk is None
    # duplicate rows merge
    testbed.dataflows.append(Dataflow("Broker_1", "MES_1", "MQTT"))
    assert build_dataflow_edges(g, testbed) == 0


def test_dataflow_unknown_endpoint_rejected(tmp_path):
    spec = write(tmp_path, "testbed.json", """{
      "zones": ["OT"],
      "products": [{"name": "A", "vendor": "v", "assetClass": "PLC", "zone": "OT"}],
      "dataflows": [{"src": "A", "dst": "B", "protocol": "Modbus/TCP"}]
    }""")
    with pytest.raises(DanglingReference):
        load_testbed(spec)


@pytest.mark.parametrize("value", [8.7, True, "9"])
def test_testbed_criticality_must_be_json_integer(tmp_path, value):
    spec = write(tmp_path, "testbed.json", json.dumps({
        "zones": ["OT"],
        "products": [{"name": "A", "vendor": "v", "assetClass": "PLC", "zone": "OT",
                      "criticality": value}]}))
    with pytest.raises(IcskgError, match="product 'A': criticality must be an integer"):
        load_testbed(spec)


@pytest.mark.parametrize("key, value", [
    ("epss", "0.5"), ("epss", True), ("baseScore", "7.5"), ("baseScore", True)])
def test_advisory_numbers_must_be_json_numbers(key, value):
    raw = {"cveId": "CVE-1", "epss": 0.5, "cvss": {"baseScore": 7.5}}
    (raw["cvss"] if key == "baseScore" else raw)[key] = value
    with pytest.raises(IcskgError, match=f"advisory 'CVE-1': .*{key} must be a finite number"):
        VulnRecord.from_dict(raw)


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_advisory_kev_must_be_json_boolean(value):
    with pytest.raises(IngestError,
                       match=f"advisory 'CVE-1': kev must be true or false, got {value!r}"):
        VulnRecord.from_dict({"cveId": "CVE-1", "kev": value})


def test_import_predictions_threshold(tmp_path):
    g = Graph()
    g.upsert_node(Node(id="CVE-1", kind=NodeKind.VULNERABILITY))
    g.upsert_node(Node(id="CWE-1", kind=NodeKind.WEAKNESS))
    csv_text = ("srcId,dstId,kind,confidence\n"
                "CVE-1,CWE-1,HAS_POSSIBLE_CWE,0.9\n"
                "CVE-1,CWE-1,HAS_POSSIBLE_CWE,0.5\n"
                "CVE-1,CWE-1,HAS_POSSIBLE_CWE,0.2\n")
    result = import_predictions(g, write(tmp_path, "p.csv", csv_text), 0.6)
    assert result.count == 1
    assert g.edge_count() == 1


def test_import_predictions_min_zero_and_dangling(tmp_path):
    g = Graph()
    g.upsert_node(Node(id="CVE-1", kind=NodeKind.VULNERABILITY))
    g.upsert_node(Node(id="CWE-1", kind=NodeKind.WEAKNESS))
    csv_text = ("srcId,dstId,kind,confidence\n"
                "CVE-1,CWE-1,HAS_POSSIBLE_CWE,0.1\n"
                "CVE-1,CWE-404,HAS_POSSIBLE_CWE,0.9\n")
    result = import_predictions(g, write(tmp_path, "p.csv", csv_text), 0.0)
    assert result.count == 1
    assert result.issues[0].kind == "DanglingReference"
    assert result.issues[0].row == 2


def test_import_predictions_rejects_non_prediction_kind(tmp_path):
    g = Graph()
    for kind, confidence in (("COMMUNICATES_WITH", "0.9"), ("NOT_A_KIND", "0.9"),
                             ("HAS_POSSIBLE_CWE", "high")):
        csv_text = ("srcId,dstId,kind,confidence\n"
                    "A,B,HAS_POSSIBLE_CWE,0.1\n"
                    f"A,B,{kind},{confidence}\n")
        path = write(tmp_path, "p.csv", csv_text)
        with pytest.raises(BadEnum, match=f"^{re.escape(str(path))}: row 2: "):
            import_predictions(g, path, 0.5)


def test_vuln_record_defaults_for_missing_fields():
    rec = VulnRecord.from_dict({"cveId": "CVE-77", "status": "ACTIVE"})
    assert rec.epss == 0.0
    assert rec.cvss.base_score == 5.0
    assert rec.kev is False


def test_vuln_record_rejects_bad_values():
    with pytest.raises(BadEnum):
        VulnRecord.from_dict({"cveId": "CVE-1", "status": "WEIRD"})
    with pytest.raises(IngestError, match="advisory 'CVE-1': epss must be a finite number "
                                          "from 0 to 1, got 1.5"):
        VulnRecord.from_dict({"cveId": "CVE-1", "epss": 1.5})


def test_hierarchy_audit_full_build(tmp_path):
    g = Graph()
    testbed = mini_testbed()
    load_testbed_into_graph(g, testbed, RiskConfig())
    load_nodes(g, write(tmp_path, "n.csv", NODE_CSV))
    advisories = [VulnRecord(cve_id="CVE-1", cpes=["cpe:2.3:h:simatic:plc_1"])]
    link_products(g, testbed, advisories)
    load_relations(g, write(tmp_path, "r.csv", RELATION_CSV))
    build_dataflow_edges(g, testbed)
    assert audit_hierarchy(g) == []


def test_ingestion_determinism(tmp_path):
    def build():
        g = Graph()
        testbed = mini_testbed()
        load_testbed_into_graph(g, testbed, RiskConfig())
        load_nodes(g, write(tmp_path, "n.csv", NODE_CSV))
        load_relations(g, write(tmp_path, "r.csv", RELATION_CSV))
        build_dataflow_edges(g, testbed)
        return g
    a, b = build(), build()
    assert a.counts_by_kind() == b.counts_by_kind()
    assert [e.key for e in a.edges()] == [e.key for e in b.edges()]


def test_state_round_trip(tmp_path):
    g = Graph()
    testbed = mini_testbed()
    load_testbed_into_graph(g, testbed, RiskConfig())
    build_dataflow_edges(g, testbed)
    from conftest import add_comm
    add_comm(g, "MES_1", "PLC_1", risk_weight=0.25, p_exploit=0.5)
    save_state(g, tmp_path / "state")
    g2 = load_state(tmp_path / "state")
    assert g2.counts_by_kind() == g.counts_by_kind()
    edge = g2.edge("MES_1", "PLC_1", EdgeKind.COMMUNICATES_WITH)
    assert edge.risk.risk_weight == 0.25
    # byte-stable across a second save
    save_state(g2, tmp_path / "state2")
    assert (tmp_path / "state" / "nodes.csv").read_bytes() == \
        (tmp_path / "state2" / "nodes.csv").read_bytes()
    assert (tmp_path / "state" / "edges.csv").read_bytes() == \
        (tmp_path / "state2" / "edges.csv").read_bytes()


@pytest.mark.parametrize("bad_row", [
    "PLC_1,MES_1,NOT_A_KIND,,,,,{}",
    "PLC_1,GHOST,COMMUNICATES_WITH,,,,,{}",
    "PLC_1,MES_1,COMMUNICATES_WITH,,,,,not-json",
])
def test_load_state_rejects_any_bad_edge_row(tmp_path, bad_row):
    g = Graph()
    load_testbed_into_graph(g, mini_testbed(), RiskConfig())
    save_state(g, tmp_path)
    with (tmp_path / "edges.csv").open("a", encoding="utf-8") as fh:
        fh.write(bad_row + "\n")
    # Every row issue names its row: a bad kind, a dangling end, bad props.
    with pytest.raises(CorruptState, match=re.escape(
            f"corrupt state in {tmp_path / 'edges.csv'}: row {g.edge_count() + 1}: ")):
        load_state(tmp_path)
