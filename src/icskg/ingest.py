"""Loaders for public-dataset CSV snapshots, advisories and the testbed spec.

File formats (all UTF-8, comma-separated, first row is the header; see
:func:`icskg.graph.write_csv` for the quoting rule):

* node.csv      ``id,kind,name,zone,criticality,props_json``
* relation.csv  ``src,dst,kind,props_json``
* state         ``graph/nodes.csv`` in the node.csv format and
  ``graph/edges.csv`` as ``src,dst,kind,riskWeight,pExploit,attackCost,
  controlStrength,props_json`` (relation.csv plus the risk columns)
* edge-CSV      ``src,dst,kind,riskWeight,pExploit,attackCost,controlStrength,protocol``
  (the export format of :meth:`GraphView.export`; re-ingestable here)
* predictions   ``srcId,dstId,kind,confidence`` with kind limited to
  HAS_POSSIBLE_CWE / HAS_POSSIBLE_TECHNIQUE / SUGGESTED_TACTIC
* testbed spec  JSON document, see :class:`TestbedSpec`
* advisories    JSON list of vulnerability records, see :class:`VulnRecord`
* Vulnerability props  see :func:`vulnerability_props`, :func:`vulnerability_scores`

Row-level problems (bad enum cell, dangling node reference, invariant
violations) are collected as :class:`RowIssue` entries with their line
number and the row is skipped; a missing header column is fatal.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from typing import Callable, Hashable, Iterable, Optional, Sequence

from icskg.config import (BOOLEAN, CONTROL_NAMES, DEFAULT_F_AC, DEFAULT_F_AV, STRING,
                          ControlProfile, RiskConfig, integer, list_of, number, obj, one_of, table)
from icskg.errors import (
    BadEnum,
    CorruptState,
    DanglingReference,
    GraphError,
    IngestError,
)
from icskg.graph import (
    EDGE_CSV_HEADER,
    PREDICTION_KINDS,
    RISK_COLUMNS,
    Edge,
    EdgeKind,
    Graph,
    Node,
    NodeKind,
    RiskAttributes,
    parse_csv,
    props_from_json,
    props_to_json,
    read_json,
    read_lines,
    write_csv,
)

logger = logging.getLogger(__name__)

NODE_CSV_HEADER = ["id", "kind", "name", "zone", "criticality", "props_json"]
RELATION_CSV_HEADER = ["src", "dst", "kind", "props_json"]
PREDICTION_CSV_HEADER = ["srcId", "dstId", "kind", "confidence"]


@dataclass
class RowIssue:
    row: int            # 1-based data row number (header not counted)
    kind: str           # "BadEnum" | "DanglingReference" | "InvalidRow"
    message: str


@dataclass
class LoadResult:
    count: int
    issues: list[RowIssue] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Vulnerability records
# ---------------------------------------------------------------------------

@dataclass
class CvssSummary:
    base_score: float = 5.0
    access_complexity: str = "Low"
    attack_vector: str = "Network"


@dataclass
class VulnRecord:
    cve_id: str
    description: str = ""
    status: str = "ACTIVE"
    epss: float = 0.0
    kev: bool = False
    cvss: CvssSummary = field(default_factory=CvssSummary)
    vendor_statements: list[str] = field(default_factory=list)
    cpes: list[str] = field(default_factory=list)

    @classmethod
    def from_dict(cls, raw: dict, name: str = "advisory") -> "VulnRecord":
        """The record ``raw`` declares, read by :data:`ADVISORY`.  Public
        feeds are incomplete: an absent EPSS means no evidence of
        exploitation (0.0), an absent base score medium severity (5.0)."""
        record = ADVISORY(raw, name)
        if "epss" not in raw:
            logger.debug("no EPSS for %s, defaulting to 0.0", record.cve_id)
        if "baseScore" not in raw.get("cvss", {}):
            logger.debug("no CVSS base for %s, defaulting to 5.0", record.cve_id)
        return record


EPSS = number(0, 1)
CVSS = {
    "baseScore": number(0, 10),
    # The risk config's fAC and fAV price every category.
    "accessComplexity": one_of(DEFAULT_F_AC),
    "attackVector": one_of(DEFAULT_F_AV),
}
ADVISORY = obj({
    "cveId": STRING,
    "description": STRING,
    "status": one_of(("ACTIVE", "REJECTED", "RESOLVED")),
    "epss": EPSS,
    "kev": BOOLEAN,
    "cvss": obj(CVSS, make=CvssSummary),
    "vendorStatements": list_of(STRING),
    "cpes": list_of(STRING),
}, required=("cveId",), make=VulnRecord, label=("cveId", "advisory {!r}"))


def load_advisories(path: str | Path) -> list[VulnRecord]:
    return list_of(VulnRecord.from_dict)(read_json(path), "advisories")


def vulnerability_props(record: VulnRecord) -> dict[str, str]:
    """The props of an advisory's Vulnerability node, numbers as their
    ``repr``; :func:`vulnerability_scores` reads back the scoring ones."""
    cvss = record.cvss
    return {"name": record.cve_id, "epss": repr(record.epss),
            "kev": "true" if record.kev else "false", "baseScore": repr(cvss.base_score),
            "accessComplexity": cvss.access_complexity, "attackVector": cvss.attack_vector,
            "status": record.status, "vendorStatements": " | ".join(record.vendor_statements)}


# A Vulnerability node's scoring props: its advisory's settings, as text cells.
_SCORING = {"epss": EPSS, **CVSS}
_SCORES = obj(_SCORING, make=lambda epss=VulnRecord.epss, **cvss: (epss, CvssSummary(**cvss)))


def vulnerability_scores(node: Node) -> tuple[float, CvssSummary]:
    """The EPSS and CVSS summary in a Vulnerability node's props, read by the
    advisory's rules: an absent prop takes its default, a bad one raises IngestError."""
    raw = {key: node.props[key] for key in _SCORING if key in node.props}
    for key, cell in raw.items():
        if not cell.isalpha():   # a word stays text; a number is read as one
            try:
                raw[key] = float(cell)
            except ValueError:
                pass
    return _SCORES(raw, node.id, f"vulnerability {node.id!r}: ")


_WS_RE = re.compile(r"\s+")


def _sanitize_text(text: str) -> str:
    cleaned = "".join(ch if ch.isprintable() else " " for ch in text)
    return _WS_RE.sub(" ", cleaned).strip()


def preprocess_cves(records: list[VulnRecord]) -> list[VulnRecord]:
    """Drop REJECTED/RESOLVED entries and sanitize descriptions.

    Non-printable characters are replaced and whitespace collapsed; input
    order is preserved and the operation is idempotent.
    """
    out = []
    for rec in records:
        if rec.status != "ACTIVE":
            continue
        rec.description = _sanitize_text(rec.description)
        rec.vendor_statements = [_sanitize_text(s) for s in rec.vendor_statements]
        out.append(rec)
    return out


# ---------------------------------------------------------------------------
# Testbed specification
# ---------------------------------------------------------------------------

@dataclass
class TestbedProduct:
    name: str
    vendor: str = ""
    asset_class: str = ""
    zone: str = ""
    criticality: Optional[int] = None
    protocols: list[str] = field(default_factory=list)


@dataclass
class Dataflow:
    src: str
    dst: str
    protocol: str = ""


@dataclass
class TestbedSpec:
    zones: list[str] = field(default_factory=list)
    products: list[TestbedProduct] = field(default_factory=list)
    dataflows: list[Dataflow] = field(default_factory=list)
    control_profiles: dict[str, ControlProfile] = field(default_factory=dict)
    cpe_overrides: dict[str, str] = field(default_factory=dict)


_ZONE = obj({"name": STRING}, required=("name",))


def _zone(raw, name: str) -> str:
    """A testbed zone: its name, or an object holding its ``name``."""
    return _ZONE(raw, name)["name"] if isinstance(raw, dict) else STRING(raw, name)


TESTBED = obj({
    "zones": list_of(_zone),
    "products": list_of(obj({
        "name": STRING, "vendor": STRING, "assetClass": STRING, "zone": STRING,
        "criticality": integer(0, 10), "protocols": list_of(STRING),
    }, required=("name", "zone"), make=TestbedProduct, label=("name", "product {!r}"))),
    "dataflows": list_of(obj({"src": STRING, "dst": STRING, "protocol": STRING},
                            required=("src", "dst"), make=Dataflow)),
    "controlProfiles": table(obj({
        "controls": list_of(one_of(CONTROL_NAMES), make=frozenset),
        "allowlist": list_of(list_of(STRING, "a pair of product names", range(2, 3), tuple),
                             make=frozenset),
    }, make=ControlProfile)),
    "cpeOverrides": table(STRING),
}, required=("products",), make=TestbedSpec)


def load_testbed(path: str | Path) -> TestbedSpec:
    """The testbed spec at ``path``, read by :data:`TESTBED`.  Product names
    must be unique, each product in a declared zone, when zones are declared,
    and each dataflow endpoint, allowlisted name and ``cpeOverrides`` key a
    declared product."""
    testbed = TESTBED(read_json(path), "testbed", "")
    zones = set(testbed.zones)
    names: set[str] = set()
    for p in testbed.products:
        if p.name in names:
            raise IngestError(f"products: product {p.name!r} is declared twice")
        names.add(p.name)
        if zones and p.zone not in zones:
            raise BadEnum(f"product {p.name!r} declares unknown zone {p.zone!r}")
    references = [(f"dataflow {role}", end) for f in testbed.dataflows
                  for role, end in (("source", f.src), ("target", f.dst))]
    references += [(f"controlProfiles.{profile}.allowlist", name)
                   for profile, controls in testbed.control_profiles.items()
                   for pair in sorted(controls.allowlist) for name in pair]
    references += [("cpeOverrides key", name) for name in testbed.cpe_overrides]
    for setting, name in references:
        if name not in names:
            raise DanglingReference(f"{setting} {name!r} is not a declared product")
    return testbed


def load_testbed_into_graph(graph: Graph, testbed: TestbedSpec,
                            risk_config: RiskConfig) -> int:
    """Materialize products, zones and protocols as graph nodes.

    Product criticality comes from the explicit per-product value when
    present, otherwise from the asset-class defaults in the risk config.
    Returns the number of Product nodes created.
    """
    for zone in testbed.zones:
        graph.upsert_node(Node(id=f"zone:{zone}", kind=NodeKind.ZONE,
                               props={"name": zone}))
    protocols = sorted({proto for p in testbed.products for proto in p.protocols}
                       | {f.protocol for f in testbed.dataflows if f.protocol})
    for proto in protocols:
        graph.upsert_node(Node(id=f"protocol:{proto}", kind=NodeKind.PROTOCOL,
                               props={"name": proto}))
    count = 0
    for p in testbed.products:
        crit = p.criticality if p.criticality is not None \
            else risk_config.default_criticality(p.asset_class)
        graph.upsert_node(Node(
            id=p.name,
            kind=NodeKind.PRODUCT,
            props={"name": p.name, "vendor": p.vendor, "assetClass": p.asset_class},
            criticality=crit,
            zone=p.zone,
        ))
        graph.upsert_edge(Edge(p.name, f"zone:{p.zone}", EdgeKind.IN_ZONE))
        for proto in p.protocols:
            graph.upsert_edge(Edge(p.name, f"protocol:{proto}", EdgeKind.USES_PROTOCOL))
        count += 1
    return count


def build_dataflow_edges(graph: Graph, testbed: TestbedSpec) -> int:
    """One COMMUNICATES_WITH edge per observed dataflow; duplicates merge."""
    before = graph.edge_count()
    for flow in testbed.dataflows:
        graph.upsert_edge(Edge(flow.src, flow.dst, EdgeKind.COMMUNICATES_WITH,
                               props={"protocol": flow.protocol}))
    return graph.edge_count() - before


# ---------------------------------------------------------------------------
# Product <-> CPE matching and vulnerability linking
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def _tokens(text: str) -> set[str]:
    return set(_TOKEN_RE.findall(text.lower()))


def _cpe_vendor_product(cpe: str) -> tuple[str, str]:
    """Extract the vendor and product fields of a ``cpe:2.3:part:...`` URI."""
    parts = cpe.split(":")
    if len(parts) >= 5 and parts[0] == "cpe":
        return parts[3].lower(), parts[4].lower()
    return "", cpe.lower()


CpeIndex = dict[frozenset[str], list[tuple[str, set[str]]]]


def index_cpes(cpes: Iterable[str]) -> CpeIndex:
    """Each CPE, in the order given, with its product tokens, grouped by its
    vendor tokens: a product is matched against its own vendor's group."""
    index: CpeIndex = {}
    for cpe in cpes:
        vendor, product = _cpe_vendor_product(cpe)
        index.setdefault(frozenset(_tokens(vendor)), []).append((cpe, _tokens(product)))
    return index


def match_product_cpes(product: TestbedProduct, index: CpeIndex,
                       overrides: Optional[dict[str, str]] = None) -> list[str]:
    """Case-insensitive (vendor, product) token match with explicit overrides.

    Advisory product names keep their original form, so the match is fuzzy:
    the CPE vendor must equal the product vendor (token-wise) and every CPE
    product token must appear among the product-name tokens.  A product with
    an override matches that CPE only, if the index holds it.
    """
    override = (overrides or {}).get(product.name)
    if override is not None:
        group = index.get(frozenset(_tokens(_cpe_vendor_product(override)[0])), [])
        return [cpe for cpe, _ in group if cpe == override]
    name_tokens = _tokens(product.name)
    return [cpe for cpe, product_tokens in index.get(frozenset(_tokens(product.vendor)), [])
            if product_tokens and product_tokens <= name_tokens]


def link_products(graph: Graph, testbed: TestbedSpec,
                  advisories: list[VulnRecord]) -> int:
    """Create Vulnerability nodes and Product->Vulnerability edges.

    Each product is matched against the advisory CPEs of its vendor; matched CVEs
    become Vulnerability nodes carrying their scoring metadata as properties.
    Unmatched products are never fatal: each is logged at DEBUG, and one
    WARNING gives their count and the first three.  Returns the number of
    HAS_VULNERABILITY edges created.
    """
    cpe_index: dict[str, list[VulnRecord]] = {}
    for rec in advisories:
        for cpe in rec.cpes:
            cpe_index.setdefault(cpe, []).append(rec)
    by_vendor = index_cpes(sorted(cpe_index))
    edges = 0
    unmatched = []
    for product in testbed.products:
        matched = match_product_cpes(product, by_vendor, testbed.cpe_overrides)
        records = []
        seen = set()
        for cpe in matched:
            for rec in cpe_index[cpe]:
                if rec.cve_id not in seen:
                    seen.add(rec.cve_id)
                    records.append(rec)
        if not records:
            logger.debug("no advisory/CPE match for product %r", product.name)
            unmatched.append(product.name)
            continue
        for rec in sorted(records, key=lambda r: r.cve_id):
            graph.upsert_node(Node(rec.cve_id, NodeKind.VULNERABILITY, vulnerability_props(rec)))
            graph.upsert_edge(Edge(product.name, rec.cve_id, EdgeKind.HAS_VULNERABILITY))
            edges += 1
    if unmatched:
        logger.warning("no advisory/CPE match for %d products, first %s", len(unmatched),
                       ", ".join(map(repr, unmatched[:3])))
    return edges


# ---------------------------------------------------------------------------
# CSV loaders
# ---------------------------------------------------------------------------

class _RowProblem(Exception):
    """A malformed row: reported as a :class:`RowIssue` and skipped."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(message)
        self.kind = kind


def _load_rows(path: str | Path, columns: Sequence[str],
               load_row: Callable[..., Optional[Hashable]]) -> LoadResult:
    """Feed every data row of the CSV file at ``path`` to ``load_row`` as
    the stripped cells of ``columns``, in that order (of a repeated header
    column, the last); ``load_row`` upserts the row and returns its key
    (None skips the row silently).  A row whose field count differs from
    the header's, row problems, cells that do not parse (``ValueError``)
    and rejected upserts become row issues, their messages without the row
    number; any other ingest error aborts the load as
    ``<path>: row N: <message>``."""
    header, rows = parse_csv(read_lines(path), path, columns)
    position = {name: i for i, name in enumerate(header)}
    picks = [position[name] for name in columns]
    accepted: set[Hashable] = set()
    issues: list[RowIssue] = []
    width = len(header)
    for row_num, fields in enumerate(rows, start=1):
        if len(fields) != width:
            issues.append(RowIssue(row_num, "InvalidRow", f"{len(fields)} fields, not {width}"))
            continue
        try:
            key = load_row(*[fields[i].strip() for i in picks])
        except _RowProblem as exc:
            issues.append(RowIssue(row_num, exc.kind, str(exc)))
        except (GraphError, ValueError) as exc:
            issues.append(RowIssue(row_num, "InvalidRow", str(exc)))
        except IngestError as exc:
            raise type(exc)(f"{path}: row {row_num}: {exc}") from None
        else:
            if key is not None:
                accepted.add(key)
    return LoadResult(len(accepted), issues)


# Each kind by its value: a dict lookup takes a tenth of ``EdgeKind(raw)``'s time.
_EDGE_KINDS = {kind.value: kind for kind in EdgeKind}
_NODE_KINDS = {kind.value: kind for kind in NodeKind}


def _edge_kind(raw: str) -> EdgeKind:
    kind = _EDGE_KINDS.get(raw)
    if kind is None:
        raise _RowProblem("BadEnum", f"unknown edge kind {raw!r}")
    return kind


def _endpoints(graph: Graph, src: str, dst: str) -> tuple[str, str]:
    for node_id in (src, dst):
        if not graph.has_node(node_id):
            raise _RowProblem("DanglingReference",
                              f"row references unknown node {node_id!r}")
    return src, dst


def _props(raw: str) -> dict[str, str]:
    try:
        return props_from_json(raw)
    except (ValueError, RecursionError):
        raise _RowProblem("InvalidRow", "unparseable props_json") from None


def load_nodes(graph: Graph, path: str | Path) -> LoadResult:
    """Load node.csv rows; returns distinct accepted nodes and row issues.  A
    Vulnerability row's props are checked by :func:`vulnerability_scores`."""
    return _load_rows(path, NODE_CSV_HEADER, _node_loader(graph))


def _node_loader(graph: Graph) -> Callable[..., str]:
    """The row loader of every node file: node.csv and the state's nodes.csv."""
    # Each distinct props cell of the file is parsed once; rows with equal
    # cells share the dict, which is never changed (records copy their props).
    props_of = cache(_props)

    def load_row(node_id: str, kind_raw: str, name: str, zone: str, crit_raw: str,
                 props_json: str) -> str:
        kind = _NODE_KINDS.get(kind_raw)
        if kind is None:
            raise _RowProblem("BadEnum", f"unknown node kind {kind_raw!r}")
        props = props_of(props_json)
        if name and "name" not in props:
            props = {**props, "name": name}
        node = Node(id=node_id, kind=kind, props=props,
                    criticality=int(crit_raw) if crit_raw else 0, zone=zone or None)
        if kind is NodeKind.VULNERABILITY:
            vulnerability_scores(node)
        return graph.upsert_node(node)
    return load_row


def _edge_loader(graph: Graph, read_props: Optional[Callable] = None) -> Callable[..., tuple]:
    """The row loader of every edge file: ``src,dst,kind``, any :data:`RISK_COLUMNS`
    cells, and last the edge's props, read by ``read_props`` (default: props_json)."""
    read_props = read_props or cache(_props)   # as in load_nodes: one parse per distinct cell
    risk_of = cache(RiskAttributes.decode)     # and one per distinct set of risk cells

    def load_row(src: str, dst: str, kind: str, *cells: str) -> tuple[str, str, str]:
        risk = risk_of(*cells[:-1]) if len(cells) > 1 else None
        edge_kind = _edge_kind(kind)
        src, dst = _endpoints(graph, src, dst)
        return graph.upsert_edge(Edge(src, dst, edge_kind, risk=risk,
                                      props=read_props(cells[-1])))
    return load_row


def load_relations(graph: Graph, path: str | Path) -> LoadResult:
    """Load relation.csv rows; dangling references are reported with their
    row number and skipped."""
    return _load_rows(path, RELATION_CSV_HEADER, _edge_loader(graph))


def load_edge_csv(graph: Graph, path: str | Path) -> LoadResult:
    """Re-ingest the edge-CSV export format (round-trip of view exports)."""
    return _load_rows(path, EDGE_CSV_HEADER, _edge_loader(
        graph, lambda protocol: {"protocol": protocol} if protocol else {}))


def import_predictions(graph: Graph, path: str | Path,
                       min_confidence: float) -> LoadResult:
    """Import externally produced relation predictions above a confidence bar.

    Only the three prediction kinds are admissible; any other kind (or a
    confidence outside [0,1]) violates the file contract and raises BadEnum.
    Rows referencing unknown nodes are reported and skipped.
    """
    def load_row(src: str, dst: str, kind_raw: str,
                 confidence_raw: str) -> Optional[tuple[str, str, str]]:
        try:
            kind = _edge_kind(kind_raw)
        except _RowProblem as exc:
            raise BadEnum(str(exc)) from None
        if kind not in PREDICTION_KINDS:
            raise BadEnum(
                f"{kind.value} is not a prediction kind "
                f"(expected one of {sorted(k.value for k in PREDICTION_KINDS)})")
        try:
            confidence = float(confidence_raw or 0.0)
        except ValueError:
            raise BadEnum(f"confidence {confidence_raw!r} is not a number") from None
        if not 0.0 <= confidence <= 1.0:
            raise BadEnum(f"confidence {confidence} outside [0,1]")
        if confidence < min_confidence:
            return None
        src, dst = _endpoints(graph, src, dst)
        return graph.upsert_edge(Edge(src, dst, kind, props={"confidence": repr(confidence)}))
    return _load_rows(path, PREDICTION_CSV_HEADER, load_row)


# ---------------------------------------------------------------------------
# Full-fidelity graph state (pipeline persistence between CLI stages)
# ---------------------------------------------------------------------------

STATE_NODE_FILE = "nodes.csv"
STATE_EDGE_FILE = "edges.csv"
_STATE_EDGE_HEADER = ["src", "dst", "kind", *RISK_COLUMNS, "props_json"]


def write_node_csv(graph: Graph) -> bytes:
    """Serialize every node in the node.csv interchange format, sorted by id."""
    to_json = cache(props_to_json)   # formats each distinct props once
    return write_csv(NODE_CSV_HEADER, (
        [node.id,
         node.kind.value,
         node.props.get("name", ""),
         node.zone or "",
         node.criticality if node.kind is NodeKind.PRODUCT else "",
         to_json(tuple(kv for kv in node.props.items() if kv[0] != "name"))]
        for node in graph.nodes()))


def save_state(graph: Graph, directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / STATE_NODE_FILE).write_bytes(write_node_csv(graph))
    to_json = cache(props_to_json)   # formats each distinct props once
    (directory / STATE_EDGE_FILE).write_bytes(write_csv(_STATE_EDGE_HEADER, (
        [*e.key, *RiskAttributes.encode(e.risk), to_json(tuple(e.props.items()))]
        for e in graph.edges())))


def load_state(directory: str | Path) -> Graph:
    """Inverse of :func:`save_state`.  Every fault of a state file is corrupt
    state: an ingest error reads ``corrupt state in <file>: …``, and a row
    issue raises CorruptState naming the file, the row and its first issue.
    nodes.csv is read, and checked, before edges.csv."""
    directory = Path(directory)
    graph = Graph()
    for name, columns, loader in ((STATE_NODE_FILE, NODE_CSV_HEADER, _node_loader),
                                  (STATE_EDGE_FILE, _STATE_EDGE_HEADER, _edge_loader)):
        path = directory / name
        try:
            issues = _load_rows(path, columns, loader(graph)).issues
        except IngestError as exc:   # its message names the file first
            raise type(exc)(f"corrupt state in {exc}") from None
        if issues:
            raise CorruptState(
                f"corrupt state in {path}: row {issues[0].row}: {issues[0].message}")
    return graph
