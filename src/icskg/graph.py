"""In-memory typed property graph with configuration-filtered views.

The graph is built single-writer, then frozen with :meth:`Graph.finalize`.
Its records (:class:`Node`, :class:`Edge` and :class:`RiskAttributes`) are
frozen values with read-only ``props``: the build phase replaces a record,
never changes it, so the graph, its views and every stage can share them.
After :meth:`Graph.finalize`, any number of :class:`GraphView` projections
can be taken and queried concurrently; a view is a value-like snapshot of the
active communication edge set for one configuration:

* ``Original``   - observed COMMUNICATES_WITH links only
* ``Enriched``   - Original plus inferred HAS_POSSIBLE_COMMUNICATION links
* ``Controlled`` - CONTROLLED_COMMUNICATES_WITH where a pair has one,
  surviving enriched edges otherwise, with every edge whose riskWeight is
  below the prune threshold (default 0.05) removed

Storage keeps edge direction (reports need source/target); traversal inside
views treats communication edges as undirected.
"""

from __future__ import annotations

import csv
import json
import xml.sax.saxutils as saxutils
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from io import StringIO
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from icskg.errors import (
    GraphFinalized,
    GraphNotFinalized,
    IngestError,
    InvalidCriticality,
    InvalidNode,
    KindConflict,
    KindConstraintViolation,
    MissingColumn,
    MissingEndpoint,
    UnknownNode,
)

PRUNE_THRESHOLD = 0.05


# The enums here hash by identity: Enum.__hash__ is a Python-level
# hash(self._name_), run on every kind-set test and rule lookup of the ingest
# and projection loops.  Members are singletons compared by identity, and sets
# of them are only tested or sorted by value, so no output order changes.
class NodeKind(Enum):
    PRODUCT = "Product"
    VULNERABILITY = "Vulnerability"
    WEAKNESS = "Weakness"
    ATTACK_PATTERN = "AttackPattern"
    TECHNIQUE = "Technique"
    TACTIC = "Tactic"
    ASSET = "Asset"
    MITIGATION = "Mitigation"
    ZONE = "Zone"
    PROTOCOL = "Protocol"
    ENTITY = "Entity"
    ACCOUNT = "Account"
    SOFTWARE = "Software"
    COMPONENT = "Component"
    PROCESS_VARIABLE = "ProcessVariable"
    OBSERVATION = "Observation"

    __hash__ = object.__hash__


class EdgeKind(Enum):
    COMMUNICATES_WITH = "COMMUNICATES_WITH"
    CONTROLLED_COMMUNICATES_WITH = "CONTROLLED_COMMUNICATES_WITH"
    HAS_POSSIBLE_COMMUNICATION = "HAS_POSSIBLE_COMMUNICATION"
    HAS_VULNERABILITY = "HAS_VULNERABILITY"
    HAS_CWE = "HAS_CWE"
    HAS_POSSIBLE_CWE = "HAS_POSSIBLE_CWE"
    HAS_CAPEC = "HAS_CAPEC"
    HAS_TECHNIQUE = "HAS_TECHNIQUE"
    HAS_POSSIBLE_TECHNIQUE = "HAS_POSSIBLE_TECHNIQUE"
    SUGGESTED_TACTIC = "SUGGESTED_TACTIC"
    MITIGATED_BY = "MITIGATED_BY"
    IN_ZONE = "IN_ZONE"
    USES_PROTOCOL = "USES_PROTOCOL"

    __hash__ = object.__hash__


COMMUNICATION_KINDS = frozenset({
    EdgeKind.COMMUNICATES_WITH,
    EdgeKind.CONTROLLED_COMMUNICATES_WITH,
    EdgeKind.HAS_POSSIBLE_COMMUNICATION,
})

PREDICTION_KINDS = frozenset({
    EdgeKind.HAS_POSSIBLE_CWE,
    EdgeKind.HAS_POSSIBLE_TECHNIQUE,
    EdgeKind.SUGGESTED_TACTIC,
})

# Admissible (source kind set, target kind set) per edge kind.  The taxonomy
# kinds follow the Product -> CVE -> CWE -> CAPEC -> Technique -> Tactic chain.
_ENDPOINT_RULES: dict[EdgeKind, tuple[frozenset[NodeKind], frozenset[NodeKind]]] = {
    EdgeKind.COMMUNICATES_WITH: (
        frozenset({NodeKind.PRODUCT}), frozenset({NodeKind.PRODUCT})),
    EdgeKind.CONTROLLED_COMMUNICATES_WITH: (
        frozenset({NodeKind.PRODUCT}), frozenset({NodeKind.PRODUCT})),
    EdgeKind.HAS_POSSIBLE_COMMUNICATION: (
        frozenset({NodeKind.PRODUCT}), frozenset({NodeKind.PRODUCT})),
    EdgeKind.HAS_VULNERABILITY: (
        frozenset({NodeKind.PRODUCT}), frozenset({NodeKind.VULNERABILITY})),
    EdgeKind.HAS_CWE: (
        frozenset({NodeKind.VULNERABILITY}), frozenset({NodeKind.WEAKNESS})),
    EdgeKind.HAS_POSSIBLE_CWE: (
        frozenset({NodeKind.VULNERABILITY}), frozenset({NodeKind.WEAKNESS})),
    EdgeKind.HAS_CAPEC: (
        frozenset({NodeKind.WEAKNESS}), frozenset({NodeKind.ATTACK_PATTERN})),
    EdgeKind.HAS_TECHNIQUE: (
        frozenset({NodeKind.ATTACK_PATTERN}), frozenset({NodeKind.TECHNIQUE})),
    EdgeKind.HAS_POSSIBLE_TECHNIQUE: (
        frozenset({NodeKind.ATTACK_PATTERN}), frozenset({NodeKind.TECHNIQUE})),
    EdgeKind.SUGGESTED_TACTIC: (
        frozenset({NodeKind.TECHNIQUE}), frozenset({NodeKind.TACTIC})),
    EdgeKind.MITIGATED_BY: (
        frozenset({NodeKind.PRODUCT, NodeKind.VULNERABILITY, NodeKind.WEAKNESS,
                   NodeKind.ATTACK_PATTERN, NodeKind.TECHNIQUE}),
        frozenset({NodeKind.MITIGATION})),
    EdgeKind.IN_ZONE: (
        frozenset({NodeKind.PRODUCT}), frozenset({NodeKind.ZONE})),
    EdgeKind.USES_PROTOCOL: (
        frozenset({NodeKind.PRODUCT}), frozenset({NodeKind.PROTOCOL})),
}


class Configuration(Enum):
    ORIGINAL = "Original"
    ENRICHED = "Enriched"
    CONTROLLED = "Controlled"

    __hash__ = object.__hash__


# The four risk columns of every edge CSV, in file order.
RISK_COLUMNS = ("riskWeight", "pExploit", "attackCost", "controlStrength")
EDGE_CSV_HEADER = ["src", "dst", "kind", *RISK_COLUMNS, "protocol"]


@dataclass(frozen=True)
class RiskAttributes:
    """Per-edge risk metrics carried by communication-family edges.

    riskWeight is always pExploit scaled by target criticality / 10; the
    four values are recomputed together and never set independently.
    """

    control_strength: float = 0.0
    p_exploit: float = 0.0
    attack_cost: float = 0.0
    risk_weight: float = 0.0

    @staticmethod
    def encode(risk: Optional["RiskAttributes"]) -> list[str]:
        """The :data:`RISK_COLUMNS` cells of a CSV row: ``repr`` floats
        (lossless), all empty for an edge without risk."""
        if risk is None:
            return [""] * len(RISK_COLUMNS)
        return [repr(risk.risk_weight), repr(risk.p_exploit), repr(risk.attack_cost),
                repr(risk.control_strength)]

    @classmethod
    def decode(cls, risk_weight: str, p_exploit: str, attack_cost: str,
               control_strength: str) -> Optional["RiskAttributes"]:
        """Inverse of :meth:`encode`, from the stripped :data:`RISK_COLUMNS`
        cells: no risk when the riskWeight cell is empty; any other empty
        cell reads as 0.0."""
        if not risk_weight:
            return None
        return cls(float(control_strength or 0.0), float(p_exploit or 0.0),
                   float(attack_cost or 0.0), float(risk_weight))


@dataclass(frozen=True)
class Node:
    id: str
    kind: NodeKind
    props: Mapping[str, str] = field(default_factory=dict)
    criticality: int = 0
    zone: Optional[str] = None

    def __post_init__(self) -> None:
        # A read-only copy: neither the caller's dict nor the record can
        # change the props afterwards.
        object.__setattr__(self, "props", MappingProxyType(dict(self.props)))

    def validate(self) -> None:
        if not self.id:
            raise InvalidNode("node id must be a non-empty string")
        if not isinstance(self.criticality, int) or isinstance(self.criticality, bool):
            raise InvalidCriticality(
                f"criticality of {self.id!r} must be an integer, got {self.criticality!r}")
        if not 0 <= self.criticality <= 10:
            raise InvalidCriticality(
                f"criticality of {self.id!r} is {self.criticality}, must be in 0..10")
        if self.kind is NodeKind.PRODUCT and not self.zone:
            raise InvalidNode(f"Product {self.id!r} must carry a zone")


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    kind: EdgeKind
    risk: Optional[RiskAttributes] = None
    props: Mapping[str, str] = field(default_factory=dict)
    # (src, dst, kind value): the graph's storage key and the edge order,
    # made once here because every sort and upsert reads it.
    key: tuple[str, str, str] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "props", MappingProxyType(dict(self.props)))
        object.__setattr__(self, "key", (self.src, self.dst, self.kind.value))

    @property
    def pair(self) -> frozenset[str]:
        return frozenset((self.src, self.dst))

    def is_communication(self) -> bool:
        return self.kind in COMMUNICATION_KINDS


class Graph:
    """Typed directed property graph; single-writer until :meth:`finalize`."""

    def __init__(self) -> None:
        self._nodes: dict[str, Node] = {}
        self._edges: dict[tuple[str, str, str], Edge] = {}
        self._finalized = False

    # ------------------------------------------------------------------
    # Build phase
    # ------------------------------------------------------------------

    def upsert_node(self, node: Node) -> str:
        """Store the node; an existing node of the same id is replaced by the
        merge of both: the union of their props (the new value wins), and the
        new zone and criticality where they are set."""
        self._check_mutable()
        node.validate()
        stored = self._nodes.get(node.id)
        if stored is not None:
            if stored.kind is not node.kind:
                raise KindConflict(
                    f"node {node.id!r} already exists with kind {stored.kind.value}, "
                    f"cannot re-upsert as {node.kind.value}")
            node = replace(node, props={**stored.props, **node.props},
                           zone=stored.zone if node.zone is None else node.zone,
                           criticality=node.criticality or stored.criticality)
        self._nodes[node.id] = node
        return node.id

    def upsert_edge(self, edge: Edge) -> tuple[str, str, str]:
        """Store the edge, replacing one of the same key; returns the key."""
        self._check_mutable()
        src = self._nodes.get(edge.src)
        dst = self._nodes.get(edge.dst)
        if src is None or dst is None:
            missing = edge.src if src is None else edge.dst
            raise MissingEndpoint(f"edge endpoint {missing!r} does not exist")
        if edge.src == edge.dst:
            raise KindConstraintViolation(f"self-loop on {edge.src!r} is not allowed")
        src_ok, dst_ok = _ENDPOINT_RULES[edge.kind]
        if src.kind not in src_ok or dst.kind not in dst_ok:
            raise KindConstraintViolation(
                f"{edge.kind.value} does not admit "
                f"{src.kind.value} -> {dst.kind.value} ({edge.src!r} -> {edge.dst!r})")
        if edge.risk is not None and not edge.is_communication():
            raise KindConstraintViolation(
                f"{edge.kind.value} edges cannot carry risk attributes")
        self._edges[edge.key] = edge
        return edge.key

    def remove_edges(self, kinds: set[EdgeKind]) -> None:
        """Drop every edge of the given kinds."""
        self._check_mutable()
        self._edges = {key: e for key, e in self._edges.items() if e.kind not in kinds}

    def finalize(self) -> None:
        """Freeze the graph: any later mutation raises :class:`GraphFinalized`."""
        self._finalized = True

    def _check_mutable(self) -> None:
        if self._finalized:
            raise GraphFinalized("graph is finalized; no further mutation allowed")

    # ------------------------------------------------------------------
    # Queries (allowed in both phases)
    # ------------------------------------------------------------------

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNode(f"unknown node {node_id!r}") from None

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    def nodes(self, kind: Optional[NodeKind] = None) -> list[Node]:
        out = [n for n in self._nodes.values() if kind is None or n.kind is kind]
        out.sort(key=lambda n: n.id)
        return out

    def edges(self, kind: Optional[EdgeKind] = None) -> list[Edge]:
        out = [e for e in self._edges.values() if kind is None or e.kind is kind]
        out.sort(key=lambda e: e.key)
        return out

    def edge(self, src: str, dst: str, kind: EdgeKind) -> Optional[Edge]:
        return self._edges.get((src, dst, kind.value))

    def node_count(self) -> int:
        return len(self._nodes)

    def edge_count(self) -> int:
        return len(self._edges)

    def counts_by_kind(self) -> dict[str, dict[str, int]]:
        nodes: dict[str, int] = {}
        for n in self._nodes.values():
            nodes[n.kind.value] = nodes.get(n.kind.value, 0) + 1
        edges: dict[str, int] = {}
        for e in self._edges.values():
            edges[e.kind.value] = edges.get(e.kind.value, 0) + 1
        return {"nodes": dict(sorted(nodes.items())),
                "edges": dict(sorted(edges.items()))}

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def project_view(self, config: Configuration,
                     prune_threshold: float = PRUNE_THRESHOLD) -> "GraphView":
        if not self._finalized:
            raise GraphNotFinalized(
                "finalize() the graph before projecting configuration views")
        active = self._active_edges(config, prune_threshold)
        return GraphView(self, config, active)

    def _active_edges(self, config: Configuration,
                      prune_threshold: float) -> tuple[Edge, ...]:
        comm = [e for e in self._edges.values() if e.kind is EdgeKind.COMMUNICATES_WITH]
        possible = [e for e in self._edges.values()
                    if e.kind is EdgeKind.HAS_POSSIBLE_COMMUNICATION]
        if config is Configuration.ORIGINAL:
            selected = comm
        elif config is Configuration.ENRICHED:
            selected = comm + possible
        else:
            controlled = [e for e in self._edges.values()
                          if e.kind is EdgeKind.CONTROLLED_COMMUNICATES_WITH]
            covered = {(e.src, e.dst) for e in controlled}
            # Enriched edges without a controlled counterpart persist with
            # their own attributes, still subject to the prune below.
            fallback = [e for e in comm + possible if (e.src, e.dst) not in covered]
            selected = [e for e in controlled + fallback
                        if e.risk is not None and e.risk.risk_weight >= prune_threshold]
        return tuple(sorted(selected, key=lambda e: e.key))


@dataclass(frozen=True)
class GraphView:
    """Immutable projection of one configuration's communication edges.

    The node universe of a view is every Product node of the base graph;
    communication edges are traversed as undirected.  Views of one graph
    (by identity) with equal configuration and edges are equal.  Product ids
    and the in-edge index are built on first use; ``path_graphs`` holds the
    path graphs :mod:`icskg.analytics` builds, one per weight policy.
    """

    graph: Graph
    config: Configuration
    edges: tuple[Edge, ...]
    path_graphs: dict = field(default_factory=dict, init=False, compare=False,
                              repr=False)

    @cached_property
    def _ids(self) -> list[str]:
        return [n.id for n in self.graph.nodes(NodeKind.PRODUCT)]

    @cached_property
    def _in_edges(self) -> dict[str, list[Edge]]:
        index: dict[str, list[Edge]] = {}
        for e in self.edges:
            index.setdefault(e.dst, []).append(e)
        return index

    def nodes(self) -> list[str]:
        return list(self._ids)

    def incoming(self, node_id: str) -> list[Edge]:
        """Active edges stored with ``node_id`` as their target, in the order
        of :attr:`edges`: by source, then kind."""
        self.graph.node(node_id)
        return list(self._in_edges.get(node_id, ()))

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def export(self, fmt: str) -> bytes:
        """Serialize the view; output ordering is deterministic.

        Nodes are emitted sorted by id and edges sorted by (src, dst, kind);
        ``edge-csv`` round-trips through :func:`icskg.ingest.load_edge_csv`.
        """
        if fmt == "dot":
            return self._export_dot()
        if fmt == "graphml":
            return self._export_graphml()
        if fmt == "edge-csv":
            return self._export_edge_csv()
        raise ValueError(f"unsupported export format {fmt!r}")

    def _export_dot(self) -> bytes:
        q = _dot_quote
        lines = [f"digraph {self.config.value.lower()} {{"]
        for node in self.graph.nodes():
            attrs = [f'kind="{node.kind.value}"']
            if node.zone:
                attrs.append(f'zone={q(node.zone)}')
            if node.kind is NodeKind.PRODUCT:
                attrs.append(f'criticality="{node.criticality}"')
            lines.append(f'  {q(node.id)} [{" ".join(attrs)}];')
        for e in self.edges:
            attrs = [f'kind="{e.kind.value}"']
            if e.risk is not None:
                attrs.append(f'riskWeight="{e.risk.risk_weight!r}"')
            lines.append(f'  {q(e.src)} -> {q(e.dst)} [{" ".join(attrs)}];')
        lines.append("}")
        return ("\n".join(lines) + "\n").encode("utf-8")

    def _export_graphml(self) -> bytes:
        esc = saxutils.escape
        q = saxutils.quoteattr
        lines = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
            '  <key id="kind" for="all" attr.name="kind" attr.type="string"/>',
            '  <key id="zone" for="node" attr.name="zone" attr.type="string"/>',
            '  <key id="criticality" for="node" attr.name="criticality" attr.type="int"/>',
            *(f'  <key id="{column}" for="edge" attr.name="{column}" attr.type="double"/>'
              for column in RISK_COLUMNS),
            f'  <graph id={q(self.config.value)} edgedefault="directed">',
        ]
        for node in self.graph.nodes():
            lines.append(f'    <node id={q(node.id)}>')
            lines.append(f'      <data key="kind">{esc(node.kind.value)}</data>')
            if node.zone:
                lines.append(f'      <data key="zone">{esc(node.zone)}</data>')
            if node.kind is NodeKind.PRODUCT:
                lines.append(f'      <data key="criticality">{node.criticality}</data>')
            lines.append('    </node>')
        for e in self.edges:
            lines.append(f'    <edge source={q(e.src)} target={q(e.dst)}>')
            lines.append(f'      <data key="kind">{esc(e.kind.value)}</data>')
            if e.risk is not None:
                lines.extend(f'      <data key="{column}">{cell}</data>'
                             for column, cell in zip(RISK_COLUMNS, RiskAttributes.encode(e.risk)))
            lines.append('    </edge>')
        lines.append('  </graph>')
        lines.append('</graphml>')
        return ("\n".join(lines) + "\n").encode("utf-8")

    def _export_edge_csv(self) -> bytes:
        return write_csv(EDGE_CSV_HEADER, (
            [e.src, e.dst, e.kind.value, *RiskAttributes.encode(e.risk),
             e.props.get("protocol", "")]
            for e in self.edges))


def _dot_quote(text: str) -> str:
    """A DOT quoted string: backslashes and double quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


# ---------------------------------------------------------------------------
# Whole-graph audits used by the invariant test suite
# ---------------------------------------------------------------------------

def audit_hierarchy(graph: Graph) -> list[str]:
    """Re-check every stored edge against the endpoint-kind rules.

    Returns human-readable violation strings; an empty list means the
    taxonomy chain and the communication-family constraints all hold.
    """
    violations = []
    for e in graph.edges():
        src_ok, dst_ok = _ENDPOINT_RULES[e.kind]
        src = graph.node(e.src)
        dst = graph.node(e.dst)
        if src.kind not in src_ok or dst.kind not in dst_ok:
            violations.append(
                f"{e.src}->{e.dst} [{e.kind.value}]: "
                f"{src.kind.value}->{dst.kind.value} not admissible")
        if e.risk is not None and not e.is_communication():
            violations.append(f"{e.src}->{e.dst} [{e.kind.value}]: risk on taxonomy edge")
    return violations


def audit_risk_completeness(graph: Graph) -> list[str]:
    """Every stored communication edge must carry full risk attributes."""
    missing = []
    for e in graph.edges():
        if e.is_communication() and e.risk is None:
            missing.append(f"{e.src}->{e.dst} [{e.kind.value}]: missing RiskAttributes")
    return missing


# ---------------------------------------------------------------------------
# The on-disk dialect: every CSV and JSON file icskg reads or writes
# ---------------------------------------------------------------------------

class _Lines(list):
    """csv.writer target: each row (one write() call) without its CRLF."""

    def write(self, row: str) -> None:
        self.append(row[:-2])


def write_csv(header: Sequence[str], rows: Iterable[Sequence]) -> bytes:
    """Header plus rows as UTF-8 CSV with LF line ends; a field is quoted
    only when it holds a comma, a double quote, a line feed or a carriage
    return."""
    lines = _Lines()
    # csv.writer quotes a field holding a character of its terminator: CRLF.
    writer = csv.writer(lines, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    lines.append("")
    text = "\n".join(lines)
    lines.clear()
    return text.encode("utf-8")


def csv_line(fields: Sequence[str]) -> str:
    """One row as :func:`write_csv` writes it, without its line end."""
    line = _Lines()
    csv.writer(line, lineterminator="\r\n").writerow(fields)
    return line[0]


def read_csv(path: str | Path, required: Sequence[str]
             ) -> tuple[list[str], Iterator[list[str]]]:
    """The header and the data rows of a UTF-8 CSV file, each row its list
    of fields; blank lines are skipped and not counted.  A required column
    missing from the header raises :class:`MissingColumn`."""
    # Bytes are decoded without newline translation: csv splits the rows
    # itself, and a quoted carriage return is part of its field.
    return parse_csv(Path(path).read_bytes().decode("utf-8"), path, required)


def parse_csv(text: str, source: str | Path, required: Sequence[str]
              ) -> tuple[list[str], Iterator[list[str]]]:
    """:func:`read_csv` of the text of the file ``source``.  Text that is
    not CSV raises :class:`IngestError` naming the file and the line."""
    rows = _csv_rows(text, source)
    header = next(rows, [])
    for col in required:
        if col not in header:
            raise MissingColumn(f"{source}: missing required column {col!r}")
    return header, filter(None, rows)


def _csv_rows(text: str, source: str | Path) -> Iterator[list[str]]:
    reader = csv.reader(StringIO(text))
    try:
        yield from reader
    except csv.Error as exc:
        raise IngestError(f"{source}: line {reader.line_num}: {exc}") from None


def read_json(path: str | Path):
    """The JSON document in the UTF-8 file ``path``; text that is not JSON,
    or nests too deeply to parse, raises :class:`IngestError` naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise IngestError(f"{path}: {exc}") from None


def write_json(payload) -> bytes:
    """A JSON artifact: two-space indent, sorted keys, trailing newline."""
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


_PROPS_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def props_to_json(props: Mapping[str, str] | Iterable[tuple[str, str]]) -> str:
    """A props_json cell: the props (a mapping or its items) as compact
    JSON with sorted keys."""
    return _PROPS_ENCODER.encode(dict(props)) if props else "{}"


def props_from_json(cell: str) -> dict[str, str]:
    """Inverse of :func:`props_to_json`; an empty cell holds no properties.
    Raises ValueError when the cell is not a JSON object of strings."""
    props = json.loads(cell) if cell else {}
    if not isinstance(props, dict) or not all(isinstance(v, str) for v in props.values()):
        raise ValueError("props_json is not a JSON object of strings")
    return props
