"""Edge-level risk scoring from operational logs and vulnerability metadata.

The scoring chain per communication edge (u, v):

1. derive four weakness fractions (accessibility, configuration hygiene,
   exploitability, hardening residual) from the pair's log event counts;
2. controlStrength = product of the four factor scores (raw weaknesses under
   the Literal convention, their complements under Complement);
3. pExploit = (1 - prod(1 - epss_i)) * (1 - controlStrength) over the target
   product's CVEs;
4. attackCost = mean over CVEs of baseScore/10 + f_AC + f_AV + epss;
5. riskWeight = pExploit * criticality(v) / 10.

Applying a control profile mirrors every communication edge as a
CONTROLLED_COMMUNICATES_WITH edge recomputed from secured logs; edges whose
recomputed riskWeight falls below the prune threshold are counted as pruned
and drop out of the Controlled view.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from icskg.config import ControlProfile, Convention, FactorCoefficients, RiskConfig
from icskg.graph import (
    Edge,
    EdgeKind,
    Graph,
    GraphView,
    RiskAttributes,
)
from icskg.ingest import CvssSummary

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Factor derivation
# ---------------------------------------------------------------------------

@dataclass
class ControlFactors:
    """Weakness fractions in [0,1]: accessibility, config hygiene,
    exploitability, hardening residual."""

    a: float
    c: float
    e: float
    h: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a, self.c, self.e, self.h)


_WRITE_EVENTS = {"Write", "FailedWrite", "AuditWrite"}
_CHECK_EVENTS = {"ConfigCheckPass", "ConfigCheckFail"}


@dataclass
class PairStats:
    """Additive event counts for one communication pair (or a merged set)."""

    sessions: int = 0
    anon: int = 0
    insecure: int = 0
    cert: int = 0
    writes: int = 0
    failed_writes: int = 0
    audit_writes: int = 0
    checks: int = 0
    check_fails: int = 0
    client_ips: set[str] = field(default_factory=set)

    def add(self, other: "PairStats") -> None:
        self.sessions += other.sessions
        self.anon += other.anon
        self.insecure += other.insecure
        self.cert += other.cert
        self.writes += other.writes
        self.failed_writes += other.failed_writes
        self.audit_writes += other.audit_writes
        self.checks += other.checks
        self.check_fails += other.check_fails
        self.client_ips |= other.client_ips

    @property
    def empty(self) -> bool:
        return self.sessions == 0 and self.writes == 0 and self.checks == 0

    def count(self, row: Sequence[str], n: int) -> None:
        """Add ``n`` log events of one row: its fields after the timestamp,
        (src, dst, protocol, authMode, securityMode, event, clientIp)."""
        _, _, _, auth_mode, security_mode, event, client_ip = row
        self.client_ips.add(client_ip)
        if event == "Session":
            self.sessions += n
            if auth_mode == "Anonymous":
                self.anon += n
            elif auth_mode == "Certificate":
                self.cert += n
            if security_mode == "None":
                self.insecure += n
        elif event in _WRITE_EVENTS:
            self.writes += n
            if event == "FailedWrite":
                self.failed_writes += n
            elif event == "AuditWrite":
                self.audit_writes += n
        elif event in _CHECK_EVENTS:
            self.checks += n
            if event == "ConfigCheckFail":
                self.check_fails += n


def weakness_from_stats(stats: PairStats,
                        coeffs: Optional[FactorCoefficients] = None) -> ControlFactors:
    k = coeffs or FactorCoefficients()
    sessions = max(stats.sessions, 1)
    writes = max(stats.writes, 1)
    checks = max(stats.checks, 1)
    anon_frac = stats.anon / sessions
    insecure_frac = stats.insecure / sessions
    cert_frac = stats.cert / sessions
    misconfig_rate = stats.check_fails / sessions
    failed_frac = stats.failed_writes / writes
    audit_frac = stats.audit_writes / writes
    fail_check_frac = stats.check_fails / checks
    a = min(1.0, anon_frac + k.a_insecure * insecure_frac + k.a_ip * len(stats.client_ips))
    c = min(1.0, misconfig_rate + k.c_cert * (1.0 - cert_frac) + fail_check_frac)
    e = min(1.0, k.e_failed * failed_frac + k.e_audit * audit_frac + k.e_access * a)
    h = min(1.0, k.h_scale * ((1.0 - cert_frac) + insecure_frac + fail_check_frac))
    return ControlFactors(a, c, e, h)


class LogIndex:
    """Per-pair event counts of a log, folded from its distinct rows.

    ``rows`` maps each distinct row less its timestamp, as
    :meth:`PairStats.count` takes it, to the number of times it occurs;
    ``len()`` of the index is the number of rows folded.
    """

    def __init__(self, rows: Mapping[tuple[str, ...], int]) -> None:
        counts: defaultdict[frozenset[str], PairStats] = defaultdict(PairStats)
        for row, n in rows.items():
            counts[frozenset(row[:2])].count(row, n)
        self._rows = sum(rows.values())
        self._pair_stats = dict(counts)
        self._by_endpoint: dict[str, list[frozenset[str]]] = {}
        for pair in sorted(self._pair_stats, key=sorted):
            for endpoint in pair:
                self._by_endpoint.setdefault(endpoint, []).append(pair)

    def __len__(self) -> int:
        return self._rows

    def pair(self, u: str, v: str) -> Optional[PairStats]:
        return self._pair_stats.get(frozenset((u, v)))

    def merged(self, u: str, v: str) -> Optional[PairStats]:
        """Union of all events touching either endpoint (for inferred links)."""
        pairs = set(self._by_endpoint.get(u, ())) | set(self._by_endpoint.get(v, ()))
        if not pairs:
            return None
        merged = PairStats()
        for pair in sorted(pairs, key=sorted):
            merged.add(self._pair_stats[pair])
        return merged


# ---------------------------------------------------------------------------
# The scoring formulas
# ---------------------------------------------------------------------------

def control_strength(factors: ControlFactors,
                     convention: Convention = Convention.COMPLEMENT) -> float:
    """Composite control effectiveness of a link, in [0,1].

    Literal multiplies the raw weakness scores; Complement multiplies their
    complements so that weaker observed behavior lowers the result.
    """
    a, c, e, h = factors.as_tuple()
    if convention is Convention.LITERAL:
        return a * c * e * h
    return (1.0 - a) * (1.0 - c) * (1.0 - e) * (1.0 - h)


def p_exploit(epss_list: Sequence[float], cs: float) -> float:
    """Aggregated exploitation likelihood attenuated by control strength.

    Multiple CVEs combine as 1 - prod(1 - e_i): the chance that at least one
    exploit succeeds.  An empty CVE list yields 0.
    """
    survive = 1.0
    for e in epss_list:
        survive *= (1.0 - e)
    aggregated = 1.0 - survive
    return min(1.0, max(0.0, aggregated * (1.0 - cs)))


def attack_cost(cvss: CvssSummary, epss: float, f_ac: dict[str, float],
                f_av: dict[str, float]) -> float:
    """Adversary-effort estimate for a single CVE (unclamped, >= 0) under
    the access-complexity and attack-vector cost encodings."""
    return cvss.base_score / 10.0 + f_ac[cvss.access_complexity] \
        + f_av[cvss.attack_vector] + epss


def aggregate_attack_cost(costs: Sequence[float]) -> float:
    """Multi-CVE edges average per-CVE costs: cost is an effort estimate,
    not a survival probability, so the mean is the sensible aggregate."""
    if not costs:
        return 0.0
    return sum(costs) / len(costs)


def risk_weight(p: float, criticality: int) -> float:
    """Residual risk: exploitation likelihood scaled by target importance."""
    return p * criticality / 10.0


# ---------------------------------------------------------------------------
# Annotation
# ---------------------------------------------------------------------------

def _zone_weakness(graph: Graph, src: str, dst: str,
                   config: RiskConfig) -> ControlFactors:
    """Zone-default fallback when no logs exist for a pair; the weaker of the
    two endpoint presets is used (cross-zone links inherit the softer side)."""
    presets = []
    for node_id in (src, dst):
        zone = graph.node(node_id).zone or "DMZ"
        presets.append(config.zone_weakness(zone))
    weaker = max(presets, key=sum)
    return ControlFactors(*weaker)


def _communication_stats(graph: Graph, index: LogIndex
                         ) -> Iterator[tuple[Edge, Optional[PairStats]]]:
    """Each communication edge with the log statistics it is scored from:
    the pair's own for an observed link, both endpoints' merged for an
    inferred one."""
    for edge in graph.edges(EdgeKind.COMMUNICATES_WITH):
        yield edge, index.pair(edge.src, edge.dst)
    for edge in graph.edges(EdgeKind.HAS_POSSIBLE_COMMUNICATION):
        yield edge, index.merged(edge.src, edge.dst)


_Vulns = dict[str, list[tuple[float, CvssSummary]]]


def _product_vulns(graph: Graph) -> _Vulns:
    """(epss, CVSS summary) of each product's CVEs, in CVE id order."""
    vulns: _Vulns = {}
    for edge in graph.edges(EdgeKind.HAS_VULNERABILITY):
        props = graph.node(edge.dst).props
        vulns.setdefault(edge.src, []).append((
            float(props.get("epss", 0.0)),
            CvssSummary(base_score=float(props.get("baseScore", 5.0)),
                        access_complexity=props.get("accessComplexity", "Low"),
                        attack_vector=props.get("attackVector", "Network"))))
    return vulns


def _score(graph: Graph, edge: Edge, stats: Optional[PairStats], vulns: _Vulns,
           config: RiskConfig, epss_scale: float = 1.0) -> RiskAttributes:
    if stats is None or stats.empty:
        weakness = _zone_weakness(graph, edge.src, edge.dst, config)
    else:
        weakness = weakness_from_stats(stats, config.factor_coefficients)
    cs = control_strength(weakness, config.convention)
    cves = vulns.get(edge.dst, ())
    p = p_exploit([epss * epss_scale for epss, _ in cves], cs)
    cost = aggregate_attack_cost([
        attack_cost(cvss, epss * epss_scale, config.f_ac, config.f_av)
        for epss, cvss in cves])
    rw = risk_weight(p, graph.node(edge.dst).criticality)
    return RiskAttributes(control_strength=cs, p_exploit=p,
                          attack_cost=cost, risk_weight=rw)


def annotate(graph: Graph, logs: LogIndex, config: RiskConfig) -> int:
    """Attach RiskAttributes to every communication-family edge.

    Observed links use their exact pair's log events; inferred possible
    links use the union of both endpoints' logs; pairs with no events at
    all fall back to the zone-default presets.  Edges whose target has no
    CVEs score pExploit 0 and riskWeight 0.  Deterministic and idempotent.
    Each scored edge replaces its unscored one, so a finalized graph raises
    :class:`GraphFinalized`.
    """
    vulns = _product_vulns(graph)
    count = 0
    for edge, stats in _communication_stats(graph, logs):
        graph.upsert_edge(replace(edge, risk=_score(graph, edge, stats, vulns, config)))
        count += 1
    return count


@dataclass
class ControlApplicationReport:
    edges_recomputed: int
    edges_pruned: int


def apply_controls(graph: Graph, controls: ControlProfile,
                   secured_logs: LogIndex,
                   config: RiskConfig) -> ControlApplicationReport:
    """Mirror communication edges as CONTROLLED_COMMUNICATES_WITH edges with
    attributes recomputed from the secured logs.

    The pairs the profile blocks (:meth:`ControlProfile.blocks`) get
    pExploit 0 / riskWeight 0, below any positive prune threshold; every
    other mirror scales each EPSS input by the profile's ``epss_scale``
    before aggregation.  Mirrors below the prune threshold are counted in
    ``edges_pruned``.
    """
    vulns = _product_vulns(graph)
    recomputed = 0
    pruned = 0
    for edge, stats in _communication_stats(graph, secured_logs):
        if controls.blocks(edge.src, edge.dst, lambda node_id: graph.node(node_id).zone):
            zero = ControlFactors(0.0, 0.0, 0.0, 0.0)
            cs = control_strength(zero, config.convention)
            risk = RiskAttributes(control_strength=cs, p_exploit=0.0,
                                  attack_cost=0.0, risk_weight=0.0)
        else:
            risk = _score(graph, edge, stats, vulns, config, controls.epss_scale)
        mirror = Edge(edge.src, edge.dst, EdgeKind.CONTROLLED_COMMUNICATES_WITH,
                      risk=risk,
                      props={**edge.props, "mirrors": edge.kind.value})
        graph.upsert_edge(mirror)
        recomputed += 1
        if risk.risk_weight < config.prune_threshold:
            pruned += 1
    return ControlApplicationReport(recomputed, pruned)


# ---------------------------------------------------------------------------
# Path and node level metrics
# ---------------------------------------------------------------------------

def p_exploit_product(edges: Iterable[Edge]) -> float:
    """Path probability: the product of pExploit along a walk.  An edge
    without risk attributes counts as unexploitable (0) and the empty walk
    has probability 1."""
    prob = 1.0
    for e in edges:
        prob *= e.risk.p_exploit if e.risk is not None else 0.0
    return prob


def exposure(view: GraphView, node_id: str) -> float:
    """Sum of riskWeight over the view's active edges targeting the node."""
    total = 0.0
    for edge in view.incoming(node_id):
        if edge.risk is not None:
            total += edge.risk.risk_weight
    return total
