"""Scoring formulas, log-derived factors, annotation and control application."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import asdict, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import add_comm, add_product, log_index
from icskg.config import CONTROL_NAMES, ControlOverrides, ControlProfile, Convention, RiskConfig
from icskg.analytics import WeightPolicy, yen_k_shortest
from icskg.errors import GraphFinalized
from icskg.graph import Configuration, Edge, EdgeKind, Graph, Node, NodeKind
from icskg.ingest import (
    CvssSummary,
    Dataflow,
    TestbedProduct,
    TestbedSpec,
    VulnRecord,
    build_dataflow_edges,
    link_products,
    load_testbed_into_graph,
)
from icskg.logsynth import LogIndex, SynthProfile, generate, generate_secured
from icskg.risk import (
    ControlFactors,
    aggregate_attack_cost,
    annotate,
    apply_controls,
    attack_cost,
    control_strength,
    exposure,
    p_exploit,
    p_exploit_product,
    risk_weight,
    weakness_from_stats,
)


def rec(src="A", dst="B", auth="Certificate", sec="Sign", event="Session",
        ip="10.0.0.1") -> tuple[str, ...]:
    """A log row less its timestamp, as :class:`LogIndex` folds it."""
    return (src, dst, "OPC_UA", auth, sec, event, ip)


def build_log_set(sessions=100, anon=3, insecure=0, cert=90, ips=10,
                  failed=5, audit=1, checks=200, check_fails=2) -> LogIndex:
    rows = Counter()
    for i in range(sessions):
        auth = "Anonymous" if i < anon else ("Certificate" if i < anon + cert
                                             else "Password")
        sec = "None" if i < insecure else "Sign"
        rows[rec(auth=auth, sec=sec, ip=f"10.0.0.{i % ips}")] += 1
    for i in range(sessions):
        event = "FailedWrite" if i < failed else ("AuditWrite" if i < failed + audit
                                                  else "Write")
        rows[rec(event=event, ip=f"10.0.0.{i % ips}")] += 1
    for i in range(checks):
        event = "ConfigCheckFail" if i < check_fails else "ConfigCheckPass"
        rows[rec(event=event, ip=f"10.0.0.{i % ips}")] += 1
    return LogIndex(rows)


# ---------------------------------------------------------------------------
# Factor derivation
# ---------------------------------------------------------------------------

def pair_factors(logs: LogIndex, u: str, v: str) -> ControlFactors:
    return weakness_from_stats(logs.pair(u, v))


def test_derive_factors_worked_example():
    logs = build_log_set()
    f = pair_factors(logs, "A", "B")
    # accessibility: 0.03 + 0.1*0 + 0.001*10
    assert f.a == pytest.approx(0.04, abs=1e-12)
    # config hygiene: 0.02 + 0.1*(1-0.9) + 0.01
    assert f.c == pytest.approx(0.04, abs=1e-12)
    # exploitability: 0.5*0.05 + 0.5*0.01 + 0.1*0.04
    assert f.e == pytest.approx(0.034, abs=1e-12)
    # hardening: 0.5*((1-0.9) + 0 + 0.01)
    assert f.h == pytest.approx(0.055, abs=1e-12)
    # all within the reproduction tolerance of the published worked values
    for got, want in zip(f.as_tuple(), (0.03, 0.04, 0.03, 0.05)):
        assert abs(got - want) <= 0.015


def test_derive_factors_perfect_hygiene():
    logs = build_log_set(sessions=100, anon=0, insecure=0, cert=100, ips=1,
                         failed=0, audit=0, checks=100, check_fails=0)
    f = pair_factors(logs, "A", "B")
    assert f.a == pytest.approx(0.001)   # single client address remains
    assert f.c == pytest.approx(0.0)
    assert f.e == pytest.approx(0.0001)  # accessibility echo term
    assert f.h == pytest.approx(0.0)
    assert control_strength(f, Convention.COMPLEMENT) > 0.998


def test_derive_factors_orientation_insensitive():
    logs = build_log_set()
    assert pair_factors(logs, "B", "A") == pair_factors(logs, "A", "B")


def test_derive_factors_no_logs():
    assert build_log_set().pair("X", "Y") is None


# ---------------------------------------------------------------------------
# The four formulas
# ---------------------------------------------------------------------------

def test_control_strength_literal_identity():
    assert control_strength(ControlFactors(1, 1, 1, 1), Convention.LITERAL) == 1.0


def test_control_strength_literal_weakness_product():
    f = ControlFactors(0.03, 0.04, 0.03, 0.05)
    assert control_strength(f, Convention.LITERAL) == pytest.approx(1.8e-6, rel=1e-9)


def test_control_strength_complement():
    f = ControlFactors(0.03, 0.04, 0.03, 0.05)
    expected = 0.97 * 0.96 * 0.97 * 0.95
    assert control_strength(f, Convention.COMPLEMENT) == pytest.approx(expected, abs=1e-12)
    assert round(expected, 4) == 0.8581


def test_p_exploit():
    assert p_exploit([0.9], 1.0) == 0.0
    assert p_exploit([0.5, 0.5], 0.0) == pytest.approx(0.75, abs=1e-12)
    assert p_exploit([], 0.3) == 0.0


def test_p_exploit_aggregation_monotone():
    rng = random.Random(5)
    for _ in range(200):
        base = [rng.random() for _ in range(rng.randint(0, 5))]
        cs = rng.random()
        before = p_exploit(base, cs)
        after = p_exploit(base + [rng.random()], cs)
        assert after >= before - 1e-12


def test_attack_cost_zero_case():
    cfg = RiskConfig()
    assert attack_cost(CvssSummary(0.0, "Low", "Network"), 0.0, cfg.f_ac, cfg.f_av) == 0.0


def test_attack_cost_default_mapping():
    cfg = RiskConfig()
    cost = attack_cost(CvssSummary(5.0, "High", "Local"), 0.1, cfg.f_ac, cfg.f_av)
    assert cost == pytest.approx(1.0, abs=1e-12)


def test_attack_cost_multi_cve_mean():
    assert aggregate_attack_cost([0.4, 0.8]) == pytest.approx(0.6, abs=1e-12)
    assert aggregate_attack_cost([]) == 0.0


def test_risk_weight():
    assert risk_weight(0.5, 10) == pytest.approx(0.5, abs=1e-12)
    assert risk_weight(0.0, 7) == 0.0
    assert risk_weight(0.8, 5) == pytest.approx(0.4, abs=1e-12)


def test_exploit_chain_to_risk_weight():
    p = p_exploit([0.6], 0.0)
    assert risk_weight(p, 10) == pytest.approx(0.6, abs=1e-12)


# ---------------------------------------------------------------------------
# Annotation over a small built graph
# ---------------------------------------------------------------------------

def two_product_graph(epss_list=(0.6,), criticality=10):
    g = Graph()
    add_product(g, "A", criticality=5)
    add_product(g, "B", criticality=criticality)
    g.upsert_edge(Edge("A", "B", EdgeKind.COMMUNICATES_WITH,
                       props={"protocol": "OPC_UA"}))
    for i, epss in enumerate(epss_list):
        cve = f"CVE-{i}"
        g.upsert_node(Node(id=cve, kind=NodeKind.VULNERABILITY,
                           props={"epss": repr(epss), "baseScore": "5.0",
                                  "accessComplexity": "Low",
                                  "attackVector": "Network"}))
        g.upsert_edge(Edge("B", cve, EdgeKind.HAS_VULNERABILITY))
    return g


def test_annotate_scores_every_communication_edge():
    g = two_product_graph()
    cfg = RiskConfig()
    count = annotate(g, build_log_set(), cfg)
    assert count == 1
    edge = g.edge("A", "B", EdgeKind.COMMUNICATES_WITH)
    assert edge.risk is not None
    cs = edge.risk.control_strength
    assert edge.risk.p_exploit == pytest.approx(0.6 * (1 - cs), abs=1e-12)
    assert edge.risk.risk_weight == pytest.approx(edge.risk.p_exploit, abs=1e-12)


def test_annotate_no_cves_zero_risk():
    g = Graph()
    add_product(g, "A")
    add_product(g, "B")
    g.upsert_edge(Edge("A", "B", EdgeKind.COMMUNICATES_WITH))
    annotate(g, build_log_set(), RiskConfig())
    edge = g.edge("A", "B", EdgeKind.COMMUNICATES_WITH)
    assert edge.risk.p_exploit == 0.0
    assert edge.risk.risk_weight == 0.0


def test_annotate_idempotent():
    g = two_product_graph()
    cfg = RiskConfig()
    logs = build_log_set()
    annotate(g, logs, cfg)
    first = g.edge("A", "B", EdgeKind.COMMUNICATES_WITH).risk
    annotate(g, logs, cfg)
    second = g.edge("A", "B", EdgeKind.COMMUNICATES_WITH).risk
    assert first == second


def test_annotate_refuses_finalized_graph():
    g = two_product_graph()
    add_comm(g, "B", "A", risk_weight=0.4, p_exploit=0.4)
    g.finalize()
    view = g.project_view(Configuration.ORIGINAL)
    with pytest.raises(GraphFinalized):
        annotate(g, LogIndex({}), RiskConfig())
    assert [e.risk.risk_weight for e in view.edges if e.src == "B"] == [0.4]


def test_annotate_zone_defaults_without_logs():
    g = two_product_graph()
    cfg = RiskConfig()
    annotate(g, LogIndex({}), cfg)
    edge = g.edge("A", "B", EdgeKind.COMMUNICATES_WITH)
    ot = cfg.zone_weakness("OT")
    expected_cs = 1.0
    for w in ot:
        expected_cs *= (1 - w)
    assert edge.risk.control_strength == pytest.approx(expected_cs, abs=1e-12)


def test_annotate_leaves_no_bare_communication_edges():
    from icskg.graph import audit_risk_completeness
    g = two_product_graph()
    g.upsert_edge(Edge("A", "B", EdgeKind.HAS_POSSIBLE_COMMUNICATION))
    assert audit_risk_completeness(g) != []
    annotate(g, build_log_set(), RiskConfig())
    assert audit_risk_completeness(g) == []


def test_annotate_range_safety_random():
    rng = random.Random(77)
    g = Graph()
    for i in range(8):
        add_product(g, f"P{i}", criticality=rng.randint(0, 10))
    for i in range(8):
        for j in range(i + 1, 8):
            if rng.random() < 0.5:
                g.upsert_edge(Edge(f"P{i}", f"P{j}", EdgeKind.COMMUNICATES_WITH))
    for i in range(12):
        cve = f"CVE-{i}"
        g.upsert_node(Node(id=cve, kind=NodeKind.VULNERABILITY,
                           props={"epss": repr(round(rng.random(), 3)),
                                  "baseScore": "6.0",
                                  "accessComplexity": "Low",
                                  "attackVector": "Network"}))
        g.upsert_edge(Edge(f"P{rng.randrange(8)}", cve, EdgeKind.HAS_VULNERABILITY))
    cfg = RiskConfig()
    annotate(g, build_log_set(), cfg)
    for e in g.edges(EdgeKind.COMMUNICATES_WITH):
        r = e.risk
        assert 0.0 <= r.control_strength <= 1.0
        assert 0.0 <= r.p_exploit <= 1.0
        assert 0.0 <= r.risk_weight <= 1.0
        crit = g.node(e.dst).criticality
        assert r.risk_weight == pytest.approx(r.p_exploit * crit / 10.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Controls
# ---------------------------------------------------------------------------

def controls_testbed():
    return TestbedSpec(
        zones=["DMZ", "OT"],
        products=[
            TestbedProduct("HMI_1", "Vijeot", "HMI", "DMZ", 8, ["OPC_UA"]),
            TestbedProduct("PLC_1", "Simatic", "PLC", "OT", 10, ["OPC_UA"]),
            TestbedProduct("PLC_2", "Simatic", "PLC", "OT", 10, ["OPC_UA"]),
        ],
        dataflows=[
            Dataflow("HMI_1", "PLC_1", "OPC_UA"),
            Dataflow("PLC_1", "PLC_2", "OPC_UA"),
        ],
        control_profiles={"secured": ControlProfile(
            controls=frozenset({"NetworkSegmentation", "AccessControl", "ConfigHardening",
                                "IDS"}))},
    )


def controls_graph(cfg):
    testbed = controls_testbed()
    g = Graph()
    load_testbed_into_graph(g, testbed, cfg)
    advisories = [
        VulnRecord(cve_id="CVE-100", epss=0.85, cpes=["cpe:2.3:h:simatic:plc_1"]),
        VulnRecord(cve_id="CVE-101", epss=0.85, cpes=["cpe:2.3:h:simatic:plc_2"]),
    ]
    link_products(g, testbed, advisories)
    build_dataflow_edges(g, testbed)
    return g, testbed


def test_apply_controls_mirrors_and_prunes():
    cfg = RiskConfig()
    g, testbed = controls_graph(cfg)
    profile = SynthProfile(seed=3, duration_hours=2, per_flow_session_rate=100,
                           anon_frac=0.3, cert_frac=0.4, misconfig_rate=0.1,
                           fail_check_frac=0.05, failed_write_frac=0.2)
    baseline = log_index(generate(testbed, profile))
    controls = replace(testbed.control_profiles["secured"], overrides=cfg.control_overrides)
    secured = log_index(generate_secured(testbed, profile, controls))
    annotate(g, baseline, cfg)
    report = apply_controls(g, controls, secured, cfg)
    assert report.edges_recomputed == 2
    mirrors = g.edges(EdgeKind.CONTROLLED_COMMUNICATES_WITH)
    assert len(mirrors) == 2
    # cross-zone HMI->PLC link has no allowlist entry: blocked outright
    blocked = g.edge("HMI_1", "PLC_1", EdgeKind.CONTROLLED_COMMUNICATES_WITH)
    assert blocked.risk.p_exploit == 0.0
    assert blocked.risk.risk_weight == 0.0
    assert report.edges_pruned >= 1
    pruned = sum(1 for m in mirrors if m.risk.risk_weight < cfg.prune_threshold)
    assert report.edges_pruned == pruned


def test_apply_controls_monotone_p_exploit():
    cfg = RiskConfig()
    g, testbed = controls_graph(cfg)
    profile = SynthProfile(seed=9, duration_hours=4, per_flow_session_rate=100)
    baseline = log_index(generate(testbed, profile))
    controls = replace(testbed.control_profiles["secured"], overrides=cfg.control_overrides)
    secured = log_index(generate_secured(testbed, profile, controls))
    annotate(g, baseline, cfg)
    apply_controls(g, controls, secured, cfg)
    for mirror in g.edges(EdgeKind.CONTROLLED_COMMUNICATES_WITH):
        source = g.edge(mirror.src, mirror.dst, EdgeKind.COMMUNICATES_WITH)
        assert mirror.risk.p_exploit <= source.risk.p_exploit + 1e-12
        assert mirror.risk.control_strength >= source.risk.control_strength - 1e-12


def test_apply_controls_noop_profile_keeps_attributes():
    cfg = RiskConfig()
    g, testbed = controls_graph(cfg)
    profile = SynthProfile(seed=4, duration_hours=2, per_flow_session_rate=50)
    baseline = log_index(generate(testbed, profile))
    annotate(g, baseline, cfg)
    baseline_attrs = {e.key: asdict(e.risk)
                      for e in g.edges(EdgeKind.COMMUNICATES_WITH)}
    report = apply_controls(g, ControlProfile(controls=set()), baseline, cfg)
    for mirror in g.edges(EdgeKind.CONTROLLED_COMMUNICATES_WITH):
        src_attrs = baseline_attrs[(mirror.src, mirror.dst,
                                    EdgeKind.COMMUNICATES_WITH.value)]
        for key, value in asdict(mirror.risk).items():
            assert value == pytest.approx(src_attrs[key], abs=1e-12)
    expected_pruned = sum(1 for attrs in baseline_attrs.values()
                          if attrs["risk_weight"] < cfg.prune_threshold)
    assert report.edges_pruned == expected_pruned


def test_apply_controls_patch_management_scales_epss():
    cfg = RiskConfig()
    g = two_product_graph(epss_list=(0.6, 0.25), criticality=8)
    g.upsert_node(Node(id="CVE-1", kind=NodeKind.VULNERABILITY,
                       props={"epss": repr(0.25), "baseScore": "9.8",
                              "accessComplexity": "High",
                              "attackVector": "Adjacent"}))
    logs = build_log_set()
    controls = ControlProfile(controls={"PatchManagement"})
    scale = controls.overrides.epss_scale
    apply_controls(g, controls, logs, cfg)
    mirror = g.edge("A", "B", EdgeKind.CONTROLLED_COMMUNICATES_WITH)
    cs = control_strength(pair_factors(logs, "A", "B"), cfg.convention)
    scaled = [0.6 * scale, 0.25 * scale]
    expected_p = (1.0 - (1.0 - scaled[0]) * (1.0 - scaled[1])) * (1.0 - cs)
    expected_cost = ((5.0 / 10 + 0.0 + 0.0 + scaled[0])
                     + (9.8 / 10 + 0.2 + 0.1 + scaled[1])) / 2
    assert mirror.risk.control_strength == pytest.approx(cs, abs=1e-12)
    assert mirror.risk.p_exploit == pytest.approx(expected_p, abs=1e-12)
    assert mirror.risk.attack_cost == pytest.approx(expected_cost, abs=1e-12)
    assert mirror.risk.risk_weight == pytest.approx(expected_p * 8 / 10, abs=1e-12)


# The segmentation and patching rules as logsynth.generate_secured and
# risk.apply_controls each stated them before ControlProfile owned them.
def inline_blocked(controls, allowlist, zone_of, src, dst):
    segmented = "NetworkSegmentation" in controls
    allows = (src, dst) in allowlist or (dst, src) in allowlist
    return segmented and zone_of(src) != zone_of(dst) and not allows


def inline_epss_scale(controls, overrides):
    return overrides.epss_scale if "PatchManagement" in controls else 1.0


NAMES = st.sampled_from(["A", "B", "C", "D"])


@given(controls=st.frozensets(st.sampled_from(CONTROL_NAMES)),
       allowlist=st.frozensets(st.tuples(NAMES, NAMES)),
       zones=st.fixed_dictionaries({name: st.sampled_from(["DMZ", "OT", None])
                                    for name in "ABCD"}),
       src=NAMES, dst=NAMES, epss_scale=st.floats(0.0, 1.0))
def test_control_profile_rules_equal_the_inline_predicates(controls, allowlist, zones,
                                                           src, dst, epss_scale):
    overrides = ControlOverrides(epss_scale=epss_scale)
    profile = ControlProfile(controls, allowlist, overrides)
    assert profile.blocks(src, dst, zones.__getitem__) \
        == inline_blocked(controls, allowlist, zones.__getitem__, src, dst)
    assert profile.epss_scale == inline_epss_scale(controls, overrides)


def test_apply_controls_empty_graph():
    cfg = RiskConfig()
    g = Graph()
    report = apply_controls(g, ControlProfile(controls=set()), LogIndex({}), cfg)
    assert (report.edges_recomputed, report.edges_pruned) == (0, 0)


def test_control_monotone_componentwise_weakness():
    rng = random.Random(21)
    for _ in range(300):
        base = [rng.random() for _ in range(4)]
        reduced = [w * rng.random() for w in base]
        cs_base = control_strength(ControlFactors(*base), Convention.COMPLEMENT)
        cs_sec = control_strength(ControlFactors(*reduced), Convention.COMPLEMENT)
        epss = [rng.random() for _ in range(rng.randint(1, 4))]
        assert p_exploit(epss, cs_sec) <= p_exploit(epss, cs_base) + 1e-12


# ---------------------------------------------------------------------------
# Path probability and exposure
# ---------------------------------------------------------------------------

def test_path_probability():
    g = Graph()
    for n in "ABC":
        add_product(g, n)
    e1 = add_comm(g, "A", "B", p_exploit=0.5)
    e2 = add_comm(g, "B", "C", p_exploit=0.5)
    assert p_exploit_product([e1]) == 0.5
    assert p_exploit_product([e1, e2]) == pytest.approx(0.25, abs=1e-12)
    assert p_exploit_product([]) == 1.0


def test_path_probability_handles_undirected_chains():
    g = Graph()
    for n in "ABC":
        add_product(g, n)
    add_comm(g, "B", "A", p_exploit=0.4)   # stored direction reversed
    add_comm(g, "B", "C", p_exploit=0.5)
    g.finalize()
    view = g.project_view(Configuration.ORIGINAL)
    [path] = yen_k_shortest(view, "A", "C", 1, WeightPolicy.HOP)
    assert path.nodes == ["A", "B", "C"]
    assert path.path_probability == pytest.approx(0.2, abs=1e-12)


def test_path_probability_concatenation_scales():
    g = Graph()
    for n in "ABCDE":
        add_product(g, n)
    edges = [add_comm(g, a, b, p_exploit=p) for a, b, p in
             [("A", "B", 0.9), ("B", "C", 0.8), ("C", "D", 0.7), ("D", "E", 0.6)]]
    whole = p_exploit_product(edges)
    assert whole == pytest.approx(
        p_exploit_product(edges[:2]) * p_exploit_product(edges[2:]), abs=1e-12)


def test_exposure_sums_incoming():
    g = Graph()
    for n in "ABC":
        add_product(g, n)
    add_comm(g, "A", "C", risk_weight=0.2)
    add_comm(g, "B", "C", risk_weight=0.3)
    g.finalize()
    view = g.project_view(Configuration.ORIGINAL)
    assert abs(exposure(view, "C") - 0.5) < 1e-12
    assert exposure(view, "A") == 0.0


def test_exposure_respects_pruned_view():
    g = Graph()
    for n in "ABC":
        add_product(g, n)
    add_comm(g, "A", "C", risk_weight=0.04, kind=EdgeKind.CONTROLLED_COMMUNICATES_WITH)
    add_comm(g, "B", "C", risk_weight=0.2, kind=EdgeKind.CONTROLLED_COMMUNICATES_WITH)
    g.finalize()
    view = g.project_view(Configuration.CONTROLLED)
    assert exposure(view, "C") == pytest.approx(0.2, abs=1e-12)
