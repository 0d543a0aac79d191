"""Deterministic log generation: rate fidelity, control effects, determinism."""

from __future__ import annotations

import math

import pytest

from icskg.config import ControlOverrides
from icskg.errors import IngestError, InvalidProfile
from icskg.graph import write_csv
from icskg.ingest import Dataflow, TestbedProduct, TestbedSpec
from icskg.logsynth import (
    LOG_CSV_HEADER,
    ControlProfile,
    SynthProfile,
    generate,
    generate_secured,
    load_log_csv,
    records_to_csv,
    write_log_csv,
)
from icskg.risk import LogIndex


def one_flow_testbed() -> TestbedSpec:
    return TestbedSpec(
        zones=["DMZ", "OT"],
        products=[
            TestbedProduct("SRC", "v", "HMI", "DMZ", 5, ["OPC_UA"]),
            TestbedProduct("DST", "v", "PLC", "OT", 9, ["OPC_UA"]),
            TestbedProduct("OT_A", "v", "PLC", "OT", 9, ["OPC_UA"]),
        ],
        dataflows=[
            Dataflow("SRC", "DST", "OPC_UA"),
            Dataflow("OT_A", "DST", "OPC_UA"),
        ],
    )


def profile_10k(**overrides) -> SynthProfile:
    kwargs = dict(seed=42, duration_hours=100.0, per_flow_session_rate=100.0)
    kwargs.update(overrides)
    return SynthProfile(**kwargs)


def test_rate_fidelity_at_10k_sessions():
    testbed = one_flow_testbed()
    profile = profile_10k()
    stats = LogIndex(generate(testbed, profile)).pair("SRC", "DST")
    n = stats.sessions
    assert n == 10_000

    def check(observed, configured):
        sigma = math.sqrt(max(configured * (1 - configured), 1e-9) / n)
        assert abs(observed - configured) <= max(3 * sigma, 1.0 / n)

    check(stats.anon / n, profile.anon_frac)
    check(stats.insecure / n, profile.insecure_mode_frac)
    check(stats.cert / n, profile.cert_frac)
    check(stats.failed_writes / stats.writes, profile.failed_write_frac)
    check(stats.audit_writes / stats.writes, profile.audit_write_frac)
    check(stats.check_fails / n, profile.misconfig_rate)
    check(stats.check_fails / stats.checks, profile.fail_check_frac)
    assert len(stats.client_ips) == profile.client_ip_pool_size
    # worked-example quota: 3% of 10k sessions are anonymous
    assert abs(stats.anon - 300) <= 100


def test_zero_rate_empty_log():
    testbed = one_flow_testbed()
    profile = SynthProfile(per_flow_session_rate=0.0)
    assert generate(testbed, profile) == []


def test_determinism_byte_identical():
    testbed = one_flow_testbed()
    profile = SynthProfile(seed=11, duration_hours=3, per_flow_session_rate=40)
    first = records_to_csv(generate(testbed, profile))
    second = records_to_csv(generate(testbed, profile))
    assert first == second
    other_seed = records_to_csv(generate(testbed, SynthProfile(
        seed=12, duration_hours=3, per_flow_session_rate=40)))
    assert other_seed != first


def test_timestamps_monotone_per_file():
    testbed = one_flow_testbed()
    records = generate(testbed, SynthProfile(seed=2, duration_hours=2,
                                             per_flow_session_rate=50))
    stamps = [r.timestamp for r in records]
    assert stamps == sorted(stamps)


def test_invalid_profiles_rejected():
    with pytest.raises(InvalidProfile):
        SynthProfile(anon_frac=1.2).validate()
    with pytest.raises(InvalidProfile):
        SynthProfile(anon_frac=0.6, cert_frac=0.6).validate()
    with pytest.raises(InvalidProfile):
        SynthProfile(misconfig_rate=0.1, fail_check_frac=0.0).validate()
    with pytest.raises(InvalidProfile):
        SynthProfile(client_ip_pool_size=0).validate()
    with pytest.raises(InvalidProfile):
        ControlProfile(controls={"MagicAmulet"})


def test_access_control_caps_anonymous_sessions():
    testbed = one_flow_testbed()
    profile = profile_10k()
    controls = ControlProfile(controls={"AccessControl"})
    stats = LogIndex(generate_secured(testbed, profile, controls)).pair("SRC", "DST")
    assert stats.anon / stats.sessions <= 0.002
    assert stats.cert / stats.sessions >= 0.94


def test_segmentation_drops_cross_zone_flows():
    testbed = one_flow_testbed()
    profile = SynthProfile(seed=5, duration_hours=2, per_flow_session_rate=50)
    controls = ControlProfile(controls={"NetworkSegmentation"})
    secured = generate_secured(testbed, profile, controls)
    pairs = {(r.src, r.dst) for r in secured}
    assert ("SRC", "DST") not in pairs      # DMZ -> OT, not allowlisted
    assert ("OT_A", "DST") in pairs         # same zone, untouched

    allow = ControlProfile(controls={"NetworkSegmentation"},
                           allowlist=[("SRC", "DST")])
    kept = {(r.src, r.dst) for r in generate_secured(testbed, profile, allow)}
    assert ("SRC", "DST") in kept


def test_no_controls_identical_to_baseline():
    testbed = one_flow_testbed()
    profile = SynthProfile(seed=8, duration_hours=2, per_flow_session_rate=50)
    baseline = records_to_csv(generate(testbed, profile))
    secured = records_to_csv(generate_secured(testbed, profile,
                                              ControlProfile(controls=set())))
    assert baseline == secured


def test_control_dominance_on_factor_rates():
    testbed = one_flow_testbed()
    profile = profile_10k()
    controls = ControlProfile(
        controls={"AccessControl", "ConfigHardening", "IDS"},
        overrides=ControlOverrides())

    def rates(records):
        stats = LogIndex(records).pair("SRC", "DST")
        n = stats.sessions
        return {
            "anon": stats.anon / n,
            "insecure": stats.insecure / n,
            "inv_cert": 1 - stats.cert / n,
            "misconfig": stats.check_fails / n,
            "failcheck": stats.check_fails / max(stats.checks, 1),
            "failed": stats.failed_writes / max(stats.writes, 1),
            "audit": stats.audit_writes / max(stats.writes, 1),
        }

    base = rates(generate(testbed, profile))
    sec = rates(generate_secured(testbed, profile, controls))
    for key in base:
        assert sec[key] <= base[key] + 1e-9, key


def test_csv_round_trip(tmp_path):
    testbed = one_flow_testbed()
    records = generate(testbed, SynthProfile(seed=3, duration_hours=1,
                                             per_flow_session_rate=30))
    path = tmp_path / "log.csv"
    write_log_csv(records, path)
    loaded = load_log_csv(path)
    assert loaded == records
    # columns are found by name, so their order in the file is free
    reordered = tmp_path / "reordered.csv"
    reordered.write_bytes(write_csv(LOG_CSV_HEADER[::-1], (r[::-1] for r in records)))
    assert load_log_csv(reordered) == records


@pytest.mark.parametrize("width", [3, 9])
def test_load_log_csv_rejects_ragged_rows(tmp_path, width):
    records = generate(one_flow_testbed(), SynthProfile(
        seed=3, duration_hours=1, per_flow_session_rate=30))
    rows = [list(r) for r in records]
    rows[1] = (rows[1] + ["extra"])[:width]
    path = tmp_path / "log.csv"
    path.write_bytes(write_csv(LOG_CSV_HEADER, rows))
    with pytest.raises(IngestError, match=f"row 2 has {width} fields"):
        load_log_csv(path)
