"""Deterministic log generation: rate fidelity, control effects, determinism;
the log CSV written as joined lines and read as a fold."""

from __future__ import annotations

import math
import re
import tracemalloc
from collections import Counter
from datetime import datetime, timedelta, timezone
from io import StringIO
from itertools import chain
from operator import itemgetter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import log_index
from icskg import logsynth
from icskg.config import ControlOverrides, ControlProfile
from icskg.errors import IngestError
from icskg.graph import csv_line, parse_csv, write_csv
from icskg.ingest import TESTBED, Dataflow, TestbedProduct, TestbedSpec
from icskg.logsynth import (
    AUTH_MODES,
    EVENTS,
    LOG_CSV_HEADER,
    SECURITY_MODES,
    SYNTH_PROFILE,
    LogIndex,
    PairStats,
    SynthProfile,
    _flow_rng,
    _generate_flow,
    _milliseconds,
    _quota_flags,
    _timestamps,
    generate,
    generate_secured,
    load_log_csv,
    write_log_csv,
)


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
    stats = log_index(generate(testbed, profile)).pair("SRC", "DST")
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


def test_zero_rate_empty_log(tmp_path):
    testbed = one_flow_testbed()
    profile = SynthProfile(per_flow_session_rate=0.0)
    assert list(generate(testbed, profile)) == []
    write_log_csv(generate(testbed, profile), tmp_path / "log.csv")
    assert (tmp_path / "log.csv").read_text(encoding="utf-8") == ",".join(LOG_CSV_HEADER) + "\n"
    assert len(load_log_csv(tmp_path / "log.csv")) == 0


def test_determinism_byte_identical():
    testbed = one_flow_testbed()
    profile = SynthProfile(seed=11, duration_hours=3, per_flow_session_rate=40)
    first = list(generate(testbed, profile))
    second = list(generate(testbed, profile))
    assert first == second
    other_seed = list(generate(testbed, SynthProfile(
        seed=12, duration_hours=3, per_flow_session_rate=40)))
    assert other_seed != first


def test_timestamps_monotone_per_file():
    testbed = one_flow_testbed()
    lines = generate(testbed, SynthProfile(seed=2, duration_hours=2,
                                           per_flow_session_rate=50))
    stamps = [line.split(",")[0] for line in lines]
    assert stamps == sorted(stamps)


def test_invalid_profiles_rejected():
    # Each broken rule fails the reading of its document, naming its setting.
    for raw, needle in [
            ({"anonFrac": 1.2}, "synthProfile.anonFrac must be a finite number from 0 to 1"),
            ({"anonFrac": 0.6, "certFrac": 0.6}, "synthProfile: anonFrac + certFrac exceeds 1"),
            ({"misconfigRate": 0.1, "failCheckFrac": 0.0},
             "synthProfile: misconfigRate > 0 requires failCheckFrac > 0"),
            ({"clientIpPoolSize": 0},
             "synthProfile.clientIpPoolSize must be an integer from 1 to 254")]:
        with pytest.raises(IngestError, match=f"^{re.escape(needle)}"):
            SYNTH_PROFILE(raw, "synthProfile")
    with pytest.raises(IngestError, match=r"^controlProfiles\.x\.controls\[0\] must be "):
        TESTBED({"products": [], "controlProfiles": {"x": {"controls": ["MagicAmulet"]}}},
                "testbed", "")


def test_access_control_caps_anonymous_sessions():
    testbed = one_flow_testbed()
    profile = profile_10k()
    controls = ControlProfile(controls={"AccessControl"})
    stats = log_index(generate_secured(testbed, profile, controls)).pair("SRC", "DST")
    assert stats.anon / stats.sessions <= 0.002
    assert stats.cert / stats.sessions >= 0.94


def test_segmentation_drops_cross_zone_flows():
    testbed = one_flow_testbed()
    profile = SynthProfile(seed=5, duration_hours=2, per_flow_session_rate=50)
    controls = ControlProfile(controls={"NetworkSegmentation"})
    secured = generate_secured(testbed, profile, controls)
    pairs = {tuple(line.split(",")[1:3]) for line in secured}
    assert ("SRC", "DST") not in pairs      # DMZ -> OT, not allowlisted
    assert ("OT_A", "DST") in pairs         # same zone, untouched

    allow = ControlProfile(controls={"NetworkSegmentation"},
                           allowlist=[("SRC", "DST")])
    kept = {tuple(line.split(",")[1:3])
            for line in generate_secured(testbed, profile, allow)}
    assert ("SRC", "DST") in kept


def test_no_controls_identical_to_baseline():
    testbed = one_flow_testbed()
    profile = SynthProfile(seed=8, duration_hours=2, per_flow_session_rate=50)
    baseline = list(generate(testbed, profile))
    secured = list(generate_secured(testbed, profile, ControlProfile(controls=set())))
    assert baseline == secured


def test_control_dominance_on_factor_rates():
    testbed = one_flow_testbed()
    profile = profile_10k()
    controls = ControlProfile(
        controls={"AccessControl", "ConfigHardening", "IDS"},
        overrides=ControlOverrides())

    def rates(lines):
        stats = log_index(lines).pair("SRC", "DST")
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


# ---------------------------------------------------------------------------
# The log CSV: written as joined lines, read as a fold
# ---------------------------------------------------------------------------

def count_row(stats: PairStats, row) -> None:
    """One log row (timestamp first) added to ``stats`` event by event: the
    per-record count the fold replaced, kept as its oracle."""
    _, _, _, _, auth_mode, security_mode, event, client_ip = row
    stats.client_ips.add(client_ip)
    if event == "Session":
        stats.sessions += 1
        if auth_mode == "Anonymous":
            stats.anon += 1
        elif auth_mode == "Certificate":
            stats.cert += 1
        if security_mode == "None":
            stats.insecure += 1
    elif event in ("Write", "FailedWrite", "AuditWrite"):
        stats.writes += 1
        if event == "FailedWrite":
            stats.failed_writes += 1
        elif event == "AuditWrite":
            stats.audit_writes += 1
    elif event in ("ConfigCheckPass", "ConfigCheckFail"):
        stats.checks += 1
        if event == "ConfigCheckFail":
            stats.check_fails += 1


def assert_folds_rows(index, rows) -> None:
    """``index`` holds ``rows`` (timestamp first): its row count, and its
    pair and merged statistics for every two endpoints, counted row by row."""
    assert len(index) == len(rows)
    endpoints = sorted({endpoint for row in rows for endpoint in row[1:3]} | {"absent"})
    for u in endpoints:
        for v in endpoints:
            pair, merged = PairStats(), PairStats()
            for row in rows:
                if {row[1], row[2]} == {u, v}:
                    count_row(pair, row)
                if {row[1], row[2]} & {u, v}:
                    count_row(merged, row)
            # Every row names a client, so a pair with rows has clients.
            assert index.pair(u, v) == (pair if pair.client_ips else None)
            assert index.merged(u, v) == (merged if merged.client_ips else None)


def test_csv_round_trip(tmp_path):
    testbed = one_flow_testbed()
    lines = generate(testbed, SynthProfile(seed=3, duration_hours=1,
                                           per_flow_session_rate=30))
    rows = [line.split(",") for line in lines]
    path = tmp_path / "log.csv"
    write_log_csv(lines, path)
    assert path.read_bytes() == write_csv(LOG_CSV_HEADER, rows)
    assert_folds_rows(load_log_csv(path), rows)
    # columns are found by name, so their order in the file is free
    reordered = tmp_path / "reordered.csv"
    reordered.write_bytes(write_csv(LOG_CSV_HEADER[::-1], (row[::-1] for row in rows)))
    assert_folds_rows(load_log_csv(reordered), rows)


def ragged_log(path, width: int, quoted: bool):
    """A log CSV whose second row has ``width`` fields; a quoted field in
    its first row sends the file through csv.reader."""
    lines = generate(one_flow_testbed(), SynthProfile(
        seed=3, duration_hours=1, per_flow_session_rate=30))
    rows = [line.split(",") for line in lines]
    rows[1] = (rows[1] + ["extra"])[:width]
    if quoted:
        rows[0][3] = 'OPC "UA"'
    path.write_bytes(write_csv(LOG_CSV_HEADER, rows))
    assert (b'"' in path.read_bytes()) == quoted
    return path


@pytest.mark.parametrize("width, quoted", [(3, False), (9, False), (3, True), (9, True)],
                         ids=["3", "9", "quoted-3", "quoted-9"])
def test_load_log_csv_rejects_ragged_rows(tmp_path, width, quoted):
    with pytest.raises(IngestError, match=f"row 2: {width} fields, not 8$"):
        load_log_csv(ragged_log(tmp_path / "log.csv", width, quoted))


# ---------------------------------------------------------------------------
# Column-wise generation against the per-session reference
# ---------------------------------------------------------------------------

_BASE_TIME = datetime(2025, 1, 6, tzinfo=timezone.utc)


def reference_timestamp(offset_seconds: float) -> str:
    t = _BASE_TIME + timedelta(seconds=offset_seconds)
    return t.strftime("%Y-%m-%dT%H:%M:%S.") + f"{t.microsecond // 1000:03d}Z"


def reference_flow(flow_index: int, flow: Dataflow, profile: SynthProfile) -> list[list[str]]:
    """One flow's rows built session by session, with the same draws from
    the flow's random stream as :func:`_generate_flow`."""
    n = int(round(profile.per_flow_session_rate * profile.duration_hours))
    if n <= 0:
        return []
    rng = _flow_rng(profile.seed, flow_index)
    slot = profile.duration_hours * 3600.0 / n

    anon = _quota_flags(n, int(round(n * profile.anon_frac)), rng)
    cert_count = min(int(round(n * profile.cert_frac)), n - int(anon.sum()))
    cert = np.zeros(n, dtype=bool)
    cert[rng.permutation(np.flatnonzero(~anon))[:cert_count]] = True
    insecure = _quota_flags(n, int(round(n * profile.insecure_mode_frac)), rng)
    sign_only = _quota_flags(n, n // 2, rng)
    ip_assign = np.arange(n) % profile.client_ip_pool_size
    rng.shuffle(ip_assign)
    failed = _quota_flags(n, int(round(n * profile.failed_write_frac)), rng)
    audit_count = min(int(round(n * profile.audit_write_frac)), n - int(failed.sum()))
    audit = np.zeros(n, dtype=bool)
    audit[rng.permutation(np.flatnonzero(~failed))[:audit_count]] = True
    checks_per_session = profile.misconfig_rate / profile.fail_check_frac \
        if profile.fail_check_frac > 0.0 else 1.0
    boundaries = np.floor(np.arange(n + 1) * checks_per_session).astype(np.int64)
    total_checks = int(boundaries[-1])
    check_fail = _quota_flags(total_checks,
                              int(round(total_checks * profile.fail_check_frac)), rng) \
        if total_checks else np.zeros(0, dtype=bool)

    rows = []
    for i in range(n):
        auth = "Anonymous" if anon[i] else "Certificate" if cert[i] else "Password"
        sec = "None" if insecure[i] else "Sign" if sign_only[i] else "SignAndEncrypt"
        ip = f"10.{(flow_index % 250) + 1}.0.{int(ip_assign[i]) + 1}"
        write = "FailedWrite" if failed[i] else "AuditWrite" if audit[i] else "Write"
        events = ["Session", write] + [
            "ConfigCheckFail" if check_fail[c] else "ConfigCheckPass"
            for c in range(int(boundaries[i]), int(boundaries[i + 1]))]
        step = slot / (len(events) + 1)
        for j, event in enumerate(events):
            rows.append([reference_timestamp(i * slot + step * j), flow.src,
                         flow.dst, flow.protocol, auth, sec, event, ip])
    return rows


def _near(centres, width: float):
    return st.builds(lambda c, d: max(c + d, 0.0), centres, st.floats(-width, width))


_SECONDS = st.integers(0, 10**7)
# Days after the 2025-01-06 start that begin February, March, April and May.
_MONTH_STARTS = st.sampled_from([26, 54, 85, 115])

OFFSETS = st.one_of(
    st.floats(0.0, 1e7),
    # a half-microsecond: the rounding tie and its neighbours
    _near(st.builds(lambda s, us: s + (us + 0.5) / 1e6, _SECONDS, st.integers(0, 999_999)), 1e-6),
    # exact ties: k/128 s is k * 7812.5 us
    st.builds(lambda s, k: s + k / 128, _SECONDS, st.integers(0, 127)),
    # the half-microsecond below a millisecond boundary, to within a few ulps
    _near(st.builds(lambda s, ms: s + (ms - 0.0005) / 1000, _SECONDS, st.integers(1, 1000)), 1e-8),
    # millisecond boundaries, and .9995 s where rounding to the millisecond differs
    _near(st.builds(lambda s, ms: s + ms / 1000, _SECONDS, st.integers(0, 999)), 1e-6),
    _near(_SECONDS.map(lambda s: s + 0.9995), 1e-6),
    # the end of a day, and of a month
    _near(st.integers(1, 115).map(lambda day: day * 86400.0), 1e-3),
    _near(_MONTH_STARTS.map(lambda day: day * 86400.0), 1e-3),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(OFFSETS, min_size=1, max_size=40))
def test_timestamps_round_as_timedelta_does(offsets):
    assert _timestamps(_milliseconds(np.array(offsets))).tolist() \
        == [reference_timestamp(x) for x in offsets]


@st.composite
def valid_profiles(draw) -> SynthProfile:
    fail_check = draw(st.just(0.0) | st.floats(0.001, 1.0))
    misconfig = draw(st.floats(0.0, min(1.0, 9.99 * fail_check)))
    anon = draw(st.floats(0.0, 1.0))
    failed = draw(st.floats(0.0, 1.0))
    duration = draw(st.floats(0.0, 72.0))
    profile = SynthProfile(
        seed=draw(st.integers(0, 2**63 - 1)),
        duration_hours=duration,
        per_flow_session_rate=draw(st.floats(0.0, 2000.0 / max(duration, 1.0))),
        anon_frac=anon,
        insecure_mode_frac=draw(st.floats(0.0, 1.0)),
        cert_frac=draw(st.floats(0.0, 1.0 - anon)),
        misconfig_rate=misconfig,
        failed_write_frac=failed,
        audit_write_frac=draw(st.floats(0.0, 1.0 - failed)),
        fail_check_frac=fail_check,
        client_ip_pool_size=draw(st.integers(1, 254)),
    )
    assert profile.broken_rule() is None
    return profile


@settings(max_examples=60, deadline=None)
@given(valid_profiles(), st.integers(0, 1000))
def test_generate_flow_equals_per_session_reference(profile, flow_index):
    flow = Dataflow("SRC", "DST", "OPC_UA")
    ms, tails = _generate_flow(flow_index, flow, profile)
    assert (_timestamps(ms) + tails).tolist() \
        == [",".join(row) for row in reference_flow(flow_index, flow, profile)]


# Product ids and protocols that need quoting, and some that do not.  No
# NUL: csv.reader rejects it before Python 3.11.
FIELD_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00")
                     | st.sampled_from([",", '"', "\r", "\n", "é", "\u2028"]),
                     min_size=1, max_size=6)


@st.composite
def quoted_flows(draw) -> list[Dataflow]:
    names = draw(st.lists(FIELD_TEXT | st.sampled_from(["PLC_1", "HMI_1"]),
                          min_size=2, max_size=5, unique=True))
    pairs = st.tuples(st.sampled_from(names), st.sampled_from(names)).filter(
        lambda pair: pair[0] != pair[1])
    return [Dataflow(src, dst, protocol) for (src, dst), protocol in draw(st.lists(
        st.tuples(pairs, FIELD_TEXT | st.just("OPC_UA")), min_size=1, max_size=4))]


@settings(max_examples=60, deadline=None)
@given(quoted_flows(), st.integers(0, 2**32), st.integers(1, 12))
def test_log_csv_matches_csv_module_and_per_row_count(tmp_path_factory, flows, seed, pool):
    testbed = TestbedSpec(zones=["OT"], products=[], dataflows=flows)
    profile = SynthProfile(seed=seed, duration_hours=0.2, per_flow_session_rate=40,
                           client_ip_pool_size=pool)
    rows = sorted(chain.from_iterable(reference_flow(flow_index, flow, profile)
                                      for flow_index, flow in enumerate(flows)),
                  key=itemgetter(0))
    path = tmp_path_factory.mktemp("log") / "log.csv"
    write_log_csv(generate(testbed, profile), path)
    assert path.read_bytes() == write_csv(LOG_CSV_HEADER, rows)
    assert_folds_rows(load_log_csv(path), rows)


# ---------------------------------------------------------------------------
# Memory bounded by the chunk and the distinct rows, and the read that the
# line-at-a-time reader replaced as its oracle
# ---------------------------------------------------------------------------

def test_tail_fold_shares_equal_fields_between_rows():
    """Two distinct rows hold one string object for a field they share, not
    a copy each (multi-character values: CPython caches one-character ones)."""
    lines = ["2024-01-01T00:00:00.000Z,PLC_1,HMI_1,OPC_UA,Anonymous,None,Connect,10.0.0.1\n",
             "2024-01-01T00:00:01.000Z,PLC_1,HMI_2,OPC_UA,Anonymous,None,Connect,10.0.0.1\n"]
    first, second = logsynth._tail_rows(lines)
    assert first[0] == second[0] == "PLC_1" and first[0] is second[0]
    assert first[-1] is second[-1]


def traced(work):
    """The result of ``work()``, the bytes still traced after it and the
    traced peak during it, as tracemalloc counts them (numpy included)."""
    tracemalloc.start()
    try:
        result = work()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current, peak


def test_log_layer_memory_does_not_grow_with_the_log_window(tmp_path):
    """Writing and loading one flow's log peak below a fixed bound at 8 h
    and at 64 h, while the 64 h file is three times that bound; the stream
    :func:`generate` returns keeps 16 bytes a record, not the records' text.
    A source that needs quoting sends every line through ``csv.reader``,
    which is bounded the same way."""
    bound = 3 << 20
    for source in ("SRC", 'PLC "7", cell A'):
        testbed = TestbedSpec(zones=["OT"], products=[],
                              dataflows=[Dataflow(source, "DST", "OPC_UA")])
        for hours in (8, 64):
            profile = SynthProfile(seed=1, duration_hours=hours, per_flow_session_rate=400)
            stream, kept, _ = traced(lambda: generate(testbed, profile))
            assert kept <= 24 * len(stream), (source, hours)
            path = tmp_path / f"{hours}h.csv"
            _, _, write_peak = traced(lambda: write_log_csv(stream, path))
            index, _, load_peak = traced(lambda: load_log_csv(path))
            assert len(index) == len(stream) == 1600 * hours
            assert index.pair(source, "DST").sessions == 400 * hours
            assert write_peak < bound and load_peak < bound, \
                (source, hours, write_peak, load_peak)
        assert path.stat().st_size > 2.5 * bound


def whole_file_load(path) -> LogIndex:
    """The read that :func:`load_log_csv` replaced, kept as its oracle: the
    whole file decoded and parsed by ``csv.reader``, then the picked columns
    of every row counted, each row's width checked as it is counted.  (The
    replaced read checked the widths after parsing the whole file, so a csv
    error after a ragged row was the one it raised; both now raise the
    first fault in the file.)"""
    header, records = parse_csv(StringIO(path.read_bytes().decode("utf-8")), path,
                                LOG_CSV_HEADER)

    def checked():
        for number, row in enumerate(records, start=1):
            if len(row) != len(header):
                raise IngestError(f"{path}: row {number}: {len(row)} fields, "
                                  f"not {len(header)}")
            yield row
    columns = itemgetter(*(header.index(col) for col in LOG_CSV_HEADER[1:]))
    return LogIndex(Counter(map(columns, checked())))


NAMES = st.sampled_from(["PLC_1", "HMI_é", "Ventil_Ø", "泵站_2", "Zelle🙂"])
# Endpoints that only the oddities below write.
ODD_NAMES = ['PLC "7", cell A', "PLC\n7", "PLC\r7"]
LOG_ROWS = st.tuples(
    st.sampled_from(["2025-01-06T00:00:00.000Z", "2025-01-06T07:59:59.999Z"]),
    NAMES, NAMES, st.sampled_from(["OPC_UA", "Modbus"]), st.sampled_from(AUTH_MODES),
    st.sampled_from(SECURITY_MODES), st.sampled_from(EVENTS),
    st.sampled_from(["10.1.0.1", "10.2.0.7"])).map(list)
# Oddities put in at a drawn line: a field that needs quoting (one with a
# quote and a comma, with an LF or with a CR), a quoted timestamp, a bare CR
# in a drawn field, a CRLF line end, a blank line, or a row of the wrong
# width.
ODDITIES = st.sampled_from(["quoted", "lf-in-quotes", "cr-in-quotes", "quoted-timestamp",
                            "bare-cr", "crlf", "blank", "short", "long"])


@st.composite
def log_files(draw) -> str:
    """The text of a log CSV.  The drawn rows have multibyte product names;
    the columns may be reordered and an extra column put in; an oddity may
    land in any line; the final LF may be missing."""
    columns = [*LOG_CSV_HEADER, "site"] if draw(st.booleans()) else LOG_CSV_HEADER
    order = draw(st.permutations(range(len(columns))) | st.just(range(len(columns))))

    def line(row: list[str]) -> str:
        # A full row gets the extra column's cell; a ragged row keeps its
        # width.
        if len(row) == 8:
            row = [*row, "cell A"][:len(columns)]
        return csv_line([row[i] for i in order if i < len(row)])

    lines = [line(row) for row in draw(st.lists(LOG_ROWS, max_size=40))]
    for oddity in draw(st.lists(ODDITIES, max_size=3)):
        at = draw(st.integers(0, len(lines)))
        row = draw(LOG_ROWS)
        if oddity in ("quoted", "lf-in-quotes", "cr-in-quotes"):
            row[draw(st.sampled_from([1, 2]))] = ODD_NAMES[
                ("quoted", "lf-in-quotes", "cr-in-quotes").index(oddity)]
        elif oddity == "short":
            row = row[:draw(st.integers(1, 7))]
        elif oddity == "long":
            row.append("extra")
        text = "" if oddity == "blank" else line(row)
        if oddity == "quoted-timestamp":
            text = text.replace(row[0], f'"{row[0]}"')
        elif oddity == "bare-cr":
            cut = draw(st.integers(1, len(text) - 1))
            text = text[:cut] + "\r" + text[cut:]
        elif oddity == "crlf":
            text += "\r"
        lines.insert(at, text)
    text = "\n".join([",".join(columns[i] for i in order), *lines])
    return text + "\n" if draw(st.booleans()) else text


def load_outcome(load, path):
    """What ``load`` makes of ``path``: the error it raises, or the row
    count and every pair and merged statistic of the index."""
    try:
        index = load(path)
    except IngestError as exc:
        return str(exc)
    names = ["PLC_1", "HMI_é", "Ventil_Ø", "泵站_2", "Zelle🙂", *ODD_NAMES]
    return len(index), [(index.pair(u, v), index.merged(u, v)) for u in names for v in names]


@settings(max_examples=300, deadline=None)
@given(log_files())
@example(",".join(LOG_CSV_HEADER))           # header only, no final LF
@example(",".join(LOG_CSV_HEADER) + "\n")    # header only
def test_load_log_csv_equals_the_whole_file_read(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("log") / "log.csv"
    path.write_bytes(text.encode("utf-8"))
    outcome = load_outcome(load_log_csv, path)
    assert outcome == load_outcome(whole_file_load, path)
    if text.rstrip("\n") == ",".join(LOG_CSV_HEADER):
        assert outcome[0] == 0
    if '"' not in text and "\r" not in text:
        # Rows are named by their number from 1 after the header, blank
        # lines skipped: an oracle independent of csv.reader.
        data = [line.split(",") for line in text.split("\n")[1:] if line]
        width = text.split("\n")[0].count(",") + 1
        ragged = [(n, len(row)) for n, row in enumerate(data, start=1) if len(row) != width]
        if ragged:
            n, length = ragged[0]
            assert outcome == f"{path}: row {n}: {length} fields, not {width}"


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(NAMES, NAMES), min_size=1, max_size=3), st.integers(0, 2**32),
       st.sampled_from([1, 7, 64]))
def test_write_log_csv_does_not_depend_on_the_chunk_size(tmp_path_factory, pairs, seed, chunk):
    testbed = TestbedSpec(zones=["OT"], products=[],
                          dataflows=[Dataflow(src, dst, "OPC_UA") for src, dst in pairs])
    stream = generate(testbed, SynthProfile(seed=seed, duration_hours=0.1,
                                            per_flow_session_rate=100))
    folder = tmp_path_factory.mktemp("log")
    write_log_csv(stream, folder / "default.csv")
    with mock.patch.object(logsynth, "CHUNK_LINES", chunk):
        write_log_csv(stream, folder / "stream.csv")
        write_log_csv(list(stream), folder / "list.csv")
    expected = (folder / "default.csv").read_bytes()
    assert (folder / "stream.csv").read_bytes() == (folder / "list.csv").read_bytes() == expected
    assert expected.decode("utf-8").split("\n")[1:-1] == list(stream)
