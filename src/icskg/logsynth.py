"""Deterministic synthetic operational-log generator.

Generates one OPC-UA/fieldbus-style event stream per testbed dataflow, for a
baseline profile and for a secured profile derived from an enabled control
set.  Event-class rates are met by exact quota counts (round(n * rate))
assigned to sessions through a counter-based Philox stream keyed by
(seed, flow index), so a fixed seed yields byte-identical output on every
platform and per-flow generation can run in any order.  Each flow is built
column-wise: its event offsets and categorical fields are numpy arrays, and
its CSV lines are joined from them, the text after the timestamp built once
per distinct row.  Timestamps count from 2025-01-06T00:00:00Z, rounded
half-even to the microsecond and then truncated to the millisecond.

Log CSV format: ``timestamp,src,dst,protocol,authMode,securityMode,event,clientIp``

The log row lives here alone: its header, its vocabularies, the generator and
the fold that counts a log CSV's distinct rows into a :class:`LogIndex`.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from icskg.config import ControlProfile, integer, number, obj
from icskg.errors import IngestError
from icskg.graph import csv_line, parse_csv
from icskg.ingest import Dataflow, TestbedSpec

LOG_CSV_HEADER = ["timestamp", "src", "dst", "protocol", "authMode",
                  "securityMode", "event", "clientIp"]
_HEADER_LINE = ",".join(LOG_CSV_HEADER)

# The authMode, securityMode and event words, each named; a word's code is its position.
AUTH_MODES = ANONYMOUS, PASSWORD, CERTIFICATE = ("Anonymous", "Password", "Certificate")
SECURITY_MODES = NO_SECURITY, SIGN, SIGN_AND_ENCRYPT = ("None", "Sign", "SignAndEncrypt")
EVENTS = (READ, WRITE, FAILED_WRITE, AUDIT_WRITE, SESSION, CONFIG_CHECK_PASS, CONFIG_CHECK_FAIL) = (
    "Read", "Write", "FailedWrite", "AuditWrite", "Session", "ConfigCheckPass", "ConfigCheckFail")
_CODE = {word: i for words in (AUTH_MODES, SECURITY_MODES, EVENTS) for i, word in enumerate(words)}

_BASE_MS = np.datetime64("2025-01-06T00:00:00", "ms")

# Per-session config checks are capped to keep streams bounded when
# misconfigRate far exceeds failCheckFrac.
_MAX_CHECKS_PER_SESSION = 10.0


@dataclass
class SynthProfile:
    seed: int = 42
    duration_hours: float = 24.0
    per_flow_session_rate: float = 50.0   # sessions per hour per dataflow
    anon_frac: float = 0.03
    insecure_mode_frac: float = 0.005
    cert_frac: float = 0.90
    misconfig_rate: float = 0.02
    failed_write_frac: float = 0.05
    audit_write_frac: float = 0.01
    fail_check_frac: float = 0.01
    client_ip_pool_size: int = 10

    def broken_rule(self) -> Optional[str]:
        """The first rule across the profile's settings that it breaks, or
        None.  The settings' own bounds are :data:`SYNTH_PROFILE`'s."""
        if self.anon_frac + self.cert_frac > 1.0 + 1e-12:
            return "anonFrac + certFrac exceeds 1"
        if self.failed_write_frac + self.audit_write_frac > 1.0 + 1e-12:
            return "failedWriteFrac + auditWriteFrac exceeds 1"
        if self.fail_check_frac == 0.0 and self.misconfig_rate > 0.0:
            return "misconfigRate > 0 requires failCheckFrac > 0"
        if self.fail_check_frac > 0.0 \
                and self.misconfig_rate / self.fail_check_frac > _MAX_CHECKS_PER_SESSION:
            return "misconfigRate / failCheckFrac exceeds the per-session check cap"
        if not math.isfinite(self.per_flow_session_rate * self.duration_hours):
            return "perFlowSessionRate * durationHours must be finite"
        return None


# A run config's ``synthProfile``: every field but the seed, which is the run's.
# The pool of client IPs is the host part of 10.<flow>.0.<k>.
SYNTH_PROFILE = obj({
    **dict.fromkeys(("durationHours", "perFlowSessionRate"), number(0)),
    **dict.fromkeys(("anonFrac", "insecureModeFrac", "certFrac", "misconfigRate",
                     "failedWriteFrac", "auditWriteFrac", "failCheckFrac"), number(0, 1)),
    "clientIpPoolSize": integer(1, 254)}, make=SynthProfile, check=SynthProfile.broken_rule)


def secured_profile(base: SynthProfile, controls: ControlProfile) -> SynthProfile:
    """Apply the enabled controls' overrides to a baseline profile.

    Combinators are min/max/scale so an enabled control can only move a
    rate in the safe direction; disabled controls leave rates untouched.
    A derived profile that breaks a rule across its settings raises
    :class:`IngestError` naming ``controlOverrides``.
    """
    o = controls.overrides
    p = replace(base)
    if "AccessControl" in controls.controls:
        p.anon_frac = min(p.anon_frac, o.anon_frac_cap)
        p.cert_frac = max(p.cert_frac, o.cert_frac_floor)
    if "ConfigHardening" in controls.controls:
        p.insecure_mode_frac = min(p.insecure_mode_frac, o.insecure_mode_cap)
        p.misconfig_rate = p.misconfig_rate * o.misconfig_scale
        p.fail_check_frac = p.fail_check_frac * o.fail_check_scale
    if "IDS" in controls.controls:
        p.failed_write_frac = p.failed_write_frac * o.failed_write_scale
        p.audit_write_frac = p.audit_write_frac * o.audit_write_scale
    broken = p.broken_rule()
    if broken:
        raise IngestError(f"controlOverrides: in the secured profile, {broken}")
    return p


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def _flow_rng(seed: int, flow_index: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, (0x1C5C4B << 32) | flow_index],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _quota_flags(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    flags = np.zeros(n, dtype=bool)
    flags[:count] = True
    rng.shuffle(flags)
    return flags


def _milliseconds(offsets: np.ndarray) -> np.ndarray:
    """Offsets in seconds from the log start as whole milliseconds: each
    rounded half-even to the microsecond, as ``timedelta`` rounds it, then
    truncated to the millisecond."""
    whole = np.floor(offsets)
    micros = whole.astype(np.int64) * 1_000_000 \
        + np.rint((offsets - whole) * 1e6).astype(np.int64)
    return micros // 1000


def _timestamps(ms: np.ndarray) -> np.ndarray:
    """The log timestamps of millisecond offsets from 2025-01-06T00:00:00Z,
    as an object array of strings."""
    return np.datetime_as_string(_BASE_MS + ms, unit="ms",
                                 timezone="UTC").astype(object)


def _generate_flow(flow_index: int, flow: Dataflow, profile: SynthProfile
                   ) -> tuple[np.ndarray, np.ndarray]:
    """One flow's events in order: their millisecond offsets, and their CSV
    line tails (each row's text after the timestamp) as an object array."""
    n = int(round(profile.per_flow_session_rate * profile.duration_hours))
    if n <= 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=object)
    rng = _flow_rng(profile.seed, flow_index)
    duration_s = profile.duration_hours * 3600.0
    slot = duration_s / n

    anon = _quota_flags(n, int(round(n * profile.anon_frac)), rng)
    # Certificates fill the non-anonymous remainder up to the configured share.
    cert_count = min(int(round(n * profile.cert_frac)), n - int(anon.sum()))
    cert = np.zeros(n, dtype=bool)
    non_anon = np.flatnonzero(~anon)
    picked = rng.permutation(non_anon)[:cert_count]
    cert[picked] = True
    insecure = _quota_flags(n, int(round(n * profile.insecure_mode_frac)), rng)
    sign_only = _quota_flags(n, n // 2, rng)

    ip_assign = np.arange(n) % profile.client_ip_pool_size
    rng.shuffle(ip_assign)

    failed = _quota_flags(n, int(round(n * profile.failed_write_frac)), rng)
    audit_count = min(int(round(n * profile.audit_write_frac)), n - int(failed.sum()))
    audit = np.zeros(n, dtype=bool)
    non_failed = np.flatnonzero(~failed)
    picked = rng.permutation(non_failed)[:audit_count]
    audit[picked] = True

    if profile.fail_check_frac > 0.0:
        checks_per_session = profile.misconfig_rate / profile.fail_check_frac
    else:
        checks_per_session = 1.0
    boundaries = np.floor(np.arange(n + 1) * checks_per_session).astype(np.int64)
    total_checks = int(boundaries[-1])
    check_fail = _quota_flags(total_checks,
                              int(round(total_checks * profile.fail_check_frac)), rng) \
        if total_checks else np.zeros(0, dtype=bool)

    # Session i holds a Session event, its write and its config checks,
    # event j of them at i*slot + slot/(count+1)*j.  The categorical codes
    # index AUTH_MODES, SECURITY_MODES and EVENTS.
    counts = np.diff(boundaries) + 2
    session = np.repeat(np.arange(n), counts)
    position = np.arange(len(session)) - np.repeat(np.cumsum(counts) - counts, counts)
    offsets = session * slot + (slot / (counts + 1))[session] * position
    c = _CODE
    event = np.where(failed, c[FAILED_WRITE], np.where(audit, c[AUDIT_WRITE], c[WRITE]))[session]
    event[position == 0] = c[SESSION]
    event[position >= 2] = np.where(check_fail, c[CONFIG_CHECK_FAIL], c[CONFIG_CHECK_PASS])
    auth = np.where(anon, c[ANONYMOUS], np.where(cert, c[CERTIFICATE], c[PASSWORD]))[session]
    security = np.where(insecure, c[NO_SECURITY],
                        np.where(sign_only, c[SIGN], c[SIGN_AND_ENCRYPT]))[session]
    # Each distinct (auth mode, security mode, event, client IP) of the
    # flow gets its tail built once.  The vocabularies and the IPs never
    # need quoting; the flow's endpoints and protocol are quoted once.
    shape = (len(AUTH_MODES), len(SECURITY_MODES), len(EVENTS), profile.client_ip_pool_size)
    codes, inverse = np.unique(np.ravel_multi_index(
        (auth, security, event, ip_assign[session]), shape), return_inverse=True)
    prefix = "," + csv_line((flow.src, flow.dst, flow.protocol))
    network = f"10.{(flow_index % 250) + 1}.0."
    tails = np.array([
        f"{prefix},{AUTH_MODES[a]},{SECURITY_MODES[s]},{EVENTS[e]},{network}{k + 1}"
        for a, s, e, k in zip(*np.unravel_index(codes, shape))], dtype=object)
    return _milliseconds(offsets), tails[inverse]


def _merged_flows(testbed: TestbedSpec, profile: SynthProfile,
                  silent: Callable[[Dataflow], bool]) -> list[str]:
    """The CSV lines of one sub-stream per dataflow that is not ``silent``,
    merged by time; the sort is stable, so ties keep flow order, then
    position in the flow."""
    flows = [_generate_flow(flow_index, flow, profile)
             for flow_index, flow in enumerate(testbed.dataflows) if not silent(flow)]
    if not flows:
        return []
    ms, tails = (np.concatenate(column) for column in zip(*flows))
    order = np.argsort(ms, kind="stable")
    return (_timestamps(ms[order]) + tails[order]).tolist()


def generate(testbed: TestbedSpec, profile: SynthProfile) -> list[str]:
    """Baseline log stream: one sub-stream per dataflow, merged by time,
    as the CSV data lines (without line ends) of its records."""
    return _merged_flows(testbed, profile, lambda flow: False)


def generate_secured(testbed: TestbedSpec, profile: SynthProfile,
                     controls: ControlProfile) -> list[str]:
    """Secured log stream reflecting the enabled controls.

    Rate overrides are applied before generation (:func:`secured_profile`);
    the dataflows the profile blocks produce no records at all.  Flow
    indexes match :func:`generate` so an empty control set reproduces the
    baseline byte-for-byte.
    """
    zones = {p.name: p.zone for p in testbed.products}
    return _merged_flows(testbed, secured_profile(profile, controls),
                         lambda flow: controls.blocks(flow.src, flow.dst, zones.__getitem__))


# ---------------------------------------------------------------------------
# CSV serialization, and the fold that reads a log back
# ---------------------------------------------------------------------------

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
        if event == SESSION:
            self.sessions += n
            self.anon += n * (auth_mode == ANONYMOUS)
            self.cert += n * (auth_mode == CERTIFICATE)
            self.insecure += n * (security_mode == NO_SECURITY)
        elif event in (WRITE, FAILED_WRITE, AUDIT_WRITE):
            self.writes += n
            self.failed_writes += n * (event == FAILED_WRITE)
            self.audit_writes += n * (event == AUDIT_WRITE)
        elif event in (CONFIG_CHECK_PASS, CONFIG_CHECK_FAIL):
            self.checks += n
            self.check_fails += n * (event == CONFIG_CHECK_FAIL)


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


def write_log_csv(lines: Sequence[str], path: str | Path) -> None:
    """Write a log CSV: the header, then the lines of :func:`generate`,
    each ending in LF."""
    Path(path).write_bytes("\n".join([_HEADER_LINE, *lines, ""]).encode("utf-8"))


def load_log_csv(path: str | Path) -> LogIndex:
    """The per-pair statistics of a log CSV: each distinct row, less its
    timestamp, counted and folded into a :class:`LogIndex`.

    Columns are found by name.  A row whose field count differs from the
    header's raises :class:`IngestError`.
    """
    text = Path(path).read_bytes().decode("utf-8")
    lines = text.split("\n")
    width = len(LOG_CSV_HEADER)
    if lines[0] == _HEADER_LINE and '"' not in text and "\r" not in text:
        # Nothing is quoted, so a line's fields are its comma-separated
        # parts, in header order.
        data = [line for line in islice(lines, 1, None) if line]
        tails = Counter(line.partition(",")[2] for line in data)
        rows = {tuple(tail.split(",")): n for tail, n in tails.items()}
        if any(len(row) != width - 1 for row in rows):
            _check_widths(path, (line.split(",") for line in data), width)
    else:
        header, records = parse_csv(text, path, LOG_CSV_HEADER)
        records = list(records)
        _check_widths(path, records, len(header))
        columns = itemgetter(*(header.index(col) for col in LOG_CSV_HEADER[1:]))
        rows = Counter(map(columns, records))
    return LogIndex(rows)


def _check_widths(path: str | Path, rows: Iterable[Sequence[str]], width: int) -> None:
    """Raise :class:`IngestError` at the first row that has not ``width``
    fields; rows count from 1 after the header, blank lines skipped."""
    for number, row in enumerate(rows, start=1):
        if len(row) != width:
            raise IngestError(f"{path}: row {number} has {len(row)} fields, not {width}")
