"""Deterministic synthetic operational-log generator.

Generates one OPC-UA/fieldbus-style event stream per testbed dataflow, for a
baseline profile and for a secured profile derived from an enabled control
set.  Event-class rates are met by exact quota counts (round(n * rate))
assigned to sessions through a counter-based Philox stream keyed by
(seed, flow index), so a fixed seed yields byte-identical output on every
platform and per-flow generation can run in any order.  Each flow is built
column-wise: its event offsets and categorical fields are numpy arrays, and
the text after the timestamp is built and encoded once per distinct row.  A
generated log is a :class:`LogStream` that keeps only each record's offset
and a pointer to its row's bytes, and formats its CSV lines
:data:`CHUNK_LINES` at a time as it is iterated or written: a chunk's clocks
are filled into one fixed-width byte array with integer arithmetic, and its
date text is formatted once per day.  Timestamps count from
2025-01-06T00:00:00Z, rounded half-even to the microsecond and then
truncated to the millisecond.

numpy is imported inside the generator's functions, on their first call,
and not when this module is imported.  The fold is pure Python, so only
``synth-logs``, ``enrich`` and ``report`` on a view of at least
``analytics.ARRAY_PRODUCTS`` products load numpy.  A flow's per-event
columns are built a bounded chunk of sessions at a time, after all of its
random draws.

Log CSV format: ``timestamp,src,dst,protocol,authMode,securityMode,event,clientIp``

The log row lives here alone: its header, its vocabularies, the generator and
the fold that counts a log CSV's distinct rows into a :class:`LogIndex`.  A
log CSV is read a line at a time (:func:`load_log_csv`), so reading it holds
memory for the distinct rows, not for the length of the file.  The fold
first scans the file's bytes for a double quote or a carriage return, then
counts each line's text after its first comma with C-level iterators and
splits each distinct text once; a file it cannot read takes one
``csv.reader`` pass instead.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from itertools import chain, islice, product, repeat
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from icskg.config import ControlProfile, integer, number, obj
from icskg.errors import IngestError
from icskg.graph import csv_line, not_utf8, parse_csv, read_lines
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

# The day that log offsets count from, at 00:00:00Z.
_BASE = "2025-01-06"
_DAY_MS = 86_400_000

# A timestamp's clock text, and the digits that fill its fields: "00" to
# "99", and "000" to "999", back to back.
_CLOCK = b"00:00:00.000Z"
_PAIRS = bytes(chain.from_iterable(product(b"0123456789", repeat=2)))
_TRIPLES = bytes(chain.from_iterable(product(b"0123456789", repeat=3)))

# A log is formatted and written this many lines at a time, so the
# generator's memory is bounded by it and not by the number of records.
CHUNK_LINES = 4096

# A flow's per-event columns are built this many sessions at a time.
_CHUNK_SESSIONS = 1024

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

# Each generator function imports numpy itself: loading it takes 50-90 ms,
# which every command that only reads logs would pay for at start-up.

def _flow_rng(seed: int, flow_index: int) -> np.random.Generator:
    import numpy as np
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, (0x1C5C4B << 32) | flow_index],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _quota_flags(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    import numpy as np
    flags = np.zeros(n, dtype=bool)
    flags[:count] = True
    rng.shuffle(flags)
    return flags


def _milliseconds(offsets: np.ndarray) -> np.ndarray:
    """Offsets in seconds from the log start as whole milliseconds: each
    rounded half-even to the microsecond, as ``timedelta`` rounds it, then
    truncated to the millisecond."""
    import numpy as np
    whole = np.floor(offsets)
    micros = whole.astype(np.int64) * 1_000_000 \
        + np.rint((offsets - whole) * 1e6).astype(np.int64)
    return micros // 1000


def _timestamp_parts(ms: np.ndarray) -> tuple[list[bytes], list[bytes]]:
    """The log timestamps of millisecond offsets from 2025-01-06T00:00:00Z,
    each as two byte strings: its date and ``T`` (``2025-01-06T``), and its
    clock (``00:00:00.000Z``).

    The date text comes from ``np.datetime_as_string`` once per run of
    offsets on one day, so a sorted chunk formats one or two dates.  The
    clocks are one fixed-width array whose digit fields are filled from
    tables with integer arithmetic; a date is ten characters only up to the
    year 9999, so it stays a part of its own."""
    import numpy as np
    days, of_day = np.divmod(ms, _DAY_MS)
    new = np.diff(days, prepend=days[:1] - 1) != 0     # the first offset of each run
    dates = np.array([f"{date}T".encode() for date in np.datetime_as_string(
        np.datetime64(_BASE) + days[new], unit="D").tolist()], dtype=object)
    seconds, milli = np.divmod(of_day, 1000)
    minutes, second = np.divmod(seconds, 60)
    hour, minute = np.divmod(minutes, 60)
    clocks = np.empty(len(ms), np.dtype({"names": ["h", "m", "s", "ms"],
                                         "formats": ["S2", "S2", "S2", "S3"],
                                         "offsets": [0, 3, 6, 9], "itemsize": len(_CLOCK)}))
    text = clocks.view(f"S{len(_CLOCK)}")
    text[:] = _CLOCK
    pairs, triples = np.frombuffer(_PAIRS, "S2"), np.frombuffer(_TRIPLES, "S3")
    clocks["h"], clocks["m"], clocks["s"] = pairs[hour], pairs[minute], pairs[second]
    clocks["ms"] = triples[milli]
    return dates[np.cumsum(new) - 1].tolist(), text.tolist()


def _generate_flow(flow_index: int, flow: Dataflow, profile: SynthProfile
                   ) -> tuple[np.ndarray, np.ndarray]:
    """One flow's events in order: their millisecond offsets, and their CSV
    line tails (each row's text after the timestamp, with its LF, as UTF-8
    bytes) as an object array.

    Every random draw is made first, per session; the per-event columns are
    then built :data:`_CHUNK_SESSIONS` sessions at a time into the two
    result arrays, so the temporaries do not grow with the flow."""
    import numpy as np
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
    # event j of them at i*slot + slot/(count+1)*j; ``ends[i]`` is the
    # number of events up to and with session i.  The categorical codes
    # index AUTH_MODES, SECURITY_MODES and EVENTS.
    counts = np.diff(boundaries) + 2
    ends = np.cumsum(counts)
    ms = np.empty(int(ends[-1]), dtype=np.int64)
    tails = np.empty(len(ms), dtype=object)
    c = _CODE
    # Each distinct (auth mode, security mode, event, client IP) of the
    # flow gets its tail built and encoded once.  The vocabularies and the
    # IPs never need quoting; the flow's endpoints and protocol are quoted
    # once.
    shape = (len(AUTH_MODES), len(SECURITY_MODES), len(EVENTS), profile.client_ip_pool_size)
    prefix = "," + csv_line((flow.src, flow.dst, flow.protocol))
    network = f"10.{(flow_index % 250) + 1}.0."
    built: dict[int, bytes] = {}
    for lo in range(0, n, _CHUNK_SESSIONS):
        hi = min(lo + _CHUNK_SESSIONS, n)
        count = counts[lo:hi]
        first, last = int(ends[lo] - count[0]), int(ends[hi - 1])
        session = np.repeat(np.arange(hi - lo), count)      # from lo
        position = np.arange(last - first) - np.repeat(ends[lo:hi] - count - first, count)
        offsets = (session + lo) * slot + (slot / (count + 1))[session] * position
        event = np.where(failed[lo:hi], c[FAILED_WRITE],
                         np.where(audit[lo:hi], c[AUDIT_WRITE], c[WRITE]))[session]
        event[position == 0] = c[SESSION]
        event[position >= 2] = np.where(check_fail[boundaries[lo]:boundaries[hi]],
                                        c[CONFIG_CHECK_FAIL], c[CONFIG_CHECK_PASS])
        auth = np.where(anon[lo:hi], c[ANONYMOUS],
                        np.where(cert[lo:hi], c[CERTIFICATE], c[PASSWORD]))[session]
        security = np.where(insecure[lo:hi], c[NO_SECURITY],
                            np.where(sign_only[lo:hi], c[SIGN], c[SIGN_AND_ENCRYPT]))[session]
        codes, inverse = np.unique(np.ravel_multi_index(
            (auth, security, event, ip_assign[lo:hi][session]), shape), return_inverse=True)
        for code, a, s, e, k in zip(codes.tolist(), *np.unravel_index(codes, shape)):
            if code not in built:
                built[code] = (f"{prefix},{AUTH_MODES[a]},{SECURITY_MODES[s]},"
                               f"{EVENTS[e]},{network}{k + 1}\n").encode("utf-8")
        chunk_tails = np.array([built[code] for code in codes.tolist()], dtype=object)
        tails[first:last] = chunk_tails[inverse]
        ms[first:last] = _milliseconds(offsets)
    return ms, tails


class LogStream:
    """A generated log: the CSV data lines (without line ends) of its
    records in time order, formatted :data:`CHUNK_LINES` at a time each time
    the stream is iterated or written.  It holds each record's millisecond
    offset and a pointer to its line tail, one of the few distinct tails of
    its flow; ``len()`` is the number of records."""

    def __init__(self, ms: np.ndarray, tails: np.ndarray) -> None:
        self._ms = ms
        self._tails = tails

    def __len__(self) -> int:
        return len(self._ms)

    def __iter__(self) -> Iterator[str]:
        for chunk in self._chunks():
            yield from (b"".join(line)[:-1].decode("utf-8") for line in zip(*chunk))

    def _chunks(self) -> Iterator[tuple[list[bytes], list[bytes], list[bytes]]]:
        """Each chunk of lines as three lists of bytes, a part of each line
        in each: the date, the clock and the tail, which ends in LF."""
        for start in range(0, len(self._ms), CHUNK_LINES):
            window = slice(start, start + CHUNK_LINES)
            yield *_timestamp_parts(self._ms[window]), self._tails[window].tolist()


def _merged_flows(testbed: TestbedSpec, profile: SynthProfile,
                  silent: Callable[[Dataflow], bool]) -> LogStream:
    """The records of one sub-stream per dataflow that is not ``silent``,
    merged by time; the sort is stable, so ties keep flow order, then
    position in the flow."""
    import numpy as np
    flows = [_generate_flow(flow_index, flow, profile)
             for flow_index, flow in enumerate(testbed.dataflows) if not silent(flow)]
    if not flows:
        return LogStream(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=object))
    ms, tails = (np.concatenate(column) for column in zip(*flows))
    order = np.argsort(ms, kind="stable")
    return LogStream(ms[order], tails[order])


def generate(testbed: TestbedSpec, profile: SynthProfile) -> LogStream:
    """Baseline log stream: one sub-stream per dataflow, merged by time.
    Iterating it yields the CSV data lines (without line ends) of its
    records; ``len()`` is their number."""
    return _merged_flows(testbed, profile, lambda flow: False)


def generate_secured(testbed: TestbedSpec, profile: SynthProfile,
                     controls: ControlProfile) -> LogStream:
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
        self._by_endpoint: dict[str, set[frozenset[str]]] = {}
        for pair in self._pair_stats:
            for endpoint in pair:
                self._by_endpoint.setdefault(endpoint, set()).add(pair)

    def __len__(self) -> int:
        return self._rows

    def pair(self, u: str, v: str) -> Optional[PairStats]:
        return self._pair_stats.get(frozenset((u, v)))

    def merged(self, u: str, v: str) -> Optional[PairStats]:
        """Union of all events touching either endpoint (for inferred links);
        the pairs are added in any order, as :meth:`PairStats.add` only sums
        counts and unions sets."""
        pairs = self._by_endpoint.get(u, set()) | self._by_endpoint.get(v, set())
        if not pairs:
            return None
        merged = PairStats()
        for pair in pairs:
            merged.add(self._pair_stats[pair])
        return merged


def write_log_csv(lines: Iterable[str], path: str | Path) -> None:
    """Write a log CSV: the header, then the lines of a :class:`LogStream`
    or of any iterable of data lines, each ending in LF.  A stream writes
    each chunk of lines as one join of its lines' bytes; other lines are
    joined, encoded and written :data:`CHUNK_LINES` at a time."""
    with open(path, "wb") as file:
        file.write(f"{_HEADER_LINE}\n".encode("utf-8"))
        if isinstance(lines, LogStream):
            for chunk in lines._chunks():
                parts = [b""] * (3 * len(chunk[0]))
                parts[0::3], parts[1::3], parts[2::3] = chunk
                file.write(b"".join(parts))
            return
        pending = iter(lines)
        while chunk := list(islice(pending, CHUNK_LINES)):
            chunk.append("")
            file.write("\n".join(chunk).encode("utf-8"))


def load_log_csv(path: str | Path) -> LogIndex:
    """The per-pair statistics of a log CSV: each distinct row, less its
    timestamp, counted and folded into a :class:`LogIndex`.

    The file is read a line at a time: by :func:`_tail_rows` when that fold
    can read it, and again by ``csv.reader`` when it cannot.  There columns
    are found by name, and a row whose field count differs from the header's
    raises :class:`IngestError` with its number.  A file that is not UTF-8
    raises :class:`IngestError` naming its first line that does not decode.
    """
    rows = _tail_rows(path)
    if rows is None:
        header, records = parse_csv(read_lines(path), path, LOG_CSV_HEADER)
        columns = itemgetter(*(header.index(col) for col in LOG_CSV_HEADER[1:]))
        rows = Counter(map(columns, _checked(path, records, len(header))))
    return LogIndex(rows)


# The fold's pre-scan reads the file this many bytes at a time.
_SCAN_BYTES = 1 << 20


def _tail_rows(path: str | Path) -> Optional[dict[tuple[str, ...], int]]:
    """How often each distinct row, less its timestamp, occurs in the log
    CSV ``path``, or None when only ``csv.reader`` reads the file right: its
    header is not :data:`LOG_CSV_HEADER` in order, a byte of it is a double
    quote or a carriage return, or a data line's text after its first comma
    (its tail) has not seven fields.  A blank line and a line without a
    comma have the empty tail, which has one.

    The tails are counted in C (a ``Counter`` over ``str.partition``), and
    each distinct tail is split once; equal fields of distinct rows share
    one string, and a last line without LF counts with its equals."""
    with open(path, "rb") as file:
        while block := file.read(_SCAN_BYTES):
            if b'"' in block or b"\r" in block:
                return None
    try:
        with open(path, encoding="utf-8", newline="\n") as file:
            if file.readline().removesuffix("\n") != _HEADER_LINE:
                return None
            tails = Counter(map(itemgetter(2), map(str.partition, file, repeat(","))))
    except UnicodeDecodeError:
        raise not_utf8(path) from None
    rows: dict[tuple[str, ...], int] = {}
    fields: dict[str, str] = {}
    for tail, n in tails.items():
        parts = tail.removesuffix("\n").split(",")
        if len(parts) != len(LOG_CSV_HEADER) - 1:
            return None
        row = tuple(map(fields.setdefault, parts, parts))
        rows[row] = rows.get(row, 0) + n
    return rows


def _checked(path: str | Path, rows: Iterable[Sequence[str]], width: int
             ) -> Iterator[Sequence[str]]:
    """``rows``, raising :class:`IngestError` at the first that has not
    ``width`` fields; rows count from 1 after the header, blank lines
    skipped."""
    for number, row in enumerate(rows, start=1):
        if len(row) != width:
            raise IngestError(f"{path}: row {number}: {len(row)} fields, not {width}")
        yield row
