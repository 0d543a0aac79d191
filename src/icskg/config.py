"""The typed reader of JSON inputs, and the risk-engine configuration.

Every JSON document icskg reads declares its shape once, built from the
shapes here, and is read through it: a value of the wrong shape raises
:class:`IngestError` naming its dotted setting.

Everything tunable about the scoring lives here so that deployments can
recalibrate without code changes: the weakness-score coefficients, the
access-complexity / attack-vector cost encodings, per-asset-class default
criticalities, zone fallback factors, the control profiles and their
overrides, the scoring convention and the prune threshold.
"""

from __future__ import annotations

import re
import reprlib
import sys
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable

from icskg.errors import BadEnum, IngestError
from icskg.graph import PRUNE_THRESHOLD, read_json


_WORD_START = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")
Shape = Callable[..., object]


def shape(describes: str, fits: Callable[[object], bool],
          read: Callable = lambda raw, name, prefix: raw, error: type = IngestError) -> Shape:
    """A shape: ``shape(raw, name)`` reads the parsed JSON value ``raw``, if
    it ``fits``, as ``read(raw, name, prefix)``; any other value raises
    ``error`` worded ``<name> must be <describes>, got <raw>``.  A setting
    inside ``raw`` is named ``prefix`` plus its key (``name.`` by default)."""
    def read_shape(raw, name: str, prefix: str | None = None):
        if not fits(raw):
            # reprlib bounds the text of a long or deeply nested value.
            raise error(f"{name} must be {describes}, got {reprlib.repr(raw)}")
        return read(raw, name, f"{name}." if prefix is None else prefix)
    return read_shape


def _bounded(describes: str, fits: Callable[[object], bool], minimum: float | None,
             maximum: float | None, *read: Callable) -> Shape:
    """A :func:`shape` of the values that ``fits``, of at least ``minimum``
    and at most ``maximum`` where given; a ``maximum`` comes with a
    ``minimum``."""
    bounds = "" if minimum is None else f" of at least {minimum}" if maximum is None \
        else f" from {minimum} to {maximum}"
    return shape(f"{describes}{bounds}", lambda raw: fits(raw)
                 and (minimum is None or raw >= minimum)
                 and (maximum is None or raw <= maximum), *read)


# A parsed JSON value has an exact type: the type of true is bool, not int.
def integer(minimum: int | None = None, maximum: int | None = None) -> Shape:
    """A JSON integer within the bounds given."""
    return _bounded("an integer", lambda raw: type(raw) is int, minimum, maximum)


def number(minimum: float | None = None, maximum: float | None = None) -> Shape:
    """A finite JSON number within the bounds given, read as a float."""
    # NaN fails the comparison, and an integer compares exactly.
    return _bounded("a finite number", lambda raw: type(raw) in (int, float)
                    and abs(raw) <= sys.float_info.max, minimum, maximum,
                    lambda raw, *_: float(raw))


INTEGER = integer()
NUMBER = number()
BOOLEAN = shape("true or false", lambda raw: isinstance(raw, bool))
STRING = shape("a string", lambda raw: isinstance(raw, str))
PATH = shape("a string", lambda raw: isinstance(raw, str), lambda raw, *_: Path(raw))


def one_of(choices: Iterable) -> Shape:
    """One of the strings ``choices``, or of the values of an Enum's
    members, read as that member; any other value raises BadEnum."""
    by_value = {getattr(choice, "value", choice): choice for choice in choices}
    *rest, last = (f'"{value}"' for value in by_value)
    return shape(f"{', '.join(rest)} or {last}",
                 lambda raw: isinstance(raw, str) and raw in by_value,
                 lambda raw, *_: by_value[raw], BadEnum)


def list_of(item: Shape, describes: str = "a list", sizes: range = range(sys.maxsize),
            make: Callable = list) -> Shape:
    """A JSON list whose length is in ``sizes``, element ``i`` read by
    ``item`` and named ``name[i]``, the elements collected by ``make``."""
    return shape(describes, lambda raw: isinstance(raw, list) and len(raw) in sizes,
                 lambda raw, name, _: make(item(x, f"{name}[{i}]") for i, x in enumerate(raw)))


def _require(raw: dict, required: Iterable[str], prefix: str) -> None:
    for key in required:
        if key not in raw:
            raise IngestError(f"{prefix}{key} is required")


def table(value: Shape, required: Iterable[str] = ()) -> Shape:
    """A JSON object with free keys, each value read by ``value``; each
    ``required`` key must be present, checked after the values are read."""
    def read(raw: dict, _, prefix: str):
        values = {key: value(x, prefix + key) for key, x in raw.items()}
        _require(raw, required, prefix)
        return values
    return shape("a JSON object", lambda raw: isinstance(raw, dict), read)


def obj(settings: dict[str, Shape], required: tuple[str, ...] = (), make: Callable = dict,
        closed: bool = False, label: tuple[str, str] | None = None,
        check: Callable[[object], str | None] = lambda value: None) -> Shape:
    """A JSON object with the declared ``settings``: the keys present, each read
    by its shape, become keyword arguments of ``make`` named in snake_case
    (``durationHours`` is ``duration_hours``, ``fAC`` is ``f_ac``).  A
    ``required`` key must be present; other keys are ignored unless
    ``closed``.  With ``label=(key, template)``, an object whose ``key`` is a
    string names its settings ``<template.format(key)>: <setting>``.
    ``check`` states the rule the made value breaks across its settings, or
    None; a broken rule raises ``<name>: <rule>``."""
    attributes = {key: _WORD_START.sub("_", key).lower() for key in settings}

    def read(raw: dict, name: str, prefix: str):
        if label and isinstance(raw.get(label[0]), str):
            prefix = label[1].format(raw[label[0]]) + ": "
        _require(raw, required, prefix)
        unknown = closed and sorted(raw.keys() - settings)
        if unknown:
            raise IngestError(f"{prefix}{unknown[0]} is not one of {', '.join(settings)}")
        value = make(**{attributes[key]: item(raw[key], prefix + key)
                         for key, item in settings.items() if key in raw})
        broken = check(value)
        if broken:
            raise IngestError(f"{name}: {broken}")
        return value
    return shape("a JSON object", lambda raw: isinstance(raw, dict), read)


class Convention(Enum):
    """How the four log-derived factor scores enter controlStrength.

    LITERAL multiplies the raw weakness fractions directly; COMPLEMENT
    (default) multiplies their complements, so that cleaner logs yield a
    controlStrength near 1 and security controls raise it.
    """

    LITERAL = "literal"
    COMPLEMENT = "complement"


# Cost encodings for CVSS access complexity and attack vector categories.
DEFAULT_F_AC = {"Low": 0.0, "High": 0.2}
DEFAULT_F_AV = {"Network": 0.0, "Adjacent": 0.1, "Local": 0.2, "Physical": 0.3}

# Default criticality by ATT&CK-style asset class; overridable per product.
DEFAULT_CRITICALITY = {
    "SafetyPLC": 10,
    "PLC": 9,
    "RTU": 8,
    "IED": 8,
    "Historian": 8,
    "SCADA": 8,
    "HMI": 7,
    "Gateway": 7,
    "Workstation": 5,
    "Sensor": 6,
    "Actuator": 6,
}
FALLBACK_CRITICALITY = 5

# Weakness scores used when a communication pair has no log records at all.
# Keys are zone classes; DMZ-facing links are assumed weaker than OT-internal
# ones.  Values are (accessibility, config hygiene, exploitability, hardening)
# weakness fractions.  A risk config's table must hold both keys: every zone
# without a preset of its own falls back to one of them.
ZONE_DEFAULT_WEAKNESS = {
    "DMZ": (0.08, 0.06, 0.05, 0.10),
    "OT": (0.02, 0.03, 0.02, 0.04),
}


@dataclass
class FactorCoefficients:
    """Coefficients of the four weakness-score formulas.

    accessibility  = min(1, anonFrac + a_insecure*insecureModeFrac + a_ip*distinctClientIps)
    config hygiene = min(1, misconfigRate + c_cert*(1-certFrac) + failCheckFrac)
    exploitability = min(1, e_failed*failedWriteFrac + e_audit*auditWriteFrac + e_access*accessibility)
    hardening      = min(1, h_scale*((1-certFrac) + insecureModeFrac + failCheckFrac))
    """

    a_insecure: float = 0.1
    a_ip: float = 0.001
    c_cert: float = 0.1
    e_failed: float = 0.5
    e_audit: float = 0.5
    e_access: float = 0.1
    h_scale: float = 0.5


@dataclass
class ControlOverrides:
    """Per-control effect on the synthesis profile / recompute inputs.

    Each override is in [0,1] (:data:`RISK_CONFIG` reads it so), and
    combines with the baseline by min, max or scaling, so an enabled control
    can only improve (never worsen) the corresponding factor input.
    """

    anon_frac_cap: float = 0.001        # AccessControl
    cert_frac_floor: float = 0.95       # AccessControl
    insecure_mode_cap: float = 0.001    # ConfigHardening
    misconfig_scale: float = 0.25       # ConfigHardening
    fail_check_scale: float = 0.25      # ConfigHardening
    failed_write_scale: float = 0.5     # IDS
    audit_write_scale: float = 0.5      # IDS
    epss_scale: float = 0.3             # PatchManagement

CONTROL_NAMES = (
    "NetworkSegmentation",
    "PatchManagement",
    "IDS",
    "AccessControl",
    "ConfigHardening",
)


@dataclass(frozen=True)
class ControlProfile:
    """An enabled control set, the cross-zone pairs NetworkSegmentation
    keeps open (in either orientation) and the overrides of the controls."""

    controls: frozenset[str] = frozenset()
    allowlist: frozenset[tuple[str, str]] = frozenset()
    overrides: ControlOverrides = field(default_factory=ControlOverrides)

    def blocks(self, src: str, dst: str, zone_of: Callable[[str], object]) -> bool:
        """Whether NetworkSegmentation cuts the link between ``src`` and
        ``dst``: it crosses zones and neither orientation is allowlisted."""
        return "NetworkSegmentation" in self.controls and zone_of(src) != zone_of(dst) \
            and (src, dst) not in self.allowlist and (dst, src) not in self.allowlist

    @property
    def epss_scale(self) -> float:
        """The factor on every EPSS input: PatchManagement's override, else 1."""
        return self.overrides.epss_scale if "PatchManagement" in self.controls else 1.0


@dataclass
class RiskConfig:
    convention: Convention = Convention.COMPLEMENT
    prune_threshold: float = PRUNE_THRESHOLD
    factor_coefficients: FactorCoefficients = field(default_factory=FactorCoefficients)
    f_ac: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_F_AC))
    f_av: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_F_AV))
    criticality_defaults: dict[str, int] = field(
        default_factory=lambda: dict(DEFAULT_CRITICALITY))
    zone_default_weakness: dict[str, tuple[float, float, float, float]] = field(
        default_factory=lambda: dict(ZONE_DEFAULT_WEAKNESS))
    control_overrides: ControlOverrides = field(default_factory=ControlOverrides)

    def default_criticality(self, asset_class: str) -> int:
        return self.criticality_defaults.get(asset_class, FALLBACK_CRITICALITY)

    def zone_weakness(self, zone: str | None) -> tuple[float, float, float, float]:
        """Fallback weakness preset for a node's zone; unknown zones and no
        zone map to DMZ (the conservative, weaker preset)."""
        if zone in self.zone_default_weakness:
            return self.zone_default_weakness[zone]
        if zone and zone.upper().startswith("OT"):
            return self.zone_default_weakness["OT"]
        return self.zone_default_weakness["DMZ"]

    @classmethod
    def from_json(cls, path: str | Path) -> "RiskConfig":
        """The risk config document at ``path``, read by :data:`RISK_CONFIG`."""
        return RISK_CONFIG(read_json(path), "risk config", "")


RISK_CONFIG = obj({
    "convention": one_of(Convention),
    "pruneThreshold": NUMBER,
    "factorCoefficients": obj({f.name: NUMBER for f in fields(FactorCoefficients)},
                              make=FactorCoefficients, closed=True),
    "fAC": table(NUMBER, DEFAULT_F_AC),
    "fAV": table(NUMBER, DEFAULT_F_AV),
    "criticalityDefaults": table(integer(0, 10)),
    "zoneDefaultWeakness": table(list_of(number(0, 1), "a list of four numbers", range(4, 5),
                                         tuple), ZONE_DEFAULT_WEAKNESS),
    "controlOverrides": obj({f.name: number(0, 1) for f in fields(ControlOverrides)},
                            make=ControlOverrides, closed=True),
}, make=RiskConfig)
