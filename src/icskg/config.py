"""Risk-engine configuration: factor coefficients, cost encodings, defaults.

Everything tunable about the scoring lives here so that deployments can
recalibrate without code changes: the weakness-score coefficients, the
access-complexity / attack-vector cost encodings, per-asset-class default
criticalities, zone fallback factors, per-control overrides, the scoring
convention and the prune threshold.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from icskg.errors import IcskgError


def json_int(name: str, raw, minimum: int | None = None) -> int:
    """``raw`` if it is a JSON integer (a boolean or a float is not one) of
    at least ``minimum``; otherwise :class:`IcskgError` naming ``name``."""
    if isinstance(raw, bool) or not isinstance(raw, int) \
            or (minimum is not None and raw < minimum):
        least = "" if minimum is None else f" of at least {minimum}"
        raise IcskgError(f"{name} must be an integer{least}, got {raw!r}")
    return raw


def json_number(name: str, raw) -> float:
    """``raw`` as a float if it is a finite JSON number (an integer or a
    float, not a boolean); otherwise :class:`IcskgError` naming ``name``."""
    # NaN fails the comparison, and an integer compares exactly.
    if isinstance(raw, bool) or not isinstance(raw, (int, float)) \
            or not abs(raw) <= sys.float_info.max:
        raise IcskgError(f"{name} must be a finite number, got {raw!r}")
    return float(raw)


def json_object(name: str, raw) -> dict:
    """``raw`` if it is a JSON object; otherwise :class:`IcskgError` naming
    ``name``."""
    if not isinstance(raw, dict):
        raise IcskgError(f"{name} must be a JSON object, got {raw!r}")
    return raw


class Convention(Enum):
    """How the four log-derived factor scores enter controlStrength.

    LITERAL multiplies the raw weakness fractions directly; COMPLEMENT
    (default) multiplies their complements, so that cleaner logs yield a
    controlStrength near 1 and security controls raise it.
    """

    LITERAL = "literal"
    COMPLEMENT = "complement"

    @classmethod
    def from_setting(cls, name: str, raw) -> "Convention":
        """The convention ``raw`` names, ``"literal"`` or ``"complement"``;
        any other value raises :class:`IcskgError` naming ``name``."""
        for convention in cls:
            if raw == convention.value:
                return convention
        raise IcskgError(f'{name} must be "literal" or "complement", got {raw!r}')


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
# weakness fractions.
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

    Rates combine with the baseline via min/max so an enabled control can
    only improve (never worsen) the corresponding factor input.
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


@dataclass
class RiskConfig:
    convention: Convention = Convention.COMPLEMENT
    prune_threshold: float = 0.05
    coefficients: FactorCoefficients = field(default_factory=FactorCoefficients)
    f_ac: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_F_AC))
    f_av: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_F_AV))
    criticality_defaults: dict[str, int] = field(
        default_factory=lambda: dict(DEFAULT_CRITICALITY))
    zone_default_weakness: dict[str, tuple[float, float, float, float]] = field(
        default_factory=lambda: dict(ZONE_DEFAULT_WEAKNESS))
    control_overrides: ControlOverrides = field(default_factory=ControlOverrides)

    def default_criticality(self, asset_class: str) -> int:
        return self.criticality_defaults.get(asset_class, FALLBACK_CRITICALITY)

    def zone_weakness(self, zone: str) -> tuple[float, float, float, float]:
        """Fallback weakness preset for a zone; unknown zones map to DMZ
        (the conservative, weaker preset)."""
        if zone in self.zone_default_weakness:
            return self.zone_default_weakness[zone]
        if zone.upper().startswith("OT"):
            return self.zone_default_weakness["OT"]
        return self.zone_default_weakness["DMZ"]

    @classmethod
    def from_json(cls, path: str | Path) -> "RiskConfig":
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "RiskConfig":
        """The settings of a risk config document; a value of the wrong JSON
        type or shape raises :class:`IcskgError` naming its setting."""
        raw = json_object("riskConfig", raw)
        cfg = cls()
        if "convention" in raw:
            cfg.convention = Convention.from_setting("convention", raw["convention"])
        if "pruneThreshold" in raw:
            cfg.prune_threshold = json_number("pruneThreshold", raw["pruneThreshold"])
        coeffs = json_object("factorCoefficients", raw.get("factorCoefficients", {}))
        for name, value in coeffs.items():
            if not hasattr(cfg.coefficients, name):
                raise KeyError(f"unknown factor coefficient {name!r}")
            setattr(cfg.coefficients, name, json_number(f"factorCoefficients.{name}", value))
        if "fAC" in raw:
            cfg.f_ac = {k: json_number(f"fAC.{k}", v)
                        for k, v in json_object("fAC", raw["fAC"]).items()}
        if "fAV" in raw:
            cfg.f_av = {k: json_number(f"fAV.{k}", v)
                        for k, v in json_object("fAV", raw["fAV"]).items()}
        if "criticalityDefaults" in raw:
            table = json_object("criticalityDefaults", raw["criticalityDefaults"])
            cfg.criticality_defaults = {k: json_int(f"criticalityDefaults.{k}", v)
                                        for k, v in table.items()}
        if "zoneDefaultWeakness" in raw:
            cfg.zone_default_weakness = {}
            table = json_object("zoneDefaultWeakness", raw["zoneDefaultWeakness"])
            for zone, values in table.items():
                name = f"zoneDefaultWeakness.{zone}"
                if not isinstance(values, list) or len(values) != 4:
                    raise IcskgError(f"{name} must be a list of four numbers, got {values!r}")
                cfg.zone_default_weakness[zone] = tuple(json_number(name, x) for x in values)
        overrides = json_object("controlOverrides", raw.get("controlOverrides", {}))
        for name, value in overrides.items():
            if not hasattr(cfg.control_overrides, name):
                raise KeyError(f"unknown control override {name!r}")
            setattr(cfg.control_overrides, name, json_number(f"controlOverrides.{name}", value))
        return cfg
