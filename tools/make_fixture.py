#!/usr/bin/env python3
"""Regenerate the bundled synthetic testbed fixture.

Writes testbed.json, advisories.json, node.csv, relation.csv,
predictions.csv, scenarios.json, risk_config.json and config.json into
src/icskg/data/fixture/, through icskg's own writers (``graph.write_csv``
with ``ingest``'s CSV headers, and ``graph.write_json``).  Everything is
deterministic; rerunning produces identical bytes.  The manifest (expected build counts) is produced
separately by running the build stage and freezing its summary.

Topology: a smart-manufacturing plant with an Enterprise zone, a DMZ, an
OT supervisory zone and three parallel production cells (their own zones),
each cell holding PLCs, a safety PLC, robots, an HMI, sensors, actuators,
a quality station and a vision PC.  Per-class CVE loads are calibrated so
that, under the shipped "secured" control profile, backbone links stay
above the 0.05 prune threshold while peripheral and cross-cell links fall
below it.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from icskg.graph import write_csv, write_json  # noqa: E402
from icskg.ingest import NODE_CSV_HEADER, PREDICTION_CSV_HEADER, RELATION_CSV_HEADER  # noqa: E402

FIXTURE_DIR = ROOT / "src" / "icskg" / "data" / "fixture"

CELLS = ["CellA", "CellB", "CellC"]

# name, vendor, assetClass, zone, criticality override (None = class default),
# protocols
PRODUCTS: list[tuple] = []


def _add(name, vendor, asset_class, zone, crit, protocols):
    PRODUCTS.append((name, vendor, asset_class, zone, crit, protocols))


def build_products() -> None:
    # Enterprise
    _add("ERP_Server_1", "Sapphire Systems", "Service", "Enterprise", 6, ["SQL", "HTTP"])
    _add("Email_Gateway_1", "MailFort", "Gateway", "Enterprise", 6, ["HTTP"])
    _add("Eng_Workstation_1", "Dell", "Workstation", "Enterprise", 8, ["SSH", "OPC_UA"])
    _add("Eng_Workstation_2", "Dell", "Workstation", "Enterprise", None, ["SSH"])
    _add("Office_PC_1", "Lenovo", "Workstation", "Enterprise", None, ["HTTP"])
    _add("Office_PC_2", "Lenovo", "Workstation", "Enterprise", None, ["HTTP"])
    _add("Reverse_Proxy_1", "NginxWorks", "Proxy", "Enterprise", 6, ["HTTP"])
    _add("Update_Mirror_1", "Aptly", "UpdateMirror", "Enterprise", 7, ["HTTP"])
    _add("Update_Mirror_2", "Aptly", "UpdateMirror", "Enterprise", 7, ["HTTP"])
    # DMZ
    _add("MQTT_Broker_1", "HiveMesh", "Broker", "DMZ", 8, ["MQTT"])
    _add("MQTT_Broker_2", "HiveMesh", "Broker", "DMZ", 8, ["MQTT"])
    _add("MES_Server_1", "Opcenter", "Service", "DMZ", 8, ["SQL", "HTTP", "MQTT"])
    _add("Web_Services_1", "Opcenter", "Service", "DMZ", 8, ["HTTP"])
    _add("DB_Server_1", "Postgres Industrial", "Database", "DMZ", 9, ["SQL"])
    _add("DB_Server_2", "Postgres Industrial", "Database", "DMZ", 9, ["SQL"])
    _add("Jump_Server_1", "Bastiond", "JumpServer", "DMZ", 8, ["SSH"])
    # OT supervisory
    _add("IIoT_Gateway_1", "Moxatech", "Gateway", "OT", 8, ["MQTT", "OPC_UA"])
    _add("IIoT_Gateway_2", "Moxatech", "Gateway", "OT", 8, ["MQTT", "OPC_UA"])
    _add("SCADA_Server_1", "Vijeot", "SCADA", "OT", None, ["OPC_UA", "Modbus/TCP"])
    _add("SCADA_Server_2", "Vijeot", "SCADA", "OT", None, ["OPC_UA", "Modbus/TCP"])
    _add("Historian_1", "Chronicle OT", "Historian", "OT", None, ["SQL", "OPC_UA"])
    _add("OPC_UA_Server_1", "Unifiedops", "Service", "OT", 8, ["OPC_UA"])
    # Production cells: control zone (PLCs, safety, HMI) and field-I/O zone
    # (robots, actuators, sensors, inspection) per IEC 62443 zoning.
    for cell in CELLS:
        ctrl, io = cell, f"{cell}_IO"
        _add(f"PLC_{cell}_1", "Simatic", "PLC", ctrl, None, ["Modbus/TCP", "PROFINET"])
        _add(f"PLC_{cell}_2", "Simatic", "PLC", ctrl, None, ["Modbus/TCP", "PROFINET"])
        _add(f"Safety_PLC_{cell}", "Simatic", "SafetyPLC", ctrl, None, ["PROFINET"])
        _add(f"Robot_{cell}_1", "Kukon", "Robot", io, 8, ["PROFINET"])
        _add(f"Robot_{cell}_2", "Kukon", "Robot", io, 8, ["PROFINET"])
        _add(f"HMI_{cell}", "Vijeot", "HMI", ctrl, 8, ["OPC_UA", "HTTP"])
        _add(f"Sensor_{cell}_1", "Siftlab", "Sensor", io, None, ["Modbus/TCP", "MQTT"])
        _add(f"Sensor_{cell}_2", "Siftlab", "Sensor", io, None, ["Modbus/TCP", "MQTT"])
        _add(f"Sensor_{cell}_3", "Siftlab", "Sensor", io, None, ["PROFINET"])
        _add(f"Actuator_{cell}_1", "Flowdrive", "Actuator", io, 7, ["PROFINET"])
        _add(f"Actuator_{cell}_2", "Flowdrive", "Actuator", io, 7, ["PROFINET"])
        _add(f"Quality_Station_{cell}", "Metrix QA", "QualityStation", io, 7, ["HTTP"])
        _add(f"Vision_PC_{cell}", "Lenovo", "Workstation", io, None, ["HTTP"])


def scada_of(cell: str) -> str:
    return "SCADA_Server_2" if cell == "CellC" else "SCADA_Server_1"


def gateway_of(cell: str) -> str:
    return "IIoT_Gateway_2" if cell == "CellC" else "IIoT_Gateway_1"


def build_dataflows() -> list[tuple[str, str, str]]:
    flows: list[tuple[str, str, str]] = []
    # Enterprise
    flows += [
        ("Office_PC_1", "ERP_Server_1", "HTTP"),
        ("Office_PC_2", "ERP_Server_1", "HTTP"),
        ("Office_PC_1", "Web_Services_1", "HTTP"),
        ("Email_Gateway_1", "Office_PC_1", "HTTP"),
        ("Email_Gateway_1", "Office_PC_2", "HTTP"),
        ("Email_Gateway_1", "Eng_Workstation_1", "HTTP"),
        ("Email_Gateway_1", "Eng_Workstation_2", "HTTP"),
        ("Eng_Workstation_1", "Jump_Server_1", "SSH"),
        ("Eng_Workstation_2", "Jump_Server_1", "SSH"),
        ("Eng_Workstation_1", "SCADA_Server_1", "OPC_UA"),
        ("Eng_Workstation_2", "SCADA_Server_2", "OPC_UA"),
        ("ERP_Server_1", "MES_Server_1", "SQL"),
        ("ERP_Server_1", "Web_Services_1", "HTTP"),
        ("Reverse_Proxy_1", "Web_Services_1", "HTTP"),
        ("Reverse_Proxy_1", "MES_Server_1", "HTTP"),
        ("Update_Mirror_1", "IIoT_Gateway_1", "HTTP"),
        ("Update_Mirror_2", "IIoT_Gateway_2", "HTTP"),
        ("Update_Mirror_1", "Jump_Server_1", "HTTP"),
        ("Update_Mirror_2", "Jump_Server_1", "HTTP"),
    ]
    # DMZ
    flows += [
        ("MQTT_Broker_1", "MES_Server_1", "MQTT"),
        ("MQTT_Broker_2", "MES_Server_1", "MQTT"),
        ("MQTT_Broker_1", "Web_Services_1", "MQTT"),
        ("MES_Server_1", "DB_Server_1", "SQL"),
        ("MES_Server_1", "DB_Server_2", "SQL"),
        ("MES_Server_1", "Web_Services_1", "HTTP"),
        ("Web_Services_1", "DB_Server_1", "SQL"),
        ("Web_Services_1", "DB_Server_2", "SQL"),
        ("Jump_Server_1", "MES_Server_1", "SSH"),
        ("Jump_Server_1", "SCADA_Server_1", "SSH"),
        ("Jump_Server_1", "IIoT_Gateway_1", "SSH"),
        ("Historian_1", "DB_Server_1", "SQL"),
        ("Historian_1", "DB_Server_2", "SQL"),
    ]
    # OT supervisory
    flows += [
        ("IIoT_Gateway_1", "MQTT_Broker_1", "MQTT"),
        ("IIoT_Gateway_2", "MQTT_Broker_2", "MQTT"),
        ("IIoT_Gateway_1", "SCADA_Server_1", "OPC_UA"),
        ("IIoT_Gateway_2", "SCADA_Server_2", "OPC_UA"),
        ("IIoT_Gateway_1", "SCADA_Server_2", "OPC_UA"),
        ("IIoT_Gateway_2", "SCADA_Server_1", "OPC_UA"),
        ("IIoT_Gateway_1", "OPC_UA_Server_1", "OPC_UA"),
        ("OPC_UA_Server_1", "SCADA_Server_1", "OPC_UA"),
        ("OPC_UA_Server_1", "SCADA_Server_2", "OPC_UA"),
        ("SCADA_Server_1", "SCADA_Server_2", "OPC_UA"),
        ("SCADA_Server_1", "Historian_1", "SQL"),
        ("SCADA_Server_2", "Historian_1", "SQL"),
    ]
    # Cells
    for cell in CELLS:
        scada = scada_of(cell)
        gw = gateway_of(cell)
        flows += [
            (scada, f"PLC_{cell}_1", "Modbus/TCP"),
            (scada, f"HMI_{cell}", "OPC_UA"),
            (f"HMI_{cell}", f"PLC_{cell}_1", "OPC_UA"),
            (f"PLC_{cell}_1", f"Robot_{cell}_1", "PROFINET"),
            (f"PLC_{cell}_1", f"Robot_{cell}_2", "PROFINET"),
            (f"PLC_{cell}_2", f"Actuator_{cell}_1", "PROFINET"),
            (f"PLC_{cell}_2", f"Actuator_{cell}_2", "PROFINET"),
            (f"Safety_PLC_{cell}", f"PLC_{cell}_1", "PROFINET"),
            (f"Safety_PLC_{cell}", f"PLC_{cell}_2", "PROFINET"),
            (f"Sensor_{cell}_1", f"PLC_{cell}_1", "Modbus/TCP"),
            (f"Sensor_{cell}_2", f"PLC_{cell}_2", "Modbus/TCP"),
            (f"Sensor_{cell}_3", f"Safety_PLC_{cell}", "PROFINET"),
            (f"Sensor_{cell}_1", gw, "MQTT"),
            (f"Sensor_{cell}_2", gw, "MQTT"),
            (f"Sensor_{cell}_3", gw, "MQTT"),
            (f"Quality_Station_{cell}", f"HMI_{cell}", "HTTP"),
            (f"Quality_Station_{cell}", "MES_Server_1", "HTTP"),
            (f"Vision_PC_{cell}", f"Quality_Station_{cell}", "HTTP"),
            (f"Vision_PC_{cell}", "MES_Server_1", "HTTP"),
        ]
    return flows


# Sanctioned cross-zone conduits that NetworkSegmentation keeps open: the
# jump-server path into OT, the historian export, the public web path, the
# HMI conduit into each cell, and each cell's enumerated field-device flows.
ALLOWLIST = [
    ["Eng_Workstation_1", "Jump_Server_1"],
    ["Update_Mirror_1", "Jump_Server_1"],
    ["Reverse_Proxy_1", "Web_Services_1"],
    ["Jump_Server_1", "SCADA_Server_1"],
    ["Historian_1", "DB_Server_1"],
    ["SCADA_Server_1", "HMI_CellA"],
    ["SCADA_Server_1", "HMI_CellB"],
    ["SCADA_Server_2", "HMI_CellC"],
] + [
    pair
    for cell in CELLS
    for pair in (
        [f"PLC_{cell}_1", f"Robot_{cell}_1"],
        [f"PLC_{cell}_1", f"Robot_{cell}_2"],
        [f"PLC_{cell}_2", f"Actuator_{cell}_1"],
        [f"PLC_{cell}_2", f"Actuator_{cell}_2"],
        [f"Sensor_{cell}_1", f"PLC_{cell}_1"],
        [f"Sensor_{cell}_2", f"PLC_{cell}_2"],
        [f"Sensor_{cell}_3", f"Safety_PLC_{cell}"],
        [f"Quality_Station_{cell}", f"HMI_{cell}"],
    )
]

# Per-class EPSS pairs; aggregated likelihood E = 1 - (1-e1)(1-e2) is
# calibrated against the secured-profile prune threshold (see module doc).
CLASS_EPSS: dict[str, tuple[float, float] | None] = {
    "SafetyPLC": (0.70, 0.75),
    "PLC": (0.60, 0.75),
    "SCADA": (0.60, 0.625),
    "Historian": (0.50, 0.60),
    "Database": (0.50, 0.50),
    "Broker": (0.45, 0.60),
    "JumpServer": (0.50, 0.60),
    "HMI": (0.50, 0.60),
    "Robot": (0.50, 0.60),
    "Actuator": (0.75, 0.70),
    "Sensor": (0.50, 0.50),
    "QualityStation": (0.30, 0.36),
    "UpdateMirror": (0.30, 0.43),
    "Proxy": (0.30, 0.43),
}

# Some products need values off their class default.
PRODUCT_EPSS: dict[str, tuple[float, float] | None] = {
    "ERP_Server_1": (0.30, 0.43),
    "Email_Gateway_1": (0.25, 0.40),
    "IIoT_Gateway_1": (0.50, 0.60),
    "IIoT_Gateway_2": (0.50, 0.60),
    "MES_Server_1": (0.50, 0.60),
    "Web_Services_1": (0.50, 0.60),
    "OPC_UA_Server_1": (0.50, 0.60),
    "Eng_Workstation_1": (0.50, 0.60),
    "Eng_Workstation_2": (0.50, 0.60),
    "Office_PC_1": (0.20, 0.125),
    "Office_PC_2": (0.20, 0.125),
    "Vision_PC_CellA": None,
    "Vision_PC_CellB": None,
    "Vision_PC_CellC": None,
}

CWES = [
    ("CWE-20", "Improper Input Validation"),
    ("CWE-79", "Cross-site Scripting"),
    ("CWE-89", "SQL Injection"),
    ("CWE-119", "Buffer Overflow"),
    ("CWE-284", "Improper Access Control"),
    ("CWE-306", "Missing Authentication"),
    ("CWE-352", "Cross-Site Request Forgery"),
    ("CWE-416", "Use After Free"),
    ("CWE-502", "Deserialization of Untrusted Data"),
    ("CWE-522", "Insufficiently Protected Credentials"),
    ("CWE-787", "Out-of-bounds Write"),
    ("CWE-798", "Hard-coded Credentials"),
]
CAPECS = [
    ("CAPEC-66", "SQL Injection"),
    ("CAPEC-94", "Adversary in the Middle"),
    ("CAPEC-112", "Brute Force"),
    ("CAPEC-125", "Flooding"),
    ("CAPEC-148", "Content Spoofing"),
    ("CAPEC-180", "Exploiting Incorrectly Configured Access Control"),
    ("CAPEC-248", "Command Injection"),
    ("CAPEC-640", "Inclusion of Code in Existing Process"),
]
TECHNIQUES = [
    ("T0812", "Default Credentials"),
    ("T0814", "Denial of Service"),
    ("T0819", "Exploit Public-Facing Application"),
    ("T0831", "Manipulation of Control"),
    ("T0843", "Program Download"),
    ("T0856", "Spoof Reporting Message"),
    ("T0859", "Valid Accounts"),
    ("T0866", "Exploitation of Remote Services"),
    ("T0869", "Standard Application Layer Protocol"),
    ("T0886", "Remote Services"),
]
TACTICS = [
    ("TA0108", "Initial Access"),
    ("TA0104", "Execution"),
    ("TA0109", "Lateral Movement"),
    ("TA0110", "Persistence"),
    ("TA0103", "Evasion"),
    ("TA0106", "Impair Process Control"),
]
MITIGATIONS = [
    ("M0801", "Access Management"),
    ("M0807", "Network Allowlists"),
    ("M0930", "Network Segmentation"),
    ("M0947", "Audit"),
]

AC_CYCLE = ["Low", "Low", "High", "Low", "High"]
AV_CYCLE = ["Network", "Network", "Adjacent", "Local", "Network", "Adjacent"]
BASE_CYCLE = [7.5, 8.1, 6.4, 9.0, 5.3, 7.2, 8.8, 4.9]


def build_advisories() -> list[dict]:
    advisories = []
    counter = 1000
    for name, vendor, asset_class, _, _, _ in PRODUCTS:
        epss_pair = PRODUCT_EPSS.get(name, CLASS_EPSS.get(asset_class))
        if epss_pair is None:
            continue
        cpe = f"cpe:2.3:h:{vendor.lower().replace(' ', '_')}:{name.lower()}"
        for epss in epss_pair:
            cve_id = f"CVE-2024-{counter}"
            idx = counter - 1000
            advisories.append({
                "cveId": cve_id,
                "description": f"A flaw in {vendor} {name} firmware allows "
                               f"remote attackers to disrupt process control.",
                "status": "ACTIVE",
                "epss": epss,
                "kev": idx % 11 == 0,
                "cvss": {
                    "baseScore": BASE_CYCLE[idx % len(BASE_CYCLE)],
                    "accessComplexity": AC_CYCLE[idx % len(AC_CYCLE)],
                    "attackVector": AV_CYCLE[idx % len(AV_CYCLE)],
                },
                "vendorStatements": [],
                "cpes": [cpe],
            })
            counter += 1
    # Entries that preprocessing must drop, plus one with noisy text.
    advisories.append({
        "cveId": "CVE-2024-9001",
        "description": "Withdrawn advisory.",
        "status": "REJECTED",
        "epss": 0.9,
        "kev": False,
        "cvss": {"baseScore": 9.8, "accessComplexity": "Low", "attackVector": "Network"},
        "vendorStatements": [],
        "cpes": ["cpe:2.3:h:simatic:plc_cella_1"],
    })
    advisories.append({
        "cveId": "CVE-2024-9002",
        "description": "Duplicate of an earlier record.",
        "status": "RESOLVED",
        "epss": 0.4,
        "kev": False,
        "cvss": {"baseScore": 5.0, "accessComplexity": "Low", "attackVector": "Network"},
        "vendorStatements": [],
        "cpes": ["cpe:2.3:h:vijeot:scada_server_1"],
    })
    advisories[0]["description"] = ("A flaw in Sapphire Systems ERP_Server_1 "
                                    "allows remote\tattackers  to read data.")
    advisories[0]["vendorStatements"] = [
        "Customers running release 11.2 or later are not affected."]
    return advisories


def build_node_csv() -> bytes:
    rows = []
    for kind, entries in (("Weakness", CWES), ("AttackPattern", CAPECS),
                          ("Technique", TECHNIQUES), ("Tactic", TACTICS),
                          ("Mitigation", MITIGATIONS)):
        rows += [[node_id, kind, name, "", "", "{}"] for node_id, name in entries]
    return write_csv(NODE_CSV_HEADER, rows)


def build_relation_csv(advisories: list[dict]) -> bytes:
    rows = []
    active = [a["cveId"] for a in advisories if a["status"] == "ACTIVE"]
    for i, cve_id in enumerate(active):
        rows.append([cve_id, CWES[i % len(CWES)][0], "HAS_CWE", "{}"])
    for i, (cwe_id, _) in enumerate(CWES):
        rows.append([cwe_id, CAPECS[i % len(CAPECS)][0], "HAS_CAPEC", "{}"])
        rows.append([cwe_id, MITIGATIONS[i % len(MITIGATIONS)][0], "MITIGATED_BY", "{}"])
    for i, (capec_id, _) in enumerate(CAPECS):
        rows.append([capec_id, TECHNIQUES[i % len(TECHNIQUES)][0], "HAS_TECHNIQUE", "{}"])
        rows.append([capec_id, TECHNIQUES[(i + 3) % len(TECHNIQUES)][0],
                     "HAS_TECHNIQUE", "{}"])
    for i, (tech_id, _) in enumerate(TECHNIQUES):
        rows.append([tech_id, TACTICS[i % len(TACTICS)][0], "SUGGESTED_TACTIC", "{}"])
    return write_csv(RELATION_CSV_HEADER, rows)


def build_predictions_csv(advisories: list[dict]) -> bytes:
    active = [a["cveId"] for a in advisories if a["status"] == "ACTIVE"]
    return write_csv(PREDICTION_CSV_HEADER, [
        (active[5], CWES[7][0], "HAS_POSSIBLE_CWE", 0.91),
        (active[12], CWES[2][0], "HAS_POSSIBLE_CWE", 0.84),
        (active[20], CWES[9][0], "HAS_POSSIBLE_CWE", 0.42),
        (CAPECS[1][0], TECHNIQUES[7][0], "HAS_POSSIBLE_TECHNIQUE", 0.88),
        (CAPECS[4][0], TECHNIQUES[5][0], "HAS_POSSIBLE_TECHNIQUE", 0.61),
        (CAPECS[6][0], TECHNIQUES[2][0], "HAS_POSSIBLE_TECHNIQUE", 0.35),
        (TECHNIQUES[3][0], TACTICS[5][0], "SUGGESTED_TACTIC", 0.93),
        (TECHNIQUES[8][0], TACTICS[2][0], "SUGGESTED_TACTIC", 0.58),
    ])


def build_scenarios() -> list[dict]:
    def sel(by, *values):
        return {"by": by, "values": list(values)}

    scenarios = [
        {"id": "S01", "name": "mqtt-broker-to-plc",
         "source": sel("class", "Broker"), "target": sel("class", "PLC")},
        {"id": "S02", "name": "quality-station-to-hmi",
         "source": sel("id", "Quality_Station_CellA"), "target": sel("class", "HMI")},
        {"id": "S03", "name": "safety-plc-to-robot-and-sensor",
         "source": sel("id", "Safety_PLC_CellA"),
         "target": sel("id", "Robot_CellA_1", "Robot_CellB_1",
                       "Sensor_CellA_1", "Sensor_CellB_1")},
        {"id": "S04", "name": "safety-plc-to-actuator",
         "source": sel("id", "Safety_PLC_CellB"), "target": sel("class", "Actuator")},
        {"id": "S05", "name": "reverse-proxy-to-db",
         "source": sel("id", "Reverse_Proxy_1"), "target": sel("class", "Database")},
        {"id": "S06", "name": "email-gateway-to-db",
         "source": sel("id", "Email_Gateway_1"), "target": sel("class", "Database")},
        {"id": "S07", "name": "jump-server-to-plc",
         "source": sel("id", "Jump_Server_1"), "target": sel("class", "PLC")},
        {"id": "S08", "name": "rogue-sensor-injection",
         "source": sel("id", "Sensor_CellB_3"), "target": sel("class", "SCADA")},
        {"id": "S09", "name": "sensor-to-robot-and-actuator",
         "source": sel("id", "Sensor_CellA_1"),
         "target": sel("id", "Robot_CellA_1", "Robot_CellA_2", "Actuator_CellA_1",
                       "Actuator_CellA_2", "Robot_CellB_1", "Actuator_CellB_1")},
        {"id": "S10", "name": "update-mirrors-to-plc",
         "source": sel("class", "UpdateMirror"),
         "target": sel("id", "PLC_CellA_1", "PLC_CellB_1", "PLC_CellC_1")},
        {"id": "S11", "name": "jump-server-to-service",
         "source": sel("id", "Jump_Server_1"), "target": sel("class", "Service")},
        {"id": "S12", "name": "scada-to-plc",
         "source": sel("id", "SCADA_Server_1"), "target": sel("class", "PLC")},
        {"id": "S13", "name": "actuator-to-robot",
         "source": sel("id", "Actuator_CellA_1"), "target": sel("class", "Robot")},
        {"id": "S14", "name": "sensor-to-db",
         "source": sel("id", "Sensor_CellC_2"), "target": sel("class", "Database")},
        {"id": "S15", "name": "workstation-and-scada-to-db",
         "source": sel("id", "Eng_Workstation_1", "SCADA_Server_1"),
         "target": sel("class", "Database")},
    ]
    for s in scenarios:
        s["k"] = 20
        s["policy"] = "Hop"
    return scenarios


def build_risk_config() -> dict:
    return {
        "convention": "complement",
        "pruneThreshold": 0.05,
        "factorCoefficients": {
            "a_insecure": 0.1, "a_ip": 0.001, "c_cert": 0.1,
            "e_failed": 0.5, "e_audit": 0.5, "e_access": 0.1, "h_scale": 0.5,
        },
        "fAC": {"Low": 0.0, "High": 0.2},
        "fAV": {"Network": 0.0, "Adjacent": 0.1, "Local": 0.2, "Physical": 0.3},
        "criticalityDefaults": {
            "SafetyPLC": 10, "PLC": 9, "RTU": 8, "IED": 8, "Historian": 8,
            "SCADA": 8, "HMI": 7, "Gateway": 7, "Workstation": 5,
            "Sensor": 6, "Actuator": 6,
        },
        "zoneDefaultWeakness": {
            "DMZ": [0.08, 0.06, 0.05, 0.10],
            "Enterprise": [0.08, 0.06, 0.05, 0.10],
            "OT": [0.02, 0.03, 0.02, 0.04],
            **{zone: [0.02, 0.03, 0.02, 0.04]
               for cell in CELLS for zone in (cell, f"{cell}_IO")},
        },
        "controlOverrides": {
            "anon_frac_cap": 0.002,
            "cert_frac_floor": 0.92,
            "insecure_mode_cap": 0.002,
            "misconfig_scale": 0.5,
            "fail_check_scale": 0.5,
            "failed_write_scale": 0.6,
            "audit_write_scale": 0.6,
            "epss_scale": 0.3,
        },
    }


def build_config() -> dict:
    return {
        "paths": {
            "testbed": "testbed.json",
            "advisories": "advisories.json",
            "nodes": "node.csv",
            "relations": "relation.csv",
            "predictions": "predictions.csv",
            "scenarios": "scenarios.json",
            "riskConfig": "risk_config.json",
        },
        "seed": 42,
        "convention": "complement",
        "controlProfile": "secured",
        "predictionMinConfidence": 0.5,
        "synthProfile": {
            "durationHours": 8.0,
            "perFlowSessionRate": 50.0,
            "anonFrac": 0.03,
            "insecureModeFrac": 0.005,
            "certFrac": 0.90,
            "misconfigRate": 0.02,
            "failedWriteFrac": 0.05,
            "auditWriteFrac": 0.01,
            "failCheckFrac": 0.01,
            "clientIpPoolSize": 10,
        },
        "enrichment": {"dim": 128, "iterationWeights": [0.0, 1.0, 1.0], "topK": 5},
    }


def main() -> int:
    build_products()
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    testbed = {
        "zones": [
            {"name": "Enterprise", "purdueLevel": 4},
            {"name": "DMZ", "purdueLevel": 3.5},
            {"name": "OT", "purdueLevel": 3},
            *({"name": cell, "purdueLevel": 1} for cell in CELLS),
            *({"name": f"{cell}_IO", "purdueLevel": 0} for cell in CELLS),
        ],
        "products": [
            {"name": name, "vendor": vendor, "assetClass": asset_class,
             "zone": zone, "protocols": protocols,
             **({"criticality": crit} if crit is not None else {})}
            for name, vendor, asset_class, zone, crit, protocols in PRODUCTS
        ],
        "dataflows": [
            {"src": src, "dst": dst, "protocol": protocol}
            for src, dst, protocol in build_dataflows()
        ],
        "controlProfiles": {
            "secured": {
                "controls": ["NetworkSegmentation", "AccessControl",
                             "ConfigHardening", "IDS"],
                "allowlist": ALLOWLIST,
            },
            "hardened": {
                "controls": ["NetworkSegmentation", "AccessControl",
                             "ConfigHardening", "IDS", "PatchManagement"],
                "allowlist": ALLOWLIST,
            },
        },
        "cpeOverrides": {},
    }
    advisories = build_advisories()

    def dump(name: str, payload) -> None:
        path = FIXTURE_DIR / name
        path.write_bytes(payload if isinstance(payload, bytes) else write_json(payload))
        print(f"wrote {path}")

    dump("testbed.json", testbed)
    dump("advisories.json", advisories)
    dump("node.csv", build_node_csv())
    dump("relation.csv", build_relation_csv(advisories))
    dump("predictions.csv", build_predictions_csv(advisories))
    dump("scenarios.json", build_scenarios())
    dump("risk_config.json", build_risk_config())
    dump("config.json", build_config())
    print(f"{len(PRODUCTS)} products, {len(build_dataflows())} dataflows, "
          f"{len(advisories)} advisories")
    return 0


if __name__ == "__main__":
    sys.exit(main())
