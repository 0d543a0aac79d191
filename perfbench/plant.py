"""Scaled-plant input generator.

Copies the bundled fixture and replicates its production-cell block to N
cells.  The fixture has three cells (A, B, C); cell ``i`` of a scaled plant
is a copy of fixture cell ``i % 3`` and belongs to the cell triple
``i // 3``.  Everything that names a cell is replicated with it:

* the cell and cell_IO zones and their zone-default weakness presets;
* the cell's products and every dataflow touching them (links to the shared
  OT hubs keep pointing at the same hub as in the template cell);
* allowlist pairs of both control profiles;
* the advisories whose CPEs match cell products, with their CWE relations;
* scenarios with id selectors naming cell products.

An item that names several template cells (a scenario targeting cells A and
B, say) is copied once per triple, renamed within that triple, and only for
triples whose cells all exist.  Triple 0 keeps the fixture's names and CVE
ids, so ``cells=3`` reproduces the fixture files byte for byte.
"""

from __future__ import annotations

import csv
import json
import re
import shutil
from io import StringIO
from pathlib import Path

TEMPLATE_CELLS = ("A", "B", "C")

# A cell marker: "CellA" in names and zones, "cella" in CPE product fields.
_CELL_RE = re.compile(r"Cell([ABC])(?![A-Za-z0-9])", re.IGNORECASE)
_CVE_RE = re.compile(r"^CVE-(\d{4})-(\d+)$")

JSON_FILES = ("testbed.json", "advisories.json", "scenarios.json",
              "risk_config.json", "config.json")


def cell_label(index: int) -> str:
    """Spreadsheet-style label: 0 -> A, 25 -> Z, 26 -> AA, ..."""
    label = ""
    index += 1
    while index:
        index, rem = divmod(index - 1, 26)
        label = chr(ord("A") + rem) + label
    return label


def _template_cells(text: str) -> set[int]:
    return {TEMPLATE_CELLS.index(m.group(1).upper()) for m in _CELL_RE.finditer(text)}


def _rename(text: str, triple: int) -> str:
    def sub(m: re.Match) -> str:
        label = cell_label(3 * triple + TEMPLATE_CELLS.index(m.group(1).upper()))
        return m.group(0)[:4] + (label if m.group(1).isupper() else label.lower())
    return _CELL_RE.sub(sub, text)


def _rename_cve(cve_id: str, triple: int) -> str:
    if triple == 0:
        return cve_id
    m = _CVE_RE.match(cve_id)
    if m is None:
        raise ValueError(f"unexpected CVE id {cve_id!r}")
    return f"CVE-{int(m.group(1)) + triple}-{m.group(2)}"


class _Replicator:
    def __init__(self, cells: int) -> None:
        if cells < 1:
            raise ValueError("cells must be >= 1")
        self.cells = cells
        self.triples = (cells + 2) // 3

    def triples_for(self, text: str) -> list[int]:
        """Triples an item whose JSON is ``text`` is copied into; [-1] marks
        an item that names no cell and is kept once, unchanged."""
        used = _template_cells(text)
        if not used:
            return [-1]
        return [q for q in range(self.triples)
                if all(3 * q + t < self.cells for t in used)]

    def expand(self, items: list) -> list:
        return [item if q < 0 else _copy_json(item, q)
                for item in items for q in self.triples_for(json.dumps(item))]


def _copy_json(value, triple: int):
    return json.loads(_rename(json.dumps(value), triple))


def _json_bytes(payload) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


def generate(fixture_dir: Path, out_dir: Path, cells: int, seed: int,
             duration_hours: float | None = None) -> dict:
    """Write a scaled plant into ``out_dir``; return its input sizes."""
    rep = _Replicator(cells)
    src = {name: json.loads((fixture_dir / name).read_text(encoding="utf-8"))
           for name in JSON_FILES}
    out_dir.mkdir(parents=True, exist_ok=True)

    testbed = src["testbed.json"]
    for key in ("zones", "products", "dataflows"):
        testbed[key] = rep.expand(testbed[key])
    for profile in testbed["controlProfiles"].values():
        profile["allowlist"] = rep.expand(profile["allowlist"])

    # Advisories are tied to a cell through their CPEs; the copy in triple q
    # gets a CVE id of its own so that vulnerability nodes stay distinct.
    cve_triples: dict[str, list[int]] = {}

    def copy_advisory(adv: dict, q: int) -> dict:
        new = _copy_json(adv, q)
        new["cveId"] = _rename_cve(adv["cveId"], q)
        return new

    advisories = []
    for adv in src["advisories.json"]:
        triples = rep.triples_for(json.dumps(adv["cpes"]))
        cve_triples[adv["cveId"]] = triples
        advisories.extend(adv if q < 0 else copy_advisory(adv, q) for q in triples)

    scenarios = []
    for sc in src["scenarios.json"]:
        for q in rep.triples_for(json.dumps([sc["source"], sc["target"]])):
            if q <= 0:
                scenarios.append(sc)
                continue
            new = _copy_json(sc, q)
            new["id"] = f"{sc['id']}.{q}"
            new["name"] = f"{sc['name']}.{q}"
            scenarios.append(new)

    risk_cfg = src["risk_config.json"]
    risk_cfg["zoneDefaultWeakness"] = {
        zone if q < 0 else _rename(zone, q): preset
        for zone, preset in risk_cfg["zoneDefaultWeakness"].items()
        for q in rep.triples_for(zone)}

    config = src["config.json"]
    config["seed"] = seed
    if duration_hours is not None:
        config["synthProfile"]["durationHours"] = duration_hours

    for name, payload in (("testbed.json", testbed), ("advisories.json", advisories),
                          ("scenarios.json", scenarios),
                          ("risk_config.json", risk_cfg), ("config.json", config)):
        (out_dir / name).write_bytes(_json_bytes(payload))
    (out_dir / "relation.csv").write_bytes(
        _relations(fixture_dir / "relation.csv", cve_triples))
    for name in ("node.csv", "predictions.csv"):
        shutil.copyfile(fixture_dir / name, out_dir / name)
    return {"products": len(testbed["products"]),
            "flows": len(testbed["dataflows"]),
            "scenarios": len(scenarios),
            "advisories": len(advisories)}


def _relations(path: Path, cve_triples: dict[str, list[int]]) -> bytes:
    with path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0])
    for row in rows[1:]:
        for q in cve_triples.get(row[0], [-1]):
            writer.writerow(row if q < 0 else [_rename_cve(row[0], q)] + row[1:])
    return buf.getvalue().encode("utf-8")

