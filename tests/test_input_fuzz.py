"""Every JSON input goes through the typed reader: any JSON value at any key
path of a fixture document is read, or rejected with exit code 2 (an
:class:`IcskgError`), and never ends in a traceback."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icskg.cli import RunConfig, default_config_path, main
from icskg.config import BOOLEAN, ControlOverrides
from icskg.errors import IcskgError, IngestError
from icskg.logsynth import secured_profile
from icskg.scenarios import load_scenarios

FIXTURE = default_config_path().parent
# Strings that stand for JSON text: nested deeper than the parser recurses,
# and an integer of more digits than Python converts from text.
SPLICED = {"\x00deep": "[" * 100_000 + "]" * 100_000, "\x00digits": "1" + "0" * 5000}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([10**400, -10**400, *SPLICED]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6)


def key_paths(document, prefix=()):
    """The path of the document itself and of every value inside it."""
    yield prefix
    items = document.items() if isinstance(document, dict) \
        else enumerate(document) if isinstance(document, list) else ()
    for key, value in items:
        yield from key_paths(value, prefix + (key,))


def substituted(document, path, value):
    """``document`` with ``value`` at ``path``, as JSON text."""
    if not path:
        document = value
    else:
        document = copy.deepcopy(document)
        table = document
        for key in path[:-1]:
            table = table[key]
        table[path[-1]] = value
    text = json.dumps(document)
    for stand_in, spliced in SPLICED.items():
        text = text.replace(json.dumps(stand_in), spliced)
    return text


def fixture_run_config() -> dict:
    raw = json.loads(default_config_path().read_text())
    raw["paths"] = {key: str(FIXTURE / rel) for key, rel in raw["paths"].items()}
    return raw


RUN_CONFIG = fixture_run_config()
# Each document build --validate-only reads: its key in the run config's
# paths (None for the run config itself) and its content.
BUILD_INPUTS = {name: (key, RUN_CONFIG if key is None
                       else json.loads(Path(RUN_CONFIG["paths"][key]).read_text()))
                for name, key in [("config", None), ("riskConfig", "riskConfig"),
                                  ("testbed", "testbed"), ("advisories", "advisories"),
                                  ("scenarios", "scenarios")]}


def validate_only(name, path, value) -> tuple[int, str]:
    """The exit code and stderr of ``build --validate-only`` on the fixture
    with ``value`` at ``path`` of the document ``name``, which writes
    nothing."""
    key, document = BUILD_INPUTS[name]
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        run_config = copy.deepcopy(RUN_CONFIG)
        if key is None:
            text = substituted(document, path, value)
        else:
            run_config["paths"][key] = str(work / f"{key}.json")
            (work / f"{key}.json").write_text(substituted(document, path, value))
            text = json.dumps(run_config)
        (work / "config.json").write_text(text)
        out, stderr = work / "out", io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(["--config", str(work / "config.json"), "--out", str(out),
                         "build", "--validate-only"])
        assert not out.exists()
    return code, stderr.getvalue()


@pytest.mark.parametrize("name", BUILD_INPUTS)
@settings(max_examples=30, deadline=None)
@given(data=st.data(), value=json_values)
def test_build_reads_or_rejects_any_setting(name, data, value):
    path = data.draw(st.sampled_from(list(key_paths(BUILD_INPUTS[name][1]))), label="path")
    assert validate_only(name, path, value)[0] in (0, 2)


CATALOG = json.loads((FIXTURE / "scenarios.json").read_text())


@settings(max_examples=100, deadline=None)
@given(data=st.data(), value=json_values)
def test_scenario_catalog_reads_or_rejects_any_setting(data, value):
    path = data.draw(st.sampled_from(list(key_paths(CATALOG))), label="path")
    with tempfile.TemporaryDirectory() as work:
        catalog = Path(work) / "scenarios.json"
        catalog.write_text(substituted(CATALOG, path, value))
        with contextlib.suppress(IcskgError):
            load_scenarios(catalog)


FIXTURE_CONFIG = RunConfig.load(default_config_path())


@settings(max_examples=100, deadline=None)
@given(data=st.data(), value=json_values)
def test_synth_profile_reads_or_rejects_any_setting(data, value):
    # A profile the reader accepts keeps the rules across its settings, and
    # so does the profile the fixture's secured controls derive from it.
    paths = [path for path in key_paths(RUN_CONFIG) if path[:1] == ("synthProfile",)]
    path = data.draw(st.sampled_from(paths), label="path")
    with tempfile.TemporaryDirectory() as work:
        config = Path(work) / "config.json"
        config.write_text(substituted(RUN_CONFIG, path, value))
        try:
            profile = RunConfig.load(config).profile
        except IcskgError:
            return
    assert profile.broken_rule() is None
    assert secured_profile(profile, FIXTURE_CONFIG.controls).broken_rule() is None


RATES = ("anonFrac", "insecureModeFrac", "certFrac", "misconfigRate", "failedWriteFrac",
         "auditWriteFrac", "failCheckFrac")
# Each bounded setting build --validate-only reads: its document (as in
# BUILD_INPUTS), its key path, its bounds, whether it is an integer, and the
# name its error gives it.
BOUNDED = [
    *[("config", ("synthProfile", key), 0, 1, False, f"synthProfile.{key}") for key in RATES],
    *[("config", ("synthProfile", key), 0, None, False, f"synthProfile.{key}")
      for key in ("durationHours", "perFlowSessionRate")],
    ("config", ("synthProfile", "clientIpPoolSize"), 1, 254, True,
     "synthProfile.clientIpPoolSize"),
    ("config", ("enrichment", "dim"), 1, 4096, True, "enrichment.dim"),
    ("config", ("enrichment", "topK"), 0, None, True, "enrichment.topK"),
    ("config", ("predictionMinConfidence",), 0, 1, False, "predictionMinConfidence"),
    ("riskConfig", ("criticalityDefaults", "PLC"), 0, 10, True, "criticalityDefaults.PLC"),
    ("riskConfig", ("zoneDefaultWeakness", "DMZ", 0), 0, 1, False, "zoneDefaultWeakness.DMZ[0]"),
    *[("riskConfig", ("controlOverrides", f.name), 0, 1, False, f"controlOverrides.{f.name}")
      for f in fields(ControlOverrides)],
    ("testbed", ("products", 0, "criticality"), 0, 10, True,
     "product 'ERP_Server_1': criticality"),
    ("advisories", (0, "epss"), 0, 1, False, "advisory 'CVE-2024-1000': epss"),
    ("advisories", (0, "cvss", "baseScore"), 0, 10, False,
     "advisory 'CVE-2024-1000': cvss.baseScore"),
    ("scenarios", (0, "k"), 1, None, True, "scenario S01: k"),
]


def outside(minimum, maximum, integral):
    """Integers, and unless ``integral`` finite floats, below ``minimum`` or
    above ``maximum``; no maximum bounds the range above."""
    below = st.integers(max_value=minimum - 1)
    if not integral:
        below |= st.floats(max_value=minimum, exclude_max=True, allow_infinity=False)
    if maximum is None:
        return below
    above = st.integers(min_value=maximum + 1)
    if not integral:
        above |= st.floats(min_value=maximum, exclude_min=True, allow_infinity=False)
    return below | above


@pytest.mark.parametrize("name, path, minimum, maximum, integral, setting", BOUNDED,
                         ids=[case[-1] for case in BOUNDED])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_build_rejects_out_of_bounds_setting(name, path, minimum, maximum, integral, setting,
                                             data):
    value = data.draw(outside(minimum, maximum, integral), label="value")
    code, stderr = validate_only(name, path, value)
    assert code == 2
    assert f"error: {setting} must be " in stderr


def test_wrong_value_is_quoted_in_bounded_text():
    # Nested past the recursion limit, repr() itself would raise.
    nested = []
    for _ in range(2 * sys.getrecursionlimit()):
        nested = [nested]
    for value in (nested, "x" * 100_000, 10**400):
        with pytest.raises(IngestError, match="^kev must be true or false, got ") as error:
            BOOLEAN(value, "kev")
        assert len(str(error.value)) < 100
