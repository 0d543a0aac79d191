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
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icskg.cli import RunConfig, default_config_path, main
from icskg.config import BOOLEAN
from icskg.errors import IcskgError, IngestError
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
                                  ("testbed", "testbed"), ("advisories", "advisories")]}


@pytest.mark.parametrize("name", BUILD_INPUTS)
@settings(max_examples=30, deadline=None)
@given(data=st.data(), value=json_values)
def test_build_reads_or_rejects_any_setting(name, data, value):
    key, document = BUILD_INPUTS[name]
    path = data.draw(st.sampled_from(list(key_paths(document))), label="path")
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
        out = work / "out"
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["--config", str(work / "config.json"), "--out", str(out),
                         "build", "--validate-only"])
        assert code in (0, 2)
        assert not out.exists()


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


@settings(max_examples=100, deadline=None)
@given(data=st.data(), value=json_values)
def test_synth_profile_reads_or_rejects_any_setting(data, value):
    paths = [path for path in key_paths(RUN_CONFIG) if path[:1] == ("synthProfile",)]
    path = data.draw(st.sampled_from(paths), label="path")
    with tempfile.TemporaryDirectory() as work:
        config = Path(work) / "config.json"
        config.write_text(substituted(RUN_CONFIG, path, value))
        with contextlib.suppress(IcskgError):
            RunConfig.load(config).profile().validate()


def test_wrong_value_is_quoted_in_bounded_text():
    # Nested past the recursion limit, repr() itself would raise.
    nested = []
    for _ in range(2 * sys.getrecursionlimit()):
        nested = [nested]
    for value in (nested, "x" * 100_000, 10**400):
        with pytest.raises(IngestError, match="^kev must be true or false, got ") as error:
            BOOLEAN(value, "kev")
        assert len(str(error.value)) < 100
