"""Source hygiene of the package, checked on its syntax trees."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

import icskg
from icskg.logsynth import AUTH_MODES, EVENTS, SECURITY_MODES

MODULES = sorted(Path(icskg.__file__).parent.glob("*.py"))


def imported_names(tree: ast.Module):
    """(bound name, line) of every import in the module but ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def exported_names(tree: ast.Module) -> set[str]:
    """The names listed in the module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= exported_names(tree)
    unused = [f"{path.name}:{line}: {name}"
              for name, line in imported_names(tree) if name not in used]
    assert unused == []


# The functions that may parse JSON text: every JSON document goes through
# read_json, and props_from_json reads the props_json cells of the CSVs.
JSON_READERS = {"read_json", "props_from_json"}


def json_parses(tree: ast.Module):
    """(innermost enclosing function or None, line) of every ``json.load``
    or ``json.loads`` call, and of every import of either from json."""
    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) \
                    and isinstance(child.func.value, ast.Name) \
                    and child.func.value.id == "json" and child.func.attr in ("load", "loads"):
                yield function, child.lineno
            if isinstance(child, ast.ImportFrom) and child.module == "json" \
                    and {alias.name for alias in child.names} & {"load", "loads"}:
                yield None, child.lineno
            yield from visit(child, function)
    return visit(tree, None)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_json_is_parsed_only_by_its_readers(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    stray = [f"{path.name}:{line} in {function}"
             for function, line in json_parses(tree) if function not in JSON_READERS]
    assert stray == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_import_hides_behind_type_checking(path):
    # An import needed only by annotations would hide an import cycle.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    hidden = [f"{path.name}:{line}" for name, line in imported_names(tree)
              if name == "TYPE_CHECKING"]
    assert hidden == []


def test_each_log_word_is_spelled_once():
    # The generator writes the log vocabularies and the fold reads them by
    # the names logsynth binds, so no word is spelled a second time.
    words = [*AUTH_MODES, *SECURITY_MODES, *EVENTS]
    literals = Counter(node.value for path in MODULES
                       for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                       if isinstance(node, ast.Constant) and isinstance(node.value, str))
    assert {word: literals[word] for word in words} == dict.fromkeys(words, 1)
