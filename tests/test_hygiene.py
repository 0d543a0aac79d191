"""Source hygiene of the package, checked on its syntax trees."""

from __future__ import annotations

import ast
import inspect
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import icskg
from icskg import cli, reports
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


def test_each_public_reports_function_renders_one_file_in_the_cli():
    # A benchmark tracer counts each call of a public function of
    # icskg.reports as one rendered file; a public helper would count its
    # bytes twice.
    public = {name for name, value in vars(reports).items()
              if inspect.isfunction(value) and not name.startswith("_")
              and value.__module__ == reports.__name__}
    rendered = set()
    for node in ast.walk(ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "_write":
            data = node.args[1]
            if isinstance(data, ast.Call) and isinstance(data.func, ast.Attribute) \
                    and isinstance(data.func.value, ast.Name) and data.func.value.id == "reports":
                rendered.add(data.func.attr)
    assert rendered == public
    calls = {node.func.id
             for node in ast.walk(ast.parse(Path(reports.__file__).read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert calls & public == set()


def run_fresh(code: str, *args: str):
    """The value of the last line that ``code`` prints, run with ``args`` in
    a fresh interpreter: this suite's own process has numpy loaded."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(icskg.__file__).parent.parent), os.environ.get("PYTHONPATH", "")])}
    stdout = subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                            capture_output=True, text=True).stdout
    return ast.literal_eval(stdout.splitlines()[-1])


def test_importing_the_cli_loads_no_network_modules():
    # xml.sax, which only the graphml export needs, pulls in urllib.request,
    # http, email and ssl: a cost every command would pay at start-up.
    # (urllib itself stays: pathlib loads urllib.parse.)
    heavy = ["xml.sax", "urllib.request", "http.client", "email", "ssl"]
    code = f"import sys, icskg.cli; print([m for m in {heavy!r} if m in sys.modules])"
    assert run_fresh(code) == []


def test_importing_the_cli_loads_no_numpy():
    # Only synth-logs and enrich use numpy, which takes 50-90 ms to load.
    assert run_fresh("import sys, icskg.cli; print('numpy' in sys.modules)") is False


def test_importing_the_cli_loads_no_statistics():
    # statistics loads fractions and decimal, 3-4 ms of every command's
    # start-up, for the one standard deviation scenarios computes.
    assert run_fresh("import sys, icskg.cli; print('statistics' in sys.modules)") is False


# Runs each argv of the list in argv[1] through icskg.cli.main, in one
# interpreter, and prints each one's command, exit code and whether numpy
# is loaded after it.
RUN_COMMANDS = """
import ast, sys
from icskg.cli import main
print([(argv[2], main(argv), "numpy" in sys.modules) for argv in ast.literal_eval(sys.argv[1])])
"""


def test_only_synth_logs_and_enrich_load_numpy(pipeline_out, tmp_path):
    run = tmp_path / "run"
    shutil.copytree(pipeline_out, run)
    commands = ["controls", "simulate", "report", "export", "annotate"]
    argvs = [["--out", str(run), command] for command in commands]
    argvs.append(["--out", str(tmp_path / "fresh"), "build"])
    assert run_fresh(RUN_COMMANDS, repr(argvs)) == [
        (command, 0, False) for command in [*commands, "build"]]


@pytest.mark.parametrize("command", ["synth-logs", "enrich"])
def test_synth_logs_and_enrich_load_numpy(pipeline_out, tmp_path, command):
    run = tmp_path / "run"
    shutil.copytree(pipeline_out, run)
    assert run_fresh(RUN_COMMANDS, repr([["--out", str(run), command]])) == [
        (command, 0, True)]


def numpy_scopes(tree: ast.Module):
    """(scope, names np, imports numpy as np, imports from numpy at all) of
    the module and of each function in it.  A function's scope is its body;
    its decorators and defaults, and every class body, belong to the
    enclosing scope.  Annotations are skipped: the package postpones them."""
    scopes = [("<module>", tree.body)]
    for scope, body in scopes:
        names = imports_np = imports = False
        pending = list(body)
        while pending:
            node = pending.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append((node.name, node.body))
                pending += [*node.decorator_list, *node.args.defaults,
                            *filter(None, node.args.kw_defaults)]
                continue
            names |= isinstance(node, ast.Name) and node.id == "np"
            if isinstance(node, ast.Import):
                modules = [(alias.name, alias.asname) for alias in node.names]
                imports_np |= ("numpy", "np") in modules
                imports |= any(name.split(".")[0] == "numpy" for name, _ in modules)
            if isinstance(node, ast.ImportFrom):
                imports |= (node.module or "").split(".")[0] == "numpy"
            for field, value in ast.iter_fields(node):
                if field not in ("annotation", "returns"):
                    pending += [child for child in (value if isinstance(value, list) else [value])
                                if isinstance(child, ast.AST)]
        yield scope, names, imports_np, imports


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_numpy_is_imported_only_by_the_functions_that_use_it(path):
    # A function that names np without importing numpy fails only when it
    # runs, and some run rarely (_merged_flows with no flows).
    tree = ast.parse(path.read_text(encoding="utf-8"))
    wrong = [f"{path.name}: {scope}"
             for scope, names, imports_np, imports in numpy_scopes(tree)
             if (scope == "<module>" and (names or imports)) or (names and not imports_np)]
    assert wrong == []
