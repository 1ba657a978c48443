"""The demos and the README's examples use only flagflow names and flags that exist.

Running the demos would take too long for the test suite (the Lyapunov demo
alone runs for about 18 seconds), so each script is parsed instead.
Every name imported from a flagflow module must resolve, every attribute
read off an imported flagflow module must exist, and every keyword argument
passed to a flagflow function must be one of its parameters.  The README's
command lines go through the CLI's parser and option resolution, without
running a command.
"""

import ast
import importlib
import inspect
import pathlib
import re
import shlex

import pytest

import flagflow
from flagflow import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _readme_python() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return "\n".join(re.findall(r"```python\n(.*?)```", text, flags=re.S))


SOURCES = {p.name: p.read_text(encoding="utf-8")
           for p in sorted((ROOT / "demos").glob("*.py"))}
SOURCES["README.md"] = _readme_python()


def _resolve(module: str, name: str):
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    try:
        return importlib.import_module(f"{module}.{name}")
    except ImportError:
        raise AttributeError(f"{module} has no attribute {name!r}") from None


def _is_flagflow(module: str | None) -> bool:
    return module is not None and module.split(".")[0] == "flagflow"


def flagflow_uses(source: str):
    """Objects the source takes from flagflow, and its keyword calls to them.

    Returns ``(names, calls)``: ``names`` maps each local name to the
    ``(module, attribute)`` it was bound from; ``calls`` lists
    ``(module, attribute, keyword)`` for every keyword argument passed to
    such a name.
    """
    tree = ast.parse(source)
    names: dict[str, tuple[str, str]] = {}
    modules: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_flagflow(node.module):
            for alias in node.names:
                names[alias.asname or alias.name] = (node.module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _is_flagflow(alias.name):
                    local = alias.asname or alias.name.split(".")[0]
                    modules[local] = alias.name if alias.asname else local
    attributes = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            attributes.add((modules[node.value.id], node.attr))

    def target(func):
        if isinstance(func, ast.Name) and func.id in names:
            return names[func.id]
        if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id in modules):
            return modules[func.value.id], func.attr
        return None

    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and target(node.func) is not None:
            calls.extend((*target(node.func), kw.arg) for kw in node.keywords if kw.arg)
    return sorted(set(names.values()) | attributes), calls


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_referenced_names_exist(source):
    used, _ = flagflow_uses(SOURCES[source])
    assert used, f"{source} takes nothing from flagflow"
    missing = []
    for module, name in used:
        try:
            _resolve(module, name)
        except (AttributeError, ImportError):
            missing.append(f"{module}.{name}")
    assert not missing, f"{source} uses names flagflow does not define: {missing}"


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_keyword_arguments_exist(source):
    _, calls = flagflow_uses(SOURCES[source])
    unknown = []
    for module, name, keyword in calls:
        params = inspect.signature(_resolve(module, name)).parameters
        takes_any = any(p.kind is p.VAR_KEYWORD for p in params.values())
        if keyword not in params and not takes_any:
            unknown.append(f"{module}.{name}({keyword}=)")
    assert not unknown, f"{source} passes keywords flagflow does not accept: {unknown}"


def test_guard_catches_removed_names():
    used, calls = flagflow_uses(
        "import flagflow as ff\n"
        "from flagflow.dynamics import integrate_compactified\n"
        "ff.no_such_name\n"
        "integrate_compactified(None, None, None, no_such_keyword=1)\n")
    assert ("flagflow", "no_such_name") in used
    with pytest.raises(AttributeError):
        _resolve("flagflow", "no_such_name")
    module, name, keyword = calls[0]
    assert keyword not in inspect.signature(_resolve(module, name)).parameters


def test_public_surface_is_the_module_export_lists():
    names = flagflow.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(flagflow, name)] == []
    modules = (flagflow.model, flagflow.compactify, flagflow.dynamics, flagflow.experiments)
    assert set(names) == set().union(*(module.__all__ for module in modules))


def _readme_command_lines() -> list[list[str]]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line\n\n```\n(.*?)```", text, flags=re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("flagflow ")]


def test_readme_command_lines_parse(monkeypatch):
    monkeypatch.delenv("FLAGFLOW_SEED", raising=False)
    lines = _readme_command_lines()
    assert {argv[0] for argv in lines} == set(cli._COMMANDS)
    for argv in lines:
        # a renamed, removed or abbreviated flag raises ValueError here
        cli._options(cli._build_parser().parse_args(argv))
