"""The documentation against the code it names, without running a demo:
README's config-key table lists exactly the keys the parser accepts, with
their defaults, its ``scan.csv`` header is the one the scan writes, its
list of ``verify`` suites is the one the command accepts, every name a
demo imports from ``fqed`` exists, and every call a demo makes to such a
name binds to its signature."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

from fqed.cli import _DEFAULTS, _REQUIRED_KEYS, _SUITES
from fqed.observables import SCAN_COLUMNS

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def config_table() -> list[tuple[str, str]]:
    """(key, default) rows of README's "Config keys" table."""
    text = (ROOT / "README.md").read_text()
    section = text.split("### Config keys", 1)[1].split("\n#", 1)[0]
    return re.findall(r"^\| `([^`]+)` \| ([^|]+?) \|", section, re.M)


def test_readme_scan_header_matches_the_writer():
    text = (ROOT / "README.md").read_text()
    header = re.search(r"writes `scan.csv` with header\s+`([^`]+)`",
                       text).group(1)
    names = []
    for name in header.split(","):
        stem = re.fullmatch(r"(\w+)_x\.\.z", name)
        names += [f"{stem.group(1)}_{c}" for c in "xyz"] if stem else [name]
    assert names == SCAN_COLUMNS


def test_readme_verify_suites_match_the_cli():
    text = (ROOT / "README.md").read_text()
    listed = re.search(r"`verify` runs probe suites \(([^)]*)\)",
                       text).group(1)
    assert re.findall(r"`(\w+)`", listed) == list(_SUITES)


def test_readme_config_table_matches_the_parser():
    shown = [f"`{value}`" if value else "empty"
             for value in _DEFAULTS.values()]
    expected = [(key, "required") for key in _REQUIRED_KEYS]
    expected += list(zip(_DEFAULTS, shown))
    assert sorted(config_table()) == sorted(expected)


def fqed_imports(tree) -> dict:
    """{local name: (module, name)} of the names a demo imports from
    ``fqed``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "fqed":
            module = importlib.import_module(node.module)
            names.update({a.asname or a.name: (module, a.name)
                          for a in node.names})
    return names


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_imports_resolve(demo):
    missing = [f"{module.__name__}.{name}" for module, name
               in fqed_imports(ast.parse(demo.read_text())).values()
               if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_calls_bind(demo):
    # positional count and keyword names of each call to an fqed name, on
    # the callable's signature; calls with * or ** are not checked
    tree = ast.parse(demo.read_text())
    names = fqed_imports(tree)
    unbound = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in names):
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) \
                or any(k.arg is None for k in node.keywords):
            continue
        try:
            inspect.signature(getattr(*names[node.func.id])).bind(
                *node.args, **{k.arg: k.value for k in node.keywords})
        except TypeError as exc:
            unbound.append(f"line {node.lineno}: {node.func.id}: {exc}")
    assert unbound == []
