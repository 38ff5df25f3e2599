"""The documentation against the code it names, without running a demo:
README's config-key table lists exactly the keys the parser accepts, with
their defaults, its ``scan.csv`` header is the one the scan writes, and
every name a demo imports from ``fqed`` exists."""

import ast
import importlib
import re
from pathlib import Path

import pytest

from fqed.cli import _DEFAULTS, _REQUIRED_KEYS
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


def test_readme_config_table_matches_the_parser():
    shown = [f"`{value}`" if value else "empty"
             for value in _DEFAULTS.values()]
    expected = [(key, "required") for key in _REQUIRED_KEYS]
    expected += list(zip(_DEFAULTS, shown))
    assert sorted(config_table()) == sorted(expected)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_imports_resolve(demo):
    missing = []
    for node in ast.walk(ast.parse(demo.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "fqed":
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{a.name}" for a in node.names
                        if not hasattr(module, a.name)]
    assert missing == []
