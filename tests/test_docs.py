"""The documentation against the code it names: README's config-key
table lists exactly the keys the parser accepts, with their defaults, its
``scan.csv`` header is the one the scan writes, its list of ``verify``
suites is the one the command accepts, every name a demo imports from
``fqed`` exists, every call a demo makes to such a name binds to its
signature, the demos that evaluate routes and probes from cascade
records run to the end, the benchmark's copy of the demo config is that
config byte for byte, every solver constant README gives a value for
has that value in the code, every ``Name.attr`` README quotes of a module
or a module's name exists, and no module of the package imports a name
it never uses."""

import ast
import importlib
import inspect
import re
import runpy
from pathlib import Path

import pytest

from fqed.cli import _DEFAULTS, _REQUIRED_KEYS, _SUITES
from fqed.observables import SCAN_COLUMNS

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
MODULES = sorted((ROOT / "src" / "fqed").glob("*.py"))


def config_table() -> list[tuple[str, str]]:
    """(key, default) rows of README's "Config keys" table."""
    text = (ROOT / "README.md").read_text()
    section = text.split("### Config keys", 1)[1].split("\n#", 1)[0]
    return re.findall(r"^\| `([^`]+)` \| ([^|]+?) \|", section, re.M)


def module_constant(name: str):
    """The value an fqed module binds to ``name``."""
    values = [vars(module)[name] for module in (
        importlib.import_module(f"fqed.{m}") for m in (
            "modes", "fock", "hamiltonian", "spectral", "bogoliubov",
            "cascade", "observables", "cli")) if name in vars(module)]
    assert values, f"README names {name}, which no module defines"
    return values[0]


def test_readme_solver_constants_match_the_code():
    # `NAME = value` pairs, and the values printed beside a constant named
    # in parentheses, as in "up to 4000 states (`DENSE_LIMIT`)"
    text = (ROOT / "README.md").read_text()
    pairs = re.findall(r"`([A-Z][A-Z0-9_]+) = ([^`]+)`", text)
    beside = re.findall(r"(\d+)(?:\s+\w+)?\s+\(`([A-Z][A-Z0-9_]+)`\)", text)
    assert {name for _, name in beside} == {"DENSE_EIG_CUTOFF",
                                            "DENSE_LIMIT"}
    assert len(pairs) >= 7
    shown = pairs + [(name, value) for value, name in beside]
    wrong = [(name, value, module_constant(name)) for name, value in shown
             if ast.literal_eval(value) != module_constant(name)]
    assert wrong == []


def test_readme_names_only_attributes_that_exist():
    # `Name.attr` in a code span, where Name is an fqed module or a name
    # one binds: `fock.ENTRY_LIMIT`, `FiberFamily.gradient`; file names
    # such as `scan.csv` name neither
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(),
                  flags=re.S)
    modules = {path.stem: importlib.import_module(f"fqed.{path.stem}")
               for path in MODULES if path.stem != "__init__"}
    owners = dict(modules)
    for module in modules.values():
        owners.update({k: v for k, v in vars(module).items()
                       if k not in owners})
    quoted = [pair for span in re.findall(r"`([^`]+)`", text)
              for pair in re.findall(r"(?<![\w.])(\w+)\.(\w+)", span)
              if pair[0] in owners]
    assert len(quoted) >= 5
    assert [f"{name}.{attr}" for name, attr in quoted
            if not hasattr(owners[name], attr)] == []


def test_benchmark_desk_config_is_the_demo_config():
    # the desk workloads measure the demo config itself
    assert (ROOT / "perfbench" / "configs" / "desk.cfg").read_bytes() \
        == (ROOT / "demos" / "desk.cfg").read_bytes()


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


def test_modules_use_every_name_they_import():
    # a module-level import binds a name the module reads; __init__.py's
    # imports are its re-exports
    unused = []
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0]
                         for a in node.names]
            elif isinstance(node, ast.ImportFrom) \
                    and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno}: {name}"
                       for name in bound if name not in read]
    assert unused == []


@pytest.mark.parametrize("name", [
    "02_free_electron.py", "03_dressed_dispersion.py",
    "06_photon_probes.py", "07_truncation_and_regularity.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(ROOT / "demos" / name), run_name="__main__")
    assert capsys.readouterr().out
