"""The benchmark tracer (``perfbench/child.py``) rebinds the package's layer
boundaries by name and reads some of their arguments by parameter name.
These tests hold the package to that contract: every boundary resolves,
and an installed tracer records and annotates spans.  The tracer has no
uninstall, so the test that installs it restores every binding itself."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import fqed
from fqed.cascade import sector_ground
from fqed.hamiltonian import assemble_h_fiber
from fqed.spectral import ResolventSolver

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


@pytest.fixture(scope="module")
def child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("fn, names", [
    (sector_ground, {"params", "j", "p", "h_op"}),
    (assemble_h_fiber, {"params", "j", "p"}),
], ids=["sector_ground", "assemble_h_fiber"])
def test_annotated_boundaries_keep_the_parameters_read(fn, names):
    assert names <= set(inspect.signature(fn).parameters)


def test_installed_tracer_records_annotated_spans(child, small_setup):
    modules = [fqed] + [importlib.import_module(f"fqed.{m}")
                        for m in child.MODULES]
    saved = [(m, dict(vars(m))) for m in modules]
    saved_methods = {k: vars(ResolventSolver)[k] for k in ("__init__",
                                                           "solve")}
    tracer = child.Tracer()
    params, grid, basis = small_setup
    try:
        tracer.install()
        fqed.cascade.run_cascade(params, grid, basis)
        fqed.hamiltonian.assemble_h_fiber(params, grid, basis, 1)
    finally:
        for module, before in saved:
            for key, value in before.items():
                if vars(module)[key] is not value:
                    setattr(module, key, value)
        for key, value in saved_methods.items():
            setattr(ResolventSolver, key, value)

    assert tracer.missing == []
    attrs = {}
    for name, _, _, _, note in tracer.spans:
        attrs.setdefault(name, []).append(note)
    assert len(attrs["cascade.run_cascade"]) == 1
    assert all("repeat" in n for n in attrs["cascade.sector_ground"])
    assert all("nodes" in n for n in attrs["spectral.contour"])
    assert [n["h_fiber"] for n in attrs["hamiltonian.assemble"]
            if n is not None] == [True]
    # every cascade solve is a started Davidson solve
    assert "spectral.ground_state_davidson" in attrs
    assert "spectral.resolvent_init" in attrs
    # no wrapper is left installed
    for module, before in saved:
        assert all(vars(module)[k] is v for k, v in before.items())
    assert all(vars(ResolventSolver)[k] is v
               for k, v in saved_methods.items())
