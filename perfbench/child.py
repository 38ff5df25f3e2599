"""Child-process side of the fqed benchmark.

Both modes run from the root of a checkout with ``PYTHONPATH=src``; the
parent (``run.py``) starts them and times them from outside.

``python perfbench/child.py setup --config CFG [--env]``
    Do what every ``fqed`` command does before its first solve: import the
    package, parse the config, build the mode grid and enumerate the Fock
    basis.  Prints one JSON line with the sizes (and, with ``--env``, the
    interpreter and library versions).

``python perfbench/child.py trace --spans FILE -- <fqed arguments>``
    Run ``fqed.cli.main`` on the arguments with the layer boundaries listed
    in ``BOUNDARIES`` rebound to span-recording wrappers, then write the
    spans and the tracer's own cost to FILE and exit with the command's exit
    code.  Nothing under ``src/`` changes: the wrappers replace module
    attributes, so every ``from .x import y`` alias and every function-local
    import sees them.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import inspect
import json
import platform
import sys
import time
from functools import wraps

MODULES = ("cli", "modes", "fock", "hamiltonian", "spectral", "bogoliubov",
           "cascade", "observables")

#: span name -> public functions (``module.attr`` or ``module.Class.method``)
#: whose calls are recorded under that name.
BOUNDARIES = {
    "cli.parse_config": ["cli.parse_config"],
    "modes.build_grid": ["modes.build_grid"],
    "fock.enumerate_basis": ["fock.enumerate_basis"],
    "fock.operator": ["fock.creation_sum", "fock.linear_field",
                      "fock.ladder"],
    "hamiltonian.assemble": [
        "hamiltonian.assemble_field", "hamiltonian.assemble_h_fiber",
        "hamiltonian.assemble_slice_interaction",
        "hamiltonian.assemble_displaced_hamiltonian",
        "hamiltonian.assemble_intermediate_hamiltonian"],
    "spectral.ground_state": ["spectral.ground_state"],
    "spectral.dense_spectrum": ["spectral.dense_spectrum"],
    "spectral.resolvent_init": ["spectral.ResolventSolver.__init__"],
    "spectral.resolvent_solve": ["spectral.ResolventSolver.solve"],
    "spectral.contour": ["spectral.contour_project_checked"],
    "bogoliubov.weyl_apply": ["bogoliubov.weyl_apply"],
    "bogoliubov.momentum_ops": ["bogoliubov.displaced_momentum_ops"],
    "cascade.run_cascade": ["cascade.run_cascade"],
    "cascade.sector_ground": ["cascade.sector_ground"],
    "observables.fd": ["observables.dispersion_curvature_fd",
                       "observables.energy_gradient_fd"],
    "observables.curvature_direct": [
        "observables.dispersion_curvature_direct"],
    "observables.curvature_displaced": [
        "observables.dispersion_curvature_displaced"],
    "observables.frame_ground": ["observables.displaced_frame_ground"],
    # the entry point a command calls: mass_scan in a scan, the probes in
    # verify
    "observables.entry": ["observables.mass_scan",
                          "observables.cross_term_probe",
                          "observables.pull_through_summary",
                          "observables.energy_lipschitz_probe",
                          "observables.resolvent_bound_probes"],
}

#: Span holding the tracer's own bookkeeping, so no layer is charged for it.
ANNOTATE = "trace.annotate"


def _operator_digest(op) -> str:
    """Content hash of a sparse operator (format-independent for CSR)."""
    csr = op.tocsr()
    h = hashlib.blake2b(digest_size=16)
    for part in (csr.indptr, csr.indices, csr.data):
        h.update(part.tobytes())
    h.update(repr(csr.shape).encode())
    return h.hexdigest()


def _momentum_key(params, p) -> tuple:
    p = params.p_total if p is None else p
    return tuple(float(x) for x in p)


class Tracer:
    """In-memory span recorder; spans are [name, parent, start, end, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._h_fiber_seen: set = set()
        self._h_fiber_digests: set = set()
        self._sector_seen: set = set()
        self.missing: list[str] = []

    def _open(self, name: str) -> list:
        span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = time.perf_counter()
        return span

    def _close(self, span: list):
        span[3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, annotate=None):
        sig = inspect.signature(fn) if annotate else None

        @wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if annotate is not None:
                note = self._open(ANNOTATE)
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    annotate(span, bound.arguments, out)
                finally:
                    self._close(note)
            return out
        return traced

    # annotations: extra per-span facts the per-layer metrics need

    def _note_ground_state(self, span, args, rec):
        span[0] = f"spectral.ground_state_{rec.method}"

    def _note_contour(self, span, args, out):
        span[4] = {"nodes": int(out[1])}

    def _note_assemble_h_fiber(self, span, args, op):
        params = args["params"]
        key = (float(params.alpha), _momentum_key(params, args["p"]),
               int(args["j"]))
        span[4] = {"h_fiber": True, "repeat": key in self._h_fiber_seen}
        self._h_fiber_seen.add(key)
        self._h_fiber_digests.add(_operator_digest(op))

    def _note_sector_ground(self, span, args, out):
        params = args["params"]
        h_op = args["h_op"]
        kind = "H"
        if h_op is not None:
            digest = _operator_digest(h_op)
            if digest not in self._h_fiber_digests:
                kind = digest
        key = (float(params.alpha), _momentum_key(params, args["p"]),
               int(args["j"]), kind)
        span[4] = {"repeat": key in self._sector_seen}
        self._sector_seen.add(key)

    def install(self):
        """Rebind every boundary in every fqed module that refers to it."""
        modules = [importlib.import_module("fqed")]
        modules += [importlib.import_module(f"fqed.{m}") for m in MODULES]
        by_name = {m.__name__.split(".")[-1]: m for m in modules[1:]}
        notes = {
            "spectral.ground_state": self._note_ground_state,
            "spectral.contour_project_checked": self._note_contour,
            "hamiltonian.assemble_h_fiber": self._note_assemble_h_fiber,
            "cascade.sector_ground": self._note_sector_ground,
        }
        for name, targets in BOUNDARIES.items():
            for target in targets:
                mod_name, *path = target.split(".")
                owner = by_name[mod_name]
                for attr in path[:-1]:
                    owner = getattr(owner, attr, None)
                orig = getattr(owner, path[-1], None)
                if orig is None:
                    self.missing.append(target)
                    continue
                traced = self.wrap(name, orig, notes.get(target))
                if len(path) > 1:
                    setattr(owner, path[-1], traced)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, traced)

    def overhead_s(self, batch: int = 10000, repeats: int = 5) -> float:
        """The tracer's own cost in this run: its bookkeeping spans plus the
        span count times the cost of one wrapped call, measured here on a
        no-op as the best of several batches."""
        def noop():
            return None

        probe = Tracer()
        traced = probe.wrap("noop", noop)
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(batch):
                noop()
            t1 = time.perf_counter()
            for _ in range(batch):
                traced()
            t2 = time.perf_counter()
            probe.spans.clear()
            best = min(best, ((t2 - t1) - (t1 - t0)) / batch)
        annotate = sum(t1 - t0 for name, _, t0, t1, _ in self.spans
                       if name == ANNOTATE)
        return annotate + best * len(self.spans)


def cmd_setup(args) -> int:
    from fqed.cli import parse_config

    cfg = parse_config(args.config)
    grid = cfg.build_grid()
    basis = cfg.build_basis(grid)
    info = {"n_modes": int(grid.n_modes), "dim": int(basis.size)}
    if args.env:
        import numpy
        import scipy

        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        info.update(python=platform.python_version(),
                    numpy=numpy.__version__, scipy=scipy.__version__,
                    blas=f"{blas.get('name', '?')} {blas.get('version', '?')}")
    print(json.dumps(info))
    return 0


def cmd_trace(args) -> int:
    import fqed.cli

    tracer = Tracer()
    tracer.install()
    for target in tracer.missing:
        print(f"trace: boundary fqed.{target} not found", file=sys.stderr)
    try:
        rc = fqed.cli.main(args.fqed_args)
    finally:
        with open(args.spans, "w") as fh:
            json.dump({"missing": tracer.missing, "spans": tracer.spans,
                       "overhead_s": tracer.overhead_s()}, fh)
    return rc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    sp = sub.add_parser("setup")
    sp.add_argument("--config", required=True)
    sp.add_argument("--env", action="store_true")
    sp.set_defaults(func=cmd_setup)
    sp = sub.add_parser("trace")
    sp.add_argument("--spans", required=True)
    sp.add_argument("fqed_args", nargs=argparse.REMAINDER)
    sp.set_defaults(func=cmd_trace)
    args = parser.parse_args(argv)
    if args.mode == "trace" and args.fqed_args[:1] == ["--"]:
        args.fqed_args = args.fqed_args[1:]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
