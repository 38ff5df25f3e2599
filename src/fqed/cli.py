"""Command-line front end: configuration, orchestration, result emission.

Configs are flat ``key = value`` text files with ``#`` comments.  Momentum
triples are whitespace-separated; scan lists use whitespace between numbers
and ``;`` between momentum triples.  Outputs are CSV tables with a trailing
metadata comment block (config hash and package version), plus a
gnuplot-compatible script for the effective-mass scan.  All numeric paths
are deterministic, so rerunning a command on the same config reproduces
byte-identical files.

Subcommands: validate, cascade, mass-scan, verify, grid-dump.  Each takes
--config and --out; verify also takes --suite and --strict.
Exit codes: 0 ok, 1 assertion or constraint failure, 2 usage error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib
import sys
import warnings
from dataclasses import dataclass, field, replace
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__
from .cascade import (CONTOUR_NODES, CascadeError, cascade_scales,
                      convergence_report, open_cascade, run_cascade,
                      trace_csv, validate_params, write_vector_file)
from .fock import (FockBasis, ResourceError, check_basis_size,
                   enumerate_basis)
from .hamiltonian import ModelParams
from .modes import (ANGULAR_SETS, ModeGrid, ParameterError, build_grid,
                    check_mode_count)
from .observables import (SCAN_COLUMNS, energy_lipschitz_probe, mass_scan,
                          momentum_axis, pull_through_summary,
                          resolvent_bound_probes, scale_routes, scan_csv,
                          scan_tail_summary, soft_photon_probe)
from .spectral import (MAX_NODES, ConditioningError, ContourError,
                       SolverError, check_node_count)


class ConfigError(ValueError):
    """Config file problem, with file/line location in the message."""


_REQUIRED_KEYS = ("alpha", "epsilon", "P", "J")

#: Largest UV cutoff: build_grid's shell weights scale as Lambda**3, which
#: must stay finite.
_LAMBDA_MAX = float(np.cbrt(np.finfo(float).max))

_DEFAULTS = {
    "Lambda": "1.0",
    "mu": "0.2",
    "rho_minus": "0.1",
    "rho_plus": "0.4",
    "C_alpha": "0.35",
    "ir_floor_C": "2.5",
    "n_radial": "1",
    "angular_set": "octahedral6",
    "n_max": "2",
    "c_max": "2",
    "contour_nodes": str(CONTOUR_NODES),
    "allow_invalid": "false",
    "alphas": "",
    "P_list": "",
    "out_dir": ".",
    "dump_vectors": "false",
    "basis_limit": "2000000",
    "delta": "0.2",
}


def _parse_numbers(text: str, where: str) -> list[float]:
    """Whitespace-separated finite numbers."""
    try:
        numbers = [float(x) for x in text.split()]
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    if not np.all(np.isfinite(numbers)):
        raise ConfigError(f"{where}: expected finite numbers, got {text!r}")
    return numbers


def _parse_triple(text: str, where: str) -> np.ndarray:
    parts = _parse_numbers(text.replace(",", " "), where)
    if len(parts) != 3:
        raise ConfigError(f"{where}: expected 3 numbers, got {text!r}")
    return np.array(parts)


@dataclass
class RunConfig:
    """Validated configuration: model, grid, basis, cascade, and scan."""

    params: ModelParams
    n_radial: int
    angular_set: str
    n_max: int
    c_max: int
    basis_limit: int
    contour_nodes: int
    allow_invalid: bool
    alphas: list = field(default_factory=list)
    p_list: list = field(default_factory=list)
    out_dir: str = "."
    dump_vectors: bool = False
    delta: float = 0.2
    sha256: str = ""

    def build_grid(self) -> ModeGrid:
        return build_grid(self.params.cutoffs, self.n_radial,
                          self.angular_set)

    def build_basis(self, grid: ModeGrid) -> FockBasis:
        return enumerate_basis(grid.n_modes, self.n_max, self.c_max,
                               size_limit=self.basis_limit)


def parse_config(path) -> RunConfig:
    """Read and validate a flat key=value config with line diagnostics."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc

    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(
                f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, val = (s.strip() for s in body.split("=", 1))
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in values:
            raise ConfigError(
                f"{path}:{lineno}: duplicate key {key!r} "
                f"(first set on line {lines[key]})")
        values[key] = val
        lines[key] = lineno

    for key in _REQUIRED_KEYS:
        if key not in values:
            raise ConfigError(f"{path}: missing required key {key!r}")
    unknown = set(values) - set(_DEFAULTS) - set(_REQUIRED_KEYS)
    if unknown:
        where = ", ".join(f"{k!r} (line {lines[k]})" for k in sorted(unknown))
        raise ConfigError(f"{path}: unknown keys: {where}")

    def get(key: str) -> str:
        return values[key] if key in values else _DEFAULTS[key]

    def where(key: str) -> str:
        return f"{path}:{lines.get(key, '?')}: key {key!r}"

    def num(key: str, cast=float, low=None):
        """The key's finite value, at least ``low`` when given."""
        txt = get(key)
        try:
            value = cast(txt)
            if not np.isfinite(float(value)):
                raise ValueError(f"expected a finite number, got {txt!r}")
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"{where(key)}: {exc}") from exc
        if low is not None and value < low:
            raise ConfigError(
                f"{where(key)}: expected a value >= {low}, got {txt!r}")
        return value

    def boolean(key: str) -> bool:
        low = get(key).strip().lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(
            f"{where(key)}: expected a boolean, got {get(key)!r}")

    lambda_uv = num("Lambda")
    if not 0.0 < lambda_uv < _LAMBDA_MAX:
        raise ConfigError(
            f"{where('Lambda')}: expected 0 < Lambda < {_LAMBDA_MAX:.4g}, "
            f"got {get('Lambda')!r}")
    angular_set = get("angular_set")
    if angular_set not in ANGULAR_SETS:
        raise ConfigError(
            f"{where('angular_set')}: unknown angular set {angular_set!r}; "
            f"available: {', '.join(ANGULAR_SETS)}")

    try:
        params = ModelParams(
            lambda_uv=lambda_uv, alpha=num("alpha"),
            epsilon=num("epsilon"), mu=num("mu"),
            rho_minus=num("rho_minus"), rho_plus=num("rho_plus"),
            c_alpha=num("C_alpha"), ir_floor_c=num("ir_floor_C"),
            p_total=_parse_triple(values["P"], where("P")),
            n_scales=num("J", int, low=1))
    except ParameterError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    eps = params.epsilon   # the grid divides by every cutoff
    if 0.0 < eps < 1.0 and lambda_uv * eps ** params.n_scales == 0.0:
        raise ConfigError(f"{where('J')}: Lambda * epsilon**J underflows")

    contour_nodes = num("contour_nodes", int)
    try:
        check_node_count(contour_nodes, "contour_nodes")
    except ParameterError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if contour_nodes > MAX_NODES:
        raise ConfigError(f"{path}: contour_nodes {contour_nodes} is above "
                          f"max_nodes {MAX_NODES}")

    alphas = _parse_numbers(get("alphas"), where("alphas"))
    if any(a < 0.0 for a in alphas):
        raise ConfigError(f"{where('alphas')}: expected couplings >= 0, "
                          f"got {get('alphas')!r}")
    p_list = [_parse_triple(t, where("P_list"))
              for t in get("P_list").split(";") if t.strip()]
    for p in p_list:
        try:
            momentum_axis(p)
        except ParameterError as exc:
            raise ConfigError(f"{where('P_list')}: {exc}") from exc

    return RunConfig(
        params=params, n_radial=num("n_radial", int, low=1),
        angular_set=angular_set, n_max=num("n_max", int, low=0),
        c_max=num("c_max", int, low=1),
        basis_limit=num("basis_limit", int, low=1),
        contour_nodes=contour_nodes, allow_invalid=boolean("allow_invalid"),
        alphas=alphas, p_list=p_list, out_dir=get("out_dir"),
        dump_vectors=boolean("dump_vectors"),
        delta=num("delta"), sha256=hashlib.sha256(raw).hexdigest(),
    )


def _metadata_block(cfg: RunConfig) -> str:
    return (f"# config_sha256: {cfg.sha256}\n"
            f"# fqed_version: {__version__}\n")


def _out_path(cfg: RunConfig, args, name: str) -> Path:
    out = Path(args.out if args.out else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def cmd_validate(cfg: RunConfig, args) -> int:
    report = validate_params(cfg.params)
    if report.passed:
        # the grid and basis sizes have closed forms: refuse what cascade
        # would refuse before building either; the step enclosure then
        # reads the grid, which is as small as cascade's own
        n_modes = check_mode_count(cfg.params.n_scales, cfg.n_radial,
                                   cfg.angular_set)
        check_basis_size(n_modes, cfg.n_max, cfg.c_max, cfg.basis_limit)
        report = validate_params(cfg.params, cfg.build_grid())
    print("parameter constraint report:")
    print(report.table())
    if not report.passed:
        print(f"FAILED: {report.first_failure().name}")
        return 1
    print("all constraints PASS")
    return 0


def cmd_grid_dump(cfg: RunConfig, args) -> int:
    grid = cfg.build_grid()
    path = _out_path(cfg, args, "grid.csv")
    path.write_text(grid.dump_csv() + _metadata_block(cfg))
    print(f"wrote {path} ({grid.n_modes} modes)")
    return 0


def cmd_cascade(cfg: RunConfig, args) -> int:
    grid = cfg.build_grid()
    basis = cfg.build_basis(grid)
    state = run_cascade(cfg.params, grid, basis,
                        contour_nodes=cfg.contour_nodes,
                        allow_invalid=cfg.allow_invalid)
    path = _out_path(cfg, args, "trace.csv")
    path.write_text(trace_csv(state) + _metadata_block(cfg))
    print(f"wrote {path} ({len(state.records)} scales)")
    if len(state.records) >= 4:
        rep = convergence_report(state, delta=cfg.delta)
        rpath = _out_path(cfg, args, "convergence.txt")
        rpath.write_text(rep.table())
        print(rep.table())
    if cfg.dump_vectors:
        for rec in state.records:
            write_vector_file(
                _out_path(cfg, args, f"phi_{rec.j:03d}.fqed"), rec.phi)
        print(f"wrote {len(state.records)} vector sidecars")
    return 0


def cmd_mass_scan(cfg: RunConfig, args) -> int:
    if not cfg.alphas:
        print("usage error: config key 'alphas' is empty", file=sys.stderr)
        return 2
    if not cfg.p_list:
        print("usage error: config key 'P_list' is empty", file=sys.stderr)
        return 2
    grid = cfg.build_grid()
    if not cfg.allow_invalid:
        # a failed constraint refuses the scan before any basis or cascade,
        # as it refuses `cascade`; the library annotates the point's row
        for alpha, p in product(cfg.alphas, cfg.p_list):
            point = replace(cfg.params, alpha=alpha, p_total=p)
            try:
                validate_params(point, grid).require()
            except ParameterError as exc:
                p_txt = " ".join(repr(float(x)) for x in p)
                raise ParameterError(
                    f"scan point alpha={alpha!r} P=({p_txt}): {exc}") from exc
    basis = cfg.build_basis(grid)
    rows = mass_scan(cfg.params, grid, basis, cfg.alphas, cfg.p_list,
                     contour_nodes=cfg.contour_nodes,
                     allow_invalid=cfg.allow_invalid)

    path = _out_path(cfg, args, "scan.csv")
    tail = scan_tail_summary(rows, delta=cfg.delta)
    meta = _metadata_block(cfg)
    for key, entry in sorted(tail.items()):
        p_txt = " ".join(repr(float(x)) for x in key[1])
        meta += (f"# family alpha={float(key[0])!r} P=({p_txt}): "
                 f"last_scale_curvature={entry['last_scale_value']!r} "
                 f"tail_estimate={entry['tail_estimate']!r}\n")
    path.write_text(scan_csv(rows) + meta)

    plot = _out_path(cfg, args, "scan.gp")
    col = {name: i + 1 for i, name in enumerate(SCAN_COLUMNS)}
    plot.write_text(
        "set datafile separator ','\n"
        "set key autotitle columnhead\n"
        "set logscale x\n"
        "set xlabel 'alpha'; set ylabel 'm_r'\n"
        f"plot 'scan.csv' using {col['alpha']}:{col['m_r']} with points "
        "title 'm_r vs alpha'\n"
        "pause -1\n"
        "set xlabel 'j'; set ylabel 'd2E'\n"
        f"plot 'scan.csv' using {col['j']}:{col['d2E_K']} with linespoints "
        "title 'd2E vs j'\n"
        "pause -1\n")
    n_err = sum(1 for r in rows if r.error)
    print(f"wrote {path} ({len(rows)} rows, {n_err} with errors) and {plot}")
    return 0 if n_err == 0 else 3


_SUITES = ("identities", "gaps", "softphoton", "pullthrough", "calpha",
           "bounds", "all")


def _verify_lines(cfg: RunConfig, suite: str):
    """Yield (hard, name, passed, detail) tuples for the selected suite.

    Each scale's ``FiberFamily`` is the one the cascade built, kept and
    shared by every route and probe at that scale.  The curvature routes
    and the bounds probe run along P's axis, so their suites refuse an
    off-axis P before the cascade.
    """
    if suite in ("identities", "bounds", "all"):
        momentum_axis(cfg.params.p_total)
    grid = cfg.build_grid()
    basis = cfg.build_basis(grid)
    params = cfg.params
    state = open_cascade(params, grid, basis,
                         allow_invalid=cfg.allow_invalid)
    family = {rec.j: fam for fam, rec in cascade_scales(
        state, contour_nodes=cfg.contour_nodes)}
    cut = params.cutoffs

    if suite in ("identities", "all"):
        for rec in state.records:
            orth = float(np.max(np.abs(rec.gamma_orth)))
            yield (True, f"gamma-orthogonality j={rec.j}", orth <= 1e-10,
                   f"max |<phi,Gamma phi>| = {orth:.2e} (tol 1e-10)")
        for rec in state.records:
            d2f, d2h, d2k, d2kr, cross = scale_routes(family[rec.j], rec)
            yield (True, f"route H vs K j={rec.j}", abs(d2h - d2k) <= 1e-5,
                   f"|{d2h:.8f} - {d2k:.8f}| = {abs(d2h - d2k):.2e} "
                   "(tol 1e-5)")
            yield (True, f"route H vs FD j={rec.j}", abs(d2h - d2f) <= 1e-4,
                   f"delta = {abs(d2h - d2f):.2e} (tol 1e-4)")
            yield (True, f"reduced form j={rec.j}", abs(d2k - d2kr) <= 1e-7,
                   f"delta = {abs(d2k - d2kr):.2e} (tol 1e-7)")
            yield (True, f"cross-term j={rec.j}", cross <= 1e-8,
                   f"|value| = {cross:.2e} (tol 1e-8)")

    if suite in ("gaps", "all"):
        for rec in state.records:
            if np.isfinite(rec.gap_sector):
                bound = params.rho_minus * rec.sigma
                yield (True, f"sector gap j={rec.j}",
                       rec.gap_sector >= bound,
                       f"{rec.gap_sector:.4e} >= rho-*sigma = {bound:.4e}")
            if np.isfinite(rec.gap_next_sector):
                bound = params.rho_plus * cut.sigma(rec.j + 1)
                yield (True, f"next-sector gap j={rec.j}",
                       rec.gap_next_sector >= bound,
                       f"{rec.gap_next_sector:.4e} >= rho+*sigma' "
                       f"= {bound:.4e}")

    if suite in ("softphoton", "all"):
        consts = []
        for rec in state.records[1:]:
            rep = soft_photon_probe(family[rec.j], rec)
            consts.append(rep.empirical_c)
            yield (False, f"soft-photon constant j={rec.j}", True,
                   f"C = {rep.empirical_c:.4f}")
        if len(consts) >= 2 and min(consts) > 0:
            ratio = max(consts) / min(consts)
            yield (False, "soft-photon stability", ratio <= 2.0,
                   f"max/min = {ratio:.3f} (target <= 2)")

    last = state.records[-1]
    if suite in ("pullthrough", "all"):
        agg, _ = pull_through_summary(family[last.j], last)
        yield (False, f"pull-through aggregate j={last.j}", agg <= 0.05,
               f"residual = {agg:.4f} (target <= 0.05)")

    if suite in ("calpha", "all"):
        c_emp, _ = energy_lipschitz_probe(family[last.j], last)
        # the same supremum in the free theory, E(P) = |P|^2 / 2: negative
        # at the dispersion minimum P = 0, where the window must admit it
        c_free = float(np.max((grid.k @ params.p_total
                               - 0.5 * grid.knorm ** 2) / grid.knorm))
        yield (False, "energy-slope constant",
               min(0.0, c_free) <= c_emp <= 0.45,
               f"C = {c_emp:.4f} (free-theory limit 1/3)")

    if suite in ("bounds", "all"):
        for rec in state.records[:-1]:
            consts = resolvent_bound_probes(family[rec.j], rec)
            for name, c in zip(("C3", "C4", "C5"), consts):
                if np.isfinite(c):
                    yield (False, f"bound {name} j={rec.j}", c >= 1.0,
                           f"{name} = {c:.4f} (>= 1)")


def cmd_verify(cfg: RunConfig, args) -> int:
    if args.suite not in _SUITES:
        print(f"usage error: unknown suite {args.suite!r}; "
              f"available: {', '.join(_SUITES)}", file=sys.stderr)
        return 2
    hard_fail = soft_fail = 0
    for hard, name, passed, detail in _verify_lines(cfg, args.suite):
        mark = "PASS" if passed else "FAIL"
        kind = "hard" if hard else "soft"
        print(f"[{mark}] ({kind}) {name}: {detail}")
        if not passed:
            if hard:
                hard_fail += 1
            else:
                soft_fail += 1
    print(f"verify: {hard_fail} hard failures, {soft_fail} soft failures")
    if hard_fail or (args.strict and soft_fail):
        return 1
    return 0


#: The OpenBLAS builds bundled with numpy and scipy, as (package, library
#: glob, thread-count setter); each package loads its own.  Every eigensolve
#: and product a command makes runs in numpy's.  Scipy's runs only the dense
#: oracles and the cold ARPACK solves, which import ``scipy.linalg`` where
#: they run; it is pinned all the same (loading it costs about 1.5 MiB), so
#: that a program reaching them is deterministic too.
_BLAS_POOLS = (
    ("numpy", "libscipy_openblas64_*", "scipy_openblas_set_num_threads64_"),
    ("scipy", "libscipy_openblas-*", "scipy_openblas_set_num_threads"),
)


def _pin_blas_threads():
    """Pin numpy's and scipy's OpenBLAS pools to one thread.

    BLAS rounds a product differently at different thread counts, so a
    command's outputs would depend on the machine's core count and on the
    ``OPENBLAS_NUM_THREADS`` it inherits.  Each pool is set through its
    own library's setter, which loads the library if its package has not
    yet.  A pool whose library or setter is not found is left as it is,
    with a warning.
    """
    for package, pattern, setter in _BLAS_POOLS:
        libs = Path(importlib.import_module(package).__file__).parent.parent
        found = sorted((libs / f"{package}.libs").glob(pattern))
        try:
            set_threads = getattr(ctypes.CDLL(str(found[0])), setter)
        except (IndexError, OSError, AttributeError):
            warnings.warn(f"cannot pin {package}'s BLAS to one thread "
                          f"({setter} not found); outputs may depend on the "
                          "BLAS thread count", RuntimeWarning, stacklevel=2)
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)


def main(argv=None) -> int:
    _pin_blas_threads()
    parser = argparse.ArgumentParser(
        prog="fqed",
        description="infrared-cascade laboratory for momentum-fiber QED "
                    "models on truncated photon Fock spaces")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("validate", cmd_validate), ("cascade", cmd_cascade),
                     ("mass-scan", cmd_mass_scan), ("verify", cmd_verify),
                     ("grid-dump", cmd_grid_dump)):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=None)
        if fn is cmd_verify:
            sp.add_argument("--suite", default="all")
            sp.add_argument("--strict", action="store_true")
        sp.set_defaults(func=fn)
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(cfg, args)
    except (ParameterError, ResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CascadeError, SolverError, ConditioningError,
            ContourError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
