"""Scale-by-scale ground-state construction across the infrared cascade.

Starting from the vacuum at the initial cutoff, each step to a finer scale
projects the current displaced-frame ground state through a resolvent
contour around the previous energy, solves the finer fiber Hamiltonian for
its energy and gradient, and re-dresses the projected vector with the
single Weyl displacement that bridges the two gradients.  The per-scale
records keep unnormalized projector outputs together with their norms, so
the squared-norm lower bound and the step-norm decay can be read off
directly.

Every scale also records the mean-zero momentum observable's expectation in
the running vector (which vanishes by construction) and the measured
spectral gaps on the photon-content-restricted sectors, the quantities the
cascade's convergence hinges on.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass, field

import numpy as np

from .bogoliubov import (center_operators, combined_displacement,
                         displaced_momentum_ops, weyl_apply)
from .fock import FockBasis
from .hamiltonian import (ModelParams, assemble_h_fiber,
                          assemble_intermediate_hamiltonian,
                          field_momentum_ops)
from .modes import ModeGrid, ParameterError
from .spectral import (Contour, ContourError, ResolventSolver,
                       check_node_count, contour_project_checked,
                       ground_state)


class CascadeError(RuntimeError):
    """Cascade aborted; the message carries the scale index and diagnostic."""


@dataclass(frozen=True)
class ConstraintCheck:
    name: str
    passed: bool
    detail: str
    slack: float


@dataclass
class ConstraintReport:
    checks: list[ConstraintCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def first_failure(self) -> ConstraintCheck | None:
        for c in self.checks:
            if not c.passed:
                return c
        return None

    def table(self) -> str:
        lines = []
        for i, c in enumerate(self.checks, start=1):
            mark = "PASS" if c.passed else "FAIL"
            lines.append(f"  [{i}] {mark}  {c.name:<20} {c.detail}  "
                         f"(slack {c.slack:+.4g})")
        return "\n".join(lines)


def validate_params(params: ModelParams) -> ConstraintReport:
    """Check the parameter relations the cascade construction relies on.

    Four constraints: the ordering chain of the gap/contour fractions, the
    scale-ratio window, the infrared floor on the scale ratio, and the
    triple-product bound; plus momentum-ball membership.  Report-style:
    nothing raises here, the cascade decides what a failure means.
    """
    p = params
    checks = []

    chain = (0.0 < p.rho_minus < p.mu < p.rho_plus
             < 1.0 - p.c_alpha < 2.0 / 3.0)
    chain_slack = min(p.rho_minus, p.mu - p.rho_minus, p.rho_plus - p.mu,
                      1.0 - p.c_alpha - p.rho_plus,
                      2.0 / 3.0 - (1.0 - p.c_alpha))
    checks.append(ConstraintCheck(
        "ordering chain", chain,
        f"0 < {p.rho_minus} < {p.mu} < {p.rho_plus} "
        f"< {1.0 - p.c_alpha:.4g} < 2/3", chain_slack))

    window_hi = min(0.5, p.rho_minus / p.rho_plus) if p.rho_plus > 0 else 0.5
    checks.append(ConstraintCheck(
        "scale-ratio window", 0.0 < p.epsilon < window_hi,
        f"0 < {p.epsilon} < min(1/2, rho-/rho+) = {window_hi:.4g}",
        window_hi - p.epsilon))

    floor = p.ir_floor_c * np.sqrt(p.alpha)
    checks.append(ConstraintCheck(
        "infrared floor", p.epsilon > floor,
        f"{p.epsilon} > {p.ir_floor_c}*sqrt({p.alpha}) = {floor:.4g}",
        p.epsilon - floor))

    triple = 3.0 * p.mu * p.epsilon
    checks.append(ConstraintCheck(
        "triple product", p.rho_minus > triple,
        f"{p.rho_minus} > 3*{p.mu}*{p.epsilon} = {triple:.4g}",
        p.rho_minus - triple))

    pnorm = float(np.linalg.norm(p.p_total))
    checks.append(ConstraintCheck(
        "momentum ball", pnorm < 1.0 / 3.0,
        f"|P| = {pnorm:.4g} < 1/3", 1.0 / 3.0 - pnorm))

    return ConstraintReport(checks)


@dataclass
class SolverOptions:
    """Numerical knobs shared by the cascade and the downstream probes."""

    ground_tol: float = 1e-10
    dense_eig_cutoff: int = 600
    dense_limit: int = 4000
    contour_nodes: int = 64
    defect_tol: float = 1e-8
    max_nodes: int = 512
    krylov_tol: float = 1e-10
    krylov_max: int = 1200
    weyl_defect_bound: float = 1e-6
    allow_invalid: bool = False
    route_nodes: int = 64
    mass_route: str = "displaced"
    fd_grad_step: float = 1e-3
    fd_curv_step: float = 5e-3

    def __post_init__(self):
        check_node_count(self.contour_nodes, "contour_nodes")

    def make_solver(self, op) -> ResolventSolver:
        return ResolventSolver(op, dense_limit=self.dense_limit,
                               krylov_tol=self.krylov_tol,
                               krylov_max=self.krylov_max)


@dataclass
class ScaleRecord:
    """Everything the cascade knows after finishing scale j."""

    j: int
    sigma: float
    energy: float
    grad_energy: np.ndarray
    gap_sector: float
    gap_next_sector: float
    psi: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)
    phi_hat: np.ndarray = field(repr=False)
    phi_norm: float = np.nan
    phi_hat_norm: float = np.nan
    step_norm: float = np.nan
    energy_shift: float = np.nan
    grad_shift: float = np.nan
    gamma_shift: np.ndarray = field(default_factory=lambda: np.zeros(3))
    gamma_orth: np.ndarray = field(default_factory=lambda: np.zeros(3))
    projector_nodes: int = 0
    projector_defect: float = np.nan
    weyl_defect: float = np.nan


@dataclass
class CascadeState:
    params: ModelParams
    grid: ModeGrid
    basis: FockBasis
    report: ConstraintReport
    records: list[ScaleRecord] = field(default_factory=list)


def sector_ground(params: ModelParams, grid: ModeGrid, basis: FockBasis,
                  j: int, opts: SolverOptions | None = None, p=None,
                  h_op=None):
    """Ground pair of the scale-j Hamiltonian on its photon-content sector.

    The interaction at scale j leaves modes below the cutoff untouched, so
    the ground state has no photons on shells >= j; restricting to that
    sector makes the spectral gap the physical one and the solve cheaper.
    Returns (energy, full-basis vector, sector gap).
    """
    opts = opts or SolverOptions()
    h = assemble_h_fiber(params, grid, basis, j, p=p) if h_op is None else h_op
    idx = basis.sector_indices(grid, j)
    vec = np.zeros(basis.size)
    if len(idx) == 1:
        vec[idx[0]] = 1.0
        return float(h[idx[0], idx[0]]), vec, np.nan
    sub = h[idx][:, idx]
    rec = ground_state(sub, tol=opts.ground_tol,
                       dense_cutoff=opts.dense_eig_cutoff)
    vec[idx] = rec.vector
    return rec.energy, vec, rec.gap


def _sector_gap(h_op, basis: FockBasis, grid: ModeGrid, sector_j: int,
                opts: SolverOptions) -> float:
    idx = basis.sector_indices(grid, sector_j)
    if len(idx) < 2:
        return np.nan
    rec = ground_state(h_op[idx][:, idx], tol=1e-9,
                       dense_cutoff=opts.dense_eig_cutoff)
    return rec.gap


def run_cascade(params: ModelParams, grid: ModeGrid, basis: FockBasis,
                opts: SolverOptions | None = None) -> CascadeState:
    """Drive the construction from the UV cutoff down to the final scale.

    Per step j -> j+1: project the running displaced-frame vector through
    the contour of radius mu * sigma_{j+1} centered at the scale-j energy
    (using the bridge Hamiltonian built from the scale-j gradient), solve
    the finer fiber Hamiltonian, evaluate its gradient, and re-dress the
    projected vector with one combined Weyl displacement.
    """
    opts = opts or SolverOptions()
    cuts = params.cutoffs
    if grid.cutoffs.n_scales < params.n_scales or not np.allclose(
            grid.cutoffs.sigmas[:params.n_scales + 1],
            cuts.sigmas, rtol=0, atol=0):
        raise ParameterError(
            "grid does not span the cascade's cutoff sequence; rebuild it "
            "from the same parameters")
    report = validate_params(params)
    if not report.passed and not opts.allow_invalid:
        bad = report.first_failure()
        raise ParameterError(
            f"parameter constraint failed: {bad.name} ({bad.detail}); "
            "set allow_invalid to run anyway")

    cut = params.cutoffs
    state = CascadeState(params=params, grid=grid, basis=basis, report=report)
    p = params.p_total

    e0, psi0, _ = sector_ground(params, grid, basis, 0, opts)
    beta0 = field_momentum_ops(params, grid, basis, 0)
    grad0 = np.array([p[i] - psi0 @ (beta0[i] @ psi0) for i in range(3)])
    phi0 = basis.vacuum()
    pi0 = displaced_momentum_ops(params, grid, basis, 0, grad0)
    _, shift0 = center_operators(pi0, phi0)
    h0 = assemble_h_fiber(params, grid, basis, 0)
    state.records.append(ScaleRecord(
        j=0, sigma=cut.sigma(0), energy=e0, grad_energy=grad0,
        gap_sector=np.nan,
        gap_next_sector=_sector_gap(h0, basis, grid, 1, opts),
        psi=psi0, phi=phi0, phi_hat=phi0.copy(),
        phi_norm=1.0, phi_hat_norm=1.0, gamma_shift=shift0,
        gamma_orth=np.array([phi0 @ (pi0[i] @ phi0) - shift0[i]
                             for i in range(3)]),
    ))

    for j in range(params.n_scales):
        prev = state.records[j]
        try:
            k_hat, _ = assemble_intermediate_hamiltonian(
                params, grid, basis, j + 1, prev.grad_energy,
                prev.gamma_shift)
            contour = Contour(prev.energy, params.mu * cut.sigma(j + 1),
                              opts.contour_nodes)
            solver = opts.make_solver(k_hat)
            phi_hat, nodes_used, defect = contour_project_checked(
                k_hat, contour, prev.phi, solver,
                defect_tol=opts.defect_tol, max_nodes=opts.max_nodes)
        except ContourError as exc:
            raise CascadeError(f"scale {j + 1}: {exc}") from exc

        h_next = assemble_h_fiber(params, grid, basis, j + 1)
        energy, psi, gap_sector = sector_ground(
            params, grid, basis, j + 1, opts, h_op=h_next)
        if gap_sector < 1e-12:
            raise CascadeError(
                f"scale {j + 1}: degenerate ground state, gap {gap_sector}")
        beta = field_momentum_ops(params, grid, basis, j + 1)
        grad = np.array([p[i] - psi @ (beta[i] @ psi) for i in range(3)])

        bridge = combined_displacement(grad, prev.grad_energy, grid,
                                       range(j + 1), params.alpha)
        try:
            phi, wdefect = weyl_apply(bridge, basis, phi_hat,
                                      defect_bound=opts.weyl_defect_bound)
        except ArithmeticError as exc:
            raise CascadeError(f"scale {j + 1}: {exc}") from exc

        pi = displaced_momentum_ops(params, grid, basis, j + 1, grad)
        _, shift = center_operators(pi, phi)
        nrm2 = float(phi @ phi)
        orth = np.array([(phi @ (pi[i] @ phi)) / nrm2 - shift[i]
                         for i in range(3)])
        gap_next = _sector_gap(h_next, basis, grid, j + 2, opts) \
            if j + 1 < params.n_scales else np.nan

        state.records.append(ScaleRecord(
            j=j + 1, sigma=cut.sigma(j + 1), energy=energy, grad_energy=grad,
            gap_sector=gap_sector, gap_next_sector=gap_next,
            psi=psi, phi=phi, phi_hat=phi_hat,
            phi_norm=float(np.linalg.norm(phi)),
            phi_hat_norm=float(np.linalg.norm(phi_hat)),
            step_norm=float(np.linalg.norm(phi_hat - prev.phi)),
            energy_shift=prev.energy - energy,
            grad_shift=float(np.linalg.norm(grad - prev.grad_energy)),
            gamma_shift=shift, gamma_orth=orth,
            projector_nodes=nodes_used, projector_defect=defect,
            weyl_defect=wdefect,
        ))
    return state


@dataclass
class ConvergenceReport:
    """Log-linear decay fits of the cascade diagnostics."""

    scales: np.ndarray
    step_norms: np.ndarray
    energy_shifts: np.ndarray
    grad_shifts: np.ndarray
    step_exponent: float
    step_prefactor: float
    energy_exponent: float
    energy_ratio: np.ndarray
    shift_constants: np.ndarray
    step_bound_ratio: np.ndarray
    delta: float

    def table(self) -> str:
        buf = io.StringIO()
        buf.write("  j   step_norm      |dE|          |dgradE|      "
                  "C1=|dE|/(a*e^(j-1))\n")
        for i, j in enumerate(self.scales):
            buf.write(f"  {int(j)}   {self.step_norms[i]:12.5e}  "
                      f"{self.energy_shifts[i]:12.5e}  "
                      f"{self.grad_shifts[i]:12.5e}  "
                      f"{self.shift_constants[i]:12.5e}\n")
        buf.write(f"  step-norm decay exponent:   {self.step_exponent:.4f}"
                  f"   (target (1-delta)ln(1/eps), delta={self.delta})\n")
        buf.write(f"  energy-shift decay exponent: "
                  f"{self.energy_exponent:.4f}\n")
        return buf.getvalue()


def _loglinear_slope(j: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    mask = y > 0.0
    if mask.sum() < 2:
        return np.inf, 0.0
    coef = np.polyfit(j[mask], np.log(y[mask]), 1)
    return float(-coef[0]), float(np.exp(coef[1]))


def convergence_report(state: CascadeState,
                       delta: float = 0.2) -> ConvergenceReport:
    """Fit the decay of step norms, energy shifts, and gradient shifts.

    Requires at least three completed steps.  All-zero series (the free
    theory) report an infinite decay exponent.
    """
    recs = state.records[1:]
    if len(recs) < 3:
        raise ParameterError(f"need >= 3 completed scales, have {len(recs)}")
    j = np.array([r.j for r in recs], dtype=float)
    steps = np.array([r.step_norm for r in recs])
    de = np.array([abs(r.energy_shift) for r in recs])
    dg = np.array([r.grad_shift for r in recs])
    alpha, eps = state.params.alpha, state.params.epsilon

    step_exp, step_pref = _loglinear_slope(j, steps)
    energy_exp, _ = _loglinear_slope(j, de)
    ratio = np.full(len(de), np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio[1:] = np.where(de[:-1] > 0, de[1:] / de[:-1], np.nan)
        c1 = de / (alpha * eps ** (j - 1)) if alpha > 0 \
            else np.full(len(de), np.nan)
        bound = alpha ** 0.25 * eps ** (j * (1.0 - delta))
        step_ratio = np.where(bound > 0, steps / bound, np.nan)
    return ConvergenceReport(
        scales=j, step_norms=steps, energy_shifts=de, grad_shifts=dg,
        step_exponent=step_exp, step_prefactor=step_pref,
        energy_exponent=energy_exp, energy_ratio=ratio,
        shift_constants=c1, step_bound_ratio=step_ratio, delta=delta)


TRACE_COLUMNS = [
    "j", "sigma", "E", "gradE_x", "gradE_y", "gradE_z", "gap_sector",
    "gap_next", "phi_norm", "phi_hat_norm", "step_norm", "energy_shift",
    "grad_shift", "gamma_shift_x", "gamma_shift_y", "gamma_shift_z",
    "gamma_orth_max", "projector_nodes", "projector_defect", "weyl_defect",
]


def trace_csv(state: CascadeState) -> str:
    """One row per completed scale; vectors summarized by their norms."""
    buf = io.StringIO()
    buf.write(",".join(TRACE_COLUMNS) + "\n")
    for r in state.records:
        row = [str(r.j), repr(float(r.sigma)), repr(float(r.energy))]
        row += [repr(float(v)) for v in r.grad_energy]
        row += [repr(float(r.gap_sector)), repr(float(r.gap_next_sector)),
                repr(float(r.phi_norm)), repr(float(r.phi_hat_norm)),
                repr(float(r.step_norm)), repr(float(r.energy_shift)),
                repr(float(r.grad_shift))]
        row += [repr(float(v)) for v in r.gamma_shift]
        row += [repr(float(np.max(np.abs(r.gamma_orth)))),
                str(int(r.projector_nodes)), repr(float(r.projector_defect)),
                repr(float(r.weyl_defect))]
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


_SIDECAR_MAGIC = b"FQED"
_SIDECAR_VERSION = 1


def write_vector_file(path, vec: np.ndarray):
    """Binary vector sidecar: magic 'FQED', u32 version, u64 dim, f64 LE."""
    vec = np.asarray(vec, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_SIDECAR_MAGIC)
        fh.write(struct.pack("<I", _SIDECAR_VERSION))
        fh.write(struct.pack("<Q", vec.size))
        fh.write(vec.tobytes())


def read_vector_file(path) -> np.ndarray:
    with open(path, "rb") as fh:
        if fh.read(4) != _SIDECAR_MAGIC:
            raise ValueError(f"{path}: bad magic, not a vector sidecar")
        version = struct.unpack("<I", fh.read(4))[0]
        if version != _SIDECAR_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        dim = struct.unpack("<Q", fh.read(8))[0]
        data = np.frombuffer(fh.read(8 * dim), dtype="<f8")
        if data.size != dim:
            raise ValueError(f"{path}: truncated payload")
        return data.astype(float)
