"""Scale-by-scale ground-state construction across the infrared cascade.

Starting from the vacuum at the initial cutoff, each step to a finer scale
projects the current displaced-frame ground state through a resolvent
contour around the previous energy, solves the finer fiber Hamiltonian for
its energy and gradient, and re-dresses the projected vector with the
single Weyl displacement that bridges the two gradients.  The per-scale
records keep the unnormalized running vector and the norms of it and of
the projector output, so the squared-norm lower bound and the step-norm
decay can be read off directly.

Every scale also records the mean-zero momentum observable's expectation in
the running vector (which vanishes by construction) and the measured
spectral gaps on the photon-content-restricted sectors, the quantities the
cascade's convergence hinges on.
"""

from __future__ import annotations

import io
import os
import struct
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .bogoliubov import combined_displacement, weyl_apply
from .fock import FockBasis
from .hamiltonian import (FactorOp, FiberFamily, ModelParams,
                          assemble_intermediate_hamiltonian)
from .modes import ModeGrid, ParameterError
from .spectral import (Contour, ContourError, SolverError,
                       contour_project_checked, ground_state)

#: Trapezoid nodes of each step's first projection; doubled on a defect.
CONTOUR_NODES = 64

#: Largest share of a step contour's radius mu * sigma_j that the
#: predicted energy step may fill.  The prediction is within about 1 % of
#: the measured first step, and a step at 0.93 of the radius already
#: needs 256 nodes to pass the projector's idempotence check.
STEP_MARGIN = 0.85


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
        return next((c for c in self.checks if not c.passed), None)

    def require(self):
        """Raise ``ParameterError`` naming the first failed constraint."""
        bad = self.first_failure()
        if bad is not None:
            raise ParameterError(
                f"parameter constraint failed: {bad.name} ({bad.detail}); "
                "set allow_invalid to run anyway")

    def table(self) -> str:
        lines = []
        for i, c in enumerate(self.checks, start=1):
            mark = "PASS" if c.passed else "FAIL"
            lines.append(f"  [{i}] {mark}  {c.name:<20} {c.detail}  "
                         f"(slack {c.slack:+.4g})")
        return "\n".join(lines)


def predicted_energy_steps(params: ModelParams,
                           grid: ModeGrid) -> np.ndarray:
    """Closed-form energy steps dE_j = E_j - E_{j-1}, j = 1..J.

    The first-order diamagnetic term and the one-photon second-order term
    of the shell j - 1 that scale j switches on, at gradient g = P:

        dE_j = (alpha/2) sum_m w_m/|k_m|
               - alpha sum_m (w_m/|k_m|) (eps_m . g)^2
                             / (|k_m| + |k_m|^2/2 - k_m . g).
    """
    g, alpha = params.p_total, params.alpha
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        coupling = alpha * grid.weight / grid.knorm
        per_mode = 0.5 * coupling - coupling * (grid.eps_vec @ g) ** 2 / (
            grid.knorm + 0.5 * grid.knorm ** 2 - grid.k @ g)
    return np.array([per_mode[grid.shell == j - 1].sum()
                     for j in range(1, params.n_scales + 1)])


def validate_params(params: ModelParams,
                    grid: ModeGrid | None = None) -> ConstraintReport:
    """Check the parameter relations the cascade construction relies on.

    Four constraints: the ordering chain of the gap/contour fractions, the
    scale-ratio window, the infrared floor on the scale ratio, and the
    triple-product bound; plus momentum-ball membership.  Given the grid,
    a sixth: step enclosure, every predicted energy step
    (``predicted_energy_steps``) inside ``STEP_MARGIN`` times its step
    contour's radius mu * sigma_j.  Report-style: nothing raises here, the
    cascade decides what a failure means.
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

    if grid is not None:
        radii = p.mu * p.cutoffs.sigmas[1:]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ratio = np.abs(predicted_energy_steps(p, grid)) / radii
        worst = int(np.argmax(np.nan_to_num(ratio, nan=np.inf)))
        checks.append(ConstraintCheck(
            "step enclosure",
            bool(np.all(np.isfinite(ratio)) and ratio[worst] < STEP_MARGIN),
            f"|dE_{worst + 1}| / (mu*sigma_{worst + 1}) = "
            f"{ratio[worst]:.4g} < {STEP_MARGIN}",
            STEP_MARGIN - ratio[worst]))

    return ConstraintReport(checks)


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
    records: list[ScaleRecord] = field(default_factory=list)


def sector_ground(params: ModelParams, grid: ModeGrid, basis: FockBasis,
                  j: int, p=None, h_op=None, pairs: int = 3,
                  start: np.ndarray | None = None):
    """Ground pair of the scale-j Hamiltonian on its photon-content sector.

    The interaction at scale j leaves modes below the cutoff untouched, so
    the ground state has no photons on shells >= j; restricting to that
    sector makes the spectral gap the physical one and the solve cheaper.
    A ``FactorOp`` restricts its factors (once per family and sector), a
    matrix is sliced.  ``pairs`` and the full-basis ``start``, restricted
    to the sector, go to
    ``ground_state``; a start with no weight on the sector is no start.
    Returns (energy, full-basis vector, sector gap); the gap is NaN for
    ``pairs=1``.
    """
    h = h_op if h_op is not None else FiberFamily(params, grid, basis, j).h(
        params.p_total if p is None else p)
    idx = basis.sector_indices(grid, j)
    sub = h.sector(idx) if isinstance(h, FactorOp) else h[idx][:, idx]
    rec = ground_state(sub, pairs=pairs,
                       start=None if start is None else start[idx])
    vec = np.zeros(basis.size)
    vec[idx] = rec.vector
    return rec.energy, vec, rec.gap


def open_cascade(params: ModelParams, grid: ModeGrid, basis: FockBasis, *,
                 allow_invalid: bool = False) -> CascadeState:
    """The cascade's state before its first scale, once the grid is seen to
    span the cutoff sequence and the parameter constraints are checked.  A
    failed constraint raises unless ``allow_invalid`` is set."""
    cut = params.cutoffs
    if grid.cutoffs.n_scales < params.n_scales or not np.allclose(
            grid.cutoffs.sigmas[:params.n_scales + 1],
            cut.sigmas, rtol=0, atol=0):
        raise ParameterError(
            "grid does not span the cascade's cutoff sequence; rebuild it "
            "from the same parameters")
    if not allow_invalid:
        validate_params(params, grid).require()
    return CascadeState(params=params, grid=grid, basis=basis)


def cascade_scales(state: CascadeState, *,
                   contour_nodes: int = CONTOUR_NODES
                   ) -> Iterator[tuple[FiberFamily, ScaleRecord]]:
    """Drive the construction from the UV cutoff down to the final scale,
    yielding each scale's ``FiberFamily`` with its record as it is built.

    One induction loop over j = 0..J.  The incoming vector is the vacuum
    at scale 0 and, at every later scale, the previous vector projected
    through the contour of radius mu * sigma_j centered at the previous
    energy (using the bridge Hamiltonian built from the previous gradient).
    Each scale then solves its fiber Hamiltonian on its sector and
    evaluates the gradient; past scale 0 the projected vector is re-dressed
    with one combined Weyl displacement.  The solves form one chain of
    started Davidson solves of two pairs each, the ground pair and the gap
    the record keeps: scale 0's one-state sector solve starts from the
    vacuum, each next-sector solve from its scale's ground state, and each
    later sector solve from the previous scale's next-sector vector.

    Each record is appended to ``state.records`` before it is yielded with
    its family, which keeps its factors, their sector restrictions and
    the frame factors whose Pi centred the record; the step's bridge
    operator, H(P) and the projection's Lanczos spaces are gone by then.
    The generator drops the family when it resumes, so a consumer that
    drops it too holds one scale's operators at a time.
    """
    start = state.basis.vacuum()
    for j in range(state.params.n_scales + 1):
        family, rec, start = _cascade_step(state, j, start, contour_nodes)
        state.records.append(rec)
        yield family, rec
        del family


def _cascade_step(state: CascadeState, j: int, start: np.ndarray,
                  contour_nodes: int):
    """Scale j of the induction: (family, record, the next scale's start)."""
    params, grid, basis = state.params, state.grid, state.basis
    cut = params.cutoffs
    family = FiberFamily(params, grid, basis, j)
    if j == 0:
        # the induction starts from the vacuum at the UV cutoff
        phi_hat = basis.vacuum()
    else:
        prev = state.records[-1]
        try:
            k_hat = assemble_intermediate_hamiltonian(
                family, prev.grad_energy, prev.gamma_shift)
            contour = Contour(prev.energy, params.mu * cut.sigma(j),
                              contour_nodes)
            phi_hat, nodes_used, defect = contour_project_checked(
                k_hat, contour, prev.phi)
        except ContourError as exc:
            raise CascadeError(f"scale {j}: {exc}") from exc
        del k_hat   # the bridge operator serves the projection only

    h = family.h(params.p_total)
    try:
        energy, psi, gap_sector = sector_ground(params, grid, basis, j,
                                                h_op=h, pairs=2, start=start)
    except SolverError as exc:
        raise CascadeError(f"scale {j}: sector solve: {exc}") from exc
    if gap_sector < 1e-12:
        raise CascadeError(
            f"scale {j}: degenerate ground state, gap {gap_sector}")
    grad = family.gradient(psi)

    phi, step = phi_hat, {}
    if j > 0:
        bridge = combined_displacement(grad, prev.grad_energy, grid,
                                       range(j), params.alpha)
        try:
            phi, wdefect = weyl_apply(bridge, basis, phi_hat)
        except ArithmeticError as exc:
            raise CascadeError(f"scale {j}: {exc}") from exc
        step = dict(
            step_norm=float(np.linalg.norm(phi_hat - prev.phi)),
            energy_shift=prev.energy - energy,
            grad_shift=float(np.linalg.norm(grad - prev.grad_energy)),
            projector_nodes=nodes_used, projector_defect=defect,
            weyl_defect=wdefect)

    # the frame's Pi, kept in the family for the frame polish and probes
    _, shift, orth = family.frame(grad).center(phi)
    gap_next, next_start = np.nan, None
    if j < params.n_scales:
        # the ground state of H_j on sector j + 1 starts scale j + 1
        try:
            _, next_start, gap_next = sector_ground(
                params, grid, basis, j + 1, h_op=h, pairs=2, start=psi)
        except SolverError as exc:
            raise CascadeError(
                f"scale {j}: next-sector solve: {exc}") from exc
    rec = ScaleRecord(
        j=j, sigma=cut.sigma(j), energy=energy, grad_energy=grad,
        gap_sector=gap_sector, gap_next_sector=gap_next,
        psi=psi, phi=phi, phi_norm=float(np.linalg.norm(phi)),
        phi_hat_norm=float(np.linalg.norm(phi_hat)),
        gamma_shift=shift, gamma_orth=orth, **step)
    return family, rec, next_start


def run_cascade(params: ModelParams, grid: ModeGrid, basis: FockBasis, *,
                contour_nodes: int = CONTOUR_NODES,
                allow_invalid: bool = False) -> CascadeState:
    """The whole cascade: ``open_cascade``, then every scale of
    ``cascade_scales``, each family dropped as soon as it is yielded."""
    state = open_cascade(params, grid, basis, allow_invalid=allow_invalid)
    deque(cascade_scales(state, contour_nodes=contour_nodes), maxlen=0)
    return state


@dataclass
class ConvergenceReport:
    """Log-linear decay fits of the cascade diagnostics."""

    scales: np.ndarray
    step_norms: np.ndarray
    energy_shifts: np.ndarray
    grad_shifts: np.ndarray
    step_exponent: float
    energy_exponent: float
    shift_constants: np.ndarray
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


def _loglinear_slope(j: np.ndarray, y: np.ndarray) -> float:
    mask = y > 0.0
    if mask.sum() < 2:
        return np.inf
    return float(-np.polyfit(j[mask], np.log(y[mask]), 1)[0])


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

    step_exp = _loglinear_slope(j, steps)
    energy_exp = _loglinear_slope(j, de)
    with np.errstate(divide="ignore", invalid="ignore"):
        c1 = de / (alpha * eps ** (j - 1)) if alpha > 0 \
            else np.full(len(de), np.nan)
    return ConvergenceReport(
        scales=j, step_norms=steps, energy_shifts=de, grad_shifts=dg,
        step_exponent=step_exp, energy_exponent=energy_exp,
        shift_constants=c1, delta=delta)


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
        row = [r.sigma, r.energy, *r.grad_energy, r.gap_sector,
               r.gap_next_sector, r.phi_norm, r.phi_hat_norm, r.step_norm,
               r.energy_shift, r.grad_shift, *r.gamma_shift,
               np.max(np.abs(r.gamma_orth))]
        cells = [str(r.j)] + [repr(float(v)) for v in row] + [
            str(int(r.projector_nodes)), repr(float(r.projector_defect)),
            repr(float(r.weyl_defect))]
        buf.write(",".join(cells) + "\n")
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
    """The vector of a sidecar; ``ValueError`` for anything else."""
    def header(fh, fmt):
        raw = fh.read(struct.calcsize(fmt))
        if len(raw) != struct.calcsize(fmt):
            raise ValueError(f"{path}: truncated header")
        return struct.unpack(fmt, raw)[0]

    with open(path, "rb") as fh:
        if fh.read(4) != _SIDECAR_MAGIC:
            raise ValueError(f"{path}: bad magic, not a vector sidecar")
        version = header(fh, "<I")
        if version != _SIDECAR_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        dim = header(fh, "<Q")
        # checked before reading: a huge dim must not size the read
        if 8 * dim > os.fstat(fh.fileno()).st_size - fh.tell():
            raise ValueError(f"{path}: truncated payload")
        data = np.frombuffer(fh.read(8 * dim), dtype="<f8")
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the payload")
        return data.astype(float)
