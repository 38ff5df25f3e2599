"""Physics outputs and identity probes: energy gradients, dispersion
curvature by three independent routes, the effective-mass scan, and the
soft-photon / pull-through / energy-slope / resolvent-bound probes.

The three curvature routes are
  * finite differences of the ground energy over the total momentum
    (5-point stencil, fresh solves),
  * the direct resolvent route: 1 - 2 <Y psi, X psi> with X the momentum
    derivative of the fiber Hamiltonian and Y the clockwise contour
    integral of R X R around the ground energy,
  * the displaced route: the same quantity evaluated in the canonical
    frame with the mean-zero momentum observable replacing X, together
    with its single-resolvent reduction.

For an exact eigenpair the first two agree to quadrature precision; the
displaced route deviates only by basis-truncation effects, and that
agreement is the laboratory's headline measurement.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .bogoliubov import (center_operators, displaced_momentum_ops,
                         weyl_vacuum_expectation)
from .cascade import (CascadeError, CascadeState, SolverOptions,
                      run_cascade, sector_ground)
from .fock import FockBasis, creation_sum, ladder
from .hamiltonian import (ModelParams, assemble_displaced_hamiltonian,
                          assemble_h_fiber, dispersion_gradient_ops,
                          field_momentum_ops, slice_marginal_coeffs)
from .modes import ModeGrid, ParameterError
from .spectral import (Contour, ResolventSolver, contour_sum, dense_spectrum,
                       resolvent_sandwich)


def momentum_axis(p: np.ndarray) -> int:
    """Coordinate axis of an axis-aligned momentum (0 for zero momentum).

    Curvature formulas are evaluated along a coordinate axis; off-axis
    momenta are rejected rather than silently rotated, because a general
    rotation does not map the discrete grid to itself.
    """
    p = np.asarray(p, dtype=float)
    nz = np.nonzero(p)[0]
    if len(nz) == 0:
        return 0
    if len(nz) > 1:
        raise ParameterError(
            f"momentum {p} is not axis-aligned; curvature routes need "
            "P = p * unit-axis")
    return int(nz[0])


def energy_gradient_fh(psi: np.ndarray, params: ModelParams, grid: ModeGrid,
                       basis: FockBasis, j: int, p=None,
                       residual_tol: float | None = None) -> np.ndarray:
    """Ground-energy gradient from the eigenvector expectation.

    grad E = P - <Pf - sqrt(alpha) A>_psi, exact for an exact eigenpair of
    the (analytic in P) truncated operator family; one operator-vector
    product per component.
    """
    p = params.p_total if p is None else np.asarray(p, dtype=float)
    psi = np.asarray(psi, dtype=float)
    nrm2 = float(psi @ psi)
    if nrm2 <= 0.0:
        raise ParameterError("gradient of an empty state")
    if residual_tol is not None:
        h = assemble_h_fiber(params, grid, basis, j, p=p)
        e = psi @ (h @ psi) / nrm2
        res = np.linalg.norm(h @ psi - e * psi) / np.sqrt(nrm2)
        if res > residual_tol:
            raise ParameterError(
                f"stale input: eigen-residual {res:.2e} above "
                f"{residual_tol:.1e}")
    beta = field_momentum_ops(params, grid, basis, j)
    return np.array([p[i] - psi @ (beta[i] @ psi) / nrm2 for i in range(3)])


def energy_gradient_fd(params: ModelParams, grid: ModeGrid, basis: FockBasis,
                       j: int, step: float = 1e-3, p=None,
                       opts: SolverOptions | None = None) -> np.ndarray:
    """Central-difference gradient; each energy is a fresh sector solve."""
    opts = opts or SolverOptions()
    p = params.p_total if p is None else np.asarray(p, dtype=float)
    out = np.zeros(3)
    for i in range(3):
        dp = np.zeros(3)
        dp[i] = step
        e_plus, _, _ = sector_ground(params, grid, basis, j, opts, p=p + dp)
        e_minus, _, _ = sector_ground(params, grid, basis, j, opts, p=p - dp)
        out[i] = (e_plus - e_minus) / (2.0 * step)
    return out


def dispersion_curvature_fd(params: ModelParams, grid: ModeGrid,
                            basis: FockBasis, j: int, step: float = 5e-3,
                            p=None,
                            opts: SolverOptions | None = None) -> float:
    """5-point second derivative of E along the momentum axis."""
    opts = opts or SolverOptions()
    p = params.p_total if p is None else np.asarray(p, dtype=float)
    axis = momentum_axis(p)
    unit = np.zeros(3)
    unit[axis] = 1.0

    def energy(t: float) -> float:
        e, _, _ = sector_ground(params, grid, basis, j, opts,
                                p=p + t * unit)
        return e

    e0, _, _ = sector_ground(params, grid, basis, j, opts, p=p)
    return (-energy(2 * step) + 16 * energy(step) - 30 * e0
            + 16 * energy(-step) - energy(-2 * step)) / (12 * step ** 2)


def _route_contour(params: ModelParams, j: int, energy: float, gap: float,
                   opts: SolverOptions,
                   contour: Contour | None = None) -> Contour:
    """Contour for at-scale curvature routes: centered on the ground energy.

    A given contour keeps its radius and node count.  Otherwise the radius
    defaults to half the minus-fraction of the running cutoff; when the
    measured sector gap is known and larger, 0.45 * gap is used instead for
    better conditioning (any radius inside the gap encloses only the ground
    state and yields the same integral).
    """
    if contour is not None:
        return Contour(energy, contour.radius, contour.nodes)
    radius = 0.5 * params.rho_minus * params.cutoffs.sigma(j)
    if np.isfinite(gap) and gap > 0.0:
        radius = max(radius, 0.45 * gap)
    return Contour(energy, radius, opts.route_nodes)


def dispersion_curvature_direct(params: ModelParams, grid: ModeGrid,
                                basis: FockBasis, j: int,
                                psi: np.ndarray | None = None,
                                energy: float | None = None,
                                gap: float = np.nan,
                                opts: SolverOptions | None = None,
                                h_op=None, contour: Contour | None = None,
                                solver: ResolventSolver | None = None) -> float:
    """Curvature from the direct resolvent route in the bare frame.

    1 - 2 <oint_cw R [dH/dP] R psi dz / 2 pi i, [dH/dP] psi> at the
    momentum axis, with psi the normalized scale-j ground state.  Exact for
    the truncated model up to quadrature, which makes it the referee for
    the displaced-frame route.
    """
    opts = opts or SolverOptions()
    if psi is None or energy is None:
        energy, psi, gap = sector_ground(params, grid, basis, j, opts,
                                         h_op=h_op)
    psi = psi / np.linalg.norm(psi)
    axis = momentum_axis(params.p_total)
    h = assemble_h_fiber(params, grid, basis, j) if h_op is None else h_op
    x_op = dispersion_gradient_ops(params, grid, basis, j)[axis]
    cont = _route_contour(params, j, energy, gap, opts, contour)
    solver = solver or opts.make_solver(h)
    return 1.0 - 2.0 * resolvent_sandwich(h, cont, x_op, psi, solver)


@dataclass
class DisplacedFrame:
    """Self-consistent canonical frame at one scale.

    The shift is iterated to its fixed point: the frame Hamiltonian built
    from it has ``phi`` as ground state, and the centered momentum
    observable has exactly zero expectation in ``phi``.
    """

    j: int
    grad_energy: np.ndarray
    k_op: sp.csr_matrix = field(repr=False)
    offset: float = 0.0
    energy: float = np.nan
    gap: float = np.nan
    phi: np.ndarray = field(default=None, repr=False)
    pi_ops: list = field(default=None, repr=False)
    gamma_ops: list = field(default=None, repr=False)
    gamma_shift: np.ndarray = field(default_factory=lambda: np.zeros(3))
    orth: np.ndarray = field(default_factory=lambda: np.zeros(3))


def displaced_frame_ground(params: ModelParams, grid: ModeGrid,
                           basis: FockBasis, j: int,
                           grad_energy: np.ndarray,
                           opts: SolverOptions | None = None,
                           gamma_start: np.ndarray | None = None,
                           max_polish: int = 5) -> DisplacedFrame:
    """Assemble the canonical frame and polish the shift to self-consistency.

    Starting from the closed-form chain value P - grad E - <W beta W*>_vac,
    alternate (ground state of K(shift)) and (shift = expectation of the
    displaced momentum observable) until the shift is stationary.  The
    iteration contracts fast because the frame operator depends on the
    shift only quadratically.
    """
    opts = opts or SolverOptions()
    g = np.asarray(grad_energy, dtype=float)
    pi = displaced_momentum_ops(params, grid, basis, j, g)
    if gamma_start is None:
        gamma = params.p_total - g - weyl_vacuum_expectation(
            params, grid, j, g)
    else:
        gamma = np.asarray(gamma_start, dtype=float).copy()
    for _ in range(max_polish):
        k_op, offset = assemble_displaced_hamiltonian(
            params, grid, basis, j, g, gamma)
        energy, phi, gap = sector_ground(params, grid, basis, j, opts,
                                         h_op=k_op)
        new = np.array([phi @ (pi[i] @ phi) for i in range(3)])
        move = float(np.max(np.abs(new - gamma)))
        gamma = new
        if move < 1e-13:
            break
    # centering on the solved ground state is exact by construction; the
    # residual shift drift below the fixed-point tolerance only moves the
    # operator's scalar part
    gamma_ops, shift = center_operators(pi, phi)
    orth = np.array([(phi @ (gamma_ops[i] @ phi)) / (phi @ phi)
                     for i in range(3)])
    return DisplacedFrame(j=j, grad_energy=g, k_op=k_op, offset=offset,
                          energy=energy, gap=gap, phi=phi, pi_ops=pi,
                          gamma_ops=gamma_ops, gamma_shift=shift, orth=orth)


def dispersion_curvature_displaced(params: ModelParams, grid: ModeGrid,
                                   basis: FockBasis, j: int,
                                   grad_energy: np.ndarray | None = None,
                                   frame: DisplacedFrame | None = None,
                                   opts: SolverOptions | None = None,
                                   orth_tol: float = 1e-10,
                                   contour: Contour | None = None):
    """Curvature from the displaced-frame route, both forms.

    Evaluates 1 - 2 <oint R Gamma R phi, Gamma phi> with the centered
    momentum observable Gamma and the frame ground state phi, and the
    single-resolvent reduction 1 + (1/pi i) oint dzbar (E-zbar)^{-1}
    <Gamma R Gamma phi, phi>; returns (double_form, reduced_form).  The
    centering precondition <phi, Gamma phi> = 0 is enforced before
    evaluation, since the cross terms only cancel on it.
    """
    opts = opts or SolverOptions()
    if frame is None:
        if grad_energy is None:
            raise ParameterError("need a gradient or a prebuilt frame")
        frame = displaced_frame_ground(params, grid, basis, j, grad_energy,
                                       opts)
    if float(np.max(np.abs(frame.orth))) > orth_tol:
        raise ParameterError(
            f"centering violated: <phi, Gamma phi> = {frame.orth} "
            f"exceeds {orth_tol:.1e}")
    phi = frame.phi / np.linalg.norm(frame.phi)
    gamma = frame.gamma_ops[momentum_axis(params.p_total)]
    energy = frame.energy
    cont = _route_contour(params, j, energy, frame.gap, opts, contour)
    solver = opts.make_solver(frame.k_op)
    target = gamma @ phi

    def node(z):
        # R Gamma R phi, then the reduced integrand <Gamma R Gamma phi, phi>
        # over (E - z); a Krylov solver takes R phi = phi / (E - z)
        g = solver.solve(z, target)
        y = solver.solve(z, gamma @ solver.solve(z, phi)) if solver.dense \
            else g / (energy - z)
        return np.append(y, (target @ g) / (energy - z))

    acc = contour_sum(cont, node)
    sandwich = float(np.real(np.conj(acc[:-1]) @ target))
    return 1.0 - 2.0 * sandwich, 1.0 - 2.0 * float(acc[-1].real)


def cross_term_probe(params: ModelParams, grid: ModeGrid, basis: FockBasis,
                     j: int, frame: DisplacedFrame,
                     grad_component: float,
                     opts: SolverOptions | None = None,
                     contour: Contour | None = None) -> float:
    """Explicit mixed contour term of the displaced-route expansion.

    Assembles the scalar-scalar and scalar-observable pieces that the
    eigenvalue equation annihilates; the returned magnitude is pure
    quadrature-plus-residual noise when phi is the frame's ground state.
    """
    opts = opts or SolverOptions()
    phi = frame.phi / np.linalg.norm(frame.phi)
    gamma = frame.gamma_ops[momentum_axis(params.p_total)]
    energy = frame.energy
    cont = _route_contour(params, j, energy, frame.gap, opts, contour)
    solver = opts.make_solver(frame.k_op)
    target = gamma @ phi

    def node(z):
        # rows R Gamma R phi and R R phi; a Krylov solver takes
        # R phi = phi / (E - z)
        if not solver.dense:
            return np.array([solver.solve(z, target) / (energy - z),
                             phi / (energy - z) ** 2])
        a = solver.solve(z, phi)
        return np.array([solver.solve(z, gamma @ a), solver.solve(z, a)])

    sand, q2 = contour_sum(cont, node)
    # cross terms of the expanded square: scalar^2 <Q2 v, v> minus the two
    # mixed scalar/middle combinations; all vanish for an exact eigenpair.
    scalar = float(grad_component)
    cross = (scalar ** 2 * np.real(np.conj(q2) @ phi)
             - scalar * np.real(np.conj(q2) @ target)
             - scalar * np.real(np.conj(sand) @ phi))
    return float(abs(2.0 * cross))


@dataclass
class MassScanRow:
    """Per-scale outputs of one effective-mass scan point."""

    alpha: float
    j: int
    sigma: float
    p: np.ndarray
    energy: float = np.nan
    grad_fh: np.ndarray = field(default_factory=lambda: np.full(3, np.nan))
    grad_fd: np.ndarray = field(default_factory=lambda: np.full(3, np.nan))
    d2_fd: float = np.nan
    d2_direct: float = np.nan
    d2_displaced: float = np.nan
    d2_displaced_reduced: float = np.nan
    m_r: float = np.nan
    delta_hk: float = np.nan
    delta_hf: float = np.nan
    error: str = ""


SCAN_COLUMNS = [
    "alpha", "j", "sigma", "Px", "Py", "Pz", "E",
    "gE_FH_x", "gE_FH_y", "gE_FH_z", "gE_FD_x", "gE_FD_y", "gE_FD_z",
    "d2E_fd", "d2E_H", "d2E_K", "m_r", "delta_HK", "delta_HF", "error",
]


def scan_csv(rows: list[MassScanRow]) -> str:
    buf = io.StringIO()
    buf.write(",".join(SCAN_COLUMNS) + "\n")
    for r in rows:
        cells = [repr(float(r.alpha)), str(r.j), repr(float(r.sigma))]
        cells += [repr(float(v)) for v in r.p]
        cells.append(repr(float(r.energy)))
        cells += [repr(float(v)) for v in r.grad_fh]
        cells += [repr(float(v)) for v in r.grad_fd]
        cells += [repr(float(r.d2_fd)), repr(float(r.d2_direct)),
                  repr(float(r.d2_displaced)), repr(float(r.m_r)),
                  repr(float(r.delta_hk)), repr(float(r.delta_hf)),
                  r.error]
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()


def mass_scan(params_template: ModelParams, grid: ModeGrid, basis: FockBasis,
              alphas, p_list, opts: SolverOptions | None = None,
              route_scales=None, fd_gradient: bool = True):
    """Cascade every (alpha, P) point and emit per-scale curvature rows.

    Returns (rows, cascade states keyed by (alpha, P)).  Row-level failures
    are annotated and the scan continues.  The effective mass is the
    inverse curvature of the route selected in the options.
    """
    opts = opts or SolverOptions()
    rows: list[MassScanRow] = []
    states: dict = {}
    for alpha in alphas:
        for p in p_list:
            p = np.asarray(p, dtype=float)
            params = replace(params_template, alpha=float(alpha), p_total=p)
            key = (float(alpha), tuple(p))
            try:
                state = run_cascade(params, grid, basis, opts)
            except (CascadeError, ParameterError) as exc:
                rows.append(MassScanRow(
                    alpha=float(alpha), j=-1, sigma=np.nan, p=p,
                    error=str(exc)))
                continue
            states[key] = state
            for rec in state.records:
                if route_scales is not None and rec.j not in route_scales:
                    continue
                row = MassScanRow(alpha=float(alpha), j=rec.j,
                                  sigma=rec.sigma, p=p, energy=rec.energy,
                                  grad_fh=rec.grad_energy)
                try:
                    row.d2_fd = dispersion_curvature_fd(
                        params, grid, basis, rec.j, step=opts.fd_curv_step,
                        opts=opts)
                    row.d2_direct = dispersion_curvature_direct(
                        params, grid, basis, rec.j, psi=rec.psi,
                        energy=rec.energy, gap=rec.gap_sector, opts=opts)
                    frame = displaced_frame_ground(
                        params, grid, basis, rec.j, rec.grad_energy, opts,
                        gamma_start=rec.gamma_shift)
                    row.d2_displaced, row.d2_displaced_reduced = \
                        dispersion_curvature_displaced(
                            params, grid, basis, rec.j, frame=frame,
                            opts=opts)
                    if fd_gradient:
                        row.grad_fd = energy_gradient_fd(
                            params, grid, basis, rec.j,
                            step=opts.fd_grad_step, opts=opts)
                    chosen = {"displaced": row.d2_displaced,
                              "direct": row.d2_direct,
                              "fd": row.d2_fd}[opts.mass_route]
                    row.m_r = 1.0 / chosen
                    row.delta_hk = abs(row.d2_direct - row.d2_displaced)
                    row.delta_hf = abs(row.d2_direct - row.d2_fd)
                except (CascadeError, ParameterError, RuntimeError) as exc:
                    row.error = str(exc)
                rows.append(row)
    return rows, states


def scan_tail_summary(rows: list[MassScanRow], delta: float = 0.2) -> dict:
    """Last-scale curvature per (alpha, P) family plus a geometric tail
    estimate from the successive-scale differences."""
    families: dict = {}
    for r in rows:
        if r.error or not np.isfinite(r.d2_displaced):
            continue
        families.setdefault((r.alpha, tuple(r.p)), []).append(r)
    out = {}
    for key, fam in families.items():
        fam = sorted(fam, key=lambda r: r.j)
        d2 = np.array([r.d2_displaced for r in fam])
        entry = {"last_scale_value": float(d2[-1]), "tail_estimate": 0.0}
        if len(d2) >= 2:
            diff = abs(d2[-1] - d2[-2])
            ratio = (fam[-1].sigma / fam[-2].sigma) ** (1.0 - 2.0 * delta)
            entry["tail_estimate"] = float(diff * ratio / (1.0 - ratio)) \
                if 0.0 < ratio < 1.0 else float(diff)
        out[key] = entry
    return out


@dataclass
class SoftPhotonReport:
    """Per-mode annihilation norms scaled to the soft-photon bound shape."""

    mode_index: np.ndarray
    knorm: np.ndarray
    b_norm: np.ndarray
    scaled_constant: np.ndarray
    empirical_c: float


def soft_photon_probe(psi: np.ndarray, params: ModelParams, grid: ModeGrid,
                      basis: FockBasis, j: int) -> SoftPhotonReport:
    """Empirical constant in ||b_m psi|| <= C sqrt(alpha w_m) / |k_m|^(3/2).

    Scans the active modes of a normalized scale-j ground state; the
    scaled constants should stay of one size across modes and scales.
    """
    psi = np.asarray(psi, dtype=float)
    psi = psi / np.linalg.norm(psi)
    active = np.nonzero(grid.shell < j)[0]
    b_norms = np.zeros(len(active))
    scaled = np.zeros(len(active))
    root = np.sqrt(params.alpha)
    for i, m in enumerate(active):
        ann, _ = ladder(basis, int(m))
        b_norms[i] = np.linalg.norm(ann @ psi)
        if root > 0.0:
            scaled[i] = (b_norms[i] * grid.knorm[m] ** 1.5
                         / (root * np.sqrt(grid.weight[m])))
    c_emp = float(scaled.max()) if len(scaled) else 0.0
    return SoftPhotonReport(mode_index=active, knorm=grid.knorm[active],
                            b_norm=b_norms, scaled_constant=scaled,
                            empirical_c=c_emp)


def _pull_through_pair(psi, energy, params, grid, basis, j, m,
                       opts: SolverOptions):
    k_vec = grid.k[m]
    knorm = float(grid.knorm[m])
    ann, _ = ladder(basis, int(m))
    lhs = ann @ psi
    h_shift = assemble_h_fiber(params, grid, basis, j,
                               p=params.p_total - k_vec)
    x_ops = dispersion_gradient_ops(params, grid, basis, j)
    w = sum(grid.eps_vec[m, i] * (x_ops[i] @ psi) for i in range(3))
    solver = opts.make_solver(h_shift)
    x = solver.solve(energy - knorm, w)
    rhs = -np.sqrt(params.alpha * grid.weight[m] / knorm) * np.real(x)
    return lhs, rhs


def pull_through_probe(psi: np.ndarray, energy: float, params: ModelParams,
                       grid: ModeGrid, basis: FockBasis, j: int, m: int,
                       opts: SolverOptions | None = None) -> float:
    """Relative defect of the pull-through identity for one active mode.

    b_m psi = -sqrt(alpha w_m / |k_m|) (H(P-k_m) + |k_m| - E)^{-1}
              (eps_m . dH/dP) psi

    holds exactly in the untruncated algebra; the measured residual
    reflects occupation-cap truncation only.
    """
    opts = opts or SolverOptions()
    if grid.shell[m] >= j:
        raise ParameterError(f"mode {m} is inactive at scale {j}")
    lhs, rhs = _pull_through_pair(psi, energy, params, grid, basis, j, m,
                                  opts)
    ln = np.linalg.norm(lhs)
    if ln == 0.0:
        return 0.0 if np.linalg.norm(rhs) == 0.0 else np.inf
    return float(np.linalg.norm(lhs - rhs) / ln)


def pull_through_summary(params: ModelParams, grid: ModeGrid,
                         basis: FockBasis, j: int,
                         psi: np.ndarray | None = None,
                         energy: float | None = None,
                         opts: SolverOptions | None = None):
    """Norm-aggregated pull-through residual over all active modes.

    Returns (aggregate, per-mode residual array); the aggregate weights
    each mode by its annihilation norm, so decoupled modes cannot dominate
    through 0/0 ratios.
    """
    opts = opts or SolverOptions()
    if psi is None or energy is None:
        energy, psi, _ = sector_ground(params, grid, basis, j, opts)
    active = np.nonzero(grid.shell < j)[0]
    diff2 = 0.0
    lhs2 = 0.0
    per_mode = np.zeros(len(active))
    for i, m in enumerate(active):
        lhs, rhs = _pull_through_pair(psi, energy, params, grid, basis, j,
                                      int(m), opts)
        d2 = float(np.linalg.norm(lhs - rhs) ** 2)
        l2 = float(np.linalg.norm(lhs) ** 2)
        diff2 += d2
        lhs2 += l2
        per_mode[i] = np.sqrt(d2 / l2) if l2 > 0.0 else 0.0
    aggregate = np.sqrt(diff2 / lhs2) if lhs2 > 0.0 else 0.0
    return float(aggregate), per_mode


def energy_lipschitz_probe(params: ModelParams, grid: ModeGrid,
                           basis: FockBasis, j: int,
                           opts: SolverOptions | None = None):
    """Empirical slope constant sup_k (E(P) - E(P-k)) / |k| on the grid.

    Fresh ground solve per distinct grid momentum; the bound's constant
    tends to the free-theory value (below 1/3 inside the momentum ball) as
    the coupling vanishes.  Returns (constant, table of (|k|, ratio)).
    """
    opts = opts or SolverOptions()
    e0, _, _ = sector_ground(params, grid, basis, j, opts)
    seen = set()
    table = []
    for m in range(grid.n_modes):
        key = tuple(np.round(grid.k[m], 12))
        if key in seen:
            continue
        seen.add(key)
        ek, _, _ = sector_ground(params, grid, basis, j, opts,
                                 p=params.p_total - grid.k[m])
        table.append((float(grid.knorm[m]), float((e0 - ek)
                                                  / grid.knorm[m])))
    const = max(r for _, r in table)
    return float(const), table


def curvature_momentum_quotients(params: ModelParams, grid: ModeGrid,
                                 basis: FockBasis, j: int, p_magnitudes,
                                 opts: SolverOptions | None = None):
    """Difference quotients of the curvature across a momentum grid.

    Reported, never asserted: the limiting curvature is expected to be
    Hoelder in P with an unspecified exponent, so the table of
    |d2E(p') - d2E(p)| / |p' - p| quotients is diagnostic output only.
    Returns (p values, curvatures, quotients).
    """
    opts = opts or SolverOptions()
    ps = np.asarray(sorted(p_magnitudes), dtype=float)
    curvatures = []
    for pmag in ps:
        local = replace(params, p_total=np.array([pmag, 0.0, 0.0]))
        curvatures.append(dispersion_curvature_direct(local, grid, basis, j,
                                                      opts=opts))
    curvatures = np.array(curvatures)
    quotients = np.abs(np.diff(curvatures)) / np.diff(ps)
    return ps, curvatures, quotients


@dataclass
class BoundsReport:
    """Measured constants of the resolvent-expectation bound family."""

    scales: list
    c1: list
    c2: list
    c3: list
    c4: list
    c5: list
    resolvent_sq_expectation: list
    resolvent_sq_constant: list
    delta: float
    skipped: str = ""

    def table(self) -> str:
        buf = io.StringIO()
        if self.skipped:
            buf.write(f"  [skipped: {self.skipped}]\n")
        buf.write("  j    C1         C2'        C3         C4         C5"
                  "         <R(z)^2 expect>  scaled const\n")
        for i, j in enumerate(self.scales):
            def cell(xs):
                return f"{xs[i]:10.4g}" if i < len(xs) and \
                    np.isfinite(xs[i]) else "     --   "
            buf.write(f"  {j}  {cell(self.c1)} {cell(self.c2)} "
                      f"{cell(self.c3)} {cell(self.c4)} {cell(self.c5)} "
                      f"{cell(self.resolvent_sq_expectation)} "
                      f"{cell(self.resolvent_sq_constant)}\n")
        return buf.getvalue()


def resolvent_bound_probes(state: CascadeState, delta: float = 0.2,
                           dense_limit: int = 4000,
                           opts: SolverOptions | None = None) -> BoundsReport:
    """Measure the bound family relating resolvent expectations.

    Absolute-value resolvents need the full eigendecomposition of the frame
    Hamiltonian, so these probes are restricted to dense-oracle sizes; the
    energy- and gradient-shift constants come straight from the cascade
    records.
    """
    opts = opts or SolverOptions()
    params, grid, basis = state.params, state.grid, state.basis
    alpha, eps = params.alpha, params.epsilon
    axis = momentum_axis(params.p_total)
    cut = params.cutoffs

    c1, c2, c3, c4, c5, thq, thr0, scales = [], [], [], [], [], [], [], []
    skipped = ""
    for rec in state.records[:-1]:
        nxt = state.records[rec.j + 1]
        scales.append(rec.j)
        if alpha > 0:
            c1.append(abs(nxt.energy_shift) / (alpha * eps ** rec.j))
            denom = nxt.step_norm + alpha ** 0.25 * eps ** (rec.j + 1)
            c2.append(nxt.grad_shift / denom if denom > 0 else np.nan)
        else:
            c1.append(np.nan)
            c2.append(np.nan)

        if basis.size > dense_limit:
            skipped = (f"dimension {basis.size} above dense limit "
                       f"{dense_limit}; absolute-value resolvents need the "
                       "full eigendecomposition")
            c3.append(np.nan), c4.append(np.nan), c5.append(np.nan)
            thq.append(np.nan), thr0.append(np.nan)
            continue

        k_op, _ = assemble_displaced_hamiltonian(
            params, grid, basis, rec.j, rec.grad_energy, rec.gamma_shift)
        vals, vecs = dense_spectrum(k_op, dense_limit)
        pi = displaced_momentum_ops(params, grid, basis, rec.j,
                                    rec.grad_energy)
        eye = sp.identity(basis.size, format="csr")
        gamma_ax = pi[axis] - rec.gamma_shift[axis] * eye
        w3 = gamma_ax @ rec.phi
        lam_coeff = slice_marginal_coeffs(params, grid, rec.j,
                                          rec.grad_energy) \
            if rec.j < params.n_scales else None
        w4 = creation_sum(basis, lam_coeff[axis]) @ w3 \
            if lam_coeff is not None else None

        radius = params.mu * cut.sigma(rec.j + 1)
        best3 = best4 = best5 = np.nan
        bestq = 0.0
        for angle in (0.0, 0.5 * np.pi, np.pi):
            z = rec.energy + radius * np.exp(1j * angle)
            inv = 1.0 / (vals - z)

            def ratios(w):
                wt = vecs.T @ w
                plain = np.abs(np.sum(np.abs(wt) ** 2 * inv))
                absval = np.sum(np.abs(wt) ** 2 / np.abs(vals - z))
                plain2 = np.abs(np.sum(np.abs(wt) ** 2 * inv ** 2))
                absval2 = np.sum(np.abs(wt) ** 2 / np.abs(vals - z) ** 2)
                return absval / plain if plain > 0 else np.nan, \
                    absval2 / plain2 if plain2 > 0 else np.nan, plain2

            r3, r5, q = ratios(w3)
            best3, best5 = np.fmax(best3, r3), np.fmax(best5, r5)
            bestq = max(bestq, q)
            if w4 is not None:
                r4, _, _ = ratios(w4)
                best4 = np.fmax(best4, r4)
        c3.append(float(best3))
        c4.append(float(best4))
        c5.append(float(best5))
        thq.append(bestq)
        thr0.append(bestq * np.sqrt(alpha) * eps ** (2 * rec.j * delta)
                    if alpha > 0 else 0.0)
    return BoundsReport(scales=scales, c1=c1, c2=c2, c3=c3, c4=c4, c5=c5,
                        resolvent_sq_expectation=thq, resolvent_sq_constant=thr0, delta=delta,
                        skipped=skipped)
