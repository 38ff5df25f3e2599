"""Physics outputs and identity probes: energy gradients, dispersion
curvature by three independent routes, the effective-mass scan, and the
soft-photon / pull-through / energy-slope / resolvent-bound probes.

The three curvature routes are
  * finite differences of the ground energy over the total momentum
    (5-point stencil of fresh solves around the cascade's energy),
  * the direct resolvent route: 1 - 2 <x, X psi> with X the momentum
    derivative of the fiber Hamiltonian and x = (H - E)^{-1} Q X psi the
    reduced resolvent on the complement of psi (Q = 1 - psi psi^T).  By
    the residue at E it is the clockwise contour integral of R X R psi
    around the ground energy; one projected CG solves it as the
    Sternheimer equation,
  * the displaced route: the same quantity evaluated in the canonical
    frame with the mean-zero momentum observable replacing X, together
    with its single-resolvent reduction, which is the same value, and the
    cross term (the mixed scalar-times-observable contour terms the
    eigenvalue equation annihilates), all three from one such solve.

For an exact eigenpair the first two agree up to the stencil's error; the
displaced route deviates only by basis-truncation effects, and that
agreement is the laboratory's headline measurement.  ``scale_routes``
evaluates all three routes at one cascade scale and returns their five
numbers; ``mass-scan`` and ``verify`` both go through it.

Every route and probe of a scale takes that scale's ``FiberFamily`` and
its cascade ``ScaleRecord``, checks that the two belong to one scale, and
evaluates the family at its parameters' P, starting each solve from what
the record holds; the displaced route takes the ``DisplacedFrame``
polished on the family.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field, replace

import numpy as np

from .cascade import (CONTOUR_NODES, CascadeError, ScaleRecord,
                      cascade_scales, open_cascade, sector_ground)
from .fock import FockBasis, annihilate, creation_sum
from .hamiltonian import (FactorOp, FiberFamily, ModelParams,
                          slice_marginal_coeffs)
from .modes import ModeGrid, ParameterError
from .spectral import ResolventSolver, shifted_solve


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


def _ground_energy(family: FiberFamily, rec: ScaleRecord, p) -> float:
    """Sector ground energy of the family's H(p), from a one-pair solve
    started from the record's ground state ``psi`` at the family's P."""
    e, _, _ = sector_ground(family.params, family.grid, family.basis,
                            family.j, p=p, h_op=family.h(p), pairs=1,
                            start=rec.psi)
    return e


def _check_scale(family: FiberFamily, rec: ScaleRecord):
    if family.j != rec.j:
        raise ParameterError(
            f"family of scale {family.j} given for the record of scale "
            f"{rec.j}")


def energy_gradient_fd(family: FiberFamily, rec: ScaleRecord,
                       step: float = 1e-3) -> np.ndarray:
    """Central-difference gradient at the family's P; each energy is a
    fresh one-pair sector solve started from the record's ``psi``.
    ``FiberFamily.gradient`` is the expectation form it checks."""
    _check_scale(family, rec)
    p = family.params.p_total
    return np.array([(_ground_energy(family, rec, p + dp)
                      - _ground_energy(family, rec, p - dp)) / (2.0 * step)
                     for dp in step * np.eye(3)])


#: Momentum step of the 5-point curvature stencil.
FD_CURVATURE_STEP = 5e-3


def dispersion_curvature_fd(family: FiberFamily, rec: ScaleRecord) -> float:
    """5-point second derivative of E along the momentum axis at the
    family's P, with step ``FD_CURVATURE_STEP``.

    The center is the record's energy; the four off-center points are
    one-pair solves started from the record's ``psi``.
    """
    _check_scale(family, rec)
    p = family.params.p_total
    unit = np.eye(3)[momentum_axis(p)]
    h = FD_CURVATURE_STEP

    def energy(t: float) -> float:
        return _ground_energy(family, rec, p + t * unit)

    return (-energy(2 * h) + 16 * energy(h) - 30 * rec.energy
            + 16 * energy(-h) - energy(-2 * h)) / (12 * h ** 2)


def dispersion_curvature_direct(family: FiberFamily,
                                rec: ScaleRecord) -> float:
    """Curvature from the direct resolvent route in the bare frame.

    1 - 2 <x, X psi> at the family's P along its axis, X = P - beta the
    momentum derivative of H(P), psi the record's normalized ground state
    and x = (H - E)^{-1} Q X psi its reduced resolvent, one projected CG
    solve (``shifted_solve``) preconditioned down to the record's sector
    gap.  Exact for the truncated model up to the solve's residual, which
    makes it the referee for the displaced-frame route.
    """
    _check_scale(family, rec)
    params = family.params
    # H(P) and beta map sector j, where psi lives, into itself
    idx = family.basis.sector_indices(family.grid, family.j)
    h = family.h(params.p_total).sector(idx)
    psi = rec.psi[idx] / np.linalg.norm(rec.psi[idx])
    axis = momentum_axis(params.p_total)
    x_psi = params.p_total[axis] * psi - h.factors.apply(psi)[axis]
    x = shifted_solve(h, rec.energy, x_psi, psi=psi, gap=rec.gap_sector)
    return 1.0 - 2.0 * float(x @ x_psi)


@dataclass
class DisplacedFrame:
    """Self-consistent canonical frame at one scale, polished on ``family``.

    ``phi`` is the ground state of ``k_op``, built at the fixed point of the
    shift; ``gamma_phi`` is Gamma phi, whose expectation ``orth`` in phi is
    zero up to rounding; ``gap`` is the record's sector gap, so both routes
    floor their preconditioners at one gap.
    """

    family: FiberFamily = field(repr=False)
    grad_energy: np.ndarray
    k_op: FactorOp = field(repr=False)
    energy: float = np.nan
    gap: float = np.nan
    phi: np.ndarray = field(default=None, repr=False)
    gamma_phi: np.ndarray = field(default=None, repr=False)
    orth: np.ndarray = field(default_factory=lambda: np.zeros(3))


def displaced_frame_ground(family: FiberFamily,
                           rec: ScaleRecord) -> DisplacedFrame:
    """Assemble the canonical frame of the family's scale and P at the
    record's gradient, and polish the shift to self-consistency.

    Starting from the record's centering shift, alternate (ground state of
    K(shift)) and (shift = expectation of the displaced momentum
    observable), at most five times, until the shift is stationary; K
    depends on the shift only quadratically, so this contracts fast.  Each
    step's one-pair solve, started from the previous vector (the first
    from the record's ``phi``), is the polish's only kind of solve.
    """
    _check_scale(family, rec)
    params, grid, basis, j = family.params, family.grid, family.basis, family.j
    frame = family.frame(rec.grad_energy)
    shift, phi = rec.gamma_shift, rec.phi
    for _ in range(5):
        k_op = FactorOp(frame, shift)
        energy, phi, _ = sector_ground(params, grid, basis, j, h_op=k_op,
                                       pairs=1, start=phi)
        gamma_phi, new, orth = frame.center(phi)
        move = float(np.max(np.abs(new - shift)))
        shift = new
        if move < 1e-13:
            break
    # centering on phi is exact up to rounding; k_op, whose ground state
    # phi is, was built at the shift before the last move, and K depends on
    # the shift through -shift . Pi, so k_op is K(shift) only to within
    # that move (below 1e-13 unless the five-solve cap ended the loop)
    return DisplacedFrame(family=family, grad_energy=rec.grad_energy,
                          k_op=k_op, energy=energy, gap=rec.gap_sector,
                          phi=phi, gamma_phi=gamma_phi, orth=orth)


def dispersion_curvature_displaced(frame: DisplacedFrame):
    """Curvature from the displaced-frame route at the P and scale of the
    frame's family: (double form, reduced form, cross term) from one
    solve.

    The route runs on sector j, where phi lives and which K maps into
    itself.  The double form is 1 - 2 <oint R Gamma R phi, Gamma phi> for
    the frame ground state phi, the reduced form 1 + (1/pi i) oint dzbar
    (E-zbar)^{-1} <Gamma R Gamma phi, phi>; Gamma phi is ``gamma_phi`` over
    ||phi||, and <phi, Gamma phi> = 0 is enforced first.  By R phi = phi /
    (E - z) both integrals are 1 - 2 <x, Gamma phi> with x = (K - E)^{-1}
    Q Gamma phi the reduced resolvent on the complement of phi, one
    projected CG solve preconditioned down to the frame's gap, so the two
    forms are one value.  The cross term is the residual term |2 s <(K -
    E) phi, x>|, s = grad E along the axis, which is zero when phi is an
    eigenvector of K.  It is what the one solve reads of the mixed terms
    s^2 <R^2 phi, phi> - s <R^2 phi, Gamma phi> - s <R Gamma R phi, phi>:
    on a circle centered on E the first two are numbers times the
    trapezoid sum of (E - z)^-2, a sum of e^{-i theta} over roots of unity,
    which is zero, and it keeps the reduced resolvent of phi's own
    eigen-residual in the last.  Off the eigenvector it is not the whole
    mixed sum: with phi kicked off it on a 91-state box it read about 0.41
    of the dense double-resolvent mixed terms.  a06's bound and the 1e-8
    bound of ``verify``'s ``cross-term`` lines check this reading.
    """
    if float(np.max(np.abs(frame.orth))) > 1e-10:
        raise ParameterError(
            f"centering violated: <phi, Gamma phi> = {frame.orth} "
            "exceeds 1.0e-10")
    family = frame.family
    axis = momentum_axis(family.params.p_total)
    idx = family.basis.sector_indices(family.grid, family.j)
    phi = frame.phi[idx]
    nrm = np.linalg.norm(phi)
    phi = phi / nrm
    k_op = frame.k_op.sector(idx)
    w = frame.gamma_phi[axis][idx] / nrm
    x = shifted_solve(k_op, frame.energy, w, psi=phi, gap=frame.gap)
    value = 1.0 - 2.0 * float(x @ w)
    residual = k_op @ phi - frame.energy * phi
    cross = -float(frame.grad_energy[axis]) * float(residual @ x)
    return value, value, float(abs(2.0 * cross))


def cross_term_probe(frame: DisplacedFrame) -> float:
    """The cross term of the displaced route on ``frame``."""
    return dispersion_curvature_displaced(frame)[2]


def scale_routes(family: FiberFamily, rec: ScaleRecord):
    """The three curvature routes at one cascade scale, on that scale's
    family.

    Returns (FD curvature, direct route, double form, reduced form, cross
    term); the last three are the displaced route on the frame polished
    from the cascade's centering shift.
    """
    d2_fd = dispersion_curvature_fd(family, rec)
    d2_direct = dispersion_curvature_direct(family, rec)
    frame = displaced_frame_ground(family, rec)
    return (d2_fd, d2_direct, *dispersion_curvature_displaced(frame))


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
        values = [*r.p, r.energy, *r.grad_fh, *r.grad_fd, r.d2_fd,
                  r.d2_direct, r.d2_displaced, r.m_r, r.delta_hk, r.delta_hf]
        cells = [repr(float(r.alpha)), str(r.j), repr(float(r.sigma))] + [
            repr(float(v)) for v in values] + [r.error]
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()


def _scan_row(family: FiberFamily, rec: ScaleRecord) -> MassScanRow:
    """The scan row of one cascade scale; a route failure is the row's
    error."""
    params = family.params
    row = MassScanRow(alpha=params.alpha, j=rec.j, sigma=rec.sigma,
                      p=params.p_total, energy=rec.energy,
                      grad_fh=rec.grad_energy)
    try:
        row.d2_fd, row.d2_direct, row.d2_displaced = \
            scale_routes(family, rec)[:3]
        row.grad_fd = energy_gradient_fd(family, rec)
        row.m_r = 1.0 / row.d2_displaced
        row.delta_hk = abs(row.d2_direct - row.d2_displaced)
        row.delta_hf = abs(row.d2_direct - row.d2_fd)
    except (CascadeError, ParameterError, RuntimeError) as exc:
        row.error = str(exc)
    return row


def mass_scan(params_template: ModelParams, grid: ModeGrid, basis: FockBasis,
              alphas, p_list, contour_nodes: int = CONTOUR_NODES,
              allow_invalid: bool = False):
    """Cascade every (alpha, P) point and emit per-scale curvature rows.

    Returns the rows, in (alpha, P, scale) order.  Each scale's three
    routes and FD gradient run on the family the cascade hands over, as
    soon as the scale is built; the family goes before the next scale is
    built.  A route failure is its row's error; a cascade failure makes
    the job's rows one ``j = -1`` row with the error, and the scan
    continues.  The effective mass is the inverse curvature of the
    displaced route.  ``contour_nodes`` and ``allow_invalid`` go to the
    cascade.
    """
    rows: list[MassScanRow] = []
    for alpha in alphas:
        for p in p_list:
            p = np.asarray(p, dtype=float)
            params = replace(params_template, alpha=float(alpha), p_total=p)
            job = []
            try:
                state = open_cascade(params, grid, basis,
                                     allow_invalid=allow_invalid)
                for family, rec in cascade_scales(
                        state, contour_nodes=contour_nodes):
                    job.append(_scan_row(family, rec))
                    # the family, and the frame it keeps, go before the
                    # cascade builds the next scale
                    del family
            except (CascadeError, ParameterError, RuntimeError) as exc:
                job = [MassScanRow(alpha=float(alpha), j=-1, sigma=np.nan,
                                   p=p, error=str(exc))]
            rows.extend(job)
    return rows


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
            try:
                ratio = (fam[-1].sigma / fam[-2].sigma) ** (1.0 - 2.0 * delta)
            except OverflowError:   # past the float range: no geometric tail
                ratio = np.inf
            entry["tail_estimate"] = float(diff * ratio / (1.0 - ratio)) \
                if 0.0 < ratio < 1.0 else float(diff)
        out[key] = entry
    return out


@dataclass
class SoftPhotonReport:
    """Per-mode annihilation norms scaled to the soft-photon bound shape."""

    mode_index: np.ndarray
    b_norm: np.ndarray
    empirical_c: float


def soft_photon_probe(family: FiberFamily,
                      rec: ScaleRecord) -> SoftPhotonReport:
    """Empirical constant in ||b_m psi|| <= C sqrt(alpha w_m) / |k_m|^(3/2).

    Scans the active modes of the record's normalized ground state; the
    scaled constants should stay of one size across modes and scales.
    """
    _check_scale(family, rec)
    params, grid = family.params, family.grid
    psi = rec.psi / np.linalg.norm(rec.psi)
    active = np.nonzero(grid.active_mask(rec.j))[0]
    b_norms = np.zeros(len(active))
    scaled = np.zeros(len(active))
    root = np.sqrt(params.alpha)
    for i, m in enumerate(active):
        b_norms[i] = np.linalg.norm(annihilate(family.basis, int(m), psi))
        if root > 0.0:
            scaled[i] = (b_norms[i] * grid.knorm[m] ** 1.5
                         / (root * np.sqrt(grid.weight[m])))
    c_emp = float(scaled.max()) if len(scaled) else 0.0
    return SoftPhotonReport(mode_index=active, b_norm=b_norms,
                            empirical_c=c_emp)


def _momentum_groups(modes) -> np.ndarray:
    """``modes``, all or an active prefix, in rows of the two polarizations
    of one photon momentum: ``ModeGrid`` orders polarization innermost."""
    return np.reshape(modes, (-1, 2))


def pull_through_summary(family: FiberFamily, rec: ScaleRecord):
    """Norm-aggregated pull-through residual over the active modes of the
    family's scale, at its P, for the record's ground state.

    The pull-through identity

        b_m psi = -sqrt(alpha w_m / |k_m|) (H(P-k_m) + |k_m| - E)^{-1}
                  (eps_m . dH/dP) psi

    holds exactly in the untruncated algebra, so the residual measures
    occupation-cap truncation.  Each mode is one diagonally preconditioned
    CG solve (``shifted_solve``) at the shift E - |k|, which the
    energy-slope bound puts below the spectrum of H(P - k); one H(P - k)
    serves both polarizations of each photon momentum k.
    Returns (aggregate, per-mode relative residuals); a mode with b_m psi =
    0 reads 0 when its right-hand side vanishes too and inf otherwise.  The
    aggregate weights each mode by its annihilation norm, so decoupled
    modes cannot dominate through 0/0 ratios.  At zero coupling every mode
    reads 0 without a solve.
    """
    _check_scale(family, rec)
    params, grid = family.params, family.grid
    active = np.nonzero(grid.active_mask(family.j))[0]
    if params.alpha == 0.0:
        return 0.0, np.zeros(len(active))
    psi = rec.psi
    x_psi = params.p_total[:, None] * psi - family.factors.apply(psi)
    diff2 = lhs2 = 0.0
    per_mode = []
    for group in _momentum_groups(active):
        knorm = float(grid.knorm[group[0]])
        h = family.h(params.p_total - grid.k[group[0]])
        for m in group:
            w = sum(grid.eps_vec[m, i] * x_psi[i] for i in range(3))
            x = shifted_solve(h, rec.energy - knorm, w)
            coupling = np.sqrt(params.alpha * grid.weight[m] / knorm)
            lhs = annihilate(family.basis, m, psi)
            d2 = float(np.linalg.norm(lhs + coupling * x) ** 2)
            l2 = float(np.linalg.norm(lhs) ** 2)
            diff2 += d2
            lhs2 += l2
            per_mode.append(np.sqrt(d2 / l2) if l2 > 0.0 else
                            (0.0 if d2 == 0.0 else np.inf))
    aggregate = np.sqrt(diff2 / lhs2) if lhs2 > 0.0 else 0.0
    return float(aggregate), np.array(per_mode)


def energy_lipschitz_probe(family: FiberFamily, rec: ScaleRecord):
    """Empirical slope constant sup_k (E(P) - E(P-k)) / |k| on the grid, at
    the family's scale and P.

    E(P) is the record's energy; each E(P - k) is a fresh one-pair ground
    solve, one per distinct grid momentum, started from the record's
    ``psi``.  The bound's constant tends to the free-theory value (below
    1/3 inside the momentum ball) as the coupling vanishes.  Returns
    (constant, table of (|k|, ratio)).
    """
    _check_scale(family, rec)
    params, grid = family.params, family.grid
    table = []
    for group in _momentum_groups(np.arange(grid.n_modes)):
        m = group[0]
        ek = _ground_energy(family, rec, params.p_total - grid.k[m])
        table.append((float(grid.knorm[m]),
                      float((rec.energy - ek) / grid.knorm[m])))
    const = max(r for _, r in table)
    return float(const), table


def resolvent_bound_probes(family: FiberFamily, rec: ScaleRecord):
    """Constants (C3, C4, C5) of the resolvent-expectation bound family at
    one cascade scale below the last, on that scale's family.

    Each is the largest, over three points z of the step contour, of
    sum_n a_n / |lambda_n - z|^p over |sum_n a_n / (lambda_n - z)^p|, p = 1
    (C3) and p = 2 (C5) for w = Gamma phi, p = 1 (C4) for the slice
    operator's creation part applied to Gamma phi.  The sums run over the
    Gauss rule of w's Lanczos space in K(shift): its Ritz values lambda_n,
    weighted by ||w||^2 times their eigenvectors' squared first components,
    so a_n >= 0 and each finite constant is at least 1.  NaN where w
    vanishes, as at j = 0, where Gamma annihilates the vacuum.
    """
    _check_scale(family, rec)
    params = family.params
    axis = momentum_axis(params.p_total)
    frame = family.frame(rec.grad_energy)
    gamma_phi, shift, _ = frame.center(rec.phi)
    k_op = FactorOp(frame, shift)
    w3 = gamma_phi[axis]
    w4 = creation_sum(family.basis, slice_marginal_coeffs(
        params, family.grid, rec.j, rec.grad_energy)[axis]) @ w3
    radius = params.mu * params.cutoffs.sigma(rec.j + 1)
    points = rec.energy + radius * np.exp(0.5j * np.pi * np.arange(3))

    def ratios(w):
        space = ResolventSolver(k_op, w)
        if space.b0 == 0.0:
            return np.nan, np.nan
        space.solve(points)
        nodes, vecs = space.ritz()
        a, inv = (space.b0 * vecs[0]) ** 2, 1.0 / (nodes[:, None] - points)
        return [np.max(a @ abs(inv) ** p / abs(a @ inv ** p)) for p in (1, 2)]

    (c3, c5), (c4, _) = ratios(w3), ratios(w4)
    return c3, c4, c5
