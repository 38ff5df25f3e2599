"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Desk scale throughout: 12-48 modes, occupation caps <= 3, dense
oracles only below 4000 dimensions.  The displaced-frame agreement at the
largest scanned coupling needs the cap at 3, which pushes that one basis to
9139 states; it is handled by the iterative solver path and never touches a
dense oracle.
"""

import dataclasses

import numpy as np
import pytest

from fqed.cascade import (convergence_report, run_cascade, sector_ground,
                          validate_params)
from fqed.cli import main as cli_main
from fqed.fock import enumerate_basis
from fqed.hamiltonian import (FiberFamily, ModelParams,
                              assemble_displaced_hamiltonian,
                              assemble_h_fiber, assemble_slice_interaction)
from fqed.modes import build_grid
from fqed.observables import (dispersion_curvature_displaced,
                              displaced_frame_ground, energy_gradient_fd,
                              energy_lipschitz_probe, momentum_axis,
                              pull_through_summary, scale_routes,
                              soft_photon_probe)
from fqed.spectral import (Contour, contour_project, dense_spectrum,
                           ground_state, idempotence_defect)

# pinned acceptance tolerances
TOL_FREE_ENERGY = 1e-12
TOL_FREE_CURV = 1e-10
TOL_ORACLE_E = 1e-10
TOL_ORACLE_ANGLE = 1e-8
TOL_PROJECTOR = 1e-8
TOL_IDEMPOTENT = 2e-8
TOL_NEUMANN = 1e-6
FH_RATIO_WINDOW = (3.5, 4.5)
TOL_ROUTE_HK = 1e-5
TOL_ROUTE_FD = 1e-4
TOL_CROSS = 1e-8
TOL_CENTERING = 1e-10
STEP_EXPONENT_DELTA = 0.5
TOL_MASS_SMALL = 1e-2
TOL_PULL_THROUGH = 0.05
SOFT_STABILITY = 2.0
C_ALPHA_WINDOW = (0.28, 0.43)


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def valid_box(alpha, p, n_scales, eps=0.3):
    """Parameter box satisfying every constraint at the given coupling."""
    return ModelParams(alpha=alpha, epsilon=eps, mu=0.15, rho_minus=0.14,
                       rho_plus=0.16, c_alpha=0.35, ir_floor_c=2.5,
                       p_total=np.asarray(p, dtype=float),
                       n_scales=n_scales)


def gap_box(alpha, p):
    """Reference gap box; its fractions violate the ratio constraints by
    construction, so cascades run with the override."""
    return ModelParams(alpha=alpha, epsilon=0.3, mu=0.2, rho_minus=0.1,
                       rho_plus=0.4, c_alpha=0.35, ir_floor_c=2.5,
                       p_total=np.asarray(p, dtype=float), n_scales=4)


def curvature_rows(params, grid, basis, state):
    rows = []
    axis = momentum_axis(params.p_total)
    for rec in state.records:
        d2_fd, d2_h, d2_k, d2_kr, cross = scale_routes(
            FiberFamily(params, grid, basis, rec.j), rec)
        rows.append(dict(alpha=params.alpha, p=float(params.p_total[axis]),
                         j=rec.j, fd=d2_fd, h=d2_h, k=d2_k, kr=d2_kr,
                         cross=cross))
    return rows


@pytest.fixture(scope="module")
def boxes():
    out = {}
    p3 = valid_box(1e-3, [0.1, 0, 0], 3)
    out["grid3"] = build_grid(p3.cutoffs, 1, "octahedral6")
    out["basis3"] = enumerate_basis(out["grid3"].n_modes, 2, 2)
    out["basis3_deep"] = enumerate_basis(out["grid3"].n_modes, 3, 3)
    p4 = gap_box(1e-3, [0.2, 0, 0])
    out["grid4"] = build_grid(p4.cutoffs, 1, "octahedral6")
    out["basis4"] = enumerate_basis(out["grid4"].n_modes, 2, 2)
    p2 = ModelParams(alpha=1e-3, epsilon=0.25, mu=0.2, rho_minus=0.16,
                     rho_plus=0.4, ir_floor_c=2.5,
                     p_total=[0.1, 0, 0], n_scales=2)
    out["p2"] = p2
    out["grid2"] = build_grid(p2.cutoffs, 1, "octahedral6")
    out["basis2"] = enumerate_basis(out["grid2"].n_modes, 2, 2)
    return out


@pytest.fixture(scope="module")
def headline(boxes):
    """Curvature rows over the scanned (alpha, P) pairs, scales j <= 3.

    The two smaller couplings run at occupation cap 2; the largest needs
    cap 3 for the displaced-frame truncation error to clear the tolerance.
    """
    rows, states = [], []
    for alpha in (1e-4, 1e-3):
        for pmag in (0.05, 0.2):
            params = valid_box(alpha, [pmag, 0, 0], 3)
            state = run_cascade(params, boxes["grid3"], boxes["basis3"])
            states.append(state)
            rows += curvature_rows(params, boxes["grid3"], boxes["basis3"],
                                   state)
    for pmag in (0.05, 0.2):
        params = valid_box(5e-3, [pmag, 0, 0], 3)
        state = run_cascade(params, boxes["grid3"], boxes["basis3_deep"])
        states.append(state)
        rows += curvature_rows(params, boxes["grid3"],
                               boxes["basis3_deep"], state)
    return rows, states


@pytest.fixture(scope="module")
def gap_cascades(boxes):
    out = {}
    for alpha in (1e-4, 1e-3):
        params = gap_box(alpha, [0.2, 0, 0])
        out[alpha] = (params, run_cascade(params, boxes["grid4"],
                                          boxes["basis4"],
                                          allow_invalid=True))
    return out


def wide_contour_box(alpha, p, n_scales=3):
    """Constraint-satisfying box with a large contour fraction.

    At the largest scanned coupling the first energy shift is of order
    6 * alpha, so the step contour needs mu * epsilon above it; this corner
    of the admissible parameter region provides it.
    """
    return ModelParams(alpha=alpha, epsilon=0.32, mu=0.6, rho_minus=0.59,
                       rho_plus=0.62, c_alpha=0.35, ir_floor_c=2.5,
                       p_total=np.asarray(p, dtype=float),
                       n_scales=n_scales)


@pytest.fixture(scope="module")
def mass_rows():
    params0 = wide_contour_box(1e-3, [0.1, 0, 0])
    assert validate_params(params0).passed
    grid = build_grid(params0.cutoffs, 1, "octahedral6")
    basis = enumerate_basis(grid.n_modes, 2, 2)
    rows = {}
    states = {}
    for alpha in (1e-4, 1e-3, 1e-2):
        params = wide_contour_box(alpha, [0.1, 0, 0])
        state = run_cascade(params, grid, basis)
        states[alpha] = state
        rec = state.records[-1]
        frame = displaced_frame_ground(
            FiberFamily(params, grid, basis, rec.j), rec)
        d2_k, _, _ = dispersion_curvature_displaced(frame)
        rows[alpha] = 1.0 / d2_k
    return rows, states


def test_a01_free_theory_exactness(boxes):
    params = valid_box(0.0, [0.1, 0, 0], 3)
    grid, basis = boxes["grid3"], boxes["basis3"]
    state = run_cascade(params, grid, basis)
    worst_e = max(abs(r.energy - 0.005) for r in state.records)
    worst_g = max(np.max(np.abs(r.grad_energy - params.p_total))
                  for r in state.records)
    worst_step = max(r.step_norm for r in state.records[1:])
    rec = state.records[-1]
    d2 = scale_routes(FiberFamily(params, grid, basis, rec.j), rec)[:4]
    worst_d2 = max(abs(v - 1.0) for v in d2)
    ok = (worst_e <= TOL_FREE_ENERGY and worst_g <= TOL_FREE_ENERGY
          and worst_d2 <= TOL_FREE_CURV and worst_step <= 1e-12)
    report(1, ok, f"free theory: |E-P^2/2|={worst_e:.1e}, "
                  f"|gradE-P|={worst_g:.1e}, |d2E-1|={worst_d2:.1e}, "
                  f"steps={worst_step:.1e}")


def test_a02_oracle_equivalence(boxes):
    cases = []
    p2 = boxes["p2"]
    cases.append(assemble_h_fiber(p2, boxes["grid2"], boxes["basis2"], 2))
    p3 = valid_box(1e-3, [0.1, 0, 0], 3)
    cases.append(assemble_h_fiber(p3, boxes["grid3"], boxes["basis3"], 3))
    p4 = gap_box(1e-3, [0.2, 0, 0])
    cases.append(assemble_h_fiber(p4, boxes["grid4"], boxes["basis4"], 4))
    k_op, _ = assemble_displaced_hamiltonian(
        p3, boxes["grid3"], boxes["basis3"], 3, np.array([0.09, 0, 0]),
        np.array([0.01, 0, 0]))
    cases.append(k_op)
    worst_e = worst_angle = 0.0
    for op in cases:
        rec = ground_state(op, dense_cutoff=0)   # force the Lanczos path
        vals, vecs = dense_spectrum(op)
        worst_e = max(worst_e, abs(rec.energy - vals[0]))
        overlap = min(1.0, abs(rec.vector @ vecs[:, 0]))
        worst_angle = max(worst_angle, float(np.arccos(overlap)))
    ok = worst_e <= TOL_ORACLE_E and worst_angle <= TOL_ORACLE_ANGLE
    report(2, ok, f"Lanczos vs dense on {len(cases)} operators "
                  f"(dims <= {max(c.shape[0] for c in cases)}): "
                  f"|dE|={worst_e:.1e}, angle={worst_angle:.1e}")


def test_a03_projector_fidelity(boxes):
    params, grid, basis = boxes["p2"], boxes["grid2"], boxes["basis2"]
    idx = basis.sector_indices(grid, 2)
    h2 = assemble_h_fiber(params, grid, basis, 2)[idx][:, idx]
    h1 = assemble_h_fiber(params, grid, basis, 1)[idx][:, idx]
    e1 = ground_state(h1).energy
    contour = Contour(e1, params.mu * params.cutoffs.sigma(2), 64)
    vals, vecs = dense_spectrum(h2)
    inside = np.abs(vals - contour.center) < contour.radius
    assert inside.sum() == 1
    rng = np.random.default_rng(12)
    worst_action = worst_idem = 0.0
    for _ in range(3):
        v = rng.standard_normal(len(idx))
        v /= np.linalg.norm(v)
        projected = contour_project(h2, contour, v)
        exact = vecs[:, inside] @ (vecs[:, inside].T @ v)
        worst_action = max(worst_action,
                           float(np.linalg.norm(projected - exact)))
        worst_idem = max(worst_idem, idempotence_defect(h2, contour, v))
    ok = worst_action <= TOL_PROJECTOR and worst_idem <= TOL_IDEMPOTENT
    report(3, ok, f"projector vs dense: action diff {worst_action:.2e} "
                  f"(tol {TOL_PROJECTOR}), idempotence {worst_idem:.2e} "
                  f"(tol {TOL_IDEMPOTENT}) at 64 nodes")


def test_a04_neumann_equals_direct(boxes):
    from fqed.spectral import neumann_project
    params = dataclasses.replace(boxes["p2"], alpha=5e-3)
    grid, basis = boxes["grid2"], boxes["basis2"]
    h1 = assemble_h_fiber(params, grid, basis, 1)
    dh = assemble_slice_interaction(params, grid, basis, 1)
    e1, psi1, _ = sector_ground(params, grid, basis, 1, h_op=h1)
    contour = Contour(e1, params.mu * params.cutoffs.sigma(2), 64)
    series, norms = neumann_project(h1, dh, contour, psi1, n_terms=4)
    direct = contour_project(h1 + dh, contour, psi1)
    diff = float(np.linalg.norm(series - direct))
    ratios = norms[1:] / norms[:-1]
    ok = diff <= TOL_NEUMANN and np.all(ratios[:3] < 0.5)
    report(4, ok, f"series vs direct projection: |diff|={diff:.2e} "
                  f"(tol {TOL_NEUMANN}), term ratios "
                  f"{np.array2string(ratios[:3], precision=3)}")


def test_a05_feynman_hellmann_order(boxes):
    grid, basis = boxes["grid2"], boxes["basis2"]
    ratios = []
    for alpha, pmag in ((1e-3, 0.1), (5e-3, 0.2)):
        params = dataclasses.replace(boxes["p2"], alpha=alpha,
                                     p_total=np.array([pmag, 0, 0]))
        family = FiberFamily(params, grid, basis, 2)
        rec = run_cascade(params, grid, basis).records[2]
        fh = rec.grad_energy
        d_h = np.linalg.norm(energy_gradient_fd(family, rec, 2e-3) - fh)
        d_h2 = np.linalg.norm(energy_gradient_fd(family, rec, 1e-3) - fh)
        ratios.append(d_h / d_h2)
    ok = all(FH_RATIO_WINDOW[0] < r < FH_RATIO_WINDOW[1] for r in ratios)
    report(5, ok, "gradient FD-vs-expectation halving ratios "
                  f"{[f'{r:.2f}' for r in ratios]} in {FH_RATIO_WINDOW}")


def test_a06_bogoliubov_invariance_headline(headline):
    rows, _ = headline
    worst_hk = max(abs(r["h"] - r["k"]) for r in rows)
    worst_hf = max(abs(r["h"] - r["fd"]) for r in rows)
    worst_kf = max(abs(r["k"] - r["fd"]) for r in rows)
    worst_cross = max(r["cross"] for r in rows)
    worst_red = max(abs(r["k"] - r["kr"]) for r in rows)
    ok = (worst_hk <= TOL_ROUTE_HK and worst_hf <= TOL_ROUTE_FD
          and worst_kf <= TOL_ROUTE_FD and worst_cross <= TOL_CROSS)
    report(6, ok, f"{len(rows)} scanned rows: |H-K|={worst_hk:.2e} "
                  f"(tol {TOL_ROUTE_HK}), |H-FD|={worst_hf:.2e}, "
                  f"|K-FD|={worst_kf:.2e} (tol {TOL_ROUTE_FD}), "
                  f"cross-term={worst_cross:.2e} (tol {TOL_CROSS}), "
                  f"reduction={worst_red:.2e}")


def test_a07_centering_at_every_scale(headline, gap_cascades, mass_rows):
    _, states = headline
    all_states = list(states)
    all_states += [s for _, s in gap_cascades.values()]
    all_states += list(mass_rows[1].values())
    worst = 0.0
    n = 0
    for state in all_states:
        for rec in state.records:
            worst = max(worst, float(np.max(np.abs(rec.gamma_orth))))
            n += 1
    ok = worst <= TOL_CENTERING
    report(7, ok, f"<phi, Gamma phi> over {n} scales from "
                  f"{len(all_states)} cascades: max {worst:.2e} "
                  f"(tol {TOL_CENTERING})")


def test_a08_gap_structure(gap_cascades):
    worst_minus = worst_plus = np.inf
    for alpha, (params, state) in gap_cascades.items():
        cut = params.cutoffs
        for rec in state.records:
            if np.isfinite(rec.gap_sector) and rec.j >= 1:
                worst_minus = min(worst_minus, rec.gap_sector
                                  / (params.rho_minus * rec.sigma))
            if np.isfinite(rec.gap_next_sector):
                worst_plus = min(
                    worst_plus, rec.gap_next_sector
                    / (params.rho_plus * cut.sigma(rec.j + 1)))
    ok = worst_minus >= 1.0 and worst_plus >= 1.0
    report(8, ok, "sector gaps on the reference box: min gap/(rho-*sigma)="
                  f"{worst_minus:.2f}, min gap'/(rho+*sigma')="
                  f"{worst_plus:.2f} (both >= 1)")


def test_a09_cascade_convergence_shape(gap_cascades):
    params, state = gap_cascades[1e-4]
    rep = convergence_report(state, delta=STEP_EXPONENT_DELTA)
    target = (1.0 - STEP_EXPONENT_DELTA) * np.log(1.0 / params.epsilon)
    shape_ok = rep.step_exponent >= target
    # energy-shift bound |dE_j| <= C alpha eps^j: the fitted constant is the
    # running maximum of the per-scale quotients; it must be set by the
    # early scales and stay put (within x3) as scales accumulate
    c_running = np.maximum.accumulate(rep.shift_constants)
    stable_ok = c_running[-1] <= 3.0 * c_running[0]
    bound_ok = np.all(rep.energy_shifts
                      <= c_running[-1] * params.alpha
                      * params.epsilon ** (rep.scales - 1) + 1e-18)
    ok = shape_ok and stable_ok and bound_ok
    report(9, ok, f"step-norm exponent {rep.step_exponent:.3f} >= {target:.3f}"
                  f" (delta={STEP_EXPONENT_DELTA}); fitted shift constant "
                  f"{c_running[-1]:.2f} stable within x"
                  f"{c_running[-1] / c_running[0]:.2f} of first scale; "
                  f"per-scale quotients "
                  f"{np.array2string(rep.shift_constants, precision=2)}")


def test_a10_mass_limit_shape(mass_rows):
    rows, _ = mass_rows
    devs = {a: abs(m - 1.0) for a, m in rows.items()}
    increasing = devs[1e-4] < devs[1e-3] < devs[1e-2]
    small = devs[1e-4] <= TOL_MASS_SMALL
    ok = increasing and small
    report(10, ok, "effective-mass deviation |m_r-1| = "
                   f"{devs[1e-4]:.2e} < {devs[1e-3]:.2e} < {devs[1e-2]:.2e} "
                   f"strictly increasing; smallest <= {TOL_MASS_SMALL}")


def test_a11_pull_through_residual():
    aggs = {}
    for n_max in (2, 3):
        params = valid_box(5e-3, [0.1, 0, 0], 1)
        grid = build_grid(params.cutoffs, 1, "octahedral6")
        basis = enumerate_basis(grid.n_modes, n_max, n_max)
        rec = run_cascade(params, grid, basis).records[1]
        aggs[n_max], _ = pull_through_summary(
            FiberFamily(params, grid, basis, 1), rec)
    ok = aggs[3] <= TOL_PULL_THROUGH and aggs[3] < aggs[2]
    report(11, ok, f"pull-through residual {aggs[3]:.4f} at cap 3 "
                   f"(tol {TOL_PULL_THROUGH}), decreasing from "
                   f"{aggs[2]:.4f} at cap 2")


def test_a12_soft_photon_stability(boxes, headline):
    _, states = headline
    params = valid_box(1e-3, [0.2, 0, 0], 3)
    state = next(s for s in states
                 if s.params.alpha == 1e-3 and s.params.p_total[0] == 0.2)
    consts = []
    for rec in state.records[1:]:
        rep = soft_photon_probe(FiberFamily(params, boxes["grid3"],
                                            boxes["basis3"], rec.j), rec)
        consts.append(rep.empirical_c)
    spread = max(consts) / min(consts)
    ok = spread <= SOFT_STABILITY
    report(12, ok, "soft-photon constants across scales "
                   f"{[f'{c:.3f}' for c in consts]}: spread x{spread:.2f} "
                   f"(tol x{SOFT_STABILITY})")


def test_a13_energy_slope_constant(boxes):
    grid, basis = boxes["grid3"], boxes["basis3"]
    values = {}
    for alpha in (0.0, 1e-4, 1e-3):
        params = valid_box(alpha, [0.33, 0, 0], 3)
        rec = run_cascade(params, grid, basis).records[3]
        values[alpha], _ = energy_lipschitz_probe(
            FiberFamily(params, grid, basis, 3), rec)
    free_ok = values[0.0] <= 1.0 / 3.0 + 1e-10
    window_ok = C_ALPHA_WINDOW[0] <= values[1e-4] <= C_ALPHA_WINDOW[1]
    trend_ok = abs(values[1e-4] - values[0.0]) <= \
        abs(values[1e-3] - values[0.0]) + 1e-12
    ok = free_ok and window_ok and trend_ok
    report(13, ok, f"energy-slope constants: free {values[0.0]:.4f} "
                   f"(<= 1/3), {values[1e-4]:.4f} in {C_ALPHA_WINDOW} at "
                   f"1e-4, trending toward free from {values[1e-3]:.4f}")


def test_a14_determinism(tmp_path, capsys):
    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        "alpha = 1e-3\nepsilon = 0.25\nmu = 0.2\nrho_minus = 0.16\n"
        "rho_plus = 0.4\nP = 0.1 0 0\nJ = 2\ndump_vectors = true\n")
    outs = []
    for tag in ("a", "b", "c"):
        out = tmp_path / tag
        assert cli_main(["cascade", "--config", str(cfg),
                         "--out", str(out)]) == 0
        outs.append((out / "trace.csv").read_bytes())
    capsys.readouterr()
    ok = outs[0] == outs[1] == outs[2]
    report(14, ok, f"cmd_cascade reruns byte-identical: {len(outs)} runs, "
                   f"{len(outs[0])} bytes each")
