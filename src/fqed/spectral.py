"""Eigenvalue and resolvent machinery: dense oracle, sparse ground states,
shifted solves, and contour-integral spectral projectors.

Contours are circles in the complex energy plane discretized by the
trapezoidal rule, which converges geometrically for the analytic resolvent
integrands at hand.  All contour integrals follow the convention in which
the ground-state projector is

    P = (1/2pi i) oint dz (H - z)^{-1}

over a clockwise circle enclosing only the ground energy; with nodes
z_q = c + r exp(i theta_q) listed counterclockwise this becomes the weighted
sum P v = -(r/M) sum_q exp(i theta_q) (H - z_q)^{-1} v.  Every contour
integral in the package is this sum, evaluated by ``contour_sum`` on the
upper half circle.

Shifted solves reduce the symmetric operator to tridiagonal form once
(below the dense limit) so each contour node costs two dense matrix-vector
products plus an O(n) tridiagonal solve; above the limit one Lanczos space
per right-hand side serves every node.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .modes import ParameterError


class SolverError(RuntimeError):
    """Iterative eigensolver failed to reach the requested residual."""

    def __init__(self, message: str, best_residual: float = np.nan):
        super().__init__(message)
        self.best_residual = best_residual


class ConditioningError(RuntimeError):
    """Shifted linear solve too close to the spectrum."""


class ContourError(RuntimeError):
    """Contour projection failed its enclosure/idempotence diagnostic."""


#: Dense-path threshold for full diagonalization oracles.
DENSE_LIMIT = 4000

#: Below this dimension ground states are taken from the dense oracle.
DENSE_EIG_CUTOFF = 600


def check_node_count(nodes: int, name: str = "contour nodes"):
    """The trapezoid rule's node count must be even and at least 8."""
    if nodes < 8 or nodes % 2:
        raise ParameterError(f"{name} must be even and >= 8, got {nodes}")


@dataclass(frozen=True)
class Contour:
    """Circle in the complex energy plane with trapezoidal nodes."""

    center: float
    radius: float
    nodes: int = 64

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ParameterError(f"contour radius must be > 0, {self.radius}")
        check_node_count(self.nodes)

    @property
    def points(self) -> np.ndarray:
        theta = 2.0 * np.pi * np.arange(self.nodes) / self.nodes
        return self.center + self.radius * np.exp(1j * theta)

    @property
    def projector_weights(self) -> np.ndarray:
        """c_q with (1/2pi i) oint_cw f dz ~= sum_q c_q f(z_q)."""
        theta = 2.0 * np.pi * np.arange(self.nodes) / self.nodes
        return -(self.radius / self.nodes) * np.exp(1j * theta)

    def with_nodes(self, nodes: int) -> "Contour":
        return Contour(self.center, self.radius, nodes)


@dataclass
class GroundStateRecord:
    """Lowest eigenpair plus diagnostics from a symmetric eigensolve."""

    energy: float
    vector: np.ndarray = field(repr=False)
    gap: float
    residual: float
    method: str
    degenerate: bool = False


def dense_spectrum(op, dense_limit: int = DENSE_LIMIT):
    """Full symmetric eigendecomposition; the testing oracle."""
    n = op.shape[0]
    if n > dense_limit:
        raise ResourceWarning(
            f"dense oracle limited to {dense_limit}, operator is {n}")
    dense = op.toarray() if sp.issparse(op) else np.asarray(op, dtype=float)
    return sla.eigh(dense)


def _fix_sign(v: np.ndarray) -> np.ndarray:
    peak = int(np.argmax(np.abs(v)))
    return -v if v[peak] < 0.0 else v


def _deterministic_start(n: int) -> np.ndarray:
    v0 = 1.0 / (1.0 + np.arange(n))
    return v0 / np.linalg.norm(v0)


def ground_state(op, tol: float = 1e-10,
                 dense_cutoff: int = DENSE_EIG_CUTOFF,
                 maxiter: int | None = None) -> GroundStateRecord:
    """Three lowest eigenpairs of a symmetric operator; returns the lowest.

    Small problems use the dense oracle directly; larger ones use the
    implicitly restarted Lanczos solver with a deterministic start vector,
    so repeated runs are bit-identical.
    """
    n = op.shape[0]
    if n <= max(dense_cutoff, 5):
        vals, vecs = dense_spectrum(op)
        energy = float(vals[0])
        vec = _fix_sign(np.ascontiguousarray(vecs[:, 0]))
        gap = float(vals[1] - vals[0]) if n > 1 else 0.0
        method = "dense"
    else:
        opc = op.tocsr() if sp.issparse(op) else sp.csr_matrix(op)
        try:
            vals, vecs = spla.eigsh(
                opc, k=3, which="SA", v0=_deterministic_start(n),
                tol=0, maxiter=maxiter,
                ncv=min(n - 1, 60))
        except spla.ArpackNoConvergence as exc:
            if len(exc.eigenvalues) == 0:
                raise SolverError("Lanczos did not converge") from exc
            vals, vecs = exc.eigenvalues, exc.eigenvectors
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        energy = float(vals[0])
        vec = _fix_sign(np.ascontiguousarray(vecs[:, 0]))
        gap = float(vals[1] - vals[0]) if len(vals) > 1 else np.nan
        method = "lanczos"
    residual = float(np.linalg.norm(op @ vec - energy * vec))
    if residual > max(tol, 1e-13 * max(1.0, abs(energy))) * 100:
        raise SolverError(
            f"ground-state residual {residual:.3e} above tolerance {tol:.1e}",
            best_residual=residual)
    return GroundStateRecord(energy=energy, vector=vec, gap=gap,
                             residual=residual, method=method,
                             degenerate=bool(gap < 1e-12))


def _tridiag_solve(d: np.ndarray, e: np.ndarray, z: complex,
                   y: np.ndarray) -> np.ndarray:
    if len(d) == 1:
        return y.astype(complex) / (d[0] - z)
    dl = e.astype(complex)
    _, _, _, x, info = lapack.zgtsv(dl.copy(), (d - z).astype(complex),
                                    dl.copy(), y.astype(complex))
    if info != 0:
        raise ConditioningError(f"tridiagonal solve failed: {info}")
    return x


class _KrylovSpace:
    """Reorthogonalized Lanczos space for one right-hand side.

    The same basis serves every shift z: (op - z)^{-1} b is approximated by
    V (T - z)^{-1} (||b|| e1), with the exact shifted residual available as
    beta_k |y_k| so the space can be grown until the requested tolerance
    holds for the shifts actually used.
    """

    def __init__(self, op, b: np.ndarray, max_dim: int, block: int = 60):
        self.op = op
        self.b0 = float(np.linalg.norm(b))
        self.max_dim = max(1, min(max_dim, len(b)))
        self.block = block
        self.exhausted = self.b0 == 0.0
        self.steps = 0
        self.alpha = np.zeros(self.max_dim)
        self.beta = np.zeros(self.max_dim)
        self._basis = np.zeros((min(self.block + 1, self.max_dim + 1), len(b)))
        if not self.exhausted:
            self._basis[0] = np.asarray(b, dtype=float) / self.b0

    def _grow(self, target: int):
        while self.steps < target and not self.exhausted:
            m = self.steps
            if m + 1 >= self._basis.shape[0]:
                extra = np.zeros((min(2 * (m + 1), self.max_dim + 1) - (m + 1),
                                  self._basis.shape[1]))
                self._basis = np.vstack([self._basis, extra])
            v = self._basis[m]
            u = self.op @ v
            if m > 0:
                u = u - self.beta[m - 1] * self._basis[m - 1]
            a = float(v @ u)
            u = u - a * v
            u = u - self._basis[:m + 1].T @ (self._basis[:m + 1] @ u)
            self.alpha[m] = a
            nb = float(np.linalg.norm(u))
            self.beta[m] = nb
            self.steps = m + 1
            if nb < 1e-14 or self.steps >= self.max_dim:
                self.exhausted = True
                return
            self._basis[m + 1] = u / nb

    def solve(self, z: complex, tol: float) -> np.ndarray:
        if self.b0 == 0.0:
            return np.zeros(self.op.shape[0], dtype=complex)
        if self.steps == 0:
            self._grow(min(self.block, self.max_dim))
        while True:
            k = self.steps
            rhs = np.zeros(k)
            rhs[0] = self.b0
            y = _tridiag_solve(self.alpha[:k], self.beta[:k - 1], z, rhs)
            res = self.beta[k - 1] * abs(y[-1])
            converged = res <= tol * self.b0
            if converged or self.exhausted:
                if not converged and self.beta[k - 1] > 1e-12 * self.b0:
                    raise ConditioningError(
                        f"Krylov space of size {k} left shifted residual at "
                        f"{res / self.b0:.2e}")
                return self._basis[:k].T @ y
            self._grow(min(k + self.block, self.max_dim))


class ResolventSolver:
    """Reusable solver for (op - z)x = b at many shifts z.

    Below the dense limit the symmetric operator is tridiagonalized once by
    an orthogonal reduction, after which each shift costs two dense
    matrix-vector products and an O(n) tridiagonal solve.  Above the limit,
    shifts are handled by reorthogonalized Lanczos spaces cached per
    right-hand side (one space serves the whole contour).
    """

    def __init__(self, op, dense_limit: int = DENSE_LIMIT,
                 krylov_tol: float = 1e-10, krylov_max: int = 1200):
        self.n = op.shape[0]
        self.dense = self.n <= dense_limit
        self.krylov_tol = krylov_tol
        self.krylov_max = krylov_max
        if self.dense:
            a = op.toarray() if sp.issparse(op) else np.asarray(op, float)
            # symmetric input: the Hessenberg form is tridiagonal, so keep
            # only its diagonal and subdiagonal (the rest is rounding noise)
            h, q = sla.hessenberg(a, calc_q=True)
            self._q = q
            self._d = np.ascontiguousarray(np.diagonal(h)).astype(float)
            self._e = np.ascontiguousarray(np.diagonal(h, -1)).astype(float)
        else:
            self._op = op.tocsr() if sp.issparse(op) else op
            self._spaces: dict[bytes, _KrylovSpace] = {}

    def _space_for(self, b: np.ndarray) -> _KrylovSpace:
        key = b.tobytes()
        space = self._spaces.get(key)
        if space is None:
            if len(self._spaces) > 12:
                self._spaces.clear()
            space = _KrylovSpace(self._op, b, self.krylov_max)
            self._spaces[key] = space
        return space

    def solve(self, z: complex, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b)
        if self.dense:
            y = self._q.T @ b
            x = _tridiag_solve(self._d, self._e, z, y)
            return self._q @ x
        if np.iscomplexobj(b):
            out = self._space_for(b.real.copy()).solve(z, self.krylov_tol)
            if np.any(b.imag):
                out = out + 1j * self._space_for(
                    b.imag.copy()).solve(z, self.krylov_tol)
            return out
        return self._space_for(b).solve(z, self.krylov_tol)


def resolvent_apply(op, z: complex, v: np.ndarray, tol: float = 1e-8,
                    dist_floor: float = 1e-12,
                    solver: ResolventSolver | None = None) -> np.ndarray:
    """x with (op - z)x = v, guarded against near-singular shifts."""
    solver = solver or ResolventSolver(op)
    x = solver.solve(z, np.asarray(v))
    vn = np.linalg.norm(v)
    if vn > 0.0 and vn / np.linalg.norm(x) < dist_floor:
        raise ConditioningError(
            f"shift {z} within {dist_floor:.1e} of the spectrum")
    res = np.linalg.norm(op @ x - z * x - v)
    if vn > 0.0 and res / vn > tol:
        raise ConditioningError(
            f"shifted solve residual {res / vn:.3e} above {tol:.1e}")
    return x


def contour_sum(contour: Contour, node):
    """Trapezoid sum  sum_q c_q node(z_q)  over the whole circle.

    ``node`` must be conjugate-symmetric, node(conj z) = conj(node(z)), as
    every resolvent integrand of a real symmetric operator on real data is.
    Only the upper half circle is evaluated: the two real-axis nodes count
    once and the others twice through their real part.  ``node`` may return
    a scalar or an array; the result is complex with the same shape.
    """
    points = contour.points
    weights = contour.projector_weights
    half = contour.nodes // 2
    acc = weights[0] * node(points[0]) + weights[half] * node(points[half])
    for q in range(1, half):
        acc += 2.0 * (weights[q] * node(points[q])).real
    return acc


def contour_project(op, contour: Contour, v: np.ndarray,
                    solver: ResolventSolver | None = None) -> np.ndarray:
    """Spectral projection of v onto the eigenspace inside the contour.

    ``op`` is real symmetric and ``v`` real, so the projection is real.
    """
    solver = solver or ResolventSolver(op)
    acc = contour_sum(contour, lambda z: solver.solve(z, v))
    return np.ascontiguousarray(acc.real)


def idempotence_defect(op, contour: Contour, v: np.ndarray,
                       solver: ResolventSolver | None = None,
                       projected: np.ndarray | None = None) -> float:
    """Relative defect ||P(Pv) - Pv|| / ||Pv|| of the quadrature projector."""
    solver = solver or ResolventSolver(op)
    pv = contour_project(op, contour, v, solver) \
        if projected is None else projected
    nrm = np.linalg.norm(pv)
    if nrm == 0.0:
        return 0.0
    ppv = contour_project(op, contour, pv, solver)
    return float(np.linalg.norm(ppv - pv) / nrm)


def contour_project_checked(op, contour: Contour, v: np.ndarray,
                            solver: ResolventSolver | None = None,
                            defect_tol: float = 1e-8,
                            max_nodes: int = 512):
    """Projection with node doubling until the idempotence defect passes.

    Returns (projected vector, nodes used, defect).  Raises ContourError if
    the defect cannot be brought below tolerance, which signals an enclosure
    problem (the circle cuts through spectrum or encloses extra states on
    the sector of v).
    """
    solver = solver or ResolventSolver(op)
    current = contour
    while True:
        pv = contour_project(op, current, v, solver)
        defect = idempotence_defect(op, current, v, solver, projected=pv)
        if defect <= defect_tol:
            return pv, current.nodes, defect
        if current.nodes * 2 > max_nodes:
            raise ContourError(
                f"projector defect {defect:.3e} above {defect_tol:.1e} "
                f"at {current.nodes} nodes")
        current = current.with_nodes(current.nodes * 2)


def neumann_project(op_prev, delta_h, contour: Contour, v: np.ndarray,
                    n_terms: int = 6,
                    solver: ResolventSolver | None = None):
    """Projection of v by the perturbation series around ``op_prev``.

    Term n applies (op_prev - z)^{-1} [ -delta_h (op_prev - z)^{-1} ]^n
    under the contour integral; the sum converges to the direct projection
    with the perturbed operator when the series terms decay.  Returns
    (partial sum, per-term norms).
    """
    solver = solver or ResolventSolver(op_prev)

    def node(z):
        ys = [solver.solve(z, np.asarray(v))]
        for _ in range(n_terms):
            ys.append(solver.solve(z, -(delta_h @ ys[-1])))
        return np.array(ys)

    terms = np.ascontiguousarray(contour_sum(contour, node).real)
    norms = np.linalg.norm(terms, axis=1)
    tail = norms[norms > 0]
    if len(tail) > 2 and tail[-1] >= tail[-2]:
        warnings.warn(
            "perturbation-series terms stopped decreasing; coupling too "
            "large for the gap", RuntimeWarning, stacklevel=2)
    return terms.sum(axis=0), norms


def resolvent_sandwich(op, contour: Contour, middle, psi: np.ndarray,
                       solver: ResolventSolver | None = None) -> float:
    """S = < (1/2pi i) oint_cw R(z) middle R(z) psi dz , middle psi >.

    For a normalized eigenvector psi of ``op`` enclosed alone by the
    contour, S equals sum_{m != 0} |<m| middle |0>|^2 / (E_m - E_0), the
    reduced-resolvent sum of second-order perturbation theory.  A dense
    solver applies both resolvents; a Krylov solver replaces the inner one
    by the eigenvector identity R(z) psi = psi / (E - z), one solve per
    node, which requires the contour to be centered on psi's eigenvalue E.
    """
    solver = solver or ResolventSolver(op)
    target = middle @ psi
    if solver.dense:
        def node(z):
            return solver.solve(z, middle @ solver.solve(z, np.asarray(psi)))
    else:
        def node(z):
            return solver.solve(z, target) / (contour.center - z)
    return float(np.real(np.conj(contour_sum(contour, node)) @ target))


def enclosed_count(op, contour: Contour,
                   dense_limit: int = DENSE_LIMIT) -> int:
    """Number of eigenvalues strictly inside the contour (dense oracle)."""
    vals, _ = dense_spectrum(op, dense_limit)
    return int(np.sum(np.abs(vals - contour.center) < contour.radius))
