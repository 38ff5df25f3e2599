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

Shifted solves work in a Lanczos space per real right-hand side, where the
operator is tridiagonal: ``ResolventSolver.reduce`` starts the space of a
vector, and a solve returns plain coefficient arrays in that space.  A
contour node then costs a tridiagonal solve; an integral sums its nodes'
coefficients and lifts the sum once.  The resolvent
functions take the solver as their first argument and act on its
operator.  The dense oracles, ``dense_spectrum`` and the perturbation
series ``neumann_project``, take the operator itself.

An operator is anything with ``shape`` and ``@`` on vectors and (n, k)
blocks, and ``diagonal()`` for Davidson: an array, a sparse matrix or a
``hamiltonian.FactorOp``.  Every solver applies the operator it is given;
none converts it or branches on its type.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .modes import ParameterError, ResourceError


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

#: Residual, relative to the operator's max |diagonal| (at least 1), at
#: which a Davidson pair counts as converged; rounding leaves a residual of
#: a few ulps of the operator's norm, which that entry bounds from below.
DAVIDSON_TOL = 1e-13

#: Davidson search-space size that triggers a thick restart.
DAVIDSON_MAX_DIM = 60

#: Davidson iterations before a started solve gives up.
DAVIDSON_MAX_ITER = 200

#: Residual floor of a ground pair: ``ground_state`` raises above 100 times
#: the larger of it and 1e-13 * max(1, |E|).
GROUND_TOL = 1e-10

#: Relative residual of a Krylov shifted solve.
KRYLOV_TOL = 1e-13

#: Largest Krylov space per right-hand side.
KRYLOV_MAX = 1200

#: Lanczos vectors added each time a Krylov space grows.
KRYLOV_BLOCK = 8

#: Norm below which a Lanczos step's new vector (of a unit one) ends the
#: space as invariant.
_BREAKDOWN = 1e-14

#: Node count at which projector node doubling gives up.
MAX_NODES = 512


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


@dataclass
class GroundStateRecord:
    """Lowest eigenpair plus diagnostics from a symmetric eigensolve."""

    energy: float
    vector: np.ndarray = field(repr=False)
    gap: float
    residual: float
    method: str
    degenerate: bool = False


#: Identity columns an operator is applied to at a time when it is made
#: dense.
_DENSE_BLOCK = 256


def _dense(op, dense_limit: int = DENSE_LIMIT) -> np.ndarray:
    """``op`` as a new dense array: an array is copied, any other operator
    applied to the identity's columns, a block at a time, and symmetrized
    (exact for an exactly symmetric matrix).  Raises ``ResourceError``
    above ``dense_limit`` states, before allocating."""
    n = op.shape[0]
    if n > dense_limit:
        raise ResourceError(
            f"dense oracle limited to {dense_limit}, operator is {n}")
    if isinstance(op, np.ndarray):
        return np.array(op, dtype=float)
    out = np.empty((n, n))
    for lo in range(0, n, _DENSE_BLOCK):
        cols = np.eye(n, min(_DENSE_BLOCK, n - lo), -lo)
        out[:, lo:lo + cols.shape[1]] = op @ cols
    out += out.T.copy()
    out *= 0.5
    return out


@lru_cache(maxsize=None)
def _syevr_work(n: int) -> tuple[int, int]:
    """The (lwork, liwork) that ``scipy.linalg.eigh`` passes to ``dsyevr``
    for an n x n lower triangle; other sizes change the rounding."""
    work, iwork, info = lapack.dsyevr_lwork(n, lower=1)
    if info != 0:
        raise ValueError(f"dsyevr workspace query failed: {info}")
    return int(work), int(iwork)


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All eigenpairs of the symmetric ``a`` (its lower triangle), ascending:
    ``scipy.linalg.eigh(a)`` bit for bit, without its per-call checks."""
    n = a.shape[0]
    if not np.isfinite(a).all():
        raise SolverError("symmetric eigenproblem matrix is not finite")
    lwork, liwork = _syevr_work(n)
    w, v, _, _, info = lapack.dsyevr(a, compute_v=1, range="A", lower=1,
                                     lwork=lwork, liwork=liwork,
                                     overwrite_a=1)
    if info != 0:
        raise SolverError(f"dsyevr failed: {info}")
    return w, v


def dense_spectrum(op, dense_limit: int = DENSE_LIMIT):
    """All eigenpairs, ascending, by one ``_eigh`` call; the dense oracle."""
    return _eigh(_dense(op, dense_limit))


def _davidson(op, pairs: int, start: np.ndarray):
    """The ``pairs`` lowest eigenpairs of a symmetric operator (anything
    with ``shape``, ``diagonal()`` and ``@`` on (n, k) blocks) by block
    Davidson with the diagonal preconditioner, from ``start``.

    The search space starts as ``start`` and the ``pairs + 2`` unit vectors
    of the lowest diagonal entries (a stable sort), which give it weight on
    levels that a start sharing the operator's symmetries cannot reach.
    Each step takes the Rayleigh-Ritz pairs of the space (LAPACK
    ``dsyevr``, called as ``scipy.linalg.eigh`` calls it) and adds one
    correction (diag - theta_i)^{-1} r_i per wanted pair whose residual is
    above ``DAVIDSON_TOL`` times the operator's largest absolute diagonal
    entry (at least 1),
    orthonormalized by two Gram-Schmidt passes; past ``DAVIDSON_MAX_DIM``
    vectors the space restarts from its ``pairs + 2`` lowest Ritz vectors.
    Nothing is random, so a solve is bit-identical on every run.  Returns
    (values, vectors) ascending.
    """
    n = op.shape[0]
    diag = op.diagonal()
    tol = DAVIDSON_TOL * max(1.0, float(np.max(np.abs(diag))))
    cap = DAVIDSON_MAX_DIM
    # one row per vector: rows past the space's size are never touched
    basis = np.zeros((cap + pairs, n))
    image = np.zeros((cap + pairs, n))
    size = 0

    def extend(vectors):
        nonlocal size
        first = size
        for t in vectors:
            scale = np.linalg.norm(t)
            for _ in range(2):
                t = t - basis[:size].T @ (basis[:size] @ t)
            norm = np.linalg.norm(t)
            if norm > 1e-10 * scale:
                basis[size] = t / norm
                size += 1
        image[first:size] = (op @ basis[first:size].T).T
        return size - first

    lowest = np.argsort(diag, kind="stable")[:pairs + 2]
    units = np.zeros((len(lowest), n))
    units[np.arange(len(lowest)), lowest] = 1.0
    extend([np.asarray(start, dtype=float), *units])
    res = np.full(pairs, np.inf)
    for step in range(1, DAVIDSON_MAX_ITER + 1):
        ritz = basis[:size] @ image[:size].T
        theta, coef = _eigh(0.5 * (ritz + ritz.T))
        vecs = basis[:size].T @ coef[:, :pairs]
        resid = image[:size].T @ coef[:, :pairs] - vecs * theta[:pairs]
        res = np.linalg.norm(resid, axis=0)
        open_ = np.flatnonzero(res > tol)
        if len(open_) == 0:
            return theta[:pairs], vecs
        if size + len(open_) > cap:
            keep = pairs + 2
            basis[:keep] = coef[:, :keep].T @ basis[:size]
            image[:keep] = coef[:, :keep].T @ image[:size]
            size = keep
        corrections = []
        for i in open_:
            denom = diag - theta[i]
            # a diagonal entry at the Ritz value must not blow the
            # correction up
            denom[np.abs(denom) < 1e-12] = 1e-12
            corrections.append(resid[:, i] / denom)
        if extend(corrections) == 0:
            break
    raise SolverError(
        f"Davidson stopped at residual {float(np.max(res)):.3e} (tolerance "
        f"{tol:.1e}) after {step} iterations",
        best_residual=float(np.max(res)))


def ground_state(op, dense_cutoff: int = DENSE_EIG_CUTOFF, pairs: int = 3,
                 start: np.ndarray | None = None) -> GroundStateRecord:
    """Lowest eigenpair of a symmetric operator, from its ``pairs`` lowest.

    A solve given a nonzero ``start`` refines it by block Davidson with the
    diagonal preconditioner (method ``"davidson"``, at any size above 5),
    which raises ``SolverError`` at its iteration cap.  Cold solves (no
    start, or a zero one) up to ``dense_cutoff`` use the dense oracle
    directly (the cutoff is its only size limit): ``dense_spectrum``, of
    which the lowest ``pairs`` pairs are kept.  Larger cold ones use the
    implicitly restarted Lanczos solver for ``pairs`` pairs from a fixed
    vector, with a seeded generator for its restarts.  Every path is
    deterministic, so repeated runs are bit-identical.  The gap is NaN
    when no second eigenvalue is known: ``pairs=1``, a 1 x 1 operator, or
    a partial Lanczos result with one pair.  Every path only applies the
    symmetric ``op``, the dense one to the identity's columns (``_dense``).
    """
    n = op.shape[0]
    started = n > 5 and start is not None and bool(np.any(start))
    if not started and n <= max(dense_cutoff, 5):
        vals, vecs = dense_spectrum(op, dense_limit=n)
        vals, vecs = vals[:pairs], vecs[:, :pairs]
        method = "dense"
    elif started:
        vals, vecs = _davidson(op, pairs, start)
        method = "davidson"
    else:
        a = spla.LinearOperator(op.shape, matvec=op.__matmul__,
                                matmat=op.__matmul__, dtype=float)
        v0 = 1.0 / (1.0 + np.arange(n))
        try:
            vals, vecs = spla.eigsh(
                a, k=pairs, which="SA", v0=v0 / np.linalg.norm(v0),
                tol=0, ncv=min(n - 1, 60), rng=np.random.default_rng(0))
        except spla.ArpackNoConvergence as exc:
            if len(exc.eigenvalues) == 0:
                raise SolverError("Lanczos did not converge") from exc
            vals, vecs = exc.eigenvalues, exc.eigenvectors
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        method = "lanczos"
    energy = float(vals[0])
    vec = np.ascontiguousarray(vecs[:, 0])
    vec = -vec if vec[np.argmax(np.abs(vec))] < 0.0 else vec
    gap = float(vals[1] - vals[0]) if len(vals) > 1 else np.nan
    residual = float(np.linalg.norm(op @ vec - energy * vec))
    if residual > max(GROUND_TOL, 1e-13 * max(1.0, abs(energy))) * 100:
        raise SolverError(
            f"ground-state residual {residual:.3e} above tolerance "
            f"{GROUND_TOL:.1e}",
            best_residual=residual)
    return GroundStateRecord(energy=energy, vector=vec, gap=gap,
                             residual=residual, method=method,
                             degenerate=bool(gap < 1e-12))


def _tridiag_solve(d: np.ndarray, e: np.ndarray, z: complex,
                   y: np.ndarray) -> np.ndarray:
    """(T - z)^{-1} y for the symmetric tridiagonal T with diagonal ``d``
    and complex off-diagonal ``e``."""
    if len(d) == 1:
        return y.astype(complex) / (d[0] - z)
    _, _, _, x, info = lapack.zgtsv(e, d - z, e, y)
    if info != 0:
        raise ConditioningError(f"tridiagonal solve failed: {info}")
    return x


class _KrylovSpace:
    """Reorthogonalized Lanczos space for one real right-hand side b.

    The same basis V serves every shift z: (op - z)^{-1} b is approximated
    by V (T - z)^{-1} (||b|| e1), with the exact shifted residual available
    as beta_k |y_k| so the space can be grown, up to ``max_dim`` vectors,
    until ``KRYLOV_TOL`` holds for the shifts actually used.  The space only
    grows by appending basis vectors, so its coefficient arrays are padded
    with zeros to ``max_dim``: padded coefficients stay exact at any later
    size, and coefficients of one space add as plain arrays.
    """

    def __init__(self, op, b: np.ndarray):
        self.op = op
        self.b0 = float(np.linalg.norm(b))
        self.max_dim = max(1, min(KRYLOV_MAX, len(b)))
        self.exhausted = self.b0 == 0.0
        self.steps = 0
        self.alpha = np.zeros(self.max_dim)
        self.beta = np.zeros(self.max_dim)
        self._basis = np.zeros((min(KRYLOV_BLOCK + 1, self.max_dim + 1),
                                len(b)))
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
            if nb < _BREAKDOWN or self.steps >= self.max_dim:
                self.exhausted = True
                return
            self._basis[m + 1] = u / nb

    def solve(self, z: complex) -> np.ndarray:
        """Coefficients of (op - z)^{-1} b, grown as needed; a complex
        array of length ``max_dim``, zero beyond the current size."""
        out = np.zeros(self.max_dim, dtype=complex)
        if self.b0 == 0.0:
            return out
        if self.steps == 0:
            self._grow(min(KRYLOV_BLOCK, self.max_dim))
        while True:
            k = self.steps
            rhs = np.zeros(k)
            rhs[0] = self.b0
            y = _tridiag_solve(self.alpha[:k],
                               self.beta[:k - 1].astype(complex), z, rhs)
            res = self.beta[k - 1] * abs(y[-1])
            converged = res <= KRYLOV_TOL * self.b0
            if converged or self.exhausted:
                # an invariant space solves exactly, up to the rounding
                # of its last step; only a space cut at its size limit
                # fails
                if not converged and self.beta[k - 1] >= _BREAKDOWN:
                    raise ConditioningError(
                        f"Krylov space of size {k} left shifted residual at "
                        f"{res / self.b0:.2e}")
                out[:k] = y
                return out
            self._grow(min(k + KRYLOV_BLOCK, self.max_dim))

    def lift(self, c: np.ndarray) -> np.ndarray:
        """The full vector V c of coefficients c.  The real basis meets
        real (k, 1) or (k, 2) column blocks only: a complex c goes through
        as its real and imaginary parts."""
        k = self.steps
        basis = self._basis[:k].T
        c = c[:k]
        if np.iscomplexobj(c):
            out = basis @ np.stack([c.real, c.imag], axis=1)
            return out[:, 0] + 1j * out[:, 1]
        return (basis @ c[:, None])[:, 0]


class ResolventSolver:
    """Reusable solver for (op - z)x = b at many shifts z; applies op as is.

    ``reduce(b)`` starts the Lanczos space of the real vector b, in which b
    has the coefficients ||b|| e1 and the operator is tridiagonal;
    ``solve(z, space)`` returns the coefficients of (op - z)^{-1} b there,
    and ``space.lift`` multiplies coefficients by the basis.
    """

    def __init__(self, op):
        self._op = op

    def reduce(self, b: np.ndarray) -> _KrylovSpace:
        """The Lanczos space of the right-hand side b."""
        b = np.asarray(b)
        if np.iscomplexobj(b):
            raise ValueError("a ResolventSolver reduces real vectors only: "
                             "its Lanczos space starts from one real vector")
        return _KrylovSpace(self._op, b)

    def solve(self, z: complex, space: _KrylovSpace) -> np.ndarray:
        """Coefficients of (op - z)^{-1} b in b's space."""
        # kept as a method, not folded into the space: the benchmark tracer
        # binds ResolventSolver.__init__ and .solve as its resolvent layer
        return space.solve(z)


def contour_sum(contour: Contour, node):
    """Trapezoid sum  sum_q c_q node(z_q)  over the whole circle.

    ``node`` must be conjugate-symmetric, node(conj z) = conj(node(z)), as
    every resolvent integrand of a real symmetric operator on real data is
    (also on coefficients in a real Lanczos space).  Only the upper half
    circle is evaluated: the two real-axis nodes count once and the others
    twice through their real part.  ``node`` may return a scalar, an array
    or a tuple of these; the result has the same form, complex.
    """
    points = contour.points
    weights = contour.projector_weights
    half = contour.nodes // 2
    acc = None
    for q in [0, half, *range(1, half)]:
        out = node(points[q])
        terms = [weights[q] * t
                 for t in (out if isinstance(out, tuple) else (out,))]
        if 0 < q < half:
            terms = [2.0 * t.real for t in terms]
        acc = terms if acc is None else [a + t for a, t in zip(acc, terms)]
    return tuple(acc) if isinstance(out, tuple) else acc[0]


def contour_project(solver: ResolventSolver, contour: Contour,
                    v: np.ndarray) -> np.ndarray:
    """Spectral projection of v onto the eigenspace inside the contour.

    The solver's operator is real symmetric and ``v`` real, so the
    projection is real.  The nodes sum as coefficients in v's Lanczos
    space: one reduce, one lift.
    """
    space = solver.reduce(v)
    acc = contour_sum(contour, lambda z: solver.solve(z, space))
    return np.ascontiguousarray(space.lift(acc.real))


def idempotence_defect(solver: ResolventSolver, contour: Contour,
                       v: np.ndarray) -> float:
    """Relative defect ||P(Pv) - Pv|| / ||Pv|| of the quadrature projector."""
    pv = contour_project(solver, contour, v)
    nrm = np.linalg.norm(pv)
    if nrm == 0.0:
        return 0.0
    ppv = contour_project(solver, contour, pv)
    return float(np.linalg.norm(ppv - pv) / nrm)


def contour_project_checked(solver: ResolventSolver, contour: Contour,
                            v: np.ndarray, defect_tol: float = 1e-8,
                            max_nodes: int = MAX_NODES):
    """Projection with node doubling until the idempotence defect passes.

    Returns (projected vector, nodes used, defect).  Raises ContourError if
    the defect cannot be brought below tolerance, which signals an enclosure
    problem (the circle cuts through spectrum or encloses extra states on
    the sector of v).  When re-projection keeps less than half of Pv, the
    contour encloses none of v's spectrum and only quadrature leakage was
    projected; more nodes only shrink that leakage, so this raises at once,
    as it does when the projection is not finite.
    """
    current = contour
    while True:
        pv = contour_project(solver, current, v)
        nrm = np.linalg.norm(pv)
        if nrm == 0.0:
            return pv, current.nodes, 0.0
        ppv = contour_project(solver, current, pv)
        kept = float(np.linalg.norm(ppv) / nrm)
        defect = float(np.linalg.norm(ppv - pv) / nrm)
        if not (np.isfinite(kept) and np.isfinite(defect)):
            raise ContourError(
                f"projection is not finite at {current.nodes} nodes: "
                f"re-projection keeps {kept}, defect {defect}")
        if kept < 0.5:
            raise ContourError(
                "contour encloses none of the vector's spectrum: "
                f"re-projection keeps {kept:.2e} of the projected norm at "
                f"{current.nodes} nodes")
        if defect <= defect_tol:
            return pv, current.nodes, defect
        if current.nodes * 2 > max_nodes:
            raise ContourError(
                f"projector defect {defect:.3e} above {defect_tol:.1e} "
                f"at {current.nodes} nodes")
        current = replace(current, nodes=current.nodes * 2)


def neumann_project(op, delta_h, contour: Contour, v: np.ndarray,
                    n_terms: int = 6):
    """Projection of v by the perturbation series around ``op``; a dense
    oracle.

    Term n applies (op - z)^{-1} [ -delta_h (op - z)^{-1} ]^n under the
    contour integral; the sum converges to the direct projection with the
    perturbed operator when the series terms decay.  Each node factors
    op - z once and takes the n_terms + 1 solves from the factors.
    Returns (partial sum, per-term norms).
    """
    a = _dense(op)
    eye = np.eye(len(a))
    minus_dh = -delta_h

    def node(z):
        lu = sla.lu_factor(a - z * eye)
        ys = [sla.lu_solve(lu, v)]
        for _ in range(n_terms):
            ys.append(sla.lu_solve(lu, minus_dh @ ys[-1]))
        return tuple(ys)

    terms = np.array([t.real for t in contour_sum(contour, node)])
    norms = np.linalg.norm(terms, axis=1)
    tail = norms[norms > 0]
    if len(tail) > 2 and tail[-1] >= tail[-2]:
        warnings.warn(
            "perturbation-series terms stopped decreasing; coupling too "
            "large for the gap", RuntimeWarning, stacklevel=2)
    return terms.sum(axis=0), norms


def resolvent_sandwich(solver: ResolventSolver, contour: Contour,
                       middle_psi: np.ndarray) -> float:
    """S = < (1/2pi i) oint_cw R(z) middle R(z) psi dz , middle psi >,
    given ``middle_psi`` = middle psi.

    For a normalized eigenvector psi of the solver's operator enclosed
    alone by the contour, S equals sum_{m != 0} |<m| middle |0>|^2 /
    (E_m - E_0), the reduced-resolvent sum of second-order perturbation
    theory.  The inner resolvent is the eigenvector identity R(z) psi =
    psi / (E - z), so a node costs one solve; this requires the contour to
    be centered on psi's eigenvalue E.
    """
    space = solver.reduce(middle_psi)

    def node(z):
        return solver.solve(z, space) / (contour.center - z)
    # middle psi is ||middle psi|| e1 in its own space: the product reads
    # coefficient 0
    return float(np.real(space.b0 * contour_sum(contour, node).conj()[0]))
