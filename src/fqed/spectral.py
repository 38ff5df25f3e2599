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
integral in the package is this sum: ``Contour.integrate`` takes the
integrand on the contour's upper half circle (``Contour.upper``), where a
conjugate-symmetric integrand is known on the whole.

Shifted solves take one of two Krylov methods.  The cascade's contour
integrals and the bounds probe's Gauss rule, which need many complex
shifts of one right-hand side or the Ritz pairs themselves, work in a
Lanczos space per real right-hand side, where the operator is a symmetric
tridiagonal T = S diag(theta) S^T.  ``ResolventSolver(op, b)`` is the
space of b.  Its solve returns plain coefficient arrays in that space,
read from T's Ritz pairs, for all of a contour's nodes at one size.  An
integral is then one space, one solve, one ``integrate`` and one lift of
the sum.  One real shift below the spectrum makes op - shift positive
definite, and so does the shift at an eigenvalue on the complement of its
eigenvector, where the curvature routes solve for the reduced resolvent.
``shifted_solve`` takes both by conjugate gradients with the diagonal
preconditioner, a few products and O(n) memory for its one right-hand
side.  The resolvent functions start their own spaces and take the
operator as their first argument, as ``ground_state``, ``shifted_solve``
and the dense oracles (``dense_spectrum`` and the perturbation series
``neumann_project``) do.

An operator is anything with ``shape`` and ``@`` on vectors and (n, k)
blocks, and ``diagonal()`` for Davidson and CG: an array, a scipy sparse
matrix or a ``hamiltonian.FactorOp``, whose products are ``csr.CSR``
products.  Every solver applies the operator it is given; none converts it
or branches on its type.

Every ground state a command makes is a Davidson solve started from a
vector the run holds, and every eigensolve it makes is one
``numpy.linalg.eigh`` call (``_eigh``): Davidson's Rayleigh-Ritz step and
the Ritz pairs of every Krylov space.  The cold ground states, dense up to
``DENSE_EIG_CUTOFF`` and by ARPACK above it, serve direct callers only.
ARPACK and the dense oracles use scipy's LAPACK, imported inside the
function that runs them: a command loads neither ``scipy.linalg`` nor
``scipy.sparse.linalg``, nor scipy's OpenBLAS, and an oracle checks the
production path with another driver from another library.  Of scipy a
command loads only the compiled CSR kernels (``csr``), not the
``scipy.sparse`` package.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .modes import ParameterError, ResourceError


class SolverError(RuntimeError):
    """Iterative solver failed to reach the requested residual."""

    def __init__(self, message: str, best_residual: float = np.nan):
        super().__init__(message)
        self.best_residual = best_residual


class ConditioningError(RuntimeError):
    """Shifted linear solve too close to the spectrum."""


class ContourError(RuntimeError):
    """Contour projection failed its enclosure/idempotence diagnostic."""


#: Dense-path threshold for full diagonalization oracles.
DENSE_LIMIT = 4000

#: Up to this dimension cold ground states are taken from a dense eigh.
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

#: Relative residual of a Krylov shifted solve, Lanczos or CG.
KRYLOV_TOL = 1e-13

#: Largest Krylov space per right-hand side, and the most operator
#: products a CG solve (``shifted_solve``) makes.
KRYLOV_MAX = 1200

#: Lanczos vectors added each time a Krylov space grows, up to
#: ``KRYLOV_LINEAR_MAX`` vectors.
KRYLOV_BLOCK = 8

#: Krylov space size past which a space doubles when it grows: each size
#: costs one O(k^3) eigendecomposition of its tridiagonal, so growing to
#: ``KRYLOV_MAX`` costs a bounded multiple of the last one.
KRYLOV_LINEAR_MAX = 128

#: Norm below which a Lanczos step's new vector (of a unit one) ends the
#: space as invariant.
_BREAKDOWN = 1e-14

#: Node count at which projector node doubling gives up.
MAX_NODES = 512

#: Idempotence defect at which projector node doubling stops.
PROJECTOR_TOL = 1e-8


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
    def _phases(self) -> np.ndarray:
        """exp(i theta_q), theta_q = 2 pi q / M, for q = 0 ... M/2."""
        theta = 2.0 * np.pi * np.arange(self.nodes // 2 + 1) / self.nodes
        return np.exp(1j * theta)

    @property
    def upper(self) -> np.ndarray:
        """The M/2 + 1 nodes z_q = c + r exp(i theta_q) of the upper half
        circle, from c + r to c - r."""
        return self.center + self.radius * self._phases

    def integrate(self, values: np.ndarray) -> np.ndarray:
        """(1/2pi i) oint_cw f dz by the trapezoid rule sum_q c_q f(z_q),
        c_q = -(r/M) exp(i theta_q), over the whole circle, given f on
        ``upper`` along the last axis of ``values``.

        f must be conjugate-symmetric, f(conj z) = conj(f(z)), as every
        resolvent integrand of a real symmetric operator on real data is
        (also on coefficients in a real Lanczos space): the two real-axis
        nodes count once and the others twice through their real part.
        Returns the complex integral of each leading index.
        """
        terms = values * (-(self.radius / self.nodes) * self._phases)
        return (terms[..., 0] + terms[..., -1]
                + 2.0 * terms[..., 1:-1].real.sum(axis=-1))


@dataclass
class GroundStateRecord:
    """Lowest eigenpair plus diagnostics from a symmetric eigensolve."""

    energy: float
    vector: np.ndarray = field(repr=False)
    gap: float
    residual: float
    method: str


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


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All eigenpairs of the symmetric ``a`` (its lower triangle), ascending,
    by ``numpy.linalg.eigh``; raises ``SolverError`` when ``a`` is not
    finite, where LAPACK's result is undefined."""
    if not np.isfinite(a).all():
        raise SolverError("symmetric eigenproblem matrix is not finite")
    return np.linalg.eigh(a)


def dense_spectrum(op):
    """All eigenpairs, ascending, by ``scipy.linalg.eigh`` (LAPACK
    ``dsyevr`` in scipy's OpenBLAS); the dense oracle.  No command calls
    it: it checks the production eigensolves (``_eigh``) with another
    driver from another library, and imports it here so that a command
    never loads ``scipy.linalg``."""
    from scipy.linalg import eigh

    return eigh(_dense(op))


def _davidson(op, pairs: int, start: np.ndarray):
    """The ``pairs`` lowest eigenpairs of a symmetric operator (anything
    with ``shape``, ``diagonal()`` and ``@`` on (n, k) blocks) by block
    Davidson with the diagonal preconditioner, from ``start``.

    The search space starts as ``start`` and the ``pairs + 2`` unit vectors
    of the lowest diagonal entries (a stable sort), which give it weight on
    levels that a start sharing the operator's symmetries cannot reach.
    Each step takes the Rayleigh-Ritz pairs of the space (``_eigh``) and
    adds one correction (diag - theta_i)^{-1} r_i per wanted pair whose
    residual is above ``DAVIDSON_TOL`` times the operator's largest
    absolute diagonal entry (at least 1), orthonormalized by two
    Gram-Schmidt passes; past ``DAVIDSON_MAX_DIM``
    vectors the space restarts from its ``pairs + 2`` lowest Ritz vectors.
    The Rayleigh-Ritz matrix V A V^T is kept between steps and grows by
    rows: each new vector adds its row against the whole space, mirrored
    into the column, and a restart leaves diag(theta) of the kept Ritz
    values.
    Nothing is random, so a solve is bit-identical on every run.  Returns
    (values, vectors) ascending.

    A one-state operator returns at once: its one pair is the Rayleigh
    quotient b (op b) of the normalized start b = +-1 and the vector [1],
    the arithmetic of the loop's first step, whose unit vectors collapse
    onto b and whose residual is zero.
    """
    n = op.shape[0]
    if n == 1:
        b = np.asarray(start, dtype=float)
        b = b / np.linalg.norm(b)
        return b * (op @ b), np.ones((1, 1))
    diag = op.diagonal()
    tol = DAVIDSON_TOL * max(1.0, float(np.max(np.abs(diag))))
    cap = DAVIDSON_MAX_DIM
    # one row per vector, never zero-filled: rows past size are never read;
    # the space's Rayleigh-Ritz matrix is kept between steps
    basis = np.empty((cap + pairs, n))
    image = np.empty((cap + pairs, n))
    ritz = np.empty((cap + pairs, cap + pairs))
    size = 0

    def extend(vectors):
        nonlocal size
        first = size
        for t in vectors:
            scale = np.sqrt(np.dot(t, t))
            for _ in range(2):
                t = t - np.dot(np.dot(basis[:size], t), basis[:size])
            norm = np.sqrt(np.dot(t, t))
            if norm > 1e-10 * scale:
                basis[size] = t / norm
                size += 1
        image[first:size] = (op @ basis[first:size].T).T
        rows = np.dot(basis[first:size], image[:size].T)
        ritz[first:size, :size] = rows
        ritz[:first, first:size] = rows[:, :first].T
        return size - first

    lowest = np.argsort(diag, kind="stable")[:pairs + 2]
    units = np.zeros((len(lowest), n))
    units[np.arange(len(lowest)), lowest] = 1.0
    extend([np.asarray(start, dtype=float), *units])
    del units   # only seeds the space: not held while the space grows
    res = np.full(pairs, np.inf)
    for step in range(1, DAVIDSON_MAX_ITER + 1):
        theta, coef = _eigh(ritz[:size, :size])
        wanted = coef[:, :pairs].T
        vecs = np.dot(wanted, basis[:size])
        resid = np.dot(wanted, image[:size]) - theta[:pairs, None] * vecs
        res = np.sqrt([np.dot(r, r) for r in resid])
        open_ = np.flatnonzero(res > tol)
        if len(open_) == 0:
            return theta[:pairs], vecs.T
        if size + len(open_) > cap:
            keep = pairs + 2
            basis[:keep] = coef[:, :keep].T @ basis[:size]
            image[:keep] = coef[:, :keep].T @ image[:size]
            ritz[:keep, :keep] = np.diag(theta[:keep])
            size = keep
        corrections = []
        for i in open_:
            denom = diag - theta[i]
            # a diagonal entry at the Ritz value must not blow the
            # correction up
            denom[np.abs(denom) < 1e-12] = 1e-12
            corrections.append(resid[i] / denom)
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
    diagonal preconditioner (method ``"davidson"``) at any size, which
    raises ``SolverError`` at its iteration cap; every solve a command makes
    is one.  Cold solves (no start, or a zero one), which only direct
    callers make, take the whole spectrum up to ``dense_cutoff`` states
    (and always up to 5, which ARPACK cannot take) by one
    ``numpy.linalg.eigh`` (``_eigh``) of the dense operator (``_dense``),
    of which the lowest ``pairs`` pairs are kept.  Larger cold ones use
    scipy's implicitly restarted Lanczos solver (ARPACK) for ``pairs``
    pairs from a fixed vector, with a seeded generator for its restarts,
    imported where it runs.  Every path is deterministic, so repeated runs are bit-identical.
    The gap is NaN when no second eigenvalue is known: ``pairs=1``, a 1 x 1
    operator, or a partial Lanczos result with one pair.
    """
    n = op.shape[0]
    if start is not None and np.any(start):
        vals, vecs = _davidson(op, pairs, start)
        method = "davidson"
    elif n <= max(dense_cutoff, 5):
        vals, vecs = _eigh(_dense(op, dense_limit=n))
        vals, vecs = vals[:pairs], vecs[:, :pairs]
        method = "dense"
    else:
        import scipy.sparse.linalg as spla

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
                             residual=residual, method=method)


def shifted_solve(op, shift: float, b: np.ndarray,
                  psi: np.ndarray | None = None,
                  gap: float = np.nan) -> np.ndarray:
    """(op - shift)^{-1} b for a real ``shift`` below the spectrum of the
    symmetric ``op`` (anything with ``shape``, ``diagonal()`` and ``@``),
    by conjugate gradients with the diagonal preconditioner diag(op) -
    shift (Hestenes & Stiefel, J. Res. NBS 49, 1952).

    Given a unit eigenvector ``psi`` of ``op`` at ``shift``, it solves on
    the complement of psi instead: the reduced resolvent (op - shift)^{-1}
    Q b with Q = 1 - psi psi^T, the Sternheimer equation of second-order
    perturbation theory (Sternheimer, Phys. Rev. 96, 951, 1954).  The
    right-hand side, every preconditioned residual and every product are
    projected by Q, where op - shift is at least the spectral ``gap``
    above psi's level; the preconditioner is floored at ``gap``, so that a
    basis state close to psi, whose diagonal sits near the shift, does not
    amplify rounding.

    The solve starts from x = 0, so a zero ``b`` (a zero Q b, with
    ``psi``) gives zeros; it stops when its CG residual is at most
    ``KRYLOV_TOL`` times the norm of b.  A zero Q b, as on a one-state
    space, returns before the preconditioner is checked.  ``b`` is never
    written to.  Nothing is random, so a solve is bit-identical on every
    run.  Raises ``ConditioningError`` when a diagonal entry of the
    preconditioner (NaN for an unknown ``gap``) or a curvature p . (op -
    shift) p is not positive, either of which puts the shift inside the
    spectrum, and ``SolverError`` with the best relative residual after
    ``KRYLOV_MAX`` products.
    """
    b = np.asarray(b, dtype=float)
    if psi is not None:
        # twice (Parlett's "twice is enough"): one pass leaves rounding
        # along psi of the size of b, which is all of Q b when b lies
        # close to psi
        for _ in range(2):
            b = b - (psi @ b) * psi

    def project(v):
        return v if psi is None else v - (psi @ v) * psi

    x = np.zeros_like(b)
    if not np.any(b):
        return x
    precond = op.diagonal() - shift
    if psi is not None:
        precond = np.maximum(precond, gap)
    if not np.all(precond > 0.0):
        raise ConditioningError(
            f"shift {shift} is not below the spectrum: the shifted operator "
            f"has diagonal entry {float(np.min(precond)):.3e}")
    b_norm = float(np.linalg.norm(b))
    # a copy: CG updates its residual in place
    r = b.copy()
    p = project(r / precond)
    rz, best = float(r @ p), 1.0
    for _ in range(KRYLOV_MAX):
        q = project(op @ p - shift * p)
        curv = float(p @ q)
        if not curv > 0.0:
            raise ConditioningError(
                f"shift {shift} is not below the spectrum: CG met "
                f"curvature {curv:.3e}")
        step = rz / curv
        x += step * p
        r -= step * q
        res = float(np.linalg.norm(r)) / b_norm
        best = min(best, res)
        if res <= KRYLOV_TOL:
            return x
        z = project(r / precond)
        rz, rz_old = float(r @ z), rz
        p = z + (rz / rz_old) * p
    raise SolverError(
        f"CG at shift {shift} stopped at relative residual {best:.3e} "
        f"(tolerance {KRYLOV_TOL:.1e}) after {KRYLOV_MAX} products",
        best_residual=best)


class ResolventSolver:
    """Solver of (op - z)x = b at many shifts z: the reorthogonalized
    Lanczos space of one real right-hand side b; applies op as is.

    The same basis V serves every shift z: (op - z)^{-1} b is approximated
    by V (T - z)^{-1} (||b|| e1) for the space's tridiagonal T.  A solve
    reads that from T's Ritz pairs T = S diag(theta) S^T (``ritz``, one
    ``numpy.linalg.eigh`` per size the space reaches) as S (||b|| S^T e1 /
    (theta - z)), whose last entry y_k gives the exact shifted residual
    beta_k |y_k|, so the space can be grown, up to ``max_dim`` vectors,
    until ``KRYLOV_TOL`` holds for every shift of a solve.  It grows by
    ``KRYLOV_BLOCK`` vectors at a time up to ``KRYLOV_LINEAR_MAX`` in one
    basis buffer of ``KRYLOV_LINEAR_MAX + 1`` rows (or ``max_dim + 1``),
    never zero-filled, and doubles past it, the only growth that
    reallocates; rows past the space are never read.  A solve answers all
    its shifts at one size, so the coefficients of a contour's nodes add as
    plain arrays, and ``lift`` multiplies real coefficients by the basis.
    """

    def __init__(self, op, b: np.ndarray):
        b = np.asarray(b)
        if np.iscomplexobj(b):
            raise ValueError("a ResolventSolver reduces real vectors only: "
                             "its Lanczos space starts from one real vector")
        self.op = op
        self.b0 = float(np.linalg.norm(b))
        self.max_dim = max(1, min(KRYLOV_MAX, len(b)))
        self.exhausted = self.b0 == 0.0
        self.steps = 0
        self.alpha, self.beta = np.zeros((2, self.max_dim))
        self._basis = np.empty((min(KRYLOV_LINEAR_MAX, self.max_dim) + 1,
                                len(b)))
        # b = 0 lifts its zero coefficient by this row
        self._basis[0] = (0.0 if self.exhausted
                          else np.asarray(b, dtype=float) / self.b0)
        self._ritz = None

    def _grow(self, target: int):
        if target >= len(self._basis) and not self.exhausted:
            basis = np.empty((target + 1, self._basis.shape[1]))
            basis[:self.steps + 1] = self._basis[:self.steps + 1]
            self._basis = basis
        while self.steps < target and not self.exhausted:
            m = self.steps
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

    def ritz(self) -> tuple[np.ndarray, np.ndarray]:
        """The Ritz values theta, ascending, and the eigenvectors S of the
        space's tridiagonal T = S diag(theta) S^T at its current size;
        decomposed once per size."""
        k = self.steps
        if self._ritz is None or len(self._ritz[0]) != k:
            t = np.diag(self.alpha[:k])
            t[np.arange(1, k), np.arange(k - 1)] = self.beta[:k - 1]
            self._ritz = _eigh(t)
        return self._ritz

    def solve(self, z) -> np.ndarray:
        """Coefficients of (op - z)^{-1} b for a shift or an array of
        shifts, grown until every shift meets ``KRYLOV_TOL`` at one size k:
        the complex (k,) + shape(z) block S (b0 S^T e1 / (theta - z)), or
        zeros of size 1 when b = 0.  Raises ``ConditioningError`` when a
        Ritz value lies on a shift."""
        z = np.asarray(z)
        if self.b0 == 0.0:
            return np.zeros((1,) + z.shape, dtype=complex)
        if self.steps == 0:
            self._grow(min(KRYLOV_BLOCK, self.max_dim))
        shifts = z.reshape(-1).astype(complex)
        while True:
            k = self.steps
            theta, s = self.ritz()
            with np.errstate(divide="ignore", invalid="ignore"):
                w = (self.b0 * s[0])[:, None] / (theta[:, None] - shifts)
            # one real product: S meets w's real and imaginary parts as a
            # (k, 2m) block, with no complex copy of S
            y = (s @ w.view(float)).view(complex)
            singular = ~np.isfinite(y).all(axis=0)
            if singular.any():
                raise ConditioningError(
                    f"shifted solve at z = {shifts[singular][0]} is "
                    f"singular: a Ritz value of the size-{k} Krylov space "
                    "lies on it")
            res = float(np.max(self.beta[k - 1] * np.abs(y[-1])))
            converged = res <= KRYLOV_TOL * self.b0
            if converged or self.exhausted:
                # an invariant space solves exactly, up to the rounding
                # of its last step; only a space cut at its size limit
                # fails
                if not converged and self.beta[k - 1] >= _BREAKDOWN:
                    raise ConditioningError(
                        f"Krylov space of size {k} left shifted residual at "
                        f"{res / self.b0:.2e}")
                return y.reshape((k,) + z.shape)
            grown = k + KRYLOV_BLOCK if k < KRYLOV_LINEAR_MAX else 2 * k
            self._grow(min(grown, self.max_dim))

    def lift(self, c: np.ndarray) -> np.ndarray:
        """The full vector V c of real coefficients c, a (k, 1) block for
        the real basis."""
        return (self._basis[:len(c)].T @ c[:, None])[:, 0]


def contour_project(op, contour: Contour, v: np.ndarray) -> np.ndarray:
    """Spectral projection of v onto the eigenspace of ``op`` inside the
    contour.

    ``op`` is real symmetric and ``v`` real, so the projection is real.
    The nodes sum as coefficients in v's Lanczos space: one space, one
    solve at all nodes, one lift.
    """
    space = ResolventSolver(op, v)
    acc = contour.integrate(space.solve(contour.upper))
    return np.ascontiguousarray(space.lift(acc.real))


def idempotence_defect(op, contour: Contour, v: np.ndarray) -> float:
    """Relative defect ||P(Pv) - Pv|| / ||Pv|| of the quadrature projector."""
    pv = contour_project(op, contour, v)
    nrm = np.linalg.norm(pv)
    if nrm == 0.0:
        return 0.0
    ppv = contour_project(op, contour, pv)
    return float(np.linalg.norm(ppv - pv) / nrm)


def contour_project_checked(op, contour: Contour, v: np.ndarray):
    """Projection with node doubling until the idempotence defect passes.

    Returns (projected vector, nodes used, defect).  Raises ContourError if
    ``MAX_NODES`` nodes leave the defect above ``PROJECTOR_TOL``, which
    signals an enclosure problem (the circle cuts through spectrum or
    encloses extra states on the sector of v).  When re-projection keeps
    less than half of Pv, the contour encloses none of v's spectrum and
    only quadrature leakage was projected; more nodes only shrink that
    leakage, so this raises at once, as it does when the projection is not
    finite.
    """
    current = contour
    while True:
        pv = contour_project(op, current, v)
        nrm = np.linalg.norm(pv)
        if nrm == 0.0:
            return pv, current.nodes, 0.0
        ppv = contour_project(op, current, pv)
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
        if defect <= PROJECTOR_TOL:
            return pv, current.nodes, defect
        if current.nodes * 2 > MAX_NODES:
            raise ContourError(
                f"projector defect {defect:.3e} above {PROJECTOR_TOL:.1e} "
                f"at {current.nodes} nodes")
        current = replace(current, nodes=current.nodes * 2)


def neumann_project(op, delta_h, contour: Contour, v: np.ndarray,
                    n_terms: int = 6):
    """Projection of v by the perturbation series around ``op``; a dense
    oracle.

    Term n applies (op - z)^{-1} [ -delta_h (op - z)^{-1} ]^n under the
    contour integral; the sum converges to the direct projection with the
    perturbed operator when the series terms decay.  Each node factors
    op - z once (scipy's LU, imported here) and takes the n_terms + 1
    solves from the factors.
    Returns (partial sum, per-term norms).
    """
    from scipy.linalg import lu_factor, lu_solve

    a = _dense(op)
    eye = np.eye(len(a))
    minus_dh = -delta_h

    def node(z):
        lu = lu_factor(a - z * eye)
        ys = [lu_solve(lu, v)]
        for _ in range(n_terms):
            ys.append(lu_solve(lu, minus_dh @ ys[-1]))
        return ys

    # (term, state, node)
    values = np.stack([node(z) for z in contour.upper], axis=-1)
    terms = contour.integrate(values).real
    norms = np.linalg.norm(terms, axis=1)
    tail = norms[norms > 0]
    if len(tail) > 2 and tail[-1] >= tail[-2]:
        warnings.warn(
            "perturbation-series terms stopped decreasing; coupling too "
            "large for the gap", RuntimeWarning, stacklevel=2)
    return terms.sum(axis=0), norms
