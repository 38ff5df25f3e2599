"""Truncated bosonic occupation bases and sparse operator assembly.

States are occupation vectors n over a fixed mode set, kept when the total
occupation stays below ``n_max`` and every single mode stays below ``c_max``.
Enumeration is graded: by total occupation first, then reverse-lexicographic
within a level, so the vacuum is state 0 and the ordering is reproducible.

Truncation semantics: a ladder amplitude that would leave the basis is
dropped (not reflected).  Creation operators are therefore exact transposes
of annihilation operators, and the canonical commutation relations hold
exactly on the sub-basis where no cap is saturated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .modes import ModeGrid, ParameterError, ResourceError


#: Refuse to enumerate bases beyond this many states unless overridden.
DEFAULT_SIZE_LIMIT = 2_000_000

#: Bytes the enumeration holds per (state, mode) occupation entry at its
#: peak: 133 MiB under ``tracemalloc`` for 45,151 states x 300 modes.
ENTRY_BYTES = 133 * 2**20 / (45_151 * 300)

#: Largest states x modes product enumerated: about 1 GiB at that rate.
ENTRY_LIMIT = int(2**30 / ENTRY_BYTES)


def basis_size(n_modes: int, n_max: int, c_max: int) -> int:
    """Number of occupation vectors with the given caps (no enumeration)."""
    n_max = min(n_max, n_modes * c_max)   # no state holds more quanta
    # count[t] = number of ways to fill the modes seen so far with total t
    count = np.zeros(n_max + 1, dtype=object)
    count[0] = 1
    for _ in range(n_modes):
        acc = np.cumsum(count)   # each mode sums a window of c_max + 1
        count = acc.copy()
        count[c_max + 1:] -= acc[:max(0, n_max - c_max)]
    return int(sum(count))


def _count_text(log_count: float) -> str:
    """A count given by its natural log: exact below a million, else to
    four digits (``7.194e9``)."""
    if log_count < math.log(1e6):
        return str(round(math.exp(log_count)))
    e = math.floor(log_count / math.log(10))
    mantissa = round(math.exp(log_count - e * math.log(10)), 3)
    if mantissa >= 10.0:
        mantissa, e = mantissa / 10.0, e + 1
    return f"{mantissa:.3f}e{e}"


def _check_count(log_states: float, n_modes: int, size_limit: int,
                 bound: str = ""):
    """ResourceError when e**log_states states are above ``size_limit``, or
    times ``n_modes`` above ``ENTRY_LIMIT``; ``bound`` prefixes the count."""
    states = bound + _count_text(log_states)
    if size_limit < 1 or log_states > math.log(size_limit):
        raise ResourceError(f"basis would hold {states} states, above limit "
                            f"{size_limit}")
    if log_states + math.log(max(n_modes, 1)) > math.log(ENTRY_LIMIT):
        raise ResourceError(
            f"basis would hold {states} states x {n_modes} modes, above "
            f"limit {ENTRY_LIMIT} occupation entries")


def check_basis_size(n_modes: int, n_max: int, c_max: int,
                     size_limit: int = DEFAULT_SIZE_LIMIT) -> int:
    """The basis size in closed form; raises ResourceError above
    ``size_limit`` states, or above ``ENTRY_LIMIT`` states x modes (the
    occupation entries enumeration holds), without enumerating anything.
    Two lower bounds go first, in logarithms so that no huge count is
    formed: with n = min(n_max, modes x c_max), every total up to n occurs,
    and so does every choice of min(n, modes // 2) modes holding one
    quantum each."""
    n = min(n_max, n_modes * c_max)   # no state holds more quanta
    k = min(n, n_modes // 2)
    _check_count(max(math.log(n + 1), math.lgamma(n_modes + 1)
                     - math.lgamma(k + 1) - math.lgamma(n_modes - k + 1)),
                 n_modes, size_limit, "at least ")
    n_states = basis_size(n_modes, n_max, c_max)
    _check_count(math.log(n_states), n_modes, size_limit)
    return n_states


def _occupation_levels(n_modes: int, n_max: int, c_max: int):
    """Yield occupation tuples graded by total, reverse-lex within a level.

    Within a level each tuple follows from the one before: the rightmost
    entry with room after it gives up one quantum, and the entries after
    it are refilled greedily from the left.  The walk is a loop, so the
    mode count is not bounded by the interpreter's recursion limit.
    """
    def fill(occ, start, amount):
        """Greedy fill from ``start``; the index of the last filled entry."""
        while amount > 0:
            occ[start] = min(amount, c_max)
            amount -= occ[start]
            start += 1
        return start - 1

    for total in range(min(n_max, n_modes * c_max) + 1):
        occ = [0] * n_modes
        last = fill(occ, 0, total)
        while True:
            yield tuple(occ)
            rest, i = 0, last
            while i >= 0 and (occ[i] == 0
                              or rest >= (n_modes - 1 - i) * c_max):
                rest += occ[i]
                i -= 1
            if i < 0:
                break
            occ[i] -= 1
            occ[i + 1:last + 1] = [0] * (last - i)
            last = fill(occ, i + 1, rest + 1)


@dataclass
class FockBasis:
    """Enumerated occupation basis with precomputed raising transitions.

    ``occupations`` has one row per state; ``raise_src[r] -> raise_dst[r]``
    lists every in-basis application of a creation operator, with mode index
    ``raise_mode[r]`` and amplitude ``raise_amp[r] = sqrt(n_m + 1)``.
    """

    n_modes: int
    n_max: int
    c_max: int
    occupations: np.ndarray = field(repr=False)
    raise_src: np.ndarray = field(repr=False)
    raise_dst: np.ndarray = field(repr=False)
    raise_mode: np.ndarray = field(repr=False)
    raise_amp: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return self.occupations.shape[0]

    @property
    def totals(self) -> np.ndarray:
        return self.occupations.sum(axis=1)

    def index_of(self, occ) -> int:
        key = np.asarray(occ, dtype=np.int16).tobytes()
        try:
            return self._index[key]
        except AttributeError:
            self._index = {row.tobytes(): i
                           for i, row in enumerate(self.occupations)}
            return self._index[key]

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.size)
        v[0] = 1.0
        return v

    def restricted_indices(self, allowed: np.ndarray) -> np.ndarray:
        """Indices of states occupying only modes where ``allowed`` is True."""
        allowed = np.asarray(allowed, dtype=bool)
        mask = self.occupations[:, ~allowed].sum(axis=1) == 0
        return np.nonzero(mask)[0]

    def sector_indices(self, grid: ModeGrid, j: int) -> np.ndarray:
        """States with no photons below the scale-``j`` cutoff (shells >= j)."""
        return self.restricted_indices(grid.active_mask(j))


def enumerate_basis(n_modes: int, n_max: int, c_max: int,
                    size_limit: int = DEFAULT_SIZE_LIMIT) -> FockBasis:
    """Build the truncated occupation basis; vacuum is state 0."""
    if n_modes < 0 or n_max < 0:
        raise ParameterError("mode count and total cap must be nonnegative")
    if c_max < 1:
        raise ParameterError(f"per-mode cap must be >= 1, got {c_max}")
    n_states = check_basis_size(n_modes, n_max, c_max, size_limit)

    occ = np.array(list(_occupation_levels(n_modes, n_max, c_max)),
                   dtype=np.int16).reshape(n_states, n_modes)
    index = {row.tobytes(): i for i, row in enumerate(occ)}
    totals = occ.sum(axis=1)

    src, dst, mode, amp = [], [], [], []
    for s in range(n_states):
        if totals[s] >= n_max:
            continue
        row = occ[s]
        for m in range(n_modes):
            if row[m] >= c_max:
                continue
            row[m] += 1
            dst.append(index[row.tobytes()])
            row[m] -= 1
            src.append(s)
            mode.append(m)
            amp.append(np.sqrt(row[m] + 1.0))

    basis = FockBasis(
        n_modes=n_modes, n_max=n_max, c_max=c_max, occupations=occ,
        raise_src=np.asarray(src, dtype=np.int64),
        raise_dst=np.asarray(dst, dtype=np.int64),
        raise_mode=np.asarray(mode, dtype=np.int64),
        raise_amp=np.asarray(amp, dtype=float),
    )
    basis._index = index
    return basis


def ladder(basis: FockBasis, m: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """(annihilate_m, create_m) as sparse matrices; annihilate = create.T."""
    if not 0 <= m < basis.n_modes:
        raise IndexError(f"mode index {m} out of range")
    sel = basis.raise_mode == m
    create = sp.coo_matrix(
        (basis.raise_amp[sel], (basis.raise_dst[sel], basis.raise_src[sel])),
        shape=(basis.size, basis.size)).tocsr()
    return create.T.tocsr(), create


def creation_sum(basis: FockBasis, coeff: np.ndarray) -> sp.csr_matrix:
    """Sum_m coeff[m] * create_m as one sparse matrix."""
    coeff = np.asarray(coeff, dtype=float)
    data = coeff[basis.raise_mode] * basis.raise_amp
    return sp.coo_matrix(
        (data, (basis.raise_dst, basis.raise_src)),
        shape=(basis.size, basis.size)).tocsr()


def linear_field(basis: FockBasis, coeff: np.ndarray) -> sp.csr_matrix:
    """Symmetric field combination Sum_m coeff[m] (create_m + annihilate_m)."""
    c = creation_sum(basis, coeff)
    return (c + c.T).tocsr()


def number_diagonal(basis: FockBasis, fvals: np.ndarray) -> np.ndarray:
    """Diagonal of Sum_m fvals[m] * n_m over basis states."""
    return basis.occupations @ np.asarray(fvals, dtype=float)


def symmetry_defect(op: sp.spmatrix) -> float:
    """Largest entrywise asymmetry |A - A.T|; 0 for exactly symmetric ops."""
    d = (op - op.T).tocoo()
    return float(np.max(np.abs(d.data))) if d.nnz else 0.0
