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


def _mode_counts(n_modes: int, n: int, c_max: int, dtype=object):
    """Yield count_k for k = 0..n_modes modes: count_k[t] is the number of
    ways to fill k modes with t quanta, t = 0..n, none above ``c_max``."""
    count = np.zeros(n + 1, dtype=dtype)
    count[0] = 1
    yield count
    for _ in range(n_modes):
        acc = np.cumsum(count)   # each mode sums a window of c_max + 1
        count = acc.copy()
        count[c_max + 1:] -= acc[:max(0, n - c_max)]
        yield count


def basis_size(n_modes: int, n_max: int, c_max: int) -> int:
    """Number of occupation vectors with the given caps (no enumeration)."""
    n_max = min(n_max, n_modes * c_max)   # no state holds more quanta
    for count in _mode_counts(n_modes, n_max, c_max):
        pass
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


def _log_binomial(n: int, k: int) -> float:
    """ln C(n, k) for 0 <= k <= n."""
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def check_basis_size(n_modes: int, n_max: int, c_max: int,
                     size_limit: int = DEFAULT_SIZE_LIMIT) -> int:
    """The basis size in closed form; raises ResourceError above
    ``size_limit`` states, or above ``ENTRY_LIMIT`` states x modes (the
    occupation entries enumeration holds), without enumerating anything.
    Three lower bounds go first, in turn and in logarithms so that no huge
    count is formed: with n = min(n_max, modes x c_max), every total up to
    n occurs; so does every choice of min(n, modes // 2) modes holding one
    quantum each; and so does every composition of t = min(n, c_max)
    quanta over the modes, C(t + modes - 1, t) of them, since no part
    exceeds the cap."""
    n = min(n_max, n_modes * c_max)   # no state holds more quanta
    _check_count(math.log(n + 1), n_modes, size_limit, "at least ")
    k = min(n, n_modes // 2)
    _check_count(_log_binomial(n_modes, k), n_modes, size_limit, "at least ")
    # t is below size_limit now, so its log-gamma is finite
    t = min(n, c_max)
    _check_count(_log_binomial(t + n_modes - 1, t) if t else 0.0, n_modes,
                 size_limit, "at least ")
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
        hit = np.flatnonzero(np.all(self.occupations == np.asarray(occ),
                                    axis=1))
        if len(hit) == 0:
            raise KeyError(f"occupation {tuple(occ)} is not in the basis")
        return int(hit[0])

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


#: Occupation entries per block of states the raise table is built from.
_RAISE_BLOCK = 1 << 16


def _raise_table(occ: np.ndarray, n_max: int, c_max: int):
    """(src, dst, mode, amp) of every in-basis raise of the enumerated
    occupations ``occ``, ordered by source, then mode.

    The target's index is its rank, in closed form.  A level lists its
    states in descending lexicographic order, so the states of level T
    before an occupation n are counted position by position: at position
    i, with R_i quanta from i on, those that agree before i and hold more
    than n_i at i number S(k, R_i - n_i - 1) - S(k, R_i - c_max - 1), with
    k = modes - 1 - i and S(k, r) the number of ways to fill k modes with
    at most r quanta.  Raising mode m leaves the terms after m as they are
    and gives the terms up to m one more quantum to place, so one prefix
    and one suffix sum per state give the rank of every raise.  The counts
    are exact integers, none above the basis size; states go through in
    blocks, so the temporaries stay O(states x modes).
    """
    n_states, n_modes = occ.shape
    n = min(n_max, n_modes * c_max)
    counts = list(_mode_counts(n_modes, n, c_max, dtype=np.int64))
    # cum[k, r + 1] = S(k, r); column 0 stands for every r < 0
    cum = np.zeros((n_modes, n + 2), dtype=np.int64)
    for k in range(n_modes):
        cum[k, 1:] = np.cumsum(counts[k])
    first = np.zeros(n + 2, dtype=np.int64)   # index of each level's first
    first[1:] = np.cumsum(counts[n_modes])
    # levels are graded, so the states with room to raise come first
    n_src = int(first[min(n_max, n + 1)])
    mode = np.arange(n_modes)
    k = n_modes - 1 - mode

    def fillings(r):
        return cum[k, np.maximum(r + 1, 0)]

    parts = [(np.zeros(0, dtype=np.int64),) * 3 + (np.zeros(0),)]
    block = max(1, _RAISE_BLOCK // max(n_modes, 1))
    for lo in range(0, n_src, block):
        o = occ[lo:min(lo + block, n_src)].astype(np.int64)
        total = o.sum(axis=1)
        rest = total[:, None] - (np.cumsum(o, axis=1) - o)
        more = fillings(rest - o - 1)
        term = more - fillings(rest - c_max - 1)
        up = fillings(rest - o) - fillings(rest - c_max)
        at = more - fillings(rest - c_max)
        dst = (first[total + 1][:, None] + (np.cumsum(up, axis=1) - up) + at
               + (term.sum(axis=1)[:, None] - np.cumsum(term, axis=1)))
        ok = o < c_max
        src = np.broadcast_to(np.arange(lo, lo + len(o))[:, None], o.shape)
        parts.append((src[ok], dst[ok], np.broadcast_to(mode, o.shape)[ok],
                      np.sqrt(o[ok] + 1.0)))
    return tuple(np.concatenate(p) for p in zip(*parts))


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
    src, dst, mode, amp = _raise_table(occ, n_max, c_max)
    return FockBasis(n_modes=n_modes, n_max=n_max, c_max=c_max,
                     occupations=occ, raise_src=src, raise_dst=dst,
                     raise_mode=mode, raise_amp=amp)


def ladder(basis: FockBasis, m: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """(annihilate_m, create_m) as sparse matrices; annihilate = create.T."""
    if not 0 <= m < basis.n_modes:
        raise IndexError(f"mode index {m} out of range")
    sel = basis.raise_mode == m
    create = sp.coo_matrix(
        (basis.raise_amp[sel], (basis.raise_dst[sel], basis.raise_src[sel])),
        shape=(basis.size, basis.size)).tocsr()
    return create.T.tocsr(), create


def annihilate(basis: FockBasis, m: int, v: np.ndarray) -> np.ndarray:
    """annihilate_m v, read off the raise table: the transpose of
    create_m, which ``ladder`` builds as a matrix."""
    sel = basis.raise_mode == m
    out = np.zeros(basis.size)
    out[basis.raise_src[sel]] = basis.raise_amp[sel] * v[basis.raise_dst[sel]]
    return out


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
