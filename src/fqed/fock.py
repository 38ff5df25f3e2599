"""Truncated bosonic occupation bases and sparse operator assembly.

States are occupation vectors n over a fixed mode set, kept when the total
occupation stays below ``n_max`` and every single mode stays below ``c_max``.
Enumeration is graded: by total occupation first, then reverse-lexicographic
within a level, so the vacuum is state 0 and the ordering is reproducible.
It is one pass, level by level: each state of level T + 1 is written at the
closed-form rank of the raise into it from level T.

Truncation semantics: a ladder amplitude that would leave the basis is
dropped (not reflected).  Creation operators are therefore exact transposes
of annihilation operators, and the canonical commutation relations hold
exactly on the sub-basis where no cap is saturated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .csr import CSR
from .modes import ModeGrid, ParameterError, ResourceError


#: Refuse to enumerate bases beyond this many states unless overridden.
DEFAULT_SIZE_LIMIT = 2_000_000

#: Occupation entries per block of states the basis is built from.
_RAISE_BLOCK = 1 << 16

#: Bytes the enumeration holds at its peak per (state, mode) occupation
#: entry: 32.6 MiB under ``tracemalloc`` for 45,151 states x 300 modes.
ENTRY_BYTES = 2.6

#: Bytes it holds per raise: 500.1 MiB for the 7,864,320 raises of
#: 10 modes at caps 30 and 3 (four 8-byte arrays, twice when joined).
RAISE_BYTES = 67

#: Bytes of one block's temporaries: eight 8-byte arrays of its entries.
BLOCK_BYTES = 64 * _RAISE_BLOCK

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


def _raise_count(n_modes: int, n_max: int, c_max: int) -> int:
    """Number of in-basis raises: each mode takes a quantum in every state
    below the top total n, except the B(modes - 1, n - 1 - c_max) that
    hold it full, with B = ``basis_size``."""
    n = min(n_max, n_modes * c_max)
    if n == 0:
        return 0
    full = basis_size(n_modes - 1, n - 1 - c_max, c_max) if n > c_max else 0
    return n_modes * (basis_size(n_modes, n - 1, c_max) - full)


def check_basis_size(n_modes: int, n_max: int, c_max: int,
                     size_limit: int = DEFAULT_SIZE_LIMIT) -> int:
    """The basis size in closed form; raises ResourceError, without
    enumerating, above ``size_limit`` states or ``ENTRY_LIMIT`` states x
    modes, or where the occupations, raises and one block's temporaries
    would take more than 1 GiB.  Three lower bounds go first, in turn and in
    logarithms so that no huge count is formed: with n = min(n_max,
    modes x c_max), every total up to n occurs; so does every choice of
    min(n, modes // 2) modes holding one quantum each; and so does every
    composition of t = min(n, c_max) quanta over the modes,
    C(t + modes - 1, t) of them, since no part exceeds the cap."""
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
    n_raises = _raise_count(n_modes, n_max, c_max)
    held = ENTRY_BYTES * n_states * n_modes + RAISE_BYTES * n_raises
    if held + BLOCK_BYTES > 2**30:
        raise ResourceError(
            f"basis would hold {_count_text(math.log(n_states))} states x "
            f"{n_modes} modes and {n_raises} raises, "
            f"{held / 2**30:.2f} GiB to enumerate, above 1 GiB")
    return n_states


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
    _sectors: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

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

    def sector_indices(self, grid: ModeGrid, j: int) -> np.ndarray:
        """States with no photons below the scale-``j`` cutoff (shells >= j),
        ascending; found once per scale and active-mode set, and read-only."""
        active = grid.active_mask(j)
        key = (j, active.tobytes())
        if key not in self._sectors:
            idx = np.flatnonzero(self.occupations[:, ~active].sum(axis=1) == 0)
            idx.flags.writeable = False
            self._sectors[key] = idx
        return self._sectors[key]


def _build_levels(n_modes: int, n_max: int, c_max: int):
    """The occupations, and (src, dst, mode, amp) of every in-basis raise
    ordered by source, then mode, built level by level.

    A raise's target index is its rank, in closed form.  A level lists its
    states in descending lexicographic order, so the states of level T
    before an occupation n are counted position by position: at position
    i, with R_i quanta from i on, those that agree before i and hold more
    than n_i at i number S(k, R_i - n_i - 1) - S(k, R_i - c_max - 1), with
    k = modes - 1 - i and S(k, r) the number of ways to fill k modes with
    at most r quanta.  Raising mode m leaves the terms after m as they are
    and gives the terms up to m one more quantum to place, so one prefix
    and one suffix sum per state give the rank of every raise.  Level T's
    raises write level T + 1, each state once: from the raise at or past
    its source's last occupied mode, the one lowering of its own last
    occupied mode.  The counts are exact integers, none above the basis
    size; a level goes through in blocks, so the temporaries stay
    O(states x modes).
    """
    n = min(n_max, n_modes * c_max)
    counts = list(_mode_counts(n_modes, n, c_max, dtype=np.int64))
    # cum[k, r + 1] = S(k, r); column 0 stands for every r < 0
    cum = np.zeros((n_modes, n + 2), dtype=np.int64)
    for k in range(n_modes):
        cum[k, 1:] = np.cumsum(counts[k])
    first = np.zeros(n + 2, dtype=np.int64)   # index of each level's first
    first[1:] = np.cumsum(counts[n_modes])
    mode = np.arange(n_modes)
    k = n_modes - 1 - mode

    def fillings(r):
        return cum[k, np.maximum(r + 1, 0)]

    occ = np.zeros((int(first[-1]), n_modes), dtype=np.int16)
    parts = [(np.zeros(0, dtype=np.int64),) * 3 + (np.zeros(0),)]
    block = max(1, _RAISE_BLOCK // max(n_modes, 1))
    # the top level raises nothing
    for total in range(n):
        end = int(first[total + 1])   # level T + 1 starts here
        for lo in range(int(first[total]), end, block):
            o = occ[lo:min(lo + block, end)].astype(np.int64)
            rest = total - (np.cumsum(o, axis=1) - o)
            more = fillings(rest - o - 1)
            term = more - fillings(rest - c_max - 1)
            up = fillings(rest - o) - fillings(rest - c_max)
            at = more - fillings(rest - c_max)
            dst = (end + (np.cumsum(up, axis=1) - up) + at
                   + (term.sum(axis=1)[:, None] - np.cumsum(term, axis=1)))
            ok = o < c_max
            row, m = np.nonzero(ok & (rest == o))   # nothing past m
            new = dst[row, m]
            # the rows a block writes outnumber its own: copy them in blocks
            for at in range(0, len(row), block):
                occ[new[at:at + block]] = occ[lo + row[at:at + block]]
            occ[new, m] += 1
            src = np.broadcast_to(np.arange(lo, lo + len(o))[:, None],
                                  o.shape)
            parts.append((src[ok], dst[ok],
                          np.broadcast_to(mode, o.shape)[ok],
                          np.sqrt(o[ok] + 1.0)))
    return (occ,) + tuple(np.concatenate(p) for p in zip(*parts))


def enumerate_basis(n_modes: int, n_max: int, c_max: int,
                    size_limit: int = DEFAULT_SIZE_LIMIT) -> FockBasis:
    """Build the truncated occupation basis; vacuum is state 0."""
    if n_modes < 0 or n_max < 0:
        raise ParameterError("mode count and total cap must be nonnegative")
    if c_max < 1:
        raise ParameterError(f"per-mode cap must be >= 1, got {c_max}")
    check_basis_size(n_modes, n_max, c_max, size_limit)
    occ, src, dst, mode, amp = _build_levels(n_modes, n_max, c_max)
    return FockBasis(n_modes=n_modes, n_max=n_max, c_max=c_max,
                     occupations=occ, raise_src=src, raise_dst=dst,
                     raise_mode=mode, raise_amp=amp)


def ladder(basis: FockBasis, m: int):
    """(annihilate_m, create_m) as ``scipy.sparse`` matrices, annihilate =
    create.T; an oracle, which imports ``scipy.sparse`` here."""
    import scipy.sparse as sp

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


def creation_sum(basis: FockBasis, coeff: np.ndarray) -> CSR:
    """Sum_m coeff[m] * create_m as one sparse matrix, zero entries kept."""
    coeff = np.asarray(coeff, dtype=float)
    data = coeff[basis.raise_mode] * basis.raise_amp
    return CSR(data, basis.raise_dst, basis.raise_src,
               (basis.size, basis.size))


def linear_field(basis: FockBasis, coeff: np.ndarray):
    """Symmetric field combination Sum_m coeff[m] (create_m + annihilate_m)
    as a ``scipy.sparse`` matrix; an oracle."""
    c = creation_sum(basis, coeff).tocsr()
    return (c + c.T).tocsr()


def number_diagonal(basis: FockBasis, fvals: np.ndarray) -> np.ndarray:
    """Diagonal of Sum_m fvals[m] * n_m over basis states."""
    return basis.occupations @ np.asarray(fvals, dtype=float)


def symmetry_defect(op) -> float:
    """Largest entrywise asymmetry |A - A.T| of a ``scipy.sparse`` matrix;
    0 for exactly symmetric ops."""
    d = (op - op.T).tocoo()
    return float(np.max(np.abs(d.data))) if d.nnz else 0.0
