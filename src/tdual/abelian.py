"""Exact arithmetic for finitely generated abelian groups.

Everything here works over Z with Python's arbitrary-precision integers;
no floating point appears anywhere.  A finitely generated abelian group
is kept in invariant-factor form

    Z^r  (+)  Z/d1 (+) ... (+) Z/dk,     d1 | d2 | ... | dk,  di >= 2,

and its canonical generators are ordered free-first, torsion-last (torsion
in chain order).  A homomorphism is an integer matrix acting on column
coordinate vectors with respect to the canonical generators; torsion
coordinates are always stored reduced.

Matrices carry their shape explicitly (a 3x0 matrix is not a 0x3 one),
which keeps maps into and out of the zero group honest.  IntMatrix,
FgGroup, GroupElement and Hom, like every tdual value type built on
_Value, are tuple-backed: named tuples, equal to the plain tuple of their
fields, that compare and hash in C.  kernel,
cokernel_presentation, section_matrix, solve_hom and direct_sum are memos
keyed by them; every tdual cache is a memo, which clear_memos() empties.
Only cokernel_presentation calls smith_normal_form; kernel, solve_hom and
section_matrix read its answer.  u^-1 is derived from u, by one Hermite
pass, only where a section is read: direct_sum and sublattice_quotient.
_snf_with_inverses is smith_normal_form under the name the benchmark's
tracer wraps.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from operator import add, mul
from typing import Optional, Sequence

# Each memo keeps its MEMO_SIZE latest answers by argument value and type,
# none that raised; clear_memos() empties every memo in _MEMOS.  Cokernels,
# quotients, direct sums and kernels share cokernel_presentation's answers;
# kernel, solve_hom, section_matrix and is_exact_at read its Smith forms.
MEMO_SIZE = 16
_MEMOS = []


def memo(fn):
    _MEMOS.append(cached := lru_cache(maxsize=MEMO_SIZE, typed=True)(fn))
    return cached


def clear_memos() -> None:
    """Empty every memo: the cold-start hook."""
    for cached in _MEMOS:
        cached.cache_clear()


# ---------------------------------------------------------------------------
# integer matrices
# ---------------------------------------------------------------------------

def _check_dims(*dims: int) -> None:
    if any(type(n) is not int or n < 0 for n in dims):
        raise ValueError(f"matrix dimensions must be nonnegative integers: {dims}")


class _Value(tuple):
    """Base of the value types: blocks the tuple operators they never had."""

    __slots__ = ()
    __add__ = __mul__ = __rmul__ = __lt__ = __le__ = __gt__ = __ge__ = None


class IntMatrix(_Value, namedtuple("IntMatrix", "rows cols entries")):
    """Immutable integer matrix with explicit shape; columns act on vectors.

    The public constructors check the shape and that every entry is an
    int; matrices computed from checked ones are built by the unchecked _of.
    """

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, entries) -> "IntMatrix":
        _check_dims(rows, cols)
        m = tuple.__new__(cls, (rows, cols, tuple(tuple(row) for row in entries)))
        m.__post_init__()
        return m

    def __post_init__(self):
        """The entry check, called once by each checked construction."""
        ent = self.entries
        if len(ent) != self.rows or any(len(r) != self.cols for r in ent):
            raise ValueError("entries do not match the declared shape")
        if not all(type(x) is int for row in ent for x in row):
            raise ValueError("matrix entries must be integers")

    @classmethod
    def _of(cls, rows: int, cols: int, entries: tuple) -> "IntMatrix":
        """Unchecked: entries must be `rows` int tuples of length `cols`."""
        return tuple.__new__(cls, (rows, cols, entries))

    @classmethod
    def from_rows(cls, rows, cols: Optional[int] = None) -> "IntMatrix":
        rows = tuple(tuple(r) for r in rows)
        if cols is None and not rows:
            raise ValueError("column count is ambiguous for an empty matrix")
        return cls(len(rows), len(rows[0]) if cols is None else cols, rows)

    @classmethod
    def from_columns(cls, cols, rows: int) -> "IntMatrix":
        cols = [tuple(c) for c in cols]
        if any(len(c) != rows for c in cols):
            raise ValueError("column has the wrong length")
        return cls(rows, len(cols), tuple(zip(*cols)) if cols else ((),) * rows)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        _check_dims(n)
        return cls._of(n, n, tuple(tuple(1 if i == j else 0 for j in range(n))
                                   for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        _check_dims(rows, cols)
        return cls._of(rows, cols, ((0,) * cols,) * rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def columns(self) -> list[tuple]:
        return list(zip(*self.entries)) if self.rows else [()] * self.cols

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} times {other.shape}")
        cols = other.columns()
        return IntMatrix._of(self.rows, other.cols, tuple(
            tuple(sum(map(mul, row, col)) for col in cols)
            for row in self.entries))

    def vec(self, v: Sequence[int]) -> tuple:
        if len(v) != self.cols:
            raise ValueError(f"vector length {len(v)} != {self.cols} columns")
        return tuple(sum(map(mul, row, v)) for row in self.entries)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        return IntMatrix._of(self.rows, self.cols + other.cols, tuple(
            a + b for a, b in zip(self.entries, other.entries)))

    def add(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch in add")
        return IntMatrix._of(self.rows, self.cols, tuple(
            tuple(map(add, ra, rb)) for ra, rb in zip(self.entries, other.entries)))

    def scale(self, n: int) -> "IntMatrix":
        if type(n) is not int:
            raise ValueError(f"scale factor must be an integer, got {n!r}")
        return IntMatrix._of(self.rows, self.cols, tuple(
            tuple(n * x for x in row) for row in self.entries))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def diagonal(self) -> list[int]:
        return [self.entries[i][i] for i in range(min(self.rows, self.cols))]


# Greedy pivoting is the fastest elimination on the small sparse systems
# the engine builds, but on dense ones its transforms can grow to
# hundreds of thousands of bits.  A step R_i -= q * R_j lengthens entries
# by at most q.bit_length() + 1 bits; once the greedy steps could have
# grown them by _GREEDY_BITS_PER_LINE bits per row and column (at most
# _GREEDY_GROWTH_BITS), greedy stops and Hermite reduction finishes from
# the partly reduced matrix and the transforms greedy built so far;
# Hermite reduction keeps every entry near the size of its input.  On the
# benchmark's batch-mix and coset-enum corpora (seeds 0-31) greedy growth
# peaks at 61 bits on an 11 x 2 system, 4.7 per line: a 3.4x margin.  A
# matrix past its budget but under 1,024 bits gets the same d from the
# bounded finish with other transforms, so its reports differ from greedy.
_GREEDY_GROWTH_BITS = 1024
_GREEDY_BITS_PER_LINE = 16


def _hermite(a, width):
    """Echelon form of the first `width` columns of the rows of a, in
    place: positive pivots, nearest-integer elimination below each pivot
    and the entries above it reduced modulo it.  Each row carries its
    transform row after column `width`, so one list operation moves both.
    A column pass hands in the transposes."""
    n, r = len(a), 0
    for c in range(width):
        if r == n:
            return
        col = [row[c] for row in a[r:]]  # column c of rows r.., kept in step
        while any(col[1:]):  # a Euclid round: pivot on the first least entry
            mags = list(map(abs, col))
            k = mags.index(min(filter(None, mags)))
            if k:
                a[r], a[r + k] = a[r + k], a[r]
                col[0], col[k] = col[k], col[0]
            p, pr = col[0], a[r]
            for i, x in enumerate(col[1:], 1):
                if x:
                    q = (2 * x + p) // (2 * p)
                    a[r + i] = [y - q * z for y, z in zip(a[r + i], pr)]
                    col[i] = x - q * p
        if not col[0]:
            continue
        if col[0] < 0:
            a[r] = [-y for y in a[r]]
        p, pr = abs(col[0]), a[r]
        for i, q in enumerate([row[c] // p for row in a[:r]]):
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], pr)]
        r += 1


def _inverse(u: IntMatrix) -> IntMatrix:
    """u^-1 of a unimodular u: the Hermite form of [u | I] is [I | u^-1]."""
    n = u.rows
    a = [list(row) for row in u.hstack(IntMatrix.identity(n)).entries]
    _hermite(a, n)
    return IntMatrix._of(n, n, tuple([tuple(row[n:]) for row in a]))


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: (u, d, v) with u*m*v = d.

    u and v are unimodular; d is diagonal with nonnegative entries whose
    diagonal forms a divisibility chain (zeros trailing).  Greedy pivoting
    runs first; past its budget, alternating row and column Hermite forms
    (Kannan and Bachem) and gcd/lcm steps finish from where it stopped.
    u^-1 is not tracked; the callers that read it take _inverse(u).

    >>> m = IntMatrix.from_rows([[2, 4], [6, 8]])
    >>> u, d, v = smith_normal_form(m)
    >>> d.diagonal()
    [2, 4]
    """
    rows, cols = m.shape
    budget = min(_GREEDY_GROWTH_BITS, _GREEDY_BITS_PER_LINE * (rows + cols))
    # each row of a carries its row of u after column `cols`, so one list
    # operation moves both; v is stored transposed
    v = [[0] * i + [1] + [0] * (cols - 1 - i) for i in range(cols)]
    a = [list(row) + [0] * i + [1] + [0] * (rows - 1 - i)
         for i, row in enumerate(m.entries)]
    grown = 0

    def row_sub(i, j, q):  # R_i -= q * R_j
        nonlocal grown
        grown += q.bit_length() + 1
        if q:
            a[i] = [x - q * y for x, y in zip(a[i], a[j])]

    def col_sub(j, i, q, among=None):  # C_j -= q * C_i
        nonlocal grown
        grown += q.bit_length() + 1
        if q:
            for row in a if among is None else among:  # C_i is 0 off `among`
                row[j] -= q * row[i]
            v[j] = [x - q * y for x, y in zip(v[j], v[i])]

    def row_swap(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]

    def col_swap(i, j):
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]
            v[i], v[j] = v[j], v[i]

    def greedy():
        """Pivot on the first smallest entry left; False past the budget."""
        for t in range(min(rows, cols)):
            pivot, least = None, 0
            for i in range(t, rows):
                row = a[i]
                for j in range(t, cols):
                    if row[j] and (not least or abs(row[j]) < least):
                        pivot, least = (i, j), abs(row[j])
                if least == 1:  # nothing later is smaller
                    break
            if pivot is None:
                return True
            row_swap(t, pivot[0])
            col_swap(t, pivot[1])
            while True:
                if grown > budget:
                    return False
                moved = False
                for i in range(rows):
                    if i != t and a[i][t] != 0:
                        row_sub(i, t, a[i][t] // a[t][t])
                        if a[i][t] != 0:
                            row_swap(i, t)
                            moved = True
                if moved:
                    continue
                for j in range(cols):  # column t is zero off row t until a swap
                    if j != t and a[t][j] != 0:
                        col_sub(j, t, a[t][j] // a[t][t], None if moved else (a[t],))
                        if a[t][j] != 0:
                            col_swap(j, t)
                            moved = True
                if moved:
                    continue
                # row and column are clear; force pivot | rest of the
                # submatrix, unless it is empty or the pivot a unit
                p = a[t][t]
                offender = None if p in (1, -1) or t + 1 >= min(rows, cols) else next(
                    (i for i in range(t + 1, rows)
                     if any(x % p for x in a[i][t + 1:cols])), None)
                if offender is None:
                    break
                row_sub(t, offender, -1)  # R_t += R_offender, then keep reducing
        return True

    if not greedy():
        lines = 0  # row and column passes, at least one, until a is diagonal
        while lines == 0 or any(
                a[i][j] for i in range(rows) for j in range(cols) if i != j):
            if lines % 2 == 0:
                _hermite(a, cols)
            else:  # each column of a carries its column of v
                at = [list(col) + vj for col, vj in zip(zip(*a), v)]
                _hermite(at, rows)
                v = [row[rows:] for row in at]
                a = [list(row) + fused[cols:] for row, fused in zip(zip(*at), a)]
            lines += 1
        # a diagonal echelon form keeps its zeros last; make it a chain
        rank = sum(1 for i in range(min(rows, cols)) if a[i][i])
        for i in range(rank):
            for j in range(i + 1, rank):
                if a[j][j] % a[i][i]:
                    row_sub(i, j, -1)  # row i reads (d_i, d_j): gcd by columns
                    while a[i][j]:
                        col_sub(i, j, a[i][i] // a[i][j])
                        col_swap(i, j)
                    row_sub(j, i, a[j][i] // a[i][i])  # leaves lcm at (j, j)

    for i in range(min(rows, cols)):
        if a[i][i] < 0:
            a[i] = [-y for y in a[i]]

    return (IntMatrix._of(rows, rows, tuple([tuple(row[cols:]) for row in a])),
            IntMatrix._of(rows, cols, tuple([tuple(row[:cols]) for row in a])),
            IntMatrix._of(cols, cols, tuple(zip(*v))))


# the name the benchmark's tracer wraps; its wrapper replaces both names
_snf_with_inverses = smith_normal_form


def _from_columns(cols: Sequence[Sequence[int]], rows: int) -> IntMatrix:
    """from_columns without the check, for columns of computed ints."""
    return IntMatrix._of(rows, len(cols), tuple(zip(*cols)) if cols else ((),) * rows)


def _back_substitute(d: IntMatrix, uy: Sequence[int]) -> Optional[list]:
    """z with d z = uy, free parameters zero; None if unsolvable.

    With u*m*v = d, m x = y has the solutions x = v z, so the u and d of
    one Smith form answer every right-hand side y of the same m.
    """
    diag = d.diagonal()
    z = [0] * d.cols
    for i in range(d.rows):
        di = diag[i] if i < len(diag) else 0
        if (uy[i] % di if di else uy[i]) != 0:  # row i reads di * z_i = uy_i
            return None
        if di:
            z[i] = uy[i] // di
    return z


# ---------------------------------------------------------------------------
# groups and elements
# ---------------------------------------------------------------------------

class FgGroup(_Value, namedtuple("FgGroup", "free_rank torsion")):
    """A finitely generated abelian group in invariant-factor form."""

    __slots__ = ()

    def __new__(cls, free_rank: int, torsion: tuple[int, ...] = ()) -> "FgGroup":
        if type(free_rank) is not int or free_rank < 0:
            raise ValueError(f"free rank must be a nonnegative integer, "
                             f"got {free_rank!r}")
        torsion = tuple(torsion)
        for d in torsion:
            if type(d) is not int or d < 2:
                raise ValueError(f"invariant factor {d!r} is not an integer >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ValueError(f"broken divisibility chain {torsion}")
        return tuple.__new__(cls, (free_rank, torsion))

    @property
    def ngens(self) -> int:
        return self.free_rank + len(self.torsion)

    @property
    def moduli(self) -> tuple:
        """Per coordinate: 0 if free, d if Z/d."""
        return (0,) * self.free_rank + self.torsion

    def is_zero(self) -> bool:
        return self.ngens == 0

    def is_free(self) -> bool:
        return not self.torsion

    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int:
        """Group order; 0 means infinite."""
        if self.free_rank:
            return 0
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def reduce_coords(self, coords: Sequence[int]) -> tuple:
        if len(coords) != self.ngens:
            raise ValueError(f"expected {self.ngens} coordinates, got {len(coords)}")
        if not all(type(c) is int for c in coords):
            raise ValueError(f"coordinates must be integers, got {list(coords)!r}")
        return self._reduce(coords)

    def _reduce(self, coords: Sequence[int]) -> tuple:
        """reduce_coords() without the checks: coords must be ngens ints."""
        if self.torsion:
            return tuple([c % d if d else c for c, d in zip(coords, self.moduli)])
        return tuple(coords)

    def element(self, coords: Sequence[int]) -> "GroupElement":
        return GroupElement(self, coords)

    def _element(self, coords: Sequence[int]) -> "GroupElement":
        """element() without the checks: coords must be ngens ints."""
        return tuple.__new__(GroupElement, (self, self._reduce(coords)))

    def zero_element(self) -> "GroupElement":
        return tuple.__new__(GroupElement, (self, (0,) * self.ngens))

    def generator(self, i: int) -> "GroupElement":
        if type(i) is not int:
            raise ValueError(f"generator index must be an integer, got {i!r}")
        if not 0 <= i < self.ngens:
            raise ValueError(f"{self.describe()} has no generator {i}")
        return self._element([1 if j == i else 0 for j in range(self.ngens)])

    def generators(self) -> list["GroupElement"]:
        return [self.generator(i) for i in range(self.ngens)]

    def relations(self) -> IntMatrix:
        """Relation columns d_i * e_i in Z^ngens for the torsion generators."""
        k = len(self.torsion)
        return IntMatrix._of(self.ngens, k, ((0,) * k,) * self.free_rank + tuple(
            (0,) * i + (d,) + (0,) * (k - 1 - i) for i, d in enumerate(self.torsion)))

    def describe(self) -> str:
        """Canonical text form.

        >>> FgGroup(2, (4,)).describe()
        'Z^2 + Z/4'
        >>> FgGroup(0).describe()
        '0'
        """
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


ZERO_GROUP = FgGroup(0)


class GroupElement(_Value, namedtuple("GroupElement", "group coords")):
    __slots__ = ()

    def __new__(cls, group: FgGroup, coords) -> "GroupElement":
        return tuple.__new__(cls, (group, group.reduce_coords(coords)))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other: "GroupElement") -> "GroupElement":
        if other.group != self.group:
            raise ValueError("elements of different groups")
        return self.group._element([a + b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> "GroupElement":
        return self.group._element([-a for a in self.coords])

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def scale(self, n: int) -> "GroupElement":
        if type(n) is not int:
            raise ValueError(f"scale factor must be an integer, got {n!r}")
        return self.group._element([n * a for a in self.coords])


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------

class HomError(ValueError):
    pass


class Hom(_Value, namedtuple("Hom", "domain codomain matrix")):
    """A homomorphism given by its matrix on canonical generators.

    Column j is the image of domain generator j in codomain coordinates.
    Torsion rows are stored reduced; construction checks well-definedness
    (the order of each domain generator kills its image).
    """

    __slots__ = ()

    def __new__(cls, domain: FgGroup, codomain: FgGroup, matrix: IntMatrix) -> "Hom":
        if matrix.shape != (codomain.ngens, domain.ngens):
            raise HomError(f"matrix is {matrix.shape}, expected "
                           f"({codomain.ngens}, {domain.ngens})")
        reduced = _reduce_matrix(codomain, matrix)
        tors_cols = reduced.columns()[domain.free_rank:]
        for j, (d, col) in enumerate(zip(domain.torsion, tors_cols)):
            if any(codomain.reduce_coords([d * c for c in col])):
                raise HomError(f"ill-defined on torsion generator {j} of order {d}")
        return tuple.__new__(cls, (domain, codomain, reduced))

    @classmethod
    def _of(cls, domain: FgGroup, codomain: FgGroup, matrix: IntMatrix) -> "Hom":
        """Unchecked: matrix must be well defined on torsion; stored reduced."""
        return tuple.__new__(cls, (domain, codomain, _reduce_matrix(codomain, matrix)))

    @classmethod
    def zero(cls, domain: FgGroup, codomain: FgGroup) -> "Hom":
        return cls._of(domain, codomain, IntMatrix.zeros(codomain.ngens, domain.ngens))

    @classmethod
    def identity(cls, group: FgGroup) -> "Hom":
        return cls._of(group, group, IntMatrix.identity(group.ngens))

    def __call__(self, x: GroupElement) -> GroupElement:
        if x.group != self.domain:
            raise HomError("element not in the domain")
        return self.codomain._element(self.matrix.vec(x.coords))

    def compose(self, inner: "Hom") -> "Hom":
        """self after inner."""
        if inner.codomain != self.domain:
            raise HomError("non-composable homomorphisms")
        return Hom._of(inner.domain, self.codomain, self.matrix @ inner.matrix)

    def is_zero_map(self) -> bool:
        return self.matrix.is_zero()


def _reduce_matrix(codomain: FgGroup, m: IntMatrix) -> IntMatrix:
    if not codomain.torsion:
        return m
    r = codomain.free_rank
    return IntMatrix._of(m.rows, m.cols, m.entries[:r] + tuple(
        tuple(x % d for x in row) for row, d in zip(m.entries[r:], codomain.torsion)))


# ---------------------------------------------------------------------------
# presentations: cokernels and subquotients
# ---------------------------------------------------------------------------

@memo
def cokernel_presentation(relations: IntMatrix):
    """Z^n modulo the column span of `relations`, n its row count, in
    canonical form.

    Returns (group, proj, kept, snf): snf is the Smith form (u, d, v) of
    relations, and proj, the (ngens x n) coordinate matrix of the
    projection Z^n -> group, holds the rows `kept` of u.  _section reads
    ambient representatives of the canonical generators off u^-1.
    """
    n = relations.rows
    if n == 0 or relations.cols == 0:  # an empty matrix is its own Smith form
        one, v = IntMatrix.identity(n), IntMatrix.identity(relations.cols)
        return FgGroup(n), one, tuple(range(n)), (one, relations, v)
    snf = u, d, _ = smith_normal_form(relations)
    diag = d.diagonal()
    free_idx = [i for i in range(n) if (diag[i] if i < len(diag) else 0) == 0]
    tors_idx = [i for i in range(n) if i < len(diag) and diag[i] >= 2]
    group = FgGroup(len(free_idx), tuple(diag[i] for i in tors_idx))
    kept = tuple(free_idx + tors_idx)
    proj = IntMatrix._of(len(kept), n, tuple(u.entries[i] for i in kept))
    return group, proj, kept, snf


def _section(presentation) -> IntMatrix:
    """Columns `kept` of u^-1 of a cokernel_presentation, ambient
    representatives of its generators.  Without relations, u = I = u^-1."""
    _, _, kept, (u, d, _) = presentation
    uinv = _inverse(u) if d.rows and d.cols else u
    return IntMatrix._of(u.rows, len(kept), tuple(tuple(row[i] for i in kept)
                                                  for row in uinv.entries))


def sublattice_quotient(gens: IntMatrix, rels: IntMatrix):
    """(lattice spanned by gens) / (lattice spanned by rels) inside Z^n,
    n the row count of gens.

    rels must be contained in the span of gens.  Returns (group, reps)
    where reps is an (n x ngens) matrix of ambient representatives of the
    canonical generators.
    """
    u, d, v = cokernel_presentation(gens)[3]
    diag = d.diagonal()
    rank = sum(1 for x in diag if x != 0)
    # relations in the lattice basis b_i = column i of gens v = d_i * u^-1[:, i]
    rel_coords = []
    for col in rels.columns():
        z = _back_substitute(d, u.vec(col))
        if z is None:
            raise ValueError("relations do not lie in the generator lattice")
        rel_coords.append(z[:rank])
    presentation = cokernel_presentation(_from_columns(rel_coords, rank))
    basis = gens @ IntMatrix._of(v.rows, rank, tuple(row[:rank] for row in v.entries))
    return presentation[0], basis @ _section(presentation)


# ---------------------------------------------------------------------------
# kernels, images, cokernels of homomorphisms
# ---------------------------------------------------------------------------

def _stacked(h: Hom) -> IntMatrix:
    """[h | codomain relations]: its columns span the lattice of all
    codomain coordinate vectors that represent elements of im(h)."""
    return h.matrix.hstack(h.codomain.relations())


def cokernel(h: Hom) -> tuple[FgGroup, Hom]:
    """coker(h) = codomain / im(h), with the canonical surjection."""
    group, proj, _, _ = cokernel_presentation(_stacked(h))
    return group, Hom._of(h.codomain, group, proj)


def _preimage_of_zero_lattice(h: Hom) -> IntMatrix:
    """Lattice {x in Z^n_dom : h(x) = 0 in the codomain}, as columns."""
    na = h.domain.ngens
    _, d, v = cokernel_presentation(_stacked(h))[3]
    rank = sum(1 for x in d.diagonal() if x != 0)
    free = IntMatrix._of(na, v.cols - rank, tuple(row[rank:] for row in v.entries[:na]))
    return free.hstack(h.domain.relations())  # relations: always in the kernel


@memo
def kernel(h: Hom) -> tuple[FgGroup, Hom]:
    """ker(h) in canonical form with its embedding into the domain."""
    group, reps = sublattice_quotient(_preimage_of_zero_lattice(h),
                                      h.domain.relations())
    return group, Hom._of(group, h.domain, reps)


def image(h: Hom) -> tuple[FgGroup, Hom]:
    """im(h) in canonical form with its embedding into the codomain."""
    group, reps = sublattice_quotient(_stacked(h), h.codomain.relations())
    return group, Hom(group, h.codomain, reps)


def is_exact_at(f: Hom, g: Hom) -> bool:
    """True iff im(f) = ker(g) inside the middle group.

    im(f) lies in ker(g) iff g f = 0, and ker(g) in im(f) iff the projection
    onto coker(f) kills every column of the kernel lattice of g.
    """
    if f.codomain != g.domain:
        raise HomError("chain does not compose: codomain(f) != domain(g)")
    if not g.compose(f).is_zero_map():
        return False
    group, proj = cokernel(f)
    return all(group._element(proj.matrix.vec(col)).is_zero()
               for col in _preimage_of_zero_lattice(g).columns())


def _canonical_preimage(h: Hom, d, v, uy) -> Optional[GroupElement]:
    """The canonical x with h(x) = y, or None: with u, d, v from the Smith
    form of _stacked(h) and uy = u y, the domain part of v z, every free
    parameter of z zero."""
    z = _back_substitute(d, uy)
    return None if z is None else h.domain._element(v.vec(z)[:h.domain.ngens])


@memo
def solve_hom(h: Hom, y: GroupElement) -> Optional[GroupElement]:
    """One x with h(x) = y, or None; deterministic canonical choice."""
    if y.group != h.codomain:
        raise HomError("target element is not in the codomain")
    u, d, v = cokernel_presentation(_stacked(h))[3]
    return _canonical_preimage(h, d, v, u.vec(y.coords))


@memo
def section_matrix(h: Hom) -> IntMatrix:
    """Canonical preimages of all codomain generators under a surjection.

    Column j is exactly the coordinate vector of solve_hom(h, g_j) for
    the codomain generator g_j, but all columns come from one Smith form.
    The canonical solution is Z-linear on the image lattice, so
    h.domain.element(section.vec(y.coords)) equals solve_hom(h, y) for
    every element y of the codomain.
    """
    u, d, v = cokernel_presentation(_stacked(h))[3]
    xs = [_canonical_preimage(h, d, v, uy) for uy in u.columns()]
    if any(x is None for x in xs):
        raise HomError("not surjective: a codomain generator has no preimage")
    return _from_columns([x.coords for x in xs], h.domain.ngens)


def is_isomorphism(h: Hom) -> bool:
    """True iff h is bijective, decided with one Smith form: canonical
    forms are unique, so only equal groups are isomorphic, and a surjective
    endomorphism of a finitely generated abelian group is injective."""
    return h.domain == h.codomain and cokernel(h)[0].is_zero()


def hom_inverse(h: Hom) -> Hom:
    """Inverse of an isomorphism; HomError for any other map."""
    if h.domain != h.codomain:
        raise HomError("not an isomorphism: domain and codomain differ")
    return Hom(h.codomain, h.domain, section_matrix(h))


# ---------------------------------------------------------------------------
# sums, subgroups, quotients
# ---------------------------------------------------------------------------

@memo
def direct_sum(summands: tuple[FgGroup, ...]):
    """Canonical direct sum with inclusion and projection homs.

    Returns (group, inclusions, projections).  The sum is re-canonicalized,
    so torsion from different summands may recombine (Z/2 + Z/3 = Z/6).
    """
    n = sum(g.ngens for g in summands)
    offsets = [sum(g.ngens for g in summands[:i]) for i in range(len(summands))]
    rel_cols = [(0,) * off + col + (0,) * (n - off - g.ngens)  # block diagonal
                for g, off in zip(summands, offsets) for col in g.relations().columns()]
    presentation = group, proj, _, _ = cokernel_presentation(_from_columns(rel_cols, n))
    sect = _section(presentation)
    inclusions, projections = [], []
    for g, off in zip(summands, offsets):
        # summand g owns columns off.. of proj and rows off.. of sect
        cols = IntMatrix._of(group.ngens, g.ngens,
                             tuple(row[off:off + g.ngens] for row in proj.entries))
        inclusions.append(Hom._of(g, group, cols))
        rows = IntMatrix._of(g.ngens, group.ngens, sect.entries[off:off + g.ngens])
        projections.append(Hom._of(group, g, rows))
    return group, tuple(inclusions), tuple(projections)


def quotient_by(ambient: FgGroup,
                elements: Sequence[GroupElement]) -> tuple[FgGroup, Hom]:
    """ambient / <elements>, with the canonical projection."""
    if any(x.group != ambient for x in elements):
        raise HomError("element not in the ambient group")
    cols = _from_columns([x.coords for x in elements], ambient.ngens)
    return cokernel(Hom._of(FgGroup(len(elements)), ambient, cols))  # free domain

