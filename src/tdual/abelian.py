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
which keeps maps into and out of the zero group honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, mul
from typing import Optional, Sequence


# ---------------------------------------------------------------------------
# integer matrices
# ---------------------------------------------------------------------------

def _check_dims(*dims: int) -> None:
    if any(type(n) is not int or n < 0 for n in dims):
        raise ValueError(f"matrix dimensions must be nonnegative integers: {dims}")


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix with explicit shape; columns act on vectors.

    The public constructors check the shape and that every entry is an
    int; matrices computed from checked ones are built by the unchecked _of.
    """

    rows: int
    cols: int
    entries: tuple  # tuple of row tuples

    def __post_init__(self):
        _check_dims(self.rows, self.cols)
        ent = tuple(tuple(row) for row in self.entries)
        if len(ent) != self.rows or any(len(r) != self.cols for r in ent):
            raise ValueError("entries do not match the declared shape")
        if not all(type(x) is int for row in ent for x in row):
            raise ValueError("matrix entries must be integers")
        object.__setattr__(self, "entries", ent)

    @classmethod
    def _of(cls, rows: int, cols: int, entries: tuple) -> "IntMatrix":
        """Unchecked: entries must be `rows` int tuples of length `cols`."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "entries", entries)
        return m

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

    def __getitem__(self, i: int) -> tuple:
        return self.entries[i]

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
# _GREEDY_GROWTH_BITS), the factorization starts over with Hermite
# reduction, which keeps every entry near the size of the input.  On the
# benchmark's batch-mix and coset-enum corpora (seeds 0-31) greedy growth
# peaks at 61 bits on an 11 x 2 system, 4.7 per line: a 3.4x margin.  A
# matrix past its budget but under 1,024 bits gets the same d from the
# bounded path with smaller transforms, so its reports differ from greedy.
_GREEDY_GROWTH_BITS = 1024
_GREEDY_BITS_PER_LINE = 16


def _snf_with_inverses(m: IntMatrix):
    """Smith normal form with the change-of-basis matrices callers read.

    Returns (u, uinv, d, v) with u*m*v = d; u, v unimodular and uinv the
    exact inverse of u.  d is diagonal, nonnegative, and its diagonal
    forms a divisibility chain (zeros trailing).
    """
    return _smith(m, greedy=True)


def _hermite(a, width, t, tinv=None):
    """Echelon form of the rows of a, in place: positive pivots,
    nearest-integer elimination below each pivot and the entries above it
    reduced modulo it.  Row operations also act on t, and their inverses on
    tinv (stored transposed); a column pass hands in the transposes."""
    mats = (a, t) if tinv is None else (a, t, tinv)

    def sub(i, j, q):  # R_i -= q * R_j; in tinv R_j += q * R_i
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        t[i] = [x - q * y for x, y in zip(t[i], t[j])]
        if tinv is not None:
            tinv[j] = [x + q * y for x, y in zip(tinv[j], tinv[i])]

    r = 0
    for c in range(width):
        if r == len(a):
            return
        while True:
            nz = [i for i in range(r, len(a)) if a[i][c]]
            if not nz:
                break
            k = min(nz, key=lambda i: abs(a[i][c]))
            for x in mats:
                x[r], x[k] = x[k], x[r]
            if len(nz) == 1:
                break
            p = a[r][c]
            for i in range(r + 1, len(a)):
                if a[i][c]:
                    sub(i, r, (2 * a[i][c] + p) // (2 * p))
        if not a[r][c]:
            continue
        if a[r][c] < 0:
            for x in mats:
                x[r] = [-y for y in x[r]]
        for i in range(r):
            if a[i][c] // a[r][c]:
                sub(i, r, a[i][c] // a[r][c])
        r += 1


def _smith(m: IntMatrix, greedy: bool):
    """Greedy pivoting, or alternating row and column Hermite forms
    (Kannan and Bachem) followed by gcd/lcm steps on the diagonal."""
    rows, cols = m.shape
    budget = min(_GREEDY_GROWTH_BITS, _GREEDY_BITS_PER_LINE * (rows + cols))
    a = [list(row) for row in m.entries]
    # uinv and v are stored transposed: their columns are the lists
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    uinv = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
    grown = 0

    def row_sub(i, j, q):  # R_i -= q * R_j; in uinv C_j += q * C_i
        nonlocal grown
        grown += q.bit_length() + 1
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]
        uinv[j] = [x + q * y for x, y in zip(uinv[j], uinv[i])]

    def col_sub(j, i, q):  # C_j -= q * C_i
        nonlocal grown
        grown += q.bit_length() + 1
        for row in a:
            row[j] -= q * row[i]
        v[j] = [x - q * y for x, y in zip(v[j], v[i])]

    def row_swap(i, j):
        if i != j:
            for x in (a, u, uinv):
                x[i], x[j] = x[j], x[i]

    def col_swap(i, j):
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]
            v[i], v[j] = v[j], v[i]

    def row_negate(i):
        for x in (a, u, uinv):
            x[i] = [-y for y in x[i]]

    t = 0
    while greedy and t < min(rows, cols):
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (pivot is None
                                     or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        row_swap(t, pivot[0])
        col_swap(t, pivot[1])
        while True:
            if grown > budget:
                return _smith(m, greedy=False)
            moved = False
            for i in range(rows):
                if i != t and a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    row_sub(i, t, q)
                    if a[i][t] != 0:
                        row_swap(i, t)
                        moved = True
            if moved:
                continue
            for j in range(cols):
                if j != t and a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    col_sub(j, t, q)
                    if a[t][j] != 0:
                        col_swap(j, t)
                        moved = True
            if moved:
                continue
            # row and column are clear; force pivot | rest of the submatrix
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_sub(t, offender, -1)  # R_t += R_offender, then keep reducing
        t += 1

    lines = 0  # row and column passes, at least one, until a is diagonal
    while not greedy and (lines == 0 or any(
            a[i][j] for i in range(rows) for j in range(cols) if i != j)):
        if lines % 2 == 0:
            _hermite(a, cols, u, uinv)
        else:
            a = [list(col) for col in zip(*a)]
            _hermite(a, rows, v)
            a = [list(row) for row in zip(*a)]
        lines += 1
    # a diagonal echelon form keeps its zeros last; make it a chain
    rank = 0 if greedy else sum(1 for i in range(min(rows, cols)) if a[i][i])
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
            row_negate(i)

    return (IntMatrix._of(rows, rows, tuple(map(tuple, u))),
            IntMatrix._of(rows, rows, tuple(zip(*uinv))),
            IntMatrix._of(rows, cols, tuple(map(tuple, a))),
            IntMatrix._of(cols, cols, tuple(zip(*v))))


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: (u, d, v) with u*m*v = d.

    u and v are unimodular; d is diagonal with nonnegative entries whose
    diagonal forms a divisibility chain (zeros trailing).

    >>> m = IntMatrix.from_rows([[2, 4], [6, 8]])
    >>> u, d, v = smith_normal_form(m)
    >>> d.diagonal()
    [2, 4]
    """
    u, _, d, v = _snf_with_inverses(m)
    return u, d, v


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

@dataclass(frozen=True)
class FgGroup:
    """A finitely generated abelian group in invariant-factor form."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if type(self.free_rank) is not int or self.free_rank < 0:
            raise ValueError(f"free rank must be a nonnegative integer, "
                             f"got {self.free_rank!r}")
        object.__setattr__(self, "torsion", tuple(self.torsion))
        for d in self.torsion:
            if type(d) is not int or d < 2:
                raise ValueError(f"invariant factor {d!r} is not an integer >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError(f"broken divisibility chain {self.torsion}")

    @property
    def ngens(self) -> int:
        return self.free_rank + len(self.torsion)

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
        out = list(coords)
        for i, d in enumerate(self.torsion):
            out[self.free_rank + i] %= d
        return tuple(out)

    def element(self, coords: Sequence[int]) -> "GroupElement":
        return GroupElement(self, tuple(coords))

    def zero_element(self) -> "GroupElement":
        return self.element([0] * self.ngens)

    def generator(self, i: int) -> "GroupElement":
        return self.element([1 if j == i else 0 for j in range(self.ngens)])

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


@dataclass(frozen=True)
class GroupElement:
    group: FgGroup
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", self.group.reduce_coords(self.coords))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other: "GroupElement") -> "GroupElement":
        if other.group != self.group:
            raise ValueError("elements of different groups")
        return self.group.element([a + b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> "GroupElement":
        return self.group.element([-a for a in self.coords])

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def scale(self, n: int) -> "GroupElement":
        return self.group.element([n * a for a in self.coords])


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------

class HomError(ValueError):
    pass


@dataclass(frozen=True)
class Hom:
    """A homomorphism given by its matrix on canonical generators.

    Column j is the image of domain generator j in codomain coordinates.
    Torsion rows are stored reduced; construction checks well-definedness
    (the order of each domain generator kills its image).
    """

    domain: FgGroup
    codomain: FgGroup
    matrix: IntMatrix

    def __post_init__(self):
        if self.matrix.shape != (self.codomain.ngens, self.domain.ngens):
            raise HomError(
                f"matrix is {self.matrix.shape}, expected "
                f"({self.codomain.ngens}, {self.domain.ngens})")
        reduced = _reduce_matrix(self.codomain, self.matrix)
        object.__setattr__(self, "matrix", reduced)
        tors_cols = reduced.columns()[self.domain.free_rank:]
        for j, (d, col) in enumerate(zip(self.domain.torsion, tors_cols)):
            if any(self.codomain.reduce_coords([d * c for c in col])):
                raise HomError(f"ill-defined on torsion generator {j} of order {d}")

    @classmethod
    def zero(cls, domain: FgGroup, codomain: FgGroup) -> "Hom":
        return cls(domain, codomain,
                   IntMatrix.zeros(codomain.ngens, domain.ngens))

    @classmethod
    def identity(cls, group: FgGroup) -> "Hom":
        return cls(group, group, IntMatrix.identity(group.ngens))

    def __call__(self, x: GroupElement) -> GroupElement:
        if x.group != self.domain:
            raise HomError("element not in the domain")
        return self.codomain.element(self.matrix.vec(x.coords))

    def compose(self, inner: "Hom") -> "Hom":
        """self after inner."""
        if inner.codomain != self.domain:
            raise HomError("non-composable homomorphisms")
        return Hom(inner.domain, self.codomain, self.matrix @ inner.matrix)

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

def cokernel_presentation(n: int, relations: IntMatrix):
    """Z^n modulo the column span of `relations`, in canonical form.

    Returns (group, proj, sect): proj is the (ngens x n) coordinate matrix
    of the projection Z^n -> group, and sect is an (n x ngens) matrix whose
    columns are ambient representatives of the canonical generators.
    """
    if relations.rows != n:
        raise ValueError("relations live in the wrong ambient rank")
    if n == 0 or relations.cols == 0:  # what the Smith form would give
        one = IntMatrix.identity(n)
        return FgGroup(n), one, one
    u, uinv, d, _ = _snf_with_inverses(relations)
    diag = d.diagonal()
    free_idx = [i for i in range(n) if (diag[i] if i < len(diag) else 0) == 0]
    tors_idx = [i for i in range(n) if i < len(diag) and diag[i] >= 2]
    group = FgGroup(len(free_idx), tuple(diag[i] for i in tors_idx))
    kept = free_idx + tors_idx
    proj = IntMatrix._of(len(kept), n, tuple(u.entries[i] for i in kept))
    sect = IntMatrix._of(n, len(kept), tuple(tuple(row[i] for i in kept)
                                             for row in uinv.entries))
    return group, proj, sect


def sublattice_quotient(n: int, gens: IntMatrix, rels: IntMatrix):
    """(lattice spanned by gens) / (lattice spanned by rels) inside Z^n.

    rels must be contained in the span of gens.  Returns (group, reps)
    where reps is an (n x ngens) matrix of ambient representatives of the
    canonical generators.
    """
    u, uinv, d, _ = _snf_with_inverses(gens)
    diag = d.diagonal()
    rank = sum(1 for x in diag if x != 0)
    # coordinates of the relations in the lattice basis b_i = d_i * uinv[:, i]
    rel_coords = []
    for col in rels.columns():
        z = _back_substitute(d, u.vec(col))
        if z is None:
            raise ValueError("relations do not lie in the generator lattice")
        rel_coords.append(z[:rank])
    group, _, sect = cokernel_presentation(rank, _from_columns(rel_coords, rank))
    basis = IntMatrix._of(n, rank, tuple(tuple(map(mul, row[:rank], diag))
                                         for row in uinv.entries))
    return group, basis @ sect


# ---------------------------------------------------------------------------
# kernels, images, cokernels of homomorphisms
# ---------------------------------------------------------------------------

def _stacked(h: Hom) -> IntMatrix:
    """[h | codomain relations]: its columns span the lattice of all
    codomain coordinate vectors that represent elements of im(h)."""
    return h.matrix.hstack(h.codomain.relations())


def cokernel(h: Hom) -> tuple[FgGroup, Hom]:
    """coker(h) = codomain / im(h), with the canonical surjection."""
    group, proj, _ = cokernel_presentation(h.codomain.ngens, _stacked(h))
    return group, Hom(h.codomain, group, proj)


def _preimage_of_zero_lattice(h: Hom) -> IntMatrix:
    """Lattice {x in Z^n_dom : h(x) = 0 in the codomain}, as columns."""
    na = h.domain.ngens
    _, _, d, v = _snf_with_inverses(_stacked(h))
    rank = sum(1 for x in d.diagonal() if x != 0)
    free = IntMatrix._of(na, v.cols - rank, tuple(row[rank:] for row in v.entries[:na]))
    return free.hstack(h.domain.relations())  # relations: always in the kernel


def kernel(h: Hom) -> tuple[FgGroup, Hom]:
    """ker(h) in canonical form with its embedding into the domain."""
    na = h.domain.ngens
    lattice = _preimage_of_zero_lattice(h)
    group, reps = sublattice_quotient(na, lattice, h.domain.relations())
    return group, Hom(group, h.domain, reps)


def image(h: Hom) -> tuple[FgGroup, Hom]:
    """im(h) in canonical form with its embedding into the codomain."""
    group, reps = sublattice_quotient(h.codomain.ngens, _stacked(h),
                                      h.codomain.relations())
    return group, Hom(group, h.codomain, reps)


def is_exact_at(f: Hom, g: Hom) -> bool:
    """True iff im(f) = ker(g) inside the middle group.

    im(f) lies in ker(g) iff g f = 0.  For the converse, one Smith form of
    the image lattice [f | relations] tests every kernel lattice column.
    """
    if f.codomain != g.domain:
        raise HomError("chain does not compose: codomain(f) != domain(g)")
    if not g.compose(f).is_zero_map():
        return False
    u, _, d, _ = _snf_with_inverses(_stacked(f))
    return all(_back_substitute(d, u.vec(col)) is not None
               for col in _preimage_of_zero_lattice(g).columns())


def _canonical_preimage(h: Hom, d: IntMatrix, v: IntMatrix, uy) -> Optional[tuple]:
    """Reduced coordinates of the canonical x with h(x) = y, or None: with
    u, d, v from the Smith form of _stacked(h) and uy = u y, the domain
    part of v z, every free parameter of z zero."""
    z = _back_substitute(d, uy)
    return None if z is None else h.domain.reduce_coords(v.vec(z)[:h.domain.ngens])


def solve_hom(h: Hom, y: GroupElement) -> Optional[GroupElement]:
    """One x with h(x) = y, or None; deterministic canonical choice."""
    if y.group != h.codomain:
        raise HomError("target element is not in the codomain")
    u, _, d, v = _snf_with_inverses(_stacked(h))
    x = _canonical_preimage(h, d, v, u.vec(y.coords))
    return None if x is None else h.domain.element(x)


def section_matrix(h: Hom) -> IntMatrix:
    """Canonical preimages of all codomain generators under a surjection.

    Column j is exactly the coordinate vector of solve_hom(h, g_j) for
    the codomain generator g_j, but all columns come from one Smith form.
    The canonical solution is Z-linear on the image lattice, so
    h.domain.element(section.vec(y.coords)) equals solve_hom(h, y) for
    every element y of the codomain.
    """
    na, nb = h.domain.ngens, h.codomain.ngens
    if nb == 0:
        return IntMatrix.zeros(na, 0)
    u, _, d, v = _snf_with_inverses(_stacked(h))
    cols = [_canonical_preimage(h, d, v, uy) for uy in u.columns()]
    if None in cols:
        raise HomError("not surjective: a codomain generator has no preimage")
    return _from_columns(cols, na)


def is_surjective(h: Hom) -> bool:
    return cokernel(h)[0].is_zero()


def is_isomorphism(h: Hom) -> bool:
    """True iff h is bijective, decided with one Smith form: canonical
    forms are unique, so only equal groups are isomorphic, and a surjective
    endomorphism of a finitely generated abelian group is injective."""
    return h.domain == h.codomain and is_surjective(h)


def hom_inverse(h: Hom) -> Hom:
    """Inverse of an isomorphism; HomError for any other map."""
    if h.domain != h.codomain:
        raise HomError("not an isomorphism: domain and codomain differ")
    return Hom(h.codomain, h.domain, section_matrix(h))


# ---------------------------------------------------------------------------
# sums, subgroups, quotients
# ---------------------------------------------------------------------------

def direct_sum(summands: Sequence[FgGroup]):
    """Canonical direct sum with inclusion and projection homs.

    Returns (group, inclusions, projections).  The sum is re-canonicalized,
    so torsion from different summands may recombine (Z/2 + Z/3 = Z/6).
    """
    n = sum(g.ngens for g in summands)
    offsets = [sum(g.ngens for g in summands[:i]) for i in range(len(summands))]
    rel_cols = [(0,) * off + col + (0,) * (n - off - g.ngens)  # block diagonal
                for g, off in zip(summands, offsets) for col in g.relations().columns()]
    group, proj, sect = cokernel_presentation(n, _from_columns(rel_cols, n))
    inclusions = []
    projections = []
    for g, off in zip(summands, offsets):
        # summand g owns columns off.. of proj and rows off.. of sect
        cols = IntMatrix._of(group.ngens, g.ngens,
                             tuple(row[off:off + g.ngens] for row in proj.entries))
        inclusions.append(Hom(g, group, cols))
        rows = IntMatrix._of(g.ngens, group.ngens, sect.entries[off:off + g.ngens])
        projections.append(Hom(group, g, rows))
    return group, inclusions, projections


def quotient_by(ambient: FgGroup,
                elements: Sequence[GroupElement]) -> tuple[FgGroup, Hom]:
    """ambient / <elements>, with the canonical projection."""
    cols = IntMatrix.from_columns([x.coords for x in elements], ambient.ngens)
    return cokernel(Hom(FgGroup(len(elements)), ambient, cols))

