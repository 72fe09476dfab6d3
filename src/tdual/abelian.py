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
from itertools import product as _iter_product
from math import gcd
from typing import Iterator, Optional, Sequence


# ---------------------------------------------------------------------------
# integer matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix with explicit shape; columns act on vectors."""

    rows: int
    cols: int
    entries: tuple  # tuple of row tuples

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimension")
        ent = tuple(tuple(int(x) for x in row) for row in self.entries)
        if len(ent) != self.rows or any(len(r) != self.cols for r in ent):
            raise ValueError("entries do not match the declared shape")
        object.__setattr__(self, "entries", ent)

    @classmethod
    def from_rows(cls, rows, cols: Optional[int] = None) -> "IntMatrix":
        rows = [list(r) for r in rows]
        if cols is None:
            if not rows:
                raise ValueError("column count is ambiguous for an empty matrix")
            cols = len(rows[0])
        return cls(len(rows), cols, tuple(tuple(r) for r in rows))

    @classmethod
    def from_columns(cls, cols, rows: int) -> "IntMatrix":
        cols = [list(c) for c in cols]
        for c in cols:
            if len(c) != rows:
                raise ValueError("column has the wrong length")
        ent = tuple(tuple(c[i] for c in cols) for i in range(rows))
        return cls(rows, len(cols), ent)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(tuple(1 if i == j else 0 for j in range(n))
                               for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, tuple(tuple(0 for _ in range(cols))
                                     for _ in range(rows)))

    def __getitem__(self, i: int) -> tuple:
        return self.entries[i]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def column(self, j: int) -> tuple:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def columns(self) -> list[tuple]:
        return [self.column(j) for j in range(self.cols)]

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} times {other.shape}")
        ent = tuple(
            tuple(sum(self.entries[i][k] * other.entries[k][j]
                      for k in range(self.cols))
                  for j in range(other.cols))
            for i in range(self.rows)
        )
        return IntMatrix(self.rows, other.cols, ent)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        return self.mul(other)

    def vec(self, v: Sequence[int]) -> tuple:
        if len(v) != self.cols:
            raise ValueError(f"vector length {len(v)} != {self.cols} columns")
        return tuple(sum(self.entries[i][k] * v[k] for k in range(self.cols))
                     for i in range(self.rows))

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        ent = tuple(self.entries[i] + other.entries[i] for i in range(self.rows))
        return IntMatrix(self.rows, self.cols + other.cols, ent)

    def add(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch in add")
        ent = tuple(tuple(a + b for a, b in zip(ra, rb))
                    for ra, rb in zip(self.entries, other.entries))
        return IntMatrix(self.rows, self.cols, ent)

    def scale(self, n: int) -> "IntMatrix":
        ent = tuple(tuple(n * x for x in row) for row in self.entries)
        return IntMatrix(self.rows, self.cols, ent)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def diagonal(self) -> list[int]:
        return [self.entries[i][i] for i in range(min(self.rows, self.cols))]


def _snf_with_inverses(m: IntMatrix):
    """Smith normal form with all four change-of-basis matrices.

    Returns (u, uinv, d, v, vinv) with u*m*v = d; u, v unimodular and
    uinv, vinv their exact inverses.  d is diagonal, nonnegative, and its
    diagonal forms a divisibility chain (zeros trailing).
    """
    rows, cols = m.shape
    a = [list(row) for row in m.entries]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    uinv = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
    vinv = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def row_sub(i, j, q):  # R_i -= q * R_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]
        for r in range(rows):  # uinv: C_j += q * C_i
            uinv[r][j] += q * uinv[r][i]

    def col_sub(j, i, q):  # C_j -= q * C_i
        for r in range(rows):
            a[r][j] -= q * a[r][i]
        for r in range(cols):
            v[r][j] -= q * v[r][i]
        vinv[i] = [x + q * y for x, y in zip(vinv[i], vinv[j])]

    def row_swap(i, j):
        if i == j:
            return
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for r in range(rows):
            uinv[r][i], uinv[r][j] = uinv[r][j], uinv[r][i]

    def col_swap(i, j):
        if i == j:
            return
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for r in range(rows):
            uinv[r][i] = -uinv[r][i]

    t = 0
    while t < min(rows, cols):
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

    for i in range(min(rows, cols)):
        if a[i][i] < 0:
            row_negate(i)

    def fin(data, r, c):
        return IntMatrix(r, c, tuple(tuple(row) for row in data))

    return (fin(u, rows, rows), fin(uinv, rows, rows), fin(a, rows, cols),
            fin(v, cols, cols), fin(vinv, cols, cols))


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: (u, d, v) with u*m*v = d.

    u and v are unimodular; d is diagonal with nonnegative entries whose
    diagonal forms a divisibility chain (zeros trailing).

    >>> m = IntMatrix.from_rows([[2, 4], [6, 8]])
    >>> u, d, v = smith_normal_form(m)
    >>> d.diagonal()
    [2, 4]
    """
    u, _, d, v, _ = _snf_with_inverses(m)
    return u, d, v


def solve_matrix(m: IntMatrix, y: Sequence[int]) -> Optional[tuple]:
    """One integer solution x of m @ x = y, or None.

    The solution is the canonical one from the Smith form with all free
    parameters zero, so it is deterministic.
    """
    if len(y) != m.rows:
        raise ValueError("right-hand side has wrong length")
    u, _, d, v, _ = _snf_with_inverses(m)
    return _back_substitute(d, v, u.vec(y))


def _back_substitute(d: IntMatrix, v: IntMatrix, uy: Sequence[int]) -> Optional[tuple]:
    """x = v z with d z = uy, free parameters zero; None if unsolvable."""
    diag = d.diagonal()
    z = [0] * d.cols
    for i in range(d.rows):
        di = diag[i] if i < len(diag) else 0
        if di == 0:
            if uy[i] != 0:
                return None
        else:
            if uy[i] % di != 0:
                return None
            z[i] = uy[i] // di
    return v.vec(z)


def kernel_lattice(m: IntMatrix) -> IntMatrix:
    """Basis of the integer kernel lattice of m, as matrix columns."""
    _, _, d, v, _ = _snf_with_inverses(m)
    rank = sum(1 for x in d.diagonal() if x != 0)
    return IntMatrix.from_columns(v.columns()[rank:], m.cols)


# ---------------------------------------------------------------------------
# groups and elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FgGroup:
    """A finitely generated abelian group in invariant-factor form."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        object.__setattr__(self, "torsion", tuple(int(d) for d in self.torsion))
        for d in self.torsion:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
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
        out = [int(c) for c in coords]
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

    def elements(self) -> Iterator["GroupElement"]:
        """All elements; only valid for finite groups."""
        if self.free_rank:
            raise ValueError("cannot enumerate an infinite group")
        for coords in _iter_product(*[range(d) for d in self.torsion]):
            yield self.element(coords)

    def relations(self) -> IntMatrix:
        """Relation columns d_i * e_i in Z^ngens for the torsion generators."""
        n = self.ngens
        cols = []
        for i, d in enumerate(self.torsion):
            col = [0] * n
            col[self.free_rank + i] = d
            cols.append(col)
        return IntMatrix.from_columns(cols, n)

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

    @property
    def free_coords(self) -> tuple:
        return self.coords[: self.group.free_rank]

    @property
    def torsion_coords(self) -> tuple:
        return self.coords[self.group.free_rank:]

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


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def element_order(x: GroupElement) -> int:
    """Least n >= 1 with n*x = 0; 0 encodes infinite order."""
    if any(c != 0 for c in x.free_coords):
        return 0
    n = 1
    for c, d in zip(x.torsion_coords, x.group.torsion):
        if c != 0:
            n = _lcm(n, d // gcd(c, d))
    return n


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
        for j, d in enumerate(self.domain.torsion):
            col = reduced.column(self.domain.free_rank + j)
            scaled = [d * c for c in col]
            if any(c != 0 for c in self.codomain.reduce_coords(scaled)):
                raise HomError(f"ill-defined on torsion generator {j} of order {d}")

    @classmethod
    def zero(cls, domain: FgGroup, codomain: FgGroup) -> "Hom":
        return cls(domain, codomain,
                   IntMatrix.zeros(codomain.ngens, domain.ngens))

    @classmethod
    def identity(cls, group: FgGroup) -> "Hom":
        return cls(group, group, IntMatrix.identity(group.ngens))

    @classmethod
    def from_images(cls, domain: FgGroup, codomain: FgGroup,
                    images: Sequence[GroupElement]) -> "Hom":
        if len(images) != domain.ngens:
            raise HomError("one image per domain generator required")
        for x in images:
            if x.group != codomain:
                raise HomError("image lies in the wrong group")
        return cls(domain, codomain,
                   IntMatrix.from_columns([x.coords for x in images],
                                          codomain.ngens))

    def apply(self, x: GroupElement) -> GroupElement:
        if x.group != self.domain:
            raise HomError("element not in the domain")
        return self.codomain.element(self.matrix.vec(x.coords))

    def __call__(self, x: GroupElement) -> GroupElement:
        return self.apply(x)

    def compose(self, inner: "Hom") -> "Hom":
        """self after inner."""
        if inner.codomain != self.domain:
            raise HomError("non-composable homomorphisms")
        return Hom(inner.domain, self.codomain, self.matrix @ inner.matrix)

    def is_zero_map(self) -> bool:
        return self.matrix.is_zero()


def _reduce_matrix(codomain: FgGroup, m: IntMatrix) -> IntMatrix:
    rows = [list(row) for row in m.entries]
    for i, d in enumerate(codomain.torsion):
        r = codomain.free_rank + i
        rows[r] = [x % d for x in rows[r]]
    return IntMatrix(m.rows, m.cols, tuple(tuple(r) for r in rows))


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
    u, uinv, d, _, _ = _snf_with_inverses(relations)
    diag = d.diagonal()
    free_idx = [i for i in range(n) if (diag[i] if i < len(diag) else 0) == 0]
    tors_idx = [i for i in range(n) if i < len(diag) and diag[i] >= 2]
    group = FgGroup(len(free_idx), tuple(diag[i] for i in tors_idx))
    kept = free_idx + tors_idx
    proj = IntMatrix.from_rows([u.entries[i] for i in kept], n)
    sect = IntMatrix.from_columns([uinv.column(i) for i in kept], n)
    return group, proj, sect


def sublattice_quotient(n: int, gens: IntMatrix, rels: IntMatrix):
    """(lattice spanned by gens) / (lattice spanned by rels) inside Z^n.

    rels must be contained in the span of gens.  Returns (group, reps)
    where reps is an (n x ngens) matrix of ambient representatives of the
    canonical generators.
    """
    u, uinv, d, _, _ = _snf_with_inverses(gens)
    diag = d.diagonal()
    rank = sum(1 for x in diag if x != 0)
    # coordinates of the relations in the lattice basis b_i = d_i * uinv[:, i]
    rel_coords = []
    for col in rels.columns():
        uy = u.vec(col)
        coords = []
        for i in range(rank):
            if uy[i] % diag[i] != 0:
                raise ValueError("relations do not lie in the generator lattice")
            coords.append(uy[i] // diag[i])
        for i in range(rank, n):
            if uy[i] != 0:
                raise ValueError("relations do not lie in the generator lattice")
        rel_coords.append(coords)
    rel_in_basis = IntMatrix.from_columns(rel_coords, rank)
    group, _, sect = cokernel_presentation(rank, rel_in_basis)
    basis = [tuple(diag[i] * x for x in uinv.column(i)) for i in range(rank)]
    basis_matrix = IntMatrix.from_columns(basis, n)
    reps = basis_matrix @ sect
    return group, reps


def lattice_contains(lattice: IntMatrix, vector: Sequence[int]) -> bool:
    return solve_matrix(lattice, vector) is not None


def lattices_equal(a: IntMatrix, b: IntMatrix) -> bool:
    return (all(lattice_contains(a, col) for col in b.columns())
            and all(lattice_contains(b, col) for col in a.columns()))


# ---------------------------------------------------------------------------
# kernels, images, cokernels of homomorphisms
# ---------------------------------------------------------------------------

def cokernel(h: Hom) -> tuple[FgGroup, Hom]:
    """coker(h) = codomain / im(h), with the canonical surjection."""
    n = h.codomain.ngens
    rels = h.matrix.hstack(h.codomain.relations())
    group, proj, _ = cokernel_presentation(n, rels)
    return group, Hom(h.codomain, group, proj)


def _preimage_of_zero_lattice(h: Hom) -> IntMatrix:
    """Lattice {x in Z^n_dom : h(x) = 0 in the codomain}, as columns."""
    na = h.domain.ngens
    stacked = h.matrix.hstack(h.codomain.relations())
    ker = kernel_lattice(stacked)
    cols = [col[:na] for col in ker.columns()]
    cols.extend(h.domain.relations().columns())  # always in the kernel
    return IntMatrix.from_columns(cols, na)


def kernel(h: Hom) -> tuple[FgGroup, Hom]:
    """ker(h) in canonical form with its embedding into the domain."""
    na = h.domain.ngens
    lattice = _preimage_of_zero_lattice(h)
    group, reps = sublattice_quotient(na, lattice, h.domain.relations())
    return group, Hom(group, h.domain, reps)


def image(h: Hom) -> tuple[FgGroup, Hom]:
    """im(h) in canonical form with its embedding into the codomain."""
    nb = h.codomain.ngens
    gens = h.matrix.hstack(h.codomain.relations())
    group, reps = sublattice_quotient(nb, gens, h.codomain.relations())
    return group, Hom(group, h.codomain, reps)


def is_exact_at(f: Hom, g: Hom) -> bool:
    """True iff im(f) = ker(g) inside the middle group."""
    if f.codomain != g.domain:
        raise HomError("chain does not compose: codomain(f) != domain(g)")
    im_lattice = f.matrix.hstack(f.codomain.relations())
    ker_lattice = _preimage_of_zero_lattice(g)
    return lattices_equal(im_lattice, ker_lattice)


def solve_hom(h: Hom, y: GroupElement) -> Optional[GroupElement]:
    """One x with h(x) = y, or None; deterministic canonical choice."""
    if y.group != h.codomain:
        raise HomError("target element is not in the codomain")
    stacked = h.matrix.hstack(h.codomain.relations())
    sol = solve_matrix(stacked, y.coords)
    if sol is None:
        return None
    return h.domain.element(sol[: h.domain.ngens])


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
    stacked = h.matrix.hstack(h.codomain.relations())
    u, _, d, v, _ = _snf_with_inverses(stacked)
    cols = []
    for uy in u.columns():
        sol = _back_substitute(d, v, uy)
        if sol is None:
            raise HomError("not surjective: a codomain generator has no preimage")
        cols.append(h.domain.reduce_coords(sol[:na]))
    return IntMatrix.from_columns(cols, na)


def is_injective(h: Hom) -> bool:
    return kernel(h)[0].is_zero()


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
    rel_cols = []
    offsets = []
    offset = 0
    for g in summands:
        offsets.append(offset)
        for col in g.relations().columns():
            full = [0] * n
            for i, x in enumerate(col):
                full[offset + i] = x
            rel_cols.append(full)
        offset += g.ngens
    group, proj, sect = cokernel_presentation(n, IntMatrix.from_columns(rel_cols, n))
    inclusions = []
    projections = []
    for g, off in zip(summands, offsets):
        emb = IntMatrix.from_columns(
            [[1 if r == off + j else 0 for r in range(n)] for j in range(g.ngens)], n)
        inclusions.append(Hom(g, group, proj @ emb))
        block = IntMatrix.from_rows([sect.entries[off + i] for i in range(g.ngens)],
                                    group.ngens)
        projections.append(Hom(group, g, block))
    return group, inclusions, projections


def quotient_by(ambient: FgGroup,
                elements: Sequence[GroupElement]) -> tuple[FgGroup, Hom]:
    """ambient / <elements>, with the canonical projection."""
    n = ambient.ngens
    cols = [list(x.coords) for x in elements]
    rels = IntMatrix.from_columns(cols, n).hstack(ambient.relations())
    group, proj, _ = cokernel_presentation(n, rels)
    return group, Hom(ambient, group, proj)

