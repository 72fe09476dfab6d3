"""Graded integral cohomology tables for the base-space catalog.

A `GradedCohomology` holds the groups H^0..H^max_degree with named
generators and, when ring data is available, the cup products with
degree-two classes.  The ring is stored only through those cup maps: one
matrix per degree-two generator and per degree, which is exactly the data
the Gysin sequence consumes.

Catalog spaces: point, S^n (1 <= n <= 8), T^2, Sigma_g (orientable genus-g
surface, 2 <= g <= 8), RP^n (2 <= n <= 8), CP^2, and a degree-truncated
K(Z,2).  Coordinates of elements are always with respect to the listed
generator order of each degree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

from .abelian import (
    FgGroup,
    GroupElement,
    Hom,
    IntMatrix,
    ZERO_GROUP,
    direct_sum,
)


# ---------------------------------------------------------------------------
# graded cohomology with cup-by-degree-2 data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradedCohomology:
    label: str
    max_degree: int
    groups: tuple  # FgGroup per degree 0..max_degree
    names: tuple   # tuple of generator-name tuples per degree
    # cup_gens[i][k]: matrix of cup with the i-th H^2 generator,
    # H^k -> H^(k+2); None marks missing ring data for that generator.
    cup_gens: Optional[tuple] = None
    simply_connected: Optional[bool] = None

    def __post_init__(self):
        if len(self.groups) != self.max_degree + 1:
            raise ValueError("one group per degree 0..max_degree required")
        if len(self.names) != len(self.groups):
            raise ValueError("one name tuple per degree required")
        for g, ns in zip(self.groups, self.names):
            if len(ns) != g.ngens:
                raise ValueError(f"{len(ns)} names for {g.ngens} generators")

    def group(self, k: int) -> FgGroup:
        if k < 0 or k > self.max_degree:
            return ZERO_GROUP
        return self.groups[k]

    def element(self, k: int, coords: Sequence[int]) -> GroupElement:
        return self.group(k).element(coords)

    def generator_index(self, k: int, name: str) -> int:
        return self.names[k].index(name)

    def named_element(self, k: int, name: str) -> GroupElement:
        return self.group(k).generator(self.generator_index(k, name))

    def cup_by(self, e: GroupElement, k: int) -> Hom:
        """The map (cup with e): H^k -> H^(k+2), for e in H^2."""
        if e.group != self.group(2):
            raise ValueError("cup class must live in H^2")
        src = self.group(k)
        dst = self.group(k + 2)
        if k < 0 or k + 2 > self.max_degree:
            return Hom.zero(src, dst)
        if self.cup_gens is None:
            raise ValueError(f"{self.label} carries no ring data")
        total = IntMatrix.zeros(dst.ngens, src.ngens)
        for i, coeff in enumerate(e.coords):
            if coeff == 0:
                continue
            m = self.cup_gens[i][k]
            if m is None:
                raise ValueError(
                    f"no cup data for H^2 generator {self.names[2][i]!r}")
            total = total.add(m.scale(coeff))
        return Hom(src, dst, total)


def _zero_cup_table(groups, max_degree):
    """All-zero cup matrices for each H^2 generator and degree."""
    n2 = groups[2].ngens if max_degree >= 2 else 0
    table = []
    for _ in range(n2):
        row = []
        for k in range(max_degree - 1):
            dst = groups[k + 2]
            row.append(IntMatrix.zeros(dst.ngens, groups[k].ngens))
        row.extend([None, None])  # degrees max-1, max have no target in range
        table.append(tuple(row[: max_degree + 1]))
    return table


def _build(label, max_degree, data, cup_entries=(), simply_connected=None):
    """Assemble a GradedCohomology from sparse degree data.

    data: dict degree -> (FgGroup, names); missing degrees are zero.
    cup_entries: list of (gen_index, degree, matrix_rows) for nonzero cup
    maps; everything else defaults to the zero map.
    """
    groups = []
    names = []
    for k in range(max_degree + 1):
        g, ns = data.get(k, (ZERO_GROUP, ()))
        groups.append(g)
        names.append(tuple(ns))
    table = _zero_cup_table(groups, max_degree)
    for i, k, rows in cup_entries:
        if k + 2 > max_degree:
            continue
        src = groups[k]
        table[i] = tuple(
            IntMatrix.from_rows(rows, src.ngens) if kk == k else m
            for kk, m in enumerate(table[i]))
    return GradedCohomology(
        label=label,
        max_degree=max_degree,
        groups=tuple(groups),
        names=tuple(names),
        cup_gens=tuple(table),
        simply_connected=simply_connected,
    )


# ---------------------------------------------------------------------------
# the catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogSpace:
    kind: str   # point | sphere | torus | surface | rp | cp2 | kz2
    param: int = 0

    def dimension(self) -> Optional[int]:
        return {
            "point": 0,
            "sphere": self.param,
            "torus": 2,
            "surface": 2,
            "rp": self.param,
            "cp2": 4,
            "kz2": None,
        }[self.kind]

    def display(self) -> str:
        return {
            "point": "point",
            "sphere": f"S{self.param}",
            "torus": "T2",
            "surface": f"Sigma{self.param}",
            "rp": f"RP{self.param}",
            "cp2": "CP2",
            "kz2": "KZ2",
        }[self.kind]


class UnknownSpaceError(ValueError):
    pass


_SPACE_RE = re.compile(
    r"^(?:(point)|s\^?([1-8])|(t\^?2)|sigma[_^]?([2-8])|rp\^?([2-8])|"
    r"(cp\^?2)|(kz2|k\(z,2\)))$")


def parse_space(name: str) -> CatalogSpace:
    m = _SPACE_RE.match(name.strip().lower())
    if not m:
        raise UnknownSpaceError(f"unknown catalog space {name!r}")
    if m.group(1):
        return CatalogSpace("point")
    if m.group(2):
        return CatalogSpace("sphere", int(m.group(2)))
    if m.group(3):
        return CatalogSpace("torus")
    if m.group(4):
        return CatalogSpace("surface", int(m.group(4)))
    if m.group(5):
        return CatalogSpace("rp", int(m.group(5)))
    if m.group(6):
        return CatalogSpace("cp2")
    return CatalogSpace("kz2")


Z = FgGroup(1)
Z2 = FgGroup(0, (2,))


def cohomology_of(space: CatalogSpace, max_degree: int) -> GradedCohomology:
    """Integral cohomology of a catalog space up to max_degree."""
    if max_degree < 0 or max_degree > 12:
        raise ValueError("max_degree out of range")
    label = space.display()
    if space.kind == "point":
        return _build(label, max_degree, {0: (Z, ("1",))}, simply_connected=True)

    if space.kind == "sphere":
        n = space.param
        data = {0: (Z, ("1",))}
        if n <= max_degree:
            data[n] = (Z, ("vol",))
        cups = []
        if n == 2 and max_degree >= 2:
            cups.append((0, 0, [[1]]))  # 1 cup vol = vol
        return _build(label, max_degree, data, cups, simply_connected=(n >= 2))

    if space.kind in ("torus", "surface"):
        g = 1 if space.kind == "torus" else space.param
        ones = [f"a{i}" for i in range(1, g + 1)] + [f"b{i}" for i in range(1, g + 1)]
        if space.kind == "torus":
            ones = ["a", "b"]
        data = {0: (Z, ("1",))}
        if max_degree >= 1:
            data[1] = (FgGroup(2 * g), tuple(ones))
        if max_degree >= 2:
            data[2] = (Z, ("vol",))
        cups = [(0, 0, [[1]])] if max_degree >= 2 else []
        return _build(label, max_degree, data, cups, simply_connected=False)

    if space.kind == "rp":
        n = space.param
        data = {0: (Z, ("1",))}
        for k in range(2, min(n, max_degree) + 1, 2):
            data[k] = (Z2, (f"a^{k // 2}" if k > 2 else "a",))
        if n % 2 == 1 and n <= max_degree:
            data[n] = (Z, ("vol",))
        cups = []
        if max_degree >= 2:
            cups.append((0, 0, [[1]]))  # Z -> Z/2 reduction
            for k in range(2, n - 1, 2):
                if k + 2 <= max_degree and k + 2 <= n and data.get(k + 2, (ZERO_GROUP,))[0] == Z2:
                    cups.append((0, k, [[1]]))
        return _build(label, max_degree, data, cups, simply_connected=False)

    if space.kind == "cp2":
        data = {0: (Z, ("1",))}
        if max_degree >= 2:
            data[2] = (Z, ("a",))
        if max_degree >= 4:
            data[4] = (Z, ("a^2",))
        cups = []
        if max_degree >= 2:
            cups.append((0, 0, [[1]]))
        if max_degree >= 4:
            cups.append((0, 2, [[1]]))
        return _build(label, max_degree, data, cups, simply_connected=True)

    if space.kind == "kz2":
        data = {0: (Z, ("1",))}
        for k in range(2, max_degree + 1, 2):
            data[k] = (Z, ("c" if k == 2 else f"c^{k // 2}",))
        cups = [(0, k, [[1]]) for k in range(0, max_degree - 1, 2)]
        return _build(label, max_degree, data, cups, simply_connected=True)

    raise UnknownSpaceError(space.kind)


# ---------------------------------------------------------------------------
# generator names
# ---------------------------------------------------------------------------

def unit_index(coords: Sequence[int], group: FgGroup) -> Optional[int]:
    """Index of the only nonzero coordinate when it is a unit, else None.

    This is the one rule by which a canonical generator inherits a name:
    its coordinates in a named group must be +-g for a single named
    generator g.  A unit is +-1, and on a Z/d coordinate, which is stored
    reduced, also d - 1.

    >>> unit_index((0, -1), FgGroup(2))
    1
    >>> unit_index((0, 2), FgGroup(1, (3,)))
    1
    >>> unit_index((0, 2), FgGroup(2)) is None
    True
    >>> unit_index((1, 1), FgGroup(2)) is None
    True
    """
    nz = [i for i, c in enumerate(coords) if c != 0]
    if len(nz) != 1:
        return None
    i = nz[0]
    c = coords[i]
    tors = i - group.free_rank
    if c in (1, -1) or (tors >= 0 and c == group.torsion[tors] - 1):
        return i
    return None


def inherited_names(columns, group: FgGroup, names, inherit, synthetic) -> tuple:
    """One label per coordinate column in `group`, whose generators are
    `names`: inherit(name) where unit_index finds a generator, else
    synthetic(j) for column j."""
    labels = []
    for j, col in enumerate(columns):
        i = unit_index(col, group)
        labels.append(synthetic(j) if i is None else inherit(names[i]))
    return tuple(labels)


def sum_named(parts):
    """Direct sum of (group, names) pairs, tracking generator labels.

    Returns (group, names, inclusions, projections).  A canonical
    generator inherits a label when it projects to zero in all parts but
    one, and to a unit multiple of one named generator there (see
    unit_index); otherwise it gets the synthetic label u<i>.
    """
    groups = [g for g, _ in parts]
    total, incls, projs = direct_sum(groups)
    columns = [p.matrix.columns() for p in projs]
    names = []
    for i in range(total.ngens):
        hits = [(g, ns, cols[i]) for (g, ns), cols in zip(parts, columns)
                if any(cols[i])]
        label = f"u{i}"
        if len(hits) == 1:
            g, ns, col = hits[0]
            j = unit_index(col, g)
            if j is not None:
                label = ns[j]
        names.append(label)
    return total, tuple(names), incls, projs
