"""Graded integral cohomology tables for the base-space catalog.

A `GradedCohomology` holds the groups H^0..H^max_degree (max_degree is
one less than the number of groups) with named generators and, when ring
data is available, the cup products with degree-two classes.  The ring
is stored only through those cup maps: one matrix per degree-two
generator and per degree, which is exactly the data the Gysin sequence
consumes.

Catalog spaces: point, S^n, T^2, Sigma_g (orientable genus-g surface),
RP^n, CP^2, and a degree-truncated K(Z,2); `_KINDS` states each kind's
parameter range and spellings.  Coordinates of elements are always with
respect to the listed generator order of each degree.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Optional

from .abelian import (
    FgGroup,
    GroupElement,
    Hom,
    IntMatrix,
    ZERO_GROUP,
    _Value,
    direct_sum,
    memo,
)


# ---------------------------------------------------------------------------
# graded cohomology with cup-by-degree-2 data
# ---------------------------------------------------------------------------

def named_generator(group: FgGroup, names: tuple, k: int, name: str) -> GroupElement:
    """The generator of group (degree k of a table) that names calls name."""
    if name not in names:
        raise ValueError(f"degree {k} has no generator {name!r}; "
                         f"available: {list(names)}")
    return group.generator(names.index(name))


class GradedCohomology(_Value, namedtuple("GradedCohomology", [
        "label",
        "groups",   # FgGroup per degree 0..max_degree
        "names",    # tuple of generator-name tuples per degree
        # cup_gens[i][k]: matrix of cup with the i-th H^2 generator,
        # H^k -> H^(k+2); None marks missing ring data for that generator.
        "cup_gens",
        "simply_connected"])):
    __slots__ = ()

    def __new__(cls, label: str, groups: tuple, names: tuple,
                cup_gens: Optional[tuple] = None,
                simply_connected: Optional[bool] = None) -> "GradedCohomology":
        if len(names) != len(groups):
            raise ValueError("one name tuple per degree required")
        for g, ns in zip(groups, names):
            if len(ns) != g.ngens:
                raise ValueError(f"{len(ns)} names for {g.ngens} generators")
        return tuple.__new__(cls, (label, groups, names, cup_gens, simply_connected))

    @property
    def max_degree(self) -> int:
        return len(self.groups) - 1

    def group(self, k: int) -> FgGroup:
        """H^k: zero below degree 0, refused above the table's top."""
        if k > self.max_degree:
            raise ValueError(f"{self.label}: degree {k} is above the table's "
                             f"top degree {self.max_degree}")
        return self.groups[k] if k >= 0 else ZERO_GROUP

    def named_element(self, k: int, name: str) -> GroupElement:
        if k < 0:
            raise ValueError(f"{self.label}: degree {k} has no generators")
        return named_generator(self.group(k), self.names[k], k, name)

    def cup_by(self, e: GroupElement, k: int) -> Hom:
        """The map (cup with e): H^k -> H^(k+2), for e in H^2."""
        if e.group != self.group(2):
            raise ValueError("cup class must live in H^2")
        src = self.group(k)
        dst = self.group(k + 2)
        if k < 0:
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


def _build(label, max_degree, data, cup_entries=(), simply_connected=None):
    """Assemble a GradedCohomology from sparse degree data.

    data: dict degree -> (FgGroup, names); missing degrees are zero, and
    degrees above max_degree are ignored.
    cup_entries: list of (gen_index, degree, matrix_rows) for nonzero cup
    maps; everything else is the zero map.
    """
    groups, names = zip(*(data.get(k, (ZERO_GROUP, ()))
                          for k in range(max_degree + 1)))
    given = {(i, k): rows for i, k, rows in cup_entries}
    n2 = groups[2].ngens if max_degree >= 2 else 0
    table = tuple(
        tuple(IntMatrix.from_rows(given[i, k], groups[k].ngens)
              if (i, k) in given
              else IntMatrix.zeros(groups[k + 2].ngens, groups[k].ngens)
              for k in range(max_degree - 1))
        for i in range(n2))
    return GradedCohomology(
        label=label,
        groups=groups,
        names=tuple(map(tuple, names)),
        cup_gens=table,
        simply_connected=simply_connected,
    )


# ---------------------------------------------------------------------------
# the catalog
# ---------------------------------------------------------------------------

# kind -> (display format, dimension, parameters, lower-case spellings);
# "n" and "{n}" stand for the parameter, one of the kind's parameters
_KINDS = {
    "point": ("point", 0, (0,), ("point",)),
    "sphere": ("S{n}", "n", range(1, 9), ("s{n}", "s^{n}")),
    "torus": ("T2", 2, (0,), ("t2", "t^2")),
    "surface": ("Sigma{n}", 2, range(2, 9),
                ("sigma{n}", "sigma_{n}", "sigma^{n}")),
    "rp": ("RP{n}", "n", range(2, 9), ("rp{n}", "rp^{n}")),
    "cp2": ("CP2", 4, (0,), ("cp2", "cp^2")),
    "kz2": ("KZ2", None, (0,), ("kz2", "k(z,2)")),
}


class UnknownSpaceError(ValueError):
    pass


class CatalogSpace(_Value, namedtuple("CatalogSpace", [
        "kind",     # a key of _KINDS
        "param"])):
    __slots__ = ()

    def __new__(cls, kind: str, param: int = 0) -> "CatalogSpace":
        if (kind not in _KINDS or type(param) is not int
                or param not in _KINDS[kind][2]):
            raise UnknownSpaceError(
                f"no catalog space of kind {kind!r} with parameter {param!r}")
        return tuple.__new__(cls, (kind, param))

    def dimension(self) -> Optional[int]:
        dim = _KINDS[self.kind][1]
        return self.param if dim == "n" else dim

    def display(self) -> str:
        return _KINDS[self.kind][0].format(n=self.param)


_SPELLINGS = {spelling.format(n=n): CatalogSpace(kind, n)
              for kind, (_, _, params, spellings) in _KINDS.items()
              for n in params for spelling in spellings}


def parse_space(name: str) -> CatalogSpace:
    try:
        return _SPELLINGS[name.strip().lower()]
    except KeyError:
        raise UnknownSpaceError(f"unknown catalog space {name!r}") from None


Z = FgGroup(1)
Z2 = FgGroup(0, (2,))


@memo
def cohomology_of(space: CatalogSpace, max_degree: int) -> GradedCohomology:
    """Integral cohomology of a catalog space up to max_degree.

    Each kind states only its groups and generator names.  The ring
    follows from one rule: H^2 is generated by at most one class x, and
    cup with x is the unit 1x1 matrix H^k -> H^(k+2) for every even k
    where both groups are nonzero, and zero everywhere else.
    """
    if max_degree < 0 or max_degree > 12:
        raise ValueError("max_degree out of range")
    kind, n = space.kind, space.param
    data = {0: (Z, ("1",))}
    if kind == "sphere":
        data[n] = (Z, ("vol",))
    elif kind in ("torus", "surface"):
        ones = (("a", "b") if kind == "torus" else
                tuple(f"{ab}{i}" for ab in "ab" for i in range(1, n + 1)))
        data[1] = (FgGroup(len(ones)), ones)
        data[2] = (Z, ("vol",))
    elif kind == "rp":
        for k in range(2, n + 1, 2):
            data[k] = (Z2, (f"a^{k // 2}" if k > 2 else "a",))
        if n % 2 == 1:
            data[n] = (Z, ("vol",))
    elif kind == "cp2":
        data[2] = (Z, ("a",))
        data[4] = (Z, ("a^2",))
    elif kind == "kz2":
        for k in range(2, max_degree + 1, 2):
            data[k] = (Z, ("c" if k == 2 else f"c^{k // 2}",))
    cups = [(0, k, [[1]]) for k in data if k % 2 == 0 and k + 2 in data]
    return _build(space.display(), max_degree, data, cups,
                  simply_connected=(kind in ("point", "cp2", "kz2")
                                    or (kind == "sphere" and n >= 2)))


# ---------------------------------------------------------------------------
# generator names
# ---------------------------------------------------------------------------

def inherited_names(columns, moduli, names, synthetic) -> tuple:
    """One name per coordinate column: names[i] when the column's only
    nonzero entry is at i and is a unit there, else synthetic(j) for
    column j.

    This is the one rule by which a canonical generator inherits a name:
    its coordinates must be +-g for a single named generator g.  moduli[i]
    is 0 for a free coordinate and d for a Z/d one; a unit is +-1, and on
    a Z/d coordinate, which is stored reduced, also d - 1.

    >>> inherited_names([(0, -1), (0, 2), (1, 1)], (0, 0), "gh", "u{}".format)
    ('h', 'u1', 'u2')
    >>> inherited_names([(0, 2)], (0, 3), "gh", "u{}".format)
    ('h',)
    """
    labels = []
    for j, col in enumerate(columns):
        nz = [i for i, c in enumerate(col) if c]
        unit = len(nz) == 1 and col[nz[0]] in (1, -1, moduli[nz[0]] - 1)
        labels.append(names[nz[0]] if unit else synthetic(j))
    return tuple(labels)


def sum_named(parts):
    """Direct sum of (group, names) pairs, tracking generator labels.

    Returns (group, names, inclusions, projections).  Each canonical
    generator is named by inherited_names from its projections to the
    parts written one above the other: it inherits a label when it
    projects to zero in all parts but one, and to a unit multiple of one
    named generator there; otherwise it gets the synthetic label u<i>.
    """
    groups = tuple(g for g, _ in parts)
    total, incls, projs = direct_sum(groups)
    rows = [row for p in projs for row in p.matrix.entries]
    names = inherited_names(
        list(zip(*rows)), [m for g in groups for m in g.moduli],
        [n for _, ns in parts for n in ns], "u{}".format)
    return total, names, incls, projs
