"""Mapping-torus cohomology and the classifying-space tables.

R2 and R32 are mapping tori of simply connected covers under an infinite
cyclic deck action.  For such a quotient the spectral sequence has two
rows and collapses, so every degree sits in

    0 -> coinvariants(H^(n-1) cover) -> H^n -> invariants(H^n cover) -> 0

with invariants = ker(theta - 1) and coinvariants = coker(theta - 1).
The sequence splits whenever the invariant part is free; coinvariant
classes pick up the circle class of the torus direction in their names.

The canonical bundle tables are produced by running the Gysin engine
over the pinned R32 cohomology and are cross-checked against the pinned
bundle tables; a mismatch is a fatal self-test failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import fixtures
from .abelian import (
    FgGroup,
    GroupElement,
    Hom,
    IntMatrix,
    ZERO_GROUP,
    cokernel,
    is_isomorphism,
    kernel,
    section_matrix,
)
from .gysin import CircleBundle, TotalSpaceCohomology, total_space_cohomology
from .spaces import GradedCohomology, inherited_names, sum_named, unit_index


class SelfTestError(RuntimeError):
    """Engine output disagrees with a pinned reference table."""


# ---------------------------------------------------------------------------
# cohomology of an infinite cyclic group action
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZAction:
    """An integer-invertible automorphism, the deck action of a Z-quotient."""

    group: FgGroup
    automorphism: Hom

    def __post_init__(self):
        if (self.automorphism.domain != self.group
                or self.automorphism.codomain != self.group):
            raise ValueError("automorphism must be an endomorphism of the group")
        if not is_isomorphism(self.automorphism):
            raise ValueError("deck action must be invertible over Z")

    @classmethod
    def from_matrix(cls, group: FgGroup, matrix: IntMatrix) -> "ZAction":
        return cls(group, Hom(group, group, matrix))

    @classmethod
    def trivial(cls, group: FgGroup) -> "ZAction":
        return cls(group, Hom.identity(group))

    def shift(self) -> Hom:
        """theta - 1, the map whose kernel/cokernel we take."""
        minus = IntMatrix.identity(self.group.ngens).scale(-1)
        return Hom(self.group, self.group, self.automorphism.matrix.add(minus))


def z_group_cohomology(action: ZAction):
    """Invariants and coinvariants of the action.

    Returns ((h0, incl), (h1, proj)): h0 = ker(theta - 1) with its
    embedding, h1 = coker(theta - 1) with its projection.
    """
    shift = action.shift()
    h0, incl = kernel(shift)
    h1, proj = cokernel(shift)
    return (h0, incl), (h1, proj)


# ---------------------------------------------------------------------------
# mapping torus assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MappingTorusData:
    cover: GradedCohomology
    actions: dict          # degree -> ZAction; zero degrees may be omitted
    circle_class: str = "l"

    def action(self, k: int) -> ZAction:
        g = self.cover.group(k)
        if k in self.actions:
            act = self.actions[k]
            if act.group != g:
                raise ValueError(f"degree-{k} action acts on the wrong group")
            return act
        if g.is_zero() or k < 0 or k > self.cover.max_degree:
            return ZAction.trivial(g)
        raise ValueError(f"missing action data in degree {k}")


@dataclass(frozen=True)
class MappingTorusCohomology:
    table: GradedCohomology
    ambiguous: tuple       # degrees where the two-row extension is torsion


def mapping_torus_cohomology(data: MappingTorusData) -> MappingTorusCohomology:
    """Assemble H^* of the mapping torus from the deck actions.

    Degree n is the (split) extension of the degree-n invariants by the
    degree-(n-1) coinvariants; a nonzero coinvariant part under torsion
    invariants leaves the extension undetermined and flags the degree.
    """
    cover = data.cover
    groups = []
    names = []
    flagged = []
    circle = data.circle_class
    for n in range(cover.max_degree + 1):
        (h0, incl), _ = z_group_cohomology(data.action(n))
        if n >= 1:
            _, (h1, proj) = z_group_cohomology(data.action(n - 1))
            h1_names = inherited_names(
                section_matrix(proj).columns(), cover.group(n - 1),
                cover.names[n - 1],
                lambda s: circle if s == "1" else f"{s}{circle}",
                lambda j: f"{circle}[{n}.{j}]")
        else:
            h1, h1_names = ZERO_GROUP, ()
        h0_names = inherited_names(incl.matrix.columns(), cover.group(n),
                                   cover.names[n], lambda s: s,
                                   lambda j: f"inv[{n}.{j}]")
        total, ns, _, _ = sum_named([(h1, h1_names), (h0, h0_names)])
        if not h0.is_free() and not h1.is_zero():
            flagged.append(n)
        groups.append(total)
        names.append(ns)
    table = GradedCohomology(
        label=f"torus({cover.label})",
        max_degree=cover.max_degree,
        groups=tuple(groups),
        names=tuple(names),
        cup_gens=None,
        simply_connected=False,
    )
    return MappingTorusCohomology(table=table, ambiguous=tuple(flagged))


def r2_mapping_torus_data() -> MappingTorusData:
    cover = fixtures.r2_cover()
    return MappingTorusData(cover, {
        0: ZAction.trivial(cover.group(0)),
        2: ZAction.from_matrix(cover.group(2), fixtures.R2_PI2_ACTION),
    }, circle_class="a")


def r32_mapping_torus_data() -> MappingTorusData:
    cover = fixtures.r32_cover()
    return MappingTorusData(cover, {
        0: ZAction.trivial(cover.group(0)),
        2: ZAction.from_matrix(cover.group(2), fixtures.R32_DEGREE2_ACTION),
        4: ZAction.from_matrix(cover.group(4), fixtures.R32_DEGREE4_ACTION),
    }, circle_class="l")


def r2_cohomology_computed() -> MappingTorusCohomology:
    return mapping_torus_cohomology(r2_mapping_torus_data())


def r32_cohomology_computed() -> MappingTorusCohomology:
    return mapping_torus_cohomology(r32_mapping_torus_data())


# ---------------------------------------------------------------------------
# homotopy tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomotopyTables:
    r2: dict               # degree -> FgGroup (zero beyond listed)
    r2_pi2_action: IntMatrix
    r32: dict
    r32_pi2_action: IntMatrix

    def pi(self, space: str, i: int) -> FgGroup:
        table = {"R2": self.r2, "R32": self.r32}[space]
        return table.get(i, ZERO_GROUP)


def homotopy_tables() -> HomotopyTables:
    return HomotopyTables(
        r2=dict(fixtures.R2_HOMOTOPY),
        r2_pi2_action=fixtures.R2_PI2_ACTION,
        r32=dict(fixtures.R32_HOMOTOPY),
        r32_pi2_action=fixtures.R32_PI2_ACTION,
    )


# ---------------------------------------------------------------------------
# canonical bundles over R32
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BundleTable:
    """A total-space table relabeled with the reference generator names."""

    tsc: TotalSpaceCohomology
    names: tuple           # per degree, aligned with canonical generators

    def group(self, k: int) -> FgGroup:
        return self.tsc.group(k)

    def named_element(self, k: int, name: str) -> GroupElement:
        return self.tsc.group(k).generator(self.names[k].index(name))


def _relabel_and_check(tsc, ref_groups, ref_names, ref_push, ref_pull, base):
    """Match engine generators to reference names; verify p! and p*."""
    names = []
    for k, (g, ref) in enumerate(zip(ref_groups, ref_names)):
        if tsc.group(k) != g:
            raise SelfTestError(
                f"degree {k}: computed {tsc.group(k).describe()}, "
                f"reference {g.describe()}")
        degree_names = [None] * g.ngens
        used = set()
        for name in ref:
            idx = None
            if name in ref_pull:
                # generator pulled back from the base
                pre = base.named_element(k, ref_pull[name])
                idx = unit_index(tsc.pullback(k)(pre).coords, g)
                if idx in used:
                    idx = None
            if idx is None:
                # a generator characterized by its pushforward, or the unit
                for i in range(g.ngens):
                    if i in used:
                        continue
                    push = tsc.pushforward(k)(tsc.group(k).generator(i))
                    want = ref_push.get(name)
                    if want is None:
                        if push.is_zero() and degree_names[i] is None:
                            idx = i
                            break
                    else:
                        target = base.named_element(k - 1, want)
                        if push in (target, -target):
                            idx = i
                            break
            if idx is None:
                raise SelfTestError(f"cannot locate generator {name!r} "
                                    f"in degree {k}")
            used.add(idx)
            degree_names[idx] = name
        names.append(tuple(degree_names))
    # pushforward images must match the reference exactly
    table = BundleTable(tsc, tuple(names))
    for k in range(len(ref_groups)):
        for name in ref_names[k]:
            want = ref_push.get(name)
            got = tsc.pushforward(k)(table.named_element(k, name))
            if want is None:
                if k >= 1 and not got.is_zero():
                    raise SelfTestError(f"p!({name}) should vanish")
            else:
                target = base.named_element(k - 1, want)
                if got not in (target, -target):
                    raise SelfTestError(f"p!({name}) != {want}")
    return table


@dataclass(frozen=True)
class UniversalBundles:
    e32: BundleTable
    e32_hat: BundleTable


def universal_bundle_tables() -> UniversalBundles:
    """Gysin tables of the canonical bundle (Euler class a1) and its
    T-dual partner (Euler class a2) over R32, checked against the pinned
    reference values."""
    r32 = fixtures.r32_cohomology()
    e32_tsc = total_space_cohomology(
        CircleBundle(r32, r32.named_element(2, "a1")), 3)
    e32 = _relabel_and_check(
        e32_tsc, fixtures.E32_GROUPS, fixtures.E32_NAMES,
        fixtures.E32_PUSHFORWARD, fixtures.E32_PULLBACK_PREIMAGE, r32)
    hat_tsc = total_space_cohomology(
        CircleBundle(r32, r32.named_element(2, "a2")), 3)
    e32_hat = _relabel_and_check(
        hat_tsc, fixtures.E32_HAT_GROUPS, fixtures.E32_HAT_NAMES,
        fixtures.E32_HAT_PUSHFORWARD, fixtures.E32_HAT_PULLBACK_PREIMAGE, r32)
    return UniversalBundles(e32=e32, e32_hat=e32_hat)


# ---------------------------------------------------------------------------
# the T-duality self-map on cohomology
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class T32Action:
    on_r32: dict           # degree -> IntMatrix in the reference basis
    on_bundles: dict       # E32 generator name -> E32^ name or None (zero)

    def matrix(self, degree: int) -> IntMatrix:
        return self.on_r32[degree]

    def squared(self, degree: int) -> IntMatrix:
        m = self.on_r32[degree]
        return m @ m


def t32_cohomology_action() -> T32Action:
    return T32Action(on_r32=dict(fixtures.T32_ON_R32),
                     on_bundles=dict(fixtures.T32_ON_BUNDLES))


# ---------------------------------------------------------------------------
# orbits of unipotent actions (unbased classes over the two-sphere)
# ---------------------------------------------------------------------------

def unbased_classes_over_sphere(action: ZAction,
                                element: GroupElement) -> GroupElement:
    """Canonical representative of the orbit of `element` under the action.

    Requires a free group and (theta - 1)^2 = 0, which covers the deck
    actions appearing here.  The orbit is {v + k*w} for w = (theta - 1)v;
    the representative normalizes the first moving coordinate into
    [0, |shift|).
    """
    if element.group != action.group:
        raise ValueError("element does not live in the acted-on group")
    if not action.group.is_free():
        raise ValueError("orbit normal form implemented for free groups only")
    shift = action.shift()
    if not shift.compose(shift).is_zero_map():
        raise ValueError("orbit normal form needs (theta - 1)^2 = 0")
    w = shift(element)
    if w.is_zero():
        return element
    i = next(idx for idx, c in enumerate(w.coords) if c != 0)
    m = abs(w.coords[i])
    k = ((element.coords[i] % m) - element.coords[i]) // w.coords[i]
    return element + w.scale(k)
