"""Mapping-torus cohomology and the classifying-space tables.

R2 and R32 are mapping tori of simply connected covers under an infinite
cyclic deck action.  For such a quotient the spectral sequence has two
rows and collapses, so every degree sits in

    0 -> coinvariants(H^(n-1) cover) -> H^n -> invariants(H^n cover) -> 0

with invariants = ker(theta - 1) and coinvariants = coker(theta - 1).
This is the two-row shape of the Gysin sequence, so each degree is built
by gysin.split_degree with f = theta - 1 in degree n-1 and g = theta - 1
in degree n.  mapping_torus_cohomology takes the cover and its deck
matrices, one per degree, each checked as a ZAction.  The sequence
splits whenever the invariant part is free; coinvariant classes pick up
the circle class of the torus direction in their names.

The canonical bundle tables are produced by running the Gysin engine
over the pinned R32 cohomology and are cross-checked against the pinned
bundle tables: the engine's generator names are translated into the
reference names, and the groups, names, p! and p* must all agree.  A
mismatch is a fatal self-test failure.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import fixtures
from .abelian import (
    FgGroup,
    GroupElement,
    Hom,
    IntMatrix,
    ZERO_GROUP,
    is_isomorphism,
)
from .gysin import (
    FIBER,
    PULLBACK,
    CircleBundle,
    TotalSpaceCohomology,
    split_degree,
    total_space_cohomology,
)
from .spaces import GradedCohomology


class SelfTestError(RuntimeError):
    """Engine output disagrees with a pinned reference table."""


# ---------------------------------------------------------------------------
# cohomology of an infinite cyclic group action
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZAction:
    """An integer-invertible automorphism of its domain, the deck action of
    a Z-quotient."""

    automorphism: Hom

    def __post_init__(self):
        if self.automorphism.domain != self.automorphism.codomain:
            raise ValueError("automorphism must be an endomorphism of the group")
        if not is_isomorphism(self.automorphism):
            raise ValueError("deck action must be invertible over Z")

    @property
    def group(self) -> FgGroup:
        return self.automorphism.domain

    @classmethod
    def from_matrix(cls, group: FgGroup, matrix: IntMatrix) -> "ZAction":
        return cls(Hom(group, group, matrix))

    def shift(self) -> Hom:
        """theta - 1, the map whose kernel/cokernel we take."""
        minus = IntMatrix.identity(self.group.ngens).scale(-1)
        return Hom(self.group, self.group, self.automorphism.matrix.add(minus))


# ---------------------------------------------------------------------------
# mapping torus assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MappingTorusCohomology:
    table: GradedCohomology
    ambiguous: tuple       # degrees where the two-row extension is torsion


def mapping_torus_cohomology(cover: GradedCohomology, actions: dict,
                             circle: str = "l") -> MappingTorusCohomology:
    """Assemble H^* of the mapping torus from the deck actions.

    `actions` maps a degree to its deck matrix; a zero degree may be
    omitted.  Degree n is the split_degree of the degree-(n-1)
    coinvariants and the degree-n invariants, from the one shift
    theta - 1 of each cover degree; a nonzero coinvariant part under
    torsion invariants leaves the extension undetermined and flags the
    degree.  `circle` names the class of the torus direction.
    """
    shifts = [Hom.zero(ZERO_GROUP, ZERO_GROUP)]
    for n, g in enumerate(cover.groups):
        if n not in actions and not g.is_zero():
            raise ValueError(f"missing action data in degree {n}")
        matrix = actions.get(n, IntMatrix.identity(0))
        shifts.append(ZAction.from_matrix(g, matrix).shift())
    names = ((),) + cover.names
    degrees = []
    for n in range(cover.max_degree + 1):
        degrees.append(split_degree(
            shifts[n], shifts[n + 1],
            tuple(circle if s == "1" else f"{s}{circle}" for s in names[n]),
            names[n + 1], f"{circle}[{n}.{{}}]", f"inv[{n}.{{}}]",
            split=False))
    table = GradedCohomology(
        label=f"torus({cover.label})",
        groups=tuple(d.group for d in degrees),
        names=tuple(d.names for d in degrees),
        cup_gens=None,
        simply_connected=False,
    )
    return MappingTorusCohomology(
        table=table,
        ambiguous=tuple(n for n, d in enumerate(degrees) if d.ambiguous))


def r2_cohomology_computed() -> MappingTorusCohomology:
    return mapping_torus_cohomology(fixtures.r2_cover(), {
        0: IntMatrix.identity(1), 2: fixtures.R2_PI2_ACTION}, circle="a")


def r32_cohomology_computed() -> MappingTorusCohomology:
    return mapping_torus_cohomology(fixtures.r32_cover(), {
        0: IntMatrix.identity(1), 2: fixtures.R32_PI2_ACTION,
        4: fixtures.R32_DEGREE4_ACTION})


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


def _relabel_and_check(tsc, ref_groups, ref_names, ref_push, ref_pull):
    """Check the groups, the names, p! and p* against the reference.

    The engine's names translate into the reference's: p*(s) to the name
    that ref_pull maps to s, s.z to the one that ref_push maps to s, and
    p*(1) to 1.  Each degree must give ref_names in the engine's order.
    """
    base = tsc.base
    engine = {PULLBACK.format(s): name for name, s in ref_pull.items()}
    engine.update({FIBER.format(s): name for name, s in ref_push.items() if s})
    engine[PULLBACK.format("1")] = "1"
    for k, (g, ref) in enumerate(zip(ref_groups, ref_names)):
        if tsc.group(k) != g:
            raise SelfTestError(
                f"degree {k}: computed {tsc.group(k).describe()}, "
                f"reference {g.describe()}")
        got = tuple(engine.get(n) for n in tsc.names(k))
        if got != tuple(ref):
            raise SelfTestError(f"degree {k}: {tsc.names(k)} translate to "
                                f"{got}, reference {tuple(ref)}")
        for x, name in zip(g.generators(), ref):
            want = ref_push.get(name)
            target = (base.group(k - 1).zero_element() if want is None
                      else base.named_element(k - 1, want))
            if tsc.pushforward(k)(x) not in (target, -target):
                raise SelfTestError(f"p!({name}) != {want or 0}")
            if name in ref_pull and tsc.pullback(k)(
                    base.named_element(k, ref_pull[name])) not in (x, -x):
                raise SelfTestError(
                    f"{PULLBACK.format(ref_pull[name])} != {name}")
    return BundleTable(tsc, tuple(tuple(ref) for ref in ref_names))


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
        fixtures.E32_PUSHFORWARD, fixtures.E32_PULLBACK_PREIMAGE)
    hat_tsc = total_space_cohomology(
        CircleBundle(r32, r32.named_element(2, "a2")), 3)
    e32_hat = _relabel_and_check(
        hat_tsc, fixtures.E32_HAT_GROUPS, fixtures.E32_HAT_NAMES,
        fixtures.E32_HAT_PUSHFORWARD, fixtures.E32_HAT_PULLBACK_PREIMAGE)
    return UniversalBundles(e32=e32, e32_hat=e32_hat)
