"""The T-duality transform on triples and the B-class coset machinery.

A triple is a principal circle bundle p: E -> W together with classes
b in H^2(E) and H in H^3(E).  The transform:

  * dual Euler class   e# = p!(H),
  * dual flux          H# with q!(H#) = e, with the part of H pulled back
    from the base transported through the base (q!(H#) = e alone leaves
    H# open up to the image of q*, which is always reported alongside),
  * B-class            handled at coset level: b must be a pullback
    p*(beta); its coset modulo <p* p!(H)> is carried to the coset of
    q*(beta) modulo <q* q!(H#)>.

b lifts iff p!(b) = 0.  `GysinDegree.lift` gives beta and the base class
of H, `GysinDegree.choice(e)` the fiberwise half of H# (an explicit
preimage under q!), and im(q*) is the degree's stored inclusion.

Where p* and q* are onto in degree two (always when the base has
H^1 = 0) the coset quotients H^2(E)/<p* p!(H)> and H^2(E#)/<q* q!(H#)>
are isomorphic, by the natural map induced by q* (p*)^-1.  Otherwise they
need not be: equal canonical forms are matched directly, different ones
get no witness (the universal triple (E32, 0, h) gives Z against 0), and
the report carries a CONJECTURE flag either way (the coset bijection is
only proved over simply connected bases; ROADMAP item 3 transports b
through H^2(W)/<e, e#> instead).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .abelian import (
    FgGroup,
    GroupElement,
    Hom,
    is_isomorphism,
    quotient_by,
    section_matrix,
)
from .gysin import CircleBundle, TotalSpaceCohomology, total_space_cohomology

FLAG_CONJECTURE = "CONJECTURE"
FLAG_AMBIGUOUS = "AMBIGUOUS-EXTENSION"
FLAG_B_NOT_LIFTABLE = "B-NOT-LIFTABLE"

ENUMERATION_CAP = 512


class BNotLiftableError(ValueError):
    """The B-class is not a pullback from the base."""


class ExactnessBugError(RuntimeError):
    """An exactness fact the construction guarantees failed to hold."""


@dataclass(frozen=True)
class Triple:
    total: TotalSpaceCohomology
    b: GroupElement
    flux: GroupElement

    def __post_init__(self):
        if self.total.top < 3:
            raise ValueError("a triple needs total-space data through degree 3")
        if self.b.group != self.total.group(2):
            raise ValueError("b must lie in H^2 of the total space")
        if self.flux.group != self.total.group(3):
            raise ValueError("the flux must lie in H^3 of the total space")

    @property
    def base(self):
        return self.total.base

    @property
    def euler(self) -> GroupElement:
        return self.total.euler


@dataclass(frozen=True)
class CosetData:
    """A coset b + <gen> inside H^2 of a total space."""

    subgroup_generator: GroupElement
    representative: GroupElement
    quotient: FgGroup
    projection: Hom
    coset: GroupElement                 # class of the representative
    representatives: Optional[tuple]    # one lift per coset, reduced coords


@dataclass(frozen=True)
class DualityReport:
    source: Triple
    dual: Triple
    flux_ambiguity: Hom                 # im(q*) -> H^3(E#), its domain the subgroup
    source_coset: CosetData
    target_coset: CosetData
    coset_iso: Optional[Hom]
    coset_iso_natural: bool
    flags: tuple
    ambiguous_degrees: tuple            # (degree, side) pairs


def dual_euler(t: Triple) -> GroupElement:
    """The Euler class of the T-dual bundle: p!(H) in H^2(W)."""
    return t.total.pushforward(3)(t.flux)


def dual_flux(t: Triple, dual_total: TotalSpaceCohomology):
    """A flux H# on the dual bundle with q!(H#) = e, plus its ambiguity.

    The half of H pulled back from the base is carried over through the
    base; the fiberwise half becomes the source Euler class.  Returns
    (H#, the inclusion of im(q*)): what q!(H#) = e alone leaves open.
    """
    # e cup e# = 0 since e# = p!(H) lies in the kernel of cup-e, so e
    # lies in ker(cup e#), the image of q!
    dd3 = dual_total.degrees[3]
    fiberwise = dd3.choice(t.euler)
    if fiberwise is None:
        raise ExactnessBugError("source Euler class not in the image of q!")
    hdual = dd3.pullback(t.total.degrees[3].lift(t.flux)) + fiberwise
    return hdual, dd3.pullback_image


def coset_partition(gen: GroupElement,
                    representative: Optional[GroupElement] = None) -> CosetData:
    """The partition of the group of gen, H^2(E), into cosets of <gen>.

    When the quotient is small enough it is enumerated: the result lists
    one canonical lift per coset as a reduced coordinate tuple.  Otherwise
    only the quotient form and the projection are returned.
    """
    h2 = gen.group
    if representative is None:
        representative = h2.zero_element()
    quotient, proj = quotient_by(h2, [gen])
    reps = None
    if quotient.is_finite() and quotient.order() <= ENUMERATION_CAP:
        # the lifts sum_i q_i s_i, q in itertools.product order, built one
        # coordinate at a time from its row of the section and reduced
        # modulo its torsion order
        coords = []
        for row, t in zip(section_matrix(proj).entries, h2.moduli):
            vals = [0]
            for c, d in zip(row, quotient.torsion):
                vals = [v + k * c for v in vals for k in range(d)]
            coords.append([v % t for v in vals] if t else vals)
        reps = tuple(zip(*coords)) if coords else ((),) * quotient.order()
    return CosetData(
        subgroup_generator=gen,
        representative=representative,
        quotient=quotient,
        projection=proj,
        coset=proj(representative),
        representatives=reps,
    )


def _coset_isomorphism(t: Triple, dual_total: TotalSpaceCohomology,
                       source_coset: CosetData, target_coset: CosetData):
    """An isomorphism between the two coset quotients.

    Natural exactly when p! and q! vanish on H^2, so that p* and q* are
    onto in degree two (always over a base with H^1 = 0): the witness is
    the map induced by q* (p*)^-1, the unique phi with phi P = Q for P, Q
    the degree-two pullbacks followed by the coset projections.  Fallback:
    equal canonical forms are matched by the identity on canonical
    generators, which ignores b.
    """
    if (t.total.pushforward(2).is_zero_map()
            and dual_total.pushforward(2).is_zero_map()):
        p = source_coset.projection.compose(t.total.pullback(2))
        q = target_coset.projection.compose(dual_total.pullback(2))
        return Hom(p.codomain, q.codomain, q.matrix @ section_matrix(p)), True
    if source_coset.quotient == target_coset.quotient:
        return Hom.identity(source_coset.quotient), False
    return None, False


def dualize(t: Triple) -> DualityReport:
    """The full T-duality transform of a triple."""
    base = t.base
    e_src = t.euler
    e_dual = dual_euler(t)
    dual_total = total_space_cohomology(CircleBundle(base, e_dual), t.total.top)
    hdual, ambiguity = dual_flux(t, dual_total)

    if not t.total.pushforward(2)(t.b).is_zero():
        raise BNotLiftableError(
            "b is not a pullback from the base; the coset transport is not "
            "defined for it")
    b_dual = dual_total.pullback(2)(t.total.degrees[2].lift(t.b))

    gen_src = t.total.pullback(2)(e_dual)      # p* p!(H)
    gen_dst = dual_total.pullback(2)(e_src)    # q* q!(H#)
    source_coset = coset_partition(gen_src, t.b)
    target_coset = coset_partition(gen_dst, b_dual)
    iso, natural = _coset_isomorphism(t, dual_total, source_coset, target_coset)

    flags = []
    amb = tuple((k, "source") for k in t.total.ambiguous_degrees()) + \
        tuple((k, "dual") for k in dual_total.ambiguous_degrees())
    if amb:
        flags.append(FLAG_AMBIGUOUS)
    if base.simply_connected is not True:
        flags.append(FLAG_CONJECTURE)

    dual_triple = Triple(dual_total, b_dual, hdual)
    return DualityReport(
        source=t,
        dual=dual_triple,
        flux_ambiguity=ambiguity,
        source_coset=source_coset,
        target_coset=target_coset,
        coset_iso=iso,
        coset_iso_natural=natural,
        flags=tuple(flags),
        ambiguous_degrees=amb,
    )


def verify_coset_isomorphism(source: Triple, report: DualityReport) -> bool:
    """Recompute both coset quotients and check the stored isomorphism.

    True iff the quotients agree in canonical form and the stored witness
    is a genuine isomorphism between them.  A witness reported natural
    must also satisfy phi P = Q for the recomputed P, Q (pullback, then
    coset projection), so that it carries the class of b to that of b#.
    """
    dual = report.dual.total
    gen_src = source.total.pullback(2)(dual_euler(source))
    q_src, proj_src = quotient_by(source.total.group(2), [gen_src])
    gen_dst = dual.pullback(2)(source.euler)
    q_dst, proj_dst = quotient_by(dual.group(2), [gen_dst])
    iso = report.coset_iso
    return (q_src == q_dst and iso is not None and iso.domain == q_src
            and iso.codomain == q_dst and is_isomorphism(iso)
            and (not report.coset_iso_natural
                 or iso.compose(proj_src.compose(source.total.pullback(2)))
                 == proj_dst.compose(dual.pullback(2))))
