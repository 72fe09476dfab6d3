"""The T-duality transform on triples and the B-class coset machinery.

A triple is a principal circle bundle p: E -> W together with classes
b in H^2(E) and H in H^3(E).  The transform:

  * dual Euler class   e# = p!(H),
  * dual flux          H# with q!(H#) = e, with the part of H pulled back
    from the base transported through the base (H# is only determined up
    to the image of q*, which is always reported alongside),
  * B-class            handled at coset level: b must be a pullback
    p*(beta); its coset modulo <p* p!(H)> is carried to the coset of
    q*(beta) modulo <q* q!(H#)>.

The coset quotients H^2(E)/<p* p!(H)> and H^2(E#)/<q* q!(H#)> are
isomorphic; when the base has vanishing H^1 the isomorphism is realized
naturally through H^2(W)/<e, e#>, otherwise the two canonical forms are
matched directly and the report carries a CONJECTURE flag (the bijection
of cosets is only proved over simply connected bases).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .abelian import (
    FgGroup,
    GroupElement,
    Hom,
    hom_inverse,
    image,
    is_isomorphism,
    quotient_by,
    section_matrix,
    solve_hom,
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
    def bundle(self) -> CircleBundle:
        return self.total.bundle

    @property
    def base(self):
        return self.total.base

    @property
    def euler(self) -> GroupElement:
        return self.total.euler


def make_triple(base, euler_coords, b_coords, flux_coords,
                max_degree: Optional[int] = None) -> Triple:
    e = base.group(2).element(euler_coords)
    total = total_space_cohomology(CircleBundle(base, e), max_degree)
    return Triple(total,
                  total.group(2).element(b_coords),
                  total.group(3).element(flux_coords))


@dataclass(frozen=True)
class CosetData:
    """A coset b + <gen> inside H^2 of a total space."""

    subgroup_generator: GroupElement
    representative: GroupElement
    quotient: FgGroup
    projection: Hom
    coset: GroupElement                 # class of the representative
    representatives: Optional[tuple]    # one lift per coset when small


@dataclass(frozen=True)
class DualityReport:
    source: Triple
    dual: Triple
    flux_ambiguity: tuple               # (subgroup, inclusion into H^3(E#))
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
    (H#, (ambiguity_subgroup, inclusion)) where the subgroup is im(q*),
    the full indeterminacy of H#.
    """
    base = t.base
    e_src = t.euler
    e_dual = dual_total.euler
    # e cup e# = 0 since e# = p!(H) lies in the kernel of cup-e; this is
    # what makes e a legal value of q! on the dual side.
    if not base.cup_by(e_dual, 2)(e_src).is_zero():
        raise ExactnessBugError("source Euler class is not killed by cup e#")
    d3 = t.total.degrees[3]
    beta = solve_hom(d3.coker_proj, d3.onto_coker(t.flux))
    dd3 = dual_total.degrees[3]
    x = solve_hom(dd3.ker_incl, e_src)
    if x is None:
        raise ExactnessBugError("source Euler class not in the image of q!")
    hdual = dual_total.pullback(3)(beta) + dd3.into_ker(x)
    ambiguity = image(dual_total.pullback(3))
    return hdual, ambiguity


def coset_partition(tsc: TotalSpaceCohomology, gen: GroupElement,
                    representative: Optional[GroupElement] = None) -> CosetData:
    """The partition of H^2(E) into cosets of <gen>.

    When the quotient is small enough it is enumerated: the result lists
    one canonical lift per coset.  Otherwise only the quotient form and
    the projection are returned.
    """
    h2 = tsc.group(2)
    if gen.group != h2:
        raise ValueError("subgroup generator must lie in H^2 of the total space")
    if representative is None:
        representative = h2.zero_element()
    quotient, proj = quotient_by(h2, [gen])
    reps = None
    if quotient.is_finite() and quotient.order() <= ENUMERATION_CAP:
        sect = section_matrix(proj)
        reps = tuple(h2.element(sect.vec(q.coords)) for q in quotient.elements())
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

    Natural route (valid whenever both p* and q* are onto in degree two,
    in particular over a base with H^1 = 0): both quotients are induced
    from H^2(W)/<e, e#>.  Fallback: the canonical forms coincide in every
    example the transform covers, and the identity on canonical
    generators witnesses the abstract isomorphism.
    """
    base = t.base
    w2 = base.group(2)
    qw, projw = quotient_by(w2, [t.euler, dual_total.euler])
    sect = section_matrix(projw)
    # the maps induced on qw: each composite kills <e, e#>
    p_bar = Hom(qw, source_coset.quotient, source_coset.projection.matrix
                @ t.total.pullback(2).matrix @ sect)
    q_bar = Hom(qw, target_coset.quotient, target_coset.projection.matrix
                @ dual_total.pullback(2).matrix @ sect)
    if is_isomorphism(p_bar) and is_isomorphism(q_bar):
        return q_bar.compose(hom_inverse(p_bar)), True
    if source_coset.quotient == target_coset.quotient:
        iso = Hom.identity(source_coset.quotient)
        return Hom(source_coset.quotient, target_coset.quotient, iso.matrix), False
    return None, False


def dualize(t: Triple) -> DualityReport:
    """The full T-duality transform of a triple."""
    base = t.base
    e_src = t.euler
    e_dual = dual_euler(t)
    dual_total = total_space_cohomology(CircleBundle(base, e_dual), t.total.top)
    hdual, ambiguity = dual_flux(t, dual_total)

    beta_b = solve_hom(t.total.pullback(2), t.b)
    if beta_b is None:
        raise BNotLiftableError(
            "b is not a pullback from the base; the coset transport is not "
            "defined for it")
    b_dual = dual_total.pullback(2)(beta_b)

    gen_src = t.total.pullback(2)(e_dual)      # p* p!(H)
    gen_dst = dual_total.pullback(2)(e_src)    # q* q!(H#)
    source_coset = coset_partition(t.total, gen_src, t.b)
    target_coset = coset_partition(dual_total, gen_dst, b_dual)
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
    is a genuine isomorphism between them.
    """
    e_dual = dual_euler(source)
    gen_src = source.total.pullback(2)(e_dual)
    q_src, _ = quotient_by(source.total.group(2), [gen_src])
    gen_dst = report.dual.total.pullback(2)(source.euler)
    q_dst, _ = quotient_by(report.dual.total.group(2), [gen_dst])
    if q_src != q_dst:
        return False
    iso = report.coset_iso
    if iso is None:
        return False
    if iso.domain != q_src or iso.codomain != q_dst:
        return False
    return is_isomorphism(iso)
