"""Total-space cohomology of a principal circle bundle from base data.

For a bundle with Euler class e over W, each degree k of the total space
E sits in a short exact sequence extracted from the long exact sequence
of the bundle:

    0 -> coker(cup e: H^(k-2)W -> H^kW) -> H^kE
      -> ker(cup e: H^(k-1)W -> H^(k+1)W) -> 0

with the pullback p* landing on the left part and the pushforward p!
(integration over the fiber) projecting onto the right part.  The
sequence is split whenever the kernel term is free, and forced whenever
either side vanishes; the remaining torsion-kernel cases are reported in
split form with an ambiguity flag, since the sequence alone does not
determine the extension.  A zero Euler class gives the product bundle,
where the split form is exact by the Kunneth theorem, so it is never
flagged.

All maps are fixed as explicit matrices at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .abelian import (
    FgGroup,
    GroupElement,
    Hom,
    ZERO_GROUP,
    cokernel,
    is_exact_at,
    kernel,
    section_matrix,
)
from .spaces import GradedCohomology, inherited_names, sum_named


class GysinError(ValueError):
    pass


@dataclass(frozen=True)
class CircleBundle:
    base: GradedCohomology
    euler: GroupElement

    def __post_init__(self):
        if self.euler.group != self.base.group(2):
            raise GysinError("Euler class must lie in H^2 of the base")


@dataclass(frozen=True)
class GysinDegree:
    """Degree-k slice of the total-space cohomology with its split data."""

    group: FgGroup
    names: tuple
    coker: FgGroup            # H^k(W) / e-multiples, the p* image
    coker_proj: Hom           # H^k(W) -> coker
    ker: FgGroup              # e-killed part of H^(k-1)(W), the p! image
    ker_incl: Hom             # ker -> H^(k-1)(W)
    into_coker: Hom           # coker -> group
    into_ker: Hom             # ker -> group
    onto_coker: Hom           # group -> coker
    onto_ker: Hom             # group -> ker
    pullback: Hom             # H^k(W) -> group
    pushforward: Hom          # group -> H^(k-1)(W)
    ambiguous: bool


class TotalSpaceCohomology:
    """Cohomology of the total space with the Gysin maps, degrees 0..top."""

    def __init__(self, bundle: CircleBundle, top: int):
        base = bundle.base
        if top < 0 or top + 1 > base.max_degree:
            raise GysinError(
                f"need base cohomology through degree {top + 1}, "
                f"have {base.max_degree}")
        self.bundle = bundle
        self.base = base
        self.euler = bundle.euler
        self.top = top
        self.degrees: list[GysinDegree] = []
        trivial = self.euler.is_zero()
        for k in range(top + 1):
            self.degrees.append(self._build_degree(k, trivial))

    def _build_degree(self, k: int, trivial: bool) -> GysinDegree:
        base, e = self.base, self.euler
        cup_in = base.cup_by(e, k - 2) if k >= 2 else Hom.zero(
            ZERO_GROUP, base.group(k))
        cup_out = base.cup_by(e, k - 1) if k >= 1 else Hom.zero(
            ZERO_GROUP, base.group(k + 1))
        ck, coker_proj = cokernel(cup_in)
        kk, ker_incl = kernel(cup_out)

        cnames = inherited_names(
            section_matrix(coker_proj).columns(), base.group(k), base.names[k],
            lambda s: f"p*({s})", lambda j: f"p*[{k}.{j}]")
        knames = inherited_names(
            ker_incl.matrix.columns(), base.group(k - 1),
            base.names[k - 1] if k >= 1 else (),
            lambda s: f"{s}.z", lambda j: f"z[{k}.{j}]")

        group, names, incls, projs = sum_named([(ck, cnames), (kk, knames)])
        into_coker, into_ker = incls
        onto_coker, onto_ker = projs
        pullback = into_coker.compose(coker_proj)
        pushforward = ker_incl.compose(onto_ker)
        ambiguous = (not trivial) and (not kk.is_free()) and (not ck.is_zero())
        return GysinDegree(
            group=group, names=names,
            coker=ck, coker_proj=coker_proj,
            ker=kk, ker_incl=ker_incl,
            into_coker=into_coker, into_ker=into_ker,
            onto_coker=onto_coker, onto_ker=onto_ker,
            pullback=pullback, pushforward=pushforward,
            ambiguous=ambiguous,
        )

    # -- accessors ---------------------------------------------------------

    def group(self, k: int) -> FgGroup:
        if k < 0 or k > self.top:
            return ZERO_GROUP
        return self.degrees[k].group

    def names(self, k: int) -> tuple:
        return self.degrees[k].names if 0 <= k <= self.top else ()

    def element(self, k: int, coords) -> GroupElement:
        return self.group(k).element(coords)

    def named_element(self, k: int, name: str) -> GroupElement:
        return self.group(k).generator(self.names(k).index(name))

    def generator_index(self, k: int, name: str) -> int:
        return self.names(k).index(name)

    def pullback(self, k: int) -> Hom:
        if k < 0 or k > self.top:
            return Hom.zero(self.base.group(k), self.group(k))
        return self.degrees[k].pullback

    def pushforward(self, k: int) -> Hom:
        if k < 0 or k > self.top:
            return Hom.zero(self.group(k), self.base.group(k - 1))
        return self.degrees[k].pushforward

    def ambiguous_degrees(self) -> list[int]:
        return [k for k in range(self.top + 1) if self.degrees[k].ambiguous]


def total_space_cohomology(bundle: CircleBundle,
                           max_degree: Optional[int] = None) -> TotalSpaceCohomology:
    """Solve the bundle's cohomology in degrees 0..max_degree.

    The default top degree is base.max_degree - 1, the highest degree the
    sequence determines from the available base data.
    """
    top = bundle.base.max_degree - 1 if max_degree is None else max_degree
    return TotalSpaceCohomology(bundle, top)


def exactness_audit(tsc: TotalSpaceCohomology) -> bool:
    """Check the Gysin sequence is exact with the stored maps, all degrees.

    Verifies, for every k up to the top degree, exactness at H^k(W)
    (image of cup-e equals kernel of p*), at H^k(E) (image of p* equals
    kernel of p!), and at H^(k-1)(W) (image of p! equals kernel of cup-e).
    Raises GysinError naming the first failure.
    """
    base, e = tsc.base, tsc.euler
    for k in range(tsc.top + 1):
        cup_in = base.cup_by(e, k - 2) if k >= 2 else Hom.zero(
            ZERO_GROUP, base.group(k))
        cup_out = base.cup_by(e, k - 1) if k >= 1 else Hom.zero(
            ZERO_GROUP, base.group(k + 1))
        if not is_exact_at(cup_in, tsc.pullback(k)):
            raise GysinError(f"not exact at H^{k}(base)")
        if not is_exact_at(tsc.pullback(k), tsc.pushforward(k)):
            raise GysinError(f"not exact at H^{k}(total space)")
        if not is_exact_at(tsc.pushforward(k), cup_out):
            raise GysinError(f"not exact at H^{k - 1}(base) after p!")
    return True
