"""Total-space cohomology of a principal circle bundle from base data.

For a bundle with Euler class e over W, each degree k of the total space
E sits in a short exact sequence extracted from the long exact sequence
of the bundle:

    0 -> coker(cup e: H^(k-2)W -> H^kW) -> H^kE
      -> ker(cup e: H^(k-1)W -> H^(k+1)W) -> 0

with the pullback p* landing on the left part and the pushforward p!
(integration over the fiber) projecting onto the right part.
`split_degree` assembles such a degree from its two maps; the Wang
sequence of a mapping torus (classifying.py) has the same shape and
uses it too.  The sequence is split whenever the kernel term is free,
and forced whenever either side vanishes; the remaining torsion-kernel
cases are reported in split form with an ambiguity flag, since the
sequence alone does not determine the extension.  A zero Euler class
gives the product bundle, where the split form is exact by the Kunneth
theorem, so it is never flagged.

The split form stays inside this module.  Readers of a degree use p*,
p!, `GysinDegree.lift` (the stored section's preimage under p*, which
lifts b and H in tduality.py) and `GysinDegree.choice` (one explicit
preimage under p!): x = p*(lift(x)) + choice(p!(x)) for every class x.

All maps are fixed as explicit matrices at construction time, and a
solved total space is immutable, so `total_space_cohomology`, the class
behind an abelian.memo, shares one per bundle and top degree (bundles
compare by value), like the group operations it calls.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Optional

from .abelian import (
    FgGroup,
    GroupElement,
    Hom,
    _Value,
    cokernel,
    is_exact_at,
    kernel,
    memo,
    section_matrix,
    solve_hom,
)
from .spaces import (GradedCohomology, inherited_names, named_generator,
                     sum_named)


# The names a total-space generator inherits from a base generator g:
# the pullback p*(g), and the class g.z that integrates over the fiber to g.
PULLBACK = "p*({})"
FIBER = "{}.z"


class GysinError(ValueError):
    pass


class CircleBundle(_Value, namedtuple("CircleBundle", "base euler")):
    __slots__ = ()

    def __new__(cls, base: GradedCohomology, euler: GroupElement) -> "CircleBundle":
        if euler.group != base.group(2):
            raise GysinError("Euler class must lie in H^2 of the base")
        return tuple.__new__(cls, (base, euler))


class GysinDegree(_Value, namedtuple("GysinDegree", [
        "group", "names",
        "coker_sect",       # a section of f.codomain -> coker(f)
        "ker_incl",         # ker(g) -> g.domain, e.g. p! image -> H^(k-1)(W)
        "pullback_image",   # coker(f) -> group, im(p*) in H^k(E)
        "into_ker",         # ker(g) -> group
        "onto_coker",       # group -> coker(f)
        "pullback",         # f.codomain -> group, p* for a bundle
        "pushforward",      # group -> g.domain, p! for a bundle
        "ambiguous"])):
    """One degree of 0 -> coker(f) -> group -> ker(g) -> 0 in split form,
    read through its maps to and from the two rows (see split_degree)."""

    __slots__ = ()

    def lift(self, x: GroupElement) -> GroupElement:
        """The canonical beta whose pullback is x - choice(pushforward(x)),
        off the stored cokernel section; pullback(beta) = x iff
        pushforward(x) is zero."""
        coords = self.coker_sect.vec(self.onto_coker(x).coords)
        return self.pullback.domain._element(coords)

    def choice(self, y: GroupElement) -> Optional[GroupElement]:
        """The chosen preimage of y under pushforward, or None when y
        lies outside its image ker(g)."""
        x = solve_hom(self.ker_incl, y)
        return None if x is None else self.into_ker(x)


@memo
def split_degree(f: Hom, g: Hom, coker_names, ker_names,
                 coker_synthetic, ker_synthetic, split: bool) -> GysinDegree:
    """One degree of a two-row sequence, coker(f) + ker(g) in split form.

    coker_names (a tuple) are the names f.codomain's generators pass on to
    the cokernel, ker_names those g.domain's pass on to the kernel; a
    generator that inherits none is named by its side's synthetic format
    string, filled with j (see inherited_names).  Torsion in ker(g) under a
    nonzero coker(f) leaves the extension undetermined: the degree is
    ambiguous unless `split`.  A memo, so names and formats are values.
    """
    ck, coker_proj = cokernel(f)
    kk, ker_incl = kernel(g)
    coker_sect = section_matrix(coker_proj)
    cnames = inherited_names(coker_sect.columns(), f.codomain.moduli,
                             coker_names, coker_synthetic.format)
    knames = inherited_names(ker_incl.matrix.columns(), g.domain.moduli,
                             ker_names, ker_synthetic.format)
    group, names, (into_coker, into_ker), (onto_coker, onto_ker) = sum_named(
        [(ck, cnames), (kk, knames)])
    return GysinDegree(
        group=group, names=names, coker_sect=coker_sect, ker_incl=ker_incl,
        pullback_image=into_coker, into_ker=into_ker, onto_coker=onto_coker,
        pullback=into_coker.compose(coker_proj),
        pushforward=ker_incl.compose(onto_ker),
        ambiguous=not (split or kk.is_free() or ck.is_zero()),
    )


class TotalSpaceCohomology:
    """Cohomology of the total space with the Gysin maps, degrees 0..top;
    positional arguments, so a space has one total_space_cohomology key,
    and read-only, since that memo hands the one space to every caller."""

    def __init__(self, bundle: CircleBundle, top: int, /):
        base = bundle.base
        if type(top) is not int:
            raise GysinError(f"top degree must be an integer, got {top!r}")
        if top < 0:
            raise GysinError(f"top degree must be nonnegative, got {top}")
        if top + 1 > base.max_degree:
            raise GysinError(
                f"need base cohomology through degree {top + 1}, "
                f"have {base.max_degree}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "euler", bundle.euler)
        object.__setattr__(self, "top", top)
        # cups[k] = (cup e: H^(k-2)(W) -> H^k(W)), built once for the
        # degrees and the exactness audit; zero maps below degree 2
        object.__setattr__(self, "cups", tuple(
            base.cup_by(self.euler, k - 2) for k in range(top + 2)))
        object.__setattr__(self, "degrees", tuple(
            self._build_degree(k) for k in range(top + 1)))

    def __setattr__(self, name, value=None):
        raise AttributeError(
            f"a solved total space is read-only: cannot set {name!r}")

    __delattr__ = __setattr__

    def _build_degree(self, k: int) -> GysinDegree:
        base = self.base
        return split_degree(
            self.cups[k], self.cups[k + 1],
            tuple(PULLBACK.format(s) for s in base.names[k]),
            tuple(FIBER.format(s) for s in base.names[k - 1]) if k else (),
            f"p*[{k}.{{}}]", f"z[{k}.{{}}]", split=self.euler.is_zero())

    # -- accessors ---------------------------------------------------------

    def _degree(self, k: int) -> GysinDegree:
        if not 0 <= k <= self.top:
            raise GysinError(f"degree {k} is outside the solved 0..{self.top}")
        return self.degrees[k]

    def group(self, k: int) -> FgGroup:
        return self._degree(k).group

    def names(self, k: int) -> tuple:
        return self._degree(k).names

    def named_element(self, k: int, name: str) -> GroupElement:
        return named_generator(self.group(k), self.names(k), k, name)

    def pullback(self, k: int) -> Hom:
        return self._degree(k).pullback

    def pushforward(self, k: int) -> Hom:
        return self._degree(k).pushforward

    def ambiguous_degrees(self) -> list[int]:
        return [k for k in range(self.top + 1) if self.degrees[k].ambiguous]


total_space_cohomology = memo(TotalSpaceCohomology)


def exactness_audit(tsc: TotalSpaceCohomology) -> bool:
    """Check the Gysin sequence is exact with the stored maps, all degrees.

    Verifies, for every k up to the top degree, exactness at H^k(W)
    (image of cup-e equals kernel of p*), at H^k(E) (image of p* equals
    kernel of p!), and at H^(k-1)(W) (image of p! equals kernel of cup-e).
    Raises GysinError naming the first failure.
    """
    for k in range(tsc.top + 1):
        cup_in, cup_out = tsc.cups[k], tsc.cups[k + 1]
        if not is_exact_at(cup_in, tsc.pullback(k)):
            raise GysinError(f"not exact at H^{k}(base)")
        if not is_exact_at(tsc.pullback(k), tsc.pushforward(k)):
            raise GysinError(f"not exact at H^{k}(total space)")
        if not is_exact_at(tsc.pushforward(k), cup_out):
            raise GysinError(f"not exact at H^{k - 1}(base) after p!")
    return True
