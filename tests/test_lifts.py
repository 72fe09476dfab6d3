"""Lifts read off the stored Gysin degree, swept over the catalog.

A degree is read through p*, p! and two preimages: GysinDegree.lift
(the stored cokernel section, a preimage under p*) and
GysinDegree.choice (one explicit preimage under p! of a class of
ker(cup e)).  Every class must be p*(lift(x)) + choice(p!(x)), and the
choice must exist exactly on ker(cup e).  dualize lifts b, and
dual_flux the pulled-back part of H, through lift; b lifts exactly when
p!(b) = 0, which must be the same question the per-element solve asks,
and the ambiguity of H# is the stored inclusion of im(q*) in H^3(E#),
which must be im(q*) as a subgroup.  The bench corpus holds no b that
fails to lift, so this sweeps every catalog base, several Euler
classes, each flux generator and a small grid of coordinates.
"""

import itertools

from tdual.abelian import image
from tdual.gysin import CircleBundle, total_space_cohomology
from tdual.spaces import cohomology_of, parse_space
from tdual.tduality import BNotLiftableError, Triple, dualize

from . import oracles
from .test_naming import CATALOG


def _grid(n):
    """Every vector in {-1, 0, 1}^n for n <= 3; otherwise 0, each
    generator times 1, -1 and 2, and each sum of two generators."""
    if n <= 3:
        return list(itertools.product((-1, 0, 1), repeat=n))
    units = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    return ([(0,) * n] + [tuple(c * x for x in u) for u in units for c in (1, -1, 2)]
            + [tuple(map(sum, zip(u, w))) for u, w in itertools.combinations(units, 2)])


def _triples():
    for name in CATALOG:
        base = cohomology_of(parse_space(name), 4)
        w2 = base.group(2)
        for e in [w2.zero_element()] + [g.scale(s) for g in w2.generators()
                                        for s in (1, -1)]:
            tsc = total_space_cohomology(CircleBundle(base, e), 3)
            for flux in [tsc.group(3).zero_element()] + tsc.group(3).generators():
                yield name, tsc, flux


def _same_subgroup(ia, ib):
    """Two inclusions name one subgroup of one group."""
    rels = ia.codomain.relations()
    return (ia.domain == ib.domain and ia.codomain == ib.codomain
            and oracles.lattices_equal(ia.matrix.hstack(rels),
                                       ib.matrix.hstack(rels)))


def test_every_class_is_its_lift_plus_the_choice_of_its_pushforward():
    classes = refused = 0
    for name in CATALOG:
        base = cohomology_of(parse_space(name), 4)
        w2 = base.group(2)
        for e in [w2.zero_element()] + [g.scale(s) for g in w2.generators()
                                        for s in (1, -1, 2, 3)]:
            tsc = total_space_cohomology(CircleBundle(base, e), 3)
            for k, d in enumerate(tsc.degrees):
                push, pull = tsc.pushforward(k), tsc.pullback(k)
                for coords in _grid(d.group.ngens):
                    x = d.group.element(coords)
                    assert x == pull(d.lift(x)) + d.choice(push(x)), \
                        (name, e.coords, k, coords)
                    classes += 1
                below = push.codomain
                for coords in _grid(below.ngens):
                    y = below.element(coords)
                    z = d.choice(y)
                    if tsc.cups[k + 1](y).is_zero():
                        assert z is not None and push(z) == y, \
                            (name, e.coords, k, coords)
                    else:
                        assert z is None, (name, e.coords, k, coords)
                        refused += 1
    assert classes and refused


def test_b_lifts_exactly_when_the_per_element_solve_finds_a_preimage():
    refused = lifted = 0
    for name, tsc, flux in _triples():
        h2 = tsc.group(2)
        for coords in _grid(h2.ngens):
            b = h2.element(coords)
            old = oracles.pullback_preimage(tsc, 2, b)
            where = (name, tsc.euler.coords, flux.coords, coords)
            try:
                rep = dualize(Triple(tsc, b, flux))
            except BNotLiftableError:
                assert old is None, where
                refused += 1
                continue
            assert old is not None, where
            beta = tsc.degrees[2].lift(b)
            assert tsc.pullback(2)(beta) == b, where
            # the coset of b# does not depend on which lift of b is taken
            q_old = rep.dual.total.pullback(2)(old)
            assert rep.target_coset.projection(q_old) == rep.target_coset.coset, where
            lifted += 1
    assert refused and lifted


def test_flux_ambiguity_is_the_image_of_q_star():
    for name, tsc, flux in _triples():
        rep = dualize(Triple(tsc, tsc.group(2).zero_element(), flux))
        _, want = image(rep.dual.total.pullback(3))
        assert _same_subgroup(rep.flux_ambiguity, want), \
            (name, tsc.euler.coords, flux.coords)
