import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdual.abelian import FgGroup, Hom, ZERO_GROUP, is_isomorphism, solve_hom
from tdual.classifying import universal_bundle_tables
from tdual.cli import run_job
from tdual.gysin import CircleBundle, exactness_audit, total_space_cohomology
from tdual.spaces import cohomology_of, parse_space
from tdual.tduality import (
    BNotLiftableError,
    FLAG_AMBIGUOUS,
    FLAG_CONJECTURE,
    Triple,
    coset_partition,
    dual_euler,
    dual_flux,
    dualize,
    verify_coset_isomorphism,
)

from .oracles import (
    coset_isomorphism_through_base,
    kunneth_with_circle,
    make_triple,
)
from .test_naming import CATALOG

Z = FgGroup(1)
Z2 = FgGroup(0, (2,))


def named(tsc, k, spec):
    """Element of H^k of a total space from {generator name: coefficient}."""
    group = tsc.group(k)
    coords = [0] * group.ngens
    for name, c in spec.items():
        coords[tsc.names(k).index(name)] += c
    return group.element(coords)


def trivial_triple(space, flux_spec, b_spec=None, top=3):
    base = cohomology_of(parse_space(space), top + 1)
    e = base.group(2).zero_element()
    total = total_space_cohomology(CircleBundle(base, e), top)
    flux = named(total, 3, flux_spec)
    b = named(total, 2, b_spec or {})
    return Triple(total, b, flux)


def dual_groups(report):
    d = report.dual.total
    return [d.group(k) for k in range(d.top + 1)]


# ---------------------------------------------------------------------------
# the seven worked examples (trivial source bundle, flux as listed)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 7])
def test_example_torus(p):
    t = trivial_triple("T2", {"vol.z": p})
    assert dual_euler(t) == t.base.named_element(2, "vol").scale(p)
    rep = dualize(t)
    assert dual_groups(rep) == [Z, FgGroup(2), FgGroup(2, (p,)), Z]
    # Z^3 / pZ = Z^2 + Z/p on the source side
    assert rep.source_coset.quotient == FgGroup(2, (p,))
    assert rep.target_coset.quotient == FgGroup(2, (p,))
    assert verify_coset_isomorphism(t, rep)
    assert FLAG_CONJECTURE in rep.flags
    assert rep.dual.flux.is_zero()  # the dual carries no flux


@pytest.mark.parametrize("g,j", [(2, 2), (2, 3), (3, 2), (3, 5)])
def test_example_surfaces(g, j):
    t = trivial_triple(f"Sigma{g}", {"vol.z": j})
    rep = dualize(t)
    assert dual_groups(rep) == [Z, FgGroup(2 * g), FgGroup(2 * g, (j,)), Z]
    assert rep.source_coset.quotient == FgGroup(2 * g, (j,))
    assert verify_coset_isomorphism(t, rep)


def test_example_rp2():
    t = trivial_triple("RP2", {"a.z": 1})
    rep = dualize(t)
    assert dual_groups(rep) == [Z, Z, ZERO_GROUP, Z2]
    # Z/2 divided by its generator collapses
    assert rep.source_coset.quotient == ZERO_GROUP
    assert rep.target_coset.quotient == ZERO_GROUP
    assert verify_coset_isomorphism(t, rep)


@pytest.mark.parametrize("k", [0, 1, 3])
def test_example_rp3(k):
    t = trivial_triple("RP3", {"a.z": 1, "p*(vol)": k}, top=4)
    rep = dualize(t)
    d = rep.dual.total
    assert [d.group(i) for i in (0, 1, 2, 4)] == [Z, Z, ZERO_GROUP, Z]
    # degree 3 of the dual is extension-ambiguous: split guess Z + Z/2
    assert d.group(3) == FgGroup(1, (2,))
    assert (3, "dual") in rep.ambiguous_degrees
    assert FLAG_AMBIGUOUS in rep.flags
    # the dual has no B-class room and carries k units of flux from the base
    assert rep.source_coset.quotient == ZERO_GROUP
    assert rep.target_coset.quotient == ZERO_GROUP
    assert verify_coset_isomorphism(t, rep)
    kvol = d.pullback(3)(d.base.named_element(3, "vol").scale(k))
    assert rep.dual.flux in (kvol, -kvol)
    # q!(H#) = e = 0 here
    assert d.pushforward(3)(rep.dual.flux).is_zero()


def test_example_rp4():
    t = trivial_triple("RP4", {"a.z": 1}, top=5)
    rep = dualize(t)
    assert dual_groups(rep) == [Z, Z, ZERO_GROUP, ZERO_GROUP, ZERO_GROUP, Z2]
    assert rep.source_coset.quotient == ZERO_GROUP
    assert rep.target_coset.quotient == ZERO_GROUP
    assert verify_coset_isomorphism(t, rep)


def test_example_rp5():
    t = trivial_triple("RP5", {"a.z": 1}, top=6)
    rep = dualize(t)
    assert dual_groups(rep) == [Z, Z, ZERO_GROUP, ZERO_GROUP, ZERO_GROUP,
                                FgGroup(1, (2,)), Z]
    assert (5, "dual") in rep.ambiguous_degrees
    assert rep.source_coset.quotient == ZERO_GROUP
    assert rep.target_coset.quotient == ZERO_GROUP
    assert verify_coset_isomorphism(t, rep)


@pytest.mark.parametrize("j", [1, 2, 3])
def test_example_cp2(j):
    t = trivial_triple("CP2", {"a.z": j}, top=5)
    rep = dualize(t)
    tors = ZERO_GROUP if j == 1 else FgGroup(0, (j,))
    assert dual_groups(rep) == [Z, ZERO_GROUP, tors, ZERO_GROUP, tors, Z]
    assert rep.source_coset.quotient == tors
    assert rep.target_coset.quotient == tors
    assert verify_coset_isomorphism(t, rep)
    assert FLAG_CONJECTURE not in rep.flags  # simply connected base
    assert rep.coset_iso_natural


# ---------------------------------------------------------------------------
# transform laws
# ---------------------------------------------------------------------------

def corpus():
    yield trivial_triple("T2", {"vol.z": 3})
    yield trivial_triple("S2", {"vol.z": 1})
    yield trivial_triple("S2", {"vol.z": 4}, b_spec={"p*(vol)": 1})
    yield trivial_triple("CP2", {"a.z": 2}, top=5)
    yield trivial_triple("RP3", {"a.z": 1, "p*(vol)": 2}, top=4)
    yield make_triple(cohomology_of(parse_space("T2"), 4), [2], [0, 0, 0],
                      [0], 3)


def test_euler_flux_exchange():
    # q!(H#) = [p] and p!(H) = [q] as element equations in H^2(W)
    for t in corpus():
        rep = dualize(t)
        d = rep.dual.total
        assert d.pushforward(3)(rep.dual.flux) == t.euler
        assert t.total.pushforward(3)(t.flux) == d.euler


def catalog_corpus():
    """b = 0 over every catalog base: Euler class 0 and g, -2g, 3g for each
    H^2 generator g, and the first 60 fluxes with coordinates in [-2, 2]."""
    for space in CATALOG:
        base = cohomology_of(parse_space(space), 4)
        w2 = base.group(2)
        for e in [w2.zero_element()] + [g.scale(s) for g in w2.generators()
                                        for s in (1, -2, 3)]:
            total = total_space_cohomology(CircleBundle(base, e), 3)
            h3 = total.group(3)
            for coords in itertools.islice(
                    itertools.product(range(-2, 3), repeat=h3.ngens), 60):
                yield Triple(total, total.group(2).zero_element(),
                             h3.element(coords))


def test_double_dual_restores_bundle_and_flux():
    for t in itertools.chain(corpus(), catalog_corpus()):
        rep = dualize(t)
        rep2 = dualize(rep.dual)
        assert dual_euler(rep.dual) == t.euler
        dd = rep2.dual.total
        for k in range(min(dd.top, t.total.top) + 1):
            assert dd.group(k) == t.total.group(k)
        assert rep2.dual.flux == t.flux


def test_double_dual_restores_the_b_coset():
    # b = p*(beta): the transform only defines the coset of b, and two
    # transforms land back in the starting coset (representatives may move
    # within it, since the dual side reduces mod <q* q!(H#)>)
    for space in ("S2", "T2"):
        base = cohomology_of(parse_space(space), 4)
        for c in range(-2, 3):
            beta = base.group(2).element([c])
            t0 = trivial_triple(space, {"vol.z": 2})
            b = t0.total.pullback(2)(beta)
            t = Triple(t0.total, b, t0.flux)
            rep = dualize(t)
            rep2 = dualize(rep.dual)
            # the double-dual quotient is built from identical data, so the
            # cosets are directly comparable
            assert rep2.target_coset.quotient == rep.source_coset.quotient
            assert rep2.target_coset.subgroup_generator == \
                rep.source_coset.subgroup_generator
            assert rep2.target_coset.coset == rep.source_coset.coset
            assert rep.source_coset.projection(rep2.dual.b) == \
                rep.source_coset.projection(b)


def test_coset_cardinality_transport():
    for t in corpus():
        rep = dualize(t)
        qs, qt = rep.source_coset.quotient, rep.target_coset.quotient
        if qs.is_finite() and qt.is_finite():
            assert qs.order() == qt.order()


def test_nonzero_b_transports_to_nonzero_coset():
    # S^2 with p units of flux: cosets are Z/p and the transform matches them
    p = 5
    t0 = trivial_triple("S2", {"vol.z": p})
    for c in range(p):
        b = t0.total.pullback(2)(t0.base.group(2).element([c]))
        rep = dualize(Triple(t0.total, b, t0.flux))
        assert rep.source_coset.quotient == FgGroup(0, (p,))
        assert rep.coset_iso is not None
        assert rep.coset_iso(rep.source_coset.coset) == rep.target_coset.coset


def test_non_involutive_round_trip_on_s2():
    # one unit of flux: the dual is the 3-sphere, H^2(S^3) = 0, and every
    # B-class lands in the zero coset after two transforms
    for c in (1, 2, 5):
        t0 = trivial_triple("S2", {"vol.z": 1})
        b = t0.total.pullback(2)(t0.base.group(2).element([c]))
        assert not b.is_zero()
        t = Triple(t0.total, b, t0.flux)
        rep = dualize(t)
        assert rep.dual.total.group(2) == ZERO_GROUP
        assert rep.dual.b.is_zero()
        assert rep.dual.flux.is_zero()  # the 3-sphere carries no flux
        rep2 = dualize(rep.dual)
        assert rep2.dual.b.is_zero()
        assert rep2.target_coset.coset.is_zero()


def test_b_not_liftable_is_a_hard_error():
    t0 = trivial_triple("T2", {"vol.z": 2})
    b = named(t0.total, 2, {"a.z": 1})
    with pytest.raises(BNotLiftableError):
        dualize(Triple(t0.total, b, t0.flux))


def test_dual_flux_ambiguity_subgroup():
    # over RP3 x S1 the dual flux is ambiguous exactly by im(q*) = Z
    t = trivial_triple("RP3", {"a.z": 1, "p*(vol)": 2}, top=4)
    rep = dualize(t)
    incl = rep.flux_ambiguity
    assert incl.domain == Z
    assert incl.codomain == rep.dual.total.group(3)
    hdual2, _ = dual_flux(t, rep.dual.total)
    assert hdual2 == rep.dual.flux  # deterministic canonical choice


# ---------------------------------------------------------------------------
# coset partitions
# ---------------------------------------------------------------------------

def test_coset_partition_finite_quotient():
    p = 4
    t0 = trivial_triple("S2", {"vol.z": p})
    gen = t0.total.pullback(2)(t0.base.group(2).element([p]))
    part = coset_partition(gen)
    assert part.quotient == FgGroup(0, (p,))
    assert len(part.representatives) == p
    h2 = t0.total.group(2)
    seen = {part.projection(h2.element(r)).coords for r in part.representatives}
    assert len(seen) == p


def test_coset_partition_infinite_quotient_described():
    t0 = trivial_triple("T2", {"vol.z": 3})
    gen = t0.total.pullback(2)(t0.base.group(2).element([3]))
    part = coset_partition(gen)
    assert part.quotient == FgGroup(2, (3,))
    assert part.representatives is None  # description only

    zero = t0.total.group(2).zero_element()
    part0 = coset_partition(zero)
    assert part0.quotient == t0.total.group(2)


def test_coset_partition_on_z2():
    t0 = trivial_triple("RP2", {"a.z": 1})
    gen = t0.total.named_element(2, "p*(a)")
    part = coset_partition(gen)
    assert part.quotient == ZERO_GROUP
    assert len(part.representatives) == 1


def test_coset_counts_match_brute_force():
    # finite H^2 quotients: the isomorphism matches a coset count on both
    # sides done by raw enumeration
    p = 6
    t0 = trivial_triple("S2", {"vol.z": p})
    rep = dualize(Triple(t0.total, t0.total.group(2).zero_element(), t0.flux))
    src = rep.source_coset
    h2 = t0.total.group(2)
    # enumerate cosets of <gen> among multiples of the generator lattice,
    # bounded sweep: coords in [-3p, 3p)
    gen = src.subgroup_generator
    reps = set()
    for c in range(-3 * p, 3 * p):
        x = h2.element([c])
        reps.add(src.projection(x).coords)
    assert len(reps) == src.quotient.order() == rep.target_coset.quotient.order()


# ---------------------------------------------------------------------------
# coset transport through the reported witness
# ---------------------------------------------------------------------------

def _witness_transports_b(doc):
    """Does the report's coset isomorphism send the class of b to that of b#?"""
    cosets = doc["cosets"]
    target = cosets["target"]["quotient"]
    quotient = FgGroup(target["rank"], tuple(target["torsion"]))
    image = [sum(a * c for a, c in zip(row, cosets["source"]["coset"]))
             for row in cosets["isomorphism"]["matrix"]["entries"]]
    return list(quotient.reduce_coords(image)) == cosets["target"]["coset"]


@pytest.mark.xfail(strict=True, reason="the fallback witness (natural: false, "
                   "identity on canonical generators) ignores b: on Sigma3 it "
                   "sends the source coset (..., 1) to (..., 1), but b# lies "
                   "in (..., 2)")
@pytest.mark.parametrize("spec", [
    {"mode": "dualize", "base": "Sigma3", "euler": "-3", "flux": "3*vol.z",
     "b": [0, 0, 0, 0, 0, 0, -2]},
    {"mode": "dualize", "base": "Sigma4", "euler": "-3", "flux": [3],
     "b": "2*p*(vol)"},
])
def test_fallback_witness_transports_the_b_coset(spec):
    doc = run_job(spec)
    assert doc["cosets"]["natural"] is False
    assert _witness_transports_b(doc)


def test_natural_witness_transports_the_b_coset():
    doc = run_job({"mode": "dualize", "base": "S2", "euler": "0",
                   "flux": "6*vol.z", "b": "1*p*(vol)"})
    assert doc["cosets"]["source"]["coset"] == [1]
    assert doc["cosets"]["natural"] is True
    assert _witness_transports_b(doc)


def test_verifier_rejects_a_natural_witness_that_moves_b():
    # S2 x S1 with 6 units of flux: both quotients are Z/6, and -phi is an
    # isomorphism that sends the class of b to minus the class of b#
    t = trivial_triple("S2", {"vol.z": 6}, b_spec={"p*(vol)": 1})
    rep = dualize(t)
    assert rep.coset_iso_natural
    assert rep.source_coset.quotient == FgGroup(0, (6,))
    assert verify_coset_isomorphism(t, rep)
    phi = rep.coset_iso
    negated = Hom(phi.domain, phi.codomain, phi.matrix.scale(-1))
    assert is_isomorphism(negated)
    assert negated(rep.source_coset.coset) != rep.target_coset.coset
    assert not verify_coset_isomorphism(
        t, rep._replace(coset_iso=negated))


def _with_pullback_b(triples):
    """Each triple with b = 0 and with b each p*-generator of H^2(E)."""
    for t in triples:
        yield t
        h2 = t.total.group(2)
        for i, name in enumerate(t.total.names(2)):
            if name.startswith("p*"):
                yield Triple(t.total, h2.generator(i), t.flux)


def _universal_triple():
    e32 = universal_bundle_tables().e32
    return Triple(e32.tsc, e32.group(2).zero_element(),
                  e32.named_element(3, "h"))


def _s2_times_circle_corpus():
    """Triples over S2 x S1, where H^1 and H^3 are both nonzero: cup with
    e = 2 vol is injective on H^1 while cup with e# = 0 is not, so one
    side's pullback can be onto in degree two and the other's not."""
    base = kunneth_with_circle(cohomology_of(parse_space("S2"), 4))
    w2 = base.group(2)
    for e in (0, 1, -1, 2):
        total = total_space_cohomology(CircleBundle(base, w2.element([e])), 3)
        h3 = total.group(3)
        for coords in itertools.product(range(-2, 3), repeat=h3.ngens):
            yield Triple(total, total.group(2).zero_element(),
                         h3.element(coords))


def test_coset_witness_matches_the_route_through_the_base():
    """The witness read off the Gysin degrees equals, matrix and natural
    flag, the one induced through H^2(W)/<e, e#>; a natural one passes the
    transport check of the verifier."""
    natural = 0
    for t in _with_pullback_b(itertools.chain(
            catalog_corpus(), _s2_times_circle_corpus(),
            [_universal_triple()])):
        rep = dualize(t)
        want = coset_isomorphism_through_base(
            t, rep.dual.total, rep.source_coset, rep.target_coset)
        assert (rep.coset_iso, rep.coset_iso_natural) == want
        if rep.coset_iso_natural:
            natural += 1
            assert verify_coset_isomorphism(t, rep)
    assert natural > 0


# ---------------------------------------------------------------------------
# dualizing twice
# ---------------------------------------------------------------------------

@st.composite
def catalog_triples(draw):
    """A triple over a catalog base, at the top degree a job defaults to,
    with the Euler class, b = p*(beta) and the flux drawn up to 2^80."""
    space = parse_space(draw(st.sampled_from(CATALOG)))
    dim = space.dimension()
    top = 4 if dim is None else max(3, dim + 1)
    base = cohomology_of(space, top + 1)

    def draw_in(group):
        return group.element(draw(st.lists(st.integers(-2 ** 80, 2 ** 80),
                                           min_size=group.ngens,
                                           max_size=group.ngens)))

    total = total_space_cohomology(CircleBundle(base, draw_in(base.group(2))), top)
    b = total.pullback(2)(draw_in(base.group(2)))
    return Triple(total, b, draw_in(total.group(3)))


@settings(max_examples=150, deadline=None)
@given(catalog_triples())
def test_dualizing_twice_returns_the_triple(t):
    """e## = e; H## - H lies in the flux ambiguity of the second transform
    (and is 0: no catalog base has both H^1 and H^3, so p*(e# cup H^1(W))
    vanishes); b## - b lies in <p* e#>, so b keeps its coset.  Both total
    spaces pass the exactness audit and the coset witness verifies."""
    rep = dualize(t)
    back = dualize(rep.dual)
    assert back.dual.euler == t.euler
    moved = back.dual.flux - t.flux
    assert solve_hom(back.flux_ambiguity, moved) is not None
    assert moved.is_zero()
    assert rep.source_coset.projection(back.dual.b - t.b).is_zero()
    assert exactness_audit(t.total) and exactness_audit(rep.dual.total)
    assert verify_coset_isomorphism(t, rep)
