"""Acceptance suite: one test per release criterion, exact arithmetic only.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Criterion 3 is expected to fail and is marked xfail(strict):
the pinned reference table for the triples classifying space lists rank
one in degree 3, while the two-row mapping-torus assembly of the
transcribed deck actions forces rank two there (the coinvariant lattice
of a corank-one unipotent action has rank two, matching the rank of the
invariants in degree 2).  The discrepancy is documented in the README.
"""

import random
from itertools import product as iter_product

import pytest

from tdual import fixtures
from tdual.abelian import (
    FgGroup,
    Hom,
    HomError,
    IntMatrix,
    ZERO_GROUP,
    cokernel,
    image,
    is_exact_at,
    is_injective,
    kernel,
    quotient_by,
    smith_normal_form,
)
from tdual.classifying import (
    ZAction,
    homotopy_tables,
    r2_cohomology_computed,
    r32_cohomology_computed,
    t32_cohomology_action,
    unbased_classes_over_sphere,
    universal_bundle_tables,
)
from tdual.gysin import CircleBundle, exactness_audit, total_space_cohomology
from tdual.spaces import cohomology_of, parse_space
from tdual.tduality import (
    FLAG_AMBIGUOUS,
    Triple,
    dualize,
    verify_coset_isomorphism,
)

from . import oracles
from .oracles import determinant, kunneth_with_circle

Z = FgGroup(1)
Z2 = FgGroup(0, (2,))


def note(criterion, status, detail=""):
    print(f"[acceptance] criterion {criterion}: {status}"
          + (f" — {detail}" if detail else ""))


def _tors(*ds):
    ds = tuple(d for d in ds if d >= 2)
    return ds


def grp(rank, *torsion):
    return FgGroup(rank, _tors(*torsion))


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def trivial_triple(space, flux_spec, top):
    base = cohomology_of(parse_space(space), top + 1)
    e = base.group(2).zero_element()
    total = total_space_cohomology(CircleBundle(base, e), top)
    group = total.group(3)
    coords = [0] * group.ngens
    for name, c in flux_spec.items():
        coords[total.generator_index(3, name)] += c
    return Triple(total, total.group(2).zero_element(), group.element(coords))


def extension_realizable(whole, sub, quot, bound=4):
    """Is there a short exact sequence 0 -> sub -> whole -> quot -> 0?

    Brute-force over small-coordinate embeddings of `sub`; adequate for
    the tiny groups appearing in the flagged Gysin degrees.
    """
    if sub.is_zero():
        return whole == quot
    if quot.is_zero():
        return whole == sub
    assert sub.ngens <= 2 and whole.ngens <= 3
    coord_ranges = []
    for i in range(whole.ngens):
        if i < whole.free_rank:
            coord_ranges.append(range(-bound, bound + 1))
        else:
            coord_ranges.append(range(whole.torsion[i - whole.free_rank]))
    candidates = list(iter_product(*coord_ranges))
    for cols in iter_product(candidates, repeat=sub.ngens):
        try:
            h = Hom(sub, whole, IntMatrix.from_columns(cols, whole.ngens))
        except HomError:
            continue
        if not is_injective(h):
            continue
        q, _ = quotient_by(whole, [whole.element(c) for c in cols])
        if q == quot:
            return True
    return False


def check_table(tsc, printed, label):
    """Compare a computed total space against a printed table.

    Unflagged degrees must agree exactly.  Flagged degrees carry a
    genuine extension ambiguity: the split guess must be coker + ker, and
    the printed value must be realizable as an extension of the kernel
    part by the cokernel part.
    """
    flagged = set(tsc.ambiguous_degrees())
    for k, want in enumerate(printed):
        got = tsc.group(k)
        if k not in flagged:
            assert got == want, f"{label} degree {k}: {got.describe()} != " \
                f"{want.describe()}"
            continue
        d = tsc.degrees[k]
        from tdual.abelian import direct_sum
        split, _, _ = direct_sum([d.coker, d.ker])
        assert got == split, f"{label} degree {k}: split guess mismatch"
        assert extension_realizable(want, d.coker, d.ker), \
            f"{label} degree {k}: printed {want.describe()} is not an " \
            f"extension of {d.ker.describe()} by {d.coker.describe()}"
    return flagged


# ---------------------------------------------------------------------------
# criterion 1: the seven-example suite
# ---------------------------------------------------------------------------

SEVEN_EXAMPLES = []
for p in (2, 3, 7):
    SEVEN_EXAMPLES.append(
        ("T2", {"vol.z": p}, 3,
         [Z, grp(2), grp(2, p), Z], grp(2, p)))
for g in (2, 3):
    SEVEN_EXAMPLES.append(
        (f"Sigma{g}", {"vol.z": 2}, 3,
         [Z, grp(2 * g), grp(2 * g, 2), Z], grp(2 * g, 2)))
SEVEN_EXAMPLES.append(
    ("RP2", {"a.z": 1}, 3, [Z, Z, ZERO_GROUP, Z2], ZERO_GROUP))
for k in (0, 1, 3):
    SEVEN_EXAMPLES.append(
        ("RP3", {"a.z": 1, "p*(vol)": k}, 4,
         [Z, Z, ZERO_GROUP, Z, Z], ZERO_GROUP))
SEVEN_EXAMPLES.append(
    ("RP4", {"a.z": 1}, 5,
     [Z, Z, ZERO_GROUP, ZERO_GROUP, ZERO_GROUP, Z2], ZERO_GROUP))
SEVEN_EXAMPLES.append(
    ("RP5", {"a.z": 1}, 6,
     [Z, Z, ZERO_GROUP, ZERO_GROUP, ZERO_GROUP, Z, Z], ZERO_GROUP))
for j in (1, 2, 3):
    SEVEN_EXAMPLES.append(
        ("CP2", {"a.z": j}, 5,
         [Z, ZERO_GROUP, grp(0, j), ZERO_GROUP, grp(0, j), Z], grp(0, j)))


def test_criterion_1_seven_example_suite():
    flagged_total = 0
    for space, flux, top, printed, quot in SEVEN_EXAMPLES:
        t = trivial_triple(space, flux, top)
        rep = dualize(t)
        flagged = check_table(rep.dual.total, printed, space)
        flagged_total += len(flagged)
        if flagged:
            assert FLAG_AMBIGUOUS in rep.flags
        assert rep.source_coset.quotient == quot, space
        assert rep.target_coset.quotient == quot, space
        assert verify_coset_isomorphism(t, rep), space
    # the known extension-ambiguous spots: RP3 (three k values) and RP5
    assert flagged_total == 4
    note(1, "PASS", "7 example families, quotient isomorphisms verified; "
         "4 extension-ambiguous degrees flagged and checked for "
         "compatibility with the printed tables")


def test_criterion_1_flux_transport_details():
    # the RP3 dual carries exactly k units of base flux and no B-class
    for k in (0, 1, 3):
        t = trivial_triple("RP3", {"a.z": 1, "p*(vol)": k}, 4)
        rep = dualize(t)
        d3 = rep.dual.total.degrees[3]
        assert d3.onto_coker(rep.dual.flux).coords in ((k,), (-k,))
        assert d3.onto_ker(rep.dual.flux).is_zero()
        assert rep.dual.b.is_zero()
    # the nilmanifold dual of the torus carries no flux at all
    t = trivial_triple("T2", {"vol.z": 5}, 3)
    assert dualize(t).dual.flux.is_zero()


# ---------------------------------------------------------------------------
# criterion 2: R2 tables
# ---------------------------------------------------------------------------

def test_criterion_2_r2_tables():
    out = r2_cohomology_computed()
    assert tuple(out.table.groups) == fixtures.R2_GROUPS == (Z, Z, Z, Z)
    assert out.ambiguous == ()
    tables = homotopy_tables()
    assert tables.pi("R2", 1) == Z
    assert tables.pi("R2", 2) == FgGroup(2)
    assert tables.pi("R2", 3) == ZERO_GROUP
    assert tables.pi("R2", 4) == ZERO_GROUP
    assert tables.r2_pi2_action.entries == ((1, 1), (0, 1))
    note(2, "PASS", "H^0..H^3(R2) = (Z, Z, Z, Z); homotopy table matches")


# ---------------------------------------------------------------------------
# criterion 3: R32 tables (known discrepancy in degree 3)
# ---------------------------------------------------------------------------

@pytest.mark.xfail(
    strict=True,
    reason="reference degree-3 value (rank 1) is inconsistent with the "
           "two-row mapping-torus assembly of the transcribed actions, "
           "which forces the rank-2 coinvariant lattice; degrees 0,1,2,4 "
           "and all generator names do match")
def test_criterion_3_r32_tables():
    out = r32_cohomology_computed()
    t = out.table
    # names: the reference calls the degree-4 invariant a2c simply 'x'
    alias = {"a2c": "x"}
    computed_names = [tuple(alias.get(n, n) for n in t.names[k])
                      for k in range(5)]
    mismatches = []
    for k in range(5):
        if t.group(k) != fixtures.R32_GROUPS[k] or \
                set(computed_names[k]) != set(fixtures.R32_NAMES[k]):
            mismatches.append(
                f"H^{k}: computed {t.group(k).describe()} "
                f"{sorted(computed_names[k])}, reference "
                f"{fixtures.R32_GROUPS[k].describe()} "
                f"{sorted(fixtures.R32_NAMES[k])}")
    note(3, "FAIL (expected)",
         "; ".join(mismatches) if mismatches else "no mismatch?!")
    assert not mismatches


def test_criterion_3_r32_tables_agree_outside_degree_3():
    # the honest content of criterion 3: everything except the degree-3
    # row is reproduced, including generator names
    out = r32_cohomology_computed()
    t = out.table
    alias = {"a2c": "x"}
    for k in (0, 1, 2, 4):
        assert t.group(k) == fixtures.R32_GROUPS[k]
        got = {alias.get(n, n) for n in t.names[k]}
        assert got == set(fixtures.R32_NAMES[k])
    assert t.group(3) == FgGroup(2)  # the forced rank-2 value
    tables = homotopy_tables()
    assert tables.pi("R32", 1) == Z
    assert tables.pi("R32", 2) == FgGroup(3)
    assert tables.pi("R32", 3) == Z
    assert tables.pi("R32", 5) == ZERO_GROUP


# ---------------------------------------------------------------------------
# criterion 4: universal bundles
# ---------------------------------------------------------------------------

def test_criterion_4_universal_bundles():
    ub = universal_bundle_tables()  # internal self-test already cross-checks
    assert tuple(ub.e32.group(k) for k in range(4)) == \
        (Z, Z, FgGroup(2), FgGroup(2))
    assert tuple(ub.e32_hat.group(k) for k in range(4)) == (Z, Z, Z, Z)
    r32 = ub.e32.tsc.base
    l = r32.named_element(1, "l")
    a1 = r32.named_element(2, "a1")
    a2 = r32.named_element(2, "a2")
    b_img = ub.e32.tsc.pushforward(2)(ub.e32.named_element(2, "b"))
    h_img = ub.e32.tsc.pushforward(3)(ub.e32.named_element(3, "h"))
    hh_img = ub.e32_hat.tsc.pushforward(3)(ub.e32_hat.named_element(3, "hhat"))
    assert b_img in (l, -l)
    assert h_img in (a2, -a2)
    assert hh_img in (a1, -a1)
    assert exactness_audit(ub.e32.tsc)
    assert exactness_audit(ub.e32_hat.tsc)
    note(4, "PASS", "E32 = (Z, Z, Z^2, Z^2) with p!(b) = l, p!(h) = a2; "
         "dual bundle = (Z, Z, Z, Z) with p!(hhat) = a1")


# ---------------------------------------------------------------------------
# criterion 5: non-involutivity
# ---------------------------------------------------------------------------

def test_criterion_5_non_involutivity():
    act = t32_cohomology_action()
    assert act.squared(1).is_zero()   # kills l
    assert act.squared(3).is_zero()   # kills a2l
    assert act.squared(2).entries == ((1, 0), (0, 1))
    # S2 x S1 with one unit of flux: dual is the 3-sphere, and both the
    # B-class and its coset are destroyed by the round trip
    base = cohomology_of(parse_space("S2"), 4)
    e0 = base.group(2).zero_element()
    total = total_space_cohomology(CircleBundle(base, e0), 3)
    flux = total.named_element(3, "vol.z")
    for c in (1, 2, 5, -3):
        b = total.pullback(2)(base.group(2).element([c]))
        assert not b.is_zero()
        rep = dualize(Triple(total, b, flux))
        assert rep.dual.total.group(2) == ZERO_GROUP
        rep2 = dualize(rep.dual)
        assert rep2.dual.b.is_zero()
        assert rep2.target_coset.coset.is_zero()
    note(5, "PASS", "T^2 kills l and a2l; S2 round trip lands every "
         "B-class in the zero coset")


# ---------------------------------------------------------------------------
# criterion 6: property suites
# ---------------------------------------------------------------------------

def test_criterion_6a_snf_over_1000_random_matrices():
    rng = random.Random(20260810)
    checked = 0
    for _ in range(1000):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        m = IntMatrix.from_rows(
            [[rng.randrange(-9, 10) for _ in range(cols)]
             for _ in range(rows)], cols)
        u, d, v = smith_normal_form(m)
        assert u.mul(m).mul(v).entries == d.entries
        assert abs(determinant(u)) == 1
        assert abs(determinant(v)) == 1
        diag = d.diagonal()
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
        checked += 1
    assert checked == 1000
    note("6a", "PASS", "u*m*v = d, unimodularity and divisibility chain "
         "over 1000 random matrices")


def _bundle_corpus():
    for name in ("point", "S1", "S2", "S3", "S4", "T2", "Sigma2", "Sigma3",
                 "RP2", "RP3", "RP4", "RP5", "CP2", "KZ2"):
        base = cohomology_of(parse_space(name), 6)
        h2 = base.group(2)
        eulers = {h2.zero_element().coords}
        if h2.ngens:
            for c in (1, 2, 3):
                eulers.add(h2.element([c] * h2.ngens).coords)
        for coords in sorted(eulers):
            yield name, base, h2.element(coords)


def test_criterion_6b_gysin_exactness_audit():
    count = 0
    for name, base, e in _bundle_corpus():
        tsc = total_space_cohomology(CircleBundle(base, e), 5)
        assert exactness_audit(tsc), (name, e.coords)
        count += 1
    assert count >= 30
    note("6b", "PASS", f"exactness audit at every position for {count} "
         "bundles across the catalog")


def test_criterion_6c_trivial_bundles_match_kunneth():
    for name in ("point", "S1", "S2", "S3", "S4", "S5", "T2", "Sigma2",
                 "Sigma3", "Sigma4", "RP2", "RP3", "RP4", "RP5", "RP6",
                 "CP2", "KZ2"):
        base = cohomology_of(parse_space(name), 6)
        prod = kunneth_with_circle(base)
        tsc = total_space_cohomology(
            CircleBundle(base, base.group(2).zero_element()), 5)
        for k in range(6):
            assert tsc.group(k) == prod.group(k), (name, k)
        assert tsc.ambiguous_degrees() == []
    note("6c", "PASS", "zero Euler class agrees with the circle Kunneth "
         "rule across the whole catalog")


def _random_hom(rng, dom, cod):
    from math import gcd
    cols = []
    for j in range(dom.ngens):
        d = 0 if j < dom.free_rank else dom.torsion[j - dom.free_rank]
        col = []
        for i in range(cod.ngens):
            if i < cod.free_rank:
                col.append(rng.randrange(-3, 4) if d == 0 else 0)
            else:
                m = cod.torsion[i - cod.free_rank]
                step = 1 if d == 0 else m // gcd(d, m)
                col.append(step * rng.randrange(m // step))
        cols.append(col)
    return Hom(dom, cod, IntMatrix.from_columns(cols, cod.ngens))


def test_criterion_6d_oracle_equivalence_on_groups_up_to_64():
    rng = random.Random(64)
    chains = oracles.all_group_moduli_up_to(64)
    assert () in chains and (2, 2, 2, 2, 2, 2) in chains
    nontrivial = [c for c in chains if c]
    checked = 0
    for chain in chains:
        dom = FgGroup(0, chain)
        cod = FgGroup(0, rng.choice(nontrivial))
        mid = FgGroup(0, rng.choice(nontrivial))
        f = _random_hom(rng, dom, mid)
        g = _random_hom(rng, mid, cod)
        fm = [list(r) for r in f.matrix.entries]
        gm = [list(r) for r in g.matrix.entries]
        ker_set = oracles.kernel_set(fm, dom.torsion, mid.torsion)
        img_set = oracles.image_set(fm, dom.torsion, mid.torsion)
        kg, _ = kernel(f)
        ig, _ = image(f)
        cg, _ = cokernel(f)
        assert oracles.group_type_matches(ker_set, dom.torsion,
                                          kg.free_rank, kg.torsion)
        assert oracles.group_type_matches(img_set, mid.torsion,
                                          ig.free_rank, ig.torsion)
        assert oracles.quotient_matches(mid.torsion, img_set,
                                        cg.free_rank, cg.torsion)
        assert is_exact_at(f, g) == oracles.exact_at_middle(
            fm, gm, dom.torsion, mid.torsion, cod.torsion)
        checked += 1
    assert checked == len(chains)
    note("6d", "PASS", f"kernel/image/cokernel/exactness match enumeration "
         f"on all {checked} abelian groups of order <= 64")


def test_criterion_6e_orbit_canonicalization():
    rng = random.Random(5)
    g3 = FgGroup(3)
    act = ZAction.from_matrix(g3, fixtures.R32_PI2_ACTION)
    g2 = FgGroup(2)
    act2 = ZAction.from_matrix(g2, fixtures.R2_PI2_ACTION)
    for _ in range(100):
        x = g3.element([rng.randrange(-20, 21) for _ in range(3)])
        rep = unbased_classes_over_sphere(act, x)
        assert unbased_classes_over_sphere(act, rep) == rep
        y = x
        for _ in range(rng.randrange(1, 12)):
            y = act.automorphism(y)
        assert unbased_classes_over_sphere(act, y) == rep
        x2 = g2.element([rng.randrange(-20, 21) for _ in range(2)])
        rep2 = unbased_classes_over_sphere(act2, x2)
        assert unbased_classes_over_sphere(act2, rep2) == rep2
    note("6e", "PASS", "orbit normal form idempotent and constant under "
         "100 random action powers")


# ---------------------------------------------------------------------------
# criterion 7: documented exclusions
# ---------------------------------------------------------------------------

def test_criterion_7_exclusions_are_documented():
    # operator-algebraic statements, homotopy-equivalence claims about the
    # spaces themselves, and the unproved coset-transport case are out of
    # scope; the last is surfaced as a CONJECTURE flag rather than asserted
    t = trivial_triple("T2", {"vol.z": 2}, 3)
    rep = dualize(t)
    assert "CONJECTURE" in rep.flags
    assert verify_coset_isomorphism(t, rep)  # evaluated, never assumed
    note(7, "PASS", "out-of-scope results excluded; unproved transport "
         "reported as CONJECTURE and still checked where computable")
