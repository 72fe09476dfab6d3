import random

import pytest

from tdual import fixtures
from tdual.abelian import FgGroup, Hom, IntMatrix
from tdual.classifying import (
    ZAction,
    mapping_torus_cohomology,
    r2_cohomology_computed,
    r32_cohomology_computed,
    universal_bundle_tables,
)
from tdual.cli import run_job
from tdual.gysin import CircleBundle, total_space_cohomology
from tdual.tduality import BNotLiftableError, Triple, dualize

from . import oracles
from .oracles import unbased_classes_over_sphere

Z = FgGroup(1)


def test_zaction_requires_invertibility():
    g = FgGroup(2)
    with pytest.raises(ValueError):
        ZAction.from_matrix(g, IntMatrix.from_rows([[1, 0], [0, 2]]))


def test_z_group_cohomology_shear():
    g = FgGroup(2)
    act = ZAction.from_matrix(g, fixtures.R2_PI2_ACTION)
    (h0, incl), (h1, proj) = oracles.z_group_cohomology(act)
    assert h0 == Z and h1 == Z
    assert act.shift().compose(incl).is_zero_map()
    assert proj.compose(act.shift()).is_zero_map()


def test_z_group_cohomology_identity():
    for k in (1, 2, 4):
        g = FgGroup(k)
        (h0, _), (h1, _) = oracles.z_group_cohomology(ZAction(Hom.identity(g)))
        assert h0 == g and h1 == g


def test_z_group_cohomology_degree4_action():
    # the degree-4 deck action on Z^5; shift invariant factors frozen from
    # the determinantal-divisor oracle: diag(1, 2, 0, 0, 0)
    phi = fixtures.R32_DEGREE4_ACTION
    shift_rows = [[phi[i][j] - (1 if i == j else 0) for j in range(5)]
                  for i in range(5)]
    assert oracles.invariant_factors_oracle(shift_rows) == [1, 2, 0, 0, 0]
    g = FgGroup(5)
    (h0, _), (h1, _) = oracles.z_group_cohomology(ZAction.from_matrix(g, phi))
    assert h0 == FgGroup(3)
    assert h1 == FgGroup(3, (2,))
    assert h0.free_rank == h1.free_rank


def test_invariant_coinvariant_ranks_agree():
    # random unimodular actions: rank h0 = rank h1 always
    rng = random.Random(42)
    for _ in range(30):
        n = rng.randrange(1, 5)
        m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(6):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                q = rng.randrange(-2, 3)
                for c in range(n):
                    m[i][c] += q * m[j][c]
        act = ZAction.from_matrix(FgGroup(n), IntMatrix.from_rows(m, n))
        (h0, _), (h1, _) = oracles.z_group_cohomology(act)
        assert h0.free_rank == h1.free_rank


# ---------------------------------------------------------------------------
# mapping torus
# ---------------------------------------------------------------------------

def test_r2_table():
    out = r2_cohomology_computed()
    assert out.table.groups == fixtures.r2_cohomology().groups
    assert out.ambiguous == ()
    assert out.table.names[1] == ("a",)


def test_trivial_action_gives_product_rule():
    cover = fixtures.r32_cover()
    out = mapping_torus_cohomology(cover, {
        k: IntMatrix.identity(cover.group(k).ngens) for k in (0, 2, 4)})
    for n in range(cover.max_degree + 1):
        want_rank = cover.group(n).free_rank + cover.group(n - 1).free_rank
        assert out.table.group(n).free_rank == want_rank
    # the zero-Euler-class bundle over the cover is the same F x S^1: the
    # Wang and the Gysin sequence must agree through the bundle's top degree
    product = total_space_cohomology(
        CircleBundle(cover, cover.group(2).zero_element()), 3)
    for k in range(product.top + 1):
        assert out.table.group(k) == product.group(k), k
    assert out.ambiguous == () and product.ambiguous_degrees() == []


def test_r32_table_computed():
    # engine values; degrees 0, 1, 2, 4 agree with the pinned table, while
    # degree 3 is the rank-two coinvariant lattice (the pinned table lists
    # rank one there; see the acceptance suite for the discrepancy note)
    out = r32_cohomology_computed()
    t = out.table
    pinned = fixtures.r32_cohomology()
    for k in (0, 1, 2, 4):
        assert t.group(k) == pinned.group(k), k
    assert t.group(3) == FgGroup(2)
    assert t.names[1] == ("l",)
    assert set(t.names[2]) == {"a1", "a2"}
    assert set(t.names[3]) == {"a2l", "cl"}
    assert set(t.names[4]) == {"a1^2", "a2^2", "a2c"}
    assert out.ambiguous == ()


def test_missing_action_errors():
    # degree 1 of the cover is zero and takes the 0 x 0 identity; degree 2
    # is the first nonzero degree left out
    cover = fixtures.r32_cover()
    assert cover.group(1).is_zero() and not cover.group(2).is_zero()
    with pytest.raises(ValueError, match="^missing action data in degree 2$"):
        mapping_torus_cohomology(cover, {0: IntMatrix.identity(1)})


# ---------------------------------------------------------------------------
# homotopy tables
# ---------------------------------------------------------------------------

def homotopy_report() -> dict:
    """The `homotopy` classifying-tables report, with each pi_i as
    (rank, torsion)."""
    doc = run_job({"mode": "classifying-tables", "space": "homotopy"})
    for space in ("r2", "r32"):
        doc[space] = {int(i): (g["rank"], g["torsion"])
                      for i, g in doc[space].items()}
    return doc


def test_homotopy_tables():
    t = homotopy_report()
    assert t["r2"] == {1: (1, []), 2: (2, []), 3: (0, []), 4: (0, [])}
    assert t["r32"] == {1: (1, []), 2: (3, []), 3: (1, []), 4: (0, [])}
    assert t["r2_pi2_action"]["entries"] == [[1, 1], [0, 1]]
    assert t["r32_pi2_action"]["entries"] == [[1, 0, 1], [0, 1, 0], [0, 0, 1]]


# ---------------------------------------------------------------------------
# canonical bundles
# ---------------------------------------------------------------------------

def test_self_test_rejects_wrong_reference_values():
    from tdual.classifying import SelfTestError, _relabel_and_check
    from tdual.gysin import CircleBundle, total_space_cohomology

    r32 = fixtures.r32_cohomology()
    tsc = total_space_cohomology(
        CircleBundle(r32, r32.named_element(2, "a1")), 3)
    bad_groups = (Z, Z, FgGroup(3), FgGroup(2))  # wrong degree-2 rank
    with pytest.raises(SelfTestError):
        _relabel_and_check(tsc, bad_groups, fixtures.E32_NAMES,
                           fixtures.E32_PUSHFORWARD,
                           fixtures.E32_PULLBACK_PREIMAGE)


@pytest.mark.parametrize("change,message", [
    # a wrong pushforward target: no engine name a2.z translates, or the
    # pulled class y would have to push forward to 1
    ({"ref_push": {**fixtures.E32_PUSHFORWARD, "h": "a1"}}, "a2.z"),
    ({"ref_push": {**fixtures.E32_PUSHFORWARD, "y": "1"}}, r"p!\(y\) != 1"),
    # a wrong pullback preimage: no engine name p*(a2) translates, or b
    # would have to be pulled back from the Euler class a1
    ({"ref_pull": {**fixtures.E32_PULLBACK_PREIMAGE, "p*(a2)": "a1"}},
     r"p\*\(a2\)"),
    ({"ref_pull": {**fixtures.E32_PULLBACK_PREIMAGE, "b": "a1"}},
     r"p\*\(a1\) != b"),
    # two reference names swapped within degree 2
    ({"ref_names": fixtures.E32_NAMES[:2] + (("b", "p*(a2)"),)
      + fixtures.E32_NAMES[3:]}, "degree 2"),
    # a reference name that no engine name translates to
    ({"ref_names": fixtures.E32_NAMES[:3] + (("p*(a2l)", "g"),)}, "degree 3"),
], ids=["push-untranslated", "push-of-pulled", "pull-untranslated",
        "pull-from-euler", "swapped", "unknown-name"])
def test_self_test_rejects_wrong_reference_maps_and_names(change, message):
    from tdual.classifying import SelfTestError, _relabel_and_check

    r32 = fixtures.r32_cohomology()
    tsc = total_space_cohomology(
        CircleBundle(r32, r32.named_element(2, "a1")), 3)
    ref = {"ref_groups": fixtures.E32_GROUPS, "ref_names": fixtures.E32_NAMES,
           "ref_push": fixtures.E32_PUSHFORWARD,
           "ref_pull": fixtures.E32_PULLBACK_PREIMAGE, **change}
    with pytest.raises(SelfTestError, match=message):
        _relabel_and_check(tsc, **ref)


def test_universal_bundle_tables_pass_self_test():
    ub = universal_bundle_tables()
    for k, g in enumerate(fixtures.E32_GROUPS):
        assert ub.e32.group(k) == g
    for k, g in enumerate(fixtures.E32_HAT_GROUPS):
        assert ub.e32_hat.group(k) == g
    r32 = ub.e32.tsc.base
    # p!(b) = l and p!(h) = a2
    l = r32.named_element(1, "l")
    a2 = r32.named_element(2, "a2")
    got_b = ub.e32.tsc.pushforward(2)(ub.e32.named_element(2, "b"))
    got_h = ub.e32.tsc.pushforward(3)(ub.e32.named_element(3, "h"))
    assert got_b in (l, -l)
    assert got_h in (a2, -a2)
    # phat!(hhat) = a1
    a1 = r32.named_element(2, "a1")
    got_hh = ub.e32_hat.tsc.pushforward(3)(ub.e32_hat.named_element(3, "hhat"))
    assert got_hh in (a1, -a1)
    # the exactness audit holds over the pinned base table
    from tdual.gysin import exactness_audit
    assert exactness_audit(ub.e32.tsc)
    assert exactness_audit(ub.e32_hat.tsc)


# ---------------------------------------------------------------------------
# the T-duality self-map
# ---------------------------------------------------------------------------

def test_relation_annotations_match_the_cup_data():
    # annotations (e, x) mean e cup x = 0; they must name real generators
    # and agree with the stored cup matrices
    for table, rels in ((fixtures.r2_cohomology(), (("b", "a"),)),
                        (fixtures.r32_cohomology(),
                         (("a1", "a2"), ("a1", "l")))):
        for e_name, x_name in rels:
            e = table.named_element(2, e_name)
            deg = next(k for k in range(table.max_degree + 1)
                       if x_name in table.names[k])
            x = table.named_element(deg, x_name)
            assert table.cup_by(e, deg)(x).is_zero()


def test_t32_action_matrices():
    t32 = fixtures.T32_ON_R32
    assert t32[1].entries == ((0,),)      # l -> 0
    assert t32[3].entries == ((0,),)      # a2l -> 0
    assert t32[2].entries == ((0, 1), (1, 0))
    # squared: identity on the (a1, a2) block, zero on l and a2l
    squared = {k: t32[k] @ t32[k] for k in (1, 2, 3)}
    assert squared[2].entries == ((1, 0), (0, 1))
    assert squared[1].entries == ((0,),)
    assert squared[3].entries == ((0,),)


def _degree_and_class(table, name):
    """(k, the generator called `name`) of a BundleTable."""
    k = next(k for k, names in enumerate(table.names) if name in names)
    return k, table.named_element(k, name)


def test_t32_on_bundles_is_the_dual_of_the_universal_triple():
    # The paper's T32 on the bundles, H^*(E32) -> H^*(E32^), by generator
    # name (None = 0).  The image of b is undetermined up to a multiple of
    # phat*(a1), and b is no pullback, so the table leaves it out.
    pinned = {"y": None, "p*(a2)": "phat*(a1)", "p*(a2l)": None, "h": "hhat"}
    # dualize (E32, 0, h): the flux class goes to H#, and a pullback p*(beta)
    # to q*(T32 beta), with beta read off the stored Gysin degree
    ub = universal_bundle_tables()
    e32, hat = ub.e32, ub.e32_hat
    r32 = e32.tsc.base
    t32 = {k: Hom(r32.group(k), r32.group(k), m)
           for k, m in fixtures.T32_ON_R32.items()}
    h = e32.named_element(3, "h")
    rep = dualize(Triple(e32.tsc, e32.group(2).zero_element(), h))
    assert rep.dual.euler == r32.named_element(2, "a2") \
        == t32[2](r32.named_element(2, "a1"))
    assert rep.dual.total is hat.tsc
    assert rep.dual.flux == _degree_and_class(hat, pinned["h"])[1]
    for name, want in pinned.items():
        if name == "h":
            continue
        k, x = _degree_and_class(e32, name)
        got = hat.tsc.pullback(k)(t32[k](e32.tsc.degrees[k].lift(x)))
        assert got == (hat.group(k).zero_element() if want is None
                       else _degree_and_class(hat, want)[1]), name
    with pytest.raises(BNotLiftableError):
        dualize(Triple(e32.tsc, e32.named_element(2, "b"), h))


# ---------------------------------------------------------------------------
# orbit normal forms
# ---------------------------------------------------------------------------

def test_orbit_normal_form_rank2():
    g = FgGroup(2)
    act = ZAction.from_matrix(g, fixtures.R2_PI2_ACTION)
    for a in range(-7, 8):
        for b in (-3, -1, 0, 2, 5):
            rep = unbased_classes_over_sphere(act, g.element([a, b]))
            if b == 0:
                assert rep == g.element([a, 0])
            else:
                assert rep.coords[1] == b
                assert 0 <= rep.coords[0] < abs(b)
    # orbits over a fixed second coordinate b: exactly |b| classes
    reps = {unbased_classes_over_sphere(act, g.element([a, 3])).coords
            for a in range(-20, 20)}
    assert len(reps) == 3


def test_orbit_normal_form_rank3():
    g = FgGroup(3)
    act = ZAction.from_matrix(g, fixtures.R32_PI2_ACTION)
    rep = unbased_classes_over_sphere(act, g.element([7, 4, 3]))
    assert rep.coords == (1, 4, 3)
    assert unbased_classes_over_sphere(act, g.element([5, 1, 0])).coords == (5, 1, 0)


def test_orbit_normal_form_idempotent_and_orbit_constant():
    rng = random.Random(99)
    g3 = FgGroup(3)
    act = ZAction.from_matrix(g3, fixtures.R32_PI2_ACTION)
    for _ in range(50):
        x = g3.element([rng.randrange(-9, 10) for _ in range(3)])
        rep = unbased_classes_over_sphere(act, x)
        assert unbased_classes_over_sphere(act, rep) == rep
        y = x
        for _ in range(rng.randrange(1, 8)):
            y = act.automorphism(y)
        assert unbased_classes_over_sphere(act, y) == rep
