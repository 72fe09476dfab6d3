import pytest

from tdual.abelian import FgGroup, ZERO_GROUP
from tdual.gysin import (
    CircleBundle,
    exactness_audit,
    total_space_cohomology,
)
from tdual.spaces import cohomology_of, parse_space

from . import oracles
from .oracles import kunneth_with_circle

Z = FgGroup(1)
Z2 = FgGroup(0, (2,))


def bundle_over(name, euler_coords, max_degree):
    base = cohomology_of(parse_space(name), max_degree + 1)
    e = base.group(2).element(euler_coords)
    return total_space_cohomology(CircleBundle(base, e), max_degree)


def groups_of(tsc):
    return [tsc.group(k) for k in range(tsc.top + 1)]


def test_lens_spaces_over_s2():
    # Euler class n over the two-sphere gives H^2 = Z/n
    for n in (1, 2, 3, 5):
        tsc = bundle_over("S2", [n], 3)
        want = ZERO_GROUP if n == 1 else FgGroup(0, (n,))
        assert tsc.group(2) == want
        assert tsc.group(0) == Z
        assert tsc.group(1) == ZERO_GROUP
        assert tsc.group(3) == Z
        assert tsc.ambiguous_degrees() == []
        assert exactness_audit(tsc)


def test_nilmanifold_over_t2():
    for p in (2, 3, 7):
        tsc = bundle_over("T2", [p], 3)
        assert groups_of(tsc) == [Z, FgGroup(2), FgGroup(2, (p,)), Z]
        assert tsc.ambiguous_degrees() == []
        assert exactness_audit(tsc)


def test_lens_bundle_over_cp2():
    for j in (1, 2, 3):
        tsc = bundle_over("CP2", [j], 5)
        want_tors = ZERO_GROUP if j == 1 else FgGroup(0, (j,))
        assert groups_of(tsc) == [Z, ZERO_GROUP, want_tors, ZERO_GROUP,
                                  want_tors, Z]
        assert exactness_audit(tsc)


def test_trivial_bundles_match_kunneth():
    for name in ("point", "S1", "S2", "S3", "T2", "Sigma2", "Sigma3",
                 "RP2", "RP3", "RP4", "RP5", "CP2"):
        w = cohomology_of(parse_space(name), 6)
        prod = kunneth_with_circle(w)
        tsc = bundle_over(name, [0] * w.group(2).ngens, 5)
        for k in range(6):
            assert tsc.group(k) == prod.group(k), (name, k)
        assert tsc.ambiguous_degrees() == []
        assert exactness_audit(tsc)


def test_torsion_euler_class_over_rp3():
    tsc = bundle_over("RP3", [1], 4)
    assert tsc.group(0) == Z
    assert tsc.group(1) == Z
    assert tsc.group(2) == ZERO_GROUP
    # degree 3 is a genuine extension problem: split guess Z + Z/2, flagged
    assert tsc.group(3) == FgGroup(1, (2,))
    assert tsc.group(4) == Z
    assert tsc.ambiguous_degrees() == [3]
    assert exactness_audit(tsc)


def test_torsion_euler_class_over_rp5():
    tsc = bundle_over("RP5", [1], 6)
    assert groups_of(tsc) == [Z, Z, ZERO_GROUP, ZERO_GROUP, ZERO_GROUP,
                              FgGroup(1, (2,)), Z]
    assert tsc.ambiguous_degrees() == [5]
    assert exactness_audit(tsc)


def test_euler_class_kill():
    # the pullback of the Euler class itself vanishes
    for name, coords in (("S2", [2]), ("T2", [3]), ("CP2", [2]), ("RP4", [1])):
        tsc = bundle_over(name, coords, 3)
        e = tsc.base.group(2).element(coords)
        assert tsc.pullback(2)(e).is_zero()


def test_pushforward_after_pullback_is_zero():
    for name, coords in (("S2", [3]), ("T2", [2]), ("RP3", [1]), ("CP2", [2])):
        tsc = bundle_over(name, coords, 3)
        for k in range(tsc.top + 1):
            assert tsc.pushforward(k).compose(tsc.pullback(k)).is_zero_map()


def test_pushforward_on_trivial_bundle_over_t2():
    tsc = bundle_over("T2", [0], 3)
    h = tsc.named_element(3, "vol.z")
    img = tsc.pushforward(3)(h)
    vol = tsc.base.named_element(2, "vol")
    assert img in (vol, -vol)


def test_names_on_nilmanifold():
    tsc = bundle_over("T2", [2], 3)
    assert set(tsc.names(1)) == {"p*(a)", "p*(b)"}
    assert "p*(vol)" in tsc.names(2)
    assert set(tsc.names(2)) >= {"a.z", "b.z"}
    # p!(vol.z) = vol on the trivial bundle only; here p! of the degree-3
    # generator is the kernel generator of cup-e on H^2
    h = tsc.named_element(3, "vol.z")
    assert tsc.pushforward(3)(h) in (tsc.base.named_element(2, "vol"),
                                         -tsc.base.named_element(2, "vol"))


def test_degree_range_checks():
    base = cohomology_of(parse_space("S2"), 3)
    e = base.group(2).element([1])
    with pytest.raises(ValueError):
        total_space_cohomology(CircleBundle(base, e), 3)  # needs degree-4 data
    tsc = total_space_cohomology(CircleBundle(base, e))   # defaults to top = 2
    assert tsc.top == 2


# ---------------------------------------------------------------------------
# Poincare duality of the total spaces over the closed catalog bases
# ---------------------------------------------------------------------------

CLOSED_BASES = ([f"S{n}" for n in range(1, 9)] + ["T2"]
                + [f"Sigma{g}" for g in range(2, 9)]
                + [f"RP{n}" for n in range(2, 9)] + ["CP2"])


def _duality_cases():
    """Each closed base with its Euler classes: where H^2 = Z, 0, +-1..+-6
    and two past 64 bits; over RP^n, 0 and a; elsewhere 0."""
    for name in CLOSED_BASES:
        h2 = cohomology_of(parse_space(name), 2).group(2)
        if h2 == Z:
            eulers = [(str(c), [c]) for c in range(-6, 7)]
            eulers += [("2^64+1", [2 ** 64 + 1]), ("-3^50", [-3 ** 50])]
        elif h2 == Z2:
            eulers = [("0", [0]), ("a", [1])]
        else:
            eulers = [("0", [])]
        for label, coords in eulers:
            # ROADMAP item 9: over RP^odd with e = a, degree n of the total
            # space is reported split (Z + Z/2, flagged AMBIGUOUS-EXTENSION)
            # where the extension does not split (it is Z)
            wrong = name in ("RP3", "RP5", "RP7") and label == "a"
            marks = [pytest.mark.xfail(strict=True, reason=(
                "RP^odd with e = a: the split top degree breaks duality"))]
            yield pytest.param(name, coords, id=f"{name}-e={label}",
                               marks=marks if wrong else [])


@pytest.mark.parametrize("name, euler", _duality_cases())
def test_total_spaces_of_closed_bases_satisfy_duality(name, euler):
    """A circle bundle over a closed n-manifold is a closed (n+1)-manifold,
    orientable iff the base is; solved to top n + 1, its groups must
    satisfy Poincare duality, whatever the Gysin code does."""
    space = parse_space(name)
    dim = space.dimension() + 1
    orientable = space.kind != "rp" or space.param % 2 == 1
    tsc = bundle_over(name, euler, dim)
    assert oracles.duality_defects(groups_of(tsc), dim, orientable) == []


def test_the_duality_oracle_sees_changed_torsion_and_swapped_degrees():
    # the bundle over CP2 with e = 4a: Z, 0, Z/4, 0, Z/4, Z
    groups = groups_of(bundle_over("CP2", [4], 5))
    assert groups[2] == groups[4] == FgGroup(0, (4,))
    assert oracles.duality_defects(groups, 5, True) == []
    changed = groups[:4] + [FgGroup(0, (8,))] + groups[5:]
    assert oracles.duality_defects(changed, 5, True) == [
        "torsion of H^2 (4,) is not that of H^4 (8,)"]
    swapped = [groups[0], groups[2], groups[1]] + groups[3:]
    assert oracles.duality_defects(swapped, 5, True)
    # F_2 counts alone, as for a non-orientable manifold: Z/4 -> Z/3 in
    # one degree drops b_4 and b_3; Z/4 -> Z/8 changes no F_2 count
    odd = groups[:4] + [FgGroup(0, (3,))] + groups[5:]
    assert oracles.duality_defects(odd, 5, False) == [
        "F_2 Betti numbers [1, 1, 1, 0, 0, 1] are not symmetric"]
    assert oracles.duality_defects(changed, 5, False) == []
