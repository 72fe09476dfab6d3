import pytest

from tdual.abelian import FgGroup, ZERO_GROUP
from tdual.gysin import (
    CircleBundle,
    exactness_audit,
    total_space_cohomology,
)
from tdual.spaces import cohomology_of, parse_space

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
