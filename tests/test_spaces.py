import pytest

from tdual.abelian import FgGroup, ZERO_GROUP
from tdual.spaces import (
    CatalogSpace,
    UnknownSpaceError,
    cohomology_of,
    parse_space,
)

from .oracles import kunneth_with_circle
from .test_naming import CATALOG

Z = FgGroup(1)
Z2 = FgGroup(0, (2,))


def groups_of(gc):
    return [gc.group(k) for k in range(gc.max_degree + 1)]


# every lower-case spelling the catalog accepts, by kind and parameter
SPELLINGS = {
    ("point", 0): ("point",),
    ("sphere", 1): ("s1", "s^1"),
    ("sphere", 2): ("s2", "s^2"),
    ("sphere", 3): ("s3", "s^3"),
    ("sphere", 4): ("s4", "s^4"),
    ("sphere", 5): ("s5", "s^5"),
    ("sphere", 6): ("s6", "s^6"),
    ("sphere", 7): ("s7", "s^7"),
    ("sphere", 8): ("s8", "s^8"),
    ("torus", 0): ("t2", "t^2"),
    ("surface", 2): ("sigma2", "sigma_2", "sigma^2"),
    ("surface", 3): ("sigma3", "sigma_3", "sigma^3"),
    ("surface", 4): ("sigma4", "sigma_4", "sigma^4"),
    ("surface", 5): ("sigma5", "sigma_5", "sigma^5"),
    ("surface", 6): ("sigma6", "sigma_6", "sigma^6"),
    ("surface", 7): ("sigma7", "sigma_7", "sigma^7"),
    ("surface", 8): ("sigma8", "sigma_8", "sigma^8"),
    ("rp", 2): ("rp2", "rp^2"),
    ("rp", 3): ("rp3", "rp^3"),
    ("rp", 4): ("rp4", "rp^4"),
    ("rp", 5): ("rp5", "rp^5"),
    ("rp", 6): ("rp6", "rp^6"),
    ("rp", 7): ("rp7", "rp^7"),
    ("rp", 8): ("rp8", "rp^8"),
    ("cp2", 0): ("cp2", "cp^2"),
    ("kz2", 0): ("kz2", "k(z,2)"),
}


def test_parse_space():
    assert sum(map(len, SPELLINGS.values())) == 58
    for (kind, param), spellings in SPELLINGS.items():
        for spelling in spellings:
            for name in (spelling, spelling.upper(), spelling.title(),
                         f" \t{spelling}\n "):
                assert parse_space(name) == CatalogSpace(kind, param)
    for name in ["s0", "s9", "s01", "s10", "s_2", "s^^2", "s 2", "sigma1",
                 "sigma9", "sigma-2", "rp1", "rp9", "rp_3", "t3", "t_2",
                 "cp3", "kz3", "k(z, 2)", "s\u00b2", "s\u0662", "",
                 "banana"]:
        with pytest.raises(UnknownSpaceError) as refused:
            parse_space(name)
        assert str(refused.value) == f"unknown catalog space {name!r}"


def test_catalog_space_accepts_exactly_what_parse_space_accepts():
    # the 26 catalog names, each as its kind and parameter
    for name in CATALOG:
        space = parse_space(name)
        assert CatalogSpace(space.kind, space.param) == space
        assert space.display() == name
    for kind, param in [("banana", 0), ("sphere", 0), ("sphere", 9),
                        ("rp", 1), ("surface", 1), ("point", 3),
                        ("sphere", 2.0), ("torus", True)]:
        with pytest.raises(UnknownSpaceError):
            CatalogSpace(kind, param)
    with pytest.raises(UnknownSpaceError):
        cohomology_of(CatalogSpace("banana"), 3)


def test_sphere_table():
    gc = cohomology_of(parse_space("S2"), 3)
    assert groups_of(gc) == [Z, ZERO_GROUP, Z, ZERO_GROUP]


def test_cp2_table_and_ring():
    gc = cohomology_of(parse_space("CP2"), 5)
    assert groups_of(gc) == [Z, ZERO_GROUP, Z, ZERO_GROUP, Z, ZERO_GROUP]
    a = gc.named_element(2, "a")
    cup = gc.cup_by(a, 2)  # a cup a = a^2
    assert cup.matrix.entries == ((1,),)


def test_rp3_table():
    gc = cohomology_of(parse_space("RP3"), 4)
    assert groups_of(gc) == [Z, ZERO_GROUP, Z2, Z, ZERO_GROUP]


def test_rp4_rp5_rings():
    rp4 = cohomology_of(parse_space("RP4"), 6)
    assert groups_of(rp4) == [Z, ZERO_GROUP, Z2, ZERO_GROUP, Z2, ZERO_GROUP, ZERO_GROUP]
    a = rp4.named_element(2, "a")
    assert rp4.cup_by(a, 0).matrix.entries == ((1,),)   # Z -> Z/2
    assert rp4.cup_by(a, 2).matrix.entries == ((1,),)   # a * a = a^2
    rp5 = cohomology_of(parse_space("RP5"), 6)
    assert groups_of(rp5) == [Z, ZERO_GROUP, Z2, ZERO_GROUP, Z2, Z, ZERO_GROUP]
    a5 = rp5.named_element(2, "a")
    assert rp5.cup_by(a5, 2).matrix.entries == ((1,),)
    assert rp5.cup_by(a5, 4).is_zero_map()  # no torsion into H^7 = 0... H^6 here


def test_cup_linearity_in_the_class():
    cp2 = cohomology_of(parse_space("CP2"), 5)
    e = cp2.group(2).element([3])
    assert cp2.cup_by(e, 2).matrix.entries == ((3,),)


def test_kunneth_torus():
    t2 = cohomology_of(parse_space("T2"), 3)
    prod = kunneth_with_circle(t2)
    assert groups_of(prod) == [Z, FgGroup(3), FgGroup(3), Z]


def test_kunneth_surface():
    for g in (2, 3):
        sg = cohomology_of(parse_space(f"Sigma{g}"), 3)
        prod = kunneth_with_circle(sg)
        assert groups_of(prod) == [Z, FgGroup(2 * g + 1), FgGroup(2 * g + 1), Z]


def test_kunneth_point_is_circle():
    pt = cohomology_of(parse_space("point"), 1)
    prod = kunneth_with_circle(pt)
    assert groups_of(prod) == [Z, Z]
    assert prod.names[1] == ("1.z",)


def test_kunneth_rp3():
    rp3 = cohomology_of(parse_space("RP3"), 4)
    prod = kunneth_with_circle(rp3)
    assert groups_of(prod) == [Z, Z, Z2, FgGroup(1, (2,)), Z]


def test_kunneth_involution_names():
    # restricting to the '.1' generators recovers the input table
    for name in ("T2", "RP4", "CP2", "S2"):
        w = cohomology_of(parse_space(name), 5)
        prod = kunneth_with_circle(w)
        for k in range(w.max_degree + 1):
            wanted = [f"{n}.1" for n in w.names[k]]
            got = [n for n in prod.names[k] if n.endswith(".1")]
            assert sorted(got) == sorted(wanted)


def test_euler_characteristic_of_products_vanishes():
    for name in ("point", "S2", "S3", "T2", "Sigma2", "RP2", "RP3", "RP4",
                 "RP5", "CP2"):
        w = cohomology_of(parse_space(name), 6)
        prod = kunneth_with_circle(w)
        assert sum((-1) ** k * g.free_rank
                   for k, g in enumerate(prod.groups)) == 0


def test_poincare_duality_ranks():
    cases = {"T2": 2, "Sigma3": 2, "CP2": 4, "S2": 2, "S5": 5}
    for name, dim in cases.items():
        w = cohomology_of(parse_space(name), dim + 1)
        for k in range(dim + 1):
            assert w.group(k).free_rank == w.group(dim - k).free_rank


def test_kunneth_cup_acts_blockwise():
    cp2 = cohomology_of(parse_space("CP2"), 5)
    prod = kunneth_with_circle(cp2)
    e = prod.named_element(2, "a.1")
    cup2 = prod.cup_by(e, 2)
    # a.1 * a.1 = a^2.1
    assert cup2(e) == prod.named_element(4, "a^2.1")
    # a.1 * a.z = a^2.z
    assert prod.cup_by(e, 3)(prod.named_element(3, "a.z")) \
        == prod.named_element(5, "a^2.z")
    # classes with a '.z' component carry no ring data
    with pytest.raises(ValueError):
        t2prod = kunneth_with_circle(cohomology_of(parse_space("T2"), 4))
        ez = t2prod.named_element(2, "a.z")
        t2prod.cup_by(ez, 0)
